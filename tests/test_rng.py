"""The random streams: recorded vectors, the block engine against the
whole-array formulas, counts, and the memory of a draw."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MiB, traced_peak
from oracles import OracleRng

from fome.errors import ConfigError
from fome.rng import _BLOCK, Rng

# first draws of three seeds, recorded from the whole-array engine: raw(3),
# uniforms(2), normals(3) (which consumes two whole pairs), then raw(1)
VECTORS = {
    0: ([0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F],
        ["0x1.f1177150e4990p-1", "0x1.b39896a51a870p-4"],
        ["0x1.603b8eb7ea964p-1", "0x1.53a72be10a3f1p+0", "0x1.3f975dfaf134fp-6"],
        17561866513979060390),
    7: ([0x63CBE1E459320DD7, 0x044C3CD7F43C661C, 0xE6984080BAB12A02],
        ["0x1.2a75d6e0ce7c5p-1", "0x1.cf4ced99a8788p-2"],
        ["-0x1.a1ff9a17481d8p+0", "0x1.554b0688abd37p-2", "0x1.fc2e22f3007d1p-1"],
        7621113624420504425),
    2**64 - 1: ([0xE4D971771B652C20, 0xE99FF867DBF682C9, 0x382FF84CB27281E9],
                ["0x1.b476cdb32ea60p-2", "0x1.69408e5caf00dp-1"],
                ["0x1.2977d1b6649bep-1", "-0x1.c0a3687f3e838p-3", "0x1.a024877426197p-3"],
                224706085343030812),
}


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRecordedVectors:
    @pytest.mark.parametrize("seed", sorted(VECTORS))
    def test_first_words_uniforms_and_normals(self, seed):
        words, uniforms, normals, next_word = VECTORS[seed]
        gen = Rng(seed)
        assert gen.raw(3).tolist() == words
        assert [float(u).hex() for u in gen.uniforms(2)] == uniforms
        assert [float(z).hex() for z in gen.normals(3)] == normals
        assert gen.raw(1).tolist() == [next_word]

    def test_draws_without_replacement_and_split(self):
        gen = Rng(2024)
        drawn = gen.sample_without_replacement(30, 12)
        assert drawn.dtype == np.int64
        assert drawn.tolist() == [1, 3, 5, 10, 20, 24, 29, 6, 16, 19, 15, 0]
        assert gen.raw(1).tolist() == [15569471519921777547]
        assert Rng(2024).split(3).raw(1).tolist() == [3452251135369634742]


_EDGES = (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 2 * _BLOCK - 1)
_CALLS = st.tuples(st.sampled_from(["raw", "uniforms", "normals"]),
                   st.one_of(st.sampled_from(_EDGES), st.integers(0, 41)))


class TestBlockEngine:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), calls=st.lists(_CALLS, min_size=1, max_size=6))
    def test_interleaved_draws_match_whole_array_formulas(self, seed, calls):
        gen, oracle = Rng(seed), OracleRng(seed)
        for name, n in calls:
            assert same_bits(getattr(gen, name)(n), getattr(oracle, name)(n)), (name, n)
        assert same_bits(gen.raw(1), oracle.raw(1))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 40), k=st.integers(0, 40))
    def test_sample_without_replacement_matches_oracle(self, seed, n, k):
        k = min(k, n)
        got = Rng(seed).sample_without_replacement(n, k)
        assert same_bits(got, OracleRng(seed).sample_without_replacement(n, k))
        assert len(set(got.tolist())) == k

    @pytest.mark.parametrize("name", ["raw", "uniforms", "normals"])
    def test_negative_count_is_config_error_and_draws_nothing(self, name):
        gen, oracle = Rng(3), OracleRng(3)
        gen.raw(5)
        oracle.raw(5)
        with pytest.raises(ConfigError, match="negative"):
            getattr(gen, name)(-2)
        with pytest.raises(ConfigError, match="negative"):
            getattr(gen, name)(-5)
        assert same_bits(gen.raw(1), oracle.raw(1))

    def test_normals_peak_is_output_plus_one_block_allowance(self):
        # the infer-hd inputs: 64 channels x 15 patches x 1500 samples
        n = 1_440_000
        out, peak = traced_peak(lambda: Rng(5).normals(n))
        # measured: output + 0.25 MiB (the scratch of one block); the
        # whole-array formulas take output + 38.4 MiB
        assert peak <= out.nbytes + 1 * MiB
