"""Recording codec round-trips, format errors, and synthetic generation."""

import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import MiB, traced_peak
from mutations import mutated
from oracles import csv_from_text, csv_to_text, synthetic_oracle

from fome import signal_store
from fome.errors import CapacityError, DataError, FormatError, SpecError, decode_text
from fome.signal_store import (
    Component,
    Recording,
    SyntheticSpec,
    generate_synthetic,
    recording_from_bytes,
    recording_to_bytes,
)


def random_f32_recording(rng, channels, samples, rate):
    data = rng.standard_normal((channels, samples)).astype(np.float32).astype(np.float64)
    return Recording(data, rate, id="test")


class TestBinaryFormat:
    def test_round_trip_bit_identical(self, rng):
        r = random_f32_recording(rng, 3, 500, 250.0)
        back = recording_from_bytes(recording_to_bytes(r))
        assert np.array_equal(back.data, r.data)
        assert back.sample_rate_hz == r.sample_rate_hz
        assert back.channels == 3 and back.n_samples == 500

    def test_file_constructed_byte_by_byte(self):
        c, t, rate = 3, 1500, 250.0
        payload = bytearray()
        payload += b"FEEG"
        payload += bytes([1])
        payload += struct.pack("<I", c)
        payload += struct.pack("<Q", t)
        payload += struct.pack("<d", rate)
        values = np.arange(c * t, dtype="<f4") * 0.25
        payload += values.tobytes()
        r = recording_from_bytes(bytes(payload))
        assert r.channels == 3 and r.n_samples == 1500
        assert r.sample_rate_hz == 250.0
        assert np.array_equal(r.data, values.astype(np.float64).reshape(c, t))

    def test_double_round_trip_byte_compare(self):
        spec = SyntheticSpec(channels=64, duration_s=10.0, sample_rate_hz=500.0,
                             seed=7, noise_std=12.5,
                             components=[Component(0, 11.0, 30.0, 0.4)])
        r = generate_synthetic(spec)
        assert r.channels == 64 and r.n_samples == 5000
        first = recording_to_bytes(r)
        assert recording_to_bytes(recording_from_bytes(first)) == first

    def test_single_sample_round_trip(self):
        r = Recording(np.zeros((1, 1)), 100.0)
        back = recording_from_bytes(recording_to_bytes(r))
        assert np.array_equal(back.data, r.data)

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            recording_from_bytes(b"NOPE" + bytes(30))

    def test_truncated_payload(self, rng):
        r = random_f32_recording(rng, 2, 100, 250.0)
        blob = recording_to_bytes(r)
        with pytest.raises(FormatError):
            recording_from_bytes(blob[:-8])



    def test_every_truncation_and_byte_flip_parses_or_is_typed_error(self):
        blob = recording_to_bytes(Recording(np.arange(6.0).reshape(2, 3), 250.0))
        cases = [blob[:end] for end in range(len(blob))]
        cases += [blob[:i] + bytes([blob[i] ^ bits]) + blob[i + 1:]
                  for i in range(len(blob)) for bits in (0x01, 0x80, 0xFF)]
        for case in cases:
            try:
                recording_from_bytes(case)
            except (FormatError, DataError):
                pass

    @settings(max_examples=40, deadline=None)
    @given(
        data=hnp.arrays(np.float32, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                        elements=st.floats(width=32, allow_nan=False, allow_infinity=False)),
        rate=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    def test_round_trip_property(self, data, rate):
        back = recording_from_bytes(recording_to_bytes(Recording(data, rate)))
        assert back.data.shape == data.shape
        assert back.data.astype(np.float32).tobytes() == data.tobytes()
        assert struct.pack("<d", back.sample_rate_hz) == struct.pack("<d", rate)


class TestCsvFormat:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_corrupt_csv_parses_or_is_typed_error(self, data):
        r = Recording(np.array([[0.5, -1.25, 3.0], [2.0, 0.0, -0.75]]), 512.0,
                      channel_labels=["Fz", "Cz"])
        blob = mutated(data, recording_to_bytes(r, format="csv"))
        try:
            assert isinstance(recording_from_bytes(blob, format="csv"), Recording)
        except (FormatError, DataError):
            pass

    @settings(max_examples=60, deadline=None)
    @given(
        data=hnp.arrays(np.float32, hnp.array_shapes(min_dims=2, max_dims=2, max_side=40),
                        elements=st.floats(width=32, allow_nan=False, allow_infinity=False)),
        labels=st.booleans(),
    )
    def test_codec_is_the_per_value_codec_bitwise(self, data, labels):
        names = [f"é{i}" for i in range(data.shape[0])] if labels else None
        r = Recording(data, 250.0, channel_labels=names)
        blob = recording_to_bytes(r, format="csv")
        assert bytes(blob) == csv_to_text(r).encode("utf-8")
        back = recording_from_bytes(blob, source="r.csv", format="csv")
        want = csv_from_text(blob.decode("utf-8"), "r.csv")
        assert (back.sample_rate_hz, back.channel_labels) == (want.sample_rate_hz,
                                                             want.channel_labels)
        assert back.data.tobytes() == want.data.tobytes()

    def test_codec_across_row_blocks(self, rng):
        r = Recording(1e3 * rng.standard_normal((3, 2500)), 500.0)
        blob = recording_to_bytes(r, format="csv")
        assert bytes(blob) == csv_to_text(r).encode("utf-8")
        back = recording_from_bytes(blob, format="csv")
        assert back.data.tobytes() == csv_from_text(blob.decode(), "<bytes>").data.tobytes()

    def test_reader_peak_memory(self):
        # the ingest workload's recording, 19 ch x 60 s at 500 Hz: a 6.6 MiB
        # CSV, here with a non-ASCII label
        data = np.random.default_rng(3).standard_normal((19, 30000)).astype(np.float32)
        blob = bytes(recording_to_bytes(Recording(data, 500.0, ["Fp1"] * 18 + ["\u00b5V"]),
                                        format="csv"))
        back, peak = traced_peak(lambda: recording_from_bytes(blob, format="csv"))
        assert back.data.tobytes() == data.astype(np.float64).tobytes()
        # measured 7.1 MiB: the float32 rows and the float64 result; one
        # Python object per value took 38.3
        assert peak <= 9 * MiB

    # values and line breaks on which a fast reader could part from the
    # per-value one: whitespace, underscores, comments, non-ASCII digits, NUL,
    # a byte that is not UTF-8 (0xa0, a space in latin-1) and exotic breaks
    TOKENS = ["1.5", "-0", " 2", "3 ", "\t4", "1_0", "nan", "-inf", "1e400", "1e-50",
              "0.100000001", "1.00000005960464477539062501", "", " ", "x", "\x00", "1.5\x00",
              "0x1", "+.5", "5.", "\u0661", "#1", "1\udca0", "\u00a02"]
    BREAKS = ["\n", "\n", "\n", "\r\n", "\r", "\v", "\x1c", "\x85", "\u2028"]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_reader_matches_the_per_value_reader(self, data):
        channels = data.draw(st.integers(1, 3))
        label = data.draw(st.sampled_from(["c", "\u00b5V", "\udcff", "c\u2028", "c\x85"]))
        lines = ["# rate_hz=250.0", ",".join(f"{label}{i}" for i in range(channels))]
        for _ in range(data.draw(st.integers(0, 4))):
            # mostly the right arity from well-formed tokens, at times anything
            tokens = st.sampled_from(self.TOKENS[:12])
            width = st.just(channels)
            if data.draw(st.integers(0, 3)) == 0:
                tokens, width = st.sampled_from(self.TOKENS), st.integers(1, 4)
            n = data.draw(width)
            lines.append(",".join(data.draw(st.lists(tokens, min_size=n, max_size=n))))
        blob = "".join(line + data.draw(st.sampled_from(self.BREAKS))
                       for line in lines).encode("utf-8", "surrogateescape")
        self._same_outcome(blob)

    @pytest.mark.parametrize("rows", [b"#1,2\n3,4\n", b"1\xa0,2\n3,4\n", b"1,2\n\xa03,4\n",
                                      b"1,2\n3\n", b"1\n2\n", b"\n \n", b"1,2\r\n3,4"],
                             ids=["comment", "nbsp-byte", "nbsp-byte-lead", "arity", "arity-all",
                                  "blank", "crlf"])
    def test_reader_matches_the_per_value_reader_on_edge_rows(self, rows):
        self._same_outcome(b"# rate_hz=250.0\nc0,c1\n" + rows)

    @staticmethod
    def _same_outcome(blob):
        outcomes = []
        for read in (lambda: csv_from_text(decode_text(blob, "x.csv"), "x.csv"),
                     lambda: recording_from_bytes(blob, source="x.csv", format="csv")):
            try:
                r = read()
                outcomes.append((r.sample_rate_hz, r.channel_labels, r.data.tobytes()))
            except (FormatError, DataError) as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]

    def test_round_trip(self, rng):
        r = Recording(
            rng.standard_normal((2, 40)).astype(np.float32).astype(np.float64),
            512.0,
            channel_labels=["Fz", "Cz"],
        )
        back = recording_from_bytes(recording_to_bytes(r, format="csv"), format="csv")
        assert back.channel_labels == ["Fz", "Cz"]
        assert back.sample_rate_hz == 512.0
        assert np.array_equal(back.data, r.data)

    def test_arity_mismatch(self):
        with pytest.raises(FormatError, match="line 4"):
            recording_from_bytes(b"# rate_hz=250.0\ncha,chb\n1.0,2.0\n1.0,2.0,3.0\n",
                                 format="csv")

    def test_missing_rate_header(self):
        with pytest.raises(FormatError):
            recording_from_bytes(b"cha,chb\n1.0,2.0\n1.0,2.0\n", format="csv")


class TestGenerateSynthetic:
    def test_sine_starts_at_zero(self):
        spec = SyntheticSpec(channels=1, duration_s=1.0, sample_rate_hz=250.0, seed=0,
                             components=[Component(0, 10.0, 1.0, 0.0)])
        r = generate_synthetic(spec)
        assert r.data[0, 0] == 0.0

    def test_quarter_period_lattice(self):
        fs = 100.0
        spec = SyntheticSpec(channels=1, duration_s=0.12, sample_rate_hz=fs, seed=0,
                             components=[Component(0, fs / 4.0, 1.0, 0.0)])
        r = generate_synthetic(spec)
        expected = np.array([0.0, 1.0, 0.0, -1.0] * 3)
        assert np.allclose(r.data[0], expected, atol=1e-6)

    def test_seed_determinism(self):
        spec = dict(channels=2, duration_s=0.5, sample_rate_hz=250.0, noise_std=1.0,
                    components=[Component(1, 12.0, 2.0, 0.1)])
        a = generate_synthetic(SyntheticSpec(seed=5, **spec))
        b = generate_synthetic(SyntheticSpec(seed=5, **spec))
        c = generate_synthetic(SyntheticSpec(seed=6, **spec))
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    def test_superposition(self):
        spec = SyntheticSpec(channels=2, duration_s=0.2, sample_rate_hz=250.0, seed=0,
                             components=[Component(0, 10.0, 1.0, 0.0),
                                         Component(0, 20.0, 0.5, 1.0)])
        r = generate_synthetic(spec)
        t = np.arange(50) / 250.0
        expected = np.sin(2 * np.pi * 10 * t) + 0.5 * np.sin(2 * np.pi * 20 * t + 1.0)
        assert np.allclose(r.data[0], expected, atol=1e-6)
        assert np.allclose(r.data[1], 0.0)

    @settings(max_examples=30, deadline=None)
    @given(channels=st.integers(1, 4), n=st.integers(1, 700), noise=st.sampled_from([0.0, 0.5, 3.0]),
           seed=st.integers(0, 2**32),
           comps=st.lists(st.tuples(st.integers(0, 3), st.floats(0.0, 49.0),
                                    st.floats(-30.0, 30.0), st.floats(-4.0, 4.0)), max_size=5))
    def test_matches_whole_array_formula_bitwise(self, channels, n, noise, seed, comps):
        # several components on one channel, no noise, and odd C*T (a
        # Box-Muller pair split across two channels) all occur here
        spec = SyntheticSpec(channels=channels, duration_s=n / 100.0, sample_rate_hz=100.0,
                             seed=seed, noise_std=noise,
                             components=[Component(c % channels, *rest) for c, *rest in comps])
        got = generate_synthetic(spec).data
        assert got.tobytes() == synthetic_oracle(spec).tobytes()

    def test_ingest_recording_peak(self):
        spec = SyntheticSpec(channels=19, duration_s=60.0, sample_rate_hz=500.0, seed=11,
                             noise_std=5.0, components=[Component(c, 8.0 + 2.0 * c, 20.0, 0.0)
                                                        for c in range(19)])
        r, peak = traced_peak(lambda: generate_synthetic(spec))
        # measured 5.35 MiB: the 4.35 MiB result plus one block of noise
        # scratch and a few rows; whole-array noise and quantizing took 24.2 MiB
        assert peak <= r.data.nbytes + 2 * MiB

    def test_nyquist_rejected(self):
        with pytest.raises(SpecError):
            SyntheticSpec(channels=1, duration_s=1.0, sample_rate_hz=100.0, seed=0,
                          components=[Component(0, 50.0, 1.0, 0.0)])

    def test_bad_channel_rejected(self):
        with pytest.raises(SpecError):
            SyntheticSpec(channels=1, duration_s=1.0, sample_rate_hz=100.0, seed=0,
                          components=[Component(3, 10.0, 1.0, 0.0)])

    def test_sample_budget_is_the_limit(self):
        budget = signal_store._MAX_SYNTH_SAMPLES
        SyntheticSpec(channels=4, duration_s=budget / 4, sample_rate_hz=1.0, seed=0)
        with pytest.raises(CapacityError, match=f"budget of {budget} samples"):
            SyntheticSpec(channels=4, duration_s=budget / 4 + 1, sample_rate_hz=1.0, seed=0)


class TestSpectralCrossCheck:
    def test_zero_noise_tone_peaks_at_nearest_bin(self):
        from fome.spectral import psd

        fs, seconds = 250.0, 4.0
        for freq in (10.0, 12.3, 40.7):
            spec = SyntheticSpec(channels=1, duration_s=seconds, sample_rate_hz=fs,
                                 seed=0, components=[Component(0, freq, 1.0, 0.3)])
            r = generate_synthetic(spec)
            spectrum = psd(r.data[0], fs)
            peak = int(np.argmax(spectrum))
            assert peak == round(freq * r.n_samples / fs)


class TestRecordingInvariants:
    def test_rejects_nonfinite(self):
        data = np.ones((2, 3))
        data[0, 1] = np.inf
        with pytest.raises(DataError, match="channel 0, index 1"):
            Recording(data, 250.0)
        # the one check of a decoded recording names its source
        with pytest.raises(DataError, match=r"^x\.feeg: non-finite sample at channel 0, index 1$"):
            Recording(data, 250.0, id="x.feeg")
        blob = recording_to_bytes(Recording(np.ones((2, 3)), 250.0))
        blob[-8:-4] = struct.pack("<f", np.inf)
        with pytest.raises(DataError, match=r"^x\.feeg: non-finite sample at channel 1, index 1$"):
            recording_from_bytes(bytes(blob), "x.feeg")

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            Recording(np.zeros((0, 10)), 250.0)

    def test_label_count_checked(self):
        with pytest.raises(DataError):
            Recording(np.zeros((2, 4)), 250.0, channel_labels=["one"])


class TestSampleRate:
    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), float("-inf"), 0.0, -250.0])
    def test_non_finite_or_non_positive_rate_rejected_by_each_codec(self, rate):
        named = re.escape(f"got {rate} Hz")
        with pytest.raises(DataError, match=named):
            Recording(np.zeros((1, 2)), rate)
        feeg = struct.pack("<4sBIQd", b"FEEG", 1, 1, 2, rate) + bytes(8)
        with pytest.raises(DataError, match=named):
            recording_from_bytes(feeg)
        with pytest.raises(DataError, match=named):
            recording_from_bytes(f"# rate_hz={rate!r}\nFz\n1.0\n2.0\n".encode(), format="csv")

    @pytest.mark.parametrize("duration_s, rate", [(1.0, float("nan")), (float("inf"), 250.0)])
    def test_synthetic_spec_needs_finite_duration_and_rate(self, duration_s, rate):
        with pytest.raises(SpecError, match="finite and positive"):
            SyntheticSpec(channels=1, duration_s=duration_s, sample_rate_hz=rate, seed=0)
