"""Filter attenuation contracts, resampling, standardization, patching."""

import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import MiB, interior_tone_amplitude, make_tone, rms, steady_state_db, traced_peak
from oracles import (
    conditioning_oracle,
    detrend,
    ema_standardize_scalar,
    polyphase_oracle,
    window_and_patch,
)

from fome.errors import ConfigError, DataError, EmptyError, FormatError
from fome.preprocess import (
    PatchGrid,
    PreprocessConfig,
    bandpass_filter,
    grid_from_bytes,
    grid_to_bytes,
    notch_filter,
    preprocess_pipeline,
    resample,
    standardize_ema,
)
from fome.signal_store import Component, Recording, SyntheticSpec, generate_synthetic


class TestNotch:
    def test_zero_in_zero_out(self):
        r = Recording(np.zeros((2, 1000)), 1000.0)
        assert np.all(notch_filter(r, 50.0).data == 0.0)

    def test_50hz_tone_attenuated_30db(self):
        tone = make_tone(50.0, 1000.0, 10.0)
        out = notch_filter(tone, 50.0, 35.0)
        skip = 2000
        assert rms(out.data[:, skip:]) <= 0.032 * rms(tone.data[:, skip:])

    def test_distant_tone_within_1db(self):
        tone = make_tone(10.0, 1000.0, 10.0)
        out = notch_filter(tone, 50.0, 35.0)
        assert abs(steady_state_db(out, tone)) <= 1.0

    def test_rejects_frequency_at_nyquist(self):
        r = Recording(np.zeros((1, 100)), 100.0)
        with pytest.raises(ConfigError):
            notch_filter(r, 50.0)


class TestBandpass:
    def test_zero_in_zero_out(self):
        r = Recording(np.zeros((1, 500)), 1000.0)
        assert np.all(bandpass_filter(r, 0.5, 100.5).data == 0.0)

    def test_midband_passes_within_1db(self):
        tone = make_tone(7.0, 1000.0, 10.0)
        out = bandpass_filter(tone, 0.5, 100.5)
        assert abs(steady_state_db(out, tone, settle_s=4.0)) <= 1.0

    def test_low_edge_quarter_attenuated(self):
        tone = make_tone(0.125, 1000.0, 60.0)
        out = bandpass_filter(tone, 0.5, 100.5)
        assert steady_state_db(out, tone, settle_s=20.0) <= -12.0

    def test_slow_drift_attenuated(self):
        tone = make_tone(0.05, 250.0, 80.0)
        out = bandpass_filter(tone, 0.5, 100.5)
        assert steady_state_db(out, tone, settle_s=20.0) <= -12.0

    def test_high_side_attenuated(self):
        tone = make_tone(201.0, 1000.0, 10.0)
        out = bandpass_filter(tone, 0.5, 100.5)
        assert steady_state_db(out, tone, settle_s=4.0) <= -12.0

    def test_invalid_band_rejected(self):
        r = Recording(np.zeros((1, 100)), 250.0)
        with pytest.raises(ConfigError):
            bandpass_filter(r, 100.5, 0.5)
        with pytest.raises(ConfigError):
            bandpass_filter(r, 0.5, 130.0)


class TestResample:
    def test_identity_is_bit_exact(self, rng):
        r = Recording(rng.standard_normal((3, 777)), 250.0)
        out = resample(r, 250.0)
        assert np.array_equal(out.data, r.data)

    def test_output_length_ratio(self):
        r = Recording(np.zeros((1, 4000)), 1000.0)
        assert resample(r, 250.0).n_samples == 1000

    def test_tone_preserved_through_downsample(self):
        tone = make_tone(10.0, 1000.0, 4.0)
        out = resample(tone, 250.0)
        k_in, amp_in = interior_tone_amplitude(tone.data[0], 1000.0, 10.0)
        k_out, amp_out = interior_tone_amplitude(out.data[0], 250.0, 10.0)
        # both interior segments span 2 s, so 10 Hz lands on bin 20 in each
        assert k_in == 20 and k_out == 20
        assert 0.99 <= amp_out / amp_in <= 1.01

    def test_tone_preserved_through_upsample(self):
        tone = make_tone(10.0, 100.0, 10.0)
        out = resample(tone, 250.0)
        assert out.n_samples == 2500
        _, amp = interior_tone_amplitude(out.data[0], 250.0, 10.0)
        assert 0.99 <= amp <= 1.01

    def test_fractional_ratio_512_250(self):
        tone = make_tone(10.0, 512.0, 10.0)
        out = resample(tone, 250.0)
        assert out.n_samples == round(5120 * 250 / 512)
        _, amp = interior_tone_amplitude(out.data[0], 250.0, 10.0)
        assert 0.98 <= amp <= 1.02

    @pytest.mark.parametrize("n", [7, 8, 1500, 1501])
    @pytest.mark.parametrize("source, target", [(500.0, 250.0), (1000.0, 250.0),
                                                (250.0, 500.0), (250.0, 100.0)])
    def test_up_1_or_2_is_the_hand_framed_upfirdn_bitwise(self, rng, source, target, n):
        # the taps go to `resample_poly` divided by `up`, which it multiplies
        # back exactly for a power of two: the ingest rates keep their bits
        x = rng.standard_normal((3, n))
        out = resample(Recording(x, source), target).data
        assert out.tobytes() == polyphase_oracle(x, source, target).tobytes()

    @pytest.mark.parametrize("n", [7, 8, 1500, 1501])
    @pytest.mark.parametrize("source", [200.0, 300.0, 160.0, 128.0, 256.0, 512.0])
    def test_up_5_25_125_stays_near_the_hand_framed_upfirdn(self, rng, source, n):
        # `taps / up * up` rounds when `up` is not a power of two; measured at
        # most 8.9e-16 on these unit-variance inputs (1.4e-15 on 60 s of 19
        # channels), frozen at 2e-15
        x = rng.standard_normal((3, n))
        out = resample(Recording(x, source), 250.0).data
        oracle = polyphase_oracle(x, source, 250.0)
        assert out.shape == oracle.shape
        assert np.max(np.abs(out - oracle)) <= 2e-15


class TestDetrend:
    """The pipeline's least-squares detrend, `preprocess._detrend`, through
    the oracle's whole-recording stage."""

    def test_constant_removed(self):
        r = Recording(np.full((2, 100), 7.5), 100.0)
        assert np.max(np.abs(detrend(r).data)) < 1e-9

    def test_line_removed(self):
        t = np.arange(200, dtype=np.float64)
        r = Recording(np.stack([3.0 * t + 11.0, -0.5 * t + 2.0]), 100.0)
        assert np.max(np.abs(detrend(r).data)) < 1e-9

    def test_tone_recovered_from_tone_plus_line(self):
        t = np.arange(1000, dtype=np.float64)
        tone = np.sin(2 * np.pi * 25.0 * t / 250.0)
        r = Recording((tone + 0.25 * t - 40.0)[None, :], 250.0)
        out = detrend(r)
        # the fitted line also absorbs the tone's own tiny LSQ projection
        clean = detrend(Recording(tone[None, :], 250.0))
        assert np.max(np.abs(out.data - clean.data)) < 1e-6

    def test_orthogonal_to_constant_and_ramp(self, rng):
        r = Recording(rng.standard_normal((3, 400)), 250.0)
        out = detrend(r).data
        t = np.arange(400, dtype=np.float64)
        for c in range(3):
            assert abs(out[c].sum()) < 1e-6 * np.linalg.norm(out[c]) * 20.0
            tc = t - t.mean()
            assert abs(out[c] @ tc) < 1e-6 * np.linalg.norm(out[c]) * np.linalg.norm(tc)

    def test_mean_bounded_by_input_rms(self, rng):
        r = Recording(rng.standard_normal((2, 500)) * 40.0, 250.0)
        out = detrend(r).data
        assert np.max(np.abs(out.mean(axis=1))) < 1e-9 * rms(r.data)


class TestStandardizeEma:
    def cfg(self, alpha, eps=1e-8):
        return PreprocessConfig(ema_alpha=alpha, eps=eps)

    def test_alpha_one_zeroes_everything(self, rng):
        r = Recording(rng.standard_normal((2, 50)), 250.0)
        out, state = standardize_ema(r, self.cfg(1.0))
        assert np.all(out.data == 0.0)
        assert np.all(state.esd == 0.0)

    def test_constant_signal_zeroes(self):
        r = Recording(np.full((1, 30), 4.2), 250.0)
        out, _ = standardize_ema(r, self.cfg(0.3))
        assert np.all(out.data == 0.0)

    def test_small_sequence_against_oracle(self):
        r = Recording(np.array([[1.0, 2.0, 3.0]]), 250.0)
        out, _ = standardize_ema(r, self.cfg(0.5, eps=1e-8))
        expected = ema_standardize_scalar([1.0, 2.0, 3.0], 0.5, 1e-8)
        np.testing.assert_allclose(out.data[0], expected, rtol=1e-13, atol=0)

    def test_long_random_sequences_match_oracle(self, rng):
        xs = rng.standard_normal(10_000) * 30.0 + 5.0
        r = Recording(xs[None, :], 250.0)
        out, _ = standardize_ema(r, self.cfg(0.05))
        expected = np.array(ema_standardize_scalar(xs.tolist(), 0.05, 1e-8))
        np.testing.assert_allclose(out.data[0], expected, rtol=1e-12, atol=1e-12)

    def test_state_is_final_running_stats(self):
        xs = [1.0, 2.0, 3.0]
        r = Recording(np.array([xs]), 250.0)
        _, state = standardize_ema(r, self.cfg(0.5))
        ema, esd = 1.0, 0.0
        for x in xs:
            ema = 0.5 * x + 0.5 * ema
            esd = np.sqrt(0.5 * (x - ema) ** 2 + 0.5 * esd**2)
        assert abs(state.ema[0] - ema) < 1e-15
        assert abs(state.esd[0] - esd) < 1e-15

    def test_state_owns_one_value_per_channel(self, rng):
        r = Recording(rng.standard_normal((3, 400)), 250.0)
        before = r.data.copy()
        _, state = standardize_ema(r, self.cfg(0.05))
        for stat in (state.ema, state.esd):
            assert stat.shape == (3,)
            assert stat.base is None  # keeping the state keeps no signal-sized array
        assert np.array_equal(r.data, before)  # the input is not standardized in place


class TestWindowAndPatch:
    """The pipeline's window arithmetic, `preprocess._windowed_length`,
    through the oracle's whole-recording stage."""

    def cfg(self, window=1500):
        return PreprocessConfig(window_len_samples=window)

    def test_exact_single_window(self):
        r = Recording(np.ones((2, 1500)), 250.0)
        grid = window_and_patch(r, self.cfg(), 1500)
        assert grid.patches.shape == (2, 1, 1500)

    def test_fifteen_patches_per_pretraining_sample(self):
        r = Recording(np.zeros((1, 22_500)), 250.0)
        grid = window_and_patch(r, self.cfg(), 1500)
        assert grid.n_patches == 15

    def test_remainder_dropped(self):
        data = np.arange(1600, dtype=np.float64)[None, :]
        grid = window_and_patch(Recording(data, 250.0), self.cfg(), 1500)
        assert grid.n_patches == 1
        assert grid.patches[0, 0, -1] == 1499.0

    def test_too_short_raises(self):
        r = Recording(np.zeros((1, 1000)), 250.0)
        with pytest.raises(EmptyError):
            window_and_patch(r, self.cfg(), 1500)

    def test_patch_must_divide_window(self):
        r = Recording(np.zeros((1, 3000)), 250.0)
        with pytest.raises(ConfigError):
            window_and_patch(r, self.cfg(), 700)

    def test_sub_patches_preserve_order(self):
        data = np.arange(3000, dtype=np.float64)[None, :]
        grid = window_and_patch(Recording(data, 250.0), self.cfg(), 750)
        assert grid.patches.shape == (1, 4, 750)
        assert grid.patches[0, 2, 0] == 1500.0


class TestPipeline:
    def test_zero_recording_zero_grid(self):
        r = Recording(np.zeros((3, 8000)), 1000.0)
        grid = preprocess_pipeline(r, PreprocessConfig())
        assert grid.patches.shape == (3, 1, 1500)
        assert np.all(grid.patches == 0.0)

    def test_shape_arithmetic_19_channels(self):
        spec = SyntheticSpec(channels=19, duration_s=60.0, sample_rate_hz=500.0,
                             seed=3, noise_std=10.0,
                             components=[Component(c, 4.0 + c, 20.0, 0.1 * c)
                                         for c in range(19)])
        grid = preprocess_pipeline(generate_synthetic(spec), PreprocessConfig())
        assert grid.patches.shape == (19, 10, 1500)
        assert grid.source_rate_hz == 250.0

    def test_output_standardized_and_finite(self):
        spec = SyntheticSpec(channels=2, duration_s=30.0, sample_rate_hz=500.0,
                             seed=11, noise_std=15.0,
                             components=[Component(0, 10.0, 40.0, 0.0),
                                         Component(1, 22.0, 25.0, 1.0)])
        grid = preprocess_pipeline(generate_synthetic(spec), PreprocessConfig())
        assert np.all(np.isfinite(grid.patches))
        for c in range(2):
            for p in range(grid.n_patches):
                assert 0.05 <= rms(grid.patches[c, p]) <= 20.0

    def test_channel_permutation_equivariance(self):
        spec = SyntheticSpec(channels=4, duration_s=12.0, sample_rate_hz=500.0,
                             seed=21, noise_std=8.0,
                             components=[Component(c, 6.0 + 3 * c, 30.0, 0.3 * c)
                                         for c in range(4)])
        r = generate_synthetic(spec)
        perm = [2, 0, 3, 1]
        grid = preprocess_pipeline(r, PreprocessConfig())
        permuted = preprocess_pipeline(
            Recording(r.data[perm], r.sample_rate_hz), PreprocessConfig()
        )
        np.testing.assert_array_equal(permuted.patches, grid.patches[perm])

    def test_each_window_standardized_on_its_own(self):
        spec = SyntheticSpec(channels=3, duration_s=30.0, sample_rate_hz=500.0,
                             seed=5, noise_std=10.0,
                             components=[Component(c, 5.0 + 4 * c, 25.0, 0.2 * c)
                                         for c in range(3)])
        r = generate_synthetic(spec)
        cfg = PreprocessConfig()
        grid = preprocess_pipeline(r, cfg)
        stage = notch_filter(r, cfg.notch_hz, cfg.notch_q)
        stage = bandpass_filter(stage, cfg.band_lo_hz, cfg.band_hi_hz)
        stage = detrend(resample(stage, cfg.target_rate_hz))
        window = cfg.window_len_samples
        for w in range(grid.n_patches):
            segment = Recording(stage.data[:, w * window : (w + 1) * window], 250.0)
            expected, _ = standardize_ema(segment, cfg)
            np.testing.assert_array_equal(grid.patches[:, w], expected.data)

    @pytest.mark.parametrize("rate", [100.0, 250.0, 500.0, 512.0, 1000.0])
    def test_resampler_plus_patching_any_rate(self, rate):
        spec = SyntheticSpec(channels=2, duration_s=30.0, sample_rate_hz=rate,
                             seed=5, noise_std=5.0,
                             components=[Component(0, 12.0, 20.0, 0.0)])
        r = resample(generate_synthetic(spec), 250.0)
        grid = window_and_patch(r, PreprocessConfig(), 1500)
        assert grid.patch_len == 1500
        assert grid.source_rate_hz == 250.0
        assert grid.n_patches == 5  # 30 s -> five 6 s patches

    @pytest.mark.parametrize("rate", [250.0, 500.0, 512.0, 1000.0])
    def test_full_pipeline_any_rate_above_notch(self, rate):
        # the 50 Hz notch needs Nyquist > 50, so 100 Hz input only passes
        # through the resampler/patching property above
        spec = SyntheticSpec(channels=2, duration_s=30.0, sample_rate_hz=rate,
                             seed=5, noise_std=5.0,
                             components=[Component(0, 12.0, 20.0, 0.0)])
        cfg = PreprocessConfig(band_hi_hz=min(100.5, 0.9 * rate / 2.0))
        grid = preprocess_pipeline(generate_synthetic(spec), cfg)
        assert grid.patch_len == 1500
        assert grid.source_rate_hz == 250.0
        assert grid.n_patches == 5

    @pytest.mark.parametrize("band", [(0.5, 100.5), (1.0, 40.0)], ids=["wide", "narrow"])
    @pytest.mark.parametrize("notch", [50.0, 60.0])
    @pytest.mark.parametrize("rate", [250.0, 256.0, 500.0, 512.0, 1000.0])
    def test_cascaded_filter_equals_stage_chain_bitwise(self, rate, notch, band):
        spec = SyntheticSpec(channels=3, duration_s=12.0, sample_rate_hz=rate,
                             seed=int(rate) + int(notch), noise_std=6.0,
                             components=[Component(0, 10.0, 20.0, 0.0),
                                         Component(2, notch, 15.0, 0.5)])
        r = generate_synthetic(spec)
        cfg = PreprocessConfig(notch_hz=notch, band_lo_hz=band[0], band_hi_hz=band[1])
        for patch_len in (None, 500):
            got = preprocess_pipeline(r, cfg, patch_len)
            want = conditioning_oracle(r, cfg, patch_len)
            assert got.patches.tobytes() == want.patches.tobytes()
            assert (got.patch_len, got.source_rate_hz) == (want.patch_len, want.source_rate_hz)

    def test_ingest_recording_peak(self):
        # the ingest workload's recording: 19 ch x 60 s at 500 Hz (4.35 MiB)
        spec = SyntheticSpec(channels=19, duration_s=60.0, sample_rate_hz=500.0, seed=11,
                             noise_std=5.0, components=[Component(c, 8.0 + 2.0 * c, 20.0, 0.0)
                                                        for c in range(19)])
        r = generate_synthetic(spec)
        grid, peak = traced_peak(lambda: preprocess_pipeline(r, PreprocessConfig()))
        assert grid.patches.shape == (19, 10, 1500)
        # measured 7.0 MiB: the (C, T_out) result plus two arrays of its
        # size while standardizing; whole-array stages took 17.4 MiB
        assert peak <= 8 * MiB

    @pytest.mark.parametrize("rate, message", [
        (100.0, "notch frequency 50.0 Hz outside (0, 50.0) Hz"),
        (200.0, "band (0.5, 100.5) Hz invalid for Nyquist 100.0 Hz"),
    ], ids=["notch-and-band-invalid", "band-invalid"])
    def test_notch_checked_before_band(self, rate, message):
        r = Recording(np.zeros((2, 4000)), rate)
        cfg = PreprocessConfig()
        with pytest.raises(ConfigError) as caught:
            preprocess_pipeline(r, cfg)
        assert str(caught.value) == message
        with pytest.raises(ConfigError) as staged:
            conditioning_oracle(r, cfg)
        assert str(staged.value) == message


class TestGridFormat:
    def test_round_trip(self, rng):
        patches = rng.standard_normal((3, 4, 100)).astype(np.float32).astype(np.float64)
        grid = PatchGrid(patches, 100, 250.0)
        back = grid_from_bytes(grid_to_bytes(grid))
        assert np.array_equal(back.patches, grid.patches)
        assert back.patch_len == 100 and back.source_rate_hz == 250.0

    @settings(max_examples=40, deadline=None)
    @given(
        patches=hnp.arrays(np.float32, hnp.array_shapes(min_dims=3, max_dims=3, max_side=5),
                           elements=st.floats(width=32, allow_nan=False, allow_infinity=False)),
        rate=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    def test_round_trip_property(self, patches, rate):
        grid = PatchGrid(patches, patches.shape[2], rate)
        back = grid_from_bytes(grid_to_bytes(grid))
        assert back.patches.shape == patches.shape and back.patch_len == patches.shape[2]
        assert back.patches.astype(np.float32).tobytes() == patches.tobytes()
        assert struct.pack("<d", back.source_rate_hz) == struct.pack("<d", rate)

    @pytest.mark.parametrize("shape", [(0, 3, 1500), (2, 0, 1500)])
    def test_empty_axes_rejected(self, shape):
        with pytest.raises(DataError):
            PatchGrid(np.zeros(shape), shape[2], 250.0)
        c, p, length = shape
        with pytest.raises(DataError):
            grid_from_bytes(struct.pack("<4sIIId", b"FEGP", c, p, length, 250.0))

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            grid_from_bytes(b"XXXX" + bytes(20))

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), float("-inf"), 0.0, -250.0])
    def test_non_finite_or_non_positive_rate_rejected(self, rate):
        named = re.escape(f"got {rate} Hz")
        with pytest.raises(DataError, match=named):
            PatchGrid(np.zeros((1, 1, 4)), 4, rate)
        with pytest.raises(DataError, match=named):
            grid_from_bytes(struct.pack("<4sIIId", b"FEGP", 1, 1, 4, rate) + bytes(16))

    def test_every_truncation_and_byte_flip_parses_or_is_typed_error(self):
        blob = grid_to_bytes(PatchGrid(np.arange(12.0).reshape(2, 3, 2), 2, 250.0))
        cases = [blob[:end] for end in range(len(blob))]
        cases += [blob[:i] + bytes([blob[i] ^ bits]) + blob[i + 1:]
                  for i in range(len(blob)) for bits in (0x01, 0x80, 0xFF)]
        for case in cases:
            try:
                grid_from_bytes(case)
            except (FormatError, DataError):
                pass

    def test_size_mismatch(self, rng):
        grid = PatchGrid(rng.standard_normal((1, 2, 8)), 8, 250.0)
        blob = grid_to_bytes(grid)
        with pytest.raises(FormatError):
            grid_from_bytes(blob[:-4])
