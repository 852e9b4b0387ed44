"""Acceptance criteria, one test per criterion, in order.

Each test prints a single PASS/FAIL line (run with `pytest -s` to see them
live).  Training-based criteria use frozen desk-scale experiment recipes;
their learning-rate peaks and step budgets were fixed from calibration runs
and are recorded here as regression baselines.
"""

import time

import numpy as np

from oracles import (
    ema_standardize_scalar,
    encoder_block_oracle,
    fbeta_closed_form,
    naive_dft,
)

from fome import model, trainer
from fome.model import ParameterStore, apply_ablation, preset
from fome.numerics import Tape, Tensor, backward
from fome.preprocess import (
    PatchGrid,
    PreprocessConfig,
    bandpass_filter,
    notch_filter,
    resample,
    standardize_ema,
)
from fome.rng import Rng
from fome.signal_store import Recording
from fome.spectral import band_powers, dft
from fome.trainer import TrainConfig, lr_at, make_mask_plan

# upper 1% quantile of chi-squared with 59 degrees of freedom
# (frozen from scipy.stats.chi2.ppf(0.99, 59))
CHI2_99_DF59 = 87.16571139978757


def announce(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number:02d} {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def tone(freq, fs, seconds, amp=1.0):
    t = np.arange(int(seconds * fs)) / fs
    return amp * np.sin(2 * np.pi * freq * t)


# ---------------------------------------------------------------------------
# shared frozen experiment recipes
# ---------------------------------------------------------------------------


def overfit_corpus(n=200, patches=15, length=8, channels=2):
    """Fixed three-tone family; samples vary by amplitude and light noise."""
    gen = Rng(2024)
    t = np.arange(patches * length) / 250.0
    base = sum(np.sin(2 * np.pi * f * t + ph)
               for f, ph in ((7.0, 0.3), (13.0, 1.1), (29.0, 2.0)))
    corpus = []
    for _ in range(n):
        amp = 0.8 + 0.4 * float(gen.uniforms(1)[0])
        noise = 0.05 * gen.normals(channels * patches * length).reshape(channels, -1)
        sig = np.stack([amp * base, 0.7 * amp * base]) + noise
        corpus.append(PatchGrid(sig.reshape(channels, patches, length), length, 250.0))
    return corpus


CLS_L, CLS_P, CLS_C = 100, 8, 2


def classification_dataset(n=400, noise=1.0, seed=1234):
    """1 Hz vs 30 Hz, alternating labels, independent per-channel phases."""
    gen = Rng(seed)
    t = np.arange(CLS_P * CLS_L) / 250.0
    data = []
    for i in range(n):
        freq = 1.0 if i % 2 == 0 else 30.0
        amp = 0.7 + 0.6 * float(gen.uniforms(1)[0])
        chans = [amp * np.sin(2 * np.pi * freq * t + float(gen.uniforms(1)[0]) * 2 * np.pi)
                 for _ in range(CLS_C)]
        sig = np.stack(chans) + noise * gen.normals(CLS_C * CLS_P * CLS_L).reshape(CLS_C, -1)
        data.append((PatchGrid(sig.reshape(CLS_C, CLS_P, CLS_L), CLS_L, 250.0), i % 2))
    return data


_classify_cache: dict = {}


def classify_run(seed: int, ablate: bool):
    """Pretrain on the train block, then fully fine-tune; cached per config."""
    key = (seed, ablate)
    if key in _classify_cache:
        return _classify_cache[key]
    cfg = preset("tiny", patch_len=CLS_L, max_patches=CLS_P)
    if ablate:
        cfg = apply_ablation(cfg, "temporal")
    params = ParameterStore.initialize(cfg, seed=seed)
    data = classification_dataset()
    train_idx, _, _ = trainer.split_blocks(len(data))
    corpus = [data[i][0] for i in train_idx]
    pre_cfg = TrainConfig(batch_size=8, grad_accum=2, seed=seed, lr_init=1e-4,
                          lr_peak=3e-3, lr_final=1e-5, warmup_steps=30, total_steps=600)
    trainer.pretrain(corpus, params, cfg, pre_cfg, steps=600)
    ft_cfg = TrainConfig(batch_size=8, grad_accum=2, seed=seed, lr_init=4e-5,
                         lr_peak=1e-3, lr_final=1e-6, warmup_steps=25, total_steps=500)
    report = trainer.finetune_classify(data, params, cfg, ft_cfg, n_classes=2, steps=500)
    _classify_cache[key] = report
    return report


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_gradient_fidelity():
    started = time.time()
    cfg = preset("tiny", max_patches=3)  # C=2, P=3, L=8, D=8, h=2, 1+1 layers
    params = ParameterStore.initialize(cfg, seed=17)
    params.add(model.reconstruct_head_shapes(cfg), seed=18)
    gen = np.random.default_rng(0)
    grid = PatchGrid(gen.standard_normal((2, 3, 8)), 8, 250.0)
    bands = band_powers(grid)
    plan = make_mask_plan(2, 3, 0.4, Rng(4))

    def loss_fn():
        encoded = model.forward(grid.patches, bands, params, cfg, mask=plan)
        return trainer._masked_mse(encoded, params, grid.patches, plan, "masked_only")

    with Tape():
        loss = loss_fn()
    backward(loss)
    h = 1e-5
    worst = 0.0
    checked = 0
    for _, tensor in params.items():
        flat = tensor.data.reshape(-1)
        grad = tensor.grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(loss_fn().data)
            flat[i] = orig - h
            down = float(loss_fn().data)
            flat[i] = orig
            fd = (up - down) / (2 * h)
            if abs(fd) < 1e-8 and abs(grad[i]) < 1e-8:
                continue  # parameter provably out of the data path
            worst = max(worst, abs(grad[i] - fd) / (abs(fd) + 1e-12))
            checked += 1
    elapsed = time.time() - started
    ok = worst < 1e-4 and elapsed < 60.0
    announce(1, ok, f"gradients of masked-MSE: {checked} params checked, "
                    f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_equation_oracle_equivalence():
    gen = np.random.default_rng(7)
    worst = 0.0
    for trial in range(100):
        heads = int(gen.choice([1, 2]))
        dim = int(gen.choice([4, 8]))
        cfg = preset("tiny", model_dim=dim, heads=heads, ffn_dim=2 * dim,
                     patch_len=dim, max_patches=8)
        store = ParameterStore.initialize(cfg, seed=trial)
        channels = int(gen.integers(1, 4))
        patches = int(gen.integers(1, 5))
        x = gen.standard_normal((channels, patches, dim))
        ours_t = model.temporal_attention(
            Tensor(x), store, 0, cfg).data
        ref_t = encoder_block_oracle(x, store.arrays(), "temporal0",
                                     cfg.heads, cfg.d_k, cfg.scale_denominator)
        ours_c = model.channel_attention(
            Tensor(x), store, 0, cfg).data
        ref_c = encoder_block_oracle(x.transpose(1, 0, 2), store.arrays(), "channel0",
                                     cfg.heads, cfg.d_k,
                                     cfg.scale_denominator).transpose(1, 0, 2)
        worst = max(worst, float(np.max(np.abs(ours_t - ref_t))),
                    float(np.max(np.abs(ours_c - ref_c))))
    announce(2, worst < 1e-10,
             f"temporal+channel blocks vs straight-line oracle over 100 trials, "
             f"max abs diff {worst:.2e}")


def test_criterion_03_spectral_correctness():
    gen = np.random.default_rng(11)
    x = gen.standard_normal(1500)
    fft_err = float(np.max(np.abs(dft(x) - naive_dft(x)))) / np.linalg.norm(x)
    parseval = abs(np.sum(np.abs(dft(x)) ** 2) - 1500 * np.sum(x**2)) / (1500 * np.sum(x**2))
    grid = PatchGrid(tone(10.0, 250.0, 6.0).reshape(1, 1, 1500), 1500, 250.0)
    values = band_powers(grid)[0, 0]
    alpha_is_strict_max = values[2] > np.max(np.delete(values, 2))
    ok = fft_err < 1e-8 and parseval < 1e-9 and alpha_is_strict_max
    announce(3, ok, f"FFT vs naive DFT err {fft_err:.2e}, Parseval {parseval:.2e}, "
                    f"10 Hz tone -> alpha band strictly greatest")


def test_criterion_04_preprocessing_contract():
    fs = 1000.0
    mains = Recording(tone(50.0, fs, 10.0)[None, :], fs)
    notched = notch_filter(mains, 50.0, 35.0)
    skip = int(2 * fs)
    notch_ratio = float(
        np.sqrt(np.mean(notched.data[:, skip:] ** 2))
        / np.sqrt(np.mean(mains.data[:, skip:] ** 2))
    )

    seven = Recording(tone(7.0, fs, 10.0)[None, :], fs)
    passed = bandpass_filter(seven, 0.5, 100.5)
    skip = int(4 * fs)
    band_db = 20 * np.log10(
        np.sqrt(np.mean(passed.data[:, skip:] ** 2))
        / np.sqrt(np.mean(seven.data[:, skip:] ** 2))
    )

    four_s = Recording(tone(10.0, fs, 4.0)[None, :], fs)
    down = resample(four_s, 250.0)

    def interior_peak(x, seconds_fs):
        n = x.size
        seg = x[n // 4 : n - n // 4]
        spec = np.abs(np.fft.rfft(seg))
        k = int(np.argmax(spec[1:])) + 1
        return k, 2.0 * spec[k] / seg.size

    k_in, amp_in = interior_peak(four_s.data[0], fs)
    k_out, amp_out = interior_peak(down.data[0], 250.0)
    amp_ratio = amp_out / amp_in

    gen = np.random.default_rng(3)
    xs = gen.standard_normal(10_000) * 25.0 + 3.0
    cfg = PreprocessConfig(ema_alpha=0.05, eps=1e-8)
    ours, _ = standardize_ema(Recording(xs[None, :], 250.0), cfg)
    ref = np.array(ema_standardize_scalar(xs.tolist(), 0.05, 1e-8))
    ema_err = float(np.max(np.abs(ours.data[0] - ref) / (np.abs(ref) + 1e-12)))

    ok = (notch_ratio <= 0.032 and abs(band_db) <= 1.0
          and k_in == k_out == 20 and 0.99 <= amp_ratio <= 1.01
          and ema_err < 1e-12)
    announce(4, ok, f"notch ratio {notch_ratio:.4f} (<=0.032), 7 Hz band {band_db:+.3f} dB, "
                    f"resample peak bin {k_out} amp ratio {amp_ratio:.4f}, "
                    f"EMA vs oracle {ema_err:.2e}")


def test_criterion_05_schedule_endpoints():
    cfg = TrainConfig()
    exact = (lr_at(0, cfg) == 2e-6
             and lr_at(10_960, cfg) == 5e-5
             and lr_at(1_096_000, cfg) == 5e-9)
    cosine_at_boundary = cfg.lr_final + (cfg.lr_peak - cfg.lr_final) * 0.5 * (1 + np.cos(0.0))
    continuous = abs(lr_at(cfg.warmup_steps, cfg) - cosine_at_boundary) < 1e-12
    announce(5, exact and continuous,
             "lr(0)=2e-6, lr(10960)=5e-5, lr(1096000)=5e-9 exactly; "
             "warmup boundary continuous within 1e-12")


def test_criterion_06_masking_statistics():
    channels, patches, ratio, draws = 4, 15, 0.40, 10_000
    slots = channels * patches
    expected_size = 24
    stream = Rng(99)
    counts = np.zeros(slots)
    all_exact = True
    for _ in range(draws):
        plan = make_mask_plan(channels, patches, ratio, stream)
        all_exact &= int(plan.sum()) == expected_size
        counts += plan.ravel()
    # Pearson statistic with the finite-population correction for
    # without-replacement draws: T ~ chi2(slots - 1) under uniformity
    p_inclusion = expected_size / slots
    expected_count = draws * p_inclusion
    denom = draws * p_inclusion * (1 - p_inclusion) * slots / (slots - 1)
    statistic = float(np.sum((counts - expected_count) ** 2) / denom)
    sigma = np.sqrt(draws * p_inclusion * (1 - p_inclusion))
    max_z = float(np.max(np.abs(counts - expected_count)) / sigma)
    ok = all_exact and statistic < CHI2_99_DF59 and max_z < 3.0
    announce(6, ok, f"every plan exactly {expected_size} unique slots; "
                    f"chi-square {statistic:.1f} < {CHI2_99_DF59:.1f} (alpha=0.01, df=59); "
                    f"per-slot max |z| {max_z:.2f} < 3")


def test_criterion_07_variable_channel_property(tmp_path):
    cfg = preset("tiny")
    origin = ParameterStore.initialize(cfg, seed=33)
    path = tmp_path / "atlas.fckp"
    model.save_params(origin, path)
    params = model.load_params(path, cfg)  # one checkpoint, reused throughout
    gen = np.random.default_rng(5)
    shapes_ok = True
    for channels in (1, 3, 19, 64):
        grid = PatchGrid(gen.standard_normal((channels, 4, cfg.patch_len)), cfg.patch_len, 250.0)
        bands = band_powers(grid)
        out = model.forward(grid.patches, bands, params, cfg)
        shapes_ok &= out.shape == (channels, 4, cfg.model_dim)
    grid = PatchGrid(gen.standard_normal((19, 4, cfg.patch_len)), cfg.patch_len, 250.0)
    bands = band_powers(grid)
    base = model.forward(grid.patches, bands, params, cfg).data
    perm = gen.permutation(19)
    shuffled = model.forward(grid.patches[perm], bands[perm], params, cfg).data
    equivariant = np.array_equal(shuffled, base[perm])
    announce(7, shapes_ok and equivariant,
             "one checkpoint runs C in {1,3,19,64}; channel permutation "
             "equivariance holds bitwise at C=19")


def test_criterion_08_overfit_sanity():
    started = time.time()
    cfg = preset("tiny")
    params = ParameterStore.initialize(cfg, seed=1)
    tcfg = TrainConfig(batch_size=12, grad_accum=4, seed=7, lr_init=1e-4, lr_peak=3e-3,
                       lr_final=1e-6, warmup_steps=100, total_steps=2000)
    trace = trainer.pretrain(overfit_corpus(), params, cfg, tcfg, steps=2000)
    elapsed = time.time() - started
    initial = trace[0][2]
    final = float(np.mean([loss for _, _, loss in trace[-50:]]))
    ratio = final / initial
    ok = ratio < 0.10 and elapsed < 600.0
    announce(8, ok, f"masked loss {initial:.4f} -> {final:.4f} "
                    f"(ratio {ratio:.4f} < 0.10) in {elapsed:.0f}s")


def _forecast_run(horizon):
    length, context = 64, 15
    gen = Rng(41)
    cfg = preset("tiny", patch_len=length, max_patches=context)
    params = ParameterStore.initialize(cfg, seed=3)
    samples = []
    for _ in range(80):
        t = np.arange((context + horizon) * length) / 250.0
        phase = float(gen.uniforms(1)[0]) * 2 * np.pi
        x = np.sin(2 * np.pi * 3.1 * t + phase) + 0.6 * np.sin(2 * np.pi * 7.3 * t + phase)
        x2 = np.sin(2 * np.pi * 3.1 * t + phase + 0.7) + 0.6 * np.sin(2 * np.pi * 7.3 * t + phase + 0.7)
        sig = np.stack([x, x2]) + 0.02 * gen.normals(2 * (context + horizon) * length).reshape(2, -1)
        grid = PatchGrid(sig.reshape(2, context + horizon, length), length, 250.0)
        samples.extend(trainer.forecast_samples_from_grid(grid, context, horizon))
    tcfg = TrainConfig(batch_size=8, grad_accum=2, seed=5, lr_init=1.2e-4, lr_peak=3e-3,
                       lr_final=3e-6, warmup_steps=30, total_steps=600)
    return trainer.finetune_forecast(samples, params, cfg, tcfg,
                                     horizon_patches=horizon, steps=600)


def test_criterion_09_downstream_beats_baselines():
    started = time.time()
    short = _forecast_run(2)
    long = _forecast_run(5)

    length, patches = 32, 10
    gen = Rng(77)
    cfg = preset("tiny", patch_len=length, max_patches=patches)
    params = ParameterStore.initialize(cfg, seed=9)
    grids = []
    for _ in range(60):
        t = np.arange(patches * length) / 250.0
        phase = float(gen.uniforms(1)[0]) * 2 * np.pi
        x = np.sin(2 * np.pi * 3.1 * t + phase) + 0.6 * np.sin(2 * np.pi * 7.3 * t + phase)
        x2 = np.sin(2 * np.pi * 3.1 * t + phase + 0.7) + 0.6 * np.sin(2 * np.pi * 7.3 * t + phase + 0.7)
        sig = np.stack([x, x2]) + 0.05 * gen.normals(2 * patches * length).reshape(2, -1)
        grids.append(PatchGrid(sig.reshape(2, patches, length), length, 250.0))
    samples = trainer.make_impute_samples(grids, 0.40, Rng(5).split(17))
    tcfg = TrainConfig(batch_size=8, grad_accum=2, seed=5, lr_init=1.2e-4, lr_peak=3e-3,
                       lr_final=3e-6, warmup_steps=30, total_steps=600)
    imp = trainer.impute(samples, params, cfg, tcfg, steps=600)

    elapsed = time.time() - started
    ok = (short.mse < short.baseline["persistence_mse"]
          and long.mse < long.baseline["persistence_mse"]
          and imp.mae < imp.baseline["mean_imputation_mae"]
          and elapsed < 3 * 900.0)
    announce(9, ok,
             f"forecast MSE h=2: {short.mse:.4f} < {short.baseline['persistence_mse']:.4f}; "
             f"h=5: {long.mse:.4f} < {long.baseline['persistence_mse']:.4f}; "
             f"impute MAE {imp.mae:.4f} < {imp.baseline['mean_imputation_mae']:.4f} "
             f"({elapsed:.0f}s total)")


def test_criterion_10_separable_classification():
    report = classify_run(seed=0, ablate=False)
    confusion = np.array(report.confusion)
    f2_ok = True
    for k in range(2):
        tp = confusion[k, k]
        fp = confusion[:, k].sum() - tp
        fn = confusion[k, :].sum() - tp
        if tp + fp > 0 and tp + fn > 0 and tp > 0:
            f2_ok &= abs(report.per_class[str(k)]["f2"]
                         - fbeta_closed_form(tp, fp, fn, 2.0)) < 1e-12
    ok = report.accuracy >= 0.95 and f2_ok
    announce(10, ok, f"1 Hz vs 30 Hz test accuracy {report.accuracy:.3f} >= 0.95; "
                     f"F2 matches closed form to 1e-12")


def test_criterion_11_ablation_direction():
    results = []
    for seed in range(5):
        full = classify_run(seed, ablate=False).accuracy
        ablated = classify_run(seed, ablate=True).accuracy
        results.append((seed, full, ablated))
    wins = sum(1 for _, full, ablated in results if ablated < full)
    detail = ", ".join(f"s{seed}:{full:.3f}>{ablated:.3f}" for seed, full, ablated in results)
    announce(11, wins == 5, f"no-temporal strictly below full on all 5 seeds ({detail})")


def test_criterion_12_reproducibility(tmp_path):
    cfg = preset("tiny")
    corpus = overfit_corpus(n=12)
    traces, blobs = [], []
    for run in range(2):
        params = ParameterStore.initialize(cfg, seed=3)
        tcfg = TrainConfig(batch_size=4, grad_accum=2, seed=21, lr_init=1e-4,
                           lr_peak=1e-3, lr_final=1e-6, warmup_steps=4, total_steps=16)
        out_dir = tmp_path / f"run{run}"
        trace = trainer.pretrain(corpus, params, cfg, tcfg, steps=16,
                                 checkpoint_dir=str(out_dir))
        traces.append(trace)
        blobs.append((out_dir / "final.fckp").read_bytes())
    ok = traces[0] == traces[1] and blobs[0] == blobs[1]
    announce(12, ok, "identical seed, single thread: loss traces and "
                     "checkpoints bitwise identical across two runs")
