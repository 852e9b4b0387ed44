"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in `__init__` (the
set-up that `setup_s` times; `workdir` is a scratch directory inside the
checkout), and `call(i)` runs the i-th timed call of
the closed loop: one caller, each call starting after the previous one
returned.  `call` returns a `Call` with the wall time of the fome calls
alone (input copies and checks are outside it), the samples they
processed, the workload's named metrics for that call, and the list of
failed output checks.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from fome import cli, model, trainer
from fome.preprocess import PatchGrid
from fome.rng import Rng
from fome.trainer import TrainConfig

from tracer import perf

# ModelConfig shared by pretrain-desk and infer-hd: the base preset's
# layout scaled to a desk (D=64, 4 heads, FFN 128, 2 temporal + 1 channel).
DESK = dict(patch_len=1500, model_dim=64, heads=4, ffn_dim=128, temporal_layers=2,
            channel_layers=1, max_patches=15, dropout=0.1)
RATE_HZ = 250.0


@dataclass
class Call:
    wall_s: float
    samples: int
    named: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    # values the spectra CSV wrote as numpy scalar reprs: a known program
    # defect, reported as a count rather than a failed check
    csv_numpy_reprs: int = 0


def _tones(gen: Rng, channels: int, n: int, noise: float) -> np.ndarray:
    """Per channel: three random tones (theta, alpha, beta) plus noise."""
    t = np.arange(n) / RATE_HZ
    sig = noise * gen.normals(channels * n).reshape(channels, n)
    for lo, hi in ((4.0, 8.0), (8.0, 13.0), (13.0, 30.0)):
        freqs = lo + (hi - lo) * gen.uniforms(channels)
        phases = 2 * np.pi * gen.uniforms(channels)
        amps = 0.5 + gen.uniforms(channels)
        sig += amps[:, None] * np.sin(2 * np.pi * freqs[:, None] * t + phases[:, None])
    return sig


def _loss_checks(trace, last: int) -> tuple[float, list[str]]:
    losses = np.array([loss for _, _, loss in trace])
    final = float(np.mean(losses[-last:]))
    failures = []
    if not np.all(np.isfinite(losses)):
        failures.append("pretrain loss not finite")
    elif not final < losses[0]:
        failures.append(f"pretrain loss {final!r} not below first step {losses[0]!r}")
    return final, failures


def _repeat_check(previous: dict, key, value, what: str) -> list[str]:
    """Same inputs, same seed: the result must repeat bit for bit."""
    if key in previous and previous[key] != value:
        return [f"{what} differs from an earlier call on the same inputs"]
    previous[key] = value
    return []


class TrainTiny:
    """Acceptance-08 pretraining recipe, then full fine-tuning of a classifier."""

    pretrain_steps = 40
    finetune_steps = 20

    def __init__(self, seed: int, workdir: str):
        self.cfg = model.preset("tiny")
        self.corpus = self._three_tone_corpus(Rng(seed).split(1))
        self.dataset = self._two_class_set(Rng(seed).split(2))
        self.params = model.ParameterStore.initialize(self.cfg, seed)
        recipe = TrainConfig(batch_size=12, grad_accum=4, seed=seed, lr_init=1e-4,
                             lr_peak=3e-3, lr_final=1e-6, warmup_steps=100, total_steps=2000)
        self.pretrain_cfg = trainer.scale_schedule(recipe, self.pretrain_steps)
        self.finetune_cfg = recipe
        self._seen: dict = {}

    @staticmethod
    def _three_tone_corpus(gen: Rng, n=200, patches=15, length=8, channels=2):
        """200 grids of one three-tone family varying by amplitude and noise."""
        t = np.arange(patches * length) / RATE_HZ
        base = sum(np.sin(2 * np.pi * f * t + ph)
                   for f, ph in ((7.0, 0.3), (13.0, 1.1), (29.0, 2.0)))
        corpus = []
        for _ in range(n):
            amp = 0.8 + 0.4 * float(gen.uniforms(1)[0])
            noise = 0.05 * gen.normals(channels * patches * length).reshape(channels, -1)
            sig = np.stack([amp * base, 0.7 * amp * base]) + noise
            corpus.append(PatchGrid(sig.reshape(channels, patches, length), length, RATE_HZ))
        return corpus

    @staticmethod
    def _two_class_set(gen: Rng, n=40, patches=15, length=8, channels=2):
        """5 Hz versus 40 Hz tones with random phases, alternating labels."""
        t = np.arange(patches * length) / RATE_HZ
        data = []
        for i in range(n):
            freq = 5.0 if i % 2 == 0 else 40.0
            phases = 2 * np.pi * gen.uniforms(channels)
            sig = np.sin(2 * np.pi * freq * t + phases[:, None])
            sig += 0.3 * gen.normals(channels * patches * length).reshape(channels, -1)
            data.append((PatchGrid(sig.reshape(channels, patches, length), length, RATE_HZ), i % 2))
        return data

    def call(self, i: int) -> Call:
        params = self.params.clone()
        t0 = perf()
        trace = trainer.pretrain(self.corpus, params, self.cfg, self.pretrain_cfg,
                                 self.pretrain_steps)
        t1 = perf()
        report = trainer.finetune_classify(self.dataset, params, self.cfg, self.finetune_cfg,
                                           n_classes=2, steps=self.finetune_steps)
        t2 = perf()
        pre = self.pretrain_steps * self.pretrain_cfg.batch_size
        fine = self.finetune_steps * self.finetune_cfg.batch_size
        final, failures = _loss_checks(trace, last=self.pretrain_steps // 5)
        if not 0.0 <= report.accuracy <= 1.0:
            failures.append(f"finetune accuracy {report.accuracy!r} outside [0, 1]")
        failures += _repeat_check(self._seen, 0, (tuple(trace), report.accuracy),
                                  "loss trace or accuracy")
        return Call(t2 - t0, pre + fine, {
            "pretrain_samples_per_s": pre / (t1 - t0),
            "pretrain_loss_final": final,
            "finetune_samples_per_s": fine / (t2 - t1),
            "finetune_accuracy": report.accuracy,
        }, failures)


class PretrainDesk:
    """Masked pretraining at desk scale: C=19, P=15, L=1500, batch 4."""

    steps = 4
    corpus_size = 4

    def __init__(self, seed: int, workdir: str):
        self.cfg = model.ModelConfig(**DESK)
        gen = Rng(seed).split(1)
        self.corpus = [
            PatchGrid(_tones(gen, 19, 15 * 1500, 0.5).reshape(19, 15, 1500), 1500, RATE_HZ)
            for _ in range(self.corpus_size)
        ]
        self.params = model.ParameterStore.initialize(self.cfg, seed)
        recipe = TrainConfig(batch_size=4, grad_accum=1, seed=seed, lr_init=1e-4,
                             lr_peak=1e-3, lr_final=1e-6, warmup_steps=100, total_steps=2000)
        self.train_cfg = trainer.scale_schedule(recipe, self.steps)
        self._seen: dict = {}

    def call(self, i: int) -> Call:
        params = self.params.clone()
        t0 = perf()
        trace = trainer.pretrain(self.corpus, params, self.cfg, self.train_cfg, self.steps)
        wall = perf() - t0
        samples = self.steps * self.train_cfg.batch_size
        final, failures = _loss_checks(trace, last=2)
        failures += _repeat_check(self._seen, 0, tuple(trace), "loss trace")
        return Call(wall, samples, {
            "pretrain_samples_per_s": samples / wall,
            "pretrain_loss_final": final,
        }, failures)


class InferHd:
    """Forward-only imputation on 64 channels with 40 % of patches missing."""

    pool = 3
    shape = (64, 15, 1500)

    def __init__(self, seed: int, workdir: str):
        self.cfg = model.ModelConfig(**DESK)
        gen = Rng(seed).split(1)
        c, p, length = self.shape
        grids = [PatchGrid(_tones(gen, c, p * length, 0.5).reshape(c, p, length), length, RATE_HZ)
                 for _ in range(self.pool)]
        self.samples = trainer.make_impute_samples(grids, 0.40, Rng(seed).split(17))
        self.params = model.ParameterStore.initialize(self.cfg, seed)
        self.params.add(model.reconstruct_head_shapes(self.cfg), seed + 1)
        self._seen: dict = {}

    def call(self, i: int) -> Call:
        sample = self.samples[i % self.pool]
        captured = []
        current = model.head_reconstruct

        def capture(e, params):
            out = current(e, params)
            captured.append(out.data)
            return out

        model.head_reconstruct = capture
        try:
            t0 = perf()
            report = trainer.evaluate_impute([sample], self.params, self.cfg)
            wall = perf() - t0
        finally:
            model.head_reconstruct = current
        failures = []
        if len(captured) != 1 or captured[0].shape != self.shape:
            failures.append(f"reconstructions {[r.shape for r in captured]} != [{self.shape}]")
        elif not np.all(np.isfinite(captured[0])):
            failures.append("reconstruction not finite")
        if report.mse is None or not np.isfinite(report.mse):
            failures.append(f"imputation mse {report.mse!r} not finite")
        failures += _repeat_check(self._seen, i % self.pool, report.mse, "imputation mse")
        return Call(wall, 1, {"infer_samples_per_s": 1.0 / wall}, failures)


# oracle band edges for the ingest check, independent of fome.spectral
_BANDS = ((1.0, 4.0), (4.0, 8.0), (8.0, 13.0), (13.0, 30.0),
          (30.0, 50.0), (50.0, 70.0), (70.0, 90.0), (90.0, 100.0))


def oracle_band_powers(patches: np.ndarray, rate_hz: float) -> np.ndarray:
    """log10(1 + in-band sum of |rfft|^2 / duration), last band closed above."""
    length = patches.shape[-1]
    power = np.abs(np.fft.rfft(patches, axis=-1)) ** 2 / (length / rate_hz)
    freqs = np.fft.rfftfreq(length, 1.0 / rate_hz)
    out = []
    for k, (lo, hi) in enumerate(_BANDS):
        sel = (freqs >= lo) & ((freqs < hi) | ((freqs == hi) & (k == len(_BANDS) - 1)))
        out.append(np.log10(1.0 + power[..., sel].sum(axis=-1)))
    return np.stack(out, axis=-1)


def read_fegp(path: str) -> np.ndarray:
    """Parse an FEGP v1 grid file without fome's codec."""
    with open(path, "rb") as fh:
        buf = fh.read()
    magic, c, p, length, _rate = struct.unpack_from("<4sIIId", buf, 0)
    if magic != b"FEGP":
        raise ValueError(f"bad grid magic {magic!r}")
    return np.frombuffer(buf, dtype="<f4", offset=24).astype(np.float64).reshape(c, p, length)


# `fome spectra` formats each value with repr(); under numpy >= 2 that
# writes "np.float64(x)" instead of "x".  The values are still checked
# against the oracle; the format defect is counted separately.
_NUMPY_REPR = "np.float64("


def read_band_csv(path: str) -> np.ndarray:
    with open(path) as fh:
        rows = [line.split(",") for line in fh.read().splitlines() if line]
    return np.array([[float(tok.removeprefix(_NUMPY_REPR).removesuffix(")")
                            if tok.startswith(_NUMPY_REPR) else tok)
                      for tok in row] for row in rows])


def count_numpy_reprs(path: str) -> int:
    with open(path) as fh:
        return fh.read().count(_NUMPY_REPR)


class Ingest:
    """CLI chain synth -> preprocess -> spectra, one fresh seed per recording."""

    channels = 19
    duration_s = 60.0
    grid_shape = (19, 10, 1500)

    def __init__(self, seed: int, workdir: str):
        self.seeds = Rng(seed).split(1)
        self.paths = {k: os.path.join(workdir, f"rec.{k}") for k in ("feeg", "fegp", "csv")}

    def call(self, i: int) -> Call:
        rec_seed = int(self.seeds.raw(1)[0] % (1 << 31))
        feeg, fegp, csv = self.paths["feeg"], self.paths["fegp"], self.paths["csv"]
        argvs = (
            ["synth", "--seed", str(rec_seed), "--channels", str(self.channels),
             "--duration", str(self.duration_s), "--rate", "500", "--out", feeg],
            ["preprocess", "--in", feeg, "--out", fegp, "--notch", "50",
             "--band", "0.5:100.5", "--rate", "250", "--window", "1500"],
            ["spectra", "--in", fegp, "--out", csv],
        )
        t0 = perf()
        codes = [cli.main(argv) for argv in argvs]
        wall = perf() - t0
        failures = [f"fome {argv[0]} exited {code}" for argv, code in zip(argvs, codes) if code]
        reprs = 0
        if not failures:
            failures = self._check_outputs(fegp, csv)
            reprs = count_numpy_reprs(csv)
        return Call(wall, 1, {"ingest_eeg_s_per_s": self.duration_s / wall}, failures, reprs)

    def _check_outputs(self, fegp: str, csv: str) -> list[str]:
        grid = read_fegp(fegp)
        if grid.shape != self.grid_shape:
            return [f"grid shape {grid.shape} != {self.grid_shape}"]
        if not np.all(np.isfinite(grid)):
            return ["grid values not finite"]
        got = read_band_csv(csv)
        want = oracle_band_powers(grid, RATE_HZ).reshape(-1, len(_BANDS))
        if got.shape != want.shape:
            return [f"band power table {got.shape} != {want.shape}"]
        rel = np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300))
        if not rel <= 1e-9:
            return [f"band powers differ from the rfft oracle by {rel:.3g} relative"]
        return []


WORKLOADS = {
    "train-tiny": TrainTiny,
    "pretrain-desk": PretrainDesk,
    "infer-hd": InferHd,
    "ingest": Ingest,
}
