"""Batch command-line front end.

One command is one process; a caller that runs several commands in one
process through `main` reuses the argument parser and the `git describe`
result.  Every run that writes a primary output also emits a JSON manifest
(command line, resolved configs, seed, input/output hashes, wall time, git
describe of the fome source tree) sufficient to re-execute it exactly.
Recordings and patch grids stream through stdin/stdout when a path is "-",
so stages compose as shell pipelines.

Heavy imports happen inside `main` after --threads is applied, because the
BLAS thread count must be pinned before numpy loads.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import math
import os
import subprocess
import sys
import time
from dataclasses import asdict, fields, replace

from .errors import ConfigError, DataError, FomeError, decode_text, read_file, write_file

log = logging.getLogger("fome")

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _apply_threads(threads: int | None) -> None:
    """Pin BLAS/OpenMP threads: an explicit --threads overrides the
    environment, otherwise variables already set are kept and the rest get 1.
    A count below 1 is a `ConfigError`, raised before any variable is set:
    OpenBLAS reads 0 or a negative count as every core."""
    if threads is not None and threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {threads}")
    for var in _THREAD_VARS:
        if threads is None:
            os.environ.setdefault(var, "1")
        else:
            os.environ[var] = str(threads)


def _configure_logging() -> None:
    level = os.environ.get("FOME_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


@functools.cache
def _git_describe() -> str:
    """`git describe` of the fome source tree that is running, whatever the
    caller's working directory; "unknown" outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


class _Manifest:
    def __init__(self, args: argparse.Namespace, argv: list[str]):
        self.started = time.time()
        self.doc = {
            "command": argv,
            "config": {},
            "seed": getattr(args, "seed", None),
            "inputs": {},
            "outputs": {},
            "git_describe": _git_describe(),
        }
        self._path = args.manifest

    def add_config(self, name: str, payload) -> None:
        self.doc["config"][name] = payload

    def add_input(self, name: str, payload: bytes) -> None:
        self.doc["inputs"][name] = _sha256(payload)

    def add_output(self, path: str, payload: bytes | None = None) -> None:
        """Record the sha256 of the output at `path`: of `payload`, the bytes
        just written there, or else of the file read back."""
        if path == "-":
            return
        self.doc["outputs"][path] = _sha256(read_file(path) if payload is None else payload)

    def write(self) -> None:
        self.doc["wall_time_s"] = round(time.time() - self.started, 6)
        self.doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
        if self._path is None:
            return
        write_file(self._path, json.dumps(self.doc, indent=2, sort_keys=True) + "\n")
        log.info("manifest written to %s", self._path)


def _load(path: str, manifest: _Manifest, decode):
    """``decode(payload, path)`` of the bytes at `path` (stdin for "-"),
    recorded as an input of `manifest`; the bytes are released when this
    returns."""
    payload = sys.stdin.buffer.read() if path == "-" else read_file(path)
    manifest.add_input(path, payload)
    return decode(payload, path)


def _write(path: str, payload: bytes | str, manifest: _Manifest) -> None:
    """Write `payload` to `path`, or to stdout for "-", a str as UTF-8, and
    record it as an output of `manifest`."""
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    if path == "-":
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    else:
        write_file(path, payload)
    manifest.add_output(path, payload)


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _parse_components(raw: str | None, channels: int):
    from .signal_store import Component

    if raw is None:
        # default content: one tone per channel, staggered frequencies
        return [Component(c, 8.0 + 2.0 * c, 20.0, 0.0) for c in range(channels)]
    if raw.strip() == "":
        return []
    comps = []
    for item in raw.split(","):
        try:
            channel, freq, amplitude, phase = item.split(":")
            comps.append(Component(int(channel), float(freq), float(amplitude), float(phase)))
        except ValueError:
            raise ConfigError(f"--components item {item!r} must be "
                              "channel:freq_hz:amplitude:phase_rad") from None
    return comps


def _cmd_synth(args, manifest: _Manifest) -> None:
    from .signal_store import SyntheticSpec, generate_synthetic, recording_to_bytes

    spec = SyntheticSpec(
        channels=args.channels,
        duration_s=args.duration,
        sample_rate_hz=args.rate,
        seed=args.seed,
        components=_parse_components(args.components, args.channels),
        noise_std=args.noise,
    )
    recording = generate_synthetic(spec)
    manifest.add_config("synthetic", asdict(spec))
    _write(args.out, recording_to_bytes(recording, args.format), manifest)


def _with_flags(cfg, args, **derived):
    """`cfg` with `derived` and each field whose flag (dest: the field's name,
    default: None) the run set; a field left out keeps `cfg`'s value."""
    given = {f.name: getattr(args, f.name) for f in fields(cfg)
             if getattr(args, f.name, None) is not None}
    return replace(cfg, **given, **derived)


def _cmd_preprocess(args, manifest: _Manifest) -> None:
    from .preprocess import PreprocessConfig, grid_to_bytes, preprocess_pipeline
    from .signal_store import recording_from_bytes

    band = {}
    if args.band is not None:
        try:
            lo, hi = (float(s) for s in args.band.split(":"))
        except ValueError:
            raise ConfigError(f"--band must be LO:HI in Hz, got {args.band!r}") from None
        band = dict(band_lo_hz=lo, band_hi_hz=hi)
    cfg = _with_flags(PreprocessConfig(), args, **band)
    # the pipeline holds the only reference to the decoded recording and
    # drops it once filtered
    grid = preprocess_pipeline(
        _load(args.infile, manifest, functools.partial(recording_from_bytes, format=args.format)),
        cfg, patch_len=args.patch)
    manifest.add_config("preprocess", asdict(cfg))
    _write(args.out, grid_to_bytes(grid), manifest)
    log.info("grid: C=%d P=%d L=%d", grid.n_channels, grid.n_patches, grid.patch_len)


def _cmd_spectra(args, manifest: _Manifest) -> None:
    from .preprocess import grid_from_bytes
    from .spectral import band_powers

    grid = _load(args.infile, manifest, grid_from_bytes)
    values = band_powers(grid, taper=args.taper)
    c, p, n = values.shape
    rows = values.reshape(c * p, n).tolist()
    text = "\n".join(",".join(map(repr, row)) for row in rows) + "\n"
    _write(args.out, text, manifest)
    manifest.add_config("spectra", {"taper": args.taper, "channels": c, "patches": p})


def _fit_model(args, samples, manifest: _Manifest):
    """The model config for `samples`, the grids the model reads, and its
    parameters: from --checkpoint, else initialized from --seed.  The config
    is the checkpoint's record, else the preset (default tiny), with the
    fields --preset, --scale and --ablate name set, fitted to the samples:
    `patch_len` is their one patch length, `max_patches` grows to the
    longest, and a conv kernel shrinks to the largest of 10, 5, 4, 2, 1 that
    divides it.  Mixed lengths, or a result other than the record, are a
    `ConfigError`."""
    from . import model

    lengths = sorted({grid.patch_len for grid in samples})
    if len(lengths) > 1:
        raise ConfigError(f"samples mix patch lengths {lengths}; one model takes one length")
    recorded, arrays = (_load(args.checkpoint, manifest, model.read_checkpoint)
                        if args.checkpoint else (None, None))
    cfg = model.preset(args.preset or "tiny") if recorded is None else recorded
    if args.preset and recorded is not None:
        cfg = model.apply_preset(cfg, args.preset)
    cfg = _with_flags(cfg, args)
    for name in args.ablate or []:
        cfg = model.apply_ablation(cfg, name)
    patch_len, kernel = lengths[0], cfg.conv_kernel
    if cfg.conv_embed and patch_len % kernel:
        kernel = next(k for k in (10, 5, 4, 2, 1) if patch_len % k == 0)
    fitted = replace(cfg, patch_len=patch_len, conv_kernel=kernel,
                     max_patches=max([cfg.max_patches] + [grid.n_patches for grid in samples]))
    if fitted != cfg:
        log.info("model config fitted to data: %s", fitted)
    if arrays is None:
        return fitted, model.ParameterStore.initialize(fitted, args.seed)
    return fitted, model.params_from_checkpoint(recorded, arrays, fitted, args.checkpoint)


def _train_config(args):
    """The `TrainConfig` of a run's flags; --lr-peak sets lr_init and lr_final."""
    from .trainer import TrainConfig

    derived = {}
    if args.lr_peak is not None:
        derived = dict(lr_init=args.lr_peak / 25.0, lr_final=args.lr_peak / 10_000.0)
    return _with_flags(TrainConfig(), args, **derived)


def _check_paths(args) -> None:
    """Fixes every path a run writes, before it reads or writes: sets the
    defaults of --trace and --manifest, then raises a `ConfigError` for a
    file-only output as "-", an output inside --checkpoint-dir or above it,
    stdin named twice or two outputs on one path."""
    def path(flag):
        return getattr(args, flag[2:].replace("-", "_"), None)

    outputs = ("--out", "--trace", "--out-checkpoint", "--checkpoint-dir", "--manifest")
    # each output but --out is a file, and pretrain's --out is a checkpoint
    for flag in outputs[1:] + ("--out",) * (args.command == "pretrain"):
        if path(flag) == "-":
            raise ConfigError(f"{flag} needs a file path, not '-'")
    directory = path("--checkpoint-dir")
    for flag in [flag for flag in ("--out", "--out-checkpoint", "--manifest")
                 if directory is not None and path(flag) not in (None, "-")]:
        target, held = os.path.abspath(path(flag)), os.path.abspath(directory)
        where = "inside" if os.path.dirname(target) == held else "above"
        if where == "inside" or target != held and os.path.commonpath([target, held]) == target:
            raise ConfigError(f"{flag} {path(flag)!r} is {where} --checkpoint-dir {directory!r}, "
                              "which holds the run's checkpoints; give it a dedicated directory")
    if args.command == "pretrain" and args.trace is None:
        args.trace = args.out + ".trace.csv"
    files = [p for p in (args.out, path("--out-checkpoint")) if p not in (None, "-")]
    if args.manifest is None and (files or directory is not None):
        args.manifest = (files[0] + ".manifest.json" if files
                         else os.path.join(directory, "manifest.json"))
    infile = getattr(args, "infile", ())
    stdin = ["--in"] * ([infile] if isinstance(infile, str) else list(infile)).count("-")
    stdin += [flag for flag in ("--checkpoint", "--dataset") if path(flag) == "-"]
    if len(stdin) > 1:
        raise ConfigError(f"{' and '.join(stdin)} each name '-'; a run reads stdin once")
    written = {}
    for flag in [flag for flag in outputs if path(flag) not in (None, "-")]:
        first = written.setdefault(os.path.abspath(path(flag)), flag)
        if first != flag:
            raise ConfigError(f"{first} and {flag} both write {path(flag)!r}")


def _load_grids(paths: list[str] | tuple[str, ...], manifest: _Manifest):
    from .preprocess import grid_from_bytes

    return [_load(path, manifest, grid_from_bytes) for path in paths]


def _cmd_pretrain(args, manifest: _Manifest) -> None:
    from . import model, trainer

    if not args.infile:
        raise ConfigError("pretrain needs at least one --in grid")
    train_cfg = _train_config(args)
    corpus = [window for grid in _load_grids(args.infile, manifest)
              for window in trainer.grid_windows(grid, args.pps)]
    model_cfg, params = _fit_model(args, corpus, manifest)
    trace = trainer.pretrain(corpus, params, model_cfg, train_cfg, steps=args.steps)
    model.save_params(params, args.out, model_cfg)
    trainer.write_loss_trace(trace, args.trace)
    manifest.add_config("model", asdict(model_cfg))
    manifest.add_config("train", asdict(train_cfg))
    manifest.add_config("samples", len(corpus))
    manifest.add_output(args.out)
    manifest.add_output(args.trace)
    log.info("final loss %.6f over %d samples", trace[-1][2], len(corpus))


# the values of a dataset manifest's split column, in split order
_SPLITS = ("train", "val", "test")


def _read_dataset_manifest(path: str, manifest: _Manifest):
    """CSV rows `grid-path,label[,split]`; paths are relative to the CSV.
    A split is one of `_SPLITS`, and either every row has one or none has."""
    import csv

    base = os.path.dirname(os.path.abspath(path))
    rows = []
    reader = csv.reader(_load(path, manifest, decode_text).splitlines())
    for row in reader:
        if not row or row[0].startswith("#"):
            continue
        grid_path = row[0] if os.path.isabs(row[0]) else os.path.join(base, row[0])
        where = f"{path}: row {reader.line_num} ({row[0]!r})"
        try:
            label = int(row[1])
        except (IndexError, ValueError):
            raise DataError(f"{where} has no integer label") from None
        split = row[2].strip() if len(row) > 2 else None
        if split is not None and split not in _SPLITS:
            raise DataError(f"{where} has split {split!r}, not one of {', '.join(_SPLITS)}")
        if rows and (split is None) != (rows[0][2] is None):
            raise DataError(f"{where}: either every row has a split or none has")
        rows.append((grid_path, label, split))
    if not rows:
        raise DataError(f"{path}: no dataset rows")
    return rows


def _cmd_finetune(args, manifest: _Manifest) -> None:
    from . import model, trainer
    from .rng import Rng

    if args.task == "classify" and args.dataset is None:
        raise ConfigError("finetune classify needs --dataset")
    if args.task != "classify" and not args.infile:
        raise ConfigError(f"finetune {args.task} needs at least one --in grid")
    train_cfg = _train_config(args)

    if args.task == "classify":
        rows = _read_dataset_manifest(args.dataset, manifest)
        grids = _load_grids([grid_path for grid_path, _, _ in rows], manifest)
        dataset = [(grid, label) for grid, (_, label, _) in zip(grids, rows)]
        splits = None
        if rows[0][2] is not None:
            splits = tuple([i for i, row in enumerate(rows) if row[2] == name]
                           for name in _SPLITS)
        model_cfg, params = _fit_model(args, grids, manifest)
        report = trainer.finetune_classify(
            dataset, params, model_cfg, train_cfg,
            n_classes=args.classes, steps=args.steps, mode=args.mode,
            checkpoint_dir=args.checkpoint_dir, splits=splits,
        )
    elif args.task == "forecast":
        samples = [sample for grid in _load_grids(args.infile, manifest)
                   for sample in trainer.forecast_samples_from_grid(grid, args.context,
                                                                    args.horizon)]
        model_cfg, params = _fit_model(args, [sample.context for sample in samples], manifest)
        report = trainer.finetune_forecast(
            samples, params, model_cfg, train_cfg,
            horizon_patches=args.horizon, steps=args.steps, mode=args.mode,
            checkpoint_dir=args.checkpoint_dir,
        )
    else:  # impute
        corpus = [window for grid in _load_grids(args.infile, manifest)
                  for window in trainer.grid_windows(grid, args.pps)]
        model_cfg, params = _fit_model(args, corpus, manifest)
        samples = trainer.make_impute_samples(
            corpus, args.missing_ratio, Rng(args.seed).split(17)
        )
        report = trainer.impute(samples, params, model_cfg, train_cfg, steps=args.steps)

    if args.out_checkpoint:
        model.save_params(params, args.out_checkpoint, model_cfg)
    _write(args.out, report.to_json() + "\n", manifest)
    manifest.add_config("model", asdict(model_cfg))
    manifest.add_config("train", asdict(train_cfg))
    manifest.add_config("task", args.task)
    if args.out_checkpoint:
        manifest.add_output(args.out_checkpoint)
    for path in report.checkpoints:
        manifest.add_output(path)


def _cmd_eval(args, manifest: _Manifest) -> None:
    import csv

    from .trainer import classification_metrics, regression_metrics

    if args.classes is not None and args.classes < 1:
        raise ConfigError(f"--classes must be >= 1, got {args.classes}")
    if args.classes is not None and args.task != "classify":
        raise ConfigError(f"--classes applies to --task classify, not {args.task}")
    rows = list(csv.reader(_load(args.infile, manifest, decode_text).splitlines()))
    first = 0 if rows and _is_numeric_row(rows[0]) else 1
    classify = args.task == "classify"
    value = _class_label if classify else float
    preds, refs = [], []
    for number, row in enumerate(rows[first:], start=first + 1):
        try:
            pred, ref = value(row[0]), value(row[1])
            if not classify and not (math.isfinite(pred) and math.isfinite(ref)):
                raise ValueError
        except (IndexError, ValueError, OverflowError):
            wanted = "integer class labels" if classify else "finite numeric values"
            raise DataError(f"{args.infile}: row {number} needs two {wanted}, "
                            f"got {row!r}") from None
        preds.append(pred)
        refs.append(ref)
    if not preds:
        raise DataError(f"{args.infile}: no prediction rows")
    if classify:
        n_classes = args.classes if args.classes is not None else max(max(preds), max(refs)) + 1
        report = classification_metrics(preds, refs, n_classes)
    else:
        report = regression_metrics(preds, refs)
    _write(args.out, report.to_json() + "\n", manifest)


def _class_label(text: str) -> int:
    value = float(text)
    if not value.is_integer():
        raise ValueError(f"{text!r} is not an integer")
    return int(value)


def _is_numeric_row(row: list[str]) -> bool:
    try:
        [float(v) for v in row]
        return True
    except ValueError:
        return False


def _cmd_inspect_checkpoint(args, manifest: _Manifest) -> None:
    from .model import read_checkpoint

    recorded, arrays = _load(args.infile, manifest, read_checkpoint)
    config = {} if recorded is None else {"config": asdict(recorded)}
    listing = {name: list(arr.shape) for name, arr in arrays.items()}
    if args.json:
        _write(args.out, json.dumps({**config, **listing}, indent=2) + "\n", manifest)
    else:
        width = max(len(n) for n in listing) if listing else 0
        lines = ["config " + " ".join(f"{k}={v}" for k, v in c.items()) for c in config.values()]
        lines += [f"{name:<{width}}  {tuple(shape)}" for name, shape in listing.items()]
        total = sum(int(arr.size) for arr in arrays.values())
        lines.append(f"{len(listing)} tensors, {total} scalars")
        _write(args.out, "\n".join(lines) + "\n", manifest)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `fome` parser, built once per process; defaults are immutable so
    that no parse can change what the next one sees.  Each command and task
    takes only the flags it reads; each adds its own `--in` and `--out`.  A
    flag whose dest names a config field has no default (`_with_flags`)."""
    flags = functools.partial(argparse.ArgumentParser, add_help=False)
    parser = argparse.ArgumentParser(prog="fome", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = flags()
    common.add_argument("--threads", type=int, default=None,
                        help="BLAS/OpenMP threads (default: the environment's, else 1)")
    common.add_argument("--manifest", default=None, help="explicit manifest path")
    seeded = flags(parents=[common])
    seeded.add_argument("--seed", type=int, default=0)
    training = flags(parents=[seeded])
    training.add_argument("--preset", choices=("tiny", "base", "large"), default=None)
    training.add_argument("--steps", type=int, default=2000)
    training.add_argument("--scale", dest="attn_scale", choices=("d", "dk"))
    training.add_argument("--ablate", action="append",
                          choices=("freq", "temporal", "channel", "conv-embed"))
    training.add_argument("--batch", dest="batch_size", type=int)
    training.add_argument("--accum", dest="grad_accum", type=int)
    training.add_argument("--lr-peak", type=float, default=None,
                          help="override peak lr (init=peak/25, final=peak/1e4)")
    training.add_argument("--checkpoint", default=None, help="initialize from this checkpoint")
    masked = flags(parents=[training])  # masked reconstruction: pretrain, finetune impute
    masked.add_argument("--mask-ratio", type=float)
    masked.add_argument("--mask-mode", choices=("slot", "column"))
    masked.add_argument("--loss-all", dest="loss_scope", action="store_const", const="all",
                        help="loss on every patch, not the masked only")
    masked.add_argument("--pps", type=int, default=15, help="patches per sample")
    head = flags(parents=[training])  # a supervised task head: finetune classify, forecast
    head.add_argument("--mode", choices=("full", "probe"), default="full")
    head.add_argument("--checkpoint-dir", default=None,
                      help="directory for cadence + best-validation checkpoints")
    head.add_argument("--checkpoint-every", type=int,
                      help="optimizer steps between cadence checkpoints")

    p = sub.add_parser("synth", parents=[seeded], help="generate a synthetic recording")
    p.add_argument("--out", default="-")
    p.add_argument("--channels", type=int, default=4)
    p.add_argument("--duration", type=float, default=60.0)
    p.add_argument("--rate", type=float, default=500.0)
    p.add_argument("--noise", type=float, default=5.0)
    p.add_argument("--components", default=None,
                   help="channel:freq:amp:phase[,...]; default staggered tones")
    p.add_argument("--format", choices=("binary", "csv"), default="binary")
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("preprocess", parents=[common],
                       help="condition a recording into a patch grid")
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--out", default="-")
    p.add_argument("--notch", dest="notch_hz", type=float, choices=(50.0, 60.0))
    p.add_argument("--band", help="band-pass edges LO:HI in Hz")
    p.add_argument("--rate", dest="target_rate_hz", type=float)
    p.add_argument("--window", dest="window_len_samples", type=int)
    p.add_argument("--patch", type=int, default=None, help="patch length (default window)")
    p.add_argument("--format", choices=("binary", "csv"), default="binary")
    p.set_defaults(fn=_cmd_preprocess)

    p = sub.add_parser("spectra", parents=[common],
                       help="eight-band log powers per patch as CSV")
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--out", default="-")
    p.add_argument("--taper", choices=("none", "hann"), default="none")
    p.set_defaults(fn=_cmd_spectra)

    p = sub.add_parser("pretrain", parents=[masked], help="masked-reconstruction pre-training")
    p.add_argument("--in", dest="infile", nargs="*", default=("-",))
    p.add_argument("--out", default="checkpoint.fckp")
    p.add_argument("--trace", default=None, help="loss trace CSV path")
    p.set_defaults(fn=_cmd_pretrain)

    tasks = sub.add_parser("finetune", help="fine-tune for a downstream task").add_subparsers(
        dest="task", required=True)
    for task, group, about in (("classify", head, "classification from a labeled dataset"),
                               ("forecast", head, "forecast the patches after a context"),
                               ("impute", masked, "reconstruct hidden patches")):
        p = tasks.add_parser(task, parents=[group], help=about)
        p.add_argument("--out", default="-", help="metrics JSON path")
        p.add_argument("--out-checkpoint", default=None)
        p.set_defaults(fn=_cmd_finetune)
    classify, forecast, impute = tasks.choices.values()
    classify.add_argument("--dataset", default=None, help="labeled dataset manifest CSV")
    classify.add_argument("--classes", type=int, default=2)
    for p in (forecast, impute):
        p.add_argument("--in", dest="infile", nargs="*", default=())
    forecast.add_argument("--context", type=int, default=15)
    forecast.add_argument("--horizon", type=int, default=2, choices=(2, 5))
    impute.add_argument("--missing-ratio", type=float, default=0.40)

    p = sub.add_parser("eval", parents=[common], help="score a predictions CSV")
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--out", default="-")
    p.add_argument("--task", choices=("classify", "regress"), default="classify")
    p.add_argument("--classes", type=int, default=None, help="class count (--task classify)")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("inspect-checkpoint", parents=[common], help="list checkpoint tensors")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default="-")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_inspect_checkpoint)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
        _apply_threads(args.threads)
        _configure_logging()
        _check_paths(args)
        manifest = _Manifest(args, argv)
        args.fn(args, manifest)
        manifest.write()
    except FomeError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
