"""Masked-reconstruction pre-training, task fine-tuning, and metrics.

Every task trains through one loop, `_train_loop`.  Per micro-step it takes
the next batch, stacks the samples of each shape into one (B, C, P, L)
array, and runs one forward and one backward pass per stack (pre-training
draws one boolean (C, P) mask per sample, in batch order, from one stream
draw per micro-batch, hides the stack's (B, C, P) mask and reconstructs
the masked rows only, the head and the MSE as one `numerics.linear_mse`
node that holds the difference alone);
dropout masks are drawn once per stack.  Backward consumes the step's tape
as it runs.  Every `grad_accum` micro-steps it applies one AdamW update at
the rate of the warmup+cosine schedule, which the loop alone fits to its
step count; the step count must be a multiple of `grad_accum`, so every
micro-step's gradient reaches an update.  Losses are mean-reduced and
micro-batch losses are scaled by 1/grad_accum, so accumulation matches a
single step on the concatenated batch.  A mask is the same boolean (C, P)
map wherever it appears: the slots pre-training hides and the missing
patches of an `ImputeSample`.  Every entry point checks all its inputs
before it adds its task head to the caller's store, so a refused call
leaves the store as it was.

Each public entry call reads its samples through one `_Samples` store,
built once the call's checks pass.  The store computes the band powers of
every sample the call will read when it is built (the whole corpus for
pre-training; the train and test blocks, and the validation block when
validation runs, for fine-tuning), in one `band_powers` call per stack of
grids of one shape and rate, and its `stack` is the one reader of a stack
of patches and powers.  Imputation scoring is the exception:
`evaluate_impute` scores each sample once, so it keeps no store.  It hands
the model each grid as it is, with the missing patches as the mask, which
the model never reads, and scores from the observed patches gathered once.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import model as mdl
from . import numerics as nm
from .errors import ConfigError, DataError, TrainError, make_dirs, write_file
from .model import ModelConfig, ParameterStore
from .numerics import Tensor
from .preprocess import PatchGrid
from .rng import Rng, fisher_yates
from .spectral import N_BANDS, band_powers


@dataclass
class TrainConfig:
    """The settings a training run chooses; defaults are the full-scale recipe."""

    mask_ratio: float = 0.40
    batch_size: int = 12
    grad_accum: int = 4
    lr_init: float = 2e-6
    lr_peak: float = 5e-5
    lr_final: float = 5e-9
    warmup_steps: int = 10_960
    total_steps: int = 1_096_000
    seed: int = 0
    loss_scope: str = "masked_only"  # or "all"
    mask_mode: str = "slot"  # or "column"
    checkpoint_every: int = 500

    def __post_init__(self) -> None:
        if not 0 < self.mask_ratio < 1:
            raise ConfigError(f"mask_ratio must be in (0, 1), got {self.mask_ratio}")
        if self.warmup_steps >= self.total_steps:
            raise ConfigError("warmup_steps must be < total_steps")
        if self.batch_size < 1 or self.grad_accum < 1:
            raise ConfigError("batch_size and grad_accum must be >= 1")
        if self.loss_scope not in ("masked_only", "all"):
            raise ConfigError(f"loss_scope must be masked_only|all, got {self.loss_scope!r}")
        if self.mask_mode not in ("slot", "column"):
            raise ConfigError(f"mask_mode must be slot|column, got {self.mask_mode!r}")
        if self.checkpoint_every < 1:
            raise ConfigError(f"checkpoint_every must be >= 1, got {self.checkpoint_every}")
        # lr_peak first: the CLI derives lr_init and lr_final from it
        for name in ("lr_peak", "lr_init", "lr_final"):
            value, positive = getattr(self, name), name == "lr_peak"
            if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
                raise ConfigError(f"{name} must be finite and {'> 0' if positive else '>= 0'}, "
                                  f"got {value}")


def scale_schedule(cfg: TrainConfig, steps: int) -> TrainConfig:
    """Shrink the warmup+cosine schedule to a desk-scale step budget."""
    if steps < 2:
        raise ConfigError("need at least 2 steps to scale the schedule")
    frac = cfg.warmup_steps / cfg.total_steps
    warmup = min(max(1, int(round(steps * frac))), steps - 1)
    return replace(cfg, total_steps=steps, warmup_steps=warmup)


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Linear warmup from lr_init to lr_peak, then cosine decay to lr_final."""
    if step < 0:
        raise ConfigError(f"step must be >= 0, got {step}")
    if step <= cfg.warmup_steps:
        if cfg.warmup_steps == 0:
            return cfg.lr_peak
        return cfg.lr_init + (cfg.lr_peak - cfg.lr_init) * (step / cfg.warmup_steps)
    if step >= cfg.total_steps:
        return cfg.lr_final
    progress = (step - cfg.warmup_steps) / (cfg.total_steps - cfg.warmup_steps)
    return cfg.lr_final + (cfg.lr_peak - cfg.lr_final) * 0.5 * (1.0 + math.cos(math.pi * progress))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


BETA1, BETA2, ADAM_EPS, WEIGHT_DECAY = 0.9, 0.99, 1e-6, 1e-2


class AdamW:
    """Decoupled-weight-decay Adam with bias correction, at the module's
    constants `BETA1`, `BETA2`, `ADAM_EPS` and `WEIGHT_DECAY`.

    Update order per parameter: decay (p *= 1 - lr*wd), then the adaptive
    step p -= lr * m_hat / (sqrt(v_hat) + eps).  A missing gradient is
    treated as zero, so decay still applies.

    The moments are two flat arrays over the tensors of `named`, in its
    order.  A step is one pass of whole-vector numpy calls over the
    concatenated gradients and parameters, after which each tensor's slice
    is written back into its `data` in place; every operation is
    elementwise, so the bits are a per-tensor loop's.  The finiteness check
    covers the whole gradient vector first: a non-finite gradient raises
    `TrainError`, naming the first such parameter in `named` order, before
    any parameter, moment or the step count changes.
    """

    def __init__(self, named: dict[str, Tensor]):
        self.named = dict(named)
        self.t = 0
        ends = np.cumsum([t.data.size for t in self.named.values()]).tolist()
        self._cuts = [slice(end - t.data.size, end) for t, end in zip(self.named.values(), ends)]
        self._m, self._v = np.zeros(ends[-1]), np.zeros(ends[-1])

    def step(self, lr: float) -> None:
        tensors = self.named.values()
        g = np.concatenate([np.zeros(t.data.shape) if t.grad is None else t.grad
                            for t in tensors], axis=None)
        if not np.isfinite(g).all():
            for name, tensor in self.named.items():
                if tensor.grad is not None and not np.isfinite(tensor.grad).all():
                    raise TrainError(f"non-finite gradient for parameter {name!r}")
        self.t += 1
        bias1 = 1.0 - BETA1**self.t
        bias2 = 1.0 - BETA2**self.t
        m, v = self._m, self._v
        p = np.concatenate([t.data for t in tensors], axis=None)
        p *= 1.0 - lr * WEIGHT_DECAY
        m *= BETA1
        u = g * (1.0 - BETA1)  # then lr * m_hat, then the step
        m += u
        v *= BETA2
        g *= g  # then (1 - BETA2) * g**2, then sqrt(v_hat) + eps
        g *= 1.0 - BETA2
        v += g
        np.divide(m, bias1, out=u)
        u *= lr
        np.divide(v, bias2, out=g)
        np.sqrt(g, out=g)
        g += ADAM_EPS
        u /= g
        p -= u
        for tensor, cut in zip(tensors, self._cuts):
            tensor.data[...] = p[cut].reshape(tensor.data.shape)
            tensor.grad = None


# ---------------------------------------------------------------------------
# masking
# ---------------------------------------------------------------------------


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def make_mask_plan(
    channels: int, patches: int, ratio: float, stream: Rng, mode: str = "slot"
) -> np.ndarray:
    """A boolean (C, P) mask, True at round(ratio * C * P) (channel, patch)
    slots drawn uniformly without replacement.

    Column mode instead hides round(ratio * P) whole patch columns across
    every channel.  It is the one-sample case of `_mask_plans`.
    """
    return _mask_plans([(channels, patches)], ratio, stream, mode)[0]


def _mask_plans(shapes, ratio: float, stream: Rng, mode: str) -> list[np.ndarray]:
    """One `make_mask_plan` mask per (C, P) of `shapes`, in order, from one
    `stream.raw` call for the words of every sample, cut per sample; the
    stream is counter-based, so the masks and the stream's end count are
    bitwise those of one `make_mask_plan` call per sample."""
    if not 0 < ratio < 1:
        raise ConfigError(f"mask ratio must be in (0, 1), got {ratio}")
    if mode not in ("slot", "column"):
        raise ConfigError(f"unknown mask mode {mode!r}")
    slot = mode == "slot"
    counts = [_round_half_up(ratio * c * p if slot else ratio * p) for c, p in shapes]
    words = stream.raw(sum(counts)).tolist()
    masks, start = [], 0
    for (c, p), k in zip(shapes, counts):
        mask = np.zeros((c, p), dtype=bool)
        picked = fisher_yates(c * p if slot else p, words[start : start + k])
        if slot:
            mask.flat[picked] = True
        else:
            mask[:, picked] = True
        masks.append(mask)
        start += k
    return masks


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


@dataclass
class MetricsReport:
    """Task metrics; classification fields or regression fields are filled."""

    task: str
    accuracy: float | None = None
    precision: float | None = None
    recall: float | None = None
    f1: float | None = None
    f2: float | None = None
    confusion: list[list[int]] | None = None
    per_class: dict[str, dict[str, float]] | None = None
    mae: float | None = None
    mse: float | None = None
    baseline: dict[str, float] | None = None
    notes: dict = field(default_factory=dict)
    checkpoints: list[str] = field(default_factory=list)  # files written; not in the JSON

    def to_json(self) -> str:
        payload = {k: v for k, v in self.__dict__.items() if v is not None and k != "checkpoints"}
        return json.dumps(payload, indent=2)


def fbeta(precision: float, recall: float, beta: float) -> float:
    denom = beta**2 * precision + recall
    if denom == 0.0:
        return 0.0
    return (1.0 + beta**2) * precision * recall / denom


# 2^24 int64 cells: a 128 MiB confusion matrix, 4096 classes
_MAX_CONFUSION_CELLS = 1 << 24


def _check_class_count(n_classes: int) -> None:
    """Refuse a class count whose confusion matrix passes `_MAX_CONFUSION_CELLS`."""
    if int(n_classes) ** 2 > _MAX_CONFUSION_CELLS:
        raise DataError(f"{n_classes} classes need a {n_classes}x{n_classes} confusion matrix, "
                        f"over the limit of {_MAX_CONFUSION_CELLS} cells")


def classification_metrics(preds, labels, n_classes: int) -> MetricsReport:
    """Confusion matrix plus accuracy and macro precision/recall/F1/F2.

    Macro averages run over the classes that occur in the labels or the
    predictions; a class with zero predicted and zero actual instances does
    not dilute them.  Empty precision/recall denominators count as 0.  A
    confusion matrix over `_MAX_CONFUSION_CELLS` cells is refused.
    """
    _check_class_count(n_classes)
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.shape != labels.shape:
        raise DataError(f"preds shape {preds.shape} != labels shape {labels.shape}")
    if preds.size == 0:
        raise DataError("cannot score an empty prediction set")
    for arr, kind in ((preds, "prediction"), (labels, "label")):
        if arr.min() < 0 or arr.max() >= n_classes:
            raise DataError(f"{kind} outside [0, {n_classes})")
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (labels, preds), 1)
    accuracy = float(np.trace(confusion)) / preds.size
    present = sorted(set(labels.tolist()) | set(preds.tolist()))
    per_class: dict[str, dict[str, float]] = {}
    macro = {"precision": 0.0, "recall": 0.0, "f1": 0.0, "f2": 0.0}
    for k in present:
        tp = float(confusion[k, k])
        fp = float(confusion[:, k].sum() - tp)
        fn = float(confusion[k, :].sum() - tp)
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        row = {
            "precision": precision,
            "recall": recall,
            "f1": fbeta(precision, recall, 1.0),
            "f2": fbeta(precision, recall, 2.0),
        }
        per_class[str(k)] = row
        for key in macro:
            macro[key] += row[key]
    return MetricsReport(task="classification", accuracy=accuracy, confusion=confusion.tolist(),
                         per_class=per_class, **{k: v / len(present) for k, v in macro.items()})


@np.errstate(over="ignore")  # `_mean_errors` refuses what overflows
def regression_metrics(preds, targets, task: str = "regression") -> MetricsReport:
    preds = np.asarray(preds, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if preds.shape != targets.shape:
        raise DataError(f"preds shape {preds.shape} != targets shape {targets.shape}")
    if preds.size == 0:
        raise DataError("cannot score an empty prediction set")
    mae, mse = _mean_errors(np.atleast_1d(preds - targets))
    return MetricsReport(task=task, mae=mae, mse=mse)


def _mean_errors(diff: np.ndarray) -> tuple[float, float]:
    """(MAE, MSE) of the prediction-minus-truth buffer `diff`, which it
    overwrites: |d|, then |d|*|d|, which is d**2 bit for bit."""
    mae = float(np.mean(np.abs(diff, out=diff)))
    mse = float(np.mean(np.multiply(diff, diff, out=diff)))
    if not math.isfinite(mse):  # a finite mse implies a finite mae
        raise DataError(f"errors overflow float64 or are not finite: mae={mae}, mse={mse}")
    return mae, mse


# ---------------------------------------------------------------------------
# shared loop machinery
# ---------------------------------------------------------------------------


def split_blocks(n: int) -> tuple[range, range, range]:
    """Contiguous 6:2:2 index blocks, so neighbouring context never leaks
    across the train/validation/test boundary."""
    if n < 1:
        raise ConfigError("cannot split an empty dataset")
    n_train = int(round(0.6 * n))
    n_val = min(int(round(0.2 * n)), n - n_train)
    return range(0, n_train), range(n_train, n_train + n_val), range(n_train + n_val, n)


class _CheckpointKeeper:
    """Cadence checkpoints every `every` optimizer steps, plus a snapshot at
    the lowest validation loss; inactive when no directory is given.  Each
    records `model_cfg`; `written` is the set of paths saved."""

    def __init__(self, params: ParameterStore, model_cfg: ModelConfig, every: int, directory):
        self.params = params
        self.model_cfg = model_cfg
        self.every = every
        self.directory = directory
        self.best: float | None = None
        self.written: set[str] = set()
        if directory is not None:
            make_dirs(directory)

    def _save(self, name: str) -> None:
        self.written.add(os.path.join(self.directory, name))
        mdl.save_params(self.params, os.path.join(self.directory, name), self.model_cfg)

    def after_optimizer_step(self, opt_step: int, validation_loss) -> None:
        if self.directory is None or opt_step % self.every != 0:
            return
        self._save(f"step-{opt_step:06d}.fckp")
        loss = validation_loss()
        if loss is not None and (self.best is None or loss < self.best):
            self.best = loss
            self._save("best-validation.fckp")

    def finish(self) -> None:
        if self.directory is not None:
            self._save("final.fckp")


class _Cycler:
    """Seeded epoch-shuffled index stream."""

    def __init__(self, indices: list[int], stream: Rng):
        if not indices:
            raise ConfigError("empty index set")
        self._indices = list(indices)
        self._stream = stream
        self._queue: list[int] = []

    def take(self, k: int) -> list[int]:
        out = []
        while len(out) < k:
            if not self._queue:
                self._queue = self._stream.shuffle(self._indices)
            out.append(self._queue.pop(0))
        return out


# grids per stacked pass outside the training step (an evaluation forward
# pass, or band powers); bounds its memory
_EVAL_STACK = 32


def _stacks(keys: list, limit: int | None = None) -> list[list[int]]:
    """Positions of equal keys, grouped in first-seen order and cut into
    runs of at most `limit` (whole groups without one)."""
    groups: dict = {}
    for pos, key in enumerate(keys):
        groups.setdefault(key, []).append(pos)
    size = limit or len(keys)
    return [group[start : start + size] for group in groups.values()
            for start in range(0, len(group), size)]


class _Samples:
    """A dataset's grids and the band powers of the samples `read` (every
    sample when None), computed when the store is built: one `band_powers`
    call per stack of at most `_EVAL_STACK` grids of one shape and rate,
    their channels laid end to end."""

    def __init__(self, grids: list[PatchGrid], model_cfg: ModelConfig, read=None):
        self.grids = grids
        self._powers: dict[int, np.ndarray] | None = None
        if not model_cfg.use_freq_embed:
            return
        read = list(dict.fromkeys(range(len(grids)) if read is None else read))
        keys = [(grids[i].patches.shape, grids[i].source_rate_hz) for i in read]
        self._powers = {}
        for stack in _stacks(keys, _EVAL_STACK):
            (c, p, length), rate = keys[stack[0]]
            chunk = [read[j] for j in stack]
            rows = np.concatenate([grids[i].patches for i in chunk])
            values = band_powers(PatchGrid(rows, length, rate)).reshape(len(chunk), c, p, -1)
            self._powers.update(zip(chunk, values))

    def stack(self, idx: list[int]):
        """The (B, C, P, L) patches and (B, C, P, N_BANDS) band powers (None
        without the frequency embedding) of samples `idx`, all of one shape
        and read by the store."""
        return (np.stack([self.grids[i].patches for i in idx]),
                None if self._powers is None else np.stack([self._powers[i] for i in idx]))


def _grouped_mean(store: _Samples, batch: list[int], group_loss) -> Tensor:
    """Mean loss over a batch of `store` indices, one stack per shape:
    `group_loss(pos)` is the mean loss over the batch positions `pos`."""
    total = None
    for pos in _stacks([store.grids[i].patches.shape for i in batch]):
        part = group_loss(pos)
        if len(pos) < len(batch):
            part = nm.scale(part, len(pos) / len(batch))
        total = part if total is None else nm.add(total, part)
    return total


def _predict(store: _Samples, idx, params, model_cfg, head) -> list[np.ndarray]:
    """`head` applied to the encoded stack, per sample of `idx`, without a
    tape; one forward pass per stack of at most `_EVAL_STACK` of one shape."""
    idx = list(idx)
    out: list = [None] * len(idx)
    for pos in _stacks([store.grids[i].patches.shape for i in idx], _EVAL_STACK):
        result = head(mdl.forward(*store.stack([idx[j] for j in pos]), params, model_cfg))
        for j, row in zip(pos, result.data):
            out[j] = row
    return out


def _masked_mse(encoded: Tensor, params, target, mask: np.ndarray, scope: str) -> Tensor:
    """Reconstruction MSE of the (..., C, P, D) `encoded` stack against the
    (..., C, P, L) `target` on the slots of the boolean (..., C, P) `mask`,
    whose rows alone go through the head as one (n, D) gemm; on every slot
    (the full head) for scope "all" or an empty mask.  Head and MSE are one
    `model.reconstruct_mse` node, which gathers the target rows itself and
    holds at most two (n, L) buffers at once."""
    if scope == "all" or not mask.any():
        return mdl.reconstruct_mse(encoded, params, target)
    rows = np.flatnonzero(mask)
    hidden = nm.embedding_lookup(nm.reshape(encoded, (-1, encoded.shape[-1])), rows)
    return mdl.reconstruct_mse(hidden, params, target.reshape(-1, target.shape[-1]), rows)


def _ensure_head(params: ParameterStore, head: tuple[dict, int, str], cfg: TrainConfig,
                 steps: int) -> None:
    """An entry point's last checks, then its first change to the caller's
    store: add the tensors of `head`, (shapes, seed, the task setting they
    follow), that `params` lacks.  A `steps` below 1 or not a multiple of
    `cfg.grad_accum` (the last micro-steps' gradients would reach no optimizer
    step) is a `ConfigError`, and so is a store with part of the head or a
    head tensor of another shape."""
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    if steps % cfg.grad_accum:
        raise ConfigError(f"steps ({steps}) must be a multiple of grad_accum "
                          f"({cfg.grad_accum})")
    shapes, seed, setting = head
    for name, shape in shapes.items():
        if name in params and params[name].shape != shape:
            raise ConfigError(f"parameter {name!r} has shape {params[name].shape}, but "
                              f"{setting} needs {shape}")
    missing = {k: v for k, v in shapes.items() if k not in params}
    if missing and len(missing) != len(shapes):
        raise ConfigError("parameter store holds a partial head; refusing to mix")
    if missing:
        params.add(missing, seed)


def _train_loop(batch_loss, train_idx, order_stream: Rng, params: ParameterStore,
                trainable: dict[str, Tensor], model_cfg: ModelConfig, cfg: TrainConfig,
                steps: int, checkpoint_dir=None, validation=lambda: None) -> tuple[list, list]:
    """The optimizer loop of every task; returns each micro-step's (lr, batch
    loss) and the sorted paths of the checkpoints written under
    `checkpoint_dir`.  The caller has checked `steps` (`_ensure_head`).

    Batches of sample indices are drawn from `train_idx` by an epoch
    shuffle on `order_stream`; the loop never reads the samples itself.
    `batch_loss(batch)` is the taped mean loss over the samples `batch`
    (see `_grouped_mean`); `validation()` is the validation loss (None
    without a validation set).  `cfg` sets the batch size, the
    accumulation, the learning-rate schedule and the checkpoint cadence.
    The schedule is fitted to `steps` (`scale_schedule`) when there are two
    or more; a one-step run keeps it as configured.
    """
    if steps >= 2:
        cfg = scale_schedule(cfg, steps)
    order = _Cycler(list(train_idx), order_stream)
    optimizer = AdamW(trainable)
    checkpoints = _CheckpointKeeper(params, model_cfg, cfg.checkpoint_every, checkpoint_dir)
    history: list[tuple[float, float]] = []
    for step in range(1, steps + 1):
        lr = lr_at(step, cfg)
        batch = order.take(cfg.batch_size)
        with nm.Tape():
            loss = batch_loss(batch)
            scaled = nm.scale(loss, 1.0 / cfg.grad_accum)
        nm.backward(scaled)
        history.append((lr, float(loss.data)))
        if step % cfg.grad_accum == 0:
            optimizer.step(lr)
            checkpoints.after_optimizer_step(optimizer.t, validation)
    checkpoints.finish()
    return history, sorted(checkpoints.written)


def _finetune(head_loss, score, val_loss, grids: list[PatchGrid], splits,
              params: ParameterStore, model_cfg: ModelConfig, cfg: TrainConfig, steps: int,
              mode: str, head, stream: int, checkpoint_dir) -> MetricsReport:
    """Supervised training on the train block of the (train, val, test)
    `splits` of `grids`; returns `score` of the test block.

    `head_loss(encoded, idx)` is the taped mean loss of the encoded stack
    of samples `idx`, `score(store, idx)` their report, and
    `val_loss(report)` the validation loss.  `head` (shapes, seed, setting)
    is the task head, added to `params` once `mode`, the splits and `steps`
    pass their checks.  The store then reads the train and test blocks, and
    the validation block when validation runs (a checkpoint directory, a
    non-empty block and at least `cfg.checkpoint_every` optimizer steps).
    Probe mode trains the head's tensors only, on encodings computed once:
    the frozen backbone maps each sample to the same rows at every step."""
    if mode not in ("full", "probe"):
        raise ConfigError(f"mode must be full|probe, got {mode!r}")
    train_idx, val_idx, test_idx = splits
    if len(train_idx) == 0 or len(test_idx) == 0:
        raise ConfigError(f"dataset of {len(grids)} samples leaves an empty split")
    _ensure_head(params, head, cfg, steps)
    # validation runs at a cadence checkpoint, so only if one is reached
    validates = (checkpoint_dir is not None and len(val_idx) > 0
                 and steps // cfg.grad_accum >= cfg.checkpoint_every)
    store = _Samples(grids, model_cfg, [*train_idx, *test_idx, *(val_idx if validates else ())])
    trainable = dict(params.items())
    if mode == "probe":
        frozen = dict(zip(train_idx, _predict(store, train_idx, params, model_cfg, lambda e: e)))
        trainable = {name: params[name] for name in head[0]}

    def group_loss(idx: list[int]) -> Tensor:
        if mode == "probe":
            encoded = Tensor(np.stack([frozen[i] for i in idx]))
        else:
            encoded = mdl.forward(*store.stack(idx), params, model_cfg)
        return head_loss(encoded, idx)

    def batch_loss(batch: list[int]) -> Tensor:
        return _grouped_mean(store, batch, lambda pos: group_loss([batch[j] for j in pos]))

    _, written = _train_loop(batch_loss, train_idx, Rng(cfg.seed).split(stream), params,
                             trainable, model_cfg, cfg, steps, checkpoint_dir,
                             lambda: val_loss(score(store, val_idx)) if validates else None)
    return replace(score(store, test_idx), checkpoints=written)


# ---------------------------------------------------------------------------
# pre-training
# ---------------------------------------------------------------------------


def pretrain(
    corpus: list[PatchGrid],
    params: ParameterStore,
    model_cfg: ModelConfig,
    cfg: TrainConfig,
    steps: int,
    checkpoint_dir=None,
) -> list[tuple[int, float, float]]:
    """Masked signal reconstruction; returns the (step, lr, loss) trace.

    The lr column is the micro-step's rate on the schedule fitted to
    `steps`; the loss column is the batch-mean reconstruction MSE over the
    configured scope, before gradient-accumulation scaling.
    """
    if not corpus:
        raise ConfigError("pretrain needs a non-empty corpus")
    _ensure_head(params, (mdl.reconstruct_head_shapes(model_cfg), cfg.seed + 1,
                          f"patch_len={model_cfg.patch_len}"), cfg, steps)
    store = _Samples(corpus, model_cfg)
    mask_stream = Rng(cfg.seed).split(2)
    drop_stream = Rng(cfg.seed).split(3) if model_cfg.dropout > 0 else None

    def batch_loss(batch: list[int]) -> Tensor:
        # one mask per sample in batch order, whatever the shape groups
        masks = _mask_plans([corpus[i].patches.shape[:2] for i in batch], cfg.mask_ratio,
                            mask_stream, cfg.mask_mode)

        def group_loss(pos: list[int]) -> Tensor:
            mask = np.stack([masks[j] for j in pos])
            patches, powers = store.stack([batch[j] for j in pos])
            encoded = mdl.forward(patches, powers, params, model_cfg, mask=mask,
                                  stream=drop_stream)
            return _masked_mse(encoded, params, patches, mask, cfg.loss_scope)

        return _grouped_mean(store, batch, group_loss)

    history, _ = _train_loop(batch_loss, range(len(corpus)), Rng(cfg.seed).split(1), params,
                             dict(params.items()), model_cfg, cfg, steps, checkpoint_dir)
    return [(step, lr, loss) for step, (lr, loss) in enumerate(history, 1)]


def write_loss_trace(trace: list[tuple[int, float, float]], path) -> None:
    rows = "".join(f"{step},{lr!r},{loss!r}\n" for step, lr, loss in trace)
    write_file(path, "step,lr,loss\n" + rows)


# ---------------------------------------------------------------------------
# classification fine-tuning
# ---------------------------------------------------------------------------


def _score_classify(store: _Samples, idx, labels, params: ParameterStore,
                    model_cfg: ModelConfig, n_classes: int) -> MetricsReport:
    """Classification metrics of samples `idx`; `labels` is indexed like `store`."""
    probs = _predict(store, idx, params, model_cfg,
                     lambda e: mdl.head_classify(e, params, n_classes))
    preds = [int(np.argmax(row)) for row in probs]
    return classification_metrics(preds, [int(labels[i]) for i in idx], n_classes)


def finetune_classify(
    dataset: list[tuple[PatchGrid, int]],
    params: ParameterStore,
    model_cfg: ModelConfig,
    cfg: TrainConfig,
    n_classes: int,
    steps: int,
    mode: str = "full",
    checkpoint_dir=None,
    splits=None,
) -> MetricsReport:
    """Cross-entropy training on the 6:2:2 contiguous split; scores the test
    block.  `probe` freezes the backbone (its tensors stay bit-identical).
    `splits` overrides the default split with explicit (train, val, test)
    index collections, e.g. from a dataset manifest's split column."""
    for _, label in dataset:
        if not 0 <= int(label) < n_classes:
            raise DataError(f"label {label} outside [0, {n_classes})")
    _check_class_count(n_classes)
    splits = splits if splits is not None else split_blocks(len(dataset))
    labels = np.array([int(label) for _, label in dataset])

    def cross_entropy(encoded: Tensor, idx: list[int]) -> Tensor:
        return nm.nll(mdl.head_classify(encoded, params, n_classes), labels[idx])

    def score(store: _Samples, idx) -> MetricsReport:
        return _score_classify(store, idx, labels, params, model_cfg, n_classes)

    head = (mdl.classify_head_shapes(model_cfg, n_classes), cfg.seed + 2, f"n_classes={n_classes}")
    report = _finetune(cross_entropy, score, lambda r: -r.accuracy,
                       [grid for grid, _ in dataset], splits, params, model_cfg, cfg, steps,
                       mode, head, 4, checkpoint_dir)
    report.notes.update({"mode": mode, "steps": steps, "train_samples": len(splits[0])})
    return report


# ---------------------------------------------------------------------------
# forecasting
# ---------------------------------------------------------------------------


def grid_windows(grid: PatchGrid, span: int) -> list[PatchGrid]:
    """Windows of `span` patches cut back to back along the patch axis of
    `grid`; patches after the last whole window are left out."""
    if span < 1:
        raise ConfigError(f"a window needs at least 1 patch, got {span}")
    if grid.n_patches < span:
        raise ConfigError(f"grid has {grid.n_patches} patches, window needs {span}")
    return [PatchGrid(grid.patches[:, start : start + span], grid.patch_len, grid.source_rate_hz)
            for start in range(0, grid.n_patches - span + 1, span)]


@dataclass(eq=False)
class ForecastSample:
    """Context patches plus the flattened future signal (channels, H)."""

    context: PatchGrid
    target: np.ndarray


def forecast_samples_from_grid(
    grid: PatchGrid, context_patches: int, horizon_patches: int
) -> list[ForecastSample]:
    """Cut back-to-back (context, horizon) windows along the patch axis."""
    samples = []
    for window in grid_windows(grid, context_patches + horizon_patches):
        ctx = PatchGrid(window.patches[:, :context_patches], grid.patch_len, grid.source_rate_hz)
        target = window.patches[:, context_patches:].reshape(
            grid.n_channels, horizon_patches * grid.patch_len)
        samples.append(ForecastSample(context=ctx, target=target))
    return samples


def persistence_forecast(sample: ForecastSample, horizon_patches: int) -> np.ndarray:
    """Repeat the most recent context patch across the horizon."""
    last = sample.context.patches[:, -1, :]
    return np.tile(last, (1, horizon_patches))


def _score_forecast(store: _Samples, idx, samples: list[ForecastSample], params: ParameterStore,
                    model_cfg: ModelConfig, horizon_patches: int) -> MetricsReport:
    """Forecast metrics of samples `idx`; `samples` is indexed like `store`."""
    preds = _predict(store, idx, params, model_cfg,
                     lambda e: mdl.head_forecast(e, params, horizon_patches))
    # flattened and concatenated, so samples of different montages score together
    targets = np.concatenate([samples[i].target.ravel() for i in idx])
    persist = np.concatenate([persistence_forecast(samples[i], horizon_patches).ravel()
                              for i in idx])
    report = regression_metrics(np.concatenate([p.ravel() for p in preds]), targets,
                                task="forecast")
    base = regression_metrics(persist, targets)
    report.baseline = {"persistence_mae": base.mae, "persistence_mse": base.mse}
    return report


def finetune_forecast(
    dataset: list[ForecastSample],
    params: ParameterStore,
    model_cfg: ModelConfig,
    cfg: TrainConfig,
    horizon_patches: int,
    steps: int,
    mode: str = "full",
    checkpoint_dir=None,
) -> MetricsReport:
    """MSE training of the forecast head (optionally the backbone too)."""
    splits = split_blocks(len(dataset))

    def forecast_mse(encoded: Tensor, idx: list[int]) -> Tensor:
        return mdl.forecast_mse(encoded, params, np.stack([dataset[i].target for i in idx]))

    def score(store: _Samples, idx) -> MetricsReport:
        return _score_forecast(store, idx, dataset, params, model_cfg, horizon_patches)

    contexts = sorted({sample.context.n_patches for sample in dataset})
    if len(contexts) > 1:
        raise ConfigError(f"samples mix context lengths {contexts}; one forecast head takes one")
    context = contexts[0]
    head = (mdl.forecast_head_shapes(model_cfg, context, horizon_patches), cfg.seed + 3,
            f"context_patches={context}, horizon_patches={horizon_patches}")
    report = _finetune(forecast_mse, score, lambda r: r.mse,
                       [sample.context for sample in dataset], splits, params, model_cfg, cfg,
                       steps, mode, head, 5, checkpoint_dir)
    report.notes.update({"mode": mode, "steps": steps, "horizon_patches": horizon_patches})
    return report


# ---------------------------------------------------------------------------
# imputation
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ImputeSample:
    """A grid plus the (channels, patches) boolean map of missing patches."""

    grid: PatchGrid
    missing: np.ndarray


def make_impute_samples(
    grids: list[PatchGrid], missing_ratio: float, stream: Rng
) -> list[ImputeSample]:
    """Hide round(ratio * C * P) patches per grid, uniformly at random."""
    return [
        ImputeSample(grid, make_mask_plan(grid.n_channels, grid.n_patches, missing_ratio, stream))
        for grid in grids
    ]


def _channel_means(observed: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Each channel's mean over its observed samples, from `observed`, the
    (n, L) rows `patches[kept]` of a grid with the boolean (C, P) map `kept`,
    in which each channel's rows are contiguous; 0.0 for a channel with no
    observed patch."""
    counts = kept.sum(axis=1)
    means = np.zeros(len(counts))
    for c, end in enumerate(np.cumsum(counts)):
        if counts[c]:
            means[c] = observed[end - counts[c] : end].mean()
    return means


def evaluate_impute(
    samples: list[ImputeSample], params: ParameterStore, model_cfg: ModelConfig
) -> MetricsReport:
    """Reconstruction error on missing patches only, vs mean imputation.

    One unstacked forward pass per sample with missing patches, scored one
    sample at a time.  The model gets the grid with its missing patches as
    the mask, and never reads them (see `model.embed`).  The observed
    patches are gathered once: their band powers come from one call (a zero
    patch's are exactly 0, so the missing slots hold zeros) and each
    channel's baseline mean from its rows of that gather.  The full
    reconstruction is then read at the missing patches into one
    prediction-minus-truth buffer for every scored sample, and the baseline
    into one baseline-minus-truth buffer.
    """
    scored = [sample for sample in samples if sample.missing.any()]
    if not scored:
        return MetricsReport(task="imputation", notes={"no-missing": True})
    sizes = [int(s.missing.sum()) * s.grid.patch_len for s in scored]
    pred_err, base_err = np.empty(sum(sizes)), np.empty(sum(sizes))
    start = 0
    for sample, size in zip(scored, sizes):
        missing, kept = sample.missing, ~sample.missing
        patches, length = sample.grid.patches, sample.grid.patch_len
        observed = patches[kept]
        powers = None
        if model_cfg.use_freq_embed:
            powers = np.zeros(missing.shape + (N_BANDS,))
            if observed.size:
                grid = PatchGrid(observed[None], length, sample.grid.source_rate_hz)
                powers[kept] = band_powers(grid)[0]
        encoded = mdl.forward(patches, powers, params, model_cfg, mask=missing)
        recon = mdl.head_reconstruct(encoded, params).data
        rows = np.flatnonzero(missing)
        pred = pred_err[start : start + size].reshape(rows.size, length)
        truth = base_err[start : start + size].reshape(rows.size, length)
        np.take(patches.reshape(-1, length), rows, axis=0, out=truth, mode="clip")
        np.take(recon.reshape(-1, length), rows, axis=0, out=pred, mode="clip")
        pred -= truth
        means = _channel_means(observed, kept)[rows // missing.shape[1]]
        np.subtract(means[:, None], truth, out=truth)
        start += size
    mae, mse = _mean_errors(pred_err)
    base_mae, base_mse = _mean_errors(base_err)
    return MetricsReport(task="imputation", mae=mae, mse=mse, baseline={
        "mean_imputation_mae": base_mae, "mean_imputation_mse": base_mse})


def impute(
    dataset: list[ImputeSample],
    params: ParameterStore,
    model_cfg: ModelConfig,
    cfg: TrainConfig,
    steps: int,
) -> MetricsReport:
    """Train reconstruction on the train block, then score missing-patch
    recovery on the test block."""
    train_idx, _, test_idx = split_blocks(len(dataset))
    if len(train_idx) == 0 or len(test_idx) == 0:
        raise ConfigError(f"dataset of {len(dataset)} samples leaves an empty split")
    corpus = [dataset[i].grid for i in train_idx]
    pretrain(corpus, params, model_cfg, cfg, steps)
    report = evaluate_impute([dataset[i] for i in test_idx], params, model_cfg)
    report.notes.update({"steps": steps, "train_samples": len(train_idx)})
    return report
