"""The network: time-frequency fusion embedding, a temporal encoder stack,
an adaptive multi-channel encoder stack, and task heads.

Attention runs twice over the same (channels, patches, dim) activations:
temporal blocks attend over the patch axis independently per channel, and
channel blocks attend over the channel axis independently per patch index.
No parameter shape depends on the channel count, so one weight set serves
any montage.  Every reduction across channels (channel attention and the
classifier's pooling) runs on the rows gathered into a canonical order that
depends only on their bits (`_canonical_order`), so the forward pass and
every head are equivariant to channel reordering, bit for bit.  Every
function takes one sample's (C, P, ·) arrays or a (B, C, P, ·) stack of
samples of one shape, and a stack gives each sample the bits it gets alone.
Inputs are plain arrays: patches (..., C, P, L), band powers
(..., C, P, spectral.N_BANDS) and a boolean (..., C, P) mask of the hidden
(channel, patch) slots.

The paper fixes two things the config does not carry.  The band count is
`spectral`'s, so the frequency embedding always takes its eight bands.
Every block splits its (D, D) query, key and value maps into `heads` heads
of d_k = D / heads, so `attn_scale` only picks whether scores are divided
by sqrt(D) or sqrt(d_k).  Temporal blocks all run before channel blocks.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass, fields, replace

import numpy as np

from . import numerics as nm
from .errors import (CapacityError, ConfigError, DataError, FormatError, ShapeError, read_file,
                     write_file)
from .numerics import Tensor
from .rng import Rng
from .spectral import N_BANDS

_INIT_STD = 0.02

# smallest value of each integer ModelConfig field
_MINIMUM = dict(patch_len=1, model_dim=1, heads=1, ffn_dim=1, temporal_layers=0,
                channel_layers=0, max_patches=1, conv_kernel=1)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; every parameter shape derives from these."""

    patch_len: int = 1500
    model_dim: int = 2048
    heads: int = 16
    ffn_dim: int = 3072
    temporal_layers: int = 12
    channel_layers: int = 4
    max_patches: int = 15
    dropout: float = 0.1
    attn_scale: str = "d"  # "d": sqrt(model_dim); "dk": sqrt(model_dim // heads)
    use_freq_embed: bool = True
    conv_embed: bool = False
    conv_kernel: int = 10

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "bool" and not isinstance(value, bool):
                raise ConfigError(f"{f.name} must be True or False, got {value!r}")
            if f.name not in _MINIMUM:
                continue
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            if value < _MINIMUM[f.name]:
                raise ConfigError(f"{f.name} must be >= {_MINIMUM[f.name]}, got {value}")
        if (not isinstance(self.dropout, numbers.Real) or isinstance(self.dropout, bool)
                or not 0 <= self.dropout < 1):
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout!r}")
        if self.attn_scale not in ("d", "dk"):
            raise ConfigError(f"attn_scale must be 'd' or 'dk', got {self.attn_scale!r}")
        if self.model_dim % self.heads != 0:
            raise ConfigError(f"model_dim {self.model_dim} not divisible by heads {self.heads}")
        if self.conv_embed and self.patch_len % self.conv_kernel != 0:
            raise ConfigError(
                f"conv_kernel {self.conv_kernel} must divide patch_len {self.patch_len}"
            )

    @property
    def d_k(self) -> int:
        return self.model_dim // self.heads

    @property
    def scale_denominator(self) -> float:
        return math.sqrt(self.model_dim if self.attn_scale == "d" else self.d_k)


_PRESETS = {
    "tiny": dict(
        patch_len=8, model_dim=8, heads=2, ffn_dim=16, temporal_layers=1,
        channel_layers=1, max_patches=16, dropout=0.0, conv_kernel=4,
    ),
    "base": {},
    "large": dict(ffn_dim=7168),
}
# what `apply_preset` copies: the architecture, not the patch geometry
_ARCHITECTURE = ("model_dim", "heads", "ffn_dim", "temporal_layers", "channel_layers", "dropout")


def preset(name: str, **overrides) -> ModelConfig:
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(_PRESETS)}")
    return ModelConfig(**{**_PRESETS[name], **overrides})


def apply_preset(cfg: ModelConfig, name: str) -> ModelConfig:
    """`cfg` with the architecture of preset `name`, keeping its patch geometry."""
    chosen = preset(name)
    return replace(cfg, **{key: getattr(chosen, key) for key in _ARCHITECTURE})


_ABLATIONS = {"freq": dict(use_freq_embed=False), "temporal": dict(temporal_layers=0),
              "channel": dict(channel_layers=0), "conv-embed": dict(conv_embed=True)}


def apply_ablation(cfg: ModelConfig, name: str) -> ModelConfig:
    """Build-time variants: freq | temporal | channel | conv-embed."""
    if name not in _ABLATIONS:
        raise ConfigError(f"unknown ablation {name!r}")
    return replace(cfg, **_ABLATIONS[name])


# ---------------------------------------------------------------------------
# parameter store
# ---------------------------------------------------------------------------


def _layer_shapes(prefix: str, cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    d = cfg.model_dim
    return {
        f"{prefix}.ln1.gain": (d,),
        f"{prefix}.ln1.bias": (d,),
        f"{prefix}.attn.wq": (d, d),
        f"{prefix}.attn.wk": (d, d),
        f"{prefix}.attn.wv": (d, d),
        f"{prefix}.attn.wo": (d, d),
        f"{prefix}.ln2.gain": (d,),
        f"{prefix}.ln2.bias": (d,),
        f"{prefix}.ffn.w1": (d, cfg.ffn_dim),
        f"{prefix}.ffn.b1": (cfg.ffn_dim,),
        f"{prefix}.ffn.w2": (cfg.ffn_dim, d),
        f"{prefix}.ffn.b2": (d,),
    }


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Backbone parameter names and shapes, in canonical order."""
    d = cfg.model_dim
    shapes: dict[str, tuple[int, ...]] = {}
    if cfg.conv_embed:
        shapes["embed.patch.w"] = (cfg.conv_kernel, d)
    else:
        shapes["embed.patch.w"] = (cfg.patch_len, d)
    shapes["embed.patch.b"] = (d,)
    if cfg.use_freq_embed:
        shapes["embed.freq.w"] = (N_BANDS, d)
        shapes["embed.freq.b"] = (d,)
    shapes["embed.pos"] = (cfg.max_patches, d)
    shapes["embed.mask"] = (d,)
    for i in range(cfg.temporal_layers):
        shapes.update(_layer_shapes(f"temporal{i}", cfg))
    for i in range(cfg.channel_layers):
        shapes.update(_layer_shapes(f"channel{i}", cfg))
    return shapes


def reconstruct_head_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    return {"head.recon.w": (cfg.model_dim, cfg.patch_len), "head.recon.b": (cfg.patch_len,)}


def classify_head_shapes(cfg: ModelConfig, n_classes: int) -> dict[str, tuple[int, ...]]:
    d = cfg.model_dim
    if n_classes < 1:
        raise ConfigError("n_classes must be >= 1")
    if d // 4 < 1:
        raise ConfigError(f"model_dim {d} too small for the 3-stage classifier")
    return {
        "head.cls.w1": (d, d // 2),
        "head.cls.b1": (d // 2,),
        "head.cls.w2": (d // 2, d // 4),
        "head.cls.b2": (d // 4,),
        "head.cls.w3": (d // 4, n_classes),
        "head.cls.b3": (n_classes,),
    }


def forecast_head_shapes(
    cfg: ModelConfig, context_patches: int, horizon_patches: int
) -> dict[str, tuple[int, ...]]:
    if horizon_patches < 1 or context_patches < 1:
        raise ConfigError("context_patches and horizon_patches must be >= 1")
    flat = context_patches * cfg.model_dim
    horizon = horizon_patches * cfg.patch_len
    return {"head.fcst.w": (flat, horizon), "head.fcst.b": (horizon,)}


def _init_array(name: str, shape: tuple[int, ...], stream: Rng) -> np.ndarray:
    if name.endswith((".bias", ".b", ".b1", ".b2", ".b3")):
        return np.zeros(shape)
    if name.endswith(".gain"):
        return np.ones(shape)
    if name in ("embed.pos", "embed.mask"):
        return _INIT_STD * stream.normals(int(np.prod(shape))).reshape(shape)
    fan_in, fan_out = shape[0], shape[-1]
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return (stream.uniforms(int(np.prod(shape))) * 2.0 - 1.0).reshape(shape) * limit


class ParameterStore:
    """Named learnable tensors; names and shapes derive from a ModelConfig."""

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}

    @classmethod
    def initialize(cls, cfg: ModelConfig, seed: int) -> "ParameterStore":
        store = cls()
        store.add(param_shapes(cfg), seed)
        return store

    def add(self, shapes: dict[str, tuple[int, ...]], seed: int) -> None:
        """Initialize and register parameters; re-adding a name is an error."""
        stream = Rng(seed)
        for index, (name, shape) in enumerate(shapes.items()):
            if name in self._tensors:
                raise ConfigError(f"parameter {name!r} already exists")
            self._tensors[name] = Tensor(
                _init_array(name, shape, stream.split(index)), requires_grad=True
            )

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def items(self):
        return self._tensors.items()

    def arrays(self) -> dict[str, np.ndarray]:
        return {k: v.data for k, v in self._tensors.items()}

    def clone(self) -> "ParameterStore":
        out = ParameterStore()
        for k, v in self._tensors.items():
            out._tensors[k] = Tensor(v.data.copy(), requires_grad=True)
        return out


_MAGIC = b"FCKP"
_DTYPES = {0: "<f8", 1: "<f4", 2: "u1"}  # 1: read and widened, never written; 2: UTF-8, rank 1
_PARSERS = {"int": int, "float": float, "str": str,
            "bool": {"True": True, "False": False}.__getitem__}


def save_params(store: ParameterStore, path, cfg: ModelConfig | None = None) -> None:
    """Write `store` as an FCKP checkpoint, led by a `config` text record of
    `cfg` (one `key=value` line per field, in field order) when given."""
    records = [(name, 0, np.asarray(array, _DTYPES[0])) for name, array in store.arrays().items()]
    if cfg is not None:
        text = "".join(f"{f.name}={getattr(cfg, f.name)}\n" for f in fields(cfg))
        records.insert(0, ("config", 2, np.frombuffer(text.encode("utf-8"), np.uint8)))
    blob = bytearray(_MAGIC + struct.pack("<I", len(records)))
    for name, tag, data in records:
        encoded = name.encode("utf-8")
        blob += struct.pack("<H", len(encoded)) + encoded + struct.pack("<BB", tag, data.ndim)
        blob += struct.pack(f"<{data.ndim}Q", *data.shape) + data.tobytes()
    write_file(path, blob)


def load_params(path, cfg: ModelConfig) -> ParameterStore:
    """The checkpoint at `path` as a store for `cfg` (see `params_from_checkpoint`)."""
    return params_from_checkpoint(*read_checkpoint(read_file(path), path), cfg, path)


def read_checkpoint(payload: bytes, source: str = "<bytes>") -> tuple[ModelConfig | None, dict]:
    """The config record of an FCKP blob (None in a file without one) and its
    tensors as float64.  The record, the only text a file may hold, names
    every ModelConfig field once, each value in the form `str` gives it;
    anything else is a `FormatError` naming ``source``."""
    if payload[:4] != _MAGIC:
        raise FormatError(f"{source}: bad magic {payload[:4]!r}, expected {_MAGIC!r}")
    text, arrays = None, {}
    try:
        (count,) = struct.unpack_from("<I", payload, 4)
        offset = 8
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", payload, offset)
            offset += 2
            name = payload[offset : offset + name_len].decode("utf-8")
            offset += name_len
            tag, rank = struct.unpack_from("<BB", payload, offset)
            offset += 2
            dims = struct.unpack_from(f"<{rank}Q", payload, offset)
            offset += 8 * rank
            dtype = np.dtype(_DTYPES[tag])
            elements = math.prod(dims)
            if elements * dtype.itemsize > len(payload) - offset:
                raise FormatError(f"{source}: tensor {name!r} of shape {dims} overruns the file")
            flat = np.frombuffer(payload, dtype, elements, offset)
            offset += elements * dtype.itemsize
            if name in arrays or (name == "config" and text is not None):
                raise FormatError(f"{source}: tensor name {name!r} appears twice")
            if (tag == 2) != (name == "config"):
                raise FormatError(f"{source}: the config record alone is text, and it must be")
            if tag != 2:
                arrays[name] = flat.astype(np.float64).reshape(dims)
            elif rank != 1:
                raise FormatError(f"{source}: text record {name!r} has rank {rank}, not 1")
            else:
                text = flat.tobytes().decode("utf-8")
    except (struct.error, KeyError, ValueError) as exc:
        raise FormatError(f"{source}: truncated or corrupt tensor record") from exc
    if offset != len(payload):
        raise FormatError(f"{source}: {len(payload) - offset} trailing bytes")
    if text is None:
        return None, arrays
    types = {f.name: f.type for f in fields(ModelConfig)}
    values: dict = {}
    for line in text.splitlines():
        key, _, raw = line.partition("=")
        if key not in types or key in values:
            what = "repeats" if key in values else "has unknown"
            raise FormatError(f"{source}: config record {what} key {key!r}")
        try:
            value = _PARSERS[types[key]](raw)
            if str(value) != raw:
                raise ValueError
        except (KeyError, ValueError):
            raise FormatError(f"{source}: config {key}={raw!r} is not a {types[key]}") from None
        values[key] = value
    missing = [key for key in types if key not in values]
    if missing:
        raise FormatError(f"{source}: config record lacks key {missing[0]!r}")
    try:
        return ModelConfig(**values), arrays
    except ConfigError as exc:
        raise FormatError(f"{source}: config record: {exc}") from None


def params_from_checkpoint(recorded: ModelConfig | None, arrays: dict[str, np.ndarray],
                           cfg: ModelConfig, source: str = "<bytes>") -> ParameterStore:
    """A store for `cfg` of `read_checkpoint`'s result: a record other than `cfg`
    is a `ConfigError` naming the fields, a misshapen backbone a `FormatError`,
    and a tensor holding NaN or infinity a `DataError` naming it."""
    if recorded is not None and recorded != cfg:
        raise ConfigError(f"{source} records " + ", ".join(
            f"{f.name}={getattr(recorded, f.name)!r} where the run has {getattr(cfg, f.name)!r}"
            for f in fields(cfg) if getattr(recorded, f.name) != getattr(cfg, f.name)))
    for name, shape in param_shapes(cfg).items():
        if name not in arrays:
            raise FormatError(f"checkpoint missing parameter {name!r}")
        if arrays[name].shape != shape:
            raise FormatError(f"checkpoint parameter {name!r} has shape {arrays[name].shape}, "
                              f"config requires {shape}")
    store = ParameterStore()
    for name, array in arrays.items():
        if not np.isfinite(array).all():
            raise DataError(f"{source}: tensor {name!r} holds a non-finite value")
        store._tensors[name] = Tensor(array, requires_grad=True)
    return store


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------
#
# Activations are Tensors of shape (..., C, P, D): one sample's (channels,
# patches, model_dim) grid, or a (B, C, P, D) stack of B samples of one
# shape.  Every op works row-wise or as one matmul per (P, D) or (C, D)
# matrix, so a sample's rows come out of a stack bit for bit as they come
# out of a forward pass on that sample alone.


def _positional_rows(params: ParameterStore, n_patches: int) -> Tensor:
    pos = nm.embedding_lookup(params["embed.pos"], np.arange(n_patches))
    return nm.reshape(pos, (1, n_patches, pos.shape[-1]))


def embed(
    patches: np.ndarray,
    bands: np.ndarray | None,
    params: ParameterStore,
    cfg: ModelConfig,
    mask: np.ndarray | None = None,
) -> Tensor:
    """Fuse patch content, softmax-normalized band powers, and position.

    `patches` is (..., C, P, L), `bands` the matching (..., C, P, N_BANDS)
    band powers (None when the config has no frequency embedding); returns
    (..., C, P, D).  The forward pass never reads the patches where the
    boolean (..., C, P) `mask` is True: the patch projection, linear or
    convolutional, runs on the other patches only, and a masked patch's
    projection is the bias, what a zero patch projects to, bit for bit.
    `forward` then replaces those rows (`apply_mask`).  Under a tape the
    projection's weight gradient reads every patch, a masked one times a
    zero adjoint.
    """
    p, length = patches.shape[-2:]
    if length != cfg.patch_len:
        raise ConfigError(f"grid patch_len {length} != config patch_len {cfg.patch_len}")
    if p > cfg.max_patches:
        raise CapacityError(f"{p} patches exceeds max_patches {cfg.max_patches}")
    x = Tensor(patches)
    if cfg.conv_embed:
        k = cfg.conv_kernel
        windows = nm.reshape(x, patches.shape[:-1] + (length // k, k))
        moved = nm.linear(windows, params["embed.patch.w"], skip=mask)
        e_patch = nm.add(nm.mean(moved, axis=-2), params["embed.patch.b"])
    else:
        e_patch = nm.linear(x, params["embed.patch.w"], params["embed.patch.b"], skip=mask)
    total = e_patch
    if cfg.use_freq_embed:
        if bands is None:
            raise ConfigError("config uses the frequency embedding but bands is None")
        if bands.shape[:-1] != patches.shape[:-1]:
            raise ConfigError(
                f"band powers shape {bands.shape} does not match patches {patches.shape[:-1]}"
            )
        weights = nm.softmax(Tensor(bands), axis=-1)
        e_freq = nm.linear(weights, params["embed.freq.w"], params["embed.freq.b"])
        total = nm.add(total, e_freq)
    return nm.add(total, _positional_rows(params, p))


def apply_mask(
    e_input: Tensor, mask: np.ndarray, params: ParameterStore, cfg: ModelConfig
) -> Tensor:
    """Replace the rows of (..., C, P, D) `e_input` where the boolean
    (..., C, P) `mask` is True with [MASK] + position; an all-False mask
    returns `e_input` itself."""
    if mask.shape != e_input.shape[:-1]:
        raise ShapeError(f"mask shape {mask.shape} != activation slots {e_input.shape[:-1]}")
    if not mask.any():
        return e_input
    p, d = e_input.shape[-2:]
    gate = mask[..., None].astype(np.float64)
    mask_row = nm.reshape(params["embed.mask"], (1, 1, d))
    replacement = nm.add(mask_row, _positional_rows(params, p))
    return nm.blend(e_input, replacement, gate)


# ---------------------------------------------------------------------------
# encoder blocks
# ---------------------------------------------------------------------------


def _maybe_dropout(x: Tensor, p: float, stream: Rng | None) -> Tensor:
    if p <= 0.0 or stream is None:
        return x
    return nm.dropout(x, (stream.uniforms(x.size) >= p).reshape(x.shape), p)


def _canonical_order(x: np.ndarray) -> np.ndarray:
    """Order of each sample's channel rows by their big-endian bytes.

    `x` is (..., C, P, D) and the order (..., C).  Rows compare
    lexicographically byte by byte, each value from its most significant
    byte down (sign, exponent, then mantissa), so a last-bit change of the
    values reorders only rows that agree in every earlier byte.  Two rows
    tie only when they are bitwise identical (-0.0 and 0.0 differ), and the
    gathered array depends only on the set of rows, not on their input
    order.
    """
    rows = np.ascontiguousarray(x, dtype=">f8").reshape(x.shape[:-2] + (-1,))
    keys = rows.view(np.dtype((np.void, rows.shape[-1] * rows.itemsize)))[..., 0]
    return np.argsort(keys, axis=-1, kind="stable")


def _stack_rows(order: np.ndarray) -> np.ndarray:
    """Each sample's channel `order` (..., C) as rows of its stack folded to
    (-1, P, D)."""
    c = order.shape[-1]
    return np.arange(0, order.size, c).reshape(order.shape[:-1] + (1,)) + order


def _gather_channels(x: Tensor, order: np.ndarray) -> Tensor:
    """Each sample's channel rows of a (..., C, P, D) tensor in `order` (..., C)."""
    p, d = x.shape[-2:]
    return nm.embedding_lookup(nm.reshape(x, (-1, p, d)), _stack_rows(order))


def _encoder_block(
    x: Tensor,
    params: ParameterStore,
    prefix: str,
    cfg: ModelConfig,
    stream: Rng | None,
) -> Tensor:
    """Pre-norm transformer block over the sequence axis of (..., seq, dim)."""

    def p(name: str) -> Tensor:
        return params[f"{prefix}.{name}"]

    a = nm.affine_norm(x, p("ln1.gain"), p("ln1.bias"))
    q, k, v = nm.linear(a, p("attn.wq")), nm.linear(a, p("attn.wk")), nm.linear(a, p("attn.wv"))
    mixed = nm.attention(q, k, v, cfg.heads, 1.0 / cfg.scale_denominator)
    x = nm.add(x, _maybe_dropout(nm.linear(mixed, p("attn.wo")), cfg.dropout, stream))
    f = nm.affine_norm(x, p("ln2.gain"), p("ln2.bias"))
    hidden = nm.gelu(nm.linear(f, p("ffn.w1"), p("ffn.b1")))
    produced = nm.linear(hidden, p("ffn.w2"), p("ffn.b2"))
    return nm.add(x, _maybe_dropout(produced, cfg.dropout, stream))


def temporal_attention(
    e: Tensor,
    params: ParameterStore,
    layer: int,
    cfg: ModelConfig,
    stream: Rng | None = None,
) -> Tensor:
    """Attend over the patch axis, independently per channel."""
    return _encoder_block(e, params, f"temporal{layer}", cfg, stream)


def channel_attention(
    e: Tensor,
    params: ParameterStore,
    layer: int,
    cfg: ModelConfig,
    stream: Rng | None = None,
) -> Tensor:
    """Attend over the channel axis, independently per patch index.

    The block runs on each sample's channels in canonical order and its
    output is gathered back, so it is bitwise equivariant to channel
    permutation.
    """
    order = _canonical_order(e.data)
    ordered = nm.gather_swap(e, _stack_rows(order))  # (..., P, C, D)
    out = _encoder_block(ordered, params, f"channel{layer}", cfg, stream)
    return nm.gather_swap(out, _stack_rows(np.argsort(order, axis=-1)), swap_first=True)


def forward(
    patches: np.ndarray,
    bands: np.ndarray | None,
    params: ParameterStore,
    cfg: ModelConfig,
    mask: np.ndarray | None = None,
    stream: Rng | None = None,
) -> Tensor:
    """Embed, mask the slots where the boolean (..., C, P) `mask` is True,
    then run the full encoder stack; returns (..., C, P, D).  The forward
    pass never reads the masked patches."""
    e = embed(patches, bands, params, cfg, mask)
    if mask is not None:
        e = apply_mask(e, mask, params, cfg)
    for i in range(cfg.temporal_layers):
        e = temporal_attention(e, params, i, cfg, stream)
    for i in range(cfg.channel_layers):
        e = channel_attention(e, params, i, cfg, stream)
    return e


# ---------------------------------------------------------------------------
# task heads
# ---------------------------------------------------------------------------


def head_reconstruct(e: Tensor, params: ParameterStore) -> Tensor:
    """Per-slot linear map back to waveform space: (..., C, P, D) -> (..., C, P, L)."""
    return nm.linear(e, params["head.recon.w"], params["head.recon.b"])


def reconstruct_mse(e: Tensor, params: ParameterStore, target: np.ndarray,
                    rows: np.ndarray | None = None) -> Tensor:
    """`mse(head_reconstruct(e, params), target[rows])` as one
    `numerics.linear_mse` node: (..., D) rows `e` against the matching
    (..., L) rows of `target` (all of it when `rows` is None)."""
    return nm.linear_mse(e, params["head.recon.w"], params["head.recon.b"], target, rows)


def head_classify(e: Tensor, params: ParameterStore, n_classes: int) -> Tensor:
    """Mean-pool each sample over channels (in canonical order) and patches,
    reduce three times, softmax: (..., C, P, D) -> (..., n_classes)."""
    ordered = _gather_channels(e, _canonical_order(e.data))
    lead = e.shape[:-3]
    # one (1, D) row per sample, so a stack runs each sample's own matmuls
    pooled = nm.reshape(nm.mean(ordered, axis=(-3, -2)), lead + (1, e.shape[-1]))
    h1 = nm.gelu(nm.linear(pooled, params["head.cls.w1"], params["head.cls.b1"]))
    h2 = nm.gelu(nm.linear(h1, params["head.cls.w2"], params["head.cls.b2"]))
    logits = nm.linear(h2, params["head.cls.w3"], params["head.cls.b3"])
    return nm.softmax(nm.reshape(logits, lead + (n_classes,)), axis=-1)


def head_forecast(e: Tensor, params: ParameterStore, horizon_patches: int) -> Tensor:
    """Flatten each channel's (P, D) block and project to the horizon:
    (..., C, P, D) -> (..., C, horizon_patches * L)."""
    return nm.linear(_forecast_features(e, params), params["head.fcst.w"], params["head.fcst.b"])


def forecast_mse(e: Tensor, params: ParameterStore, target: np.ndarray) -> Tensor:
    """`mse(head_forecast(e, ...), target)` as one `numerics.linear_mse` node,
    against the (..., C, horizon_patches * L) `target`."""
    return nm.linear_mse(_forecast_features(e, params), params["head.fcst.w"],
                         params["head.fcst.b"], target)


def _forecast_features(e: Tensor, params: ParameterStore) -> Tensor:
    """Each channel's (P, D) block of `e` flattened to the forecast head's input."""
    p, d = e.shape[-2:]
    expected = params["head.fcst.w"].shape[0]
    if p * d != expected:
        raise ConfigError(
            f"forecast head expects {expected} flattened features, got {p * d}"
        )
    return nm.reshape(e, e.shape[:-2] + (p * d,))
