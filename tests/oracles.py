"""Independent reference implementations used as test oracles.

Everything here is deliberately written straight-line, without touching the
package's own kernels, so a test comparing the two paths is a genuine
cross-check rather than a tautology.  The exceptions hold a fused, blocked
or pruned path to the formulas it replaces, bit for bit:
`primitive_encoder_block` runs the encoder block as primitive taped ops,
gradients included, `full_row_forward` projects masked patches before
replacing them, `polyphase_oracle` is the resampler framed by hand around
`upfirdn`, `conditioning_oracle` runs the preprocessing pipeline one
stage at a time, `OracleRng` and `synthetic_oracle` draw the random
streams and the synthetic recording with whole-array formulas, and
`csv_to_text` and `csv_from_text` are the recording CSV codec one value at
a time.  `mul`, `transpose`, `matmul`, `mse`, `slice_` and `log` are the
primitive taped ops those chains and the gradient checks are built from,
and `nll_chain` is the classification loss built from them; the model runs
only the fused kernels in `fome.numerics`.
"""

from __future__ import annotations

import math

import numpy as np

import fome.numerics as nm
from fome.errors import ShapeError


def naive_dft(x: np.ndarray) -> np.ndarray:
    """O(L^2) transform directly from the definition."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    k = np.arange(n)
    basis = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return x @ basis.T


def ema_standardize_scalar(xs, alpha, eps):
    """Plain-Python exponential moving standardization recurrence."""
    ema = xs[0]
    esd = 0.0
    out = []
    for x in xs:
        ema = alpha * x + (1.0 - alpha) * ema
        esd = math.sqrt(alpha * (x - ema) ** 2 + (1.0 - alpha) * esd**2)
        out.append((x - ema) / (esd + eps))
    return out


def adamw_scalar(p, g, lr, beta1, beta2, eps, wd, m=0.0, v=0.0, t=1):
    """One decoupled-weight-decay Adam update on a scalar."""
    p = p * (1.0 - lr * wd)
    m = beta1 * m + (1 - beta1) * g
    v = beta2 * v + (1 - beta2) * g * g
    p = p - lr * (m / (1 - beta1**t)) / (math.sqrt(v / (1 - beta2**t)) + eps)
    return p, m, v


def fbeta_closed_form(tp, fp, fn, beta):
    """F_beta from raw counts via the textbook formula."""
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return (1 + beta**2) * precision * recall / (beta**2 * precision + recall)


def _layer_norm_np(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc**2).mean(axis=-1, keepdims=True)
    return (xc / np.sqrt(var + eps)) * gain + bias


def _softmax_np(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _gelu_np(x):
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))


def encoder_block_oracle(x: np.ndarray, weights: dict, prefix: str,
                         heads: int, d_k: int, scale_denom: float) -> np.ndarray:
    """Straight-line pre-norm block: attention over the middle axis of
    (batch, seq, dim), then FFN, with residuals around both."""
    b, s, d = x.shape
    a = _layer_norm_np(x, weights[f"{prefix}.ln1.gain"], weights[f"{prefix}.ln1.bias"])
    q = (a @ weights[f"{prefix}.attn.wq"]).reshape(b, s, heads, d_k).transpose(0, 2, 1, 3)
    k = (a @ weights[f"{prefix}.attn.wk"]).reshape(b, s, heads, d_k).transpose(0, 2, 1, 3)
    v = (a @ weights[f"{prefix}.attn.wv"]).reshape(b, s, heads, d_k).transpose(0, 2, 1, 3)
    scores = q @ k.transpose(0, 1, 3, 2) / scale_denom
    probs = _softmax_np(scores)
    context = (probs @ v).transpose(0, 2, 1, 3).reshape(b, s, heads * d_k)
    x1 = x + context @ weights[f"{prefix}.attn.wo"]
    f = _layer_norm_np(x1, weights[f"{prefix}.ln2.gain"], weights[f"{prefix}.ln2.bias"])
    hidden = _gelu_np(f @ weights[f"{prefix}.ffn.w1"] + weights[f"{prefix}.ffn.b1"])
    return x1 + hidden @ weights[f"{prefix}.ffn.w2"] + weights[f"{prefix}.ffn.b2"]


def finite_difference_gradients(loss_fn, tensors, h=1e-5):
    """Central finite differences of a scalar loss for every listed tensor."""
    grads = []
    for tensor in tensors:
        flat = tensor.data.reshape(-1)
        g = np.empty_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(loss_fn().data)
            flat[i] = orig - h
            down = float(loss_fn().data)
            flat[i] = orig
            g[i] = (up - down) / (2.0 * h)
        grads.append(g.reshape(tensor.data.shape))
    return grads


def mul(a, b):
    a, b = nm._as_tensor(a), nm._as_tensor(b)
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: cannot broadcast {a.shape} with {b.shape}") from None
    sa, sb = a.shape, b.shape
    # each operand is kept only for the other one's gradient
    bd = b.data if a.requires_grad else None
    ad = a.data if b.requires_grad else None

    def bwd(g):
        ga = None if bd is None else nm._unbroadcast(g * bd, sa)
        gb = None if ad is None else nm._unbroadcast(g * ad, sb)
        return ga, gb

    return nm._record(out, (a, b), bwd)


def transpose(a, axis1: int = -2, axis2: int = -1):
    a = nm._as_tensor(a)
    out = np.swapaxes(a.data, axis1, axis2)
    return nm._record(out, (a,), lambda g: (np.swapaxes(g, axis1, axis2),))


def matmul(a, b):
    a, b = nm._as_tensor(a), nm._as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul: operands must be >= 2-D, got {a.shape} and {b.shape}")
    try:
        out = a.data @ b.data
    except ValueError:
        what = "inner" if a.shape[-1] != b.shape[-2] else "batch"
        raise ShapeError(f"matmul: {what} dims differ, {a.shape} @ {b.shape}") from None
    sa, sb = a.shape, b.shape
    bd = b.data if a.requires_grad else None
    ad = a.data if b.requires_grad else None

    def bwd(g):
        ga = gb = None
        if bd is not None:
            ga = nm._unbroadcast(g @ np.swapaxes(bd, -1, -2), sa)
        if ad is not None and len(sb) == 2:
            # one gemm over the folded leading axes: no (N, K, M) intermediate
            k, m = sb
            gb = ad.reshape(-1, k).T @ g.reshape(-1, m)
        elif ad is not None:
            gb = nm._unbroadcast(np.swapaxes(ad, -1, -2) @ g, sb)
        return ga, gb

    return nm._record(out, (a, b), bwd)


def mse(pred, target):
    pred, target = nm._as_tensor(pred), nm._as_tensor(target)
    if pred.shape != target.shape:
        raise ShapeError(f"mse: shapes differ, {pred.shape} vs {target.shape}")
    diff = pred.data - target.data
    out = np.mean(diff**2)
    pred_grad, target_grad = pred.requires_grad, target.requires_grad

    def bwd(g):
        gp = g * 2.0 * diff / diff.size
        return gp if pred_grad else None, -gp if target_grad else None

    return nm._record(out, (pred, target), bwd)


def log(a):
    a = nm._as_tensor(a)
    x = a.data
    return nm._record(np.log(x), (a,), lambda g: (g / x,))


def slice_(a, key):
    """Basic indexing (ints and slices), or index arrays that pick each
    element at most once; gradient scatters back."""
    a = nm._as_tensor(a)
    out = a.data[key]
    shape = a.shape

    def bwd(g):
        full = np.zeros(shape)
        full[key] = g
        return (full,)

    return nm._record(np.array(out, copy=True), (a,), bwd)


def nll_chain(probs, labels):
    """The classification loss as primitive taped ops, the reference of
    `numerics.nll`: pick each row's label probability, log, mean, negate."""
    picked = slice_(probs, (np.arange(probs.shape[0]), np.asarray(labels)))
    return nm.scale(nm.mean(log(picked)), -1.0)


def _primitive_layer_norm(a):
    """Layer normalization over the last axis (eps 1e-5) as its own tape
    node: the kernel `numerics.affine_norm` fuses with `mul` and `add`."""
    mu = a.data.mean(axis=-1, keepdims=True)
    xc = a.data - mu
    var = (xc**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    y = xc * inv

    def bwd(g):
        gm = g.mean(axis=-1, keepdims=True)
        gy = (g * y).mean(axis=-1, keepdims=True)
        return (inv * (g - gm - y * gy),)

    return nm._record(y, (a,), bwd)


def primitive_gelu(a):
    """GELU (tanh approximation) as a node that keeps its input and `tanh`
    and forms the derivative in backward: the form `numerics.gelu` replaces
    with a derivative computed in the forward pass."""
    x = a.data
    th = np.tanh(nm._GELU_C0 * (x + nm._GELU_C1 * (x * x * x)))

    def bwd(g):
        du = nm._GELU_C0 * (1.0 + 3.0 * nm._GELU_C1 * x**2)
        dy = 0.5 * (1.0 + th) + 0.5 * x * (1.0 - th**2) * du
        return (g * dy,)

    return nm._record(0.5 * x * (1.0 + th), (a,), bwd)


def primitive_dropout(x, p, stream):
    """Dropout as a `mul` by the float64 scaled keep mask, drawn from
    `stream` as the model's `_maybe_dropout` draws it; `x` unchanged
    without a stream or for p = 0."""
    if p <= 0.0 or stream is None:
        return x
    keep = (stream.uniforms(x.size) >= p).astype(np.float64).reshape(x.shape)
    return mul(x, nm.Tensor(keep / (1.0 - p)))


def _primitive_split_heads(x, heads, head_dim):
    return transpose(nm.reshape(x, x.shape[:-1] + (heads, head_dim)), -3, -2)


def _primitive_merge_heads(x):
    *lead, h, s, dv = x.shape
    return nm.reshape(transpose(x, -3, -2), (*lead, s, h * dv))


def primitive_encoder_block(x, params, prefix, cfg, stream=None):
    """The pre-norm encoder block over (..., seq, dim) as a chain of
    primitive taped ops: layer norm, mul, add, matmul, reshape, transpose,
    scale, softmax and gelu.  Dropout is a `mul` by the float64 mask drawn
    from `stream` as the model's block draws it."""
    def p(name):
        return params[f"{prefix}.{name}"]

    def affine(t, name):
        return nm.add(mul(_primitive_layer_norm(t), p(f"{name}.gain")), p(f"{name}.bias"))

    a = affine(x, "ln1")
    q = _primitive_split_heads(matmul(a, p("attn.wq")), cfg.heads, cfg.d_k)
    k = _primitive_split_heads(matmul(a, p("attn.wk")), cfg.heads, cfg.d_k)
    v = _primitive_split_heads(matmul(a, p("attn.wv")), cfg.heads, cfg.d_k)
    scores = nm.scale(matmul(q, transpose(k)), 1.0 / cfg.scale_denominator)
    probs = nm.softmax(scores, axis=-1)
    context = matmul(_primitive_merge_heads(matmul(probs, v)), p("attn.wo"))
    x = nm.add(x, primitive_dropout(context, cfg.dropout, stream))
    f = affine(x, "ln2")
    hidden = primitive_gelu(nm.add(matmul(f, p("ffn.w1")), p("ffn.b1")))
    produced = nm.add(matmul(hidden, p("ffn.w2")), p("ffn.b2"))
    return nm.add(x, primitive_dropout(produced, cfg.dropout, stream))


def full_row_forward(patches, bands, params, cfg, mask, stream=None):
    """`model.forward` with the patch projection (linear, or the
    convolutional form) run on every patch, masked ones included, before
    `apply_mask` replaces their rows: the chain a masked forward pass
    skips the masked patches of."""
    from fome import model

    e = model.apply_mask(model.embed(patches, bands, params, cfg), mask, params, cfg)
    for i in range(cfg.temporal_layers):
        e = model.temporal_attention(e, params, i, cfg, stream)
    for i in range(cfg.channel_layers):
        e = model.channel_attention(e, params, i, cfg, stream)
    return e


def detrend(r):
    """Remove the per-channel least-squares line."""
    from fome.preprocess import _detrend
    from fome.signal_store import Recording

    out = r.data.copy()
    _detrend(out)
    return Recording(out, r.sample_rate_hz, r.channel_labels, r.id)


def window_and_patch(r, cfg, patch_len):
    """Cut into complete windows, then non-overlapping patches of patch_len.

    Trailing samples short of a full window are dropped; with the default
    window == patch this is exactly floor(T / L) patches.
    """
    from fome.preprocess import PatchGrid, _windowed_length

    total = _windowed_length(r.n_samples, cfg, patch_len)
    patches = r.data[:, :total].reshape(r.channels, total // patch_len, patch_len)
    return PatchGrid(patches=patches.copy(), patch_len=patch_len, source_rate_hz=r.sample_rate_hz)


def polyphase_oracle(x, source_hz, target_hz):
    """`preprocess.resample`'s conversion of the (..., T) array x, framed by
    hand around `upfirdn` as fome did before it called `resample_poly`: the
    Kaiser taps padded in front so the group delay ends on a whole output
    sample, zeros appended to every row, and the delay trimmed off."""
    from scipy.signal import upfirdn

    from fome.preprocess import _kaiser_lowpass, _rate_ratio

    up, down = _rate_ratio(target_hz, source_hz)
    n_out = int(round(x.shape[-1] * up / down))
    taps = _kaiser_lowpass(up, down, source_hz)
    half = (len(taps) - 1) // 2
    n_pre = (-half) % down
    taps_padded = np.concatenate([np.zeros(n_pre), taps])
    skip = (half + n_pre) // down
    pad_tail = len(taps_padded) // up + down + 2
    x = np.concatenate([x, np.zeros(x.shape[:-1] + (pad_tail,))], axis=-1)
    return upfirdn(taps_padded, x, up=up, down=down, axis=-1)[..., skip : skip + n_out]


def conditioning_oracle(recording, cfg, patch_len=None):
    """`preprocess_pipeline` as its stage chain: notch, band-pass, resample,
    detrend, window and patch, then each window standardized on its own."""
    from fome.preprocess import PatchGrid, _standardize, bandpass_filter, notch_filter, resample

    patch_len = cfg.window_len_samples if patch_len is None else patch_len
    stage = notch_filter(recording, cfg.notch_hz, cfg.notch_q)
    stage = bandpass_filter(stage, cfg.band_lo_hz, cfg.band_hi_hz)
    stage = detrend(resample(stage, cfg.target_rate_hz))
    grid = window_and_patch(stage, cfg, patch_len)
    windows = grid.patches.reshape(grid.n_channels, -1, cfg.window_len_samples)
    _standardize(windows, cfg.ema_alpha, cfg.eps)  # in place, so into grid.patches
    return PatchGrid(grid.patches, patch_len, cfg.target_rate_hz)


def _plain_errors(preds, truth):
    """(MAE, MSE) with a full-size temporary for each term."""
    diff = preds - truth
    return float(np.mean(np.abs(diff))), float(np.mean(diff**2))


def mean_imputation(sample):
    """Fill missing patches with the channel's mean over observed samples."""
    from fome.trainer import _channel_means

    kept = ~sample.missing
    filled = sample.grid.patches.copy()
    for c, value in enumerate(_channel_means(filled[kept], kept)):
        filled[c, sample.missing[c]] = value
    return filled


def impute_report_oracle(samples, params, model_cfg):
    """`evaluate_impute` the plain way: per sample with a missing patch, band
    powers of the whole zeroed grid, the forward pass, the full
    reconstruction head and the `mean_imputation` grid, each read at the
    missing patches, scored without `regression_metrics`."""
    from fome import model, trainer
    from fome.preprocess import PatchGrid
    from fome.spectral import band_powers

    preds, bases, truths = [], [], []
    for sample in samples:
        if not sample.missing.any():
            continue
        grid = sample.grid
        zeroed = np.where(sample.missing[..., None], 0.0, grid.patches)
        powers = (band_powers(PatchGrid(zeroed, grid.patch_len, grid.source_rate_hz))
                  if model_cfg.use_freq_embed else None)
        encoded = model.forward(zeroed, powers, params, model_cfg, mask=sample.missing)
        preds.append(model.head_reconstruct(encoded, params).data[sample.missing].ravel())
        bases.append(mean_imputation(sample)[sample.missing].ravel())
        truths.append(grid.patches[sample.missing].ravel())
    if not preds:
        return trainer.MetricsReport(task="imputation", notes={"no-missing": True})
    truth = np.concatenate(truths)
    mae, mse = _plain_errors(np.concatenate(preds), truth)
    base_mae, base_mse = _plain_errors(np.concatenate(bases), truth)
    return trainer.MetricsReport(task="imputation", mae=mae, mse=mse, baseline={
        "mean_imputation_mae": base_mae, "mean_imputation_mse": base_mse})


def csv_to_text(r):
    """The recording CSV layout, one f-string per value."""
    labels = r.channel_labels or [f"ch{i}" for i in range(r.channels)]
    lines = [f"# rate_hz={r.sample_rate_hz!r}", ",".join(labels)]
    for row in r.data.astype(np.float32).T:
        lines.append(",".join(f"{v:.9g}" for v in row))
    return "\n".join(lines) + "\n"


def csv_from_text(text, source):
    """The `Recording` of a recording CSV, one `np.float32` per value;
    raises `FormatError` naming the first bad line."""
    from fome.errors import DataError, FormatError
    from fome.signal_store import Recording

    lines = text.splitlines()
    if len(lines) < 3:
        raise FormatError(f"{source}: need a 2-line header plus at least one sample row")
    if not lines[0].startswith("# rate_hz="):
        raise FormatError(f"{source}: first line must be '# rate_hz=<float>'")
    try:
        rate = float(lines[0].removeprefix("# rate_hz="))
    except ValueError as exc:
        raise FormatError(f"{source}: unparseable sample rate: {lines[0]!r}") from exc
    labels = [s.strip() for s in lines[1].split(",")]
    rows = []
    for lineno, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(labels):
            raise FormatError(
                f"{source}: line {lineno} has {len(parts)} values for {len(labels)} channels")
        try:
            rows.append([np.float32(p) for p in parts])
        except ValueError as exc:
            raise FormatError(f"{source}: line {lineno}: unparseable value") from exc
    data = np.array(rows, dtype=np.float32).T.astype(np.float64)
    if not np.all(np.isfinite(data)):
        ch, idx = (int(i) for i in np.argwhere(~np.isfinite(data))[0])
        raise DataError(f"{source}: non-finite sample at channel {ch}, index {idx}")
    return Recording(data=data, sample_rate_hz=rate, channel_labels=labels, id=source)


# ---------------------------------------------------------------------------
# random streams
# ---------------------------------------------------------------------------

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_INV_2_53 = float(2.0**-53)


def _mix64(z):
    with np.errstate(over="ignore"):
        z = z ^ (z >> np.uint64(30))
        z = z * np.uint64(0xBF58476D1CE4E5B9)
        z = z ^ (z >> np.uint64(27))
        z = z * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


class OracleRng:
    """`fome.rng.Rng` as whole-array splitmix64 and Box-Muller formulas."""

    def __init__(self, seed: int):
        self._seed = np.uint64(int(seed) & ((1 << 64) - 1))
        self._count = 0

    def raw(self, n):
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        with np.errstate(over="ignore"):
            return _mix64(self._seed + idx * _GOLDEN)

    def uniforms(self, n):
        return (self.raw(n) >> np.uint64(11)).astype(np.float64) * _INV_2_53

    def normals(self, n):
        pairs = (n + 1) // 2
        words = self.raw(2 * pairs)
        u1 = ((words[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
        u2 = (words[1::2] >> np.uint64(11)).astype(np.float64) * _INV_2_53
        r = np.sqrt(-2.0 * np.log(u1))
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = r * np.cos(2.0 * np.pi * u2)
        out[1::2] = r * np.sin(2.0 * np.pi * u2)
        return out[:n]

    def sample_without_replacement(self, n, k):
        arr = np.arange(n, dtype=np.int64)
        words = self.raw(k)
        for i in range(k):
            j = i + int(words[i] % np.uint64(n - i))
            arr[i], arr[j] = arr[j], arr[i]
        return arr[:k]


def synthetic_oracle(spec):
    """The data of `generate_synthetic(spec)`: every component summed into
    a zero (C, T) array, whole-array noise added, then quantized."""
    n = int(round(spec.duration_s * spec.sample_rate_hz))
    t = np.arange(n, dtype=np.float64) / spec.sample_rate_hz
    data = np.zeros((spec.channels, n), dtype=np.float64)
    for comp in spec.components:
        data[comp.channel] += comp.amplitude * np.sin(
            2.0 * np.pi * comp.frequency_hz * t + comp.phase_rad
        )
    if spec.noise_std > 0:
        noise = OracleRng(spec.seed).normals(spec.channels * n)
        data += spec.noise_std * noise.reshape(spec.channels, n)
    return data.astype(np.float32).astype(np.float64)
