"""Dense float64 tensors with reverse-mode differentiation.

Execution is define-by-run: while a `Tape` is active, every differentiable
op appends one node to it, and `backward(loss)` walks the list in exact
reverse execution order, accumulating adjoints additively, and writes
`.grad` on leaves only.  Without an active tape the same ops run as plain
forward kernels.

A node keeps only what its backward reads.  It holds no Tensor but the
leaves it differentiates: an intermediate input is named by the index of
the node that produced it, and an input that takes no gradient gets no
slot.  Its backward closure captures the arrays, shapes and flags that the
gradients of the inputs needing one read (`add` keeps two shapes,
`linear_mse` the difference), so an activation no backward reads is freed
as soon as the forward pass drops it.  Where a smaller array serves, the
node keeps it: `gelu` keeps its derivative, computed in the forward pass
under a tape, not its input and `tanh`; `dropout` keeps its boolean keep
mask and rescales it in backward.  `backward` consumes its tape: it drops each
node and its output adjoint as soon as that node's backward has run, and
a second `backward` on the same tape is a `ContractError`.

A tensor's first adjoint is borrowed as the consumer's backward returned
it: it may be that op's output adjoint or a view of it, or the very array
handed to another input (`add` gives both operands one array).  The first fan-in
sum allocates a fresh buffer that `backward` owns; only owned buffers are
summed into in place, so a borrowed array is never written.

Ops are plain numpy/BLAS kernels: a reduction's result depends on the
order of its terms.  The fused kernels each record one node for a chain
of ops and keep:
  - `linear` (matmul and add): the weight for the input's gradient and
    the input for the weight's, and with `skip` the boolean map of the
    rows it left out;
  - `affine_norm` (layer norm, mul and add): the normalised rows, their
    inverse deviations and the gain;
  - `attention` (head split, scaled scores, softmax, mixing and head
    merge): the split q, k and v and the probabilities;
  - `blend` (mul, mul and add): the gate and its complement;
  - `gather_swap` (reshape, embedding lookup and transpose, in either
    order): the gathered rows;
  - `linear_mse` (linear, then mse against gathered target rows): what
    `linear` keeps and the difference.  It holds at most two
    prediction-sized buffers at once, and its backward overwrites the
    difference with the prediction's gradient;
  - `nll` (pick, log, mean and scale): the picked probabilities.
Forward and backward run the chain's numpy expressions in the same order
on arrays of the same layout, so values and gradients are bitwise the
chain's.  The primitive ops of those chains that the model does not call
(`mul`, `transpose`, `matmul`, `mse`, `slice_`, `log`) are test oracles in
`tests/oracles.py`, not ops of this module.
Permutation stability across channels is not an op property; the model
runs every cross-channel reduction in a canonical channel order (see
`fome.model`).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, ShapeError

_LN_EPS = 1e-5
_GELU_C0 = 0.7978845608028654  # sqrt(2/pi)
_GELU_C1 = 0.044715

_tape_stack: list["Tape"] = []


class Tensor:
    """A dense float64 array plus gradient bookkeeping."""

    __slots__ = ("data", "requires_grad", "grad", "_tape", "_node_index")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._tape: Tape | None = None
        self._node_index: int = -1

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _Node:
    """One recorded op.  `bwd(g)` maps the output adjoint to one gradient (or
    None) per entry of `inputs`; an entry is the producing node's index for
    an intermediate of the same tape, the Tensor for a leaf, and None for an
    input that takes no gradient."""

    __slots__ = ("inputs", "bwd")
    out = None  # a node never holds its output; tape walkers may read this

    def __init__(self, inputs: tuple, bwd: Callable):
        self.inputs = inputs
        self.bwd = bwd


def _slot(t: Tensor, tape: "Tape"):
    """The entry of input `t` in a `_Node` recorded on `tape`."""
    if not t.requires_grad:
        return None
    if t._tape is None:
        return t
    return t._node_index if t._tape is tape else None


class Tape:
    """Ordered record of executed ops; activate with a `with` block.  One
    `backward` consumes it."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self.consumed = False

    def __enter__(self) -> "Tape":
        _tape_stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _tape_stack.pop()


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _record(out_data: np.ndarray, inputs: tuple[Tensor, ...], bwd: Callable) -> Tensor:
    requires_grad = False
    for t in inputs:
        if t.requires_grad:
            requires_grad = True
            break
    out = Tensor(out_data, requires_grad)
    if requires_grad and _tape_stack:
        tape = _tape_stack[-1]
        out._tape = tape
        out._node_index = len(tape.nodes)
        tape.nodes.append(_Node(tuple(_slot(t, tape) for t in inputs), bwd))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: cannot broadcast {a.shape} with {b.shape}") from None
    sa, sb = a.shape, b.shape
    return _record(out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def blend(a, b, gate) -> Tensor:
    """`a * (1 - gate) + b * gate` with a constant array `gate`, as one node.

    Forward and backward run the expressions of the mul, mul, add chain it
    replaces, so values and gradients are bitwise the chain's."""
    a, b = _as_tensor(a), _as_tensor(b)
    gate = np.asarray(gate, dtype=np.float64)
    keep = 1.0 - gate
    try:
        kept, injected = a.data * keep, b.data * gate
        out = kept + injected
    except ValueError:
        raise ShapeError(f"blend: cannot broadcast {a.shape}, {b.shape} and gate "
                         f"{gate.shape}") from None
    sa, sb, sk, si = a.shape, b.shape, kept.shape, injected.shape
    a_grad, b_grad = a.requires_grad, b.requires_grad

    def bwd(g):
        ga = _unbroadcast(_unbroadcast(g, sk) * keep, sa) if a_grad else None
        gb = _unbroadcast(_unbroadcast(g, si) * gate, sb) if b_grad else None
        return ga, gb

    return _record(out, (a, b), bwd)


def scale(a, factor: float) -> Tensor:
    a = _as_tensor(a)
    factor = float(factor)
    return _record(a.data * factor, (a,), lambda g: (g * factor,))


def reshape(a, shape: Sequence[int]) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(shape)
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: {a.shape} does not fit {shape}") from None
    old = a.shape
    return _record(out, (a,), lambda g: (g.reshape(old),))


def embedding_lookup(table, indices) -> Tensor:
    """Rows `table[indices]`; the gradient sums over repeated indices."""
    table = _as_tensor(table)
    indices = np.asarray(indices, dtype=np.int64)
    out = table.data[indices]
    shape = table.shape

    def bwd(g):
        gt = np.zeros(shape)
        if np.unique(indices).size == indices.size:
            gt[indices] += g  # 0.0 + g, bit for bit what np.add.at stores
        else:
            np.add.at(gt, indices, g)
        return (gt,)

    return _record(out, (table,), bwd)


def gather_swap(a, rows, swap_first: bool = False) -> Tensor:
    """The (S, D) blocks `rows` of `a` folded to (-1, S, D), with axes -3
    and -2 swapped after the gather, or before the fold when `swap_first`,
    as one node.  `rows` names each block at most once.

    It is the reshape, embedding_lookup and transpose chain (transpose,
    reshape and embedding_lookup when `swap_first`): forward builds the same
    views and copies, and backward scatters `0.0 + g` into zeros as the
    lookup does, so values, layouts and gradients are bitwise the chain's."""
    a = _as_tensor(a)
    rows = np.asarray(rows, dtype=np.int64)
    src = np.swapaxes(a.data, -3, -2) if swap_first else a.data
    unfolded = src.shape
    folded = (math.prod(unfolded[:-2]),) + unfolded[-2:]
    out = src.reshape(folded)[rows]

    def bwd(g):
        full = np.zeros(folded)
        full[rows] += g if swap_first else np.swapaxes(g, -3, -2)  # 0.0 + g
        full = full.reshape(unfolded)
        return (np.swapaxes(full, -3, -2) if swap_first else full,)

    return _record(out if swap_first else np.swapaxes(out, -3, -2), (a,), bwd)


# ---------------------------------------------------------------------------
# contractions
# ---------------------------------------------------------------------------


def _affine(op: str, x: Tensor, w: Tensor, b: Tensor | None, skip=None):
    """Checked `x @ w + b` for `linear` and `linear_mse`, on the rows that
    the boolean `skip` over x's leading axes leaves (every row when None):
    the output, the node's inputs, and the weight, input and bias shape
    `_linear_grads` reads (each None where no gradient needs it)."""
    if x.data.ndim < 2 or w.data.ndim != 2:
        raise ShapeError(f"{op}: needs a >= 2-D input and a 2-D weight, "
                         f"got {x.shape} and {w.shape}")
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"{op}: inner dims differ, {x.shape} @ {w.shape}")
    out = x.data @ w.data if skip is None else _kept_product(x.data, w.data, skip)
    inputs = (x, w)
    if b is not None:
        if b.shape != w.shape[1:]:
            raise ShapeError(f"{op}: bias {b.shape} does not match weight {w.shape}")
        out += b.data
        inputs = (x, w, b)
    wd = w.data if x.requires_grad else None
    xd = x.data if w.requires_grad else None
    return out, inputs, wd, xd, None if b is None else b.shape


def _kept_product(x: np.ndarray, w: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """`x @ w` on the entries of x's leading axes where the boolean `skip`
    is False, and zeros where it is True; a skipped entry is never read.

    numpy runs `x @ w` as one gemm per trailing (S, K) matrix of `x`, and
    BLAS picks its kernel by the call's shape.  So the kept entries are
    gathered and multiplied in calls of that same shape: whole matrices, or
    kept rows in (S, K) blocks, the last one padded with zero rows.  A row's
    bits depend only on its values and the call's shape, so every kept row
    gets the bits of the full product."""
    inner = x.shape[skip.ndim:]
    width = inner[:-1] + w.shape[1:]
    kept = np.flatnonzero(~skip)
    out = np.zeros(skip.shape + width)
    if kept.size == 0:
        return out
    flat = x.reshape((-1,) + inner)
    if len(inner) > 1:  # each kept entry is one or more whole matrices
        out.reshape((-1,) + width)[kept] = flat[kept] @ w
        return out
    per = x.shape[-2]
    rows = np.empty((-(-kept.size // per) * per, inner[0]))
    np.take(flat, kept, axis=0, out=rows[: kept.size], mode="clip")
    rows[kept.size :] = 0.0
    product = rows.reshape(-1, per, inner[0]) @ w
    out.reshape(-1, w.shape[1])[kept] = product.reshape(-1, w.shape[1])[: kept.size]
    return out


def _linear_grads(g: np.ndarray, wd, xd, sb, keep=None) -> tuple:
    """The gradients of `linear`'s inputs from its output adjoint `g`: the
    bias's from every row, since a skipped row outputs the bias, and the
    input's and weight's with the rows where the boolean `keep` is False
    zeroed first (`g * keep` leaves a zero adjoint's sign as it is)."""
    gb = None if sb is None else _unbroadcast(g, sb)
    if keep is not None:
        g = g * keep
    gx = None if wd is None else g @ wd.T
    # one gemm over the folded leading axes: no (N, K, M) intermediate
    gw = None if xd is None else xd.reshape(-1, xd.shape[-1]).T @ g.reshape(-1, g.shape[-1])
    return (gx, gw) if sb is None else (gx, gw, gb)


def linear(x, w, b=None, skip=None) -> Tensor:
    """`x @ w + b` with a 2-D weight `w` and an optional (M,) bias `b`, as
    one node.

    `skip`, a boolean array over the leading axes of `x`, leaves out the
    entries where it is True: the product runs on the other rows only (see
    `_kept_product`) and bitwise as it does on the full `x`, while a skipped
    entry's output rows hold `b` (0 without it), what a zero row gives, and
    its input values are never read.  Backward sums the bias gradient over
    every row, then zeroes the output adjoint on the skipped rows and runs
    as without `skip`, on the full `x`.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    b = None if b is None else _as_tensor(b)
    keep = None
    if skip is not None:
        skip = np.asarray(skip)
        if (skip.dtype != np.bool_ or skip.ndim >= x.data.ndim
                or skip.shape != x.shape[: skip.ndim]):
            raise ShapeError(f"linear: skip must be a boolean array over the leading axes "
                             f"of {x.shape}, got {skip.dtype} {skip.shape}")
        if skip.any():
            keep = ~skip.reshape(skip.shape + (1,) * (x.data.ndim - skip.ndim))
        else:
            skip = None
    out, inputs, wd, xd, sb = _affine("linear", x, w, b, skip)
    return _record(out, inputs, lambda g: _linear_grads(g, wd, xd, sb, keep))


def attention(q, k, v, heads: int, factor: float) -> Tensor:
    """Multi-head attention over the sequence axis, as one node.

    `q` and `k` are (..., S, heads * d_k) and `v` is (..., S, heads * d_v).
    Each head h attends with softmax(factor * q_h k_h^T) v_h, and the heads'
    outputs are concatenated back to (..., S, heads * d_v).
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    lead = q.shape[:-1]
    if (q.data.ndim < 2 or k.shape != q.shape or v.shape[:-1] != lead
            or q.shape[-1] % heads or v.shape[-1] % heads):
        raise ShapeError(f"attention: q {q.shape}, k {k.shape} and v {v.shape} do not "
                         f"split into {heads} heads over one sequence")
    factor = float(factor)

    def split(a: np.ndarray) -> np.ndarray:  # (..., S, H*d) -> (..., H, S, d)
        return np.swapaxes(a.reshape(lead + (heads, a.shape[-1] // heads)), -3, -2)

    def merge(a: np.ndarray) -> np.ndarray:  # (..., H, S, d) -> (..., S, H*d)
        return np.swapaxes(a, -3, -2).reshape(lead + (-1,))

    qs, ks, vs = split(q.data), split(k.data), split(v.data)
    scores = (qs @ np.swapaxes(ks, -2, -1)) * factor
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    out = merge(probs @ vs)
    # q's gradient reads k, k's reads q, and both read v
    kept_q = qs if k.requires_grad else None
    kept_k = ks if q.requires_grad else None
    kept_v = vs if q.requires_grad or k.requires_grad else None
    v_grad = v.requires_grad

    def bwd(g):
        g_ctx = split(g)
        gq = gk = gv = None
        if kept_v is not None:
            g_probs = g_ctx @ np.swapaxes(kept_v, -1, -2)
            inner = (g_probs * probs).sum(axis=-1, keepdims=True)
            g_scores = probs * (g_probs - inner) * factor
            if kept_k is not None:
                gq = merge(g_scores @ kept_k)
            if kept_q is not None:
                gk = merge(np.swapaxes(np.swapaxes(kept_q, -1, -2) @ g_scores, -2, -1))
        if v_grad:
            gv = merge(np.swapaxes(probs, -1, -2) @ g_ctx)
        return gq, gk, gv

    return _record(out, (q, k, v), bwd)


# ---------------------------------------------------------------------------
# nonlinear ops
# ---------------------------------------------------------------------------


def softmax(a, axis: int = -1) -> Tensor:
    """Stable softmax (max-shifted exponentials over their sum)."""
    a = _as_tensor(a)
    e = np.exp(a.data - a.data.max(axis=axis, keepdims=True))
    s = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        inner = (g * s).sum(axis=axis, keepdims=True)
        return (s * (g - inner),)

    return _record(s, (a,), bwd)


def affine_norm(x, gain, bias) -> Tensor:
    """Layer normalization over the last axis (eps 1e-5), then `* gain + bias`
    with (D,) `gain` and `bias`, as one node."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    if gain.shape != x.shape[-1:] or bias.shape != x.shape[-1:]:
        raise ShapeError(f"affine_norm: gain {gain.shape} and bias {bias.shape} "
                         f"do not match {x.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    y = xc * inv
    out = y * gain.data + bias.data
    gd, x_grad, gain_grad = gain.data, x.requires_grad, gain.requires_grad
    sg, sb = gain.shape, bias.shape

    def bwd(g):
        gx = None
        if x_grad:
            gy = g * gd
            gm = gy.mean(axis=-1, keepdims=True)
            gyy = (gy * y).mean(axis=-1, keepdims=True)
            gx = inv * (gy - gm - y * gyy)
        gg = _unbroadcast(g * y, sg) if gain_grad else None
        return gx, gg, _unbroadcast(g, sb)

    return _record(out, (x, gain, bias), bwd)


def gelu(a) -> Tensor:
    """Gaussian error linear unit, tanh approximation.

    Under a tape, with `a` taking a gradient, the forward pass also computes
    the derivative and the node keeps it alone; without one it computes y
    only."""
    a = _as_tensor(a)
    x = a.data
    u = _GELU_C0 * (x + _GELU_C1 * (x * x * x))
    th = np.tanh(u)
    y = 0.5 * x * (1.0 + th)
    bwd = None
    if a.requires_grad and _tape_stack:
        du = _GELU_C0 * (1.0 + 3.0 * _GELU_C1 * x**2)
        dy = 0.5 * (1.0 + th) + 0.5 * x * (1.0 - th**2) * du

        def bwd(g):
            return (g * dy,)

    return _record(y, (a,), bwd)


def dropout(x, keep, p: float) -> Tensor:
    """`x * (keep / (1 - p))` with a boolean array `keep` of `x`'s shape, as
    one node that holds `keep` alone.  `keep / (1 - p)` is the float64 mask
    a `mul` would keep, recomputed in backward, so values and gradients are
    bitwise the `mul`'s."""
    x = _as_tensor(x)
    keep = np.asarray(keep)
    if keep.dtype != np.bool_ or keep.shape != x.shape:
        raise ShapeError(f"dropout: keep must be a boolean {x.shape} array, "
                         f"got {keep.dtype} {keep.shape}")
    p = float(p)
    return _record(x.data * (keep / (1.0 - p)), (x,), lambda g: (g * (keep / (1.0 - p)),))


# ---------------------------------------------------------------------------
# reductions / losses
# ---------------------------------------------------------------------------


def _expand_axes(g: np.ndarray, axis, shape: tuple[int, ...]) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g, shape)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(ax % len(shape) for ax in axes)
    for ax in sorted(axes):
        g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape)


def mean(a, axis=None) -> Tensor:
    a = _as_tensor(a)
    out = a.data.mean(axis=axis)
    count = a.data.size / max(1, np.asarray(out).size)
    shape = a.shape

    def bwd(g):
        return (_expand_axes(np.asarray(g), axis, shape) / count,)

    return _record(out, (a,), bwd)


def linear_mse(x, w, b, target, rows=None) -> Tensor:
    """`mse(linear(x, w, b), target[rows])` with a constant array `target`
    and an integer index array `rows` (all of `target` when None), as one
    node.

    The prediction buffer becomes the difference in place.  Gathered target
    rows are a buffer the kernel owns, and it then holds the squares; whole,
    `target` is the caller's, and one squares buffer is allocated.  So at
    most two prediction-sized buffers are live, and the node keeps the
    difference alone.  Backward writes the prediction's gradient over the
    difference (a tape runs backward once) and returns `linear`'s gradients.
    Both passes run the chain's expressions in its order (`diff * diff` is
    `diff**2` bit for bit), so values and gradients are the chain's."""
    x, w = _as_tensor(x), _as_tensor(w)
    b = None if b is None else _as_tensor(b)
    diff, inputs, wd, xd, sb = _affine("linear_mse", x, w, b)
    target = np.asarray(target, dtype=np.float64)
    owned = rows is not None
    if owned:
        target = target[np.asarray(rows, dtype=np.int64)]  # a copy, never a view
    if diff.shape != target.shape:
        raise ShapeError(f"linear_mse: prediction {diff.shape} and target {target.shape} differ")
    diff -= target
    out = np.mean(np.multiply(diff, diff, out=target if owned else None))

    def bwd(g):
        np.multiply(g * 2.0, diff, out=diff)
        np.divide(diff, diff.size, out=diff)
        return _linear_grads(diff, wd, xd, sb)

    return _record(out, inputs, bwd)


def nll(probs, labels) -> Tensor:
    """The mean of `-log(probs[i, labels[i]])` over the rows of the (N, K)
    `probs`, as one node that runs the expressions of the pick, log, mean and
    scale-by-(-1) chain, forward and backward, so its bits are the chain's."""
    probs = _as_tensor(probs)
    rows = (np.arange(probs.shape[0]), np.asarray(labels))
    picked, shape = probs.data[rows], probs.shape

    def bwd(g):
        full = np.zeros(shape)
        full[rows] = np.broadcast_to(g * -1.0, picked.shape) / picked.size / picked
        return (full,)

    return _record(np.log(picked).mean() * -1.0, (probs,), bwd)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Populate .grad on every leaf (a requires_grad tensor no op produced)
    that `loss` depends on; intermediates keep .grad None.

    Consumes the loss's tape: each node, and the adjoint of its output, is
    released as soon as that node's backward has run, and a second call on
    the same tape raises `ContractError`.  Leaf gradients accumulate
    additively across tapes: two losses built from the same leaves on two
    tapes, each passed to backward, double every gradient.
    """
    if not isinstance(loss, Tensor) or loss.data.size != 1:
        raise ContractError("backward requires a scalar Tensor loss")
    tape = loss._tape
    if tape is None:
        if not loss.requires_grad:
            raise ContractError("loss does not depend on any requires_grad tensor")
        raise ContractError("loss was computed outside any active Tape")
    if tape.consumed:
        raise ContractError("backward already ran on this loss's tape")
    tape.consumed = True
    nodes = tape.nodes
    del nodes[loss._node_index + 1 :]
    # keyed by node index for intermediates and by the Tensor for leaves
    adjoints: dict = {loss._node_index: np.ones_like(loss.data)}
    owned: set = set()
    for i in range(loss._node_index, -1, -1):
        node = nodes.pop()
        g_out = adjoints.pop(i, None)
        if g_out is None:
            continue
        for key, g in zip(node.inputs, node.bwd(g_out)):
            if g is None or key is None:
                continue
            if key in owned:
                adjoints[key] += g
            elif key in adjoints:
                adjoints[key] = adjoints[key] + g
                owned.add(key)
            else:
                adjoints[key] = g
    for leaf, g in adjoints.items():  # every node's adjoint was popped
        leaf.grad = g.copy() if leaf.grad is None else leaf.grad + g

