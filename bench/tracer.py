"""Span tracer that wraps fome's public functions from outside the package.

`Tracer` replaces every public module-level function of the traced fome
modules (and `trainer.AdamW.step`) with a timing wrapper, on every module
attribute that refers to it, so calls made through `nm.matmul`, through an
imported alias such as `trainer.band_powers`, or through a module's own
globals are all caught.  `install` and `uninstall` swap the wrappers in and
out, so untraced and traced calls can alternate in one process.

Each wrapper records a span.  Its self time is the span's duration minus
the time its child spans cover, so over one traced call

    sum(self time of every span) + unattributed = wall time

where "unattributed" is the time outside any span (benchmark glue and the
wrappers' own cost).  Work the tracer does for its counters (hashing band
power inputs, walking the tape) is booked as its own span,
`trace.bookkeeping`, so it does not inflate any fome layer.

Backward time per model block: while a block's forward runs under a tape,
the wrapper notes the range of tape nodes it appended; when
`numerics.backward` is called, each node in such a range gets its backward
closure timed and booked to the block.
"""

from __future__ import annotations

import hashlib
import time
import types

import numpy as np

from layers import BOOKKEEPING

perf = time.perf_counter

NUMERIC_OPS = frozenset({
    "add", "mul", "scale", "log", "transpose", "reshape", "concat", "slice_",
    "embedding_lookup", "matmul", "attn_mix", "softmax", "layer_norm", "gelu",
    "mean", "mse",
})

# model function -> block name used in model.<block>_fwd_ms / _bwd_ms
MODEL_BLOCKS = {
    "embed": "embed",
    "apply_mask": "mask",
    "temporal_attention": "temporal",
    "channel_attention": "channel",
    "head_reconstruct": "head",
    "head_classify": "head",
    "head_forecast": "head",
}


def _root_array(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def taped_bytes(nodes, tensor_type) -> int:
    """Bytes of the distinct buffers a tape keeps alive: node outputs, node
    inputs and every array captured by a node's backward closure."""
    seen: set[int] = set()
    total = 0

    def add(value) -> None:
        nonlocal total
        if isinstance(value, tensor_type):
            value = value.data
        if not isinstance(value, np.ndarray):
            return
        root = _root_array(value)
        if id(root) not in seen:
            seen.add(id(root))
            total += root.nbytes

    for node in nodes:
        add(node.out)
        for tensor in node.inputs:
            add(tensor)
        for cell in node.bwd.__closure__ or ():
            try:
                add(cell.cell_contents)
            except ValueError:  # empty cell
                pass
    return total


class Counters:
    """Exact per-call counts; reset at the start of each traced call."""

    def __init__(self):
        self.ops_taped = 0
        self.ops_untaped = 0
        self.flops_taped = 0
        self.flops_untaped = 0
        self.backward_calls = 0
        self.forward_calls = 0
        self.tape_nodes = 0
        self.taped_bytes = 0
        self.patches = 0
        self.distinct_patches: set[bytes] = set()
        self.recording_bytes = 0

    def exact(self) -> dict[str, float]:
        """The counters that must repeat exactly for the same code and seed."""
        if self.backward_calls:
            steps = self.backward_calls
            nodes, taped = self.tape_nodes / steps, self.taped_bytes / steps / 1e6
            ops, flops = self.ops_taped / steps, self.flops_taped / steps
        elif self.forward_calls:
            steps = self.forward_calls
            nodes, taped = 0.0, 0.0
            ops, flops = self.ops_untaped / steps, self.flops_untaped / steps
        else:
            nodes = taped = ops = flops = 0.0
        distinct = len(self.distinct_patches)
        return {
            "numerics.tape_nodes_per_step": nodes,
            "numerics.op_calls_per_step": ops,
            "numerics.taped_mb_per_step": taped,
            "numerics.matmul_gflop_per_step": flops / 1e9,
            "spectral.patches": float(self.patches),
            "spectral.recompute_ratio": self.patches / distinct if distinct else 0.0,
            "signal_store.bytes": float(self.recording_bytes),
        }


class Tracer:
    """Wraps the public functions of the given fome modules.

    `modules` maps a layer name to its module; `all_modules` lists every
    module whose attributes may hold aliases of the wrapped functions.
    """

    def __init__(self, modules: dict[str, types.ModuleType], all_modules):
        self._nm = modules["numerics"]
        self.stats: dict[str, list] = {}  # qualname -> [self_s, total_s, calls]
        self.block_bwd: dict[str, list] = {b: [0.0] for b in set(MODEL_BLOCKS.values())}
        self.counters = Counters()
        self._stack: list[float] = []
        self._ranges: dict = {}  # tape -> [(first node, end node, block)]
        wrappers: dict = {}
        for layer, mod in modules.items():
            for attr, value in vars(mod).items():
                if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                        or value.__module__ != mod.__name__):
                    continue
                wrappers[value] = self._wrap(layer, attr, value)
        self._bindings = []
        for mod in all_modules:
            for attr, value in vars(mod).items():
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._bindings.append((mod, attr, value, wrappers[value]))
        adamw = modules["trainer"].AdamW
        step = adamw.__dict__["step"]
        self._bindings.append((adamw, "step", step, self._span("trainer.AdamW.step", step)))

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def begin_call(self) -> None:
        """Start one traced call: fresh counters, fresh root span."""
        self.counters = Counters()
        self._ranges.clear()
        self._stack[:] = [0.0]

    def end_call(self) -> float:
        """Finish the traced call; returns the seconds covered by spans."""
        self._ranges.clear()
        return self._stack.pop()

    # -- wrappers ----------------------------------------------------------

    def _book(self, seconds: float) -> None:
        st = self.stats.setdefault(BOOKKEEPING, [0.0, 0.0, 0])
        st[0] += seconds
        st[1] += seconds
        st[2] += 1
        self._stack[-1] += seconds

    def _span(self, qualname: str, fn, before=None, after=None):
        st = self.stats.setdefault(qualname, [0.0, 0.0, 0])
        stack = self._stack

        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                st[0] += dt - child
                st[1] += dt
                st[2] += 1
                stack[-1] += dt
            if after is not None:
                after(args, result, token)
            return result

        return wrapper

    def _op_span(self, qualname: str, fn, is_matmul: bool):
        """`_span` specialised for numerics ops, which run about a thousand
        times per training step: counting is inlined to keep overhead low."""
        st = self.stats.setdefault(qualname, [0.0, 0.0, 0])
        stack = self._stack
        tape_stack = self._nm._tape_stack
        tracer = self

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                st[0] += dt - child
                st[1] += dt
                st[2] += 1
                stack[-1] += dt
            c = tracer.counters
            if is_matmul:
                flops = 2 * result.data.size * np.shape(getattr(args[0], "data", args[0]))[-1]
                if result._tape is not None:
                    flops *= 3  # the backward runs two matmuls of the same size
                if tape_stack:
                    c.flops_taped += flops
                else:
                    c.flops_untaped += flops
            if tape_stack:
                c.ops_taped += 1
            else:
                c.ops_untaped += 1
            return result

        return wrapper

    def _wrap(self, layer: str, attr: str, fn):
        qualname = f"{layer}.{attr}"
        if layer == "numerics" and attr in NUMERIC_OPS:
            return self._op_span(qualname, fn, attr == "matmul")
        if layer == "numerics" and attr == "backward":
            return self._span(qualname, fn, before=self._before_backward)
        if layer == "model" and attr in MODEL_BLOCKS:
            return self._span(qualname, fn, before=self._tape_mark,
                              after=self._block_range(MODEL_BLOCKS[attr]))
        if layer == "model" and attr == "forward":
            return self._span(qualname, fn, after=self._count_forward)
        if layer == "spectral" and attr == "band_powers":
            return self._span(qualname, fn, before=self._before_band_powers)
        if layer == "signal_store" and attr == "recording_to_bytes":
            return self._span(qualname, fn, after=self._count_encoded)
        if layer == "signal_store" and attr == "recording_from_bytes":
            return self._span(qualname, fn, before=self._count_decoded)
        return self._span(qualname, fn)

    # -- counter hooks -----------------------------------------------------

    def _count_forward(self, _args, _result, _token) -> None:
        self.counters.forward_calls += 1

    def _count_encoded(self, _args, result, _token) -> None:
        self.counters.recording_bytes += len(result)

    def _count_decoded(self, args, kwargs) -> None:
        buf = args[0] if args else kwargs["buf"]
        self.counters.recording_bytes += len(buf)

    def _before_band_powers(self, args, kwargs) -> None:
        t0 = perf()
        grid = args[0] if args else kwargs["grid"]
        rows = np.ascontiguousarray(grid.patches).reshape(-1, grid.patches.shape[-1])
        c = self.counters
        c.patches += rows.shape[0]
        for row in rows:
            c.distinct_patches.add(hashlib.sha1(row.tobytes()).digest())
        self._book(perf() - t0)

    def _tape_mark(self, _args, _kwargs):
        stack = self._nm._tape_stack
        if not stack:
            return None
        return stack[-1], len(stack[-1].nodes)

    def _block_range(self, block: str):
        def after(_args, _result, token):
            if token is None:
                return
            tape, first = token
            end = len(tape.nodes)
            if end > first:
                self._ranges.setdefault(tape, []).append((first, end, block))

        return after

    def _before_backward(self, args, kwargs) -> None:
        t0 = perf()
        loss = args[0] if args else kwargs["loss"]
        tape = getattr(loss, "_tape", None)
        if tape is not None:
            nodes = tape.nodes[: loss._node_index + 1]
            c = self.counters
            c.backward_calls += 1
            c.tape_nodes += len(nodes)
            c.taped_bytes += taped_bytes(nodes, self._nm.Tensor)
            for first, end, block in self._ranges.pop(tape, ()):
                acc = self.block_bwd[block]
                for node in nodes[first:end]:
                    node.bwd = _timed(node.bwd, acc)
        self._book(perf() - t0)


def _timed(fn, acc: list):
    def timed(g):
        t0 = perf()
        result = fn(g)
        acc[0] += perf() - t0
        return result

    return timed
