"""Forward semantics, gradient fidelity, tape behaviour."""

import tracemalloc
import weakref

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import (finite_difference_gradients, log, matmul, mse, mul, nll_chain,
                     primitive_dropout, primitive_gelu, slice_, transpose)

import fome.numerics as nm
from fome.errors import ContractError, ShapeError
from fome.numerics import Tape, Tensor, backward
from fome.rng import Rng


def grad_check(build_loss, tensors, tol=1e-5):
    """Spec form: |analytic - FD| / (|FD| + 1e-12) < tol elementwise."""
    with Tape():
        loss = build_loss()
    backward(loss)
    fd = finite_difference_gradients(build_loss, tensors)
    worst = 0.0
    for tensor, ref in zip(tensors, fd):
        rel = np.abs(tensor.grad - ref) / (np.abs(ref) + 1e-12)
        worst = max(worst, float(rel.max()))
    assert worst < tol, f"worst relative gradient error {worst:.3e}"


class TestForwardSemantics:
    def test_softmax_uniform_on_zeros(self):
        out = nm.softmax(Tensor(np.zeros(4)))
        np.testing.assert_array_equal(out.data, np.full(4, 0.25))

    def test_softmax_rows_sum_to_one(self, rng):
        out = nm.softmax(Tensor(rng.standard_normal((5, 7))), axis=-1)
        assert np.all(out.data > 0)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_matmul_identity(self, rng):
        a = rng.standard_normal((3, 4))
        out = matmul(Tensor(np.eye(3)), Tensor(a))
        np.testing.assert_array_equal(out.data, a)

    def test_structural_round_trips(self, rng):
        x = rng.standard_normal((2, 3, 4))
        t = Tensor(x)
        assert np.array_equal(transpose(transpose(t)).data, x)
        assert np.array_equal(nm.reshape(nm.reshape(t, (6, 4)), (2, 3, 4)).data, x)
        both = Tensor(np.concatenate([x, x], axis=1))
        assert np.array_equal(slice_(both, (slice(None), slice(3, 6))).data, x)

    def test_mean_and_mse(self, rng):
        x = rng.standard_normal((4, 5))
        assert abs(nm.mean(Tensor(x)).data - x.mean()) < 1e-15
        assert mse(Tensor(x), Tensor(x.copy())).data == 0.0

    def test_embedding_lookup_rows(self, rng):
        table = rng.standard_normal((6, 3))
        out = nm.embedding_lookup(Tensor(table), np.array([4, 0, 4]))
        np.testing.assert_array_equal(out.data, table[[4, 0, 4]])

    def test_gelu_fixed_points(self):
        out = nm.gelu(Tensor(np.array([0.0, 100.0, -100.0])))
        np.testing.assert_allclose(out.data, [0.0, 100.0, 0.0], atol=1e-12)

    def test_gelu_matches_tanh_formula(self, rng):
        x = np.concatenate([rng.standard_normal(10_000), np.linspace(-30.0, 30.0, 6001)])
        got = nm.gelu(Tensor(x)).data
        ref = 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))
        np.testing.assert_allclose(got[x >= 0], ref[x >= 0], rtol=1e-14, atol=0)
        # for x < 0, 1 + tanh(u) cancels, so the error is bounded by |x|, not by |y|
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(x))

    def test_layer_norm_zero_mean_unit_var(self, rng):
        x = rng.standard_normal((3, 9)) * 4 + 2
        out = nm.affine_norm(Tensor(x), Tensor(np.ones(9)), Tensor(np.zeros(9)))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-3)

    def test_forward_is_deterministic(self, rng):
        x = rng.standard_normal((4, 6))
        a = nm.softmax(nm.gelu(Tensor(x)), axis=-1).data
        b = nm.softmax(nm.gelu(Tensor(x)), axis=-1).data
        assert np.array_equal(a, b)


class TestGradients:
    def test_every_op_matches_finite_differences(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        bias = Tensor(rng.standard_normal(5), requires_grad=True)
        gain = Tensor(rng.standard_normal(5), requires_grad=True)
        table = Tensor(rng.standard_normal((6, 5)), requires_grad=True)
        target = Tensor(rng.standard_normal((2, 5)))

        def loss():
            z = nm.add(matmul(a, b), bias)
            z = nm.gelu(z)
            z = nm.affine_norm(z, gain, bias)
            z = mul(z, nm.scale(z, 0.5))
            s = nm.softmax(z, axis=-1)
            rows = nm.embedding_lookup(table, np.array([1, 2, 5]))
            piece = slice_(nm.add(s, rows), (slice(1, 3), slice(None)))
            return mse(piece, target)

        grad_check(loss, [a, b, bias, gain, table])

    def test_log_and_mean_axis_gradients(self, rng):
        x = Tensor(np.abs(rng.standard_normal((4, 3))) + 0.5, requires_grad=True)

        def loss():
            return nm.mean(log(nm.mean(mul(x, x), axis=0)))

        grad_check(loss, [x])

    def test_softmax_matmul_gradients(self, rng):
        p = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        v = Tensor(rng.standard_normal((2, 4, 5)), requires_grad=True)
        target = Tensor(rng.standard_normal((2, 3, 5)))

        def loss():
            return mse(matmul(nm.softmax(p, axis=-1), v), target)

        grad_check(loss, [p, v])

    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
    @pytest.mark.parametrize("const_x", [False, True], ids=["taped-x", "constant-x"])
    def test_linear_gradients(self, rng, bias, const_x):
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=not const_x)
        w = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        b = Tensor(rng.standard_normal(5), requires_grad=True) if bias else None
        target = Tensor(rng.standard_normal((2, 3, 5)))

        def loss():
            return mse(nm.gelu(nm.linear(x, w, b)), target)

        grad_check(loss, [t for t in (x, w, b) if t is not None and t.requires_grad])
        if const_x:
            assert x.grad is None

    def test_affine_norm_gradients(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 6)) * 3 + 1, requires_grad=True)
        gain = Tensor(rng.standard_normal(6), requires_grad=True)
        bias = Tensor(rng.standard_normal(6), requires_grad=True)
        target = Tensor(rng.standard_normal((2, 3, 6)))

        def loss():
            return mse(nm.gelu(nm.affine_norm(x, gain, bias)), target)

        grad_check(loss, [x, gain, bias])

    @pytest.mark.parametrize("lead, heads, d_k, d_v", [
        ((), 1, 3, 3), ((2,), 1, 2, 4), ((2,), 3, 2, 2), ((2, 3), 2, 3, 1),
    ], ids=["one-head", "one-head-dk-ne-dv", "three-heads", "batched-dk-ne-dv"])
    def test_attention_gradients(self, rng, lead, heads, d_k, d_v):
        seq = 4
        q = Tensor(rng.standard_normal(lead + (seq, heads * d_k)), requires_grad=True)
        k = Tensor(rng.standard_normal(lead + (seq, heads * d_k)), requires_grad=True)
        v = Tensor(rng.standard_normal(lead + (seq, heads * d_v)), requires_grad=True)
        target = Tensor(rng.standard_normal(lead + (seq, heads * d_v)))

        def loss():
            return mse(nm.attention(q, k, v, heads, 0.7), target)

        grad_check(loss, [q, k, v])

    def test_attention_matches_per_head_formula(self, rng):
        heads, d_k, d_v = 2, 3, 4
        q, k = rng.standard_normal((2, 5, heads * d_k))
        v = rng.standard_normal((5, heads * d_v))
        out = nm.attention(Tensor(q), Tensor(k), Tensor(v), heads, 0.5).data
        for h in range(heads):
            qh, kh = q[:, h * d_k:(h + 1) * d_k], k[:, h * d_k:(h + 1) * d_k]
            scores = 0.5 * qh @ kh.T
            probs = np.exp(scores - scores.max(axis=-1, keepdims=True))
            probs /= probs.sum(axis=-1, keepdims=True)
            ref = probs @ v[:, h * d_v:(h + 1) * d_v]
            np.testing.assert_allclose(out[:, h * d_v:(h + 1) * d_v], ref, rtol=1e-12)

    @pytest.mark.parametrize("a_shape, b_shape, gate_shape", [
        ((2, 3, 4, 5), (1, 4, 5), (2, 3, 4, 1)),  # apply_mask's layout
        ((2, 3, 4, 5), (4, 1), (1, 3, 4, 1)),  # b * gate is smaller than the output
    ], ids=["mask-layout", "narrow-b"])
    def test_blend_is_the_mul_mul_add_chain_bitwise(self, rng, a_shape, b_shape, gate_shape):
        a_data, b_data = rng.standard_normal(a_shape), rng.standard_normal(b_shape)
        gate = (rng.uniform(size=gate_shape) < 0.4).astype(np.float64)
        weights = Tensor(rng.standard_normal(a_shape))
        runs = []
        for fused in (True, False):
            a, b = Tensor(a_data, requires_grad=True), Tensor(b_data, requires_grad=True)
            with Tape():
                x, y = nm.scale(a, 1.5), nm.scale(b, -0.5)  # intermediates, as in the model
                if fused:
                    out = nm.blend(x, y, gate)
                else:
                    out = nm.add(mul(x, Tensor(1.0 - gate)), mul(y, Tensor(gate)))
                loss = nm.mean(mul(out, weights))
            backward(loss)
            runs.append((out.data.tobytes(), a.grad.tobytes(), b.grad.tobytes()))
        assert runs[0] == runs[1]

    def test_broadcast_add_mul_gradients(self, rng):
        a = Tensor(rng.standard_normal((3, 1, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        g = Tensor(rng.standard_normal(4), requires_grad=True)
        target = Tensor(rng.standard_normal((3, 5, 4)))

        def loss():
            return mse(mul(nm.add(a, b), g), target)

        grad_check(loss, [a, b, g])


    def test_matmul_weight_gradient_folds_leading_axes(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 4, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((5, 6)), requires_grad=True)
        g = rng.standard_normal((2, 3, 4, 6))
        with Tape():
            loss = nm.mean(mul(matmul(a, w), Tensor(g)))
        backward(loss)
        g = g / g.size
        ref_w = (np.swapaxes(a.data, -1, -2) @ g).sum(axis=(0, 1))
        assert np.max(np.abs(w.grad - ref_w) / (np.abs(ref_w) + 1e-12)) < 1e-12
        np.testing.assert_allclose(a.grad, g @ w.data.T, rtol=1e-12)

    @pytest.mark.parametrize("op", [mul, matmul, mse], ids=["mul", "matmul", "mse"])
    def test_constant_inputs_get_no_gradient(self, rng, op):
        x = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        const = Tensor(rng.standard_normal((3, 3)))
        for args, wanted in (((x, const), [False, True]), ((const, x), [True, False])):
            with Tape() as tape:
                out = op(*args)
            grads = tape.nodes[-1].bwd(np.ones(out.shape))
            assert [g is None for g in grads] == wanted

    @pytest.mark.parametrize("indices", [np.array([[1, 0, 2], [5, 3, 4]]),
                                         np.array([4, 0, 4, 1, 0])])
    def test_embedding_lookup_gradient_matches_add_at(self, rng, indices):
        table = Tensor(rng.standard_normal((6, 2, 3)), requires_grad=True)
        g = rng.standard_normal(indices.shape + (2, 3))
        g.flat[::4] = -0.0
        with Tape() as tape:
            nm.embedding_lookup(table, indices)
        (got,) = tape.nodes[-1].bwd(g)
        ref = np.zeros_like(table.data)
        np.add.at(ref, indices, g)
        assert got.tobytes() == ref.tobytes()


def _chain_and_fused(fused, chain, leaves, weights):
    """Output bytes and leaf gradient bytes of `fused` and of `chain`, each
    applied to scaled copies of the leaf arrays (intermediates, as in the
    model) under a tape, with the loss `mean(out * weights)` (or `out`
    itself when it is a scalar)."""
    runs = []
    for build in (fused, chain):
        tensors = [Tensor(a.copy(), requires_grad=True) for a in leaves]
        with Tape():
            out = build(*[nm.scale(t, 1.5) for t in tensors])
            loss = out if out.size == 1 else nm.mean(mul(out, Tensor(weights)))
        backward(loss)
        runs.append((out.data.tobytes(), out.data.strides,
                     [t.grad.tobytes() for t in tensors]))
    return runs


class TestMemoryKernels:
    """`linear_mse`, `gelu`, `dropout`, `gather_swap` and `nll` hold the
    primitive chains they replace to the bit, and keep only what their
    backward reads."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_nll_is_the_pick_log_mean_scale_chain_bitwise(self, data):
        n, k = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 5))
        logits = data.draw(hnp.arrays(np.float64, (n, k), elements=st.floats(-30, 30)))
        labels = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)))
        factor = data.draw(st.floats(1e-3, 4.0))  # the adjoint the loss receives
        runs = []
        for loss_of in (nm.nll, nll_chain):
            x = Tensor(logits.copy(), requires_grad=True)
            with Tape() as tape:
                out = loss_of(nm.softmax(nm.scale(x, 1.5)), labels)
                loss = nm.scale(out, factor)
            runs.append(len(tape.nodes))
            backward(loss)
            runs += [out.data.tobytes(), x.grad.tobytes()]
        assert runs[0] + 3 == runs[3]  # one node in place of four
        assert runs[1:3] == runs[4:6]

    def test_nll_gradient_matches_finite_differences(self, rng):
        x = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        grad_check(lambda: nm.nll(nm.softmax(x), np.array([0, 2, 1, 1, 0])), [x])

    @pytest.mark.parametrize("x_shape, rows", [
        ((6, 4), None), ((6, 4), np.array([7, 0, 3, 9, 2, 5])),
        ((2, 3, 2, 4), None), ((2, 3, 2, 4), np.array([[1, 4, 0], [6, 2, 3]])),
    ], ids=["2d", "2d-rows", "4d", "4d-rows"])
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
    def test_linear_mse_is_the_mse_linear_chain_bitwise(self, rng, x_shape, rows, bias):
        lead = x_shape[:-1] if rows is None else (10,) + x_shape[rows.ndim:-1]
        target = rng.standard_normal(lead + (5,))
        leaves = [rng.standard_normal(x_shape), rng.standard_normal((4, 5))]
        leaves += [rng.standard_normal(5)] if bias else []
        picked = target if rows is None else target[rows]

        def fused(x, w, b=None):
            return nm.linear_mse(x, w, b, target, rows)

        def chain(x, w, b=None):
            return mse(nm.linear(x, w, b), Tensor(picked))

        runs = _chain_and_fused(fused, chain, leaves, None)
        assert runs[0] == runs[1]

    def test_linear_mse_shapes(self):
        x, w = Tensor(np.zeros((3, 4))), Tensor(np.zeros((4, 5)))
        with pytest.raises(ShapeError, match=r"linear_mse: prediction \(3, 5\)"):
            nm.linear_mse(x, w, None, np.zeros((4, 5)))
        with pytest.raises(ShapeError, match="linear_mse: inner dims"):
            nm.linear_mse(x, Tensor(np.zeros((3, 5))), None, np.zeros((3, 5)))

    def test_gelu_is_the_backward_derivative_node_bitwise(self, rng):
        x = rng.standard_normal((3, 4, 5)) * 3
        runs = _chain_and_fused(nm.gelu, primitive_gelu, [x], rng.standard_normal(x.shape))
        assert runs[0] == runs[1]
        assert nm.gelu(Tensor(x * 1.5)).data.tobytes() == runs[0][0]  # untaped

    @pytest.mark.parametrize("p", [0.1, 0.5])
    def test_dropout_is_the_float_mask_mul_bitwise(self, rng, p):
        x = rng.standard_normal((3, 4, 5))
        keep = (Rng(7).uniforms(x.size) >= p).reshape(x.shape)
        runs = _chain_and_fused(lambda t: nm.dropout(t, keep, p),
                                lambda t: primitive_dropout(t, p, Rng(7)),
                                [x], rng.standard_normal(x.shape))
        assert runs[0] == runs[1]

    def test_dropout_needs_a_boolean_mask_of_the_input_shape(self):
        x = Tensor(np.zeros((2, 3)))
        for keep in (np.ones((2, 3)), np.ones((3,), dtype=bool)):
            with pytest.raises(ShapeError, match="dropout"):
                nm.dropout(x, keep, 0.1)

    @pytest.mark.parametrize("lead", [(), (2,)], ids=["sample", "stack"])
    @pytest.mark.parametrize("swap_first", [False, True], ids=["gather-swap", "swap-gather"])
    def test_gather_swap_is_the_reshape_lookup_transpose_chain_bitwise(self, rng, lead,
                                                                        swap_first):
        c, p, d = 4, 3, 5
        orders = np.stack([rng.permutation(c) for _ in range(max(1, math.prod(lead)))])
        rows = (np.arange(0, orders.size, c)[:, None] + orders).reshape(lead + (c,))
        shape = lead + ((p, c, d) if swap_first else (c, p, d))
        weights = rng.standard_normal(lead + ((c, p, d) if swap_first else (p, c, d)))
        weights.flat[::4] = -0.0  # adjoints of -0.0, which `0.0 + g` turns to 0.0

        def chain(x):
            if swap_first:
                x = transpose(x, -3, -2)
            out = nm.embedding_lookup(nm.reshape(x, (-1, x.shape[-2], d)), rows)
            return out if swap_first else transpose(out, -3, -2)

        runs = _chain_and_fused(lambda x: nm.gather_swap(x, rows, swap_first), chain,
                                [rng.standard_normal(shape)], weights)
        assert runs[0] == runs[1]

    @staticmethod
    def _held_bytes(build) -> int:
        """Bytes that stay allocated after `build()` runs under a tape and
        its outputs are dropped: what the tape's nodes keep."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                build()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert tape.nodes
        return held

    def test_linear_mse_allocates_at_most_two_prediction_buffers(self, rng):
        # the pretrain-desk loss: 456 masked rows of D = 64 against L = 1500
        n, d, length = 456, 64, 1500
        rows = np.sort(rng.choice(4 * 19 * 15, size=n, replace=False))
        target = rng.standard_normal((4 * 19 * 15, length))
        x = Tensor(rng.standard_normal((n, d)), requires_grad=True)
        w = Tensor(rng.standard_normal((d, length)) * 0.1, requires_grad=True)
        b = Tensor(np.zeros(length), requires_grad=True)
        buffer = n * length * 8
        for picked, index in ((target, rows), (target[rows], None)):
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                with Tape():
                    loss = nm.linear_mse(x, w, b, picked, index)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak - before <= 2 * buffer + 65536
            assert current - before <= buffer + 65536  # the difference alone is kept
            backward(loss)

    def test_taped_gelu_keeps_one_array_of_its_input_size(self, rng):
        x = Tensor(rng.standard_normal((200, 300)), requires_grad=True)
        held = self._held_bytes(lambda: nm.gelu(nm.scale(x, 1.0)))
        assert x.data.nbytes <= held < x.data.nbytes + 65536

    def test_dropout_keeps_a_boolean_mask(self, rng):
        x = Tensor(rng.standard_normal((200, 300)), requires_grad=True)
        keep = rng.uniform(size=x.shape) >= 0.1
        held = self._held_bytes(lambda: nm.dropout(nm.scale(x, 1.0), keep.copy(), 0.1))
        assert keep.nbytes <= held < keep.nbytes + 65536


class TestSkippedRows:
    """`linear(..., skip=...)` runs the product on the kept rows only, each
    bitwise as in the full product, and never reads a skipped row."""

    # (leading axes, trailing axes of x, output width, share of entries skipped)
    CASES = [
        ((4, 19, 10), (1500,), 64, 0.4),  # (10, 1500) calls: a small-matrix kernel's size
        ((2, 19, 15), (1500,), 64, 0.97),  # a few kept rows of (15, 1500) calls
        ((3, 5), (8,), 8, 0.8),
        ((6,), (8,), 8, 0.5),
        ((2, 3), (2, 4), 8, 0.5),  # whole (2, 4) matrices per entry: the convolutional form
        ((2, 3), (4,), 5, 1.0),
    ]

    @staticmethod
    def _case(lead, inner, width, share, seed):
        gen = np.random.default_rng(seed)
        skip = gen.random(lead) < share
        return (skip, gen.standard_normal(lead + inner), gen.standard_normal((inner[-1], width)),
                gen.standard_normal(width))

    @pytest.mark.parametrize("lead, inner, width, share", CASES)
    def test_kept_rows_are_the_full_product_and_skipped_rows_unread(self, lead, inner, width,
                                                                     share):
        skip, x, w, b = self._case(lead, inner, width, share, seed=len(lead) + width)
        full = nm.linear(Tensor(x), Tensor(w), Tensor(b)).data
        poisoned = np.where(skip.reshape(lead + (1,) * len(inner)), np.nan, x)
        out = nm.linear(Tensor(poisoned), Tensor(w), Tensor(b), skip=skip).data
        assert out[~skip].tobytes() == full[~skip].tobytes()
        assert out[skip].tobytes() == np.broadcast_to(b, out[skip].shape).tobytes()

    @pytest.mark.parametrize("lead, inner, width, share", CASES)
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
    def test_gradients_are_the_full_row_chain_with_skipped_rows_replaced(
            self, lead, inner, width, share, bias):
        skip, x, w, b = self._case(lead, inner, width, share, seed=width)
        gate = skip.reshape(lead + (1,) * len(inner)).astype(np.float64)
        weights = np.random.default_rng(1).standard_normal(lead + inner[:-1] + (width,))
        leaves = [x, w] + ([b] if bias else [])

        def fused(x, w, b=None):
            return nm.linear(x, w, b, skip=skip)

        def chain(x, w, b=None):
            # the product with its skipped rows zeroed, then the bias on every row
            kept = nm.blend(nm.linear(x, w), Tensor(np.zeros(weights.shape)), gate)
            return kept if b is None else nm.add(kept, b)

        runs = _chain_and_fused(fused, chain, leaves, weights)
        assert runs[0] == runs[1]

    def test_bias_gradient_reads_the_skipped_rows(self, rng):
        # a skipped row outputs the bias, so the bias gradient sums every row
        skip = np.array([[True, False, False], [False, True, True]])
        x, w, b = (Tensor(rng.standard_normal(shape), requires_grad=True)
                   for shape in ((2, 3, 4), (4, 5), (5,)))
        weights = Tensor(rng.standard_normal((2, 3, 5)))
        grad_check(lambda: nm.mean(mul(nm.linear(x, w, b, skip=skip), weights)), [x, w, b])

    @pytest.mark.parametrize("skip", [np.zeros((2, 3), dtype=int), np.zeros((3, 2), dtype=bool),
                                      np.zeros((2, 3, 4), dtype=bool)],
                             ids=["not-boolean", "shape", "rank"])
    def test_skip_shapes(self, skip):
        with pytest.raises(ShapeError, match="linear: skip"):
            nm.linear(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((4, 5))), skip=skip)


class TestDispatch:
    def test_unbroadcast_returns_matching_gradient_itself(self, rng):
        g = rng.standard_normal((2, 3))
        assert nm._unbroadcast(g, (2, 3)) is g
        np.testing.assert_array_equal(nm._unbroadcast(g, (1, 3)), g.sum(axis=0, keepdims=True))
        np.testing.assert_array_equal(nm._unbroadcast(g, (3,)), g.sum(axis=0))


class TestBackward:
    def test_sum_like_loss_gives_ones(self):
        p = Tensor(np.ones((2, 3)), requires_grad=True)
        with Tape():
            loss = nm.scale(nm.mean(p), 6.0)
        backward(loss)
        np.testing.assert_array_equal(p.grad, np.ones((2, 3)))

    def test_repeated_backward_doubles(self, rng):
        w = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        losses = []
        for _ in range(2):  # the same loss on two tapes, from the same leaf
            with Tape():
                losses.append(mse(matmul(w, w), Tensor(np.zeros((3, 3)))))
        backward(losses[0])
        first = w.grad.copy()
        backward(losses[1])
        assert np.array_equal(w.grad, 2.0 * first)
        with pytest.raises(ContractError):
            backward(losses[1])  # backward consumed that tape
        assert np.array_equal(w.grad, 2.0 * first)

    def test_non_scalar_loss_rejected(self):
        t = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ContractError):
            backward(t)

    def test_loss_without_tape_rejected(self):
        p = Tensor(np.ones(2), requires_grad=True)
        loss = nm.mean(p)  # no active tape
        with pytest.raises(ContractError):
            backward(loss)

    def test_constant_loss_rejected(self):
        with Tape():
            loss = nm.mean(Tensor(np.ones(2)))
        with pytest.raises(ContractError):
            backward(loss)

    def test_grads_reach_only_participants(self, rng):
        used = Tensor(rng.standard_normal(4), requires_grad=True)
        unused = Tensor(rng.standard_normal(4), requires_grad=True)
        with Tape():
            loss = nm.mean(mul(used, used))
        backward(loss)
        assert used.grad is not None
        assert unused.grad is None

    def test_fan_in_grads_only_on_leaves_and_bitwise(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        c = rng.standard_normal((3, 4))
        with Tape():
            h = matmul(x, w)  # h feeds three consumers, x two
            twice, weighted = nm.scale(h, 2.0), mul(h, Tensor(c))
            partial = nm.add(twice, weighted)
            halved = nm.scale(h, -0.5)
            s = nm.add(partial, halved)
            total = nm.add(s, x)
            loss = nm.mean(total)
        backward(loss)
        assert all(t.grad is None for t in (h, twice, weighted, partial, halved, s, total, loss))
        g = np.full((3, 4), 1.0) / 12.0
        gh = g * -0.5 + g * c + g * 2.0  # reverse execution order of h's consumers
        assert x.grad.tobytes() == (g + gh @ w.data.T).tobytes()
        assert w.grad.tobytes() == (x.data.T @ gh).tobytes()

    def test_tape_frees_what_no_backward_reads(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        gain = Tensor(np.ones(4), requires_grad=True)
        bias = Tensor(np.zeros(4), requires_grad=True)
        with Tape() as tape:
            h = nm.linear(x, w)
            s = nm.add(h, x)  # reads neither operand
            n = nm.affine_norm(s, gain, bias)  # keeps its normalised rows, not s
            a = nm.gelu(n)  # keeps its derivative, not n
            target = Tensor(rng.standard_normal((3, 4)))
            loss = mse(a, target)  # keeps the difference only
        unread = [weakref.ref(t.data) for t in (h, s, n, a, target)]
        cells = [cell.cell_contents for cell in tape.nodes[3].bwd.__closure__]
        assert [c.shape for c in cells if isinstance(c, np.ndarray)] == [n.shape]
        read = weakref.ref(cells[0])
        del h, s, n, a, target, cells
        assert [r() is None for r in unread] == [True] * 5
        assert read() is not None
        backward(loss)
        assert read() is None
        assert tape.nodes == []
        assert all(t.grad is not None for t in (x, w, gain, bias))

    def test_shared_adjoint_is_not_summed_into(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        y = Tensor(np.array([0.5, 0.25, -1.0]), requires_grad=True)
        with Tape():
            twice = nm.scale(x, 2.0)
            both = nm.add(x, y)  # hands x and y one adjoint array
            loss = nm.mean(nm.add(both, twice))  # x's second consumer runs last
        backward(loss)
        g = np.ones(3) / 3.0
        assert y.grad.tobytes() == g.tobytes()
        assert x.grad.tobytes() == (g + g * 2.0).tobytes()


class TestShapeErrors:
    def test_add_names_shapes(self):
        with pytest.raises(ShapeError, match=r"add.*\(2, 3\).*\(4, 5\)"):
            nm.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    def test_matmul_inner_dims(self):
        with pytest.raises(ShapeError, match="matmul"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    def test_reshape_size(self):
        with pytest.raises(ShapeError, match="reshape"):
            nm.reshape(Tensor(np.zeros((2, 3))), (7,))

    def test_mse_shapes(self):
        with pytest.raises(ShapeError, match="mse"):
            mse(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    def test_matmul_batch_dims(self):
        with pytest.raises(ShapeError, match="matmul: batch dims differ"):
            matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5))))

    def test_mul_names_shapes(self):
        with pytest.raises(ShapeError, match=r"mul: cannot broadcast \(2, 3\) with \(3, 2\)"):
            mul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))

    def test_matmul_inner_dims_named_in_a_batch(self):
        message = r"matmul: inner dims differ, \(2, 3, 4\) @ \(2, 5, 4\)"
        with pytest.raises(ShapeError, match=message):
            matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 5, 4))))

    @pytest.mark.parametrize("x, w, b", [
        ((2, 3), (4, 5), None), ((2, 3), (3, 5, 1), None), ((3,), (3, 5), None),
        ((2, 3), (3, 5), (4,)),
    ], ids=["inner", "weight-rank", "input-rank", "bias"])
    def test_linear_shapes(self, x, w, b):
        bias = None if b is None else Tensor(np.zeros(b))
        with pytest.raises(ShapeError, match="linear"):
            nm.linear(Tensor(np.zeros(x)), Tensor(np.zeros(w)), bias)

    def test_affine_norm_shapes(self):
        with pytest.raises(ShapeError, match="affine_norm"):
            nm.affine_norm(Tensor(np.zeros((2, 3))), Tensor(np.ones(2)), Tensor(np.zeros(3)))

    @pytest.mark.parametrize("q, k, v, heads", [
        ((4, 6), (4, 6), (4, 5), 2), ((4, 6), (4, 4), (4, 6), 2), ((4, 6), (4, 6), (3, 6), 2),
        ((4, 6), (4, 6), (4, 6), 4), ((6,), (6,), (6,), 1),
    ], ids=["dv-split", "k-shape", "v-seq", "dk-split", "rank"])
    def test_attention_shapes(self, q, k, v, heads):
        with pytest.raises(ShapeError, match="attention"):
            nm.attention(Tensor(np.zeros(q)), Tensor(np.zeros(k)), Tensor(np.zeros(v)), heads, 1.0)

