"""Schedule, optimizer, masking, training loops, and metrics."""

import gc
import math

import numpy as np
import pytest

from oracles import (adamw_loop_oracle, adamw_scalar, fbeta_closed_form, impute_report_oracle,
                     mean_imputation, mse, mul, nll_chain)

from fome import model, trainer
from fome.errors import ConfigError, DataError, TrainError
from fome.model import ModelConfig, ParameterStore, preset
import fome.numerics as nm
from fome.numerics import Tensor
from fome.preprocess import PatchGrid
from fome.rng import Rng
from fome.spectral import band_powers
from fome.trainer import (
    AdamW,
    MetricsReport,
    TrainConfig,
    classification_metrics,
    evaluate_impute,
    fbeta,
    finetune_classify,
    forecast_samples_from_grid,
    lr_at,
    make_impute_samples,
    make_mask_plan,
    persistence_forecast,
    pretrain,
    regression_metrics,
    scale_schedule,
    split_blocks,
)


class TestSchedule:
    def test_published_endpoints_exact(self):
        cfg = TrainConfig()
        assert lr_at(0, cfg) == 2e-6
        assert lr_at(10_960, cfg) == 5e-5
        assert lr_at(1_096_000, cfg) == 5e-9

    def test_clamped_beyond_total(self):
        cfg = TrainConfig()
        assert lr_at(2_000_000, cfg) == cfg.lr_final

    def test_continuous_at_warmup_boundary(self):
        cfg = TrainConfig()
        left = lr_at(cfg.warmup_steps, cfg)
        just_after = cfg.lr_final + (cfg.lr_peak - cfg.lr_final) * 0.5 * (
            1.0 + math.cos(math.pi * 1e-9)
        )
        assert abs(left - cfg.lr_peak) < 1e-12
        assert abs(just_after - cfg.lr_peak) < 1e-12

    def test_warmup_is_linear(self):
        cfg = TrainConfig()
        half = lr_at(cfg.warmup_steps // 2, cfg)
        expected = cfg.lr_init + (cfg.lr_peak - cfg.lr_init) * (
            (cfg.warmup_steps // 2) / cfg.warmup_steps
        )
        assert abs(half - expected) < 1e-18

    def test_decay_is_monotone(self):
        cfg = TrainConfig()
        steps = np.linspace(cfg.warmup_steps, cfg.total_steps, 50, dtype=int)
        values = [lr_at(int(s), cfg) for s in steps]
        assert all(a >= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("field, value", [
        ("checkpoint_every", 0), ("lr_init", -1e-6), ("lr_init", math.inf),
        ("lr_peak", math.nan), ("lr_peak", math.inf), ("lr_peak", -1.0), ("lr_peak", 0.0),
        ("lr_final", math.nan), ("lr_final", -1e-9),
    ])
    def test_out_of_range_field_is_named(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            TrainConfig(**{field: value})

    def test_scale_schedule_keeps_ratio(self):
        cfg = scale_schedule(TrainConfig(), 2000)
        assert cfg.total_steps == 2000
        assert cfg.warmup_steps == 20  # 1% of total, as in the full recipe
        with pytest.raises(ConfigError):
            scale_schedule(TrainConfig(), 1)


class TestAdamW:
    # beta1, beta2, eps and weight decay, in `adamw_scalar`'s order
    CONSTANTS = (trainer.BETA1, trainer.BETA2, trainer.ADAM_EPS, trainer.WEIGHT_DECAY)

    def test_constants_are_the_recipe(self):
        assert self.CONSTANTS == (0.9, 0.99, 1e-6, 0.01)

    def test_single_step_matches_scalar_oracle(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([1.0])
        opt = AdamW({"p": p})
        opt.step(0.1)
        expected, _, _ = adamw_scalar(1.0, 1.0, 0.1, *self.CONSTANTS)
        assert abs(p.data[0] - expected) < 1e-12

    def test_two_steps_match_scalar_oracle(self):
        p = Tensor(np.array([0.5]), requires_grad=True)
        opt = AdamW({"p": p})
        ref_p, m, v = 0.5, 0.0, 0.0
        for t, g in enumerate([0.3, -0.7], start=1):
            p.grad = np.array([g])
            opt.step(0.05)
            ref_p, m, v = adamw_scalar(ref_p, g, 0.05, *self.CONSTANTS, m, v, t)
        assert abs(p.data[0] - ref_p) < 1e-12

    def test_pure_decay(self):
        # a zero gradient on zero moments leaves only the decay
        p = Tensor(np.array([2.0, -1.0]), requires_grad=True)
        p.grad = np.zeros(2)
        opt = AdamW({"p": p})
        opt.step(0.1)
        decayed = np.array([2.0, -1.0]) * (1.0 - 0.1 * trainer.WEIGHT_DECAY)
        np.testing.assert_array_equal(p.data, decayed)

    def test_nonfinite_gradient_named(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([np.nan])
        opt = AdamW({"layer.weight": p})
        with pytest.raises(TrainError, match="layer.weight"):
            opt.step(0.1)

    def test_grads_cleared_after_step(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([0.5])
        opt = AdamW({"p": p})
        opt.step(0.1)
        assert p.grad is None

    @staticmethod
    def mixed_store(seed):
        """Tensors of mixed shapes, one of them left without a gradient."""
        gen = np.random.default_rng(seed)
        shapes = {"a": (3, 4), "b": (5,), "c": (), "d": (2, 3, 2), "e": (4, 1)}
        return {name: Tensor(gen.standard_normal(shape), requires_grad=True)
                for name, shape in shapes.items()}

    def test_one_pass_is_the_per_tensor_loop_bitwise(self):
        named, reference = self.mixed_store(1), self.mixed_store(1)
        moments = {k: (np.zeros(t.shape), np.zeros(t.shape)) for k, t in reference.items()}
        opt = AdamW(named)
        gen = np.random.default_rng(2)
        for t, lr in enumerate([0.1, 0.05, 0.2, 1e-3, 0.3], start=1):
            for name in named:
                grad = None if name == "c" else gen.standard_normal(named[name].shape) * t
                named[name].grad = grad
                reference[name].grad = None if grad is None else grad.copy()
            opt.step(lr)
            adamw_loop_oracle(reference, moments, t, lr)
            for name in named:
                assert named[name].data.tobytes() == reference[name].data.tobytes(), name
                assert named[name].grad is None and reference[name].grad is None
        assert opt.t == 5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_changes_nothing(self, bad):
        named = self.mixed_store(3)
        opt = AdamW(named)
        for name, tensor in named.items():
            tensor.grad = np.ones(tensor.shape)
        opt.step(0.1)  # moments away from zero
        for name, tensor in named.items():
            tensor.grad = None if name == "a" else np.full(tensor.shape, 0.5)
        named["d"].grad[1, 2, 0] = bad
        named["e"].grad[0, 0] = np.nan
        before = {name: t.data.tobytes() for name, t in named.items()}
        moments = (opt._m.tobytes(), opt._v.tobytes())
        with pytest.raises(TrainError, match="parameter 'd'"):
            opt.step(0.1)
        assert {name: t.data.tobytes() for name, t in named.items()} == before
        assert (opt._m.tobytes(), opt._v.tobytes()) == moments
        assert opt.t == 1


class TestMaskPlan:
    def test_exact_count_and_uniqueness(self):
        plan = make_mask_plan(4, 15, 0.40, Rng(3))
        assert plan.shape == (4, 15) and plan.dtype == bool
        assert int(plan.sum()) == 24

    def test_column_mode_masks_whole_columns(self):
        plan = make_mask_plan(3, 10, 0.40, Rng(5), mode="column")
        assert int(plan.sum()) == 12  # round(0.4 * 10) = 4 columns x 3 channels
        columns = np.flatnonzero(plan.any(axis=0))
        assert len(columns) == 4
        assert plan[:, columns].all()

    def test_stream_determinism(self):
        a = make_mask_plan(4, 15, 0.4, Rng(9))
        b = make_mask_plan(4, 15, 0.4, Rng(9))
        c = make_mask_plan(4, 15, 0.4, Rng(10))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_slot_draws_are_pinned(self):
        plan = make_mask_plan(4, 15, 0.40, Rng(3))
        assert np.flatnonzero(plan).tolist() == [
            2, 6, 10, 11, 15, 16, 18, 20, 25, 30, 31, 33, 34, 35, 36, 38, 41, 42, 44, 47, 48,
            51, 53, 54,
        ]

    def test_column_draws_are_pinned(self):
        plan = make_mask_plan(3, 10, 0.40, Rng(5), mode="column")
        assert np.flatnonzero(plan.any(axis=0)).tolist() == [0, 5, 8, 9]

    def test_ratio_bounds(self):
        with pytest.raises(ConfigError):
            make_mask_plan(2, 5, 0.0, Rng(0))
        with pytest.raises(ConfigError):
            make_mask_plan(2, 5, 1.0, Rng(0))

    def test_slot_count_rounds_ratio_times_channels_times_patches_in_that_order(self):
        # (0.03 * 15) * 30 = 13.499999999999998, while 0.03 * (15 * 30) = 13.5
        assert int(make_mask_plan(15, 30, 0.03, Rng(1)).sum()) == 13

    @pytest.mark.parametrize("mode", ["slot", "column"])
    def test_one_draw_per_batch_is_the_per_sample_draws(self, mode):
        shapes = [(2, 15), (3, 7), (2, 15), (3, 7), (3, 7), (2, 15)]
        batched, single = Rng(12), Rng(12)
        batched.raw(5)  # both streams mid-way, at one count
        single.raw(5)
        masks = trainer._mask_plans(shapes, 0.4, batched, mode)
        for mask, (c, p) in zip(masks, shapes):
            assert mask.tobytes() == make_mask_plan(c, p, 0.4, single, mode).tobytes()
        assert batched.raw(1).tobytes() == single.raw(1).tobytes()  # same end count

    @pytest.mark.parametrize("n, k", [(3, 4), (3, -1)])
    def test_impossible_draw_is_config_error(self, n, k):
        with pytest.raises(ConfigError, match=f"cannot draw {k} from {n}"):
            Rng(0).sample_without_replacement(n, k)


class TestMetrics:
    def test_perfect_binary_confusion(self):
        report = classification_metrics([0] * 5 + [1] * 5, [0] * 5 + [1] * 5, 2)
        assert report.confusion == [[5, 0], [0, 5]]
        for value in (report.accuracy, report.precision, report.recall,
                      report.f1, report.f2):
            assert value == 1.0

    def test_textbook_binary_counts(self):
        # TP=2, FP=1, FN=2, TN=5 for class 1
        labels = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
        preds = [1, 1, 0, 0, 1, 0, 0, 0, 0, 0]
        report = classification_metrics(preds, labels, 2)
        row = report.per_class["1"]
        assert abs(row["precision"] - 2 / 3) < 1e-12
        assert abs(row["recall"] - 0.5) < 1e-12
        assert abs(row["f1"] - fbeta_closed_form(2, 1, 2, 1.0)) < 1e-12
        assert abs(row["f2"] - fbeta_closed_form(2, 1, 2, 2.0)) < 1e-12
        assert abs(row["f1"] - 0.5714285714285715) < 1e-12
        assert abs(row["f2"] - 0.5263157894736842) < 1e-12

    def test_fbeta_against_closed_form_sweep(self, rng):
        for _ in range(50):
            tp, fp, fn = rng.integers(1, 30, size=3)
            p = tp / (tp + fp)
            r = tp / (tp + fn)
            for beta in (1.0, 2.0):
                assert abs(fbeta(p, r, beta) - fbeta_closed_form(tp, fp, fn, beta)) < 1e-12

    def test_micro_accuracy_is_trace_over_total(self, rng):
        preds = rng.integers(0, 3, size=60)
        labels = rng.integers(0, 3, size=60)
        report = classification_metrics(preds, labels, 3)
        confusion = np.array(report.confusion)
        assert report.accuracy == np.trace(confusion) / 60
        for value in (report.precision, report.recall, report.f1, report.f2):
            assert 0.0 <= value <= 1.0

    def test_single_class_degenerate(self):
        report = classification_metrics([0, 0, 0], [0, 0, 0], 2)
        assert report.accuracy == 1.0
        assert report.f1 == 1.0 and report.f2 == 1.0

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            classification_metrics([0, 1], [0, 2], 2)

    @pytest.mark.parametrize("preds, labels, n_classes", [
        ([1_000_000, 0], [0, 0], 1_000_001),
        ([1, 0], [0, 0], 4097),
    ], ids=["inferred", "explicit"])
    def test_huge_class_count_refused_before_allocating(self, monkeypatch, preds, labels,
                                                        n_classes):
        def no_zeros(*args, **kwargs):
            raise AssertionError("allocated a confusion matrix")

        monkeypatch.setattr(trainer.np, "zeros", no_zeros)
        with pytest.raises(DataError, match=f"^{n_classes} classes"):
            classification_metrics(preds, labels, n_classes)

    @pytest.mark.parametrize("shape", [(), (1,), (40,), (6, 7)])
    def test_regression_errors_equal_plain_formula_bitwise(self, rng, shape):
        preds, targets = 3.0 * rng.standard_normal(shape), rng.standard_normal(shape)
        report = regression_metrics(preds, targets)
        diff = preds - targets
        assert (report.mae, report.mse) == (float(np.mean(np.abs(diff))),
                                            float(np.mean(diff**2)))

    def test_regression_zero_on_equal(self, rng):
        x = rng.standard_normal(40)
        report = regression_metrics(x, x.copy())
        assert report.mae == 0.0 and report.mse == 0.0

    @pytest.mark.parametrize("score", [
        lambda: regression_metrics([], []),
        lambda: classification_metrics([], [], 2),
    ], ids=["regression", "classification"])
    def test_empty_set_is_data_error(self, score):
        with pytest.raises(DataError):
            score()

    def test_report_json_drops_missing_fields(self):
        report = MetricsReport(task="regression", mae=0.5, mse=1.0)
        text = report.to_json()
        assert '"mae"' in text and '"confusion"' not in text


class TestSplits:
    def test_six_two_two(self):
        train, val, test = split_blocks(10)
        assert (len(train), len(val), len(test)) == (6, 2, 2)
        assert list(train) + list(val) + list(test) == list(range(10))

    def test_contiguity(self):
        train, val, test = split_blocks(23)
        assert train.stop == val.start and val.stop == test.start


def tiny_corpus(n=6, channels=2, patches=5, length=8, seed=0):
    gen = Rng(seed)
    out = []
    t = np.arange(patches * length) / 250.0
    for i in range(n):
        phase = float(gen.uniforms(1)[0]) * 2 * np.pi
        x = np.sin(2 * np.pi * 20.0 * t + phase)
        sig = np.stack([x, 0.5 * x]) + 0.05 * gen.normals(channels * patches * length).reshape(channels, -1)
        out.append(PatchGrid(sig.reshape(channels, patches, length), length, 250.0))
    return out


def flat_lr_config(**kw):
    fields = dict(batch_size=2, grad_accum=1, seed=11, lr_init=1e-3, lr_peak=1e-3,
                  lr_final=1e-3, warmup_steps=1, total_steps=100)
    fields.update(kw)
    return TrainConfig(**fields)


class TestPretrain:
    def test_empty_corpus_rejected(self):
        cfg = preset("tiny")
        params = ParameterStore.initialize(cfg, seed=0)
        with pytest.raises(ConfigError):
            pretrain([], params, cfg, TrainConfig(), steps=1)

    def test_zero_steps_rejected(self):
        cfg = preset("tiny")
        params = ParameterStore.initialize(cfg, seed=0)
        with pytest.raises(ConfigError):
            pretrain(tiny_corpus(), params, cfg, flat_lr_config(), steps=0)

    @pytest.mark.parametrize("steps", [3, 6], ids=["below-accum", "not-a-multiple"])
    def test_steps_not_a_multiple_of_accum_rejected_before_any_step(self, steps):
        cfg = preset("tiny")
        params = ParameterStore.initialize(cfg, seed=0)
        before = {name: tensor.data.copy() for name, tensor in params.items()}
        with pytest.raises(ConfigError, match="multiple of grad_accum"):
            pretrain(tiny_corpus(), params, cfg, flat_lr_config(grad_accum=4), steps=steps)
        assert all(tensor.grad is None for _, tensor in params.items())
        for name, data in before.items():
            assert params[name].data.tobytes() == data.tobytes()

    def test_no_gradient_outlives_a_training_call(self):
        cfg = preset("tiny")
        params = ParameterStore.initialize(cfg, seed=0)
        pretrain(tiny_corpus(), params, cfg, flat_lr_config(grad_accum=2), steps=4)
        assert all(tensor.grad is None for _, tensor in params.items())
        finetune_classify(labeled_dataset(n=10), params, cfg, flat_lr_config(grad_accum=2), 2,
                          steps=4)
        assert all(tensor.grad is None for _, tensor in params.items())

    def test_trace_rows_and_mask_count(self):
        cfg = preset("tiny")
        params = ParameterStore.initialize(cfg, seed=0)
        trace = pretrain(tiny_corpus(), params, cfg, flat_lr_config(), steps=4)
        assert [row[0] for row in trace] == [1, 2, 3, 4]
        assert all(np.isfinite(row[2]) for row in trace)

    def test_seeded_run_is_bitwise_reproducible(self, tmp_path):
        cfg = preset("tiny")
        traces, blobs = [], []
        for run in range(2):
            params = ParameterStore.initialize(cfg, seed=3)
            trace = pretrain(tiny_corpus(), params, cfg, flat_lr_config(seed=5),
                             steps=6, checkpoint_dir=str(tmp_path / f"run{run}"))
            traces.append(trace)
            blobs.append((tmp_path / f"run{run}" / "final.fckp").read_bytes())
        assert traces[0] == traces[1]
        assert blobs[0] == blobs[1]

    def test_gradient_accumulation_equivalence(self):
        cfg = preset("tiny")
        corpus = tiny_corpus(n=8)
        runs = {}
        for label, batch, accum in (("micro", 2, 4), ("concat", 8, 1)):
            params = ParameterStore.initialize(cfg, seed=9)
            tcfg = flat_lr_config(batch_size=batch, grad_accum=accum, seed=13)
            pretrain(corpus, params, cfg, tcfg, steps=4 if label == "micro" else 1)
            runs[label] = params
        for name, tensor in runs["micro"].items():
            other = runs["concat"][name].data
            denom = np.abs(other) + 1e-12
            assert np.max(np.abs(tensor.data - other) / denom) < 1e-10, name

    def test_gradient_accumulation_equivalence_across_shapes(self):
        cfg = preset("tiny")
        corpus = tiny_corpus(n=8)
        for i in (1, 4, 6):  # three samples of a second shape in the stream
            corpus[i] = PatchGrid(corpus[i].patches[:1, :3], 8, 250.0)
        runs = {}
        for label, batch, accum in (("micro", 2, 4), ("concat", 8, 1)):
            params = ParameterStore.initialize(cfg, seed=9)
            tcfg = flat_lr_config(batch_size=batch, grad_accum=accum, seed=13)
            pretrain(corpus, params, cfg, tcfg, steps=4 if label == "micro" else 1)
            runs[label] = params
        for name, tensor in runs["micro"].items():
            other = runs["concat"][name].data
            denom = np.abs(other) + 1e-12
            assert np.max(np.abs(tensor.data - other) / denom) < 1e-10, name

    def test_tape_freed_without_cyclic_gc(self):
        cfg = preset("tiny")
        params = ParameterStore.initialize(cfg, seed=0)
        gc.collect()
        gc.disable()
        try:
            pretrain(tiny_corpus(), params, cfg, flat_lr_config(), steps=3)
            left = sum(isinstance(obj, nm._Node) for obj in gc.get_objects())
        finally:
            gc.enable()
        assert left == 0

    def test_tiny_micro_step_tape_size(self, monkeypatch):
        # linear, affine_norm, attention, blend, linear_mse and gather_swap
        # record one node each for an op chain, so a rise means a fusion undone
        sizes = []
        original = nm.backward

        def counting(loss):
            sizes.append(len(loss._tape.nodes))
            return original(loss)

        monkeypatch.setattr(nm, "backward", counting)
        cfg = preset("tiny")
        params = ParameterStore.initialize(cfg, seed=0)
        pretrain(tiny_corpus(), params, cfg, flat_lr_config(), steps=2)
        assert sizes == [41, 41]

    def test_loss_scope_all_differs_from_masked(self):
        cfg = preset("tiny")
        corpus = tiny_corpus(n=4)
        traces = {}
        for scope in ("masked_only", "all"):
            params = ParameterStore.initialize(cfg, seed=2)
            traces[scope] = pretrain(corpus, params, cfg,
                                     flat_lr_config(loss_scope=scope), steps=2)
        assert traces["masked_only"] != traces["all"]

    def test_checkpoint_cadence(self, tmp_path):
        cfg = preset("tiny")
        params = ParameterStore.initialize(cfg, seed=0)
        tcfg = flat_lr_config(checkpoint_every=2, grad_accum=1)
        pretrain(tiny_corpus(n=4), params, cfg, tcfg, steps=4,
                 checkpoint_dir=str(tmp_path))
        assert (tmp_path / "step-000002.fckp").exists()
        assert (tmp_path / "step-000004.fckp").exists()
        assert (tmp_path / "final.fckp").exists()


def score_forecast(samples, params, cfg, horizon_patches):
    """The forecast report of `samples` alone, from a store of their own."""
    store = trainer._Samples([sample.context for sample in samples], cfg)
    return trainer._score_forecast(store, range(len(samples)), samples, params, cfg,
                                   horizon_patches)


def gated_mse_oracle(encoded, params, target, mask, scope):
    """The full-head form: every slot through the head, the visible ones
    gated to zero, the MSE rescaled by the masked fraction."""
    rec = model.head_reconstruct(encoded, params)
    gate = mask[..., None].astype(np.float64)
    fraction = float(gate.mean())
    if scope == "all" or fraction == 0.0:
        return mse(rec, Tensor(target))
    return nm.scale(mse(mul(rec, Tensor(gate)), Tensor(target * gate)), 1.0 / fraction)


def _loss_and_grads(masked_mse, shapes, mode, scope="masked_only", empty=False):
    """The pretraining batch loss over samples of `shapes` (one stack per
    shape) with `masked_mse` as the loss, and every parameter gradient."""
    cfg = preset("tiny")
    params = ParameterStore.initialize(cfg, seed=21)
    params.add(model.reconstruct_head_shapes(cfg), seed=22)
    gen = np.random.default_rng(len(shapes))
    grids = [PatchGrid(gen.standard_normal(shape + (8,)), 8, 250.0) for shape in shapes]
    store = trainer._Samples(grids, cfg)
    stream = Rng(23)
    masks = [np.zeros(shape, dtype=bool) if empty
             else make_mask_plan(*shape, 0.4, stream, mode) for shape in shapes]

    def group_loss(pos):
        patches, powers = store.stack(pos)
        mask = np.stack([masks[j] for j in pos])
        encoded = model.forward(patches, powers, params, cfg, mask=mask)
        return masked_mse(encoded, params, patches, mask, scope)

    with nm.Tape():
        loss = trainer._grouped_mean(store, list(range(len(grids))), group_loss)
    nm.backward(loss)
    return float(loss.data), {name: tensor.grad for name, tensor in params.items()}


class TestMaskedLoss:
    @pytest.mark.parametrize("mode", ["slot", "column"])
    @pytest.mark.parametrize("shapes", [[(3, 5)], [(3, 5)] * 3, [(2, 5), (3, 4), (2, 5)]],
                             ids=["B1", "B3", "mixed"])
    def test_masked_rows_match_the_gated_oracle(self, mode, shapes):
        loss, grads = _loss_and_grads(trainer._masked_mse, shapes, mode)
        want, want_grads = _loss_and_grads(gated_mse_oracle, shapes, mode)
        assert abs(loss - want) <= 1e-12 * abs(want)
        for name, grad in grads.items():
            np.testing.assert_allclose(grad, want_grads[name], rtol=1e-12, atol=0, err_msg=name)

    @pytest.mark.parametrize("scope,empty", [("all", False), ("masked_only", True)])
    def test_scope_all_and_empty_mask_run_the_full_head(self, scope, empty):
        shapes = [(2, 5), (3, 4)]
        loss, grads = _loss_and_grads(trainer._masked_mse, shapes, "slot", scope, empty)
        want, want_grads = _loss_and_grads(gated_mse_oracle, shapes, "slot", scope, empty)
        assert loss == want
        for name, grad in grads.items():
            want_grad = want_grads[name]  # None for embed.mask under an empty mask
            assert (grad is None and want_grad is None) or grad.tobytes() == want_grad.tobytes()

    def test_only_masked_rows_reach_the_head(self, monkeypatch):
        rows = []
        loss = model.reconstruct_mse
        monkeypatch.setattr(model, "reconstruct_mse",
                            lambda e, *args: rows.append(e.shape) or loss(e, *args))
        _loss_and_grads(trainer._masked_mse, [(3, 5)] * 2, "slot")
        assert rows == [(12, 8)]  # round(0.4 * 15) = 6 hidden slots per sample, D = 8


def labeled_dataset(n=20, length=8, patches=4, seed=4):
    gen = Rng(seed)
    data = []
    t = np.arange(patches * length) / 250.0
    for i in range(n):
        label = i % 2
        freq = 10.0 if label == 0 else 60.0
        x = np.sin(2 * np.pi * freq * t + float(gen.uniforms(1)[0]))
        sig = np.stack([x, x[::-1]])
        data.append((PatchGrid(sig.reshape(2, patches, length), length, 250.0), label))
    return data


class TestStackedPrediction:
    def test_mixed_batch_equals_per_sample_forward_bitwise(self, rng):
        cfg = preset("tiny")
        params = ParameterStore.initialize(cfg, seed=5)
        params.add(model.classify_head_shapes(cfg, 3), seed=6)
        grids = [PatchGrid(rng.standard_normal((4, 5, 8)), 8, 250.0) for _ in range(3)]
        grids.insert(1, PatchGrid(grids[0].patches[[2, 0, 3, 1]], 8, 250.0))
        grids[3:3] = [PatchGrid(rng.standard_normal((2, 3, 8)), 8, 250.0) for _ in range(2)]
        store = trainer._Samples(grids, cfg)
        for head in (lambda e: e, lambda e: model.head_classify(e, params, 3)):
            stacked = trainer._predict(store, range(len(grids)), params, cfg, head)
            for grid, row in zip(grids, stacked):
                alone = head(model.forward(grid.patches, band_powers(grid), params, cfg))
                assert row.tobytes() == alone.data.tobytes()

    def test_largest_stack_equals_per_sample_forward_bitwise(self, rng, monkeypatch):
        # one stack of `_EVAL_STACK` samples: a head that folds each sample's
        # own products into one gemm over the stack gives other bits
        cfg = preset("tiny")
        params = ParameterStore.initialize(cfg, seed=7)
        params.add(model.classify_head_shapes(cfg, 3), seed=8)
        params.add(model.forecast_head_shapes(cfg, 5, 2), seed=9)
        grids = [PatchGrid(rng.standard_normal((4, 5, 8)), 8, 250.0)
                 for _ in range(trainer._EVAL_STACK)]
        store = trainer._Samples(grids, cfg)
        forward, stacks = model.forward, []
        monkeypatch.setattr(model, "forward", lambda x, *rest: stacks.append(len(x)) or
                            forward(x, *rest))
        for head in (lambda e: model.head_classify(e, params, 3),
                     lambda e: model.head_forecast(e, params, 2)):
            stacked = trainer._predict(store, range(len(grids)), params, cfg, head)
            for grid, row in zip(grids, stacked):
                alone = head(forward(grid.patches, band_powers(grid), params, cfg))
                assert row.tobytes() == alone.data.tobytes()
        assert stacks == [trainer._EVAL_STACK] * 2


class TestSampleStore:
    def test_store_scores_equal_a_fresh_store_bitwise(self, rng):
        cfg = preset("tiny")
        params = ParameterStore.initialize(cfg, seed=26)
        params.add(model.classify_head_shapes(cfg, 2), seed=27)
        params.add(model.forecast_head_shapes(cfg, 3, 2), seed=28)
        data = labeled_dataset(n=12)
        data[5] = (PatchGrid(rng.standard_normal((3, 4, 8)), 8, 250.0), 1)
        windows = forecast_samples_from_grid(PatchGrid(rng.standard_normal((2, 65, 8)), 8, 250.0),
                                             3, 2)
        subset = [2, 5, 6, 9, 10]
        store = trainer._Samples([grid for grid, _ in data], cfg)
        labels = [label for _, label in data]
        fresh = trainer._Samples([data[i][0] for i in subset], cfg)
        alone = trainer._score_classify(fresh, range(len(subset)), [labels[i] for i in subset],
                                        params, cfg, 2).to_json()
        for _ in range(2):  # the second score reads band powers the first computed
            report = trainer._score_classify(store, subset, labels, params, cfg, 2)
            assert report.to_json() == alone
        store = trainer._Samples([window.context for window in windows], cfg)
        alone = score_forecast([windows[i] for i in subset], params, cfg, 2).to_json()
        for _ in range(2):
            report = trainer._score_forecast(store, subset, windows, params, cfg, 2)
            assert report.to_json() == alone


class TestFinetuneClassify:
    def test_micro_step_tape_size(self, monkeypatch):
        # the loss is one `nll` node per shape stack: a rise means a fusion undone
        sizes = []
        original = nm.backward

        def counting(loss):
            sizes.append(len(loss._tape.nodes))
            return original(loss)

        monkeypatch.setattr(nm, "backward", counting)
        cfg = preset("tiny")
        runs = []
        for data in (labeled_dataset(n=10), labeled_dataset(n=10) + labeled_dataset(patches=3)):
            sizes.clear()
            finetune_classify(data, ParameterStore.initialize(cfg, seed=0), cfg,
                              flat_lr_config(batch_size=4), n_classes=2, steps=3)
            runs.append(list(sizes))
        # every batch of the mixed run holds both shapes: two stacks, one sum
        assert runs == [[45, 45, 45], [92, 92, 92]]

    def test_loss_and_gradients_are_the_reference_chain_bitwise(self, monkeypatch):
        # fine-tuning through the pick, log, mean and scale chain that `nll`
        # fuses gives the same bits: every loss, gradient, parameter and report
        cfg = preset("tiny")
        data = labeled_dataset(n=10) + labeled_dataset(patches=3)  # two shape stacks
        backward, step = nm.backward, trainer.AdamW.step
        runs = []
        for loss_of in (nm.nll, nll_chain):
            seen = []

            def recording_backward(loss):
                seen.append(loss.data.tobytes())
                backward(loss)

            def recording_step(self, lr):
                seen.append({name: None if t.grad is None else t.grad.tobytes()
                             for name, t in self.named.items()})
                step(self, lr)

            monkeypatch.setattr(nm, "nll", loss_of)
            monkeypatch.setattr(nm, "backward", recording_backward)
            monkeypatch.setattr(trainer.AdamW, "step", recording_step)
            params = ParameterStore.initialize(cfg, seed=1)
            report = finetune_classify(data, params, cfg,
                                       flat_lr_config(batch_size=4, grad_accum=2),
                                       n_classes=2, steps=4)
            runs.append((seen, {k: v.tobytes() for k, v in params.arrays().items()},
                         report.to_json()))
        # four losses and two optimizer steps over every parameter
        assert len(runs[0][0]) == 6 and len(runs[0][0][2]) == len(runs[0][1])
        assert runs[0] == runs[1]

    def test_probe_freezes_backbone_bitwise(self):
        cfg = preset("tiny")
        params = ParameterStore.initialize(cfg, seed=21)
        before = {k: v.data.copy() for k, v in params.items()}
        finetune_classify(labeled_dataset(), params, cfg, flat_lr_config(seed=3),
                          n_classes=2, steps=4, mode="probe")
        for name, old in before.items():
            assert np.array_equal(params[name].data, old), name
        assert "head.cls.w1" in params

    def test_full_mode_moves_backbone(self):
        cfg = preset("tiny")
        params = ParameterStore.initialize(cfg, seed=22)
        before = params["temporal0.attn.wq"].data.copy()
        finetune_classify(labeled_dataset(), params, cfg, flat_lr_config(seed=3),
                          n_classes=2, steps=4, mode="full")
        assert not np.array_equal(params["temporal0.attn.wq"].data, before)

    def test_bad_label_rejected(self):
        cfg = preset("tiny")
        params = ParameterStore.initialize(cfg, seed=23)
        data = labeled_dataset(n=10)
        data[3] = (data[3][0], 7)
        with pytest.raises(DataError):
            finetune_classify(data, params, cfg, flat_lr_config(), n_classes=2, steps=1)

    def test_huge_class_count_refused_before_training(self, monkeypatch):
        steps = []
        monkeypatch.setattr(trainer.AdamW, "step", lambda self, lr: steps.append(lr))
        cfg = preset("tiny")
        params = ParameterStore.initialize(cfg, seed=24)
        with pytest.raises(DataError, match="^100000 classes"):
            finetune_classify(labeled_dataset(n=10), params, cfg, flat_lr_config(),
                              n_classes=100_000, steps=40)
        assert steps == []
        assert "head.cls.w1" not in params

    @staticmethod
    def count_band_power_grids(monkeypatch) -> list[bytes]:
        """Patch `trainer.band_powers` to record the bytes of every
        (2, P, L) sample grid it is given; a call may take several samples'
        channels laid end to end."""
        grids = []
        original = trainer.band_powers

        def counting(grid, *args, **kwargs):
            grids.extend(sample.tobytes() for sample in grid.patches.reshape(
                (-1, 2) + grid.patches.shape[1:]))
            return original(grid, *args, **kwargs)

        monkeypatch.setattr(trainer, "band_powers", counting)
        return grids

    def test_band_powers_only_for_trained_and_scored_samples(self, monkeypatch):
        grids = self.count_band_power_grids(monkeypatch)
        cfg = preset("tiny")
        params = ParameterStore.initialize(cfg, seed=25)
        finetune_classify(labeled_dataset(n=40), params, cfg, flat_lr_config(seed=8),
                          n_classes=2, steps=2)
        assert len(grids) == 32  # 24 training samples + 8 test samples

    def test_band_powers_once_per_sample_across_validations(self, monkeypatch, tmp_path):
        grids = self.count_band_power_grids(monkeypatch)
        cfg = preset("tiny")
        params = ParameterStore.initialize(cfg, seed=25)
        dataset = labeled_dataset(n=40)
        finetune_classify(dataset, params, cfg,
                          flat_lr_config(seed=8, checkpoint_every=1), n_classes=2, steps=4,
                          checkpoint_dir=str(tmp_path))
        # 24 training + 8 validation + 8 test samples; four validations ran
        assert len(grids) == 40
        assert set(grids) == {grid.patches.tobytes() for grid, _ in dataset}

    def test_validation_block_unread_without_a_cadence_checkpoint(self, monkeypatch,
                                                                  tmp_path):
        grids = self.count_band_power_grids(monkeypatch)
        cfg = preset("tiny")
        params = ParameterStore.initialize(cfg, seed=25)
        dataset = labeled_dataset(n=40)
        report = finetune_classify(dataset, params, cfg,
                                   flat_lr_config(seed=8, checkpoint_every=500), n_classes=2,
                                   steps=4, checkpoint_dir=str(tmp_path))
        # 4 optimizer steps never reach checkpoint 500, so no validation runs
        assert len(grids) == 32
        assert set(grids).isdisjoint(grid.patches.tobytes() for grid, _ in dataset[24:32])
        assert report.checkpoints == [str(tmp_path / "final.fckp")]
        assert sorted(path.name for path in tmp_path.iterdir()) == ["final.fckp"]

    def test_band_powers_one_call_per_shape_and_rate(self, monkeypatch):
        calls = []
        original = trainer.band_powers

        def counting(grid, *args, **kwargs):
            calls.append((grid.patches.shape, grid.source_rate_hz))
            return original(grid, *args, **kwargs)

        monkeypatch.setattr(trainer, "band_powers", counting)
        monkeypatch.setattr(trainer, "_EVAL_STACK", 3)
        short = labeled_dataset(n=4, patches=2)
        slow = [(PatchGrid(g.patches, g.patch_len, 200.0), label) for g, label in short]
        data = labeled_dataset(n=7) + short + slow
        grids = [grid for grid, _ in data]
        read = [0, 8, 3, 12, 1, 3]
        store = trainer._Samples(grids, preset("tiny"), read)
        assert calls == [((6, 4, 8), 250.0), ((2, 2, 8), 250.0), ((2, 2, 8), 200.0)]
        for i in read:
            assert store.stack([i])[1][0].tobytes() == band_powers(grids[i]).tobytes()
        calls.clear()
        store = trainer._Samples(grids, preset("tiny"))
        assert calls == [((6, 4, 8), 250.0), ((6, 4, 8), 250.0), ((2, 4, 8), 250.0),
                         ((6, 2, 8), 250.0), ((2, 2, 8), 250.0), ((6, 2, 8), 200.0),
                         ((2, 2, 8), 200.0)]
        for i, grid in enumerate(grids):
            assert store.stack([i])[1][0].tobytes() == band_powers(grid).tobytes()

    def test_report_fields_present(self):
        cfg = preset("tiny")
        params = ParameterStore.initialize(cfg, seed=24)
        report = finetune_classify(labeled_dataset(), params, cfg, flat_lr_config(seed=8),
                                   n_classes=2, steps=2)
        assert report.task == "classification"
        assert report.confusion is not None
        assert report.notes["mode"] == "full"

    def test_checkpoint_cadence_and_best_validation(self, tmp_path):
        cfg = preset("tiny")
        params = ParameterStore.initialize(cfg, seed=25)
        tcfg = flat_lr_config(seed=9, checkpoint_every=2, grad_accum=1)
        finetune_classify(labeled_dataset(), params, cfg, tcfg, n_classes=2,
                          steps=4, checkpoint_dir=str(tmp_path))
        assert (tmp_path / "step-000002.fckp").exists()
        assert (tmp_path / "step-000004.fckp").exists()
        assert (tmp_path / "best-validation.fckp").exists()
        assert (tmp_path / "final.fckp").exists()


class TestForecast:
    def test_sample_windows(self, rng):
        grid = PatchGrid(rng.standard_normal((2, 10, 8)), 8, 250.0)
        samples = forecast_samples_from_grid(grid, context_patches=3, horizon_patches=2)
        assert len(samples) == 2
        assert samples[0].context.n_patches == 3
        assert samples[0].target.shape == (2, 16)
        np.testing.assert_array_equal(
            samples[0].target, grid.patches[:, 3:5].reshape(2, 16)
        )

    def test_too_short_grid(self, rng):
        grid = PatchGrid(rng.standard_normal((1, 3, 8)), 8, 250.0)
        with pytest.raises(ConfigError):
            forecast_samples_from_grid(grid, 3, 2)

    def test_mixed_montages_score_as_one_pool(self, rng):
        cfg = preset("tiny")
        params = ParameterStore.initialize(cfg, seed=26)
        params.add(model.forecast_head_shapes(cfg, 3, 2), seed=27)
        groups = [forecast_samples_from_grid(PatchGrid(rng.standard_normal((c, 10, 8)), 8, 250.0),
                                             3, 2) for c in (2, 3)]
        mixed = score_forecast(groups[0] + groups[1], params, cfg, 2)
        parts = [score_forecast(group, params, cfg, 2) for group in groups]
        sizes = [sum(sample.target.size for sample in group) for group in groups]
        for key in ("mae", "mse"):
            pooled = sum(getattr(part, key) * n for part, n in zip(parts, sizes)) / sum(sizes)
            assert getattr(mixed, key) == pytest.approx(pooled, rel=1e-12)
        for key in ("persistence_mae", "persistence_mse"):
            pooled = sum(part.baseline[key] * n for part, n in zip(parts, sizes)) / sum(sizes)
            assert mixed.baseline[key] == pytest.approx(pooled, rel=1e-12)

    def test_persistence_repeats_last_patch(self, rng):
        grid = PatchGrid(rng.standard_normal((2, 5, 8)), 8, 250.0)
        sample = forecast_samples_from_grid(grid, 3, 2)[0]
        base = persistence_forecast(sample, 2)
        np.testing.assert_array_equal(base[:, :8], sample.context.patches[:, -1])
        np.testing.assert_array_equal(base[:, 8:], sample.context.patches[:, -1])


class TestImpute:
    def test_make_samples_ratio(self, rng):
        grids = [PatchGrid(rng.standard_normal((2, 10, 8)), 8, 250.0)]
        samples = make_impute_samples(grids, 0.40, Rng(7))
        assert samples[0].missing.sum() == 8  # round(0.4 * 20)

    def test_mean_imputation_fills_channel_mean(self, rng):
        grid = PatchGrid(rng.standard_normal((1, 4, 8)), 8, 250.0)
        missing = np.array([[False, True, False, False]])
        sample = trainer.ImputeSample(grid=grid, missing=missing)
        filled = mean_imputation(sample)
        observed_mean = grid.patches[0, [0, 2, 3]].mean()
        np.testing.assert_allclose(filled[0, 1], observed_mean)
        np.testing.assert_array_equal(filled[0, 0], grid.patches[0, 0])

    @staticmethod
    def _scored(cfg, channels, patches, length, seed=41):
        """Fresh parameters with the reconstruction head, and seeded 40 %
        missing samples of the given channel counts."""
        params = ParameterStore.initialize(cfg, seed=seed)
        params.add(model.reconstruct_head_shapes(cfg), seed=seed + 1)
        gen = Rng(seed)
        grids = [PatchGrid(gen.normals(c * patches * length).reshape(c, patches, length),
                           length, 250.0) for c in channels]
        return params, make_impute_samples(grids, 0.40, Rng(seed + 2))

    @pytest.mark.parametrize("case", ["desk", "mixed-montages", "channel-all-missing",
                                      "nothing-observed", "ablate-freq", "conv-embed"])
    def test_report_matches_oracle_bitwise(self, case):
        if case == "desk":
            cfg = ModelConfig(patch_len=1500, model_dim=64, heads=4, ffn_dim=128,
                              temporal_layers=2, channel_layers=1, max_patches=15)
            params, samples = self._scored(cfg, [19], 15, 1500)
        else:
            cfg = preset("tiny")
            if case in ("ablate-freq", "conv-embed"):
                cfg = model.apply_ablation(cfg, case.removeprefix("ablate-"))
            params, samples = self._scored(cfg, [2, 3, 2, 3], 5, 8)
        if case == "channel-all-missing":
            samples[1].missing[2] = True
        elif case == "nothing-observed":
            samples[2].missing[:] = True
        assert repr(evaluate_impute(samples, params, cfg)) == repr(
            impute_report_oracle(samples, params, cfg))

    def test_model_sees_observed_patches_only(self, monkeypatch):
        cfg = preset("tiny")
        params, samples = self._scored(cfg, [2, 3, 3], 5, 8)
        samples[1].missing[0] = True
        samples[2].missing[:] = True
        clean = repr(evaluate_impute(samples, params, cfg))
        counts = []

        def counting(grid, *args, **kwargs):
            counts.append(int(np.prod(grid.patches.shape[:2])))
            return band_powers(grid, *args, **kwargs)

        def poisoned(patches, *args, mask, **kwargs):
            return forward(np.where(mask[..., None], np.nan, patches), *args, mask=mask,
                           **kwargs)

        forward = model.forward
        monkeypatch.setattr(trainer, "band_powers", counting)
        monkeypatch.setattr(model, "forward", poisoned)
        assert repr(evaluate_impute(samples, params, cfg)) == clean
        # a sample with nothing observed needs no call
        assert counts == [int((~s.missing).sum()) for s in samples if (~s.missing).any()]

    def test_no_missing_reported(self):
        cfg = preset("tiny")
        params = ParameterStore.initialize(cfg, seed=31)
        params.add(model.reconstruct_head_shapes(cfg), seed=32)
        grids = tiny_corpus(n=2)
        samples = [trainer.ImputeSample(grid=g, missing=np.zeros((2, 5), dtype=bool))
                   for g in grids]
        report = evaluate_impute(samples, params, cfg)
        assert report.notes.get("no-missing") is True
        assert report.mae is None


class TestRefusedCalls:
    """Every entry point checks all its inputs before it adds its head."""

    @staticmethod
    def forecast_set(n=6):
        grid = PatchGrid(np.random.default_rng(5).standard_normal((2, 5 * n, 8)), 8, 250.0)
        return forecast_samples_from_grid(grid, 3, 2)

    @staticmethod
    def impute_set(n=6):
        return make_impute_samples(tiny_corpus(n=n), 0.4, Rng(8))

    @staticmethod
    def relabeled(index, label):
        data = labeled_dataset(n=10)
        data[index] = (data[index][0], label)
        return data

    CASES = {
        "pretrain-empty-corpus": lambda p, c: pretrain([], p, c, flat_lr_config(), steps=2),
        "pretrain-zero-steps": lambda p, c: pretrain(tiny_corpus(), p, c, flat_lr_config(), 0),
        "pretrain-steps-not-a-multiple": lambda p, c: pretrain(
            tiny_corpus(), p, c, flat_lr_config(grad_accum=4), steps=6),
        "classify-bad-label": lambda p, c: finetune_classify(
            TestRefusedCalls.relabeled(3, 7), p, c, flat_lr_config(), 2, steps=2),
        "classify-huge-class-count": lambda p, c: finetune_classify(
            labeled_dataset(n=10), p, c, flat_lr_config(), 100_000, steps=2),
        "classify-unknown-mode": lambda p, c: finetune_classify(
            labeled_dataset(n=10), p, c, flat_lr_config(), 2, steps=2, mode="frozen"),
        "classify-empty-split": lambda p, c: finetune_classify(
            labeled_dataset(n=10), p, c, flat_lr_config(), 2, steps=2,
            splits=([], [0, 1], [2, 3])),
        "classify-zero-steps": lambda p, c: finetune_classify(
            labeled_dataset(n=10), p, c, flat_lr_config(), 2, steps=0),
        "classify-steps-not-a-multiple": lambda p, c: finetune_classify(
            labeled_dataset(n=10), p, c, flat_lr_config(grad_accum=4), 2, steps=6),
        "forecast-empty-dataset": lambda p, c: trainer.finetune_forecast(
            [], p, c, flat_lr_config(), 2, steps=2),
        "forecast-unknown-mode": lambda p, c: trainer.finetune_forecast(
            TestRefusedCalls.forecast_set(), p, c, flat_lr_config(), 2, steps=2, mode="frozen"),
        "forecast-empty-split": lambda p, c: trainer.finetune_forecast(
            TestRefusedCalls.forecast_set(n=1), p, c, flat_lr_config(), 2, steps=2),
        "forecast-steps-not-a-multiple": lambda p, c: trainer.finetune_forecast(
            TestRefusedCalls.forecast_set(), p, c, flat_lr_config(grad_accum=4), 2, steps=6),
        "impute-empty-dataset": lambda p, c: trainer.impute([], p, c, flat_lr_config(), 2),
        "impute-empty-split": lambda p, c: trainer.impute(
            TestRefusedCalls.impute_set(n=1), p, c, flat_lr_config(), 2),
        "impute-steps-not-a-multiple": lambda p, c: trainer.impute(
            TestRefusedCalls.impute_set(), p, c, flat_lr_config(grad_accum=4), 6),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_refused_call_leaves_the_store_as_it_was(self, case, tmp_path):
        cfg = preset("tiny")
        params = ParameterStore.initialize(cfg, seed=31)
        before = [(name, tensor.data.dtype, tensor.data.shape, tensor.data.tobytes())
                  for name, tensor in params.items()]
        with pytest.raises((ConfigError, DataError)):
            self.CASES[case](params, cfg)
        assert [(name, tensor.data.dtype, tensor.data.shape, tensor.data.tobytes())
                for name, tensor in params.items()] == before
        assert all(tensor.grad is None for _, tensor in params.items())

    def test_mixed_forecast_contexts_refused_before_the_head(self, tmp_path):
        cfg = preset("tiny")
        params = ParameterStore.initialize(cfg, seed=31)
        grid = PatchGrid(np.random.default_rng(5).standard_normal((2, 30, 8)), 8, 250.0)
        mixed = [sample for pair in zip(forecast_samples_from_grid(grid, 2, 2),
                                        forecast_samples_from_grid(grid, 3, 2))
                 for sample in pair]
        with pytest.raises(ConfigError, match=r"mix context lengths \[2, 3\]"):
            trainer.finetune_forecast(mixed, params, cfg, flat_lr_config(checkpoint_every=1), 2,
                                      steps=2, checkpoint_dir=tmp_path)
        assert [name for name, _ in params.items() if name.startswith("head.fcst.")] == []
        assert list(tmp_path.iterdir()) == []


class TestFittedSchedule:
    """`_train_loop` fits the schedule to its steps for every task."""

    @staticmethod
    def optimizer_lrs(monkeypatch) -> list[float]:
        lrs = []
        original = trainer.AdamW.step

        def recording(self, lr):
            lrs.append(lr)
            return original(self, lr)

        monkeypatch.setattr(trainer.AdamW, "step", recording)
        return lrs

    def test_every_task_steps_on_the_schedule_fitted_to_its_steps(self, monkeypatch):
        cfg = preset("tiny")
        recipe = TrainConfig(batch_size=2, grad_accum=2, seed=3, lr_init=1.2e-4, lr_peak=3e-3,
                             lr_final=3e-7)  # the full-scale warmup and total steps
        fitted = scale_schedule(recipe, 8)
        want = [lr_at(step, fitted) for step in (2, 4, 6, 8)]
        lrs = self.optimizer_lrs(monkeypatch)
        trace = pretrain(tiny_corpus(), ParameterStore.initialize(cfg, 1), cfg, recipe, 8)
        assert lrs == want
        assert [lr for _, lr, _ in trace] == [lr_at(step, fitted) for step in range(1, 9)]
        runs = {
            "classify": lambda p: finetune_classify(labeled_dataset(n=10), p, cfg, recipe, 2, 8),
            "forecast": lambda p: trainer.finetune_forecast(TestRefusedCalls.forecast_set(),
                                                            p, cfg, recipe, 2, 8),
            "impute": lambda p: trainer.impute(TestRefusedCalls.impute_set(), p, cfg, recipe, 8),
        }
        for task, run in runs.items():
            lrs.clear()
            run(ParameterStore.initialize(cfg, 1))
            assert lrs == want, task

    def test_a_one_step_run_keeps_the_configured_schedule(self, monkeypatch):
        cfg = preset("tiny")
        recipe = flat_lr_config(lr_init=1e-4, lr_peak=1e-3, warmup_steps=10, total_steps=100)
        lrs = self.optimizer_lrs(monkeypatch)
        finetune_classify(labeled_dataset(n=10), ParameterStore.initialize(cfg, 2), cfg, recipe,
                          2, steps=1)
        assert lrs == [lr_at(1, recipe)]

    def test_fitting_a_fitted_schedule_changes_nothing(self):
        for steps in (2, 3, 8, 40, 600, 2000):
            for warmup, total in ((1, 100), (30, 600), (100, 2000), (10_960, 1_096_000)):
                once = scale_schedule(TrainConfig(warmup_steps=warmup, total_steps=total), steps)
                assert scale_schedule(once, steps) == once


class TestGridWindows:
    def test_back_to_back_windows_drop_the_tail(self, rng):
        grid = PatchGrid(rng.standard_normal((2, 11, 8)), 8, 250.0)
        windows = trainer.grid_windows(grid, 3)
        assert len(windows) == 3
        for i, window in enumerate(windows):
            assert np.array_equal(window.patches, grid.patches[:, 3 * i : 3 * i + 3])
            assert (window.patch_len, window.source_rate_hz) == (8, 250.0)


class TestLossTrace:
    def test_csv_format(self, tmp_path):
        path = tmp_path / "trace.csv"
        trainer.write_loss_trace([(1, 1e-3, 0.5), (2, 2e-3, 0.25)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,lr,loss"
        assert lines[1] == "1,0.001,0.5"
        assert len(lines) == 3
