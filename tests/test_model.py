"""Embedding composition, encoder-oracle equivalence, masking, heads."""

import struct
from dataclasses import fields
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import fckp_bytes
from mutations import mutated
from oracles import encoder_block_oracle, full_row_forward, matmul, mse, primitive_encoder_block

import fome.numerics as nm
from fome import model
from fome.errors import CapacityError, ConfigError, DataError, FormatError, ShapeError
from fome.model import (
    ModelConfig,
    ParameterStore,
    apply_ablation,
    channel_attention,
    classify_head_shapes,
    embed,
    forecast_head_shapes,
    forward,
    head_classify,
    head_forecast,
    head_reconstruct,
    load_params,
    param_shapes,
    params_from_checkpoint,
    preset,
    read_checkpoint,
    reconstruct_head_shapes,
    save_params,
    temporal_attention,
)
from fome.numerics import Tensor
from fome.preprocess import PatchGrid
from fome.rng import Rng
from fome.spectral import N_BANDS, band_powers


def tiny_cfg(**kw):
    return preset("tiny", **kw)


def record_text(cfg) -> str:
    """The config record of `cfg`: one key=value line per field, in field order."""
    return "".join(f"{f.name}={getattr(cfg, f.name)}\n" for f in fields(cfg))


def checkpoint_with_record(lines: str) -> bytes:
    """A tiny backbone's FCKP bytes under the tiny preset's config record,
    with each line of `lines` in place of its key's line, or else appended."""
    record = {}
    for line in record_text(tiny_cfg()).splitlines() + lines.split("\n"):
        record[line.partition("=")[0]] = line
    text = "\n".join(record.values()) + "\n"
    return fckp_bytes({"config": text, **ParameterStore.initialize(tiny_cfg(), seed=0).arrays()})


def random_inputs(rng, cfg, channels=3, patches=4):
    grid = rng.standard_normal((channels, patches, cfg.patch_len))
    bands = np.abs(rng.standard_normal((channels, patches, N_BANDS)))
    return grid, bands


def zeroed_store(cfg):
    store = ParameterStore.initialize(cfg, seed=0)
    for _, tensor in store.items():
        tensor.data[...] = 0.0
    return store


class TestPresets:
    def test_published_parameter_counts(self):
        # Base: 476.3M, Large: 744.8M (backbone + reconstruction head)
        for name, published in (("base", 476.3e6), ("large", 744.8e6)):
            cfg = preset(name)
            shapes = param_shapes(cfg)
            shapes.update(reconstruct_head_shapes(cfg))
            total = sum(int(np.prod(s)) for s in shapes.values())
            assert abs(total - published) / published < 0.01, (name, total)

    def test_base_and_large_layer_counts(self):
        for name in ("base", "large"):
            cfg = preset(name)
            assert cfg.temporal_layers == 12 and cfg.channel_layers == 4
        assert preset("base").ffn_dim == 3072
        assert preset("large").ffn_dim == 7168

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("medium")

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ModelConfig(model_dim=10, heads=3)
        with pytest.raises(ConfigError):
            ModelConfig(attn_scale="sqrt")
        with pytest.raises(ConfigError):
            ModelConfig(dropout=1.0)

    def test_band_count_has_one_owner(self):
        # spectral owns the band count; the frequency embedding is sized from it
        grid = PatchGrid(np.random.default_rng(3).standard_normal((2, 3, 1500)), 1500, 250.0)
        assert band_powers(grid).shape[-1] == N_BANDS == 8
        assert param_shapes(tiny_cfg())["embed.freq.w"][0] == N_BANDS
        assert param_shapes(preset("base"))["embed.freq.w"] == (N_BANDS, 2048)

    @pytest.mark.parametrize("line", ["n_bands=8", "interleave=False", "head_dim_k=None"])
    def test_removed_config_key_is_named(self, line):
        key = line.split("=")[0]
        with pytest.raises(FormatError, match=f"ck.fckp: config record has unknown key '{key}'"):
            read_checkpoint(checkpoint_with_record(line), "ck.fckp")
        with pytest.raises(TypeError):
            ModelConfig(**{key: 8})

    def test_every_field_has_a_setter(self):
        # a field that no preset, --ablate value, --scale or the data fit
        # sets is a knob no command can turn
        import argparse

        from fome import cli

        def changed(a, b):
            return {f.name for f in fields(ModelConfig) if getattr(a, f.name) != getattr(b, f.name)}

        set_by = {key for values in model._PRESETS.values() for key in values}
        commands = next(a for a in cli.build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        flags = {a.dest: a.choices for a in commands["pretrain"]._actions}

        def fitted(argv, patches=1, length=8):
            grid = PatchGrid(np.zeros((1, patches, length)), length, 250.0)
            return cli._fit_model(commands["pretrain"].parse_args(argv), [grid], None)[0]

        base = fitted([])
        for flag, dest in (("--scale", "attn_scale"), ("--ablate", "ablate")):
            for value in flags[dest]:
                set_by |= changed(fitted([flag, value]), base)
        # conv_kernel 4 does not divide 6
        conv = fitted(["--ablate", "conv-embed"])
        set_by |= changed(fitted(["--ablate", "conv-embed"], conv.max_patches + 1, 6), conv)
        assert set_by == {f.name for f in fields(ModelConfig)}

    @pytest.mark.parametrize("line", [
        "patch_len=abc", "conv_embed=True\nconv_kernel=0", "max_patches=-1", "head_dim_k=x",
        "use_freq_embed=1", "heads=2.0", "dropout=nan", "dropout=True", "ffn_dim=0",
        "attn_scale=1", "model_dim=4\nheads=8\nhead_dim_k=2", "n_bands=4",
        "patch_len= 8", "patch_len=08", "dropout=0.00", "patch_len=None", "preset=tiny",
        "# comment", "", "model_dim",
    ])
    def test_config_record_field_types_and_ranges(self, line):
        # each value must read back as its field's type writes it, and the
        # record takes no preset line or comment
        with pytest.raises(FormatError, match="^ck.fckp: config"):
            read_checkpoint(checkpoint_with_record(line), "ck.fckp")


class TestEmbed:
    def test_zero_weights_leave_only_position(self, rng):
        cfg = tiny_cfg()
        store = zeroed_store(cfg)
        pos = rng.standard_normal((cfg.max_patches, cfg.model_dim))
        store["embed.pos"].data[...] = pos
        grid, bands = random_inputs(rng, cfg, channels=2, patches=3)
        out = embed(grid, bands, store, cfg)
        expected = np.broadcast_to(pos[:3], (2, 3, cfg.model_dim))
        np.testing.assert_array_equal(out.data, expected)

    def test_identical_patches_differ_only_by_position(self, rng):
        cfg = tiny_cfg()
        store = ParameterStore.initialize(cfg, seed=4)
        patch = rng.standard_normal(cfg.patch_len)
        band = np.abs(rng.standard_normal(N_BANDS))
        grid = np.stack([patch, patch])[None, :, :]
        bands = np.stack([band, band])[None, :, :]
        out = embed(grid, bands, store, cfg).data
        pos = store["embed.pos"].data
        np.testing.assert_allclose(
            out[0, 0] - out[0, 1], pos[0] - pos[1], atol=1e-12
        )

    def test_additive_composition_is_exact(self, rng):
        cfg = tiny_cfg()
        store = ParameterStore.initialize(cfg, seed=4)
        grid, bands = random_inputs(rng, cfg)
        out = embed(grid, bands, store, cfg).data
        patches = Tensor(grid)
        e_patch = nm.add(matmul(patches, store["embed.patch.w"]), store["embed.patch.b"]).data
        weights = nm.softmax(Tensor(bands), axis=-1)
        e_freq = nm.add(matmul(weights, store["embed.freq.w"]), store["embed.freq.b"]).data
        e_pos = store["embed.pos"].data[:4][None, :, :]
        np.testing.assert_array_equal(out, e_patch + e_freq + e_pos)

    def test_capacity_error(self, rng):
        cfg = tiny_cfg(max_patches=2)
        store = ParameterStore.initialize(cfg, seed=0)
        grid, bands = random_inputs(rng, cfg, patches=3)
        with pytest.raises(CapacityError):
            embed(grid, bands, store, cfg)

    def test_band_shape_checked(self, rng):
        cfg = tiny_cfg()
        store = ParameterStore.initialize(cfg, seed=0)
        grid, _ = random_inputs(rng, cfg)
        bad = np.zeros((1, 1, N_BANDS))
        with pytest.raises(ConfigError):
            embed(grid, bad, store, cfg)


class TestEncoderOracles:
    def test_temporal_block_matches_straight_line(self, rng):
        cfg = tiny_cfg(heads=1, model_dim=4, ffn_dim=8, patch_len=6)
        store = ParameterStore.initialize(cfg, seed=9)
        x = rng.standard_normal((2, 3, 4))
        ours = temporal_attention(Tensor(x), store, 0, cfg).data
        ref = encoder_block_oracle(x, store.arrays(), "temporal0",
                                   cfg.heads, cfg.d_k, cfg.scale_denominator)
        assert np.max(np.abs(ours - ref)) < 1e-10

    def test_channel_block_matches_straight_line(self, rng):
        cfg = tiny_cfg()
        store = ParameterStore.initialize(cfg, seed=10)
        x = rng.standard_normal((3, 4, cfg.model_dim))
        ours = channel_attention(Tensor(x), store, 0, cfg).data
        ref = encoder_block_oracle(x.transpose(1, 0, 2), store.arrays(), "channel0",
                                   cfg.heads, cfg.d_k, cfg.scale_denominator)
        assert np.max(np.abs(ours - ref.transpose(1, 0, 2))) < 1e-10

    def test_dk_scaling_variant(self, rng):
        cfg = tiny_cfg(attn_scale="dk")
        assert cfg.scale_denominator == np.sqrt(cfg.d_k)
        store = ParameterStore.initialize(cfg, seed=11)
        x = rng.standard_normal((2, 3, cfg.model_dim))
        ours = temporal_attention(Tensor(x), store, 0, cfg).data
        ref = encoder_block_oracle(x, store.arrays(), "temporal0",
                                   cfg.heads, cfg.d_k, cfg.scale_denominator)
        assert np.max(np.abs(ours - ref)) < 1e-10

    @pytest.mark.parametrize("overrides, lead", [
        (dict(), (3,)),
        (dict(heads=1, model_dim=4, ffn_dim=8, patch_len=6), (2,)),
        (dict(model_dim=12, heads=3, ffn_dim=24), (2, 3)),
        (dict(heads=4, attn_scale="dk", dropout=0.2), (2, 3)),
    ], ids=["heads2", "heads1", "heads3-batched", "dropout-batched"])
    def test_fused_block_matches_primitive_ops_bitwise(self, overrides, lead):
        cfg = tiny_cfg(**overrides)
        gen = np.random.default_rng(len(lead) + cfg.heads)
        x_data = gen.standard_normal(lead + (5, cfg.model_dim))
        target = Tensor(gen.standard_normal(x_data.shape))
        runs = []
        for block in (model._encoder_block, primitive_encoder_block):
            store = ParameterStore.initialize(cfg, seed=31)
            x = Tensor(x_data.copy(), requires_grad=True)
            with nm.Tape():
                out = block(x, store, "temporal0", cfg, Rng(9) if cfg.dropout else None)
                loss = mse(out, target)
            nm.backward(loss)
            grads = {name: t.grad.tobytes() for name, t in store.items()
                     if name.startswith("temporal0.")}
            runs.append((out.data.tobytes(), x.grad.tobytes(), grads))
        (fused_out, fused_dx, fused_grads), (ref_out, ref_dx, ref_grads) = runs
        assert fused_out == ref_out
        assert fused_dx == ref_dx
        assert fused_grads.keys() == ref_grads.keys() and len(fused_grads) == 12
        for name in ref_grads:
            assert fused_grads[name] == ref_grads[name], name

    def test_single_patch_attention_is_value_passthrough(self, rng):
        # with P=1 the softmax weight is exactly 1, so the attention output
        # (pre-residual) is V @ Wo; verify through the straight-line oracle
        cfg = tiny_cfg()
        store = ParameterStore.initialize(cfg, seed=12)
        x = rng.standard_normal((2, 1, cfg.model_dim))
        ours = temporal_attention(Tensor(x), store, 0, cfg).data
        ref = encoder_block_oracle(x, store.arrays(), "temporal0",
                                   cfg.heads, cfg.d_k, cfg.scale_denominator)
        np.testing.assert_allclose(ours, ref, atol=1e-12)

    def test_single_channel_degenerates_gracefully(self, rng):
        cfg = tiny_cfg()
        store = ParameterStore.initialize(cfg, seed=13)
        x = rng.standard_normal((1, 4, cfg.model_dim))
        out = channel_attention(Tensor(x), store, 0, cfg)
        assert out.shape == (1, 4, cfg.model_dim)

    def test_temporal_block_is_per_channel(self, rng):
        cfg = tiny_cfg()
        store = ParameterStore.initialize(cfg, seed=14)
        x = rng.standard_normal((4, 3, cfg.model_dim))
        base = temporal_attention(Tensor(x), store, 0, cfg).data
        perm = np.array([3, 1, 0, 2])
        shuffled = temporal_attention(Tensor(x[perm]), store, 0, cfg).data
        assert np.array_equal(shuffled, base[perm])

    def test_channel_block_is_permutation_equivariant(self, rng):
        cfg = tiny_cfg()
        store = ParameterStore.initialize(cfg, seed=15)
        x = rng.standard_normal((5, 3, cfg.model_dim))
        base = channel_attention(Tensor(x), store, 0, cfg).data
        perm = np.array([4, 0, 3, 1, 2])
        shuffled = channel_attention(Tensor(x[perm]), store, 0, cfg).data
        assert np.array_equal(shuffled, base[perm])


class TestForward:
    def test_empty_mask_equals_no_mask(self, rng):
        cfg = tiny_cfg()
        store = ParameterStore.initialize(cfg, seed=20)
        grid, bands = random_inputs(rng, cfg)
        a = forward(grid, bands, store, cfg).data
        b = forward(grid, bands, store, cfg, mask=np.zeros((3, 4), dtype=bool)).data
        assert np.array_equal(a, b)

    def test_all_masked_erases_input(self, rng):
        cfg = tiny_cfg()
        store = ParameterStore.initialize(cfg, seed=21)
        grid1, bands1 = random_inputs(rng, cfg)
        grid2, bands2 = random_inputs(rng, cfg)
        everything = np.ones((3, 4), dtype=bool)
        out1 = forward(grid1, bands1, store, cfg, mask=everything).data
        out2 = forward(grid2, bands2, store, cfg, mask=everything).data
        assert np.array_equal(out1, out2)

    def test_masking_changes_output(self, rng):
        cfg = tiny_cfg()
        store = ParameterStore.initialize(cfg, seed=22)
        grid, bands = random_inputs(rng, cfg)
        plain = forward(grid, bands, store, cfg).data
        first_slot = np.zeros((3, 4), dtype=bool)
        first_slot[0, 0] = True
        masked = forward(grid, bands, store, cfg, mask=first_slot).data
        assert not np.array_equal(plain, masked)

    def test_mask_keeps_position_information(self, rng):
        cfg = tiny_cfg()
        store = ParameterStore.initialize(cfg, seed=23)
        grid, bands = random_inputs(rng, cfg, channels=1, patches=2)
        e = embed(grid, bands, store, cfg)
        masked = model.apply_mask(e, np.ones((1, 2), dtype=bool), store, cfg).data
        expected = store["embed.mask"].data[None, :] + store["embed.pos"].data[:2]
        np.testing.assert_array_equal(masked[0], expected)

    def test_mask_of_wrong_shape_raises(self, rng):
        cfg = tiny_cfg()
        store = ParameterStore.initialize(cfg, seed=24)
        grid, bands = random_inputs(rng, cfg)  # slots (3, 4)
        e = embed(grid, bands, store, cfg)
        # (1, 4) and (3, 1) would broadcast against (3, 4) in numpy
        for shape in ((1, 4), (3, 1), (4, 3), (3, 4, 1), (2, 3, 4), (12,)):
            with pytest.raises(ShapeError):
                model.apply_mask(e, np.ones(shape, dtype=bool), store, cfg)
            with pytest.raises(ShapeError):
                forward(grid, bands, store, cfg, mask=np.zeros(shape, dtype=bool))

    def test_full_network_channel_equivariance_bitwise(self, rng):
        cfg = tiny_cfg()
        store = ParameterStore.initialize(cfg, seed=25)
        grid, bands = random_inputs(rng, cfg, channels=5)
        perm = np.array([2, 4, 0, 1, 3])
        base = forward(grid, bands, store, cfg).data
        shuffled = forward(grid[perm], bands[perm], store, cfg).data
        assert np.array_equal(shuffled, base[perm])

    def test_variable_channel_counts_one_store(self, rng):
        cfg = tiny_cfg()
        store = ParameterStore.initialize(cfg, seed=26)
        for channels in (1, 3, 19, 64):
            grid, bands = random_inputs(rng, cfg, channels=channels)
            out = forward(grid, bands, store, cfg)
            assert out.shape == (channels, 4, cfg.model_dim)

    @pytest.mark.parametrize("overrides", [{}, {"conv_embed": True},
                                           {"temporal_layers": 2, "channel_layers": 2}])
    def test_stack_with_mask_gates_equals_per_sample_bitwise(self, rng, overrides):
        cfg = tiny_cfg(**overrides)
        store = ParameterStore.initialize(cfg, seed=28)
        store.add(classify_head_shapes(cfg, 3), seed=29)
        store.add(forecast_head_shapes(cfg, 4, 2), seed=30)
        inputs = [random_inputs(rng, cfg, channels=5) for _ in range(3)]
        masks = np.zeros((3, 5, 4), dtype=bool)
        masks[0, [0, 3], [0, 2]] = True  # sample 1 masks nothing
        masks[2, :, 1] = True
        e = forward(np.stack([g for g, _ in inputs]),
                    np.stack([b for _, b in inputs]), store, cfg, mask=masks)
        heads = (lambda x: x, lambda x: head_classify(x, store, 3),
                 lambda x: head_forecast(x, store, 2))
        for b, (grid, bands) in enumerate(inputs):
            alone = forward(grid, bands, store, cfg, mask=masks[b])
            for head in heads:
                assert head(e).data[b].tobytes() == head(alone).data.tobytes()


class TestMaskedEmbedding:
    @staticmethod
    def _taped(run, patches, bands, store, cfg, mask, target):
        """The output and every parameter's gradient (None where it gets
        none) of `run` under an MSE loss, as bytes."""
        for _, tensor in store.items():
            tensor.grad = None
        with nm.Tape():
            out = run(patches, bands, store, cfg, mask)
            loss = mse(out, Tensor(target))
        nm.backward(loss)
        return out.data.tobytes(), {name: None if t.grad is None else t.grad.tobytes()
                                    for name, t in store.items()}

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), ablation=st.sampled_from([None, "conv-embed"]),
           lead=st.sampled_from([(), (1,), (2,), (3,)]),
           kind=st.sampled_from(["random", "none", "all"]))
    def test_masked_forward_matches_full_row_chain_bitwise(self, data, ablation, lead, kind):
        cfg = tiny_cfg() if ablation is None else apply_ablation(tiny_cfg(), ablation)
        channels = data.draw(st.integers(1, 4))
        slots = lead + (channels, data.draw(st.integers(1, cfg.max_patches)))
        n = int(np.prod(slots))
        if kind == "random":
            mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        else:
            mask = np.full(n, kind == "all")
        mask = mask.reshape(slots)
        gen = Rng(data.draw(st.integers(0, 2**32 - 1)))
        patches = gen.normals(n * cfg.patch_len).reshape(slots + (cfg.patch_len,))
        bands = np.abs(gen.normals(n * N_BANDS)).reshape(slots + (N_BANDS,))
        target = gen.normals(n * cfg.model_dim).reshape(slots + (cfg.model_dim,))
        store = ParameterStore.initialize(cfg, seed=data.draw(st.integers(0, 2**16)))

        out, grads = self._taped(forward, patches, bands, store, cfg, mask, target)
        ref_out, ref_grads = self._taped(full_row_forward, patches, bands, store, cfg, mask,
                                         target)
        assert out == ref_out
        assert grads == ref_grads
        assert grads["embed.patch.w"] is not None
        poisoned = np.where(mask[..., None], np.nan, patches)
        assert forward(poisoned, bands, store, cfg, mask=mask).data.tobytes() == out


class TestAblations:
    def test_no_freq_drops_parameters_and_runs(self, rng):
        cfg = apply_ablation(tiny_cfg(), "freq")
        store = ParameterStore.initialize(cfg, seed=30)
        assert "embed.freq.w" not in store
        grid, _ = random_inputs(rng, cfg)
        out = forward(grid, None, store, cfg)
        assert out.shape == (3, 4, cfg.model_dim)

    def test_no_temporal_and_no_channel(self, rng):
        for name, attr in (("temporal", "temporal_layers"), ("channel", "channel_layers")):
            cfg = apply_ablation(tiny_cfg(), name)
            assert getattr(cfg, attr) == 0
            store = ParameterStore.initialize(cfg, seed=31)
            grid, bands = random_inputs(rng, cfg)
            out = forward(grid, bands, store, cfg)
            assert out.shape == (3, 4, cfg.model_dim)

    def test_conv_embedder(self, rng):
        cfg = apply_ablation(tiny_cfg(), "conv-embed")
        store = ParameterStore.initialize(cfg, seed=32)
        assert store["embed.patch.w"].shape == (cfg.conv_kernel, cfg.model_dim)
        grid, bands = random_inputs(rng, cfg)
        out = forward(grid, bands, store, cfg)
        assert out.shape == (3, 4, cfg.model_dim)

    def test_unknown_ablation(self):
        with pytest.raises(ConfigError):
            apply_ablation(tiny_cfg(), "everything")


class TestHeads:
    def test_classify_probabilities_sum_to_one(self, rng):
        cfg = tiny_cfg()
        store = ParameterStore.initialize(cfg, seed=40)
        store.add(classify_head_shapes(cfg, 5), seed=41)
        e = Tensor(rng.standard_normal((3, 4, cfg.model_dim)))
        probs = head_classify(e, store, 5).data
        assert abs(probs.sum() - 1.0) < 1e-9
        assert np.all(probs > 0)

    def test_single_class_probability_is_one(self, rng):
        cfg = tiny_cfg()
        store = ParameterStore.initialize(cfg, seed=42)
        store.add(classify_head_shapes(cfg, 1), seed=43)
        e = Tensor(rng.standard_normal((2, 3, cfg.model_dim)))
        np.testing.assert_array_equal(head_classify(e, store, 1).data, [1.0])

    def test_zero_weights_give_uniform(self, rng):
        cfg = tiny_cfg()
        store = zeroed_store(cfg)
        store.add(classify_head_shapes(cfg, 4), seed=44)
        for name, tensor in store.items():
            if name.startswith("head.cls."):
                tensor.data[...] = 0.0
        e = Tensor(rng.standard_normal((2, 3, cfg.model_dim)))
        np.testing.assert_allclose(head_classify(e, store, 4).data, 0.25, atol=1e-15)

    def test_reconstruct_shapes_and_zero_case(self, rng):
        cfg = tiny_cfg()
        store = ParameterStore.initialize(cfg, seed=45)
        store.add(reconstruct_head_shapes(cfg), seed=46)
        e = Tensor(np.zeros((3, 4, cfg.model_dim)))
        store["head.recon.b"].data[...] = 0.0
        out = head_reconstruct(e, store).data
        assert out.shape == (3, 4, cfg.patch_len)
        assert np.all(out == 0.0)

    def test_forecast_zero_embedding_zero_bias(self, rng):
        cfg = tiny_cfg()
        store = ParameterStore.initialize(cfg, seed=47)
        store.add(forecast_head_shapes(cfg, context_patches=4, horizon_patches=2), seed=48)
        store["head.fcst.b"].data[...] = 0.0
        e = Tensor(np.zeros((3, 4, cfg.model_dim)))
        out = head_forecast(e, store, 2).data
        assert out.shape == (3, 2 * cfg.patch_len)
        assert np.all(out == 0.0)

    def test_forecast_horizon_sample_arithmetic(self):
        # with the canonical 1500-sample patch: 2 patches -> 3000 samples
        # (12 s at 250 Hz), 5 patches -> 7500 samples (30 s)
        cfg = preset("base")
        assert forecast_head_shapes(cfg, 15, 2)["head.fcst.w"][1] == 3000
        assert forecast_head_shapes(cfg, 15, 5)["head.fcst.w"][1] == 7500

    def test_forecast_context_mismatch(self, rng):
        cfg = tiny_cfg()
        store = ParameterStore.initialize(cfg, seed=49)
        store.add(forecast_head_shapes(cfg, context_patches=4, horizon_patches=2), seed=50)
        e = Tensor(np.zeros((3, 5, cfg.model_dim)))
        with pytest.raises(ConfigError):
            head_forecast(e, store, 2)


# Channel-permutation invariance through the heads, at a 19-channel montage.
# The inputs are built once: hypothesis draws only the permutations.
PERM_C, PERM_P = 19, 4
PERM_CFG = preset("tiny", model_dim=32, heads=4, ffn_dim=64)


@lru_cache(maxsize=None)
def _perm_case(duplicate: bool):
    gen = np.random.default_rng(60)
    patches = gen.standard_normal((PERM_C, PERM_P, PERM_CFG.patch_len))
    powers = np.abs(gen.standard_normal((PERM_C, PERM_P, N_BANDS)))
    if duplicate:  # channels 7 and 12 copy 3; channel 15 copies 0
        for src, dst in ((3, 7), (3, 12), (0, 15)):
            patches[dst], powers[dst] = patches[src], powers[src]
    store = ParameterStore.initialize(PERM_CFG, seed=61)
    store.add(classify_head_shapes(PERM_CFG, 5), seed=62)
    store.add(reconstruct_head_shapes(PERM_CFG), seed=63)
    store.add(forecast_head_shapes(PERM_CFG, PERM_P, 2), seed=64)
    return patches, powers, store


def _run_heads(patches, powers, store):
    e = forward(patches, powers, store, PERM_CFG)
    return (e.data, head_classify(e, store, 5).data,
            head_reconstruct(e, store).data, head_forecast(e, store, 2).data)


@lru_cache(maxsize=None)
def _perm_base(duplicate: bool):
    return _run_heads(*_perm_case(duplicate))


class TestChannelPermutation:
    @settings(max_examples=10, deadline=None)
    @given(perm=st.permutations(range(PERM_C)), duplicate=st.booleans())
    def test_heads_follow_channel_permutation_bitwise(self, perm, duplicate):
        perm = np.array(perm)
        patches, powers, store = _perm_case(duplicate)
        enc, probs, recon, fcst = _perm_base(duplicate)
        p_enc, p_probs, p_recon, p_fcst = _run_heads(patches[perm], powers[perm], store)
        assert np.array_equal(p_probs, probs)
        assert np.array_equal(p_enc, enc[perm])
        assert np.array_equal(p_recon, recon[perm])
        assert np.array_equal(p_fcst, fcst[perm])

    def test_duplicated_channels_give_identical_outputs(self):
        enc, _, recon, fcst = _perm_base(True)
        for out in (enc, recon, fcst):
            assert np.array_equal(out[3], out[7]) and np.array_equal(out[3], out[12])
            assert np.array_equal(out[0], out[15])

    @settings(max_examples=50, deadline=None)
    @given(perm=st.permutations(range(6)))
    def test_canonical_order_ties_only_identical_rows(self, perm):
        rows = np.array([[[1.0, 0.0]], [[1.0, -0.0]], [[2.0, 5.0]],
                         [[1.0, 0.0]], [[np.inf, -1.0]], [[-3.0, 0.5]]])
        order = model._canonical_order(rows)
        canon = rows[order]
        assert len({r.tobytes() for r in canon}) == 5  # -0.0 is not 0.0
        shuffled = rows[np.array(perm)]
        assert canon.tobytes() == shuffled[model._canonical_order(shuffled)].tobytes()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_last_bit_changes_keep_the_order(self, seed):
        # (2, 19, 3, 4): two samples of 19 distinct random channel rows
        rows = np.random.default_rng(seed).standard_normal((2, 19, 3, 4))
        flipped = (rows.view(np.uint64) ^ np.uint64(1)).view(np.float64)
        assert not np.array_equal(flipped, rows)
        assert np.array_equal(model._canonical_order(flipped), model._canonical_order(rows))


def store_holding(arrays: dict) -> ParameterStore:
    """A store of exactly `arrays`, in order, whatever their names, shapes
    and values (`ParameterStore.add` draws its own values)."""
    store = ParameterStore()
    for name, array in arrays.items():
        store._tensors[name] = Tensor(np.asarray(array, dtype=np.float64), requires_grad=True)
    return store


def fckp_record(name: str, tag: int, dims: tuple, data: bytes) -> bytes:
    """One FCKP record built by hand, for dtype tags `conftest.fckp_bytes`
    does not write."""
    encoded = name.encode("utf-8")
    return (struct.pack("<H", len(encoded)) + encoded + bytes([tag, len(dims)])
            + struct.pack(f"<{len(dims)}Q", *dims) + data)


class TestCheckpointFormat:
    def test_round_trip_preserves_order_and_values(self, rng, tmp_path):
        named = {
            "zulu.w": rng.standard_normal((3, 4)),
            "alpha.b": rng.standard_normal(7),
            "mid.scalar": np.array(4.25),
        }
        path = tmp_path / "t.fckp"
        save_params(store_holding(named), path)
        recorded, back = read_checkpoint(path.read_bytes())
        assert recorded is None
        assert list(back) == ["zulu.w", "alpha.b", "mid.scalar"]
        for key, value in named.items():
            np.testing.assert_array_equal(back[key], value)

    def test_float32_tag_is_read_and_widened(self):
        values = np.array([1.0, -0.0, np.inf, 1e-45, 3.4028235e38, -2.5], dtype="<f4")
        blob = b"FCKP" + struct.pack("<I", 1) + fckp_record("x", 1, (2, 3), values.tobytes())
        _, back = read_checkpoint(blob)
        assert back["x"].dtype == np.float64 and back["x"].shape == (2, 3)
        assert back["x"].astype("<f4").tobytes() == values.tobytes()

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="bad magic"):
            read_checkpoint(b"JUNKJUNKJUNK")

    def test_truncation_detected(self, rng, tmp_path):
        path = tmp_path / "t.fckp"
        save_params(store_holding({"x": rng.standard_normal((4, 4))}), path)
        with pytest.raises(FormatError):
            read_checkpoint(path.read_bytes()[:-10])

    @pytest.mark.parametrize("cfg", [None, tiny_cfg()], ids=["tensor", "config-record"])
    def test_every_truncation_and_byte_flip_loads_or_is_format_error(self, tmp_path, cfg):
        path = tmp_path / "t.fckp"
        save_params(store_holding({"w": np.arange(6.0).reshape(2, 3)}), path, cfg)
        blob = path.read_bytes()
        cases = [blob[:end] for end in range(len(blob))]
        cases += [blob[:i] + bytes([blob[i] ^ bits]) + blob[i + 1:]
                  for i in range(len(blob)) for bits in (0x01, 0x80, 0xFF)]
        for case in cases:
            try:
                read_checkpoint(case)
            except FormatError:
                pass

    def test_config_record_layout(self, tmp_path):
        path = tmp_path / "t.fckp"
        save_params(store_holding({"w": np.ones(2)}), path, tiny_cfg())
        blob, text = path.read_bytes(), record_text(tiny_cfg()).encode()
        # tag 2, rank 1, the UTF-8 byte length as the one dim, then the bytes
        assert blob[8:16] == struct.pack("<H", 6) + b"config" and blob[16:18] == bytes([2, 1])
        assert blob[18:26] == struct.pack("<Q", len(text)) and blob[26:26 + len(text)] == text

    @pytest.mark.parametrize("rank, payload, message", [
        (2, struct.pack("<QQ", 1, 2) + b"ab", "text record 'config' has rank 2, not 1"),
        (1, struct.pack("<Q", 2) + b"\xff\xfe", "truncated or corrupt"),
    ], ids=["rank-2", "not-utf8"])
    def test_bad_text_record_is_format_error(self, rank, payload, message):
        blob = b"FCKP" + struct.pack("<IH", 1, 6) + b"config" + bytes([2, rank]) + payload
        with pytest.raises(FormatError, match=message):
            read_checkpoint(blob)

    @pytest.mark.parametrize("name, record", [
        ("w", fckp_record("w", 0, (1,), struct.pack("<d", 1.0))),
        ("config", fckp_record("config", 2, (0,), b"")),
    ], ids=["tensor", "config"])
    def test_duplicate_record_name_rejected(self, name, record):
        with pytest.raises(FormatError, match=f"'{name}' appears twice"):
            read_checkpoint(b"FCKP" + struct.pack("<I", 2) + record + record)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), recorded=st.sampled_from([None, tiny_cfg(attn_scale="dk")]))
    def test_round_trip_is_bitwise(self, tmp_path_factory, data, recorded):
        # any tensor names but the config record's, any float64 values
        names = data.draw(st.lists(st.text(st.characters(codec="utf-8"), max_size=8)
                                   .filter(lambda name: name != "config"),
                                   max_size=5, unique=True))
        named = {
            name: data.draw(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3,
                                                                    min_side=0, max_side=4)))
            for name in names
        }
        path = tmp_path_factory.mktemp("fckp") / "t.fckp"
        save_params(store_holding(named), path, recorded)
        blob = path.read_bytes()
        record = {} if recorded is None else {"config": record_text(recorded)}
        assert blob == fckp_bytes({**record, **named})
        config, back = read_checkpoint(blob)
        assert config == recorded and list(back) == names
        for name, array in named.items():
            assert back[name].dtype == np.float64 and back[name].shape == array.shape
            assert back[name].tobytes() == array.tobytes()


class TestPersistence:
    def test_checkpoint_round_trip_with_validation(self, rng, tmp_path):
        cfg = tiny_cfg()
        store = ParameterStore.initialize(cfg, seed=60)
        store.add(reconstruct_head_shapes(cfg), seed=61)
        path = tmp_path / "m.fckp"
        save_params(store, path)
        back = load_params(path, cfg)
        assert list(back.arrays()) == list(store.arrays())
        for name, tensor in store.items():
            np.testing.assert_array_equal(back[name].data, tensor.data)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_reads_but_does_not_load(self, tmp_path, value):
        # the format holds any float; a store for training holds finite ones
        cfg = tiny_cfg()
        store = ParameterStore.initialize(cfg, seed=60)
        store["embed.pos"].data[3, 1] = value
        path = tmp_path / "m.fckp"
        save_params(store, path, cfg)
        _, arrays = read_checkpoint(path.read_bytes())
        assert arrays["embed.pos"].tobytes() == store["embed.pos"].data.tobytes()
        with pytest.raises(DataError, match="m.fckp: tensor 'embed.pos' holds a non-finite"):
            load_params(path, cfg)

    def test_checkpoint_wrong_config_rejected(self, rng, tmp_path):
        cfg = tiny_cfg()
        store = ParameterStore.initialize(cfg, seed=62)
        path = tmp_path / "m.fckp"
        save_params(store, path)
        with pytest.raises(FormatError):
            load_params(path, tiny_cfg(model_dim=16, heads=2))

    def test_config_record_round_trip(self, tmp_path):
        cfg = tiny_cfg(attn_scale="dk", dropout=0.1, conv_embed=True)
        store = ParameterStore.initialize(cfg, seed=63)
        path = tmp_path / "m.fckp"
        save_params(store, path, cfg)
        recorded, arrays = read_checkpoint(path.read_bytes())
        assert recorded == cfg
        assert list(arrays) == list(store.arrays())
        # the record leads the file: one key=value line per field, in field order
        assert path.read_bytes() == fckp_bytes({"config": record_text(cfg), **store.arrays()})
        assert list(load_params(path, cfg).arrays()) == list(store.arrays())

    def test_record_that_differs_from_the_config_is_named(self, tmp_path):
        cfg = tiny_cfg(attn_scale="dk")
        path = tmp_path / "m.fckp"
        save_params(ParameterStore.initialize(cfg, seed=64), path, cfg)
        with pytest.raises(ConfigError, match="attn_scale='dk' where the run has 'd'"):
            load_params(path, tiny_cfg())
        with pytest.raises(ConfigError, match="^<bytes> records dropout=0.0 where the run has "
                                              "0.1, attn_scale='dk' where the run has 'd'$"):
            params_from_checkpoint(*read_checkpoint(path.read_bytes()), tiny_cfg(dropout=0.1))

    def test_text_other_than_the_config_record_is_refused(self):
        arrays = ParameterStore.initialize(tiny_cfg(), seed=65).arrays()
        for records in ({"notes": "hello", **arrays}, {"config": np.ones(3), **arrays}):
            with pytest.raises(FormatError, match="config record alone is text"):
                read_checkpoint(fckp_bytes(records))

    @pytest.mark.parametrize("line", ["patch_len=8", "dropout=0.1"])
    def test_repeated_config_key_is_named(self, line):
        text = record_text(tiny_cfg()) + line + "\n"
        key = line.split("=")[0]
        with pytest.raises(FormatError, match=f"^ck.fckp: config record repeats key '{key}'$"):
            read_checkpoint(fckp_bytes({"config": text}), "ck.fckp")

    def test_missing_config_key_is_named(self):
        text = record_text(tiny_cfg()).replace("heads=2\n", "")
        with pytest.raises(FormatError, match="^ck.fckp: config record lacks key 'heads'$"):
            read_checkpoint(fckp_bytes({"config": text}), "ck.fckp")

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_corrupt_record_loads_or_is_format_error(self, data):
        cfg = tiny_cfg(attn_scale="dk", dropout=0.1)
        blob = fckp_bytes({"config": record_text(cfg), "w": np.arange(3.0)})
        try:
            recorded, _ = read_checkpoint(mutated(data, blob))
            assert recorded is None or isinstance(recorded, ModelConfig)
        except FormatError:
            pass

    def test_initialization_is_seed_deterministic(self):
        cfg = tiny_cfg()
        a = ParameterStore.initialize(cfg, seed=5)
        b = ParameterStore.initialize(cfg, seed=5)
        c = ParameterStore.initialize(cfg, seed=6)
        for name, tensor in a.items():
            assert np.array_equal(tensor.data, b[name].data)
        assert any(
            not np.array_equal(tensor.data, c[name].data) for name, tensor in a.items()
        )
