"""Per-layer metrics: how traced spans and counters map to metric names.

Times are milliseconds per traced call: the sum over the traced calls of a
run divided by their number.  Every call does the same work, so a figure
does not grow when a faster program fits more calls into the run.  A
`SELF` metric is the self time of the listed functions (span minus child
spans), so the seven `<layer>.self_ms` and `trace.unattributed_ms` add up
to `trace.wall_ms` by construction.  The unattributed time includes the
tracer's own counting work, which `trace.bookkeeping_ms` also reports on
its own.  An `INCLUSIVE` metric is the whole span of a block's call and
overlaps the self times of the layers it calls.  `model.<block>_bwd_ms` is
the time of the backward closures of the tape nodes the block's forward
appended; it is part of `numerics.backward_ms`.
"""

from __future__ import annotations

# This module imports nothing heavy: run.py reads it before numpy loads.
LAYERS = ("signal_store", "preprocess", "spectral", "numerics", "model", "trainer", "cli")

BOOKKEEPING = "trace.bookkeeping"  # the tracer's own span name

_OPS_OTHER = ("add", "mul", "scale", "log", "transpose", "reshape", "concat", "slice_",
              "embedding_lookup", "mean", "mse")

SELF = {
    "signal_store.synth_ms": ["signal_store.generate_synthetic"],
    "signal_store.codec_ms": ["signal_store.recording_to_bytes",
                              "signal_store.recording_from_bytes",
                              "signal_store.write_recording", "signal_store.read_recording",
                              "signal_store.read_recording_stream"],
    "preprocess.notch_ms": ["preprocess.notch_filter"],
    "preprocess.bandpass_ms": ["preprocess.bandpass_filter"],
    "preprocess.resample_ms": ["preprocess.resample"],
    "preprocess.detrend_ms": ["preprocess.detrend"],
    "preprocess.standardize_ms": ["preprocess.standardize_ema"],
    "preprocess.patch_ms": ["preprocess.window_and_patch"],
    "preprocess.grid_codec_ms": ["preprocess.grid_to_bytes", "preprocess.grid_from_bytes",
                                 "preprocess.write_patch_grid", "preprocess.read_patch_grid"],
    "spectral.dft_ms": ["spectral.dft", "spectral.idft"],
    "numerics.matmul_ms": ["numerics.matmul"],
    "numerics.attn_mix_ms": ["numerics.attn_mix"],
    "numerics.softmax_ms": ["numerics.softmax"],
    "numerics.norm_gelu_ms": ["numerics.layer_norm", "numerics.gelu"],
    "numerics.elementwise_ms": [f"numerics.{op}" for op in _OPS_OTHER],
    "numerics.backward_ms": ["numerics.backward"],
    "trainer.adamw_ms": ["trainer.AdamW.step"],
    "trainer.mask_plan_ms": ["trainer.make_mask_plan"],
    "trainer.loop_self_ms": ["trainer.pretrain", "trainer.finetune_classify",
                             "trainer.finetune_forecast", "trainer.impute"],
}

INCLUSIVE = {
    "spectral.band_powers_ms": ["spectral.band_powers"],
    "model.embed_fwd_ms": ["model.embed"],
    "model.mask_fwd_ms": ["model.apply_mask"],
    "model.temporal_fwd_ms": ["model.temporal_attention"],
    "model.channel_fwd_ms": ["model.channel_attention"],
    "model.head_fwd_ms": ["model.head_reconstruct", "model.head_classify",
                          "model.head_forecast"],
    "trainer.eval_ms": ["trainer.evaluate_classify", "trainer.evaluate_forecast",
                        "trainer.evaluate_impute"],
}

BACKWARD = {f"model.{block}_bwd_ms": block
            for block in ("embed", "mask", "temporal", "channel", "head")}

COUNTERS = {
    "numerics.tape_nodes_per_step": "count",
    "numerics.op_calls_per_step": "count",
    "numerics.taped_mb_per_step": "MB",
    "numerics.matmul_gflop_per_step": "GFLOP",
    "spectral.patches": "count",
    "spectral.recompute_ratio": "ratio",
    "signal_store.bytes": "B",
    "cli.csv_numpy_reprs": "count",
    **{f"{layer}.source_lines": "lines" for layer in LAYERS},
}

TRACE = {
    "trace.wall_ms": "ms",
    "trace.unattributed_ms": "ms",
    "trace.bookkeeping_ms": "ms",
    "trace.calls": "count",
    "trace.samples_per_s": "1/s",
    "trace.untraced_samples_per_s": "1/s",
    "trace.overhead_pct": "%",
}

# The workload-specific end-to-end metrics, printed by name in both modes.
NAMED_UNITS = {
    "pretrain_samples_per_s": "1/s",
    "pretrain_loss_final": "loss",
    "finetune_samples_per_s": "1/s",
    "finetune_accuracy": "fraction",
    "infer_samples_per_s": "1/s",
    "ingest_eeg_s_per_s": "s/s",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {f"{layer}.self_ms": "ms" for layer in LAYERS}
    units.update({name: "ms" for name in (*SELF, *INCLUSIVE, *BACKWARD)})
    units.update(COUNTERS)
    units.update(TRACE)
    return units


def per_layer_metrics(tracer, traced_calls, counters, untraced_per_s, traced_per_s,
                      overhead_pct) -> dict[str, tuple[float, str]]:
    """Metric name -> (value, unit) for a traced run; times per traced call."""
    stats = tracer.stats
    per_call = 1e3 / len(traced_calls)

    def total(names, column):
        return per_call * sum(stats[n][column] for n in names if n in stats)

    values = {}
    for layer in LAYERS:
        names = [n for n in stats if n.startswith(layer + ".")]
        values[f"{layer}.self_ms"] = total(names, 0)
    values.update({name: total(fns, 0) for name, fns in SELF.items()})
    values.update({name: total(fns, 1) for name, fns in INCLUSIVE.items()})
    values.update({name: per_call * tracer.block_bwd[block][0]
                   for name, block in BACKWARD.items()})
    values.update({name: counters.get(name, 0.0) for name in COUNTERS})
    wall = sum(call.wall_s for call, _ in traced_calls)
    spanned = sum(s for _, s in traced_calls)
    bookkeeping = total([BOOKKEEPING], 0)
    values.update({
        "trace.wall_ms": per_call * wall,
        "trace.unattributed_ms": per_call * (wall - spanned) + bookkeeping,
        "trace.bookkeeping_ms": bookkeeping,
        "trace.calls": float(len(traced_calls)),
        "trace.samples_per_s": traced_per_s,
        "trace.untraced_samples_per_s": untraced_per_s,
        "trace.overhead_pct": overhead_pct,
    })
    units = metric_units()
    return {name: (values[name], units[name]) for name in units}
