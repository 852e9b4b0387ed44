"""fome benchmark: one workload per process, closed loop, checked outputs.

Run from the repository root:

    python3 bench/run.py --workload train-tiny --seed 1 --seconds 28 --trace 0

The process pins every BLAS/OpenMP thread variable to 1 before numpy is
imported, imports fome from ./src, builds the workload's inputs from
--seed, then calls the workload in a closed loop (one caller; each call
starts when the previous one returned) until --seconds have passed.  Every
call's outputs are checked; a failed check counts as a failed operation.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced calls and prints the per-layer metrics; see bench/README.md for
every metric, its unit and the result schema.  The last line of standard
output is always the result object

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}}}

and the full record, with the environment, is written to
.bench_out/result-<workload>-seed<seed>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from importlib import import_module
from pathlib import Path

import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 3
IMPORTS = ("numpy", "scipy.signal", *(f"fome.{m}" for m in layers.LAYERS))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("train-tiny", "pretrain-desk", "infer-hd", "ingest"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_environment() -> dict[str, str]:
    """Single-threaded BLAS by direct assignment: a value already set in the
    caller's environment must not survive."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["FOME_LOG"] = "WARNING"
    # keep `git describe` in the CLI from searching above the checkout
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return {var: os.environ[var] for var in THREAD_VARS}


def environment(args, threads) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except OSError:
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": threads,
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def source_digest_and_lines() -> tuple[str, dict[str, float]]:
    h = hashlib.sha256()
    lines = {}
    for path in sorted((SRC / "fome").glob("*.py")):
        text = path.read_bytes()
        h.update(path.name.encode() + b"\0" + text)
        if path.stem in layers.LAYERS:
            lines[f"{path.stem}.source_lines"] = float(text.count(b"\n"))
    return h.hexdigest(), lines


def check_counters_across_runs(key: str, counters: dict) -> list[str]:
    """Exact counters must repeat for the same code, workload and seed; the
    first run records them in .bench_out, later runs compare."""
    path = OUT / "exact_counters.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    previous = record.get(key)
    if previous is not None:
        return [f"exact counter {k} = {counters.get(k)!r}, an earlier run gave {v!r}"
                for k, v in previous.items() if counters.get(k) != v]
    record[key] = counters
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return []


def median(values):
    return statistics.median(values) if values else 0.0


def import_everything() -> float:
    """Import numpy, scipy, fome and the benchmark; returns the seconds taken."""
    t0 = time.perf_counter()
    for name in IMPORTS:
        import_module(name)
    import_module("workloads")
    seconds = time.perf_counter() - t0
    fome = sys.modules["fome"]
    if Path(fome.__file__).resolve().parent != (SRC / "fome").resolve():
        print(f"error: imported fome from {fome.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return seconds


def closed_loop(wl, seconds: float, tracer):
    """Call the workload until `seconds` have passed.  With a tracer, odd
    calls are traced; at least one call of each kind is made."""
    from workloads import Call

    calls, traced_calls = [], []  # traced: (Call, seconds inside spans, counters)
    gc.collect()
    t_loop = time.perf_counter()
    i = 0
    while (time.perf_counter() - t_loop < seconds or not calls
           or (tracer is not None and not traced_calls)):
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
            tracer.begin_call()
        try:
            call = wl.call(i)
        except Exception as exc:  # a call that raises is a failed operation
            traceback.print_exc()
            call = Call(0.0, 0, {}, [f"call {i} raised {type(exc).__name__}: {exc}"])
        finally:
            if traced:
                spanned = tracer.end_call()
                tracer.uninstall()
        if traced:
            counters = tracer.counters.exact()
            counters["cli.csv_numpy_reprs"] = float(call.csv_numpy_reprs)
            if traced_calls and counters != traced_calls[0][2]:
                call.failures.append(f"call {i}: exact counters differ from the first traced call")
            # every span must fall inside the call's timed window
            if spanned > call.wall_s + 1e-9:
                call.failures.append(f"call {i}: spans cover {spanned:.6f} s, more than the "
                                     f"{call.wall_s:.6f} s the call took")
            traced_calls.append((call, spanned, counters))
        else:
            calls.append(call)
        i += 1
        gc.collect()
    return calls, traced_calls


def per_s(calls) -> list[float]:
    return [c.samples / c.wall_s for c in calls if not c.failures and c.wall_s > 0]


def run(args) -> dict:
    threads = pin_environment()
    if not (SRC / "fome" / "__init__.py").is_file():
        print(f"error: no fome sources at {SRC / 'fome'}; run from a checkout of the repository",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import_s = import_everything()
    import workloads
    from tracer import Tracer

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        build_s = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
            build_s.append(time.perf_counter() - t0)
        setup_s = import_s + median(build_s)
        tracer = None
        if args.trace:
            mods = {m: sys.modules[f"fome.{m}"] for m in layers.LAYERS}
            aliases = [m for n, m in sys.modules.items() if n.startswith("fome.")]
            tracer = Tracer(mods, aliases)
        calls, traced_calls = closed_loop(wl, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    every_call = calls + [c for c, _, _ in traced_calls]
    failures = [msg for c in every_call for msg in c.failures]
    failed = sum(1 for c in every_call if c.failures)
    attempted = len(every_call)
    ok_calls = [c for c in calls if not c.failures and c.wall_s > 0]
    named = {name: median([c.named[name] for c in ok_calls if name in c.named])
             for name in sorted({k for c in ok_calls for k in c.named})}
    samples_per_s = median(per_s(calls))

    if args.trace:
        digest, source_lines = source_digest_and_lines()
        counters = {**traced_calls[0][2], **source_lines}
        key = f"{args.workload}:seed={args.seed}:src={digest[:16]}"
        # the check of the counters against earlier runs counts as one more
        # operation
        run_checks = check_counters_across_runs(key, counters)
        traced_ok = [c for c, _, _ in traced_calls if not c.failures and c.wall_s > 0]
        overhead_pct = 0.0
        if traced_ok and ok_calls:
            ratio = median([c.wall_s for c in traced_ok]) / median([c.wall_s for c in ok_calls])
            overhead_pct = (ratio - 1.0) * 100.0
        metrics = layers.per_layer_metrics(
            tracer, [(c, s) for c, s, _ in traced_calls], counters,
            untraced_per_s=samples_per_s, traced_per_s=median(per_s(traced_ok)),
            overhead_pct=overhead_pct)
        failures += run_checks
        failed += 1 if run_checks else 0
        attempted += 1
    else:
        metrics = {
            "samples_per_s": (samples_per_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (setup_s, "s"),
        }
    return {
        "env": environment(args, threads),
        "csv_numpy_reprs": max((c.csv_numpy_reprs for c in every_call), default=0),
        "setup": {"import_s": import_s, "build_s": build_s, "setup_s": setup_s},
        "named": named,
        "failures": failures,
        "calls": {"untraced": [c.wall_s for c in calls],
                  "traced": [c.wall_s for c, _, _ in traced_calls]},
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    record = run(args)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for msg in record["failures"]:
        print(f"FAILED {msg}")
    if record["csv_numpy_reprs"]:
        print(f"KNOWN DEFECT fome spectra wrote {record['csv_numpy_reprs']} CSV values as "
              "numpy scalar reprs such as np.float64(x), not plain numbers")
    for name, value in record["named"].items():
        print(f"{args.workload} {name} = {value!r} {layers.NAMED_UNITS[name]}")
    for name, m in record["result"]["metrics"].items():
        print(f"{args.workload} {name} = {m['value']!r} {m['unit']}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
