"""Smoke test of the benchmark in `bench/`: each workload builds and its
calls pass their own output checks, so a change to what the benchmark
calls fails here and not only in a benchmark run."""

import os

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import workloads

    return workloads


@pytest.mark.parametrize("name", ["train-tiny", "pretrain-desk", "infer-hd", "ingest"])
def test_workload_calls_pass_their_checks(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name](seed=1, workdir=str(tmp_path))
    # the second call checks that the first one's results repeat bit for bit
    for i in range(2):
        call = workload.call(i)
        assert call.failures == [], (name, i)
        assert call.samples > 0 and call.wall_s > 0
