"""Tests of the benchmark itself: tiny-size smoke runs, wrapper hygiene, metric names.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
for _path in (ROOT, ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perfbench import layers, pipeline, serve  # noqa: E402
from perfbench.tracing import Tracer, default_targets  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {entry["name"]: entry["unit"] for entry in SPEC["end_to_end"]}
PER_LAYER = {entry["name"]: entry["unit"] for entry in SPEC["per_layer"]}

TINY = {
    "pipeline": (pipeline.run, pipeline.TINY),
    "serve_dgcnn": (serve.run_dgcnn, serve.DGCNN_TINY),
    "serve_fleet": (serve.run_fleet, serve.FLEET_TINY),
}


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Every workload at tiny size, untraced and traced, run once for the module."""
    runs = {}
    for name, (run, sizes) in TINY.items():
        for trace in (False, True):
            scratch = tmp_path_factory.mktemp(f"{name}-{int(trace)}")
            runs[name, trace] = run(seed=3, seconds=0.2, trace=trace, scratch=scratch, sizes=sizes)
    return runs


def test_spec_lists_the_workloads_the_runner_knows():
    from perfbench.run import WORKLOADS

    assert [entry["name"] for entry in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["perfbench"]


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_is_correct(tiny_runs, workload, trace):
    result = tiny_runs[workload, trace]
    assert result.checks and all(result.checks.values()), result.checks
    assert result.attempted > 0
    assert result.failed == 0, result.details.get("errors")
    assert result.correct


@pytest.mark.parametrize("workload", sorted(TINY))
def test_untraced_run_reports_every_end_to_end_metric(tiny_runs, workload):
    metrics = tiny_runs[workload, False].metrics
    assert {name: unit for name, (_, unit) in metrics.items()} == END_TO_END
    for name, (value, _) in metrics.items():
        assert value > 0, name


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_run_reports_every_per_layer_metric(tiny_runs, workload):
    metrics = tiny_runs[workload, True].metrics
    assert {name: unit for name, (_, unit) in metrics.items()} == PER_LAYER
    assert PER_LAYER == layers.PER_LAYER


def test_traced_layers_saw_the_work(tiny_runs):
    dgcnn = tiny_runs["serve_dgcnn", True].metrics
    assert dgcnn["graph.knn.calls"][0] > 0
    assert dgcnn["graph.knn.hi_dim_calls"][0] > 0
    assert dgcnn["fig3.measured.sample"][0] > 0
    flow = tiny_runs["pipeline", True].metrics
    for name in ("predictor.forward_graph.calls", "nas.evaluate_path.calls", "workspace.store.saves", "nn.backward.calls"):
        assert flow[name][0] > 0, name
    fleet = tiny_runs["serve_fleet", True].metrics
    assert fleet["serving.engine.batches"][0] > 0
    assert fleet["graph.knn.hi_dim_calls"][0] == 0


def test_wrappers_restore_every_patched_name():
    import repro.nas.search
    import repro.nas.trainer
    from repro.workspace.store import ArtifactStore

    original_train = repro.nas.trainer.train_supernet
    original_save = ArtifactStore.save
    tracer = Tracer(default_targets())
    with tracer:
        # Names bound with ``from ... import`` are patched where they are bound.
        assert repro.nas.search.train_supernet is not original_train
        assert repro.nas.trainer.train_supernet is repro.nas.search.train_supernet
        assert ArtifactStore.save is not original_save
        assert tracer.patches
        engine = serve._dgcnn_engine(serve.DGCNN_TINY)
        engine.submit("dgcnn", next(serve.cloud_stream(0, serve.DGCNN_TINY.points)))
    assert tracer.stats()["graph.knn"].calls > 0
    for owner, name, original in tracer.patches:
        restored = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        assert restored is original, (owner, name)
    assert repro.nas.search.train_supernet is original_train
    assert ArtifactStore.save is original_save


def test_self_time_excludes_children():
    ticks = iter(range(100))
    tracer = Tracer([], clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: inner(), "outer")
    outer()
    stats = tracer.stats()
    assert stats["outer"].total_s == 3.0 and stats["outer"].self_s == 2.0
    assert stats["inner"].total_s == 1.0 and stats["inner"].self_s == 1.0
    assert tracer.root_time() == 3.0


def test_tail_keeps_ten_samples_beyond():
    from perfbench.common import tail

    value, percentile, samples = tail(list(range(40)))
    assert (value, samples) == (29, 40)
    assert sum(1 for v in range(40) if v > value) == 10
    assert percentile == 75.0
