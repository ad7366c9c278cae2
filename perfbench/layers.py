"""Per-layer metrics of a traced run, and the Fig. 3 category shares.

Every traced run reports every name in :data:`PER_LAYER`.  A layer that
did not run in the process that was traced reports zero; for
``serve_fleet`` the serving layers are filled from the pool's own reports,
because forked workers are not traced.
"""

from __future__ import annotations

from perfbench.common import Result, import_counts
from perfbench.tracing import Tracer

PER_LAYER: dict[str, str] = {
    "graph.knn.calls": "count",
    "graph.knn.self_s": "s",
    "graph.knn.hi_dim_calls": "count",
    "graph.fused.calls": "count",
    "graph.fused.self_s": "s",
    "graph.fused.edges": "count",
    "graph.scatter.calls": "count",
    "graph.scatter.self_s": "s",
    "backends.matmul.self_s": "s",
    "backends.gather.self_s": "s",
    "backends.scatter_add.self_s": "s",
    "backends.scatter_extreme.self_s": "s",
    "backends.segment_reduce.self_s": "s",
    "backends.matmul.flops": "flop",
    "backends.bytes_moved": "bytes",
    "nn.backward.calls": "count",
    "nn.backward.self_s": "s",
    "nn.optim.step_s": "s",
    "predictor.train.self_s": "s",
    "predictor.forward_graph.calls": "count",
    "predictor.predict_latencies.calls": "count",
    "predictor.predict_latencies.graphs": "count",
    "predictor.dataset.self_s": "s",
    "nas.supernet.train_s": "s",
    "nas.evaluate_path.calls": "count",
    "nas.evaluate_path.self_s": "s",
    "nas.evolution.evaluations": "count",
    "nas.evolution.rejections": "count",
    "nas.train_classifier.self_s": "s",
    "hardware.estimate_latency.calls": "count",
    "hardware.estimate_latency.self_s": "s",
    "workspace.store.saves": "count",
    "workspace.store.save_s": "s",
    "workspace.store.bytes_written": "bytes",
    "workspace.store.loads": "count",
    "serving.engine.batches": "count",
    "serving.engine.batch_size_mean": "count",
    "serving.engine.busy_s": "s",
    "serving.engine.queue_ms_p50": "ms",
    "serving.fingerprint.self_s": "s",
    "serving.cache.result_hit_ratio": "ratio",
    "serving.cache.edge_hit_ratio": "ratio",
    "serving.pool.dispatch_overhead_ms_p50": "ms",
    "serving.pool.worker_busy_share": "ratio",
    "serving.pool.served_skew": "ratio",
    "serving.pool.requeued": "count",
    "serving.pool.restarts": "count",
    "serving.pool.failed": "count",
    "serving.pool.generator_lag_ms_max": "ms",
    "serving.diskcache.hits": "count",
    "serving.diskcache.hit_ratio": "ratio",
    "serving.diskcache.puts": "count",
    "cli.import.modules": "count",
    "cli.import.repro_modules": "count",
    "fig3.measured.sample": "ratio",
    "fig3.measured.aggregate": "ratio",
    "fig3.measured.combine": "ratio",
    "fig3.measured.others": "ratio",
    "fig3.model.sample": "ratio",
    "fig3.model.aggregate": "ratio",
    "fig3.model.combine": "ratio",
    "fig3.model.others": "ratio",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

#: ``<metric>`` -> (span name, statistic) for metrics read straight off the spans.
_FROM_SPANS: dict[str, tuple[str, str]] = {
    "graph.knn.calls": ("graph.knn", "calls"),
    "graph.knn.self_s": ("graph.knn", "self_s"),
    "graph.fused.calls": ("graph.fused", "calls"),
    "graph.fused.self_s": ("graph.fused", "self_s"),
    "graph.scatter.calls": ("graph.scatter", "calls"),
    "graph.scatter.self_s": ("graph.scatter", "self_s"),
    "backends.matmul.self_s": ("backends.matmul", "self_s"),
    "backends.gather.self_s": ("backends.gather", "self_s"),
    "backends.scatter_add.self_s": ("backends.scatter_add", "self_s"),
    "backends.scatter_extreme.self_s": ("backends.scatter_extreme", "self_s"),
    "backends.segment_reduce.self_s": ("backends.segment_reduce", "self_s"),
    "nn.backward.calls": ("nn.backward", "calls"),
    "nn.backward.self_s": ("nn.backward", "self_s"),
    "nn.optim.step_s": ("nn.optim.step", "total_s"),
    "predictor.train.self_s": ("predictor.train", "self_s"),
    "predictor.forward_graph.calls": ("predictor.forward_graph", "calls"),
    "predictor.predict_latencies.calls": ("predictor.predict_latencies", "calls"),
    "predictor.dataset.self_s": ("predictor.dataset", "self_s"),
    "nas.supernet.train_s": ("nas.supernet.train", "total_s"),
    "nas.evaluate_path.calls": ("nas.evaluate_path", "calls"),
    "nas.evaluate_path.self_s": ("nas.evaluate_path", "self_s"),
    "nas.train_classifier.self_s": ("nas.train_classifier", "self_s"),
    "hardware.estimate_latency.calls": ("hardware.estimate_latency", "calls"),
    "hardware.estimate_latency.self_s": ("hardware.estimate_latency", "self_s"),
    "workspace.store.saves": ("workspace.store.save", "calls"),
    "workspace.store.save_s": ("workspace.store.save", "total_s"),
    "workspace.store.loads": ("workspace.store.load", "calls"),
    "serving.fingerprint.self_s": ("serving.fingerprint", "self_s"),
}

#: Paper Fig. 3 categories, by the spans whose self time they collect.
_CATEGORIES: dict[str, tuple[str, ...]] = {
    "sample": ("graph.knn", "graph.sample"),
    "aggregate": (
        "graph.fused",
        "graph.scatter",
        "backends.gather",
        "backends.scatter_add",
        "backends.scatter_extreme",
        "backends.segment_reduce",
    ),
    "combine": ("backends.matmul",),
}

_COUNTERS = (
    "graph.knn.hi_dim_calls",
    "graph.fused.edges",
    "backends.matmul.flops",
    "backends.bytes_moved",
    "predictor.predict_latencies.graphs",
    "nas.evolution.evaluations",
    "nas.evolution.rejections",
    "workspace.store.bytes_written",
)


def from_trace(tracer: Tracer) -> dict[str, float]:
    """Span- and counter-derived per-layer metrics, plus measured Fig. 3 shares."""
    stats = tracer.stats()
    metrics = {name: 0.0 for name in PER_LAYER}
    for metric, (span, statistic) in _FROM_SPANS.items():
        if span in stats:
            metrics[metric] = float(getattr(stats[span], statistic))
    for counter in _COUNTERS:
        metrics[counter] = float(tracer.counters.get(counter, 0.0))
    metrics["trace.spans"] = float(sum(entry.calls for entry in stats.values()))
    # Shares only where model code ran in the traced process.
    root = tracer.root_time()
    categorized = {
        category: sum(stats[span].self_s for span in spans if span in stats) for category, spans in _CATEGORIES.items()
    }
    if root > 0 and any(categorized.values()):
        shares = {category: seconds / root for category, seconds in categorized.items()}
        shares["others"] = max(0.0, 1.0 - sum(shares.values()))
        for category, share in shares.items():
            metrics[f"fig3.measured.{category}"] = share
    return metrics


def fig3_model() -> dict[str, float]:
    """The cost model's Fig. 3 shares for paper DGCNN (1024 points) on the i7-8700K."""
    from repro.hardware.device import get_device
    from repro.hardware.latency import estimate_latency
    from repro.hardware.reference_workloads import dgcnn_workload

    fractions = estimate_latency(dgcnn_workload(num_points=1024), get_device("i7-8700k")).category_fractions()
    return {f"fig3.model.{category}": float(share) for category, share in fractions.items()}


def report(result: Result, tracer: Tracer, extra: dict[str, float], overhead_s: float) -> None:
    """Record every per-layer metric of a traced run on ``result``.

    ``extra`` holds layer numbers taken from outside the trace (engine and
    pool reports); ``overhead_s`` is traced minus untraced wall time of the
    same work.
    """
    metrics = from_trace(tracer)
    metrics.update(fig3_model())
    metrics.update(extra)
    metrics["cli.import.modules"], metrics["cli.import.repro_modules"] = import_counts()
    metrics["trace.overhead_s"] = overhead_s
    for name, value in metrics.items():
        result.metric(name, value, PER_LAYER[name])
    result.details["tracer"] = tracer
