"""Outside-in tracing for the traced benchmark run.

The program under test is not edited: :class:`Tracer` wraps public
functions and methods of each layer for the duration of a ``with`` block
and restores the originals afterwards.  A function bound into other
modules with ``from ... import name`` is patched there too (for example
``repro.nas.search`` binds ``train_supernet`` and ``evaluate_path`` that
way), so every call site sees the wrapper.

Each wrapped call records one span ``(id, name, parent id, start, end)``
in a flat in-memory array; optional count hooks add work counts at the
same boundary.  Self time (a span's duration minus its child spans) is
computed once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

CountHook = Callable[[dict, tuple, dict, object], None]


@dataclass(frozen=True)
class Target:
    """One function or method to wrap.

    ``owner`` is a module path (``"repro.graph.knn"``) or a module path and
    class name joined by a colon (``"repro.nn.optim:Adam"``).
    """

    owner: str
    attr: str
    span: str
    count: CountHook | None = None


@dataclass
class SpanStats:
    calls: int
    total_s: float
    self_s: float


class Tracer:
    """Records spans from wrapped calls; patches on ``__enter__``, restores on ``__exit__``."""

    def __init__(self, targets: list[Target], clock: Callable[[], float] = time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # Five doubles per span: id, name id, parent id, start, end.  One
        # ``extend`` per span keeps the record whole when threads interleave.
        self._records = array("d")
        self._ids = itertools.count()
        self._local = threading.local()
        self.counters: dict[str, float] = defaultdict(float)
        self.patches: list[tuple[object, str, object]] = []
        # id -> (wrapper, original); holding the wrapper keeps its id unique.
        self._wrappers: dict[int, tuple[object, object]] = {}

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, function: Callable, span: str, count: CountHook | None = None) -> Callable:
        name_id = self._name_id(span)
        records, ids, clock, counters = self._records, self._ids, self.clock, self.counters

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                records.extend((span_id, name_id, parent, start, end))
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "Tracer":
        for target in self.targets:
            module_name, _, class_name = target.owner.partition(":")
            module = importlib.import_module(module_name)
            if class_name:
                owner = getattr(module, class_name)
                # Only methods the class defines itself: an inherited one is
                # wrapped once, on the class that defines it.
                original = owner.__dict__[target.attr]
                wrapper = self.wrap(original, target.span, target.count)
                self._patch(owner, target.attr, original, wrapper)
                continue
            original = getattr(module, target.attr)
            wrapper = self.wrap(original, target.span, target.count)
            for bound_module in _repro_modules():
                for name, value in list(vars(bound_module).items()):
                    if value is original:
                        self._patch(bound_module, name, original, wrapper)
        return self

    def _patch(self, owner: object, name: str, original: object, wrapper: object) -> None:
        self.patches.append((owner, name, original))
        self._wrappers[id(wrapper)] = (wrapper, original)
        setattr(owner, name, wrapper)

    def __exit__(self, *exc_info) -> None:
        for owner, name, original in reversed(self.patches):
            setattr(owner, name, original)
        # A module first imported while patched bound a wrapper; point it
        # back at the original as well.
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                if id(value) in self._wrappers:
                    setattr(module, name, self._wrappers[id(value)][1])

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def span_array(self) -> np.ndarray:
        """All recorded spans as an ``(n, 5)`` array sorted by span id."""
        table = np.frombuffer(self._records, dtype=np.float64).reshape(-1, 5).copy()
        return table[np.argsort(table[:, 0], kind="stable")]

    def stats(self) -> dict[str, SpanStats]:
        """Calls, total and self time per span name."""
        table = self.span_array()
        result: dict[str, SpanStats] = {}
        if not len(table):
            return result
        ids = table[:, 0].astype(np.int64)
        names = table[:, 1].astype(np.int64)
        parents = table[:, 2].astype(np.int64)
        durations = table[:, 4] - table[:, 3]
        row_of = np.full(int(ids.max()) + 1, -1, dtype=np.int64)
        row_of[ids] = np.arange(len(ids))
        child_time = np.zeros(len(ids))
        has_parent = parents >= 0
        parent_rows = row_of[parents[has_parent]]
        known = parent_rows >= 0
        np.add.at(child_time, parent_rows[known], durations[has_parent][known])
        self_times = durations - child_time
        calls = np.bincount(names, minlength=len(self.names))
        totals = np.bincount(names, weights=durations, minlength=len(self.names))
        selfs = np.bincount(names, weights=self_times, minlength=len(self.names))
        for name_id, name in enumerate(self.names):
            result[name] = SpanStats(int(calls[name_id]), float(totals[name_id]), float(selfs[name_id]))
        return result

    def root_time(self) -> float:
        """Summed duration of spans with no traced parent."""
        table = self.span_array()
        if not len(table):
            return 0.0
        roots = table[:, 2] < 0
        return float((table[roots, 4] - table[roots, 3]).sum())

    def save(self, path) -> None:
        """Write every span and counter to ``path`` (``.npz``)."""
        np.savez_compressed(
            path,
            spans=self.span_array(),
            names=np.array(self.names),
            counter_names=np.array(sorted(self.counters)),
            counter_values=np.array([self.counters[name] for name in sorted(self.counters)]),
        )


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


# ---------------------------------------------------------------------- #
# Count hooks: work done at a span's boundary, from argument/result sizes.
# ---------------------------------------------------------------------- #
def _nbytes(*arrays) -> int:
    return sum(int(np.asarray(value).nbytes) for value in arrays)


def _count_knn(counters, args, kwargs, result) -> None:
    points = kwargs.get("points", args[0] if args else None)
    if np.ndim(points) == 2 and np.shape(points)[1] > 3:
        counters["graph.knn.hi_dim_calls"] += 1


def _count_fused(counters, args, kwargs, result) -> None:
    edge_index = kwargs.get("edge_index", args[1] if len(args) > 1 else None)
    counters["graph.fused.edges"] += int(np.shape(edge_index)[1])


def _count_matmul(counters, args, kwargs, result) -> None:
    _, a, b = args
    rows, inner = np.shape(a)[0], np.shape(a)[-1]
    counters["backends.matmul.flops"] += 2.0 * rows * inner * np.shape(b)[-1]
    counters["backends.bytes_moved"] += _nbytes(a, b, result)


def _count_gather(counters, args, kwargs, result) -> None:
    _, _, index = args
    # Rows read from the source plus the rows written.
    counters["backends.bytes_moved"] += _nbytes(index) + 2 * _nbytes(result)


def _count_scatter(counters, args, kwargs, result) -> None:
    index, values = args[2], args[3]
    # Values read, plus a read-modify-write of each touched output row.
    counters["backends.bytes_moved"] += _nbytes(index) + 3 * _nbytes(values)


def _count_segment_reduce(counters, args, kwargs, result) -> None:
    counters["backends.bytes_moved"] += _nbytes(args[1], args[2], args[3], result)


def _count_predict(counters, args, kwargs, result) -> None:
    graphs = kwargs.get("graphs", args[1] if len(args) > 1 else ())
    counters["predictor.predict_latencies.graphs"] += len(graphs)


def _count_evolution(counters, args, kwargs, result) -> None:
    counters["nas.evolution.evaluations"] += int(result.evaluations)
    counters["nas.evolution.rejections"] += int(result.rejections)


def _count_store_save(counters, args, kwargs, result) -> None:
    if result.path is not None:
        counters["workspace.store.bytes_written"] += sum(
            entry.stat().st_size for entry in result.path.iterdir() if entry.is_file()
        )


_BACKEND_COUNTS: dict[str, CountHook] = {
    "matmul": _count_matmul,
    "gather": _count_gather,
    "scatter_add": _count_scatter,
    "scatter_extreme": _count_scatter,
    "segment_reduce": _count_segment_reduce,
}


def default_targets() -> list[Target]:
    """The layer boundaries the benchmark traces, named ``<layer>.<operation>``."""
    targets = [
        # Entry points: parents for everything below.
        Target("repro.workspace.pipeline:Workspace", "train_predictor", "workspace.train_predictor"),
        Target("repro.workspace.pipeline:Workspace", "search", "workspace.search"),
        Target("repro.workspace.pipeline:Workspace", "derive", "workspace.derive"),
        Target("repro.serving.engine:InferenceEngine", "submit", "serving.engine.submit"),
        Target("repro.serving.engine:InferenceEngine", "submit_many", "serving.engine.submit_many"),
        Target("repro.serving.pool:WorkerPoolEngine", "submit", "serving.pool.submit"),
        # graph
        Target("repro.graph.knn", "knn_indices", "graph.knn", _count_knn),
        Target("repro.graph.sampling", "random_graph", "graph.sample"),
        Target("repro.graph.fused", "fused_edgeconv", "graph.fused", _count_fused),
        Target("repro.graph.scatter", "scatter", "graph.scatter"),
        # nn
        Target("repro.nn.tensor:Tensor", "backward", "nn.backward"),
        Target("repro.nn.optim:SGD", "step", "nn.optim.step"),
        Target("repro.nn.optim:Adam", "step", "nn.optim.step"),
        # predictor
        Target("repro.predictor.train", "train_predictor", "predictor.train"),
        Target("repro.predictor.model:LatencyPredictor", "forward_graph", "predictor.forward_graph"),
        Target("repro.predictor.batch", "predict_latencies", "predictor.predict_latencies", _count_predict),
        Target("repro.predictor.dataset", "generate_predictor_dataset", "predictor.dataset"),
        # nas
        Target("repro.nas.trainer", "train_supernet", "nas.supernet.train"),
        Target("repro.nas.trainer", "evaluate_path", "nas.evaluate_path"),
        Target("repro.nas.trainer", "train_classifier", "nas.train_classifier"),
        Target("repro.nas.evolution:EvolutionarySearch", "run", "nas.evolution.run", _count_evolution),
        # hardware
        Target("repro.hardware.latency", "estimate_latency", "hardware.estimate_latency"),
        # workspace
        Target("repro.workspace.store:ArtifactStore", "save", "workspace.store.save", _count_store_save),
        Target("repro.workspace.store:ArtifactStore", "load", "workspace.store.load"),
        # serving
        Target("repro.serving.cache", "cloud_fingerprint", "serving.fingerprint"),
    ]
    from repro.backends import get_backend, list_backends

    classes = {type(get_backend(name)) for name in list_backends()}
    for cls in sorted(classes, key=lambda c: c.__qualname__):
        for primitive, count in _BACKEND_COUNTS.items():
            if primitive in cls.__dict__:
                owner = f"{cls.__module__}:{cls.__qualname__}"
                targets.append(Target(owner, primitive, f"backends.{primitive}", count))
    return targets
