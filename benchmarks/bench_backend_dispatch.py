"""Compute-backend registry: dispatch overhead and cross-backend sanity.

The backend refactor routed every kernel primitive (segment reduction,
unbuffered scatter, gather, dense matmul) through
``repro.backends.active_backend()`` instead of calling numpy directly.  The
acceptance claim, quantified: on realistic kernel workloads the registry
indirection costs **less than 2%** against hand-written direct numpy calls
— the pre-refactor code shape, inlined here as the baseline.

Also records (informationally, no gate) the end-to-end derived-model
forward under the ``numpy`` and ``materialized`` backends, so regressions
in either path show up in the benchmark history.

Timings are best-of-N to suppress scheduler noise, mirroring
``bench_dtype_fused.py``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.backends import active_backend, use_backend
from repro.data.dataset import collate
from repro.data.synthetic_modelnet import make_synthetic_modelnet
from repro.nas.derived import DerivedModel
from repro.nas.presets import device_fast_architecture
from repro.nn.tensor import no_grad

MAX_OVERHEAD_FRACTION = 0.02
ROUNDS = 7
TINY_CALLS = 2000
KERNEL_CALLS = 20
NUM_EDGES = 8192
NUM_NODES = 512
FEATURE_DIM = 64


def _best_of(fn, rounds: int = ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _segment_workload(rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ragged per-target segments as produced by ``_csr_segments``."""
    targets = np.sort(rng.integers(0, NUM_NODES, size=NUM_EDGES))
    _, seg_starts, seg_counts = np.unique(targets, return_index=True, return_counts=True)
    values = rng.standard_normal((NUM_EDGES, FEATURE_DIM)).astype(np.float32)
    return values, seg_starts.astype(np.int64), seg_counts.astype(np.int64)


def test_backend_dispatch_overhead(benchmark):
    """Registry dispatch adds <2% to a realistic kernel-primitive call.

    Comparing two separately-timed runs of the full kernel drowns the
    few-microsecond dispatch cost in scheduler noise, so the overhead is
    measured where it is the dominant term: thousands of calls on a tiny
    workload, direct numpy vs the registry path.  The per-call difference is
    then gated against the per-call time of the primitive on a
    realistically-sized workload.
    """
    rng = np.random.default_rng(7)
    values, seg_starts, seg_counts = _segment_workload(rng)

    # Tiny workload: fixed per-call cost dominates the actual reduction.
    tiny_values = np.ones((8, 4), dtype=np.float32)
    tiny_starts = np.array([0, 3, 5], dtype=np.int64)
    tiny_counts = np.array([3, 2, 3], dtype=np.int64)

    def direct_tiny():
        for _ in range(TINY_CALLS):
            # repro-lint: allow[backend-primitive] dispatch-overhead baseline
            np.add.reduceat(tiny_values, tiny_starts, axis=0)

    def dispatched_tiny():
        for _ in range(TINY_CALLS):
            active_backend().segment_reduce(tiny_values, tiny_starts, tiny_counts, "sum")

    def direct_kernel():
        for _ in range(KERNEL_CALLS):
            np.add.reduceat(values, seg_starts, axis=0)  # repro-lint: allow[backend-primitive] dispatch-overhead baseline

    with use_backend("numpy"):
        direct_tiny_s = _best_of(direct_tiny)
        dispatched_tiny_s = _best_of(dispatched_tiny)
        kernel_call_s = _best_of(direct_kernel) / KERNEL_CALLS
        benchmark.pedantic(dispatched_tiny, rounds=3, iterations=1)

    overhead_per_call_s = max(0.0, dispatched_tiny_s - direct_tiny_s) / TINY_CALLS
    overhead_fraction = overhead_per_call_s / kernel_call_s
    benchmark.extra_info["dispatch_overhead_us_per_call"] = round(overhead_per_call_s * 1e6, 3)
    benchmark.extra_info["kernel_call_ms"] = round(kernel_call_s * 1e3, 3)
    benchmark.extra_info["overhead_fraction"] = round(overhead_fraction, 5)

    assert overhead_fraction <= MAX_OVERHEAD_FRACTION, (
        f"registry dispatch adds {100 * overhead_fraction:.2f}% per segment-reduce call "
        f"({overhead_per_call_s * 1e6:.2f}us on a {kernel_call_s * 1e3:.2f}ms kernel); "
        f"the budget is {100 * MAX_OVERHEAD_FRACTION:.0f}%"
    )


def test_backend_forward_equivalence_timings(benchmark):
    """Derived-model forward: numpy vs materialized timings + allclose logits."""
    _, val_set = make_synthetic_modelnet(num_classes=4, samples_per_class=4, num_points=128, seed=0)
    model = DerivedModel(device_fast_architecture("jetson-tx2"), num_classes=4, k=8).eval()
    batch = collate([val_set[i] for i in range(6)])

    with no_grad():
        with use_backend("numpy"):
            logits_reference = model(batch).numpy()
            reference_s = _best_of(lambda: model(batch))
        with use_backend("materialized"):
            logits_materialized = model(batch).numpy()
            materialized_s = _best_of(lambda: model(batch))
            benchmark.pedantic(lambda: model(batch), rounds=3, iterations=1)

    np.testing.assert_allclose(logits_materialized, logits_reference, rtol=1e-4, atol=1e-4)
    benchmark.extra_info["numpy_forward_ms"] = round(reference_s * 1e3, 2)
    benchmark.extra_info["materialized_forward_ms"] = round(materialized_s * 1e3, 2)
