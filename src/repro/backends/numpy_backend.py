"""The reference numpy backend (and the ``materialized`` policy variant).

:class:`NumpyBackend` is the always-available reference every other backend
is equivalence-tested against.  Its primitives are the PR-5 kernels moved
here **verbatim** — same numpy calls in the same order — so dispatching
through the registry is bit-identical to the pre-registry direct-call code:

* ``segment_reduce`` keeps the uniform-degree reshape fast path (a reshaped
  axis reduction is SIMD-vectorized, unlike ``ufunc.reduceat``) with the
  ragged ``reduceat`` fallback;
* ``scatter_add`` / ``scatter_extreme`` are the unbuffered ``ufunc.at``
  accumulations of :mod:`repro.graph.scatter`;
* ``matmul`` / ``gather`` are plain ``@`` / fancy indexing, which BLAS and
  numpy already run at full throughput.

:class:`MaterializedBackend` shares all of the above but turns
``fused_dispatch`` off: models take the materialized
gather → message → MLP → scatter path instead of the fused CSR kernels.
It is the reference the fused kernels are tested and benchmarked against.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import ComputeBackend

__all__ = ["NumpyBackend", "MaterializedBackend"]

#: Aggregator name -> reducing ufunc (``mean`` reduces like ``sum``; the
#: caller divides by the segment counts afterwards).
_REDUCERS = {"sum": np.add, "mean": np.add, "max": np.maximum, "min": np.minimum}

_EXTREME_REDUCERS = {"max": np.maximum, "min": np.minimum}


class NumpyBackend(ComputeBackend):
    """Pure-numpy reference primitives (bit-identical to the PR-5 kernels)."""

    name = "numpy"
    description = "pure-numpy reference kernels (reduceat + uniform-degree reshape)"

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ b

    def gather(self, x: np.ndarray, index: np.ndarray) -> np.ndarray:
        return x[index]

    def scatter_add(self, out: np.ndarray, index: np.ndarray, values: np.ndarray) -> None:
        np.add.at(out, index, values)

    def scatter_extreme(
        self, out: np.ndarray, index: np.ndarray, values: np.ndarray, mode: str
    ) -> None:
        try:
            reducer = _EXTREME_REDUCERS[mode]
        except KeyError as exc:
            raise ValueError(f"unknown extreme mode '{mode}', expected 'max' or 'min'") from exc
        reducer.at(out, index, values)

    def segment_reduce(
        self,
        values: np.ndarray,
        seg_starts: np.ndarray,
        seg_counts: np.ndarray,
        aggregator: str,
    ) -> np.ndarray:
        try:
            reducer = _REDUCERS[aggregator]
        except KeyError as exc:
            raise ValueError(f"unknown aggregator '{aggregator}'") from exc
        degree = int(seg_counts[0]) if seg_counts.size else 0
        if degree and np.all(seg_counts == degree):
            # Uniform degree (the KNN/random-graph common case): a reshaped
            # axis reduction is SIMD-vectorized, unlike ufunc.reduceat.
            stacked = values.reshape(seg_counts.size, degree, values.shape[1])
            if aggregator in ("sum", "mean"):
                return stacked.sum(axis=1)
            if aggregator == "max":
                return stacked.max(axis=1)
            return stacked.min(axis=1)
        return reducer.reduceat(values, seg_starts, axis=0)


class MaterializedBackend(NumpyBackend):
    """Reference primitives with fused-kernel dispatch disabled."""

    name = "materialized"
    description = "numpy primitives, fused CSR dispatch off (materialized message passing)"
    fused_dispatch = False
