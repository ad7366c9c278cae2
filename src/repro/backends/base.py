"""The :class:`ComputeBackend` contract.

A backend owns the five low-level kernel primitives the whole stack's hot
path is built from — dense matmul, index gather, in-place scatter
accumulation (sum and max/min), and contiguous segment reduction.  The
fused CSR kernels (:mod:`repro.graph.fused`), the scatter aggregations
(:mod:`repro.graph.scatter`), message construction
(:mod:`repro.graph.message`) and the ``Linear`` matmul entry point
(:mod:`repro.nn.functional`) all dispatch through the *active* backend
(:func:`repro.backends.active_backend`) instead of calling numpy directly,
so swapping the execution substrate (a JIT or GPU array library) never
touches a call site again.

This module must stay import-light: backends are imported by the autograd
engine and the graph kernels, so nothing here may import from
``repro.nn`` / ``repro.graph`` (only numpy and the standard library).

Contract notes
--------------

* Primitives receive and return plain ``np.ndarray`` objects; autograd
  wiring stays in the call sites.
* ``scatter_add`` / ``scatter_extreme`` mutate ``out`` in place (ufunc
  ``.at`` semantics: *unbuffered*, so repeated indices accumulate).
* ``segment_reduce`` reduces contiguous segments of ``values`` described
  by ``seg_starts``/``seg_counts`` (``reduceat`` semantics over non-empty
  segments); ``aggregator`` is one of ``sum``/``mean``/``max``/``min``,
  where ``mean`` reduces like ``sum`` — the caller divides by the counts.
* ``fused_dispatch`` controls whether :func:`repro.graph.fused.aggregate`
  dispatches to the fused CSR kernels; the ``materialized`` reference
  backend sets it to ``False`` to run the pre-fusion execution path.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ComputeBackend"]


class ComputeBackend:
    """Abstract kernel-primitive provider; concrete backends subclass this."""

    #: Registry key (lower-case; may contain dashes).
    name: str = "abstract"
    #: One-line human description shown by ``repro backends``.
    description: str = ""
    #: Whether edge aggregation dispatches to the fused CSR kernels.
    fused_dispatch: bool = True

    @property
    def metric_name(self) -> str:
        """The backend name as a metric/span-safe segment (dashes -> underscores)."""
        return self.name.replace("-", "_")

    # ------------------------------------------------------------------ #
    # Kernel primitives
    # ------------------------------------------------------------------ #
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Dense matrix product ``a @ b``."""
        raise NotImplementedError

    def gather(self, x: np.ndarray, index: np.ndarray) -> np.ndarray:
        """Row gather ``x[index]``."""
        raise NotImplementedError

    def scatter_add(self, out: np.ndarray, index: np.ndarray, values: np.ndarray) -> None:
        """In-place unbuffered accumulation ``out[index] += values``."""
        raise NotImplementedError

    def scatter_extreme(
        self, out: np.ndarray, index: np.ndarray, values: np.ndarray, mode: str
    ) -> None:
        """In-place unbuffered ``out[index] = max/min(out[index], values)``."""
        raise NotImplementedError

    def segment_reduce(
        self,
        values: np.ndarray,
        seg_starts: np.ndarray,
        seg_counts: np.ndarray,
        aggregator: str,
    ) -> np.ndarray:
        """Reduce contiguous segments of ``values`` to ``(num_segments, F)``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"
