"""Pluggable compute backends behind the dtype policy.

The hot path of the whole stack — the fused CSR message-passing kernels,
the scatter aggregations, message gathers and the ``Linear`` matmuls —
dispatches through a string-keyed :class:`~repro.backends.base.ComputeBackend`
registry instead of calling numpy directly.  The registry mirrors the
device and latency-evaluator registries: register under a canonical name,
look up by name, scope the *active* backend with a context manager::

    from repro.backends import use_backend

    with use_backend("materialized"):
        logits = model(batch)          # the materialized message-passing path

    with default_dtype("float64"), use_backend("numpy"):
        ...                            # dtype x backend compose orthogonally

Shipped backends:

* ``numpy`` — the always-available reference (the PR-5 kernels verbatim;
  bit-identical to the pre-registry code and the target every equivalence
  test pins other backends to).
* ``materialized`` — reference primitives with fused-kernel dispatch
  disabled: the materialized message-passing path the fused kernels are
  tested against.

This package imports nothing from ``repro.nn``/``repro.graph`` (they import
*it*), so it is safe at the very bottom of the dependency graph.
"""

from __future__ import annotations

from repro.backends.base import ComputeBackend
from repro.backends.numpy_backend import MaterializedBackend, NumpyBackend
from repro.backends.registry import (
    active_backend,
    active_backend_name,
    get_backend,
    list_backends,
    register_backend,
    set_active_backend,
    unregister_backend,
    use_backend,
)

__all__ = [
    "ComputeBackend",
    "NumpyBackend",
    "MaterializedBackend",
    "register_backend",
    "unregister_backend",
    "get_backend",
    "list_backends",
    "active_backend",
    "active_backend_name",
    "set_active_backend",
    "use_backend",
    "backend_status",
]

register_backend(NumpyBackend())
register_backend(MaterializedBackend())


def backend_status() -> list[dict[str, object]]:
    """Name, activity, dispatch policy and description of every backend (for the CLI)."""
    active = active_backend_name()
    return [
        {
            "name": name,
            "active": name == active,
            "fused_dispatch": get_backend(name).fused_dispatch,
            "description": get_backend(name).description,
        }
        for name in list_backends()
    ]
