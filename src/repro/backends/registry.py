"""The string-keyed compute-backend registry and the active-backend policy.

Mirrors the device / latency-evaluator registries of
:mod:`repro.hardware.device` and :mod:`repro.nas.latency_eval`: backends
register under a canonical lower-case name, consumers look them up by name,
and :func:`use_backend` scopes the *active* backend the kernels dispatch to
— orthogonal to the dtype policy (``default_dtype`` × ``use_backend``
compose freely).
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from repro.backends.base import ComputeBackend

__all__ = [
    "register_backend",
    "unregister_backend",
    "get_backend",
    "list_backends",
    "active_backend",
    "active_backend_name",
    "set_active_backend",
    "use_backend",
]

#: The always-available reference backend every equivalence test pins to.
_REFERENCE_BACKEND = "numpy"

#: Canonical name -> backend instance, in registration order.
_BACKEND_REGISTRY: dict[str, ComputeBackend] = {}

_ACTIVE_BACKEND = _REFERENCE_BACKEND


def register_backend(backend: ComputeBackend, replace: bool = False) -> str:
    """Register ``backend`` under its canonical (lower-case) name.

    Args:
        backend: A :class:`~repro.backends.base.ComputeBackend` instance.
        replace: Allow overwriting an already-registered name.

    Returns:
        The canonical name the backend was registered under.
    """
    name = backend.name.strip().lower()
    if not name:
        raise ValueError("backend name must be non-empty")
    if name in _BACKEND_REGISTRY and not replace:
        raise ValueError(f"backend '{name}' already registered (pass replace=True)")
    _BACKEND_REGISTRY[name] = backend
    return name


def unregister_backend(name: str) -> None:
    """Remove a registered backend (the ``numpy`` reference cannot be removed)."""
    global _ACTIVE_BACKEND
    key = name.strip().lower()
    if key == _REFERENCE_BACKEND:
        raise ValueError("the 'numpy' reference backend cannot be unregistered")
    if key not in _BACKEND_REGISTRY:
        raise KeyError(f"unknown backend '{name}'; registered: {list_backends()}")
    del _BACKEND_REGISTRY[key]
    if _ACTIVE_BACKEND == key:
        _ACTIVE_BACKEND = _REFERENCE_BACKEND


def get_backend(name: str) -> ComputeBackend:
    """Return the registered backend called ``name`` (case-insensitive)."""
    key = name.strip().lower()
    if key not in _BACKEND_REGISTRY:
        raise KeyError(f"unknown backend '{name}'; registered: {list_backends()}")
    return _BACKEND_REGISTRY[key]


def list_backends() -> list[str]:
    """Canonical names of the registered backends, in registration order."""
    return list(_BACKEND_REGISTRY)


def active_backend() -> ComputeBackend:
    """The backend the kernel primitives currently dispatch to."""
    return _BACKEND_REGISTRY[_ACTIVE_BACKEND]


def active_backend_name() -> str:
    """Canonical name of the active backend."""
    return _ACTIVE_BACKEND


def set_active_backend(name: str) -> str:
    """Make ``name`` the process-wide active backend; returns the canonical name."""
    global _ACTIVE_BACKEND
    backend = get_backend(name)
    _ACTIVE_BACKEND = backend.name.strip().lower()
    return _ACTIVE_BACKEND


@contextlib.contextmanager
def use_backend(name: str) -> Iterator[ComputeBackend]:
    """Scope the active compute backend (nestable, exception-safe)::

        with use_backend("materialized"):
            ...  # scatter / Linear dispatch to it; edge aggregation runs materialized
    """
    global _ACTIVE_BACKEND
    backend = get_backend(name)
    previous = _ACTIVE_BACKEND
    _ACTIVE_BACKEND = backend.name.strip().lower()
    try:
        yield backend
    finally:
        _ACTIVE_BACKEND = previous
