"""Test helpers shared across modules."""

from __future__ import annotations

import numpy as np


def finite_difference_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        upper = fn(x)
        flat[i] = original - eps
        lower = fn(x)
        flat[i] = original
        grad_flat[i] = (upper - lower) / (2 * eps)
    return grad


def per_architecture_objectives(search, supernet, architectures) -> np.ndarray:
    """Sequential oracle for ``HGNAS._objective_many``.

    Scores the cohort one architecture at a time, so a predictor oracle
    makes one per-graph ``forward_graph`` query per architecture and no
    batched latency prefetch happens.
    """
    return np.array([search._objective(supernet, architecture) for architecture in architectures])
