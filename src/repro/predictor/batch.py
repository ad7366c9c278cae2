"""Batched (vectorized) forward of the latency predictor over many graphs.

The search evaluates whole populations of candidate architectures per
generation (paper Alg. 1: population 20 x 1000 iterations) and training
fits the predictor on minibatches, so running the GCN one graph at a time
wastes most of the wall clock on per-call Python and autograd overhead.
:func:`forward_graphs` is the one forward every multi-graph caller uses —
training minibatches, validation and population scoring: it groups
:class:`~repro.predictor.arch_graph.ArchitectureGraph` objects by node
count and runs a *single* GCN + MLP forward per group, with grad on or off.

Bit-exactness contract
----------------------
:func:`forward_graphs` produces the **same floats** as running
:meth:`~repro.predictor.model.LatencyPredictor.forward_graph` graph by
graph, which keeps search results independent of how a cohort is scored.
Three properties make this hold:

* Each group is stacked *without padding*, so every batched matmul slice
  has exactly the shapes of the per-graph call and BLAS picks the same
  kernel.  (Zero padding is mathematically exact, but changing the
  contraction length can switch BLAS kernels whose different sum
  associations drift in the last ulp — observed in practice when padding
  9-node graphs to 16.)
* Pooling is a per-slice ``sum``/``max`` over the node axis, the same
  accumulation order as the per-graph ``sum(axis=0)`` / ``max(axis=0)``.
* The MLP runs on a ``(B, 1, F)`` stack of row vectors rather than a
  ``(B, F)`` matrix, so BLAS applies the same single-row kernel as the
  per-graph path (a ``(B, F) @ (F, out)`` GEMM may reassociate sums
  differently from the per-row GEMV and drift in the last ulp).

Gradients through a grouped forward sum the per-graph contributions in a
different order, so they match the per-graph path only allclose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.nn.dtype import WIDE_DTYPE
from repro.nn.tensor import Tensor, concatenate, no_grad
from repro.obs.metrics import get_metrics
from repro.predictor.arch_graph import ArchitectureGraph

__all__ = ["GraphBatch", "collate_graphs", "forward_graph_batch", "forward_graphs", "predict_latencies"]


@dataclass(frozen=True)
class GraphBatch:
    """Architecture graphs of one node count stacked into a dense batch."""

    features: np.ndarray  #: ``(B, N, FEATURE_DIM)`` node features.
    aggregation: np.ndarray  #: ``(B, N, N)`` ``A + I`` operators.

    @property
    def num_graphs(self) -> int:
        return self.features.shape[0]


def collate_graphs(graphs: Sequence[ArchitectureGraph]) -> GraphBatch:
    """Stack architecture graphs of one node count into a :class:`GraphBatch`.

    Raises:
        ValueError: If ``graphs`` is empty or mixes node counts
            (:func:`forward_graphs` groups mixed populations).
    """
    if not graphs:
        raise ValueError("cannot collate an empty list of graphs")
    counts = sorted({graph.num_nodes for graph in graphs})
    if len(counts) > 1:
        raise ValueError(f"cannot collate graphs with mixed node counts {counts}; use forward_graphs")
    features = np.stack([graph.features for graph in graphs])
    aggregation = np.stack([graph.adjacency for graph in graphs]).astype(features.dtype, copy=False)
    # Self-loops (the predictor's A + I sum aggregation) added in one bulk write.
    diagonal = np.arange(counts[0])
    aggregation[:, diagonal, diagonal] += 1.0
    return GraphBatch(features=features, aggregation=aggregation)


def forward_graph_batch(predictor, batch: GraphBatch) -> Tensor:
    """Standardised log1p-latency predictions for one uniform-size batch.

    Args:
        predictor: A :class:`~repro.predictor.model.LatencyPredictor` (typed
            loosely to avoid a circular import); its GCN must accept batched
            ``(B, N, N)`` aggregation operators.
        batch: Output of :func:`collate_graphs`.

    Returns:
        Tensor of shape ``(B,)`` with the same floats as per-graph
        :meth:`~repro.predictor.model.LatencyPredictor.forward_graph` calls.
    """
    node_embeddings = predictor.gcn(Tensor(batch.features), batch.aggregation)
    pooled = concatenate([node_embeddings.sum(axis=1), node_embeddings.max(axis=1)], axis=1)
    # One row vector per graph: BLAS then uses the same single-row kernel as
    # the per-graph path, keeping the outputs bit-identical.
    out = predictor.mlp(pooled.reshape(batch.num_graphs, 1, pooled.shape[-1]))
    return out.reshape(batch.num_graphs)


def forward_graphs(predictor, graphs: Sequence[ArchitectureGraph]) -> Tensor:
    """Standardised log1p-latency predictions ``(B,)`` for graphs of any sizes.

    Groups ``graphs`` by node count, runs :func:`forward_graph_batch` once
    per group and returns the predictions in caller order.  Differentiable:
    training minibatches backpropagate through it.
    """
    if not graphs:
        raise ValueError("cannot forward an empty list of graphs")
    groups: dict[int, list[int]] = {}
    for index, graph in enumerate(graphs):
        groups.setdefault(graph.num_nodes, []).append(index)
    outputs = [
        forward_graph_batch(predictor, collate_graphs([graphs[index] for index in indices]))
        for indices in groups.values()
    ]
    if len(outputs) == 1:
        return outputs[0]
    order = np.concatenate([np.asarray(indices) for indices in groups.values()])
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size)
    return concatenate(outputs, axis=0)[inverse]


def predict_latencies(predictor, graphs: Sequence[ArchitectureGraph]) -> np.ndarray:
    """Predicted latencies (ms) for several encoded graphs, batched.

    Bit-identical to mapping
    :meth:`~repro.predictor.model.LatencyPredictor.predict_from_graph` over
    ``graphs`` (see the module docstring).
    """
    if not graphs:
        return np.zeros(0, dtype=WIDE_DTYPE)  # latency milliseconds: metric bookkeeping
    metrics = get_metrics()
    metrics.count("predictor.batch.calls")
    metrics.count("predictor.batch.graphs", len(graphs))
    metrics.observe("predictor.batch.size", float(len(graphs)))
    with no_grad():
        standardised = forward_graphs(predictor, graphs).numpy()
    # The per-graph path denormalizes a Python float (``.item()`` upcasts the
    # network output to float64); match it exactly by denormalizing in
    # float64 regardless of the compute dtype.
    return predictor.denormalize_to_ms(standardised.astype(WIDE_DTYPE))
