"""The HGNAS multi-stage hierarchical search (paper Alg. 1) and ablations.

Stage 1 (*function search*) trains the supernet with uniformly sampled
operations and functions, then runs an evolutionary search over pairs of
shared function sets (upper / lower half) that maximise weight-sharing
validation accuracy.  Stage 2 (*operation search*) re-initialises and
pre-trains the supernet with the winning function sets fixed, then runs a
multi-objective evolutionary search over operation assignments scored by
Eq. 3 (validation accuracy and predicted/measured latency under the
hardware constraint).

A one-stage baseline (:meth:`HGNAS.run_one_stage`) searches the joint
operation+function space with the same budget, reproducing the Fig. 9(b)
ablation; the latency oracle is pluggable (analytical oracle, simulated
on-device measurement, or the GNN predictor), reproducing Fig. 9(a).

Search time is tracked on a :class:`~repro.utils.timer.VirtualClock`
advanced by modelled costs (supernet training epochs, accuracy evaluations,
latency queries) so the time-vs-quality plots are deterministic and
machine-independent.

Both :meth:`HGNAS.run` and :meth:`HGNAS.run_one_stage` accept a
:class:`~repro.nas.checkpoint.SearchCheckpointer`: progress is committed
after every supernet epoch and every EA generation, and a search restarted
from the checkpoint replays the remainder *bit-identically* — the
checkpoint captures the shared RNG (and evaluator RNG) state, the virtual
clock, the fitness caches and the EA population, so every random draw and
every float addition after the resume point repeats the uninterrupted run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.data.dataset import InMemoryDataset
from repro.nas.architecture import Architecture
from repro.nas.checkpoint import SearchCheckpointer
from repro.nas.design_space import DesignSpace, DesignSpaceConfig
from repro.nas.evolution import EvolutionConfig, EvolutionarySearch, HistoryPoint
from repro.nas.latency_eval import (
    EvaluatorRequest,
    LatencyEvaluator,
    evaluate_latencies,
    make_latency_evaluator,
)
from repro.nas.objective import ObjectiveConfig, hardware_constrained_score
from repro.nas.ops import FunctionSet, mutate_function_set, random_function_set
from repro.nas.supernet import Supernet, SupernetConfig
from repro.nas.trainer import evaluate_path, train_supernet
from repro.nn.dtype import WIDE_DTYPE
from repro.obs.tracer import get_tracer
from repro.utils.logging import get_logger
from repro.utils.timer import VirtualClock

__all__ = ["HGNASConfig", "SearchResult", "HGNAS"]

_LOGGER = get_logger("nas.search")


def _prefixed(arrays: Mapping[str, np.ndarray], prefix: str) -> dict[str, np.ndarray]:
    return {f"{prefix}{name}": array for name, array in arrays.items()}


def _subset(arrays: Mapping[str, np.ndarray], prefix: str) -> dict[str, np.ndarray]:
    return {name[len(prefix):]: array for name, array in arrays.items() if name.startswith(prefix)}


def _history_docs(history: list[HistoryPoint]) -> list[dict]:
    return [dataclasses.asdict(point) for point in history]


def _history_from_docs(documents: list[dict]) -> list[HistoryPoint]:
    return [HistoryPoint(**document) for document in documents]


@dataclass(frozen=True)
class HGNASConfig:
    """Configuration of a full HGNAS run.

    The paper-scale settings are ``num_positions=12``, population 20, 1000
    iterations, 50/500 supernet epochs; the defaults here are scaled down so
    a full search completes in seconds on the pure-numpy substrate while
    preserving every algorithmic step.
    """

    # Design space / supernet
    num_positions: int = 12
    hidden_dim: int = 24
    supernet_k: int = 6
    num_classes: int = 10
    input_dim: int = 3
    # Deployment scenario used for hardware evaluation
    deploy_num_points: int = 1024
    deploy_k: int = 20
    # Evolution
    population_size: int = 8
    function_iterations: int = 4
    operation_iterations: int = 8
    # Supernet training
    function_epochs: int = 2
    operation_epochs: int = 3
    batch_size: int = 8
    learning_rate: float = 3e-3
    # Objective (Eq. 1-3)
    alpha: float = 1.0
    beta: float = 0.5
    latency_constraint_ms: float = float("inf")
    # Evaluation budget
    eval_max_batches: int = 2
    paths_per_function_eval: int = 2
    # Simulated costs (advance the virtual clock)
    epoch_cost_s: float = 30.0
    accuracy_eval_cost_s: float = 1.0
    seed: int = 0
    # Statically validate candidates (repro.analysis) before fitness scoring;
    # rejected mutants never reach the supernet/predictor and show up in the
    # nas.analysis.rejected counter.
    validate_candidates: bool = True

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        if self.function_iterations <= 0 or self.operation_iterations <= 0:
            raise ValueError("iteration counts must be positive")
        if self.function_epochs <= 0 or self.operation_epochs <= 0:
            raise ValueError("epoch counts must be positive")
        if self.paths_per_function_eval <= 0 or self.eval_max_batches <= 0:
            raise ValueError("evaluation budgets must be positive")

    def design_space_config(self) -> DesignSpaceConfig:
        """Derived design-space configuration."""
        return DesignSpaceConfig(
            num_positions=self.num_positions,
            k=self.deploy_k,
            num_points=self.deploy_num_points,
            num_classes=self.num_classes,
            input_dim=self.input_dim,
        )

    def supernet_config(self) -> SupernetConfig:
        """Derived supernet configuration."""
        return SupernetConfig(
            num_positions=self.num_positions,
            hidden_dim=self.hidden_dim,
            k=self.supernet_k,
            num_classes=self.num_classes,
            input_dim=self.input_dim,
            seed=self.seed,
        )


@dataclass
class SearchResult:
    """Outcome of an HGNAS run."""

    best_architecture: Architecture
    best_score: float
    best_accuracy: float
    best_latency_ms: float
    upper_functions: FunctionSet
    lower_functions: FunctionSet
    stage1_history: list[HistoryPoint] = field(default_factory=list)
    stage2_history: list[HistoryPoint] = field(default_factory=list)
    search_time_s: float = 0.0
    evaluations: int = 0
    strategy: str = "multi-stage"

    @property
    def history(self) -> list[HistoryPoint]:
        """Concatenated stage-1 + stage-2 best-so-far trajectory."""
        return list(self.stage1_history) + list(self.stage2_history)


class HGNAS:
    """Hardware-aware graph neural architecture search."""

    def __init__(
        self,
        config: HGNASConfig,
        train_dataset: InMemoryDataset,
        val_dataset: InMemoryDataset,
        latency_evaluator: LatencyEvaluator,
        objective: ObjectiveConfig | None = None,
        rng: np.random.Generator | None = None,
        clock: VirtualClock | None = None,
    ):
        self.config = config
        self.train_dataset = train_dataset
        self.val_dataset = val_dataset
        self.latency_evaluator = latency_evaluator
        self.rng = rng if rng is not None else np.random.default_rng(config.seed)
        self.clock = clock if clock is not None else VirtualClock()
        self.design_space = DesignSpace(config.design_space_config())
        self.objective = objective or ObjectiveConfig(
            alpha=config.alpha,
            beta=config.beta,
            latency_constraint_ms=config.latency_constraint_ms,
            latency_scale_ms=self._default_latency_scale(),
        )
        self._accuracy_cache: dict[tuple, float] = {}
        self._latency_cache: dict[tuple, float] = {}
        # Latencies computed by a batched query but not yet "paid for":
        # _latency() charges the clock when each one is first consumed, so
        # the clock sees the same sequence of additions as sequential
        # evaluation (summation order matters for float equality).
        self._prefetched_latencies: dict[tuple, float] = {}
        # Architecture behind every cache key, so the caches above can be
        # serialized into a checkpoint (keys are tuples, architectures have
        # to_dict/from_dict).
        self._arch_by_key: dict[tuple, Architecture] = {}

    @classmethod
    def for_device(
        cls,
        config: HGNASConfig,
        train_dataset: InMemoryDataset,
        val_dataset: InMemoryDataset,
        device,
        latency_oracle: str = "oracle",
        predictor=None,
        predictor_factory=None,
        objective: ObjectiveConfig | None = None,
        rng: np.random.Generator | None = None,
        clock: VirtualClock | None = None,
        seed: int | None = None,
    ) -> "HGNAS":
        """Build a search whose latency oracle is resolved from the evaluator registry.

        ``latency_oracle`` names any evaluator registered through
        :func:`repro.nas.latency_eval.register_latency_evaluator` (built-ins:
        ``"oracle"``, ``"measurement"``, ``"predictor"``).  The deployment
        scenario (``deploy_num_points``/``deploy_k``/``num_classes``) is taken
        from ``config``; ``seed`` (defaulting to ``config.seed``) seeds
        stochastic oracles, and ``predictor``/``predictor_factory`` feed
        predictor-style ones.
        """
        request = EvaluatorRequest(
            device=device,
            num_points=config.deploy_num_points,
            k=config.deploy_k,
            num_classes=config.num_classes,
            seed=config.seed if seed is None else seed,
            predictor=predictor,
            predictor_factory=predictor_factory,
        )
        evaluator = make_latency_evaluator(latency_oracle, request)
        return cls(config, train_dataset, val_dataset, evaluator, objective=objective, rng=rng, clock=clock)

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _default_latency_scale(self) -> float:
        """Normalise the latency term by DGCNN's latency on the target device."""
        from repro.nas.presets import dgcnn_architecture

        reference = dgcnn_architecture(self.config.num_positions)
        scale = self.latency_evaluator.evaluate(reference)
        return max(float(scale), 1e-6)

    def _train_supernet(
        self,
        supernet: Supernet,
        path_sampler,
        epochs: int,
        *,
        checkpointer: SearchCheckpointer | None = None,
        phase: str | None = None,
        strategy: str | None = None,
        results: dict | None = None,
        start_epoch: int = 0,
        optimizer_state: dict[str, np.ndarray] | None = None,
    ) -> None:
        # Clock invariant: the training charge is added once, after the
        # epoch loop.  Per-epoch checkpoints therefore carry the
        # *pre-training* clock value, and a resumed run — which restores
        # that value, finishes the remaining epochs and then performs the
        # same single advance — lands on a bit-identical clock.
        on_epoch = None
        if checkpointer is not None and phase is not None:

            def on_epoch(epoch: int, optimizer) -> None:
                if not checkpointer.accepts(epoch):
                    return
                meta = self._capture_meta(phase, epoch, strategy=strategy, results=results)
                meta["supernet_rng"] = supernet.rng_state()
                arrays = _prefixed(supernet.state_dict(), "supernet.")
                arrays.update(_prefixed(optimizer.state_dict(), "optimizer."))
                checkpointer.save(meta, arrays)

        train_supernet(
            supernet,
            self.train_dataset,
            path_sampler,
            epochs=epochs,
            batch_size=self.config.batch_size,
            lr=self.config.learning_rate,
            rng=self.rng,
            start_epoch=start_epoch,
            optimizer_state=optimizer_state,
            on_epoch=on_epoch,
        )
        self.clock.advance(epochs * self.config.epoch_cost_s)

    # ------------------------------------------------------------------ #
    # Checkpoint capture / restore
    # ------------------------------------------------------------------ #
    def _encode_arch_cache(self, cache: dict[tuple, float]) -> list:
        return [[self._arch_by_key[key].to_dict(), float(value)] for key, value in cache.items()]

    def _decode_arch_cache(self, payload: list) -> dict[tuple, float]:
        cache: dict[tuple, float] = {}
        for document, value in payload:
            architecture = Architecture.from_dict(document)
            key = architecture.key()
            self._arch_by_key[key] = architecture
            cache[key] = float(value)
        return cache

    def _capture_meta(
        self, phase: str, progress: int, *, strategy: str | None, results: dict | None
    ) -> dict:
        """Scalar search state at a checkpoint (arrays travel separately)."""
        meta = {
            "phase": phase,
            "progress": int(progress),
            "strategy": strategy,
            "results": dict(results or {}),
            "rng_state": self.rng.bit_generator.state,
            "clock_s": float(self.clock.now),
            "accuracy_cache": self._encode_arch_cache(self._accuracy_cache),
            "latency_cache": self._encode_arch_cache(self._latency_cache),
            "prefetched_latencies": self._encode_arch_cache(self._prefetched_latencies),
        }
        evaluator_rng = getattr(self.latency_evaluator, "rng", None)
        if evaluator_rng is not None:
            meta["evaluator_rng_state"] = evaluator_rng.bit_generator.state
        return meta

    def _restore_meta(self, meta: dict) -> None:
        self.rng.bit_generator.state = meta["rng_state"]
        self.clock.now = float(meta["clock_s"])
        evaluator_rng = getattr(self.latency_evaluator, "rng", None)
        if evaluator_rng is not None and "evaluator_rng_state" in meta:
            evaluator_rng.bit_generator.state = meta["evaluator_rng_state"]
        self._accuracy_cache = self._decode_arch_cache(meta["accuracy_cache"])
        self._latency_cache = self._decode_arch_cache(meta["latency_cache"])
        self._prefetched_latencies = self._decode_arch_cache(meta["prefetched_latencies"])

    def _load_checkpoint(
        self, checkpointer: SearchCheckpointer | None, strategy: str, phases: tuple[str, ...]
    ) -> tuple[dict, dict[str, np.ndarray], int, int]:
        """Restore a committed checkpoint; ``phase_index == -1`` means none."""
        if checkpointer is None:
            return {}, {}, -1, -1
        restored = checkpointer.load()
        if restored is None:
            return {}, {}, -1, -1
        meta, arrays = restored
        if meta.get("strategy") != strategy:
            raise ValueError(
                f"checkpoint {checkpointer.key!r} belongs to a {meta.get('strategy')!r} run, "
                f"cannot resume a {strategy!r} search from it"
            )
        self._restore_meta(meta)
        phase_index = phases.index(meta["phase"])
        progress = int(meta["progress"])
        _LOGGER.info(
            "resuming %s search from checkpoint: phase=%s progress=%d clock=%.1fs",
            strategy,
            meta["phase"],
            progress,
            self.clock.now,
        )
        return meta, arrays, phase_index, progress

    def _generation_hook(
        self,
        checkpointer: SearchCheckpointer | None,
        phase: str,
        strategy: str,
        results: dict,
        supernet: Supernet,
        search: EvolutionarySearch,
        encode,
    ):
        """Per-generation checkpoint callback for :meth:`EvolutionarySearch.run`."""
        if checkpointer is None:
            return None

        def hook(iteration: int) -> None:
            if not checkpointer.accepts(iteration):
                return
            meta = self._capture_meta(phase, iteration, strategy=strategy, results=results)
            meta["supernet_rng"] = supernet.rng_state()
            meta["ea_state"] = search.state_dict(encode)
            checkpointer.save(meta, _prefixed(supernet.state_dict(), "supernet."))

        return hook

    @staticmethod
    def _restore_supernet(supernet: Supernet, meta: dict, arrays: Mapping[str, np.ndarray]) -> None:
        """Rebuild a checkpointed supernet: weights plus internal RNG streams."""
        supernet.load_state_dict(_subset(arrays, "supernet."))
        supernet.set_rng_state(meta["supernet_rng"])

    @staticmethod
    def _encode_pair(pair: tuple[FunctionSet, FunctionSet]) -> dict:
        return {"upper": pair[0].to_dict(), "lower": pair[1].to_dict()}

    @staticmethod
    def _decode_pair(document) -> tuple[FunctionSet, FunctionSet]:
        return (FunctionSet.from_dict(document["upper"]), FunctionSet.from_dict(document["lower"]))

    def _path_accuracy(self, supernet: Supernet, architecture: Architecture) -> float:
        key = architecture.key()
        self._arch_by_key.setdefault(key, architecture)
        if key not in self._accuracy_cache:
            self._accuracy_cache[key] = evaluate_path(
                supernet,
                architecture,
                self.val_dataset,
                batch_size=self.config.batch_size,
                max_batches=self.config.eval_max_batches,
            )
            self.clock.advance(self.config.accuracy_eval_cost_s)
        return self._accuracy_cache[key]

    def _latency(self, architecture: Architecture) -> float:
        key = architecture.key()
        self._arch_by_key.setdefault(key, architecture)
        if key not in self._latency_cache:
            if key in self._prefetched_latencies:
                self._latency_cache[key] = self._prefetched_latencies.pop(key)
            else:
                self._latency_cache[key] = float(self.latency_evaluator.evaluate(architecture))
            self.clock.advance(self.latency_evaluator.query_cost_s)
        return self._latency_cache[key]

    def _latency_many(self, architectures: list[Architecture]) -> None:
        """Prefetch latencies for ``architectures`` in one batched query.

        Unknown architectures (first occurrence wins, so stochastic
        evaluators draw noise in the same order as the sequential path) are
        scored through :func:`evaluate_latencies`.  The clock is *not*
        advanced here — :meth:`_latency` charges ``query_cost_s`` when each
        prefetched value is first consumed, preserving the sequential
        path's exact interleaving of clock additions.
        """
        pending: dict[tuple, Architecture] = {}
        for architecture in architectures:
            key = architecture.key()
            self._arch_by_key.setdefault(key, architecture)
            if (
                key not in self._latency_cache
                and key not in self._prefetched_latencies
                and key not in pending
            ):
                pending[key] = architecture
        if not pending:
            return
        latencies = evaluate_latencies(self.latency_evaluator, list(pending.values()))
        for key, latency in zip(pending, latencies):
            self._prefetched_latencies[key] = float(latency)

    def _objective(self, supernet: Supernet, architecture: Architecture) -> float:
        latency_ms = self._latency(architecture)
        if latency_ms >= self.objective.latency_constraint_ms:
            # Candidates violating the constraint are rejected without
            # spending an accuracy evaluation (paper Sec. III-C).
            return 0.0
        accuracy = self._path_accuracy(supernet, architecture)
        return hardware_constrained_score(accuracy, latency_ms, self.objective)

    def _objective_many(self, supernet: Supernet, architectures: list[Architecture]) -> np.ndarray:
        """Eq. 3 scores for a whole cohort, latencies batched up front.

        Latency queries are fused into one :meth:`_latency_many` call (the
        big win with the GNN predictor oracle); accuracy evaluations keep
        their per-architecture cache-and-clock flow, and constraint
        violators are still rejected without an accuracy evaluation, so the
        scores and clock total match the sequential path exactly.
        """
        self._latency_many(architectures)
        return np.array(
            [self._objective(supernet, architecture) for architecture in architectures],
            dtype=WIDE_DTYPE,
        )

    # ------------------------------------------------------------------ #
    # Stage 1: function search
    # ------------------------------------------------------------------ #
    def _function_search(self, supernet: Supernet) -> EvolutionarySearch:
        def initialize(rng: np.random.Generator) -> tuple[FunctionSet, FunctionSet]:
            return (random_function_set(rng), random_function_set(rng))

        def mutate(
            pair: tuple[FunctionSet, FunctionSet], rng: np.random.Generator, num: int
        ) -> tuple[FunctionSet, FunctionSet]:
            upper, lower = pair
            if rng.random() < 0.5:
                return (mutate_function_set(upper, rng, num), lower)
            return (upper, mutate_function_set(lower, rng, num))

        def crossover(
            pair_a: tuple[FunctionSet, FunctionSet],
            pair_b: tuple[FunctionSet, FunctionSet],
            rng: np.random.Generator,
        ) -> tuple[FunctionSet, FunctionSet]:
            return (pair_a[0], pair_b[1]) if rng.random() < 0.5 else (pair_b[0], pair_a[1])

        def evaluate(pair: tuple[FunctionSet, FunctionSet]) -> float:
            upper, lower = pair
            accuracies = []
            for _ in range(self.config.paths_per_function_eval):
                path = self.design_space.random_architecture(self.rng, upper, lower)
                accuracies.append(self._path_accuracy(supernet, path))
            return float(np.mean(accuracies))

        def key(pair: tuple[FunctionSet, FunctionSet]):
            return (tuple(sorted(pair[0].to_dict().items())), tuple(sorted(pair[1].to_dict().items())))

        return EvolutionarySearch(
            EvolutionConfig(population_size=self.config.population_size),
            initialize=initialize,
            mutate=mutate,
            evaluate=evaluate,
            crossover=crossover,
            key=key,
            rng=self.rng,
            clock=self.clock,
        )

    # ------------------------------------------------------------------ #
    # Candidate validation (repro.analysis)
    # ------------------------------------------------------------------ #
    def _architecture_validator(self):
        """Static accept/reject hook for architecture-genotype searches.

        Checks each candidate against the deployment scenario *before* any
        fitness scoring (supernet forward or predictor query).  Stage-1
        searches operate on function-set pairs, not architectures, and every
        function-set pair is valid by construction, so only the
        architecture-level searches take this hook.
        """
        if not self.config.validate_candidates:
            return None
        # Imported here, not at module level: repro.analysis depends on
        # repro.nas.architecture, and the eager nas package init would turn
        # a top-level import into a cycle.
        from repro.analysis.validate import validate_architecture

        def validate(architecture: Architecture) -> bool:
            return validate_architecture(
                architecture,
                num_points=self.config.deploy_num_points,
                k=self.config.deploy_k,
                num_classes=self.config.num_classes,
            ).ok

        return validate

    # ------------------------------------------------------------------ #
    # Stage 2: operation search
    # ------------------------------------------------------------------ #
    def _operation_search(
        self, supernet: Supernet, upper: FunctionSet, lower: FunctionSet
    ) -> EvolutionarySearch:
        def initialize(rng: np.random.Generator) -> Architecture:
            return self.design_space.random_architecture(rng, upper, lower)

        def mutate(architecture: Architecture, rng: np.random.Generator, num: int) -> Architecture:
            return self.design_space.mutate_operations(architecture, rng, num)

        def crossover(a: Architecture, b: Architecture, rng: np.random.Generator) -> Architecture:
            return self.design_space.crossover_operations(a, b, rng)

        def evaluate(architecture: Architecture) -> float:
            return self._objective(supernet, architecture)

        def evaluate_many(architectures: list[Architecture]) -> np.ndarray:
            return self._objective_many(supernet, architectures)

        return EvolutionarySearch(
            EvolutionConfig(population_size=self.config.population_size),
            initialize=initialize,
            mutate=mutate,
            evaluate=evaluate,
            crossover=crossover,
            key=lambda arch: arch.key(),
            rng=self.rng,
            clock=self.clock,
            evaluate_many=evaluate_many,
            validate=self._architecture_validator(),
        )

    # ------------------------------------------------------------------ #
    # Full runs
    # ------------------------------------------------------------------ #
    def run(self, checkpointer: SearchCheckpointer | None = None) -> SearchResult:
        """Run the multi-stage hierarchical search (Alg. 1).

        With a ``checkpointer``, progress is committed after every supernet
        epoch and every EA generation, and a run constructed identically
        (same config, datasets, evaluator, fresh ``rng``/``clock``) resumes
        from the committed state bit-identically.  The checkpoint entry is
        cleared once the search completes.
        """
        tracer = get_tracer()
        phases = ("stage1_supernet", "stage1_functions", "stage2_supernet", "stage2_operations")
        meta, arrays, phase_index, progress = self._load_checkpoint(checkpointer, "multi-stage", phases)
        results: dict = dict(meta.get("results", {}))

        supernet = Supernet(self.config.supernet_config())
        if phase_index <= 0:
            _LOGGER.info("stage 1: training supernet for function search")
            with tracer.span("nas.search.stage1_supernet", epochs=self.config.function_epochs):
                start_epoch = 0
                optimizer_state = None
                if phase_index == 0:
                    self._restore_supernet(supernet, meta, arrays)
                    optimizer_state = _subset(arrays, "optimizer.")
                    start_epoch = progress + 1
                self._train_supernet(
                    supernet,
                    lambda rng: supernet.random_path(rng),
                    self.config.function_epochs,
                    checkpointer=checkpointer,
                    phase="stage1_supernet",
                    strategy="multi-stage",
                    results=results,
                    start_epoch=start_epoch,
                    optimizer_state=optimizer_state,
                )
        elif phase_index == 1:
            # Interrupted mid stage-1 EA: the weights come from the
            # checkpoint and the restored clock already carries the
            # training charge — no training, no advance.
            self._restore_supernet(supernet, meta, arrays)

        if phase_index <= 1:
            _LOGGER.info("stage 1: evolutionary function search")
            with tracer.span("nas.search.stage1_functions") as span:
                search = self._function_search(supernet)
                if phase_index == 1:
                    search.load_state_dict(meta["ea_state"], self._decode_pair)
                hook = self._generation_hook(
                    checkpointer, "stage1_functions", "multi-stage", results,
                    supernet, search, self._encode_pair,
                )
                result = search.run(self.config.function_iterations, on_generation=hook)
                upper, lower = result.best
                stage1_history = result.history
                span.attributes.update(best_score=float(stage1_history[-1].best_score))
            results = {
                "upper": upper.to_dict(),
                "lower": lower.to_dict(),
                "stage1_history": _history_docs(stage1_history),
            }
        else:
            upper = FunctionSet.from_dict(results["upper"])
            lower = FunctionSet.from_dict(results["lower"])
            stage1_history = _history_from_docs(results["stage1_history"])

        supernet = Supernet(self.config.supernet_config())
        if phase_index <= 2:
            _LOGGER.info("stage 2: re-training supernet with fixed functions")
            with tracer.span("nas.search.stage2_supernet", epochs=self.config.operation_epochs):
                start_epoch = 0
                optimizer_state = None
                if phase_index == 2:
                    self._restore_supernet(supernet, meta, arrays)
                    optimizer_state = _subset(arrays, "optimizer.")
                    start_epoch = progress + 1
                else:
                    self._accuracy_cache.clear()
                self._train_supernet(
                    supernet,
                    lambda rng: supernet.random_path(rng, upper_functions=upper, lower_functions=lower),
                    self.config.operation_epochs,
                    checkpointer=checkpointer,
                    phase="stage2_supernet",
                    strategy="multi-stage",
                    results=results,
                    start_epoch=start_epoch,
                    optimizer_state=optimizer_state,
                )
        else:
            self._restore_supernet(supernet, meta, arrays)

        _LOGGER.info("stage 2: multi-objective operation search")
        with tracer.span("nas.search.stage2_operations") as span:
            search = self._operation_search(supernet, upper, lower)
            if phase_index == 3:
                search.load_state_dict(meta["ea_state"], Architecture.from_dict)
            hook = self._generation_hook(
                checkpointer, "stage2_operations", "multi-stage", results,
                supernet, search, lambda arch: arch.to_dict(),
            )
            result = search.run(self.config.operation_iterations, on_generation=hook)
            best = result.best
            best_score = result.best_score
            stage2_history = result.history
            evaluations = result.evaluations
            span.attributes.update(best_score=float(best_score), evaluations=evaluations)

        best_latency = self._latency(best)
        best_accuracy = self._path_accuracy(supernet, best)
        if checkpointer is not None:
            checkpointer.clear()
        return SearchResult(
            best_architecture=best,
            best_score=best_score,
            best_accuracy=best_accuracy,
            best_latency_ms=best_latency,
            upper_functions=upper,
            lower_functions=lower,
            stage1_history=stage1_history,
            stage2_history=stage2_history,
            search_time_s=self.clock.now,
            evaluations=evaluations,
            strategy="multi-stage",
        )

    def run_one_stage(
        self, iterations: int | None = None, checkpointer: SearchCheckpointer | None = None
    ) -> SearchResult:
        """One-stage baseline: jointly search operations and functions.

        Used for the Fig. 9(b) ablation.  The supernet is trained once with
        fully random paths (same total epoch budget as the two stages of the
        hierarchical strategy) and a single EA explores the joint space.
        Checkpoint/resume semantics match :meth:`run` (a resumed run must
        pass the same ``iterations``).
        """
        tracer = get_tracer()
        phases = ("one_stage_supernet", "one_stage_search")
        meta, arrays, phase_index, progress = self._load_checkpoint(checkpointer, "one-stage", phases)
        iterations = iterations or (self.config.function_iterations + self.config.operation_iterations)
        total_epochs = self.config.function_epochs + self.config.operation_epochs
        supernet = Supernet(self.config.supernet_config())
        if phase_index <= 0:
            with tracer.span("nas.search.one_stage_supernet", epochs=total_epochs):
                start_epoch = 0
                optimizer_state = None
                if phase_index == 0:
                    self._restore_supernet(supernet, meta, arrays)
                    optimizer_state = _subset(arrays, "optimizer.")
                    start_epoch = progress + 1
                self._train_supernet(
                    supernet,
                    lambda rng: supernet.random_path(rng),
                    total_epochs,
                    checkpointer=checkpointer,
                    phase="one_stage_supernet",
                    strategy="one-stage",
                    start_epoch=start_epoch,
                    optimizer_state=optimizer_state,
                )
        else:
            self._restore_supernet(supernet, meta, arrays)

        def initialize(rng: np.random.Generator) -> Architecture:
            return self.design_space.random_architecture(rng)

        def mutate(architecture: Architecture, rng: np.random.Generator, num: int) -> Architecture:
            if rng.random() < 0.5:
                return self.design_space.mutate_operations(architecture, rng, num)
            return self.design_space.mutate_functions(architecture, rng, num)

        def crossover(a: Architecture, b: Architecture, rng: np.random.Generator) -> Architecture:
            return self.design_space.crossover_operations(a, b, rng)

        def evaluate(architecture: Architecture) -> float:
            return self._objective(supernet, architecture)

        def evaluate_many(architectures: list[Architecture]) -> np.ndarray:
            return self._objective_many(supernet, architectures)

        search = EvolutionarySearch(
            EvolutionConfig(population_size=self.config.population_size),
            initialize=initialize,
            mutate=mutate,
            evaluate=evaluate,
            crossover=crossover,
            key=lambda arch: arch.key(),
            rng=self.rng,
            clock=self.clock,
            evaluate_many=evaluate_many,
            validate=self._architecture_validator(),
        )
        if phase_index == 1:
            search.load_state_dict(meta["ea_state"], Architecture.from_dict)
        with tracer.span("nas.search.one_stage_search", iterations=iterations) as span:
            hook = self._generation_hook(
                checkpointer, "one_stage_search", "one-stage", {},
                supernet, search, lambda arch: arch.to_dict(),
            )
            result = search.run(iterations, on_generation=hook)
            span.attributes.update(best_score=float(result.best_score), evaluations=result.evaluations)
        best = result.best
        if checkpointer is not None:
            checkpointer.clear()
        return SearchResult(
            best_architecture=best,
            best_score=result.best_score,
            best_accuracy=self._path_accuracy(supernet, best),
            best_latency_ms=self._latency(best),
            upper_functions=best.upper_functions,
            lower_functions=best.lower_functions,
            stage1_history=[],
            stage2_history=result.history,
            search_time_s=self.clock.now,
            evaluations=result.evaluations,
            strategy="one-stage",
        )
