"""``pipeline`` workload: the HGNAS design flow on a fresh rooted workspace.

One flow is ``train_predictor`` -> ``search`` (predictor oracle,
multi-stage) -> ``derive`` (the winner trained for a few epochs) for
``jetson-tx2``, each on a new artifact store under the checkout.
``--seconds`` sets the number of flows (at least two); stage times are
medians over flows.  Cold CLI starts run between flows.

The design problem — the search datasets, the predictor's architecture
sample and every algorithm seed — is the same in every run.  Across seeds
the search winner flips between genotypes whose training cost differs
several-fold, so a seeded design problem would measure the winner rather
than the code.  ``--seed`` generates the clouds the winner is trained on
and the clouds its outputs are checked on: same shapes, new values.
"""

from __future__ import annotations

import dataclasses
import gc
import pathlib
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from perfbench import layers
from perfbench.common import Result, median, peak_mb, rounds_for, run_python, timed
from perfbench.tracing import Tracer, default_targets

DEVICE = "jetson-tx2"
#: Seed of the fixed design problem (datasets, predictor sample, search).
DESIGN_SEED = 0
STAGES = ("train_predictor", "search", "derive")


@dataclass(frozen=True)
class PipelineSizes:
    predictor_samples: int = 200
    positions: int = 8
    predictor_epochs: int = 40
    classes: int = 6
    samples_per_class: int = 6
    points: int = 128
    population: int = 6
    function_iterations: int = 2
    operation_iterations: int = 4
    derive_epochs: int = 2
    setup_repeats: int = 3
    cli_starts_per_flow: int = 3
    flow_s: float = 16.0
    min_flows: int = 2
    #: Predictor quality the design flow must reach (MAPE, Spearman rank correlation).
    max_mape: float = 0.3
    min_spearman: float = 0.5


FULL = PipelineSizes()
TINY = PipelineSizes(
    predictor_samples=16,
    predictor_epochs=2,
    classes=3,
    samples_per_class=3,
    points=24,
    population=2,
    function_iterations=1,
    operation_iterations=1,
    derive_epochs=1,
    setup_repeats=1,
    cli_starts_per_flow=1,
    flow_s=1.0,
    min_flows=1,
    max_mape=float("inf"),
    min_spearman=-1.0,
)


@dataclass
class Inputs:
    train: object
    val: object
    derive_train: object
    check_batch: object


def _search_config(sizes: PipelineSizes, num_classes: int, iterations: tuple[int, int] | None = None):
    from repro.nas import HGNASConfig

    function_iterations, operation_iterations = iterations or (
        sizes.function_iterations,
        sizes.operation_iterations,
    )
    return HGNASConfig(
        num_positions=sizes.positions,
        num_classes=num_classes,
        population_size=sizes.population,
        function_iterations=function_iterations,
        operation_iterations=operation_iterations,
        function_epochs=1,
        operation_epochs=1,
        seed=DESIGN_SEED,
    )


def make_inputs(sizes: PipelineSizes, seed: int) -> Inputs:
    from repro.data import make_synthetic_modelnet
    from repro.data.dataset import collate

    train, val = make_synthetic_modelnet(
        num_classes=sizes.classes, samples_per_class=sizes.samples_per_class, num_points=sizes.points, seed=DESIGN_SEED
    )
    # Offset so that no seed reproduces the design problem's own clouds.
    derive_train, check = make_synthetic_modelnet(
        num_classes=sizes.classes, samples_per_class=sizes.samples_per_class, num_points=sizes.points, seed=seed + 1
    )
    return Inputs(train, val, derive_train, collate(list(check)[: sizes.classes]))


def _warm_up(sizes: PipelineSizes, inputs: Inputs, root: pathlib.Path) -> None:
    """A miniature flow, so first-call costs land in set-up and not in a stage."""
    from repro.nas.presets import device_fast_architecture
    from repro.workspace import Workspace

    workspace = Workspace(DEVICE, root=root)
    workspace.train_predictor(
        num_samples=max(8, sizes.predictor_samples // 8), num_positions=sizes.positions, epochs=2, seed=DESIGN_SEED
    )
    workspace.search(
        inputs.train.subset(range(sizes.classes)),
        inputs.val.subset(range(sizes.classes)),
        config=dataclasses.replace(
            _search_config(sizes, inputs.train.num_classes, iterations=(1, 1)), population_size=2
        ),
        latency_oracle="oracle",
        seed=DESIGN_SEED,
    )
    subset = inputs.derive_train.subset(range(sizes.classes))
    workspace.derive(
        device_fast_architecture(DEVICE, sizes.positions),
        num_classes=inputs.train.num_classes,
        train_dataset=subset,
        train_epochs=1,
        seed=DESIGN_SEED,
    )


def _flow(sizes: PipelineSizes, inputs: Inputs, root: pathlib.Path, result: Result) -> dict | None:
    """One design flow; returns stage times and outputs, or ``None`` after a failed stage."""
    from repro.workspace import Workspace

    workspace = Workspace(DEVICE, root=root)
    flow: dict = {}
    stages = (
        (
            "train_predictor",
            lambda: workspace.train_predictor(
                num_samples=sizes.predictor_samples,
                num_positions=sizes.positions,
                epochs=sizes.predictor_epochs,
                seed=DESIGN_SEED,
            ),
        ),
        (
            "search",
            lambda: workspace.search(
                inputs.train,
                inputs.val,
                config=_search_config(sizes, inputs.train.num_classes),
                latency_oracle="predictor",
                seed=DESIGN_SEED,
                predictor_num_samples=sizes.predictor_samples,
                predictor_epochs=sizes.predictor_epochs,
            ),
        ),
        (
            "derive",
            lambda: workspace.derive(
                flow["search"].best_architecture,
                num_classes=inputs.train.num_classes,
                train_dataset=inputs.derive_train,
                train_epochs=sizes.derive_epochs,
                seed=DESIGN_SEED,
            ),
        ),
    )
    for name, stage in stages:
        phase = result.phase(name)
        # Garbage left by set-up and earlier flows is not this stage's cost.
        gc.collect()
        try:
            flow[name], flow[f"{name}_s"] = timed(stage)
        except Exception as error:  # noqa: BLE001 - counted as a failed operation
            phase.record(False)
            result.details.setdefault("errors", []).append(f"{name}: {type(error).__name__}: {error}")
            return None
        phase.record(True)
    flow["store"] = workspace.cache_stats()
    return flow


def _check_flow(sizes: PipelineSizes, inputs: Inputs, flow: dict, root: pathlib.Path, result: Result) -> None:
    from repro.analysis import validate_architecture
    from repro.nn.tensor import no_grad
    from repro.workspace import Workspace

    winner = flow["search"].best_architecture
    report = validate_architecture(winner, num_points=sizes.points, num_classes=inputs.train.num_classes)
    result.check("winner_valid", report.ok)
    # The search's predictor oracle must have reused the trained predictor.
    result.check("search_reused_predictor", flow["store"]["hits"] >= 1)

    phase = result.phase("search_repeat")
    repeat = Workspace(DEVICE, root=root)
    again = repeat.search(
        inputs.train,
        inputs.val,
        config=_search_config(sizes, inputs.train.num_classes),
        latency_oracle="predictor",
        seed=DESIGN_SEED,
        predictor_num_samples=sizes.predictor_samples,
        predictor_epochs=sizes.predictor_epochs,
    )
    hit = repeat.cache_stats()["hits"] == 1 and again.best_architecture.to_dict() == winner.to_dict()
    phase.record(hit)
    result.check("search_repeat_is_cache_hit", hit)

    model = flow["derive"]
    model.eval()
    with no_grad():
        logits = model(inputs.check_batch).data
    result.check(
        "derived_logits",
        logits.shape == (inputs.check_batch.num_graphs, inputs.train.num_classes) and bool(np.isfinite(logits).all()),
    )
    result.details["winner"] = winner.to_dict()


def _cli_cold_starts(count: int, result: Result) -> list[float]:
    """Wall times of ``count`` fresh ``python -m repro.cli devices`` processes."""
    phase = result.phase("cli_start")
    times = []
    for _ in range(count):
        start = time.perf_counter()
        completed = run_python(["-m", "repro.cli", "devices"])
        times.append(time.perf_counter() - start)
        phase.record(completed.returncode == 0 and "jetson" in completed.stdout.lower())
    return times


def _peak_pass(sizes: PipelineSizes, inputs: Inputs, winner, root: pathlib.Path) -> None:
    """The flow at the timed shapes with epoch and generation counts cut to one."""
    from repro.workspace import Workspace

    workspace = Workspace(DEVICE, root=root)
    workspace.train_predictor(
        num_samples=sizes.predictor_samples, num_positions=sizes.positions, epochs=1, seed=DESIGN_SEED
    )
    workspace.search(
        inputs.train,
        inputs.val,
        config=_search_config(sizes, inputs.train.num_classes, iterations=(1, 1)),
        latency_oracle="predictor",
        seed=DESIGN_SEED,
        predictor_num_samples=sizes.predictor_samples,
        predictor_epochs=1,
    )
    workspace.derive(
        winner, num_classes=inputs.train.num_classes, train_dataset=inputs.derive_train, train_epochs=1, seed=DESIGN_SEED
    )


def run(seed: int, seconds: float, trace: bool, scratch: pathlib.Path, sizes: PipelineSizes = FULL) -> Result:
    result = Result()

    def fresh_root() -> pathlib.Path:
        return pathlib.Path(tempfile.mkdtemp(prefix="store-", dir=scratch))

    setups = []
    for _ in range(sizes.setup_repeats):
        start = time.perf_counter()
        inputs = make_inputs(sizes, seed)
        _warm_up(sizes, inputs, fresh_root())
        setups.append(time.perf_counter() - start)
    result.details["setup_s"] = setups

    flows, cli_times = [], []
    # A traced run times one flow.
    for _ in range(1 if trace else rounds_for(seconds, sizes.flow_s, sizes.min_flows)):
        flow = _flow(sizes, inputs, fresh_root(), result)
        if flow is None:
            return result
        flows.append(flow)
        if not trace:
            # Cold starts between flows sample the whole run, not one stretch of it.
            cli_times += _cli_cold_starts(sizes.cli_starts_per_flow, result)
    first = flows[0]
    _check_flow(sizes, inputs, first, pathlib.Path(first["store"]["root"]), result)
    bundle = first["train_predictor"]
    result.details["flows"] = [{stage: flow[f"{stage}_s"] for stage in STAGES} for flow in flows]

    if trace:
        traced_result = Result()
        with Tracer(default_targets()) as tracer:
            traced = _flow(sizes, inputs, fresh_root(), traced_result)
        result.absorb(traced_result, "traced_")
        if traced is None:
            return result
        result.check(
            "traced_winner_matches", traced["search"].best_architecture.to_dict() == first["search"].best_architecture.to_dict()
        )
        overhead_s = sum(traced[f"{stage}_s"] - first[f"{stage}_s"] for stage in STAGES)
        layers.report(result, tracer, {}, overhead_s)
        return result

    result.check(
        "predictor_quality",
        bundle.metrics.mape <= sizes.max_mape and bundle.metrics.spearman >= sizes.min_spearman,
    )
    result.details["predictor_metrics"] = dataclasses.asdict(bundle.metrics)
    result.details["stage_s"] = {stage: median([flow[f"{stage}_s"] for flow in flows]) for stage in STAGES}
    result.details["cli_cold_start_s"] = cli_times
    winner = first["search"].best_architecture
    result.metric("setup_s", median(setups), "s")
    result.metric("peak_mb", peak_mb(lambda: _peak_pass(sizes, inputs, winner, fresh_root())), "MB")
    result.metric("latency_ms", 1e3 * median(cli_times), "ms")
    result.metric("job_s", median([sum(flow[f"{stage}_s"] for stage in STAGES) for flow in flows]), "s")
    return result
