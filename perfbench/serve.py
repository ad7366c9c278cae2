"""Serving workloads: ``serve_dgcnn`` (one in-process engine) and ``serve_fleet`` (a worker pool).

``serve_dgcnn`` serves the paper's DGCNN baseline at 1024 points, k=20 and
40 classes to one closed-loop client.  Every cloud is unique, so no cache
helps.  Phase A sends one request at a time (batch-1 edge latency); phase B
sends waves of 8 through ``submit_many``.

``serve_fleet`` serves the searched ``jetson-tx2`` design from a pool of
worker processes with the shared disk cache on.  A quarter of the clouds
of every wave but the first repeat clouds of waves that have already
drained, so cache hits repeat exactly.  Phase A is an open loop at a fixed
rate, timed from each request's due time; phase B is a closed-loop burst.

Both workloads alternate their two phases in rounds, so that each phase
samples the whole run; ``--seconds`` sets the number of rounds.
"""

from __future__ import annotations

import pathlib
import tempfile
import time
from concurrent.futures import wait
from dataclasses import dataclass

import numpy as np

from perfbench import layers
from perfbench.common import Result, median, peak_mb, percentile_or_zero, ratio, rounds_for, tail, usable_cores
from perfbench.tracing import Tracer, default_targets

DEVICE = "jetson-tx2"


def cloud_stream(seed: int, num_points: int):
    """Endless unique synthetic-shape clouds drawn from ``seed``."""
    from repro.data.shapes import generate_shape, list_shape_names

    rng = np.random.default_rng(seed)
    names = list_shape_names()
    while True:
        name = names[int(rng.integers(len(names)))]
        yield generate_shape(name, num_points, rng).astype(np.float32)


def _matches(result, reference) -> bool:
    return result.label == reference.label and np.allclose(result.logits, reference.logits, rtol=1e-4, atol=1e-5)


def _engine_layers(telemetry, cache_stats) -> dict[str, float]:
    return {
        "serving.engine.batches": float(telemetry.batches),
        "serving.engine.batch_size_mean": telemetry.mean_batch_size,
        "serving.engine.busy_s": telemetry.busy.elapsed,
        "serving.engine.queue_ms_p50": percentile_or_zero(list(telemetry.queue_ms), 50),
        "serving.cache.result_hit_ratio": cache_stats["result"].hit_rate if "result" in cache_stats else 0.0,
        "serving.cache.edge_hit_ratio": cache_stats["edge"].hit_rate if "edge" in cache_stats else 0.0,
    }


# ---------------------------------------------------------------------- #
# serve_dgcnn
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class DgcnnSizes:
    points: int = 1024
    k: int = 20
    classes: int = 40
    wave: int = 8
    singles_per_round: int = 5
    round_s: float = 3.5
    #: Enough rounds that a tail percentile of the singles has ten samples beyond it.
    min_rounds: int = 5
    setup_repeats: int = 3
    checked_singles: int = 3


DGCNN_FULL = DgcnnSizes()
DGCNN_TINY = DgcnnSizes(
    points=48, k=6, classes=4, wave=3, singles_per_round=11, round_s=1.0, min_rounds=1, setup_repeats=1, checked_singles=2
)


def _dgcnn_engine(sizes: DgcnnSizes, cached: bool = True):
    from repro.hardware.device import get_device
    from repro.nas.presets import dgcnn_architecture
    from repro.serving.engine import EngineConfig, InferenceEngine
    from repro.serving.registry import ModelRegistry

    registry = ModelRegistry()
    registry.register("dgcnn", dgcnn_architecture(), get_device(DEVICE), num_classes=sizes.classes, k=sizes.k)
    no_cache = {} if cached else {"result_cache_capacity": 0, "edge_cache_capacity": 0}
    return InferenceEngine(registry, EngineConfig(max_batch_size=sizes.wave, **no_cache))


def _serve_dgcnn_rounds(engine, clouds, sizes: DgcnnSizes, rounds: int, result: Result) -> dict:
    """``rounds`` rounds of single requests (phase A) then one wave (phase B).

    Interleaving the phases makes each sample the whole run, so a slow
    stretch on a shared host weighs on both alike.
    """
    singles, waves = [], []
    latencies, wave_times = [], []
    phase_a, phase_b = result.phase("single"), result.phase("wave")
    start = time.perf_counter()
    for _ in range(rounds):
        for _ in range(sizes.singles_per_round):
            cloud = next(clouds)
            began = time.perf_counter()
            try:
                response = engine.submit("dgcnn", cloud)
            except Exception:  # noqa: BLE001 - counted as a failed operation
                phase_a.record(False)
                continue
            latencies.append((time.perf_counter() - began) * 1e3)
            phase_a.record(bool(np.isfinite(response.logits).all()))
            singles.append((cloud, response))
        wave = [next(clouds) for _ in range(sizes.wave)]
        began = time.perf_counter()
        try:
            responses = engine.submit_many("dgcnn", wave)
        except Exception:  # noqa: BLE001 - counted as failed operations
            for _ in wave:
                phase_b.record(False)
            continue
        wave_times.append(time.perf_counter() - began)
        for response in responses:
            phase_b.record(bool(np.isfinite(response.logits).all()))
        waves.append((wave, responses))
    return {
        "singles": singles,
        "waves": waves,
        "latencies_ms": latencies,
        "wave_s": wave_times,
        "wall_s": time.perf_counter() - start,
    }


def _check_dgcnn(sizes: DgcnnSizes, served: dict, result: Result) -> None:
    """Labels and logits equal those of a no-cache engine given the same batches."""
    reference = _dgcnn_engine(sizes, cached=False)
    singles = served["singles"][: sizes.checked_singles]
    result.check(
        "singles_match_reference",
        all(_matches(response, reference.submit("dgcnn", cloud)) for cloud, response in singles),
    )
    wave, responses = served["waves"][0]
    result.check(
        "wave_matches_reference",
        all(_matches(a, b) for a, b in zip(responses, reference.submit_many("dgcnn", wave))),
    )


def run_dgcnn(seed: int, seconds: float, trace: bool, scratch: pathlib.Path, sizes: DgcnnSizes = DGCNN_FULL) -> Result:
    result = Result()
    clouds = cloud_stream(seed, sizes.points)
    setups = []
    for _ in range(sizes.setup_repeats):
        start = time.perf_counter()
        engine = _dgcnn_engine(sizes)
        engine.submit("dgcnn", next(clouds))
        setups.append(time.perf_counter() - start)
    result.details["setup_s"] = setups

    rounds = rounds_for(seconds, sizes.round_s, sizes.min_rounds)
    result.details["rounds"] = rounds
    served = _serve_dgcnn_rounds(engine, clouds, sizes, rounds, result)
    _check_dgcnn(sizes, served, result)

    if trace:
        traced_engine = _dgcnn_engine(sizes)
        traced_engine.submit("dgcnn", next(clouds))
        # The same clouds again: skip those the set-up engines took.
        replay = cloud_stream(seed, sizes.points)
        for _ in range(sizes.setup_repeats):
            next(replay)
        traced_result = Result()
        with Tracer(default_targets()) as tracer:
            traced = _serve_dgcnn_rounds(traced_engine, replay, sizes, rounds, traced_result)
        result.absorb(traced_result, "traced_")
        telemetry = traced_engine.telemetry.model("dgcnn")
        layers.report(
            result,
            tracer,
            _engine_layers(telemetry, traced_engine.cache_stats()),
            traced["wall_s"] - served["wall_s"],
        )
        return result

    tail_ms, tail_pct, samples = tail(served["latencies_ms"])
    result.details["tail"] = {"value_ms": tail_ms, "percentile": tail_pct, "samples": samples}
    result.details["clouds_per_s"] = sizes.wave * len(served["wave_s"]) / sum(served["wave_s"])
    result.metric("setup_s", median(setups), "s")
    result.metric("latency_ms", median(served["latencies_ms"]), "ms")
    result.metric("job_s", median(served["wave_s"]), "s")

    def peak_pass() -> None:
        engine.submit("dgcnn", next(clouds))
        engine.submit_many("dgcnn", [next(clouds) for _ in range(sizes.wave)])

    result.metric("peak_mb", peak_mb(peak_pass), "MB")
    return result


# ---------------------------------------------------------------------- #
# serve_fleet
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class FleetSizes:
    points: int = 1024
    classes: int = 40
    rate_per_s: float = 20.0
    open_wave: int = 20
    open_waves_per_round: int = 2
    burst_wave: int = 16
    burst_waves_per_round: int = 6
    round_s: float = 4.2
    min_rounds: int = 2
    repeat_share: float = 0.25
    setup_repeats: int = 3
    checked: int = 8


FLEET_FULL = FleetSizes()
FLEET_TINY = FleetSizes(
    points=48,
    classes=4,
    rate_per_s=40.0,
    open_wave=4,
    open_waves_per_round=3,
    burst_wave=4,
    burst_waves_per_round=2,
    round_s=1.0,
    min_rounds=2,
    setup_repeats=1,
    checked=2,
)


def pool_workers() -> int:
    """One worker per usable core, at most four."""
    return min(usable_cores(), 4)


def _fleet_registry(sizes: FleetSizes):
    from repro.hardware.device import get_device
    from repro.nas.presets import device_fast_architecture
    from repro.serving.registry import ModelRegistry

    registry = ModelRegistry()
    registry.register("fleet", device_fast_architecture(DEVICE), get_device(DEVICE), num_classes=sizes.classes)
    return registry


def _open_pool(registry, root: pathlib.Path, warm_clouds: list):
    from repro.serving.engine import EngineConfig
    from repro.serving.pool import PoolConfig, WorkerPoolEngine

    pool = WorkerPoolEngine(registry, EngineConfig(), PoolConfig(workers=pool_workers()), root=root)
    pool.submit_many("fleet", warm_clouds)
    return pool


class WavePlan:
    """Clouds per wave: fresh ones from the seed, plus repeats of drained waves."""

    def __init__(self, seed: int, sizes: FleetSizes):
        self.fresh = cloud_stream(seed, sizes.points)
        self.rng = np.random.default_rng(seed + 1)
        self.sizes = sizes
        self.waves: list[list[tuple[int, np.ndarray]]] = []
        self.first_seen: list[np.ndarray] = []

    def wave(self, size: int, drained: int) -> list[tuple[int, np.ndarray]]:
        """``size`` (cloud id, cloud) pairs; repeats come from the first ``drained`` waves."""
        pool = sorted({cloud_id for wave in self.waves[:drained] for cloud_id, _ in wave})
        repeats = int(round(size * self.sizes.repeat_share)) if pool else 0
        slots = set(self.rng.choice(size, size=repeats, replace=False).tolist()) if repeats else set()
        wave = []
        for slot in range(size):
            if slot in slots:
                cloud_id = int(pool[int(self.rng.integers(len(pool)))])
            else:
                cloud_id = len(self.first_seen)
                self.first_seen.append(next(self.fresh))
            wave.append((cloud_id, self.first_seen[cloud_id]))
        self.waves.append(wave)
        return wave


def _serve_fleet_rounds(pool, plan: WavePlan, sizes: FleetSizes, rounds: int, result: Result) -> dict:
    """``rounds`` rounds of an open-loop stretch (phase A) then a closed-loop burst (phase B).

    Interleaving the phases makes each sample the whole run.  Each phase
    drains before the next begins, so an open-loop stretch starts on an
    idle pool.
    """
    open_phase, burst_phase = result.phase("open_loop"), result.phase("burst")
    responses: dict[int, object] = {}
    repeats_exact = True
    due_latency, dispatch_overhead, lag, burst_times = [], [], [], []

    def settle(cloud_id: int, response, phase) -> None:
        nonlocal repeats_exact
        phase.record(not isinstance(response, BaseException))
        if isinstance(response, BaseException):
            return
        if cloud_id in responses:
            repeats_exact &= np.array_equal(responses[cloud_id].logits, response.logits)
        else:
            responses[cloud_id] = response

    def open_loop() -> None:
        interval = 1.0 / sizes.rate_per_s
        drained_before = len(plan.waves)
        start = time.perf_counter()
        sent: list[tuple[int, float, float, object, list[float]]] = []
        wave_futures: list[list] = []
        for wave_index in range(sizes.open_waves_per_round):
            # Repeats refer to waves at least two back; wait until those drained.
            if wave_index >= 2:
                wait(wave_futures[wave_index - 2])
            futures = []
            for cloud_id, cloud in plan.wave(sizes.open_wave, drained=drained_before + max(0, wave_index - 1)):
                due = start + len(sent) * interval
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                send = time.perf_counter()
                done: list[float] = []
                future = pool.submit("fleet", cloud)
                future.add_done_callback(lambda _, done=done: done.append(time.perf_counter()))
                futures.append(future)
                sent.append((cloud_id, due, send, future, done))
                lag.append((send - due) * 1e3)
            wave_futures.append(futures)
        for cloud_id, due, send, future, done in sent:
            try:
                response = future.result(timeout=60)
            except Exception as error:  # noqa: BLE001 - counted as a failed operation
                settle(cloud_id, error, open_phase)
                continue
            settle(cloud_id, response, open_phase)
            due_latency.append((done[0] - due) * 1e3)
            dispatch_overhead.append((done[0] - send) * 1e3 - response.latency_ms)

    def burst() -> None:
        for _ in range(sizes.burst_waves_per_round):
            wave = plan.wave(sizes.burst_wave, drained=len(plan.waves))
            began = time.perf_counter()
            outcomes = pool.submit_many("fleet", [cloud for _, cloud in wave], return_exceptions=True)
            burst_times.append(time.perf_counter() - began)
            for (cloud_id, _), outcome in zip(wave, outcomes):
                settle(cloud_id, outcome, burst_phase)

    start = time.perf_counter()
    for _ in range(rounds):
        open_loop()
        burst()
    return {
        "responses": responses,
        "repeats_exact": repeats_exact,
        "due_latency_ms": due_latency,
        "dispatch_overhead_ms": dispatch_overhead,
        "lag_ms": lag,
        "burst_s": burst_times,
        "wall_s": time.perf_counter() - start,
    }


def _worker_rss_mb() -> float:
    """Largest resident high-water mark (VmHWM) among live worker processes."""
    import multiprocessing

    peaks = []
    for process in multiprocessing.active_children():
        try:
            status = pathlib.Path(f"/proc/{process.pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                peaks.append(int(line.split()[1]) / 1024.0)
    return max(peaks) if peaks else 0.0


def _pool_layers(pool, served: dict, failed: int) -> dict[str, float]:
    telemetry = pool.fleet_telemetry().model("fleet")
    caches = pool.fleet_cache_stats()
    metrics = _engine_layers(telemetry, caches)
    from repro.serving.telemetry import TelemetryStore

    served_per_worker, busy = [], 0.0
    for snapshot in pool.worker_snapshots.values():
        worker = TelemetryStore().merge(snapshot["telemetry"]).model("fleet")
        busy += worker.busy.elapsed
        served_per_worker.append(worker.served)
    shared = caches.get("shared")
    metrics.update(
        {
            "serving.pool.dispatch_overhead_ms_p50": percentile_or_zero(served["dispatch_overhead_ms"], 50),
            "serving.pool.worker_busy_share": ratio(busy, pool.pool_config.workers * served["wall_s"]),
            "serving.pool.served_skew": ratio(max(served_per_worker, default=0), np.mean(served_per_worker or [0])),
            "serving.pool.requeued": float(pool.requeued),
            "serving.pool.restarts": float(pool.restarts),
            "serving.pool.failed": float(failed),
            "serving.pool.generator_lag_ms_max": max(served["lag_ms"], default=0.0),
            "serving.diskcache.hits": float(shared.hits) if shared else 0.0,
            "serving.diskcache.hit_ratio": shared.hit_rate if shared else 0.0,
            "serving.diskcache.puts": float(
                sum(snapshot["caches"].get("shared", {}).get("writes", 0) for snapshot in pool.worker_snapshots.values())
            ),
        }
    )
    return metrics


def _check_fleet(sizes: FleetSizes, registry, served: dict, result: Result) -> None:
    """A fixed sample of responses against an in-process no-cache engine; repeats bit-exact."""
    from repro.serving.engine import EngineConfig, InferenceEngine

    result.check("repeats_bit_exact", served["repeats_exact"])
    reference = InferenceEngine(registry, EngineConfig(result_cache_capacity=0, edge_cache_capacity=0))
    responses = served["responses"]
    step = max(1, len(responses) // sizes.checked)
    sample = sorted(responses)[::step][: sizes.checked]
    result.check(
        "sample_matches_reference",
        all(_matches(responses[cloud_id], reference.submit("fleet", served["clouds"][cloud_id])) for cloud_id in sample),
    )


def run_fleet(seed: int, seconds: float, trace: bool, scratch: pathlib.Path, sizes: FleetSizes = FLEET_FULL) -> Result:
    result = Result()

    def fresh_root() -> pathlib.Path:
        return pathlib.Path(tempfile.mkdtemp(prefix="pool-", dir=scratch))

    warm = cloud_stream(seed + 2, sizes.points)
    setups = []
    for index in range(sizes.setup_repeats):
        start = time.perf_counter()
        registry = _fleet_registry(sizes)
        pool = _open_pool(registry, fresh_root(), [next(warm) for _ in range(pool_workers())])
        setups.append(time.perf_counter() - start)
        if index < sizes.setup_repeats - 1:
            start = time.perf_counter()
            pool.shutdown()
            setups[-1] += time.perf_counter() - start

    plan = WavePlan(seed, sizes)
    rounds = rounds_for(seconds, sizes.round_s, sizes.min_rounds)
    result.details["rounds"] = rounds
    try:
        served = _serve_fleet_rounds(pool, plan, sizes, rounds, result)
        rss_mb = _worker_rss_mb()
    finally:
        start = time.perf_counter()
        pool.shutdown()
        setups[-1] += time.perf_counter() - start
    served["clouds"] = plan.first_seen
    _check_fleet(sizes, registry, served, result)
    result.details["setup_s"] = setups

    if trace:
        replay = WavePlan(seed, sizes)
        traced_pool = _open_pool(registry, fresh_root(), [next(warm) for _ in range(pool_workers())])
        traced_result = Result()
        try:
            # Workers fork before the wrappers go in, so they are not traced.
            with Tracer(default_targets()) as tracer:
                traced = _serve_fleet_rounds(traced_pool, replay, sizes, rounds, traced_result)
        finally:
            traced_pool.shutdown()
        result.absorb(traced_result, "traced_")
        result.check("traced_repeats_bit_exact", traced["repeats_exact"])
        layers.report(
            result,
            tracer,
            _pool_layers(traced_pool, traced, traced_result.failed),
            traced["wall_s"] - served["wall_s"],
        )
        return result

    if len(served["due_latency_ms"]) > 10:
        tail_ms, tail_pct, samples = tail(served["due_latency_ms"])
        result.details["tail"] = {"value_ms": tail_ms, "percentile": tail_pct, "samples": samples}
    result.details["clouds_per_s"] = sizes.burst_wave * len(served["burst_s"]) / sum(served["burst_s"])
    result.metric("setup_s", median(setups), "s")
    # The work runs in the workers, so their memory is the one that counts.
    result.metric("peak_mb", rss_mb, "MB")
    result.metric("latency_ms", median(served["due_latency_ms"]), "ms")
    result.metric("job_s", median(served["burst_s"]), "s")
    return result
