"""Shared pieces of the benchmark workloads: results, statistics, scratch space, metadata."""

from __future__ import annotations

import contextlib
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

#: Root of the checkout the benchmark runs in (``perfbench/..``).
ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space and written-out traces stay inside the checkout.
SCRATCH = ROOT / ".perfbench_tmp"
OUTPUT = ROOT / ".perfbench_out"

THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


@dataclass
class Phase:
    """Operations attempted, succeeded and failed in one phase of a run."""

    attempted: int = 0
    succeeded: int = 0
    failed: int = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        if ok:
            self.succeeded += 1
        else:
            self.failed += 1


@dataclass
class Result:
    """What one workload run hands back to the command line."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    phases: dict[str, Phase] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    details: dict[str, object] = field(default_factory=dict)

    def phase(self, name: str) -> Phase:
        return self.phases.setdefault(name, Phase())

    def check(self, name: str, ok: bool) -> bool:
        self.checks[name] = bool(ok)
        return bool(ok)

    def absorb(self, other: "Result", prefix: str) -> None:
        """Take over another result's phases and checks under ``prefix``."""
        self.phases.update({prefix + name: phase for name, phase in other.phases.items()})
        self.checks.update({prefix + name: ok for name, ok in other.checks.items()})
        self.details.setdefault("errors", []).extend(other.details.get("errors", []))

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    @property
    def correct(self) -> bool:
        return all(self.checks.values()) and not any(p.failed for p in self.phases.values())

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.phases.values())


def usable_cores() -> int:
    """Cores this process may run on, as ``nproc`` counts them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def rounds_for(seconds: float, round_s: float, minimum: int) -> int:
    """Rounds of work in a run of about ``seconds`` on the reference host.

    ``round_s`` is one round's duration on a 2-core x86 host.  The count
    depends on the arguments alone, never on how fast this host happens to
    run, so every run of a workload does the same work: the same requests,
    the same cache hits and the same memory high-water mark.
    """
    return max(minimum, round(seconds / round_s))


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``; needs at least eleven samples.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count <= 10:
        raise ValueError(f"a tail needs ten samples beyond it; got {count} samples")
    index = count - 11
    return float(ordered[index]), 100.0 * (index + 1) / count, count


def percentile_or_zero(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def timed(function: Callable, *args, **kwargs) -> tuple[object, float]:
    start = time.perf_counter()
    value = function(*args, **kwargs)
    return value, time.perf_counter() - start


def peak_mb(function: Callable[[], object]) -> float:
    """Peak traced Python/numpy allocation (MB) while ``function`` runs."""
    tracemalloc.start()
    try:
        function()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under the checkout, also made the process temp dir."""
    SCRATCH.mkdir(parents=True, exist_ok=True)
    path = pathlib.Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=SCRATCH))
    saved = (tempfile.tempdir, os.environ.get("TMPDIR"))
    tempfile.tempdir = str(path)
    os.environ["TMPDIR"] = str(path)
    try:
        yield path
    finally:
        tempfile.tempdir = saved[0]
        if saved[1] is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = saved[1]
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()


def subprocess_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_python(code_or_args: list[str], timeout: float = 60.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *code_or_args],
        cwd=ROOT,
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
        check=False,
    )


def import_counts() -> tuple[int, int]:
    """Modules loaded by ``import repro.cli.main`` in a fresh interpreter: (all, repro)."""
    probe = run_python(
        [
            "-c",
            "import sys; before = set(sys.modules); import repro.cli.main; "
            "new = set(sys.modules) - before; "
            "print(len(new), sum(1 for m in new if m == 'repro' or m.startswith('repro.')))",
        ]
    )
    if probe.returncode != 0:
        raise RuntimeError(f"import probe failed: {probe.stderr.strip()}")
    total, repro_modules = probe.stdout.split()
    return int(total), int(repro_modules)


def cpu_steal() -> tuple[int, int]:
    """Cumulative (steal, total) CPU ticks from ``/proc/stat``; zeros where unavailable."""
    try:
        fields = pathlib.Path("/proc/stat").read_text().splitlines()[0].split()[1:]
    except OSError:
        return 0, 0
    ticks = [int(value) for value in fields]
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _blas_build() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - metadata only, never fatal
        return "unknown"


def run_metadata(seed: int) -> dict[str, object]:
    """Where and how a run was made."""
    import scipy

    from repro.backends import active_backend_name
    from repro.nn.dtype import get_default_dtype

    return {
        "commit": _git_commit(),
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": usable_cores(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_build(),
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "backend": active_backend_name(),
        "dtype": str(np.dtype(get_default_dtype())),
        "seed": seed,
    }
