"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, the per-layer ones with
``--trace 1``.  The line before it is the run's report: metadata, phases,
checks and the samples behind each median.  Traced runs also write every
span to ``.perfbench_out/trace-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no source tree at {ROOT / 'src' / 'repro'}; run from a full checkout")
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench import pipeline, serve  # noqa: E402
from perfbench.common import OUTPUT, cpu_steal, run_metadata, scratch_dir  # noqa: E402

WORKLOADS = {
    "pipeline": pipeline.run,
    "serve_dgcnn": serve.run_dgcnn,
    "serve_fleet": serve.run_fleet,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    steal_before = cpu_steal()
    with scratch_dir() as scratch:
        result = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), scratch)
    steal_after = cpu_steal()

    tracer = result.details.pop("tracer", None)
    if tracer is not None:
        OUTPUT.mkdir(exist_ok=True)
        tracer.save(OUTPUT / f"trace-{args.workload}.npz")
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "metadata": run_metadata(args.seed),
        # Host contention during the run: the share of CPU time stolen by other guests.
        "cpu_steal_share": (steal_after[0] - steal_before[0]) / max(1, steal_after[1] - steal_before[1]),
        "phases": {name: vars(phase) for name, phase in result.phases.items()},
        "checks": result.checks,
        "details": result.details,
    }
    print(json.dumps(report, default=str))
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
