"""Run every benchmark workload once and write their end-to-end medians to one JSON file.

    python3 scripts/bench_report.py --seed 1 --seconds 25 --out BENCH_15.json

Each workload runs through `perfbench/run.py --trace 0` at the given seed and
`--seconds`. The file keeps, per workload, the driver's result line
(`correct`, `attempted`, `failed` and the end-to-end metrics, each a median
over executions) and, from its standard-error summary, the median wall-clock
throughput and the median speed factor. `tasks_per_s` is scaled to the
reference speed by that factor; `wall_tasks_per_s` is measured tasks per
second of `Simulation.run` on the wall clock, unscaled, so a skewed speed
factor shows as a gap between the two.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _summary_values(stderr: str, prefix: str) -> list:
    """The numbers on the summary line that starts with `prefix`."""
    for line in stderr.splitlines():
        if line.startswith(prefix):
            return [float(x) for x in line[len(prefix) :].split()]
    raise ValueError(f"perfbench summary has no line starting {prefix!r}")


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_workload(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode == 2 or not proc.stdout.strip():
        raise RuntimeError(f"{workload}: perfbench could not run:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    head = proc.stderr.splitlines()[0]  # "workload W: N executions, M measured tasks each (...)"
    measured = int(head.split(", ")[1].split()[0])
    walls = _summary_values(proc.stderr, "run_s on the wall clock")
    factors = _summary_values(proc.stderr, "speed factor")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "executions": len(walls),
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "wall_tasks_per_s": statistics.median(measured / wall for wall in walls),
        "speed_factor_median": statistics.median(factors),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    report = {
        "command": f"python3 scripts/bench_report.py --seed {args.seed} --seconds {args.seconds:g} --out {args.out}",
        "machine": {"cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
                    "cpu": _cpu_model(), "python": platform.python_version()},
        "workloads": {w: run_workload(w, args.seed, args.seconds) for w in WORKLOADS},
    }
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if all(w["correct"] for w in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
