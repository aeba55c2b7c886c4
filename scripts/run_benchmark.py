#!/usr/bin/env python3
"""Run the full read/write benchmark grid and write CSVs under results/.

Defaults are `RunPlan`'s, the headline experiment shape: node counts 1-20,
task counts 100-500, five repetitions per cell, secure channel. Expect a few
minutes of wall time for the full grid; trim with --reps or --tasks.
"""

import argparse
from pathlib import Path

from edgelinker.bench import RunPlan, cmd_run


def _int_list(text: str) -> list:
    return [int(x) for x in text.split(",")]


def main() -> None:
    defaults = RunPlan()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results")
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument("--reps", type=int, default=defaults.repetitions)
    parser.add_argument("--nodes", type=_int_list, default=defaults.node_counts)
    parser.add_argument("--tasks", type=_int_list, default=defaults.task_counts)
    parser.add_argument("--channel", choices=["secure", "plain"], default=defaults.channel_mode)
    args = parser.parse_args()

    for workload in ("read", "write"):
        plan = RunPlan(
            node_counts=args.nodes,
            task_counts=args.tasks,
            repetitions=args.reps,
            workload=workload,
            channel_mode=args.channel,
            seed=args.seed,
        )
        out_dir = Path(args.out) / workload
        csv_path = cmd_run(plan, out_dir)
        print(f"{workload}: wrote {csv_path}")


if __name__ == "__main__":
    main()
