"""Command line entry points: run, channel-overhead, attack."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import RunPlan, cmd_attack, cmd_channel_overhead, cmd_run
from .channel import MODES
from .sim import ATTACK_KINDS, ConfigInvalid, ScenarioConfig

ATTACK_SEED = 7


def _int_list(text: str) -> list:
    return [int(part) for part in text.split(",") if part]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="edgelinker", description="Benchmark and attack-drill harness")
    sub = parser.add_subparsers(dest="command", required=True)

    plan = RunPlan()
    run_p = sub.add_parser("run", help="run a workload grid and write CSV results")
    run_p.add_argument("--nodes", type=_int_list, default=plan.node_counts)
    run_p.add_argument("--tasks", type=_int_list, default=plan.task_counts)
    run_p.add_argument("--reps", type=int, default=plan.repetitions)
    run_p.add_argument("--workload", choices=["read", "write"], default=plan.workload)
    run_p.add_argument("--channel", choices=list(MODES), default=plan.channel_mode)
    run_p.add_argument("--seed", type=int, default=plan.seed)
    run_p.add_argument("--interval-ms", type=int, default=plan.block_interval_ms)
    run_p.add_argument("--task-period-us", type=int, default=plan.task_period_us)
    run_p.add_argument("--out", default="results")

    co_p = sub.add_parser("channel-overhead", help="measure secure vs plain channel cost")
    co_p.add_argument("--sizes", type=_int_list, default=[64, 1024, 65536])
    co_p.add_argument("--samples", type=int, default=1000)
    co_p.add_argument("--out", default="results")

    at_p = sub.add_parser("attack", help="run one attack drill and report PASS/FAIL")
    at_p.add_argument("--kind", choices=list(ATTACK_KINDS), required=True)
    at_p.add_argument("--config", default=None, help="scenario JSON file")
    at_p.add_argument("--seed", type=int, default=None, help=f"wins over the config file's seed (default {ATTACK_SEED})")
    at_p.add_argument("--out", default=None, help="directory for the attacked trace.jsonl and alerts.csv")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "run":
        plan = RunPlan(
            node_counts=args.nodes,
            task_counts=args.tasks,
            repetitions=args.reps,
            workload=args.workload,
            channel_mode=args.channel,
            seed=args.seed,
            block_interval_ms=args.interval_ms,
            task_period_us=args.task_period_us,
        )
        try:
            csv_path = cmd_run(plan, args.out)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {csv_path}")
        return 0

    if args.command == "channel-overhead":
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        try:
            rows = cmd_channel_overhead(args.sizes, args.samples, out_dir / "channel_overhead.csv")
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for row in rows:
            print(
                f"size={row['size_bytes']}B secure={row['secure_mean_us']}us "
                f"plain={row['plain_mean_us']}us overhead={row['overhead_mean_us']}us"
            )
        print(f"wrote {out_dir / 'channel_overhead.csv'}")
        return 0

    if args.command == "attack":
        config = None
        if args.config:
            try:
                config = ScenarioConfig.from_json(Path(args.config).read_text())
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        seed = args.seed
        if seed is None:
            seed = config.seed if config is not None and config.seed is not None else ATTACK_SEED
        try:
            report = cmd_attack(args.kind, config, seed)
        except ConfigInvalid as exc:  # raised before anything runs
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for line in report.lines:
            print(line)
        if args.out:
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            report.trace.write_jsonl(out_dir / "trace.jsonl")
            report.trace.write_alerts_csv(out_dir / "alerts.csv")
            print(f"wrote {out_dir / 'trace.jsonl'} and {out_dir / 'alerts.csv'}")
        print(f"{args.kind}: {'PASS' if report.passed else 'FAIL'} overall {report.stats}")
        return 0 if report.passed else 1

    return 2


if __name__ == "__main__":
    raise SystemExit(main())
