"""Command line entry points: run, channel-overhead, attack."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import ATTACK_SEED, RunPlan, cmd_attack, cmd_channel_overhead, cmd_run
from .channel import MODES
from .sim import ATTACK_KINDS, ScenarioConfig


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
    try:
        return COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:  # a bad path, flag or config
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(args) -> int:
    plan = RunPlan(
        node_counts=args.nodes,
        task_counts=args.tasks,
        repetitions=args.reps,
        workload=args.workload,
        channel_mode=args.channel,
        seed=args.seed,
        block_interval_ms=args.interval_ms,
    )
    print(f"wrote {cmd_run(plan, args.out)}")
    return 0


def _channel_overhead(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for row in cmd_channel_overhead(args.sizes, args.samples, out_dir / "channel_overhead.csv"):
        print(
            f"size={row['size_bytes']}B secure={row['secure_mean_us']}us "
            f"plain={row['plain_mean_us']}us overhead={row['overhead_mean_us']}us"
        )
    print(f"wrote {out_dir / 'channel_overhead.csv'}")
    return 0


def _attack(args) -> int:
    config = ScenarioConfig.from_json(Path(args.config).read_text()) if args.config else None
    seed = args.seed
    if seed is None:
        seed = config.seed if config is not None and config.seed is not None else ATTACK_SEED
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)  # before the drill, so a bad path costs no run
    report = cmd_attack(args.kind, config, seed)
    for line in report.lines:
        print(line)
    if out_dir is not None:
        report.trace.write_jsonl(out_dir / "trace.jsonl")
        report.trace.write_alerts_csv(out_dir / "alerts.csv")
        print(f"wrote {out_dir / 'trace.jsonl'} and {out_dir / 'alerts.csv'}")
    print(f"{args.kind}: {'PASS' if report.passed else 'FAIL'} overall {report.stats}")
    return 0 if report.passed else 1


COMMANDS = {"run": _run, "channel-overhead": _channel_overhead, "attack": _attack}


if __name__ == "__main__":
    raise SystemExit(main())
