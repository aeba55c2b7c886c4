"""EdgeLinker benchmark driver.

    python3 perfbench/run.py --workload write_n20_crash --seed 1 --seconds 30 --trace 0

Runs one workload (see shapes.py and README.md) for about `--seconds` wall
seconds. Every execution is a fresh process (execute.py), so no execution
reuses the process-wide caches an earlier one warmed, and `setup_s` includes
the imports. All executions in one run use the same seed, so their simulated
results are identical and only wall-clock figures vary between them; each
metric is the median over the executions.

With `--trace 0` it prints the end-to-end metrics named in BENCHMARK.json.
With `--trace 1` it alternates untraced and traced executions and prints the
per-layer metrics, including the tracing overhead. The last line of standard
output is one JSON object: `correct`, `attempted`, `failed`, `metrics`. A
human-readable summary goes to standard error. The exit code is 1 when any
execution fails its correctness check, and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # the driver leaves no files beside its sources

from shapes import SHAPES  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_EXECUTIONS = 3
SETUPS_PER_EXECUTION = 2  # extra set-up-only executions, for a steadier setup_s
EXECUTION_TIMEOUT_S = 150
# Executions cache compiled bytecode here, inside the checkout, whatever the
# caller's environment says, so set-up time never includes compiling.
PYCACHE = ROOT / ".perfbench_cache"


class BenchmarkError(Exception):
    pass


def execute(workload: str, seed: int, traced: bool = False, share: float = 1.0, setup_only: bool = False) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts in every execution
    cmd = [sys.executable, str(HERE / "execute.py"), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if share != 1.0:
        cmd += ["--share", str(share)]
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=EXECUTION_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"execution failed with code {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(untraced: list, setups: list) -> dict:
    first = untraced[0]["sim"]
    return {
        "setup_s": median(e["setup_s"] for e in untraced + setups),
        "tasks_per_s": median(e["answered"] / e["run_s"] for e in untraced),
        "peak_rss_mb": median(e["peak_rss_mb"] for e in untraced),
        # Simulated: identical in every execution of one seed.
        "write_confirm_p50_ms": first["write_confirm_p50_ms"],
        "write_confirm_p99_ms": first["write_confirm_p99_ms"],
        "read_reply_p50_ms": first["read_reply_p50_ms"],
        "read_reply_p99_ms": first["read_reply_p99_ms"],
    }


def per_layer(untraced: list, traced: list) -> dict:
    out: dict = {}
    for name in traced[0]["layers"]:
        out[f"{name}.calls"] = median(e["layers"][name]["calls"] for e in traced)
        out[f"{name}.self_s"] = median(e["layers"][name]["self_s"] for e in traced)

    def extra(name):
        return median(e["layers"][name]["extra"] for e in traced)

    sim = traced[0]["sim"]
    heights = max(sim["heights"], 1)
    out["channel.seal_message.bytes"] = extra("channel.seal_message")
    out["channel.open_message.failed"] = extra("channel.open_message")
    out["contracts.txs_applied"] = extra("contracts.apply_block")
    reads = max(out["contracts.read_history.calls"], 1)
    out["contracts.readings_per_read"] = extra("contracts.read_history") / reads
    out["consensus.heights"] = sim["heights"]
    out["consensus.round_changes"] = sim["round_changes"]
    out["consensus.messages_per_height"] = out["node.on_consensus.calls"] / heights
    out["consensus.height_p50_ms"] = sim["height_p50_ms"]
    out["node.rejected"] = sum(sim["rejected"].values())
    out["node.confirm_delay_p50_ms"] = sim["confirm_delay_p50_ms"]
    out["node.query_wait_p99_ms"] = sim["query_wait_p99_ms"]
    out["sim.events"] = sim["events"]
    out["sim.messages"] = sim["messages"]
    out["sim.events_per_s"] = median(e["sim"]["events"] / e["run_s"] for e in untraced)
    out["sim.loop_self_s"] = out["sim.run.self_s"]
    out["sim.device_self_s"] = out["sim.device_wake.self_s"] + out["sim.device_receive.self_s"]
    out["trace.overhead_s"] = median(t["run_s"] - u["run_s"] for u, t in zip(untraced, traced))
    return out


def summarize(workload: str, executions: list, setups: list, metrics: dict) -> None:
    first = executions[0]
    sim = first["sim"]
    lines = [
        f"workload {workload}: {len(executions)} executions, {first['attempted']} measured tasks each "
        f"({sim['writes']} writes confirmed, {sim['reads']} reads answered)",
        f"task_fail_frac {first['failed']}/{first['attempted']} per execution; "
        f"rejects by reason {sim['rejected'] or 'none'}",
        "run_s at reference speed " + " ".join(f"{e['run_s']:.3f}" for e in executions),
        "run_s on the wall clock  " + " ".join(f"{e['run_wall_s']:.3f}" for e in executions),
        "speed factor             " + " ".join(f"{e['speed_factor']:.3f}" for e in executions),
        "setup_s on the wall clock " + " ".join(f"{e['setup_wall_s']:.3f}" for e in executions + setups),
    ]
    missing_layers = sorted({name for e in executions for name in e.get("missing_layers", ())})
    if missing_layers:
        lines.append(f"not found in the program, reported as zero: {', '.join(missing_layers)}")
    lines += [f"  {name} = {value:.6g}" for name, value in metrics.items()]
    for e in executions:
        lines += [f"CHECK FAILED: {p}" for p in e["problems"]]
    print("\n".join(lines), file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    if not (ROOT / "src" / "edgelinker").is_dir():
        print("perfbench: no src/edgelinker beside perfbench/; run from a checkout of the repository", file=sys.stderr)
        return 2

    deadline = time.monotonic() + args.seconds
    untraced: list = []
    traced: list = []
    setups: list = []
    try:
        minimum = 1 if args.trace else MIN_EXECUTIONS
        while len(untraced) < minimum or time.monotonic() < deadline:
            untraced.append(execute(args.workload, args.seed))
            if args.trace:
                traced.append(execute(args.workload, args.seed, traced=True))
            else:
                setups += [execute(args.workload, args.seed, setup_only=True) for _ in range(SETUPS_PER_EXECUTION)]
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    values = per_layer(untraced, traced) if args.trace else end_to_end(untraced, setups)
    metrics = {}
    for spec in wanted:
        value = values.get(spec["name"])
        if value is None:
            print(f"perfbench: workload produced no value for {spec['name']}", file=sys.stderr)
            return 2
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    executions = untraced + traced
    for e in executions[1:]:
        if e["sim"] != executions[0]["sim"]:
            e["problems"].append("simulated results differ between executions of one seed")
    summarize(args.workload, executions, setups, values)
    correct = all(not e["problems"] for e in executions)
    result = {
        "correct": correct,
        "attempted": sum(e["attempted"] for e in executions),
        "failed": sum(e["failed"] for e in executions),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
