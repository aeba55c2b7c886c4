"""Benchmark harness: workload grids, channel overhead, attack drills.

Runs simulated read/write workloads across node counts and task counts,
averaging each cell over several seeded repetitions, and writes one CSV row
per cell. Simulated timing columns are fully deterministic for a given seed;
wall-clock columns are prefixed measured_ and excluded from reproducibility
comparisons.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from . import channel as ch
from .sim import ATTACK_KINDS, ScenarioConfig, Simulation, SimTrace, child_rng, child_seed, key_seed, run_scenario

CSV_COLUMNS = [
    "run_id",
    "workload",
    "channel_mode",
    "nodes",
    "tasks",
    "repetitions",
    "seed",
    "confirmed_tx",
    "delay_mean_us",
    "delay_std_us",
    "time_mean_us",
    "time_std_us",
    "tps_mean",
    "tps_std",
    "tip_hashes",
    "measured_wall_mean_s",
]


@dataclass
class RunPlan:
    node_counts: list = field(default_factory=lambda: [1, 5, 10, 15, 20])
    task_counts: list = field(default_factory=lambda: [100, 200, 300, 400, 500])
    repetitions: int = 5
    workload: str = "write"
    channel_mode: str = "secure"
    seed: int = 42
    block_interval_ms: int = 500

    def validate(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.workload not in ("read", "write"):
            raise ValueError(f"unknown workload {self.workload!r}")
        if not self.node_counts or not self.task_counts:
            raise ValueError("node_counts and task_counts must be non-empty")
        for nodes in self.node_counts:
            for tasks in self.task_counts:
                cell_config(self, nodes, tasks).validate()


def cell_config(plan: RunPlan, nodes: int, tasks: int) -> ScenarioConfig:
    return ScenarioConfig(
        nodes=nodes,
        workload=plan.workload,
        tasks=tasks,
        channel_mode=plan.channel_mode,
        block_interval_ms=plan.block_interval_ms,
    )


def _cell_row(plan: RunPlan, nodes: int, tasks: int) -> dict:
    """Run every repetition of one cell and summarise their traces as one CSV row."""
    delays, times, tps_values, walls, tips = [], [], [], [], []
    confirmed = 0
    for rep in range(plan.repetitions):
        # channel_mode is deliberately not part of the derivation: secure and
        # plain runs of the same cell share seeds, so their simulated timelines
        # are directly comparable.
        seed = child_seed(plan.seed, plan.workload, nodes, tasks, rep)
        start = time.perf_counter()
        trace = run_scenario(cell_config(plan, nodes, tasks), seed)
        walls.append(time.perf_counter() - start)
        writes = [e for e in trace.of_kind("task_confirmed") if e.info["measured"]]
        answered = writes + [e for e in trace.of_kind("task_reply") if e.info["measured"]]
        delays += [e.info["delay_node_us"] for e in writes]
        delays += [e.info["delay_us"] for e in trace.of_kind("query_served")]
        times += [e.info["rtt_us"] for e in answered]
        if answered:
            span_us = max(e.t_us for e in answered) - min(e.info["t_send_us"] for e in answered)
            tps_values.append(len(answered) / (max(span_us, 1) / 1_000_000))
        else:
            tps_values.append(0.0)
        confirmed += len(answered)
        tips.append(trace.final["n0"].tip_hash.hex())
    delay_mean, delay_std = _mean_std(delays)
    time_mean, time_std = _mean_std(times)
    tps_mean, tps_std = _mean_std(tps_values)
    wall_mean, _ = _mean_std(walls)
    return {
        "run_id": f"{plan.workload}-{plan.channel_mode}-n{nodes}-t{tasks}",
        "workload": plan.workload,
        "channel_mode": plan.channel_mode,
        "nodes": nodes,
        "tasks": tasks,
        "repetitions": plan.repetitions,
        "seed": plan.seed,
        "confirmed_tx": confirmed,
        "delay_mean_us": f"{delay_mean:.3f}",
        "delay_std_us": f"{delay_std:.3f}",
        "time_mean_us": f"{time_mean:.3f}",
        "time_std_us": f"{time_std:.3f}",
        "tps_mean": f"{tps_mean:.6f}",
        "tps_std": f"{tps_std:.6f}",
        "tip_hashes": ";".join(tips),
        "measured_wall_mean_s": f"{wall_mean:.6f}",
    }


def _mean_std(values) -> tuple:
    if not values:
        return 0.0, 0.0
    if len(values) == 1:
        return float(values[0]), 0.0
    return statistics.fmean(values), statistics.stdev(values)


def _commit_hash() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=5, check=False
        )
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def cmd_run(plan: RunPlan, out_dir) -> Path:
    """Execute the plan grid; one CSV row per (workload, nodes, tasks) cell."""
    plan.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = [_cell_row(plan, nodes, tasks) for nodes in plan.node_counts for tasks in plan.task_counts]
    csv_path = out / "results.csv"
    with open(csv_path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in CSV_COLUMNS) + "\n")
    manifest = {"plan": asdict(plan), "commit": _commit_hash()}
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return csv_path


# --- channel overhead ---------------------------------------------------------

def cmd_channel_overhead(message_sizes, samples: int, out_path=None) -> list:
    """Wall-clock cost of seal+open versus plain encode/decode per size."""
    if samples < 100:
        raise ValueError("need at least 100 samples per size")
    if not message_sizes or min(message_sizes) < 0:
        raise ValueError(f"need at least one message size and none negative, got {list(message_sizes)}")
    rng = child_rng(1234, "overhead")
    kp_sender = ch.generate_keypair(key_seed(1234, "overhead", "sender"))
    kp_receiver = ch.generate_keypair(key_seed(1234, "overhead", "receiver"))
    rows = []
    for size in message_sizes:
        messages = [
            ch.ChannelMessage(1_700_000_000_000, i + 1, kp_sender.public_key, rng.randbytes(size))
            for i in range(samples)
        ]
        secure_ns = []
        for message in messages:
            t0 = time.perf_counter_ns()
            env = ch.seal_message(message, kp_sender.private_key, kp_receiver.public_key, rng=rng)
            ch.open_message(env, kp_receiver.private_key, kp_sender.public_key)
            secure_ns.append(time.perf_counter_ns() - t0)
        plain_ns = []
        for message in messages:
            t0 = time.perf_counter_ns()
            ch.ChannelMessage.decode(message.encode())
            plain_ns.append(time.perf_counter_ns() - t0)
        secure_ns.sort()
        plain_ns.sort()

        def _us(values, q=None):
            if q is None:
                return statistics.fmean(values) / 1000
            return values[min(int(q * len(values)), len(values) - 1)] / 1000

        row = {
            "size_bytes": size,
            "samples": samples,
            "secure_mean_us": round(_us(secure_ns), 3),
            "secure_p99_us": round(_us(secure_ns, 0.99), 3),
            "plain_mean_us": round(_us(plain_ns), 3),
            "plain_p99_us": round(_us(plain_ns, 0.99), 3),
        }
        row["overhead_mean_us"] = round(row["secure_mean_us"] - row["plain_mean_us"], 3)
        row["overhead_p99_us"] = round(row["secure_p99_us"] - row["plain_p99_us"], 3)
        rows.append(row)
    if out_path is not None:
        cols = list(rows[0].keys())
        with open(out_path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for row in rows:
                fh.write(",".join(str(row[c]) for c in cols) + "\n")
    return rows


# --- attack drills ---------------------------------------------------------------

ATTACK_SEED = 7  # a drill's seed when neither the caller nor its config names one


@dataclass
class AttackReport:
    kind: str
    passed: bool
    lines: list
    stats: dict
    trace: SimTrace  # the attacked run


def default_attack_config() -> ScenarioConfig:
    return ScenarioConfig(
        nodes=4,
        workload="scenario",
        writes=6,
        write_period_ms=2000,
        block_interval_ms=500,
    )


def _worlds_equal(a: SimTrace, b: SimTrace, honest) -> bool:
    return all(a.final[n].world.encode() == b.final[n].world.encode() for n in honest)


def _chains_equal(a: SimTrace, b: SimTrace, honest) -> bool:
    return all(a.final[n].chain.encode() == b.final[n].chain.encode() for n in honest)


def _alert_count(trace: SimTrace, node_id: str, kind: str) -> int:
    return sum(1 for alert in trace.final[node_id].alerts if alert.kind == kind)


def cmd_attack(kind: str, config: ScenarioConfig | None = None, seed: int = ATTACK_SEED) -> AttackReport:
    """Run one attack drill and check the corresponding defenses fired."""
    if kind not in ATTACK_KINDS:
        raise ValueError(f"unknown attack kind {kind!r}")
    config = config or default_attack_config()
    if kind == "insertion":
        # Chains are compared byte for byte, so both runs cover the same fixed span.
        duration_s = 45.0 if config.duration_s is None else config.duration_s
        config = replace(config, duration_s=duration_s)
    attacked_sim = Simulation(replace(config, attack=kind), seed)  # before the baseline, so a bad config costs no run
    # The dos checks read the attacked run alone; every other drill compares it with an attack-free run.
    baseline = None if kind == "dos" else run_scenario(replace(config, attack=None), seed)
    attacked = attacked_sim.run()
    honest = attacked.meta["honest"]
    stats = dict(attacked.attack_stats)
    lines = []
    checks = []

    if kind == "replay":
        replayed = stats.get("replayed", 0)
        alerts = _alert_count(attacked, "n0", "replay_detected")
        checks = [
            ("captured envelopes re-sent", replayed >= 1),
            ("state identical to attack-free run", _worlds_equal(attacked, baseline, honest)),
            ("replay alerts raised", alerts >= 1),
            ("one alert per replayed envelope", alerts == replayed),
        ]
        stats["alerts"] = alerts
    elif kind == "eavesdrop":
        attempts = stats.get("attempts", 0)
        checks = [
            ("ciphertexts captured", stats.get("captured", 0) >= 1),
            # An attacker that never woke to open anything proves nothing.
            ("every offline open failed", attempts >= 1 and stats.get("failures", 0) == attempts),
            ("state identical to attack-free run", _worlds_equal(attacked, baseline, honest)),
        ]
    elif kind == "insertion":
        alerts = sum(_alert_count(attacked, n, "invalid_block") for n in honest)
        checks = [
            ("forged blocks sent", stats.get("forged", 0) >= 1),
            ("honest chains byte-identical to baseline", _chains_equal(attacked, baseline, honest)),
            ("invalid-block alerts raised", alerts >= 1),
        ]
        stats["alerts"] = alerts
    elif kind == "dos":
        gas = attacked.genesis.gas.add_data
        balance = stats["balance"]
        denied = sum(
            1
            for e in attacked.of_kind("receipt")
            if e.src == "n0" and e.info.get("result") == "denied"
        )
        skipped = sum(
            1
            for e in attacked.of_kind("receipt")
            if e.src == "n0" and e.info.get("result") == "skipped"
        )
        expected = balance // gas
        checks = [
            ("flood calls sent", stats.get("flood_sent", 0) > expected),
            ("denied calls charged until exhaustion", denied == expected),
            ("further calls skipped for lack of funds", skipped >= 1),
        ]
        stats.update({"denied": denied, "skipped": skipped, "expected": expected})
    elif kind == "spoof":
        sent = stats.get("spoof_sent", 0)
        rejected = sum(
            1
            for e in attacked.of_kind("rejected")
            if e.src == "n0" and e.info.get("reason") in ("decrypt_failed", "signature_invalid")
        )
        checks = [
            ("spoofed envelopes sent", sent >= 1),
            ("every spoofed envelope rejected", rejected >= sent),
            ("state identical to attack-free run", _worlds_equal(attacked, baseline, honest)),
        ]
        stats["rejected"] = rejected

    passed = all(ok for _, ok in checks)
    for label, ok in checks:
        lines.append(f"{kind}: {'PASS' if ok else 'FAIL'} - {label}")
    return AttackReport(kind=kind, passed=passed, lines=lines, stats=stats, trace=attacked)
