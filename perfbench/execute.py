"""One execution of one workload in a fresh process; prints one JSON line.

    python3 perfbench/execute.py --workload read_n4 --seed 1 --spawned-at T [--trace | --setup-only]

`T` is the parent's `time.monotonic()` just before it started this process
(a system-wide clock on Linux), so `setup_s` covers interpreter start,
importing `edgelinker` and `cryptography`, key derivation, plans, genesis
and node construction: everything before the first simulated event.

The benchmark generates every input from the seed: device keys, reading
values and the task schedule. It hands them to the program's public
`Simulation` entry point by standing in for the simulator's plan builder,
which otherwise derives fixed workloads from a `ScenarioConfig`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import resource
import sys
import time
from collections import Counter, defaultdict

from shapes import SEED_READINGS, SHAPES, Shape
from speed import SpeedProbe

from edgelinker import sim as sim_module
from edgelinker.chain import Call, Deploy, Query, encode_payload
from edgelinker.channel import generate_keypair
from edgelinker.contracts import (
    HEALTH_RECORD_KIND,
    METHOD_ADD_READING,
    METHOD_GRANT,
    READ_PERMISSION,
    WRITE_PERMISSION,
    contract_address,
    encode_permission_args,
    encode_reading_args,
    replay_chain,
)
from edgelinker.sim import ScenarioConfig, Simulation, Step

FULL_RANGE = (0, 2**63)
DEVICE_BALANCE = 10**12
SETUP_START_US = 10_000
SETUP_GAP_US = 2_000  # spacing of the owner's set-up transactions
SETUP_SLICES = 5  # speed samples right after set-up, to scale its wall time
MIN_SAME_PATH_GAP_US = 1_000  # above the link jitter, so one device's messages to one node stay in order


class Inputs:
    """Device plans generated from (shape, seed), plus what the checks expect."""

    def __init__(self, shape: Shape, seed: int):
        self.shape = shape
        rng = random.Random(f"perfbench:{seed}")

        def keypair(label: str):
            return generate_keypair(hashlib.sha256(f"perfbench:{seed}:{label}".encode()).digest())

        live = list(range(shape.nodes - shape.crashed))
        owner = keypair("owner")
        self.records = [contract_address(owner.public_key, 1), contract_address(owner.public_key, 2)]
        self.balances = {owner.public_key: DEVICE_BALANCE}
        self.expected_readings = [Counter(), Counter()]
        self.write_reading: dict = {}  # label -> (record, (ts, hr))
        self.measured: dict = {}  # label -> kind

        owner_steps: list = []

        def owner_at() -> int:
            return SETUP_START_US + len(owner_steps) * SETUP_GAP_US

        def owner_step(payload, label):
            owner_steps.append(Step(owner_at(), "tx", payload, label))

        for record in self.records:
            owner_step(Deploy(HEALTH_RECORD_KIND, b""), "deploy")
        for record in self.records:
            owner_step(Call(record, METHOD_GRANT, encode_permission_args(WRITE_PERMISSION, owner.public_key)), "grant")

        devices: dict = {}  # actor id -> (keypair, primary node, steps)
        start_us = 2 * shape.block_interval_ms * 1000
        for s_idx, stream in enumerate(shape.streams):
            permission = WRITE_PERMISSION if stream.kind == "write" else READ_PERMISSION
            record = self.records[stream.record]
            ids = [f"{stream.kind}{s_idx}.{j}" for j in range(stream.devices)]
            for j, actor_id in enumerate(ids):
                kp = keypair(actor_id)
                devices[actor_id] = (kp, live[j % len(live)], [])
                if stream.kind == "write":
                    self.balances[kp.public_key] = DEVICE_BALANCE
                owner_step(Call(record, METHOD_GRANT, encode_permission_args(permission, kp.public_key)), "grant")
            period_us = 1_000_000 / stream.rate_hz
            for g in range(stream.count):
                at_us = start_us + round((g + stream.phase) * period_us)
                actor_id = ids[g % stream.devices]
                label = f"{stream.kind}{s_idx}:{g}"
                self.measured[label] = stream.kind
                if stream.kind == "write":
                    reading = (at_us // 1000, rng.randrange(40, 180))
                    self.write_reading[label] = (stream.record, reading)
                    payload = Call(record, METHOD_ADD_READING, encode_reading_args(*reading))
                    devices[actor_id][2].append(Step(at_us, "tx", payload, label, measured=True))
                else:
                    query = Query(record, *FULL_RANGE)
                    target = live[g % len(live)]
                    devices[actor_id][2].append(Step(at_us, "query", query, label, measured=True, target=target))

        for r_idx, record in enumerate(self.records):
            for _ in range(SEED_READINGS):
                reading = (owner_at() // 1000, rng.randrange(40, 180))
                self.expected_readings[r_idx][reading] += 1
                owner_step(Call(record, METHOD_ADD_READING, encode_reading_args(*reading)), "seed_write")
        if owner_at() > start_us:
            raise ValueError("set-up transactions overlap the measured load")

        self.plans = [("owner", owner, 0, owner_steps)]
        self.plans += [(actor_id, kp, primary, steps) for actor_id, (kp, primary, steps) in devices.items()]
        _check_spacing(self.plans)

    def digest(self) -> str:
        """Fingerprint of every generated input, to show what the seed controls."""
        h = hashlib.sha256()
        for actor_id, kp, primary, steps in self.plans:
            h.update(f"{actor_id}/{primary}/".encode() + kp.public_key)
            for step in steps:
                h.update(f"{step.at_us}/{step.kind}/{step.label}/{step.target}/".encode() + encode_payload(step.payload))
        return h.hexdigest()


def _check_spacing(plans) -> None:
    for actor_id, _kp, primary, steps in plans:
        last: dict = {}
        for step in sorted(steps, key=lambda s: s.at_us):
            node = step.target if step.target is not None else primary
            if node in last and step.at_us - last[node] < MIN_SAME_PATH_GAP_US:
                raise ValueError(f"{actor_id} sends to n{node} twice within {MIN_SAME_PATH_GAP_US} us")
            last[node] = step.at_us


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; exact and repeatable for a given sample."""
    ordered = sorted(values)
    return float(ordered[max(1, math.ceil(len(ordered) * q)) - 1])


def build(workload: str, seed: int, share: float = 1.0) -> tuple:
    shape = SHAPES[workload]
    if share != 1.0:
        shape = shape.scaled(share)
    inputs = Inputs(shape, seed)
    # The simulator asks its plan builder for plans once, while constructing.
    sim_module._build_plans = lambda _sim, _config: (inputs.plans, dict(inputs.balances), {})
    config = ScenarioConfig(
        nodes=shape.nodes,
        crashed=shape.crashed,
        block_interval_ms=shape.block_interval_ms,
        workload="mixed",  # only labels the trace; the plans above are what runs
        channel_mode="secure",
    )
    return inputs, Simulation(config, seed)


def check_and_measure(inputs: Inputs, simulation: Simulation, trace) -> dict:
    """Correctness checks and simulated metrics of one finished execution."""
    by_kind = defaultdict(list)
    for event in trace.events:
        by_kind[event.kind].append(event)
    problems: list = []

    live = trace.meta["honest"]
    finals = [trace.final[n] for n in live]
    if len({f.tip_hash for f in finals}) != 1:
        problems.append("live nodes end on different tips")
    if len({f.world.digest() for f in finals}) != 1:
        problems.append("live nodes end with different world states")
    n0 = trace.final[live[0]]
    if replay_chain(n0.chain, trace.genesis).digest() != n0.world.digest():
        problems.append("replaying the chain does not reproduce the world state")

    confirmed = {e.info["label"]: e for e in by_kind["task_confirmed"] if e.info["measured"]}
    replies = {e.info["label"]: e for e in by_kind["task_reply"] if e.info["measured"]}
    unanswered = [label for label in inputs.measured if label not in confirmed and label not in replies]
    bad_status = [label for label, e in replies.items() if e.info["status"] != 0]

    expected = [Counter(c) for c in inputs.expected_readings]
    for label in confirmed:
        record, reading = inputs.write_reading[label]
        expected[record][reading] += 1
    not_stored = 0
    for r_idx, address in enumerate(inputs.records):
        contract = n0.world.contracts.get(address)
        stored = Counter(contract.readings if contract is not None else [])
        not_stored += sum((expected[r_idx] - stored).values())
        if stored - expected[r_idx]:
            problems.append(f"record {r_idx} holds readings no confirmed write sent")
    failed = len(unanswered) + len(bad_status) + not_stored
    if failed:
        problems.append(
            f"{failed} of {len(inputs.measured)} measured tasks failed: {len(unanswered)} unanswered, "
            f"{len(bad_status)} read replies with status != 0, {not_stored} confirmed writes not stored"
        )

    timeouts = by_kind["round_timeout"]
    if inputs.shape.expect_round_change:
        last_confirm = max((e.t_us for e in confirmed.values()), default=0)
        if not any(e.t_us <= last_confirm for e in timeouts):
            problems.append("no round change happened while measured writes were outstanding")

    write_ms = [e.info["rtt_us"] / 1000 for e in confirmed.values()]
    read_ms = [e.info["rtt_us"] / 1000 for e in replies.values()]
    proposed: dict = {}
    for e in by_kind["proposed"]:
        proposed.setdefault(e.info["height"], e.t_us)
    finalized: dict = {}
    for e in by_kind["block_finalized"]:
        finalized.setdefault(e.info["height"], e.t_us)
    height_ms = [(finalized[h] - t) / 1000 for h, t in proposed.items() if h in finalized]
    service_us = simulation.config.query_service_us
    waits_ms = [(e.info["delay_us"] - service_us) / 1000 for e in by_kind["query_served"]]
    delays_ms = [e.info["delay_us"] / 1000 for e in by_kind["tx_finalized_delay"]]
    rejected = Counter(e.info["reason"] for e in by_kind["rejected"])
    # Events dispatched: every event pushed onto the heap minus those still queued.
    dispatched = getattr(simulation, "_seq", 0) - len(getattr(simulation, "heap", ()))

    return {
        "attempted": len(inputs.measured),
        "answered": len(confirmed) + len(replies),
        "failed": failed,
        "problems": problems,
        "sim": {
            "write_confirm_p50_ms": percentile(write_ms, 0.50) if write_ms else None,
            "write_confirm_p99_ms": percentile(write_ms, 0.99) if write_ms else None,
            "read_reply_p50_ms": percentile(read_ms, 0.50) if read_ms else None,
            "read_reply_p99_ms": percentile(read_ms, 0.99) if read_ms else None,
            "writes": len(write_ms),
            "reads": len(read_ms),
            "heights": n0.height,
            "round_changes": len({(e.info["height"], e.info["round"]) for e in timeouts}),
            "height_p50_ms": percentile(height_ms, 0.50) if height_ms else 0.0,
            "confirm_delay_p50_ms": percentile(delays_ms, 0.50) if delays_ms else 0.0,
            "query_wait_p99_ms": percentile(waits_ms, 0.99) if waits_ms else 0.0,
            "rejected": dict(rejected),
            "events": dispatched,
            "messages": trace.counters.get("sent", 0),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true", help="wrap each layer's entry points and report them")
    parser.add_argument("--share", type=float, default=1.0, help="run this share of each stream's tasks")
    parser.add_argument("--setup-only", action="store_true", help="stop before the first simulated event")
    args = parser.parse_args(argv)

    inputs, simulation = build(args.workload, args.seed, args.share)
    setup_wall_s = time.monotonic() - args.spawned_at
    probe = SpeedProbe()
    setup_factor = probe.burst(SETUP_SLICES)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_wall_s * setup_factor, "setup_wall_s": setup_wall_s}))
        return 0
    tracer = None
    if args.trace:
        from layers import LayerTracer

        tracer = LayerTracer(clock=probe.clock)
        tracer.install()
    with probe.sampling():
        start = probe.clock()
        trace = simulation.run()
        run_wall_s = probe.clock() - start
    if tracer is not None:
        tracer.uninstall()
    factor = probe.factor() if probe.speeds else setup_factor

    out = check_and_measure(inputs, simulation, trace)
    out.update(
        setup_s=setup_wall_s * setup_factor,
        setup_wall_s=setup_wall_s,
        run_s=run_wall_s * factor,
        run_wall_s=run_wall_s,
        speed_factor=factor,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        inputs_digest=inputs.digest(),
    )
    if tracer is not None:
        out["layers"] = tracer.report(scale=factor)
        out["missing_layers"] = tracer.missing
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
