"""Acceptance gate: every headline guarantee checked end to end.

Each test prints one PASS/FAIL line (visible with -rA or -s) and enforces
its stated runtime budget where one applies.
"""

import copy
import random
import time
from dataclasses import replace

import pytest

from edgelinker.bench import RunPlan, cmd_attack, cmd_channel_overhead, cmd_run
from edgelinker.chain import Call, Deploy, GasSchedule, make_transaction
from edgelinker.channel import ChannelMessage, SecureEnvelope, derive_shared_key, generate_keypair, open_message, seal_message
import edgelinker.channel as ch
from edgelinker.contracts import (
    PERMITTER_PERMISSION,
    READ_PERMISSION,
    WRITE_PERMISSION,
    Account,
    PermissionDenied,
    WorldState,
    encode_permission_args,
    encode_reading_args,
    execute_transaction,
    grant_permission,
    has_permission,
    initialize,
    replay_chain,
    revoke_permission,
)
from edgelinker.sim import ScenarioConfig, run_scenario
from tests.conftest import kp, load_csv, non_timing_columns

NOW_MS = 1_700_000_000_000


def report(num, name, ok, detail):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


def test_01_permission_algorithm_matches_set_oracle():
    started = time.perf_counter()
    rng = random.Random(101)
    actors = [kp(f"acc1-{i}").public_key for i in range(6)]
    perms = [PERMITTER_PERMISSION, WRITE_PERMISSION, READ_PERMISSION, b"\x7f" * 32]
    mismatches = 0
    guard_mutations = 0
    for _ in range(1000):
        deployer = actors[rng.randrange(len(actors))]
        table = initialize(deployer)
        oracle = {PERMITTER_PERMISSION: {deployer}}
        for _ in range(rng.randrange(1, 30)):
            op = rng.randrange(3)
            caller = actors[rng.randrange(len(actors))]
            perm = perms[rng.randrange(len(perms))]
            subject = actors[rng.randrange(len(actors))]
            allowed = caller in oracle.get(PERMITTER_PERMISSION, set())
            if op == 0:
                if allowed:
                    oracle.setdefault(perm, set()).add(subject)
                    grant_permission(table, caller, perm, subject)
                else:
                    before = table.encode()
                    with pytest.raises(PermissionDenied):
                        grant_permission(table, caller, perm, subject)
                    if table.encode() != before:
                        guard_mutations += 1
            elif op == 1:
                if allowed:
                    oracle.get(perm, set()).discard(subject)
                    revoke_permission(table, caller, perm, subject)
                else:
                    before = table.encode()
                    with pytest.raises(PermissionDenied):
                        revoke_permission(table, caller, perm, subject)
                    if table.encode() != before:
                        guard_mutations += 1
            else:
                if has_permission(table, perm, subject) != (subject in oracle.get(perm, set())):
                    mismatches += 1
        for perm in perms:
            for subject in actors:
                if has_permission(table, perm, subject) != (subject in oracle.get(perm, set())):
                    mismatches += 1
    elapsed = time.perf_counter() - started
    report(
        1,
        "permission-control-oracle-equivalence",
        mismatches == 0 and guard_mutations == 0 and elapsed < 5.0,
        f"1000 sequences, {mismatches} mismatches, {guard_mutations} guard mutations, {elapsed:.2f}s (< 5s)",
    )


def test_02_channel_round_trips_bit_flips_and_dh_symmetry():
    started = time.perf_counter()
    rng = random.Random(202)

    failures = 0
    for _ in range(10_000):
        a = generate_keypair(rng.randbytes(32))
        b = generate_keypair(rng.randbytes(32))
        m = ChannelMessage(NOW_MS, rng.randrange(1, 2**32), a.public_key, rng.randbytes(rng.randrange(0, 128)))
        env = seal_message(m, a.private_key, b.public_key, rng=rng)
        if open_message(env, b.private_key, a.public_key) != m:
            failures += 1

    a, b = kp("acc2-a"), kp("acc2-b")
    probe = seal_message(ChannelMessage(NOW_MS, 1, a.public_key, b""), a.private_key, b.public_key, rng=rng)
    body_len = 256 - len(probe.to_bytes())
    m = ChannelMessage(NOW_MS, 1, a.public_key, rng.randbytes(body_len))
    env = seal_message(m, a.private_key, b.public_key, rng=rng)
    raw = env.to_bytes()
    assert len(raw) == 256
    rejected = 0
    for byte_idx in range(256):
        for bit in range(8):
            mutated = bytearray(raw)
            mutated[byte_idx] ^= 1 << bit
            try:
                open_message(SecureEnvelope.from_bytes(bytes(mutated)), b.private_key, a.public_key)
            except ch.ChannelError:
                rejected += 1

    asym = 0
    for _ in range(1000):
        x = generate_keypair(rng.randbytes(32))
        y = generate_keypair(rng.randbytes(32))
        if derive_shared_key(x.private_key, y.public_key) != derive_shared_key(y.private_key, x.public_key):
            asym += 1

    elapsed = time.perf_counter() - started
    report(
        2,
        "channel-seal-open-conformance",
        failures == 0 and rejected == 2048 and asym == 0 and elapsed < 60.0,
        f"10000 round trips ({failures} failed), {rejected}/2048 bit flips rejected, "
        f"1000 DH pairs ({asym} asymmetric), {elapsed:.1f}s (< 60s)",
    )


def test_03_replay_defense_end_to_end():
    cfg = ScenarioConfig(
        nodes=3,
        workload="write",
        tasks=1000,
        block_interval_ms=200,
        attack_params={"max_replay": 1000, "gap_us": 500},
    )
    baseline = run_scenario(copy.deepcopy(cfg), 303)
    attacked = run_scenario(replace(cfg, attack="replay"), 303)
    replayed = attacked.attack_stats["replayed"]
    alerts = [a for a in attacked.final["n0"].alerts if a.kind == "replay_detected"]
    unchanged = all(
        attacked.final[n].world.encode() == baseline.final[n].world.encode() for n in attacked.meta["honest"]
    )
    report(
        3,
        "replay-attack-defense",
        replayed == 1000 and len(alerts) == 1000 and unchanged,
        f"{replayed} envelopes re-sent, {len(alerts)} replay alerts, state changes: {0 if unchanged else 'DETECTED'}",
    )


def test_04_consensus_safety_and_liveness():
    started = time.perf_counter()
    conflicts = 0
    equivocations_seen = 0
    runs = 0
    for i in range(100):
        n = (4, 7, 10)[i % 3]
        f = (n - 1) // 3
        cfg = ScenarioConfig(
            nodes=n,
            workload="none",
            byzantine=f,
            block_interval_ms=200,
            stop_at_height=6,
            duration_s=45,
        )
        trace = run_scenario(cfg, 40_000 + i)
        runs += 1
        equivocations_seen += len(trace.of_kind("equivocating_proposal"))
        by_height = {}
        for e in trace.of_kind("block_finalized"):
            if e.src not in trace.meta["honest"]:
                continue
            prev = by_height.setdefault(e.info["height"], e.info["hash"])
            if prev != e.info["hash"]:
                conflicts += 1

    liveness_ok = True
    live_detail = []
    for n in (4, 7, 10):
        f = (n - 1) // 3
        cfg = ScenarioConfig(
            nodes=n,
            workload="none",
            crashed=f,
            block_interval_ms=1000,
            stop_at_height=51,
            duration_s=600,
        )
        trace = run_scenario(cfg, 50_000 + n)
        height = max(trace.final[x].height for x in trace.meta["honest"])
        sim_minutes = trace.counters["end_us"] / 60e6
        live_detail.append(f"n={n}:+{height} blocks in {sim_minutes:.1f} sim-min")
        if height < 50 or sim_minutes > 10:
            liveness_ok = False

    elapsed = time.perf_counter() - started
    report(
        4,
        "consensus-safety-and-liveness",
        conflicts == 0 and equivocations_seen > 0 and liveness_ok and elapsed < 300,
        f"{runs} byzantine runs, {conflicts} conflicting finalizations, "
        f"{equivocations_seen} equivocating proposals; liveness {'; '.join(live_detail)}; {elapsed:.1f}s (< 300s)",
    )


def test_05_insertion_attack_leaves_chains_byte_identical():
    cfg = ScenarioConfig(
        nodes=4,
        workload="scenario",
        writes=6,
        write_period_ms=400,
        block_interval_ms=200,
        duration_s=15,
    )
    baseline = run_scenario(copy.deepcopy(cfg), 505)
    attacked = run_scenario(replace(cfg, attack="insertion"), 505)
    identical = all(
        attacked.final[n].chain.encode() == baseline.final[n].chain.encode() for n in attacked.meta["honest"]
    )
    alerts = sum(
        1 for n in attacked.meta["honest"] for a in attacked.final[n].alerts if a.kind == "invalid_block"
    )
    report(
        5,
        "insertion-attack-rejection",
        attacked.attack_stats["forged"] >= 1 and identical and alerts >= 1,
        f"{attacked.attack_stats['forged']} forged blocks, chains byte-identical: {identical}, "
        f"{alerts} invalid-block alerts",
    )


def test_06_gas_schedule_and_dos_drain_exact():
    schedule = GasSchedule()
    world = WorldState()
    owner = kp("acc6-owner")
    world.accounts[owner.public_key] = Account(balance=10**9, next_nonce=1)
    from edgelinker.contracts import contract_address

    contract = contract_address(owner.public_key, 1)
    steps = [
        (Deploy("health_record", b""), 701_382),
        (Call(contract, "grant", encode_permission_args(WRITE_PERMISSION, owner.public_key)), 23_521),
        (Call(contract, "add_reading", encode_reading_args(NOW_MS, 64)), 48_182),
        (Call(contract, "revoke", encode_permission_args(WRITE_PERMISSION, owner.public_key)), 21_948),
    ]
    observed = []
    for nonce, (payload, _expected) in enumerate(steps, start=1):
        receipt = execute_transaction(world, make_transaction(owner, nonce, NOW_MS, payload), schedule, 1)
        observed.append(receipt.gas_used)
    expected = [e for _, e in steps]

    drill = cmd_attack("dos", seed=606)
    drain_exact = drill.stats["denied"] == drill.stats["balance"] // schedule.add_data
    report(
        6,
        "gas-and-fee-accounting",
        observed == expected and drain_exact and drill.passed,
        f"deploy/grant/add/revoke gas {observed} == {expected} (tolerance 0); "
        f"drain {drill.stats['denied']} == {drill.stats['balance']}//{schedule.add_data}",
    )


def test_07_benchmark_runs_are_reproducible(tmp_path):
    plan = RunPlan(
        node_counts=[1, 3],
        task_counts=[30],
        repetitions=2,
        workload="write",
        seed=707,
        block_interval_ms=200,
    )
    rows_a = load_csv(cmd_run(plan, tmp_path / "a"))
    rows_b = load_csv(cmd_run(plan, tmp_path / "b"))
    same_columns = non_timing_columns(rows_a) == non_timing_columns(rows_b)
    same_tips = [r["tip_hashes"] for r in rows_a] == [r["tip_hashes"] for r in rows_b]
    report(
        7,
        "benchmark-determinism",
        same_columns and same_tips,
        f"non-timing CSV columns identical: {same_columns}, chain tips identical: {same_tips}",
    )


def test_08_read_throughput_strictly_increases_with_nodes(tmp_path):
    plan = RunPlan(
        node_counts=[1, 5, 10, 15, 20],
        task_counts=[200],
        repetitions=1,
        workload="read",
        seed=808,
        block_interval_ms=500,
    )
    rows = load_csv(cmd_run(plan, tmp_path))
    tps = [float(r["tps_mean"]) for r in rows]
    increasing = all(a < b for a, b in zip(tps, tps[1:]))
    report(
        8,
        "read-throughput-trend",
        increasing and len(tps) == 5,
        "simulated read TPS over nodes 1,5,10,15,20 = " + ", ".join(f"{t:.0f}" for t in tps),
    )


def test_09_state_replay_integrity_for_every_scenario():
    checked = 0
    scenarios = [
        ScenarioConfig(nodes=3, block_interval_ms=200, writes=6, write_period_ms=400),
        ScenarioConfig(nodes=3, workload="write", tasks=40, block_interval_ms=200),
        ScenarioConfig(nodes=3, block_interval_ms=200, writes=5, write_period_ms=400, attack="replay"),
        ScenarioConfig(nodes=3, workload="scenario", writes=4, write_period_ms=400, block_interval_ms=200, attack="dos"),
    ]
    ok = True
    for cfg in scenarios:
        trace = run_scenario(cfg, 909)
        for node_id, final in trace.final.items():
            rebuilt = replay_chain(final.chain, trace.genesis)
            if rebuilt.encode() != final.world.encode():
                ok = False
            checked += 1
    report(
        9,
        "state-replay-integrity",
        ok and checked == 12,
        f"{checked} node states rebuilt from genesis byte-exactly" if ok else "replay mismatch",
    )


def test_10_channel_overhead_positive_and_at_most_linear():
    sizes = [64, 1024, 65536]
    rows = cmd_channel_overhead(sizes, 150)
    positive = all(row["overhead_mean_us"] > 0 for row in rows)
    growth = rows[-1]["overhead_mean_us"] / max(rows[0]["overhead_mean_us"], 1e-9)
    size_ratio = sizes[-1] / sizes[0]
    at_most_linear = growth <= size_ratio * 1.5
    report(
        10,
        "channel-overhead-report",
        positive and at_most_linear,
        f"mean overhead by size {[row['overhead_mean_us'] for row in rows]} us; "
        f"growth x{growth:.2f} over a x{size_ratio:.0f} size span (at most linear)",
    )
