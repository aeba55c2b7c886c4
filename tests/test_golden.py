"""Pinned outcomes of seeded runs: the lifecycle, a 20-node write cell and
the five attack drills.

The tip hashes, world digests and alert counts were recorded before the
ledger records became immutable and started caching their bytes and hashes.
A change to how records are built, encoded or hashed must leave every value
as it is: the tip hash, the world digest, the digest of the full event trace
and the alert count.

The trace digests were re-pinned once, when a node started sending one
confirmation per device and finalized block instead of one per transaction.
That changed only the `task_confirmed` events: they gained the receipt's
result and reason, and their arrival times moved within the link jitter,
because each confirmation link draws fewer jitter samples. Every other event
stayed identical.

The replay, eavesdrop, denial-of-service and spoofing drills were pinned
later, with the values the code gave at the time, so that a change to how
devices and attackers are driven shows up in their traces.

The trace digests were re-pinned a second time, when only a transaction's
entry node (the node that admitted it from its device's channel) began to
record its `tx_admitted` and `receipt` events. Before, every node recorded
one of each per transaction, so the trace grew with transactions times
nodes. No check read the replicas' copies, and `replay_chain` rebuilds any
node's receipts from its chain. Every other event, and its order, stayed
identical, and the entry node's events are the ones kept; `receipt` now sits
directly before that node's `tx_finalized_delay` for the same transaction.
"""

import hashlib
from dataclasses import replace

import pytest

from edgelinker.bench import default_attack_config
from edgelinker.sim import ScenarioConfig, run_scenario


def _lifecycle():
    return run_scenario(ScenarioConfig(), 42)


def _write_cell():
    return run_scenario(ScenarioConfig(nodes=20, workload="write", tasks=500, block_interval_ms=500), 42)


def _insertion_drill():
    cfg = replace(default_attack_config(), attack="insertion", duration_s=45.0)
    return run_scenario(cfg, 7)


def _drill(kind):
    return lambda: run_scenario(replace(default_attack_config(), attack=kind), 7)


GOLDEN = {
    "lifecycle_seed42": (
        _lifecycle,
        "0bc54e46b3ab5439f773761adfdade28c8128e8a1f530f092f1b6dd0438ffce4",
        "ca9d846779cd19008f7ef906b445385eaac4c015779a9410d8f6a7f78c23eb2b",
        "c250f8a96de1e5ebd3f3ac1a744b6c7d8219be1938f2a28ef263441e5e63f72d",
        0,
    ),
    "write_n20_t500_seed42": (
        _write_cell,
        "339814ae3d20d8a5799b6725c63c798455d1f0bfece24a62e9e03c5feb683f7f",
        "e213827b5efbf314dee651a420751ae8da344b6dcd2cb42cff6b13729ed9a024",
        "48387b6756c9ca24f1bc65e5ee8d8840e9161521254134f6f8bc14c2d0b0bba1",
        0,
    ),
    "insertion_drill_seed7": (
        _insertion_drill,
        "d19fc21dbe5ab7c0c3afc9602cd65ba4cabc1e4876337a1d775144bcc6ca9dc9",
        "424e71cea27259ee2bb9d9cbb0677ac43eb6e59c8d7714636c35a17394593f8e",
        "3a63d78e11bb6df6d4086c6376ed8bc0b8858829f0ab2e849fd7f5bb0ea2a1c4",
        20,
    ),
    "replay_drill_seed7": (
        _drill("replay"),
        "21bea2c38e120ac404dfe7474341d37e3701b8e059c24e319444a213ed513ac9",
        "424e71cea27259ee2bb9d9cbb0677ac43eb6e59c8d7714636c35a17394593f8e",
        "13f8edddb39b1f169ffedec65676c36bfc9eb1dec15603b6af5d15cb892cfc8f",
        48,
    ),
    "eavesdrop_drill_seed7": (
        _drill("eavesdrop"),
        "21bea2c38e120ac404dfe7474341d37e3701b8e059c24e319444a213ed513ac9",
        "424e71cea27259ee2bb9d9cbb0677ac43eb6e59c8d7714636c35a17394593f8e",
        "c349f0fb7ac0e29b4c3da36dde2034d131593b58d813c62a80450616e2f992b4",
        0,
    ),
    "dos_drill_seed7": (
        _drill("dos"),
        "026f43cc09f075cbd2d128258b2f81ef42652222f0ac7c2b3a0b234f786868b4",
        "2244e178ad4dcb6a4baba4ed2001a823aa8d2a34970b09ae084c257b4fe44262",
        "9b831e1770206ba13d999ee62198a7258f4ff94432784b0be7f8e04474a06892",
        0,
    ),
    "spoof_drill_seed7": (
        _drill("spoof"),
        "4e17a6c90b698c0c1a18a17d840150fabef3cd5be5acb3d8b45d16e074ea6ed5",
        "424e71cea27259ee2bb9d9cbb0677ac43eb6e59c8d7714636c35a17394593f8e",
        "95fedd004e20c3d38dbec37083e89c47aeda0b85b37ad05a9c008c57ca52cfbf",
        0,
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seeded_run_matches_golden(name):
    run, tip, world, trace_digest, alerts = GOLDEN[name]
    trace = run()
    honest = trace.meta["honest"]
    assert {trace.final[n].tip_hash.hex() for n in honest} == {tip}
    assert {trace.final[n].world.digest().hex() for n in honest} == {world}
    assert hashlib.sha256(trace.jsonl().encode()).hexdigest() == trace_digest
    assert sum(len(f.alerts) for f in trace.final.values()) == alerts
