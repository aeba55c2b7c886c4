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

The three fault runs (`FAULTS`) were pinned last, before the event loop
began to fan broadcasts out itself and to draw each link's delay in place.
They cover the link paths a quiet LAN never takes: drops, a partition and
crashed peers. Each also pins the loop's `sent`, `delivered` and `dropped`
counters.

The trace digests were re-pinned a second time, when only a transaction's
entry node (the node that admitted it from its device's channel) began to
record its `tx_admitted` and `receipt` events. Before, every node recorded
one of each per transaction, so the trace grew with transactions times
nodes. No check read the replicas' copies, and `replay_chain` rebuilds any
node's receipts from its chain. Every other event, and its order, stayed
identical, and the entry node's events are the ones kept; `receipt` now sits
directly before that node's `tx_finalized_delay` for the same transaction.

The replay drill's trace digest was re-pinned on its own, from
`13f8edddb39b1f169ffedec65676c36bfc9eb1dec15603b6af5d15cb892cfc8f`, when a
replay alert's detail began to name the node that refused the replay. Only
the `detail` of its `alert` events changed; its tips, world digest, 48
alerts and counters stayed the same.
"""

import hashlib
from collections import Counter
from dataclasses import replace

import pytest

from edgelinker.bench import default_attack_config
from edgelinker.sim import LinkModel, ScenarioConfig, run_scenario


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
        "a7afe5e3da7e59f35df7d7322e43fd8f675013aac69c4210b942e161539dac42",
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


def _lossy():
    """Mixed traffic at 1% drop. It keeps item 1's known defects visible: 24
    `nonce_gap` rejects (one lost envelope blocks its device-to-node channel)
    and 29 `skipped` receipts (a nonce that arrived ahead of its
    predecessor), and n3 stays at height 8 while its peers reach 31-32."""
    link = LinkModel(drop_probability=0.01)
    return run_scenario(ScenarioConfig(nodes=4, workload="mixed", tasks=400, block_interval_ms=200, link=link), 3)


def _partitioned():
    """n1 and n2 never hear each other. n2 misses every proposal n1 makes and,
    with nothing to catch it up, stays at height 0."""
    link = LinkModel(partitions={frozenset(("n1", "n2"))})
    return run_scenario(ScenarioConfig(nodes=4, workload="mixed", tasks=200, block_interval_ms=200, link=link), 5)


def _crashed():
    """Seven authorities, n5 and n6 crashed from the start."""
    return run_scenario(ScenarioConfig(nodes=7, crashed=2, workload="write", tasks=200, block_interval_ms=200), 9)


# name: (run, honest tips, honest world digests, trace digest, counters, rejects and receipt results)
FAULTS = {
    "lossy_mixed_n4_seed3": (
        _lossy,
        {
            "28fdcebfbe42dd09e05095a537379afe79fd0b051c05a9ecc8670372e7781f2c",
            "a50ccc71397b5d482468cda32c5103e6a82e300a5d1c1ad840b80e5e5375d1cc",
            "ff590bca2d4c4e638b7b587f8f9a44f7e563da89a34c6d5b424656157be7f971",
        },
        {"70615eb2c560b354cca3ba053933e4715afe18d68168b03ad91ddf9887690e9d"},
        "cc69a617a2299f6d9420fc51b4ddb00c12db08804dade55d5139dec2e81cf372",
        {"sent": 2085, "delivered": 2064, "dropped": 21},
        {"nonce_gap": 24, "skipped": 29, "ok": 186},
    ),
    "partition_mixed_n4_seed5": (
        _partitioned,
        {
            "c992928db4ae8237c6d7e9cf0a0d96ebabf44c2ea765f10870a344c6f487e3b1",
            "cc15312ade310d9f451132e885f93af7fbced56492d2ed397fe831be5cc9974b",
        },
        {
            "22c5a911ac3f5444f207dc2fc41342612151a8b04d7c71b28fc03e31b8b91cf7",
            "dcc830528a9c68de447cd6853dc703c6742d7550313945f86db3e6d9d4c5e4d8",
        },
        "f1a33d698784d37ce45769005a41acec6e9ee7bc545d77daa2a967c6fee3126c",
        {"sent": 772, "delivered": 759, "dropped": 13},
        {"ok": 115},
    ),
    "crashed_write_n7_seed9": (
        _crashed,
        {"76b8a3c69ad527ffc6ff56fa22929c3c9a66afada274522a9d80af6fd12e8874"},
        {"855fe37dc50847b28bbbf3c9906c61bf070772f9d9e299899f7d95212119b5ff"},
        "2a07ca02b47308fa66c4229a58556f6e3bb46a676c11773a807bbc47b05b80e3",
        {"sent": 1276, "delivered": 1276, "dropped": 0},
        {"ok": 206},
    ),
}


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_fault_run_matches_golden(name):
    run, tips, worlds, trace_digest, counters, outcomes = FAULTS[name]
    trace = run()
    honest = trace.meta["honest"]
    assert {trace.final[n].tip_hash.hex() for n in honest} == tips
    assert {trace.final[n].world.digest().hex() for n in honest} == worlds
    assert hashlib.sha256(trace.jsonl().encode()).hexdigest() == trace_digest
    assert {key: trace.counters[key] for key in counters} == counters
    seen = Counter(e.info["reason"] for e in trace.of_kind("rejected"))
    seen.update(e.info["result"] for e in trace.of_kind("task_confirmed"))
    assert dict(seen) == outcomes
