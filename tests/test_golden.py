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

Every value that depends on simulated timing was re-pinned a third time,
when each message's link fate (its arrival time or its drop) stopped coming
from one `random.Random` per (source, destination, kind) link and became a
keyed draw over the message itself (`sim.link_digest`). Every jittered delay
was redrawn once, so arrival times, and with them block timestamps and the
order of events, moved. What changed, old -> new (first 16 hex digits):

- lifecycle_seed42: tip 0bc54e46b3ab5439 -> ccd7e68b8cadfe62, trace
  c250f8a96de1e5eb -> 0c34f2b38f380753; world and alerts unchanged.
- write_n20_t500_seed42: tip 339814ae3d20d8a5 -> 82d6e850dfe1048d, world
  e213827b5efbf314 -> 1c2982c3a87dae75, trace 48387b6756c9ca24 ->
  c09bd3b21dbd30a6.
- insertion_drill_seed7: tip d19fc21dbe5ab7c0 -> 27f083140e240c12, trace
  3a63d78e11bb6df6 -> 06c52abe47103bef; 20 alerts as before.
- replay_drill_seed7 and eavesdrop_drill_seed7: tip 21bea2c38e120ac4 ->
  f0470e9df6371236; traces a7afe5e3da7e59f3 -> 8bb12ace37766d02 (replay,
  48 alerts as before) and c349f0fb7ac0e29b -> fdba9fe02389497f (eavesdrop).
- dos_drill_seed7: tip 026f43cc09f075cb -> 422d909b085f6f53, trace
  9b831e1770206ba1 -> 78c49acc77c74850.
- spoof_drill_seed7: tip 4e17a6c90b698c0c -> 16e6e54203be464f, trace
  95fedd004e20c3d3 -> 49f4ca46ff643d11.
- lossy_mixed_n4_seed3: tips 28fdcebfbe42dd09, a50ccc71397b5d48,
  ff590bca2d4c4e63 -> 37009e418206bfde, c1c17686aba173b5, de672cad0da183ea;
  world 70615eb2c560b354 -> 2753800771729f5c; trace cc69a617a2299f6d ->
  bd55b6ee4f7d966b; counters sent/delivered/dropped 2085/2064/21 ->
  3874/3836/38; outcomes nonce_gap/skipped/ok 24/29/186 -> 57/23/153. The
  run no longer stalls at height 32 after 11.3 s, with n3 left at 8; it
  stalls at height 111 after 23.0 s instead (see `_lossy`).
- partition_mixed_n4_seed5: one tip cc15312ade310d9f -> f7059d982ebe4ca4,
  trace f1a33d698784d37c -> 3b9da4a920b222c1; the worlds, counters and
  outcomes unchanged, and n2 still ends at height 0.
- crashed_write_n7_seed9: trace 2a07ca02b47308fa -> 781bb8dc034899f5; tip,
  world and counters unchanged.

One seeded count outside this file moved with them:
`tests/test_sim.py::TestConfirmations` confirms 161 of its 200 measured
writes, not 200, because the link now drops writer2's 12th envelope and
item 1's nonce-gap defect makes n0 reject the 38 after it.
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
        "ccd7e68b8cadfe627035b4ff26aa0d8ab6b90942eb54c9bb8bd3d78be152bd8c",
        "ca9d846779cd19008f7ef906b445385eaac4c015779a9410d8f6a7f78c23eb2b",
        "0c34f2b38f38075301ef26b9379cf4e8352774c30a4c20f03f2e4cc5cb6ee660",
        0,
    ),
    "write_n20_t500_seed42": (
        _write_cell,
        "82d6e850dfe1048dde25ce2a86c4911d2f575cde5df517d8947ea0900870f50f",
        "1c2982c3a87dae75957c3086a00ef45f2d4df376d26fce3336acef048dcc2439",
        "c09bd3b21dbd30a6dab8ff9b141bf7decc4a6c0808a736b7bef5035706a50ffd",
        0,
    ),
    "insertion_drill_seed7": (
        _insertion_drill,
        "27f083140e240c1252ebaa375a3e3efdfd3f17cbc8b509fb76a3f4861eb83c39",
        "424e71cea27259ee2bb9d9cbb0677ac43eb6e59c8d7714636c35a17394593f8e",
        "06c52abe47103befeb377bf64b2da264c6e275e06409949621f06cb427b6be0c",
        20,
    ),
    "replay_drill_seed7": (
        _drill("replay"),
        "f0470e9df63712362aa90a709e796c7d678e6b477d4a634ef7acf3dd791cdcd6",
        "424e71cea27259ee2bb9d9cbb0677ac43eb6e59c8d7714636c35a17394593f8e",
        "8bb12ace37766d0266e99d47538e65f1722f7d1afbc6f237d59e5d429e998a49",
        48,
    ),
    "eavesdrop_drill_seed7": (
        _drill("eavesdrop"),
        "f0470e9df63712362aa90a709e796c7d678e6b477d4a634ef7acf3dd791cdcd6",
        "424e71cea27259ee2bb9d9cbb0677ac43eb6e59c8d7714636c35a17394593f8e",
        "fdba9fe02389497fb8d16980c578d7224f4f61957c5d6e39fa85326a43333fda",
        0,
    ),
    "dos_drill_seed7": (
        _drill("dos"),
        "422d909b085f6f539282fa62db2b47f5ffa64f2612da46610d0a10687a6809ef",
        "2244e178ad4dcb6a4baba4ed2001a823aa8d2a34970b09ae084c257b4fe44262",
        "78c49acc77c74850306a1a1eaa486da9e81af9647866f0d5dd0659d1c4d64d00",
        0,
    ),
    "spoof_drill_seed7": (
        _drill("spoof"),
        "16e6e54203be464f4eedef48852172c6ad470ec924a6488746f43fd8b1d1ea05",
        "424e71cea27259ee2bb9d9cbb0677ac43eb6e59c8d7714636c35a17394593f8e",
        "49f4ca46ff643d11c97573d2234d8725fc69362f5099324a518cd706066f0c4e",
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
    """Mixed traffic at 1% drop. It keeps items 1 and 2's known defects
    visible: 57 `nonce_gap` rejects (one lost envelope blocks its
    device-to-node channel), 23 `skipped` receipts (a nonce that arrived
    ahead of its predecessor), and a stall: n2 stops at height 107 and n1 at
    110 with nothing to catch them up, so n0 and n3 stop at 111, a quorum
    short, after 23.0 s of a 35.4 s run."""
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
            "37009e418206bfde6d8caba8f12c8d3bc135ee42c962198c087749787b8ceaff",
            "c1c17686aba173b54152e1ce844aa9ba9402b6686d31619317a257c3ebf98e2b",
            "de672cad0da183ea28d26c40f298ed6b6923bdf13cf9acac607cee571f5a7413",
        },
        {"2753800771729f5cfdbc6cd8f57c60a0a3fef185371f59292e7df2213ac66c9b"},
        "bd55b6ee4f7d966b7583b6a1fa51cac409a143c85a7f00cf80e29f1595514067",
        {"sent": 3874, "delivered": 3836, "dropped": 38},
        {"nonce_gap": 57, "skipped": 23, "ok": 153},
    ),
    "partition_mixed_n4_seed5": (
        _partitioned,
        {
            "c992928db4ae8237c6d7e9cf0a0d96ebabf44c2ea765f10870a344c6f487e3b1",
            "f7059d982ebe4ca47a45cb2dcc5fb7972238804c92402745b48acab4020374fb",
        },
        {
            "22c5a911ac3f5444f207dc2fc41342612151a8b04d7c71b28fc03e31b8b91cf7",
            "dcc830528a9c68de447cd6853dc703c6742d7550313945f86db3e6d9d4c5e4d8",
        },
        "3b9da4a920b222c1fee626e3c2516b7d07d03765d726228bef7c32f3d4ad6f5f",
        {"sent": 772, "delivered": 759, "dropped": 13},
        {"ok": 115},
    ),
    "crashed_write_n7_seed9": (
        _crashed,
        {"76b8a3c69ad527ffc6ff56fa22929c3c9a66afada274522a9d80af6fd12e8874"},
        {"855fe37dc50847b28bbbf3c9906c61bf070772f9d9e299899f7d95212119b5ff"},
        "781bb8dc034899f59dd28c7e6d70239bc12b832b0ba222d950cfc303ef6a29d1",
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
