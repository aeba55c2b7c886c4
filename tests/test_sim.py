import collections
import copy
import errno
import gc
import hashlib
import itertools
import json
import os
import signal
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgelinker import chain, channel, consensus, contracts
from edgelinker import sim as sim_module
from edgelinker.bench import default_attack_config
from edgelinker.chain import Query
from edgelinker.contracts import apply_block, genesis_world, replay_chain
from edgelinker.codec import DecodeError, enc_bytes, enc_str, enc_u64, enc_u8
from edgelinker.node import ALERT, CLIENT, CONFIRM, CONSENSUS, GOSSIP, PEERS, REPLY, ConfirmBody, FogNode, QueryReplyBody
from edgelinker.sim import (
    ATTACK_KINDS,
    ATTACKER_CLASSES,
    ConfigInvalid,
    DeviceActor,
    LinkModel,
    ScenarioConfig,
    Simulation,
    run_scenario,
)
from tests.conftest import kp

FAST = dict(block_interval_ms=200, writes=6, write_period_ms=400)


def fast_config(**overrides):
    params = dict(FAST)
    params.update(overrides)
    return ScenarioConfig(**params)


SIGNER = kp("link test signer")


def tx(i: int) -> chain.Transaction:
    """The i-th of a run of distinct transactions. The link tells records
    apart by their signature, which it never checks, so none is signed."""
    payload = chain.Deploy(contracts.HEALTH_RECORD_KIND, b"")
    return chain.Transaction(SIGNER.public_key, i, 0, payload, chain.DEFAULT_GAS_LIMIT, hashlib.sha512(enc_u64(i)).digest())


def vote(i: int) -> consensus.ConsensusMessage:
    return consensus.make_message(SIGNER, consensus.Phase.PREPARE, i, 0, hashlib.sha256(enc_u64(i)).digest())


def alert(i: int) -> consensus.Alert:
    return consensus.Alert(consensus.AlertKind.INVALID_BLOCK, i, SIGNER.public_key, f"alert {i}", 0)


def link_sends(link, count, depart_us=0, kind=GOSSIP, seed=1):
    """Arrival time, or None when dropped, of each of `count` distinct messages
    sent one after another on the link n0 -> n1 of a three-node simulation:
    channel frames for CLIENT, else transactions."""
    sim = Simulation(ScenarioConfig(nodes=3, workload="none", link=link), seed)
    outcomes = []
    for i in range(count):
        sim.heap.clear()
        sim.send("n0", ("n1",), kind, b"frame" if kind == CLIENT else tx(i), depart_us)
        outcomes.append(sim.heap[0][0] if sim.heap else None)
    assert sim.sent_count == count and sim.dropped_count == outcomes.count(None)
    return outcomes


def reference_fate(seed, link, src, dst, kind, identity, depart_us, nodes):
    """The link model's draw, written out from its spec: nothing crosses a
    partition; else the little-endian 64-bit word of node n{i}'s slot i (0
    for a party) in SHAKE-128 over (seed, src, kind, identity) drops the
    message when its low half is below drop_probability * 2**32, and its high
    half h delays it by h * (jitter_us + 1) // 2**32 past the base latency."""
    if frozenset((src, dst)) in link.partitions:
        return None
    material = f"edgelinker-link:{seed}:{src}:{kind}:".encode() + identity
    slot = int(dst[1:]) if dst in [f"n{i}" for i in range(nodes)] else 0
    word = int.from_bytes(hashlib.shake_128(material).digest(8 * nodes)[8 * slot : 8 * slot + 8], "little")
    if word % 2**32 < link.drop_probability * 2**32:
        return None
    return depart_us + link.base_latency_us + (word // 2**32) * (link.jitter_us + 1) // 2**32


def fates(sim, sends, depart_us=0) -> list:
    """Each send's {destination: arrival time, or None when dropped}."""
    out = []
    for src, dsts, kind, body in sends:
        sim.heap.clear()
        sim.send(src, dsts, kind, body, depart_us)
        arrivals = {entry[2][1]: entry[0] for entry in sim.heap}
        out.append({dst: arrivals.get(dst) for dst in dsts})
    return out


class TestDeliver:
    def test_exact_latency_without_jitter_or_drops(self):
        link = LinkModel(base_latency_us=1500, jitter_us=0, drop_probability=0.0)
        assert link_sends(link, 3, depart_us=10_000) == [11_500] * 3

    def test_jitter_bounded(self):
        link = LinkModel(base_latency_us=1000, jitter_us=300)
        arrivals = link_sends(link, 500, seed=2)
        assert all(1000 <= arrival <= 1300 for arrival in arrivals)
        assert len(set(arrivals)) > 200  # distinct messages draw apart

    def test_partitioned_pair_always_dropped(self):
        link = LinkModel(partitions={frozenset(("n0", "n1"))})
        sim = Simulation(ScenarioConfig(nodes=3, workload="none", link=link), 3)
        sim.heap.clear()
        for src, dst in (("n0", "n1"), ("n1", "n0"), ("n0", "n2")):
            sim.send(src, (dst,), GOSSIP, b"", 0)
        assert [entry[2][:2] for entry in sim.heap] == [("n0", "n2")]
        assert (sim.sent_count, sim.dropped_count) == (3, 2)

    def test_drop_frequency_matches_probability(self):
        # Seeded frequency check: 10^4 distinct sends at p=0.3 must land in 0.3 +/- 0.02, records and frames alike.
        for kind in (GOSSIP, CLIENT):
            drops = link_sends(LinkModel(drop_probability=0.3), 10_000, kind=kind, seed=4).count(None)
            assert abs(drops / 10_000 - 0.3) <= 0.02, kind

    def test_every_send_delivered_or_dropped(self):
        sim = Simulation(ScenarioConfig(nodes=3, workload="none", link=LinkModel(drop_probability=0.5)), 5)
        sim.heap.clear()
        for i in range(1000):
            sim.send("n0", ("n1", "n2"), GOSSIP, tx(i), 0)
        assert sim.sent_count == 2000 == len(sim.heap) + sim.dropped_count == sim.inflight + sim.dropped_count

    def test_a_message_sent_again_meets_the_same_fate(self):
        link = LinkModel(jitter_us=10_000, drop_probability=0.5)
        sim = Simulation(ScenarioConfig(nodes=4, workload="none", link=link), 6)
        sends = [("n0", ("n1", "n2", "n3"), kind, body) for kind, body in ((GOSSIP, tx(1)), (CONSENSUS, vote(1)), (ALERT, alert(1)))]
        assert fates(sim, sends) == fates(sim, sends)

    @settings(max_examples=80, deadline=None)
    @given(
        base=st.integers(0, 10**6),
        jitter=st.integers(0, 3000) | st.sampled_from([1, 2**20, 2**31 - 1]),
        drop=st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.01, 1.0]),
        cut=st.sampled_from([None, ("n0", "n1"), ("n1", "n2"), ("n0", "attacker")]),
        depart_us=st.integers(0, 2**40),
        seed=st.integers(0, 2**64 - 1),
        order=st.permutations(range(6)),
    )
    def test_link_draws_match_a_reference(self, base, jitter, drop, cut, depart_us, seed, order):
        """Broadcasts of records, and frames to a node and to a party, each
        meet the fate `reference_fate` gives them, in any order of sending."""
        partitions = set() if cut is None else {frozenset(cut)}
        link = LinkModel(base_latency_us=base, jitter_us=jitter, drop_probability=drop, partitions=partitions)
        sim = Simulation(ScenarioConfig(nodes=3, workload="none", link=link), seed)
        peers = ("n1", "n2")
        sends = [
            ("n0", peers, GOSSIP, tx(7)),
            ("n0", peers, CONSENSUS, vote(7)),
            ("n0", peers, ALERT, alert(7)),
            ("n1", ("n0",), CONSENSUS, vote(8)),
            ("n0", ("n1",), CLIENT, b"frame"),
            ("n0", ("attacker",), CLIENT, b"frame"),
        ]
        identities = [tx(7).signature, vote(7).signature, repr(alert(7).key()).encode(), vote(8).signature]
        identities += [b"n1:1", b"attacker:1"]  # each frame is the first on its link
        sent = [sends[i] for i in order]
        expected = [
            {dst: reference_fate(seed, link, src, dst, kind, identities[i], depart_us, 3) for dst in dsts}
            for i, (src, dsts, kind, _body) in zip(order, sent)
        ]
        assert fates(sim, sent, depart_us) == expected

    @pytest.mark.parametrize("position", [0, 3, 6])
    @pytest.mark.parametrize(
        "extra",
        [
            ("n0", PEERS, GOSSIP, tx(99)),
            ("n2", PEERS, CONSENSUS, vote(99)),
            ("n1", PEERS, ALERT, alert(99)),
            ("n3", ("writer0",), CONFIRM, b"frame"),
        ],
        ids=["gossip", "consensus", "alert", "frame"],
    )
    def test_one_extra_message_leaves_every_other_arrival_unchanged(self, extra, position):
        """A message's fate depends on the message, not on what its link
        carried before: one more record moves no other message, on its own
        link or any other, and one more frame moves no frame on another link."""
        link = LinkModel(jitter_us=20_000, drop_probability=0.2)
        sim = Simulation(ScenarioConfig(nodes=4, workload="none", link=link), 8)
        peers = {src: tuple(sim._live_peers[src]) for src in sim.node_ids}

        def route(send):
            src, dst, kind, body = send
            return (src, peers[src] if dst == PEERS else dst, kind, body)

        traffic = [
            ("n0", PEERS, GOSSIP, tx(1)),
            ("n1", PEERS, CONSENSUS, vote(1)),
            ("n3", ("writer1",), CONFIRM, b"frame"),
            ("n0", PEERS, GOSSIP, tx(2)),
            ("n2", ("writer0",), REPLY, b"frame"),
            ("n1", PEERS, ALERT, alert(1)),
            ("n2", PEERS, CONSENSUS, vote(2)),
            ("writer0", ("n3",), CLIENT, b"frame"),
        ]
        plain = fates(sim, [route(send) for send in traffic])
        sim = Simulation(ScenarioConfig(nodes=4, workload="none", link=link), 8)
        with_extra = fates(sim, [route(send) for send in traffic[:position] + [extra] + traffic[position:]])
        del with_extra[position]
        assert with_extra == plain
        assert any(arrival is None for fate in plain for arrival in fate.values())  # the drops are covered too


class TestPerLayerCounts:
    def test_handlers_replaced_after_construction_see_every_delivery(self, monkeypatch):
        """perfbench's per-layer tracer replaces node handlers on the class
        after it builds the Simulation; the run must call the replacements."""
        config = ScenarioConfig(nodes=5, crashed=1, workload="write", tasks=60, block_interval_ms=200)
        sim = Simulation(config, 17)
        calls = collections.Counter()

        def counting(cls, name):
            original = getattr(cls, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(cls, name, counted)

        for name in ("handle_envelope", "on_gossip", "on_consensus"):
            counting(FogNode, name)
        counting(DeviceActor, "on_receive")
        counting(Simulation, "_dispatch")
        trace = sim.run()
        live_peers = config.nodes - config.crashed - 1
        assert calls["handle_envelope"] == len(trace.of_kind("task_sent")) > 0
        assert calls["on_gossip"] == len(trace.of_kind("tx_admitted")) * live_peers > 0
        assert calls["on_consensus"] > 0 and not trace.of_kind("alert")
        delivered = sum(calls[name] for name in ("handle_envelope", "on_gossip", "on_consensus", "on_receive"))
        assert delivered == trace.counters["delivered"] == trace.counters["sent"]
        assert sim._seq - len(sim.heap) == calls["_dispatch"]


class TestCanonicalScenario:
    def test_access_lifecycle(self):
        trace = run_scenario(fast_config(), 42)
        replies = trace.of_kind("task_reply")
        assert [r.info["label"] for r in replies] == ["read_granted", "read_revoked"]
        granted, revoked = replies
        assert granted.info["status"] == 0 and granted.info["count"] == 6
        assert revoked.info["status"] == 1 and revoked.info["count"] == 0
        confirms = [e for e in trace.of_kind("task_confirmed") if e.info["measured"]]
        assert len(confirms) == 6

    def test_same_seed_bit_identical_traces(self):
        a = run_scenario(fast_config(), 7)
        b = run_scenario(fast_config(), 7)
        assert a.jsonl() == b.jsonl()
        assert a.final["n0"].tip_hash == b.final["n0"].tip_hash

    def test_different_seeds_differ(self):
        a = run_scenario(fast_config(), 7)
        b = run_scenario(fast_config(), 8)
        assert a.jsonl() != b.jsonl()

    def test_single_node_zero_latency_finalizes_within_one_interval(self):
        cfg = fast_config(nodes=1, link=LinkModel(base_latency_us=0, jitter_us=0))
        trace = run_scenario(cfg, 11)
        delays = [e.info["delay_us"] for e in trace.of_kind("tx_finalized_delay")]
        assert delays, "no transactions finalized"
        assert all(d <= cfg.block_interval_ms * 1000 for d in delays)

    def test_message_conservation(self):
        trace = run_scenario(fast_config(), 13)
        c = trace.counters
        assert c["sent"] == c["delivered"] + c["dropped"] + c["in_flight_at_stop"]
        assert c["dropped"] == 0

    def test_all_nodes_converge_to_one_tip(self):
        trace = run_scenario(fast_config(nodes=5), 17)
        tips = {f.tip_hash for f in trace.final.values()}
        assert len(tips) == 1

    def test_state_replay_integrity_for_every_node(self):
        trace = run_scenario(fast_config(nodes=3), 19)
        for node_id, final in trace.final.items():
            rebuilt = replay_chain(final.chain, trace.genesis)
            assert rebuilt.encode() == final.world.encode(), node_id


class TestWorkloads:
    def test_write_workload_confirms_every_task(self):
        cfg = ScenarioConfig(nodes=3, workload="write", tasks=30, block_interval_ms=200)
        trace = run_scenario(cfg, 23)
        confirms = [e for e in trace.of_kind("task_confirmed") if e.info["measured"]]
        assert len(confirms) == 30

    def test_read_workload_answers_every_task(self):
        cfg = ScenarioConfig(nodes=4, workload="read", tasks=40, block_interval_ms=200)
        trace = run_scenario(cfg, 27)
        replies = [e for e in trace.of_kind("task_reply") if e.info["measured"]]
        assert len(replies) == 40
        assert all(r.info["status"] == 0 and r.info["count"] == 5 for r in replies)

    def test_mixed_workload(self):
        cfg = ScenarioConfig(nodes=3, workload="mixed", tasks=20, block_interval_ms=200)
        trace = run_scenario(cfg, 29)
        confirms = [e for e in trace.of_kind("task_confirmed") if e.info["measured"]]
        replies = [e for e in trace.of_kind("task_reply") if e.info["measured"]]
        assert len(confirms) == 10 and len(replies) == 10

    @pytest.mark.parametrize("workload, reads", [("read", 40), ("mixed", 20)])
    def test_reads_go_only_to_live_nodes(self, workload, reads):
        cfg = ScenarioConfig(nodes=4, crashed=1, workload=workload, tasks=40, block_interval_ms=200)
        trace = run_scenario(cfg, 5)
        replies = [e for e in trace.of_kind("task_reply") if e.info["measured"]]
        assert len(replies) == reads and all(r.info["status"] == 0 for r in replies)
        # Ends once every reply is in, well before the cap a missing reply would run it to.
        assert trace.counters["pending_responses"] == 0 and trace.counters["end_us"] < 5_000_000


class TestRunResult:
    """Each fact of a finished run has one owner: the trace reads it from there."""

    def test_the_final_state_is_the_nodes(self):
        sim = Simulation(fast_config(nodes=4, crashed=1), 42)
        trace = sim.run()
        assert list(trace.final) == sim.node_ids
        for node_id, node in sim.nodes.items():
            assert trace.final[node_id] is node
            assert node.height == node.chain.height and node.tip_hash == chain.hash_block(node.chain.tip)
        assert trace.final["n3"].height == 0 and trace.final["n0"].height > 0  # n3 crashed

    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_every_event_is_written_through_the_recorder(self, kind, monkeypatch):
        written = collections.Counter()  # src -> events written through its recorder
        recorder = Simulation._recorder

        def counting(sim, src):
            record = recorder(sim, src)

            def counted(event_kind, **info):
                written[src] += 1
                record(event_kind, **info)

            return counted

        monkeypatch.setattr(Simulation, "_recorder", counting)
        trace = run_scenario(replace(default_attack_config(), attack=kind), 7)
        assert sum(written.values()) == len(trace.events)
        assert written == collections.Counter(e.src for e in trace.events)
        assert {"patient0", "doctor0", "attacker"} <= set(written)

    @pytest.mark.parametrize("workload", ["write", "mixed"])
    def test_a_run_cut_short_reports_the_tasks_left_unanswered(self, workload):
        link = LinkModel(drop_probability=0.05)
        cfg = ScenarioConfig(nodes=4, workload=workload, tasks=60, block_interval_ms=200, link=link, duration_s=3.0)
        trace = run_scenario(cfg, 5)
        sent = len(trace.of_kind("task_sent"))
        answered = len(trace.of_kind("task_confirmed")) + len(trace.of_kind("task_reply"))
        assert trace.counters["end_us"] <= 3_000_000
        assert trace.counters["pending_responses"] == sent - answered > 0


def plan_fingerprint(sim):
    """(each plan's id and step count, a digest of everything `_build_plans`
    returns for `sim`): every plan's id, primary and public key, each step's
    time, kind, label, measured flag, target and payload bytes, the balances
    and the attacker needs, all in the order they come."""
    plans, balances, needs = sim_module._build_plans(sim, sim.config)
    digest = hashlib.sha256()
    for actor_id, keypair, primary, steps in plans:
        digest.update(repr((actor_id, primary, keypair.public_key.hex())).encode())
        for s in steps:
            digest.update(repr((s.at_us, s.kind, s.label, s.measured, s.target, s.payload.encode().hex())).encode())
    digest.update(repr([(pk.hex(), amount) for pk, amount in balances.items()]).encode())
    digest.update(repr([(k, v.hex() if isinstance(v, bytes) else v) for k, v in needs.items()]).encode())
    return [(actor_id, len(steps)) for actor_id, _kp, _primary, steps in plans], digest.hexdigest()[:32]


TASKS = dict(nodes=4, tasks=40, block_interval_ms=200)


class TestPlans:
    """The devices, steps, balances and attacker needs every workload plans,
    pinned so that a rewrite of `_build_plans` must keep them exactly."""

    CASES = {
        "lifecycle": (ScenarioConfig(), 42),
        "attack_default": (default_attack_config(), 7),
        "write_n4": (ScenarioConfig(workload="write", **TASKS), 3),
        "read_n4": (ScenarioConfig(workload="read", **TASKS), 3),
        "mixed_n4": (ScenarioConfig(workload="mixed", **TASKS), 3),
        "mixed_n4_t7": (ScenarioConfig(workload="mixed", nodes=4, tasks=7), 3),
        "read_n7_crashed2": (ScenarioConfig(workload="read", nodes=7, crashed=2, tasks=40), 9),
        "mixed_n4_jitter2000": (ScenarioConfig(workload="mixed", link=LinkModel(jitter_us=2000), **TASKS), 5),
        "dos_lifecycle": (replace(default_attack_config(), attack="dos"), 7),
        "dos_write": (ScenarioConfig(workload="write", attack="dos", **TASKS), 11),
        "none": (ScenarioConfig(workload="none"), 1),
    }

    # name: ([(device, step count)], digest), pinned before `_build_plans` was rewritten around one device table
    EXPECTED = {
        "attack_default": (
            [("patient0", 10), ("doctor0", 2)],
            "be9815a1805fbf085751cbfdf9fffae0",
        ),
        "dos_lifecycle": (
            [("patient0", 10), ("doctor0", 2)],
            "01863673a7d36cb45f25db3777452913",
        ),
        "dos_write": (
            [("patient0", 6), ("writer0", 10), ("writer1", 10), ("writer2", 10), ("writer3", 10)],
            "ca78c30f736c671d4cc4ed1d96efadd3",
        ),
        "lifecycle": (
            [("patient0", 14), ("doctor0", 2)],
            "9d51684eaf7fbeb31ff0c0b484817c96",
        ),
        "mixed_n4": (
            [
                ("patient0", 15), ("writer0", 5), ("writer1", 5), ("writer2", 5), ("writer3", 5),
                ("reader0", 5), ("reader1", 5), ("reader2", 5), ("reader3", 5),
            ],
            "110293114d148a3571db9352c63f3ad4",
        ),
        "mixed_n4_jitter2000": (
            [
                ("patient0", 15), ("writer0", 5), ("writer1", 5), ("writer2", 5), ("writer3", 5),
                ("reader0", 5), ("reader1", 5), ("reader2", 5), ("reader3", 5),
            ],
            "5c5eb51dab2a9e778f329558b8d756e3",
        ),
        "mixed_n4_t7": (
            [
                ("patient0", 14), ("writer0", 1), ("writer1", 1), ("writer2", 1),
                ("reader0", 1), ("reader1", 1), ("reader2", 1), ("reader3", 1),
            ],
            "1bd808ddcdba92e25d44448e5dcf96c1",
        ),
        "none": (
            [],
            "821bf06b4dcb406ea508a4a992eadc22",
        ),
        "read_n4": (
            [("patient0", 11), ("reader0", 10), ("reader1", 10), ("reader2", 10), ("reader3", 10)],
            "05e562ec51c07c217f13ec4487c9a334",
        ),
        "read_n7_crashed2": (
            [("patient0", 11), ("reader0", 10), ("reader1", 10), ("reader2", 10), ("reader3", 10)],
            "4d82c44e3c0b30ef6db6f1330aa13079",
        ),
        "write_n4": (
            [("patient0", 6), ("writer0", 10), ("writer1", 10), ("writer2", 10), ("writer3", 10)],
            "80a958197f978b5519d19d1e108a7585",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_plans_match_the_pinned_ones(self, name):
        config, seed = self.CASES[name]
        assert plan_fingerprint(Simulation(config, seed)) == self.EXPECTED[name]

    @pytest.mark.parametrize("workload", ["write", "read", "mixed"])
    def test_each_device_spaces_its_sends_to_one_node_beyond_the_jitter(self, workload):
        """Pins ROADMAP item 1's workaround. A node accepts each device's
        channel counters only in order, so two sends from one device to one
        node that the link jitter could swap would trip its nonce-gap guard;
        `_build_plans` widens the task period until no two come that close."""
        for tasks, jitter_us, crashed in itertools.product((1, 2, 7, 40), (0, 200, 5000), (0, 1)):
            config = ScenarioConfig(
                nodes=4, crashed=crashed, workload=workload, tasks=tasks, link=LinkModel(jitter_us=jitter_us)
            )
            sends = collections.defaultdict(list)  # (device, node index) -> send times
            for actor in Simulation(config, 1).actors.values():
                for step in actor.steps:
                    sends[actor.id, actor.primary if step.target is None else step.target].append(step.at_us)
            for pair, times in sends.items():
                gaps = [later - earlier for earlier, later in zip(times, times[1:])]
                assert all(gap > jitter_us for gap in gaps), (tasks, jitter_us, crashed, pair, min(gaps))


class TestConfirmations:
    def test_every_confirmation_reports_the_ledger_receipt_under_loss(self):
        # At 1% loss a proposer can hold a device's nonce k+1 without k, so
        # the ledger skips some writes; their devices must hear that. Item 1's
        # nonce-gap defect strikes too: the link drops writer2's 12th envelope,
        # n0 rejects the 38 after it, and those 39 writes are never confirmed.
        cfg = ScenarioConfig(
            nodes=4, workload="write", tasks=200, block_interval_ms=500, link=LinkModel(drop_probability=0.01)
        )
        trace = run_scenario(cfg, 3)
        writer2 = next(pk for pk, party in trace.final["n0"].directory.items() if party == "writer2")
        rejects = collections.Counter((e.src, e.info["reason"], e.info["sender"]) for e in trace.of_kind("rejected"))
        assert rejects == {("n0", "nonce_gap", writer2.hex()[:16]): 38}
        assert trace.counters["pending_responses"] == 39
        n0 = trace.final["n0"]  # every device's primary, so the node that confirms
        world, schedule = genesis_world(trace.genesis), trace.genesis.gas
        ledger = {}
        for block in n0.chain.blocks[1:]:
            for receipt in apply_block(world, block, schedule):
                ledger[receipt.tx_hash.hex()[:16]] = (receipt.result, receipt.reason)
        confirms = trace.of_kind("task_confirmed")
        assert len([e for e in confirms if e.info["measured"]]) == 161
        assert all((e.info["result"], e.info["reason"]) == ledger[e.info["tx"]] for e in confirms)
        assert any((e.info["result"], e.info["reason"]) == ("skipped", "BadNonce") for e in confirms)

    def test_one_confirmation_message_per_device_and_block(self):
        trace = run_scenario(ScenarioConfig(nodes=3, workload="write", tasks=40, block_interval_ms=200), 23)
        arrivals: dict = {}  # (device, height) -> arrival times of its confirmations
        for e in trace.of_kind("task_confirmed"):
            arrivals.setdefault((e.src, e.info["height"]), []).append(e.t_us)
        assert max(len(times) for times in arrivals.values()) > 1  # a device has several writes in a block
        assert all(len(set(times)) == 1 for times in arrivals.values())


class TestEntryNodeTrace:
    """A transaction's admission and receipt are traced once, by its entry node."""

    def test_one_admission_and_one_receipt_per_transaction(self):
        sim = Simulation(ScenarioConfig(nodes=4, workload="write", tasks=60, block_interval_ms=200), 5)
        writers = sorted(actor_id for actor_id in sim.actors if actor_id.startswith("writer"))
        for i, actor_id in enumerate(writers):
            sim.actors[actor_id].primary = i % 4  # each writer enters through its own node
        trace = sim.run()
        submitted = trace.of_kind("task_sent")  # a write workload sends transactions only
        confirmed = {e.info["tx"]: e for e in trace.of_kind("task_confirmed")}
        admitted = trace.of_kind("tx_admitted")
        receipts = trace.of_kind("receipt")
        assert len(confirmed) == len(submitted) == 60 + 2 + len(writers)  # the writes, deploy and grants
        assert sorted(e.info["tx"] for e in admitted) == sorted(confirmed)
        assert sorted(e.info["tx"] for e in receipts) == sorted(confirmed)
        entry = {e.info["tx"]: e.src for e in admitted}
        assert {e.src for e in admitted} == {"n0", "n1", "n2", "n3"}
        for receipt in receipts:
            device = confirmed[receipt.info["tx"]]
            assert receipt.src == entry[receipt.info["tx"]]
            assert (receipt.info["result"], receipt.info["reason"]) == (device.info["result"], device.info["reason"])
        assert len({final.world.digest() for final in trace.final.values()}) == 1


class TestNodeCounters:
    """On a lossless link every device hears each node's counters as 1, 2, 3, ...

    Devices do not check these counters yet; turning that check on relies on this."""

    @pytest.mark.parametrize(
        "config, seed",
        [
            (ScenarioConfig(), 42),
            (ScenarioConfig(nodes=4, workload="mixed", tasks=400, block_interval_ms=500), 3),
            (ScenarioConfig(nodes=4, workload="read", tasks=400, block_interval_ms=500), 3),
        ],
        ids=["lifecycle", "mixed", "read"],
    )
    def test_each_node_counts_up_by_one_per_device(self, config, seed, monkeypatch):
        heard: dict = {}  # (device, node) -> counters in arrival order
        original = DeviceActor.on_receive

        def on_receive(actor, raw, src, now_us):
            message = channel.open_wire(raw, actor.endpoint.mode, actor.keypair.private_key)
            heard.setdefault((actor.id, src), []).append(message.nonce)
            original(actor, raw, src, now_us)

        monkeypatch.setattr(DeviceActor, "on_receive", on_receive)
        trace = run_scenario(config, seed)
        assert trace.counters["dropped"] == 0 and heard
        assert not trace.of_kind("client_reject")
        for counters in heard.values():
            assert counters == list(range(1, len(counters) + 1))


CONFIRM_ONE = enc_u8(ConfirmBody.WIRE_TAG) + enc_u64(1) + enc_u64(1)  # a confirmation at height 1 of one entry


class TestDeviceIngress:
    """Node bytes that do not open or decode are rejected by the device, never raised out of the run."""

    def _actor(self, mode):
        sim = Simulation(ScenarioConfig(nodes=2, workload="read", tasks=4, block_interval_ms=200, channel_mode=mode), 5)
        return sim, sim.actors["reader0"]

    def _assert_rejected(self, sim, actor, raw):
        actor.on_receive(raw, "n0", 1000)
        (event,) = sim.trace.of_kind("client_reject")
        assert (event.src, event.info) == (actor.id, {"from": "n0"})

    @pytest.mark.parametrize("mode, raw", [("secure", b"x" * 10), ("plain", b"\x01garbage")], ids=["short", "plain"])
    def test_bytes_that_do_not_open(self, mode, raw):
        sim, actor = self._actor(mode)
        self._assert_rejected(sim, actor, raw)

    @pytest.mark.parametrize(
        "body",
        [
            enc_u8(ConfirmBody.WIRE_TAG) + enc_u64(1) + enc_u64(2**40),
            enc_u8(QueryReplyBody.WIRE_TAG) + enc_u64(0) + enc_str("") + enc_u64(2**40),
            enc_u8(QueryReplyBody.WIRE_TAG) + enc_u64(0) + enc_str("") + enc_u64(1) + enc_u64(5),
            enc_u8(QueryReplyBody.WIRE_TAG) + enc_u64(0) + b"\x00\x00\x00\x01\xff" + enc_u64(0),
            enc_u8(QueryReplyBody.WIRE_TAG) + enc_u64(0) + enc_str("") + enc_u64(0) + b"\x00",
            CONFIRM_ONE + enc_bytes(bytes(32)) + b"\x00\x00\x00\x01\xff" + enc_str("") + enc_u64(0),
            CONFIRM_ONE + enc_bytes(bytes(32)) + enc_str("ok") + b"\x00\x00\x00\x02\xc3\x28" + enc_u64(0),
            CONFIRM_ONE + enc_bytes(bytes(32)) + enc_str("ok") + enc_str("") + enc_u64(0)[:5],
        ],
        ids=[
            "confirm_entry_count",
            "reply_reading_count",
            "reply_short_readings",
            "reply_bad_utf8",
            "reply_trailing",
            "confirm_bad_utf8_result",
            "confirm_bad_utf8_reason",
            "confirm_cut_inside_an_entry",
        ],
    )
    def test_sealed_body_with_a_forged_count(self, body):
        sim, actor = self._actor("secure")
        raw = sim.nodes["n0"].endpoint.seal(actor.keypair.public_key, body, 1)
        self._assert_rejected(sim, actor, raw)


class TestDeviceSignatures:
    @pytest.fixture
    def signed(self, monkeypatch):
        keys = []
        original = channel.sign_digest

        def counting(private_seed, digest):
            keys.append(private_seed)
            return original(private_seed, digest)

        monkeypatch.setattr(channel, "sign_digest", counting)
        monkeypatch.setattr(chain, "sign_digest", counting)
        return keys

    def test_a_read_is_signed_once_by_the_channel(self, signed):
        sim = Simulation(ScenarioConfig(nodes=2, workload="read", tasks=4, block_interval_ms=200), 5)
        actor = sim.actors["reader0"]
        idx = next(i for i, step in enumerate(actor.steps) if step.kind == "query")
        (send,) = actor.wake(idx, actor.steps[idx].at_us)
        assert signed == [actor.keypair.private_key]
        message = channel.open_wire(send.body, "secure", sim.node_keys[send.dst].private_key)
        assert Query.decode(message.body) == actor.steps[idx].payload

    def test_a_write_is_signed_as_a_transaction_and_by_the_channel(self, signed):
        sim = Simulation(ScenarioConfig(nodes=2, workload="read", tasks=4, block_interval_ms=200), 5)
        actor = sim.actors["patient0"]
        actor.wake(0, actor.steps[0].at_us)
        assert signed == [actor.keypair.private_key] * 2


@pytest.fixture
def forced_worker(monkeypatch):
    """Fork the run-ahead worker in every run, also where it would not by itself."""
    if not hasattr(os, "fork"):
        pytest.skip("the run-ahead worker needs os.fork")
    monkeypatch.setattr(sim_module, "_can_run_ahead", lambda: True)


def capture_worker(monkeypatch, after_events=None, action=None):
    """Returns [the run-ahead worker, then whether the loop still takes its
    records at each event]; calls `action(worker)` at event number `after_events`."""
    seen = []
    original = Simulation._dispatch

    def dispatch(sim, item):
        if not seen:
            seen.append(sim._ahead)
        if len(seen) == after_events:
            action(seen[0])
        seen.append(sim._ahead is not None)
        original(sim, item)

    monkeypatch.setattr(Simulation, "_dispatch", dispatch)
    return seen


def assert_reaped(worker):
    assert channel.helper is None and not worker.handed
    with pytest.raises(ChildProcessError):
        os.waitpid(worker.pid, os.WNOHANG)
    for fd in (worker.fd, worker._requests, worker._verdicts):  # no pipe is left open
        with pytest.raises(OSError):
            os.fstat(fd)


def assert_same_results(a, b):
    for node_id, final in a.final.items():
        assert b.final[node_id].tip_hash == final.tip_hash
        assert b.final[node_id].world.digest() == final.world.digest()
    assert b.jsonl() == a.jsonl()
    assert b.counters == a.counters and b.attack_stats == a.attack_stats


class TestBackgroundVerifier:
    """The run-ahead worker: a forked process that signs for the devices and
    verifies those signatures in the background."""

    CONFIG = ScenarioConfig(nodes=4, workload="mixed", tasks=600, block_interval_ms=200)

    def test_worker_killed_mid_run_changes_no_result(self, forced_worker, monkeypatch):
        def kill(worker):
            os.kill(worker.pid, signal.SIGKILL)
            os.waitid(os.P_PID, worker.pid, os.WEXITED | os.WNOWAIT)  # dead, but left unreaped

        undisturbed = run_scenario(self.CONFIG, 11)
        seen = capture_worker(monkeypatch, 150, kill)
        disturbed = run_scenario(self.CONFIG, 11)
        worker = seen[0]
        assert worker is not None and len(seen) > 1000  # killed with much of the run still ahead
        assert worker.taken < len(worker.order)  # it had not handed over every record
        assert seen[-1] is False  # the run noticed, and prepared inline from then on
        assert_reaped(worker)
        assert_same_results(undisturbed, disturbed)

    def test_worker_reaped_after_run_returns(self, forced_worker, monkeypatch):
        seen = capture_worker(monkeypatch)
        run_scenario(self.CONFIG, 12)
        assert seen[0] is not None and all(seen[1:])
        assert seen[0].taken == len(seen[0].order)
        assert_reaped(seen[0])

    def test_worker_reaped_after_run_raises(self, forced_worker, monkeypatch):
        def fail(_worker):
            raise RuntimeError("event handler failed")

        seen = capture_worker(monkeypatch, 50, fail)
        with pytest.raises(RuntimeError, match="event handler failed"):
            run_scenario(self.CONFIG, 13)
        assert seen[0] is not None
        assert_reaped(seen[0])

    def test_driving_a_node_outside_run_starts_no_process(self, forced_worker, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked outside Simulation.run"))
        sim = Simulation(ScenarioConfig(nodes=1, workload="write", tasks=2, block_interval_ms=200), 5)
        actor = sim.actors["patient0"]
        (send,) = actor.wake(0, actor.steps[0].at_us)
        node = sim.nodes[send.dst]
        node.handle_envelope(send.body, actor.steps[0].at_us)
        assert len(node.mempool) == 1
        node.on_timer(("propose", node.engine.state.height), sim.config.block_interval_ms * 1000)
        assert node.chain.height == 1
        assert sim._ahead is None


WRITES = ScenarioConfig(nodes=4, workload="write", tasks=300, block_interval_ms=200)


class TestRunAhead:
    @pytest.mark.parametrize(
        "config, seed",
        [
            (WRITES, 31),
            (ScenarioConfig(nodes=4, workload="read", tasks=300, block_interval_ms=200), 32),
            (ScenarioConfig(nodes=4, workload="mixed", tasks=300, block_interval_ms=200), 33),
            (fast_config(attack="replay"), 34),
        ],
        ids=["write", "read", "mixed", "replay"],
    )
    def test_same_results_with_and_without_run_ahead(self, config, seed, monkeypatch):
        if not hasattr(os, "fork"):
            pytest.skip("the run-ahead worker needs os.fork")
        fork = os.fork
        results, forks = {}, []

        def counting_fork():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        for ahead in (False, True):
            monkeypatch.setattr(sim_module, "_can_run_ahead", lambda: ahead)
            results[ahead] = run_scenario(config, seed)
            assert len(forks) == int(ahead)
        assert_same_results(results[False], results[True])
        assert results[True].of_kind("task_sent")

    def test_prepared_sends_read_nothing_the_device_receives(self, monkeypatch):
        """`DeviceActor.prepare` may run ahead of the loop only because nothing
        a device receives changes what it sends: with every message to a
        device ignored, each prepared send stays byte for byte the same."""
        monkeypatch.setattr(sim_module, "_can_run_ahead", lambda: False)
        prepare = DeviceActor.prepare
        config = ScenarioConfig(nodes=4, workload="mixed", tasks=40, block_interval_ms=200)

        def prepared_sends():
            sends = []

            def recording(actor, idx):
                out = prepare(actor, idx)
                sends.append((actor.id, idx, out))
                return out

            monkeypatch.setattr(DeviceActor, "prepare", recording)
            run_scenario(config, 36)
            return sends

        heard = prepared_sends()
        monkeypatch.setattr(DeviceActor, "on_receive", lambda actor, raw, src, now_us: None)
        deaf = prepared_sends()
        assert len(heard) == 40 + 15 and deaf == heard

    def test_a_record_for_another_wake_stops_the_run(self, forced_worker, monkeypatch):
        queued = Simulation._queued_device_wakes

        def swapped(sim):
            order = queued(sim)
            order[3], order[4] = order[4], order[3]
            return order

        monkeypatch.setattr(Simulation, "_queued_device_wakes", swapped)
        seen = capture_worker(monkeypatch)
        with pytest.raises(RuntimeError, match="run-ahead record"):
            run_scenario(ScenarioConfig(nodes=4, workload="mixed", tasks=40, block_interval_ms=200), 35)
        assert_reaped(seen[0])

    @staticmethod
    def worker_writing(monkeypatch, data: bytes) -> "sim_module.RunAhead":
        """A run-ahead worker whose process writes `data` and ends."""
        if not hasattr(os, "fork"):
            pytest.skip("the run-ahead worker needs os.fork")

        def write_all(_order, fd, _requests, _verdicts):
            try:
                view = memoryview(data)
                while view:
                    view = view[os.write(fd, view[:7777]) :]  # pieces that split records and length prefixes
            finally:
                os._exit(0)

        monkeypatch.setattr(sim_module, "_run_ahead_main", write_all)
        return sim_module.RunAhead([])

    @staticmethod
    def framed(actor_id, idx, raw, verdicts=b"", tail=b""):
        """A length-prefixed record; `verdicts` is its verdict field, as the verdict pipe writes them."""
        body = enc_str(actor_id) + enc_u64(idx) + enc_str("n1") + enc_bytes(raw) + enc_bytes(b"h" * 32)
        return enc_bytes(body + enc_bytes(verdicts) + tail)

    def test_records_are_taken_across_reads_up_to_one_broken_off(self, monkeypatch):
        sizes = [10, 200_000, 3, 70_000, 0, 5]  # two records larger than one read of the pipe
        triples = [bytes([i]) * sim_module.TRIPLE_LEN for i in range(len(sizes))]
        records = [self.framed(f"d{i}", i, bytes([i]) * n, triples[i] + bytes([i % 2])) for i, n in enumerate(sizes)]
        broken = self.framed("d9", 9, b"cut")[:-1]
        ahead = self.worker_writing(monkeypatch, b"".join(records) + broken)
        try:
            for i, n in enumerate(sizes):
                assert ahead.take(f"d{i}", i) == ("n1", bytes([i]) * n, b"h" * 32)
                assert ahead.handed[triples[i]] is bool(i % 2)
            assert ahead.take("d9", 9) is None
            assert ahead.taken == len(sizes)
        finally:
            ahead.close()

    def test_a_record_with_trailing_bytes_is_refused(self, monkeypatch):
        ahead = self.worker_writing(monkeypatch, self.framed("d0", 0, b"ok") + self.framed("d1", 1, b"ok", tail=b"!"))
        try:
            assert ahead.take("d0", 0) == ("n1", b"ok", b"h" * 32)
            with pytest.raises(DecodeError, match="trailing"):
                ahead.take("d1", 1)
        finally:
            ahead.close()

    @pytest.mark.parametrize("extra", [1, sim_module.VERDICT_LEN - 1], ids=["one_byte_over", "one_byte_short"])
    def test_a_ragged_verdict_field_is_refused(self, monkeypatch, extra):
        """A verdict field must hold whole verdicts; a ragged one files none of them."""
        whole = bytes(sim_module.TRIPLE_LEN) + b"\x01"
        ahead = self.worker_writing(monkeypatch, self.framed("d0", 0, b"ok", whole * 2 + whole[:extra]))
        try:
            with pytest.raises(DecodeError, match="whole number"):
                ahead.take("d0", 0)
            assert not ahead.handed
        finally:
            ahead.close()

    def test_a_non_sha256_device_digest_is_verified_inline(self, monkeypatch):
        """The child hands over verdicts on SHA-256 digests only; a signature
        over a digest of another length is never filed, and the loop verifies it."""
        if not hasattr(os, "fork"):
            pytest.skip("the run-ahead worker needs os.fork")
        pair = kp("any-digest")
        digests = [b"twenty bytes, no sha", hashlib.sha256(b"sha").digest(), b"\x07" * 48]
        signatures = [channel.sign_digest(pair.private_key, digest) for digest in digests]

        class Device:
            id = "d0"

            def prepare(self, _idx):
                for digest in digests:
                    channel.sign_digest(pair.private_key, digest)
                return "n0", b"sealed", None

        ahead = sim_module.RunAhead([(Device(), 0)])
        try:
            assert ahead.take("d0", 0) == ("n0", b"sealed", None)
            assert ahead.handed == {pair.public_key + signatures[1] + digests[1]: True}
            inline = []
            verify = channel._verify_inline
            monkeypatch.setattr(channel, "_verify_inline", lambda *triple: inline.append(triple[2]) or verify(*triple))
            assert all(channel.verify_digest(pair.public_key, sig, digest) for sig, digest in zip(signatures, digests))
            assert inline == [digests[0], digests[2]]
        finally:
            ahead.close()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts the descriptors in /proc/self/fd")
    def test_a_failed_fork_leaves_no_pipe_open(self, forced_worker, monkeypatch):
        def no_fork():
            raise OSError(errno.EAGAIN, "no process to spare")

        monkeypatch.setattr(os, "fork", no_fork)
        before = len(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError):
            sim_module.RunAhead([])
        trace = run_scenario(ScenarioConfig(nodes=2, workload="mixed", tasks=20, block_interval_ms=200), 37)
        assert len(os.listdir("/proc/self/fd")) == before
        assert sum(e.info["measured"] for e in trace.of_kind("task_sent")) == 20
        assert channel.helper is None  # no helper was left behind

    def test_no_process_without_a_second_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0}, raising=False)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked on one CPU"))
        trace = run_scenario(ScenarioConfig(nodes=2, workload="mixed", tasks=20, block_interval_ms=200), 36)
        assert sum(e.info["measured"] for e in trace.of_kind("task_sent")) == 20


SIGNED_RECORDS = (chain.Transaction, chain.BlockHeader, consensus.ConsensusMessage)


class TestVerdictPerRecord:
    """Every node handed one signed record object shares that record's signature check."""

    @pytest.fixture(params=[0, 2], ids=["honest", "byzantine"])
    def config(self, request, monkeypatch):
        monkeypatch.setattr(sim_module, "_can_run_ahead", lambda: False)  # every device signature checked here too
        return ScenarioConfig(nodes=7, byzantine=request.param, workload="write", tasks=120, block_interval_ms=200)

    def test_each_record_is_checked_once(self, config, monkeypatch):
        per_record, records = collections.Counter(), []
        verify = channel.verify_digest

        def counting(public_key, signature, digest):
            # The record being checked is the signed record among the caller's locals.
            record = next(v for v in sys._getframe(1).f_locals.values() if isinstance(v, SIGNED_RECORDS))
            per_record[id(record)] += 1
            records.append(record)  # alive to the end, so no other record takes its id
            return verify(public_key, signature, digest)

        inline = collections.Counter()
        verify_inline = channel._verify_inline

        def counting_inline(public_key, signature, digest):
            inline[public_key + signature + digest] += 1
            return verify_inline(public_key, signature, digest)

        for module in (chain, consensus):
            monkeypatch.setattr(module, "verify_digest", counting, raising=False)
        monkeypatch.setattr(channel, "_verify_inline", counting_inline)
        trace = run_scenario(config, 41)
        assert sum(e.info["measured"] for e in trace.of_kind("task_confirmed")) == config.tasks
        assert {type(r) for r in records} == set(SIGNED_RECORDS)
        assert max(per_record.values()) == 1
        assert max(inline.values()) == 1

    def test_same_results_without_the_verdict_field(self, config, monkeypatch):
        with_field = run_scenario(config, 41)

        def uncached(record):
            signature = getattr(record, record.LAYOUT[-1][0])
            digest = hashlib.sha256(record.signing_bytes()).digest()
            return channel.verify_digest(getattr(record, record.SIGNER), signature, digest)

        monkeypatch.setattr(chain.Signed, "verified", uncached)
        assert_same_results(with_field, run_scenario(config, 41))


class TestFaults:
    def test_crashed_minority_does_not_stop_progress(self):
        cfg = ScenarioConfig(nodes=4, workload="none", crashed=1, block_interval_ms=200,
                             stop_at_height=12, duration_s=120)
        trace = run_scenario(cfg, 31)
        assert max(trace.final[n].height for n in trace.meta["honest"]) >= 12

    def test_nodes_share_one_state_per_height(self, monkeypatch):
        """Each finalized block is applied once, and no state outlives the nodes holding it."""
        calls = collections.Counter()
        execute = contracts.execute_transaction

        def counting(world, tx, schedule, height):
            calls[chain.hash_tx(tx)] += 1
            return execute(world, tx, schedule, height)

        monkeypatch.setattr(contracts, "execute_transaction", counting)
        before = {id(o) for o in gc.get_objects() if isinstance(o, contracts.WorldState)}
        cfg = ScenarioConfig(nodes=7, crashed=1, workload="write", tasks=60, block_interval_ms=200)
        simulation = Simulation(cfg, 43)
        trace = simulation.run()
        gc.collect()
        live = [o for o in gc.get_objects() if isinstance(o, contracts.WorldState) and id(o) not in before]
        heights = {node.chain.height for node in simulation.nodes.values()}
        assert len(heights) >= 2 and len(live) <= len(heights)
        tallest = max(simulation.nodes.values(), key=lambda node: node.chain.height)
        finalized = [chain.hash_tx(tx) for block in tallest.chain.blocks[1:] for tx in block.transactions]
        assert len(finalized) >= cfg.tasks and calls == collections.Counter(finalized)
        for node_id in trace.meta["honest"]:
            assert replay_chain(trace.final[node_id].chain, trace.genesis).encode() == trace.final[node_id].world.encode()

    def test_byzantine_equivocator_never_splits_finality(self):
        cfg = ScenarioConfig(nodes=4, workload="none", byzantine=1, block_interval_ms=200,
                             stop_at_height=8, duration_s=60)
        trace = run_scenario(cfg, 33)
        by_height = {}
        for e in trace.of_kind("block_finalized"):
            if e.src not in trace.meta["honest"]:
                continue
            prev = by_height.setdefault(e.info["height"], e.info["hash"])
            assert prev == e.info["hash"], f"conflicting finalization at {e.info['height']}"
        assert len(trace.of_kind("equivocating_proposal")) >= 1

    def test_one_equivocation_strands_the_honest_node_it_split_off(self):
        """A known defect, left for item 2's block sync to mend. At height 3 the
        equivocator n3 sends block A's proposal to n0 and n1 and block B's, with
        a forged prepare and commit for B, to n2. n0, n1 and n3 finalize A. n2
        holds B as round 0's proposal and never receives A, and its n3 commit
        is the one for B, so it stays a commit short of A's quorum for good."""
        simulation = Simulation(ScenarioConfig(nodes=4, workload="write", tasks=30, block_interval_ms=200, byzantine=1), 47)
        final = simulation.run().final
        for height in (1, 2):
            assert len({final[n].chain.blocks[height].header for n in final}) == 1
        assert {n: final[n].height for n in ("n0", "n1", "n2")} == {"n0": 8, "n1": 8, "n2": 2}
        n3 = simulation.node_keys["n3"].public_key
        assert [(a.kind, a.offender, a.height) for a in final["n2"].alerts] == [(consensus.AlertKind.EQUIVOCATION, n3, 3)]


class EngineEntryPoints:
    """A node's engine seen through its four entry points alone: reading any of its state fails."""

    __slots__ = ("on_message", "on_timer", "propose", "start_height")

    def __init__(self, engine):
        for name in self.__slots__:
            setattr(self, name, getattr(engine, name))


@pytest.mark.parametrize(
    "faults, proposals",
    [
        ({"crashed": 1}, lambda trace: [e for e in trace.of_kind("proposed") if e.info["round"] > 0]),
        ({"byzantine": 1}, lambda trace: trace.of_kind("equivocating_proposal")),
    ],
    ids=["crash", "byzantine"],
)
def test_nodes_drive_their_engines_through_its_entry_points_alone(faults, proposals):
    cfg = ScenarioConfig(nodes=4, workload="write", tasks=30, block_interval_ms=200, **faults)
    plain = Simulation(cfg, 47).run()
    simulation = Simulation(cfg, 47)
    for node in simulation.nodes.values():
        node.engine = EngineEntryPoints(node.engine)
    trace = simulation.run()
    assert hashlib.sha256(trace.jsonl().encode()).digest() == hashlib.sha256(plain.jsonl().encode()).digest()
    # A round-1 proposal after a round-change quorum; the equivocator's pairs of blocks.
    assert proposals(trace) and trace.of_kind("round_timeout")
    assert max(trace.final[n].height for n in trace.meta["honest"]) >= 5


class TestTimers:
    def test_only_wakes_that_can_act_reach_a_node(self, monkeypatch):
        """Each propose wake goes to its height's round-0 proposer, and each round deadline is armed once."""
        monkeypatch.setattr(sim_module, "_can_run_ahead", lambda: False)
        fired = []
        on_timer = FogNode.on_timer

        def recording(node, key, now_us):
            fired.append((node.node_id, key))
            return on_timer(node, key, now_us)

        monkeypatch.setattr(FogNode, "on_timer", recording)
        simulation = Simulation(ScenarioConfig(nodes=4, crashed=1, workload="write", tasks=30, block_interval_ms=200), 11)
        trace = simulation.run()
        authorities = trace.genesis.authorities
        node_of = {node.keypair.public_key: node_id for node_id, node in simulation.nodes.items()}
        proposes = [(node_id, key) for node_id, key in fired if key[0] == "propose"]
        rounds = [(node_id, key) for node_id, key in fired if key[0] == "round"]
        assert proposes and trace.of_kind("round_timeout")  # the crashed proposer's turn changes the round
        assert all(node_id == node_of[consensus.select_proposer(key[1], 0, authorities)] for node_id, key in proposes)
        assert len(rounds) == len(set(rounds))


class TestAttacks:
    def test_eavesdropper_changes_nothing_and_reads_nothing(self):
        cfg = fast_config(nodes=3)
        baseline = run_scenario(copy.deepcopy(cfg), 37)
        attacked = run_scenario(replace(cfg, attack="eavesdrop"), 37)
        stats = attacked.attack_stats
        assert stats["captured"] >= 1
        assert stats["failures"] == stats["attempts"] == stats["captured"]
        for n in attacked.meta["honest"]:
            assert attacked.final[n].world.encode() == baseline.final[n].world.encode()

    def test_replay_attack_rejected_everywhere(self):
        cfg = fast_config(nodes=3)
        baseline = run_scenario(copy.deepcopy(cfg), 39)
        attacked = run_scenario(replace(cfg, attack="replay"), 39)
        assert attacked.attack_stats["replayed"] == attacked.attack_stats["captured"] >= 1
        alerts = [a for a in attacked.final["n0"].alerts if a.kind == "replay_detected"]
        assert len(alerts) == attacked.attack_stats["replayed"]
        for n in attacked.meta["honest"]:
            assert attacked.final[n].world.encode() == baseline.final[n].world.encode()

    def test_each_node_alerts_on_every_replay_it_refuses(self):
        # A read device's counter k reaches two nodes alike. Unless the alert names the
        # node that refused it, one node's gossiped alert hides the other's, even at the
        # node that raised the hidden one (n0 held 23 alerts for these 51 replays).
        cfg = ScenarioConfig(nodes=7, crashed=2, workload="read", tasks=40, attack="replay")
        trace = run_scenario(cfg, 7)
        refused = collections.Counter(
            e.src for e in trace.of_kind("rejected") if e.info["reason"] == "nonce_replayed"
        )
        raised = collections.Counter(
            e.src for e in trace.of_kind("alert") if e.info["alert_kind"] == "replay_detected"
        )
        assert trace.attack_stats["replayed"] == sum(refused.values()) == 51
        assert raised == refused
        for n in trace.meta["honest"]:
            assert sum(1 for a in trace.final[n].alerts if a.kind == "replay_detected") == 51

    def test_an_attacked_run_lasts_the_margin_past_its_last_wake(self):
        # 60 block intervals plus 30 s is a run's only tail, whether an attacker or a device woke last.
        for kind in ATTACK_KINDS:
            simulation = Simulation(fast_config(attack=kind), 41)
            last = max(at_us for party in simulation.parties.values() for at_us, _tag in party.schedule())
            assert simulation.duration_us == last + 60 * 200_000 + 30_000_000, kind

    def test_unknown_attack_kind(self):
        with pytest.raises(ConfigInvalid):
            run_scenario(fast_config(attack="quantum"), 1)


class TestConfig:
    def test_from_json_reads_every_field_it_is_given(self):
        text = """{
            "nodes": 5, "block_interval_ms": 200, "writes": 6, "write_period_ms": 400,
            "attack": "dos", "attack_params": {"balance": 5000},
            "link": {"jitter_us": 50, "partitions": [["n0", "n1"], ["n2", "patient0"]]}
        }"""
        link = LinkModel(jitter_us=50, partitions={frozenset(("n0", "n1")), frozenset(("n2", "patient0"))})
        expected = fast_config(nodes=5, attack="dos", attack_params={"balance": 5000}, link=link)
        assert ScenarioConfig.from_json(text) == expected

    @pytest.mark.parametrize(
        "bad",
        [
            {"link": {"base_latency_us": -10000}},
            {"link": {"jitter_us": -5}},
            {"link": {"drop_probability": 1.5}},
            {"block_interval_ms": 0},
            {"block_interval_ms": -1},
            {"write_period_ms": -1000},
            {"tasks": -1},
            {"writes": -1},
            {"crashed": -1},
            {"byzantine": -1},
            {"duration_s": -0.5},
            {"stop_at_height": -3},
            {"channel_mode": "tls"},
        ],
        ids=["negative_latency", "negative_jitter", "drop_probability_above_one", "zero_interval",
             "negative_interval", "negative_write_period", "negative_tasks", "negative_writes",
             "negative_crashed", "negative_byzantine", "negative_duration", "negative_stop_height",
             "unknown_channel_mode"],
    )
    def test_bad_scenario_json_rejected(self, bad):
        cfg = ScenarioConfig.from_json(json.dumps(bad))
        with pytest.raises(ConfigInvalid):
            cfg.validate()
        with pytest.raises(ConfigInvalid):
            run_scenario(cfg, 1)

    @pytest.mark.parametrize(
        "bad",
        [
            {"node": 7},
            {"link": {"jiter_us": 5}},
            {"gas": {"bogus": 2}},
            {"writers": 2},
            {"readers": 2},
            {"actor_balance": 5},
            {"mempool_cap": 10},
            {"max_txs": 10},
            {"stop_on_done": False},
            {"task_period_us": -50},
            {"query_service_us": -1},
        ],
        ids=["typo", "link_typo", "unknown_gas_key", "writers", "readers", "actor_balance", "mempool_cap", "max_txs",
             "stop_on_done", "negative_task_period", "negative_service"],
    )
    def test_unknown_scenario_keys_rejected(self, bad):
        # A removed knob or a typo would otherwise run the default silently.
        with pytest.raises(ConfigInvalid, match="unknown"):
            ScenarioConfig.from_json(json.dumps(bad))

    @pytest.mark.parametrize(
        "bad",
        [
            {"nodes": "x"},
            {"nodes": True},
            {"tasks": 2.5},
            {"duration_s": "10"},
            {"attack_params": []},
            {"link": {"jitter_us": "5"}},
            {"link": {"drop_probability": None}},
            {"link": 5},
            {"link": {"partitions": [1]}},
            {"link": {"partitions": ["n0n1"]}},
            {"link": {"partitions": [["n0", "n1", "n2"]]}},
            {"link": {"partitions": {"n0": "n1"}}},
        ],
        ids=["nodes_str", "nodes_bool", "tasks_float", "duration_str", "params_list",
             "jitter_str", "drop_none", "link_int", "partition_int", "partition_str", "partition_triple",
             "partitions_object"],
    )
    def test_wrong_field_types_rejected(self, bad):
        with pytest.raises(ConfigInvalid):
            ScenarioConfig.from_json(json.dumps(bad)).validate()

    def test_a_set_duration_runs_its_whole_span(self):
        cfg = ScenarioConfig(nodes=1, workload="write", tasks=2, block_interval_ms=200)
        done = run_scenario(cfg, 5)  # stops once both writes are confirmed
        spanned = run_scenario(replace(cfg, duration_s=20.0), 5)
        assert done.counters["end_us"] < 19_800_000 <= spanned.counters["end_us"] <= 20_000_000

    def test_int_accepted_where_a_float_is_expected(self):
        ScenarioConfig.from_json(json.dumps({"duration_s": 5, "link": {"drop_probability": 0}})).validate()

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigInvalid):
            run_scenario(ScenarioConfig(nodes=0), 1)
        with pytest.raises(ConfigInvalid):
            run_scenario(ScenarioConfig(workload="nonsense"), 1)
        with pytest.raises(ConfigInvalid):
            run_scenario(ScenarioConfig(nodes=4, byzantine=2, crashed=2), 1)
        # Fewer faults than nodes, but the live honest nodes fall short of the quorum.
        with pytest.raises(ConfigInvalid, match="quorum"):
            ScenarioConfig(nodes=4, crashed=2).validate()
        with pytest.raises(ConfigInvalid, match="quorum"):
            ScenarioConfig(nodes=7, crashed=3).validate()
        # Attack params: only keys the selected attacker reads, each a non-negative int.
        for kind, params in [
            ("replay", {"gap_us": "x"}),
            ("replay", {"max_replay": True}),
            ("replay", {"start_us": 5}),  # the replay attacker has its own schedule
            ("spoof", {"start_us": "soon"}),
            ("spoof", {"victim": b"\x01" * 32}),  # only the workload's plan supplies it
            ("dos", {"balance": -5}),
            ("dos", {"contract": b"\x02" * 32}),
            ("eavesdrop", {"attempt_at_us": 1.5}),
            ("insertion", {"count": None}),
        ]:
            with pytest.raises(ConfigInvalid, match="param"):
                ScenarioConfig(attack=kind, attack_params=params).validate()
        ScenarioConfig(attack="dos", attack_params={"balance": 0, "count": 2, "period_us": 1}).validate()
        # With no attack selected the params are not read, so they are not checked.
        ScenarioConfig(attack_params={"gap_us": "x", "victim": "v"}).validate()
        # A partition must cut a link between two distinct endpoints of the scenario.
        for pair in (("n0", "n9"), ("n1", "patient9"), ("n2", "n2"), ("n0", "writer0")):
            with pytest.raises(ConfigInvalid, match="partition"):
                Simulation(ScenarioConfig(nodes=4, link=LinkModel(partitions={frozenset(pair)})), 1)
        for pair in (("n3", "doctor0"), ("n0", "attacker"), ("n0", "n3")):
            Simulation(ScenarioConfig(nodes=4, link=LinkModel(partitions={frozenset(pair)})), 1)
        Simulation(ScenarioConfig(nodes=4, workload="mixed", tasks=3, link=LinkModel(partitions={frozenset(("n0", "writer0"))})), 1)

    def test_attacks_that_need_a_workload_rejected_without_one(self):
        for kind in ATTACK_KINDS:
            cfg = ScenarioConfig(workload="none", duration_s=5.0, attack=kind)
            if ATTACKER_CLASSES[kind].PLAN_PARAMS:
                with pytest.raises(ConfigInvalid, match="needs a workload"):
                    cfg.validate()
            else:
                run_scenario(cfg, 1)
        assert [k for k in ATTACK_KINDS if not ATTACKER_CLASSES[k].PLAN_PARAMS] == ["insertion"]

    def test_task_workloads_need_at_least_one_task(self):
        assert ScenarioConfig(workload="write").tasks == 100
        for workload in ("write", "read", "mixed"):
            with pytest.raises(ConfigInvalid, match="at least one task"):
                ScenarioConfig(workload=workload, tasks=0).validate()
        ScenarioConfig(workload="scenario", tasks=0).validate()  # the lifecycle ignores tasks

    def test_largest_tolerable_fault_counts_and_any_seed_accepted(self):
        for nodes, faults in ((1, 0), (2, 1), (3, 2), (4, 1), (7, 2), (20, 6)):
            ScenarioConfig(nodes=nodes, crashed=faults).validate()
            ScenarioConfig(nodes=nodes, byzantine=faults).validate()
        ScenarioConfig(seed=-1).validate()  # the one numeric field that may be negative

