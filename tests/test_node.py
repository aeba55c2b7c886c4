import hashlib
from dataclasses import replace

import pytest

from edgelinker import node as node_module
from edgelinker.chain import (
    DEFAULT_GAS_LIMIT,
    Call,
    Deploy,
    GasSchedule,
    GenesisConfig,
    Query,
    Transaction,
    build_block,
    hash_block,
    hash_tx,
    make_transaction,
    validate_block,
)
from edgelinker.channel import ChannelMessage, seal_message, sign_digest
from edgelinker.codec import DecodeError, enc_bytes, enc_u8, enc_u64
from edgelinker.contracts import (
    WRITE_PERMISSION,
    genesis_world,
    PermissionDenied,
    contract_address,
    encode_permission_args,
    encode_reading_args,
    read_history,
    replay_chain,
)
from edgelinker.node import (
    ALERT,
    CONFIRM,
    CONSENSUS,
    GOSSIP,
    PEERS,
    REPLY,
    AlertKind,
    ConfirmBody,
    FogNode,
    QueryReplyBody,
    Send,
)
from edgelinker.channel import open_message, SecureEnvelope
from edgelinker.consensus import Phase, make_message
from tests.conftest import kp

T0 = 500_000  # first event, microseconds
INTERVAL = 1_000_000


class Log:
    """A node's trace sink that keeps every (kind, info) record."""

    def __init__(self):
        self.records = []

    def __call__(self, kind, **info):
        self.records.append((kind, info))


def rejections(node):
    return [info["reason"] for kind, info in node.rec.records if kind == "rejected"]


def admitted(node):
    return [info["tx"] for kind, info in node.rec.records if kind == "tx_admitted"]


def make_node(authority, balances, node_id="n0", peer_ids=(), directory=None, start=True):
    """A node that has begun height 1 and dropped that output, unless `start` is false."""
    cfg = GenesisConfig(
        authorities=[authority.public_key] if not isinstance(authority, list) else [a.public_key for a in authority],
        initial_balances=balances,
        block_interval_ms=1000,
    )
    first = authority if not isinstance(authority, list) else authority[0]
    node = FogNode(node_id, first, cfg, list(peer_ids), dict(directory or {}), recorder=Log())
    if start:
        node.initial_output()
    return node


def envelope(client, node, nonce, tx, now_us):
    m = ChannelMessage(now_us // 1000, nonce, client.public_key, tx.encode())
    return seal_message(m, client.private_key, node.keypair.public_key).to_bytes()


@pytest.fixture
def single(keys):
    authority, client = keys[0], keys[1]
    node = make_node(authority, {client.public_key: 10**12, keys[2].public_key: 10**12})
    return node, authority, client


class TestEnvelopeIngress:
    def test_valid_transaction_ack_and_mempool_growth(self, single):
        node, _, client = single
        tx = make_transaction(client, 1, T0 // 1000, Deploy("health_record", b""))
        node.handle_envelope(envelope(client, node, 1, tx, T0), T0)
        assert admitted(node) == [hash_tx(tx).hex()[:16]] and rejections(node) == []
        assert len(node.mempool) == 1

    def test_an_empty_falsy_recorder_still_records(self, keys):
        class ListSink(list):  # falsy while empty
            def __call__(self, kind, **info):
                self.append((kind, info))

        authority, client = keys[0], keys[1]
        cfg = GenesisConfig(
                authorities=[authority.public_key],
            initial_balances={client.public_key: 10**12},
            block_interval_ms=1000,
        )
        sink = ListSink()
        node = FogNode("n0", authority, cfg, [], {}, recorder=sink)
        tx = make_transaction(client, 1, T0 // 1000, Deploy("health_record", b""))
        node.handle_envelope(envelope(client, node, 1, tx, T0), T0)
        assert sink == [("tx_admitted", {"tx": hash_tx(tx).hex()[:16], "sender": client.public_key.hex()[:16]})]

    def test_replayed_envelope_rejected_with_alert(self, single):
        node, _, client = single
        tx = make_transaction(client, 1, T0 // 1000, Deploy("health_record", b""))
        raw = envelope(client, node, 1, tx, T0)
        node.handle_envelope(raw, T0)
        assert len(admitted(node)) == 1
        node.handle_envelope(raw, T0 + 1000)
        assert rejections(node) == ["nonce_replayed"]
        assert [a.kind for a in node.alerts] == [AlertKind.REPLAY_DETECTED]
        assert node.alerts[0].offender == client.public_key
        assert len(node.mempool) == 1

    def test_tampered_ciphertext_rejected(self, single):
        node, _, client = single
        tx = make_transaction(client, 1, T0 // 1000, Deploy("health_record", b""))
        raw = bytearray(envelope(client, node, 1, tx, T0))
        raw[60] ^= 0xFF
        node.handle_envelope(bytes(raw), T0)
        assert rejections(node) == ["decrypt_failed"]
        assert node.mempool == {}

    def test_nonce_gap_rejected(self, single):
        node, _, client = single
        tx = make_transaction(client, 1, T0 // 1000, Deploy("health_record", b""))
        node.handle_envelope(envelope(client, node, 7, tx, T0), T0)
        assert rejections(node) == ["nonce_gap"] and node.mempool == {}

    def test_a_transaction_with_a_bad_signature_is_rejected(self, single):
        node, _, client = single
        tx = make_transaction(client, 1, T0 // 1000, Deploy("health_record", b""))
        forged = replace(tx, signature=bytes(len(tx.signature)))
        out = node.handle_envelope(envelope(client, node, 1, forged, T0), T0)
        node.on_gossip(forged, T0)
        assert rejections(node) == ["bad_tx_signature"] * 2
        assert out.sends == [] and node.mempool == {} and node.pending_conf == {}

    def test_a_transaction_heard_twice_is_a_duplicate(self, single):
        node, _, client = single
        tx = make_transaction(client, 1, T0 // 1000, Deploy("health_record", b""))
        node.handle_envelope(envelope(client, node, 1, tx, T0), T0)
        out = node.handle_envelope(envelope(client, node, 2, tx, T0), T0)  # a fresh envelope
        node.on_gossip(tx, T0)
        assert rejections(node) == ["duplicate"] * 2
        assert out.sends == [] and list(node.mempool) == [hash_tx(tx)]

    def test_bytes_that_fail_to_decode_are_rejected_as_bad_wire(self, single):
        node, _, _ = single
        out = node.handle_envelope(b"x" * 10, T0)  # shorter than any envelope
        assert out.sends == [] and out.timers == []
        assert rejections(node) == ["bad_wire"]
        assert node.mempool == {} and node.alerts == []

    def test_mempool_cap(self, single, monkeypatch):
        node, _, client = single
        monkeypatch.setattr(node_module, "MEMPOOL_CAP", 2)
        for i in range(1, 4):
            tx = make_transaction(client, i, T0 // 1000, Deploy("health_record", b""))
            node.handle_envelope(envelope(client, node, i, tx, T0), T0)
        assert rejections(node) == ["mempool_full"]
        assert len(node.mempool) == 2


class TestProposalLifecycle:
    def test_proposer_timer_finalizes_pending_txs(self, single):
        node, _, client = single
        tx = make_transaction(client, 1, T0 // 1000, Deploy("health_record", b""))
        node.handle_envelope(envelope(client, node, 1, tx, T0), T0)
        out = node.on_timer(("propose", 1), INTERVAL)
        assert node.chain.height == 1
        assert node.mempool == {}
        contract = contract_address(client.public_key, 1)
        assert contract in node.world.contracts

    def test_confirmation_sent_to_directory_entry(self, single):
        node, _, client = single
        node.directory[client.public_key] = "c1"
        tx = make_transaction(client, 1, T0 // 1000, Deploy("health_record", b""))
        node.handle_envelope(envelope(client, node, 1, tx, T0), T0)
        out = node.on_timer(("propose", 1), INTERVAL)
        confirms = [s for s in out.sends if s.dst == "c1"]
        assert len(confirms) == 1

    def test_one_confirmation_per_device_and_block_with_its_receipts(self, keys):
        authority, client, other = keys[0], keys[1], keys[2]
        node = make_node(authority, {client.public_key: 10**12, other.public_key: 10**12})
        node.directory.update({client.public_key: "c1", other.public_key: "c2"})
        contract = contract_address(client.public_key, 1)
        grant = Call(contract, "grant", encode_permission_args(WRITE_PERMISSION, client.public_key))
        payloads = [Deploy("health_record", b""), grant, Call(contract, "add_reading", encode_reading_args(1000, 72))]
        txs = [make_transaction(client, i, T0 // 1000, p) for i, p in enumerate(payloads, start=1)]
        early = make_transaction(other, 1, T0 // 1000, Call(contract, "add_reading", encode_reading_args(1000, 80)))
        for i, tx in enumerate(txs, start=1):
            node.handle_envelope(envelope(client, node, i, tx, T0), T0)
        node.handle_envelope(envelope(other, node, 1, early, T0), T0)
        assert admitted(node) == [hash_tx(tx).hex()[:16] for tx in txs + [early]]
        out = node.on_timer(("propose", 1), INTERVAL)
        assert node.chain.height == 1
        confirms = {s.dst: s for s in out.sends if s.kind == CONFIRM}
        assert sorted(confirms) == ["c1", "c2"]
        assert len([s for s in out.sends if s.kind == CONFIRM]) == 2

        def opened(send, device):
            return ConfirmBody.decode(open_message(SecureEnvelope.from_bytes(send.body), device.private_key, node.keypair.public_key).body)

        mine = opened(confirms["c1"], client)
        assert mine.height == 1
        assert [e.tx_hash for e in mine.entries] == [hash_tx(tx) for tx in txs]
        assert [(e.result, e.reason) for e in mine.entries] == [("ok", "")] * 3
        assert all(e.delay_us == INTERVAL - T0 for e in mine.entries)
        # A block orders by sender key, and `other` sorts first: its call runs before the deploy.
        assert other.public_key < client.public_key
        theirs = opened(confirms["c2"], other)
        assert [(e.tx_hash, e.result, e.reason) for e in theirs.entries] == [(hash_tx(early), "failed", "unknown_contract")]

    def test_empty_heartbeat_advances_height(self, single):
        node, _, _ = single
        node.on_timer(("propose", 1), INTERVAL)
        assert node.chain.height == 1
        assert node.chain.tip.transactions == ()

    def test_state_replay_matches_live_world(self, single):
        node, _, client = single
        payloads = [Deploy("health_record", b"")]
        contract = contract_address(client.public_key, 1)
        payloads.append(Call(contract, "grant", encode_permission_args(WRITE_PERMISSION, client.public_key)))
        payloads.append(Call(contract, "add_reading", encode_reading_args(123456, 70)))
        now = T0
        for i, payload in enumerate(payloads, start=1):
            tx = make_transaction(client, i, now // 1000, payload)
            node.handle_envelope(envelope(client, node, i, tx, now), now)
            now += INTERVAL
            node.on_timer(("propose", node.engine.state.height), now)
        rebuilt = replay_chain(node.chain, node.genesis_config)
        assert rebuilt.encode() == node.world.encode()

    def test_genesis_sets_interval_round_timeout_and_gas(self, keys):
        authority, client = keys[0], keys[1]
        genesis = GenesisConfig(
            authorities=[authority.public_key],
            initial_balances={client.public_key: 10**12},
            gas=GasSchedule(deploy=5),
            block_interval_ms=200,
        )
        node = FogNode("n0", authority, genesis, [], {})
        node.initial_output()
        assert node.engine.round_timeout_us == 400_000
        tx = make_transaction(client, 1, 100, Deploy("health_record", b""))
        node.handle_envelope(envelope(client, node, 1, tx, 100_000), 100_000)
        assert list(node.mempool) == [hash_tx(tx)]
        node.on_timer(("propose", 1), 200_000)
        assert node.chain.height == 1 and node.mempool == {}
        assert node.world.accounts[client.public_key].balance == 10**12 - 5
        assert replay_chain(node.chain, genesis).digest() == node.world.digest()

    def test_no_tx_appears_twice_across_blocks(self, single):
        node, _, client = single
        tx = make_transaction(client, 1, T0 // 1000, Deploy("health_record", b""))
        raw = envelope(client, node, 1, tx, T0)
        node.handle_envelope(raw, T0)
        node.on_timer(("propose", 1), INTERVAL)
        # gossip duplicate after finalization is refused
        node.on_gossip(tx, INTERVAL + 1000)
        assert rejections(node) == ["tx_already_final"]
        assert node.alerts == []  # a late gossip duplicate is no replay
        node.on_timer(("propose", 2), 2 * INTERVAL)
        seen = [h for b in node.chain.blocks for h in [t.encode() for t in b.transactions]]
        assert len(seen) == len(set(seen))


class TestQueryInTransaction:
    def test_rejected_on_the_client_path(self, single):
        node, _, client = single
        with pytest.raises(TypeError):
            make_transaction(client, 1, T0 // 1000, Query(bytes(32), 0, 10))
        # What a transaction carrying a query was: payload tag 3, then the query's fields.
        unsigned = (
            enc_u8(Transaction.WIRE_TAG) + enc_bytes(client.public_key) + enc_u64(1) + enc_u64(T0 // 1000)
            + enc_u8(3) + enc_bytes(bytes(32)) + enc_u64(0) + enc_u64(10) + enc_u64(DEFAULT_GAS_LIMIT)
        )
        raw = unsigned + enc_bytes(sign_digest(client.private_key, hashlib.sha256(unsigned).digest()))
        with pytest.raises(DecodeError, match="payload tag 3"):
            Transaction.decode(raw)
        m = ChannelMessage(T0 // 1000, 1, client.public_key, raw)
        out = node.handle_envelope(seal_message(m, client.private_key, node.keypair.public_key).to_bytes(), T0)
        assert rejections(node) == ["bad_body"]
        assert out.sends == []
        assert node.mempool == {}


def sent(out):
    """The sends of a handler's output; a handler that returns None sends nothing."""
    return [] if out is None else out.sends


def round_timers(*outs):
    """The round deadlines the outputs arm, in order; None arms nothing."""
    return [timer for out in outs if out is not None for timer in out.timers if timer[1][0] == "round"]


class TestTickProposerDuty:
    def test_non_proposer_does_not_propose(self, keys):
        a0, a1 = keys[0], keys[1]
        node0 = make_node([a0, a1], {}, node_id="n0", peer_ids=["n0", "n1"])
        out = node0.on_timer(("propose", 1), INTERVAL)
        # height-1 proposer is authorities[1]; n0 stays silent
        assert sent(out) == []
        assert node0.chain.height == 0

    def test_only_the_proposer_is_handed_a_propose_wake(self, keys):
        genesis = make_node(keys[:2], {}).genesis_config
        nodes = [FogNode(f"n{i}", keys[i], genesis, ["n0", "n1"], {}) for i in range(2)]
        wakes = [[t for t in node.initial_output().timers if t[1][0] == "propose"] for node in nodes]
        # height-1 proposer is authorities[1]
        assert wakes == [[], [(INTERVAL, ("propose", 1))]]

    def test_propose_timer_at_interval_proposes_and_purges_mempool(self, single):
        node, _, client = single
        tx = make_transaction(client, 1, T0 // 1000, Deploy("health_record", b""))
        node.handle_envelope(envelope(client, node, 1, tx, T0), T0)
        assert node.chain.height == 0 and len(node.mempool) == 1
        node.on_timer(("propose", 1), INTERVAL)
        assert node.chain.height == 1
        assert node.mempool == {}

    def test_round_timer_at_deadline_sends_round_change(self, keys):
        authorities = [keys[i] for i in range(4)]
        node0 = make_node(authorities, {}, node_id="n0", peer_ids=[f"n{i}" for i in range(4)], start=False)
        [(deadline, _key)] = round_timers(node0.initial_output())
        out = node0.on_timer(("round", 1, 0), deadline)
        assert node0.engine.state.round == 1
        changes = [s.body for s in out.sends if s.kind == CONSENSUS]
        assert {s.dst for s in out.sends} == {PEERS}  # the loop fans each out to n1, n2 and n3
        assert changes and all(m.phase == Phase.ROUND_CHANGE and m.round == 1 for m in changes)

    def test_proposer_emits_pre_prepare_with_pending_txs(self, keys):
        a0, a1, client = keys[0], keys[1], keys[2]
        cfg = GenesisConfig(
                authorities=[a0.public_key, a1.public_key],
            initial_balances={client.public_key: 10**12},
            block_interval_ms=1000,
        )
        node1 = FogNode("n1", a1, cfg, ["n0", "n1"], {})
        node1.initial_output()
        for i in range(1, 4):
            tx = make_transaction(client, i, T0 // 1000, Deploy("health_record", b""))
            node1.on_gossip(tx, T0)
        out = node1.on_timer(("propose", 1), INTERVAL)
        pre = [s for s in out.sends if s.kind == CONSENSUS and s.body.block is not None]
        assert pre, "expected a proposal broadcast"
        assert len(pre[0].body.block.transactions) == 3
        # quorum is 1 for n=2, so the proposer finalized and purged its mempool
        assert node1.mempool == {}


ROUND_0_US = 2 * INTERVAL  # round 0 lasts two block intervals


class TestRoundTimer:
    """A node arms a round's timeout once, when it enters the round: a round's deadline never moves."""

    def test_messages_in_one_round_arm_it_once_and_a_round_change_again(self, keys):
        node0 = make_node(keys[:4], {}, node_id="n0", peer_ids=[f"n{i}" for i in range(4)], start=False)
        first = node0.initial_output()
        votes = [make_message(keys[i], Phase.PREPARE, 1, 0, bytes(32)) for i in (2, 3)]
        outs = [node0.on_consensus(vote, T0) for vote in votes]
        deadline = ROUND_0_US  # from the node's start at 0
        assert round_timers(first, *outs) == [(deadline, ("round", 1, 0))]

        changed = node0.on_timer(("round", 1, 0), deadline)
        assert node0.engine.state.round == 1
        vote = node0.on_consensus(make_message(keys[2], Phase.PREPARE, 1, 1, bytes(32)), deadline + 1)
        assert round_timers(changed, vote) == [(deadline + 2 * ROUND_0_US, ("round", 1, 1))]

    def test_a_new_height_arms_it_again(self, keys):
        node = make_node(keys[0], {}, start=False)
        first = node.initial_output()
        out = node.on_timer(("propose", 1), INTERVAL)  # a lone authority finalizes its own proposal
        assert node.chain.height == 1
        assert round_timers(first, out) == [(ROUND_0_US, ("round", 1, 0)), (INTERVAL + ROUND_0_US, ("round", 2, 0))]


class TestQueries:
    def _prepared(self, keys):
        authority, client, doctor = keys[0], keys[1], keys[2]
        directory = {client.public_key: "c1", doctor.public_key: "d1"}
        node = make_node(authority, {client.public_key: 10**12}, directory=directory)
        contract = contract_address(client.public_key, 1)
        payloads = [
            Deploy("health_record", b""),
            Call(contract, "grant", encode_permission_args(WRITE_PERMISSION, client.public_key)),
            Call(contract, "add_reading", encode_reading_args(1000, 72)),
            Call(contract, "add_reading", encode_reading_args(2000, 75)),
        ]
        now = T0
        for i, payload in enumerate(payloads, start=1):
            tx = make_transaction(client, i, now // 1000, payload)
            node.handle_envelope(envelope(client, node, i, tx, now), now)
        node.on_timer(("propose", 1), INTERVAL)
        return node, client, doctor, contract

    @staticmethod
    def _ask(node, device, nonce, query, now):
        """Send one query envelope; return the reply send and its opened body."""
        m = ChannelMessage(now // 1000, nonce, device.public_key, query.encode())
        out = node.handle_envelope(seal_message(m, device.private_key, node.keypair.public_key).to_bytes(), now)
        (send,) = out.sends
        opened = open_message(SecureEnvelope.from_bytes(send.body), device.private_key, node.keypair.public_key)
        return send, opened.body

    def test_owner_reads_directly(self, keys):
        node, client, _, contract = self._prepared(keys)
        assert read_history(node.world, contract, client.public_key, 0, 10_000) == [(1000, 72), (2000, 75)]

    def test_outsider_denied_directly(self, keys):
        node, _, doctor, contract = self._prepared(keys)
        with pytest.raises(PermissionDenied):
            read_history(node.world, contract, doctor.public_key, 0, 10_000)

    def test_outsider_denied_over_the_channel(self, keys):
        node, _, doctor, contract = self._prepared(keys)
        send, body = self._ask(node, doctor, 1, Query(contract, 0, 10_000), 2 * INTERVAL)
        assert send.dst == "d1" and send.kind == REPLY
        assert QueryReplyBody.decode(body) == QueryReplyBody(1, "permission_denied", [])

    def test_query_envelope_gets_sealed_reply(self, keys):
        node, client, _, contract = self._prepared(keys)
        now = 2 * INTERVAL
        m = ChannelMessage(now // 1000, 5, client.public_key, Query(contract, 0, 10_000).encode())
        raw = seal_message(m, client.private_key, node.keypair.public_key).to_bytes()
        out = node.handle_envelope(raw, now)
        reply_sends = [s for s in out.sends if s.dst == "c1"]
        assert len(reply_sends) == 1
        assert reply_sends[0].at_us == now + node_module.QUERY_SERVICE_US
        env = SecureEnvelope.from_bytes(reply_sends[0].body)
        reply_msg = open_message(env, client.private_key, node.keypair.public_key)
        reply = QueryReplyBody.decode(reply_msg.body)
        assert reply.status == 0
        assert reply.readings == [(1000, 72), (2000, 75)]

    def test_replies_and_confirmations_to_a_device_share_one_counter(self, keys):
        node, client, _, contract = self._prepared(keys)  # the set-up block's confirmation took counter 1
        query = Query(contract, 0, 10_000)
        write = make_transaction(client, 5, T0 // 1000, Call(contract, "add_reading", encode_reading_args(3000, 70)))
        t1, t2 = INTERVAL + 1000, 2 * INTERVAL
        sends = node.handle_envelope(envelope(client, node, 5, query, t1), t1).sends
        sends += node.handle_envelope(envelope(client, node, 6, write, t1), t1).sends
        sends += node.on_timer(("propose", 2), t2).sends
        sends += node.handle_envelope(envelope(client, node, 7, query, t2), t2).sends
        to_client = [s for s in sends if s.dst == "c1"]
        assert [s.kind for s in to_client] == [REPLY, CONFIRM, REPLY]
        envelopes = [SecureEnvelope.from_bytes(s.body) for s in to_client]
        opened = [open_message(e, client.private_key, node.keypair.public_key) for e in envelopes]
        assert [m.nonce for m in opened] == [2, 3, 4]

    def test_two_nodes_same_state_identical_reply_bytes(self, keys):
        # Cross-node read consistency at an identical finalized height.
        node_a, client, _, contract = self._prepared(keys)
        node_b, _, _, _ = self._prepared(keys)
        query, now = Query(contract, 0, 10_000), 2 * INTERVAL
        (_, a), (_, b) = (self._ask(node, client, 5, query, now) for node in (node_a, node_b))
        assert a == b and QueryReplyBody.decode(a).readings == [(1000, 72), (2000, 75)]

    def test_queue_serializes_service_times(self, keys):
        node, client, _, contract = self._prepared(keys)
        now = 2 * INTERVAL
        outs = []
        for i, nonce in enumerate((5, 6)):
            m = ChannelMessage(now // 1000, nonce, client.public_key, Query(contract, 0, 10_000).encode())
            raw = seal_message(m, client.private_key, node.keypair.public_key).to_bytes()
            outs.append(node.handle_envelope(raw, now))
        first, second = (o.sends[0].at_us for o in outs)
        assert second == first + node.query_service_us


def proposal(signer, block):
    return make_message(signer, Phase.PRE_PREPARE, block.header.height, 0, hash_block(block), block)


class TestMonitoring:
    def test_invalid_block_raises_single_alert(self, keys):
        authority = keys[0]
        node = make_node([authority, keys[1]], {}, peer_ids=["n0", "n1"])
        outsider = kp("imposter")
        bad = build_block([], node.chain.tip, outsider, 999_999)
        violations = validate_block(bad, node.chain.tip, node.genesis_config.authorities)
        assert violations
        out = node.on_consensus(proposal(outsider, bad), T0)
        node.on_consensus(proposal(outsider, bad), T0 + 50)  # duplicate delivery
        (alert,) = node.alerts
        assert alert.kind == AlertKind.INVALID_BLOCK
        assert (alert.offender, alert.height) == (outsider.public_key, 1)
        assert alert.detail == ",".join(v.value for v in violations)
        assert [(s.dst, s.kind, s.body) for s in out.sends] == [(PEERS, ALERT, alert)]
        assert node.chain.height == 0 and node.engine.state.round == 0

    def test_a_zeroed_header_signature_accuses_no_authority(self, keys):
        node = make_node(keys[:3], {}, peer_ids=["n0", "n1", "n2"])
        block = build_block([], node.chain.tip, keys[2], 999_999)
        header = replace(block.header, proposer_signature=bytes(len(block.header.proposer_signature)))
        assert node.on_consensus(proposal(kp("imposter"), replace(block, header=header)), T0) is None
        assert node.alerts == []

    def test_an_authority_block_in_a_message_that_fails_its_check_accuses_no_authority(self, keys):
        node = make_node(keys[:3], {}, peer_ids=["n0", "n1", "n2"])
        first = build_block([], node.chain.tip, keys[1], 999_999)
        second = build_block([], first, keys[2], 1_000_000)
        assert validate_block(second, first, node.genesis_config.authorities) == []
        message = proposal(keys[2], second)
        assert node.on_consensus(replace(message, signature=bytes(len(message.signature))), T0) is None  # at height 0
        assert node.alerts == []

    def test_valid_block_raises_nothing(self, single):
        node, authority, _ = single
        good = build_block([], node.chain.tip, authority, 999_999)
        assert validate_block(good, node.chain.tip, node.genesis_config.authorities) == []
        # Relayed under an outsider's signature: the message is refused, the block inspected.
        assert node.on_consensus(proposal(kp("imposter"), good), T0) is None
        assert node.alerts == []
        assert node.chain.height == 0


def pump(nodes, sends, now, hold=()):
    """Deliver node-to-node sends, and what they cause, until none is left;
    returns the sends addressed to a node in `hold`, undelivered. `sends`
    are (sender id, Send) pairs; a send to PEERS goes to every other node."""
    queue, held = list(sends), []
    while queue:
        src, send = queue.pop(0)
        for dst in [n for n in nodes if n != src] if send.dst == PEERS else [send.dst]:
            if dst not in nodes:
                continue  # a device's confirmation
            if dst in hold:
                held.append((src, Send(dst, send.kind, send.body)))
                continue
            node = nodes[dst]
            handler = {CONSENSUS: node.on_consensus, GOSSIP: node.on_gossip, ALERT: node.on_alert}[send.kind]
            out = handler(send.body, now)
            queue += [(dst, more) for more in out.sends] if out is not None else []
    return held


class TestLaggingNodeOnSharedState:
    """Four nodes handed one genesis state; n3 misses block 2's messages."""

    def _run(self, keys, shared: bool) -> dict:
        authorities, client = keys[:4], keys[4]
        cfg = GenesisConfig(
            authorities=[a.public_key for a in authorities],
            initial_balances={client.public_key: 10**12},
            block_interval_ms=1000,
        )
        world = genesis_world(cfg) if shared else None
        ids = [f"n{i}" for i in range(4)]
        directory = {client.public_key: "c1"}
        nodes = {
            i: FogNode(i, a, cfg, ids, dict(directory), recorder=Log(), world=world) for i, a in zip(ids, authorities)
        }
        for node in nodes.values():
            node.initial_output()
        contract = contract_address(client.public_key, 1)
        payloads = [
            Deploy("health_record", b""),
            Call(contract, "grant", encode_permission_args(WRITE_PERMISSION, client.public_key)),
            Call(contract, "add_reading", encode_reading_args(1000, 72)),
            Call(contract, "add_reading", encode_reading_args(2000, 75)),
        ]
        txs = self.txs = [make_transaction(client, i, T0 // 1000, p) for i, p in enumerate(payloads, start=1)]

        def propose(height, now, gossip_to, hold=()):
            for tx in txs[:3] if height == 1 else txs[3:]:
                for i in gossip_to:
                    nodes[i].on_gossip(tx, now)
            (proposer,) = [n for n in nodes.values() if n.engine.is_proposer()]
            sends = proposer.on_timer(("propose", height), now).sends
            return pump(nodes, [(proposer.node_id, send) for send in sends], now, hold)

        assert propose(1, INTERVAL, ids) == []
        held = propose(2, 3 * INTERVAL, ids[:3], hold={"n3"})
        assert held and [n.chain.height for n in nodes.values()] == [2, 2, 2, 1]
        n0, n3 = nodes["n0"], nodes["n3"]
        assert (n0.world is nodes["n1"].world is nodes["n2"].world) == shared and n3.world is not n0.world

        now = 4 * INTERVAL
        channel_nonce = {"n0": 0, "n3": 0}

        def submit(node, record):
            channel_nonce[node.node_id] += 1
            return node.handle_envelope(envelope(client, node, channel_nonce[node.node_id], record, now), now)

        def read(node):
            (send,) = submit(node, Query(contract, 0, 10_000)).sends
            return open_message(SecureEnvelope.from_bytes(send.body), client.private_key, node.keypair.public_key).body

        replies = {"n0": read(n0), "n3": read(n3)}
        stale = make_transaction(client, 3, T0 // 1000 + 1, Call(contract, "add_reading", encode_reading_args(3000, 70)))
        for node in (n0, n3):
            node.on_gossip(stale, now)
            node.on_gossip(txs[2], now)  # final at both heights
            node.on_gossip(txs[3], now)  # final at n0's height only: n3 admits it
        submit(n0, txs[3])  # a fresh envelope carrying a final transaction is a replay
        submit(n3, txs[2])
        observed = {
            "replies": replies,
            "rejected": {i: rejections(n) for i, n in nodes.items()},
            "alerts": {i: n.alerts for i, n in nodes.items()},
            "mempools": {i: list(n.mempool) for i, n in nodes.items()},
            "worlds": {i: n.world.encode() for i, n in nodes.items()},
        }
        pump(nodes, held, now)  # n3 catches up
        assert n3.chain.height == 2 and n3.mempool == {}
        assert (n3.world is n0.world) == shared and n3.world.encode() == n0.world.encode()
        return observed

    def test_serves_rejects_and_alerts_at_its_own_height(self, keys):
        observed = self._run(keys, shared=True)
        client = keys[4].public_key
        assert QueryReplyBody.decode(observed["replies"]["n3"]).readings == [(1000, 72)]
        assert QueryReplyBody.decode(observed["replies"]["n0"]).readings == [(1000, 72), (2000, 75)]
        assert observed["rejected"]["n0"] == ["stale_tx_nonce", "tx_already_final", "tx_already_final", "tx_already_final"]
        assert observed["rejected"]["n3"] == ["stale_tx_nonce", "tx_already_final", "tx_already_final"]
        assert observed["mempools"] == {"n0": [], "n1": [], "n2": [], "n3": [hash_tx(self.txs[3])]}
        assert [(a.kind, a.height, a.offender) for a in observed["alerts"]["n0"]] == [(AlertKind.REPLAY_DETECTED, 2, client)]
        assert [(a.kind, a.height, a.offender) for a in observed["alerts"]["n3"]] == [(AlertKind.REPLAY_DETECTED, 1, client)]

    def test_same_as_nodes_with_states_of_their_own(self, keys):
        assert self._run(keys, shared=True) == self._run(keys, shared=False)
