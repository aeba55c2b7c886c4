import hashlib
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgelinker.chain import (
    Chain,
    GenesisConfig,
    Transfer,
    build_block,
    hash_block,
    make_genesis,
    make_transaction,
)
from edgelinker.consensus import (
    ConsensusEngine,
    ConsensusMessage,
    Phase,
    make_message,
    quorum,
    select_proposer,
    verify_message,
)
from edgelinker.channel import sign_digest
from tests.conftest import kp

NOW_MS = 1_700_000_000_000


def make_cluster(n, now_us=0):
    keys = [kp(f"auth{i}") for i in range(n)]
    cfg = GenesisConfig(authorities=[k.public_key for k in keys], block_interval_ms=1000)  # 2 s round 0
    genesis = make_genesis(cfg)
    chains = [Chain([genesis]) for _ in range(n)]
    engines = [ConsensusEngine(cfg, keys[i], height=1, now_us=now_us) for i in range(n)]
    return keys, cfg, chains, engines


class TestProposerSelection:
    def test_rotation_formula(self):
        keys, cfg, _, _ = make_cluster(4)
        assert select_proposer(0, 0, cfg.authorities) == cfg.authorities[0]
        assert select_proposer(0, 1, cfg.authorities) == cfg.authorities[1]
        assert select_proposer(5, 2, cfg.authorities) == cfg.authorities[(5 + 2) % 4]

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_fair_share_over_many_heights(self, n):
        # Counting sweep: each authority proposes 1000/n times, within one.
        _, cfg, _, _ = make_cluster(n)
        counts = {}
        for height in range(1000):
            p = select_proposer(height, 0, cfg.authorities)
            counts[p] = counts.get(p, 0) + 1
        assert all(abs(c - 1000 / n) <= 1 for c in counts.values())


class TestQuorumArithmetic:
    @settings(max_examples=20, deadline=None)
    @given(f=st.integers(0, 10))
    def test_quorum_from_f(self, f):
        n = 3 * f + 1
        keys = [kp(f"q{i}") for i in range(n)]
        engine = ConsensusEngine(GenesisConfig(authorities=[k.public_key for k in keys]), keys[0], height=1, now_us=0)
        assert engine.f == f
        assert engine.quorum == quorum(n) == 2 * f + 1
        assert quorum(n) <= n
        # Two quorums over n = 3f+1 members overlap in at least f+1 of them.
        assert 2 * quorum(n) - n >= f + 1


def test_engine_takes_proposer_order_round_timeout_and_quorum_from_the_genesis():
    keys = [kp(f"auth{i}") for i in range(4)]
    cfg = GenesisConfig(authorities=[k.public_key for k in reversed(keys)], block_interval_ms=200)
    key_of = {k.public_key: k for k in keys}
    chain = Chain([make_genesis(cfg)])
    engines = {pk: ConsensusEngine(cfg, key_of[pk], height=1, now_us=0) for pk in cfg.authorities}
    # Height 1, round 0 falls to authorities[1] in the genesis order, not in key order.
    assert [pk for pk, e in engines.items() if e.is_proposer()] == [cfg.authorities[1]] == [keys[2].public_key]

    node = engines[cfg.authorities[0]]
    assert node.timers == [(400_000, ("round", 1, 0))]  # twice the 200 ms block interval
    assert node.quorum == quorum(4) == 3

    proposer = key_of[cfg.authorities[1]]
    block = build_block([], chain.tip, proposer, NOW_MS)
    pre, _ = engines[proposer.public_key].propose(block, 0)
    out, _ = node.on_message(pre[0], chain, 0)
    assert [m.phase for m in out] == [Phase.PREPARE]  # two prepares: the proposer's and its own
    bh = hash_block(block)
    out, _ = node.on_message(make_message(key_of[cfg.authorities[2]], Phase.PREPARE, 1, 0, bh), chain, 0)
    assert [m.phase for m in out] == [Phase.COMMIT]  # the third prepare locks and commits
    _, fin = node.on_message(make_message(proposer, Phase.COMMIT, 1, 0, bh), chain, 0)
    assert fin is None  # two commits fall one short of the quorum
    _, fin = node.on_message(make_message(key_of[cfg.authorities[2]], Phase.COMMIT, 1, 0, bh), chain, 0)
    assert hash_block(fin) == bh

    late = engines[cfg.authorities[3]]
    late.on_timeout(400_000)
    assert late.round == 1 and late.timers[-1] == (400_000 + 800_000, ("round", 1, 1))
    assert select_proposer(1, 1, cfg.authorities) == cfg.authorities[2]


def test_message_signing_and_wire_roundtrip():
    keys, cfg, chains, _ = make_cluster(4)
    block = build_block([], chains[0].tip, keys[1], NOW_MS)
    msg = make_message(keys[1], Phase.PRE_PREPARE, 1, 0, hash_block(block), block)
    assert verify_message(msg, cfg.authorities)
    assert ConsensusMessage.decode(msg.encode()) == msg
    outsider = make_message(kp("outsider"), Phase.PREPARE, 1, 0, bytes(32))
    assert not verify_message(outsider, cfg.authorities)
    assert not verify_message(replace(msg, round=9), cfg.authorities)  # changed after signing


def test_pre_prepare_with_transactions_roundtrips():
    keys, cfg, chains, _ = make_cluster(4)
    sender = kp("client")
    txs = [make_transaction(sender, n, NOW_MS + n, Transfer(to=bytes(32), amount=n)) for n in (1, 2, 3)]
    block = build_block(txs, chains[0].tip, keys[1], NOW_MS)
    assert len(block.transactions) == 3
    msg = make_message(keys[1], Phase.PRE_PREPARE, 1, 0, hash_block(block), block)
    again = ConsensusMessage.decode(msg.encode())
    assert again == msg
    assert hash_block(again.block) == hash_block(block) == again.block_hash
    assert hashlib.sha256(again.signing_bytes()).digest() == hashlib.sha256(msg.signing_bytes()).digest()
    assert again.encode() == msg.encode()
    assert verify_message(again, cfg.authorities)


def deliver_all(engines, chains, msgs, now_us, skip=()):
    """Fan each message out to every other engine, collecting finals."""
    finals = {}
    queue = list(msgs)
    origin = {id(m): None for m in msgs}
    while queue:
        msg = queue.pop(0)
        for i, engine in enumerate(engines):
            if i in skip or engine.keypair.public_key == msg.sender:
                continue
            out, fin = engine.on_message(msg, chains[i], now_us)
            queue.extend(out)
            if fin is not None and i not in finals:
                finals[i] = fin
    return finals


class TestHappyPath:
    def test_four_node_exchange_finalizes(self):
        keys, cfg, chains, engines = make_cluster(4)
        proposer_idx = 1  # select_proposer(1, 0) = authorities[1]
        assert select_proposer(1, 0, cfg.authorities) == keys[proposer_idx].public_key
        block = build_block([], chains[proposer_idx].tip, keys[proposer_idx], NOW_MS)
        out, fin = engines[proposer_idx].propose(block, 0)
        assert fin is None and len(out) == 1 and out[0].phase == Phase.PRE_PREPARE
        finals = deliver_all(engines, chains, out, 0)
        assert set(finals) >= {0, 2, 3}
        assert all(hash_block(b) == hash_block(block) for b in finals.values())

    def test_single_node_finalizes_instantly(self):
        keys, cfg, chains, engines = make_cluster(1)
        block = build_block([], chains[0].tip, keys[0], NOW_MS)
        out, fin = engines[0].propose(block, 0)
        assert fin is not None and hash_block(fin) == hash_block(block)

    def test_invalid_proposal_gets_no_prepare(self):
        keys, cfg, chains, engines = make_cluster(4)
        block = build_block([], chains[1].tip, keys[1], NOW_MS)
        header = replace(block.header, tx_root=bytes(32))  # corrupt, then sign again
        header = replace(
            header, proposer_signature=sign_digest(keys[1].private_key, hashlib.sha256(header.signing_bytes()).digest())
        )
        block = replace(block, header=header)
        msg = make_message(keys[1], Phase.PRE_PREPARE, 1, 0, hash_block(block), block)
        out, fin = engines[0].on_message(msg, chains[0], 0)
        assert out == [] and fin is None
        assert len(engines[0].incidents) == 1
        assert engines[0].incidents[0].kind == "invalid_proposal"

    def test_a_block_over_the_genesis_cap_gets_no_prepare(self):
        keys, client = [kp(f"auth{i}") for i in range(4)], kp("capped client")
        cfg = GenesisConfig(
            authorities=[k.public_key for k in keys], initial_balances={client.public_key: 10**12}, max_txs=10
        )
        chain = Chain([make_genesis(cfg)])
        engine = ConsensusEngine(cfg, keys[0], height=1, now_us=0)
        txs = [make_transaction(client, i, NOW_MS, Transfer(to=keys[0].public_key, amount=1)) for i in range(1, 12)]
        block = build_block(txs, chain.tip, keys[1], NOW_MS, max_txs=11)  # a proposer that ignores the cap
        out, fin = engine.on_message(make_message(keys[1], Phase.PRE_PREPARE, 1, 0, hash_block(block), block), chain, 0)
        assert out == [] and fin is None
        assert [(i.kind, i.detail) for i in engine.incidents] == [("invalid_proposal", "too_many_txs")]

    def test_wrong_proposer_rejected(self):
        keys, cfg, chains, engines = make_cluster(4)
        block = build_block([], chains[2].tip, keys[2], NOW_MS)
        msg = make_message(keys[2], Phase.PRE_PREPARE, 1, 0, hash_block(block), block)
        out, _ = engines[0].on_message(msg, chains[0], 0)
        assert out == []
        assert engines[0].incidents[0].kind == "invalid_proposal"


class TestEquivocation:
    def test_second_conflicting_prepare_ignored(self):
        keys, cfg, chains, engines = make_cluster(4)
        h1, h2 = b"\x01" * 32, b"\x02" * 32
        engines[0].on_message(make_message(keys[2], Phase.PREPARE, 1, 0, h1), chains[0], 0)
        engines[0].on_message(make_message(keys[2], Phase.PREPARE, 1, 0, h2), chains[0], 0)
        assert engines[0].state.prepare_votes[(0, h1)] == {keys[2].public_key}
        assert (0, h2) not in engines[0].state.prepare_votes
        assert engines[0].incidents[0].kind == "equivocation"

    def test_duplicate_identical_vote_is_noop(self):
        keys, cfg, chains, engines = make_cluster(4)
        h1 = b"\x01" * 32
        for _ in range(3):
            engines[0].on_message(make_message(keys[2], Phase.PREPARE, 1, 0, h1), chains[0], 0)
        assert engines[0].state.prepare_votes[(0, h1)] == {keys[2].public_key}
        assert engines[0].incidents == []


class TestRoundChange:
    def test_timeout_advances_round_and_broadcasts(self):
        keys, cfg, chains, engines = make_cluster(4)
        engine = engines[0]
        out, fin = engine.on_timeout(2_000_000)
        assert fin is None
        assert engine.round == 1
        assert [m.phase for m in out] == [Phase.ROUND_CHANGE]
        assert out[0].round == 1 and out[0].block_hash == bytes(32)

    def test_deadlines_double_each_round(self):
        keys, cfg, chains, engines = make_cluster(4)
        engine = engines[0]
        engine.on_timeout(2_000_000)
        first = engine.timers[-1][0] - 2_000_000
        engine.on_timeout(engine.timers[-1][0])
        second = engine.timers[-1][0] - (2_000_000 + first)
        assert second == 2 * first == 2 * (2 * engine.round_timeout_us)

    def test_round_change_quorum_gates_new_proposal(self):
        keys, cfg, chains, engines = make_cluster(4)
        # After round 0 times out, authorities[(1+1) % 4] = keys[2] leads round 1.
        engine = engines[2]
        engine.on_timeout(2_000_000)
        assert engine.round == 1
        assert not engine.wants_proposal()  # own vote only
        engine.on_message(make_message(keys[0], Phase.ROUND_CHANGE, 1, 1, bytes(32)), chains[2], 2_100_000)
        assert not engine.wants_proposal()
        engine.on_message(make_message(keys[1], Phase.ROUND_CHANGE, 1, 1, bytes(32)), chains[2], 2_200_000)
        assert engine.wants_proposal()

    def test_reproposal_carries_locked_block(self):
        keys, cfg, chains, engines = make_cluster(4)
        proposer = engines[1]
        block = build_block([], chains[1].tip, keys[1], NOW_MS)
        out, _ = proposer.propose(block, 0)
        locked_target = engines[0]
        locked_target.on_message(out[0], chains[0], 0)
        for voter in (2, 3):
            locked_target.on_message(
                make_message(keys[voter], Phase.PREPARE, 1, 0, hash_block(block)), chains[0], 0
            )
        assert locked_target.state.locked_block is not None
        # Round changes until node 0 leads; its re-proposal must carry the lock.
        locked_target.on_timeout(2_000_000)
        locked_target.on_timeout(4_000_000)
        locked_target.on_timeout(8_000_000)
        assert locked_target.round == 3
        assert select_proposer(1, 3, cfg.authorities) == keys[0].public_key
        fresh = build_block([], chains[0].tip, keys[0], NOW_MS + 9999)
        out, _ = locked_target.propose(fresh, 9_000_000)
        pre = [m for m in out if m.phase == Phase.PRE_PREPARE][0]
        assert pre.block_hash == hash_block(block)

    def test_round_change_carries_locked_hash(self):
        keys, cfg, chains, engines = make_cluster(4)
        proposer = engines[1]
        block = build_block([], chains[1].tip, keys[1], NOW_MS)
        out, _ = proposer.propose(block, 0)
        node = engines[0]
        node.on_message(out[0], chains[0], 0)
        for voter in (2, 3):
            node.on_message(make_message(keys[voter], Phase.PREPARE, 1, 0, hash_block(block)), chains[0], 0)
        out, _ = node.on_timeout(2_000_000)
        rc = [m for m in out if m.phase == Phase.ROUND_CHANGE][0]
        assert rc.block_hash == hash_block(block)


class TestCrashRecovery:
    def test_height_finalizes_after_proposer_crash(self):
        # n=4, f=1: round-0 proposer never shows up; round 1 must finalize.
        keys, cfg, chains, engines = make_cluster(4)
        crashed = 1  # proposer for (height 1, round 0)
        live = [0, 2, 3]
        t = 2_000_000
        msgs = []
        for i in live:
            out, _ = engines[i].on_timeout(t)
            msgs.extend(out)
        finals = deliver_all(engines, chains, msgs, t, skip=(crashed,))
        # Round-change quorum reached; round-1 leader is authorities[2].
        leader = 2
        assert select_proposer(1, 1, cfg.authorities) == keys[leader].public_key
        assert engines[leader].wants_proposal()
        block = build_block([], chains[leader].tip, keys[leader], NOW_MS)
        out, fin = engines[leader].propose(block, t + 1000)
        finals = deliver_all(engines, chains, out, t + 1000, skip=(crashed,))
        assert {0, 3} <= set(finals)
        from edgelinker.chain import hash_block

        assert all(hash_block(b) == hash_block(block) for b in finals.values())
        assert engines[leader].state.finalized


def test_future_height_messages_buffer_and_replay():
    keys, cfg, chains, engines = make_cluster(4)
    node = engines[0]
    # Height-2 prepare arrives while the node is still at height 1.
    early = make_message(keys[2], Phase.PREPARE, 2, 0, b"\x09" * 32)
    out, fin = node.on_message(early, chains[0], 0)
    assert out == [] and fin is None
    replayed = node.start_height(2, 10)
    assert replayed == [early]
