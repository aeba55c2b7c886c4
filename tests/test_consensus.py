import copy
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
from edgelinker.node import ALERT, CONSENSUS, PEERS, AlertKind, FogNode
from tests.conftest import kp

NOW_MS = 1_700_000_000_000


def make_cluster(n, now_us=0, engine_class=ConsensusEngine):
    keys = [kp(f"auth{i}") for i in range(n)]
    cfg = GenesisConfig(authorities=[k.public_key for k in keys], block_interval_ms=1000)  # 2 s round 0
    genesis = make_genesis(cfg)
    chains = [Chain([genesis]) for _ in range(n)]
    engines = [engine_class(cfg, keys[i], height=1, now_us=now_us) for i in range(n)]
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


class WatchedEngine(ConsensusEngine):
    """An engine that notes whether its last input reached _check_progress."""

    checked = False

    def _check_progress(self, out, now_us):
        self.checked = True
        return super()._check_progress(out, now_us)


VOTES = (Phase.PREPARE, Phase.COMMIT)


def drive_lossy(n, choose):
    """Runs n watched engines over the schedule `choose(label, lo, hi)` picks
    (each pick an int in [lo, hi]): one engine times out, or a pending message
    is lost, delivered, or delivered after a conflicting vote by its sender.
    After every message for an engine's own height that skipped
    _check_progress, checks that running it on a copy would have sent,
    finalized and changed nothing. Returns the count of such messages, and
    the height every engine finalized."""
    keys, cfg, chains, engines = make_cluster(n, engine_class=WatchedEngine)
    by_key = {k.public_key: k for k in keys}
    pending = []  # (receiving engine, message), in sending order
    skipped = 0

    def broadcast(i, msgs):
        pending.extend((j, msg) for msg in msgs for j in range(n) if j != i)

    def deliver(i, msg, now):
        nonlocal skipped
        engine = engines[i]
        engine.checked, height = False, engine.height
        out, fin = engine.on_message(msg, chains[i], now)
        if not engine.checked and msg.height == height:
            skipped += 1
            assert out == [] and fin is None
            twin, more = copy.deepcopy(engine), []
            assert twin._check_progress(more, now) is None and more == []
            assert (twin.state, twin.incidents, twin.timers) == (engine.state, engine.incidents, engine.timers)
        return out, fin

    def settle(i, out, fin, now):
        """What a node does with the engine's output: send it, finalize, replay, propose when due."""
        broadcast(i, out)
        while fin is not None:
            chains[i].blocks.append(fin)
            replayed, fin = engines[i].start_height(fin.header.height + 1, now), None
            for msg in replayed:
                more, reached = deliver(i, msg, now)
                broadcast(i, more)
                fin = fin or reached
        engine = engines[i]
        if engine.wants_proposal():
            block = build_block([], chains[i].tip, keys[i], NOW_MS + now // 1000)
            settle(i, *engine.propose(block, now), now)

    now = 0
    for i in range(n):
        settle(i, [], None, now)
    for _step in range(choose("steps", 30, 150)):
        now += 1000
        action = choose("action", 0, 15)
        if action == 0 or not pending:  # a round deadline passes at one engine
            i = choose("timeout at", 0, n - 1)
            settle(i, *engines[i].on_timeout(now), now)
            continue
        dst, msg = pending.pop(choose("delivered", 0, len(pending) - 1))
        if action == 1:  # lost
            continue
        if action == 2 and msg.phase in VOTES:  # its sender votes both ways
            forged = make_message(by_key[msg.sender], msg.phase, msg.height, msg.round, bytes(32))
            settle(dst, *deliver(dst, forged, now), now)
        settle(dst, *deliver(dst, msg, now), now)
    # No two engines finalized different blocks at one height.
    finalized = min(chain.height for chain in chains)
    for height in range(1, finalized + 1):
        assert len({hash_block(chain.blocks[height]) for chain in chains}) == 1
    return skipped, finalized


class TestEarlyExit:
    """`on_message` skips `_check_progress` only where the engine is already at its fixpoint."""

    @pytest.mark.parametrize("n", [4, 7])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_a_skipped_check_would_have_done_nothing(self, n, data):
        drive_lossy(n, lambda label, lo, hi: data.draw(st.integers(lo, hi), label=label))

    @pytest.mark.parametrize("n", [4, 7])
    def test_in_order_delivery_skips_the_check_at_every_engine_and_height(self, n):
        # 150 messages delivered in sending order, none lost and no deadline passing:
        # at each height, the first commit an engine hears leaves it below quorum.
        picks = {"steps": 150, "action": 3, "timeout at": 0, "delivered": 0}
        skipped, finalized = drive_lossy(n, lambda label, lo, hi: picks[label])
        assert finalized > 0 and skipped >= n * finalized

    def test_the_input_that_moves_the_lock_sends_the_prepare_it_enables(self):
        keys, cfg, chains, engines = make_cluster(4)
        engine, chain = engines[0], chains[0]
        block_a = build_block([], chain.tip, keys[1], NOW_MS)  # the round-0 proposer is authorities[1]
        a = hash_block(block_a)
        engine.on_message(make_message(keys[1], Phase.PRE_PREPARE, 1, 0, a, block_a), chain, 0)
        out, _ = engine.on_message(make_message(keys[2], Phase.PREPARE, 1, 0, a), chain, 0)
        assert [m.phase for m in out] == [Phase.COMMIT] and engine.state.locked_block == block_a
        engine.on_timeout(2_000_000)
        block_b = build_block([], chain.tip, keys[2], NOW_MS + 1)  # the round-1 proposer is authorities[2]
        b = hash_block(block_b)
        out, _ = engine.on_message(make_message(keys[2], Phase.PRE_PREPARE, 1, 1, b, block_b), chain, 2_000_000)
        assert out == []  # locked on A, so no prepare of B
        out, _ = engine.on_message(make_message(keys[1], Phase.PREPARE, 1, 1, b), chain, 2_000_000)
        assert out == []
        # With the proposer's, this completes a quorum of prepares for B: the node
        # commits B, which moves its lock to B, and so prepares B as well.
        out, fin = engine.on_message(make_message(keys[3], Phase.PREPARE, 1, 1, b), chain, 2_000_000)
        assert [(m.phase, m.round, m.block_hash) for m in out] == [(Phase.COMMIT, 1, b), (Phase.PREPARE, 1, b)]
        assert engine.state.locked_block == block_b and fin is None
        out, fin = engine.on_message(make_message(keys[1], Phase.COMMIT, 1, 1, b), chain, 2_000_000)
        assert out == [] and fin is None


class TestNodeEarlyExit:
    """`FogNode.on_consensus` returns None where a vote changes nothing the loop sees."""

    @pytest.fixture
    def cluster(self):
        keys = [kp(f"auth{i}") for i in range(4)]
        cfg = GenesisConfig(authorities=[k.public_key for k in keys], block_interval_ms=1000)
        node = FogNode("n0", keys[0], cfg, [f"n{i}" for i in range(4)], {})
        node.initial_output()
        block = build_block([], node.chain.tip, keys[1], NOW_MS)  # height-1 proposer is authorities[1]
        return node, keys, block

    def test_a_vote_below_quorum_returns_none(self, cluster):
        node, keys, block = cluster
        assert node.on_consensus(make_message(keys[2], Phase.PREPARE, 1, 0, hash_block(block)), 0) is None
        assert node.on_consensus(make_message(keys[2], Phase.COMMIT, 1, 0, hash_block(block)), 0) is None
        assert node.chain.height == 0

    def test_the_prepare_and_commit_that_complete_a_quorum_commit_and_finalize(self, cluster):
        node, keys, block = cluster
        bh = hash_block(block)
        out = node.on_consensus(make_message(keys[1], Phase.PRE_PREPARE, 1, 0, bh, block), 0)
        assert [(s.dst, s.kind, s.body.phase) for s in out.sends] == [(PEERS, CONSENSUS, Phase.PREPARE)]
        # The proposer's pre-prepare and n0's own prepare make two of the three votes.
        out = node.on_consensus(make_message(keys[2], Phase.PREPARE, 1, 0, bh), 0)
        assert [(s.dst, s.kind, s.body.phase, s.body.block_hash) for s in out.sends] == [
            (PEERS, CONSENSUS, Phase.COMMIT, bh)
        ]
        assert node.on_consensus(make_message(keys[3], Phase.PREPARE, 1, 0, bh), 0) is None  # past quorum
        assert node.on_consensus(make_message(keys[2], Phase.COMMIT, 1, 0, bh), 0) is None  # two of three
        out = node.on_consensus(make_message(keys[3], Phase.COMMIT, 1, 0, bh), 0)
        assert out is not None
        assert node.chain.height == 1 and hash_block(node.chain.tip) == bh
        assert node.engine.height == 2
        # A vote for the finalized height changes nothing.
        assert node.on_consensus(make_message(keys[1], Phase.COMMIT, 1, 0, bh), 0) is None
        assert node.chain.height == 1 and node.engine.height == 2

    def test_a_double_vote_raises_one_equivocation_alert(self, cluster):
        node, keys, block = cluster
        assert node.on_consensus(make_message(keys[2], Phase.PREPARE, 1, 0, hash_block(block)), 0) is None
        out = node.on_consensus(make_message(keys[2], Phase.PREPARE, 1, 0, bytes(32)), 0)
        alerts = [s.body for s in out.sends if s.kind == ALERT]
        assert [(a.kind, a.offender) for a in alerts] == [(AlertKind.EQUIVOCATION, keys[2].public_key)]
        again = node.on_consensus(make_message(keys[2], Phase.PREPARE, 1, 0, b"\x07" * 32), 0)
        assert again is None or not again.sends
        assert [a.kind for a in node.alerts] == [AlertKind.EQUIVOCATION]
