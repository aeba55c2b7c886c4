import copy
import hashlib
from collections import deque
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
    validate_block,
)
from edgelinker.consensus import (
    NOTHING,
    ZERO_HASH,
    AlertKind,
    ConsensusEngine,
    ConsensusMessage,
    EngineStep,
    Phase,
    make_message,
    quorum,
    select_proposer,
    verify_message,
)
from edgelinker.channel import sign_digest
from edgelinker.node import ALERT, CONSENSUS, PEERS, FogNode
from tests.conftest import kp

NOW_MS = 1_700_000_000_000


def make_cluster(n, now_us=0, engine_class=ConsensusEngine):
    keys = [kp(f"auth{i}") for i in range(n)]
    cfg = GenesisConfig(authorities=[k.public_key for k in keys], block_interval_ms=1000)  # 2 s round 0
    genesis = make_genesis()
    chains = [Chain([genesis]) for _ in range(n)]
    engines = [engine_class(cfg, keys[i]) for i in range(n)]
    for engine, chain in zip(engines, chains):
        engine.start_height(1, chain, now_us)
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
        engine = ConsensusEngine(GenesisConfig(authorities=[k.public_key for k in keys]), keys[0])
        assert engine.f == f
        assert engine.quorum == quorum(n) == 2 * f + 1
        assert quorum(n) <= n
        # Two quorums over n = 3f+1 members overlap in at least f+1 of them.
        assert 2 * quorum(n) - n >= f + 1


def test_engine_takes_proposer_order_round_timeout_and_quorum_from_the_genesis():
    keys = [kp(f"auth{i}") for i in range(4)]
    cfg = GenesisConfig(authorities=[k.public_key for k in reversed(keys)], block_interval_ms=200)
    key_of = {k.public_key: k for k in keys}
    chain = Chain([make_genesis()])
    engines = {pk: ConsensusEngine(cfg, key_of[pk]) for pk in cfg.authorities}
    starts = {pk: engine.start_height(1, chain, 0) for pk, engine in engines.items()}
    # Height 1, round 0 falls to authorities[1] in the genesis order, not in key order.
    assert [pk for pk, e in engines.items() if e.is_proposer()] == [cfg.authorities[1]] == [keys[2].public_key]

    node = engines[cfg.authorities[0]]
    assert starts[cfg.authorities[0]].timers == [(400_000, ("round", 1, 0))]  # twice the 200 ms block interval
    assert node.quorum == quorum(4) == 3

    proposer = key_of[cfg.authorities[1]]
    block = build_block([], chain.tip, proposer, NOW_MS, cfg)
    pre = engines[proposer.public_key].propose(block, 0).messages
    out = node.on_message(pre[0], chain, 0).messages
    assert [m.phase for m in out] == [Phase.PREPARE]  # two prepares: the proposer's and its own
    bh = hash_block(block)
    out = node.on_message(make_message(key_of[cfg.authorities[2]], Phase.PREPARE, 1, 0, bh), chain, 0).messages
    assert [m.phase for m in out] == [Phase.COMMIT]  # the third prepare locks and commits
    fin = node.on_message(make_message(proposer, Phase.COMMIT, 1, 0, bh), chain, 0).finalized
    assert fin is None  # two commits fall one short of the quorum
    fin = node.on_message(make_message(key_of[cfg.authorities[2]], Phase.COMMIT, 1, 0, bh), chain, 0).finalized
    assert hash_block(fin) == bh

    late = engines[cfg.authorities[3]]
    step = late.on_timeout(400_000)
    assert late.state.round == 1 and step.timers == [(400_000 + 800_000, ("round", 1, 1))]
    assert select_proposer(1, 1, cfg.authorities) == cfg.authorities[2]


class TestEngineStep:
    """Every entry point returns one EngineStep, and the engine keeps none of what it hands out."""

    def test_a_fresh_engine_arms_nothing_until_height_one_starts(self):
        keys = [kp(f"auth{i}") for i in range(4)]
        cfg = GenesisConfig(authorities=[k.public_key for k in keys], block_interval_ms=1000)  # 2 s round 0
        chain = Chain([make_genesis()])
        engines = [ConsensusEngine(cfg, k) for k in keys]
        vote = make_message(keys[2], Phase.PREPARE, 1, 0, b"\x01" * 32)
        assert not engines[0].on_message(vote, chain, 0)
        assert not engines[0].on_timeout(2_000_000)
        assert not engines[1].propose(build_block([], chain.tip, keys[1], NOW_MS, cfg), 0)
        assert not any(engine.wants_proposal() for engine in engines)
        steps = [engine.start_height(1, chain, 5) for engine in engines]
        # authorities[1] is height 1's round-0 proposer, so it alone is woken to propose.
        deadline = (5 + 2_000_000, ("round", 1, 0))
        assert [step.timers for step in steps] == [
            [deadline],
            [(5 + 1_000_000, ("propose", 1)), deadline],
            [deadline],
            [deadline],
        ]
        # The vote heard before height 1 began was buffered, and counts now.
        assert engines[0].state.votes == {(Phase.PREPARE, 0, b"\x01" * 32): {keys[2].public_key}}

    def test_a_steps_timers_and_alerts_are_handed_out_once(self):
        keys, cfg, chains, engines = make_cluster(4)
        engine, chain = engines[0], chains[0]
        h1, h2 = b"\x01" * 32, b"\x02" * 32
        timeout = engine.on_timeout(2_000_000)
        assert timeout.timers == [(2_000_000 + 4_000_000, ("round", 1, 1))]
        engine.on_message(make_message(keys[2], Phase.PREPARE, 1, 1, h1), chain, 2_000_000)
        double = engine.on_message(make_message(keys[2], Phase.PREPARE, 1, 1, h2), chain, 2_000_000)
        assert double.timers == [] and [(a.kind, a.offender, a.sim_time_us) for a in double.alerts] == [
            (AlertKind.EQUIVOCATION, keys[2].public_key, 2_000_000)
        ]
        after = engine.on_message(make_message(keys[3], Phase.PREPARE, 1, 1, h1), chain, 2_000_001)
        assert not after and not engine.on_timeout(2_000_002).alerts

    def test_on_timer_answers_nothing_for_a_wake_the_engine_has_left(self):
        keys, cfg, chains, engines = make_cluster(4)
        proposer = engines[1]  # height 1's round-0 proposer
        assert proposer.on_timer(("round", 1, 0), 2_000_000).messages  # round 0's deadline: a round change
        assert proposer.state.round == 1
        assert proposer.on_timer(("round", 1, 0), 2_000_001) is NOTHING
        assert proposer.on_timer(("propose", 1), 2_000_001) is NOTHING  # round 0 is over
        assert proposer.on_timer(("round", 0, 0), 2_000_001) is NOTHING  # an earlier height
        assert proposer.state.round == 1

    def test_the_propose_wake_asks_the_round_zero_proposer_for_a_block(self):
        keys, cfg, chains, engines = make_cluster(4)
        step = engines[1].on_timer(("propose", 1), 1_000_000)
        assert step.propose_round == 0 and not step.messages and not step.timers
        assert engines[0].on_timer(("propose", 1), 1_000_000) is NOTHING  # not the proposer

    def test_a_round_change_quorum_asks_round_r_proposer_for_a_block(self):
        keys, cfg, chains, engines = make_cluster(4)
        engine, chain = engines[2], chains[2]  # round 1's proposer at height 1
        assert engine.on_timer(("round", 1, 0), 2_000_000).propose_round is None  # its own round change only
        step = engine.on_message(make_message(keys[0], Phase.ROUND_CHANGE, 1, 1), chain, 2_100_000)
        assert step.propose_round is None
        step = engine.on_message(make_message(keys[1], Phase.ROUND_CHANGE, 1, 1), chain, 2_200_000)
        assert step.propose_round == 1
        # Round 1's non-proposers are asked for nothing by the same quorum.
        other = engines[3]
        other.on_timeout(2_000_000)
        for sender in (0, 1):
            step = other.on_message(make_message(keys[sender], Phase.ROUND_CHANGE, 1, 1), chains[3], 2_200_000)
            assert step.propose_round is None

    def test_no_step_asks_again_after_propose(self):
        keys, cfg, chains, engines = make_cluster(4)
        proposer, chain = engines[1], chains[1]
        assert proposer.on_timer(("propose", 1), 1_000_000).propose_round == 0
        step = proposer.propose(build_block([], chain.tip, keys[1], NOW_MS, cfg), 1_000_000)
        assert step.propose_round is None
        assert proposer.on_timer(("propose", 1), 1_000_001) is NOTHING
        # Round 1, after its round-change quorum and its proposal.
        leader, chain = engines[2], chains[2]
        leader.on_timeout(2_000_000)
        leader.on_message(make_message(keys[0], Phase.ROUND_CHANGE, 1, 1), chain, 2_000_000)
        assert leader.on_message(make_message(keys[1], Phase.ROUND_CHANGE, 1, 1), chain, 2_000_000).propose_round == 1
        assert leader.propose(build_block([], chain.tip, keys[2], NOW_MS, cfg), 2_000_000).propose_round is None
        late_vote = make_message(keys[3], Phase.ROUND_CHANGE, 1, 1)
        assert leader.on_message(late_vote, chain, 2_000_001).propose_round is None

    def test_the_engine_alerts_on_an_outsider_signed_proposal_and_ignores_a_zeroed_signature_one(self):
        keys, cfg, chains, engines = make_cluster(4)
        engine, chain = engines[0], chains[0]
        outsider = kp("imposter")
        block = build_block([], chain.tip, outsider, NOW_MS, replace(cfg, authorities=[outsider.public_key]))
        violations = validate_block(block, chain.tip, cfg)
        assert violations
        step = engine.on_message(make_message(outsider, Phase.PRE_PREPARE, 1, 0, hash_block(block), block), chain, 7)
        assert not step.messages and not step.timers and step.finalized is None
        assert [(a.kind, a.offender, a.height, a.detail, a.sim_time_us) for a in step.alerts] == [
            (AlertKind.INVALID_BLOCK, outsider.public_key, 1, ",".join(v.value for v in violations), 7)
        ]
        header = replace(block.header, proposer_signature=bytes(len(block.header.proposer_signature)))
        zeroed = replace(block, header=header)
        unsigned = make_message(outsider, Phase.PRE_PREPARE, 1, 0, hash_block(zeroed), zeroed)
        assert engine.on_message(unsigned, chain, 7) is NOTHING
        assert engine.state.proposals == {} and engine.state.votes == {} and engine.state.cast == {}


def test_message_signing_and_wire_roundtrip():
    keys, cfg, chains, _ = make_cluster(4)
    block = build_block([], chains[0].tip, keys[1], NOW_MS, cfg)
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
    block = build_block(txs, chains[0].tip, keys[1], NOW_MS, cfg)
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
            step = engine.on_message(msg, chains[i], now_us)
            queue.extend(step.messages)
            if step.finalized is not None and i not in finals:
                finals[i] = step.finalized
    return finals


class TestHappyPath:
    def test_four_node_exchange_finalizes(self):
        keys, cfg, chains, engines = make_cluster(4)
        proposer_idx = 1  # select_proposer(1, 0) = authorities[1]
        assert select_proposer(1, 0, cfg.authorities) == keys[proposer_idx].public_key
        block = build_block([], chains[proposer_idx].tip, keys[proposer_idx], NOW_MS, cfg)
        step = engines[proposer_idx].propose(block, 0)
        out = step.messages
        assert step.finalized is None and len(out) == 1 and out[0].phase == Phase.PRE_PREPARE
        finals = deliver_all(engines, chains, out, 0)
        assert set(finals) >= {0, 2, 3}
        assert all(hash_block(b) == hash_block(block) for b in finals.values())

    def test_single_node_finalizes_instantly(self):
        keys, cfg, chains, engines = make_cluster(1)
        block = build_block([], chains[0].tip, keys[0], NOW_MS, cfg)
        fin = engines[0].propose(block, 0).finalized
        assert fin is not None and hash_block(fin) == hash_block(block)

    def test_invalid_proposal_gets_no_prepare(self):
        keys, cfg, chains, engines = make_cluster(4)
        block = build_block([], chains[1].tip, keys[1], NOW_MS, cfg)
        header = replace(block.header, tx_root=bytes(32))  # corrupt, then sign again
        header = replace(
            header, proposer_signature=sign_digest(keys[1].private_key, hashlib.sha256(header.signing_bytes()).digest())
        )
        block = replace(block, header=header)
        msg = make_message(keys[1], Phase.PRE_PREPARE, 1, 0, hash_block(block), block)
        step = engines[0].on_message(msg, chains[0], 0)
        assert step.messages == [] and step.finalized is None
        assert len(step.alerts) == 1
        assert (step.alerts[0].kind, step.alerts[0].offender) == (
            AlertKind.INVALID_BLOCK,
            keys[1].public_key,
        )

    def test_a_block_over_the_genesis_cap_gets_no_prepare(self):
        keys, client = [kp(f"auth{i}") for i in range(4)], kp("capped client")
        cfg = GenesisConfig(
            authorities=[k.public_key for k in keys], initial_balances={client.public_key: 10**12}, max_txs=10
        )
        chain = Chain([make_genesis()])
        engine = ConsensusEngine(cfg, keys[0])
        engine.start_height(1, chain, 0)
        txs = [make_transaction(client, i, NOW_MS, Transfer(to=keys[0].public_key, amount=1)) for i in range(1, 12)]
        # A proposer that ignores the cap builds under a genesis that allows one more.
        block = build_block(txs, chain.tip, keys[1], NOW_MS, replace(cfg, max_txs=11))
        step = engine.on_message(make_message(keys[1], Phase.PRE_PREPARE, 1, 0, hash_block(block), block), chain, 0)
        assert step.messages == [] and step.finalized is None
        assert [(a.kind, a.offender, a.detail) for a in step.alerts] == [
            (AlertKind.INVALID_BLOCK, keys[1].public_key, "too_many_txs")
        ]

    def test_wrong_proposer_rejected(self):
        keys, cfg, chains, engines = make_cluster(4)
        block = build_block([], chains[2].tip, keys[2], NOW_MS, cfg)
        msg = make_message(keys[2], Phase.PRE_PREPARE, 1, 0, hash_block(block), block)
        step = engines[0].on_message(msg, chains[0], 0)
        assert step.messages == []
        assert (step.alerts[0].kind, step.alerts[0].offender) == (
            AlertKind.INVALID_BLOCK,
            keys[2].public_key,
        )

    def test_an_invalid_proposal_names_its_signer(self):
        # The round-0 proposer relays another authority's block: it signed the
        # message, so it is named, not the block's proposer.
        keys, cfg, chains, engines = make_cluster(4)
        block = build_block([], chains[2].tip, keys[2], NOW_MS, cfg)
        step = engines[0].on_message(make_message(keys[1], Phase.PRE_PREPARE, 1, 0, bytes(32), block), chains[0], 0)
        assert [(a.kind, a.offender, a.detail) for a in step.alerts] == [
            (AlertKind.INVALID_BLOCK, keys[1].public_key, "proposal hash mismatch")
        ]
        # A proposal with no block names its sender.
        step = engines[3].on_message(make_message(keys[1], Phase.PRE_PREPARE, 1, 0), chains[3], 0)
        assert [(a.kind, a.offender) for a in step.alerts] == [(AlertKind.INVALID_BLOCK, keys[1].public_key)]

    def test_a_wrapped_block_names_the_wrapper_not_its_proposer(self):
        # a3 wraps a1's real height-1 block in a round-0 pre-prepare it signs itself.
        keys, cfg, chains, engines = make_cluster(4)
        block = build_block([], chains[1].tip, keys[1], NOW_MS, cfg)  # a1 is height 1's round-0 proposer
        wrapped = make_message(keys[3], Phase.PRE_PREPARE, 1, 0, hash_block(block), block)
        step = engines[0].on_message(wrapped, chains[0], 0)
        assert step.messages == [] and step.finalized is None
        assert [(a.kind, a.offender, a.detail) for a in step.alerts] == [
            (AlertKind.INVALID_BLOCK, keys[3].public_key, "not the proposer for this round")
        ]

    def test_a_round_zero_proposer_proposing_another_authoritys_block_is_named(self):
        # a1, height 1's round-0 proposer, sends a2's real, validly signed height-1
        # block in its own pre-prepare: a1 signed the message, so a1 is named.
        keys, cfg, chains, engines = make_cluster(4)
        block = build_block([], chains[2].tip, keys[2], NOW_MS, cfg)
        borrowed = make_message(keys[1], Phase.PRE_PREPARE, 1, 0, hash_block(block), block)
        step = engines[0].on_message(borrowed, chains[0], 0)
        assert step.messages == [] and step.finalized is None
        assert [(a.kind, a.offender, a.height, a.detail) for a in step.alerts] == [
            (AlertKind.INVALID_BLOCK, keys[1].public_key, 1, "block built by another authority")
        ]
        assert engines[0].state.proposals == {}

    def test_a_later_round_may_re_propose_a_block_an_earlier_proposer_built(self):
        # Round 1's proposer a2 re-proposes a1's round-0 block, as a node locked on it must.
        keys, cfg, chains, engines = make_cluster(4)
        block = build_block([], chains[1].tip, keys[1], NOW_MS, cfg)
        engine = engines[0]
        engine.on_timeout(2_000_000)
        msg = make_message(keys[2], Phase.PRE_PREPARE, 1, 1, hash_block(block), block)
        step = engine.on_message(msg, chains[0], 2_000_000)
        assert [(m.phase, m.round, m.block_hash) for m in step.messages] == [(Phase.PREPARE, 1, hash_block(block))]
        assert step.alerts == []

    def test_a_lone_pre_prepare_from_a_non_proposer_is_no_equivocation(self):
        # After a1's valid proposal, non-proposer a3 sends one conflicting pre-prepare:
        # a3 signed a single message, so it is an invalid block, not an equivocation.
        keys, cfg, chains, engines = make_cluster(4)
        block = build_block([], chains[1].tip, keys[1], NOW_MS, cfg)
        engines[0].on_message(make_message(keys[1], Phase.PRE_PREPARE, 1, 0, hash_block(block), block), chains[0], 0)
        other = build_block([], chains[3].tip, keys[3], NOW_MS + 1, cfg)
        step = engines[0].on_message(make_message(keys[3], Phase.PRE_PREPARE, 1, 0, hash_block(other), other), chains[0], 0)
        assert [(a.kind, a.offender) for a in step.alerts] == [(AlertKind.INVALID_BLOCK, keys[3].public_key)]
        assert engines[0].state.proposals == {0: block}
        # The round's proposer sending a second block is still an equivocation.
        twin = build_block([], chains[1].tip, keys[1], NOW_MS + 2, cfg)
        step = engines[0].on_message(make_message(keys[1], Phase.PRE_PREPARE, 1, 0, hash_block(twin), twin), chains[0], 0)
        assert [(a.kind, a.offender) for a in step.alerts] == [(AlertKind.EQUIVOCATION, keys[1].public_key)]


class TestEquivocation:
    def test_second_conflicting_prepare_ignored(self):
        keys, cfg, chains, engines = make_cluster(4)
        h1, h2 = b"\x01" * 32, b"\x02" * 32
        engines[0].on_message(make_message(keys[2], Phase.PREPARE, 1, 0, h1), chains[0], 0)
        step = engines[0].on_message(make_message(keys[2], Phase.PREPARE, 1, 0, h2), chains[0], 0)
        assert engines[0].state.votes[(Phase.PREPARE, 0, h1)] == {keys[2].public_key}
        assert (Phase.PREPARE, 0, h2) not in engines[0].state.votes
        assert engines[0].state.cast[(Phase.PREPARE, 0, keys[2].public_key)].block_hash == h1
        assert (step.alerts[0].kind, step.alerts[0].offender) == (
            AlertKind.EQUIVOCATION,
            keys[2].public_key,
        )

    def test_a_proposers_prepare_against_its_own_pre_prepare_is_a_double_prepare(self):
        # a1 proposes A, then signs a prepare for another hash; its pre-prepare was its prepare.
        keys, cfg, chains, engines = make_cluster(4)
        block = build_block([], chains[1].tip, keys[1], NOW_MS, cfg)
        a, other = hash_block(block), b"\x02" * 32
        engines[0].on_message(make_message(keys[1], Phase.PRE_PREPARE, 1, 0, a, block), chains[0], 0)
        step = engines[0].on_message(make_message(keys[1], Phase.PREPARE, 1, 0, other), chains[0], 0)
        assert [(al.kind, al.offender, al.detail) for al in step.alerts] == [
            (AlertKind.EQUIVOCATION, keys[1].public_key, "double PREPARE in round 0")
        ]
        assert (Phase.PREPARE, 0, other) not in engines[0].state.votes
        assert engines[0].state.votes[(Phase.PREPARE, 0, a)] == {keys[1].public_key, keys[0].public_key}

    def test_a_pre_prepare_after_its_proposers_other_prepare_is_a_double_prepare(self):
        keys, cfg, chains, engines = make_cluster(4)
        block = build_block([], chains[1].tip, keys[1], NOW_MS, cfg)
        a, other = hash_block(block), b"\x02" * 32
        engines[0].on_message(make_message(keys[1], Phase.PREPARE, 1, 0, other), chains[0], 0)
        step = engines[0].on_message(make_message(keys[1], Phase.PRE_PREPARE, 1, 0, a, block), chains[0], 0)
        assert [(al.kind, al.offender, al.detail) for al in step.alerts] == [
            (AlertKind.EQUIVOCATION, keys[1].public_key, "double PREPARE in round 0")
        ]
        # The proposal still stands, and a0 prepares it; a1's vote stays with its first hash.
        assert [(m.phase, m.block_hash) for m in step.messages] == [(Phase.PREPARE, a)]
        assert engines[0].state.votes[(Phase.PREPARE, 0, a)] == {keys[0].public_key}

    def test_duplicate_identical_vote_is_noop(self):
        keys, cfg, chains, engines = make_cluster(4)
        h1 = b"\x01" * 32
        steps = [engines[0].on_message(make_message(keys[2], Phase.PREPARE, 1, 0, h1), chains[0], 0) for _ in range(3)]
        assert engines[0].state.votes[(Phase.PREPARE, 0, h1)] == {keys[2].public_key}
        assert [a for step in steps for a in step.alerts] == []


class TestRoundChange:
    def test_timeout_advances_round_and_broadcasts(self):
        keys, cfg, chains, engines = make_cluster(4)
        engine = engines[0]
        step = engine.on_timeout(2_000_000)
        out = step.messages
        assert step.finalized is None
        assert engine.state.round == 1
        assert [m.phase for m in out] == [Phase.ROUND_CHANGE]
        assert out[0].round == 1 and out[0].block_hash == bytes(32)

    def test_deadlines_double_each_round(self):
        keys, cfg, chains, engines = make_cluster(4)
        engine = engines[0]
        [(deadline, _)] = engine.on_timeout(2_000_000).timers
        first = deadline - 2_000_000
        [(later, _)] = engine.on_timeout(deadline).timers
        second = later - (2_000_000 + first)
        assert second == 2 * first == 2 * (2 * engine.round_timeout_us)

    def test_round_change_quorum_gates_new_proposal(self):
        keys, cfg, chains, engines = make_cluster(4)
        # After round 0 times out, authorities[(1+1) % 4] = keys[2] leads round 1.
        engine = engines[2]
        engine.on_timeout(2_000_000)
        assert engine.state.round == 1
        assert not engine.wants_proposal()  # own vote only
        engine.on_message(make_message(keys[0], Phase.ROUND_CHANGE, 1, 1, bytes(32)), chains[2], 2_100_000)
        assert not engine.wants_proposal()
        engine.on_message(make_message(keys[1], Phase.ROUND_CHANGE, 1, 1, bytes(32)), chains[2], 2_200_000)
        assert engine.wants_proposal()

    def test_reproposal_carries_locked_block(self):
        keys, cfg, chains, engines = make_cluster(4)
        proposer = engines[1]
        block = build_block([], chains[1].tip, keys[1], NOW_MS, cfg)
        out = proposer.propose(block, 0).messages
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
        assert locked_target.state.round == 3
        assert select_proposer(1, 3, cfg.authorities) == keys[0].public_key
        fresh = build_block([], chains[0].tip, keys[0], NOW_MS + 9999, cfg)
        out = locked_target.propose(fresh, 9_000_000).messages
        pre = [m for m in out if m.phase == Phase.PRE_PREPARE][0]
        assert pre.block_hash == hash_block(block)

    def test_round_change_carries_locked_hash(self):
        keys, cfg, chains, engines = make_cluster(4)
        proposer = engines[1]
        block = build_block([], chains[1].tip, keys[1], NOW_MS, cfg)
        out = proposer.propose(block, 0).messages
        node = engines[0]
        node.on_message(out[0], chains[0], 0)
        for voter in (2, 3):
            node.on_message(make_message(keys[voter], Phase.PREPARE, 1, 0, hash_block(block)), chains[0], 0)
        out = node.on_timeout(2_000_000).messages
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
            msgs.extend(engines[i].on_timeout(t).messages)
        finals = deliver_all(engines, chains, msgs, t, skip=(crashed,))
        # Round-change quorum reached; round-1 leader is authorities[2].
        leader = 2
        assert select_proposer(1, 1, cfg.authorities) == keys[leader].public_key
        assert engines[leader].wants_proposal()
        block = build_block([], chains[leader].tip, keys[leader], NOW_MS, cfg)
        out = engines[leader].propose(block, t + 1000).messages
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
    assert node.on_message(early, chains[0], 0) is NOTHING
    step = node.start_height(2, chains[0], 10)
    assert step.messages == step.alerts == [] and step.finalized is None
    assert node.state.votes == {(Phase.PREPARE, 0, b"\x09" * 32): {keys[2].public_key}}


def test_start_height_returns_the_block_its_buffered_messages_finalize():
    keys, cfg, chains, engines = make_cluster(4)
    node, chain = engines[0], chains[0]
    first = build_block([], chain.tip, keys[1], NOW_MS, cfg)  # height 1's proposer is authorities[1]
    second = build_block([], first, keys[2], NOW_MS + 1, cfg)  # and height 2's is authorities[2]
    a, b = hash_block(first), hash_block(second)
    for msg in (
        make_message(keys[2], Phase.PRE_PREPARE, 2, 0, b, second),
        make_message(keys[3], Phase.PREPARE, 2, 0, b),
        make_message(keys[2], Phase.COMMIT, 2, 0, b),
        make_message(keys[3], Phase.COMMIT, 2, 0, b),
    ):
        assert node.on_message(msg, chain, 0) is NOTHING  # buffered while at height 1
    node.on_message(make_message(keys[1], Phase.PRE_PREPARE, 1, 0, a, first), chain, 0)
    node.on_message(make_message(keys[2], Phase.PREPARE, 1, 0, a), chain, 0)
    node.on_message(make_message(keys[2], Phase.COMMIT, 1, 0, a), chain, 0)
    fin = node.on_message(make_message(keys[3], Phase.COMMIT, 1, 0, a), chain, 0).finalized
    assert fin == first
    chain.blocks.append(fin)
    step = node.start_height(2, chain, 10)
    assert [(m.phase, m.height, m.block_hash) for m in step.messages] == [(Phase.PREPARE, 2, b), (Phase.COMMIT, 2, b)]
    assert step.finalized == second and node.state.finalized


class WatchedEngine(ConsensusEngine):
    """An engine that counts the messages for its own height that skip
    _check_progress, replayed ones included, and checks after each that
    running it on a copy would have sent, finalized and changed nothing."""

    checked = False
    skipped = 0

    def _check_progress(self, step):
        self.checked = True
        super()._check_progress(step)

    def _on_verified(self, msg, chain, now_us):
        self.checked, height = False, self.state.height
        step = super()._on_verified(msg, chain, now_us)
        if not self.checked and msg.height == height:
            self.skipped += 1
            assert not step.messages and step.finalized is None and not step.timers
            twin, more = copy.deepcopy(self), EngineStep()
            twin._check_progress(more)
            assert not more and twin.state == self.state
        return step


VOTES = (Phase.PREPARE, Phase.COMMIT)


def drive_lossy(n, choose):
    """Runs n watched engines over the schedule `choose(label, lo, hi)` picks
    (each pick an int in [lo, hi]): one engine times out, or a pending message
    is lost, delivered, or delivered after a conflicting vote by its sender.
    Each engine is a WatchedEngine. Returns the count of messages for an
    engine's own height that skipped _check_progress, and the height every
    engine finalized."""
    keys, cfg, chains, engines = make_cluster(n, engine_class=WatchedEngine)
    by_key = {k.public_key: k for k in keys}
    pending = []  # (receiving engine, message), in sending order

    def broadcast(i, msgs):
        pending.extend((j, msg) for msg in msgs for j in range(n) if j != i)

    def deliver(i, msg, now):
        return engines[i].on_message(msg, chains[i], now)

    def settle(i, step, now):
        """What a node does with the engine's step: send it, finalize, start the next height, propose when due."""
        engine = engines[i]
        broadcast(i, step.messages)
        while step.finalized is not None:
            chains[i].blocks.append(step.finalized)
            step = engine.start_height(step.finalized.header.height + 1, chains[i], now)
            broadcast(i, step.messages)
        if engine.wants_proposal():
            block = build_block([], chains[i].tip, keys[i], NOW_MS + now // 1000, cfg)
            settle(i, engine.propose(block, now), now)

    now = 0
    for i in range(n):
        settle(i, NOTHING, now)
    for _step in range(choose("steps", 30, 150)):
        now += 1000
        action = choose("action", 0, 15)
        if action == 0 or not pending:  # a round deadline passes at one engine
            i = choose("timeout at", 0, n - 1)
            settle(i, engines[i].on_timeout(now), now)
            continue
        dst, msg = pending.pop(choose("delivered", 0, len(pending) - 1))
        if action == 1:  # lost
            continue
        if action == 2 and msg.phase in VOTES:  # its sender votes both ways
            forged = make_message(by_key[msg.sender], msg.phase, msg.height, msg.round, bytes(32))
            settle(dst, deliver(dst, forged, now), now)
        settle(dst, deliver(dst, msg, now), now)
    # No two engines finalized different blocks at one height.
    finalized = min(chain.height for chain in chains)
    for height in range(1, finalized + 1):
        assert len({hash_block(chain.blocks[height]) for chain in chains}) == 1
    return sum(engine.skipped for engine in engines), finalized


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
        block_a = build_block([], chain.tip, keys[1], NOW_MS, cfg)  # the round-0 proposer is authorities[1]
        a = hash_block(block_a)
        engine.on_message(make_message(keys[1], Phase.PRE_PREPARE, 1, 0, a, block_a), chain, 0)
        out = engine.on_message(make_message(keys[2], Phase.PREPARE, 1, 0, a), chain, 0).messages
        assert [m.phase for m in out] == [Phase.COMMIT] and engine.state.locked_block == block_a
        engine.on_timeout(2_000_000)
        block_b = build_block([], chain.tip, keys[2], NOW_MS + 1, cfg)  # the round-1 proposer is authorities[2]
        b = hash_block(block_b)
        out = engine.on_message(make_message(keys[2], Phase.PRE_PREPARE, 1, 1, b, block_b), chain, 2_000_000).messages
        assert out == []  # locked on A, so no prepare of B
        assert not engine.on_message(make_message(keys[1], Phase.PREPARE, 1, 1, b), chain, 2_000_000).messages
        # With the proposer's, this completes a quorum of prepares for B: the node
        # commits B, which moves its lock to B, and so prepares B as well.
        step = engine.on_message(make_message(keys[3], Phase.PREPARE, 1, 1, b), chain, 2_000_000)
        assert [(m.phase, m.round, m.block_hash) for m in step.messages] == [(Phase.COMMIT, 1, b), (Phase.PREPARE, 1, b)]
        assert engine.state.locked_block == block_b and step.finalized is None
        step = engine.on_message(make_message(keys[1], Phase.COMMIT, 1, 1, b), chain, 2_000_000)
        assert not step.messages and step.finalized is None


class TestNodeEarlyExit:
    """`FogNode.on_consensus` returns None where a vote changes nothing the loop sees."""

    @pytest.fixture
    def cluster(self):
        keys = [kp(f"auth{i}") for i in range(4)]
        cfg = GenesisConfig(authorities=[k.public_key for k in keys], block_interval_ms=1000)
        node = FogNode("n0", keys[0], cfg, {})
        node.initial_output()
        block = build_block([], node.chain.tip, keys[1], NOW_MS, cfg)  # height-1 proposer is authorities[1]
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
        assert node.engine.state.height == 2
        # A vote for the finalized height changes nothing.
        assert node.on_consensus(make_message(keys[1], Phase.COMMIT, 1, 0, bh), 0) is None
        assert node.chain.height == 1 and node.engine.state.height == 2

    def test_a_round_change_below_f_plus_one_returns_none(self, cluster):
        node, keys, _ = cluster
        assert node.on_consensus(make_message(keys[2], Phase.ROUND_CHANGE, 1, 1), 0) is None
        assert node.engine.state.votes == {(Phase.ROUND_CHANGE, 1, ZERO_HASH): {keys[2].public_key}}
        assert node.engine.state.round == 0
        # The second one is f+1: n0 joins round 1's change.
        out = node.on_consensus(make_message(keys[3], Phase.ROUND_CHANGE, 1, 1), 0)
        assert [(s.body.phase, s.body.round) for s in out.sends] == [(Phase.ROUND_CHANGE, 1)]

    def test_a_pre_prepare_the_engine_answers_with_nothing_returns_none(self, cluster):
        node, keys, block = cluster
        pre = make_message(keys[1], Phase.PRE_PREPARE, 1, 0, hash_block(block), block)
        assert [s.body.phase for s in node.on_consensus(pre, 0).sends] == [Phase.PREPARE]
        assert node.on_consensus(pre, 0) is None  # a duplicate delivery

    def test_the_round_zero_proposer_returns_none_before_its_propose_wake(self, cluster):
        _, keys, block = cluster
        cfg = GenesisConfig(authorities=[k.public_key for k in keys], block_interval_ms=1000)
        proposer = FogNode("n1", keys[1], cfg, {})
        proposer.initial_output()
        assert proposer.on_consensus(make_message(keys[2], Phase.PREPARE, 1, 0, hash_block(block)), 0) is None
        out = proposer.on_timer(("propose", 1), 1_000_000)
        assert [s.body.phase for s in out.sends] == [Phase.PRE_PREPARE]

    def test_a_double_vote_raises_one_equivocation_alert(self, cluster):
        node, keys, block = cluster
        assert node.on_consensus(make_message(keys[2], Phase.PREPARE, 1, 0, hash_block(block)), 0) is None
        out = node.on_consensus(make_message(keys[2], Phase.PREPARE, 1, 0, bytes(32)), 0)
        alerts = [s.body for s in out.sends if s.kind == ALERT]
        assert [(a.kind, a.offender) for a in alerts] == [(AlertKind.EQUIVOCATION, keys[2].public_key)]
        again = node.on_consensus(make_message(keys[2], Phase.PREPARE, 1, 0, b"\x07" * 32), 0)
        assert again is None or not again.sends
        assert [a.kind for a in node.alerts] == [AlertKind.EQUIVOCATION]


def test_split_locks_after_a_crash_stall_height_one():
    """Item 22's known split-lock defect: locks never release within a height.

    a0 alone locks block A in round 0; a1, a2 and a3 lock block B in round 1,
    and a3 alone finalizes it; then a3 crashes. Twelve lossless rounds among
    a0, a1 and a2 finalize nothing, since a0 prepares only A and the others
    only B. Item 22 turns the stall into "finalizes within a few lossless
    rounds"; agreement must hold either way."""
    keys, cfg, chains, engines = make_cluster(4)
    finals = {}

    def run(sends, delivered, live, now):
        """Delivers each (sender, message) to every other live engine where
        `delivered(sender, receiver, message)`, and what that causes; an
        engine that wants to propose proposes."""
        queue = deque(sends)
        while queue:
            src, msg = queue.popleft()
            for dst in live:
                if dst == src or not delivered(src, dst, msg):
                    continue
                engine = engines[dst]
                steps = [engine.on_message(msg, chains[dst], now)]
                if engine.wants_proposal():
                    block = build_block([], chains[dst].tip, keys[dst], NOW_MS + now // 1000, cfg)
                    steps.append(engine.propose(block, now))
                for step in steps:
                    queue.extend((dst, m) for m in step.messages)
                    if step.finalized is not None:
                        finals.setdefault(dst, step.finalized)

    # Round 0: a1 proposes A to a0 and a2, who prepare it; only a2's prepare reaches a0.
    block_a = build_block([], chains[1].tip, keys[1], NOW_MS, cfg)
    pre_a = engines[1].propose(block_a, 0).messages
    run(
        [(1, m) for m in pre_a],
        lambda src, dst, msg: (src, msg.phase) == (1, Phase.PRE_PREPARE) and dst in (0, 2)
        or (src, dst, msg.phase) == (2, 0, Phase.PREPARE),
        range(4),
        0,
    )
    a = hash_block(block_a)
    assert [e.state.locked_block for e in engines] == [block_a, None, None, None]

    # Round 1: a2 proposes B. a0 hears only round changes, and a3's commits are lost.
    now = 2_000_000
    changes = [(i, m) for i in range(4) for m in engines[i].on_timeout(now).messages]
    run(
        changes,
        lambda src, dst, msg: msg.phase == Phase.ROUND_CHANGE or dst != 0 and (src, msg.phase) != (3, Phase.COMMIT),
        range(4),
        now,
    )
    b = hash_block(engines[2].state.proposals[1])
    assert [hash_block(e.state.locked_block) for e in engines] == [a, b, b, b]
    assert {i: hash_block(block) for i, block in finals.items()} == {3: b}

    # a3 crashes; twelve lossless rounds follow among the rest.
    live = (0, 1, 2)
    for _round in range(12):
        now *= 2
        run([(i, m) for i in live for m in engines[i].on_timeout(now).messages], lambda *_: True, live, now)

    assert all(hash_block(block) == b for block in finals.values())  # agreement
    # The stall: every live engine is in round 13, still split between A and B, and none finalized.
    assert [engines[i].state.round for i in live] == [13, 13, 13]
    assert [hash_block(engines[i].state.locked_block) for i in live] == [a, b, b]
    assert sorted(finals) == [3] and not any(engines[i].state.finalized for i in live)
