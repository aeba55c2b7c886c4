"""Three-phase finality engine over the genesis authority set.

Proposers rotate round-robin by (height + round) mod n, in the order of
`GenesisConfig.authorities`. A height finalizes when 2f+1 authorities commit
the same block hash, f = (n-1)//3. A node that sees a prepare quorum locks
the block and re-proposals must carry it. Round changes fire on timeout; the
round-0 deadline is twice the genesis block interval and doubles each round.
A new round's proposer waits for a round-change quorum before proposing.

The engine is a deterministic state machine: one ordered input stream per
node, no internal concurrency. Message signatures and authority membership
are verified by the caller before on_message. Every entry point returns one
`EngineStep` at the fixpoint of `_check_progress`, and the engine keeps none of
it. A step's timers are each round's `("round", height, round)` deadline as the
round begins, after a `("propose", height)` wake one block interval on when the
engine begins a height it is the round-0 proposer of. A fresh engine arms
nothing until `start_height(1, ...)`; each `start_height` feeds the messages
buffered for its height through `on_message`. Each `Alert` names the signer of
the message that shows the fault.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Optional

from .chain import Block, Chain, GenesisConfig, Signed, hash_block, validate_block
from .channel import KeyPair
from .codec import BYTES, U64, enum_u8, optional, record

ZERO_HASH = bytes(32)


class Phase(IntEnum):
    PRE_PREPARE = 0
    PREPARE = 1
    COMMIT = 2
    ROUND_CHANGE = 3


@dataclass(frozen=True)
class ConsensusMessage(Signed):
    phase: Phase
    height: int
    round: int
    block_hash: bytes  # zero for an unlocked round change
    block: Optional[Block]  # full block on pre-prepare only
    sender: bytes
    signature: bytes

    WIRE_TAG = 0x05
    SIGNER = "sender"
    LAYOUT = (
        ("phase", enum_u8(Phase)),
        ("height", U64),
        ("round", U64),
        ("block_hash", BYTES),
        ("block", optional(record(Block))),
        ("sender", BYTES),
        ("signature", BYTES),
    )


def make_message(
    keypair: KeyPair,
    phase: Phase,
    height: int,
    round_: int,
    block_hash: bytes = ZERO_HASH,
    block: Optional[Block] = None,
) -> ConsensusMessage:
    return ConsensusMessage.signed_by(
        keypair, phase=phase, height=height, round=round_, block_hash=block_hash, block=block
    )


def verify_message(msg: ConsensusMessage, authorities) -> bool:
    if msg.sender not in authorities:
        return False
    return msg.verified()


def quorum(n: int) -> int:
    """Votes that finalize among n authorities: 2f+1, f = (n-1)//3."""
    return 2 * ((n - 1) // 3) + 1


def select_proposer(height: int, round_: int, authorities) -> bytes:
    """Deterministic rotation; a round change shifts to the next authority."""
    return authorities[(height + round_) % len(authorities)]


class AlertKind:
    INVALID_BLOCK = "invalid_block"
    EQUIVOCATION = "equivocation"
    REPLAY_DETECTED = "replay_detected"


@dataclass(frozen=True)
class Alert:
    kind: str
    height: int
    offender: bytes
    detail: str
    sim_time_us: int

    def key(self):
        return (self.kind, self.offender, self.height, self.detail)


@dataclass
class EngineStep:
    """What one engine call hands its caller: messages to broadcast, the block
    it finalized, alerts to raise and (fire_at_us, key) timers to arm."""

    messages: list = field(default_factory=list)
    finalized: Optional[Block] = None
    alerts: list = field(default_factory=list)
    timers: list = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.messages or self.finalized is not None or self.alerts or self.timers)


# The step of a call that changes nothing the caller sees; shared, so read-only.
NOTHING = EngineStep((), None, (), ())


@dataclass
class ConsensusState:
    height: int
    round: int = 0
    locked_block: Optional[Block] = None
    proposals: dict = field(default_factory=dict)  # round -> validated Block
    prepare_votes: dict = field(default_factory=dict)  # (round, hash) -> set of senders
    commit_votes: dict = field(default_factory=dict)
    round_change_votes: dict = field(default_factory=dict)  # round -> set of senders
    voted_hash: dict = field(default_factory=dict)  # (round, phase, sender) -> hash
    sent_prepare: set = field(default_factory=set)  # rounds
    sent_commit: set = field(default_factory=set)
    sent_round_change: set = field(default_factory=set)
    finalized: bool = False


class ConsensusEngine:
    """Per-node deterministic consensus state machine."""

    BUFFER_CAP = 4096

    def __init__(self, genesis: GenesisConfig, keypair: KeyPair):
        self.authorities = genesis.authorities
        self.max_txs = genesis.max_txs
        self.f = (len(self.authorities) - 1) // 3
        self.quorum = quorum(len(self.authorities))
        self.block_interval_us = genesis.block_interval_ms * 1000
        self.round_timeout_us = 2 * self.block_interval_us  # round 0; doubles each round
        self.keypair = keypair
        self._future: list = []  # messages for later heights
        self.state = ConsensusState(height=0, finalized=True)  # genesis: buffer all until start_height(1, ...)

    # -- public surface ----------------------------------------------------

    @property
    def height(self) -> int:
        return self.state.height

    @property
    def round(self) -> int:
        return self.state.round

    def is_proposer(self) -> bool:
        return select_proposer(self.state.height, self.state.round, self.authorities) == self.keypair.public_key

    def wants_proposal(self) -> bool:
        """True when this node should issue the pre-prepare for the current round."""
        st = self.state
        if st.finalized or not self.is_proposer() or st.round in st.proposals:
            return False
        if st.round == 0:
            return True
        votes = st.round_change_votes.get(st.round, set())
        return len(votes) >= self.quorum

    def on_message(self, msg: ConsensusMessage, chain: Chain, now_us: int) -> EngineStep:
        """Feed one verified message."""
        st = self.state
        if msg.height != st.height:
            if msg.height > st.height and len(self._future) < self.BUFFER_CAP:
                self._future.append(msg)
            return NOTHING
        if st.finalized:
            return NOTHING

        if msg.phase in (Phase.PREPARE, Phase.COMMIT):
            key = (msg.round, int(msg.phase), msg.sender)
            previous = st.voted_hash.get(key)
            if previous is not None:
                # A vote its sender already cast in this round and phase counts nowhere.
                if previous == msg.block_hash:
                    return NOTHING
                detail = f"double {msg.phase.name} in round {msg.round}"
                return self._alert(EngineStep(), AlertKind.EQUIVOCATION, msg.sender, detail, now_us)
            st.voted_hash[key] = msg.block_hash
            table = st.prepare_votes if msg.phase == Phase.PREPARE else st.commit_votes
            votes = table.setdefault((msg.round, msg.block_hash), set())
            votes.add(msg.sender)
            # A vote that leaves its entry below quorum changes no input of
            # _check_progress, whose last run reached its fixpoint.
            if len(votes) < self.quorum:
                return NOTHING
        step = EngineStep()
        if msg.phase == Phase.ROUND_CHANGE:
            self._record_round_change(msg.sender, msg.round, step, now_us)
        elif msg.phase == Phase.PRE_PREPARE:
            self._handle_pre_prepare(msg, chain, step, now_us)
        self._check_progress(step)
        return step

    def on_timeout(self, now_us: int) -> EngineStep:
        """Advance one round and broadcast the round change."""
        st = self.state
        if st.finalized:
            return NOTHING
        step = EngineStep()
        self._enter_round(st.round + 1, step, now_us)
        self._send_round_change(st.round, step)
        self._check_progress(step)
        return step

    def propose(self, block: Block, now_us: int) -> EngineStep:
        """Issue the pre-prepare for the current round.

        A locked block always takes precedence over the freshly built one.
        """
        st = self.state
        if st.finalized or st.round in st.proposals:
            return NOTHING
        if st.locked_block is not None:
            block = st.locked_block
        bh = hash_block(block)
        st.proposals[st.round] = block
        step = EngineStep([make_message(self.keypair, Phase.PRE_PREPARE, st.height, st.round, bh, block)])
        # The pre-prepare doubles as the proposer's prepare vote.
        self._add_vote(st.prepare_votes, st.round, bh, self.keypair.public_key)
        st.sent_prepare.add(st.round)
        self._check_progress(step)
        return step

    def start_height(self, height: int, chain: Chain, now_us: int) -> EngineStep:
        """Begin `height`, arm its timers and feed it the messages buffered for
        it; the step holds what they all return, and the first block they finalize."""
        self.state = ConsensusState(height=height)
        step = EngineStep()
        if self.is_proposer():
            step.timers.append((now_us + self.block_interval_us, ("propose", height)))
        self._enter_round(0, step, now_us)
        pending = self._future
        self._future = [m for m in pending if m.height > height]
        for msg in pending:
            if msg.height == height:
                more = self.on_message(msg, chain, now_us)
                step.messages += more.messages
                step.alerts += more.alerts
                step.timers += more.timers
                if step.finalized is None:
                    step.finalized = more.finalized
        return step

    # -- internals -----------------------------------------------------------

    def _timeout_for(self, round_: int) -> int:
        return self.round_timeout_us << min(round_, 20)

    def _enter_round(self, round_: int, step: EngineStep, now_us: int) -> None:
        st = self.state
        st.round = round_
        step.timers.append((now_us + self._timeout_for(round_), ("round", st.height, round_)))

    def _send_round_change(self, round_: int, step: EngineStep) -> None:
        st = self.state
        if round_ in st.sent_round_change:
            return
        st.sent_round_change.add(round_)
        locked_hash = hash_block(st.locked_block) if st.locked_block else ZERO_HASH
        step.messages.append(make_message(self.keypair, Phase.ROUND_CHANGE, st.height, round_, locked_hash))
        st.round_change_votes.setdefault(round_, set()).add(self.keypair.public_key)

    def _record_round_change(self, sender: bytes, round_: int, step: EngineStep, now_us: int) -> None:
        st = self.state
        votes = st.round_change_votes.setdefault(round_, set())
        votes.add(sender)
        if round_ <= st.round:
            return
        # f+1 peers already gave up on our round: join the change early.
        if len(votes) > self.f and round_ not in st.sent_round_change:
            self._send_round_change(round_, step)
        if len(votes) >= self.quorum:
            self._enter_round(round_, step, now_us)

    def _handle_pre_prepare(self, msg: ConsensusMessage, chain: Chain, step: EngineStep, now_us: int) -> None:
        st = self.state
        # Only the round's proposer may send its pre-prepare, so any other
        # signer is at fault whatever it sent, and is not an equivocator.
        if msg.sender != select_proposer(st.height, msg.round, self.authorities):
            detail = "not the proposer for this round"
        elif msg.round in st.proposals:
            if hash_block(st.proposals[msg.round]) != msg.block_hash:
                detail = f"conflicting proposal round {msg.round}"
                self._alert(step, AlertKind.EQUIVOCATION, msg.sender, detail, now_us)
            return
        elif msg.block is None or hash_block(msg.block) != msg.block_hash:
            detail = "proposal hash mismatch"
        else:
            violations = validate_block(msg.block, chain.tip, self.authorities, self.max_txs)
            if not violations:
                st.proposals[msg.round] = msg.block
                # The proposer's pre-prepare counts as its prepare vote.
                self._add_vote(st.prepare_votes, msg.round, msg.block_hash, msg.sender)
                return
            detail = ",".join(v.value for v in violations)
        # The signer vouched for whatever block it sent, so it is the party named.
        self._alert(step, AlertKind.INVALID_BLOCK, msg.sender, detail, now_us)

    @staticmethod
    def _add_vote(table: dict, round_: int, block_hash: bytes, sender: bytes) -> None:
        table.setdefault((round_, block_hash), set()).add(sender)

    def _alert(self, step: EngineStep, kind: str, offender: bytes, detail: str, now_us: int) -> EngineStep:
        step.alerts.append(Alert(kind, self.state.height, offender, detail, now_us))
        return step

    def _block_for(self, block_hash: bytes) -> Optional[Block]:
        st = self.state
        if st.locked_block is not None and hash_block(st.locked_block) == block_hash:
            return st.locked_block
        for block in st.proposals.values():
            if hash_block(block) == block_hash:
                return block
        return None

    def _prepare(self, step: EngineStep) -> None:
        """Prepare the current round's proposal, unless this node already did
        or is locked on another block."""
        st = self.state
        proposal = st.proposals.get(st.round)
        if proposal is None or st.round in st.sent_prepare:
            return
        bh = hash_block(proposal)
        if st.locked_block is None or hash_block(st.locked_block) == bh:
            st.sent_prepare.add(st.round)
            step.messages.append(make_message(self.keypair, Phase.PREPARE, st.height, st.round, bh))
            self._add_vote(st.prepare_votes, st.round, bh, self.keypair.public_key)

    def _check_progress(self, step: EngineStep) -> None:
        """Drive prepare/commit/finalize off the current vote tables to their
        fixpoint, setting `step.finalized` on a commit quorum."""
        st = self.state
        quorum = self.quorum
        me = self.keypair.public_key
        locked = st.locked_block
        self._prepare(step)

        for (round_, bh), votes in list(st.prepare_votes.items()):
            if round_ != st.round or len(votes) < quorum or round_ in st.sent_commit:
                continue
            block = self._block_for(bh)
            if block is None:
                continue
            st.locked_block = block
            st.sent_commit.add(round_)
            step.messages.append(make_message(self.keypair, Phase.COMMIT, st.height, round_, bh))
            self._add_vote(st.commit_votes, round_, bh, me)

        for (round_, bh), votes in list(st.commit_votes.items()):
            if len(votes) < quorum:
                continue
            block = self._block_for(bh)
            if block is None:
                continue
            st.finalized = True
            step.finalized = block
            return
        # A lock moved to the round's proposal enables its prepare; the round's
        # commit is sent, so that vote completes nothing more.
        if st.locked_block is not locked:
            self._prepare(step)
