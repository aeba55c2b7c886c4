"""Three-phase finality engine over the genesis authority set.

Proposers rotate round-robin by (height + round) mod n, in the order of
`GenesisConfig.authorities`. A height finalizes when 2f+1 authorities commit
the same block hash, f = (n-1)//3. A node that sees a prepare quorum locks
the block and re-proposals must carry it. Round changes fire on timeout; the
round-0 deadline is twice the genesis block interval and doubles each round.
A new round's proposer waits for a round-change quorum before proposing.

The engine is a deterministic state machine: one ordered input stream per
node, no internal concurrency. `on_message` verifies each message; one that
fails counts nowhere. `_count` counts every vote into one table, the engine's
own as it sends them: a sender's second vote in one (phase, round) counts
nowhere, and is an equivocation if it names another hash. Every entry point
returns one `EngineStep` at the fixpoint of `_check_progress`, and the engine
keeps none of it. Each `Alert` names the signer of the message that shows it.

A step's timers are each round's `("round", height, round)` deadline as the
round begins, after a `("propose", height)` wake one block interval on at a
height the engine is the round-0 proposer of. `on_timer` answers both, and a
wake for a round or height it has left with NOTHING. Such wakes stay armed: the
event loop has no cancel, they are under 1% of its events (418 of 62005 on the
`write_n20_crash` benchmark at seed 241), and ROADMAP item 22 reworks rounds.
A step's `propose_round` asks for a block: round 0's at the propose wake, round
r's when a round-change quorum makes this engine its proposer. A fresh engine
arms nothing until `start_height(1, ...)`; each `start_height` feeds in the
messages it buffered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Optional

from .chain import ZERO_HASH, Block, Chain, GenesisConfig, Signed, hash_block, validate_block
from .channel import KeyPair
from .codec import BYTES, U64, enum_u8, optional, record


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
    it finalized, alerts to raise, (fire_at_us, key) timers to arm and the
    round it must now build a block for, if any."""

    messages: list = field(default_factory=list)
    finalized: Optional[Block] = None
    alerts: list = field(default_factory=list)
    timers: list = field(default_factory=list)
    propose_round: Optional[int] = None

    def __bool__(self) -> bool:
        handed = self.finalized is not None or self.propose_round is not None
        return handed or bool(self.messages or self.alerts or self.timers)


# The step of a call that changes nothing the caller sees; shared, so read-only.
NOTHING = EngineStep((), None, (), ())


@dataclass
class ConsensusState:
    """One height's state. Every vote counted, this engine's own included, is in
    `votes` and `cast`; a pre-prepare counts as its proposer's PREPARE."""

    height: int
    round: int = 0
    locked_block: Optional[Block] = None
    proposals: dict = field(default_factory=dict)  # round -> validated Block
    votes: dict = field(default_factory=dict)  # (phase, round, hash) -> senders; a round change's hash is ZERO_HASH
    cast: dict = field(default_factory=dict)  # (phase, round, sender) -> the first message counted
    finalized: bool = False


class ConsensusEngine:
    """Per-node deterministic consensus state machine."""

    BUFFER_CAP = 4096

    def __init__(self, genesis: GenesisConfig, keypair: KeyPair):
        self.genesis = genesis
        self.authorities = genesis.authorities
        self.f = (len(self.authorities) - 1) // 3
        self.quorum = quorum(len(self.authorities))
        self.block_interval_us = genesis.block_interval_ms * 1000
        self.round_timeout_us = 2 * self.block_interval_us  # round 0; doubles each round
        self.keypair = keypair
        self._future: list = []  # messages for later heights
        self.state = ConsensusState(height=0, finalized=True)  # genesis: buffer all until start_height(1, ...)

    # -- public surface ----------------------------------------------------

    def is_proposer(self) -> bool:
        return select_proposer(self.state.height, self.state.round, self.authorities) == self.keypair.public_key

    def wants_proposal(self) -> bool:
        """True when this node should issue the pre-prepare for the current round."""
        st = self.state
        if st.finalized or not self.is_proposer() or st.round in st.proposals:
            return False
        return st.round == 0 or len(st.votes.get((Phase.ROUND_CHANGE, st.round, ZERO_HASH), ())) >= self.quorum

    def on_message(self, msg: ConsensusMessage, chain: Chain, now_us: int) -> EngineStep:
        """Feed one message as it arrived."""
        if verify_message(msg, self.authorities):
            return self._on_verified(msg, chain, now_us)
        # An authority's header inside a message that fails its check proves
        # nothing about that authority; an outsider's own signed header does.
        header = msg.block.header if msg.phase == Phase.PRE_PREPARE and msg.block is not None else None
        if header is None or header.proposer in self.authorities or not header.verified():
            return NOTHING
        detail = ",".join(v.value for v in validate_block(msg.block, chain.tip, self.genesis))
        return EngineStep(alerts=[Alert(AlertKind.INVALID_BLOCK, header.height, header.proposer, detail, now_us)])

    def on_timer(self, key: tuple, now_us: int) -> EngineStep:
        """Answer a wake this engine handed out; NOTHING for one of a height or round it has left."""
        st = self.state
        if key[0] == "propose":
            fresh = key[1] == st.height and st.round == 0 and self.wants_proposal()
            return EngineStep(propose_round=0) if fresh else NOTHING
        return self.on_timeout(now_us) if key[1:] == (st.height, st.round) else NOTHING

    def _on_verified(self, msg: ConsensusMessage, chain: Chain, now_us: int) -> EngineStep:
        st = self.state
        if msg.height != st.height:
            if msg.height > st.height and len(self._future) < self.BUFFER_CAP:
                self._future.append(msg)
            return NOTHING
        if st.finalized:
            return NOTHING

        if msg.phase in (Phase.PREPARE, Phase.COMMIT):
            first = self._count(msg.phase, msg)
            if first is not msg:
                # A vote its sender already cast in this round and phase counts nowhere.
                same = first.block_hash == msg.block_hash
                return NOTHING if same else self._double_vote(EngineStep(), msg.phase, msg, now_us)
            # A vote that leaves its entry below quorum changes no input of
            # _check_progress, whose last run reached its fixpoint.
            if len(st.votes[(msg.phase, msg.round, msg.block_hash)]) < self.quorum:
                return NOTHING
        step = EngineStep()
        if msg.phase == Phase.ROUND_CHANGE:
            self._record_round_change(msg, step, now_us)
        elif msg.phase == Phase.PRE_PREPARE:
            self._handle_pre_prepare(msg, chain, step, now_us)
        self._check_progress(step)
        return self._ask_for_block(step)

    def on_timeout(self, now_us: int) -> EngineStep:
        """Advance one round and broadcast the round change."""
        st = self.state
        if st.finalized:
            return NOTHING
        step = EngineStep()
        self._enter_round(st.round + 1, step, now_us)
        self._send_round_change(st.round, step)
        self._check_progress(step)
        return self._ask_for_block(step)

    def propose(self, block: Block, now_us: int) -> EngineStep:
        """Issue the pre-prepare for the current round.

        A locked block always takes precedence over the freshly built one.
        """
        st = self.state
        if st.finalized or st.round in st.proposals:
            return NOTHING
        if st.locked_block is not None:
            block = st.locked_block
        st.proposals[st.round] = block
        step = EngineStep()
        self._send(step, Phase.PRE_PREPARE, st.round, hash_block(block), block)
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
                more = self._on_verified(msg, chain, now_us)
                step.messages += more.messages
                step.alerts += more.alerts
                step.timers += more.timers
                if step.finalized is None:
                    step.finalized = more.finalized
        return self._ask_for_block(step)

    # -- internals -----------------------------------------------------------

    def _ask_for_block(self, step: EngineStep) -> EngineStep:
        """Asks for round r > 0's block once a round-change quorum makes this engine its proposer."""
        if self.state.round > 0 and self.wants_proposal():
            step.propose_round = self.state.round
        return step

    def _timeout_for(self, round_: int) -> int:
        return self.round_timeout_us << min(round_, 20)

    def _enter_round(self, round_: int, step: EngineStep, now_us: int) -> None:
        st = self.state
        st.round = round_
        step.timers.append((now_us + self._timeout_for(round_), ("round", st.height, round_)))

    def _count(self, phase: Phase, msg: ConsensusMessage) -> ConsensusMessage:
        """Count `msg` as its sender's `phase` vote in its round, unless the
        sender already cast one there; return the vote that counts."""
        st = self.state
        first = st.cast.setdefault((phase, msg.round, msg.sender), msg)
        if first is msg:
            bh = ZERO_HASH if phase == Phase.ROUND_CHANGE else msg.block_hash
            st.votes.setdefault((phase, msg.round, bh), set()).add(msg.sender)
        return first

    def _double_vote(self, step: EngineStep, phase: Phase, msg: ConsensusMessage, now_us: int) -> EngineStep:
        detail = f"double {phase.name} in round {msg.round}"
        return self._alert(step, AlertKind.EQUIVOCATION, msg.sender, detail, now_us)

    def _send(self, step: EngineStep, phase: Phase, round_: int, bh: bytes, block: Optional[Block] = None) -> None:
        """Sign, hand out and count one of this engine's own messages."""
        msg = make_message(self.keypair, phase, self.state.height, round_, bh, block)
        step.messages.append(msg)
        self._count(Phase.PREPARE if phase == Phase.PRE_PREPARE else phase, msg)

    def _sent(self, phase: Phase, round_: int) -> bool:
        return (phase, round_, self.keypair.public_key) in self.state.cast

    def _send_round_change(self, round_: int, step: EngineStep) -> None:
        locked = self.state.locked_block
        if not self._sent(Phase.ROUND_CHANGE, round_):
            self._send(step, Phase.ROUND_CHANGE, round_, hash_block(locked) if locked else ZERO_HASH)

    def _record_round_change(self, msg: ConsensusMessage, step: EngineStep, now_us: int) -> None:
        self._count(Phase.ROUND_CHANGE, msg)
        if msg.round <= self.state.round:
            return
        votes = self.state.votes[(Phase.ROUND_CHANGE, msg.round, ZERO_HASH)]
        # f+1 peers already gave up on our round: join the change early.
        if len(votes) > self.f:
            self._send_round_change(msg.round, step)
        if len(votes) >= self.quorum:
            self._enter_round(msg.round, step, now_us)

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
        elif msg.round == 0 and msg.block.header.proposer != msg.sender:
            # Only a later round may re-propose a block another authority built: the one it is locked on.
            detail = "block built by another authority"
        else:
            violations = validate_block(msg.block, chain.tip, self.genesis)
            if not violations:
                st.proposals[msg.round] = msg.block
                # The proposer's pre-prepare counts as its prepare vote, unless it sent another one.
                if self._count(Phase.PREPARE, msg).block_hash != msg.block_hash:
                    self._double_vote(step, Phase.PREPARE, msg, now_us)
                return
            detail = ",".join(v.value for v in violations)
        # The signer vouched for whatever block it sent, so it is the party named.
        self._alert(step, AlertKind.INVALID_BLOCK, msg.sender, detail, now_us)

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
        if proposal is None or self._sent(Phase.PREPARE, st.round):
            return
        bh = hash_block(proposal)
        if st.locked_block is None or hash_block(st.locked_block) == bh:
            self._send(step, Phase.PREPARE, st.round, bh)

    def _check_progress(self, step: EngineStep) -> None:
        """Drive prepare/commit/finalize off the vote table to its fixpoint,
        setting `step.finalized` on a commit quorum."""
        st = self.state
        quorum = self.quorum
        locked = st.locked_block
        self._prepare(step)

        if not self._sent(Phase.COMMIT, st.round):
            for (phase, round_, bh), votes in st.votes.items():
                prepared = phase == Phase.PREPARE and round_ == st.round and len(votes) >= quorum
                block = self._block_for(bh) if prepared else None
                if block is not None:
                    st.locked_block = block
                    self._send(step, Phase.COMMIT, round_, bh)
                    break  # the commit just counted changed `votes`

        for (phase, _round, bh), votes in st.votes.items():
            block = self._block_for(bh) if phase == Phase.COMMIT and len(votes) >= quorum else None
            if block is not None:
                st.finalized = True
                step.finalized = block
                return
        # A lock moved to the round's proposal enables its prepare; the round's
        # commit is sent, so that vote completes nothing more.
        if st.locked_block is not locked:
            self._prepare(step)
