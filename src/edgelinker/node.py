"""Fog-node runtime: channel termination, mempool, consensus, reads, alerts.

Each node is an event-driven state machine fed by one ordered input stream:
`initial_output`, `on_timer` and the four message handlers (`handle_envelope`,
`on_gossip`, `on_consensus`, `on_alert`). Each returns a NodeOutput of messages
to send and timers to arm, or None for nothing: `on_gossip` and `on_alert`
always, `on_consensus` and `on_timer` when the engine, handed the message or
wake untouched, answers with an empty `EngineStep`. `_post_engine` turns each
engine step into output: it sends the step's messages, raises its alerts, arms
its timers (each round's deadline, and a propose wake at each height the node
is the round-0 proposer of), applies its finalized block and starts the next
height, then builds the block the last step asks for. The surrounding
simulation (or any other transport) arms every timer it is handed and owns
delivery, including the fan-out of a send to PEERS, every other authority. World
state is only ever advanced by applying finalized blocks, so replaying the
chain from genesis always reproduces it byte for byte. Nodes handed one
genesis state share every state they reach from it: each finalized block is
applied once, while each node admits, serves reads and confirms against the
state at its own height.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from . import channel as ch
from .chain import (
    Block,
    Chain,
    GenesisConfig,
    Query,
    Transaction,
    build_block,
    hash_block,
    hash_tx,
    make_genesis,
    verify_transaction,
)
from .codec import BYTES, READINGS, STR, U64, DecodeError, Record, items, record
from .consensus import Alert, AlertKind, ConsensusEngine, ConsensusMessage, EngineStep
from .contracts import PermissionDenied, UnknownContract, WorldState, genesis_world, next_state, read_history

MEMPOOL_CAP = 10_000  # admitted transactions a node holds before it rejects more
QUERY_SERVICE_US = 1000  # time one read occupies the node's query server


# --- message kinds routed by the transport --------------------------------
# Simulation.send seeds each link's jitter stream from the kind's value,
# so changing a value changes every seeded timeline: keep them as they are.

CLIENT = "ClientWire"  # device-to-node channel bytes carrying a Transaction or a Query
REPLY = "ReplyWire"  # node-to-device channel bytes carrying a QueryReplyBody
CONFIRM = "ConfirmWire"  # node-to-device channel bytes carrying a ConfirmBody
GOSSIP = "GossipWire"  # a Transaction relayed between nodes
CONSENSUS = "ConsensusWire"  # a ConsensusMessage
ALERT = "AlertWire"  # an Alert

PEERS = "*"  # the destination of a send to every other authority


@dataclass(frozen=True)
class QueryReplyBody(Record):
    """Node response to a read query."""

    status: int  # 0 ok, 1 permission denied, 2 unknown contract
    reason: str
    readings: list  # a `Readings` from `read_history` is written with the bytes it keeps

    WIRE_TAG = 0x06
    LAYOUT = (("status", U64), ("reason", STR), ("readings", READINGS))

    @classmethod
    def compile_codec(cls, compiler) -> None:
        super().compile_codec(compiler)

        # status_and_count(data): the status and reading count of the reply
        # `decode(data)` returns, rejecting the same bytes, without building the readings.
        def fill(src) -> str:
            status, _reason, count = src.read_fields(cls.WIRE_TAG, cls.LAYOUT, 1, count_readings=True)
            return f"({status}, {count})"

        compiler.reader(fill, read=None, decode="status_and_count")


@dataclass(frozen=True)
class ConfirmEntry(Record):
    """One transaction's ledger receipt, as its submitting device hears it."""

    tx_hash: bytes
    result: str  # the receipt's result: ok, denied, failed or skipped
    reason: str
    delay_us: int  # node-side receipt-to-finalization time

    WIRE_TAG = None  # written only inside a ConfirmBody
    LAYOUT = (("tx_hash", BYTES), ("result", STR), ("reason", STR), ("delay_us", U64))


@dataclass
class ConfirmBody(Record):
    """The receipts of one device's transactions in one finalized block, in block order."""

    height: int
    entries: tuple  # of ConfirmEntry

    WIRE_TAG = 0x07
    MIN_ENTRY_LEN = 4 + 4 + 4 + 8  # empty hash, result and reason, then the delay
    LAYOUT = (("height", U64), ("entries", items(record(ConfirmEntry), MIN_ENTRY_LEN)))


@dataclass
class Send:
    dst: str  # an endpoint id, or PEERS
    kind: str  # one of the message kinds above
    body: object
    at_us: Optional[int] = None  # departure time; None means immediately


@dataclass
class NodeOutput:
    sends: list = field(default_factory=list)
    timers: list = field(default_factory=list)  # (fire_at_us, key)


def _no_record(kind: str, **info) -> None:
    """Default trace sink; the simulator hands nodes its own."""


class FogNode:
    """One authority node: miner, channel endpoint, and read server.

    Chain parameters (block interval, gas table, block size) come only from
    the GenesisConfig every authority shares; the channel mode is the
    scenario's; every read occupies the query server for QUERY_SERVICE_US.
    `world` is the genesis state, built from the config when not given; nodes
    handed one object share its successors.
    """

    def __init__(
        self,
        node_id: str,
        keypair: ch.KeyPair,
        genesis_config: GenesisConfig,
        directory: dict,
        channel_mode: str = "secure",
        recorder: Optional[Callable] = None,
        rng=None,
        world: Optional[WorldState] = None,
    ):
        self.node_id = node_id
        self.keypair = keypair
        self.genesis_config = genesis_config
        self.chain = Chain([make_genesis(genesis_config)])
        self.world = genesis_world(genesis_config) if world is None else world
        self.endpoint = ch.Endpoint(keypair, channel_mode, rng)
        self.engine = ConsensusEngine(genesis_config, keypair)
        self.directory = directory  # public key -> transport id
        self.rec = _no_record if recorder is None else recorder

        self.mempool: dict = {}  # tx hash -> Transaction, insertion ordered
        self.pending_conf: dict = {}  # tx hash -> (client pk, received_us)
        self.alerts: list = []
        self._alert_keys: set = set()
        self.busy_until_us = 0

    @property
    def height(self) -> int:
        return self.chain.height

    @property
    def tip_hash(self) -> bytes:
        return self.chain.tip_hash()

    # -- lifecycle -----------------------------------------------------------

    def initial_output(self) -> NodeOutput:
        """Begins height 1: the output arms its round deadline and propose wake."""
        return self._post_engine(NodeOutput(), 0, self.engine.start_height(1, self.chain, 0))

    # -- channel ingress -------------------------------------------------------

    def handle_envelope(self, raw: bytes, now_us: int) -> NodeOutput:
        out = NodeOutput()
        try:
            message = self.endpoint.open(raw, now_us // 1000)
        except ch.CounterRejected as exc:
            sender = exc.message.identification
            if isinstance(exc, ch.NonceReplayed):
                detail = f"nonce={exc.message.nonce} at {self.node_id}"
                self._raise_alert(Alert(AlertKind.REPLAY_DETECTED, self.chain.height, sender, detail, now_us), out)
            return self._reject(out, exc.reason, sender=sender.hex()[:16])
        except ch.ChannelError as exc:
            return self._reject(out, exc.reason, detail=str(exc))
        except DecodeError as exc:
            return self._reject(out, ch.ChannelError.reason, detail=str(exc))

        is_query = message.body[:1] == bytes((Query.WIRE_TAG,))
        try:
            record = Query.decode(message.body) if is_query else Transaction.decode(message.body)
        except DecodeError as exc:
            return self._reject(out, "bad_body", detail=str(exc))
        if is_query:
            return self._serve_query_wire(record, message.identification, now_us, out)
        return self._admit(record, now_us, out, client_pk=message.identification)

    def on_gossip(self, tx: Transaction, now_us: int) -> None:
        self._admit(tx, now_us, None, client_pk=None)

    def _admit(self, tx: Transaction, now_us: int, out: Optional[NodeOutput], client_pk) -> Optional[NodeOutput]:
        """Admits `tx` to the mempool; only a transaction from a device's
        channel (`client_pk` set) is gossiped or raises an alert, so `out` may
        be None for one from a peer."""
        if not verify_transaction(tx):
            return self._reject(out, "bad_tx_signature")
        txh = hash_tx(tx)
        if txh in self.world.finalized:
            # A fresh channel message carrying an already-final transaction is
            # a cross-node replay; late gossip duplicates are a benign race.
            if client_pk is not None:
                detail = f"tx={txh.hex()[:16]} at {self.node_id}"
                self._raise_alert(Alert(AlertKind.REPLAY_DETECTED, self.chain.height, tx.sender, detail, now_us), out)
            return self._reject(out, "tx_already_final")
        if tx.nonce < self.world.next_nonce(tx.sender):
            return self._reject(out, "stale_tx_nonce")
        if txh in self.mempool:
            return self._reject(out, "duplicate")
        if len(self.mempool) >= MEMPOOL_CAP:
            return self._reject(out, "mempool_full")
        self.mempool[txh] = tx
        if client_pk is not None:
            self.pending_conf[txh] = (client_pk, now_us)
            out.sends.append(Send(PEERS, GOSSIP, tx))
            # Only the entry node traces an admission, so the trace grows with tasks, not tasks x nodes.
            self.rec("tx_admitted", tx=txh.hex()[:16], sender=tx.sender.hex()[:16])
        return out

    def _reject(self, out: Optional[NodeOutput], reason: str, **info) -> Optional[NodeOutput]:
        self.rec("rejected", reason=reason, **info)
        return out

    # -- read serving ----------------------------------------------------------

    def _serve_query_wire(self, query: Query, caller: bytes, now_us: int, out: NodeOutput) -> NodeOutput:
        completion = max(now_us, self.busy_until_us) + QUERY_SERVICE_US
        self.busy_until_us = completion
        try:
            readings = read_history(self.world, query.contract_address, caller, query.from_ts, query.to_ts)
            body = QueryReplyBody(0, "", readings)
        except PermissionDenied:
            body = QueryReplyBody(1, "permission_denied", [])
        except UnknownContract:
            body = QueryReplyBody(2, "unknown_contract", [])
        self.rec(
            "query_served",
            caller=caller.hex()[:16],
            status=body.status,
            count=len(body.readings),
            delay_us=completion - now_us,
        )
        dst = self.directory.get(caller)
        if dst is not None:
            raw = self.endpoint.seal(caller, body.encode(), completion // 1000)
            out.sends.append(Send(dst, REPLY, raw, at_us=completion))
        return out

    # -- consensus ---------------------------------------------------------------

    def on_consensus(self, msg: ConsensusMessage, now_us: int) -> Optional[NodeOutput]:
        step = self.engine.on_message(msg, self.chain, now_us)
        return self._post_engine(NodeOutput(), now_us, step) if step else None

    def on_timer(self, key: tuple, now_us: int) -> Optional[NodeOutput]:
        step = self.engine.on_timer(key, now_us)
        if step and key[0] == "round":
            self.rec("round_timeout", height=key[1], round=key[2])
        return self._post_engine(NodeOutput(), now_us, step) if step else None

    def _propose(self, out: NodeOutput, now_us: int, round_: int) -> None:
        pending = list(self.mempool.values())
        block = build_block(pending, self.chain.tip, self.keypair, now_us // 1000, self.genesis_config)
        self.rec("proposed", height=block.header.height, round=round_, txs=len(block.transactions))
        self._post_engine(out, now_us, self.engine.propose(block, now_us))

    def _post_engine(self, out: NodeOutput, now_us: int, step: EngineStep) -> NodeOutput:
        while True:
            out.sends.extend(Send(PEERS, CONSENSUS, msg) for msg in step.messages)
            for alert in step.alerts:
                self._raise_alert(alert, out)
            out.timers.extend(step.timers)
            fin = step.finalized
            if fin is None:
                break
            self._apply_finalized(fin, now_us, out)
            step = self.engine.start_height(fin.header.height + 1, self.chain, now_us)
        if step.propose_round is not None:
            self._propose(out, now_us, step.propose_round)
        return out

    def _apply_finalized(self, block: Block, now_us: int, out: NodeOutput) -> None:
        self.chain.blocks.append(block)
        self.world = next_state(self.world, block, self.genesis_config.gas)
        bh = hash_block(block)
        self.rec(
            "block_finalized",
            height=block.header.height,
            hash=bh.hex()[:16],
            txs=len(block.transactions),
            proposer=block.header.proposer.hex()[:16],
        )
        confirms: dict = {}  # client key -> its ConfirmEntry list, in block order
        for receipt in self.world.receipts:
            txh = receipt.tx_hash
            self.mempool.pop(txh, None)
            pending = self.pending_conf.pop(txh, None)
            if pending is None:
                continue
            # Only the entry node traces a receipt; `replay_chain` rebuilds any node's receipts.
            client_pk, received_us = pending
            delay_us = now_us - received_us
            tx_id = txh.hex()[:16]
            self.rec(
                "receipt",
                tx=tx_id,
                result=receipt.result,
                reason=receipt.reason,
                gas=receipt.gas_used,
                height=receipt.height,
            )
            self.rec("tx_finalized_delay", tx=tx_id, delay_us=delay_us)
            entry = ConfirmEntry(txh, receipt.result, receipt.reason, delay_us)
            confirms.setdefault(client_pk, []).append(entry)
        for client_pk, entries in confirms.items():
            dst = self.directory.get(client_pk)
            if dst is not None:
                body = ConfirmBody(block.header.height, tuple(entries))
                out.sends.append(Send(dst, CONFIRM, self.endpoint.seal(client_pk, body.encode(), now_us // 1000)))

    # -- monitoring -----------------------------------------------------------

    def _raise_alert(self, alert: Alert, out: NodeOutput) -> None:
        if alert.key() in self._alert_keys:
            return
        self._alert_keys.add(alert.key())
        self.alerts.append(alert)
        self.rec(
            "alert", alert_kind=alert.kind, offender=alert.offender.hex()[:16], height=alert.height, detail=alert.detail
        )
        out.sends.append(Send(PEERS, ALERT, alert))

    def on_alert(self, alert: Alert, now_us: int) -> None:
        if alert.key() not in self._alert_keys:
            self._alert_keys.add(alert.key())
            self.alerts.append(alert)
            self.rec("alert_received", alert_kind=alert.kind, height=alert.height)
