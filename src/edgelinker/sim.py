"""Deterministic discrete-event simulation of the device / fog topology.

Virtual time runs in microseconds over a single event heap with stable FIFO
tie-breaking. Every random draw comes from a stream derived from (seed,
label), so link jitter, cipher nonces and actor behavior are reproducible
bit for bit, and adding an attacker never perturbs honest streams.

Scenarios wire devices (patients, doctors) and fog nodes
through a configurable link model, then run either the canonical access
lifecycle (deploy, periodic writes, grant, read, revoke, denied read) or a
benchmark workload. Attack injectors cover replay, eavesdropping, block
insertion, denial-of-service flooding and identity spoofing.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import random
import select
import signal
import threading
from collections import deque
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional, get_args, get_type_hints

from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from . import channel as ch
from .chain import (
    DEFAULT_GAS_LIMIT,
    Block,
    Call,
    Deploy,
    GenesisConfig,
    Query,
    Transaction,
    build_block,
    compute_tx_root,
    hash_block,
    hash_tx,
    make_header,
    make_transaction,
)
from .channel import ChannelMessage, KeyPair, SecureEnvelope, generate_keypair, open_message
from .codec import BYTES, STR, U64, DecodeError, Reader, Record, enc_bytes, enc_u64
from .consensus import Phase, make_message, quorum
from .contracts import (
    HEALTH_RECORD_KIND,
    METHOD_ADD_READING,
    METHOD_GRANT,
    METHOD_REVOKE,
    READ_PERMISSION,
    WRITE_PERMISSION,
    contract_address,
    encode_permission_args,
    encode_reading_args,
    genesis_world,
)
from .node import (
    ALERT,
    CLIENT,
    CONSENSUS,
    GOSSIP,
    PEERS,
    QUERY_SERVICE_US,
    ConfirmBody,
    FogNode,
    NodeOutput,
    QueryReplyBody,
    Send,
)

FULL_RANGE = (0, 2**63)
ACTORS_PER_KIND = 4  # writer and reader devices in a benchmark workload
ACTOR_BALANCE = 10**12  # genesis balance of every workload device

TIMER, WAKE = "Timer", "Wake"  # the loop's events other than a message
NODE_HANDLERS = {  # the FogNode method the loop calls for each kind of a node's event
    CLIENT: "handle_envelope", GOSSIP: "on_gossip", CONSENSUS: "on_consensus", ALERT: "on_alert", TIMER: "on_timer"
}
ATTACKER_ID = "attacker"  # the endpoint id of a scenario's attacker


class ConfigInvalid(ValueError):
    pass


# --- seeded randomness -------------------------------------------------------

def child_seed(master: int, *labels) -> int:
    material = "edgelinker:" + str(master) + ":" + ":".join(str(x) for x in labels)
    return int.from_bytes(hashlib.sha256(material.encode()).digest()[:8], "big")


def child_rng(master: int, *labels) -> random.Random:
    return random.Random(child_seed(master, *labels))


def key_seed(master: int, *labels) -> bytes:
    material = "edgelinker-key:" + str(master) + ":" + ":".join(str(x) for x in labels)
    return hashlib.sha256(material.encode()).digest()


# --- link model ---------------------------------------------------------------

@dataclass
class LinkModel:
    """Per-message delay and loss; defaults model a quiet fog LAN."""

    base_latency_us: int = 1000
    jitter_us: int = 200
    drop_probability: float = 0.0
    partitions: set = field(default_factory=set)  # frozenset pairs of endpoint ids

    def to_dict(self) -> dict:
        return {
            "base_latency_us": self.base_latency_us,
            "jitter_us": self.jitter_us,
            "drop_probability": self.drop_probability,
            "partitions": sorted(sorted(p) for p in self.partitions),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "LinkModel":
        _require_object("link", raw)
        raw = dict(raw)
        _reject_unknown_keys("link", raw, cls)
        pairs = raw.pop("partitions", [])
        if not isinstance(pairs, list) or not all(_is_endpoint_pair(p) for p in pairs):
            raise ConfigInvalid(f"link partitions must be a list of endpoint id pairs, got {pairs!r}")
        return cls(**raw, partitions={frozenset(p) for p in pairs})


# --- trace ---------------------------------------------------------------------

@dataclass
class TraceEvent:
    t_us: int
    src: str
    kind: str
    info: dict


@dataclass
class NodeFinal:
    chain: object
    world: object
    alerts: list
    tip_hash: bytes
    height: int


class SimTrace:
    """Ordered event log plus end-of-run summaries."""

    def __init__(self):
        self.events: list = []
        self.final: dict = {}
        self.counters: dict = {}
        self.meta: dict = {}
        self.attack_stats: dict = {}
        self.genesis = None

    def add(self, t_us: int, src: str, kind: str, info: dict) -> None:
        self.events.append(TraceEvent(t_us, src, kind, info))

    def of_kind(self, kind: str) -> list:
        return [e for e in self.events if e.kind == kind]

    def jsonl(self) -> str:
        lines = [
            json.dumps({"t_us": e.t_us, "src": e.src, "kind": e.kind, **e.info}, sort_keys=True)
            for e in self.events
        ]
        return "\n".join(lines)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.jsonl() + "\n")

    def write_alerts_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("sim_time_us,kind,offender,height\n")
            for node_id in sorted(self.final):
                for alert in self.final[node_id].alerts:
                    fh.write(f"{alert.sim_time_us},{alert.kind},{alert.offender.hex()},{alert.height}\n")


# --- scenario configuration -----------------------------------------------------

@dataclass
class ScenarioConfig:
    nodes: int = 4
    block_interval_ms: int = 1000
    link: LinkModel = field(default_factory=LinkModel)
    duration_s: Optional[float] = None  # simulated span; None: until every wake fired and every response is in
    channel_mode: str = "secure"
    workload: str = "scenario"  # scenario | write | read | mixed | none
    tasks: int = 100
    task_period_us: int = 50  # global spacing between injected tasks
    writes: int = 10
    write_period_ms: int = 60_000
    query_service_us: int = QUERY_SERVICE_US
    attack: Optional[str] = None
    attack_params: dict = field(default_factory=dict)
    byzantine: int = 0
    crashed: int = 0
    stop_at_height: Optional[int] = None
    seed: Optional[int] = None  # default seed when the caller supplies none

    def to_json(self) -> str:
        raw = asdict(self)
        raw["link"] = self.link.to_dict()
        return json.dumps(raw, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        raw = json.loads(text)
        _require_object("scenario", raw)
        _reject_unknown_keys("scenario", raw, cls)
        link = LinkModel.from_dict(raw.pop("link", {}))
        return cls(**raw, link=link)

    def validate(self) -> None:
        _check_field_types("scenario", self)
        _check_field_types("link", self.link)
        if self.nodes < 1:
            raise ConfigInvalid("need at least one node")
        if self.workload not in ("scenario", "write", "read", "mixed", "none"):
            raise ConfigInvalid(f"unknown workload {self.workload!r}")
        if self.channel_mode not in ch.MODES:
            raise ConfigInvalid(f"unknown channel mode {self.channel_mode!r}")
        if self.attack is not None and self.attack not in ATTACK_KINDS:
            raise ConfigInvalid(f"unknown attack {self.attack!r}")
        if self.workload == "none" and self.attack is not None and ATTACKER_CLASSES[self.attack].PLAN_PARAMS:
            raise ConfigInvalid(f"attack {self.attack!r} needs a workload, not 'none'")
        if self.attack is not None:
            # Unchecked without an attack: `cmd_attack`'s baseline runs the same params with attack=None.
            takes = ATTACKER_CLASSES[self.attack].PARAMS
            for key, value in self.attack_params.items():
                if key not in takes:
                    raise ConfigInvalid(f"attack {self.attack!r} reads no param {key!r}, only {list(takes)}")
                if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                    raise ConfigInvalid(f"attack param {key} must be a non-negative int, got {value!r}")
        if self.workload in ("write", "read", "mixed") and self.tasks < 1:
            raise ConfigInvalid(f"workload {self.workload!r} needs at least one task, got {self.tasks!r}")
        for what, record in (("scenario", self), ("link", self.link)):
            for f in fields(record):
                value = getattr(record, f.name)
                if f.name != "seed" and isinstance(value, (int, float)) and value < 0:
                    raise ConfigInvalid(f"{what} field {f.name} must not be negative, got {value!r}")
        if self.block_interval_ms < 1:
            # A zero interval makes a zero round timeout: simulated time never advances.
            raise ConfigInvalid("block_interval_ms must be at least 1")
        needed = quorum(self.nodes)
        if self.nodes - self.crashed - self.byzantine < needed:
            raise ConfigInvalid(f"the honest live nodes must form a quorum of {needed} by themselves")
        if self.crashed and self.byzantine:
            raise ConfigInvalid("use either crashed or byzantine faults, not both")
        if not 0.0 <= self.link.drop_probability <= 1.0:
            raise ConfigInvalid(f"drop probability {self.link.drop_probability} is outside [0, 1]")


def _require_object(what: str, raw) -> None:
    if not isinstance(raw, dict):
        raise ConfigInvalid(f"{what} must be a JSON object, got {raw!r}")


def _is_endpoint_pair(pair) -> bool:
    return isinstance(pair, list) and len(pair) == 2 and all(isinstance(end, str) for end in pair)


def _reject_unknown_keys(what: str, raw: dict, cls) -> None:
    unknown = sorted(set(raw) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigInvalid(f"unknown {what} keys {unknown}")


def _check_field_types(what: str, record) -> None:
    """Every field must hold its annotated type: an int where a float is
    allowed, but never a bool where an int is expected."""
    hints = get_type_hints(type(record))
    for f in fields(record):
        allowed = get_args(hints[f.name]) or (hints[f.name],)
        if float in allowed:
            allowed += (int,)
        value = getattr(record, f.name)
        if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
            names = " or ".join(t.__name__ for t in allowed)
            raise ConfigInvalid(f"{what} field {f.name} must be {names}, got {value!r}")


# --- actor plans -----------------------------------------------------------------

@dataclass
class Step:
    at_us: int
    kind: str  # "tx" | "query"
    payload: object
    label: str
    measured: bool = False
    target: Optional[int] = None  # node index; None = actor's primary


# A party is any simulated participant other than a fog node. The simulator
# drives every party the same way: it pushes one wake per entry of
# `schedule()`, calls `wake(tag, now_us)` for the sends it makes, and hands it
# every message addressed to it through `on_receive(raw, src, now_us)`.

class DeviceActor:
    """Schedule-driven device: signs, seals, sends, and matches responses."""

    WAKE_TAIL_US = 0  # an automatic run lasts this long past the last wake

    def __init__(self, actor_id: str, keypair: KeyPair, primary: int, steps: list, sim: "Simulation"):
        self.id = actor_id
        self.keypair = keypair
        self.primary = primary
        self.steps = sorted(steps, key=lambda s: s.at_us)
        self.sim = sim
        self.endpoint = ch.Endpoint(keypair, sim.config.channel_mode, child_rng(sim.seed, "actor", actor_id))
        self.account_nonce = 1
        self.sent_tx: dict = {}  # tx hash -> (t_send, label, measured)
        self.pending_queries: dict = {}  # node id -> deque of (t_send, label, measured)

    def schedule(self) -> list:
        return [(step.at_us, idx) for idx, step in enumerate(self.steps)]

    def prepare(self, idx: int) -> tuple:
        """Step `idx` as it goes out: (node id, sealed bytes, tx hash or None for a read).

        Only this advances the device's account nonce, channel counters and
        cipher-nonce stream, and nothing the device receives changes it: the
        infinite-lookahead case of conservative parallel discrete-event
        simulation (Chandy & Misra 1979), so `RunAhead` may prepare every step
        before the loop wakes the device.
        """
        step = self.steps[idx]
        node_id = f"n{step.target if step.target is not None else self.primary}"
        now_ms = step.at_us // 1000
        if step.kind == "tx":
            tx = make_transaction(self.keypair, self.account_nonce, now_ms, step.payload)
            self.account_nonce += 1
            tx_hash, body = hash_tx(tx), tx.encode()
        else:  # a read is no transaction: the channel signature authenticates it
            tx_hash, body = None, step.payload.encode()
        return node_id, self.endpoint.seal(self.sim.node_keys[node_id].public_key, body, now_ms), tx_hash

    def wake(self, idx: int, now_us: int) -> list:
        step = self.steps[idx]
        node_id, raw, tx_hash = self.sim.prepared(self, idx)
        if tx_hash is None:
            self.pending_queries.setdefault(node_id, deque()).append((now_us, step.label, step.measured))
        else:
            self.sent_tx[tx_hash] = (now_us, step.label, step.measured)
        self.sim.trace.add(now_us, self.id, "task_sent", {"label": step.label, "measured": step.measured})
        self.sim.pending_responses += 1
        return [Send(node_id, CLIENT, raw)]

    def on_receive(self, raw: bytes, src: str, now_us: int) -> None:
        # Node messages are authenticated; their counters are not checked yet.
        node_pk = self.sim.node_keys[src].public_key
        try:
            body = ch.open_wire(raw, self.endpoint.mode, self.keypair.private_key, node_pk).body
            is_confirm = body[:1] == bytes((ConfirmBody.WIRE_TAG,))
            record = ConfirmBody.decode(body) if is_confirm else QueryReplyBody.status_and_count(body)
        except (ch.ChannelError, DecodeError):
            self.sim.trace.add(now_us, self.id, "client_reject", {"from": src})
            return
        if is_confirm:
            for entry in record.entries:
                sent = self.sent_tx.pop(entry.tx_hash, None)
                if sent is None:
                    continue
                t_send, label, measured = sent
                self.sim.trace.add(
                    now_us,
                    self.id,
                    "task_confirmed",
                    {
                        "label": label,
                        "measured": measured,
                        "t_send_us": t_send,
                        "rtt_us": now_us - t_send,
                        "delay_node_us": entry.delay_us,
                        "height": record.height,
                        "tx": entry.tx_hash.hex()[:16],
                        "result": entry.result,
                        "reason": entry.reason,
                    },
                )
                self.sim.pending_responses -= 1
        else:
            queue = self.pending_queries.get(src)
            if not queue:
                return
            t_send, label, measured = queue.popleft()
            status, count = record
            self.sim.trace.add(
                now_us,
                self.id,
                "task_reply",
                {
                    "label": label,
                    "measured": measured,
                    "t_send_us": t_send,
                    "rtt_us": now_us - t_send,
                    "status": status,
                    "count": count,
                },
            )
            self.sim.pending_responses -= 1


# --- attackers -------------------------------------------------------------------

class AttackerBase:
    """A party that wakes COUNT times, PERIOD_US apart from START_US; params
    `start_us`, `period_us` and `count` override the class values."""

    START_US = PERIOD_US = COUNT = 0
    WAKE_TAIL_US = 10_000_000  # room after each wake for the defences to act
    PARAMS: tuple = ("start_us", "period_us", "count")  # the params a scenario config may set
    PLAN_PARAMS: tuple = ()  # params only a workload's plan supplies (see _build_plans)

    def __init__(self, sim: "Simulation", keypair: KeyPair, params: dict):
        self.sim = sim
        self.id = ATTACKER_ID
        self.keypair = keypair
        self.params = params
        self.rng = child_rng(sim.seed, "actor", "attacker")
        self.stats: dict = {}

    def schedule(self) -> list:
        start = self.params.get("start_us", self.START_US)
        period = self.params.get("period_us", self.PERIOD_US)
        count = self.params.get("count", self.COUNT)
        return [(start + i * period, i) for i in range(count)]

    def on_tap(self, src: str, dst: str, raw: bytes, now_us: int) -> None:
        pass

    def on_receive(self, raw: bytes, src: str, now_us: int) -> None:
        pass


class ReplayAttacker(AttackerBase):
    """Records channel bytes in transit and re-sends them verbatim."""

    PARAMS = ("replay_at_us", "gap_us", "max_capture", "max_replay")
    PLAN_PARAMS = ("replay_at_us",)

    def __init__(self, sim, keypair, params):
        super().__init__(sim, keypair, params)
        self.captured: list = []
        self.stats = {"captured": 0, "replayed": 0}

    def schedule(self):
        return [(self.params["replay_at_us"], "replay")]

    def on_tap(self, src, dst, raw, now_us):
        if len(self.captured) < self.params.get("max_capture", 100_000):
            self.captured.append((dst, raw))
            self.stats["captured"] = len(self.captured)

    def wake(self, tag, now_us):
        gap = self.params.get("gap_us", 2000)
        limit = self.params.get("max_replay", len(self.captured))
        sends = []
        for i, (dst, raw) in enumerate(self.captured[:limit]):
            sends.append(Send(dst, CLIENT, raw, at_us=now_us + i * gap))
        self.stats["replayed"] = len(sends)
        self.sim.trace.add(now_us, self.id, "attack_replay", {"count": len(sends)})
        return sends


class EavesdropAttacker(AttackerBase):
    """Passive capture plus offline decryption attempts with the wrong key."""

    PARAMS = PLAN_PARAMS = ("attempt_at_us",)

    def __init__(self, sim, keypair, params):
        super().__init__(sim, keypair, params)
        self.captured: list = []
        self.stats = {"captured": 0, "attempts": 0, "failures": 0}

    def schedule(self):
        return [(self.params["attempt_at_us"], "attempt")]

    def on_tap(self, src, dst, raw, now_us):
        self.captured.append(raw)
        self.stats["captured"] = len(self.captured)

    def wake(self, tag, now_us):
        for raw in self.captured:
            self.stats["attempts"] += 1
            try:
                env = SecureEnvelope.from_bytes(raw)
                open_message(env, self.keypair.private_key, env.sender_hint)
            except (ch.ChannelError, DecodeError):
                self.stats["failures"] += 1
        self.sim.trace.add(now_us, self.id, "attack_eavesdrop", dict(self.stats))
        return []


class InsertionAttacker(AttackerBase):
    """Outsider fabricating blocks with forged transactions."""

    START_US, PERIOD_US, COUNT = 2_000_000, 2_000_000, 5

    def __init__(self, sim, keypair, params):
        super().__init__(sim, keypair, params)
        self.stats = {"forged": 0}

    def wake(self, tag, now_us):
        height = int(tag) + 1
        now_ms = now_us // 1000
        # An all-zero signature: the transaction is broken on purpose.
        forged_tx = Transaction(
            self.keypair.public_key, 1, now_ms, Deploy(HEALTH_RECORD_KIND, b""), DEFAULT_GAS_LIMIT, bytes(64)
        )
        header = make_header(
            self.keypair,
            height=height,
            timestamp=now_ms,
            prev_hash=hashlib.sha256(b"forged-parent" + enc_u64(height)).digest(),
            tx_root=compute_tx_root([forged_tx]),
        )
        block = Block(header=header, transactions=(forged_tx,))
        msg = make_message(self.keypair, Phase.PRE_PREPARE, height, 0, hash_block(block), block)
        self.stats["forged"] += 1
        self.sim.trace.add(now_us, self.id, "attack_insertion", {"height": height})
        return [Send(f"n{i}", CONSENSUS, msg) for i in range(self.sim.config.nodes)]


class DoSAttacker(AttackerBase):
    """Floods permission-denied contract calls until fees drain its balance."""

    START_US, PERIOD_US = 5_000_000, 300_000
    PARAMS = AttackerBase.PARAMS + ("balance",)
    PLAN_PARAMS = ("contract", "balance")

    def __init__(self, sim, keypair, params):
        super().__init__(sim, keypair, params)
        # Enough calls to drain the balance in fees, and three more; a `count` param wins.
        self.COUNT = params["balance"] // sim.genesis.gas.add_data + 3
        self.nonce = 1
        self.endpoint = ch.Endpoint(keypair, sim.config.channel_mode, self.rng)
        self.stats = {"flood_sent": 0, "balance": params["balance"]}

    def wake(self, tag, now_us):
        contract = self.params["contract"]
        args = encode_reading_args(now_us // 1000, 77)
        tx = make_transaction(self.keypair, self.nonce, now_us // 1000, Call(contract, METHOD_ADD_READING, args))
        self.nonce += 1
        raw = self.endpoint.seal(self.sim.node_keys["n0"].public_key, tx.encode(), now_us // 1000)
        self.stats["flood_sent"] += 1
        self.sim.trace.add(now_us, self.id, "attack_dos_call", {"nonce": tx.nonce})
        return [Send("n0", CLIENT, raw)]


class SpoofAttacker(AttackerBase):
    """Claims another device's identity without holding its private key."""

    START_US, PERIOD_US, COUNT = 2_000_000, 500_000, 10
    PLAN_PARAMS = ("victim",)

    def __init__(self, sim, keypair, params):
        super().__init__(sim, keypair, params)
        self.stats = {"spoof_sent": 0}

    def wake(self, tag, now_us):
        victim_pk = self.params["victim"]
        node_id = "n0"
        node_pk = self.sim.node_keys[node_id].public_key
        tx = make_transaction(self.keypair, 1, now_us // 1000, Deploy(HEALTH_RECORD_KIND, b""))
        # A counter far past the victim's; the forgery fails before any counter is checked.
        message = ChannelMessage(now_us // 1000, 101 + int(tag), victim_pk, tx.encode())
        encoded = message.encode()
        digest = hashlib.sha256(encoded).digest()
        signature = ch.sign_digest(self.keypair.private_key, digest)
        key = ch.derive_shared_key(self.keypair.private_key, node_pk)
        aead_nonce = self.rng.randbytes(12)
        ciphertext = aead_nonce + ChaCha20Poly1305(key).encrypt(aead_nonce, encoded + signature, None)
        # Alternate between claiming the victim in the hint and in the body.
        hint = victim_pk if int(tag) % 2 == 0 else self.keypair.public_key
        env = SecureEnvelope(sender_hint=hint, ciphertext=ciphertext)
        self.stats["spoof_sent"] += 1
        self.sim.trace.add(now_us, self.id, "attack_spoof", {"variant": int(tag) % 2})
        return [Send(node_id, CLIENT, env.to_bytes())]


ATTACKER_CLASSES = {
    "replay": ReplayAttacker,
    "eavesdrop": EavesdropAttacker,
    "insertion": InsertionAttacker,
    "dos": DoSAttacker,
    "spoof": SpoofAttacker,
}
ATTACK_KINDS = tuple(ATTACKER_CLASSES)


class EquivocatingNode(FogNode):
    """Byzantine authority: proposes two blocks and votes both ways."""

    def _propose(self, out: NodeOutput, now_us: int, round_: int) -> None:
        tip = self.chain.tip
        now_ms = now_us // 1000
        block_a = build_block([], tip, self.keypair, now_ms, authorities=self.genesis_config.authorities)
        block_b = build_block([], tip, self.keypair, now_ms + 7, authorities=self.genesis_config.authorities)
        height = block_a.header.height
        step = self.engine.propose(block_a, now_us)
        half = (len(self.peer_ids) + 1) // 2
        group_a, group_b = self.peer_ids[:half], self.peer_ids[half:]
        for msg in step.messages:
            for peer in group_a:
                out.sends.append(Send(peer, CONSENSUS, msg))
        bh_b = hash_block(block_b)
        forged = [
            make_message(self.keypair, Phase.PRE_PREPARE, height, round_, bh_b, block_b),
            make_message(self.keypair, Phase.PREPARE, height, round_, bh_b),
            make_message(self.keypair, Phase.COMMIT, height, round_, bh_b),
        ]
        for msg in forged:
            for peer in group_b:
                out.sends.append(Send(peer, CONSENSUS, msg))
        self.rec("equivocating_proposal", height=height, round=round_)
        # Its messages went to group A alone; the rest of the step is handled as usual.
        self._post_engine(out, now_us, replace(step, messages=()))


# --- devices run ahead of the loop ---------------------------------------------------

RUN_AHEAD_TIMEOUT_S = 1.0  # longest wait for the next record before the loop prepares inline
AHEAD = 48  # records the child must have written past the loop's before it verifies the loop's signatures
BACKLOG = 64  # the loop's newest signatures the child keeps to verify; older ones are dropped unverified
VERDICTS_KEPT = 1 << 15  # handed verdicts not yet taken; past this the oldest is dropped
TRIPLE_LEN = 2 * ch.KEY_LEN + ch.SIG_LEN  # a triple over a SHA-256 digest, the only kind either process hands over
REQUEST_LEN = TRIPLE_LEN + 8  # a triple, then the records the loop had taken, big-endian
VERDICT_LEN = TRIPLE_LEN + 1  # a triple, then 1 when its signature verifies, else 0
# Each request and verdict is one write below PIPE_BUF, so it arrives whole, and
# reads of whole ones never split one.


def _can_run_ahead() -> bool:
    """A second process helps only on a second CPU, and forking is safe only without other threads."""
    cpus = getattr(os, "sched_getaffinity", lambda _pid: ())(0)
    return hasattr(os, "fork") and len(cpus) >= 2 and threading.active_count() == 1


@dataclass
class PreparedWake(Record):
    """One device wake as the run-ahead child prepared it: what `DeviceActor.prepare`
    returned, and the verdict on every signature over a SHA-256 digest that made."""

    device: str
    step: int
    node: str
    sealed: bytes
    tx_hash: bytes  # empty for a read
    verdicts: bytes  # in the verdict pipe's format: each TRIPLE_LEN triple, then its verdict byte

    WIRE_TAG = None  # the pipe carries nothing else
    LAYOUT = (
        ("device", STR),
        ("step", U64),
        ("node", STR),
        ("sealed", BYTES),
        ("tx_hash", BYTES),
        ("verdicts", BYTES),
    )


class RunAhead:
    """One forked process that prepares each device wake of a run before the
    loop needs it, and verifies the loop's own signatures while it is ahead.

    For each device wake, in the heap's dispatch order, the child calls
    `DeviceActor.prepare`, verifies every signature over a SHA-256 digest that
    made (the loop verifies any other itself), and writes one length-prefixed
    `PreparedWake` to the record pipe. Each signature the loop makes meanwhile
    goes to the child on the request pipe, with the count of records the loop
    has taken. The child verifies the newest of them while it has written more
    than AHEAD records the loop has not taken, or once every record is
    written, and sends each verdict back on the verdict pipe, which `verdict`
    reads when it holds no verdict on a triple. Records and the verdict pipe
    carry verdicts in one format, filed by `_file_all`. Nothing waits on a
    request or a verdict: one that finds its pipe full is dropped, and the
    loop then verifies inline.

    It is `channel.helper` until `close`, which drops the verdicts not taken.
    """

    def __init__(self, order: list):
        self.order = order  # (device, step index) of each record, in dispatch order
        self.taken = 0  # records taken so far
        self.handed: dict = {}  # triple -> verdict handed over and not yet taken, oldest first
        self._buf = b""  # bytes read from the pipe, compacted only when a chunk is appended
        self._pos = 0  # offset in _buf of the first record not yet taken
        fds: list = []  # (read end, write end) of the record, request and verdict pipes
        try:
            for _pipe in range(3):
                fds += os.pipe()
            self.pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        records, to_records, from_requests, requests, verdicts, to_verdicts = fds
        if self.pid == 0:
            for fd in (records, requests, verdicts):
                os.close(fd)
            _run_ahead_main(order, to_records, from_requests, to_verdicts)
        for fd in (to_records, from_requests, to_verdicts):
            os.close(fd)
        self.fd, self._requests, self._verdicts = records, requests, verdicts
        os.set_blocking(requests, False)
        os.set_blocking(verdicts, False)
        ch.helper = self

    def signed(self, triple: bytes) -> None:
        """Ask the child to verify a signature the loop made."""
        if len(triple) == TRIPLE_LEN:
            try:
                os.write(self._requests, triple + self.taken.to_bytes(8, "big"))
            except OSError:  # the pipe is full (the child is stopped or busy) or the child is gone
                pass

    def verdict(self, triple: bytes) -> Optional[bool]:
        """The verdict handed over on `triple`, taken once; None when the child
        has sent none back so far."""
        verdict = self.handed.pop(triple, None)
        if verdict is None:
            self._file_verdicts()
            verdict = self.handed.pop(triple, None)
        return verdict

    def _file(self, triple: bytes, verdict: bool) -> None:
        """Hand over the verdict on `triple`, to be taken once."""
        handed = self.handed
        handed[triple] = verdict
        if len(handed) > VERDICTS_KEPT:
            del handed[next(iter(handed))]

    def _file_all(self, data: bytes) -> None:
        """Hand over each verdict in `data`, a TRIPLE_LEN triple, then 1 when
        its signature verifies, else 0; DecodeError, filing none, when `data`
        is not a whole number of them."""
        if len(data) % VERDICT_LEN:
            raise DecodeError(f"{len(data)} bytes are not a whole number of {VERDICT_LEN}-byte verdicts")
        for at in range(0, len(data), VERDICT_LEN):
            self._file(data[at : at + TRIPLE_LEN], data[at + TRIPLE_LEN] == 1)

    def _file_verdicts(self) -> None:
        """File every verdict the child has sent back so far."""
        while True:
            try:
                data = os.read(self._verdicts, VERDICT_LEN * BACKLOG)
            except BlockingIOError:
                return
            self._file_all(data)
            if len(data) < VERDICT_LEN * BACKLOG:  # the pipe is empty, or the child has ended
                return

    def take(self, actor_id: str, idx: int) -> Optional[tuple]:
        """The next record as `prepare` returns it, with its verdicts filed;
        None when the child has ended, broke off a record or sent nothing for
        RUN_AHEAD_TIMEOUT_S."""
        buf, start = self._buf, self._pos
        # With fewer than 4 bytes buffered the prefix reads short, and the end still lies past the buffer.
        while len(buf) < (end := start + 4 + int.from_bytes(buf[start : start + 4], "big")):
            if not select.select([self.fd], [], [], RUN_AHEAD_TIMEOUT_S)[0]:
                return None
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                return None
            buf, start = buf[start:] + chunk, 0
            self._buf, self._pos = buf, start
        r = Reader(buf, start + 4, end)
        self._pos = end
        wake = PreparedWake.read(r)
        r.expect_eof()
        if (wake.device, wake.step) != (actor_id, idx):
            raise RuntimeError(f"run-ahead record for {(wake.device, wake.step)}, but the loop wakes {(actor_id, idx)}")
        self._file_all(wake.verdicts)
        self.taken += 1
        return wake.node, wake.sealed, wake.tx_hash or None

    def close(self) -> None:
        """Stop serving as `channel.helper`, drop the verdicts not taken, close
        the pipes, and end and reap the child."""
        ch.helper = None
        self.handed.clear()
        for fd in (self.fd, self._requests, self._verdicts):
            os.close(fd)
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)


class _Recorder(list):
    """The child's `channel.helper`: it lists each triple signed, and hands over no verdict."""

    signed = list.append

    def verdict(self, _triple: bytes) -> None:
        return None


def _verdict(triple: bytes) -> bytes:
    """`triple`, then its verdict byte, as the verdict pipe and `PreparedWake` carry it."""
    return triple + bytes((ch.verify_triple(triple),))


def _run_ahead_main(order: list, records: int, requests: int, verdicts: int) -> None:
    """The child's whole life; it leaves only through os._exit, so it never
    runs the parent's exit handlers. Its writes never block: it waits only in
    `select`, so while it is ahead a request is read as soon as it comes. It
    ends when the loop closes the request pipe."""
    try:
        os.set_blocking(records, False)
        os.set_blocking(verdicts, False)
        plan = iter(order)
        backlog: deque = deque(maxlen=BACKLOG)  # the newest requests' triples, newest last
        unsent = memoryview(b"")  # the part of the current record the record pipe has not taken
        written = taken = 0  # records written whole; records the loop had taken at its last request
        planned = False  # every record is prepared
        ch.helper = signed = _Recorder()
        while True:
            if not unsent and not planned:
                step = next(plan, None)
                if step is None:
                    planned = True
                else:
                    actor, idx = step
                    node_id, raw, tx_hash = actor.prepare(idx)
                    checked = b"".join([_verdict(triple) for triple in signed if len(triple) == TRIPLE_LEN])
                    signed.clear()
                    wake = PreparedWake(actor.id, idx, node_id, raw, tx_hash or b"", checked)
                    unsent = memoryview(enc_bytes(wake.encode()))
            if unsent:
                try:
                    unsent = unsent[os.write(records, unsent) :]
                except BlockingIOError:  # the record pipe is full
                    pass
                if not unsent:
                    written += 1
            # Behind the loop, the child only prepares, as if it had no requests.
            ahead = planned or written - taken > AHEAD
            if ahead and backlog:
                try:
                    os.write(verdicts, _verdict(backlog.pop()))
                except BlockingIOError:  # the loop has not read the verdicts sent; drop this one
                    pass
            if ahead or unsent:
                busy = (ahead and backlog) or not (unsent or planned)
                if select.select([requests] if ahead else [], [records] if unsent else [], [], 0 if busy else None)[0]:
                    data = os.read(requests, REQUEST_LEN * BACKLOG)
                    if not data:  # the loop is done with this run
                        return
                    for at in range(0, len(data), REQUEST_LEN):
                        backlog.append(data[at : at + TRIPLE_LEN])
                    taken = int.from_bytes(data[-8:], "big")
    finally:
        os._exit(0)


# --- simulation -------------------------------------------------------------------

class Simulation:
    def __init__(self, config: ScenarioConfig, seed: int):
        config.validate()
        self.config = config
        self.seed = seed
        self.now_us = 0
        self._seq = 0
        self.heap: list = []
        self.trace = SimTrace()
        self.inflight = 0  # messages on the heap; the others sent were delivered or dropped
        self.pending_responses = 0
        self.sent_count = 0
        self.dropped_count = 0
        self.stop = False

        n = config.nodes
        self.node_ids = [f"n{i}" for i in range(n)]
        self.node_keys = {f"n{i}": generate_keypair(key_seed(seed, "node", i)) for i in range(n)}
        authorities = [self.node_keys[i_].public_key for i_ in self.node_ids]
        self.crashed = set(self.node_ids[n - config.crashed :]) if config.crashed else set()
        byz_ids = set(self.node_ids[n - config.byzantine :]) if config.byzantine else set()
        self.honest_ids = [i_ for i_ in self.node_ids if i_ not in byz_ids and i_ not in self.crashed]

        plans, balances, attacker_needs = _build_plans(self, config)
        genesis = GenesisConfig(
            authorities=authorities,
            initial_balances=balances,
            block_interval_ms=config.block_interval_ms,
        )
        self.genesis = genesis

        directory = {}
        for node_id in self.node_ids:
            directory[self.node_keys[node_id].public_key] = node_id

        self.actors: dict = {}
        for actor_id, keypair, primary, steps in plans:
            directory[keypair.public_key] = actor_id
            self.actors[actor_id] = DeviceActor(actor_id, keypair, primary, steps, self)

        self.nodes: dict = {}
        world = genesis_world(genesis)  # one genesis state, so every node shares each state it reaches
        for node_id in self.node_ids:
            cls = EquivocatingNode if node_id in byz_ids else FogNode
            self.nodes[node_id] = cls(
                node_id=node_id,
                keypair=self.node_keys[node_id],
                genesis_config=genesis,
                peer_ids=self.node_ids,
                directory=directory,
                channel_mode=config.channel_mode,
                query_service_us=config.query_service_us,
                recorder=self._recorder(node_id),
                rng=child_rng(seed, "nodecrypto", node_id),
                world=world,
            )

        self.attacker = None
        if config.attack is not None:
            attacker_kp = generate_keypair(key_seed(seed, "attacker"))
            params = dict(attacker_needs)
            params.update(config.attack_params)
            self.attacker = ATTACKER_CLASSES[config.attack](self, attacker_kp, params)
            directory[attacker_kp.public_key] = self.attacker.id
        self.parties: dict = dict(self.actors)
        if self.attacker is not None:
            self.parties[self.attacker.id] = self.attacker
        # The attacker counts even without an attack: `cmd_attack`'s baseline runs the same link.
        endpoints = set(self.nodes) | set(self.parties) | {ATTACKER_ID}
        for pair in config.link.partitions:
            if len(pair) != 2 or not pair <= endpoints:
                raise ConfigInvalid(f"link partition {sorted(pair)} must join two of the endpoints {sorted(endpoints)}")

        self._link_rngs: dict = {}  # (src, dst, kind) -> that link's delay stream
        # Each node's broadcast recipients: its peers in id order, without the crashed ones.
        self._live_peers = {i_: [p for p in node.peer_ids if p not in self.crashed] for i_, node in self.nodes.items()}
        self._handlers: dict = {}  # (node id, message or TIMER kind) -> handler, bound by run()
        self._ahead: Optional[RunAhead] = None  # the run-ahead process, only inside run()

        wakes = [(at_us, party, tag) for party in self.parties.values() for at_us, tag in party.schedule()]
        duration_s = self._auto_duration(wakes) if config.duration_s is None else config.duration_s
        self.duration_us = int(duration_s * 1_000_000)

        for node_id in self.node_ids:
            if node_id in self.crashed:
                continue
            out = self.nodes[node_id].initial_output()
            self._emit(node_id, out)
        for at_us, party, tag in wakes:
            self._push(at_us, (None, party.id, WAKE, tag))
        self.total_wakes = self.remaining_wakes = len(wakes)

    def _recorder(self, node_id: str):
        """A node's trace sink: each event is stamped with the loop's clock and the node's id."""

        def record(kind: str, **info) -> None:
            self.trace.add(self.now_us, node_id, kind, info)

        return record

    def _auto_duration(self, wakes: list) -> float:
        last = max((at_us + party.WAKE_TAIL_US for at_us, party, _tag in wakes), default=0)
        margin = 60 * self.config.block_interval_ms * 1000 + 30_000_000
        return (last + margin) / 1_000_000

    # -- event machinery ------------------------------------------------------
    # A heap entry is (time, push number, (src, dst, kind, body)): a message
    # of one of node.py's kinds from `src`, or, with no `src` and kind TIMER
    # or WAKE, a node's timer key or a party's wake tag.

    def _push(self, t_us: int, item: tuple) -> None:
        self._seq += 1
        heapq.heappush(self.heap, (t_us, self._seq, item))

    def send(self, src: str, dsts, kind: str, body, depart_us: int) -> None:
        """Puts one message from `src` on the link to each of `dsts`, in order;
        sends to a crashed node are not counted, and a crashed node never
        sends. Each (src, dst, kind) link draws from a stream of its own, so
        extra alert or attack traffic never perturbs honest flows: nothing on
        a partitioned pair, else `random()` for the drop if its probability is
        above 0, then `randrange(jitter_us + 1)` if there is jitter. The
        attacker sees each device message a link accepts as it departs."""
        crashed = self.crashed
        link = self.config.link
        cuts, drop_p, span = link.partitions, link.drop_probability, link.jitter_us + 1
        bits = span.bit_length()
        base_us = depart_us + link.base_latency_us
        rngs, heap, seq = self._link_rngs, self.heap, self._seq
        tap = self.attacker if kind == CLIENT and src in self.actors else None
        sent = dropped = 0
        for dst in dsts:
            if dst in crashed:
                continue
            sent += 1
            if cuts and frozenset((src, dst)) in cuts:
                dropped += 1
                continue
            rng = rngs.get((src, dst, kind))
            if rng is None:
                rng = rngs[src, dst, kind] = child_rng(self.seed, "link", src, dst, kind)
            if drop_p > 0 and rng.random() < drop_p:
                dropped += 1
                continue
            arrival = base_us
            if span > 1:
                # rng.randrange(span), drawn the way CPython's Random draws it, without its two calls
                jitter = rng.getrandbits(bits)
                while jitter >= span:
                    jitter = rng.getrandbits(bits)
                arrival += jitter
            seq += 1
            heapq.heappush(heap, (arrival, seq, (src, dst, kind, body)))
            if tap is not None:
                tap.on_tap(src, dst, body, depart_us)
        self._seq = seq
        self.sent_count += sent
        self.dropped_count += dropped
        self.inflight += sent - dropped

    def _send_all(self, src: str, sends: list) -> None:
        now = self.now_us
        for item in sends:
            dsts = self._live_peers[src] if item.dst == PEERS else (item.dst,)
            self.send(src, dsts, item.kind, item.body, now if item.at_us is None else max(item.at_us, now))

    def _emit(self, src: str, out: NodeOutput) -> None:
        self._send_all(src, out.sends)
        for at_us, key in out.timers:
            self._push(at_us, (None, src, TIMER, key))

    def run(self) -> SimTrace:
        # Bound now, not at construction: a handler replaced on the class in between is the one called.
        self._handlers = {
            (i_, kind): getattr(node, name) for i_, node in self.nodes.items() for kind, name in NODE_HANDLERS.items()
        }
        order = self._queued_device_wakes()
        if order and _can_run_ahead():
            try:
                self._ahead = RunAhead(order)
            except OSError:  # no process or pipe to spare
                pass
        heap, duration_us, dispatch = self.heap, self.duration_us, self._dispatch
        # Only a stop height can stop the run while wakes remain.
        watch_height = self.config.stop_at_height is not None
        try:
            while heap and not self.stop:
                t_us, _seq, item = heapq.heappop(heap)
                if t_us > duration_us:
                    break
                self.now_us = t_us
                dispatch(item)
                if watch_height or not self.remaining_wakes:
                    self._check_stop()
        finally:
            if self._ahead is not None:
                self._ahead.close()
                self._ahead = None
        self._finish()
        return self.trace

    def _queued_device_wakes(self) -> list:
        """(device, step index) of each queued device wake, in the order the heap pops them."""
        queued = sorted(entry for entry in self.heap if entry[2][2] == WAKE and entry[2][1] in self.actors)
        return [(self.actors[party_id], idx) for _t, _seq, (_src, party_id, _wake, idx) in queued]

    def prepared(self, actor: DeviceActor, idx: int) -> tuple:
        """`actor.prepare(idx)`, from the run-ahead process while one serves the run.

        When it fails, it is ended, the steps it prepared are prepared again
        here to bring each device's counters and cipher stream up to date, and
        the run goes on inline."""
        ahead = self._ahead
        if ahead is not None:
            record = ahead.take(actor.id, idx)
            if record is not None:
                return record
            self._ahead = None
            ahead.close()
            for taken_actor, taken_idx in ahead.order[: ahead.taken]:
                taken_actor.prepare(taken_idx)
        return actor.prepare(idx)

    def _dispatch(self, item: tuple) -> None:
        src, dst, kind, body = item
        if src is not None:  # a heap entry is a message exactly when it has a sender
            self.inflight -= 1
        handler = self._handlers.get((dst, kind))
        if handler is not None:  # a node's message or timer
            out = handler(body, self.now_us)
            if out is not None:
                self._emit(dst, out)
        elif kind == WAKE:
            self.remaining_wakes -= 1
            self._send_all(dst, self.parties[dst].wake(body, self.now_us))
        elif dst in self.parties:  # a message for a party; one of a kind no node handles goes nowhere
            self.parties[dst].on_receive(body, src, self.now_us)

    def _check_stop(self) -> None:
        cfg = self.config
        if cfg.stop_at_height is not None:
            for node_id in self.honest_ids:
                if self.nodes[node_id].chain.height >= cfg.stop_at_height:
                    self.stop = True
                    return
        if (
            cfg.duration_s is None
            and self.total_wakes > 0
            and self.remaining_wakes == 0
            and self.pending_responses <= 0
            and self.inflight == 0
        ):
            self.stop = True

    def _finish(self) -> None:
        for node_id in self.node_ids:
            node = self.nodes[node_id]
            self.trace.final[node_id] = NodeFinal(
                chain=node.chain,
                world=node.world,
                alerts=list(node.alerts),
                tip_hash=node.chain.tip_hash(),
                height=node.chain.height,
            )
        self.trace.counters = {
            "sent": self.sent_count,
            "delivered": self.sent_count - self.dropped_count - self.inflight,
            "dropped": self.dropped_count,
            "in_flight_at_stop": self.inflight,
            "pending_responses": self.pending_responses,
            "end_us": self.now_us,
        }
        self.trace.genesis = self.genesis
        self.trace.meta = {
            "seed": self.seed,
            "nodes": self.config.nodes,
            "workload": self.config.workload,
            "channel_mode": self.config.channel_mode,
            "attack": self.config.attack or "",
            "honest": list(self.honest_ids),
        }
        if self.attacker is not None:
            self.trace.attack_stats = dict(self.attacker.stats)


# --- plan builders ------------------------------------------------------------------

def _build_plans(sim: Simulation, config: ScenarioConfig):
    """Returns (plans, genesis balances, attacker default params)."""
    seed = sim.seed
    interval_us = config.block_interval_ms * 1000
    balances: dict = {}
    plans: list = []
    attacker_needs: dict = {}

    if config.workload == "none":
        return plans, balances, attacker_needs

    admin_kp = generate_keypair(key_seed(seed, "actor", "patient0"))
    contract = contract_address(admin_kp.public_key, 1)
    balances[admin_kp.public_key] = ACTOR_BALANCE

    admin_steps = [
        Step(200_000, "tx", Deploy(HEALTH_RECORD_KIND, b""), "deploy"),
        Step(260_000, "tx", Call(contract, METHOD_GRANT, encode_permission_args(WRITE_PERMISSION, admin_kp.public_key)), "grant_write_self"),
    ]
    next_admin_at = 320_000

    if config.workload == "scenario":
        doctor_kp = generate_keypair(key_seed(seed, "actor", "doctor0"))
        balances[doctor_kp.public_key] = ACTOR_BALANCE
        period = config.write_period_ms * 1000
        first_write = max(4 * interval_us, 1_000_000)
        for i in range(config.writes):
            at = first_write + i * period
            args = encode_reading_args(at // 1000, 60 + (i % 40))
            admin_steps.append(Step(at, "tx", Call(contract, METHOD_ADD_READING, args), "write", measured=True))
        writes_end = first_write + max(config.writes - 1, 0) * period
        pause = max(8 * interval_us, 2_000_000)
        grant_at = writes_end + pause
        read1_at = grant_at + pause
        revoke_at = read1_at + pause
        read2_at = revoke_at + pause
        admin_steps.append(
            Step(grant_at, "tx", Call(contract, METHOD_GRANT, encode_permission_args(READ_PERMISSION, doctor_kp.public_key)), "grant_read")
        )
        admin_steps.append(
            Step(revoke_at, "tx", Call(contract, METHOD_REVOKE, encode_permission_args(READ_PERMISSION, doctor_kp.public_key)), "revoke_read")
        )
        doctor_steps = [
            Step(read1_at, "query", Query(contract, *FULL_RANGE), "read_granted", measured=True),
            Step(read2_at, "query", Query(contract, *FULL_RANGE), "read_revoked", measured=True),
        ]
        plans.append(("patient0", admin_kp, 0, admin_steps))
        plans.append(("doctor0", doctor_kp, 0, doctor_steps))
        attacker_needs = {
            "replay_at_us": read2_at + pause,
            "attempt_at_us": read2_at + pause,
            "contract": contract,
            "victim": admin_kp.public_key,
        }

    elif config.workload in ("write", "read", "mixed"):
        tasks = config.tasks
        start = 6 * interval_us
        writer_kps, reader_kps = [], []
        write_tasks = tasks if config.workload == "write" else (tasks // 2 if config.workload == "mixed" else 0)
        read_tasks = tasks if config.workload == "read" else (tasks - tasks // 2 if config.workload == "mixed" else 0)
        n_writers = min(ACTORS_PER_KIND, write_tasks)
        n_readers = min(ACTORS_PER_KIND, read_tasks)
        # Per (sender, node) spacing must stay above the jitter bound, or
        # reordered arrivals would trip the channel's nonce-gap guard.
        fan_out = min(n for n in (n_writers, n_readers) if n) if (n_writers or n_readers) else 1
        period = max(config.task_period_us, config.link.jitter_us // fan_out + 1)

        for j in range(n_writers):
            kp = generate_keypair(key_seed(seed, "actor", f"writer{j}"))
            writer_kps.append(kp)
            balances[kp.public_key] = ACTOR_BALANCE
            admin_steps.append(
                Step(next_admin_at, "tx", Call(contract, METHOD_GRANT, encode_permission_args(WRITE_PERMISSION, kp.public_key)), "grant_write")
            )
            next_admin_at += 50_000
        for j in range(n_readers):
            kp = generate_keypair(key_seed(seed, "actor", f"reader{j}"))
            reader_kps.append(kp)
            balances[kp.public_key] = ACTOR_BALANCE
            admin_steps.append(
                Step(next_admin_at, "tx", Call(contract, METHOD_GRANT, encode_permission_args(READ_PERMISSION, kp.public_key)), "grant_read")
            )
            next_admin_at += 50_000
        if read_tasks:
            for i in range(5):  # a few readings so queries return data
                args = encode_reading_args((next_admin_at + i) // 1000, 70 + i)
                admin_steps.append(Step(next_admin_at, "tx", Call(contract, METHOD_ADD_READING, args), "seed_write"))
                next_admin_at += 50_000
        plans.append(("patient0", admin_kp, 0, admin_steps))

        for g in range(write_tasks):
            j = g % n_writers
            at = start + g * period
            args = encode_reading_args(at // 1000, 60 + (g % 40))
            step = Step(at, "tx", Call(contract, METHOD_ADD_READING, args), "write", measured=True)
            _append_step(plans, f"writer{j}", writer_kps[j], 0, step)
        live_nodes = config.nodes - config.crashed  # crashed nodes are the last ids, and never answer
        for g in range(read_tasks):
            j = g % n_readers
            at = start + g * period
            step = Step(at, "query", Query(contract, *FULL_RANGE), "read", measured=True, target=g % live_nodes)
            _append_step(plans, f"reader{j}", reader_kps[j], 0, step)
        quiesce_at = start + max(write_tasks + read_tasks, 1) * period + 20 * interval_us
        attacker_needs = {
            "replay_at_us": quiesce_at,
            "attempt_at_us": quiesce_at,
            "contract": contract,
            "victim": admin_kp.public_key,
        }

    if config.attack == "dos":
        attacker_kp = generate_keypair(key_seed(seed, "attacker"))
        balance = config.attack_params.get("balance", 100_000)
        balances[attacker_kp.public_key] = balance
        attacker_needs["balance"] = balance

    return plans, balances, attacker_needs


def _append_step(plans: list, actor_id: str, keypair: KeyPair, primary: int, step: Step) -> None:
    for existing_id, _kp, _primary, steps in plans:
        if existing_id == actor_id:
            steps.append(step)
            return
    plans.append((actor_id, keypair, primary, [step]))


# --- public entry points ---------------------------------------------------------------

def run_scenario(config: ScenarioConfig, seed: int) -> SimTrace:
    """Execute one configured scenario to completion and return its trace."""
    return Simulation(config, seed).run()

