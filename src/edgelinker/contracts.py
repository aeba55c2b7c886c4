"""Deterministic contract execution: permissions, health records, gas.

The permission table is a mapping from 32-byte permission ids to address
sets. Holders of the root permitter permission (id 0x00...00) may grant or
revoke any permission; the deployer receives it at initialization. The
health-record contract keeps an append-only list of (timestamp, heart_rate)
readings gated by write/read permissions; it is the only contract kind, and
a deploy of any other kind fails (`unknown_contract_kind`) after paying its
fee. Because the list only grows, its length names its contents, so each
record keeps the last range it served, with that range's packed bytes, under
the key (from, to, length): a repeated read between two writes neither scans
the log nor packs it again.

Nodes holding one ledger state share its successor: `next_state` applies a
finalized block once, to a copy, and the state before it never changes, so a
node that lags a block still reads its own height. `apply_block` and
`replay_chain` change a state in place and stay the independent oracle.

Gas is charged up front at one coin per unit, including for calls that end
in a permission denial, which is what drains a flooding attacker's balance.
Fees accumulate in a sink account and move to the block proposer when the
enclosing block is applied.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass, field
from typing import Optional

from .chain import Block, Call, Deploy, GasSchedule, GenesisConfig, Transaction, Transfer, hash_block, hash_tx
from .codec import READING, DecodeError, Reader, Readings, cache_field, enc_bytes, enc_list, enc_readings, enc_u64
from .codec import enc_u8

PERMITTER_PERMISSION = bytes(32)
WRITE_PERMISSION = bytes(31) + b"\x01"
READ_PERMISSION = bytes(31) + b"\x02"

FEE_SINK = b"\xfe" * 32

HEALTH_RECORD_KIND = "health_record"

METHOD_ADD_READING = "add_reading"
METHOD_GRANT = "grant"
METHOD_REVOKE = "revoke"

RESULT_OK = "ok"
RESULT_DENIED = "denied"
RESULT_FAILED = "failed"
RESULT_SKIPPED = "skipped"

MAX_HEART_RATE = 0xFFFF


class ContractError(Exception):
    pass


class PermissionDenied(ContractError):
    pass


class UnknownContract(ContractError):
    pass


class BadNonce(ContractError):
    pass


class InsufficientBalance(ContractError):
    pass


# --- permission table (the access-control core) -----------------------------

@dataclass
class PermissionTable:
    permissions: dict = field(default_factory=dict)  # permission id -> set of addresses

    def encode(self) -> bytes:
        parts = [enc_u8(0x10)]
        items = sorted((pid, sorted(addrs)) for pid, addrs in self.permissions.items() if addrs)
        parts.append(enc_u64(len(items)))
        for pid, addrs in items:
            parts.append(enc_bytes(pid))
            parts.append(enc_list(addrs, enc_bytes))
        return b"".join(parts)


def initialize(deployer: bytes) -> PermissionTable:
    """Fresh table whose only entry is the deployer as permitter."""
    return PermissionTable(permissions={PERMITTER_PERMISSION: {deployer}})


def has_permission(table: PermissionTable, permission: bytes, address: bytes) -> bool:
    return address in table.permissions.get(permission, ())


def grant_permission(table: PermissionTable, caller: bytes, permission: bytes, address: bytes) -> PermissionTable:
    """Add address to the permission set; permitter holders only."""
    if not has_permission(table, PERMITTER_PERMISSION, caller):
        raise PermissionDenied("caller lacks permitter permission")
    table.permissions.setdefault(permission, set()).add(address)
    return table


def revoke_permission(table: PermissionTable, caller: bytes, permission: bytes, address: bytes) -> PermissionTable:
    """Remove address from the permission set; removing a non-member is a no-op."""
    if not has_permission(table, PERMITTER_PERMISSION, caller):
        raise PermissionDenied("caller lacks permitter permission")
    table.permissions.get(permission, set()).discard(address)
    return table


# --- contract and world state ----------------------------------------------

@dataclass
class HealthRecordState:
    owner: bytes
    readings: list = field(default_factory=list)  # append-only (timestamp_ms, heart_rate)
    permission_table: PermissionTable = field(default_factory=PermissionTable)
    _last_read: Optional[tuple] = cache_field()  # ((from_ts, to_ts, len(readings)), readings, their bytes)

    def encode(self) -> bytes:
        return enc_u8(0x11) + enc_bytes(self.owner) + enc_readings(self.readings) + self.permission_table.encode()


@dataclass
class Account:
    balance: int = 0
    next_nonce: int = 1


@dataclass
class Receipt:
    tx_hash: bytes
    result: str
    reason: str
    gas_used: int
    height: int


@dataclass
class WorldState:
    accounts: dict = field(default_factory=dict)  # address -> Account
    contracts: dict = field(default_factory=dict)  # contract address -> HealthRecordState
    # Kept by `next_state` only: what the block that made this state did, and
    # the hashes of every transaction finalized up to it, skipped ones included.
    receipts: tuple = field(default=(), init=False, repr=False, compare=False)
    finalized: frozenset = field(default=frozenset(), init=False, repr=False, compare=False)
    _next: dict = field(default_factory=dict, init=False, repr=False, compare=False)  # block hash -> (schedule, weakref)

    def encode(self) -> bytes:
        parts = [enc_u8(0x12)]
        accts = sorted(self.accounts.items())
        parts.append(enc_u64(len(accts)))
        for addr, acct in accts:
            parts.append(enc_bytes(addr))
            parts.append(enc_u64(acct.balance))
            parts.append(enc_u64(acct.next_nonce))
        contracts = sorted(self.contracts.items())
        parts.append(enc_u64(len(contracts)))
        for addr, state in contracts:
            parts.append(enc_bytes(addr))
            parts.append(state.encode())
        return b"".join(parts)

    def digest(self) -> bytes:
        return hashlib.sha256(self.encode()).digest()

    def next_nonce(self, address: bytes) -> int:
        acct = self.accounts.get(address)
        return acct.next_nonce if acct else 1

    def _copy(self) -> "WorldState":
        """An equal state that shares no mutable part with this one; the
        reading tuples, being immutable, are shared."""
        accounts = {addr: Account(a.balance, a.next_nonce) for addr, a in self.accounts.items()}
        contracts = {
            addr: HealthRecordState(
                s.owner,
                list(s.readings),
                PermissionTable({pid: set(addrs) for pid, addrs in s.permission_table.permissions.items()}),
            )
            for addr, s in self.contracts.items()
        }
        return WorldState(accounts, contracts)

    def _account(self, address: bytes) -> Account:
        acct = self.accounts.get(address)
        if acct is None:
            acct = Account()
            self.accounts[address] = acct
        return acct


def contract_address(deployer: bytes, nonce: int) -> bytes:
    return hashlib.sha256(deployer + enc_u64(nonce)).digest()


def encode_reading_args(timestamp_ms: int, heart_rate: int) -> bytes:
    return enc_u64(timestamp_ms) + enc_u64(heart_rate)


def decode_reading_args(args: bytes) -> tuple:
    """The (timestamp, heart_rate) pair that `encode_reading_args` wrote."""
    if len(args) != READING.size:
        raise DecodeError(f"reading args must be {READING.size} bytes, got {len(args)}")
    return READING.unpack(args)


def encode_permission_args(permission: bytes, address: bytes) -> bytes:
    return enc_bytes(permission) + enc_bytes(address)


def decode_permission_args(args: bytes):
    r = Reader(args)
    permission, address = r.bytes_(), r.bytes_()
    r.expect_eof()
    return permission, address


def _gas_for(payload, schedule: GasSchedule) -> int:
    if isinstance(payload, Deploy):
        return schedule.deploy
    if isinstance(payload, Transfer):
        return schedule.transfer
    if isinstance(payload, Call):
        if payload.method == METHOD_ADD_READING:
            return schedule.add_data
        if payload.method == METHOD_GRANT:
            return schedule.grant
        if payload.method == METHOD_REVOKE:
            return schedule.revoke
        return schedule.transfer  # base charge for unrecognized methods
    raise ContractError(f"payload {type(payload).__name__} is not executable")


def execute_transaction(world: WorldState, tx: Transaction, schedule: GasSchedule, height: int) -> Receipt:
    """Apply one transaction in place and return its receipt.

    The fee is charged before the effect runs, so denied calls still pay.
    Raises InsufficientBalance or BadNonce without touching state; those
    transactions are skipped and the sender nonce is not consumed.
    """
    sender_acct = world.accounts.get(tx.sender)
    balance = sender_acct.balance if sender_acct else 0
    next_nonce = sender_acct.next_nonce if sender_acct else 1
    if tx.nonce != next_nonce:
        raise BadNonce(f"expected nonce {next_nonce}, got {tx.nonce}")
    gas = _gas_for(tx.payload, schedule)
    if balance < gas:
        raise InsufficientBalance(f"balance {balance} below fee {gas}")

    sender_acct = world._account(tx.sender)
    sender_acct.balance -= gas
    world._account(FEE_SINK).balance += gas
    sender_acct.next_nonce += 1

    result, reason = RESULT_OK, ""
    payload = tx.payload

    if isinstance(payload, Deploy) and payload.contract_kind != HEALTH_RECORD_KIND:
        result, reason = RESULT_FAILED, "unknown_contract_kind"
    elif isinstance(payload, Deploy):
        addr = contract_address(tx.sender, tx.nonce)
        world.contracts[addr] = HealthRecordState(
            owner=tx.sender,
            readings=[],
            permission_table=initialize(tx.sender),
        )
    elif isinstance(payload, Transfer):
        if sender_acct.balance < payload.amount:
            result, reason = RESULT_FAILED, "insufficient_funds"
        else:
            sender_acct.balance -= payload.amount
            world._account(payload.to).balance += payload.amount
    elif isinstance(payload, Call):
        contract = world.contracts.get(payload.contract_address)
        if contract is None:
            result, reason = RESULT_FAILED, "unknown_contract"
        elif payload.method == METHOD_ADD_READING:
            result, reason = _call_add_reading(contract, payload, tx.sender)
        elif payload.method in (METHOD_GRANT, METHOD_REVOKE):
            result, reason = _call_permission(contract, payload, tx.sender)
        else:
            result, reason = RESULT_FAILED, "unknown_method"

    return Receipt(tx_hash=hash_tx(tx), result=result, reason=reason, gas_used=gas, height=height)


def _call_add_reading(contract, payload, sender):
    try:
        reading = decode_reading_args(payload.args)
    except DecodeError:
        return RESULT_FAILED, "bad_args"
    if reading[1] > MAX_HEART_RATE:
        return RESULT_FAILED, "bad_args"
    if not has_permission(contract.permission_table, WRITE_PERMISSION, sender):
        return RESULT_DENIED, "write_permission"
    contract.readings.append(reading)
    return RESULT_OK, ""


def _call_permission(contract, payload, sender):
    try:
        permission, address = decode_permission_args(payload.args)
    except DecodeError:
        return RESULT_FAILED, "bad_args"
    try:
        if payload.method == METHOD_GRANT:
            grant_permission(contract.permission_table, sender, permission, address)
        else:
            revoke_permission(contract.permission_table, sender, permission, address)
    except PermissionDenied:
        return RESULT_DENIED, "permitter_permission"
    return RESULT_OK, ""


def apply_block(world: WorldState, block: Block, schedule: GasSchedule) -> list:
    """Execute a finalized block in order; fees sweep to the proposer."""
    height = block.header.height
    receipts = []
    fees = 0
    for tx in block.transactions:
        try:
            receipt = execute_transaction(world, tx, schedule, height)
            fees += receipt.gas_used
        except (InsufficientBalance, BadNonce) as exc:
            receipt = Receipt(
                tx_hash=hash_tx(tx),
                result=RESULT_SKIPPED,
                reason=type(exc).__name__,
                gas_used=0,
                height=height,
            )
        receipts.append(receipt)
    if fees:
        world._account(FEE_SINK).balance -= fees
        world._account(block.header.proposer).balance += fees
    return receipts


def next_state(world: WorldState, block: Block, schedule: GasSchedule) -> WorldState:
    """The state after `block`, one object for every holder of `world`.

    The first call applies the block to a copy of `world`; later calls with
    the same block and schedule return that copy for as long as some holder
    keeps it alive, since `world` links to it only weakly. `world` itself
    never changes.
    """
    bh = hash_block(block)
    link = world._next.get(bh)
    after = link[1]() if link is not None and link[0] == schedule else None
    if after is None:
        after = world._copy()
        after.receipts = tuple(apply_block(after, block, schedule))
        after.finalized = world.finalized.union(r.tx_hash for r in after.receipts)
        world._next[bh] = (schedule, weakref.ref(after))
    return after


def read_history(world: WorldState, contract: bytes, caller: bytes, from_ts: int, to_ts: int) -> Readings:
    """The readings with `from_ts <= timestamp <= to_ts`, in log order, gated on
    ownership or read permission; each call returns a list of its own."""
    state = world.contracts.get(contract)
    if state is None:
        raise UnknownContract(contract.hex())
    if caller != state.owner and not has_permission(state.permission_table, READ_PERMISSION, caller):
        raise PermissionDenied("caller lacks read permission")
    key = (from_ts, to_ts, len(state.readings))
    if state._last_read is None or state._last_read[0] != key:
        found = [r for r in state.readings if from_ts <= r[0] <= to_ts]
        state._last_read = (key, found, enc_readings(found))
    _, found, packed = state._last_read
    return Readings(found, packed)


def genesis_world(config: GenesisConfig) -> WorldState:
    world = WorldState()
    for addr, balance in config.initial_balances.items():
        world.accounts[addr] = Account(balance=balance, next_nonce=1)
    return world


def replay_chain(chain, config: GenesisConfig) -> WorldState:
    """Rebuild world state from genesis by replaying every finalized block."""
    world = genesis_world(config)
    for block in chain.blocks[1:]:
        apply_block(world, block, config.gas)
    return world
