"""Ledger records: transactions, blocks, hash linking, stateless validation.

Transactions, block headers and blocks are immutable records, built once
with all their fields. Each keeps its canonical bytes, signing bytes and
hash once computed, and a signed record its signature verdict. A decoded
record keeps the exact bytes it was parsed from, so no layer re-encodes a
record to hash, sign, verify or send it. A changed copy
(`dataclasses.replace`) starts with no derived values.

Every block header carries the parent hash and a proposer signature over the
header digest, so recomputing hashes over a chain exposes any historical
mutation. Validation is stateless and reports every violation it finds
rather than stopping at the first.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

from .channel import KeyPair, sign_digest, verify_digest
from .codec import DecodeError, Reader, cache_field, enc_bytes, enc_str, enc_u64, enc_u8, set_cached

ZERO_HASH = bytes(32)
EMPTY_SIG = bytes(64)

DEFAULT_MAX_TXS = 500
DEFAULT_BLOCK_INTERVAL_MS = 1000
DEFAULT_GAS_LIMIT = 10_000_000


class NotAuthority(Exception):
    pass


# --- transaction payloads -------------------------------------------------

@dataclass(frozen=True)
class Transfer:
    to: bytes
    amount: int

    TAG = 0


@dataclass(frozen=True)
class Deploy:
    contract_kind: str
    init_args: bytes

    TAG = 1


@dataclass(frozen=True)
class Call:
    contract_address: bytes
    method: str
    args: bytes

    TAG = 2


@dataclass(frozen=True)
class Query:
    """Read request. It travels as its own unsigned wire record, which the
    channel that carries it authenticates; it is never a transaction payload."""

    contract_address: bytes
    from_ts: int
    to_ts: int

    WIRE_TAG = 0x08

    def encode(self) -> bytes:
        return enc_u8(self.WIRE_TAG) + enc_bytes(self.contract_address) + enc_u64(self.from_ts) + enc_u64(self.to_ts)

    @classmethod
    def decode(cls, data: bytes) -> "Query":
        r = Reader(data)
        r.expect_tag(cls.WIRE_TAG)
        query = cls(contract_address=r.bytes_(), from_ts=r.u64(), to_ts=r.u64())
        r.expect_eof()
        return query


TxPayload = Union[Transfer, Deploy, Call]


def encode_payload(payload: TxPayload) -> bytes:
    if isinstance(payload, Transfer):
        return enc_u8(Transfer.TAG) + enc_bytes(payload.to) + enc_u64(payload.amount)
    if isinstance(payload, Deploy):
        return enc_u8(Deploy.TAG) + enc_str(payload.contract_kind) + enc_bytes(payload.init_args)
    if isinstance(payload, Call):
        return (
            enc_u8(Call.TAG)
            + enc_bytes(payload.contract_address)
            + enc_str(payload.method)
            + enc_bytes(payload.args)
        )
    if isinstance(payload, Query):
        return payload.encode()  # its own record's bytes, so a device's whole plan can be fingerprinted
    raise TypeError(f"unknown payload type {type(payload).__name__}")


def decode_payload(r: Reader) -> TxPayload:
    tag = r.u8()
    if tag == Transfer.TAG:
        return Transfer(to=r.bytes_(), amount=r.u64())
    if tag == Deploy.TAG:
        return Deploy(contract_kind=r.str_(), init_args=r.bytes_())
    if tag == Call.TAG:
        return Call(contract_address=r.bytes_(), method=r.str_(), args=r.bytes_())
    raise DecodeError(f"unknown payload tag {tag}")


# --- transactions ---------------------------------------------------------

@dataclass(frozen=True)
class Transaction:
    sender: bytes
    nonce: int
    timestamp: int  # unix milliseconds
    payload: TxPayload
    gas_limit: int
    signature: bytes
    _signing: Optional[bytes] = cache_field()
    _valid: Optional[bool] = cache_field()  # signature verdict, see signature_valid
    _raw: Optional[bytes] = cache_field()
    _hash: Optional[bytes] = cache_field()

    WIRE_TAG = 0x02

    @classmethod
    def unsigned_bytes(cls, sender: bytes, nonce: int, timestamp: int, payload: TxPayload, gas_limit: int) -> bytes:
        if isinstance(payload, Query):
            raise TypeError("a query travels as its own record, never as a transaction payload")
        return (
            enc_u8(cls.WIRE_TAG)
            + enc_bytes(sender)
            + enc_u64(nonce)
            + enc_u64(timestamp)
            + encode_payload(payload)
            + enc_u64(gas_limit)
        )

    def signing_bytes(self) -> bytes:
        if self._signing is None:
            unsigned = self.unsigned_bytes(self.sender, self.nonce, self.timestamp, self.payload, self.gas_limit)
            set_cached(self, "_signing", unsigned)
        return self._signing

    def encode(self) -> bytes:
        if self._raw is None:
            set_cached(self, "_raw", self.signing_bytes() + enc_bytes(self.signature))
        return self._raw

    @classmethod
    def read(cls, r: Reader) -> "Transaction":
        start = r.pos
        r.expect_tag(cls.WIRE_TAG)
        sender = r.bytes_()
        nonce = r.u64()
        timestamp = r.u64()
        payload = decode_payload(r)
        gas_limit = r.u64()
        signing = r.since(start)
        tx = cls(sender, nonce, timestamp, payload, gas_limit, r.bytes_())
        set_cached(tx, "_signing", signing)
        set_cached(tx, "_raw", r.since(start))
        return tx

    @classmethod
    def decode(cls, data: bytes) -> "Transaction":
        r = Reader(data)
        tx = cls.read(r)
        r.expect_eof()
        return tx


def make_transaction(
    keypair: KeyPair,
    nonce: int,
    timestamp: int,
    payload: TxPayload,
    gas_limit: int = DEFAULT_GAS_LIMIT,
) -> Transaction:
    signing = Transaction.unsigned_bytes(keypair.public_key, nonce, timestamp, payload, gas_limit)
    signature = sign_digest(keypair.private_key, hashlib.sha256(signing).digest())
    tx = Transaction(keypair.public_key, nonce, timestamp, payload, gas_limit, signature)
    set_cached(tx, "_signing", signing)
    return tx


def signature_valid(record, public_key: bytes, signature: bytes) -> bool:
    """Whether the record's own signer key and signature sign its signing
    bytes; kept on the record, so all nodes handed one record check it once."""
    if record._valid is None:
        digest = hashlib.sha256(record.signing_bytes()).digest()
        set_cached(record, "_valid", verify_digest(public_key, signature, digest))
    return record._valid


def verify_transaction(tx: Transaction) -> bool:
    return signature_valid(tx, tx.sender, tx.signature)


def hash_tx(tx: Transaction) -> bytes:
    if tx._hash is None:
        set_cached(tx, "_hash", hashlib.sha256(tx.encode()).digest())
    return tx._hash


# --- blocks ---------------------------------------------------------------

@dataclass(frozen=True)
class BlockHeader:
    height: int
    timestamp: int  # unix milliseconds, strictly greater than parent's
    prev_hash: bytes
    tx_root: bytes
    proposer: bytes
    proposer_signature: bytes
    _signing: Optional[bytes] = cache_field()
    _valid: Optional[bool] = cache_field()  # signature verdict, see signature_valid
    _raw: Optional[bytes] = cache_field()

    WIRE_TAG = 0x03

    @classmethod
    def unsigned_bytes(cls, height: int, timestamp: int, prev_hash: bytes, tx_root: bytes, proposer: bytes) -> bytes:
        return (
            enc_u8(cls.WIRE_TAG)
            + enc_u64(height)
            + enc_u64(timestamp)
            + enc_bytes(prev_hash)
            + enc_bytes(tx_root)
            + enc_bytes(proposer)
        )

    def signing_bytes(self) -> bytes:
        if self._signing is None:
            unsigned = self.unsigned_bytes(self.height, self.timestamp, self.prev_hash, self.tx_root, self.proposer)
            set_cached(self, "_signing", unsigned)
        return self._signing

    def encode(self) -> bytes:
        if self._raw is None:
            set_cached(self, "_raw", self.signing_bytes() + enc_bytes(self.proposer_signature))
        return self._raw

    @classmethod
    def read(cls, r: Reader) -> "BlockHeader":
        start = r.pos
        r.expect_tag(cls.WIRE_TAG)
        height = r.u64()
        timestamp = r.u64()
        prev_hash = r.bytes_()
        tx_root = r.bytes_()
        proposer = r.bytes_()
        signing = r.since(start)
        header = cls(height, timestamp, prev_hash, tx_root, proposer, r.bytes_())
        set_cached(header, "_signing", signing)
        set_cached(header, "_raw", r.since(start))
        return header


def make_header(proposer: KeyPair, height: int, timestamp: int, prev_hash: bytes, tx_root: bytes) -> BlockHeader:
    """A header signed by `proposer` over its unsigned bytes."""
    signing = BlockHeader.unsigned_bytes(height, timestamp, prev_hash, tx_root, proposer.public_key)
    signature = sign_digest(proposer.private_key, hashlib.sha256(signing).digest())
    header = BlockHeader(height, timestamp, prev_hash, tx_root, proposer.public_key, signature)
    set_cached(header, "_signing", signing)
    return header


@dataclass(frozen=True)
class Block:
    header: BlockHeader
    transactions: tuple
    _raw: Optional[bytes] = cache_field()
    _hash: Optional[bytes] = cache_field()

    WIRE_TAG = 0x04

    def __post_init__(self):
        if type(self.transactions) is not tuple:
            object.__setattr__(self, "transactions", tuple(self.transactions))

    def encode(self) -> bytes:
        if self._raw is None:
            parts = [enc_u8(self.WIRE_TAG), self.header.encode(), enc_u64(len(self.transactions))]
            parts.extend(tx.encode() for tx in self.transactions)
            set_cached(self, "_raw", b"".join(parts))
        return self._raw

    @classmethod
    def read(cls, r: Reader) -> "Block":
        start = r.pos
        r.expect_tag(cls.WIRE_TAG)
        header = BlockHeader.read(r)
        count = r.u64()
        block = cls(header, tuple(Transaction.read(r) for _ in range(count)))
        set_cached(block, "_raw", r.since(start))
        return block

    @classmethod
    def decode(cls, data: bytes) -> "Block":
        r = Reader(data)
        block = cls.read(r)
        r.expect_eof()
        return block


def compute_tx_root(transactions) -> bytes:
    return hashlib.sha256(b"".join(hash_tx(tx) for tx in transactions)).digest()


def hash_block(block: Block) -> bytes:
    if block._hash is None:
        set_cached(block, "_hash", hashlib.sha256(block.encode()).digest())
    return block._hash


def verify_block_signature(header: BlockHeader) -> bool:
    return signature_valid(header, header.proposer, header.proposer_signature)


# --- genesis --------------------------------------------------------------

@dataclass
class GasSchedule:
    """Unit costs per operation; defaults match the measured fee table."""

    deploy: int = 701_382
    add_data: int = 48_182
    grant: int = 23_521
    revoke: int = 21_948
    transfer: int = 21_000


@dataclass
class GenesisConfig:
    """Bootstrap description; fully determines the genesis block and state."""

    authorities: list
    initial_balances: dict = field(default_factory=dict)
    gas: GasSchedule = field(default_factory=GasSchedule)
    block_interval_ms: int = DEFAULT_BLOCK_INTERVAL_MS
    max_txs: int = DEFAULT_MAX_TXS
    genesis_timestamp_ms: int = 0


def make_genesis(config: GenesisConfig) -> Block:
    header = BlockHeader(
        height=0,
        timestamp=config.genesis_timestamp_ms,
        prev_hash=ZERO_HASH,
        tx_root=compute_tx_root([]),
        proposer=ZERO_HASH,
        proposer_signature=EMPTY_SIG,
    )
    return Block(header=header, transactions=())


# --- chain ----------------------------------------------------------------

@dataclass
class Chain:
    """Append-only block list owned by a single consensus loop."""

    blocks: list

    @property
    def tip(self) -> Block:
        return self.blocks[-1]

    @property
    def height(self) -> int:
        return self.tip.header.height

    def tip_hash(self) -> bytes:
        return hash_block(self.tip)

    def encode(self) -> bytes:
        return b"".join(b.encode() for b in self.blocks)


class Violation(str, Enum):
    BAD_PARENT_LINK = "bad_parent_link"
    BAD_HEIGHT = "bad_height"
    BAD_TIMESTAMP = "bad_timestamp"
    NOT_AUTHORITY = "not_authority"
    BAD_PROPOSER_SIGNATURE = "bad_proposer_signature"
    BAD_TX_ROOT = "bad_tx_root"
    BAD_TX_SIGNATURE = "bad_tx_signature"


def build_block(
    pending,
    parent: Block,
    proposer: KeyPair,
    now_ms: int,
    max_txs: int = DEFAULT_MAX_TXS,
    authorities=None,
) -> Block:
    """Collate pending transactions under the proposer's signature.

    Ordering is (sender, nonce) with arrival order as the stable tiebreak,
    capped at max_txs.
    """
    if authorities is not None and proposer.public_key not in authorities:
        raise NotAuthority("proposer is not in the authority set")
    seen = set()
    eligible = []
    for tx in pending:
        h = hash_tx(tx)
        if h in seen:
            continue
        seen.add(h)
        eligible.append(tx)
    eligible.sort(key=lambda tx: (tx.sender, tx.nonce))
    chosen = tuple(eligible[:max_txs])
    header = make_header(
        proposer,
        height=parent.header.height + 1,
        timestamp=max(now_ms, parent.header.timestamp + 1),
        prev_hash=hash_block(parent),
        tx_root=compute_tx_root(chosen),
    )
    return Block(header=header, transactions=chosen)


def validate_block(block: Block, parent: Block, authorities) -> list:
    """Stateless checks against the parent; returns every Violation found, none for a valid block."""
    violations = []
    if block.header.prev_hash != hash_block(parent):
        violations.append(Violation.BAD_PARENT_LINK)
    if block.header.height != parent.header.height + 1:
        violations.append(Violation.BAD_HEIGHT)
    if block.header.timestamp <= parent.header.timestamp:
        violations.append(Violation.BAD_TIMESTAMP)
    if block.header.proposer not in authorities:
        violations.append(Violation.NOT_AUTHORITY)
    if not verify_block_signature(block.header):
        violations.append(Violation.BAD_PROPOSER_SIGNATURE)
    if block.header.tx_root != compute_tx_root(block.transactions):
        violations.append(Violation.BAD_TX_ROOT)
    if any(not verify_transaction(tx) for tx in block.transactions):
        violations.append(Violation.BAD_TX_SIGNATURE)
    return violations
