"""Ledger records: transactions, blocks, hash linking, stateless validation.

Transactions, block headers and blocks are immutable records (`codec.Record`),
built once with all their fields. Transactions, block headers and consensus
messages are `Signed` records: the last field of the layout is a signature,
by the key in the record's `SIGNER` field, over the SHA-256 of its signing
bytes, which are its tag and every field before the signature. `Signed` is
the one implementation of what they share: it signs a record as it makes it
(`signed_by`), keeps its signing bytes, its bytes and its signature verdict
(`verified`) once computed, and a decoded signed record keeps the exact bytes
it was parsed from. A block keeps its bytes and hash, and a transaction its
hash, so no layer re-encodes a record to hash, sign, verify or send it. A
changed copy (`dataclasses.replace`) starts with no derived values.

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
from .codec import BYTES, STR, U64, Record, cache_field, items, one_of, record, set_cached

ZERO_HASH = bytes(32)
EMPTY_SIG = bytes(64)

DEFAULT_MAX_TXS = 500
DEFAULT_BLOCK_INTERVAL_MS = 1000
DEFAULT_GAS_LIMIT = 10_000_000


class NotAuthority(Exception):
    pass


# --- signed records -------------------------------------------------------

@dataclass(frozen=True)
class Signed(Record):
    """A record whose last field is a signature, by the key in its `SIGNER`
    field, over the SHA-256 of its signing bytes: its tag and every field
    before the signature.

    It keeps its signing bytes, its bytes and its signature verdict once
    computed; a decoded record keeps the bytes it was parsed from. Each
    signed record class compiles its own codec methods from its layout.
    """

    _signing: Optional[bytes] = cache_field()
    _valid: Optional[bool] = cache_field()  # signature verdict, see verified
    _raw: Optional[bytes] = cache_field()

    SIGNER = ""  # name of the field that holds the signer's public key

    @classmethod
    def compile_codec(cls, compiler) -> None:
        """`signing_bytes` and `encode` keep the bytes they write; `read` and
        `decode` keep the signing bytes and the bytes they read; and
        `_signing_of` writes the signing bytes of a dict of field values."""
        head, last = cls.LAYOUT[:-1], cls.LAYOUT[-1:]
        compiler.encoder("_signing_of", cls.WIRE_TAG, head, value_of="values[{!r}]", arg="values", wrap=staticmethod)
        compiler.encoder("signing_bytes", cls.WIRE_TAG, head, keep="_signing")
        compiler.encoder("encode", None, last, keep="_raw", first="self.signing_bytes()")

        def fill(src) -> str:
            values = src.read_fields(cls.WIRE_TAG, head, 1)
            src.emit(1, "signing = data[start:pos]")
            values += src.read_fields(None, last, 1)
            src.emit(1, f"signed = cls({', '.join(values)})", "_set(signed, '_signing', signing)")
            src.emit(1, "_set(signed, '_raw', data[start:pos])")
            return "signed"

        compiler.reader(fill)

    @classmethod
    def signed_by(cls, keypair: KeyPair, **values):
        """A record of `values`, with `keypair`'s public key as its signer and its signature."""
        values[cls.SIGNER] = keypair.public_key
        signing = cls._signing_of(values)
        values[cls.LAYOUT[-1][0]] = sign_digest(keypair.private_key, hashlib.sha256(signing).digest())
        signed = cls(**values)
        set_cached(signed, "_signing", signing)
        return signed

    def verified(self) -> bool:
        """Whether the signature is the signer's over the signing bytes; kept
        on the record, so all nodes handed one record check it once."""
        if self._valid is None:
            digest = hashlib.sha256(self.signing_bytes()).digest()
            signature = getattr(self, self.LAYOUT[-1][0])
            set_cached(self, "_valid", verify_digest(getattr(self, self.SIGNER), signature, digest))
        return self._valid


# --- transaction payloads -------------------------------------------------

@dataclass(frozen=True)
class Transfer(Record):
    to: bytes
    amount: int

    WIRE_TAG = 0
    LAYOUT = (("to", BYTES), ("amount", U64))


@dataclass(frozen=True)
class Deploy(Record):
    contract_kind: str
    init_args: bytes

    WIRE_TAG = 1
    LAYOUT = (("contract_kind", STR), ("init_args", BYTES))


@dataclass(frozen=True)
class Call(Record):
    contract_address: bytes
    method: str
    args: bytes

    WIRE_TAG = 2
    LAYOUT = (("contract_address", BYTES), ("method", STR), ("args", BYTES))


@dataclass(frozen=True)
class Query(Record):
    """Read request. It travels as its own unsigned wire record, which the
    channel that carries it authenticates; it is never a transaction payload."""

    contract_address: bytes
    from_ts: int
    to_ts: int

    WIRE_TAG = 0x08
    LAYOUT = (("contract_address", BYTES), ("from_ts", U64), ("to_ts", U64))


TxPayload = Union[Transfer, Deploy, Call]


def encode_payload(payload: Union[TxPayload, Query]) -> bytes:
    """A payload's bytes, or a query's, so a device's whole plan can be fingerprinted."""
    return payload.encode()


# --- transactions ---------------------------------------------------------

@dataclass(frozen=True)
class Transaction(Signed):
    sender: bytes
    nonce: int
    timestamp: int  # unix milliseconds
    payload: TxPayload  # never a Query: a read travels as its own record
    gas_limit: int
    signature: bytes
    _hash: Optional[bytes] = cache_field()

    WIRE_TAG = 0x02
    SIGNER = "sender"
    LAYOUT = (
        ("sender", BYTES),
        ("nonce", U64),
        ("timestamp", U64),
        ("payload", one_of("payload", Transfer, Deploy, Call)),
        ("gas_limit", U64),
        ("signature", BYTES),
    )


def make_transaction(
    keypair: KeyPair,
    nonce: int,
    timestamp: int,
    payload: TxPayload,
    gas_limit: int = DEFAULT_GAS_LIMIT,
) -> Transaction:
    return Transaction.signed_by(keypair, nonce=nonce, timestamp=timestamp, payload=payload, gas_limit=gas_limit)


def verify_transaction(tx: Transaction) -> bool:
    return tx.verified()


def hash_tx(tx: Transaction) -> bytes:
    if tx._hash is None:
        set_cached(tx, "_hash", hashlib.sha256(tx.encode()).digest())
    return tx._hash


# --- blocks ---------------------------------------------------------------

@dataclass(frozen=True)
class BlockHeader(Signed):
    height: int
    timestamp: int  # unix milliseconds, strictly greater than parent's
    prev_hash: bytes
    tx_root: bytes
    proposer: bytes
    proposer_signature: bytes

    WIRE_TAG = 0x03
    SIGNER = "proposer"
    LAYOUT = (
        ("height", U64),
        ("timestamp", U64),
        ("prev_hash", BYTES),
        ("tx_root", BYTES),
        ("proposer", BYTES),
        ("proposer_signature", BYTES),
    )


def make_header(proposer: KeyPair, height: int, timestamp: int, prev_hash: bytes, tx_root: bytes) -> BlockHeader:
    """A header signed by `proposer` over its signing bytes."""
    return BlockHeader.signed_by(proposer, height=height, timestamp=timestamp, prev_hash=prev_hash, tx_root=tx_root)


@dataclass(frozen=True)
class Block(Record):
    header: BlockHeader
    transactions: tuple
    _raw: Optional[bytes] = cache_field()
    _hash: Optional[bytes] = cache_field()

    WIRE_TAG = 0x04
    LAYOUT = (("header", record(BlockHeader)), ("transactions", items(record(Transaction), 1)))

    def __post_init__(self):
        if type(self.transactions) is not tuple:
            object.__setattr__(self, "transactions", tuple(self.transactions))


def compute_tx_root(transactions) -> bytes:
    return hashlib.sha256(b"".join(hash_tx(tx) for tx in transactions)).digest()


def hash_block(block: Block) -> bytes:
    if block._hash is None:
        set_cached(block, "_hash", hashlib.sha256(block.encode()).digest())
    return block._hash


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


def make_genesis(config: GenesisConfig) -> Block:
    header = BlockHeader(
        height=0,
        timestamp=0,
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
    TOO_MANY_TXS = "too_many_txs"


def build_block(pending, parent: Block, proposer: KeyPair, now_ms: int, genesis: GenesisConfig) -> Block:
    """Collate pending transactions, each given once as a mempool holds them,
    under the signature of a genesis authority.

    Ordering is (sender, nonce) with arrival order as the stable tiebreak,
    capped at the genesis `max_txs`.
    """
    if proposer.public_key not in genesis.authorities:
        raise NotAuthority("proposer is not in the authority set")
    chosen = tuple(sorted(pending, key=lambda tx: (tx.sender, tx.nonce))[: genesis.max_txs])
    header = make_header(
        proposer,
        height=parent.header.height + 1,
        timestamp=max(now_ms, parent.header.timestamp + 1),
        prev_hash=hash_block(parent),
        tx_root=compute_tx_root(chosen),
    )
    return Block(header=header, transactions=chosen)


def validate_block(block: Block, parent: Block, genesis: GenesisConfig) -> list:
    """Stateless checks against the parent and the genesis; returns every Violation found, none for a valid block."""
    violations = []
    if block.header.prev_hash != hash_block(parent):
        violations.append(Violation.BAD_PARENT_LINK)
    if block.header.height != parent.header.height + 1:
        violations.append(Violation.BAD_HEIGHT)
    if block.header.timestamp <= parent.header.timestamp:
        violations.append(Violation.BAD_TIMESTAMP)
    if block.header.proposer not in genesis.authorities:
        violations.append(Violation.NOT_AUTHORITY)
    if not block.header.verified():
        violations.append(Violation.BAD_PROPOSER_SIGNATURE)
    if block.header.tx_root != compute_tx_root(block.transactions):
        violations.append(Violation.BAD_TX_ROOT)
    if any(not verify_transaction(tx) for tx in block.transactions):
        violations.append(Violation.BAD_TX_SIGNATURE)
    if len(block.transactions) > genesis.max_txs:
        violations.append(Violation.TOO_MANY_TXS)
    return violations
