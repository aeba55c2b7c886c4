"""Immutable ledger records and the bytes and hashes they keep.

A field-by-field reference encoder of the wire layout is the oracle: every
record, whether built by a constructor, by a signing helper, by decoding or
by `dataclasses.replace` of a record whose derived values were already
computed, must encode, sign and hash exactly as the reference says, and
give the verdict of a reference Ed25519 verification of its signature. The
packed reading arrays of query replies and contract state must give the bytes
of the same reference, one u64 per value, and so must the device channel's
query record and per-block confirmation, and the channel's inner message.

The codecs compiled from each record's `LAYOUT` are also checked against an
interpreter of the same layouts (`pack` and `unpack`), which writes and reads
field by field through each field codec's own `write` and `read`: over
edited, cut and extended bytes of every record, both must return the same
record or both reject the bytes.
"""

import collections
import hashlib
import struct
import tracemalloc
from contextlib import contextmanager
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey
from hypothesis import given, settings
from hypothesis import Phase as Stage
from hypothesis import strategies as st

from edgelinker.chain import (
    Block,
    BlockHeader,
    Call,
    Deploy,
    Query,
    Signed,
    Transaction,
    Transfer,
    build_block,
    hash_block,
    hash_tx,
    make_header,
    make_transaction,
    verify_transaction,
)
from edgelinker.channel import ChannelMessage
from edgelinker.codec import Codec, DecodeError, Reader, Record, set_cached
from edgelinker.consensus import ConsensusMessage, Phase, make_message, verify_message
from edgelinker.contracts import HealthRecordState, WorldState, read_history
from edgelinker.node import ConfirmBody, ConfirmEntry, QueryReplyBody
from edgelinker.sim import VERDICT_LEN, PreparedWake
from tests.conftest import kp
from tests.test_codec import PAYLOADS

U64 = st.integers(0, 2**64 - 1)


# --- reference layout --------------------------------------------------------


def ref_u64(value):
    return struct.pack(">Q", value)


def ref_bytes(data):
    return struct.pack(">I", len(data)) + data


def ref_str(text):
    return ref_bytes(text.encode("utf-8"))


def ref_payload(p):
    if isinstance(p, Transfer):
        return b"\x00" + ref_bytes(p.to) + ref_u64(p.amount)
    if isinstance(p, Deploy):
        return b"\x01" + ref_str(p.contract_kind) + ref_bytes(p.init_args)
    if isinstance(p, Call):
        return b"\x02" + ref_bytes(p.contract_address) + ref_str(p.method) + ref_bytes(p.args)
    return b"\x03" + ref_bytes(p.contract_address) + ref_u64(p.from_ts) + ref_u64(p.to_ts)


def ref_tx_signing(tx):
    return (
        b"\x02"
        + ref_bytes(tx.sender)
        + ref_u64(tx.nonce)
        + ref_u64(tx.timestamp)
        + ref_payload(tx.payload)
        + ref_u64(tx.gas_limit)
    )


def ref_tx(tx):
    return ref_tx_signing(tx) + ref_bytes(tx.signature)


def ref_header_signing(h):
    return (
        b"\x03"
        + ref_u64(h.height)
        + ref_u64(h.timestamp)
        + ref_bytes(h.prev_hash)
        + ref_bytes(h.tx_root)
        + ref_bytes(h.proposer)
    )


def ref_header(h):
    return ref_header_signing(h) + ref_bytes(h.proposer_signature)


def ref_block(b):
    return b"\x04" + ref_header(b.header) + ref_u64(len(b.transactions)) + b"".join(ref_tx(t) for t in b.transactions)


def ref_msg_signing(m):
    block = b"\x00" if m.block is None else b"\x01" + ref_block(m.block)
    return (
        b"\x05"
        + bytes([int(m.phase)])
        + ref_u64(m.height)
        + ref_u64(m.round)
        + ref_bytes(m.block_hash)
        + block
        + ref_bytes(m.sender)
    )


def ref_msg(m):
    return ref_msg_signing(m) + ref_bytes(m.signature)


def ref_verdict(public_key, signature, signing):
    """Whether `signature` is `public_key`'s Ed25519 signature of sha256(`signing`)."""
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, hashlib.sha256(signing).digest())
    except (InvalidSignature, ValueError):
        return False
    return True


def ref_readings(readings):
    return ref_u64(len(readings)) + b"".join(ref_u64(ts) + ref_u64(hr) for ts, hr in readings)


def ref_reply(body):
    return b"\x06" + ref_u64(body.status) + ref_str(body.reason) + ref_readings(body.readings)


def ref_query(q):
    return b"\x08" + ref_bytes(q.contract_address) + ref_u64(q.from_ts) + ref_u64(q.to_ts)


def ref_confirm(body):
    entries = b"".join(
        ref_bytes(e.tx_hash) + ref_str(e.result) + ref_str(e.reason) + ref_u64(e.delay_us) for e in body.entries
    )
    return b"\x07" + ref_u64(body.height) + ref_u64(len(body.entries)) + entries


def ref_channel_message(m):
    return b"\x01" + ref_u64(m.timestamp) + ref_u64(m.nonce) + ref_bytes(m.identification) + ref_bytes(m.body)


def ref_record_state(state):
    assert not state.permission_table.permissions
    return b"\x11" + ref_bytes(state.owner) + ref_readings(state.readings) + b"\x10" + ref_u64(0)


# --- reference interpreter --------------------------------------------------------


def pack(tag, layout, value_of):
    """The tag, unless None, then each field of `layout` written by its codec; `value_of(name)` is the field's value."""
    parts = [] if tag is None else [bytes((tag,))]
    for name, codec in layout:
        parts.append(codec.write(value_of(name)))
    return b"".join(parts)


def unpack(r, tag, layout):
    """The field values `pack` wrote for `layout` under `tag`."""
    if tag is not None and (got := r.u8()) != tag:
        raise DecodeError(f"expected record tag {tag}, got {got}")
    return [codec.read(r) for _, codec in layout]


def interpreted_encode(record):
    return pack(record.WIRE_TAG, record.LAYOUT, record.__getattribute__)


def interpreted_read(cls, r):
    if not issubclass(cls, Signed):
        return cls(*unpack(r, cls.WIRE_TAG, cls.LAYOUT))
    start = r._pos
    values = unpack(r, cls.WIRE_TAG, cls.LAYOUT[:-1])
    signing = r._data[start : r._pos]
    signed = cls(*values, cls.LAYOUT[-1][1].read(r))
    set_cached(signed, "_signing", signing)
    set_cached(signed, "_raw", r._data[start : r._pos])
    return signed


def record_classes(base=Record):
    """Every class that states a wire layout."""
    found = []
    for cls in base.__subclasses__():
        found += ([cls] if "LAYOUT" in cls.__dict__ else []) + record_classes(cls)
    return found


@contextmanager
def interpreted():
    """Inside the block every record class writes and reads through the
    interpreter, nested records included."""
    kept = [(cls, cls.__dict__["encode"], cls.__dict__["read"]) for cls in record_classes()]
    for cls, _, _ in kept:
        cls.encode = interpreted_encode
        cls.read = classmethod(interpreted_read)
    try:
        yield
    finally:
        for cls, encode, read in kept:
            cls.encode, cls.read = encode, read


def interpreted_decode(cls, data):
    """What `cls.decode(data)` returns inside `interpreted()`."""
    r = Reader(data)
    decoded = cls.read(r)
    r.expect_eof()
    return decoded


def interpreted_bytes(record):
    with interpreted():
        return record.encode()


# --- strategies ----------------------------------------------------------------

# Signed records come from the signing helpers; the others carry random keys
# and signatures, which do not verify.
SIGNERS = st.sampled_from(["rec-a", "rec-b"]).map(kp)
HASHES = st.binary(min_size=32, max_size=32)
KEYS = st.binary(min_size=32, max_size=32)
SIGNATURES = st.binary(min_size=64, max_size=64)
TXS = st.builds(
    Transaction,
    sender=KEYS,
    nonce=U64,
    timestamp=U64,
    payload=PAYLOADS,
    gas_limit=U64,
    signature=SIGNATURES,
) | st.builds(make_transaction, keypair=SIGNERS, nonce=U64, timestamp=U64, payload=PAYLOADS, gas_limit=U64)
HEADERS = st.builds(
    BlockHeader,
    height=U64,
    timestamp=U64,
    prev_hash=HASHES,
    tx_root=HASHES,
    proposer=KEYS,
    proposer_signature=SIGNATURES,
) | st.builds(make_header, proposer=SIGNERS, height=U64, timestamp=U64, prev_hash=HASHES, tx_root=HASHES)
BLOCKS = st.builds(Block, header=HEADERS, transactions=st.lists(TXS, max_size=3))
MESSAGES = st.builds(
    ConsensusMessage,
    phase=st.sampled_from(Phase),
    height=U64,
    round=U64,
    block_hash=HASHES,
    block=st.none() | BLOCKS,
    sender=KEYS,
    signature=SIGNATURES,
) | st.builds(
    make_message,
    keypair=SIGNERS,
    phase=st.sampled_from(Phase),
    height=U64,
    round_=U64,
    block_hash=HASHES,
    block=st.none() | BLOCKS,
)
READINGS = st.lists(st.tuples(U64, U64), max_size=40)
QUERIES = st.builds(Query, contract_address=st.binary(max_size=40), from_ts=U64, to_ts=U64)
CONFIRM_ENTRIES = st.builds(
    ConfirmEntry, tx_hash=st.binary(max_size=32), result=st.text(max_size=8), reason=st.text(max_size=12), delay_us=U64
)
CONFIRMS = st.builds(ConfirmBody, height=U64, entries=st.lists(CONFIRM_ENTRIES, max_size=5).map(tuple))
CHANNEL_MESSAGES = st.builds(ChannelMessage, timestamp=U64, nonce=U64, identification=KEYS, body=st.binary(max_size=80))
HOW = st.sampled_from(["built", "decoded", "replaced"])


def warm(record):
    """Compute every derived value the record keeps."""
    record.encode()
    if isinstance(record, Transaction):
        hash_tx(record)
        verify_transaction(record)
    if isinstance(record, ConsensusMessage):
        verify_message(record, (record.sender,))
    if isinstance(record, Block):
        hash_block(record)
        record.header.verified()
        for tx in record.transactions:
            hash_tx(tx)
            verify_transaction(tx)
    return record


def flip(value):
    if isinstance(value, BlockHeader):
        return replace(value, timestamp=value.timestamp ^ 1)
    return value ^ 1


def obtain(record, how, decode, name):
    """The record as built, decoded from its bytes, or rebuilt by `replace`.

    The rebuilt one comes from a copy with field `name` changed and every
    derived value computed, changed back; it must not carry the copy's bytes.
    """
    if how == "decoded":
        return decode(record.encode())
    if how == "replaced":
        value = getattr(record, name)
        return replace(warm(replace(record, **{name: flip(value)})), **{name: value})
    return record


def assert_rejects_truncation_and_trailing(decode, raw):
    for cut in range(len(raw)):
        with pytest.raises(DecodeError):
            decode(raw[:cut])
    with pytest.raises(DecodeError):
        decode(raw + b"\x00")


# --- cache properties --------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(tx=TXS, how=HOW)
def test_transaction_bytes_and_hash_match_reference(tx, how):
    tx = obtain(tx, how, Transaction.decode, "nonce")
    raw = ref_tx(tx)
    assert tx.signing_bytes() == ref_tx_signing(tx)
    assert verify_transaction(tx) == ref_verdict(tx.sender, tx.signature, ref_tx_signing(tx))
    assert tx.encode() == raw
    assert hash_tx(tx) == hashlib.sha256(raw).digest()
    assert Transaction.decode(raw).encode() == raw
    assert Transaction.decode(raw) == tx
    assert_rejects_truncation_and_trailing(Transaction.decode, raw)


@settings(max_examples=40, deadline=None)
@given(block=BLOCKS, how=HOW)
def test_block_bytes_and_hash_match_reference(block, how):
    block = obtain(block, how, Block.decode, "header")
    raw = ref_block(block)
    assert block.header.signing_bytes() == ref_header_signing(block.header)
    header = block.header
    expected = ref_verdict(header.proposer, header.proposer_signature, ref_header_signing(header))
    assert header.verified() == expected
    assert [verify_transaction(t) for t in block.transactions] == [
        ref_verdict(t.sender, t.signature, ref_tx_signing(t)) for t in block.transactions
    ]
    assert block.header.encode() == ref_header(block.header)
    assert block.encode() == raw
    assert hash_block(block) == hashlib.sha256(raw).digest()
    assert [hash_tx(t) for t in block.transactions] == [hashlib.sha256(ref_tx(t)).digest() for t in block.transactions]
    assert Block.decode(raw).encode() == raw
    assert Block.decode(raw) == block
    assert_rejects_truncation_and_trailing(Block.decode, raw)


@settings(max_examples=40, deadline=None)
@given(msg=MESSAGES, how=HOW)
def test_consensus_message_bytes_match_reference(msg, how):
    msg = obtain(msg, how, ConsensusMessage.decode, "round")
    raw = ref_msg(msg)
    assert msg.signing_bytes() == ref_msg_signing(msg)
    assert verify_message(msg, (msg.sender,)) == ref_verdict(msg.sender, msg.signature, ref_msg_signing(msg))
    assert not verify_message(msg, ())  # membership is tested on every call, after a verdict too
    assert msg.encode() == raw
    again = ConsensusMessage.decode(raw)
    assert again.encode() == raw
    assert again == msg
    if msg.block is not None:
        assert hash_block(again.block) == hashlib.sha256(ref_block(msg.block)).digest()
    assert_rejects_truncation_and_trailing(ConsensusMessage.decode, raw)


@settings(max_examples=20, deadline=None)
@given(payload=PAYLOADS, nonce=st.integers(1, 2**32), ts=st.integers(0, 2**41))
def test_signed_records_match_reference(payload, nonce, ts):
    sender, proposer = kp("ref-sender"), kp("ref-proposer")
    tx = make_transaction(sender, nonce, ts, payload)
    assert tx.signing_bytes() == ref_tx_signing(tx)
    assert hash_tx(tx) == hashlib.sha256(ref_tx(tx)).digest()
    parent = Block(BlockHeader(0, 0, bytes(32), bytes(32), bytes(32), bytes(64)), ())
    block = build_block([tx], parent, proposer, ts + 1)
    assert block.header.signing_bytes() == ref_header_signing(block.header)
    assert block.header.prev_hash == hashlib.sha256(ref_block(parent)).digest()
    assert hash_block(block) == hashlib.sha256(ref_block(block)).digest()
    msg = make_message(proposer, Phase.PRE_PREPARE, 1, 0, hash_block(block), block)
    assert msg.signing_bytes() == ref_msg_signing(msg)
    assert msg.encode() == ref_msg(msg)


@settings(max_examples=80, deadline=None)
@given(status=U64, reason=st.text(max_size=20), readings=READINGS, owner=st.binary(max_size=32))
def test_reading_arrays_match_reference(status, reason, readings, owner):
    body = QueryReplyBody(status, reason, readings)
    raw = ref_reply(body)
    assert body.encode() == raw
    assert QueryReplyBody.decode(raw) == body
    assert QueryReplyBody.status_and_count(raw) == (status, len(readings))
    state = HealthRecordState(owner, readings)
    assert state.encode() == ref_record_state(state)
    assert_rejects_truncation_and_trailing(QueryReplyBody.decode, raw)
    assert_rejects_truncation_and_trailing(QueryReplyBody.status_and_count, raw)


def reply_outcome(read, raw):
    """What `read` makes of the reply bytes: the status and reading count, or a reject."""
    try:
        got = read(raw)
    except DecodeError:
        return "reject"
    return (got.status, len(got.readings)) if isinstance(got, QueryReplyBody) else got


@settings(max_examples=200, deadline=None)
@given(
    body=st.builds(QueryReplyBody, status=U64, reason=st.text(max_size=6), readings=READINGS),
    edits=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)), max_size=3),
    cut=st.integers(0, 24),
    tail=st.binary(max_size=24),
)
def test_reply_status_and_count_rejects_what_decode_rejects(body, edits, cut, tail):
    """Byte edits in the count or the reason, cuts and trailing bytes: the
    status and count are decode's, and the rejects are decode's."""
    raw = bytearray(ref_reply(body))
    for pos, value in edits:
        raw[pos % len(raw)] = value
    raw = bytes(raw[: len(raw) - cut]) + tail
    assert reply_outcome(QueryReplyBody.status_and_count, raw) == reply_outcome(QueryReplyBody.decode, raw)


@settings(max_examples=80, deadline=None)
@given(readings=READINGS, bounds=st.tuples(U64, U64))
def test_reply_from_a_records_cached_range_matches_reference(readings, bounds):
    """A node's reply carries the bytes `read_history` packed for its range,
    on the read that fills the record's cached range and on the one it serves."""
    owner, contract = bytes(32), b"\x01" * 32
    world = WorldState(contracts={contract: HealthRecordState(owner, readings)})
    from_ts, to_ts = min(bounds), max(bounds)
    for _ in range(2):
        found = read_history(world, contract, owner, from_ts, to_ts)
        body = QueryReplyBody(0, "", found)
        assert found == [r for r in readings if from_ts <= r[0] <= to_ts]
        # The reply's layout writes the kept bytes themselves, not a second packing of them.
        assert dict(QueryReplyBody.LAYOUT)["readings"].write(found) is found.packed
        assert body.encode() == ref_reply(body)


@settings(max_examples=80, deadline=None)
@given(query=QUERIES)
def test_query_record_matches_reference(query):
    raw = ref_query(query)
    assert query.encode() == raw
    assert Query.decode(raw) == query
    assert_rejects_truncation_and_trailing(Query.decode, raw)


def test_query_record_is_not_a_transaction():
    raw = Query(bytes(32), 0, 10).encode()
    with pytest.raises(DecodeError):
        Transaction.decode(raw)
    with pytest.raises(DecodeError):
        Query.decode(b"\x03" + raw[1:])  # a block header's tag


@settings(max_examples=80, deadline=None)
@given(body=CONFIRMS)
def test_confirmation_matches_reference(body):
    raw = ref_confirm(body)
    assert body.encode() == raw
    again = ConfirmBody.decode(raw)
    assert again == body
    assert all(type(e) is ConfirmEntry for e in again.entries)
    assert_rejects_truncation_and_trailing(ConfirmBody.decode, raw)


@settings(max_examples=80, deadline=None)
@given(message=CHANNEL_MESSAGES)
def test_channel_message_matches_reference(message):
    raw = ref_channel_message(message)
    assert message.encode() == raw
    assert ChannelMessage.decode(raw) == message
    assert_rejects_truncation_and_trailing(ChannelMessage.decode, raw)


@settings(max_examples=40, deadline=None)
@given(message=CHANNEL_MESSAGES, size=st.integers(0, 80).filter(lambda n: n != 32))
def test_channel_message_identification_other_than_a_key_rejected(message, size):
    raw = ref_channel_message(replace(message, identification=bytes(size)))
    with pytest.raises(DecodeError):
        ChannelMessage.decode(raw)


def test_nested_records_use_their_class_methods_as_they_are_at_call_time(monkeypatch):
    """A per-layer tracer replaces methods on a record's class; every nested
    use of the record must reach the replacement."""
    sender, proposer = kp("nested-sender"), kp("nested-proposer")
    txs = [make_transaction(sender, n, n, Transfer(to=bytes(32), amount=n)) for n in (1, 2, 3)]
    block = build_block(txs, Block(BlockHeader(0, 0, bytes(32), bytes(32), bytes(32), bytes(64)), ()), proposer, 10)
    seen = collections.Counter()

    def count(cls, name, wrap=lambda f: f):
        original = getattr(cls, name)

        def counted(*args):
            seen[cls.__name__, name] += 1
            return original(*args)

        monkeypatch.setattr(cls, name, wrap(counted))

    count(Transaction, "encode")
    count(Block, "encode")
    count(Transaction, "read", lambda f: classmethod(lambda _cls, r: f(r)))
    count(BlockHeader, "read", lambda f: classmethod(lambda _cls, r: f(r)))
    raw = make_message(proposer, Phase.PRE_PREPARE, 1, 0, bytes(32), block).encode()
    ConsensusMessage.decode(raw)
    assert seen == {("Block", "encode"): 1, ("Transaction", "encode"): 3, ("Transaction", "read"): 3, ("BlockHeader", "read"): 1}


RECORDS = (Transfer, Deploy, Call, Query, Transaction, BlockHeader, Block, ConsensusMessage, ChannelMessage, QueryReplyBody, ConfirmBody)


@pytest.mark.parametrize("cls", RECORDS, ids=[cls.__name__ for cls in RECORDS])
def test_layout_names_the_constructor_arguments_in_order(cls):
    assert [name for name, _ in cls.LAYOUT] == [f.name for f in fields(cls) if f.init]


BAD_READINGS = {
    "negative_timestamp": [(1000, 72), (-1, 72)],
    "timestamp_too_large": [(2**64, 72)],
    "heart_rate_too_large": [(1000, 2**64)],
    "not_an_integer": [(1000, 72.5)],
    "triple": [(1000, 72, 1)],
    "single": [(1000,)],
    "triple_then_single": [(1000, 72, 2000), (75,)],
}


@pytest.mark.parametrize("readings", BAD_READINGS.values(), ids=BAD_READINGS.keys())
@pytest.mark.parametrize(
    "encode",
    [
        lambda rs: QueryReplyBody(0, "", rs).encode(),
        lambda rs: interpreted_bytes(QueryReplyBody(0, "", rs)),
        lambda rs: HealthRecordState(bytes(32), rs).encode(),
    ],
    ids=["reply", "interpreted_reply", "record_state"],
)
def test_bad_reading_raises_value_error(encode, readings):
    with pytest.raises(ValueError):
        encode(readings)


def forge_count(raw, count):
    at = 1 + 8 + 4  # tag, status, empty reason
    return raw[:at] + ref_u64(count) + raw[at + 8 :]


def assert_rejected_without_allocating(decode, raw):
    tracemalloc.start()
    try:
        with pytest.raises(DecodeError):
            decode(raw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize("count", [2**64 - 1, 2**20, 4], ids=["u64_max", "large", "one_more"])
def test_forged_reading_count_rejected_without_allocating(count):
    raw = QueryReplyBody(0, "", [(1000, 72), (2000, 75), (3000, 80)]).encode()
    assert_rejected_without_allocating(QueryReplyBody.decode, forge_count(raw, count))


@pytest.mark.parametrize("count", [2**64 - 1, 2**20, 3], ids=["u64_max", "large", "one_more"])
def test_forged_confirmation_count_rejected_without_allocating(count):
    entries = tuple(ConfirmEntry(bytes([i]) * 32, "ok", "", 1000 + i) for i in range(2))
    raw = ConfirmBody(7, entries).encode()
    at = 1 + 8  # tag, height
    assert_rejected_without_allocating(ConfirmBody.decode, raw[:at] + ref_u64(count) + raw[at + 8 :])


@pytest.mark.parametrize("count", [2**64 - 1, 2**20, 3], ids=["u64_max", "large", "one_more"])
def test_forged_transaction_count_rejected_without_allocating(count):
    sender = kp("count")
    txs = [make_transaction(sender, n, 5, Transfer(to=bytes(32), amount=n)) for n in (1, 2)]
    block = build_block(txs, Block(BlockHeader(0, 0, bytes(32), bytes(32), bytes(32), bytes(64)), ()), kp("count-proposer"), 10)
    raw = block.encode()
    at = 1 + len(block.header.encode())  # tag, header
    assert raw[at : at + 8] == ref_u64(2)
    assert_rejected_without_allocating(Block.decode, raw[:at] + ref_u64(count) + raw[at + 8 :])


def test_message_with_bad_block_flag_rejected():
    msg = make_message(kp("flag"), Phase.PREPARE, 1, 0, bytes(32))
    raw = bytearray(msg.encode())
    flag_at = 1 + 1 + 8 + 8 + 4 + 32
    assert raw[flag_at] == 0
    raw[flag_at] = 2
    with pytest.raises(DecodeError):
        ConsensusMessage.decode(bytes(raw))


@pytest.mark.parametrize("phase", [4, 9, 255])
def test_message_with_bad_phase_rejected(phase):
    raw = bytearray(make_message(kp("phase"), Phase.PREPARE, 1, 0, bytes(32)).encode())
    assert raw[1] == Phase.PREPARE
    raw[1] = phase
    with pytest.raises(DecodeError):
        ConsensusMessage.decode(bytes(raw))


# --- compiled against interpreted ---------------------------------------------------

RECORD_VALUES = {
    Transfer: st.builds(Transfer, to=st.binary(max_size=40), amount=U64),
    Deploy: st.builds(Deploy, contract_kind=st.text(max_size=12), init_args=st.binary(max_size=40)),
    Call: st.builds(Call, contract_address=st.binary(max_size=40), method=st.text(max_size=12), args=st.binary(max_size=40)),
    Query: QUERIES,
    Transaction: TXS,
    BlockHeader: HEADERS,
    Block: BLOCKS,
    ConsensusMessage: MESSAGES,
    ChannelMessage: CHANNEL_MESSAGES,
    QueryReplyBody: st.builds(QueryReplyBody, status=U64, reason=st.text(max_size=12), readings=READINGS),
    ConfirmBody: CONFIRMS,
    ConfirmEntry: CONFIRM_ENTRIES,
    PreparedWake: st.builds(
        PreparedWake,
        device=st.text(max_size=8),
        step=U64,
        node=st.text(max_size=4),
        sealed=st.binary(max_size=60),
        tx_hash=st.binary(max_size=32),
        verdicts=st.lists(st.binary(min_size=VERDICT_LEN, max_size=VERDICT_LEN), max_size=3).map(b"".join),
    ),
}


def test_every_record_class_is_checked_against_the_interpreter():
    assert set(RECORD_VALUES) == set(record_classes())


def outcome(decode, data):
    """What `decode` makes of the bytes: the record and the bytes it keeps, or a reject."""
    try:
        decoded = decode(data)
    except DecodeError:
        return "reject"
    return repr(decoded), getattr(decoded, "_signing", None), getattr(decoded, "_raw", None)


def both_outcomes(cls, variants):
    """What the compiled and the interpreted codec make of each byte string."""
    compiled = [outcome(cls.decode, data) for data in variants]
    with interpreted():
        return compiled, [outcome(lambda data: interpreted_decode(cls, data), data) for data in variants]


ANY_RECORD = st.sampled_from(list(RECORD_VALUES)).flatmap(RECORD_VALUES.__getitem__)


# No shrinking: each example decodes a few thousand byte strings, so a failure is reported as drawn.
@pytest.mark.parametrize("cls", RECORD_VALUES, ids=[cls.__name__ for cls in RECORD_VALUES])
@settings(max_examples=10, deadline=None, phases=[Stage.explicit, Stage.reuse, Stage.generate])
@given(data=st.data())
def test_each_byte_edit_and_cut_gets_one_answer_from_both_codecs(cls, data):
    """Each byte of the first 256 and the last 64 set to values near the
    bounds of tags, flags and lengths, and a cut at each of them."""
    record = data.draw(RECORD_VALUES[cls])
    raw = record.encode()
    assert raw == interpreted_bytes(record)
    positions = sorted(set(range(min(len(raw), 256))) | set(range(max(len(raw) - 64, 0), len(raw))))
    variants = [raw]
    for i in positions:
        for value in {0, 1, 2, 3, 4, 255, raw[i] ^ 1, (raw[i] + 1) % 256, (raw[i] - 1) % 256} - {raw[i]}:
            variants.append(raw[:i] + bytes([value]) + raw[i + 1 :])
        variants.append(raw[:i])
    compiled, reference = both_outcomes(cls, variants)
    assert compiled[0] != "reject"
    assert compiled == reference


@settings(max_examples=400, deadline=None)
@given(
    record=ANY_RECORD,
    edits=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)), max_size=3),
    cut=st.integers(0, 2**16),
    tail=st.binary(max_size=24),
)
def test_compiled_codecs_agree_with_the_interpreter(record, edits, cut, tail):
    """Byte edits anywhere, a cut anywhere and appended bytes: the compiled
    and the interpreted codec return the same record, or both reject the bytes."""
    changed = bytearray(record.encode())
    for pos, value in edits:
        changed[pos % len(changed)] = value
    changed = bytes(changed[: len(changed) - cut % (len(changed) + 1)]) + tail
    compiled, reference = both_outcomes(type(record), [changed])
    assert compiled == reference


def with_u64(value):
    """Records, by name, whose one u64 field, at any depth, holds `value`."""
    tx = make_transaction(kp("range"), 1, 5, Transfer(to=bytes(32), amount=3))
    header = BlockHeader(0, 0, bytes(32), bytes(32), bytes(32), bytes(64))
    return {
        "transfer": Transfer(bytes(32), value),
        "query": Query(bytes(32), 0, value),
        "transaction": replace(tx, gas_limit=value),
        "transaction_payload": replace(tx, payload=Transfer(bytes(32), value)),
        "header": replace(header, height=value),
        "block_transaction": Block(header, (replace(tx, nonce=value),)),
        "message": ConsensusMessage(Phase.PREPARE, 1, value, bytes(32), None, bytes(32), bytes(64)),
        "channel_message": ChannelMessage(value, 1, bytes(32), b""),
        "reply": QueryReplyBody(value, "", []),
        "confirmation_entry": ConfirmBody(1, (ConfirmEntry(b"", "ok", "", value),)),
        "prepared_wake": PreparedWake("d0", value, "n0", b"", b"", b""),
    }


ENCODERS = {"compiled": lambda record: record.encode(), "interpreted": interpreted_bytes}


@pytest.mark.parametrize("encode", ENCODERS.values(), ids=ENCODERS.keys())
@pytest.mark.parametrize("value", [-1, 2**64], ids=["negative", "too_large"])
@pytest.mark.parametrize("name", list(with_u64(0)))
def test_a_u64_out_of_range_raises_value_error(encode, value, name):
    """A ValueError, never a bare `struct.error`, which is no ValueError."""
    with pytest.raises(ValueError):
        encode(with_u64(value)[name])


@pytest.mark.parametrize("value", [-1, 2**64], ids=["negative", "too_large"])
def test_signing_a_u64_out_of_range_raises_value_error(value):
    with pytest.raises(ValueError):
        make_transaction(kp("range"), value, 5, Transfer(to=bytes(32), amount=3))


@pytest.mark.parametrize("encode", ENCODERS.values(), ids=ENCODERS.keys())
@pytest.mark.parametrize("phase", [-1, 256], ids=["negative", "too_large"])
def test_a_phase_out_of_u8_range_raises_value_error(encode, phase):
    with pytest.raises(ValueError):
        encode(ConsensusMessage(phase, 1, 0, bytes(32), None, bytes(32), bytes(64)))


@pytest.mark.parametrize("payload", [Query(bytes(32), 0, 1), b"transfer"], ids=["query", "bytes"])
def test_a_payload_of_no_payload_class_is_refused(payload):
    tx = make_transaction(kp("payload"), 1, 5, Transfer(to=bytes(32), amount=3))
    with pytest.raises(TypeError, match="is no payload"):
        replace(tx, payload=payload).encode()


TRACED = [
    (Transaction, "signing_bytes"),
    (Transaction, "encode"),
    (Transaction, "decode"),
    (Block, "encode"),
    (QueryReplyBody, "encode"),
    (QueryReplyBody, "decode"),
]


@pytest.mark.parametrize("cls, name", TRACED, ids=[f"{cls.__name__}.{name}" for cls, name in TRACED])
def test_traced_codec_methods_are_the_class_own(cls, name):
    """Per-layer tracing wraps each of these in its class's own `__dict__`;
    an inherited one would escape the wrapper and count no call."""
    assert name in cls.__dict__


HOT = [
    (ChannelMessage, "decode"),
    (Transaction, "decode"),
    (QueryReplyBody, "encode"),
    (QueryReplyBody, "status_and_count"),
    (PreparedWake, "read"),
    (PreparedWake, "encode"),
]


def field_codec_functions() -> set:
    """The ids of the `write` and `read` of every field codec in any record's layout, nested ones included."""
    found, codecs = set(), [codec for cls in record_classes() for _, codec in cls.LAYOUT]
    while codecs:
        codec = codecs.pop()
        found |= {id(codec.write), id(codec.read)}
        for option in codec.form[1:]:
            if isinstance(option, Codec):
                codecs.append(option)
            elif isinstance(option, tuple):
                codecs += [item for item in option if isinstance(item, Codec)]
    return found


def globals_reached(function) -> list:
    """The values of the globals `function` names, and of those named by each
    compiled function it names, and so on."""
    namespace, seen, code = function.__globals__, set(), [function.__code__]
    while code:
        body = code.pop()
        code += [const for const in body.co_consts if hasattr(const, "co_names")]
        for name in set(body.co_names) & set(namespace) - seen:
            seen.add(name)
            value = namespace[name]
            if getattr(value, "__globals__", None) is namespace:
                code.append(value.__code__)
    return [namespace[name] for name in seen]


@pytest.mark.parametrize("cls, name", HOT, ids=[f"{cls.__name__}.{name}" for cls, name in HOT])
def test_hot_records_are_compiled_whole(cls, name):
    """The records on every message are read and written by generated code
    alone: it calls no field codec's own `write` or `read`."""
    function = getattr(cls.__dict__[name], "__func__", cls.__dict__[name])
    reached = globals_reached(function)
    assert any(isinstance(value, struct.Struct) for value in reached)  # the compiled body was found
    codec_functions = field_codec_functions()
    assert not [value for value in reached if id(value) in codec_functions]


# --- immutability ------------------------------------------------------------------


def sample_records():
    sender, proposer = kp("frozen-sender"), kp("frozen-proposer")
    tx = make_transaction(sender, 1, 5, Transfer(to=bytes(32), amount=3))
    parent = Block(BlockHeader(0, 0, bytes(32), bytes(32), bytes(32), bytes(64)), ())
    block = build_block([tx], parent, proposer, 10)
    msg = make_message(proposer, Phase.PRE_PREPARE, 1, 0, hash_block(block), block)
    return {
        "transaction": warm(tx),
        "decoded_transaction": Transaction.decode(tx.encode()),
        "header": block.header,
        "block": warm(block),
        "message": msg,
    }


@pytest.mark.parametrize("name", ["transaction", "decoded_transaction", "header", "block", "message"])
def test_assigning_any_field_raises(name):
    record = sample_records()[name]
    before = record.encode()
    for f in fields(record):
        with pytest.raises(FrozenInstanceError):
            setattr(record, f.name, getattr(record, f.name))
    assert record.encode() == before


def test_block_transactions_are_a_tuple():
    block = Block(BlockHeader(0, 0, bytes(32), bytes(32), bytes(32), bytes(64)), [])
    assert block.transactions == ()
    sender = kp("tuple")
    txs = [make_transaction(sender, n, n, Transfer(to=bytes(32), amount=n)) for n in (1, 2)]
    assert type(Block(block.header, txs).transactions) is tuple
