import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edgelinker
from edgelinker.chain import Call, Deploy, Transaction, Transfer, make_transaction
from edgelinker.codec import DecodeError, Reader, enc_bytes, enc_list, enc_u64
from tests.conftest import kp


def test_importing_the_codec_loads_no_other_module_of_the_package():
    # The package's `__init__` imports nothing, so a codec user does not pay for the simulator.
    script = "import sys, edgelinker.codec; print(sorted(m for m in sys.modules if m.startswith('edgelinker')))"
    src_dir = os.path.dirname(os.path.dirname(edgelinker.__file__))
    env = dict(os.environ, PYTHONPATH=src_dir)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "['edgelinker', 'edgelinker.codec']"


def test_u64_one_is_eight_big_endian_bytes():
    assert enc_u64(1) == bytes.fromhex("0000000000000001")


def test_empty_byte_string_is_four_zero_bytes():
    assert enc_bytes(b"") == bytes.fromhex("00000000")


def test_u64_range_checked():
    with pytest.raises(ValueError):
        enc_u64(-1)
    with pytest.raises(ValueError):
        enc_u64(2**64)


def test_list_encoding_prefixes_count():
    assert enc_list([b"a"], enc_bytes) == bytes.fromhex("00000001") + enc_bytes(b"a")


@given(st.integers(min_value=0, max_value=2**64 - 1), st.binary(max_size=200))
def test_reader_roundtrip(value, blob):
    data = enc_u64(value) + enc_bytes(blob)
    r = Reader(data)
    assert r.u64() == value
    assert r.bytes_() == blob
    r.expect_eof()


def test_reader_short_read():
    with pytest.raises(DecodeError):
        Reader(b"\x00\x01").u64()


def test_reader_trailing_bytes():
    r = Reader(enc_u64(5) + b"junk")
    r.u64()
    with pytest.raises(DecodeError):
        r.expect_eof()


PAYLOADS = st.one_of(
    st.builds(Transfer, to=st.binary(min_size=32, max_size=32), amount=st.integers(0, 2**32)),
    st.builds(Deploy, contract_kind=st.text(max_size=12), init_args=st.binary(max_size=32)),
    st.builds(
        Call,
        contract_address=st.binary(min_size=32, max_size=32),
        method=st.sampled_from(["add_reading", "grant", "revoke"]),
        args=st.binary(max_size=64),
    ),
)


@settings(max_examples=60, deadline=None)
@given(payload=PAYLOADS, nonce=st.integers(1, 2**32), ts=st.integers(0, 2**41))
def test_transaction_encode_decode_roundtrip(payload, nonce, ts):
    tx = make_transaction(kp("codec"), nonce, ts, payload)
    assert Transaction.decode(tx.encode()) == tx


def test_encoding_injective_over_random_transactions():
    # Oracle: distinct field tuples must map to distinct byte strings.
    import random

    rng = random.Random(77)
    sender = kp("inj")
    seen_ids = set()
    seen_encodings = set()
    for _ in range(2000):
        tx = make_transaction(
            sender,
            nonce=rng.randrange(1, 10**6),
            timestamp=rng.randrange(0, 10**9),
            payload=Transfer(to=rng.randbytes(32), amount=rng.randrange(10**9)),
        )
        ident = (tx.nonce, tx.timestamp, tx.payload.to, tx.payload.amount)
        if ident in seen_ids:
            continue
        enc = tx.encode()
        assert enc not in seen_encodings
        seen_ids.add(ident)
        seen_encodings.add(enc)
