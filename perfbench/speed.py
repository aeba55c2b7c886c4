"""The machine's speed while an execution runs, to scale its wall times.

On a shared host the speed of one core can halve for seconds at a time, so
a raw wall time says as much about the neighbours as about the program. The
probe times a fixed slice of work that runs no program code, so no change to
the program can move it: building, encoding, decoding and hashing a list of
records, plus one Ed25519 sign and verify, which is the mix the program
spends its time on. While `sampling`, a timer signal interrupts the
execution every SAMPLE_EVERY_S wall seconds to time one slice.

`factor` is the mean measured speed over REFERENCE_SPEED; multiplying a
wall time by it gives the time the same work takes at the reference speed.
REFERENCE_SPEED is the slice speed of an uncontended core of a 2-vCPU
2.1 GHz Xeon VM, so scaled times read as seconds on that machine at rest.
"""

from __future__ import annotations

import contextlib
import hashlib
import signal
import statistics
import struct
import time

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

SAMPLE_EVERY_S = 0.05
SLICE_RECORDS = 1_000
REFERENCE_SPEED = 600_000  # slice records per second


class SpeedProbe:
    def __init__(self):
        self.speeds: list = []
        self.spent_s = 0.0  # wall time spent in slices taken while sampling
        self._key = Ed25519PrivateKey.from_private_bytes(bytes(32))
        self._public = self._key.public_key()
        self._pack = struct.Struct(">Q").pack

    def _slice(self) -> float:
        """Times one slice; returns its speed in records per second."""
        pack = self._pack
        start = time.perf_counter()
        rows = [(i, i * 7) for i in range(SLICE_RECORDS)]
        body = b"".join(pack(a) + pack(b) for a, b in rows)
        table = {}
        for i, pair in enumerate(struct.iter_unpack(">QQ", body)):
            table[hashlib.sha256(pack(pair[0]) + pack(i)).digest()] = pair
        digest = hashlib.sha256(body).digest()
        self._public.verify(self._key.sign(digest), digest)
        return SLICE_RECORDS / (time.perf_counter() - start)

    def _on_alarm(self, *_signal_args) -> None:
        start = time.perf_counter()
        self.speeds.append(self._slice())
        self.spent_s += time.perf_counter() - start

    def clock(self) -> float:
        """Wall time that excludes the slices taken while sampling."""
        return time.perf_counter() - self.spent_s

    def burst(self, slices: int) -> float:
        """Speed factor measured now, from `slices` back-to-back slices."""
        return statistics.fmean(self._slice() for _ in range(slices)) / REFERENCE_SPEED

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self) -> float:
        return statistics.fmean(self.speeds) / REFERENCE_SPEED
