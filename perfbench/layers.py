"""Per-layer tracing from outside the program.

Wraps the public functions and methods at each layer boundary and keeps,
per name, the number of calls and the self time: a call's duration minus
the time covered by the wrapped calls it made. Calls are aggregated per
name rather than logged one by one, because the codec entry points run
hundreds of thousands of times in one execution.

A function imported with `from .chain import build_block` is bound in the
importing module too, so every binding of the original object in any
`edgelinker` module is replaced, not only the defining one.
"""

from __future__ import annotations

import functools
import importlib
import sys


def _seal_bytes(stat, args, result, ok):
    if ok:
        stat[2] += len(result.sender_hint) + len(result.ciphertext)


def _open_failed(stat, args, result, ok):
    if not ok:
        stat[2] += 1


def _txs_applied(stat, args, result, ok):
    stat[2] += len(args[1].transactions)


def _readings_returned(stat, args, result, ok):
    if ok:
        stat[2] += len(result)


# (metric name, defining module, attribute or Class.method, observer of each call)
TARGETS = (
    ("codec.tx_signing_bytes", "edgelinker.chain", "Transaction.signing_bytes", None),
    ("codec.tx_encode", "edgelinker.chain", "Transaction.encode", None),
    ("codec.tx_decode", "edgelinker.chain", "Transaction.decode", None),
    ("codec.block_encode", "edgelinker.chain", "Block.encode", None),
    ("codec.reply_encode", "edgelinker.node", "QueryReplyBody.encode", None),
    ("codec.reply_decode", "edgelinker.node", "QueryReplyBody.decode", None),
    ("channel.seal_message", "edgelinker.channel", "seal_message", _seal_bytes),
    ("channel.open_message", "edgelinker.channel", "open_message", _open_failed),
    ("channel.verify_digest", "edgelinker.channel", "verify_digest", None),
    ("channel.derive_shared_key", "edgelinker.channel", "derive_shared_key", None),
    ("chain.make_transaction", "edgelinker.chain", "make_transaction", None),
    ("chain.verify_transaction", "edgelinker.chain", "verify_transaction", None),
    ("chain.hash_tx", "edgelinker.chain", "hash_tx", None),
    ("chain.build_block", "edgelinker.chain", "build_block", None),
    ("chain.validate_block", "edgelinker.chain", "validate_block", None),
    ("chain.hash_block", "edgelinker.chain", "hash_block", None),
    ("consensus.make_message", "edgelinker.consensus", "make_message", None),
    ("consensus.verify_message", "edgelinker.consensus", "verify_message", None),
    ("consensus.on_message", "edgelinker.consensus", "ConsensusEngine.on_message", None),
    ("contracts.apply_block", "edgelinker.contracts", "apply_block", _txs_applied),
    ("contracts.read_history", "edgelinker.contracts", "read_history", _readings_returned),
    ("node.handle_envelope", "edgelinker.node", "FogNode.handle_envelope", None),
    ("node.on_gossip", "edgelinker.node", "FogNode.on_gossip", None),
    ("node.on_consensus", "edgelinker.node", "FogNode.on_consensus", None),
    ("node.on_timer", "edgelinker.node", "FogNode.on_timer", None),
    ("sim.run", "edgelinker.sim", "Simulation.run", None),
    ("sim.device_wake", "edgelinker.sim", "DeviceActor.wake", None),
    ("sim.device_receive", "edgelinker.sim", "DeviceActor.on_receive", None),
)


class LayerTracer:
    """Installs the wrappers; `stats[name]` is [calls, self seconds, extra count].

    `clock` returns seconds; self times are differences of its readings.
    """

    def __init__(self, clock):
        self.clock = clock
        self.stats = {name: [0, 0.0, 0] for name, _m, _a, _o in TARGETS}
        self.missing: list = []
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, fn, stat, observe):
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            result, ok = None, False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                if observe is not None:
                    observe(stat, args, result, ok)

        return traced

    def install(self) -> None:
        for name, module_name, attr, observe in TARGETS:
            stat = self.stats[name]
            try:
                owner = importlib.import_module(module_name)
                if "." in attr:
                    class_name, method = attr.split(".")
                    self._wrap_method(getattr(owner, class_name), method, stat, observe)
                else:
                    self._wrap_function(getattr(owner, attr), stat, observe)
            except (AttributeError, KeyError, ImportError):
                # A refactor removed or renamed it: report zero, keep tracing the rest.
                self.missing.append(name)

    def _wrap_function(self, original, stat, observe) -> None:
        traced = self._wrap(original, stat, observe)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("edgelinker"):
                continue
            for binding, value in list(vars(module).items()):
                if value is original:
                    setattr(module, binding, traced)
                    self._undo.append((module, binding, original))

    def _wrap_method(self, cls, method, stat, observe) -> None:
        raw = cls.__dict__[method]
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self._wrap(raw.__func__, stat, observe))
        else:
            replacement = self._wrap(raw, stat, observe)
        setattr(cls, method, replacement)
        self._undo.append((cls, method, raw))

    def uninstall(self) -> None:
        for owner, binding, original in reversed(self._undo):
            setattr(owner, binding, original)
        self._undo.clear()

    def report(self, scale: float) -> dict:
        """Per name: calls, self time multiplied by `scale`, and the observer's count."""
        return {name: {"calls": s[0], "self_s": s[1] * scale, "extra": s[2]} for name, s in self.stats.items()}
