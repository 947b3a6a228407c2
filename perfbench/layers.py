"""Span tracing around the public entry points of each ``repro`` layer.

The traced run installs wrappers from outside the program: nothing in
``src/`` changes.  Each wrapped call opens a span (name, start, end,
parent); a layer's self time is its span minus the spans nested in it.
Three things the wrappers handle:

* names imported by name are patched where they are used — every
  ``repro`` module global bound to a wrapped function is rebound, so
  ``interpret.order.encoding_key`` or ``shim.shim.capture_checkpoint``
  are traced like the module attribute they came from;
* a span never nests inside a span of its own family: ``codec.encode``
  and ``codec.decode`` re-enter themselves for container members, and
  ``codec.key`` is ``encode`` under another name, so every codec call
  made inside a codec span folds into that outermost span (``_calls``
  counts outermost calls only);
* leaf spans seen hundreds of thousands of times per run (codec,
  crypto, protocol handlers, flight-recorder emits) are not stored one
  by one: each is aggregated, per name, into its nearest stored
  ancestor span as ``[calls, seconds]``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``owner.attr`` in module ``module``.

    ``owner`` is a class name inside the module, or ``None`` for a
    module-level function (then every by-name binding is patched too).
    """

    module: str
    owner: str | None
    attr: str
    span: str
    leaf: bool = False
    #: ``"result"`` or ``"arg"``: add ``len`` of it to ``bytes[span]``.
    size_of: str | None = None
    #: Spans of one family never nest; defaults to the span name.
    family: str | None = None


TARGETS: tuple[Target, ...] = (
    Target("repro.scenario.runner", "ScenarioRunner", "run", "scenario.run"),
    Target("repro.runtime.cluster", "Cluster", "round", "runtime.round"),
    Target("repro.runtime.cluster", "Cluster", "restart", "runtime.restart"),
    Target("repro.net.simulator", "NetworkSimulator", "step", "net.step"),
    Target("repro.gossip.module", "Gossip", "on_receive", "gossip.receive"),
    Target("repro.gossip.module", "Gossip", "disseminate", "gossip.disseminate"),
    Target("repro.dag.blockdag", "Validator", "validity", "dag.validity"),
    Target("repro.dag.blockdag", "BlockDag", "insert", "dag.insert"),
    Target("repro.dag.codec", None, "encode", "codec.encode", True, "result", "codec"),
    Target("repro.dag.codec", None, "decode", "codec.decode", True, "arg", "codec"),
    Target("repro.dag.codec", None, "encoding_key", "codec.key", True, None, "codec"),
    Target("repro.crypto.keys", "KeyRing", "sign", "crypto.sign", True),
    Target("repro.crypto.keys", "KeyRing", "verify", "crypto.verify", True),
    Target("repro.interpret.interpreter", "Interpreter", "run", "interpret.run"),
    Target("repro.interpret.order", None, "ordered", "interpret.order"),
    Target("repro.protocols.brb", "ReliableBroadcast", "on_request", "protocols.handler", True),
    Target("repro.protocols.brb", "ReliableBroadcast", "on_message", "protocols.handler", True),
    Target("repro.protocols.counter", "CounterProtocol", "on_request", "protocols.handler", True),
    Target("repro.protocols.counter", "CounterProtocol", "on_message", "protocols.handler", True),
    Target("repro.storage.blockstore", "ServerStorage", "flush_wal", "storage.wal_flush"),
    Target("repro.storage.blockstore", "ServerStorage", "write_checkpoint", "storage.write_checkpoint"),
    Target("repro.storage.blockstore", "ServerStorage", "load_blocks", "storage.wal_replay"),
    Target("repro.storage.checkpoint", None, "capture_checkpoint", "storage.checkpoint_capture"),
    Target("repro.storage.checkpoint", "CheckpointManager", "write", "storage.checkpoint_write"),
    # Renamed per call: verify under write_checkpoint, read elsewhere.
    Target("repro.storage.checkpoint", "CheckpointManager", "load", "storage.checkpoint_load"),
    Target("repro.storage.checkpoint", None, "restore_block_state", "storage.restore"),
    Target("repro.storage.recover", None, "recover_shim_state", "storage.recover"),
    Target("repro.storage.gc", None, "prune", "storage.prune"),
    Target("repro.horizon.tracker", "HorizonTracker", "observe", "horizon.observe"),
    Target("repro.obs.trace", "TraceRecorder", "emit", "obs.emit", True),
    Target("repro.shim.shim", "Shim", "checkpoint_now", "shim.checkpoint_now"),
)

#: Modules that bind a wrapped function by name; imported before
#: patching so their bindings exist and get rebound.
BY_NAME_USERS = (
    "repro.interpret.order",
    "repro.interpret.interpreter",
    "repro.protocols.pbft",
    "repro.protocols.phaseking",
    "repro.runtime.compare",
    "repro.shim.shim",
)


class SpanTracer:
    """Installs the layer wrappers and records spans while installed."""

    def __init__(self) -> None:
        #: Stored spans: ``[name, parent index, start, end, leaf aggregates]``.
        self.spans: list[list[Any]] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.bytes: dict[str, int] = {}
        #: Per-call durations of ``runtime.round`` (round percentiles).
        self.round_durations: list[float] = []
        #: Open frames: ``[child seconds, stored span index]``.
        self._stack: list[list[Any]] = []
        self._open: dict[str, int] = {}
        self._restore: list[Callable[[], None]] = []
        #: ``module.global`` names that were rebound (by-name bindings).
        self.patched_sites: list[str] = []

    # -- recording -------------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (wrappers stay installed)."""
        self.spans.clear()
        self.calls.clear()
        self.self_s.clear()
        self.total_s.clear()
        self.bytes.clear()
        self.round_durations.clear()

    def _wrap(self, fn: Callable[..., Any], target: Target) -> Callable[..., Any]:
        stack = self._stack
        open_ = self._open
        spans = self.spans
        calls = self.calls
        self_s = self.self_s
        total_s = self.total_s
        nbytes = self.bytes
        rounds = self.round_durations
        leaf = target.leaf
        size_of = target.size_of
        fixed = target.span
        family = target.family or fixed
        renamed = fixed == "storage.checkpoint_load"

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            name = fixed
            if renamed:
                name = (
                    "storage.checkpoint_verify"
                    if open_.get("storage.write_checkpoint")
                    else "storage.checkpoint_read"
                )
            if open_.get(family):
                return fn(*args, **kwargs)
            open_[family] = 1
            parent = stack[-1][1] if stack else None
            if leaf:
                index = parent
            else:
                index = len(spans)
                spans.append([name, parent, 0.0, 0.0, None])
            frame = [0.0, index]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                open_[family] = 0
                duration = end - start
                self_s[name] = self_s.get(name, 0.0) + duration - frame[0]
                total_s[name] = total_s.get(name, 0.0) + duration
                calls[name] = calls.get(name, 0) + 1
                if stack:
                    stack[-1][0] += duration
                if leaf:
                    if index is not None:
                        record = spans[index]
                        if record[4] is None:
                            record[4] = {}
                        agg = record[4].get(name)
                        if agg is None:
                            record[4][name] = [1, duration]
                        else:
                            agg[0] += 1
                            agg[1] += duration
                else:
                    spans[index][2] = start
                    spans[index][3] = end
                    if name == "runtime.round":
                        rounds.append(duration)
            if size_of is not None:
                sized = result if size_of == "result" else args[0]
                nbytes[name] = nbytes.get(name, 0) + len(sized)
            return result

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target.  Install before building the runner: the
        program binds some methods (insert listeners, verify callbacks)
        when its objects are constructed."""
        if self._restore:
            raise RuntimeError("layer wrappers already installed")
        self.patched_sites.clear()
        for module in BY_NAME_USERS:
            importlib.import_module(module)
        for target in TARGETS:
            module = importlib.import_module(target.module)
            if target.owner is None:
                self._patch_function(module, target)
            else:
                self._patch_method(getattr(module, target.owner), target)

    def _patch_method(self, cls: type, target: Target) -> None:
        original = cls.__dict__[target.attr]
        setattr(cls, target.attr, self._wrap(original, target))
        self._restore.append(lambda: setattr(cls, target.attr, original))

    def _patch_function(self, home: Any, target: Target) -> None:
        original = getattr(home, target.attr)
        wrapper = self._wrap(original, target)
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
                    self.patched_sites.append(f"{name}.{key}")
                    self._restore.append(
                        functools.partial(namespace.__setitem__, key, original)
                    )

    def uninstall(self) -> None:
        """Put every original back, in reverse order of patching."""
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "SpanTracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # -- output ----------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """Write the stored spans as JSON lines (one span per line)."""
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, parent, start, end, leaves) in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": name,
                    "parent": parent,
                    "start": start,
                    "end": end,
                }
                if leaves:
                    record["leaves"] = leaves
                out.write(json.dumps(record, sort_keys=True) + "\n")

    def self_by_layer(self) -> dict[str, float]:
        """Self seconds grouped by layer (the span-name prefix)."""
        layers: dict[str, float] = {}
        for name, seconds in self.self_s.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + seconds
        return layers
