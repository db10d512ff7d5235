"""In-memory span tracing of the program's layers, from outside the program.

A :class:`Tracer` wraps the public entry points of each layer (module
functions and public methods) for the duration of one traced pass.  A
module function is replaced everywhere a ``repro`` module bound it by
name, so callers that did ``from repro.crypto.ecdsa import verify`` are
traced too.  Everything is restored when the pass ends; nothing under
``src/`` changes.

Each span records its name, start, end, parent span and an item id
(the release or request it served), kept in memory and written out as
JSONL at the end.  Entry points called millions of times (hashing,
scalar multiplication, report body hashing) are counted, not spanned.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers, in report order.  A span's layer is its name's first part.
LAYERS = (
    "crypto", "core", "detection", "contracts", "chain", "network",
    "store", "query", "shard", "economics", "experiments",
)


def _rejected(result) -> bool:
    return not result.ok


def _receipt_failed(result) -> bool:
    return not result.success


class Tracer:
    """Spans plus counters for one traced pass."""

    def __init__(self) -> None:
        #: [name, start, end, parent index, item] per span, entry order.
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        #: Item id given to spans that start with no parent span.
        self.current_item: Optional[str] = None
        #: Spans and counts are recorded only inside the measured window
        #: (:meth:`start` .. :meth:`stop`), not during set-up or checks.
        self.active = False
        self._stack: List[int] = []
        self._verify_keys: set = set()
        self._networks: List[Any] = []
        self._traffic: Dict[str, int] = {}
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- wrappers --------------------------------------------------------

    def span(
        self,
        name: str,
        fn: Callable,
        item: Optional[Callable[[tuple], str]] = None,
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable:
        """``fn`` wrapped in a span named ``name``.

        ``item`` derives the item id from the call's arguments (else the
        parent's item is inherited); ``after`` sees the arguments and the
        result, to count outcomes such as rejections.
        """
        spans = self.spans
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            if item is not None:
                label = item(args)
            elif parent >= 0:
                label = spans[parent][4]
            else:
                label = tracer.current_item
            record = [name, 0.0, 0.0, parent, label]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[2] = perf_counter()
                stack.pop()
                tracer.counts[name + ".raised"] += 1
                raise
            record[2] = perf_counter()
            stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to count its calls only."""
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def start(self) -> None:
        self.active = True

    def stop(self) -> None:
        """End the measured window; gossip totals are read here, not later."""
        self.active = False
        self._traffic = {
            "network.messages_sent": sum(net.messages_sent for net in self._networks),
            "network.bytes_sent": sum(net.bytes_sent for net in self._networks),
            "duplicated": sum(net.messages_duplicated for net in self._networks),
        }

    def watch(self, network) -> None:
        """Count a gossip network built before the traced pass began."""
        self._networks.append(network)

    # -- patching ----------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, module_name: str, attr: str, wrap: Callable) -> None:
        """Replace a module function in every ``repro`` module bound to it."""
        original = getattr(importlib.import_module(module_name), attr)
        wrapped = wrap(original)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapped)

    def _patch_method(self, module_name: str, path: str, wrap: Callable) -> None:
        class_name, attr = path.split(".")
        owner = getattr(importlib.import_module(module_name), class_name)
        raw = None
        for klass in owner.__mro__:
            if attr in klass.__dict__:
                raw = klass.__dict__[attr]
                break
        if isinstance(raw, classmethod):
            wrapped = classmethod(wrap(raw.__func__))
        else:
            wrapped = wrap(raw)
        # Set on the class itself (shadowing an inherited definition), so
        # restoring puts back exactly what was there.
        self._restore.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        """Wrap every layer entry point; undo with :meth:`uninstall`."""
        span, count = self.span, self.counter
        sra_item = lambda args: args[1].sra_id.hex()[:16]  # noqa: E731

        def note_verify(args, _result):
            if len(args) >= 3:
                public_key, digest, signature = args[0], args[1], args[2]
                self._verify_keys.add(
                    (digest, signature.r, signature.s, public_key)
                )

        def outcome(metric, failed):
            def after(_args, result):
                if failed(result):
                    self.counts[metric] += 1
            return after

        def note_serve(args, responses):
            self.counts["query.serve.requests"] += len(args[1])
            self.counts["query.serve.failed"] += sum(1 for r in responses if not r.ok)

        def note_events(_args, fired):
            self.counts["network.events"] += fired

        functions = [
            ("repro.crypto.ecdsa", "sign", lambda f: span("crypto.sign", f)),
            ("repro.crypto.ecdsa", "verify",
             lambda f: span("crypto.verify", f, after=note_verify)),
            ("repro.crypto.ecdsa", "scalar_mult",
             lambda f: count("crypto.scalar_mult.calls", f)),
            ("repro.crypto.hashing", "hash_fields",
             lambda f: count("crypto.hash_fields.calls", f)),
            *(
                ("repro.economics.batch", name, lambda f: span("economics.settle", f))
                for name in (
                    "detector_settlement", "provider_incentives", "provider_punishments",
                    "crosscheck_detectors", "crosscheck_providers", "punishment_curve_ether",
                    "provider_balance_curves_ether", "incentive_grid_ether",
                )
            ),
            ("repro.experiments.runner", "run_trials",
             lambda f: span("experiments.run_trials", f)),
        ]
        methods = [
            ("repro.core.verification", "ReportVerifier.verify_initial",
             lambda f: span("core.verify_initial", f, item=sra_item,
                            after=outcome("core.verify.rejected", _rejected))),
            ("repro.core.verification", "ReportVerifier.verify_detailed",
             lambda f: span("core.verify_detailed", f, item=sra_item,
                            after=outcome("core.verify.rejected", _rejected))),
            ("repro.core.reports", "DetailedReport.body_hash",
             lambda f: count("core.body_hash.calls", f)),
            ("repro.core.consumer", "ConsumerClient.lookup",
             lambda f: span("core.consumer_lookup", f)),
            ("repro.detection.detector", "Detector.scan",
             lambda f: span("detection.scan", f)),
            ("repro.detection.autoverif", "AutoVerifEngine.verify",
             lambda f: span("detection.autoverif", f)),
            ("repro.contracts.vm", "ContractRuntime.deploy",
             lambda f: span("contracts.deploy", f)),
            ("repro.contracts.vm", "ContractRuntime.call",
             lambda f: span("contracts.call", f,
                            after=outcome("contracts.call.failed", _receipt_failed))),
            ("repro.chain.validation", "BlockValidator.validate",
             lambda f: span("chain.validate", f,
                            after=outcome("chain.validate.rejected", _rejected))),
            ("repro.chain.chain", "Blockchain.add_block",
             lambda f: span("chain.add_block", f)),
            ("repro.chain.block", "Block.assemble", lambda f: span("chain.mine", f)),
            ("repro.network.simulator", "Simulator.advance_until",
             lambda f: span("network.advance", f, after=note_events)),
            ("repro.network.simulator", "Simulator.advance",
             lambda f: span("network.advance", f, after=note_events)),
            ("repro.network.gossip", "GossipNetwork.__init__", self._track_network),
            ("repro.store.store", "ChainStore.append", lambda f: span("store.append", f)),
            ("repro.store.store", "HeaderStore.append", lambda f: span("store.append", f)),
            ("repro.store.store", "ChainStore.maybe_snapshot",
             lambda f: span("store.snapshot", f)),
            ("repro.store.store", "ChainStore.reopen", lambda f: span("store.restart", f)),
            ("repro.store.store", "ChainStore.load_chain",
             lambda f: span("store.restart", f)),
            ("repro.store.store", "HeaderStore.reopen", lambda f: span("store.restart", f)),
            ("repro.store.store", "HeaderStore.load_headers",
             lambda f: span("store.restart", f)),
            ("repro.query.service", "QueryService.serve_batch",
             lambda f: span("query.serve", f, after=note_serve)),
            ("repro.query.indices", "ChainIndex.refresh",
             lambda f: span("query.index_refresh", f)),
            ("repro.shard.engine", "ShardedSimulator.step", lambda f: span("shard.step", f)),
            ("repro.shard.engine", "ShardedSimulator.settle",
             lambda f: span("shard.settle", f)),
            ("repro.shard.engine", "ShardedSimulator.finalize",
             lambda f: span("shard.finalize", f)),
            ("repro.shard.engine", "ShardState.run_epoch",
             lambda f: span("shard.run_epoch", f)),
        ]
        for module_name, attr, wrap in functions:
            self._patch_function(module_name, attr, wrap)
        for module_name, path, wrap in methods:
            self._patch_method(module_name, path, wrap)
        # The store's metadata writes: rename-into-place and (if any) fsync.
        self._set(os, "replace", span("store.rename", os.replace))
        self._set(os, "rename", span("store.rename", os.rename))
        self._set(os, "fsync", count("store.fsync.calls", os.fsync))
        self._set(os, "fdatasync", count("store.fsync.calls", os.fdatasync))

    def _track_network(self, init: Callable) -> Callable:
        networks = self._networks
        tracer = self

        @functools.wraps(init)
        def tracked(network, *args, **kwargs):
            init(network, *args, **kwargs)
            if tracer.active:
                networks.append(network)

        return tracked

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- report ------------------------------------------------------------

    def report(self, wall_s: float) -> Dict[str, float]:
        """Per-layer metrics of the pass: busy time, calls, self time.

        ``busy_s`` counts a span only when no enclosing span has the same
        name, so re-entrant calls are not counted twice.  Self time is a
        span's duration minus the part covered by its child spans.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        busy: Dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        self_time: Dict[str, float] = defaultdict(float)
        for name, start, end, parent, _item in spans:
            duration = end - start
            if parent >= 0:
                child_time[parent] += duration
            calls[name] += 1
            outer = True
            ancestor = parent
            while ancestor >= 0:
                if spans[ancestor][0] == name:
                    outer = False
                    break
                ancestor = spans[ancestor][3]
            if outer:
                busy[name] += duration
        top_level = 0.0
        for index, (name, start, end, parent, _item) in enumerate(spans):
            own = (end - start) - child_time[index]
            self_time[name] += own
            if parent < 0:
                top_level += end - start
        metrics: Dict[str, float] = {}
        for name in calls:
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.busy_s"] = busy[name]
            metrics[f"{name}.self_s"] = self_time[name]
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = sum(
                value for name, value in self_time.items()
                if name.split(".")[0] == layer
            )
        metrics.update(self.counts)
        verifies = calls.get("crypto.verify", 0)
        metrics["crypto.verify.unique_ratio"] = (
            len(self._verify_keys) / verifies if verifies else 0.0
        )
        sent = self._traffic.get("network.messages_sent", 0)
        metrics["network.messages_sent"] = sent
        metrics["network.bytes_sent"] = self._traffic.get("network.bytes_sent", 0)
        metrics["network.duplicate_ratio"] = (
            self._traffic.get("duplicated", 0) / sent if sent else 0.0
        )
        metrics["network.advance.self_s"] = self_time.get("network.advance", 0.0)
        metrics["trace.spans"] = len(spans)
        metrics["trace.unaccounted_s"] = max(0.0, wall_s - top_level)
        return metrics

    def export(self, path, origin: float) -> None:
        """Write every span as one JSON line (gzipped), times relative to ``origin``."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for index, (name, start, end, parent, item) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index,
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent if parent >= 0 else None,
                    "item": item,
                }) + "\n")


_ABSENT = object()
