"""Per-layer tracing from outside the program.

`install_layers` replaces each traced function at every place it is bound:
the defining module, every module that imported it with `from ... import`,
and the class for methods and properties. Nothing inside the package is
edited; `Tracer.uninstall()` puts every original back.

Spans are kept as running totals per name (calls, self time) instead of a
list, because a traced run makes hundreds of thousands of calls. A span's
self time is its duration minus the durations of the spans it called.
Counters record calls, and for some functions an item count, without
timing them, for calls too short to time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

perf = time.perf_counter
PACKAGE = "flexichain"


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.items: dict[str, int] = defaultdict(int)
        # Each open span's accumulated child time; the bottom entry collects
        # the time of top-level spans.
        self._stack: list[float] = [0.0]
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def top_level_s(self) -> float:
        """Total duration of spans opened with no span around them."""
        return self._stack[0]

    def span(self, name: str, fn, items=None):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        item_counts = self.items

        def traced(*args, **kwargs):
            if items is not None:
                item_counts[name] += items(*args, **kwargs)
            stack.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                child = stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - child
                stack[-1] += elapsed

        return traced

    def counter(self, name: str, fn, items=None, result_items=None):
        calls, item_counts = self.calls, self.items

        def counted(*args, **kwargs):
            calls[name] += 1
            if items is not None:
                item_counts[name] += items(*args, **kwargs)
            result = fn(*args, **kwargs)
            if result_items is not None:
                item_counts[name] += result_items(result)
            return result

        return counted

    # -- patching -----------------------------------------------------------

    def _modules(self):
        return [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def patch_function(self, module, attr: str, make) -> None:
        """Replace a module-level function at all of its bindings."""
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in self._modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def patch_method(self, cls, attr: str, make) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, property):
            replacement = property(make(original.fget))
        else:
            replacement = make(original)
        self._restore.append((cls, attr, original))
        setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)


def install_layers(tracer: Tracer) -> None:
    """Wrap the layer boundaries the benchmark reports."""
    from flexichain import consensus, dag, identity, keys, netsim, nodechain
    from flexichain import secmodel, vault, wire

    t = tracer

    def span(name, **kw):
        return lambda fn: t.span(name, fn, **kw)

    def count(name, **kw):
        return lambda fn: t.counter(name, fn, **kw)

    t.patch_function(identity, "derive_uid", span("identity.derive_uid"))
    t.patch_function(identity, "scrypt_kdf", span("identity.scrypt_kdf"))
    t.patch_function(identity, "tokenize_uid", count("identity.tokenize_uid"))
    t.patch_function(identity, "match_layer", count("identity.match_layer"))

    t.patch_function(keys, "sign_message", span("keys.sign_message"))
    t.patch_function(keys, "verify_signature", span("keys.verify_signature"))

    t.patch_function(nodechain, "append_virtual_block",
                     span("nodechain.append_virtual_block"))
    t.patch_function(nodechain, "verify_chain", span("nodechain.verify_chain"))
    t.patch_method(nodechain.NodeChainLedger, "blocks",
                   count("nodechain.blocks", result_items=len))
    t.patch_method(nodechain.NodeChainLedger, "ves", count("nodechain.ves"))

    t.patch_method(vault.Vault, "append",
                   span("vault.append", items=lambda self, *a, **k: len(self)))
    t.patch_method(vault.Vault, "lookup", span("vault.lookup"))

    t.patch_function(consensus, "enroll_respond", span("consensus.enroll_respond"))
    t.patch_function(consensus, "authenticate_block",
                     span("consensus.authenticate_block"))
    t.patch_function(consensus, "check_finality",
                     span("consensus.check_finality",
                          items=lambda block, roster, *a, **k: len(roster)))

    t.patch_function(dag, "build_candidate_block",
                     span("dag.build_candidate_block",
                          items=lambda pool, *a, **k: len(pool)))
    t.patch_function(dag, "merkle_root", span("dag.merkle_root"))
    t.patch_method(dag.Layer0Ledger, "append_block",
                   span("dag.Layer0Ledger.append_block"))
    t.patch_method(dag.Layer0Ledger, "select_parents",
                   span("dag.Layer0Ledger.select_parents"))
    t.patch_method(dag.DataBlock, "with_narration_entry",
                   span("dag.DataBlock.with_narration_entry"))

    t.patch_function(wire, "sha256",
                     count("wire.sha256", items=lambda data: len(data)))
    t.patch_function(wire, "encode_fields", count("wire.encode_fields"))

    for method in ("enroll", "authenticate", "node_for_tuid", "responder"):
        t.patch_method(netsim.Network, method, span(f"netsim.{method}"))
    t.patch_method(netsim.Network, "roster", count("netsim.roster"))
    # The event handlers are the Network glue around the layer calls. As
    # spans, their self time measures that glue; run.py reports it as
    # netsim.handle_self_s and counts it in netsim.unattributed_s.
    for attr in list(vars(netsim.Network)):
        if attr.startswith("_handle_"):
            t.patch_method(netsim.Network, attr, span(f"netsim.handle.{attr[8:]}"))

    t.patch_function(netsim, "monte_carlo_attack",
                     span("secmodel.monte_carlo_attack"))
    t.patch_function(secmodel, "emit_tables", span("secmodel.emit_tables"))
