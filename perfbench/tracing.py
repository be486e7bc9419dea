"""Span tracing for the benchmark's traced pass, installed from outside the package.

Callers bind names at import (``engines`` holds its own ``check``,
``harness`` its own ``trace_generate``), so each public function is
replaced in every module that bound it.  Methods are replaced on their
class.  A span is (name, start, end, parent); spans stay in memory in
flat arrays and are written out once, at the end.

``Language.contains`` is deliberately not wrapped: a chain run at N=4000
calls it about 8M times, and a wrapper there would swamp what it measures.
"""
from __future__ import annotations

import dataclasses
import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.enabled = True
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        # id(trace) -> [trace, entries generated, longest prefix any engine read]
        self._traces: dict[int, list] = {}

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, on_result=None):
        """Return ``fn`` recording one span per call; ``on_result`` sees
        (args, kwargs, result) after the span closes."""
        nid = self._intern(name)
        stack, ids, parents, starts, ends = (
            self._stack, self.name_id, self.parent, self.start, self.end,
        )

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, modules, defining, attr: str, span: str, on_result=None):
        original = getattr(defining, attr)
        wrapped = self.wrap(span, original, on_result)
        for module in modules:
            if module.__dict__.get(attr) is original:
                self._set(module, attr, wrapped)

    def install(self) -> None:
        """Patch the package's public functions for this process."""
        import cegis_lab
        from cegis_lab import core, engines, families, harness, logio, verifiers

        modules = [cegis_lab, core, families, verifiers, engines, harness, logio]
        if "cegis_lab.cli" in sys.modules:
            modules.append(sys.modules["cegis_lab.cli"])
        counts = self.counts

        def generated(args, kwargs, trace):
            counts["core.trace_entries_generated"] += len(trace)
            self._traces[id(trace)] = [trace, len(trace), 0]

        def engine_done(args, kwargs, run):
            # Both engines take (…, target, trace, generalizer, …); run_engine
            # has the variant in front.
            if "trace" in kwargs:
                trace = kwargs["trace"]
            else:
                trace = args[2] if isinstance(args[0], str) else args[1]
            read = sum(1 for r in run.iterations if r.event in ("conjecture", "probe"))
            seen = self._traces.get(id(trace))
            if seen is not None and seen[0] is trace:
                seen[2] = max(seen[2], read)
            counts["engines.queries"] += run.queries + run.probes
            counts["engines.iterations"] += len(run.iterations)
            counts["engines.probes"] += run.probes
            for r in run.iterations:
                if r.event == "probe":
                    counts["engines.probe_records"] += 1
                elif r.event == "replay":
                    counts["engines.replay_records"] += 1
            if run.sim_state is not None:
                counts["engines.lce.entries"] += len(run.sim_state.lce)

        def history(args, kwargs, verdict):
            hist = args[2] if len(args) > 2 else kwargs["history"]
            counts["verifiers.hcheck.history_len"] += len(hist)

        def logged(args, kwargs, text):
            counts["logio.bytes"] += len(text.encode())

        self._patch_function(modules, core, "trace_generate", "core.trace_generate", generated)
        self._patch_function(modules, core, "semantically_equal", "core.semantically_equal")
        self._patch_function(modules, verifiers, "check", "verifiers.check")
        self._patch_function(modules, verifiers, "mincheck", "verifiers.mincheck")
        self._patch_function(modules, verifiers, "hcheck", "verifiers.hcheck", history)
        self._patch_function(modules, engines, "run_engine", "engines.run_engine", engine_done)
        self._patch_function(
            modules, engines, "simulate_min_via_arbitrary", "engines.simulate", engine_done
        )
        self._patch_function(modules, harness, "theorem1_pair", "harness.theorem1_pair")
        self._patch_function(
            modules, harness, "convergence_verdict", "harness.convergence_verdict"
        )
        self._patch_function(modules, logio, "run_jsonl", "logio.run_jsonl", logged)
        for factory in (
            "chain_generalizer", "rectangle_generalizer", "diag_generalizer", "gold_generalizer",
        ):
            original = getattr(engines, factory)
            wrapped = self.traced_factory(original)
            for module in modules:
                if module.__dict__.get(factory) is original:
                    self._set(module, factory, wrapped)

        self._set(core.Language, "members", self.wrap("core.members", core.Language.members))
        for cls, attrs in (
            (families.ChainFamily, ("language",)),
            (families.RectangleFamily, ("language",)),
            (families.DiagonalFamily, ("diag_language", "fin_language")),
            (families.GoldFamily, ("full_language", "minus_language")),
        ):
            for attr in attrs:
                self._set(cls, attr, self.wrap("families.language", cls.__dict__[attr]))

        lce_get = engines.LceMap.get
        unknown = engines._TOP

        def counted_get(lce, program):
            value = lce_get(lce, program)
            if self.enabled:
                counts["engines.lce.hits" if value is not unknown else "engines.lce.misses"] += 1
            return value

        self._set(engines.LceMap, "get", counted_get)

    def traced_step(self, generalizer):
        return dataclasses.replace(generalizer, step=self.wrap("engines.step", generalizer.step))

    def traced_factory(self, factory):
        def make(family):
            return self.traced_step(factory(family))

        return make

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Calls, self seconds and inclusive seconds per span name, plus counts."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = Counter()
        self_s = Counter()
        total_s = Counter()
        for i in range(n):
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            self_s[name] += dur - child[i]
            total_s[name] += dur
        counts = Counter(self.counts)
        counts["core.trace_entries_consumed"] += sum(v[2] for v in self._traces.values())
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "total_s": dict(total_s),
            "counts": dict(counts),
            "spans": n,
        }

    def dump(self, path: Path, extra: dict) -> None:
        """Write every span: a JSON header line, then the four arrays."""
        header = {
            "names": self.names, "spans": len(self.start),
            "counts": self.summary()["counts"], **extra,
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(f)


def load_summary(path: Path) -> tuple[dict, dict]:
    """Read a file written by ``Tracer.dump``; return (header, summary)."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        n = header["spans"]
        tracer = Tracer()
        tracer.names = header["names"]
        tracer._name_ids = {name: i for i, name in enumerate(tracer.names)}
        for arr in (tracer.name_id, tracer.parent, tracer.start, tracer.end):
            arr.fromfile(f, n)
    tracer.counts.update(header["counts"])
    return header, tracer.summary()
