"""Spans at the library's module boundaries, recorded from outside the library.

`Tracer` replaces public functions at the names their callers look them up
by (for example `ionet.slp.unmarked_siphon`, which `is_nonlive` reads from
its own module) with wrappers that record one span per call: name, start,
end, parent span and a small summary of the result.  Spans are kept in
memory as parallel arrays, because `dead_set` alone fires millions of times
per pass, and are written out once at the end of the traced pass.
"""
from __future__ import annotations

import json
import sys
import time
from array import array

import ionet.generate
import ionet.lba
import ionet.liveness
import ionet.nets
import ionet.slp

# Verdict methods of `is_nonlive`, stored as span tag 1..4.
METHODS = ("siphon", "abstract", "capped-search", "reach-graph")


def _found(result):
    return 0, 1 if result else 0


def _nothing(result):
    return 0, 0


def _verdict(result):
    return result.configs_explored, METHODS.index(result.method) + 1


def _candidates(result):
    return result.candidates_tested, 0


def _nodes(result):
    nodes = getattr(result, "nodes", None)
    return (0, 0) if nodes is None else (len(nodes), 1)


# (span name, owner, attribute, result summary as (value, tag)).  The owner
# is the module or class whose attribute the callers read at call time.
BOUNDARIES = (
    ("slp.is_nonlive", ionet.slp, "is_nonlive", _verdict),
    ("slp.decide_slp", ionet.slp, "decide_slp", _candidates),
    ("structure.unmarked_siphon", ionet.slp, "unmarked_siphon", _found),
    ("liveness.witness_index", ionet.slp, "witness_index", _nothing),
    ("liveness.reach_graph", ionet.slp, "reach_graph", _nodes),
    ("liveness.dead_set", ionet.liveness.WitnessIndex, "dead_set", _found),
    ("liveness.witness_at", ionet.liveness.WitnessIndex, "witness_at", _found),
    ("nets.parse_net", ionet.nets, "parse_net", _nothing),
    ("generate.random_net_in_row", ionet.generate, "random_net_in_row", _nothing),
    ("lba.build_stage", ionet.lba, "build_stage", _nothing),
)
NAMES = tuple(b[0] for b in BOUNDARIES)
_ID = {name: i for i, name in enumerate(NAMES)}

# Per-layer metrics: name -> (unit, better).
LAYER_METRICS = {
    "slp.is_nonlive.calls": ("count", "lower"),
    "slp.is_nonlive.s": ("s", "lower"),
    "slp.is_nonlive.self_s": ("s", "lower"),
    **{f"slp.is_nonlive.{m}.{k}": u
       for m in METHODS
       for k, u in (("calls", ("count", "higher" if m in ("siphon", "abstract")
                                else "lower")),
                    ("s", ("s", "lower")))},
    "slp.is_nonlive.configs_explored": ("count", "lower"),
    "slp.decide_slp.calls": ("count", "lower"),
    "slp.decide_slp.s": ("s", "lower"),
    "slp.decide_slp.candidates_tested": ("count", "lower"),
    "liveness.dead_set.probe.calls": ("count", "lower"),
    "liveness.dead_set.probe.s": ("s", "lower"),
    "liveness.dead_set.witness_at.calls": ("count", "lower"),
    "liveness.dead_set.witness_at.s": ("s", "lower"),
    "liveness.dead_set.found_share": ("share", "higher"),
    "liveness.witness_at.calls": ("count", "lower"),
    "liveness.witness_at.s": ("s", "lower"),
    "liveness.witness_at.found_share": ("share", "higher"),
    "liveness.witness_index.s": ("s", "lower"),
    "liveness.reach_graph.calls": ("count", "lower"),
    "liveness.reach_graph.s": ("s", "lower"),
    "liveness.reach_graph.nodes": ("count", "lower"),
    "structure.unmarked_siphon.calls": ("count", "lower"),
    "structure.unmarked_siphon.s": ("s", "lower"),
    "structure.unmarked_siphon.found_share": ("share", "higher"),
    "nets.parse_net.s": ("s", "lower"),
    "generate.random_net_in_row.s": ("s", "lower"),
    "lba.build_stage.s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_share": ("share", "lower"),
}


class Tracer:
    """Records spans while installed (use as a context manager)."""

    FIELDS = (("name", "b"), ("parent", "i"), ("start", "d"), ("end", "d"),
              ("value", "q"), ("tag", "b"))

    def __init__(self):
        for field, code in self.FIELDS:
            setattr(self, field, array(code))
        self._stack = [-1]
        self._saved = []

    def _wrap(self, name_id, fn, summarize):
        name, parent, start, end = self.name, self.parent, self.start, self.end
        value, tag, stack = self.value, self.tag, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(name)
            name.append(name_id)
            parent.append(stack[-1])
            value.append(0)
            tag.append(0)
            stack.append(sid)
            start.append(clock())
            end.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            value[sid], tag[sid] = summarize(result)
            return result

        return wrapper

    def __enter__(self):
        for name_id, (_, owner, attr, summarize) in enumerate(BOUNDARIES):
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name_id, fn, summarize))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def write(self, stem):
        """Spans as raw arrays in `<stem>.bin`, described by `<stem>.json`."""
        header = {"names": NAMES, "methods": METHODS, "count": len(self.name),
                  "byteorder": sys.byteorder,
                  "fields": [[f, c, getattr(self, f).itemsize]
                             for f, c in self.FIELDS]}
        with open(f"{stem}.bin", "wb") as out:
            for field, _ in self.FIELDS:
                getattr(self, field).tofile(out)
        with open(f"{stem}.json", "w") as out:
            json.dump(header, out, indent=1)

    def summary(self):
        """Per-layer totals, and the split of `is_nonlive` time into self
        time plus the time of each kind of direct child span."""
        k = len(NAMES)
        calls, secs, found, values = [0] * k, [0.0] * k, [0] * k, [0] * k
        method_calls, method_secs = [0] * 5, [0.0] * 5
        dead_calls, dead_secs = [0, 0], [0.0, 0.0]  # [probe, witness_at]
        child_secs = [0.0] * k
        nonlive, dead, wat = _ID["slp.is_nonlive"], _ID["liveness.dead_set"], \
            _ID["liveness.witness_at"]
        name, parent, start, end = self.name, self.parent, self.start, self.end
        value, tag = self.value, self.tag
        for i in range(len(name)):
            n = name[i]
            d = end[i] - start[i]
            p = parent[i]
            pn = name[p] if p >= 0 else -1
            calls[n] += 1
            secs[n] += d
            values[n] += value[i]
            if pn == nonlive:
                child_secs[n] += d
            if n == nonlive:
                method_calls[tag[i]] += 1
                method_secs[tag[i]] += d
            else:
                found[n] += tag[i]
                if n == dead:
                    side = 1 if pn == wat else 0
                    dead_calls[side] += 1
                    dead_secs[side] += d

        def share(n):
            return found[n] / calls[n] if calls[n] else 0.0

        ids = _ID
        out = {
            "slp.is_nonlive.calls": calls[nonlive],
            "slp.is_nonlive.s": secs[nonlive],
            "slp.is_nonlive.self_s": secs[nonlive] - sum(child_secs),
            "slp.is_nonlive.configs_explored": values[nonlive],
            "slp.decide_slp.calls": calls[ids["slp.decide_slp"]],
            "slp.decide_slp.s": secs[ids["slp.decide_slp"]],
            "slp.decide_slp.candidates_tested": values[ids["slp.decide_slp"]],
            "liveness.dead_set.probe.calls": dead_calls[0],
            "liveness.dead_set.probe.s": dead_secs[0],
            "liveness.dead_set.witness_at.calls": dead_calls[1],
            "liveness.dead_set.witness_at.s": dead_secs[1],
            "liveness.dead_set.found_share": share(dead),
            "liveness.witness_at.calls": calls[wat],
            "liveness.witness_at.s": secs[wat],
            "liveness.witness_at.found_share": share(wat),
            "liveness.witness_index.s": secs[ids["liveness.witness_index"]],
            "liveness.reach_graph.calls": calls[ids["liveness.reach_graph"]],
            "liveness.reach_graph.s": secs[ids["liveness.reach_graph"]],
            "liveness.reach_graph.nodes": values[ids["liveness.reach_graph"]],
            "structure.unmarked_siphon.calls": calls[ids["structure.unmarked_siphon"]],
            "structure.unmarked_siphon.s": secs[ids["structure.unmarked_siphon"]],
            "structure.unmarked_siphon.found_share":
                share(ids["structure.unmarked_siphon"]),
            "nets.parse_net.s": secs[ids["nets.parse_net"]],
            "generate.random_net_in_row.s": secs[ids["generate.random_net_in_row"]],
            "lba.build_stage.s": secs[ids["lba.build_stage"]],
            "trace.spans": len(name),
        }
        for j, m in enumerate(METHODS, start=1):
            out[f"slp.is_nonlive.{m}.calls"] = method_calls[j]
            out[f"slp.is_nonlive.{m}.s"] = method_secs[j]
        children = {NAMES[n]: s for n, s in enumerate(child_secs) if s}
        return out, children
