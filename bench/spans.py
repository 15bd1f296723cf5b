"""Spans and call counts around the library's public functions.

The wrappers are installed from here, not from inside the library: each
traced function is replaced in every ``rootposets`` module namespace that
binds it (``closure_bits`` is bound in rootset, weakorder and families),
so calls through any of those names are recorded.  Spans stay in memory
and are written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from time import perf_counter_ns

TRACED = (
    "rootsys.build_root_system",
    "weyl.weyl_group", "weyl.enumerate_cosets", "weyl.interval_poset",
    "cambrian.coxeter_element", "cambrian.cambrian_classes",
    "cambrian.facial_cambrian_classes", "cambrian.snake_decomposable_roots",
    "families.construct_family", "families.member_predicate",
    "rootset.classify", "rootset.closure_bits", "rootset.closure_deletion",
    "rootset.format_set_literal",
    "weakorder.verify_lattice", "weakorder.lattice_op_bits",
    "weakorder.hasse_edges",
    "census.count_family", "census.enumerate_posets",
    "census.check_sublattice", "census.check_conjecture",
    "cli.main",
)


def _pairs(args, kwargs, out):
    k = len(args[0])
    return "weakorder.verify_lattice.pairs", k * (k - 1) // 2


def _sets_counted(args, kwargs, out):
    return "census.sets_counted", out.count


# Work counters read off a call's arguments or result.
COUNTERS = {"weakorder.verify_lattice": _pairs, "census.count_family": _sets_counted}


class Tracer:
    """Records (name, parent, start, end, sample) spans and per-name totals.

    Self time is a span's duration minus the time of the spans nested in
    it.  It accumulates in nanoseconds per sample; ``end_sample`` converts
    it to reference seconds with that sample's calibration factor.
    """

    def __init__(self):
        self.calls = {name: 0 for name in TRACED}
        self.self_s = {name: 0.0 for name in TRACED}
        self.counts = {}
        self._self_ns = [0] * len(TRACED)
        self._stack = []
        self._next_id = 0
        self.sample = 0
        self.spans = {key: array("q") for key in
                      ("id", "name", "parent", "start_ns", "end_ns", "sample")}
        self._restore = []

    def _wrap(self, k, name, fn):
        stack, self_ns, spans = self._stack, self._self_ns, self.spans
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            frame = [sid, 0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                self_ns[k] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                self.calls[name] += 1
                for key, value in (("id", sid), ("name", k), ("parent", parent),
                                   ("start_ns", t0), ("end_ns", t1),
                                   ("sample", self.sample)):
                    spans[key].append(value)
            if counter is not None:
                key, value = counter(args, kwargs, out)
                self.counts[key] = self.counts.get(key, 0) + value
            return out
        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n.startswith("rootposets.") and m is not None]
        for k, name in enumerate(TRACED):
            mod_name, fn_name = name.split(".")
            fn = getattr(importlib.import_module(f"rootposets.{mod_name}"), fn_name)
            wrapper = self._wrap(k, name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def end_sample(self, factor):
        """Close one timed sample; factor converts seconds to reference seconds."""
        for k, name in enumerate(TRACED):
            self.self_s[name] += self._self_ns[k] * 1e-9 * factor
            self._self_ns[k] = 0
        self.sample += 1

    def metrics(self):
        out = {}
        for name in TRACED:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counts)
        return out

    def write(self, path, sample_names):
        doc = {"names": list(TRACED), "samples": sample_names}
        doc.update({key: col.tolist() for key, col in self.spans.items()})
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
