"""Per-layer spans recorded from outside the package.

`Recorder.install` wraps every public function of each layer module (and
`SparsePolynomial.evaluate`) and rebinds the wrapper wherever the package
holds a reference to the original, so calls between modules are seen too.
Each call becomes a span: function, parent span, client operation, start,
end.  Spans stay in memory until `aggregate` turns them into per-layer
counts and timers.  Calls made while `paused` is set are not recorded, and
`uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "graphs", "canon", "polynomials", "orientations", "coloring", "efl", "verify")
METHODS = (("polynomials", "SparsePolynomial", "evaluate"),)
CATALOG = ("canon.connected_graphs", "canon.all_graphs", "canon.graphs_with_edge_budget")
MAX_CAP = 7


def _cap_and_terms(args, kwargs, result):
    cap = kwargs["cap"] if "cap" in kwargs else args[2]
    return cap, result.num_terms()


# what each observed call adds to its span, for the counters that need more
# than a call count
OBSERVERS = {
    "polynomials.expand_capped": _cap_and_terms,
    "orientations.eulerian_census": lambda args, kwargs, result: result.alon_tarsi,
    "coloring.proper_coloring_from_lists": lambda args, kwargs, result: result is not None,
    "canon.canonical_key": lambda args, kwargs, result: result,
}


def _share(hits: int, calls: int) -> float:
    return hits / calls if calls else 0.0


class Recorder:
    """Spans of one traced child, as parallel lists indexed by span."""

    def __init__(self):
        self.names: list[str] = []
        self.fid: list[int] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.extra: dict[int, object] = {}
        self.current_op = -1
        self.paused = False
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rec.paused:
                return fn(*args, **kwargs)
            i = len(rec.fid)
            rec.fid.append(fid)
            rec.parent.append(rec._stack[-1])
            rec.op.append(rec.current_op)
            rec.end.append(0.0)
            rec._stack.append(i)
            rec.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[i] = time.perf_counter()
                rec._stack.pop()
            if observe is not None:
                rec.extra[i] = observe(args, kwargs, result)
            return result

        return traced

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"alontarsi.{layer}")
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        package = [m for n, m in sys.modules.items() if n.split(".")[0] == "alontarsi"]
        for mod in package:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"alontarsi.{layer}"), cls_name)
            orig = getattr(cls, meth)
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(f"{layer}.{meth}", orig))

    def uninstall(self):
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    def aggregate(self) -> dict[str, float]:
        """Counts and timers per function, plus the derived per-layer ones.

        `s` sums only outermost spans of a function, so recursion through a
        wrapper is not counted twice; `self_s` subtracts direct children.
        """
        n = len(self.fid)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        children = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                children[p] += dur[i]
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for i in range(n):
            name = self.names[self.fid[i]]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur[i] - children[i]
            p = self.parent[i]
            while p >= 0 and self.fid[p] != self.fid[i]:
                p = self.parent[p]
            if p < 0:
                out[f"{name}.s"] += dur[i]

        ec = "polynomials.expand_capped"
        out[f"{ec}.terms_out"] = 0
        for k in range(MAX_CAP + 1):
            out[f"{ec}.s.cap{k}"] = 0.0
            out[f"{ec}.terms_out.cap{k}"] = 0
        observed = {name: [] for name in OBSERVERS}
        for i, value in self.extra.items():
            observed[self.names[self.fid[i]]].append((i, value))
        for i, (cap, terms) in observed[ec]:
            out[f"{ec}.terms_out"] += terms
            if cap <= MAX_CAP:
                out[f"{ec}.s.cap{cap}"] += dur[i]
                out[f"{ec}.terms_out.cap{cap}"] += terms
        census = [unbalanced for _, unbalanced in observed["orientations.eulerian_census"]]
        out["orientations.eulerian_census.at_ratio"] = _share(sum(census), len(census))
        leaves = [sat for _, sat in observed["coloring.proper_coloring_from_lists"]]
        out["coloring.proper_coloring_from_lists.sat_ratio"] = _share(sum(leaves), len(leaves))
        keys = [key for _, key in observed["canon.canonical_key"]]
        out["canon.canonical_key.distinct_ratio"] = _share(len(set(keys)), len(keys))
        out["canon.catalog.self_s"] = sum(out[f"{name}.self_s"] for name in CATALOG)
        out["trace.spans"] = n
        return out

    def dump(self, path):
        """Write the spans as JSON lines: function, parent, op, start, end."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"functions": self.names}) + "\n")
            for i in range(len(self.fid)):
                fh.write(
                    f"[{self.fid[i]},{self.parent[i]},{self.op[i]},"
                    f"{self.start[i] - t0:.7f},{self.end[i] - t0:.7f}]\n"
                )
