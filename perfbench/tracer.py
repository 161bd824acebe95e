"""Outside-in tracer: spans and counts around calls into ``zefoz``.

The tracer never edits the program. ``install`` replaces each public
function of the traced modules by a wrapper, in every ``zefoz`` module
namespace that binds it, and does the same for the numpy/scipy
eigensolvers and ``zefoz.eit.wofz``; ``uninstall`` puts the originals
back. Spans are recorded only inside ``op(...)``, so checks that run
between ops (and call the same eigensolvers) are neither timed nor
counted. Spans stay in memory until the caller writes them out.

A span is ``(name, start_ns, end_ns, parent, op_id, work)``: ``parent``
is the index of the enclosing span or None, and ``work`` is None or a
dict of amounts (matrices diagonalized, Faddeeva points, bytes written,
stationary points returned).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
from time import perf_counter_ns

LAYERS = ("cli", "config", "output", "spins", "operators", "fieldmap", "transitions", "eit")
EIGENSOLVERS = (("numpy.linalg", "eigh"), ("numpy.linalg", "eigvalsh"),
                ("scipy.linalg", "eigh"), ("scipy.linalg", "eigvalsh"))
EIGH = "linalg.eigh"


def _matrices(args, kwargs, result):
    shape = getattr(args[0] if args else kwargs.get("a"), "shape", ())
    count = 1
    for n in shape[:-2]:
        count *= n
    return {"matrices": count}


def _wofz_points(args, kwargs, result):
    return {"points": int(getattr(result, "size", 1))}


def _written_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


def distinct_count(fields, tol: float = 1e-3) -> int:
    """Number of distinct points, merging those closer than ``tol`` mT."""
    kept: list[list[float]] = []
    for field in fields:
        field = [float(v) for v in field]
        if not any(max(abs(a - b) for a, b in zip(field, k)) < tol for k in kept):
            kept.append(field)
    return len(kept)


def _stationary_points(args, kwargs, result):
    return {"points": len(result), "distinct": distinct_count(z.field for z in result)}


WORK = {
    EIGH: _matrices,
    "eit.wofz": _wofz_points,
    "output.write_table": _written_bytes,
    "fieldmap.zefoz_search": _stationary_points,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op_id: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def op(self, op_id: str):
        """Record spans of the calls made inside this block under ``op_id``."""
        self.op_id = op_id
        try:
            yield
        finally:
            self.op_id = None

    def _wrap(self, name: str, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op_id, None)
            if work is not None:
                self.spans[index] = self.spans[index][:5] + (work(args, kwargs, result),)
            return result

        return traced

    def _patch(self, module, attr: str, wrapper) -> None:
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        targets = {}
        for layer in LAYERS:
            module = importlib.import_module(f"zefoz.{layer}")
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    targets[obj] = self._wrap(f"{layer}.{attr}", obj)
        eit = sys.modules["zefoz.eit"]
        targets[eit.wofz] = self._wrap("eit.wofz", eit.wofz)
        for name in sorted(sys.modules):
            module = sys.modules[name]
            if name == "zefoz" or name.startswith("zefoz."):
                for attr, obj in list(vars(module).items()):
                    if callable(obj) and obj in targets:
                        self._patch(module, attr, targets[obj])
        for module_name, attr in EIGENSOLVERS:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self._wrap(EIGH, getattr(module, attr)))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def take_spans(self) -> list:
        spans, self.spans = self.spans, []
        return spans


def write_spans(path: str, spans) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def read_spans(path: str) -> list:
    with open(path, encoding="utf-8") as handle:
        return [tuple(json.loads(line)) for line in handle]


def _covered(interval: tuple[int, int], children: list[tuple[int, int]]) -> int:
    """Length of the part of ``interval`` covered by the union of children."""
    lo, hi = interval
    covered, reach = 0, lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


class Profile:
    """Per-name totals of one span list: calls, inclusive and self time, work,
    and work done under each name (e.g. matrices diagonalized inside a call)."""

    def __init__(self, spans):
        children: dict[int, list[tuple[int, int]]] = {}
        for span in spans:
            if span[3] is not None:
                children.setdefault(span[3], []).append((span[1], span[2]))
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.work: dict[str, int] = {}
        self.work_under: dict[tuple[str, str], int] = {}
        for index, (name, start, end, parent, _op, work) in enumerate(spans):
            ancestors = self._ancestors(spans, parent)
            self.calls[name] = self.calls.get(name, 0) + 1
            own = end - start - _covered((start, end), children.get(index, []))
            self.self_ns[name] = self.self_ns.get(name, 0) + own
            if name not in ancestors:  # a re-entrant call is already inside its outer span
                self.total_ns[name] = self.total_ns.get(name, 0) + end - start
            for key, amount in (work or {}).items():
                self.work[f"{name}.{key}"] = self.work.get(f"{name}.{key}", 0) + amount
                for outer in ancestors:
                    pair = (outer, f"{name}.{key}")
                    self.work_under[pair] = self.work_under.get(pair, 0) + amount

    @staticmethod
    def _ancestors(spans, parent) -> set[str]:
        names = set()
        while parent is not None:
            names.add(spans[parent][0])
            parent = spans[parent][3]
        return names

    def merge(self, other: "Profile") -> "Profile":
        for field in ("calls", "total_ns", "self_ns", "work", "work_under"):
            mine, theirs = getattr(self, field), getattr(other, field)
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0) + value
        return self

    def counts(self) -> dict:
        """Everything that must repeat exactly for the same inputs."""
        return {"calls": self.calls, "work": self.work,
                "work_under": {"|".join(k): v for k, v in self.work_under.items()}}


# Per-layer metrics read from a Profile. run.py keeps the counts in the result
# line and moves the times some workloads never exercise to the report lines.
CALLS_AND_SELF = ("spins.build_hamiltonian", "spins.diagonalize", "spins.ion_levels")
FIELDMAP = ("fieldmap.transition_frequency", "fieldmap.frequency_gradient",
            "fieldmap.frequency_curvatures", "fieldmap.zefoz_search", "fieldmap.level_diagram")
TOTAL_MS = ("config.parse_config", "config.parse_ion_file", "output.write_table",
            "transitions.transition_table", "transitions.find_lambda_systems",
            "transitions.absorption_spectrum")
EIT = ("eit.eit_profile", "eit.averaged_susceptibility", "eit.amplitude_vs_field")


def layer_metrics(p: Profile) -> dict[str, tuple[float, str]]:
    """(value, unit) of every per-layer metric that comes from spans."""
    ms = 1e-6
    out: dict[str, tuple[float, str]] = {}
    for name in TOTAL_MS:
        out[f"{name}.calls"] = (p.calls.get(name, 0), "count")
        out[f"{name}.ms"] = (p.total_ns.get(name, 0) * ms, "ms")
    out["output.write_table.bytes"] = (p.work.get("output.write_table.bytes", 0), "bytes")
    for name in CALLS_AND_SELF + FIELDMAP:
        out[f"{name}.calls"] = (p.calls.get(name, 0), "count")
        out[f"{name}.self_ms"] = (p.self_ns.get(name, 0) * ms, "ms")
    out[f"{EIGH}.matrices"] = (p.work.get(f"{EIGH}.matrices", 0), "count")
    out[f"{EIGH}.ms"] = (p.total_ns.get(EIGH, 0) * ms, "ms")
    out["operators.spin_matrices.calls"] = (p.calls.get("operators.spin_matrices", 0), "count")
    for name in FIELDMAP:
        calls = p.calls.get(name, 0)
        under = p.work_under.get((name, f"{EIGH}.matrices"), 0)
        out[f"{name}.eigh_per_call"] = (under / calls if calls else 0.0, "count")
    points = p.work.get("fieldmap.zefoz_search.points", 0)
    distinct = p.work.get("fieldmap.zefoz_search.distinct", 0)
    out["fieldmap.zefoz_search.distinct_ratio"] = (distinct / points if points else 0.0, "ratio")
    for name in EIT:
        out[f"{name}.calls"] = (p.calls.get(name, 0), "count")
        out[f"{name}.ms"] = (p.total_ns.get(name, 0) * ms, "ms")
    out["eit.wofz.points"] = (p.work.get("eit.wofz.points", 0), "count")
    return out
