"""Span recorder and the wrappers that time calls into each kw1 module.

Nothing here is imported by the library: the traced run installs the
wrappers from outside, replacing each function in every ``kw1`` namespace it
was imported into, and replacing methods on their classes.  Untraced runs
never create an :class:`Installation`.

Spans are kept in flat arrays (name, start, end, parent, case) so that the
oracle's million-odd short spans stay small, and are written out once, when
the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Layer spans: (metric name, module, attribute path).  One metric name may
# cover several functions (both echelon classes, both Ops backends).
SPANS = (
    ("liealg.with_p_map", "kw1.liealg", "with_p_map"),
    ("liealg.index_generic", "kw1.liealg", "index_generic"),
    ("pbw.pbw_multiply", "kw1.pbw", "pbw_multiply"),
    ("pbw.pbw_bracket", "kw1.pbw", "pbw_bracket"),
    ("center.kw1_verdict", "kw1.center", "kw1_verdict"),
    ("center.center_basis_bounded", "kw1.center", "center_basis_bounded"),
    ("center.zp_coordinates", "kw1.center", "zp_coordinates"),
    ("linalg.nullspace_modp", "kw1.linalg", "nullspace_modp"),
    ("linalg.rank", "kw1.linalg", "rank"),
    ("linalg.rref_modp", "kw1.linalg", "rref_modp"),
    ("redenv.regular_representation", "kw1.redenv", "regular_representation"),
    ("redenv.split_simples", "kw1.redenv", "split_simples"),
    ("matops.echelon_insert", "kw1.matops", "PrimeEchelon.insert"),
    ("matops.echelon_insert", "kw1.matops", "ExtEchelon.insert"),
    ("matops.matvec", "kw1.matops", "PrimeOps.matvec"),
    ("matops.matvec", "kw1.matops", "ExtOps.matvec"),
    ("matops.krylov_minpoly", "kw1.matops", "PrimeOps.krylov_minpoly"),
    ("matops.krylov_minpoly", "kw1.matops", "ExtOps.krylov_minpoly"),
    ("matops.nullspace", "kw1.matops", "PrimeOps.nullspace"),
    ("matops.nullspace", "kw1.matops", "ExtOps.nullspace"),
)

# Generators: every resume is a span; the call itself is counted under
# ``matops.iter_factors.calls``.
GENERATOR_SPANS = (
    ("matops.iter_factors.prime", "kw1.matops", "PrimeOps.iter_factors"),
    ("matops.iter_factors.ext", "kw1.matops", "ExtOps.iter_factors"),
)

# Scalar arithmetic is only counted: a span per FFElem operation would cost
# more than the operation.  ``__rsub__`` goes through ``__add__``.
COUNTERS = (
    ("fields.ffelem_mul.calls", "kw1.fields", "FFElem.__mul__"),
    ("fields.ffelem_mul.calls", "kw1.fields", "FFElem.__rmul__"),
    ("fields.ffelem_add.calls", "kw1.fields", "FFElem.__add__"),
    ("fields.ffelem_add.calls", "kw1.fields", "FFElem.__radd__"),
    ("fields.ffelem_add.calls", "kw1.fields", "FFElem.__sub__"),
)

# Metric suffixes reported per span name.
SPAN_METRICS = {
    "liealg.with_p_map": ("s",),
    "liealg.index_generic": ("calls", "s"),
    "pbw.pbw_multiply": ("calls", "s"),
    "pbw.pbw_bracket": ("calls", "s"),
    "center.kw1_verdict": ("self_s",),
    "center.center_basis_bounded": ("s", "self_s"),
    "center.zp_coordinates": ("calls", "s"),
    "linalg.nullspace_modp": ("calls", "s"),
    "linalg.rank": ("calls", "s"),
    "linalg.rref_modp": ("calls", "s"),
    "redenv.regular_representation": ("s",),
    "redenv.split_simples": ("calls", "s", "self_s"),
    "matops.echelon_insert": ("calls", "s"),
    "matops.matvec": ("calls", "s"),
    "matops.krylov_minpoly": ("calls", "s"),
    "matops.nullspace": ("calls", "s"),
    "matops.iter_factors.prime": ("s",),
    "matops.iter_factors.ext": ("s",),
}


class Recorder:
    """In-memory spans plus named counters for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.case = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self.case_id = -1
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.case.append(self.case_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive seconds and self seconds per span name.

        Self seconds subtract the time covered by direct child spans.  No
        wrapped function is reached again below itself, so inclusive
        seconds of one name never overlap.
        """
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        covered = np.zeros(len(name))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        totals = {}
        for nid, label in enumerate(self.names):
            mine = name == nid
            totals[label] = {
                "calls": float(np.count_nonzero(mine)),
                "s": float(dur[mine].sum()),
                "self_s": float((dur[mine] - covered[mine]).sum()),
            }
        return totals

    def save(self, path, cases) -> None:
        np.savez(
            path,
            cases=np.array(cases),
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            case=np.frombuffer(self.case, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _span_wrapper(rec, nid, fn, observe=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.enter(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(idx)
        if observe is not None:
            observe(rec, args, result)
        return result

    return wrapper


def _generator_wrapper(rec, nid, fn):
    def resume_all(gen):
        while True:
            idx = rec.enter(nid)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                rec.exit(idx)
            yield item

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.count("matops.iter_factors.calls")
        return resume_all(fn(*args, **kwargs))

    return wrapper


def _counter_wrapper(rec, key, fn):
    counters = rec.counters
    counters.setdefault(key, 0)

    @functools.wraps(fn)
    def wrapper(*args):
        counters[key] += 1
        return fn(*args)

    return wrapper


def _observe_nullspace(rec, args, result):
    shape = args[0].shape
    cells = shape[0] * shape[1]
    if cells > rec.counters.get("linalg.nullspace_modp.max_cells", 0):
        rec.counters["linalg.nullspace_modp.max_cells"] = cells


def _observe_insert(rec, args, result):
    if result is not None:
        rec.count("matops.echelon_insert.accepted")


def _observe_split(rec, args, result):
    p = args[0].field.p
    rec.count("redenv.escalated_factors", sum(1 for _d, order in result.factors if order > p))
    rec.count("redenv.degraded", int(result.degraded))


OBSERVERS = {
    "linalg.nullspace_modp": _observe_nullspace,
    "matops.echelon_insert": _observe_insert,
    "redenv.split_simples": _observe_split,
}


class Installation:
    """Wrappers installed into the kw1 modules; ``remove`` restores them."""

    def __init__(self, rec: Recorder):
        self._undo: list[tuple[object, str, object]] = []
        for label, module, path in SPANS:
            fn = _lookup(module, path)
            nid = rec.name_id(label)
            self._replace(module, path, fn, _span_wrapper(rec, nid, fn, OBSERVERS.get(label)))
        for label, module, path in GENERATOR_SPANS:
            fn = _lookup(module, path)
            self._replace(module, path, fn, _generator_wrapper(rec, rec.name_id(label), fn))
        for key, module, path in COUNTERS:
            fn = _lookup(module, path)
            self._replace(module, path, fn, _counter_wrapper(rec, key, fn))

    def _replace(self, module, path, fn, wrapper):
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(sys.modules[module], cls_name)
            self._set(cls, attr, wrapper)
            return
        # a function is replaced in every kw1 namespace that imported it,
        # e.g. kw1.redenv.zp_coordinates and kw1.center.index_generic
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "kw1" and not mod_name.startswith("kw1."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _lookup(module, path):
    obj = sys.modules[module]
    for part in path.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metric values of one traced pass, by metric name."""
    totals = rec.span_totals()
    out = {}
    for label, suffixes in SPAN_METRICS.items():
        row = totals.get(label, {"calls": 0.0, "s": 0.0, "self_s": 0.0})
        for suffix in suffixes:
            out[f"{label}.{suffix}"] = row[suffix]
    counters = rec.counters
    for key in (
        "fields.ffelem_mul.calls",
        "fields.ffelem_add.calls",
        "matops.iter_factors.calls",
        "linalg.nullspace_modp.max_cells",
        "redenv.escalated_factors",
        "redenv.degraded",
        "pbw.memo_entries",
        "center.spec_field_e",
    ):
        out[key] = float(counters.get(key, 0))
    inserts = out["matops.echelon_insert.calls"]
    accepted = counters.get("matops.echelon_insert.accepted", 0)
    out["matops.echelon_insert.accept_ratio"] = accepted / inserts if inserts else 0.0
    return out


def is_exact_count(name: str) -> bool:
    """Metrics that must repeat exactly across two traced runs at one seed."""
    return (
        name.endswith(".calls")
        or name.startswith("fields.")
        or name in (
            "pbw.memo_entries",
            "center.spec_field_e",
            "redenv.escalated_factors",
            "redenv.degraded",
            "linalg.nullspace_modp.max_cells",
            "matops.echelon_insert.accept_ratio",
        )
    )
