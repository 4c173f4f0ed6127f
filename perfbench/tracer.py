"""Spans around calls into nilflow's public functions, recorded from outside.

The tracer replaces each target function or method with a wrapper while it
is installed, and puts the original back when it is removed; nothing under
src/ changes.  A function that another nilflow module imported by name is
replaced there too, so calls made inside the package are seen as well.

Each span is (name, start, end, parent, rows), kept in flat arrays in
memory and written out once at the end of the run.  `rows` is a per-call
size: array rows for the float kernels, points for the covering radius,
periodic points returned, conjugacy sweeps, or 1 for an exact BCH product.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np


def _rows_of(shape):
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _array_rows(args, kwargs, result):
    return _rows_of(np.shape(args[1]))


def _broadcast_rows(args, kwargs, result):
    return _rows_of(np.broadcast_shapes(np.shape(args[1]), np.shape(args[2])))


def _exact_flag(args, kwargs, result):
    return 0 if isinstance(args[1], np.ndarray) else 1


def _point_rows(args, kwargs, result):
    return len(args[1])


def _periodic_points_found(args, kwargs, result):
    return sum(rep.period for rep in result)


def _sweeps(args, kwargs, result):
    return len(result.history)


# (module, attribute path, rows) for every public function or method traced.
TARGETS = [
    ("cli", "parse_system", None),
    ("ratcore", "RatMatrix.matvec", None),
    ("ratcore", "RatMatrix.inverse", None),
    ("ratcore", "RatMatrix.det", None),
    ("ratcore", "smith_normal_form", None),
    ("liealg", "LieAlgebra.bch", _exact_flag),
    ("nilgroup", "mul", None),
    ("nilgroup", "inv", None),
    ("nilgroup", "reduce", None),
    ("nilgroup", "to_second_kind", None),
    ("nilgroup", "from_second_kind", None),
    ("nilgroup", "in_lattice", None),
    ("endo", "AutoMap.power", None),
    ("endo", "preserves_lattice", None),
    ("endo", "induced_blocks", None),
    ("endo", "hyperbolic_splitting", None),
    ("endo", "stable_exponent", None),
    ("endo", "is_totally_non_invertible", None),
    ("endo", "is_horizontally_irreducible", None),
    ("density", "density_experiment", None),
    ("density", "coset_representatives", None),
    ("density", "preimages", None),
    ("fastops", "BatchOps.bch", _broadcast_rows),
    ("fastops", "BatchOps.reduce", _array_rows),
    ("fastops", "BatchOps.to_second_kind", _array_rows),
    ("fastops", "BatchOps.from_second_kind", _array_rows),
    ("fastops", "BatchOps.quasi_norm", _array_rows),
    ("fastops", "BatchOps.right_translation_differential", _array_rows),
    ("fastops", "CoveringRadius.__call__", _point_rows),
    ("dynlab", "PerturbedMap.lift", _array_rows),
    ("dynlab", "ConjugatedMap.lift", _array_rows),
    ("dynlab", "ConjugatedMap.g_apply", _array_rows),
    ("dynlab", "ConjugatedMap.g_invert", _array_rows),
    ("dynlab", "periodic_points", _periodic_points_found),
    ("dynlab", "rigidity_experiment", None),
    ("dynlab", "solve_conjugacy", _sweeps),
    ("dynlab", "stable_direction", None),
]

LAYERS = ("cli", "ratcore", "liealg", "nilgroup", "endo", "density",
          "fastops", "dynlab")


class Tracer:
    """Span recorder for one run; install() and remove() may alternate."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.rows = array("q")
        self._stack = [-1]
        self._undo: list = []

    def __len__(self):
        return len(self.start)

    # -- patching ------------------------------------------------------------

    def install(self):
        if self._undo:
            return
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "nilflow" or n.startswith("nilflow."))]
        for layer, path, rows in TARGETS:
            owner = sys.modules["nilflow." + layer]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(f"{layer}.{path}", original, rows)
            if cls_path:
                self._set(owner, attr, original, wrapper)
                continue
            # a module-level function may be bound by name in other modules
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._set(mod, attr, original, wrapper)

    def _set(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def remove(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, name, fn, rows):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, clock = self._stack, time.perf_counter
        name_id, start, end = self.name_id, self.start, self.end
        parent, row_count = self.parent, self.rows

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            row_count.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if rows is not None:
                row_count[idx] = rows(args, kwargs, result)
            return result

        return traced

    # -- output --------------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays, with self time (duration minus the time
        covered by direct children)."""
        start = np.frombuffer(self.start, dtype=float).copy()
        end = np.frombuffer(self.end, dtype=float).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": start,
            "end": end,
            "parent": parent,
            "rows": np.frombuffer(self.rows, dtype=np.int64).copy(),
            "self": dur - child,
        }

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, **self.arrays())


class SpanTable:
    """Sums over the spans of one phase of the run (an index range)."""

    def __init__(self, spans, lo, hi):
        self.ids = {n: i for i, n in enumerate(spans["names"])}
        self.name_id = spans["name_id"][lo:hi]
        self.dur = (spans["end"] - spans["start"])[lo:hi]
        self.self = spans["self"][lo:hi]
        self.rows_ = spans["rows"][lo:hi]
        par = spans["parent"][lo:hi]
        self.top = par < 0
        self.parent_id = np.where(self.top, -1, spans["name_id"][np.maximum(par, 0)])
        self.n = hi - lo

    def mask(self, name, rows=None, parent=None, top=False):
        m = self.name_id == self.ids.get(name, -1)
        if rows is not None:
            m &= self.rows_ == rows
        if parent is not None:
            m &= self.parent_id == self.ids.get(parent, -1)
        if top:
            m &= self.top
        return m

    def calls(self, *names, **kw):
        return sum(int(self.mask(n, **kw).sum()) for n in names)

    def rows(self, *names, **kw):
        return sum(int(self.rows_[self.mask(n, **kw)].sum()) for n in names)

    def total(self, *names, **kw):
        return sum(float(self.dur[self.mask(n, **kw)].sum()) for n in names)

    def self_time(self, *names, **kw):
        return sum(float(self.self[self.mask(n, **kw)].sum()) for n in names)

    def layer(self, layer):
        ids = [i for n, i in self.ids.items() if n.split(".")[0] == layer]
        m = np.isin(self.name_id, ids)
        return int(m.sum()), float(self.self[m].sum())


def per_layer_metrics(spans, setup, traced_round, *, import_s, pair_factor,
                      seeds):
    """Per-layer metrics of one process: its set-up phase plus its traced
    round (two index ranges of the spans).

    Metrics named after a stage (`_s`, `_ms`) are inclusive times of that
    call; per-call and per-row costs (`_us`, `_ns_per_row`) are self times;
    `<layer>.self_s` sums the self time of every traced function of the
    layer.  pair_factor (grid nodes x horizontal translates) and seeds
    (periodic seeds per round) are computed from the inputs, not traced.
    """
    phases = (SpanTable(spans, *setup), SpanTable(spans, *traced_round))

    def run(f):
        return sum(f(t) for t in phases)

    def ratio(a, b, scale):
        return a * scale / b if b else 0.0

    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    DE, CR = "density.density_experiment", "fastops.CoveringRadius.__call__"
    PP, BCH = "dynlab.periodic_points", "liealg.LieAlgebra.bch"
    put("cli.import_s", import_s, "s")
    put("cli.parse_system_ms", 1e3 * run(lambda t: t.total("cli.parse_system")), "ms")
    put("endo.hyperbolic_splitting_ms",
        1e3 * run(lambda t: t.total("endo.hyperbolic_splitting")), "ms")
    put("density.coset_representatives_ms",
        1e3 * run(lambda t: t.total("density.coset_representatives")), "ms")
    for name, span in (("ratcore.matvec", "ratcore.RatMatrix.matvec"),
                       ("liealg.bch", BCH),
                       ("nilgroup.mul", "nilgroup.mul"),
                       ("nilgroup.reduce", "nilgroup.reduce")):
        put(name + "_calls", run(lambda t: t.calls(span)), "count")
    for name, span, rows in (("ratcore.matvec_us", "ratcore.RatMatrix.matvec", None),
                             ("liealg.bch_exact_us", BCH, 1),
                             ("nilgroup.reduce_us", "nilgroup.reduce", None),
                             ("nilgroup.to_second_kind_us", "nilgroup.to_second_kind", None),
                             ("nilgroup.from_second_kind_us", "nilgroup.from_second_kind", None)):
        put(name, ratio(run(lambda t: t.self_time(span, rows=rows)),
                        run(lambda t: t.calls(span, rows=rows)), 1e6), "us")

    cr_s = run(lambda t: t.total(CR, parent=DE))
    fibre_s = run(lambda t: t.total(DE) - t.total(CR, "density.coset_representatives",
                                                  parent=DE))
    traced_points = run(lambda t: t.rows(CR, parent=DE))
    put("density.fibre_s", fibre_s, "s")
    put("density.fibre_us_per_point", ratio(fibre_s, traced_points, 1e6), "us")
    put("density.points_enumerated", traced_points, "count")
    put("fastops.covering_radius_s", cr_s, "s")
    for k in range(1, 5):       # the k-th radius call of density_experiment
        def kth(t, k=k):
            d = t.dur[t.mask(CR, parent=DE)]
            return float(d[k - 1]) if len(d) >= k else 0.0
        put(f"fastops.covering_radius_s.k{k}", run(kth), "s")
    pairs = traced_points * pair_factor
    put("fastops.covering_radius_pairs", pairs, "count")
    put("fastops.covering_radius_ns_per_pair", ratio(cr_s, pairs, 1e9), "ns")
    for name, span in (("fastops.bch", "fastops.BatchOps.bch"),
                       ("fastops.reduce", "fastops.BatchOps.reduce")):
        rows = run(lambda t: t.rows(span))
        put(name + "_rows", rows, "count")
        put(name + "_ns_per_row", ratio(run(lambda t: t.self_time(span)), rows, 1e9), "ns")

    periodic_s = run(lambda t: t.total(PP, top=True))
    put("dynlab.periodic_s", periodic_s, "s")
    put("dynlab.periodic_us_per_seed", ratio(periodic_s, seeds, 1e6), "us")
    put("dynlab.periodic_points_found", run(lambda t: t.rows(PP, top=True)), "count")
    lifts = ("dynlab.PerturbedMap.lift", "dynlab.ConjugatedMap.lift")
    lift_rows = run(lambda t: t.rows(*lifts))
    put("dynlab.lift_rows", lift_rows, "count")
    put("dynlab.lift_ns_per_row", ratio(run(lambda t: t.self_time(*lifts)), lift_rows, 1e9), "ns")
    put("dynlab.rigidity_s", run(lambda t: t.total("dynlab.rigidity_experiment")), "s")
    conj_s = run(lambda t: t.total("dynlab.solve_conjugacy"))
    sweeps = run(lambda t: t.rows("dynlab.solve_conjugacy"))
    put("dynlab.conjugacy_s", conj_s, "s")
    put("dynlab.conjugacy_sweeps", sweeps, "count")
    put("dynlab.conjugacy_ms_per_sweep", ratio(conj_s, sweeps, 1e3), "ms")

    for layer in LAYERS:
        put(f"{layer}.calls", run(lambda t: t.layer(layer)[0]), "count")
        put(f"{layer}.self_s", run(lambda t: t.layer(layer)[1]), "s")
    put("trace.spans", run(lambda t: t.n), "count")
    return out
