"""Preimage enumeration and covering-radius density experiments.

For a lattice-preserving hyperbolic automorphism, the induced map on the
quotient is an |det psi|-to-one covering.  Preimage fibers are enumerated
exactly: a coset transversal of Gamma / Psi(Gamma) is built layer by
layer from Smith normal forms of the diagonal blocks, and
Psi^{-k}(x Gamma) is the set reduce(Psi^{-1}(x * gamma)) over transversal
elements gamma, recursively.

A fibre level is computed exactly, but not point by point in Fraction
arithmetic: it runs on nilgroup.ExactBatch, which holds a level as integer
numerator arrays with one exact denominator per coordinate and applies
the BCH product, Psi^{-1}, second-kind coordinates and reduction to all
(point, transversal element) pairs at once (int64, recomputed on Python
ints when a bound check trips).  Dedup keys are exact integer rows.  The
transversal itself is checked the same way: it is one exactly when the
level-1 fibre of the identity has index distinct points.  Everything up
to the covering radius is rational arithmetic end to end; the covering
radius itself is a float grid estimate (upper-biased by grid resolution).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .endo import AutoMap, EndoError, induced_blocks, preserves_lattice
from .fastops import CoveringRadius, default_grid_n, sorted_rows
from .liealg import LieAlgebra
from .nilgroup import (
    GroupPoint,
    ManifoldPoint,
    column_floats,
    exact_batch,
    exact_columns,
    identity,
)
from .ratcore import block_residues

MAX_POINTS_ENV = "NILFLOW_MAX_POINTS"
DEFAULT_MAX_POINTS = 1_000_000


class BudgetError(RuntimeError):
    """Enumeration would exceed the configured point budget."""


def point_budget() -> int:
    raw = os.environ.get(MAX_POINTS_ENV)
    if raw is None:
        return DEFAULT_MAX_POINTS
    try:
        return int(raw)
    except ValueError:
        raise BudgetError(f"{MAX_POINTS_ENV}={raw!r} is not an integer") from None


@dataclass
class CosetSystem:
    """Exact transversal of Gamma / Psi(Gamma)."""

    automap: AutoMap
    transversal: list          # GroupPoint, exact
    index: int                 # = prod |det psi_i|
    block_diagonals: list      # SNF diagonal per layer

    def __len__(self):
        return self.index


def coset_representatives(am: AutoMap) -> CosetSystem:
    """Exact coset transversal of the lattice modulo its Psi-image.

    Layer residues are combined into second-kind integer words, shallow
    layers first.  The result is checked exactly: reduce(Psi^{-1}(gamma))
    must take index distinct values, since Psi^{-1}(gamma_a) Gamma =
    Psi^{-1}(gamma_b) Gamma iff gamma_b^{-1} gamma_a lies in Psi(Gamma).
    """
    if not preserves_lattice(am):
        raise EndoError("automorphism does not preserve the lattice")
    blocks = induced_blocks(am)
    a = am.algebra
    per_layer = []
    diagonals = []
    index = 1
    for block in blocks:
        reps, diag = block_residues(block)
        per_layer.append(reps)
        diagonals.append(diag)
        index *= len(reps)
    budget = point_budget()
    if index > budget:
        raise BudgetError(
            f"coset index {index} exceeds {MAX_POINTS_ENV}={budget}")

    def words(ops):
        """from_second_kind of every word, the first layer slowest."""
        W, n = [], 1
        for reps in per_layer:
            W = ops.repeat(W, len(reps)) + ops.tile(ops.cast(exact_columns(reps)), n)
            n *= len(reps)
        return ops.from_second_kind(W)

    G, _ = exact_batch(a, words)
    transversal = [GroupPoint(a, g) for g in _rows(G, index)]
    expected = 1
    for block in blocks:
        expected *= abs(int(block.det()))
    if len(transversal) != expected:
        raise EndoError(
            f"transversal has {len(transversal)} elements, expected {expected}")
    cosets = CosetSystem(am, transversal, index, diagonals)
    next(_fibre_levels(am, ManifoldPoint(identity(a)), 1, cosets))
    return cosets


@dataclass
class _Level:
    """One exact fibre level: representatives (first kind) and keys
    (second kind) as integer columns, rows y-major and gamma-minor."""

    n: int
    rep: list
    key: list
    dtype: object

    def distinct(self) -> int:
        keys = np.stack([np.zeros(self.n, dtype=self.dtype) if c is None else c[0]
                         for c in self.key], axis=1)
        if self.dtype is object:
            return len(set(map(tuple, keys.tolist())))
        return len(sorted_rows(keys)[1])

    def floats(self) -> np.ndarray:
        """Second-kind coordinates as floats, each correctly rounded."""
        return column_floats(self.key, self.n)

    def points(self, algebra: LieAlgebra) -> list[ManifoldPoint]:
        return [ManifoldPoint(GroupPoint(algebra, r), k)
                for r, k in zip(_rows(self.rep, self.n), _rows(self.key, self.n))]


def _rows(cols: list, n: int):
    """The n rows of a batch as tuples of Fractions."""
    return zip(*(_fractions(c, n) for c in cols))


def _fractions(col, n: int) -> list:
    if col is None:
        return [Fraction(0)] * n
    num, den, _ = col
    values = num.tolist()
    cache = {v: Fraction(v, den) for v in set(values)}
    return [cache[v] for v in values]


def _fibre_levels(am: AutoMap, x: ManifoldPoint, k: int, cosets: CosetSystem):
    """Yield the levels Psi^{-1}(x Gamma), ..., Psi^{-k}(x Gamma).

    Each level maps every point y of the previous one to
    reduce(Psi^{-1}(y * gamma)) over the transversal, as one exact batch.
    The point count of a level must be index^level: a repeated key means
    the transversal is not one.
    """
    if not x.exact:
        raise ValueError("preimage enumeration requires an exact base point")
    budget = point_budget()
    psi_inv = am.matrix.inverse()
    gammas = exact_columns([g.coords for g in cosets.transversal])
    rep, n = exact_columns([x.rep.coords]), 1
    for level in range(1, k + 1):
        size = n * cosets.index
        if size > budget:
            raise BudgetError(
                f"level {level} needs {size} points, over "
                f"{MAX_POINTS_ENV}={budget}")

        def step(ops):
            Y = ops.repeat(ops.cast(rep), cosets.index)
            G = ops.tile(ops.cast(gammas), n)
            return ops.reduce(ops.matvec(psi_inv.rows, ops.bch(Y, G)))

        (rep, key), dtype = exact_batch(am.algebra, step)
        out = _Level(size, rep, key, dtype)
        found = out.distinct()
        if found != size:
            raise EndoError(
                f"preimage dedup collapsed {size} to {found}: "
                "transversal is not a transversal")
        yield out
        n = size


def preimages(am: AutoMap, x: ManifoldPoint, k: int,
              cosets: CosetSystem | None = None) -> list[ManifoldPoint]:
    """The fiber Psi^{-k}(x Gamma) on the quotient, exact.

    Recursive: each level maps y to reduce(Psi^{-1}(y * gamma)) over the
    transversal.  Representatives are deduplicated by exact second-kind
    coordinates; the count must equal index^k.  Points come y-major,
    gamma-minor, with exact first-kind representatives and second-kind
    keys.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if cosets is None:
        cosets = coset_representatives(am)
    level = None
    for level in _fibre_levels(am, x, k, cosets):
        pass
    return [x] if level is None else level.points(am.algebra)


def points_to_second_kind_array(points: list[ManifoldPoint]) -> np.ndarray:
    return np.array([[float(c) for c in p.key()] for p in points], dtype=float)


def covering_radius(points, algebra=None, grid_n: int | None = None,
                    search_radius: int = 1, threads: int = 1) -> float:
    """Grid estimate of the covering radius of a point set on the quotient.

    points: list of ManifoldPoint or an (n, d) array of second-kind
    coordinates.  Upper-biased: true radius <= estimate + grid mesh.
    """
    if isinstance(points, np.ndarray):
        if algebra is None:
            raise ValueError("algebra required with raw coordinate input")
        arr = points
    else:
        if not points:
            raise ValueError("empty point set")
        algebra = points[0].algebra
        arr = points_to_second_kind_array(points)
    if grid_n is None:
        grid_n = default_grid_n(algebra.dim)
    cr = CoveringRadius(algebra, search_radius=search_radius, threads=threads)
    return cr(arr, grid_n)


@dataclass
class DensityReport:
    """Per-depth preimage counts and covering radii, plus the fitted rate.

    lookups and pairs say, per depth, how the radius was computed: the
    kernel's lookup ("torus", "grid", "member" or "box") and its
    (candidate, evaluated) pair counts.
    """

    index: int
    ks: list[int]
    counts: list[int]
    radii: list[float]
    ratios: list[float]            # radii[k]/radii[k-1], aligned with ks[1:]
    fitted_mu: float
    monotone_decay: bool
    grid_n: int
    search_radius: int
    lookups: list[str] = field(default_factory=list)
    pairs: list[tuple[int, int]] = field(default_factory=list)

    def rows(self):
        out = []
        for i, k in enumerate(self.ks):
            ratio = self.ratios[i - 1] if i else None
            out.append((k, self.counts[i], self.radii[i], ratio))
        return out

    def to_csv(self) -> str:
        lines = ["k,count,covering_radius,ratio"]
        for k, count, radius, ratio in self.rows():
            r = "" if ratio is None else f"{ratio:.12g}"
            lines.append(f"{k},{count},{radius:.12g},{r}")
        lines.append(f"fitted_mu,{self.fitted_mu:.12g}")
        return "\n".join(lines) + "\n"


def fit_decay_rate(ks, radii, drop_first: bool = True) -> float:
    """Least-squares slope of ln(radius) against k, exp'd.

    The k = 1 radius is dominated by the fundamental-domain shape, so it
    is dropped by default.
    """
    ks = list(ks)
    radii = list(radii)
    if drop_first and len(ks) > 2:
        ks, radii = ks[1:], radii[1:]
    if len(ks) < 2:
        raise ValueError("need at least two depths to fit a rate")
    x = np.array(ks, dtype=float)
    y = np.log(np.array(radii, dtype=float))
    slope = np.polyfit(x, y, 1)[0]
    return float(math.exp(slope))


def density_experiment(am: AutoMap, x: ManifoldPoint, k_max: int,
                       grid_n: int | None = None, search_radius: int = 1,
                       threads: int = 1, drop_first: bool = True) -> DensityReport:
    """Enumerate fibers Psi^{-k}(x Gamma) for k = 1..k_max and measure decay."""
    if k_max < 2:
        raise ValueError("k_max must be at least 2 to fit a rate")
    algebra = am.algebra
    if grid_n is None:
        grid_n = default_grid_n(algebra.dim)
    cosets = coset_representatives(am)
    cr = CoveringRadius(algebra, search_radius=search_radius, threads=threads)
    ks, counts, radii = [], [], []
    for k, level in enumerate(_fibre_levels(am, x, k_max, cosets), start=1):
        ks.append(k)
        counts.append(level.n)
        radii.append(cr(level.floats(), grid_n))
    ratios = [radii[i] / radii[i - 1] for i in range(1, len(radii))]
    mu = fit_decay_rate(ks, radii, drop_first=drop_first)
    return DensityReport(
        index=cosets.index,
        ks=ks, counts=counts, radii=radii, ratios=ratios,
        fitted_mu=mu,
        monotone_decay=all(r < 1.0 for r in ratios),
        grid_n=grid_n,
        search_radius=search_radius,
        lookups=[r.lookup for r in cr.records],
        pairs=[(r.candidates, r.evaluated) for r in cr.records],
    )
