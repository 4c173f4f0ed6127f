"""Preimage enumeration and covering-radius density experiments.

For a lattice-preserving hyperbolic automorphism, the induced map on the
quotient is an |det psi|-to-one covering.  Preimage fibers are enumerated
exactly: a coset transversal of Gamma / Psi(Gamma) is built layer by
layer from Smith normal forms of the diagonal blocks, and
Psi^{-k}(x Gamma) is the set reduce(Psi^{-1}(x * gamma)) over transversal
elements gamma, recursively.

A fibre level is computed exactly, but not point by point in Fraction
arithmetic: preimage points have bounded denominators, so a level is held
as integer numerator arrays with one exact denominator per coordinate,
and the BCH product, Psi^{-1}, second-kind coordinates and reduction run
on all (point, transversal element) pairs at once.  The arrays are int64;
every product and sum is checked against the int64 range beforehand, and
a level that could overflow is recomputed by the same code on Python
ints.  Dedup keys are exact integer rows.  Everything up to the covering
radius is rational arithmetic end to end; the covering radius itself is a
float grid estimate (upper-biased by grid resolution).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .endo import AutoMap, EndoError, induced_blocks, preserves_lattice
from .fastops import CoveringRadius, default_grid_n
from .liealg import (
    BCH_MAX_STEP,
    HALF,
    MINUS_24TH,
    TWELFTH,
    AlgebraError,
    LieAlgebra,
)
from .nilgroup import GroupPoint, ManifoldPoint, in_lattice, inv, mul
from .ratcore import RatMatrix, smith_normal_form

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


def _block_residues(block: RatMatrix) -> tuple[list[tuple[int, ...]], list[int]]:
    """Transversal of Z^n / A Z^n for an integer matrix A.

    With U A V = D, x ~ y iff Ux = Uy mod D, so U^{-1} {0..d_i-1}^n is a
    transversal; entries are exact integers.
    """
    U, D, V = smith_normal_form(block)
    n = block.n
    diag = [int(D[i, i]) for i in range(n)]
    if any(di == 0 for di in diag):
        raise EndoError("block is singular; no finite coset transversal")
    Uinv = U.inverse()
    reps = []
    for combo in product(*[range(di) for di in diag]):
        vec = Uinv.matvec(tuple(Fraction(c) for c in combo))
        reps.append(tuple(int(x) for x in vec))
    return reps, diag


def coset_representatives(am: AutoMap, verify: bool = True) -> CosetSystem:
    """Exact coset transversal of the lattice modulo its Psi-image.

    Layer residues are combined into second-kind integer words, shallow
    layers first.  With verify=True, pairwise inequivalence mod Psi(Gamma)
    is checked exactly (all pairs up to index 256, sampled beyond).
    """
    if not preserves_lattice(am):
        raise EndoError("automorphism does not preserve the lattice")
    blocks = induced_blocks(am)
    a = am.algebra
    per_layer = []
    diagonals = []
    index = 1
    for block in blocks:
        reps, diag = _block_residues(block)
        per_layer.append(reps)
        diagonals.append(diag)
        index *= len(reps)
    budget = point_budget()
    if index > budget:
        raise BudgetError(
            f"coset index {index} exceeds {MAX_POINTS_ENV}={budget}")
    transversal = []
    from .nilgroup import from_second_kind
    for combo in product(*per_layer):
        word = [c for layer_rep in combo for c in layer_rep]
        transversal.append(from_second_kind(a, word, exact=True))
    expected = 1
    for block in blocks:
        expected *= abs(int(block.det()))
    if len(transversal) != expected:
        raise EndoError(
            f"transversal has {len(transversal)} elements, expected {expected}")
    if verify:
        _verify_transversal(am, transversal)
    return CosetSystem(am, transversal, index, diagonals)


def _verify_transversal(am: AutoMap, transversal: list, sample_cap: int = 256):
    """gamma_a gamma_b^{-1} must never lie in Psi(Gamma)."""
    psi_inv = am.matrix.inverse()
    n = len(transversal)
    if n <= sample_cap:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    else:
        import random
        rng = random.Random(20260815)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(500)]
        pairs = [(i, j) for i, j in pairs if i != j]
    for i, j in pairs:
        diff = mul(transversal[i], inv(transversal[j]))
        pre = GroupPoint(am.algebra, psi_inv.matvec(diff.coords))
        if in_lattice(pre):
            raise EndoError(
                f"transversal elements {i} and {j} are equivalent mod Psi(Gamma)")


# -- exact levels as integer numerator columns --------------------------------

_INT64_MAX = 2**63 - 1
_FLOAT_EXACT = 2**53      # integers below this convert to float64 exactly


class _Overflow(ArithmeticError):
    """An int64 operation could leave the int64 range."""


class _ExactBatch:
    """Exact group arithmetic on many points at once.

    A batch of d-vectors is a list of d columns.  A column is None when it
    is identically zero, else (num, den, bound): an integer array of
    numerators over the one denominator den, and a bound on |num|.  The
    arrays have dtype int64 or object (Python ints); on int64 every result
    bound is checked against the int64 range before the operation runs and
    _Overflow is raised instead of wrapping.
    """

    def __init__(self, algebra: LieAlgebra, dtype):
        if algebra.step > BCH_MAX_STEP:
            raise AlgebraError(f"bch supports nilpotency step <= {BCH_MAX_STEP}")
        self.alg = algebra
        self.d = algebra.dim
        self.dtype = dtype
        self.int64 = dtype is np.int64
        self.triples = [(i, j, k, c) for (i, j, k), c in algebra.triples.items()]

    def _check(self, *values):
        if self.int64 and max(values) > _INT64_MAX:
            raise _Overflow

    def cast(self, cols: list) -> list:
        out = []
        for col in cols:
            if col is not None:
                num, den, bound = col
                self._check(bound)
                col = (num.astype(self.dtype), den, bound)
            out.append(col)
        return out

    # -- column arithmetic ---------------------------------------------------

    def add(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        (na, da, ba), (nb, db, bb) = a, b
        if da == db:
            self._check(ba + bb)
            return (na + nb, da, ba + bb)
        L = math.lcm(da, db)
        sa, sb = L // da, L // db
        bound = ba * sa + bb * sb
        self._check(bound, sa, sb)
        return (na * sa + nb * sb, L, bound)

    def scale(self, a, q: Fraction):
        if a is None or not q:
            return None
        num, den, bound = a
        p = q.numerator
        self._check(bound * abs(p), abs(p))
        return (num * p, den * q.denominator, bound * abs(p))

    def mul(self, a, b):
        if a is None or b is None:
            return None
        (na, da, ba), (nb, db, bb) = a, b
        self._check(ba * bb)
        return (na * nb, da * db, ba * bb)

    def normalise(self, a):
        """Lowest common terms of a column; all-zero columns become None."""
        if a is None:
            return None
        num, den, _ = a
        bound = int(np.abs(num).max())
        if bound == 0:
            return None
        g = math.gcd(int(np.gcd.reduce(num)), den) if den > 1 else 1
        if g > 1:
            num, den, bound = num // g, den // g, bound // g
        return (num, den, bound)

    # -- group law -----------------------------------------------------------

    def bracket(self, X, Y):
        out = [None] * self.d
        for i, j, k, c in self.triples:
            t = self.add(self.mul(X[i], Y[j]),
                         self.scale(self.mul(X[j], Y[i]), Fraction(-1)))
            out[k] = self.add(out[k], self.scale(t, c))
        return out

    def _axpy(self, z, b, q: Fraction):
        return [self.add(zk, self.scale(bk, q)) for zk, bk in zip(z, b)]

    def bch(self, X, Y):
        """Columnwise LieAlgebra.bch, step <= 4."""
        z = [self.add(x, y) for x, y in zip(X, Y)]
        b1 = self.bracket(X, Y)
        z = self._axpy(z, b1, HALF)
        if self.alg.step >= 3:
            xb = self.bracket(X, b1)
            z = self._axpy(z, xb, TWELFTH)
            z = self._axpy(z, self.bracket(Y, b1), -TWELFTH)
            if self.alg.step >= 4:
                z = self._axpy(z, self.bracket(Y, xb), MINUS_24TH)
        return [self.normalise(c) for c in z]

    def matvec(self, rows, X):
        """Exact matrix (rows of Fractions) times each vector of the batch."""
        out = []
        for row in rows:
            acc = None
            for q, x in zip(row, X):
                acc = self.add(acc, self.scale(x, q))
            out.append(self.normalise(acc))
        return out

    def _axis(self, j, col):
        e = [None] * self.d
        e[j] = col
        return e

    def to_second_kind(self, X):
        """Columnwise nilgroup.to_second_kind."""
        r, t = X, []
        for j in range(self.d):
            t.append(r[j])
            if r[j] is not None:
                r = self.bch(self._axis(j, self.scale(r[j], Fraction(-1))), r)
        return t

    def from_second_kind(self, T):
        r = [None] * self.d
        for j, col in enumerate(T):
            if col is not None:
                r = self.bch(r, self._axis(j, col))
        return r

    def reduce(self, X):
        """Columnwise nilgroup.reduce: first-kind coordinates of the
        representatives and their second-kind coordinates in [0, 1)."""
        cur, key = X, [None] * self.d
        for sl in self.alg.layer_slices:
            t = self.to_second_kind(cur)
            word = [None] * self.d
            for j in range(sl.start, sl.stop):
                if t[j] is None:
                    continue
                num, den, _ = t[j]
                self._check(den)
                key[j] = self.normalise((num % den, den, None))
                word[j] = self.normalise((-(num // den), 1, None))
            if any(w is not None for w in word):
                cur = self.bch(cur, self.from_second_kind(word))
        return cur, key


def _columns(vectors: list) -> list:
    """Exact Fraction vectors as the columns of one batch (object dtype)."""
    cols = []
    for vals in zip(*vectors):
        den = math.lcm(*(Fraction(v).denominator for v in vals))
        num = np.array([int(Fraction(v) * den) for v in vals], dtype=object)
        bound = int(np.abs(num).max())
        cols.append((num, den, bound) if bound else None)
    return cols


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
        return len(np.unique(keys, axis=0))

    def floats(self) -> np.ndarray:
        """Second-kind coordinates as floats, each correctly rounded."""
        out = np.zeros((self.n, len(self.key)))
        for j, col in enumerate(self.key):
            if col is None:
                continue
            num, den, bound = col
            if max(bound, den) >= _FLOAT_EXACT:
                num = num.astype(object)   # Python int division rounds once
            out[:, j] = num / den
        return out

    def points(self, algebra: LieAlgebra) -> list[ManifoldPoint]:
        reps = zip(*(_fractions(c, self.n) for c in self.rep))
        keys = zip(*(_fractions(c, self.n) for c in self.key))
        return [ManifoldPoint(GroupPoint(algebra, r), k)
                for r, k in zip(reps, keys)]


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
    reduce(Psi^{-1}(y * gamma)) over the transversal.  A level is tried on
    int64 and recomputed on Python ints when a bound check trips.  The
    point count of a level must be index^level: a repeated key means the
    transversal is not one.
    """
    if not x.exact:
        raise ValueError("preimage enumeration requires an exact base point")
    budget = point_budget()
    psi_inv = am.matrix.inverse()
    rows = [[psi_inv[i, j] for j in range(am.algebra.dim)]
            for i in range(am.algebra.dim)]
    gammas = _columns([g.coords for g in cosets.transversal])
    rep, n = _columns([x.rep.coords]), 1
    for level in range(1, k + 1):
        size = n * cosets.index
        if size > budget:
            raise BudgetError(
                f"level {level} needs {size} points, over "
                f"{MAX_POINTS_ENV}={budget}")
        for dtype in (np.int64, object):
            ops = _ExactBatch(am.algebra, dtype)
            try:
                Y = [None if c is None else (np.repeat(c[0], cosets.index), *c[1:])
                     for c in ops.cast(rep)]
                G = [None if c is None else (np.tile(c[0], n), *c[1:])
                     for c in ops.cast(gammas)]
                rep, key = ops.reduce(ops.matvec(rows, ops.bch(Y, G)))
                break
            except _Overflow:
                continue
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
    """Per-depth preimage counts and covering radii, plus the fitted rate."""

    index: int
    ks: list[int]
    counts: list[int]
    radii: list[float]
    ratios: list[float]            # radii[k]/radii[k-1], aligned with ks[1:]
    fitted_mu: float
    monotone_decay: bool
    grid_n: int
    search_radius: int

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
    )
