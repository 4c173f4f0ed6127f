"""Simply connected nilpotent groups, their lattices, and the quotient.

A GroupPoint is a group element in exponential coordinates of the first
kind: x = exp(sum_j c_j X_j), stored as the coordinate vector.  Products
go through the BCH polynomial, so exact (Fraction) points multiply
exactly.

Coordinates of the second kind write x = exp(t_1 X_1) ... exp(t_d X_d).
The lattice consists of the points with integer second-kind coordinates,
and the fundamental domain of the quotient is the unit cube [0,1)^d in
those coordinates.  A ManifoldPoint is the canonical (reduced)
representative of a coset x * Gamma.

ExactBatch runs the same exact group law on many points at once: each
coordinate is an integer numerator array over one denominator, on int64
with every result bound checked beforehand, and exact_batch recomputes a
job on Python ints when a check trips.  It serves the preimage fibres,
the coset check and the periodic seeds; the scalar functions here stay
the reference it is tested against.

manifold_dist minimizes the right-invariant quasi-distance
q(log(y x^-1)) over lattice translates of one argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np

from .liealg import (
    BCH_MAX_STEP,
    HALF,
    MINUS_24TH,
    TWELFTH,
    AlgebraError,
    LieAlgebra,
    as_exact_vec,
    as_float_vec,
    is_exact_vec,
)


@dataclass(frozen=True)
class GroupPoint:
    """Group element in first-kind exponential coordinates."""

    algebra: LieAlgebra
    coords: object  # tuple[Fraction] (exact) or np.ndarray (float)

    @property
    def exact(self) -> bool:
        return is_exact_vec(self.coords)

    def to_float(self) -> "GroupPoint":
        return GroupPoint(self.algebra, as_float_vec(self.coords))

    def __eq__(self, other):
        if not isinstance(other, GroupPoint):
            return NotImplemented
        if self.algebra is not other.algebra:
            return False
        if self.exact and other.exact:
            return self.coords == other.coords
        return bool(np.all(as_float_vec(self.coords) == as_float_vec(other.coords)))

    def __hash__(self):
        if not self.exact:
            raise TypeError("float points are not hashable")
        return hash(self.coords)


def point(algebra: LieAlgebra, coords, exact: bool | None = None) -> GroupPoint:
    """Wrap coordinates, coercing to exact tuples unless exact=False."""
    if exact is False:
        return GroupPoint(algebra, as_float_vec(coords))
    if exact is True or not isinstance(coords, np.ndarray):
        return GroupPoint(algebra, as_exact_vec(coords))
    return GroupPoint(algebra, np.asarray(coords, dtype=float))


def identity(algebra: LieAlgebra, exact: bool = True) -> GroupPoint:
    return GroupPoint(algebra, algebra.zero(exact))


def mul(x: GroupPoint, y: GroupPoint) -> GroupPoint:
    if x.algebra is not y.algebra:
        raise ValueError("points on different groups")
    return GroupPoint(x.algebra, x.algebra.bch(x.coords, y.coords))


def inv(x: GroupPoint) -> GroupPoint:
    if x.exact:
        return GroupPoint(x.algebra, tuple(-c for c in x.coords))
    return GroupPoint(x.algebra, -x.coords)


def to_second_kind(x: GroupPoint):
    """Coordinates (t_1..t_d) with x = exp(t_1 X_1) ... exp(t_d X_d).

    Strip generators left to right: after removing exp(t_1 X_1) ...
    exp(t_{j-1} X_{j-1}), the X_j coefficient of the residual log is t_j,
    because commutator corrections only touch strictly deeper layers.
    """
    a = x.algebra
    d = a.dim
    exact = x.exact
    r = x.coords
    t = []
    for j in range(d):
        tj = r[j]
        t.append(tj)
        if not tj:
            continue
        if exact:
            e = [Fraction(0)] * d
            e[j] = -tj
            r = a.bch(tuple(e), r)
        else:
            e = np.zeros(d)
            e[j] = -tj
            r = a.bch(e, r)
    return tuple(t) if exact else np.asarray(t, dtype=float)


def from_second_kind(algebra: LieAlgebra, t, exact: bool | None = None) -> GroupPoint:
    """Ordered product exp(t_1 X_1) ... exp(t_d X_d)."""
    if exact is None:
        exact = not isinstance(t, np.ndarray)
    d = algebra.dim
    if exact:
        t = as_exact_vec(t)
        r = algebra.zero(True)
        for j in range(d):
            if t[j]:
                e = [Fraction(0)] * d
                e[j] = t[j]
                r = algebra.bch(r, tuple(e))
        return GroupPoint(algebra, r)
    t = as_float_vec(t)
    r = algebra.zero(False)
    for j in range(d):
        e = np.zeros(d)
        e[j] = t[j]
        r = algebra.bch(r, e)
    return GroupPoint(algebra, r)


def in_lattice(x: GroupPoint) -> bool:
    """Whether x has integer second-kind coordinates (exact points only)."""
    if not x.exact:
        raise ValueError("lattice membership is decided in exact arithmetic")
    return all(c.denominator == 1 for c in to_second_kind(x))


@dataclass(frozen=True)
class ManifoldPoint:
    """Coset x*Gamma, held as the representative with second-kind
    coordinates in [0,1)^d."""

    rep: GroupPoint
    _sk: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def algebra(self) -> LieAlgebra:
        return self.rep.algebra

    @property
    def exact(self) -> bool:
        return self.rep.exact

    def key(self):
        """Dedup key: exact second-kind coordinates of the representative."""
        if self._sk is not None:
            return self._sk
        if not self.exact:
            raise TypeError("float manifold points have no exact key")
        sk = to_second_kind(self.rep)
        object.__setattr__(self, "_sk", sk)
        return sk

    def __hash__(self):
        return hash(self.key())

    def __eq__(self, other):
        if not isinstance(other, ManifoldPoint):
            return NotImplemented
        if self.exact and other.exact:
            return self.key() == other.key()
        return bool(np.allclose(as_float_vec(to_second_kind(self.rep)),
                                as_float_vec(to_second_kind(other.rep))))


def reduce(x: GroupPoint) -> tuple[ManifoldPoint, GroupPoint]:
    """Canonical representative of x*Gamma and the witness gamma.

    Returns (r, gamma) with r = x * gamma, gamma in the lattice, and the
    second-kind coordinates of r all in [0,1).  Works layer by layer:
    stripping integer parts of one layer only disturbs strictly deeper
    layers, so one pass per layer suffices.
    """
    a = x.algebra
    exact = x.exact
    cur = x
    gamma = identity(a, exact)
    final_sk = []
    for sl in a.layer_slices:
        t = to_second_kind(cur)
        if exact:
            floors = [math.floor(t[j]) for j in range(sl.start, sl.stop)]
        else:
            floors = [math.floor(float(t[j])) for j in range(sl.start, sl.stop)]
        final_sk.extend(t[j] - f for j, f in zip(range(sl.start, sl.stop), floors))
        if not any(floors):
            continue
        step_vec = [0] * a.dim
        for j, f in zip(range(sl.start, sl.stop), floors):
            step_vec[j] = -f
        g = from_second_kind(a, step_vec, exact=exact)
        cur = mul(cur, g)
        gamma = mul(gamma, g)
    # Layer i second-kind coords are final once layer i is stripped:
    # deeper strips never touch them.
    sk = tuple(final_sk) if exact else None
    return ManifoldPoint(cur, sk), gamma


def manifold_dist(p: ManifoldPoint, q: ManifoldPoint,
                  search_radius: int = 1) -> float:
    """min over lattice translates gamma of q(log(q_rep gamma p_rep^-1)).

    The translate box is integer second-kind vectors in
    [-search_radius, search_radius]^d; radius 1 is enough for reduced
    representatives.  A scalar reference for the covering-radius kernels.
    """
    a = p.algebra
    x_inv = -as_float_vec(p.rep.coords)
    y = q.rep.to_float()
    best = math.inf
    R = search_radius
    for n in product(range(-R, R + 1), repeat=a.dim):
        g = from_second_kind(a, np.asarray(n, dtype=float), exact=False)
        cand = a.quasi_norm(a.bch(mul(y, g).coords, x_inv))
        if cand < best:
            best = cand
    return best


# -- exact batches: integer numerator columns ---------------------------------

_INT64_MAX = 2**63 - 1
_FLOAT_EXACT = 2**53      # integers below this convert to float64 exactly


class _Overflow(ArithmeticError):
    """An int64 operation could leave the int64 range."""


class ExactBatch:
    """Exact group arithmetic on many points at once.

    A batch of d-vectors is a list of d columns.  A column is None when it
    is identically zero, else (num, den, bound): an integer array of
    numerators over the one denominator den, and a bound on |num|.  The
    arrays have dtype int64 or object (Python ints); on int64 every result
    bound is checked against the int64 range before the operation runs and
    _Overflow is raised instead of wrapping.  bch, matvec and reduce
    return columns in lowest terms, so their results do not depend on the
    dtype.
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

    @staticmethod
    def repeat(cols: list, m: int) -> list:
        """Each row m times in a row: rows i*m .. i*m+m-1 are row i."""
        return [None if c is None else (np.repeat(c[0], m), *c[1:]) for c in cols]

    @staticmethod
    def tile(cols: list, n: int) -> list:
        """The whole batch n times over: row i*m + j is row j."""
        return [None if c is None else (np.tile(c[0], n), *c[1:]) for c in cols]

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

    def frac(self, a):
        """Fractional part a - floor(a), in [0, 1)."""
        if a is None:
            return None
        num, den, _ = a
        self._check(den)
        return self.normalise((num % den, den, None))

    # -- group law -----------------------------------------------------------

    def neg(self, X):
        return [self.scale(x, Fraction(-1)) for x in X]

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
        """Columnwise to_second_kind."""
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
        """Columnwise reduce: first-kind coordinates of the representatives
        and their second-kind coordinates in [0, 1)."""
        cur, key = X, [None] * self.d
        for sl in self.alg.layer_slices:
            t = self.to_second_kind(cur)
            word = [None] * self.d
            for j in range(sl.start, sl.stop):
                key[j] = self.frac(t[j])
                if t[j] is not None:
                    num, den, _ = t[j]
                    word[j] = self.normalise((-(num // den), 1, None))
            if any(w is not None for w in word):
                cur = self.bch(cur, self.from_second_kind(word))
        return cur, key


def exact_batch(algebra: LieAlgebra, job):
    """job(ops) on an int64 ExactBatch, rerun on Python ints if a bound
    check trips; returns (job's result, the dtype it ran on)."""
    try:
        return job(ExactBatch(algebra, np.int64)), np.int64
    except _Overflow:
        return job(ExactBatch(algebra, object)), object


def exact_columns(vectors: list) -> list:
    """Vectors of Fractions or ints as the columns of one batch (object
    dtype)."""
    cols = []
    for vals in zip(*vectors):
        den = math.lcm(*(v.denominator for v in vals))
        num = np.array([v.numerator * (den // v.denominator) for v in vals],
                       dtype=object)
        bound = int(np.abs(num).max())
        cols.append((num, den, bound) if bound else None)
    return cols


def column_floats(cols: list, n: int) -> np.ndarray:
    """The n rows of a batch as floats, each entry correctly rounded."""
    out = np.zeros((n, len(cols)))
    for j, col in enumerate(cols):
        if col is None:
            continue
        num, den, bound = col
        if max(bound, den) >= _FLOAT_EXACT:
            num = num.astype(object)   # Python int division rounds once
        out[:, j] = num / den
    return out
