"""Nilpotent Lie algebras with a basis adapted to the lower central series.

A LieAlgebra is defined by rational structure constants on a fixed basis
X_1..X_d.  The basis must be adapted: the trailing dim(n_i) vectors span
the i-th term n_i of the lower central series.  Layer i then occupies a
contiguous index block, shallow layers first, and every bracket lands in
strictly deeper blocks.  That ordering is what makes second-kind
coordinates and fundamental-domain reduction terminate.

Vectors are plain sequences of coordinates in this basis: tuples of
Fraction for exact arithmetic, numpy float arrays otherwise.  The group
multiplication bch() is the Baker-Campbell-Hausdorff polynomial, exact
because nilpotency truncates the series; steps up to 4 are supported with
hardcoded coefficients.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .ratcore import Rat, rat, rref

BCH_MAX_STEP = 4

HALF = Fraction(1, 2)
TWELFTH = Fraction(1, 12)
MINUS_24TH = Fraction(-1, 24)
_ZERO = Fraction(0)


class AlgebraError(ValueError):
    """Structure constants fail antisymmetry, Jacobi, or adaptedness."""


def as_exact_vec(seq) -> tuple:
    return tuple(rat(x) for x in seq)


def as_float_vec(seq) -> np.ndarray:
    return np.asarray([float(x) for x in seq], dtype=float)


def is_exact_vec(v) -> bool:
    return not isinstance(v, np.ndarray)


class LieAlgebra:
    """Rational nilpotent Lie algebra on an adapted basis.

    Structure constants are given as triples (i, j, k): c with
    [X_i, X_j] = sum_k c_ijk X_k; only i < j entries are stored, the
    antisymmetric completion is implied.  Indices here are 0-based.
    """

    def __init__(self, dim: int, triples: dict):
        self.dim = int(dim)
        if self.dim < 1:
            raise AlgebraError("dimension must be positive")
        self.triples: dict[tuple[int, int, int], Fraction] = {}
        for (i, j, k), v in triples.items():
            q = rat(v)
            if q == 0:
                continue
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise AlgebraError(f"structure constant index out of range: {(i, j, k)}")
            if i == j:
                raise AlgebraError(f"c[{i},{i},{k}] nonzero contradicts antisymmetry")
            if i > j:
                i, j, q = j, i, -q
            key = (i, j, k)
            if key in self.triples and self.triples[key] != q:
                raise AlgebraError(
                    f"antisymmetry conflict at c[{i},{j},{k}]: "
                    f"{self.triples[key]} vs {q}")
            self.triples[key] = q

        self._brackets = self._basis_bracket_table()
        self._check_jacobi()
        self._series = self._lower_central_series()
        self.step = len(self._series)
        self._check_adapted()
        dims = [len(b) for b in self._series] + [0]
        self.layer_dims = tuple(dims[i] - dims[i + 1] for i in range(self.step))
        offsets = [0]
        for d_i in self.layer_dims:
            offsets.append(offsets[-1] + d_i)
        self.layer_slices = tuple(slice(offsets[i], offsets[i + 1])
                                  for i in range(self.step))
        self.layer_of = tuple(i + 1
                              for i in range(self.step)
                              for _ in range(self.layer_dims[i]))
        # dense float tensor B[i,j,k]: [e_i, e_j]_k, both orientations filled
        B = np.zeros((self.dim, self.dim, self.dim))
        for (i, j, k), v in self.triples.items():
            B[i, j, k] = float(v)
            B[j, i, k] = -float(v)
        self.bracket_tensor = B

    # -- construction helpers -------------------------------------------

    def _basis_bracket_table(self):
        table = [[None] * self.dim for _ in range(self.dim)]
        zero = tuple(Fraction(0) for _ in range(self.dim))
        for i in range(self.dim):
            for j in range(self.dim):
                table[i][j] = zero
        for (i, j, k), v in self.triples.items():
            row = list(table[i][j])
            row[k] = v
            table[i][j] = tuple(row)
            row = list(table[j][i])
            row[k] = -v
            table[j][i] = tuple(row)
        return table

    def _check_jacobi(self):
        d = self.dim
        for i in range(d):
            for j in range(i + 1, d):
                for k in range(j + 1, d):
                    s1 = self.bracket(self._brackets[i][j], self._basis_vec(k))
                    s2 = self.bracket(self._brackets[j][k], self._basis_vec(i))
                    s3 = self.bracket(self._brackets[k][i], self._basis_vec(j))
                    total = tuple(a + b + c for a, b, c in zip(s1, s2, s3))
                    if any(total):
                        raise AlgebraError(
                            f"Jacobi identity fails on basis triple ({i + 1}, {j + 1}, {k + 1})")

    def _basis_vec(self, i: int) -> tuple:
        return tuple(Fraction(int(j == i)) for j in range(self.dim))

    def _lower_central_series(self):
        basis = [self._basis_vec(i) for i in range(self.dim)]
        series = [tuple(basis)]
        current = basis
        while True:
            gens = []
            for b in current:
                for e in basis:
                    w = self.bracket(e, b)
                    if any(w):
                        gens.append(w)
            nxt = rref(gens)
            if not nxt:
                break
            if len(nxt) >= len(current):
                raise AlgebraError("lower central series does not terminate: not nilpotent")
            series.append(tuple(nxt))
            current = nxt
        return series

    def _check_adapted(self):
        d = self.dim
        for idx, basis in enumerate(self._series[1:], start=2):
            t = len(basis)
            for v in basis:
                if any(v[j] != 0 for j in range(d - t)):
                    raise AlgebraError(
                        f"basis not adapted: n_{idx} is not spanned by the trailing "
                        f"{t} basis vectors")

    # -- core operations -------------------------------------------------

    def bracket(self, X, Y):
        """Lie bracket, exact on Fraction tuples, float on arrays."""
        if is_exact_vec(X) and is_exact_vec(Y):
            out = [_ZERO] * self.dim
            for (i, j, k), c in self.triples.items():
                xi, xj = X[i], X[j]
                if not xi and not xj:
                    continue
                t = xi * Y[j] - xj * Y[i]
                if t:
                    out[k] += c * t
            return tuple(out)
        Xf, Yf = as_float_vec(X), as_float_vec(Y)
        return np.einsum("ijk,i,j->k", self.bracket_tensor, Xf, Yf)

    def bch(self, X, Y):
        """Group law in exponential coordinates: log(exp X exp Y).

        Exact truncation of the Baker-Campbell-Hausdorff series under
        nilpotency; supported through step 4.
        """
        if self.step > BCH_MAX_STEP:
            raise AlgebraError(f"bch supports nilpotency step <= {BCH_MAX_STEP}")
        if is_exact_vec(X) and is_exact_vec(Y):
            # Sparse accumulation: zero brackets kill all deeper terms.
            z = [x + y for x, y in zip(X, Y)]
            b1 = self.bracket(X, Y)
            if any(b1):
                for k, v in enumerate(b1):
                    if v:
                        z[k] += HALF * v
                if self.step >= 3:
                    xb = self.bracket(X, b1)
                    for k, v in enumerate(xb):
                        if v:
                            z[k] += TWELFTH * v
                    for k, v in enumerate(self.bracket(Y, b1)):
                        if v:
                            z[k] -= TWELFTH * v
                    if self.step >= 4 and any(xb):
                        for k, v in enumerate(self.bracket(Y, xb)):
                            if v:
                                z[k] += MINUS_24TH * v
            return tuple(z)
        X, Y = as_float_vec(X), as_float_vec(Y)
        b1 = self.bracket(X, Y)
        z = X + Y + 0.5 * b1
        if self.step >= 3:
            xb = self.bracket(X, b1)
            z = z + (xb - self.bracket(Y, b1)) / 12.0
            if self.step >= 4:
                z = z - self.bracket(Y, xb) / 24.0
        return z

    def zero(self, exact: bool = True):
        if exact:
            return tuple(Fraction(0) for _ in range(self.dim))
        return np.zeros(self.dim)

    # -- quasi-norm -------------------------------------------------------

    def quasi_norm_components(self, X):
        """Squared norms of the layer blocks of X: Fractions when X is
        exact, floats otherwise."""
        if is_exact_vec(X):
            return [sum(x * x for x in X[sl]) for sl in self.layer_slices]
        Xf = as_float_vec(X)
        return [float(np.dot(Xf[sl], Xf[sl])) for sl in self.layer_slices]

    def quasi_norm(self, X) -> float:
        """Homogeneous quasi-norm max_i ||p_i(X)||^(1/i)."""
        comps = self.quasi_norm_components(X)
        return max(float(s) ** (0.5 / (i + 1)) for i, s in enumerate(comps))


def from_sparse_triples(dim: int, entries) -> LieAlgebra:
    """Build from an iterable of (i, j, k, value) with 1-based indices."""
    triples = {}
    for i, j, k, v in entries:
        key = (int(i) - 1, int(j) - 1, int(k) - 1)
        q = rat(v)
        if key in triples and triples[key] != q:
            raise AlgebraError(f"duplicate structure constant {key} with conflicting values")
        triples[key] = q
    return LieAlgebra(dim, triples)


def heisenberg() -> LieAlgebra:
    """The 3-dimensional Heisenberg algebra, [X1, X2] = X3."""
    return LieAlgebra(3, {(0, 1, 2): 1})


def abelian(dim: int) -> LieAlgebra:
    return LieAlgebra(dim, {})
