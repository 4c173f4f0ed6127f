"""Exact rational linear algebra and polynomial tools.

Everything here is exact except roots_numeric.  Matrices and polynomials
carry fractions.Fraction entries; integer matrices are Fraction matrices
whose entries happen to have denominator 1.  The scope is deliberately
small: characteristic polynomials, factorization over Q, Smith normal
form with transforms, and a polished numeric root finder.  Dimensions
stay small (<= 16) throughout the package, so O(n^4) algorithms are fine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

Rat = Fraction

MAX_FACTOR_DEGREE = 12


def rat(value) -> Fraction:
    """Coerce ints, Fractions, and 'p/q' strings to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError("refusing to coerce float to Fraction; pass a string or int")
    raise TypeError(f"cannot interpret {value!r} as a rational")


def rat_str(q: Fraction) -> str:
    """Format a Fraction as 'p' or 'p/q' (lowest terms, q > 0)."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class RatMatrix:
    """Immutable dense matrix over Q."""

    __slots__ = ("rows", "n", "m")

    def __init__(self, rows):
        self.rows = tuple(tuple(rat(x) for x in row) for row in rows)
        self.n = len(self.rows)
        self.m = len(self.rows[0]) if self.n else 0
        if any(len(r) != self.m for r in self.rows):
            raise ValueError("ragged rows")

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(n: int, m: int) -> "RatMatrix":
        return RatMatrix([[0] * m for _ in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, RatMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(rat_str(x) for x in row) for row in self.rows)
        return f"RatMatrix[{body}]"

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if (self.n, self.m) != (other.n, other.m):
            raise ValueError("shape mismatch")
        return RatMatrix([[a + b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        if (self.n, self.m) != (other.n, other.m):
            raise ValueError("shape mismatch")
        return RatMatrix([[a - b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.rows, other.rows)])

    def __mul__(self, other):
        if isinstance(other, RatMatrix):
            if self.m != other.n:
                raise ValueError("shape mismatch")
            cols = list(zip(*other.rows))
            return RatMatrix([[sum(a * b for a, b in zip(row, col)) for col in cols]
                              for row in self.rows])
        q = rat(other)
        return RatMatrix([[q * x for x in row] for row in self.rows])

    __rmul__ = __mul__

    def matvec(self, v):
        """Matrix times coordinate vector, exact."""
        if len(v) != self.m:
            raise ValueError("length mismatch")
        return tuple(
            sum((a * x for a, x in zip(row, v) if a and x), start=Fraction(0))
            for row in self.rows)

    def is_square(self) -> bool:
        return self.n == self.m

    def is_integer(self) -> bool:
        return all(x.denominator == 1 for row in self.rows for x in row)

    def submatrix(self, rows, cols) -> "RatMatrix":
        return RatMatrix([[self.rows[i][j] for j in cols] for i in rows])

    def to_float(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.rows], dtype=float)

    def det(self) -> Fraction:
        """Determinant by fraction-free style Gaussian elimination over Q."""
        if not self.is_square():
            raise ValueError("det of non-square matrix")
        a = [list(row) for row in self.rows]
        n = self.n
        sign = 1
        acc = Fraction(1)
        for k in range(n):
            piv = next((i for i in range(k, n) if a[i][k] != 0), None)
            if piv is None:
                return Fraction(0)
            if piv != k:
                a[k], a[piv] = a[piv], a[k]
                sign = -sign
            acc *= a[k][k]
            inv = a[k][k]
            for i in range(k + 1, n):
                f = a[i][k] / inv
                if f:
                    for j in range(k, n):
                        a[i][j] -= f * a[k][j]
        return sign * acc

    def inverse(self) -> "RatMatrix":
        """Exact inverse by Gauss-Jordan; raises on singular input."""
        if not self.is_square():
            raise ValueError("inverse of non-square matrix")
        n = self.n
        a = [list(row) + [Fraction(int(i == j)) for j in range(n)]
             for i, row in enumerate(self.rows)]
        for k in range(n):
            piv = next((i for i in range(k, n) if a[i][k] != 0), None)
            if piv is None:
                raise ZeroDivisionError("singular matrix")
            a[k], a[piv] = a[piv], a[k]
            inv = a[k][k]
            a[k] = [x / inv for x in a[k]]
            for i in range(n):
                if i != k and a[i][k]:
                    f = a[i][k]
                    a[i] = [x - f * y for x, y in zip(a[i], a[k])]
        return RatMatrix([row[n:] for row in a])

    def rank(self) -> int:
        a = [list(row) for row in self.rows]
        n, m = self.n, self.m
        r = 0
        for c in range(m):
            piv = next((i for i in range(r, n) if a[i][c] != 0), None)
            if piv is None:
                continue
            a[r], a[piv] = a[piv], a[r]
            inv = a[r][c]
            a[r] = [x / inv for x in a[r]]
            for i in range(n):
                if i != r and a[i][c]:
                    f = a[i][c]
                    a[i] = [x - f * y for x, y in zip(a[i], a[r])]
            r += 1
            if r == n:
                break
        return r


def rref(vectors: list[tuple]) -> list[tuple]:
    """Reduced row echelon basis of the span of the given coordinate vectors."""
    if not vectors:
        return []
    a = [list(v) for v in vectors]
    m = len(a[0])
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return [tuple(row) for row in a[:r]]


@dataclass(frozen=True)
class RatPoly:
    """Univariate polynomial over Q, coefficients lowest degree first."""

    coeffs: tuple

    def __init__(self, coeffs):
        cs = [rat(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        if self.coeffs == (Fraction(0),):
            return -1
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return self.degree == -1

    def __call__(self, x):
        acc = 0 if not isinstance(x, complex) else 0j
        for c in reversed(self.coeffs):
            acc = acc * x + (float(c) if isinstance(x, (float, complex)) else c)
        return acc

    def __add__(self, other: "RatPoly") -> "RatPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return RatPoly([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        return self + RatPoly([-c for c in other.coeffs])

    def __mul__(self, other):
        if isinstance(other, RatPoly):
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        out[i + j] += a * b
            return RatPoly(out)
        q = rat(other)
        return RatPoly([q * c for c in self.coeffs])

    __rmul__ = __mul__

    def monic(self) -> "RatPoly":
        if self.is_zero():
            raise ValueError("zero polynomial has no monic form")
        lc = self.leading
        return RatPoly([c / lc for c in self.coeffs])

    def divmod(self, other: "RatPoly") -> tuple["RatPoly", "RatPoly"]:
        if other.is_zero():
            raise ZeroDivisionError
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(1, len(rem) - len(other.coeffs) + 1)
        d = other.degree
        lc = other.leading
        while len(rem) - 1 >= d and any(rem):
            k = len(rem) - 1 - d
            f = rem[-1] / lc
            q[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= f * c
            while len(rem) > 1 and rem[-1] == 0:
                rem.pop()
            if rem == [Fraction(0)]:
                break
        return RatPoly(q), RatPoly(rem)

    def __repr__(self):
        terms = [f"{rat_str(c)}*x^{i}" for i, c in enumerate(self.coeffs) if c]
        return "RatPoly(" + (" + ".join(terms) if terms else "0") + ")"


def char_poly(m: RatMatrix) -> RatPoly:
    """Characteristic polynomial det(lambda*I - m), monic, exact.

    Berkowitz's division-free algorithm; with Fraction entries every
    intermediate stays exact regardless of pivots.
    """
    if not m.is_square():
        raise ValueError("char_poly of non-square matrix")
    n = m.n
    if n == 0:
        return RatPoly([1])
    # Berkowitz: iteratively build the characteristic polynomial of the
    # leading principal submatrices via Toeplitz products.
    # v holds coefficients of det(xI - M_r), highest degree first.
    a = m.rows
    v = [Fraction(1), -a[0][0]]
    for r in range(1, n):
        # principal submatrix A = a[:r][:r], row R = a[r][:r],
        # column S = a[:r][r], corner = a[r][r]
        corner = a[r][r]
        R = [a[r][j] for j in range(r)]
        S = [a[i][r] for i in range(r)]
        # c_k = R * A^(k) * S for k = 0..r-1
        c = [Fraction(0)] * (r + 1)
        c[0] = corner
        w = S[:]
        for k in range(1, r + 1):
            c[k] = sum(x * y for x, y in zip(R, w))
            if k < r:
                w = [sum(a[i][j] * w[j] for j in range(r)) for i in range(r)]
        # Toeplitz multiply: new_v[i] = v[i] - sum_{k>=1} c[k-1]*v[i-k]
        new_v = [Fraction(0)] * (r + 2)
        for i, vi in enumerate(v):
            new_v[i] += vi
        for k in range(1, r + 2):
            ck = c[k - 1]
            if ck:
                for i, vi in enumerate(v):
                    if i + k <= r + 1:
                        new_v[i + k] -= ck * vi
        v = new_v
    return RatPoly(list(reversed(v)))


def factor_over_Q(p: RatPoly) -> list[tuple[RatPoly, int]]:
    """Factor into monic irreducible polynomials over Q with multiplicities.

    The product of the factors times the leading coefficient of p equals p.
    Degree is capped at MAX_FACTOR_DEGREE; this package only meets
    characteristic polynomials of small matrices.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if p.degree > MAX_FACTOR_DEGREE:
        raise ValueError(f"degree {p.degree} exceeds cap {MAX_FACTOR_DEGREE}")
    if p.degree == 0:
        return []
    import sympy  # a third of the package's import time; only used here

    x = sympy.symbols("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x**i
               for i, c in enumerate(p.coeffs))
    _, factors = sympy.Poly(expr, x, domain="QQ").factor_list()
    out = []
    for f, mult in factors:
        cs = [Fraction(c.p, c.q) for c in reversed(f.all_coeffs())]
        out.append((RatPoly(cs).monic(), int(mult)))
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return out


def smith_normal_form(m: RatMatrix) -> tuple[RatMatrix, RatMatrix, RatMatrix]:
    """Smith normal form of an integer matrix.

    Returns (U, D, V) with U*m*V = D, U and V unimodular over Z, D diagonal
    with nonnegative entries satisfying d_1 | d_2 | ... .
    """
    if not m.is_integer():
        raise ValueError("Smith normal form requires an integer matrix")
    n, mm = m.n, m.m
    a = [[int(x) for x in row] for row in m.rows]
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    V = [[int(i == j) for j in range(mm)] for i in range(mm)]

    def row_op(i, j, f):  # row_i -= f * row_j
        a[i] = [x - f * y for x, y in zip(a[i], a[j])]
        U[i] = [x - f * y for x, y in zip(U[i], U[j])]

    def col_op(i, j, f):  # col_i -= f * col_j
        for row in a:
            row[i] -= f * row[j]
        for row in V:
            row[i] -= f * row[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(n, mm):
        # find a nonzero pivot in the remaining block
        piv = None
        for i in range(t, n):
            for j in range(t, mm):
                if a[i][j] != 0:
                    if piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]]):
                        piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # clear column t then row t; restart if a remainder pops up
            dirty = False
            for i in range(t + 1, n):
                if a[i][t]:
                    q, r = divmod(a[i][t], a[t][t])
                    row_op(i, t, q)
                    if r:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, mm):
                if a[t][j]:
                    q, r = divmod(a[t][j], a[t][t])
                    col_op(j, t, q)
                    if r:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        # enforce divisibility d_t | entries of the remaining block
        adjusted = False
        for i in range(t + 1, n):
            for j in range(t + 1, mm):
                if a[i][j] % a[t][t]:
                    # add row i to row t, then restart elimination at t
                    row_op(t, i, -1)
                    adjusted = True
                    break
            if adjusted:
                break
        if adjusted:
            continue
        t += 1

    # normalize signs
    for t in range(min(n, mm)):
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            U[t] = [-x for x in U[t]]
    return RatMatrix(U), RatMatrix(a), RatMatrix(V)


def block_residues(m: RatMatrix) -> tuple[list[tuple[int, ...]], list[int]]:
    """Transversal of Z^n / m Z^n for a nonsingular integer matrix m, and
    the Smith normal form diagonal.

    With U m V = D, x ~ y iff Ux = Uy mod D, so U^{-1} {0..d_i-1}^n is a
    transversal of |det m| integer vectors, listed in itertools.product
    order of the residues.
    """
    U, D, _ = smith_normal_form(m)
    diag = [int(D[i, i]) for i in range(m.n)]
    if 0 in diag:
        raise ValueError("singular matrix has no finite coset transversal")
    Uinv = U.inverse()
    reps = [tuple(int(x) for x in Uinv.matvec(r))
            for r in product(*map(range, diag))]
    return reps, diag


def roots_numeric(p: RatPoly, tol: float = 1e-12, max_iter: int = 200) -> list[complex]:
    """All complex roots of p, Aberth-Ehrlich iteration.

    Falls back to the companion matrix (numpy.roots) if the simultaneous
    iteration stalls.  Conjugate pairs are returned adjacent, sorted by
    (real, imag); real roots have their imaginary part zeroed when it is
    below tol relative to the root scale.
    """
    if p.degree < 1:
        return []
    c = np.array([float(x) for x in p.coeffs], dtype=float)
    c = c / c[-1]
    n = p.degree
    dc = np.array([i * c[i] for i in range(1, n + 1)])

    def horner(z, cs):
        acc = np.zeros_like(z)
        for k in range(len(cs) - 1, -1, -1):
            acc = acc * z + cs[k]
        return acc

    # initial guesses on a circle scaled by coefficient magnitudes
    radius = 1.0 + max(abs(c[k]) for k in range(n))
    ang = 2 * np.pi * (np.arange(n) + 0.375) / n
    z = radius ** (1 / 1.0) * np.exp(1j * ang) * (0.5 + 0.5 * np.linspace(0.5, 1.0, n))

    converged = False
    for _ in range(max_iter):
        pv = horner(z, c)
        dv = horner(z, dc)
        newton = np.where(dv != 0, pv / np.where(dv == 0, 1, dv), 0.0)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        sums = (1.0 / diff).sum(axis=1) - 1.0  # remove diagonal's 1/1
        denom = 1.0 - newton * sums
        step = newton / np.where(denom == 0, 1, denom)
        z = z - step
        if np.all(np.abs(step) < tol * (1.0 + np.abs(z))):
            converged = True
            break
    if not converged or not np.all(np.isfinite(z)):
        z = np.roots(c[::-1])

    # Newton polish from whichever start we ended with
    for _ in range(8):
        pv = horner(z, c)
        dv = horner(z, dc)
        mask = np.abs(dv) > 0
        z = z - np.where(mask, pv / np.where(mask, dv, 1), 0)

    roots = list(z)
    # snap near-real roots, then pair conjugates exactly
    scale = 1.0 + max(abs(r) for r in roots)
    out = []
    used = [False] * len(roots)
    for i, r in enumerate(roots):
        if used[i]:
            continue
        if abs(r.imag) < tol * scale:
            out.append(complex(r.real, 0.0))
            used[i] = True
            continue
        # find the best conjugate partner
        best, best_d = None, None
        for j in range(i + 1, len(roots)):
            if used[j]:
                continue
            d = abs(roots[j] - r.conjugate())
            if best is None or d < best_d:
                best, best_d = j, d
        if best is not None and best_d < 1e-6 * scale:
            used[i] = used[best] = True
            re = 0.5 * (r.real + roots[best].real)
            im = 0.5 * (abs(r.imag) + abs(roots[best].imag))
            out.append(complex(re, im))
            out.append(complex(re, -im))
        else:
            used[i] = True
            out.append(r)
    out.sort(key=lambda w: (round(w.real, 10), round(w.imag, 10)))
    return out
