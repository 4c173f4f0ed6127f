"""Automorphisms of nilpotent algebras and their hyperbolic structure.

An AutoMap is the linear part psi of a group endomorphism in the adapted
basis (columns are images of basis vectors).  Because the basis is
adapted, psi is block lower-triangular; the diagonal blocks psi_i are the
induced maps on the layer quotients n_i / n_{i+1}.

Exact predicates (lattice preservation, total non-invertibility,
horizontal irreducibility) are decided in rational arithmetic; analytic
predicates (hyperbolicity, splitting) run in floating point with an
explicit tolerance and refuse to guess inside the indeterminate band.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from .liealg import LieAlgebra
from .nilgroup import GroupPoint, in_lattice
from .ratcore import RatMatrix, RatPoly, char_poly, factor_over_Q, roots_numeric

ANALYTIC_TOL = 1e-9


class EndoError(ValueError):
    """Matrix is not an automorphism of the given algebra."""


class IndeterminateModulusError(ArithmeticError):
    """An eigenvalue modulus sits inside the tolerance band around 1."""


class AutoMap:
    """Lie algebra automorphism psi, exact rational matrix.

    matrix: RatMatrix whose column j holds the coordinates of psi(X_j).
    Bracket preservation and invertibility are verified at construction.
    """

    def __init__(self, algebra: LieAlgebra, matrix: RatMatrix):
        self.algebra = algebra
        self.matrix = matrix
        _validate(algebra, matrix)

    def __repr__(self):
        return f"AutoMap(dim={self.algebra.dim}, matrix={self.matrix!r})"

    def apply_vec(self, v):
        """psi on first-kind coordinates; exact on Fraction tuples."""
        if isinstance(v, np.ndarray):
            return self.matrix.to_float() @ v
        return self.matrix.matvec(v)

    def apply(self, x: GroupPoint) -> GroupPoint:
        """The group endomorphism exp . psi . log."""
        return GroupPoint(self.algebra, self.apply_vec(x.coords))

    def inverse(self) -> "AutoMap":
        return AutoMap(self.algebra, self.matrix.inverse())

    def power(self, k: int) -> "AutoMap":
        if k < 0:
            return self.inverse().power(-k)
        m = RatMatrix.identity(self.algebra.dim)
        for _ in range(k):
            m = self.matrix * m
        return AutoMap(self.algebra, m)


def _validate(algebra: LieAlgebra, matrix: RatMatrix):
    d = algebra.dim
    if not (matrix.is_square() and matrix.n == d):
        raise EndoError(f"matrix is {matrix.n}x{matrix.m}, algebra has dimension {d}")
    if matrix.det() == 0:
        raise EndoError("matrix is singular")
    cols = [tuple(matrix[i, j] for i in range(d)) for j in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            lhs = algebra.bracket(cols[i], cols[j])
            rhs = matrix.matvec(algebra._brackets[i][j])
            if lhs != rhs:
                raise EndoError(
                    f"bracket not preserved on basis pair ({i + 1}, {j + 1})")


def preserves_lattice(am: AutoMap) -> bool:
    """Whether psi maps the lattice into itself.

    It suffices to check the generators: images of lattice words are
    words in the images.
    """
    d = am.algebra.dim
    for j in range(d):
        col = tuple(am.matrix[i, j] for i in range(d))
        if not in_lattice(GroupPoint(am.algebra, col)):
            return False
    return True


def induced_blocks(am: AutoMap) -> list[RatMatrix]:
    """Diagonal blocks psi_i acting on the layer quotients.

    Raises EndoError if psi is not block lower-triangular in the adapted
    basis or a block is not integral.
    """
    a = am.algebra
    blocks = []
    for li, sl in enumerate(a.layer_slices, start=1):
        for j in range(sl.start, sl.stop):
            for i in range(a.dim):
                if a.layer_of[i] < li and am.matrix[i, j] != 0:
                    raise EndoError(
                        f"column {j + 1} (layer {li}) has a component in layer "
                        f"{a.layer_of[i]}: not filtration-preserving")
        idx = list(range(sl.start, sl.stop))
        block = am.matrix.submatrix(idx, idx)
        if not block.is_integer():
            raise EndoError(f"layer-{li} block is not integral")
        blocks.append(block)
    return blocks


def eigenvalues(am: AutoMap, tol: float = 1e-12) -> list[complex]:
    """Spectrum of psi as the union of the diagonal-block spectra."""
    out = []
    for block in induced_blocks(am):
        out.extend(roots_numeric(char_poly(block), tol))
    out.sort(key=lambda z: (abs(z), z.real, z.imag))
    return out


def check_eigenvalue_product_law(am: AutoMap, tol: float = ANALYTIC_TOL) -> bool:
    """Every eigenvalue of psi_i is a product of i eigenvalues of psi_1.

    Bracketing multiplies layers, so deep-layer spectra are generated by
    the horizontal spectrum.
    """
    blocks = induced_blocks(am)
    lam1 = roots_numeric(char_poly(blocks[0]))
    for i, block in enumerate(blocks[1:], start=2):
        lam_i = roots_numeric(char_poly(block))
        products = [math.prod(c, start=1 + 0j)
                    for c in combinations_with_replacement(lam1, i)]
        for lam in lam_i:
            if not any(abs(lam - p) <= tol * (1 + abs(p)) for p in products):
                return False
    return True


def is_hyperbolic(am: AutoMap, tol: float = ANALYTIC_TOL) -> bool:
    """No eigenvalue modulus equals 1.

    Raises IndeterminateModulusError when some modulus is within tol of 1;
    that case is reported, never guessed.
    """
    for lam in eigenvalues(am):
        if abs(abs(lam) - 1.0) <= tol:
            raise IndeterminateModulusError(
                f"eigenvalue {lam} has modulus within {tol} of 1")
    return True


def is_totally_non_invertible(am: AutoMap) -> bool:
    """No eigenvalue of psi is an algebraic unit (exact rational decision).

    An eigenvalue is an algebraic unit exactly when its monic minimal
    polynomial has integer coefficients and constant term +-1, so it
    suffices to inspect the irreducible factors of the characteristic
    polynomial over Q.
    """
    p = char_poly(am.matrix)
    for f, _ in factor_over_Q(p):
        integral = all(c.denominator == 1 for c in f.coeffs)
        if integral and abs(f.coeffs[0]) == 1:
            return False
    return True


def is_horizontally_irreducible(am: AutoMap) -> bool:
    """Characteristic polynomial of the horizontal block is irreducible over Q."""
    block1 = induced_blocks(am)[0]
    factors = factor_over_Q(char_poly(block1))
    return len(factors) == 1 and factors[0][1] == 1


@dataclass
class SpectralSplit:
    """Hyperbolic splitting of the algebra into stable and unstable parts."""

    stable: np.ndarray            # d x d_s, orthonormal columns
    unstable: np.ndarray          # d x d_u, orthonormal columns
    eigenvalues: list             # full spectrum
    mu_s_plus: float              # largest stable modulus (0 if no stable part)
    mu_u_minus: float             # smallest unstable modulus (inf if none)
    invariance_residual: float    # ||psi S - S (S^T psi S)||, same for U

    @property
    def stable_dim(self) -> int:
        return self.stable.shape[1]

    @property
    def unstable_dim(self) -> int:
        return self.unstable.shape[1]


def hyperbolic_splitting(am: AutoMap, tol: float = ANALYTIC_TOL) -> SpectralSplit:
    """Invariant stable/unstable subspaces via sorted real Schur form."""
    # scipy loads on first use: `import nilflow` needs numpy only
    from scipy.linalg import schur

    is_hyperbolic(am, tol)  # raises in the indeterminate band
    A = am.matrix.to_float()
    lams = eigenvalues(am)
    d = A.shape[0]

    def split_basis(select_stable: bool) -> np.ndarray:
        if select_stable:
            sort = lambda re, im: (re * re + im * im) < 1.0
        else:
            sort = lambda re, im: (re * re + im * im) > 1.0
        T, Z, sdim = schur(A, output="real", sort=sort)
        return Z[:, :sdim]

    S = split_basis(True)
    U = split_basis(False)
    if S.shape[1] + U.shape[1] != d:
        raise IndeterminateModulusError(
            "stable and unstable dimensions do not fill the space")
    res = 0.0
    for B in (S, U):
        if B.shape[1]:
            proj = B @ (B.T @ (A @ B))
            res = max(res, float(np.max(np.abs(A @ B - proj))))
    stable_mod = [abs(l) for l in lams if abs(l) < 1.0]
    unstable_mod = [abs(l) for l in lams if abs(l) > 1.0]
    return SpectralSplit(
        stable=S,
        unstable=U,
        eigenvalues=lams,
        mu_s_plus=max(stable_mod, default=0.0),
        mu_u_minus=min(unstable_mod, default=math.inf),
        invariance_residual=res,
    )


def is_u_ideal(am: AutoMap, tol: float = ANALYTIC_TOL) -> bool:
    """Whether [n^s, n^u] lies inside n^u.

    Decides in floating point against the splitting basis; trivially true
    for abelian algebras and whenever the bracket of the two subspaces
    vanishes.
    """
    split = hyperbolic_splitting(am, tol)
    if split.stable_dim == 0 or split.unstable_dim == 0:
        return True
    a = am.algebra
    B = np.concatenate([split.stable, split.unstable], axis=1)
    for s_vec in split.stable.T:
        for u_vec in split.unstable.T:
            w = np.einsum("ijk,i,j->k", a.bracket_tensor, s_vec, u_vec)
            comps = np.linalg.solve(B, w)
            if np.max(np.abs(comps[: split.stable_dim])) > tol * (1 + np.linalg.norm(w)):
                return False
    return True


def stable_exponent(am: AutoMap, tol: float = ANALYTIC_TOL) -> float:
    """ln of the largest stable eigenvalue modulus, ln(mu^s_+).

    For hyperbolic psi this is the stable Lyapunov exponent of the
    algebraic system, independent of the orbit.
    """
    split = hyperbolic_splitting(am, tol)
    if split.stable_dim == 0:
        raise EndoError("no stable eigenvalues: stable exponent undefined")
    return math.log(split.mu_s_plus)
