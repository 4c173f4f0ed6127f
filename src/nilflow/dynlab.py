"""Hyperbolic dynamics on nilmanifolds: perturbed maps, periodic orbits,
conjugacy fields, and exponent-rigidity experiments.

Everything operates on the lift: points are first-kind coordinate arrays,
and every map F here satisfies F(x*g) = F(x)*Psi(g) for lattice elements g,
so orbits, stable directions, and displacement fields descend to the
compact quotient.

The one exact step is the seed of the periodic search: the
|det(psi^P - I)| periodic points of the linear part, solved layer by
layer on nilgroup.ExactBatch and converted to correctly rounded floats.
Newton then refines them into the periodic points of the perturbed map.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .ratcore import RatMatrix, block_residues
from .liealg import LieAlgebra
from . import nilgroup
from .nilgroup import GroupPoint, ManifoldPoint
from .endo import (AutoMap, hyperbolic_splitting, preserves_lattice,
                   induced_blocks, stable_exponent,
                   is_totally_non_invertible, is_horizontally_irreducible)
from .fastops import BatchOps

logger = logging.getLogger(__name__)


class DynlabError(RuntimeError):
    pass


class ConvergenceError(DynlabError):
    """An iterative solve failed to reach its tolerance."""


class HypothesisError(DynlabError, ValueError):
    """The map is outside the perturbation families' hypotheses: its linear
    part does not preserve the lattice, the perturbation exceeds the Anosov
    budget, or the conjugating shear cannot be inverted."""


# ---------------------------------------------------------------------------
# bump functions and perturbed maps
# ---------------------------------------------------------------------------

class Bump:
    """Finite trigonometric sum in the horizontal second-kind coordinates.

    phi(t) = sum_i c_i * cos(2*pi * k_i . t_h).  Frequencies must live on
    the horizontal layer: deeper second-kind coordinates shift by
    non-integer amounts under right lattice translations, so only
    horizontal-frequency monomials descend to functions on the quotient.
    """

    def __init__(self, terms, d1: int):
        freqs, coeffs = [], []
        for k, c in terms:
            k = np.asarray(k)
            if k.shape != (d1,):
                if k.ndim == 1 and k.size > d1 and not np.any(k[d1:]):
                    k = k[:d1]
                else:
                    raise ValueError(
                        "bump frequency %r does not fit the horizontal layer "
                        "(dimension %d); deeper frequencies do not descend "
                        "to the quotient" % (k, d1))
            if not np.all(k == np.round(k)):
                raise ValueError("bump frequencies must be integer vectors")
            if not np.any(k):
                raise ValueError("zero frequency is not allowed in a bump")
            if not math.isfinite(float(c)):
                raise ValueError("bump coefficients must be finite")
            freqs.append(np.round(k).astype(int))
            coeffs.append(float(c))
        self.freqs = np.array(freqs, dtype=int).reshape(len(freqs), d1)
        self.coeffs = np.array(coeffs)
        self.d1 = d1

    def scaled(self, total: float) -> "Bump":
        """Copy with coefficients rescaled so that sum |c_i| = total."""
        norm = float(np.sum(np.abs(self.coeffs)))
        factor = total / norm if norm else 0.0
        return Bump(zip(self.freqs, self.coeffs * factor), self.d1)

    def __call__(self, Th):
        Th = np.asarray(Th, dtype=float)
        phase = 2.0 * math.pi * (Th @ self.freqs.T)
        return np.cos(phase) @ self.coeffs

    def gradient(self, Th):
        Th = np.asarray(Th, dtype=float)
        phase = 2.0 * math.pi * (Th @ self.freqs.T)
        return (-2.0 * math.pi) * (np.sin(phase) * self.coeffs) @ self.freqs

    def directional_lipschitz(self, v_h) -> float:
        """Bound on sup |grad(phi) . v| for a direction with horizontal
        part v_h; exact because phi has horizontal frequencies only."""
        return 2.0 * math.pi * float(
            np.sum(np.abs(self.coeffs) * np.abs(self.freqs @ v_h)))


def _map_scaffold(obj, automap: AutoMap, amplitude, direction, bump):
    """Shared constructor body for the perturbation families."""
    if not preserves_lattice(automap):
        raise HypothesisError("linear part must preserve the lattice")
    obj.automap = automap
    obj.algebra = automap.algebra
    obj.ops = BatchOps(obj.algebra)
    obj.splitting = hyperbolic_splitting(automap)
    obj.amplitude = float(amplitude)
    if not 0.0 <= obj.amplitude < math.inf:
        raise ValueError("amplitude must be finite and nonnegative")
    obj.psi = automap.matrix.to_float()
    obj.psi_T = obj.psi.T.copy()
    obj.psi_inv_T = np.linalg.inv(obj.psi).T.copy()
    obj.d1 = obj.algebra.layer_dims[0]
    if direction is None:
        if obj.splitting.stable_dim > 0:
            direction = obj.splitting.stable[:, 0]
        else:
            # expanding linear part: no stable direction to default to
            direction = np.eye(obj.algebra.dim)[0]
    direction = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(direction)
    if not 0.0 < norm < math.inf:
        raise ValueError("direction must be finite and nonzero")
    obj.direction = direction / norm
    if bump is None:
        k0 = np.zeros(obj.d1, dtype=int)
        k0[0] = 1
        bump = Bump([(k0, 1.0)], obj.d1)
    obj.bump = bump.scaled(obj.amplitude)


def _check_anosov_budget(obj):
    """Rank-one cone estimate: the lift's differential is (I + v a^T) psi
    with a the horizontal bump gradient, so stable vectors grow by at most
    mu^s_+(1 + sup|a.v|) and unstable ones shrink by at most the matching
    factor.  Both perturbed bounds must stay on the correct side of 1."""
    if obj.amplitude == 0.0:
        obj.budget = 0.0
        return
    s = obj.bump.directional_lipschitz(obj.direction[:obj.d1])
    mu_s = obj.splitting.mu_s_plus
    mu_u = obj.splitting.mu_u_minus
    if s >= 1.0:
        raise HypothesisError("perturbation shear exceeds the Anosov budget "
                              "(directional Lipschitz constant %.3g >= 1)" % s)
    budget_s = mu_s * s
    budget_u = mu_u * s / (1.0 - s)
    if mu_s + budget_s >= 1.0 or mu_u - budget_u <= 1.0:
        raise HypothesisError(
            "perturbation exceeds the Anosov budget: "
            "mu^s+b = %.4f, mu^u-b = %.4f" % (mu_s + budget_s,
                                              mu_u - budget_u))
    obj.budget = max(budget_s, budget_u)


class PerturbedMap:
    """Shear perturbation F(x) = exp(phi(pi(x)) v) * Psi(x) of a hyperbolic
    automorphism.

    The composition order makes equivariance automatic: F(x*g) = F(x)*Psi(g)
    for every lattice element g, so F descends to the quotient with linear
    part Psi.  The bump is evaluated at Psi(x), whose horizontal first-kind
    coordinates already equal the horizontal second-kind coordinates.
    """

    def __init__(self, automap: AutoMap, amplitude: float = 0.0,
                 direction=None, bump: Bump | None = None):
        _map_scaffold(self, automap, amplitude, direction, bump)
        _check_anosov_budget(self)

    def __repr__(self):
        return ("PerturbedMap(dim=%d, amplitude=%g)"
                % (self.algebra.dim, self.amplitude))

    def lift(self, X):
        X = np.asarray(X, dtype=float)
        Y = X @ self.psi_T
        if self.amplitude == 0.0:
            return Y
        # horizontal first-kind coords are the horizontal second-kind
        # coords, and the bump only has horizontal frequencies, so no
        # reduction is needed to evaluate phi(pi(x))
        phi = self.bump(X[..., :self.d1])
        return self.ops.bch(phi[..., None] * self.direction, Y)

    def tangent(self, X):
        """(lift(X), D lift(X)), the Jacobians in closed form."""
        X = np.asarray(X, dtype=float)
        d = X.shape[-1]
        Y, dY = _shear_tangent(self, X, X @ self.psi_T,
                               np.broadcast_to(self.psi_T, X.shape + (d,)))
        return Y, np.swapaxes(dY, -1, -2)


class ConjugatedMap:
    """Positive control F = G o Psi o G^{-1} for the explicit diffeomorphism
    G(x) = exp(g(pi(x)) v) * x.

    G commutes with right lattice translations, so F is equivariant with
    linear part Psi and is smoothly conjugate to it: every periodic orbit
    of F must carry the algebraic stable exponent.
    """

    def __init__(self, automap: AutoMap, amplitude: float = 0.0,
                 direction=None, bump: Bump | None = None):
        _map_scaffold(self, automap, amplitude, direction, bump)
        # G is invertible iff the shear fixed-point iteration contracts
        s = self.bump.directional_lipschitz(self.direction[:self.d1])
        if s >= 0.9:
            raise HypothesisError("conjugating shear too strong to invert "
                                  "(directional Lipschitz constant %.3g)" % s)

    def __repr__(self):
        return ("ConjugatedMap(dim=%d, amplitude=%g)"
                % (self.algebra.dim, self.amplitude))

    def g_apply(self, X):
        X = np.asarray(X, dtype=float)
        if self.amplitude == 0.0:
            return X.copy()
        phi = self.bump(X[..., :self.d1])
        return self.ops.bch(phi[..., None] * self.direction, X)

    def g_invert(self, Y, iters: int = 40, tol: float = 1e-14):
        """G^{-1}(Y) by one scalar solve per point.  The bump reads only the
        horizontal coordinates, where BCH is additive, so Y = exp(s v) * X
        with s = phi(X_h) gives X_h = Y_h - s v_h: s solves
        s = phi(Y_h - s v_h), and X = exp(-s v) * Y.  Newton's derivative
        1 + grad(phi).v_h stays at or above 0.1 under the constructor's
        Lipschitz guard."""
        Y = np.asarray(Y, dtype=float)
        if self.amplitude == 0.0:
            return Y.copy()
        Yh, vh = Y[..., :self.d1], self.direction[:self.d1]
        s = self.bump(Yh)
        for _ in range(iters):
            Xh = Yh - s[..., None] * vh
            step = (s - self.bump(Xh)) / (1.0 + self.bump.gradient(Xh) @ vh)
            s = s - step
            if np.max(np.abs(step)) < tol:
                return self.ops.bch(-s[..., None] * self.direction, Y)
        raise ConvergenceError("shear inversion stalled at Newton step %.3g"
                               % np.max(np.abs(step)))

    def lift(self, X):
        Z = self.g_invert(X)
        return self.g_apply(Z @ self.psi_T)

    def tangent(self, X):
        """(lift(X), D lift(X)) with D lift(X) = DG(Psi Z) Psi DG(Z)^-1 at
        Z = G^-1(X): one inversion and one batched solve."""
        Z = self.g_invert(X)
        W = Z @ self.psi_T
        eye = np.broadcast_to(np.eye(Z.shape[-1]), Z.shape + Z.shape[-1:])
        _, dGZ = _shear_tangent(self, Z, Z, eye)
        Y, dGW = _shear_tangent(self, W, W, eye)
        # tangent rows are transposed Jacobians: D lift^T = DG(Z)^-T Psi^T DG(W)^T
        return Y, np.swapaxes(np.linalg.solve(dGZ, self.psi_T @ dGW), -1, -2)


def _shear_tangent(obj, X, Y, dY):
    """bch(phi(x_h) v, Y) and its tangent rows, row j the derivative along
    the j-th coordinate of X, given the tangent rows dY of Y."""
    Xh = X[..., :obj.d1]
    dV = np.zeros(dY.shape)
    dV[..., :obj.d1, :] = obj.bump.gradient(Xh)[..., None] * obj.direction
    return obj.ops.bch_tangent(obj.bump(Xh)[..., None] * obj.direction, dV,
                               Y, dY)


def _coords(x, algebra: LieAlgebra) -> np.ndarray:
    if isinstance(x, ManifoldPoint):
        x = x.rep
    if isinstance(x, GroupPoint):
        return np.array([float(c) for c in x.coords])
    arr = np.asarray(x, dtype=float)
    if arr.shape != (algebra.dim,):
        raise ValueError("expected a point with %d coordinates"
                         % algebra.dim)
    return arr


# ---------------------------------------------------------------------------
# differentials
# ---------------------------------------------------------------------------

def jacobian(F, x, step: float = 1e-5) -> np.ndarray:
    """d x d derivative of the lift in first-kind coordinates by the
    4th-order central stencil (the Richardson extrapolation of the
    2nd-order difference, so halving the step shrinks the error about
    16x).  The maps' closed-form `tangent` is what the library uses; this
    finite difference is its independent check."""
    if step <= 0 or 1.0 + step == 1.0:
        raise ValueError("finite-difference step underflow")
    x = _coords(x, F.algebra)
    d = len(x)
    offs = np.array([-2.0, -1.0, 1.0, 2.0]) * step
    stencil = x + offs[:, None, None] * np.eye(d)
    vals = F.lift(stencil.reshape(4 * d, d)).reshape(4, d, d)
    deriv = (vals[0] - 8.0 * vals[1] + 8.0 * vals[2] - vals[3]) / (12.0 * step)
    # deriv[j, i] = d f_i / d x_j
    return deriv.T


def _frame_transfer(F, X):
    """lift(X), and the Jacobians of F.lift at the batch X conjugated into
    the right-invariant frame: M = R(lift(X))^-1 . J . R(X).

    Tangent vectors are measured by right-translating them back to the
    identity; in that frame right lattice translations act trivially, so
    the transfer along a reduced orbit needs no chart-gluing factor and
    contraction rates are those of the invariant metric.
    """
    ops = F.ops
    Y, J = F.tangent(X)
    R0 = ops.right_translation_differential(X)
    R1 = ops.right_translation_differential(Y)
    return Y, np.linalg.solve(R1, J @ R0)


def stable_direction(F, x, n_iter: int = 30, tol: float = 1e-8,
                     seed: int = 7):
    """Unit vector spanning E^s(x) and the one-step contraction |DF e^s|.

    Pulls a generic line backward through the inverse frame transfers
    along the forward orbit (solving M v_k = v_{k+1}); inverse iteration
    makes the stable direction dominant at the spectral-gap rate.  The
    orbit is reduced to the fundamental domain at each step; the frame
    transfer is blind to those right translations, so the limit is the
    frame vector of E^s at the reduced base point, translated back out
    to chart coordinates at the end.
    """
    ops = F.ops
    d = F.algebra.dim
    orbit = np.empty((n_iter + 1, d))
    orbit[0] = ops.reduce(_coords(x, F.algebra))[0]
    for k in range(n_iter):
        orbit[k + 1] = ops.reduce(F.lift(orbit[k]))[0]
    _, M = _frame_transfer(F, orbit[:-1])
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    prev = None
    for k in range(n_iter - 1, -1, -1):
        v = np.linalg.solve(M[k], v)
        v /= np.linalg.norm(v)
        if k == 1:
            prev = v.copy()
    if prev is not None:
        delta = min(np.linalg.norm(v - prev), np.linalg.norm(v + prev))
        if delta > tol:
            raise ConvergenceError(
                "stable-direction pullback moved %.3g on its last step; "
                "increase n_iter" % delta)
    contraction = float(np.linalg.norm(M[0] @ v))
    e = ops.right_translation_differential(orbit[0]) @ v
    e /= np.linalg.norm(e)
    i = int(np.argmax(np.abs(e)))
    if e[i] < 0:
        e = -e
    return e, contraction


# ---------------------------------------------------------------------------
# periodic orbits
# ---------------------------------------------------------------------------

@dataclass
class PeriodicOrbitReport:
    """One periodic orbit: prime period, the cycle in second-kind
    coordinates, its stable exponent, and the periodicity residual."""

    period: int
    points: np.ndarray
    lambda_s: float
    residual: float


def _psi_periodic_seeds(am: AutoMap, P: int):
    """Exact layered solve of Psi^P(x) = x * gamma on the quotient.

    Layer by layer the second-kind coordinates of x^{-1} Psi^P(x) are
    affine in the layer's own coordinates with integer matrix
    M = psi_l^P - I; shallower layers only feed the constant term C.  The
    layer's solutions are t = M^{-1}(r - C) mod 1 over a transversal r of
    Z^n / M Z^n.  Each layer is one exact batch over every (partial seed,
    residue) pair, seed-major and residue-minor.
    Returns (float array of second-kind seeds, exact solution count).
    """
    a = am.algebra
    amP = am.power(P)
    layers, expected = [], 1
    for blk in induced_blocks(amP):
        M = blk - RatMatrix.identity(blk.n)
        det = M.det()
        if det == 0:
            raise DynlabError("automorphism power has eigenvalue 1 on a "
                              "layer; periodic points are not isolated")
        expected *= abs(int(det))
        residues, _ = block_residues(M)
        layers.append((M.inverse().rows, nilgroup.exact_columns(residues),
                       len(residues)))

    def solve(ops):
        T, n = [None] * a.dim, 1
        for sl, (Minv, R, m) in zip(a.layer_slices, layers):
            X = ops.from_second_kind(T)
            W = ops.bch(ops.neg(X), ops.matvec(amP.matrix.rows, X))
            C = ops.to_second_kind(W)[sl]
            rhs = [ops.add(r, c) for r, c in
                   zip(ops.tile(ops.cast(R), n), ops.repeat(ops.neg(C), m))]
            T = ops.repeat(T, m)
            T[sl] = [ops.frac(t) for t in ops.matvec(Minv, rhs)]
            n *= m
        return T, n

    (T, n), _ = nilgroup.exact_batch(a, solve)
    if n != expected:
        raise DynlabError("layered periodic solve produced %d seeds, "
                          "expected %d" % (n, expected))
    return nilgroup.column_floats(T, n), expected


def _snap_torus(T, tol=1e-9):
    T = np.where(T > 1.0 - tol, 0.0, T)
    return np.clip(T, 0.0, None)


def _newton_periodic(F, P: int, tol: float, max_newton: int):
    """The points of period dividing P, refined by Newton from the linear
    part's seeds and reduced: (first-kind representatives, second-kind
    coordinates on the torus, Newton residuals).  Raises ConvergenceError
    unless they are the Lefschetz count of distinct points."""
    ops = F.ops
    d = F.algebra.dim
    T, expected = _psi_periodic_seeds(F.automap, P)
    X = ops.from_second_kind(T)
    psiP_T = F.automap.power(P).matrix.to_float().T
    # the lattice word of each seed; a conjugating shear G commutes with
    # right lattice translations, so G carries Psi-periodic seeds to
    # F-periodic seeds with the same word
    word = np.round(ops.to_second_kind(ops.bch(-X, X @ psiP_T)))
    if isinstance(F, ConjugatedMap):
        X = F.g_apply(X)
    gw_inv = -ops.from_second_kind(word)

    def compose(Z, gwi):
        for _ in range(P):
            Z = F.lift(Z)
        return ops.bch(Z, gwi)

    def compose_tangent(Z, gwi):
        """compose and its Jacobian, by the chain rule through the lifts."""
        J = np.eye(d)
        for _ in range(P):
            Z, Jk = F.tangent(Z)
            J = Jk @ J
        Y, dY = ops.bch_tangent(Z, np.swapaxes(J, -1, -2), gwi,
                                np.zeros_like(J))
        return Y, np.swapaxes(dY, -1, -2)

    rn = np.max(np.abs(compose(X, gw_inv) - X), axis=1)
    eye = np.eye(d)
    for _ in range(max_newton):
        active = rn > tol
        if not active.any():
            break
        Xa, ga = X[active], gw_inv[active]
        Ya, J = compose_tangent(Xa, ga)
        # [..., None]: 2-d right-hand sides are matrices to numpy, not stacks
        delta = np.linalg.solve(J - eye, (Xa - Ya)[..., None])[..., 0]
        X[active] += delta
        r2 = compose(X[active], ga) - X[active]
        rn[active] = np.max(np.abs(r2), axis=1)

    Xr, Tr, _ = ops.reduce(X)
    Tr = _snap_torus(Tr)
    distinct = len(np.unique(np.round(Tr, 8), axis=0))
    stalled = int((rn > tol).sum())
    if stalled or distinct != expected:
        raise ConvergenceError(
            "found %d distinct points of period dividing %d, expected %d; "
            "%d seeds stayed above the Newton tolerance %g"
            % (distinct, P, expected, stalled, tol))
    return Xr, Tr, rn


def periodic_points(F, P: int, tol: float = 1e-10, max_newton: int = 25,
                    n_pullback: int = 18):
    """All orbits of the quotient map with period dividing P.

    Seeds come from the exact layered solve for the linear part; Newton
    then refines each seed on the lift equation F^P(x) * gamma^{-1} = x
    with the seed's lattice word gamma held fixed, with the closed-form
    Jacobian of the composition.  Raises ConvergenceError unless the
    refined points are exactly the Lefschetz count |det(Psi^P - I)| of
    distinct points and the map permutes them.  The orbits are assembled
    from one walk of that successor permutation (see _orbit_reports), one
    report per orbit, ordered by period and first point.
    """
    if P < 1:
        raise ValueError("period must be >= 1")
    ops = F.ops
    d = F.algebra.dim
    # the seeds and Newton's work arrays are freed before the frame
    # transfer, where a call's memory peaks
    Xr, Tr, rn = _newton_periodic(F, P, tol, max_newton)

    # scipy loads on first use: `import nilflow` needs numpy only
    from scipy.spatial import cKDTree

    # successor structure of the quotient map on the periodic set, and
    # the transfers along it in the right-invariant frame (reduction is
    # invisible there)
    Y, M = _frame_transfer(F, Xr)
    dist, succ = cKDTree(Tr).query(_snap_torus(ops.reduce(Y)[1]))
    # Newton leaves each point within a few tol of its orbit point, so
    # an image farther than 100 tol from the set, or a point that two
    # images hit, means the set is not the periodic set
    far = int((dist > 100.0 * tol).sum())
    hit_twice = int((np.bincount(succ, minlength=len(Tr)) > 1).sum())
    if far or hit_twice:
        raise ConvergenceError(
            "periodic set failed to close under the map: %d images farther "
            "than %g from the set, %d points hit twice"
            % (far, 100.0 * tol, hit_twice))

    # stable directions at every point by pullback through the cycles
    rng = np.random.default_rng(20260815)
    v = rng.standard_normal(d)
    v = np.broadcast_to(v / np.linalg.norm(v), (len(Xr), d)).copy()
    Minv = np.linalg.inv(M)
    for _ in range(n_pullback):
        v = np.einsum("nij,nj->ni", Minv, v[succ])
        v /= np.linalg.norm(v, axis=1, keepdims=True)
    contr = np.log(np.linalg.norm(np.einsum("nij,nj->ni", M, v), axis=1))

    return _orbit_reports(succ, P, Tr, contr, rn)


def _orbit_reports(succ, P: int, T, contr, rn):
    """One PeriodicOrbitReport per cycle of the permutation succ, whose
    cycle lengths must divide P.

    Every point is walked P steps at once; its prime period is its first
    return.  An orbit starts at the least index on its cycle and follows
    succ; its exponent is the mean of contr and its residual the maximum
    of rn along it.  The reports are ordered by period and then by the
    first point rounded to 9 digits, with ties in index order.  A point
    that succ^P does not fix lies on a longer cycle: ConvergenceError.
    """
    n = len(succ)
    walk = np.empty((P, n), dtype=np.intp)
    walk[0] = np.arange(n)
    for k in range(1, P):
        walk[k] = succ[walk[k - 1]]
    off = int((succ[walk[-1]] != walk[0]).sum())
    if off:
        raise ConvergenceError(
            "the map does not return %d periodic points to themselves "
            "after %d steps" % (off, P))
    period = np.full(n, P)
    for k in range(P - 1, 0, -1):
        period[walk[k] == walk[0]] = k
    leader = walk.min(axis=0) == walk[0]
    reports, keys = [], []
    for p in np.unique(period[leader]).tolist():
        idx = walk[:p, leader & (period == p)].T
        keys.append(np.column_stack([np.full(len(idx), p),
                                     np.round(T[idx[:, 0]], 9)]))
        reports += map(PeriodicOrbitReport, itertools.repeat(p), T[idx],
                       contr[idx].mean(axis=1).tolist(),
                       rn[idx].max(axis=1).tolist())
    order = np.lexsort(np.concatenate(keys).T[::-1])
    return [reports[k] for k in order]


def periodic_orbits(F, P_max: int, tol: float = 1e-10):
    """Every periodic orbit with prime period <= P_max, by period: the
    orbits of prime period P that periodic_points(F, P) returns.  Each
    call holds its full Lefschetz count, so an orbit of period q appears
    once, from the call P = q."""
    return [rep for P in range(1, P_max + 1)
            for rep in periodic_points(F, P, tol=tol) if rep.period == P]


def orbits_to_csv(reports, dim: int) -> str:
    return _orbit_csv(dim, ((rep.period, rep.points[0], rep.lambda_s,
                             rep.residual) for rep in reports))


def _orbit_csv(dim: int, rows) -> str:
    """One CSV line per (period, first point, lambda_s, residual) row."""
    header = ("period," + ",".join("t%d" % (i + 1) for i in range(dim))
              + ",lambda_s,residual")
    lines = [header]
    for p, pt, e, r in rows:
        coords = ",".join("%.12g" % c for c in pt)
        lines.append("%d,%s,%.12g,%.3g" % (p, coords, e, r))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# conjugacy to the linear part
# ---------------------------------------------------------------------------

class _EquivariantInterp:
    """Multilinear interpolation over the fundamental-domain grid with
    equivariant wrap-around: a cell corner landing on a coordinate-1 face
    is remapped to its reduced representative, which must land back on the
    grid (true whenever the lattice shears are integer, as enforced by the
    snap check).

    The interpolation is one sparse operator, built once: a CSR matrix with
    a row per query and its 2^d corner weights in corner order, so that
    gather(u) = matrix @ u for a field u with one row per grid point."""

    def __init__(self, ops: BatchOps, n: int, T):
        from scipy.sparse import csr_matrix

        T = np.asarray(T, dtype=float)
        Q, d = T.shape
        scaled = T * n
        base = np.clip(np.floor(scaled).astype(int), 0, n - 1)
        frac = np.clip(scaled - base, 0.0, 1.0)
        corners = np.array(list(itertools.product((0, 1), repeat=d)))
        idx = np.empty((Q, len(corners)), dtype=np.int64)
        wts = np.empty((Q, len(corners)))
        for c, off in enumerate(corners):
            cidx = base + off
            tc = cidx / n
            inner = ~np.any(cidx >= n, axis=1)
            gi = np.where(inner[:, None], cidx % n, 0)
            if not inner.all():
                sub = ops.reduce(ops.from_second_kind(tc[~inner]))[1] * n
                snapped = np.rint(sub)
                err = np.max(np.abs(sub - snapped))
                if err > 1e-6:
                    raise DynlabError(
                        "lattice wrap leaves the grid (snap error %.3g); "
                        "use a grid compatible with the structure constants"
                        % err)
                gi[~inner] = snapped.astype(int) % n
            idx[:, c] = np.ravel_multi_index(tuple(gi.T), (n,) * d)
            w = np.where(off, frac, 1.0 - frac)
            wts[:, c] = np.prod(w, axis=1)
        self.matrix = csr_matrix(
            (wts.ravel(), idx.ravel(), np.arange(0, idx.size + 1, len(corners))),
            shape=(Q, n ** d))

    def gather(self, u):
        return self.matrix @ u


def _su_split(ops: BatchOps, Ps, Pu, W):
    """Group-level decomposition exp(W) = exp(S) exp(U) with S stable,
    U unstable; fixed-point iteration on the BCH correction terms.

    The projectors are polynomials in Psi, so they preserve every term of
    the lower central series, and the correction modulo gamma_{k+1}
    depends only on S and U modulo gamma_k: each iteration makes one more
    layer exact, and step - 1 iterations make the split exact.
    """
    S = W @ Ps.T
    U = W @ Pu.T
    for _ in range(ops.step - 1):
        C = ops.bch(S, U) - S - U
        S = (W - C) @ Ps.T
        U = (W - C) @ Pu.T
    return S, U


def _principal_preimage(F, Y, iters: int = 100, tol: float = 1e-13):
    """The branch of F^{-1} on the cover with Psi^{-1}(Y) as seed, via the
    fixed point x = Psi^{-1}(w(x) * y) with w(x) = Psi(x) F(x)^{-1}.

    Returns (x, log w(x)); at amplitude 0 both w and the fixed-point
    update vanish identically, keeping the returned logs exactly zero.
    """
    ops = F.ops
    X = Y @ F.psi_inv_T
    for _ in range(iters):
        w = ops.bch(X @ F.psi_T, -F.lift(X))
        Xn = ops.bch(w, Y) @ F.psi_inv_T
        if np.max(np.abs(Xn - X)) < tol:
            X = Xn
            break
        X = Xn
    err = np.max(np.abs(F.lift(X) - Y))
    if err > 1e-9:
        raise ConvergenceError("principal preimage stalled at error %.3g"
                               % err)
    return X, ops.bch(X @ F.psi_T, -F.lift(X))


@dataclass
class ConjugacyField:
    """Displacement field D on the fundamental-domain grid, with
    H(x) = D(x) * x conjugating F to its linear part: Psi o H = H o F.

    displacement holds log D(x) in first-kind coordinates, one row per
    grid point in C-order of the second-kind grid.  The residual is the
    defect of the displacement equation in the solver's own sampling:
    sup_g |log(D'(g) D(g)^{-1})| where D' is the field rebuilt from D by
    the forward (stable) and backward (unstable) relations; it vanishes
    exactly when both relations hold at every grid point.  The
    sup-displacement is the largest quasi-norm of log D (the empirical
    distance bound between H and the identity).
    """

    grid_n: int
    t_grid: np.ndarray
    displacement: np.ndarray
    residual: float
    sup_displacement: float
    history: list = field(default_factory=list)
    converged: bool = True

    def rows(self):
        return list(self.history)

    def to_csv(self) -> str:
        lines = ["iter,residual,sup_displacement"]
        for it, res, sup in self.history:
            lines.append("%d,%.12g,%.12g" % (it, res, sup))
        return "\n".join(lines) + "\n"


def solve_conjugacy(F, grid_n: int = 17, tol: float = 1e-6,
                    max_iter: int = 500):
    """Solve the displacement equation D(F(x)) = Psi(D(x)) * w(x) with
    w(x) = Psi(x) F(x)^{-1} on a fundamental-domain grid.

    Each sweep decomposes the field through the group-level su split and
    updates the unstable component by the backward relation
    D(x) <- Psi^{-1}(D(F(x)) w(x)^{-1}) and the stable component by the
    forward relation at the principal preimage, with grid interpolation
    coupling the two point meshes (two sparse operators built once, one
    product each per sweep); the iteration contracts at
    max(mu^s, 1/mu^u_-).  The reported residual is the sweep's own
    fixed-point defect sup_g |log(D'(g) D(g)^{-1})|, which decreases
    geometrically at the contraction rate and vanishes exactly when both
    relations hold; for a deformation with mismatched periodic data the
    limit field is the displacement of the semiconjugacy, which is still
    the unique bounded solution of the sampled equation.  A residual that
    is not finite ends the iteration at once with ConvergenceError.
    """
    ops = F.ops
    a = F.algebra
    d = a.dim
    split = F.splitting
    ds = split.stable_dim
    B = np.hstack([split.stable, split.unstable])
    Bi = np.linalg.inv(B)
    Ps = B[:, :ds] @ Bi[:ds]
    Pu = B[:, ds:] @ Bi[ds:]

    axes = [np.arange(grid_n) / grid_n] * d
    T = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    Xg = ops.from_second_kind(T)
    Fg = F.lift(Xg)
    interp_fwd = _EquivariantInterp(ops, grid_n, _snap_torus(ops.reduce(Fg)[1]))
    w_g = ops.bch(Xg @ F.psi_T, -Fg)
    Xpre, w_pre = _principal_preimage(F, Xg)
    interp_bwd = _EquivariantInterp(ops, grid_n,
                                    _snap_torus(ops.reduce(Xpre)[1]))

    def sweep(u):
        val_b = ops.bch(interp_fwd.gather(u), -w_g) @ F.psi_inv_T
        val_f = ops.bch(interp_bwd.gather(u) @ F.psi_T, w_pre)
        S_f, _ = _su_split(ops, Ps, Pu, val_f)
        _, U_b = _su_split(ops, Ps, Pu, val_b)
        return ops.bch(S_f, U_b)

    u = np.zeros((len(T), d))
    history = []
    res = math.inf
    it = 0
    while it < max_iter:
        it += 1
        u_new = sweep(u)
        defect = ops.bch(u_new, -u)
        res = float(np.max(np.linalg.norm(defect, axis=1)))
        u = u_new
        history.append((it, res, float(np.max(ops.quasi_norm(u)))))
        if res < tol or not math.isfinite(res):
            break

    fld = ConjugacyField(
        grid_n=grid_n,
        t_grid=T,
        displacement=u,
        residual=res,
        sup_displacement=float(np.max(ops.quasi_norm(u))),
        history=history,
        converged=res < tol,
    )
    if not fld.converged:
        err = ConvergenceError(
            "conjugacy iteration capped at %d sweeps with residual %.3g"
            % (it, res) if math.isfinite(res) else
            "conjugacy residual is %s at sweep %d" % (res, it))
        err.field = fld
        raise err
    return fld


# ---------------------------------------------------------------------------
# rigidity experiment
# ---------------------------------------------------------------------------

@dataclass
class RigidityReport:
    """Stable exponents over all periodic orbits up to a period cap."""

    algebraic_exponent: float
    periods: list
    exponents: list
    residuals: list
    representatives: np.ndarray
    hypotheses_ok: bool

    @property
    def exp_min(self) -> float:
        return min(self.exponents)

    @property
    def exp_max(self) -> float:
        return max(self.exponents)

    @property
    def spread(self) -> float:
        return self.exp_max - self.exp_min

    @property
    def mean(self) -> float:
        return float(np.mean(self.exponents))

    @property
    def deviation(self) -> float:
        return max(abs(e - self.algebraic_exponent) for e in self.exponents)

    def rows(self):
        return [(p, tuple(pt), e, r)
                for p, pt, e, r in zip(self.periods, self.representatives,
                                       self.exponents, self.residuals)]

    def to_csv(self) -> str:
        return _orbit_csv(self.representatives.shape[1], self.rows())


def rigidity_experiment(F, P_max: int = 3, tol: float = 1e-10,
                        assert_tol: float = 1e-3):
    """Collect lambda^s over every periodic orbit with period <= P_max and
    compare against the algebraic exponent of the linear part.

    Warns when the rigidity hypotheses (totally non-invertible plus
    horizontally irreducible linear part) fail.  A conjugated construction
    must reproduce the algebraic exponent on every orbit, so spread
    beyond assert_tol raises; a generic shear only reports its spread.
    """
    am = F.automap
    hypotheses_ok = bool(is_totally_non_invertible(am)
                         and is_horizontally_irreducible(am))
    if not hypotheses_ok:
        logger.warning("rigidity hypotheses fail (need a totally "
                       "non-invertible, horizontally irreducible linear "
                       "part); exponent spread is uncontrolled")
    orbits = periodic_orbits(F, P_max, tol=tol)
    report = RigidityReport(
        algebraic_exponent=stable_exponent(am),
        periods=[rep.period for rep in orbits],
        exponents=[rep.lambda_s for rep in orbits],
        residuals=[rep.residual for rep in orbits],
        representatives=np.array([rep.points[0] for rep in orbits]),
        hypotheses_ok=hypotheses_ok,
    )
    if isinstance(F, ConjugatedMap) and report.spread >= assert_tol:
        raise DynlabError(
            "conjugated construction shows exponent spread %.3g >= %.3g; "
            "the smooth-conjugacy invariance is violated"
            % (report.spread, assert_tol))
    return report
