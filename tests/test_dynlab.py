"""Perturbed dynamics: bumps, periodic orbits, conjugacy, rigidity."""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from nilflow import dynlab
from nilflow.cli import fixture_path, parse_system
from nilflow.dynlab import (
    Bump,
    ConjugatedMap,
    ConvergenceError,
    PerturbedMap,
    _EquivariantInterp,
    _orbit_reports,
    _psi_periodic_seeds,
    _su_split,
    jacobian,
    orbits_to_csv,
    periodic_orbits,
    periodic_points,
    rigidity_experiment,
    solve_conjugacy,
    stable_direction,
)
from nilflow.endo import induced_blocks
from nilflow.fastops import BatchOps
from nilflow.nilgroup import from_second_kind, inv, mul, to_second_kind
from nilflow.ratcore import RatMatrix, smith_normal_form

LAMBDA_S = math.log(3 - math.sqrt(5))
PHI = (1 + math.sqrt(5)) / 2


# ---------------------------------------------------------------------------
# bumps


def test_bump_evaluates_cosine_sum():
    b = Bump([([1, 0], 0.5), ([1, 1], -0.25)], 2)
    t = np.array([[0.2, 0.7], [0.0, 0.0]])
    want = (0.5 * np.cos(2 * np.pi * t[:, 0])
            - 0.25 * np.cos(2 * np.pi * (t[:, 0] + t[:, 1])))
    assert np.allclose(b(t), want)


def test_bump_scaled_total():
    b = Bump([([1, 0], 3.0), ([0, 1], -1.0)], 2).scaled(0.01)
    assert np.sum(np.abs(b.coeffs)) == pytest.approx(0.01)


def test_bump_rejects_bad_frequencies():
    with pytest.raises(ValueError, match="zero frequency"):
        Bump([([0, 0], 1.0)], 2)
    with pytest.raises(ValueError, match="integer"):
        Bump([([0.5, 0], 1.0)], 2)
    with pytest.raises(ValueError, match="horizontal"):
        Bump([([1, 0, 2], 1.0)], 2)  # deep frequency does not descend
    # deep zeros are harmless and get truncated
    b = Bump([([1, 0, 0], 1.0)], 2)
    assert b.freqs.shape == (1, 2)


# ---------------------------------------------------------------------------
# map scaffolding


def test_perturbed_map_equivariance(heis_am):
    F = PerturbedMap(heis_am, amplitude=0.03)
    ops = F.ops
    rng = np.random.default_rng(71)
    X = rng.uniform(-2, 2, size=(40, 3))
    gamma_sk = rng.integers(-3, 4, size=(40, 3)).astype(float)
    gamma = ops.from_second_kind(gamma_sk)
    lhs = F.lift(ops.bch(X, gamma))
    rhs = ops.bch(F.lift(X), gamma @ F.psi_T)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_unperturbed_lift_is_linear(heis_am):
    F = PerturbedMap(heis_am, amplitude=0.0)
    X = np.array([[0.3, -0.4, 0.1]])
    assert np.allclose(F.lift(X), X @ F.psi_T)


def test_amplitude_validation(heis_am):
    with pytest.raises(ValueError):
        PerturbedMap(heis_am, amplitude=-0.1)


def test_conjugated_map_inverts_shear(heis_am):
    G = ConjugatedMap(heis_am, amplitude=0.05)
    rng = np.random.default_rng(73)
    X = rng.uniform(-1, 1, size=(30, 3))
    back = G.g_invert(G.g_apply(X))
    assert np.allclose(back, X, atol=1e-12)


def fixed_point_inverse(G, Y, iters):
    """G^{-1}(Y) by the shear's fixed point X = exp(-phi(X_h) v) * Y."""
    X = Y.copy()
    for _ in range(iters):
        X = G.ops.bch(-G.bump(X[:, :G.d1])[:, None] * G.direction, Y)
    return X


@pytest.mark.parametrize("system", ["heis_am", "ex5_am"])
@pytest.mark.parametrize("lipschitz", [0.3, 0.89])
def test_g_invert_matches_fixed_point_oracle(request, system, lipschitz):
    am = request.getfixturevalue(system)
    d, d1 = am.algebra.dim, am.algebra.layer_dims[0]
    freqs = np.eye(d1, dtype=int)
    bump = Bump([(freqs[0], 1.0), (freqs[0] + freqs[-1], -0.5)], d1)
    v = np.arange(1.0, d + 1)
    probe = ConjugatedMap(am, amplitude=1e-3, direction=v, bump=bump)
    unit = probe.bump.directional_lipschitz(probe.direction[:d1]) / 1e-3
    # a Lipschitz constant of 0.89 sits just inside the constructor's guard
    G = ConjugatedMap(am, amplitude=lipschitz / unit, direction=v, bump=bump)
    assert G.bump.directional_lipschitz(G.direction[:d1]) == pytest.approx(
        lipschitz)
    Y = np.random.default_rng(41).uniform(-1, 1, size=(200, d))
    X = G.g_invert(Y)
    assert np.max(np.abs(X - fixed_point_inverse(G, Y, 600))) < 1e-14
    assert np.max(np.abs(G.g_apply(X) - Y)) < 1e-14
    with pytest.raises(ConvergenceError, match="stalled"):
        G.g_invert(np.full((2, d), np.nan))


@pytest.mark.parametrize("cls", [PerturbedMap, ConjugatedMap])
@pytest.mark.parametrize("amplitude,direction,message", [
    (0.01, [0.0, 0.0, 0.0], "direction must be finite and nonzero"),
    (0.01, [np.nan, 1.0, 0.0], "direction must be finite and nonzero"),
    (0.01, [np.inf, 1.0, 0.0], "direction must be finite and nonzero"),
    (np.inf, None, "amplitude must be finite and nonnegative"),
    (np.nan, None, "amplitude must be finite and nonnegative"),
], ids=["zero-direction", "nan-direction", "inf-direction", "inf-amplitude",
        "nan-amplitude"])
def test_maps_reject_non_finite_settings(heis_am, cls, amplitude, direction,
                                         message):
    with pytest.raises(ValueError, match=message):
        cls(heis_am, amplitude=amplitude, direction=direction)


@pytest.mark.parametrize("coeff", [np.nan, np.inf, -np.inf])
def test_bump_rejects_non_finite_coefficients(coeff):
    with pytest.raises(ValueError, match="coefficients must be finite"):
        Bump([([1, 0], 1.0), ([0, 1], coeff)], 2)


# ---------------------------------------------------------------------------
# jacobians


def test_jacobian_of_linear_map_is_exact(heis_am):
    F = PerturbedMap(heis_am, amplitude=0.0)
    J = jacobian(F, np.array([0.2, 0.4, -0.3]))
    assert np.allclose(J, F.psi, atol=1e-9)


def test_jacobian_stencil_order(heis_am):
    # consecutive-difference ratio of a 4th-order stencil is 2^4
    F = PerturbedMap(heis_am, amplitude=0.05)
    x = np.array([0.37, 0.21, 0.11])
    J = {h: jacobian(F, x, step=h) for h in (2e-3, 1e-3, 5e-4)}
    num = np.max(np.abs(J[2e-3] - J[1e-3]))
    den = np.max(np.abs(J[1e-3] - J[5e-4]))
    assert num / den == pytest.approx(16.0, rel=0.2)


def test_jacobian_step_validation(heis_am):
    F = PerturbedMap(heis_am)
    with pytest.raises(ValueError):
        jacobian(F, np.zeros(3), step=0.0)


@pytest.mark.parametrize("system", [
    "torus2", "heis", "ex5", "filiform3", "filiform4"])
def test_bch_tangent_matches_central_difference(request, system):
    alg = request.getfixturevalue(system)
    alg = getattr(alg, "algebra", alg)
    ops = BatchOps(alg)
    rng = np.random.default_rng(17)
    X, Y = rng.uniform(-1, 1, size=(2, 20, alg.dim))
    dX, dY = rng.uniform(-1, 1, size=(2, 20, 4, alg.dim))
    Z, dZ = ops.bch_tangent(X, dX, Y, dY)
    assert Z.tobytes() == ops.bch(X, Y).tobytes()
    h = 1e-5
    fwd = ops.bch(X[:, None] + h * dX, Y[:, None] + h * dY)
    bwd = ops.bch(X[:, None] - h * dX, Y[:, None] - h * dY)
    assert np.allclose(dZ, (fwd - bwd) / (2 * h), rtol=0, atol=1e-8)


@pytest.mark.parametrize("system", ["heis_am", "ex5_am"])
@pytest.mark.parametrize("cls", [PerturbedMap, ConjugatedMap])
def test_tangent_matches_stencil_jacobian(request, system, cls):
    F = cls(request.getfixturevalue(system), amplitude=0.05)
    rng = np.random.default_rng(19)
    X = rng.uniform(-1.5, 1.5, size=(6, F.algebra.dim))
    Y, J = F.tangent(X)
    assert np.allclose(Y, F.lift(X), rtol=0, atol=1e-14)
    for x, Jx in zip(X, J):
        assert np.allclose(Jx, jacobian(F, x), rtol=0, atol=1e-8)


# ---------------------------------------------------------------------------
# su split


def su_cases(heis_am, filiform3, filiform4):
    F = PerturbedMap(heis_am)
    B = np.hstack([F.splitting.stable, F.splitting.unstable])
    Bi = np.linalg.inv(B)
    yield BatchOps(heis_am.algebra), B[:, :1] @ Bi[:1], B[:, 1:] @ Bi[1:]
    # S along X1, U along the rest: here step - 2 iterations leave an
    # error of order 0.1, so the iteration count is tight
    for am in (filiform3, filiform4):
        d = am.algebra.dim
        Ps = np.diag(np.eye(d)[0])
        yield BatchOps(am.algebra), Ps, np.eye(d) - Ps


def test_su_split_is_exact(heis_am, filiform3, filiform4):
    rng = np.random.default_rng(23)
    for ops, Ps, Pu in su_cases(heis_am, filiform3, filiform4):
        W = rng.uniform(-1, 1, size=(200, ops.d))
        S, U = _su_split(ops, Ps, Pu, W)
        assert np.allclose(S @ Ps.T, S, rtol=0, atol=1e-14)
        assert np.allclose(U @ Pu.T, U, rtol=0, atol=1e-14)
        assert np.allclose(ops.bch(S, U), W, rtol=0, atol=1e-13)


# ---------------------------------------------------------------------------
# periodic orbits


def oracle_seeds(am, P):
    """The layered solve of Psi^P(x) = x * gamma, one partial seed at a time
    in Fraction arithmetic: t = M^{-1}(-C) + V(r / D) mod 1 per residue r."""
    a, amP, partial = am.algebra, am.power(P), [()]
    for sl, blk in zip(a.layer_slices, induced_blocks(amP)):
        M = blk - RatMatrix.identity(blk.n)
        Minv, (U, D, V) = M.inverse(), smith_normal_form(M)
        diag = [int(D[i, i]) for i in range(M.n)]
        hom = [V.matvec([Fraction(r, di) for r, di in zip(rs, diag)])
               for rs in product(*map(range, diag))]
        new = []
        for t in partial:
            x = from_second_kind(a, t + (Fraction(0),) * (a.dim - len(t)))
            c = to_second_kind(mul(inv(x), amP.apply(x)))[sl]
            base = Minv.matvec([-ci for ci in c])
            new += [t + tuple((b + h) % 1 for b, h in zip(base, hv)) for hv in hom]
        partial = new
    return np.array([[float(c) for c in t] for t in partial])


@pytest.mark.parametrize("system,periods", [
    ("heis_am", (1, 2, 3)), ("ex5_am", (1, 2, 3)),
    ("filiform3", (1, 3)), ("filiform4", (1,)),
])
def test_periodic_seeds_match_scalar_oracle(request, system, periods):
    am = request.getfixturevalue(system)
    for P in periods:
        T, expected = _psi_periodic_seeds(am, P)
        want = oracle_seeds(am, P)
        assert len(T) == expected == len(want)
        assert T.tobytes() == want.tobytes()


def test_step4_period3_seed_count(filiform4):
    # |det(psi_l^3 - I)| per layer: 14 * 9 * 65 * 513, too many seeds for
    # the scalar oracle
    T, expected = _psi_periodic_seeds(filiform4, 3)
    assert T.shape == (expected, 5) and expected == 4_201_470
    assert T.min() >= 0 and T.max() < 1


def test_periodic_orbits_once_each_by_prime_period(heis_am):
    F = PerturbedMap(heis_am, amplitude=0.01)
    orbits = periodic_orbits(F, 3, tol=1e-10)
    # Lefschetz counts 3, 165, 4977: 3 fixed points, 81 orbits of
    # period 2, 1658 of period 3
    assert [sum(r.period == P for r in orbits) for P in (1, 2, 3)] == [3, 81, 1658]
    assert [r.period for r in orbits] == sorted(r.period for r in orbits)
    starts = {tuple(np.round(p, 6)) for r in orbits for p in r.points}
    assert len(starts) == sum(r.period for r in orbits)


def test_fixed_points_unperturbed(heis_am):
    reports = periodic_points(PerturbedMap(heis_am), 1)
    assert sum(r.period for r in reports) == 3
    for r in reports:
        assert r.lambda_s == pytest.approx(LAMBDA_S, abs=1e-10)
        assert r.residual < 1e-10


def test_period_two_count_unperturbed(heis_am):
    reports = periodic_points(PerturbedMap(heis_am), 2)
    assert sum(r.period for r in reports) == 165


def test_torus_counts(doubling, cat_map):
    # |det(2I)^P - I| = (2^P - 1)^2 points of period dividing P
    for P, n in ((1, 1), (2, 9), (3, 49)):
        reports = periodic_points(PerturbedMap(doubling), P)
        assert sum(r.period for r in reports) == n
    # trace(A^P) - 2 for the invertible control
    for P, n in ((1, 1), (2, 5), (3, 16)):
        reports = periodic_points(PerturbedMap(cat_map), P)
        assert sum(r.period for r in reports) == n


def test_periodic_counts_persist_under_shear(heis_am):
    reports = periodic_points(PerturbedMap(heis_am, amplitude=0.01), 1)
    assert sum(r.period for r in reports) == 3
    # rigidity visibly broken: exponents leave the algebraic value
    assert all(abs(r.lambda_s - LAMBDA_S) > 1e-4 for r in reports)


def test_fixture_tolerance_keeps_every_orbit():
    defn = parse_system(fixture_path("heisenberg"))
    tol = defn.param("tol")
    assert tol == 1e-6
    reports = periodic_points(defn.build_map(), 3, tol=tol)
    assert sum(r.period for r in reports) == 4977


def test_missing_points_are_an_error(heis_am):
    with pytest.raises(ConvergenceError, match="expected 165"):
        periodic_points(PerturbedMap(heis_am, amplitude=0.01), 2,
                        max_newton=0)


def scalar_orbit_reports(succ, T, contr, rn):
    """The orbits of the permutation succ by a scalar walk from each
    unvisited index, sorted by period and rounded first point."""
    visited = np.zeros(len(succ), dtype=bool)
    reports = []
    for i in range(len(succ)):
        if visited[i]:
            continue
        cycle, j = [i], int(succ[i])
        visited[i] = True
        while j != i:
            visited[j] = True
            cycle.append(j)
            j = int(succ[j])
        idx = np.array(cycle)
        reports.append((len(cycle), T[idx], float(np.mean(contr[idx])),
                        float(np.max(rn[idx]))))
    reports.sort(key=lambda rep: (rep[0], tuple(np.round(rep[1][0], 9))))
    return reports


@pytest.mark.parametrize("system,amplitude,P,periods", [
    ("doubling", 0.0, 4, {1, 2, 4}),
    ("cat_map", 0.0, 6, {1, 2, 3, 6}),
    ("heis_am", 0.01, 4, {1, 2, 4}),
])
def test_orbit_assembly_matches_scalar_walk(request, monkeypatch, system,
                                            amplitude, P, periods):
    calls = []

    def spy(*args):
        calls.append(args)
        return _orbit_reports(*args)

    monkeypatch.setattr(dynlab, "_orbit_reports", spy)
    F = PerturbedMap(request.getfixturevalue(system), amplitude=amplitude)
    got = periodic_points(F, P)
    (succ, _, T, contr, rn), = calls
    want = scalar_orbit_reports(succ, T, contr, rn)
    assert {rep.period for rep in got} == periods
    assert len(got) == len(want)
    for rep, (p, pts, lam, res) in zip(got, want):
        assert rep.period == p
        assert rep.points.tobytes() == pts.tobytes()
        assert rep.lambda_s == lam and rep.residual == res


def test_orbit_assembly_rejects_a_longer_cycle():
    # a 4-cycle, a 2-cycle and a fixed point, walked with P = 3
    succ = np.array([1, 2, 3, 0, 5, 4, 6])
    T = np.zeros((7, 2))
    with pytest.raises(ConvergenceError, match="does not return 6 periodic"):
        _orbit_reports(succ, 3, T, np.zeros(7), np.zeros(7))
    assert [rep.period for rep in
            _orbit_reports(succ, 4, T, np.zeros(7), np.zeros(7))] == [1, 2, 4]


def test_orbit_csv_format(heis_am):
    reports = periodic_points(PerturbedMap(heis_am), 1)
    csv = orbits_to_csv(reports, 3)
    lines = csv.strip().splitlines()
    assert lines[0] == "period,t1,t2,t3,lambda_s,residual"
    assert len(lines) == 4


# ---------------------------------------------------------------------------
# stable directions


def test_stable_direction_matches_algebra(heis_am, heis):
    F = PerturbedMap(heis_am)
    ops = BatchOps(heis)
    x = np.array([0.31, 0.57, 0.13])
    e, contr = stable_direction(F, x)
    # algebraic stable direction, right-translated to the base point
    v = np.array([1.0, -(1 + math.sqrt(5)) / 2, 0.0])
    w = ops.right_translation_differential(x[None]) [0] @ v
    w /= np.linalg.norm(w)
    align = abs(float(e @ w))
    assert align == pytest.approx(1.0, abs=1e-8)
    assert contr == pytest.approx(3 - math.sqrt(5), abs=1e-8)


def test_stable_direction_on_torus(cat_map):
    F = PerturbedMap(cat_map)
    e, contr = stable_direction(F, np.array([0.2, 0.7]))
    # stable eigenvector of [[2,1],[1,1]]: (1, -phi), eigenvalue phi^-2
    v = np.array([1.0, -PHI])
    v /= np.linalg.norm(v)
    assert abs(float(e @ v)) == pytest.approx(1.0, abs=1e-8)
    assert contr == pytest.approx(PHI ** -2, abs=1e-8)


# ---------------------------------------------------------------------------
# conjugacy and rigidity


def test_conjugacy_trivial_at_zero_amplitude(heis_am):
    fld = solve_conjugacy(PerturbedMap(heis_am, amplitude=0.0), grid_n=5)
    assert fld.converged
    assert fld.residual == 0.0
    assert len(fld.history) == 1
    assert fld.sup_displacement == 0.0


def test_conjugacy_converges_for_small_shear(heis_am):
    F = PerturbedMap(heis_am, amplitude=0.01)
    fld = solve_conjugacy(F, grid_n=9, tol=1e-6)
    assert fld.converged
    assert fld.residual < 1e-6
    assert fld.sup_displacement <= 0.1
    residuals = [r for _, r, _ in fld.history]
    assert all(b < a for a, b in zip(residuals, residuals[1:]))
    csv = fld.to_csv()
    assert csv.splitlines()[0] == "iter,residual,sup_displacement"


def einsum_gather(interp, u):
    """The interpolation as a dense gather of the 2^d corners per query."""
    m = interp.matrix
    corners = m.indptr[1] - m.indptr[0]
    idx = m.indices.reshape(-1, corners)
    w = m.data.reshape(-1, corners)
    return np.einsum("qc,qcd->qd", w, u[idx])


@pytest.mark.parametrize("system,grid", [("heis_am", 9), ("ex5_am", 5)])
def test_interpolation_matches_einsum_gather(request, system, grid):
    F = PerturbedMap(request.getfixturevalue(system), amplitude=0.01)
    ops, d = F.ops, F.algebra.dim
    rng = np.random.default_rng(29)
    T = rng.uniform(0, 1, size=(400, d))
    # rows in the last cell of some axis wrap through a coordinate-1 face
    assert (np.floor(T * grid) == grid - 1).any(axis=1).sum() > 50
    interp = _EquivariantInterp(ops, grid, T)
    m = interp.matrix
    assert m.shape == (len(T), grid ** d)
    assert (np.diff(m.indptr) == 2 ** d).all()
    assert np.allclose(m.sum(axis=1), 1.0, rtol=0, atol=1e-14)
    # rows that do not wrap hold their cell's corners in corner order
    base = np.floor(T * grid).astype(int)
    inner = (base < grid - 1).all(axis=1)
    cells = base[inner][:, None] + np.array(list(product((0, 1), repeat=d)))
    want = np.ravel_multi_index(tuple(np.moveaxis(cells, -1, 0)), (grid,) * d)
    assert np.array_equal(m.indices.reshape(len(T), -1)[inner], want)
    u = rng.uniform(-1, 1, size=(grid ** d, d))
    assert interp.gather(u).tobytes() == einsum_gather(interp, u).tobytes()
    # on grid points the interpolation returns the grid values
    axes = [np.arange(grid) / grid] * d
    G = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    assert np.array_equal(_EquivariantInterp(ops, grid, G).gather(u), u)


def test_conjugacy_history_matches_einsum_gather(heis_am, monkeypatch):
    F = PerturbedMap(heis_am, amplitude=0.01)
    fld = solve_conjugacy(F, grid_n=9)
    monkeypatch.setattr(_EquivariantInterp, "gather", einsum_gather)
    ref = solve_conjugacy(F, grid_n=9)
    assert fld.history == ref.history
    assert fld.displacement.tobytes() == ref.displacement.tobytes()


def test_conjugacy_iteration_cap(heis_am):
    F = PerturbedMap(heis_am, amplitude=0.01)
    with pytest.raises(ConvergenceError) as exc:
        solve_conjugacy(F, grid_n=9, tol=1e-6, max_iter=2)
    assert exc.value.field is not None
    assert not exc.value.field.converged


def test_conjugacy_stops_at_a_non_finite_residual(heis_am):
    F = PerturbedMap(heis_am, amplitude=0.01)
    F.direction = np.array([np.nan, 0.0, 0.0])  # past the constructor's check
    with np.errstate(invalid="ignore"), pytest.raises(
            ConvergenceError, match="residual is nan at sweep 1") as exc:
        solve_conjugacy(F, grid_n=5)
    assert len(exc.value.field.history) == 1
    assert not exc.value.field.converged


def test_rigidity_conjugated_control(heis_am):
    F = ConjugatedMap(heis_am, amplitude=0.05)
    rep = rigidity_experiment(F, 2)
    assert rep.hypotheses_ok
    assert rep.spread < 1e-8
    assert rep.mean == pytest.approx(LAMBDA_S, abs=1e-8)


def test_rigidity_generic_shear_breaks(heis_am):
    rep = rigidity_experiment(PerturbedMap(heis_am, amplitude=0.01), 1)
    assert rep.spread + abs(rep.mean - LAMBDA_S) > 1e-4
    csv = rep.to_csv()
    assert csv.splitlines()[0] == "period,t1,t2,t3,lambda_s,residual"
