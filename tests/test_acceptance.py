"""Acceptance gate: ten fixture-anchored criteria, one pass/fail line each.

Every criterion prints a single summary line (visible under pytest -s);
the assertions encode the stated tolerances verbatim.
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from nilflow.density import density_experiment, preimages
from nilflow.dynlab import (
    ConjugatedMap,
    PerturbedMap,
    periodic_points,
    rigidity_experiment,
    solve_conjugacy,
    stable_direction,
)
from nilflow.endo import (
    AutoMap,
    check_eigenvalue_product_law,
    eigenvalues,
    hyperbolic_splitting,
    is_horizontally_irreducible,
    is_hyperbolic,
    is_totally_non_invertible,
    is_u_ideal,
    stable_exponent,
)
from nilflow.fastops import BatchOps
from nilflow.liealg import abelian
from nilflow.nilgroup import (
    ManifoldPoint,
    from_second_kind,
    identity,
    in_lattice,
    inv,
    mul,
    point,
    reduce,
    to_second_kind,
)
from nilflow.ratcore import RatMatrix
from tests.conftest import rand_rationals, stable_subspace_angle

LAMBDA_S = math.log(3 - math.sqrt(5))
SQRT5 = math.sqrt(5)


def report(n, detail):
    print(f"criterion {n}: PASS ({detail})")


def test_criterion_01_heisenberg_analysis(heis_am):
    t0 = time.monotonic()
    assert is_hyperbolic(heis_am)
    assert is_totally_non_invertible(heis_am)
    assert is_horizontally_irreducible(heis_am)
    assert is_u_ideal(heis_am)
    split = hyperbolic_splitting(heis_am)
    assert split.stable_dim == 1
    lam = stable_exponent(heis_am)
    assert abs(lam - LAMBDA_S) < 1e-9
    assert abs((3 + SQRT5) * (3 - SQRT5) - 4.0) < 1e-9
    assert check_eigenvalue_product_law(heis_am)
    dt = time.monotonic() - t0
    assert dt < 1.0
    report(1, f"all four predicates, stable dim 1, "
              f"lambda_s err {abs(lam - LAMBDA_S):.1e}, {dt:.2f}s")


def test_criterion_02_example5d_spectrum(ex5_am):
    t0 = time.monotonic()
    got = sorted(ev.real for ev in eigenvalues(ex5_am))
    want = sorted([2.0, (3 - SQRT5) / 2, (3 + SQRT5) / 2,
                   3 - SQRT5, 3 + SQRT5])
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-9

    alpha = (SQRT5 - 1) / 2
    split = hyperbolic_splitting(ex5_am)
    ns = np.array([[0, 0], [-alpha, 0], [1, 0], [0, -alpha], [0, 1]],
                  dtype=float)
    nu = np.array([[1, 0, 0], [0, 1, 0], [0, alpha, 0], [0, 0, 1],
                   [0, 0, alpha]], dtype=float)
    ang_s = stable_subspace_angle(split, ns)
    ang_u = float(np.max(subspace_angles(split.unstable, nu)))
    assert ang_s < 1e-6 and ang_u < 1e-6
    assert not is_u_ideal(ex5_am)
    assert not is_totally_non_invertible(ex5_am)
    dt = time.monotonic() - t0
    assert dt < 1.0
    report(2, f"spectrum matched, splitting angles {ang_s:.1e}/{ang_u:.1e}, "
              f"{dt:.2f}s")


def test_criterion_03_density_torus_doubling():
    t0 = time.monotonic()
    torus = abelian(2)
    am = AutoMap(torus, RatMatrix([[2, 0], [0, 2]]))
    base = ManifoldPoint(identity(torus))
    rep = density_experiment(am, base, 6, grid_n=257)
    assert rep.counts == [4 ** k for k in range(1, 7)]
    worst = 0.0
    for k, r in zip(rep.ks, rep.radii):
        law = math.sqrt(2) / 2 * 2.0 ** -k
        worst = max(worst, abs(r / law - 1.0))
        assert abs(r / law - 1.0) < 0.05
    assert 0.48 <= rep.fitted_mu <= 0.52
    dt = time.monotonic() - t0
    assert dt < 30.0
    report(3, f"counts 4^k exact, radius within {100 * worst:.2f}% of law, "
              f"fitted {rep.fitted_mu:.3f}, {dt:.1f}s")


def test_criterion_04_density_heisenberg(heis_am):
    t0 = time.monotonic()
    base = ManifoldPoint(identity(heis_am.algebra))
    rep = density_experiment(heis_am, base, 4)
    assert rep.counts == [16 ** k for k in range(1, 5)]

    # every enumerated point forward-maps to the base point exactly:
    # one exact application per point, chained down the levels
    prev = {base}
    for k in range(1, 5):
        fiber = preimages(heis_am, base, k)
        assert len(set(fiber)) == 16 ** k
        for p in fiber:
            q, _ = reduce(heis_am.apply(p.rep))
            assert q in prev
        prev = set(fiber)

    assert all(b < a for a, b in zip(rep.radii, rep.radii[1:]))
    ratios = [rep.radii[i + 1] / rep.radii[i] for i in range(3)]
    assert all(r <= 0.8 for r in ratios[1:])  # k >= 2
    assert rep.fitted_mu < 1.0
    dt = time.monotonic() - t0
    assert dt < 60.0
    report(4, f"counts 16^k exact, all points verified, ratios "
              f"{[f'{r:.2f}' for r in ratios]}, fitted {rep.fitted_mu:.3f}, "
              f"{dt:.1f}s")


def test_criterion_05_density_negative_controls(ex5_am):
    t0 = time.monotonic()
    torus = abelian(2)
    cat = AutoMap(torus, RatMatrix([[2, 1], [1, 1]]))
    base = ManifoldPoint(identity(torus))
    rep = density_experiment(cat, base, 4)
    assert rep.counts == [1, 1, 1, 1]
    assert max(rep.radii) - min(rep.radii) < 1e-12

    base5 = ManifoldPoint(identity(ex5_am.algebra))
    rep5 = density_experiment(ex5_am, base5, 4, grid_n=5)
    assert min(rep5.radii) > 0.3  # bounded below: no density
    assert rep5.radii[-1] / rep5.radii[0] > 0.9  # no geometric decay
    dt = time.monotonic() - t0
    report(5, f"invertible control radius constant {rep.radii[0]:.3f}, "
              f"5-dim radii stall at {min(rep5.radii):.3f}, {dt:.1f}s")


def test_criterion_06_group_law_exactness(heis, ex5):
    t0 = time.monotonic()
    rng = np.random.default_rng(2026)
    for g in (heis, ex5):
        e = identity(g)
        for _ in range(1000):
            x = point(g, rand_rationals(rng, g.dim))
            y = point(g, rand_rationals(rng, g.dim))
            z = point(g, rand_rationals(rng, g.dim))
            assert mul(mul(x, y), z).coords == mul(x, mul(y, z)).coords
            assert mul(x, inv(x)).coords == e.coords
            assert from_second_kind(g, to_second_kind(x)).coords == x.coords
    dt = time.monotonic() - t0
    report(6, f"2000 triples: associativity, inverse, round trip exact, "
              f"{dt:.1f}s")


def test_criterion_07_lattice_reduction(heis, ex5):
    t0 = time.monotonic()
    rng = np.random.default_rng(2027)
    for g in (heis, ex5):
        for _ in range(1000):
            x = point(g, rand_rationals(rng, g.dim, span=9))
            r, gamma = reduce(x)
            assert all(0 <= c < 1 for c in to_second_kind(r.rep))
            assert in_lattice(gamma)
            assert mul(x, gamma).coords == r.rep.coords
    dt = time.monotonic() - t0
    report(7, f"2000 points reduced to [0,1)^d with exact witnesses, "
              f"{dt:.1f}s")


def test_criterion_08_unperturbed_periodic_exponents(heis_am):
    t0 = time.monotonic()
    F = PerturbedMap(heis_am)
    counts = {1: 3, 2: 165, 3: 4977, 4: 126225}
    worst = 0.0
    for P, want in counts.items():
        reports = periodic_points(F, P)
        assert sum(r.period for r in reports) == want
        for r in reports:
            worst = max(worst, abs(r.lambda_s - LAMBDA_S))
    assert worst < 1e-9

    ops = BatchOps(heis_am.algebra)
    v = np.array([1.0, -(1 + SQRT5) / 2, 0.0])
    rng = np.random.default_rng(7)
    worst_dir = 0.0
    for x in rng.uniform(0, 1, size=(5, 3)):
        e, _ = stable_direction(F, x)
        w = ops.right_translation_differential(x[None])[0] @ v
        w /= np.linalg.norm(w)
        worst_dir = max(worst_dir, float(np.linalg.norm(
            e - w * np.sign(e @ w))))
    assert worst_dir < 1e-6
    dt = time.monotonic() - t0
    report(8, f"exponent err {worst:.1e} over periods 1..4, stable "
              f"direction err {worst_dir:.1e}, {dt:.1f}s")


def test_criterion_09_conjugacy_solver(heis_am):
    t0 = time.monotonic()
    F = PerturbedMap(heis_am, amplitude=0.01)
    fld = solve_conjugacy(F, grid_n=17, tol=1e-6, max_iter=500)
    assert fld.converged
    assert fld.residual < 1e-6
    assert len(fld.history) <= 500
    assert fld.sup_displacement <= 10 * 0.01

    F0 = PerturbedMap(heis_am, amplitude=0.0)
    fld0 = solve_conjugacy(F0, grid_n=17, tol=1e-6)
    assert fld0.residual == 0.0
    assert len(fld0.history) == 1
    dt = time.monotonic() - t0
    assert dt < 120.0
    report(9, f"residual {fld.residual:.1e} in {len(fld.history)} sweeps, "
              f"sup displacement {fld.sup_displacement:.4f} <= 0.1, eps=0 "
              f"exact in one sweep, {dt:.1f}s")


def test_criterion_10_rigidity_dichotomy(heis_am):
    t0 = time.monotonic()
    G = ConjugatedMap(heis_am, amplitude=0.05)
    rep = rigidity_experiment(G, 3)
    assert rep.spread < 1e-3
    assert abs(rep.mean - LAMBDA_S) < 1e-3

    shear = rigidity_experiment(PerturbedMap(heis_am, amplitude=0.05), 3)
    dt = time.monotonic() - t0
    report(10, f"conjugated control spread {rep.spread:.1e}, mean err "
               f"{abs(rep.mean - LAMBDA_S):.1e}; generic shear spread "
               f"{shear.spread:.3e} (reported, not asserted), {dt:.1f}s")
