"""The benchmark's own tests: every output check passes on nilflow's real
output and fails on the same output with one deliberate fault.

    python3 -m pytest -q perfbench/test_checks.py

Outputs come from nilflow at small sizes (depth <= 2, period <= 2, a
17-point conjugacy grid), so the file runs in well under a minute.
"""

from __future__ import annotations

import math
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import nilflow  # noqa: E402
from nilflow.cli import parse_system  # noqa: E402

import checks  # noqa: E402
from reference import ShearMap, StepTwoSystem, covering_radius  # noqa: E402
from tracer import Tracer, per_layer_metrics  # noqa: E402
from worker import traced_count_checks  # noqa: E402

FIX = ROOT / "src" / "nilflow" / "fixtures"


@pytest.fixture(scope="module")
def heis():
    return StepTwoSystem(FIX / "heisenberg.json")


@pytest.fixture(scope="module")
def defn():
    return parse_system(FIX / "heisenberg.json")


@pytest.fixture(scope="module")
def base(defn):
    t = [Fraction(1, 3), Fraction(2, 5), Fraction(3, 7)]
    return nilflow.ManifoldPoint(nilflow.nilgroup.from_second_kind(defn.algebra, t))


@pytest.fixture(scope="module")
def fibres(defn, base):
    return [nilflow.preimages(defn.automap, base, k) for k in (1, 2)]


def rng():
    return random.Random(1)


# -- reference mathematics --------------------------------------------------

def test_reference_counts(heis):
    ex5 = StepTwoSystem(FIX / "example5d.json")
    assert heis.index() == 16 and ex5.index() == 8
    assert [heis.lefschetz(P) for P in range(1, 5)] == [3, 165, 4977, 126225]
    lam, v = heis.stable_eigen()
    assert lam == pytest.approx(3 - math.sqrt(5), abs=1e-15)
    assert np.allclose(heis.psi_float @ v, lam * v)


def test_reference_group_law_matches_nilflow(heis, defn):
    r = random.Random(3)
    alg = defn.algebra
    for _ in range(20):
        x, y = ([Fraction(r.randrange(-9, 10), r.randrange(1, 7)) for _ in range(3)]
                for _ in range(2))
        assert heis.mul(x, y) == alg.bch(tuple(x), tuple(y))
        assert heis.from_second_kind(x) == nilflow.nilgroup.from_second_kind(alg, x).coords
        p = nilflow.point(alg, heis.mul(x, y))
        assert heis.reduce_key(p.coords) == nilflow.nilgroup.reduce(p)[0].key()


def test_reference_radius_matches_nilflow(heis, fibres):
    pts = np.array([p.key() for p in fibres[1]], dtype=float)
    ours = covering_radius(heis, pts, 9)
    assert ours == pytest.approx(nilflow.covering_radius(fibres[1], grid_n=9), abs=1e-12)


# -- density checks ---------------------------------------------------------

def fibre_args(base, fibres, k):
    pts = fibres[k - 1]
    prev = {base.key()} if k == 1 else {p.key() for p in fibres[k - 2]}
    return [p.rep.coords for p in pts], [p.key() for p in pts], prev


@pytest.mark.parametrize("k", [1, 2])
def test_fibre_check(heis, base, fibres, k):
    coords, keys, prev = fibre_args(base, fibres, k)
    assert checks.check_fibre(heis, coords, keys, prev, k, rng(), sample=10**6) == []
    # a dropped fibre point
    assert checks.check_fibre(heis, coords[1:], keys[1:], prev, k, rng())
    # one coset listed twice
    assert checks.check_fibre(heis, coords[:-1] + coords[:1],
                              keys[:-1] + keys[:1], prev, k, rng())
    # one point that is not a preimage of the previous level
    bad = list(coords)
    bad[0] = (bad[0][0] + Fraction(1, 97),) + bad[0][1:]
    bad_keys = list(keys)
    bad_keys[0] = heis.to_second_kind(bad[0])
    assert checks.check_fibre(heis, bad, bad_keys, prev, k, rng(), sample=10**6)
    # a key that is not its representative's
    bad_keys = list(keys)
    bad_keys[0] = (keys[0][0] / 2,) + tuple(keys[0][1:])
    assert checks.check_fibre(heis, coords, bad_keys, prev, k, rng(), sample=10**6)


def test_radius_check(heis, fibres):
    levels = [np.array([p.key() for p in f], dtype=float) for f in fibres]
    radii = [nilflow.covering_radius(f, grid_n=9) for f in fibres]
    assert checks.check_radii(heis, radii, levels, 9, rng()) == []
    shifted = [radii[0], radii[1] + 1e-6]
    assert checks.check_radii(heis, shifted, levels, 9, rng())
    # deeper than exact_depth only a lower bound is checked: a radius far
    # below the node distances fails
    assert checks.check_radii(heis, radii, levels, 9, rng(), exact_depth=1) == []
    assert checks.check_radii(heis, [radii[0], radii[1] / 4], levels, 9, rng(),
                              exact_depth=1)


def test_decay_and_stall_checks():
    radii = [0.35, 0.17, 0.085, 0.043]
    ratios = [b / a for a, b in zip(radii, radii[1:])]
    assert checks.check_decay(radii, ratios, 0.5) == []
    assert checks.check_decay(radii, ratios, 1.01)
    assert checks.check_decay([0.35, 0.34, 0.17, 0.08],
                              [0.34 / 0.35, 0.5, 0.08 / 0.17], 0.6)
    assert checks.check_decay(radii, ratios[:-1] + [0.6], 0.5)
    stall = [0.73, 0.71, 0.71]
    assert checks.check_stall(stall) == []
    assert checks.check_stall(radii)
    assert checks.check_stall([0.73, 0.71, 0.29])


# -- dynamics checks --------------------------------------------------------

@pytest.fixture(scope="module")
def perturbed(defn, heis):
    F = defn.build_map()
    own = ShearMap(heis, heis.perturbation["amplitude"],
                   heis.perturbation["bump"], F.direction)
    return F, own


@pytest.mark.parametrize("P", [1, 2])
def test_periodic_check(heis, perturbed, P):
    F, own = perturbed
    orbits = [(r.period, r.points, r.residual)
              for r in nilflow.periodic_points(F, P, tol=1e-10)]
    assert checks.check_periodic(heis, own, P, orbits, 1e-10, rng(), sample=10**6) == []
    # one periodic point missing
    assert checks.check_periodic(heis, own, P, orbits[1:], 1e-10, rng())
    # one point moved off its orbit
    period, pts, res = orbits[0]
    moved = pts.copy()
    moved[0, 0] = (moved[0, 0] + 1e-6) % 1.0
    assert checks.check_periodic(heis, own, P, [(period, moved, res)] + orbits[1:],
                                 1e-10, rng(), sample=10**6)
    # the same orbit twice in place of another
    if len(orbits) > 1:
        assert checks.check_periodic(heis, own, P, orbits[:-1] + orbits[:1],
                                     1e-10, rng())


def test_rigidity_check(heis, defn):
    C = defn.build_map(amplitude=0.05, conjugated=True)
    rr = nilflow.rigidity_experiment(C, 2)
    args = (heis, 2, rr.periods, rr.exponents, rr.algebraic_exponent)
    assert checks.check_rigidity(*args) == []
    off = list(rr.exponents)
    off[0] += 1e-2
    assert checks.check_rigidity(heis, 2, rr.periods, off, rr.algebraic_exponent)
    assert checks.check_rigidity(heis, 2, rr.periods[1:], rr.exponents[1:],
                                 rr.algebraic_exponent)
    shifted = [e + 2e-3 for e in rr.exponents]
    assert checks.check_rigidity(heis, 2, rr.periods, shifted, rr.algebraic_exponent)


def test_conjugacy_check(heis, perturbed):
    F, _ = perturbed
    fld = nilflow.solve_conjugacy(F, grid_n=17, tol=1e-6)
    ok = (heis, fld.history, fld.residual, fld.sup_displacement, 1e-6, 0.01)
    assert checks.check_conjugacy(*ok) == []
    assert checks.check_conjugacy(heis, fld.history, fld.residual,
                                  fld.sup_displacement, fld.residual / 2, 0.01)
    assert checks.check_conjugacy(heis, fld.history, fld.residual,
                                  fld.sup_displacement, 1e-6, 0.001)
    slow = [(i, r * 0.9 ** -i, s) for i, r, s in fld.history]
    assert checks.check_conjugacy(heis, slow, slow[-1][1], fld.sup_displacement,
                                  1.0, 0.01)


# -- tracing ----------------------------------------------------------------

def test_tracer_spans_and_traced_counts(defn, base):
    originals = (nilflow.nilgroup.reduce, nilflow.density.reduce,
                 nilflow.density_experiment, nilflow.fastops.CoveringRadius.__call__)
    tracer = Tracer()
    tracer.install()
    lo = len(tracer)
    rep = nilflow.density_experiment(defn.automap, base, 2, grid_n=5)
    tracer.remove()
    assert (nilflow.nilgroup.reduce, nilflow.density.reduce,
            nilflow.density_experiment,
            nilflow.fastops.CoveringRadius.__call__) == originals
    spans = tracer.arrays()
    assert np.all(spans["self"] >= -1e-9)
    m = per_layer_metrics(spans, (0, lo), (lo, len(tracer)), import_s=0.5,
                          pair_factor=125 * 9, seeds=0)
    assert m["density.points_enumerated"]["value"] == 16 + 256 == sum(rep.counts)
    assert m["nilgroup.reduce_calls"]["value"] == 16 + 256
    inputs = {"points": 16 + 256, "seeds": 0}
    assert traced_count_checks(m, inputs) == []
    assert traced_count_checks(m, {"points": 16 + 255, "seeds": 0})


# -- the harness itself -------------------------------------------------------

def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "density-heis", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
