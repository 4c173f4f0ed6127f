"""The benchmark's workloads: inputs made from a seed, one round of calls
into nilflow's public API, and the checks of each round's outputs.

A round is the unit of timing: one fresh process makes the workload's calls
once.  Every round of a run makes the same calls on the same inputs; its
operations are counted in `ops`.  Only the standard
library is imported here at module level, so that a run's set-up time
measures nilflow's own imports.
"""

from __future__ import annotations

import random
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "nilflow" / "fixtures"


def _timed(fn, *args, **kwargs):
    """(seconds, result, failed): a raising call is a failed operation."""
    t = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - t, None, True
    return time.perf_counter() - t, out, False


class Density:
    """density_experiment from a seeded exact base point.  One operation is
    one fibre level with its covering radius."""

    def __init__(self, name, fixture, k_max, grid_n, decays):
        self.name, self.fixture = name, fixture
        self.k_max, self.grid_n, self.decays = k_max, grid_n, decays
        self.ops = k_max
        self.search_radius = 1

    def setup(self, nilflow, seed):
        """Program set-up: parse the fixture (which builds the AutoMap) and
        the exact base point.  The seed picks each second-kind coordinate
        p/7, 1 <= p <= 6: one denominator for every seed keeps the size of
        the exact numbers, and so the cost of the fibre, the same."""
        defn = nilflow.cli.parse_system(FIXTURES / self.fixture)
        rng = random.Random(seed)
        t = [Fraction(rng.randrange(1, 7), 7) for _ in range(defn.dimension)]
        rep = nilflow.nilgroup.from_second_kind(defn.algebra, t, exact=True)
        self.defn, self.base = defn, nilflow.ManifoldPoint(rep)

    def prepare_checks(self, nilflow, seed):
        """Reference system, and a hook that keeps the fibre each level hands
        to the covering radius, so the checks see the exact points."""
        from reference import StepTwoSystem
        self.system = StepTwoSystem(FIXTURES / self.fixture)
        self.rng = random.Random(seed ^ 0x5EED)
        self.base_key = self.system.to_second_kind(self.base.rep.coords)
        self.captured, self.levels_sk = [], []
        density = nilflow.density
        convert = density.points_to_second_kind_array

        def capture(points):
            self.captured.append(points)
            return convert(points)

        density.points_to_second_kind_array = capture

    def run_round(self, nilflow):
        dt, report, failed = _timed(
            nilflow.density_experiment, self.defn.automap, self.base,
            self.k_max, grid_n=self.grid_n, search_radius=self.search_radius,
            threads=1)
        return dt, self.ops if failed else 0, report

    def check_round(self, nilflow, report):
        import numpy as np
        from checks import check_decay, check_fibre, check_stall
        if report is None:
            return []
        levels = self.captured
        if len(levels) != self.k_max or not all(
                isinstance(x, list) and isinstance(x[0], nilflow.ManifoldPoint)
                for x in levels):
            # the program no longer hands exact fibres to the radius: ask
            # the public enumerator
            levels = [nilflow.preimages(self.defn.automap, self.base, k)
                      for k in range(1, self.k_max + 1)]
        fails = []
        want = [self.system.index() ** k for k in range(1, self.k_max + 1)]
        if list(report.counts) != want:
            fails.append(f"counts {report.counts}, expected {want}")
        prev, self.levels_sk = {self.base_key}, []
        for k, pts in enumerate(levels, start=1):
            keys = [p.key() for p in pts]
            fails += check_fibre(self.system, [p.rep.coords for p in pts],
                                 keys, prev, k, self.rng)
            prev = set(keys)
            self.levels_sk.append(np.array(keys, dtype=float))
        self.radii = list(report.radii)
        if self.decays:
            fails += check_decay(self.radii, list(report.ratios), report.fitted_mu)
        else:
            fails += check_stall(self.radii)
        return fails

    def digest(self, report):
        return None if report is None else [list(report.counts), list(report.radii)]

    def final_checks(self):
        from checks import check_radii
        if not self.levels_sk:
            return []
        return check_radii(self.system, self.radii, self.levels_sk, self.grid_n,
                           self.rng, exact_depth=2, R=self.search_radius)

    def layer_inputs(self):
        dim, d1 = self.defn.dimension, self.defn.algebra.layer_dims[0]
        return {"pair_factor": self.grid_n ** dim * (2 * self.search_radius + 1) ** d1,
                "points": sum(self.system.index() ** k for k in range(1, self.k_max + 1)),
                "seeds": 0}


class Dynamics:
    """The float layer on the Heisenberg fixture map.  Operations: one
    periodic_points call per period, one rigidity run, one conjugacy solve."""

    P_MAX = 4
    TOL = 1e-10              # Newton tolerance for the periodic search
    CONTROL_AMPLITUDE = 0.05
    CONJUGACY_GRID = 49
    CONJUGACY_TOL = 1e-6

    def __init__(self, name, fixture):
        self.name, self.fixture = name, fixture
        self.ops = self.P_MAX + 2

    def setup(self, nilflow, seed):
        """Program set-up: parse the fixture and build the perturbed map (the
        fixture's amplitude) and the conjugated control.  The seed picks the
        sign of each map's bump."""
        import numpy as np
        defn = nilflow.cli.parse_system(FIXTURES / self.fixture)
        rng = random.Random(seed)
        self.signs = (rng.choice((1, -1)), rng.choice((1, -1)))
        d1 = defn.algebra.layer_dims[0]
        self.amplitude = defn.perturbation["amplitude"]

        def bump(sign):
            return nilflow.Bump([(np.array(k), sign * c)
                                 for k, c in defn.perturbation["bump"]], d1)

        self.F = nilflow.PerturbedMap(defn.automap, amplitude=self.amplitude,
                                      bump=bump(self.signs[0]))
        self.C = nilflow.ConjugatedMap(defn.automap,
                                       amplitude=self.CONTROL_AMPLITUDE,
                                       bump=bump(self.signs[1]))

    def prepare_checks(self, nilflow, seed):
        """Reference system and the benchmark's own copy of the perturbed
        map; the map's direction must be the closed-form stable vector."""
        import numpy as np
        from reference import ShearMap, StepTwoSystem
        self.system = s = StepTwoSystem(FIXTURES / self.fixture)
        self.rng = random.Random(seed ^ 0x5EED)
        _, v = s.stable_eigen()
        self.setup_fails = []
        if min(np.abs(self.F.direction - v).max(),
               np.abs(self.F.direction + v).max()) > 1e-9:
            self.setup_fails.append(
                f"map direction {self.F.direction} is not +-{v}")
        terms = [(k, self.signs[0] * c) for k, c in s.perturbation["bump"]]
        self.fmap = ShearMap(s, s.perturbation["amplitude"], terms,
                             self.F.direction)

    def run_round(self, nilflow):
        total, failed, out = 0.0, 0, {}
        for P in range(1, self.P_MAX + 1):
            dt, out[P], bad = _timed(nilflow.periodic_points, self.F, P,
                                     tol=self.TOL)
            total, failed = total + dt, failed + bad
        dt, out["rigidity"], bad = _timed(nilflow.rigidity_experiment, self.C,
                                          self.P_MAX, tol=self.TOL)
        total, failed = total + dt, failed + bad
        dt, out["conjugacy"], bad = _timed(
            nilflow.solve_conjugacy, self.F, grid_n=self.CONJUGACY_GRID,
            tol=self.CONJUGACY_TOL)
        return total + dt, failed + bad, out

    def check_round(self, nilflow, out):
        from checks import check_conjugacy, check_periodic, check_rigidity
        fails = list(self.setup_fails)
        for P in range(1, self.P_MAX + 1):
            if out[P] is not None:
                orbits = [(r.period, r.points, r.residual) for r in out[P]]
                fails += check_periodic(self.system, self.fmap, P, orbits,
                                        self.TOL, self.rng)
        rr = out["rigidity"]
        if rr is not None:
            fails += check_rigidity(self.system, self.P_MAX, rr.periods,
                                    rr.exponents, rr.algebraic_exponent)
        fld = out["conjugacy"]
        if fld is not None:
            fails += check_conjugacy(self.system, fld.history, fld.residual,
                                     fld.sup_displacement, self.CONJUGACY_TOL,
                                     self.amplitude)
        return fails

    def digest(self, out):
        return {
            "periodic": [None if out[P] is None else sum(r.period for r in out[P])
                         for P in range(1, self.P_MAX + 1)],
            "rigidity": None if out["rigidity"] is None else
            [len(out["rigidity"].periods), out["rigidity"].spread],
            "conjugacy": None if out["conjugacy"] is None else
            [len(out["conjugacy"].history), out["conjugacy"].residual],
        }

    def final_checks(self):
        return []

    def layer_inputs(self):
        return {"pair_factor": 0, "points": 0,
                "seeds": sum(self.system.lefschetz(P)
                             for P in range(1, self.P_MAX + 1))}


# Why each workload: see README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Density("density-heis", "heisenberg.json", k_max=4, grid_n=17, decays=True),
    Density("density-ex5", "example5d.json", k_max=3, grid_n=5, decays=False),
    Dynamics("dynamics-heis", "heisenberg.json"),
)}
