"""nilflow: exact and numerical toolkit for nilmanifold endomorphisms."""

__version__ = "0.1.0"

from .ratcore import RatMatrix, RatPoly, smith_normal_form
from .liealg import LieAlgebra
from .nilgroup import GroupPoint, ManifoldPoint, point
from .endo import (
    AutoMap,
    hyperbolic_splitting,
    induced_blocks,
    is_horizontally_irreducible,
    is_hyperbolic,
    is_totally_non_invertible,
    preserves_lattice,
    is_u_ideal,
    stable_exponent,
)
from .density import DensityReport, covering_radius, density_experiment, preimages
from .dynlab import (
    Bump,
    ConjugacyField,
    ConjugatedMap,
    ConvergenceError,
    DynlabError,
    HypothesisError,
    PerturbedMap,
    PeriodicOrbitReport,
    RigidityReport,
    jacobian,
    orbits_to_csv,
    periodic_orbits,
    periodic_points,
    rigidity_experiment,
    solve_conjugacy,
    stable_direction,
)

__all__ = [
    "AutoMap",
    "Bump",
    "ConjugacyField",
    "ConjugatedMap",
    "ConvergenceError",
    "DensityReport",
    "DynlabError",
    "GroupPoint",
    "HypothesisError",
    "LieAlgebra",
    "ManifoldPoint",
    "PerturbedMap",
    "PeriodicOrbitReport",
    "RatMatrix",
    "RatPoly",
    "RigidityReport",
    "covering_radius",
    "density_experiment",
    "hyperbolic_splitting",
    "induced_blocks",
    "is_horizontally_irreducible",
    "is_hyperbolic",
    "is_totally_non_invertible",
    "jacobian",
    "orbits_to_csv",
    "periodic_orbits",
    "periodic_points",
    "point",
    "preimages",
    "preserves_lattice",
    "rigidity_experiment",
    "smith_normal_form",
    "solve_conjugacy",
    "stable_direction",
    "stable_exponent",
    "is_u_ideal",
]
