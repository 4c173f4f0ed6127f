"""Command-line front end.

Subcommands:

    nilflow analyze  <file>
    nilflow density  <file> --k-max N --grid G
    nilflow dynamics <file> periodic  --period-max P
    nilflow dynamics <file> conjugacy --eps E --grid G --tol T
    nilflow dynamics <file> rigidity  --period-max P

System definition files are JSON with exact rationals written as strings
("p/q" or "n"); see ``parse_system`` for the schema.  Exit codes: 0 on
success, 1 on usage errors, 2 on parse or validation failures, 3 on
numerical non-convergence, 4 when the map fails a dynamics experiment's
hypotheses (a linear part that is not hyperbolic, a perturbation beyond
the Anosov budget, periodic points that are not isolated) or another of
its checks.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .density import BudgetError, density_experiment
from .dynlab import (
    Bump,
    ConjugatedMap,
    ConvergenceError,
    DynlabError,
    PerturbedMap,
    orbits_to_csv,
    periodic_orbits,
    rigidity_experiment,
    solve_conjugacy,
)
from .endo import (
    AutoMap,
    EndoError,
    IndeterminateModulusError,
    check_eigenvalue_product_law,
    hyperbolic_splitting,
    induced_blocks,
    is_horizontally_irreducible,
    is_hyperbolic,
    is_totally_non_invertible,
    is_u_ideal,
    preserves_lattice,
    stable_exponent,
)
from .liealg import AlgebraError, LieAlgebra, from_sparse_triples
from .nilgroup import ManifoldPoint, identity
from .ratcore import RatMatrix, RatPoly, char_poly, factor_over_Q, rat_str

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_HYPOTHESIS = 4

_EXPERIMENT_KEYS = {"k_max", "grid_n", "p_max", "tol", "max_iter",
                    "search_radius"}
_PERTURBATION_KEYS = {"amplitude", "direction", "bump"}


class SystemParseError(ValueError):
    """Located diagnostic for a bad system definition file."""


class UsageError(Exception):
    """Bad command line; carries the argparse message."""


# ---------------------------------------------------------------------------
# system definition files


def fixture_path(name: str) -> Path:
    """Path to a packaged example system definition, e.g. 'heisenberg'."""
    if not name.endswith(".json"):
        name += ".json"
    p = Path(__file__).parent / "fixtures" / name
    if not p.exists():
        raise FileNotFoundError(f"no packaged fixture named {name!r}")
    return p


@dataclass
class SystemDefinition:
    """Parsed, validated content of a system definition file.

    Exact data (structure constants, automorphism entries) is kept as
    Fractions; the algebra and automorphism objects are built eagerly so
    that every file-level invariant has already been checked.
    """

    name: str
    dimension: int
    algebra: LieAlgebra
    automap: AutoMap
    perturbation: dict = field(default_factory=dict)
    experiment: dict = field(default_factory=dict)

    def param(self, key, default=None):
        return self.experiment.get(key, default)

    def build_map(self, amplitude=None, conjugated: bool = False):
        """Instantiate the perturbed dynamics described by the file.

        amplitude overrides the file's value when given; conjugated=True
        builds the explicitly conjugated control instead of the generic
        shear.
        """
        p = self.perturbation
        amp = p.get("amplitude", 0.0) if amplitude is None else amplitude
        direction = p.get("direction")
        if direction is not None:
            direction = np.array([float(v) for v in direction])
        bump = None
        if p.get("bump"):
            d1 = self.algebra.layer_dims[0]
            bump = Bump([(np.array(k, dtype=float), float(c))
                         for k, c in p["bump"]], d1)
        cls = ConjugatedMap if conjugated else PerturbedMap
        return cls(self.automap, amplitude=float(amp), direction=direction,
                   bump=bump)


def _expect(cond: bool, path: str, why: str):
    if not cond:
        raise SystemParseError(f"schema violation at {path}: {why}")


def _exact(value, path: str) -> Fraction:
    """Exact rational from a JSON value: an int or a 'p/q' string."""
    if isinstance(value, bool):
        raise SystemParseError(f"schema violation at {path}: expected a "
                               "rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as e:
            raise SystemParseError(
                f"schema violation at {path}: not a rational: {value!r}") from e
    raise SystemParseError(
        f"schema violation at {path}: exact rationals must be integers or "
        f"'p/q' strings, got {type(value).__name__} (floats are not exact)")


def _parse_obj(obj, source: str) -> SystemDefinition:
    _expect(isinstance(obj, dict), "$", "top level must be an object")

    name = obj.get("name")
    _expect(isinstance(name, str) and name != "", "name",
            "a nonempty string is required")
    dim = obj.get("dimension")
    _expect(isinstance(dim, int) and not isinstance(dim, bool) and dim >= 1,
            "dimension", "a positive integer is required")

    unknown = set(obj) - {"name", "dimension", "structure_constants",
                          "automorphism", "perturbation", "experiment"}
    _expect(not unknown, sorted(unknown)[0] if unknown else "$",
            "unknown field")

    raw_sc = obj.get("structure_constants", [])
    _expect(isinstance(raw_sc, list), "structure_constants",
            "a list of [i, j, k, value] quadruples is required")
    entries = []
    for n, quad in enumerate(raw_sc):
        path = f"structure_constants[{n}]"
        _expect(isinstance(quad, list) and len(quad) == 4, path,
                "each entry is [i, j, k, value]")
        idx = []
        for m in range(3):
            v = quad[m]
            _expect(isinstance(v, int) and not isinstance(v, bool)
                    and 1 <= v <= dim, f"{path}[{m}]",
                    f"a basis index in 1..{dim} is required")
            idx.append(v)
        entries.append((*idx, _exact(quad[3], f"{path}[3]")))
    try:
        algebra = from_sparse_triples(dim, entries)
    except AlgebraError as e:
        raise SystemParseError(f"{source}: structure constants invalid: {e}") from e

    raw_m = obj.get("automorphism")
    _expect(isinstance(raw_m, list) and len(raw_m) == dim, "automorphism",
            f"a {dim}x{dim} matrix (list of {dim} rows) is required")
    rows = []
    for i, row in enumerate(raw_m):
        _expect(isinstance(row, list) and len(row) == dim,
                f"automorphism[{i}]", f"a row of {dim} entries is required")
        rows.append([_exact(v, f"automorphism[{i}][{j}]")
                     for j, v in enumerate(row)])
    try:
        automap = AutoMap(algebra, RatMatrix(rows))
    except EndoError as e:
        raise SystemParseError(f"{source}: automorphism invalid: {e}") from e

    perturbation = _parse_perturbation(obj.get("perturbation"), dim,
                                       algebra.layer_dims[0])
    experiment = _parse_experiment(obj.get("experiment"))

    return SystemDefinition(name=name, dimension=dim, algebra=algebra,
                            automap=automap, perturbation=perturbation,
                            experiment=experiment)


def _parse_perturbation(p, dim: int, d1: int) -> dict:
    if p is None:
        return {}
    _expect(isinstance(p, dict), "perturbation", "an object is required")
    unknown = set(p) - _PERTURBATION_KEYS
    _expect(not unknown,
            f"perturbation.{sorted(unknown)[0]}" if unknown else "perturbation",
            "unknown field")
    out = {}
    if "amplitude" in p:
        v = p["amplitude"]
        _expect(isinstance(v, (int, float)) and not isinstance(v, bool)
                and math.isfinite(v) and v >= 0, "perturbation.amplitude",
                "a finite nonnegative number is required")
        out["amplitude"] = float(v)
    if p.get("direction") is not None:
        v = p["direction"]
        _expect(isinstance(v, list) and len(v) == dim,
                "perturbation.direction", f"a vector of {dim} numbers is "
                "required")
        out["direction"] = [float(_exact(c, f"perturbation.direction[{j}]"))
                            if not isinstance(c, float) else c
                            for j, c in enumerate(v)]
        _expect(all(map(math.isfinite, out["direction"]))
                and any(out["direction"]), "perturbation.direction",
                "a finite nonzero vector is required")
    if p.get("bump") is not None:
        terms = p["bump"]
        _expect(isinstance(terms, list) and terms, "perturbation.bump",
                "a nonempty list of [frequency, coefficient] pairs is "
                "required")
        parsed = []
        for n, t in enumerate(terms):
            path = f"perturbation.bump[{n}]"
            _expect(isinstance(t, list) and len(t) == 2, path,
                    "each term is [frequency vector, coefficient]")
            k, c = t
            _expect(isinstance(k, list) and len(k) == d1
                    and all(isinstance(x, int) and not isinstance(x, bool)
                            for x in k)
                    and any(k), f"{path}[0]", f"a nonzero horizontal "
                    f"integer frequency of length {d1} is required")
            _expect(isinstance(c, (int, float)) and not isinstance(c, bool)
                    and math.isfinite(c), f"{path}[1]",
                    "a finite numeric coefficient is required")
            parsed.append([list(k), float(c)])
        out["bump"] = parsed
    return out


def _parse_experiment(e) -> dict:
    if e is None:
        return {}
    _expect(isinstance(e, dict), "experiment", "an object is required")
    unknown = set(e) - _EXPERIMENT_KEYS
    _expect(not unknown,
            f"experiment.{sorted(unknown)[0]}" if unknown else "experiment",
            "unknown field")
    out = {}
    for key in ("k_max", "grid_n", "p_max", "max_iter", "search_radius"):
        if key in e:
            v = e[key]
            _expect(isinstance(v, int) and not isinstance(v, bool) and v >= 1,
                    f"experiment.{key}", "a positive integer is required")
            out[key] = v
    if "tol" in e:
        v = e["tol"]
        _expect(isinstance(v, (int, float)) and not isinstance(v, bool)
                and math.isfinite(v) and v > 0, "experiment.tol",
                "a finite positive number is required")
        out["tol"] = float(v)
    return out


def parse_system(path) -> SystemDefinition:
    """Parse and validate a system definition file.

    Diagnostics are located: JSON syntax errors report line and column,
    schema violations report the offending field path, and algebra or
    automorphism invariant failures carry the library's own diagnostic
    (for instance, conflicting antisymmetric entries name the structure
    constant, and Jacobi failures name the basis triple).
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise SystemParseError(f"cannot read {path}: {e.strerror or e}") from e
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise SystemParseError(
            f"{path}: syntax error at line {e.lineno} column {e.colno}: "
            f"{e.msg}") from e
    return _parse_obj(obj, str(path))


def serialize(defn: SystemDefinition) -> str:
    """Serialize back to the file format; parse(serialize(d)) is
    semantically identical to d (structure constants come out in the
    normalized i < j order)."""
    sc = [[i + 1, j + 1, k + 1, rat_str(v)]
          for (i, j, k), v in sorted(defn.algebra.triples.items())]
    m = defn.automap.matrix
    obj = {
        "name": defn.name,
        "dimension": defn.dimension,
        "structure_constants": sc,
        "automorphism": [[rat_str(m[i, j]) for j in range(defn.dimension)]
                         for i in range(defn.dimension)],
    }
    if defn.perturbation:
        obj["perturbation"] = defn.perturbation
    if defn.experiment:
        obj["experiment"] = defn.experiment
    return json.dumps(obj, indent=2) + "\n"


# ---------------------------------------------------------------------------
# report formatting


def poly_str(p: RatPoly) -> str:
    """Human form of a rational polynomial, highest degree first."""
    if p.is_zero():
        return "0"
    parts = []
    for deg in range(p.degree, -1, -1):
        c = p.coeffs[deg]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if deg == 0:
            body = rat_str(mag)
        else:
            x = "x" if deg == 1 else f"x^{deg}"
            body = x if mag == 1 else f"{rat_str(mag)}*{x}"
        if not parts:
            parts.append(body if sign == "+" else "-" + body)
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)


def factorization_str(p: RatPoly) -> str:
    factors = factor_over_Q(p)
    if not factors:
        return rat_str(p.leading)
    pieces = []
    if p.leading != 1:
        pieces.append(rat_str(p.leading))
    for q, mult in factors:
        s = f"({poly_str(q)})"
        pieces.append(s if mult == 1 else f"{s}^{mult}")
    return " * ".join(pieces)


def _yesno(b: bool) -> str:
    return "yes" if b else "no"


def cmd_analyze(defn: SystemDefinition, out) -> int:
    """Structural report: layers, induced blocks with characteristic
    polynomials and factorizations, the four arithmetic/spectral
    predicates, and the hyperbolic splitting data."""
    am = defn.automap
    alg = defn.algebra
    w = out.write
    w(f"system: {defn.name}\n")
    w(f"dimension: {alg.dim}\n")
    w(f"step: {alg.step}\n")
    w("layer dims: " + " ".join(str(n) for n in alg.layer_dims) + "\n")
    w(f"lattice preserved: {_yesno(preserves_lattice(am))}\n")

    blocks = induced_blocks(am)
    for ell, B in enumerate(blocks, start=1):
        w(f"layer {ell} block ({B.n}x{B.m}):\n")
        for i in range(B.n):
            w("  [" + "  ".join(rat_str(B[i, j]) for j in range(B.m)) + "]\n")
        cp = char_poly(B)
        w(f"  char poly: {poly_str(cp)}\n")
        w(f"  factors:   {factorization_str(cp)}\n")
    w(f"eigenvalue product law: "
      f"{'holds' if check_eigenvalue_product_law(am) else 'VIOLATED'}\n")

    try:
        hyp = is_hyperbolic(am)
        hyp_str = _yesno(hyp)
    except IndeterminateModulusError:
        hyp = False
        hyp_str = "indeterminate (eigenvalue too close to modulus 1)"
    w(f"hyperbolic: {hyp_str}\n")
    w(f"totally non-invertible: {_yesno(is_totally_non_invertible(am))}\n")
    w(f"horizontally irreducible: {_yesno(is_horizontally_irreducible(am))}\n")
    u_ideal = _yesno(is_u_ideal(am)) if hyp else hyp_str
    w(f"unstable subalgebra is an ideal: {u_ideal}\n")

    if not hyp:
        w("splitting: none (linear part is not hyperbolic)\n")
        return EXIT_OK
    split = hyperbolic_splitting(am)
    w(f"stable dim: {split.stable_dim}\n")
    w(f"unstable dim: {split.unstable_dim}\n")
    w(f"mu_s (largest stable modulus):    {split.mu_s_plus:.12g}\n")
    w(f"mu_u (smallest unstable modulus): {split.mu_u_minus:.12g}\n")
    if split.stable_dim > 0:
        w(f"lambda_s (stable exponent): {stable_exponent(am):.12g}\n")
    else:
        w("lambda_s (stable exponent): none (no stable part)\n")
    return EXIT_OK


def cmd_density(defn: SystemDefinition, k_max=None, grid_n=None,
                threads=1, base=None):
    """Preimage equidistribution experiment from the file's system.

    Returns the DensityReport; base defaults to the identity coset.
    """
    if k_max is None:
        k_max = defn.param("k_max", 4)
    _require(k_max >= 2, "k_max must be at least 2 to fit a rate", k_max)
    if grid_n is None:
        grid_n = defn.param("grid_n")
    _require(grid_n is None or grid_n >= 2, "the grid must be at least 2",
             grid_n)
    if base is None:
        base = ManifoldPoint(identity(defn.algebra))
    radius = defn.param("search_radius", 1)
    return density_experiment(defn.automap, base, k_max, grid_n=grid_n,
                              search_radius=radius, threads=threads)


def _require(ok: bool, what: str, value):
    if not ok:
        raise UsageError(f"{what}, got {value}")


def cmd_dynamics(defn: SystemDefinition, experiment: str, *, p_max=None,
                 eps=None, grid_n=None, tol=None):
    """Run one of the dynamical experiments; returns (csv_text, summary)."""
    _require(eps is None or (math.isfinite(eps) and eps >= 0),
             "the amplitude must be finite and nonnegative", eps)
    if p_max is None:
        p_max = defn.param("p_max", 3)
    _require(p_max >= 1, "the period must be at least 1", p_max)
    if experiment == "periodic":
        F = defn.build_map()
        reports = periodic_orbits(F, p_max, defn.param("tol", 1e-10))
        n_pts = sum(r.period for r in reports)
        summary = (f"{len(reports)} orbits, {n_pts} periodic points with "
                   f"period <= {p_max}")
        return orbits_to_csv(reports, defn.dimension), summary

    if experiment == "conjugacy":
        F = defn.build_map(amplitude=eps)
        grid = grid_n if grid_n is not None else defn.param("grid_n", 17)
        _require(grid >= 2, "the grid must be at least 2", grid)
        tol = tol if tol is not None else defn.param("tol", 1e-6)
        _require(tol > 0, "the tolerance must be positive", tol)
        _require(math.isfinite(tol), "the tolerance must be finite", tol)
        max_iter = defn.param("max_iter", 500)
        fld = solve_conjugacy(F, grid_n=grid, tol=tol, max_iter=max_iter)
        summary = (f"converged in {len(fld.history)} sweeps, residual "
                   f"{fld.residual:.3e}, sup displacement "
                   f"{fld.sup_displacement:.6g}")
        return fld.to_csv(), summary

    if experiment == "rigidity":
        F = defn.build_map()
        rep = rigidity_experiment(F, p_max, tol=defn.param("tol", 1e-10))
        summary = (f"{len(rep.periods)} orbits, exponent spread "
                   f"{rep.spread:.3e}, max deviation from lambda_s "
                   f"{rep.deviation:.3e}")
        return rep.to_csv(), summary

    raise UsageError(f"unknown dynamics experiment: {experiment!r}")


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="nilflow",
                     description="nilmanifold automorphism laboratory")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def common(p):
        p.add_argument("file", help="system definition JSON file")
        p.add_argument("--csv", metavar="PATH",
                       help="write the output table to PATH instead of stdout")
        p.add_argument("--seed", type=int, default=None,
                       help="seed the global numpy RNG")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads where supported (density search)")

    p = sub.add_parser("analyze", help="algebraic and spectral report")
    common(p)

    p = sub.add_parser("density", help="preimage equidistribution experiment")
    common(p)
    p.add_argument("--k-max", type=int, default=None,
                   help="largest preimage depth")
    p.add_argument("--grid", type=int, default=None,
                   help="covering-radius probe grid per side")

    p = sub.add_parser("dynamics", help="perturbed dynamics experiments")
    common(p)
    p.add_argument("experiment", choices=("periodic", "conjugacy", "rigidity"))
    p.add_argument("--period-max", type=int, default=None,
                   help="largest period to enumerate")
    p.add_argument("--eps", type=float, default=None,
                   help="perturbation amplitude (overrides the file)")
    p.add_argument("--grid", type=int, default=None,
                   help="conjugacy collocation grid per side")
    p.add_argument("--tol", type=float, default=None,
                   help="conjugacy residual tolerance")
    return parser


def _emit(text: str, csv_path, summary: str | None):
    if csv_path:
        Path(csv_path).write_text(text)
        print(f"wrote {csv_path}")
        if summary:
            print(summary)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        if summary:
            print(summary, file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a command is required "
                             "(analyze, density, dynamics)")
        _require(args.threads >= 1, "threads must be at least 1",
                 args.threads)
        if args.seed is not None:
            np.random.seed(args.seed)
        defn = parse_system(args.file)

        if args.command == "analyze":
            if args.csv:
                import io
                buf = io.StringIO()
                cmd_analyze(defn, buf)
                Path(args.csv).write_text(buf.getvalue())
                print(f"wrote {args.csv}")
            else:
                cmd_analyze(defn, sys.stdout)
        elif args.command == "density":
            report = cmd_density(defn, k_max=args.k_max, grid_n=args.grid,
                                 threads=args.threads)
            _emit(report.to_csv(), args.csv,
                  f"fitted contraction ratio {report.fitted_mu:.6g}")
        else:
            csv_text, summary = cmd_dynamics(
                defn, args.experiment, p_max=args.period_max, eps=args.eps,
                grid_n=args.grid, tol=args.tol)
            _emit(csv_text, args.csv, summary)
        return EXIT_OK
    except UsageError as e:
        print(f"nilflow: usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (SystemParseError, AlgebraError, EndoError, BudgetError) as e:
        print(f"nilflow: {e}", file=sys.stderr)
        return EXIT_PARSE
    except ConvergenceError as e:
        print(f"nilflow: did not converge: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DynlabError, IndeterminateModulusError) as e:
        print(f"nilflow: {e}", file=sys.stderr)
        return EXIT_HYPOTHESIS


if __name__ == "__main__":
    sys.exit(main())
