"""Front end: file parsing, report formatting, exit codes."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nilflow.cli import (
    EXIT_HYPOTHESIS,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    SystemParseError,
    cmd_analyze,
    factorization_str,
    fixture_path,
    main,
    parse_system,
    poly_str,
    serialize,
)
from nilflow.ratcore import RatPoly


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj) if isinstance(obj, dict) else obj)
    return str(p)


GOOD = {
    "name": "h",
    "dimension": 3,
    "structure_constants": [[1, 2, 3, "1"]],
    "automorphism": [["4", "2", "0"], ["2", "2", "0"], ["0", "0", "4"]],
}


# ---------------------------------------------------------------------------
# parsing


def test_parse_fixtures():
    for name in ("heisenberg", "example5d"):
        defn = parse_system(fixture_path(name))
        assert defn.name == name
        assert defn.automap.algebra.dim == defn.dimension


def test_fixture_path_unknown():
    with pytest.raises(FileNotFoundError):
        fixture_path("nonexistent")


def test_round_trip_is_semantically_identical(tmp_path):
    for name in ("heisenberg", "example5d"):
        d1 = parse_system(fixture_path(name))
        tmp = tmp_path / f"{name}_out.json"
        tmp.write_text(serialize(d1))
        d2 = parse_system(tmp)
        assert d2.name == d1.name
        assert d2.dimension == d1.dimension
        assert d2.algebra.triples == d1.algebra.triples
        assert d2.automap.matrix == d1.automap.matrix
        assert d2.perturbation == d1.perturbation
        assert d2.experiment == d1.experiment


def test_syntax_error_reports_line_and_column(tmp_path):
    path = write(tmp_path, "bad.json", '{\n  "name": "x",\n  ]')
    with pytest.raises(SystemParseError, match=r"line 3 column 3"):
        parse_system(path)


def test_antisymmetry_conflict_diagnostic(tmp_path):
    obj = dict(GOOD, structure_constants=[[1, 2, 3, "1"], [2, 1, 3, "1"]])
    path = write(tmp_path, "anti.json", obj)
    with pytest.raises(SystemParseError, match="antisymmetry conflict"):
        parse_system(path)


def test_jacobi_diagnostic(tmp_path):
    obj = {
        "name": "j", "dimension": 4,
        "structure_constants": [[1, 2, 3, "1"], [1, 3, 4, "1"],
                                [2, 3, 4, "1"], [1, 4, 2, "1"]],
        "automorphism": [["1" if i == j else "0" for j in range(4)]
                         for i in range(4)],
    }
    path = write(tmp_path, "jac.json", obj)
    with pytest.raises(SystemParseError, match=r"Jacobi identity fails on "
                                               r"basis triple \(1, 2, 3\)"):
        parse_system(path)


def test_schema_violations_carry_field_paths(tmp_path):
    cases = [
        (dict(GOOD, dimension="three"), "dimension"),
        (dict(GOOD, automorphism=[["4", "2"], ["2", "2"]]), "automorphism"),
        (dict(GOOD, structure_constants=[[1, 2, "1"]]),
         r"structure_constants\[0\]"),
        (dict(GOOD, structure_constants=[[1, 9, 3, "1"]]),
         r"structure_constants\[0\]\[1\]"),
        (dict(GOOD, automorphism=[["4", 2.5, "0"], ["2", "2", "0"],
                                  ["0", "0", "4"]]),
         r"automorphism\[0\]\[1\]"),
        (dict(GOOD, experiment={"bogus": 1}), r"experiment\.bogus"),
        (dict(GOOD, perturbation={"amplitude": -1}),
         r"perturbation\.amplitude"),
        (dict(GOOD, perturbation={"amplitude": float("inf")}),
         r"perturbation\.amplitude"),
        (dict(GOOD, extra_field=1), "unknown field"),
    ]
    for n, (obj, pattern) in enumerate(cases):
        path = write(tmp_path, f"case{n}.json", obj)
        with pytest.raises(SystemParseError, match=pattern):
            parse_system(path)


def test_missing_file():
    with pytest.raises(SystemParseError, match="cannot read"):
        parse_system("/nonexistent/definitely/missing.json")


def test_build_map_uses_file_perturbation():
    defn = parse_system(fixture_path("heisenberg"))
    F = defn.build_map()
    assert F.amplitude == pytest.approx(0.01)
    F0 = defn.build_map(amplitude=0.0)
    assert F0.amplitude == 0.0


# ---------------------------------------------------------------------------
# report formatting


def test_poly_str():
    assert poly_str(RatPoly([4, -6, 1])) == "x^2 - 6*x + 4"
    assert poly_str(RatPoly([0, 1])) == "x"
    assert poly_str(RatPoly([-2, 1])) == "x - 2"
    assert poly_str(RatPoly([0])) == "0"
    assert poly_str(RatPoly([3])) == "3"


def test_factorization_str():
    p = RatPoly([-2, 1]) * RatPoly([-2, 1]) * RatPoly([0, 1])
    s = factorization_str(p)
    assert "(x - 2)^2" in s and "(x)" in s
    assert factorization_str(RatPoly([1, -3, 1])) == "(x^2 - 3*x + 1)"


def test_analyze_output(capsys):
    defn = parse_system(fixture_path("heisenberg"))
    import io
    buf = io.StringIO()
    cmd_analyze(defn, buf)
    text = buf.getvalue()
    assert "step: 2" in text
    assert "layer dims: 2 1" in text
    assert "hyperbolic: yes" in text
    assert "totally non-invertible: yes" in text
    assert "horizontally irreducible: yes" in text
    assert "unstable subalgebra is an ideal: yes" in text
    assert "stable dim: 1" in text
    assert "x^2 - 6*x + 4" in text
    lam = [ln for ln in text.splitlines() if ln.startswith("lambda_s")][0]
    assert float(lam.split(":")[1]) == pytest.approx(
        math.log(3 - math.sqrt(5)), abs=1e-9)


def test_analyze_output_ex5():
    defn = parse_system(fixture_path("example5d"))
    import io
    buf = io.StringIO()
    cmd_analyze(defn, buf)
    text = buf.getvalue()
    assert "totally non-invertible: no" in text
    assert "unstable subalgebra is an ideal: no" in text
    assert "stable dim: 2" in text


# ---------------------------------------------------------------------------
# exit codes through main()


def test_main_usage_errors(capsys):
    assert main([]) == EXIT_USAGE
    assert main(["bogus"]) == EXIT_USAGE
    assert main(["analyze"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage error" in err


def test_main_analyze_ok(capsys):
    assert main(["analyze", str(fixture_path("heisenberg"))]) == EXIT_OK
    out = capsys.readouterr().out
    assert "hyperbolic: yes" in out


def test_main_parse_failure(tmp_path, capsys):
    path = write(tmp_path, "bad.json", "{ not json")
    assert main(["analyze", path]) == EXIT_PARSE
    assert "syntax error" in capsys.readouterr().err


def test_main_nonconvergence_exit(tmp_path, capsys):
    obj = dict(GOOD, perturbation={"amplitude": 0.01},
               experiment={"max_iter": 2, "grid_n": 5})
    path = write(tmp_path, "slow.json", obj)
    assert main(["dynamics", path, "conjugacy"]) == EXIT_NUMERIC
    assert "did not converge" in capsys.readouterr().err


def test_main_density_k_max_below_two(capsys):
    rc = main(["density", str(fixture_path("heisenberg")), "--k-max", "1"])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert "k_max must be at least 2" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,experiment,message", [
    (["density", "--grid", "0"], None, "grid must be at least 2"),
    (["density", "--grid", "1", "--k-max", "2"], None, "grid must be at least 2"),
    (["density"], {"grid_n": 1}, "grid must be at least 2"),
    (["dynamics", "rigidity", "--period-max", "0"], None,
     "period must be at least 1"),
    (["dynamics", "periodic", "--period-max", "0"], None,
     "period must be at least 1"),
    (["dynamics", "conjugacy", "--tol", "0"], None, "tolerance must be positive"),
    (["dynamics", "conjugacy", "--tol", "-1"], None, "tolerance must be positive"),
    (["dynamics", "conjugacy", "--tol", "nan"], None, "tolerance must be positive"),
    (["dynamics", "conjugacy", "--grid", "1"], None, "grid must be at least 2"),
    (["dynamics", "conjugacy"], {"grid_n": 1}, "grid must be at least 2"),
    (["analyze", "--threads", "0"], None, "threads must be at least 1"),
    (["density", "--threads", "0"], None, "threads must be at least 1"),
    (["dynamics", "periodic", "--threads", "-1"], None,
     "threads must be at least 1"),
    (["dynamics", "conjugacy", "--eps", "-1"], None,
     "amplitude must be finite and nonnegative"),
    (["dynamics", "conjugacy", "--eps", "nan"], None,
     "amplitude must be finite and nonnegative"),
    (["dynamics", "conjugacy", "--eps", "inf"], None,
     "amplitude must be finite and nonnegative"),
    (["dynamics", "periodic", "--eps", "-1"], None,
     "amplitude must be finite and nonnegative"),
    (["dynamics", "rigidity", "--eps", "-1"], None,
     "amplitude must be finite and nonnegative"),
    (["dynamics", "conjugacy", "--tol", "inf"], None,
     "tolerance must be finite"),
])
def test_main_rejects_degenerate_settings(tmp_path, capsys, argv, experiment,
                                          message):
    obj = dict(GOOD, perturbation={"amplitude": 0.01})
    if experiment:
        obj["experiment"] = experiment
    command, *rest = argv
    rc = main([command, write(tmp_path, "h.json", obj), *rest])
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert len(err.strip().splitlines()) == 1
    assert message in err
    assert "Traceback" not in err


ROTATION = {
    "name": "rotation", "dimension": 2, "structure_constants": [],
    "automorphism": [["0", "-1"], ["1", "0"]],
}


@pytest.mark.parametrize("system,argv,code,message", [
    (ROTATION, ["analyze"], EXIT_OK, None),
    (ROTATION, ["dynamics", "periodic"], EXIT_HYPOTHESIS, "modulus within"),
    (ROTATION, ["dynamics", "conjugacy"], EXIT_HYPOTHESIS, "modulus within"),
    (ROTATION, ["dynamics", "rigidity"], EXIT_HYPOTHESIS, "modulus within"),
    (GOOD, ["dynamics", "conjugacy", "--eps", "5"], EXIT_HYPOTHESIS,
     "Anosov budget"),
])
def test_main_maps_outside_the_hypotheses(tmp_path, capsys, system, argv,
                                          code, message):
    command, *rest = argv
    rc = main([command, write(tmp_path, "m.json", system), *rest])
    out, err = capsys.readouterr()
    assert rc == code
    assert "Traceback" not in err
    if message is None:
        assert err == ""
        assert "hyperbolic: indeterminate" in out
        assert "unstable subalgebra is an ideal: indeterminate" in out
        assert "splitting: none" in out
    else:
        assert len(err.strip().splitlines()) == 1
        assert message in err


MALFORMED = {
    "missing field": ({k: v for k, v in GOOD.items() if k != "automorphism"},
                      "schema violation at automorphism"),
    "non-rational entry": (dict(GOOD, automorphism=[
        ["4", "2/x", "0"], ["2", "2", "0"], ["0", "0", "4"]]),
        r"automorphism\[0\]\[1\]: not a rational"),
    "singular linear part": (dict(GOOD, automorphism=[
        ["1", "1", "0"], ["1", "1", "0"], ["0", "0", "0"]]),
        "automorphism invalid: matrix is singular"),
    "bracket breaks Jacobi": ({
        "name": "j", "dimension": 4,
        "structure_constants": [[1, 2, 3, "1"], [1, 3, 4, "1"],
                                [2, 3, 4, "1"], [1, 4, 2, "1"]],
        "automorphism": [["1" if i == j else "0" for j in range(4)]
                         for i in range(4)]}, "Jacobi identity fails"),
    "zero bump frequency": (dict(GOOD, perturbation={
        "amplitude": 0.01, "bump": [[[0, 0], 1.0]]}),
        r"perturbation\.bump\[0\]\[0\]"),
    "non-finite bump coefficient": (dict(GOOD, perturbation={
        "amplitude": 0.01, "bump": [[[1, 0], math.nan]]}),
        r"perturbation\.bump\[0\]\[1\]"),
    "zero direction": (dict(GOOD, perturbation={
        "amplitude": 0.01, "direction": [0, 0, 0]}),
        r"perturbation\.direction"),
    "infinite tolerance": (dict(GOOD, experiment={"tol": math.inf}),
                           r"experiment\.tol"),
}


@pytest.mark.parametrize("argv", [
    ["analyze"], ["density"], ["dynamics", "periodic"],
    ["dynamics", "conjugacy"], ["dynamics", "rigidity"]], ids=" ".join)
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_main_rejects_malformed_systems(tmp_path, capsys, case, argv):
    system, message = MALFORMED[case]
    command, *rest = argv
    rc = main([command, write(tmp_path, "bad.json", system), *rest])
    out, err = capsys.readouterr()
    assert rc == EXIT_PARSE
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("nilflow: ") and "Traceback" not in err
    assert re.search(message, err)


def test_main_density_csv(tmp_path, capsys):
    obj = {
        "name": "torus", "dimension": 2, "structure_constants": [],
        "automorphism": [["2", "0"], ["0", "2"]],
    }
    path = write(tmp_path, "torus.json", obj)
    out_csv = tmp_path / "density.csv"
    rc = main(["density", path, "--k-max", "3", "--grid", "33",
               "--csv", str(out_csv)])
    assert rc == EXIT_OK
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "k,count,covering_radius,ratio"
    assert lines[1].startswith("1,4,")
    assert lines[3].startswith("3,64,")


def test_main_dynamics_periodic(capsys):
    rc = main(["dynamics", str(fixture_path("heisenberg")), "periodic",
               "--period-max", "1"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "period,t1,t2,t3,lambda_s,residual"
    assert len(lines) == 4  # three fixed points survive the shear


def test_main_dynamics_conjugacy(tmp_path, capsys):
    obj = dict(GOOD, perturbation={"amplitude": 0.0})
    path = write(tmp_path, "flat.json", obj)
    rc = main(["dynamics", path, "conjugacy", "--grid", "5"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "iter,residual,sup_displacement"


def test_main_rigidity(capsys):
    rc = main(["dynamics", str(fixture_path("heisenberg")), "rigidity",
               "--period-max", "1"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("period,")


def test_main_seed_flag(tmp_path):
    obj = {
        "name": "torus", "dimension": 2, "structure_constants": [],
        "automorphism": [["2", "0"], ["0", "2"]],
    }
    path = write(tmp_path, "t.json", obj)
    assert main(["density", path, "--k-max", "2", "--seed", "11"]) == EXIT_OK


DENSITY_PATH = """
import json, sys
import nilflow, nilflow.cli
from nilflow.cli import fixture_path, main, parse_system
from nilflow.nilgroup import identity
for name in ("heisenberg", "example5d"):
    defn = parse_system(fixture_path(name))
    base = nilflow.ManifoldPoint(identity(defn.algebra))
    nilflow.density_experiment(defn.automap, base, 2, grid_n=5)
    assert main(["density", str(fixture_path(name)), "--k-max", "2",
                 "--grid", "5"]) == 0
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in ("scipy", "sympy")
                        or m == "numpy.ma" or m.startswith("numpy.ma."))))
"""


def test_density_path_loads_no_scipy_or_sympy():
    """The import, the parser and the whole density path, library and
    command, need numpy only, and not numpy.ma (which np.unique loads);
    a fresh interpreter shows what they load."""
    import nilflow
    src = str(Path(nilflow.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", DENSITY_PATH], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == []
