"""Lattice endomorphisms: induced blocks, spectra, predicates, splitting."""

import math
from fractions import Fraction

import numpy as np
import pytest

from nilflow.endo import (
    AutoMap,
    EndoError,
    IndeterminateModulusError,
    check_eigenvalue_product_law,
    eigenvalues,
    hyperbolic_splitting,
    induced_blocks,
    is_horizontally_irreducible,
    is_hyperbolic,
    is_totally_non_invertible,
    is_u_ideal,
    preserves_lattice,
    stable_exponent,
)
from nilflow.liealg import abelian, heisenberg
from nilflow.ratcore import RatMatrix
from tests.conftest import stable_subspace_angle

PHI = (1 + math.sqrt(5)) / 2


def test_automap_requires_bracket_preservation(heis):
    with pytest.raises(EndoError, match="bracket not preserved"):
        AutoMap(heis, RatMatrix([[4, 2, 0], [2, 2, 0], [0, 0, 5]]))


def test_automap_rejects_singular(heis):
    with pytest.raises(EndoError):
        AutoMap(heis, RatMatrix([[0, 0, 0], [0, 0, 0], [0, 0, 0]]))


def test_induced_blocks_heisenberg(heis_am):
    blocks = induced_blocks(heis_am)
    assert [b.rows for b in blocks] == [
        RatMatrix([[4, 2], [2, 2]]).rows,
        RatMatrix([[4]]).rows,
    ]


def test_induced_blocks_ex5(ex5_am):
    blocks = induced_blocks(ex5_am)
    assert blocks[0].rows == RatMatrix([[2, 0, 0], [0, 2, 1], [0, 1, 1]]).rows
    assert blocks[1].rows == RatMatrix([[4, 2], [2, 2]]).rows


def test_eigenvalues_heisenberg(heis_am):
    got = sorted(ev.real for ev in eigenvalues(heis_am))
    want = sorted([3 - math.sqrt(5), 4.0, 3 + math.sqrt(5)])
    assert np.allclose(got, want, atol=1e-12)


def test_eigenvalue_product_law(heis_am, ex5_am):
    assert check_eigenvalue_product_law(heis_am)
    assert check_eigenvalue_product_law(ex5_am)


def test_predicates_heisenberg(heis_am):
    assert is_hyperbolic(heis_am)
    assert is_totally_non_invertible(heis_am)
    assert is_horizontally_irreducible(heis_am)
    assert is_u_ideal(heis_am)


def test_predicates_ex5(ex5_am):
    assert is_hyperbolic(ex5_am)
    # horizontal block has unit eigenvalues (3 +- sqrt 5)/2
    assert not is_totally_non_invertible(ex5_am)
    assert not is_horizontally_irreducible(ex5_am)
    assert not is_u_ideal(ex5_am)


def test_predicates_torus(doubling, cat_map):
    assert is_hyperbolic(doubling)
    assert is_totally_non_invertible(doubling)
    assert not is_horizontally_irreducible(doubling)
    assert is_u_ideal(doubling)

    assert is_hyperbolic(cat_map)
    # determinant 1: every eigenvalue is a unit
    assert not is_totally_non_invertible(cat_map)
    assert is_horizontally_irreducible(cat_map)


def test_hyperbolicity_indeterminate_on_rotation(torus2):
    rot = AutoMap(torus2, RatMatrix([[0, -1], [1, 0]]))
    with pytest.raises(IndeterminateModulusError):
        is_hyperbolic(rot)


def test_preserves_lattice(heis):
    am = AutoMap(heis, RatMatrix([[4, 2, 0], [2, 2, 0], [0, 0, 4]]))
    assert preserves_lattice(am)
    half = AutoMap(heis, RatMatrix([[Fraction(1, 2), 0, 0],
                                    [0, Fraction(1, 2), 0],
                                    [0, 0, Fraction(1, 4)]]))
    assert not preserves_lattice(half)


def test_splitting_dimensions_and_invariance(heis_am, ex5_am):
    s = hyperbolic_splitting(heis_am)
    assert s.stable_dim == 1 and s.unstable_dim == 2
    assert s.invariance_residual < 1e-10
    assert s.mu_s_plus == pytest.approx(3 - math.sqrt(5), abs=1e-10)
    assert s.mu_u_minus == pytest.approx(4.0, abs=1e-10)

    s5 = hyperbolic_splitting(ex5_am)
    assert s5.stable_dim == 2 and s5.unstable_dim == 3
    assert s5.invariance_residual < 1e-10


def test_splitting_rejects_non_hyperbolic(torus2):
    rot = AutoMap(torus2, RatMatrix([[0, -1], [1, 0]]))
    with pytest.raises((EndoError, IndeterminateModulusError)):
        hyperbolic_splitting(rot)


def test_stable_subspace_heisenberg(heis_am):
    # eigenvector of [[4,2],[2,2]] for 3 - sqrt 5 is (1, -phi)
    split = hyperbolic_splitting(heis_am)
    v = np.array([[1.0], [-PHI], [0.0]])
    assert stable_subspace_angle(split, v) < 1e-10


def test_stable_exponent(heis_am, doubling):
    lam = stable_exponent(heis_am)
    assert lam == pytest.approx(math.log(3 - math.sqrt(5)), abs=1e-10)
    with pytest.raises(EndoError):
        stable_exponent(doubling)  # expanding: no stable part


def test_power_and_inverse(heis_am):
    sq = heis_am.power(2)
    assert sq.matrix == heis_am.matrix * heis_am.matrix
    inv = heis_am.inverse()
    assert inv.matrix * heis_am.matrix == RatMatrix.identity(3)
