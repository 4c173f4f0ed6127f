"""Structure constants, gradings, and exact bracket identities."""

from fractions import Fraction

import numpy as np
import pytest

from nilflow.liealg import (
    AlgebraError,
    LieAlgebra,
    abelian,
    from_sparse_triples,
    heisenberg,
)
from tests.conftest import rand_rationals


def test_heisenberg_grading(heis):
    assert heis.dim == 3
    assert heis.step == 2
    assert heis.layer_dims == (2, 1)
    assert heis.layer_of == (1, 1, 2)


def test_abelian_grading():
    a = abelian(4)
    assert a.step == 1
    assert a.layer_dims == (4,)


def test_ex5_grading(ex5):
    assert ex5.step == 2
    assert ex5.layer_dims == (3, 2)


def test_filiform_step_three():
    # [X1,X2] = X3, [X1,X3] = X4
    g = from_sparse_triples(4, [(1, 2, 3, 1), (1, 3, 4, 1)])
    assert g.step == 3
    assert g.layer_dims == (2, 1, 1)


def test_lower_index_normalization():
    # entries with i > j are folded in with a sign flip
    g = LieAlgebra(3, {(1, 0, 2): Fraction(-1)})
    assert g.triples == heisenberg().triples


def test_antisymmetry_conflict_diagnostic():
    with pytest.raises(AlgebraError, match=r"antisymmetry conflict at "
                                           r"c\[0,1,2\]: 1 vs -1"):
        from_sparse_triples(3, [(1, 2, 3, 1), (2, 1, 3, 1)])


def test_diagonal_entry_rejected():
    with pytest.raises(AlgebraError, match="antisymmetry"):
        LieAlgebra(3, {(1, 1, 2): Fraction(1)})


def test_index_out_of_range():
    with pytest.raises(AlgebraError, match="out of range"):
        LieAlgebra(2, {(0, 1, 5): Fraction(1)})


def test_jacobi_diagnostic_names_triple():
    # so(3)-like table is not nilpotent and fails Jacobi checks only if
    # inconsistent; build a genuinely broken table instead
    bad = [(1, 2, 3, 1), (1, 3, 4, 1), (2, 3, 4, 1), (1, 4, 2, 1)]
    with pytest.raises(AlgebraError, match=r"Jacobi identity fails on basis "
                                           r"triple \(1, 2, 3\)"):
        from_sparse_triples(4, bad)


def test_bracket_bilinear_antisymmetric(heis, ex5):
    rng = np.random.default_rng(23)
    for g in (heis, ex5):
        for _ in range(50):
            x = rand_rationals(rng, g.dim)
            y = rand_rationals(rng, g.dim)
            xy = g.bracket(x, y)
            yx = g.bracket(y, x)
            assert tuple(-c for c in yx) == tuple(xy)
            two_x = tuple(2 * c for c in x)
            assert g.bracket(two_x, y) == tuple(2 * c for c in xy)


def test_jacobi_identity_exact(ex5):
    rng = np.random.default_rng(29)
    g = from_sparse_triples(4, [(1, 2, 3, 1), (1, 3, 4, 1)])
    for _ in range(30):
        x = rand_rationals(rng, g.dim)
        y = rand_rationals(rng, g.dim)
        z = rand_rationals(rng, g.dim)
        total = [Fraction(0)] * g.dim
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            w = g.bracket(a, g.bracket(b, c))
            total = [t + wi for t, wi in zip(total, w)]
        assert all(t == 0 for t in total)


def test_bch_group_law_exact(heis):
    # step 2: bch(x, y) = x + y + [x,y]/2 exactly
    rng = np.random.default_rng(31)
    for _ in range(30):
        x = rand_rationals(rng, 3)
        y = rand_rationals(rng, 3)
        z = heis.bch(x, y)
        br = heis.bracket(x, y)
        expected = tuple(a + b + c / 2 for a, b, c in zip(x, y, br))
        assert z == expected


def test_bch_floats_match_exact(ex5, filiform3, filiform4):
    rng = np.random.default_rng(37)
    for g in (ex5, filiform3.algebra, filiform4.algebra):
        for _ in range(20):
            x = rand_rationals(rng, g.dim)
            y = rand_rationals(rng, g.dim)
            exact = np.array([float(c) for c in g.bch(x, y)])
            approx = g.bch(np.array([float(c) for c in x]),
                           np.array([float(c) for c in y]))
            assert np.allclose(exact, approx, rtol=1e-14, atol=1e-12)


def test_quasi_norm_scaling(heis):
    # layer weights: scaling the group dilation by t scales q by t
    x = (Fraction(1, 2), Fraction(-1, 3), Fraction(3, 4))
    q1 = heis.quasi_norm(x)
    t = 4.0
    dilated = (t * Fraction(1, 2), t * Fraction(-1, 3),
               Fraction(t ** 2) * Fraction(3, 4))
    assert heis.quasi_norm(dilated) == pytest.approx(t * q1, rel=1e-12)
    assert heis.quasi_norm(tuple(-c for c in x)) == pytest.approx(q1)
    assert heis.quasi_norm((0, 0, 0)) == 0.0
