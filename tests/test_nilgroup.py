"""Group law, coordinates of the second kind, and lattice reduction."""

from fractions import Fraction

import numpy as np
import pytest

from nilflow.nilgroup import (
    ExactBatch,
    GroupPoint,
    ManifoldPoint,
    exact_columns,
    from_second_kind,
    identity,
    in_lattice,
    inv,
    mul,
    point,
    reduce,
    to_second_kind,
)
from tests.conftest import rand_rationals


def rand_point(rng, algebra, span=6, max_den=8):
    return point(algebra, rand_rationals(rng, algebra.dim, span, max_den))


@pytest.fixture(scope="module")
def algebras(heis, ex5, filiform3, filiform4):
    """Steps 2, 2, 3 and 4."""
    return heis, ex5, filiform3.algebra, filiform4.algebra


def test_identity_and_inverse_exact(heis, ex5):
    rng = np.random.default_rng(41)
    for g in (heis, ex5):
        e = identity(g)
        for _ in range(50):
            x = rand_point(rng, g)
            assert mul(x, e).coords == x.coords
            assert mul(e, x).coords == x.coords
            assert mul(x, inv(x)).coords == e.coords
            assert mul(inv(x), x).coords == e.coords


def test_associativity_exact(algebras):
    rng = np.random.default_rng(43)
    for g in algebras:
        for _ in range(60):
            x, y, z = (rand_point(rng, g) for _ in range(3))
            assert mul(mul(x, y), z).coords == mul(x, mul(y, z)).coords


def test_second_kind_round_trip(algebras):
    rng = np.random.default_rng(47)
    for g in algebras:
        for _ in range(60):
            x = rand_point(rng, g)
            t = to_second_kind(x)
            y = from_second_kind(g, t)
            assert y.coords == x.coords


def test_second_kind_of_identity(heis):
    assert to_second_kind(identity(heis)) == (0, 0, 0)


def test_lattice_membership(heis):
    # integer second-kind coordinates define the lattice
    g = from_second_kind(heis, (1, -2, 3))
    assert in_lattice(g)
    h = from_second_kind(heis, (1, Fraction(1, 2), 0))
    assert not in_lattice(h)
    # closed under multiplication and inverse
    g2 = from_second_kind(heis, (-1, 4, 0))
    assert in_lattice(mul(g, g2))
    assert in_lattice(inv(g))


def test_reduce_range_and_witness(algebras):
    rng = np.random.default_rng(53)
    for g in algebras:
        for _ in range(60):
            x = rand_point(rng, g, span=8)
            r, gamma = reduce(x)
            t = to_second_kind(r.rep)
            assert all(0 <= c < 1 for c in t)
            assert in_lattice(gamma)
            assert mul(x, gamma).coords == r.rep.coords


def test_reduce_is_constant_on_cosets(heis):
    rng = np.random.default_rng(59)
    for _ in range(40):
        x = rand_point(rng, heis)
        gamma = from_second_kind(
            heis, tuple(int(k) for k in rng.integers(-3, 4, size=3)))
        r1, _ = reduce(x)
        r2, _ = reduce(mul(x, gamma))
        assert r1.rep.coords == r2.rep.coords


def test_manifold_point_equality_and_hash(heis):
    rng = np.random.default_rng(61)
    for _ in range(30):
        x = rand_point(rng, heis)
        gamma = from_second_kind(
            heis, tuple(int(k) for k in rng.integers(-2, 3, size=3)))
        p, _ = reduce(x)
        q, _ = reduce(mul(x, gamma))
        assert p == q
        assert hash(p) == hash(q)
        assert len({p, q}) == 1


def test_float_points_supported(heis):
    x = point(heis, np.array([0.25, 0.5, 0.125]), exact=False)
    assert not x.exact
    y = mul(x, inv(x))
    assert np.allclose(np.asarray(y.coords, dtype=float), 0.0)


def batch_rows(cols, n):
    """The rows of an ExactBatch as tuples of Fractions."""
    return [tuple(Fraction(0) if c is None else Fraction(int(c[0][i]), c[1])
                  for c in cols) for i in range(n)]


@pytest.mark.parametrize("system", ["heis", "ex5", "filiform3", "filiform4"])
@pytest.mark.parametrize("dtype", [np.int64, object])
def test_exact_batch_matches_scalar_group_law(request, system, dtype):
    g = request.getfixturevalue(system)
    g = getattr(g, "algebra", g)
    rng = np.random.default_rng(79)
    xs = [rand_point(rng, g, span=3, max_den=4) for _ in range(40)]
    ys = [rand_point(rng, g, span=3, max_den=4) for _ in range(40)]
    ops = ExactBatch(g, dtype)
    X = ops.cast(exact_columns([x.coords for x in xs]))
    Y = ops.cast(exact_columns([y.coords for y in ys]))
    n = len(xs)
    assert batch_rows(ops.bch(X, Y), n) == [mul(x, y).coords for x, y in zip(xs, ys)]
    T = ops.to_second_kind(X)
    assert batch_rows(T, n) == [to_second_kind(x) for x in xs]
    assert batch_rows(ops.from_second_kind(T), n) == [x.coords for x in xs]
    reduced = [reduce(x)[0] for x in xs]
    rep, key = ops.reduce(X)
    assert batch_rows(rep, n) == [r.rep.coords for r in reduced]
    assert batch_rows(key, n) == [r.key() for r in reduced]

