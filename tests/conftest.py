"""Shared fixtures: the two worked examples plus torus controls."""

from fractions import Fraction

import pytest

from nilflow.endo import AutoMap
from nilflow.liealg import abelian, from_sparse_triples, heisenberg
from nilflow.ratcore import RatMatrix

HEIS_MATRIX = [[4, 2, 0], [2, 2, 0], [0, 0, 4]]
EX5_MATRIX = [
    [2, 0, 0, 0, 0],
    [0, 2, 1, 0, 0],
    [0, 1, 1, 0, 0],
    [0, 0, 0, 4, 2],
    [0, 0, 0, 2, 2],
]


@pytest.fixture(scope="session")
def heis():
    return heisenberg()


@pytest.fixture(scope="session")
def heis_am(heis):
    return AutoMap(heis, RatMatrix(HEIS_MATRIX))


@pytest.fixture(scope="session")
def ex5():
    # 2-step, layers (3, 2): [b1, b2] = b4, [b1, b3] = b5
    return from_sparse_triples(5, [(1, 2, 4, 1), (1, 3, 5, 1)])


@pytest.fixture(scope="session")
def ex5_am(ex5):
    return AutoMap(ex5, RatMatrix(EX5_MATRIX))


@pytest.fixture(scope="session")
def torus2():
    return abelian(2)


@pytest.fixture(scope="session")
def doubling(torus2):
    return AutoMap(torus2, RatMatrix([[2, 0], [0, 2]]))


@pytest.fixture(scope="session")
def cat_map(torus2):
    # invertible over Z: every eigenvalue is a unit
    return AutoMap(torus2, RatMatrix([[2, 1], [1, 1]]))


def filiform(step):
    """[X1, Xj] = X(j+1) for j = 2..step, with psi = diag(2, -1, -2, -4, ...):
    index 2 * 2 * 4 = 16 at step 3, 16 * 8 = 128 at step 4."""
    d = step + 1
    alg = from_sparse_triples(d, [(1, j, j + 1, 1) for j in range(2, d)])
    diag = [2, -1] + [-(2 ** j) for j in range(1, d - 1)]
    rows = [[diag[i] if i == j else 0 for j in range(d)] for i in range(d)]
    return AutoMap(alg, RatMatrix(rows))


@pytest.fixture(scope="session")
def filiform3():
    return filiform(3)


@pytest.fixture(scope="session")
def filiform4():
    return filiform(4)


def rand_rationals(rng, n, span=6, max_den=8):
    """n exact rationals p/q with |p/q| <= span and q <= max_den."""
    dens = rng.integers(1, max_den + 1, size=n)
    nums = rng.integers(-span, span + 1, size=n) * dens + rng.integers(
        0, dens)
    return tuple(Fraction(int(p), int(q)) for p, q in zip(nums, dens))
