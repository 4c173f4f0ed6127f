"""Preimage fibers, covering radii, and the density budget."""

from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from nilflow import density
from nilflow.density import (
    BudgetError,
    CosetSystem,
    DensityReport,
    _fibre_levels,
    coset_representatives,
    covering_radius,
    density_experiment,
    points_to_second_kind_array,
    preimages,
)
from nilflow.endo import EndoError
from nilflow.fastops import BatchOps, CoveringRadius, _translate_box
from nilflow.nilgroup import (
    GroupPoint,
    ManifoldPoint,
    from_second_kind,
    identity,
    manifold_dist,
    mul,
    point,
    reduce,
)
from tests.conftest import rand_rationals


@pytest.fixture
def torus_base(torus2):
    return ManifoldPoint(identity(torus2))


@pytest.fixture
def heis_base(heis):
    return ManifoldPoint(identity(heis))


def test_preimage_counts_doubling(doubling, torus_base):
    for k in (1, 2, 3):
        fib = preimages(doubling, torus_base, k)
        assert len(fib) == 4 ** k
        assert len(set(fib)) == 4 ** k


def test_preimage_counts_heisenberg(heis_am, heis_base):
    for k in (1, 2):
        fib = preimages(heis_am, heis_base, k)
        assert len(set(fib)) == 16 ** k


def test_preimages_forward_map_exactly(heis_am, heis_base):
    fib = preimages(heis_am, heis_base, 1)
    for p in fib:
        q, _ = reduce(heis_am.apply(p.rep))
        assert q == heis_base


def test_preimages_of_generic_point(heis_am, heis):
    rng = np.random.default_rng(67)
    x, _ = reduce(point(heis, rand_rationals(rng, 3)))
    fib = preimages(heis_am, x, 1)
    assert len(set(fib)) == 16
    for p in fib:
        q, _ = reduce(heis_am.apply(p.rep))
        assert q == x


def test_invertible_map_single_preimage(cat_map, torus_base):
    for k in (1, 2, 3):
        fib = preimages(cat_map, torus_base, k)
        assert len(fib) == 1


def test_covering_radius_regular_grid(torus2):
    # the 2^-k lattice on the 2-torus has covering radius sqrt(2)/2 * 2^-k
    for k in (1, 2, 3):
        n = 2 ** k
        pts = np.stack(np.meshgrid(*(np.arange(n) / n,) * 2),
                       axis=-1).reshape(-1, 2)
        r = covering_radius(pts, algebra=torus2, grid_n=129)
        assert r == pytest.approx(np.sqrt(2) / 2 / n, rel=0.05)


def test_covering_radius_single_point(torus2):
    r = covering_radius(np.zeros((1, 2)), algebra=torus2, grid_n=65)
    # worst point of the unit 2-torus sits half a diagonal away
    assert 0.5 <= r <= np.sqrt(2) / 2 + 0.01


def test_density_experiment_report(heis_am, heis_base):
    rep = density_experiment(heis_am, heis_base, 3)
    assert rep.counts == [16, 256, 4096]
    assert rep.lookups == ["grid"] * 3
    # (sample, horizontal location, horizontal translate) candidates
    assert [c for c, _ in rep.pairs] == [33 ** 3 * 4 ** k * 9 for k in (1, 2, 3)]
    assert all(0 < e < c for c, e in rep.pairs)
    assert all(b < a for a, b in zip(rep.radii, rep.radii[1:]))
    ratios = [b / a for a, b in zip(rep.radii, rep.radii[1:])]
    assert all(r <= 0.8 for r in ratios)
    assert 0 < rep.fitted_mu < 1
    csv = rep.to_csv()
    assert csv.splitlines()[0] == "k,count,covering_radius,ratio"
    assert "fitted_mu" in csv.splitlines()[-1]


def test_density_experiment_requires_depth(heis_am, heis_base):
    with pytest.raises(ValueError):
        density_experiment(heis_am, heis_base, 1)


def test_budget_cap(monkeypatch, heis_am, heis_base):
    monkeypatch.setenv("NILFLOW_MAX_POINTS", "100")
    with pytest.raises(BudgetError):
        density_experiment(heis_am, heis_base, 2)


def test_budget_env_must_be_integer(monkeypatch, heis_am, heis_base):
    monkeypatch.setenv("NILFLOW_MAX_POINTS", "lots")
    with pytest.raises(BudgetError):
        density_experiment(heis_am, heis_base, 2)


# -- batched exact levels against the scalar Fraction loop ---------------------

def oracle_levels(am, x, k, cosets):
    """Levels 1..k of the fibre, one point at a time in Fraction arithmetic."""
    psi_inv = am.matrix.inverse()
    levels, level = [], [x]
    for _ in range(k):
        level = [reduce(GroupPoint(am.algebra, psi_inv.matvec(mul(y.rep, g).coords)))[0]
                 for y in level for g in cosets.transversal]
        levels.append(level)
    return levels


def assert_matches_oracle(am, x, k):
    """Keys, representatives and float coordinates (bitwise) of every level
    agree with the oracle; returns the batched levels."""
    cosets = coset_representatives(am)
    want = oracle_levels(am, x, k, cosets)
    got = list(_fibre_levels(am, x, k, cosets))
    assert len(got) == len(want) == k
    for level, ref in zip(got, want):
        pts = level.points(am.algebra)
        assert [p.key() for p in pts] == [p.key() for p in ref]
        assert [p.rep.coords for p in pts] == [p.rep.coords for p in ref]
        floats = np.array([[float(c) for c in p.key()] for p in ref])
        assert level.floats().tobytes() == floats.tobytes()
    assert preimages(am, x, k, cosets) == want[-1]
    return got


def generic_base(am, seed):
    rng = np.random.default_rng(seed)
    return reduce(point(am.algebra, rand_rationals(rng, am.algebra.dim)))[0]


@pytest.mark.parametrize("system,k", [
    ("heis_am", 3), ("ex5_am", 2), ("doubling", 3), ("cat_map", 3),
    ("filiform3", 2), ("filiform4", 1),
])
def test_levels_match_scalar_oracle(request, system, k):
    am = request.getfixturevalue(system)
    levels = assert_matches_oracle(am, generic_base(am, 71), k)
    assert all(level.dtype is np.int64 for level in levels)


def test_step4_second_level_counts_and_maps_forward(filiform4):
    x = generic_base(filiform4, 71)
    cosets = coset_representatives(filiform4)
    prev = set(preimages(filiform4, x, 1, cosets))
    fib = preimages(filiform4, x, 2, cosets)
    assert len(fib) == len(set(fib)) == 128 ** 2
    rng = np.random.default_rng(5)
    for i in rng.choice(len(fib), size=256, replace=False):
        q, _ = reduce(filiform4.apply(fib[i].rep))
        assert q in prev


def test_overflowing_level_takes_python_ints(heis_am, heis):
    p = 2 ** 31 - 1
    t = [Fraction(1, p), Fraction(5, p), Fraction(p - 7, p)]
    x = ManifoldPoint(from_second_kind(heis, t, exact=True))
    levels = assert_matches_oracle(heis_am, x, 2)
    assert levels[0].dtype is object


def test_repeated_transversal_element_is_an_error(heis_am, heis_base):
    cosets = coset_representatives(heis_am)
    bad = CosetSystem(heis_am, [cosets.transversal[0]] * cosets.index,
                      cosets.index, cosets.block_diagonals)
    with pytest.raises(EndoError):
        preimages(heis_am, heis_base, 1, cosets=bad)


def test_duplicated_transversal_element_is_found(monkeypatch, heis_am):
    """Index 4,096: one central residue repeated makes 64 equivalent pairs
    among 8.4 million, so the check must be complete, not sampled."""
    am = heis_am.power(3)
    residues = density.block_residues

    def repeat_one(block):
        reps, diag = residues(block)
        if block.n == 1:
            reps[-1] = reps[0]
        return reps, diag

    assert coset_representatives(am).index == 4096
    monkeypatch.setattr(density, "block_residues", repeat_one)
    with pytest.raises(EndoError, match="not a transversal"):
        coset_representatives(am)


# -- covering-radius kernels against the scalar manifold distance --------------

def fibre_sk(am, k, seed=71):
    return points_to_second_kind_array(preimages(am, generic_base(am, seed), k))


def drop_inner_member(points, d1):
    """The set without the second member of the first column, ordered by
    the first central coordinate; that column is then no longer a full
    product of arithmetic progressions."""
    col = np.flatnonzero((points[:, :d1] == points[0, :d1]).all(axis=1))
    col = col[np.argsort(points[col, d1], kind="stable")]
    assert len(col) >= 3
    return np.delete(points, col[1], axis=0)


def oracle_min_dists(algebra, samples, points):
    """Per sample, the minimum of the scalar manifold_dist over the points."""
    def mp(t):
        return ManifoldPoint(from_second_kind(algebra, t, exact=False))
    pts = [mp(p) for p in points]
    return np.array([min(manifold_dist(mp(x), y) for y in pts)
                     for x in samples])


@pytest.mark.parametrize("system,k,grid_n,thin", [
    ("doubling", 2, 4, False),     # step 1
    ("heis_am", 1, 3, False),      # step 2, arithmetic-progression columns
    ("heis_am", 1, 3, True),       # step 2, an uneven 1-dim column
    ("ex5_am", 1, 2, False),       # step 2, 2-dim center, grid columns
    ("ex5_am", 1, 2, True),        # step 2, an uneven 2-dim column
    ("filiform3", 1, 2, False),    # step 3, translate box
])
def test_min_dist_matches_manifold_dist(request, system, k, grid_n, thin):
    am = request.getfixturevalue(system)
    points = fibre_sk(am, k)
    if thin:
        points = drop_inner_member(points, am.algebra.layer_dims[0])
    cr = CoveringRadius(am.algebra)
    samples = cr.grid(grid_n)
    got = cr.min_dist_to_set(samples, points)
    want = oracle_min_dists(am.algebra, samples, points)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def diagonal_column(m):
    """One column whose m central values per axis are progressions, paired
    along the diagonal instead of forming their full product."""
    diag = np.repeat(np.arange(m)[:, None] / m, 2, axis=1)
    return np.concatenate([np.zeros((m, 3)), diag], axis=1)


def takes_grid_lookup(algebra, points):
    d1 = algebra.layer_dims[0]
    hloc, inv = np.unique(points[:, :d1], axis=0, return_inverse=True)
    lookup = CoveringRadius(algebra)._grid_lookup(points[:, d1:],
                                                  np.ravel(inv), len(hloc))
    return lookup is not None


def test_uneven_column_takes_the_member_lookup(heis_am, ex5_am):
    heis, ex5 = fibre_sk(heis_am, 1), fibre_sk(ex5_am, 3)
    for am, pts, grid in ((heis_am, heis, True),
                          (heis_am, drop_inner_member(heis, 2), False),
                          (ex5_am, ex5, True),
                          (ex5_am, drop_inner_member(ex5, 3), False),
                          (ex5_am, diagonal_column(4), False)):
        assert takes_grid_lookup(am.algebra, pts) == grid


@pytest.mark.parametrize("k", [1, 2, 3])
def test_grid_lookup_matches_member_lookup(monkeypatch, ex5_am, k):
    points = fibre_sk(ex5_am, k)
    assert takes_grid_lookup(ex5_am.algebra, points)
    cr = CoveringRadius(ex5_am.algebra)
    samples = cr.grid(4)
    grid = cr.min_dist_to_set(samples, points)
    monkeypatch.setattr(CoveringRadius, "_grid_lookup", lambda *args: None)
    member = cr.min_dist_to_set(samples, points)
    np.testing.assert_allclose(grid, member, rtol=0, atol=1e-12)


@pytest.mark.parametrize("system,k,grid_n,radius,thin", [
    ("heis_am", 3, 28, 1, False),   # grid lookup, 1-dim center
    ("ex5_am", 4, 9, 0, False),     # grid lookup, 2-dim center
    ("ex5_am", 2, 8, 1, True),      # member lookup, 2-dim center
], ids=["heis_am-3-28", "ex5_am-4-9", "ex5_am-2-8-thin"])
def test_threads_give_bitwise_equal_distances(monkeypatch, request, system,
                                              k, grid_n, radius, thin):
    """Each case is large enough for at least two sample chunks."""
    am = request.getfixturevalue(system)
    points = fibre_sk(am, k)
    if thin:
        points = drop_inner_member(points, am.algebra.layer_dims[0])
    samples = CoveringRadius(am.algebra).grid(grid_n)
    one = CoveringRadius(am.algebra, radius, threads=1).min_dist_to_set(
        samples, points)
    chunks = []

    class Pool(ThreadPoolExecutor):
        def submit(self, fn, *args):
            chunks.append(len(args[0]))
            return super().submit(fn, *args)

    monkeypatch.setattr("nilflow.fastops.ThreadPoolExecutor", Pool)
    two = CoveringRadius(am.algebra, radius, threads=2).min_dist_to_set(
        samples, points)
    assert len(chunks) >= 2 and sum(chunks) == len(samples)
    assert two.tobytes() == one.tobytes()


def test_dense_kernels_record_every_pair(doubling, filiform3):
    for am, lookup, translates in ((doubling, "torus", 1), (filiform3, "box", 81)):
        points = fibre_sk(am, 1)
        cr = CoveringRadius(am.algebra)
        cr(points, 3)
        n = 3 ** am.algebra.dim * len(points) * translates
        assert [(r.lookup, r.candidates, r.evaluated) for r in cr.records] == [
            (lookup, n, n)]


# -- the pruned step-2 kernel against the unpruned evaluation -----------------

def unpruned_min_dists(algebra, R, samples, points):
    """The step-2 column kernel without the |h|^2 bound: one BCH and one
    best-member lookup per (sample, location, horizontal translate), the
    grid lookup where every column is a product of progressions and the
    member lookup otherwise."""
    ops = BatchOps(algebra)
    d, d1 = algebra.dim, algebra.layer_dims[0]
    hloc, inv = np.unique(points[:, :d1], axis=0, return_inverse=True)
    inv, U, center = np.ravel(inv), len(hloc), points[:, d1:]
    Yloc = ops.from_second_kind(
        np.concatenate([hloc, np.zeros((U, d - d1))], axis=1))
    lookup = unpruned_grid_lookup(center, inv, U, R)
    if lookup is None:
        def lookup(hh, q):
            c = center[None, :, :] - q[:, inv, :]
            c += np.clip(np.round(-c), -R, R)
            cc = np.sqrt(np.einsum("spk,spk->sp", c, c))
            return np.maximum(hh[:, inv], cc).min(axis=1)
    Ygs = [ops.bch(Yloc, ops.from_second_kind(np.concatenate([n1, np.zeros(d - d1)])))
           for n1 in _translate_box(d1, R)]
    best = np.full(len(samples), np.inf)
    step = max(1, int(2e6 // (U * d + points.size)))
    for a in range(0, len(samples), step):
        X = ops.from_second_kind(samples[a:a + step])
        for Yg in Ygs:
            W0 = ops.bch(Yg[None, :, :], -X[:, None, :])
            h = W0[..., :d1]
            best[a:a + step] = np.minimum(best[a:a + step], lookup(
                np.einsum("suk,suk->su", h, h), -W0[..., d1:]))
    return np.sqrt(best)


def unpruned_grid_lookup(center, inv, U, R):
    """The grid lookup over all pairs, one column at a time with np.unique
    per axis, or None where a column is not a product of progressions."""
    order = np.argsort(inv, kind="stable")
    bounds = np.searchsorted(inv[order], np.arange(U + 1))
    c0, steps, lens = (np.ones((U, center.shape[1])) for _ in range(3))
    for u in range(U):
        col = center[order[bounds[u]:bounds[u + 1]]]
        axes = [np.unique(a) for a in col.T]
        lens[u] = [len(a) for a in axes]
        if (len(np.unique(col, axis=0)) != np.prod(lens[u])
                or any(len(a) > 2 and np.ptp(np.diff(a)) > 1e-12 for a in axes)):
            return None
        c0[u] = [a[0] for a in axes]
        steps[u] = [a[1] - a[0] if len(a) > 1 else 1.0 for a in axes]

    def lookup(hh, q):
        cent = np.full(q.shape, np.inf)
        for s in range(-R, R + 1):
            k = np.clip(np.round((q - s - c0) / steps), 0, lens - 1)
            cent = np.minimum(cent, (c0 + k * steps + s - q) ** 2)
        return np.maximum(hh, np.sqrt(cent.sum(axis=-1))).min(axis=1)

    return lookup


@pytest.mark.parametrize("system,k,grid_n", [
    ("heis_am", 1, 17), ("heis_am", 2, 17), ("heis_am", 3, 17), ("heis_am", 4, 17),
    ("ex5_am", 1, 5), ("ex5_am", 2, 5), ("ex5_am", 3, 5),
])
def test_pruned_kernel_is_bitwise_unpruned(request, system, k, grid_n):
    """Full columns (grid lookup) and thinned ones (member lookup) at search
    radius 0, 1 and 2.  The unpruned member lookup takes one step per
    (sample, member, translate), so thinned fibres run where those are at
    most 5e7: up to k=2 and k=3 at radius 0 on Heisenberg, and up to k=2
    and k=3 at radius 0 and 1 on example5d."""
    am = request.getfixturevalue(system)
    d1 = am.algebra.layer_dims[0]
    full = fibre_sk(am, k)
    thin = drop_inner_member(full, d1)
    samples = CoveringRadius(am.algebra).grid(grid_n)
    for R in (0, 1, 2):
        for points, lookup in ((full, "grid"), (thin, "member")):
            if (lookup == "member"
                    and len(samples) * len(points) * (2 * R + 1) ** d1 > 5e7):
                continue
            cr = CoveringRadius(am.algebra, R)
            got = cr.min_dist_to_set(samples, points)
            want = unpruned_min_dists(am.algebra, R, samples, points)
            assert got.tobytes() == want.tobytes()
            assert cr.records[-1].lookup == lookup


def test_prune_evaluates_few_pairs(heis_am):
    """Heisenberg k=4 at grid 17: 9 x 4,913 x 256 candidate pairs, of which
    the |h|^2 bound leaves under 5% to evaluate."""
    cr = CoveringRadius(heis_am.algebra)
    cr(fibre_sk(heis_am, 4), 17)
    (rec,) = cr.records
    assert rec.candidates == 9 * 17 ** 3 * 256
    assert rec.evaluated < 0.05 * rec.candidates
