"""Output checks.  Each function takes plain data and returns a list of
failure messages (empty when the output is right).

Every check compares against a computation of reference.py or against a
property the method must have, never against a stored copy of an earlier
output.
"""

from __future__ import annotations

import math

import numpy as np

from reference import covering_radius, grid, min_distances, minimal_period_counts

EXACT_RADIUS_TOL = 1e-9       # brute-force radius agreement at small depth
CLOSURE_TOL = 1e-8            # orbit closure under the benchmark's own map
SPREAD_TOL = 1e-3             # conjugated control: exponent spread
MEAN_TOL = 1e-3               # conjugated control: mean vs log(3 - sqrt 5)
RATE_SLACK = 2e-3             # conjugacy residual ratio above the stable rate


def check_fibre(system, coords, keys, prev_keys, k, rng, sample=64):
    """One preimage level as nilflow returned it: exact first-kind
    coordinates of the representatives and their second-kind keys.

    The keys must be canonical (in [0, 1)^d) and distinct, and there must
    be index^k of them.  On a seeded sample, each key must be the
    reference's second-kind coordinates of its representative, and the
    representative must map under Psi onto a coset of the previous level.
    """
    fails = []
    expected = system.index() ** k
    if len(keys) != expected or len(coords) != len(keys):
        fails.append(f"k={k}: {len(keys)} points, expected {expected}")
    if not all(0 <= c < 1 for key in keys for c in key):
        fails.append(f"k={k}: a representative lies outside [0,1)^d")
    if len(set(keys)) != len(keys):
        fails.append(f"k={k}: {len(keys) - len(set(keys))} repeated cosets")
    for i in rng.sample(range(len(keys)), min(sample, len(keys))):
        if system.to_second_kind(coords[i]) != tuple(keys[i]):
            fails.append(f"k={k}: point {i} has key {keys[i]}, its "
                         f"representative {coords[i]}")
            break
        if system.reduce_key(system.apply_psi(coords[i])) not in prev_keys:
            fails.append(f"k={k}: point {i} does not map onto level {k - 1}")
            break
    return fails


def check_radii(system, radii, levels_sk, grid_n, rng, exact_depth=2,
                nodes=64, R=1):
    """Reported covering radii against the brute-force definition: equal to
    EXACT_RADIUS_TOL up to exact_depth; deeper, no smaller than the least
    distance at each of a seeded subset of grid nodes."""
    fails = []
    for k, (r, pts) in enumerate(zip(radii, levels_sk), start=1):
        if k <= exact_depth:
            ref = covering_radius(system, pts, grid_n, R)
            if not abs(ref - r) <= EXACT_RADIUS_TOL:
                fails.append(f"k={k}: radius {r!r}, brute force {ref!r}")
            continue
        g = grid(system.dim, grid_n)
        pick = np.array(rng.sample(range(len(g)), min(nodes, len(g))))
        low = float(min_distances(system, g[pick], pts, R).max())
        if not low <= r + 1e-12:
            fails.append(f"k={k}: radius {r!r} below a node's distance {low!r}")
    return fails


def check_decay(radii, ratios, fitted_mu, max_ratio=0.8):
    """Totally non-invertible map: radii fall geometrically."""
    fails = []
    if any(b >= a for a, b in zip(radii, radii[1:])):
        fails.append(f"radii do not decrease: {radii}")
    own = [b / a for a, b in zip(radii, radii[1:])]
    if len(ratios) != len(own) or any(abs(x - y) > 1e-12 for x, y in zip(ratios, own)):
        fails.append(f"ratios {ratios} do not match the radii")
    if any(not x <= max_ratio for x in ratios):
        fails.append(f"a ratio exceeds {max_ratio}: {ratios}")
    if not fitted_mu < 1:
        fails.append(f"fitted_mu {fitted_mu} is not below 1")
    return fails


def check_stall(radii, floor=0.3, min_last_ratio=0.75):
    """Negative control (not totally non-invertible): radii stall.

    Each grid estimate can move by up to a mesh width with the base point,
    so on a coarse grid the last-to-first ratio of a stalled sequence can
    sit well below 1 (0.83 on some base points at grid 5); a decaying one
    (ratios <= 0.8 per level) is below 0.64 after two levels.
    """
    fails = []
    if not min(radii) > floor:
        fails.append(f"smallest radius {min(radii)} is not above {floor}")
    if not radii[-1] / radii[0] > min_last_ratio:
        fails.append(f"last/first radius {radii[-1] / radii[0]} is not above "
                     f"{min_last_ratio}")
    return fails


def check_periodic(system, fmap, P, orbits, tol, rng, sample=64):
    """Orbits of period dividing P, given as (period, cycle points in
    second-kind coordinates, Newton residual)."""
    fails = []
    expected = system.lefschetz(P)
    found = sum(period for period, _, _ in orbits)
    if found != expected:
        fails.append(f"P={P}: {found} periodic points, Lefschetz count {expected}")
    for period, pts, res in orbits:
        if len(pts) != period or P % period or not res <= tol:
            fails.append(f"P={P}: malformed orbit (period {period}, "
                         f"{len(pts)} points, residual {res})")
            break
    if orbits:
        allpts = np.concatenate([pts for _, pts, _ in orbits])
        if len(np.unique(np.round(allpts, 9), axis=0)) != len(allpts):
            fails.append(f"P={P}: repeated periodic points")
        for i in rng.sample(range(len(orbits)), min(sample, len(orbits))):
            defect = fmap.closure_defect(orbits[i][1])
            if not defect <= CLOSURE_TOL:
                fails.append(f"P={P}: orbit {i} misses closure by {defect}")
                break
    return fails


def check_rigidity(system, p_max, periods, exponents, algebraic_exponent):
    """Conjugated control: every orbit up to p_max once, all carrying the
    algebraic stable exponent log(3 - sqrt 5)."""
    fails = []
    least = minimal_period_counts(system, p_max)
    want_orbits = sum(n // P for P, n in least.items())
    if len(periods) != want_orbits or sum(periods) != sum(least.values()):
        fails.append(f"{len(periods)} orbits with {sum(periods)} points, "
                     f"expected {want_orbits} with {sum(least.values())}")
    lam_s = math.log(system.stable_eigen()[0])
    if not abs(algebraic_exponent - lam_s) <= 1e-12:
        fails.append(f"algebraic exponent {algebraic_exponent} != {lam_s}")
    if exponents:
        spread = max(exponents) - min(exponents)
        mean = float(np.mean(exponents))
        if not spread < SPREAD_TOL:
            fails.append(f"exponent spread {spread} is not below {SPREAD_TOL}")
        if not abs(mean - lam_s) <= MEAN_TOL:
            fails.append(f"mean exponent {mean} is not within {MEAN_TOL} of {lam_s}")
    return fails


def check_conjugacy(system, history, residual, sup_displacement, tol, amplitude):
    """Conjugacy solve: converged below tol, displacement at most ten times
    the amplitude, and residuals contracting no slower than the stable
    eigenvalue (plus RATE_SLACK)."""
    fails = []
    res = [r for _, r, _ in history]
    if not res or res[-1] != residual or not residual < tol:
        fails.append(f"residual {residual} is not below tol {tol}")
    if not sup_displacement <= 10 * amplitude:
        fails.append(f"sup displacement {sup_displacement} exceeds 10 x {amplitude}")
    rate = system.stable_eigen()[0] + RATE_SLACK
    worst = max((b / a for a, b in zip(res, res[1:])), default=0.0)
    if not worst <= rate:
        fails.append(f"residual ratio {worst} exceeds {rate}")
    return fails
