"""Batched float group operations on numpy arrays.

Internal engine behind the density and dynamics modules.  Points are rows
of (..., d) arrays; every operation broadcasts.  Semantics mirror the
scalar exact routines in liealg/nilgroup, in float64.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product

import numpy as np

from .liealg import LieAlgebra


class BatchOps:
    """Vectorized BCH arithmetic for one algebra."""

    def __init__(self, algebra: LieAlgebra):
        self.alg = algebra
        self.d = algebra.dim
        self.step = algebra.step
        self.B = algebra.bracket_tensor
        self.slices = algebra.layer_slices
        self.triples = [(i, j, k, float(c))
                        for (i, j, k), c in algebra.triples.items()]

    # -- group law ---------------------------------------------------------

    def bracket(self, X, Y):
        # sparse loop over structure triples; broadcasting stays lazy,
        # unlike an einsum over the dense tensor
        shape = np.broadcast_shapes(np.shape(X), np.shape(Y))
        out = np.zeros(shape)
        for i, j, k, c in self.triples:
            out[..., k] += c * (X[..., i] * Y[..., j] - X[..., j] * Y[..., i])
        return out

    def bch(self, X, Y):
        b1 = self.bracket(X, Y)
        z = X + Y + 0.5 * b1
        if self.step >= 3:
            z = z + (self.bracket(X, b1) - self.bracket(Y, b1)) / 12.0
            if self.step >= 4:
                z = z - self.bracket(Y, self.bracket(X, b1)) / 24.0
        return z

    def bch_tangent(self, X, dX, Y, dY):
        """(bch(X, Y), its derivative), forward mode.

        dX and dY are (..., m, d) stacks of m tangent vectors at X and Y;
        the derivative is the matching (..., m, d) stack at bch(X, Y).  It
        is exact, since the series terminates and the bracket is bilinear.
        The value is computed by the same operations as bch, so it is
        bitwise equal to bch(X, Y).
        """
        br = self.bracket
        Xm, Ym = X[..., None, :], Y[..., None, :]
        b1 = br(X, Y)
        db1 = br(dX, Ym) + br(Xm, dY)
        z = X + Y + 0.5 * b1
        dz = dX + dY + 0.5 * db1
        if self.step >= 3:
            b1m = b1[..., None, :]
            c = br(X, b1)
            dc = br(dX, b1m) + br(Xm, db1)
            z = z + (c - br(Y, b1)) / 12.0
            dz = dz + (dc - br(dY, b1m) - br(Ym, db1)) / 12.0
            if self.step >= 4:
                z = z - br(Y, c) / 24.0
                dz = dz - (br(dY, c[..., None, :]) + br(Ym, dc)) / 24.0
        return z, dz

    def ad(self, X):
        """Batched ad_X matrices: (..., d, d) with (ad_X)[k, j] = [X, e_j]_k."""
        return np.einsum("...i,ijk->...kj", X, self.B)

    def right_translation_differential(self, X):
        """d/dW bch(W, X) at W = 0, exactly I - ad_X/2 + ad_X^2/12.

        This is the differential of right translation by exp(X) at the
        identity, in first-kind coordinates; the series terminates because
        ad is nilpotent of step <= 4 and the cubic coefficient vanishes.
        """
        A = self.ad(X)
        I = np.broadcast_to(np.eye(self.d), A.shape).copy()
        return I - 0.5 * A + (A @ A) / 12.0

    # -- coordinates -------------------------------------------------------

    def to_second_kind(self, X):
        X = np.asarray(X, dtype=float)
        r = X.copy()
        t = np.empty_like(r)
        for j in range(self.d):
            t[..., j] = r[..., j]
            ej = np.zeros(r.shape)
            ej[..., j] = -r[..., j]
            r = self.bch(ej, r)
        return t

    def from_second_kind(self, T):
        T = np.asarray(T, dtype=float)
        r = np.zeros(T.shape)
        for j in range(self.d):
            ej = np.zeros(T.shape)
            ej[..., j] = T[..., j]
            r = self.bch(r, ej)
        return r

    def reduce(self, X):
        """Reduce first-kind coords mod the lattice.

        Returns (first-kind coords of the representative, second-kind
        coords in [0,1)^d, integer word of the applied translate).
        """
        r = np.asarray(X, dtype=float).copy()
        word = np.zeros(r.shape)
        for sl in self.slices:
            t = self.to_second_kind(r)
            m = np.floor(t[..., sl])
            if not np.any(m):
                continue
            step_vec = np.zeros(r.shape)
            step_vec[..., sl] = -m
            g = self.from_second_kind(step_vec)
            r = self.bch(r, g)
            word[..., sl] = -m
        return r, self.to_second_kind(r), word

    # -- quasi-norm and distances -------------------------------------------

    def quasi_norm(self, W):
        W = np.asarray(W, dtype=float)
        q = np.zeros(W.shape[:-1])
        for i, sl in enumerate(self.slices, start=1):
            ns = np.sqrt(np.einsum("...i,...i->...", W[..., sl], W[..., sl]))
            q = np.maximum(q, ns ** (1.0 / i))
        return q


def _translate_box(dims, radius):
    return [np.array(v, dtype=float)
            for v in product(range(-radius, radius + 1), repeat=dims)]


def sorted_rows(rows: np.ndarray):
    """(order, starts) for the rows of a 2-d array: one np.lexsort order
    that sorts them, and the positions in that order where a new distinct
    row begins.  len(starts) is the number of distinct rows."""
    order = np.lexsort(rows.T[::-1])
    s = rows[order]
    new = np.ones(len(s), dtype=bool)
    new[1:] = np.any(s[1:] != s[:-1], axis=1)
    return order, np.flatnonzero(new)


@dataclass
class KernelRecord:
    """What one covering-radius call did."""

    lookup: str        # "torus" (step 1), "grid" or "member" (step 2), "box"
    candidates: int    # (sample, point or location, translate) pairs
    evaluated: int     # of those, the pairs whose distance was computed


class CoveringRadius:
    """max over a second-kind grid of min manifold distance to a point set.

    The grid is {0, 1/n, ..., (n-1)/n}^d.  Distances minimize rho over
    lattice translates in the [-R, R]^d box, by one kernel per step:

    * step 1: the torus distance, each coordinate difference rounded;
    * step 2: points are grouped into columns that share a horizontal
      location.  The center of log(y gamma x^{-1}) is the center of y plus
      an offset that depends only on the horizontal data, so one BCH
      evaluation per (sample, location, horizontal translate) covers a whole
      column.  When every column is a full product of per-axis arithmetic
      progressions (as in preimage fibres) its best member and central
      translate are one clamped round per axis; otherwise every member is
      rounded to its nearest central translate.
      The horizontal part of that BCH is a plain difference h, and the
      squared quasi-norm max(|h|^2, |c|) is at least |h|^2, so |h|^2 is
      an exact lower bound.  Each sample is first bounded by its
      horizontally nearest location under the zero translate; then, one
      horizontal translate at a time, only the locations whose |h|^2 is
      below the sample's best so far are evaluated (a few per cent of the
      pairs in a deep fibre).  A pruned pair cannot lower a minimum, and
      an evaluated one is computed as without pruning, so the distances
      are the same to the bit;
    * steps 3 and 4: the whole translate box is enumerated.

    Samples are split into chunks whose arrays hold about 4e6 floats
    (at step 2 the |h|^2 array of one translate and its differences, plus
    every column member for the member lookup; taking one translate at a
    time keeps the survivors small, and they are evaluated at most one
    pair per sample at a time, so a chunk's memory does not depend on how
    many survive), and chunks run on `threads` worker threads.  Each call
    appends a KernelRecord to `records`.
    """

    def __init__(self, algebra: LieAlgebra, search_radius: int = 1,
                 threads: int = 1):
        self.ops = BatchOps(algebra)
        self.alg = algebra
        self.R = int(search_radius)
        self.threads = max(1, int(threads))
        self.records: list[KernelRecord] = []

    def grid(self, n: int) -> np.ndarray:
        d = self.alg.dim
        axes = [np.arange(n) / n] * d
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def __call__(self, points_sk: np.ndarray, grid_n: int) -> float:
        samples = self.grid(grid_n)
        mins = self.min_dist_to_set(samples, points_sk)
        return float(np.max(mins))

    # -- distance of many samples to one point set --------------------------

    def min_dist_to_set(self, samples_sk: np.ndarray,
                        points_sk: np.ndarray) -> np.ndarray:
        points_sk = np.asarray(points_sk, dtype=float)
        if self.alg.step == 1:
            kernel = self._dense_kernel(self._abelian_chunk, points_sk,
                                        "torus", 1)
        elif self.alg.step == 2:
            kernel = self._column_kernel(points_sk)
        else:
            kernel = self._dense_kernel(self._box_chunk, points_sk, "box",
                                        (2 * self.R + 1) ** self.alg.dim)
        fn, per_sample, lookup, pairs = kernel
        out, evaluated = self._run_chunked(fn, per_sample, samples_sk)
        self.records.append(
            KernelRecord(lookup, len(samples_sk) * pairs, evaluated))
        return out

    def _run_chunked(self, fn, per_sample, samples_sk):
        """fn(chunk) over sample chunks of 4e6 // per_sample rows,
        per_sample being the floats fn allocates per sample.  fn returns
        (distances, evaluated pairs), and so does this, over all chunks."""
        S = len(samples_sk)
        chunk = max(1, min(S, int(4e6 // max(1, per_sample))))
        spans = [(a, min(a + chunk, S)) for a in range(0, S, chunk)]
        out = np.empty(S)
        evaluated = 0
        if self.threads > 1 and len(spans) > 1:
            with ThreadPoolExecutor(max_workers=self.threads) as ex:
                futs = {ex.submit(fn, samples_sk[a:b]): (a, b)
                        for a, b in spans}
                for fut, (a, b) in futs.items():
                    out[a:b], n = fut.result()
                    evaluated += n
        else:
            for a, b in spans:
                out[a:b], n = fn(samples_sk[a:b])
                evaluated += n
        return out, evaluated

    def _dense_kernel(self, chunk_fn, points, lookup, translates):
        """(chunk function, floats per sample, lookup, pairs per sample)
        for a kernel that evaluates every (sample, point, translate)."""
        pairs = len(points) * translates

        def chunk(samples):
            return chunk_fn(samples, points), len(samples) * pairs

        return chunk, points.size, lookup, pairs

    def _abelian_chunk(self, samples, points):
        diff = points[None, :, :] - samples[:, None, :]
        if self.R >= 1:
            diff -= np.round(diff)
        return np.sqrt(np.einsum("spk,spk->sp", diff, diff)).min(axis=1)

    def _box_chunk(self, samples, points):
        X = self.ops.from_second_kind(samples)
        Y = self.ops.from_second_kind(points)
        best = np.full((len(samples), len(points)), np.inf)
        for n in _translate_box(self.alg.dim, self.R):
            g = self.ops.from_second_kind(n)
            Yg = self.ops.bch(Y, g)
            W = self.ops.bch(Yg[None, :, :], -X[:, None, :])
            best = np.minimum(best, self.ops.quasi_norm(W))
        return best.min(axis=1)

    # -- step 2: columns over horizontal locations ---------------------------

    def _column_kernel(self, points):
        """(chunk function, floats per sample, lookup, pairs per sample)
        for step 2."""
        d, d1 = self.alg.dim, self.alg.layer_dims[0]
        order, starts = sorted_rows(points[:, :d1])
        points = points[order]
        U = len(starts)
        inv = np.repeat(np.arange(U), np.diff(np.append(starts, len(points))))
        Yloc = self.ops.from_second_kind(
            np.concatenate([points[starts, :d1], np.zeros((U, d - d1))], axis=1))
        # nearest translates first: the zero translate sets the first bounds
        box = sorted(_translate_box(d1, self.R), key=lambda n: np.abs(n).sum())
        Ygs = []
        for n1 in box:
            n_vec = np.zeros(d)
            n_vec[:d1] = n1
            Ygs.append(self.ops.bch(Yloc, self.ops.from_second_kind(n_vec)))
        center = points[:, d1:]
        lookup, kind = self._grid_lookup(center, inv, U), "grid"
        # per location: h, |h|^2 and a mask byte; per sample: X and best
        per_sample = U * (d1 + 1) + U // 8 + d + 1
        if lookup is None:
            lookup, kind = self._member_lookup(center, starts), "member"
            per_sample += center.size

        def chunk(samples):
            X = self.ops.from_second_kind(samples)
            best = np.full(len(X), np.inf)

            def fold(Yg, hh, s, u):
                """Fold the pairs (s, u) into best, at most one pair per
                sample at a time; returns their count."""
                for a in range(0, len(s), len(X)):
                    sb, ub = s[a:a + len(X)], u[a:a + len(X)]
                    W = self.ops.bch(Yg[ub], -X[sb])
                    # the best member's center is the closest to -W's
                    # (squared)
                    np.minimum.at(best, sb, lookup(hh[sb, ub], -W[:, d1:], ub))
                return len(s)

            evaluated = 0
            for i, Yg in enumerate(Ygs):
                # bch's horizontal part is this difference; fold reuses
                # its |h|^2, so the bound and the value agree to the bit
                h = Yg[None, :, :d1] - X[:, None, :d1]
                hh = np.einsum("suk,suk->su", h, h)
                if i == 0:
                    nearest = hh.argmin(axis=1)
                    evaluated += fold(Yg, hh, np.arange(len(X)), nearest)
                s, u = np.nonzero(hh < best[:, None])
                if len(s):
                    evaluated += fold(Yg, hh, s, u)
            return np.sqrt(best), evaluated

        return chunk, per_sample, kind, U * len(Ygs)

    def _grid_lookup(self, center, inv, U):
        """Best-member lookup when every column is the full product of
        per-axis arithmetic progressions, or None.  The squared central
        distance then splits over the axes: one clamped round per column,
        axis and central translate.  inv maps each member to its column,
        0..U-1.  Each axis takes one sort of the (column, value) pairs."""
        n, dc = center.shape
        c0, steps, lens = (np.ones((U, dc)) for _ in range(3))
        members = np.bincount(inv, minlength=U)
        size = np.ones(U, dtype=np.int64)       # nodes of the column's product
        node = np.zeros(n, dtype=np.int64)      # each member's node in it
        for a in range(dc):
            order = np.lexsort((center[:, a], inv))
            v, col = center[order, a], inv[order]
            new = np.ones(n, dtype=bool)
            new[1:] = (col[1:] != col[:-1]) | (v[1:] != v[:-1])
            vals, vcol = v[new], col[new]       # distinct values, ascending
            head = np.ones(len(vals), dtype=bool)
            head[1:] = vcol[1:] != vcol[:-1]
            first = np.flatnonzero(head)        # each column's first value
            count = np.diff(np.append(first, len(vals)))
            size *= count
            if np.any(size > members):
                return None
            inner = ~head[1:]                   # steps within one column
            gaps, gcol = np.diff(vals)[inner], vcol[1:][inner]
            hi, lo = np.full(U, -np.inf), np.full(U, np.inf)
            np.maximum.at(hi, gcol, gaps)
            np.minimum.at(lo, gcol, gaps)
            if np.any(hi - lo > 1e-12):
                return None
            rank = np.cumsum(new) - 1 - first[col]
            node[order] = node[order] * count[col] + rank
            lens[:, a] = count
            c0[:, a] = vals[first]
            multi = count > 1
            steps[multi, a] = vals[first[multi] + 1] - vals[first[multi]]
        # the column is the product iff its members hit every node
        hit = np.zeros(int(size.sum()), dtype=bool)
        hit[np.cumsum(size)[inv] - size[inv] + node] = True
        if not hit.all():
            return None

        def lookup(hh, q, u):
            c0u, stu, top = c0[u], steps[u], lens[u] - 1
            cent = np.full(q.shape, np.inf)
            for s in range(-self.R, self.R + 1):
                k = np.clip(np.round((q - s - c0u) / stu), 0, top)
                cent = np.minimum(cent, (c0u + k * stu + s - q) ** 2)
            return np.maximum(hh, np.sqrt(cent.sum(axis=-1)))

        return lookup

    def _member_lookup(self, center, starts):
        """Best-member lookup over every member: per central axis, the
        clamped nearest central translate.  center is ordered by column,
        column u starting at row starts[u]."""
        sizes = np.diff(np.append(starts, len(center)))

        def lookup(hh, q, u):
            m = sizes[u]
            first = np.cumsum(m) - m            # each pair's run of members
            pair = np.repeat(np.arange(len(u)), m)
            member = np.arange(len(pair)) + np.repeat(starts[u] - first, m)
            c = center[member] - q[pair]
            c += np.clip(np.round(-c), -self.R, self.R)
            cc = np.sqrt(np.einsum("pk,pk->p", c, c))
            return np.minimum.reduceat(np.maximum(hh[pair], cc), first)

        return lookup


def default_grid_n(dim: int, cap_samples: int = 10**6, preferred: int = 33) -> int:
    """Largest grid resolution <= preferred with at most cap_samples nodes."""
    n = preferred
    while n > 2 and n ** dim > cap_samples:
        n -= 1
    return max(2, n)
