"""Batched float group operations on numpy arrays.

Internal engine behind the density and dynamics modules.  Points are rows
of (..., d) arrays; every operation broadcasts.  Semantics mirror the
scalar exact routines in liealg/nilgroup, in float64.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
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
      rounded to its nearest central translate;
    * steps 3 and 4: the whole translate box is enumerated.

    Samples are split into chunks whose arrays hold about 4e6 floats, and
    chunks run on `threads` worker threads.
    """

    def __init__(self, algebra: LieAlgebra, search_radius: int = 1,
                 threads: int = 1):
        self.ops = BatchOps(algebra)
        self.alg = algebra
        self.R = int(search_radius)
        self.threads = max(1, int(threads))

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
            return self._run_chunked(self._abelian_chunk, points_sk.size,
                                     samples_sk, points_sk)
        if self.alg.step == 2:
            return self._run_chunked(*self._column_kernel(points_sk),
                                     samples_sk)
        return self._run_chunked(self._box_chunk, points_sk.size,
                                 samples_sk, points_sk)

    def _run_chunked(self, fn, per_sample, samples_sk, *args):
        """fn(chunk, *args) over sample chunks of 4e6 // per_sample rows,
        per_sample being the floats fn allocates per sample."""
        S = len(samples_sk)
        chunk = max(1, min(S, int(4e6 // max(1, per_sample))))
        spans = [(a, min(a + chunk, S)) for a in range(0, S, chunk)]
        out = np.empty(S)
        if self.threads > 1 and len(spans) > 1:
            with ThreadPoolExecutor(max_workers=self.threads) as ex:
                futs = {ex.submit(fn, samples_sk[a:b], *args): (a, b)
                        for a, b in spans}
                for fut, (a, b) in futs.items():
                    out[a:b] = fut.result()
        else:
            for a, b in spans:
                out[a:b] = fn(samples_sk[a:b], *args)
        return out

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
        """(chunk function, floats a chunk allocates per sample) for step 2."""
        d, d1 = self.alg.dim, self.alg.layer_dims[0]
        hloc, inv = np.unique(points[:, :d1], axis=0, return_inverse=True)
        inv = np.ravel(inv)
        U = len(hloc)
        Yloc = self.ops.from_second_kind(
            np.concatenate([hloc, np.zeros((U, d - d1))], axis=1))
        Ygs = []
        for n1 in _translate_box(d1, self.R):
            n_vec = np.zeros(d)
            n_vec[:d1] = n1
            Ygs.append(self.ops.bch(Yloc, self.ops.from_second_kind(n_vec)))
        center = points[:, d1:]
        lookup = self._grid_lookup(center, inv, U)
        per_sample = U * d
        if lookup is None:
            lookup = self._member_lookup(center, inv)
            per_sample += center.size

        def chunk(samples):
            X = self.ops.from_second_kind(samples)
            best = np.full(len(samples), np.inf)
            for Yg in Ygs:
                W0 = self.ops.bch(Yg[None, :, :], -X[:, None, :])
                h = W0[..., :d1]
                hh = np.einsum("suk,suk->su", h, h)
                # the best member's center is the closest to -W0's (squared)
                best = np.minimum(best, lookup(hh, -W0[..., d1:]))
            return np.sqrt(best)

        return chunk, per_sample

    def _grid_lookup(self, center, inv, U):
        """Best-member lookup when every column is the full product of
        per-axis arithmetic progressions, or None.  The squared central
        distance then splits over the axes: one clamped round per column,
        axis and central translate."""
        order = np.argsort(inv, kind="stable")
        bounds = np.searchsorted(inv[order], np.arange(U + 1))
        c0, steps, lens = (np.ones((U, center.shape[1])) for _ in range(3))
        for u in range(U):
            col = center[order[bounds[u]:bounds[u + 1]]]
            axes = [np.unique(a) for a in col.T]
            lens[u] = [len(a) for a in axes]
            if (len(np.unique(col, axis=0)) != np.prod(lens[u])
                    or any(len(a) > 2 and np.ptp(np.diff(a)) > 1e-12
                           for a in axes)):
                return None
            c0[u] = [a[0] for a in axes]
            steps[u] = [a[1] - a[0] if len(a) > 1 else 1.0 for a in axes]

        def lookup(hh, q):
            cent = np.full(q.shape, np.inf)
            for s in range(-self.R, self.R + 1):
                k = np.clip(np.round((q - s - c0) / steps), 0, lens - 1)
                cent = np.minimum(cent, (c0 + k * steps + s - q) ** 2)
            return np.maximum(hh, np.sqrt(cent.sum(axis=-1))).min(axis=1)

        return lookup

    def _member_lookup(self, center, inv):
        """Best-member lookup over every member: per central axis, the
        clamped nearest central translate."""

        def lookup(hh, q):
            c = center[None, :, :] - q[:, inv, :]
            c += np.clip(np.round(-c), -self.R, self.R)
            cc = np.sqrt(np.einsum("spk,spk->sp", c, c))
            return np.maximum(hh[:, inv], cc).min(axis=1)

        return lookup


def default_grid_n(dim: int, cap_samples: int = 10**6, preferred: int = 33) -> int:
    """Largest grid resolution <= preferred with at most cap_samples nodes."""
    n = preferred
    while n > 2 and n ** dim > cap_samples:
        n -= 1
    return max(2, n)
