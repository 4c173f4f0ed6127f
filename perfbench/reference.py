"""Reference mathematics for the benchmark's checks, written apart from nilflow.

Everything here is read straight from a fixture file and computed with its
own code: nothing is imported from nilflow.  Only step-2 systems are
supported, which covers both packaged fixtures (the Heisenberg group and
example5d).

In step 2, with [X_i, X_j] = sum_k c_ijk X_k:

* the group law is bch(x, y) = x + y + [x, y] / 2;
* the ordered product exp(t_1 X_1) ... exp(t_d X_d) has first-kind
  coordinates x = t + (1/2) sum_{i<j} t_i t_j [X_i, X_j], and the inverse
  map subtracts the same term computed from x;
* the lattice is the set of points with integer second-kind coordinates,
  and its fundamental domain is [0, 1)^d in those coordinates.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np

HALF = Fraction(1, 2)


class StepTwoSystem:
    """A step-2 nilpotent Lie algebra and its automorphism, from JSON."""

    def __init__(self, path):
        obj = json.loads(Path(path).read_text())
        self.dim = d = int(obj["dimension"])
        triples = {}
        for i, j, k, v in obj["structure_constants"]:
            i, j, k, v = int(i) - 1, int(j) - 1, int(k) - 1, Fraction(v)
            if i > j:
                i, j, v = j, i, -v
            triples[(i, j, k)] = triples.get((i, j, k), 0) + v
        self.triples = [(i, j, k, c) for (i, j, k), c in triples.items() if c]
        central = sorted({k for _, _, k, _ in self.triples})
        self.d1 = d - len(central)
        if central != list(range(self.d1, d)):
            raise ValueError("central coordinates must be the trailing ones")
        if any(i >= self.d1 or j >= self.d1 for i, j, _, _ in self.triples):
            raise ValueError("only step-2 systems are supported")
        self.psi = [[Fraction(x) for x in row] for row in obj["automorphism"]]
        self.psi_float = np.array([[float(x) for x in row] for row in self.psi])
        self.perturbation = obj.get("perturbation", {})

    # -- exact arithmetic on tuples of Fraction -----------------------------

    def bracket(self, x, y):
        out = [Fraction(0)] * self.dim
        for i, j, k, c in self.triples:
            out[k] += c * (x[i] * y[j] - x[j] * y[i])
        return out

    def mul(self, x, y):
        b = self.bracket(x, y)
        return tuple(a + c + HALF * e for a, c, e in zip(x, y, b))

    def _second_kind_term(self, v):
        out = [Fraction(0)] * self.dim
        for i, j, k, c in self.triples:
            out[k] += HALF * c * v[i] * v[j]
        return out

    def from_second_kind(self, t):
        return tuple(a + b for a, b in zip(t, self._second_kind_term(t)))

    def to_second_kind(self, x):
        return tuple(a - b for a, b in zip(x, self._second_kind_term(x)))

    def apply_psi(self, x):
        return tuple(sum(a * v for a, v in zip(row, x)) for row in self.psi)

    def reduce_key(self, x):
        """Second-kind coordinates in [0, 1)^d of the coset x * Gamma.

        Right translation by exp(-m_1 X_1) ... exp(-m_d1 X_d1) clears the
        horizontal integer parts and shifts the centre; the centre is then
        cleared by a central lattice element, which commutes with all.
        """
        t = self.to_second_kind(x)
        m = [-math.floor(c) for c in t[:self.d1]] + [0] * (self.dim - self.d1)
        y = self.mul(x, self.from_second_kind(tuple(Fraction(v) for v in m)))
        s = self.to_second_kind(y)
        return s[:self.d1] + tuple(c - math.floor(c) for c in s[self.d1:])

    # -- float arithmetic on (..., d) arrays ---------------------------------

    def bracket_f(self, X, Y):
        shape = np.broadcast_shapes(np.shape(X), np.shape(Y))
        out = np.zeros(shape)
        for i, j, k, c in self.triples:
            out[..., k] += float(c) * (X[..., i] * Y[..., j] - X[..., j] * Y[..., i])
        return out

    def mul_f(self, X, Y):
        return X + Y + 0.5 * self.bracket_f(X, Y)

    def _second_kind_term_f(self, V):
        out = np.zeros(np.shape(V))
        for i, j, k, c in self.triples:
            out[..., k] += 0.5 * float(c) * V[..., i] * V[..., j]
        return out

    def from_second_kind_f(self, T):
        T = np.asarray(T, dtype=float)
        return T + self._second_kind_term_f(T)

    def to_second_kind_f(self, X):
        X = np.asarray(X, dtype=float)
        return X - self._second_kind_term_f(X)

    # -- integer spectral data ------------------------------------------------

    def layer_blocks(self):
        h, c = range(self.d1), range(self.d1, self.dim)
        return [[[self.psi[i][j] for j in h] for i in h],
                [[self.psi[i][j] for j in c] for i in c]]

    def index(self):
        """|Gamma : Psi(Gamma)|, the product of the layer determinants."""
        return math.prod(abs(det(b)) for b in self.layer_blocks())

    def lefschetz(self, P):
        """Number of points with period dividing P: prod_l |det(psi_l^P - I)|."""
        out = 1
        for b in self.layer_blocks():
            m = matpow(b, P)
            for i in range(len(m)):
                m[i][i] -= 1
            out *= abs(det(m))
        return int(out)

    def stable_eigen(self):
        """Closed form of the stable eigenvalue of a 2x2 horizontal block,
        (tr - sqrt(tr^2 - 4 det)) / 2, and its unit eigenvector in the full
        space (zero central part when the central block is decoupled)."""
        if any(self.psi[i][j] for i in range(self.d1, self.dim) for j in range(self.d1)):
            raise ValueError("closed form assumes a block-diagonal automorphism")
        (a, b), (c, e) = self.layer_blocks()[0]
        tr, dt = float(a + e), float(a * e - b * c)
        lam = (tr - math.sqrt(tr * tr - 4.0 * dt)) / 2.0
        v = np.zeros(self.dim)
        v[:2] = (float(b), lam - float(a))
        return lam, v / np.linalg.norm(v)


def det(m) -> Fraction:
    """Exact determinant by Gaussian elimination over Q."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    out = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            out = -out
        out *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return out


def matpow(m, p):
    n = len(m)
    out = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(p):
        out = [[sum(out[i][k] * m[k][j] for k in range(n)) for j in range(n)]
               for i in range(n)]
    return out


def minimal_period_counts(system, p_max):
    """Points of least period P, by Moebius inversion of the Lefschetz
    counts (points of period dividing P)."""
    exact = {}
    for P in range(1, p_max + 1):
        exact[P] = system.lefschetz(P) - sum(exact[q] for q in exact if P % q == 0)
    return exact


def grid(dim, n):
    axes = np.meshgrid(*([np.arange(n) / n] * dim), indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=-1)


def min_distances(system, samples_sk, points_sk, R=1, chunk_pairs=2_000_000):
    """For each sample, the least quasi-distance to the point set on the
    quotient, by brute force.

    The distance from x to y Gamma is min over lattice translates gamma of
    q(log(y gamma x^-1)), with q(W) = max(|W_h|, |W_c|^(1/2)).  Horizontal
    translates run over the box [-R, R]^d1; for each, the central translate
    is the per-axis clamped rounding of the central coordinates, which is
    the best central element of the box because central elements add to
    log(y gamma x^-1) without changing anything else.
    """
    d, d1 = system.dim, system.d1
    X = system.from_second_kind_f(samples_sk)
    Y = system.from_second_kind_f(points_sk)
    out = np.full(len(X), np.inf)
    step = max(1, chunk_pairs // max(1, len(Y)))
    for n in product(range(-R, R + 1), repeat=d1):
        g = system.from_second_kind_f(np.array(n + (0,) * (d - d1), dtype=float))
        Yg = system.mul_f(Y, g)
        for a in range(0, len(X), step):
            W = system.mul_f(Yg[None, :, :], -X[a:a + step, None, :])
            c = W[..., d1:]
            c = c + np.clip(np.round(-c), -R, R)
            qh = np.sqrt(np.einsum("spk,spk->sp", W[..., :d1], W[..., :d1]))
            qc = np.sqrt(np.sqrt(np.einsum("spk,spk->sp", c, c)))
            out[a:a + step] = np.minimum(out[a:a + step],
                                         np.maximum(qh, qc).min(axis=1))
    return out


def covering_radius(system, points_sk, grid_n, R=1):
    """Brute-force grid covering radius: the largest of the per-node
    least distances over the grid {0, 1/n, ..., (n-1)/n}^d."""
    return float(min_distances(system, grid(system.dim, grid_n), points_sk, R).max())


class ShearMap:
    """The perturbed map F(x) = exp(phi(x_h) v) * Psi(x), in float.

    phi(t_h) = sum_i c_i cos(2 pi k_i . t_h) with the coefficients scaled so
    that sum |c_i| is the amplitude; the horizontal first-kind coordinates
    of x are its horizontal second-kind coordinates.
    """

    def __init__(self, system, amplitude, terms, direction):
        self.system = system
        freqs = np.array([k for k, _ in terms], dtype=float)
        coeffs = np.array([c for _, c in terms], dtype=float)
        self.freqs = freqs
        self.coeffs = coeffs * (amplitude / np.sum(np.abs(coeffs)))
        self.direction = np.asarray(direction, dtype=float)

    def __call__(self, X):
        s = self.system
        phi = np.cos(2.0 * math.pi * (X[..., :s.d1] @ self.freqs.T)) @ self.coeffs
        return s.mul_f(phi[..., None] * self.direction, X @ s.psi_float.T)

    def closure_defect(self, cycle_sk):
        """Largest distance from an integer of the second-kind coordinates
        of x_{i+1}^-1 F(x_i) around a cycle; zero for an exact orbit."""
        s = self.system
        X = s.from_second_kind_f(cycle_sk)
        G = s.mul_f(-np.roll(X, -1, axis=0), self(X))
        T = s.to_second_kind_f(G)
        return float(np.max(np.abs(T - np.round(T))))
