"""Collocation node sets, Butcher tableaux, mass matrices and dense-output
coefficients from one shifted Legendre basis P~_k(t) = P_k(2t - 1): with
l_j = sum_k beta_kj P~_k, beta = V^-1, V_jk = P~_k(c_j), every table is a
closed-form sum over the P~_k on ints in fixed point (v held as floor(v 2^bits),
float inputs read exactly), rounded once to float; the Gauss M is diag(b) (C1).
"""
from __future__ import annotations

import operator
from functools import cache
from math import cos, frexp, isfinite, pi, sqrt

import numpy as np

from .errors import ReadOnly, SchemeConstructionError

GAUSS = "gauss"
LOBATTO = "lobatto"

GAUSS_STAGE_RANGE = range(1, 9)
LOBATTO_STAGE_RANGE = range(2, 5)
_STAGE_RANGE = {GAUSS: GAUSS_STAGE_RANGE, LOBATTO: LOBATTO_STAGE_RANGE}

_BITS = 256
_ROW_SUM_TOL = 1e-13
_SYMPLECTIC_PAIR_TOL = 1e-13
_NODE_MAX_ITER = 20


def _legendre_zero(s: int, x, bits: int):
    """Newton steps x -= P_s / P_s', k P_k = (2k - 1) x P_{k-1} - (k - 1) P_{k-2},
    P_s' = s (x P_s - P_{s-1}) / (x^2 - 1), on floats (bits 0) to a step of 1e-8 or
    on fixed-point ints to 2^(64 - bits); fails after _NODE_MAX_ITER (as NaN does)."""
    one, tol = (1 << bits, 1 << 64) if bits else (1.0, 1e-8)
    mul = (lambda a, b: a * b >> bits) if bits else operator.mul
    div = (lambda a, b: (a << bits) // b) if bits else operator.truediv
    for _ in range(_NODE_MAX_ITER):
        p, q = x, one
        for k in range(2, s + 1):
            p, q = div((2 * k - 1) * mul(x, p) - (k - 1) * q, k * one), p
        dx = div(mul(p, mul(x, x) - one), s * (mul(x, p) - q))
        x -= dx
        if abs(dx) <= tol:
            return x
    raise SchemeConstructionError(f"gauss s = {s} node did not converge")


def _fixed(v: float, bits: int) -> int:
    n, d = float(v).as_integer_ratio()
    return (n << bits) // d


def _round(table, bits: int) -> np.ndarray:
    """Nested lists of fixed-point ints as floats, each correctly rounded."""
    return (np.array(table, dtype=object) / (1 << bits)).astype(float)


def _gauss_nodes(s: int, bits: int) -> list[int]:
    """Zeros of P_s(2t - 1) in fixed point, ascending: (1 -+ x) / 2 for each zero x > 0
    of P_s (from its cosine estimate in floats, then on ints), and 1/2 for odd s."""
    one = 1 << bits
    upper = [_legendre_zero(s, _fixed(_legendre_zero(s, cos(pi * (i - 0.25) / (s + 0.5)), 0),
                                      bits), bits) for i in range(1, s // 2 + 1)]
    return ([(one - x) >> 1 for x in upper] + [one >> 1] * (s % 2)
            + [(one + x) >> 1 for x in reversed(upper)])


def _stage_count(kind: str, s) -> int:
    """s, an integer of any type but bool in the kind's range, as an int."""
    if isinstance(s, bool) or not hasattr(type(s), "__index__") or s not in _STAGE_RANGE[kind]:
        raise ValueError(f"unsupported {kind} stage count {s!r}")
    return operator.index(s)


# Lobatto nodes on [0, 1]: both endpoints plus the extrema of P_{s-1}(2t - 1)
_LOBATTO_NODES = {2: (0.0, 1.0), 3: (0.0, 0.5, 1.0),
                  4: (0.0, 0.5 - sqrt(5.0) / 10, 0.5 + sqrt(5.0) / 10, 1.0)}


def _legendre(n: int, t: int, bits: int) -> list[int]:
    """P~_0(t) .. P~_n(t) in fixed point, by Bonnet's recurrence."""
    x = 2 * t - (1 << bits)
    p = [1 << bits, x]
    for k in range(1, n):
        p.append(((2 * k + 1) * (x * p[k] >> bits) - k * p[k - 1]) // (k + 1))
    return p[:n + 1]


def _coefficients(c: list[int], bits: int, zeros: bool = False):
    """Columns beta_j of V^-1, V_jk = P~_k(c_j), by Gauss-Jordan elimination with
    partial pivoting; at Legendre zeros, by discrete orthogonality, beta_kj =
    (2k + 1) b_j V_jk with Christoffel weights b_j = 1 / sum_k (2k + 1) V_jk^2,
    so a zero of V (P~_k(1/2), k odd) stays a zero of beta."""
    s = len(c)
    V = [_legendre(s - 1, cj, bits) for cj in c]
    if zeros:
        b = [(1 << 3 * bits) // sum((2 * k + 1) * v[k] ** 2 for k in range(s)) for v in V]
        return [[(2 * k + 1) * (bj * v[k] >> bits) for k in range(s)] for bj, v in zip(b, V)]
    R = [row + [(i == j) << bits for j in range(s)] for i, row in enumerate(V)]
    for p in range(s):
        r = max(range(p, s), key=lambda i: abs(R[i][p]))
        R[r], R[p] = R[p], [(a << bits) // R[r][p] for a in R[r]]
        for i in range(s):
            if i != p and R[i][p]:
                R[i] = [a - (R[i][p] * b >> bits) for a, b in zip(R[i], R[p])]
    return list(zip(*(row[s:] for row in R)))


def _integral_weights(cols, t: int, bits: int) -> list[int]:
    """int_0^t l_j = sum_k beta_kj int_0^t P~_k: int_0^t P~_0 = t,
    int_0^t P~_k = (P~_{k+1} - P~_{k-1}) / (2 (2k + 1)), exactly 0 at t = 0."""
    p = _legendre(len(cols), t, bits)
    q = [t] + [(p[k + 1] - p[k - 1]) // (4 * k + 2) for k in range(1, len(cols))]
    return [sum(map(operator.mul, q, col)) >> bits for col in cols]


def lagrange_integral_weights(nodes, tau: float) -> np.ndarray:
    """The s integrals int_0^tau l_j(sigma) dsigma, each correctly rounded;
    rows of A at tau = c_i, the weights b at tau = 1."""
    c = np.asarray(nodes, dtype=float)
    # every comparison with NaN is false, so a NaN node fails the test
    if c.ndim != 1 or c.size < 1 or not (np.all(np.diff(c) > 0) and 0 <= c[0] and c[-1] <= 1):
        raise ValueError("nodes must be a nonempty 1-D array increasing within [0, 1]")
    if not isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau!r}")
    # every input read exactly, and an integral O(tau^2) to 2^-256 of its size
    bits = _BITS + 2 * max(0, -min(frexp(v)[1] for v in (*c, tau)))
    cols = _coefficients([_fixed(v, bits) for v in c], bits)
    return _round(_integral_weights(cols, _fixed(tau, bits), bits), bits)


def _tables(kind: str, s: int, bits: int):
    """(c, A, b, M, W) as nested lists of fixed-point ints: a_ij = int_0^{c_i} l_j,
    b_j = beta_0j, W[j, m] the P~_m coefficient of int_0^tau l_j and M_ij = int_0^1
    l_i l_j: diag(b) for Gauss, exact on l_i l_j, and for Lobatto sum_k beta_ki
    beta_kj / (2k + 1), symmetric term by term.  Gauss nodes are the fixed-point
    Legendre zeros, Lobatto nodes floats read exactly."""
    gauss = kind == GAUSS
    c = _gauss_nodes(s, bits) if gauss else [_fixed(v, bits) for v in _LOBATTO_NODES[s]]
    cols = _coefficients(c, bits, gauss)
    A = [_integral_weights(cols, ci, bits) for ci in c]
    # beta_kj int_0^tau P~_k is d_k (P~_{k+1} - P~_{k-1}) with d_k = beta_kj / (2 (2k + 1)),
    # and beta_0j tau is d_0 (P~_1 + P~_0) with d_0 = beta_0j / 2
    W = [[d[0] - d[1]] + [d[m - 1] - d[m + 1] for m in range(1, s + 1)]
         for d in ([col[0] >> 1] + [col[k] // (4 * k + 2) for k in range(1, s)] + [0, 0]
                   for col in cols)]
    M = [[(u[0] if u is v else 0) if gauss else
          sum(u[k] * v[k] // (2 * k + 1) for k in range(s)) >> bits for v in cols] for u in cols]
    return c, A, [col[0] for col in cols], M, W


def quadratic_invariant_residual(scheme: CollocationScheme) -> float:
    """max_ij |a_ij b_i + a_ji b_j - b_i b_j|; zero exactly for the schemes
    that conserve quadratic invariants."""
    A, b = scheme.A, scheme.b
    R = A * b[:, None] + A.T * b[None, :] - np.outer(b, b)
    return float(np.max(np.abs(R)))


def symplectic_pair_residual(scheme: CollocationScheme) -> float:
    """max_ij |b_i a_hat_ij + b_j a_ji - b_i b_j| for a partitioned pair."""
    A, b = scheme.A, scheme.b
    R = b[:, None] * scheme.A_hat + A.T * b[None, :] - np.outer(b, b)
    return float(np.max(np.abs(R)))


class CollocationScheme(ReadOnly):
    """Everything a discrete-time step needs: nodes c, tableau (A, b), mass
    matrix M, dense-output coefficients W (W[j, k] multiplies P_k(2 tau - 1)
    in int_0^tau l_j), advertised order, c1 (True iff M is exactly diagonal,
    C1) and, for a Lobatto pair, the IIIB companion A_hat.  The record and its
    arrays are read-only."""

    def __init__(self, kind: str, c, A, b, M, W, order: int, A_hat=None):
        vars(self).update(kind=kind, c=c, A=A, b=b, M=M, W=W, order=order, A_hat=A_hat,
                          c1=np.array_equal(M, np.diag(np.diagonal(M))))
        for arr in (self.c, self.A, self.b, self.M, self.W, self.A_hat):
            if arr is not None:
                arr.setflags(write=False)
        s = self.c.size
        if self.A.shape != (s, s) or self.b.shape != (s,):
            raise SchemeConstructionError("tableau shape mismatch")
        if self.W.shape != (s, s + 1):
            raise SchemeConstructionError("dense-output coefficient shape mismatch")
        if np.max(np.abs(self.A.sum(axis=1) - self.c)) > _ROW_SUM_TOL:
            raise SchemeConstructionError("row-sum consistency sum_j a_ij = c_i violated")
        if abs(self.b.sum() - 1.0) > _ROW_SUM_TOL:
            raise SchemeConstructionError("weights do not sum to 1")
        if self.kind == GAUSS and not np.array_equal(self.M, np.diag(self.b)):
            raise SchemeConstructionError("gauss mass matrix is not diag(b) (C1)")
        if self.A_hat is not None and symplectic_pair_residual(self) > _SYMPLECTIC_PAIR_TOL:
            raise SchemeConstructionError("symplectic-pair condition violated")

    @property
    def s(self) -> int:
        return self.c.size

    @property
    def label(self) -> str:
        return f"{self.kind}-s{self.s}"


def make_scheme(kind: str, s: int) -> CollocationScheme:
    """Assemble and validate a Gauss-Legendre scheme or a Lobatto IIIA/IIIB
    pair, once per (kind, s) with s of any integer type but bool;
    construction fails with the violated check named."""
    if kind not in _STAGE_RANGE:
        raise ValueError(f"unknown scheme kind {kind!r}")
    return _make_scheme(kind, _stage_count(kind, s))


@cache
def _make_scheme(kind: str, s: int) -> CollocationScheme:
    c, A, b, M, W = (_round(t, _BITS) for t in _tables(kind, s, _BITS))
    gauss = kind == GAUSS
    # the IIIB companion from the symplectic-pair identity, a_hat_ij = b_j - (b_j / b_i) a_ji
    return CollocationScheme(kind, c, A, b, M, W, order=2 * s if gauss else 2 * s - 2,
                             A_hat=None if gauss else b[None, :] - (b[None, :] / b[:, None]) * A.T)
