"""Collocation node sets, Butcher tableaux, mass matrices and dense-output
coefficients, all from one shifted Legendre basis P~_k(t) = P_k(2t - 1).

Gauss nodes for s = 1 and s >= 4 are zeros of P_s, found by Newton's method in
double precision, then at 64 bits above the 40-digit working precision, and
rounded once.  With l_j = sum_k beta_kj P~_k, beta = V^-1 and
V_jk = P~_k(c_j), every table is a closed-form sum over the P~_k in 40 digits,
rounded once to float; the Gauss M is diag(b), so C1 holds by construction.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache
from math import cos, pi

import numpy as np
from mpmath import mp, mpf

from .errors import SchemeConstructionError

GAUSS = "gauss"
LOBATTO = "lobatto"

GAUSS_STAGE_RANGE = range(1, 9)
LOBATTO_STAGE_RANGE = range(2, 5)
_STAGE_RANGE = {GAUSS: GAUSS_STAGE_RANGE, LOBATTO: LOBATTO_STAGE_RANGE}

_DPS = 40
_ROW_SUM_TOL = 1e-13
_SYMPLECTIC_PAIR_TOL = 1e-13
_NODE_MAX_ITER = 20


def _legendre_zero(s: int, x, tol):
    """Newton steps on P_s from x in the arithmetic of x (float or mpf), with
    P_s and P_{s-1} by the three-term recurrence; fails unless a step falls
    to tol in time."""
    for _ in range(_NODE_MAX_ITER):
        p, q = x, 1
        for k in range(2, s + 1):
            p, q = ((2 * k - 1) * x * p - (k - 1) * q) / k, p
        dx = p * (x * x - 1) / (s * (x * p - q))  # P_s / P_s'
        x -= dx
        if abs(dx) <= tol:
            return x
    raise SchemeConstructionError(f"gauss s = {s} node did not converge")


def _gauss_nodes_mp(s: int):
    """Zeros of P_s(2t - 1) in 40-digit mpf, ascending: Newton from the
    classical cosine estimates in double precision to a step of 1e-8 (so
    within about 1e-16), then at 64 extra bits to a step < 2^-32 ulp,
    rounded once, so mp.polyroots' mpf exactly."""
    starts = [cos(pi * (i - 0.25) / (s + 0.5)) for i in range(s, 0, -1)]
    with mp.workdps(_DPS):
        tol = mp.ldexp(1, -mp.prec - 32)
        with mp.workprec(mp.prec + 64):
            nodes = [(1 + _legendre_zero(s, mpf(_legendre_zero(s, x, 1e-8)), tol)) / 2
                     for x in starts]
        return [+c for c in nodes]


def _stage_count(kind: str, s) -> int:
    """s, an integer of any type but bool in the kind's range, as an int."""
    if isinstance(s, bool) or not hasattr(type(s), "__index__") or s not in _STAGE_RANGE[kind]:
        raise ValueError(f"unsupported {kind} stage count {s!r}")
    return operator.index(s)


def gauss_legendre_nodes(s: int) -> np.ndarray:
    """Shifted Gauss-Legendre collocation points on (0, 1), sorted ascending."""
    s = _stage_count(GAUSS, s)
    if s in (2, 3):  # closed forms 1/2 -+ sqrt(3)/6; 1/2 -+ sqrt(15)/10 and 1/2
        d = np.sqrt(3.0) / 6.0 if s == 2 else np.sqrt(15.0) / 10.0
        return 0.5 + d * np.linspace(-1.0, 1.0, s)
    return np.array([float(r) for r in _gauss_nodes_mp(s)])


def lobatto_nodes(s: int) -> np.ndarray:
    """Lobatto collocation points on [0, 1]: both endpoints plus the extrema
    of the degree s-1 Legendre polynomial mapped to the unit interval."""
    s = _stage_count(LOBATTO, s)
    d = np.sqrt(5.0) / 10.0
    return np.array({2: [0.0, 1.0], 3: [0.0, 0.5, 1.0], 4: [0.0, 0.5 - d, 0.5 + d, 1.0]}[s])


def _validate_nodes(c) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or c.size < 1:
        raise ValueError("node set must be a nonempty 1-D array")
    if np.any(np.diff(c) <= 0) or c[0] < 0.0 or c[-1] > 1.0:
        raise ValueError("nodes must be strictly increasing within [0, 1]")
    return c


def _legendre_mp(n: int, t):
    """P~_0(t) .. P~_n(t), P~_k(t) = P_k(2t - 1), by Bonnet's recurrence."""
    x = 2 * t - 1
    p = [mpf(1), x]
    for k in range(1, n):
        p.append(((2 * k + 1) * x * p[k] - k * p[k - 1]) / (k + 1))
    return p[:n + 1]


def _coefficients_mp(c_mp, zeros=False):
    """Columns beta_j of V^-1, V_jk = P~_k(c_j), so l_j = sum_k beta_kj P~_k.
    At Legendre zeros discrete orthogonality inverts V without a solve:
    beta_kj = (2k + 1) b_j V_jk with Christoffel weights b_j = 1 / sum_k
    (2k + 1) V_jk^2, and a zero of V (P~_k(1/2), k odd) stays a zero of beta."""
    s = len(c_mp)
    V = [_legendre_mp(s - 1, c) for c in c_mp]
    if not zeros:
        return list(zip(*mp.inverse(mp.matrix(V)).tolist()))
    b = [1 / mp.fsum((2 * k + 1) * v[k] ** 2 for k in range(s)) for v in V]
    return [[(2 * k + 1) * bj * v[k] for k in range(s)] for bj, v in zip(b, V)]


def _integral_weights_mp(cols, t):
    """int_0^t l_j = sum_k beta_kj int_0^t P~_k as floats: int_0^t P~_0 = t,
    int_0^t P~_k = (P~_{k+1} - P~_{k-1}) / (2 (2k + 1)), exactly 0 at t = 0."""
    p = _legendre_mp(len(cols), t)
    q = [t] + [(p[k + 1] - p[k - 1]) / (4 * k + 2) for k in range(1, len(cols))]
    return [float(mp.fdot(q, col)) for col in cols]


def lagrange_integral_weights(nodes, tau: float) -> np.ndarray:
    """The s integrals int_0^tau l_j(sigma) dsigma; rows of A at tau = c_i,
    the weights b at tau = 1."""
    c = _validate_nodes(nodes)
    with mp.workdps(_DPS):
        return np.array(_integral_weights_mp(_coefficients_mp([mpf(v) for v in c]), mpf(tau)))


def _tables_mp(c_mp, gauss: bool, zeros: bool):
    """(A, b, M, W) as float arrays, each entry rounded once from 40 digits:
    a_ij = int_0^{c_i} l_j, b_j = beta_0j, W[j, m] the P~_m coefficient of
    int_0^tau l_j, and M_ij = int_0^1 l_i l_j.  For Gauss M = diag(b), since
    Gauss quadrature is exact on l_i l_j; for Lobatto orthogonality gives
    M_ij = sum_k beta_ki beta_kj / (2k + 1), symmetric term by term."""
    s = len(c_mp)
    cols = _coefficients_mp(c_mp, zeros)
    A = np.array([_integral_weights_mp(cols, c) for c in c_mp])
    b = np.array([float(col[0]) for col in cols])
    # beta_kj int_0^tau P~_k is d_k (P~_{k+1} - P~_{k-1}) with d_k = beta_kj / (2 (2k + 1)),
    # and beta_0j tau is d_0 (P~_1 + P~_0) with d_0 = beta_0j / 2
    W = np.array([[d[0] - d[1]] + [d[m - 1] - d[m + 1] for m in range(1, s + 1)]
                  for d in ([col[0] / 2] + [col[k] / (4 * k + 2) for k in range(1, s)] + [0, 0]
                            for col in cols)], dtype=float)
    M = np.diag(b) if gauss else np.array(
        [[mp.fsum(u[k] * v[k] / (2 * k + 1) for k in range(s)) for v in cols] for u in cols],
        dtype=float)
    return A, b, M, W


def iiib_from_iiia(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Companion coefficients from the symplectic-pair identity,
    a_hat_ij = b_j - (b_j / b_i) a_ji."""
    if np.any(b == 0.0):
        raise ZeroDivisionError("pair construction needs nonzero weights")
    return b[None, :] - (b[None, :] / b[:, None]) * A.T


def check_c1(M: np.ndarray, tol: float) -> bool:
    """True iff all off-diagonal mass-matrix entries vanish to tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    off = M - np.diag(np.diag(M))
    return bool(np.max(np.abs(off), initial=0.0) <= tol)


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


@dataclass(frozen=True)
class CollocationScheme:
    """Everything a discrete-time step needs: nodes c, tableau (A, b), mass
    matrix M, dense-output coefficients W (W[j, k] multiplies P_k(2 tau - 1)
    in int_0^tau l_j), advertised order and, for a Lobatto pair, the IIIB
    companion A_hat.  The arrays are read-only."""

    kind: str
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    M: np.ndarray
    W: np.ndarray
    order: int
    A_hat: np.ndarray | None = None

    def __post_init__(self):
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
    # Legendre zeros keep 40 digits; closed-form Gauss-2/3, Lobatto nodes are floats
    gauss = kind == GAUSS
    zeros = gauss and s not in (2, 3)
    with mp.workdps(_DPS):
        c_mp = _gauss_nodes_mp(s) if zeros else [
            mpf(v) for v in (gauss_legendre_nodes(s) if gauss else lobatto_nodes(s))]
        A, b, M, W = _tables_mp(c_mp, gauss, zeros)
    return CollocationScheme(kind, np.array([float(v) for v in c_mp]), A, b, M, W,
                             order=2 * s if gauss else 2 * s - 2,
                             A_hat=None if gauss else iiib_from_iiia(A, b))
