"""Collocation node sets, Butcher tableaux, mass matrices and dense-output
coefficients.

Gauss nodes for s >= 4 come from Newton's method on the Legendre recurrence
at 64 bits above the 40-digit working precision, rounded once; they equal
mp.polyroots' roots mpf for mpf.  The coefficient integrals are exact
antiderivatives of the Lagrange basis in the monomial basis, which loses
digits to cancellation, so the tables are built in 40-digit arithmetic and
cast to float once, exact to one rounding.  The same pass stores
int_0^tau l_j in the shifted Legendre basis P_k(2 tau - 1), whose float
coefficients stay small, so dense output is a float evaluation.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache
from math import cos, factorial, pi

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
_C1_TOL = 1e-14
_NODE_MAX_ITER = 20


def _gauss_node_mp(s: int, i: int, tol):
    """(1 + x) / 2 for the zero x of P_s reached by Newton steps from the
    i-th classical estimate; fails unless a step falls to tol in time."""
    x = mpf(cos(pi * (i - 0.25) / (s + 0.5)))
    for _ in range(_NODE_MAX_ITER):
        p, q = x, mpf(1)  # P_s(x), P_{s-1}(x) by the three-term recurrence
        for k in range(2, s + 1):
            p, q = ((2 * k - 1) * x * p - (k - 1) * q) / k, p
        dx = p * (x * x - 1) / (s * (x * p - q))  # P_s / P_s'
        x -= dx
        if abs(dx) <= tol:
            return (1 + x) / 2
    raise SchemeConstructionError(f"gauss s = {s} node {i} did not converge")


def _gauss_nodes_mp(s: int):
    """Zeros of P_s(2t - 1) in 40-digit mpf, ascending: Newton at 64 extra
    bits to a step < 2^-32 ulp, rounded once, so mp.polyroots' mpf exactly."""
    with mp.workdps(_DPS):
        tol = mp.ldexp(1, -mp.prec - 32)
        with mp.workprec(mp.prec + 64):
            nodes = [_gauss_node_mp(s, i, tol) for i in range(s, 0, -1)]
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
    if s == 2:
        return np.array([0.0, 1.0])
    if s == 3:
        return np.array([0.0, 0.5, 1.0])
    d = np.sqrt(5.0) / 10.0
    return np.array([0.0, 0.5 - d, 0.5 + d, 1.0])


def _validate_nodes(c) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or c.size < 1:
        raise ValueError("node set must be a nonempty 1-D array")
    if np.any(np.diff(c) <= 0) or c[0] < 0.0 or c[-1] > 1.0:
        raise ValueError("nodes must be strictly increasing within [0, 1]")
    return c


def _lagrange_coeffs_mp(c, i):
    """Ascending monomial coefficients of the i-th Lagrange basis polynomial
    over high-precision nodes c."""
    coeffs = [mpf(1)]
    for j in range(len(c)):
        if j == i:
            continue
        new = [mpf(0)] * (len(coeffs) + 1)
        for k, a in enumerate(coeffs):  # multiply by (t - c_j)
            new[k] += -c[j] * a
            new[k + 1] += a
        inv = 1 / (c[i] - c[j])
        coeffs = [a * inv for a in new]
    return coeffs


def _antiderivative_mp(coeffs):
    return [mpf(0)] + [a / (k + 1) for k, a in enumerate(coeffs)]


def _eval_mp(coeffs, x):
    acc = mpf(0)
    for a in reversed(coeffs):
        acc = acc * x + a
    return acc


def lagrange_polynomial(nodes, i: int) -> np.ndarray:
    """Monomial coefficients (ascending) of the i-th Lagrange basis polynomial
    for the given nodes; 0-based index."""
    c = _validate_nodes(nodes)
    if not 0 <= i < c.size:
        raise IndexError(f"basis index {i} out of range for {c.size} nodes")
    with mp.workdps(_DPS):
        return np.array([float(a) for a in
                         _lagrange_coeffs_mp([mpf(v) for v in c], i)])


def _integrals_mp(basis, taus) -> np.ndarray:
    """Rows int_0^tau l_j(sigma) dsigma, one per tau, over the mp basis."""
    anti = [_antiderivative_mp(p) for p in basis]
    return np.array([[float(_eval_mp(L, t)) for L in anti] for t in taus])


def _legendre_coeffs_mp(basis):
    """(s, s+1) coefficients W[j, k] of P_k(2 tau - 1) in int_0^tau l_j, from
    the exact map tau^i = sum_{k<=i} (2k+1) i!^2 / ((i-k)! (i+k+1)!) P_k."""
    anti = [_antiderivative_mp(p) for p in basis]
    deg = len(anti[0])
    T = [[mpf((2 * k + 1) * factorial(i) ** 2)
          / (factorial(i - k) * factorial(i + k + 1)) for k in range(i + 1)]
         for i in range(deg)]
    return np.array([[float(sum(L[i] * T[i][k] for i in range(k, deg)))
                      for k in range(deg)] for L in anti])


def _tables_mp(c_mp):
    """(A, b, M, W) as float arrays from exact integration over mp nodes:
    rows a_i = int_0^{c_i} l_j, b = int_0^1 l_j, the Gram matrix
    m_ij = int_0^1 l_i l_j, symmetric by construction (upper triangle
    computed, then mirrored), and the dense-output coefficients W."""
    s = len(c_mp)
    basis = [_lagrange_coeffs_mp(c_mp, i) for i in range(s)]
    Ab = _integrals_mp(basis, [*c_mp, mpf(1)])
    M = np.empty((s, s))
    for i in range(s):
        for j in range(i, s):
            prod = [mpf(0)] * (len(basis[i]) + len(basis[j]) - 1)
            for k, a in enumerate(basis[i]):
                for l, bb in enumerate(basis[j]):
                    prod[k + l] += a * bb
            M[i, j] = float(_eval_mp(_antiderivative_mp(prod), mpf(1)))
            M[j, i] = M[i, j]
    return Ab[:-1], Ab[-1], M, _legendre_coeffs_mp(basis)


def lagrange_integral_weights(nodes, tau: float) -> np.ndarray:
    """The s integrals int_0^tau l_j(sigma) dsigma; rows of A at tau = c_i,
    the weights b at tau = 1."""
    c = _validate_nodes(nodes)
    with mp.workdps(_DPS):
        c_mp = [mpf(v) for v in c]
        basis = [_lagrange_coeffs_mp(c_mp, j) for j in range(c.size)]
        return _integrals_mp(basis, [mpf(tau)])[0]


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
    with mp.workdps(_DPS):
        # keep full node precision through the tables so the (C1)
        # orthogonality survives the float cast
        if kind == GAUSS and s >= 4:
            c_mp = _gauss_nodes_mp(s)
        else:
            nodes = gauss_legendre_nodes(s) if kind == GAUSS else lobatto_nodes(s)
            c_mp = [mpf(v) for v in nodes]
        A, b, M, W = _tables_mp(c_mp)
        c = np.array([float(v) for v in c_mp])
    if kind == GAUSS:
        if not check_c1(M, _C1_TOL):
            raise SchemeConstructionError("gauss mass matrix violates (C1)")
        if np.max(np.abs(np.diag(M) - b)) > _C1_TOL:
            raise SchemeConstructionError("gauss m_ii != b_i")
        return CollocationScheme(GAUSS, c, A, b, M, W, order=2 * s)
    scheme = CollocationScheme(LOBATTO, c, A, b, M, W, order=2 * s - 2,
                               A_hat=iiib_from_iiia(A, b))
    if symplectic_pair_residual(scheme) > _SYMPLECTIC_PAIR_TOL:
        raise SchemeConstructionError("symplectic-pair condition violated")
    return scheme
