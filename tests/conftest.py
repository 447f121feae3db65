import math
from math import cos, pi

import mpmath
import numpy as np
import pytest
from mpmath import mp, mpf

from phint import collocation as coll
from phint import dirac, integrator
from phint.dirac import assemble_blocks
from phint.errors import SchemeConstructionError
from phint.models import InputSignal, PHModel, rigid_body


@pytest.fixture(autouse=True)
def empty_maps_memo():
    """Every test starts with no linear maps in the memo.  A test that patches
    what the linear set-up calls clears it again after patching, so that its
    second side builds the maps rather than reading the first side's."""
    integrator._maps_memo.clear()


@pytest.fixture(scope="session")
def all_schemes():
    """Every scheme the package constructs, keyed by (kind, s)."""
    out = {}
    for s in coll.GAUSS_STAGE_RANGE:
        out[(coll.GAUSS, s)] = coll.make_scheme(coll.GAUSS, s)
    for s in coll.LOBATTO_STAGE_RANGE:
        out[(coll.LOBATTO, s)] = coll.make_scheme(coll.LOBATTO, s)
    return out


def leggauss_integral(fn, npts=40):
    """High-order Gauss-Legendre quadrature of fn over [0, 1]; the independent
    oracle the table integrals are checked against."""
    x, w = np.polynomial.legendre.leggauss(npts)
    t = 0.5 * (x + 1.0)
    return 0.5 * float(w @ np.array([fn(v) for v in t]))


def monomial_lagrange(c, i):
    """Monomial coefficients (ascending, mpf) of the i-th Lagrange basis
    polynomial on the mpf nodes c, as the product of the (t - c_j) / (c_i - c_j)."""
    coeffs = [mpmath.mpf(1)]
    for j in range(len(c)):
        if j == i:
            continue
        new = [mpmath.mpf(0)] * (len(coeffs) + 1)
        for k, a in enumerate(coeffs):  # multiply by (t - c_j)
            new[k] += -c[j] * a
            new[k + 1] += a
        inv = 1 / (c[i] - c[j])
        coeffs = [a * inv for a in new]
    return coeffs


def lagrange_coefficients(c, i):
    """The float coefficients of monomial_lagrange on the float nodes c, each
    rounded once from 40 digits."""
    with mp.workdps(40):
        return np.array([float(a) for a in monomial_lagrange([mpmath.mpf(v) for v in c], i)])


def general_kernel_check(J, M):
    """The s^2 pair loop of the skew defect max_ij |(M^-1)_ij| |J_i + J_j'|
    on every interval, as kernel_check computed it before its C1 and C2 fast
    paths: the oracle they must equal bit for bit."""
    s, n, lead = J.shape[-3], J.shape[-1], J.shape[:-3]
    entries, back = (n * n, s) + lead, tuple(range(len(lead)))
    Jf = np.ascontiguousarray(J.transpose((-2, -1, -3) + back)).reshape(entries)
    Jt = np.ascontiguousarray(J.transpose((-1, -2, -3) + back)).reshape(entries)
    norms, buf = np.empty((s, s) + lead), np.empty(entries)
    for i in range(s):
        np.abs(np.add(Jf[:, i:i + 1], Jt, out=buf), out=buf)
        np.max(buf, axis=0, out=norms[i])
    norms *= np.abs(np.linalg.inv(M)).reshape((s, s) + (1,) * len(lead))
    return np.max(norms.reshape((s * s,) + lead), axis=0)


def stride0_blocks(model, states, scheme=None):
    """assemble_blocks with a constant structure's J and G broadcast over
    the states to stride-0 stacks (..., n, n) and (..., n, m), read-only and
    without a copy: the stacked form that np.matvec applies stage by stage,
    for the tests that need stacks of every model."""
    J, G = assemble_blocks(model, states, scheme)
    if model.constant_structure:
        lead = np.shape(states)[:-1]
        J, G = (np.broadcast_to(B, lead + B.shape) for B in (J, G))
    return J, G


def matmul_delta_h_tilde(sol, scheme):
    """-h e' (M (x) I) f with M f as the matrix product for every scheme: the
    oracle of delta_h_tilde's Gauss row scaling."""
    Mf = scheme.M @ sol.f
    Mf *= sol.e
    return -sol.h * Mf.sum(axis=(-2, -1))


def matmul_discrete_output(K, G, e):
    """Rows G_i' (K e)_i with K e as the matrix product for every K, a
    diagonal given as its diagonal expanded first: the oracle of
    discrete_output's row scaling."""
    K = np.diag(K) if K.ndim == 1 else K
    return dirac._apply(np.swapaxes(G, -1, -2), K @ e)


def matmul_apply(A, x):
    """dirac._apply with its one-matrix products as the matmul operator, the
    form they had before they took ndarray.dot: the oracle of their bytes."""
    if A.ndim > 2:
        return np.matvec(A, x)
    if x.ndim <= 2:
        return x @ A.T
    rows = x.reshape(math.prod(x.shape[:-1]), A.shape[1]) @ A.T
    return rows.reshape(x.shape[:-1] + A.shape[:1])


# Rounding-visible models: dense constant matrices with entries that are not
# dyadic, so a one-matrix product rounds and a change in the order of its sum
# shows in the bytes of a run.  The catalogue models' diagonal Q and 0/+-1 J
# and G make every such product exact in any order.  Written as literals.

# symmetric and strictly diagonally dominant with a positive diagonal: SPD
DENSE_Q = np.array([[2.3, 0.7, -0.4, 0.3],
                    [0.7, 1.9, 0.5, -0.6],
                    [-0.4, 0.5, 2.7, 0.8],
                    [0.3, -0.6, 0.8, 3.1]])
DENSE_J = np.array([[0.0, 0.9, -0.3, 0.6],
                    [-0.9, 0.0, 1.1, -0.2],
                    [0.3, -1.1, 0.0, 0.7],
                    [-0.6, 0.2, -0.7, 0.0]])
DENSE_G = np.array([[0.4, -0.3],
                    [0.2, 0.5],
                    [-0.6, 0.1],
                    [0.3, 0.7]])
DENSE_X0 = np.array([0.6, -0.3, 0.8, 0.1])
# R diag(1, 1/2.7, 1/3.3) R', R the rotation by 0.7 rad about (1, 2, 2)/3,
# rounded to double and symmetrized
ROTATED_RIGID_Q = np.array([[0.7486610503590209, 0.24348909924638387, -0.21606522071783069],
                            [0.24348909924638387, 0.5156699520733863, -0.10796404537964374],
                            [-0.21606522071783069, -0.10796404537964374, 0.4090696709682662]])
ROTATED_RIGID_X0 = np.array([0.9, -0.5, 0.7])


def two_channel_input():
    """u(t) = (sin 0.7 t, cos(1.3 t) / 2), the input of the 4-state models."""
    return InputSignal(fn=lambda t: np.stack([np.sin(0.7 * t), 0.5 * np.cos(1.3 * t)], axis=-1))


def dense_model():
    """H = x'Qx/2 with the dense DENSE_Q, DENSE_J and DENSE_G: the linear stepper."""
    return PHModel(4, 2, H=lambda x: 0.5 * (x @ DENSE_Q @ x), gradH=DENSE_Q,
                   J=DENSE_J, G=DENSE_G, name="dense")


def dense_newton_model():
    """dense_model with gradH the callable x -> Q x: the same constant
    structure, no Q, so the Newton stepper."""
    return PHModel(4, 2, H=lambda x: 0.5 * (x @ DENSE_Q @ x), gradH=lambda x: DENSE_Q @ x,
                   J=DENSE_J, G=DENSE_G, name="dense-newton")


def rotated_rigid_body():
    """The free rigid body with inertias (1, 2.7, 3.3) in a rotated frame:
    Q = ROTATED_RIGID_Q, and J(x) the cross-product matrix of x, which a
    rotation leaves as it is.  Its stacked J e products round."""
    return PHModel(3, 0, H=lambda x: 0.5 * (x @ ROTATED_RIGID_Q @ x), gradH=ROTATED_RIGID_Q,
                   J=rigid_body().J, G=lambda x: np.zeros((3, 0)), name="rotated-rigid-body")


# The 40-digit mpmath table builder that the fixed-point one replaced, kept as
# its oracle: the same algorithm on mpf at 40 digits, rounded once to float.

def _legendre_zero_mp(s, x, tol):
    """Newton steps on P_s from x in the arithmetic of x (float or mpf)."""
    for _ in range(20):
        p, q = x, 1
        for k in range(2, s + 1):
            p, q = ((2 * k - 1) * x * p - (k - 1) * q) / k, p
        dx = p * (x * x - 1) / (s * (x * p - q))  # P_s / P_s'
        x -= dx
        if abs(dx) <= tol:
            return x
    raise SchemeConstructionError(f"gauss s = {s} node did not converge")


def gauss_nodes_mp(s):
    """Zeros of P_s(2t - 1) in 40-digit mpf, ascending: Newton from the cosine
    estimates in double precision, then at 64 extra bits to a step < 2^-32
    ulp, rounded once."""
    starts = [cos(pi * (i - 0.25) / (s + 0.5)) for i in range(s, 0, -1)]
    with mp.workdps(40):
        tol = mp.ldexp(1, -mp.prec - 32)
        with mp.workprec(mp.prec + 64):
            nodes = [(1 + _legendre_zero_mp(s, mpf(_legendre_zero_mp(s, x, 1e-8)), tol)) / 2
                     for x in starts]
        return [+c for c in nodes]


def fixed_to_mp(values, bits):
    """Fixed-point ints (value * 2^bits) as mpf, each rounded once to 40 digits."""
    with mp.workdps(40):
        return [+mp.ldexp(mpf(v), -bits) for v in values]


def _legendre_mp(n, t):
    x = 2 * t - 1
    p = [mpf(1), x]
    for k in range(1, n):
        p.append(((2 * k + 1) * x * p[k] - k * p[k - 1]) / (k + 1))
    return p[:n + 1]


def _coefficients_mp(c_mp, zeros=False):
    s = len(c_mp)
    V = [_legendre_mp(s - 1, c) for c in c_mp]
    if not zeros:
        return list(zip(*mp.inverse(mp.matrix(V)).tolist()))
    b = [1 / mp.fsum((2 * k + 1) * v[k] ** 2 for k in range(s)) for v in V]
    return [[(2 * k + 1) * bj * v[k] for k in range(s)] for bj, v in zip(b, V)]


def _integral_weights_mp(cols, t):
    p = _legendre_mp(len(cols), t)
    q = [t] + [(p[k + 1] - p[k - 1]) / (4 * k + 2) for k in range(1, len(cols))]
    return [float(mp.fdot(q, col)) for col in cols]


def tables_mp(c_mp, gauss):
    """(A, b, M, W) as float arrays from mpf nodes at the current precision,
    each entry rounded once: the closed-form Legendre sums of collocation._tables,
    with the Gauss nodes taken as Legendre zeros."""
    s = len(c_mp)
    cols = _coefficients_mp(c_mp, gauss)
    A = np.array([_integral_weights_mp(cols, c) for c in c_mp])
    b = np.array([float(col[0]) for col in cols])
    W = np.array([[d[0] - d[1]] + [d[m - 1] - d[m + 1] for m in range(1, s + 1)]
                  for d in ([col[0] / 2] + [col[k] / (4 * k + 2) for k in range(1, s)] + [0, 0]
                            for col in cols)], dtype=float)
    M = np.diag(b) if gauss else np.array(
        [[mp.fsum(u[k] * v[k] / (2 * k + 1) for k in range(s)) for v in cols] for u in cols],
        dtype=float)
    return A, b, M, W


# Lobatto float nodes on [0, 1]: both endpoints and the zeros of P_{s-1}'(2t - 1),
# 1/2 and 1/2 -+ sqrt(5)/10, each correctly rounded
LOBATTO_NODES = {2: [0.0, 1.0], 3: [0.0, 0.5, 1.0],
                 4: [0.0, 0.5 - math.sqrt(5.0) / 10, 0.5 + math.sqrt(5.0) / 10, 1.0]}


def scheme_mp(kind, s):
    """The 40-digit builder's record of a scheme, as a dict of float arrays;
    a Lobatto pair's A_hat from the symplectic-pair identity
    b_i a_hat_ij + b_j a_ji = b_i b_j on the rounded A and b."""
    gauss = kind == coll.GAUSS
    with mp.workdps(40):
        c_mp = gauss_nodes_mp(s) if gauss else [mpf(v) for v in LOBATTO_NODES[s]]
        A, b, M, W = tables_mp(c_mp, gauss)
    return {"c": np.array([float(v) for v in c_mp]), "A": A, "b": b, "M": M, "W": W,
            "A_hat": None if gauss else b[None, :] - (b[None, :] / b[:, None]) * A.T}
