import mpmath
import numpy as np
import pytest
from mpmath import mp

from phint import collocation as coll


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


def matmul_delta_h_tilde(sol, scheme):
    """-h e' (M (x) I) f with M f as the matrix product for every scheme: the
    oracle of delta_h_tilde's Gauss row scaling."""
    Mf = scheme.M @ sol.f
    Mf *= sol.e
    return -sol.h * Mf.sum(axis=(-2, -1))
