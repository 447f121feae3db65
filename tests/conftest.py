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
