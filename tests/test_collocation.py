"""Node sets, tableaux and mass matrices against closed forms, an
independent quadrature oracle and the monomial construction they replaced."""
import hashlib
import os
import subprocess
import sys
from math import comb, factorial
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from phint import collocation as coll
from phint.errors import SchemeConstructionError

from conftest import (LOBATTO_NODES, fixed_to_mp, gauss_nodes_mp, lagrange_coefficients,
                      leggauss_integral, monomial_lagrange, scheme_mp, tables_mp)

# sha256 of the Gauss 1 .. 8 node sets (the records' c) as float64 little-endian
# bytes: the Legendre zeros correctly rounded, which are the mp.polyroots roots
# of the Rodrigues polynomial at 40 digits rounded once
NODES_DIGEST = "3cb6a93b35618ddc69b07e21e0bf482696dd9fae18335478265e8ac3d92ba00b"

SQ5 = np.sqrt(5.0)

LOBATTO_A = {
    2: [[0.0, 0.0], [0.5, 0.5]],
    3: [[0.0, 0.0, 0.0], [5 / 24, 1 / 3, -1 / 24], [1 / 6, 2 / 3, 1 / 6]],
    4: [[0.0, 0.0, 0.0, 0.0],
        [(11 + SQ5) / 120, (25 - SQ5) / 120, (25 - 13 * SQ5) / 120, (-1 + SQ5) / 120],
        [(11 - SQ5) / 120, (25 + 13 * SQ5) / 120, (25 + SQ5) / 120, (-1 - SQ5) / 120],
        [1 / 12, 5 / 12, 5 / 12, 1 / 12]],
}
LOBATTO_B = {2: [0.5, 0.5], 3: [1 / 6, 2 / 3, 1 / 6],
             4: [1 / 12, 5 / 12, 5 / 12, 1 / 12]}

LOBATTO3_M = np.array([[2 / 15, 1 / 15, -1 / 30],
                       [1 / 15, 8 / 15, 1 / 15],
                       [-1 / 30, 1 / 15, 2 / 15]])


def _gauss_closed_form(s):
    """c, A and b of Gauss s = 1-3 from their closed forms at 60 digits, each
    entry rounded once to float."""
    with mp.workdps(60):
        one = mpmath.mpf(1)
        h, d, q, f, g = one / 2, mp.sqrt(3) / 6, mp.sqrt(15), 5 * one / 36, 2 * one / 9
        c, A, b = {
            1: ([h], [[h]], [one]),
            2: ([h - d, h + d], [[h / 2, h / 2 - d], [h / 2 + d, h / 2]], [h, h]),
            3: ([h - q / 10, h, h + q / 10],
                [[f, g - q / 15, f - q / 30], [f + q / 24, g, f - q / 24],
                 [f + q / 30, g + q / 15, f]],
                [5 * one / 18, 4 * one / 9, 5 * one / 18]),
        }[s]
        return tuple(np.array(x, dtype=float) for x in (c, A, b))


def gauss_legendre_nodes(s):
    """The Gauss node set of the record make_scheme builds."""
    return coll.make_scheme(coll.GAUSS, s).c


def lobatto_nodes(s):
    """The Lobatto node set of the record make_scheme builds."""
    return coll.make_scheme(coll.LOBATTO, s).c


def _off_diagonal_zero(M):
    """C1 written out: no off-diagonal entry of M is nonzero."""
    return not np.any(M[~np.eye(len(M), dtype=bool)])


@pytest.mark.parametrize("s", [1, 2, 3])
def test_gauss_nodes_closed_form(s):
    # 1/2; 1/2 -+ sqrt(3)/6; 1/2 -+ sqrt(15)/10 and 1/2, each correctly rounded
    assert gauss_legendre_nodes(s).tobytes() == _gauss_closed_form(s)[0].tobytes()


@pytest.mark.parametrize("s", [2, 3, 4])
def test_lobatto_nodes_closed_form(s):
    # 0 and 1; 1/2; 1/2 -+ sqrt(5)/10, each correctly rounded
    assert lobatto_nodes(s).tobytes() == np.array(LOBATTO_NODES[s]).tobytes()


@pytest.mark.parametrize("s", range(1, 9))
def test_gauss_nodes_are_legendre_roots(s):
    # shifted Legendre polynomial via the recurrence, evaluated at the nodes
    c = gauss_legendre_nodes(s)
    x = 2.0 * c - 1.0
    pk_1, pk = np.ones_like(x), x
    for k in range(1, s):
        pk_1, pk = pk, ((2 * k + 1) * x * pk - k * pk_1) / (k + 1)
    assert np.max(np.abs(pk)) < 1e-13
    assert np.all((c > 0) & (c < 1))
    assert np.all(np.diff(c) > 0)


def _polyroots_nodes(s):
    """Roots of the Rodrigues expansion d^s/dt^s [t^s (t-1)^s] by
    mp.polyroots at 40 digits, ascending: the construction the Newton nodes
    replaced, kept as their oracle."""
    # t^s (t-1)^s = sum_k C(s,k) (-1)^(s-k) t^(s+k); differentiate s times
    coeffs_desc = []
    for k in range(s, -1, -1):  # degree s+k, descending
        a = comb(s, k) * (-1) ** (s - k)
        coeffs_desc.append(a * factorial(s + k) // factorial(k))
    with mp.workdps(40):
        roots = mp.polyroots(coeffs_desc, maxsteps=200, extraprec=60)
        return sorted(mp.re(r) for r in roots)


@pytest.mark.parametrize("s", range(1, 9))
def test_newton_nodes_equal_polyroots(s):
    # the fixed-point nodes rounded to 40 digits, and the 40-digit oracle's
    assert fixed_to_mp(coll._gauss_nodes(s, coll._BITS), coll._BITS) == _polyroots_nodes(s)
    assert gauss_nodes_mp(s) == _polyroots_nodes(s)


def test_double_start_leaves_few_mpf_steps(monkeypatch):
    # from the cosine estimates Gauss-8 took 44 mpf steps; from a start within
    # about 1e-16 each node needs at most 4 steps in either arithmetic
    monkeypatch.setattr(coll, "_NODE_MAX_ITER", 4)
    for s in range(1, 9):
        assert fixed_to_mp(coll._gauss_nodes(s, coll._BITS), coll._BITS) == _polyroots_nodes(s)


@pytest.mark.parametrize("s", range(1, 9))
def test_tables_over_polyroots_nodes_are_the_scheme(s):
    scheme = coll.make_scheme(coll.GAUSS, s)
    with mp.workdps(40):
        A, b, M, W = tables_mp(_polyroots_nodes(s), gauss=True)
    for name, arr in (("A", A), ("b", b), ("M", M), ("W", W)):
        assert arr.tobytes() == getattr(scheme, name).tobytes(), name


@pytest.mark.parametrize("kind,s", [(coll.GAUSS, s) for s in range(1, 9)]
                         + [(coll.LOBATTO, s) for s in range(2, 5)])
def test_fixed_point_tables_equal_40_digit_builder(kind, s):
    # the same sums over 256-bit ints and over 40-digit mpf round to the same floats
    scheme, oracle = coll.make_scheme(kind, s), scheme_mp(kind, s)
    for name in ("c", "A", "b", "M", "W", "A_hat"):
        new, old = getattr(scheme, name), oracle[name]
        assert (new is None and old is None) or new.tobytes() == old.tobytes(), name


def test_tables_round_the_same_at_512_bits():
    # the 256-bit tables are the floats of the exact ones: doubling the bits
    # moves no entry of any scheme
    for kind, stages in ((coll.GAUSS, coll.GAUSS_STAGE_RANGE),
                         (coll.LOBATTO, coll.LOBATTO_STAGE_RANGE)):
        for s in stages:
            for t256, t512 in zip(coll._tables(kind, s, 256), coll._tables(kind, s, 512)):
                assert coll._round(t256, 256).tobytes() == coll._round(t512, 512).tobytes()


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def test_tables_and_nodes_keep_their_bytes(all_schemes):
    # sha256 of the tables (c, A, b, M, W, A_hat of gauss 1-8, lobatto 2-4, in
    # that order), as the 40-digit oracle makes them, and of the Gauss 1 .. 8 nodes
    tables = [getattr(scheme, name) for scheme in all_schemes.values()
              for name in ("c", "A", "b", "M", "W", "A_hat")]
    assert _digest(t for t in tables if t is not None) == \
        "7fd6a5cd0df8090ec6a83f05081ccdeb565e35b370160cefcacce760e970b374"
    assert _digest(gauss_legendre_nodes(s) for s in range(1, 9)) == NODES_DIGEST


# The monomial construction the Legendre basis replaced, kept as its oracle:
# Lagrange coefficients by repeated multiplication with (t - c_j), exact
# antiderivatives in the monomial basis, the Gram matrix of the l_i l_j
# products and the exact map tau^i = sum_k (2k+1) i!^2 / ((i-k)! (i+k+1)!) P~_k.

def _monomial_antiderivative(coeffs):
    return [mpmath.mpf(0)] + [a / (k + 1) for k, a in enumerate(coeffs)]


def _monomial_eval(coeffs, x):
    acc = mpmath.mpf(0)
    for a in reversed(coeffs):
        acc = acc * x + a
    return acc


def _monomial_tables(c_mp):
    """(A, b, M, W) of the monomial construction over 40-digit nodes, with M
    the Gram matrix int_0^1 l_i l_j (upper triangle, mirrored)."""
    s = len(c_mp)
    basis = [monomial_lagrange(c_mp, i) for i in range(s)]
    anti = [_monomial_antiderivative(p) for p in basis]
    Ab = np.array([[float(_monomial_eval(L, t)) for L in anti]
                   for t in [*c_mp, mpmath.mpf(1)]])
    M = np.empty((s, s))
    for i in range(s):
        for j in range(i, s):
            prod = [mpmath.mpf(0)] * (len(basis[i]) + len(basis[j]) - 1)
            for k, a in enumerate(basis[i]):
                for l, bb in enumerate(basis[j]):
                    prod[k + l] += a * bb
            M[i, j] = M[j, i] = float(_monomial_eval(_monomial_antiderivative(prod), 1))
    T = [[mpmath.mpf((2 * k + 1) * factorial(i) ** 2)
          / (factorial(i - k) * factorial(i + k + 1)) for k in range(i + 1)]
         for i in range(s + 1)]
    W = np.array([[float(sum(L[i] * T[i][k] for i in range(k, s + 1)))
                   for k in range(s + 1)] for L in anti])
    return Ab[:-1], Ab[-1], M, W


def _oracle_scheme(kind, s):
    with mp.workdps(40):
        c_mp = (_polyroots_nodes(s) if kind == coll.GAUSS
                else [mpmath.mpf(v) for v in LOBATTO_NODES[s]])
        A, b, M, W = _monomial_tables(c_mp)
    c = np.array([float(v) for v in c_mp])
    A_hat = None if kind == coll.GAUSS else b[None, :] - (b[None, :] / b[:, None]) * A.T
    return {"c": c, "A": A, "b": b, "M": M, "W": W, "A_hat": A_hat}


def _exact_zeros(kind, s, name, shape):
    """Entries whose exact value is 0: the row of c_1 = 0 in Lobatto A, and
    for node sets symmetric about an exact middle node 1/2 (the Legendre
    zeros of odd s and Lobatto-3) the even P~_m, m >= 2, of int_0^tau l_mid,
    which is odd about 1/2."""
    mask = np.zeros(shape, dtype=bool)
    if name == "A" and kind == coll.LOBATTO:
        mask[0] = True
    if name == "W" and (kind, s) in ((coll.GAUSS, 3), (coll.GAUSS, 5), (coll.GAUSS, 7),
                                     (coll.LOBATTO, 3)):
        mask[s // 2, 2::2] = True
    return mask


@pytest.mark.parametrize("kind,s", [(coll.GAUSS, s) for s in range(1, 9)]
                         + [(coll.LOBATTO, s) for s in range(2, 5)])
def test_tables_equal_monomial_oracle(kind, s):
    # one rounding from 40 digits in either basis gives the same float, except
    # where the exact value is 0: the Legendre tables hold 0.0 there, the
    # monomial ones rounding noise
    scheme, oracle = coll.make_scheme(kind, s), _oracle_scheme(kind, s)
    names = ["c", "A", "b", "W"] + (["M", "A_hat"] if kind == coll.LOBATTO else [])
    for name in names:
        new, old = getattr(scheme, name), oracle[name]
        zero = _exact_zeros(kind, s, name, new.shape)
        assert np.all(new[zero] == 0.0), name
        assert np.all(np.abs(old[zero]) < 1.5e-39), name
        assert new[~zero].tobytes() == old[~zero].tobytes(), name
    if kind == coll.GAUSS:
        # the Gram matrix differs from diag(b) by 40-digit noise at the
        # Legendre zeros only (8e-34 at s = 8)
        assert np.max(np.abs(oracle["M"] - np.diag(scheme.b))) < 1e-32


@pytest.mark.parametrize("s", range(1, 9))
def test_gauss_mass_matrix_is_exactly_diag_b(s):
    scheme = coll.make_scheme(coll.GAUSS, s)
    assert scheme.M.tobytes() == np.diag(scheme.b).tobytes()


def test_gauss_record_needs_diag_b_mass_matrix():
    gauss2 = coll.make_scheme(coll.GAUSS, 2)
    M = np.diag(gauss2.b) + 1e-18 * np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(SchemeConstructionError, match="diag"):
        coll.CollocationScheme(coll.GAUSS, gauss2.c.copy(), gauss2.A.copy(),
                               gauss2.b.copy(), M, gauss2.W.copy(), order=4)


def test_lobatto_record_needs_symplectic_pair():
    lob3 = coll.make_scheme(coll.LOBATTO, 3)
    with pytest.raises(SchemeConstructionError, match="symplectic-pair"):
        coll.CollocationScheme(coll.LOBATTO, lob3.c.copy(), lob3.A.copy(),
                               lob3.b.copy(), lob3.M.copy(), lob3.W.copy(),
                               order=4, A_hat=lob3.A.copy())


@pytest.mark.parametrize("kind,s,name,message", [
    (coll.GAUSS, 2, "A", "row-sum consistency"),
    (coll.LOBATTO, 3, "A_hat", "symplectic-pair")])
def test_record_checks_at_their_tolerance(kind, s, name, message):
    # a built record with one entry moved by 1e-9 fails its 1e-13 check (a
    # check loosened to 1e-3 would pass it); moved by 1e-14 it passes
    scheme = coll.make_scheme(kind, s)
    for shift, caught in ((1e-9, True), (1e-14, False)):
        arrays = {k: getattr(scheme, k) for k in ("c", "A", "b", "M", "W", "A_hat")}
        arrays[name] = arrays[name].copy()
        arrays[name][0, 0] += shift
        if caught:
            with pytest.raises(SchemeConstructionError, match=message):
                coll.CollocationScheme(kind, order=scheme.order, **arrays)
        else:
            coll.CollocationScheme(kind, order=scheme.order, **arrays)


def test_lagrange_functions_match_monomial_oracle(all_schemes):
    # the public float helper over float nodes against the monomial
    # construction over the same nodes
    for scheme in all_schemes.values():
        with mp.workdps(40):
            c_mp = [mpmath.mpf(v) for v in scheme.c]
            anti = [_monomial_antiderivative(monomial_lagrange(c_mp, j))
                    for j in range(scheme.s)]
            for tau in (0.0, 0.3, 1.0):
                expect = [float(_monomial_eval(L, mpmath.mpf(tau))) for L in anti]
                assert coll.lagrange_integral_weights(scheme.c, tau).tobytes() \
                    == np.array(expect).tobytes()


@st.composite
def spaced_nodes(draw):
    """s <= 8 increasing nodes in [0, 1], at least 0.05 apart: the free length
    1 - 0.05 (s - 1) split by s + 1 drawn weights (the first before c_1, the
    last after c_s), so an endpoint is a node when its weight is 0."""
    s = draw(st.integers(1, 8))
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=s + 1, max_size=s + 1)))
    gaps = (1.0 - 0.05 * (s - 1)) * w[:s] / (w.sum() or 1.0) + 0.05 * (np.arange(s) > 0)
    return np.minimum(np.cumsum(gaps), 1.0)


def _round_once(x):
    """An mpf as the nearest float; float(x) rounds twice below 2^-1022."""
    sign, man, exp, _ = x._mpf_
    man = -man if sign else man
    return man / (1 << -exp) if exp < 0 else float(man << exp)


@settings(max_examples=60, deadline=None)
@given(c=spaced_nodes(), tau=st.floats(0.0, 1.0))
def test_lagrange_integral_weights_equal_monomial_oracle(c, tau):
    # the Gauss-Jordan path of the float node sets, for any tau in [0, 1]
    # (subnormal ones included), against the 40-digit monomial construction
    with mp.workdps(40):
        c_mp = [mpmath.mpf(v) for v in c]
        expect = [_round_once(_monomial_eval(_monomial_antiderivative(monomial_lagrange(c_mp, j)),
                                             mpmath.mpf(tau))) for j in range(len(c))]
    assert coll.lagrange_integral_weights(c, tau).tobytes() == np.array(expect).tobytes()


def test_cli_import_leaves_mpmath_out():
    src = Path(coll.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c",
                          "import phint.cli, sys; print('mpmath' in sys.modules)"],
                         env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
                         check=True)
    assert out.stdout == "False\n"


@pytest.mark.parametrize("s", range(1, 9))
def test_gauss_legendre_nodes_unchanged(s):
    expect = np.array([float(r) for r in _polyroots_nodes(s)])
    assert gauss_legendre_nodes(s).tobytes() == expect.tobytes()


@pytest.mark.parametrize("s", range(1, 9))
def test_newton_nodes_are_symmetric_legendre_zeros(s):
    fixed = coll._gauss_nodes(s, coll._BITS)
    if s % 2:  # the middle node is 1/2 exactly, so the odd P~_k vanish there
        assert fixed[s // 2] == 1 << coll._BITS - 1
    nodes = fixed_to_mp(fixed, coll._BITS)
    with mp.workdps(40):
        for c in nodes:
            assert abs(mp.legendre(s, 2 * c - 1)) <= mpmath.mpf("1e-35")
            assert 0 < c < 1
        for c, d in zip(nodes, nodes[1:]):
            assert c < d
        for c, d in zip(nodes, reversed(nodes)):
            assert abs(c + d - 1) <= mpmath.mpf("1e-38")


def test_schemes_build_without_polyroots(monkeypatch, all_schemes):
    def refuse(*args, **kwargs):
        raise AssertionError("mp.polyroots called during scheme set-up")

    monkeypatch.setattr(mpmath.mp, "polyroots", refuse)
    coll._make_scheme.cache_clear()
    for (kind, s), scheme in all_schemes.items():
        rebuilt = coll.make_scheme(kind, s)
        assert rebuilt is not scheme
        for name in ("c", "A", "b", "M", "W"):
            assert getattr(rebuilt, name).tobytes() == getattr(scheme, name).tobytes()


def test_unconverged_node_raises(monkeypatch):
    # two Newton steps per precision stop short of the step bounds
    monkeypatch.setattr(coll, "_NODE_MAX_ITER", 2)
    with pytest.raises(SchemeConstructionError, match="s = 6"):
        coll._gauss_nodes(6, coll._BITS)
    coll._make_scheme.cache_clear()
    with pytest.raises(SchemeConstructionError, match="s = 5"):
        coll.make_scheme(coll.GAUSS, 5)


def test_nan_start_never_returns_a_node(monkeypatch):
    monkeypatch.setattr(coll, "cos", lambda a: float("nan"))
    for s in (4, 5):
        with pytest.raises(SchemeConstructionError, match=f"s = {s}"):
            coll._gauss_nodes(s, coll._BITS)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_gauss_tableau_closed_form(s):
    # every entry of c, A and b is its closed form rounded once
    scheme = coll.make_scheme(coll.GAUSS, s)
    for name, expect in zip(("c", "A", "b"), _gauss_closed_form(s)):
        assert getattr(scheme, name).tobytes() == expect.tobytes(), name


@pytest.mark.parametrize("s", [2, 3, 4])
def test_lobatto_tableau_closed_form(s):
    scheme = coll.make_scheme(coll.LOBATTO, s)
    assert np.max(np.abs(scheme.A - LOBATTO_A[s])) < 1e-14
    assert np.max(np.abs(scheme.b - LOBATTO_B[s])) < 1e-14


def test_companion_tableau_closed_form():
    # the records' IIIB companions: s=2 rows all (1/2, 0); s=3 the standard table
    lob2 = coll.make_scheme(coll.LOBATTO, 2)
    assert np.max(np.abs(lob2.A_hat - [[0.5, 0.0], [0.5, 0.0]])) < 1e-14
    lob3 = coll.make_scheme(coll.LOBATTO, 3)
    expect = np.array([[1 / 6, -1 / 6, 0.0],
                       [1 / 6, 1 / 3, 0.0],
                       [1 / 6, 5 / 6, 0.0]])
    assert np.max(np.abs(lob3.A_hat - expect)) < 1e-14


def test_lobatto3_mass_matrix_closed_form():
    M = coll.make_scheme(coll.LOBATTO, 3).M
    assert np.max(np.abs(M - LOBATTO3_M)) < 1e-14


def test_tables_match_quadrature_oracle(all_schemes):
    # a_ij, b_j, m_ij re-derived by 40-point quadrature of the Lagrange basis
    for scheme in all_schemes.values():
        c = scheme.c
        s = scheme.s
        basis = [np.polynomial.Polynomial(lagrange_coefficients(c, i))
                 for i in range(s)]
        # evaluating the monomial-coefficient basis loses a few digits at
        # s = 8 (condition number of the power basis), hence 1e-12
        for j in range(s):
            bj = leggauss_integral(basis[j])
            assert abs(scheme.b[j] - bj) < 1e-12
            anti = basis[j].integ()
            for i in range(s):
                assert abs(scheme.A[i, j] - (anti(c[i]) - anti(0.0))) < 1e-12
                mij = leggauss_integral(lambda t: basis[i](t) * basis[j](t))
                assert abs(scheme.M[i, j] - mij) < 1e-12


def test_quadrature_exactness(all_schemes):
    # sum_j b_j c_j^k = 1/(k+1) up to the scheme's quadrature degree
    for (kind, s), scheme in all_schemes.items():
        degree = 2 * s - 1 if kind == coll.GAUSS else 2 * s - 3
        for k in range(degree + 1):
            assert abs(scheme.b @ scheme.c**k - 1.0 / (k + 1)) < 1e-13, (kind, s, k)


def test_row_sums_equal_nodes(all_schemes):
    for scheme in all_schemes.values():
        assert np.max(np.abs(scheme.A.sum(axis=1) - scheme.c)) < 1e-13


def test_gauss_mass_matrix_is_diagonal(all_schemes):
    for (kind, s), scheme in all_schemes.items():
        if kind != coll.GAUSS:
            continue
        assert scheme.c1 and _off_diagonal_zero(scheme.M)
        assert np.max(np.abs(np.diag(scheme.M) - scheme.b)) < 1e-14


def test_lobatto_mass_matrix_not_diagonal(all_schemes):
    for (kind, s), scheme in all_schemes.items():
        if kind != coll.LOBATTO:
            continue
        assert not scheme.c1 and not _off_diagonal_zero(scheme.M)


def test_mass_matrix_symmetric_positive_definite(all_schemes):
    for scheme in all_schemes.values():
        M = scheme.M
        assert np.max(np.abs(M - M.T)) == 0.0
        assert np.linalg.eigvalsh(M).min() > 0.0


def test_quadratic_invariant_residual_signatures(all_schemes):
    for (kind, s), scheme in all_schemes.items():
        res = coll.quadratic_invariant_residual(scheme)
        if kind == coll.GAUSS:
            assert res < 1e-14
        else:
            assert res > 1e-3


def test_lobatto3_quadratic_invariant_residual_value():
    # largest entry of a_ij b_i + a_ji b_j - b_i b_j sits in the corners:
    # |0 + 1/6 * 1/6 - 1/36 * ... | -> 1/36 by direct enumeration
    scheme = coll.make_scheme(coll.LOBATTO, 3)
    assert abs(coll.quadratic_invariant_residual(scheme) - 1.0 / 36.0) < 1e-14


def test_symplectic_pair_residual(all_schemes):
    for (kind, s), scheme in all_schemes.items():
        if kind != coll.LOBATTO:
            continue
        assert coll.symplectic_pair_residual(scheme) < 1e-13


def test_lagrange_basis_cardinal_property(all_schemes):
    for scheme in all_schemes.values():
        c = scheme.c
        for i in range(scheme.s):
            p = np.polynomial.Polynomial(lagrange_coefficients(c, i))
            vals = p(c)
            expect = np.zeros(scheme.s)
            expect[i] = 1.0
            # power-basis evaluation at s = 8 costs ~1e-12 of accuracy
            assert np.max(np.abs(vals - expect)) < 1e-11


def test_lagrange_partition_of_unity():
    c = gauss_legendre_nodes(4)
    total = sum(np.polynomial.Polynomial(lagrange_coefficients(c, i))
                for i in range(4))
    ts = np.linspace(0, 1, 17)
    assert np.max(np.abs(total(ts) - 1.0)) < 1e-12


def test_integral_weights_interpolate_tableau(all_schemes):
    for scheme in all_schemes.values():
        for i, ci in enumerate(scheme.c):
            w = coll.lagrange_integral_weights(scheme.c, ci)
            assert np.max(np.abs(w - scheme.A[i])) < 1e-14
        w1 = coll.lagrange_integral_weights(scheme.c, 1.0)
        assert np.max(np.abs(w1 - scheme.b)) < 1e-14


def test_scheme_orders_and_labels(all_schemes):
    for (kind, s), scheme in all_schemes.items():
        assert scheme.order == (2 * s if kind == coll.GAUSS else 2 * s - 2)
        assert scheme.label == f"{kind}-s{s}"
        assert (scheme.A_hat is None) == (kind == coll.GAUSS)


def test_make_scheme_is_cached_and_read_only(all_schemes):
    for (kind, s), scheme in all_schemes.items():
        assert coll.make_scheme(kind, s) is coll.make_scheme(kind, s)
        for name in ("c", "A", "b", "M", "W", "A_hat"):
            arr = getattr(scheme, name)
            if arr is None:
                continue
            with pytest.raises(ValueError):
                arr[0] = 0.0
            # the cached record is shared: none of its fields can be rebound
            with pytest.raises(AttributeError, match="read-only"):
                setattr(scheme, name, None)
            with pytest.raises(AttributeError, match="read-only"):
                delattr(scheme, name)


@pytest.mark.parametrize("kind,s", [(coll.GAUSS, 0), (coll.GAUSS, 9),
                                    (coll.LOBATTO, 1), (coll.LOBATTO, 5)])
def test_unsupported_stage_counts(kind, s):
    with pytest.raises(ValueError):
        coll.make_scheme(kind, s)


@pytest.mark.parametrize("kind,s", [(coll.LOBATTO, 4.0), (coll.GAUSS, 2.0),
                                    (coll.GAUSS, 5.0), (coll.GAUSS, True),
                                    (coll.GAUSS, False), (coll.GAUSS, "4")])
def test_non_integer_stage_counts_rejected(kind, s):
    with pytest.raises(ValueError, match=repr(s)):
        coll.make_scheme(kind, s)


@pytest.mark.parametrize("nodes,s", [
    (gauss_legendre_nodes, 2.0), (gauss_legendre_nodes, 5.0),
    (gauss_legendre_nodes, True), (gauss_legendre_nodes, "4"),
    (gauss_legendre_nodes, 0), (gauss_legendre_nodes, 9),
    (lobatto_nodes, 4.0), (lobatto_nodes, False),
    (lobatto_nodes, 1), (lobatto_nodes, 5), (lobatto_nodes, None)])
def test_node_sets_check_the_stage_count(nodes, s):
    # make_scheme, the one source of a node set, rejects bool, float, string,
    # None and out-of-range counts with s named, not coerced or failed on in numpy
    with pytest.raises(ValueError, match=f"stage count {s!r}"):
        nodes(s)


@pytest.mark.parametrize("kind,s", [(coll.GAUSS, 2), (coll.GAUSS, 5),
                                    (coll.LOBATTO, 4)])
def test_node_sets_take_numpy_integer_counts(kind, s):
    nodes = gauss_legendre_nodes if kind == coll.GAUSS else lobatto_nodes
    assert nodes(np.int64(s)) is nodes(s)


def test_numpy_integer_stage_count_is_the_int_scheme(monkeypatch):
    cached, keys = coll._make_scheme, []

    def spy(kind, s):
        keys.append(s)
        return cached(kind, s)

    monkeypatch.setattr(coll, "_make_scheme", spy)
    for kind, s in ((coll.GAUSS, 5), (coll.LOBATTO, 4)):
        scheme = coll.make_scheme(kind, np.int64(s))
        assert scheme is coll.make_scheme(kind, s)
        assert type(scheme.order) is int
    assert keys == [5, 5, 4, 4] and all(type(k) is int for k in keys)


def test_bad_nodes_rejected():
    with pytest.raises(ValueError):
        coll.lagrange_integral_weights([0.3, 0.2], 0.5)
    with pytest.raises(ValueError):
        coll.lagrange_integral_weights([-0.1, 0.5], 0.5)
    with pytest.raises(ValueError):
        coll.lagrange_integral_weights([], 0.5)
    # NaN compares false both ways, so it must fail the order and range test
    for nodes in ([0.2, float("nan")], [float("nan"), 0.5], [float("nan")], [0.5, float("inf")]):
        with pytest.raises(ValueError, match="nodes must be"):
            coll.lagrange_integral_weights(nodes, 0.5)
    for tau in (float("inf"), -float("inf"), float("nan")):
        with pytest.raises(ValueError, match=f"tau must be finite, got {tau}"):
            coll.lagrange_integral_weights([0.2, 0.8], tau)


def scheme_record(c, A, b, W=None):
    W = np.zeros((len(c), len(c) + 1)) if W is None else np.array(W)
    return coll.CollocationScheme(coll.LOBATTO, np.array(c), np.array(A),
                                  np.array(b), np.eye(len(c)), W, order=2)


def test_tableau_validation():
    c = [0.0, 1.0]
    with pytest.raises(SchemeConstructionError):  # row sums != c
        scheme_record(c, [[0.0, 0.0], [0.3, 0.3]], [0.5, 0.5])
    with pytest.raises(SchemeConstructionError):
        scheme_record(c, [[0.0, 0.0], [0.5, 0.5]], [0.4, 0.5])
    with pytest.raises(SchemeConstructionError):
        scheme_record(c, [[0.5]], [0.5, 0.5])
    with pytest.raises(SchemeConstructionError):  # W must be (s, s + 1)
        scheme_record(c, [[0.0, 0.0], [0.5, 0.5]], [0.5, 0.5], np.zeros((2, 2)))


def test_check_c1_is_exact():
    # the record's c1 on Gauss-4's arrays (kind lobatto: no diag(b) check) is
    # True, and the smallest subnormal off the diagonal is not C1
    g4 = coll.make_scheme(coll.GAUSS, 4)
    M = g4.M.copy()
    for off, c1 in ((0.0, True), (5e-324, False)):
        M[0, 1] = off
        hand = coll.CollocationScheme(coll.LOBATTO, g4.c, g4.A, g4.b, M.copy(), g4.W, order=8)
        assert hand.c1 is c1


def test_c1_is_a_field_of_the_scheme(all_schemes):
    # decided once, when the record is built: M is diagonal exactly
    for scheme in all_schemes.values():
        assert scheme.c1 is _off_diagonal_zero(scheme.M) is (scheme.kind == coll.GAUSS)
    assert scheme_record([0.0, 1.0], [[0.0, 0.0], [0.5, 0.5]], [0.5, 0.5]).c1 is True  # M = I
    lob2 = all_schemes[(coll.LOBATTO, 2)]
    for M, c1 in ((lob2.M, False), (np.diag(lob2.b), True)):
        hand = coll.CollocationScheme(coll.LOBATTO, lob2.c, lob2.A, lob2.b, M, lob2.W,
                                      order=2, A_hat=lob2.A_hat)
        assert hand.c1 is _off_diagonal_zero(M) is c1
    with pytest.raises(AttributeError, match="read-only"):
        lob2.c1 = True


def test_make_scheme_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown scheme kind 'radau'"):
        coll.make_scheme("radau", 2)


def test_pair_construction_needs_nonzero_weights():
    assert scheme_record([0.5], [[0.5]], [1.0]).s == 1
