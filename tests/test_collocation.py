"""Node sets, tableaux and mass matrices against closed forms and an
independent quadrature oracle."""
import numpy as np
import pytest

from phint import collocation as coll
from phint.errors import SchemeConstructionError

from conftest import leggauss_integral

SQ3 = np.sqrt(3.0)
SQ5 = np.sqrt(5.0)
SQ15 = np.sqrt(15.0)

GAUSS_NODES = {
    1: [0.5],
    2: [0.5 - SQ3 / 6, 0.5 + SQ3 / 6],
    3: [0.5 - SQ15 / 10, 0.5, 0.5 + SQ15 / 10],
}
LOBATTO_NODES = {
    2: [0.0, 1.0],
    3: [0.0, 0.5, 1.0],
    4: [0.0, 0.5 - SQ5 / 10, 0.5 + SQ5 / 10, 1.0],
}

GAUSS_A = {
    1: [[0.5]],
    2: [[0.25, 0.25 - SQ3 / 6], [0.25 + SQ3 / 6, 0.25]],
    3: [[5 / 36, 2 / 9 - SQ15 / 15, 5 / 36 - SQ15 / 30],
        [5 / 36 + SQ15 / 24, 2 / 9, 5 / 36 - SQ15 / 24],
        [5 / 36 + SQ15 / 30, 2 / 9 + SQ15 / 15, 5 / 36]],
}
GAUSS_B = {1: [1.0], 2: [0.5, 0.5], 3: [5 / 18, 4 / 9, 5 / 18]}

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


@pytest.mark.parametrize("s", [1, 2, 3])
def test_gauss_nodes_closed_form(s):
    assert np.allclose(coll.gauss_legendre_nodes(s), GAUSS_NODES[s], atol=1e-15)


@pytest.mark.parametrize("s", [2, 3, 4])
def test_lobatto_nodes_closed_form(s):
    assert np.allclose(coll.lobatto_nodes(s), LOBATTO_NODES[s], atol=1e-15)


@pytest.mark.parametrize("s", range(4, 9))
def test_gauss_nodes_are_legendre_roots(s):
    # shifted Legendre polynomial via the recurrence, evaluated at the nodes
    c = coll.gauss_legendre_nodes(s)
    x = 2.0 * c - 1.0
    pk_1, pk = np.ones_like(x), x
    for k in range(1, s):
        pk_1, pk = pk, ((2 * k + 1) * x * pk - k * pk_1) / (k + 1)
    assert np.max(np.abs(pk)) < 1e-13
    assert np.all((c > 0) & (c < 1))
    assert np.all(np.diff(c) > 0)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_gauss_tableau_closed_form(s):
    scheme = coll.make_scheme(coll.GAUSS, s)
    assert np.max(np.abs(scheme.A - GAUSS_A[s])) < 1e-14
    assert np.max(np.abs(scheme.b - GAUSS_B[s])) < 1e-14


@pytest.mark.parametrize("s", [2, 3, 4])
def test_lobatto_tableau_closed_form(s):
    scheme = coll.make_scheme(coll.LOBATTO, s)
    assert np.max(np.abs(scheme.A - LOBATTO_A[s])) < 1e-14
    assert np.max(np.abs(scheme.b - LOBATTO_B[s])) < 1e-14


def test_companion_tableau_closed_form():
    # s=2: A_hat rows all (1/2, 0); s=3 from the pair identity, checked
    # against the standard table
    lob2 = coll.make_scheme(coll.LOBATTO, 2)
    assert np.max(np.abs(coll.iiib_from_iiia(lob2.A, lob2.b) - [[0.5, 0.0], [0.5, 0.0]])) < 1e-14
    lob3 = coll.make_scheme(coll.LOBATTO, 3)
    expect = np.array([[1 / 6, -1 / 6, 0.0],
                       [1 / 6, 1 / 3, 0.0],
                       [1 / 6, 5 / 6, 0.0]])
    assert np.max(np.abs(coll.iiib_from_iiia(lob3.A, lob3.b) - expect)) < 1e-14
    assert np.max(np.abs(lob3.A_hat - expect)) < 1e-14


def test_lobatto3_mass_matrix_closed_form():
    M = coll.make_scheme(coll.LOBATTO, 3).M
    assert np.max(np.abs(M - LOBATTO3_M)) < 1e-14


def test_tables_match_quadrature_oracle(all_schemes):
    # a_ij, b_j, m_ij re-derived by 40-point quadrature of the Lagrange basis
    for scheme in all_schemes.values():
        c = scheme.c
        s = scheme.s
        basis = [np.polynomial.Polynomial(coll.lagrange_polynomial(c, i))
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
        assert coll.check_c1(scheme.M, 1e-14)
        assert np.max(np.abs(np.diag(scheme.M) - scheme.b)) < 1e-14


def test_lobatto_mass_matrix_not_diagonal(all_schemes):
    for (kind, s), scheme in all_schemes.items():
        if kind != coll.LOBATTO:
            continue
        assert not coll.check_c1(scheme.M, 1e-14)


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
            p = np.polynomial.Polynomial(coll.lagrange_polynomial(c, i))
            vals = p(c)
            expect = np.zeros(scheme.s)
            expect[i] = 1.0
            # power-basis evaluation at s = 8 costs ~1e-12 of accuracy
            assert np.max(np.abs(vals - expect)) < 1e-11


def test_lagrange_partition_of_unity():
    c = coll.gauss_legendre_nodes(4)
    total = sum(np.polynomial.Polynomial(coll.lagrange_polynomial(c, i))
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
        for name in ("c", "A", "b", "M", "A_hat"):
            arr = getattr(scheme, name)
            if arr is None:
                continue
            with pytest.raises(ValueError):
                arr[0] = 0.0


@pytest.mark.parametrize("kind,s", [(coll.GAUSS, 0), (coll.GAUSS, 9),
                                    (coll.LOBATTO, 1), (coll.LOBATTO, 5)])
def test_unsupported_stage_counts(kind, s):
    with pytest.raises(ValueError):
        coll.make_scheme(kind, s)


def test_bad_nodes_rejected():
    with pytest.raises(ValueError):
        coll.lagrange_integral_weights([0.3, 0.2], 0.5)
    with pytest.raises(ValueError):
        coll.lagrange_integral_weights([-0.1, 0.5], 0.5)
    with pytest.raises(ValueError):
        coll.lagrange_integral_weights([], 0.5)


def scheme_record(c, A, b):
    return coll.CollocationScheme(coll.LOBATTO, np.array(c), np.array(A),
                                  np.array(b), np.eye(len(c)), order=2)


def test_tableau_validation():
    c = [0.0, 1.0]
    with pytest.raises(SchemeConstructionError):  # row sums != c
        scheme_record(c, [[0.0, 0.0], [0.3, 0.3]], [0.5, 0.5])
    with pytest.raises(SchemeConstructionError):
        scheme_record(c, [[0.0, 0.0], [0.5, 0.5]], [0.4, 0.5])
    with pytest.raises(SchemeConstructionError):
        scheme_record(c, [[0.5]], [0.5, 0.5])


def test_check_c1_validates_tol():
    with pytest.raises(ValueError):
        coll.check_c1(np.eye(2), 0.0)


def test_pair_construction_needs_nonzero_weights():
    A = np.array([[0.0, 0.0], [0.5, 0.5]])
    assert coll.iiib_from_iiia(A, np.array([0.5, 0.5])).shape == (2, 2)
    with pytest.raises(ZeroDivisionError):
        coll.iiib_from_iiia(A, np.array([1.0, 0.0]))
    assert scheme_record([0.5], [[0.5]], [1.0]).s == 1
