"""Property-based invariants over randomized models, states and step sizes."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phint.collocation as coll
from phint.dirac import assemble_blocks, discrete_output, kernel_check, power_residual
from phint.energy import delta_h_bar, order_fit
from phint.integrator import StageSolution, dense_eval, solve_stages
from phint.models import PHModel, pulse_input, zero_input

finite = st.floats(-5.0, 5.0, allow_nan=False)
ALL_SCHEMES = ([(coll.GAUSS, s) for s in coll.GAUSS_STAGE_RANGE]
               + [(coll.LOBATTO, s) for s in coll.LOBATTO_STAGE_RANGE])


def random_linear_ph(seed, n=2, m=1):
    """Random constant-structure linear model: skew J, SPD Q, dense G."""
    rng = np.random.default_rng(seed)
    S = rng.normal(size=(n, n))
    J = S - S.T
    B = rng.normal(size=(n, n))
    Q = B @ B.T + n * np.eye(n)
    G = rng.normal(size=(n, m))
    return PHModel(n, m,
                   H=lambda x: 0.5 * x @ Q @ x,
                   gradH=Q, J=J, G=G,
                   name=f"random-{seed}")


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), s=st.integers(1, 4),
       x1=finite, x2=finite, h=st.floats(1e-3, 0.5))
def test_gauss_conserves_quadratic_energy(seed, s, x1, x2, h):
    model = random_linear_ph(seed)
    scheme = coll.make_scheme(coll.GAUSS, s)
    x0 = np.array([x1, x2])
    x_end = solve_stages(model, scheme, x0, zero_input(), 0.0, h).x_end
    scale = max(1.0, model.H(x0))
    assert abs(model.H(x_end) - model.H(x0)) <= 1e-11 * scale


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 6),
       scale=st.floats(1e-3, 1e3))
def test_quadratic_increment_matches_energy_difference(seed, n, scale):
    # the one-pass quadratic form against H evaluated once per state
    model = random_linear_ph(seed, n=n)
    states = scale * np.random.default_rng(seed + 1).normal(size=(20, n))
    H = np.array([model.H(x) for x in states])
    dh = delta_h_bar(model, states)
    assert dh.shape == (19,)
    assert np.max(np.abs(dh - np.diff(H))) <= 1e-13 * max(1.0, np.max(H))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), kind_s=st.sampled_from(
    [(coll.GAUSS, 1), (coll.GAUSS, 2), (coll.GAUSS, 3),
     (coll.LOBATTO, 2), (coll.LOBATTO, 3)]),
       h=st.floats(1e-3, 0.5))
def test_constant_structure_bond_balance(seed, kind_s, h):
    # any efforts/inputs consistent with the stage structure equation satisfy
    # the power balance when the structure matrices are constant
    model = random_linear_ph(seed)
    scheme = coll.make_scheme(*kind_s)
    rng = np.random.default_rng(seed + 1)
    J, G = assemble_blocks(model, rng.normal(size=(scheme.s, 2)), scheme)
    assert J is model.J and G is model.G
    e = rng.normal(size=scheme.s * 2)
    u = rng.normal(size=scheme.s)
    e2, u2 = e.reshape(-1, 2), u.reshape(-1, 1)
    f = np.array([-(J @ e2[i] + G @ u2[i]) for i in range(scheme.s)])
    y = discrete_output(scheme.M, G, e2)
    bond = StageSolution(t0=0.0, h=h, x0=None, stage_x=None, f=f, e=e2, u=u2,
                         y=y, x_end=None)
    scale = max(1.0, h * np.linalg.norm(e) * np.linalg.norm(f))
    assert abs(power_residual(bond, scheme)) <= 1e-12 * scale


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), s=st.integers(1, 5),
       h=st.floats(1e-3, 0.5), x1=finite, x2=finite)
def test_stage_reconstruction_property(seed, s, h, x1, x2):
    model = random_linear_ph(seed)
    scheme = coll.make_scheme(coll.GAUSS, s)
    x0 = np.array([x1, x2])
    sol = solve_stages(model, scheme, x0, pulse_input(), 8.0, h)
    tol = 1e-13 * (1.0 + np.linalg.norm(x0))
    recon = sol.x0[None, :] - sol.h * (scheme.A @ sol.f)
    assert np.max(np.abs(sol.stage_x - recon)) <= tol


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), tau=st.floats(0.0, 1.0),
       h=st.floats(1e-3, 0.5), kind_s=st.sampled_from(ALL_SCHEMES))
def test_dense_eval_stays_polynomial_consistent(seed, tau, h, kind_s):
    # evaluating at tau and re-deriving from the Lagrange antiderivatives agree
    model = random_linear_ph(seed)
    scheme = coll.make_scheme(*kind_s)
    sol = solve_stages(model, scheme, np.array([1.0, 0.0]), zero_input(),
                       0.0, h)
    w = coll.lagrange_integral_weights(scheme.c, tau)
    expect = sol.x0 - sol.h * (w @ sol.f)
    assert np.allclose(dense_eval(sol, scheme, tau), expect, atol=1e-14)


@settings(max_examples=30, deadline=None)
@given(p=st.integers(1, 8),
       c=st.floats(1e-3, 1e3),
       base=st.floats(0.05, 0.4))
def test_order_fit_recovers_exponent(p, c, base):
    hs = [base, base / 2, base / 4, base / 8]
    pts = [(h, c * h**p) for h in hs]
    pts = [(h, e) for h, e in pts if e >= 1e-12]
    if len(pts) < 3:
        return
    assert abs(order_fit(pts) - p) < 1e-8


@settings(max_examples=40, deadline=None)
@given(t=st.floats(0.0, 20.0))
def test_pulse_bounded_unit_interval(t):
    v = pulse_input()(t)[0]
    assert 0.0 <= v <= 1.0
    if not 8.0 <= t <= 10.0:
        assert v == 0.0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), N=st.integers(1, 12), n=st.integers(1, 6),
       scale=st.floats(1e-6, 1e6))
def test_c1_kernel_check_is_exactly_zero(seed, N, n, scale):
    # any exactly skew per-stage J under every Gauss M = diag(b): the diagonal
    # blocks J_i + J_i' vanish and (M^-1)_ij is an exact 0 off the diagonal
    rng = np.random.default_rng(seed)
    for s in coll.GAUSS_STAGE_RANGE:
        S = scale * rng.normal(size=(N, s, n, n))
        J = S - np.swapaxes(S, -1, -2)
        M = coll.make_scheme(coll.GAUSS, s).M
        assert np.all(kernel_check(J, M) == 0.0), s
        assert kernel_check(J[0], M) == 0.0, s
