"""Property-based invariants over randomized models, states and step sizes."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phint.collocation as coll
from phint.dirac import assemble_blocks, discrete_output, power_residual
from phint.energy import order_fit
from phint.integrator import StageSolution, dense_eval, solve_stages
from phint.models import PHModel, pulse_input, zero_input

finite = st.floats(-5.0, 5.0, allow_nan=False)


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
                   gradH=lambda x: Q @ x,
                   J=lambda x: J, G=lambda x: G,
                   constant_structure=True, Q=Q,
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
    blocks = assemble_blocks(model, rng.normal(size=(scheme.s, 2)), scheme)
    e = rng.normal(size=scheme.s * 2)
    u = rng.normal(size=scheme.s)
    e2, u2 = e.reshape(-1, 2), u.reshape(-1, 1)
    f = np.array([-(blocks.J_blocks[i] @ e2[i] + blocks.G_blocks[i] @ u2[i])
                  for i in range(scheme.s)])
    y = discrete_output(scheme.M, np.array(blocks.G_blocks), e2)
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
       h=st.floats(1e-3, 0.5))
def test_dense_eval_stays_polynomial_consistent(seed, tau, h):
    # evaluating at tau and re-deriving from the Lagrange antiderivatives agree
    model = random_linear_ph(seed)
    scheme = coll.make_scheme(coll.GAUSS, 3)
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
    assert abs(order_fit(pts).slope - p) < 1e-8


@settings(max_examples=40, deadline=None)
@given(t=st.floats(0.0, 20.0))
def test_pulse_bounded_unit_interval(t):
    v = pulse_input()(t)[0]
    assert 0.0 <= v <= 1.0
    if not 8.0 <= t <= 10.0:
        assert v == 0.0
