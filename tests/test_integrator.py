"""Stage solves, stepping, dense output, conservation and solver dispatch."""
import numpy as np
import pytest

import phint.collocation as coll
from phint.errors import ConfigurationError, SolverDivergenceError
from phint.integrator import SolverConfig, dense_eval, simulate, solve_stages
from phint.models import (FeedbackConfig, InputSignal, oscillator,
                          partitioned_oscillator, pulse_input, rigid_body,
                          zero_input)

X0 = np.array([0.0, -1.0])
A_OSC = np.array([[0.0, 1.0], [-1.0, 0.0]])


def exact_rotation(x0, t):
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, s], [-s, c]]) @ x0


def test_midpoint_step_matches_rational_map():
    # one-stage scheme on the free oscillator solves
    # (I - h/2 A) x1 = (I + h/2 A) x0 exactly
    h = 0.1
    scheme = coll.make_scheme(coll.GAUSS, 1)
    x_end = solve_stages(oscillator(), scheme, X0, zero_input(), 0.0, h).x_end
    expect = np.linalg.solve(np.eye(2) - 0.5 * h * A_OSC,
                             (np.eye(2) + 0.5 * h * A_OSC) @ X0)
    assert np.max(np.abs(x_end - expect)) < 1e-15
    assert oscillator().H(x_end) == pytest.approx(0.5, abs=1e-15)


def test_equilibrium_is_fixed_point():
    scheme = coll.make_scheme(coll.GAUSS, 2)
    x_end = solve_stages(oscillator(), scheme, np.zeros(2), zero_input(),
                         0.0, 0.3).x_end
    assert np.all(x_end == 0.0)


@pytest.mark.parametrize("kind,s", [(coll.GAUSS, 1), (coll.GAUSS, 3),
                                    (coll.GAUSS, 6), (coll.LOBATTO, 2),
                                    (coll.LOBATTO, 4)])
def test_stage_reconstruction_identities(kind, s):
    scheme = coll.make_scheme(kind, s)
    sol = solve_stages(oscillator(), scheme, X0, pulse_input(), 8.2, 0.2)
    tol = 1e-14 * (1.0 + np.linalg.norm(X0))
    for i in range(s):
        recon = sol.x0 - sol.h * (scheme.A[i] @ sol.f)
        assert np.max(np.abs(sol.stage_x[i] - recon)) <= tol
    recon_end = sol.x0 - sol.h * (scheme.b @ sol.f)
    assert np.max(np.abs(sol.x_end - recon_end)) <= tol


def test_dense_eval_endpoints_and_stages():
    scheme = coll.make_scheme(coll.LOBATTO, 3)
    sol = solve_stages(oscillator(), scheme, X0, pulse_input(), 8.0, 0.5)
    assert np.max(np.abs(dense_eval(sol, scheme, 0.0) - sol.x0)) < 1e-14
    assert np.max(np.abs(dense_eval(sol, scheme, 1.0) - sol.x_end)) < 1e-14
    for i, ci in enumerate(scheme.c):
        assert np.max(np.abs(dense_eval(sol, scheme, ci) - sol.stage_x[i])) < 1e-13
    with pytest.raises(ValueError):
        dense_eval(sol, scheme, 1.5)


def test_dense_derivative_reproduces_flows():
    # d/dt of the collocation polynomial at c_i is -f_i: the derivative of the
    # integrated basis is the basis itself, evaluated via the stored monomials
    scheme = coll.make_scheme(coll.GAUSS, 3)
    sol = solve_stages(oscillator(), scheme, X0, pulse_input(), 8.0, 0.4)
    for i, ci in enumerate(scheme.c):
        ell = np.array([np.polynomial.Polynomial(
            coll.lagrange_polynomial(scheme.c, j))(ci) for j in range(scheme.s)])
        deriv = -(ell @ sol.f)  # dx/dt = -sum_j f_j l_j(tau)
        assert np.max(np.abs(deriv + sol.f[i])) < 1e-12


def test_gauss_conserves_energy_and_casimir_rigid_body():
    model = rigid_body()
    scheme = coll.make_scheme(coll.GAUSS, 2)
    x0 = np.array([1.0, 1.0, 1.0])
    traj = simulate(model, scheme, x0, zero_input(0), 0.01, 2.0)
    H0 = model.H(x0)
    assert np.max(np.abs([model.H(x) - H0 for x in traj.states])) < 1e-13
    cas = np.sum(traj.states**2, axis=1)
    assert np.max(np.abs(cas - cas[0])) < 1e-13


ALL_SCHEMES = ([(coll.GAUSS, s) for s in range(1, 9)]
               + [(coll.LOBATTO, s) for s in (2, 3, 4)])
DIFFERENTIAL_CASES = [
    pytest.param(kind, s, factory, mode,
                 id=f"{kind}{s}-{factory.__name__}-{mode or 'open'}")
    for kind, s in ALL_SCHEMES
    for factory in (oscillator, partitioned_oscillator)
    for mode in (None, "stagewise", "portlevel")
    if kind == coll.LOBATTO or factory is oscillator]


@pytest.mark.parametrize("kind,s,factory,mode", DIFFERENTIAL_CASES)
def test_newton_matches_direct_solve(kind, s, factory, mode):
    # the generic Newton path is the oracle of the direct block-tableau solve,
    # monolithic and Lobatto-pair alike
    scheme = coll.make_scheme(kind, s)
    feedback = None if mode is None else FeedbackConfig(r=0.1, mode=mode,
                                                        v=pulse_input())
    args = (factory(), scheme, X0, pulse_input(), 8.3, 0.2)
    direct = solve_stages(*args, feedback=feedback)
    newton = solve_stages(*args, cfg=SolverConfig(method="newton"),
                          feedback=feedback)
    assert np.max(np.abs(direct.x_end - newton.x_end)) < 1e-11
    for name in ("stage_x", "f", "e", "u", "y", "x_end"):
        diff = np.max(np.abs(getattr(direct, name) - getattr(newton, name)))
        assert diff <= 1e-13, (name, diff)
    assert newton.iterations >= 1


def test_solver_dispatch_errors():
    with pytest.raises(ConfigurationError):
        SolverConfig(tol=-1.0)
    with pytest.raises(ConfigurationError):
        SolverConfig(method="secant")


def test_solver_divergence_reported():
    cfg = SolverConfig(tol=1e-15, max_iter=1)
    with pytest.raises(SolverDivergenceError) as exc:
        simulate(rigid_body(), coll.make_scheme(coll.GAUSS, 2),
                 np.array([1.0, 1.0, 1.0]), zero_input(0), 0.5, 1.0, cfg=cfg)
    assert exc.value.step_index == 0
    assert exc.value.residual > 0.0


def test_partitioned_requires_lobatto():
    for method in ("auto", "newton"):
        with pytest.raises(ConfigurationError):
            solve_stages(partitioned_oscillator(), coll.make_scheme(coll.GAUSS, 2),
                         X0, pulse_input(), 0.0, 0.1,
                         cfg=SolverConfig(method=method))


def test_partitioned_matches_full_oscillator_order():
    # the pair integrates the same oscillator; both end states agree with the
    # exact flow to the scheme's order
    pm = partitioned_oscillator()
    scheme = coll.make_scheme(coll.LOBATTO, 3)
    sol = solve_stages(pm, scheme, X0, zero_input(), 0.0, 0.1)
    assert np.max(np.abs(sol.x_end - exact_rotation(X0, 0.1))) < 1e-7
    # block tableau: IIIA on the q stages, IIIB on the p stages
    q_stages = sol.x0[0] - sol.h * (scheme.A @ sol.f[:, 0])
    p_stages = sol.x0[1] - sol.h * (scheme.A_hat @ sol.f[:, 1])
    assert np.max(np.abs(sol.stage_x[:, 0] - q_stages)) < 1e-15
    assert np.max(np.abs(sol.stage_x[:, 1] - p_stages)) < 1e-15
    iiia = solve_stages(oscillator(), scheme, X0, zero_input(), 0.0, 0.1)
    assert np.max(np.abs(sol.stage_x - iiia.stage_x)) > 1e-6


@pytest.mark.parametrize("factory", [oscillator, partitioned_oscillator])
@pytest.mark.parametrize("x0", [[0.0, -1.0, 2.0], [1.0], [[0.0, -1.0]],
                                [np.nan, 1.0], [0.0, np.inf]])
def test_initial_state_validation(factory, x0):
    scheme = coll.make_scheme(coll.LOBATTO, 3)
    with pytest.raises(ConfigurationError, match="x0 must"):
        simulate(factory(), scheme, x0, zero_input(), 0.1, 1.0)
    with pytest.raises(ConfigurationError, match="x0 must"):
        solve_stages(factory(), scheme, x0, zero_input(), 0.0, 0.1)


@pytest.mark.parametrize("method", ["auto", "newton"])
def test_non_finite_state_reported(method):
    # the input turns NaN at t = 0.3; Gauss-1 first samples it on step 3
    signal = InputSignal(fn=lambda t: np.array([np.nan if t >= 0.3 else 0.0]))
    with pytest.raises(SolverDivergenceError) as exc:
        simulate(oscillator(), coll.make_scheme(coll.GAUSS, 1), X0, signal,
                 0.1, 1.0, cfg=SolverConfig(method=method, max_iter=3))
    assert exc.value.step_index == 3


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_energy_reported():
    # from t = 0.3 the input is 1e200: the states stay finite (~1e199) but
    # their energy overflows, first on step 3 of Gauss-1 (energy row 3)
    signal = InputSignal(fn=lambda t: np.array([1e200 if t >= 0.3 else 0.0]))
    with pytest.raises(SolverDivergenceError, match="not finite") as exc:
        simulate(oscillator(), coll.make_scheme(coll.GAUSS, 1), X0, signal,
                 0.1, 1.0)
    assert exc.value.step_index == 3


def test_step_size_validation():
    scheme = coll.make_scheme(coll.GAUSS, 1)
    with pytest.raises(ConfigurationError):
        solve_stages(oscillator(), scheme, X0, zero_input(), 0.0, 0.0)
    with pytest.raises(ConfigurationError):
        simulate(oscillator(), scheme, X0, zero_input(), -0.1, 1.0)
    with pytest.raises(ConfigurationError):
        simulate(oscillator(), scheme, X0, zero_input(), 0.3, 1.0)


def test_two_step_chaining_is_exact():
    scheme = coll.make_scheme(coll.GAUSS, 2)
    model = oscillator()
    traj = simulate(model, scheme, X0, pulse_input(), 0.5, 1.0)
    x1 = solve_stages(model, scheme, X0, pulse_input(), 0.0, 0.5).x_end
    x2 = solve_stages(model, scheme, x1, pulse_input(), 0.5, 0.5).x_end
    assert np.array_equal(traj.states[1], x1)
    assert np.array_equal(traj.states[2], x2)


@pytest.mark.parametrize("kind,s,hs", [
    (coll.GAUSS, 1, (0.2, 0.1, 0.05, 0.025)),
    (coll.GAUSS, 2, (0.2, 0.1, 0.05, 0.025)),
    (coll.GAUSS, 3, (0.8, 0.6, 0.4, 0.3)),
    (coll.LOBATTO, 2, (0.2, 0.1, 0.05, 0.025)),
    (coll.LOBATTO, 3, (0.2, 0.1, 0.05, 0.025)),
    (coll.LOBATTO, 4, (0.8, 0.6, 0.4, 0.3)),
])
def test_one_step_state_error_order(kind, s, hs):
    # free rotation has a known flow; one-step error goes as h^(p+1).
    # Higher-order schemes use a larger grid so the errors clear rounding.
    scheme = coll.make_scheme(kind, s)
    model = oscillator()
    errs = []
    for h in hs:
        x_end = solve_stages(model, scheme, X0, zero_input(), 0.0, h).x_end
        errs.append(np.linalg.norm(x_end - exact_rotation(X0, h)))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(slope - (scheme.order + 1)) <= 0.3


@pytest.mark.parametrize("kind,s", [(coll.GAUSS, 2), (coll.LOBATTO, 3)])
def test_one_step_map_is_symplectic(kind, s):
    # 2x2 Jacobian of the step map by central differences has unit determinant
    scheme = coll.make_scheme(kind, s)
    model = partitioned_oscillator() if kind == coll.LOBATTO else oscillator()
    h, delta = 0.3, 1e-5

    def phi(x):
        out = solve_stages(model, scheme, x, zero_input(), 0.0, h).x_end
        return out

    jac = np.empty((2, 2))
    for k in range(2):
        xp, xm = X0.copy(), X0.copy()
        xp[k] += delta
        xm[k] -= delta
        jac[:, k] = (phi(xp) - phi(xm)) / (2 * delta)
    assert abs(np.linalg.det(jac) - 1.0) <= 1e-9


def test_trajectory_bookkeeping():
    scheme = coll.make_scheme(coll.GAUSS, 2)
    traj = simulate(oscillator(), scheme, X0, pulse_input(), 0.5, 18.0,
                    retain_stages=True)
    assert traj.times.shape == (37,)
    assert traj.states.shape == (37, 2)
    assert len(traj.stage_solutions) == 36
    assert traj.scheme_label == "gauss-s2"
    # supplied energy is zero while the pulse is off
    assert np.max(np.abs(traj.supplied[:16])) < 1e-15
    assert np.max(np.abs(traj.supplied[20:])) < 1e-15
    assert np.max(np.abs(traj.supplied[16:20])) > 1e-3
