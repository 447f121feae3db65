"""Stage solves, stepping, dense output, conservation and solver dispatch."""
import importlib
import math
import pathlib
import re
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import phint.collocation as coll
import phint.dirac as dirac
import phint.integrator as integrator
from phint.cli import DEFAULT_H_LIST
from phint.dirac import (_stack_blocks, assemble_blocks, discrete_output, drift,
                         efforts)
from phint.energy import delta_h_bar, delta_h_tilde, supplied_energy
from phint.errors import ConfigurationError, SolverDivergenceError
from phint.integrator import (SCAN_MAX_N, StageSolution, _affine_states,
                              _make_stepper, dense_eval, dense_weights,
                              simulate, solve_stages)
from phint.models import (STAGEWISE, FeedbackConfig, InputSignal, PHModel,
                          mechanical, oscillator, partitioned_oscillator,
                          pulse_input, rigid_body, zero_input)

from conftest import (DENSE_G, DENSE_J, DENSE_Q, DENSE_X0, RIGID_PANEL_STOPS,
                      ROTATED_RIGID_X0, dense_model, dense_newton_model, fold_model,
                      lagrange_coefficients, matmul_apply, matmul_discrete_output,
                      rotated_rigid_body, stride0_blocks, two_channel_input)

X0 = np.array([0.0, -1.0])
ALL_SCHEMES = ([(coll.GAUSS, s) for s in range(1, 9)]
               + [(coll.LOBATTO, s) for s in (2, 3, 4)])
SCHEME_IDS = [f"{kind}{s}" for kind, s in ALL_SCHEMES]
A_OSC = np.array([[0.0, 1.0], [-1.0, 0.0]])
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


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


@pytest.mark.parametrize("kind,s", ALL_SCHEMES, ids=SCHEME_IDS)
def test_dense_eval_endpoints_and_stages(kind, s):
    scheme = coll.make_scheme(kind, s)
    sol = solve_stages(oscillator(), scheme, X0, pulse_input(), 8.0, 0.5)
    assert np.max(np.abs(dense_eval(sol, scheme, 0.0) - sol.x0)) < 1e-14
    assert np.max(np.abs(dense_eval(sol, scheme, 1.0) - sol.x_end)) < 1e-14
    for i, ci in enumerate(scheme.c):
        assert np.max(np.abs(dense_eval(sol, scheme, ci) - sol.stage_x[i])) < 1e-13
    # the stored float coefficients agree with the 40-digit Lagrange weights
    taus = [0.0, *scheme.c, 1.0, *np.random.default_rng(s).random(8)]
    for tau in taus:
        w = coll.lagrange_integral_weights(scheme.c, tau)
        expect = sol.x0 - sol.h * (w @ sol.f)
        assert np.max(np.abs(dense_eval(sol, scheme, tau) - expect)) < 1e-14
    with pytest.raises(ValueError):
        dense_eval(sol, scheme, 1.5)


@pytest.mark.parametrize("s", coll.LOBATTO_STAGE_RANGE)
def test_dense_eval_on_a_lobatto_pair_follows_iiia(s):
    # every row follows the IIIA collocation polynomial: it meets both
    # endpoints and the q-row stages, while the p rows, advanced with IIIB
    # (not a collocation method), miss their stages by 0.25, 0.048 and
    # 4.1e-3 for s = 2, 3, 4 on this step
    scheme, model = coll.make_scheme(coll.LOBATTO, s), partitioned_oscillator()
    sol = solve_stages(model, scheme, X0, pulse_input(), 8.0, 0.5)
    assert np.max(np.abs(dense_eval(sol, scheme, 0.0) - sol.x0)) < 1e-14
    assert np.max(np.abs(dense_eval(sol, scheme, 1.0) - sol.x_end)) < 1e-14
    miss = np.array([dense_eval(sol, scheme, ci) - sol.stage_x[i]
                     for i, ci in enumerate(scheme.c)])
    assert np.max(np.abs(miss[:, :model.n_q])) < 1e-13
    assert np.max(np.abs(miss[:, model.n_q:])) > 1e-3


@pytest.mark.parametrize("kind,s", ALL_SCHEMES, ids=SCHEME_IDS)
def test_extrapolation_weights_match_integrated_basis(kind, s):
    # E[i, j] = int_0^{1 + c_i} l_j carries a step's collocation polynomial to
    # the next interval's nodes; the weights reach 6.2e3 at Gauss-8, so the
    # bound is relative to their size
    scheme = coll.make_scheme(kind, s)
    E = dense_weights(scheme, 1.0 + scheme.c).T
    oracle = np.empty((s, s))
    for j in range(s):
        L = np.polynomial.Polynomial(lagrange_coefficients(scheme.c, j)).integ()
        oracle[:, j] = L(1.0 + scheme.c) - L(0.0)
    assert np.max(np.abs(E - oracle)) <= 1e-12 * max(1.0, np.max(np.abs(E)))
    # the same weights at tau in [0, 1] are the rows of A and b
    assert np.max(np.abs(dense_weights(scheme, scheme.c).T - scheme.A)) < 1e-14
    assert np.max(np.abs(dense_weights(scheme, 1.0) - scheme.b)) < 1e-14


def _legendre_basis(s, tau):
    """P_0 .. P_s at 2 tau - 1 by dense_weights' recurrence, stacked on axis 0."""
    x = 2.0 * tau - 1.0
    p = [x ** 0, x]
    for k in range(1, s):
        p.append(((2 * k + 1) * x * p[k] - k * p[k - 1]) / (k + 1))
    return np.array(p)


@pytest.mark.parametrize("kind,s", ALL_SCHEMES, ids=SCHEME_IDS)
def test_dense_weights_of_a_tau_array_are_the_per_element_weights(kind, s):
    # a float and a 1-D tau keep the bytes of the matmul product W p (the
    # Newton extrapolation E is the 1-D case); a tau of two or more axes,
    # its first one s + 1 long included, is contracted flat: the bytes of
    # the flattened 1-D tau, the values of one call per element
    scheme = coll.make_scheme(kind, s)
    rng = np.random.default_rng(s)
    for tau in (0.3, scheme.c[-1], 1.0 + scheme.c, rng.random(5)):
        want = scheme.W @ _legendre_basis(s, tau)
        assert dense_weights(scheme, tau).tobytes() == want.tobytes()
    for shape in ((2, 2), (s + 1, 2), (3, 1, 2)):
        tau = rng.random(shape)
        got = dense_weights(scheme, tau)
        assert got.shape == (s,) + shape
        assert got.tobytes() == dense_weights(scheme, tau.ravel()).tobytes()
        each = np.stack([dense_weights(scheme, t) for t in tau.ravel()], axis=-1)
        assert np.max(np.abs(got - each.reshape(got.shape))) <= 1e-15


@pytest.mark.parametrize("kind,s", ALL_SCHEMES, ids=SCHEME_IDS)
def test_dense_eval_is_the_matmul_product_bit_for_bit(kind, s):
    # one interval forms its sum of weighted flows with ndarray.dot, a stacked
    # record (f of shape (N, s, n)) with the batched matmul: both give the
    # bytes of x0 - h (w @ f) on every interval
    scheme = coll.make_scheme(kind, s)
    taus = [0.0, *scheme.c, 1.0, *np.random.default_rng(s).random(8)]
    for args in ((oscillator(), scheme, X0, pulse_input(), 0.5, 12.0),
                 (rigid_body(), scheme, 3.0 * RIGID_DIRECTION, zero_input(0), 0.1, 2.0)):
        traj = simulate(*args, retain_stages=True)
        for tau in taus:
            got = [dense_eval(sol, scheme, tau) for sol in traj.stage_solutions]
            want = [sol.x0 - sol.h * (dense_weights(scheme, tau) @ sol.f)
                    for sol in traj.stage_solutions]
            assert np.array(got).tobytes() == np.array(want).tobytes()
            assert dense_eval(traj.stages, scheme, tau).tobytes() == np.array(got).tobytes()


def _dense_runs(scheme):
    """Retained runs of the oscillator and of the dense 4-state model."""
    return [simulate(oscillator(), scheme, X0, pulse_input(), 0.5, 12.0, retain_stages=True),
            simulate(dense_model(), scheme, DENSE_X0, two_channel_input(), 0.5, 12.0,
                     retain_stages=True)]


def _uncached_dense(sol, scheme, tau):
    return sol.x0 - sol.h * (dense_weights(scheme, float(tau)) @ sol.f)


@pytest.mark.parametrize("kind,s", ALL_SCHEMES, ids=SCHEME_IDS)
def test_memoized_dense_eval_is_the_uncached_product(kind, s):
    # dense_eval takes its weights from a memo keyed on (scheme, float(tau)):
    # on every interval it gives the bytes of the uncached weights, for a tau
    # grid that recurs on every interval, for fresh taus, and for the grid
    # again once more than DENSE_MEMO_SIZE fresh taus have evicted it
    scheme = coll.make_scheme(kind, s)
    rng = np.random.default_rng(100 + s)
    grid = [0.0, *scheme.c.tolist(), 1.0, 0.125, 0.3, 0.7]
    for traj in _dense_runs(scheme):
        sols = traj.stage_solutions
        for taus in (grid, None, grid):
            for sol in sols:
                for tau in rng.random(3).tolist() if taus is None else taus:
                    got = dense_eval(sol, scheme, tau)
                    assert got.tobytes() == _uncached_dense(sol, scheme, tau).tobytes()
            if taus is None:
                for tau in rng.random(integrator.DENSE_MEMO_SIZE + 50):
                    got = dense_eval(sols[3], scheme, tau)
                    assert got.tobytes() == _uncached_dense(sols[3], scheme, tau).tobytes()
        for tau in grid:
            got = dense_eval(traj.stages, scheme, tau)
            each = [dense_eval(sol, scheme, tau) for sol in sols]
            assert got.tobytes() == np.array(each).tobytes()
            # the memo's array stays in the memo
            assert not np.shares_memory(got, integrator._memo_weights(scheme, tau))


def test_dense_memo_stays_bounded():
    # 10^4 random (scheme, tau) keys over the 11 schemes leave at most
    # DENSE_MEMO_SIZE entries
    schemes = [coll.make_scheme(kind, s) for kind, s in ALL_SCHEMES]
    sols = [solve_stages(oscillator(), scheme, X0, pulse_input(), 8.0, 0.5)
            for scheme in schemes]
    rng = np.random.default_rng(11)
    for k, tau in zip(rng.integers(len(schemes), size=10_000), rng.random(10_000)):
        dense_eval(sols[k], schemes[k], tau)
    info = integrator._memo_weights.cache_info()
    assert info.maxsize == integrator.DENSE_MEMO_SIZE
    assert 0 < info.currsize <= integrator.DENSE_MEMO_SIZE


@pytest.mark.parametrize("kind,s", ALL_SCHEMES, ids=SCHEME_IDS)
def test_iterated_intervals_are_the_indexed_views(kind, s):
    # iterating stage_solutions builds each view in one pass: field by field
    # and in type the view that indexing builds, scalars as Python numbers
    for traj in _dense_runs(coll.make_scheme(kind, s)):
        sols = traj.stage_solutions
        listed, indexed = list(sols), [sols[k] for k in range(len(sols))]
        assert len(listed) == len(indexed) == len(traj.stages.t0)
        for got, want in zip(listed, indexed):
            assert type(got) is StageSolution and list(vars(got)) == list(vars(want))
            for name, value in vars(want).items():
                field = getattr(got, name)
                assert type(field) is type(value), name
                if isinstance(value, np.ndarray):
                    assert field.dtype == value.dtype and field.tobytes() == value.tobytes()
                    assert np.shares_memory(field, value)
                else:
                    assert field == value, name


@pytest.mark.parametrize("kind,s", ALL_SCHEMES, ids=SCHEME_IDS)
def test_dense_eval_takes_tau_in_double_precision(kind, s):
    # a float32 or float16 tau is evaluated at its value in double precision
    # (its own dtype would run the Legendre recurrence in float32 under NEP
    # 50, up to 1e-8 off); float64, int, bool and 0-d array taus keep the
    # bytes of the float, a tau with an axis is out of range, and a tau that
    # is not a bool, int or float (a string, a Decimal, a Fraction) is a
    # TypeError, as a string was before
    scheme = coll.make_scheme(kind, s)
    sol = solve_stages(oscillator(), scheme, X0, pulse_input(), 8.0, 0.5)
    rng = np.random.default_rng(s)
    for tau in [0.0, *scheme.c.tolist(), 1.0, *rng.random(8).tolist()]:
        for low in (np.float32(tau), np.float16(tau)):
            want = dense_eval(sol, scheme, float(low)).tobytes()
            assert dense_eval(sol, scheme, low).tobytes() == want
        want = dense_eval(sol, scheme, tau).tobytes()
        for same in (np.float64(tau), np.array(tau)):
            assert dense_eval(sol, scheme, same).tobytes() == want
    for tau in (0, 1, False, True, np.int64(1)):
        want = dense_eval(sol, scheme, float(tau)).tobytes()
        assert dense_eval(sol, scheme, tau).tobytes() == want
    low = rng.random(6).astype(np.float32)
    want = dense_weights(scheme, low.astype(float)).tobytes()
    assert dense_weights(scheme, low).tobytes() == want
    for tau in (np.array([0.5]), np.array([0.2, 0.4]), np.full((1, 1), 0.5)):
        with pytest.raises(ValueError):
            dense_eval(sol, scheme, tau)
    for tau in ("0.5", np.array("0.5"), Decimal("0.5"), Fraction(1, 2), 0.5 + 0j):
        with pytest.raises(TypeError):
            dense_eval(sol, scheme, tau)
        with pytest.raises(TypeError):
            dense_weights(scheme, tau)


def test_dense_eval_runs_without_mpmath(monkeypatch):
    cases = []
    for kind, s in ALL_SCHEMES:
        scheme = coll.make_scheme(kind, s)
        cases.append((scheme, solve_stages(oscillator(), scheme, X0,
                                           pulse_input(), 8.0, 0.5)))

    def no_oracle(*args):
        raise AssertionError("dense_eval called lagrange_integral_weights")

    monkeypatch.setattr(coll, "lagrange_integral_weights", no_oracle)
    # no phint module holds mpmath, and none can import it
    assert not any(v is mpmath for m in list(sys.modules) if m.startswith("phint")
                   for v in vars(sys.modules[m]).values())
    monkeypatch.setitem(sys.modules, "mpmath", None)
    for scheme, sol in cases:
        assert np.max(np.abs(dense_eval(sol, scheme, 1.0) - sol.x_end)) < 1e-14
        assert np.all(np.isfinite(dense_eval(sol, scheme, 0.3)))


def test_dense_derivative_reproduces_flows():
    # d/dt of the collocation polynomial at c_i is -f_i: the derivative of the
    # integrated basis is the basis itself, evaluated via the stored monomials
    scheme = coll.make_scheme(coll.GAUSS, 3)
    sol = solve_stages(oscillator(), scheme, X0, pulse_input(), 8.0, 0.4)
    for i, ci in enumerate(scheme.c):
        ell = np.array([np.polynomial.Polynomial(
            lagrange_coefficients(scheme.c, j))(ci) for j in range(scheme.s)])
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


DIFFERENTIAL_CASES = [
    pytest.param(kind, s, factory, mode,
                 id=f"{kind}{s}-{factory.__name__}-{mode or 'open'}")
    for kind, s in ALL_SCHEMES
    for factory in (oscillator, partitioned_oscillator)
    for mode in (None, "stagewise", "portlevel")
    if kind == coll.LOBATTO or factory is oscillator]


def _feedback(mode):
    return None if mode is None else FeedbackConfig(r=0.1, mode=mode)


def _force_newton(monkeypatch):
    """Send the linear models to the Newton stepper (the one bound in the
    module when a run starts), with the same model and Q paths: the generic
    oracle of the affine recurrence."""
    monkeypatch.setattr(integrator, "_LinearStepper",
                        lambda *args: integrator._NewtonStepper(*args))


@pytest.fixture
def method(request, monkeypatch):
    """'auto': the stepper the model selects; 'newton': the Newton oracle for
    every model."""
    if request.param == "newton":
        _force_newton(monkeypatch)
    return request.param


@pytest.mark.parametrize("kind,s,factory,mode", DIFFERENTIAL_CASES)
def test_newton_matches_direct_solve(kind, s, factory, mode, monkeypatch):
    # the generic Newton path is the oracle of the direct block-tableau solve,
    # monolithic and Lobatto-pair alike
    scheme = coll.make_scheme(kind, s)
    args = (factory(), scheme, X0, pulse_input(), 8.3, 0.2)
    direct = solve_stages(*args, feedback=_feedback(mode))
    _force_newton(monkeypatch)
    newton = solve_stages(*args, feedback=_feedback(mode))
    assert np.max(np.abs(direct.x_end - newton.x_end)) < 1e-11
    for name in ("stage_x", "f", "e", "u", "y", "x_end"):
        diff = np.max(np.abs(getattr(direct, name) - getattr(newton, name)))
        assert diff <= 1e-13, (name, diff)
    assert newton.iterations >= 1


@pytest.mark.parametrize("kind,s,factory,mode", DIFFERENTIAL_CASES)
def test_affine_run_matches_newton_trajectory(kind, s, factory, mode, monkeypatch):
    # whole runs across the pulse on [8, 10]: the affine recurrence of the
    # linear path against the Newton path, states and every energy row
    scheme = coll.make_scheme(kind, s)
    args = (factory(), scheme, X0, pulse_input(), 0.5, 10.0)
    affine = simulate(*args, feedback=_feedback(mode))
    _force_newton(monkeypatch)
    newton = simulate(*args, feedback=_feedback(mode))
    assert np.max(np.abs(affine.states - newton.states)) <= 1e-11
    for name in ("dh_tilde", "dh_bar", "supplied"):
        diff = np.max(np.abs(getattr(affine, name) - getattr(newton, name)))
        assert diff <= 1e-13, (name, diff)


@pytest.mark.parametrize("method", ["auto", "newton"], indirect=True)
@pytest.mark.parametrize("kind,s,factory,mode", DIFFERENTIAL_CASES)
def test_energy_rows_are_the_interval_formulas(kind, s, factory, mode, method):
    # the stacked energy pass of simulate is the per-interval formula: each
    # row equals the formula on the retained interval, bit for bit
    scheme = coll.make_scheme(kind, s)
    model = factory()
    traj = simulate(model, scheme, X0, pulse_input(), 0.5, 10.0,
                    feedback=_feedback(mode), retain_stages=True)
    sols = traj.stage_solutions
    assert np.array_equal(traj.dh_tilde,
                          [delta_h_tilde(sol, scheme) for sol in sols])
    assert np.array_equal(traj.supplied, [supplied_energy(sol) for sol in sols])
    assert np.array_equal(traj.dh_bar, [delta_h_bar(model, np.array([sol.x0, sol.x_end]))[0]
                                        for sol in sols])
    assert np.array_equal(traj.states[1:], [sol.x_end for sol in sols])


@pytest.mark.parametrize("method", ["auto", "newton"], indirect=True)
def test_retained_stages_are_one_stacked_record(method):
    # simulate keeps the run's stacked record; the per-interval views are
    # built from it on first access, once, and interval k is its row k
    args = (oscillator(), coll.make_scheme(coll.GAUSS, 2), X0, pulse_input(),
            0.5, 10.0)
    traj = simulate(*args, retain_stages=True)
    assert len(traj.stage_solutions) == len(traj.stages.t0) == 20
    for k, sol in enumerate(traj.stage_solutions):
        for name, kept in vars(traj.stages).items():
            row = kept[k] if np.ndim(kept) else kept
            assert np.array_equal(getattr(sol, name), row), (k, name)
    assert traj.stage_solutions is traj.stage_solutions
    bare = simulate(*args)
    assert bare.stages is None and bare.stage_solutions == []


def test_simulate_samples_the_input_once():
    calls = []
    pulse = pulse_input()

    def fn(t):
        calls.append(t.shape)
        return pulse.fn(t)

    scheme = coll.make_scheme(coll.GAUSS, 3)
    traj = simulate(oscillator(), scheme, X0, InputSignal(fn=fn), 0.1, 18.0)
    assert calls == [(180 * 3,)]
    reference = simulate(oscillator(), scheme, X0, pulse, 0.1, 18.0)
    assert np.array_equal(traj.states, reference.states)


NOT_REAL = [True, False, np.True_, "0.1", None, [0.1], 1j]


@pytest.mark.parametrize("value", NOT_REAL, ids=repr)
@pytest.mark.parametrize("name", ["h", "t_end", "t0"])
def test_run_arguments_must_be_real_numbers(name, value):
    # True would run as h = 1 (t_end = 2.0 gave 2 steps), and a string or
    # None would fail inside numpy with a bare TypeError
    scheme, match = coll.make_scheme(coll.GAUSS, 2), f"{name} must be a real number"
    args = {"h": 0.1, "t_end": 1.0, "t0": 0.0, name: value}
    for model in (oscillator(), rigid_body()):
        x0, signal = np.ones(model.n), zero_input(model.m)
        if name != "t0":
            with pytest.raises(ConfigurationError, match=match):
                simulate(model, scheme, x0, signal, args["h"], args["t_end"])
        if name != "t_end":
            with pytest.raises(ConfigurationError, match=match):
                solve_stages(model, scheme, x0, signal, args["t0"], args["h"])


def test_run_arguments_take_numpy_numbers():
    scheme = coll.make_scheme(coll.GAUSS, 2)
    want = simulate(oscillator(), scheme, X0, pulse_input(), 0.5, 10.0)
    got = simulate(oscillator(), scheme, X0, pulse_input(), np.float64(0.5), np.int64(10))
    assert np.array_equal(got.states, want.states)
    sol = solve_stages(oscillator(), scheme, X0, pulse_input(), np.int64(8), np.float64(0.5))
    assert np.array_equal(sol.x_end,
                          solve_stages(oscillator(), scheme, X0, pulse_input(), 8.0, 0.5).x_end)


def test_solver_divergence_reported(monkeypatch):
    monkeypatch.setattr(integrator, "TOL", 1e-15)
    monkeypatch.setattr(integrator, "MAX_ITER", 1)
    with pytest.raises(SolverDivergenceError, match="below 1e-15 in 1 iter") as exc:
        simulate(rigid_body(), coll.make_scheme(coll.GAUSS, 2),
                 np.array([1.0, 1.0, 1.0]), zero_input(0), 0.5, 1.0)
    assert exc.value.step_index == 0
    assert exc.value.residual > 0.0


@pytest.mark.parametrize("s", [2, 3])
def test_newton_attempts_need_more_than_20_iterations(s):
    # the rigid body from (100, 200, 300) at h = 0.05: the worst steps of
    # Gauss-2 and Gauss-3 take 28 and 30 residual evaluations, so a MAX_ITER
    # of 20 would stop the runs at steps 1 and 9
    traj = simulate(rigid_body(), coll.make_scheme(coll.GAUSS, s),
                    np.array([100.0, 200.0, 300.0]), zero_input(0), 0.05, 1.0)
    assert traj.states.shape == (21, 3) and np.all(np.isfinite(traj.states))


def test_singular_stage_jacobian_is_a_divergence():
    # xdot = 20 x under Gauss-1 at h = 0.1: the stage equation
    # X - x0 - h a 20 X = 0 has the zero Jacobian 1 - 0.1 * 0.5 * 20, which
    # continuation in h approaches to within its last increment, 2^-10
    model = PHModel(1, 0, H=lambda x: 0.5 * (x @ x), gradH=lambda x: x,
                    J=lambda x: [[20.0]], G=lambda x: np.zeros((1, 0)))
    with pytest.raises(SolverDivergenceError,
                       match="singular; continuation in h reached 0.999023 of h$") as exc:
        simulate(model, coll.make_scheme(coll.GAUSS, 1), np.array([1.0]),
                 zero_input(0), 0.1, 1.0)
    assert exc.value.step_index == 0


@pytest.mark.parametrize("s", [1, 2, 3, 4])
@pytest.mark.parametrize("x0", [[1.0, 1.0, 1.0], [3.0, -7.0, 5.0]])
def test_warm_started_run_matches_chained_cold_solves(s, x0):
    # simulate carries the iteration matrix and extrapolated start values
    # across steps; solve_stages is always a cold one-interval run
    model, scheme, h = rigid_body(), coll.make_scheme(coll.GAUSS, s), 0.01
    traj = simulate(model, scheme, x0, zero_input(0), h, 200 * h)
    x = np.array(x0)
    for k in range(200):
        x = solve_stages(model, scheme, x, zero_input(0), k * h, h).x_end
        assert np.max(np.abs(traj.states[k + 1] - x)) <= 1e-12 * np.max(np.abs(x))


# a direction whose Gauss 1-4 runs converge from 1e3 (h = 0.01, 100 steps),
# with warm attempts that fail and restart cold
RIGID_DIRECTION = np.array([0.18926208, -0.19826543, 0.96170452])


def test_newton_work_budget(monkeypatch):
    # J is called s times per residual: s * (iterations + s n builds + steps)
    # calls per run, with the iterations and builds read from the record; the
    # benchmark's newton_builds recovers the same count from the J calls alone
    monkeypatch.syspath_prepend(str(PERFBENCH))
    newton_builds = importlib.import_module("tracing").newton_builds
    n, steps = 3, 100
    # the last run reaches some of its steps by continuation in h
    runs = [(s, x0) for s in (1, 2, 3, 4)
            for x0 in (np.ones(3), RIGID_DIRECTION, 1e3 * RIGID_DIRECTION)]
    runs.append((1, np.array(RIGID_PANEL_STOPS[0])))
    sizes = _record_step_sizes(monkeypatch)
    for i, (s, x0) in enumerate(runs):
        sizes.clear()
        model, calls = rigid_body(), []
        cross = model.J
        model.J = lambda x: calls.append(1) or cross(x)
        traj = simulate(model, coll.make_scheme(coll.GAUSS, s), x0,
                        zero_input(0), 0.01, 1.0, retain_stages=True)
        iterations = int(traj.stages.iterations.sum())
        builds = int(traj.stages.builds.sum())
        assert iterations == sum(sol.iterations for sol in traj.stage_solutions)
        assert builds == sum(sol.builds for sol in traj.stage_solutions)
        assert len(calls) == s * (iterations + s * n * builds + steps)
        assert newton_builds(len(calls), s, n, steps, iterations) == builds >= 1
        assert (min(sizes) < 0.01) == (i == len(runs) - 1)
        if s == 2 and x0[0] == 1.0:
            # a Jacobian rebuilt on every step alone costs 2 * 6 * 100
            assert len(calls) <= 1000


def test_linear_run_records_no_builds():
    # the affine recurrence builds no Jacobian: its record says 0
    traj = simulate(oscillator(), coll.make_scheme(coll.GAUSS, 2), X0,
                    pulse_input(), 0.5, 10.0, retain_stages=True)
    assert traj.stages.builds == 0
    assert [sol.builds for sol in traj.stage_solutions] == [0] * 20


def test_newton_run_records_builds_per_interval():
    # the per-interval counts add up to the run's _rebuild calls; the cold
    # first step builds its matrix, and every build follows a residual
    stepper = integrator._NewtonStepper(rigid_body(), coll.make_scheme(coll.GAUSS, 2),
                                        zero_input(0), 0.01, None)
    rebuild, calls = stepper._rebuild, []
    stepper._rebuild = lambda *a: calls.append(1) or rebuild(*a)
    _, sol = stepper.run(1e2 * RIGID_DIRECTION, np.arange(100) * 0.01)
    assert sol.builds.shape == (100,) and sol.builds.dtype.kind == "i"
    assert sol.builds[0] >= 1 and np.all(sol.builds <= sol.iterations)
    assert int(sol.builds.sum()) == len(calls) > 1


class _PerStepNewton(integrator._Stepper):
    """The Newton loop as it was before its run record was preallocated: a
    negated flow at every iterate, a tuple per step, one restack at the end
    and a second stacked pass over the restacked J and G for u, f and y,
    with the stepper's continuation in h after a failed cold attempt.  A
    constant structure is applied as its two matrices, one GEMM per product,
    as the stepper applies it: stride-0 stacks of them, which np.matvec
    applies stage by stage, round a dense product differently.  The oracle of
    the differential tests below."""

    def _inputs_of(self, e, G, w):
        return w if self.K is None else w - self.r * discrete_output(self.K, G, e)

    def _structure(self, stage_x):
        if self.model.constant_structure:
            return self.model.J, self.model.G
        return assemble_blocks(self.model, stage_x, self.scheme)

    def _bonds(self, stage_x, w):
        e = efforts(self.model, stage_x)
        J, G = self._structure(stage_x)
        return e, J, G, -drift(J, G, e, self._inputs_of(e, G, w))

    def _residual(self, X, x0, w):
        stage_x = X.reshape(X.shape[:-1] + (self.s, self.n))
        f = self._bonds(stage_x, w)[3]
        Af = self.scheme.A @ f
        if self.n_q is not None:
            Af[..., self.n_q:] = self.scheme.A_hat @ f[..., self.n_q:]
        return (stage_x - x0 + self.h * Af).reshape(X.shape)

    def _rebuild(self, X, R, x0, w):
        fd_step = np.sqrt(np.finfo(float).eps) * (1.0 + np.linalg.norm(x0))
        Rp = self._residual(X + fd_step * np.eye(X.size), x0, w)
        try:
            self.inv = np.linalg.inv(((Rp - R) / fd_step).T)
        except np.linalg.LinAlgError:
            raise SolverDivergenceError("stage Jacobian is singular") from None

    def _newton(self, X, x0, w, warm):
        tol, res = integrator.TOL, np.inf
        for it in range(integrator.MAX_ITER):
            R = self._residual(X, x0, w)
            self.iterations += 1
            prev, res = res, float(np.max(np.abs(R)))
            if res <= tol:
                return (X if self.inv is None else X - self.inv @ R), res
            if not np.isfinite(res) or (warm and it == 1 and res > 0.5 * prev):
                raise SolverDivergenceError("stage iteration diverges",
                                            residual=res)
            if self.inv is None or res > 0.1 * prev:
                self._rebuild(X, R, x0, w)
            X = X - self.inv @ R
        raise SolverDivergenceError(
            f"stage equations did not converge below {tol} "
            f"in {integrator.MAX_ITER} iterations", residual=res)

    def _continued(self, x0, w):
        """The cold attempt, then continuation in h: attempts on the stage
        equations with the fraction theta of h, theta in exact dyadic steps
        of 1 (1/2 once the run has failed a cold attempt), doubled after a
        success and halved after a failure down to 2^-10, each from the last
        stages solved, with a fresh matrix first and after a failure."""
        h, X, theta, step = self.h, np.tile(x0, self.s), Fraction(0), self.first_step
        self.inv = None
        while theta < 1:
            step = min(step, 1 - theta)
            self.h = float(theta + step) * h
            try:
                X, res = self._newton(X, x0, w, warm=False)
            except SolverDivergenceError as err:
                self.h, self.inv, self.first_step, step = h, None, Fraction(1, 2), step / 2
                if step < Fraction(1, 1024):
                    raise SolverDivergenceError(
                        f"{err}; continuation in h reached {float(theta):g} of h",
                        residual=err.residual) from None
                continue
            theta, step = theta + step, 2 * step
        self.h = h
        return X, res

    def _step(self, x0, w, guess):
        self.iterations = 0
        if guess is not None:
            try:
                X, res = self._newton(guess, x0, w, warm=True)
            except SolverDivergenceError:
                guess = None
        if guess is None:
            X, res = self._continued(x0, w)
        stage_x = X.reshape(self.s, self.n)
        e, J, G, f = self._bonds(stage_x, w)
        return (stage_x, e, J, G, f, self.iterations, res,
                x0 - self.h * (self.scheme.b @ f))

    def run(self, x0, t0):
        w = self._inputs(t0)
        x, guess, steps = x0, None, []
        self.inv, self.first_step = None, Fraction(1)
        E = dense_weights(self.scheme, 1.0 + self.scheme.c).T
        for k, wk in enumerate(w):
            try:
                steps.append(self._step(x, wk, guess))
            except SolverDivergenceError as err:
                err.step_index = k
                raise
            guess = (x - self.h * (E @ steps[-1][4])).ravel()
            x = steps[-1][-1]
        stage_x, e, J, G, _, its, res, x_end = map(np.array, zip(*steps))
        if self.model.constant_structure:  # the matrices, not their restack
            J, G = self._structure(stage_x)
        states = np.vstack([x0, x_end])
        u = self._inputs_of(e, G, w)
        return states, StageSolution(
            t0=t0, h=self.h, x0=states[:-1], stage_x=stage_x,
            f=-drift(J, G, e, u), e=e, u=u,
            y=discrete_output(self.scheme.M, G, e), x_end=states[1:],
            iterations=its, residual=res)


def _run_arrays(*args, **kwargs):
    """Every array a retained run records."""
    traj = simulate(*args, retain_stages=True, **kwargs)
    st = traj.stages
    return {name: np.asarray(v) for name, v in (
        ("states", traj.states), ("dh_tilde", traj.dh_tilde),
        ("dh_bar", traj.dh_bar), ("supplied", traj.supplied),
        ("stage_x", st.stage_x), ("e", st.e), ("f", st.f), ("u", st.u),
        ("y", st.y), ("iterations", st.iterations), ("residual", st.residual))}


def _run_bytes(*args, **kwargs):
    """Bytes of every array a retained run records."""
    return {name: v.tobytes() for name, v in _run_arrays(*args, **kwargs).items()}


def _driven_top():
    """State-dependent J (the rigid body's cross product) and G (a torque axis
    that turns with the state), and a quartic H without Q: every model-driven
    branch of the stage equations at once."""
    D = np.array([1.0, 0.5, 1.0 / 3.0])
    return PHModel(3, 1, H=lambda x: 0.5 * ((D * x) @ x) + 0.25 * (x @ x) ** 2,
                   gradH=lambda x: D * x + (x @ x) * x, J=rigid_body().J,
                   G=lambda x: np.array([[1.0], [np.cos(x[0])], [np.sin(x[1])]]))


def _newton_run(label, monkeypatch):
    """(args, kwargs) of simulate for a differential-test label; the Lobatto
    pair runs on the Newton stepper by _force_newton."""
    if label.startswith("top"):
        mode = label.split("-")[-1]
        return ((_driven_top(), coll.make_scheme(coll.GAUSS, 3), np.array([0.6, -0.4, 0.3]),
                 pulse_input(), 0.1, 12.0),
                {"feedback": _feedback(None if mode == "open" else mode)})
    if label.startswith("rigid"):
        _, s, scale = label.split("-")
        return (rigid_body(), coll.make_scheme(coll.GAUSS, int(s)),
                float(scale) * RIGID_DIRECTION, zero_input(0), 0.01, 1.0), {}
    if label == "pendulum-portlevel":
        return ((_pendulum(), coll.make_scheme(coll.GAUSS, 2), X0,
                 pulse_input(), 0.1, 12.0), {"feedback": _feedback("portlevel")})
    if label.startswith("dense"):
        _, scheme, mode = label.split("-")
        kind, s = scheme[:-1], int(scheme[-1])
        return ((dense_newton_model(), coll.make_scheme(kind, s), DENSE_X0,
                 two_channel_input(), 0.1, 12.0),
                {"feedback": _feedback(None if mode == "open" else mode)})
    if label.startswith("rotated"):
        s = int(label.split("-")[-1])
        return (rotated_rigid_body(), coll.make_scheme(coll.GAUSS, s), ROTATED_RIGID_X0,
                zero_input(0), 0.01, 1.0), {}
    mode = label.split("-")[-1]
    _force_newton(monkeypatch)
    return ((partitioned_oscillator(), coll.make_scheme(coll.LOBATTO, 3), X0,
             pulse_input(), 0.25, 12.0), {"feedback": _feedback(mode)})


NEWTON_RUNS = ([f"rigid-{s}-{scale}" for s in (1, 2, 3, 4)
                for scale in ("1", "100", "1000")]
               + ["pendulum-portlevel", "lobatto3-pair-stagewise",
                  "lobatto3-pair-portlevel", "top-open", "top-stagewise"]
               # rounding-visible: the rigid body's stacked J products in a rotated frame
               + ["rotated-rigid-2", "rotated-rigid-4"])
# rounding-visible too: the dense model's constant J and G on the Newton path,
# which the stepper and the per-step oracle both apply as the two matrices
DENSE_TWIN_RUNS = ([f"dense-{scheme}-{mode}" for scheme in ("gauss2", "gauss4", "lobatto3")
                    for mode in ("open", "portlevel")] + ["dense-gauss3-stagewise"])


@pytest.mark.parametrize("label", NEWTON_RUNS + DENSE_TWIN_RUNS)
def test_newton_run_is_the_per_step_loop_bit_for_bit(label, monkeypatch):
    # the preallocated run iterates on the drift g = -f and stores the steps
    # in place: every recorded array equals the per-step loop's, byte for byte
    args, kwargs = _newton_run(label, monkeypatch)
    cold = []
    newton = integrator._NewtonStepper._newton
    monkeypatch.setattr(integrator._NewtonStepper, "_newton",
                        lambda self, *a, warm: cold.append(not warm)
                        or newton(self, *a, warm=warm))
    got = _run_bytes(*args, **kwargs)
    if label.endswith("-1000"):
        assert sum(cold) > 1  # warm attempts failed and restarted cold
    monkeypatch.setattr(integrator, "_NewtonStepper", _PerStepNewton)
    assert got == _run_bytes(*args, **kwargs)


@pytest.mark.parametrize("kind,s", ALL_SCHEMES, ids=SCHEME_IDS)
def test_diagonal_stage_matrices_are_the_matrix_products_bit_for_bit(kind, s, monkeypatch):
    # a diagonal M (every Gauss scheme) and the stagewise K = I_s reach
    # discrete_output as their diagonals, a row scaling; it adds no 0 * e_j
    # terms, which change no finite sum, so every recorded array keeps the
    # bytes of the full K e product, on the linear and the Newton path
    scheme = coll.make_scheme(kind, s)
    runs = [((factory(), scheme, x0, pulse_input(), 0.1, 12.0), mode)
            for factory in (oscillator, partitioned_oscillator) for x0 in (X0, np.zeros(2))
            for mode in (None, "stagewise", "portlevel")]
    runs += [((_driven_top(), scheme, x0, pulse_input(), 0.25, 10.0), mode)
             for x0 in (np.array([0.6, -0.4, 0.3]), np.zeros(3))
             for mode in (None, "stagewise", "portlevel")]
    # rounding-visible: dense Q, J and G on the linear and the Newton path
    runs += [((factory(), scheme, DENSE_X0, two_channel_input(), 0.1, 6.0), mode)
             for factory in (dense_model, dense_newton_model)
             for mode in (None, "stagewise", "portlevel")]
    output, ndims = integrator.discrete_output, set()
    monkeypatch.setattr(integrator, "discrete_output",
                        lambda K, G, e: ndims.add(K.ndim) or output(K, G, e))
    got = [_run_bytes(*args, feedback=_feedback(mode)) for args, mode in runs]
    assert ndims == ({1} if kind == coll.GAUSS else {1, 2})
    monkeypatch.setattr(integrator, "discrete_output", matmul_discrete_output)
    integrator._maps_memo.clear()  # the set-up applies K too
    assert got == [_run_bytes(*args, feedback=_feedback(mode)) for args, mode in runs]


@pytest.mark.parametrize("label", NEWTON_RUNS)
def test_newton_run_keeps_the_matmul_products_bytes(label, monkeypatch):
    # dirac._apply forms its one-matrix products (the efforts of one Q, the
    # drift of one J, the outputs of one G) with ndarray.dot, and the per-step
    # oracle shares it: with the matmul operator's form swapped in, every
    # recorded array keeps its bytes, on the Newton run and on the oracle
    args, kwargs = _newton_run(label, monkeypatch)
    got = _run_bytes(*args, **kwargs)
    monkeypatch.setattr(dirac, "_apply", matmul_apply)
    assert got == _run_bytes(*args, **kwargs)
    monkeypatch.setattr(integrator, "_NewtonStepper", _PerStepNewton)
    assert got == _run_bytes(*args, **kwargs)


@pytest.mark.parametrize("label", DENSE_TWIN_RUNS)
def test_dense_twin_run_keeps_the_matmul_products_bytes(label, monkeypatch):
    # the Newton runs of the dense model, whose one-matrix products round:
    # with the matmul operator's _apply swapped in, every recorded array
    # keeps its bytes
    args, kwargs = _newton_run(label, monkeypatch)
    got = _run_bytes(*args, **kwargs)
    monkeypatch.setattr(dirac, "_apply", matmul_apply)
    assert got == _run_bytes(*args, **kwargs)


@pytest.mark.parametrize("kind,s", ALL_SCHEMES, ids=SCHEME_IDS)
def test_linear_run_keeps_the_matmul_products_bytes(kind, s, monkeypatch):
    # the linear runs of the diagonal stage-matrix test, with the matmul
    # operator's _apply swapped in: the set-up's unit responses, the
    # efforts and the outputs keep every recorded byte
    scheme = coll.make_scheme(kind, s)
    runs = [((factory(), scheme, x0, pulse_input(), 0.1, 12.0), mode)
            for factory in (oscillator, partitioned_oscillator) for x0 in (X0, np.zeros(2))
            for mode in (None, "stagewise", "portlevel")]
    runs += [((dense_model(), scheme, DENSE_X0, two_channel_input(), 0.1, 6.0), mode)
             for mode in (None, "stagewise", "portlevel")]
    got = [_run_bytes(*args, feedback=_feedback(mode)) for args, mode in runs]
    monkeypatch.setattr(dirac, "_apply", matmul_apply)
    integrator._maps_memo.clear()  # the set-up's unit responses too
    assert got == [_run_bytes(*args, feedback=_feedback(mode)) for args, mode in runs]


LAYOUT_SCHEMES = [(coll.GAUSS, 1), (coll.GAUSS, 2), (coll.GAUSS, 8),
                  (coll.LOBATTO, 3), (coll.LOBATTO, 4)]


@pytest.mark.parametrize("kind,s", LAYOUT_SCHEMES, ids=[f"{k}{s}" for k, s in LAYOUT_SCHEMES])
def test_layout_rule_keeps_every_byte(kind, s, monkeypatch):
    # dirac._dot_t hands BLAS A' C-contiguous on products of at least 128
    # rows and at most 15 columns; with every product forced onto the
    # transposed view, linear runs of 1 to 2 049 steps (one-row scan passes
    # at N = 2, 3, 17, 129 and 2 049) keep every recorded byte, on both
    # oscillators and the dense two-channel model, open and under feedback
    scheme = coll.make_scheme(kind, s)
    runs = [((factory(), scheme, x0, signal(), 0.05, N * 0.05), mode)
            for factory, x0, signal in ((oscillator, X0, pulse_input),
                                        (partitioned_oscillator, X0, pulse_input),
                                        (dense_model, DENSE_X0, two_channel_input))
            for mode in (None, "stagewise", "portlevel") for N in (1, 2, 3, 17, 129, 2049)]
    dot_t, copied = dirac._dot_t, []

    def spy(x, A):
        copied.append(len(x) >= 128 and A.shape[1] < 16)
        return dot_t(x, A)

    for module in (dirac, integrator):
        monkeypatch.setattr(module, "_dot_t", spy)
    integrator._maps_memo.clear()
    got = [_run_bytes(*args, feedback=_feedback(mode)) for args, mode in runs]
    assert any(copied) and not all(copied)
    for module in (dirac, integrator):
        monkeypatch.setattr(module, "_dot_t", lambda x, A: x.dot(A.T))
    integrator._maps_memo.clear()
    assert got == [_run_bytes(*args, feedback=_feedback(mode)) for args, mode in runs]


def _record_step_sizes(monkeypatch):
    """The h of every Newton attempt of the runs that follow: a fraction of
    the run's h on the attempts of a continuation."""
    sizes, newton = [], integrator._NewtonStepper._newton
    monkeypatch.setattr(integrator._NewtonStepper, "_newton",
                        lambda self, *a, warm: sizes.append(self.h)
                        or newton(self, *a, warm=warm))
    return sizes


@pytest.mark.parametrize("x0", [[300.0, -900.0, 300.0], [-200.0, 900.0, 400.0]])
def test_newton_rescue_is_the_per_step_loops(x0, monkeypatch):
    # Gauss-1 from these states fails a cold attempt after a few steps and
    # reaches that step by continuation in h: every recorded array equals
    # the per-step loop's, which continues the same way, byte for byte
    args = (rigid_body(), coll.make_scheme(coll.GAUSS, 1), np.array(x0),
            zero_input(0), 0.01, 1.0)
    sizes = _record_step_sizes(monkeypatch)
    got = _run_bytes(*args)
    assert min(sizes) < 0.01 == max(sizes)
    monkeypatch.setattr(integrator, "_NewtonStepper", _PerStepNewton)
    assert got == _run_bytes(*args)


def test_newton_divergence_is_the_per_step_loops(monkeypatch):
    # Gauss-1 on the fold model from x0 = 1 at h = 0.3 solves steps 0 and 1
    # by the root X = (1 - sqrt(1 - 2 h x)) / h and fails step 2, where
    # 2 h x_2 > 1: the message names the theta continuation reached, within
    # two of its last increments of the fold 1 / (2 h x_2), and the step
    # index, message and residual are the per-step loop's
    args = (fold_model(), coll.make_scheme(coll.GAUSS, 1), np.array([1.0]),
            zero_input(0), 0.3, 3.0)
    with pytest.raises(SolverDivergenceError, match="did not converge") as got:
        simulate(*args)
    x = 1.0
    for _ in range(2):
        x += 0.3 * ((1.0 - math.sqrt(1.0 - 0.6 * x)) / 0.3) ** 2
    reached = re.search(r"; continuation in h reached (\S+) of h$", str(got.value))
    assert abs(float(reached.group(1)) - 1.0 / (0.6 * x)) <= 2.0 ** -8
    monkeypatch.setattr(integrator, "_NewtonStepper", _PerStepNewton)
    with pytest.raises(SolverDivergenceError) as want:
        simulate(*args)
    assert got.value.step_index == want.value.step_index == 2
    assert str(got.value) == str(want.value)
    assert got.value.residual.hex() == want.value.residual.hex()


# (s, x0, h) of rigid-body runs over t_end = 1 that stop without continuation
RIGID_RESCUES = ([(1, x0, 0.01) for x0 in RIGID_PANEL_STOPS]
                 + [(s, (100.0, 200.0, 300.0), 0.1) for s in (2, 3, 4)]
                 + [(s, (1e3, 1e3, 1e3), 0.01) for s in (1, 2, 3, 4)])
RESCUE_IDS = ([f"gauss1-panel{i}" for i in range(9)]
              + [f"gauss{s}-100x123-h0.1" for s in (2, 3, 4)]
              + [f"gauss{s}-1e3x111" for s in (1, 2, 3, 4)])


@pytest.mark.parametrize("s,x0,h", RIGID_RESCUES, ids=RESCUE_IDS)
def test_rigid_body_at_scale_completes_by_continuation(s, x0, h, monkeypatch):
    # every run reaches a step by continuation in h and completes, with the
    # energy balance of the benchmark's gate and the Casimir |x|^2 kept
    model, x0 = rigid_body(), np.array(x0)
    sizes = _record_step_sizes(monkeypatch)
    traj = simulate(model, coll.make_scheme(coll.GAUSS, s), x0, zero_input(0), h, 1.0)
    assert min(sizes) < h and traj.states.shape == (round(1.0 / h) + 1, 3)
    assert np.max(np.abs(traj.dh_bar)) <= 1e-12 * max(1.0, model.H(x0))
    assert np.max(np.abs(np.sum(traj.states ** 2, axis=1) / (x0 @ x0) - 1.0)) <= 1e-13


def test_stage_solutions_build_intervals_on_access():
    traj = simulate(rigid_body(), coll.make_scheme(coll.GAUSS, 2),
                    RIGID_DIRECTION, zero_input(0), 0.01, 0.5, retain_stages=True)
    sols, st = traj.stage_solutions, traj.stages
    assert len(sols) == 50
    for k in (0, 17, 49, -1, -50):
        sol = sols[k]
        assert sol.t0 == st.t0[k] and type(sol.t0) is float
        assert sol.iterations == st.iterations[k] and type(sol.iterations) is int
        assert type(sol.h) is float and type(sol.residual) is float
        assert np.shares_memory(sol.stage_x, st.stage_x)
        assert np.array_equal(sol.f, st.f[k]) and np.array_equal(sol.x_end, st.x_end[k])
    for k in (50, -51):
        with pytest.raises(IndexError):
            sols[k]
    listed = list(sols)
    assert [sol.t0 for sol in listed] == st.t0.tolist()
    assert all(np.array_equal(sol.e, e) for sol, e in zip(listed, st.e))
    assert [sol.t0 for sol in sols[10:13]] == st.t0[10:13].tolist()
    bare = simulate(rigid_body(), coll.make_scheme(coll.GAUSS, 2),
                    RIGID_DIRECTION, zero_input(0), 0.01, 0.5)
    assert bare.stage_solutions == []


@pytest.mark.parametrize("k", [0, 23, -1])
def test_interval_view_is_the_dataclass_instance(k):
    # a view is filled without StageSolution.__init__: the same fields, types
    # and values as StageSolution(*fields), and read-only
    traj = simulate(oscillator(), coll.make_scheme(coll.GAUSS, 3), X0,
                    pulse_input(), 0.5, 12.0, feedback=_feedback("portlevel"),
                    retain_stages=True)
    view, names = traj.stage_solutions[k], list(vars(traj.stages))
    built = StageSolution(*[getattr(view, name) for name in names])
    assert type(view) is StageSolution and list(vars(view)) == list(vars(built)) == names
    for name in names:
        got, want = getattr(view, name), getattr(built, name)
        assert type(got) is type(want) and np.array_equal(got, want), name
    with pytest.raises(AttributeError, match="read-only"):
        view.h = 1.0
    with pytest.raises(AttributeError, match="read-only"):
        del view.f
    assert view.h == 0.5


def _column_jacobian(stepper, X, R, x0, w):
    """Finite-difference Jacobian of the stage residual, one residual
    evaluation per column: the oracle of the stacked build."""
    fd_step = np.sqrt(np.finfo(float).eps) * (1.0 + np.linalg.norm(x0))
    Jac = np.empty((X.size, X.size))
    for k in range(X.size):
        Xp = X.copy()
        Xp[k] += fd_step
        Jac[:, k] = (stepper._residual(Xp, x0[stepper.tile], w) - R) / fd_step
    return Jac


def _pendulum():
    # non-quadratic H, no Q: the efforts come from gradH, one call per state
    return PHModel(2, 1, H=lambda x: 0.5 * x[1] ** 2 + 1.0 - np.cos(x[0]),
                   gradH=lambda x: np.array([np.sin(x[0]), x[1]]),
                   J=A_OSC, G=np.array([[0.0], [1.0]]))


BUILD_CASES = (
    [(rigid_body, coll.GAUSS, s, scale, None)
     for s in (1, 2, 3, 4) for scale in (1.0, 1e3)]
    + [(oscillator, coll.GAUSS, 3, 1.0, mode)
       for mode in ("stagewise", "portlevel")]
    + [(_pendulum, coll.GAUSS, 2, 1.0, "portlevel")]
    + [(partitioned_oscillator, coll.LOBATTO, 3, 1.0, mode)
       for mode in (None, "stagewise", "portlevel")])


@pytest.mark.parametrize("factory,kind,s,scale,mode", BUILD_CASES)
def test_stacked_jacobian_build_matches_column_loop(factory, kind, s, scale, mode):
    # all columns from one stacked residual call: the iteration matrix is the
    # one the per-column loop gives, bit for bit
    model, scheme = factory(), coll.make_scheme(kind, s)
    signal = pulse_input() if model.m else zero_input(0)
    stepper = integrator._NewtonStepper(model, scheme, signal, 0.1,
                                        _feedback(mode))
    rng = np.random.default_rng(s)
    x0 = scale * rng.normal(size=model.n)
    X = np.tile(x0, s) + 1e-2 * scale * rng.normal(size=s * model.n)
    w = stepper._inputs(np.array([8.3]))[0]
    R = stepper._residual(X, x0[stepper.tile], w)
    stepper._rebuild(X, R, x0[stepper.tile], w)
    assert np.array_equal(stepper.inv,
                          np.linalg.inv(_column_jacobian(stepper, X, R, x0, w)))


def test_newton_evaluates_constant_structure_once_per_residual(monkeypatch):
    # a constant-structure model on the Newton path makes no J or G call at
    # all: its J and G are matrices, and every residual evaluation, a
    # stacked finite-difference build included, is one _stack_blocks call
    # that returns them as they are
    model, blocks = _pendulum(), []

    def counted(*args):
        out = _stack_blocks(*args)
        blocks.append(out)
        return out

    monkeypatch.setattr(integrator, "_stack_blocks", counted)
    traj = simulate(model, coll.make_scheme(coll.GAUSS, 2), X0, pulse_input(),
                    0.1, 2.0, retain_stages=True)
    assert not callable(model.J) and not callable(model.G)
    assert all(J is model.J and G is model.G for J, G in blocks)
    # residual evaluations = iterations + one per build + one per step
    builds = len(blocks) - sum(traj.stages.iterations) - len(traj.dh_tilde)
    assert builds >= 1


@pytest.mark.parametrize("kind,s", ALL_SCHEMES, ids=SCHEME_IDS)
def test_constant_structure_as_matrices_is_the_broadcast_stack_bit_for_bit(kind, s,
                                                                          monkeypatch):
    # the Newton stepper applies a constant J and G as one matrix each, one
    # GEMM per product.  For the pendulum, whose J and G are 0 and +-1, every
    # product is exact in any order, so every recorded array keeps the bytes
    # of stride-0 stacks of the two matrices, which np.matvec applies stage
    # by stage.  A dense J and G round differently in the two forms: the
    # dense twin's runs differ from their stride-0 form by up to 1.2e-15 of
    # the largest state, so the per-step oracle applies the matrices too
    runs = [((_pendulum(), coll.make_scheme(kind, s), X0, pulse_input(), 0.1, 12.0),
             {"feedback": _feedback(mode)}) for mode in (None, "stagewise", "portlevel")]
    got = [_run_bytes(*args, **kwargs) for args, kwargs in runs]
    blocks = []
    monkeypatch.setattr(integrator, "_stack_blocks",
                        lambda *a: blocks.append(stride0_blocks(*a)) or blocks[-1])
    assert got == [_run_bytes(*args, **kwargs) for args, kwargs in runs]
    assert blocks and all(J.ndim > 2 and not any(J.strides[:-2]) for J, _ in blocks)


def test_pendulum_energy_is_one_h_call_per_state():
    # without Q the stored-energy increments evaluate H once per state
    model, calls = _pendulum(), []
    energy = model.H
    model.H = lambda x: calls.append(1) or energy(x)
    traj = simulate(model, coll.make_scheme(coll.GAUSS, 2), X0, pulse_input(),
                    0.5, 10.0)
    assert len(calls) == len(traj.states) == 21
    assert np.array_equal(traj.dh_bar, np.diff([energy(x) for x in traj.states]))


def _pendula(cells, ports=0):
    """Chain of unit pendula joined by unit springs, 2 cells states: H is not
    quadratic (no Q) and the structure is constant, so it runs on Newton.
    With ports = 1 a force drives the first pendulum."""
    Z, I = np.zeros((cells, cells)), np.eye(cells)
    J = np.block([[Z, I], [-I, Z]])
    G = np.zeros((2 * cells, ports))
    G[cells:cells + ports] = np.eye(ports)

    def gradH(x):
        q, d = x[:cells], np.diff(x[:cells])
        return np.concatenate([np.sin(q) + np.append(-d, 0.0) + np.insert(d, 0, 0.0),
                               x[cells:]])

    return PHModel(2 * cells, ports, gradH=gradH, J=J,
                   H=lambda x: (0.5 * (x[cells:] @ x[cells:]) + np.sum(1.0 - np.cos(x[:cells]))
                                + 0.5 * np.sum(np.diff(x[:cells]) ** 2)),
                   G=G)


def test_newton_run_keeps_no_structure_record():
    # a 40-state Newton run records the bond of its steps, not J: its traced
    # peak stays below half of the N s n^2 doubles of an (N, s, n, n) J record
    model, scheme, N = _pendula(20), coll.make_scheme(coll.GAUSS, 2), 50
    x0 = np.concatenate([np.linspace(-1.0, 1.0, 20), np.zeros(20)])
    tracemalloc.start()
    try:
        traj = simulate(model, scheme, x0, zero_input(0), 0.05, N * 0.05,
                        retain_stages=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.stages.f.shape == (N, scheme.s, model.n)
    assert peak < 0.5 * N * scheme.s * model.n ** 2 * 8


def test_newton_run_keeps_no_constant_port_record():
    # a constant G is one broadcast matrix, not an (N, s, n, m) record: the
    # one-port chain's traced peak exceeds the portless chain's by less than
    # half the N s n m doubles of such a record
    scheme, N, peaks = coll.make_scheme(coll.GAUSS, 2), 50, []
    x0 = np.concatenate([np.linspace(-1.0, 1.0, 20), np.zeros(20)])
    for ports in (0, 1):
        tracemalloc.start()
        try:
            traj = simulate(_pendula(20, ports), scheme, x0, zero_input(ports),
                            0.05, N * 0.05, retain_stages=True)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert traj.stages.y.shape == (N, scheme.s, 1)
    assert peaks[1] - peaks[0] < 0.5 * N * scheme.s * 40 * 1 * 8


def _kron_maps(model, scheme, h, mode):
    """S, T, Delta and Gamma of the linear stepper from the sn x sn Kronecker
    stage system it once built: the oracle of the maps it now takes from the
    drift and the tableau."""
    n, s, Is = model.n, scheme.s, np.eye(scheme.s)
    Jc, Gc = model.J, model.G
    # stacked drift -f = D X + IG w of the stage states X
    D = np.kron(Is, Jc @ model.Q)
    if mode is not None:
        K = Is if mode == STAGEWISE else scheme.M
        D -= 0.1 * np.kron(K, Gc @ Gc.T @ model.Q)
    IG = np.kron(Is, Gc)
    # A on every row, or A on the q rows and A_hat on the p rows of a pair
    if scheme.A_hat is None or model.n_q is None:
        tableau = np.kron(scheme.A, np.eye(n))
    else:
        on_q = (np.arange(n) < model.n_q).astype(float)
        tableau = (np.kron(scheme.A, np.diag(on_q))
                   + np.kron(scheme.A_hat, np.diag(1.0 - on_q)))
    hT = h * tableau
    # X = 1 (x) x0 - h T f  <=>  (I - h T D) X = 1 (x) x0 + h T IG w
    ST = np.linalg.solve(np.eye(s * n) - hT @ D,
                         np.hstack([np.tile(np.eye(n), (s, 1)), hT @ IG]))
    S, T = ST[:, :n], ST[:, n:]
    hB = h * np.kron(scheme.b[None], np.eye(n))
    return S, T, hB @ D @ S, hB @ (D @ T + IG)


def _chain5():
    return _chain(5)


@pytest.mark.parametrize("factory", [oscillator, partitioned_oscillator, _chain5])
@pytest.mark.parametrize("kind,s", ALL_SCHEMES, ids=SCHEME_IDS)
def test_linear_maps_are_the_kron_stage_system(kind, s, factory):
    # the maps from one drift call on the unit stage states and inputs
    # against the Kronecker form, open loop and under both feedback modes
    model, scheme = factory(), coll.make_scheme(kind, s)
    for mode in (None, "stagewise", "portlevel"):
        stepper = _make_stepper(model, scheme, pulse_input(), 0.1, _feedback(mode))
        assert type(stepper) is integrator._LinearStepper
        got = (stepper.S, stepper.T, stepper.Delta, stepper.Gamma)
        for name, a, b in zip("S T Delta Gamma".split(), got,
                              _kron_maps(model, scheme, 0.1, mode)):
            assert a.shape == b.shape, name
            assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b)), (name, mode)


def test_linear_stepper_takes_exactly_the_q_and_constant_models():
    # the stepper is the model's choice alone: the affine recurrence for
    # gradH = Q x with constant J and G, Newton iteration for the rest
    cases = [(oscillator, True), (partitioned_oscillator, True), (_chain5, True),
             (rigid_body, False), (_pendulum, False)]
    for factory, linear in cases:
        model = factory()
        assert linear == (model.Q is not None and model.constant_structure)
        for scheme in (coll.make_scheme(coll.GAUSS, 2), coll.make_scheme(coll.LOBATTO, 3)):
            stepper = _make_stepper(model, scheme, zero_input(model.m), 0.1, None)
            want = integrator._LinearStepper if linear else integrator._NewtonStepper
            assert type(stepper) is want, (factory.__name__, scheme.label)


MEMO_RUNS = [(factory, x0, signal, h, feedback)
             for factory, x0, signal in ((oscillator, X0, pulse_input),
                                         (partitioned_oscillator, X0, pulse_input),
                                         (dense_model, DENSE_X0, two_channel_input))
             for h in (0.1, 0.25)
             for feedback in (None, FeedbackConfig(0.1), FeedbackConfig(0.1, "portlevel"),
                              FeedbackConfig(0.3, "portlevel"))]


def _memo_runs_keep_their_bytes(runs, entries):
    """Each run with the memo emptied first builds its maps; the same runs in
    one process, each with a freshly built model, fill the memo with one of
    `entries` entries per configuration, then take every map from it and
    keep every recorded byte."""
    built = []
    for run in runs:
        integrator._maps_memo.clear()
        built.append(run())
    integrator._maps_memo.clear()
    assert [run() for run in runs] == built
    memo = list(integrator._maps_memo.values())
    assert len(memo) == entries
    assert [run() for run in runs] == built
    assert all(a is b for a, b in zip(integrator._maps_memo.values(), memo, strict=True))


@pytest.mark.parametrize("kind,s", ALL_SCHEMES, ids=SCHEME_IDS)
def test_memoized_maps_keep_the_run_bytes(kind, s):
    # the oscillator and its separable form have the same matrices, so they
    # share entries under Gauss and differ only in n_q under Lobatto
    scheme = coll.make_scheme(kind, s)
    runs = [lambda f=factory, x0=x0, sig=signal, h=h, fb=feedback:
            _run_bytes(f(), scheme, x0, sig(), h, 3.0, feedback=fb)
            for factory, x0, signal, h, feedback in MEMO_RUNS]
    _memo_runs_keep_their_bytes(runs, 24 if kind == coll.LOBATTO else 16)


def _run_values(*args, **kwargs):
    """_run_bytes by value: a long double as the exact sum of two doubles,
    since its padding bytes are not part of it."""
    values = {}
    for name, v in _run_arrays(*args, **kwargs).items():
        hi = v.astype(np.float64)
        values[name] = (v.dtype.str, hi.tobytes(), (v - hi).astype(np.float64).tobytes())
    return values


def test_memo_keys_h_and_r_with_their_types():
    # a np.longdouble h runs in extended precision, and a np.longdouble r
    # rounds the feedback differently, so neither shares an equal float's entry
    scheme = coll.make_scheme(coll.GAUSS, 3)
    runs = [lambda h=h, r=r: _run_values(dense_model(), scheme, DENSE_X0, two_channel_input(),
                                         h, 3.0, feedback=FeedbackConfig(r, "portlevel"))
            for h, r in ((0.25, 0.1), (np.longdouble(0.25), 0.1), (0.25, np.longdouble(0.1)))]
    _memo_runs_keep_their_bytes(runs, 3)


@pytest.mark.parametrize("edit", ["Q", "J", "G"])
def test_a_matrix_edited_in_place_misses_the_memo(edit):
    # the key holds the bytes of Q, J and G, not the model: a run after an
    # edit in place builds new maps, and they are the edited model's
    model = PHModel(4, 2, H=dense_model().H, gradH=DENSE_Q.copy(), J=DENSE_J.copy(),
                    G=DENSE_G.copy())
    scheme = coll.make_scheme(coll.GAUSS, 3)
    args = (scheme, DENSE_X0, two_channel_input(), 0.1, 3.0)
    kwargs = {"feedback": _feedback("portlevel")}
    before = _run_bytes(model, *args, **kwargs)
    A = getattr(model, edit)
    A[0, 1] += 0.25
    if edit != "G":  # Q stays symmetric, J skew
        A[1, 0] += 0.25 if edit == "Q" else -0.25
    edited = _run_bytes(model, *args, **kwargs)
    assert len(integrator._maps_memo) == 2 and edited != before
    integrator._maps_memo.clear()
    fresh = PHModel(4, 2, H=model.H, gradH=model.Q.copy(), J=model.J.copy(),
                    G=model.G.copy())
    assert _run_bytes(fresh, *args, **kwargs) == edited


def test_memoized_maps_are_read_only():
    stepper = _make_stepper(dense_model(), coll.make_scheme(coll.LOBATTO, 3),
                            two_channel_input(), 0.1, _feedback("portlevel"))
    maps = (stepper.S, stepper.T, stepper.Delta, stepper.Gamma)
    (entry,) = integrator._maps_memo.values()
    assert all(a is b for a, b in zip(maps, entry, strict=True))
    for a in maps:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


@pytest.mark.parametrize("kind,s", [(coll.GAUSS, 2), (coll.LOBATTO, 3)])
@pytest.mark.parametrize("mode", [None, "stagewise", "portlevel"])
def test_a_memo_entry_is_exactly_the_four_maps(kind, s, mode):
    # S (sn, n), T (sn, sm), Delta (n, n) and Gamma (n, sm): 8 (s + 1) n (n + s m)
    # bytes; the M and K of y and the feedback are the scheme's, not the memo's
    scheme, n, m = coll.make_scheme(kind, s), 4, 2
    stepper = _make_stepper(dense_model(), scheme, two_channel_input(), 0.1, _feedback(mode))
    (entry,) = integrator._maps_memo.values()
    assert type(entry) is tuple
    assert [a.shape for a in entry] == [(s * n, n), (s * n, s * m), (n, n), (n, s * m)]
    assert sum(a.nbytes for a in entry) == 8 * (s + 1) * n * (n + s * m)
    assert all(a is b for a, b in zip(entry, (stepper.S, stepper.T, stepper.Delta,
                                              stepper.Gamma), strict=True))
    assert not any(a is b for a in entry for b in (stepper.M, stepper.K))
    assert all(not a.flags.writeable for a in entry)


@pytest.mark.parametrize("factory", [dense_model, dense_newton_model, oscillator, _pendulum])
def test_steppers_take_c1_from_the_scheme(factory):
    # C1 is decided when a scheme is built: a stepper takes M (and the
    # port-level K) as the record's c1 says and never tests M again, so a
    # field set against its M, through vars, decides the stepper's M too
    model = factory()
    signal = two_channel_input() if model.m == 2 else pulse_input()
    for kind, s in ALL_SCHEMES:
        scheme = coll.make_scheme(kind, s)
        liar = coll.CollocationScheme(scheme.kind, scheme.c, scheme.A, scheme.b, scheme.M,
                                      scheme.W, scheme.order, scheme.A_hat)
        vars(liar)["c1"] = not scheme.c1
        for mode in (None, "stagewise", "portlevel"):
            for record in (scheme, liar):
                stepper = _make_stepper(model, record, signal, 0.1, _feedback(mode))
                assert stepper.M is scheme.M or stepper.M.base is scheme.M
                assert stepper.M.ndim == (1 if record.c1 else 2)
                assert mode != "portlevel" or stepper.K is stepper.M
            # a diagonal M gives the same y either way; a Lobatto M taken as
            # its diagonal gives another
            y = [simulate(model, record, np.full(model.n, 0.5), signal, 0.1, 0.3,
                          feedback=_feedback(mode), retain_stages=True).stages.y
                 for record in (scheme, liar)]
            assert np.array_equal(*y) is scheme.c1


def test_maps_memo_stays_bounded():
    # bound + 50 distinct h: the least recently used entries leave, a hit
    # makes its entry the most recent, and no more than the bound stay
    bound, scheme = integrator.MAPS_MEMO_SIZE, coll.make_scheme(coll.GAUSS, 2)
    assert bound >= 95  # the configurations oscillator-sweep cycles through
    hs = [0.001 * (k + 1) for k in range(bound + 50)]
    first = [_make_stepper(oscillator(), scheme, pulse_input(), h, None) for h in hs]
    assert len(integrator._maps_memo) == bound
    again = lambda k: _make_stepper(oscillator(), scheme, pulse_input(), hs[k], None)
    assert again(-1).S is first[-1].S and again(-bound).S is first[-bound].S
    _make_stepper(oscillator(), scheme, pulse_input(), 1.0, None)  # evicts hs[-bound + 1]
    assert again(-bound).S is first[-bound].S
    assert again(-bound + 1).S is not first[-bound + 1].S
    assert again(49).S is not first[49].S
    assert len(integrator._maps_memo) == bound


@pytest.mark.parametrize("n", [SCAN_MAX_N, SCAN_MAX_N + 1])
def test_maps_memo_takes_models_up_to_scan_max_n(n):
    # above SCAN_MAX_N states the maps are built on every run
    rng = np.random.default_rng(3)
    J = rng.normal(size=(n, n))
    model = PHModel(n, 1, H=lambda x: 0.5 * (x @ x), gradH=np.eye(n), J=J - J.T,
                    G=np.ones((n, 1)))
    runs = [_make_stepper(model, coll.make_scheme(coll.GAUSS, 1), pulse_input(), 0.1, None)
            for _ in range(2)]
    assert len(integrator._maps_memo) == (n <= SCAN_MAX_N)
    assert (runs[0].S is runs[1].S) == (n <= SCAN_MAX_N)
    assert np.array_equal(runs[0].S, runs[1].S)


@pytest.mark.parametrize("m", [256, 257])
def test_maps_memo_keeps_entries_up_to_their_byte_share(m):
    # a 64-state Gauss-1 configuration with 256 input channels takes exactly
    # MAPS_MEMO_BYTES / MAPS_MEMO_SIZE, maps and key; with one channel more it
    # is built on every run, so a full memo holds MAPS_MEMO_BYTES at most
    n, s, share = SCAN_MAX_N, 1, integrator.MAPS_MEMO_BYTES // integrator.MAPS_MEMO_SIZE
    entry = 8 * (s + 1) * n * (n + s * m) + 8 * n * (2 * n + m)
    assert (entry == share, entry > share) == (m == 256, m == 257)
    rng = np.random.default_rng(5)
    J = rng.normal(size=(n, n))
    model = PHModel(n, m, H=lambda x: 0.5 * (x @ x), gradH=np.eye(n), J=J - J.T,
                    G=rng.normal(size=(n, m)))
    runs = [_make_stepper(model, coll.make_scheme(coll.GAUSS, s), zero_input(m), 0.1, None)
            for _ in range(2)]
    assert len(integrator._maps_memo) == (m == 256)
    assert (runs[0].S is runs[1].S) == (m == 256)
    assert np.array_equal(runs[0].Gamma, runs[1].Gamma)
    if m == 256:
        (maps,) = integrator._maps_memo.values()
        assert sum(a.nbytes for a in maps) == 8 * (s + 1) * n * (n + s * m)


def _loop_states(Delta, x0, drive):
    """The per-step recurrence x+ = x + (Delta x + drive_k): the oracle of the
    doubling scan."""
    states = np.empty((len(drive) + 1, len(x0)))
    states[0] = x0
    for k, d in enumerate(drive):
        x = states[k]
        states[k + 1] = x + (Delta @ x + d)
    return states


def _assert_close_states(states, oracle):
    bound = 1e-12 * np.maximum(1.0, np.max(np.abs(oracle), axis=1))
    assert states.shape == oracle.shape
    assert np.all(np.max(np.abs(states - oracle), axis=1) <= bound)


RECURRENCE_CASES = [
    pytest.param(kind, s, mode, id=f"{kind}{s}-{mode or 'open'}")
    for kind, s in [(coll.GAUSS, s) for s in (1, 2, 3, 4)]
    + [(coll.LOBATTO, 3), (coll.LOBATTO, 4)]
    for mode in (None, "stagewise", "portlevel")]


@pytest.mark.parametrize("kind,s,mode", RECURRENCE_CASES)
def test_scan_run_matches_per_step_loop(kind, s, mode):
    # the doubling scan of whole runs against the per-step loop: one to
    # three steps, runs around 3600 steps and a long run; Gauss on the
    # oscillator, the Lobatto pair on the separable form; and, without the
    # long run, each scheme on the dense 4-state model, whose products round
    catalogue = partitioned_oscillator() if kind == coll.LOBATTO else oscillator()
    for model, signal, x0, long in ((catalogue, pulse_input(), X0, (36000,)),
                                    (dense_model(), two_channel_input(), DENSE_X0, ())):
        stepper = _make_stepper(model, coll.make_scheme(kind, s), signal, 0.01,
                                _feedback(mode))
        for N in (1, 2, 3, 3599, 3600, 3601, *long):
            t0 = np.arange(N) * 0.01
            states, sol = stepper.run(x0, t0)
            w = stepper._inputs(t0).reshape(N, -1)
            oracle = _loop_states(stepper.Delta, x0, np.matvec(stepper.Gamma, w))
            _assert_close_states(states, oracle)
            assert np.array_equal(sol.x_end, states[1:])


SCAN_LENGTHS = sorted(set(range(1, 71)) | {2 ** k + d for k in range(1, 13)
                                             for d in (-1, 0, 1)})


def _scan_states(Delta, x0, drive):
    """The doubling scan with each pass as one expression of temporaries,
    v[m:] = v[:-m] + (v[:-m] P' + v[m:]): the oracle of the in-place pass."""
    N = len(drive)
    v = np.concatenate([x0[None], drive[:-1]])
    P, m = Delta, 1
    while m < N:
        if m > 1:
            P = P + (P + P @ P)
        v[m:] = v[:-m] + (v[:-m] @ P.T + v[m:])
        m *= 2
    return np.cumsum(np.concatenate([x0[None], v @ Delta.T + drive]), axis=0)


def test_scan_matches_the_loop_at_every_length():
    # every N up to 70 and both sides of every power of two up to 2^12, where
    # the scan gains or loses a doubling pass; the in-place passes add the
    # same terms in a commuted order, so they keep the expression's bytes
    rng = np.random.default_rng(11)
    n = 4
    Delta = 0.05 * rng.normal(size=(n, n))
    for N in SCAN_LENGTHS:
        x0, drive = rng.normal(size=n), 0.1 * rng.normal(size=(N, n))
        oracle = _loop_states(Delta, x0, drive)
        states = _affine_states(Delta, x0, drive)
        assert states.tobytes() == _scan_states(Delta, x0, drive).tobytes()
        if N == 1:
            assert np.array_equal(states, oracle)
        _assert_close_states(states, oracle)


@pytest.mark.parametrize("n", [SCAN_MAX_N, SCAN_MAX_N + 1])
def test_scan_size_rule(n, monkeypatch):
    # the scan ends in one cumulative sum; the per-step loop has none and
    # keeps the oracle's bytes
    sums, cumsum = [], np.cumsum

    def counted(*args, **kwargs):
        sums.append(args)
        return cumsum(*args, **kwargs)

    monkeypatch.setattr(np, "cumsum", counted)
    rng = np.random.default_rng(12)
    Delta = 0.01 * rng.normal(size=(n, n))
    x0, drive = rng.normal(size=n), 0.1 * rng.normal(size=(50, n))
    oracle = _loop_states(Delta, x0, drive)
    states = _affine_states(Delta, x0, drive)
    assert len(sums) == (n <= SCAN_MAX_N)
    if n > SCAN_MAX_N:
        assert np.array_equal(states, oracle)
    _assert_close_states(states, oracle)


def test_scan_keeps_the_balance_residual():
    # lossless pulse runs of Gauss 1-6 on the convergence grid and h = 1e-3:
    # every step keeps dH_bar = h y'u to rounding of the stored energy
    for s in range(1, 7):
        scheme = coll.make_scheme(coll.GAUSS, s)
        for x0 in (X0, np.array([3.0, 4.0])):
            scale = max(1.0, 0.5 * (x0 @ x0))
            for h in (*DEFAULT_H_LIST, 1e-3):
                traj = simulate(oscillator(), scheme, x0, pulse_input(), h, 18.0)
                residual = np.abs(traj.dh_bar - traj.supplied)
                assert residual.max() <= 2e-15 * scale, (s, tuple(x0), h)


def _chain(cells):
    """Driven mass-spring chain of 2 cells states, force on the first mass."""
    K = 2.0 * np.eye(cells) - np.eye(cells, k=1) - np.eye(cells, k=-1)
    G = np.zeros((cells, 1))
    G[0, 0] = 1.0
    return mechanical(K, np.eye(cells), G, name="chain")


def test_large_chain_keeps_the_per_step_loop(monkeypatch):
    # 200 states: above SCAN_MAX_N, the loop bit for bit; the scan still
    # agrees, at its larger set-up cost
    model, N = _chain(100), 400
    assert model.n > SCAN_MAX_N
    stepper = _make_stepper(model, coll.make_scheme(coll.LOBATTO, 3),
                            pulse_input(), 0.05, None)
    x0 = np.random.default_rng(5).normal(size=model.n)
    t0 = np.arange(N) * 0.05
    states, _ = stepper.run(x0, t0)
    drive = stepper._inputs(t0).reshape(N, -1) @ stepper.Gamma.T
    oracle = _loop_states(stepper.Delta, x0, drive)
    assert np.array_equal(states, oracle)
    monkeypatch.setattr(integrator, "SCAN_MAX_N", model.n)
    _assert_close_states(_affine_states(stepper.Delta, x0, drive), oracle)


def _stacked_efforts(model, states):
    """gradH = Q x as one product per interval of the stacked states: the
    oracle of the single-GEMM efforts."""
    return states @ model.Q.T


def _stacked_drift(J, G, e, u):
    """J e_i + G u_i = -f_i as one matvec per stage: the oracle of the
    single-GEMM drift."""
    return np.matvec(J, e) + np.matvec(G, u)


def _stacked_output(K, G, e):
    """Rows G' (K e)_i as one vecmat per stage: the oracle of the single-GEMM
    discrete output; a diagonal K, passed as its diagonal, is expanded."""
    return np.vecmat((np.diag(K) if K.ndim == 1 else K) @ e, G)


@pytest.mark.parametrize("kind,s", [(coll.GAUSS, 2), (coll.LOBATTO, 3)])
def test_shared_matrix_products_match_per_interval_forms(kind, s, monkeypatch):
    # 100 states, 1000 steps across the pulse: the run with its shared-matrix
    # products as one GEMM each against the run with one product per interval
    # or stage; they differ only in the summation order of the BLAS kernels
    model = _chain(50)
    args = (model, coll.make_scheme(kind, s),
            np.random.default_rng(11).normal(size=model.n), pulse_input(),
            0.01, 10.0)
    gemm = simulate(*args, retain_stages=True)
    monkeypatch.setattr(integrator, "efforts", _stacked_efforts)
    monkeypatch.setattr(integrator, "drift", _stacked_drift)
    monkeypatch.setattr(integrator, "discrete_output", _stacked_output)
    integrator._maps_memo.clear()  # the set-up's products too
    oracle = simulate(*args, retain_stages=True)
    for got, want in [(gemm.states, oracle.states),
                      (gemm.stages.f, oracle.stages.f),
                      (gemm.stages.y, oracle.stages.y),
                      (gemm.dh_bar, oracle.dh_bar),
                      (gemm.supplied, oracle.supplied)]:
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # each dH_tilde row sums 300 terms whose magnitudes add up to about 1 and
    # which cancel to about 4e-3: its rounding is relative to that sum
    sol = oracle.stages
    terms = sol.h * np.abs(sol.e * (args[1].M @ sol.f)).sum(axis=(-2, -1))
    assert np.all(np.abs(gemm.dh_tilde - oracle.dh_tilde) <= 1e-14 * terms)


@pytest.mark.parametrize("t0", [np.nan, np.inf, -np.inf])
def test_solve_stages_rejects_non_finite_t0(t0):
    # a NaN time would sample the pulse as zero and return a finite x_end
    for factory in (oscillator, rigid_body):
        model = factory()
        with pytest.raises(ConfigurationError, match="t0 must be finite"):
            solve_stages(model, coll.make_scheme(coll.GAUSS, 2),
                         np.ones(model.n), zero_input(model.m), t0, 0.1)


@pytest.mark.parametrize("method", ["auto", "newton"], indirect=True)
@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_gauss_on_separable_model_is_the_monolithic_run(s, method):
    # Gauss takes A on every row of a separable model, so the (q, p) form
    # of the oscillator runs as the oscillator itself, bit for bit
    scheme = coll.make_scheme(coll.GAUSS, s)
    runs = [simulate(factory(), scheme, X0, pulse_input(), 0.1, 18.0)
            for factory in (partitioned_oscillator, oscillator)]
    assert np.array_equal(runs[0].states, runs[1].states)
    assert np.max(np.abs(runs[0].dh_bar - runs[0].supplied)) <= 1e-14


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


@pytest.mark.parametrize("method", ["auto", "newton"], indirect=True)
def test_non_finite_state_reported(method):
    # the input turns NaN at t = 0.3; Gauss-1 first samples it on step 3
    signal = InputSignal(fn=lambda t: np.where(t >= 0.3, np.nan, 0.0)[:, None])
    with pytest.raises(SolverDivergenceError) as exc:
        simulate(oscillator(), coll.make_scheme(coll.GAUSS, 1), X0, signal,
                 0.1, 1.0)
    assert exc.value.step_index == 3


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_energy_reported():
    # from t = 0.3 the input is 1e200: the states stay finite (~1e199) but
    # their energy overflows, first on step 3 of Gauss-1 (energy row 3)
    signal = InputSignal(fn=lambda t: np.where(t >= 0.3, 1e200, 0.0)[:, None])
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
    with pytest.raises(ConfigurationError, match="step size h must be finite"):
        solve_stages(oscillator(), scheme, X0, zero_input(), 0.0, np.nan)
    with pytest.raises(ConfigurationError, match="step size h must be finite"):
        simulate(oscillator(), scheme, X0, zero_input(), np.inf, 1.0)
    with pytest.raises(ConfigurationError, match="t_end must be finite"):
        simulate(oscillator(), scheme, X0, zero_input(), 0.1, np.nan)


@pytest.mark.parametrize("t_end", [0.0, -1.0])
def test_non_positive_t_end_named(t_end):
    with pytest.raises(ConfigurationError,
                       match="t_end must be finite and positive"):
        simulate(oscillator(), coll.make_scheme(coll.GAUSS, 1), X0,
                 zero_input(), 0.1, t_end)


@pytest.mark.parametrize("N", [1, 8, 1000])
def test_step_count_tolerance_edge(N):
    # t_end / h within 1e-9 N of N is N steps; N (1 + 1e-6) is no step count
    h, scheme = 0.125, coll.make_scheme(coll.GAUSS, 1)
    assert integrator._step_count(h, N * h * (1 + 1e-10)) == N
    with pytest.raises(ConfigurationError, match="is not an integer step count"):
        simulate(oscillator(), scheme, X0, zero_input(), h, N * h * (1 + 1e-6))


# --- the one input path: the run's signal, of the model's width -------------

def test_input_on_portless_model_rejected():
    with pytest.raises(ConfigurationError, match="no input port"):
        simulate(rigid_body(), coll.make_scheme(coll.GAUSS, 2),
                 np.ones(3), pulse_input(), 0.1, 1.0)


def test_feedback_on_portless_model_rejected():
    with pytest.raises(ConfigurationError, match="requires a model with a port"):
        simulate(rigid_body(), coll.make_scheme(coll.GAUSS, 2), np.ones(3),
                 zero_input(0), 0.1, 1.0, feedback=FeedbackConfig(r=5.0))


@pytest.mark.parametrize("method", ["auto", "newton"], indirect=True)
def test_input_width_must_match_the_port(method):
    two = InputSignal(fn=lambda t: np.zeros((len(t), 2)))
    with pytest.raises(ConfigurationError, match="input signal has 2 channels"):
        simulate(oscillator(), coll.make_scheme(coll.GAUSS, 2), X0, two,
                 0.1, 1.0)


def test_feedback_run_takes_the_signal_as_v():
    # u = v - r y with the pulse as v: the states leave the free decay on
    # the first step into the pulse at t = 8; rows 100 and 180 are pinned
    # bit for bit to the pulse-driven damped run
    scheme, fb = coll.make_scheme(coll.GAUSS, 2), FeedbackConfig(r=0.1)
    traj = simulate(oscillator(), scheme, X0, pulse_input(), 0.1, 18.0,
                    feedback=fb)
    free = simulate(oscillator(), scheme, X0, zero_input(), 0.1, 18.0,
                    feedback=fb)
    assert np.array_equal(traj.states[:81], free.states[:81])
    assert not np.array_equal(traj.states[81], free.states[81])
    assert traj.states[100].tolist() == [1.070834709465928, 0.9467450705853763]
    assert traj.states[180].tolist() == [0.567823806165058, -0.8295909328450617]


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
    # supplied energy is zero while the pulse is off
    assert np.max(np.abs(traj.supplied[:16])) < 1e-15
    assert np.max(np.abs(traj.supplied[20:])) < 1e-15
    assert np.max(np.abs(traj.supplied[16:20])) > 1e-3
