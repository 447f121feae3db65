"""Energy bookkeeping: increments, references, error metrics, slope fits and
the dissipation split."""
from types import SimpleNamespace

import numpy as np
import pytest

import phint.collocation as coll
from phint.dirac import assemble_blocks
from phint.energy import (DAMPED_FREE, LOSSLESS_FORCED, EnergyReport,
                          delta_h_bar, delta_h_tilde, order_fit,
                          reference_solution, supplied_energy)
from phint.errors import ConfigurationError
from phint.integrator import simulate, solve_stages
from phint.models import (FeedbackConfig, PHModel, mechanical, oscillator,
                          partitioned_oscillator, pulse_input, rigid_body,
                          zero_input)

from conftest import matmul_delta_h_tilde

X0 = np.array([0.0, -1.0])


# --- reference solutions ----------------------------------------------------

def test_lossless_reference_against_numerical_oracle():
    # designated oracle: 6th-order scheme at h = 1e-3, with the h/2 rerun
    # confirming the oracle itself has converged
    model = oscillator()
    scheme = coll.make_scheme(coll.GAUSS, 3)
    traj = simulate(model, scheme, X0, pulse_input(), 1e-3, 18.0)
    traj_half = simulate(model, scheme, X0, pulse_input(), 5e-4, 18.0)
    assert np.max(np.abs(traj.states[-1] - traj_half.states[-1])) < 1e-12
    x_ref, h_ref = reference_solution(LOSSLESS_FORCED, 18.0)
    assert np.max(np.abs(traj.states[-1] - x_ref)) < 1e-12
    assert model.H(traj.states[-1]) == pytest.approx(h_ref, abs=1e-12)


def test_damped_reference_against_numerical_oracle():
    model = oscillator()
    scheme = coll.make_scheme(coll.GAUSS, 3)
    fb = FeedbackConfig(r=0.1, mode="stagewise")
    traj = simulate(model, scheme, X0, zero_input(), 1e-3, 10.0, feedback=fb)
    traj_half = simulate(model, scheme, X0, zero_input(), 5e-4, 10.0, feedback=fb)
    assert np.max(np.abs(traj.states[-1] - traj_half.states[-1])) < 1e-12
    x_ref, _ = reference_solution(DAMPED_FREE, 10.0, r=0.1)
    assert np.max(np.abs(traj.states[-1] - x_ref)) < 1e-12


@pytest.mark.parametrize("r", [2.0, 2.5, -0.1, float("nan")])
def test_damped_reference_needs_r_in_zero_two(r):
    # the closed form is the underdamped one: w = sqrt(1 - r^2/4) > 0
    with pytest.raises(ValueError, match=rf"r in \[0, 2\), got r = {r}"):
        reference_solution(DAMPED_FREE, 1.0, r)


def test_reference_segments_join_continuously():
    for t in (8.0, 10.0):
        lo, _ = reference_solution(LOSSLESS_FORCED, t - 1e-9)
        hi, _ = reference_solution(LOSSLESS_FORCED, t + 1e-9)
        assert np.max(np.abs(hi - lo)) < 1e-8


def test_reference_array_matches_scalar_calls():
    # one call on all sample times gives the scalar values, on every branch
    times = np.array([0.0, 3.3, 7.99, 8.0, 8.5, 9.75, 10.0, 10.01, 17.2, 18.0])
    for experiment, r in ((LOSSLESS_FORCED, 0.1), (DAMPED_FREE, 0.1),
                          (DAMPED_FREE, 0.3)):
        x, H = reference_solution(experiment, times, r=r)
        assert x.shape == (len(times), 2) and H.shape == (len(times),)
        for k, t in enumerate(times):
            xk, Hk = reference_solution(experiment, t, r=r)
            assert np.array_equal(x[k], xk) and H[k] == Hk
    with pytest.raises(ValueError):
        reference_solution(LOSSLESS_FORCED, np.array([1.0, -1e-9]))



def test_reference_validation():
    with pytest.raises(ValueError):
        reference_solution(LOSSLESS_FORCED, -1.0)
    with pytest.raises(ConfigurationError):
        reference_solution("resonant", 1.0)


# --- per-step increments ----------------------------------------------------

def test_delta_h_tilde_matches_trajectory():
    scheme = coll.make_scheme(coll.LOBATTO, 3)
    model = oscillator()
    sol = solve_stages(model, scheme, X0, pulse_input(), 8.5, 0.25)
    traj = simulate(model, scheme, X0, pulse_input(), 0.25, 18.0)
    k = int(round(8.5 / 0.25))
    # same interval reached by chaining: compare via a fresh solve there
    sol_chain = solve_stages(model, scheme, traj.states[k], pulse_input(),
                             8.5, 0.25)
    assert delta_h_tilde(sol_chain, scheme) == pytest.approx(traj.dh_tilde[k],
                                                             abs=1e-15)
    assert delta_h_tilde(sol, scheme) == pytest.approx(
        -0.25 * np.sum((scheme.M @ sol.f) * sol.e), abs=1e-16)


def _newton_oscillator():
    """The oscillator without Q and without a constant-structure flag: the
    same bonds through the Newton stepper, port and feedback included."""
    J, g = oscillator().J, oscillator().G
    return PHModel(2, 1, H=lambda x: 0.5 * (x @ x), gradH=lambda x: x.copy(),
                   J=lambda x: J, G=lambda x: g)


@pytest.mark.parametrize("s", coll.GAUSS_STAGE_RANGE)
def test_gauss_delta_h_tilde_is_the_mass_matrix_product_bit_for_bit(s):
    # M = diag(b): b_i f_i row by row in place of M f; a zero state gives
    # zero flows whose signs the matmul does not keep, and the sums agree
    scheme = coll.make_scheme(coll.GAUSS, s)
    runs = [(factory(), x0, pulse_input(), 0.05, 12.0, fb)
            for factory in (oscillator, _newton_oscillator)
            for x0 in (X0, np.zeros(2))
            for fb in (None, FeedbackConfig(0.3, "stagewise"),
                       FeedbackConfig(0.3, "portlevel"))]
    runs += [(rigid_body(), np.array(x0), zero_input(0), 0.01, 1.0, None)
             for x0 in ([1.0, -2.0, 0.5], [0.0, 0.0, 0.0])]
    for model, x0, signal, h, t_end, fb in runs:
        traj = simulate(model, scheme, x0, signal, h, t_end, feedback=fb,
                        retain_stages=True)
        expect = matmul_delta_h_tilde(traj.stages, scheme).tobytes()
        assert traj.dh_tilde.tobytes() == expect
        assert delta_h_tilde(traj.stages, scheme).tobytes() == expect
        one = traj.stage_solutions[7]
        assert (np.asarray(delta_h_tilde(one, scheme)).tobytes()
                == np.asarray(matmul_delta_h_tilde(one, scheme)).tobytes())


def test_supplied_energy_matches_output_pairing():
    scheme = coll.make_scheme(coll.GAUSS, 2)
    model = oscillator()
    sol = solve_stages(model, scheme, X0, pulse_input(), 8.5, 0.25)
    _, G = assemble_blocks(model, sol.stage_x, scheme)
    Me = scheme.M @ sol.e
    y = np.array([G[i].T @ Me[i] for i in range(scheme.s)])
    assert supplied_energy(sol) == pytest.approx(
        sol.h * np.sum(y * sol.u), abs=1e-16)


def test_delta_h_bar_trivial_and_telescoping():
    model = oscillator()
    assert delta_h_bar(model, np.array([X0, X0]))[0] == 0.0
    scheme = coll.make_scheme(coll.LOBATTO, 3)
    traj = simulate(model, scheme, X0, pulse_input(), 0.1, 18.0)
    total = model.H(traj.states[-1]) - model.H(traj.states[0])
    assert abs(traj.dh_bar.sum() - total) <= 1e-13 * max(1.0, abs(total))


def _quadratic_model(Q, offset=0.0, with_q=True):
    Q = np.asarray(Q, dtype=float)
    return PHModel(len(Q), 1, H=lambda x: 0.5 * (x @ Q @ x) + offset,
                   gradH=Q if with_q else lambda x: Q @ x,
                   J=np.zeros((len(Q), len(Q))), G=np.ones((len(Q), 1)))


def test_delta_h_bar_ignores_a_constant_in_h():
    # with Q the increment is the quadratic form, which never calls H; per
    # state, the offset 7 costs the increments of small energies their digits
    Q = [[2.0, 0.5], [0.5, 1.0]]
    states = 1e-5 * np.random.default_rng(3).normal(size=(50, 2))
    plain = delta_h_bar(_quadratic_model(Q), states)
    assert np.array_equal(delta_h_bar(_quadratic_model(Q, offset=7.0), states),
                          plain)
    no_q = _quadratic_model(Q, with_q=False)
    per_state = delta_h_bar(no_q, states)
    h_max = max(no_q.H(x) for x in states)
    assert np.max(np.abs(plain - per_state)) <= 1e-14 * h_max
    offset_per_state = delta_h_bar(_quadratic_model(Q, 7.0, with_q=False), states)
    assert np.max(np.abs(plain - offset_per_state)) > 1e-17


def _matvec_delta_h_bar(model, x):
    """1/2 (x+ - x)' Q (x+ + x) with one matvec per step: the oracle of the
    single-GEMM quadratic form."""
    return 0.5 * np.vecdot(x[1:] - x[:-1], np.matvec(model.Q, x[1:] + x[:-1]))


@pytest.mark.parametrize("factory,kind,s,x0", [
    (oscillator, coll.GAUSS, 2, X0),
    (oscillator, coll.LOBATTO, 3, np.array([3.0, 4.0])),
    (partitioned_oscillator, coll.LOBATTO, 4, X0),
    *[(rigid_body, coll.GAUSS, s, np.array(x0))
      for s in (1, 2, 3, 4) for x0 in ((1.0, 1.0, 1.0), (100.0, -30.0, 50.0))]])
def test_delta_h_bar_gemm_keeps_the_matvec_bytes(factory, kind, s, x0):
    # every catalogue model has a diagonal Q: each GEMM entry is one product
    # plus exact zeros, so the increments are the matvec form's bytes
    model = factory()
    signal = pulse_input() if model.m else zero_input(0)
    traj = simulate(model, coll.make_scheme(kind, s), x0, signal, 0.01, 10.0)
    assert np.count_nonzero(model.Q - np.diag(np.diag(model.Q))) == 0
    assert traj.dh_bar.tobytes() == _matvec_delta_h_bar(model, traj.states).tobytes()


def test_delta_h_bar_gemm_on_a_coupled_q_is_the_matvec_form():
    # a mass-spring chain couples neighbouring positions in Q: the GEMM sums
    # in another order, within rounding of the stored energy
    cells = 6
    K = 2.0 * np.eye(cells) - np.eye(cells, k=1) - np.eye(cells, k=-1)
    G = np.eye(cells)[:, :1]
    model = mechanical(K, np.eye(cells), G, name="chain")
    x0 = np.random.default_rng(7).normal(size=model.n)
    traj = simulate(model, coll.make_scheme(coll.GAUSS, 2), x0, pulse_input(),
                    0.05, 18.0)
    H = np.array([model.H(x) for x in traj.states])
    scale = np.maximum(1.0, np.maximum(np.abs(H[1:]), np.abs(H[:-1])))
    oracle = _matvec_delta_h_bar(model, traj.states)
    assert np.all(np.abs(traj.dh_bar - oracle) <= 1e-15 * scale)


def test_gauss_step_has_exact_balance():
    model = oscillator()
    scheme = coll.make_scheme(coll.GAUSS, 2)
    sol = solve_stages(model, scheme, X0, pulse_input(), 8.5, 0.25)
    dh_bar = delta_h_bar(model, np.array([X0, sol.x_end]))[0]
    assert abs(dh_bar - delta_h_tilde(sol, scheme)) <= 1e-13 * (1 + abs(dh_bar))


def test_lobatto_partitioned_step_balance_gap_is_h5():
    # the supplied/stored increments differ per step at fifth order
    pm = partitioned_oscillator()
    scheme = coll.make_scheme(coll.LOBATTO, 3)
    x0, _ = reference_solution(LOSSLESS_FORCED, 8.5)
    gaps = []
    hs = (0.15, 0.1, 0.075, 0.05)
    for h in hs:
        sol = solve_stages(pm, scheme, x0, pulse_input(), 8.5, h)
        dh_bar = pm.H(sol.x_end) - pm.H(x0)
        gaps.append(abs(dh_bar - delta_h_tilde(sol, scheme)))
    slope = np.polyfit(np.log(hs), np.log(gaps), 1)[0]
    assert abs(slope - 5.0) <= 0.4
    assert gaps[0] > 1e-12


# --- reports and error metrics ----------------------------------------------

def test_energy_report_totals_and_errors():
    model = oscillator()
    scheme = coll.make_scheme(coll.GAUSS, 2)
    traj = simulate(model, scheme, X0, pulse_input(), 0.1, 18.0)
    ref = lambda t: reference_solution(LOSSLESS_FORCED, t)
    report = EnergyReport.from_trajectory(traj, ref)
    assert report.dh_tot_ref == pytest.approx(ref(18.0)[1] - 0.5, abs=1e-14)
    assert report.dh_tilde_tot == traj.dh_tilde.sum()
    assert report.dh_bar_tot == traj.dh_bar.sum()
    assert abs(report.eps_tilde - report.eps_bar) < 1e-12  # exact balance
    bare = EnergyReport.from_trajectory(traj)
    assert bare.eps_tilde is None and bare.dh_tot_ref is None


def test_relative_errors_zero_reference_rejected():
    # totals 1.1 and 0.9 against a reference increment of 0 and of 1
    traj = SimpleNamespace(times=np.array([0.0, 1.0]), dh_tilde=np.array([1.1]),
                           dh_bar=np.array([0.9]))
    with pytest.raises(ConfigurationError):
        EnergyReport.from_trajectory(traj, lambda t: (None, np.zeros(2)))
    report = EnergyReport.from_trajectory(traj, lambda t: (None, np.array([0.0, 1.0])))
    et, eb = report.eps_tilde, report.eps_bar
    assert et == pytest.approx(0.1) and eb == pytest.approx(-0.1)


# --- slope fits ---------------------------------------------------------------

def test_order_fit_exact_power_law():
    pts = [(h, 3.0 * h**4) for h in (0.2, 0.1, 0.05)]
    slope = order_fit(pts)
    assert abs(slope - 4.0) < 1e-10
    assert type(slope) is float


def test_order_fit_floor_and_point_count():
    pts = [(0.2, 1e-3), (0.1, 1e-4), (0.05, 1e-13), (0.025, 1e-14)]
    with pytest.raises(ValueError):
        order_fit(pts)
    pts = [(0.2, 1e-3), (0.1, 1e-4), (0.05, 1e-5), (0.025, 1e-13)]
    assert order_fit(pts).hex() == order_fit(pts[:3]).hex()


def test_order_fit_tail_restriction():
    # a contaminated large-h point is excluded by the tail fit
    pts = [(h, h**2) for h in (0.1, 0.05, 0.025, 0.0125)]
    pts.append((0.8, 10.0 * 0.8**2))
    assert abs(order_fit(pts) - 2.0) > 0.1
    assert abs(order_fit(pts, tail=4) - 2.0) < 1e-10
    with pytest.raises(ValueError):
        order_fit(pts, tail=2)


# --- one-step energy error ---------------------------------------------------
#
# |dH_bar - dH_exact| over one step of the damped free oscillator falls as
# h^(p+1).  The initial state is amplified tenfold so that the high-order
# curves clear the rounding floor, and each scheme gets its own geometric
# step grid, from where the error first drops below 1e-8 down to ~3e-12.

LOCAL_AMPLITUDE = 10.0
ALL_SCHEMES = ([(coll.GAUSS, s) for s in range(1, 9)]
               + [(coll.LOBATTO, s) for s in (2, 3, 4)])


def _local_energy_gap(model, scheme, fb, h):
    x0 = LOCAL_AMPLITUDE * reference_solution(DAMPED_FREE, 0.0)[0]
    _, (h0, h1) = reference_solution(DAMPED_FREE, np.array([0.0, h]))
    x_end = solve_stages(model, scheme, x0, zero_input(), 0.0, h,
                         feedback=fb).x_end
    return abs((model.H(x_end) - model.H(x0)) - LOCAL_AMPLITUDE**2 * (h1 - h0))


@pytest.mark.parametrize("kind,s", ALL_SCHEMES)
def test_local_energy_error_order(kind, s):
    model, scheme = oscillator(), coll.make_scheme(kind, s)
    fb = FeedbackConfig(r=0.1, mode="stagewise")
    h = 2.6
    while h > 0.02 and _local_energy_gap(model, scheme, fb, h) > 1e-8:
        h *= 0.85
    # six points, the last near 3e-12 if the error falls as h^(p+1)
    p1 = scheme.order + 1
    ratio = (3e-12 / _local_energy_gap(model, scheme, fb, h)) ** (1.0 / (5 * p1))
    grid = h * ratio ** np.arange(6)
    pts = [(hk, _local_energy_gap(model, scheme, fb, hk)) for hk in grid]
    assert abs(order_fit(pts) - p1) <= 0.3


# --- dissipation split --------------------------------------------------------

def test_dissipation_decomposition_portlevel():
    model = oscillator()
    scheme = coll.make_scheme(coll.GAUSS, 2)
    fb = FeedbackConfig(r=0.1, mode="portlevel")
    sol = solve_stages(model, scheme, X0, pulse_input(), 8.5, 0.25, feedback=fb)
    v = np.array([pulse_input()(8.5 + ci * 0.25) for ci in scheme.c])
    # u = v - r y at the port: dH_tilde = -r h y'y + h y'v
    y = sol.y.ravel()
    dissipated = -0.1 * 0.25 * float(y @ y)
    external = 0.25 * float(y @ v.ravel())
    assert dissipated <= 0.0
    total = delta_h_tilde(sol, scheme)
    assert total == pytest.approx(dissipated + external, abs=1e-14)


def test_portlevel_free_decay_is_pure_dissipation():
    model = oscillator()
    scheme = coll.make_scheme(coll.LOBATTO, 3)
    fb = FeedbackConfig(r=0.1, mode="portlevel")
    sol = solve_stages(model, scheme, X0, zero_input(), 0.0, 0.25, feedback=fb)
    y = (scheme.M @ sol.e) @ np.array([0.0, 1.0])
    assert delta_h_tilde(sol, scheme) == pytest.approx(
        -0.1 * 0.25 * float(y @ y), abs=1e-14)


def test_stagewise_dissipation_single_stage():
    # s=1: M = [b_1] = [1], so the formula collapses to -r h (g'e_1)^2
    model = oscillator()
    scheme = coll.make_scheme(coll.GAUSS, 1)
    fb = FeedbackConfig(r=0.1, mode="stagewise")
    sol = solve_stages(model, scheme, X0, zero_input(), 0.0, 0.25, feedback=fb)
    g = np.array([0.0, 1.0])
    expect = -0.1 * 0.25 * float(sol.e[0] @ g)**2
    assert delta_h_tilde(sol, scheme) == pytest.approx(expect, abs=1e-14)
