"""End-to-end acceptance checks: one test per headline claim, each printing a
single PASS/FAIL line with the measured quantity.

Run standalone with:  pytest tests/test_acceptance.py -v -s
"""
import numpy as np
import pytest

import phint.collocation as coll
from phint.dirac import assemble_blocks, kernel_check, power_residual
from phint.energy import (DAMPED_FREE, LOSSLESS_FORCED, EnergyReport, order_fit,
                          reference_solution)
from phint.integrator import simulate, solve_stages
from phint.models import (FeedbackConfig, oscillator, partitioned_oscillator,
                          pulse_input, rigid_body, zero_input)

X0 = np.array([0.0, -1.0])
H_GRID = (0.5, 0.25, 0.2, 0.1, 0.05, 0.025, 0.02, 0.01, 0.005)
CONVERGENCE_CASES = [("gauss", 1, 2), ("gauss", 2, 4), ("gauss", 3, 6),
                     ("lobatto", 3, 4), ("lobatto", 4, 6)]
ALL_SCHEMES = ([("gauss", s) for s in range(1, 9)]
               + [("lobatto", s) for s in (2, 3, 4)])


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, detail


def lossless_eps(kind, s, h):
    scheme = coll.make_scheme(kind, s)
    traj = simulate(oscillator(), scheme, X0, pulse_input(), h, 18.0)
    rep = EnergyReport.from_trajectory(
        traj, lambda t: reference_solution(LOSSLESS_FORCED, t))
    return rep


def damped_eps(kind, s, h):
    scheme = coll.make_scheme(kind, s)
    fb = FeedbackConfig(r=0.1, mode="stagewise")
    traj = simulate(oscillator(), scheme, X0, zero_input(), h, 10.0,
                    feedback=fb)
    rep = EnergyReport.from_trajectory(
        traj, lambda t: reference_solution(DAMPED_FREE, t, 0.1))
    return rep


def test_criterion_1_coefficient_exactness():
    """Closed-form nodes, tableaux and mass matrices to 1e-14."""
    sq3, sq5, sq15 = np.sqrt(3.0), np.sqrt(5.0), np.sqrt(15.0)
    worst = 0.0

    def check(got, expect):
        nonlocal worst
        worst = max(worst, float(np.max(np.abs(np.asarray(got) - expect))))

    g1 = coll.make_scheme("gauss", 1)
    check(g1.c, [0.5]); check(g1.A, [[0.5]]); check(g1.b, [1.0])
    check(g1.M, [[1.0]])
    g2 = coll.make_scheme("gauss", 2)
    check(g2.c, [0.5 - sq3 / 6, 0.5 + sq3 / 6])
    check(g2.A, [[0.25, 0.25 - sq3 / 6], [0.25 + sq3 / 6, 0.25]])
    check(g2.b, [0.5, 0.5]); check(g2.M, np.diag([0.5, 0.5]))
    g3 = coll.make_scheme("gauss", 3)
    check(g3.c, [0.5 - sq15 / 10, 0.5, 0.5 + sq15 / 10])
    check(g3.A, [[5 / 36, 2 / 9 - sq15 / 15, 5 / 36 - sq15 / 30],
                 [5 / 36 + sq15 / 24, 2 / 9, 5 / 36 - sq15 / 24],
                 [5 / 36 + sq15 / 30, 2 / 9 + sq15 / 15, 5 / 36]])
    check(g3.b, [5 / 18, 4 / 9, 5 / 18])
    check(g3.M, np.diag([5 / 18, 4 / 9, 5 / 18]))

    l2 = coll.make_scheme("lobatto", 2)
    check(l2.c, [0.0, 1.0]); check(l2.A, [[0, 0], [0.5, 0.5]])
    check(l2.b, [0.5, 0.5]); check(l2.A_hat, [[0.5, 0], [0.5, 0]])
    check(l2.M, [[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
    l3 = coll.make_scheme("lobatto", 3)
    check(l3.c, [0.0, 0.5, 1.0])
    check(l3.A, [[0, 0, 0], [5 / 24, 1 / 3, -1 / 24], [1 / 6, 2 / 3, 1 / 6]])
    check(l3.b, [1 / 6, 2 / 3, 1 / 6])
    check(l3.A_hat, [[1 / 6, -1 / 6, 0], [1 / 6, 1 / 3, 0], [1 / 6, 5 / 6, 0]])
    check(l3.M, [[2 / 15, 1 / 15, -1 / 30],
                 [1 / 15, 8 / 15, 1 / 15],
                 [-1 / 30, 1 / 15, 2 / 15]])
    l4 = coll.make_scheme("lobatto", 4)
    check(l4.c, [0.0, 0.5 - sq5 / 10, 0.5 + sq5 / 10, 1.0])
    check(l4.b, [1 / 12, 5 / 12, 5 / 12, 1 / 12])
    check(l4.A, [[0, 0, 0, 0],
                 [(11 + sq5) / 120, (25 - sq5) / 120,
                  (25 - 13 * sq5) / 120, (-1 + sq5) / 120],
                 [(11 - sq5) / 120, (25 + 13 * sq5) / 120,
                  (25 + sq5) / 120, (-1 - sq5) / 120],
                 [1 / 12, 5 / 12, 5 / 12, 1 / 12]])
    report("criterion 1 coefficient exactness", worst <= 1e-14,
           f"max closed-form deviation {worst:.2e} (tol 1e-14)")


def test_criterion_2_exact_energy_balance():
    """Per-step stored increment equals supplied energy for diagonal-mass
    schemes: forced oscillator and nonlinear rigid body."""
    worst = 0.0
    for s in (1, 2, 3):
        scheme = coll.make_scheme("gauss", s)
        traj = simulate(oscillator(), scheme, X0, pulse_input(), 0.1, 18.0)
        worst = max(worst, float(np.max(np.abs(traj.dh_bar - traj.supplied))))
        traj = simulate(rigid_body(), scheme, np.array([1.0, 1.0, 1.0]),
                        zero_input(0), 0.01, 100.0)
        worst = max(worst, float(np.max(np.abs(traj.dh_bar - traj.supplied))))
    report("criterion 2 exact balance", worst <= 1e-12,
           f"max per-step |dH_bar - h y'u| = {worst:.2e} (tol 1e-12, "
           f"3 schemes x {{oscillator 180 steps, rigid body 10^4 steps}})")


def test_criterion_3_convergence_orders_lossless():
    """Total-energy error slopes 2/4/6 (diagonal-mass) and 4/6 (pair) on the
    default step-size grid."""
    lines = []
    ok = True
    for kind, s, p in CONVERGENCE_CASES:
        pts_t, pts_b = [], []
        for h in H_GRID:
            rep = lossless_eps(kind, s, h)
            pts_t.append((h, rep.eps_tilde))
            pts_b.append((h, rep.eps_bar))
        st = order_fit(pts_t)
        sb = order_fit(pts_b)
        ok = ok and abs(st - p) <= 0.3 and abs(sb - p) <= 0.3
        lines.append(f"{kind}-s{s}: {st:.2f}/{sb:.2f} (target {p})")
    report("criterion 3 convergence orders", ok, "; ".join(lines))


def test_criterion_4_consistent_nonexact_balance():
    """Pair scheme on the separated oscillator: supplied and stored totals
    differ, and their gap shrinks at fourth order."""
    pm = partitioned_oscillator()
    scheme = coll.make_scheme("lobatto", 3)
    pts = []
    for h in H_GRID:
        traj = simulate(pm, scheme, X0, pulse_input(), h, 18.0)
        pts.append((h, abs(float(traj.dh_bar.sum() - traj.dh_tilde.sum()))))
    gap_h05 = pts[0][1]
    slope = order_fit(pts)
    ok = gap_h05 > 1e-12 and 3.6 <= slope <= 4.6
    report("criterion 4 consistent balance", ok,
           f"|dH_bar_tot - dH_tilde_tot| at h=0.5: {gap_h05:.2e} (> 1e-12), "
           f"gap slope {slope:.3f} (band [3.6, 4.6])")


def test_criterion_5_local_energy_error_order():
    """Single-step stored-energy error from the exact state scales as h^(p+1)
    for every scheme.

    Experiment: damped free oscillator from the 10x-amplified exact initial
    state (energies scale quadratically, lifting the asymptotic part of the
    high-order error curves above the rounding floor); per-scheme geometric
    h-grids place the errors between ~1e-8 and ~3e-12.
    """
    model = oscillator()
    fb = FeedbackConfig(r=0.1, mode="stagewise")
    amp = 10.0
    x0u, _ = reference_solution(DAMPED_FREE, 0.0, r=0.1)

    def gap(scheme, h):
        x1u, h1u = reference_solution(DAMPED_FREE, h, r=0.1)
        x0 = amp * x0u
        x_end = solve_stages(model, scheme, x0, zero_input(), 0.0, h,
                             feedback=fb).x_end
        dh_bar = model.H(x_end) - model.H(x0)
        h0u = 0.5 * float(x0u @ x0u)
        return abs(dh_bar - amp * amp * (h1u - h0u))

    lines = []
    ok = True
    for kind, s in ALL_SCHEMES:
        scheme = coll.make_scheme(kind, s)
        p1 = scheme.order + 1
        h = 2.6
        while h > 0.02 and gap(scheme, h) > 1e-8:
            h *= 0.85
        ratio = (3e-12 / gap(scheme, h)) ** (1.0 / (5 * p1))
        pts = [(hk, gap(scheme, hk)) for hk in (h * ratio**k for k in range(6))]
        slope = order_fit(pts)
        ok = ok and abs(slope - p1) <= 0.3
        lines.append(f"{kind}-s{s}: {slope:.2f}/{p1}")
    report("criterion 5 local energy-error order", ok, "; ".join(lines))


def test_criterion_6_dissipative_case():
    """Damped oscillator keeps the criterion-3 slopes; port-level feedback is
    passive step by step."""
    lines = []
    ok = True
    for kind, s, p in CONVERGENCE_CASES:
        pts_t, pts_b = [], []
        for h in H_GRID:
            rep = damped_eps(kind, s, h)
            pts_t.append((h, rep.eps_tilde))
            pts_b.append((h, rep.eps_bar))
        st = order_fit(pts_t)
        sb = order_fit(pts_b)
        ok = ok and abs(st - p) <= 0.3 and abs(sb - p) <= 0.3
        lines.append(f"{kind}-s{s}: {st:.2f}/{sb:.2f} (target {p})")
    worst_gain = -np.inf
    for kind, s, _ in CONVERGENCE_CASES:
        scheme = coll.make_scheme(kind, s)
        fb = FeedbackConfig(r=0.1, mode="portlevel")
        traj = simulate(oscillator(), scheme, X0, zero_input(), 0.1, 10.0,
                        feedback=fb)
        worst_gain = max(worst_gain, float(traj.dh_tilde.max()))
    ok = ok and worst_gain <= 1e-14
    report("criterion 6 dissipative case", ok,
           "; ".join(lines) + f"; portlevel max dH_tilde {worst_gain:.2e}")


def test_criterion_7_structure_suite():
    """Power residual and kernel skew defect vanish on the two sanctioned
    paths; the unsupported combination is detected."""
    worst_power = 0.0
    worst_skew = 0.0

    def run_case(model, scheme, x0, signal, h, steps):
        nonlocal worst_power, worst_skew
        x = x0
        for k in range(steps):
            sol = solve_stages(model, scheme, x, signal, k * h, h)
            J, _ = assemble_blocks(model, sol.stage_x, scheme)
            scale = max(1.0, h * np.linalg.norm(sol.e) * np.linalg.norm(sol.f))
            worst_power = max(worst_power,
                              abs(power_residual(sol, scheme)) / scale)
            worst_skew = max(worst_skew, kernel_check(J, scheme.M))
            x = sol.x_end

    xr = np.array([1.0, 1.0, 1.0])
    for s in (1, 2, 3):
        run_case(rigid_body(), coll.make_scheme("gauss", s), xr,
                 zero_input(0), 0.1, 10)
    for kind, s in ALL_SCHEMES:
        run_case(oscillator(), coll.make_scheme(kind, s), X0,
                 pulse_input(), 0.1, 5)

    # deliberate violation: non-diagonal mass with state-dependent structure
    scheme = coll.make_scheme("lobatto", 3)
    sol = solve_stages(rigid_body(), scheme, xr, zero_input(0), 0.0, 0.5)
    violation = abs(power_residual(sol, scheme))
    ok = worst_power <= 1e-12 and worst_skew <= 1e-12 and violation > 1e-6
    report("criterion 7 structure suite", ok,
           f"max power residual {worst_power:.2e}, max skew {worst_skew:.2e} "
           f"(tol 1e-12); violation case residual {violation:.2e} (> 1e-6)")


def test_criterion_8_property_suite():
    """The structural invariants hold across the catalogue: reconstruction,
    dense output, quadrature, pair condition, invariant signatures, unit
    step-map determinant."""
    ok = True
    details = []

    recon_worst = 0.0
    dense_worst = 0.0
    quad_worst = 0.0
    pair_worst = 0.0
    for kind, s in ALL_SCHEMES:
        scheme = coll.make_scheme(kind, s)
        sol = solve_stages(oscillator(), scheme, X0, pulse_input(), 8.2, 0.2)
        recon = sol.x0[None, :] - sol.h * (scheme.A @ sol.f)
        recon_worst = max(recon_worst, float(np.max(np.abs(sol.stage_x - recon))))
        from phint.integrator import dense_eval
        dense_worst = max(dense_worst,
                          float(np.max(np.abs(dense_eval(sol, scheme, 0.0) - sol.x0))),
                          float(np.max(np.abs(dense_eval(sol, scheme, 1.0) - sol.x_end))))
        for i, ci in enumerate(scheme.c):
            dense_worst = max(dense_worst, float(np.max(np.abs(
                dense_eval(sol, scheme, ci) - sol.stage_x[i]))))
        degree = 2 * s - 1 if kind == "gauss" else 2 * s - 3
        for k in range(degree + 1):
            quad_worst = max(quad_worst,
                             abs(float(scheme.b @ scheme.c**k) - 1.0 / (k + 1)))
        if kind == "lobatto":
            pair_worst = max(pair_worst, coll.symplectic_pair_residual(scheme))
        qres = coll.quadratic_invariant_residual(scheme)
        if kind == "gauss":
            ok = ok and qres < 1e-14
        else:
            ok = ok and qres > 1e-3
    ok = (ok and recon_worst <= 1e-13 and dense_worst <= 1e-13
          and quad_worst <= 1e-13 and pair_worst <= 1e-13)
    details.append(f"reconstruction {recon_worst:.1e}, dense {dense_worst:.1e}, "
                   f"quadrature {quad_worst:.1e}, pair {pair_worst:.1e}")

    # one-step map determinant for the pair
    pm = partitioned_oscillator()
    scheme = coll.make_scheme("lobatto", 3)
    h, delta = 0.3, 1e-5
    jac = np.empty((2, 2))
    for k in range(2):
        xp, xm = X0.copy(), X0.copy()
        xp[k] += delta
        xm[k] -= delta
        fp = solve_stages(pm, scheme, xp, zero_input(), 0.0, h).x_end
        fm = solve_stages(pm, scheme, xm, zero_input(), 0.0, h).x_end
        jac[:, k] = (fp - fm) / (2 * delta)
    det = float(np.linalg.det(jac))
    ok = ok and abs(det - 1.0) <= 1e-9
    details.append(f"pair step-map det {det:.12f}")
    report("criterion 8 property suite", ok, "; ".join(details))
