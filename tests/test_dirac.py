"""Discrete interconnection structure: block assembly, discrete output,
power residual and the kernel-representation checks."""
import numpy as np
import pytest

import phint.collocation as coll
from phint.dirac import (assemble_blocks, discrete_output, kernel_check,
                         power_residual, stage_flows, structure_residual)
from phint.integrator import StageSolution, simulate, solve_stages
from phint.models import oscillator, pulse_input, rigid_body, zero_input

RNG = np.random.default_rng(7)


def oscillator_blocks(scheme):
    model = oscillator()
    states = RNG.normal(size=(scheme.s, model.n))
    return model, assemble_blocks(model, states, scheme)


def test_assemble_blocks_shapes_and_errors():
    scheme = coll.make_scheme(coll.GAUSS, 2)
    model, blocks = oscillator_blocks(scheme)
    assert blocks.s == 2 and blocks.n == 2 and blocks.m == 1
    with pytest.raises(ValueError):
        assemble_blocks(model, np.zeros((3, 2)), scheme)


def output_weight_and_ports(scheme, weight, stacked):
    """K = M or I_s, and the oscillator's G as one matrix or a stage stack."""
    K = scheme.M if weight == "M" else np.eye(scheme.s)
    G = oscillator().G(np.zeros(2))
    return K, (np.array([G] * scheme.s) if stacked else G)


@pytest.mark.parametrize("stacked", [False, True], ids=["constant", "stacked"])
@pytest.mark.parametrize("weight", ["M", "I"])
def test_discrete_output_single_stage(weight, stacked):
    # s=1: M = I_1 = [1], so y is just g' e
    scheme = coll.make_scheme(coll.GAUSS, 1)
    K, G = output_weight_and_ports(scheme, weight, stacked)
    e = np.array([[0.3, -1.2]])
    assert discrete_output(K, G, e).ravel() == pytest.approx([-1.2])


@pytest.mark.parametrize("stacked", [False, True], ids=["constant", "stacked"])
@pytest.mark.parametrize("weight", ["M", "I"])
def test_discrete_output_mass_weighted(weight, stacked):
    # 3-stage Lobatto: y_1 = 2/15 e_p1 + 1/15 e_p2 - 1/30 e_p3, etc.;
    # K = I_s gives the stagewise outputs e_pi
    scheme = coll.make_scheme(coll.LOBATTO, 3)
    K, G = output_weight_and_ports(scheme, weight, stacked)
    e = RNG.normal(size=(3, 2))
    ep = e[:, 1]
    y = discrete_output(K, G, e)
    M = np.array([[2 / 15, 1 / 15, -1 / 30],
                  [1 / 15, 8 / 15, 1 / 15],
                  [-1 / 30, 1 / 15, 2 / 15]])
    expect = M @ ep if weight == "M" else ep
    assert y.shape == (3, 1)
    assert np.allclose(y.ravel(), expect, atol=1e-14)


def consistent_bond(blocks, scheme, e, u, h):
    """Interval whose flows and output are generated from the stage structure
    equation at the given efforts and inputs."""
    s, n, m = blocks.s, blocks.n, blocks.m
    J, G = np.array(blocks.J_blocks), np.array(blocks.G_blocks)
    e2 = e.reshape(s, n)
    u2 = u.reshape(s, m)
    return StageSolution(t0=0.0, h=h, x0=None, stage_x=None,
                         f=stage_flows(J, G, e2, u2), e=e2, u=u2,
                         y=discrete_output(scheme.M, G, e2), x_end=None)


@pytest.mark.parametrize("kind,s", [(coll.GAUSS, 1), (coll.GAUSS, 3),
                                    (coll.LOBATTO, 2), (coll.LOBATTO, 3)])
def test_power_residual_vanishes_for_constant_structure(kind, s):
    # constant J: the balance holds for any scheme and any efforts
    scheme = coll.make_scheme(kind, s)
    _, blocks = oscillator_blocks(scheme)
    e = RNG.normal(size=scheme.s * 2)
    u = RNG.normal(size=scheme.s * 1)
    h = 0.37
    bond = consistent_bond(blocks, scheme, e, u, h)
    scale = max(1.0, h * np.linalg.norm(e) * np.linalg.norm(bond.f))
    assert abs(power_residual(bond, scheme)) <= 1e-13 * scale


def test_power_residual_vanishes_for_diagonal_mass():
    # state-dependent J with a diagonal-mass scheme
    model = rigid_body()
    scheme = coll.make_scheme(coll.GAUSS, 2)
    states = RNG.normal(size=(2, 3))
    blocks = assemble_blocks(model, states, scheme)
    e = RNG.normal(size=6)
    bond = consistent_bond(blocks, scheme, e, np.zeros(0), 0.25)
    assert abs(power_residual(bond, scheme)) <= 1e-13


def test_power_residual_detects_violation():
    # state-dependent J with a non-diagonal mass matrix breaks the balance
    model = rigid_body()
    scheme = coll.make_scheme(coll.LOBATTO, 3)
    states = np.array([[1.0, 0.2, -0.5], [0.1, 1.3, 0.4], [-0.7, 0.6, 1.1]])
    blocks = assemble_blocks(model, states, scheme)
    e = RNG.normal(size=9)
    bond = consistent_bond(blocks, scheme, e, np.zeros(0), 0.25)
    assert abs(power_residual(bond, scheme)) > 1e-6


def test_power_residual_is_the_simulated_balance_gap():
    # phint check's residual and simulate's energy columns come from the same
    # formulas, so they agree bit for bit, also where the balance fails
    # (Lobatto-3 on the state-dependent rigid-body structure)
    scheme = coll.make_scheme(coll.LOBATTO, 3)
    traj = simulate(rigid_body(), scheme, np.array([1.0, 1.0, 1.0]),
                    zero_input(0), 0.1, 2.0, retain_stages=True)
    gaps = np.array([power_residual(sol, scheme)
                     for sol in traj.stage_solutions])
    assert np.max(np.abs(gaps)) > 1e-11
    assert np.array_equal(traj.supplied - traj.dh_tilde, gaps)


def test_structure_residual_roundtrip():
    scheme = coll.make_scheme(coll.GAUSS, 2)
    model, blocks = oscillator_blocks(scheme)
    e = RNG.normal(size=4)
    u = RNG.normal(size=2)
    bond = consistent_bond(blocks, scheme, e, u, 0.1)
    assert structure_residual(blocks, bond.f, e, u) < 1e-14
    assert structure_residual(blocks, bond.f + 1e-3, e, u) > 1e-4


def test_kernel_check_constant_structure():
    scheme = coll.make_scheme(coll.GAUSS, 2)
    _, blocks = oscillator_blocks(scheme)
    skew, rank_ok = kernel_check(blocks)
    assert skew <= 1e-12
    assert rank_ok


def test_kernel_check_rigid_body_stages():
    model = rigid_body()
    scheme = coll.make_scheme(coll.GAUSS, 2)
    sol = solve_stages(model, scheme, np.array([1.0, 1.0, 1.0]),
                       zero_input(0), 0.0, 0.1)
    blocks = assemble_blocks(model, sol.stage_x, scheme)
    skew, rank_ok = kernel_check(blocks)
    assert skew <= 1e-12
    assert rank_ok


def test_kernel_check_flags_violation():
    model = rigid_body()
    scheme = coll.make_scheme(coll.LOBATTO, 3)
    states = np.array([[1.0, 0.2, -0.5], [0.1, 1.3, 0.4], [-0.7, 0.6, 1.1]])
    blocks = assemble_blocks(model, states, scheme)
    skew, _ = kernel_check(blocks)
    assert skew > 1e-6


def test_mass_skew_defect_consistent_with_kernel_defect():
    # MJ + (MJ)' equals M (J M^-1 + (J M^-1)') M: conjugating the kernel
    # defect by the mass matrix reproduces the structure defect
    model = rigid_body()
    scheme = coll.make_scheme(coll.LOBATTO, 3)
    states = RNG.normal(size=(3, 3))
    blocks = assemble_blocks(model, states, scheme)
    s, n = blocks.s, blocks.n
    Mblk = np.kron(scheme.M, np.eye(n))
    Jblk = np.zeros((s * n, s * n))
    for i in range(s):
        Jblk[i * n:(i + 1) * n, i * n:(i + 1) * n] = blocks.J_blocks[i]
    E11 = Jblk @ np.linalg.inv(Mblk)
    sandwich = Mblk @ (E11 + E11.T) @ Mblk
    direct = Mblk @ Jblk + (Mblk @ Jblk).T
    assert np.max(np.abs(sandwich - direct)) < 1e-13
