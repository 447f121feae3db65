"""Discrete interconnection structure: block assembly, discrete output,
power residual and the kernel-representation checks, per interval and on the
stacked arrays of a run."""
import numpy as np
import pytest

import phint.collocation as coll
from phint.dirac import (assemble_blocks, discrete_output, drift, kernel_check,
                         power_residual, structure_residual)
from phint.integrator import StageSolution, simulate, solve_stages
from phint.models import (FeedbackConfig, PHModel, oscillator,
                          partitioned_oscillator, pulse_input, rigid_body,
                          zero_input)

from conftest import (DENSE_X0, dense_model, general_kernel_check, stride0_blocks,
                      two_channel_input)

RNG = np.random.default_rng(7)

SCHEMES = ([(coll.GAUSS, s) for s in coll.GAUSS_STAGE_RANGE]
           + [(coll.LOBATTO, s) for s in coll.LOBATTO_STAGE_RANGE])


def oscillator_blocks(scheme):
    model = oscillator()
    states = RNG.normal(size=(scheme.s, model.n))
    return model, assemble_blocks(model, states, scheme)


def dense_kernel_matrix(J, G, M):
    """Oracle: the dense s(n+m) kernel matrix E = [[J M^-1, G], [-G', 0]] of
    one interval, with J and G placed block-diagonally and M^-1 taken of the
    full M (x) I_n."""
    s, n, m = G.shape
    Minv = np.linalg.inv(np.kron(M, np.eye(n)))
    Jblk = np.zeros((s * n, s * n))
    Gblk = np.zeros((s * n, s * m))
    for i in range(s):
        Jblk[i * n:(i + 1) * n, i * n:(i + 1) * n] = J[i]
        Gblk[i * n:(i + 1) * n, i * m:(i + 1) * m] = G[i]
    return np.block([[Jblk @ Minv, Gblk],
                     [-Gblk.T, np.zeros((s * m, s * m))]])



def dense_skew_defect(J, G, M) -> float:
    """Oracle: max |E F' + F E'| with F = I."""
    E = dense_kernel_matrix(J, G, M)
    return float(np.max(np.abs(E + E.T)))


def test_assemble_blocks_shapes_and_errors():
    scheme = coll.make_scheme(coll.GAUSS, 2)
    model, (J, G) = oscillator_blocks(scheme)
    assert J is model.J and G is model.G
    with pytest.raises(ValueError):
        assemble_blocks(model, np.zeros((3, 2)), scheme)
    # a stack of intervals gives one block per stage state, in order
    states = RNG.normal(size=(4, 2, 3))
    J, G = assemble_blocks(rigid_body(), states, scheme)
    assert J.shape == (4, 2, 3, 3) and G.shape == (4, 2, 3, 0)
    assert np.array_equal(J[3, 1], rigid_body().J(states[3, 1]))
    with pytest.raises(ValueError):
        assemble_blocks(rigid_body(), np.zeros((4, 3, 3)), scheme)


def output_weight_and_ports(scheme, weight, stacked):
    """K = M or I_s, and the oscillator's G as one matrix or a stage stack."""
    K = scheme.M if weight == "M" else np.eye(scheme.s)
    G = oscillator().G
    return K, (np.array([G] * scheme.s) if stacked else G)


def _portless_oscillator():
    """The oscillator's constant J without a port: G is the (2, 0) matrix."""
    return PHModel(2, 0, H=lambda x: 0.5 * (x @ x), gradH=np.eye(2),
                   J=np.array([[0.0, 1.0], [-1.0, 0.0]]), G=np.zeros((2, 0)))


def test_assemble_blocks_evaluates_constant_structure_once():
    # a constant structure is its two matrices themselves, whatever the
    # states: there is no J or G callback to evaluate, and no stack to build
    scheme = coll.make_scheme(coll.GAUSS, 3)
    for factory in (oscillator, partitioned_oscillator, dense_model, _portless_oscillator):
        model = factory()
        for states in (RNG.normal(size=(5, 3, model.n)), RNG.normal(size=(3, model.n))):
            J, G = assemble_blocks(model, states, scheme)
            assert J is model.J and G is model.G
        J, G = assemble_blocks(model, RNG.normal(size=(7, model.n)))
        assert J is model.J and G is model.G and G.shape == (model.n, model.m)


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
    J, G = blocks
    s, n, m = scheme.s, J.shape[-1], G.shape[-1]
    e2 = e.reshape(s, n)
    u2 = u.reshape(s, m)
    return StageSolution(t0=0.0, h=h, x0=None, stage_x=None,
                         f=-drift(J, G, e2, u2), e=e2, u=u2,
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
    assert structure_residual(*blocks, bond.f, bond.e, bond.u) < 1e-14
    assert structure_residual(*blocks, bond.f + 1e-3, bond.e, bond.u) > 1e-4


def _matvec_structure_residual(J, G, f, e, u):
    """(f_i + J_i e_i) + G_i u_i by one matvec per stage of the stacks: the
    oracle of the single-matrix GEMM form."""
    res = f + np.matvec(J, e) + np.matvec(G, u)
    return np.max(np.abs(res), axis=(-2, -1), initial=0.0)


@pytest.mark.parametrize("factory,kind,s,mode", [
    (oscillator, coll.GAUSS, s, mode) for s in (1, 2, 4, 8)
    for mode in (None, "portlevel")] + [
    (partitioned_oscillator, coll.LOBATTO, s, "stagewise") for s in (3, 4)] + [
    (rigid_body, coll.GAUSS, 2, None)] + [
    (dense_model, kind, s, mode) for kind, s in SCHEMES
    for mode in (None, "stagewise", "portlevel")])
def test_structure_residual_matches_the_per_stage_products(factory, kind, s, mode):
    # the stacks are applied as given, a constant structure's stride-0 stacks
    # built here too: the per-stage matvec bytes of every interval, the
    # stacked run and each interval alone, also for the dense model, whose
    # products round
    model, scheme = factory(), coll.make_scheme(kind, s)
    signal = {0: zero_input(0), 1: pulse_input(), 2: two_channel_input()}[model.m]
    traj = simulate(model, scheme, RNG.normal(size=model.n), signal, 0.05, 10.0,
                    feedback=None if mode is None else FeedbackConfig(0.1, mode),
                    retain_stages=True)
    sol = traj.stages
    J, G = stride0_blocks(model, sol.stage_x, scheme)
    got = structure_residual(J, G, sol.f, sol.e, sol.u)
    assert got.tobytes() == _matvec_structure_residual(
        J, G, sol.f, sol.e, sol.u).tobytes()
    for k in (0, 99, 199):
        Jk, Gk = stride0_blocks(model, sol.stage_x[k], scheme)
        assert got[k] == structure_residual(Jk, Gk, sol.f[k], sol.e[k], sol.u[k])
    assert np.max(got) <= 1e-13 * max(1.0, np.max(np.abs(sol.f)))


def test_kernel_check_constant_structure():
    scheme = coll.make_scheme(coll.GAUSS, 2)
    _, (J, _) = oscillator_blocks(scheme)
    assert kernel_check(J, scheme.M) <= 1e-12


def test_kernel_check_rigid_body_stages():
    model = rigid_body()
    scheme = coll.make_scheme(coll.GAUSS, 2)
    sol = solve_stages(model, scheme, np.array([1.0, 1.0, 1.0]),
                       zero_input(0), 0.0, 0.1)
    J, _ = assemble_blocks(model, sol.stage_x, scheme)
    assert kernel_check(J, scheme.M) <= 1e-12


def test_kernel_check_flags_violation():
    model = rigid_body()
    scheme = coll.make_scheme(coll.LOBATTO, 3)
    states = np.array([[1.0, 0.2, -0.5], [0.1, 1.3, 0.4], [-0.7, 0.6, 1.1]])
    J, _ = assemble_blocks(model, states, scheme)
    assert kernel_check(J, scheme.M) > 1e-6


@pytest.mark.parametrize("model_name", ["oscillator", "rigid-body"])
@pytest.mark.parametrize("kind,s", SCHEMES, ids=[f"{k}{s}" for k, s in SCHEMES])
def test_kernel_check_matches_dense_oracle(kind, s, model_name):
    # the closed-form defect max_ij |(M^-1)_ij| |J_i + J_j'| against the
    # dense kernel matrix, on random stages over six decades of state scale
    model = oscillator() if model_name == "oscillator" else rigid_body()
    scheme = coll.make_scheme(kind, s)
    rng = np.random.default_rng([s, model.n])
    scales = (1e-3, 1.0, 10.0, 1e3)
    states = np.array([scale * rng.normal(size=(scheme.s, model.n))
                       for scale in scales])
    J, G = stride0_blocks(model, states, scheme)
    factored = kernel_check(J, scheme.M)
    assert factored.shape == (len(scales),)
    for k in range(len(scales)):
        dense = dense_skew_defect(J[k], G[k], scheme.M)
        assert abs(factored[k] - dense) <= 1e-14 * max(1.0, dense)
        assert kernel_check(J[k], scheme.M) == factored[k]
    if model.constant_structure:  # the one matrix gives every interval's value
        assert np.all(kernel_check(model.J, scheme.M) == factored)


def _leaky_oscillator():
    """The oscillator with constant J = [[-0.3, 1], [-1, 0]]: constant
    structure, but J + J' != 0, so the kernel defect is not zero."""
    return PHModel(2, 1, H=lambda x: 0.5 * (x @ x), gradH=np.eye(2),
                   J=np.array([[-0.3, 1.0], [-1.0, 0.0]]), G=np.array([[0.0], [1.0]]))


CHECK_SCHEMES = ([(coll.LOBATTO, s) for s in (3, 4)]
                 + [(coll.GAUSS, s) for s in range(4, 9)])


@pytest.mark.parametrize("factory", [oscillator, _leaky_oscillator])
@pytest.mark.parametrize("kind,s", CHECK_SCHEMES,
                         ids=[f"{k}{s}" for k, s in CHECK_SCHEMES])
def test_kernel_check_of_broadcast_blocks_is_the_contiguous_one(kind, s,
                                                                factory):
    # a constant J broadcast over a run (zero strides) is a stack like any
    # other: its defects are those of a contiguous stack and of the s^2 loop,
    # and each is the one-matrix defect of J itself
    model, scheme = factory(), coll.make_scheme(kind, s)
    states = np.random.default_rng(s).normal(size=(50, scheme.s, model.n))
    J, _ = stride0_blocks(model, states, scheme)
    assert J.strides[0] == 0
    broadcast = kernel_check(J, scheme.M)
    assert broadcast.flags.writeable
    assert np.all(broadcast == kernel_check(model.J, scheme.M))
    assert np.array_equal(broadcast,
                          kernel_check(np.ascontiguousarray(J), scheme.M))
    assert broadcast.tobytes() == general_kernel_check(J, scheme.M).tobytes()
    assert broadcast.shape == (50,)
    two_axes = kernel_check(np.broadcast_to(J[0], (6, 5) + J.shape[1:]), scheme.M)
    assert two_axes.shape == (6, 5) and np.all(two_axes == broadcast[0])


def _constant_structures():
    """One-matrix J: two skew (the oscillator's, the dense model's) and three
    non-skew (the leaky oscillator's, a random 5 x 5 J, and one at 1e300)."""
    rng = np.random.default_rng(33)
    yield oscillator().J
    yield dense_model().J
    yield _leaky_oscillator().J
    yield rng.normal(size=(5, 5))
    yield 1e300 * rng.normal(size=(3, 3))


@pytest.mark.parametrize("kind,s", SCHEMES, ids=[f"{k}{s}" for k, s in SCHEMES])
def test_kernel_check_of_one_matrix_is_the_pair_loop_on_its_stack(kind, s):
    # a constant J is every J_i, so the s^2 loop multiplies the one norm
    # max|J + J'| by each |(M^-1)_ij|; rounding is monotone, so the largest
    # product is max|J + J'| max|M^-1|, the one-matrix value, bit for bit
    M = coll.make_scheme(kind, s).M
    for J in _constant_structures():
        got = kernel_check(J, M)
        assert np.shape(got) == () and np.asarray(got).dtype == np.float64
        for lead in ((), (3,)):
            expect = general_kernel_check(np.broadcast_to(J, lead + (s,) + J.shape), M)
            assert np.asarray(expect).tobytes() == np.full(lead, got).tobytes()
        assert (got == 0.0) == np.array_equal(J, -J.T)


@pytest.mark.parametrize("mode", [None, "portlevel"])
@pytest.mark.parametrize("kind,s", SCHEMES, ids=[f"{k}{s}" for k, s in SCHEMES])
def test_structure_residual_of_the_models_matrices_is_the_one_gemm_form(kind, s, mode):
    # the dense model's J and G come back as themselves, and structure_residual
    # applies each as one GEMM over the rows of the run: (f + J e) + G u by
    # the products the stepper formed its flows f = -(J e + G u) with
    model, scheme = dense_model(), coll.make_scheme(kind, s)
    traj = simulate(model, scheme, DENSE_X0, two_channel_input(), 0.05, 10.0,
                    feedback=None if mode is None else FeedbackConfig(0.1, mode),
                    retain_stages=True)
    sol = traj.stages
    J, G = assemble_blocks(model, sol.stage_x, scheme)
    assert J is model.J and G is model.G

    def gemm(A, x):
        return (x.reshape(-1, A.shape[1]) @ A.T).reshape(x.shape[:-1] + A.shape[:1])

    g = gemm(J, sol.e)
    g += gemm(G, sol.u)
    assert np.array_equal(sol.f, -g)
    res = sol.f + gemm(J, sol.e)
    res += gemm(G, sol.u)
    expect = np.max(np.abs(res), axis=(-2, -1))
    assert structure_residual(J, G, sol.f, sol.e, sol.u).tobytes() == expect.tobytes()


def _non_skew_stacks(s, rng):
    """Random J stacks with J + J' != 0, of one interval and of a run, for n
    = 1 (J_i + J_i' = 2 J_i) to 4 states."""
    for n in (1, 2, 3, 4):
        yield rng.normal(size=(s, n, n))
        yield rng.normal(size=(9, s, n, n))
        yield 1e3 * rng.normal(size=(2, 5, s, n, n))


@pytest.mark.parametrize("kind,s", SCHEMES, ids=[f"{k}{s}" for k, s in SCHEMES])
def test_skew_defect_is_the_general_pair_loop_bit_for_bit(kind, s):
    # C1 (every Gauss M) takes the s pairs (i, i) only; the pairs it skips
    # multiply exact zeros of M^-1, so each defect keeps the s^2 loop's bytes
    M = coll.make_scheme(kind, s).M
    for J in _non_skew_stacks(s, np.random.default_rng([s, len(kind)])):
        got, expect = kernel_check(J, M), general_kernel_check(J, M)
        assert np.shape(got) == J.shape[:-3] and np.all(expect > 0)
        assert np.asarray(got).tobytes() == np.asarray(expect).tobytes()


@pytest.mark.parametrize("s", range(2, 9))
def test_skew_defect_takes_the_pair_loop_unless_m_is_exactly_diagonal(s):
    # J_i skew but J_i != J_j: the pairs (i, i) have zero defect, the others
    # do not, so a result above zero shows that the s^2 loop ran.  A Gauss M
    # with one off-diagonal entry moved by one ulp must take it
    rng = np.random.default_rng(s)
    A = rng.normal(size=(4, s, 3, 3))
    J = 1e300 * (A - np.swapaxes(A, -1, -2))
    M = coll.make_scheme(coll.GAUSS, s).M
    assert np.array_equal(kernel_check(J, M), np.zeros(4))
    moved = M.copy()
    moved[0, -1] = np.nextafter(0.0, 1.0)
    got = kernel_check(J, moved)
    assert np.all(got > 0.0)
    assert got.tobytes() == general_kernel_check(J, moved).tobytes()


def _contiguous_stacks(s, n, rng):
    """Contiguous J stacks of one interval and of runs with one and two
    leading axes: non-skew, skew and a constant J copied to every stage, at
    scales 1, 1e155 and 1e+-300, skew stacks with one NaN or infinite entry
    in the first interval, and integer entries, as a model's J may give."""
    for lead in ((), (7,), (3, 4)):
        for scale in (1.0, 1e155, 1e300, 1e-300):
            A = scale * rng.normal(size=lead + (s, n, n))
            C = scale * rng.normal(size=(n, n))
            yield A
            yield A - np.swapaxes(A, -1, -2)
            yield np.ascontiguousarray(np.broadcast_to(C, A.shape))
            yield np.ascontiguousarray(np.broadcast_to(C - C.T, A.shape))
        for bad in (np.nan, np.inf, -np.inf):
            A = rng.normal(size=lead + (s, n, n))
            A = A - np.swapaxes(A, -1, -2)
            A[(0,) * len(lead) + (s - 1, 0, n - 1)] = bad
            yield A
        yield rng.integers(-9, 10, size=lead + (s, n, n))


@pytest.mark.parametrize("kind,s", SCHEMES, ids=[f"{k}{s}" for k, s in SCHEMES])
def test_kernel_check_of_contiguous_stacks_is_the_pair_loop_bit_for_bit(kind, s):
    # the gather forms only the pairs (i, j) with (M^-1)_ij != 0; the s^2
    # loop multiplies the others by an exact 0, so every defect, its type and
    # its shape are the loop's.  An infinite entry under a diagonal M is the
    # one exception: there the loop's skipped pairs read 0 * inf = NaN and
    # the gather gives the infinite defect of the pairs (i, i)
    M = coll.make_scheme(kind, s).M
    rng = np.random.default_rng([s, len(kind), 24])
    with np.errstate(over="ignore", invalid="ignore"):
        for n in (1, 2, 3, 5):
            for J in _contiguous_stacks(s, n, rng):
                got, expect = kernel_check(J, M), general_kernel_check(J, M)
                assert type(got) is type(expect)
                assert np.shape(got) == np.shape(expect) == J.shape[:-3]
                got, expect = np.asarray(got), np.asarray(expect)
                assert got.dtype == expect.dtype == np.float64
                if kind == coll.GAUSS and s > 1 and np.isinf(J).any():
                    hit = np.isinf(J).any(axis=(-3, -2, -1))
                    assert np.all(np.isnan(expect[hit]))
                    assert np.all(np.isposinf(got[hit]))
                    got, expect = got[~hit], expect[~hit]
                assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("kind,s,other", [(coll.GAUSS, 4, 3), (coll.GAUSS, 4, 5),
                                          (coll.LOBATTO, 3, 2), (coll.LOBATTO, 3, 4)])
def test_kernel_check_rejects_m_of_another_stage_count(kind, s, other):
    # the pairs come from M alone, so an M of other stages would test some
    # of the stages only, or index past them
    M = coll.make_scheme(kind, other).M
    J = np.random.default_rng(s).normal(size=(9, s, 2, 2))
    for stack in (J[0], J, np.broadcast_to(J[0], J.shape)):
        with pytest.raises(ValueError, match=rf"\({s}, {s}\) for {s} stages"):
            kernel_check(stack, M)


@pytest.mark.parametrize("size", [1, 3, 8, 24])
def test_kernel_representation_has_full_row_rank(size):
    # [F E] with F = I: [I E][I E]' = I + E E' >= I, so every singular value
    # is at least 1 and the rank condition of a kernel representation holds
    # for any E; phint check therefore makes no rank test
    rng = np.random.default_rng(size)
    for scale in (1e-3, 1.0, 10.0, 1e2):
        E = scale * rng.normal(size=(size, size))
        sv = np.linalg.svd(np.hstack([np.eye(size), E]), compute_uv=False)
        assert sv.min() >= 1.0 - 1e-12


def test_stacked_checks_match_each_interval():
    # phint check runs the four checks once on the stacked run; every entry
    # equals the check of that interval alone, whose fields are row k of it
    model = rigid_body()
    scheme = coll.make_scheme(coll.LOBATTO, 3)
    traj = simulate(model, scheme, np.array([1.0, 1.0, 1.0]), zero_input(0),
                    0.1, 1.0, retain_stages=True)
    sol = traj.stages
    J, G = assemble_blocks(model, sol.stage_x, scheme)
    power = power_residual(sol, scheme)
    skew = kernel_check(J, scheme.M)
    struct = structure_residual(J, G, sol.f, sol.e, sol.u)
    assert power.shape == skew.shape == struct.shape == (10,)
    for k, one in enumerate(traj.stage_solutions):
        for name in ("t0", "x0", "stage_x", "f", "e", "u", "y", "x_end"):
            assert np.array_equal(getattr(one, name), getattr(sol, name)[k])
        Jk, Gk = assemble_blocks(model, one.stage_x, scheme)
        assert np.array_equal(J[k], Jk) and np.array_equal(G[k], Gk)
        assert power[k] == power_residual(one, scheme)
        assert skew[k] == kernel_check(Jk, scheme.M)
        assert struct[k] == structure_residual(Jk, Gk, one.f, one.e, one.u)
    assert np.min(skew) > 1e-6


def test_mass_skew_defect_consistent_with_kernel_defect():
    # MJ + (MJ)' equals M (J M^-1 + (J M^-1)') M: conjugating the kernel
    # defect by the mass matrix reproduces the structure defect
    model = rigid_body()
    scheme = coll.make_scheme(coll.LOBATTO, 3)
    states = RNG.normal(size=(3, 3))
    J, G = assemble_blocks(model, states, scheme)
    s, n = J.shape[:2]
    Mblk = np.kron(scheme.M, np.eye(n))
    Jblk = np.zeros((s * n, s * n))
    for i in range(s):
        Jblk[i * n:(i + 1) * n, i * n:(i + 1) * n] = J[i]
    E11 = dense_kernel_matrix(J, G, scheme.M)[:s * n, :s * n]
    sandwich = Mblk @ (E11 + E11.T) @ Mblk
    direct = Mblk @ Jblk + (Mblk @ Jblk).T
    assert np.max(np.abs(sandwich - direct)) < 1e-13
