"""Model catalogue: energies, gradients, structure maps, inputs, feedback."""
import re

import numpy as np
import pytest

import phint.collocation as coll
from phint.errors import ConfigurationError
from phint.models import (FeedbackConfig, InputSignal, PHModel, _cross_matrix,
                          mechanical, oscillator, partitioned_oscillator,
                          pulse_input, rigid_body, zero_input)

RNG = np.random.default_rng(42)


def fd_grad(H, x, delta=1e-6):
    g = np.empty_like(x)
    for k in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[k] += delta
        xm[k] -= delta
        g[k] = (H(xp) - H(xm)) / (2 * delta)
    return g


@pytest.mark.parametrize("factory", [oscillator, partitioned_oscillator,
                                     rigid_body])
def test_gradients_match_finite_differences(factory):
    model = factory()
    for _ in range(5):
        x = RNG.normal(size=model.n)
        assert np.max(np.abs(model.Q @ x - fd_grad(model.H, x))) < 1e-8


@pytest.mark.parametrize("factory", [oscillator, rigid_body])
def test_structure_map_is_skew(factory):
    model = factory()
    for _ in range(5):
        x = RNG.normal(size=model.n)
        J = model.J if model.constant_structure else model.J(x)
        assert np.max(np.abs(J + J.T)) == 0.0


def test_oscillator_basics():
    model = oscillator()
    x = np.array([0.3, -0.4])
    assert model.H(x) == pytest.approx(0.125)
    assert np.allclose(model.Q @ x, x)
    assert np.allclose(model.J, [[0, 1], [-1, 0]])
    assert model.G.shape == (2, 1)
    assert model.G.T @ model.Q @ x == pytest.approx(-0.4)
    assert model.constant_structure and model.Q is not None


def test_rigid_body_flags_and_energy():
    model = rigid_body()
    assert model.m == 0 and not model.constant_structure and model.Q is not None
    x = np.array([1.0, 1.0, 1.0])
    assert model.H(x) == pytest.approx(0.5 * (1 + 0.5 + 1 / 3))
    # the structure map moves with the state
    assert not np.allclose(model.J(x), model.J(2 * x))


def test_cross_matrix_is_the_literal_matrix():
    # bit for bit, the sign of every zero included: -x_i of a zero x_i is
    # -0.0 off the diagonal, and the diagonal is +0.0 for any x
    rng = np.random.default_rng(7)
    xs = rng.choice([0.0, -0.0, 1.0], size=(200, 3)) * rng.normal(size=(200, 3))
    for x in xs:
        literal = np.array([[0.0, -x[2], x[1]],
                            [x[2], 0.0, -x[0]],
                            [-x[1], x[0], 0.0]])
        J = _cross_matrix(x)
        assert np.array_equal(J, literal)
        assert np.array_equal(np.signbit(J), np.signbit(literal))
        y = rng.normal(size=3)
        rounding = 4 * np.finfo(float).eps * np.linalg.norm(x) * np.linalg.norm(y)
        assert np.max(np.abs(rigid_body().J(x) @ y - np.cross(x, y))) <= rounding
    assert np.signbit(xs).any() and (xs == 0.0).any() and (xs < 0.0).any()


def test_partitioned_oscillator_matches_full_form():
    pm = partitioned_oscillator()
    x = np.array([0.7, -0.2])
    assert pm.H(x) == pytest.approx(oscillator().H(x))
    assert np.allclose(pm.Q @ x, [0.7, -0.2])
    assert np.allclose(pm.J, [[0, 1], [-1, 0]])
    assert np.allclose(pm.G, [[0.0], [1.0]])
    assert pm.n == 2 and pm.n_q == 1 and pm.m == 1
    assert pm.constant_structure and pm.Q is not None
    assert oscillator().n_q is None


def test_partitioned_model_validation():
    with pytest.raises(ConfigurationError):
        mechanical(np.array([[-1.0]]), np.eye(1), np.eye(1))
    with pytest.raises(ConfigurationError):
        mechanical(np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2), np.eye(2))
    with pytest.raises(ConfigurationError):
        mechanical(np.eye(2), np.eye(3), np.eye(2))
    with pytest.raises(ConfigurationError):
        mechanical(np.eye(2), np.eye(2), np.ones((3, 1)))


@pytest.mark.parametrize("n_q", [-1, 0, 2, 5, True, 1.0])
def test_position_count_must_split_the_state(n_q):
    # a 2-state oscillator has one position: n_q must be an integer in [1, 2)
    make = lambda k: PHModel(2, 1, H=lambda x: 0.5 * (x @ x), gradH=np.eye(2),
                             J=np.array([[0.0, 1.0], [-1.0, 0.0]]),
                             G=np.array([[0.0], [1.0]]), n_q=k)
    assert make(1).n_q == make(np.int64(1)).n_q == 1 and make(None).n_q is None
    with pytest.raises(ConfigurationError, match=r"n = 2\b"):
        make(n_q)


@pytest.mark.parametrize("n,m,bad", [
    (2.5, 1, "n"), ("2", 1, "n"), (True, 1, "n"), (np.True_, 1, "n"), (0, 1, "n"),
    (-2, 1, "n"), (2, -1, "m"), (2, 1.0, "m"), (2, False, "m"), (2, None, "m")], ids=repr)
def test_state_and_port_counts_must_be_integers(n, m, bad):
    # 2.5 and "2" built a 2-state model, True a 1-state one, n = 0 simulated
    # an empty state, and m = -1 failed only inside simulate
    value, low = (n, 1) if bad == "n" else (m, 0)
    match = f"^{bad} must be an integer >= {low}, got {re.escape(repr(value))}$"
    with pytest.raises(ConfigurationError, match=match):
        PHModel(n, m, H=lambda x: 0.0, gradH=lambda x: x,
                J=lambda x: np.zeros((2, 2)), G=lambda x: np.zeros((2, 1)))
    model = PHModel(np.int64(2), np.int64(0), H=lambda x: 0.0, gradH=lambda x: x,
                    J=lambda x: np.zeros((2, 2)), G=lambda x: np.zeros((2, 0)))
    assert (model.n, model.m) == (2, 0) and type(model.n) is type(model.m) is int


def _with_q(Q, n=2):
    return PHModel(n, 1, H=lambda x: 0.5 * (x @ x),
                   gradH=(lambda x: x) if Q is None else Q,
                   J=np.zeros((n, n)), G=np.ones((n, 1)))


@pytest.mark.parametrize("Q,match", [
    ([[1.0, np.nan], [np.nan, 1.0]], "finite"),
    ([[np.inf, 0.0], [0.0, 1.0]], "finite"),
    (np.eye(3), r"shape \(2, 2\)"),
    (np.ones(2), r"shape \(2, 2\)"),
    ([[1.0, 0.5], [0.5 + 1e-15, 1.0]], "symmetric"),
    ([[1.0, 1.0], [0.0, 1.0]], "symmetric")])
def test_energy_matrix_validation(Q, match):
    # the stored-energy increment 1/2 (x+ - x)' Q (x+ + x) is H(x+) - H(x)
    # only for a symmetric Q
    with pytest.raises(ConfigurationError, match=match):
        _with_q(Q)
    assert np.array_equal(_with_q([[2, 1], [1, 2]]).Q, [[2.0, 1.0], [1.0, 2.0]])
    assert _with_q(None).Q is None


J_OSC, G_OSC = np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([[0.0], [1.0]])


def _oscillator_with(**kwargs):
    args = {"H": lambda x: 0.5 * (x @ x), "gradH": np.eye(2), "J": J_OSC, "G": G_OSC}
    return PHModel(2, 1, **{**args, **kwargs})


@pytest.mark.parametrize("keyword", [{"constant_structure": True},
                                     {"constant_structure": False}, {"Q": np.eye(2)}])
def test_structure_and_q_cannot_be_declared(keyword):
    # C2 and Q follow from the arguments alone, so no declaration can
    # contradict the callbacks (the rigid body's J declared constant was
    # read at the zero state, where it vanishes)
    with pytest.raises(TypeError):
        _oscillator_with(**keyword)
    with pytest.raises(TypeError):
        PHModel(3, 0, H=rigid_body().H, gradH=rigid_body().Q, J=_cross_matrix,
                G=lambda x: np.zeros((3, 0)), **keyword)


def test_constant_structure_and_q_follow_from_the_arguments():
    model = _oscillator_with()
    assert model.constant_structure and model.Q is model.gradH
    assert np.array_equal(model.J, J_OSC) and np.array_equal(model.G, G_OSC)
    fn = _oscillator_with(gradH=lambda x: x, J=lambda x: J_OSC, G=lambda x: G_OSC)
    assert not fn.constant_structure and fn.Q is None
    portless = PHModel(2, 0, H=lambda x: 0.5 * (x @ x), gradH=lambda x: x,
                       J=[[0, 1], [-1, 0]], G=np.zeros((2, 0)))
    assert portless.constant_structure and portless.G.shape == (2, 0)
    assert portless.J.dtype == float


@pytest.mark.parametrize("kwargs,match", [
    ({"J": lambda x: J_OSC}, "J and G must both be .* got a matrix G"),
    ({"G": lambda x: G_OSC}, "J and G must both be .* got a matrix J"),
    ({"J": np.eye(3)}, r"^J must have shape \(2, 2\)"),
    ({"J": J_OSC[0]}, r"^J must have shape \(2, 2\)"),
    ({"G": np.ones((2, 2))}, r"^G must have shape \(2, 1\)"),
    ({"G": np.ones(2)}, r"^G must have shape \(2, 1\)"),
    ({"J": [[0.0, np.nan], [-1.0, 0.0]]}, "^J must be finite"),
    ({"G": [[0.0], [np.inf]]}, "^G must be finite"),
    ({"gradH": [[1.0, np.nan], [np.nan, 1.0]]}, "^gradH as the matrix Q must be finite"),
    ({"gradH": np.eye(3)}, r"^gradH as the matrix Q must have shape \(2, 2\)"),
    ({"gradH": [[1.0, 1.0], [0.0, 1.0]]}, "^gradH as the matrix Q must be symmetric"),
    ({"H": None}, "^H must be callable, got None")])
def test_matrix_arguments_are_validated(kwargs, match):
    # each error names the argument it rejects
    with pytest.raises(ConfigurationError, match=match):
        _oscillator_with(**kwargs)


def test_mechanical_takes_the_symmetric_part():
    # within allclose of symmetric is accepted, and the model's Q is the
    # exactly symmetric part; a symmetric input is kept bit for bit
    K = np.array([[2.0, -1.0], [-1.0 + 1e-12, 2.0]])
    model = mechanical(K, np.eye(2), np.eye(2))
    assert np.array_equal(model.Q, model.Q.T)
    assert np.array_equal(model.Q[:2, :2], 0.5 * (K + K.T))
    sym = RNG.normal(size=(3, 3))
    sym = sym @ sym.T + 3.0 * np.eye(3)
    assert np.array_equal(mechanical(sym, sym, np.eye(3)).Q[:3, :3], sym)


def test_pulse_input_profile():
    u = pulse_input()
    assert u(7.9999999) == pytest.approx(0.0, abs=1e-15)
    assert u(8.0) == pytest.approx(0.0, abs=1e-15)
    assert u(9.0) == pytest.approx(1.0)
    assert u(10.0) == pytest.approx(0.0, abs=1e-15)
    assert u(12.0) == pytest.approx(0.0, abs=1e-15)
    # continuous (and C1) at the switching times
    for t in (8.0, 10.0):
        eps = 1e-7
        assert abs(u(t + eps)[0] - u(t - eps)[0]) < 1e-12


def _where_pulse(t):
    """The pulse as np.where over every sample: the reference for the
    window-only evaluation."""
    on = (8.0 <= t) & (t <= 10.0)
    return np.where(on, np.sin(np.pi * (t - 8.0) / 2.0) ** 2, 0.0)[:, None]


def test_pulse_input_is_the_where_form_bit_for_bit():
    # sin^2 is evaluated only on [8, 10]: the same bytes at the edges, on a
    # stage grid, at random times, at nan and +-inf (zero, without the
    # invalid-value warning of sin(inf)) and on no samples at all
    c = coll.make_scheme(coll.GAUSS, 3).c
    edges = np.array([8.0, 10.0, np.nextafter(8.0, 0.0), np.nextafter(10.0, 11.0),
                      9.0, -0.0, np.nan, np.inf, -np.inf])
    fn = pulse_input().fn
    for t in (edges, (np.arange(3600)[:, None] * 0.005 + 0.005 * c).ravel(),
              np.random.default_rng(8).uniform(-1.0, 20.0, 10_000), np.array([])):
        with np.errstate(invalid="ignore"):
            expect = _where_pulse(t)
        with np.errstate(all="raise"):
            got = fn(t)
        assert got.shape == expect.shape and got.dtype == expect.dtype
        assert got.tobytes() == expect.tobytes()


def test_zero_input_shape():
    z = zero_input(3)
    assert z(5.0).shape == (3,)
    assert np.all(z(5.0) == 0.0)


def test_input_signal_array_contract():
    # fn maps k sample times (k,) to (k, m); a call returns t.shape + (m,)
    u = pulse_input()
    times = np.array([[7.5, 8.5], [9.0, 10.5], [8.0, 10.0]])
    samples = u(times)
    assert samples.shape == (3, 2, 1)
    for t, sample in zip(times.ravel(), samples.reshape(-1, 1)):
        assert np.array_equal(sample, u(t))
    on = (8.0 <= times) & (times <= 10.0)
    expect = np.where(on, np.sin(np.pi * (times - 8.0) / 2.0) ** 2, 0.0)
    assert np.array_equal(samples[..., 0], expect)
    assert zero_input(2)(times).shape == (3, 2, 2)
    assert zero_input(0)(times).shape == (3, 2, 0)
    bad = InputSignal(fn=lambda t: np.zeros(len(t)))
    with pytest.raises(ValueError, match=r"\(2, m\) array"):
        bad(np.array([0.0, 1.0]))


def test_feedback_config_validation():
    FeedbackConfig(r=0.0)
    for r in (-0.1, np.nan, np.inf):
        with pytest.raises(ConfigurationError, match="finite and >= 0"):
            FeedbackConfig(r=r)
    with pytest.raises(ConfigurationError):
        FeedbackConfig(r=0.1, mode="perstep")
    # r is checked once, in __init__, so it cannot be rebound afterwards
    fb = FeedbackConfig(r=0.1, mode="portlevel")
    for name in ("r", "mode"):
        with pytest.raises(AttributeError, match="read-only"):
            setattr(fb, name, -1.0)
        with pytest.raises(AttributeError, match="read-only"):
            delattr(fb, name)
    assert (fb.r, fb.mode) == (0.1, "portlevel")


@pytest.mark.parametrize("r", [True, False, np.True_, "0.1", None, [0.1], 1j], ids=repr)
def test_feedback_gain_must_be_a_real_number(r):
    # True and np.True_ would act as gain 1, and a string or None would fail
    # inside numpy with a bare TypeError
    with pytest.raises(ConfigurationError, match="damping gain r must be a real number"):
        FeedbackConfig(r=r)


def test_feedback_gain_takes_numpy_numbers():
    assert FeedbackConfig(r=np.float64(0.25)).r == 0.25
    assert FeedbackConfig(r=np.int64(2)).r == 2

