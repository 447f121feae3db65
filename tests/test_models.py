"""Model catalogue: energies, gradients, structure maps, inputs, feedback."""
import numpy as np
import pytest

from phint.errors import ConfigurationError
from phint.models import (FeedbackConfig, closed_loop, mechanical, oscillator,
                          partitioned_oscillator, pulse_input, rigid_body,
                          zero_input)

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
        assert np.max(np.abs(model.gradH(x) - fd_grad(model.H, x))) < 1e-8


@pytest.mark.parametrize("factory", [oscillator, rigid_body])
def test_structure_map_is_skew(factory):
    model = factory()
    for _ in range(5):
        x = RNG.normal(size=model.n)
        J = model.J(x)
        assert np.max(np.abs(J + J.T)) == 0.0


def test_oscillator_basics():
    model = oscillator()
    x = np.array([0.3, -0.4])
    assert model.H(x) == pytest.approx(0.125)
    assert np.allclose(model.gradH(x), x)
    assert np.allclose(model.J(x), [[0, 1], [-1, 0]])
    assert model.G(x).shape == (2, 1)
    assert model.output(x) == pytest.approx(-0.4)
    assert model.constant_structure and model.Q is not None


def test_rigid_body_flags_and_energy():
    model = rigid_body()
    assert model.m == 0 and not model.constant_structure and model.Q is not None
    x = np.array([1.0, 1.0, 1.0])
    assert model.H(x) == pytest.approx(0.5 * (1 + 0.5 + 1 / 3))
    # the structure map moves with the state
    assert not np.allclose(model.J(x), model.J(2 * x))


def test_partitioned_oscillator_matches_full_form():
    pm = partitioned_oscillator()
    x = np.array([0.7, -0.2])
    assert pm.H(x) == pytest.approx(oscillator().H(x))
    assert np.allclose(pm.gradH(x), [0.7, -0.2])
    assert np.allclose(pm.J(np.zeros(2)), [[0, 1], [-1, 0]])
    assert np.allclose(pm.G(x), [[0.0], [1.0]])
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


def test_zero_input_shape():
    z = zero_input(3)
    assert z(5.0).shape == (3,)
    assert np.all(z(5.0) == 0.0)


def test_feedback_config_validation():
    FeedbackConfig(r=0.0)
    with pytest.raises(ConfigurationError):
        FeedbackConfig(r=-0.1)
    with pytest.raises(ConfigurationError):
        FeedbackConfig(r=0.1, mode="perstep")


def test_closed_loop_drift_eigenvalues():
    model = closed_loop(oscillator(), FeedbackConfig(r=0.1))
    drift = model.J(np.zeros(2)) @ model.Q
    eig = np.linalg.eigvals(drift)
    assert np.allclose(sorted(eig.real), [-0.05, -0.05])
    J = model.J(np.zeros(2))
    assert np.max(np.abs(J + J.T)) > 0.0


def test_closed_loop_requires_port_and_stagewise():
    with pytest.raises(ConfigurationError):
        closed_loop(rigid_body(), FeedbackConfig(r=0.1))
    with pytest.raises(ConfigurationError):
        closed_loop(oscillator(), FeedbackConfig(r=0.1, mode="portlevel"))
