"""Explicit port-Hamiltonian test systems, input signals and damping feedback.

A model is the quadruple (H, gradH, J, G) of Eq-free callables over the state,
plus what the discretization machinery dispatches on: whether the
interconnection matrix is constant, the matrix Q of a linear gradH = Q x (None
otherwise) and, for a separable (q, p) model, the number n_q of position
coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError

STAGEWISE = "stagewise"
PORTLEVEL = "portlevel"


class PHModel:
    """Explicit port-Hamiltonian system xdot = J(x) gradH(x) + G(x) u."""

    def __init__(self, n, m, H, gradH, J, G, *, constant_structure,
                 Q=None, name="", n_q=None):
        self.n = int(n)
        self.m = int(m)
        self._H = H
        self._gradH = gradH
        self._J = J
        self._G = G
        self.constant_structure = bool(constant_structure)
        self.Q = None if Q is None else np.asarray(Q, dtype=float)
        self.name = name
        # separable (q, p) models: the first n_q states are positions, which
        # Lobatto pairs advance with A and the momenta with A_hat
        self.n_q = None if n_q is None else int(n_q)

    def H(self, x) -> float:
        return float(self._H(np.asarray(x, dtype=float)))

    def gradH(self, x) -> np.ndarray:
        return np.asarray(self._gradH(np.asarray(x, dtype=float)), dtype=float)

    def J(self, x) -> np.ndarray:
        return np.asarray(self._J(np.asarray(x, dtype=float)), dtype=float)

    def G(self, x) -> np.ndarray:
        return np.asarray(self._G(np.asarray(x, dtype=float)), dtype=float).reshape(self.n, self.m)

    def output(self, x):
        """Collocated continuous-time output y = G(x)^T gradH(x)."""
        return self.G(x).T @ self.gradH(x)


@dataclass(frozen=True)
class InputSignal:
    """Time function t -> R^m, defined for all t >= 0."""

    fn: Callable[[float], np.ndarray]

    def __call__(self, t: float) -> np.ndarray:
        return np.atleast_1d(np.asarray(self.fn(float(t)), dtype=float))


def zero_input(m: int = 1) -> InputSignal:
    return InputSignal(fn=lambda t: np.zeros(m))


def pulse_input() -> InputSignal:
    """Pulse excitation: sin^2(pi (t - 8) / 2) on [8, 10], zero elsewhere."""

    def fn(t):
        if 8.0 <= t <= 10.0:
            return np.array([np.sin(np.pi * (t - 8.0) / 2.0) ** 2])
        return np.array([0.0])

    return InputSignal(fn=fn)


@dataclass(frozen=True)
class FeedbackConfig:
    """Damping injection u = -r y + v, realized either per stage or at the
    discrete port level (coupling stages through the mass matrix)."""

    r: float
    mode: str = STAGEWISE
    v: InputSignal = field(default_factory=zero_input)

    def __post_init__(self):
        if self.r < 0:
            raise ConfigurationError("damping gain r must be >= 0")
        if self.mode not in (STAGEWISE, PORTLEVEL):
            raise ConfigurationError(f"unknown feedback mode {self.mode!r}")


def oscillator() -> PHModel:
    """Unit-parameter harmonic oscillator, state x = (q, p)."""
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    g = np.array([[0.0], [1.0]])
    Q = np.eye(2)
    return PHModel(2, 1,
                   H=lambda x: 0.5 * x @ x,
                   gradH=lambda x: x.copy(),
                   J=lambda x: J, G=lambda x: g,
                   constant_structure=True, Q=Q,
                   name="oscillator")


def mechanical(Q, P, G, name="mechanical") -> PHModel:
    """Linear PH system of simple mechanical type with states x = (q, p):
    qdot = P p, pdot = -Q q + G u, H = (q'Qq + p'Pp)/2.  Lobatto schemes
    integrate it as the IIIA/IIIB pair."""
    Q, P, G = (np.atleast_2d(np.asarray(a, dtype=float)) for a in (Q, P, G))
    n = Q.shape[0]
    for mat, label in ((Q, "Q"), (P, "P")):
        if mat.shape != (n, n) or not np.allclose(mat, mat.T):
            raise ConfigurationError(f"{label} must be symmetric of size {n}")
        try:
            np.linalg.cholesky(mat)
        except np.linalg.LinAlgError:
            raise ConfigurationError(f"{label} must be positive definite") from None
    if G.shape[0] != n:
        raise ConfigurationError(f"G must have {n} rows")
    Z = np.zeros((n, n))
    J = np.block([[Z, np.eye(n)], [-np.eye(n), Z]])
    Gfull = np.vstack([np.zeros_like(G), G])
    Qfull = np.block([[Q, Z], [Z, P]])
    return PHModel(2 * n, G.shape[1],
                   H=lambda x: 0.5 * x @ Qfull @ x,
                   gradH=lambda x: Qfull @ x,
                   J=lambda x: J, G=lambda x: Gfull,
                   constant_structure=True, Q=Qfull,
                   name=name, n_q=n)


def partitioned_oscillator() -> PHModel:
    """The same oscillator in separated (q, p) form, consumed by Lobatto pairs."""
    return mechanical(np.eye(1), np.eye(1), np.eye(1),
                      name="partitioned-oscillator")


_RIGID_BODY_Q = np.diag([1.0, 1.0 / 2.0, 1.0 / 3.0])


def _cross_matrix(x):
    return np.array([[0.0, -x[2], x[1]],
                     [x[2], 0.0, -x[0]],
                     [-x[1], x[0], 0.0]])


def rigid_body() -> PHModel:
    """Free rigid body with principal inertias (1, 2, 3): autonomous, quadratic
    H, genuinely state-dependent interconnection matrix."""
    return PHModel(3, 0,
                   H=lambda x: 0.5 * x @ _RIGID_BODY_Q @ x,
                   gradH=lambda x: _RIGID_BODY_Q @ x,
                   J=_cross_matrix,
                   G=lambda x: np.zeros((3, 0)),
                   constant_structure=False, Q=_RIGID_BODY_Q,
                   name="rigid-body")


def closed_loop(model: PHModel, cfg: FeedbackConfig) -> PHModel:
    """Model with drift (J - R) gradH and input v, where R = r G G'.

    This is the continuous closed loop under stagewise damping injection; the
    returned structure map is no longer skew, so Dirac checks must be run on
    the underlying lossless (J, G).
    """
    if model.m < 1:
        raise ConfigurationError("closed_loop needs a model with at least one port")
    if cfg.mode != STAGEWISE:
        raise ConfigurationError("closed_loop realizes stagewise feedback only")
    r = cfg.r

    def Jcl(x):
        G = model.G(x)
        return model.J(x) - r * (G @ G.T)

    return PHModel(model.n, model.m,
                   H=model.H, gradH=model.gradH, J=Jcl, G=model.G,
                   constant_structure=model.constant_structure, Q=model.Q,
                   name=f"{model.name}-damped", n_q=model.n_q)
