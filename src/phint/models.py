"""Explicit port-Hamiltonian test systems, input signals and damping feedback.

A model is the quadruple (H, gradH, J, G) over the state: H a callable, each
of gradH, J and G a callable or a constant matrix.  What the discretization
machinery dispatches on follows from which: a matrix gradH is the Q of a linear
gradH = Q x, matrices J and G are a constant structure (condition C2), and a
separable (q, p) model carries the number n_q of position coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, ReadOnly

STAGEWISE = "stagewise"
PORTLEVEL = "portlevel"


class PHModel:
    """Explicit port-Hamiltonian system xdot = J(x) gradH(x) + G(x) u.

    H, gradH, J and G take a float (n,) state and return a float, an (n,), an
    (n, n) and an (n, m) array; gradH is the Q of gradH = Q x instead, and J
    and G together a constant structure, when passed as finite matrices.  u
    has m channels; a model with m = 0 has no port.
    """

    def __init__(self, n, m, H, gradH, J, G, *, name="", n_q=None):
        for arg, value, low in (("n", n, 1), ("m", m, 0)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
                raise ConfigurationError(f"{arg} must be an integer >= {low}, got {value!r}")
        self.n, self.m = int(n), int(m)
        self.H = H
        self.gradH = gradH if callable(gradH) else _matrix(
            "gradH as the matrix Q", gradH, (self.n, self.n), symmetric=True)
        if callable(J) != callable(G):
            raise ConfigurationError("J and G must both be callables or both matrices, "
                                     f"got a matrix {'G' if callable(J) else 'J'}")
        self.J = J if callable(J) else _matrix("J", J, (self.n, self.n))
        self.G = G if callable(G) else _matrix("G", G, (self.n, self.m))
        self.constant_structure = not callable(J)
        self.Q = None if callable(gradH) else self.gradH
        self.name = name
        # separable (q, p) models: the first n_q states are positions, which
        # Lobatto pairs advance with A and the momenta with A_hat
        if n_q is not None and (isinstance(n_q, bool) or not isinstance(n_q, (int, np.integer))
                                or not 1 <= n_q < self.n):
            raise ConfigurationError(f"n_q must be an integer in [1, n), n = {self.n}, got {n_q!r}")
        self.n_q = None if n_q is None else int(n_q)


def _matrix(name, value, shape, symmetric=False) -> np.ndarray:
    """A constant model argument as a finite float array of the given shape,
    exactly symmetric if asked: a Q of gradH = Q x must be, since
    H = x'Qx/2 + const sees only its symmetric part and the stored energy
    increment 1/2 (x+ - x)' Q (x+ + x) needs Q = Q'."""
    A = np.asarray(value, dtype=float)
    if A.shape != shape:
        raise ConfigurationError(f"{name} must have shape {shape}, got {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ConfigurationError(f"{name} must be finite")
    if symmetric and not np.array_equal(A, A.T):
        raise ConfigurationError(f"{name} must be symmetric")
    return A


def _check_finite(name, value, positive=False, low=None):
    """Reject a value that is not a real number (a bool too: True would pass
    as 1), not finite, not positive when positive is set, or below low."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigurationError(f"{name} must be a real number, got {value!r}")
    if not np.isfinite(value) or (positive and value <= 0) or (low is not None and value < low):
        need = ("finite and positive" if positive
                else "finite" if low is None else f"finite and >= {low:g}")
        raise ConfigurationError(f"{name} must be {need}, got {value}")


@dataclass(frozen=True)
class InputSignal:
    """Time function t -> R^m, defined for all t >= 0.  fn is array-valued:
    it maps the k sample times (k,) to the samples (k, m); a call on times of
    any shape returns t.shape + (m,) from one fn call."""

    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        u = np.asarray(self.fn(t.ravel()), dtype=float)
        if u.ndim != 2 or u.shape[0] != t.size:
            raise ValueError(f"input signal must map {t.size} sample times to a "
                             f"({t.size}, m) array, got shape {u.shape}")
        return u.reshape(t.shape + u.shape[1:])


def zero_input(m: int = 1) -> InputSignal:
    return InputSignal(fn=lambda t: np.zeros((len(t), m)))


def pulse_input() -> InputSignal:
    """Pulse excitation: sin^2(pi (t - 8) / 2) on [8, 10], zero elsewhere."""

    def fn(t):  # sin^2 only at the samples on the pulse
        u, on = np.zeros(len(t)), (8.0 <= t) & (t <= 10.0)
        u[on] = np.sin(np.pi * (t[on] - 8.0) / 2.0) ** 2
        return u[:, None]

    return InputSignal(fn=fn)


class FeedbackConfig(ReadOnly):
    """Damping injection u = v - r y, v the run's input signal, realized per
    stage or at the discrete port level (coupling stages through M)."""

    def __init__(self, r: float, mode: str = STAGEWISE):
        _check_finite("damping gain r", r, low=0.0)
        if mode not in (STAGEWISE, PORTLEVEL):
            raise ConfigurationError(f"unknown feedback mode {mode!r}")
        vars(self).update(r=r, mode=mode)


def oscillator() -> PHModel:
    """Unit-parameter harmonic oscillator, state x = (q, p)."""
    return PHModel(2, 1, H=lambda x: 0.5 * (x @ x), gradH=np.eye(2),
                   J=np.array([[0.0, 1.0], [-1.0, 0.0]]), G=np.array([[0.0], [1.0]]),
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
    # symmetric to the allclose tolerance above; the model takes the exactly
    # symmetric part, which leaves an already symmetric matrix bit for bit
    Q, P = 0.5 * (Q + Q.T), 0.5 * (P + P.T)
    if G.shape[0] != n:
        raise ConfigurationError(f"G must have {n} rows")
    Z = np.zeros((n, n))
    J = np.block([[Z, np.eye(n)], [-np.eye(n), Z]])
    Gfull = np.vstack([np.zeros_like(G), G])
    Qfull = np.block([[Q, Z], [Z, P]])
    return PHModel(2 * n, G.shape[1], H=lambda x: 0.5 * (x @ Qfull @ x),
                   gradH=Qfull, J=J, G=Gfull, name=name, n_q=n)


def partitioned_oscillator() -> PHModel:
    """The same oscillator in separated (q, p) form."""
    return mechanical(np.eye(1), np.eye(1), np.eye(1),
                      name="partitioned-oscillator")


_RIGID_BODY_Q = np.diag([1.0, 1.0 / 2.0, 1.0 / 3.0])
_CROSS_INDEX = np.array([[0, 2, 1], [2, 0, 0], [1, 0, 0]])
_CROSS_SIGN = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])


def _cross_matrix(x):
    """[[0, -x2, x1], [x2, 0, -x0], [-x1, x0, 0]] as a gather times signs; the
    product's diagonal (-0.0 for x_i < 0, nan for inf) is reset to 0.0."""
    out = x[_CROSS_INDEX]
    out *= _CROSS_SIGN
    out.ravel()[::4] = 0.0
    return out


def rigid_body() -> PHModel:
    """Free rigid body with principal inertias (1, 2, 3): autonomous, quadratic
    H, genuinely state-dependent interconnection matrix."""
    return PHModel(3, 0,
                   H=lambda x: 0.5 * (x @ _RIGID_BODY_Q @ x),
                   gradH=_RIGID_BODY_Q, J=_cross_matrix,
                   G=lambda x: np.zeros((3, 0)), name="rigid-body")

