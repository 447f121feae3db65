"""Implicit stage solvers and the fixed-step simulation loop.

Sign convention throughout: flows are f = -xdot, so stage updates read
x_i = x0 - h sum_j a_ij f_j.

Both stage solvers use one block tableau: A on every state of a monolithic
model, or, for a separable (q, p) model under a Lobatto scheme, the IIIA
matrix A on the q rows and the IIIB matrix A_hat on the p rows (a partitioned
Runge-Kutta method).  Linear models with constant structure are advanced by
one direct solve of the stage system (the matrix is factored once per run);
everything else goes through Newton iteration on the stacked stage states
with a finite-difference Jacobian.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import collocation as coll
from .errors import ConfigurationError, SolverDivergenceError
from .models import STAGEWISE, zero_input


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-12
    max_iter: int = 50
    method: str = "auto"  # auto | newton

    def __post_init__(self):
        if self.tol <= 0 or self.max_iter < 1:
            raise ConfigurationError("need tol > 0 and max_iter >= 1")
        if self.method not in ("auto", "newton"):
            raise ConfigurationError(f"unknown solver method {self.method!r}")


@dataclass(frozen=True)
class StageSolution:
    """Discrete flows, efforts, inputs and states of one sampling interval."""

    t0: float
    h: float
    x0: np.ndarray
    stage_x: np.ndarray  # (s, n)
    f: np.ndarray        # (s, n)
    e: np.ndarray        # (s, n)
    u: np.ndarray        # (s, m)
    y: np.ndarray        # (s, m) discrete output, rows G_i' (M e)_i
    x_end: np.ndarray
    iterations: int = 0
    residual: float = 0.0


@dataclass
class Trajectory:
    scheme_label: str
    model_name: str
    h: float
    times: np.ndarray
    states: np.ndarray               # (N+1, n)
    dh_tilde: np.ndarray             # (N,)
    dh_bar: np.ndarray               # (N,)
    supplied: np.ndarray             # (N,) h (y^k)' u^k
    stage_solutions: list = field(default_factory=list)


def _input_samples(input_signal, feedback, t0, h, c, m):
    """Stage samples of the exogenous signal (u, or v under feedback)."""
    if m == 0:
        return np.zeros((len(c), 0))
    sig = feedback.v if feedback is not None else input_signal
    if sig is None:
        sig = zero_input(m)
    return np.array([sig(t0 + ci * h) for ci in c]).reshape(len(c), m)


def _stage_tableau(model, scheme) -> np.ndarray:
    """sn x sn tableau of the stacked stage states: A (x) I_n, or A on the q
    rows and A_hat on the p rows of every stage of a separable model."""
    if model.n_q is None:
        return np.kron(scheme.A, np.eye(model.n))
    on_q = (np.arange(model.n) < model.n_q).astype(float)
    return (np.kron(scheme.A, np.diag(on_q))
            + np.kron(scheme.A_hat, np.diag(1.0 - on_q)))


class _LinearStepper:
    """Direct stage solve for linear models with constant J and G."""

    def __init__(self, model, scheme, input_signal, h, feedback, cfg):
        self.model = model
        self.scheme = scheme
        self.input_signal = input_signal
        self.h = h
        self.feedback = feedback
        n, s = model.n, scheme.s
        self.n, self.s = n, s
        probe = np.zeros(n)
        self.Jc = model.J(probe)
        self.Gc = model.G(probe)
        self.Q = model.Q
        Is = np.eye(s)
        # stacked drift -f = D X + (I_s (x) G) w of the stage states X
        D = np.kron(Is, self.Jc @ self.Q)
        r = 0.0 if feedback is None else feedback.r
        if r > 0.0:
            K = Is if feedback.mode == STAGEWISE else scheme.M
            self.K = np.kron(K, self.Gc.T @ self.Q)
            D -= r * np.kron(K, self.Gc @ self.Gc.T @ self.Q)
        else:
            self.K = None
        self.r = r
        T = _stage_tableau(model, scheme)
        self.mat_inv = np.linalg.inv(np.eye(s * n) - h * (T @ D))
        self.AkG = h * (T @ np.kron(Is, self.Gc))

    def step(self, x0, t0) -> StageSolution:
        s, n, h = self.s, self.n, self.h
        w = _input_samples(self.input_signal, self.feedback, t0, h,
                           self.scheme.c, self.model.m)
        rhs = np.tile(x0, s) + self.AkG @ w.ravel()
        X = self.mat_inv @ rhs
        stage_x = X.reshape(s, n)
        e = stage_x @ self.Q.T
        u = w if self.K is None else w - self.r * (self.K @ X).reshape(s, -1)
        f = -(e @ self.Jc.T + u @ self.Gc.T)
        x_end = x0 - h * (self.scheme.b @ f)
        y = (self.scheme.M @ e) @ self.Gc
        return StageSolution(t0=t0, h=h, x0=x0, stage_x=stage_x, f=f, e=e, u=u, y=y, x_end=x_end)


class _NewtonStepper:
    """Newton iteration on the stacked stage states, FD Jacobian."""

    def __init__(self, model, scheme, input_signal, h, feedback, cfg):
        self.model = model
        self.scheme = scheme
        self.input_signal = input_signal
        self.h = h
        self.feedback = feedback
        self.cfg = cfg
        self.n, self.s, self.m = model.n, scheme.s, model.m

    def _stage_efu(self, stage_x, w):
        model, s, m = self.model, self.s, self.m
        e = np.array([model.gradH(x) for x in stage_x])
        Gs = [model.G(x) for x in stage_x]
        if self.feedback is not None and self.feedback.r > 0.0 and m > 0:
            r = self.feedback.r
            if self.feedback.mode == STAGEWISE:
                u = w - r * np.array([Gs[i].T @ e[i] for i in range(s)])
            else:
                Me = self.scheme.M @ e
                u = w - r * np.array([Gs[i].T @ Me[i] for i in range(s)])
        else:
            u = w
        f = np.empty_like(e)
        for i in range(s):
            f[i] = -(self.model.J(stage_x[i]) @ e[i])
            if m > 0:
                f[i] -= Gs[i] @ u[i]
        return e, u, f

    def _residual(self, X, x0, w):
        stage_x = X.reshape(self.s, self.n)
        _, _, f = self._stage_efu(stage_x, w)
        Af = self.scheme.A @ f
        n_q = self.model.n_q
        if n_q is not None:
            Af[:, n_q:] = self.scheme.A_hat @ f[:, n_q:]
        return (stage_x - x0[None, :] + self.h * Af).ravel()

    def step(self, x0, t0) -> StageSolution:
        s, n, h = self.s, self.n, self.h
        w = _input_samples(self.input_signal, self.feedback, t0, h,
                           self.scheme.c, self.m)
        X = np.tile(x0, s)
        tol = self.cfg.tol
        fd_step = np.sqrt(np.finfo(float).eps) * (1.0 + np.linalg.norm(x0))
        res = np.inf
        lu = None
        for it in range(1, self.cfg.max_iter + 1):
            R = self._residual(X, x0, w)
            prev, res = res, float(np.max(np.abs(R)))
            if res <= tol:
                break
            # modified Newton: keep the factored Jacobian while the residual
            # contracts, rebuild when progress stalls
            if lu is None or res > 0.5 * prev:
                Jac = np.empty((s * n, s * n))
                for k in range(s * n):
                    Xp = X.copy()
                    Xp[k] += fd_step
                    Jac[:, k] = (self._residual(Xp, x0, w) - R) / fd_step
                lu = np.linalg.inv(Jac)
            X = X - lu @ R
        else:
            raise SolverDivergenceError(
                f"stage equations did not converge below {tol} "
                f"in {self.cfg.max_iter} iterations", residual=res)
        stage_x = X.reshape(s, n)
        e, u, f = self._stage_efu(stage_x, w)
        x_end = x0 - h * (self.scheme.b @ f)
        Me = self.scheme.M @ e
        y = np.array([self.model.G(stage_x[i]).T @ Me[i] for i in range(s)])
        return StageSolution(t0=t0, h=h, x0=x0, stage_x=stage_x, f=f, e=e,
                             u=u, y=y.reshape(s, self.m), x_end=x_end,
                             iterations=it, residual=res)


def _make_stepper(model, scheme, input_signal, h, feedback, cfg):
    if model.n_q is not None and scheme.A_hat is None:
        raise ConfigurationError("separable (q, p) models require a Lobatto pair")
    if cfg.method == "auto" and model.linear and model.constant_structure:
        return _LinearStepper(model, scheme, input_signal, h, feedback, cfg)
    return _NewtonStepper(model, scheme, input_signal, h, feedback, cfg)


def _initial_state(model, x0) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.n,):
        raise ConfigurationError(f"x0 must have {model.n} entries, got shape {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise ConfigurationError(f"x0 must be finite, got {x0}")
    return x0


def solve_stages(model, scheme, x0, input_signal, t0, h,
                 cfg: SolverConfig | None = None, feedback=None) -> StageSolution:
    """Solve the implicit stage equations of one sampling interval."""
    if h <= 0:
        raise ConfigurationError("step size h must be positive")
    x0 = _initial_state(model, x0)
    cfg = cfg or SolverConfig()
    stepper = _make_stepper(model, scheme, input_signal, h, feedback, cfg)
    return stepper.step(x0, t0)


def step(model, scheme, x0, input_signal, t0, h,
         cfg: SolverConfig | None = None, feedback=None):
    """One integration step; returns (x_end, StageSolution)."""
    sol = solve_stages(model, scheme, x0, input_signal, t0, h, cfg, feedback)
    return sol.x_end, sol


def dense_eval(sol: StageSolution, scheme, tau: float) -> np.ndarray:
    """Collocation polynomial x(t0 + tau h) = x0 - h sum_j f_j int_0^tau l_j."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    weights = coll.lagrange_integral_weights(scheme.c, tau)
    return sol.x0 - sol.h * (weights @ sol.f)


def simulate(model, scheme, x0, input_signal, h, t_end,
             feedback=None, cfg: SolverConfig | None = None,
             retain_stages: bool = False) -> Trajectory:
    """Run N = t_end / h fixed steps, chaining intervals and recording the
    per-step energy triple (dH_tilde, dH_bar, supplied).  A state that turns
    non-finite raises SolverDivergenceError with the index of its step."""
    if h <= 0:
        raise ConfigurationError("step size h must be positive")
    n_float = t_end / h
    N = int(round(n_float))
    if N < 1 or abs(n_float - N) > 1e-9 * max(1.0, N):
        raise ConfigurationError(f"t_end/h = {n_float} is not an integer step count")
    x = _initial_state(model, x0)
    cfg = cfg or SolverConfig()
    stepper = _make_stepper(model, scheme, input_signal, h, feedback, cfg)
    states = np.empty((N + 1, model.n))
    states[0] = x
    dh_tilde = np.empty(N)
    dh_bar = np.empty(N)
    supplied = np.empty(N)
    retained = []
    M = scheme.M
    for k in range(N):
        t0 = k * h
        try:
            sol = stepper.step(x, t0)
        except SolverDivergenceError as err:
            err.step_index = k
            raise
        dh_tilde[k] = -h * float(np.sum((M @ sol.f) * sol.e))
        dh_bar[k] = model.H(sol.x_end) - model.H(x)
        supplied[k] = h * float(np.sum(sol.y * sol.u))
        if retain_stages:
            retained.append(sol)
        x = sol.x_end
        states[k + 1] = x
    bad = np.flatnonzero(~np.isfinite(states).all(axis=1))
    if bad.size:
        raise SolverDivergenceError("state is not finite",
                                    step_index=int(bad[0]) - 1)
    return Trajectory(scheme_label=scheme.label, model_name=model.name,
                      h=h, times=np.arange(N + 1) * h, states=states,
                      dh_tilde=dh_tilde, dh_bar=dh_bar, supplied=supplied,
                      stage_solutions=retained)
