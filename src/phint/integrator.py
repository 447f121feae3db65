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
from .dirac import discrete_output, stage_flows
from .energy import delta_h_bar, delta_h_tilde, supplied_energy
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


def _stage_tableau(model, scheme) -> np.ndarray:
    """sn x sn tableau of the stacked stage states: A (x) I_n, or A on the q
    rows and A_hat on the p rows of every stage of a separable model."""
    if model.n_q is None:
        return np.kron(scheme.A, np.eye(model.n))
    on_q = (np.arange(model.n) < model.n_q).astype(float)
    return (np.kron(scheme.A, np.diag(on_q))
            + np.kron(scheme.A_hat, np.diag(1.0 - on_q)))


class _Stepper:
    """Set-up shared by both stage solvers: the exogenous signal and the
    output feedback u = w - r G'(K e), with K = I_s (stagewise) or M
    (portlevel), K = None without damping."""

    def __init__(self, model, scheme, input_signal, h, feedback, cfg):
        self.model, self.scheme, self.h, self.cfg = model, scheme, h, cfg
        self.n, self.s, self.m = model.n, scheme.s, model.m
        self.signal = feedback.v if feedback is not None else input_signal
        if self.signal is None:
            self.signal = zero_input(self.m)
        self.r = 0.0 if feedback is None or self.m == 0 else feedback.r
        self.K = None
        if self.r > 0.0:
            self.K = np.eye(self.s) if feedback.mode == STAGEWISE else scheme.M

    def _inputs(self, t0):
        """Stage samples w of the exogenous signal (u, or v under feedback)."""
        if self.m == 0:
            return np.zeros((self.s, 0))
        h, sig = self.h, self.signal
        w = [sig(t0 + ci * h) for ci in self.scheme.c]
        return np.array(w).reshape(self.s, self.m)

    def _flows(self, e, J, G, w):
        """Stage inputs u and flows f of efforts e under structure J, G."""
        u = w if self.K is None else w - self.r * discrete_output(self.K, G, e)
        return u, stage_flows(J, G, e, u)

    def _solution(self, x0, t0, stage_x, e, J, G, w, **solver) -> StageSolution:
        u, f = self._flows(e, J, G, w)
        x_end = x0 - self.h * (self.scheme.b @ f)
        y = discrete_output(self.scheme.M, G, e)
        return StageSolution(t0=t0, h=self.h, x0=x0, stage_x=stage_x, f=f, e=e,
                             u=u, y=y, x_end=x_end, **solver)


class _LinearStepper(_Stepper):
    """Direct stage solve for linear models with constant J and G."""

    def __init__(self, *args):
        super().__init__(*args)
        model, scheme, n, s = self.model, self.scheme, self.n, self.s
        probe = np.zeros(n)
        self.Jc = model.J(probe)
        self.Gc = model.G(probe)
        self.Q = model.Q
        Is = np.eye(s)
        # stacked drift -f = D X + (I_s (x) G) w of the stage states X
        D = np.kron(Is, self.Jc @ self.Q)
        if self.K is not None:
            D -= self.r * np.kron(self.K, self.Gc @ self.Gc.T @ self.Q)
        T = _stage_tableau(model, scheme)
        self.mat_inv = np.linalg.inv(np.eye(s * n) - self.h * (T @ D))
        self.AkG = self.h * (T @ np.kron(Is, self.Gc))

    def step(self, x0, t0) -> StageSolution:
        w = self._inputs(t0)
        X = self.mat_inv @ (np.tile(x0, self.s) + self.AkG @ w.ravel())
        stage_x = X.reshape(self.s, self.n)
        return self._solution(x0, t0, stage_x, stage_x @ self.Q.T,
                              self.Jc, self.Gc, w)


class _NewtonStepper(_Stepper):
    """Newton iteration on the stacked stage states, FD Jacobian."""

    def _structure(self, stage_x):
        """Efforts and stacked J, G at the stage states (G is not evaluated
        on a portless model)."""
        model = self.model
        e = np.array([model.gradH(x) for x in stage_x])
        J = np.array([model.J(x) for x in stage_x])
        G = (np.array([model.G(x) for x in stage_x]) if self.m
             else np.zeros((self.n, 0)))
        return e, J, G

    def _residual(self, X, x0, w):
        stage_x = X.reshape(self.s, self.n)
        e, J, G = self._structure(stage_x)
        _, f = self._flows(e, J, G, w)
        Af = self.scheme.A @ f
        n_q = self.model.n_q
        if n_q is not None:
            Af[:, n_q:] = self.scheme.A_hat @ f[:, n_q:]
        return (stage_x - x0[None, :] + self.h * Af).ravel()

    def step(self, x0, t0) -> StageSolution:
        s, n = self.s, self.n
        w = self._inputs(t0)
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
        return self._solution(x0, t0, stage_x, *self._structure(stage_x), w,
                              iterations=it, residual=res)


def _make_stepper(model, scheme, input_signal, h, feedback, cfg):
    if model.n_q is not None and scheme.A_hat is None:
        raise ConfigurationError("separable (q, p) models require a Lobatto pair")
    if cfg.method == "auto" and model.Q is not None and model.constant_structure:
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
    per-step energy triple (dH_tilde, dH_bar, supplied).  A state or energy
    that turns non-finite raises SolverDivergenceError with the index of the
    first such step."""
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
    # overflow is reported below with its step index, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(N):
            t0 = k * h
            try:
                sol = stepper.step(x, t0)
            except SolverDivergenceError as err:
                err.step_index = k
                raise
            dh_tilde[k] = delta_h_tilde(sol, scheme)
            dh_bar[k] = delta_h_bar(model, x, sol.x_end)
            supplied[k] = supplied_energy(sol)
            if retain_stages:
                retained.append(sol)
            x = sol.x_end
            states[k + 1] = x
    # state row k + 1 and energy row k both belong to step k
    bad = np.concatenate([
        np.flatnonzero(~np.isfinite(states).all(axis=1)) - 1,
        np.flatnonzero(~np.isfinite([dh_tilde, dh_bar, supplied]).all(axis=0))])
    if bad.size:
        raise SolverDivergenceError("state or energy is not finite",
                                    step_index=int(bad.min()))
    return Trajectory(scheme_label=scheme.label, model_name=model.name,
                      h=h, times=np.arange(N + 1) * h, states=states,
                      dh_tilde=dh_tilde, dh_bar=dh_bar, supplied=supplied,
                      stage_solutions=retained)
