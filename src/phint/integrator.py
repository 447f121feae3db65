"""Implicit stage solvers and the fixed-step simulation loop.

Sign convention throughout: flows are f = -xdot, so stage updates read
x_i = x0 - h sum_j a_ij f_j.

Both stage solvers solve one set of stage equations, X = 1 (x) x0 + h A g,
with the drift g = J e + G u = -f: A on every state, or, for a separable
(q, p) model under a Lobatto scheme, the IIIA matrix A on the q rows and the
IIIB matrix A_hat on the p rows (a partitioned Runge-Kutta method).  A run
samples its inputs in one call.  A model with gradH = Q x and constant
structure advances by one affine recurrence, built from one evaluation of the
stage equations on the unit stage states and inputs and evaluated by a
doubling scan in log2(N) array passes, with no Python loop over the steps,
plus one pass that adds up the per-step increments as the per-step loop does
(models above SCAN_MAX_N states keep that loop).  Every other model goes
through simplified Newton iteration on the stacked stage states, one interval
at a time, with a finite-difference iteration matrix and start values carried
from the previous interval, writing each step into preallocated run arrays
(rigid body, h = 0.01, 100 steps: 49, 49, 42 and 47 us/step for Gauss 1-4
from (1, 1, 1), 105-186 from (100, 100, 100), shared 2-core host).  Both record u
and f = -g from their one drift evaluation (_drift, a constant J and G as
matrices) at the accepted stages; only y takes a second stacked pass.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from functools import cached_property, lru_cache

import numpy as np

from .dirac import _dot_t, _stack_blocks, discrete_output, drift, efforts
from .energy import delta_h_bar, delta_h_tilde, supplied_energy
from .errors import ConfigurationError, ReadOnly, SolverDivergenceError
from .models import STAGEWISE, _check_finite

# Newton stops once max|R| <= TOL, and reports a divergence after MAX_ITER
# residual evaluations of one attempt; continuation in h gives up on a step
# once its increment of the fraction of h falls below MIN_THETA_STEP
TOL, MAX_ITER, SQRT_EPS = 1e-12, 50, math.sqrt(np.finfo(float).eps)
MIN_THETA_STEP = 2.0 ** -10


class StageSolution(ReadOnly):
    """Discrete flows, efforts, inputs and states of one sampling interval:
    stage_x, f and e are (s, n), u and y (s, m), y the discrete output with
    rows G_i' (M e)_i; iterations counts the Newton residual evaluations
    (finite-difference columns excluded), builds the finite-difference
    Jacobian builds.  vars() lists the fields in this order."""

    def __init__(self, t0: float, h: float, x0, stage_x, f, e, u, y, x_end,
                 iterations: int = 0, residual: float = 0.0, builds: int = 0):
        vars(self).update(t0=t0, h=h, x0=x0, stage_x=stage_x, f=f, e=e, u=u, y=y,
                          x_end=x_end, iterations=iterations, residual=residual,
                          builds=builds)


class Trajectory:
    """States (N+1, n) at the times (N+1,), the per-step increments
    dh_tilde and dh_bar and the supplied energy h (y^k)' u^k (N,) each, and
    the stacked StageSolution of the intervals when retained."""

    def __init__(self, times, states, dh_tilde, dh_bar, supplied, stages=None):
        self.times, self.states, self.dh_tilde = times, states, dh_tilde
        self.dh_bar, self.supplied, self.stages = dh_bar, supplied, stages

    @cached_property
    def stage_solutions(self) -> Sequence:
        """The retained intervals, each built from stages when indexed."""
        return [] if self.stages is None else _Intervals(self.stages)


class _Intervals(Sequence):
    """Interval k of a stacked run as a StageSolution of views, built when k
    is indexed; its scalars (t0, h, iterations, residual) as Python numbers."""

    def __init__(self, stages: StageSolution):
        N, self.names = len(stages.t0), list(vars(stages))
        self.cols = [c if c.ndim > 1 else c.tolist() if c.ndim else [c.item()] * N
                     for c in map(np.asarray, vars(stages).values())]

    def __len__(self):
        return len(self.cols[0])

    def __getitem__(self, k):
        return list(self)[k] if isinstance(k, slice) else self._view([c[k] for c in self.cols])

    def __iter__(self):
        return map(self._view, zip(*self.cols))

    def _view(self, row):
        # the fields StageSolution.__init__ sets, without the call
        view = object.__new__(StageSolution)
        view.__dict__.update(zip(self.names, row))
        return view


class _Stepper:
    """The stage equations X = 1 (x) x0 + h A g of both stage solvers, with
    the drift g = J e + G u = -f of the signal w (u, or v under feedback) and
    the feedback u = w - r G'(K e), K = I_s (stagewise) or M (portlevel),
    K = None without damping; M and K as their diagonals under C1.  A acts
    on every state, or, for a separable (q, p) model under a Lobatto pair, A
    on the q rows and A_hat on the p rows.  run(x0, t0) returns the states
    (N+1, n) and the stacked StageSolution of the intervals starting at t0;
    x[tile] is np.tile(x, s)."""

    def __init__(self, model, scheme, input_signal, h, feedback):
        self.model, self.scheme, self.h, self.signal = model, scheme, h, input_signal
        self.n, self.s, self.m = model.n, scheme.s, model.m
        self.n_q = model.n_q if scheme.A_hat is not None else None
        if feedback is not None and self.m == 0:
            raise ConfigurationError("feedback requires a model with a port")
        self.r = 0.0 if feedback is None else feedback.r
        self.M, self.K = scheme.M.diagonal() if scheme.c1 else scheme.M, None
        if self.r > 0.0:
            self.K = np.ones(self.s) if feedback.mode == STAGEWISE else self.M

    eye = cached_property(lambda self: np.eye(self.s * self.n))
    tile = cached_property(lambda self: np.arange(self.s * self.n) % self.n)

    def _inputs(self, t0):
        """Stage samples w (N, s, m) of the signal on the intervals starting
        at t0 (N,): one signal call, whose width must be the model's m."""
        w = self.signal(t0[:, None] + self.scheme.c * self.h)
        if w.shape[-1] != self.m:
            port = f"{self.m} input channels" if self.m else "no input port"
            raise ConfigurationError(f"input signal has {w.shape[-1]} channels; "
                                     f"model {self.model.name!r} has {port}")
        return w

    def _drift(self, stage_x, w):
        """Efforts, G, inputs u and drift g at stage states (..., s, n) under
        the stage signals w (..., s, m); G is one matrix under C2."""
        e = efforts(self.model, stage_x)
        J, G = _stack_blocks(self.model, stage_x)
        u = w if self.K is None else w - self.r * discrete_output(self.K, G, e)
        return e, G, u, drift(J, G, e, u if self.m else None)

    def _stage_sum(self, g):
        """h A g of the drift g (..., s, n), A_hat on the p rows of a pair."""
        hAg = self.scheme.A.dot(g) if g.ndim == 2 else self.scheme.A @ g
        if self.n_q is not None:
            hAg[..., self.n_q:] = self.scheme.A_hat @ g[..., self.n_q:]
        hAg *= self.h
        return hAg

    def _solution(self, t0, states, stage_x, e, G, u, g, **solver) -> StageSolution:
        """The run's intervals from the bond pass of its stage states: the
        flows f = -g in the drift's place and the output y (empty, portless)."""
        y = discrete_output(self.M, G, e) if self.m else np.empty(u.shape)
        return StageSolution(t0=t0, h=self.h, x0=states[:-1], stage_x=stage_x,
                             f=np.negative(g, out=g), e=e, u=u, y=y,
                             x_end=states[1:], **solver)


class _LinearStepper(_Stepper):
    """Affine recurrence for linear models with constant J and G: the stage
    states are X = S x0 + T w and the step is x+ = x0 + (Delta x0 + Gamma w),
    with the maps built once per configuration and the steps by a doubling scan."""

    def __init__(self, model, scheme, input_signal, h, feedback):
        super().__init__(model, scheme, input_signal, h, feedback)
        # a configuration in the memo takes its read-only maps, a build's bytes
        entry = 8 * self.n * ((self.s + 1) * (self.n + self.s * self.m) + 2 * self.n + self.m)
        key = self.n <= SCAN_MAX_N and entry * MAPS_MEMO_SIZE <= MAPS_MEMO_BYTES and (
            scheme, type(h), h, type(self.r), self.r, getattr(feedback, "mode", None),
            self.n, self.m, self.n_q, *[A.tobytes() for A in (model.Q, model.J, model.G)])
        maps = _maps_memo.pop(key, None) or self._build()
        if key:
            _maps_memo[key] = maps  # the most recently used last
            if len(_maps_memo) > MAPS_MEMO_SIZE:
                del _maps_memo[next(iter(_maps_memo))]
        self.S, self.T, self.Delta, self.Gamma = maps

    def _build(self):
        n, s, sn = self.n, self.s, self.s * self.n
        # the stage equations are affine in (X, w): row k of g and h A g is
        # their response to unit k of the stacked stage states X (w = 0),
        # then of the inputs w (X = 0), so after the transpose
        # X = 1 (x) x0 + h A g reads (I - hAg_X) X = 1 (x) x0 + hAg_w w
        rows = sn + s * self.m
        g = self._drift(np.eye(rows, sn).reshape(rows, s, n),
                        np.eye(rows, s * self.m, -sn).reshape(rows, s, self.m))[3]
        hAg = self._stage_sum(g).reshape(rows, sn).T
        ST = np.linalg.solve(self.eye - hAg[:, :sn], np.hstack([np.eye(n)[self.tile], hAg[:, sn:]]))
        # x+ - x0 = h (b' (x) I) g, kept as an increment: a step matrix
        # I + Delta rounds away the O(h) part Delta x0 at every step
        hbg = self.h * (self.scheme.b @ g).T
        maps = (ST[:, :n], ST[:, n:], hbg[:, :sn].dot(ST[:, :n]),
                hbg[:, :sn].dot(ST[:, n:]) + hbg[:, sn:])
        return tuple(a.setflags(write=False) or a for a in maps)

    def run(self, x0, t0):
        w = self._inputs(t0)
        wf = w.reshape(len(t0), -1)
        states = _affine_states(self.Delta, x0, _dot_t(wf, self.Gamma))
        X = _dot_t(states[:-1], self.S)
        X += _dot_t(wf, self.T)
        stage_x = X.reshape(len(t0), self.s, self.n)
        return states, self._solution(t0, states, stage_x,
                                      *self._drift(stage_x, w))


# largest state dimension advanced by the doubling scan.  Its log2(N) passes
# over all N rows replace N per-step Python overheads: on mass-spring chains
# at N = 1000 (2-core x86-64 host, one BLAS thread) the scan took 4.9 ms at
# n = 64, against 5.6 for chunks of sqrt(N) steps and 6.7 for the per-step
# loop, and tied the loop at n = 128; longer runs favour the loop (N = 8000,
# n = 64: 49 against 36 ms)
SCAN_MAX_N = 64
# _LinearStepper's maps of the last MAPS_MEMO_SIZE configurations (n <= SCAN_MAX_N),
# 8 (s + 1) n (n + s m) bytes of maps and 8 n (2n + m) of key an entry; one above
# MAPS_MEMO_BYTES / MAPS_MEMO_SIZE is not kept, so the memo holds MAPS_MEMO_BYTES at most
MAPS_MEMO_SIZE, MAPS_MEMO_BYTES, _maps_memo = 128, 2 ** 26, {}


def _affine_states(Delta, x0, drive) -> np.ndarray:
    """States (N+1, n) of x_{k+1} = x_k + (Delta x_k + drive_k) from x0.  Up
    to SCAN_MAX_N states, a doubling scan over v = (x0, drive_0 .. drive_N-2):
    after the pass with P = (I + Delta)^m - I, v_k is the state that steps
    k - 2m .. k - 1 reach from zero (x_k itself once k < 2m), so
    ceil(log2(N)) passes leave x_0 .. x_N-1 in v.  Those states give the
    increments Delta x_k + drive_k, which one cumulative sum adds up as the
    per-step loop does; the scanned states alone round each x_k on its own,
    which does not cancel in x_{k+1} - x_k (the mean balance residual
    |dH_bar - h y'u| of Gauss 1-6 pulse runs grew 4.3x).  Larger states
    take the per-step loop."""
    N, n = drive.shape
    if n > SCAN_MAX_N:
        states = [x0]
        for d in drive:
            states.append(states[-1] + (Delta.dot(states[-1]) + d))
        return np.array(states)
    v = np.concatenate([x0[None], drive[:-1]])
    P, m = Delta, 1
    while m < N:
        if m > 1:
            P = P + (P + P.dot(P))
        # v[:-m] + (v[:-m] P' + v[m:]) with two fewer temporaries
        t = _dot_t(v[:-m], P)
        t += v[m:]
        t += v[:-m]
        v[m:] = t
        m *= 2
    return np.cumsum(np.concatenate([x0[None], _dot_t(v, Delta) + drive]), axis=0)


class _NewtonStepper(_Stepper):
    """Simplified Newton iteration on the stacked stage states with a
    finite-difference Jacobian, one interval at a time.  The inverted
    iteration matrix is carried across steps, and a step starts from the
    previous interval's collocation polynomial at its nodes; if that warm
    attempt fails, the step restarts from x0 with a fresh Jacobian, and if
    that cold attempt fails too, it is reached by continuation in h (_cold).
    A step's x0 reaches its attempts tiled, x0t = x0[tile]."""
    fd_eye = None  # fd I of the step, None until its first build

    def _residual(self, X, x0t, w):
        """Residuals (stage_x - x0) - h A g (..., s n) of stage states X (..., s n)."""
        stage_x = X.reshape(X.shape[:-1] + (self.s, self.n))
        hAg = self._stage_sum(self._drift(stage_x, w)[3]).reshape(X.shape)
        return np.subtract(X - x0t, hAg, out=hAg)

    def _rebuild(self, X, R, x0t, w):
        """Invert the finite-difference Jacobian of the residual at X: its
        column k is row k of the residuals of the stacked guesses X + fd I,
        fd = SQRT_EPS (1 + |x0|) and fd I formed on the step's first build."""
        if self.fd_eye is None:
            self.fd_step = SQRT_EPS * (1.0 + math.sqrt(x0t[:self.n].dot(x0t[:self.n])))
            self.fd_eye = self.fd_step * self.eye
        Rp = self._residual(X + self.fd_eye, x0t, w)
        try:
            self.inv = np.linalg.inv(((Rp - R) / self.fd_step).T)
        except np.linalg.LinAlgError:
            raise SolverDivergenceError("stage Jacobian is singular") from None

    def _newton(self, X, x0t, w, warm):
        """Iterate from X with the carried matrix, rebuilt when the residual
        contracts by less than a factor 0.1; a warm attempt gives up when its
        second residual does not halve.  Counts residual evaluations and
        builds in self.iterations, self.builds; returns stages and residual."""
        res = math.inf
        for it in range(MAX_ITER):
            R = self._residual(X, x0t, w)
            self.iterations += 1
            a = np.abs(R)  # max|R| by argmax: np.maximum.reduce's value, NaN too, faster
            prev, res = res, a.item(a.argmax())
            if res <= TOL:
                # the last correction needs no further residual evaluation
                return (X if self.inv is None else X - self.inv.dot(R)), res
            if not math.isfinite(res) or (warm and it == 1 and res > 0.5 * prev):
                raise SolverDivergenceError("stage iteration diverges", residual=res)
            if self.inv is None or res > 0.1 * prev:
                self.builds += 1
                self._rebuild(X, R, x0t, w)
            X = X - self.inv.dot(R)
        raise SolverDivergenceError(
            f"stage equations did not converge below {TOL} "
            f"in {MAX_ITER} iterations", residual=res)

    def _cold(self, x0t, w):
        """Stages and residual of the step from x0 by continuation in h: the
        stage equations with theta h for h, solved for theta up to exactly 1,
        each from the last theta's stages with the matrix carried (fresh at
        the start and after a failure).  Theta's increment starts at
        self.theta_step, 1 (the cold attempt itself) or, after a run's first
        failed cold attempt, 1/2; it doubles after a success, halves after a
        failure, and the step fails once it is below MIN_THETA_STEP."""
        h, X, theta, step, self.inv = self.h, x0t, 0.0, self.theta_step, None
        try:
            while theta < 1.0:
                step = min(step, 1.0 - theta)
                self.h = (theta + step) * h
                try:
                    X, res = self._newton(X, x0t, w, warm=False)
                    theta, step = theta + step, 2.0 * step
                except SolverDivergenceError as err:
                    step, self.inv, self.theta_step = 0.5 * step, None, 0.5
                    if step < MIN_THETA_STEP:
                        raise SolverDivergenceError(
                            f"{err}; continuation in h reached {theta:g} of h",
                            residual=err.residual) from None
        finally:
            self.h = h
        return X, res

    def run(self, x0, t0):
        w = self._inputs(t0)
        N, s, n = len(t0), self.s, self.n
        states, stage_x, e = np.empty((N + 1, n)), np.empty((N, s, n)), np.empty((N, s, n))
        u, g = np.empty((N, s, self.m)), np.empty((N, s, n))
        its, builds, res = np.empty(N, dtype=int), np.empty(N, dtype=int), np.empty(N)
        # y needs a state-dependent G of every step; a constant G is one
        # matrix, which the product applies to every step
        G = np.empty((N, s, n, self.m)) if self.m and not self.model.constant_structure else None
        # E[i, j] = int_0^{1 + c_i} l_j carries the polynomial to the next nodes
        E = dense_weights(self.scheme, 1.0 + self.scheme.c).T
        states[0] = x = x0
        guess, self.inv, self.theta_step, h, b = None, None, 1.0, self.h, self.scheme.b
        for k, wk in enumerate(w):
            x0t, self.iterations, self.builds, self.fd_eye = x[self.tile], 0, 0, None
            try:
                if guess is not None:
                    try:
                        X, res[k] = self._newton(guess, x0t, wk, warm=True)
                    except SolverDivergenceError:
                        guess = None
                if guess is None:
                    X, res[k] = self._cold(x0t, wk)
            except SolverDivergenceError as err:
                err.step_index = k
                raise
            its[k], builds[k] = self.iterations, self.builds
            stage_x[k] = X = X.reshape(s, n)
            e[k], Gk, u[k], gk = self._drift(X, wk)
            g[k] = gk
            if G is not None:
                G[k] = Gk
            # x - h E f and x - h b'f with f = -g
            guess = (x + h * E.dot(gk)).ravel()
            states[k + 1] = x = x + h * b.dot(gk)
        return states, self._solution(t0, states, stage_x, e, Gk if G is None else G, u, g,
                                      iterations=its, residual=res, builds=builds)


def _make_stepper(model, scheme, input_signal, h, feedback):
    """The affine recurrence for a model with gradH = Q x and constant
    structure, Newton iteration for any other."""
    linear = model.Q is not None and model.constant_structure
    return (_LinearStepper if linear else _NewtonStepper)(
        model, scheme, input_signal, h, feedback)


def _initial_state(model, x0) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.n,):
        raise ConfigurationError(f"x0 must have {model.n} entries, got shape {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise ConfigurationError(f"x0 must be finite, got {x0}")
    return x0


def solve_stages(model, scheme, x0, input_signal, t0, h,
                 feedback=None) -> StageSolution:
    """Solve the implicit stage equations of one sampling interval: the
    one-interval run of the stepper simulate uses."""
    _check_finite("step size h", h, positive=True)
    _check_finite("t0", t0)
    x0 = _initial_state(model, x0)
    stepper = _make_stepper(model, scheme, input_signal, h, feedback)
    _, sol = stepper.run(x0, np.array([float(t0)]))
    return _Intervals(sol)[0]


def dense_weights(scheme, tau) -> np.ndarray:
    """The integrals int_0^tau l_j, shape (s,) + shape(tau), of a float or an
    array tau (two or more axes taken flat) in double precision: sum_k W[j, k]
    P_k(2 tau - 1), P_k by (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}."""
    tau = tau if isinstance(tau, float) else np.asarray(tau).astype(float, casting="same_kind")
    x = 2.0 * tau - 1.0
    p = [x ** 0, x]
    for k in range(1, scheme.s):
        p.append(((2 * k + 1) * x * p[k] - k * p[k - 1]) / (k + 1))
    return scheme.W.dot(p) if getattr(x, "ndim", 0) < 2 else np.tensordot(scheme.W, p, 1)


# dense_eval's weights of the last DENSE_MEMO_SIZE (scheme, float(tau)) keys
DENSE_MEMO_SIZE = 256
_memo_weights = lru_cache(maxsize=DENSE_MEMO_SIZE)(dense_weights)


def dense_eval(sol: StageSolution, scheme, tau: float) -> np.ndarray:
    """Collocation polynomial x(t0 + tau h) = x0 - h sum_j f_j int_0^tau l_j.
    Under a Lobatto pair every row follows the IIIA polynomial, so the p rows
    meet x0 and x_end but not their stages: IIIB is not a collocation method."""
    tau = tau if isinstance(tau, float) else np.asarray(tau).astype(float, casting="same_kind")
    if getattr(tau, "ndim", 0) or not 0.0 <= tau <= 1.0:  # one real number, in double precision
        raise ValueError("tau must lie in [0, 1]")
    w = _memo_weights(scheme, float(tau))  # a stacked f stays on matmul: per-interval bytes
    return sol.x0 - sol.h * (w.dot(sol.f) if sol.f.ndim == 2 else w @ sol.f)


def _step_count(h, t_end) -> int:
    """N = t_end / h rounded, when that is finite, at least 1 and within 1e-9 N of an integer."""
    n_float = t_end / h
    N = int(round(n_float)) if math.isfinite(n_float) else 0
    if N < 1 or abs(n_float - N) > 1e-9 * N:
        raise ConfigurationError(f"t_end/h = {n_float} is not an integer step count")
    return N


def simulate(model, scheme, x0, input_signal, h, t_end,
             feedback=None, retain_stages: bool = False) -> Trajectory:
    """Run N = t_end / h fixed steps, chaining intervals and recording the
    per-step energy triple (dH_tilde, dH_bar, supplied).  A state or energy
    that turns non-finite raises SolverDivergenceError with the index of the
    first such step."""
    _check_finite("step size h", h, positive=True)
    _check_finite("t_end", t_end, positive=True)
    N = _step_count(h, t_end)
    x = _initial_state(model, x0)
    stepper = _make_stepper(model, scheme, input_signal, h, feedback)
    # overflow is reported below with its step index, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        states, sol = stepper.run(x, np.arange(N) * h)
        dh_tilde = delta_h_tilde(sol, scheme)
        dh_bar = delta_h_bar(model, states)
        supplied = supplied_energy(sol)
    if not all(np.isfinite(a).all() for a in (states, dh_tilde, dh_bar, supplied)):
        # state row k + 1 and energy row k both belong to step k
        bad = np.concatenate([
            np.flatnonzero(~np.isfinite(states).all(axis=1)) - 1,
            np.flatnonzero(~np.isfinite([dh_tilde, dh_bar, supplied]).all(axis=0))])
        raise SolverDivergenceError("state or energy is not finite",
                                    step_index=int(bad.min()))
    return Trajectory(times=np.arange(N + 1) * h, states=states,
                      dh_tilde=dh_tilde, dh_bar=dh_bar, supplied=supplied,
                      stages=sol if retain_stages else None)
