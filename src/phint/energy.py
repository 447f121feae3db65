"""Energy bookkeeping: per-step supplied/stored increments, references for the
oscillator experiments, run totals with their relative errors (EnergyReport)
and convergence orders (order_fit, the slope of an error curve)."""
from __future__ import annotations

import math

import numpy as np

from . import dirac
from .errors import ConfigurationError, ReadOnly

ROUNDING_FLOOR = 1e-12

# number of smallest usable step sizes order_fit fits over; see order_fit on
# why the large-h end of an error curve is left out
SLOPE_FIT_TAIL = 5

LOSSLESS_FORCED = "lossless-forced"
DAMPED_FREE = "damped-free"


def delta_h_tilde(sol, scheme):
    """Supplied-energy approximation -h e' (M (x) I) f of one interval, or of
    each interval of a stacked solution.  Under C1 M f is M_ii f_i by rows:
    only zero signs differ from the matmul's, unseen by a sum from +0.0."""
    Mf = scheme.M.diagonal()[:, None] * sol.f if scheme.c1 else scheme.M @ sol.f
    Mf *= sol.e
    return -sol.h * Mf.sum(axis=(-2, -1))


def supplied_energy(sol):
    """h (y^k)' u^k with the discrete output y^k = Gblk' (M (x) I) e^k, of one
    interval or of each interval of a stacked solution."""
    return sol.h * (sol.y * sol.u).sum(axis=(-2, -1))


def delta_h_bar(model, states):
    """Stored-energy increments H(x+) - H(x), evaluated exactly, of the N
    steps of a state sequence (N+1, n).  When gradH = Q x, each increment is
    the quadratic form 1/2 (x+ - x)' Q (x+ + x) (one GEMM and one vecdot for
    the run, blind to a constant in H); otherwise H is evaluated once per
    state."""
    x = np.asarray(states, dtype=float)
    if model.Q is not None:
        return 0.5 * np.vecdot(x[1:] - x[:-1], dirac._dot_t(x[1:] + x[:-1], model.Q))
    H = np.fromiter((model.H(xk) for xk in x), float, len(x))
    return H[1:] - H[:-1]


class EnergyReport(ReadOnly):
    """Total energy increments of one run, with relative errors against a
    reference total when one is available."""

    def __init__(self, dh_tilde_tot: float, dh_bar_tot: float, dh_tot_ref: float | None,
                 eps_tilde: float | None, eps_bar: float | None):
        vars(self).update(dh_tilde_tot=dh_tilde_tot, dh_bar_tot=dh_bar_tot,
                          dh_tot_ref=dh_tot_ref, eps_tilde=eps_tilde, eps_bar=eps_bar)

    @classmethod
    def from_trajectory(cls, traj, reference=None):
        """reference: callable times (k,) -> (states (k, n), H (k,)), called
        once, at the first and last time, for the exact total."""
        dh_tilde_tot = float(traj.dh_tilde.sum())
        dh_bar_tot = float(traj.dh_bar.sum())
        dh_tot_ref = eps_t = eps_b = None
        if reference is not None:
            h_ref = reference(traj.times[[0, -1]])[1]
            dh_tot_ref = float(h_ref[-1] - h_ref[0])
            if dh_tot_ref == 0.0:
                raise ConfigurationError("reference energy increment is zero; "
                                         "pick an experiment with net energy transfer")
            eps_t = (dh_tilde_tot - dh_tot_ref) / dh_tot_ref
            eps_b = (dh_bar_tot - dh_tot_ref) / dh_tot_ref
        return cls(dh_tilde_tot=dh_tilde_tot, dh_bar_tot=dh_bar_tot,
                   dh_tot_ref=dh_tot_ref, eps_tilde=eps_t, eps_bar=eps_b)


# --- closed-form references for the two oscillator experiments -------------
#
# Lossless forced: qdot = p, pdot = -q + u(t), (q, p)(0) = (0, -1), pulse
# input active on [8, 10].  Free rotation outside the pulse; on the pulse the
# particular solution of qddot + q = 1/2 - cos(pi (t-8))/2 is attached.

_OMEGA_P = math.pi
_PART_CONST = 0.5
_PART_COS = -1.0 / (2.0 * (1.0 - _OMEGA_P ** 2))
# free rotation from x(8) = (-sin 8, -cos 8) on the pulse
_C, _S = -math.sin(8.0) - _PART_CONST - _PART_COS, -math.cos(8.0)


def _pulse_state(sg):
    """Lossless state on the pulse, sg = t - 8 in [0, 2]."""
    q = (_C * np.cos(sg) + _S * np.sin(sg)
         + _PART_CONST + _PART_COS * np.cos(_OMEGA_P * sg))
    p = (-_C * np.sin(sg) + _S * np.cos(sg)
         - _PART_COS * _OMEGA_P * np.sin(_OMEGA_P * sg))
    return np.stack([q, p], axis=-1)


def _rotate(x, dt):
    """Free rotation of the state x over the times dt: states (..., 2)."""
    cs, sn = np.cos(dt), np.sin(dt)
    return np.stack([x[0] * cs + x[1] * sn, -x[0] * sn + x[1] * cs], axis=-1)


def _lossless_state(t) -> np.ndarray:
    """States (..., 2) at the times t (...): each branch is evaluated on all
    of t and selected by t < 8, 8 <= t <= 10, t > 10."""
    free, pulse = _rotate((0.0, -1.0), t), _pulse_state(t - 8.0)
    after = _rotate(_pulse_state(2.0), t - 10.0)
    t = t[..., None]
    return np.where(t < 8.0, free, np.where(t <= 10.0, pulse, after))


def _damped_state(t, r: float = 0.1) -> np.ndarray:
    """States (..., 2) of the damped free oscillator at the times t (...)."""
    w = math.sqrt(1.0 - r * r / 4.0)
    damp = np.exp(-r * t / 2.0)
    q = -damp * np.sin(w * t) / w
    p = damp * ((r / (2.0 * w)) * np.sin(w * t) - np.cos(w * t))
    return np.stack([q, p], axis=-1)


def reference_solution(experiment: str, t, r: float = 0.1):
    """Exact states (..., 2) and energies (...) of the named oscillator
    experiment at the times t (a scalar or an array of any shape)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("reference defined for t >= 0")
    if experiment == LOSSLESS_FORCED:
        x = _lossless_state(t)
    elif experiment == DAMPED_FREE:
        if not 0.0 <= r < 2.0:  # the underdamped closed form
            raise ValueError(f"damped reference needs r in [0, 2), got r = {r}")
        x = _damped_state(t, r)
    else:
        raise ConfigurationError(f"unknown experiment {experiment!r}")
    return x, 0.5 * np.vecdot(x, x)


def order_fit(points) -> float:
    """Least-squares slope of log|error| vs log h, a convergence order, from
    (h, error) pairs with distinct finite h > 0 and finite errors; points
    under the rounding floor are dropped, at least 3 must survive, and the fit
    uses only the SLOPE_FIT_TAIL smallest surviving step sizes.  Error curves
    typically bend upward at large h (higher-order terms of the error
    expansion are not negligible there), and restricting the fit to the small-h
    tail keeps those pre-asymptotic points from biasing the slope.
    """
    points = list(points)
    for h, err in points:
        if not (math.isfinite(h) and h > 0.0 and math.isfinite(err)):
            raise ValueError(f"need a finite h > 0 and a finite error, got ({h}, {err})")
    if len({h for h, _ in points}) < len(points):
        raise ValueError("two points share a step size")
    usable = [(h, abs(err)) for h, err in points if abs(err) >= ROUNDING_FLOOR]
    if len(usable) < 3:
        raise ValueError(f"need >= 3 points above the {ROUNDING_FLOOR} rounding "
                         f"floor, have {len(usable)}")
    usable = sorted(usable, key=lambda p: p[0])[:SLOPE_FIT_TAIL]
    log_h = np.log([h for h, _ in usable])
    log_e = np.log([err for _, err in usable])
    return float(np.polyfit(log_h, log_e, 1)[0])
