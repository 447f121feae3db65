"""Command-line front end: dump scheme data, run simulations, convergence
sweeps and structure checks.  All numeric output uses 17 significant digits,
',' delimiters and LF line endings, so identical configs give identical files.

Exit codes: 0 success, 2 usage/config, 3 solver failure, 4 structure check failed.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import collocation as coll
from . import dirac, energy
from .errors import ConfigurationError, SolverDivergenceError
from .integrator import _step_count, simulate
from .models import (PORTLEVEL, FeedbackConfig, oscillator,
                     partitioned_oscillator, pulse_input, rigid_body,
                     zero_input)

MODELS = {
    "oscillator": oscillator,
    "partitioned-oscillator": partitioned_oscillator,
    "rigid-body": rigid_body,
}
DEFAULT_X0 = {
    "oscillator": (0.0, -1.0),
    "partitioned-oscillator": (0.0, -1.0),
    "rigid-body": (1.0, 1.0, 1.0),
}
INPUTS = ("pulse", "zero")

DEFAULT_H_LIST = (0.5, 0.25, 0.2, 0.1, 0.05, 0.025, 0.02, 0.01, 0.005)

POWER_TOL = 1e-12
SKEW_TOL = 1e-12


def _fmt(v) -> str:
    return f"{float(v):.17g}"


def _write(path, lines):
    """Lines, each ended by LF, to the file path, or to stdout without one."""
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(path, header, table):
    """A header and the rows of a float table, every value as %.17g."""
    row = ",".join(["%.17g"] * table.shape[1])
    _write(path, [",".join(header), *(row % tuple(r) for r in table.tolist())])


def _floats(flag, text) -> tuple:
    """The comma-separated numbers of a flag's value."""
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ConfigurationError(f"{flag} must be comma-separated numbers, got {text!r}") from None


def _build(args):
    if not (np.isfinite(args.r) and args.r >= 0.0):
        raise ConfigurationError(f"--r must be a finite gain >= 0, got {args.r}")
    if getattr(args, "out", None):  # a missing --out directory fails before any run
        os.stat(os.path.join(os.path.dirname(args.out), "."))
    model = MODELS[args.model]()
    scheme = coll.make_scheme(args.scheme, args.stages)
    x0 = np.array(DEFAULT_X0[args.model] if args.x0 is None
                  else _floats("--x0", args.x0))
    feedback = (FeedbackConfig(r=args.r, mode=args.feedback_mode)
                if args.r > 0.0 else None)
    signal = pulse_input() if args.input == "pulse" else zero_input(model.m)
    return model, scheme, x0, signal, feedback


def _reference_for(args, x0):
    """Closed-form reference, when the configuration matches one of the two
    oscillator experiments (the damped one for r < 2); None otherwise.
    Port-level damping applies u_i = -r (G'(M e))_i, which does not converge
    to the continuous closed loop, so it has no reference."""
    if (args.model not in ("oscillator", "partitioned-oscillator")
            or (args.r > 0.0 and args.feedback_mode == PORTLEVEL)
            or tuple(x0) != (0.0, -1.0)):  # the default x0 of both models
        return None
    if args.r == 0.0 and args.input == "pulse":
        return lambda t: energy.reference_solution(energy.LOSSLESS_FORCED, t)
    if 0.0 < args.r < 2.0 and args.input == "zero":
        r = args.r
        return lambda t: energy.reference_solution(energy.DAMPED_FREE, t, r)
    return None


def cmd_tableau(args) -> int:
    scheme = coll.make_scheme(args.scheme, args.stages)
    rows = []

    def emit(name, value, i="", j=""):
        rows.append((name, str(i), str(j), _fmt(value) if name not in ("order", "c1") else str(value)))

    for name, table in (("c", scheme.c), ("A", scheme.A), ("A_hat", scheme.A_hat),
                        ("b", scheme.b), ("M", scheme.M)):
        for index, value in np.ndenumerate(table if table is not None else []):
            emit(name, value, *(k + 1 for k in index))
    emit("order", scheme.order)
    emit("c1", scheme.c1)
    emit("quadratic_invariant_residual",
         coll.quadratic_invariant_residual(scheme))
    if args.format == "csv":
        lines = [",".join(r) for r in [("name", "i", "j", "value"), *rows]]
    else:
        lines = [f"{name}[{i},{j}] = {val}" if j else
                 (f"{name}[{i}] = {val}" if i else f"{name} = {val}")
                 for name, i, j, val in rows]
    _write(args.out, lines)
    return 0


def cmd_simulate(args) -> int:
    if not args.out:
        raise ConfigurationError("simulate writes two CSVs and needs --out PREFIX")
    model, scheme, x0, signal, feedback = _build(args)
    traj = simulate(model, scheme, x0, signal, args.h, args.t_end,
                    feedback=feedback)
    reference = _reference_for(args, x0)
    times, states = traj.times, traj.states

    # the first port: collocated output y = G(x)' gradH(x) and u = v - r y
    v = y = np.zeros((len(times), 1))
    if model.m:
        _, G = dirac.assemble_blocks(model, states)
        y = np.vecmat(dirac.efforts(model, states), G)
        v = signal(times)
    # H once per state, so that a constant in H shows in the column
    H = np.fromiter((model.H(x) for x in states), float, len(states))
    header = ["t", *(f"x{i+1}" for i in range(states.shape[1])), "u", "y", "H"]
    _write_csv(f"{args.out}_traj.csv", header, np.column_stack(
        [times, states, v[:, 0] - args.r * y[:, 0], y[:, 0], H]))

    header = ["k", "t_k", "dh_tilde", "dh_bar", "supplied"]
    cols = [np.arange(1, len(times)), times[1:], traj.dh_tilde, traj.dh_bar,
            traj.supplied]
    if reference is not None:
        header.append("dh_exact")
        cols.append(np.diff(reference(times)[1]))
    header.append("balance_residual")
    cols.append(np.abs(traj.dh_bar - traj.supplied))
    _write_csv(f"{args.out}_energy.csv", header, np.column_stack(cols))
    return 0


def cmd_converge(args) -> int:
    h_list = (DEFAULT_H_LIST if args.h_list is None
              else _floats("--h-list", args.h_list))
    if not (np.isfinite(args.t_end) and args.t_end > 0.0):
        raise ConfigurationError(f"--t-end must be finite and positive, got {args.t_end}")
    for h in h_list:
        if not (np.isfinite(h) and h > 0.0):
            raise ConfigurationError(f"--h-list entries must be finite and positive, got {h}")
        _step_count(h, args.t_end)  # simulate's grid rule, before any run
    # one set-up for every h, which names a bad --r, input or x0 first
    model, scheme, x0, signal, feedback = _build(args)
    reference = _reference_for(args, x0)
    if reference is None:
        raise ConfigurationError("convergence sweep needs a configuration with "
                                 "a closed-form reference")
    header = ["scheme", "s", "h", "N", "dh_tot_ref", "dh_tilde_tot",
              "dh_bar_tot", "eps_tilde", "eps_bar"]
    rows = []
    points_t, points_b = [], []
    # the reference once per distinct (t0, t_end) pair of the runs' own times
    shared = functools.cache(lambda t0, t1: reference(np.array([t0, t1])))
    for h in h_list:
        traj = simulate(model, scheme, x0, signal, h, args.t_end,
                        feedback=feedback)
        report = energy.EnergyReport.from_trajectory(traj, lambda t: shared(*t))
        rows.append([args.scheme, str(args.stages), _fmt(h),
                     str(len(traj.dh_tilde)), _fmt(report.dh_tot_ref),
                     _fmt(report.dh_tilde_tot), _fmt(report.dh_bar_tot),
                     _fmt(report.eps_tilde), _fmt(report.eps_bar)])
        points_t.append((h, report.eps_tilde))
        points_b.append((h, report.eps_bar))
    slopes = []
    for column, points in (("eps_tilde", points_t), ("eps_bar", points_b)):
        try:
            slopes.append(_fmt(energy.order_fit(points, tail=energy.SLOPE_FIT_TAIL)))
        except ValueError as err:  # the rows are written without a slope row
            _write(args.out, [",".join(r) for r in [header] + rows])
            raise ConfigurationError(f"no {column} slope: {err}; choose --h-list "
                                     "and --t-end with larger errors") from None
    rows.append([args.scheme, str(args.stages), "slope", "", "", "", "", *slopes])
    _write(args.out, [",".join(r) for r in [header] + rows])
    return 0


def _worst(name, values, times) -> str:
    """Step (1-based, as in the energy CSV) and interval of the largest value;
    an all-zero column has no worst step."""
    k = int(np.argmax(values))
    if values[k] == 0.0:
        return f"worst {name}: 0 on every step"
    return (f"worst {name} at step {k + 1} "
            f"(t = {_fmt(times[k])} to {_fmt(times[k + 1])})")


def cmd_check(args) -> int:
    model, scheme, x0, signal, feedback = _build(args)
    traj = simulate(model, scheme, x0, signal, args.h, args.t_end,
                    feedback=feedback, retain_stages=True)
    sol = traj.stages
    J = dirac.assemble_blocks(model, sol.stage_x, scheme)[0]
    e, f = (v.reshape(len(v), -1) for v in (sol.e, sol.f))
    # Frobenius norms as sqrt(x.x), the form np.linalg.norm takes on one interval
    scale = np.maximum(1.0, sol.h * np.sqrt(np.vecdot(e, e))
                       * np.sqrt(np.vecdot(f, f)))
    power = np.abs(dirac.power_residual(sol, scheme)) / scale
    skew = dirac.kernel_check(J, scheme.M)
    max_power, max_skew = power.max(), skew.max()
    ok = max_power <= POWER_TOL and max_skew <= SKEW_TOL
    print(f"scheme: {scheme.label}  model: {model.name}")
    print(f"classification: C1={'yes' if scheme.c1 else 'no'} "
          f"C2={'yes' if model.constant_structure else 'no'}")
    print(f"max normalized power residual: {_fmt(max_power)}")
    print(f"max kernel skew defect: {_fmt(max_skew)}")
    print(_worst("power residual", power, traj.times))
    print(_worst("kernel skew defect", skew, traj.times))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 4


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="phint",
                                     description="port-Hamiltonian collocation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, text in (
            ("tableau", cmd_tableau, "dump scheme coefficients"),
            ("simulate", cmd_simulate, "run one simulation, write CSVs"),
            ("converge", cmd_converge, "step-size sweep with error slopes"),
            ("check", cmd_check, "discrete Dirac structure checks")):
        p = sub.add_parser(name, help=text)
        p.set_defaults(fn=fn)
        p.add_argument("--scheme", default="gauss", choices=[coll.GAUSS, coll.LOBATTO])
        p.add_argument("--stages", type=int, default=2)
        if fn is not cmd_check:
            p.add_argument("--out", default=None)
        if fn is cmd_tableau:
            p.add_argument("--format", default="text", choices=["text", "csv"])
            continue
        p.add_argument("--model", default="oscillator", choices=sorted(MODELS))
        if fn is cmd_converge:
            p.add_argument("--h-list", default=None,
                           help="comma-separated step sizes (default grid otherwise)")
        else:
            p.add_argument("--h", type=float, default=0.1)
        p.add_argument("--t-end", type=float, default=18.0)
        p.add_argument("--input", default="pulse", choices=list(INPUTS))
        p.add_argument("--r", type=float, default=0.0)
        p.add_argument("--feedback-mode", default="stagewise",
                       choices=["stagewise", "portlevel"])
        p.add_argument("--x0", default=None, help="comma-separated initial state")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        code = args.fn(args)
    except (ConfigurationError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        code = 2
    except SolverDivergenceError as err:
        residual = "" if err.residual is None else f" (residual {err.residual})"
        print(f"solver failure at step {err.step_index}: {err}{residual}",
              file=sys.stderr)
        code = 3
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
