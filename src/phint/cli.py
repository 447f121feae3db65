"""Command-line front end: dump scheme data, run simulations, convergence
sweeps and structure checks.  All numeric output uses 17 significant digits,
',' delimiters and LF line endings, so identical configs give identical files.

Exit codes: 0 success, 2 usage/config, 3 solver failure, 4 structure check failed.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import collocation as coll
from . import dirac, energy
from .errors import ConfigurationError, SolverDivergenceError
from .integrator import SolverConfig, simulate
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


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _build_input(name, m):
    if name == "pulse":
        return pulse_input()
    if name == "zero":
        return zero_input(m)
    raise ConfigurationError(f"unknown input {name!r}")


def _build(args):
    if args.model not in MODELS:
        raise ConfigurationError(f"unknown model {args.model!r}")
    model = MODELS[args.model]()
    scheme = coll.make_scheme(args.scheme, args.stages)
    if args.x0 is not None:
        x0 = np.array([float(v) for v in args.x0.split(",")])
    else:
        x0 = np.array(DEFAULT_X0[args.model])
    m = model.m
    if args.input not in INPUTS:
        raise ConfigurationError(f"unknown input {args.input!r}")
    if args.input == "pulse" and m == 0:
        raise ConfigurationError(f"model {args.model!r} has no input port; "
                                 "use --input zero")
    signal = _build_input(args.input, max(m, 1))
    feedback = None
    if args.r > 0.0:
        if m < 1:
            raise ConfigurationError("feedback requires a model with a port")
        feedback = FeedbackConfig(r=args.r, mode=args.feedback_mode,
                                  v=_build_input(args.input, m))
        signal = feedback.v
    return model, scheme, x0, signal, feedback


def _reference_for(args):
    """Closed-form reference, when the configuration matches one of the two
    oscillator experiments; None otherwise.  Port-level damping applies
    u_i = -r (G'(M e))_i, which does not converge to the continuous closed
    loop, so it has no reference."""
    if args.model not in ("oscillator", "partitioned-oscillator"):
        return None
    if args.r > 0.0 and args.feedback_mode == PORTLEVEL:
        return None
    if args.x0 is not None and tuple(float(v) for v in args.x0.split(",")) != (0.0, -1.0):
        return None
    if args.r == 0.0 and args.input == "pulse":
        return lambda t: energy.reference_solution(energy.LOSSLESS_FORCED, t)
    if args.r > 0.0 and args.input == "zero":
        r = args.r
        return lambda t: energy.reference_solution(energy.DAMPED_FREE, t, r)
    return None


def cmd_tableau(args) -> int:
    scheme = coll.make_scheme(args.scheme, args.stages)
    rows = []

    def emit(name, value, i="", j=""):
        rows.append((name, str(i), str(j), _fmt(value) if name not in ("order", "c1") else str(value)))

    for i, ci in enumerate(scheme.c, start=1):
        emit("c", ci, i)
    for i in range(scheme.s):
        for j in range(scheme.s):
            emit("A", scheme.A[i, j], i + 1, j + 1)
    if scheme.A_hat is not None:
        for i in range(scheme.s):
            for j in range(scheme.s):
                emit("A_hat", scheme.A_hat[i, j], i + 1, j + 1)
    for j, bj in enumerate(scheme.b, start=1):
        emit("b", bj, j)
    for i in range(scheme.s):
        for j in range(scheme.s):
            emit("M", scheme.M[i, j], i + 1, j + 1)
    emit("order", scheme.order)
    emit("c1", coll.check_c1(scheme.M, 1e-14))
    emit("quadratic_invariant_residual",
         coll.quadratic_invariant_residual(scheme))
    if args.format == "csv":
        lines = [",".join(("name", "i", "j", "value"))]
        lines.extend(",".join(r) for r in rows)
    else:
        lines = [f"{name}[{i},{j}] = {val}" if j else
                 (f"{name}[{i}] = {val}" if i else f"{name} = {val}")
                 for name, i, j, val in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _run(args, h, retain_stages=False):
    model, scheme, x0, signal, feedback = _build(args)
    traj = simulate(model, scheme, x0, signal, h, args.t_end, feedback=feedback,
                    cfg=SolverConfig(), retain_stages=retain_stages)
    return model, scheme, signal, traj


def cmd_simulate(args) -> int:
    model, scheme, signal, traj = _run(args, args.h)
    reference = _reference_for(args)
    r = args.r

    n = traj.states.shape[1]
    header = ["t"] + [f"x{i+1}" for i in range(n)] + ["u", "y", "H"]
    rows = []
    for t, x in zip(traj.times, traj.states):
        y = model.output(x) if model.m > 0 else np.zeros(1)
        v = signal(t) if model.m > 0 else np.zeros(1)
        u = v - r * y if model.m > 0 else np.zeros(1)
        rows.append([_fmt(t)] + [_fmt(v_) for v_ in x]
                    + [_fmt(u[0]), _fmt(y[0]), _fmt(model.H(x))])
    _write_csv(f"{args.out}_traj.csv", header, rows)

    header = ["k", "t_k", "dh_tilde", "dh_bar", "supplied"]
    if reference is not None:
        header.append("dh_exact")
        dh_exact = np.diff([reference(t)[1] for t in traj.times])
    rows = []
    for k in range(len(traj.dh_tilde)):
        row = [str(k + 1), _fmt(traj.times[k + 1]), _fmt(traj.dh_tilde[k]),
               _fmt(traj.dh_bar[k]), _fmt(traj.supplied[k])]
        if reference is not None:
            row.append(_fmt(dh_exact[k]))
        rows.append(row)
    _write_csv(f"{args.out}_energy.csv", header, rows)
    return 0


def cmd_converge(args) -> int:
    h_list = (tuple(float(v) for v in args.h_list.split(","))
              if args.h_list else DEFAULT_H_LIST)
    for h in h_list:
        if abs(args.t_end / h - round(args.t_end / h)) > 1e-9:
            raise ConfigurationError(f"h={h} does not divide t_end={args.t_end}")
    reference = _reference_for(args)
    if reference is None:
        raise ConfigurationError("convergence sweep needs a configuration with "
                                 "a closed-form reference")
    header = ["scheme", "s", "h", "N", "dh_tot_ref", "dh_tilde_tot",
              "dh_bar_tot", "eps_tilde", "eps_bar"]
    rows = []
    points_t, points_b = [], []
    for h in h_list:
        _, scheme, _, traj = _run(args, h)
        report = energy.EnergyReport.from_trajectory(traj, reference)
        rows.append([args.scheme, str(args.stages), _fmt(h),
                     str(len(traj.dh_tilde)), _fmt(report.dh_tot_ref),
                     _fmt(report.dh_tilde_tot), _fmt(report.dh_bar_tot),
                     _fmt(report.eps_tilde), _fmt(report.eps_bar)])
        points_t.append((h, report.eps_tilde))
        points_b.append((h, report.eps_bar))
    slope_t = energy.order_fit(points_t, tail=energy.SLOPE_FIT_TAIL).slope
    slope_b = energy.order_fit(points_b, tail=energy.SLOPE_FIT_TAIL).slope
    rows.append([args.scheme, str(args.stages), "slope", "", "", "", "",
                 _fmt(slope_t), _fmt(slope_b)])
    if args.out:
        _write_csv(args.out, header, rows)
    else:
        sys.stdout.write("\n".join(",".join(r) for r in [header] + rows) + "\n")
    return 0


def cmd_check(args) -> int:
    model, scheme, _, traj = _run(args, args.h, retain_stages=True)
    c1 = coll.check_c1(scheme.M, 1e-14)
    c2 = model.constant_structure
    max_power = 0.0
    max_skew = 0.0
    max_struct = 0.0
    for sol in traj.stage_solutions:
        blocks = dirac.assemble_blocks(model, sol.stage_x, scheme)
        scale = max(1.0, sol.h * np.linalg.norm(sol.e) * np.linalg.norm(sol.f))
        max_power = max(max_power,
                        abs(dirac.power_residual(sol, scheme)) / scale)
        skew, _ = dirac.kernel_check(blocks)
        max_skew = max(max_skew, skew)
        max_struct = max(max_struct,
                         dirac.structure_residual(blocks, sol.f, sol.e, sol.u))
    ok = max_power <= POWER_TOL and max_skew <= SKEW_TOL
    print(f"scheme: {scheme.label}  model: {traj.model_name}")
    print(f"classification: C1={'yes' if c1 else 'no'} C2={'yes' if c2 else 'no'}")
    print(f"max normalized power residual: {_fmt(max_power)}")
    print(f"max kernel skew defect: {_fmt(max_skew)}")
    print(f"max structure residual: {_fmt(max_struct)}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 4


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="phint",
                                     description="port-Hamiltonian collocation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_h=True):
        p.add_argument("--model", default="oscillator", choices=sorted(MODELS))
        p.add_argument("--scheme", default="gauss", choices=[coll.GAUSS, coll.LOBATTO])
        p.add_argument("--stages", type=int, default=2)
        if with_h:
            p.add_argument("--h", type=float, default=0.1)
        p.add_argument("--t-end", type=float, default=18.0)
        p.add_argument("--input", default="pulse", choices=list(INPUTS))
        p.add_argument("--r", type=float, default=0.0)
        p.add_argument("--feedback-mode", default="stagewise",
                       choices=["stagewise", "portlevel"])
        p.add_argument("--x0", default=None,
                       help="comma-separated initial state")
        p.add_argument("--out", default=None)

    p = sub.add_parser("tableau", help="dump scheme coefficients")
    p.add_argument("--scheme", default="gauss", choices=[coll.GAUSS, coll.LOBATTO])
    p.add_argument("--stages", type=int, default=2)
    p.add_argument("--format", default="text", choices=["text", "csv"])
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_tableau)

    p = sub.add_parser("simulate", help="run one simulation, write CSVs")
    common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("converge", help="step-size sweep with error slopes")
    common(p, with_h=False)
    p.add_argument("--h-list", default=None,
                   help="comma-separated step sizes (default grid otherwise)")
    p.set_defaults(fn=cmd_converge)

    p = sub.add_parser("check", help="discrete Dirac structure checks")
    common(p)
    p.set_defaults(fn=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
    except (ConfigurationError, ValueError) as err:
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
