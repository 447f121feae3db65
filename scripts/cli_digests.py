"""sha256 digests of phint's command-line outputs and of the arrays its API
runs retain, for a bit-for-bit comparison of two source trees.

    python3 scripts/cli_digests.py SRC [--out FILE]
    python3 scripts/cli_digests.py --compare A B

The first form imports phint from the directory SRC, runs the grid below and
writes one JSON object, entry key -> sha256, to FILE or to stdout.  A command
entry hashes the exit code, stdout, stderr and every file the command wrote;
an API entry hashes the retained arrays of a run, or its error.  The grid:
`tableau` of the 11 schemes in both formats; `simulate` and `check` over the
11 schemes x oscillator/partitioned-oscillator x open/stagewise/portlevel
feedback x pulse/zero input; lossless and damped `converge` of each scheme
and model; rigid-body `simulate` and `check` under Gauss 1-4 from four
states of scale 1 to 1e3; the same runs through `simulate` with retained
stages; and, the same way, a pendulum with constant J and G but no Q (so
a constant structure on the Newton stepper, which no CLI model is) under
the 11 schemes x open/stagewise/portlevel feedback and pulse input.  The
rounding-visible models of tests/conftest.py (imported from there, so the
test dependencies must be installed), whose dense products round, run the
same way: the dense 4-state model and its Newton twin under the 11
schemes x open/stagewise/portlevel feedback, and the rotated rigid body
under Gauss 1-4 from the four rigid-body states; so do the nine Gauss-1
rigid-body runs of the benchmark's 10^3 panel (RIGID_PANEL_STOPS there),
which reach a step by continuation in h.  Every run so far takes 100
steps or more; the oscillator and the dense model also run 1 and 129
steps (SHORT_STEPS), open and port-level, under Gauss-1, Gauss-8 and
Lobatto-4, so that the grid holds one-row products.  A dense entry hashes
dense_eval at 0, each c_i, 1 and a fixed tau grid on every retained
interval, and the same calls on the stacked record, of the open pulse runs
of the 11 schemes on both oscillator models.  The second form lists the
keys whose digests differ between A and B, each a digest file or a source
directory (digested in a fresh process), and exits 1 when any differs.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SCHEMES = [("gauss", s) for s in range(1, 9)] + [("lobatto", s) for s in (2, 3, 4)]
OSCILLATORS = ("oscillator", "partitioned-oscillator")
FEEDBACK = {"open": [], "stagewise": ["--r", "0.1", "--feedback-mode", "stagewise"],
            "portlevel": ["--r", "0.1", "--feedback-mode", "portlevel"]}
INPUTS = ("pulse", "zero")
RIGID_X0 = ((1.0, 1.0, 1.0), (1.0, 2.0, 3.0), (100.0, -50.0, 20.0),
            (1000.0, 1000.0, 1000.0))
DENSE_TAUS = (0.1, 0.25, 0.5, 0.75, 0.9)
SHORT_STEPS = (1, 129)
TESTS = Path(__file__).resolve().parents[1] / "tests"


def command_grid():
    """The argvs of every command entry."""
    for kind, s in SCHEMES:
        scheme = ["--scheme", kind, "--stages", str(s)]
        for fmt in ("text", "csv"):
            yield ["tableau", *scheme, "--format", fmt]
        for model in OSCILLATORS:
            for feedback in FEEDBACK.values():
                for signal in INPUTS:
                    run = [*scheme, "--model", model, *feedback, "--input", signal]
                    yield ["simulate", *run, "--out", "out"]
                    yield ["check", *run]
            yield ["converge", *scheme, "--model", model, "--out", "out.csv"]
            yield ["converge", *scheme, "--model", model, "--input", "zero",
                   "--r", "0.1", "--out", "out.csv"]
    for s in (1, 2, 3, 4):
        for x0 in RIGID_X0:
            run = ["--stages", str(s), "--model", "rigid-body", "--input", "zero",
                   "--x0", ",".join(map(str, x0))]
            yield ["simulate", *run, "--out", "out"]
            yield ["check", *run]


def command_digest(cli, argv, workdir):
    """sha256 of one command's exit code, stdout, stderr and written files."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    digest = hashlib.sha256(f"{code}\0{out.getvalue()}\0{err.getvalue()}\0".encode())
    for path in sorted(workdir.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
        path.unlink()
    return digest.hexdigest()


def pendulum(phint):
    """H = p^2/2 + 1 - cos q with the oscillator's constant J and G: a
    matrix structure without Q, so it runs on the Newton stepper."""
    import numpy as np

    return phint.PHModel(2, 1, H=lambda x: 0.5 * x[1] ** 2 + 1.0 - np.cos(x[0]),
                         gradH=lambda x: np.array([np.sin(x[0]), x[1]]),
                         J=[[0.0, 1.0], [-1.0, 0.0]], G=[[0.0], [1.0]], name="pendulum")


def api_grid(phint, models):
    """(key, simulate args, simulate kwargs) of every API entry; models is
    the module that holds the rounding-visible models (tests/conftest.py)."""
    import numpy as np

    schemes = {f"{kind}-{s}": phint.make_scheme(kind, s) for kind, s in SCHEMES}
    feedbacks = {mode: None if mode == "open" else phint.FeedbackConfig(r=0.1, mode=mode)
                 for mode in FEEDBACK}
    for label, scheme in schemes.items():
        for model in OSCILLATORS:
            for mode, feedback in feedbacks.items():
                for signal in INPUTS:
                    for x0 in ((0.0, -1.0), (0.0, 0.0)):
                        inp = phint.pulse_input() if signal == "pulse" else phint.zero_input(1)
                        yield (f"api {label} {model} {mode} {signal} x0={x0}",
                               (getattr(phint, model.replace("-", "_"))(), scheme,
                                np.array(x0), inp, 0.1, 18.0), {"feedback": feedback})
        for mode, feedback in feedbacks.items():
            yield (f"api {label} pendulum {mode} pulse x0=(0.0, -1.0)",
                   (pendulum(phint), scheme, np.array((0.0, -1.0)), phint.pulse_input(),
                    0.1, 18.0), {"feedback": feedback})
            x0 = models.DENSE_X0
            for model in (models.dense_model(), models.dense_newton_model()):
                yield (f"api {label} {model.name} {mode} two-channel x0={tuple(x0.tolist())}",
                       (model, scheme, x0, models.two_channel_input(), 0.1, 18.0),
                       {"feedback": feedback})
    # every entry above runs 180 steps; these linear runs of 1 and 129 steps
    # also hold one-row products (N = 1, and the last scan pass at N = 129)
    for label in ("gauss-1", "gauss-8", "lobatto-4"):
        for mode in ("open", "portlevel"):
            for steps in SHORT_STEPS:
                yield (f"api {label} oscillator {mode} pulse x0=(0.0, -1.0) steps={steps}",
                       (phint.oscillator(), schemes[label], np.array((0.0, -1.0)),
                        phint.pulse_input(), 0.1, 0.1 * steps), {"feedback": feedbacks[mode]})
                yield (f"api {label} dense {mode} two-channel "
                       f"x0={tuple(models.DENSE_X0.tolist())} steps={steps}",
                       (models.dense_model(), schemes[label], models.DENSE_X0,
                        models.two_channel_input(), 0.1, 0.1 * steps),
                       {"feedback": feedbacks[mode]})
    for s in (1, 2, 3, 4):
        for x0 in RIGID_X0:
            yield (f"api gauss-{s} rigid-body x0={x0}",
                   (phint.rigid_body(), schemes[f"gauss-{s}"], np.array(x0),
                    phint.zero_input(0), 0.01, 1.0), {})
            yield (f"api gauss-{s} rotated-rigid-body x0={x0}",
                   (models.rotated_rigid_body(), schemes[f"gauss-{s}"], np.array(x0),
                    phint.zero_input(0), 0.01, 1.0), {})
    # the Gauss-1 runs of the benchmark's 10^3 panel that reach a step by
    # continuation in h
    for x0 in models.RIGID_PANEL_STOPS:
        yield (f"api gauss-1 rigid-body x0={x0}",
               (phint.rigid_body(), schemes["gauss-1"], np.array(x0), phint.zero_input(0),
                0.01, 1.0), {})


def dense_digest(phint, kind, s, model):
    """sha256 of dense_eval at 0, each c_i, 1 and DENSE_TAUS on every interval
    of an open pulse run, then of the same calls on the stacked record."""
    import numpy as np

    scheme = phint.make_scheme(kind, s)
    traj = phint.simulate(getattr(phint, model.replace("-", "_"))(), scheme,
                          np.array((0.0, -1.0)), phint.pulse_input(), 0.1, 18.0,
                          retain_stages=True)
    taus = (0.0, *scheme.c.tolist(), 1.0, *DENSE_TAUS)
    digest = hashlib.sha256()
    for sol in traj.stage_solutions:
        for tau in taus:
            digest.update(phint.dense_eval(sol, scheme, tau).tobytes())
    for tau in taus:
        digest.update(phint.dense_eval(traj.stages, scheme, tau).tobytes())
    return digest.hexdigest()


def api_digest(phint, args, kwargs):
    """sha256 of a retained run's arrays, or of the error it raised."""
    import numpy as np

    try:
        traj = phint.simulate(*args, retain_stages=True, **kwargs)
    except (phint.errors.SolverDivergenceError, ValueError) as exc:
        text = (f"{type(exc).__name__}: {exc} {getattr(exc, 'step_index', None)} "
                f"{getattr(exc, 'residual', None)!r}")
        return hashlib.sha256(text.encode()).hexdigest()
    st = traj.stages
    digest = hashlib.sha256()
    for array in (traj.states, traj.dh_tilde, traj.dh_bar, traj.supplied, st.stage_x,
                  st.f, st.e, st.u, st.y, st.iterations, st.residual, st.builds):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def digests(src) -> dict:
    sys.dont_write_bytecode = True  # leave no __pycache__ in SRC
    sys.path.insert(0, str(Path(src).resolve()))
    import phint
    import phint.cli
    import phint.errors

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for argv in command_grid():
                out[" ".join(argv)] = command_digest(phint.cli, argv, Path(tmp))
        finally:
            os.chdir(cwd)
    sys.path.insert(0, str(TESTS))
    import conftest

    for key, args, kwargs in api_grid(phint, conftest):
        out[key] = api_digest(phint, args, kwargs)
    for kind, s in SCHEMES:
        for model in OSCILLATORS:
            out[f"dense {kind}-{s} {model} open pulse x0=(0.0, -1.0)"] = dense_digest(
                phint, kind, s, model)
    return out


def load(path) -> dict:
    """The digests in a file, or those of a source directory, computed in a
    fresh process so that each tree imports its own phint."""
    if Path(path).is_dir():
        run = subprocess.run([sys.executable, __file__, str(path)],
                             capture_output=True, text=True, check=True)
        return json.loads(run.stdout)
    return json.loads(Path(path).read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", help="directory that holds the phint package")
    parser.add_argument("--out", help="write the digests here instead of stdout")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="two digest files or source directories")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = map(load, args.compare)
        differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        for key in differ:
            print(key)
        print(f"{len(differ)} of {len(a.keys() | b.keys())} entries differ")
        return 1 if differ else 0
    if args.src is None:
        parser.error("give SRC or --compare A B")
    text = json.dumps(digests(args.src), indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
