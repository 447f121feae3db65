"""A mutant kill matrix: the source mutants that the tests and check catch.

    python3 scripts/mutants.py [--root DIR]

Each mutant is a (file, old text, new text) patch of src/phint whose old
text must occur in its file exactly once, marked semantic (a change of the
method that must be killed), equivalent (the same numbers but for rounding
order or non-finite entries, which only the byte oracles can see; one that
survives is a gap in them, not a bug) or limit (a bound or size constant
moved past the edge that a test must hold).  For each mutant the script copies src/, tests/, perfbench/ (which
tests read) and pyproject.toml of DIR (default: this repository) to a
temporary directory, applies the patch there, and runs:

- the tier-1 suite with -x: killed or survived, the first failing test and
  the message lines (pytest's "E" lines) of its failure;
- the check panel below: the exit code of each command (0 PASS, 4 FAIL,
  2 or 3 an error).

The first row, "none", is the unpatched copy, whose suite must pass and
whose panel must exit 0 for the other rows to mean anything.  A mutant whose
old text DIR does not hold exactly once is reported with its count and not
run, so an older tree can be tabulated too.  The script prints one JSON
object, mutant -> outcome, and writes nothing under DIR.  A killed mutant
costs the suite up to its first failure, a surviving one a whole suite run.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the first message lines of a failure kept in the table
MESSAGE_LINES = 12

# name -> (kind, file under src/phint, old text, new text)
MUTANTS = {
    "M1 linear map S scaled by 1.01": (
        "semantic", "integrator.py",
        "maps = (ST[:, :n], ST[:, n:],",
        "maps = (1.01 * ST[:, :n], ST[:, n:],"),
    "M2 Newton stages returned plus 1e-3": (
        "semantic", "integrator.py",
        "return (X if self.inv is None else X - self.inv.dot(R)), res",
        "return (X if self.inv is None else X - self.inv.dot(R)) + 1e-3, res"),
    "M3 Lobatto pair without A_hat": (
        "semantic", "integrator.py",
        "self.scheme.A_hat @ g[..., self.n_q:]",
        "self.scheme.A @ g[..., self.n_q:]"),
    "M4 Newton TOL 1e-6": (
        "semantic", "integrator.py",
        "TOL, MAX_ITER, SQRT_EPS = 1e-12,",
        "TOL, MAX_ITER, SQRT_EPS = 1e-6,"),
    "scan without its increment pass": (
        "semantic", "integrator.py",
        "return np.cumsum(np.concatenate([x0[None], v.dot(Delta.T) + drive]), axis=0)",
        "return np.concatenate([v, v[-1:] + (v[-1:].dot(Delta.T) + drive[-1:])])"),
    "delta_h_tilde with b for M": (
        "semantic", "energy.py",
        "else scheme.M @ sol.f",
        "else scheme.b[:, None] * sol.f"),
    "port-level feedback with K = I_s": (
        "semantic", "integrator.py",
        "self.K = np.ones(self.s) if feedback.mode == STAGEWISE else self.M",
        "self.K = np.ones(self.s)"),
    "elementwise _apply": (
        "equivalent", "dirac.py",
        "    if x.ndim <= 2:\n        return x.dot(A.T)\n",
        "    return (x[..., None, :] * A).sum(-1)\n"),
    "one-matrix skew defect as |J - J'|": (
        "semantic", "dirac.py",
        "np.abs(J + J.T)",
        "np.abs(J - J.T)"),
    "check POWER_TOL 1e-6": (
        "limit", "cli.py", "POWER_TOL = 1e-12", "POWER_TOL = 1e-6"),
    "check SKEW_TOL 1e-6": (
        "limit", "cli.py", "SKEW_TOL = 1e-12", "SKEW_TOL = 1e-6"),
    "symplectic-pair tolerance 1e-3": (
        "limit", "collocation.py",
        "_SYMPLECTIC_PAIR_TOL = 1e-13", "_SYMPLECTIC_PAIR_TOL = 1e-3"),
    "row-sum tolerance 1e-3": (
        "limit", "collocation.py", "_ROW_SUM_TOL = 1e-13", "_ROW_SUM_TOL = 1e-3"),
    "step count tolerance 1e-3 N": (
        "limit", "integrator.py", "abs(n_float - N) > 1e-9 * N", "abs(n_float - N) > 1e-3 * N"),
    "Newton MAX_ITER 20": (
        "limit", "integrator.py",
        "TOL, MAX_ITER, SQRT_EPS = 1e-12, 50,", "TOL, MAX_ITER, SQRT_EPS = 1e-12, 20,"),
    "ROUNDING_FLOOR 1e-9": (
        "limit", "energy.py", "ROUNDING_FLOOR = 1e-12", "ROUNDING_FLOOR = 1e-9"),
    "order_fit over every point": (
        "semantic", "energy.py",
        "    usable = sorted(usable, key=lambda p: p[0])[:SLOPE_FIT_TAIL]\n", ""),
    "linear-maps memo size 0": (
        "limit", "integrator.py",
        "MAPS_MEMO_SIZE, _maps_memo = 128, {}", "MAPS_MEMO_SIZE, _maps_memo = 0, {}"),
    "dense-weights memo size 0": (
        "limit", "integrator.py", "DENSE_MEMO_SIZE = 256", "DENSE_MEMO_SIZE = 0"),
    "SCAN_MAX_N 0": (
        "limit", "integrator.py", "SCAN_MAX_N = 64", "SCAN_MAX_N = 0"),
    "Newton rebuild threshold 0.5": (
        "limit", "integrator.py", "res > 0.1 * prev", "res > 0.5 * prev"),
    "Newton warm give-up 0.9": (
        "limit", "integrator.py", "it == 1 and res > 0.5 * prev", "it == 1 and res > 0.9 * prev"),
    "Newton last correction dropped": (
        "semantic", "integrator.py",
        "return (X if self.inv is None else X - self.inv.dot(R)), res", "return X, res"),
    "mechanical without its symmetrization": (
        "semantic", "models.py", "    Q, P = 0.5 * (Q + Q.T), 0.5 * (P + P.T)\n", ""),
    "one-matrix skew defect without max|M^-1|": (
        "semantic", "dirac.py",
        "return np.max(np.abs(J + J.T)) * Minv.max()", "return np.max(np.abs(J + J.T))"),
    "skew defect over all stage pairs": (
        "equivalent", "dirac.py",
        "i, j = np.nonzero(Minv)", "i, j = np.nonzero(np.ones_like(Minv))"),
    "dense_eval tau in [-1, 2]": (
        "limit", "integrator.py", "not 0.0 <= tau <= 1.0", "not -1.0 <= tau <= 2.0"),
}

PANEL = {
    "oscillator gauss-2": ["--model", "oscillator", "--scheme", "gauss", "--stages", "2"],
    "partitioned-oscillator lobatto-3": ["--model", "partitioned-oscillator",
                                         "--scheme", "lobatto", "--stages", "3"],
    "rigid-body gauss-2 x0=1,2,3": ["--model", "rigid-body", "--input", "zero",
                                    "--scheme", "gauss", "--stages", "2", "--x0", "1,2,3"],
    "rigid-body gauss-4 x0=100,-50,20": ["--model", "rigid-body", "--input", "zero",
                                         "--scheme", "gauss", "--stages", "4",
                                         "--x0", "100,-50,20"],
    "oscillator lobatto-3": ["--model", "oscillator", "--scheme", "lobatto", "--stages", "3"],
    "oscillator gauss-2 r=0.5 portlevel": ["--model", "oscillator", "--scheme", "gauss",
                                           "--stages", "2", "--r", "0.5",
                                           "--feedback-mode", "portlevel"],
}


def copy_tree(root: Path, work: Path):
    """src/, tests/, perfbench/ and pyproject.toml of root, without bytecode
    or the benchmark's work files."""
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", ".work")
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(root / name, work / name, ignore=skip)
    shutil.copy(root / "pyproject.toml", work)


def run_suite(work: Path, env) -> dict:
    """The tier-1 suite of the copy with -x: killed or survived, the first
    failing test with the message lines of its failure, and the seconds it took."""
    start = time.perf_counter()
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                          "-c", "pyproject.toml", "--rootdir", "."],
                         cwd=work, env=env, capture_output=True, text=True)
    out = {"tests": {0: "survived", 1: "killed"}.get(run.returncode, f"error {run.returncode}")}
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", run.stdout, re.MULTILINE)
    if failed:
        out["first_failure"] = failed.group(1)
        out["message"] = re.findall(r"^E +(.*\S)", run.stdout, re.MULTILINE)[:MESSAGE_LINES]
    elif run.returncode:
        out["output"] = (run.stdout + run.stderr).strip().splitlines()[-3:]
    out["seconds"] = round(time.perf_counter() - start, 1)
    return out


def run_mutant(root: Path, name: str, tmp: Path) -> dict:
    work = tmp / re.sub(r"\W+", "-", name)
    copy_tree(root, work)
    out = {}
    if name in MUTANTS:
        kind, file, old, new = MUTANTS[name]
        path = work / "src" / "phint" / file
        text = path.read_text()
        out = {"kind": kind, "file": f"src/phint/{file}"}
        if text.count(old) != 1:
            return {**out, "matches": text.count(old)}
        path.write_text(text.replace(old, new))
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    where = subprocess.run([sys.executable, "-c", "import phint; print(phint.__file__)"],
                           cwd=work, env=env, capture_output=True, text=True).stdout.strip()
    if not Path(where).resolve().is_relative_to(work.resolve()):
        raise SystemExit(f"phint imports from {where!r}, not from the copy in {work}")
    out.update(run_suite(work, env))
    out["check"] = {label: subprocess.run(
        [sys.executable, "-m", "phint.cli", "check", *argv], cwd=work, env=env,
        capture_output=True).returncode for label, argv in PANEL.items()}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="tree whose src/, tests/, perfbench/ and pyproject.toml are copied")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        table = {name: run_mutant(args.root.resolve(), name, Path(tmp))
                 for name in ["none", *MUTANTS]}
    print(json.dumps(table, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
