"""Command-line interface: outputs, formats, determinism and exit codes."""
from types import SimpleNamespace

import numpy as np
import pytest

import phint.cli as cli
import phint.collocation as coll
import phint.dirac as dirac
import phint.energy as energy
import phint.integrator as integrator
from phint.cli import main, make_parser
from phint.dirac import assemble_blocks, kernel_check, power_residual
from phint.energy import LOSSLESS_FORCED, reference_solution
from phint.errors import SolverDivergenceError
from phint.integrator import simulate
from phint.models import (FeedbackConfig, InputSignal, PHModel, oscillator,
                          partitioned_oscillator, pulse_input, rigid_body,
                          zero_input)

from conftest import (fold_model, general_kernel_check, matmul_delta_h_tilde,
                      matmul_discrete_output, stride0_blocks)


def run(argv):
    return main(argv)


def read(path):
    return path.read_text()


def test_tableau_text_output(capsys):
    assert run(["tableau", "--scheme", "gauss", "--stages", "1"]) == 0
    out = capsys.readouterr().out
    assert "c[1] = 0.5" in out
    assert "b[1] = 1" in out
    assert "order = 2" in out
    assert "c1 = True" in out


def test_tableau_csv_includes_pair(tmp_path):
    out = tmp_path / "lob3.csv"
    assert run(["tableau", "--scheme", "lobatto", "--stages", "3",
                "--format", "csv", "--out", str(out)]) == 0
    text = read(out)
    assert text.splitlines()[0] == "name,i,j,value"
    assert "A_hat,1,1," in text
    assert "M,1,3,-0.033333333333333333" in text
    assert text.endswith("\n") and "\r" not in text


def test_tableau_rejects_unsupported_stages(capsys):
    assert run(["tableau", "--scheme", "gauss", "--stages", "9"]) == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_writes_both_csvs(tmp_path):
    out = tmp_path / "run"
    code = run(["simulate", "--model", "oscillator", "--scheme", "gauss",
                "--stages", "2", "--h", "0.1", "--t-end", "18",
                "--input", "pulse", "--out", str(out)])
    assert code == 0
    traj = read(tmp_path / "run_traj.csv").splitlines()
    assert traj[0] == "t,x1,x2,u,y,H"
    assert len(traj) == 1 + 181
    energy = read(tmp_path / "run_energy.csv").splitlines()
    assert energy[0] == "k,t_k,dh_tilde,dh_bar,supplied,dh_exact,balance_residual"
    assert len(energy) == 1 + 180
    # balance_residual is |dh_bar - supplied| of the row, exact under C1/C2
    for line in energy[1:]:
        row = [float(v) for v in line.split(",")]
        assert row[-1] == abs(row[3] - row[4])
        assert row[-1] <= 1e-15



def test_simulate_requires_out(tmp_path, capsys, monkeypatch):
    # without a prefix the run would write None_traj.csv and None_energy.csv
    monkeypatch.chdir(tmp_path)
    assert run(["simulate", "--t-end", "1"]) == 2
    assert "--out" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _fmt_row(values):
    return ",".join(f"{float(v):.17g}" for v in values)


CSV_CASES = [
    pytest.param(["--model", "oscillator", "--scheme", "gauss", "--stages", "2",
                  "--input", "zero", "--r", "0.1", "--feedback-mode",
                  "portlevel", "--x0", "0,-1", "--t-end", "10"],
                 oscillator, ("gauss", 2), zero_input(1),
                 FeedbackConfig(r=0.1, mode="portlevel"),
                 False, id="oscillator-gauss2-portlevel"),
    pytest.param(["--model", "partitioned-oscillator", "--scheme", "lobatto",
                  "--stages", "3", "--input", "pulse", "--x0", "0,-1",
                  "--t-end", "18"],
                 partitioned_oscillator, ("lobatto", 3), pulse_input(), None,
                 True, id="partitioned-lobatto3-pulse"),
    pytest.param(["--model", "rigid-body", "--scheme", "gauss", "--stages", "2",
                  "--input", "zero", "--x0", "1,-2,0.5", "--t-end", "3"],
                 rigid_body, ("gauss", 2), zero_input(0), None, False,
                 id="rigid-body-gauss2-zero"),
]


@pytest.mark.parametrize("argv,factory,scheme,signal,feedback,has_ref", CSV_CASES)
def test_simulate_csv_values(tmp_path, argv, factory, scheme, signal, feedback,
                             has_ref):
    # every value of both CSVs, recomputed one state at a time: the traj row
    # is t, x, v - r y, y = G(x)' gradH(x) and H(x) of the first port
    assert run(["simulate", *argv, "--out", str(tmp_path / "run")]) == 0
    model = factory()
    x0 = [float(v) for v in argv[argv.index("--x0") + 1].split(",")]
    t_end = float(argv[argv.index("--t-end") + 1])
    traj = simulate(model, coll.make_scheme(*scheme), x0, signal, 0.1, t_end,
                    feedback=feedback)
    r = feedback.r if feedback else 0.0
    rows = []
    for t, x in zip(traj.times, traj.states):
        y = (model.G.T @ (model.Q @ x))[0] if model.m else 0.0
        v = signal(t)[0] if model.m else 0.0
        rows.append(_fmt_row([t, *x, v - r * y, y, model.H(x)]))
    assert read(tmp_path / "run_traj.csv").splitlines()[1:] == rows
    if has_ref:
        h_ref = reference_solution(LOSSLESS_FORCED, traj.times)[1]
    rows = []
    for k in range(len(traj.dh_tilde)):
        row = [k + 1, traj.times[k + 1], traj.dh_tilde[k], traj.dh_bar[k],
               traj.supplied[k]]
        if has_ref:
            row.append(h_ref[k + 1] - h_ref[k])
        rows.append(_fmt_row(row + [abs(traj.dh_bar[k] - traj.supplied[k])]))
    energy = read(tmp_path / "run_energy.csv").splitlines()
    assert ("dh_exact" in energy[0]) == has_ref
    assert energy[1:] == rows


def test_simulate_deterministic(tmp_path):
    args = ["simulate", "--model", "oscillator", "--scheme", "lobatto",
            "--stages", "3", "--h", "0.25", "--t-end", "18"]
    run(args + ["--out", str(tmp_path / "a")])
    run(args + ["--out", str(tmp_path / "b")])
    assert read(tmp_path / "a_traj.csv") == read(tmp_path / "b_traj.csv")
    assert read(tmp_path / "a_energy.csv") == read(tmp_path / "b_energy.csv")


def test_converge_rows_and_slope(tmp_path):
    out = tmp_path / "conv.csv"
    code = run(["converge", "--model", "oscillator", "--scheme", "gauss",
                "--stages", "1", "--t-end", "18",
                "--h-list", "0.2,0.1,0.05,0.025,0.02", "--out", str(out)])
    assert code == 0
    lines = read(out).splitlines()
    assert lines[0].startswith("scheme,s,h,N,")
    assert len(lines) == 1 + 5 + 1
    slope_row = lines[-1].split(",")
    assert slope_row[2] == "slope"
    assert abs(float(slope_row[-1]) - 2.0) < 0.3


def test_converge_keeps_its_rows_when_a_slope_cannot_be_fitted(tmp_path, capsys):
    # Gauss-3 reaches the rounding floor on this grid, so order_fit rejects
    # its eps_tilde column: the six rows are still written, without a slope
    # row, and the command exits 2 naming the column, the usable points and
    # the flags
    argv = ["converge", "--stages", "3", "--t-end", "4.1", "--input", "zero",
            "--r", "0.1", "--h-list", "0.1,0.05,0.025,0.02,0.01,0.005"]
    assert run([*argv, "--out", str(tmp_path / "conv.csv")]) == 2
    err = capsys.readouterr().err
    assert "no eps_tilde slope: need >= 3 points" in err and "have 1;" in err
    assert "--h-list" in err and "--t-end" in err
    lines = read(tmp_path / "conv.csv").splitlines()
    assert lines[0].startswith("scheme,s,h,N,") and len(lines) == 1 + 6
    assert [line.split(",")[2] for line in lines[1:]] == [
        "0.10000000000000001", "0.050000000000000003", "0.025000000000000001",
        "0.02", "0.01", "0.0050000000000000001"]
    assert run(argv) == 2
    assert capsys.readouterr().out == read(tmp_path / "conv.csv")


@pytest.mark.parametrize("argv,calls", [
    ([], 1),
    (["--input", "zero", "--r", "0.1", "--t-end", "10"], 1),
    (["--input", "zero", "--r", "0.1", "--t-end", "4.1",
      "--h-list", "0.1,0.05,0.025,0.02,0.01,0.005"], 2),
], ids=["lossless", "damped", "damped-t-end-4.1"])
def test_converge_evaluates_the_reference_once_per_end_time(argv, calls, tmp_path,
                                                           monkeypatch):
    # the runs of the default grid all end at the same float; on the 4.1
    # grid three end at 4.1000000000000005 and three at 4.1.  The CSV is
    # that of the sweep that evaluates the reference once per run
    counted, reference = [], energy.reference_solution
    monkeypatch.setattr(energy, "reference_solution",
                        lambda *a: counted.append(a) or reference(*a))
    argv = ["converge", "--stages", "1", *argv]
    assert run([*argv, "--out", str(tmp_path / "shared.csv")]) == 0
    assert len(counted) == calls
    counted.clear()
    monkeypatch.setattr(cli, "functools", SimpleNamespace(cache=lambda fn: fn))
    assert run([*argv, "--out", str(tmp_path / "per_run.csv")]) == 0
    assert len(counted) == len(read(tmp_path / "per_run.csv").splitlines()) - 2
    assert read(tmp_path / "shared.csv") == read(tmp_path / "per_run.csv")


def test_converge_rejects_non_divisor_h(capsys):
    assert run(["converge", "--t-end", "18", "--h-list", "0.7"]) == 2


def test_converge_takes_the_grids_simulate_takes(capsys, monkeypatch):
    # t_end / h = 9999477.999999998: off an integer by 2e-9, inside
    # simulate's 1e-9 N, so the sweep reaches its first run (a stub here);
    # a grid simulate refuses stops before any run, with simulate's message
    runs = []

    def first_run(model, scheme, x0, signal, h, t_end, feedback=None):
        runs.append((h, t_end))
        raise SolverDivergenceError("stub run", step_index=0)

    monkeypatch.setattr(cli, "simulate", first_run)
    assert run(["converge", "--t-end", "18", "--h-list", "0.1,0.7"]) == 2
    assert "t_end/h = 25.714285714285715 is not an integer step count" in capsys.readouterr().err
    assert run(["converge", "--t-end", "19998.956", "--h-list", "0.002"]) == 3
    assert runs == [(0.002, 19998.956)]
    assert "stub run" in capsys.readouterr().err
    assert integrator._step_count(0.002, 19998.956) == 9999478


@pytest.mark.parametrize("argv", [
    ["simulate", "--t-end", "1e308", "--h", "1e-10"],
    ["converge", "--h-list", "1e-320"],
    ["check", "--h", "5e-324"]], ids=["simulate", "converge", "check"])
def test_step_counts_that_overflow_exit_2(argv, capsys, tmp_path):
    # t_end / h overflows to inf, which rounds to no integer: a configuration
    # error before any run, not an OverflowError
    out = ["--out", str(tmp_path / "x")] if argv[0] != "check" else []
    assert run(argv + out) == 2
    assert ("error: t_end/h = inf is not an integer step count"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


def test_memory_error_exits_2(capsys, monkeypatch):
    # 1e10 steps ask numpy for 74.5 GiB; a stub raises what numpy raises
    def huge(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape "
                          "(10000000000,) and data type int64")

    monkeypatch.setattr(cli, "simulate", huge)
    assert run(["check", "--t-end", "1e300", "--h", "1e290"]) == 2
    assert capsys.readouterr().err == ("error: Unable to allocate 74.5 GiB for an array "
                                       "with shape (10000000000,) and data type int64\n")


@pytest.mark.parametrize("t_end", ["0", "-18"])
def test_converge_names_non_positive_t_end(capsys, t_end):
    assert run(["converge", f"--t-end={t_end}", "--h-list", "0.1"]) == 2
    assert "--t-end must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("h_list", ["0", "-0.1", "0.1,nan"])
def test_converge_rejects_non_positive_h(capsys, h_list):
    assert run(["converge", "--t-end", "18", f"--h-list={h_list}"]) == 2
    assert "--h-list entries must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("h_list,repeated", [("0.1,0.1,0.1", "0.1 (180 steps)"),
                                             ("0.1,0.05,0.05,0.05", "0.05 (360 steps)"),
                                             ("0.1,0.05,0.1", "0.1 (180 steps)"),
                                             ("0.1,0.10000000001,0.05",
                                              "0.10000000001 (180 steps)")])
def test_converge_rejects_a_repeated_step_size(capsys, monkeypatch, tmp_path, h_list, repeated):
    # a slope over repeated h fits fewer step sizes than rows (it read 3.897
    # and 4.383 with exit 0): exit 2 before the first run, naming the value,
    # with no CSV.  An h within the step-count rule of an earlier one, the
    # same grid, is a repeat too
    monkeypatch.setattr(cli, "simulate", lambda *a, **k: pytest.fail("a run started"))
    out = tmp_path / "sweep.csv"
    assert run(["converge", "--t-end", "18", "--h-list", h_list, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --h-list repeats the step size {repeated}\n"
    assert not out.exists()


def test_converge_rejects_non_finite_t_end(capsys):
    assert run(["converge", "--t-end", "nan", "--h-list", "0.1"]) == 2
    assert "--t-end must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    pytest.param(["--r", "nan"], "--r must be a finite gain", id="r-nan"),
    pytest.param(["--r", "inf"], "--r must be a finite gain", id="r-inf"),
    pytest.param(["--r=-0.1"], "--r must be a finite gain", id="r-negative"),
    pytest.param(["--h", "nan"], "step size h must be finite", id="h-nan"),
    pytest.param(["--t-end", "nan"], "t_end must be finite", id="t_end-nan"),
])
def test_simulate_rejects_non_finite_arguments(tmp_path, capsys, argv, message):
    code = run(["simulate", *argv, "--out", str(tmp_path / "bad")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "bad_traj.csv").exists()


@pytest.mark.parametrize("t_end", ["0", "-1"])
def test_simulate_names_non_positive_t_end(tmp_path, capsys, t_end):
    code = run(["simulate", f"--t-end={t_end}", "--out", str(tmp_path / "bad")])
    assert code == 2
    assert "t_end must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "bad_traj.csv").exists()


def test_converge_rejects_empty_h_list(capsys):
    # an empty value is not the absent flag: no silent default grid
    assert run(["converge", "--t-end", "18", "--h-list="]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    pytest.param(["converge", "--h-list=0.1,abc"], "--h-list", id="h-list-abc"),
    pytest.param(["converge", "--h-list="], "--h-list", id="h-list-empty"),
    pytest.param(["simulate", "--x0=1,abc"], "--x0", id="x0-abc"),
])
def test_unparsable_list_names_its_flag(tmp_path, capsys, argv, flag):
    assert run([*argv, "--t-end", "18", "--out", str(tmp_path / "bad")]) == 2
    err = capsys.readouterr().err
    assert f"error: {flag} must be comma-separated numbers" in err
    assert not (tmp_path / "bad_traj.csv").exists()


@pytest.mark.parametrize("r", ["nan", "-0.1"])
def test_converge_rejects_bad_gain(capsys, r):
    # the gain is checked before the reference lookup, so the message names it
    assert run(["converge", f"--r={r}", "--t-end", "18"]) == 2
    assert "--r must be a finite gain >= 0" in capsys.readouterr().err


def test_converge_needs_reference(capsys):
    assert run(["converge", "--model", "rigid-body", "--input", "zero",
                "--t-end", "18"]) == 2


def test_simulate_has_no_damped_reference_from_r_two(tmp_path):
    # the damped closed form holds for r < 2: from r = 2 on the energy CSV
    # has no dh_exact column
    assert run(["simulate", "--input", "zero", "--r", "2", "--out", str(tmp_path / "P")]) == 0
    header = read(tmp_path / "P_energy.csv").splitlines()[0]
    assert header == "k,t_k,dh_tilde,dh_bar,supplied,balance_residual"


@pytest.mark.parametrize("r", ["2", "2.5"])
def test_converge_has_no_damped_reference_from_r_two(r, capsys, monkeypatch):
    # the sweep stops before its first run, with the usage exit code
    runs = []
    monkeypatch.setattr(cli, "simulate", lambda *a, **k: runs.append(a))
    assert run(["converge", "--input", "zero", "--r", r]) == 2
    assert "closed-form reference" in capsys.readouterr().err
    assert runs == []


@pytest.mark.parametrize("argv", [["simulate"], ["converge", "--input", "zero", "--r", "0.1",
                                                 "--h-list", "0.5,0.25,0.2"],
                                  ["tableau"]], ids=["simulate", "converge", "tableau"])
def test_unwritable_out_is_a_usage_error(argv, tmp_path, capsys, monkeypatch):
    # the output's directory is checked before the first run, creating nothing
    runs = []
    monkeypatch.setattr(cli, "simulate", lambda *a, **k: runs.append(a))
    out = tmp_path / "missing" / "run"
    assert run([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No such file or directory" in err
    assert not out.parent.exists()
    assert runs == []


@pytest.mark.parametrize("command", ["simulate", "converge", "check"])
@pytest.mark.parametrize("flag", ["--model", "--input"])
def test_unknown_model_or_input_is_a_usage_error(command, flag, capsys):
    # the names are argparse choices: an unknown one stops the parser
    with pytest.raises(SystemExit) as exc:
        run([command, flag, "nosuch", "--t-end", "1"])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid choice: 'nosuch'" in capsys.readouterr().err


def test_check_has_no_out_option(tmp_path, capsys):
    # check prints its verdict and writes no file, so --out is a usage error
    # there; tableau, simulate and converge keep it
    out = tmp_path / "check.txt"
    with pytest.raises(SystemExit) as exc:
        run(["check", "--t-end", "1", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    assert not out.exists()
    for command in ("tableau", "simulate", "converge"):
        assert make_parser().parse_args([command, "--out", "x"]).out == "x"


def test_check_passes_constant_structure(capsys):
    code = run(["check", "--model", "oscillator", "--scheme", "lobatto",
                "--stages", "3", "--h", "0.5", "--t-end", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "C2=yes" in out


def test_check_passes_diagonal_mass_nonlinear(capsys):
    code = run(["check", "--model", "rigid-body", "--scheme", "gauss",
                "--stages", "2", "--h", "0.1", "--t-end", "1",
                "--input", "zero", "--x0", "1,1,1"])
    assert code == 0
    assert "C1=yes" in capsys.readouterr().out


def test_check_detects_violation(capsys):
    code = run(["check", "--model", "rigid-body", "--scheme", "lobatto",
                "--stages", "3", "--h", "0.1", "--t-end", "1",
                "--input", "zero", "--x0", "1,1,1"])
    assert code == 4
    assert "FAIL" in capsys.readouterr().out


def test_check_reports_worst_steps(capsys):
    # the two lines before the verdict name the interval of the largest
    # normalised power residual and of the largest skew defect, recomputed
    # here one interval at a time; from (1, 1, 1) over 50 steps neither
    # worst interval is the first
    h, t_end = 0.1, 5.0
    code = run(["check", "--model", "rigid-body", "--scheme", "lobatto",
                "--stages", "3", "--h", str(h), "--t-end", str(t_end),
                "--input", "zero", "--x0", "1,1,1"])
    assert code == 4
    lines = capsys.readouterr().out.splitlines()
    scheme = coll.make_scheme("lobatto", 3)
    model = rigid_body()
    traj = simulate(model, scheme, np.ones(3), zero_input(0), h, t_end,
                    retain_stages=True)
    power, skew = [], []
    for sol in traj.stage_solutions:
        scale = max(1.0, h * np.linalg.norm(sol.e) * np.linalg.norm(sol.f))
        power.append(abs(power_residual(sol, scheme)) / scale)
        J, _ = assemble_blocks(model, sol.stage_x, scheme)
        skew.append(kernel_check(J, scheme.M))
    expect = []
    for name, values in (("power residual", power), ("kernel skew defect", skew)):
        k = int(np.argmax(values))
        assert k > 0
        expect.append(f"worst {name} at step {k + 1} (t = "
                      f"{traj.times[k]:.17g} to {traj.times[k + 1]:.17g})")
    assert lines[-3:] == expect + ["FAIL"]


@pytest.mark.parametrize("s", range(1, 9))
def test_check_c1_skew_defect_is_exactly_zero(s, capsys):
    # Gauss M = diag(b) exactly, so every off-diagonal block of the kernel
    # test is weighted by an exact 0 and every diagonal block is J_i + J_i'
    code = run(["check", "--model", "rigid-body", "--input", "zero", "--h", "0.01",
                "--t-end", "2", "--x0", "1,2,3", "--scheme", "gauss", "--stages", str(s)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert "classification: C1=yes C2=no" in lines
    assert "max kernel skew defect: 0" in lines
    assert lines[-3].startswith("worst power residual at step ")
    assert lines[-2:] == ["worst kernel skew defect: 0 on every step", "PASS"]


def test_check_all_zero_columns_have_no_worst_step(capsys):
    # from the origin the rigid body stays there: no power residual either
    code = run(["check", "--model", "rigid-body", "--input", "zero", "--h", "0.01",
                "--t-end", "0.1", "--x0", "0,0,0", "--scheme", "gauss", "--stages", "3"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert "max normalized power residual: 0" in lines
    assert lines[-3:] == ["worst power residual: 0 on every step",
                          "worst kernel skew defect: 0 on every step", "PASS"]


CHECK_ARGVS = ([["--model", "oscillator", "--scheme", kind, "--stages", str(s),
                 "--input", "pulse", "--h", "0.01", "--t-end", "10", "--x0", "0.3,-0.8"]
                for kind, s in [(coll.LOBATTO, 3), (coll.LOBATTO, 4)]
                + [(coll.GAUSS, s) for s in range(4, 9)]]
               + [["--model", "rigid-body", "--scheme", kind, "--stages", str(s),
                   "--input", "zero", "--h", "0.01", "--t-end", "2", "--x0", "0.4,-1.1,0.7"]
                  for kind, s in [(coll.GAUSS, 2), (coll.LOBATTO, 3)]])


@pytest.mark.parametrize("argv", CHECK_ARGVS, ids=lambda a: f"{a[1]}-{a[3]}{a[5]}")
def test_check_prints_the_general_checks_bytes(argv, capsys, monkeypatch):
    # the C1 fast path of kernel_check, its one-matrix defect of a constant
    # structure and delta_h_tilde's row scaling print what the s^2 pair loop
    # on every interval's stack (stride-0 stacks of a constant J) and the
    # M f product print, the FAILing Lobatto rigid body's nonzero defect and
    # worst step included
    code = run(["check", *argv])
    out = capsys.readouterr().out
    monkeypatch.setattr(dirac, "assemble_blocks", stride0_blocks)
    monkeypatch.setattr(dirac, "kernel_check", general_kernel_check)
    monkeypatch.setattr(dirac, "delta_h_tilde", matmul_delta_h_tilde)
    monkeypatch.setattr(integrator, "delta_h_tilde", matmul_delta_h_tilde)
    assert run(["check", *argv]) == code
    assert capsys.readouterr().out == out
    assert out.endswith("FAIL\n" if argv[3] == coll.LOBATTO and argv[1] == "rigid-body"
                        else "PASS\n")


def test_check_tests_the_kernel_once_per_run(capsys, monkeypatch):
    # check calls kernel_check once on the run, which does not call itself
    # through the module name that a tracer wraps; a constant structure is
    # its one J
    calls, inner = [], dirac.kernel_check
    monkeypatch.setattr(dirac, "kernel_check",
                        lambda J, M: calls.append(J.shape) or inner(J, M))
    assert run(["check", *CHECK_ARGVS[6]]) == 0
    assert calls == [(2, 2)]
    assert "max kernel skew defect: 0" in capsys.readouterr().out.splitlines()


def test_damped_simulation_runs(tmp_path):
    out = tmp_path / "damped"
    code = run(["simulate", "--model", "oscillator", "--scheme", "gauss",
                "--stages", "2", "--h", "0.1", "--t-end", "10",
                "--input", "zero", "--r", "0.1", "--out", str(out)])
    assert code == 0
    lines = read(tmp_path / "damped_energy.csv").splitlines()
    assert lines[0].endswith("dh_exact,balance_residual")
    # energy decays: every stored increment negative
    dh_bar = [float(l.split(",")[3]) for l in lines[1:]]
    assert max(dh_bar) < 0.0


def test_simulate_before_pulse_writes_exact_increments(tmp_path):
    # the lossless reference stores no net energy before the pulse at t = 8
    out = tmp_path / "early"
    assert run(["simulate", "--t-end", "1", "--out", str(out)]) == 0
    lines = read(tmp_path / "early_energy.csv").splitlines()
    col = lines[0].split(",").index("dh_exact")
    assert len(lines) == 1 + 10
    assert max(abs(float(l.split(",")[col])) for l in lines[1:]) < 1e-15


PORTLEVEL = ["--input", "zero", "--r", "0.1", "--feedback-mode", "portlevel",
             "--t-end", "10"]


def test_converge_portlevel_has_no_reference(capsys):
    assert run(["converge", "--scheme", "gauss", "--stages", "2"] + PORTLEVEL) == 2
    assert "reference" in capsys.readouterr().err


def test_simulate_portlevel_omits_exact_increments(tmp_path):
    out = tmp_path / "port"
    assert run(["simulate", "--out", str(out)] + PORTLEVEL) == 0
    lines = read(tmp_path / "port_energy.csv").splitlines()
    assert lines[0] == "k,t_k,dh_tilde,dh_bar,supplied,balance_residual"
    assert max(float(l.split(",")[2]) for l in lines[1:]) <= 1e-14


@pytest.mark.parametrize("model,x0", [("oscillator", "1,2,3"),
                                      ("oscillator", "nan,1"),
                                      ("partitioned-oscillator", "nan,1"),
                                      ("partitioned-oscillator", "1"),
                                      ("rigid-body", "1,1")])
def test_simulate_rejects_bad_x0(tmp_path, capsys, model, x0):
    scheme = ["--scheme", "lobatto", "--stages", "3"]
    extra = ["--input", "zero"] if model == "rigid-body" else []
    code = run(["simulate", "--model", model, *scheme, *extra, "--t-end", "1",
                f"--x0={x0}", "--out", str(tmp_path / "bad")])
    assert code == 2
    assert "x0 must" in capsys.readouterr().err
    assert not (tmp_path / "bad_traj.csv").exists()


def test_pulse_on_portless_model_rejected(tmp_path, capsys):
    code = run(["simulate", "--model", "rigid-body", "--input", "pulse",
                "--t-end", "1", "--out", str(tmp_path / "rb")])
    assert code == 2
    assert "no input port" in capsys.readouterr().err


def test_check_partitioned_gauss_passes(capsys):
    # Gauss takes A on every row of the separable model
    code = run(["check", "--model", "partitioned-oscillator", "--scheme",
                "gauss", "--t-end", "5"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASS"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_overflowing_energy_exits_3(tmp_path, capsys):
    # finite states whose energy overflows must not give NaN CSVs
    code = run(["simulate", "--x0=1e200,1e200", "--t-end", "1",
                "--out", str(tmp_path / "big")])
    assert code == 3
    assert "solver failure at step 0" in capsys.readouterr().err
    assert not (tmp_path / "big_traj.csv").exists()
    assert not (tmp_path / "big_energy.csv").exists()


def test_failed_continuation_exits_3(tmp_path, capsys, monkeypatch):
    # a step that neither Newton attempt nor continuation in h solves (Gauss-1
    # on the fold model from 1 at h = 0.3, step 2) exits 3 with its step
    # index, the continuation's reach and the residual, and writes no CSV
    monkeypatch.setitem(cli.MODELS, "oscillator", fold_model)
    code = run(["simulate", "--x0", "1", "--input", "zero", "--scheme", "gauss",
                "--stages", "1", "--h", "0.3", "--t-end", "3", "--out", str(tmp_path / "f")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure at step 2: stage equations did not converge")
    assert "; continuation in h reached 0.5" in err and "of h (residual " in err
    assert not list(tmp_path.iterdir())


def _jump_input():
    """Zero, then 1e300 from t = 0.3 on."""
    return InputSignal(fn=lambda t: np.where(t >= 0.3, 1e300, 0.0)[:, None])


@pytest.mark.parametrize("s", [1, 2, 5])
def test_overflow_under_the_row_scaled_output_is_the_products(s, tmp_path, capsys,
                                                              monkeypatch):
    # a Gauss y = G'(M e) is the row scaling b_i e_i: an infinite effort
    # stays in its stage's row, where the product's 0 * inf terms made the
    # other rows NaN; the interval is not finite either way, so a port-level
    # run driven past the float range stops at the same first step with the
    # same message and exit code
    e, G = np.array([[0.0, np.inf], [0.0, 1.0]]), np.array([[0.0], [1.0]])
    b = np.diagonal(coll.make_scheme(coll.GAUSS, 2).M)
    assert dirac.discrete_output(b, G, e).ravel().tolist() == [np.inf, 0.5]
    with np.errstate(invalid="ignore"):
        assert np.isnan(matmul_discrete_output(b, G, e)[1, 0])
    monkeypatch.setattr(cli, "pulse_input", _jump_input)
    argv = ["simulate", "--stages", str(s), "--r", "0.1", "--feedback-mode",
            "portlevel", "--t-end", "1", "--out", str(tmp_path / "jump")]
    args = (oscillator(), coll.make_scheme(coll.GAUSS, s), np.array([0.0, -1.0]),
            _jump_input(), 0.1, 1.0)
    feedback = FeedbackConfig(r=0.1, mode="portlevel")
    results = []
    for _ in ("row scaling", "matrix product"):
        with pytest.raises(SolverDivergenceError) as err:
            simulate(*args, feedback=feedback)
        results.append((err.value.step_index, str(err.value), run(argv),
                        capsys.readouterr().err))
        monkeypatch.setattr(integrator, "discrete_output", matmul_discrete_output)
        integrator._maps_memo.clear()  # the set-up's feedback K too
    assert results[0] == results[1]
    assert results[0][::2] == (3, 3)
    assert not list(tmp_path.iterdir())


def test_model_with_asymmetric_q_exits_2(tmp_path, capsys, monkeypatch):
    # PHModel validates Q when it is built, so a bad model factory is a
    # configuration error of the command, not a solver failure
    def lopsided():
        Q = np.array([[1.0, 0.5], [0.0, 1.0]])
        return PHModel(2, 1, H=lambda x: 0.5 * x @ Q @ x, gradH=Q,
                       J=np.array([[0.0, 1.0], [-1.0, 0.0]]),
                       G=np.array([[0.0], [1.0]]))

    monkeypatch.setitem(cli.MODELS, "oscillator", lopsided)
    code = run(["simulate", "--t-end", "1", "--out", str(tmp_path / "q")])
    assert code == 2
    assert "Q must be symmetric" in capsys.readouterr().err
    assert not (tmp_path / "q_traj.csv").exists()


def test_parser_is_built_once():
    assert make_parser() is make_parser()


def _outcome(argv, tmp_path, capsys):
    """Exit code, stdout and the bytes of the files one main call writes."""
    for path in tmp_path.iterdir():
        path.unlink()
    code = run([a.replace("{out}", str(tmp_path / "o")) for a in argv])
    files = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
    return code, capsys.readouterr().out, files


def test_shared_parser_keeps_no_state_between_commands(tmp_path, capsys):
    # check, converge, simulate and check again in one process give what each
    # gives on a freshly built parser
    commands = [
        ["check", "--scheme", "lobatto", "--stages", "3", "--t-end", "2",
         "--x0=0.5,-1"],
        ["converge", "--stages", "1", "--t-end", "18",
         "--h-list", "0.5,0.25,0.2,0.1", "--out", "{out}.csv"],
        ["simulate", "--model", "rigid-body", "--input", "zero", "--t-end", "1",
         "--out", "{out}"],
        ["check", "--model", "rigid-body", "--input", "zero", "--t-end", "1"],
    ]
    alone = []
    for argv in commands:
        make_parser.cache_clear()
        alone.append(_outcome(argv, tmp_path, capsys))
    shared = [_outcome(argv, tmp_path, capsys) for argv in commands]
    assert shared == alone
    assert [code for code, _, _ in alone] == [0, 0, 0, 0]
    assert all(files for _, _, files in alone[1:3])
