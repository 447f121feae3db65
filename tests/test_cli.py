"""Command-line interface: outputs, formats, determinism and exit codes."""
import numpy as np
import pytest

from phint.cli import main


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
    assert energy[0] == "k,t_k,dh_tilde,dh_bar,supplied,dh_exact"
    assert len(energy) == 1 + 180


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


def test_converge_rejects_non_divisor_h(capsys):
    assert run(["converge", "--t-end", "18", "--h-list", "0.7"]) == 2


def test_converge_needs_reference(capsys):
    assert run(["converge", "--model", "rigid-body", "--input", "zero",
                "--t-end", "18"]) == 2


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


def test_damped_simulation_runs(tmp_path):
    out = tmp_path / "damped"
    code = run(["simulate", "--model", "oscillator", "--scheme", "gauss",
                "--stages", "2", "--h", "0.1", "--t-end", "10",
                "--input", "zero", "--r", "0.1", "--out", str(out)])
    assert code == 0
    lines = read(tmp_path / "damped_energy.csv").splitlines()
    assert lines[0].endswith("dh_exact")
    # energy decays: every stored increment negative
    dh_bar = [float(l.split(",")[3]) for l in lines[1:]]
    assert max(dh_bar) < 0.0


def test_simulate_before_pulse_writes_exact_increments(tmp_path):
    # the lossless reference stores no net energy before the pulse at t = 8
    out = tmp_path / "early"
    assert run(["simulate", "--t-end", "1", "--out", str(out)]) == 0
    lines = read(tmp_path / "early_energy.csv").splitlines()
    assert lines[0].endswith("dh_exact")
    assert len(lines) == 1 + 10
    assert max(abs(float(l.split(",")[-1])) for l in lines[1:]) < 1e-15


PORTLEVEL = ["--input", "zero", "--r", "0.1", "--feedback-mode", "portlevel",
             "--t-end", "10"]


def test_converge_portlevel_has_no_reference(capsys):
    assert run(["converge", "--scheme", "gauss", "--stages", "2"] + PORTLEVEL) == 2
    assert "reference" in capsys.readouterr().err


def test_simulate_portlevel_omits_exact_increments(tmp_path):
    out = tmp_path / "port"
    assert run(["simulate", "--out", str(out)] + PORTLEVEL) == 0
    lines = read(tmp_path / "port_energy.csv").splitlines()
    assert lines[0] == "k,t_k,dh_tilde,dh_bar,supplied"
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


def test_partitioned_rejects_gauss(tmp_path, capsys):
    code = run(["simulate", "--model", "partitioned-oscillator", "--scheme",
                "gauss", "--t-end", "1", "--out", str(tmp_path / "pg")])
    assert code == 2
    assert "Lobatto pair" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_overflowing_energy_exits_3(tmp_path, capsys):
    # finite states whose energy overflows must not give NaN CSVs
    code = run(["simulate", "--x0=1e200,1e200", "--t-end", "1",
                "--out", str(tmp_path / "big")])
    assert code == 3
    assert "solver failure at step 0" in capsys.readouterr().err
    assert not (tmp_path / "big_traj.csv").exists()
    assert not (tmp_path / "big_energy.csv").exists()
