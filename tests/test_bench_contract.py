"""The benchmark's traced run wraps phint's public functions by name
(perfbench/tracing.py).  Installing its tracer on the imported package, running
a traced check and a traced Newton run, and undoing the patches must work, so
that renaming a wrapped function fails here rather than in the benchmark.  One
block of every workload must also pass its gates through the benchmark's own
runner."""
import importlib
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest

import phint.cli
import phint.collocation
import phint.dirac
import phint.energy
import phint.errors
import phint.integrator
import phint.models

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
PROG = SimpleNamespace(collocation=phint.collocation, integrator=phint.integrator,
                       models=phint.models, energy=phint.energy,
                       dirac=phint.dirac, cli=phint.cli, errors=phint.errors)


def snapshot():
    """Identity of every module attribute, CLI model factory and the
    EnergyReport constructor the tracer may replace."""
    names = {(mod, key): id(val) for mod, module in vars(PROG).items()
             for key, val in vars(module).items()}
    names["MODELS"] = {k: id(v) for k, v in phint.cli.MODELS.items()}
    names["from_trajectory"] = id(
        phint.energy.EnergyReport.__dict__["from_trajectory"])
    return names


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_tracer_wraps_and_restores_phint(tracing, capsys):
    before = snapshot()
    tracer = tracing.Tracer()
    patches = tracing.install(tracer, PROG)
    try:
        assert snapshot() != before
        code = phint.cli.main(["check", "--model", "rigid-body", "--input",
                               "zero", "--x0", "1,1,1", "--h", "0.1",
                               "--t-end", "0.3"])
        assert code == 0
        scheme = phint.collocation.make_scheme("gauss", 2)
        model = tracer.wrap_model(phint.models.rigid_body())
        traj = phint.integrator.simulate(model, scheme, np.ones(3),
                                         phint.models.zero_input(0), 0.1, 0.3,
                                         retain_stages=True)
        sol = traj.stage_solutions[-1]
        x_end = phint.integrator.dense_eval(sol, scheme, 1.0)
    finally:
        patches.undo()
    assert snapshot() == before
    spans = {rec[tracing.NAME] for rec in tracer.spans}
    for name in ("cli.main", "integrator.simulate", "collocation.make_scheme",
                 "dirac.assemble_blocks", "dirac.kernel_check",
                 "dirac.power_residual", "integrator.dense_eval"):
        assert name in spans
    # dense output reads the stored coefficients, not the mpmath weights
    assert np.max(np.abs(x_end - sol.x_end)) < 1e-14
    assert tracer.leaves["collocation.lagrange_integral_weights"][0] == 0
    newton = tracer.simulate_runs[-1]
    assert newton["iterations"] > 0 and newton["steps"] == 3
    # J calls = s * (iterations + s*n*builds + steps); raises otherwise
    assert tracing.newton_builds(newton["j_calls"], newton["s"], newton["n"],
                                 newton["steps"], newton["iterations"]) >= 1
    # the tracer reads each interval's fields through vars(), so the retained
    # bytes are those of the array fields of the three views: 24 floats each
    # (x0, x_end and the (2, 3) stage_x, f and e; u and y are empty)
    arrays = [getattr(view, name) for view in traj.stage_solutions
              for name in ("x0", "stage_x", "f", "e", "u", "y", "x_end")]
    assert newton["retained_bytes"] == sum(a.nbytes for a in arrays) == 3 * 192
    assert "PASS" in capsys.readouterr().out


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


@pytest.mark.parametrize("name", ["oscillator-sweep", "rigid-newton",
                                  "dirac-check", "dense-output"])
def test_workload_block_runs_on_the_imported_package(workloads, name, tmp_path):
    # block 0 of the workload through the benchmark's runner, with its Setup
    # built from the modules imported here rather than a fresh import: every
    # op passes its gate, and only Newton from scale 1e3 may diverge
    workload = workloads.WORKLOADS[name]
    factories = {"oscillator": phint.models.oscillator,
                 "partitioned-oscillator": phint.models.partitioned_oscillator,
                 "rigid-body": phint.models.rigid_body}
    st = workloads.Setup(
        PROG, {key: phint.collocation.make_scheme(*key) for key in workload.schemes},
        {model: factories[model]() for model in workload.models},
        {"pulse": phint.models.pulse_input(), "none": phint.models.zero_input(0)},
        [workload.block(1, 0)])
    runner = workloads.Runner(st, tmp_path)
    for op in st.blocks[0]:
        result = runner.run(op)
        allowed = {"ok", "diverged"} if op.label.endswith("scale 1000") else {"ok"}
        assert result.status in allowed, (op.label, result.status, result.detail)
