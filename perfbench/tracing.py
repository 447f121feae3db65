"""Tracing for the benchmark's traced run.

The tracer wraps phint's public functions from outside the package: a span
(name, start, end, parent, operation) at each layer boundary, and aggregated
counters for the hot leaf callables (model callbacks, input samples, the
closed-form reference, the dense-output weights), whose time is charged to the
enclosing span so that self times stay exact.  Nothing inside ``src/`` is
changed; the wrappers are installed around one operation and removed after it.
"""
from __future__ import annotations

import copy
import dataclasses
import time
from collections import defaultdict

# Spans are lists [name, start, end, parent, leaf_s, op]; parent is the index
# of the enclosing span or -1, leaf_s the time of the aggregated leaf calls
# made while the span was open, its children's included.
NAME, START, END, PARENT, LEAF_S, OP = range(6)

SPAN_FIELDS = ("name", "start", "end", "parent", "leaf_s", "op")

MODEL_CALLBACKS = ("H", "gradH", "J", "G")


def self_times(spans) -> list:
    """Self time of each span: its duration minus the durations of its child
    spans and of the leaf calls made directly under it.  Spans of one thread
    nest, so the children of a span never overlap."""
    out = [rec[END] - rec[START] - rec[LEAF_S] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            out[rec[PARENT]] -= rec[END] - rec[START] - rec[LEAF_S]
    return out


def newton_builds(j_calls: int, s: int, n: int, steps: int,
                  iterations: int) -> int:
    """Jacobian builds of a Newton run, from the identity
    J calls = s * (iterations + s*n*builds + steps) summed over its steps:
    each iteration evaluates the residual once (s calls of J), each
    finite-difference Jacobian takes s*n residual evaluations, and each step
    ends with one evaluation of the converged stages.  Raises ValueError when
    the counts admit no non-negative integer solution."""
    per_stage, rem = divmod(j_calls, s)
    builds, rem2 = divmod(per_stage - iterations - steps, s * n)
    if rem or rem2 or builds < 0:
        raise ValueError(
            f"J calls {j_calls} do not fit s={s}, n={n}, steps={steps}, "
            f"iterations={iterations}")
    return builds


class Tracer:
    """Spans and counters of one traced phase, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.leaves = {}            # name -> [calls, seconds]
        self.leaf_total = [0.0]     # seconds of all leaf calls so far
        self.simulate_runs = []
        self.bytes_written = 0
        self.op = -1

    def span(self, name, fn):
        """Wrap fn so that each call records a span."""
        spans, stack, clock, leaf_total = (self.spans, self.stack, self.clock,
                                           self.leaf_total)

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0, self.op]
            stack.append(len(spans))
            spans.append(rec)
            leaf0 = leaf_total[0]
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                rec[LEAF_S] = leaf_total[0] - leaf0
                stack.pop()

        return traced

    def leaf(self, name, fn):
        """Wrap a hot callable that calls nothing traced: count its calls and
        time only, which keeps the tracing cost per call small."""
        cell = self.leaves.setdefault(name, [0, 0.0])
        clock, leaf_total = self.clock, self.leaf_total

        def traced(*args):
            t0 = clock()
            out = fn(*args)
            dt = clock() - t0
            cell[0] += 1
            cell[1] += dt
            leaf_total[0] += dt
            return out

        return traced

    def simulate(self, fn):
        """Span around integrator.simulate that also records, per successful
        run, its step count, retained stages and model-J calls."""
        traced = self.span("integrator.simulate", fn)

        j_cell = self.leaves.setdefault("models.J", [0, 0.0])

        def run(model, scheme, *args, **kwargs):
            j0 = j_cell[0]
            traj = traced(model, scheme, *args, **kwargs)
            retained = traj.stage_solutions
            self.simulate_runs.append({
                "s": scheme.s, "n": traj.states.shape[1],
                "steps": len(traj.dh_tilde),
                "iterations": sum(sol.iterations for sol in retained),
                "retained_bytes": sum(_nbytes(sol) for sol in retained),
                "j_calls": j_cell[0] - j0})
            return traj

        return run

    def wrap_model(self, model):
        """Copy of a model object whose callbacks are counted; the class and
        the original object are left alone."""
        wrapped = copy.copy(model)
        for attr in MODEL_CALLBACKS:
            if callable(getattr(model, attr, None)):
                object.__setattr__(wrapped, attr,
                                   self.leaf(f"models.{attr}", getattr(model, attr)))
        return wrapped

    def wrap_signal(self, signal):
        """Copy of an InputSignal whose samples are counted."""
        return dataclasses.replace(signal, fn=self.leaf("models.input", signal.fn))

    def totals(self) -> dict:
        """Additive per-layer totals of this phase."""
        by_name = defaultdict(lambda: [0, 0.0, 0.0])
        for rec, self_s in zip(self.spans, self_times(self.spans)):
            agg = by_name[rec[NAME]]
            agg[0] += 1
            agg[1] += rec[END] - rec[START]
            agg[2] += self_s
        out = {}
        for name, (calls, total, self_s) in by_name.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = total
            out[f"{name}.self_s"] = self_s
        for name, (calls, seconds) in self.leaves.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = seconds
        out["integrator.steps"] = sum(r["steps"] for r in self.simulate_runs)
        out["cli.bytes_written"] = self.bytes_written
        return out


def _nbytes(sol) -> int:
    return sum(v.nbytes for v in vars(sol).values() if hasattr(v, "nbytes"))


class Patches:
    """Attribute and item replacements, undone in reverse order."""

    def __init__(self):
        self._undo = []

    def setattr(self, obj, name, value):
        self._undo.append((setattr, obj, name, obj.__dict__[name]
                           if isinstance(obj, type) else getattr(obj, name)))
        setattr(obj, name, value)

    def setitem(self, mapping, key, value):
        self._undo.append((type(mapping).__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def undo(self):
        while self._undo:
            restore, obj, key, old = self._undo.pop()
            restore(obj, key, old)


def install(tracer: Tracer, prog) -> Patches:
    """Wrap the public functions of every layer of one imported phint.

    Names that one module imports from another are patched in the importing
    module too (phint.cli holds its own reference to simulate).  Model and
    input objects built by the CLI are wrapped through the CLI's factories.
    """
    p = Patches()
    coll, integ, energy, dirac, cli = (prog.collocation, prog.integrator,
                                       prog.energy, prog.dirac, prog.cli)
    p.setattr(coll, "make_scheme", tracer.span("collocation.make_scheme",
                                               coll.make_scheme))
    p.setattr(coll, "lagrange_integral_weights",
              tracer.leaf("collocation.lagrange_integral_weights",
                          coll.lagrange_integral_weights))
    simulate = tracer.simulate(integ.simulate)
    p.setattr(integ, "simulate", simulate)
    p.setattr(cli, "simulate", simulate)
    p.setattr(integ, "dense_eval", tracer.span("integrator.dense_eval",
                                               integ.dense_eval))
    report = energy.EnergyReport.__dict__["from_trajectory"]
    p.setattr(energy.EnergyReport, "from_trajectory",
              classmethod(tracer.span("energy.report", report.__func__)))
    p.setattr(energy, "reference_solution",
              tracer.leaf("energy.reference", energy.reference_solution))
    p.setattr(energy, "order_fit", tracer.span("energy.order_fit",
                                               energy.order_fit))
    for name in ("assemble_blocks", "kernel_check", "power_residual",
                 "structure_residual"):
        p.setattr(dirac, name, tracer.span(f"dirac.{name}", getattr(dirac, name)))
    p.setattr(cli, "main", tracer.span("cli.main", cli.main))
    for key, factory in list(cli.MODELS.items()):
        p.setitem(cli.MODELS, key,
                  lambda factory=factory: tracer.wrap_model(factory()))
    for name in ("pulse_input", "zero_input"):
        factory = getattr(cli, name)
        p.setattr(cli, name, lambda *a, factory=factory, **k:
                  tracer.wrap_signal(factory(*a, **k)))
    return p


# (metric, unit) pairs of the traced run, in BENCHMARK.json order.
LAYER_METRICS = (
    ("collocation.make_scheme.calls", "count"),
    ("collocation.make_scheme.s", "s"),
    ("collocation.lagrange_integral_weights.calls", "count"),
    ("collocation.lagrange_integral_weights.s", "s"),
    ("integrator.dense_eval.calls", "count"),
    ("integrator.dense_eval.self_s", "s"),
    ("integrator.simulate.calls", "count"),
    ("integrator.simulate.self_s", "s"),
    ("integrator.steps", "count"),
    ("models.input.calls", "count"),
    ("models.input.s", "s"),
    ("integrator.newton.iterations_per_step", "1/step"),
    ("integrator.newton.residual_evals_per_step", "1/step"),
    ("integrator.newton.jacobian_builds_per_step", "1/step"),
    ("models.J.calls", "count"),
    ("models.gradH.calls", "count"),
    ("models.G.calls", "count"),
    ("models.H.calls", "count"),
    ("models.callbacks.s", "s"),
    ("energy.report.calls", "count"),
    ("energy.report.s", "s"),
    ("energy.reference.calls", "count"),
    ("energy.order_fit.s", "s"),
    ("dirac.assemble_blocks.s", "s"),
    ("dirac.kernel_check.calls", "count"),
    ("dirac.kernel_check.s", "s"),
    ("dirac.power_residual.s", "s"),
    ("dirac.structure_residual.s", "s"),
    ("integrator.retained_stage_bytes", "bytes"),
    ("cli.main.calls", "count"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("trace.overhead_frac", "ratio"),
)


def layer_metrics(setup: Tracer, passes: Tracer, n_passes: int,
                  untraced_s: float, traced_s: float):
    """Per-layer metrics of one set-up plus one pass: the set-up totals plus
    the pass totals averaged over n_passes.  Newton ratios are per step of the
    successful Newton runs (iterations > 0, stages retained).  Returns the
    metrics and the Newton runs whose callback counts break the identity."""
    values = defaultdict(float, setup.totals())
    for key, v in passes.totals().items():
        values[key] += v / n_passes
    values["models.callbacks.s"] = sum(values[f"models.{a}.s"]
                                       for a in MODEL_CALLBACKS)
    values["cli.self_s"] = values["cli.main.self_s"]
    runs = setup.simulate_runs + passes.simulate_runs
    values["integrator.retained_stage_bytes"] = max(
        (r["retained_bytes"] for r in runs), default=0)
    newton = [r for r in runs if r["iterations"] > 0]
    steps = its = evals = builds = 0
    errors = []
    for r in newton:
        try:
            builds += newton_builds(r["j_calls"], r["s"], r["n"], r["steps"],
                                    r["iterations"])
        except ValueError as exc:
            errors.append(str(exc))
        steps += r["steps"]
        its += r["iterations"]
        evals += r["j_calls"] / r["s"] - r["steps"]
    if steps:
        values["integrator.newton.iterations_per_step"] = its / steps
        values["integrator.newton.residual_evals_per_step"] = evals / steps
        values["integrator.newton.jacobian_builds_per_step"] = builds / steps
    values["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in LAYER_METRICS}
    return metrics, errors
