"""phint benchmark: one seeded workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; phint is imported from ./src.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  NOTES.md defines every metric.
"""
import os

# one BLAS/OpenMP thread, fixed before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import mpmath  # noqa: E402
import numpy  # noqa: E402

import selftest  # noqa: E402
from speed import at_reference_speed  # noqa: E402
from tracing import SPAN_FIELDS, Tracer, install, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Runner, setup  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKDIR = HERE / ".work"

# set-ups per end-to-end run; setup_s is their median
SETUP_REPEATS = 15

clock = time.perf_counter


def run_blocks(workload, st, seed, n_blocks, execute):
    """Closed loop: run blocks 0 .. n_blocks-1 back to back.  Returns one
    list of results per block and the seconds the loop took."""
    blocks = []
    t_start = clock()
    for k in range(n_blocks):
        if k == len(st.blocks):
            st.blocks.append(workload.block(seed, k))
        blocks.append([execute(op) for op in st.blocks[k]])
    return blocks, clock() - t_start


def outcome_summary(blocks):
    counts = Counter(r.status for results, _ in blocks for r in results)
    failures = Counter(f"{op.label}: {r.status}"
                       for results, ops in blocks for r, op in zip(results, ops)
                       if r.status != "ok")
    return counts, failures


def run_op(run, op):
    """run(op), with the op's phint time scaled to reference speed."""
    result, factor = at_reference_speed(lambda: run(op))
    inner = sum(dt for dt, _ in result.segments)
    result.ref_seconds = (sum(dt * f for dt, f in result.segments)
                          + (result.seconds - inner) * factor)
    return result


def end_to_end(workload, seed, seconds):
    setup_s = []
    for _ in range(SETUP_REPEATS):
        def timed_setup():
            t0 = clock()
            st = setup(workload, seed)
            return st, clock() - t0
        (st, raw_s), factor = at_reference_speed(timed_setup)
        setup_s.append(raw_s * factor)
    runner = Runner(st, WORKDIR, per_simulate=True)
    raw, loop_s = run_blocks(workload, st, seed, workload.blocks_for(seconds),
                             lambda op: run_op(runner.run, op))
    blocks = [(results, st.blocks[k]) for k, results in enumerate(raw)]
    wall = [sum(r.ref_seconds for r in results) for results in raw]
    rate = [sum(r.steps for r in results) / w for results, w in zip(raw, wall)]
    results = [r for block in raw for r in block]
    ok = sum(r.status == "ok" for r in results)
    metrics = {name: {"value": float(value), "unit": unit} for name, value, unit in (
        ("setup_s", statistics.median(setup_s), "s"),
        ("wall_s", statistics.median(wall), "s"),
        ("steps_per_s", statistics.median(rate), "1/s"),
        ("ops_ok_frac", ok / len(results), "ratio"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    )}
    counts, failures = outcome_summary(blocks)
    extra = {"blocks": len(raw), "loop_s": loop_s, "outcomes": dict(counts),
             "failures": dict(failures),
             "gate_failures": [r.detail for r in results
                               if r.status in ("gate", "error")][:10],
             "raw_wall_s": statistics.median(
                 sum(r.seconds for r in results) for results in raw),
             "speed_factor": statistics.median(
                 r.ref_seconds / r.seconds for r in results if r.seconds)}
    table = work_precision(blocks)
    if table:
        print("# work-precision: scheme,experiment,h,N,eps_bar,run_s")
        for row in table:
            print(",".join(map(str, row)))
    correct = not (counts["gate"] or counts["error"])
    return correct, len(results), len(results) - ok, metrics, extra


def work_precision(blocks):
    """Rows (scheme, experiment, h, N, eps_bar, median simulate seconds) of
    the converge ops, in the style of a work-precision diagram."""
    times = defaultdict(list)
    for results, _ in blocks:
        for r in results:
            for scheme, exp, h, n, eps_bar, seconds in r.rows:
                times[(scheme, exp, h, n, eps_bar)].append(seconds)
    return [key + (statistics.median(v),) for key, v in sorted(times.items())]


def traced(workload, seed, seconds):
    setup_tracer, tracer = Tracer(), Tracer()
    st = setup(workload, seed, patch=lambda prog: install(setup_tracer, prog))
    plain, wrapped = Runner(st, WORKDIR), Runner(st, WORKDIR, tracer)
    mismatches = []
    pairs = []

    def run_traced(op):
        patches = install(tracer, st.prog)
        try:
            return wrapped.run(op)
        finally:
            patches.undo()

    def execute(op):
        tracer.op = len(pairs)
        # alternate which side runs first, so warm caches favour neither
        if len(pairs) % 2:
            b, a = run_op(run_traced, op), run_op(plain.run, op)
        else:
            a, b = run_op(plain.run, op), run_op(run_traced, op)
        pairs.append((a, b))
        if a.output != b.output or a.status != b.status:
            mismatches.append(op.label)
        return b if b.status != "ok" else a

    # every op runs twice, so half the blocks of an end-to-end run
    raw, loop_s = run_blocks(workload, st, seed,
                             workload.blocks_for(seconds / 2), execute)
    blocks = [(results, st.blocks[k]) for k, results in enumerate(raw)]
    untraced_s = sum(a.ref_seconds for a, _ in pairs)
    traced_s = sum(b.ref_seconds for _, b in pairs)
    metrics, newton_errors = layer_metrics(setup_tracer, tracer, len(raw),
                                           untraced_s, traced_s)
    counts = Counter(r.status for pair in pairs for r in pair)
    correct = not (mismatches or newton_errors or counts["gate"] or counts["error"])
    failed = sum(a.status != "ok" or b.status != "ok" for a, b in pairs)
    with open(WORKDIR / f"spans-{workload.name}.json", "w") as fh:
        json.dump({"fields": SPAN_FIELDS, "setup": setup_tracer.spans,
                   "passes": tracer.spans}, fh)
    _, failures = outcome_summary(blocks)
    extra = {"blocks": len(raw), "loop_s": loop_s, "outcomes": dict(counts),
             "failures": dict(failures),
             "gate_failures": [r.detail for pair in pairs for r in pair
                               if r.status in ("gate", "error")][:10],
             "mismatches": mismatches[:10],
             "newton_identity_errors": newton_errors[:10]}
    return correct, len(pairs), failed, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "phint" / "__init__.py").is_file():
        print(f"error: no phint sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    problems = selftest.run_all()
    if problems:
        print("error: self-test failed: " + "; ".join(problems), file=sys.stderr)
        return 1
    WORKDIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    run = traced if args.trace else end_to_end
    correct, attempted, failed, metrics, extra = run(workload, args.seed, args.seconds)
    env = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
           "seconds": args.seconds, "python": platform.python_version(),
           "numpy": numpy.__version__, "mpmath": mpmath.__version__,
           "cores": os.cpu_count(), **extra}
    print("# run " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
