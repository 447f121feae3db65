"""Self-tests of the benchmark's own arithmetic; they need no phint import.

    python3 perfbench/selftest.py

run.py runs them before every measurement and refuses to measure if one
fails.
"""
import sys

from tracing import Tracer, newton_builds, self_times
from workloads import WORKLOADS


def _expect(ok, message):
    if not ok:
        raise AssertionError(message)


def test_inputs_follow_seed():
    """The same seed gives the same inputs; another seed gives others."""
    for name, w in WORKLOADS.items():
        first = [w.block(11, k) for k in range(3)]
        _expect(first == [w.block(11, k) for k in range(3)],
                f"{name}: seed 11 gave two different input sets")
        _expect(w.block(11, 0) != w.block(12, 0),
                f"{name}: seeds 11 and 12 gave the same block")
        _expect(first[0] != first[1] or name == "oscillator-sweep",
                f"{name}: blocks 0 and 1 are identical")


def test_divergence_panel_is_seed_free():
    """rigid-newton's scale-1e3 inputs are the same for every seed; its
    other inputs are not."""
    def by_label(seed, k):
        return {op.label: op.x0 for op in WORKLOADS["rigid-newton"].block(seed, k)}
    a, b = by_label(11, 2), by_label(12, 2)
    for label in a:
        same = a[label] == b[label]
        _expect(same == label.endswith("scale 1000"),
                f"{label}: x0 {'equal' if same else 'differs'} across seeds")
    _expect(by_label(11, 2) != by_label(11, 3), "panel repeats across blocks")


def test_block_count_follows_arguments():
    for name, w in WORKLOADS.items():
        _expect(w.blocks_for(0.0) == 1, f"{name}: a run holds no block")
        _expect(w.blocks_for(10 * w.block_s) == 10,
                f"{name}: {w.blocks_for(10 * w.block_s)} blocks, not 10")


def test_self_times_of_synthetic_spans():
    # root [0, 10] with 1 s of leaf calls of its own; child a [1, 4] with
    # 0.5 s of leaf calls and grandchild [2, 3]; child b [5, 9]
    spans = [["root", 0.0, 10.0, -1, 1.5, 0], ["a", 1.0, 4.0, 0, 0.5, 0],
             ["g", 2.0, 3.0, 1, 0.0, 0], ["b", 5.0, 9.0, 0, 0.0, 0]]
    _expect(self_times(spans) == [2.0, 1.5, 1.0, 4.0],
            f"self times {self_times(spans)} != [2, 1.5, 1, 4]")


def test_tracer_charges_children_and_leaves():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.leaf("models.J", lambda: None)
    inner = tracer.span("inner", lambda: leaf())
    outer = tracer.span("outer", lambda: (inner(), leaf()))
    outer()
    # clock reads: outer 0; inner 1; leaf 2-3; inner end 4; leaf 5-6; outer 7
    totals = tracer.totals()
    _expect(totals["outer.s"] == 7.0 and totals["outer.self_s"] == 3.0,
            f"outer: {totals['outer.s']} s, self {totals['outer.self_s']} s")
    _expect(totals["inner.s"] == 3.0 and totals["inner.self_s"] == 2.0,
            f"inner: {totals['inner.s']} s, self {totals['inner.self_s']} s")
    _expect(totals["models.J.calls"] == 2 and totals["models.J.s"] == 2.0,
            f"leaf: {totals['models.J.calls']} calls, {totals['models.J.s']} s")


def test_newton_builds_identity():
    s, n, steps, its, builds = 3, 3, 100, 250, 40
    j_calls = s * (its + s * n * builds + steps)
    _expect(newton_builds(j_calls, s, n, steps, its) == builds,
            "builds not recovered from the J-call identity")
    for bad in (j_calls + 1, j_calls + s, s * (its + steps - 1)):
        try:
            newton_builds(bad, s, n, steps, its)
        except ValueError:
            continue
        _expect(False, f"J calls {bad} accepted as a Newton count")


def run_all() -> list:
    """Run every test; return one line per failure."""
    problems = []
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
            except AssertionError as exc:
                problems.append(f"{name}: {exc}")
    return problems


if __name__ == "__main__":
    failures = run_all()
    for line in failures:
        print(f"FAIL {line}")
    print("ok" if not failures else f"{len(failures)} failed")
    sys.exit(1 if failures else 0)
