#!/usr/bin/env python3
"""Single-step (local) energy-error order study.

Measures |dH_bar - dH_exact| over one step of the damped free oscillator for
every scheme in the catalogue and fits the slope, which should equal the
scheme's classical order plus one.  The initial state is amplified tenfold so
that the high-order error curves clear the double-precision rounding floor,
and each scheme gets its own geometric step grid placed between ~1e-8 and
~3e-12 in measured error.

Usage:
    python3 scripts/local_error_study.py [--out results/local_error.csv]
"""
import argparse
import csv
import pathlib
import sys

import numpy as np

import phint.collocation as coll
from phint.energy import DAMPED_FREE, order_fit, reference_solution
from phint.integrator import solve_stages
from phint.models import FeedbackConfig, oscillator, zero_input

AMPLITUDE = 10.0
SCHEMES = ([("gauss", s) for s in range(1, 9)]
           + [("lobatto", s) for s in (2, 3, 4)])


def energy_gap(model, scheme, fb, h):
    x0u, _ = reference_solution(DAMPED_FREE, 0.0, r=0.1)
    x1u, h1u = reference_solution(DAMPED_FREE, h, r=0.1)
    x0 = AMPLITUDE * x0u
    x_end = solve_stages(model, scheme, x0, zero_input(), 0.0, h,
                         feedback=fb).x_end
    h0u = 0.5 * float(x0u @ x0u)
    return abs((model.H(x_end) - model.H(x0))
               - AMPLITUDE**2 * (h1u - h0u))


def grid_for(model, scheme, fb, npts=6):
    """Scan down from h = 2.6 until the error drops below 1e-8, then span a
    geometric grid down to ~3e-12."""
    p1 = scheme.order + 1
    h = 2.6
    while h > 0.02 and energy_gap(model, scheme, fb, h) > 1e-8:
        h *= 0.85
    top = energy_gap(model, scheme, fb, h)
    ratio = (3e-12 / top) ** (1.0 / ((npts - 1) * p1))
    return [h * ratio**k for k in range(npts)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/local_error.csv")
    args = ap.parse_args(argv)

    model = oscillator()
    fb = FeedbackConfig(r=0.1, mode="stagewise")
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["scheme", "s", "order", "h", "energy_gap"])
        for kind, s in SCHEMES:
            scheme = coll.make_scheme(kind, s)
            pts = []
            for h in grid_for(model, scheme, fb):
                g = energy_gap(model, scheme, fb, h)
                pts.append((h, g))
                w.writerow([kind, s, scheme.order, f"{h:.17g}", f"{g:.17g}"])
            slope = order_fit(pts).slope
            w.writerow([kind, s, scheme.order, "slope", f"{slope:.17g}"])
            print(f"{scheme.label}: local energy-error slope {slope:.3f} "
                  f"(expected {scheme.order + 1})")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
