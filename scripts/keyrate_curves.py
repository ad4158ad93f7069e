"""Key-rate upper bound vs visibility for a few dimensions and both states.

Writes one CSV and one SVG per (d, branch) into --outdir and prints where each
curve crosses zero. The analytic branch is closed-form; the tuned-state branch
solves one LP per curve, for its local visibility.

Usage: python scripts/keyrate_curves.py [--outdir results] [--steps 41]
"""
import argparse
import os
import sys

from diqkd_cc import (
    ANALYTIC_MAX_ENTANGLED,
    LP_CGLMP_STATE,
    critical_visibility,
    keyrate_curve,
)
from diqkd_cc.svgplot import line_chart

RUNS = [
    (2, ANALYTIC_MAX_ENTANGLED),
    (3, ANALYTIC_MAX_ENTANGLED),
    (3, LP_CGLMP_STATE),
    (4, ANALYTIC_MAX_ENTANGLED),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results")
    ap.add_argument("--v-min", type=float, default=0.65)
    ap.add_argument("--steps", type=int, default=41)
    args = ap.parse_args()
    os.makedirs(args.outdir, exist_ok=True)

    for d, branch in RUNS:
        points = keyrate_curve(d, branch, args.v_min, 1.0, args.steps)
        tag = f"d{d}_{branch}"
        csv_path = os.path.join(args.outdir, f"keyrate_{tag}.csv")
        with open(csv_path, "w") as fh:
            fh.write("V,qL,H_AE,H_AB,r_ub\n")
            for pt in points:
                fh.write(f"{pt.V:.12g},{pt.qL:.12g},{pt.pa_term:.12g},"
                         f"{pt.ec_term:.12g},{pt.r_ub:.12g}\n")
        svg_path = os.path.join(args.outdir, f"keyrate_{tag}.svg")
        chart = line_chart([pt.V for pt in points], [pt.r_ub for pt in points],
                           xlabel="V", ylabel="r_ub (dits)", title=tag)
        with open(svg_path, "w") as fh:
            fh.write(chart)
        v_crit = critical_visibility(d, branch).v_crit
        print(f"{tag}: r_ub crosses zero at V = {v_crit:.7f}  "
              f"[{csv_path}, {svg_path}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
