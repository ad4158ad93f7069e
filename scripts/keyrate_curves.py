"""Key-rate upper bound vs visibility for a few dimensions and both states.

Writes one CSV and one SVG per (d, branch) into --outdir with the `curve`
subcommand and prints where each curve crosses zero. The analytic branch is
closed-form; the tuned-state branch takes its local visibility from one
eigensolve per curve.

Usage: python scripts/keyrate_curves.py [--outdir results] [--steps 41]
"""
import argparse
import os
import sys

from diqkd_cc import cli, critical_visibility

RUNS = [(2, "max"), (3, "max"), (3, "cglmp"), (4, "max")]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results")
    ap.add_argument("--v-min", type=float, default=0.65)
    ap.add_argument("--steps", type=int, default=41)
    args = ap.parse_args()
    os.makedirs(args.outdir, exist_ok=True)

    for d, state in RUNS:
        branch = cli.BRANCH_OF_STATE[state]
        tag = f"d{d}_{branch}"
        csv_path = os.path.join(args.outdir, f"keyrate_{tag}.csv")
        svg_path = os.path.join(args.outdir, f"keyrate_{tag}.svg")
        rc = cli.main(["curve", "--d", str(d), "--state", state, "--v-min", str(args.v_min),
                       "--v-max", "1.0", "--steps", str(args.steps),
                       "--out", csv_path, "--svg", svg_path])
        if rc:
            return rc
        v_crit = critical_visibility(d, branch).v_crit
        print(f"{tag}: r_ub crosses zero at V = {v_crit:.7f}  "
              f"[{csv_path}, {svg_path}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
