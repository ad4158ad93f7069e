"""Critical visibility of the maximally entangled state as d grows, against
the d->infinity limit 1/(2 - pi^2/(16*Catalan)) ~ 0.753831.

The analytic branch needs no LP, so large d is cheap. Writes a CSV and an SVG
and prints how far the last point still sits above the limit.

Usage: python scripts/visibility_vs_dimension.py [--d-max 64] [--outdir results]
"""
import argparse
import os
import sys

from diqkd_cc import critical_visibilities, vcrit_asymptotic
from diqkd_cc.svgplot import line_chart


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d-max", type=int, default=64)
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()
    os.makedirs(args.outdir, exist_ok=True)

    limit = vcrit_asymptotic()
    ds = list(range(2, args.d_max + 1))
    vals = [r.v_crit for r in critical_visibilities(ds)]

    csv_path = os.path.join(args.outdir, "vcrit_vs_d.csv")
    with open(csv_path, "w") as fh:
        fh.write("d,vcrit_max,limit\n")
        for d, v in zip(ds, vals):
            fh.write(f"{d},{v:.12g},{limit:.12g}\n")

    svg_path = os.path.join(args.outdir, "vcrit_vs_d.svg")
    chart = line_chart([float(d) for d in ds], vals, xlabel="d",
                       ylabel="critical visibility", title="vcrit vs dimension",
                       zero_line=False)
    with open(svg_path, "w") as fh:
        fh.write(chart)

    print(f"d = {ds[0]}..{ds[-1]}: vcrit {vals[0]:.7f} -> {vals[-1]:.7f}")
    print(f"d->inf limit {limit:.7f}; gap at d={ds[-1]}: {vals[-1] - limit:.2e}")
    print(f"wrote {csv_path} and {svg_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
