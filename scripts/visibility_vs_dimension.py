"""Critical visibility of the maximally entangled and the tuned state as d
grows, against the d->infinity limit 1/(2 - pi^2/(16*Catalan)) ~ 0.753831 of
the maximally entangled one.

Neither column solves an LP (the tuned state's V_L is 2/lambda_max of its
Toeplitz operator), so large d is cheap. Writes a CSV and an SVG (the
maximally entangled column), prints how far its last point still sits above
the limit, and prints the first d at which the tuned state's critical
visibility falls below the maximally entangled one's in the printed 12
digits (d = 69; at d = 2 the two roots are 1 ulp apart and print alike).

Usage: python scripts/visibility_vs_dimension.py [--d-max 100] [--outdir results]
"""
import argparse
import os
import sys

from diqkd_cc import LP_CGLMP_STATE, critical_visibilities, vcrit_asymptotic
from diqkd_cc.svgplot import line_chart


def cell(v: float) -> str:
    """v as the CSV prints it: 12 significant digits."""
    return f"{v:.12g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d-max", type=int, default=100)
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()
    os.makedirs(args.outdir, exist_ok=True)

    limit = vcrit_asymptotic()
    ds = list(range(2, args.d_max + 1))
    vals = [r.v_crit for r in critical_visibilities(ds)]
    tuned = [r.v_crit for r in critical_visibilities(ds, LP_CGLMP_STATE)]

    csv_path = os.path.join(args.outdir, "vcrit_vs_d.csv")
    with open(csv_path, "w") as fh:
        fh.write("d,vcrit_max,vcrit_cglmp,limit\n")
        for d, v, t in zip(ds, vals, tuned):
            fh.write(f"{d},{cell(v)},{cell(t)},{cell(limit)}\n")

    svg_path = os.path.join(args.outdir, "vcrit_vs_d.svg")
    chart = line_chart([float(d) for d in ds], vals, xlabel="d",
                       ylabel="critical visibility", title="vcrit vs dimension",
                       zero_line=False)
    with open(svg_path, "w") as fh:
        fh.write(chart)

    print(f"d = {ds[0]}..{ds[-1]}: vcrit {vals[0]:.7f} -> {vals[-1]:.7f}")
    print(f"d->inf limit {limit:.7f}; gap at d={ds[-1]}: {vals[-1] - limit:.2e}")
    below = [(d, t - v) for d, v, t in zip(ds, vals, tuned) if float(cell(t)) < float(cell(v))]
    if below:
        d, gap = below[0]
        print(f"tuned state below the maximally entangled one from d = {d} "
              f"(vcrit_cglmp - vcrit_max = {gap:.2e})")
    else:
        print(f"tuned state not below the maximally entangled one for d <= {ds[-1]}")
    print(f"wrote {csv_path} and {svg_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
