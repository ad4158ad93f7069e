"""Recompute the critical-visibility table and compare against the reference
values (closed form 2/I_d^max for the maximally entangled state, the top
Toeplitz eigenvalue for the tuned state). Prints a per-cell report; nonzero
exit if any cell is off.

Usage: python scripts/reproduce_table.py [--d-max 8] [--out table.csv]
"""
import argparse
import io
import sys
from contextlib import redirect_stdout

from diqkd_cc import cli

REFERENCE = {
    # d: (max-entangled, tuned state)
    2: (0.82999, 0.82999),
    3: (0.82043, 0.82101),
    4: (0.81464, 0.81550),
    5: (0.81064, 0.81165),
    6: (0.80766, 0.80874),
    7: (0.80532, 0.80644),
    8: (0.80341, 0.80455),
}
TOLERANCE = 5e-5


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d-max", type=int, default=8)
    ap.add_argument("--out", default=None, help="also write the computed table as CSV")
    args = ap.parse_args()

    csv = io.StringIO()
    with redirect_stdout(csv):
        rc = cli.main(["table", "--d-min", "2", "--d-max", str(args.d_max)])
    if rc:
        return rc

    worst = 0.0
    print(f"{'d':>2}  {'vcrit_max':>12}  {'ref':>8}  {'vcrit_cglmp':>12}  {'ref':>8}")
    for line in csv.getvalue().splitlines()[1:]:
        d, v_max, v_cglmp = line.split(",")
        d, v_max, v_cglmp = int(d), float(v_max), float(v_cglmp)
        ref = REFERENCE.get(d)
        if ref is not None:
            worst = max(worst, abs(v_max - ref[0]), abs(v_cglmp - ref[1]))
        ref_str = (f"{ref[0]:8.5f}", f"{ref[1]:8.5f}") if ref else ("       -", "       -")
        print(f"{d:>2}  {v_max:12.7f}  {ref_str[0]}  {v_cglmp:12.7f}  {ref_str[1]}")

    print(f"\nworst deviation from reference: {worst:.2e} (tolerance {TOLERANCE:g})")
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(csv.getvalue())
        print(f"wrote {args.out}")
    return 0 if worst <= TOLERANCE else 1


if __name__ == "__main__":
    sys.exit(main())
