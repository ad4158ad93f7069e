"""Command-line front end.

Subcommands: idmax, vcrit, table, curve, check-local, asymptotic.
Exit codes: 0 success, 1 usage/validation error (an output path that cannot
be written is one), 2 numerical failure.
CSV output is deterministic: `.` decimals, comma delimiter, Unix newlines.
"""
from __future__ import annotations

import argparse
import gc
import sys
from math import log2

from . import cglmp, keyrate, polytope, quantum, svgplot
from .scenario import _check_dimension

TABLE_HEADER = "d,vcrit_max,vcrit_cglmp"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for numerical
    failure, so remap usage problems to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


#: The state fixes the method: closed form 2/I_d^max for the maximally
#: entangled state, 2/lambda_max of the Toeplitz CGLMP operator for the tuned
#: state. The tuned state's branch label and vcrit's method=lp are historical:
#: the visibility LP now certifies that value in the tests.
BRANCH_OF_STATE = {"max": keyrate.ANALYTIC_MAX_ENTANGLED, "cglmp": keyrate.LP_CGLMP_STATE}


def _write_text(path: str | None, text: str) -> None:
    """text to stdout, or to the file at path; a path that cannot be written
    is a usage error (ValueError), not a numerical failure."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def cmd_idmax(args) -> int:
    d = _check_dimension(args.d, quantum.BORN_TABLE_MAX_D, "Born-table")
    closed = cglmp.idmax_closed_form(d)
    table = quantum.cglmp_born_table(quantum.maximally_entangled_state(d))
    born = cglmp.cglmp_value(table)
    print(f"d = {d}")
    print(f"I_max (closed form) = {closed:.12f}")
    print(f"I_max (Born rule)   = {born:.12f}")
    print(f"difference          = {abs(closed - born):.3e}")
    return 0


def cmd_vcrit(args) -> int:
    d = args.d
    branch = BRANCH_OF_STATE[args.state]
    result = keyrate.critical_visibility(d, branch)
    method = "analytic" if branch == keyrate.ANALYTIC_MAX_ENTANGLED else "lp"
    print(f"d={d} state={args.state} method={method} vcrit={result.v_crit:.5f}")
    return 0


def _vcrit_column(ds: range, branch: str) -> list[str]:
    """One table column from one critical_visibilities call."""
    return [f"{r.v_crit:.12g}" for r in keyrate.critical_visibilities(ds, branch)]


def cmd_table(args) -> int:
    if args.d_min < 2 or args.d_max < args.d_min:
        raise ValueError(f"need 2 <= d-min <= d-max, got [{args.d_min}, {args.d_max}]")
    ds = range(args.d_min, args.d_max + 1)
    columns = [_vcrit_column(ds, branch) if args.state in (state, "both") else [""] * len(ds)
               for state, branch in BRANCH_OF_STATE.items()]
    lines = [TABLE_HEADER, *(",".join([str(d), *cells]) for d, *cells in zip(ds, *columns))]
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_curve(args) -> int:
    d = args.d
    branch = BRANCH_OF_STATE[args.state]
    points = keyrate.keyrate_curve(d, branch, args.v_min, args.v_max, args.steps)
    scale = log2(d) if args.unit == "bits" else 1.0
    suffix = "_bits" if args.unit == "bits" else ""
    lines = [f"V,qL,H_AE{suffix},H_AB{suffix},r_ub{suffix}"]
    for pt in points:
        lines.append(",".join(f"{v:.12g}" for v in (
            pt.V, pt.qL, pt.pa_term * scale, pt.ec_term * scale, pt.r_ub * scale)))
    _write_text(args.out, "\n".join(lines) + "\n")
    if args.svg:
        chart = svgplot.line_chart(
            [pt.V for pt in points], [pt.r_ub * scale for pt in points],
            xlabel="V", ylabel=f"r_ub ({args.unit})",
            title=f"d={d}, {branch}")
        _write_text(args.svg, chart)
    return 0


def cmd_check_local(args) -> int:
    """The maximally entangled table mixed to visibility vtilde is local iff
    vtilde <= V_L = 2/I_d^max (CGLMP is the tight Bell functional for it), so
    the least white-noise weight that makes it local, the slack, is
    max(0, 1 - V_L/vtilde). The visibility LP gives the same slack; the tests
    keep it as the oracle."""
    d = args.d
    vtilde = args.vtilde + 0.0  # -0.0 + 0.0 is 0.0: -0 prints as 0
    if not 0.0 <= vtilde <= 1.0:
        raise ValueError(f"--vtilde must lie in [0,1], got {vtilde}")
    v_local = cglmp.local_visibility_max_entangled(d)
    slack = max(0.0, 1.0 - v_local / vtilde) if vtilde > 0.0 else 0.0
    verdict = "local" if slack <= polytope.LP_FEASIBILITY_TOL else "nonlocal"
    print(f"d={d} vtilde={vtilde:g}: {verdict} "
          f"(slack {slack:.3e}, tolerance {polytope.LP_FEASIBILITY_TOL:g})")
    return 0


def cmd_asymptotic(args) -> int:
    i_max = cglmp.idmax_asymptotic()
    v_crit = keyrate.vcrit_asymptotic()
    print(f"I_max  (d->inf) = {i_max:.3f}  ({i_max:.12f})")
    print(f"V_crit (d->inf) = {v_crit:.4f}  ({v_crit:.12f})")
    print(f"I_crit (d->inf) = {v_crit * i_max:.3f}  ({v_crit * i_max:.12f})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="diqkd-cc",
                     description="Upper bounds on device-independent QKD key rates "
                                 "from convex-combination attacks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("idmax", help="maximal Bell value on the maximally entangled state")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_idmax)

    p = sub.add_parser("vcrit", help="critical visibility for one dimension")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--state", choices=("max", "cglmp"), default="max")
    p.set_defaults(func=cmd_vcrit)

    p = sub.add_parser("table", help="critical-visibility table over a dimension range")
    p.add_argument("--d-min", type=int, required=True)
    p.add_argument("--d-max", type=int, required=True)
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.add_argument("--state", choices=("max", "cglmp", "both"), default="both")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("curve", help="key-rate bound on a visibility grid")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--state", choices=("max", "cglmp"), default="max")
    p.add_argument("--v-min", type=float, required=True)
    p.add_argument("--v-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--svg", default=None, help="optional SVG line-chart path")
    p.add_argument("--unit", choices=("dits", "bits"), default="dits")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("check-local", help="local-polytope membership of the mixed table")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--vtilde", type=float, required=True)
    p.set_defaults(func=cmd_check_local)

    p = sub.add_parser("asymptotic", help="d->infinity constants")
    p.set_defaults(func=cmd_asymptotic)

    return parser


#: Built once at import: argparse's first message lookup imports `locale`,
#: which then counts towards start-up rather than each main() call.
PARSER = build_parser()

# numpy, the package and the parser (about 22,000 gc-tracked objects) live
# until the process exits, and interpreter shutdown runs full collections
# over all of them. From cli.main's return to the process's exit took a
# median 23-43 ms per command on a 2-core x86-64 machine, and 6-9 ms with
# them frozen. Frozen objects are skipped by every later collection; objects
# made after this line are collected as usual. The call is O(1). It is here,
# not in the package: a plain `import diqkd_cc` keeps its collector as it is.
gc.freeze()


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
