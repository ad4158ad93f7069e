"""Output checks for the benchmark workloads.

Each check returns a list of problems; an empty list means the output passed.
Reference quantities (V_L, 2/I_d^max, the asymptotic critical visibility) are
passed in by the caller so that the checks themselves stay pure.
"""
from __future__ import annotations

import re
import xml.etree.ElementTree as ET

TABLE_HEADER = "d,vcrit_max,vcrit_cglmp"
CURVE_HEADER = "V,qL,H_AE,H_AB,r_ub"

#: Agreement with the paper's table (same tolerance as scripts/reproduce_table.py).
PAPER_TOL = 5e-5
#: Agreement with the CSV the seed commit printed (12 significant digits).
SEED_TOL = 1e-8
#: qL against min(1, (1 - V)/(1 - V_L)).
QL_TOL = 1e-8
#: r_ub against H_AE - H_AB, both printed at 12 significant digits.
RUB_TOL = 1e-11
#: V column against the requested grid.
GRID_TOL = 1e-11

_LOCAL_LINE = re.compile(r"^d=(\d+) vtilde=(\S+): (local|nonlocal) \(slack (\S+),")


def parse_csv(text: str, header: str) -> list[list[str]]:
    """Rows of a CSV with the given header; every row has one cell per column."""
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"header {lines[0] if lines else ''!r} != {header!r}")
    rows = [ln.split(",") for ln in lines[1:]]
    width = header.count(",") + 1
    for ln, row in zip(lines[1:], rows):
        if len(row) != width:
            raise ValueError(f"row {ln!r} has {len(row)} cells, the header {width}")
    return rows


def _cells(text: str, header: str, problems: list[str]) -> dict[int, list[str]]:
    try:
        rows = parse_csv(text, header)
    except ValueError as exc:
        problems.append(str(exc))
        return {}
    return {int(r[0]): r[1:] for r in rows}


def check_table(text: str, seed_text: str, paper: dict[int, tuple[float, float]]) -> list[str]:
    """`table --d-min 2 --d-max 7`: every cell within PAPER_TOL of the paper
    and within SEED_TOL of the seed commit's CSV."""
    problems: list[str] = []
    got = _cells(text, TABLE_HEADER, problems)
    want = _cells(seed_text, TABLE_HEADER, problems)
    if problems:
        return problems
    if sorted(got) != sorted(want):
        return [f"dimensions {sorted(got)} != {sorted(want)}"]
    for d, cells in got.items():
        for col, (cell, seed_cell) in enumerate(zip(cells, want[d])):
            v = float(cell)
            if abs(v - float(seed_cell)) > SEED_TOL:
                problems.append(f"d={d} col={col}: {cell} vs seed {seed_cell}")
            if d in paper and abs(v - paper[d][col]) > PAPER_TOL:
                problems.append(f"d={d} col={col}: {cell} vs paper {paper[d][col]}")
    return problems


def check_sweep(text: str, seed_text: str, v_inf: float) -> list[str]:
    """`table --state max`: values strictly decrease, stay above the d->inf
    critical visibility, and match the seed within SEED_TOL."""
    problems: list[str] = []
    got = _cells(text, TABLE_HEADER, problems)
    want = _cells(seed_text, TABLE_HEADER, problems)
    if problems:
        return problems
    if sorted(got) != sorted(want):
        return [f"dimensions {min(got, default=None)}..{max(got, default=None)} differ from the seed"]
    prev = None
    for d in sorted(got):
        cell, empty = got[d]
        v = float(cell)
        if empty:
            problems.append(f"d={d}: unexpected cglmp cell {empty!r}")
        if abs(v - float(want[d][0])) > SEED_TOL:
            problems.append(f"d={d}: {cell} vs seed {want[d][0]}")
        if v <= v_inf:
            problems.append(f"d={d}: {cell} not above the asymptotic {v_inf:.12g}")
        if prev is not None and not v < prev:
            problems.append(f"d={d}: {cell} does not decrease from {prev:.12g}")
        prev = v
    return problems


def check_curve(text: str, svg_text: str | None, grid: list[float], v_local: float) -> list[str]:
    """`curve`: V on the grid, qL = min(1, (1 - V)/(1 - V_L)), r_ub = H_AE - H_AB,
    and an SVG that parses with one polyline of len(grid) points."""
    problems: list[str] = []
    try:
        rows = [[float(c) for c in r] for r in parse_csv(text, CURVE_HEADER)]
    except ValueError as exc:
        return [str(exc)]
    if len(rows) != len(grid):
        return [f"{len(rows)} rows for a {len(grid)}-point grid"]
    for want_v, (V, qL, h_ae, h_ab, r_ub) in zip(grid, rows):
        if abs(V - want_v) > GRID_TOL:
            problems.append(f"V={V!r} off the grid point {want_v!r}")
        want_ql = min(1.0, (1.0 - V) / (1.0 - v_local))
        if abs(qL - want_ql) > QL_TOL:
            problems.append(f"V={V}: qL={qL!r} vs {want_ql!r}")
        if abs(r_ub - (h_ae - h_ab)) > RUB_TOL:
            problems.append(f"V={V}: r_ub={r_ub!r} vs H_AE-H_AB={h_ae - h_ab!r}")
    if svg_text is None:
        return problems + ["SVG missing"]
    try:
        root = ET.fromstring(svg_text)
    except ET.ParseError as exc:
        return problems + [f"SVG does not parse: {exc}"]
    lines = root.findall("{http://www.w3.org/2000/svg}polyline")
    if root.tag != "{http://www.w3.org/2000/svg}svg" or len(lines) != 1:
        problems.append("SVG is not one svg element with one polyline")
    elif len(lines[0].get("points", "").split()) != len(grid):
        problems.append("SVG polyline point count differs from the grid")
    return problems


def check_local(stdout: str, d: int, vtilde: float, v_local: float) -> list[str]:
    """`check-local`: the verdict is "local" exactly when vtilde <= 2/I_d^max."""
    lines = stdout.splitlines()
    m = _LOCAL_LINE.match(lines[0]) if len(lines) == 1 else None
    if m is None:
        return [f"unexpected output {stdout!r}"]
    problems = []
    if int(m.group(1)) != d or float(m.group(2)) != vtilde:
        problems.append(f"echo d={m.group(1)} vtilde={m.group(2)} != d={d} vtilde={vtilde}")
    want = "local" if vtilde <= v_local else "nonlocal"
    if m.group(3) != want:
        problems.append(f"vtilde={vtilde}: {m.group(3)} but 2/I_d^max={v_local:.12g} says {want}")
    return problems
