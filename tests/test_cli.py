"""Command-line interface: output contracts, file formats, exit codes."""
import argparse
import hashlib
import os
import subprocess
import sys
import tracemalloc
from math import log2
from pathlib import Path
from xml.etree import ElementTree

import pytest

import diqkd_cc
from diqkd_cc import cglmp, cli, keyrate, polytope, quantum, scenario, svgplot
from diqkd_cc.cli import TABLE_HEADER, main


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------- idmax

def test_idmax_d2(capsys):
    code, out, _ = run(["idmax", "--d", "2"], capsys)
    assert code == 0
    assert out.count("2.828427124746") == 2
    diff = float(out.strip().splitlines()[-1].split("=")[1])
    assert diff <= 1e-10


def test_idmax_above_born_table_limit_fails_before_any_allocation(monkeypatch, capsys):
    # d = 20,000 would allocate 6.4 GB of amplitudes for the Born-rule line
    def refuse(d):
        raise AssertionError(f"I_d^max evaluated for d={d}")

    monkeypatch.setattr(cglmp, "idmax_closed_form", refuse)
    monkeypatch.setattr(quantum, "maximally_entangled_state", refuse)
    limit = quantum.BORN_TABLE_MAX_D
    assert limit == 512
    assert scenario._check_dimension(limit, quantum.BORN_TABLE_MAX_D, "Born-table") == limit
    for d in (limit + 1, 20_000):
        tracemalloc.start()
        try:
            code, out, err = run(["idmax", "--d", str(d)], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == ""
        assert err == f"error: d = {d} exceeds the Born-table limit d <= {limit}\n"
        assert peak < 100_000


@pytest.mark.parametrize("d", ["1", "0"])
@pytest.mark.parametrize("argv", [
    ["idmax"], ["vcrit"], ["vcrit", "--state", "cglmp"],
    ["curve", "--v-min", "0.6", "--v-max", "1.0", "--steps", "5", "--out", os.devnull],
    ["check-local", "--vtilde", "0.7"],
], ids=["idmax", "vcrit-max", "vcrit-cglmp", "curve", "check-local"])
def test_subcommands_reject_d_below_2(argv, d, capsys):
    # each subcommand leaves the check of --d to the library call it makes
    code, _, err = run([*argv, "--d", d], capsys)
    assert code == 1
    assert f"d must be >= 2, got {d}" in err


# ------------------------------------------------------------------- vcrit

def test_vcrit_analytic_d4(capsys):
    code, out, _ = run(["vcrit", "--d", "4"], capsys)
    assert code == 0
    assert out == "d=4 state=max method=analytic vcrit=0.81464\n"


def test_vcrit_lp_d2(capsys):
    code, out, _ = run(["vcrit", "--d", "2", "--state", "cglmp"], capsys)
    assert code == 0
    assert "method=lp" in out
    assert "vcrit=0.82999" in out


# ------------------------------------------------------------------- table

def test_table_d2_to_d3(capsys):
    code, out, _ = run(["table", "--d-min", "2", "--d-max", "3"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == TABLE_HEADER
    assert len(lines) == 3
    d2 = lines[1].split(",")
    d3 = lines[2].split(",")
    assert int(d2[0]) == 2 and int(d3[0]) == 3
    assert float(d2[1]) == pytest.approx(0.82999, abs=5e-5)
    assert float(d2[2]) == pytest.approx(float(d2[1]), abs=1e-6)  # branches agree at d=2
    assert float(d3[1]) == pytest.approx(0.82043, abs=5e-5)
    assert float(d3[2]) == pytest.approx(0.82101, abs=5e-5)
    assert out == ("d,vcrit_max,vcrit_cglmp\n"
                   "2,0.829994696478,0.829994696478\n"
                   "3,0.820427375146,0.821013947778\n")


def test_table_max_only_leaves_cglmp_column_empty(capsys):
    code, out, _ = run(["table", "--d-min", "2", "--d-max", "5", "--state", "max"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    values = []
    for line in lines[1:]:
        d, vmax, vcglmp = line.split(",")
        assert vcglmp == ""
        values.append(float(vmax))
    assert all(b < a for a, b in zip(values, values[1:]))


def test_table_writes_file_identically(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run(["table", "--d-min", "2", "--d-max", "4", "--state", "max"], capsys)
    assert code == 0
    code2, _, _ = run(["table", "--d-min", "2", "--d-max", "4", "--state", "max",
                       "--out", str(target)], capsys)
    assert code2 == 0
    assert target.read_text() == out


def test_table_analytic_sweep_is_pinned(capsys):
    # closed-form column for d = 2..1000, byte for byte
    code, out, err = run(["table", "--state", "max", "--d-min", "2", "--d-max", "1000"], capsys)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6751bbe6e8f411f2ccd49dec1d021dae9ce40c34f5fcbc6157acabb4dc29a862")


def test_table_rows_do_not_depend_on_their_neighbours(capsys):
    # the whole column is solved at once, yet each row is its own solve
    code, sweep, _ = run(["table", "--state", "max", "--d-min", "2", "--d-max", "1000"], capsys)
    assert code == 0
    code, part, err = run(["table", "--state", "max", "--d-min", "500", "--d-max", "510"], capsys)
    assert code == 0 and err == ""
    rows = sweep.splitlines(keepends=True)
    assert part == rows[0] + "".join(rows[499:510])


def test_table_rejects_bad_range(capsys):
    code, _, err = run(["table", "--d-min", "3", "--d-max", "2"], capsys)
    assert code == 1
    assert "d-min" in err


def test_table_cglmp_only_leaves_max_column_empty(capsys):
    code, out, _ = run(["table", "--d-min", "2", "--d-max", "3", "--state", "cglmp"], capsys)
    assert code == 0
    code_both, both, _ = run(["table", "--d-min", "2", "--d-max", "3"], capsys)
    assert code_both == 0
    expected = [f"{d},,{vcglmp}" for d, _, vcglmp in
                (line.split(",") for line in both.strip().splitlines()[1:])]
    assert out.strip().splitlines() == [TABLE_HEADER, *expected]


def test_table_tuned_state_d16(capsys):
    # d = 16 is under the visibility-LP limit, so the cglmp cell is filled
    code, out, err = run(["table", "--d-min", "16", "--d-max", "16"], capsys)
    assert code == 0
    assert out == f"{TABLE_HEADER}\n16,0.795079187433,0.796066603253\n"
    assert err == ""


def test_table_fills_tuned_state_cells_past_the_lp_limit(capsys):
    # the tuned state's V_L is an eigenvalue, so the visibility-LP limit no
    # longer empties a vcrit_cglmp cell
    code, out, err = run(["table", "--d-min", "32", "--d-max", "32"], capsys)
    assert code == 0 and err == ""
    assert out == f"{TABLE_HEADER}\n32,0.788792314448,0.789370421846\n"
    d = polytope.VISIBILITY_LP_MAX_D + 1
    code, out, err = run(["table", "--d-min", str(d), "--d-max", str(d)], capsys)
    assert code == 0 and err == ""
    _, vmax, vcglmp = out.strip().splitlines()[1].split(",")
    assert 0.75 < float(vcglmp) < float(vmax)


def test_table_checks_tuned_state_limit_before_any_eigensolve(monkeypatch, capsys):
    # every d of the column is checked before the first Toeplitz matrix
    def refuse(k, d):
        raise AssertionError(f"Toeplitz operator coefficients built for d={d}")

    monkeypatch.setattr(quantum, "_cglmp_weight", refuse)
    limit = quantum.TUNED_STATE_MAX_D
    code, out, err = run(["table", "--state", "cglmp", "--d-min", str(limit - 1),
                          "--d-max", str(limit + 1)], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: d = {limit + 1} exceeds the tuned-state limit d <= {limit}\n"


# ------------------------------------------------------------------- curve

def test_curve_csv_contract(tmp_path, capsys):
    target = tmp_path / "curve.csv"
    args = ["curve", "--d", "3", "--v-min", "0.8", "--v-max", "1.0",
            "--steps", "11", "--out", str(target)]
    code, _, _ = run(args, capsys)
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "V,qL,H_AE,H_AB,r_ub"
    assert len(lines) == 12
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert rows[0][0] == 0.8
    assert rows[-1][0] == 1.0
    assert rows[-1][4] == 1.0  # one dit at perfect visibility
    qLs = [row[1] for row in rows]
    assert all(b <= a + 1e-12 for a, b in zip(qLs, qLs[1:]))
    # reruns must be byte-identical
    rerun = tmp_path / "curve2.csv"
    run(args[:-1] + [str(rerun)], capsys)
    assert rerun.read_text() == target.read_text()


def test_curve_bits_unit(tmp_path, capsys):
    dits = tmp_path / "dits.csv"
    bits = tmp_path / "bits.csv"
    base = ["curve", "--d", "3", "--v-min", "0.9", "--v-max", "1.0", "--steps", "3"]
    run(base + ["--out", str(dits)], capsys)
    code, _, _ = run(base + ["--out", str(bits), "--unit", "bits"], capsys)
    assert code == 0
    dit_lines = dits.read_text().strip().splitlines()
    bit_lines = bits.read_text().strip().splitlines()
    assert bit_lines[0] == "V,qL,H_AE_bits,H_AB_bits,r_ub_bits"
    scale = log2(3)
    for dit_row, bit_row in zip(dit_lines[1:], bit_lines[1:]):
        d_vals = [float(v) for v in dit_row.split(",")]
        b_vals = [float(v) for v in bit_row.split(",")]
        assert b_vals[0] == d_vals[0]
        assert b_vals[1] == d_vals[1]
        for j in (2, 3, 4):
            assert b_vals[j] == pytest.approx(d_vals[j] * scale, abs=1e-9)


def test_curve_svg_output(tmp_path, capsys):
    csv = tmp_path / "curve.csv"
    svg = tmp_path / "curve.svg"
    code, _, _ = run(["curve", "--d", "3", "--v-min", "0.8", "--v-max", "1.0",
                      "--steps", "9", "--out", str(csv), "--svg", str(svg)], capsys)
    assert code == 0
    chart = svg.read_text()
    assert len(chart.encode()) < 5 * 1024
    assert chart.startswith("<svg")
    assert ">V<" in chart                 # x-axis label
    assert "r_ub (dits)" in chart         # y-axis label
    assert "stroke-dasharray" in chart    # zero line (curve crosses zero here)
    assert "<polyline" in chart


def test_curve_svg_on_a_float_narrow_axis_ends(tmp_path):
    # on an axis narrower than one float step the tick loop stopped advancing
    # and appended ticks until memory ran out; the child runs under a timeout
    # and a 1 GiB address-space limit, so a regression fails fast
    env = dict(os.environ, PYTHONPATH=str(Path(diqkd_cc.__file__).resolve().parents[1]))
    script = ("import resource\n"
              "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
              "from diqkd_cc.cli import main\n"
              "from diqkd_cc.svgplot import _ticks\n"
              "print(_ticks(0.5, 0.5000000000000001))\n"
              "raise SystemExit(main(['curve', '--d', '3', '--v-min', '0.5', '--v-max',\n"
              "                       '0.5000000000000001', '--steps', '2',\n"
              "                       '--out', 'c.csv', '--svg', 'c.svg']))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0.5, 0.5000000000000001]\n"
    chart = (tmp_path / "c.svg").read_text()
    assert chart.startswith("<svg") and "<polyline" in chart
    assert len(chart.encode()) < 5 * 1024


@pytest.mark.parametrize("xs, ys, message", [
    ([0.5, 0.5], [0.0, 1.0], "no range"),
    ([0.5, 0.6], [0.0, float("nan")], "finite"),
    ([0.5, 0.6], [0.0, float("inf")], "finite"),
], ids=["zero-width-x", "nan-y", "infinite-y"])
def test_line_chart_rejects_unplottable_series(xs, ys, message):
    # these raised ZeroDivisionError, wrote "nan" coordinates and raised
    # OverflowError
    with pytest.raises(ValueError, match=message):
        svgplot.line_chart(xs, ys, xlabel="V", ylabel="r")


def test_line_chart_escapes_its_labels():
    chart = svgplot.line_chart([0.0, 1.0], [0.0, 1.0], xlabel="a<b", ylabel="x & y",
                               title="<d> = 3")
    texts = [t.text for t in ElementTree.fromstring(chart).iter("{http://www.w3.org/2000/svg}text")]
    assert texts[0] == "<d> = 3"
    assert texts[-2:] == ["a<b", "x & y"]


def test_curve_lp_branch(tmp_path, capsys):
    target = tmp_path / "lp.csv"
    code, _, _ = run(["curve", "--d", "2", "--state", "cglmp", "--v-min", "0.8",
                      "--v-max", "1.0", "--steps", "5", "--out", str(target)], capsys)
    assert code == 0
    rows = [[float(v) for v in line.split(",")]
            for line in target.read_text().strip().splitlines()[1:]]
    assert rows[-1][4] == pytest.approx(1.0, abs=1e-6)  # d=2 tuned state is maximally entangled


def test_curve_requires_out(capsys):
    code, _, err = run(["curve", "--d", "2", "--v-min", "0.8", "--v-max", "1.0",
                        "--steps", "3"], capsys)
    assert code == 1
    assert "--out" in err


def test_curve_rejects_bad_grid(capsys):
    code, _, err = run(["curve", "--d", "2", "--v-min", "0.9", "--v-max", "0.8",
                        "--steps", "3", "--out", "x.csv"], capsys)
    assert code == 1
    assert "v_min" in err or "v-min" in err


@pytest.mark.parametrize("argv", [
    ["table", "--d-min", "2", "--d-max", "3"],
    ["curve", "--d", "2", "--v-min", "0.8", "--v-max", "1.0", "--steps", "3"],
], ids=["table", "curve"])
def test_unwritable_out_is_usage_error(argv, tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run([*argv, "--out", str(target)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: cannot write {target}: No such file or directory\n"


def test_curve_unwritable_svg_is_usage_error(tmp_path, capsys):
    # the CSV is written before the chart, and stays written
    csv_path, svg_path = tmp_path / "c.csv", tmp_path / "missing" / "c.svg"
    code, out, err = run(["curve", "--d", "2", "--v-min", "0.8", "--v-max", "1.0", "--steps",
                          "3", "--out", str(csv_path), "--svg", str(svg_path)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: cannot write {svg_path}: No such file or directory\n"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "V,qL,H_AE,H_AB,r_ub" and len(lines) == 4


# ------------------------------------------------------------- check-local

def test_check_local_inside_polytope(capsys):
    code, out, _ = run(["check-local", "--d", "3", "--vtilde", "0.69615"], capsys)
    assert code == 0
    assert "local" in out and "nonlocal" not in out
    assert "slack" in out
    # a negative zero prints as 0
    code, out, _ = run(["check-local", "--d", "3", "--vtilde", "-0"], capsys)
    assert code == 0
    assert out == "d=3 vtilde=0: local (slack 0.000e+00, tolerance 1e-09)\n"


def test_curve_negative_zero_start_prints_as_0(tmp_path, capsys):
    # as check-local's vtilde, a -0 grid start prints as 0
    target = tmp_path / "curve.csv"
    code, _, _ = run(["curve", "--d", "2", "--v-min", "-0", "--v-max", "1", "--steps", "3",
                      "--out", str(target)], capsys)
    assert code == 0
    assert target.read_text().splitlines()[1].split(",")[0] == "0"


def test_check_local_outside_polytope(capsys):
    code, out, _ = run(["check-local", "--d", "3", "--vtilde", "0.73"], capsys)
    assert code == 0
    assert "nonlocal" in out
    assert out == "d=3 vtilde=0.73: nonlocal (slack 4.637e-02, tolerance 1e-09)\n"


def test_check_local_d16_slack_is_white_noise_deficit(monkeypatch, capsys):
    # slack = 1 - V_L/vtilde on the noise segment, from one V_L = 2/I_16^max
    calls = []
    closed = cglmp.local_visibility_max_entangled

    def recorded(d):
        calls.append((d, closed(d)))
        return calls[-1][1]

    monkeypatch.setattr(cglmp, "local_visibility_max_entangled", recorded)
    code, out, _ = run(["check-local", "--d", "16", "--vtilde", "0.7"], capsys)
    assert code == 0
    assert out == "d=16 vtilde=0.7: nonlocal (slack 3.180e-02, tolerance 1e-09)\n"
    assert calls == [(16, 2.0 / cglmp.idmax_closed_form(16))]


def test_check_local_builds_no_table_past_the_lp_limit(lp_counter, monkeypatch, capsys):
    # the closed form has no limit on d: no state, Born table or LP is built
    def refuse(*args):
        raise AssertionError("state, Born table or visibility LP built")

    for name in ("maximally_entangled_state", "cglmp_born_table"):
        monkeypatch.setattr(quantum, name, refuse)
    monkeypatch.setattr(polytope, "local_residual", refuse)
    d = polytope.VISIBILITY_LP_MAX_D + 1
    code, out, err = run(["check-local", "--d", str(d), "--vtilde", "0.7"], capsys)
    assert code == 0 and err == ""
    assert out == f"d={d} vtilde=0.7: nonlocal (slack 3.726e-02, tolerance 1e-09)\n"
    code, out, err = run(["check-local", "--d", "2000", "--vtilde", "0.67"], capsys)
    assert code == 0 and err == ""
    assert out == "d=2000 vtilde=0.67: local (slack 0.000e+00, tolerance 1e-09)\n"
    assert lp_counter == []


def test_vcrit_above_tuned_state_limit_fails_fast(monkeypatch, capsys):
    def refuse(k, d):
        raise AssertionError(f"Toeplitz operator coefficients built for d={d}")

    monkeypatch.setattr(quantum, "_cglmp_weight", refuse)
    limit = quantum.TUNED_STATE_MAX_D
    assert limit == 1024
    for d in (limit + 1, 2000):
        code, out, err = run(["vcrit", "--d", str(d), "--state", "cglmp"], capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: d = {d} exceeds the tuned-state limit d <= {limit}\n"


def test_vcrit_tuned_state_runs_past_the_lp_limit(capsys):
    d = polytope.VISIBILITY_LP_MAX_D + 1
    code, out, err = run(["vcrit", "--d", str(d), "--state", "cglmp"], capsys)
    assert code == 0 and err == ""
    assert out == f"d={d} state=cglmp method=lp vcrit=0.77904\n"


def test_memory_error_is_numerical_failure(monkeypatch, capsys):
    # numpy reports an allocation it cannot make as a MemoryError; check-local
    # at a large d allocates the d/2 terms of I_d^max in array passes
    def exhausted(d):
        raise MemoryError("Unable to allocate an array")

    monkeypatch.setattr(cglmp, "idmax_closed_form", exhausted)
    code, out, err = run(["check-local", "--d", "3", "--vtilde", "0.7"], capsys)
    assert code == 2
    assert out == ""
    assert err == "numerical failure: Unable to allocate an array\n"


def test_memory_error_in_a_closed_form_pass_is_numerical_failure(monkeypatch, capsys):
    # table --state max evaluates I_d^max for a column above the series
    # cutoff in array passes
    def exhausted(ds):
        raise MemoryError("Unable to allocate an array")
        yield

    monkeypatch.setattr(cglmp, "_idmax_passes", exhausted)
    assert sum(d // 2 for d in range(2, 101)) >= cglmp._IDMAX_SERIES_MAX
    code, out, err = run(["table", "--state", "max", "--d-min", "2", "--d-max", "100"], capsys)
    assert code == 2
    assert out == ""
    assert err == "numerical failure: Unable to allocate an array\n"


def test_check_local_just_above_v_local_is_nonlocal(capsys):
    # within the LP's feasibility tolerance of V_L the LP printed slack 0 and
    # "local"; the closed form prints the exact slack, and CGLMP is violated
    vtilde = cglmp.local_visibility_max_entangled(2) * (1 + 2e-9)
    code, out, _ = run(["check-local", "--d", "2", "--vtilde", repr(vtilde)], capsys)
    assert code == 0
    assert out == "d=2 vtilde=0.707107: nonlocal (slack 2.000e-09, tolerance 1e-09)\n"
    ideal = quantum.cglmp_born_table(quantum.maximally_entangled_state(2))
    assert cglmp.cglmp_value(scenario.mix_with_white_noise(ideal, vtilde)) > cglmp.LOCAL_BOUND


def test_check_local_rejects_bad_visibility(capsys):
    code, _, err = run(["check-local", "--d", "3", "--vtilde", "1.5"], capsys)
    assert code == 1
    assert "vtilde" in err


def test_check_local_rejects_bad_visibility_before_the_closed_form(monkeypatch, capsys):
    # at d = 10^8 the closed form takes seconds; an invalid vtilde never reaches it
    def refuse(d):
        raise AssertionError(f"V_L evaluated for d={d}")

    monkeypatch.setattr(cglmp, "local_visibility_max_entangled", refuse)
    for vtilde in ("2", "nan", "-0.1"):
        code, out, err = run(["check-local", "--d", "100000000", "--vtilde", vtilde], capsys)
        assert code == 1 and out == ""
        assert err == f"error: --vtilde must lie in [0,1], got {float(vtilde)}\n"


# -------------------------------------------------------------- asymptotic

def test_asymptotic_constants(capsys):
    code, out, _ = run(["asymptotic"], capsys)
    assert code == 0
    assert "2.970" in out and "2.969814981686" in out
    assert "0.7538" in out and "0.753830945875" in out
    assert "2.239" in out and "2.238738436718" in out


# ------------------------------------------------------------------ parser

@pytest.mark.parametrize("args", [
    ["vcrit", "--d", "3", "--state", "cglmp"],
    ["table", "--d-min", "2", "--d-max", "3"],
    ["curve", "--d", "3", "--v-min", "0.8", "--v-max", "1.0", "--steps", "3", "--out", "x.csv"],
], ids=["vcrit", "table", "curve"])
def test_method_option_is_rejected(args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(args + ["--method", "lp"], capsys)
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --method lp" in err


@pytest.mark.parametrize("args", [
    ["vcrit", "--d", "3"],
    ["table", "--d-min", "2", "--d-max", "3"],
    ["curve", "--d", "3", "--v-min", "0.8", "--v-max", "1.0", "--steps", "3", "--out", "x.csv"],
    ["check-local", "--d", "3", "--vtilde", "0.7"],
], ids=["vcrit", "table", "curve", "check-local"])
def test_strategy_cap_option_is_rejected(args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(args + ["--strategy-cap", "5"], capsys)
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --strategy-cap 5" in err


def test_option_strings_are_pinned():
    """Each subcommand's options; a new setting needs a deliberate edit here."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))

    def options(p):
        return sorted(s for action in p._actions for s in action.option_strings)

    assert options(parser) == ["--help", "-h"]
    assert {name: options(p) for name, p in sub.choices.items()} == {
        "idmax": ["--d", "--help", "-h"],
        "vcrit": ["--d", "--help", "--state", "-h"],
        "table": ["--d-max", "--d-min", "--help", "--out", "--state", "-h"],
        "curve": ["--d", "--help", "--out", "--state", "--steps", "--svg", "--unit",
                  "--v-max", "--v-min", "-h"],
        "check-local": ["--d", "--help", "--vtilde", "-h"],
        "asymptotic": ["--help", "-h"],
    }


def test_package_exports_are_pinned():
    """The re-exported names; a new public name needs a deliberate edit here."""
    names = sorted(name for name, value in vars(diqkd_cc).items()
                   if not name.startswith("_") and not isinstance(value, type(diqkd_cc)))
    assert names == [
        "ANALYTIC_MAX_ENTANGLED", "BRANCHES", "BracketError", "CATALAN",
        "CcDecomposition", "CorrelationTable", "CriticalVisibility", "DecompositionInfeasible",
        "DeterministicStrategy", "KeyRatePoint", "LOCAL_BOUND", "LP_CGLMP_STATE",
        "LP_MAX_ENTANGLED", "MeasurementBasis", "PureState", "STRATEGY_CAP", "Scenario",
        "StrategyCapExceeded", "ValidationReport", "cglmp_born_table",
        "cglmp_coefficients", "cglmp_state", "cglmp_value", "critical_visibilities",
        "critical_visibility", "ec_term_general", "ec_term_isotropic", "enumerate_strategies",
        "fourier_basis", "idmax_asymptotic", "idmax_closed_form", "is_local",
        "keyrate_curve", "keyrate_point", "local_residual",
        "local_visibility", "local_visibility_max_entangled",
        "max_local_weight", "maximally_entangled_state", "mix_with_white_noise", "pa_term_cc",
        "shannon_base_d", "strategy_from_id", "strategy_table", "uniform_table", "validate",
        "vcrit_asymptotic",
    ]
    assert len(names) == 47


def test_no_subcommand_is_usage_error(capsys):
    assert run([], capsys)[0] == 1


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"], capsys)[0] == 1


# ---------------------------------------------------------- LP count, -O

@pytest.fixture
def lp_counter(monkeypatch):
    """Record the A_eq shape of every linprog call, from a cold strategy-matrix
    cache (the only cache on the LP path)."""
    polytope._strategy_matrix.cache_clear()
    calls = []
    solve = polytope.linprog

    def counted(*args, **kwargs):
        calls.append(kwargs["A_eq"].shape)
        return solve(*args, **kwargs)

    monkeypatch.setattr(polytope, "linprog", counted)
    return calls


def test_vcrit_tuned_state_solves_no_lp(lp_counter, capsys):
    code, out, _ = run(["vcrit", "--d", "3", "--state", "cglmp"], capsys)
    assert code == 0
    assert out == "d=3 state=cglmp method=lp vcrit=0.82101\n"
    assert lp_counter == []


def test_tuned_state_runs_on_amplitudes_alone(lp_counter, monkeypatch, capsys):
    # a cold vcrit builds no Born table and solves no LP: one d x d Toeplitz
    # eigensolve gives c_q and lambda_max, V_L = 2/lambda_max, and the rate
    # reads the key-setting column of D(k|x,y), the DFT of c_q. Every caller
    # reaches the eigensolve through quantum._tuned_eigenpair.
    def refuse(*args):
        raise AssertionError("Born table or visibility LP built")

    monkeypatch.setattr(quantum, "cglmp_born_table", refuse)
    monkeypatch.setattr(keyrate, "difference_visibility", refuse)
    eigensolves = []
    solve = quantum._top_eigenpair

    def counted(matrix):
        eigensolves.append(matrix.shape)
        return solve(matrix)

    monkeypatch.setattr(quantum, "_top_eigenpair", counted)
    code, out, _ = run(["vcrit", "--d", "3", "--state", "cglmp"], capsys)
    assert code == 0
    assert out == "d=3 state=cglmp method=lp vcrit=0.82101\n"
    assert eigensolves == [(3, 3)]
    eigensolves.clear()
    code, _, _ = run(["table", "--state", "cglmp", "--d-min", "2", "--d-max", "5"], capsys)
    assert code == 0
    assert eigensolves == [(2, 2), (3, 3), (4, 4), (5, 5)]
    eigensolves.clear()
    quantum.cglmp_state(4)
    assert eigensolves == [(4, 4)]
    assert lp_counter == []


def test_curve_tuned_state_solves_no_lp(lp_counter, tmp_path, capsys):
    target = tmp_path / "curve.csv"
    code, _, _ = run(["curve", "--d", "3", "--state", "cglmp", "--v-min", "0.6",
                      "--v-max", "1.0", "--steps", "41", "--out", str(target)], capsys)
    assert code == 0
    assert len(target.read_text().strip().splitlines()) == 42
    assert lp_counter == []


@pytest.mark.parametrize("argv", [
    ["table", "--d-min", "2", "--d-max", "7"],
    ["table", "--state", "max", "--d-min", "2", "--d-max", "50"],
    ["table", "--state", "cglmp", "--d-min", "2", "--d-max", "160"],
], ids=["both-d2-7", "max-d2-50", "cglmp-d2-160"])
def test_table_solves_no_lp(lp_counter, argv, monkeypatch, capsys):
    # one critical_visibilities call per column
    columns = []
    solve = keyrate.critical_visibilities

    def recorded(ds, branch):
        columns.append((ds, branch))
        return solve(ds, branch)

    monkeypatch.setattr(keyrate, "critical_visibilities", recorded)
    code, out, err = run(argv, capsys)
    assert code == 0 and err == ""
    ds = range(int(argv[-3]), int(argv[-1]) + 1)
    assert len(out.splitlines()) == len(ds) + 1
    state = argv[2] if argv[1] == "--state" else "both"
    assert columns == [(ds, branch) for name, branch in cli.BRANCH_OF_STATE.items()
                       if state in (name, "both")]
    assert lp_counter == []


def test_check_local_solves_no_lp(lp_counter, capsys):
    # check-local reads its slack from V_L = 2/I_d^max: no LP and no strategy
    # matrix (the visibility LP is its oracle in the tests below)
    code, out, _ = run(["check-local", "--d", "10", "--vtilde", "0.69"], capsys)
    assert code == 0
    assert out == "d=10 vtilde=0.69: nonlocal (slack 1.403e-02, tolerance 1e-09)\n"
    assert lp_counter == []
    assert polytope._strategy_matrix.cache_info().misses == 0


class _NoNumpy:
    """Stands in for a module's numpy: any use of it fails."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used")


def test_check_local_runs_no_numpy(monkeypatch, capsys):
    # V_L = 2/I_10^max has 5 terms, a column for the stdlib series: with the
    # array passes refused and numpy taken from every module of the package,
    # the command prints its usual line
    def refuse(ds):
        raise AssertionError("an array pass ran")

    monkeypatch.setattr(cglmp, "_idmax_passes", refuse)
    for module in (cglmp, keyrate, polytope, quantum, scenario):
        monkeypatch.setattr(module, "np", _NoNumpy())
    code, out, err = run(["check-local", "--d", "10", "--vtilde", "0.69"], capsys)
    assert (code, err) == (0, "")
    assert out == "d=10 vtilde=0.69: nonlocal (slack 1.403e-02, tolerance 1e-09)\n"


def test_table_output_does_not_depend_on_optimize_flag(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(diqkd_cc.__file__).resolve().parents[1]))
    outputs = []
    for flags in ([], ["-O"]):
        target = tmp_path / f"table{len(flags)}.csv"
        subprocess.run([sys.executable, *flags, "-m", "diqkd_cc.cli", "table", "--d-min", "2",
                        "--d-max", "6", "--out", str(target)], env=env, check=True, timeout=300)
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith(TABLE_HEADER.encode())


@pytest.mark.parametrize("argv", [
    [], ["idmax", "--d", "4"], ["vcrit", "--d", "4"], ["vcrit", "--d", "3", "--state", "cglmp"],
    ["table", "--d-min", "2", "--d-max", "5"],
    ["curve", "--d", "3", "--v-min", "0.8", "--v-max", "1.0", "--steps", "5", "--out", "c.csv",
     "--svg", "c.svg"],
    ["check-local", "--d", "10", "--vtilde", "0.69"], ["asymptotic"],
], ids=["import", "idmax", "vcrit-max", "vcrit-cglmp", "table", "curve-svg", "check-local",
        "asymptotic"])
def test_no_subcommand_imports_scipy(argv, tmp_path):
    # scipy is imported only where an LP is built or solved, and no command
    # solves one; each command runs in a fresh interpreter
    env = dict(os.environ, PYTHONPATH=str(Path(diqkd_cc.__file__).resolve().parents[1]))
    script = ("import sys\n"
              "def scipy():\n"
              "    return sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
              "import diqkd_cc\n"
              "assert not scipy(), scipy()\n"
              "from diqkd_cc import cli\n"
              "if sys.argv[1:]:\n"
              "    assert cli.main(sys.argv[1:]) == 0\n"
              "assert not scipy(), scipy()\n")
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("caller, expected", [(None, "1"), ("2", "2")],
                         ids=["default", "caller-set"])
def test_import_pins_openblas_to_one_thread(caller, expected):
    # OPENBLAS_NUM_THREADS is read when numpy loads, so this needs a fresh
    # interpreter; a value the caller set is kept
    env = dict(os.environ, PYTHONPATH=str(Path(diqkd_cc.__file__).resolve().parents[1]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if caller is not None:
        env["OPENBLAS_NUM_THREADS"] = caller
    script = ("import os\n"
              "import diqkd_cc\n"
              "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else -1\n"
              "print(os.environ['OPENBLAS_NUM_THREADS'], tasks)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    value, tasks = proc.stdout.split()
    assert value == expected
    if caller is None:
        if tasks == "-1":
            pytest.skip("no /proc/self/task to count the process's threads")
        assert tasks == "1"


def test_cli_import_freezes_the_heap_it_finds():
    # a plain package import leaves the collector alone; the CLI import
    # freezes what exists then, once, and later garbage is still collected
    env = dict(os.environ, PYTHONPATH=str(Path(diqkd_cc.__file__).resolve().parents[1]))
    script = ("import gc, weakref\n"
              "import diqkd_cc\n"
              "assert gc.get_freeze_count() == 0, gc.get_freeze_count()\n"
              "from diqkd_cc import cli\n"
              "frozen = gc.get_freeze_count()\n"
              "assert frozen > 0 and gc.isenabled()\n"
              "assert cli.main(['asymptotic']) == 0\n"
              "assert gc.get_freeze_count() == frozen, (gc.get_freeze_count(), frozen)\n"
              "class Node:\n"
              "    pass\n"
              "node = Node()\n"
              "node.self = node\n"
              "ref = weakref.ref(node)\n"
              "del node\n"
              "gc.collect()\n"
              "assert ref() is None\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_names_are_kept():
    # the benchmark reads the strategy-matrix cache through cli.polytope and
    # records keyrate.thread_count
    assert cli.polytope._strategy_matrix.cache_info().maxsize == 8
    assert keyrate.thread_count() == 1


#: SHA-256 of `table --d-min 2 --d-max 8` and `table --state cglmp --d-min 2
#: --d-max 16`, the gated outputs of the critical-visibility tables.
GATED_TABLES = {
    ("table", "--d-min", "2", "--d-max", "8"):
        "7e1a1f128af57fa9c91949ef7b8f4cc22be5a6335d2eb2c421ca7f6cf5291ece",
    ("table", "--state", "cglmp", "--d-min", "2", "--d-max", "16"):
        "3d2bd63b9589e803479d62a646fbb310c460f0b3c30f1d4af628fb0f4a16f807",
}


def test_gated_tables_do_not_depend_on_thread_count():
    # both tables in one interpreter per BLAS/OpenMP thread count, the two run
    # side by side
    env = dict(os.environ, PYTHONPATH=str(Path(diqkd_cc.__file__).resolve().parents[1]))
    script = ("import sys\nfrom diqkd_cc.cli import main\n"
              f"for argv in {[list(a) for a in GATED_TABLES]!r}:\n"
              "    assert main(argv) == 0\n")
    procs = [subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                              env=dict(env, OMP_NUM_THREADS=n, OPENBLAS_NUM_THREADS=n))
             for n in ("1", "2")]
    outputs = [proc.communicate(timeout=300)[0] for proc in procs]
    assert all(proc.returncode == 0 for proc in procs)
    assert outputs[0] == outputs[1]
    tables = outputs[0].decode().split(TABLE_HEADER + "\n")[1:]
    hashes = [hashlib.sha256((TABLE_HEADER + "\n" + t).encode()).hexdigest() for t in tables]
    assert hashes == list(GATED_TABLES.values())


#: SHA-256 of the CSV that `curve` writes for each argument list (plus --out):
#: tuned-state and analytic curves in dits, and a tuned-state curve in bits.
GATED_CURVES = {
    ("curve", "--d", "7", "--state", "cglmp", "--v-min", "0.6", "--v-max", "1.0",
     "--steps", "41"):
        "7a2646ad099c33b4fd75f3593ca434e7c793badb0253b8f491801c808db4b8a8",
    ("curve", "--d", "3", "--state", "max", "--v-min", "0.8", "--v-max", "1.0",
     "--steps", "41"):
        "69bd4d74bb67a906365b0c0d3210996112cdfd77509ae7f3d4d7a46125780495",
    ("curve", "--d", "3", "--state", "cglmp", "--v-min", "0.8", "--v-max", "1.0",
     "--steps", "41", "--unit", "bits"):
        "e818b8bdd897386e7c1a83a7b4bc3da3d57e4ee1d075f729b296ee9cbd2557e1",
}


@pytest.mark.parametrize("argv", list(GATED_CURVES), ids=["d7-cglmp", "d3-max", "d3-cglmp-bits"])
def test_gated_curves_are_pinned(argv, tmp_path, capsys):
    target = tmp_path / "curve.csv"
    code, _, _ = run([*argv, "--out", str(target)], capsys)
    assert code == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == GATED_CURVES[argv]


#: SHA-256 of the concatenated stdout of each group of commands: `idmax` for
#: d = 2..40, and `check-local` for d in {2, 3, 5, 10, 31} at vtilde = 0.5,
#: 0.69, 0.69615 (just below V_L(3) = 0.6961524...), 0.73 and 1.
GATED_LINES = {
    tuple(("idmax", "--d", str(d)) for d in range(2, 41)):
        "6c012baa49a7613172f7e02faf81f1153b183ebaf012ba76f694d03eb7ea6ccc",
    tuple(("check-local", "--d", str(d), "--vtilde", v)
          for d in (2, 3, 5, 10, 31) for v in ("0.5", "0.69", "0.69615", "0.73", "1")):
        "e89ee7d63af672b3f68c00b9e7a3b0235c1e0b2c84757864f7eaaa1ba9ab3ddc",
}


@pytest.mark.parametrize("argvs", list(GATED_LINES), ids=["idmax-d2-40", "check-local"])
def test_gated_lines_are_pinned(argvs, capsys):
    lines = []
    for argv in argvs:
        code, out, _ = run(list(argv), capsys)
        assert code == 0
        lines.append(out)
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == GATED_LINES[argvs]


#: (d, vtilde) of the gated check-local lines, then vtilde = 0, 0.02, ..., 1
#: at a few d.
CHECK_LOCAL_POINTS = sorted({(int(argv[2]), argv[4]) for argvs in GATED_LINES
                             for argv in argvs if argv[0] == "check-local"}
                            | {(d, f"{k / 50:g}") for d in (2, 3, 7, 16) for k in range(51)})


@pytest.mark.parametrize("d", sorted({d for d, _ in CHECK_LOCAL_POINTS}))
def test_check_local_agrees_with_the_visibility_lp(d, capsys):
    # the LP is the oracle: its slack on the mixed Born table matches the
    # printed closed form to the feasibility tolerance, with the same verdict
    ideal = quantum.cglmp_born_table(quantum.maximally_entangled_state(d))
    v_local = cglmp.local_visibility_max_entangled(d)
    tol = polytope.LP_FEASIBILITY_TOL
    for vtilde in (float(v) for e, v in CHECK_LOCAL_POINTS if e == d):
        code, out, _ = run(["check-local", "--d", str(d), "--vtilde", repr(vtilde)], capsys)
        assert code == 0
        slack = max(0.0, 1.0 - v_local / vtilde) if vtilde else 0.0
        verdict = "local" if slack <= tol else "nonlocal"
        assert out == f"d={d} vtilde={vtilde:g}: {verdict} (slack {slack:.3e}, tolerance {tol:g})\n"
        lp_local, lp_slack = polytope.local_residual(scenario.mix_with_white_noise(ideal, vtilde))
        assert abs(lp_slack - slack) <= tol
        assert lp_local == (verdict == "local")
