"""Output oracles: each accepts the program's real output on d = 3 inputs and
rejects a perturbed copy. Also pins the seed-derived workload inputs."""
import pytest

import oracles
import run
from diqkd_cc import cglmp, cli, keyrate

#: V_L(d=3, cglmp) as the seed commit computed it.
V_LOCAL_3 = 0.686140661635


def cli_out(args, capsys) -> str:
    assert cli.main(args) == 0
    return capsys.readouterr().out


def replace_cell(text: str, row: int, col: int, new: str) -> str:
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = new
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def shifted(cell: str, delta: float) -> str:
    return f"{float(cell) + delta:.12g}"


# ------------------------------------------------------------------ table

@pytest.fixture(scope="module")
def table_d3(tmp_path_factory):
    out = tmp_path_factory.mktemp("t") / "t.csv"
    assert cli.main(["table", "--d-min", "3", "--d-max", "3", "--out", str(out)]) == 0
    return out.read_text()


def test_table_oracle_accepts_program_output(table_d3):
    assert oracles.check_table(table_d3, table_d3, run.paper_table()) == []


@pytest.mark.parametrize("col", [1, 2])
def test_table_oracle_rejects_a_cell_off_the_seed(table_d3, col):
    bad = replace_cell(table_d3, 1, col, shifted(table_d3.splitlines()[1].split(",")[col], 2e-8))
    assert oracles.check_table(bad, table_d3, run.paper_table())


def test_table_oracle_rejects_a_cell_off_the_paper(table_d3):
    bad = replace_cell(table_d3, 1, 2, shifted(table_d3.splitlines()[1].split(",")[2], 1e-4))
    # the same shifted value as its own seed: only the paper check can catch it
    problems = oracles.check_table(bad, bad, run.paper_table())
    assert problems and all("paper" in p for p in problems)


def test_table_oracle_rejects_missing_rows(table_d3):
    assert oracles.check_table(table_d3.splitlines()[0] + "\n", table_d3, run.paper_table())
    # the right header, but the cglmp cell of the d=3 row is gone
    truncated = table_d3.splitlines()[0] + "\n" + table_d3.splitlines()[1].rsplit(",", 1)[0] + "\n"
    assert oracles.check_table(truncated, table_d3, run.paper_table())


def test_seed_tables_pass_their_oracles():
    seed = (run.DATA / "vcrit_table_seed.csv").read_text()
    assert oracles.check_table(seed, seed, run.paper_table()) == []
    sweep = (run.DATA / "analytic_sweep_seed.csv").read_text()
    assert oracles.check_sweep(sweep, sweep, keyrate.vcrit_asymptotic()) == []


# ------------------------------------------------------------------ sweep

@pytest.fixture(scope="module")
def sweep_small(tmp_path_factory):
    out = tmp_path_factory.mktemp("s") / "s.csv"
    assert cli.main(["table", "--state", "max", "--d-min", "2", "--d-max", "12", "--out", str(out)]) == 0
    return out.read_text()


def test_sweep_oracle_accepts_program_output(sweep_small):
    assert oracles.check_sweep(sweep_small, sweep_small, keyrate.vcrit_asymptotic()) == []


def test_sweep_oracle_rejects_a_value_off_the_seed(sweep_small):
    bad = replace_cell(sweep_small, 2, 1, shifted(sweep_small.splitlines()[2].split(",")[1], 2e-8))
    assert oracles.check_sweep(bad, sweep_small, keyrate.vcrit_asymptotic())


def test_sweep_oracle_rejects_a_non_decreasing_column(sweep_small):
    rows = sweep_small.splitlines()
    bad = replace_cell(sweep_small, 3, 1, rows[2].split(",")[1])
    problems = oracles.check_sweep(bad, bad, keyrate.vcrit_asymptotic())
    assert any("does not decrease" in p for p in problems)


def test_sweep_oracle_rejects_values_below_the_limit(sweep_small):
    problems = oracles.check_sweep(sweep_small, sweep_small, 0.81)
    assert any("not above" in p for p in problems)


# ------------------------------------------------------------------ curve

GRID_3 = [0.6 + 0.05 * i for i in range(9)]


@pytest.fixture(scope="module")
def curve_d3(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("c")
    assert cli.main(["curve", "--d", "3", "--state", "cglmp", "--v-min", "0.6", "--v-max", "1",
                     "--steps", "9", "--out", str(tmp / "c.csv"), "--svg", str(tmp / "c.svg")]) == 0
    return (tmp / "c.csv").read_text(), (tmp / "c.svg").read_text()


def test_curve_oracle_accepts_program_output(curve_d3):
    csv, svg = curve_d3
    assert [float(r.split(",")[1]) for r in csv.splitlines()[1:3]] == [1.0, 1.0]  # both regimes
    assert oracles.check_curve(csv, svg, GRID_3, V_LOCAL_3) == []


@pytest.mark.parametrize("col,delta", [(1, 1e-6), (4, 1e-9), (0, 1e-6)])
def test_curve_oracle_rejects_a_perturbed_column(curve_d3, col, delta):
    csv, svg = curve_d3
    bad = replace_cell(csv, 7, col, shifted(csv.splitlines()[7].split(",")[col], delta))
    assert oracles.check_curve(bad, svg, GRID_3, V_LOCAL_3)


def test_curve_oracle_rejects_a_broken_or_missing_svg(curve_d3):
    csv, svg = curve_d3
    assert oracles.check_curve(csv, svg[: len(svg) // 2], GRID_3, V_LOCAL_3)
    assert oracles.check_curve(csv, None, GRID_3, V_LOCAL_3)
    assert oracles.check_curve(csv, svg.replace("<polyline", "<path"), GRID_3, V_LOCAL_3)


# ------------------------------------------------------------------ check-local

@pytest.mark.parametrize("delta", [-0.005, 0.005])
def test_local_oracle_accepts_and_rejects_a_flipped_verdict(capsys, delta):
    v_local = 2.0 / cglmp.idmax_closed_form(3)
    vtilde = round(v_local + delta, 4)
    out = cli_out(["check-local", "--d", "3", "--vtilde", str(vtilde)], capsys)
    assert oracles.check_local(out, 3, vtilde, v_local) == []
    verdict = "local" if delta < 0 else "nonlocal"
    flipped = out.replace(f": {verdict} (", ": " + ("nonlocal" if delta < 0 else "local") + " (")
    assert oracles.check_local(flipped, 3, vtilde, v_local)
    assert oracles.check_local(out.replace("d=3", "d=4"), 3, vtilde, v_local)
    assert oracles.check_local("", 3, vtilde, v_local)


# ------------------------------------------------------------------ inputs

@pytest.mark.parametrize("seed", range(50))
def test_curve_grid_shift_is_under_one_step(seed):
    v_min, v_max, grid = run.curve_grid(seed)
    step = 0.4 / 40
    assert 0.6 - step < float(v_min) <= 0.6 and float(v_max) <= 1.0
    assert grid[0] == float(v_min) and grid[-1] == float(v_max) and len(grid) == 41
    assert run.curve_grid(seed) == (v_min, v_max, grid)


def test_local_vtildes_sit_either_side_of_the_local_visibility():
    v_local = 2.0 / cglmp.idmax_closed_form(run.LOCAL_D)
    lo, hi = (float(v) for v in run.LOCAL_VTILDES)
    assert lo <= v_local - 0.005 and hi >= v_local + 0.005
