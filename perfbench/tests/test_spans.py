"""Span recorder: self-time arithmetic, fan-out parenting, and the outside-in
wrapping of the diqkd_cc layers."""

import pytest

import run
import spans
from diqkd_cc import cli, keyrate, polytope


def span(name, t0, t1, parent=None, tag=None):
    return [name, t0, t1, parent, tag]


def test_self_time_subtracts_the_union_of_overlapping_children():
    parent = span("keyrate.keyrate_curve", 0.0, 10.0)
    kids = [span("keyrate.keyrate_point", 1.0, 6.0, parent),
            span("keyrate.keyrate_point", 2.0, 8.0, parent),   # other worker thread
            span("keyrate.keyrate_point", 7.0, 9.0, parent)]
    assert spans.self_intervals(parent, kids) == [(0.0, 1.0), (9.0, 10.0)]
    assert spans.measure(spans.self_intervals(parent, kids)) == pytest.approx(2.0)
    # summed child durations (13) exceed the parent: the naive difference is negative
    assert 10.0 - sum(k[2] - k[1] for k in kids) < 0


def test_self_time_clips_children_to_the_parent():
    parent = span("cli.main", 0.0, 4.0)
    kids = [span("keyrate.keyrate_point", -1.0, 1.0, parent), span("x.y", 3.5, 5.0, parent)]
    assert spans.self_intervals(parent, kids) == [(1.0, 3.5)]


def test_tally_with_overlapping_worker_spans():
    main = span("cli.main", 0.0, 11.0)
    curve = span("keyrate.keyrate_curve", 0.5, 10.5, main)
    p1 = span("keyrate.keyrate_point", 0.5, 6.0, curve, keyrate.LP_CGLMP_STATE)
    p2 = span("keyrate.keyrate_point", 1.0, 10.0, curve, keyrate.LP_CGLMP_STATE)
    lp1 = span("polytope.linprog", 1.0, 5.5, p1, {"nit": 3, "cols": 244, "nnz": 900, "bytes": 10})
    lp2 = span("polytope.linprog", 2.0, 9.0, p2, {"nit": 4, "cols": 244, "nnz": 900, "bytes": 10})
    t = spans.tally([lp1, lp2, p1, p2, curve, main], solve_s=11.0)
    # LPs cover [1, 9] on the wall clock, although their durations add to 11.5
    assert t["polytope.lp_s"] == pytest.approx(8.0)
    # keyrate self intervals: [0.5, 1] + [5.5, 6] (thread 1), [1, 2] + [9, 10]
    # (thread 2) and the curve's own [10, 10.5]; their union is 3.5
    assert t["keyrate.point_s"] == pytest.approx(3.5)
    assert t["cli.self_s"] == pytest.approx(1.0)
    assert t["keyrate.rate_evals"] == 2
    m = spans.metrics([t])
    assert m["keyrate.curve_parallelism"] == pytest.approx((5.5 + 9.0) / 10.0)
    assert m["trace.coverage_frac"] == pytest.approx(10.0 / 11.0)
    assert m["polytope.lp_iters"] == 7
    assert m["polytope.lp_solve_ms_p50"] == pytest.approx(4500.0)
    assert m["polytope.lp_solve_ms_p90"] == pytest.approx(7000.0)


def test_layers_split_root_finding_from_the_evaluations_it_calls():
    root = span("keyrate.critical_visibility", 0.0, 10.0)
    point = span("keyrate.keyrate_point", 1.0, 9.0, root)
    lp = span("polytope.linprog", 2.0, 8.0, point, {"nit": 1, "cols": 2, "nnz": 2, "bytes": 8})
    born = span("quantum.born_table", 10.0, 11.0)
    helper = span("quantum.fourier_basis", 10.2, 10.4, born)   # inherits the caller's layer
    t = spans.tally([lp, point, root, helper, born], solve_s=11.0)
    assert t["keyrate.root_s"] == pytest.approx(2.0)
    assert t["keyrate.point_s"] == pytest.approx(2.0)
    assert t["polytope.lp_s"] == pytest.approx(6.0)
    assert t["quantum.born_s"] == pytest.approx(1.0)
    assert t["quantum.state_s"] == 0.0


def test_metrics_combine_calls_of_one_operation():
    a = spans.tally([span("polytope.linprog", 0.0, 1.0, None, {"nit": 5, "cols": 10, "nnz": 7, "bytes": 3})], 1.0)
    b = spans.tally([span("polytope.linprog", 0.0, 3.0, None, {"nit": 2, "cols": 30, "nnz": 4, "bytes": 3})], 4.0)
    m = spans.metrics([a, b])
    assert m["polytope.lp_solves"] == 2
    assert m["polytope.lp_iters"] == 7
    assert m["polytope.lp_cols_max"] == 30
    assert m["polytope.lp_nnz_max"] == 7
    assert m["polytope.lp_s"] == pytest.approx(4.0)
    assert m["trace.coverage_frac"] == pytest.approx(4.0 / 5.0)


@pytest.fixture
def recorder():
    rec = spans.Recorder()
    patches = spans.install(rec)
    try:
        yield rec
    finally:
        spans.uninstall(patches)


def test_install_wraps_by_name_imports(recorder):
    # keyrate imported max_local_weight by name: both bindings see the same wrapper
    assert keyrate.max_local_weight is polytope.max_local_weight
    assert polytope.max_local_weight.__wrapped__.__module__ == "diqkd_cc.polytope"
    assert callable(polytope._strategy_matrix.cache_info)


def test_uninstall_restores_every_binding():
    before = {name: getattr(keyrate, name) for name in ("max_local_weight", "keyrate_point", "marginal")}
    patches = spans.install(spans.Recorder())
    assert all(getattr(keyrate, n) is not f for n, f in before.items())
    spans.uninstall(patches)
    assert all(getattr(keyrate, n) is f for n, f in before.items())


def test_lp_solves_equal_cglmp_branch_rate_evaluations(recorder, capsys):
    polytope._strategy_matrix.cache_clear()
    assert cli.main(["vcrit", "--d", "3", "--state", "cglmp"]) == 0
    capsys.readouterr()
    cglmp_points = sum(1 for s in recorder.spans
                       if s[0] == "keyrate.keyrate_point" and s[4] == keyrate.LP_CGLMP_STATE)
    info = polytope._strategy_matrix.cache_info()
    t = spans.tally(recorder.spans, solve_s=1.0, cache_info=info)
    assert cglmp_points > 20
    assert t["polytope.lp_solves"] == cglmp_points
    assert t["polytope.lp_cols_max"] == 3**5 + 1
    assert t["polytope.lp_iters"] > 0
    assert (info.hits, info.misses) == (cglmp_points - 1, 1)
    assert spans.metrics([t])["keyrate.lp_per_vcrit"] == cglmp_points


def test_worker_spans_are_parented_to_the_open_curve(recorder, tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert cli.main(["curve", "--d", "3", "--state", "cglmp", "--v-min", "0.6",
                     "--v-max", "1", "--steps", "8", "--out", str(out)]) == 0
    points = [s for s in recorder.spans if s[0] == "keyrate.keyrate_point"]
    assert len(points) == 8
    assert all(s[3] is not None and s[3][0] == "keyrate.keyrate_curve" for s in points)
    t = spans.tally(recorder.spans, solve_s=1.0)
    assert t["polytope.lp_solves"] == 8
    assert spans.metrics([t])["keyrate.curve_parallelism"] > 0.5


def test_tally_reports_exactly_the_per_layer_metrics():
    names = set(spans.metrics([spans.tally([], solve_s=1.0)])) | {"trace_overhead_frac"}
    assert names == set(run.metric_units("per_layer"))
