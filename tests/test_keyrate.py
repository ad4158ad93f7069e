"""Key-rate bound assembly: entropies, analytic and LP branches, the local
visibility, critical visibilities, grids, and the d->infinity limit."""
import math
import tracemalloc
from math import log2, pi, sqrt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diqkd_cc import (
    ANALYTIC_MAX_ENTANGLED,
    BRANCHES,
    CATALAN,
    LP_CGLMP_STATE,
    LP_MAX_ENTANGLED,
    BracketError,
    KeyRatePoint,
    cglmp_value,
    critical_visibilities,
    critical_visibility,
    ec_term_general,
    ec_term_isotropic,
    idmax_asymptotic,
    idmax_closed_form,
    keyrate_curve,
    keyrate_point,
    local_visibility,
    local_visibility_max_entangled,
    max_local_weight,
    mix_with_white_noise,
    pa_term_cc,
    shannon_base_d,
    uniform_table,
    vcrit_asymptotic,
)
from diqkd_cc import keyrate, polytope, quantum
from diqkd_cc.keyrate import _roots
from diqkd_cc.quantum import cglmp_born_table, cglmp_state, maximally_entangled_state
from diqkd_cc.scenario import CorrelationTable, Scenario


def _ideal_table(d: int, branch: str):
    """The branch's ideal (V = 1) Born table."""
    state = cglmp_state(d) if branch == LP_CGLMP_STATE else maximally_entangled_state(d)
    return cglmp_born_table(state)


# --------------------------------------------------------------- entropies

@pytest.mark.parametrize("d", [2, 3, 6])
def test_shannon_uniform_is_one_dit(d):
    assert shannon_base_d(np.full(d, 1.0 / d), d) == pytest.approx(1.0, abs=1e-12)


def test_shannon_point_mass_is_zero():
    assert shannon_base_d([1.0, 0.0, 0.0], 3) == 0.0


def test_shannon_matches_direct_formula():
    p = [0.5, 0.25, 0.25]
    expected = -(0.5 * log2(0.5) + 2 * 0.25 * log2(0.25)) / log2(3)
    assert shannon_base_d(p, 3) == pytest.approx(expected, abs=1e-12)


def test_shannon_requires_integral_d():
    p = [0.5, 0.5]
    with pytest.raises(TypeError, match="integer"):
        shannon_base_d(p, 2.5)
    with pytest.raises(ValueError, match=">= 2"):
        shannon_base_d(p, 1)
    assert shannon_base_d(p, np.int64(2)) == shannon_base_d(p, 2) == 1.0


@pytest.mark.parametrize("p", [[float("nan"), 1.0], [float("inf"), 0.0], [-0.5, 1.5]],
                         ids=["nan", "inf", "negative"])
def test_shannon_rejects_invalid_probabilities(p):
    # unchecked, [nan, 1] gives -0.0 and [-0.5, 1.5] gives -0.877
    with pytest.raises(ValueError, match="finite and non-negative"):
        shannon_base_d(p, 2)


def test_ec_isotropic_endpoints():
    for d in (2, 3, 7):
        assert ec_term_isotropic(d, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert ec_term_isotropic(d, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_ec_isotropic_d2_reference_point():
    # joint distribution at V = 0.8 is [[0.45, 0.05], [0.05, 0.45]]
    joint = [0.45, 0.05, 0.05, 0.45]
    expected = shannon_base_d(joint, 2) - shannon_base_d([0.5, 0.5], 2)
    assert ec_term_isotropic(2, 0.8) == pytest.approx(expected, abs=1e-12)
    assert ec_term_isotropic(2, 0.8) == pytest.approx(0.468996, abs=1e-6)


def test_ec_isotropic_range_checked():
    with pytest.raises(ValueError):
        ec_term_isotropic(3, 1.0001)


def test_ec_isotropic_requires_integral_d():
    with pytest.raises(TypeError, match="integer"):
        ec_term_isotropic(2.5, 0.5)
    with pytest.raises(ValueError, match=">= 2"):
        ec_term_isotropic(1, 0.5)
    assert ec_term_isotropic(np.int64(3), 0.5) == ec_term_isotropic(3, 0.5)
    # nor does a non-integral d get through the analytic branch
    with pytest.raises(TypeError, match="integer"):
        keyrate_point(2.5, 0.9, ANALYTIC_MAX_ENTANGLED)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("V", [0.0, 0.3, 0.7, 1.0])
def test_ec_general_agrees_on_isotropic_tables(d, V):
    t = mix_with_white_noise(cglmp_born_table(maximally_entangled_state(d)), V)
    assert ec_term_general(t) == pytest.approx(ec_term_isotropic(d, V), abs=1e-10)


def test_ec_general_uniform_is_one():
    assert ec_term_general(uniform_table(Scenario(d=3))) == pytest.approx(1.0, abs=1e-12)


def test_ec_general_tuned_state_keeps_residual_errors():
    # the tuned state's key settings are not perfectly correlated
    t = cglmp_born_table(cglmp_state(3))
    ec = ec_term_general(t)
    assert ec == pytest.approx(0.0617980483, abs=1e-6)
    assert ec > ec_term_isotropic(3, 1.0)


def test_ec_general_rejects_a_negative_key_cell():
    # unchecked, these key cells give 0.0246
    s = Scenario(d=3)
    p = np.zeros((s.d, s.d, s.nA, s.nB))
    p[:, :, s.keyX - 1, s.keyY - 1] = [[0.5, 0.0, 0.0], [-0.2, 0.3, 0.0], [0.1, 0.0, 0.3]]
    with pytest.raises(ValueError, match="finite and non-negative"):
        ec_term_general(CorrelationTable(s, p))


def test_pa_term_boundaries():
    uniform = np.full(3, 1.0 / 3.0)
    assert pa_term_cc(1.0, uniform) == pytest.approx(0.0, abs=1e-12)
    assert pa_term_cc(0.0, uniform) == pytest.approx(1.0, abs=1e-12)
    assert pa_term_cc(1.5, uniform) == 0.0  # clamped
    skewed = np.array([0.5, 0.25, 0.25])
    assert pa_term_cc(0.4, skewed) == pytest.approx(0.6 * shannon_base_d(skewed, 3), abs=1e-12)


@pytest.mark.parametrize("qL", [float("nan"), float("inf"), -float("inf")])
def test_pa_term_rejects_non_finite_local_weight(qL):
    # unchecked, min(1, max(0, 1 - nan)) clamps a nan to 0
    with pytest.raises(ValueError, match="qL must be finite"):
        pa_term_cc(qL, np.full(3, 1.0 / 3.0))


@pytest.mark.parametrize("marginal", [[float("nan"), 1.0], [-0.5, 1.5]], ids=["nan", "negative"])
def test_pa_term_rejects_invalid_marginals(marginal):
    # at qL = 1 the marginal's entropy is multiplied by 0, but it is still checked
    for qL in (0.0, 1.0):
        with pytest.raises(ValueError, match="finite and non-negative"):
            pa_term_cc(qL, marginal)


# --------------------------------------------------------- analytic branch

def test_qL_analytic_boundaries():
    V_L = local_visibility_max_entangled(3)
    assert keyrate_point(3, 1.0, ANALYTIC_MAX_ENTANGLED).qL == pytest.approx(0.0, abs=1e-12)
    assert keyrate_point(3, V_L, ANALYTIC_MAX_ENTANGLED).qL == pytest.approx(1.0, abs=1e-9)
    assert keyrate_point(3, 0.5 * V_L, ANALYTIC_MAX_ENTANGLED).qL == 1.0
    with pytest.raises(ValueError):
        keyrate_point(3, 1.2, ANALYTIC_MAX_ENTANGLED)


def test_qL_analytic_reference_point():
    assert keyrate_point(3, 0.9, ANALYTIC_MAX_ENTANGLED).qL == pytest.approx(0.3291124, abs=1e-7)


def test_rub_analytic_at_unit_visibility():
    for d in (2, 3, 5):
        pt = keyrate_point(d, 1.0, ANALYTIC_MAX_ENTANGLED)
        assert pt.r_ub == pytest.approx(1.0, abs=1e-12)
        assert pt.pa_term == pytest.approx(1.0, abs=1e-12)
        assert pt.ec_term == pytest.approx(0.0, abs=1e-12)


def test_rub_analytic_below_local_visibility():
    V = 0.5 * local_visibility_max_entangled(2)
    pt = keyrate_point(2, V, ANALYTIC_MAX_ENTANGLED)
    assert pt.qL == 1.0
    assert pt.pa_term == 0.0
    assert pt.r_ub == pytest.approx(-pt.ec_term, abs=1e-12)


@pytest.mark.parametrize("d,vcrit", [(2, 0.82999), (3, 0.82043)])
def test_rub_analytic_vanishes_at_reference_visibility(d, vcrit):
    assert abs(keyrate_point(d, vcrit, ANALYTIC_MAX_ENTANGLED).r_ub) < 1e-4


@given(st.integers(2, 8), st.floats(0.0, 1.0))
def test_rub_analytic_closed_form_equality(d, V):
    # the pa - ec assembly and the paper's single closed-form expression
    # 1 - (1-V)/(1-2/I_d^max) - H(A|B) must agree
    pt = keyrate_point(d, V, ANALYTIC_MAX_ENTANGLED)
    V_L = local_visibility_max_entangled(d)
    if V >= V_L:
        closed = 1.0 - (1.0 - V) / (1.0 - V_L) - ec_term_isotropic(d, V)
        assert pt.r_ub == pytest.approx(closed, abs=1e-12)


def test_rub_analytic_strictly_increasing_above_threshold():
    V_L = local_visibility_max_entangled(3)
    grid = np.linspace(V_L, 1.0, 50)
    vals = [keyrate_point(3, float(V), ANALYTIC_MAX_ENTANGLED).r_ub for V in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


# --------------------------------------------------------------- LP branch

def test_rub_lp_at_zero_visibility():
    pt = keyrate_point(2, 0.0, LP_MAX_ENTANGLED)
    assert pt.qL == pytest.approx(1.0, abs=1e-8)
    assert pt.r_ub == pytest.approx(-1.0, abs=1e-8)


@pytest.mark.parametrize("V", [0.8, 0.9, 1.0])
def test_rub_lp_matches_analytic_on_max_entangled(V):
    lp = keyrate_point(2, V, LP_MAX_ENTANGLED)
    closed = keyrate_point(2, V, ANALYTIC_MAX_ENTANGLED)
    assert lp.qL == pytest.approx(closed.qL, abs=1e-6)
    assert lp.r_ub == pytest.approx(closed.r_ub, abs=1e-6)


def test_rub_lp_tuned_state_at_unit_visibility():
    pt = keyrate_point(3, 1.0, LP_CGLMP_STATE)
    assert pt.qL <= 1e-8
    # EC residual keeps the bound strictly below one dit
    assert pt.r_ub == pytest.approx(0.938201951686, abs=1e-6)


def test_keyrate_point_dispatch():
    a = keyrate_point(2, 0.9, ANALYTIC_MAX_ENTANGLED)
    VL = local_visibility_max_entangled(2)
    qL = (1.0 - 0.9) / (1.0 - VL)
    pa = max(0.0, 0.9 - VL) / (1.0 - VL)
    ec = ec_term_isotropic(2, 0.9)
    b = KeyRatePoint(V=0.9, qL=qL, pa_term=pa, ec_term=ec, r_ub=pa - ec,
                     branch=ANALYTIC_MAX_ENTANGLED)
    assert a == b
    with pytest.raises(ValueError, match="branch"):
        keyrate_point(2, 0.9, "bogus")


@pytest.mark.parametrize("d", [3, 200])
def test_unknown_branch_is_named_at_any_d(d):
    # d = 200 is past the visibility-LP limit; the branch is still what is wrong
    calls = [
        lambda: keyrate_point(d, 0.9, "bogus"),
        lambda: keyrate_curve(d, "bogus", 0.5, 1.0, 3),
        lambda: local_visibility(d, "bogus"),
        lambda: critical_visibility(d, "bogus"),
        lambda: critical_visibilities([d], "bogus"),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^unknown branch 'bogus'"):
            call()


def test_local_visibility_per_branch():
    assert local_visibility(3, ANALYTIC_MAX_ENTANGLED) == pytest.approx(
        local_visibility_max_entangled(3), abs=0)
    assert local_visibility(3, LP_MAX_ENTANGLED) == pytest.approx(
        local_visibility_max_entangled(3), abs=1e-10)
    tuned = local_visibility(3, LP_CGLMP_STATE)
    assert tuned == pytest.approx(2.0 / (1.0 + sqrt(11.0 / 3.0)), abs=1e-9)
    assert tuned < local_visibility_max_entangled(3)


@pytest.mark.parametrize("branch", BRANCHES)
def test_local_visibility_rejects_float_d_after_an_integer_call(branch):
    # a warm call at d = 3 must not let 3.0 (equal and of equal hash) through
    local_visibility(3, branch)
    for d in (3.0, np.float64(3.0)):
        with pytest.raises(TypeError, match="integer"):
            local_visibility(d, branch)


@pytest.mark.parametrize("branch", [LP_MAX_ENTANGLED, LP_CGLMP_STATE])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_local_visibility_lp_matches_bell_violation(d, branch):
    pNL = _ideal_table(d, branch)
    assert local_visibility(d, branch) == pytest.approx(2.0 / cglmp_value(pNL), abs=1e-9)


@pytest.mark.parametrize("branch", [LP_MAX_ENTANGLED, LP_CGLMP_STATE])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_closed_form_weight_matches_per_point_lp(d, branch):
    # qL = min(1, (1-V)/(1-V_L)) against the independent per-point LP oracle
    pNL = _ideal_table(d, branch)
    for V in (local_visibility(d, branch), 0.75, 0.85, 0.95, 1.0):
        oracle = max_local_weight(mix_with_white_noise(pNL, V), pNL).qL
        assert keyrate_point(d, V, branch).qL == pytest.approx(oracle, abs=1e-9)


@pytest.mark.parametrize("branch", [LP_MAX_ENTANGLED, LP_CGLMP_STATE])
@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_lp_rate_terms_are_the_public_term_functions(d, branch):
    # the rate reads the ideal table's difference distribution only: the key
    # marginal is uniform, so pa = 1 - qL, taken as max(0, V - V_L)/(1 - V_L),
    # and ec is H(A|B) of the mixed table, which pa_term_cc and
    # ec_term_general give on the whole table up to rounding
    pNL = _ideal_table(d, branch)
    alice_key = pNL.p[:, :, pNL.scenario.keyX - 1, :].sum(axis=1).mean(axis=1)
    VL = local_visibility(d, branch)
    for V in np.linspace(0.6, 1.0, 41):
        pt = keyrate_point(d, float(V), branch)
        assert pt.pa_term == max(0.0, float(V) - VL) / (1.0 - VL)
        assert pt.pa_term == pytest.approx(pa_term_cc(pt.qL, alice_key), abs=1e-14)
        assert pt.ec_term == pytest.approx(
            ec_term_general(mix_with_white_noise(pNL, float(V))), abs=1e-14)


def _direct_differences(c):
    """D[k, x-1, y-1] = |sum_q c_q w^(q (k + phiB_y - phiA_x))|^2 / d with
    w = exp(2 pi i/d), one O(d) dot product per entry: the O(d^2) oracle for
    the DFT of quantum.difference_distribution."""
    c = np.asarray(c, dtype=complex)
    d = c.size
    shift = (np.arange(d)[:, None, None] + np.array(quantum._BOB_PHASES)[None, None, :]
             - np.array(quantum.CGLMP_ALICE_PHASES)[None, :, None])
    return np.abs(np.exp(2j * pi / d * np.multiply.outer(shift, np.arange(d))) @ c) ** 2 / d


@pytest.mark.parametrize("d", [*range(2, 65), 292, 394, 1024])
def test_tuned_state_key_column_is_the_difference_distribution_column(d):
    # the rate reads the key-setting column of D; all six columns agree with
    # the direct sums to 6.2e-14 (at d = 394), most of it the direct sums'
    # own rounding (tests/test_reference.py)
    c = cglmp_state(d).amplitudes[:: d + 1]
    D = quantum.difference_distribution(c)
    assert np.max(np.abs(D - _direct_differences(c))) <= 1e-13
    assert np.array_equal(keyrate._resources([d], LP_CGLMP_STATE)[1][0],
                          D[:, Scenario.keyX - 1, Scenario.keyY - 1])


def _ulps(x: float, y: float) -> float:
    return abs(x - y) / math.ulp(y)


@pytest.mark.parametrize("d", [3, 8, 16, 24, 32])
def test_tuned_state_visibility_is_the_cglmp_functional(d):
    # V_L = 2/lambda_max, and lambda_max is the CGLMP value I(pNL) of the
    # state's Born table: they differ by the table's rounding (up to 12 ulp
    # over d = 2..40)
    V_L = local_visibility(d, LP_CGLMP_STATE)
    assert _ulps(V_L, 2.0 / cglmp_value(cglmp_born_table(cglmp_state(d)))) <= 16


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
def test_max_entangled_visibility_lp_is_the_closed_form(d):
    assert _ulps(local_visibility(d, LP_MAX_ENTANGLED), 2.0 / idmax_closed_form(d)) <= 4


def _h(p: float) -> float:
    return 0.0 if p in (0.0, 1.0) else -p * log2(p) - (1.0 - p) * log2(1.0 - p)


def _rate_lower_bound_d2(V: float) -> float:
    """Pironio et al., NJP 11, 045021 (2009): the CHSH key rate of this
    protocol, with S = 2 sqrt(2) V and bit error Q = (1 - V)/2."""
    S = 2.0 * sqrt(2.0) * V
    return 1.0 - _h((1.0 + sqrt(max(0.0, (S / 2.0) ** 2 - 1.0))) / 2.0) - _h((1.0 - V) / 2.0)


def test_qubit_lower_bound_stays_below_upper_bound():
    # the abstract's qubit gap: the DIQKD lower bound reaches zero at
    # V = 0.85702 (Q = 7.15 %), the CC-attack upper bound at V = 0.82999
    for V in np.linspace(0.72, 1.0, 281):
        assert _rate_lower_bound_d2(float(V)) <= keyrate_point(
            2, float(V), ANALYTIC_MAX_ENTANGLED).r_ub + 1e-12
    v_lb, _ = _roots(_rate_lower_bound_d2, 0.8, 0.9)
    assert v_lb == pytest.approx(0.85702, abs=5e-6)
    assert (1.0 - v_lb) / 2.0 == pytest.approx(0.0715, abs=5e-5)
    v_ub = critical_visibility(2).v_crit
    assert v_ub == pytest.approx(0.82999, abs=5e-6)
    assert v_lb - v_ub > 0.027


# ---------------------------------------------------- critical visibility

def test_critical_visibility_analytic_d2():
    res = critical_visibility(2)
    assert res.branch == ANALYTIC_MAX_ENTANGLED
    assert res.v_crit == pytest.approx(0.82999, abs=5e-5)
    assert abs(res.residual) < 1e-15


def test_critical_visibility_lp_agrees_with_analytic():
    lp = critical_visibility(2, LP_MAX_ENTANGLED)
    assert lp.v_crit == pytest.approx(critical_visibility(2).v_crit, abs=1e-6)


def test_critical_visibility_tuned_state_d3():
    res = critical_visibility(3, LP_CGLMP_STATE)
    assert res.v_crit == pytest.approx(0.82101, abs=5e-5)


@pytest.mark.parametrize("branch", [ANALYTIC_MAX_ENTANGLED, LP_CGLMP_STATE])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_critical_visibility_residual_is_keyrate_point_r_ub(d, branch):
    # the root finder and the public record evaluate one rate formula
    res = critical_visibility(d, branch)
    assert res.residual == keyrate_point(d, res.v_crit, branch).r_ub


def test_tuned_state_limit_checked_before_toeplitz_is_built(monkeypatch):
    # d's type and the tuned-state limit are checked before any Toeplitz
    # matrix is built, on every path that eigensolves the tuned state
    def unbuilt(k, d):
        raise AssertionError(f"Toeplitz operator coefficients built for d={d}")

    monkeypatch.setattr(quantum, "_cglmp_weight", unbuilt)
    limit = quantum.TUNED_STATE_MAX_D
    calls = [
        lambda d: critical_visibility(d, LP_CGLMP_STATE),
        lambda d: critical_visibilities([3, d], LP_CGLMP_STATE),
        lambda d: local_visibility(d, LP_CGLMP_STATE),
        lambda d: keyrate_point(d, 0.9, LP_CGLMP_STATE),
        lambda d: keyrate_curve(d, LP_CGLMP_STATE, 0.8, 1.0, 3),
        cglmp_state,
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"d = {limit + 1} exceeds the tuned-state "
                                             f"limit d <= {limit}"):
            call(limit + 1)
        with pytest.raises(TypeError, match="integer"):
            call(3.0)


def test_lp_column_checked_before_any_lp(monkeypatch):
    # every d of an LP_MAX_ENTANGLED column is held to VISIBILITY_LP_MAX_D
    # before the first visibility LP
    def refuse(D):
        raise AssertionError(f"visibility LP solved at d = {len(D)}")

    monkeypatch.setattr(keyrate, "difference_visibility", refuse)
    limit = polytope.VISIBILITY_LP_MAX_D
    for ds in ([2, 3, 4, limit + 1], range(2, limit + 2)):
        with pytest.raises(ValueError, match=f"d = {limit + 1} exceeds the visibility-LP "
                                             f"limit d <= {limit}"):
            critical_visibilities(ds, LP_MAX_ENTANGLED)


def _same_results(batch, ds, branch):
    scalar = [critical_visibility(d, branch) for d in ds]
    assert [r.d for r in batch] == list(ds)
    assert all(r.branch == branch for r in batch)
    assert [r.v_crit for r in batch] == [r.v_crit for r in scalar]
    assert [r.residual for r in batch] == [r.residual for r in scalar]


def test_batch_is_the_scalar_bisection_analytic():
    ds = range(2, 301)
    _same_results(critical_visibilities(ds), ds, ANALYTIC_MAX_ENTANGLED)


@pytest.mark.parametrize("branch, ds", [(LP_CGLMP_STATE, range(2, 9)),
                                        (LP_MAX_ENTANGLED, range(2, 6))])
def test_batch_is_the_scalar_bisection_lp(branch, ds):
    _same_results(critical_visibilities(ds, branch), ds, branch)


@pytest.mark.parametrize("branch", [ANALYTIC_MAX_ENTANGLED, LP_CGLMP_STATE])
def test_batch_keeps_order_and_repeats(branch):
    ds = [7, 3, 5, 3, 2, 7, np.int64(4)]
    _same_results(critical_visibilities(ds, branch), ds, branch)


def test_batch_of_no_dimension_is_empty():
    assert critical_visibilities([]) == []
    assert critical_visibilities([], LP_CGLMP_STATE) == []


def test_analytic_column_memory_stays_bounded():
    # the closed form's terms are evaluated a few thousand at a time; one pass
    # over the whole d = 2..1000 column held 16 MB. A short column first, so
    # that numpy's one-time allocations are not counted
    critical_visibilities(range(2, 10))
    tracemalloc.start()
    try:
        critical_visibilities(range(2, 1001))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_tuned_column_holds_only_its_key_columns():
    # the column keeps d values per d, not each d's six-column D: 0.21 MB for
    # d = 2..200, against 1.04 MB with views into D
    keyrate._resources([2, 3], LP_CGLMP_STATE)
    tracemalloc.start()
    try:
        resources = keyrate._resources(list(range(2, 201)), LP_CGLMP_STATE)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(resources[1]) == 199
    assert held < 500_000


def _mixed_entropies(ds, V, keys):
    """The per-element loop that _rate_terms's flat pass replaced: the mixed
    D_key of each element, then _entropy of it. The pass must match it to the
    bit."""
    mixed = [v * k + (1.0 - v) / n for n, v, k in zip(ds, V.tolist(), keys)]
    return [keyrate._entropy(m, m.sum(), n) for n, m in zip(ds, mixed)]


@pytest.mark.parametrize("branch, ds", [(LP_CGLMP_STATE, [*range(2, 201), 292, 394, 1024]),
                                        (LP_MAX_ENTANGLED, list(range(2, 49)))])
def test_flat_rate_pass_is_the_per_element_entropy(branch, ds, monkeypatch):
    # as a column and as a one-d curve, from V_L to 1; at V = 1 the zero cells
    # of D_key count (the tuned state's at d = 2 and 8, LP_MAX_ENTANGLED's
    # d - 1). LP_MAX_ENTANGLED takes V_L from the closed form: 47 visibility
    # LPs take 4 s
    monkeypatch.setattr(keyrate, "difference_visibility",
                        lambda D: local_visibility_max_entangled(D.shape[0]))
    VL, keys = keyrate._resources(ds, branch)
    rng = np.random.default_rng(23)
    columns = [VL, (VL + 1.0) / 2.0, *(VL + (1.0 - VL) * rng.random(len(ds)) for _ in range(3)),
               np.ones(len(ds))]
    terms = keyrate._rate_terms(ds, VL, keys)
    for V in columns:
        assert terms(V)[2].tolist() == _mixed_entropies(ds, V, keys)
    for d, vl, key, Vs in zip(ds, VL.tolist(), keys, np.transpose(columns)):
        n = len(Vs)
        curve = keyrate._rate_terms([d] * n, vl, [key] * n)
        assert curve(Vs)[2].tolist() == _mixed_entropies([d] * n, Vs, [key] * n), d


def test_rate_terms_keep_no_copy_of_their_keys():
    # a column of key sizes 2..1024 holds 4.27 MB when terms keeps its passes
    # between calls, 17 KB when each call builds them
    ds = list(range(2, 1025))
    keys = [np.full(d, 1.0 / d) for d in ds]
    VL = np.full(len(ds), 0.7)
    tracemalloc.start()
    try:
        terms = keyrate._rate_terms(ds, VL, keys)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 100_000
    # the uniform D_key mixes to the uniform distribution: entropy 1
    assert np.allclose(terms(np.full(len(ds), 0.9))[2], 1.0, rtol=0, atol=1e-14)


def test_tuned_curve_memory_is_its_eigensolve():
    # tracemalloc peaks of a 2001-point d = 1024 curve: 16.95 MB with one
    # mixed array per grid point, 16.91 MB with the rate in passes, where the
    # 16.8 MB eigensolve sets the peak; the rate alone takes 1.0 MB, against
    # the 16.4 MB of the per-point arrays
    keyrate_curve(8, LP_CGLMP_STATE, 0.6, 1.0, 11)
    tracemalloc.start()
    try:
        keyrate_curve(1024, LP_CGLMP_STATE, 0.6, 1.0, 2001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16_954_980

    VL, keys = keyrate._resources([1024], LP_CGLMP_STATE)
    V = np.linspace(0.6, 1.0, 2001)
    tracemalloc.start()
    try:
        keyrate._rate_terms([1024] * V.size, float(VL[0]), keys * V.size)(V)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_batch_validates_dimensions_and_branch():
    with pytest.raises(TypeError, match="integer"):
        critical_visibilities([3, 2.5])
    with pytest.raises(ValueError, match=">= 2"):
        critical_visibilities([3, 1])
    with pytest.raises(ValueError, match="branch"):
        critical_visibilities([], "bogus")


def test_batch_bracket_error_names_its_dimension(monkeypatch):
    # an EC term of -1 at d = 5 makes its rate positive at V_L already
    real = keyrate._ec_isotropic
    monkeypatch.setattr(keyrate, "_ec_isotropic",
                        lambda d: lambda V: np.where(d == 5, -1.0, real(d)(V)))
    with pytest.raises(BracketError, match=r"^d = 5: no sign change on \[0\.\d{6}, 1\.000000\]"):
        critical_visibilities([3, 4, 5, 6])


def test_critical_visibility_decreasing_and_bounded():
    vals = [critical_visibility(d).v_crit for d in range(2, 17)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert all(v > vcrit_asymptotic() for v in vals)


def test_tuned_state_falls_below_max_entangled_at_d69():
    # beyond the paper's d <= 8: the tuned state needs a higher visibility than
    # the maximally entangled one up to d = 68 and a lower one from d = 69 on
    # (Zohren & Gill, PRL 100, 120406 (2008) for CGLMP at large d). Each root
    # is solved until r_ub is a few ulps of 1, and r_ub rises faster than 1
    # per unit of V, so the gap at d = 69 is 10^9 times the roots' error
    tuned = critical_visibilities([68, 69], LP_CGLMP_STATE)
    maxent = critical_visibilities([68, 69])
    gap = [t.v_crit - m.v_crit for t, m in zip(tuned, maxent)]
    assert gap[0] == pytest.approx(9.3757e-6, abs=1e-10)
    assert gap[1] == pytest.approx(-2.0148e-6, abs=1e-10)
    assert max(abs(r.residual) for r in (*tuned, *maxent)) < 1e-15


# ----------------------------------------------------------- PA-zero point

def test_pa_zero_analytic_is_local_visibility():
    assert local_visibility(4, ANALYTIC_MAX_ENTANGLED) == local_visibility_max_entangled(4)


def test_pa_zero_lp_branches():
    assert local_visibility(2, LP_MAX_ENTANGLED) == pytest.approx(
        1.0 / sqrt(2.0), abs=1e-4)
    assert local_visibility(3, LP_CGLMP_STATE) == pytest.approx(
        2.0 / (1.0 + sqrt(11.0 / 3.0)), abs=1e-4)


# -------------------------------------------------------------- asymptotics

def test_asymptotic_constants():
    v_inf = vcrit_asymptotic()
    assert v_inf == pytest.approx(1.0 / (2.0 - pi**2 / (16.0 * CATALAN)), abs=0)
    assert v_inf == pytest.approx(0.753830945875, abs=1e-12)
    assert v_inf * idmax_asymptotic() == pytest.approx(2.238738436718, abs=1e-9)


# ------------------------------------------------------------------- grids

def test_curve_endpoints_and_monotonicity():
    points = keyrate_curve(2, ANALYTIC_MAX_ENTANGLED, 0.75, 1.0, 6)
    assert len(points) == 6
    assert points[0].V == 0.75
    assert points[-1].V == 1.0
    assert points[-1].r_ub == pytest.approx(1.0, abs=1e-12)
    rates = [pt.r_ub for pt in points]
    assert all(b > a for a, b in zip(rates, rates[1:]))


@pytest.mark.parametrize("branch", BRANCHES)
@pytest.mark.parametrize("d", [2, 3, 7])
def test_curve_is_its_points(d, branch):
    grid = np.linspace(0.6, 1.0, 41).tolist()
    assert keyrate_curve(d, branch, 0.6, 1.0, 41) == [keyrate_point(d, V, branch) for V in grid]


def test_curve_validates_arguments():
    # d is checked first, before the grid arguments (here also invalid)
    with pytest.raises(TypeError, match="integer"):
        keyrate_curve(2.0, ANALYTIC_MAX_ENTANGLED, 0.9, 0.8, 1)
    with pytest.raises(ValueError, match="d must be >= 2"):
        keyrate_curve(1, ANALYTIC_MAX_ENTANGLED, 0.9, 0.8, 1)
    with pytest.raises(ValueError):
        keyrate_curve(2, ANALYTIC_MAX_ENTANGLED, 0.9, 0.8, 5)
    with pytest.raises(ValueError):
        keyrate_curve(2, ANALYTIC_MAX_ENTANGLED, 0.0, 1.0, 1)
    with pytest.raises(ValueError):
        keyrate_curve(2, ANALYTIC_MAX_ENTANGLED, 0.0, 1.5, 5)


# -------------------------------------------------------------- root finder

def test_roots_finds_root():
    assert _roots(lambda v: v - 0.5, 0.0, 1.0) == (0.5, 0.0)
    root, residual = _roots(lambda v: v**3 - 0.2, 0.0, 1.0)
    assert abs(root - 0.2 ** (1 / 3)) <= math.ulp(root)
    assert residual == root**3 - 0.2


def test_roots_returns_an_exact_zero_end():
    # f(lo) = 0 or f(hi) = 0 closes the bracket on that end at once
    for lo, hi in ((0.5, 1.0), (0.0, 0.5)):
        assert _roots(lambda v: v - 0.5, lo, hi) == (0.5, 0.0)
    calls = []
    assert _roots(lambda v: calls.append(v) or v - 0.5, np.array([0.5, 0.0]),
                  np.array([0.9, 0.5]))[0].tolist() == [0.5, 0.5]
    assert len(calls) == 2


def test_roots_requires_bracket():
    with pytest.raises(BracketError):
        _roots(lambda v: v + 1.0, 0.0, 1.0)


def test_roots_closes_each_bracket_on_its_own():
    # the brackets take different numbers of steps; each closed one stays
    # fixed to the bit while the others go on, so it ends where its scalar
    # solve ends
    def f(v):
        steps[-1] += 1
        return v**3 - 0.2

    lo, hi = np.array([0.0, 0.5, 0.58, 0.2]), np.array([1.0, 0.6, 0.59, 0.2 ** (1 / 3)])
    steps = [0]
    roots, residuals = _roots(f, lo, hi)
    scalar = []
    for a, b in zip(lo, hi):
        steps.append(0)
        scalar.append(_roots(f, a, b))
    assert len(set(steps[1:])) > 1 and steps[0] == max(steps[1:])
    assert roots.tolist() == [float(x) for x, _ in scalar]
    assert residuals.tolist() == [float(r) for _, r in scalar]


@pytest.mark.parametrize("branch, ds", [(ANALYTIC_MAX_ENTANGLED, range(2, 1001)),
                                        (LP_CGLMP_STATE, range(2, 8))])
def test_critical_visibilities_evaluate_the_rate_a_few_times(branch, ds, monkeypatch):
    # false position closes every bracket of the column in 8 or 9 rate
    # evaluations, both ends included
    evaluations = []
    rate_terms = keyrate._rate_terms

    def counted(*args):
        terms = rate_terms(*args)
        return lambda V: evaluations.append(V.size) or terms(V)

    monkeypatch.setattr(keyrate, "_rate_terms", counted)
    critical_visibilities(ds, branch)
    assert 0 < len(evaluations) <= 10
    assert set(evaluations) == {len(ds)}
