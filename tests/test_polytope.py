"""Deterministic strategies, local-polytope membership, and the local-weight LP."""
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from diqkd_cc import (
    ANALYTIC_MAX_ENTANGLED,
    LP_CGLMP_STATE,
    LP_MAX_ENTANGLED,
    CorrelationTable,
    DecompositionInfeasible,
    Scenario,
    StrategyCapExceeded,
    cglmp_value,
    enumerate_strategies,
    is_local,
    keyrate_point,
    local_residual,
    local_visibility,
    local_visibility_max_entangled,
    max_local_weight,
    mix_with_white_noise,
    strategy_from_id,
    strategy_table,
    uniform_table,
    validate,
)
from diqkd_cc import polytope
from diqkd_cc.polytope import LP_FEASIBILITY_TOL
from diqkd_cc.quantum import cglmp_born_table, cglmp_state, maximally_entangled_state
from diqkd_cc.scenario import _differences

ME2 = cglmp_born_table(maximally_entangled_state(2))
ME3 = cglmp_born_table(maximally_entangled_state(3))


def _ideal_table(d: int, branch: str) -> CorrelationTable:
    """The branch's ideal (V = 1) Born table."""
    state = cglmp_state(d) if branch == LP_CGLMP_STATE else maximally_entangled_state(d)
    return cglmp_born_table(state)


def _product_table(seed: int, d: int = 2) -> CorrelationTable:
    rng = np.random.default_rng(seed)
    s = Scenario(d=d)
    pA = rng.dirichlet(np.ones(d), size=s.nA)
    pB = rng.dirichlet(np.ones(d), size=s.nB)
    return CorrelationTable(s, np.einsum("xa,yb->abxy", pA, pB))


# -------------------------------------------------------------- enumeration

def test_strategy_counts():
    assert Scenario(d=2).n_strategies == 32
    assert Scenario(d=3).n_strategies == 243
    assert len(list(enumerate_strategies(Scenario(d=2)))) == 32


def test_enumeration_is_ordered_and_unique():
    strategies = list(enumerate_strategies(Scenario(d=2)))
    assert [s.id for s in strategies] == list(range(32))
    assert len({(s.fA, s.fB) for s in strategies}) == 32


def test_id_zero_outputs_one_everywhere():
    strat = strategy_from_id(0, Scenario(d=3))
    assert strat.fA == (1, 1)
    assert strat.fB == (1, 1, 1)


def test_alice_digits_most_significant():
    s = Scenario(d=2)
    # incrementing Alice's last digit jumps by d^nB
    strat = strategy_from_id(2 ** 3, s)
    assert strat.fA == (1, 2)
    assert strat.fB == (1, 1, 1)


@given(st.integers(2, 4), st.data())
def test_strategy_id_round_trip(d, data):
    s = Scenario(d=d)
    ident = data.draw(st.integers(0, s.n_strategies - 1))
    strat = strategy_from_id(ident, s)
    assert strat.id == ident
    assert all(1 <= o <= d for o in strat.fA + strat.fB)


def test_strategy_id_range_checked():
    with pytest.raises(ValueError):
        strategy_from_id(-1, Scenario(d=2))
    with pytest.raises(ValueError):
        strategy_from_id(32, Scenario(d=2))


def test_strategy_cap_enforced():
    with pytest.raises(StrategyCapExceeded, match="1048576"):
        list(enumerate_strategies(Scenario(d=16)))
    u16 = uniform_table(Scenario(d=16))
    with pytest.raises(StrategyCapExceeded, match="1048576"):
        max_local_weight(u16, u16)


def test_strategy_tables_are_deterministic_points():
    s = Scenario(d=3)
    strat = strategy_from_id(100, s)
    t = strategy_table(strat, s)
    assert validate(t).ok
    assert set(np.unique(t.p)) <= {0.0, 1.0}
    assert t.p[strat.fA[0] - 1, strat.fB[0] - 1, 0, 0] == 1.0


def test_equal_mixture_of_all_strategies_is_white_noise():
    s = Scenario(d=2)
    mean = np.mean([strategy_table(st_, s).p for st_ in enumerate_strategies(s)], axis=0)
    assert np.allclose(mean, uniform_table(s).p, atol=1e-15)


# -------------------------------------------------------------- weight LP

def test_ideal_table_has_no_local_weight():
    dec = max_local_weight(ME2, ME2)
    assert dec.qL <= 1e-9
    assert dec.qNL == pytest.approx(1.0, abs=1e-8)


def test_white_noise_is_fully_local():
    for t in (ME2, ME3):
        dec = max_local_weight(uniform_table(t.scenario), t)
        assert dec.qL >= 1.0 - 1e-9
        assert dec.qNL <= 1e-9


def test_local_weight_d2_reference_point():
    observed = mix_with_white_noise(ME2, 0.9)
    dec = max_local_weight(observed, ME2)
    assert dec.qL == pytest.approx(0.34142136, abs=1e-6)


@pytest.mark.parametrize("d,V", [(2, 0.8), (3, 0.85)])
def test_local_weight_matches_analytic(d, V):
    pNL = cglmp_born_table(maximally_entangled_state(d))
    dec = max_local_weight(mix_with_white_noise(pNL, V), pNL)
    assert dec.qL == pytest.approx(keyrate_point(d, V, ANALYTIC_MAX_ENTANGLED).qL, abs=1e-6)


def test_decomposition_reconstructs_observed():
    observed = mix_with_white_noise(ME3, 0.9)
    dec = max_local_weight(observed, ME3)
    assert dec.max_residual <= 1e-8
    assert dec.qL + dec.qNL == pytest.approx(1.0, abs=1e-8)
    assert all(w >= 0.0 for w in dec.weights.values())
    assert sum(dec.weights.values()) == pytest.approx(dec.qL, abs=1e-8)
    rebuilt = dec.reconstruction(observed.scenario, ME3)
    assert np.allclose(rebuilt.p, observed.p, atol=1e-8)


def test_local_weight_nonincreasing_in_visibility():
    grid = [0.75, 0.8, 0.85, 0.9, 0.95, 1.0]
    weights = [max_local_weight(mix_with_white_noise(ME2, V), ME2).qL for V in grid]
    assert all(b <= a + 1e-9 for a, b in zip(weights, weights[1:]))


def test_mismatched_scenarios_rejected():
    with pytest.raises(ValueError, match="scenario"):
        max_local_weight(ME2, ME3)


def test_unreachable_table_is_infeasible():
    # the hull of {strategies, white noise} cannot reproduce a Bell violation
    with pytest.raises(DecompositionInfeasible) as exc:
        max_local_weight(ME2, uniform_table(ME2.scenario))
    assert exc.value.residual > 1e-6
    assert exc.value.residual == pytest.approx(1.0 - 1.0 / np.sqrt(2.0), abs=1e-9)


# -------------------------------------------------------------- membership

@pytest.mark.parametrize("d", [2, 3])
def test_white_noise_is_local(d):
    t = uniform_table(Scenario(d=d))
    local = is_local(t)
    assert local
    assert local == (max_local_weight(t, t).qL >= 1.0 - 1e-9)


@pytest.mark.parametrize("t", [ME2, ME3], ids=["d2", "d3"])
def test_ideal_tables_are_nonlocal(t):
    local, slack = local_residual(t)
    assert not local
    assert slack > 1e-4
    assert local == (max_local_weight(t, t).qL >= 1.0 - 1e-9)


def test_membership_flips_at_local_visibility():
    V_L = local_visibility_max_entangled(2)
    assert is_local(mix_with_white_noise(ME2, V_L))
    assert not is_local(mix_with_white_noise(ME2, V_L + 1e-3))


@pytest.mark.parametrize("branch", [LP_MAX_ENTANGLED, LP_CGLMP_STATE])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_slack_on_noise_segment_is_white_noise_deficit(d, branch):
    # V pNL + (1-V) u needs white-noise weight 1 - V_L/V to become local
    pNL = _ideal_table(d, branch)
    V_L = local_visibility(d, branch)
    for v in (V_L - 0.01, V_L, V_L + 1e-3, 0.9, 1.0):
        local, slack = local_residual(mix_with_white_noise(pNL, v))
        assert local == (v <= V_L)
        assert slack == pytest.approx(max(0.0, 1.0 - V_L / v), abs=1e-9)


@pytest.fixture
def lp_shapes(monkeypatch):
    """Record the A_eq shape of every linprog call."""
    shapes = []
    solve = polytope.linprog

    def recorded(*args, **kwargs):
        shapes.append(kwargs["A_eq"].shape)
        return solve(*args, **kwargs)

    monkeypatch.setattr(polytope, "linprog", recorded)
    return shapes


def test_visibility_lp_runs_on_shift_classes(lp_shapes):
    # 6d difference rows, 2d consistency rows and the total-weight row;
    # 3d^2 response columns J_y(alpha, c) + the V column, + the pNL column
    # when one is given
    pNL = _ideal_table(3, LP_CGLMP_STATE)
    polytope.difference_visibility(_differences(pNL))
    local_residual(mix_with_white_noise(pNL, 0.9), pNL=pNL)
    assert lp_shapes == [(25, 28), (25, 29)]


def _strategy_visibility(t: CorrelationTable, pNL: CorrelationTable | None = None) -> float:
    """Oracle for max_local_visibility: the same LP over all d^5 strategy
    columns, in the table's own coordinates."""
    S = polytope._strategy_matrix(Scenario(t.scenario.d))
    if pNL is not None:
        S = sp.hstack([S, sp.csc_array(pNL.p.reshape(-1, 1))], format="csc")
    n = S.shape[1]
    u = np.full(S.shape[0], 1.0 / t.scenario.d**2)
    v_col = sp.csc_array((u - t.p.reshape(-1)).reshape(-1, 1))
    total = np.concatenate([np.ones(n), [0.0]]).reshape(1, -1)
    A_eq = sp.vstack([sp.hstack([S, v_col]), total], format="csc")
    cost = np.zeros(n + 1)
    cost[n] = -1.0
    res = polytope.linprog(cost, A_eq=A_eq, b_eq=np.concatenate([u, [1.0]]),
                           bounds=[(0, None)] * n + [(0, 1)], method="highs",
                           options=polytope._LINPROG_OPTIONS)
    assert res.success
    return float(res.x[n])


def _relabel_bob(t: CorrelationTable) -> CorrelationTable:
    """Swap Bob's outcomes 1 and 2 at his setting 1: no longer shift-invariant."""
    p = t.p.copy()
    p[:, [0, 1], :, 0] = p[:, [1, 0], :, 0]
    return CorrelationTable(t.scenario, p)


@pytest.mark.parametrize("branch", [LP_MAX_ENTANGLED, LP_CGLMP_STATE])
@pytest.mark.parametrize("d", [3, 4, 5])
def test_relabelled_table_takes_full_lp_with_same_slack(d, branch, lp_shapes):
    # relabelling preserves locality and white noise, so the full-coordinate LP
    # on the relabelled table must match the shift-class LP on the original
    pNL = _ideal_table(d, branch)
    V_L = local_visibility(d, branch)
    for v in (V_L, V_L + 0.02, 1.0):
        mixed = mix_with_white_noise(pNL, v)
        lp_shapes.clear()
        reduced = local_residual(mixed)
        full = local_residual(_relabel_bob(mixed))
        assert lp_shapes == [(8 * d + 1, 3 * d**2 + 1), (8 * d**2 + 1, 3 * d**3 + 1)]
        assert full[0] == reduced[0]
        assert full[1] == pytest.approx(reduced[1], abs=1e-9)


@pytest.mark.parametrize("with_pnl", [False, True], ids=["no-pNL", "pNL"])
@pytest.mark.parametrize("relabel", [False, True], ids=["invariant", "relabelled"])
@pytest.mark.parametrize("branch", [LP_MAX_ENTANGLED, LP_CGLMP_STATE])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_visibility_matches_strategy_lp(d, branch, relabel, with_pnl):
    # the nonlocal column is the other state's table at visibility 0.9, so the
    # optimum lies strictly between V_L and 1
    other = LP_CGLMP_STATE if branch == LP_MAX_ENTANGLED else LP_MAX_ENTANGLED
    t = _ideal_table(d, branch)
    pNL = mix_with_white_noise(_ideal_table(d, other), 0.9) if with_pnl else None
    if relabel:
        t = _relabel_bob(t)
        pNL = None if pNL is None else _relabel_bob(pNL)
    assert polytope.max_local_visibility(t, pNL) == pytest.approx(
        _strategy_visibility(t, pNL), abs=1e-12)


@pytest.mark.parametrize("branch", [LP_MAX_ENTANGLED, LP_CGLMP_STATE])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_visibility_solution_is_a_strategy_mixture(d, branch, monkeypatch):
    # primal certificate: the LP's J_y(alpha, c) define the class weights
    # q(alpha, c1, c2, c3) = P(alpha) prod_y J_y(c_y | alpha); spread evenly
    # over the d joint shifts of each class, they are a mixture of the d^5
    # deterministic strategies that reproduces the table at V_L
    solutions = []
    solve = polytope.linprog

    def recorded(*args, **kwargs):
        res = solve(*args, **kwargs)
        solutions.append(res.x)
        return res

    monkeypatch.setattr(polytope, "linprog", recorded)
    pNL = _ideal_table(d, branch)
    V_L = polytope.max_local_visibility(pNL)
    (x,) = solutions
    assert x.size == 3 * d**2 + 1 and x[-1] == V_L
    J = np.clip(x[:-1], 0.0, None).reshape(3, d, d)  # J[y, alpha, c]
    P = J[0].sum(axis=1)
    cond = J / np.where(P > 0.0, P, 1.0)[None, :, None]
    q = (P[:, None, None, None] * cond[0][:, :, None, None]
         * cond[1][:, None, :, None] * cond[2][:, None, None, :])
    k, alpha, c1, c2, c3 = np.ix_(*[np.arange(d)] * 5)
    ids = ((((k * d + (alpha + k) % d) * d + (c1 + k) % d) * d + (c2 + k) % d) * d
           + (c3 + k) % d)  # Alice outputs (k, alpha + k), Bob c_y + k
    weights = np.empty(d**5)
    weights[ids.ravel()] = np.broadcast_to(q / d, ids.shape).ravel()
    assert weights.sum() == pytest.approx(1.0, abs=1e-9)
    rebuilt = polytope._strategy_matrix(Scenario(d)) @ weights
    target = mix_with_white_noise(pNL, V_L).p.reshape(-1)
    assert np.max(np.abs(rebuilt - target)) <= 1e-9


def test_visibility_rejects_tables_of_different_scenarios(lp_shapes):
    with pytest.raises(ValueError, match="different scenarios"):
        local_residual(ME2, pNL=ME3)
    assert lp_shapes == []


def test_visibility_rejects_non_finite_table(lp_shapes):
    p = ME3.p.copy()
    p[0, 0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        local_residual(CorrelationTable(ME3.scenario, p))
    with pytest.raises(ValueError, match="non-finite"):
        local_residual(ME3, pNL=CorrelationTable(ME3.scenario, p))
    assert lp_shapes == []


def test_difference_visibility_rejects_d_below_2(lp_shapes):
    for d in (0, 1):
        with pytest.raises(ValueError, match=">= 2"):
            polytope.difference_visibility(np.zeros((d, Scenario.nA, Scenario.nB)))
    assert lp_shapes == []


def test_nonlocal_column_restores_feasibility():
    mixed = mix_with_white_noise(ME2, 0.9)
    assert not is_local(mixed)
    feasible, slack = local_residual(mixed, pNL=ME2)
    assert feasible
    assert slack <= LP_FEASIBILITY_TOL


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_product_tables_are_local(seed):
    t = _product_table(seed, d=2)
    local = is_local(t)
    assert local
    assert local == (max_local_weight(t, t).qL >= 1.0 - 1e-9)
    assert cglmp_value(t) <= 2.0 + 1e-8

