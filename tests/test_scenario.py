"""Correlation-table container: validation, noise mixing, the outcome
difference distribution and marginals."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diqkd_cc import (
    CorrelationTable,
    Scenario,
    cglmp_born_table,
    maximally_entangled_state,
    mix_with_white_noise,
    uniform_table,
    validate,
)
from diqkd_cc.scenario import _differences

ME2 = cglmp_born_table(maximally_entangled_state(2))
ME3 = cglmp_born_table(maximally_entangled_state(3))


def _product_table(seed: int, d: int = 2) -> CorrelationTable:
    """Random no-signaling (in fact product) table, seeded for hypothesis."""
    rng = np.random.default_rng(seed)
    s = Scenario(d=d)
    pA = rng.dirichlet(np.ones(d), size=s.nA)  # (x, a)
    pB = rng.dirichlet(np.ones(d), size=s.nB)  # (y, b)
    return CorrelationTable(s, np.einsum("xa,yb->abxy", pA, pB))


# ---------------------------------------------------------------- scenario

def test_scenario_defaults():
    s = Scenario(d=3)
    assert (s.nA, s.nB, s.keyX, s.keyY) == (2, 3, 2, 3)
    assert s.n_strategies == 3 ** 5


@pytest.mark.parametrize("kwargs,error", [
    (dict(d=1), ValueError),
    (dict(d=2, nA=1), TypeError),
    (dict(d=2, nB=1), TypeError),
    (dict(d=2, keyX=0), TypeError),
    (dict(d=2, keyX=3), TypeError),
    (dict(d=2, keyY=4), TypeError),
], ids=[f"kwargs{i}" for i in range(6)])
def test_scenario_rejects_bad_shapes(kwargs, error):
    # d is range-checked; the shape is fixed, so no shape argument can be passed
    with pytest.raises(error):
        Scenario(**kwargs)


def test_scenario_requires_integral_d():
    for d in (2.5, 3.0, None):
        with pytest.raises(TypeError, match="integer"):
            Scenario(d)
    for d in (0, -2):
        with pytest.raises(ValueError, match=">= 2"):
            Scenario(d)
    s = Scenario(np.int64(3))
    assert s == Scenario(3) and type(s.d) is int


def test_scenario_field_is_only_d():
    assert [f.name for f in dataclasses.fields(Scenario)] == ["d"]
    with pytest.raises(TypeError):
        Scenario(d=2, nA=3)


def test_table_shape_checked():
    with pytest.raises(ValueError):
        CorrelationTable(Scenario(d=2), np.zeros((2, 2, 2, 2)))


@pytest.mark.parametrize("cell", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
def test_table_rejects_a_non_finite_cell(cell):
    p = np.full((2, 2, 2, 3), 0.25)
    p[1, 0, 1, 2] = cell
    with pytest.raises(ValueError, match="non-finite"):
        CorrelationTable(Scenario(d=2), p)


def test_table_is_read_only():
    t = uniform_table(Scenario(d=2))
    with pytest.raises(ValueError):
        t.p[0, 0, 0, 0] = 1.0


def test_table_leaves_the_callers_array_writable():
    # the table freezes its own copy, not the array it was given
    p = np.full((2, 2, 2, 3), 0.25)
    t = CorrelationTable(Scenario(2), p)
    p[0, 0, 0, 0] = 1.0
    assert t.p[0, 0, 0, 0] == 0.25


def test_table_accepts_an_array_like():
    p = uniform_table(Scenario(d=2)).p.tolist()
    t = CorrelationTable(Scenario(d=2), p)
    assert t.p.dtype == float and t.p.shape == (2, 2, 2, 3)
    with pytest.raises(ValueError, match="shape"):
        CorrelationTable(Scenario(d=3), p)


# -------------------------------------------------------------- validation

@pytest.mark.parametrize("d", [2, 3, 4])
def test_uniform_table_validates(d):
    rep = validate(uniform_table(Scenario(d=d)))
    assert rep.ok
    assert rep.positivity_residual == 0.0
    assert rep.normalization_residual <= 1e-15
    assert rep.no_signaling_residual <= 1e-15


@pytest.mark.parametrize("t", [ME2, ME3], ids=["d2", "d3"])
def test_born_tables_validate(t):
    rep = validate(t)
    assert rep.ok, str(rep)
    assert rep.no_signaling_residual <= 1e-12


def test_negative_entry_flagged():
    p = uniform_table(Scenario(d=2)).p.copy()
    p[0, 0, 0, 0] -= 0.5  # goes negative; normalization repaired below
    p[1, 0, 0, 0] += 0.5
    rep = validate(CorrelationTable(Scenario(d=2), p))
    assert not rep.positivity_ok
    assert rep.normalization_ok
    assert not rep.ok


def test_signaling_flagged():
    # Alice's marginal depends on Bob's setting: not a physical table.
    s = Scenario(d=2)
    p = np.zeros((2, 2, s.nA, s.nB))
    for y in range(s.nB):
        pA = np.array([1.0, 0.0]) if y == 0 else np.array([0.5, 0.5])
        for x in range(s.nA):
            p[:, :, x, y] = np.outer(pA, [0.5, 0.5])
    rep = validate(CorrelationTable(s, p))
    assert rep.positivity_ok and rep.normalization_ok
    assert not rep.no_signaling_ok
    # marginal (1,0) at y=1 vs mean (2/3, 1/3) over Bob's three settings
    assert rep.no_signaling_residual == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_report_string_mentions_all_checks():
    text = str(validate(ME3))
    for word in ("positivity", "normalization", "no-signaling", "pass"):
        assert word in text


# ------------------------------------------------------------------ mixing

def test_mix_endpoints():
    assert np.allclose(mix_with_white_noise(ME3, 1.0).p, ME3.p, atol=0, rtol=0)
    assert np.allclose(mix_with_white_noise(ME3, 0.0).p, 1.0 / 9.0, atol=1e-15)


def test_mix_key_setting_entry():
    # d=2 perfectly correlated key entry 1/2 at half visibility: 0.5*0.5 + 0.5*0.25.
    s = ME2.scenario
    mixed = mix_with_white_noise(ME2, 0.5)
    assert mixed.p[0, 0, s.keyX - 1, s.keyY - 1] == pytest.approx(0.375, abs=1e-12)


@pytest.mark.parametrize("V", [-0.1, 1.1, 2.0])
def test_mix_rejects_out_of_range(V):
    with pytest.raises(ValueError):
        mix_with_white_noise(ME2, V)


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_mix_composes_multiplicatively(v1, v2):
    twice = mix_with_white_noise(mix_with_white_noise(ME3, v1), v2)
    once = mix_with_white_noise(ME3, v1 * v2)
    assert np.allclose(twice.p, once.p, atol=1e-12)


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_mix_preserves_validity(seed, V):
    mixed = mix_with_white_noise(_product_table(seed, d=3), V)
    assert validate(mixed).ok


# ------------------------------------------------------------------ shifts

@pytest.mark.parametrize("d", [2, 3, 5])
def test_uniform_shift_probability(d):
    D = _differences(uniform_table(Scenario(d=d)))
    assert D.shape == (d, 2, 3)
    assert np.allclose(D, 1.0 / d, atol=1e-12)


def test_key_settings_perfectly_correlated():
    s = ME3.scenario
    assert _differences(ME3)[0, s.keyX - 1, s.keyY - 1] == pytest.approx(1.0, abs=1e-12)


@given(st.integers(0, 2**32 - 1), st.integers(1, 2), st.integers(1, 3))
def test_shift_probabilities_partition(seed, x, y):
    t = _product_table(seed, d=4)
    assert _differences(t)[:, x - 1, y - 1].sum() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("d", [2, 3, 7, 16])
def test_differences_are_the_per_cell_sums(d):
    # each cell is the 1-D sum of its d terms, to the last bit
    t = _product_table(d, d=d)
    D = _differences(t)
    j = np.arange(d)
    for k in range(d):
        for x in range(2):
            for y in range(3):
                assert D[k, x, y] == t.p[j, (j + k) % d, x, y].sum()


# --------------------------------------------------------------- marginals

def _marginals(t: CorrelationTable):
    """Alice's p(a|x, y) as [a, x, y] and Bob's p(b|x, y) as [b, x, y]."""
    return t.p.sum(axis=1), t.p.sum(axis=0)


def test_uniform_marginals():
    for m in _marginals(uniform_table(Scenario(d=4))):
        assert np.allclose(m, 0.25, atol=1e-15)


@pytest.mark.parametrize("t", [ME2, ME3], ids=["d2", "d3"])
def test_born_marginals_are_uniform(t):
    for m in _marginals(t):
        assert np.allclose(m, 1.0 / t.scenario.d, atol=1e-9)
