"""Bell expression: value/coefficient agreement, local bound on deterministic
points, the closed-form maximum, and the d->infinity constants."""
import tracemalloc
from fractions import Fraction
from itertools import accumulate
from math import fsum, pi, sin, sqrt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diqkd_cc import (
    CATALAN,
    LOCAL_BOUND,
    Scenario,
    cglmp_coefficients,
    cglmp_value,
    idmax_asymptotic,
    idmax_closed_form,
    local_visibility_max_entangled,
    mix_with_white_noise,
    uniform_table,
)
from diqkd_cc import CorrelationTable, cglmp
from diqkd_cc.polytope import enumerate_strategies, strategy_table
from diqkd_cc.quantum import cglmp_born_table, cglmp_state, maximally_entangled_state

ME2 = cglmp_born_table(maximally_entangled_state(2))
ME3 = cglmp_born_table(maximally_entangled_state(3))


def _product_table(seed: int, d: int) -> CorrelationTable:
    rng = np.random.default_rng(seed)
    s = Scenario(d=d)
    pA = rng.dirichlet(np.ones(d), size=s.nA)
    pB = rng.dirichlet(np.ones(d), size=s.nB)
    return CorrelationTable(s, np.einsum("xa,yb->abxy", pA, pB))


def test_catalan_constant_literal():
    # Independent 30-digit reference value.
    assert abs(CATALAN - 0.915965594177219015054603514932) < 1e-16


def test_local_bound():
    assert LOCAL_BOUND == 2.0


# ------------------------------------------------------------- closed form

def test_closed_form_d2_is_tsirelson():
    assert idmax_closed_form(2) == pytest.approx(2.0 * sqrt(2.0), abs=1e-12)


@pytest.mark.parametrize("d,value", [
    (3, 2.8729340511723365),
    (4, 2.8962432184587086),
    (8, 2.932409608704459),
])
def test_closed_form_reference_values(d, value):
    assert idmax_closed_form(d) == pytest.approx(value, abs=1e-12)


@pytest.mark.parametrize("d", range(2, 11))
def test_closed_form_matches_born_rule(d):
    born = cglmp_value(cglmp_born_table(maximally_entangled_state(d)))
    assert born == pytest.approx(idmax_closed_form(d), abs=1e-10)


def test_closed_form_increasing_and_bounded():
    ds = list(range(2, 201)) + [500, 1000, 10_000]
    vals = [idmax_closed_form(d) for d in ds]
    limit = idmax_asymptotic()
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(v < limit for v in vals)


def test_closed_form_rejects_d1():
    with pytest.raises(ValueError):
        idmax_closed_form(1)


def test_closed_form_requires_integral_d():
    for f in (idmax_closed_form, cglmp_coefficients):
        for d in (2.5, 3.0, "3"):
            with pytest.raises(TypeError, match="integer"):
                f(d)
        for d in (1, True, 0, -4):
            with pytest.raises(ValueError, match=">= 2"):
                f(d)
        assert np.array_equal(f(np.int64(5)), f(5))


def _idmax_reference(d: int) -> float:
    """The same series, term by term in scalar math, summed exactly by fsum."""
    def f(k: int) -> float:
        return 1.0 / (2.0 * d**3 * sin(pi * (k + 0.25) / d) ** 2)

    return 4.0 * d * fsum((1.0 - 2.0 * k / (d - 1)) * (f(k) - f(-(k + 1)))
                          for k in range(d // 2))


def test_closed_form_matches_fsum_reference():
    for d in [*range(2, 201), 939, 1000]:
        assert idmax_closed_form(d) == pytest.approx(_idmax_reference(d), rel=1e-14), d
    # the closed form adds its d/2 terms with fsum too, so its error does not
    # grow with d
    for d in (10**4, 10**5, 10**6):
        assert idmax_closed_form(d) == pytest.approx(_idmax_reference(d), rel=1e-14), d


def _idmax_per_d(d: int) -> float:
    """The closed form as one numpy expression per d, the form the column
    evaluation replaced: the oracle it must match bit for bit."""
    def f(k: np.ndarray) -> np.ndarray:
        return 1.0 / (2.0 * d**3 * np.sin(pi * (k + 0.25) / d) ** 2)

    k = np.arange(d // 2)
    terms = (1.0 - 2.0 * k / (d - 1)) * (f(k) - f(-(k + 1)))
    return 4.0 * d * fsum(terms.tolist())


def test_column_is_the_per_d_expression_bit_for_bit():
    # 2.25 M terms in one call, across hundreds of pass boundaries
    ds = list(range(2, 3001))
    assert cglmp._idmax_column(ds) == [_idmax_per_d(d) for d in ds]


def test_column_splits_one_d_across_passes():
    d = 10**5
    assert d // 2 > cglmp._IDMAX_PASS
    assert cglmp._idmax_column([d]) == [_idmax_per_d(d)]
    assert idmax_closed_form(d) == _idmax_per_d(d)


def test_column_holds_one_large_d_in_bounded_memory():
    # 100,000 terms of one d over 13 passes: a layout that evaluated each d
    # in one pass would hold all of them at once; and 2.25 M terms in fixed
    # slices cut at the d boundaries they meet
    cglmp._idmax_column(range(2, 10))
    for ds in ([200_000], range(2, 3001)):
        tracemalloc.start()
        try:
            cglmp._idmax_column(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


def test_column_keeps_unsorted_and_repeated_ds():
    ds = [7, 3, 10**5, 3, 2, 999, 7, np.int64(40)]
    assert cglmp._idmax_column(ds) == [_idmax_per_d(int(d)) for d in ds]
    assert cglmp._idmax_column([]) == []


def _exact_sum(xs) -> Fraction:
    """The exact sum of floats: each is a whole multiple of 2**-1074."""
    return Fraction(sum(n * (2**1074 // m) for n, m in map(float.as_integer_ratio, xs)), 2**1074)


def test_extract_levels_are_exact_sums():
    # segments of 1 to 2**M - 1 values, mixed signs, magnitudes over 2**-60
    # to 2**60: each level's segment sum is the exact sum of its q's, the
    # levels add up to the segment exactly, and fsum of them is fsum of it.
    # The last segment is 2**M - 1 values just above -1, each half a step of
    # the first level's grid off it: the largest level sum the bound allows.
    M = cglmp._EXTRACT_BITS
    assert cglmp._IDMAX_PASS < 2**M
    rng = np.random.default_rng(25)
    counts = [1, 2**M - 1, *rng.integers(1, 2**M, size=6).tolist(), 3]
    size = sum(counts)
    values = (rng.choice([-1.0, 1.0], size=size) * rng.uniform(1.0, 2.0, size=size)
              * np.ldexp(1.0, rng.integers(-60, 61, size=size)))
    edge = np.ldexp(2.0 * rng.integers(0, 2**10, size=2**M - 1) + 1.0, M - 54) - 1.0
    counts.append(len(edge))
    values = np.concatenate([values, edge])
    starts = [0, *accumulate(counts)][:-1]
    segments = [values[a:a + n].tolist() for a, n in zip(starts, counts)]
    levels = []
    for q in cglmp._extract(values.copy(), starts, counts):
        level = np.add.reduceat(q, starts).tolist()
        for a, n, s in zip(starts, counts, level):
            assert Fraction(s) == _exact_sum(q[a:a + n].tolist())
        levels.append(level)
    assert 2 <= len(levels) <= 6
    for segment, partials in zip(segments, zip(*levels)):
        assert _exact_sum(partials) == _exact_sum(segment)
        assert fsum(partials) == fsum(segment)


_PASS = cglmp._IDMAX_PASS


@pytest.mark.parametrize("counts", [
    # a column that ends exactly at a slice end, and one with a term more
    [_PASS // 2, _PASS - _PASS // 2],
    [_PASS // 2, _PASS - _PASS // 2, 1],
    # a d cut by a slice boundary
    [_PASS // 2, _PASS // 2 + 1],
    # one d of exactly a slice, and one a term longer
    [_PASS],
    [_PASS + 1, 1],
    # a d that starts in one slice and ends in the third, then d = 2
    [3, 2 * _PASS + 1, 1],
], ids=["slice-end", "slice-end-plus-1", "d-cut", "d-of-a-slice", "d-of-a-slice-plus-1",
        "d-over-three-slices"])
def test_column_at_pass_boundaries(counts):
    ds = [2 * n for n in counts]  # d = 2n has n terms
    assert cglmp._idmax_column(ds) == [_idmax_per_d(d) for d in ds]


def _refuse(*args):
    raise AssertionError("a term was evaluated")


@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_column_at_the_series_cutoff(shift, monkeypatch):
    # a column of cutoff - 1 terms takes the series, longer ones the array
    # passes: one d, and a run of several, on each side
    n = cglmp._IDMAX_SERIES_MAX + shift
    monkeypatch.setattr(cglmp, "_idmax_passes" if n < cglmp._IDMAX_SERIES_MAX else "_idmax_series",
                        _refuse)
    for ds in ([2 * n], [2 * (n - 15), 7, 7, 7, 7, 7]):
        assert sum(d // 2 for d in ds) == n
        assert cglmp._idmax_column(ds) == [_idmax_per_d(d) for d in ds]


def test_series_is_the_per_d_expression_bit_for_bit():
    # math.sin in place of np.sin, term by term: this fails first on a numpy
    # build whose float64 sin is not the C library's. Both paths evaluate
    # _idmax_term, so each of its terms must agree, not only their sums.
    for d in range(2, 3001):
        c = 2.0 * d**3
        terms = cglmp._idmax_term(np.arange(d // 2, dtype=float), float(d), c, np.sin)
        assert [cglmp._idmax_term(k, d, c, sin) for k in range(d // 2)] == terms.tolist(), d
    for d in [*range(2, 3001), 10**4, 10**5 + 3]:
        assert cglmp._idmax_series(d) == _idmax_per_d(d), d


@pytest.mark.parametrize("bad, error", [(3.0, TypeError), (True, ValueError), (1, ValueError)])
def test_column_rejects_invalid_d_before_any_pass(bad, error, monkeypatch):
    monkeypatch.setattr(cglmp, "_idmax_passes", _refuse)
    monkeypatch.setattr(cglmp, "_idmax_series", _refuse)
    with pytest.raises(error):
        cglmp._idmax_column([3, 4, bad])


def test_asymptotic_value():
    limit = idmax_asymptotic()
    assert limit == pytest.approx(32.0 * CATALAN / pi**2, abs=0)
    assert limit == pytest.approx(2.969814981686, abs=1e-10)
    # the closed form approaches it from below
    assert idmax_closed_form(10**6) == pytest.approx(limit, abs=1e-5)


def test_local_visibility_values():
    assert local_visibility_max_entangled(2) == pytest.approx(1.0 / sqrt(2.0), abs=1e-12)
    assert local_visibility_max_entangled(3) == pytest.approx(0.6961524227066316, abs=1e-12)
    vals = [local_visibility_max_entangled(d) for d in range(2, 21)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    # limiting value 2 / I_inf = pi^2 / (16 * Catalan)
    assert 2.0 / idmax_asymptotic() == pytest.approx(pi**2 / (16.0 * CATALAN), abs=1e-15)
    assert 2.0 / idmax_asymptotic() == pytest.approx(0.67344, abs=5e-6)


# ---------------------------------------------------------------- the value

@pytest.mark.parametrize("d", [2, 3, 5])
def test_uniform_table_scores_zero(d):
    assert cglmp_value(uniform_table(Scenario(d=d))) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_constant_strategy_saturates_local_bound(d):
    s = Scenario(d=d)
    first = next(iter(enumerate_strategies(s)))
    assert cglmp_value(strategy_table(first, s)) == pytest.approx(LOCAL_BOUND, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_deterministic_strategies_respect_local_bound(d):
    s = Scenario(d=d)
    best = max(cglmp_value(strategy_table(strat, s)) for strat in enumerate_strategies(s))
    assert best <= LOCAL_BOUND + 1e-12
    assert best == pytest.approx(LOCAL_BOUND, abs=1e-12)


@given(st.floats(0.0, 1.0))
def test_value_is_linear_in_visibility(V):
    # white noise scores zero, so mixing scales the value by V
    mixed = mix_with_white_noise(ME3, V)
    assert cglmp_value(mixed) == pytest.approx(V * cglmp_value(ME3), abs=1e-12)


@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
def test_coefficients_reproduce_value(seed, d):
    t = _product_table(seed, d=d)
    c = cglmp_coefficients(d)
    from_coeffs = float(np.einsum("abxy,abxy->", c, t.p[:, :, :2, :2]))
    assert from_coeffs == pytest.approx(cglmp_value(t), abs=1e-12)


def test_coefficients_shape_and_d1():
    assert cglmp_coefficients(4).shape == (4, 4, 2, 2)
    with pytest.raises(ValueError):
        cglmp_coefficients(1)


def test_optimal_state_beats_maximally_entangled():
    for d in (3, 4, 5):
        tuned = cglmp_value(cglmp_born_table(cglmp_state(d)))
        assert tuned > idmax_closed_form(d) + 1e-6
