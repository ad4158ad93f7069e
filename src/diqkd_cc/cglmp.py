"""CGLMP Bell expression for d outcomes: evaluation, local bound, closed-form
maximum on the maximally entangled state, and the d->infinity constants.
"""
from __future__ import annotations

from itertools import accumulate, chain, islice
from math import fsum, pi

import numpy as np

from .scenario import CorrelationTable, _check_dimension, _differences

#: Local-hidden-variable bound of the CGLMP expression.
LOCAL_BOUND = 2.0

#: Catalan's constant, embedded as a literal to 20 digits.
CATALAN = 0.91596559417721901505


def _cglmp_weight(k, d):
    """w_k = 1 - 2k/(d-1), the weight of term k of I_d; elementwise over
    arrays of k and d."""
    return 1.0 - 2.0 * k / (d - 1)


def _cglmp_terms(d: int):
    """The terms of I_d, one (w, shifts) per k = 0 .. [d/2]-1: the weight
    w = _cglmp_weight(k, d) and the eight outcome-shift probabilities it
    multiplies, as (x-1, y-1, (b - a) mod d, sign). Four have the outcomes
    differ by +k (or the role-swapped k+1) and count +1, four differ the
    opposite way and count -1. For d=2 only k=0 contributes and the weight
    is 1."""
    for k in range(d // 2):
        w = _cglmp_weight(k, d)
        yield w, [(x, y, shift % d, sign) for x, y, shift, sign in (
            (0, 0, k, 1),             # A_1 = B_1 + k
            (1, 0, -(k + 1), 1),      # B_1 = A_2 + k + 1
            (1, 1, k, 1),             # A_2 = B_2 + k
            (0, 1, -k, 1),            # B_2 = A_1 + k
            (0, 0, -(k + 1), -1),     # A_1 = B_1 - k - 1
            (1, 0, k, -1),            # B_1 = A_2 - k
            (1, 1, -(k + 1), -1),     # A_2 = B_2 - k - 1
            (0, 1, k + 1, -1),        # B_2 = A_1 - k - 1
        )]


def cglmp_value(t: CorrelationTable) -> float:
    """I_d of the table at the two Bell settings of each party: the terms of
    _cglmp_terms on its difference distribution D(k|x,y)."""
    D = _differences(t)
    total = 0.0
    for w, shifts in _cglmp_terms(t.scenario.d):
        inner = 0.0
        for x, y, k, sign in shifts:
            inner += sign * float(D[k, x, y])
        total += w * inner
    return total


def _difference_coefficients(d: int) -> np.ndarray:
    """C[k, x-1, y-1]: the coefficient of D(k|x,y) in I_d over the two Bell
    settings, the terms of _cglmp_terms added up per difference class."""
    C = np.zeros((d, 2, 2))
    for w, shifts in _cglmp_terms(d):
        for x, y, k, sign in shifts:
            C[k, x, y] += sign * w
    return C


def cglmp_coefficients(d: int) -> np.ndarray:
    """c[a-1, b-1, x-1, y-1] over the two Bell settings so that
    I_d = sum_{a,b,x,y} c(a,b,x,y) p(a,b|x,y): c(a, b, x, y) = C((b - a) mod d, x, y)
    of _difference_coefficients."""
    d = _check_dimension(d)
    j = np.arange(d)
    return _difference_coefficients(d)[(j[None, :] - j[:, None]) % d]


#: Terms per array pass of _idmax_column. On the d = 2..1000 column (250,000
#: terms; medians of 40 interleaved runs on one core of a shared 2-core x86-64
#: VM), passes of 4096 to 16384 terms take 29 to 30 ms against 50 ms for one
#: numpy call per d, and one pass over the whole column takes 42 ms with a
#: 16 MB tracemalloc peak (0.80 MB with 8192).
_IDMAX_PASS = 8192


def _idmax_passes(ds: list[int]):
    """The terms of every d's series, d after d and each in k order, as one
    list per pass of _IDMAX_PASS terms (a d's terms may span passes). A pass
    is the slice [start, start + _IDMAX_PASS) of the column's term index t;
    t finds its d by searchsorted on the running term counts, and
    k = t - first(d). Each term is the per-d expression of
    idmax_closed_form, element by element: first(d), d and 2d^3 (computed
    in Python ints, rounded once) are gathered from per-d arrays. t and k
    are whole numbers held exactly in float64, so a pass runs only float64
    loops: the first call of each further numpy loop costs a fresh process,
    such as check-local's, 10 to 40 us. The arrays stay in this
    generator's frame until the next pass replaces them: a helper function
    that freed them on every return took a third longer on d = 2..5000."""
    ends = list(accumulate(d // 2 for d in ds))
    bounds = np.array(ends, dtype=float)
    per_d = np.array([[e - d // 2 for d, e in zip(ds, ends)], ds,
                      [2.0 * d**3 for d in ds]], dtype=float)
    total = ends[-1] if ds else 0
    for start in range(0, total, _IDMAX_PASS):
        t = np.arange(start, min(start + _IDMAX_PASS, total), dtype=float)
        first, d, c = per_d.take(bounds.searchsorted(t, side="right"), axis=1)
        k = t - first

        def f(k: np.ndarray) -> np.ndarray:
            return 1.0 / (c * np.sin(pi * (k + 0.25) / d) ** 2)

        yield (_cglmp_weight(k, d) * (f(k) - f(-(k + 1)))).tolist()


def _idmax_column(ds) -> list[float]:
    """idmax_closed_form for every d in ds, in ds order. The terms of
    consecutive d are evaluated together, _IDMAX_PASS at a time, and each d's
    are added with math.fsum, which is correctly rounded: grouping the terms
    into passes moves no bit. Every d is checked before the first pass."""
    ds = [_check_dimension(d) for d in ds]
    terms = chain.from_iterable(_idmax_passes(ds))
    return [4.0 * d * fsum(islice(terms, d // 2)) for d in ds]


def idmax_closed_form(d: int) -> float:
    """Maximal I_d on the maximally entangled state, in closed form:
    4d * sum_{k=0}^{[d/2]-1} (1 - 2k/(d-1)) (f_d(k) - f_d(-(k+1))),
    f_d(k) = 1 / (2 d^3 sin^2[pi (k + 1/4) / d]).

    The one-element case of _idmax_column: the terms are evaluated in numpy
    and added with math.fsum (correctly rounded, so the sum's error does not
    grow with d).
    """
    return _idmax_column([d])[0]


def idmax_asymptotic() -> float:
    """lim_{d->inf} I_d^max = 32 * Catalan / pi^2."""
    return 32.0 * CATALAN / pi**2


def local_visibility_max_entangled(d: int) -> float:
    """Largest visibility at which the mixed maximally-entangled table stays
    local: the local bound over the maximal violation, 2 / I_d^max."""
    return LOCAL_BOUND / idmax_closed_form(d)
