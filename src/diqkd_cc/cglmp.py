"""CGLMP Bell expression for d outcomes: evaluation, local bound, closed-form
maximum on the maximally entangled state, and the d->infinity constants.
"""
from __future__ import annotations

from itertools import accumulate
from math import fsum, pi, sin

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


#: Most terms in one array pass of _idmax_column. On one core of a shared
#: 2-core x86-64 VM (CPU time; the median over 6 to 8 processes of each
#: process's median column), the d = 2..1000 column (250,000 terms) takes
#: 11.1 ms with passes of 8192 or 16384 terms and 12.5 ms with 4096, and
#: d = 2..5000 268, 234 and 349 ms, against 21.5 ms and 501 ms for the fsum
#: of every term that this replaced. The d = 2..3000 column peaks at 1.73 MB
#: of tracemalloc with 8192 and 2.50 MB with 16384.
_IDMAX_PASS = 8192
#: A segment of _extract holds fewer than 2**_EXTRACT_BITS terms: any
#: segment of a pass does.
_EXTRACT_BITS = _IDMAX_PASS.bit_length()
#: A column of fewer terms than this in all is evaluated by _idmax_series,
#: in scalar math with no numpy call, a longer one in array passes. In a
#: fresh process, such as each command's, the series costs about 30 us plus
#: 0.5 to 0.7 us per term, and the first array pass 280 to 340 us, most of
#: it the first call of each numpy loop: they break even near 500 terms (one
#: d, or a run of d's). Once the loops have run, the passes are cheaper and
#: the series wins below about 100 terms only (wall-time medians of 9 to 11
#: processes per size and path, same machine).
_IDMAX_SERIES_MAX = 256


def _extract(r: np.ndarray, starts: list[int], counts: list[int]):
    """The levels q of an error-free split of r, segment by segment
    (ExtractVector: Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31, 189 (2008),
    Lemma 3.3). Segment s is r[starts[s]:starts[s] + counts[s]], contiguous
    and in order, and holds fewer than 2**_EXTRACT_BITS = 2**M terms. With
    sigma = 2**(M + e), where every |t| of the segment is at most 2**e, the
    level q = (sigma + t) - sigma is t rounded to a multiple of 2**-53 sigma,
    and q and t - q are both exact. Every q is such a multiple of modulus at
    most 2**e = 2**(53 - M) units, so the level's segment sums stay below
    2**53 units and are exact in any summation order (np.add.reduceat). The
    next level splits t - q, at most 2**-53 sigma, with sigma scaled by
    2**(M - 53); the levels end when nothing is left. So the level sums of a
    segment add up to its terms' sum exactly. r is overwritten with what is
    left."""
    _, e = np.frexp(np.maximum.reduceat(np.abs(r), starts))
    sigma = np.repeat(np.ldexp(1.0, e + _EXTRACT_BITS), counts)
    while True:
        q = sigma + r
        q -= sigma
        yield q
        r -= q
        if not r.any():
            return
        sigma *= 2.0 ** (_EXTRACT_BITS - 53)


def _idmax_term(k, d, c, sin):
    """Term k of idmax_closed_form's series for d, with c = 2d^3: w_k (1/(c s^2)
    - 1/(c r^2)), s = sin(pi (k + 1/4)/d) and r the same at -(k+1). Numbers with
    math.sin and float64 arrays with np.sin take the same IEEE operations in
    the same order: the tests pin the two equal term by term."""
    w = _cglmp_weight(k, d)  # first, for the heap: see _idmax_passes
    s = sin(pi * (k + 0.25) / d)
    r = sin(pi * (-(k + 1) + 0.25) / d)
    return w * (1.0 / (c * (s * s)) - 1.0 / (c * (r * r)))


def _idmax_passes(ds: list[int]) -> list[list[float]]:
    """Per d of ds, in order, the level sums of _extract, floats whose exact
    sum is the sum of the terms of its series. Each pass evaluates the slice
    [t0, t0 + _IDMAX_PASS) of the column's running term index t, cut at the
    ends of the d's it meets: first(d), d and 2d^3 (Python ints, rounded
    once) come from one np.repeat over the pieces and k = t - first(d), so
    each term is _idmax_term element by element, in float64 loops only. The
    arrays t, k and terms stay in this frame until the next pass replaces
    them, and _idmax_term computes w first, so that each pass reuses the heap
    of the last: in a fresh process the d = 2..5000 column took 650 to 900
    minor page faults, and 9,000 to 25,000 with t freed at once or w last."""
    counts = [d // 2 for d in ds]
    ends = list(accumulate(counts))
    per_d = np.array([[e - n for e, n in zip(ends, counts)], ds, [2.0 * d**3 for d in ds]])
    partials = [[] for _ in ds]
    i = 0  # the d that the slice starts in
    for t0 in range(0, sum(counts), _IDMAX_PASS):
        t1 = min(t0 + _IDMAX_PASS, ends[-1])
        j = i
        while ends[j] < t1:
            j += 1
        cuts = [t0, *ends[i:j], t1]
        n = [b - a for a, b in zip(cuts, cuts[1:])]
        starts = [a - t0 for a in cuts[:-1]]
        first, d, c = np.repeat(per_d[:, i:j + 1], n, axis=1)
        t = np.arange(t0, t1, dtype=float)
        k = t - first
        terms = _idmax_term(k, d, c, np.sin)
        for q in _extract(terms, starts, n):
            for p, level in zip(partials[i:j + 1], np.add.reduceat(q, starts).tolist()):
                p.append(level)
        i = j + (ends[j] == t1)
    return partials


def _idmax_series(d: int) -> float:
    """idmax_closed_form of one d in stdlib math: _idmax_term with math.sin
    for each k, the terms added by one math.fsum."""
    c = 2.0 * d**3
    return 4.0 * d * fsum(_idmax_term(k, d, c, sin) for k in range(d // 2))


def _idmax_column(ds) -> list[float]:
    """idmax_closed_form for every d in ds, in ds order. A column of fewer
    than _IDMAX_SERIES_MAX terms in all takes _idmax_series per d. Otherwise
    _idmax_passes gives each d floats whose exact sum is its terms' sum, and
    math.fsum rounds that sum correctly, so the value is the fsum of the d's
    terms bit for bit, however the slices and levels split them: the
    series' value. Every d is checked before any term is evaluated."""
    ds = [_check_dimension(d) for d in ds]
    if sum(d // 2 for d in ds) < _IDMAX_SERIES_MAX:
        return [_idmax_series(d) for d in ds]
    return [4.0 * d * fsum(p) for d, p in zip(ds, _idmax_passes(ds))]


def idmax_closed_form(d: int) -> float:
    """Maximal I_d on the maximally entangled state, in closed form:
    4d * sum_{k=0}^{[d/2]-1} (1 - 2k/(d-1)) (f_d(k) - f_d(-(k+1))),
    f_d(k) = 1 / (2 d^3 sin^2[pi (k + 1/4) / d]).

    The one-element case of _idmax_column: each term is _idmax_term, in stdlib
    math for d < 2 * _IDMAX_SERIES_MAX and in numpy passes above, and their
    sum is rounded once, by math.fsum (so its error does not grow with d).
    """
    return _idmax_column([d])[0]


def idmax_asymptotic() -> float:
    """lim_{d->inf} I_d^max = 32 * Catalan / pi^2."""
    return 32.0 * CATALAN / pi**2


def local_visibility_max_entangled(d: int) -> float:
    """Largest visibility at which the mixed maximally-entangled table stays
    local: the local bound over the maximal violation, 2 / I_d^max."""
    return LOCAL_BOUND / idmax_closed_form(d)
