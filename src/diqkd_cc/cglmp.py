"""CGLMP Bell expression for d outcomes: evaluation, local bound, closed-form
maximum on the maximally entangled state, and the d->infinity constants.
"""
from __future__ import annotations

from itertools import chain, islice
from math import fsum, pi

import numpy as np

from .scenario import CorrelationTable, _check_dimension, _differences

#: Local-hidden-variable bound of the CGLMP expression.
LOCAL_BOUND = 2.0

#: Catalan's constant, embedded as a literal to 20 digits.
CATALAN = 0.91596559417721901505


def _cglmp_terms(d: int):
    """The terms of I_d, one (w, shifts) per k = 0 .. [d/2]-1: the weight
    w = 1 - 2k/(d-1) and the eight outcome-shift probabilities it multiplies,
    as (x-1, y-1, (b - a) mod d, sign). Four have the outcomes differ by +k
    (or the role-swapped k+1) and count +1, four differ the opposite way and
    count -1. For d=2 only k=0 contributes and the weight is 1."""
    for k in range(d // 2):
        w = 1.0 - 2.0 * k / (d - 1)
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
#: 16 MB tracemalloc peak (0.62 MB with 8192).
_IDMAX_PASS = 8192


def _idmax_pieces(ds: list[int]):
    """The terms of every d's series, d after d and each in k order, cut into
    passes of _IDMAX_PASS terms (a d's terms may span passes). Yields one
    list of pieces (d, k, n) per pass: the n terms of d's series from k on."""
    pieces, room = [], _IDMAX_PASS
    for d in ds:
        k, half = 0, d // 2
        while k < half:
            n = min(half - k, room)
            pieces.append((d, k, n))
            k += n
            room -= n
            if not room:
                yield pieces
                pieces, room = [], _IDMAX_PASS
    if pieces:
        yield pieces


def _idmax_passes(ds: list[int]):
    """The terms of each pass of _idmax_pieces, as a list. Each term is the
    per-d expression of idmax_closed_form, element by element: k, and the
    per-d factors d, d - 1 and 2d^3, are the numbers the per-d expression
    used, laid out piece by piece. The arrays stay in this generator's frame
    until the next pass replaces them: a helper function that freed them on
    every return took a third longer on d = 2..5000."""
    for pieces in _idmax_pieces(ds):
        size = sum(n for _, _, n in pieces)
        k, d, c = np.empty(size, dtype=np.int64), np.empty(size), np.empty(size)
        at = 0
        for dim, first, n in pieces:
            k[at:at + n] = np.arange(first, first + n)
            d[at:at + n] = dim
            c[at:at + n] = 2.0 * dim**3
            at += n

        def f(k: np.ndarray) -> np.ndarray:
            return 1.0 / (c * np.sin(pi * (k + 0.25) / d) ** 2)

        yield ((1.0 - 2.0 * k / (d - 1.0)) * (f(k) - f(-(k + 1)))).tolist()


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
