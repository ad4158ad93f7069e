"""CGLMP Bell expression for d outcomes: evaluation, local bound, closed-form
maximum on the maximally entangled state, and the d->infinity constants.
"""
from __future__ import annotations

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


def idmax_closed_form(d: int) -> float:
    """Maximal I_d on the maximally entangled state, in closed form:
    4d * sum_{k=0}^{[d/2]-1} (1 - 2k/(d-1)) (f_d(k) - f_d(-(k+1))),
    f_d(k) = 1 / (2 d^3 sin^2[pi (k + 1/4) / d]).

    The terms are one numpy expression over k, added with math.fsum
    (correctly rounded, so the sum's error does not grow with d).
    """
    d = _check_dimension(d)

    def f(k: np.ndarray) -> np.ndarray:
        return 1.0 / (2.0 * d**3 * np.sin(pi * (k + 0.25) / d) ** 2)

    k = np.arange(d // 2)
    terms = (1.0 - 2.0 * k / (d - 1)) * (f(k) - f(-(k + 1)))
    return 4.0 * d * fsum(terms.tolist())


def idmax_asymptotic() -> float:
    """lim_{d->inf} I_d^max = 32 * Catalan / pi^2."""
    return 32.0 * CATALAN / pi**2


def local_visibility_max_entangled(d: int) -> float:
    """Largest visibility at which the mixed maximally-entangled table stays
    local: the local bound over the maximal violation, 2 / I_d^max."""
    return LOCAL_BOUND / idmax_closed_form(d)
