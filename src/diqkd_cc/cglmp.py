"""CGLMP Bell expression for d outcomes: evaluation, local bound, closed-form
maximum on the maximally entangled state, and the d->infinity constants.
"""
from __future__ import annotations

from math import fsum, pi

import numpy as np

from .scenario import CorrelationTable, _check_dimension, k_shift_probability

#: Local-hidden-variable bound of the CGLMP expression.
LOCAL_BOUND = 2.0

#: Catalan's constant, embedded as a literal to 20 digits.
CATALAN = 0.91596559417721901505


def cglmp_value(t: CorrelationTable) -> float:
    """I_d of the table at the two Bell settings of each party.

    Sum over k = 0 .. [d/2]-1 with weight 1 - 2k/(d-1) of the eight
    outcome-shift probabilities: four where the outcomes differ by +k (or the
    role-swapped k+1) minus four where they differ the opposite way. For d=2
    only k=0 contributes and the weight is 1.
    """
    d = t.scenario.d

    def S(x: int, y: int, k: int) -> float:
        return k_shift_probability(t, x, y, k % d)

    total = 0.0
    for k in range(d // 2):
        w = 1.0 - 2.0 * k / (d - 1)
        total += w * (
            S(1, 1, k)             # A_1 = B_1 + k
            + S(2, 1, -(k + 1))    # B_1 = A_2 + k + 1
            + S(2, 2, k)           # A_2 = B_2 + k
            + S(1, 2, -k)          # B_2 = A_1 + k
            - S(1, 1, -(k + 1))    # A_1 = B_1 - k - 1
            - S(2, 1, k)           # B_1 = A_2 - k
            - S(2, 2, -(k + 1))    # A_2 = B_2 - k - 1
            - S(1, 2, k + 1)       # B_2 = A_1 - k - 1
        )
    return total


def cglmp_coefficients(d: int) -> np.ndarray:
    """c[a-1, b-1, x-1, y-1] over the two Bell settings so that
    I_d = sum_{a,b,x,y} c(a,b,x,y) p(a,b|x,y).

    Same term bookkeeping as cglmp_value, pushed onto the (b - a) mod d
    difference classes of each setting pair.
    """
    d = _check_dimension(d)
    c = np.zeros((d, d, 2, 2))
    j = np.arange(d)

    def add(x, y, k, w):
        c[j, (j + k) % d, x, y] += w

    for k in range(d // 2):
        w = 1.0 - 2.0 * k / (d - 1)
        add(0, 0, k, +w)
        add(1, 0, -(k + 1), +w)
        add(1, 1, k, +w)
        add(0, 1, -k, +w)
        add(0, 0, -(k + 1), -w)
        add(1, 0, k, -w)
        add(1, 1, -(k + 1), -w)
        add(0, 1, k + 1, -w)
    return c


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
