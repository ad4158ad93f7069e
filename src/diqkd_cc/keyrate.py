"""Key-rate upper bound under the convex-combination attack: PA/EC terms,
analytic and LP branches, critical visibilities, and the d->infinity limit.

All entropies are base-d ("dits"); multiply by log2(d) for bits.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import log, pi

import numpy as np

from .cglmp import CATALAN, local_visibility_max_entangled
from .polytope import check_visibility_lp_dimension, difference_visibility
from .quantum import (
    PureState,
    cglmp_born_table,
    cglmp_state,
    difference_distribution,
    maximally_entangled_state,
)
from .scenario import CorrelationTable, Scenario, _check_dimension

#: Branch labels: how the nonlocal resource and the local weight are obtained.
ANALYTIC_MAX_ENTANGLED = "analytic-max-entangled"
LP_MAX_ENTANGLED = "lp-max-entangled"
LP_CGLMP_STATE = "lp-cglmp-state"
BRANCHES = (ANALYTIC_MAX_ENTANGLED, LP_MAX_ENTANGLED, LP_CGLMP_STATE)

#: Bisection stops once the bracket is narrower than this.
BISECTION_WIDTH = 1e-8

#: Probabilities below this are treated as exact zeros in entropies.
ZERO_PROBABILITY = 1e-300


class BracketError(RuntimeError):
    """Root bracketing failed where a sign change was expected."""


@dataclass(frozen=True)
class KeyRatePoint:
    """One visibility sample: r_ub = pa_term - ec_term, plus Eve's local weight."""
    V: float
    qL: float
    pa_term: float
    ec_term: float
    r_ub: float
    branch: str


@dataclass(frozen=True)
class CriticalVisibility:
    d: int
    branch: str
    v_crit: float
    residual: float  # r_ub at the returned visibility


def _log_d(value: float, d: int) -> float:
    return log(value) / log(d)


def shannon_base_d(p, d: int) -> float:
    """Shannon entropy in base-d units with 0 log 0 := 0."""
    d = _check_dimension(d)
    total = 0.0
    for v in np.asarray(p, dtype=float).ravel():
        if v > ZERO_PROBABILITY:
            total -= v * _log_d(v, d)
    return total


def ec_term_isotropic(d: int, V: float) -> float:
    """H(A|B) at the key settings for the white-noise-mixed perfectly
    correlated table: 1 - [(1+(d-1)V)/d] log_d(1+(d-1)V) - [(d-1)(1-V)/d] log_d(1-V)."""
    d = _check_dimension(d)
    if not 0.0 <= V <= 1.0:
        raise ValueError(f"visibility must lie in [0,1], got {V}")
    ln_d = log(d)
    out = 1.0
    big = 1.0 + (d - 1) * V
    small = 1.0 - V
    if big > ZERO_PROBABILITY:
        out -= big / d * (log(big) / ln_d)
    if small > ZERO_PROBABILITY:
        out -= (d - 1) * small / d * (log(small) / ln_d)
    return out


def ec_term_general(t: CorrelationTable) -> float:
    """H(A|B) at the key settings of an arbitrary table, base-d.

    Zero Bob-marginal cells contribute nothing.
    """
    s = t.scenario
    joint = t.p[:, :, s.keyX - 1, s.keyY - 1]
    pB = np.broadcast_to(joint.sum(axis=0), joint.shape)
    keep = (joint > ZERO_PROBABILITY) & (pB > ZERO_PROBABILITY)
    pab = joint[keep]
    return float(-(pab * np.log(pab / pB[keep])).sum() / log(s.d))


def pa_term_cc(qL: float, alice_marginal_at_key: np.ndarray) -> float:
    """H(A|E) = (1 - qL) * H_d(marginal): Eve knows the local rounds outright
    and nothing about the rest. Equals 1 - qL for a uniform marginal."""
    d = len(alice_marginal_at_key)
    qNL = min(1.0, max(0.0, 1.0 - qL))
    return qNL * shannon_base_d(alice_marginal_at_key, d)


@lru_cache(maxsize=32)
def nonlocal_table(d: int, branch: str) -> CorrelationTable:
    """Ideal (V=1) table of the branch's state under the optimal phases. The
    rate and V_L read only its difference distribution (_ideal_differences);
    the full table is for library use and the tests."""
    return cglmp_born_table(_branch_state(d, branch))


def _branch_state(d: int, branch: str) -> PureState:
    if branch == LP_CGLMP_STATE:
        return cglmp_state(d)
    if branch in (LP_MAX_ENTANGLED, ANALYTIC_MAX_ENTANGLED):
        return maximally_entangled_state(d)
    raise ValueError(f"unknown branch {branch!r}; expected one of {BRANCHES}")


@lru_cache(maxsize=32)
def _ideal_differences(d: int, branch: str) -> np.ndarray:
    """D(k|x,y) of the branch's ideal table, from the amplitudes c_q of its
    state sum_q c_q |qq> (quantum.difference_distribution)."""
    D = difference_distribution(_branch_state(d, branch).amplitudes[:: d + 1])
    D.setflags(write=False)
    return D


@lru_cache(maxsize=32)
def local_visibility(d: int, branch: str) -> float:
    """Largest visibility V_L at which the branch's mixed table is still local.

    Analytic branch: 2/I_d^max. LP branches: one visibility LP over Alice's
    outcome pairs (Fine, PRL 48, 291 (1982)) on the ideal table's difference
    distribution, 3d^2 + 1 columns and 8d + 1 rows (difference_visibility),
    solved once per (d, branch) and cached. d is checked against
    VISIBILITY_LP_MAX_D before the branch's state is built.
    """
    if branch == ANALYTIC_MAX_ENTANGLED:
        return local_visibility_max_entangled(d)
    check_visibility_lp_dimension(d)
    return difference_visibility(_ideal_differences(d, branch))


def _rate_terms(d: int, V: float, branch: str) -> tuple[float, float, float]:
    """(qL, pa, ec) at visibility V, so that r_ub = pa - ec; see keyrate_point."""
    if not 0.0 <= V <= 1.0:
        raise ValueError(f"visibility must lie in [0,1], got {V}")
    VL = local_visibility(d, branch)
    qL = (1.0 - V) / (1.0 - VL) if V >= VL else 1.0
    if branch == ANALYTIC_MAX_ENTANGLED:
        ec = ec_term_isotropic(d, V)
    else:
        # the mixed table is shift-invariant, so H(A|B) is the entropy of its
        # key-setting difference distribution D_m; the log of D_m / sum D_m
        # (Bob's marginal over 1/d) keeps it exact where D_m is one point
        key = _ideal_differences(d, branch)[:, Scenario.keyX - 1, Scenario.keyY - 1]
        mixed = V * key + (1.0 - V) / d
        total = mixed.sum()
        mixed = mixed[mixed > ZERO_PROBABILITY]
        ec = float(-(mixed * np.log(mixed / total)).sum() / log(d))
    return qL, 1.0 - qL, ec


def keyrate_point(d: int, V: float, branch: str) -> KeyRatePoint:
    """r_ub = pa - ec at visibility V.

    The mixed table lies on the segment from white noise to the ideal table,
    where Eve's maximal local weight is qL = min(1, (1-V)/(1-V_L)). Every
    table here depends on the outcomes only through b - a, so Alice's key
    marginal is uniform and pa = 1 - qL on every branch. The analytic branch
    takes the isotropic EC term; the LP branches take H_d(V D_key + (1-V)/d)
    of the ideal table's key-setting difference distribution D_key.
    """
    qL, pa, ec = _rate_terms(d, V, branch)
    return KeyRatePoint(V=V, qL=qL, pa_term=pa, ec_term=ec, r_ub=pa - ec, branch=branch)


def _bisect(f, lo: float, hi: float) -> float:
    f_lo, f_hi = f(lo), f(hi)
    if not (f_lo <= 0.0 <= f_hi):
        raise BracketError(
            f"no sign change on [{lo:.6f}, {hi:.6f}]: f(lo)={f_lo:.3e}, f(hi)={f_hi:.3e}")
    while hi - lo > BISECTION_WIDTH:
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def critical_visibility(d: int, branch: str = ANALYTIC_MAX_ENTANGLED) -> CriticalVisibility:
    """Root of r_ub(V) on [V_L, 1], located by bisection (width 1e-8);
    r_ub is monotone and changes sign on that bracket."""
    def f(V: float) -> float:
        _, pa, ec = _rate_terms(d, V, branch)
        return pa - ec

    v = _bisect(f, local_visibility(d, branch), 1.0)
    return CriticalVisibility(d=d, branch=branch, v_crit=v, residual=f(v))


def rub_asymptotic(V: float) -> float:
    """d->infinity key-rate bound: [(2 - c)V - 1]/(1 - c), c = pi^2/(16 Catalan)."""
    c = pi**2 / (16.0 * CATALAN)
    return ((2.0 - c) * V - 1.0) / (1.0 - c)


def vcrit_asymptotic() -> float:
    """Root of the asymptotic bound: 1/(2 - pi^2/(16 Catalan))."""
    return 1.0 / (2.0 - pi**2 / (16.0 * CATALAN))


def thread_count() -> int:
    """Always 1: grids are evaluated in a single thread. Kept because
    perfbench/run.py records it in every result's environment."""
    return 1


def keyrate_curve(d: int, branch: str, v_min: float, v_max: float,
                  steps: int) -> list[KeyRatePoint]:
    """Evaluate the branch on a uniform visibility grid, endpoints included."""
    if not (0.0 <= v_min < v_max <= 1.0):
        raise ValueError(f"need 0 <= v_min < v_max <= 1, got [{v_min}, {v_max}]")
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    grid = np.linspace(v_min, v_max, steps)
    grid[0], grid[-1] = v_min, v_max
    return [keyrate_point(d, float(V), branch) for V in grid]
