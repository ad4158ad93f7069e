"""Local deterministic strategies and the two local-polytope LPs: the
convex-combination attack (Eve's maximal local weight at one observed table)
and the white-noise visibility of a table (V_L, membership and its slack).

The visibility LP of a table that depends on the outcomes only through
b - a mod d is solved on its difference distribution over the d^4 strategy
classes of the joint outcome shift (a, b) -> (a+k, b+k) (Rosset, Bancal &
Gisin, arXiv:1404.1306); any other table keeps all d^5 strategies.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .scenario import CorrelationTable, Scenario

#: Refuse to enumerate more deterministic strategies (or, for the shift-class
#: LP, more shift classes: one strategy per class) than this.
STRATEGY_CAP = 10**6

#: Per-constraint feasibility tolerance for all LP solves.
LP_FEASIBILITY_TOL = 1e-9

#: A table is shift-invariant if max |p(a,a+c|x,y) - D(c|x,y)/d| is at most this.
_SHIFT_INVARIANCE_TOL = 1e-12

_LINPROG_OPTIONS = {
    "primal_feasibility_tolerance": LP_FEASIBILITY_TOL,
    "dual_feasibility_tolerance": LP_FEASIBILITY_TOL,
}


class StrategyCapExceeded(ValueError):
    """Scenario has more deterministic strategies than STRATEGY_CAP."""


class DecompositionInfeasible(RuntimeError):
    """Observed table is not in the convex hull of {strategies} u {pNL};
    residual is the white-noise weight that would bring it into the hull."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class DeterministicStrategy:
    """A pair of input->output functions; a vertex of the local polytope.

    fA/fB map settings (position, 1-based) to outcomes (1-based). The id is
    the mixed-radix encoding with Alice's digits most significant, so id 0
    outputs 1 on every setting.
    """
    fA: tuple[int, ...]
    fB: tuple[int, ...]
    id: int


def strategy_id(fA: tuple[int, ...], fB: tuple[int, ...], scenario: Scenario) -> int:
    ident = 0
    for outcome in fA + fB:
        ident = ident * scenario.d + (outcome - 1)
    return ident


def strategy_from_id(ident: int, scenario: Scenario) -> DeterministicStrategy:
    s = scenario
    if not 0 <= ident < s.n_strategies:
        raise ValueError(f"strategy id {ident} outside [0, {s.n_strategies - 1}]")
    digits = []
    rest = ident
    for _ in range(s.nA + s.nB):
        rest, digit = divmod(rest, s.d)
        digits.append(digit + 1)
    digits.reverse()
    return DeterministicStrategy(fA=tuple(digits[: s.nA]), fB=tuple(digits[s.nA:]), id=ident)


def check_strategy_cap(scenario: Scenario, shift_classes: bool = False) -> None:
    """Raise StrategyCapExceeded if an LP would enumerate more than STRATEGY_CAP
    strategies: all d^(nA+nB), or d^(nA+nB-1) shift classes."""
    n = scenario.n_strategies // scenario.d if shift_classes else scenario.n_strategies
    if n > STRATEGY_CAP:
        raise StrategyCapExceeded(f"{n} strategies exceed the cap of {STRATEGY_CAP}")


def enumerate_strategies(scenario: Scenario) -> Iterator[DeterministicStrategy]:
    """All d^(nA+nB) strategies in increasing id order, each exactly once."""
    check_strategy_cap(scenario)
    for ident in range(scenario.n_strategies):
        yield strategy_from_id(ident, scenario)


def strategy_table(strategy: DeterministicStrategy, scenario: Scenario) -> CorrelationTable:
    """Indicator table: p(a,b|x,y) = 1 iff a = fA(x) and b = fB(y)."""
    s = scenario
    p = np.zeros((s.d, s.d, s.nA, s.nB))
    for x in range(s.nA):
        for y in range(s.nB):
            p[strategy.fA[x] - 1, strategy.fB[y] - 1, x, y] = 1.0
    return CorrelationTable(s, p)


def _table_vector(t: CorrelationTable) -> np.ndarray:
    """Flatten p(a,b|x,y) in (a,b,x,y) row order used by the LP rows."""
    return t.p.reshape(-1)


def _difference_vector(t: CorrelationTable) -> np.ndarray | None:
    """D(c|x,y) = sum_a p(a, a+c mod d|x,y) in (c,x,y) row order, or None if
    t is not shift-invariant (it then has no exact difference-row form)."""
    d = t.scenario.d
    a = np.arange(d)[:, None]
    shifted = t.p[a, (a + np.arange(d)) % d]  # shifted[a, c] = p(a, a+c)
    D = shifted.sum(axis=0)
    if np.max(np.abs(shifted - D / d)) > _SHIFT_INVARIANCE_TOL:
        return None
    return D.reshape(-1)


@lru_cache(maxsize=8)
def _strategy_matrix(scenario: Scenario, shift_classes: bool) -> sp.csc_array:
    """Sparse (d^2 nA nB) x N matrix whose columns are the strategy tables.

    With shift_classes, the columns are the ids below d^(nA+nB-1) (Alice's
    first output 1: one strategy per shift class) and the rows the d nA nB
    differences ((b-a) mod d, x, y). Built digit-wise over all ids at once; each column has exactly nA*nB
    nonzeros, so nothing dense is ever materialized.
    """
    check_strategy_cap(scenario, shift_classes)
    s = scenario
    n = s.n_strategies // s.d if shift_classes else s.n_strategies
    ids = np.arange(n)
    n_digits = s.nA + s.nB
    digits = [(ids // s.d ** (n_digits - 1 - j)) % s.d for j in range(n_digits)]
    rows, cols = [], []
    for x in range(s.nA):
        for y in range(s.nB):
            a = digits[x]
            b = digits[s.nA + y]
            outcome = (b - a) % s.d if shift_classes else a * s.d + b
            rows.append((outcome * s.nA + x) * s.nB + y)
            cols.append(ids)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    n_outcomes = s.d if shift_classes else s.d**2
    return sp.csc_array((np.ones(rows.size), (rows, cols)),
                        shape=(n_outcomes * s.nA * s.nB, n))


@dataclass(frozen=True)
class CcDecomposition:
    """Eve's mixture: weights over strategy ids plus the nonlocal weight."""
    weights: dict[int, float]
    qNL: float
    qL: float
    max_residual: float

    def reconstruction(self, scenario: Scenario, pNL: CorrelationTable) -> CorrelationTable:
        p = self.qNL * pNL.p.copy()
        for ident, w in self.weights.items():
            p += w * strategy_table(strategy_from_id(ident, scenario), scenario).p
        return CorrelationTable(scenario, p)


def max_local_weight(observed: CorrelationTable, pNL: CorrelationTable) -> CcDecomposition:
    """Solve: maximize sum_i q_i over q >= 0 with
    sum_i q_i p_i(a,b|x,y) + qNL pNL(a,b|x,y) = observed(a,b|x,y) for all
    (a,b,x,y) and sum q + qNL = 1.

    The per-(x,y) normalization rows make the total-weight row redundant; it
    is kept and left to the solver's presolve.
    """
    if observed.scenario != pNL.scenario:
        raise ValueError("observed and nonlocal tables use different scenarios")
    scenario = observed.scenario
    S = _strategy_matrix(scenario, False)
    n = S.shape[1]
    nl_col = sp.csc_array(_table_vector(pNL).reshape(-1, 1))
    A_eq = sp.vstack([sp.hstack([S, nl_col]), np.ones((1, n + 1))], format="csc")
    b_eq = np.concatenate([_table_vector(observed), [1.0]])
    cost = np.concatenate([-np.ones(n), [0.0]])
    res = linprog(cost, A_eq=A_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs", options=_LINPROG_OPTIONS)
    if not res.success:
        _, residual = local_residual(observed, pNL=pNL)
        raise DecompositionInfeasible(
            f"no convex decomposition reproduces the table (noise slack {residual:.3e})",
            residual)
    q = res.x
    reconstructed = A_eq @ q
    max_residual = float(np.max(np.abs(reconstructed - b_eq)))
    weights = {int(i): (0.0 if q[i] < 0 else float(q[i]))
               for i in np.nonzero(q[:n] > 1e-12)[0]}
    qNL = max(0.0, float(q[n]))
    qL = max(0.0, float(-res.fun))
    return CcDecomposition(weights=weights, qNL=qNL, qL=qL, max_residual=max_residual)


def max_local_visibility(t: CorrelationTable, pNL: CorrelationTable | None = None) -> float:
    """Largest V in [0, 1] at which V t + (1-V) u is local, u = 1/d^2: one
    minus the least white-noise weight that makes t local (optionally
    allowing a nonlocal column pNL in the hull).

    Solve: maximize V over q >= 0, 0 <= V <= 1 with
    sum_i q_i p_i(a,b|x,y) - V (t - u)(a,b|x,y) = u(a,b|x,y) for all
    (a,b,x,y) and sum q = 1 (q includes the pNL weight when given). For an
    ideal table t this is V_L, which fixes the maximal local weight on the
    segment from u to t: qL(V) = min(1, (1-V)/(1-V_L)).

    If t (and pNL) are shift-invariant, the same LP is solved exactly on
    their difference distributions D over the strategy classes, with u = 1/d.
    """
    scenario = t.scenario
    tables = [t] if pNL is None else [t, pNL]
    vectors = [_difference_vector(x) for x in tables]
    shift_classes = all(v is not None for v in vectors)
    if not shift_classes:
        vectors = [_table_vector(x) for x in tables]
    S = _strategy_matrix(scenario, shift_classes)
    if pNL is not None:
        S = sp.hstack([S, sp.csc_array(vectors[1].reshape(-1, 1))], format="csc")
    n = S.shape[1]
    u = np.full(S.shape[0], 1.0 / (scenario.d if shift_classes else scenario.d**2))
    v_col = sp.csc_array((u - vectors[0]).reshape(-1, 1))
    total = np.concatenate([np.ones(n), [0.0]]).reshape(1, -1)
    A_eq = sp.vstack([sp.hstack([S, v_col]), total], format="csc")
    b_eq = np.concatenate([u, [1.0]])
    cost = np.concatenate([np.zeros(n), [-1.0]])
    bounds = np.zeros((n + 1, 2))
    bounds[:, 1] = np.inf
    bounds[n, 1] = 1.0
    res = linprog(cost, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                  method="highs", options=_LINPROG_OPTIONS)
    if not res.success:
        raise RuntimeError(f"local-visibility LP failed: {res.message}")
    return float(res.x[n])


def local_residual(t: CorrelationTable,
                   pNL: CorrelationTable | None = None) -> tuple[bool, float]:
    """Least white-noise weight 1 - V* that makes t a strategy mixture
    (optionally allowing a nonlocal column). Local iff the slack is within
    the LP feasibility tolerance. On the noise segment t = V p + (1-V) u of a
    table p with local visibility V_L the slack is max(0, 1 - V_L/V).
    """
    slack = 1.0 - max_local_visibility(t, pNL=pNL)
    return slack <= LP_FEASIBILITY_TOL, slack


def is_local(t: CorrelationTable) -> bool:
    """True iff t decomposes over deterministic strategies alone."""
    local, _ = local_residual(t)
    return local
