"""Local deterministic strategies and the two local-polytope LPs: the
convex-combination attack (Eve's maximal local weight at one observed table,
over all d^5 strategies) and the white-noise visibility of a table (V_L,
membership and its slack).

The visibility LP enumerates no strategy. Alice has two settings, so a local
model may take her outcome pair lambda = (a1, a2) as its hidden variable and
let Bob answer each setting y from his own conditional: the per-setting joints
J_y(a1, a2, b) need only agree on their (a1, a2) marginal (Fine, PRL 48, 291
(1982)). That is 3d^3 columns and 8d^2 + 1 rows. A table that depends on the
outcomes only through b - a mod d is solved on its difference distribution
with a1 fixed at 0 by the joint outcome shift (a, b) -> (a+k, b+k) (Rosset,
Bancal & Gisin, arXiv:1404.1306): 3d^2 columns and 8d + 1 rows.
difference_visibility takes that difference distribution directly, and
max_local_visibility finds it by testing the table for shift invariance. Both
reach one solver.

No CLI command solves an LP: the maximally entangled state's V_L is
2/I_d^max (which also gives check-local its slack) and the tuned state's is
2/lambda_max, the CGLMP local bound over its top Toeplitz eigenvalue. The LP
serves the library's LP_MAX_ENTANGLED reference and the tests, where its
primal and its dual (the CGLMP functional) certify both states' V_L. scipy
is imported inside the matrix builders and linprog, so importing this module
loads none of it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .scenario import CorrelationTable, Scenario, _check_dimension, _differences

#: Refuse to enumerate more deterministic strategies than this. Only the
#: per-point CC decomposition (max_local_weight) and enumerate_strategies
#: enumerate them; the visibility LP does not, and is bounded by
#: VISIBILITY_LP_MAX_D instead.
STRATEGY_CAP = 10**6

#: Largest d for which the LP_MAX_ENTANGLED reference solves the shift-form
#: visibility LP (3d^2 + 1 columns, 8d + 1 rows). Its solve time grows
#: steeply and unevenly with d: on 2 cores the tuned-state LP takes 2.4 s at
#: d = 64, 14 s at d = 128, 28 to 42 s for d = 136..144, and 20 to 70 s for
#: d = 145..150. No CLI command solves it.
VISIBILITY_LP_MAX_D = 144

#: Per-constraint feasibility tolerance for all LP solves.
LP_FEASIBILITY_TOL = 1e-9

#: A table is shift-invariant if max |p(a,a+c|x,y) - D(c|x,y)/d| is at most this.
_SHIFT_INVARIANCE_TOL = 1e-12

_LINPROG_OPTIONS = {
    "primal_feasibility_tolerance": LP_FEASIBILITY_TOL,
    "dual_feasibility_tolerance": LP_FEASIBILITY_TOL,
}


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported at the first solve so that importing
    this module (and every command that solves no LP) loads no scipy. The
    LPs below call it by this module-level name."""
    from scipy.optimize import linprog as solve
    return solve(*args, **kwargs)


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


def check_strategy_cap(scenario: Scenario) -> None:
    """Raise StrategyCapExceeded if there are more than STRATEGY_CAP
    strategies, d^(nA+nB)."""
    n = scenario.n_strategies
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
    """D(c|x,y) of _differences in (c,x,y) row order, or None if t is not
    shift-invariant (it then has no exact difference-row form)."""
    d = t.scenario.d
    D = _differences(t)
    a = np.arange(d)
    if np.max(np.abs(t.p - D[(a[None, :] - a[:, None]) % d] / d)) > _SHIFT_INVARIANCE_TOL:
        return None
    return D.reshape(-1)


@lru_cache(maxsize=8)
def _strategy_matrix(scenario: Scenario) -> sp.csc_array:
    """Sparse (d^2 nA nB) x d^(nA+nB) matrix whose columns are the strategy
    tables. Built digit-wise over all ids at once; each column has exactly
    nA*nB nonzeros, so nothing dense is ever materialized.
    """
    import scipy.sparse as sp

    check_strategy_cap(scenario)
    s = scenario
    ids = np.arange(s.n_strategies)
    n_digits = s.nA + s.nB
    digits = [(ids // s.d ** (n_digits - 1 - j)) % s.d for j in range(n_digits)]
    rows, cols = [], []
    for x in range(s.nA):
        for y in range(s.nB):
            a = digits[x]
            b = digits[s.nA + y]
            rows.append(((a * s.d + b) * s.nA + x) * s.nB + y)
            cols.append(ids)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    return sp.csc_array((np.ones(rows.size), (rows, cols)),
                        shape=(s.d**2 * s.nA * s.nB, s.n_strategies))


def _visibility_matrix(vectors: list[np.ndarray], d: int, shift: bool) -> sp.csc_array:
    """A_eq of the visibility LP over the columns J_y(a1, a2, b), in
    (y, a1, a2, b) order (with shift, a1 = 0 only), then one column per
    nonlocal vector in vectors[1:], then the V column u - vectors[0].

    The observation rows come first, in the row order of _table_vector (with
    shift, of _difference_vector): column (y, a1, a2, b) adds 1 at outcomes
    (a_x, b) (with shift, at b - a_x mod d) for x = 1, 2. Then, at each
    (a1, a2), sum_b J_1 - sum_b J_y = 0 for y = 2, then y = 3. The last row
    adds J_1 and the nonlocal weights to 1.
    """
    import scipy.sparse as sp

    nA, nB = Scenario.nA, Scenario.nB
    n_pairs = (1 if shift else d) * d
    pair = np.repeat(np.arange(n_pairs), d)
    b = np.tile(np.arange(d), n_pairs)
    n_obs = n_pairs * nA * nB
    n_col = pair.size
    n_J = nB * n_col
    total_row = n_obs + 2 * n_pairs
    rows, cols, vals = [], [], []
    for y in range(nB):
        col = y * n_col + np.arange(n_col)
        for x, a in enumerate((pair // d, pair % d)):
            outcome = (b - a) % d if shift else a * d + b
            rows.append((outcome * nA + x) * nB + y)
            cols.append(col)
            vals.append(np.ones(n_col))
        if y:
            rows += [n_obs + (y - 1) * n_pairs + pair] * 2
            cols += [np.arange(n_col), col]
            vals += [np.ones(n_col), -np.ones(n_col)]
    u = 1.0 / (d if shift else d**2)
    extra = vectors[1:] + [u - vectors[0]]
    for j, column in enumerate(extra):
        nonzero = np.flatnonzero(column)
        rows.append(nonzero)
        cols.append(np.full(nonzero.size, n_J + j))
        vals.append(column[nonzero])
    weights = np.concatenate([np.arange(n_col), n_J + np.arange(len(extra) - 1)])
    rows.append(np.full(weights.size, total_row))
    cols.append(weights)
    vals.append(np.ones(weights.size))
    return sp.csc_array((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                        shape=(total_row + 1, n_J + len(extra)))


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
    import scipy.sparse as sp

    if observed.scenario != pNL.scenario:
        raise ValueError("observed and nonlocal tables use different scenarios")
    scenario = observed.scenario
    S = _strategy_matrix(scenario)
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
    weights = {int(i): float(q[i]) for i in np.nonzero(q[:n] > 1e-12)[0]}
    qNL = max(0.0, float(q[n]))
    qL = max(0.0, float(-res.fun))
    return CcDecomposition(weights=weights, qNL=qNL, qL=qL, max_residual=max_residual)


def max_local_visibility(t: CorrelationTable, pNL: CorrelationTable | None = None) -> float:
    """Largest V in [0, 1] at which V t + (1-V) u is local, u = 1/d^2: one
    minus the least white-noise weight that makes t local (optionally
    allowing a nonlocal column pNL in the hull).

    Solve: maximize V over J >= 0 (plus the pNL weight), 0 <= V <= 1, where
    J_y(a1, a2, b) is the joint of Alice's outcome pair and Bob's outcome at
    setting y (Fine, PRL 48, 291 (1982)): its (a_x, b) marginal plus the pNL
    column reproduces V t + (1-V) u at each (x, y), sum_b J_y is the same for
    y = 1, 2, 3, and sum J_1 + qNL = 1. That is 8d^2 + 1 rows and 3d^3 + 1
    columns (one more with pNL). For an ideal table t this is V_L, which fixes
    the maximal local weight on the segment from u to t:
    qL(V) = min(1, (1-V)/(1-V_L)).

    If t (and pNL) are shift-invariant, the same LP is solved exactly on
    their difference distributions D with a1 = 0 and u = 1/d, as
    difference_visibility does: 8d + 1 rows and 3d^2 + 1 columns. Raises
    ValueError for tables of different scenarios (CorrelationTable rejects a
    non-finite entry when it is built).
    """
    tables = [t] if pNL is None else [t, pNL]
    if pNL is not None and pNL.scenario != t.scenario:
        raise ValueError("observed and nonlocal tables use different scenarios")
    vectors = [_difference_vector(x) for x in tables]
    shift = all(v is not None for v in vectors)
    if not shift:
        vectors = [_table_vector(x) for x in tables]
    return _solve_visibility(vectors, t.scenario.d, shift)


def difference_visibility(D: np.ndarray) -> float:
    """max_local_visibility of the shift-invariant table p(a, b|x, y) =
    D(b - a|x, y)/d, given by its difference distribution D[k, x-1, y-1]
    alone: the LP of 8d + 1 rows and 3d^2 + 1 columns."""
    D = np.asarray(D, dtype=float)
    if D.ndim != 3 or D.shape[1:] != (Scenario.nA, Scenario.nB):
        raise ValueError(f"difference distribution must have shape (d, {Scenario.nA}, "
                         f"{Scenario.nB}), got {D.shape}")
    _check_dimension(D.shape[0])
    if not np.isfinite(D).all():
        raise ValueError("difference distribution has a non-finite entry")
    return _solve_visibility([D.reshape(-1)], D.shape[0], shift=True)


def _solve_visibility(vectors: list[np.ndarray], d: int, shift: bool) -> float:
    """The visibility LP of max_local_visibility on the observation vectors
    [t, pNL?] (difference vectors if shift, else full tables)."""
    A_eq = _visibility_matrix(vectors, d, shift)
    n = A_eq.shape[1]
    b_eq = np.zeros(A_eq.shape[0])
    b_eq[:vectors[0].size] = 1.0 / (d if shift else d**2)
    b_eq[-1] = 1.0
    cost = np.zeros(n)
    cost[-1] = -1.0
    bounds = np.zeros((n, 2))
    bounds[:, 1] = np.inf
    bounds[-1, 1] = 1.0
    res = linprog(cost, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                  method="highs", options=_LINPROG_OPTIONS)
    if not res.success:
        raise RuntimeError(f"local-visibility LP failed: {res.message}")
    return float(res.x[-1])


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
