"""Bell-scenario indexing, correlation tables, noise mixing and the outcome
difference distribution.

Conventions: outcomes a, b and settings x, y are 1-based in every public
interface (internal storage is 0-based). A correlation table holds the dense
joint conditional probabilities p(a,b|x,y) with shape (d, d, nA, nB).
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

POSITIVITY_TOL = 1e-12
NORMALIZATION_TOL = 1e-9
NO_SIGNALING_TOL = 1e-9


def _check_dimension(d, limit: int | None = None, name: str = "") -> int:
    """d as a Python int: TypeError unless it is integral (NumPy integers
    included), ValueError unless d >= 2 and, given a limit, d <= limit. The
    one place a d-limit is checked; callers pass the limit of what they are
    about to build (TUNED_STATE_MAX_D, BORN_TABLE_MAX_D, VISIBILITY_LP_MAX_D)
    and its name for the message."""
    try:
        d = operator.index(d)
    except TypeError:
        raise TypeError(f"d must be an integer, got {d!r}") from None
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if limit is not None and d > limit:
        raise ValueError(f"d = {d} exceeds the {name} limit d <= {limit}")
    return d


@dataclass(frozen=True)
class Scenario:
    """d outcomes per party in the protocol's one shape: two Bell settings per
    party plus one extra key setting for Bob; Alice keys on her second Bell
    setting, so the key pair is (x, y) = (2, 3)."""
    nA: ClassVar[int] = 2
    nB: ClassVar[int] = 3
    keyX: ClassVar[int] = 2
    keyY: ClassVar[int] = 3
    d: int

    def __post_init__(self):
        object.__setattr__(self, "d", _check_dimension(self.d))

    @property
    def n_strategies(self) -> int:
        return self.d ** (self.nA + self.nB)


@dataclass(frozen=True)
class CorrelationTable:
    """Dense p[a-1, b-1, x-1, y-1] = p(a,b|x,y). ValueError for a shape
    other than (d, d, nA, nB) or a non-finite cell."""
    scenario: Scenario
    p: np.ndarray

    def __post_init__(self):
        s = self.scenario
        expected = (s.d, s.d, s.nA, s.nB)
        # a copy, so that freezing it leaves the caller's array writable
        arr = np.array(self.p, dtype=float, order="C")
        if arr.shape != expected:
            raise ValueError(f"table shape {arr.shape} != {expected}")
        if not np.isfinite(arr).all():
            raise ValueError("table has a non-finite entry")
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)


@dataclass(frozen=True)
class ValidationReport:
    positivity_residual: float
    normalization_residual: float
    no_signaling_residual: float
    positivity_ok: bool
    normalization_ok: bool
    no_signaling_ok: bool

    @property
    def ok(self) -> bool:
        return self.positivity_ok and self.normalization_ok and self.no_signaling_ok

    def __str__(self) -> str:
        def line(name, residual, ok):
            return f"{name:<14} residual {residual:.3e}  {'pass' if ok else 'FAIL'}"
        return "\n".join([
            line("positivity", self.positivity_residual, self.positivity_ok),
            line("normalization", self.normalization_residual, self.normalization_ok),
            line("no-signaling", self.no_signaling_residual, self.no_signaling_ok),
        ])


def validate(t: CorrelationTable) -> ValidationReport:
    """Report positivity/normalization/no-signaling residuals (report-only)."""
    p = t.p
    pos = float(max(np.max(-p, initial=0.0), np.max(p - 1.0, initial=0.0)))
    norm = float(np.max(np.abs(p.sum(axis=(0, 1)) - 1.0)))
    # Alice marginal p(a|x) must not depend on y; Bob's not on x
    mA = p.sum(axis=1)                       # (a, x, y)
    mB = p.sum(axis=0)                       # (b, x, y)
    devA = np.max(np.abs(mA - mA.mean(axis=2, keepdims=True)))
    devB = np.max(np.abs(mB - mB.mean(axis=1, keepdims=True)))
    nosig = float(max(devA, devB))
    return ValidationReport(
        positivity_residual=pos,
        normalization_residual=norm,
        no_signaling_residual=nosig,
        positivity_ok=pos <= POSITIVITY_TOL,
        normalization_ok=norm <= NORMALIZATION_TOL,
        no_signaling_ok=nosig <= NO_SIGNALING_TOL,
    )


def uniform_table(scenario: Scenario) -> CorrelationTable:
    s = scenario
    p = np.full((s.d, s.d, s.nA, s.nB), 1.0 / s.d**2)
    return CorrelationTable(scenario, p)


def _check_visibility(V: float) -> None:
    if not 0.0 <= V <= 1.0:
        raise ValueError(f"visibility must lie in [0,1], got {V}")


def mix_with_white_noise(pNL: CorrelationTable, V: float) -> CorrelationTable:
    """V * pNL + (1-V)/d^2 on every entry."""
    _check_visibility(V)
    d = pNL.scenario.d
    return CorrelationTable(pNL.scenario, V * pNL.p + (1.0 - V) / d**2)


def _differences(t: CorrelationTable) -> np.ndarray:
    """D[k, x-1, y-1] = sum_j p(j, j+k mod d | x, y): the probability that the
    outcomes differ by k mod d. Each cell is summed over j along a contiguous
    axis, so it is the 1-D sum of its d terms to the last bit."""
    d = t.scenario.d
    j = np.arange(d)
    shifted = t.p[j, (j[:, None] + j) % d]          # (k, j, x, y)
    return np.ascontiguousarray(np.moveaxis(shifted, 1, -1)).sum(axis=-1)
