"""Key-rate upper bound under the convex-combination attack: PA/EC terms,
analytic and LP branches, critical visibilities, and the d->infinity limit.

All entropies are base-d ("dits"); multiply by log2(d) for bits.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, log, pi, sqrt

import numpy as np

from .cglmp import CATALAN, LOCAL_BOUND, _idmax_column
from .polytope import VISIBILITY_LP_MAX_D, difference_visibility
from .quantum import TUNED_STATE_MAX_D, _key_differences, _tuned_eigenpair, difference_distribution
from .scenario import CorrelationTable, _check_dimension, _check_visibility

#: Branch labels: how the nonlocal resource and the local weight are obtained.
ANALYTIC_MAX_ENTANGLED = "analytic-max-entangled"
LP_MAX_ENTANGLED = "lp-max-entangled"
LP_CGLMP_STATE = "lp-cglmp-state"
#: Each branch's d-limit, and its name in the message (_check_branch).
_BRANCH_LIMITS = {
    ANALYTIC_MAX_ENTANGLED: (None, ""),
    LP_MAX_ENTANGLED: (VISIBILITY_LP_MAX_D, "visibility-LP"),
    LP_CGLMP_STATE: (TUNED_STATE_MAX_D, "tuned-state"),
}
BRANCHES = tuple(_BRANCH_LIMITS)

#: Probabilities below this are treated as exact zeros in entropies.
ZERO_PROBABILITY = 1e-300

#: Cells of the flat mixed array that one pass of the LP branches' rate holds.
_RATE_PASS = 1 << 14


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


def _entropy(p: np.ndarray, given, d: int) -> float:
    """-sum p log_d(p / given) over the cells where p exceeds
    ZERO_PROBABILITY, so 0 log 0 := 0; the other cells stay in the sum as
    zeros. given is 1, the sum of p, or Bob's marginal for H(A|B): each at
    least p cellwise. The rate's flat pass (_rate_terms) repeats its
    arithmetic and summation order for a column of mixed tables."""
    keep = p > ZERO_PROBABILITY
    log_ratio = np.divide(p, given, out=np.zeros_like(p), where=keep)
    np.log(log_ratio, out=log_ratio, where=keep)
    return float(-(p * log_ratio).sum() / log(d))


def _probabilities(p) -> np.ndarray:
    """p as a float array; ValueError unless every cell is finite and non-negative."""
    p = np.asarray(p, dtype=float)
    if not (np.isfinite(p) & (p >= 0.0)).all():
        raise ValueError(f"probabilities must be finite and non-negative, got {p}")
    return p


def shannon_base_d(p, d: int) -> float:
    """Shannon entropy in base-d units with 0 log 0 := 0. ValueError unless
    every probability is finite and non-negative."""
    return _entropy(_probabilities(p), 1.0, _check_dimension(d))


def ec_term_isotropic(d: int, V: float) -> float:
    """H(A|B) at the key settings for the white-noise-mixed perfectly
    correlated table: 1 - [(1+(d-1)V)/d] log_d(1+(d-1)V) - [(d-1)(1-V)/d] log_d(1-V)."""
    d = _check_dimension(d)
    _check_visibility(V)
    return float(_ec_isotropic(d)(V))


def _ec_isotropic(d):
    """V -> ec_term_isotropic(d, V) elementwise over d (a scalar or an array)
    and V, unchecked; log d and d - 1 are taken once, here."""
    ln_d, d_1 = np.log(d), d - 1

    def ec(V):
        big = 1.0 + d_1 * V
        small = 1.0 - V
        # small is 0 or at least 2^-53; at 0 the clip keeps 0 log 0 at 0
        small_log = np.log(np.maximum(small, ZERO_PROBABILITY))
        return 1.0 - big / d * (np.log(big) / ln_d) - d_1 * small / d * (small_log / ln_d)
    return ec


def ec_term_general(t: CorrelationTable) -> float:
    """H(A|B) at the key settings of an arbitrary table, base-d.

    Zero Bob-marginal cells contribute nothing. ValueError for a negative
    key-setting cell.
    """
    s = t.scenario
    joint = _probabilities(t.p[:, :, s.keyX - 1, s.keyY - 1])
    return _entropy(joint, np.broadcast_to(joint.sum(axis=0), joint.shape), s.d)


def pa_term_cc(qL: float, alice_marginal_at_key: np.ndarray) -> float:
    """H(A|E) = (1 - qL) * H_d(marginal): Eve knows the local rounds outright
    and nothing about the rest. Equals 1 - qL for a uniform marginal.
    ValueError for a non-finite qL or marginal, or a negative probability."""
    if not isfinite(qL):
        raise ValueError(f"qL must be finite, got {qL}")
    d = len(alice_marginal_at_key)
    qNL = min(1.0, max(0.0, 1.0 - qL))
    return qNL * shannon_base_d(alice_marginal_at_key, d)


def _check_branch(ds, branch: str) -> list[int]:
    """Every d of ds as a Python int, held to the branch's own limit
    (_BRANCH_LIMITS). ValueError for an unknown branch, before any d is
    looked at. Every public entry point calls it before any state,
    eigensolve or LP."""
    limit = _BRANCH_LIMITS.get(branch)
    if limit is None:
        raise ValueError(f"unknown branch {branch!r}; expected one of {BRANCHES}")
    return [_check_dimension(d, *limit) for d in ds]


def _resources(ds: list[int], branch: str) -> tuple[np.ndarray, list[np.ndarray] | None]:
    """(V_L, D_key) of the branch for every d in ds: the array of the largest
    visibilities at which its mixed tables are still local, and the list of
    the ideal tables' key-setting difference distributions D(k|keyX,keyY)
    (None on the analytic branch). Unchecked: the branch and every d have
    been checked as _check_branch does. Single-d callers take the one-element case.

    Analytic branch: V_L = 2/I_d^max for the whole column from one
    cglmp._idmax_column call, which evaluates the closed form's terms as a
    scalar series for a short column and in fixed array slices for a long one.

    Off the analytic branch the state is sum_q c_q |qq>, one d at a time:
    c_q is the top eigenvector of the tuned state's d x d Toeplitz CGLMP
    operator, or uniform, and the rate reads the key column of its
    difference distribution D(k|x,y), one inverse DFT of c_q
    (quantum._key_differences). Only V_L differs. Tuned state: the
    eigensolve that gives c_q also gives the top eigenvalue lambda_max, the
    state's CGLMP value, and V_L = 2/lambda_max. CGLMP is a Bell inequality
    with local bound 2 and white noise scores 0, so V_L <= 2/lambda_max for
    every table; the visibility LP attains it, with the CGLMP functional as
    its dual (the tests certify this for d = 2..32 and 48).
    LP_MAX_ENTANGLED: V_L comes from one visibility LP over Alice's outcome
    pairs (Fine, PRL 48, 291 (1982)) on the whole D, 3d^2 + 1 columns and
    8d + 1 rows (difference_visibility).
    """
    if branch == ANALYTIC_MAX_ENTANGLED:
        return LOCAL_BOUND / np.array(_idmax_column(ds), dtype=float), None
    VL, keys = [], []
    for d in ds:
        if branch == LP_CGLMP_STATE:
            lam, c = _tuned_eigenpair(d)
            VL.append(LOCAL_BOUND / lam)
        else:
            c = np.full(d, 1.0 / sqrt(d))
            VL.append(difference_visibility(difference_distribution(c)))
        keys.append(_key_differences(c))
    return np.array(VL, dtype=float), keys


def local_visibility(d: int, branch: str) -> float:
    """Largest visibility V_L at which the branch's mixed table is still local:
    2/I_d^max on the analytic branch, 2/lambda_max of the Toeplitz CGLMP
    operator for the tuned state, one visibility LP on LP_MAX_ENTANGLED (see
    _resources)."""
    return float(_resources(_check_branch([d], branch), branch)[0][0])


def _rate_passes(keys: list[np.ndarray]):
    """keys in passes of at most _RATE_PASS cells (or one element), each
    built when it is reached: (a, b, flat, sizes, starts, ln_d) for elements
    a..b-1, flat being their D_key end to end, each after a leading 0.0 at
    offset starts, with sizes cells and ln_d = math.log(d) per element. The
    zero makes np.add.reduceat of a segment equal its D_key's own sum(), which
    also adds from 0.0."""
    a = 0
    while a < len(keys):
        b, cells = a + 1, keys[a].size + 1
        while b < len(keys) and cells + keys[b].size + 1 <= _RATE_PASS:
            cells += keys[b].size + 1
            b += 1
        part = keys[a:b]
        sizes = np.array([k.size + 1 for k in part])
        flat = np.concatenate([x for k in part for x in (np.zeros(1), k)])
        yield a, b, flat, sizes, np.cumsum(sizes) - sizes, np.array([log(k.size) for k in part])
        a = b


def _rate_terms(ds: list[int], VL, keys: list[np.ndarray] | None):
    """terms(V) -> (qL, pa, ec) for every element of ds at the visibilities
    V (a 1-D array of len(ds)), so that r_ub = pa - ec; see keyrate_point.
    V_L is a scalar or such an array; keys is None on the analytic branch,
    else one D_key per element (see _resources). Unchecked: the public entry
    points check d and V. The arrays of d and V_L are built here, once; the
    passes over the keys per call, so between calls terms holds no copy of
    the keys.

    Off the analytic branch each call takes the entropy of every mixed D_key,
    m = V D_key + (1 - V)/d, in one array pass per _rate_passes pass with
    _entropy's arithmetic and summation order, so each ec is
    _entropy(m, m.sum(), d) to the bit, zero cells included."""
    d = np.array(ds, dtype=float)  # every d is exact in float64
    ec_isotropic = _ec_isotropic(d) if keys is None else None
    width = 1.0 - VL  # of [V_L, 1]

    def terms(V):
        qL = np.minimum(1.0, (1.0 - V) / width)  # 1 below V_L
        pa = np.maximum(0.0, V - VL) / width  # = 1 - qL; V - V_L is exact, V_L >= 1/2
        if keys is None:
            return qL, pa, ec_isotropic(V)
        # H(A|B) of the shift-invariant mixed table is the entropy of its
        # difference distribution m; the log of m / sum m (Bob's marginal
        # over 1/d) keeps it exact where m is one point
        white = (1.0 - V) / d
        ec = np.empty(len(ds))
        for a, b, flat, sizes, starts, ln_d in _rate_passes(keys):
            m = V[a:b].repeat(sizes) * flat + white[a:b].repeat(sizes)
            m[starts] = 0.0
            ratio = m / np.add.reduceat(m, starts).repeat(sizes)
            t = m * np.log(ratio, out=np.zeros_like(m), where=m > ZERO_PROBABILITY)
            ec[a:b] = -np.add.reduceat(t, starts) / ln_d
        return qL, pa, ec
    return terms


def _keyrate_points(d: int, Vs: list, branch: str) -> list[KeyRatePoint]:
    """keyrate_point at every visibility of Vs, from one _resources call and one
    _rate_terms call. Unchecked: the public entry points check d and Vs."""
    VL, keys = _resources([d], branch)
    n = len(Vs)
    terms = _rate_terms([d] * n, float(VL[0]), None if keys is None else keys * n)(
        np.array(Vs, dtype=float))
    return [KeyRatePoint(V=V, qL=qL, pa_term=pa, ec_term=ec, r_ub=pa - ec, branch=branch)
            for V, qL, pa, ec in zip(Vs, *(t.tolist() for t in terms))]


def keyrate_point(d: int, V: float, branch: str) -> KeyRatePoint:
    """r_ub = pa - ec at visibility V.

    The mixed table lies on the segment from white noise to the ideal table,
    where Eve's maximal local weight is qL = min(1, (1-V)/(1-V_L)). Every
    table here depends on the outcomes only through b - a, so Alice's key
    marginal is uniform and pa = 1 - qL on every branch, taken as
    max(0, V - V_L)/(1 - V_L), which does not cancel. The analytic branch
    takes the isotropic EC term; the LP branches take H_d(V D_key + (1-V)/d)
    of the ideal table's key-setting difference distribution D_key.
    """
    d, = _check_branch([d], branch)
    _check_visibility(V)
    return _keyrate_points(d, [V], branch)[0]


def _roots(f, lo, hi, labels=None):
    """Elementwise Anderson-Bjorck false position (BIT 13, 253 (1973)) of f
    on the brackets [lo, hi] (scalars or arrays of one shape), where
    f(lo) <= 0 <= f(hi). f takes and returns arrays of that shape. Returns
    (x, f(x)): per bracket, the end with the smaller |f| once no float lies
    strictly inside it, or the first point where f is exactly 0; labels (one
    per bracket, in flat order) name a failing bracket in the error.

    Each step takes the secant point of every open bracket from its ends'
    weights g, moved one float in from an end it reaches or passes. The point
    replaces the end of its sign, so the root stays bracketed; that end's g
    becomes f there, and the other end's g is scaled by m = 1 - f/g(replaced),
    or by 1/2 if m <= 0, which keeps the stale end from pinning the secant.
    g keeps each end's sign, so no secant divides by 0. A closed bracket is
    never written again, so each one ends where its scalar solve ends."""
    x = np.array([lo, hi], dtype=float)
    fx = np.array([f(x[0]), f(x[1])])
    bad = np.flatnonzero(~((fx[0] <= 0.0) & (0.0 <= fx[1])))
    if bad.size:
        i = bad[0]
        where = f"{labels[i]}: " if labels is not None else ""
        raise BracketError(
            f"{where}no sign change on [{x[0].flat[i]:.6f}, {x[1].flat[i]:.6f}]: "
            f"f(lo)={fx[0].flat[i]:.3e}, f(hi)={fx[1].flat[i]:.3e}")
    x[1] = np.where(fx[0] == 0.0, x[0], x[1])
    x[0] = np.where(fx[1] == 0.0, x[1], x[0])
    sign = np.reshape([-1.0, 1.0], (2,) + (1,) * (x.ndim - 1))  # f's at lo and at hi
    g = np.where(fx * sign > 0.0, fx, sign)
    while True:
        inner = np.nextafter(x, x[::-1])
        open_ = inner[0] < x[1]
        if not open_.any():
            pick = np.abs(fx[0]) <= np.abs(fx[1])
            return np.where(pick, x[0], x[1])[()], np.where(pick, fx[0], fx[1])[()]
        c = x[0] + (x[1] - x[0]) * (g[0] / (g[0] - g[1]))
        c = np.fmin(np.fmax(c, inner[0]), inner[1])
        fc = f(c)
        # c replaces the end of its sign; at an exact 0 it replaces both ends
        # in x and fx and leaves g, which stays nonzero, as it was
        side = fc * sign
        replaced = (side > 0.0) & open_
        moved = ~(side < 0.0) & open_
        m = 1.0 - fc / g[::-1]  # each end's scale when the other one is replaced
        g = np.where(replaced, fc, np.where(replaced[::-1], g * np.where(m > 0.0, m, 0.5), g))
        x = np.where(moved, c, x)
        fx = np.where(moved, fc, fx)


def critical_visibilities(ds, branch: str = ANALYTIC_MAX_ENTANGLED) -> list[CriticalVisibility]:
    """Root of r_ub(V) on [V_L(d), 1] for every d in ds, in ds order.

    One elementwise false-position solve (_roots) advances all brackets
    together; r_ub is monotone and changes sign on each. Every d gets the
    steps, and so the result, of its own scalar solve: critical_visibility(d)
    is the one-element case. residual is the r_ub the solve evaluated at
    v_crit, a few ulps. Every d is held to the branch's limit
    (_check_branch) before the first eigensolve or LP. The column's V_L
    comes from one _resources call: on the analytic branch one closed-form
    evaluation in array passes, on the others one eigensolve or LP per d.
    """
    ds = _check_branch(ds, branch)
    VL, keys = _resources(ds, branch)
    terms = _rate_terms(ds, VL, keys)

    def f(V):
        _, pa, ec = terms(V)
        return pa - ec

    v, r = _roots(f, VL, np.ones_like(VL), labels=[f"d = {d}" for d in ds])
    return [CriticalVisibility(d=d, branch=branch, v_crit=vc, residual=res)
            for d, vc, res in zip(ds, v.tolist(), r.tolist())]


def critical_visibility(d: int, branch: str = ANALYTIC_MAX_ENTANGLED) -> CriticalVisibility:
    """Root of r_ub(V) on [V_L, 1]; the one-element case of critical_visibilities."""
    return critical_visibilities([d], branch)[0]


def vcrit_asymptotic() -> float:
    """Root of the asymptotic bound: 1/(2 - pi^2/(16 Catalan))."""
    return 1.0 / (2.0 - pi**2 / (16.0 * CATALAN))


def thread_count() -> int:
    """Always 1: grids are evaluated in a single thread. Kept because
    perfbench/run.py records it in every result's environment."""
    return 1


def keyrate_curve(d: int, branch: str, v_min: float, v_max: float,
                  steps: int) -> list[KeyRatePoint]:
    """keyrate_point on a uniform visibility grid, endpoints included, from
    one V_L per curve (one eigensolve for the tuned state, one LP on
    LP_MAX_ENTANGLED)."""
    d, = _check_branch([d], branch)
    if not (0.0 <= v_min < v_max <= 1.0):
        raise ValueError(f"need 0 <= v_min < v_max <= 1, got [{v_min}, {v_max}]")
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    return _keyrate_points(d, np.linspace(v_min, v_max, steps).tolist(), branch)
