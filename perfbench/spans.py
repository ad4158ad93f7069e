"""Outside-in span recorder for the diqkd_cc layers.

`install` wraps the public functions of each layer module (plus the strategy
matrix builder and the `linprog` entry the LP layer calls) in every namespace
of the package that binds them, so calls made through a by-name import are
seen too. Nothing under `src/` changes. `tally` reduces the recorded spans of
one call to additive counts and busy times, and `metrics` turns the tallies
of one operation into the reported per-layer metrics.

Span record: [name, start, end, parent_span_or_None, tag]. Spans are kept in
memory and reduced after the traced call returns.
"""
from __future__ import annotations

import functools
import importlib
import math
import threading
from time import perf_counter

PACKAGE = "diqkd_cc"
MODULES = ("cli", "keyrate", "polytope", "quantum", "cglmp", "scenario", "svgplot")

#: Non-public names that mark a layer boundary: the cached strategy-matrix
#: builder and the external LP solver as the LP layer looks it up.
EXTRA = {"polytope": ("_strategy_matrix", "linprog")}

#: Span whose worker-thread children are parented to it while it is open.
FANOUT = "keyrate.keyrate_curve"

#: Layer time buckets for names that do not take their module's default.
LAYER_OF = {
    "polytope.linprog": "polytope.lp_s",
    "polytope._strategy_matrix": "polytope.strategy_matrix_s",
    "keyrate.critical_visibility": "keyrate.root_s",
    "keyrate.pa_zero_visibility": "keyrate.root_s",
    "keyrate.keyrate_curve": "keyrate.point_s",
    "keyrate.keyrate_point": "keyrate.point_s",
    "keyrate.rub_lp": "keyrate.point_s",
    "keyrate.rub_analytic": "keyrate.point_s",
    "keyrate.qL_analytic": "keyrate.point_s",
    "keyrate.local_visibility": "keyrate.point_s",
    "keyrate.nonlocal_table": "keyrate.point_s",
    "keyrate.shannon_base_d": "keyrate.entropy_s",
    "keyrate.ec_term_isotropic": "keyrate.entropy_s",
    "keyrate.ec_term_general": "keyrate.entropy_s",
    "keyrate.pa_term_cc": "keyrate.entropy_s",
    "cglmp.idmax_closed_form": "cglmp.closed_form_s",
    "cglmp.local_visibility_max_entangled": "cglmp.closed_form_s",
    "cglmp.idmax_asymptotic": "cglmp.closed_form_s",
    "quantum.cglmp_state": "quantum.state_s",
    "quantum.maximally_entangled_state": "quantum.state_s",
    "quantum.born_table": "quantum.born_s",
    "quantum.cglmp_born_table": "quantum.born_s",
    "scenario.mix_with_white_noise": "scenario.mix_s",
}

#: Bucket of a span not named above whose parent lies in another module; a
#: span whose parent is in the same module inherits the parent's bucket
#: (e.g. fourier_basis under born_table counts as Born-table time).
MODULE_LAYER = {
    "cli": "cli.self_s",
    "keyrate": "keyrate.point_s",
    "polytope": "polytope.assembly_s",
    "cglmp": "cglmp.bell_s",
    "quantum": "quantum.state_s",
    "scenario": "scenario.table_s",
    "svgplot": "svgplot.render_s",
}
LAYERS = tuple(dict.fromkeys(list(LAYER_OF.values()) + list(MODULE_LAYER.values())))


class Recorder:
    """Collects spans from every thread; one per-thread stack gives parents."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._fanout = None

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, name: str, fn, tag=None):
        """Return `fn` wrapped in a span named `name`. `tag(args, kwargs,
        result)` runs after the span closes and its value is stored with it."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else rec._fanout, None]
            stack.append(span)
            if name == FANOUT:
                rec._fanout = span
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                if rec._fanout is span:
                    rec._fanout = None
                rec.spans.append(span)
            if tag is not None:
                span[4] = tag(args, kwargs, result)
            return result

        for attr in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(fn, attr):  # keep lru_cache introspection working
                setattr(traced, attr, getattr(fn, attr))
        return traced


def _nbytes(x) -> int:
    if x is None:
        return 0
    if hasattr(x, "indptr"):  # scipy sparse compressed matrix
        return int(x.data.nbytes + x.indices.nbytes + x.indptr.nbytes)
    return int(getattr(x, "nbytes", 8 * len(x)))


def _nnz(x) -> int:
    if x is None:
        return 0
    if hasattr(x, "nnz"):
        return int(x.nnz)
    import numpy as np
    return int(np.count_nonzero(x))


def lp_tag(args, kwargs, res) -> dict:
    """Size and effort of one linprog call, read from its arguments and result."""
    cost = args[0] if args else kwargs["c"]
    mats = [kwargs.get("A_ub"), kwargs.get("A_eq")]
    vecs = [cost, kwargs.get("b_ub"), kwargs.get("b_eq")]
    return {
        "nit": int(res.nit),
        "cols": len(cost),
        "nnz": sum(_nnz(m) for m in mats),
        "bytes": sum(_nbytes(m) for m in mats) + sum(_nbytes(v) for v in vecs),
    }


def branch_tag(args, kwargs, _result):
    """Branch label of keyrate_point(d, V, branch, ...)."""
    return args[2] if len(args) > 2 else kwargs.get("branch")


TAGS = {"polytope.linprog": lp_tag, "keyrate.keyrate_point": branch_tag}


def _targets() -> dict[int, tuple[str, object]]:
    """id(function) -> (span name, function) for every traced entry point."""
    out = {}
    for short in MODULES:
        mod = importlib.import_module(f"{PACKAGE}.{short}")
        extra = EXTRA.get(short, ())
        for attr, obj in vars(mod).items():
            if isinstance(obj, type) or not callable(obj):
                continue
            if attr in extra or (not attr.startswith("_")
                                 and getattr(obj, "__module__", None) == mod.__name__):
                out[id(obj)] = (f"{short}.{attr}", obj)
    return out


def install(recorder: Recorder) -> list[tuple]:
    """Patch every binding of every traced function in the package's modules.

    Returns (module, attribute, original) triples for `uninstall`.
    """
    targets = _targets()
    wrapped = {key: recorder.wrap(name, fn, TAGS.get(name)) for key, (name, fn) in targets.items()}
    modules = [importlib.import_module(m) for m in (PACKAGE, *(f"{PACKAGE}.{m}" for m in MODULES))]
    patches = []
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            new = wrapped.get(id(obj))
            if new is not None:
                patches.append((mod, attr, obj))
                setattr(mod, attr, new)
    return patches


def uninstall(patches: list[tuple]) -> None:
    for mod, attr, original in patches:
        setattr(mod, attr, original)


# ----------------------------------------------------------------- summary

def _merge(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            if b > merged[-1][1]:
                merged[-1][1] = b
        else:
            merged.append([a, b])
    return [(a, b) for a, b in merged]


def measure(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    return sum(b - a for a, b in _merge(intervals))


def self_intervals(span: list, children: list[list]) -> list[tuple[float, float]]:
    """The span's interval minus the union of its children's intervals.

    Children may overlap each other (worker threads under a fan-out span).
    Subtracting their summed durations would then go negative, and a
    per-thread view alone would report the whole fan-out as self time.
    """
    t0, t1 = span[1], span[2]
    out, cursor = [], t0
    for a, b in _merge([(max(c[1], t0), min(c[2], t1)) for c in children if c[2] > t0 and c[1] < t1]):
        if a > cursor:
            out.append((cursor, a))
        cursor = max(cursor, b)
    if t1 > cursor:
        out.append((cursor, t1))
    return out


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty list."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def tally(spans: list[list], solve_s: float, cache_info=None) -> dict:
    """Additive per-layer quantities of one traced call; `metrics` turns one
    or more of them into the reported per-layer metrics.

    Layer times are wall-clock: the union, over all threads, of the self
    intervals of the layer's spans. `cache_info` is the strategy-matrix
    builder's lru_cache statistics, if available.
    """
    children: dict[int, list[list]] = {}
    for s in spans:
        if s[3] is not None:
            children.setdefault(id(s[3]), []).append(s)

    layer_memo: dict[int, str] = {}

    def layer(s: list) -> str:
        key = id(s)
        if key not in layer_memo:
            name = s[0]
            module = name.split(".", 1)[0]
            if name in LAYER_OF:
                layer_memo[key] = LAYER_OF[name]
            elif s[3] is not None and s[3][0].split(".", 1)[0] == module:
                layer_memo[key] = layer(s[3])
            else:
                layer_memo[key] = MODULE_LAYER[module]
        return layer_memo[key]

    by_layer: dict[str, list[tuple[float, float]]] = {name: [] for name in LAYERS}
    for s in spans:
        by_layer[layer(s)].extend(self_intervals(s, children.get(id(s), [])))
    out: dict = {name: measure(iv) for name, iv in by_layer.items()}
    out["covered_s"] = measure([iv for name, ivs in by_layer.items()
                                if name != "cli.self_s" for iv in ivs])
    out["solve_s"] = solve_s

    lps = [s for s in spans if s[0] == "polytope.linprog"]
    tags = [s[4] for s in lps if s[4] is not None]
    out["polytope.lp_solves"] = len(lps)
    out["polytope.lp_iters"] = sum(t["nit"] for t in tags)
    out["polytope.lp_cols_max"] = max((t["cols"] for t in tags), default=0)
    out["polytope.lp_nnz_max"] = max((t["nnz"] for t in tags), default=0)
    out["polytope.lp_bytes_computed"] = sum(t["bytes"] for t in tags)
    out["lp_ms"] = [1e3 * (s[2] - s[1]) for s in lps]
    out["polytope.strategy_matrix_hits"] = cache_info.hits if cache_info else 0
    out["polytope.strategy_matrix_misses"] = cache_info.misses if cache_info else 0

    # LPs under each critical-visibility root search that solved any LP
    per_vcrit: dict[int, int] = {}
    for s in lps:
        p = s[3]
        while p is not None and p[0] != "keyrate.critical_visibility":
            p = p[3]
        if p is not None:
            per_vcrit[id(p)] = per_vcrit.get(id(p), 0) + 1
    out["vcrit_lps"] = sum(per_vcrit.values())
    out["vcrit_searches"] = len(per_vcrit)
    out["keyrate.rate_evals"] = sum(1 for s in spans if s[0] == "keyrate.keyrate_point")
    out["cglmp.idmax_calls"] = sum(1 for s in spans if s[0] == "cglmp.idmax_closed_form")

    curves = [s for s in spans if s[0] == FANOUT]
    out["curve_s"] = sum(s[2] - s[1] for s in curves)
    out["curve_points_s"] = sum(c[2] - c[1] for s in curves for c in children.get(id(s), []))
    out["trace.spans"] = len(spans)
    return out


def metrics(tallies: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one operation made of one or more traced calls:
    counts and times add, `_max` sizes take the maximum, and ratios are
    formed from the combined sums."""
    total: dict = {}
    for t in tallies:
        for key, value in t.items():
            if key not in total:
                total[key] = list(value) if isinstance(value, list) else value
            elif isinstance(value, list):
                total[key] += value
            elif key.endswith("_max"):
                total[key] = max(total[key], value)
            else:
                total[key] += value

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    lp_ms = sorted(total["lp_ms"])
    out = {k: v for k, v in total.items() if "." in k}  # undotted keys are internal sums
    out["polytope.lp_solve_ms_p50"] = _percentile(lp_ms, 0.5)
    out["polytope.lp_solve_ms_p90"] = _percentile(lp_ms, 0.9)
    out["keyrate.lp_per_vcrit"] = ratio(total["vcrit_lps"], total["vcrit_searches"])
    out["keyrate.curve_parallelism"] = ratio(total["curve_points_s"], total["curve_s"])
    out["trace.coverage_frac"] = ratio(total["covered_s"], total["solve_s"])
    out["polytope.lp_frac"] = ratio(total["polytope.lp_s"], total["solve_s"])
    return out
