"""Minimal static SVG line chart for batch results. Single series, axis
labels, optional horizontal zero line; output stays well under 5 KB.
"""
from __future__ import annotations

from math import floor, isfinite, log10


def _ticks(lo: float, hi: float) -> list[float]:
    """A few round tick positions covering [lo, hi]: the multiples of a round
    step that lie in it, at most seven candidates. An axis too narrow for
    the step to move a float (all candidates round to one value) gets its
    two ends."""
    span = hi - lo
    if span <= 0:
        return [lo]
    step = 10.0 ** floor(log10(span / 5))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= 5:
            step *= mult
            break
    first = floor(lo / step) * step
    candidates = (first + i * step for i in range(floor((hi - first) / step) + 2))
    ticks = dict.fromkeys(round(t, 12) for t in candidates if lo - 1e-12 <= t <= hi + 1e-12)
    return list(ticks) if len(ticks) > 1 else [lo, hi]


def _escape(text: str) -> str:
    """text with the XML markup characters &, < and > as entities."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def line_chart(xs, ys, xlabel: str, ylabel: str, title: str = "",
               zero_line: bool = True) -> str:
    """Render one polyline with axes and tick labels; returns the SVG text.
    ValueError unless the series have one length of at least 2, every value
    is finite and the xs span a nonzero range."""
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need two equal-length series of at least 2 points")
    if not all(map(isfinite, xs + ys)):
        raise ValueError("every x and y must be finite")
    width, height = 640, 420
    margin_l, margin_r, margin_t, margin_b = 64, 16, 28, 46
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    x_lo, x_hi = min(xs), max(xs)
    if x_lo == x_hi:
        raise ValueError(f"the xs span no range: all are {x_lo}")
    y_lo, y_hi = min(ys), max(ys)
    if zero_line:
        y_lo, y_hi = min(y_lo, 0.0), max(y_hi, 0.0)
    pad = 0.05 * (y_hi - y_lo) or 1.0
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x: float) -> float:
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return margin_t + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(f'<text x="{width / 2:.0f}" y="18" '
                     f'text-anchor="middle">{_escape(title)}</text>')
    # frame
    parts.append(
        f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black" stroke-width="1"/>')
    for t in _ticks(x_lo, x_hi):
        x = px(t)
        parts.append(f'<line x1="{x:.1f}" y1="{margin_t + plot_h}" x2="{x:.1f}" '
                     f'y2="{margin_t + plot_h + 4}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{margin_t + plot_h + 17}" '
                     f'text-anchor="middle">{t:g}</text>')
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(f'<line x1="{margin_l - 4}" y1="{y:.1f}" x2="{margin_l}" '
                     f'y2="{y:.1f}" stroke="black"/>')
        parts.append(f'<text x="{margin_l - 7}" y="{y + 4:.1f}" '
                     f'text-anchor="end">{t:g}</text>')
    if zero_line and y_lo < 0.0 < y_hi:
        y0 = py(0.0)
        parts.append(f'<line x1="{margin_l}" y1="{y0:.1f}" x2="{margin_l + plot_w}" '
                     f'y2="{y0:.1f}" stroke="gray" stroke-dasharray="4 3"/>')
    points = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys))
    parts.append(f'<polyline points="{points}" fill="none" stroke="#1f5fbf" stroke-width="1.5"/>')
    parts.append(f'<text x="{margin_l + plot_w / 2:.0f}" y="{height - 8}" '
                 f'text-anchor="middle">{_escape(xlabel)}</text>')
    parts.append(f'<text x="14" y="{margin_t + plot_h / 2:.0f}" text-anchor="middle" '
                 f'transform="rotate(-90 14 {margin_t + plot_h / 2:.0f})">{_escape(ylabel)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
