"""Minimal static SVG line charts (no charting dependencies)."""

from __future__ import annotations

import math

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
_WIDTH, _HEIGHT = 720, 480  # pixels
_TICKS = 6  # ticks per axis to aim for


def _top(lo: float, hi: float) -> float:
    """hi, or where hi exceeds lo by at most 64 ulps (hi == lo included),
    so that a tick step across the span would not move a tick, lo + 1,
    or lo + 2**-40 |lo| once that is larger."""
    if hi - lo > 64 * math.ulp(max(abs(lo), abs(hi))):
        return hi
    return lo + max(1.0, 2.0 ** -40 * abs(lo))


def _nice_ticks(lo: float, hi: float):
    hi = _top(lo, hi)
    span = hi - lo
    raw = span / _TICKS
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


def _fmt(x: float) -> str:
    return "%.6g" % x


def line_chart(series, path, title, xlabel, ylabel, logx=False):
    """Write a line chart to path.

    series: list of (x values, y values, label); every label, the title
    and both axis labels are drawn."""
    margin_l, margin_r, margin_t, margin_b = 70, 20, 36, 52
    plot_w = _WIDTH - margin_l - margin_r
    plot_h = _HEIGHT - margin_t - margin_b

    xs_all, ys_all = [], []
    for xs, ys, _ in series:
        xs_all.extend(math.log10(x) if logx else x for x in xs)
        ys_all.extend(ys)
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    x_hi, y_hi = _top(x_lo, x_hi), _top(y_lo, y_hi)
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def px(x):
        v = math.log10(x) if logx else x
        return margin_l + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return margin_t + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="%d" height="%d" viewBox="0 0 %d %d">' % (_WIDTH, _HEIGHT, _WIDTH, _HEIGHT),
        '<rect width="%d" height="%d" fill="white"/>' % (_WIDTH, _HEIGHT),
        '<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="#333"/>' % (
            margin_l, margin_t, plot_w, plot_h),
        '<text x="%d" y="22" font-size="15" font-family="sans-serif" '
        'text-anchor="middle">%s</text>' % (_WIDTH // 2, title),
    ]

    for t in _nice_ticks(y_lo, y_hi):
        y = py(t)
        parts.append('<line x1="%d" y1="%.2f" x2="%d" y2="%.2f" stroke="#ddd"/>' % (
            margin_l, y, margin_l + plot_w, y))
        parts.append('<text x="%d" y="%.2f" font-size="11" font-family="sans-serif" '
                     'text-anchor="end">%s</text>' % (margin_l - 6, y + 4, _fmt(t)))
    for t in _nice_ticks(x_lo, x_hi):
        x = margin_l + (t - x_lo) / (x_hi - x_lo) * plot_w
        label = "1e%g" % t if logx else _fmt(t)
        parts.append('<line x1="%.2f" y1="%d" x2="%.2f" y2="%d" stroke="#ddd"/>' % (
            x, margin_t, x, margin_t + plot_h))
        parts.append('<text x="%.2f" y="%d" font-size="11" font-family="sans-serif" '
                     'text-anchor="middle">%s</text>' % (x, margin_t + plot_h + 16, label))

    for i, (xs, ys, label) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join("%.2f,%.2f" % (px(x), py(y)) for x, y in zip(xs, ys))
        parts.append('<polyline points="%s" fill="none" stroke="%s" stroke-width="1.6"/>' % (
            pts, color))
        ly = margin_t + 16 + 16 * i
        parts.append('<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" '
                     'stroke-width="2"/>' % (margin_l + 8, ly - 4, margin_l + 28, ly - 4, color))
        parts.append('<text x="%d" y="%d" font-size="12" font-family="sans-serif">%s</text>' % (
            margin_l + 34, ly, label))

    parts += [
        '<text x="%d" y="%d" font-size="13" font-family="sans-serif" '
        'text-anchor="middle">%s</text>' % (margin_l + plot_w // 2, _HEIGHT - 14, xlabel),
        '<text x="16" y="%d" font-size="13" font-family="sans-serif" '
        'text-anchor="middle" transform="rotate(-90 16 %d)">%s</text>' % (
            margin_t + plot_h // 2, margin_t + plot_h // 2, ylabel),
        "</svg>",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")
