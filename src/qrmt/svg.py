"""Minimal self-contained SVG line plots.

Quick-look rendering only: a handful of series on a fixed 720 x 480 canvas,
a linear x axis, a linear or log y axis, a legend.
Deterministic output (same input, same bytes) so plots can be digest-checked
like any other artifact.
"""
from __future__ import annotations

import math

__all__ = ["Series", "render_svg"]

_PALETTE = ["#1f6feb", "#d1242f", "#1a7f37", "#9a6700", "#8250df", "#cf222e"]
_DASH = {"solid": None, "dashed": "7,5", "dotted": "2,4"}
_WIDTH, _HEIGHT = 720, 480


class Series:
    """One plotted line (or point set) with a label and a line style."""

    def __init__(self, x, y, label="", style="solid", color=None, markers=False):
        self.x = [float(v) for v in x]
        self.y = [float(v) for v in y]
        if len(self.x) != len(self.y):
            raise ValueError("series x and y must have equal length")
        if style not in _DASH:
            raise ValueError(f"style must be one of {sorted(_DASH)}, got {style!r}")
        self.label = label
        self.style = style
        self.color = color
        self.markers = markers


def _nice_step(span: float, target: int) -> float:
    raw = span / max(target, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def _ticks(lo: float, hi: float, log: bool) -> list[float]:
    if log:
        lo_d, hi_d = math.floor(math.log10(lo)), math.ceil(math.log10(hi))
        return [10.0 ** d for d in range(int(lo_d), int(hi_d) + 1) if lo <= 10.0 ** d <= hi]
    step = _nice_step(hi - lo, 5)
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-9 * step:
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return out


def _fmt(v: float) -> str:
    if v == 0.0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    s = f"{v:.6g}"
    return s


def render_svg(
    path: str,
    series: list[Series],
    *,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    ylog: bool = False,
) -> None:
    """Write a line plot of the given series to `path`."""
    ml, mr, mt, mb = 64, 16, 34, 46
    pw, ph = _WIDTH - ml - mr, _HEIGHT - mt - mb

    def usable(s: Series):
        pts = []
        for xv, yv in zip(s.x, s.y):
            if not (math.isfinite(xv) and math.isfinite(yv)):
                continue
            if ylog and yv <= 0.0:
                continue
            pts.append((xv, yv))
        return pts

    allpts = [p for s in series for p in usable(s)]
    if not allpts:
        raise ValueError("nothing to plot")
    xs = [p[0] for p in allpts]
    ys = [p[1] for p in allpts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x0 == x1:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y0 == y1:
        y0, y1 = y0 - 0.5, y1 + 0.5
    if not ylog:
        pad = 0.05 * (y1 - y0)
        y0, y1 = y0 - pad, y1 + pad
    pad = 0.02 * (x1 - x0)
    x0, x1 = x0 - pad, x1 + pad

    def tx(v: float) -> float:
        return ml + pw * (v - x0) / (x1 - x0)

    def ty(v: float) -> float:
        if ylog:
            f = (math.log10(v) - math.log10(y0)) / (math.log10(y1) - math.log10(y0))
        else:
            f = (v - y0) / (y1 - y0)
        return mt + ph * (1.0 - f)

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="Helvetica,Arial,sans-serif">'
    )
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    out.append(
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#444" stroke-width="1"/>'
    )
    if title:
        out.append(
            f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>'
        )

    for t in _ticks(x0, x1, False):
        px = tx(t)
        out.append(
            f'<line x1="{px:.2f}" y1="{mt + ph}" x2="{px:.2f}" y2="{mt + ph + 5}" stroke="#444"/>'
        )
        out.append(
            f'<line x1="{px:.2f}" y1="{mt}" x2="{px:.2f}" y2="{mt + ph}" stroke="#ddd" stroke-width="0.6"/>'
        )
        out.append(
            f'<text x="{px:.2f}" y="{mt + ph + 18}" text-anchor="middle" font-size="11">{_fmt(t)}</text>'
        )
    for t in _ticks(y0, y1, ylog):
        py = ty(t)
        out.append(f'<line x1="{ml - 5}" y1="{py:.2f}" x2="{ml}" y2="{py:.2f}" stroke="#444"/>')
        out.append(
            f'<line x1="{ml}" y1="{py:.2f}" x2="{ml + pw}" y2="{py:.2f}" stroke="#ddd" stroke-width="0.6"/>'
        )
        out.append(
            f'<text x="{ml - 8}" y="{py + 4:.2f}" text-anchor="end" font-size="11">{_fmt(t)}</text>'
        )
    if xlabel:
        out.append(
            f'<text x="{ml + pw / 2:.1f}" y="{_HEIGHT - 8}" text-anchor="middle" font-size="12">{xlabel}</text>'
        )
    if ylabel:
        out.append(
            f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" font-size="12" '
            f'transform="rotate(-90 16 {mt + ph / 2:.1f})">{ylabel}</text>'
        )

    for i, s in enumerate(series):
        color = s.color or _PALETTE[i % len(_PALETTE)]
        pts = usable(s)
        if not pts:
            continue
        dash = _DASH[s.style]
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        if len(pts) > 1 and not s.markers:
            coords = " ".join(f"{tx(x):.2f},{ty(y):.2f}" for x, y in pts)
            out.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.6"{dash_attr}/>'
            )
        else:
            for x, y in pts:
                out.append(f'<circle cx="{tx(x):.2f}" cy="{ty(y):.2f}" r="2.4" fill="{color}"/>')

    ly = mt + 14
    for i, s in enumerate(series):
        if not s.label:
            continue
        color = s.color or _PALETTE[i % len(_PALETTE)]
        lx = ml + pw - 180
        dash = _DASH[s.style]
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        if s.markers:
            out.append(f'<circle cx="{lx + 12}" cy="{ly - 4}" r="2.4" fill="{color}"/>')
        else:
            out.append(
                f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" stroke="{color}" '
                f'stroke-width="1.6"{dash_attr}/>'
            )
        out.append(f'<text x="{lx + 30}" y="{ly}" font-size="11">{s.label}</text>')
        ly += 16

    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
