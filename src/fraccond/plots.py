"""Plot emission: numeric sidecar files plus minimal static SVG images.

The two-column .dat sidecars are the canonical artifact; the SVG renderer
is a small self-contained scatter/line writer (no plotting dependency).
What each suite draws is its own (`experiments.Suite.figures`): this
module only renders it.
"""

from __future__ import annotations

import math
from pathlib import Path

from .experiments import SUITES

__all__ = ["emit_plots", "write_sidecar", "svg_plot"]


def write_sidecar(path, rows, header):
    """Two-column (or wider) numeric text file with a comment header."""
    path = Path(path)
    lines = [f"# {h}" for h in header]
    for row in rows:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


def _ticks(lo, hi, count=5):
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def svg_plot(path, series, xlabel, ylabel, title, logx=False, logy=False):
    """Tiny SVG scatter/line plot.

    series: list of dicts with keys x, y, kind ("points"|"line"), label.
    """
    W, H, M = 640, 440, 60.0

    def tx(v):
        return math.log10(v) if logx else v

    def ty(v):
        return math.log10(v) if logy else v

    xs = [tx(v) for s in series for v in s["x"]]
    ys = [ty(v) for s in series for v in s["y"]]
    if not xs or not ys:
        return None
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    padx = 0.05 * (x1 - x0)
    pady = 0.08 * (y1 - y0)
    x0, x1, y0, y1 = x0 - padx, x1 + padx, y0 - pady, y1 + pady

    def px(v):
        return M + (tx(v) - x0) / (x1 - x0) * (W - 2 * M)

    def py(v):
        return H - M - (ty(v) - y0) / (y1 - y0) * (H - 2 * M)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W/2:.0f}" y="24" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">{title}</text>',
    ]
    # axes
    parts.append(
        f'<rect x="{M}" y="{M}" width="{W-2*M}" height="{H-2*M}" fill="none" '
        f'stroke="#333" stroke-width="1"/>'
    )
    for t in _ticks(x0, x1):
        xpix = M + (t - x0) / (x1 - x0) * (W - 2 * M)
        label = f"1e{t:.1f}" if logx else f"{t:.3g}"
        parts.append(
            f'<text x="{xpix:.1f}" y="{H-M+18:.1f}" text-anchor="middle" '
            f'font-size="10" font-family="sans-serif">{label}</text>'
        )
    for t in _ticks(y0, y1):
        ypix = H - M - (t - y0) / (y1 - y0) * (H - 2 * M)
        label = f"1e{t:.1f}" if logy else f"{t:.3g}"
        parts.append(
            f'<text x="{M-6:.1f}" y="{ypix+3:.1f}" text-anchor="end" '
            f'font-size="10" font-family="sans-serif">{label}</text>'
        )
    parts.append(
        f'<text x="{W/2:.0f}" y="{H-14}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{H/2:.0f}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif" transform="rotate(-90 16 {H/2:.0f})">{ylabel}</text>'
    )
    for i, s in enumerate(series):
        color = colors[i % len(colors)]
        pts = [(px(a), py(b)) for a, b in zip(s["x"], s["y"])]
        if s.get("kind") == "line":
            d = "M " + " L ".join(f"{a:.2f} {b:.2f}" for a, b in pts)
            parts.append(f'<path d="{d}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        else:
            for a, b in pts:
                parts.append(f'<circle cx="{a:.2f}" cy="{b:.2f}" r="3" fill="{color}"/>')
        parts.append(
            f'<text x="{W-M-6}" y="{M+16+14*i}" text-anchor="end" font-size="11" '
            f'fill="{color}" font-family="sans-serif">{s.get("label", "")}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts), encoding="utf-8")
    return Path(path)


def emit_plots(report, out_dir):
    """Write the sidecar data and vector figures of the report's suite
    (`experiments.Suite.figures`).

    Returns the list of created files.  Empty data produces a headers-only
    sidecar, no image, and a warning.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    created = []
    for stem, header, rows, plot in SUITES[report["suite"]].figures(report["payload"]):
        created.append(write_sidecar(out / f"{stem}.dat", rows, header))
        if plot is not None:
            created.append(svg_plot(out / f"{stem}.svg", **plot))
    return [p for p in created if p is not None]
