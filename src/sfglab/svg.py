"""Self-contained deterministic SVG emission: scatter panels, quiver-style
field plots and tradeoff line charts. No plotting library: byte-identical
output for identical inputs is part of the contract."""

from __future__ import annotations

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#17becf", "#e377c2")
# (panel side, margin) in pixels per plot kind; the scatter point radius in
# pixels; the world length of a field arrow per unit of the plotted vector
SCATTER, FIELD, CHART = (280, 40), (420, 48), (420, 56)
POINT_RADIUS, ARROW_SCALE = 1.6, 0.25


def _fmt(v: float) -> str:
    return f"{v:.2f}"


class Panel:
    """One axes rectangle with a world-to-pixel transform."""

    def __init__(self, x_px, y_px, w_px, h_px, bounds, title=""):
        self.x_px, self.y_px, self.w_px, self.h_px = x_px, y_px, w_px, h_px
        self.lo_x, self.hi_x, self.lo_y, self.hi_y = bounds
        self.title = title
        self.elements: list[str] = []

    def px(self, x, y):
        fx = (x - self.lo_x) / (self.hi_x - self.lo_x)
        fy = (y - self.lo_y) / (self.hi_y - self.lo_y)
        return self.x_px + fx * self.w_px, self.y_px + (1.0 - fy) * self.h_px

    def circle(self, x, y, r, color, opacity=1.0):
        cx, cy = self.px(x, y)
        self.elements.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="{color}" '
            f'fill-opacity="{opacity:.2f}"/>')

    def line(self, x0, y0, x1, y1, color, width=1.0, opacity=1.0):
        ax, ay = self.px(x0, y0)
        bx, by = self.px(x1, y1)
        self.elements.append(
            f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" x2="{_fmt(bx)}" y2="{_fmt(by)}" '
            f'stroke="{color}" stroke-width="{width:.2f}" stroke-opacity="{opacity:.2f}"/>')

    def arrow(self, x, y, dx, dy, color, width=1.0, opacity=1.0):
        """Segment with a short V head at the tip (world coordinates)."""
        self.line(x, y, x + dx, y + dy, color, width, opacity)
        norm = float(np.hypot(dx, dy))
        if norm <= 0:
            return
        ux, uy = dx / norm, dy / norm
        head = 0.25 * norm
        for sgn in (+1.0, -1.0):
            hx = -ux * head + sgn * uy * head * 0.6
            hy = -uy * head - sgn * ux * head * 0.6
            self.line(x + dx, y + dy, x + dx + hx, y + dy + hy, color, width, opacity)

    def polyline(self, xs, ys, color, width=1.5):
        pts = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in (self.px(x, y) for x, y in zip(xs, ys)))
        self.elements.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{width:.2f}"/>')

    def frame(self) -> list[str]:
        out = [f'<rect x="{_fmt(self.x_px)}" y="{_fmt(self.y_px)}" width="{_fmt(self.w_px)}" '
               f'height="{_fmt(self.h_px)}" fill="none" stroke="#333333" stroke-width="1.00"/>']
        if self.title:
            out.append(f'<text x="{_fmt(self.x_px + self.w_px / 2)}" y="{_fmt(self.y_px - 6)}" '
                       f'font-family="monospace" font-size="12" text-anchor="middle">{self.title}</text>')
        out.append(f'<text x="{_fmt(self.x_px)}" y="{_fmt(self.y_px + self.h_px + 14)}" '
                   f'font-family="monospace" font-size="9">'
                   f'[{self.lo_x:.3g}, {self.hi_x:.3g}] x [{self.lo_y:.3g}, {self.hi_y:.3g}]</text>')
        return out


def render(panels: list[Panel], width: int, height: int) -> str:
    body = []
    for p in panels:
        body.extend(p.frame())
        body.extend(p.elements)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        *body,
        "</svg>",
    ]
    return "\n".join(lines) + "\n"


def _bounds_of(point_sets, pad=0.08):
    pts = [p for p, _, _ in point_sets if len(p)]
    if not pts:
        return (-1.0, 1.0, -1.0, 1.0)
    allp = np.concatenate(pts)
    lo = allp.min(axis=0)
    hi = allp.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    return (float(lo[0] - pad * span[0]), float(hi[0] + pad * span[0]),
            float(lo[1] - pad * span[1]), float(hi[1] + pad * span[1]))


def scatter_svg(point_sets) -> str:
    """Side-by-side 2D scatter panels with class colors.

    point_sets: list of (points (N, 2), labels (N,), title). A shared world
    bounding box keeps panels comparable. Empty inputs give axes only.
    """
    for pts, _, title in point_sets:
        if len(pts) and np.asarray(pts).shape[1] != 2:
            raise ValueError(f"panel {title!r}: points must be 2D; project higher dimensions first")
    bounds = _bounds_of(point_sets)
    panel_size, margin = SCATTER
    panels = []
    for i, (pts, labels, title) in enumerate(point_sets):
        panel = Panel(margin + i * (panel_size + margin), margin, panel_size, panel_size,
                      bounds, title)
        pts = np.asarray(pts, dtype=float)
        labels = np.asarray(labels, dtype=int) if labels is not None else np.zeros(len(pts), dtype=int)
        for (x, y), lab in zip(pts, labels):
            panel.circle(x, y, POINT_RADIUS, PALETTE[lab % len(PALETTE)], opacity=0.55)
        panels.append(panel)
    n = max(len(point_sets), 1)
    return render(panels, margin + n * (panel_size + margin), panel_size + 2 * margin)


def _classifier_keys(columns) -> list[str]:
    return sorted({k.rsplit("_", 1)[0] for k in columns if k.startswith("clf")})


def field_columns(header) -> list[str]:
    """The columns field_svg reads from a curvature-field table with this header."""
    return ["x0", "x1", "score0", "score1", "gate", "evec0", "evec1",
            *(f"{ck}_{i}" for ck in _classifier_keys(header) for i in (0, 1))]


def field_svg(columns) -> str:
    """Quiver plot of a curvature-field table, given as columns (see
    evaluation.curvature_field): marginal score (gray), the two
    Bayes-classifier gradients (blue/red), and positive-curvature eigenvector
    segments (green) where the gate is on."""
    panel_size, margin = FIELD
    col = {k: v.tolist() if isinstance(v, np.ndarray) else list(v) for k, v in columns.items()}
    if not col.get("x0"):
        return render([Panel(margin, margin, panel_size, panel_size, (-1, 1, -1, 1), "field")],
                      panel_size + 2 * margin, panel_size + 2 * margin)
    xs = np.asarray(col["x0"], dtype=float)
    ys = np.asarray(col["x1"], dtype=float)
    pad = 0.05 * max(np.ptp(xs), np.ptp(ys), 1e-9)
    bounds = (float(xs.min() - pad), float(xs.max() + pad),
              float(ys.min() - pad), float(ys.max() + pad))
    panel = Panel(margin, margin, panel_size, panel_size, bounds, "score / classifier / curvature")
    spacing = max(np.median(np.diff(np.unique(xs))), 1e-6) if len(np.unique(xs)) > 1 else 0.1

    def clipped(dx, dy):
        norm = float(np.hypot(dx, dy))
        cap = 0.9 * spacing
        if norm > cap > 0:
            dx, dy = dx / norm * cap, dy / norm * cap
        return dx, dy

    x0, x1 = col["x0"], col["x1"]
    arrows = [(col["score0"], col["score1"], "#777777", 0.8)]
    arrows += [(col[f"{ck}_0"], col[f"{ck}_1"], PALETTE[j % len(PALETTE)], 0.65)
               for j, ck in enumerate(_classifier_keys(col))]
    for i in range(len(x0)):
        for u, v, color, opacity in arrows:
            dx, dy = clipped(u[i] * ARROW_SCALE, v[i] * ARROW_SCALE)
            panel.arrow(x0[i], x1[i], dx, dy, color, 0.8, opacity)
    half = 0.45 * spacing
    for x, y, gate, e0, e1 in zip(x0, x1, col["gate"], col["evec0"], col["evec1"]):
        if gate:
            panel.line(x - half * e0, y - half * e1, x + half * e0, y + half * e1, "#2ca02c", 2.0, 0.9)
    return render([panel], panel_size + 2 * margin, panel_size + 2 * margin)


def line_chart_svg(rows, x_key, y_keys, group_key=None) -> str:
    """Tradeoff curves: one polyline per y key (and per group value)."""
    panel_size, margin = CHART
    if not rows:
        return render([Panel(margin, margin, panel_size, panel_size, (-1, 1, -1, 1), "sweep")],
                      panel_size + 2 * margin, panel_size + 2 * margin)
    xs = np.asarray([r[x_key] for r in rows], dtype=float)
    ys_all = np.asarray([[r[k] for k in y_keys] for r in rows], dtype=float)
    lo_x, hi_x = float(xs.min()), float(xs.max())
    lo_y, hi_y = float(ys_all.min()), float(ys_all.max())
    if hi_x == lo_x:
        lo_x, hi_x = lo_x - 0.5, hi_x + 0.5
    if hi_y == lo_y:
        lo_y, hi_y = lo_y - 0.5, hi_y + 0.5
    pad = 0.05 * (hi_y - lo_y)
    panel = Panel(margin, margin, panel_size, panel_size,
                  (lo_x, hi_x, lo_y - pad, hi_y + pad), f"{'/'.join(y_keys)} vs {x_key}")
    groups = sorted({r.get(group_key) for r in rows}) if group_key else [None]
    ci = 0
    for gval in groups:
        sub = [r for r in rows if group_key is None or r.get(group_key) == gval]
        sub = sorted(sub, key=lambda r: r[x_key])
        for k in y_keys:
            color = PALETTE[ci % len(PALETTE)]
            ci += 1
            panel.polyline([r[x_key] for r in sub], [r[k] for r in sub], color)
            for r in sub:
                panel.circle(r[x_key], r[k], 2.4, color)
    return render([panel], panel_size + 2 * margin, panel_size + 2 * margin)
