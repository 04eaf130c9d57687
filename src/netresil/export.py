"""Trajectory CSV export and self-contained SVG line charts.

CSV rows are written with shortest-round-trip float formatting, so a
fixed (command, seed, config) triple produces byte-identical files. The
SVG writer emits plain polylines with no external assets, one chart per
signal group, so plots diff cleanly in CI.
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np

from .simulate import Trajectory


def trajectory_csv(traj: Trajectory, path: str) -> None:
    """Write `t,x1..xn,phi1..phin,y1..yq,u1..um` rows, one per sample."""
    n = traj.states.shape[1]
    n_phi = traj.comp_states.shape[1]
    q = traj.outputs.shape[1]
    u = traj.commands if traj.commands is not None else traj.inputs
    m = u.shape[1]
    header = (["t"]
              + [f"x{i+1}" for i in range(n)]
              + [f"phi{i+1}" for i in range(n_phi)]
              + [f"y{i+1}" for i in range(q)]
              + [f"u{i+1}" for i in range(m)])
    block = np.hstack([traj.times[:, None], traj.states, traj.comp_states,
                       traj.outputs, u])
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        # row.tolist() gives Python floats, whose repr is the shortest round trip;
        # rows are streamed, so no copy of the whole text is held
        fh.writelines(",".join(map(repr, row.tolist())) + "\n" for row in block)


def _svg_path(xs: np.ndarray, ys: np.ndarray) -> str:
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    return pts


_COLORS = ("#1f6feb", "#d1242f", "#1a7f37", "#9a6700", "#8250df",
           "#bf3989", "#57606a", "#0550ae")


def svg_line_chart(path: str, t: np.ndarray, series: Sequence[np.ndarray],
                   labels: Sequence[str] | None = None, title: str = "",
                   width: int = 720, height: int = 340) -> None:
    """Write one standalone SVG chart with a polyline per series."""
    ml, mr, mt, mb = 56, 16, 28, 36
    pw, ph = width - ml - mr, height - mt - mb
    t = np.asarray(t, dtype=float)
    series = [np.asarray(s, dtype=float) for s in series]
    finite = [s[np.isfinite(s)] for s in series]
    lo = min((s.min() for s in finite if s.size), default=0.0)
    hi = max((s.max() for s in finite if s.size), default=1.0)
    if hi <= lo:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    t0, t1 = (t[0], t[-1]) if t.size else (0.0, 1.0)
    if t1 <= t0:
        t1 = t0 + 1.0

    def sx(x):
        return ml + (x - t0) / (t1 - t0) * pw

    def sy(y):
        return mt + (hi - y) / (hi - lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{ml}" y="18" font-family="monospace" font-size="13">{title}</text>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#d0d7de"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        yv = lo + frac * (hi - lo)
        yy = sy(yv)
        parts.append(f'<line x1="{ml}" y1="{yy:.2f}" x2="{ml + pw}" y2="{yy:.2f}" '
                     f'stroke="#eaeef2"/>')
        parts.append(f'<text x="4" y="{yy + 4:.2f}" font-family="monospace" '
                     f'font-size="10">{yv:.3g}</text>')
        tv = t0 + frac * (t1 - t0)
        xx = sx(tv)
        parts.append(f'<text x="{xx - 10:.2f}" y="{height - 8}" font-family="monospace" '
                     f'font-size="10">{tv:.4g}</text>')
    step = max(1, t.size // 2000)   # cap polyline length, keep files small
    for i, s in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        mask = np.isfinite(s)
        pts = _svg_path(sx(t[mask][::step]), sy(np.clip(s[mask][::step], lo, hi)))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.2"/>')
        if labels is not None:
            parts.append(f'<text x="{ml + pw - 150}" y="{mt + 14 + 13 * i}" '
                         f'font-family="monospace" font-size="11" '
                         f'fill="{color}">{labels[i]}</text>')
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def plot_outputs(traj: Trajectory, outdir: str, prefix: str = "y",
                 reference: np.ndarray | None = None) -> list[str]:
    """One SVG per output channel; overlays the reference when given."""
    os.makedirs(outdir, exist_ok=True)
    paths = []
    for i in range(traj.outputs.shape[1]):
        series = [traj.outputs[:, i]]
        labels = [f"{prefix}{i+1}"]
        if reference is not None:
            series.append(reference[:, i])
            labels.append("ref")
        p = os.path.join(outdir, f"{prefix}{i+1}.svg")
        svg_line_chart(p, traj.times, series, labels, title=f"output {prefix}{i+1}")
        paths.append(p)
    return paths


def plot_commands(traj: Trajectory, outdir: str) -> str | None:
    """All controller commands on one chart."""
    u = traj.commands if traj.commands is not None else traj.inputs
    if u.shape[1] == 0:
        return None
    os.makedirs(outdir, exist_ok=True)
    p = os.path.join(outdir, "u.svg")
    svg_line_chart(p, traj.times, [u[:, i] for i in range(u.shape[1])],
                   [f"u{i+1}" for i in range(u.shape[1])], title="commands")
    return p
