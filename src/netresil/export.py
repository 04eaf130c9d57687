"""Trajectory CSV export and self-contained SVG line charts.

CSV rows are written with shortest-round-trip float formatting, so a
fixed (command, seed, config) triple produces byte-identical files. A
block of ``PARALLEL_MIN_VALUES`` values or more is cut into contiguous
row slices, one per usable CPU and at most ``MAX_SLICES``: the calling
process formats the first slice into the CSV while a forked child
formats each further slice into an unnamed temporary file in the output
directory, and the parent appends those files in row order. Every row
goes through the same formatter, so the bytes do not depend on the
split; a smaller block, one usable CPU, or a platform without
``os.fork`` or ``os.sched_getaffinity`` writes the whole block in the
calling process. Python 3.12 and later emit a ``DeprecationWarning``
for ``os.fork`` in a process that runs other threads (a BLAS thread pool
counts); the children only format floats and write their own file.

The SVG writer emits plain polylines with no external assets, one chart
per signal group, so plots diff cleanly in CI.
"""

from __future__ import annotations

import contextlib
import errno
import os
import shutil
import signal
import tempfile
from typing import Sequence

import numpy as np

from .simulate import Trajectory


PARALLEL_MIN_VALUES = 15_000
"""Smallest CSV block, in values, that is split across processes. On two
x86-64 vCPUs, in an 85 MB process, two slices cost 5-10% more time than one
at 10,000 values and 7-8% less at 15,000, for rows of 15 and of 51 values."""

MAX_SLICES = 4
"""Most row slices, hence processes, one CSV is formatted in (not measured
beyond two)."""

_CHILD_FAILED = 255
"""Exit code of a CSV child that failed other than by an ``OSError``, which
exits with its errno instead; no Linux errno is this large."""


def _write_rows(fh, rows: np.ndarray) -> None:
    # row.tolist() gives Python floats, whose repr is the shortest round trip;
    # rows are streamed, so no copy of the whole text is held
    fh.writelines(",".join(map(repr, row.tolist())) + "\n" for row in rows)


def _slice_count(block: np.ndarray) -> int:
    if (block.size < PARALLEL_MIN_VALUES or not hasattr(os, "fork")
            or not hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), MAX_SLICES, len(block))


def _fork_writer(rows: np.ndarray, tmp) -> int:
    """Fork a child that formats ``rows`` into ``tmp`` and exits; return its pid."""
    pid = os.fork()
    if pid:
        return pid
    code = _CHILD_FAILED
    try:
        with open(tmp.fileno(), "w", newline="\n", closefd=False) as out:
            _write_rows(out, rows)
        code = 0
    except OSError as exc:
        code = exc.errno or _CHILD_FAILED
    finally:
        # skips the parent's atexit handlers and buffered output
        os._exit(code)


def trajectory_csv(traj: Trajectory, path: str) -> None:
    """Write `t,x1..xn,phi1..phin,y1..yq,u1..um` rows, one per sample.

    A block of ``PARALLEL_MIN_VALUES`` values or more is formatted in
    contiguous row slices, one per usable CPU up to ``MAX_SLICES``, by
    forked children that write unnamed temporary files in the output
    directory; the file is byte-identical to the one-process write. Raises
    ``OSError`` when a child fails; no child outlives the call.
    """
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
    k = _slice_count(block)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.flush()                      # a child must not inherit unwritten text
        edges = [len(block) * i // k for i in range(k + 1)]
        outdir = os.path.dirname(os.path.abspath(path))
        with contextlib.ExitStack() as temps:
            children = []               # (pid, temporary file) in row order, unreaped
            try:
                for lo, hi in zip(edges[1:-1], edges[2:]):
                    tmp = temps.enter_context(tempfile.TemporaryFile(dir=outdir))
                    children.append((_fork_writer(block[lo:hi], tmp), tmp))
                _write_rows(fh, block[:edges[1]])
                fh.flush()
                while children:
                    pid, tmp = children[0]
                    status = os.waitpid(pid, 0)[1]
                    del children[0]
                    if status:
                        code = os.waitstatus_to_exitcode(status)
                        cause = (f" ({os.strerror(code)})"
                                 if code in errno.errorcode else "")
                        raise OSError(f"CSV worker for {path} exited with status "
                                      f"{code}{cause}")
                    tmp.seek(0)
                    shutil.copyfileobj(tmp, fh.buffer)
            finally:
                for pid, _ in children:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)


def _svg_path(xs: np.ndarray, ys: np.ndarray) -> str:
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    return pts


_COLORS = ("#1f6feb", "#d1242f", "#1a7f37", "#9a6700", "#8250df",
           "#bf3989", "#57606a", "#0550ae")


def svg_line_chart(path: str, t: np.ndarray, series: Sequence[np.ndarray],
                   labels: Sequence[str] | None = None, title: str = "") -> None:
    """Write one standalone 720 x 340 SVG chart with a polyline per series."""
    width, height = 720, 340
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


def plot_outputs(traj: Trajectory, outdir: str,
                 reference: np.ndarray | None = None) -> list[str]:
    """One SVG per output channel, ``y<i>.svg``; overlays the reference when
    given."""
    os.makedirs(outdir, exist_ok=True)
    paths = []
    for i in range(traj.outputs.shape[1]):
        series = [traj.outputs[:, i]]
        labels = [f"y{i+1}"]
        if reference is not None:
            series.append(reference[:, i])
            labels.append("ref")
        p = os.path.join(outdir, f"y{i+1}.svg")
        svg_line_chart(p, traj.times, series, labels, title=f"output y{i+1}")
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
