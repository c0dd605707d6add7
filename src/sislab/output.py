"""CSV and SVG emission for trajectories and sweep tables.

Numbers are written with repr(), the shortest decimal that round-trips to
the same float, so re-parsing a profile file reproduces the state bit for
bit and identical configurations produce byte-identical output.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .diagnostics import DiagnosticsRecord
from .mesh import Field
from .models import State, Trajectory


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def emit_csv(traj: Trajectory, out_dir) -> tuple[Path, Path]:
    """Write profiles.csv (t, x, S, I) and diagnostics.csv; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    profiles = out / "profiles.csv"
    diagnostics = out / "diagnostics.csv"

    nodes = traj.spec.grid.nodes
    with profiles.open("w") as fh:
        fh.write("t,x,S,I\n")
        for snap in traj.snapshots:
            t = _fmt(snap.t)
            Sv, Iv = snap.S.values, snap.I.values
            for i in range(nodes.shape[0]):
                fh.write(f"{t},{_fmt(nodes[i])},{_fmt(Sv[i])},{_fmt(Iv[i])}\n")

    with diagnostics.open("w") as fh:
        fh.write(",".join(DiagnosticsRecord.CSV_COLUMNS) + "\n")
        for rec in traj.diagnostics:
            fh.write(",".join(_fmt(getattr(rec, col))
                              for col in DiagnosticsRecord.CSV_COLUMNS) + "\n")
    return profiles, diagnostics


def read_profiles_csv(path) -> list[tuple[float, np.ndarray, np.ndarray, np.ndarray]]:
    """Parse a profiles.csv back into (t, x, S, I) blocks, one per snapshot."""
    rows = Path(path).read_text().splitlines()
    if not rows or rows[0] != "t,x,S,I":
        raise ValueError(f"{path} is not a profiles.csv")
    blocks: list[tuple[float, list, list, list]] = []
    for line in rows[1:]:
        t_s, x_s, s_s, i_s = line.split(",")
        t = float(t_s)
        if not blocks or blocks[-1][0] != t:
            blocks.append((t, [], [], []))
        blocks[-1][1].append(float(x_s))
        blocks[-1][2].append(float(s_s))
        blocks[-1][3].append(float(i_s))
    return [(t, np.array(x), np.array(s), np.array(i)) for t, x, s, i in blocks]


def read_diagnostics_csv(path) -> list[DiagnosticsRecord]:
    rows = Path(path).read_text().splitlines()
    header = ",".join(DiagnosticsRecord.CSV_COLUMNS)
    if not rows or rows[0] != header:
        raise ValueError(f"{path} is not a diagnostics.csv")
    records = []
    for line in rows[1:]:
        parts = line.split(",")
        vals = [None if p == "" else float(p) for p in parts]
        records.append(DiagnosticsRecord(*vals))
    return records


def trajectory_from_csv(spec, profiles_path, diagnostics_path=None) -> Trajectory:
    """Rebuild a trajectory from emitted CSVs; the exposure field J is not
    written, so every reloaded state has ``J = None``."""
    blocks = read_profiles_csv(profiles_path)
    grid = spec.grid
    snapshots = []
    for t, x, s, i in blocks:
        if x.shape[0] != grid.nx:
            raise ValueError("profile grid does not match the configured grid")
        snapshots.append(State(t, Field(grid, s), Field(grid, i), None))
    records = read_diagnostics_csv(diagnostics_path) if diagnostics_path else []
    N = snapshots[0].total_mass()
    return Trajectory(spec=spec, snapshots=snapshots, diagnostics=records, N=N)


# ---------------------------------------------------------------------------
# SVG plotting: static standalone line plots, no drawing dependencies.

SVG_KINDS = ("final_profiles", "mass_series", "lyapunov_series")  # of a trajectory

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 30, 50


def _scale(vals, lo, hi, out_lo, out_hi):
    if hi == lo:
        hi = lo + 1.0
    return [(v - lo) / (hi - lo) * (out_hi - out_lo) + out_lo for v in vals]


def _polyline(xs, ys, color) -> str:
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{pts}"/>')


def _axes(x_label: str, y_label: str, x_range, y_range, title: str) -> list[str]:
    x0, x1 = _ML, _W - _MR
    y0, y1 = _H - _MB, _MT
    parts = [
        f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
        'fill="none" stroke="#333"/>',
        f'<text x="{(x0 + x1) / 2:.0f}" y="{_H - 12}" text-anchor="middle" '
        f'font-size="13">{x_label}</text>',
        f'<text x="16" y="{(y0 + y1) / 2:.0f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 16 {(y0 + y1) / 2:.0f})">{y_label}</text>',
        f'<text x="{(x0 + x1) / 2:.0f}" y="20" text-anchor="middle" '
        f'font-size="14">{title}</text>',
    ]
    for frac in (0.0, 0.5, 1.0):
        xv = x_range[0] + frac * (x_range[1] - x_range[0])
        yv = y_range[0] + frac * (y_range[1] - y_range[0])
        xpix = x0 + frac * (x1 - x0)
        ypix = y0 - frac * (y0 - y1)
        parts.append(f'<text x="{xpix:.0f}" y="{y0 + 18}" text-anchor="middle" '
                     f'font-size="11">{xv:.4g}</text>')
        parts.append(f'<text x="{x0 - 6}" y="{ypix + 4:.0f}" text-anchor="end" '
                     f'font-size="11">{yv:.4g}</text>')
    return parts


def _svg_document(series, x_label, y_label, title, annotations=()) -> str:
    xs_all = [x for xs, _, _, _ in series for x in xs]
    ys_all = [y for _, ys, _, _ in series for y in ys]
    finite = [y for y in ys_all if math.isfinite(y)]
    if not finite:
        raise ValueError("no finite data to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(finite), max(finite)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    parts += _axes(x_label, y_label, (x_lo, x_hi), (y_lo, y_hi), title)
    legend_y = _MT + 14
    for xs, ys, color, label in series:
        px = _scale(xs, x_lo, x_hi, _ML, _W - _MR)
        py = _scale(ys, y_lo, y_hi, _H - _MB, _MT)
        pairs = [(x, y) for x, y, yv in zip(px, py, ys) if math.isfinite(yv)]
        parts.append(_polyline([p[0] for p in pairs], [p[1] for p in pairs], color))
        if label:
            parts.append(f'<line x1="{_W - 150}" y1="{legend_y}" x2="{_W - 126}" '
                         f'y2="{legend_y}" stroke="{color}" stroke-width="2"/>')
            parts.append(f'<text x="{_W - 120}" y="{legend_y + 4}" '
                         f'font-size="12">{label}</text>')
            legend_y += 16
    for x, text in annotations:
        px = _scale([x], x_lo, x_hi, _ML, _W - _MR)[0]
        parts.append(f'<line x1="{px:.1f}" y1="{_MT}" x2="{px:.1f}" '
                     f'y2="{_H - _MB}" stroke="#c33" stroke-dasharray="4 3"/>')
        parts.append(f'<text x="{px + 4:.1f}" y="{_MT + 12}" font-size="11" '
                     f'fill="#c33">{text}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def emit_svg(traj: Trajectory, path, kind: str) -> Path:
    """Render one of the standard plots for a finished trajectory."""
    if kind not in SVG_KINDS:
        raise ValueError(f"unknown plot kind {kind!r} for a trajectory")
    if not traj.snapshots:
        raise ValueError("empty trajectory")
    if kind == "final_profiles":
        final = traj.final
        xs = list(traj.spec.grid.nodes)
        series = [(xs, list(final.S.values), "#1f77b4", "S"),
                  (xs, list(final.I.values), "#d62728", "I")]
        doc = _svg_document(series, "x", "density",
                            f"final profiles at t={final.t:g}")
    elif kind == "mass_series":
        ts = [r.t for r in traj.diagnostics]
        if not ts:
            raise ValueError("no data for kind 'mass_series'")
        series = [(ts, [r.total_mass for r in traj.diagnostics], "#1f77b4",
                   "total mass")]
        doc = _svg_document(series, "t", "mass", "total population")
    else:
        pts = [(r.t, r.lyapunov) for r in traj.diagnostics if r.lyapunov is not None]
        if not pts:
            raise ValueError("no data for kind 'lyapunov_series'")
        series = [([p[0] for p in pts], [p[1] for p in pts], "#1f77b4", "V")]
        doc = _svg_document(series, "t", "V", "energy functional")
    path = Path(path)
    path.write_text(doc)
    return path


def emit_sweep_svg(table, path, knee=None, x_label="parameter",
                   y_label="observable") -> Path:
    """Line plot of a sweep table [(parameter, value)], with a knee marker."""
    pts = [(p, v) for p, v, *_ in table if v is not None and math.isfinite(v)]
    if not pts:
        raise ValueError("no data for kind 'sweep_curve'")
    series = [([p[0] for p in pts], [p[1] for p in pts], "#1f77b4", y_label)]
    annotations = [(knee, f"knee at {knee:.4g}")] if knee is not None else []
    doc = _svg_document(series, x_label, y_label, "parameter sweep", annotations)
    path = Path(path)
    path.write_text(doc)
    return path
