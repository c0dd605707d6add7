"""Every file sislab writes or reads, by name and format.

A run directory holds profiles.csv, diagnostics.csv, run.json and an
optional <kind>.svg; a sweep directory holds sweep.csv and an optional
sweep.svg.  Only profiles.csv, and the model that run.json names, are ever
read back.

Numbers are written with repr(), the shortest decimal that round-trips to
the same float, so re-parsing a profile file reproduces the state bit for
bit and identical configurations produce byte-identical output.  An absent
value is an empty cell; a text cell is quoted as ``csv`` quotes minimally.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np

from .diagnostics import DiagnosticsRecord
from .mesh import Field
from .models import State, Trajectory

_PROFILES = "profiles.csv"
_SUMMARY = "run.json"
_DIAGNOSTICS_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _text(value: str | None) -> str:
    """A text cell, quoted (its quotes doubled) if it holds , " or a line break."""
    if value is None:
        return ""
    if any(ch in value for ch in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


def emit_csv(traj: Trajectory, out_dir) -> tuple[Path, Path]:
    """Write profiles.csv (t, x, S, I) and diagnostics.csv; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    profiles = out / _PROFILES
    diagnostics = out / "diagnostics.csv"

    # x is formatted once per file and each snapshot is written at once;
    # tolist() gives Python floats, whose repr is _fmt's
    xs = [repr(x) for x in traj.spec.grid.nodes.tolist()]
    with profiles.open("w") as fh:
        fh.write("t,x,S,I\n")
        for snap in traj.snapshots:
            t = _fmt(snap.t)
            fh.write("".join([f"{t},{x},{s!r},{i!r}\n" for x, s, i in
                              zip(xs, snap.S.values.tolist(), snap.I.values.tolist())]))

    with diagnostics.open("w") as fh:
        fh.write(",".join(_DIAGNOSTICS_COLUMNS) + "\n")
        for rec in traj.diagnostics:
            fh.write(",".join(_fmt(getattr(rec, col)) for col in _DIAGNOSTICS_COLUMNS) + "\n")
    return profiles, diagnostics


def emit_run(traj: Trajectory, out_dir, preset: str | None, svg: str | None = None,
             error: str | None = None) -> tuple[Path, Path]:
    """Write a run directory: ``emit_csv``'s files, run.json (naming the
    ``error`` that ended a failed run) and the plot ``<svg>.svg`` if asked."""
    paths = emit_csv(traj, out_dir)
    summary = {
        "preset": preset,
        "model": traj.spec.variant.value,
        "N": traj.N,
        "final_time": traj.final.t,
        "steady_detected": traj.steady_detected,
        "snapshots": len(traj.snapshots),
        "warnings": traj.warnings,
    }
    if error is not None:
        summary["error"] = error
    out = Path(out_dir)
    (out / _SUMMARY).write_text(json.dumps(summary, indent=2) + "\n")
    if svg is not None:
        emit_svg(traj, out / f"{svg}.svg", svg)
    return paths


def emit_sweep(result, out_dir, svg: bool = False) -> Path:
    """Write a ``SweepResult`` as sweep.csv (parameter, observable, error)
    and, if ``svg``, its curve as sweep.svg; returns the table's path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    table = out / "sweep.csv"
    with table.open("w") as fh:
        fh.write(f"{result.parameter},{result.observable},error\n")
        for p in result.points:
            fh.write(f"{_fmt(p.parameter)},{_fmt(p.value)},{_text(p.error)}\n")
    if svg:
        emit_sweep_svg(result.points, out / "sweep.svg", knee=result.knee,
                       x_label=result.parameter, y_label=result.observable)
    return table


def read_run(spec, run_dir) -> Trajectory:
    """The trajectory of a run directory, rebuilt from its profiles.csv alone:
    it has no diagnostics, and every state has ``J = None`` (J is not written).

    A file without a snapshot, a row that is not four finite numbers, or a
    snapshot whose ``x`` column is not exactly ``spec``'s grid nodes raises
    ValueError naming the file (and the line)."""
    path = Path(run_dir) / _PROFILES
    rows = path.read_text().splitlines()
    if not rows or rows[0] != "t,x,S,I":
        raise ValueError(f"{path} is not a profiles.csv")
    if len(rows) == 1:
        raise ValueError(f"{path} holds no snapshot")
    values = []
    for lineno, line in enumerate(rows[1:], start=2):
        try:
            t, x, s, i = map(float, line.split(","))
        except ValueError:
            raise ValueError(f"{path}, line {lineno}: expected the four numbers "
                             f"t,x,S,I, got {line!r}") from None
        if not all(map(math.isfinite, (t, x, s, i))):
            raise ValueError(f"{path}, line {lineno}: a value is not finite in {line!r}")
        values.append((t, x, s, i))
    table = np.array(values)
    grid = spec.grid
    snapshots = []
    for t, x, s, i in (block.T for block in
                       np.split(table, np.flatnonzero(np.diff(table[:, 0])) + 1)):
        t = float(t[0])  # a numpy float would print as np.float64(...) below
        if not np.array_equal(x, grid.nodes):
            raise ValueError(f"{path}: the snapshot at t={t!r} is not on the "
                             f"configured grid of {grid.nx} nodes on [{grid.a!r}, {grid.b!r}]")
        snapshots.append(State(t, Field(grid, s), Field(grid, i), None))
    return Trajectory(spec=spec, snapshots=snapshots, diagnostics=[],
                      N=snapshots[0].total_mass())


def run_model(run_dir) -> str | None:
    """The model that a run directory's run.json names, or None when it has
    no run.json.  A run.json that is not a JSON object naming a model raises
    ValueError naming the file."""
    path = Path(run_dir) / _SUMMARY
    if not path.exists():
        return None
    try:
        model = json.loads(path.read_text())["model"]
    except (ValueError, KeyError, TypeError):
        model = None
    if not isinstance(model, str):
        raise ValueError(f"{path} is not a run.json that names a model")
    return model


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
    if y_hi - y_lo <= 1e-12 * max(abs(y_lo), abs(y_hi)):
        # constant to roundoff: one flat line, not roundoff at full height
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
    if kind == "final_profiles":
        final = traj.final
        xs = list(traj.spec.grid.nodes)
        series = [(xs, list(final.S.values), "#1f77b4", "S"),
                  (xs, list(final.I.values), "#d62728", "I")]
        doc = _svg_document(series, "x", "density",
                            f"final profiles at t={final.t:g}")
    else:
        column, label, y_label, title = {
            "mass_series": ("total_mass", "total mass", "mass", "total population"),
            "lyapunov_series": ("lyapunov", "V", "V", "energy functional")}[kind]
        pts = [(r.t, getattr(r, column)) for r in traj.diagnostics
               if getattr(r, column) is not None]
        if not pts:
            raise ValueError(f"no data for kind {kind!r}")
        series = [([p[0] for p in pts], [p[1] for p in pts], "#1f77b4", label)]
        doc = _svg_document(series, "t", y_label, title)
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
