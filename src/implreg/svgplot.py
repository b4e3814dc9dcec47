"""Self-contained SVG charts from run CSVs.

Two styles:

- ``loss-vs-entry``: |free entry| (the ``w11`` or ``unobs_i_j``
  column) against loss on a descending log axis, one polyline per
  input CSV, with markers colored by iteration so the time course
  stays visible.
- ``sweep``: reconstruction error and estimated rank against the
  observation count, median lines with interquartile bands, built from
  the aggregate rows of a sweep CSV.

Output is plain SVG 1.1 with no external assets.
"""

from __future__ import annotations

import math
from itertools import chain
from pathlib import Path
from typing import Sequence

__all__ = ["SchemaError", "emit_plot"]

_WIDTH = 640
_HEIGHT = 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 20, 34, 48
_TICKS = 6  # ticks on a linear axis
_LOG_FLOOR = 1e-8  # a log y axis draws any smaller value here

_SERIES_COLORS = ["#1f6fb2", "#c94f2a", "#3d8c4f", "#7b4fa6", "#b08a1e", "#3a3a3a"]

# five-stop ramp from deep blue to warm yellow for iteration encoding
_RAMP = [(68, 1, 84), (59, 82, 139), (33, 145, 140), (94, 201, 98), (253, 231, 37)]


class SchemaError(ValueError):
    """An input CSV lacks a column the requested style needs, quotes a
    field, or holds a non-number or non-finite cell where one is needed."""


def _ramp_color(f: float) -> str:
    f = min(max(f, 0.0), 1.0)
    pos = f * (len(_RAMP) - 1)
    i = min(int(pos), len(_RAMP) - 2)
    w = pos - i
    rgb = [round(a + (b - a) * w) for a, b in zip(_RAMP[i], _RAMP[i + 1])]
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


def _read_rows(path: str | Path, cols: Sequence[str]) -> tuple[list[str], list[list[str]]]:
    """Header and non-blank rows of a CSV, split on commas; a column in
    ``cols`` that the header lacks is a SchemaError unless there are no
    rows.  The run and sweep CSVs never quote a field (``write_csv``
    refuses to), so a file holding a quote is a SchemaError too."""
    text = Path(path).read_text()
    if '"' in text:
        raise SchemaError(f"quoted field in {path}: plot inputs are unquoted CSVs")
    header, *rows = [line.split(",") for line in text.split("\n") if line] or [[]]
    missing = [c for c in cols if c not in header]
    if rows and missing:
        raise SchemaError(f"missing column '{missing[0]}' in {path}")
    return header, rows


def _bad_cell(path, header, rows, cols, empty_ok=False) -> SchemaError | None:
    """The error for the first cell of ``cols`` that is not a finite
    number (an empty cell counts as one when ``empty_ok``), or None."""
    at = [(c, header.index(c)) for c in cols if c in header]
    for k, row in enumerate(rows, start=1):
        for c, i in at:
            if i >= len(row):
                return SchemaError(f"row {k} of {path} has {len(row)} fields, its header {len(header)}")
            if row[i] == "" and empty_ok:
                continue
            try:
                v = float(row[i])
            except ValueError:
                return SchemaError(f"non-numeric value {row[i]!r} in column '{c}', row {k} of {path}")
            if not math.isfinite(v):
                return SchemaError(f"non-finite value {row[i]!r} in column '{c}', row {k} of {path}")
    return None


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _Canvas:
    def __init__(self, width=_WIDTH):
        self.width = width
        self.parts: list[str] = []

    def line(self, x1, y1, x2, y2):
        self.parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            'stroke="#444" stroke-width="1.0"/>'
        )

    def polyline(self, pts, color, width=1.4):
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
        self.parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="{width}" '
            f'stroke-opacity="1.0" points="{coords}"/>'
        )

    def polygon(self, pts, color):
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
        self.parts.append(f'<polygon fill="{color}" fill-opacity="0.18" stroke="none" points="{coords}"/>')

    def circle(self, x, y, r, color):
        self.parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r:.2f}" fill="{color}"/>')

    def text(self, x, y, s, size=11, anchor="start", color="#222", rotate=None):
        extra = f' transform="rotate({rotate} {x:.2f} {y:.2f})"' if rotate is not None else ""
        self.parts.append(
            f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size}" font-family="sans-serif" '
            f'text-anchor="{anchor}" fill="{color}"{extra}>{_esc(s)}</text>'
        )

    def render(self) -> str:
        body = "\n".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{self.width}" height="{_HEIGHT}" '
            f'viewBox="0 0 {self.width} {_HEIGHT}">\n'
            f'<rect width="{self.width}" height="{_HEIGHT}" fill="white"/>\n'
            f"{body}\n</svg>\n"
        )


class _Axes:
    """Maps data coordinates onto one plot panel.  A log axis draws a
    tick per power of ten, and its y maps a value below ``_LOG_FLOOR``
    to the floor; a linear axis draws ``_TICKS`` evenly spaced ticks."""

    def __init__(self, x0, y0, x1, y1, xlim, ylim, xlog=False, ylog=False, xflip=False):
        self.x0, self.y0, self.x1, self.y1 = x0, y0, x1, y1
        self.xlog, self.ylog, self.xflip = xlog, ylog, xflip
        self.xa, self.xb = self._pad(*xlim, xlog)
        self.ya, self.yb = self._pad(*ylim, ylog)

    @staticmethod
    def _pad(lo, hi, log):
        if log:
            lo, hi = math.log10(lo), math.log10(hi)
        if lo == hi:
            lo, hi = lo - 1.0, hi + 1.0
        span = hi - lo
        return lo - 0.04 * span, hi + 0.04 * span

    @staticmethod
    def _ticks(a, b, log, fmt):
        """(value, label) of each tick over the padded range [a, b]."""
        if log:
            return [(10.0**k, f"1e{k}") for k in range(math.ceil(a), math.floor(b) + 1)]
        return [(v, fmt(v)) for v in (a + (b - a) * i / (_TICKS - 1) for i in range(_TICKS))]

    def x(self, v) -> float:
        t = (math.log10(v) if self.xlog else v)
        f = (t - self.xa) / (self.xb - self.xa)
        if self.xflip:
            f = 1.0 - f
        return self.x0 + f * (self.x1 - self.x0)

    def y(self, v, floor=_LOG_FLOOR) -> float:
        t = (math.log10(max(v, floor)) if self.ylog else v)
        f = (t - self.ya) / (self.yb - self.ya)
        return self.y1 - f * (self.y1 - self.y0)

    def frame(self, canvas: _Canvas, xlabel: str, ylabel: str):
        """The axis lines, their labels, then the x and the y ticks."""
        canvas.line(self.x0, self.y1, self.x1, self.y1)
        canvas.line(self.x0, self.y0, self.x0, self.y1)
        canvas.text((self.x0 + self.x1) / 2, self.y1 + 34, xlabel, anchor="middle")
        canvas.text(self.x0 - 44, (self.y0 + self.y1) / 2, ylabel, anchor="middle", rotate=-90)
        for v, label in self._ticks(self.xa, self.xb, self.xlog, lambda v: f"{v:g}" if abs(v) < 1e4 else f"{v:.1e}"):
            px = self.x(v)
            canvas.line(px, self.y1, px, self.y1 + 4)
            canvas.text(px, self.y1 + 16, label, anchor="middle", size=10)
        for v, label in self._ticks(self.ya, self.yb, self.ylog, lambda v: f"{v:.3g}"):
            py = self.y(v, floor=0.0)  # a tick below the floor keeps its place
            canvas.line(self.x0 - 4, py, self.x0, py)
            canvas.text(self.x0 - 7, py + 4, label, anchor="end", size=10)


def _decimate(seq, cap):
    if len(seq) <= cap:
        return list(seq)
    step = len(seq) / cap
    return [seq[min(int(i * step), len(seq) - 1)] for i in range(cap)] + [seq[-1]]


def _plot_loss_vs_entry(csv_paths, out_path, title):
    canvas = _Canvas()
    runs = []
    for p in csv_paths:
        header, rows = _read_rows(p, ["iter", "loss"])
        # the free entry: w11, or unobs_i_j where a task leaves another entry free
        entry = next((c for c in header if c.startswith("unobs_")), "w11")
        if rows and entry not in header:
            raise SchemaError(f"missing column '{entry}' in {p}")
        cols = ("iter", "loss", entry)
        it, lo, w = (header.index(c) if rows else 0 for c in cols)
        try:
            pts = [(float(r[lo]), abs(float(r[w])), float(r[it])) for r in rows]
        except (ValueError, IndexError):
            raise _bad_cell(p, header, rows, cols) from None
        # a sum is finite when every term is; when it is not, the cell scan tells
        if not math.isfinite(sum(chain.from_iterable(pts))) and (bad := _bad_cell(p, header, rows, cols)):
            raise bad
        pts = [pt for pt in pts if pt[0] > 0]
        runs.append((Path(p).stem, pts))

    all_pts = [pt for _, pts in runs for pt in pts]
    if all_pts:
        xlim = (min(p[0] for p in all_pts), max(p[0] for p in all_pts))
        ylim = (0.0, max(p[1] for p in all_pts))
    else:
        xlim, ylim = (1e-4, 1.0), (0.0, 1.0)
    ax = _Axes(_MARGIN_L, _MARGIN_T, _WIDTH - _MARGIN_R, _HEIGHT - _MARGIN_B, xlim, ylim, xlog=True, xflip=True)
    ax.frame(canvas, "loss (log, descending)", "|unobserved entry|")
    if title:
        canvas.text(_WIDTH / 2, 20, title, anchor="middle", size=13)

    for k, (label, pts) in enumerate(runs):
        color = _SERIES_COLORS[k % len(_SERIES_COLORS)]
        if pts:
            canvas.polyline([(ax.x(lo), ax.y(w)) for lo, w, _ in _decimate(pts, 1500)], color)
            max_it = max(pt[2] for pt in pts) or 1.0
            for lo, w, it in _decimate(pts, 120):
                canvas.circle(ax.x(lo), ax.y(w), 2.0, _ramp_color(it / max_it))
        canvas.text(_WIDTH - _MARGIN_R - 6, _MARGIN_T + 14 + 14 * k, label, anchor="end", color=color, size=10)

    Path(out_path).write_text(canvas.render())


def _series_key(row):
    return (row.get("method", ""), row.get("init_std", ""))


# the sweep CSV columns the plot reads as numbers; empty where not computed
_SWEEP_NUMBERS = ("n_obs", "recon_error", "est_rank", "recon_error_q25", "recon_error_q75", "est_rank_q25", "est_rank_q75")


def _plot_sweep(csv_paths, out_path, title):
    rows = []
    for p in csv_paths:
        header, rs = _read_rows(p, ["row", "method", "n_obs", "init_std", "recon_error", "est_rank"])
        if bad := _bad_cell(p, header, rs, _SWEEP_NUMBERS, empty_ok=True):
            raise bad
        rows.extend(dict(zip(header, r)) for r in rs)
    agg = [r for r in rows if r["row"] == "median_iqr"]

    canvas = _Canvas(width=_WIDTH + 320)
    mid = canvas.width // 2
    panels = []
    for (x0, x1, field, qlo, qhi, ylabel, ylog) in (
        (_MARGIN_L, mid - 24, "recon_error", "recon_error_q25", "recon_error_q75", "reconstruction error", True),
        (mid + _MARGIN_L, canvas.width - _MARGIN_R, "est_rank", "est_rank_q25", "est_rank_q75", "estimated rank", False),
    ):
        vals = [float(r[field]) for r in agg if r[field] != ""]
        his = [float(r[qhi]) for r in agg if r.get(qhi, "") != ""]
        los = [float(r[qlo]) for r in agg if r.get(qlo, "") != ""]
        xs = [float(r["n_obs"]) for r in agg]
        if not xs:
            xs, vals = [0.0, 1.0], [1.0]
        ylo = min(los + vals) if vals else 0.1
        yhi = max(his + vals) if vals else 1.0
        if ylog:
            ylo = max(ylo, _LOG_FLOOR)
            yhi = max(yhi, ylo * 10)
        ax = _Axes(x0, _MARGIN_T, x1, _HEIGHT - _MARGIN_B, (min(xs), max(xs)), (ylo, yhi), ylog=ylog)
        ax.frame(canvas, "observations", ylabel)
        panels.append((ax, field, qlo, qhi))

    series = sorted({_series_key(r) for r in agg})
    for k, key in enumerate(series):
        color = _SERIES_COLORS[k % len(_SERIES_COLORS)]
        srows = sorted((r for r in agg if _series_key(r) == key), key=lambda r: float(r["n_obs"]))
        for ax, field, qlo, qhi in panels:
            pts = [(float(r["n_obs"]), float(r[field])) for r in srows if r[field] != ""]
            band = [
                (float(r["n_obs"]), float(r[qlo]), float(r[qhi]))
                for r in srows
                if r.get(qlo, "") != "" and r.get(qhi, "") != ""
            ]
            if band:
                upper = [(ax.x(x), ax.y(hi)) for x, _, hi in band]
                lower = [(ax.x(x), ax.y(lo)) for x, lo, _ in reversed(band)]
                canvas.polygon(upper + lower, color)
            if pts:
                canvas.polyline([(ax.x(x), ax.y(v)) for x, v in pts], color, width=1.6)
                for x, v in pts:
                    canvas.circle(ax.x(x), ax.y(v), 2.4, color)
        label = " ".join(s for s in key if s)
        canvas.text(mid - 30, _MARGIN_T + 14 + 14 * k, label or "series", anchor="end", color=color, size=10)
    if title:
        canvas.text(canvas.width / 2, 20, title, anchor="middle", size=13)
    Path(out_path).write_text(canvas.render())


def emit_plot(csv_paths: Sequence[str | Path], style: str, out_path: str | Path, title: str | None = None) -> Path:
    """Render the named style from one or more CSVs to ``out_path``.

    Raises :class:`SchemaError` if an input lacks a required column,
    quotes a field, or holds a cell that is not a finite number where a
    number is plotted; nothing is written then.  An empty trajectory still
    yields a valid SVG with axes.
    """
    if style == "loss-vs-entry":
        _plot_loss_vs_entry([str(p) for p in csv_paths], out_path, title)
    elif style == "sweep":
        _plot_sweep([str(p) for p in csv_paths], out_path, title)
    else:
        raise ValueError(f"unknown plot style {style!r}")
    return Path(out_path)
