"""Safe-zone maps: estimators plotted in (power ratio, normalized coupling).

Both map flavors share one coordinate system: x is the power ratio
ev2/ex2 (balance line at x = 1) and y the coupling normalized by the mse
(penalty level at y = 0.5).  The left map reads like an operating-point
chart: green safe band where the ratio stays at or below one, red forbidden
half-plane beyond it.  The right map adds the optimization geometry: the
penalty boundary, the singular corner (1, 0.5) where the two boundaries
meet, and the ideal path along y = 0 that a fitted scale walks, ending at
rho = exz²/(ex2·ez2) when a certified optimum is attached.

render_svg emits plain SVG 1.1 with no randomness, timestamps or external
references; identical datasets yield byte-identical documents.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .diagnostics import BALANCE_TOL, RegimeLabel, classify_powers, classify_regime, power_ratio
from .errors import EmptyInput, PowerTriadError
from .moments import MomentStats
from .scaling import ScalingCertificate, ScalingProblem
from .textio import dumps_stable, fmt_float

DATASET_CSV_HEADER = ("label", "power_ratio", "coupling_norm", "coupling_raw", "regime")

BALANCE_RATIO = 1.0
PENALTY_LEVEL = 0.5
# the axes reach this factor beyond the farthest point
AXIS_MARGIN = 1.15

# the SVG canvas in pixels, its colors and its text font
WIDTH, HEIGHT, MARGIN = 720, 540, 64.0
BACKGROUND, SAFE_FILL, FORBIDDEN_FILL, AXIS_COLOR = "#ffffff", "#c8e6c9", "#ffcdd2", "#333333"
BALANCE_COLOR, PENALTY_COLOR, SINGULARITY_COLOR = "#2e7d32", "#8b0000", "#d32f2f"
IDEAL_COLOR, POINT_FILL = "#1565c0", "#263238"
FONT = (("font-family", "sans-serif"), ("font-size", "12"))
_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;"})


@dataclass(frozen=True)
class MapPoint:
    """One estimator's position on the map.

    coupling_norm is NaN when the mse is exactly zero (an ideal estimate);
    such points are kept but marked undefined.
    """

    label: str
    power_ratio: float
    coupling_norm: float
    coupling_raw: float
    regime: RegimeLabel

    @property
    def coupling_norm_defined(self) -> bool:
        return not math.isnan(self.coupling_norm)


@dataclass(frozen=True)
class MapDataset:
    """Points of one map flavor; the ideal path runs from (0, 0) to (rho, 0)."""

    kind: str
    points: tuple[MapPoint, ...]
    rho: float


class DatasetFiles(NamedTuple):
    csv: str
    geometry: str


def _point(label: str, regime: RegimeLabel, ratio: float, coupling: float, mse: float) -> MapPoint:
    """An estimate's point at power ratio ``ratio``; its callers classify it before they form the
    ratio, so ex2 <= 0 raises ZeroSignalPower.

    A NaN norm (mse = 0) is the undefined point.  A point raises when its axis
    frame, AXIS_MARGIN·ratio or up to 2·AXIS_MARGIN·|norm|, overflows.
    """
    norm = coupling / mse if mse > 0.0 else math.nan
    if not math.isfinite(AXIS_MARGIN * ratio) or math.isinf(2.0 * (AXIS_MARGIN * norm)):
        raise PowerTriadError(f"map point {label!r} is off the map: "
                              f"power_ratio={ratio!r}, coupling_norm={norm!r}")
    return MapPoint(label=label, power_ratio=ratio, coupling_norm=norm,
                    coupling_raw=coupling, regime=regime)


def map_point(label: str, stats: MomentStats, balance_tol: float = BALANCE_TOL) -> MapPoint:
    """Place one finalized estimate on the map, in classify_regime's regime."""
    return _point(label, classify_regime(stats, balance_tol), power_ratio(stats), stats.coupling,
                  stats.mse)


def map_point_from_certificate(
    label: str,
    problem: ScalingProblem,
    certificate: ScalingCertificate,
    balance_tol: float = BALANCE_TOL,
) -> MapPoint:
    """Place a certified optimum; lands on the y = 0 ideal path."""
    regime = classify_powers(problem.ex2, certificate.power_at_star, balance_tol)
    return _point(label, regime, certificate.power_at_star / problem.ex2,
                  certificate.orthogonality_residual, certificate.mse_at_star)


def _build(kind: str, points, problem: Optional[ScalingProblem]) -> MapDataset:
    """A map of the points whose ideal path ends at rho = exz²/(ex2·ez2), 1 without a problem."""
    points = tuple(points)
    if not points:
        raise EmptyInput("a map needs at least one point")
    rho = 1.0
    if problem is not None and problem.ex2 > 0.0 and problem.ez2 > 0.0:
        rho = (problem.exz * problem.exz) / (problem.ex2 * problem.ez2)
    return MapDataset(kind=kind, points=points, rho=rho)


def build_left_map(points, problem: Optional[ScalingProblem] = None) -> MapDataset:
    """Operating-point chart: safe band versus forbidden half-plane."""
    return _build("left", points, problem)


def build_right_map(points, problem: Optional[ScalingProblem] = None) -> MapDataset:
    """Optimization-geometry chart: penalty line, singularity, ideal path."""
    return _build("right", points, problem)


def emit_dataset(dataset: MapDataset) -> DatasetFiles:
    """Serialize points as CSV plus a JSON geometry sidecar."""
    rows = [",".join(DATASET_CSV_HEADER)] + [
        ",".join((_field(p.label), fmt_float(p.power_ratio), fmt_float(p.coupling_norm),
                  fmt_float(p.coupling_raw), p.regime.value)) for p in dataset.points]
    sidecar = {
        "map": dataset.kind,
        "balance_line": {"axis": "power_ratio", "value": BALANCE_RATIO},
        "penalty_line": {"axis": "coupling_norm", "value": PENALTY_LEVEL},
        "singularity": [BALANCE_RATIO, PENALTY_LEVEL],
        "ideal_path": [[0.0, 0.0], [dataset.rho, 0.0]],
        "safe_region": {"axis": "power_ratio", "op": "<=", "bound": BALANCE_RATIO},
        "forbidden_region": {"axis": "power_ratio", "op": ">", "bound": BALANCE_RATIO},
    }
    return DatasetFiles(csv="\n".join(rows) + "\n", geometry=dumps_stable(sidecar) + "\n")


def _field(text: str) -> str:
    """A dataset CSV field, quoted with its quotes doubled if it holds a comma, a quote, CR or
    LF: RFC 4180's rule, which csv.writer follows for a lone CR only from Python 3.13 on."""
    if len(text) > (limit := csv.field_size_limit()):  # csv.reader could not read it back
        raise PowerTriadError(f"map label longer than the CSV field limit of {limit} characters")
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def parse_dataset_csv(text: str) -> tuple[MapPoint, ...]:
    """Inverse of emit_dataset's CSV half; exact on 17-digit decimal text.  Raises ValueError
    for any text it cannot read."""
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise ValueError(f"unreadable dataset text: {exc}") from None
    if not rows:
        raise ValueError("empty dataset text")
    if tuple(rows[0]) != DATASET_CSV_HEADER:
        raise ValueError(f"unexpected dataset header {tuple(rows[0])!r}")
    points = []
    for row in rows[1:]:
        if not row:
            continue
        if len(row) != 5:
            raise ValueError(f"expected 5 columns, got {row!r}")
        points.append(
            MapPoint(
                label=row[0],
                power_ratio=float(row[1]),
                coupling_norm=float(row[2]),
                coupling_raw=float(row[3]),
                regime=RegimeLabel(row[4]),
            )
        )
    return tuple(points)


def _tick_step(span: float) -> float:
    raw = span / 5.0
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0):
        if raw <= mult * magnitude:
            return mult * magnitude
    return 10.0 * magnitude


def _ticks(lo: float, hi: float) -> list[float]:
    step = _tick_step(hi - lo)
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    value = first
    while math.isfinite(value) and value <= hi + 1e-9 * (hi - lo):
        ticks.append(0.0 if abs(value) < 1e-12 else value)
        value += step
    return ticks


def _px(v: float) -> str:
    return f"{v:.2f}"


def _escape(text: str) -> str:
    # xml.sax.saxutils.escape without its urllib import, and CR as &#13; (a reader reads a raw CR
    # as LF); it refuses what XML 1.0 cannot write: C0 but tab, LF, CR, surrogates, U+FFFE/FFFF
    if re.search(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]", text):
        raise PowerTriadError(f"SVG text {text!r} holds a character XML 1.0 cannot write")
    return text.translate(_XML_ESCAPES)


def _tag(name: str, cls: str, *attrs: tuple[str, object], text: Optional[str] = None) -> str:
    """One element: the class, then the attributes in order with floats in pixels;
    self-closing unless it has text."""
    head = f'<{name} class="{cls}"' + "".join(
        f' {key}="{_px(value) if isinstance(value, float) else value}"' for key, value in attrs)
    return f"{head}/>" if text is None else f"{head}>{_escape(text)}</{name}>"


def _line(cls: str, x1: float, y1: float, x2: float, y2: float, stroke: str = AXIS_COLOR,
          width: str = "1", *extra: tuple[str, object]) -> str:
    return _tag("line", cls, ("x1", x1), ("y1", y1), ("x2", x2), ("y2", y2),
                ("stroke", stroke), ("stroke-width", width), *extra)


def _text(cls: str, x: float, y: float, text: str, *extra: tuple[str, object],
          fill: str = AXIS_COLOR) -> str:
    return _tag("text", cls, ("x", x), ("y", y), *FONT, ("fill", fill), *extra, text=text)


def render_svg(dataset: MapDataset) -> str:
    """Render the dataset as a self-contained, deterministic SVG document."""
    ys = [AXIS_MARGIN * p.coupling_norm for p in dataset.points if p.coupling_norm_defined]
    x_lo = 0.0
    x_hi = max(1.5, AXIS_MARGIN * max((p.power_ratio for p in dataset.points), default=0.0))
    y_lo, y_hi = min([-0.25, *ys]), max([1.0, *ys])
    w, h, m = float(WIDTH), float(HEIGHT), MARGIN

    def sx(v: float) -> float:
        return m + (v - x_lo) / (x_hi - x_lo) * (w - 2.0 * m)

    def sy(v: float) -> float:
        return h - m - (v - y_lo) / (y_hi - y_lo) * (h - 2.0 * m)

    left, right, bottom, top, balance = sx(x_lo), sx(x_hi), sy(y_lo), sy(y_hi), sx(BALANCE_RATIO)
    if dataset.kind == "left":
        title, safe_top, safe_bottom, path, marks = "Power-regime map", top, bottom, [], []
    else:
        # the right map bounds the safe area by the penalty level as well, draws the
        # ideal path under the balance line and the penalty line and singularity over it
        title, safe_top, safe_bottom = "Scaling-geometry map", sy(PENALTY_LEVEL), sy(0.0)
        path = [_line("path ideal-path", left, safe_bottom, sx(dataset.rho), safe_bottom,
                      IDEAL_COLOR, "3")]
        marks = [_line("boundary penalty-line", left, safe_top, right, safe_top, PENALTY_COLOR,
                       "1.5", ("stroke-dasharray", "6 4")),
                 _tag("circle", "marker singularity", ("cx", balance), ("cy", safe_top),
                      ("r", 5), ("fill", SINGULARITY_COLOR))]
    middle = ("text-anchor", "middle")
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f"<title>{title}</title>",
        _tag("rect", "background", ("x", 0), ("y", 0), ("width", WIDTH), ("height", HEIGHT),
             ("fill", BACKGROUND)),
        # regions: green safe area, red forbidden half-plane beyond the balance line
        _tag("rect", "region region-safe", ("x", left), ("y", safe_top), ("width", balance - left),
             ("height", safe_bottom - safe_top), ("fill", SAFE_FILL)),
        _tag("rect", "region region-forbidden", ("x", balance), ("y", top),
             ("width", right - balance), ("height", bottom - top), ("fill", FORBIDDEN_FILL)),
        *path,
        _line("boundary balance-line", balance, bottom, balance, top, BALANCE_COLOR, "1.5"),
        *marks,
        _line("axis", left, bottom, right, bottom),
        _line("axis", left, bottom, left, top),
    ]
    for tick in _ticks(x_lo, x_hi):
        out += [_line("tick", sx(tick), bottom, sx(tick), bottom + 5),
                _text("tick-label", sx(tick), bottom + 18, f"{tick:g}", middle)]
    for tick in _ticks(y_lo, y_hi):
        out += [_line("tick", left - 5, sy(tick), left, sy(tick)),
                _text("tick-label", left - 8, sy(tick) + 4, f"{tick:g}", ("text-anchor", "end"))]
    mid_y = (bottom + top) / 2
    out += [
        _text("axis-label", (left + right) / 2, h - 16, "power ratio (estimate / signal)", middle),
        _text("axis-label", 18, mid_y, "coupling / mse", middle,
              ("transform", f"rotate(-90 18 {_px(mid_y)})")),
        _text("map-title", w / 2, m - 20, title, middle, ("font-weight", "bold")),
    ]
    for p in dataset.points:
        cx, cy = sx(p.power_ratio), sy(p.coupling_norm if p.coupling_norm_defined else 0.0)
        cls, paint = "", [("fill", POINT_FILL)]
        if not p.coupling_norm_defined:
            cls, paint = " point-undefined", [("fill", "none"), ("stroke", POINT_FILL),
                                              ("stroke-width", "1.5"), ("stroke-dasharray", "2 2")]
        out += [_tag("circle", f"point regime-{p.regime.value}{cls}", ("cx", cx), ("cy", cy),
                     ("r", 4), *paint),
                _text("point-label", cx + 7, cy - 7, p.label, fill=POINT_FILL)]
    out.append("</svg>")
    return "\n".join(out) + "\n"
