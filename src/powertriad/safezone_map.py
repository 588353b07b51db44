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
from dataclasses import dataclass
from typing import NamedTuple, Optional
from xml.sax.saxutils import escape

from .diagnostics import BALANCE_TOL, RegimeLabel, classify_powers, classify_regime
from .errors import EmptyInput
from .moments import MomentStats
from .scaling import ScalingCertificate, ScalingProblem
from .textio import dumps_stable, fmt_float

DATASET_CSV_HEADER = ("label", "power_ratio", "coupling_norm", "coupling_raw", "regime")

BALANCE_RATIO = 1.0
PENALTY_LEVEL = 0.5

# the SVG canvas in pixels, its colors and its text font
WIDTH, HEIGHT, MARGIN = 720, 540, 64.0
BACKGROUND, SAFE_FILL, FORBIDDEN_FILL, AXIS_COLOR = "#ffffff", "#c8e6c9", "#ffcdd2", "#333333"
BALANCE_COLOR, PENALTY_COLOR, SINGULARITY_COLOR = "#2e7d32", "#8b0000", "#d32f2f"
IDEAL_COLOR, POINT_FILL = "#1565c0", "#263238"
FONT = 'font-family="sans-serif" font-size="12"'


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


def map_point(label: str, stats: MomentStats, balance_tol: float = BALANCE_TOL) -> MapPoint:
    """Place one finalized estimate on the map."""
    regime = classify_regime(stats, balance_tol)
    norm = stats.coupling / stats.mse if stats.mse > 0.0 else math.nan
    return MapPoint(
        label=label,
        power_ratio=stats.ev2 / stats.ex2,
        coupling_norm=norm,
        coupling_raw=stats.coupling,
        regime=regime,
    )


def map_point_from_certificate(
    label: str,
    problem: ScalingProblem,
    certificate: ScalingCertificate,
    balance_tol: float = BALANCE_TOL,
) -> MapPoint:
    """Place a certified optimum; lands on the y = 0 ideal path."""
    regime = classify_powers(problem.ex2, certificate.power_at_star, balance_tol)
    mse = certificate.mse_at_star
    norm = certificate.orthogonality_residual / mse if mse > 0.0 else math.nan
    return MapPoint(
        label=label,
        power_ratio=certificate.power_at_star / problem.ex2,
        coupling_norm=norm,
        coupling_raw=certificate.orthogonality_residual,
        regime=regime,
    )


def region_of(point: MapPoint, balance_tol: float = BALANCE_TOL) -> str:
    """Region membership under the same tolerance the regimes use."""
    if point.power_ratio > BALANCE_RATIO * (1.0 + balance_tol):
        return "forbidden"
    return "safe"


def _rho(problem: Optional[ScalingProblem]) -> float:
    """Squared correlation exz²/(ex2·ez2), the ideal path's end; 1 without a problem."""
    if problem is not None and problem.ex2 > 0.0 and problem.ez2 > 0.0:
        return (problem.exz * problem.exz) / (problem.ex2 * problem.ez2)
    return 1.0


def build_left_map(points, problem: Optional[ScalingProblem] = None) -> MapDataset:
    """Operating-point chart: safe band versus forbidden half-plane."""
    points = tuple(points)
    if not points:
        raise EmptyInput("a map needs at least one point")
    return MapDataset(kind="left", points=points, rho=_rho(problem))


def build_right_map(points, problem: Optional[ScalingProblem] = None) -> MapDataset:
    """Optimization-geometry chart: penalty line, singularity, ideal path."""
    points = tuple(points)
    if not points:
        raise EmptyInput("a map needs at least one point")
    return MapDataset(kind="right", points=points, rho=_rho(problem))


def emit_dataset(dataset: MapDataset) -> DatasetFiles:
    """Serialize points as CSV plus a JSON geometry sidecar."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(DATASET_CSV_HEADER)
    for p in dataset.points:
        writer.writerow(
            (
                p.label,
                fmt_float(p.power_ratio),
                fmt_float(p.coupling_norm),
                fmt_float(p.coupling_raw),
                p.regime.value,
            )
        )
    sidecar = {
        "map": dataset.kind,
        "balance_line": {"axis": "power_ratio", "value": BALANCE_RATIO},
        "penalty_line": {"axis": "coupling_norm", "value": PENALTY_LEVEL},
        "singularity": [BALANCE_RATIO, PENALTY_LEVEL],
        "ideal_path": [[0.0, 0.0], [dataset.rho, 0.0]],
        "safe_region": {"axis": "power_ratio", "op": "<=", "bound": BALANCE_RATIO},
        "forbidden_region": {"axis": "power_ratio", "op": ">", "bound": BALANCE_RATIO},
    }
    return DatasetFiles(csv=buf.getvalue(), geometry=dumps_stable(sidecar) + "\n")


def parse_dataset_csv(text: str) -> tuple[MapPoint, ...]:
    """Inverse of emit_dataset's CSV half; exact on 17-digit decimal text."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = tuple(next(reader))
    except StopIteration:
        raise ValueError("empty dataset text") from None
    if header != DATASET_CSV_HEADER:
        raise ValueError(f"unexpected dataset header {header!r}")
    points = []
    for row in reader:
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
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * magnitude:
            return mult * magnitude
    return 10.0 * magnitude


def _ticks(lo: float, hi: float) -> list[float]:
    step = _tick_step(hi - lo)
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    value = first
    while value <= hi + 1e-9 * (hi - lo):
        ticks.append(0.0 if abs(value) < 1e-12 else value)
        value += step
    return ticks


def _px(v: float) -> str:
    return f"{v:.2f}"


def render_svg(dataset: MapDataset) -> str:
    """Render the dataset as a self-contained, deterministic SVG document."""
    finite_x = [p.power_ratio for p in dataset.points]
    finite_y = [p.coupling_norm for p in dataset.points if p.coupling_norm_defined]
    x_hi = max(1.5, 1.15 * max(finite_x)) if finite_x else 1.5
    y_hi = max(1.0, *(1.15 * y for y in finite_y)) if finite_y else 1.0
    y_lo = min(-0.25, *(1.15 * y for y in finite_y)) if finite_y else -0.25
    x_lo = 0.0

    w, h, m = float(WIDTH), float(HEIGHT), MARGIN

    def sx(v: float) -> float:
        return m + (v - x_lo) / (x_hi - x_lo) * (w - 2.0 * m)

    def sy(v: float) -> float:
        return h - m - (v - y_lo) / (y_hi - y_lo) * (h - 2.0 * m)

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    title = "Power-regime map" if dataset.kind == "left" else "Scaling-geometry map"
    out.append(f"<title>{escape(title)}</title>")
    out.append(
        f'<rect class="background" x="0" y="0" width="{WIDTH}" '
        f'height="{HEIGHT}" fill="{BACKGROUND}"/>'
    )

    # regions: green safe area, red forbidden half-plane beyond the balance line
    if dataset.kind == "left":
        safe_top, safe_bottom = sy(y_hi), sy(y_lo)
    else:
        # the right map bounds the safe area by the penalty level as well
        safe_top, safe_bottom = sy(PENALTY_LEVEL), sy(0.0)
    out.append(
        f'<rect class="region region-safe" x="{_px(sx(x_lo))}" y="{_px(safe_top)}" '
        f'width="{_px(sx(BALANCE_RATIO) - sx(x_lo))}" height="{_px(safe_bottom - safe_top)}" '
        f'fill="{SAFE_FILL}"/>'
    )
    out.append(
        f'<rect class="region region-forbidden" x="{_px(sx(BALANCE_RATIO))}" y="{_px(sy(y_hi))}" '
        f'width="{_px(sx(x_hi) - sx(BALANCE_RATIO))}" height="{_px(sy(y_lo) - sy(y_hi))}" '
        f'fill="{FORBIDDEN_FILL}"/>'
    )

    if dataset.kind == "right":
        out.append(
            f'<line class="path ideal-path" x1="{_px(sx(0.0))}" y1="{_px(sy(0.0))}" '
            f'x2="{_px(sx(dataset.rho))}" y2="{_px(sy(0.0))}" stroke="{IDEAL_COLOR}" '
            f'stroke-width="3"/>'
        )

    out.append(
        f'<line class="boundary balance-line" x1="{_px(sx(BALANCE_RATIO))}" '
        f'y1="{_px(sy(y_lo))}" x2="{_px(sx(BALANCE_RATIO))}" y2="{_px(sy(y_hi))}" '
        f'stroke="{BALANCE_COLOR}" stroke-width="1.5"/>'
    )
    if dataset.kind == "right":
        out.append(
            f'<line class="boundary penalty-line" x1="{_px(sx(x_lo))}" '
            f'y1="{_px(sy(PENALTY_LEVEL))}" x2="{_px(sx(x_hi))}" '
            f'y2="{_px(sy(PENALTY_LEVEL))}" stroke="{PENALTY_COLOR}" '
            f'stroke-width="1.5" stroke-dasharray="6 4"/>'
        )
        out.append(
            f'<circle class="marker singularity" cx="{_px(sx(BALANCE_RATIO))}" '
            f'cy="{_px(sy(PENALTY_LEVEL))}" r="5" fill="{SINGULARITY_COLOR}"/>'
        )

    # axes with ticks
    out.append(
        f'<line class="axis" x1="{_px(sx(x_lo))}" y1="{_px(sy(y_lo))}" x2="{_px(sx(x_hi))}" '
        f'y2="{_px(sy(y_lo))}" stroke="{AXIS_COLOR}" stroke-width="1"/>'
    )
    out.append(
        f'<line class="axis" x1="{_px(sx(x_lo))}" y1="{_px(sy(y_lo))}" x2="{_px(sx(x_lo))}" '
        f'y2="{_px(sy(y_hi))}" stroke="{AXIS_COLOR}" stroke-width="1"/>'
    )
    for tick in _ticks(x_lo, x_hi):
        out.append(
            f'<line class="tick" x1="{_px(sx(tick))}" y1="{_px(sy(y_lo))}" '
            f'x2="{_px(sx(tick))}" y2="{_px(sy(y_lo) + 5)}" stroke="{AXIS_COLOR}" '
            f'stroke-width="1"/>'
        )
        out.append(
            f'<text class="tick-label" x="{_px(sx(tick))}" y="{_px(sy(y_lo) + 18)}" '
            f'{FONT} fill="{AXIS_COLOR}" text-anchor="middle">{tick:g}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        out.append(
            f'<line class="tick" x1="{_px(sx(x_lo) - 5)}" y1="{_px(sy(tick))}" '
            f'x2="{_px(sx(x_lo))}" y2="{_px(sy(tick))}" stroke="{AXIS_COLOR}" '
            f'stroke-width="1"/>'
        )
        out.append(
            f'<text class="tick-label" x="{_px(sx(x_lo) - 8)}" y="{_px(sy(tick) + 4)}" '
            f'{FONT} fill="{AXIS_COLOR}" text-anchor="end">{tick:g}</text>'
        )
    out.append(
        f'<text class="axis-label" x="{_px((sx(x_lo) + sx(x_hi)) / 2)}" y="{_px(h - 16)}" '
        f'{FONT} fill="{AXIS_COLOR}" text-anchor="middle">power ratio '
        f"(estimate / signal)</text>"
    )
    out.append(
        f'<text class="axis-label" x="18" y="{_px((sy(y_lo) + sy(y_hi)) / 2)}" {FONT} '
        f'fill="{AXIS_COLOR}" text-anchor="middle" '
        f'transform="rotate(-90 18 {_px((sy(y_lo) + sy(y_hi)) / 2)})">coupling / mse</text>'
    )
    out.append(
        f'<text class="map-title" x="{_px(w / 2)}" y="{_px(m - 20)}" {FONT} '
        f'fill="{AXIS_COLOR}" text-anchor="middle" font-weight="bold">'
        f"{escape(title)}</text>"
    )

    for p in dataset.points:
        y = p.coupling_norm if p.coupling_norm_defined else 0.0
        cls = f"point regime-{p.regime.value}"
        if not p.coupling_norm_defined:
            cls += " point-undefined"
            marker = (
                f'<circle class="{cls}" cx="{_px(sx(p.power_ratio))}" cy="{_px(sy(y))}" '
                f'r="4" fill="none" stroke="{POINT_FILL}" stroke-width="1.5" '
                f'stroke-dasharray="2 2"/>'
            )
        else:
            marker = (
                f'<circle class="{cls}" cx="{_px(sx(p.power_ratio))}" cy="{_px(sy(y))}" '
                f'r="4" fill="{POINT_FILL}"/>'
            )
        out.append(marker)
        out.append(
            f'<text class="point-label" x="{_px(sx(p.power_ratio) + 7)}" '
            f'y="{_px(sy(y) - 7)}" {FONT} fill="{POINT_FILL}">{escape(p.label)}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
