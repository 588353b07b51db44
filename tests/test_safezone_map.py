"""Map coordinates, region geometry, dataset emission and SVG rendering."""

import hashlib
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from powertriad import (
    EmptyInput,
    MapPoint,
    MomentStats,
    PowerTriadError,
    RegimeLabel,
    SampleBatch,
    ScalingProblem,
    build_left_map,
    build_right_map,
    certify_optimum,
    emit_dataset,
    map_point,
    map_point_from_certificate,
    parse_dataset_csv,
    render_svg,
    stats_of,
)

REFERENCE_PROBLEM = ScalingProblem(ex2=1.0, ez2=2.0, exz=1.0)
DOUBLED = stats_of(SampleBatch([1.0, -1.0], [2.0, -2.0]))   # v = 2x
ZEROED = stats_of(SampleBatch([1.0, -1.0], [0.0, 0.0]))     # v = 0
PERFECT = stats_of(SampleBatch([1.0, -1.0], [1.0, -1.0]))   # v = x


def test_hand_computed_points():
    doubled = map_point("doubled", DOUBLED)
    assert doubled.power_ratio == 4.0
    assert doubled.coupling_norm == 2.0      # coupling 2 over mse 1
    assert doubled.coupling_raw == 2.0
    assert doubled.regime is RegimeLabel.POWER_DOMINANT

    zeroed = map_point("zeroed", ZEROED)
    assert zeroed.power_ratio == 0.0
    assert zeroed.coupling_norm == 0.0
    assert zeroed.regime is RegimeLabel.POWER_CONSERVATIVE


def test_certified_optimum_lands_on_ideal_path():
    point = map_point_from_certificate("optimum", REFERENCE_PROBLEM,
                                       certify_optimum(REFERENCE_PROBLEM))
    assert point.power_ratio == 0.5
    assert point.coupling_norm == 0.0
    assert point.regime is RegimeLabel.POWER_CONSERVATIVE


def test_perfect_estimate_has_undefined_norm():
    point = map_point("perfect", PERFECT)
    assert point.power_ratio == 1.0
    assert math.isnan(point.coupling_norm)
    assert not point.coupling_norm_defined
    assert point.coupling_raw == 0.0
    assert point.regime is RegimeLabel.POWER_BALANCE


@pytest.mark.parametrize("ex2, mse", [(1e-300, 1.0), (1.0, 1e-310)])
def test_a_coordinate_that_overflows_is_refused(ex2, mse):
    # ev2/ex2 overflows in the first case, coupling/mse in the second
    stats = MomentStats(n=2, ex2=ex2, ev2=1e10, exv=0.0, mean_e=0.0, mse=mse, coupling=1e10)
    with pytest.raises(PowerTriadError, match="map point 'huge' is off the map"):
        map_point("huge", stats)


def _largest(frame):
    """The largest double r with frame(r) finite, bisected between 1 and the float maximum."""
    lo, hi = 1.0, 1.7976931348623157e308
    while math.nextafter(lo, hi) < hi:
        mid = lo + (hi - lo) / 2.0
        if not lo < mid < hi:
            mid = math.nextafter(lo, hi)
        lo, hi = (mid, hi) if math.isfinite(frame(mid)) else (lo, mid)
    return lo


@pytest.mark.parametrize("ex2, ev2, coupling",
                         [(1e-300, 1.7e8, 1.0), (1.0, 1.0, 1e308), (1.0, 1.0, -1e308)])
def test_a_point_whose_axis_frame_overflows_is_refused(ex2, ev2, coupling):
    # 1.15 times the power ratio 1.7e308 overflows the x axis; twice 1.15 times
    # a norm of 1e308 overflows the y span between opposite points
    stats = MomentStats(n=2, ex2=ex2, ev2=ev2, exv=0.0, mean_e=0.0, mse=1.0, coupling=coupling)
    with pytest.raises(PowerTriadError, match="map point 'big' is off the map"):
        map_point("big", stats)


@pytest.mark.parametrize("build", [build_left_map, build_right_map])
def test_the_largest_accepted_coordinates_render(build):
    ratio, norm = _largest(lambda r: 1.15 * r), _largest(lambda r: 2.0 * (1.15 * r))
    points = [map_point(label, MomentStats(n=2, ex2=1.0, ev2=ev2, exv=0.0, mean_e=0.0,
                                           mse=1.0, coupling=coupling))
              for label, ev2, coupling in (("far", ratio, 0.0), ("up", 1.0, norm),
                                           ("down", 1.0, -norm))]
    assert [p.power_ratio for p in points] == [ratio, 1.0, 1.0]
    assert [p.coupling_norm for p in points] == [0.0, norm, -norm]
    ET.fromstring(render_svg(build(points, REFERENCE_PROBLEM)))
    # and one double further is refused
    up = math.inf
    for ev2, coupling in ((math.nextafter(ratio, up), 0.0), (1.0, math.nextafter(norm, up))):
        with pytest.raises(PowerTriadError, match="off the map"):
            map_point("over", MomentStats(n=2, ex2=1.0, ev2=ev2, exv=0.0, mean_e=0.0,
                                          mse=1.0, coupling=coupling))


def test_empty_maps_are_rejected():
    with pytest.raises(EmptyInput):
        build_left_map([])
    with pytest.raises(EmptyInput):
        build_right_map(())


def test_geometry_constants():
    dataset = build_right_map([map_point("z", ZEROED)], REFERENCE_PROBLEM)
    # ideal path ends at the squared correlation of the problem
    assert dataset.rho == 0.5
    g = json.loads(emit_dataset(dataset).geometry)
    assert g["balance_line"]["value"] == 1.0
    assert g["penalty_line"]["value"] == 0.5
    assert g["singularity"] == [1.0, 0.5]
    assert g["singularity"][0] == g["balance_line"]["value"]
    assert g["singularity"][1] == g["penalty_line"]["value"]
    assert g["ideal_path"] == [[0.0, 0.0], [0.5, 0.0]]
    bare = build_left_map([map_point("z", ZEROED)])
    assert bare.rho == 1.0
    g = json.loads(emit_dataset(bare).geometry)
    assert g["ideal_path"] == [[0.0, 0.0], [1.0, 0.0]]
    assert g["safe_region"]["op"] == "<=" and g["forbidden_region"]["op"] == ">"


def _amplifier_stats(c):
    # population moments of v = c*(x + noise), unit signal and unit noise
    return stats_of(SampleBatch([1.0, -1.0], [2.0 * c / 2.0, -2.0 * c / 2.0]))


def test_amplifier_family_exceeds_penalty_level():
    """Raw coupling grows with the gain; the normalized height stays above 1/2
    but is not monotone in the gain."""
    norms = []
    raws = []
    for c in (1.5, 2.0, 4.0):
        # closed-form moments: ex2=1, ev2=2c^2, exv=c
        mse = 2.0 * c * c - 2.0 * c + 1.0
        coupling = 2.0 * c * c - c
        norms.append(coupling / mse)
        raws.append(coupling)
    assert all(n > 0.5 for n in norms)
    assert norms[0] == pytest.approx(1.2)
    assert norms[1] == pytest.approx(1.2)
    assert norms[2] == pytest.approx(28.0 / 25.0)
    assert raws == sorted(raws) and raws[0] < raws[1] < raws[2]
    assert raws == [pytest.approx(v) for v in (3.0, 6.0, 28.0)]

    # brute-force confirmation from synthetic samples
    rng = np.random.default_rng(2024)
    x = rng.normal(0.0, 1.0, 200_000)
    noise = rng.normal(0.0, 1.0, 200_000)
    previous_raw = -math.inf
    for c in (1.5, 2.0, 4.0):
        point = map_point(f"amp{c:g}", stats_of(SampleBatch(x, c * (x + noise))))
        assert point.regime is RegimeLabel.POWER_DOMINANT
        assert point.coupling_norm > 0.5
        assert point.coupling_raw > previous_raw
        previous_raw = point.coupling_raw


def test_emit_dataset_layout():
    points = [map_point("doubled", DOUBLED), map_point("zeroed", ZEROED),
              map_point("perfect", PERFECT)]
    files = emit_dataset(build_left_map(points, REFERENCE_PROBLEM))
    lines = files.csv.strip().split("\n")
    assert lines[0] == "label,power_ratio,coupling_norm,coupling_raw,regime"
    assert len(lines) == 4
    assert lines[1].startswith("doubled,4,2,2,power_dominant")
    assert "nan" in lines[3]

    sidecar = json.loads(files.geometry)
    assert sidecar["singularity"] == [1.0, 0.5]
    assert sidecar["balance_line"] == {"axis": "power_ratio", "value": 1.0}
    assert sidecar["penalty_line"] == {"axis": "coupling_norm", "value": 0.5}
    assert sidecar["ideal_path"] == [[0.0, 0.0], [0.5, 0.0]]
    assert sidecar["map"] == "left"
    assert sidecar["safe_region"] == {"axis": "power_ratio", "op": "<=", "bound": 1.0}
    assert sidecar["forbidden_region"] == {"axis": "power_ratio", "op": ">", "bound": 1.0}


def test_parse_dataset_csv_refuses_text_emit_dataset_never_writes():
    header = emit_dataset(build_left_map((map_point("a", DOUBLED),))).csv.splitlines()[0]
    for text, message in (("", "^empty dataset text$"), ("label,x\n", "^unexpected dataset header"),
                          (header + "\na,1,0.5,2\n", "^expected 5 columns, got ")):
        with pytest.raises(ValueError, match=message):
            parse_dataset_csv(text)


def test_parse_dataset_csv_skips_a_blank_row():
    csv_text = emit_dataset(build_left_map((map_point("a", DOUBLED), map_point("c", ZEROED)))).csv
    header, first, rest = csv_text.split("\n", 2)
    assert parse_dataset_csv(f"{header}\n{first}\n\n{rest}") == parse_dataset_csv(csv_text)


def test_dataset_csv_round_trip():
    points = (map_point("a", DOUBLED), map_point("b", PERFECT),
              map_point("c", ZEROED))
    files = emit_dataset(build_left_map(points))
    back = parse_dataset_csv(files.csv)
    assert len(back) == 3
    for orig, parsed in zip(points, back):
        assert parsed.label == orig.label
        assert parsed.power_ratio == orig.power_ratio
        assert parsed.coupling_raw == orig.coupling_raw
        assert parsed.regime is orig.regime
        if orig.coupling_norm_defined:
            assert parsed.coupling_norm == orig.coupling_norm
        else:
            assert math.isnan(parsed.coupling_norm)


def test_render_is_deterministic():
    dataset = build_right_map(
        [map_point("doubled", DOUBLED), map_point("perfect", PERFECT)],
        REFERENCE_PROBLEM,
    )
    assert render_svg(dataset) == render_svg(dataset)
    again = build_right_map(
        [map_point("doubled", DOUBLED), map_point("perfect", PERFECT)],
        ScalingProblem(1.0, 2.0, 1.0),
    )
    assert render_svg(dataset) == render_svg(again)


# Four hand-placed points cover every marker the renderer draws: a dominant
# point, a conservative point below the penalty axis, a hollow point whose
# mse is zero, and a label that needs XML escaping.
GOLDEN_POINTS = (
    MapPoint("doubled", 4.0, 2.0, 2.0, RegimeLabel.POWER_DOMINANT),
    MapPoint("shrunk", 0.25, -0.75, -0.1875, RegimeLabel.POWER_CONSERVATIVE),
    MapPoint("perfect", 1.0, math.nan, 0.0, RegimeLabel.POWER_BALANCE),
    MapPoint("a<b & c>d", 0.5, 0.0, 0.0, RegimeLabel.POWER_CONSERVATIVE),
)


@pytest.mark.parametrize("build, length, digest", [
    (build_left_map, 4035,
     "6199ecf7ab4e5b317e0300d8544201b427a6a39433c45bf9ef4199a950f1e332"),
    (build_right_map, 4382,
     "007b967bf655357da962cee99e34377272dd04cc8443c1e1e446597198c1a988"),
])
def test_svg_bytes_are_pinned(build, length, digest):
    text = render_svg(build(GOLDEN_POINTS, REFERENCE_PROBLEM))
    assert len(text) == length
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert "a&lt;b &amp; c&gt;d" in text and "point-undefined" in text


def _svg_root(text):
    return ET.fromstring(text)


def test_svg_structure():
    points = [map_point("doubled", DOUBLED), map_point("zeroed", ZEROED),
              map_point('a<b&"c"', PERFECT)]
    left = render_svg(build_left_map(points, REFERENCE_PROBLEM))
    right = render_svg(build_right_map(points, REFERENCE_PROBLEM))
    assert left.startswith("<svg")
    ns = {"s": "http://www.w3.org/2000/svg"}

    for text, kind in ((left, "left"), (right, "right")):
        root = _svg_root(text)
        regions = root.findall(".//s:rect[@class]", ns)
        region_classes = [r.get("class") for r in regions
                          if "region" in (r.get("class") or "")]
        assert len(region_classes) == 2, kind
        assert any("region-safe" in c for c in region_classes)
        assert any("region-forbidden" in c for c in region_classes)
        circles = root.findall(".//s:circle", ns)
        point_circles = [c for c in circles if "point" in (c.get("class") or "")]
        assert len(point_circles) == 3, kind

    # escaping survives the round trip through the XML parser
    root = _svg_root(left)
    labels = [t.text for t in root.findall(".//s:text", ns)]
    assert 'a<b&"c"' in labels

    assert "balance-line" in left and "balance-line" in right
    assert "penalty-line" in right and "penalty-line" not in left
    assert "singularity" in right and "singularity" not in left
    assert "ideal-path" in right and "ideal-path" not in left


def test_svg_marks_balance_and_undefined_points():
    balanced = map_point("edge", PERFECT)    # ratio exactly 1, NaN norm
    text = render_svg(build_right_map([balanced], REFERENCE_PROBLEM))
    assert "regime-power_balance" in text
    assert "point-undefined" in text
