"""SVG line charts: degenerate ranges still give a well-formed chart."""

import xml.etree.ElementTree as ET

import pytest

from probin.svgfig import line_chart

_NS = "{http://www.w3.org/2000/svg}"


@pytest.mark.parametrize("xs,ys", [
    ([2.0, 2.0, 2.0], [1.0, 3.0, 2.0]),  # every x equal
    ([0.0, 1.0, 2.0], [5.0, 5.0, 5.0]),  # every y equal
], ids=["equal_x", "equal_y"])
def test_degenerate_range_writes_parsable_svg(tmp_path, xs, ys):
    path = tmp_path / "chart.svg"
    line_chart([(xs, ys, "series")], path, title="t", xlabel="x", ylabel="y")
    root = ET.parse(path).getroot()
    assert root.tag == _NS + "svg"
    points = [tuple(map(float, pt.split(",")))
              for pt in root.find(_NS + "polyline").get("points").split()]
    assert len(points) == 3
    assert all(70.0 <= px <= 700.0 and 36.0 <= py <= 428.0 for px, py in points)
