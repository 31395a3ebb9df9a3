"""SVG line charts: degenerate ranges still give a well-formed chart."""

import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

_NS = "{http://www.w3.org/2000/svg}"

# line_chart in a child under a 1 GiB address-space cap: a tick loop that
# never ends fails the test (MemoryError, or the timeout) instead of hanging it
_CHILD = """import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from probin.svgfig import line_chart
line_chart([(%r, %r, "series")], sys.argv[1], title="t", xlabel="x", ylabel="y")
"""


@pytest.mark.parametrize("xs,ys", [
    ([2.0, 2.0, 2.0], [1.0, 3.0, 2.0]),  # every x equal
    ([0.0, 1.0, 2.0], [5.0, 5.0, 5.0]),  # every y equal
    # spans a tick step could not cross: it moved no tick, so the tick
    # loop never ended, or it was 0 and log10 failed
    ([1.0, 1.0000000000000002], [1.0, 2.0]),  # one ulp
    ([0.0, 1.0], [4e15, 4e15]),  # every y equal where a step of 0.2 moves no float
    ([0.0, 5e-324], [1.0, 2.0]),  # the least subnormal
], ids=["equal_x", "equal_y", "one_ulp_x", "equal_y_past_2**51", "subnormal_x"])
def test_degenerate_range_writes_parsable_svg(tmp_path, xs, ys):
    path = tmp_path / "chart.svg"
    src_dir = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", _CHILD % (xs, ys), str(path)],
                   env=env, timeout=60, check=True)
    root = ET.parse(path).getroot()
    assert root.tag == _NS + "svg"
    points = [tuple(map(float, pt.split(",")))
              for pt in root.find(_NS + "polyline").get("points").split()]
    assert len(points) == len(xs)
    assert all(70.0 <= px <= 700.0 and 36.0 <= py <= 428.0 for px, py in points)
