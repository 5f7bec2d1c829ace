import xml.etree.ElementTree as ET

from solesense.plots import line_chart_svg, pressure_color, write_chart

from helpers import count_series


class TestColorRamp:
    def test_anchors(self):
        assert pressure_color(0.0) == (0, 255, 0)  # green: light pressure
        assert pressure_color(0.5) == (255, 0, 0)  # red: high pressure
        assert pressure_color(1.0) == (0, 0, 255)  # blue: saturated

    def test_clamped(self):
        assert pressure_color(-1.0) == pressure_color(0.0)
        assert pressure_color(2.0) == pressure_color(1.0)

    def test_monotone_blend(self):
        r, g, b = pressure_color(0.25)
        assert r > 0 and g > 0 and b == 0
        r, g, b = pressure_color(0.75)
        assert r > 0 and b > 0 and g == 0


class TestSvg:
    def test_well_formed_and_series_counted(self):
        svg = line_chart_svg([0, 1, 2], [("a", [1.0, 2.0, 3.0]), ("b", [3.0, 2.0, 1.0])], title="demo")
        ET.fromstring(svg)
        assert count_series(svg) == 2
        assert "demo" in svg

    def test_gaps_split_polylines(self):
        svg = line_chart_svg([0, 1, 2, 3], [("a", [1.0, None, 2.0, 3.0])])
        assert count_series(svg) == 1
        assert svg.count("<polyline") == 2  # broken at the gap

    def test_single_point_series_renders(self):
        svg = line_chart_svg([5.0], [("dot", [7.0])])
        ET.fromstring(svg)
        assert count_series(svg) == 1

    def test_empty_series_tolerated(self):
        ET.fromstring(line_chart_svg([], [("empty", [])]))

    def test_csv_twin_carries_exact_data(self, tmp_path):
        svg = tmp_path / "c.svg"
        csv = tmp_path / "c.csv"
        write_chart(svg, [0.5, 1.5], [("y", [10.0, None])], x_column="t")
        lines = csv.read_text().splitlines()
        assert lines[0] == "t,y"
        assert lines[1] == "0.5,10.0"
        assert lines[2] == "1.5,"  # gap stays empty, never invented
