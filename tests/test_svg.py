import numpy as np

from sfglab.svg import field_svg, line_chart_svg, scatter_svg


class TestScatter:
    def test_empty_panels_render_axes(self):
        doc = scatter_svg([(np.zeros((0, 2)), np.zeros(0, dtype=int), "empty")])
        assert doc.startswith("<svg")
        assert doc.rstrip().endswith("</svg>")
        assert "<rect" in doc
        assert "<circle" not in doc

    def test_four_panel_layout(self):
        rng = np.random.default_rng(0)
        panels = [(rng.standard_normal((20, 2)), rng.integers(0, 2, 20), name)
                  for name in ("none", "cfg", "ag", "sfg")]
        doc = scatter_svg(panels)
        for name in ("none", "cfg", "ag", "sfg"):
            assert name in doc
        assert doc.count("<circle") == 80

    def test_byte_determinism(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((15, 2))
        labels = rng.integers(0, 3, 15)
        assert scatter_svg([(pts, labels, "a")]) == scatter_svg([(pts, labels, "a")])

    def test_shared_bounds_across_panels(self):
        near = np.zeros((1, 2))
        far = np.full((1, 2), 10.0)
        doc_two = scatter_svg([(near, [0], "n"), (far, [0], "f")])
        assert "[-0." in doc_two or "[0" in doc_two  # bounds annotation present


class TestFieldPlot:
    def test_empty_rows(self):
        assert "<svg" in field_svg({})
        assert "<svg" in field_svg({"x0": np.zeros(0), "x1": np.zeros(0)})

    def test_gate_segments_only_where_on(self):
        cols = {"x0": [0.0, 1.0], "x1": [0.0, 0.0], "score0": [1.0, -1.0], "score1": [0.0, 0.0],
                "clf0_0": [0.1, 0.1], "clf0_1": [0.0, 0.0], "clf1_0": [-0.1, -0.1], "clf1_1": [0.0, 0.0],
                "lambda_max": [1.0, -1.0], "evec0": [1.0, 0.0], "evec1": [0.0, 1.0], "gate": [1, 0]}
        doc = field_svg(cols)
        assert doc.count('stroke="#2ca02c"') == 1  # one curvature segment
        assert field_svg({k: np.asarray(v) for k, v in cols.items()}) == doc


class TestLineChart:
    def test_empty(self):
        assert "<svg" in line_chart_svg([], "weight", ["frechet"])

    def test_grouped_curves(self):
        rows = [{"weight": w, "alpha": a, "frechet": 1.0 / (1 + w) + a}
                for w in (0, 1, 2) for a in (1.0, 2.0)]
        doc = line_chart_svg(rows, "weight", ["frechet"], group_key="alpha")
        assert doc.count("<polyline") == 2

    def test_determinism(self):
        rows = [{"weight": w, "m": w * 0.5} for w in range(5)]
        assert line_chart_svg(rows, "weight", ["m"]) == line_chart_svg(rows, "weight", ["m"])
