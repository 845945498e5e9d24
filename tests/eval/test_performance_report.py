"""Tests for the performance harness (Fig. 5) and the report renderers."""

import pytest

from repro.eval.performance import (
    generate_pairs,
    speedup_summary,
    time_algorithms,
)
from repro.eval.precision import (
    MUL_ALGORITHMS,
    compare_precision,
    precision_cdf,
)
from repro.eval.report import (
    render_cdf_ascii,
    render_comparison,
    render_fig4,
    render_fig5,
    render_table1,
)
from repro.eval.precision import precision_trend


class TestWorkloadGeneration:
    def test_pair_count_and_width(self):
        pairs = generate_pairs(10, width=64, seed=1)
        assert len(pairs) == 10
        assert all(p.width == 64 and q.width == 64 for p, q in pairs)

    def test_deterministic(self):
        assert generate_pairs(5, seed=3) == generate_pairs(5, seed=3)

    def test_different_seeds_differ(self):
        assert generate_pairs(5, seed=1) != generate_pairs(5, seed=2)


class TestTiming:
    @pytest.fixture(scope="class")
    def results(self):
        return time_algorithms(generate_pairs(40, seed=0), trials=3)

    def test_all_algorithms_timed(self, results):
        assert set(results) == set(MUL_ALGORITHMS)
        for result in results.values():
            assert len(result.per_pair_ns) == 40
            assert all(t > 0 for t in result.per_pair_ns)

    def test_summary_and_cdf(self, results):
        for result in results.values():
            s = result.summary()
            assert s["min"] <= s["p50"] <= s["max"]
            cdf = result.cdf()
            assert cdf[-1][1] == 1.0

    def test_speedup_summary_keys(self, results):
        s = speedup_summary(results)
        assert set(s) == {"kern_mul", "bitwise_mul"}
        for v in s.values():
            assert -5.0 < v < 1.0  # a fraction, not a percentage

    def test_include_naive(self):
        results = time_algorithms(
            generate_pairs(5, seed=0), trials=1, include_naive=True
        )
        assert "bitwise_mul_naive" in results


class TestRenderers:
    def test_table1(self):
        text = render_table1(precision_trend([4]))
        assert "bitwidth" in text
        assert "our more %" in text
        assert "4" in text

    def test_cdf_ascii(self):
        points = [(0.0, 0.2), (1.0, 0.5), (2.0, 1.0)]
        text = render_cdf_ascii(points, "demo", x_label="units")
        assert "demo" in text and "units" in text and "*" in text

    def test_cdf_ascii_empty(self):
        assert "(no data)" in render_cdf_ascii([], "empty")

    def test_fig4(self):
        c = compare_precision("our_mul", "bitwise_mul", 4)
        text = render_fig4({"bitwise_mul": precision_cdf(c)}, 4)
        assert "Figure 4" in text and "bitwise_mul" in text

    def test_fig5(self):
        results = time_algorithms(generate_pairs(10, seed=0), trials=1)
        text = render_fig5(results)
        assert "Figure 5" in text
        assert "our_mul" in text and "mean ns" in text

    def test_comparison_renderer(self):
        c = compare_precision("our_mul", "kern_mul", 4)
        text = render_comparison(c)
        assert "our_mul vs kern_mul" in text
        assert "equal outputs" in text
