"""Tests for the A/B benchmark tool's verdicts, on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"
SPEC = importlib.util.spec_from_file_location("ab_bench", PATH)
ab_bench = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(ab_bench)

#: Ten parent runs with median 1.0 and quartiles 0.99725 and 1.00275.
TIGHT = [0.99, 0.995, 0.997, 0.998, 0.999, 1.001, 1.002, 1.003, 1.005, 1.01]
#: Ten parent runs with median 1.0 and quartiles 0.8 and 1.2 (spread 40%).
WIDE = [0.6, 0.7, 0.8, 0.8, 0.9, 1.1, 1.2, 1.2, 1.3, 1.4]


def scaled(runs, factor):
    return [factor * run for run in runs]


class TestVerdict:
    @pytest.mark.parametrize(
        "parent, change, better, want",
        [
            # The change's median 1.3 is 30% worse: past a 24% bound.
            (TIGHT, scaled(TIGHT, 1.3), "lower", "regression"),
            (TIGHT, scaled(TIGHT, 0.7), "higher", "regression"),
            # 20% worse stays inside the bound.
            (TIGHT, scaled(TIGHT, 1.2), "lower", "no regression"),
            (TIGHT, scaled(TIGHT, 0.8), "higher", "no regression"),
            (TIGHT, TIGHT, "lower", "no regression"),
            # A wide parent cannot tell a small change from noise...
            (WIDE, WIDE, "lower", "unresolved"),
            (WIDE, scaled(WIDE, 0.9), "lower", "unresolved"),
            # ...unless every change run beats every parent run.
            (WIDE, scaled(WIDE, 0.4), "lower", "no regression"),
            (WIDE, scaled(WIDE, 3.0), "higher", "no regression"),
            # A wide parent still shows a large regression.
            (WIDE, scaled(WIDE, 1.5), "lower", "regression"),
        ],
    )
    def test_verdicts(self, parent, change, better, want):
        assert ab_bench.verdict(parent, change, better, 0.24) == want

    def test_the_bound_is_relative_to_the_parent_median(self):
        parent = scaled(TIGHT, 1000.0)
        assert ab_bench.verdict(parent, scaled(parent, 1.05), "lower", 0.1) == "no regression"
        assert ab_bench.verdict(parent, scaled(parent, 1.15), "lower", 0.1) == "regression"

    def test_a_spread_equal_to_the_bound_is_resolved(self):
        # Quartiles 0.9 and 1.1 around a median of 1.0: a spread of exactly 0.2.
        parent = [0.9, 0.9, 1.0, 1.1, 1.1]
        assert ab_bench.quartiles(parent) == pytest.approx((0.9, 1.0, 1.1))
        assert ab_bench.verdict(parent, parent, "lower", 0.25) == "no regression"
        assert ab_bench.verdict(parent, parent, "lower", 0.15) == "unresolved"
