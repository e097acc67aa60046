import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "tools", "benchpairs.py")
_SPEC = importlib.util.spec_from_file_location("benchpairs", _PATH)
benchpairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(benchpairs)

# parent runs with median 1.0 and quartiles 0.9875 and 1.0125 (spread 0.025)
TIGHT = [0.97, 0.98, 0.99, 0.99, 1.0, 1.0, 1.01, 1.01, 1.02, 1.03]
# parent runs with median 1.0 and quartiles 0.7 and 1.3 (spread 0.6)
WIDE = [0.6, 0.7, 0.7, 0.8, 1.0, 1.0, 1.2, 1.3, 1.3, 1.4]


@pytest.mark.parametrize("parent, change, bound, expected", [
    # a median above parent * (1 + bound) is worse, whatever the spread
    (TIGHT, [r * 1.3 for r in TIGHT], 0.25, "worse"),
    (WIDE, [r * 1.3 for r in WIDE], 0.25, "worse"),
    # a spread over the bound, with runs that overlap, is unresolved
    (WIDE, WIDE[::-1], 0.25, "unresolved"),
    (WIDE, [r * 0.8 for r in WIDE], 0.25, "unresolved"),
    # ... unless every change run beats every parent run
    (WIDE, [r * 0.3 for r in WIDE], 0.25, "gain"),
    # lower in 9 of 10 pairs, medians apart by more than the spread
    (TIGHT, [r - 0.05 for r in TIGHT[:9]] + [TIGHT[9] + 0.01], 0.25, "gain"),
    # lower in 8 of 10 pairs only
    (TIGHT, [r - 0.05 for r in TIGHT[:8]] + [r + 0.01 for r in TIGHT[8:]], 0.25, "within_bound"),
    # lower in every pair, but by less than the parent's spread
    (TIGHT, [r - 0.01 for r in TIGHT], 0.25, "within_bound"),
    # lower in every pair by a wide margin, but fewer than 10 pairs
    (TIGHT[:9], [r - 0.05 for r in TIGHT[:9]], 0.25, "within_bound"),
    # a small rise within the bound
    (TIGHT, [r * 1.05 for r in TIGHT], 0.1, "within_bound"),
    # one pair: no spread, no gain
    ([1.0], [0.5], 0.1, "within_bound"),
    ([1.0], [1.2], 0.1, "worse"),
])
def test_verdict_of_synthetic_runs(parent, change, bound, expected):
    assert benchpairs.verdict(parent, change, bound) == expected


def test_compare_writes_a_verdict_per_metric():
    def runs(values):
        return [{"metrics": {"wall_s": {"value": v}, "peak_rss_mb": {"value": 50.0}},
                 "failed": 0} for v in values]

    entry = benchpairs.compare(runs(TIGHT), runs([r * 1.3 for r in TIGHT]),
                               {"wall_s": 0.25, "peak_rss_mb": 0.1})
    assert entry["wall_s"]["verdict"] == "worse"
    assert entry["peak_rss_mb"]["verdict"] == "within_bound"
