"""The per-metric verdict of ``scripts/bench_pairs.py`` on made-up pairs:
pair wins, the gain verdict, the bound check and the unresolved flag."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import bench_pairs  # noqa: E402

LOWER = {"name": "ms", "unit": "ms", "better": "lower", "bound": 0.25}
HIGHER = {"name": "ms", "unit": "ms", "better": "higher", "bound": 0.25}


def _pairs(parent, change):
    return [{side: {"metrics": {"ms": {"value": v}}}
             for side, v in (("parent", p), ("change", c))}
            for p, c in zip(parent, change)]


def test_tight_runs_within_bound_and_resolved():
    v = bench_pairs.verdict(LOWER, _pairs([10, 10.1, 9.9, 10, 10.2],
                                          [12, 12.1, 11.9, 12, 12.2]))
    assert (v["wins"], v["gain"], v["within_bound"], v["unresolved"]) == \
        (0, False, True, False)


def test_change_past_the_bound_is_not_within_it():
    pairs = _pairs([10, 10.1, 9.9, 10, 10.2], [13, 13.1, 12.9, 13, 13.2])
    assert not bench_pairs.verdict(LOWER, pairs)["within_bound"]
    assert bench_pairs.verdict(HIGHER, pairs)["within_bound"]


def test_wide_parent_spread_is_unresolved_unless_every_run_beats_it():
    parent = [6, 8, 10, 12, 14]
    v = bench_pairs.verdict(LOWER, _pairs(parent, [9, 10, 11, 10, 9]))
    assert v["within_bound"] and v["unresolved"]
    v = bench_pairs.verdict(LOWER, _pairs(parent, [2, 3, 2, 3, 2]))
    assert v["gain"] and not v["unresolved"]
    assert bench_pairs.verdict(HIGHER, _pairs(parent, [20] * 5))["gain"]
