"""The per-metric verdict of ``scripts/bench_pairs.py`` on made-up pairs
(pair wins, the gain verdict, the bound check and the unresolved flag), its
failure tally, its comparison of the traced counts, its progress line, and
its dirty-tree filter on made-up ``git status --porcelain`` text."""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import bench_pairs  # noqa: E402

LOWER = {"name": "ms", "unit": "ms", "better": "lower", "bound": 0.25}
HIGHER = {"name": "ms", "unit": "ms", "better": "higher", "bound": 0.25}


def _pairs(parent, change):
    return [{side: {"correct": True, "attempted": 100, "failed": 0,
                    "metrics": {"ms": {"value": v}}}
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


def test_gain_needs_every_change_run_correct_and_no_more_failures():
    pairs = _pairs([10, 10.1, 9.9, 10, 10.2], [5, 5.1, 4.9, 5, 5.2])
    assert bench_pairs.verdict(LOWER, pairs)["gain"]
    pairs[3]["change"]["correct"] = False
    v = bench_pairs.verdict(LOWER, pairs)
    assert v["wins"] == 5 and not v["gain"] and v["within_bound"]
    pairs[3]["change"]["correct"] = True
    pairs[0]["change"]["failed"] = 1
    assert not bench_pairs.verdict(LOWER, pairs)["gain"]
    pairs[4]["parent"]["failed"] = 1  # the same share on both sides
    assert bench_pairs.verdict(LOWER, pairs)["gain"]
    pairs[2]["parent"]["correct"] = False  # a parent fault is no bar
    assert bench_pairs.verdict(LOWER, pairs)["gain"]
    assert bench_pairs.failures(pairs) == {
        "parent": {"failed": 1, "attempted": 500, "failed_share": 0.002,
                   "incorrect_runs": 1},
        "change": {"failed": 1, "attempted": 500, "failed_share": 0.002,
                   "incorrect_runs": 0}}


def test_counts_differ_beyond_the_request_mix_band_or_when_one_is_missing():
    parent = {"autodiff.graph_nodes_per_pair": None,
              "composer.encode_calls_per_op": 1.8748,
              "acquire.tuples_per_op": 4.3108,
              "decoder.prefix_rows_per_token": 1.8692}
    change = {"autodiff.graph_nodes_per_pair": None,
              "composer.encode_calls_per_op": 1.8747,  # request mix only
              "acquire.tuples_per_op": None,
              "decoder.prefix_rows_per_token": 2.8692}
    counts = bench_pairs.count_deltas({"parent": {"per_layer": parent},
                                       "change": {"per_layer": change}})
    assert list(counts) == list(bench_pairs.COUNTS)
    assert {name: c["differ"] for name, c in counts.items()} == {
        "autodiff.graph_nodes_per_pair": False,
        "composer.encode_calls_per_op": False,
        "acquire.tuples_per_op": True,
        "decoder.prefix_rows_per_token": True}
    assert counts["decoder.prefix_rows_per_token"]["parent"] == 1.8692
    assert counts["decoder.prefix_rows_per_token"]["change"] == 2.8692


def test_only_changes_to_benchmarked_files_mark_the_tree():
    porcelain = "\n".join([
        " M src/kgdialog/model.py",
        "M  README.md",
        " M ROADMAP.md",
        "R  scripts/old.py -> scripts/new.py",
        "MM perfbench/run.py",
        " M BENCHMARK.json",
        " M tests/test_model.py",
        " D BENCH_16.json",
        ' M "src/kgdialog/a b.py"',
    ])
    assert bench_pairs.benchmarked_changes(porcelain) == [
        "src/kgdialog/model.py", "scripts/old.py", "scripts/new.py",
        "perfbench/run.py", "BENCHMARK.json", "src/kgdialog/a b.py"]
    assert bench_pairs.benchmarked_changes(
        " M README.md\n M CHANGES.md\n M tests/helpers.py\n") == []
    assert bench_pairs.benchmarked_changes("") == []


def test_pair_line_shows_each_sides_attempted_operations_in_run_order():
    (pair,) = _pairs([64.1], [61.9])
    pair["parent"]["attempted"] = 1480
    pair.update(seed=911, order=["change", "parent"])
    line = bench_pairs.pair_line(pair)
    assert json.loads(line) == {"seed": 911,
                                "change": {"attempted": 100, "ms": 61.9},
                                "parent": {"attempted": 1480, "ms": 64.1}}
    assert line.index('"change"') < line.index('"parent"')
