#!/usr/bin/env python3
"""Compare this checkout with an earlier revision on one benchmark workload.

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload train \\
        --seeds 901 902 903 904 905 906 907 908 909 910 --seconds 30 \\
        --out BENCH_13.json

The parent revision's committed files are exported (``git archive``) into a
temporary directory, which is removed on exit; the repository itself is not
touched. Each seed is one pair of runs of

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

one in each tree, one after the other; the side that runs first alternates
from pair to pair, so a slow or fast spell of the host does not always
land on the same side. After the pairs, each side runs once more with
``--trace 1`` at the first seed, for its per-layer metrics (graph nodes per
pair among them). The output file holds both SHAs, whether the checkout
differs from its HEAD in a tracked file the benchmark runs (and which),
every result line, each side's traced per-layer metrics, both sides' values
of the traced counts in ``COUNTS`` and whether they differ, and per
end-to-end metric (names, units, directions and bounds from
BENCHMARK.json): each side's median and quartiles, the pairs the change
wins, the verdict of a claimed gain and the bound check. It also holds
each side's failed share of the attempted operations and its count of
runs the benchmark marked incorrect. A gain holds when the change wins at
least 9 of every 10 pairs, its median is better than the parent's by more
than the parent's interquartile range, no change run is incorrect, and
the change's failed share is no higher than the parent's. A metric is
within its bound when the change's median is no worse than the parent's
median by more than the bound (a fraction of the parent's median). It is
unresolved when the parent's interquartile range is wider than the bound
and not every change run beats every parent run: the runs then spread too
widely to tell.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9
# Traced per-layer counts of the work done per operation. They do not
# depend on the host's speed, so a change in the work shows in them even
# when the times are noise.
COUNTS = ("autodiff.graph_nodes_per_pair", "composer.encode_calls_per_op",
          "acquire.tuples_per_op", "decoder.prefix_rows_per_token")
# A timed run ends after a number of requests that depends on its speed,
# and the per-op averages over the request mix move with it (by up to
# 0.04% between two sides doing the same work); a count differs when it
# moves by more than this share.
COUNT_RTOL = 1e-3
# The tracked paths a benchmark run executes or reads: a checkout that
# differs from HEAD elsewhere (a text file, say) measures HEAD's code.
BENCH_PATHS = ("src/", "perfbench/", "scripts/", "BENCHMARK.json")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def benchmarked_changes(porcelain: str) -> list[str]:
    """The paths under ``BENCH_PATHS`` in ``git status --porcelain`` output
    (both sides of a rename)."""
    paths = []
    for line in porcelain.splitlines():
        for path in line[3:].split(" -> "):
            path = path.strip('"')
            if path.startswith(BENCH_PATHS):
                paths.append(path)
    return paths


def export(rev: str, into: Path) -> None:
    """Write the committed files of ``rev`` under ``into``."""
    archive = into.parent / "tree.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                       stdout=fh, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    archive.unlink()


def run(tree: Path, command: list[str], workload: str, seed: int,
        seconds: float, trace: int = 0) -> tuple[dict, dict]:
    """One benchmark run in ``tree``: its result line and the full run
    record printed above it, both parsed."""
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} failed:\n"
                           f"{proc.stderr}")
    record, _, result = proc.stdout.strip().rpartition("\n")
    return json.loads(result), json.loads(record)


def pair_line(pair: dict) -> str:
    """One pair's progress line: per side, in run order, the operations it
    attempted and its metric values. A reply workload keeps every reply
    until its run ends, so a side that attempts more holds more memory;
    the count shows how far that explains a ``peak_rss_mb`` gap."""
    return json.dumps({"seed": pair["seed"], **{
        side: {"attempted": pair[side]["attempted"],
               **{m: v["value"] for m, v in pair[side]["metrics"].items()}}
        for side in pair["order"]}})


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1, "values": values}


def failures(pairs: list[dict]) -> dict:
    """Each side's failed and attempted operations summed over its paired
    runs, the failed share, and the count of its runs marked incorrect."""
    out = {}
    for side in ("parent", "change"):
        runs = [p[side] for p in pairs]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        out[side] = {"failed": failed, "attempted": attempted,
                     "failed_share": failed / max(attempted, 1),
                     "incorrect_runs": sum(not r["correct"] for r in runs)}
    return out


def verdict(metric: dict, pairs: list[dict]) -> dict:
    """Per-side spread, pair wins, the gain verdict and the bound check of
    one metric."""
    name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
    sides = {side: [p[side]["metrics"][name]["value"] for p in pairs]
             for side in ("parent", "change")}
    wins = sum(sign * (p - c) > 0
               for p, c in zip(sides["parent"], sides["change"]))
    parent, change = spread(sides["parent"]), spread(sides["change"])
    gap = sign * (parent["median"] - change["median"])
    bound = metric["bound"] * abs(parent["median"])
    beats_all = all(sign * (p - c) > 0
                    for p in sides["parent"] for c in sides["change"])
    fails = failures(pairs)
    clean = (fails["change"]["incorrect_runs"] == 0
             and fails["change"]["failed_share"]
             <= fails["parent"]["failed_share"])
    return {"unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"],
            "parent": parent, "change": change, "wins": wins,
            "pairs": len(pairs),
            "median_change_pct": 100.0 * (change["median"] / parent["median"]
                                          - 1.0),
            "gain": (wins >= WIN_SHARE * len(pairs) and gap > parent["iqr"]
                     and clean),
            "within_bound": gap >= -bound,
            "unresolved": parent["iqr"] > bound and not beats_all}


def count_deltas(traced: dict) -> dict:
    """Both sides' values of each count in ``COUNTS``, from the traced
    per-layer metrics, and whether they differ (a count missing on one side
    only differs; one missing on both does not)."""
    out = {}
    for name in COUNTS:
        parent, change = (traced[side]["per_layer"].get(name)
                          for side in ("parent", "change"))
        if parent is None or change is None:
            differ = parent is not change
        else:
            differ = abs(change - parent) > COUNT_RTOL * abs(parent)
        out[name] = {"parent": parent, "change": change, "differ": differ}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--parent", required=True, help="revision to compare with")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    args = ap.parse_args(argv)
    if len(args.seeds) < 4:
        ap.error("quartiles need at least 4 seeds")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # not git(): stripping the output would cut the first line's status
    changed = benchmarked_changes(subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
        capture_output=True, text=True, check=True).stdout)
    record = {
        "workload": args.workload, "seconds": args.seconds,
        "seeds": args.seeds,
        "parent": {"rev": args.parent,
                   "sha": git("rev-parse", args.parent + "^{commit}")},
        "change": {"sha": git("rev-parse", "HEAD"),
                   "uncommitted_changes": bool(changed),
                   "uncommitted_paths": changed},
        "command": spec["command"], "pairs": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp) / "tree"
        export(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "order": list(order)}
            for side in order:
                pair[side], _ = run(trees[side], spec["command"],
                                    args.workload, seed, args.seconds)
            record["pairs"].append(pair)
            print(pair_line(pair), flush=True)
        record["traced"] = {"seed": args.seeds[0]}
        for side in ("parent", "change"):
            result, run_record = run(trees[side], spec["command"],
                                     args.workload, args.seeds[0],
                                     args.seconds, trace=1)
            record["traced"][side] = {"failed": result["failed"],
                                      "per_layer": run_record["per_layer"]}
    record["failures"] = failures(record["pairs"])
    record["counts"] = count_deltas(record["traced"])
    record["metrics"] = {m["name"]: verdict(m, record["pairs"])
                         for m in spec["end_to_end"]}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    for side, f in record["failures"].items():
        print(f"{side}: {f['failed']} of {f['attempted']} operations failed, "
              f"{f['incorrect_runs']} runs incorrect")
    for name, c in record["counts"].items():
        print(f"traced {name}: parent {c['parent']}, change {c['change']}, "
              f"differ: {c['differ']}")
    for name, m in record["metrics"].items():
        print(f"{name}: parent median {m['parent']['median']:.4g} "
              f"(IQR {m['parent']['iqr']:.3g}), change "
              f"{m['change']['median']:.4g} ({m['median_change_pct']:+.1f}%), "
              f"wins {m['wins']}/{m['pairs']}, gain: {m['gain']}, "
              f"within bound {m['bound']:.0%}: {m['within_bound']}, "
              f"unresolved: {m['unresolved']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
