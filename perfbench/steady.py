#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report how steady it is.

    python3 perfbench/steady.py --workloads dense_kb --seeds 1 2 3 4 5
    python3 perfbench/steady.py --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/baseline.json

Each run is a fresh process of perfbench/run.py, one after another. For
every end-to-end metric it prints the median over the runs and the spread:
the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from BENCHMARK.json. ``--out`` writes every run's result
and the summary as JSON. ``--against`` takes an earlier report of the same
workloads and compares medians: the later median may be worse than the
earlier one by at most the metric's bound. A metric that is null (absent)
in any run has no median; it is reported as unresolved and fails the
check, never counted as a gain.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--against")
    args = ap.parse_args(argv)

    earlier = json.loads(Path(args.against).read_text()) if args.against else None
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds),
                                     "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            record = json.loads("\n".join(lines[:-1]))
            report.setdefault("environment", record["environment"])
            result["seed"], result["process_s"] = seed, wall
            result["checked"] = record["checked"]
            if args.trace:
                result["per_layer"] = record["per_layer"]
            runs.append(result)
            ok &= result["correct"] and result["failed"] == 0
            print(f"{workload} seed {seed}: {wall:.1f}s correct={result['correct']}"
                  f" " + " ".join(f"{k}={v['value']}" if v["value"] is None
                                  else f"{k}={v['value']:.5g}"
                                  for k, v in result["metrics"].items()),
                  flush=True)
        summary = {}
        bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            if None in values:
                ok = False
                summary[name] = {"median": None, "absent_runs":
                                 sum(v is None for v in values)}
                print(f"  {name:32s} UNRESOLVED: absent in "
                      f"{summary[name]['absent_runs']} of {len(values)} runs")
                continue
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else values * 3)
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median if median else None,
                             "bound": bounds.get(name)}
            s = summary[name]
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            line = (f"  {name:32s} median {median:12.6g} spread "
                    f"{spread} bound {s['bound']}")
            if s["bound"] is not None and (s["spread"] is None
                                           or s["spread"] > s["bound"]):
                ok = False
                line += " SPREAD OVER BOUND"
            if earlier and s["bound"] is not None:
                before = earlier["workloads"][workload]["summary"][name]["median"]
                if before is None:
                    ok = False
                    print(line + " | earlier median UNRESOLVED")
                    continue
                worse = (median / before - 1.0 if better[name] == "lower"
                         else 1.0 - median / before)
                s["earlier_median"], s["worse_by"] = before, worse
                ok &= worse <= s["bound"]
                line += f" | earlier median {before:.6g}, worse by {worse:+.4f}"
            print(line)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if earlier:
        report["earlier"] = earlier
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
