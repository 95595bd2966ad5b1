#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports ``kgdialog`` from ``src/`` of
the same tree and nowhere else, and fails without printing a result when
the sources are missing. ``--trace 0`` measures the end-to-end metrics with
no instrumentation. ``--trace 1`` measures the same loop untraced for half
the time, then traced for the other half, and prints the per-layer metrics
and the tracing overhead. Metric names and units come from BENCHMARK.json.
The full run record (environment, sample counts, every per-layer figure,
degradation counts, check results) is printed above the result line and
written to perfbench/out/.
"""
import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS threads must be pinned before numpy loads: on two cores, default
# threading made training steps slower and far less steady.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
# Set-ups timed in an untraced run: one before the timed loop, the rest
# spread evenly over it, so their median does not rest on one stretch of
# the host's speed.
SETUP_REPEATS = 30
# The tail percentile of the windowed op time; the runner keeps enough
# windows that at least TAIL_BEYOND of them lie beyond it.
TAIL_PCT, TAIL_BEYOND = 75, 10


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    if not (SRC / "kgdialog" / "__init__.py").is_file():
        fail(f"no kgdialog sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kgdialog
    if not Path(kgdialog.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"kgdialog was imported from {kgdialog.__file__}, not {SRC}")


class LogTap(logging.Handler):
    """Counts the package's degradation warnings and marks epoch ends."""

    KINDS = (("compose: truncating", "composer.knowledge_truncations"),
             ("embed_tokens: truncating", "composer.position_truncations"),
             ("cross_entropy_loss: clamping", "autodiff.ce_clamps"),
             ("walk_relations: seed", "acquire.skipped_seeds"))

    def __init__(self):
        super().__init__(logging.INFO)
        self.counts = Counter()
        self.epoch_marks: list[float] = []
        self.muted = False  # set while a spare set-up runs

    def emit(self, record):
        if self.muted:
            return
        msg = str(record.msg)
        if record.name == "kgdialog.training" and msg.startswith("epoch "):
            self.epoch_marks.append(time.perf_counter())
            return
        for prefix, name in self.KINDS:
            if msg.startswith(prefix):
                self.counts[name] += 1
                return
        if record.levelno >= logging.WARNING:
            self.counts["other_warnings"] += 1


def summarize(samples: list[float]) -> dict:
    """Median, p75 and p90, with the sample count and how many samples lie
    beyond each tail percentile."""
    out = {"p50": statistics.median(samples) if samples else None,
           "samples": len(samples)}
    for pct in (75, 90):
        q = (statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]
             if len(samples) > 1 else (samples or [None])[0])
        out[f"p{pct}"] = q
        out[f"beyond_p{pct}"] = sum(1 for s in samples if s > q)
    return out


def windows(workload, res) -> list[float]:
    """Mean op time (ms) over consecutive windows of ``workload.window`` ops.

    A window spans about half a second, so each sample averages over the
    host's short speed swings instead of landing on one of them.
    """
    per_op = [workload.per_item_ms(op) for op in res.ops]
    chunks = [per_op[i:i + workload.window]
              for i in range(0, len(per_op), workload.window)]
    if len(chunks) > 1 and len(chunks[-1]) < workload.window:
        chunks.pop()
    return [statistics.fmean(c) for c in chunks]


def end_to_end(workload, res, setup_times, peak_rss_mb):
    """The end-to-end metrics, and the record's detail behind them."""
    latency = summarize(windows(workload, res))
    items = sum(op.items for op in res.ops)
    out = {"setup_s": statistics.median(setup_times),
           f"op_ms_p{TAIL_PCT}": latency[f"p{TAIL_PCT}"],
           "peak_rss_mb": peak_rss_mb}
    detail = {"op_ms": latency, "items": items, "item": workload.item,
              "items_per_s": items / res.wall_s if res.wall_s else None,
              "wall_s": res.wall_s, "setup_samples": setup_times}
    if workload.item == "pairs":
        detail["train_pairs_per_s"] = summarize(
            [op.items / op.seconds for op in res.ops])["p50"]
        losses = res.extra.get("epoch_losses") or [None]
        detail["train_loss_end"] = losses[-1]
    else:
        detail["response_ms"] = summarize([workload.per_item_ms(op)
                                           for op in res.ops])
        for klass in sorted({op.klass for op in res.ops}):
            detail[f"{klass}_token_ms"] = summarize(
                [1000.0 * op.seconds / op.items for op in res.ops
                 if op.klass == klass and op.items])
    return out, detail


def per_layer(tracer, first_op, log_counts, overhead_pct):
    """Every per-layer figure, and the bases they divide by. None marks a
    layer that did not run, or whose function no longer exists."""
    r = tracer.reduce(first_op)
    incl, own, calls = r["incl"], r["self"], r["calls"]
    ops = r["ops"] or None
    counts = tracer.counts
    tokens = sum(v for k, v in counts.items() if isinstance(k, tuple))

    def ms(*names, table=incl):
        if all(calls[n] == 0 for n in names) or not ops:
            return None
        return 1000.0 * sum(table[n] for n in names) / ops

    def ratio(num, den):
        return num / den if den else None

    graph_calls = [s for s in tracer.spans if s[0] == "kb.build_graph"]
    layers = {
        "acquire.walk_ms": ms("acquire.walk", table=own),
        "acquire.attr_ms": ms("acquire.text", "acquire.visual"),
        "acquire.tuples_per_op": ratio(counts["tuples"], ops),
        "acquire.cache_hit_ratio": (
            None if "acquire.text" in tracer.absent
            else ratio(calls["acquire.acquire"] - calls["acquire.text"],
                       calls["acquire.acquire"])),
        "acquire.skipped_seeds": log_counts["acquire.skipped_seeds"],
        "kb.build_graph_ms": ratio(
            1000.0 * sum(e - s for _, s, e, _, _ in graph_calls),
            len(graph_calls)),
        "composer.compose_ms": ms("composer.compose"),
        "composer.tuple_encode_ms": ms("composer.tuple_encode"),
        "composer.encode_calls_per_op": ratio(calls["composer.encode"], ops),
        "composer.fusion_ms": ms("composer.reorganize", "composer.fuse"),
        "composer.knowledge_truncations":
            log_counts["composer.knowledge_truncations"],
        "composer.position_truncations":
            log_counts["composer.position_truncations"],
        "regularizer.project_ms": ms("regularizer.project"),
        "regularizer.truth_encode_ms": ms("regularizer.truth_encode"),
        "decoder.states_ms": ms("decoder.states"),
        "decoder.loss_ms": ms("decoder.loss"),
        "decoder.prefix_rows_per_token": ratio(counts["prefix_rows"], tokens),
        "autodiff.graph_nodes_per_pair": ratio(counts["graph_nodes"],
                                               counts["backward_calls"]),
        "autodiff.backward_ms": ms("autodiff.backward"),
        "autodiff.ce_ms": ms("autodiff.ce"),
        "autodiff.ce_clamps": log_counts["autodiff.ce_clamps"],
        "training.forward_ms": ms("model.loss_pair"),
        "training.adam_step_ms": ms("training.adam_step"),
        "model.self_ms": ms("model.loss_pair", "model.generate_response",
                            table=own),
        "trace.overhead_pct": overhead_pct,
    }
    for klass, n in r["ops_by_class"].items():
        if klass:
            layers[f"decoder.token_ms.{klass}"] = ratio(
                1000.0 * r["by_class"].get(("decoder.generate", klass), 0.0),
                counts["tokens", klass])
    bases = {"ops": r["ops"], "tokens": tokens,
             "acquire_calls": calls["acquire.acquire"],
             "build_graph_calls": len(graph_calls),
             "backward_calls": counts["backward_calls"],
             "absent_targets": sorted(tracer.absent),
             "spans": len(tracer.spans)}
    return layers, bases


def git_sha() -> str:
    """HEAD of the tree the benchmark runs in; 'unknown' where that tree is
    not a git checkout of its own."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=30, check=True).stdout
        top, sha = out.split()
    except (OSError, ValueError, subprocess.SubprocessError):
        return "unknown"
    return sha if Path(top).resolve() == ROOT else "unknown"


def environment(args) -> dict:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get(k) for k in ("blas", "lapack")}
    except (TypeError, AttributeError):
        blas = "numpy.show_config(mode='dicts') unavailable"
    return {"git_sha": git_sha(), "python": sys.version.split()[0],
            "numpy": np.__version__, "blas": blas,
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_package()
    import_s = time.perf_counter() - STARTED
    from tracer import Tracer
    from workloads import MIN_WINDOWS, WORKLOADS, Clock
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    tap = LogTap()
    pkg_logger = logging.getLogger("kgdialog")
    pkg_logger.setLevel(logging.INFO)
    pkg_logger.addHandler(tap)
    pkg_logger.propagate = False

    workload = WORKLOADS[args.workload](tap)
    t0 = time.perf_counter()
    workload.setup(args.seed)
    setup_times = [time.perf_counter() - t0]
    tap.counts.clear()

    def spare_setup():
        """Time one more set-up, on a fresh instance the loop never uses."""
        tap.muted = True
        t0 = time.perf_counter()
        WORKLOADS[args.workload](tap).setup(args.seed)
        setup_times.append(time.perf_counter() - t0)
        tap.muted = False

    record = {"environment": environment(args), "import_s": import_s}
    if args.trace:
        seconds = args.seconds / 2
        res = workload.run(Clock(seconds))
    else:
        seconds = args.seconds
        res = workload.run(Clock(seconds, MIN_WINDOWS * workload.window,
                                 spare_setup, SETUP_REPEATS - 1))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics, record["end_to_end"] = end_to_end(workload, res, setup_times,
                                               peak_rss_mb)
    runs = [res]
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            workload.setup(args.seed)
            first_op = tracer.op + 1
            tracer.counts.clear()
            tap.counts.clear()
            traced = workload.run(Clock(seconds), tracer)
        finally:
            tracer.uninstall()
        _, record["traced_end_to_end"] = end_to_end(
            workload, traced, setup_times, peak_rss_mb)
        # both phases replay the same op sequence from its start, so the
        # first n ops of each are the same work
        n = min(len(res.ops), len(traced.ops))
        overhead = 100.0 * (sum(op.seconds for op in traced.ops[:n])
                            / sum(op.seconds for op in res.ops[:n]) - 1.0)
        layers, record["layer_bases"] = per_layer(tracer, first_op,
                                                  tap.counts, overhead)
        record["per_layer"] = layers
        runs.append(traced)
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = layers
    else:
        record["degradations"] = dict(tap.counts)
        tail = record["end_to_end"]["op_ms"]
        if tail[f"beyond_p{TAIL_PCT}"] < TAIL_BEYOND:
            fail(f"only {tail['beyond_p' + str(TAIL_PCT)]} windows beyond "
                 f"p{TAIL_PCT}; need {TAIL_BEYOND}")
    workload.check(runs[-1])

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    record["checked"] = runs[-1].extra.get("checked")
    record["errors"] = [e for r in runs for e in r.errors][:20]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    # a layer that did not run, or whose function is gone, stays null
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics.get(m["name"]),
                                      "unit": m["unit"]} for m in wanted}}
    record["result"] = result
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(record, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
