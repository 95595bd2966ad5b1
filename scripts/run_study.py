#!/usr/bin/env python3
"""Run one study of ``kgdialog.experiments``: its JSON report goes to
stdout, a PASS/FAIL line to stderr, and the exit code is 0 on PASS and 1
on FAIL.

    python3 scripts/run_study.py overfit                # memorization
    python3 scripts/run_study.py relations --jobs 5     # relation ablation
    python3 scripts/run_study.py regularization         # alignment ablation

Each study's flags are its function's parameters (``n_train`` is
``--n-train``, and ``seeds`` takes several values), with the function's
defaults, which are the pinned acceptance settings. A study over seeds runs
each seed as its own call, in up to --jobs worker processes, and merges
the per-seed rows with ``summarize_runs``. Arguments the study refuses
(a ValueError) are usage errors: one line on stderr and exit code 2.
"""
from __future__ import annotations

import argparse
import inspect
import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, NamedTuple

from kgdialog.experiments import (overfit_study, regularization_study,
                                  relation_study, summarize_runs)


class Study(NamedTuple):
    run: Callable[..., dict]
    label: str
    passed: Callable[[dict], bool]
    summary: Callable[[dict], str]


STUDIES = {
    "overfit": Study(
        overfit_study, "overfit study",
        lambda r: (r["loss_ratio"] < 0.1
                   and r["metrics"]["exact_match"] >= 0.95),
        lambda r: (f"loss ratio {r['loss_ratio']:.5f}, "
                   f"exact match {r['metrics']['exact_match']:.3f}")),
    "relations": Study(
        relation_study, "relation ablation",
        lambda r: r["median_full"] > r["median_without_relations"],
        lambda r: (f"median full {r['median_full']:.4f} vs without "
                   f"relations {r['median_without_relations']:.4f}")),
    "regularization": Study(
        regularization_study, "regularization ablation",
        lambda r: r["median_regularized"] < r["median_unregularized"],
        lambda r: (f"median gap {r['median_regularized']:.4f} regularized "
                   f"vs {r['median_unregularized']:.4f} unregularized")),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = ap.add_subparsers(dest="study", metavar="STUDY", required=True)
    for name, study in STUDIES.items():
        doc = inspect.getdoc(study.run)
        sp = sub.add_parser(name, help=doc.split("\n\n")[0],
                            description=doc)
        params = inspect.signature(study.run).parameters
        for param in params.values():
            flag, default = "--" + param.name.replace("_", "-"), param.default
            if isinstance(default, tuple):  # seeds
                sp.add_argument(flag, type=type(default[0]), nargs="+",
                                default=list(default),
                                help="default: %(default)s")
            else:
                sp.add_argument(flag, type=type(default), default=default,
                                help="default: %(default)s")
        if "seeds" in params:
            sp.add_argument("--jobs", type=int, default=1,
                            help="worker processes for the per-seed runs")
    return ap


def run(study: Study, kwargs: dict, jobs: int) -> dict:
    """The study's report; a study over seeds runs one call per seed, in
    ``jobs`` fresh (spawned) processes when there are more than one."""
    if "seeds" not in kwargs:
        return study.run(**kwargs)
    seeds = kwargs.pop("seeds")
    if jobs > 1:
        with ProcessPoolExecutor(
                max_workers=jobs,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            futures = [pool.submit(study.run, seeds=(seed,), **kwargs)
                       for seed in seeds]
            reports = [future.result() for future in futures]
    else:
        reports = [study.run(seeds=(seed,), **kwargs) for seed in seeds]
    return summarize_runs([r["per_seed"][0] for r in reports])


def main(argv=None) -> int:
    ap = build_parser()
    args = vars(ap.parse_args(argv))
    study = STUDIES[args.pop("study")]
    jobs = args.pop("jobs", 1)
    if jobs < 1:
        ap.error("--jobs must be at least 1")
    try:
        report = run(study, args, jobs)
    except ValueError as exc:  # the study refused its arguments
        ap.error(str(exc))
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    print()
    ok = study.passed(report)
    print(f"{study.label}: {'PASS' if ok else 'FAIL'} "
          f"({study.summary(report)})", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
