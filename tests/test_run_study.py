"""The study runner, ``scripts/run_study.py``, called in process at tiny
settings: each study's report keys, the verdict line against the exit
code, the per-seed fan-out, and flags that mirror the study signatures."""
import inspect
import json
import sys
from pathlib import Path

import pytest

from kgdialog import experiments
from kgdialog.config import TrainingConfig
from kgdialog.experiments import summarize_runs

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import run_study  # noqa: E402

TINY = {
    "overfit": ["--n-entities", "8", "--n-pairs", "4", "--dim", "4",
                "--blocks", "1", "--n-latent", "2", "--epochs", "1"],
    "relations": ["--seeds", "0", "1", "--n-train", "4", "--n-held", "4",
                  "--dim", "4", "--epochs", "1"],
    "regularization": ["--seeds", "0", "1", "--n-pairs", "8", "--n-train",
                       "4", "--dim", "4", "--epochs", "1"],
}

REPORT_KEYS = {
    "overfit": {"config", "n_pairs", "initial_loss", "final_loss",
                "loss_ratio", "metrics", "seconds"},
    "relations": {"per_seed", "median_full", "median_without_relations"},
    "regularization": {"per_seed", "median_regularized",
                       "median_unregularized"},
}

# The per-seed rows of the paired studies at the TINY settings, as the
# studies gave them before they shared one driver.
TINY_ROWS = {
    "relations": [
        {"seed": 0, "full": 0.08333333333333333,
         "without_relations": 0.08333333333333333},
        {"seed": 1, "full": 0.1111111111111111,
         "without_relations": 0.1111111111111111}],
    "regularization": [
        {"seed": 0, "regularized": 0.025885900710029004,
         "unregularized": 0.25146182077168366},
        {"seed": 1, "regularized": 0.005808827376885508,
         "unregularized": 0.04814651370197631}],
}
# Each paired study's arms in training order, as config overrides.
ARMS = {"relations": [{"use_relations": True}, {"use_relations": False}],
        "regularization": [{"gamma": 0.1}, {"gamma": 0.0}]}


def _run(capsys, argv):
    code = run_study.main(argv)
    out, err = capsys.readouterr()
    return code, json.loads(out), err


@pytest.mark.parametrize("study", sorted(TINY))
def test_report_keys_and_verdict_match_exit_code(capsys, study):
    code, report, err = _run(capsys, [study, *TINY[study]])
    assert set(report) == REPORT_KEYS[study]
    if "per_seed" in report:
        assert [row["seed"] for row in report["per_seed"]] == [0, 1]
    else:
        assert report["config"]["dim"] == 4
    verdict = "PASS" if code == 0 else "FAIL"
    assert code in (0, 1)
    assert err.startswith(f"{run_study.STUDIES[study].label}: {verdict} (")


@pytest.mark.parametrize("study", sorted(ARMS))
def test_paired_study_trains_its_arms_from_one_base_config(monkeypatch,
                                                           capsys, study):
    """Each seed trains the arms in order, each from the seed's 1+1-block
    base config with the arm's override, and the rows are the ones the
    study gave before."""
    trained, train = [], experiments.train

    def spy(pairs, kb, cfg):
        trained.append(cfg)
        return train(pairs, kb, cfg)

    monkeypatch.setattr(experiments, "train", spy)
    _, report, _ = _run(capsys, [study, *TINY[study]])
    arms = ARMS[study]
    assert trained == [
        TrainingConfig(dim=4, enc_blocks=1, dec_blocks=1, n_latent=4,
                       epochs=1, learning_rate=3e-3, seed=seed,
                       max_seq_len=128).replace(**arm)
        for seed in (0, 1) for arm in arms]
    assert report["per_seed"] == TINY_ROWS[study]


def test_seeds_across_processes_match_one_process(capsys):
    _, serial, _ = _run(capsys, ["relations", *TINY["relations"],
                                 "--jobs", "1"])
    _, pooled, _ = _run(capsys, ["relations", *TINY["relations"],
                                 "--jobs", "2"])
    assert pooled["per_seed"] == serial["per_seed"]


@pytest.mark.parametrize("epochs", ["0", "-1"])
def test_overfit_without_epochs_is_refused_before_training(monkeypatch,
                                                           capsys, epochs):
    def refuse(*args, **kwargs):
        raise AssertionError("trained with no epochs to report")

    monkeypatch.setattr(experiments, "train", refuse)
    with pytest.raises(SystemExit) as exc:
        run_study.main(["overfit", *TINY["overfit"], "--epochs", epochs])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f": error: epochs must be >= 1, got {epochs}\n")


@pytest.mark.parametrize("study, flags, message", [
    ("overfit", ["--epochs", "0"], "epochs must be >= 1, got 0"),
    ("relations", ["--n-train", "0"], "n_train 0 and n_held 4 must be >= 1"),
])
def test_refused_study_arguments_are_a_one_line_usage_error(
        capsys, study, flags, message):
    with pytest.raises(SystemExit) as exc:
        run_study.main([study, *TINY[study], *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].endswith(f"error: {message}")


def test_zero_jobs_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        run_study.main(["relations", "--jobs", "0"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("study", sorted(TINY))
def test_flag_defaults_are_the_study_defaults(study):
    args = vars(run_study.build_parser().parse_args([study]))
    args.pop("jobs", None)
    assert args.pop("study") == study
    params = inspect.signature(run_study.STUDIES[study].run).parameters
    assert args == {name: (list(p.default) if isinstance(p.default, tuple)
                           else p.default)
                    for name, p in params.items()}


def test_summarize_runs_orders_seeds_and_takes_medians():
    rows = [{"seed": 2, "a": 5.0, "b": 1.0}, {"seed": 0, "a": 1.0, "b": 2.0},
            {"seed": 1, "a": 3.0, "b": 9.0}]
    assert summarize_runs(rows) == {
        "per_seed": sorted(rows, key=lambda r: r["seed"]),
        "median_a": 3.0, "median_b": 2.0}
