"""Command-line interface tests: exit codes, flag precedence, output
formats, and in-process pipe composition of synth -> train -> evaluate."""
import argparse
import dataclasses
import io
import json
import re
import time

import numpy as np
import pytest

from helpers import address_space_cap
from kgdialog.cli import build_parser, run_cli
from kgdialog.config import TrainingConfig
from kgdialog.corpus import read_corpus
from kgdialog.kb import kb_from_doc
from kgdialog.model import model_from_doc

METRIC_KEYS = {"bleu1", "bleu2", "bleu3", "bleu4", "nist", "exact_match"}

# Small-but-real settings shared by every training invocation below.
FAST_FLAGS = ["--dim", "8", "--enc-blocks", "1", "--dec-blocks", "1",
              "--n-latent", "2", "--mlp-hidden", "12", "--max-seq-len", "64",
              "--seed", "3"]

TOY_KB = [
    {"name": "A", "attributes": [{"type": "near", "value": "B"}]},
    {"name": "B", "attributes": [{"type": "domain", "value": "mall"}]},
]


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with a toy KB, a synthetic bundle, and a trained bundle."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "toy": root / "toy.json",
        "bundle": root / "bundle.json",
        "kb": root / "kb.json",
        "corpus": root / "corpus.jsonl",
        "trained": root / "trained.json",
        "model": root / "model.json",
        "root": root,
    }
    paths["toy"].write_text(json.dumps(TOY_KB))
    assert run_cli(["synth", "--seed", "7", "--entities", "12",
                    "--pairs", "8", "--out", str(paths["bundle"]),
                    "--out-kb", str(paths["kb"]),
                    "--out-corpus", str(paths["corpus"])]) == 0
    assert run_cli(["train", "--data", str(paths["bundle"]),
                    "--epochs", "2", *FAST_FLAGS,
                    "--out", str(paths["trained"]),
                    "--out-model", str(paths["model"])]) == 0
    kb_doc = json.loads(paths["kb"].read_text())
    paths["entity"] = kb_doc[0]["name"]  # slot 0 carries a near-relation
    return paths


# ------------------------------------------------------------ parsing layer

def test_version_exits_zero(capsys):
    assert run_cli(["--version"]) == 0
    assert "kgdialog" in capsys.readouterr().out


def test_subcommand_version_exits_zero(capsys):
    assert run_cli(["walk", "--version"]) == 0
    assert "kgdialog" in capsys.readouterr().out


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    assert "COMMAND" in capsys.readouterr().out


def test_no_command_is_usage_error(capsys):
    assert run_cli([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys):
    assert run_cli(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert run_cli(["ingest", "--bogus", "x"]) == 1
    assert "usage" in capsys.readouterr().err


def test_walk_missing_kb_is_usage_error(capsys):
    assert run_cli(["walk", "--seed", "A"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err and "--kb" in err


# ----------------------------------------------------------------- ingest

def test_ingest_summarizes_toy_kb(ws, capsys):
    assert run_cli(["ingest", "--kb", str(ws["toy"])]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"entities": 2, "attribute_pairs": 2, "graph_nodes": 3,
                   "graph_edges": 2, "feature_dim": 0}


def test_ingest_missing_file_exits_one(capsys):
    assert run_cli(["ingest", "--kb", "/nonexistent/kb.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_ingest_unparseable_file_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("this is not json")
    assert run_cli(["ingest", "--kb", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_ingest_bad_schema_exits_one(tmp_path, capsys):
    bad = tmp_path / "schema.json"
    bad.write_text(json.dumps([{"nom": "A"}]))
    assert run_cli(["ingest", "--kb", str(bad)]) == 1
    assert "name" in capsys.readouterr().err


def test_ingest_zero_norm_image_row_exits_one(tmp_path, capsys):
    bad = tmp_path / "zero.json"
    bad.write_text(json.dumps([
        {"name": "a", "attributes": [{"type": "t", "value": "v"}],
         "image_features": [[1.0, 0.0]]},
        {"name": "b", "image_features": [[0.0, 0.0]]}]))
    assert run_cli(["ingest", "--kb", str(bad)]) == 1
    assert "'b'" in capsys.readouterr().err


# ------------------------------------------------------------------- walk

def test_walk_toy_kb_yields_single_tuple_line(ws, capsys):
    assert run_cli(["walk", "--kb", str(ws["toy"]),
                    "--seed", "A", "--hops", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"entries": ["A", "near", "B",
                                                "domain", "mall"]}


def test_walk_unknown_seed_warns_but_succeeds(ws, capsys, caplog):
    assert run_cli(["walk", "--kb", str(ws["toy"]), "--seed", "Z"]) == 0
    assert capsys.readouterr().out == ""


def test_walk_trims_seeds_as_graph_nodes_are(ws, capsys):
    printed = []
    for seed in ("A", " A", "A\t"):
        assert run_cli(["walk", "--kb", str(ws["toy"]), "--seed", seed,
                        "--hops", "2"]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] and printed == [printed[0]] * 3


# A -> shop is a 1-hop dead end, so it ranks before A's and B's 2-hop paths
# even though "shop" sorts after both of A's other walks.
RANKED_KB = [
    {"name": "A", "attributes": [{"type": "near", "value": "B"},
                                 {"type": "near", "value": "C"},
                                 {"type": "zone", "value": "shop"}]},
    {"name": "B", "attributes": [{"type": "domain", "value": "mall"},
                                 {"type": "near", "value": "C"}]},
    {"name": "C", "attributes": [{"type": "domain", "value": "cafe"}]},
]


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_walk_max_tuples_prints_first_lines_of_uncapped_output(ws, capsys, k):
    kb = ws["root"] / "ranked.json"
    kb.write_text(json.dumps(RANKED_KB))
    walk = ["walk", "--kb", str(kb), "--seed", "A", "--seed", "B",
            "--hops", "2"]
    assert run_cli(walk) == 0
    uncapped = capsys.readouterr().out.splitlines()
    assert json.loads(uncapped[0]) == {"entries": ["A", "zone", "shop"]}
    assert len(uncapped) > 5
    assert run_cli([*walk, "--max-tuples", str(k)]) == 0
    assert capsys.readouterr().out.splitlines() == uncapped[:k]


# ---------------------------------------------------------------- retrieve

def test_retrieve_lists_attributes_of_mentioned_entity(ws, capsys):
    assert run_cli(["retrieve", "--kb", str(ws["toy"]),
                    "--text", "tell me about a please"]) == 0
    rows = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert {"entity": "A", "type": "near", "value": "B",
            "provenance": "textual"} in rows


def test_retrieve_with_features_lists_textual_then_visual(tmp_path, capsys):
    kb = tmp_path / "kb.json"
    kb.write_text(json.dumps([
        {"name": "A", "attributes": [{"type": "domain", "value": "mall"}],
         "image_features": [[1.0, 0.0]]},
        {"name": "B", "attributes": [{"type": "area", "value": "east"},
                                     {"type": "domain", "value": "cafe"}],
         "image_features": [[0.0, 1.0]]},
        {"name": "C", "attributes": [{"type": "domain", "value": "zoo"}]}]))
    feats = tmp_path / "feats.json"
    feats.write_text(json.dumps([[0.1, 1.0], [1.0, 0.0]]))
    assert run_cli(["retrieve", "--kb", str(kb), "--text", "is a open?",
                    "--features", str(feats)]) == 0
    rows = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    # A is both mentioned and seen: its textual pair wins the repeat
    assert [(r["entity"], r["value"], r["provenance"]) for r in rows] == [
        ("A", "mall", "textual"),
        ("B", "east", "visual"), ("B", "cafe", "visual")]


def test_retrieve_without_context_exits_one(ws, capsys):
    assert run_cli(["retrieve", "--kb", str(ws["toy"])]) == 1
    assert "context" in capsys.readouterr().err


# ------------------------------------------------------------------- synth

def test_synth_writes_bundle_and_side_files(ws):
    bundle = json.loads(ws["bundle"].read_text())
    assert set(bundle) == {"kb", "corpus"}
    assert len(bundle["corpus"]) == 8
    kb = kb_from_doc(json.loads(ws["kb"].read_text()))
    assert len(kb) == 12
    records, pairs = read_corpus(ws["corpus"].read_text())
    assert records == bundle["corpus"] and len(pairs) == 8


def test_synth_output_is_byte_identical_across_runs(capsys):
    assert run_cli(["synth", "--seed", "11", "--entities", "10",
                    "--pairs", "4"]) == 0
    first = capsys.readouterr().out
    assert run_cli(["synth", "--seed", "11", "--entities", "10",
                    "--pairs", "4"]) == 0
    assert capsys.readouterr().out == first
    assert run_cli(["synth", "--seed", "12", "--entities", "10",
                    "--pairs", "4"]) == 0
    assert capsys.readouterr().out != first


def test_synth_negative_pair_count_exits_one(tmp_path, capsys):
    out = tmp_path / "b.json"
    assert run_cli(["synth", "--seed", "0", "--pairs", "-3",
                    "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "kgdialog: error: n_pairs must be >= 0, got -3\n")
    assert not out.exists()


# ------------------------------------------------------------------- train

def test_train_emits_full_bundle(ws):
    doc = json.loads(ws["trained"].read_text())
    assert set(doc) == {"kb", "corpus", "checkpoint", "losses"}
    assert len(doc["losses"]) == 2
    assert doc["checkpoint"]["config"]["dim"] == 8
    kb = kb_from_doc(doc["kb"])
    model = model_from_doc(json.loads(ws["model"].read_text()), kb)
    assert model.cfg.dim == 8


def test_train_output_is_byte_identical_across_runs(ws, capsys):
    argv = ["train", "--data", str(ws["bundle"]), "--epochs", "1",
            *FAST_FLAGS]
    assert run_cli(argv) == 0
    first = capsys.readouterr().out
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == first


def test_train_flag_beats_config_file_beats_default(ws, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 3, "dim": 8, "enc_blocks": 1,
                               "dec_blocks": 1, "n_latent": 2,
                               "mlp_hidden": 12, "max_seq_len": 64}))
    assert run_cli(["train", "--data", str(ws["bundle"]),
                    "--config", str(cfg), "--epochs", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["losses"]) == 1          # flag --epochs 1 beat file's 3
    conf = doc["checkpoint"]["config"]
    assert conf["dim"] == 8                 # file's 8 beat the default 64
    assert conf["max_tuples"] == 64         # untouched field keeps default


def test_every_config_field_has_exactly_one_train_flag():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    names = [f.name for f in dataclasses.fields(TrainingConfig)]
    flags = [(a.dest, a.option_strings[0])
             for a in sub.choices["train"]._actions if a.dest in names]
    assert sorted(dest for dest, _ in flags) == sorted(names)
    assert [flag for _, flag in flags] == [      # in --help order
        "--dim", "--enc-blocks", "--dec-blocks", "--n-latent",
        "--mlp-hidden", "--epsilon", "--max-hops", "--max-tuples", "--lam",
        "--gamma", "--beta", "--learning-rate", "--epochs", "--batch-size",
        "--seed", "--max-seq-len", "--max-gen-len", "--relations",
        "--attention-scaling"]


def test_train_unknown_config_field_exits_one(ws, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dims": 8}))
    assert run_cli(["train", "--data", str(ws["bundle"]),
                    "--config", str(cfg)]) == 1
    assert "unknown config fields" in capsys.readouterr().err


@pytest.mark.parametrize("fields, message", [
    ({"max_tuples": None}, "'max_tuples' must be int"),
    ({"dim": "8"}, "'dim' must be int"),
    ({"epochs": 1.5}, "'epochs' must be int"),
    ({"use_relations": "no"}, "'use_relations' must be bool"),
])
def test_train_config_value_of_wrong_type_exits_one(ws, tmp_path, capsys,
                                                    fields, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(fields))
    assert run_cli(["train", "--data", str(ws["bundle"]),
                    "--config", str(cfg), *FAST_FLAGS[2:]]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("fields, message", [
    ({"lam": float("nan")}, "loss weight lam must be finite"),
    ({"gamma": float("inf")}, "loss weight gamma must be finite"),
    ({"beta": float("nan")}, "loss weight beta must be finite"),
    ({"learning_rate": float("nan")}, "learning_rate must be finite"),
])
def test_train_config_non_finite_value_exits_one(ws, tmp_path, capsys,
                                                 fields, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(fields))      # json writes NaN and Infinity
    assert run_cli(["train", "--data", str(ws["bundle"]), "--epochs", "1",
                    "--config", str(cfg), *FAST_FLAGS]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("dim", 10**8), ("enc_blocks", 10**13), ("dec_blocks", 10**13),
    ("n_latent", 10**15), ("mlp_hidden", 10**15), ("max_seq_len", 10**15),
])
def test_train_config_too_large_to_allocate_exits_one(ws, tmp_path, capsys,
                                                      field, value):
    """Petabytes of parameters or more: beyond the address space, so the
    allocation fails at once and nothing is built block by block."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({field: value}))
    flag = FAST_FLAGS.index("--" + field.replace("_", "-"))
    flags = FAST_FLAGS[:flag] + FAST_FLAGS[flag + 2:]
    started = time.monotonic()
    with address_space_cap():
        assert run_cli(["train", "--data", str(ws["bundle"]), "--epochs", "1",
                        "--config", str(cfg), *flags]) == 1
    assert time.monotonic() - started < 1.0
    err = capsys.readouterr().err
    assert re.fullmatch(r"kgdialog: error: a model of \d+ parameter values "
                        r"is too large to allocate\n", err), err


def test_train_config_flag_error_does_not_name_the_file(ws, tmp_path,
                                                        capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 1}))
    assert run_cli(["train", "--data", str(ws["bundle"]), "--config",
                    str(cfg), *FAST_FLAGS, "--max-gen-len", "0"]) == 1
    assert capsys.readouterr().err == (
        "kgdialog: error: max_gen_len must lie in [1, max_seq_len]\n")


def test_train_config_file_valid_only_with_the_flags_is_accepted(
        ws, tmp_path, capsys):
    """max_gen_len 300 exceeds the default max_seq_len 256, not the
    flag's 512."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_gen_len": 300, "epochs": 0}))
    assert run_cli(["train", "--data", str(ws["bundle"]), "--config",
                    str(cfg), *FAST_FLAGS[:-4], "--max-seq-len", "512"]) == 0
    conf = json.loads(capsys.readouterr().out)["checkpoint"]["config"]
    assert (conf["max_gen_len"], conf["max_seq_len"]) == (300, 512)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_train_non_finite_learning_rate_flag_exits_one(ws, capsys, value):
    assert run_cli(["train", "--data", str(ws["bundle"]), "--epochs", "1",
                    "--learning-rate", value, *FAST_FLAGS]) == 1
    assert "learning_rate must be finite" in capsys.readouterr().err


def test_train_without_corpus_exits_one(ws, capsys):
    assert run_cli(["train", "--kb", str(ws["kb"])]) == 1
    assert "corpus" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_exits_two(ws, capsys):
    assert run_cli(["train", "--data", str(ws["bundle"]), "--epochs", "1",
                    "--learning-rate", "1e160", *FAST_FLAGS[2:]]) == 2
    assert "aborted" in capsys.readouterr().err


# ---------------------------------------------------------------- generate

def test_generate_prints_one_text_line(ws, capsys):
    argv = ["generate", "--kb", str(ws["kb"]), "--checkpoint",
            str(ws["model"]), "--text", f"tell me about {ws['entity']}"]
    assert run_cli(argv) == 0
    first = capsys.readouterr().out
    assert first.endswith("\n") and len(first.splitlines()) == 1
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == first  # greedy decoding determinism


def test_generate_accepts_context_file(ws, tmp_path, capsys):
    ctx = tmp_path / "ctx.json"
    ctx.write_text(json.dumps(
        {"utterances": [f"tell me about {ws['entity']}"]}))
    assert run_cli(["generate", "--kb", str(ws["kb"]), "--checkpoint",
                    str(ws["model"]), "--context", str(ctx)]) == 0
    from_file = capsys.readouterr().out
    assert run_cli(["generate", "--kb", str(ws["kb"]), "--checkpoint",
                    str(ws["model"]),
                    "--text", f"tell me about {ws['entity']}"]) == 0
    assert capsys.readouterr().out == from_file


def test_generate_beam_strategy_works(ws, capsys):
    assert run_cli(["generate", "--data", str(ws["trained"]),
                    "--text", f"tell me about {ws['entity']}",
                    "--strategy", "beam:2", "--max-len", "6"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1


def test_generate_max_len_beyond_position_table_exits_one(ws, capsys):
    # the trained model's position table holds 64 rows (--max-seq-len 64)
    assert run_cli(["generate", "--data", str(ws["trained"]),
                    "--text", f"tell me about {ws['entity']}",
                    "--max-len", "65"]) == 1
    assert "max_len 65 outside [1, 64]" in capsys.readouterr().err


def test_generate_unknown_strategy_exits_one(ws, capsys):
    assert run_cli(["generate", "--data", str(ws["trained"]),
                    "--text", "hi", "--strategy", "bogus"]) == 1
    assert "strategy" in capsys.readouterr().err


def test_generate_without_checkpoint_exits_one(ws, capsys):
    assert run_cli(["generate", "--kb", str(ws["kb"]), "--text", "hi"]) == 1
    assert "checkpoint" in capsys.readouterr().err


def test_generate_without_context_exits_one(ws, capsys):
    assert run_cli(["generate", "--data", str(ws["trained"])]) == 1
    assert "context" in capsys.readouterr().err


# ---------------------------------------------------------------- evaluate

def test_evaluate_bundle_from_stdin(ws, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(ws["trained"].read_text()))
    assert run_cli(["evaluate", "--data", "-"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == METRIC_KEYS
    assert all(0.0 <= doc[k] or k == "nist" for k in doc)


def test_evaluate_from_separate_files_matches_bundle(ws, capsys):
    assert run_cli(["evaluate", "--data", str(ws["trained"])]) == 0
    from_bundle = json.loads(capsys.readouterr().out)
    assert run_cli(["evaluate", "--kb", str(ws["kb"]),
                    "--corpus", str(ws["corpus"]),
                    "--checkpoint", str(ws["model"])]) == 0
    assert json.loads(capsys.readouterr().out) == from_bundle


def test_evaluate_without_corpus_exits_one(ws, capsys):
    assert run_cli(["evaluate", "--kb", str(ws["kb"]),
                    "--checkpoint", str(ws["model"])]) == 1
    assert "corpus" in capsys.readouterr().err


# ---------------------------------------------- dump-attention / export-reps

def test_dump_attention_reports_tuples_and_gates(ws, capsys):
    assert run_cli(["dump-attention", "--data", str(ws["trained"]),
                    "--text", f"tell me about {ws['entity']}"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"tuples", "relation_attention", "fusion_r_t",
                        "fusion_r_h"}
    assert doc["tuples"], "entity 0 carries a near-relation to walk"
    attn = np.asarray(doc["relation_attention"])
    np.testing.assert_allclose(attn.sum(axis=1), 1.0, atol=1e-9)
    r_t, r_h = np.asarray(doc["fusion_r_t"]), np.asarray(doc["fusion_r_h"])
    np.testing.assert_allclose(r_t + r_h, 1.0, atol=1e-9)


def test_dump_attention_without_tuples_gives_nulls(ws, capsys):
    assert run_cli(["dump-attention", "--data", str(ws["trained"]),
                    "--text", "hello hello hello"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tuples"] == []
    assert doc["relation_attention"] is None
    assert doc["fusion_r_t"] is None and doc["fusion_r_h"] is None


def test_export_reps_writes_one_line_per_pair(ws, capsys):
    assert run_cli(["export-reps", "--data", str(ws["trained"])]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    for line in lines:
        doc = json.loads(line)
        composed = np.asarray(doc["composed"])
        truth = np.asarray(doc["ground_truth"])
        assert composed.shape == truth.shape == (2, 8)


# ----------------------------------------------------------- pipe plumbing

def test_synth_train_evaluate_compose_over_pipes(capsys, monkeypatch):
    """The bundle document makes `synth | train | evaluate` a real pipeline;
    this drives it in-process by feeding each stage's stdout to the next."""
    assert run_cli(["synth", "--seed", "5", "--entities", "10",
                    "--pairs", "4"]) == 0
    synth_out = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(synth_out))
    assert run_cli(["train", "--data", "-", "--epochs", "1",
                    *FAST_FLAGS]) == 0
    train_out = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(train_out))
    assert run_cli(["evaluate", "--data", "-"]) == 0
    assert set(json.loads(capsys.readouterr().out)) == METRIC_KEYS


# ------------------------------------------------------ malformed documents

def _checkpoint(ws, **fields):
    doc = json.loads(ws["model"].read_text())
    doc.update(fields)
    return doc


def _param_entry(ws, entry):
    doc = json.loads(ws["model"].read_text())
    doc["params"]["fusion.a"] = entry
    return doc


def _generate(ws, checkpoint_path):
    return ["generate", "--kb", str(ws["kb"]), "--checkpoint", checkpoint_path,
            "--text", "hi"]


def _with_context(ws, context_path):
    return ["generate", "--kb", str(ws["kb"]), "--checkpoint",
            str(ws["model"]), "--context", context_path]


def _train_on(ws, corpus_path):
    return ["train", "--kb", str(ws["kb"]), "--corpus", corpus_path,
            "--epochs", "1", *FAST_FLAGS]


def _with_config(ws, **fields):
    doc = json.loads(ws["model"].read_text())
    doc["config"].update(fields)
    return doc


def _param_value(ws, name, value):
    doc = json.loads(ws["model"].read_text())
    doc["params"][name]["data"][0] = value
    return doc


def _image_row(ws, value):
    """An image-feature row of the workspace KB's width, led by ``value``."""
    width = max(len(e["image_features"][0]) for e in
                json.loads(ws["kb"].read_text()) if e.get("image_features"))
    return [value] + [0.5] * (width - 1)


TINY_TENSORS = {"dim": 2, "mlp_hidden": 1, "enc_blocks": 100_000}

# Each builds the argv of one command given a document of the wrong JSON
# type, a non-finite number or a size beyond any allocation; ``w(name,
# doc)`` writes the document and returns its path.
MALFORMED = {
    "corpus line not an object":
        lambda ws, w: _train_on(ws, w("c.jsonl", "[1, 2]\n")),
    "bundle corpus an object":
        lambda ws, w: ["train", "--data", w("b.json", {
            "kb": json.loads(ws["kb"].read_text()), "corpus": {"a": 1}}),
            "--epochs", "1", *FAST_FLAGS],
    "bundle checkpoint a list":
        lambda ws, w: ["generate", "--data", w("b.json", {
            "kb": json.loads(ws["kb"].read_text()), "checkpoint": [1, 2]}),
            "--text", "hi"],
    "checkpoint file a list":
        lambda ws, w: _generate(ws, w("k.json", [1])),
    "checkpoint config a list":
        lambda ws, w: _generate(ws, w("k.json", _checkpoint(ws, config=[1]))),
    "checkpoint vocab a number":
        lambda ws, w: _generate(ws, w("k.json", _checkpoint(ws, vocab=5))),
    "checkpoint params entry a list":
        lambda ws, w: _generate(ws, w("k.json", _param_entry(ws, [1]))),
    "checkpoint params shape a number":
        lambda ws, w: _generate(ws, w("k.json", _param_entry(
            ws, {"shape": 3, "data": [0.0]}))),
    "context utterance a number":
        lambda ws, w: _with_context(ws, w("x.json", {"utterances": [1]})),
    "corpus utterance a number":
        lambda ws, w: _train_on(ws, w("c.jsonl", json.dumps(
            {"context_utterances": [1], "response": "ok"}))),
    "kb image features a number":
        lambda ws, w: ["ingest", "--kb", w("kb.json", [
            {"name": "A", "image_features": 5}])],
    "kb image features flat":
        lambda ws, w: ["ingest", "--kb", w("kb.json", [
            {"name": "A", "image_features": [1, 2]}])],
    # the same rules, on the other fields the readers take
    "kb attributes a number":
        lambda ws, w: ["ingest", "--kb", w("kb.json", [
            {"name": "A", "attributes": 5}])],
    "kb image feature an object":
        lambda ws, w: ["ingest", "--kb", w("kb.json", [
            {"name": "A", "image_features": [[{}]]}])],
    "corpus image features an object":
        lambda ws, w: _train_on(ws, w("c.jsonl", json.dumps(
            {"context_utterances": ["hi"], "response": "ok",
             "context_image_features": {"a": 1}}))),
    "context image features a number":
        lambda ws, w: _with_context(ws, w("x.json", {
            "utterances": ["hi"], "image_features": 5})),
    "context feature_files a number":
        lambda ws, w: _with_context(ws, w("x.json", {
            "utterances": ["hi"], "feature_files": 5})),
    "context feature file a number":
        lambda ws, w: _with_context(ws, w("x.json", {
            "utterances": ["hi"], "feature_files": [w("f.json", 5)]})),
    "checkpoint feature_dim a string":
        lambda ws, w: _generate(ws, w("k.json",
                                      _checkpoint(ws, feature_dim="8"))),
    "checkpoint params a number":
        lambda ws, w: _generate(ws, w("k.json", _checkpoint(ws, params=5))),
    "checkpoint params data not numbers":
        lambda ws, w: _generate(ws, w("k.json", _param_entry(
            ws, {"shape": [8, 1], "data": [{}] * 8}))),  # fusion.a, D x 1
    # non-finite numbers, which json reads as NaN and Infinity
    "checkpoint param value NaN":
        lambda ws, w: _generate(ws, w("k.json", _param_value(
            ws, "head.w_y", float("nan")))),
    "checkpoint param value an int beyond float":
        lambda ws, w: _generate(ws, w("k.json", _param_value(
            ws, "head.w_y", 10 ** 400))),
    "context image feature NaN":
        lambda ws, w: _with_context(ws, w("x.json", {
            "utterances": ["hi"], "image_features": [_image_row(
                ws, float("nan"))]})),
    "context image feature Infinity":
        lambda ws, w: _with_context(ws, w("x.json", {
            "utterances": ["hi"], "image_features": [_image_row(
                ws, float("inf"))]})),
    "corpus image feature -Infinity":
        lambda ws, w: _train_on(ws, w("c.jsonl", json.dumps(
            {"context_utterances": ["hi"], "response": "ok",
             "context_image_features": [_image_row(ws, -float("inf"))]}))),
    "kb image feature NaN":
        lambda ws, w: ["ingest", "--kb", w("kb.json", [
            {"name": "A", "image_features": [[float("nan"), 1.0]]}])],
    "kb image feature an int beyond float":
        lambda ws, w: ["ingest", "--kb", w("kb.json", [
            {"name": "A", "image_features": [[10 ** 400, 1.0]]}])],
    # JSON strings and booleans are not numbers, though numpy reads them so
    "kb image features strings and booleans":
        lambda ws, w: ["ingest", "--kb", w("kb.json", [
            {"name": "A", "image_features": [["1.5", True], ["2", False]]}])],
    "corpus image feature a string":
        lambda ws, w: _train_on(ws, w("c.jsonl", json.dumps(
            {"context_utterances": ["hi"], "response": "ok",
             "context_image_features": [_image_row(ws, "1.5")]}))),
    "context image feature a boolean":
        lambda ws, w: _with_context(ws, w("x.json", {
            "utterances": ["hi"], "image_features": [_image_row(ws, True)]})),
    # sizes beyond the address space, against a checkpoint of a few KB
    "checkpoint dim 1e7":
        lambda ws, w: _generate(ws, w("k.json", _with_config(ws, dim=10**7))),
    "checkpoint enc_blocks 1e8":
        lambda ws, w: _generate(ws, w("k.json", _with_config(
            ws, enc_blocks=10**8))),
    "checkpoint feature_dim 1e13":
        lambda ws, w: _generate(ws, w("k.json", _checkpoint(
            ws, feature_dim=10**13))),
    # 1.1M tensors of a few values each: an allocation of 21 MiB, but a
    # Python object per tensor
    "train config of 1.1M tiny tensors":
        lambda ws, w: ["train", "--data", str(ws["bundle"]), "--epochs", "1",
                       "--config", w("cfg.json", TINY_TENSORS)],
    "checkpoint config of 1.1M tiny tensors":
        lambda ws, w: _generate(ws, w("k.json", _with_config(
            ws, **TINY_TENSORS))),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_document_exits_one_without_traceback(ws, tmp_path, capsys,
                                                        case):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        return str(path)

    argv = MALFORMED[case](ws, write)
    started = time.monotonic()
    with address_space_cap():
        assert run_cli(argv) == 1
    assert time.monotonic() - started < 1.0
    err = capsys.readouterr().err
    assert err.startswith("kgdialog: error:"), err
    assert "Traceback" not in err and len(err.splitlines()) == 1, err


# Nested deeper than the JSON decoder can recurse.
DEEP = "[" * 100_000 + "]" * 100_000

# Each builds the argv of one command reading DEEP as one document; ``w``
# writes it and returns its path. The value names the document.
NESTED = {
    "ingest --kb":
        (lambda ws, w: ["ingest", "--kb", w("kb.json")], "kb.json"),
    "train --kb":
        (lambda ws, w: ["train", "--kb", w("kb.json"), "--corpus",
                        str(ws["corpus"]), "--epochs", "1", *FAST_FLAGS],
         "kb.json"),
    "corpus line":
        (lambda ws, w: _train_on(ws, w("c.jsonl")), "corpus line 1"),
    "checkpoint":
        (lambda ws, w: _generate(ws, w("k.json")), "k.json"),
    "bundle":
        (lambda ws, w: ["train", "--data", w("b.json"), "--epochs", "1",
                        *FAST_FLAGS], "b.json"),
}


@pytest.mark.parametrize("case", list(NESTED))
def test_deeply_nested_document_exits_one_naming_it(ws, tmp_path, capsys,
                                                    case):
    def write(name):
        path = tmp_path / name
        path.write_text(DEEP)
        return str(path)

    argv, document = NESTED[case]
    assert run_cli(argv(ws, write)) == 1
    err = capsys.readouterr().err
    assert err.startswith("kgdialog: error:"), err
    assert len(err.splitlines()) == 1 and document in err


# The argv of every command that reads --kb, given the KB file's path.
KB_COMMANDS = {
    "ingest": lambda ws, kb: ["ingest", "--kb", kb],
    "walk": lambda ws, kb: ["walk", "--kb", kb, "--seed", "A"],
    "retrieve": lambda ws, kb: ["retrieve", "--kb", kb, "--text", "hi"],
    "train": lambda ws, kb: ["train", "--kb", kb, "--corpus",
                             str(ws["corpus"]), "--epochs", "1", *FAST_FLAGS],
    "generate": lambda ws, kb: ["generate", "--kb", kb, "--checkpoint",
                                str(ws["model"]), "--text", "hi"],
    "evaluate": lambda ws, kb: ["evaluate", "--kb", kb, "--checkpoint",
                                str(ws["model"]), "--corpus",
                                str(ws["corpus"])],
    "dump-attention": lambda ws, kb: ["dump-attention", "--kb", kb,
                                      "--checkpoint", str(ws["model"]),
                                      "--text", "hi"],
    "export-reps": lambda ws, kb: ["export-reps", "--kb", kb, "--checkpoint",
                                   str(ws["model"]), "--corpus",
                                   str(ws["corpus"])],
}


@pytest.mark.parametrize("text, message", [
    ("{not json", "malformed {}: "),
    (json.dumps([{"nom": "A"}]), "{}: entity at position 0 needs"),
])
@pytest.mark.parametrize("command", list(KB_COMMANDS))
def test_kb_error_names_its_file(ws, tmp_path, capsys, command, text,
                                 message):
    path = tmp_path / "kb.json"
    path.write_text(text)
    assert run_cli(KB_COMMANDS[command](ws, str(path))) == 1
    err = capsys.readouterr().err
    assert err.startswith("kgdialog: error: " + message.format(path)), err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("key", ["config", "vocab", "feature_dim", "params"])
def test_checkpoint_missing_key_is_named(ws, tmp_path, capsys, key):
    doc = json.loads(ws["model"].read_text())
    del doc[key]
    path = tmp_path / "k.json"
    path.write_text(json.dumps(doc))
    assert run_cli(_generate(ws, str(path))) == 1
    err = capsys.readouterr().err
    assert err == f"kgdialog: error: {path}: checkpoint has no {key!r} key\n"


def test_bundle_record_error_names_its_index(ws, tmp_path, capsys):
    bundle = json.loads(ws["bundle"].read_text())
    del bundle["corpus"][2]["context_utterances"]
    path = tmp_path / "b.json"
    path.write_text(json.dumps(bundle))
    assert run_cli(["train", "--data", str(path), "--epochs", "1",
                    *FAST_FLAGS]) == 1
    assert capsys.readouterr().err == (
        f"kgdialog: error: {path}: corpus[2]: record needs non-empty "
        "context_utterances\n")


FEATURES_ERROR = ("image features must be a list of equal-length vectors of "
                  "finite numbers")


@pytest.mark.parametrize("case", ["utterance", "feature file", "--features"])
def test_context_error_names_its_document(ws, tmp_path, capsys, case):
    ctx, feats = tmp_path / "ctx.json", tmp_path / "f.json"
    feats.write_text("[1]")
    doc = {"utterances": ["hi"]}
    argv = _with_context(ws, str(ctx))
    if case == "utterance":
        doc["utterances"] = [1]
        named, message = ctx, "dialog utterances must be strings"
    elif case == "feature file":
        doc["feature_files"] = [str(feats)]
        named, message = feats, FEATURES_ERROR
    else:
        argv += ["--features", str(feats)]
        named, message = feats, FEATURES_ERROR
    ctx.write_text(json.dumps(doc))
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == f"kgdialog: error: {named}: {message}\n"


def _bundle(ws, name, **fields):
    doc = json.loads(ws[name].read_text())
    doc.update(fields)
    return doc


# Each builds the argv of a command given ``w(name, doc)``, which writes one
# bad document and returns its path, with the file the error must name and
# the reader's message that must follow it.
BAD_DOCUMENTS = {
    "--kb": (lambda ws, w: ["generate", "--kb", w("kb.json", [{"nom": "A"}]),
                            "--checkpoint", str(ws["model"]), "--text", "hi"],
             "kb.json", 'entity at position 0 needs a string "name"'),
    "--corpus": (lambda ws, w: _train_on(ws, w("c.jsonl", "[1, 2]\n")),
                 "c.jsonl", "corpus line 1: record must be a JSON object"),
    "--checkpoint": (lambda ws, w: _generate(ws, w("k.json", {
        k: v for k, v in _checkpoint(ws).items() if k != "vocab"})),
        "k.json", "checkpoint has no 'vocab' key"),
    "--context": (lambda ws, w: _with_context(ws, w("x.json", {
        "utterances": ["hi", 1]})),
        "x.json", "dialog utterances must be strings"),
    "--features": (lambda ws, w: _generate(ws, str(ws["model"])) + [
        "--features", w("f.json", [1])], "f.json", FEATURES_ERROR),
    "bundle kb": (lambda ws, w: ["train", "--data", w("b.json", _bundle(
        ws, "bundle", kb=[{"nom": "A"}])), "--epochs", "1", *FAST_FLAGS],
        "b.json", 'entity at position 0 needs a string "name"'),
    "bundle corpus record": (lambda ws, w: ["train", "--data", w(
        "b.json", _bundle(ws, "bundle", corpus=[
            _bundle(ws, "bundle")["corpus"][0], [1, 2]])),
        "--epochs", "1", *FAST_FLAGS],
        "b.json", "corpus[1]: record must be a JSON object"),
    "bundle checkpoint": (lambda ws, w: ["generate", "--data", w(
        "b.json", _bundle(ws, "trained",
                          checkpoint=_with_config(ws, dim="x"))),
        "--text", "hi"],
        "b.json", "config field 'dim' must be int, got 'x'"),
    "--config": (lambda ws, w: ["train", "--data", str(ws["bundle"]),
                                "--config", w("cfg.json", {"dim": "x"}),
                                "--epochs", "1", *FAST_FLAGS[2:]],
                 "cfg.json", "config field 'dim' must be int, got 'x'"),
    "--config not an object": (lambda ws, w: [
        "train", "--data", str(ws["bundle"]), "--config", w("cfg.json", [8])],
        "cfg.json", "--config file must hold a JSON object"),
}


@pytest.mark.parametrize("case", list(BAD_DOCUMENTS))
def test_reader_error_names_its_document(ws, tmp_path, capsys, case):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        return str(path)

    argv, name, message = BAD_DOCUMENTS[case]
    assert run_cli(argv(ws, write)) == 1
    assert capsys.readouterr().err == (
        f"kgdialog: error: {tmp_path / name}: {message}\n")
