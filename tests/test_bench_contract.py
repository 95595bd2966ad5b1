"""The calls that perfbench's tracer relies on.

``perfbench/tracer.py`` reports per-layer metrics by wrapping named package
functions; a traced run counts one operation per ``DialogModel.loss_pair``
or ``generate_response`` call, graph nodes at each backward, and decoder
prefix rows from ``decode_states``' positional argument 2. A refactor that
renames one of these or stops calling it leaves the benchmark's metrics
null. ``perfbench/checks.py`` verifies the benchmark's outputs through the
model API (``compose_context``, ``teacher_predictions``, ``acquire`` and
``loss_pair``), so a signature break there fails every benchmark run.
Its brute-force walk is the oracle the ``dense_kb`` run holds the tuples
to; it runs here on generated graphs, dense and with dead ends, so a walk
that disagrees with it fails these tests before it fails a benchmark run.
These tests load both files read-only and check each contract.
"""
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from kgdialog import decoder
from kgdialog.acquire import DialogContext
from kgdialog.autodiff import Tensor
from kgdialog.config import TrainingConfig
from kgdialog.corpus import make_synthetic_corpus
from kgdialog.model import build_model, build_vocabulary
from kgdialog.training import train_model

from helpers import dense_adjacency, kb_of

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

CFG = TrainingConfig(dim=8, enc_blocks=1, dec_blocks=1, n_latent=2,
                     mlp_hidden=8, epochs=2, batch_size=2, seed=0,
                     max_seq_len=64, max_gen_len=5)


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:  # leave no bytecode cache beside the benchmark's files
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


@pytest.fixture(scope="module")
def tracer_module():
    return _load_perfbench("tracer")


@pytest.fixture(scope="module")
def checks_module():
    return _load_perfbench("checks")


@pytest.fixture(scope="module")
def corpus():
    syn = make_synthetic_corpus(seed=0, n_entities=6, n_pairs=3)
    vocab = build_vocabulary(
        [list(p.context.text_tokens) + list(p.response) for p in syn.pairs],
        syn.kb)
    return syn, vocab


def test_every_tracer_target_resolves(tracer_module):
    for name, spec in tracer_module.TARGETS:
        owner, attr, fn = tracer_module._resolve(spec)
        assert callable(fn), name


def test_train_model_calls_loss_pair_once_per_pair_and_epoch(tracer_module,
                                                             corpus):
    syn, vocab = corpus
    model = build_model(vocab, syn.kb, CFG)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        train_model(model, syn.pairs, CFG, log_every=0)
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    reduced = tracer.reduce(0)
    expected = len(syn.pairs) * CFG.epochs
    assert reduced["ops"] == reduced["calls"]["model.loss_pair"] == expected
    assert tracer.counts["backward_calls"] == expected
    assert tracer.counts["graph_nodes"] > 0


def _traced(tracer_module, run):
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        run()
    finally:
        tracer.uninstall()
    return tracer.reduce(0)["calls"]


def test_traced_training_spans_compose_and_encodes_once_per_pair(
        tracer_module, corpus):
    """The composer and regularizer metrics divide these spans by the
    pairs: each ``loss_pair`` composes once, encodes its tuples once and
    encodes its response once."""
    syn, vocab = corpus
    model = build_model(vocab, syn.kb, CFG)
    calls = _traced(tracer_module,
                    lambda: train_model(model, syn.pairs, CFG, log_every=0))
    assert calls["model.loss_pair"] == len(syn.pairs) * CFG.epochs
    for name in ("composer.compose", "composer.tuple_encode",
                 "regularizer.truth_encode"):
        assert calls[name] == calls["model.loss_pair"], name


def test_first_acquire_over_a_fresh_kb_reaches_the_traced_build_graph(
        tracer_module):
    """``kb.build_graph_ms`` times the graph a knowledge base builds on its
    first walk, which the workloads' warm-up request makes under the
    tracer; later acquisitions reuse the graph."""
    syn = make_synthetic_corpus(seed=0, n_entities=6, n_pairs=3)
    vocab = build_vocabulary([list(p.response) for p in syn.pairs], syn.kb)
    model = build_model(vocab, syn.kb, CFG)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for pair in syn.pairs:
            model.acquire(pair.context)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("acquire.acquire") == len(syn.pairs)
    assert names.count("kb.build_graph") == 1


@pytest.mark.parametrize("strategy", ["greedy", "beam:2"])
def test_traced_reply_spans_compose_and_tuple_encode_once(
        tracer_module, corpus, strategy):
    syn, vocab = corpus
    model = build_model(vocab, syn.kb, CFG)
    calls = _traced(tracer_module, lambda: model.generate_response(
        syn.pairs[0].context, strategy=strategy))
    assert calls["model.generate_response"] == 1
    assert calls["composer.compose"] == calls["composer.tuple_encode"] == 1


@pytest.mark.parametrize("strategy", ["greedy", "beam:2"])
def test_generate_response_passes_prefix_rows_as_argument_2(
        corpus, monkeypatch, strategy):
    syn, vocab = corpus
    model = build_model(vocab, syn.kb, CFG)
    calls = []
    real = decoder.decode_states

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(decoder, "decode_states", recording)
    model.generate_response(syn.pairs[0].context, strategy=strategy)
    assert calls
    for args, kwargs in calls:
        assert len(args) > 2 and "E_y" not in kwargs
        E_y = args[2]
        assert isinstance(E_y, Tensor) and E_y.shape[0] >= 1
        assert E_y.shape[1] == CFG.dim


def test_benchmark_output_checks_pass_on_a_tiny_model(checks_module, corpus):
    """Each output check the benchmark runs after its timed loop accepts
    the replies, walk and gradients of a working model."""
    syn, vocab = corpus
    model = build_model(vocab, syn.kb, CFG)
    seed = syn.kb_doc[0]["name"]  # slot 0 carries a near-relation
    ctx = DialogContext.from_utterances([f"what is near {seed}"], [])
    adjacency = {ent["name"]: [(a["type"], a["value"])
                               for a in ent["attributes"]]
                 for ent in syn.kb_doc}
    greedy = model.generate_response(ctx)
    beam = model.generate_response(ctx, strategy="beam:2")
    assert checks_module.check_greedy(model, ctx, greedy,
                                      CFG.max_gen_len) is None
    assert checks_module.check_beam(model, ctx, beam, 2,
                                    CFG.max_gen_len) is None
    assert checks_module.check_walk(model, ctx, adjacency, seed,
                                    CFG.max_hops, CFG.max_tuples) is None
    assert checks_module.check_gradients(model, syn.pairs[0]) is None


def test_reference_beam_floors_log_probabilities_like_the_decoder(
        checks_module):
    """``check_beam``'s reference beam keeps its own copy of the floor under
    its log-probabilities. A decoder floor that moved alone would score
    hypotheses differently and mark correct replies incorrect."""
    assert checks_module.LOG_FLOOR == decoder.LOG_FLOOR


def _dead_end_adjacency(seed=0):
    """12 entities with 0-3 attributes each, valued by entities or by
    three plain values that head no edge: many paths end early, and
    repeated values and self-references occur."""
    rng = np.random.default_rng(seed)
    names = [f"e{i:03d}" for i in range(12)]
    values = names + ["v0", "v1", "v2"]
    return {name: [(f"r{k}", str(rng.choice(values)))
                   for k in range(int(rng.integers(0, 4)))]
            for name in names}


@pytest.mark.parametrize("adjacency, max_hops, max_tuples, capped", [
    (dense_adjacency(12, 4), 3, 10, True),  # 4 > 3 out-neighbours each
    (_dead_end_adjacency(), 4, 1000, False),
], ids=["dense", "dead ends"])
def test_benchmark_walk_check_passes_on_generated_graphs(
        checks_module, adjacency, max_hops, max_tuples, capped):
    kb = kb_of(adjacency)
    vocab = build_vocabulary([["what", "is", "around", *adjacency]], kb)
    model = build_model(vocab, kb, CFG.replace(max_hops=max_hops,
                                               max_tuples=max_tuples))
    for seed in adjacency:
        ctx = DialogContext.from_utterances([f"what is around {seed}"])
        assert checks_module.check_walk(model, ctx, adjacency, seed,
                                        max_hops, max_tuples) is None
        every = checks_module.maximal_paths(adjacency, seed, max_hops, None)
        assert (len(every) > max_tuples) == capped
