"""Tests for model assembly, checkpointing, and the end-to-end forward paths."""
import dataclasses
import gc
import hashlib
import json
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import address_space_cap, dense_adjacency, kb_of, \
    max_rel_error
from kgdialog import autodiff as ad
from kgdialog import kb as kb_module
from kgdialog import model as model_module
from kgdialog.acquire import (AcquisitionConfig, DialogContext,
                              acquire_text_attributes, tokenize,
                              walk_relations)
from kgdialog.composer import (AttentionParams, Vocabulary,
                               linearize_attributes, linearize_tuple,
                               prepare_context)
from kgdialog.config import TrainingConfig
from kgdialog.corpus import (DialogPair, make_relation_ablation,
                             make_synthetic_corpus)
from kgdialog.kb import AttributeValuePair, Entity, KnowledgeBase
from kgdialog.model import (DialogModel, build_model, build_vocabulary,
                            checkpoint_doc, init_params, model_from_doc,
                            param_plan, param_tree, params_from_doc,
                            params_to_doc, save_checkpoint)
from kgdialog.training import train_model


def _reload(path, kb):
    """The model of a checkpoint file that ``save_checkpoint`` wrote."""
    return model_from_doc(json.loads(path.read_text()), kb)


CFG = TrainingConfig(dim=8, enc_blocks=1, dec_blocks=1, n_latent=2,
                     mlp_hidden=12, max_seq_len=64, seed=5)


@pytest.fixture(scope="module")
def kb():
    rng = np.random.default_rng(2)
    feats = rng.normal(size=(1, 4))
    feats /= np.linalg.norm(feats)
    return KnowledgeBase([
        Entity("Wisma Atria",
               (AttributeValuePair("domain", "mall"),
                AttributeValuePair("location", "435 Orchard Road")),
               feats),
        Entity("Inaniwa Yosuke",
               (AttributeValuePair("domain", "restaurant"),
                AttributeValuePair("near", "Wisma Atria")),
               np.zeros((0, 0))),
    ])


@pytest.fixture(scope="module")
def vocab(kb):
    return build_vocabulary([["what", "is", "the", "domain", "of"]], kb)


@pytest.fixture
def model(vocab, kb):
    return build_model(vocab, kb, CFG)


CTX = DialogContext(("what", "is", "the", "domain", "of", "inaniwa",
                     "yosuke"))
RESPONSE = ("the", "domain", "is", "restaurant")


def _attention_reads(node):
    """Every ``AttentionParams`` in a parameter tree, depth first."""
    if isinstance(node, AttentionParams):
        yield node
    elif isinstance(node, tuple):
        for child in node:
            yield from _attention_reads(child)
    elif dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            yield from _attention_reads(getattr(node, f.name))


def _tensor_fields(node, field=None):
    """(field name, tensor) of every tensor in a parameter tree, depth
    first in field order."""
    if isinstance(node, ad.Tensor):
        yield field, node
    elif isinstance(node, tuple):
        for child in node:
            yield from _tensor_fields(child)
    elif dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            yield from _tensor_fields(getattr(node, f.name), f.name)


def _named_equal(a, b):
    an, bn = a.named(), b.named()
    assert an.keys() == bn.keys()
    return all(np.array_equal(an[k].data, bn[k].data) for k in an)


# KB text of punctuation, spaces and an accented letter; the pool makes
# values name entities often, so walks run past one hop
_KB_TEXT = st.one_of(
    st.sampled_from(["O'Brien's", "Jean-Luc Café", "a  b", "Road-7", "x",
                     "B.B. King"]),
    st.text(alphabet="aBé '-.", min_size=1, max_size=10).filter(str.strip))


def _generated_kb(kind, seed):
    """The KB of a corpus generator, or a graph of ``site NNN`` entities
    like the dense benchmark's, each with six attributes naming others."""
    if kind == "synthetic":
        return make_synthetic_corpus(seed).kb
    if kind == "ablation":
        return make_relation_ablation(seed)[0]
    return kb_of({f"site {head[1:]}": [(label, f"site {tail[1:]}")
                                       for label, tail in pairs]
                  for head, pairs in dense_adjacency(40, 6, seed).items()})


class TestVocabularyBuild:
    def test_covers_both_linearization_styles(self, vocab, kb):
        """KB strings reach the vocabulary through the tokenizer, which both
        linearizations (attribute runs and relation tuple entries) read."""
        for tok in ("wisma", "atria", "435", "orchard", "road", "mall"):
            assert vocab.index(tok) != vocab.UNK, tok

    def test_corpus_tokens_present(self, vocab):
        assert vocab.index("what") != vocab.UNK

    @given(st.lists(st.tuples(
        st.sampled_from(["Wisma Atria", "near", "Mall", "it's 5pm!",
                         "a  b", "Road-7", "x"]),
        st.lists(st.tuples(st.sampled_from(["near", "domain", "Mall"]),
                           st.sampled_from(["Wisma Atria", "x", "ROAD 7",
                                            "it's 5pm!", "mall"])),
                 max_size=4)),
        min_size=1, max_size=6, unique_by=lambda e: e[0]))
    @settings(max_examples=60, deadline=None)
    def test_equals_per_occurrence_formula(self, entities):
        """Splitting each distinct KB string once gives the vocabulary of
        splitting every occurrence, on KBs that repeat their strings."""
        kb = KnowledgeBase(Entity(name, tuple(AttributeValuePair(t, v)
                                              for t, v in attrs))
                           for name, attrs in entities)
        corpus = [["what", "is", "near"]]
        tokens = {"what", "is", "near"}
        for ent in kb:
            for s in [ent.name] + [x for p in ent.attributes
                                   for x in (p.attribute_type, p.value)]:
                tokens.update(tokenize(s))
        assert build_vocabulary(corpus, kb).tokens == Vocabulary(tokens).tokens

    def test_an_entity_reaches_both_views_as_the_same_ids(self):
        """An attribute value that names an entity with an apostrophe and a
        hyphen is read as the same ids in the attribute view and in the
        walked relation tuple."""
        name = "O'Brien's Bar-Grill"
        kb = KnowledgeBase([
            Entity("harbour view", (AttributeValuePair("near", name),)),
            Entity(name, (AttributeValuePair("domain", "pub"),))])
        vocab = build_vocabulary([["what", "is", "near"]], kb)
        prepared = build_model(vocab, kb, CFG).prepare(
            DialogContext(("what", "is", "near", "harbour", "view")))
        value = vocab.encode(tokenize(name))
        assert len(value) == 8 and vocab.UNK not in value
        assert prepared.knowledge_ids == (vocab.encode(["near", ":"]) + value
                                          + vocab.encode([";"]))
        assert prepared.tuple_ids == (vocab.encode(["harbour", "view", "near"])
                                      + value + vocab.encode(["domain", "pub"]))

    @given(st.lists(st.tuples(_KB_TEXT, st.lists(st.tuples(_KB_TEXT, _KB_TEXT),
                                                 max_size=3)),
                    min_size=1, max_size=5, unique_by=lambda e: e[0]))
    @settings(max_examples=60, deadline=None)
    def test_walked_tuples_read_the_tokenizer_with_no_unk(self, entities):
        """Each entry of every walked tuple reaches the encoder as the ids of
        its tokenizer pieces, none of them ``<unk>``, whatever punctuation,
        spacing and accented letters the KB strings hold."""
        kb = KnowledgeBase(Entity(name, tuple(AttributeValuePair(t, v)
                                              for t, v in attrs))
                           for name, attrs in entities)
        vocab = build_vocabulary([["what"]], kb)
        tuples = walk_relations(kb.graph, [name for name, _ in entities],
                                AcquisitionConfig(max_hops=3))
        prepared = prepare_context([], [], np.zeros((0, 0)), tuples, vocab,
                                   10_000)
        ids = iter(prepared.tuple_ids)
        for t, n in zip(tuples, prepared.tuple_lengths):
            assert [next(ids) for _ in range(n)] == [
                i for entry in t.entries for i in vocab.encode(tokenize(entry))]
        assert vocab.UNK not in prepared.tuple_ids

    @pytest.mark.parametrize("kind, seed", [
        ("synthetic", 0), ("synthetic", 7), ("synthetic", 901),
        ("ablation", 0), ("ablation", 905), ("sites", 901), ("sites", 3)])
    def test_generated_kbs_keep_the_two_split_vocabulary(self, kind, seed):
        """Generated KB strings are lowercase words and digits, which the
        tokenizer splits as whitespace does. So on them the one-split
        vocabulary equals the former rule's, which added both splits of
        every KB string (written out here), and every walked tuple keeps
        the ids of its former whitespace split."""
        kb = _generated_kb(kind, seed)
        corpus = [["what", "is", "around"]]
        vocab = build_vocabulary(corpus, kb)
        tokens = set(corpus[0])
        for ent in kb:
            for s in [ent.name] + [x for p in ent.attributes
                                   for x in (p.attribute_type, p.value)]:
                tokens.update(tokenize(s))
                tokens.update(w.lower() for w in s.split())
        assert vocab.tokens == Vocabulary(tokens).tokens
        tuples = walk_relations(kb.graph, [ent.name for ent in kb][:8],
                                AcquisitionConfig(max_hops=2, max_tuples=64))
        assert tuples
        for t in tuples:
            assert vocab.encode(linearize_tuple(t)) == vocab.encode(
                [w for entry in t.entries for w in entry.split()])


class TestInitParams:
    def test_seeded_and_deterministic(self, vocab, kb):
        a = init_params(len(vocab), kb.feature_dim, CFG)
        b = init_params(len(vocab), kb.feature_dim, CFG)
        assert _named_equal(a, b)

    def test_seed_changes_weights(self, vocab, kb):
        a = init_params(len(vocab), kb.feature_dim, CFG)
        b = init_params(len(vocab), kb.feature_dim, CFG.replace(seed=6))
        assert not np.array_equal(a.table.token.data, b.table.token.data)

    def test_within_init_range(self, vocab, kb):
        params = init_params(len(vocab), kb.feature_dim, CFG)
        assert np.abs(params.table.token.data).max() <= 0.08

    def test_layer_norm_identity_start(self, vocab, kb):
        params = init_params(len(vocab), kb.feature_dim, CFG)
        block = params.encoder[0]
        np.testing.assert_array_equal(block.ln1_gain.data, 1.0)
        np.testing.assert_array_equal(block.ln1_bias.data, 0.0)

    def test_draws_equal_per_tensor_draws_straight_into_the_buffer(
            self, vocab, kb):
        """The same bits as drawing each tensor into an array of its own
        (uniform weights, unit gains, zero biases, in ``named()`` order),
        with every parameter a view of the buffer's values."""
        params = build_model(vocab, kb, CFG).params
        rng = np.random.default_rng(CFG.seed)
        for name, t in params.named().items():
            if name.endswith(".gain"):
                want = np.ones(t.shape)
            elif name.endswith(".bias"):
                want = np.zeros(t.shape)
            else:
                want = rng.uniform(-0.08, 0.08, t.shape)
            assert np.array_equal(t.data, want), name
            assert t.data.base is params.buffer.values, name

    def test_named_map_stable_and_complete(self, vocab, kb):
        a = init_params(len(vocab), kb.feature_dim, CFG)
        names = list(a.named())
        assert names == list(init_params(len(vocab), kb.feature_dim,
                                         CFG).named())
        assert len(names) == len(set(names))
        assert len(a.buffer.tensors) == len(names)
        # every tensor requires a gradient: all are trainable
        assert all(t.requires_grad for t in a.buffer.tensors)

    @given(vocab_size=st.integers(5, 9), feature_dim=st.integers(0, 3),
           dim=st.integers(2, 5), enc_blocks=st.integers(0, 3),
           dec_blocks=st.integers(0, 3), n_latent=st.integers(1, 3),
           mlp_hidden=st.none() | st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_plan_agrees_with_the_tree(self, vocab_size, feature_dim,
                                       **sizes):
        """The plan's arithmetic counts are the buffer's size and the
        number of names, and each tree field holds the tensor of its name:
        field ``ln1_gain`` the tensor ``*.ln1.gain``, and so on."""
        cfg = TrainingConfig(max_seq_len=4, max_gen_len=4, **sizes)
        _, count, size = param_plan(vocab_size, feature_dim, cfg)
        params = param_tree(vocab_size, feature_dim, cfg)
        assert size == params.buffer.values.size
        assert count == len(params.named())
        fields = list(_tensor_fields(params))
        assert len(fields) == count
        for (field, t), (name, u) in zip(fields, params.named().items()):
            assert t is u, name
            assert (name.replace(".", "_").endswith(field)
                    or (field, name) == ("P_g", "latent.queries")), name

    @pytest.mark.parametrize("cfg, sha256", [
        (CFG, "4e3b91c85c267b9ef3c39961b8d69b877f482d2513cd98c159350faa2b0497f0"),
        (CFG.replace(enc_blocks=0, dec_blocks=3, mlp_hidden=None),
         "212433a882367779ba05d9dd052fb4fc173a40e4844c146c3b574f29072dbf4a"),
    ])
    def test_fixed_seed_checkpoint_bytes_are_pinned(self, vocab, kb, tmp_path,
                                                    cfg, sha256):
        """The names, their order, the shapes and the draws of a fixed-seed
        model, pinned by its checkpoint's bytes."""
        path = tmp_path / "ckpt.json"
        save_checkpoint(build_model(vocab, kb, cfg), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


class TestCheckpointDocs:
    def test_param_doc_round_trip_bit_exact(self, vocab, kb):
        a = init_params(len(vocab), kb.feature_dim, CFG)
        doc = json.loads(json.dumps(params_to_doc(a.named())))
        b = init_params(len(vocab), kb.feature_dim, CFG.replace(seed=9))
        params_from_doc(b.named(), doc)
        assert _named_equal(a, b)

    def test_missing_and_extra_names_rejected(self, vocab, kb):
        a = init_params(len(vocab), kb.feature_dim, CFG)
        doc = params_to_doc(a.named())
        broken = dict(doc)
        broken.pop("fusion.a")
        broken["bogus"] = {"shape": [1, 1], "data": [0.0]}
        with pytest.raises(ValueError, match="missing.*extra"):
            params_from_doc(a.named(), broken)

    def test_shape_mismatch_rejected(self, vocab, kb):
        a = init_params(len(vocab), kb.feature_dim, CFG)
        doc = params_to_doc(a.named())
        doc["fusion.a"]["shape"] = [1, 1]
        doc["fusion.a"]["data"] = [0.0]
        with pytest.raises(ValueError, match="shape"):
            params_from_doc(a.named(), doc)

    def test_full_checkpoint_file_round_trip(self, model, kb, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path)
        loaded = _reload(path, kb)
        assert _named_equal(model.params, loaded.params)
        assert loaded.vocab.tokens == model.vocab.tokens
        assert loaded.cfg == model.cfg
        # byte-identical re-serialization: the format is canonical
        save_checkpoint(loaded, tmp_path / "ckpt2.json")
        assert (tmp_path / "ckpt.json").read_bytes() == \
            (tmp_path / "ckpt2.json").read_bytes()

    def test_loading_draws_no_initialization(self, model, kb, tmp_path,
                                             monkeypatch):
        """A load fills the parameter tree from the file without drawing
        a random initialization first."""
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path)

        def refuse(*args, **kwargs):
            raise AssertionError("init_params called by a checkpoint load")

        monkeypatch.setattr(model_module, "init_params", refuse)
        loaded = _reload(path, kb)
        assert _named_equal(model.params, loaded.params)
        assert all(t.data.base is loaded.params.buffer.values
                   for t in loaded.params.buffer.tensors)

    def test_unrecognized_format_rejected(self, kb, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="not a recognized"):
            _reload(path, kb)

    def test_feature_dim_mismatch_rejected(self, model, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path)
        other = KnowledgeBase([
            Entity("X", (AttributeValuePair("domain", "bar"),),
                   np.ones((1, 9)))])
        with pytest.raises(ValueError, match="feature_dim"):
            _reload(path, other)


class TestDialogModel:
    def test_acquisition_keeps_no_context_alive(self, model):
        ctx = DialogContext(CTX.text_tokens)
        model.acquire(ctx)
        model.compose_context(ctx)
        ref = weakref.ref(ctx)
        del ctx
        gc.collect()
        assert ref() is None

    def test_models_do_not_share_attention_scaling(self, vocab, kb):
        """Building a model with the other attention scaling must leave an
        existing model's outputs bit-identical."""
        scaled = build_model(vocab, kb, CFG.replace(attn_scale=True))
        before = scaled.teacher_predictions(CTX, RESPONSE)[0].data.copy()
        plain = build_model(vocab, kb, CFG.replace(attn_scale=False))
        after = scaled.teacher_predictions(CTX, RESPONSE)[0].data
        np.testing.assert_array_equal(after, before)
        assert not np.array_equal(
            plain.teacher_predictions(CTX, RESPONSE)[0].data, before)

    @pytest.mark.parametrize("scale", [False, True])
    def test_every_attention_read_scales_as_configured(self, vocab, kb,
                                                        tmp_path, scale):
        """Every attention read of a built model, and of one loaded from a
        checkpoint, carries the configured scaling: per encoder block, the
        relation read, both semantic projections, the self, knowledge and
        encoder reads per decoder block, and the enhancement read."""
        cfg = CFG.replace(enc_blocks=2, dec_blocks=2, attn_scale=scale)
        built = build_model(vocab, kb, cfg)
        save_checkpoint(built, tmp_path / "ckpt.json")
        for model in (built, _reload(tmp_path / "ckpt.json", kb)):
            reads = list(_attention_reads(model.params))
            assert len(reads) == 2 + 1 + 2 + 3 * 2 + 1
            assert [a.scale for a in reads] == [scale] * len(reads)

    def test_generation_may_not_outgrow_position_table(self, vocab, kb):
        with pytest.raises(ValueError, match="max_gen_len"):
            CFG.replace(max_seq_len=40, max_gen_len=41)
        m = build_model(vocab, kb, CFG.replace(max_seq_len=40,
                                               max_gen_len=40))
        # forbid the end token so every decode runs to max_len
        m.params.decoder.head.b_y.data[0, m.vocab.EOS] = -1e9
        for strategy in ("greedy", "beam:2"):
            assert len(m.generate_response(CTX, strategy=strategy)) == 40
            for bad in (0, 41):
                with pytest.raises(ValueError, match=f"max_len {bad} outside"):
                    m.generate_response(CTX, max_len=bad, strategy=strategy)

    def test_acquire_matches_direct_route(self, model, kb):
        knowledge, tuples = model.acquire(CTX)
        direct = acquire_text_attributes(CTX, kb)
        assert {ap.key() for ap in knowledge} >= {ap.key() for ap in direct}
        # the mention seeds a walk that finds the 2-hop chain
        entries = {t.entries for t in tuples}
        assert ("Inaniwa Yosuke", "near", "Wisma Atria", "domain",
                "mall") in entries

    def test_relations_disabled_yields_none(self, vocab, kb):
        m = build_model(vocab, kb, CFG.replace(use_relations=False))
        _, tuples = m.acquire(CTX)
        assert tuples == ()
        comp = m.compose_context(CTX)
        assert comp.T_c is comp.T_t

    @staticmethod
    def _counting_graph_builds(monkeypatch):
        """The knowledge bases ``kb.build_graph`` is called on, in order,
        through any module of the package that binds it."""
        built = []
        real = kb_module.build_graph

        def counting(kb):
            built.append(kb)
            return real(kb)

        for name, module in list(sys.modules.items()):
            if (name.startswith("kgdialog")
                    and getattr(module, "build_graph", None) is real):
                monkeypatch.setattr(module, "build_graph", counting)
        return built

    def test_models_and_a_walk_over_one_kb_share_one_graph(
            self, vocab, kb, monkeypatch):
        built = self._counting_graph_builds(monkeypatch)
        fresh = KnowledgeBase(kb)
        models = [build_model(vocab, fresh, CFG.replace(seed=seed))
                  for seed in (1, 2)]
        for m in models:
            m.acquire(CTX)
            m.generate_response(CTX, max_len=2)
        walked = walk_relations(fresh.graph, {"Inaniwa Yosuke"},
                                CFG.acquisition)
        assert walked == models[0].acquire(CTX)[1]
        assert built == [fresh]

    def test_relations_disabled_builds_no_graph(self, vocab, kb,
                                                monkeypatch):
        built = self._counting_graph_builds(monkeypatch)
        m = build_model(vocab, KnowledgeBase(kb),
                        CFG.replace(use_relations=False))
        m.acquire(CTX)
        m.loss_pair(CTX, RESPONSE)[0].backward()
        m.generate_response(CTX, max_len=2)
        assert built == []

    @pytest.mark.parametrize("run", [
        lambda m: m.loss_pair(CTX, RESPONSE),
        lambda m: m.teacher_predictions(CTX, RESPONSE, "truth"),
    ], ids=["loss_pair", "teacher_predictions"])
    def test_a_teacher_forced_pass_encodes_its_response_once(
            self, model, monkeypatch, run):
        responses = []
        real = Vocabulary.encode

        def recording(vocab, tokens):
            if tuple(tokens) == RESPONSE:
                responses.append(tokens)
            return real(vocab, tokens)

        monkeypatch.setattr(Vocabulary, "encode", recording)
        run(model)
        assert len(responses) == 1

    def test_loss_pair_structure(self, model):
        loss, parts = model.loss_pair(CTX, RESPONSE)
        assert set(parts) == {"ce", "reg", "total"}
        assert parts["ce"] > 0 and parts["reg"] >= 0
        assert np.isfinite(parts["total"])
        # the L2 penalty is left to the optimizer (its weight decay)
        assert CFG.beta > 0
        assert parts["total"] == (CFG.lam * parts["ce"]
                                  + CFG.gamma * parts["reg"])
        assert loss.item() == parts["total"]

    def test_loss_pair_graph_size(self, model):
        """One node per layer, per attention read and per fusion scorer:
        at this config a pair builds at most 45 op nodes."""
        loss, _ = model.loss_pair(CTX, RESPONSE)
        ops = [n for n in ad.topo_order(loss) if n._backward is not None]
        assert len(ops) <= 45

    def test_backward_frees_the_pair_graph(self, model):
        """Once ``loss.backward()`` has run, every op output of the pair's
        graph below the loss (the composed ``T_c`` among them) is collected
        while ``loss`` is still held, and the parameter gradients of that
        backward pass the finite-difference check. Tensors take no weak
        references, so each op output is watched through its values, which
        it holds."""
        loss, _ = model.loss_pair(CTX, RESPONSE)
        ops = [weakref.ref(n.data) for n in ad.topo_order(loss)
               if n._backward is not None and n is not loss]
        assert len(ops) > 40
        loss.backward()
        gc.collect()
        assert [r() for r in ops if r() is not None] == []
        assert loss.grad[0, 0] == 1.0
        named = model.params.named()
        checked = [named[n] for n in ("fusion.a", "head.b_y",
                                      "encoder.0.ln1.gain", "latent.queries")]
        grads = [t.grad.copy() for t in checked]
        err = max_rel_error(lambda: model.loss_pair(CTX, RESPONSE)[0],
                            checked)
        assert err < 1e-4
        for t, g in zip(checked, grads):
            np.testing.assert_array_equal(t.grad, g)

    def test_loss_pair_takes_cross_entropy_from_the_head_logits(self, model):
        """The cross-entropy node's one parent is the output head's linear
        node, and no softmax node is in the training graph."""
        loss, parts = model.loss_pair(CTX, RESPONSE)
        ops = {n: n._backward.__qualname__.split(".")[0]
               for n in ad.topo_order(loss) if n._backward is not None}
        (ce,) = [n for n, op in ops.items() if op == "cross_entropy_loss"]
        assert ce.item() == parts["ce"]
        (logits,) = ce._parents
        head = model.params.decoder.head
        assert ops[logits] == "linear"
        assert logits._parents[1:] == (head.w_y, head.b_y)
        assert "softmax_rows" not in ops.values()

    def test_greedy_without_decoder_blocks_follows_teacher_argmax(self):
        """dec_blocks=0 is a valid config: each cached step embeds its token
        at its own position, so a greedy reply is the argmax path of the
        teacher-forced distributions and ends where </s> wins."""
        syn = make_synthetic_corpus(0, 6, 6)
        vocab = build_vocabulary([list(p.context.text_tokens)
                                  + list(p.response) for p in syn.pairs],
                                 syn.kb)
        cfg = TrainingConfig(dim=8, enc_blocks=1, dec_blocks=0, n_latent=2,
                             mlp_hidden=12, max_seq_len=64, seed=5)
        model = build_model(vocab, syn.kb, cfg)
        max_len = 8
        for pair in syn.pairs:
            reply = model.generate_response(pair.context, max_len=max_len)
            ids = vocab.encode(reply)
            # one extra token, so that the row after the reply is predicted
            probs, _, _ = model.teacher_predictions(
                pair.context, vocab.decode(ids + [vocab.UNK]),
                enhance_with="composed")
            wanted = ids + ([vocab.EOS] if len(ids) < max_len else [])
            for step, token in enumerate(wanted):
                row = probs.data[step]
                assert row[token] >= row.max() - 1e-9, (pair.context, step)

    def test_prepared_knowledge_gives_the_same_loss(self, model):
        prepared = model.prepare(CTX)
        assert prepared.knowledge_ids == model.vocab.encode(
            linearize_attributes(model.acquire(CTX)[0]))
        assert prepared.context_ids == model.vocab.encode(CTX.text_tokens)
        a, _ = model.loss_pair(CTX, RESPONSE)
        b, _ = model.loss_pair(CTX, RESPONSE, prepared)
        assert a.item() == b.item()

    def test_teacher_predictions_shapes(self, model):
        probs, targets, T_sem = model.teacher_predictions(CTX, RESPONSE)
        assert probs.shape == (len(RESPONSE) + 1, len(model.vocab))
        assert targets == model.vocab.encode(RESPONSE) + [model.vocab.EOS]
        assert T_sem.shape == (CFG.n_latent, CFG.dim)
        np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, atol=1e-9)

    def test_enhancement_paths_equal_iff_same_matrix(self, model):
        """Training enhances with the ground-truth-side matrix, inference
        with the composed-side one; forcing them equal must collapse the
        two paths bit-exactly."""
        p_truth, _, m_truth = model.teacher_predictions(
            CTX, RESPONSE, enhance_with="truth")
        p_comp, _, m_comp = model.teacher_predictions(
            CTX, RESPONSE, enhance_with="composed")
        assert not np.array_equal(m_truth.data, m_comp.data)
        assert not np.array_equal(p_truth.data, p_comp.data)

        original = model.semantic_truth
        try:
            comp = model.compose_context(CTX)
            model.semantic_truth = lambda ids: model.semantic_composed(comp)
            p_forced, _, m_forced = model.teacher_predictions(
                CTX, RESPONSE, enhance_with="truth", comp=comp)
        finally:
            model.semantic_truth = original
        np.testing.assert_array_equal(m_forced.data, m_comp.data)
        np.testing.assert_array_equal(p_forced.data, p_comp.data)

    def test_bad_enhance_mode(self, model):
        with pytest.raises(ValueError):
            model.teacher_predictions(CTX, RESPONSE, enhance_with="noise")

    def test_empty_response_rejected(self, model):
        with pytest.raises(ValueError):
            model.teacher_predictions(CTX, ())

    def test_teacher_forcing_past_position_table_raises(self, model):
        """The start marker plus the response needs one decoder position
        per token: one more than the table holds raises."""
        fits = ("the",) * (CFG.max_seq_len - 1)
        assert model.teacher_predictions(CTX, fits)[0].shape[0] == \
            CFG.max_seq_len
        with pytest.raises(ValueError):
            model.teacher_predictions(CTX, fits + ("the",))

    def test_generate_deterministic(self, model):
        a = model.generate_response(CTX, max_len=6)
        b = model.generate_response(CTX, max_len=6)
        assert a == b
        assert all(isinstance(t, str) for t in a)

    def test_export_representations(self, model):
        doc = model.export_representations(CTX, RESPONSE)
        assert set(doc) == {"composed", "ground_truth"}
        assert np.asarray(doc["composed"]).shape == (CFG.n_latent, CFG.dim)
        assert np.asarray(doc["ground_truth"]).shape == (CFG.n_latent,
                                                         CFG.dim)

    def test_loss_reflects_checkpoint_round_trip(self, model, kb, tmp_path):
        """A reloaded model is behaviorally identical, not just numerically
        equal in storage."""
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path)
        reloaded = _reload(path, kb)
        a = model.loss_pair(CTX, RESPONSE)[1]["total"]
        b = reloaded.loss_pair(CTX, RESPONSE)[1]["total"]
        assert a == b


class TestModelFromDoc:
    def test_round_trip_via_doc(self, model, kb):
        doc = json.loads(json.dumps(checkpoint_doc(model), sort_keys=True))
        rebuilt = model_from_doc(doc, kb)
        assert _named_equal(model.params, rebuilt.params)

    def test_synthetic_kb_smoke(self):
        syn = make_synthetic_corpus(seed=3, n_entities=8, n_pairs=4)
        vocab = build_vocabulary(
            [list(p.context.text_tokens) + list(p.response)
             for p in syn.pairs], syn.kb)
        m = build_model(vocab, syn.kb, CFG)
        loss, parts = m.loss_pair(syn.pairs[0].context, syn.pairs[0].response)
        assert np.isfinite(parts["total"])


CONFIG_INTS = [f.name for f in dataclasses.fields(TrainingConfig)
               if f.type in ("int", "int | None")]


@pytest.fixture(scope="module")
def small_doc(vocab, kb):
    return json.loads(json.dumps(checkpoint_doc(build_model(vocab, kb, CFG))))


def test_tensor_count_past_the_limit_is_refused_before_any_tensor(
        monkeypatch):
    """A plan of many tiny blocks fits its allocation but not the tensor
    limit: ``param_tree`` names the count and cuts no tensor."""
    cfg = TrainingConfig(dim=2, mlp_hidden=1, enc_blocks=100_000)
    _, count, _ = param_plan(9, 0, cfg)
    assert count > model_module.MAX_PARAM_TENSORS
    _, default_count, _ = param_plan(9, 0, TrainingConfig())
    assert default_count * 100 < model_module.MAX_PARAM_TENSORS

    def cut(*args):
        raise AssertionError("tensors were made")

    monkeypatch.setattr(ad.ParamBuffer, "__init__", cut)
    with pytest.raises(ValueError, match=f"a model of {count} parameter "
                                         f"tensors is more than"):
        param_tree(9, 0, cfg)


@given(st.dictionaries(st.sampled_from(CONFIG_INTS),
                       st.integers(-1, 2 ** 62), min_size=1, max_size=3))
@settings(max_examples=200, deadline=250)
def test_checkpoint_config_sizes_raise_only_value_error(small_doc, kb,
                                                        overrides):
    """A real checkpoint whose config ints are redrawn, up to 2^62: a load
    builds the model or raises ValueError, and allocates nothing the file
    does not hold."""
    doc = dict(small_doc, config={**small_doc["config"], **overrides})
    try:
        with address_space_cap():
            loaded = model_from_doc(doc, kb)
    except ValueError:
        return
    assert loaded.params.buffer.values.size == sum(
        len(e["data"]) for e in small_doc["params"].values())


def test_context_past_position_table_trains_and_generates(caplog):
    """Text plus image rows longer than the position table: the text is cut
    so the image rows keep their positions, each cut warns once, and the
    knowledge warning fires only when knowledge tokens are dropped."""
    cfg = TrainingConfig(dim=8, enc_blocks=1, dec_blocks=1, n_latent=2,
                         max_seq_len=16, max_gen_len=4)
    syn = make_synthetic_corpus(1)
    vocab = build_vocabulary([list(p.context.text_tokens) + list(p.response)
                              for p in syn.pairs], syn.kb)
    model = build_model(vocab, syn.kb, cfg)
    image = syn.pairs[7].context.image_features
    mentions = syn.pairs[2].context.text_tokens  # 14 tokens naming an entity
    for n_text in (15, 16, 20):
        for words in (("the",) * n_text,
                      mentions + ("the",) * (n_text - len(mentions))):
            ctx = DialogContext(words, np.repeat(image, 2, axis=0))
            knowledge = len(linearize_attributes(model.acquire(ctx)[0]))
            want = [f"embed_tokens: truncating {n_text} tokens to 14"]
            if knowledge:
                want.append(f"compose: truncating knowledge tokens "
                            f"{knowledge} -> 0")
            caplog.clear()
            with caplog.at_level("WARNING", logger="kgdialog"):
                reply = model.generate_response(ctx)
                result = train_model(model, [DialogPair(ctx, ("a", "gym"))],
                                     cfg.replace(epochs=1), log_every=0)
            assert len(reply) <= cfg.max_gen_len
            assert np.isfinite(result.epoch_losses).all()
            assert [r.getMessage() for r in caplog.records] == want * 2


def test_zero_norm_context_image_selects_nothing_and_the_reply_proceeds(
        model, kb):
    """A zero-norm context image has no cosine with any entity image, so it
    selects no entity, while another image of the context still does."""
    seen = kb["Wisma Atria"].image_features
    for images, selected in ((np.zeros((1, 4)), set()),
                             (np.vstack([np.zeros((1, 4)), seen]),
                              {"Wisma Atria"})):
        ctx = DialogContext(CTX.text_tokens, images)
        knowledge, _ = model.acquire(ctx)
        assert {ap.source_entity for ap in knowledge
                if ap.provenance == "visual"} == selected
        assert len(model.generate_response(ctx, max_len=3)) <= 3


def test_context_image_of_another_width_is_refused_naming_both_widths(
        model):
    ctx = DialogContext(CTX.text_tokens, np.ones((2, 5)))
    with pytest.raises(ValueError, match=r"^context image width 5 != "
                                         r"knowledge base image width 4$"):
        model.generate_response(ctx, max_len=3)


def test_reply_memory_does_not_grow_with_the_tuple_count():
    """One reply over a dense graph at max_tuples 512 (3,584 tuple rows)
    peaks at under 3 MiB of traced memory and under twice the peak at 64:
    the tuple encoder's intermediates are bounded per pass. Encoding all
    tuples in one call peaked at 13.2 MB against 1.8 MB at 64."""
    kb = kb_of(dense_adjacency(60, 10))
    ctx = DialogContext(("what", "is", "near", "e007"))
    vocab = build_vocabulary([ctx.text_tokens], kb)
    peaks = {}
    for max_tuples in (64, 512):
        cfg = TrainingConfig(dim=64, enc_blocks=1, dec_blocks=1, n_latent=2,
                             max_hops=3, max_tuples=max_tuples, max_gen_len=2)
        model = build_model(vocab, kb, cfg)
        model.generate_response(ctx)  # builds what the model keeps
        assert len(model.prepare(ctx).tuples) == max_tuples
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            model.generate_response(ctx)
            peaks[max_tuples] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert peaks[512] < 3 * 2 ** 20
    assert peaks[512] < 2 * peaks[64]


def test_no_grad_in_another_thread_leaves_this_one_recording(model):
    """Grad mode is per thread: while a worker sits inside ``no_grad``, a
    loss built in this thread still records its graph."""
    inside, release = threading.Event(), threading.Event()

    def worker():
        with ad.no_grad():
            inside.set()
            release.wait(10)

    thread = threading.Thread(target=worker)
    thread.start()
    try:
        assert inside.wait(10)
        loss, _ = model.loss_pair(CTX, RESPONSE)
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()
    assert loss.requires_grad


def test_interleaved_no_grad_in_two_threads_restores_grad_mode(model):
    """Two threads enter ``no_grad`` and leave it in the order enter,
    enter, exit, exit; afterwards this thread still records graphs. (With
    one process-wide flag the second thread saved the first one's False
    and restored it last.)"""
    step = threading.Barrier(2, timeout=10)

    def worker():
        step.wait()  # this thread is inside
        with ad.no_grad():
            step.wait()  # both are inside
            step.wait()  # this thread has left

    thread = threading.Thread(target=worker)
    thread.start()
    try:
        with ad.no_grad():
            step.wait()
            step.wait()
        step.wait()
    finally:
        thread.join(10)
    assert not thread.is_alive()
    loss, _ = model.loss_pair(CTX, RESPONSE)
    assert loss.requires_grad
