"""Tests for embedding, encoding, context preparation, and knowledge
composition."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgdialog import autodiff as ad
from kgdialog import composer
from kgdialog.acquire import AcquiredPair, RelationTuple
from kgdialog.autodiff import Tensor
from kgdialog.composer import (EmbeddingTable, ImageProjectionParams,
                               Vocabulary, compose, compose_attributes,
                               embed_ids, encode, encode_relation_tuples,
                               fuse, linearize_attributes, linearize_tuple,
                               prepare_context, project_image_features,
                               reorganize_relations)
from kgdialog.config import TrainingConfig
from kgdialog.kb import AttributeValuePair, tokenize
from kgdialog.model import init_params

from helpers import (build_composite_grad_cases, make_attention,
                     make_encoder_block, make_fusion, max_rel_error,
                     walk_rank)

D = 4


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def vocab():
    return Vocabulary(["the", "mall", "near", "wisma", "atria", "domain",
                       ":", ";", "big"])


@pytest.fixture
def table(rng):
    return EmbeddingTable(
        token=Tensor(rng.normal(size=(13, D)), requires_grad=True),
        position=Tensor(rng.normal(size=(20, D)), requires_grad=True))


# ----------------------------------------------------------------- vocabulary

class TestVocabulary:
    def test_reserved_head(self, vocab):
        assert vocab.tokens[:4] == ["<pad>", "<s>", "</s>", "<unk>"]
        assert (vocab.PAD, vocab.BOS, vocab.EOS, vocab.UNK) == (0, 1, 2, 3)

    def test_real_tokens_sorted(self, vocab):
        real = vocab.tokens[4:]
        assert real == sorted(real)

    def test_lookup_case_insensitive(self, vocab):
        assert vocab.encode(["MALL"]) == vocab.encode(["mall"]) != [vocab.UNK]

    def test_unknown_maps_to_unk(self, vocab):
        assert vocab.encode(["zebra"]) == [vocab.UNK]

    def test_encode_decode_round_trip(self, vocab):
        tokens = ["the", "mall", "near", "wisma"]
        assert vocab.decode(vocab.encode(tokens)) == tokens

    def test_needs_real_token(self):
        with pytest.raises(ValueError):
            Vocabulary([])

    @given(st.lists(st.text(alphabet="abcd", min_size=1, max_size=4),
                    min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_insertion_order_irrelevant(self, tokens):
        a = Vocabulary(tokens)
        b = Vocabulary(list(reversed(tokens)))
        assert a.tokens == b.tokens


# -------------------------------------------------------------- linearization

def _knowledge(*entries):
    return tuple(AcquiredPair(e, AttributeValuePair(t, v), "textual")
                 for e, t, v in entries)


class TestLinearizeAttributes:
    def test_pattern(self):
        k = _knowledge(("Wisma Atria", "domain", "mall"))
        assert linearize_attributes(k) == ["domain", ":", "mall", ";"]

    def test_multiword_value_and_count(self):
        k = _knowledge(("A", "location", "435 Orchard Road"),
                       ("A", "domain", "mall"))
        tokens = linearize_attributes(k)
        # per pair: type tokens + ':' + value tokens + ';'
        assert tokens == ["location", ":", "435", "orchard", "road", ";",
                          "domain", ":", "mall", ";"]

    def test_empty(self):
        assert linearize_attributes(()) == []


class TestLinearizeTuple:
    def test_linearize_single_word_entries(self):
        assert linearize_tuple(RelationTuple(("A", "near", "B"))) == [
            "a", "near", "b"]

    def test_linearize_splits_multiword_entries(self):
        t = RelationTuple(("Inaniwa Yosuke", "near", "Wisma Atria"))
        assert linearize_tuple(t) == ["inaniwa", "yosuke", "near", "wisma",
                                      "atria"]

    def test_linearize_token_count_matches_recount(self):
        t = RelationTuple(("O'Brien's Bar", "near by", "Wisma Atria",
                           "domain of", "Jean-Luc Café"))
        assert linearize_tuple(t)[:7] == ["o", "'", "brien", "'", "s", "bar",
                                          "near"]
        assert len(linearize_tuple(t)) == sum(len(tokenize(e))
                                              for e in t.entries)


# ------------------------------------------------------------------ embedding

class TestEmbedding:
    def test_sum_of_token_and_position_rows(self, vocab, table):
        tokens = ["the", "mall"]
        ids = vocab.encode(tokens)
        E = embed_ids(ids, table)
        expect = table.token.data[ids] + table.position.data[:2]
        np.testing.assert_allclose(E.data, expect)

    def test_offset_shifts_positions(self, vocab, rng):
        """Context rows take the positions after the knowledge rows, image
        rows the ones after both: with no encoder block and no tuple, T_c is
        each segment's token (or projected image) rows plus those
        positions."""
        params = _composer_params(rng, n_blocks=0)
        feats = np.random.default_rng(1).normal(size=(2, 3))
        comp = _compose(params, vocab, ["domain", ":", "mall"],
                        ["the", "big"], feats, [])
        token, position = params.table.token.data, params.table.position.data
        ids = vocab.encode(["domain", ":", "mall", "the", "big"])
        np.testing.assert_array_equal(comp.T_c.data[:5],
                                      token[ids] + position[:5])
        np.testing.assert_array_equal(
            comp.T_c.data[5:],
            project_image_features(feats, params.image_proj).data
            + position[5:7])

    def test_empty_tokens(self, vocab, table):
        assert embed_ids([], table).shape == (0, D)

    def test_truncates_past_position_table(self, vocab, table, caplog):
        tokens = ["mall"] * 25
        with caplog.at_level("WARNING"):
            E = embed_ids(vocab.encode(tokens), table)
        assert E.shape == (20, D)
        assert "truncating" in caplog.text

    def test_cuts_to_the_positions_left_after_the_offset(self, vocab, table,
                                                         caplog):
        ids = vocab.encode(["mall"] * 10)
        with caplog.at_level("WARNING"):
            E = embed_ids(ids, table, offset=15)
        assert caplog.messages == ["embed_tokens: truncating 10 tokens to 5"]
        np.testing.assert_array_equal(
            E.data, table.token.data[ids[:5]] + table.position.data[15:])



class TestImageProjection:
    def _proj(self, rng, fdim):
        return ImageProjectionParams(
            w=Tensor(rng.normal(size=(fdim, D)), requires_grad=True),
            b=Tensor(rng.normal(size=(1, D)), requires_grad=True),
            gain=Tensor(np.ones((1, D)), requires_grad=True),
            bias=Tensor(np.zeros((1, D)), requires_grad=True))

    def test_matches_numpy(self, rng):
        proj = self._proj(rng, 3)
        feats = rng.normal(size=(2, 3))
        got = project_image_features(feats, proj).data
        lin = feats @ proj.w.data + proj.b.data
        mu = lin.mean(axis=1, keepdims=True)
        var = lin.var(axis=1, keepdims=True)
        expect = (lin - mu) / np.sqrt(var + 1e-5)
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_empty_features(self, rng):
        proj = self._proj(rng, 3)
        assert project_image_features(np.zeros((0, 0)), proj).shape == (0, D)

    def test_dim_mismatch(self, rng):
        proj = self._proj(rng, 3)
        with pytest.raises(ValueError):
            project_image_features(np.zeros((2, 5)), proj)


# ------------------------------------------------------------------- encoding

def _np_softmax(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _np_layer_norm(x, gain, bias):
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + 1e-5) * gain + bias


def _np_encoder_block(x, block, scale=False):
    q = x @ block.attn.w_q.data
    k = x @ block.attn.w_k.data
    v = x @ block.attn.w_v.data
    logits = q @ k.T / np.sqrt(x.shape[1]) if scale else q @ k.T
    attn = _np_softmax(logits) @ v
    h = _np_layer_norm(x + attn, block.ln1_gain.data, block.ln1_bias.data)
    m = np.tanh(h @ block.mlp.w1.data + block.mlp.b1.data)
    m = m @ block.mlp.w2.data + block.mlp.b2.data
    return _np_layer_norm(h + m, block.ln2_gain.data, block.ln2_bias.data)


class TestEncode:
    def test_zero_blocks_identity(self, rng):
        x = Tensor(rng.normal(size=(3, D)))
        assert encode(x, ()) is x

    def test_zero_rows_identity(self, rng):
        x = Tensor(np.zeros((0, D)))
        assert encode(x, (make_encoder_block(rng, D, 6),)) is x

    def test_one_block_matches_numpy(self, rng):
        block = make_encoder_block(rng, D, 6)
        x = rng.normal(size=(3, D))
        got = encode(Tensor(x), (block,)).data
        np.testing.assert_allclose(got, _np_encoder_block(x, block),
                                   atol=1e-10)

    def test_two_blocks_compose(self, rng):
        blocks = tuple(make_encoder_block(rng, D, 6) for _ in range(2))
        x = rng.normal(size=(2, D))
        got = encode(Tensor(x), blocks).data
        expect = _np_encoder_block(_np_encoder_block(x, blocks[0]), blocks[1])
        np.testing.assert_allclose(got, expect, atol=1e-10)


class TestComposeAttributes:
    def test_equals_encode_of_concat(self, rng):
        block = make_encoder_block(rng, D, 6)
        E_k = Tensor(rng.normal(size=(2, D)))
        E_t = Tensor(rng.normal(size=(3, D)))
        E_v = Tensor(rng.normal(size=(1, D)))
        got = compose_attributes(E_k, E_t, E_v, (block,)).data
        stacked = np.vstack([E_k.data, E_t.data, E_v.data])
        np.testing.assert_allclose(got, _np_encoder_block(stacked, block),
                                   atol=1e-10)

    def test_empty_segments_skipped(self, rng):
        E_t = Tensor(rng.normal(size=(3, D)))
        empty = Tensor(np.zeros((0, D)))
        got = compose_attributes(empty, E_t, empty, ())
        np.testing.assert_array_equal(got.data, E_t.data)

    def test_width_mismatch(self, rng):
        with pytest.raises(ValueError):
            compose_attributes(Tensor(np.zeros((1, 3))),
                               Tensor(np.zeros((1, D))),
                               Tensor(np.zeros((0, D))), ())

    def test_all_empty_raises(self):
        empty = Tensor(np.zeros((0, D)))
        with pytest.raises(ValueError):
            compose_attributes(empty, empty, empty, ())


# ----------------------------------------------------------- relation encoding

# in the walk's order: shorter first, then lexicographic
TUPLES = (
    RelationTuple(("inaniwa yosuke", "domain", "restaurant")),
    RelationTuple(("wisma atria", "domain", "mall")),
    RelationTuple(("inaniwa yosuke", "near", "wisma atria", "domain", "mall")),
)


# each linearizes past the 20-row position table of the ``table`` fixture
LONG_TUPLES = (
    RelationTuple(("the big mall", "near", "wisma atria domain", "near",
                   "the big mall", "near", "wisma atria domain", "near",
                   "the big mall", "near", "wisma atria")),
    RelationTuple(("wisma atria domain", "near", "the big mall", "near",
                   "wisma atria domain", "near", "the big mall", "near",
                   "wisma atria domain", "near", "the mall")),
)

# nodes for random tuples; "zebra" is out of vocabulary
ORACLE_NODES = ("mall", "wisma atria", "domain", "the big mall", "zebra")


def _chain(nodes):
    """A tuple linking ``nodes`` (two or more) by "near" edges."""
    entries = [nodes[0]]
    for node in nodes[1:]:
        entries += ["near", node]
    return RelationTuple(tuple(entries))


def _np_tuple_rows(tuples, vocab, table, blocks, scale):
    """Per-tuple oracle for T_h: embed each tuple alone, positions from 0
    and cut at the position table, run the numpy encoder, mean the rows."""
    rows = []
    for t in tuples:
        tokens = linearize_tuple(t)[:table.max_len]
        x = (table.token.data[vocab.encode(tokens)]
             + table.position.data[:len(tokens)])
        for block in blocks:
            x = _np_encoder_block(x, block, scale)
        rows.append(x.mean(axis=0))
    return np.array(rows)


def _prepared_tuples(tuples, vocab, max_len=20):
    """A prepared context holding only ``tuples``."""
    return prepare_context([], [], np.zeros((0, 0)), tuples, vocab, max_len)


class TestPrepareContext:
    def test_ids_positions_and_lengths(self, vocab):
        prepared = prepare_context(["domain", ":", "mall"], ("the", "mall"),
                                   np.zeros((0, 0)), TUPLES, vocab, 20)
        assert prepared.knowledge_ids == vocab.encode(["domain", ":", "mall"])
        assert prepared.context_ids == vocab.encode(["the", "mall"])
        assert prepared.tuples == TUPLES
        runs = [linearize_tuple(t) for t in TUPLES]
        assert prepared.tuple_lengths == [len(run) for run in runs]
        assert prepared.tuple_ids == vocab.encode(
            [tok for run in runs for tok in run])
        assert prepared.tuple_positions == [p for run in runs
                                            for p in range(len(run))]

    def test_tuples_keep_the_given_order(self, vocab):
        """The walk decides the order; preparing a context keeps it."""
        prepared = _prepared_tuples(TUPLES[::-1], vocab)
        assert prepared.tuples == TUPLES[::-1]
        assert prepared.tuple_lengths == [len(linearize_tuple(t))
                                          for t in TUPLES[::-1]]


class TestEncodeRelationTuples:
    def test_row_per_tuple_in_order(self, vocab, table, rng):
        block = make_encoder_block(rng, D, 6)
        T_h = encode_relation_tuples(_prepared_tuples(TUPLES, vocab), table,
                                     (block,))
        assert T_h.shape == (3, D)
        # row i is the mean-pooled encoding of the i-th ordered tuple
        for i, t in enumerate(TUPLES):
            E = embed_ids(vocab.encode(linearize_tuple(t)), table)
            row = _np_encoder_block(E.data, block).mean(axis=0)
            np.testing.assert_allclose(T_h.data[i], row, atol=1e-10)

    def test_rows_follow_the_given_order(self, vocab, table, rng):
        block = make_encoder_block(rng, D, 6)
        a = encode_relation_tuples(_prepared_tuples(TUPLES, vocab), table,
                                   (block,))
        b = encode_relation_tuples(_prepared_tuples(TUPLES[::-1], vocab),
                                   table, (block,))
        np.testing.assert_array_equal(a.data[::-1], b.data)

    def test_empty(self, vocab, table):
        T_h = encode_relation_tuples(_prepared_tuples([], vocab), table, ())
        assert T_h.shape == (0, D)

    @pytest.mark.parametrize("tuples", [TUPLES[:1], TUPLES,
                                        TUPLES + LONG_TUPLES])
    def test_one_encoder_call_for_all_tuples(self, vocab, table, rng,
                                             monkeypatch, tuples):
        calls = []
        real_encode = composer.encode

        def counting_encode(*args, **kwargs):
            calls.append(1)
            return real_encode(*args, **kwargs)

        prepared = _prepared_tuples(tuples, vocab)
        monkeypatch.setattr(composer, "encode", counting_encode)
        T_h = encode_relation_tuples(prepared, table,
                                     (make_encoder_block(rng, D, 6),))
        assert T_h.shape == (len(tuples), D)
        assert len(calls) == 1

    def test_packed_rows_match_per_tuple_oracle(self, vocab, table, rng,
                                                caplog):
        blocks = tuple(make_encoder_block(rng, D, 6, scale=True)
                       for _ in range(2))
        tuples = TUPLES + LONG_TUPLES
        with caplog.at_level("WARNING"):
            prepared = _prepared_tuples(tuples, vocab, table.max_len)
        truncations = [r for r in caplog.records
                       if r.getMessage().startswith("embed_tokens: truncating")]
        assert len(truncations) == len(LONG_TUPLES)
        T_h = encode_relation_tuples(prepared, table, blocks)
        np.testing.assert_allclose(
            T_h.data, _np_tuple_rows(tuples, vocab, table, blocks, True),
            rtol=0, atol=1e-10)

    @given(st.lists(st.lists(st.sampled_from(ORACLE_NODES), min_size=2,
                             max_size=5).map(_chain), min_size=1, max_size=8),
           st.integers(0, 2), st.booleans(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_packed_rows_match_oracle_for_any_tuple_set(self, tuples,
                                                        n_blocks, scale,
                                                        seed):
        rng = np.random.default_rng(seed)
        vocab = Vocabulary(["near", "mall", "wisma", "atria", "domain",
                            "the", "big"])
        table = EmbeddingTable(Tensor(rng.normal(size=(len(vocab), D))),
                               Tensor(rng.normal(size=(12, D))))
        blocks = tuple(make_encoder_block(rng, D, 5, scale)
                       for _ in range(n_blocks))
        T_h = encode_relation_tuples(_prepared_tuples(tuples, vocab, 12),
                                     table, blocks)
        np.testing.assert_allclose(
            T_h.data, _np_tuple_rows(tuples, vocab, table, blocks, scale),
            rtol=0, atol=1e-10)

    @pytest.mark.parametrize("lengths,passes", [
        ([96, 96], [[96, 96]]),
        ([96, 97], [[96], [97]]),
        ([100, 200, 50, 150, 10, 20], [[100], [200], [50], [150, 10, 20]]),
    ])
    def test_passes_hold_whole_tuples_of_at_most_the_bound(
            self, rng, monkeypatch, lengths, passes):
        """Each ``encode`` call takes whole tuples of at most
        ``TUPLE_PASS_ROWS`` rows in all (a longer tuple alone), padded to
        the longest tuple of the set."""
        assert composer.TUPLE_PASS_ROWS == 192
        seen = []
        real_encode = composer.encode

        def spy(E, blocks, lengths=None, width=None):
            seen.append((list(lengths), width, E.shape[0]))
            return real_encode(E, blocks, lengths, width)

        monkeypatch.setattr(composer, "encode", spy)
        rows = sum(lengths)
        prepared = composer.PreparedContext(
            [], [], np.zeros((0, 0)), [],
            [int(i) for i in rng.integers(0, 13, size=rows)],
            [p for n in lengths for p in range(n)], lengths)
        table = EmbeddingTable(Tensor(rng.normal(size=(13, D))),
                               Tensor(rng.normal(size=(max(lengths), D))))
        T_h = encode_relation_tuples(prepared, table,
                                     (make_encoder_block(rng, D, 6),))
        assert T_h.shape == (len(lengths), D)
        assert seen == [(p, max(lengths), sum(p)) for p in passes]

    @pytest.mark.parametrize("seed", range(12))
    def test_passes_keep_the_bits_of_one_encoder_call(self, seed):
        """Mixed-length tuple sets of three or more passes give T_h the
        bits of one ``encode`` over all tuples. Widths are multiples of 8:
        where a product's output width is not, OpenBLAS's x86-64 kernels
        can give a row bits that depend on the product's row count, so the
        split alone would move the last bits."""
        rng = np.random.default_rng(seed)
        dim, n_blocks = 8 * int(rng.integers(1, 9)), seed % 3
        vocab = Vocabulary(["near", "mall", "wisma", "atria", "domain",
                            "the", "big"])
        tuples = []
        while sum(len(linearize_tuple(t)) for t in tuples) <= 400:
            tuples.append(_chain(rng.choice(ORACLE_NODES,
                                            size=rng.integers(2, 6))))
        tuples.sort(key=lambda t: walk_rank(t.entries))
        prepared = _prepared_tuples(tuples, vocab)
        table = EmbeddingTable(Tensor(rng.normal(size=(len(vocab), dim))),
                               Tensor(rng.normal(size=(20, dim))))
        blocks = tuple(make_encoder_block(rng, dim, 8 * int(rng.integers(1, 9)),
                                          scale=bool(seed % 2))
                       for _ in range(n_blocks))
        lengths = prepared.tuple_lengths
        assert len(set(lengths)) > 1 and sum(lengths) > 2 * 192
        E = ad.embed(table.token, table.position, prepared.tuple_ids,
                     prepared.tuple_positions)
        np.testing.assert_array_equal(
            encode_relation_tuples(prepared, table, blocks).data,
            ad.mean_rows(encode(E, blocks, lengths), lengths).data)


class TestReorganizeRelations:
    def test_empty_raises(self, rng):
        attn = make_attention(rng, D)
        with pytest.raises(ValueError, match="at least one key"):
            reorganize_relations(Tensor(np.zeros((2, D))),
                                 Tensor(np.zeros((0, D))), attn)

    def test_weight_rows_sum_to_one(self, rng):
        attn = make_attention(rng, D)
        T_t = Tensor(rng.normal(size=(3, D)))
        T_h = Tensor(rng.normal(size=(5, D)))
        out, weights = reorganize_relations(T_t, T_h, attn)
        assert out.shape == (3, D)
        assert weights.shape == (3, 5)
        np.testing.assert_allclose(weights.data.sum(axis=1), 1.0, atol=1e-12)

    def test_single_tuple_weights_are_one(self, rng):
        """With one key the softmax has nothing to choose between."""
        attn = make_attention(rng, D)
        T_t = Tensor(rng.normal(size=(4, D)))
        T_h = Tensor(rng.normal(size=(1, D)))
        out, weights = reorganize_relations(T_t, T_h, attn)
        np.testing.assert_array_equal(weights.data, np.ones((4, 1)))
        expect = np.repeat(T_h.data @ attn.w_v.data, 4, axis=0)
        np.testing.assert_allclose(out.data, expect, atol=1e-12)


class TestFuse:
    def test_gates_sum_to_one(self, rng):
        fusion = make_fusion(rng, D)
        T_t = Tensor(rng.normal(size=(6, D)))
        T_h = Tensor(rng.normal(size=(6, D)))
        r_t, r_h, _ = fuse(T_t, T_h, fusion)
        np.testing.assert_allclose(r_t.data + r_h.data, 1.0, atol=1e-12)
        assert (r_t.data > 0).all() and (r_h.data > 0).all()

    def test_convex_combination(self, rng):
        fusion = make_fusion(rng, D)
        T_t = Tensor(rng.normal(size=(5, D)))
        T_h = Tensor(rng.normal(size=(5, D)))
        _, _, T_c = fuse(T_t, T_h, fusion)
        lo = np.minimum(T_t.data, T_h.data)
        hi = np.maximum(T_t.data, T_h.data)
        assert (T_c.data >= lo - 1e-12).all()
        assert (T_c.data <= hi + 1e-12).all()

    def test_matches_numpy(self, rng):
        fusion = make_fusion(rng, D)
        T_t = rng.normal(size=(3, D))
        T_h = rng.normal(size=(3, D))
        r_t, r_h, T_c = fuse(Tensor(T_t), Tensor(T_h), fusion)
        s_t = np.tanh(T_t @ fusion.w_t.data + fusion.b_t.data) @ fusion.a.data
        s_h = np.tanh(T_h @ fusion.w_h.data + fusion.b_h.data) @ fusion.a.data
        r = _np_softmax(np.hstack([s_t, s_h]))
        np.testing.assert_allclose(r_t.data, r[:, :1], atol=1e-12)
        np.testing.assert_allclose(
            T_c.data, r[:, :1] * T_t + r[:, 1:] * T_h, atol=1e-12)

    def test_shape_mismatch(self, rng):
        fusion = make_fusion(rng, D)
        with pytest.raises(ValueError):
            fuse(Tensor(np.zeros((2, D))), Tensor(np.zeros((3, D))), fusion)

    def test_three_graph_nodes_and_data_only_gates(self, rng):
        """One mlp scorer per side and one gate node, with the forward bits
        of tanh(linear) scores dotted with ``a``: the scorers' zero second
        bias adds exactly."""
        fusion = make_fusion(rng, D)
        T_t, T_h = (Tensor(rng.normal(size=(3, D)), requires_grad=True)
                    for _ in range(2))
        r_t, r_h, T_c = fuse(T_t, T_h, fusion)
        assert len([t for t in ad.topo_order(T_c) if t._backward]) == 3
        for r in (r_t, r_h):
            assert r.shape == (3, 1)
            assert r._parents == () and not r.requires_grad
        f = fusion
        s_t = np.tanh(T_t.data @ f.w_t.data + f.b_t.data) @ f.a.data
        s_h = np.tanh(T_h.data @ f.w_h.data + f.b_h.data) @ f.a.data
        r = ad._softmax(np.concatenate((s_t, s_h), axis=1))
        np.testing.assert_array_equal(r_t.data, r[:, :1])
        np.testing.assert_array_equal(
            T_c.data, T_t.data * r[:, :1] + T_h.data * r[:, 1:])


# ------------------------------------------------------------- full composition

def _composer_params(rng, vocab_size=13, fdim=3, n_blocks=1):
    """A model's parameters at width D with a 20-row position table."""
    cfg = TrainingConfig(dim=D, enc_blocks=n_blocks, mlp_hidden=6,
                         max_seq_len=20, max_gen_len=4,
                         seed=int(rng.integers(2 ** 31)))
    return init_params(vocab_size, fdim, cfg)


def _prepare(params, vocab, knowledge_tokens, ctx_tokens, feats, tuples):
    return prepare_context(knowledge_tokens, ctx_tokens, feats, tuples, vocab,
                           params.table.max_len)


def _compose(params, *args):
    return compose(_prepare(params, *args), params)


def _counts(prepared):
    """The knowledge, context and image rows a prepared context keeps."""
    return (len(prepared.knowledge_ids), len(prepared.context_ids),
            len(prepared.image_features))


class TestCompose:
    def test_no_tuples_means_attribute_view_only(self, vocab, rng):
        params = _composer_params(rng)
        prepared = _prepare(params, vocab, ["domain", ":", "mall", ";"],
                            ["the", "mall"], np.zeros((0, 0)), [])
        comp = compose(prepared, params)
        T_t = compose_attributes(
            comp.E_k, embed_ids(prepared.context_ids, params.table, offset=4),
            project_image_features(prepared.image_features,
                                   params.image_proj), params.encoder)
        np.testing.assert_array_equal(comp.T_c.data, T_t.data)
        assert comp.tuples == ()
        assert comp.relation_attention is None
        assert comp.r_t is None and comp.r_h is None

    def test_position_accounting(self, vocab, rng):
        params = _composer_params(rng)
        feats = np.random.default_rng(1).normal(size=(2, 3))
        prepared = _prepare(params, vocab, ["domain", ":", "mall", ";"],
                            ["the", "mall"], feats, TUPLES)
        comp = compose(prepared, params)
        assert _counts(prepared) == (4, 2, 2)
        assert comp.T_c.shape == (8, D)
        assert comp.E_k.shape == (4, D)

    def test_with_tuples_all_fields(self, vocab, rng):
        params = _composer_params(rng)
        comp = _compose(params, vocab, ["domain", ":", "mall", ";"],
                        ["the", "mall"], np.zeros((0, 0)), TUPLES)
        assert comp.tuples == TUPLES
        assert comp.relation_attention.shape == (6, 3)
        np.testing.assert_allclose(comp.r_t.data + comp.r_h.data, 1.0,
                                   atol=1e-12)

    def test_image_rows_continue_positions(self, vocab, rng):
        """Visual rows get position rows following the text block."""
        params = _composer_params(rng, n_blocks=0)
        feats = np.random.default_rng(1).normal(size=(1, 3))
        comp = _compose(params, vocab, [], ["the"], feats, [])
        projected = project_image_features(feats, params.image_proj).data
        expect = projected + params.table.position.data[1:2]
        np.testing.assert_allclose(comp.T_c.data[1:2], expect, atol=1e-12)

    def test_knowledge_budget_truncation(self, vocab, rng, caplog):
        params = _composer_params(rng)
        with caplog.at_level("WARNING"):
            prepared = _prepare(params, vocab, ["mall"] * 30, ["the", "big"],
                                np.zeros((0, 0)), [])
            comp = compose(prepared, params)
        # 20 positions - 2 context tokens
        assert _counts(prepared) == (18, 2, 0)
        assert comp.T_c.shape == (20, D)
        assert "truncating" in caplog.text

    def test_text_is_cut_so_image_rows_fit(self, vocab, rng, caplog):
        params = _composer_params(rng, n_blocks=0)  # 20 positions
        feats = np.random.default_rng(1).normal(size=(2, 3))
        for n_text in (19, 20, 25):
            caplog.clear()
            with caplog.at_level("WARNING"):
                prepared = _prepare(params, vocab, [], ["the"] * n_text,
                                    feats, TUPLES)
                compose(prepared, params)
            assert _counts(prepared) == (0, 18, 2)
            # a single warning, and none about knowledge that was empty
            assert [r.getMessage() for r in caplog.records] == [
                f"embed_tokens: truncating {n_text} tokens to 18"]
            # the attribute view (T_c with no tuple) has the images at 18, 19
            comp = _compose(params, vocab, [], ["the"] * n_text, feats, [])
            expect = (project_image_features(feats, params.image_proj).data
                      + params.table.position.data[18:])
            np.testing.assert_array_equal(comp.T_c.data[18:], expect)

    def test_image_rows_alone_past_the_table_are_cut(self, vocab, rng,
                                                     caplog):
        params = _composer_params(rng, n_blocks=0)
        feats = np.random.default_rng(1).normal(size=(22, 3))
        with caplog.at_level("WARNING"):
            prepared = _prepare(params, vocab, ["domain"], ["the"], feats,
                                [])
            comp = compose(prepared, params)
        assert _counts(prepared) == (0, 0, 20)
        assert [r.getMessage() for r in caplog.records] == [
            "compose: truncating image rows 22 -> 20",
            "embed_tokens: truncating 1 tokens to 0",
            "compose: truncating knowledge tokens 1 -> 0"]
        expect = (project_image_features(feats[:20], params.image_proj).data
                  + params.table.position.data)
        np.testing.assert_array_equal(comp.T_c.data, expect)

    def test_deterministic(self, vocab, rng):
        params = _composer_params(rng)
        a = _compose(params, vocab, ["domain"], ["the", "mall"],
                     np.zeros((0, 0)), TUPLES)
        b = _compose(params, vocab, ["domain"], ["the", "mall"],
                     np.zeros((0, 0)), TUPLES)
        np.testing.assert_array_equal(a.T_c.data, b.T_c.data)


# ------------------------------------------------------------------ gradients

COMPOSER_GRAD_CASES = [c for c in build_composite_grad_cases()
                       if c[0].split(":")[0] in
                       ("compose_attributes", "encode_relation_tuples",
                        "reorganize_relations", "fuse")]


@pytest.mark.parametrize("label,loss_fn,params", COMPOSER_GRAD_CASES,
                         ids=[c[0] for c in COMPOSER_GRAD_CASES])
def test_gradients(label, loss_fn, params):
    assert max_rel_error(loss_fn, params, eps=3e-5) < 1e-4
