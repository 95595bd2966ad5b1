"""Tests for the knowledge-aware decoder, enhancement, and generation."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgdialog import autodiff as ad
from kgdialog import decoder
from kgdialog.autodiff import ParamBuffer, Tensor
from kgdialog.composer import EmbeddingTable, Vocabulary
from kgdialog.decoder import (DecodeCache, DecoderParams, LossWeights,
                              OutputHead, SemanticEnhanceParams,
                              decode_states, generate, predict_token,
                              semantic_enhance, total_loss)

from helpers import (build_composite_grad_cases, make_attention,
                     make_decoder_block, max_rel_error)

D = 4
V = 9


@pytest.fixture
def rng():
    return np.random.default_rng(3)


@pytest.fixture
def blocks(rng):
    return tuple(make_decoder_block(rng, D, 6) for _ in range(2))


@pytest.fixture
def setting(rng):
    return {
        "T_c": Tensor(rng.normal(size=(5, D))),
        "E_k": Tensor(rng.normal(size=(3, D))),
        "T_sem": Tensor(rng.normal(size=(2, D))),
    }


def _decoder_params(rng, blocks, d=D, scale=False):
    enhance = SemanticEnhanceParams(make_attention(rng, d, scale),
                                    Tensor(np.ones((1, d)), requires_grad=True),
                                    Tensor(np.zeros((1, d)), requires_grad=True))
    head = OutputHead(Tensor(rng.normal(size=(d, V)), requires_grad=True),
                      Tensor(rng.normal(size=(1, V)), requires_grad=True))
    return DecoderParams(blocks=blocks, enhance=enhance, head=head)


def _last_row_probs(setting, dec, table, prefix):
    """Full recompute: the teacher-forced distribution after ``prefix``,
    read from the last row of decode_states over the whole prefix."""
    n = len(prefix)
    E_y = ad.embed(table.token, table.position, prefix, range(n))
    states = decode_states(setting["T_c"], setting["E_k"], E_y, dec.blocks)
    z = semantic_enhance(ad.take_rows(states, [n - 1]), setting["T_sem"],
                         dec.enhance)
    return predict_token(z, dec.head).data[0]


def _reference_greedy(setting, dec, table, vocab, max_len):
    """Greedy decoding over full-recompute distributions."""
    with ad.no_grad():
        prefix = [vocab.BOS]
        for _ in range(max_len):
            nxt = int(np.argmax(_last_row_probs(setting, dec, table,
                                                prefix)))
            if nxt == vocab.EOS:
                break
            prefix.append(nxt)
    return prefix[1:]


def _reference_beam(setting, dec, table, vocab, max_len, width):
    """Beam search over full-recompute distributions, one hypothesis at a
    time. Returns (token ids without markers, steps run, steps run while
    some kept hypotheses had ended and others had not)."""
    with ad.no_grad():
        beams = [(0.0, [vocab.BOS], False)]
        steps = mixed = 0
        for _ in range(max_len):
            ended = sum(done for _, _, done in beams)
            if ended == len(beams):
                break
            steps += 1
            mixed += ended > 0
            candidates = []
            for score, prefix, done in beams:
                if done:
                    candidates.append((score, prefix, True))
                    continue
                probs = _last_row_probs(setting, dec, table, prefix)
                logp = np.log(np.maximum(probs, decoder.LOG_FLOOR))
                for idx in np.argsort(-logp, kind="stable")[:width]:
                    idx = int(idx)
                    candidates.append((score + float(logp[idx]),
                                       prefix + [idx], idx == vocab.EOS))
            candidates.sort(key=lambda c: (-c[0], c[1]))
            beams = candidates[:width]
    best = beams[0][1]
    if best[-1] == vocab.EOS:
        best = best[:-1]
    return best[1:], steps, mixed


class _CountingRows(np.ndarray):
    """An array that records the right operand of every product it is the
    left operand of: when it holds a source's rows, its projections."""

    def __matmul__(self, other):
        self.projections.append(other)
        return np.asarray(self) @ other


class TestDecodeStates:
    def test_empty_prefix_raises(self, setting, blocks):
        with pytest.raises(ValueError):
            decode_states(setting["T_c"], setting["E_k"],
                          Tensor(np.zeros((0, D))), blocks)

    def test_causality_prefix_equivalence(self, rng, setting, blocks):
        """Running all prefixes at once must equal running each alone —
        position j's state cannot see tokens after j."""
        E_y = Tensor(rng.normal(size=(4, D)))
        full = decode_states(setting["T_c"], setting["E_k"], E_y, blocks)
        for j in range(1, 5):
            part = decode_states(setting["T_c"], setting["E_k"],
                                 Tensor(E_y.data[:j].copy()), blocks)
            np.testing.assert_allclose(full.data[:j], part.data, atol=1e-10)

    def test_future_perturbation_is_invisible(self, rng, setting, blocks):
        """Bit-exact causality: changing a later token leaves every earlier
        state untouched."""
        E_y = rng.normal(size=(4, D))
        base = decode_states(setting["T_c"], setting["E_k"], Tensor(E_y),
                             blocks).data
        mutated = E_y.copy()
        mutated[3] += 100.0
        moved = decode_states(setting["T_c"], setting["E_k"], Tensor(mutated),
                              blocks).data
        np.testing.assert_array_equal(base[:3], moved[:3])
        assert not np.allclose(base[3], moved[3])

    def test_knowledge_sublayer_skipped_when_empty(self, rng, setting, blocks):
        """With no attribute knowledge the knowledge attention (and its
        layer norm) must drop out rather than attend over nothing."""
        E_y = Tensor(rng.normal(size=(3, D)))
        empty = Tensor(np.zeros((0, D)))
        got = decode_states(setting["T_c"], empty, E_y, blocks)
        h = E_y
        for block in blocks:
            sa, _ = ad.cross_attention(h, h, block.self_attn.w_q,
                                       block.self_attn.w_k,
                                       block.self_attn.w_v, causal=True)
            h = ad.layer_norm(ad.add(h, sa), block.ln1_gain, block.ln1_bias)
            ea, _ = ad.cross_attention(h, setting["T_c"],
                                       block.encoder_attn.w_q,
                                       block.encoder_attn.w_k,
                                       block.encoder_attn.w_v)
            h = ad.layer_norm(ad.add(h, ea), block.ln3_gain, block.ln3_bias)
            m = ad.mlp(h, block.mlp.w1, block.mlp.b1, block.mlp.w2,
                       block.mlp.b2)
            h = ad.layer_norm(ad.add(h, m), block.ln4_gain, block.ln4_bias)
        np.testing.assert_array_equal(got.data, h.data)

    def test_knowledge_changes_states_when_present(self, rng, setting, blocks):
        E_y = Tensor(rng.normal(size=(3, D)))
        with_k = decode_states(setting["T_c"], setting["E_k"], E_y, blocks)
        without = decode_states(setting["T_c"], Tensor(np.zeros((0, D))),
                                E_y, blocks)
        assert not np.allclose(with_k.data, without.data)

    def test_cached_steps_are_teacher_forced_rows(self, rng, setting,
                                                  blocks):
        """Feeding the rows one at a time through a cache gives the
        teacher-forced row at each position."""
        E_y = Tensor(rng.normal(size=(4, D)))
        states = decode_states(setting["T_c"], setting["E_k"], E_y, blocks)
        cache = DecodeCache()
        for j in range(4):
            row = decode_states(setting["T_c"], setting["E_k"],
                                Tensor(E_y.data[j:j + 1]), blocks,
                                cache=cache)
            np.testing.assert_allclose(row.data, states.data[j:j + 1],
                                       rtol=0, atol=1e-12)
        assert cache.length == 4

    def test_cache_rejects_a_different_hypothesis_count(self, rng, setting,
                                                        blocks):
        cache = DecodeCache()
        decode_states(setting["T_c"], setting["E_k"],
                      Tensor(rng.normal(size=(2, D))), blocks, cache=cache)
        with pytest.raises(ValueError, match="3 new rows for 2 cached"):
            decode_states(setting["T_c"], setting["E_k"],
                          Tensor(rng.normal(size=(3, D))), blocks,
                          cache=cache)


class TestSemanticEnhance:
    def test_rows_independent(self, rng, setting):
        enh = SemanticEnhanceParams(make_attention(rng, D),
                                    Tensor(np.ones((1, D))),
                                    Tensor(np.zeros((1, D))))
        z = Tensor(rng.normal(size=(3, D)))
        whole = semantic_enhance(z, setting["T_sem"], enh).data
        for j in range(3):
            row = semantic_enhance(Tensor(z.data[j:j + 1].copy()),
                                   setting["T_sem"], enh).data
            np.testing.assert_allclose(whole[j:j + 1], row, atol=1e-12)

    def test_changes_with_semantic_matrix(self, rng, setting):
        enh = SemanticEnhanceParams(make_attention(rng, D),
                                    Tensor(np.ones((1, D))),
                                    Tensor(np.zeros((1, D))))
        z = Tensor(rng.normal(size=(2, D)))
        a = semantic_enhance(z, setting["T_sem"], enh).data
        b = semantic_enhance(z, Tensor(rng.normal(size=(2, D))), enh).data
        assert not np.allclose(a, b)


class TestPredictToken:
    def test_rows_are_distributions(self, rng):
        head = OutputHead(Tensor(rng.normal(size=(D, V))),
                          Tensor(rng.normal(size=(1, V))))
        probs = predict_token(Tensor(rng.normal(size=(6, D))), head)
        assert probs.shape == (6, V)
        assert (probs.data > 0).all()
        np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, atol=1e-12)


class TestLossWeights:
    def test_defaults(self):
        w = LossWeights()
        assert (w.lam, w.gamma, w.beta) == (1.0, 0.1, 1e-6)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(lam=-1.0)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(0.0, 0.0, 0.0)


class TestTotalLoss:
    def test_weighted_sum_with_penalty(self, rng):
        l_ce = Tensor(np.array([[2.0]]))
        l_r = Tensor(np.array([[3.0]]))
        p = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        w = LossWeights(lam=0.5, gamma=2.0, beta=0.1)
        got = total_loss(l_ce, l_r, ParamBuffer([p]), w).item()
        expect = 0.5 * 2.0 + 2.0 * 3.0 + 0.1 * float(np.sum(p.data ** 2))
        assert got == pytest.approx(expect, rel=1e-12)

    def test_zero_beta_skips_penalty(self, rng):
        l_ce = Tensor(np.array([[2.0]]))
        l_r = Tensor(np.array([[3.0]]))
        p = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        w = LossWeights(lam=1.0, gamma=1.0, beta=0.0)
        assert total_loss(l_ce, l_r, ParamBuffer([p]), w).item() == pytest.approx(5.0)

    def test_gamma_zero_detaches_regularizer(self):
        l_ce = Tensor(np.array([[2.0]]))
        l_r = Tensor(np.array([[3.0]]))
        w = LossWeights(lam=1.0, gamma=0.0, beta=0.0)
        assert total_loss(l_ce, l_r, ParamBuffer([]), w).item() == pytest.approx(2.0)


class TestGenerate:
    def _model(self, rng, n_blocks=1, scale=False):
        vocab = Vocabulary(["a", "b", "c", "d", "e"])
        table = EmbeddingTable(
            token=Tensor(rng.normal(size=(len(vocab), D)) * 0.3,
                         requires_grad=True),
            position=Tensor(rng.normal(size=(16, D)) * 0.3,
                            requires_grad=True))
        blocks = tuple(make_decoder_block(rng, D, 6, scale)
                       for _ in range(n_blocks))
        return vocab, table, _decoder_params(rng, blocks, scale=scale)

    def test_greedy_deterministic(self, rng, setting):
        vocab, table, dec = self._model(rng)
        out1 = generate(setting["T_c"], setting["E_k"], setting["T_sem"],
                        dec, table, vocab, max_len=6)
        out2 = generate(setting["T_c"], setting["E_k"], setting["T_sem"],
                        dec, table, vocab, max_len=6)
        assert out1 == out2
        assert len(out1) <= 6

    def test_greedy_matches_manual_argmax_loop(self, rng, setting):
        vocab, table, dec = self._model(rng)
        got = generate(setting["T_c"], setting["E_k"], setting["T_sem"],
                       dec, table, vocab, max_len=5)
        assert got == vocab.decode(_reference_greedy(setting, dec, table,
                                                     vocab, 5))

    def test_beam_width_one_equals_greedy(self, rng, setting):
        vocab, table, dec = self._model(rng)
        greedy = generate(setting["T_c"], setting["E_k"], setting["T_sem"],
                          dec, table, vocab, max_len=5, strategy="greedy")
        beam = generate(setting["T_c"], setting["E_k"], setting["T_sem"],
                        dec, table, vocab, max_len=5, strategy="beam:1")
        assert greedy == beam

    def test_beam_score_at_least_greedy(self, rng, setting):
        """A wider beam can only find an equal-or-better scoring sequence."""
        vocab, table, dec = self._model(rng)

        def score(tokens):
            ids = [vocab.BOS] + vocab.encode(tokens) + [vocab.EOS]
            total = 0.0
            for j in range(1, len(ids)):
                probs = _last_row_probs(setting, dec, table, ids[:j])
                total += float(np.log(max(probs[ids[j]], 1e-12)))
            return total

        greedy = generate(setting["T_c"], setting["E_k"], setting["T_sem"],
                          dec, table, vocab, max_len=4, strategy="greedy")
        beam = generate(setting["T_c"], setting["E_k"], setting["T_sem"],
                        dec, table, vocab, max_len=4, strategy="beam:4")
        # both sequences terminated within the horizon -> comparable scores
        if len(greedy) < 4 and len(beam) < 4:
            assert score(beam) >= score(greedy) - 1e-9

    def test_unknown_strategy(self, rng, setting):
        vocab, table, dec = self._model(rng)
        with pytest.raises(ValueError):
            generate(setting["T_c"], setting["E_k"], setting["T_sem"],
                     dec, table, vocab, strategy="sampled")

    def test_bad_beam_width(self, rng, setting):
        vocab, table, dec = self._model(rng)
        with pytest.raises(ValueError):
            generate(setting["T_c"], setting["E_k"], setting["T_sem"],
                     dec, table, vocab, strategy="beam:0")

    @pytest.mark.parametrize("strategy", ["beam:", "beam:x", "beam:2.0",
                                          "sampled"])
    def test_malformed_strategy_is_named_before_decoding(
            self, rng, setting, monkeypatch, strategy):
        vocab, table, dec = self._model(rng)
        calls = []
        monkeypatch.setattr(decoder, "decode_states",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match=re.escape(repr(strategy))):
            generate(setting["T_c"], setting["E_k"], setting["T_sem"],
                     dec, table, vocab, max_len=4, strategy=strategy)
        assert calls == []

    @pytest.mark.parametrize("strategy", ["greedy", "beam:3"])
    def test_each_step_feeds_one_row_per_live_hypothesis(
            self, rng, setting, monkeypatch, strategy):
        """No step re-runs the prefix: greedy passes one row per step, and
        beam:K makes one call per step with at most K rows."""
        vocab, table, dec = self._model(rng, n_blocks=2)
        rows = []
        real = decoder.decode_states

        def counting(T_c, E_k, E_y, *args, **kwargs):
            rows.append(E_y.shape[0])
            return real(T_c, E_k, E_y, *args, **kwargs)

        monkeypatch.setattr(decoder, "decode_states", counting)
        max_len = 8
        out = generate(setting["T_c"], setting["E_k"], setting["T_sem"],
                       dec, table, vocab, max_len=max_len, strategy=strategy)
        if strategy == "greedy":
            assert rows == [1] * min(len(out) + 1, max_len)
            assert len(rows) >= 3
        else:
            _, steps, _ = _reference_beam(setting, dec, table, vocab,
                                          max_len, 3)
            assert len(rows) == steps >= 3
            assert rows[0] == 1 and 1 < max(rows) <= 3

    @pytest.mark.parametrize("strategy", ["greedy", "beam:3"])
    def test_semantic_keys_are_projected_once_per_reply(
            self, rng, setting, strategy):
        """The keys and values of T_sem (enhancement), and of E_k and T_c
        (each block's knowledge and encoder reads), are projected by one
        product each per reply, however many steps the reply takes."""
        vocab, table, dec = self._model(rng, n_blocks=2)
        dec.head.b_y.data[0, vocab.EOS] -= 5.0  # replies run several steps
        for name in ("T_c", "E_k", "T_sem"):
            setting[name].data = setting[name].data.view(_CountingRows)
            setting[name].data.projections = []
        out = generate(setting["T_c"], setting["E_k"], setting["T_sem"],
                       dec, table, vocab, max_len=8, strategy=strategy)
        assert len(out) >= 2  # several steps ran
        reads = {"T_c": [b.encoder_attn for b in dec.blocks],
                 "E_k": [b.knowledge_attn for b in dec.blocks],
                 "T_sem": [dec.enhance.attn]}
        for name, attns in reads.items():
            got = [id(w) for w in setting[name].data.projections]
            want = [id(a.w_k.data) for a in attns] + [id(a.w_v.data)
                                                      for a in attns]
            assert sorted(got) == sorted(want), name

    @pytest.mark.parametrize("strategy", ["greedy", "beam:1", "beam:2",
                                          "beam:4", "beam:200"])
    @pytest.mark.parametrize("n_blocks", [0, 1, 2])
    @pytest.mark.parametrize("eos_bias", [0.0, 2.0])
    @pytest.mark.parametrize("scale,knowledge", [(False, True),
                                                 (True, False)])
    def test_replies_match_full_recompute(self, rng, setting, strategy,
                                          n_blocks, eos_bias, scale,
                                          knowledge):
        """Cached decoding gives the replies of decoding that re-runs
        every block over the whole prefix at each step. beam:200 keeps
        more hypotheses than the V=9 vocabulary has tokens. With no blocks
        the cache still counts the positions fed."""
        vocab, table, dec = self._model(rng, n_blocks, scale)
        dec.head.b_y.data[0, vocab.EOS] += eos_bias
        if not knowledge:
            setting["E_k"] = Tensor(np.zeros((0, D)))
        if strategy == "greedy":
            expect = _reference_greedy(setting, dec, table, vocab, 8)
        else:
            expect, _, _ = _reference_beam(setting, dec, table, vocab, 8,
                                           int(strategy[5:]))
        got = generate(setting["T_c"], setting["E_k"], setting["T_sem"],
                       dec, table, vocab, max_len=8, strategy=strategy)
        assert got == vocab.decode(expect)

    @pytest.mark.parametrize("strategy", ["greedy", "beam:3"])
    def test_steps_build_no_graph_with_grad_mode_on(self, rng, setting,
                                                    monkeypatch, strategy):
        """With grad mode on and trainable parameters, a reply never
        switches grad mode off and makes no graph node, and its tokens
        equal those decoded under no_grad."""
        vocab, table, dec = self._model(rng, n_blocks=2)
        dec.head.b_y.data[0, vocab.EOS] -= 5.0  # replies run several steps
        args = (setting["T_c"], setting["E_k"], setting["T_sem"], dec, table,
                vocab)
        with ad.no_grad():
            expect = generate(*args, max_len=8, strategy=strategy)
        switched, nodes = [], []
        real_no_grad, real_node = ad.no_grad, ad._node

        def recording_no_grad():
            switched.append(True)
            return real_no_grad()

        def recording_node(data, parents, backward):
            out = real_node(data, parents, backward)
            nodes.append((len(parents), len(out._parents)))
            return out

        monkeypatch.setattr(ad, "no_grad", recording_no_grad)
        monkeypatch.setattr(ad, "_node", recording_node)
        assert ad._grad_mode.enabled is True
        got = generate(*args, max_len=8, strategy=strategy)
        assert ad._grad_mode.enabled is True
        assert switched == [] and nodes == []
        assert got == expect and len(got) >= 2

    def test_beam_with_hypotheses_ending_at_different_steps(self, rng,
                                                            setting):
        """Ended hypotheses stay in the beam while the rest are decoded:
        the cache must follow the live ones."""
        vocab, table, dec = self._model(rng, n_blocks=2)
        dec.head.b_y.data[0, vocab.EOS] += 2.0
        expect, steps, mixed = _reference_beam(setting, dec, table, vocab,
                                               8, 4)
        assert mixed >= 2 and steps > mixed
        got = generate(setting["T_c"], setting["E_k"], setting["T_sem"],
                       dec, table, vocab, max_len=8, strategy="beam:4")
        assert got == vocab.decode(expect)

    def test_max_len_respected(self, rng, setting):
        vocab, table, dec = self._model(rng)
        for strategy in ("greedy", "beam:2"):
            out = generate(setting["T_c"], setting["E_k"], setting["T_sem"],
                           dec, table, vocab, max_len=2, strategy=strategy)
            assert len(out) <= 2

    def test_end_marker_never_in_output(self, rng, setting):
        """The end token always terminates, so it never surfaces."""
        vocab, table, dec = self._model(rng)
        for strategy in ("greedy", "beam:3"):
            out = generate(setting["T_c"], setting["E_k"], setting["T_sem"],
                           dec, table, vocab, max_len=8, strategy=strategy)
            assert "</s>" not in out

    def test_head_forced_to_end_token_gives_empty(self, rng, setting):
        vocab, table, dec = self._model(rng)
        dec.head.w_y.data[:] = 0.0
        dec.head.b_y.data[:] = 0.0
        dec.head.b_y.data[0, vocab.EOS] = 50.0
        for strategy in ("greedy", "beam:2"):
            out = generate(setting["T_c"], setting["E_k"], setting["T_sem"],
                           dec, table, vocab, max_len=8, strategy=strategy)
            assert out == []


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5),
       n_blocks=st.integers(0, 2), n_knowledge=st.integers(0, 3),
       scale=st.booleans(), table_len=st.integers(1, 8),
       hypotheses=st.integers(1, 4), data=st.data())
def test_cached_steps_match_teacher_forced_rows(seed, d, n_blocks,
                                                n_knowledge, scale, table_len,
                                                hypotheses, data):
    """Stacked cached steps, with the cache re-gathered between steps as
    a beam does, give each hypothesis the distribution that teacher-forced
    decode_states gives at the last row of its whole prefix."""
    rng = np.random.default_rng(seed)
    blocks = tuple(make_decoder_block(rng, d, d + 2, scale)
                   for _ in range(n_blocks))
    dec = _decoder_params(rng, blocks, d, scale)
    table = EmbeddingTable(Tensor(rng.normal(size=(V, d))),
                           Tensor(rng.normal(size=(table_len, d))))
    setting = {"T_c": Tensor(rng.normal(size=(int(rng.integers(1, 4)), d))),
               "E_k": Tensor(rng.normal(size=(n_knowledge, d))),
               "T_sem": Tensor(rng.normal(size=(int(rng.integers(1, 4)), d)))}
    n = data.draw(st.integers(1, table_len))
    cache = DecodeCache()
    prefixes = [[] for _ in range(hypotheses)]
    with ad.no_grad():
        for j in range(n):
            parents = [int(p) for p in rng.integers(0, hypotheses,
                                                    size=hypotheses)]
            cache.select(parents)
            prefixes = [prefixes[p] + [int(rng.integers(0, V))]
                        for p in parents]
            E_y = ad.add(ad.take_rows(table.token, [p[-1] for p in prefixes]),
                         ad.take_rows(table.position, [j] * hypotheses))
            z = decode_states(setting["T_c"], setting["E_k"], E_y, blocks,
                              cache)
            got = predict_token(semantic_enhance(z, setting["T_sem"],
                                                 dec.enhance),
                                dec.head).data
            for row, prefix in enumerate(prefixes):
                expect = _last_row_probs(setting, dec, table, prefix)
                np.testing.assert_allclose(got[row], expect, rtol=0,
                                           atol=1e-9)


DECODER_GRAD_CASES = [c for c in build_composite_grad_cases()
                      if c[0].split(":")[0] in
                      ("decode_states", "semantic_enhance", "predict_token",
                       "total_loss")]


@pytest.mark.parametrize("label,loss_fn,params", DECODER_GRAD_CASES,
                         ids=[c[0] for c in DECODER_GRAD_CASES])
def test_gradients(label, loss_fn, params):
    assert max_rel_error(loss_fn, params, eps=3e-5) < 1e-4
