"""Tests for the optimizer, training loop, and evaluation helpers."""
import numpy as np
import pytest

from kgdialog.autodiff import Tensor
from kgdialog.config import TrainingConfig
from kgdialog.corpus import DialogPair, make_synthetic_corpus
from kgdialog.model import build_model, build_vocabulary, model_from_doc, \
    checkpoint_doc
from kgdialog.training import (Adam, TrainingDiverged, evaluate,
                               mean_semantic_gap, token_accuracy, train,
                               train_model)

FAST = TrainingConfig(dim=12, enc_blocks=1, dec_blocks=1, n_latent=3,
                      mlp_hidden=16, epochs=3, learning_rate=1e-3, seed=0,
                      max_seq_len=96)


@pytest.fixture(scope="module")
def tiny():
    syn = make_synthetic_corpus(seed=0, n_entities=8, n_pairs=6)
    return syn


def _vocab(pairs, kb):
    return build_vocabulary(
        [list(p.context.text_tokens) + list(p.response) for p in pairs], kb)


class TestAdam:
    def test_single_step_matches_hand_computation(self):
        p = Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
        g = np.array([[0.5, -1.5]])
        p.grad = g.copy()
        opt = Adam([p], learning_rate=0.1)
        opt.step()
        m = 0.1 * g
        v = 0.001 * g * g
        m_hat = m / (1 - 0.9)
        v_hat = v / (1 - 0.999)
        expect = np.array([[1.0, -2.0]]) - 0.1 * m_hat / (np.sqrt(v_hat)
                                                          + 1e-8)
        np.testing.assert_allclose(p.data, expect, atol=1e-12)

    def test_two_steps_track_moments(self):
        p = Tensor(np.array([[2.0]]), requires_grad=True)
        opt = Adam([p], learning_rate=0.01)
        m = v = 0.0
        x = 2.0
        for step in range(1, 3):
            g = 2.0 * p.data[0, 0]  # d/dx of x^2
            p.grad = np.array([[g]])
            opt.step()
            gm = 2.0 * x
            m = 0.9 * m + 0.1 * gm
            v = 0.999 * v + 0.001 * gm * gm
            x -= 0.01 * (m / (1 - 0.9 ** step)) / (
                np.sqrt(v / (1 - 0.999 ** step)) + 1e-8)
            assert p.data[0, 0] == pytest.approx(x, rel=1e-12)

    def test_none_grad_skipped(self):
        p = Tensor(np.array([[3.0]]), requires_grad=True)
        opt = Adam([p], learning_rate=0.5)
        opt.step()
        assert p.data[0, 0] == 3.0

    def test_zero_grad_clears(self):
        p = Tensor(np.array([[3.0]]), requires_grad=True)
        p.grad = np.array([[1.0]])
        Adam([p], 0.1).zero_grad()
        assert p.grad is None


class TestTrain:
    def test_empty_corpus_rejected(self, tiny):
        with pytest.raises(ValueError):
            train([], tiny.kb, FAST)

    def test_deterministic_given_seed(self, tiny):
        a = train(tiny.pairs, tiny.kb, FAST)
        b = train(tiny.pairs, tiny.kb, FAST)
        assert a.epoch_losses == b.epoch_losses
        for (na, ta), (nb, tb) in zip(a.model.params.named().items(),
                                      b.model.params.named().items()):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_zero_epochs_keeps_initialization(self, tiny):
        cfg = FAST.replace(epochs=0)
        result = train(tiny.pairs, tiny.kb, cfg)
        vocab = _vocab(tiny.pairs, tiny.kb)
        fresh = build_model(vocab, tiny.kb, cfg)
        for name, t in result.model.params.named().items():
            np.testing.assert_array_equal(t.data,
                                          fresh.params.named()[name].data)
        assert result.epoch_losses == []

    def test_loss_decreases_on_memorizable_corpus(self, tiny):
        cfg = FAST.replace(epochs=12, learning_rate=3e-3)
        result = train(tiny.pairs[:4], tiny.kb, cfg)
        assert result.final_loss < result.initial_loss

    def test_batch_accumulation_matches_manual_two_pair_step(self, tiny):
        pairs = tiny.pairs[:2]
        vocab = _vocab(pairs, tiny.kb)
        cfg = FAST.replace(epochs=1, batch_size=2)
        trained = train(pairs, tiny.kb, cfg)

        manual = build_model(vocab, tiny.kb, cfg)
        tensors = manual.params.all_tensors()
        opt = Adam(tensors, cfg.learning_rate)
        for pair in pairs:
            loss, _ = manual.loss_pair(pair.context, pair.response)
            loss.backward()
        opt.step()
        for name, t in trained.model.params.named().items():
            np.testing.assert_array_equal(t.data,
                                          manual.params.named()[name].data)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_diagnostics(self, tiny):
        """Overflow is the point here: an absurd learning rate must blow the
        loss up to non-finite and abort instead of training on garbage."""
        cfg = FAST.replace(epochs=50, learning_rate=1e160)
        with pytest.raises(TrainingDiverged, match="non-finite"):
            train(tiny.pairs[:2], tiny.kb, cfg)

    def test_train_model_reuses_existing_model(self, tiny):
        vocab = _vocab(tiny.pairs, tiny.kb)
        model = build_model(vocab, tiny.kb, FAST)
        before = checkpoint_doc(model)
        result = train_model(model, tiny.pairs[:2], FAST.replace(epochs=1))
        assert result.model is model
        after = checkpoint_doc(model)
        assert before["params"] != after["params"]

    def test_response_past_position_table_rejected_before_any_update(
            self, tiny):
        cfg = FAST.replace(epochs=1, batch_size=1, max_seq_len=8,
                           max_gen_len=8)
        context = tiny.pairs[0].context
        pairs = [DialogPair(context, ("a",) * 7),   # 8 prefix rows: fits
                 DialogPair(context, ("a",) * 8)]   # 9 prefix rows: too long
        model = build_model(_vocab(pairs, tiny.kb), tiny.kb, cfg)
        before = {n: t.data.copy() for n, t in model.params.named().items()}
        with pytest.raises(ValueError, match=r"pair 1: response needs 9 .*"
                                             r"max_seq_len is 8"):
            train_model(model, pairs, cfg, log_every=0)
        for name, t in model.params.named().items():
            np.testing.assert_array_equal(t.data, before[name])


@pytest.fixture(scope="module")
def trained(tiny):
    return train(tiny.pairs, tiny.kb, FAST.replace(epochs=4))


class TestEvaluationHelpers:
    def test_evaluate_reports_all_metrics(self, tiny, trained):
        scores = evaluate(trained.model, tiny.pairs)
        assert set(scores) == {"bleu1", "bleu2", "bleu3", "bleu4", "nist",
                               "exact_match"}
        for n in range(1, 5):
            assert 0.0 <= scores[f"bleu{n}"] <= 1.0
        assert scores["nist"] >= 0.0
        assert 0.0 <= scores["exact_match"] <= 1.0

    def test_evaluate_deterministic(self, tiny, trained):
        assert evaluate(trained.model, tiny.pairs) == \
            evaluate(trained.model, tiny.pairs)

    def test_evaluate_empty_rejected(self, trained):
        with pytest.raises(ValueError):
            evaluate(trained.model, [])

    def test_token_accuracy_counts_argmax_hits(self, tiny, trained):
        model = trained.model
        acc = token_accuracy(model, tiny.pairs[:2])
        hits = total = 0
        for pair in tiny.pairs[:2]:
            probs, targets, _ = model.teacher_predictions(
                pair.context, pair.response, enhance_with="composed")
            for row, target in zip(probs.data, targets):
                hits += int(np.argmax(row) == target)
                total += 1
        assert acc == pytest.approx(hits / total)
        assert 0.0 <= acc <= 1.0

    def test_mean_semantic_gap_matches_direct_computation(self, tiny,
                                                          trained):
        model = trained.model
        got = mean_semantic_gap(model, tiny.pairs[:3])
        total = 0.0
        for pair in tiny.pairs[:3]:
            comp = model.compose_context(pair.context)
            a = model.semantic_composed(comp).data
            b = model.semantic_truth(pair.response).data
            total += float(np.sum((a - b) ** 2))
        assert got == pytest.approx(total / 3, rel=1e-12)

    def test_checkpoint_of_trained_model_restores_metrics(self, tiny,
                                                          trained):
        doc = checkpoint_doc(trained.model)
        rebuilt = model_from_doc(doc, tiny.kb)
        assert evaluate(rebuilt, tiny.pairs[:3]) == \
            evaluate(trained.model, tiny.pairs[:3])
