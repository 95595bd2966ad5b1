"""Tests for the optimizer, training loop, and evaluation helpers."""
import json
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgdialog import autodiff as ad
from kgdialog import training
from kgdialog.autodiff import Tensor
from kgdialog.composer import Vocabulary
from kgdialog.config import TrainingConfig
from kgdialog.corpus import DialogPair, make_synthetic_corpus
from kgdialog.model import DialogModel, build_model, build_vocabulary, \
    checkpoint_doc, model_from_doc
from kgdialog.training import (Adam, TrainingDiverged, evaluate,
                               mean_semantic_gap, token_accuracy, train,
                               train_model)

from helpers import mul, param_buffer, sum_all

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
        buf = param_buffer([[[1.0, -2.0]]])
        p, = buf.tensors
        g = np.array([[0.5, -1.5]])
        opt = Adam(buf, learning_rate=0.1)
        p.grad[...] = g
        opt.step()
        m = 0.1 * g
        v = 0.001 * g * g
        m_hat = m / (1 - 0.9)
        v_hat = v / (1 - 0.999)
        expect = np.array([[1.0, -2.0]]) - 0.1 * m_hat / (np.sqrt(v_hat)
                                                          + 1e-8)
        np.testing.assert_allclose(p.data, expect, atol=1e-12)

    def test_two_steps_track_moments(self):
        buf = param_buffer([[[2.0]]])
        p, = buf.tensors
        opt = Adam(buf, learning_rate=0.01)
        m = v = 0.0
        x = 2.0
        for step in range(1, 3):
            p.grad[...] = 2.0 * p.data[0, 0]  # d/dx of x^2
            opt.step()
            gm = 2.0 * x
            m = 0.9 * m + 0.1 * gm
            v = 0.999 * v + 0.001 * gm * gm
            x -= 0.01 * (m / (1 - 0.9 ** step)) / (
                np.sqrt(v / (1 - 0.999 ** step)) + 1e-8)
            assert p.data[0, 0] == pytest.approx(x, rel=1e-12)

    def test_zero_gradient_and_moments_leave_the_values(self):
        """A tensor that no loss has reached has a zero gradient and zero
        moments, so its zero-gradient steps leave it as it is."""
        buf = param_buffer([[[3.0]]])
        p, = buf.tensors
        opt = Adam(buf, learning_rate=0.5)
        opt.step()
        opt.step(decay=0.0)
        assert p.data[0, 0] == 3.0

    def test_unreached_tensor_takes_the_zero_gradient_step(self):
        """Without weight decay, a tensor reached at one step and not at
        the next still takes the next step, with a zero gradient: its
        moments decay and it moves by the per-tensor formula, bit for
        bit."""
        buf = param_buffer([[[0.5, -1.0]]])
        p, = buf.tensors
        opt = Adam(buf, learning_rate=0.1)
        g = np.array([[0.25, 2.0]])
        expect, m, v = p.data.copy(), 0.0, 0.0
        for step, grad in ((1, g), (2, np.zeros_like(g))):
            m = 0.9 * m + (1 - 0.9) * grad
            v = 0.999 * v + (1 - 0.999) * grad * grad
            expect = expect - 0.1 * (m / (1 - 0.9 ** step)) / (
                np.sqrt(v / (1 - 0.999 ** step)) + 1e-8)
        sum_all(mul(p, Tensor(g))).backward()
        opt.step()
        before = p.data.copy()
        opt.step()
        assert (p.data != before).all()
        np.testing.assert_array_equal(p.data, expect)

    def test_decay_moves_a_tensor_that_has_no_gradient(self):
        """With weight decay every tensor is updated: one without a loss
        gradient takes decay times its values as its gradient, and Adam's
        first step moves it by about the learning rate against its sign."""
        buf = param_buffer([[[3.0, -2.0]], [[1.0]]])
        p, q = buf.tensors
        opt = Adam(buf, learning_rate=0.5)
        q.grad[...] = 1.0
        opt.step(decay=0.1)
        np.testing.assert_allclose(p.data, [[2.5, -1.5]], rtol=1e-7)
        assert q.data[0, 0] < 1.0

    def test_zero_grad_clears(self):
        """Clearing the optimizer's buffer zeroes a pending gradient in
        place, in the tensor's bound view, so the next step leaves the
        tensor as it is."""
        buf = param_buffer([[[3.0]]])
        p, = buf.tensors
        opt = Adam(buf, 0.1)
        p.grad[...] = 1.0
        opt.params.zero_grad()
        assert p.grad.base is buf.grads and not buf.grads.any()
        opt.step()
        assert p.data[0, 0] == 3.0

    @settings(max_examples=60, deadline=None)
    @given(shapes=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 5)),
                           min_size=1, max_size=5),
           steps=st.integers(1, 6),
           lr=st.sampled_from([1e-3, 5e-3, 0.1]),
           block=st.sampled_from([1, 3, 7, training.BLOCK]),
           decay=st.sampled_from([0.0, 2e-6, 0.37]),
           seed=st.integers(0, 2**32 - 1))
    def test_flat_step_equals_per_tensor_update_bit_for_bit(
            self, shapes, steps, lr, block, decay, seed):
        """The whole-buffer step against the per-tensor formula, on
        gradients given through backward and by assignment into the bound
        flat views, with tensors that get no gradient at some steps (a
        missing one counts as zero, with or without decay), with blocks
        that split tensors, and with and without weight decay, which adds
        decay p to every tensor's gradient."""
        saved, training.BLOCK = training.BLOCK, block
        try:
            self._check_flat_step(shapes, steps, lr, decay, seed)
        finally:
            training.BLOCK = saved

    @staticmethod
    def _check_flat_step(shapes, steps, lr, decay, seed):
        rng = np.random.default_rng(seed)
        start = [rng.uniform(-1, 1, shape) for shape in shapes]
        buf = param_buffer(start)
        params = buf.tensors
        opt = Adam(buf, learning_rate=lr)
        expect = [x.copy() for x in start]
        m = [np.zeros_like(x) for x in start]
        v = [np.zeros_like(x) for x in start]
        for step in range(1, steps + 1):
            grads = [rng.standard_normal(shape) * 10.0 ** rng.integers(-4, 3)
                     if rng.random() < 0.7 else None for shape in shapes]
            for p, g in zip(params, grads):
                if g is None:
                    continue
                if rng.random() < 0.5:
                    p.grad[...] = g
                else:  # d/dp of sum(p * g) is exactly g
                    sum_all(mul(p, Tensor(g))).backward()
            opt.step(decay)
            assert all(p.grad.base is buf.grads for p in params)
            assert not buf.grads.any()
            c1, c2 = 1 - 0.9 ** step, 1 - 0.999 ** step
            for i, g in enumerate(grads):
                if g is None:
                    g = np.zeros_like(expect[i])
                if decay > 0:
                    g = g + expect[i] * decay
                m[i] = 0.9 * m[i] + (1 - 0.9) * g
                v[i] = 0.999 * v[i] + (1 - 0.999) * g * g
                m_hat = m[i] / c1
                v_hat = v[i] / c2
                expect[i] -= lr * m_hat / (np.sqrt(v_hat) + 1e-8)
            for p, x in zip(params, expect):
                np.testing.assert_array_equal(p.data, x)


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
        opt = Adam(manual.params.buffer, cfg.learning_rate)
        for pair in pairs:
            manual.loss_pair(pair.context, pair.response)[0].backward()
        # the penalty's gradient, 2 beta p once for each pair of the step
        opt.step(2.0 * cfg.beta * len(pairs))
        for name, t in trained.model.params.named().items():
            np.testing.assert_array_equal(t.data,
                                          manual.params.named()[name].data)

    def test_knowledge_is_prepared_once_per_pair(self, tiny, monkeypatch):
        """train_model acquires each pair's knowledge once per call, and its
        epoch losses and weights are the bits of a loop that acquires it
        again for every pair of every epoch (and takes the penalty once per
        step, as train_model does)."""
        pairs = tiny.pairs[:4]
        cfg = FAST.replace(epochs=4, batch_size=2)
        vocab = _vocab(pairs, tiny.kb)
        trained = build_model(vocab, tiny.kb, cfg)
        calls = []
        real = DialogModel.acquire

        def counting(self, ctx):
            calls.append(ctx)
            return real(self, ctx)

        monkeypatch.setattr(DialogModel, "acquire", counting)
        result = train_model(trained, pairs, cfg, log_every=0)
        assert calls == [p.context for p in pairs]

        manual = build_model(vocab, tiny.kb, cfg)
        params = manual.params.buffer
        opt = Adam(params, cfg.learning_rate)
        losses = []
        for _ in range(cfg.epochs):
            total = 0.0
            for index, pair in enumerate(pairs):
                if index % cfg.batch_size == 0:
                    penalty = params.norm_sq()
                loss, parts = manual.loss_pair(pair.context, pair.response)
                loss.backward()
                total += parts["total"] + cfg.beta * penalty
                if index % cfg.batch_size == cfg.batch_size - 1:
                    opt.step(2.0 * cfg.beta * cfg.batch_size)
            losses.append(total / len(pairs))
        assert len(calls) == len(pairs) * (cfg.epochs + 1)
        assert [x.hex() for x in result.epoch_losses] == \
            [x.hex() for x in losses]
        np.testing.assert_array_equal(trained.params.buffer.values,
                                      manual.params.buffer.values)

    def test_epochs_do_not_tokenize_linearize_or_sort(self, tiny,
                                                      monkeypatch):
        """train_model prepares each context once per call, so one epoch
        and three make the same context-side ``Vocabulary.encode`` calls
        and the same ``linearize_tuple`` calls. (The response side encodes
        its tokens for every pair of every epoch.)"""
        pairs = tiny.pairs[:4]
        vocab = _vocab(pairs, tiny.kb)
        responses = {tuple(p.response) for p in pairs}
        calls = Counter()
        real_encode = Vocabulary.encode

        def encode(self, tokens):
            if tuple(tokens) not in responses:
                calls["encode"] += 1
            return real_encode(self, tokens)

        monkeypatch.setattr(Vocabulary, "encode", encode)
        modules = [m for key, m in list(sys.modules.items())
                   if key.split(".")[0] == "kgdialog"]
        real = sys.modules["kgdialog.composer"].linearize_tuple

        def wrapper(t):
            calls["linearize_tuple"] += 1
            return real(t)

        for module in modules:
            if vars(module).get("linearize_tuple") is real:
                monkeypatch.setattr(module, "linearize_tuple", wrapper)
        counts = []
        for epochs in (1, 3):
            calls.clear()
            train_model(build_model(vocab, tiny.kb, FAST), pairs,
                        FAST.replace(epochs=epochs), log_every=0)
            counts.append(dict(calls))
        assert counts[0]["linearize_tuple"] > 0
        assert counts[0] == counts[1]

    def test_penalty_once_per_step_sums_the_per_pair_penalty(
            self, tiny, monkeypatch):
        """The reported epoch loss is the mean over the pairs of their
        objective lam * CE + gamma * L_r plus beta ||params||^2, the norm
        taken once per optimizer step, before its pairs: the same bits,
        with a remainder batch."""
        cfg = FAST.replace(epochs=2, batch_size=2, beta=1e-3)
        pairs = tiny.pairs[:3]
        model = build_model(_vocab(pairs, tiny.kb), tiny.kb, cfg)
        buf = model.params.buffer
        norms, seen = [buf.norm_sq()], []
        real_step, real_loss = Adam.step, DialogModel.loss_pair

        def step(opt, decay=0.0):
            real_step(opt, decay)
            norms.append(buf.norm_sq())

        def loss_pair(self, *args):
            loss, parts = real_loss(self, *args)
            seen.append(parts)
            return loss, parts

        monkeypatch.setattr(Adam, "step", step)
        monkeypatch.setattr(DialogModel, "loss_pair", loss_pair)
        result = train_model(model, pairs, cfg, log_every=0)
        assert len(norms) == 5 and len(set(norms)) == 5
        step_of = [0, 0, 1, 2, 2, 3]  # pairs 0 and 1, then 2, each epoch
        expect = []
        for epoch in range(cfg.epochs):
            total = 0.0
            for k in range(epoch * 3, epoch * 3 + 3):
                total += (cfg.lam * seen[k]["ce"] + cfg.gamma * seen[k]["reg"]
                          + cfg.beta * norms[step_of[k]])
            expect.append(total / len(pairs))
        assert [x.hex() for x in result.epoch_losses] == \
            [x.hex() for x in expect]

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

    @pytest.mark.parametrize("epochs", [0, 1])
    def test_train_model_rejects_no_pairs(self, tiny, epochs):
        model = build_model(_vocab(tiny.pairs, tiny.kb), tiny.kb, FAST)
        with pytest.raises(ValueError, match="no training pairs"):
            train_model(model, [], FAST.replace(epochs=epochs))

    def test_model_loaded_from_doc_trains_to_the_same_bytes(self, tiny):
        cfg = FAST.replace(epochs=2, batch_size=2)
        vocab = _vocab(tiny.pairs, tiny.kb)
        saved = build_model(vocab, tiny.kb, cfg)
        train_model(saved, tiny.pairs[:3], cfg.replace(epochs=1))
        loaded = model_from_doc(json.loads(json.dumps(checkpoint_doc(saved))),
                                tiny.kb)
        for t in loaded.params.buffer.tensors:
            assert t.data.base is loaded.params.buffer.values
        a = train_model(saved, tiny.pairs, cfg)
        b = train_model(loaded, tiny.pairs, cfg)
        assert a.epoch_losses == b.epoch_losses
        assert json.dumps(checkpoint_doc(saved)) == \
            json.dumps(checkpoint_doc(loaded))

    def test_two_models_share_no_values_or_gradients(self, tiny):
        cfg = FAST.replace(epochs=1, batch_size=2)
        vocab = _vocab(tiny.pairs, tiny.kb)
        a, b = (build_model(vocab, tiny.kb, cfg) for _ in range(2))
        fresh = b.params.buffer.values.copy()
        train_model(a, tiny.pairs[:4], cfg)
        np.testing.assert_array_equal(b.params.buffer.values, fresh)
        assert not np.array_equal(a.params.buffer.values, fresh)
        pair = tiny.pairs[0]
        a.loss_pair(pair.context, pair.response)[0].backward()
        grads_a = [None if t.grad is None else t.grad.copy()
                   for t in a.params.buffer.tensors]
        # a text-only pair does not reach the image projection
        assert any(g is None for g in grads_a)
        b.loss_pair(pair.context, pair.response)[0].backward()
        for t, g in zip(a.params.buffer.tensors, grads_a):
            assert (t.grad is None) == (g is None)
            if g is not None:
                np.testing.assert_array_equal(t.grad, g)
        assert not np.shares_memory(a.params.buffer.values,
                                    b.params.buffer.values)
        for model in (a, b):
            model.params.buffer.zero_grad()
        assert not np.shares_memory(a.params.buffer.grads,
                                    b.params.buffer.grads)
        train_model(b, tiny.pairs[:4], cfg)
        np.testing.assert_array_equal(b.params.buffer.values,
                                      a.params.buffer.values)

    def test_only_the_values_outlive_training(self, tiny):
        model = build_model(_vocab(tiny.pairs, tiny.kb), tiny.kb, FAST)
        train_model(model, tiny.pairs[:2], FAST.replace(epochs=1))
        assert model.params.buffer.grads is None
        assert all(t.grad is None for t in model.params.buffer.tensors)

    def test_inference_never_makes_a_gradient(self, tiny):
        """Decoding, exporting and the evaluation helpers build no graph,
        so a fresh model's buffer gets no flat gradient and no tensor a
        gradient."""
        model = build_model(_vocab(tiny.pairs, tiny.kb), tiny.kb, FAST)
        pair = tiny.pairs[0]
        for strategy in ("greedy", "beam:2"):
            model.generate_response(pair.context, strategy=strategy)
        model.export_representations(pair.context, pair.response)
        token_accuracy(model, tiny.pairs[:2])
        mean_semantic_gap(model, tiny.pairs[:2])
        assert model.params.buffer.grads is None
        assert all(t.grad is None for t in model.params.buffer.tensors)

    def test_first_backward_accumulates_into_the_flat_gradient(
            self, tiny, monkeypatch):
        """The optimizer makes the flat gradient before the run's first
        backward, so right after it every parameter's gradient, reached or
        not, is its view of ``ParamBuffer.grads``: no array of its own, no
        copy."""
        model = build_model(_vocab(tiny.pairs, tiny.kb), tiny.kb, FAST)
        buf = model.params.buffer
        after_first = []
        backward = ad.Tensor.backward

        def spy(loss):
            backward(loss)
            if not after_first:
                after_first.append((buf.grads, [(t.grad, t.grad.any())
                                                for t in buf.tensors]))

        monkeypatch.setattr(ad.Tensor, "backward", spy)
        train_model(model, tiny.pairs[:2], FAST.replace(epochs=1),
                    log_every=0)
        ((flat, grads),) = after_first
        assert flat is not None and all(g.base is flat for g, _ in grads)
        assert sum(reached for _, reached in grads) > len(grads) // 2

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
            b = model.semantic_truth(model.vocab.encode(pair.response)).data
            total += float(np.sum((a - b) ** 2))
        assert got == pytest.approx(total / 3, rel=1e-12)

    def test_checkpoint_of_trained_model_restores_metrics(self, tiny,
                                                          trained):
        doc = checkpoint_doc(trained.model)
        rebuilt = model_from_doc(doc, tiny.kb)
        assert evaluate(rebuilt, tiny.pairs[:3]) == \
            evaluate(trained.model, tiny.pairs[:3])
