"""Optimization loop and evaluation for the dialog model.

``Adam`` updates a whole ``autodiff.ParamBuffer`` at once: each step is a
fixed sequence of in-place numpy calls over the flat values, gradients and
moments (the multi-tensor "foreach" form of the update), doing the
per-tensor formula's operations in the same order, so the trained weights
are the same bits as a loop over the tensors would give.

``train_model`` prepares each pair's context once per run. The L2
penalty beta * ||params||^2 is not part of a pair's graph: its gradient is
Adam's coupled weight decay, and its value, computed once per optimizer
step, is added to each pair's reported objective.
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .config import TrainingConfig
from .corpus import DialogPair
from .kb import KnowledgeBase
from .metrics import bleu_n, nist
from .model import DialogModel, build_model, build_vocabulary
from .regularizer import regularization_loss

logger = logging.getLogger(__name__)

BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's, as Kingma & Ba set them
# Entries per pass of a whole-buffer update (256 KB per float64 array), so
# that a block of every array it touches stays in cache across its numpy
# calls; NVIDIA apex's multi-tensor apply chunks its flat lists likewise.
BLOCK = 1 << 15


class TrainingDiverged(RuntimeError):
    """Raised when the loss stops being finite."""


class Adam:
    """Adam (Kingma & Ba) over one parameter buffer.

    ``params`` is a model's ``ParamBuffer``. The buffer's flat gradient is
    made and bound to its tensors here (``ParamBuffer.zero_grad``), so the
    first backward pass already accumulates into it. The two moments are
    flat arrays too, and live as long as the optimizer, with one ``BLOCK``
    of scratch space: a step runs the update's numpy calls over the buffer
    one block at a time, in the scratch block and the consumed gradient.
    """

    def __init__(self, params: ad.ParamBuffer, learning_rate: float):
        params.zero_grad()
        self.params = params
        self.learning_rate = float(learning_rate)
        self.step_count = 0
        n = params.values.size
        self._m, self._v = np.zeros(n), np.zeros(n)
        self._scratch = np.empty(min(BLOCK, n))
        self._spans = [slice(lo, min(lo + BLOCK, n))
                       for lo in range(0, n, BLOCK)]

    def step(self, decay: float = 0.0) -> None:
        """Apply one bias-corrected update to every tensor from the
        accumulated gradients, and consume them: the flat gradient serves
        as scratch and is zeroed afterwards. A tensor that no loss reached
        since the last step has a zero gradient and takes Adam's
        zero-gradient step, its moments decaying.

        ``decay`` is coupled weight decay, as in PyTorch's
        ``Adam(weight_decay=)``: decay times the values is added to the
        gradient before the moments see it, which is the gradient of an L2
        penalty decay / 2 times the squared norm."""
        self.step_count += 1
        b1, b2, lr, eps = BETA1, BETA2, self.learning_rate, ADAM_EPS
        correct1 = 1 - b1 ** self.step_count
        correct2 = 1 - b2 ** self.step_count
        params = self.params
        for run in self._spans:
            p, g, m, v = (params.values[run], params.grads[run],
                          self._m[run], self._v[run])
            s = self._scratch[:run.stop - run.start]
            if decay > 0:
                np.multiply(p, decay, out=s)        # g = g + decay p
                np.add(g, s, out=g)
            np.multiply(m, b1, out=m)               # m = b1 m + (1 - b1) g
            np.multiply(g, 1 - b1, out=s)
            np.add(m, s, out=m)
            np.multiply(v, b2, out=v)               # v = b2 v + (1 - b2) g g
            np.multiply(g, 1 - b2, out=s)
            np.multiply(s, g, out=s)
            np.add(v, s, out=v)
            np.divide(m, correct1, out=g)           # lr m_hat
            np.multiply(g, lr, out=g)
            np.divide(v, correct2, out=s)           # sqrt(v_hat) + eps
            np.sqrt(s, out=s)
            np.add(s, eps, out=s)
            np.divide(g, s, out=s)
            np.subtract(p, s, out=p)
        params.zero_grad()


@dataclass
class TrainResult:
    """Trained model plus the per-epoch mean loss trajectory."""

    model: DialogModel
    epoch_losses: list[float] = field(default_factory=list)

    @property
    def initial_loss(self) -> float:
        return self.epoch_losses[0]

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1]


def train(pairs: list[DialogPair], kb: KnowledgeBase,
          cfg: TrainingConfig, log_every: int = 10) -> TrainResult:
    """Fit a fresh model on ``pairs`` against ``kb``.

    The vocabulary is built from the corpus and knowledge base up front;
    pairs are visited in a fixed order each epoch and gradients are
    accumulated over ``cfg.batch_size`` pairs before each update.
    """
    vocab = build_vocabulary(
        [list(p.context.text_tokens) + list(p.response) for p in pairs], kb)
    model = build_model(vocab, kb, cfg)
    return train_model(model, pairs, cfg, log_every=log_every)


def train_model(model: DialogModel, pairs: list[DialogPair],
                cfg: TrainingConfig, log_every: int = 10) -> TrainResult:
    """Optimization loop over an existing model (see :func:`train`).

    Every pair's decoder prefix (the start marker plus the response) must
    fit the position table; this is checked before the first update.

    Memory is one pair's graph plus one flat gradient: each pair's
    ``backward`` releases that pair's graph before the next pair's forward
    pass is built, and the optimizer makes the flat gradient and binds the
    parameters' gradients to it before the first backward, so every
    backward adds straight into it. Each step updates every parameter,
    whether or not the batch's losses reached it, at any ``beta``.

    Each pair's context is prepared once per call (``DialogModel.prepare``),
    since it does not depend on the parameters; the prepared list lives
    only as long as the call.

    The L2 penalty beta * ||params||^2 is not in the pair's graph: the
    parameters do not change within an optimizer batch, so its gradient,
    2 beta p for each pair of the batch, is the optimizer's weight decay
    (``Adam.step``), and its value, computed once per step, is added to
    each pair's ``loss_pair`` objective for the reported loss.
    """
    if not pairs:
        raise ValueError("no training pairs")
    limit = model.params.table.max_len
    for index, pair in enumerate(pairs):
        if len(pair.response) + 1 > limit:
            raise ValueError(
                f"pair {index}: response needs {len(pair.response) + 1} "
                f"decoder positions (start marker included), but "
                f"max_seq_len is {limit}")
    prepared = [model.prepare(pair.context) for pair in pairs]
    params, beta = model.params.buffer, model.cfg.beta
    optimizer = Adam(params, cfg.learning_rate)
    result = TrainResult(model=model)
    started = time.monotonic()
    try:
        for epoch in range(cfg.epochs):
            epoch_total = 0.0
            pending = 0
            for index, pair in enumerate(pairs):
                if pending == 0:
                    penalty = params.norm_sq() if beta > 0 else 0.0
                loss, parts = model.loss_pair(pair.context, pair.response,
                                              prepared[index])
                objective = parts["total"] + beta * penalty
                if not np.isfinite(objective):
                    raise TrainingDiverged(f"non-finite loss at epoch {epoch} "
                                           f"pair {index}: {parts}, "
                                           f"penalty {penalty}")
                loss.backward()
                epoch_total += objective
                pending += 1
                if pending == cfg.batch_size or index == len(pairs) - 1:
                    optimizer.step(2.0 * beta * pending)
                    pending = 0
            mean_loss = epoch_total / len(pairs)
            result.epoch_losses.append(mean_loss)
            if log_every and (epoch % log_every == 0
                              or epoch == cfg.epochs - 1):
                logger.info("epoch %d mean loss %.6f (%.1fs)",
                            epoch, mean_loss, time.monotonic() - started)
    finally:
        # only the values outlive the run: not the flat gradient, and not
        # the optimizer's moments (nothing else refers to the optimizer)
        params.release_grads()
    return result


def evaluate(model: DialogModel, pairs: list[DialogPair],
             strategy: str = "greedy") -> dict[str, float]:
    """Generate a response per pair and score the corpus.

    Returns BLEU-1..4, NIST, and exact-match rate against the reference
    responses.
    """
    if not pairs:
        raise ValueError("no evaluation pairs")
    candidates = [list(model.generate_response(p.context, strategy=strategy))
                  for p in pairs]
    references = [[t.lower() for t in p.response] for p in pairs]
    exact = sum(c == r for c, r in zip(candidates, references)) / len(pairs)
    scores = {f"bleu{n}": bleu_n(candidates, references, n)
              for n in range(1, 5)}
    scores["nist"] = nist(candidates, references)
    scores["exact_match"] = exact
    return scores


def token_accuracy(model: DialogModel, pairs: list[DialogPair]) -> float:
    """Teacher-forced next-token accuracy with the composed semantics.

    For each pair the gold prefix is fed and the argmax prediction is
    compared against each target token (response plus the end marker).
    """
    if not pairs:
        raise ValueError("no pairs")
    hit = 0
    total = 0
    with ad.no_grad():
        for pair in pairs:
            probs, targets, _ = model.teacher_predictions(
                pair.context, pair.response, enhance_with="composed")
            predicted = np.argmax(probs.data, axis=1)
            hit += int(np.sum(predicted == np.asarray(targets)))
            total += len(targets)
    return hit / total


def mean_semantic_gap(model: DialogModel, pairs: list[DialogPair]) -> float:
    """Mean L_r, the squared Frobenius distance between the two semantic
    projections (``regularizer.regularization_loss``).

    Measures, on held-out pairs, how far the composed-side projection sits
    from the ground-truth-side projection the regularizer pulls it toward.
    """
    if not pairs:
        raise ValueError("no pairs")
    total = 0.0
    with ad.no_grad():
        for pair in pairs:
            comp = model.compose_context(pair.context)
            truth = model.semantic_truth(model.vocab.encode(pair.response))
            total += regularization_loss(truth,
                                         model.semantic_composed(comp)).item()
    return total / len(pairs)
