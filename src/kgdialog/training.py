"""Optimization loop and evaluation for the dialog model."""
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

logger = logging.getLogger(__name__)


class TrainingDiverged(RuntimeError):
    """Raised when the loss stops being finite."""


class Adam:
    """Adam optimizer over a fixed list of tensors."""

    def __init__(self, tensors: list[ad.Tensor], learning_rate: float,
                 beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.tensors = list(tensors)
        self.learning_rate = float(learning_rate)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._m = [np.zeros_like(t.data) for t in self.tensors]
        self._v = [np.zeros_like(t.data) for t in self.tensors]

    def step(self) -> None:
        """Apply one bias-corrected update from accumulated gradients."""
        self.step_count += 1
        correct1 = 1 - self.beta1 ** self.step_count
        correct2 = 1 - self.beta2 ** self.step_count
        for i, tensor in enumerate(self.tensors):
            g = tensor.grad
            if g is None:
                continue
            self._m[i] = self.beta1 * self._m[i] + (1 - self.beta1) * g
            self._v[i] = self.beta2 * self._v[i] + (1 - self.beta2) * g * g
            m_hat = self._m[i] / correct1
            v_hat = self._v[i] / correct2
            tensor.data -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for tensor in self.tensors:
            tensor.grad = None


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
    if not pairs:
        raise ValueError("no training pairs")
    vocab = build_vocabulary(
        [list(p.context.text_tokens) + list(p.response) for p in pairs], kb)
    model = build_model(vocab, kb, cfg)
    return train_model(model, pairs, cfg, log_every=log_every)


def train_model(model: DialogModel, pairs: list[DialogPair],
                cfg: TrainingConfig, log_every: int = 10) -> TrainResult:
    """Optimization loop over an existing model (see :func:`train`).

    Every pair's decoder prefix (the start marker plus the response) must
    fit the position table; this is checked before the first update.
    """
    limit = model.params.table.max_len
    for index, pair in enumerate(pairs):
        if len(pair.response) + 1 > limit:
            raise ValueError(
                f"pair {index}: response needs {len(pair.response) + 1} "
                f"decoder positions (start marker included), but "
                f"max_seq_len is {limit}")
    tensors = model.params.all_tensors()
    optimizer = Adam(tensors, cfg.learning_rate)
    result = TrainResult(model=model)
    started = time.monotonic()
    for epoch in range(cfg.epochs):
        epoch_total = 0.0
        optimizer.zero_grad()
        pending = 0
        for index, pair in enumerate(pairs):
            loss, parts = model.loss_pair(pair.context, pair.response)
            if not np.isfinite(parts["total"]):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch} pair {index}: {parts}")
            loss.backward()
            epoch_total += parts["total"]
            pending += 1
            if pending == cfg.batch_size or index == len(pairs) - 1:
                optimizer.step()
                optimizer.zero_grad()
                pending = 0
        mean_loss = epoch_total / len(pairs)
        result.epoch_losses.append(mean_loss)
        if log_every and (epoch % log_every == 0 or epoch == cfg.epochs - 1):
            logger.info("epoch %d mean loss %.6f (%.1fs)",
                        epoch, mean_loss, time.monotonic() - started)
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
    """Mean Frobenius distance between the two semantic projections.

    Measures, on held-out pairs, how far the composed-side projection sits
    from the ground-truth-side projection the regularizer pulls it toward.
    """
    if not pairs:
        raise ValueError("no pairs")
    total = 0.0
    with ad.no_grad():
        for pair in pairs:
            comp = model.compose_context(pair.context)
            composed = model.semantic_composed(comp)
            truth = model.semantic_truth(pair.response)
            total += float(np.sum((composed.data - truth.data) ** 2))
    return total / len(pairs)
