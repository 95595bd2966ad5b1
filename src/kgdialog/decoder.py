"""Knowledge-aware autoregressive decoder with semantic enhancement.

Each decoder block runs four post-norm residual sub-layers over the prefix
states: causal masked self-attention, a knowledge sub-layer attending over
the attribute-knowledge embedding E_k, encoder-decoder attention over the
composed representation T_c, and an MLP. The final state for a position is
then enhanced once by a cross-attention read over a projected semantic
matrix — the ground-truth-side matrix during training, the composed-side
matrix at inference — before the output head predicts the token.
"""
from __future__ import annotations

import functools
import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .composer import (AttentionParams, EmbeddingTable, MlpParams,
                       Vocabulary, embed_indices)

logger = logging.getLogger(__name__)


@dataclass
class DecoderBlockParams:
    """One decoder block: self / knowledge / encoder attention, then MLP."""

    self_attn: AttentionParams
    ln1_gain: Tensor
    ln1_bias: Tensor
    knowledge_attn: AttentionParams
    ln2_gain: Tensor
    ln2_bias: Tensor
    encoder_attn: AttentionParams
    ln3_gain: Tensor
    ln3_bias: Tensor
    mlp: MlpParams
    ln4_gain: Tensor
    ln4_bias: Tensor


@dataclass
class SemanticEnhanceParams:
    """Cross-attention read over the semantic matrix, plus the fusing LN."""

    attn: AttentionParams
    ln_gain: Tensor
    ln_bias: Tensor


@dataclass
class OutputHead:
    """Token prediction head: D x V weights and 1 x V bias."""

    w_y: Tensor
    b_y: Tensor


@dataclass
class DecoderParams:
    blocks: tuple[DecoderBlockParams, ...]
    enhance: SemanticEnhanceParams
    head: OutputHead


@dataclass(frozen=True)
class LossWeights:
    """Objective weights: L = lam * L_CE + gamma * L_r + beta * ||params||^2."""

    lam: float = 1.0
    gamma: float = 0.1
    beta: float = 1e-6

    def __post_init__(self):
        if min(self.lam, self.gamma, self.beta) < 0:
            raise ValueError("loss weights must be non-negative")
        if self.lam == self.gamma == self.beta == 0:
            raise ValueError("at least one loss weight must be positive")


def decode_states(T_c: Tensor, E_k: Tensor, E_y: Tensor,
                  blocks: Sequence[DecoderBlockParams],
                  scale: bool = False) -> Tensor:
    """All prefix states at once (teacher forcing): row j is the state for
    predicting token j+1. Causal masking makes this bit-identical to
    feeding each prefix separately.

    When the context produced no attribute knowledge (E_k has no rows) the
    knowledge sub-layer is skipped — there is nothing to attend over.
    """
    n = E_y.shape[0]
    if n == 0:
        raise ValueError("decode_states: empty prefix")
    mask = ad.causal_mask(n)
    h = E_y
    for block in blocks:
        sa, _ = ad.cross_attention(h, h, block.self_attn.w_q,
                                   block.self_attn.w_k, block.self_attn.w_v,
                                   mask=mask, scale=scale)
        h = ad.layer_norm(ad.add(h, sa), block.ln1_gain, block.ln1_bias)
        if E_k.shape[0] > 0:
            ka, _ = ad.cross_attention(h, E_k, block.knowledge_attn.w_q,
                                       block.knowledge_attn.w_k,
                                       block.knowledge_attn.w_v, scale=scale)
            h = ad.layer_norm(ad.add(h, ka), block.ln2_gain, block.ln2_bias)
        ea, _ = ad.cross_attention(h, T_c, block.encoder_attn.w_q,
                                   block.encoder_attn.w_k,
                                   block.encoder_attn.w_v, scale=scale)
        h = ad.layer_norm(ad.add(h, ea), block.ln3_gain, block.ln3_bias)
        m = ad.mlp(h, block.mlp.w1, block.mlp.b1, block.mlp.w2, block.mlp.b2)
        h = ad.layer_norm(ad.add(h, m), block.ln4_gain, block.ln4_bias)
    return h


def decode_step(T_c: Tensor, E_k: Tensor, E_y: Tensor,
                blocks: Sequence[DecoderBlockParams],
                scale: bool = False) -> Tensor:
    """The 1 x D latent state at the last prefix position."""
    states = decode_states(T_c, E_k, E_y, blocks, scale)
    return ad.slice_rows(states, states.shape[0] - 1, states.shape[0])


def semantic_enhance(z_bar: Tensor, T_sem: Tensor,
                     params: SemanticEnhanceParams,
                     scale: bool = False) -> Tensor:
    """Enhance decoder states with a read over the semantic matrix.

    z-hat = LN(z-bar + cross_attention(z-bar, T_sem)). Rows are independent
    queries, so one call covers a whole teacher-forced sequence.
    """
    t_hat, _ = ad.cross_attention(z_bar, T_sem, params.attn.w_q,
                                  params.attn.w_k, params.attn.w_v, scale=scale)
    return ad.layer_norm(ad.add(z_bar, t_hat), params.ln_gain, params.ln_bias)


def predict_token(z_hat: Tensor, head: OutputHead) -> Tensor:
    """Per-row token distribution: softmax(z W_y + b_y), rows sum to 1."""
    return ad.softmax_rows(ad.linear(z_hat, head.w_y, head.b_y))


def total_loss(l_ce: Tensor, l_r: Tensor, params: Sequence[Tensor],
               w: LossWeights) -> Tensor:
    """The combined objective: lam * L_CE + gamma * L_r + beta * penalty,
    where the penalty is the summed squared entries of every trainable
    parameter tensor."""
    loss = ad.add(ad.mul_scalar(l_ce, w.lam), ad.mul_scalar(l_r, w.gamma))
    if w.beta > 0:
        loss = ad.add(loss, ad.mul_scalar(ad.sum_squares(params), w.beta))
    return loss


def generate(T_c: Tensor, E_k: Tensor, T_sem: Tensor, dec: DecoderParams,
             table: EmbeddingTable, vocab: Vocabulary, max_len: int = 32,
             strategy: str = "greedy", scale: bool = False) -> list[str]:
    """Decode a response starting from the begin token.

    Greedy picks the argmax at each step (ties resolved to the lowest
    index); "beam:k" keeps the k best unnormalized log-probability prefixes.
    Stops at the end token or after max_len tokens; the returned sequence
    excludes begin/end markers. The last step's prefix holds max_len
    positions, so max_len may not exceed the position table.
    """
    if not 1 <= max_len <= table.max_len:
        raise ValueError(f"max_len {max_len} outside [1, {table.max_len}]")
    step = functools.partial(_step_probs, T_c=T_c, E_k=E_k, T_sem=T_sem,
                             dec=dec, table=table, scale=scale)
    if strategy == "greedy":
        ids = _generate_greedy(step, vocab, max_len)
    elif strategy.startswith("beam:"):
        width = int(strategy.split(":", 1)[1])
        if width < 1:
            raise ValueError(f"beam width must be >= 1, got {width}")
        ids = _generate_beam(step, vocab, max_len, width)
    else:
        raise ValueError(f"unknown decoding strategy {strategy!r}")
    return vocab.decode(ids)


def _step_probs(prefix: list[int], T_c, E_k, T_sem, dec, table,
                scale) -> np.ndarray:
    E_y = embed_indices(prefix, table)
    z_bar = decode_step(T_c, E_k, E_y, dec.blocks, scale)
    z_hat = semantic_enhance(z_bar, T_sem, dec.enhance, scale)
    return predict_token(z_hat, dec.head).data[0]


def _generate_greedy(step, vocab, max_len) -> list[int]:
    with ad.no_grad():
        prefix = [vocab.BOS]
        out: list[int] = []
        for _ in range(max_len):
            probs = step(prefix)
            nxt = int(np.argmax(probs))  # first occurrence wins ties
            if nxt == vocab.EOS:
                break
            prefix.append(nxt)
            out.append(nxt)
        return out


def _generate_beam(step, vocab, max_len, width) -> list[int]:
    with ad.no_grad():
        # (cumulative log prob, prefix with BOS, finished)
        beams: list[tuple[float, list[int], bool]] = [(0.0, [vocab.BOS], False)]
        for _ in range(max_len):
            if all(done for _, _, done in beams):
                break
            candidates: list[tuple[float, list[int], bool]] = []
            for score, prefix, done in beams:
                if done:
                    candidates.append((score, prefix, True))
                    continue
                probs = step(prefix)
                logp = np.log(np.maximum(probs, ad.LOG_FLOOR))
                top = np.argsort(-logp, kind="stable")[:width]
                for idx in top:
                    idx = int(idx)
                    candidates.append((score + float(logp[idx]),
                                       prefix + [idx], idx == vocab.EOS))
            # highest score first; ties broken by prefix for determinism
            candidates.sort(key=lambda c: (-c[0], c[1]))
            beams = candidates[:width]
        best = beams[0][1]
        if best and best[-1] == vocab.EOS:
            best = best[:-1]
        return best[1:]  # drop BOS
