"""Knowledge-aware autoregressive decoder with semantic enhancement.

Each decoder block runs four post-norm residual sub-layers over the prefix
states: causal masked self-attention, a knowledge sub-layer attending over
the attribute-knowledge embedding E_k, encoder-decoder attention over the
composed representation T_c, and an MLP. The final state for a position is
then enhanced once by a cross-attention read over a projected semantic
matrix — the ground-truth-side matrix during training, the composed-side
matrix at inference — before the output head predicts the token.

Training runs ``decode_states`` teacher-forced over the whole prefix, and
that path is the reference: every attention read there is one
``cross_attention`` node, projections included. Generation runs the same
block body one position at a time through a ``DecodeCache``, which holds
every projection a reply reuses, as plain arrays:

- each step feeds one new row per live hypothesis through the blocks, at
  the position the cache counts;
- each block keeps the self-attention keys and values of every position
  fed so far as a G x L x D array (G hypotheses, L positions), so a
  step's self-attention is a batched matmul costing G·L·D, with no
  G x (G·L) mask;
- the knowledge and encoder keys and values of E_k and T_c, and the
  semantic keys and values of T_sem that enhancement reads, are projected
  once per reply, by the first step;
- beam search stacks its live hypotheses as the G rows, so one pass
  scores all of them, and after each step the cache keeps the rows of the
  surviving parents.

A cached step's distributions equal the teacher-forced rows at the same
positions up to float summation order.
"""
from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .composer import AttentionParams, EmbeddingTable, MlpParams, Vocabulary

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
        for name in ("lam", "gamma", "beta"):
            value = getattr(self, name)
            # written so that NaN fails too: every comparison with it is false
            if not 0 <= value < math.inf:
                raise ValueError(f"loss weight {name} must be finite and "
                                 f"non-negative, got {value!r}")
        if self.lam == self.gamma == self.beta == 0:
            raise ValueError("at least one loss weight must be positive")


def decode_states(T_c: Tensor, E_k: Tensor, E_y: Tensor,
                  blocks: Sequence[DecoderBlockParams],
                  scale: bool = False,
                  cache: DecodeCache | None = None) -> Tensor:
    """Decoder states for the rows of E_y: each row is the state that
    predicts the token after it.

    Without a cache E_y is a whole prefix (teacher forcing); causal masking
    makes row j bit-identical to feeding the first j+1 rows alone, and each
    knowledge and encoder read is one ``cross_attention`` node. With a
    cache E_y holds one new row per hypothesis, at the position after the
    ones the cache holds: each row's self-attention reads its own
    hypothesis' cached rows and itself, the cache keeps the new keys and
    values, and the reads use the keys and values of E_k and T_c that the
    cache projected at the reply's first step. Cached keys and values are
    plain arrays, so the cached path is for inference; no gradient flows
    back into earlier positions.

    When the context produced no attribute knowledge (E_k has no rows) the
    knowledge sub-layer is skipped — there is nothing to attend over.
    """
    if E_y.shape[0] == 0:
        raise ValueError("decode_states: empty prefix")
    h = E_y
    for i, block in enumerate(blocks):
        sa = block.self_attn
        if cache is None:
            a, _ = ad.cross_attention(h, h, sa.w_q, sa.w_k, sa.w_v,
                                      scale=scale, causal=True)
        else:
            a = cache.attend(i, h, sa, scale)
        h = ad.residual_layer_norm(h, a, block.ln1_gain, block.ln1_bias)
        if E_k.shape[0]:
            h = _read(h, E_k, block.knowledge_attn, block.ln2_gain,
                      block.ln2_bias, scale, cache)
        h = _read(h, T_c, block.encoder_attn, block.ln3_gain,
                  block.ln3_bias, scale, cache)
        m = ad.mlp(h, block.mlp.w1, block.mlp.b1, block.mlp.w2, block.mlp.b2)
        h = ad.residual_layer_norm(h, m, block.ln4_gain, block.ln4_bias)
    if cache is not None:
        cache.length += 1
    return h


class DecodeCache:
    """What one reply's decoding steps reuse, filled as they run.

    ``projected`` holds the keys and values of every fixed source a reply
    reads (E_k and T_c in each block, T_sem in enhancement), projected at
    the first read and keyed by the source and the read's projections.
    ``keys`` and ``values`` hold each block's self-attention keys and values
    of every position fed so far, one G x L x D array per block for G
    hypotheses of L positions. ``length`` counts the positions fed, so that
    a decoder without blocks still places each step's row.
    """

    def __init__(self):
        self.projected: dict[tuple[int, int],
                             tuple[np.ndarray, np.ndarray]] = {}
        self.keys: list[np.ndarray] = []
        self.values: list[np.ndarray] = []
        self.length = 0

    def select(self, rows: Sequence[int]) -> None:
        """Keep the hypotheses at ``rows``, in that order; a row may repeat
        (one parent extended several ways)."""
        self.keys = [k[rows] for k in self.keys]
        self.values = [v[rows] for v in self.values]

    def read(self, h: Tensor, src: Tensor, attn: AttentionParams,
             scale: bool) -> Tensor:
        """softmax((h w_q)(src w_k)^T)(src w_v) over plain arrays, with
        src's keys and values projected by the first read of src through
        ``attn`` and reused by every later one; no graph is built. One cache
        serves one reply, whose sources and weights stay fixed and alive,
        so their ids name the projection."""
        key = (id(src), id(attn))
        kv = self.projected.get(key)
        if kv is None:
            kv = self.projected[key] = (src.data @ attn.w_k.data,
                                        src.data @ attn.w_v.data)
        out, _, _ = ad._attend("DecodeCache.read", h.data @ attn.w_q.data,
                               *kv, scale, False)
        return Tensor(out)

    def attend(self, block: int, h: Tensor, attn: AttentionParams,
               scale: bool) -> Tensor:
        """Project the new rows h, append their keys and values to
        ``block``'s cache and return softmax(q k^T) v of each row over its
        own hypothesis: one batched matmul each way, G x L x D work for G
        hypotheses. Plain arrays throughout; no graph is built."""
        q = h.data @ attn.w_q.data
        new_k = (h.data @ attn.w_k.data)[:, None, :]
        new_v = (h.data @ attn.w_v.data)[:, None, :]
        if block == len(self.keys):
            self.keys.append(new_k)
            self.values.append(new_v)
        else:
            if new_k.shape[0] != self.keys[block].shape[0]:
                raise ValueError(f"decode_states: {new_k.shape[0]} new rows "
                                 f"for {self.keys[block].shape[0]} cached "
                                 f"hypotheses")
            self.keys[block] = np.concatenate((self.keys[block], new_k), 1)
            self.values[block] = np.concatenate((self.values[block], new_v),
                                                1)
        logits = np.matmul(self.keys[block], q[:, :, None])[:, :, 0]
        if scale:
            logits = logits * (1.0 / np.sqrt(q.shape[1]))
        weights = ad._softmax(logits)
        return Tensor(np.matmul(weights[:, None, :], self.values[block])[:, 0])


def _read(h: Tensor, src: Tensor, attn: AttentionParams, gain: Tensor,
          bias: Tensor, scale: bool, cache: DecodeCache | None) -> Tensor:
    """A residual attention read of h over src, then LN: one
    ``cross_attention`` node, or the cache's read of src projected once."""
    if cache is None:
        a, _ = ad.cross_attention(h, src, attn.w_q, attn.w_k, attn.w_v,
                                  scale=scale)
    else:
        a = cache.read(h, src, attn, scale)
    return ad.residual_layer_norm(h, a, gain, bias)


def semantic_enhance(z_bar: Tensor, T_sem: Tensor,
                     params: SemanticEnhanceParams, scale: bool = False,
                     cache: DecodeCache | None = None) -> Tensor:
    """Enhance decoder states with a read over the semantic matrix.

    z-hat = LN(z-bar + cross_attention(z-bar, T_sem)). Rows are independent
    queries, so one call covers a whole teacher-forced sequence. With a
    cache (``generate``), T_sem's keys and values are projected once per
    reply and the read is the same on plain arrays.
    """
    return _read(z_bar, T_sem, params.attn, params.ln_gain, params.ln_bias,
                 scale, cache)


def predict_token(z_hat: Tensor, head: OutputHead) -> Tensor:
    """Per-row token distribution: softmax(z W_y + b_y), rows sum to 1."""
    return ad.softmax_rows(ad.linear(z_hat, head.w_y, head.b_y))


def total_loss(l_ce: Tensor, l_r: Tensor, params: ad.ParamBuffer,
               w: LossWeights, penalty: float | None = None) -> Tensor:
    """The combined objective: lam * L_CE + gamma * L_r + beta * penalty,
    where the penalty is the summed squared entries of every parameter in
    the buffer, as one ``weighted_sum`` node over the two loss terms and
    (when beta > 0) one ``squared_norm`` node. The penalty node has no
    parents, so its backward runs after every other contribution to the
    parameters.

    ``penalty`` is ``params.norm_sq()`` when the caller holds it already
    and adds the penalty's gradient itself (``train_model`` does both once
    per optimizer step). The penalty is then a constant of the graph: the
    objective's value is the same bits, and no gradient flows from it."""
    if w.beta == 0:
        return ad.weighted_sum((l_ce, l_r), (w.lam, w.gamma))
    norm = ad.squared_norm(params) if penalty is None else Tensor([[penalty]])
    return ad.weighted_sum((l_ce, l_r, norm), (w.lam, w.gamma, w.beta))


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
    width = _beam_width(strategy)
    if not 1 <= max_len <= table.max_len:
        raise ValueError(f"max_len {max_len} outside [1, {table.max_len}]")

    with ad.no_grad():
        def step(cache: DecodeCache, tokens: list[int]) -> np.ndarray:
            """Feed one token per hypothesis; return the G x V
            distributions over each hypothesis' next token."""
            E_y = ad.embed(table.token, table.position, tokens,
                           [cache.length] * len(tokens))
            z_bar = decode_states(T_c, E_k, E_y, dec.blocks, scale, cache)
            z_hat = semantic_enhance(z_bar, T_sem, dec.enhance, scale, cache)
            return predict_token(z_hat, dec.head).data

        if width is None:
            ids = _generate_greedy(step, vocab, max_len)
        else:
            ids = _generate_beam(step, vocab, max_len, width)
    return vocab.decode(ids)


def _beam_width(strategy: str) -> int | None:
    """The width of "beam:K", or None for "greedy"."""
    if strategy == "greedy":
        return None
    match = re.fullmatch(r"beam:([0-9]+)", strategy)
    if match is None:
        raise ValueError(f"unknown decoding strategy {strategy!r}; expected "
                         f"'greedy' or 'beam:K'")
    width = int(match[1])
    if width < 1:
        raise ValueError(f"beam width must be >= 1, got {width}")
    return width


def _generate_greedy(step, vocab, max_len) -> list[int]:
    cache = DecodeCache()
    out: list[int] = []
    token = vocab.BOS
    for _ in range(max_len):
        token = int(np.argmax(step(cache, [token])[0]))  # first max wins ties
        if token == vocab.EOS:
            break
        out.append(token)
    return out


def _generate_beam(step, vocab, max_len, width) -> list[int]:
    cache = DecodeCache()
    # (cumulative log prob, prefix with BOS, finished, parent's cache row)
    beams: list[tuple[float, list[int], bool, int]] = [
        (0.0, [vocab.BOS], False, 0)]
    for _ in range(max_len):
        live = [b for b in beams if not b[2]]
        if not live:
            break
        cache.select([row for _, _, _, row in live])
        probs = step(cache, [prefix[-1] for _, prefix, _, _ in live])
        logp = np.log(np.maximum(probs, ad.LOG_FLOOR))
        top = np.argsort(-logp, axis=1, kind="stable")[:, :width]
        candidates = [b for b in beams if b[2]]
        for row, (score, prefix, _, _) in enumerate(live):
            for idx in top[row]:
                idx = int(idx)
                candidates.append((score + float(logp[row, idx]),
                                   prefix + [idx], idx == vocab.EOS, row))
        # highest score first; ties broken by prefix for determinism
        candidates.sort(key=lambda c: (-c[0], c[1]))
        beams = candidates[:width]
    best = beams[0][1]
    if best and best[-1] == vocab.EOS:
        best = best[:-1]
    return best[1:]  # drop BOS
