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
blocks one position at a time through a ``DecodeCache``, on plain float64
arrays from the embedding to the output head, through the kernels the
graph ops share (``autodiff._softmax``, ``_layer_norm_rows`` and
``_mlp``), so a step builds no graph node:

- each step feeds one new row per live hypothesis through the blocks, at
  the position the cache counts;
- each block keeps the self-attention keys and values of every position
  fed so far as a G x L x D array (G hypotheses, L positions), so a
  step's self-attention is a batched matmul costing G·L·D, with no
  G x (G·L) mask;
- the knowledge and encoder keys and values of E_k and T_c, and the
  semantic keys and values of T_sem that enhancement reads, are projected
  once per reply, by the first step, with the keys stored transposed;
- beam search stacks its live hypotheses as the G rows, so one pass
  scores all of them, and after each step the cache keeps the rows of the
  surviving parents.

A cached step's distributions equal the teacher-forced rows at the same
positions up to float summation order; both scale as the parameters say.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .composer import AttentionParams, EmbeddingTable, MlpParams, Vocabulary
from .config import TrainingConfig


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


def decode_states(T_c: Tensor, E_k: Tensor, E_y: Tensor,
                  blocks: Sequence[DecoderBlockParams],
                  cache: DecodeCache | None = None) -> Tensor:
    """Decoder states for the rows of E_y: each row is the state that
    predicts the token after it.

    Without a cache E_y is a whole prefix (teacher forcing); causal masking
    makes row j bit-identical to feeding the first j+1 rows alone, and each
    attention read is one ``cross_attention`` node. With a cache E_y holds
    one new row per hypothesis, at the position after the ones the cache
    holds, and ``DecodeCache.step`` runs the blocks on plain arrays: the
    result carries no graph, so the cached path is for inference.

    When the context produced no attribute knowledge (E_k has no rows) the
    knowledge sub-layer is skipped — there is nothing to attend over.
    """
    if E_y.shape[0] == 0:
        raise ValueError("decode_states: empty prefix")
    if cache is not None:
        return Tensor(cache.step(T_c, E_k, E_y.data, blocks))
    h = E_y
    for block in blocks:
        sa = block.self_attn
        a, _ = ad.cross_attention(h, h, sa.w_q, sa.w_k, sa.w_v,
                                  scale=sa.scale, causal=True)
        h = ad.residual_layer_norm(h, a, block.ln1_gain, block.ln1_bias)
        if E_k.shape[0]:
            h = _read(h, E_k, block.knowledge_attn, block.ln2_gain,
                      block.ln2_bias)
        h = _read(h, T_c, block.encoder_attn, block.ln3_gain, block.ln3_bias)
        m = ad.mlp(h, block.mlp.w1, block.mlp.b1, block.mlp.w2, block.mlp.b2)
        h = ad.residual_layer_norm(h, m, block.ln4_gain, block.ln4_bias)
    return h


def _read(h: Tensor, src: Tensor, attn: AttentionParams, gain: Tensor,
          bias: Tensor) -> Tensor:
    """A residual attention read of h over src, then LN: one
    ``cross_attention`` node and one ``residual_layer_norm`` node."""
    a, _ = ad.cross_attention(h, src, attn.w_q, attn.w_k, attn.w_v,
                              scale=attn.scale)
    return ad.residual_layer_norm(h, a, gain, bias)


def semantic_enhance(z_bar: Tensor, T_sem: Tensor,
                     params: SemanticEnhanceParams) -> Tensor:
    """Enhance decoder states with a read over the semantic matrix.

    z-hat = LN(z-bar + cross_attention(z-bar, T_sem)). Rows are independent
    queries, so one call covers a whole teacher-forced sequence.
    """
    return _read(z_bar, T_sem, params.attn, params.ln_gain, params.ln_bias)


class _Source(NamedTuple):
    """A fixed source's keys, transposed (D x N), and values (N x D) under
    one read's projections."""

    keys_t: np.ndarray
    values: np.ndarray


def _project(src: Tensor, attn: AttentionParams) -> _Source:
    """src's keys and values under ``attn``'s projections."""
    k = src.data @ attn.w_k.data
    v = src.data @ attn.w_v.data
    return _Source(k.T.copy(), v)


def _scale_logits(logits: np.ndarray, attn: AttentionParams) -> None:
    """Times 1 / sqrt(D) in place, D the read's width, if ``attn`` scales."""
    if attn.scale:
        logits *= 1.0 / math.sqrt(attn.w_q.shape[1])


def _attend_source(h: np.ndarray, attn: AttentionParams,
                   src: _Source) -> np.ndarray:
    """softmax((h w_q) keys^T) values over a source ``attn`` projected: the
    arithmetic of ``autodiff._attend`` on keys transposed beforehand."""
    logits = h @ attn.w_q.data @ src.keys_t
    _scale_logits(logits, attn)
    return ad._softmax(logits) @ src.values


def _add_norm(h: np.ndarray, y: np.ndarray, gain: Tensor,
              bias: Tensor) -> np.ndarray:
    """layer_norm(h + y): ``residual_layer_norm``'s forward."""
    return ad._layer_norm_rows(h + y, gain.data, bias.data)[0]


class DecodeCache:
    """One reply's decoding state, filled as its steps run; every step is
    computed on plain arrays, through the kernels the graph ops share, so
    a cached row equals the teacher-forced row up to float summation order.

    ``step`` runs the blocks over each hypothesis' new row and ``predict``
    the enhancement read and the output head. ``reads`` holds the
    knowledge and encoder sources of each block (E_k's is None when there
    is no knowledge) and ``semantic`` T_sem, each projected at the reply's
    first step. ``keys`` and ``values`` hold each block's self-attention
    keys and values of every position fed so far, one G x L x D array per
    block for G hypotheses of L positions. ``length`` counts the positions
    fed, so that a decoder without blocks still places each step's row.
    """

    def __init__(self):
        self.reads: list[tuple[_Source | None, _Source]] | None = None
        self.semantic: _Source | None = None
        self.keys: list[np.ndarray] = []
        self.values: list[np.ndarray] = []
        self.length = 0

    def select(self, rows: Sequence[int]) -> None:
        """Keep the hypotheses at ``rows``, in that order; a row may repeat
        (one parent extended several ways)."""
        self.keys = [k[rows] for k in self.keys]
        self.values = [v[rows] for v in self.values]

    def step(self, T_c: Tensor, E_k: Tensor, h: np.ndarray,
             blocks: Sequence[DecoderBlockParams]) -> np.ndarray:
        """The states of the G new rows h, one per hypothesis, at position
        ``length``, which then advances."""
        if self.reads is None:
            self.reads = [(_project(E_k, b.knowledge_attn) if E_k.shape[0]
                           else None, _project(T_c, b.encoder_attn))
                          for b in blocks]
        for i, (block, (knowledge, encoder)) in enumerate(zip(blocks,
                                                              self.reads)):
            a = self._attend_self(i, h, block.self_attn)
            h = _add_norm(h, a, block.ln1_gain, block.ln1_bias)
            if knowledge is not None:
                a = _attend_source(h, block.knowledge_attn, knowledge)
                h = _add_norm(h, a, block.ln2_gain, block.ln2_bias)
            a = _attend_source(h, block.encoder_attn, encoder)
            h = _add_norm(h, a, block.ln3_gain, block.ln3_bias)
            m = block.mlp
            a, _ = ad._mlp(h, m.w1.data, m.b1.data, m.w2.data, m.b2.data)
            h = _add_norm(h, a, block.ln4_gain, block.ln4_bias)
        self.length += 1
        return h

    def _attend_self(self, block: int, h: np.ndarray,
                     attn: AttentionParams) -> np.ndarray:
        """Project the new rows h, append their keys and values to
        ``block``'s cache and return softmax(q k^T) v of each row over its
        own hypothesis: one batched matmul each way, G x L x D work for G
        hypotheses."""
        q = h @ attn.w_q.data
        new_k = (h @ attn.w_k.data)[:, None, :]
        new_v = (h @ attn.w_v.data)[:, None, :]
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
        _scale_logits(logits, attn)
        weights = ad._softmax(logits)
        return np.matmul(weights[:, None, :], self.values[block])[:, 0]

    def predict(self, z: np.ndarray, T_sem: Tensor,
                enhance: SemanticEnhanceParams, head: OutputHead) -> np.ndarray:
        """The G x V next-token distributions of the G states z: the
        enhancement read over T_sem, then the output head, as
        ``semantic_enhance`` and ``predict_token`` compute them."""
        if self.semantic is None:
            self.semantic = _project(T_sem, enhance.attn)
        z = _add_norm(z, _attend_source(z, enhance.attn, self.semantic),
                      enhance.ln_gain, enhance.ln_bias)
        return ad._softmax(z @ head.w_y.data + head.b_y.data)


def predict_token(z_hat: Tensor, head: OutputHead) -> Tensor:
    """Per-row token distribution: softmax(z W_y + b_y), rows sum to 1."""
    return ad.softmax_rows(ad.linear(z_hat, head.w_y, head.b_y))


def total_loss(l_ce: Tensor, l_r: Tensor, cfg: TrainingConfig) -> Tensor:
    """The pair's objective with ``cfg``'s weights, lam * L_CE + gamma * L_r,
    as one ``weighted_sum`` node. The L2 penalty beta * ||params||^2 is not
    in it: training applies it as the optimizer's weight decay
    (``training.Adam.step``)."""
    return ad.weighted_sum((l_ce, l_r), (cfg.lam, cfg.gamma))


def generate(T_c: Tensor, E_k: Tensor, T_sem: Tensor, dec: DecoderParams,
             table: EmbeddingTable, vocab: Vocabulary, max_len: int = 32,
             strategy: str = "greedy") -> list[str]:
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

    def step(cache: DecodeCache, tokens: list[int]) -> np.ndarray:
        """Feed one token per hypothesis; return the G x V distributions
        over each hypothesis' next token. No step builds a graph node."""
        E_y = Tensor(table.token.data[tokens]
                     + table.position.data[[cache.length] * len(tokens)])
        z_bar = decode_states(T_c, E_k, E_y, dec.blocks, cache)
        return cache.predict(z_bar.data, T_sem, dec.enhance, dec.head)

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


LOG_FLOOR = 1e-12  # beam scores take logs of probabilities floored here


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
        logp = np.log(np.maximum(probs, LOG_FLOOR))
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
