"""Embedding, the desk-scale context encoder, and knowledge composition.

The composition pipeline turns one dialog context plus its acquired
knowledge into the multi-level composed representation T_c.
``prepare_context`` decides its parameter-free part once (tuple order,
token ids, positions, cuts to the position table); ``compose`` runs:

  1. Embed attribute-knowledge tokens (E_k), context tokens (E_t), and
     projected context image features (E_v), positions running contiguously
     across the concatenation.
  2. Encode the concatenation with a small trainable transformer-style
     encoder to get the attribute-composed representation T_t.
  3. Encode the relation tuples, each tuple a segment with its own
     positions that attends only to itself, in passes of whole tuples of
     at most ``TUPLE_PASS_ROWS`` rows, and mean-pool each segment to one
     row (T_h); reorganize T_h against T_t via cross-attention, and fuse
     the two views position-wise into T_c with learned confidence weights
     r_t, r_h.

With no relation tuples the relation stage is skipped and T_c = T_t.
Every attention read scales its logits as its ``AttentionParams`` says.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .acquire import AcquiredPair, RelationTuple
from .autodiff import Tensor
from .kb import tokenize

if TYPE_CHECKING:
    from .model import ModelParams

logger = logging.getLogger(__name__)

# Rows of one relation-tuple encoder pass. Every intermediate of a pass has
# at most this many rows (a longer tuple gets a pass of its own), so a
# reply's transient memory does not grow with the tuple count; a training
# graph keeps every pass for its backward.
TUPLE_PASS_ROWS = 192


class Vocabulary:
    """Token-to-index map with four reserved entries.

    Indices 0..3 are pad, begin, end, unknown; real tokens follow in sorted
    order, so the same token multiset always yields the same mapping.
    Lookup lowercases, making the vocabulary case-insensitive.
    """

    RESERVED = ("<pad>", "<s>", "</s>", "<unk>")
    PAD, BOS, EOS, UNK = 0, 1, 2, 3

    def __init__(self, tokens: Iterable[str]):
        cleaned = sorted({t.lower() for t in tokens} - set(self.RESERVED))
        if not cleaned:
            raise ValueError("vocabulary needs at least one real token")
        self._tokens = list(self.RESERVED) + cleaned
        self._index = {tok: i for i, tok in enumerate(self._tokens)}

    def __len__(self) -> int:
        return len(self._tokens)

    def token(self, idx: int) -> str:
        return self._tokens[idx]

    def encode(self, tokens: Sequence[str]) -> list[int]:
        index, unk = self._index, self.UNK
        return [index.get(t.lower(), unk) for t in tokens]

    def decode(self, indices: Sequence[int]) -> list[str]:
        return [self.token(i) for i in indices]

    @property
    def tokens(self) -> list[str]:
        """All tokens including the reserved head, in index order."""
        return list(self._tokens)


@dataclass
class EmbeddingTable:
    """Trainable token and position embeddings sharing one width D."""

    token: Tensor      # V x D
    position: Tensor   # L_max x D

    @property
    def dim(self) -> int:
        return self.token.shape[1]

    @property
    def max_len(self) -> int:
        return self.position.shape[0]


@dataclass
class AttentionParams:
    """Single-head attention projections, each D x D, and the scaling flag."""

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    scale: bool


@dataclass
class MlpParams:
    """Two-layer perceptron weights: D -> hidden -> D."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class EncoderBlockParams:
    """One post-norm encoder block: self-attention then MLP."""

    attn: AttentionParams
    ln1_gain: Tensor
    ln1_bias: Tensor
    mlp: MlpParams
    ln2_gain: Tensor
    ln2_bias: Tensor


@dataclass
class ImageProjectionParams:
    """Linear map from image feature space to D, with layer-norm params."""

    w: Tensor      # feature_dim x D
    b: Tensor      # 1 x D
    gain: Tensor   # 1 x D
    bias: Tensor   # 1 x D


@dataclass
class FusionParams:
    """Attention fusion of T_t and the reorganized relation view.

    Separate tanh-linear scorers per side share one query vector ``a`` that
    asks which side contributes more at each position.
    """

    w_t: Tensor   # D x D
    b_t: Tensor   # 1 x D
    w_h: Tensor   # D x D
    b_h: Tensor   # 1 x D
    a: Tensor     # D x 1


@dataclass
class PreparedContext:
    """Everything but parameters that ``compose`` reads for one context
    (see ``prepare_context``). The tuples' token ids and positions run
    tuple after tuple; ``tuple_lengths`` splits them."""

    knowledge_ids: list[int]
    context_ids: list[int]
    image_features: np.ndarray
    tuples: tuple[RelationTuple, ...]
    tuple_ids: list[int]
    tuple_positions: list[int]
    tuple_lengths: list[int]


@dataclass
class ComposedRepresentation:
    """The composition outputs for one context, plus inspection hooks.

    ``E_k`` is the attribute-knowledge embedding the decoder's knowledge
    sub-layer attends over. ``relation_attention``, ``r_t``, ``r_h`` are
    None when the context had no relation tuples (then T_c is the
    attribute-composed T_t itself).
    """

    E_k: Tensor
    T_c: Tensor
    tuples: tuple[RelationTuple, ...]
    relation_attention: Optional[Tensor]
    r_t: Optional[Tensor]
    r_h: Optional[Tensor]


def linearize_attributes(knowledge: Iterable[AcquiredPair]) -> list[str]:
    """Render attribute knowledge as a token run: "type : value ;" per pair,
    in the knowledge's order."""
    tokens: list[str] = []
    for ap in knowledge:
        tokens += tokenize(ap.pair.attribute_type)
        tokens.append(":")
        tokens += tokenize(ap.pair.value)
        tokens.append(";")
    return tokens


def linearize_tuple(t: RelationTuple) -> list[str]:
    """Render a relation tuple as a token run: its entries tokenized in
    order, as ``linearize_attributes`` tokenizes attribute text, so one
    entity reaches both views as the same tokens."""
    return [token for entry in t.entries for token in tokenize(entry)]


def _fit_positions(tokens: Sequence, budget: int) -> Sequence:
    """Cut a run of tokens or ids to the ``budget`` positions left free for
    it."""
    if len(tokens) > budget:
        logger.warning("embed_tokens: truncating %d tokens to %d",
                       len(tokens), budget)
        return tokens[:budget]
    return tokens


def prepare_context(knowledge_tokens: Sequence[str],
                    ctx_tokens: Sequence[str], image_features: np.ndarray,
                    tuples: Sequence[RelationTuple], vocab: Vocabulary,
                    max_len: int) -> PreparedContext:
    """Token ids, positions and cuts for one context and a position table
    of ``max_len`` rows, tuples in the order given (``walk_relations``'
    order, for a model's contexts). Image rows keep their positions first,
    then context tokens, and knowledge tokens get what is left; each
    tuple's positions restart at 0. Every cut warns."""
    n_vis = len(image_features) if image_features.size else 0
    if n_vis > max_len:
        logger.warning("compose: truncating image rows %d -> %d", n_vis,
                       max_len)
        n_vis, image_features = max_len, image_features[:max_len]
    ctx_tokens = _fit_positions(ctx_tokens, max_len - n_vis)
    knowledge_budget = max_len - len(ctx_tokens) - n_vis
    if len(knowledge_tokens) > knowledge_budget:
        logger.warning("compose: truncating knowledge tokens %d -> %d",
                       len(knowledge_tokens), knowledge_budget)
        knowledge_tokens = knowledge_tokens[:knowledge_budget]
    runs = [_fit_positions(linearize_tuple(t), max_len) for t in tuples]
    return PreparedContext(
        knowledge_ids=vocab.encode(knowledge_tokens),
        context_ids=vocab.encode(ctx_tokens), image_features=image_features,
        tuples=tuple(tuples),
        tuple_ids=vocab.encode([tok for run in runs for tok in run]),
        tuple_positions=[p for run in runs for p in range(len(run))],
        tuple_lengths=[len(run) for run in runs])


def embed_ids(ids: Sequence[int], table: EmbeddingTable,
              offset: int = 0) -> Tensor:
    """Token plus position rows of ids at positions offset, offset + 1, ...

    Ids running past the position table are cut, with a warning, to the
    positions left after ``offset``; no ids give a 0-row leaf, not a graph
    node."""
    ids = _fit_positions(ids, table.max_len - offset)
    if not ids:
        return Tensor(np.zeros((0, table.dim)))
    return ad.embed(table.token, table.position, ids,
                    range(offset, offset + len(ids)))


def project_image_features(features: np.ndarray,
                           proj: ImageProjectionParams) -> Tensor:
    """Project image feature vectors into the model space: LN(F W + b)."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.size == 0:
        return Tensor(np.zeros((0, proj.w.shape[1])))
    if feats.ndim != 2 or feats.shape[1] != proj.w.shape[0]:
        raise ValueError(f"image features {feats.shape} do not match "
                         f"projection input dim {proj.w.shape[0]}")
    return ad.layer_norm(ad.linear(Tensor(feats), proj.w, proj.b),
                         proj.gain, proj.bias)


def encode(E: Tensor, blocks: Sequence[EncoderBlockParams],
           lengths: Sequence[int] | None = None,
           width: int | None = None) -> Tensor:
    """Shared encoder: per block, post-norm self-attention then post-norm
    MLP, both residual. Zero blocks (or an empty input) is the identity.

    ``lengths`` splits the rows of E into contiguous segments encoded side
    by side: self-attention stays inside each segment, and the row-wise
    layer norms and MLP do not mix rows. None means one segment.
    ``width`` is the length attention pads each segment to (see
    ``autodiff.segment_attention``); None means the longest segment.
    """
    h = E
    if h.shape[0] == 0:
        return h
    if lengths is None:
        lengths = [h.shape[0]]
    for block in blocks:
        attn = block.attn
        a = ad.segment_attention(h, attn.w_q, attn.w_k, attn.w_v, lengths,
                                 scale=attn.scale, width=width)
        h = ad.residual_layer_norm(h, a, block.ln1_gain, block.ln1_bias)
        m = ad.mlp(h, block.mlp.w1, block.mlp.b1, block.mlp.w2, block.mlp.b2)
        h = ad.residual_layer_norm(h, m, block.ln2_gain, block.ln2_bias)
    return h


def compose_attributes(E_k: Tensor, E_t: Tensor, E_v: Tensor,
                       blocks: Sequence[EncoderBlockParams]) -> Tensor:
    """T_t: encode the row-concatenation [E_k, E_t, E_v]."""
    for name, part in (("E_k", E_k), ("E_t", E_t), ("E_v", E_v)):
        if part.shape[1] != E_t.shape[1]:
            raise ValueError(f"{name} width {part.shape[1]} != {E_t.shape[1]}")
    parts = [p for p in (E_k, E_t, E_v) if p.shape[0] > 0]
    if not parts:
        raise ValueError("compose_attributes: all segments empty")
    stacked = parts[0] if len(parts) == 1 else ad.concat_rows(parts)
    return encode(stacked, blocks)


def _tuple_passes(lengths: Sequence[int]) -> list[tuple[int, int]]:
    """Split tuples of ``lengths`` rows, in order, into runs [lo, hi) of at
    most ``TUPLE_PASS_ROWS`` rows; a longer tuple is a run of its own."""
    bounds, rows = [0], 0
    for i, n in enumerate(lengths):
        if rows and rows + n > TUPLE_PASS_ROWS:
            bounds.append(i)
            rows = 0
        rows += n
    bounds.append(len(lengths))
    return list(zip(bounds, bounds[1:]))


def encode_relation_tuples(prepared: PreparedContext, table: EmbeddingTable,
                           blocks: Sequence[EncoderBlockParams]) -> Tensor:
    """T_h: one mean-pooled encoded row per prepared tuple, rows in the
    prepared order.

    Each tuple is a segment whose positions restart at 0 and whose rows
    attend only to each other, so in exact arithmetic row i equals encoding
    tuple i alone. The tuples go through the encoder in passes of whole
    tuples of at most ``TUPLE_PASS_ROWS`` rows, one ``encode`` call each,
    and the pooled rows are joined by one ``concat_rows`` node; a set of
    that many rows or fewer is one pass. The bits of a row depend on the
    width its attention pads to, so every pass pads to the longest tuple
    of the whole set. The rows then have the bits of one ``encode`` call
    over all tuples wherever BLAS gives a product row the same bits
    whatever the row count: OpenBLAS on x86-64 does when the model and MLP
    widths are multiples of 8, and the tests check mixed-length splits
    there.
    """
    lengths = prepared.tuple_lengths
    if not lengths:
        return Tensor(np.zeros((0, table.dim)))
    width, pooled = max(lengths), []
    offsets = list(accumulate(lengths, initial=0))
    for lo, hi in _tuple_passes(lengths):
        rows = slice(offsets[lo], offsets[hi])
        E = ad.embed(table.token, table.position, prepared.tuple_ids[rows],
                     prepared.tuple_positions[rows])
        pooled.append(ad.mean_rows(encode(E, blocks, lengths[lo:hi], width),
                                   lengths[lo:hi]))
    return pooled[0] if len(pooled) == 1 else ad.concat_rows(pooled)


def reorganize_relations(T_t: Tensor, T_h: Tensor,
                         attn: AttentionParams) -> tuple[Tensor, Tensor]:
    """Reorganize tuple rows against each composed position.

    Cross-attention with query T_t and key/value T_h; returns the
    reorganized representation (N_b x D) and the attention weight matrix
    (N_b x N_h) for inspection. With no tuple rows ``cross_attention``
    raises ValueError.
    """
    return ad.cross_attention(T_t, T_h, attn.w_q, attn.w_k, attn.w_v,
                              scale=attn.scale)


_ZERO_SCORE_BIAS = Tensor(np.zeros((1, 1)))  # a constant: never trained


def fuse(T_t: Tensor, T_h_bar: Tensor,
         fusion: FusionParams) -> tuple[Tensor, Tensor, Tensor]:
    """Position-wise convex fusion of the two composed views.

    Each side is scored by a tanh-linear transform dotted with the query
    vector ``a``, one ``mlp`` node whose second bias is a constant zero
    (adding it is exact); the pair of scores at each position
    softmax-normalizes to (r_t, r_h), and T_c = r_t * T_t + r_h * T_h_bar
    row-wise, one ``gate`` node. r_t and r_h are data-only N_b x 1 tensors,
    for inspection.
    """
    if T_t.shape != T_h_bar.shape:
        raise ValueError(f"fuse: {T_t.shape} vs {T_h_bar.shape}")
    s_t = ad.mlp(T_t, fusion.w_t, fusion.b_t, fusion.a, _ZERO_SCORE_BIAS)
    s_h = ad.mlp(T_h_bar, fusion.w_h, fusion.b_h, fusion.a, _ZERO_SCORE_BIAS)
    T_c, r = ad.gate(T_t, T_h_bar, s_t, s_h)
    return Tensor(r.data[:, :1]), Tensor(r.data[:, 1:]), T_c


def compose(prepared: PreparedContext,
            params: ModelParams) -> ComposedRepresentation:
    """Run the full composition pipeline for one prepared context, on the
    ``table``, ``image_proj``, ``encoder``, ``relation_attn`` and ``fusion``
    of the model's parameters."""
    table = params.table
    E_k = embed_ids(prepared.knowledge_ids, table)
    E_t = embed_ids(prepared.context_ids, table, offset=E_k.shape[0])
    E_v = project_image_features(prepared.image_features, params.image_proj)
    if E_v.shape[0] > 0:
        start = E_k.shape[0] + E_t.shape[0]
        pos = ad.take_rows(table.position, range(start, start + E_v.shape[0]))
        E_v = ad.add(E_v, pos)

    T_t = compose_attributes(E_k, E_t, E_v, params.encoder)
    T_h = encode_relation_tuples(prepared, table, params.encoder)
    T_c, weights, r_t, r_h = T_t, None, None, None
    if T_h.shape[0] > 0:
        T_h_bar, weights = reorganize_relations(T_t, T_h, params.relation_attn)
        r_t, r_h, T_c = fuse(T_t, T_h_bar, params.fusion)
    return ComposedRepresentation(
        E_k=E_k, T_c=T_c, tuples=prepared.tuples,
        relation_attention=weights, r_t=r_t, r_h=r_h)
