"""Model assembly: parameters, checkpoints, and end-to-end forward paths.

``param_plan`` names every trainable tensor and gives its shape, and so
the model's size before anything is allocated, in a fixed order that is
also the random-draw order, which makes fixed-seed runs bit-identical.
``ModelParams`` owns the tensors, whose values are views into one
``ParamBuffer`` per model in that order, which the optimizer and the
parameter penalty work on whole. ``DialogModel`` couples the parameters
with a knowledge base to run acquisition, composition, regularization, and
decoding for single dialog pairs; ``DialogModel.prepare`` does the
parameter-free half of composing a context, which training does once.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .acquire import (AcquisitionConfig, AttributeKnowledge, DialogContext,
                      RelationTuple, acquire_attributes, tokenize,
                      walk_relations)
from .autodiff import Tensor
from .composer import (AttentionParams, ComposedRepresentation,
                       EmbeddingTable, EncoderBlockParams, FusionParams,
                       ImageProjectionParams, MlpParams, PreparedContext,
                       Vocabulary, compose, linearize_attributes,
                       prepare_context)
from .config import TrainingConfig
from .decoder import (DecoderBlockParams, DecoderParams, LossWeights,
                      OutputHead, SemanticEnhanceParams, decode_states,
                      generate, predict_token, semantic_enhance, total_loss)
from .kb import KnowledgeBase, build_graph, decode_json
from .regularizer import (LatentQuerySet, SemanticProjectionParams,
                          encode_ground_truth, project_semantic,
                          regularization_loss)

INIT_SCALE = 0.08
_FLOAT_MAX = float(np.finfo(np.float64).max)
CHECKPOINT_FORMAT = "kgdialog-checkpoint-v1"


def param_plan(vocab_size: int, feature_dim: int,
               cfg: TrainingConfig) -> tuple[tuple, int, int]:
    """The one statement of a model's parameters, in ``named()`` order:
    runs (prefix, repeats, ((name, rows, cols), ...)) holding the tensors
    ``prefix.format(i) + name`` for i < repeats, with the tensor count and
    value count, which are worked out per run without listing blocks."""
    d, h = cfg.dim, cfg.hidden

    def attn(p):
        return tuple((f"{p}.w_{x}", d, d) for x in "qkv")

    def mlp(p):
        return (f"{p}.w1", d, h), (f"{p}.b1", 1, h), (f"{p}.w2", h, d), \
            (f"{p}.b2", 1, d)

    def ln(p):
        return (f"{p}.gain", 1, d), (f"{p}.bias", 1, d)

    runs = (
        ("", 1, (("embedding.token", vocab_size, d),
                 ("embedding.position", cfg.max_seq_len, d),
                 ("image_proj.w", max(feature_dim, 1), d),
                 ("image_proj.b", 1, d), *ln("image_proj"))),
        ("encoder.{}.", cfg.enc_blocks,
         (*attn("attn"), *ln("ln1"), *mlp("mlp"), *ln("ln2"))),
        ("", 1, (*attn("relation_attn"),
                 ("fusion.w_t", d, d), ("fusion.b_t", 1, d),
                 ("fusion.w_h", d, d), ("fusion.b_h", 1, d),
                 ("fusion.a", d, 1), ("latent.queries", cfg.n_latent, d),
                 *attn("sem_composed.attn"), *mlp("sem_composed.mlp"),
                 *attn("sem_truth.attn"), *mlp("sem_truth.mlp"))),
        ("decoder.{}.", cfg.dec_blocks,
         (*attn("self_attn"), *ln("ln1"), *attn("knowledge_attn"), *ln("ln2"),
          *attn("encoder_attn"), *ln("ln3"), *mlp("mlp"), *ln("ln4"))),
        ("", 1, (*attn("enhance.attn"), *ln("enhance.ln"),
                 ("head.w_y", d, vocab_size), ("head.b_y", 1, vocab_size))),
    )
    return (runs, sum(n * len(run) for _, n, run in runs),
            sum(n * sum(r * c for _, r, c in run) for _, n, run in runs))


@dataclass
class ModelParams:
    """Every trainable tensor, grouped by pipeline stage, with their values
    in one flat ``buffer`` in ``named()`` order."""

    table: EmbeddingTable
    image_proj: ImageProjectionParams
    encoder: tuple[EncoderBlockParams, ...]
    relation_attn: AttentionParams
    fusion: FusionParams
    latent: LatentQuerySet
    sem_composed: SemanticProjectionParams
    sem_truth: SemanticProjectionParams
    decoder: DecoderParams
    buffer: ad.ParamBuffer = field(repr=False, compare=False)
    _named: dict[str, Tensor] = field(repr=False, compare=False)

    def named(self) -> dict[str, Tensor]:
        """Flat name -> tensor map in ``param_plan`` order."""
        return dict(self._named)

    def all_tensors(self) -> list[Tensor]:
        return list(self.buffer.tensors)


def param_tree(vocab_size: int, feature_dim: int,
               cfg: TrainingConfig) -> ModelParams:
    """The parameters of a model of this shape, cut from one buffer of zeros
    allocated at the plan's size (ValueError if it cannot be). ``init_params``
    fills them with a seeded initialization, a checkpoint load with its own."""
    runs, _, size = param_plan(vocab_size, feature_dim, cfg)
    try:
        values = np.zeros(size)
    except (MemoryError, ValueError) as exc:  # numpy's "array is too big"
        raise ValueError(f"a model of {size} parameter values is too large "
                         f"to allocate") from exc
    names, shapes = zip(*((pre.format(i) + name, (r, c)) for pre, n, run in runs
                          for i in range(n) for name, r, c in run))
    buffer = ad.ParamBuffer.cut(values, shapes)
    p = iter(buffer.tensors).__next__  # each call: the plan's next tensor

    def attn():
        return AttentionParams(p(), p(), p(), cfg.attn_scale)

    def mlp():
        return MlpParams(p(), p(), p(), p())

    return ModelParams(
        EmbeddingTable(p(), p()), ImageProjectionParams(p(), p(), p(), p()),
        tuple(EncoderBlockParams(attn(), p(), p(), mlp(), p(), p())
              for _ in range(cfg.enc_blocks)),
        attn(), FusionParams(p(), p(), p(), p(), p()), LatentQuerySet(p()),
        SemanticProjectionParams(attn(), mlp()),
        SemanticProjectionParams(attn(), mlp()),
        DecoderParams(
            tuple(DecoderBlockParams(attn(), p(), p(), attn(), p(), p(),
                                     attn(), p(), p(), mlp(), p(), p())
                  for _ in range(cfg.dec_blocks)),
            SemanticEnhanceParams(attn(), p(), p()), OutputHead(p(), p())),
        buffer, dict(zip(names, buffer.tensors)))


def init_params(vocab_size: int, feature_dim: int,
                cfg: TrainingConfig) -> ModelParams:
    """Seeded initialization: uniform in [-INIT_SCALE, INIT_SCALE] for all
    weights, except layer-norm gains (``*.gain``) start at 1 and biases
    (``*.bias``) at 0.

    Each weight's values are drawn straight into its view of the flat
    buffer, in ``named()`` order; ``rng.random`` scaled in place gives the
    bits of ``rng.uniform``, whose formula it repeats."""
    params = param_tree(vocab_size, feature_dim, cfg)
    rng = np.random.default_rng(cfg.seed)
    for name, t in params.named().items():
        if name.endswith(".gain"):
            t.data.fill(1.0)
        elif not name.endswith(".bias"):  # biases stay at the buffer's zeros
            rng.random(out=t.data)
            t.data *= INIT_SCALE - -INIT_SCALE
            t.data += -INIT_SCALE
    return params


# ------------------------------------------------------------- checkpointing

def params_to_doc(named: dict[str, Tensor]) -> dict:
    """The named-parameter map: {name: {"shape": [r, c], "data": [flat]}}.

    Floats serialize via repr, which round-trips float64 bit-exactly.
    """
    return {name: {"shape": list(t.shape),
                   "data": [float(x) for x in t.data.ravel()]}
            for name, t in named.items()}


def params_from_doc(named: dict[str, Tensor], doc: dict) -> None:
    """Load a parameter map into existing tensors, validating names/shapes;
    the values are copied into the tensors' arrays, never rebound."""
    missing = sorted(set(named) - set(doc))
    extra = sorted(set(doc) - set(named))
    if missing or extra:
        raise ValueError(f"checkpoint mismatch: missing={missing} extra={extra}")
    for name, t in named.items():
        entry = doc[name]
        if not (isinstance(entry, dict) and isinstance(entry.get("shape"), list)
                and isinstance(entry.get("data"), list)
                and all(type(x) in (int, float) and abs(x) <= _FLOAT_MAX
                        for x in entry["data"])):
            raise ValueError(f"checkpoint {name}: entry needs a list \"shape\" "
                             f"and a list of finite numbers \"data\"")
        shape = tuple(entry["shape"])
        if shape != t.shape:
            raise ValueError(f"checkpoint {name}: shape {shape} != {t.shape}")
        t.data[...] = np.asarray(entry["data"], dtype=np.float64).reshape(shape)


def checkpoint_doc(model: "DialogModel") -> dict:
    """The model's complete state as a JSON-serializable document."""
    return {
        "format": CHECKPOINT_FORMAT,
        "config": model.cfg.to_dict(),
        "feature_dim": model.kb.feature_dim,
        "vocab": model.vocab.tokens[len(Vocabulary.RESERVED):],
        "params": params_to_doc(model.params.named()),
    }


def model_from_doc(doc: dict, kb: KnowledgeBase) -> "DialogModel":
    """Rebuild a model from a decoded checkpoint document against ``kb``."""
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError("not a recognized checkpoint document")
    for key in ("config", "vocab", "feature_dim", "params"):
        if key not in doc:
            raise ValueError(f"checkpoint has no {key!r} key")
    cfg = TrainingConfig.from_dict(doc["config"])
    tokens, feature_dim = doc["vocab"], doc["feature_dim"]
    if not (isinstance(tokens, list)
            and all(isinstance(t, str) for t in tokens)):
        raise ValueError("checkpoint vocab must be a list of strings")
    if type(feature_dim) is not int or feature_dim < 0:
        raise ValueError("checkpoint feature_dim must be an int >= 0")
    if kb.feature_dim and feature_dim != kb.feature_dim:
        raise ValueError(
            f"checkpoint feature_dim {feature_dim} does not match "
            f"knowledge base feature_dim {kb.feature_dim}")
    vocab = Vocabulary(tokens)
    # checked before allocating: a checkpoint builds no more than it holds
    entries = doc["params"]
    if not isinstance(entries, dict):
        raise ValueError("checkpoint params must be an object")
    held = len(entries), sum(len(e["data"]) for e in entries.values() if
                             isinstance(e, dict) and isinstance(e.get("data"), list))
    need = param_plan(len(vocab), feature_dim, cfg)[1:]
    if held != need:
        raise ValueError("checkpoint holds {} parameter tensors of {} values; "
                         "its config needs {} of {}".format(*held, *need))
    params = param_tree(len(vocab), feature_dim, cfg)
    params_from_doc(params.named(), entries)
    return DialogModel(params, vocab, kb, cfg)


def save_checkpoint(model: "DialogModel", path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(checkpoint_doc(model), fh, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path, kb: KnowledgeBase) -> "DialogModel":
    with open(path, "r", encoding="utf-8") as fh:
        doc = decode_json(fh.read(), f"checkpoint {path}")
    return model_from_doc(doc, kb)


# --------------------------------------------------------------------- model

class DialogModel:
    """Parameters + knowledge base + config, with the full forward paths."""

    def __init__(self, params: ModelParams, vocab: Vocabulary,
                 kb: KnowledgeBase, cfg: TrainingConfig):
        self.params = params
        self.vocab = vocab
        self.kb = kb
        self.cfg = cfg
        self.graph = build_graph(kb)
        self.acq = AcquisitionConfig(epsilon=cfg.epsilon,
                                     max_hops=cfg.max_hops,
                                     max_tuples=cfg.max_tuples)
        self.weights = LossWeights(cfg.lam, cfg.gamma, cfg.beta)

    # ----------------------------------------------------------- acquisition

    def acquire(self, ctx: DialogContext) -> tuple[AttributeKnowledge,
                                                   set[RelationTuple]]:
        """Acquire attribute knowledge and mine relation tuples from the
        mentioned entities (none when relations are disabled). Each call
        walks the graph again; with ``max_tuples`` set, a walk over nodes
        of more than ``max_hops`` out-neighbours reads at most
        ``max_tuples * max_hops`` adjacency lists, whatever the degree."""
        knowledge = acquire_attributes(ctx, self.kb, self.acq)
        if self.cfg.use_relations:
            seeds = {name.strip() for name in knowledge.source_entities()}
            tuples = walk_relations(self.graph, seeds, self.acq)
        else:
            tuples = set()
        return knowledge, tuples

    def prepare(self, ctx: DialogContext) -> PreparedContext:
        """The parameter-free half of composing ``ctx``: its acquired
        knowledge and tuples as token ids, positions and cuts."""
        knowledge, tuples = self.acquire(ctx)
        return prepare_context(linearize_attributes(knowledge),
                               ctx.text_tokens, ctx.image_features, tuples,
                               self.vocab, self.params.table.max_len)

    # ----------------------------------------------------------- composition

    def compose_context(self, ctx: DialogContext,
                        prepared: PreparedContext | None = None
                        ) -> ComposedRepresentation:
        """Compose ``ctx`` from ``prepare(ctx)``, made here when not given."""
        if prepared is None:
            prepared = self.prepare(ctx)
        return compose(prepared, self.params)

    def semantic_composed(self, comp: ComposedRepresentation) -> Tensor:
        """T-tilde_c: the composed-side semantic projection."""
        return project_semantic(self.params.latent, comp.T_c,
                                self.params.sem_composed)

    def semantic_truth(self, response_tokens: Sequence[str]) -> Tensor:
        """T-tilde_r: the ground-truth-side semantic projection."""
        T_r = encode_ground_truth(response_tokens, self.vocab, self.params.table,
                                  self.params.encoder)
        return project_semantic(self.params.latent, T_r, self.params.sem_truth)

    # -------------------------------------------------------------- training

    def teacher_predictions(self, ctx: DialogContext,
                            response_tokens: Sequence[str],
                            enhance_with: str = "truth",
                            comp: Optional[ComposedRepresentation] = None,
                            ) -> tuple[Tensor, list[int], Tensor]:
        """Teacher-forced token distributions for one pair.

        Returns (probs [n x V], target ids, T-tilde used for enhancement).
        ``enhance_with`` picks the semantic matrix: "truth" (training) or
        "composed" (inference-style scoring).
        """
        z_hat, targets, T_sem = self._teacher_forced(
            ctx, response_tokens, enhance_with, comp)
        return predict_token(z_hat, self.params.decoder.head), targets, T_sem

    def _teacher_forced(self, ctx, response_tokens, enhance_with, comp):
        """``teacher_predictions`` up to the output head: z-hat [n x D]."""
        if not response_tokens:
            raise ValueError("teacher_predictions: empty response")
        if comp is None:
            comp = self.compose_context(ctx)
        response_ids = self.vocab.encode(response_tokens)
        targets = response_ids + [self.vocab.EOS]
        prefix = [self.vocab.BOS] + response_ids
        E_y = ad.embed(self.params.table.token, self.params.table.position,
                       prefix, range(len(prefix)))
        z_bar = decode_states(comp.T_c, comp.E_k, E_y,
                              self.params.decoder.blocks)
        if enhance_with == "truth":
            T_sem = self.semantic_truth(response_tokens)
        elif enhance_with == "composed":
            T_sem = self.semantic_composed(comp)
        else:
            raise ValueError(f"enhance_with must be 'truth' or 'composed', "
                             f"got {enhance_with!r}")
        z_hat = semantic_enhance(z_bar, T_sem, self.params.decoder.enhance)
        return z_hat, targets, T_sem

    def loss_pair(self, ctx: DialogContext, response_tokens: Sequence[str],
                  prepared: PreparedContext | None = None,
                  penalty: float | None = None) -> tuple[Tensor, dict]:
        """The per-pair training objective and its component values.

        ``prepared`` is ``prepare(ctx)``, computed here when not given.
        ``penalty`` is the parameters' ``norm_sq()`` for a caller that adds
        the penalty's gradient itself (see ``total_loss``); the values are
        the same either way."""
        comp = self.compose_context(ctx, prepared)
        T_c_sem = self.semantic_composed(comp)
        z_hat, targets, T_r_sem = self._teacher_forced(
            ctx, response_tokens, "truth", comp)
        head = self.params.decoder.head
        l_ce = ad.cross_entropy_loss(ad.linear(z_hat, head.w_y, head.b_y),
                                     targets)
        l_r = regularization_loss(T_r_sem, T_c_sem)
        loss = total_loss(l_ce, l_r, self.params.buffer, self.weights,
                          penalty)
        parts = {"ce": l_ce.item(), "reg": l_r.item(), "total": loss.item()}
        return loss, parts

    # ------------------------------------------------------------- inference

    def generate_response(self, ctx: DialogContext, max_len: int | None = None,
                          strategy: str = "greedy") -> list[str]:
        """Decode a response for a context, enhancing with the composed-side
        semantic matrix (no ground truth available at inference)."""
        if max_len is None:
            max_len = self.cfg.max_gen_len
        with ad.no_grad():
            comp = self.compose_context(ctx)
            T_sem = self.semantic_composed(comp)
            return generate(comp.T_c, comp.E_k, T_sem, self.params.decoder,
                            self.params.table, self.vocab,
                            max_len=max_len, strategy=strategy)

    def export_representations(self, ctx: DialogContext,
                               response_tokens: Sequence[str]) -> dict:
        """Both semantic matrices for one pair, as nested lists."""
        with ad.no_grad():
            comp = self.compose_context(ctx)
            composed = self.semantic_composed(comp)
            truth = self.semantic_truth(response_tokens)
            return {"composed": composed.data.tolist(),
                    "ground_truth": truth.data.tolist()}


def build_model(vocab: Vocabulary, kb: KnowledgeBase,
                cfg: TrainingConfig) -> DialogModel:
    params = init_params(len(vocab), kb.feature_dim, cfg)
    return DialogModel(params, vocab, kb, cfg)


def build_vocabulary(corpora_tokens: Iterable[Iterable[str]],
                     kb: KnowledgeBase) -> Vocabulary:
    """Vocabulary over corpus tokens plus every way KB strings surface:
    tokenizer output (attribute linearization) and whitespace splits
    (tuple linearization). Each distinct KB string is split once."""
    tokens: set[str] = set()
    for seq in corpora_tokens:
        tokens.update(seq)
    strings = {ent.name for ent in kb}
    strings.update(x for ent in kb for p in ent.attributes
                   for x in (p.attribute_type, p.value))
    for s in strings:
        tokens.update(tokenize(s))
        tokens.update(w.lower() for w in s.split())
    return Vocabulary(tokens)
