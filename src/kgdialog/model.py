"""Model assembly: parameters, checkpoints, and end-to-end forward paths.

``ModelParams`` owns every trainable tensor and exposes a deterministic
flat name -> Tensor map used for optimization and checkpointing; the
construction (and therefore random-draw) order is fixed, which is what
makes fixed-seed runs bit-identical. ``DialogModel`` couples the parameters
with a knowledge base to run acquisition, composition, regularization, and
decoding for single dialog pairs.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .acquire import (AcquisitionConfig, AttributeKnowledge, DialogContext,
                      RelationTuple, acquire_attributes, tokenize,
                      walk_relations)
from .autodiff import Tensor
from .composer import (AttentionParams, ComposedRepresentation,
                       ComposerParams, EmbeddingTable, EncoderBlockParams,
                       FusionParams, ImageProjectionParams, MlpParams,
                       Vocabulary, compose, embed_indices,
                       linearize_attributes)
from .config import TrainingConfig
from .decoder import (DecoderBlockParams, DecoderParams, LossWeights,
                      OutputHead, SemanticEnhanceParams, decode_states,
                      generate, predict_token, semantic_enhance, total_loss)
from .kb import KnowledgeBase, build_graph
from .regularizer import (LatentQuerySet, SemanticProjectionParams,
                          encode_ground_truth, project_semantic,
                          regularization_loss)

INIT_SCALE = 0.08
CHECKPOINT_FORMAT = "kgdialog-checkpoint-v1"


@dataclass
class ModelParams:
    """Every trainable tensor, grouped by pipeline stage."""

    table: EmbeddingTable
    image_proj: ImageProjectionParams
    encoder: tuple[EncoderBlockParams, ...]
    relation_attn: AttentionParams
    fusion: FusionParams
    latent: LatentQuerySet
    sem_composed: SemanticProjectionParams
    sem_truth: SemanticProjectionParams
    decoder: DecoderParams

    def composer(self) -> ComposerParams:
        return ComposerParams(table=self.table, image_proj=self.image_proj,
                              encoder=self.encoder,
                              relation_attn=self.relation_attn,
                              fusion=self.fusion)

    def named(self) -> dict[str, Tensor]:
        """Flat name -> tensor map in a fixed, documented order."""
        out: dict[str, Tensor] = {
            "embedding.token": self.table.token,
            "embedding.position": self.table.position,
            "image_proj.w": self.image_proj.w,
            "image_proj.b": self.image_proj.b,
            "image_proj.gain": self.image_proj.gain,
            "image_proj.bias": self.image_proj.bias,
        }
        for i, blk in enumerate(self.encoder):
            p = f"encoder.{i}"
            _add_attn(out, f"{p}.attn", blk.attn)
            out[f"{p}.ln1.gain"], out[f"{p}.ln1.bias"] = blk.ln1_gain, blk.ln1_bias
            _add_mlp(out, f"{p}.mlp", blk.mlp)
            out[f"{p}.ln2.gain"], out[f"{p}.ln2.bias"] = blk.ln2_gain, blk.ln2_bias
        _add_attn(out, "relation_attn", self.relation_attn)
        out["fusion.w_t"], out["fusion.b_t"] = self.fusion.w_t, self.fusion.b_t
        out["fusion.w_h"], out["fusion.b_h"] = self.fusion.w_h, self.fusion.b_h
        out["fusion.a"] = self.fusion.a
        out["latent.queries"] = self.latent.P_g
        for side, proj in (("sem_composed", self.sem_composed),
                           ("sem_truth", self.sem_truth)):
            _add_attn(out, f"{side}.attn", proj.attn)
            _add_mlp(out, f"{side}.mlp", proj.mlp)
        for i, blk in enumerate(self.decoder.blocks):
            p = f"decoder.{i}"
            _add_attn(out, f"{p}.self_attn", blk.self_attn)
            out[f"{p}.ln1.gain"], out[f"{p}.ln1.bias"] = blk.ln1_gain, blk.ln1_bias
            _add_attn(out, f"{p}.knowledge_attn", blk.knowledge_attn)
            out[f"{p}.ln2.gain"], out[f"{p}.ln2.bias"] = blk.ln2_gain, blk.ln2_bias
            _add_attn(out, f"{p}.encoder_attn", blk.encoder_attn)
            out[f"{p}.ln3.gain"], out[f"{p}.ln3.bias"] = blk.ln3_gain, blk.ln3_bias
            _add_mlp(out, f"{p}.mlp", blk.mlp)
            out[f"{p}.ln4.gain"], out[f"{p}.ln4.bias"] = blk.ln4_gain, blk.ln4_bias
        _add_attn(out, "enhance.attn", self.decoder.enhance.attn)
        out["enhance.ln.gain"] = self.decoder.enhance.ln_gain
        out["enhance.ln.bias"] = self.decoder.enhance.ln_bias
        out["head.w_y"], out["head.b_y"] = self.decoder.head.w_y, self.decoder.head.b_y
        return out

    def all_tensors(self) -> list[Tensor]:
        return list(self.named().values())


def _add_attn(out: dict, prefix: str, attn: AttentionParams) -> None:
    out[f"{prefix}.w_q"] = attn.w_q
    out[f"{prefix}.w_k"] = attn.w_k
    out[f"{prefix}.w_v"] = attn.w_v


def _add_mlp(out: dict, prefix: str, mlp: MlpParams) -> None:
    out[f"{prefix}.w1"], out[f"{prefix}.b1"] = mlp.w1, mlp.b1
    out[f"{prefix}.w2"], out[f"{prefix}.b2"] = mlp.w2, mlp.b2


def init_params(vocab_size: int, feature_dim: int,
                cfg: TrainingConfig) -> ModelParams:
    """Seeded initialization: uniform in [-INIT_SCALE, INIT_SCALE] for all
    weights, except layer-norm gains start at 1 and biases at 0."""
    rng = np.random.default_rng(cfg.seed)
    d, h = cfg.dim, cfg.hidden

    def u(rows, cols):
        return Tensor(rng.uniform(-INIT_SCALE, INIT_SCALE, (rows, cols)),
                      requires_grad=True)

    def gain():
        return Tensor(np.ones((1, d)), requires_grad=True)

    def bias():
        return Tensor(np.zeros((1, d)), requires_grad=True)

    def attn():
        return AttentionParams(u(d, d), u(d, d), u(d, d))

    def mlp():
        return MlpParams(u(d, h), u(1, h), u(h, d), u(1, d))

    def enc_block():
        return EncoderBlockParams(attn(), gain(), bias(), mlp(), gain(), bias())

    def dec_block():
        return DecoderBlockParams(attn(), gain(), bias(), attn(), gain(),
                                  bias(), attn(), gain(), bias(), mlp(),
                                  gain(), bias())

    table = EmbeddingTable(token=u(vocab_size, d), position=u(cfg.max_seq_len, d))
    image_proj = ImageProjectionParams(u(max(feature_dim, 1), d), u(1, d),
                                       gain(), bias())
    encoder = tuple(enc_block() for _ in range(cfg.enc_blocks))
    relation_attn = attn()
    fusion = FusionParams(u(d, d), u(1, d), u(d, d), u(1, d), u(d, 1))
    latent = LatentQuerySet(u(cfg.n_latent, d))
    sem_composed = SemanticProjectionParams(attn(), mlp())
    sem_truth = SemanticProjectionParams(attn(), mlp())
    dec = DecoderParams(blocks=tuple(dec_block() for _ in range(cfg.dec_blocks)),
                        enhance=SemanticEnhanceParams(attn(), gain(), bias()),
                        head=OutputHead(u(d, vocab_size), u(1, vocab_size)))
    return ModelParams(table=table, image_proj=image_proj, encoder=encoder,
                       relation_attn=relation_attn, fusion=fusion,
                       latent=latent, sem_composed=sem_composed,
                       sem_truth=sem_truth, decoder=dec)


# ------------------------------------------------------------- checkpointing

def params_to_doc(named: dict[str, Tensor]) -> dict:
    """The named-parameter map: {name: {"shape": [r, c], "data": [flat]}}.

    Floats serialize via repr, which round-trips float64 bit-exactly.
    """
    return {name: {"shape": list(t.shape),
                   "data": [float(x) for x in t.data.ravel()]}
            for name, t in named.items()}


def params_from_doc(named: dict[str, Tensor], doc: dict) -> None:
    """Load a parameter map into existing tensors, validating names/shapes."""
    missing = sorted(set(named) - set(doc))
    extra = sorted(set(doc) - set(named))
    if missing or extra:
        raise ValueError(f"checkpoint mismatch: missing={missing} extra={extra}")
    for name, t in named.items():
        entry = doc[name]
        shape = tuple(entry["shape"])
        if shape != t.shape:
            raise ValueError(f"checkpoint {name}: shape {shape} != {t.shape}")
        t.data = np.asarray(entry["data"], dtype=np.float64).reshape(shape)


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
    """Rebuild a model from a checkpoint document against ``kb``."""
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError("not a recognized checkpoint document")
    cfg = TrainingConfig.from_dict(doc["config"])
    vocab = Vocabulary(doc["vocab"])
    params = init_params(len(vocab), doc["feature_dim"], cfg)
    params_from_doc(params.named(), doc["params"])
    model = DialogModel(params, vocab, kb, cfg)
    if kb.feature_dim and doc["feature_dim"] != kb.feature_dim:
        raise ValueError(
            f"checkpoint feature_dim {doc['feature_dim']} does not match "
            f"knowledge base feature_dim {kb.feature_dim}")
    return model


def save_checkpoint(model: "DialogModel", path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(checkpoint_doc(model), fh, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path, kb: KnowledgeBase) -> "DialogModel":
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"not a recognized checkpoint: {path}")
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
        mentioned entities (none when relations are disabled). Nothing is
        cached: each call walks the graph again, visiting about
        d^(max_hops-1) prefixes per seed for out-degree d."""
        knowledge = acquire_attributes(ctx, self.kb, self.acq)
        if self.cfg.use_relations:
            seeds = {name.strip() for name in knowledge.source_entities()}
            tuples = walk_relations(self.graph, seeds, self.acq)
        else:
            tuples = set()
        return knowledge, tuples

    # ----------------------------------------------------------- composition

    def compose_context(self, ctx: DialogContext) -> ComposedRepresentation:
        knowledge, tuples = self.acquire(ctx)
        return compose(linearize_attributes(knowledge), list(ctx.text_tokens),
                       ctx.image_features, tuples, self.vocab,
                       self.params.composer(), self.cfg.attn_scale)

    def semantic_composed(self, comp: ComposedRepresentation) -> Tensor:
        """T-tilde_c: the composed-side semantic projection."""
        return project_semantic(self.latent, comp.T_c, self.params.sem_composed,
                                self.cfg.attn_scale)

    def semantic_truth(self, response_tokens: Sequence[str]) -> Tensor:
        """T-tilde_r: the ground-truth-side semantic projection."""
        T_r = encode_ground_truth(response_tokens, self.vocab, self.params.table,
                                  self.params.encoder, self.cfg.attn_scale)
        return project_semantic(self.latent, T_r, self.params.sem_truth,
                                self.cfg.attn_scale)

    @property
    def latent(self) -> LatentQuerySet:
        return self.params.latent

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
        if not response_tokens:
            raise ValueError("teacher_predictions: empty response")
        if comp is None:
            comp = self.compose_context(ctx)
        response_ids = self.vocab.encode(response_tokens)
        targets = response_ids + [self.vocab.EOS]
        prefix = [self.vocab.BOS] + response_ids
        E_y = embed_indices(prefix, self.params.table)
        z_bar = decode_states(comp.T_c, comp.E_k, E_y, self.params.decoder.blocks,
                              scale=self.cfg.attn_scale)
        if enhance_with == "truth":
            T_sem = self.semantic_truth(response_tokens)
        elif enhance_with == "composed":
            T_sem = self.semantic_composed(comp)
        else:
            raise ValueError(f"enhance_with must be 'truth' or 'composed', "
                             f"got {enhance_with!r}")
        z_hat = semantic_enhance(z_bar, T_sem, self.params.decoder.enhance,
                                 self.cfg.attn_scale)
        probs = predict_token(z_hat, self.params.decoder.head)
        return probs, targets, T_sem

    def loss_pair(self, ctx: DialogContext,
                  response_tokens: Sequence[str]) -> tuple[Tensor, dict]:
        """The per-pair training objective and its component values."""
        comp = self.compose_context(ctx)
        T_c_sem = self.semantic_composed(comp)
        probs, targets, T_r_sem = self.teacher_predictions(
            ctx, response_tokens, enhance_with="truth", comp=comp)
        l_ce = ad.cross_entropy_loss(probs, targets)
        l_r = regularization_loss(T_r_sem, T_c_sem)
        loss = total_loss(l_ce, l_r, self.params.all_tensors(), self.weights)
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
                            max_len=max_len,
                            strategy=strategy, scale=self.cfg.attn_scale)

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
    (tuple linearization)."""
    tokens: set[str] = set()
    for seq in corpora_tokens:
        tokens.update(seq)
    for ent in kb:
        for s in [ent.name] + [x for p in ent.attributes
                               for x in (p.attribute_type, p.value)]:
            tokens.update(tokenize(s))
            tokens.update(w.lower() for w in s.split())
    return Vocabulary(tokens)
