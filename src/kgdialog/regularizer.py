"""Latent-query semantic projection and the representation regularizer.

A shared set of trainable latent query vectors P_g attends over a
variable-length representation (the composed T_c, or T_r, the ground-truth
response's token ids embedded and encoded) and projects it to a fixed
N_P x D semantic matrix. Projecting both sides into that one space makes
the squared Frobenius distance between them a well-defined training signal.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import autodiff as ad
from .autodiff import Tensor
from .composer import (AttentionParams, EmbeddingTable, EncoderBlockParams,
                       MlpParams, embed_ids, encode)


@dataclass
class LatentQuerySet:
    """The trainable latent query matrix P_g, N_P x D."""

    P_g: Tensor


@dataclass
class SemanticProjectionParams:
    """One side's projection: attention weights plus the residual MLP.

    Two independent instances exist — composed side and ground-truth side —
    but both consume the same shared P_g.
    """

    attn: AttentionParams
    mlp: MlpParams


def project_semantic(latent: LatentQuerySet, T: Tensor,
                     proj: SemanticProjectionParams) -> Tensor:
    """Project a representation into the latent semantic space.

    Cross-attention with query P_g over T, then an MLP residual:
    T-tilde = T-bar + f(T-bar). The output is always N_P x D whatever the
    row count of T — the length equalization the regularizer relies on.
    """
    if T.shape[0] == 0:
        raise ValueError("project_semantic: empty representation")
    t_bar, _ = ad.cross_attention(latent.P_g, T, proj.attn.w_q, proj.attn.w_k,
                                  proj.attn.w_v, scale=proj.attn.scale)
    return ad.add(t_bar, ad.mlp(t_bar, proj.mlp.w1, proj.mlp.b1,
                                proj.mlp.w2, proj.mlp.b2))


def encode_ground_truth(response_ids: list[int], table: EmbeddingTable,
                        blocks: tuple[EncoderBlockParams, ...]) -> Tensor:
    """T_r: embed the ground-truth response's token ids, cut to the position
    table as ``embed_ids`` cuts, and run the shared encoder."""
    if not response_ids:
        raise ValueError("encode_ground_truth: empty response")
    return encode(embed_ids(response_ids, table), blocks)


def regularization_loss(T_r_sem: Tensor, T_c_sem: Tensor) -> Tensor:
    """L_r: squared Frobenius distance between the two semantic matrices.

    Gradients flow through both arguments; there is no stop-gradient on the
    ground-truth side.
    """
    if T_r_sem.shape != T_c_sem.shape:
        raise ValueError(f"regularization_loss: {T_r_sem.shape} "
                         f"vs {T_c_sem.shape}")
    return ad.frobenius_distance_sq(T_r_sem, T_c_sem)
