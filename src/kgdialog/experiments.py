"""Drivers for the three headline studies behind the scripts and the
acceptance gate: memorization, relation ablation, and regularization
ablation.

Each driver returns a JSON-serializable report so `scripts/run_study.py`
and `tests/test_acceptance.py` share one code path. Defaults are the pinned
desk-scale settings, and the runner reads its flags from these signatures;
every knob is overridable. Multi-seed studies accept a single seed per call
too, so the runner can fan seeds out across processes and merge the
per-seed rows with ``summarize_runs``.
"""
from __future__ import annotations

import statistics
import time

from .config import TrainingConfig
from .corpus import make_relation_ablation, make_synthetic_corpus
from .training import evaluate, mean_semantic_gap, token_accuracy, train

DEFAULT_SEEDS = (0, 1, 2, 3, 4)


def overfit_study(seed: int = 1, n_entities: int = 24, n_pairs: int = 32,
                  dim: int = 64, blocks: int = 2, n_latent: int = 8,
                  epochs: int = 200, learning_rate: float = 5e-3,
                  batch_size: int = 4) -> dict:
    """Memorization run: drive the training loss to near zero on a small
    synthetic corpus and check greedy decoding reproduces the training
    responses verbatim.

    Attention scaling is on for this study: at width 64 the unscaled score
    matrices saturate their softmax rows and constant-rate Adam oscillates
    instead of memorizing. Batched accumulation smooths the steps for the
    same reason. ``epochs`` below 1 raises ValueError: the report compares
    the first epoch's loss with the last.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    syn = make_synthetic_corpus(seed, n_entities=n_entities, n_pairs=n_pairs)
    cfg = TrainingConfig(dim=dim, enc_blocks=blocks, dec_blocks=blocks,
                         n_latent=n_latent, epochs=epochs,
                         learning_rate=learning_rate, batch_size=batch_size,
                         attn_scale=True, seed=seed)
    started = time.monotonic()
    result = train(syn.pairs, syn.kb, cfg)
    metrics = evaluate(result.model, syn.pairs, strategy="greedy")
    seconds = time.monotonic() - started
    return {
        "config": cfg.to_dict(),
        "n_pairs": len(syn.pairs),
        "initial_loss": result.initial_loss,
        "final_loss": result.final_loss,
        "loss_ratio": result.final_loss / result.initial_loss,
        "metrics": metrics,
        "seconds": seconds,
    }


def relation_study(seeds=DEFAULT_SEEDS, n_train: int = 64, n_held: int = 32,
                   dim: int = 32, epochs: int = 40,
                   learning_rate: float = 3e-3) -> dict:
    """Relation ablation: train the full model and a no-relations twin on
    two-hop neighbor questions, then compare held-out token accuracy.

    Held-out questions ask about entities never asked about in training,
    and the answer (the neighbor's category) is absent from the asked
    entity's own attributes — only the walked relation tuples carry it.
    """
    per_seed = []
    started = time.monotonic()
    for seed in seeds:
        kb, train_pairs, held = make_relation_ablation(
            seed, n_train=n_train, n_held=n_held)
        base = TrainingConfig(dim=dim, enc_blocks=1, dec_blocks=1,
                              n_latent=4, mlp_hidden=2 * dim, epochs=epochs,
                              learning_rate=learning_rate, seed=seed,
                              max_seq_len=128)
        full = train(train_pairs, kb, base).model
        ablated = train(train_pairs, kb,
                        base.replace(use_relations=False)).model
        per_seed.append({
            "seed": seed,
            "full": token_accuracy(full, held),
            "without_relations": token_accuracy(ablated, held),
        })
    report = summarize_runs(per_seed)
    report["seconds"] = time.monotonic() - started
    return report


def regularization_study(seeds=DEFAULT_SEEDS, n_pairs: int = 48,
                         n_train: int = 32, dim: int = 16, epochs: int = 10,
                         learning_rate: float = 3e-3,
                         gamma: float = 0.1) -> dict:
    """Regularization ablation: with and without the semantic-alignment
    loss term, measure how far the composed-side projection sits from the
    response-side projection on held-out pairs (each model scored under its
    own projections).
    """
    per_seed = []
    started = time.monotonic()
    for seed in seeds:
        syn = make_synthetic_corpus(seed, n_entities=24, n_pairs=n_pairs)
        train_pairs, held = syn.pairs[:n_train], syn.pairs[n_train:]
        base = TrainingConfig(dim=dim, enc_blocks=1, dec_blocks=1,
                              n_latent=4, mlp_hidden=2 * dim, epochs=epochs,
                              learning_rate=learning_rate, seed=seed,
                              max_seq_len=128)
        reg = train(train_pairs, syn.kb, base.replace(gamma=gamma)).model
        unreg = train(train_pairs, syn.kb, base.replace(gamma=0.0)).model
        per_seed.append({
            "seed": seed,
            "regularized": mean_semantic_gap(reg, held),
            "unregularized": mean_semantic_gap(unreg, held),
        })
    report = summarize_runs(per_seed)
    report["seconds"] = time.monotonic() - started
    return report


def summarize_runs(per_seed) -> dict:
    """Merge per-seed rows: the rows in seed order, and the median over
    seeds of each measured key as ``median_<key>``."""
    runs = sorted(per_seed, key=lambda r: r["seed"])
    report = {"per_seed": runs}
    for key in runs[0]:
        if key != "seed":
            report[f"median_{key}"] = statistics.median(r[key] for r in runs)
    return report
