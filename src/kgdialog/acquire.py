"""Context-related knowledge acquisition.

Two routes select attribute knowledge for a dialog context: a textual route
that matches entity names against the context token sequence, and a visual
route that thresholds cosine similarity between context image features and
entity image features. Relation knowledge comes from n-hop walks over the
knowledge graph starting at the entities the attribute routes identified.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator, Mapping

import numpy as np

from .kb import (AttributeValuePair, Entity, KnowledgeBase, KnowledgeGraph,
                 feature_table, tokenize)

logger = logging.getLogger(__name__)

PROVENANCE_TEXTUAL = "textual"
PROVENANCE_VISUAL = "visual"

class NoImagesError(ValueError):
    """Signals an entity without visual knowledge; callers skip it."""


@dataclass(frozen=True, eq=False)
class DialogContext:
    """A dialog context: concatenated utterance tokens plus image features.

    ``image_features`` is (N_V, feature_dim), any other shape a ValueError;
    contexts without images carry a 0 x 0 array.
    """

    text_tokens: tuple[str, ...]
    image_features: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    def __post_init__(self):
        object.__setattr__(self, "text_tokens", tuple(self.text_tokens))
        object.__setattr__(self, "image_features",
                           feature_table(self.image_features))

    @classmethod
    def from_utterances(cls, utterances, image_features=()) -> "DialogContext":
        """The context of ``utterances``, strings in dialog order, tokenized
        and concatenated, with ``image_features`` rows."""
        if not all(isinstance(u, str) for u in utterances):
            raise ValueError("dialog utterances must be strings")
        return cls([t for u in utterances for t in tokenize(u)],
                   image_features)


@dataclass(frozen=True)
class AcquiredPair:
    """One selected attribute-value pair, tagged with where it came from."""

    source_entity: str
    pair: AttributeValuePair
    provenance: str

    def key(self) -> tuple[str, str, str]:
        return (self.source_entity, self.pair.attribute_type, self.pair.value)


@dataclass(frozen=True)
class RelationTuple:
    """A linearized walk result: [node, label, node, label, node, ...].

    Entries alternate nodes and edge labels, starting and ending with a
    node; a valid tuple never repeats a node.
    """

    entries: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if len(self.entries) < 3 or len(self.entries) % 2 == 0:
            raise ValueError(
                f"relation tuple needs an odd entry count >= 3, "
                f"got {len(self.entries)}")

    @property
    def nodes(self) -> tuple[str, ...]:
        return self.entries[0::2]


@dataclass(frozen=True)
class AcquisitionConfig:
    """Knobs for the two acquisition routes.

    epsilon: strict lower bound on cosine similarity for the visual route.
    max_hops: walk budget n.
    max_tuples: optional cap on returned tuples, keeping the first in the
    walk's order (shortest first, then lexicographic); the walk stops once
    it has them (see ``walk_relations`` for its cost). None means
    unlimited.
    """

    epsilon: float = 0.8
    max_hops: int = 2
    max_tuples: int | None = None

    def __post_init__(self):
        if not -1.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [-1, 1], got {self.epsilon}")
        if self.max_hops < 1:
            raise ValueError(f"max_hops must be >= 1, got {self.max_hops}")
        if self.max_tuples is not None and self.max_tuples < 1:
            raise ValueError("max_tuples must be >= 1 or None")


def _ordered(pairs: Iterable[AcquiredPair]) -> tuple[AcquiredPair, ...]:
    """Sort by (source, type, value) and drop duplicates."""
    unique = {ap.key(): ap for ap in pairs}
    return tuple(unique[k] for k in sorted(unique))


def acquire_text_attributes(ctx: DialogContext,
                            kb: KnowledgeBase) -> tuple[AcquiredPair, ...]:
    """Attribute pairs of every entity mentioned in the context text.

    A mention is the entity's name appearing as a contiguous token run,
    case-insensitive; both sides pass through the shared tokenizer. Each of
    the context's token runs no longer than the longest name is looked up
    in the knowledge base's name index (``KnowledgeBase.names``); a name
    that tokenizes to nothing is never mentioned.
    """
    index = kb.names
    ctx_tokens = [t.lower() for t in ctx.text_tokens]
    runs = {tuple(ctx_tokens[i:i + n]) for n in range(1, index.longest + 1)
            for i in range(len(ctx_tokens) - n + 1)}
    found = []
    for run in runs & index.entities.keys():
        for ent in index.entities[run]:
            found.extend(AcquiredPair(ent.name, p, PROVENANCE_TEXTUAL)
                         for p in ent.attributes)
    return _ordered(found)


def entity_similarity(feature: np.ndarray, entity: Entity) -> float:
    """Maximum cosine similarity between ``feature`` and the entity's images.

    No program code calls it: it is the per-entity reference that the
    visual-route tests hold ``acquire_visual_attributes`` to at exact
    thresholds."""
    if not entity.has_images:
        raise NoImagesError(f"entity {entity.name!r} has no image features")
    f = np.asarray(feature, dtype=np.float64).reshape(-1)
    images = entity.image_features
    if f.shape[0] != images.shape[1]:
        raise ValueError(
            f"feature dim {f.shape[0]} != entity {entity.name!r} "
            f"image dim {images.shape[1]}")
    f_norm, img_norms = np.linalg.norm(f), np.linalg.norm(images, axis=1)
    if f_norm == 0.0 or np.any(img_norms == 0.0):
        raise ValueError("cosine similarity undefined for zero-norm vectors")
    return _max_cosine(f, f_norm, images, img_norms)


def _max_cosine(f: np.ndarray, f_norm: float, images: np.ndarray,
                img_norms: np.ndarray) -> float:
    """The largest cosine of f with the rows of ``images``, given the
    norms, all non-zero."""
    return float(np.max(images @ f / (img_norms * f_norm)))


def acquire_visual_attributes(ctx: DialogContext, kb: KnowledgeBase,
                              cfg: AcquisitionConfig
                              ) -> tuple[AcquiredPair, ...]:
    """Attribute pairs of entities visually similar to any context image.

    An entity is selected by a context image when its maximum per-image
    cosine similarity strictly exceeds ``cfg.epsilon``; entities without
    images never match, and neither does a zero-norm context image, whose
    cosine is undefined. The entities' image norms come from the knowledge
    base (which refuses zero-norm rows), and each context image's norm is
    taken once. Context images of another width than the knowledge base's
    raise ValueError before any entity is compared.
    """
    feats = ctx.image_features
    if feats.size and kb.feature_dim and feats.shape[1] != kb.feature_dim:
        raise ValueError(f"context image width {feats.shape[1]} != "
                         f"knowledge base image width {kb.feature_dim}")
    found = []
    for f in feats:
        f_norm = np.linalg.norm(f)
        if f_norm == 0.0:
            continue
        for name, img_norms in kb.image_norms.items():
            ent = kb[name]
            if _max_cosine(f, f_norm, ent.image_features,
                           img_norms) > cfg.epsilon:
                found.extend(AcquiredPair(ent.name, p, PROVENANCE_VISUAL)
                             for p in ent.attributes)
    return _ordered(found)


def acquire_attributes(ctx: DialogContext, kb: KnowledgeBase,
                       cfg: AcquisitionConfig) -> tuple[AcquiredPair, ...]:
    """The context's attribute knowledge: the textual route's pairs, then,
    when both the context and the KB carry image features, the visual
    route's pairs that the textual route lacks (keyed on source entity,
    type and value)."""
    text = acquire_text_attributes(ctx, kb)
    if not (ctx.image_features.size and kb.feature_dim):
        return text
    seen = {ap.key() for ap in text}
    return text + tuple(ap for ap in acquire_visual_attributes(ctx, kb, cfg)
                        if ap.key() not in seen)


def walk_relations(graph: KnowledgeGraph, seeds: Iterable[str],
                   cfg: AcquisitionConfig) -> tuple[RelationTuple, ...]:
    """Mine relation tuples by n-hop graph walk from each seed entity.

    Returns every maximal simple path with 1..max_hops edges: a path is
    emitted exactly when it has used its hop budget or its last node has no
    out-edge to a node not already on it (a dead end), in the order
    composition uses: shorter first, ties broken lexicographically on
    entries. Seeds are trimmed, as graph nodes are, and seeds outside the
    graph are skipped with a warning. With ``cfg.max_tuples`` set, only the
    first ``max_tuples`` paths are kept, and the walk stops as soon as it
    has them. Dead ends are searched for only through prefixes that can
    still reach a node able to end one (``KnowledgeGraph.dead_end_reach``),
    so on a graph whose nodes all have more than ``max_hops``
    out-neighbours a capped walk reads at most ``max_tuples * max_hops``
    adjacency lists, and on an unbranching chain at most two per node.

    A simple path has at most one edge fewer than the graph has nodes, and
    a path that long ends at a dead end, so the walk's budget is
    ``max_hops`` clamped to that: a larger one yields the same tuples.
    """
    starts = []
    for seed in sorted({seed.strip() for seed in seeds}):
        if seed not in graph.nodes:
            logger.warning("walk_relations: seed %r is not a graph node", seed)
            continue
        starts.append(seed)
    hops = min(cfg.max_hops, len(graph.nodes) - 1)
    if hops < 1:  # a one-node graph has no simple path with an edge
        return ()
    paths = _ranked_paths(graph, starts, hops)
    return tuple(RelationTuple(p) for p in islice(paths, cfg.max_tuples))


def _ranked_paths(graph: KnowledgeGraph, seeds: list[str],
                  max_hops: int) -> Iterator[tuple[str, ...]]:
    # The seeds arrive sorted and each walk is lexicographic, so the dead
    # ends of each length, then the full-length paths, come out shortest
    # first, then lexicographically.
    reach = graph.dead_end_reach(max_hops) if max_hops > 1 else {}
    for hops in range(1, max_hops):
        for seed in seeds:
            yield from _paths(graph, seed, hops, reach)
    for seed in seeds:
        yield from _paths(graph, seed, max_hops)


def _paths(graph: KnowledgeGraph, seed: str, hops: int,
           reach: Mapping[str, int] | None = None
           ) -> Iterator[tuple[str, ...]]:
    """Simple paths of exactly ``hops`` edges from ``seed``, lazily and in
    lexicographic order, by a depth-first walk with an explicit stack.
    Given ``reach``, only the dead ends among them, and a prefix is
    extended only while a node of ``reach`` lies within the hops left."""
    if reach is not None and reach.get(seed, hops + 1) > hops:
        return
    entries = [seed]
    on_path = {seed}
    stack = [iter(graph.out_edges(seed))]
    while stack:
        left = hops - len(stack)  # edges still to take after the next one
        for label, tail in stack[-1]:
            if tail in on_path or (reach is not None
                                   and reach.get(tail, left + 1) > left):
                continue
            if left:
                entries += (label, tail)
                on_path.add(tail)
                stack.append(iter(graph.out_edges(tail)))
                break
            if reach is None or all(t in on_path or t == tail
                                    for _, t in graph.out_edges(tail)):
                yield (*entries, label, tail)
        else:
            stack.pop()
            if stack:
                on_path.remove(entries[-1])
                del entries[-2:]
