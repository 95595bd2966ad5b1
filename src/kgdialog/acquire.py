"""Context-related knowledge acquisition.

Two routes select attribute knowledge for a dialog context: a textual route
that matches entity names against the context token sequence, and a visual
route that thresholds cosine similarity between context image features and
entity image features. Relation knowledge comes from n-hop walks over the
knowledge graph starting at the entities the attribute routes identified.
"""
from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from .kb import AttributeValuePair, Entity, KnowledgeBase, KnowledgeGraph

logger = logging.getLogger(__name__)

PROVENANCE_TEXTUAL = "textual"
PROVENANCE_VISUAL = "visual"

_TOKEN_RE = re.compile(r"[a-z0-9]+|[^\sa-z0-9]")


def tokenize(text: str) -> list[str]:
    """Lowercase and split into alphanumeric runs and single punctuation
    marks. The one tokenizer used everywhere — contexts, responses, entity
    names, linearized knowledge — so mention matching stays consistent."""
    return _TOKEN_RE.findall(text.lower())


class NoImagesError(ValueError):
    """Signals an entity without visual knowledge; callers skip it."""


@dataclass(frozen=True, eq=False)
class DialogContext:
    """A dialog context: concatenated utterance tokens plus image features.

    ``image_features`` is (N_V, feature_dim); contexts without images carry
    a 0 x 0 array.
    """

    text_tokens: tuple[str, ...]
    image_features: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    def __post_init__(self):
        object.__setattr__(self, "text_tokens", tuple(self.text_tokens))
        feats = np.asarray(self.image_features, dtype=np.float64)
        if feats.size == 0:
            feats = feats.reshape(0, 0)
        elif feats.ndim == 1:
            feats = feats.reshape(1, -1)
        object.__setattr__(self, "image_features", feats)


@dataclass(frozen=True)
class AcquiredPair:
    """One selected attribute-value pair, tagged with where it came from."""

    source_entity: str
    pair: AttributeValuePair
    provenance: str

    def key(self) -> tuple[str, str, str]:
        return (self.source_entity, self.pair.attribute_type, self.pair.value)


@dataclass(frozen=True)
class AttributeKnowledge:
    """Deterministically ordered attribute knowledge for one context."""

    pairs: tuple[AcquiredPair, ...] = ()

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __bool__(self) -> bool:
        return bool(self.pairs)

    def source_entities(self) -> set[str]:
        return {ap.source_entity for ap in self.pairs}


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

    @property
    def labels(self) -> tuple[str, ...]:
        return self.entries[1::2]

    @property
    def n_hops(self) -> int:
        return len(self.entries) // 2


@dataclass(frozen=True)
class AcquisitionConfig:
    """Knobs for the two acquisition routes.

    epsilon: strict lower bound on cosine similarity for the visual route.
    max_hops: walk budget n.
    max_tuples: optional cap on returned tuples, keeping the first in
    ``order_tuples`` order (shortest first, then lexicographic); the walk
    stops once it has them, so a capped walk costs about d^(max_hops-1)
    prefixes for out-degree d. None means unlimited.
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


def _ordered(pairs: Iterable[AcquiredPair]) -> AttributeKnowledge:
    """Sort by (source, type, value) and drop duplicates."""
    unique = {ap.key(): ap for ap in pairs}
    return AttributeKnowledge(tuple(unique[k] for k in sorted(unique)))


def acquire_text_attributes(ctx: DialogContext, kb: KnowledgeBase) -> AttributeKnowledge:
    """Attribute pairs of every entity mentioned in the context text.

    A mention is the entity's name appearing as a contiguous token run,
    case-insensitive; both sides pass through the shared tokenizer. Each
    name is looked up among the context's token runs no longer than the
    longest name; a name that tokenizes to nothing is never mentioned.
    """
    names = [(ent, tuple(tokenize(ent.name))) for ent in kb]
    longest = max((len(toks) for _, toks in names), default=0)
    ctx_tokens = [t.lower() for t in ctx.text_tokens]
    runs = {tuple(ctx_tokens[i:i + n]) for n in range(1, longest + 1)
            for i in range(len(ctx_tokens) - n + 1)}
    found = []
    for ent, toks in names:
        if toks in runs:
            found.extend(AcquiredPair(ent.name, p, PROVENANCE_TEXTUAL)
                         for p in ent.attributes)
    return _ordered(found)


def entity_similarity(feature: np.ndarray, entity: Entity) -> float:
    """Maximum cosine similarity between ``feature`` and the entity's images."""
    if not entity.has_images:
        raise NoImagesError(f"entity {entity.name!r} has no image features")
    f = np.asarray(feature, dtype=np.float64).reshape(-1)
    images = entity.image_features
    if f.shape[0] != images.shape[1]:
        raise ValueError(
            f"feature dim {f.shape[0]} != entity {entity.name!r} "
            f"image dim {images.shape[1]}")
    f_norm = np.linalg.norm(f)
    img_norms = np.linalg.norm(images, axis=1)
    if f_norm == 0.0 or np.any(img_norms == 0.0):
        raise ValueError("cosine similarity undefined for zero-norm vectors")
    return float(np.max(images @ f / (img_norms * f_norm)))


def acquire_visual_attributes(ctx: DialogContext, kb: KnowledgeBase,
                              cfg: AcquisitionConfig) -> AttributeKnowledge:
    """Attribute pairs of entities visually similar to any context image.

    An entity is selected by a context image when its maximum per-image
    cosine similarity strictly exceeds ``cfg.epsilon``; entities without
    images never match.
    """
    found = []
    for feature in ctx.image_features:
        for ent in kb:
            if ent.has_images and entity_similarity(feature, ent) > cfg.epsilon:
                found.extend(AcquiredPair(ent.name, p, PROVENANCE_VISUAL)
                             for p in ent.attributes)
    return _ordered(found)


def merge_attribute_knowledge(text_k: AttributeKnowledge,
                              visual_k: AttributeKnowledge) -> AttributeKnowledge:
    """Concatenate textual then visual knowledge, dropping repeats.

    Deduplication keys on (source entity, type, value) and keeps the first
    occurrence, so the textual route wins on overlap.
    """
    seen: set[tuple[str, str, str]] = set()
    merged = []
    for ap in (*text_k.pairs, *visual_k.pairs):
        if ap.key() not in seen:
            seen.add(ap.key())
            merged.append(ap)
    return AttributeKnowledge(tuple(merged))


def acquire_attributes(ctx: DialogContext, kb: KnowledgeBase,
                       cfg: AcquisitionConfig) -> AttributeKnowledge:
    """The context's attribute knowledge: the textual route, then the
    visual route when both the context and the KB carry image features,
    merged so that the textual route wins on repeats."""
    text_k = acquire_text_attributes(ctx, kb)
    if not (ctx.image_features.size and kb.feature_dim):
        return text_k
    return merge_attribute_knowledge(
        text_k, acquire_visual_attributes(ctx, kb, cfg))


def walk_relations(graph: KnowledgeGraph, seeds: Iterable[str],
                   cfg: AcquisitionConfig) -> set[RelationTuple]:
    """Mine relation tuples by n-hop graph walk from each seed entity.

    Returns every maximal simple path with 1..max_hops edges: a path is
    emitted exactly when it has used its hop budget or its last node has no
    out-edge to a node not already on the path. Non-maximal prefixes are
    extended instead of emitted; seeds outside the graph are skipped with a
    warning. With ``cfg.max_tuples`` set, only the first ``max_tuples``
    paths in ``order_tuples`` order (shortest first, then lexicographic)
    are kept, and the walk stops as soon as it has them: it visits about
    d^(max_hops-1) prefixes for out-degree d, never the d^max_hops paths.
    """
    frontier = []
    for seed in sorted(set(seeds)):
        if seed not in graph.nodes:
            logger.warning("walk_relations: seed %r is not a graph node", seed)
            continue
        frontier.append((seed,))
    paths = _maximal_paths(graph, frontier, cfg.max_hops)
    return {RelationTuple(p) for p in islice(paths, cfg.max_tuples)}


def _maximal_paths(graph: KnowledgeGraph, frontier: list[tuple[str, ...]],
                   max_hops: int) -> Iterator[tuple[str, ...]]:
    # Walks one hop count at a time. The seed paths arrive sorted and
    # out_edges is sorted, so every level is built in lexicographic order;
    # each level's dead ends are yielded before any longer path, which is
    # exactly order_tuples order.
    def extensions(path):
        visited = path[0::2]
        return (path + edge for edge in graph.out_edges(path[-1])
                if edge[1] not in visited)

    for hops in range(max_hops - 1):  # frontier paths have `hops` edges
        grown: list[tuple[str, ...]] = []
        for path in frontier:
            size = len(grown)
            grown.extend(extensions(path))
            if hops and len(grown) == size:
                yield path
        frontier = grown
    if max_hops > 1:  # dead ends one hop short rank before full-length paths
        yield from (p for p in frontier if next(extensions(p), None) is None)
    for path in frontier:
        yield from extensions(path)


def order_tuples(tuples: Iterable[RelationTuple]) -> list[RelationTuple]:
    """The deterministic tuple order used everywhere downstream: shorter
    tuples first, ties broken lexicographically on entries."""
    return sorted(tuples, key=lambda t: (len(t.entries), t.entries))


def linearize_tuple(t: RelationTuple) -> list[str]:
    """Flatten a tuple to a token sequence by whitespace-splitting each
    entry in order (multiword nodes contribute one token per word)."""
    return [token for entry in t.entries for token in entry.split()]
