"""Knowledge-base data model, file ingestion, and graph construction.

A knowledge base is a set of named entities, each carrying attribute-value
pairs and optional precomputed image feature vectors. Casting every
(entity, attribute_type, value) triplet to a directed labeled edge — and
unifying value strings with entity names — yields the graph that multi-hop
relation walks run over.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np


class KBFormatError(ValueError):
    """Raised for malformed, duplicated, or inconsistent KB input."""


@dataclass(frozen=True)
class AttributeValuePair:
    """One attribute of an entity, e.g. (location, Orchard Road)."""

    attribute_type: str
    value: str

    def __post_init__(self):
        if not self.attribute_type or not self.value:
            raise KBFormatError(
                f"attribute pair needs non-empty type and value, got "
                f"({self.attribute_type!r}, {self.value!r})")


@dataclass(frozen=True, eq=False)
class Entity:
    """A named entity with its attributes and image feature vectors.

    ``image_features`` is an (n_images, feature_dim) float64 array; entities
    without images carry a 0 x 0 array.
    """

    name: str
    attributes: tuple[AttributeValuePair, ...] = ()
    image_features: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    def __post_init__(self):
        if not self.name:
            raise KBFormatError("entity name must be non-empty")
        object.__setattr__(self, "attributes", tuple(self.attributes))
        feats = np.asarray(self.image_features, dtype=np.float64)
        if feats.size == 0:
            feats = feats.reshape(0, 0)
        elif feats.ndim != 2:
            raise KBFormatError(
                f"entity {self.name!r}: image features must be a list of "
                f"equal-length vectors")
        feats.flags.writeable = False
        object.__setattr__(self, "image_features", feats)

    @property
    def has_images(self) -> bool:
        return self.image_features.size > 0


class KnowledgeBase:
    """Immutable collection of entities keyed by unique name.

    ``feature_dim`` is the shared dimensionality of all image feature
    vectors, or 0 when no entity carries any. Every image feature row must
    have non-zero norm.
    """

    def __init__(self, entities: Iterable[Entity]):
        store: dict[str, Entity] = {}
        feature_dim = 0
        for position, ent in enumerate(entities):
            if ent.name in store:
                raise KBFormatError(
                    f"duplicate entity name {ent.name!r} at position {position}")
            if ent.has_images:
                d = ent.image_features.shape[1]
                if feature_dim == 0:
                    feature_dim = d
                elif d != feature_dim:
                    raise KBFormatError(
                        f"entity {ent.name!r} at position {position}: image "
                        f"feature dimension {d} != {feature_dim} seen earlier")
                norms = np.linalg.norm(ent.image_features, axis=1)
                zero = np.flatnonzero(norms == 0.0)
                if zero.size:  # cosine similarity with it is undefined
                    raise KBFormatError(
                        f"entity {ent.name!r} at position {position}: image "
                        f"feature row {zero[0]} has zero norm")
            store[ent.name] = ent
        self._entities = store
        self.feature_dim = feature_dim

    @property
    def entities(self) -> Mapping[str, Entity]:
        return MappingProxyType(self._entities)

    def __len__(self) -> int:
        return len(self._entities)

    def __contains__(self, name: str) -> bool:
        return name in self._entities

    def __getitem__(self, name: str) -> Entity:
        return self._entities[name]

    def __iter__(self):
        return iter(self._entities.values())


def parse_kb(source) -> KnowledgeBase:
    """Parse the KB file format: a JSON array of entity objects.

    Each object is {"name": str, "attributes": [{"type","value"},...],
    "image_features": [[float,...],...]}; the latter two keys may be absent
    or empty. ``source`` may be bytes, text, or a readable file object.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, (bytes, bytearray)):
        source = source.decode("utf-8")
    try:
        doc = json.loads(source)
    except json.JSONDecodeError as exc:
        raise KBFormatError(f"malformed KB document: {exc}") from exc
    if not isinstance(doc, list):
        raise KBFormatError("KB document must be a top-level JSON array")

    entities = []
    for position, raw in enumerate(doc):
        if not isinstance(raw, dict) or not isinstance(raw.get("name"), str):
            raise KBFormatError(
                f"entity at position {position} needs a string \"name\"")
        name = raw["name"]
        pairs = []
        for i, p in enumerate(raw.get("attributes", []) or []):
            if (not isinstance(p, dict)
                    or not isinstance(p.get("type"), str)
                    or not isinstance(p.get("value"), str)):
                raise KBFormatError(
                    f"entity {name!r} (position {position}): attribute {i} "
                    f"needs string \"type\" and \"value\"")
            pairs.append(AttributeValuePair(p["type"], p["value"]))
        feats = raw.get("image_features", []) or []
        widths = {len(v) for v in feats}
        if len(widths) > 1:
            raise KBFormatError(
                f"entity {name!r} (position {position}): image features "
                f"have inconsistent dimensions {sorted(widths)}")
        try:
            entities.append(Entity(name, tuple(pairs), np.asarray(feats, float)))
        except (KBFormatError, ValueError) as exc:
            raise KBFormatError(
                f"entity {name!r} (position {position}): {exc}") from exc
    return KnowledgeBase(entities)


class KnowledgeGraph:
    """Directed labeled graph over entity names and attribute values.

    Node identity is the exact string after trimming surrounding whitespace,
    so an attribute value equal to another entity's name lands on that
    entity's node — this is what makes multi-hop walks possible.
    """

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str, str]]):
        self.edges: frozenset[tuple[str, str, str]] = frozenset(edges)
        node_set = set(nodes)
        for head, _, tail in self.edges:
            node_set.add(head)
            node_set.add(tail)
        self.nodes: frozenset[str] = frozenset(node_set)
        adjacency: dict[str, list[tuple[str, str]]] = {}
        for head, label, tail in self.edges:
            adjacency.setdefault(head, []).append((label, tail))
        self._out = {h: tuple(sorted(pairs)) for h, pairs in adjacency.items()}

    def out_edges(self, node: str) -> tuple[tuple[str, str], ...]:
        """(label, tail) pairs leaving ``node``, sorted for determinism."""
        return self._out.get(node, ())

    def out_degree(self, node: str) -> int:
        return len(self.out_edges(node))

    def __repr__(self) -> str:
        return f"KnowledgeGraph({len(self.nodes)} nodes, {len(self.edges)} edges)"


def build_graph(kb: KnowledgeBase) -> KnowledgeGraph:
    """Cast a knowledge base into its directed graph.

    One edge per distinct (entity, attribute_type, value) triplet; duplicate
    triplets collapse. Every entity contributes a head node even when it has
    no attributes.
    """
    nodes: set[str] = set()
    edges: set[tuple[str, str, str]] = set()
    for ent in kb:
        head = ent.name.strip()
        nodes.add(head)
        for pair in ent.attributes:
            edges.add((head, pair.attribute_type, pair.value.strip()))
    return KnowledgeGraph(nodes, edges)
