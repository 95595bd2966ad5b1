"""Knowledge-base data model, file ingestion, and graph construction.

A knowledge base is a set of named entities, each carrying attribute-value
pairs and optional precomputed image feature vectors. Casting every
(entity, attribute_type, value) triplet to a directed labeled edge — and
unifying value strings with entity names — yields the graph that multi-hop
relation walks run over.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

import numpy as np

_TOKEN_RE = re.compile(r"[a-z0-9]+|[^\sa-z0-9]")


def tokenize(text: str) -> list[str]:
    """Lowercase and split into alphanumeric runs and single punctuation
    marks. The one tokenizer used everywhere — contexts, responses, entity
    names, linearized knowledge — so mention matching stays consistent."""
    return _TOKEN_RE.findall(text.lower())


class KBFormatError(ValueError):
    """Raised for malformed, duplicated, or inconsistent KB input."""


def _numbers(table) -> bool:
    """Whether a table holds ints and floats alone: arrays by dtype, lists
    value by value, so that a bool or a string is refused."""
    if isinstance(table, np.ndarray):
        return table.dtype.kind in "iuf"
    return all(_numbers(row) if isinstance(row, np.ndarray) else
               all(type(x) in (int, float) for x in row) for row in table)


def feature_table(features) -> np.ndarray:
    """Image features as an (n_images, feature_dim) float64 array, or a
    0 x 0 array when there are none; anything but a list of equal-length
    vectors of finite numbers raises ValueError."""
    try:
        feats = np.asarray(features, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):  # ragged, or a non-number
        feats = np.array(np.nan)                     # fails the test below
    if feats.size and (feats.ndim != 2 or not np.isfinite(feats).all()
                       or not _numbers(features)):
        raise ValueError("image features must be a list of equal-length "
                         "vectors of finite numbers")
    return feats if feats.size else feats.reshape(0, 0)


@dataclass(frozen=True, slots=True)
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

    ``image_features`` is an (n_images, feature_dim) float64 array, any
    other shape a ValueError; entities without images carry a 0 x 0 array.
    """

    name: str
    attributes: tuple[AttributeValuePair, ...] = ()
    image_features: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    def __post_init__(self):
        if not self.name:
            raise KBFormatError("entity name must be non-empty")
        object.__setattr__(self, "attributes", tuple(self.attributes))
        feats = feature_table(self.image_features)
        feats.flags.writeable = False
        object.__setattr__(self, "image_features", feats)

    @property
    def has_images(self) -> bool:
        return self.image_features.size > 0


class NameIndex(NamedTuple):
    """Entities by the tokens of their name, the token run a textual
    mention must match, and the longest such run. A name that tokenizes to
    nothing has no entry."""

    entities: Mapping[tuple[str, ...], tuple[Entity, ...]]
    longest: int


class KnowledgeBase:
    """Immutable collection of entities keyed by unique name.

    ``feature_dim`` is the shared dimensionality of all image feature
    vectors, or 0 when no entity carries any. Every image feature row must
    have non-zero norm; ``image_norms`` holds those norms, per entity with
    images, for the visual route.
    """

    def __init__(self, entities: Iterable[Entity]):
        store: dict[str, Entity] = {}
        image_norms: dict[str, np.ndarray] = {}
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
                image_norms[ent.name] = norms
            store[ent.name] = ent
        self._entities = store
        self.image_norms: Mapping[str, np.ndarray] = MappingProxyType(
            image_norms)
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

    @cached_property
    def names(self) -> NameIndex:
        """The name index, built on first use: the entities never change,
        so each name is tokenized once per knowledge base."""
        by_tokens: dict[tuple[str, ...], list[Entity]] = {}
        for ent in self:
            toks = tuple(tokenize(ent.name))
            if toks:
                by_tokens.setdefault(toks, []).append(ent)
        return NameIndex(
            MappingProxyType({k: tuple(v) for k, v in by_tokens.items()}),
            max(map(len, by_tokens), default=0))


def decode_json(text, document: str):
    """``json.loads``; malformed or too deeply nested text raises ValueError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"malformed {document}: {exc}") from exc


def parse_kb(source) -> KnowledgeBase:
    """Parse the KB file format (see ``kb_from_doc``); ``source`` may be
    bytes, text, or a readable file object."""
    if hasattr(source, "read"):
        source = source.read()
    try:
        doc = decode_json(source, "KB document")
    except ValueError as exc:
        raise KBFormatError(str(exc)) from exc
    return kb_from_doc(doc)


def kb_from_doc(doc) -> KnowledgeBase:
    """Build a knowledge base from a decoded KB document, checking every
    JSON type: an array of {"name": str, "attributes": [{"type","value"},
    ...], "image_features": [[float,...],...]}, the last two optional."""
    if not isinstance(doc, list):
        raise KBFormatError("KB document must be a top-level JSON array")
    entities = []
    for position, raw in enumerate(doc):
        if not isinstance(raw, dict) or not isinstance(raw.get("name"), str):
            raise KBFormatError(
                f"entity at position {position} needs a string \"name\"")
        name = raw["name"]
        attributes = raw.get("attributes") or []
        if not isinstance(attributes, list):
            raise KBFormatError(f"entity {name!r} (position {position}): "
                                f"\"attributes\" must be a list")
        pairs = []
        for i, p in enumerate(attributes):
            if (not isinstance(p, dict)
                    or not isinstance(p.get("type"), str)
                    or not isinstance(p.get("value"), str)):
                raise KBFormatError(
                    f"entity {name!r} (position {position}): attribute {i} "
                    f"needs string \"type\" and \"value\"")
            pairs.append(AttributeValuePair(p["type"], p["value"]))
        try:
            entities.append(Entity(name, tuple(pairs),
                                   raw.get("image_features") or ()))
        except ValueError as exc:
            raise KBFormatError(
                f"entity {name!r} (position {position}): {exc}") from exc
    return KnowledgeBase(entities)


class KnowledgeGraph:
    """Directed labeled graph over entity names and attribute values.

    Node identity is the exact string after trimming surrounding whitespace,
    so an attribute value equal to another entity's name lands on that
    entity's node — this is what makes multi-hop walks possible. The graph
    stores its nodes and, per head, its distinct (label, tail) pairs in
    sorted order; ``edges`` is derived from them on each read.
    """

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str, str]]):
        grouped: dict[str, list[tuple[str, str]]] = {}
        for head, label, tail in edges:
            grouped.setdefault(head, []).append((label, tail))
        self._out = {head: tuple(sorted(set(pairs)))
                     for head, pairs in grouped.items()}
        self.nodes: frozenset[str] = frozenset(chain(
            nodes, self._out,
            (tail for pairs in self._out.values() for _, tail in pairs)))
        self._dead_end_reach: dict[int, Mapping[str, int]] = {}

    @property
    def edges(self) -> frozenset[tuple[str, str, str]]:
        """Every (head, label, tail) triple, rebuilt from the adjacency."""
        return frozenset((head, label, tail)
                         for head, pairs in self._out.items()
                         for label, tail in pairs)

    def out_edges(self, node: str) -> tuple[tuple[str, str], ...]:
        """(label, tail) pairs leaving ``node``, sorted for determinism."""
        return self._out.get(node, ())

    def out_degree(self, node: str) -> int:
        return len(self.out_edges(node))

    def dead_end_reach(self, max_hops: int) -> Mapping[str, int]:
        """Each node's hop distance to the nearest node that can end a
        dead-end path of a ``max_hops`` walk, for nodes within
        ``max_hops - 1`` hops of one; other nodes have no entry.

        A path of k < max_hops edges is a dead end when every out-neighbour
        of its last node lies on the path, so that node has fewer than
        ``max_hops`` out-neighbours besides itself. Those nodes are found
        once per ``max_hops`` and the distances by a breadth-first search
        over reversed edges; the graph never changes, so it keeps them.
        """
        reach = self._dead_end_reach.get(max_hops)
        if reach is None:
            level = {node for node in self.nodes if len(
                {tail for _, tail in self._out.get(node, ())} - {node})
                < max_hops}
            into: dict[str, list[str]] = {}
            if level:
                for head, pairs in self._out.items():
                    for _, tail in pairs:
                        into.setdefault(tail, []).append(head)
            found = dict.fromkeys(level, 0)
            for hops in range(1, max_hops):
                level = {head for node in level
                         for head in into.get(node, ())} - found.keys()
                found.update(dict.fromkeys(level, hops))
            reach = self._dead_end_reach[max_hops] = MappingProxyType(found)
        return reach

    def __repr__(self) -> str:
        edges = sum(map(len, self._out.values()))
        return f"KnowledgeGraph({len(self.nodes)} nodes, {edges} edges)"


def build_graph(kb: KnowledgeBase) -> KnowledgeGraph:
    """Cast a knowledge base into its directed graph.

    One edge per distinct (entity, attribute_type, value) triplet; duplicate
    triplets collapse. Every entity contributes a head node even when it has
    no attributes. The triplets stream from the entities into the graph's
    per-head adjacency; no set of all triplets is built.
    """
    return KnowledgeGraph(
        (ent.name.strip() for ent in kb),
        ((ent.name.strip(), pair.attribute_type, pair.value.strip())
         for ent in kb for pair in ent.attributes))
