"""Dialog corpora: the JSON-lines file format and synthetic generation.

The synthetic generator builds a small venue knowledge base with planted
near-chains (A near B, B domain X) and emits three question families:
attribute questions answerable from an entity's own pairs, relation
questions whose answer is only reachable through a 2-hop walk, and open
questions with fixed responses. Optionally entities get seeded unit image
features, enabling a fourth family grounded in a context image.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .acquire import DialogContext, tokenize
from .kb import KnowledgeBase, decode_json, kb_from_doc

CONTEXT_WINDOW = 2  # dialog history: the former two turns

_FIRST = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
          "theta", "iota", "kappa", "lambda", "mu", "nu", "xi", "omicron",
          "pi", "rho", "sigma", "tau", "upsilon", "phi", "chi", "psi",
          "omega"]
_SECOND = ["court", "garden", "plaza", "house", "corner", "market",
           "lounge", "studio", "hall", "kitchen"]
_DOMAINS = ["cafe", "museum", "cinema", "bar", "bakery", "gym", "library",
            "hotel", "spa", "arcade"]
_AREAS = ["north", "south", "east", "west", "central"]
_RATINGS = ["one", "two", "three", "four", "five"]

_OPEN_EXCHANGES = [
    (["thank you so much", "that is all for now"], "you are welcome goodbye"),
    (["hello there", "can you help me find a place"],
     "sure i am happy to help"),
    (["this looks great", "see you tomorrow"], "glad to help see you soon"),
]

IMAGE_DIM = 8


class CorpusFormatError(ValueError):
    """Raised for malformed corpus files."""


@dataclass(frozen=True, eq=False)
class DialogPair:
    """One training example: a multimodal context and its response tokens."""

    context: DialogContext
    response: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "response", tuple(self.response))
        if not self.response:
            raise CorpusFormatError("response must be non-empty")


def pair_from_record(record: dict) -> DialogPair:
    """Build a DialogPair from one corpus record, keeping the former
    ``CONTEXT_WINDOW`` utterances as context."""
    if not isinstance(record, dict):
        raise CorpusFormatError("record must be a JSON object")
    utterances = record.get("context_utterances")
    if not isinstance(utterances, list) or not utterances:
        raise CorpusFormatError("record needs non-empty context_utterances")
    response = record.get("response")
    if not isinstance(response, str) or not response.strip():
        raise CorpusFormatError("record needs a non-empty response string")
    ctx = DialogContext.from_utterances(
        utterances[-CONTEXT_WINDOW:],
        record.get("context_image_features") or ())
    return DialogPair(ctx, tuple(tokenize(response)))


def read_corpus(text: str) -> tuple[list[dict], list[DialogPair]]:
    """Read the corpus file format, one JSON object per line (blank lines
    are skipped). Returns the records and their pairs; every error names
    its line."""
    records, pairs = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(decode_json(line, "record"))
            pairs.append(pair_from_record(records[-1]))
        except ValueError as exc:  # JSON, record and context errors alike
            raise CorpusFormatError(f"corpus line {lineno}: {exc}") from exc
    return records, pairs


def pairs_from_records(records) -> list[DialogPair]:
    """Read a bundle's corpus, a list of records, into their pairs; every
    error names its record's index."""
    if not isinstance(records, list):
        raise CorpusFormatError("bundle 'corpus' must be a list of records")
    pairs = []
    for index, record in enumerate(records):
        try:
            pairs.append(pair_from_record(record))
        except ValueError as exc:
            raise CorpusFormatError(f"corpus[{index}]: {exc}") from exc
    return pairs


def save_corpus_records(records: Sequence[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")


def save_kb_doc(kb_doc: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(kb_doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


# ------------------------------------------------------------------ synthesis

@dataclass
class SyntheticCorpus:
    """A generated knowledge base and corpus, plus their file-format forms."""

    kb: KnowledgeBase
    pairs: list[DialogPair]
    kb_doc: list[dict] = field(repr=False, default_factory=list)
    records: list[dict] = field(repr=False, default_factory=list)


def _entity_name(i: int) -> str:
    return f"{_FIRST[i % len(_FIRST)]} {_SECOND[(i // len(_FIRST)) % len(_SECOND)]}"


def _make_entities(rng: np.random.Generator, n_entities: int,
                   with_images: bool) -> list[dict]:
    """Raw entity dicts with planted near-chains on even indices."""
    if n_entities < 4:
        raise ValueError("need at least 4 entities")
    if n_entities > len(_FIRST) * len(_SECOND):
        raise ValueError(f"at most {len(_FIRST) * len(_SECOND)} entities")
    domains = [str(rng.choice(_DOMAINS)) for _ in range(n_entities)]
    for i in range(0, n_entities - 1, 2):
        # the near-partner's domain must differ, or the 2-hop answer would
        # leak into the seed entity's own attribute knowledge
        if domains[i + 1] == domains[i]:
            domains[i + 1] = _DOMAINS[(_DOMAINS.index(domains[i]) + 1)
                                      % len(_DOMAINS)]
    raw = []
    for i in range(n_entities):
        attributes = [
            {"type": "domain", "value": domains[i]},
            {"type": "area", "value": str(rng.choice(_AREAS))},
            {"type": "rating", "value": str(rng.choice(_RATINGS))},
        ]
        if i % 2 == 0 and i + 1 < n_entities:
            attributes.append({"type": "near", "value": _entity_name(i + 1)})
        features = []
        if with_images:
            v = rng.standard_normal(IMAGE_DIM)
            features = [(v / np.linalg.norm(v)).tolist()]
        raw.append({"name": _entity_name(i), "attributes": attributes,
                    "image_features": features})
    return raw


def _attribute_record(rng, raw_entity) -> dict:
    choice = {a["type"]: a["value"] for a in raw_entity["attributes"]}
    attr = str(rng.choice(["domain", "area", "rating"]))
    name = raw_entity["name"]
    return {
        "context_utterances": [f"tell me about {name}",
                               f"what is the {attr} of {name}"],
        "context_image_features": [],
        "response": f"the {attr} of {name} is {choice[attr]}",
    }


def _relation_record(raw_entities, a_index: int) -> dict:
    a = raw_entities[a_index]
    b = raw_entities[a_index + 1]
    b_domain = next(x["value"] for x in b["attributes"] if x["type"] == "domain")
    return {
        "context_utterances": [f"i am looking at {a['name']}",
                               f"what kind of place is near {a['name']}"],
        "context_image_features": [],
        "response": f"the place near {a['name']} is a {b_domain}",
    }


def _open_record(rng) -> dict:
    utterances, response = _OPEN_EXCHANGES[int(rng.integers(len(_OPEN_EXCHANGES)))]
    return {"context_utterances": list(utterances),
            "context_image_features": [], "response": response}


def _visual_record(rng, raw_entity) -> dict:
    choice = {a["type"]: a["value"] for a in raw_entity["attributes"]}
    base = np.asarray(raw_entity["image_features"][0])
    noisy = base + 0.01 * rng.standard_normal(IMAGE_DIM)
    noisy = noisy / np.linalg.norm(noisy)
    return {
        "context_utterances": ["look at this picture",
                               "what do you know about this place"],
        "context_image_features": [noisy.tolist()],
        "response": (f"this is {raw_entity['name']} a {choice['domain']} "
                     f"in the {choice['area']} area"),
    }


def make_synthetic_corpus(seed: int, n_entities: int = 24, n_pairs: int = 32,
                          with_images: bool = True) -> SyntheticCorpus:
    """Generate a knowledge base and ``n_pairs`` dialog pairs.

    Pair i's family cycles deterministically: attribute, attribute,
    relation, attribute, relation, open, and (with images) every eighth
    pair is visually grounded. Content randomness all flows from ``seed``.
    A negative ``n_pairs`` raises ValueError.
    """
    if n_pairs < 0:
        raise ValueError(f"n_pairs must be >= 0, got {n_pairs}")
    rng = np.random.default_rng(seed)
    raw_entities = _make_entities(rng, n_entities, with_images)
    even_indices = [i for i in range(0, n_entities - 1, 2)]

    records = []
    for i in range(n_pairs):
        slot = i % 8
        if with_images and slot == 7:
            ent = raw_entities[int(rng.integers(len(raw_entities)))]
            records.append(_visual_record(rng, ent))
        elif slot == 5:
            records.append(_open_record(rng))
        elif slot in (2, 4):
            a_index = even_indices[int(rng.integers(len(even_indices)))]
            records.append(_relation_record(raw_entities, a_index))
        else:
            ent = raw_entities[int(rng.integers(len(raw_entities)))]
            records.append(_attribute_record(rng, ent))

    kb = kb_from_doc(raw_entities)
    pairs = [pair_from_record(r) for r in records]
    return SyntheticCorpus(kb=kb, pairs=pairs, kb_doc=raw_entities,
                           records=records)


def make_relation_ablation(seed: int, n_train: int = 64,
                           n_held: int = 32) -> tuple[KnowledgeBase,
                                                      list[DialogPair],
                                                      list[DialogPair]]:
    """Relation-question split over disjoint seed entities.

    Every question is from the 2-hop family; each asks about a distinct
    entity, so held-out questions concern near-chains never seen in
    training and can only be answered by reading the walked tuple. Each
    side needs at least one question, or ValueError is raised.
    """
    if n_train < 1 or n_held < 1:
        raise ValueError(f"n_train {n_train} and n_held {n_held} must be >= 1")
    n_questions = n_train + n_held
    rng = np.random.default_rng(seed)
    raw_entities = _make_entities(rng, 2 * n_questions, with_images=False)
    records = [_relation_record(raw_entities, 2 * j) for j in range(n_questions)]
    order = rng.permutation(n_questions)
    train = [pair_from_record(records[int(i)]) for i in order[:n_train]]
    held = [pair_from_record(records[int(i)]) for i in order[n_train:]]
    return kb_from_doc(raw_entities), train, held
