"""Knowledge base parsing and graph construction."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgdialog.kb import (AttributeValuePair, Entity, KBFormatError,
                         KnowledgeBase, build_graph, parse_kb)


def _doc(entities):
    return json.dumps(entities).encode()


def test_parse_kb_counts_entities_and_pairs():
    doc = _doc([
        {"name": "A", "attributes": [{"type": "t1", "value": "v1"},
                                     {"type": "t2", "value": "v2"},
                                     {"type": "t3", "value": "v3"}]},
        {"name": "B", "attributes": [{"type": "t1", "value": "v4"},
                                     {"type": "t2", "value": "v5"},
                                     {"type": "t3", "value": "v6"}]},
    ])
    kb = parse_kb(doc)
    assert len(kb) == 2
    assert all(len(ent.attributes) == 3 for ent in kb)
    assert kb.feature_dim == 0


def test_parse_kb_rejects_duplicate_names():
    doc = _doc([{"name": "Wisma Atria", "attributes": []},
                {"name": "Wisma Atria", "attributes": []}])
    with pytest.raises(KBFormatError, match="duplicate"):
        parse_kb(doc)


def test_parse_kb_rejects_malformed_document():
    with pytest.raises(KBFormatError, match="malformed"):
        parse_kb(b"{not json")
    with pytest.raises(KBFormatError):
        parse_kb(b"{}")  # not an array
    with pytest.raises(KBFormatError, match="name"):
        parse_kb(_doc([{"attributes": []}]))


def test_parse_kb_rejects_inconsistent_feature_dims():
    doc = _doc([{"name": "A", "image_features": [[1.0, 0.0], [0.0, 1.0]]},
                {"name": "B", "image_features": [[1.0, 0.0, 0.0]]}])
    with pytest.raises(KBFormatError, match="dimension"):
        parse_kb(doc)
    doc = _doc([{"name": "A", "image_features": [[1.0, 0.0], [1.0]]}])
    with pytest.raises(KBFormatError):
        parse_kb(doc)


def test_kb_rejects_zero_norm_image_row():
    # one such row used to make every visual acquisition raise
    doc = _doc([{"name": "a", "attributes": [{"type": "t", "value": "v"}],
                 "image_features": [[1.0, 0.0]]},
                {"name": "b", "image_features": [[1.0, 1.0], [0.0, 0.0]]}])
    with pytest.raises(KBFormatError, match="'b' at position 1.*row 1 has "
                                            "zero norm"):
        parse_kb(doc)
    with pytest.raises(KBFormatError, match="'b'"):
        KnowledgeBase([Entity("b", (), np.zeros((1, 2)))])


def test_parse_kb_infers_feature_dim_and_accepts_file_objects(tmp_path):
    doc = _doc([{"name": "A", "image_features": [[0.1, 0.2, 0.3]]},
                {"name": "B"}])
    path = tmp_path / "kb.json"
    path.write_bytes(doc)
    with open(path, "rb") as fh:
        kb = parse_kb(fh)
    assert kb.feature_dim == 3
    assert kb["A"].has_images and not kb["B"].has_images


def test_attribute_pair_requires_non_empty_strings():
    with pytest.raises(KBFormatError):
        AttributeValuePair("", "v")
    with pytest.raises(KBFormatError):
        AttributeValuePair("t", "")


def test_build_graph_toy_example():
    kb = KnowledgeBase([
        Entity("A", (AttributeValuePair("near", "B"),
                     AttributeValuePair("domain", "mall"))),
        Entity("B", (AttributeValuePair("domain", "mall"),)),
    ])
    g = build_graph(kb)
    assert g.nodes == {"A", "B", "mall"}
    assert g.edges == {("A", "near", "B"), ("A", "domain", "mall"),
                       ("B", "domain", "mall")}


def test_build_graph_empty_kb():
    g = build_graph(KnowledgeBase([]))
    assert g.nodes == frozenset() and g.edges == frozenset()


def test_build_graph_unifies_value_with_entity_node():
    kb = KnowledgeBase([
        Entity("A", (AttributeValuePair("near", "  B  "),)),  # padded value
        Entity("B", (AttributeValuePair("domain", "mall"),)),
    ])
    g = build_graph(kb)
    assert g.nodes == {"A", "B", "mall"}  # one node for B, never two
    assert ("A", "near", "B") in g.edges


def test_build_graph_collapses_duplicate_triplets():
    kb = KnowledgeBase([
        Entity("A", (AttributeValuePair("t", "v"), AttributeValuePair("t", "v"))),
    ])
    g = build_graph(kb)
    assert len(g.edges) == 1
    assert g.out_degree("A") == 1


def _random_kb(rng, n_entities):
    names = [f"e{i}" for i in range(n_entities)]
    types = ["near", "domain", "kind", "area"]
    entities = []
    for name in names:
        pairs = []
        for _ in range(rng.integers(0, 5)):
            value = (rng.choice(names) if rng.random() < 0.5
                     else f"v{rng.integers(0, 6)}")
            pairs.append(AttributeValuePair(str(rng.choice(types)), str(value)))
        entities.append(Entity(name, tuple(pairs)))
    return KnowledgeBase(entities)


def test_build_graph_edge_count_matches_brute_force_recount():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        kb = _random_kb(rng, 10)
        g = build_graph(kb)
        # independent recount straight off the entity data
        expected = {(e.name.strip(), p.attribute_type, p.value.strip())
                    for e in kb for p in e.attributes}
        assert g.edges == expected
        for e in kb:
            distinct = {(p.attribute_type, p.value.strip()) for p in e.attributes}
            assert g.out_degree(e.name.strip()) == len(distinct)


def test_build_graph_is_deterministic_and_idempotent():
    kb = _random_kb(np.random.default_rng(3), 8)
    g1, g2 = build_graph(kb), build_graph(kb)
    assert g1.nodes == g2.nodes and g1.edges == g2.edges
    for node in g1.nodes:
        assert g1.out_edges(node) == g2.out_edges(node)


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_build_graph_insertion_order_is_irrelevant(seed):
    rng = np.random.default_rng(seed)
    kb = _random_kb(rng, 6)
    entities = list(kb)
    reordered = KnowledgeBase(entities[::-1])
    a, b = build_graph(kb), build_graph(reordered)
    assert a.nodes == b.nodes and a.edges == b.edges
