"""Knowledge base parsing and graph construction."""
import gc
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgdialog.kb import (AttributeValuePair, Entity, KBFormatError,
                         KnowledgeBase, KnowledgeGraph, build_graph,
                         decode_json, kb_from_doc)

from helpers import dense_adjacency, kb_of


def parse_kb(text):
    """A KB file's text through the CLI's two steps: decode, then read."""
    return kb_from_doc(decode_json(text, "KB document"))


def _doc(entities):
    return json.dumps(entities)


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
    with pytest.raises(ValueError, match="malformed KB document"):
        parse_kb("{not json")
    with pytest.raises(KBFormatError):
        parse_kb("{}")  # not an array
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


@pytest.mark.parametrize("features", [5, [1.0, 2.0]])
def test_parse_kb_rejects_scalar_and_flat_image_features(features):
    doc = _doc([{"name": "A", "image_features": features}])
    with pytest.raises(KBFormatError, match="'A' \\(position 0\\): image "
                                            "features must be"):
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


def test_parse_kb_infers_feature_dim():
    kb = parse_kb(_doc([{"name": "A", "image_features": [[0.1, 0.2, 0.3]]},
                        {"name": "B"}]))
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
    assert len(g.out_edges("A")) == 1


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
            assert len(g.out_edges(e.name.strip())) == len(distinct)


def test_build_graph_is_deterministic_and_idempotent():
    kb = _random_kb(np.random.default_rng(3), 8)
    g1, g2 = build_graph(kb), build_graph(kb)
    assert g1.nodes == g2.nodes and g1.edges == g2.edges
    for node in g1.nodes:
        assert g1.out_edges(node) == g2.out_edges(node)


def test_knowledge_base_keeps_the_graph_it_builds():
    kb = _random_kb(np.random.default_rng(4), 8)
    graph = kb.graph
    assert kb.graph is graph
    assert graph.nodes == build_graph(kb).nodes
    assert graph.edges == build_graph(kb).edges


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_build_graph_insertion_order_is_irrelevant(seed):
    rng = np.random.default_rng(seed)
    kb = _random_kb(rng, 6)
    entities = list(kb)
    reordered = KnowledgeBase(entities[::-1])
    a, b = build_graph(kb), build_graph(reordered)
    assert a.nodes == b.nodes and a.edges == b.edges


def test_dense_graph_is_built_and_kept_in_under_one_mib():
    # 400 entities of out-degree 24: 9,600 edges, held once, per head
    kb = kb_of(dense_adjacency(400, 24))
    gc.collect()
    tracemalloc.start()
    try:
        graph = build_graph(kb)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(graph.nodes) == 400 and len(graph.edges) == 9600
    assert retained < 2 ** 20 and peak < 2 ** 20


def test_attribute_pairs_carry_no_instance_dict():
    pair = AttributeValuePair("near", "B")
    assert not hasattr(pair, "__dict__")
    with pytest.raises(AttributeError):
        pair.value = "C"


def _reachable(graph, start):
    """Every node a path from ``start`` reaches, ``start`` included."""
    seen, todo = {start}, [start]
    while todo:
        for _, t in graph.out_edges(todo.pop()):
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


def _reach_oracle(graph, max_hops):
    """Per node, the fewest hops to a node with fewer than ``max_hops``
    out-neighbours besides itself, each of which reaches it back, found by
    forward searches from each node; kept when under ``max_hops``."""
    reachable = {node: _reachable(graph, node) for node in graph.nodes}
    low = set()
    for node in graph.nodes:
        tails = {t for _, t in graph.out_edges(node)} - {node}
        if len(tails) < max_hops and all(node in reachable[t] for t in tails):
            low.add(node)
    reach = {}
    for start in graph.nodes:
        level, seen = {start}, {start}
        for hops in range(max_hops):
            if level & low:
                reach[start] = hops
                break
            level = {t for node in level for _, t in graph.out_edges(node)}
            level -= seen
            seen |= level
    return reach


@given(st.integers(0, 10_000), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_dead_end_reach_matches_forward_search(seed, max_hops):
    # 0-6 out-edges per node, repeats and self-loops included
    rng = np.random.default_rng(seed)
    names = [f"n{i}" for i in range(10)]
    graph = KnowledgeGraph(names, [
        (head, "r", str(tail)) for head in names
        for tail in rng.choice(names, size=int(rng.integers(0, 7)))])
    reach = graph.dead_end_reach(max_hops)
    assert dict(reach) == _reach_oracle(graph, max_hops)
    assert graph.dead_end_reach(max_hops) is reach  # kept, not rebuilt
