"""Attribute/relation knowledge acquisition, with brute-force oracles."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgdialog.acquire import (PROVENANCE_TEXTUAL, AcquisitionConfig,
                              AttributeKnowledge, DialogContext,
                              NoImagesError, RelationTuple,
                              acquire_attributes, acquire_text_attributes,
                              acquire_visual_attributes, entity_similarity,
                              linearize_tuple, merge_attribute_knowledge,
                              order_tuples, tokenize, walk_relations)
from kgdialog.corpus import make_synthetic_corpus
from kgdialog.kb import (AttributeValuePair, Entity, KnowledgeBase,
                         KnowledgeGraph, build_graph)


def _pairs(*tvs):
    return tuple(AttributeValuePair(t, v) for t, v in tvs)


WISMA = Entity("Wisma Atria", _pairs(("domain", "mall"),
                                     ("location", "Orchard Road"),
                                     ("phone", "6235 2103")))
INANIWA = Entity("Inaniwa Yosuke", _pairs(("near", "Wisma Atria"),
                                          ("domain", "restaurant")))


def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("Wisma Atria!") == ["wisma", "atria", "!"]
    assert tokenize("it's 5pm") == ["it", "'", "s", "5pm"]
    assert tokenize("") == []


# ------------------------------------------------------------- textual route

def test_text_route_finds_multi_token_mention():
    kb = KnowledgeBase([WISMA, INANIWA])
    ctx = DialogContext(tuple(tokenize("Is Wisma Atria open late?")))
    k = acquire_text_attributes(ctx, kb)
    assert len(k) == 3
    assert {ap.source_entity for ap in k} == {"Wisma Atria"}
    assert all(ap.provenance == "textual" for ap in k)


def test_text_route_is_case_insensitive():
    kb = KnowledgeBase([WISMA])
    ctx = DialogContext(tuple(tokenize("heard WISMA ATRIA is nice")))
    assert len(acquire_text_attributes(ctx, kb)) == 3


def test_text_route_requires_contiguous_mention():
    kb = KnowledgeBase([WISMA])
    ctx = DialogContext(("wisma", "crowded", "atria"))
    assert len(acquire_text_attributes(ctx, kb)) == 0


def test_text_route_empty_when_nothing_mentioned():
    kb = KnowledgeBase([WISMA, INANIWA])
    ctx = DialogContext(tuple(tokenize("any good food around here?")))
    assert acquire_text_attributes(ctx, kb) == AttributeKnowledge(())


# Words for names and contexts: "site"/"1"/"12" make names that are prefixes
# of other names, and the mixed case and punctuation go through tokenize.
_NAME_WORDS = ["site", "1", "12", "Site", "SITE", "café", "o'neil", "st.",
               "-", "the"]
_FIXED_NAMES = ["site", "site 1", "site 12", "Mr. Kim's", "   "]  # "   ": no tokens


@st.composite
def _mention_cases(draw):
    names = draw(st.lists(
        st.sampled_from(_FIXED_NAMES)
        | st.lists(st.sampled_from(_NAME_WORDS), min_size=1,
                   max_size=3).map(" ".join),
        min_size=1, max_size=6, unique=True))
    # chunks of the context are whole names (so mentions repeat) or filler
    chunks = draw(st.lists(
        st.sampled_from(names).map(tokenize)
        | st.lists(st.sampled_from(["site", "1", "12", "near", "!"]),
                   max_size=2),
        max_size=6))
    words = [w for chunk in chunks for w in chunk]
    upper = draw(st.lists(st.booleans(), min_size=len(words),
                          max_size=len(words)))
    return names, [w.upper() if up else w for w, up in zip(words, upper)]


@given(_mention_cases())
@settings(max_examples=200, deadline=None)
def test_text_route_matches_exhaustive_scan_oracle(case):
    names, words = case
    kb = KnowledgeBase(Entity(n, _pairs(("t", f"v{i}"), ("u", "w")))
                       for i, n in enumerate(names))
    got = acquire_text_attributes(DialogContext(tuple(words)), kb)
    # oracle: scan every name over every start offset, collect the union;
    # a name without tokens is never mentioned
    expected = set()
    for ent in kb:
        toks = tokenize(ent.name)
        hits = [i for i in range(len(words) - len(toks) + 1)
                if [w.lower() for w in words[i:i + len(toks)]] == toks]
        if toks and hits:
            expected |= {(ent.name, p.attribute_type, p.value)
                         for p in ent.attributes}
    assert [ap.key() for ap in got] == sorted(expected)
    assert {ap.provenance for ap in got} <= {PROVENANCE_TEXTUAL}


def test_attribute_knowledge_order_is_deterministic():
    kb = KnowledgeBase([INANIWA, WISMA])
    ctx = DialogContext(tuple(tokenize("Inaniwa Yosuke near Wisma Atria")))
    k = acquire_text_attributes(ctx, kb)
    keys = [ap.key() for ap in k]
    assert keys == sorted(keys)


# -------------------------------------------------------------- visual route

def _visual_entity(name, images, pairs=(("domain", "x"),)):
    return Entity(name, _pairs(*pairs), np.asarray(images, float))


def test_entity_similarity_basic_cases():
    e = _visual_entity("E", [[1.0, 0.0]])
    assert entity_similarity(np.array([2.0, 0.0]), e) == pytest.approx(1.0)
    assert entity_similarity(np.array([0.0, 3.0]), e) == pytest.approx(0.0)


def test_entity_similarity_takes_max_over_images():
    f = np.array([1.0, 0.0])
    # cosines with f: 0.2 and 0.9
    imgs = [[0.2, np.sqrt(1 - 0.04)], [0.9, np.sqrt(1 - 0.81)]]
    assert entity_similarity(f, _visual_entity("E", imgs)) == pytest.approx(0.9)


def test_entity_similarity_error_cases():
    with pytest.raises(NoImagesError):
        entity_similarity(np.array([1.0]), Entity("bare"))
    e = _visual_entity("E", [[1.0, 0.0]])
    with pytest.raises(ValueError):
        entity_similarity(np.zeros(2), e)
    with pytest.raises(ValueError):
        entity_similarity(np.ones(3), e)


def test_visual_route_selects_matching_entity():
    e = _visual_entity("E", [[0.6, 0.8]])
    kb = KnowledgeBase([e, Entity("other", _pairs(("domain", "y")))])
    ctx = DialogContext((), np.array([[0.6, 0.8]]))
    k = acquire_visual_attributes(ctx, kb, AcquisitionConfig(epsilon=0.5))
    assert {ap.source_entity for ap in k} == {"E"}
    assert all(ap.provenance == "visual" for ap in k)


def test_visual_route_empty_without_context_images():
    kb = KnowledgeBase([_visual_entity("E", [[1.0, 0.0]])])
    k = acquire_visual_attributes(DialogContext(("hi",)), kb,
                                  AcquisitionConfig())
    assert len(k) == 0


def test_visual_route_threshold_is_strict():
    kb = KnowledgeBase([_visual_entity("E", [[1.0, 0.0]])])
    ctx = DialogContext((), np.array([[1.0, 0.0]]))  # similarity exactly 1.0
    assert len(acquire_visual_attributes(
        ctx, kb, AcquisitionConfig(epsilon=1.0))) == 0
    assert len(acquire_visual_attributes(
        ctx, kb, AcquisitionConfig(epsilon=0.999))) == 1


def _random_visual_kb(rng, n_entities, dim=4):
    entities = []
    for i in range(n_entities):
        n_img = int(rng.integers(0, 3))
        imgs = rng.standard_normal((n_img, dim)) if n_img else np.zeros((0, 0))
        entities.append(Entity(f"e{i}", _pairs((f"t{i}", f"v{i}")), imgs))
    return KnowledgeBase(entities)


def test_visual_route_matches_double_loop_oracle():
    rng = np.random.default_rng(23)
    kb = _random_visual_kb(rng, 8)
    feats = rng.standard_normal((5, 4))
    ctx = DialogContext((), feats)
    cfg = AcquisitionConfig(epsilon=0.7)
    got = {ap.key() for ap in acquire_visual_attributes(ctx, kb, cfg)}
    expected = set()
    for f in feats:  # oracle: plain double loop over (image, entity)
        for ent in kb:
            if not ent.has_images:
                continue
            best = max(float(np.dot(img, f))
                       / (np.linalg.norm(img) * np.linalg.norm(f))
                       for img in ent.image_features)
            if best > cfg.epsilon:
                expected |= {(ent.name, p.attribute_type, p.value)
                             for p in ent.attributes}
    assert got == expected


@given(st.integers(0, 500), st.floats(-0.99, 0.99))
@settings(max_examples=25, deadline=None)
def test_visual_route_selection_grows_as_epsilon_drops(seed, eps):
    rng = np.random.default_rng(seed)
    kb = _random_visual_kb(rng, 6)
    ctx = DialogContext((), rng.standard_normal((2, 4)))
    high = acquire_visual_attributes(ctx, kb, AcquisitionConfig(epsilon=eps))
    low = acquire_visual_attributes(
        ctx, kb, AcquisitionConfig(epsilon=max(-1.0, eps - 0.3)))
    assert {ap.key() for ap in high} <= {ap.key() for ap in low}


# --------------------------------------------------------------------- merge

def test_merge_keeps_text_first_then_visual():
    t = AttributeKnowledge(tuple(
        acquire_text_attributes(
            DialogContext(tuple(tokenize("Wisma Atria"))),
            KnowledgeBase([WISMA])).pairs))
    v = acquire_visual_attributes(
        DialogContext((), np.array([[1.0, 0.0]])),
        KnowledgeBase([_visual_entity("E", [[1.0, 0.0]], (("a", "b"), ("c", "d")))]),
        AcquisitionConfig(epsilon=0.5))
    merged = merge_attribute_knowledge(t, v)
    assert len(merged) == 5
    assert [ap.provenance for ap in merged] == ["textual"] * 3 + ["visual"] * 2


def test_merge_deduplicates_identical_inputs():
    kb = KnowledgeBase([WISMA])
    ctx = DialogContext(tuple(tokenize("Wisma Atria")))
    k = acquire_text_attributes(ctx, kb)
    assert len(merge_attribute_knowledge(k, k)) == 3


def test_merge_matches_set_union_oracle():
    rng = np.random.default_rng(5)
    kb = KnowledgeBase([Entity(f"e{i}", _pairs(*[(f"t{j}", f"v{j}")
                                                 for j in range(4)]))
                        for i in range(6)])
    for trial in range(10):
        mentioned = rng.choice([e.name for e in kb], size=3, replace=False)
        ctx_a = DialogContext(tuple(tokenize(" ".join(mentioned[:2]))))
        ctx_b = DialogContext(tuple(tokenize(" ".join(mentioned[1:]))))
        a = acquire_text_attributes(ctx_a, kb)
        b = acquire_text_attributes(ctx_b, kb)
        merged = merge_attribute_knowledge(a, b)
        union = {ap.key() for ap in a} | {ap.key() for ap in b}
        assert {ap.key() for ap in merged} == union
        assert len(merged) == len(union)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("with_images", [True, False])
def test_acquire_attributes_equals_gated_route_sequence(seed, with_images):
    syn = make_synthetic_corpus(seed, with_images=with_images)
    cfg = AcquisitionConfig()
    for pair in syn.pairs:
        ctx = pair.context
        # the sequence acquire_attributes replaced: text route, visual route
        # gated on image features, then merge
        text_k = acquire_text_attributes(ctx, syn.kb)
        visual_k = AttributeKnowledge(())
        if ctx.image_features.size and syn.kb.feature_dim:
            visual_k = acquire_visual_attributes(ctx, syn.kb, cfg)
        expected = merge_attribute_knowledge(text_k, visual_k)
        assert acquire_attributes(ctx, syn.kb, cfg) == expected


# --------------------------------------------------------------------- walks

def test_walk_reproduces_near_domain_chain():
    g = KnowledgeGraph(
        nodes=("InaniwaYosuke", "WismaAtria", "mall"),
        edges=[("InaniwaYosuke", "near", "WismaAtria"),
               ("WismaAtria", "domain", "mall")])
    out = walk_relations(g, {"InaniwaYosuke"}, AcquisitionConfig(max_hops=2))
    assert out == {RelationTuple(("InaniwaYosuke", "near", "WismaAtria",
                                  "domain", "mall"))}


def test_walk_from_dead_end_seed_is_empty():
    g = KnowledgeGraph(nodes=("A", "B"), edges=[("A", "r", "B")])
    assert walk_relations(g, {"B"}, AcquisitionConfig(max_hops=2)) == set()


def test_walk_skips_unknown_seed_with_warning(caplog):
    g = KnowledgeGraph(nodes=("A", "B"), edges=[("A", "r", "B")])
    with caplog.at_level("WARNING"):
        out = walk_relations(g, {"A", "ghost"}, AcquisitionConfig(max_hops=1))
    assert out == {RelationTuple(("A", "r", "B"))}
    assert "ghost" in caplog.text


def test_walk_emits_shorter_path_only_at_dead_ends():
    # A -> B stops early (B has no out-edges); A -> C -> D uses both hops
    g = KnowledgeGraph(
        nodes=(), edges=[("A", "r1", "B"), ("A", "r2", "C"), ("C", "r3", "D")])
    out = walk_relations(g, {"A"}, AcquisitionConfig(max_hops=2))
    assert out == {RelationTuple(("A", "r1", "B")),
                   RelationTuple(("A", "r2", "C", "r3", "D"))}


def test_walk_never_revisits_nodes():
    g = KnowledgeGraph(nodes=(), edges=[("A", "r", "B"), ("B", "r", "A")])
    out = walk_relations(g, {"A"}, AcquisitionConfig(max_hops=3))
    assert out == {RelationTuple(("A", "r", "B"))}


def random_graph(seed, max_nodes=12, max_edges=24):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_nodes + 1))
    nodes = [f"n{i}" for i in range(n)]
    labels = ["r1", "r2", "r3"]
    edges = set()
    for _ in range(int(rng.integers(0, max_edges + 1))):
        h, t = rng.choice(nodes, size=2)
        edges.add((str(h), str(rng.choice(labels)), str(t)))
    return KnowledgeGraph(nodes, edges)


def enumerate_maximal_paths(graph, seed_node, max_hops):
    """Oracle: breadth-first enumeration of all simple paths, then a
    maximality filter — deliberately different from the walker's DFS."""
    out_map = {}
    for h, label, t in graph.edges:
        out_map.setdefault(h, []).append((label, t))
    level = [(seed_node,)]
    all_paths = []
    for _ in range(max_hops):
        nxt = []
        for path in level:
            for label, t in out_map.get(path[-1], []):
                if t not in path[0::2]:
                    nxt.append(path + (label, t))
        all_paths.extend(nxt)
        level = nxt
    maximal = set()
    for path in all_paths:
        hops = len(path) // 2
        can_extend = hops < max_hops and any(
            t not in path[0::2] for _, t in out_map.get(path[-1], []))
        if not can_extend:
            maximal.add(path)
    return maximal


@pytest.mark.parametrize("seed", range(25))
def test_walk_matches_enumeration_oracle(seed):
    g = random_graph(seed)
    rng = np.random.default_rng(seed + 1000)
    hops = int(rng.integers(1, 4))
    seeds = {str(s) for s in rng.choice(sorted(g.nodes),
                                        size=min(3, len(g.nodes)),
                                        replace=False)}
    got = {t.entries for t in walk_relations(
        g, seeds, AcquisitionConfig(max_hops=hops))}
    expected = set()
    for s in seeds:
        expected |= enumerate_maximal_paths(g, s, hops)
    assert got == expected


@given(st.integers(0, 10_000), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_walk_output_is_well_formed(seed, hops):
    g = random_graph(seed)
    seeds = set(sorted(g.nodes)[:3])
    for t in walk_relations(g, seeds, AcquisitionConfig(max_hops=hops)):
        assert 1 <= t.n_hops <= hops
        assert len(set(t.nodes)) == len(t.nodes)  # simple path
        assert t.nodes[0] in seeds
        for i in range(t.n_hops):  # every consecutive triple is an edge
            head, label, tail = t.entries[2 * i:2 * i + 3]
            assert (head, label, tail) in g.edges


def test_walk_cap_keeps_shortest_then_lexicographic():
    edges = [("A", "r", f"b{i}") for i in range(5)]
    edges += [(f"b{i}", "r", f"c{i}") for i in range(5)]
    g = KnowledgeGraph((), edges)
    capped = walk_relations(g, {"A"}, AcquisitionConfig(max_hops=1, max_tuples=2))
    assert order_tuples(capped) == [RelationTuple(("A", "r", "b0")),
                                    RelationTuple(("A", "r", "b1"))]


def _capped_oracle(graph, seeds, hops, cap):
    """Every seed's maximal paths, ranked as ``order_tuples`` ranks them."""
    paths = set()
    for s in seeds:
        if s in graph.nodes:
            paths |= enumerate_maximal_paths(graph, s, hops)
    return sorted(paths, key=lambda p: (len(p), p))[:cap]


@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 40),
       st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_capped_walk_matches_ranked_oracle(seed, hops, cap, n_seeds):
    g = random_graph(seed)
    seeds = set(sorted(g.nodes)[:n_seeds]) | {"ghost"}
    got = walk_relations(g, seeds, AcquisitionConfig(max_hops=hops,
                                                     max_tuples=cap))
    assert [t.entries for t in order_tuples(got)] == \
        _capped_oracle(g, seeds, hops, cap)


@pytest.mark.parametrize("cap", range(1, 6))
def test_capped_walk_ranks_shallow_dead_ends_of_later_seeds_first(cap):
    # Z's 1-hop dead end outranks every 2-hop path from A, and A's 2-hop
    # dead end every 3-hop path, although a depth-first walk from A meets
    # the 3-hop path first.
    g = KnowledgeGraph((), [("A", "a", "B"), ("B", "b", "C"), ("C", "c", "D"),
                            ("A", "b", "E"), ("E", "e", "F"),
                            ("Z", "z", "Y")])
    seeds = {"A", "Z", "ghost"}
    got = walk_relations(g, seeds, AcquisitionConfig(max_hops=3,
                                                     max_tuples=cap))
    assert [t.entries for t in order_tuples(got)] == [
        ("Z", "z", "Y"), ("A", "b", "E", "e", "F"),
        ("A", "a", "B", "b", "C", "c", "D")][:cap]


def test_walk_long_chain_does_not_recurse():
    n = 1200
    g = KnowledgeGraph((), [(f"n{i}", "r", f"n{i + 1}") for i in range(n - 1)])
    out = walk_relations(g, {"n0"}, AcquisitionConfig(max_hops=n,
                                                      max_tuples=1))
    (t,) = out
    assert t.n_hops == n - 1 and t.nodes[-1] == f"n{n - 1}"


class _CountingGraph(KnowledgeGraph):
    calls = 0

    def out_edges(self, node):
        self.calls += 1
        return super().out_edges(node)


def test_capped_walk_work_is_bounded_by_prefixes():
    # A capped walk expands each prefix of at most max_hops - 1 edges at
    # most twice; listing every 3-hop path would need ~d^3 expansions.
    n, d, hops, cap = 60, 8, 3, 8
    rng = np.random.default_rng(0)
    edges = []
    for i in range(n):
        tails = rng.choice([j for j in range(n) if j != i], size=d,
                           replace=False)
        edges += [(f"n{i:02d}", f"r{int(rng.integers(3))}", f"n{j:02d}")
                  for j in tails]
    g = _CountingGraph((), edges)
    assert all(g.out_degree(node) == d for node in g.nodes)
    g.calls = 0
    got = walk_relations(g, {"n00"}, AcquisitionConfig(max_hops=hops,
                                                       max_tuples=cap))
    assert g.calls <= 2 * (1 + d + d * (d - 1))
    assert [t.entries for t in order_tuples(got)] == \
        _capped_oracle(g, {"n00"}, hops, cap)


# --------------------------------------------------------------- linearizing

def test_linearize_single_word_entries():
    assert linearize_tuple(RelationTuple(("A", "near", "B"))) == ["A", "near", "B"]


def test_linearize_splits_multiword_entries():
    t = RelationTuple(("Inaniwa Yosuke", "near", "Wisma Atria"))
    assert linearize_tuple(t) == ["Inaniwa", "Yosuke", "near", "Wisma", "Atria"]


def test_linearize_token_count_matches_recount():
    t = RelationTuple(("Inaniwa Yosuke", "near by", "Wisma Atria",
                       "domain of", "shopping mall"))
    assert len(linearize_tuple(t)) == sum(len(e.split()) for e in t.entries)


def test_relation_tuple_validation():
    with pytest.raises(ValueError):
        RelationTuple(("A",))
    with pytest.raises(ValueError):
        RelationTuple(("A", "r"))
    t = RelationTuple(("A", "r", "B", "s", "C"))
    assert t.nodes == ("A", "B", "C") and t.labels == ("r", "s")
    assert t.n_hops == 2


def test_acquisition_config_validation():
    with pytest.raises(ValueError):
        AcquisitionConfig(epsilon=1.5)
    with pytest.raises(ValueError):
        AcquisitionConfig(max_hops=0)
    with pytest.raises(ValueError):
        AcquisitionConfig(max_tuples=0)
