"""Tests for corpus loading and the synthetic corpus generator."""
import json

import numpy as np
import pytest

from kgdialog.acquire import (AcquisitionConfig, DialogContext,
                              entity_similarity, tokenize, walk_relations)
from kgdialog.corpus import (CONTEXT_WINDOW, CorpusFormatError, DialogPair,
                             make_relation_ablation, make_synthetic_corpus,
                             pair_from_record, pairs_from_records,
                             read_corpus, save_corpus_records)
from kgdialog.kb import build_graph, kb_from_doc


class TestDialogPair:
    def test_response_required(self):
        with pytest.raises(CorpusFormatError):
            DialogPair(DialogContext(("hi",)), ())

    def test_response_coerced_to_tuple(self):
        pair = DialogPair(DialogContext(("hi",)), ["a", "b"])
        assert pair.response == ("a", "b")


class TestPairFromRecord:
    def test_two_turn_window(self):
        record = {"context_utterances": ["zero turn", "first turn",
                                         "second turn"],
                  "response": "fine"}
        pair = pair_from_record(record)
        assert CONTEXT_WINDOW == 2
        assert pair.context.text_tokens == ("first", "turn", "second", "turn")

    def test_tokenizes_response(self):
        record = {"context_utterances": ["hi"], "response": "It's fine!"}
        pair = pair_from_record(record)
        assert pair.response == ("it", "'", "s", "fine", "!")

    def test_features_loaded(self):
        record = {"context_utterances": ["hi"], "response": "ok",
                  "context_image_features": [[0.1, 0.2], [0.3, 0.4]]}
        pair = pair_from_record(record)
        assert pair.context.image_features.shape == (2, 2)

    def test_missing_utterances(self):
        with pytest.raises(CorpusFormatError):
            pair_from_record({"response": "ok"})

    def test_blank_response(self):
        with pytest.raises(CorpusFormatError):
            pair_from_record({"context_utterances": ["hi"], "response": "  "})


def _pairs(text):
    return read_corpus(text)[1]


class TestLoadCorpus:
    GOOD = json.dumps({"context_utterances": ["hello there"],
                       "response": "hi"})

    def test_loads_lines_and_skips_blanks(self):
        text = self.GOOD + "\n\n" + self.GOOD + "\n"
        records, pairs = read_corpus(text)
        assert records == [json.loads(self.GOOD)] * 2 and len(pairs) == 2

    def test_error_carries_line_number(self):
        text = self.GOOD + "\nnot json\n"
        with pytest.raises(CorpusFormatError, match="line 2"):
            _pairs(text)

    def test_semantic_error_carries_line_number(self):
        text = self.GOOD + "\n" + json.dumps({"response": "x"}) + "\n"
        with pytest.raises(CorpusFormatError, match="line 2"):
            _pairs(text)

    @pytest.mark.parametrize("record, message", [
        ([1, 2], "record must be a JSON object"),
        ({"context_utterances": ["hi", 1], "response": "ok"},
         "dialog utterances must be strings"),
    ])
    def test_record_type_error_names_its_line(self, record, message):
        text = self.GOOD + "\n" + json.dumps(record) + "\n"
        with pytest.raises(CorpusFormatError, match=f"line 2: {message}"):
            _pairs(text)

    def test_save_load_round_trip(self, tmp_path):
        syn = make_synthetic_corpus(seed=1, n_entities=8, n_pairs=10)
        path = tmp_path / "corpus.jsonl"
        save_corpus_records(syn.records, path)
        loaded = _pairs(path.read_text())
        assert len(loaded) == len(syn.pairs)
        for a, b in zip(loaded, syn.pairs):
            assert a.context.text_tokens == b.context.text_tokens
            assert a.response == b.response
            assert np.array_equal(a.context.image_features,
                                  b.context.image_features)


class TestPairsFromRecords:
    GOOD = {"context_utterances": ["hello there"], "response": "hi"}

    def test_reads_one_pair_per_record(self):
        pairs = pairs_from_records([self.GOOD, self.GOOD])
        assert [p.response for p in pairs] == [("hi",), ("hi",)]
        assert pairs_from_records([]) == []

    @pytest.mark.parametrize("record, message", [
        ([1, 2], "record must be a JSON object"),
        ({"response": "x"}, "record needs non-empty context_utterances"),
        ({"context_utterances": ["hi", 1], "response": "ok"},
         "dialog utterances must be strings"),
    ])
    def test_error_names_the_record_index(self, record, message):
        with pytest.raises(CorpusFormatError,
                           match=rf"^corpus\[1\]: {message}$"):
            pairs_from_records([self.GOOD, record])

    def test_refuses_a_corpus_that_is_not_a_list(self):
        with pytest.raises(CorpusFormatError, match="must be a list"):
            pairs_from_records({"a": self.GOOD})


class TestMakeSyntheticCorpus:
    def test_exact_pair_count(self):
        assert len(make_synthetic_corpus(seed=0, n_entities=12,
                                         n_pairs=50).pairs) == 50

    def test_deterministic(self):
        a = make_synthetic_corpus(seed=4, n_entities=10, n_pairs=12)
        b = make_synthetic_corpus(seed=4, n_entities=10, n_pairs=12)
        assert a.records == b.records
        assert a.kb_doc == b.kb_doc

    def test_seed_changes_content(self):
        a = make_synthetic_corpus(seed=4, n_entities=10, n_pairs=12)
        b = make_synthetic_corpus(seed=5, n_entities=10, n_pairs=12)
        assert a.records != b.records

    def test_too_few_entities(self):
        with pytest.raises(ValueError):
            make_synthetic_corpus(seed=0, n_entities=3, n_pairs=4)

    def test_negative_pair_count_is_refused(self):
        with pytest.raises(ValueError, match="n_pairs must be >= 0, got -2"):
            make_synthetic_corpus(seed=0, n_pairs=-2)
        assert make_synthetic_corpus(seed=0, n_pairs=0).pairs == []

    def test_kb_doc_parses_to_same_kb(self):
        syn = make_synthetic_corpus(seed=2, n_entities=8, n_pairs=4)
        reparsed = kb_from_doc(json.loads(json.dumps(syn.kb_doc)))
        assert [e.name for e in reparsed] == [e.name for e in syn.kb]
        assert reparsed.feature_dim == syn.kb.feature_dim > 0
        for a, b in zip(reparsed, syn.kb):
            assert a.attributes == b.attributes
            assert a.image_features.shape == b.image_features.shape
            assert a.image_features.tobytes() == b.image_features.tobytes()

    def test_relation_answers_derivable_only_by_walk(self):
        """Every relation-family response must be readable off some 2-hop
        tuple of the graph, and never off the asked entity's own pairs."""
        syn = make_synthetic_corpus(seed=6, n_entities=16, n_pairs=40,
                                    with_images=False)
        graph = build_graph(syn.kb)
        cfg = AcquisitionConfig(max_hops=2)
        checked = 0
        for record in syn.records:
            response = record["response"]
            if not response.startswith("the place near "):
                continue
            checked += 1
            tokens = tokenize(response)
            answer = tokens[-1]
            # asked entity: between "near" and "is a" in the template
            name = " ".join(tokens[tokens.index("near") + 1:
                                   tokens.index("is")])
            tuples = walk_relations(graph, [name], cfg)
            matches = [t for t in tuples
                       if t.entries[1::2] == ("near", "domain")
                       and t.entries[-1] == answer]
            assert matches, (name, answer)
            own = next(e for e in syn.kb if e.name == name)
            assert all(p.value != answer for p in own.attributes
                       if p.attribute_type == "domain")
        assert checked > 0

    def test_attribute_answers_come_from_own_pairs(self):
        syn = make_synthetic_corpus(seed=6, n_entities=16, n_pairs=40,
                                    with_images=False)
        checked = 0
        for record in syn.records:
            tokens = tokenize(record["response"])
            if tokens[:1] != ["the"] or "of" not in tokens:
                continue
            if tokens[1] not in ("domain", "area", "rating"):
                continue
            checked += 1
            attr, answer = tokens[1], tokens[-1]
            name = " ".join(tokens[tokens.index("of") + 1:
                                   tokens.index("is")])
            ent = next(e for e in syn.kb if e.name == name)
            assert any(p.attribute_type == attr and p.value == answer
                       for p in ent.attributes)
        assert checked > 0

    def test_visual_records_identify_their_entity(self):
        syn = make_synthetic_corpus(seed=9, n_entities=8, n_pairs=16,
                                    with_images=True)
        checked = 0
        for record in syn.records:
            feats = record["context_image_features"]
            if not feats:
                continue
            checked += 1
            tokens = tokenize(record["response"])
            name = " ".join(tokens[2:4])
            ent = next(e for e in syn.kb if e.name == name)
            sim = entity_similarity(np.asarray(feats[0]), ent)
            assert sim > 0.9, (name, sim)
        assert checked > 0

    def test_no_images_flag(self):
        syn = make_synthetic_corpus(seed=0, n_entities=8, n_pairs=16,
                                    with_images=False)
        assert syn.kb.feature_dim == 0
        assert all(not r["context_image_features"] for r in syn.records)


class TestMakeRelationAblation:
    def test_counts_and_disjoint_entities(self):
        kb, train, held = make_relation_ablation(seed=0, n_train=6, n_held=4)
        assert (len(train), len(held)) == (6, 4)
        assert len(kb) == 2 * (6 + 4)

        def asked(pair):
            tokens = list(pair.context.text_tokens)
            return " ".join(tokens[tokens.index("at") + 1:
                                   tokens.index("what")])

        train_entities = {asked(p) for p in train}
        held_entities = {asked(p) for p in held}
        assert len(train_entities) == 6 and len(held_entities) == 4
        assert not train_entities & held_entities

    @pytest.mark.parametrize("n_train, n_held", [(-1, 4), (0, 4), (4, 0),
                                                  (4, -3)])
    def test_empty_side_is_refused(self, n_train, n_held):
        with pytest.raises(ValueError, match=f"n_train {n_train} and "
                                             f"n_held {n_held} must be >= 1"):
            make_relation_ablation(0, n_train=n_train, n_held=n_held)

    def test_all_relation_family(self):
        _, train, held = make_relation_ablation(seed=1, n_train=5, n_held=3)
        for pair in train + held:
            assert pair.response[:3] == ("the", "place", "near")

    def test_deterministic(self):
        a = make_relation_ablation(seed=2, n_train=4, n_held=2)
        b = make_relation_ablation(seed=2, n_train=4, n_held=2)
        for pa, pb in zip(a[1] + a[2], b[1] + b[2]):
            assert pa.context.text_tokens == pb.context.text_tokens
            assert pa.response == pb.response
