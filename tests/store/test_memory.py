"""Unit tests for the dictionary-encoded MemoryStore."""

import pytest

from repro.rdf import Graph, IRI, Literal, RDF, Triple
from repro.store import MemoryStore, TripleSource

EX = "http://example.org/"


def ex(name: str) -> IRI:
    return IRI(EX + name)


@pytest.fixture
def store() -> MemoryStore:
    s = MemoryStore()
    s.add(Triple(ex("alice"), RDF.type, ex("Person")))
    s.add(Triple(ex("bob"), RDF.type, ex("Person")))
    s.add(Triple(ex("alice"), ex("knows"), ex("bob")))
    s.add(Triple(ex("alice"), ex("age"), Literal(30)))
    s.add(Triple(ex("bob"), ex("age"), Literal(25)))
    return s


class TestBasics:
    def test_satisfies_triple_source_protocol(self, store):
        assert isinstance(store, TripleSource)

    def test_len(self, store):
        assert len(store) == 5

    def test_duplicate_insert_ignored(self, store):
        assert not store.add(Triple(ex("alice"), RDF.type, ex("Person")))
        assert len(store) == 5

    def test_add_all_counts(self):
        s = MemoryStore()
        t = Triple(ex("a"), ex("p"), ex("b"))
        assert s.add_all([t, t, Triple(ex("c"), ex("p"), ex("d"))]) == 2

    def test_contains(self, store):
        assert Triple(ex("alice"), ex("knows"), ex("bob")) in store
        assert Triple(ex("bob"), ex("knows"), ex("alice")) not in store

    def test_iteration_yields_all(self, store):
        assert len(set(store)) == 5


class TestPatterns:
    def test_unknown_term_short_circuits(self, store):
        assert list(store.triples((ex("nobody"), None, None))) == []
        assert store.count((None, None, Literal("never-seen"))) == 0

    def test_subject_bound(self, store):
        assert store.count((ex("alice"), None, None)) == 3

    def test_predicate_bound(self, store):
        objs = {t.object for t in store.triples((None, ex("age"), None))}
        assert objs == {Literal(30), Literal(25)}

    def test_object_bound(self, store):
        subjects = {t.subject for t in store.triples((None, None, ex("Person")))}
        assert subjects == {ex("alice"), ex("bob")}

    def test_fully_bound(self, store):
        matches = list(store.triples((ex("alice"), ex("age"), Literal(30))))
        assert matches == [Triple(ex("alice"), ex("age"), Literal(30))]

    def test_counts_agree_with_materialized(self, store):
        patterns = [
            (None, None, None),
            (ex("alice"), None, None),
            (None, RDF.type, None),
            (None, None, ex("Person")),
            (ex("alice"), ex("age"), None),
            (None, ex("age"), Literal(25)),
        ]
        for pattern in patterns:
            assert store.count(pattern) == len(list(store.triples(pattern)))

    def test_remove(self, store):
        assert store.remove((None, ex("age"), None)) == 2
        assert len(store) == 3
        assert store.count((None, ex("age"), None)) == 0

    def test_remove_unknown_term_removes_nothing(self, store):
        assert store.remove((ex("nope"), None, None)) == 0
        assert store.remove((None, ex("age"), ex("nope"))) == 0
        assert len(store) == 5
        assert Graph(store.triples()).remove((ex("nope"), None, None)) == 0


class TestEquivalenceWithGraph:
    def test_same_answers_as_graph(self):
        triples = [
            Triple(ex(f"s{i % 7}"), ex(f"p{i % 3}"), Literal(i % 5)) for i in range(60)
        ]
        graph = Graph(triples)
        store = MemoryStore(triples)
        assert len(graph) == len(store)
        patterns = [
            (None, None, None),
            (ex("s1"), None, None),
            (None, ex("p2"), None),
            (None, None, Literal(3)),
            (ex("s2"), ex("p0"), None),
        ]
        for pattern in patterns:
            assert set(graph.triples(pattern)) == set(store.triples(pattern))


class TestStatistics:
    def test_predicate_cardinality(self, store):
        pid = store.dictionary.lookup(ex("age"))
        assert store.predicate_cardinality(pid) == 2

    def test_id_triples_count(self, store):
        assert len(list(store.id_triples())) == 5
