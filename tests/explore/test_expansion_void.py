"""Unit tests for neighborhood expansion and VoID statistics."""

import pytest

from repro.explore import NeighborhoodExplorer, compute_statistics
from repro.rdf import Graph, IRI, RDF, VOID, parse_turtle
from repro.sparql import CachedQueryEngine
from repro.workload import lod_dataset, social_graph

EX = "http://example.org/"

DATA = """
@prefix ex: <http://example.org/> .
ex:a ex:knows ex:b , ex:c ; ex:age 30 .
ex:b ex:knows ex:d .
ex:d ex:knows ex:e .
ex:f ex:knows ex:a .
"""


def ex(name: str) -> IRI:
    return IRI(EX + name)


@pytest.fixture
def store():
    return Graph(parse_turtle(DATA))


class TestNeighborhoodExplorer:
    def test_start_brings_in_neighbors(self, store):
        explorer = NeighborhoodExplorer(store)
        view = explorer.start(ex("a"))
        assert ex("b") in view and ex("c") in view
        assert ex("f") in view  # incoming links too
        assert ex("e") not in view  # two hops away

    def test_literals_become_attributes(self, store):
        explorer = NeighborhoodExplorer(store)
        view = explorer.start(ex("a"))
        assert view.attributes(ex("a")) == {EX + "age": 30}

    def test_expand_grows_view(self, store):
        explorer = NeighborhoodExplorer(store)
        explorer.start(ex("a"))
        view = explorer.expand(ex("b"))
        assert ex("d") in view

    def test_reexpand_is_noop(self, store):
        explorer = NeighborhoodExplorer(store)
        explorer.start(ex("a"))
        fetched = explorer.triples_fetched
        explorer.expand(ex("a"))
        assert explorer.triples_fetched == fetched

    def test_frontier_lists_unexpanded(self, store):
        explorer = NeighborhoodExplorer(store)
        explorer.start(ex("a"))
        assert ex("b") in explorer.frontier
        explorer.expand(ex("b"))
        assert ex("b") not in explorer.frontier

    def test_collapse_removes_exclusive_leaves(self, store):
        explorer = NeighborhoodExplorer(store)
        explorer.start(ex("a"))
        explorer.expand(ex("b"))
        view = explorer.collapse(ex("b"))
        assert ex("d") not in view  # only reachable via b's expansion
        assert ex("c") in view  # still anchored by a

    def test_max_neighbors_cap(self):
        hub_triples = parse_turtle(
            "@prefix ex: <http://example.org/> .\n"
            + "\n".join(f"ex:hub ex:p ex:n{i} ." for i in range(30))
        )
        explorer = NeighborhoodExplorer(Graph(hub_triples), max_neighbors=10)
        view = explorer.start(ex("hub"))
        assert view.node_count == 11  # hub + 10 capped neighbors

    def test_fetch_counter_bounded_by_neighborhood(self):
        big = Graph(social_graph(200, seed=1))
        explorer = NeighborhoodExplorer(big)
        explorer.start(ex("data/person0"))
        assert explorer.triples_fetched < len(big) / 2

    def test_validation(self, store):
        with pytest.raises(ValueError):
            NeighborhoodExplorer(store, max_neighbors=0)


class TestVoidStatistics:
    def test_core_counts(self, store):
        stats = compute_statistics(store)
        assert stats.triples == len(store)
        assert stats.distinct_subjects == 4  # a, b, d, f (c/e only objects)
        assert stats.entities == 4
        assert stats.properties == 2  # knows, age
        assert stats.literal_count == 1

    def test_class_partition(self):
        stats = compute_statistics(Graph(lod_dataset(20, seed=1)))
        city = IRI(EX + "data/City")
        assert stats.class_partition[city] == 20
        assert stats.classes >= 1

    def test_to_rdf_round_trips_counts(self, store):
        stats = compute_statistics(store)
        described = stats.to_rdf(IRI(EX + "dataset"))
        assert (IRI(EX + "dataset"), RDF.type, VOID.Dataset) in described
        triple_count = described.value(IRI(EX + "dataset"), VOID.triples)
        assert triple_count.value == stats.triples

    def test_summary_text(self):
        stats = compute_statistics(Graph(lod_dataset(15, seed=2)))
        text = stats.summary_text()
        assert "triples:" in text and "top classes:" in text

    def test_empty_store(self):
        stats = compute_statistics(Graph())
        assert stats.triples == 0
        assert stats.summary_text()


class TestCachedQueryEngine:
    QUERY = "PREFIX ex: <http://example.org/> SELECT ?x WHERE { ex:a ex:knows ?x }"

    def test_second_query_hits_cache(self, store):
        engine = CachedQueryEngine(store)
        first = engine.query(self.QUERY)
        second = engine.query(self.QUERY)
        # A hit returns a thin wrapper sharing the cached rows, with the
        # plan tagged as served-from-cache.
        assert second.rows is first.rows
        assert not first.plan.cached
        assert second.plan.cached
        assert engine.hit_rate == 0.5

    def test_invalidate_refetches(self, store):
        engine = CachedQueryEngine(store)
        first = engine.query(self.QUERY)
        engine.invalidate()
        second = engine.query(self.QUERY)
        assert first is not second
        assert sorted(map(str, first.column("x"))) == sorted(map(str, second.column("x")))

    def test_capacity_bound(self, store):
        engine = CachedQueryEngine(store, capacity=2)
        for i in range(5):
            engine.query(self.QUERY + f" LIMIT {i + 1}")
        assert len(engine.cache) == 2

    def test_parsed_and_text_forms_share_one_entry(self, store):
        from repro.sparql import parse_query

        engine = CachedQueryEngine(store)
        first = engine.query(parse_query(self.QUERY))
        second = engine.query(self.QUERY)
        assert len(engine.cache) == 1
        assert engine.stats.misses == 1 and engine.stats.hits == 1
        assert second.rows is first.rows
