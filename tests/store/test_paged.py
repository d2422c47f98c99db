"""Unit tests for the disk-backed paged triple store and its buffer pool."""

import pytest

from repro.rdf import Graph, IRI, Literal, RDF, Triple
from repro.store import LRUBufferPool, MemoryStore, PagedTripleStore

EX = "http://example.org/"


def ex(name: str) -> IRI:
    return IRI(EX + name)


def make_triples(n: int) -> list[Triple]:
    triples = []
    for i in range(n):
        subject = ex(f"node{i}")
        triples.append(Triple(subject, RDF.type, ex(f"Class{i % 5}")))
        triples.append(Triple(subject, ex("value"), Literal(i)))
        triples.append(Triple(subject, ex("next"), ex(f"node{(i + 1) % n}")))
    return triples


@pytest.fixture
def paged(tmp_path):
    triples = make_triples(100)
    store = PagedTripleStore.build(triples, str(tmp_path / "db"), page_size=256)
    yield store, triples
    store.close()


class TestBuildAndOpen:
    def test_size(self, paged):
        store, triples = paged
        assert len(store) == len(set(triples))

    def test_duplicates_collapsed(self, tmp_path):
        t = Triple(ex("a"), ex("p"), ex("b"))
        store = PagedTripleStore.build([t, t, t], str(tmp_path / "db"))
        assert len(store) == 1
        store.close()

    def test_reopen_round_trip(self, paged, tmp_path):
        store, triples = paged
        reopened = PagedTripleStore.open(str(tmp_path / "db"))
        assert set(reopened) == set(triples)
        reopened.close()

    def test_rejects_tiny_pages(self, tmp_path):
        with pytest.raises(ValueError):
            PagedTripleStore.build([], str(tmp_path / "db"), page_size=8)

    def test_empty_store(self, tmp_path):
        store = PagedTripleStore.build([], str(tmp_path / "db"))
        assert len(store) == 0
        assert list(store.triples()) == []
        store.close()

    def test_context_manager_closes(self, tmp_path):
        with PagedTripleStore.build(make_triples(5), str(tmp_path / "db")) as store:
            assert len(store) == 15
        assert not store._files

    def test_disk_bytes_positive(self, paged):
        store, _ = paged
        assert store.disk_bytes > 0


class TestPatternQueries:
    def test_matches_graph_on_all_patterns(self, paged):
        store, triples = paged
        graph = Graph(triples)
        patterns = [
            (None, None, None),
            (ex("node3"), None, None),
            (None, RDF.type, None),
            (None, None, ex("Class2")),
            (ex("node3"), ex("value"), None),
            (None, ex("next"), ex("node1")),
            (ex("node3"), None, ex("node4")),
            (ex("node3"), ex("value"), Literal(3)),
        ]
        for pattern in patterns:
            assert set(store.triples(pattern)) == set(graph.triples(pattern)), pattern

    def test_unknown_term_is_empty(self, paged):
        store, _ = paged
        assert list(store.triples((ex("ghost"), None, None))) == []

    def test_count(self, paged):
        store, _ = paged
        assert store.count((None, RDF.type, None)) == 100

    def test_equivalent_to_memory_store(self, tmp_path):
        triples = make_triples(40)
        memory = MemoryStore(triples)
        disk = PagedTripleStore.build(triples, str(tmp_path / "db"), page_size=128)
        assert set(memory.triples((None, ex("value"), None))) == set(
            disk.triples((None, ex("value"), None))
        )
        disk.close()


class TestLazyScan:
    def test_first_row_reads_one_page(self, paged):
        store, _ = paged
        assert len(store) > store.triples_per_page  # a multi-page scan
        assert store.pool.stats.misses == 0
        next(iter(store.triples()))
        assert store.pool.stats.misses == 1


class TestBufferPool:
    def test_lru_eviction(self):
        pool = LRUBufferPool(2)
        pool.put(("spo", 0), b"a")
        pool.put(("spo", 1), b"b")
        pool.put(("spo", 2), b"c")
        assert pool.get(("spo", 0)) is None
        assert pool.get(("spo", 2)) == b"c"
        assert pool.stats.evictions == 1

    def test_get_refreshes_recency(self):
        pool = LRUBufferPool(2)
        pool.put(("spo", 0), b"a")
        pool.put(("spo", 1), b"b")
        pool.get(("spo", 0))
        pool.put(("spo", 2), b"c")
        assert pool.get(("spo", 0)) == b"a"
        assert pool.get(("spo", 1)) is None

    def test_hit_rate(self):
        pool = LRUBufferPool(4)
        pool.put(("spo", 0), b"a")
        pool.get(("spo", 0))
        pool.get(("spo", 1))
        assert pool.stats.hit_rate == 0.5

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LRUBufferPool(0)

    def test_resident_bytes(self):
        pool = LRUBufferPool(4)
        pool.put(("spo", 0), b"abcd")
        pool.put(("pos", 1), b"ef")
        assert pool.resident_bytes == 6


class TestMemoryBoundedness:
    def test_resident_bytes_bounded_by_pool(self, tmp_path):
        triples = make_triples(500)
        store = PagedTripleStore.build(
            triples, str(tmp_path / "db"), page_size=256, cache_pages=4
        )
        for _ in store.triples((None, RDF.type, None)):
            pass
        assert store.resident_bytes <= 4 * 256
        store.close()

    def test_repeated_point_queries_hit_cache(self, tmp_path):
        triples = make_triples(200)
        store = PagedTripleStore.build(
            triples, str(tmp_path / "db"), page_size=512, cache_pages=8
        )
        for _ in range(10):
            list(store.triples((ex("node7"), None, None)))
        assert store.pool.stats.hit_rate > 0.5
        store.close()
