"""Seeded dataset and request-stream generator for the repo benchmark.

Everything here is plain Python and imports nothing from ``repro``: the
oracle (``oracle.py``) answers from these records, so a wrong engine can
never agree with itself.

The dataset is a typed-entity graph. Entity ``i`` belongs to class
``i % CLASSES`` (equal class sizes, so a query's cost does not depend on
which class the seed picks) and has six triples: its type, a label, two
integer properties, one category and one link to another entity.

Requests come in four kinds, mixed 40/20/20/20 by shuffled blocks of five
so every seed sees the same mix:

* ``lookup`` — ``<e> ?p ?o``, one entity's triples;
* ``list``   — a class with a filter on ``num0`` and a ``LIMIT``;
* ``star``   — class, category and a filter on ``num1``, with a ``LIMIT``;
* ``facet``  — per-class category counts with ``GROUP BY``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

EX = "http://example.org/bench/"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RDFS_LABEL = "http://www.w3.org/2000/01/rdf-schema#label"
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"
NUM0 = EX + "num0"
NUM1 = EX + "num1"
CAT = EX + "cat0"
LINK = EX + "link"

CLASSES = 10
CATEGORIES = 8
NUM_RANGE = 1000
LIMITS = (10, 25, 50)
KIND_BLOCK = ("lookup", "lookup", "list", "star", "facet")


def entity_iri(index: int) -> str:
    return f"{EX}e{index}"


def class_iri(cls: int) -> str:
    return f"{EX}C{cls}"


def category_iri(cat: int) -> str:
    return f"{EX}cat{cat}"


@dataclass(frozen=True)
class Entity:
    index: int
    num0: int
    num1: int
    cat: int
    link: int

    @property
    def cls(self) -> int:
        return self.index % CLASSES

    def triples(self) -> list[tuple[str, str, tuple[str, str, str | None]]]:
        """(subject, predicate, object) with the object as a results-JSON
        key: ``(type, value, datatype)``."""
        subject = entity_iri(self.index)
        return [
            (subject, RDF_TYPE, ("uri", class_iri(self.cls), None)),
            (subject, RDFS_LABEL, ("literal", f"Entity {self.index}", None)),
            (subject, NUM0, ("literal", str(self.num0), XSD_INTEGER)),
            (subject, NUM1, ("literal", str(self.num1), XSD_INTEGER)),
            (subject, CAT, ("uri", category_iri(self.cat), None)),
            (subject, LINK, ("uri", entity_iri(self.link), None)),
        ]


def make_entities(rng: random.Random, start: int, count: int) -> list[Entity]:
    """Entities ``start .. start+count-1``; links point at earlier or
    same-batch entities only, so every link target exists."""
    return [
        Entity(
            index=index,
            num0=rng.randrange(NUM_RANGE),
            num1=rng.randrange(NUM_RANGE),
            cat=rng.randrange(CATEGORIES),
            link=rng.randrange(start + count),
        )
        for index in range(start, start + count)
    ]


def _nt_object(obj: tuple[str, str, str | None]) -> str:
    kind, value, datatype = obj
    if kind == "uri":
        return f"<{value}>"
    if datatype is None:
        return f'"{value}"'
    return f'"{value}"^^<{datatype}>'


def write_ntriples(entities: list[Entity], path: str) -> int:
    """Write the entities as N-Triples; returns the triple count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for entity in entities:
            lines = [
                f"<{s}> <{p}> {_nt_object(o)} .\n"
                for s, p, o in entity.triples()
            ]
            handle.writelines(lines)
            count += len(lines)
    return count


# --------------------------------------------------------------------------- #
# Requests
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Request:
    """One read: its kind, SPARQL text and the constants the oracle needs.

    ``params`` is ``(entity,)`` for a lookup, ``(cls, threshold, limit)``
    for a list, ``(cls, cat, threshold, limit)`` for a star and
    ``(cls, threshold)`` for a facet.
    """

    kind: str
    text: str
    params: tuple[int, ...]


def lookup(entity: int) -> Request:
    return Request(
        "lookup",
        f"SELECT ?p ?o WHERE {{ <{entity_iri(entity)}> ?p ?o }}",
        (entity,),
    )


def list_query(cls: int, threshold: int, limit: int) -> Request:
    return Request(
        "list",
        f"SELECT ?s ?v WHERE {{ ?s a <{class_iri(cls)}> . "
        f"?s <{NUM0}> ?v . FILTER(?v > {threshold}) }} LIMIT {limit}",
        (cls, threshold, limit),
    )


def star(cls: int, cat: int, threshold: int, limit: int) -> Request:
    return Request(
        "star",
        f"SELECT ?s ?n WHERE {{ ?s a <{class_iri(cls)}> . "
        f"?s <{CAT}> <{category_iri(cat)}> . ?s <{NUM1}> ?n . "
        f"FILTER(?n < {threshold}) }} LIMIT {limit}",
        (cls, cat, threshold, limit),
    )


def facet(cls: int, threshold: int) -> Request:
    return Request(
        "facet",
        f"SELECT ?c (COUNT(?s) AS ?n) WHERE {{ ?s a <{class_iri(cls)}> . "
        f"?s <{CAT}> ?c . ?s <{NUM0}> ?v . FILTER(?v >= {threshold}) }} "
        f"GROUP BY ?c",
        (cls, threshold),
    )


class KindSchedule:
    """40/20/20/20 kinds, one shuffled block of five at a time."""

    def __init__(self, rng: random.Random, block=KIND_BLOCK) -> None:
        self._rng = rng
        self._block = list(block)
        self._pending: list[str] = []

    def next(self) -> str:
        if not self._pending:
            self._pending = list(self._block)
            self._rng.shuffle(self._pending)
        return self._pending.pop()


class UniqueStream:
    """``browse``: an endless stream in which no query text repeats.

    Lookups walk a seeded permutation of the first ``population``
    entities; the other kinds draw uniform constants and redraw on a
    repeat, so no two requests share a result-cache key.
    """

    def __init__(self, seed: int, population: int,
                 block=KIND_BLOCK) -> None:
        self._rng = random.Random(seed)
        self._kinds = KindSchedule(self._rng, block)
        self._entities = list(range(population))
        self._rng.shuffle(self._entities)
        self._seen: set[str] = set()

    def next(self) -> Request:
        kind = self._kinds.next()
        if kind == "lookup":
            if not self._entities:
                raise RuntimeError("lookup permutation exhausted")
            request = lookup(self._entities.pop())
        else:
            for _ in range(1000):
                request = self._draw(kind)
                if request.text not in self._seen:
                    break
            else:
                raise RuntimeError(f"no unused {kind} constants left")
        if request.text in self._seen:
            raise RuntimeError(f"repeated text: {request.text}")
        self._seen.add(request.text)
        return request

    def _draw(self, kind: str) -> Request:
        rng = self._rng
        cls = rng.randrange(CLASSES)
        threshold = rng.randrange(NUM_RANGE)
        if kind == "list":
            return list_query(cls, threshold, rng.choice(LIMITS))
        if kind == "star":
            return star(cls, rng.randrange(CATEGORIES), threshold,
                        rng.choice(LIMITS))
        return facet(cls, threshold)


POOL_SIZES = {"lookup": 26, "list": 13, "star": 13, "facet": 12}
ZIPF_S = 1.0


class ZipfPool:
    """``revisit``: texts drawn Zipf-skewed from a fixed pool of 64.

    The kind comes from the same 40/20/20/20 schedule; within a kind,
    rank ``r`` is drawn with weight ``1 / (r+1)^s``. The seed picks the
    classes, categories and entities; the filter constants depend on the
    rank only, so the cost of the hot texts is the same for every seed.
    """

    def __init__(self, seed: int, population: int) -> None:
        self._rng = random.Random(seed)
        self._kinds = KindSchedule(self._rng)
        rng = random.Random(seed * 7919 + 1)
        self.pool: dict[str, list[Request]] = {}
        entities = rng.sample(range(population), POOL_SIZES["lookup"])
        self.pool["lookup"] = [lookup(entity) for entity in entities]
        for kind in ("list", "star", "facet"):
            size = POOL_SIZES[kind]
            texts = []
            for rank in range(size):
                threshold = (NUM_RANGE * (2 * rank + 1)) // (2 * size)
                cls = rng.randrange(CLASSES)
                if kind == "list":
                    texts.append(list_query(cls, threshold,
                                            LIMITS[rank % len(LIMITS)]))
                elif kind == "star":
                    texts.append(star(cls, rng.randrange(CATEGORIES),
                                      NUM_RANGE - threshold,
                                      LIMITS[rank % len(LIMITS)]))
                else:
                    texts.append(facet(cls, threshold))
            self.pool[kind] = texts
        self._weights = {
            kind: _cumulative([1.0 / (rank + 1) ** ZIPF_S
                               for rank in range(len(texts))])
            for kind, texts in self.pool.items()
        }

    def requests(self) -> list[Request]:
        return [request for texts in self.pool.values() for request in texts]

    def next(self) -> Request:
        kind = self._kinds.next()
        return self._rng.choices(self.pool[kind],
                                 cum_weights=self._weights[kind])[0]


def _cumulative(weights: list[float]) -> list[float]:
    total, out = 0.0, []
    for weight in weights:
        total += weight
        out.append(total)
    return out
