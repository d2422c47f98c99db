"""The triple-source protocol shared by every store implementation.

Higher layers (SPARQL, facets, hierarchies, graph views) are written against
this minimal protocol, so an in-memory :class:`~repro.rdf.graph.Graph`, a
dictionary-encoded :class:`~repro.store.memory.MemoryStore`, and a
disk-backed :class:`~repro.store.paged.PagedTripleStore` are interchangeable
— the survey's "dynamic, billion-object" requirement (Section 2) is then a
matter of choosing the store, not rewriting the exploration stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterator, Mapping, Protocol, runtime_checkable

from ..rdf.graph import TriplePattern
from ..rdf.terms import Predicate, Triple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    import numpy as np

    from .dictionary import TermDictionary

__all__ = [
    "TripleSource",
    "IdScanSource",
    "StoreStatistics",
    "StatisticsSnapshot",
    "as_id_scan_source",
    "compute_statistics",
    "decoded_matches",
    "encode_pattern",
    "permutation_prefix",
    "DEFAULT_BATCH_SIZE",
    "PERMUTATIONS",
]

#: Default number of id triples per scan batch. Sized so one batch of three
#: int64 columns stays comfortably inside L2 while amortizing per-batch
#: Python overhead across thousands of rows.
DEFAULT_BATCH_SIZE = 4096


@runtime_checkable
class TripleSource(Protocol):
    """Anything that can answer triple-pattern queries."""

    def triples(self, pattern: TriplePattern = (None, None, None)) -> Iterator[Triple]:
        """Yield every triple matching ``pattern`` (``None`` = wildcard)."""
        ...

    def count(self, pattern: TriplePattern = (None, None, None)) -> int:
        """Number of triples matching ``pattern``."""
        ...

    def __len__(self) -> int: ...


@runtime_checkable
class IdScanSource(Protocol):
    """Stores that can answer pattern queries over dictionary-encoded ids.

    This is the capability the vectorized execution engine
    (:mod:`repro.sparql.vectorized`) probes for: instead of pulling decoded
    :class:`~repro.rdf.terms.Triple` objects one at a time, it pulls
    ``(n, 3)`` int64 numpy arrays of id triples and decodes only at batch
    boundaries. Sources that cannot expose id runs (federation views,
    remote endpoints) simply don't implement it and execution falls back to
    the streaming iterator path — use :func:`as_id_scan_source` to probe.

    ``id_pattern`` follows ``TriplePattern`` shape with ids: ``None`` is a
    wildcard, an ``int`` is a bound dictionary id.
    """

    @property
    def dictionary(self) -> "TermDictionary": ...

    def match_id_batches(
        self,
        s: int | None,
        p: int | None,
        o: int | None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> Iterator["np.ndarray"]:
        """Yield matching id triples as ``(n, 3)`` int64 arrays.

        Batches stream: producing the first batch must not require
        materializing the full match set, so a ``LIMIT``-ed consumer
        touches a bounded number of batches.
        """
        ...

    def distinct_ids(
        self, s: int | None, p: int | None, o: int | None, position: int
    ) -> "np.ndarray":
        """Sorted unique ids at ``position`` (0=s, 1=p, 2=o) over matches.

        This is the sorted-run primitive leapfrog-style worst-case-optimal
        joins intersect; implementations should serve the common shapes
        (bound predicate and/or one bound endpoint) from their indexes.
        """
        ...


def as_id_scan_source(store: object) -> "IdScanSource | None":
    """Capability probe: the store itself if it can serve id scans.

    Checks for the full method surface plus a term dictionary rather than
    relying on ``isinstance`` protocol checks alone, so wrapper stores
    (federation, remote endpoints, test doubles) fall back cleanly by
    simply not exposing the attributes.
    """
    if (
        hasattr(store, "match_id_batches")
        and hasattr(store, "distinct_ids")
        and getattr(store, "dictionary", None) is not None
    ):
        return store  # type: ignore[return-value]
    return None


#: The sorted permutations id stores keep, as the (s, p, o) column each
#: key position reads: POS keys are ``(p, o, s)``, OSP keys ``(o, s, p)``.
PERMUTATIONS: Mapping[str, tuple[int, int, int]] = MappingProxyType({
    "spo": (0, 1, 2),
    "pos": (1, 2, 0),
    "osp": (2, 0, 1),
})


def encode_pattern(
    dictionary: "TermDictionary", pattern: TriplePattern
) -> tuple[int | None, int | None, int | None] | None:
    """Translate a term pattern into an id pattern.

    Returns ``None`` when a bound term is not in the dictionary — the
    answer is then provably empty without touching any index.
    """
    ids: list[int | None] = []
    for term in pattern:
        if term is None:
            ids.append(None)
        else:
            term_id = dictionary.lookup(term)
            if term_id is None:
                return None
            ids.append(term_id)
    return ids[0], ids[1], ids[2]


def permutation_prefix(
    s: int | None, p: int | None, o: int | None
) -> tuple[str, tuple[int, ...]]:
    """The permutation in which the bound ids form a key prefix, and that
    prefix: every one of the eight bound/free masks has one, so a pattern
    scan is always one contiguous key range."""
    if s is not None:
        if p is not None:
            return "spo", (s, p) if o is None else (s, p, o)
        if o is not None:
            return "osp", (o, s)
        return "spo", (s,)
    if p is not None:
        return "pos", (p,) if o is None else (p, o)
    if o is not None:
        return "osp", (o,)
    return "spo", ()


def decoded_matches(
    source: IdScanSource,
    pattern: TriplePattern,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> Iterator[Triple]:
    """``triples()`` on top of ``match_id_batches``: encode the pattern,
    scan id batches, decode one row at a time as the consumer pulls."""
    encoded = encode_pattern(source.dictionary, pattern)
    if encoded is None:
        return
    decode = source.dictionary.decode_triple
    for batch in source.match_id_batches(*encoded, batch_size):
        for ids in batch.tolist():
            yield decode(ids)


@dataclass(frozen=True)
class StatisticsSnapshot:
    """Precomputed store statistics for plan-time cardinality estimation.

    A snapshot is cheap to read (plain attribute access, no index scans), so
    the SPARQL optimizer can cost every candidate join order without issuing
    a single ``count()``/``triples()`` call against the store — the design
    the survey's Section 4 asks of interactive-speed engines.
    """

    triple_count: int
    distinct_subjects: int
    distinct_predicates: int
    distinct_objects: int
    predicate_cardinalities: Mapping[Predicate, int] = field(default_factory=dict)
    #: Distinct objects per predicate — the denominator for equality
    #: selectivity on ``?s <p> <o>`` shapes. Indexed stores fill it exactly
    #: from their POS index; the scan fallback estimates it with one HLL
    #: sketch per predicate (:mod:`repro.approx.sketch.hll`), so the figure
    #: may carry that sketch's ~2% relative error.
    predicate_distinct_objects: Mapping[Predicate, int] = field(default_factory=dict)

    def predicate_count(self, predicate: Predicate) -> int:
        """Triples with this predicate (0 if the predicate is unknown)."""
        return self.predicate_cardinalities.get(predicate, 0)

    def predicate_distinct_object_count(self, predicate: Predicate) -> int:
        """Distinct objects under this predicate (0 if unknown/unfilled)."""
        return self.predicate_distinct_objects.get(predicate, 0)

    @property
    def avg_subject_degree(self) -> float:
        return self.triple_count / self.distinct_subjects if self.distinct_subjects else 0.0

    @property
    def avg_object_degree(self) -> float:
        return self.triple_count / self.distinct_objects if self.distinct_objects else 0.0


@runtime_checkable
class StoreStatistics(Protocol):
    """Stores that can summarize themselves without per-query index scans."""

    def statistics(self) -> StatisticsSnapshot:
        """Return (possibly cached) statistics about the store's contents."""
        ...


#: Register width of the per-predicate HLL sketches ``compute_statistics``
#: uses for distinct-object counts: 2^10 registers = 1 KiB per predicate,
#: ~3.2% relative standard error — selectivity-estimation accuracy at a
#: bounded cost even for stores with thousands of predicates.
_DISTINCT_SKETCH_PRECISION = 10


def compute_statistics(source: TripleSource) -> StatisticsSnapshot:
    """Build a snapshot with one full scan (fallback for plain sources).

    Global distinct counts are exact (one set each); the *per-predicate*
    distinct-object counts are HLL estimates — exact per-predicate sets
    would cost memory proportional to the data, while one 1 KiB sketch per
    predicate keeps the scan's footprint bounded by the schema size.
    """
    from ..approx.sketch.hll import HllSketch, hash_term

    subjects: set = set()
    predicates: dict = {}
    objects: set = set()
    object_sketches: dict = {}
    total = 0
    for s, p, o in source.triples((None, None, None)):
        total += 1
        subjects.add(s)
        objects.add(o)
        predicates[p] = predicates.get(p, 0) + 1
        sketch = object_sketches.get(p)
        if sketch is None:
            sketch = object_sketches[p] = HllSketch(_DISTINCT_SKETCH_PRECISION)
        sketch.add_hash(hash_term(repr(o)))
    return StatisticsSnapshot(
        triple_count=total,
        distinct_subjects=len(subjects),
        distinct_predicates=len(predicates),
        distinct_objects=len(objects),
        predicate_cardinalities=MappingProxyType(predicates),
        predicate_distinct_objects=MappingProxyType(
            {
                p: int(round(sketch.cardinality()))
                for p, sketch in object_sketches.items()
            }
        ),
    )
