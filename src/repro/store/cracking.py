"""Adaptive indexing (database cracking) for exploration workloads.

Section 2 of the survey notes that the dynamic setting "prevents a
preprocessing phase (e.g., traditional indexing)" and points to adaptive
indexing [67] as used for interactive exploration of big data series [144]:
instead of sorting a column up front, the store *cracks* it incrementally —
every range query partitions exactly the pieces it touches, so the column
converges toward sorted order along the user's exploration path and each
query pays only for the data it reads.

:class:`CrackedColumn` implements classic two-sided cracking over a numeric
column. Two reference strategies are provided for the C8 benchmark:
:class:`FullSortColumn` (pay everything up front) and :class:`ScanColumn`
(pay a full scan on every query).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..obs import OBS
from ..rdf.graph import TriplePattern
from ..rdf.terms import Triple
from .base import (
    DEFAULT_BATCH_SIZE,
    PERMUTATIONS,
    StatisticsSnapshot,
    decoded_matches,
    encode_pattern,
    permutation_prefix,
)
from .dictionary import TermDictionary

__all__ = ["CrackedColumn", "CrackingTripleStore", "FullSortColumn", "ScanColumn"]


class CrackedColumn:
    """A numeric column indexed adaptively by the queries themselves.

    The column keeps a permuted copy of the input values plus a sorted list
    of *crack points* ``(pivot, position)`` with the invariant::

        values[:position] <  pivot  <=  values[position:]        (*)

    restricted to the piece each pivot was cracked in; globally the pieces
    between consecutive crack positions are value-disjoint and ordered.

    ``range_query(lo, hi)`` cracks on both bounds and then answers from the
    contiguous qualifying slice. ``work_counter`` accumulates the number of
    elements partitioned, the cost driver compared by the C8 bench.
    """

    def __init__(self, values: Sequence[float] | np.ndarray) -> None:
        self._values = np.asarray(values, dtype=np.float64).copy()
        # Crack index: parallel sorted lists of pivots and their positions.
        self._pivots: list[float] = []
        self._positions: list[int] = []
        self.work_counter = 0
        self.query_counter = 0

    def __len__(self) -> int:
        return len(self._values)

    @property
    def values(self) -> np.ndarray:
        """The (progressively more sorted) physical column."""
        return self._values

    @property
    def piece_count(self) -> int:
        """Number of value-disjoint pieces the column is cracked into."""
        return len(self._pivots) + 1

    def _piece_bounds(self, pivot: float) -> tuple[int, int]:
        """The [start, end) physical range of the piece containing ``pivot``."""
        index = bisect_right(self._pivots, pivot)
        start = self._positions[index - 1] if index > 0 else 0
        end = self._positions[index] if index < len(self._positions) else len(self._values)
        return start, end

    def _crack(self, pivot: float) -> int:
        """Partition so that (*) holds for ``pivot``; returns its position."""
        existing = bisect_left(self._pivots, pivot)
        if existing < len(self._pivots) and self._pivots[existing] == pivot:
            return self._positions[existing]
        start, end = self._piece_bounds(pivot)
        piece = self._values[start:end]
        mask = piece < pivot
        split = start + int(mask.sum())
        if 0 < len(piece):
            self._values[start:end] = np.concatenate((piece[mask], piece[~mask]))
            self.work_counter += len(piece)
            if OBS.enabled:
                OBS.metrics.counter("store.crack.operations").inc()
                OBS.metrics.histogram(
                    "store.crack.piece_elements",
                    buckets=(8, 64, 512, 4_096, 32_768, 262_144, 2_097_152),
                ).record(len(piece))
        insort(self._pivots, pivot)
        self._positions.insert(bisect_left(self._pivots, pivot), split)
        return split

    def range_query(self, lo: float, hi: float) -> np.ndarray:
        """All values ``v`` with ``lo <= v < hi`` (a contiguous slice view)."""
        if hi < lo:
            raise ValueError("range_query requires lo <= hi")
        self.query_counter += 1
        if not OBS.enabled:
            start = self._crack(lo)
            end = self._crack(hi)
            return self._values[start:end]
        with OBS.tracer.span("store.crack.range_query", lo=lo, hi=hi) as span:
            work_before = self.work_counter
            start = self._crack(lo)
            end = self._crack(hi)
            span.set_attribute("partitioned", self.work_counter - work_before)
            span.set_attribute("pieces", self.piece_count)
        return self._values[start:end]

    def range_count(self, lo: float, hi: float) -> int:
        return len(self.range_query(lo, hi))

    def range_sum(self, lo: float, hi: float) -> float:
        return float(self.range_query(lo, hi).sum())

    def check_invariants(self) -> None:
        """Verify every crack point's partition property (for tests)."""
        for pivot, position in zip(self._pivots, self._positions):
            left = self._values[:position]
            right = self._values[position:]
            if len(left) and left.max() >= pivot:
                raise AssertionError(f"values left of pivot {pivot} not all < pivot")
            if len(right) and right.min() < pivot:
                raise AssertionError(f"values right of pivot {pivot} not all >= pivot")
        if self._positions != sorted(self._positions):
            raise AssertionError("crack positions not monotone")


class CrackingTripleStore:
    """Adaptive columnar triple store over dictionary-encoded id arrays.

    The cracking idea applied at store granularity (survey §2: the dynamic
    setting "prevents a preprocessing phase"): triples live in one flat
    ``(n, 3)`` int64 array, and the sorted orders the three access paths
    need (SPO, POS, OSP) are built *lazily*, each the first time a query
    actually touches that path — a workload that only ever scans by
    predicate never pays for the other two sorts. ``add_all`` appends and
    invalidates, so load → explore → load cycles re-pay only the orders
    the next exploration phase uses.

    Implements both the :class:`~repro.store.base.TripleSource` protocol
    (decoded triples) and the :class:`~repro.store.base.IdScanSource`
    capability (sorted id runs for the vectorized engine), which makes it
    the cheapest substrate for scan+join-heavy workloads: every pattern
    scan is a binary search plus a contiguous slice of an int64 matrix.
    """

    def __init__(self, triples: Iterable[Triple] | None = None) -> None:
        self.dictionary = TermDictionary()
        self._ids = np.empty((0, 3), dtype=np.int64)
        self._id_set: set[tuple[int, int, int]] = set()  # O(1) dedup on add
        self._pending: list[tuple[int, int, int]] = []
        self._sorted: dict[str, np.ndarray] = {}  # access path -> sorted rows
        self.sorts_paid = 0  # how many access-path orders were ever built
        self._stats: StatisticsSnapshot | None = None
        if triples is not None:
            self.add_all(triples)

    # -- mutation ----------------------------------------------------------

    def add(self, triple: Triple) -> bool:
        """Buffer one triple; returns True if the store changed."""
        ids = self.dictionary.encode_triple(triple)
        if ids in self._id_set:
            return False
        self._id_set.add(ids)
        self._pending.append(ids)
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        return sum(1 for t in triples if self.add(t))

    def _flush(self) -> None:
        """Fold buffered rows into the id matrix, dropping stale orders."""
        if not self._pending:
            return
        fresh = np.array(self._pending, dtype=np.int64)
        self._ids = np.concatenate([self._ids, fresh]) if len(self._ids) else fresh
        self._pending.clear()
        self._sorted.clear()
        self._stats = None

    # -- sorted-order management -------------------------------------------

    def _sorted_rows(self, perm_name: str) -> np.ndarray:
        """The id matrix sorted by the access path's key order (cached)."""
        self._flush()
        rows = self._sorted.get(perm_name)
        if rows is None:
            c0, c1, c2 = PERMUTATIONS[perm_name]
            # np.lexsort sorts by the *last* key first.
            order = np.lexsort((self._ids[:, c2], self._ids[:, c1], self._ids[:, c0]))
            rows = np.ascontiguousarray(self._ids[order])
            self._sorted[perm_name] = rows
            self.sorts_paid += 1
            if OBS.enabled:
                OBS.metrics.counter(
                    "store.crack.path_sorts", permutation=perm_name
                ).inc()
        return rows

    def _prefix_slice(
        self, s: int | None, p: int | None, o: int | None
    ) -> tuple[np.ndarray, int, int]:
        """Rows sorted by the permutation in which the bound ids form a key
        prefix, plus the [lo, hi) range matching that prefix."""
        perm_name, prefix = permutation_prefix(s, p, o)
        rows = self._sorted_rows(perm_name)
        columns = PERMUTATIONS[perm_name]
        lo, hi = 0, len(rows)
        for depth, bound in enumerate(prefix):
            column = rows[lo:hi, columns[depth]]
            lo, hi = (
                lo + int(np.searchsorted(column, bound, side="left")),
                lo + int(np.searchsorted(column, bound, side="right")),
            )
            if lo >= hi:
                break
        return rows, lo, hi

    # -- IdScanSource capability -------------------------------------------

    def match_id_batches(
        self,
        s: int | None,
        p: int | None,
        o: int | None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> Iterator[np.ndarray]:
        self._flush()
        if not len(self._ids):
            return
        rows, lo, hi = self._prefix_slice(s, p, o)
        for start in range(lo, hi, batch_size):
            yield rows[start : min(start + batch_size, hi)]

    def distinct_ids(
        self, s: int | None, p: int | None, o: int | None, position: int
    ) -> np.ndarray:
        self._flush()
        if not len(self._ids):
            return np.empty(0, dtype=np.int64)
        rows, lo, hi = self._prefix_slice(s, p, o)
        if lo >= hi:
            return np.empty(0, dtype=np.int64)
        column = rows[lo:hi, position]
        # If `position` is the next key component after the bound prefix the
        # slice is already sorted; np.unique sorts anyway, cheaply for runs.
        return np.unique(column)

    # -- TripleSource protocol ---------------------------------------------

    def triples(self, pattern: TriplePattern = (None, None, None)) -> Iterator[Triple]:
        return decoded_matches(self, pattern)

    def count(self, pattern: TriplePattern = (None, None, None)) -> int:
        self._flush()
        if pattern == (None, None, None):
            return len(self._ids)
        encoded = encode_pattern(self.dictionary, pattern)
        if encoded is None:
            return 0
        # Every bound combination maps to a permutation where the bound ids
        # form a contiguous prefix, so counting is two binary searches.
        _, lo, hi = self._prefix_slice(*encoded)
        return hi - lo

    def __len__(self) -> int:
        self._flush()
        return len(self._ids)

    def __iter__(self) -> Iterator[Triple]:
        return self.triples()

    # -- statistics ---------------------------------------------------------

    def statistics(self) -> StatisticsSnapshot:
        """Snapshot computed with three vectorized unique passes."""
        self._flush()
        if self._stats is None:
            if not len(self._ids):
                self._stats = StatisticsSnapshot(0, 0, 0, 0, {})
            else:
                predicates, counts = np.unique(self._ids[:, 1], return_counts=True)
                # distinct objects per predicate: unique (p, o) pairs, then
                # a per-predicate count over the deduplicated pairs
                pairs = np.unique(self._ids[:, 1:3], axis=0)
                pair_preds, pair_counts = np.unique(
                    pairs[:, 0], return_counts=True
                )
                decode = self.dictionary.decode
                self._stats = StatisticsSnapshot(
                    triple_count=len(self._ids),
                    distinct_subjects=int(len(np.unique(self._ids[:, 0]))),
                    distinct_predicates=int(len(predicates)),
                    distinct_objects=int(len(np.unique(self._ids[:, 2]))),
                    predicate_cardinalities={
                        decode(int(pid)): int(card)
                        for pid, card in zip(predicates, counts)
                    },
                    predicate_distinct_objects={
                        decode(int(pid)): int(card)
                        for pid, card in zip(pair_preds, pair_counts)
                    },
                )
        return self._stats


class FullSortColumn:
    """Reference strategy: sort everything before the first query."""

    def __init__(self, values: Sequence[float] | np.ndarray) -> None:
        self._values = np.sort(np.asarray(values, dtype=np.float64))
        # Sorting is ~n log2 n element moves; charged as up-front work.
        n = len(self._values)
        self.work_counter = int(n * max(1.0, np.log2(max(n, 2))))
        self.query_counter = 0

    def range_query(self, lo: float, hi: float) -> np.ndarray:
        if hi < lo:
            raise ValueError("range_query requires lo <= hi")
        self.query_counter += 1
        start = int(np.searchsorted(self._values, lo, side="left"))
        end = int(np.searchsorted(self._values, hi, side="left"))
        return self._values[start:end]

    def range_count(self, lo: float, hi: float) -> int:
        return len(self.range_query(lo, hi))


class ScanColumn:
    """Reference strategy: no index at all; every query scans the column."""

    def __init__(self, values: Sequence[float] | np.ndarray) -> None:
        self._values = np.asarray(values, dtype=np.float64).copy()
        self.work_counter = 0
        self.query_counter = 0

    def range_query(self, lo: float, hi: float) -> np.ndarray:
        if hi < lo:
            raise ValueError("range_query requires lo <= hi")
        self.query_counter += 1
        self.work_counter += len(self._values)
        return self._values[(self._values >= lo) & (self._values < hi)]

    def range_count(self, lo: float, hi: float) -> int:
        return len(self.range_query(lo, hi))
