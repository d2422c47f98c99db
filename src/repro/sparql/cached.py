"""Query-result caching (survey §4: "caching ... may be exploited").

Exploration sessions re-issue queries constantly — every back-navigation,
facet deselection, or dashboard refresh repeats earlier work.
:class:`CachedQueryEngine` wraps :class:`~repro.sparql.eval.QueryEngine`
with a bounded :class:`~repro.cache.result_cache.ResultCache` keyed on the
digest of the *optimized logical plan*, with explicit invalidation for when
the store changes. Plan-keying means syntactically different but
plan-equivalent queries (whitespace, prefix renaming, reordered constant
filters) share one cache entry, in all four query forms, whether the
caller hands over text or an already parsed query. It is the one cache
owner of the serving layer too: the lookup, the cache-hit query-log
record and the streaming tee that fills the cache all live here.

A hit returns the cached rows under a *tagged* EXPLAIN tree: the plan's
``cached`` flag is set so its actual cardinalities are recognizably from
the prior (computing) run, not from a fresh execution. Hit/miss traffic is
mirrored into the ``cache.requests`` telemetry counters (:mod:`repro.obs`).
"""

from __future__ import annotations

import time
from dataclasses import replace

from ..cache.result_cache import ResultCache
from ..obs import OBS
from ..store.base import TripleSource
from .eval import QueryEngine
from .nodes import Query
from .optimizer import CorrectionTable
from .plan import QueryPlan
from .results import SelectResult

__all__ = ["CachedQueryEngine"]

_MISS = object()


class CachedQueryEngine:
    """A QueryEngine with memoized results.

    Query text, a parsed ``Query`` and a :class:`QueryPlan` all key on
    the same plan digest, so every form of one query shares one entry.
    SELECT results are cached as-is — they are immutable by convention;
    callers must not mutate ``rows``.
    """

    def __init__(
        self,
        store: TripleSource,
        capacity: int = 128,
        policy: str = "lru",
        optimize: bool = True,
        corrections: CorrectionTable | None = None,
    ) -> None:
        self.engine = QueryEngine(
            store, optimize=optimize, corrections=corrections
        )
        self.cache = ResultCache(capacity, policy=policy, name="sparql.result")

    def query(self, query: str | Query | QueryPlan):
        return self.answer(query)[0]

    def answer(
        self, query: str | Query | QueryPlan, stream: bool = False
    ) -> tuple[object, bool]:
        """``(result, served_from_cache)`` — the one cache lookup.

        With ``stream=True`` a SELECT miss comes back as a
        :class:`StreamingSelect` whose rows fill the cache once the
        stream is exhausted (an abandoned stream caches nothing).
        """
        started = time.perf_counter_ns()
        plan = self.engine.plan(query)
        key = plan.digest
        cached = self.cache.get(key, _MISS)
        if cached is not _MISS:
            # A cache-served query must stay visible to the workload
            # analyzer: log it with cache_hit=true and zeroed scan
            # counters — no store work happened on its behalf.
            log = OBS.querylog
            if log.enabled:
                log.emit_cache_hit(
                    digest=key,
                    form=plan.form,
                    latency_ms=(time.perf_counter_ns() - started) / 1e6,
                    solutions=_cached_solutions(cached),
                )
            return _tag_cached(cached), True
        if not stream or plan.form != "SELECT":
            result = self.engine.query(plan)
            if isinstance(result, SelectResult):
                result.plan_digest = key
            self.cache.put(key, result)
            return result, False
        streamed = self.engine.stream_select(plan)
        collected: list[dict] = []

        def tee():
            for row in streamed.rows:
                collected.append(row)
                yield row
            self.cache.put(key, SelectResult(
                streamed.variables, collected, plan_digest=key
            ))

        return replace(streamed, rows=tee()), False

    def invalidate(self) -> None:
        """Drop all cached results (call after mutating the store)."""
        self.cache.clear()
        if OBS.enabled:
            OBS.metrics.counter("cache.invalidations", cache="sparql.result").inc()

    @property
    def hit_rate(self) -> float:
        return self.cache.stats.hit_rate

    @property
    def stats(self):
        return self.cache.stats


def _tag_cached(result):
    """Mark a cache-served result's EXPLAIN tree as coming from a prior run.

    Only the root node is tagged (``render`` annotates the whole tree from
    it). The cached result object itself is left untouched — the caller of
    the run that *computed* the entry must keep seeing an untagged plan —
    so a hit returns a shallow re-wrap sharing rows and stats.
    """
    if not isinstance(result, SelectResult) or result.plan is None:
        return result
    if result.plan.cached:
        return result
    return SelectResult(
        result.variables,
        result.rows,
        stats=result.stats,
        plan=replace(result.plan, cached=True),
        plan_digest=result.plan_digest,
    )


def _cached_solutions(result) -> int:
    return int(result) if isinstance(result, bool) else len(result)
