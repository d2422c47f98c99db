"""In-process replay of a request stream through ``repro``'s public
functions, with spans recorded by this file around each call.

The replay mirrors what ``repro.server`` does for one ``/sparql`` request
(``app.py``: read the request, parse, digest the plan, look the digest up
in the worker's result cache, plan, build, execute, serialize, write the
response), but calls each stage itself so each gets its own span. An
aggregate (``facet``) skips the cache, as the server does. The ``ingest``
workload replays without the HTTP, digest, cache and serialization stages,
because it calls ``QueryEngine.query`` in-process.

Spans carry name, start, end, parent and request id; they stay in memory
and are written out as JSONL when the run ends. A span's self time is its
duration minus the part of it its children cover.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import time
from dataclasses import dataclass, field

from repro.cache.result_cache import ResultCache
from repro.rdf.terms import IRI, Literal
from repro.server.app import ServerConfig
from repro.server.http import read_request, write_response
from repro.sparql.optimizer import CardinalityEstimator
from repro.sparql.parser import parse_query
from repro.sparql.physical import EvalStats, build_plan
from repro.sparql.plan import build_select_plan, optimize_plan, query_digest
from repro.sparql.results import SelectResult, to_sparql_json
from repro.store.memory import MemoryStore

from datagen import XSD_INTEGER

ROOT_SPAN = "request"
_XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"
_NULL = contextlib.nullcontext()


class Spans:
    """An in-memory span recorder for one single-threaded replay."""

    def __init__(self) -> None:
        self.records: list[list] = []  # [name, start, end, parent, request]
        self._open: list[int] = []
        self.request = -1

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request in self.records:
                handle.write(json.dumps({
                    "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "request": request,
                }) + "\n")

    def self_times_ns(self) -> list[int]:
        """Each span's duration minus the union of its children."""
        children: dict[int, list[tuple[int, int]]] = {}
        for name, start, end, parent, _request in self.records:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        out = []
        for index, (_name, start, end, _parent, _request) in enumerate(
                self.records):
            covered, reach = 0, start
            for child_start, child_end in sorted(children.get(index, ())):
                child_start = max(child_start, reach)
                if child_end > child_start:
                    covered += child_end - child_start
                    reach = child_end
            out.append(end - start - covered)
        return out


class _Span:
    __slots__ = ("spans", "name", "index")

    def __init__(self, spans: Spans, name: str) -> None:
        self.spans = spans
        self.name = name

    def __enter__(self) -> None:
        spans = self.spans
        self.index = len(spans.records)
        parent = spans._open[-1] if spans._open else -1
        spans.records.append(
            [self.name, time.perf_counter_ns(), 0, parent, spans.request]
        )
        spans._open.append(self.index)

    def __exit__(self, *exc_info) -> bool:
        self.spans.records[self.index][2] = time.perf_counter_ns()
        self.spans._open.pop()
        return False


@contextlib.contextmanager
def frozen_heap():
    """Keep the cyclic collector off what is already live (the loaded
    store above all) while a replay runs, so its collections scan only
    what the replay allocates and two replays pay alike."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


class NoSpans:
    """The untraced replay: the same calls, no recording."""

    request = -1

    def span(self, name: str):
        return _NULL


# --------------------------------------------------------------------------- #
# Data
# --------------------------------------------------------------------------- #


def to_terms(entities) -> list[tuple]:
    """The generated triples as ``repro`` terms, for ``add_all``."""
    triples = []
    for entity in entities:
        for subject, predicate, (kind, value, datatype) in entity.triples():
            if kind == "uri":
                obj = IRI(value)
            elif datatype == XSD_INTEGER:
                obj = Literal(int(value))
            else:
                obj = Literal(value)
            triples.append((IRI(subject), IRI(predicate), obj))
    return triples


LOAD_CHUNK = 1000  # triples per add_all of a bulk load


def load_store(triples: list[tuple], between=None) -> MemoryStore:
    """A fresh store holding ``triples``, added ``LOAD_CHUNK`` at a time;
    ``between()``, if given, runs before each chunk."""
    store = MemoryStore()
    for start in range(0, len(triples), LOAD_CHUNK):
        if between is not None:
            between()
        store.add_all(triples[start:start + LOAD_CHUNK])
    return store


def term_key(term) -> tuple[str, str, str | None]:
    """A ``repro`` term as the oracle's ``(type, value, datatype)``."""
    if isinstance(term, Literal):
        datatype = term.datatype
        if datatype == _XSD_STRING:
            datatype = None
        return ("literal", term.lexical, datatype)
    return ("uri", str(term), None)


def rows_to_keys(rows) -> list[dict]:
    return [
        {str(variable): term_key(term) for variable, term in row.items()}
        for row in rows
    ]


# --------------------------------------------------------------------------- #
# Replay
# --------------------------------------------------------------------------- #


@dataclass
class Replayer:
    """Runs requests through the stages one ``/sparql`` request takes.

    ``http=True`` mirrors the server: request framing, plan digest, a
    result cache the size of one worker's, and JSON serialization.
    ``http=False`` mirrors ``QueryEngine.query``.
    """

    store: MemoryStore
    spans: object
    http: bool = True
    scan_rows: int = 0
    solutions: int = 0
    busy_s: float = 0.0  # time inside read() and write()
    latencies_ms: list[float] = field(default_factory=list)
    cache: ResultCache | None = None

    def __post_init__(self) -> None:
        if self.http:
            self.cache = ResultCache(ServerConfig().cache_capacity,
                                     name="perfbench.replay")

    def reset_counters(self) -> None:
        self.scan_rows = self.solutions = 0
        self.busy_s = 0.0
        self.latencies_ms = []

    def read(self, request, payload: bytes = b"") -> list:
        """One read; returns its result rows."""
        spans = self.spans
        started = time.perf_counter()
        with spans.span(ROOT_SPAN):
            if self.http:
                with spans.span("server.http.read"):
                    read_request(io.BytesIO(payload))
            with spans.span("sparql.parse"):
                parsed = parse_query(request.text)
            cacheable = self.http and request.kind != "facet"
            result = None
            if self.http:
                with spans.span("sparql.digest"):
                    digest = query_digest(parsed)
            if cacheable:
                with spans.span("cache.lookup"):
                    result = self.cache.get(digest)
            if result is None:
                result = self._execute(parsed)
                if cacheable:
                    with spans.span("cache.put"):
                        self.cache.put(digest, result)
            if self.http:
                with spans.span("sparql.results.serialize"):
                    body = to_sparql_json(result).encode("utf-8")
                with spans.span("server.http.write"):
                    write_response(
                        io.BytesIO(), 200,
                        {"Content-Type": "application/sparql-results+json",
                         "X-Repro-Tier": "exact"},
                        body,
                    )
        elapsed = time.perf_counter() - started
        self.busy_s += elapsed
        self.latencies_ms.append(elapsed * 1e3)
        return result.rows

    def _execute(self, parsed) -> SelectResult:
        spans = self.spans
        store = self.store
        with spans.span("sparql.plan"):
            logical = optimize_plan(build_select_plan(parsed))
        per_query = EvalStats()
        with spans.span("sparql.build"):
            with spans.span("store.statistics"):
                store.statistics()
            root = build_plan(logical, store, per_query,
                              CardinalityEstimator.for_store(store))
        with spans.span("sparql.exec"):
            rows = list(root.execute({}))
        self.scan_rows += per_query.scan_rows
        self.solutions += len(rows)
        variables = [projection.variable
                     for projection in parsed.projections]
        return SelectResult(variables, rows)

    def write(self, triples: list[tuple]) -> None:
        started = time.perf_counter()
        with self.spans.span("store.add"):
            self.store.add_all(triples)
        self.busy_s += time.perf_counter() - started


def layer_report(spans: Spans, wall_s: float, requests: int) -> dict:
    """Per-layer self time (mean µs per measured request) and the share
    of the traced replay's wall time (``Replayer.busy_s``) that the layer
    spans account for.

    Set-up and warm-up spans carry a negative request id and are left
    out; the ``request`` root's own time is glue, not a layer.
    """
    self_ns = spans.self_times_ns()
    per_layer: dict[str, int] = {}
    for record, own in zip(spans.records, self_ns):
        if record[4] < 0:
            continue
        per_layer[record[0]] = per_layer.get(record[0], 0) + own
    layer_total = sum(own for name, own in per_layer.items()
                      if name != ROOT_SPAN)
    return {
        "self_us": {name: total / 1e3 / max(1, requests)
                    for name, total in per_layer.items()},
        "coverage": layer_total / 1e9 / wall_s if wall_s > 0 else 0.0,
    }


def first_after_write_us(spans: Spans) -> float:
    """Mean duration of the first ``store.statistics`` span after each
    ``store.add``: the snapshot rebuild a write forces."""
    durations, armed = [], False
    for name, start, end, _parent, _request in spans.records:
        if name == "store.add":
            armed = True
        elif name == "store.statistics" and armed:
            durations.append(end - start)
            armed = False
    return sum(durations) / len(durations) / 1e3 if durations else 0.0
