"""The repo benchmark: interactive exploration sessions against ``repro``.

    python3 perfbench/run.py --workload browse --seed 1 --seconds 10 --trace 0

Workloads (all closed loop: the session sends its next operation only
after the previous answer arrived, survey §2):

* ``browse``  — one client connection against a live ``python -m
  repro.server --data <generated.nt>``; every query text is unique, so
  the result cache never hits and every request reaches the engine.
* ``revisit`` — the same server and data; texts drawn Zipf-skewed from a
  pool of 64, below one worker's 128-entry result cache. Cache fill is
  untimed warm-up.
* ``ingest``  — in-process and single-threaded on a ``MemoryStore``: each
  step ``add_all``s a batch of new entities, then reads, the first read
  being a lookup of a just-added entity.

The benchmark, and the server it starts, run pinned to one CPU, and every
reported time is rescaled to a fixed host speed measured with a reference
task on that CPU (``speed.py``); raw wall times go to stderr.

Every answer is checked against ``oracle.py``. With ``--trace 0`` the last
stdout line carries the end-to-end metrics; with ``--trace 1`` the run
measures once more over HTTP, replays the same requests in-process
through ``replay.py`` untraced and then traced, and reports per-layer
metrics. Generated data, server logs and span files go to ``.perfbench/``
at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(SRC))

import repro  # noqa: E402
from repro.obs.budget import DEFAULT_BUDGETS_MS, INTERACTIVE  # noqa: E402
from repro.sparql.eval import QueryEngine  # noqa: E402
from repro.store.memory import MemoryStore  # noqa: E402

from datagen import (  # noqa: E402
    UniqueStream,
    ZipfPool,
    lookup,
    make_entities,
    write_ntriples,
)
from http_load import (  # noqa: E402
    ServerProcess,
    parse_response,
    read_rss_mb,
    run_session,
)
from oracle import Oracle  # noqa: E402
from replay import (  # noqa: E402
    NoSpans,
    Replayer,
    Spans,
    first_after_write_us,
    frozen_heap,
    layer_report,
    load_store,
    rows_to_keys,
    to_terms,
)
from speed import (  # noqa: E402
    REFERENCE_MS,
    Probe,
    pin_to_one_cpu,
    timed_setup,
)

if Path(repro.__file__).resolve().parent.parent != SRC.resolve():
    raise SystemExit(f"repro must be imported from {SRC}, "
                     f"not {repro.__file__}")

WORKLOADS = ("browse", "revisit", "ingest")
POPULATION = 20_000  # entities; six triples each
SETUP_ROUNDS = 5  # set-ups per run; setup_s is their median
BROWSE_WARMUP = 100  # untimed requests before a browse run
REVISIT_WARMUP_ROUNDS = 16  # passes over the pool's cacheable texts
INGEST_BATCH = 25  # entities added per ingest step
INGEST_WARMUP = 20  # untimed reads before ingest steps start
REPLAY_MAX = 800  # requests replayed in-process by a traced run
BUDGET_MS = DEFAULT_BUDGETS_MS[INTERACTIVE]
# An ingest step reads a just-added entity first, which pays the
# statistics rebuild after the write, then these eleven kinds in shuffled
# order. Five plain lookups of twelve reads put the median read inside
# the star queries' latencies; with the other workloads' 40/20/20/20 mix
# it fell in the gap between stars and lists, and jumped between them.
INGEST_BLOCK = ("lookup",) * 5 + ("list", "star", "facet") * 2


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Outcome(NamedTuple):
    kind: str
    latency_ms: float  # rescaled to the reference host speed
    ok: bool


def end_to_end(outcomes: list[Outcome], elapsed_s: float, setup_s: float,
               ingest_rate: float, rss_mb: float) -> dict:
    """The user-visible metrics; ``elapsed_s`` is the measured span less
    its probes, at reference speed."""
    def p50(kind: str) -> float:
        return percentile([o.latency_ms for o in outcomes if o.kind == kind],
                          50)

    latencies = [o.latency_ms for o in outcomes]
    return {
        "setup_s": (setup_s, "s"),
        "throughput_qps": (sum(o.ok for o in outcomes) / elapsed_s, "1/s"),
        "latency_p50_ms": (percentile(latencies, 50), "ms"),
        "latency_p95_ms": (percentile(latencies, 95), "ms"),
        "within_budget_ratio": (
            sum(o.ok and o.latency_ms <= BUDGET_MS for o in outcomes)
            / len(outcomes), "fraction"),
        "point_p50_ms": (p50("lookup"), "ms"),
        "facet_p50_ms": (p50("facet"), "ms"),
        "ingest_triples_per_s": (ingest_rate, "1/s"),
        "rss_mb": (rss_mb, "MB"),
    }


def host_line(probe: Probe, raw_ms: list[float]) -> str:
    """What stderr says about the host: its speed and the raw median."""
    return (f"reference task median {probe.reference_ms():.3f} ms "
            f"(nominal {REFERENCE_MS} ms), raw latency p50 "
            f"{percentile(raw_ms, 50):.3f} ms")


# --------------------------------------------------------------------------- #
# browse / revisit: a live server
# --------------------------------------------------------------------------- #


def check_response(sample, oracle: Oracle) -> tuple[str | None, str | None]:
    """``(failure reason or None, X-Repro-Cache value)`` of one sample."""
    if sample.raw is None:
        return sample.error, None
    response = parse_response(sample.raw)
    cache = response.headers.get("x-repro-cache")
    if response.status != 200:
        return f"HTTP {response.status}", cache
    if response.headers.get("x-repro-tier") != "exact" \
            or "x-repro-approximate" in response.headers:
        return "non-exact tier", cache
    bindings = json.loads(response.body)["results"]["bindings"]
    rows = [
        {name: (term["type"], term["value"], term.get("datatype"))
         for name, term in binding.items()}
        for binding in bindings
    ]
    return oracle.check(sample.request, rows), cache


def counter_delta(before: dict, after: dict) -> dict[str, int]:
    """The ``/stats`` counters a run moved."""
    def non_exact(stats):
        return sum(count for tier, count in stats["served_by_tier"].items()
                   if tier != "exact")

    def non_200(stats):
        return sum(count for status, count
                   in stats["responses_by_status"].items() if status != "200")

    return {
        "admission.rejected": after["admission"]["rejected"]
        - before["admission"]["rejected"],
        "tier.non_exact": non_exact(after) - non_exact(before),
        "responses.non_200": non_200(after) - non_200(before),
        "engine.scan_rows": after["engine"]["scan_rows"]
        - before["engine"]["scan_rows"],
        "querylog.dropped": after["querylog"]["dropped"]
        - before["querylog"]["dropped"],
    }


def run_server_workload(workload: str, seed: int, seconds: float,
                        trace: bool) -> dict:
    entities = make_entities(random.Random(seed), 0, POPULATION)
    oracle = Oracle()
    oracle.add(entities)
    OUT.mkdir(exist_ok=True)
    data_path = OUT / f"data-{workload}-{seed}.nt"
    triple_count = write_ntriples(entities, str(data_path))
    if workload == "browse":
        stream = UniqueStream(seed, POPULATION)
        warmup = [stream.next() for _ in range(BROWSE_WARMUP)]
    else:
        stream = ZipfPool(seed, POPULATION)
        cacheable = [request for request in stream.requests()
                     if request.kind != "facet"]
        warmup = cacheable * REVISIT_WARMUP_ROUNDS

    server = ServerProcess(str(SRC), str(data_path),
                           str(OUT / f"server-{workload}.log"))
    setups = []
    try:
        for _ in range(1 if trace else SETUP_ROUNDS):
            server.stop()
            setups.append(timed_setup(server.start)[1])
        pending = iter(warmup)
        run_session(server, lambda: next(pending, None), None)
        before = server.stats()
        probe = Probe(time.perf_counter())
        samples = run_session(server, stream.next, seconds, probe.tick)
        after = server.stats()
        rss_mb = server.rss_mb()
    finally:
        server.stop()
        data_path.unlink(missing_ok=True)

    outcomes, caches, failures = [], [], []
    for sample in samples:
        reason, cache = check_response(sample, oracle)
        if reason is not None:
            failures.append(f"{sample.request.text}: {reason}")
        scale = probe.factor(sample.start - probe.begin)
        outcomes.append(Outcome(sample.request.kind,
                                sample.latency_ms * scale, reason is None))
        caches.append(cache)
    report_failures(failures)
    kinds = {kind: sum(1 for outcome in outcomes if outcome.kind == kind)
             for kind in ("lookup", "list", "star", "facet")}
    distinct = len({sample.request.text for sample in samples})
    print(f"{workload} seed={seed}: {len(samples)} requests {kinds}, "
          f"{distinct} distinct texts, {triple_count} triples; "
          + host_line(probe, [sample.latency_ms for sample in samples]),
          file=sys.stderr)
    result = {"attempted": len(samples), "failed": len(failures)}
    if not trace:
        # The start-up load is the only ingest a server workload has.
        setup_s = statistics.median(setups)
        result["metrics"] = end_to_end(
            outcomes, probe.elapsed(samples[-1].end - probe.begin), setup_s,
            triple_count / setup_s, rss_mb,
        )
        return result

    counters = counter_delta(before, after)
    replayed = samples[:REPLAY_MAX]
    requests = [sample.request for sample in replayed]
    payloads = [sample.payload for sample in replayed]
    terms = to_terms(entities)
    del entities
    untraced, traced, spans, add_s = replay_http(terms, warmup, requests,
                                                 payloads)
    spans.write_jsonl(str(OUT / f"trace-{workload}.jsonl"))
    overheads = [
        sample.latency_ms - latency
        for sample, latency in zip(replayed, untraced.latencies_ms)
    ]
    layers = layer_report(spans, traced.busy_s, len(requests))
    n = max(1, len(samples))

    def hit_ratio(select: bool | None) -> float:
        chosen = [cache == "hit" for sample, cache in zip(samples, caches)
                  if select is None
                  or (sample.request.kind != "facet") == select]
        return sum(chosen) / len(chosen) if chosen else 0.0

    result["metrics"] = per_layer(
        layers,
        overhead_ms=statistics.median(overheads),
        rejected=counters["admission.rejected"],
        non_exact=counters["tier.non_exact"],
        non_200=counters["responses.non_200"],
        querylog_dropped=counters["querylog.dropped"],
        hit_ratios=(hit_ratio(None), hit_ratio(True), hit_ratio(False)),
        add_us_per_triple=add_s * 1e6 / len(terms),
        statistics_us=first_after_write_us(spans),
        scan_rows=counters["engine.scan_rows"] / n,
        rows_examined=traced.scan_rows / max(1, traced.solutions),
        overhead_ratio=traced.busy_s / untraced.busy_s,
    )
    return result


def replay_http(terms, warmup, requests, payloads):
    """Replay the server run in-process, untraced and traced side by side.

    Each side loads its own store and warms it as the server was warmed;
    then every request runs untraced and at once traced, so a slow spell
    of the machine costs both sides alike. Returns both replayers, the
    spans and the traced side's bulk-load seconds.
    """
    spans = Spans()
    replayers = []
    for tracer in (NoSpans(), spans):
        replayer = Replayer(store=MemoryStore(), spans=tracer)
        started = time.perf_counter()
        replayer.write(terms)
        add_s = time.perf_counter() - started
        for request in warmup:
            replayer.read(request)
        replayer.reset_counters()
        replayers.append(replayer)
    untraced, traced = replayers
    with frozen_heap():
        for index, (request, payload) in enumerate(zip(requests, payloads)):
            spans.request = index
            for replayer in alternate(replayers, index):
                replayer.read(request, payload)
    return untraced, traced, spans, add_s


def alternate(pair: list, index: int) -> list:
    """The pair in turn-about order, so neither side always runs second
    on caches the other has just warmed."""
    return pair if index % 2 == 0 else pair[::-1]


def report_failures(failures: list[str]) -> None:
    for failure in failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    if len(failures) > 10:
        print(f"... {len(failures) - 10} more failures", file=sys.stderr)


def per_layer(layers: dict, *, overhead_ms: float, rejected: int,
              non_exact: int, non_200: int, querylog_dropped: int,
              hit_ratios: tuple[float, float, float],
              add_us_per_triple: float, statistics_us: float,
              scan_rows: float, rows_examined: float,
              overhead_ratio: float) -> dict:
    self_us = layers["self_us"]
    if not 0.9 <= layers["coverage"] <= 1.1:
        print(f"WARNING layer self times cover {layers['coverage']:.3f} of "
              "the traced replay's time, outside 0.9-1.1", file=sys.stderr)

    def us(name: str) -> tuple[float, str]:
        return (self_us.get(name, 0.0), "us")

    return {
        "server.overhead_p50_ms": (overhead_ms, "ms"),
        "server.http.read_us": us("server.http.read"),
        "server.http.write_us": us("server.http.write"),
        "server.admission.rejected": (rejected, "count"),
        "server.tier.non_exact": (non_exact, "count"),
        "server.responses.non_200": (non_200, "count"),
        "server.querylog.dropped": (querylog_dropped, "count"),
        "sparql.parse_us": us("sparql.parse"),
        "sparql.digest_us": us("sparql.digest"),
        "sparql.plan_us": us("sparql.plan"),
        "sparql.build_us": us("sparql.build"),
        "sparql.exec_us": us("sparql.exec"),
        "sparql.rows_examined_per_result": (rows_examined, "ratio"),
        "sparql.results.serialize_us": us("sparql.results.serialize"),
        "cache.lookup_us": us("cache.lookup"),
        "cache.hit_ratio": (hit_ratios[0], "fraction"),
        "cache.hit_ratio.select": (hit_ratios[1], "fraction"),
        "cache.hit_ratio.aggregate": (hit_ratios[2], "fraction"),
        "store.add_us_per_triple": (add_us_per_triple, "us"),
        "store.statistics_us": (statistics_us, "us"),
        "store.scan_rows": (scan_rows, "count"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
        "trace.self_time_coverage": (layers["coverage"], "ratio"),
    }


# --------------------------------------------------------------------------- #
# ingest: in-process writes beside reads
# --------------------------------------------------------------------------- #


class IngestPlan:
    """The seeded ingest steps: a batch of new entities, then twelve
    reads (a lookup of one just-added entity, then ``INGEST_BLOCK``)."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.initial = make_entities(self.rng, 0, POPULATION)
        self.reads = UniqueStream(seed, POPULATION, block=INGEST_BLOCK)
        self.warmup = [self.reads.next() for _ in range(INGEST_WARMUP)]
        self.next_index = POPULATION

    def step(self):
        batch = make_entities(self.rng, self.next_index, INGEST_BATCH)
        self.next_index += INGEST_BATCH
        reads = [lookup(self.rng.choice(batch).index)]
        reads += [self.reads.next() for _ in INGEST_BLOCK]
        return batch, to_terms(batch), reads


def run_ingest(seed: int, seconds: float, trace: bool) -> dict:
    plan = IngestPlan(seed)
    oracle = Oracle()
    oracle.add(plan.initial)
    initial_terms = to_terms(plan.initial)
    if trace:
        return run_ingest_traced(seed, seconds, oracle, initial_terms)
    setups = []
    for _ in range(SETUP_ROUNDS):
        store = None  # release the previous round's store first
        store, load_s = timed_setup(
            lambda tick: load_store(initial_terms, tick))
        setups.append(load_s)
    engine = QueryEngine(store)
    for request in plan.warmup:
        engine.query(request.text)
    records, steps = [], []
    probe = Probe(time.perf_counter())
    begin = probe.begin
    while time.perf_counter() - begin < seconds:
        probe.tick()
        batch, triples, reads = plan.step()
        oracle.add(batch)
        step_start = time.perf_counter()
        store.add_all(triples)
        for request in reads:
            started = time.perf_counter()
            rows = engine.query(request.text).rows
            latency = (time.perf_counter() - started) * 1e3
            records.append((request, rows, latency, plan.next_index,
                            started - begin))
        steps.append((step_start - begin, time.perf_counter() - step_start,
                       len(triples)))
    end_s = time.perf_counter() - begin
    rss_mb = read_rss_mb("self")
    outcomes = check_records(records, oracle, probe.factor)
    print(f"ingest seed={seed}: {len(records)} reads, "
          f"{sum(count for *_rest, count in steps)} triples added to "
          f"{len(initial_terms)}; "
          + host_line(probe, [record[2] for record in records]),
          file=sys.stderr)
    added = sum(count for _at_s, _step_s, count in steps)
    step_s = sum(step_s * probe.factor(at_s) for at_s, step_s, _ in steps)
    return {
        "attempted": len(records),
        "failed": sum(1 for outcome in outcomes if not outcome.ok),
        "metrics": end_to_end(outcomes, probe.elapsed(end_s),
                              statistics.median(setups), added / step_s,
                              rss_mb),
    }


def check_records(records, oracle: Oracle, scale) -> list[Outcome]:
    """Check in-process reads ``(request, rows, latency_ms, population,
    at_s)`` against the oracle; ``scale(at_s)`` rescales each latency."""
    outcomes, failures = [], []
    for request, rows, latency, population, at_s in records:
        reason = oracle.check(request, rows_to_keys(rows), population)
        if reason is not None:
            failures.append(f"{request.text}: {reason}")
        outcomes.append(Outcome(request.kind, latency * scale(at_s),
                                reason is None))
    report_failures(failures)
    return outcomes


def run_ingest_traced(seed: int, seconds: float, oracle: Oracle,
                      initial_terms) -> dict:
    """Ingest steps replayed untraced and traced side by side: each side
    has its own store; every write and read runs on one side and at once
    on the other. The untraced side's reads are checked."""
    plan = IngestPlan(seed)
    spans = Spans()
    replayers = []
    for tracer in (NoSpans(), spans):
        store = load_store(initial_terms)
        replayer = Replayer(store=store, spans=tracer, http=False)
        for request in plan.warmup:
            replayer.read(request)
        replayer.reset_counters()
        replayers.append(replayer)
    untraced, traced = replayers
    records, added, op = [], 0, 0
    with frozen_heap():
        begin = time.perf_counter()
        while time.perf_counter() - begin < seconds:
            batch, triples, reads = plan.step()
            oracle.add(batch)
            spans.request = op
            op += 1
            for replayer in replayers:
                replayer.write(triples)
            added += len(triples)
            for request in reads:
                spans.request = op
                op += 1
                at_s = time.perf_counter() - begin
                rows = {id(replayer): replayer.read(request)
                        for replayer in alternate(replayers, op)}
                records.append((request, rows[id(untraced)],
                                untraced.latencies_ms[-1], plan.next_index,
                                at_s))
    spans.write_jsonl(str(OUT / "trace-ingest.jsonl"))
    outcomes = check_records(records, oracle, lambda at_s: 1.0)
    add_ns = sum(end - start for name, start, end, *_ in spans.records
                 if name == "store.add")
    layers = layer_report(spans, traced.busy_s, len(records))
    return {
        "attempted": len(outcomes),
        "failed": sum(1 for outcome in outcomes if not outcome.ok),
        "metrics": per_layer(
            layers, overhead_ms=0.0, rejected=0, non_exact=0, non_200=0,
            querylog_dropped=0, hit_ratios=(0.0, 0.0, 0.0),
            add_us_per_triple=add_ns / 1e3 / max(1, added),
            statistics_us=first_after_write_us(spans),
            scan_rows=traced.scan_rows / max(1, len(records)),
            rows_examined=traced.scan_rows / max(1, traced.solutions),
            overhead_ratio=traced.busy_s / untraced.busy_s,
        ),
    }


# --------------------------------------------------------------------------- #


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    OUT.mkdir(exist_ok=True)
    if args.workload == "ingest":
        result = run_ingest(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_server_workload(args.workload, args.seed, args.seconds,
                                     bool(args.trace))
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in result["metrics"].items()
    }
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
