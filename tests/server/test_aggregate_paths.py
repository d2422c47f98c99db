"""One aggregate path over live HTTP.

Exact-tier aggregates take the cached SELECT path, every shed-tier
approximate answer is logged once as ``strategy="sketched"``, and
ungrouped COUNT/SUM/AVG ride the sketch wire, progressive mode and the
federation merge exactly like the grouped shapes.
"""

import json
import urllib.parse
import urllib.request

import pytest

from repro.obs import OBS
from repro.rdf.terms import IRI, Literal, Triple, Variable
from repro.server.app import ReproServer, ServerConfig
from repro.server.sketch import SketchBundle, federated_sketch_select
from repro.sparql.parser import parse_query
from repro.store.federated import FederatedStore
from repro.store.memory import MemoryStore

EX = "http://example.org/"
GROUPED = "SELECT ?p (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p"
COUNT_ALL = "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }"
AVG = (
    "SELECT (AVG(?v) AS ?m) (COUNT(*) AS ?n) "
    "WHERE { ?s <http://example.org/value> ?v }"
)
SEL = "SELECT ?s WHERE { ?s <http://example.org/value> ?v } LIMIT 2"


def build_store(n: int = 300, offset: int = 0) -> MemoryStore:
    store = MemoryStore()
    for index in range(offset, offset + n):
        subject = IRI(f"{EX}item/{index}")
        store.add(Triple(
            subject, IRI(EX + "value"), Literal(float((index * 7919) % 997))
        ))
        store.add(Triple(subject, IRI(EX + "label"), Literal(f"item {index}")))
    return store


def fetch(url: str, headers: dict | None = None):
    request = urllib.request.Request(url)
    for name, value in (headers or {}).items():
        request.add_header(name, value)
    return urllib.request.urlopen(request, timeout=10)


def sparql_url(base: str, query: str, **params) -> str:
    params["query"] = query
    return f"{base}/sparql?" + urllib.parse.urlencode(params)


def records(base: str) -> list[dict]:
    body = fetch(f"{base}/debug/queries").read().decode("utf-8")
    return [json.loads(line) for line in body.splitlines() if line]


@pytest.fixture()
def clean_obs():
    prior = OBS.enabled
    OBS.reset()
    yield
    OBS.reset()
    OBS.configure(enabled=prior)


@pytest.fixture()
def shedding_server(clean_obs):
    config = ServerConfig(
        workers=2, shed_budget_ms=5.0, shed_min_observations=4,
        shed_window=32, debug_delay_ms=20.0, approx_max_rows=50,
    )
    with ReproServer(build_store(), config) as server:
        yield server


def force_overload(server) -> None:
    for _ in range(8):
        fetch(sparql_url(server.base_url, SEL)).read()


class TestExactAggregatesShareTheCache:
    def test_group_by_sent_twice_hits_the_result_cache(self):
        # One worker, so both requests see the same result cache.
        with ReproServer(build_store(), ServerConfig(workers=1)) as server:
            first = fetch(sparql_url(server.base_url, GROUPED))
            assert first.headers["X-Repro-Tier"] == "exact"
            assert first.headers.get("X-Repro-Cache") != "hit"
            first_body = json.loads(first.read())
            second = fetch(sparql_url(server.base_url, GROUPED))
            assert second.headers["X-Repro-Tier"] == "exact"
            assert second.headers["X-Repro-Cache"] == "hit"
            second_body = json.loads(second.read())
        bindings = first_body["results"]["bindings"]
        assert len(bindings) == 2
        assert second_body["results"]["bindings"] == bindings


class TestEveryApproximateAnswerIsLogged:
    def test_overloaded_count_star_logs_one_sketched_record(
        self, shedding_server
    ):
        server = shedding_server
        force_overload(server)
        response = fetch(sparql_url(server.base_url, COUNT_ALL))
        assert response.headers["X-Repro-Approximate"] == "1"
        body = json.loads(response.read())
        assert body["x-repro"]["method"] == "prefix-sample"
        sketched = [
            record for record in records(server.base_url)
            if record.get("strategy") == "sketched"
        ]
        assert len(sketched) == 1
        assert sketched[0]["solutions"] == 1


class TestUngroupedShapesRideTheSketchPath:
    def test_sketch_wire_serves_an_ungrouped_bundle(self, shedding_server):
        server = shedding_server
        response = fetch(
            sparql_url(server.base_url, AVG, max_rows=40),
            headers={"X-Repro-Sketch": "1"},
        )
        assert response.headers["X-Repro-Sketch"] == "1"
        payload = json.loads(response.read())
        assert payload["group_vars"] == []
        assert payload["rows_consumed"] == 40
        assert [spec["kind"] for spec in payload["specs"]] == ["AVG", "COUNT"]
        bundle = SketchBundle.from_dict(payload)
        assert bundle.method == "prefix-sample"

    def test_progressive_mode_tightens_an_ungrouped_avg(
        self, shedding_server
    ):
        server = shedding_server
        response = fetch(
            sparql_url(server.base_url, AVG),
            headers={"X-Repro-Progressive": "1"},
        )
        assert response.headers["Content-Type"] == "application/x-ndjson"
        lines = [
            json.loads(line)
            for line in response.read().decode("utf-8").splitlines()
            if line.strip()
        ]
        assert len(lines) >= 2
        assert {line["metadata"]["method"] for line in lines} == {
            "prefix-sample"
        }
        consumed = [line["metadata"]["rows_consumed"] for line in lines]
        assert consumed == sorted(consumed) and consumed[-1] == 50
        assert all(len(line["bindings"]) == 1 for line in lines)

    def test_federation_merges_ungrouped_member_bundles(self):
        federated = FederatedStore([
            ("a", build_store(200)), ("b", build_store(200, offset=200)),
        ])
        answer = federated_sketch_select(
            federated, COUNT_ALL, parse_query(COUNT_ALL), max_rows=100
        )
        assert answer is not None and answer.approximate
        assert answer.method == "prefix-sample"
        assert answer.rows_consumed == 200  # 100 per member
        (row,) = answer.result.rows
        assert row[Variable("n")].value == answer.estimated_total == 800
        assert answer.bounds["n"] == 600.0  # |estimated total - seen|
