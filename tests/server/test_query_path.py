"""One query path from text to cached answer, over live HTTP.

Every ``/sparql`` request parses its text once and optimizes its plan at
most once, whatever its form, tier or serialization; every form is served
from the one result cache on repeat, with the real form in its cache-hit
record; and an answered connection closes as soon as it is answered.
"""

import importlib
import json
import socket
import sys
import time
import urllib.parse
import urllib.request

import pytest

from repro.obs import OBS
from repro.rdf.terms import IRI, Literal, Triple
from repro.server.app import ReproServer, ServerConfig
from repro.server.shedding import SAMPLED
from repro.store.memory import MemoryStore

EX = "http://example.org/"
VALUE = f"<{EX}value>"
LABEL = f"<{EX}label>"


def build_store(n: int = 300) -> MemoryStore:
    store = MemoryStore()
    for index in range(n):
        subject = IRI(f"{EX}item/{index}")
        store.add(Triple(subject, IRI(EX + "value"), Literal(index % 7)))
        store.add(Triple(subject, IRI(EX + "label"), Literal(f"item {index}")))
    return store


def fetch(base: str, path: str, headers: dict | None = None, **params):
    url = f"{base}{path}?" + urllib.parse.urlencode(params)
    request = urllib.request.Request(url, headers=headers or {})
    response = urllib.request.urlopen(request, timeout=10)
    body = response.read()
    return response, body


def records(base: str) -> list[dict]:
    _response, body = fetch(base, "/debug/queries")
    return [json.loads(line) for line in body.decode().splitlines() if line]


@pytest.fixture()
def clean_obs():
    prior = OBS.enabled
    OBS.reset()
    yield
    OBS.reset()
    OBS.configure(enabled=prior)


@pytest.fixture()
def server(clean_obs):
    # One worker, so repeated requests see the same result cache.
    config = ServerConfig(workers=1, approx_max_rows=20)
    with ReproServer(build_store(), config) as running:
        yield running


def count_calls(monkeypatch, module: str, name: str) -> list:
    """Count calls to ``module.name`` through every ``repro`` module that
    imported it by name."""
    original = getattr(importlib.import_module(module), name)
    calls: list = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("repro") and getattr(
            loaded, name, None
        ) is original:
            monkeypatch.setattr(loaded, name, counting)
    return calls


class TestPlanOnce:
    CASES = {
        "streaming SELECT": (
            f"SELECT ?s ?v WHERE {{ ?s {VALUE} ?v }} LIMIT 5", {}),
        "SELECT *": (f"SELECT * WHERE {{ ?s {VALUE} ?v }} LIMIT 5", {}),
        "text/plain": (
            f"SELECT ?s WHERE {{ ?s {LABEL} ?l }} LIMIT 3",
            {"Accept": "text/plain"},
        ),
        "ASK": (f"ASK {{ ?s {VALUE} 3 }}", {}),
        "CONSTRUCT": (
            f"CONSTRUCT {{ ?s <{EX}seen> ?v }} WHERE {{ ?s {VALUE} ?v }} "
            "LIMIT 4",
            {},
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_each_request_parses_once_and_plans_once(
        self, server, monkeypatch, case
    ):
        text, headers = self.CASES[case]
        parses = count_calls(monkeypatch, "repro.sparql.parser", "parse_query")
        optimizes = count_calls(
            monkeypatch, "repro.sparql.plan", "optimize_plan"
        )
        for attempt in ("miss", "hit"):
            parses.clear()
            optimizes.clear()
            response, _body = fetch(
                server.base_url, "/sparql", headers, query=text
            )
            assert response.status == 200
            assert len(parses) == 1, (attempt, len(parses))
            assert len(optimizes) <= 1, (attempt, len(optimizes))

    def test_shed_tier_sketch_parses_once_and_plans_once(
        self, server, monkeypatch
    ):
        monkeypatch.setattr(
            server.shedder, "decide", lambda **_kwargs: SAMPLED
        )
        parses = count_calls(monkeypatch, "repro.sparql.parser", "parse_query")
        optimizes = count_calls(
            monkeypatch, "repro.sparql.plan", "optimize_plan"
        )
        response, body = fetch(
            server.base_url, "/sparql",
            query=f"SELECT ?v (COUNT(*) AS ?n) WHERE {{ ?s {VALUE} ?v }} "
                  "GROUP BY ?v",
        )
        assert response.headers["X-Repro-Approximate"] == "1"
        assert json.loads(body)["x-repro"]["method"] == "sketch"
        assert len(parses) == 1
        assert len(optimizes) <= 1
        sketched = [r for r in records(server.base_url)
                    if r.get("strategy") == "sketched"]
        assert len(sketched) == 1


class TestEveryFormIsCached:
    @pytest.mark.parametrize("form, text", [
        ("ASK", f"ASK {{ ?s {VALUE} 3 }}"),
        ("CONSTRUCT",
         f"CONSTRUCT {{ ?s <{EX}seen> ?v }} WHERE {{ ?s {VALUE} 4 }}"),
        ("DESCRIBE", f"DESCRIBE <{EX}item/1>"),
        ("DESCRIBE", f"DESCRIBE ?s WHERE {{ ?s {LABEL} \"item 2\" }}"),
    ])
    def test_repeat_is_a_logged_cache_hit(self, server, form, text):
        first, first_body = fetch(server.base_url, "/sparql", query=text)
        assert first.headers.get("X-Repro-Cache") != "hit"
        second, second_body = fetch(server.base_url, "/sparql", query=text)
        assert second.headers["X-Repro-Tier"] == "exact"
        assert second.headers["X-Repro-Cache"] == "hit"
        assert second_body == first_body
        miss, hit = records(server.base_url)[-2:]
        assert miss["cache_hit"] is False and miss["form"] == form
        assert hit["cache_hit"] is True and hit["form"] == form
        assert hit["digest"] == miss["digest"]

    def test_describe_route_shares_the_cache(self, server):
        resource = f"{EX}item/3"
        first, first_body = fetch(server.base_url, "/describe",
                                  resource=resource)
        assert first.headers.get("X-Repro-Cache") != "hit"
        second, second_body = fetch(server.base_url, "/describe",
                                    resource=resource)
        assert second.headers["X-Repro-Cache"] == "hit"
        assert second_body == first_body
        # The same query through /sparql is the same cache entry.
        third, _body = fetch(server.base_url, "/sparql",
                             query=f"DESCRIBE <{resource}>")
        assert third.headers["X-Repro-Cache"] == "hit"


class TestConnectionClose:
    def test_admitted_request_sees_eof_promptly(self, server):
        text = f"SELECT ?s WHERE {{ ?s {VALUE} 2 }} LIMIT 2"
        fetch(server.base_url, "/sparql", query=text)  # warm the worker
        path = "/sparql?" + urllib.parse.urlencode({"query": text})
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=5) as sock:
            sock.sendall(
                f"GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n".encode()
            )
            first = sock.recv(65536)
            assert first.startswith(b"HTTP/1.1 200")
            answered = time.perf_counter()
            while sock.recv(65536):
                pass
            waited_ms = (time.perf_counter() - answered) * 1e3
        assert waited_ms < 50, waited_ms
