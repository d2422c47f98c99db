"""Golden parity for the shed tier's approximate answers.

``approx_golden.json`` holds the metadata and result rows of every
approximate-aggregate shape (ungrouped COUNT/SUM/AVG, grouped
COUNT/SUM/AVG with and without a group-budget spill, COUNT(DISTINCT))
under an exhausting and a cutting row budget, plus the per-pass answers
of :func:`iter_sketch_passes`. Any change to the estimators, bounds,
row order or literal types shows up here as a diff.

Regenerate (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/server/test_approx_golden.py
"""

import json
import random
from pathlib import Path

import pytest

from repro.rdf.terms import IRI, Literal, Triple
from repro.server import approximate_select
from repro.server.sketch import (
    bundle_to_answer,
    iter_sketch_passes,
    sketched_select,
)
from repro.sparql.eval import QueryEngine
from repro.sparql.results import term_to_json
from repro.store.memory import MemoryStore

FIXTURE = Path(__file__).with_name("approx_golden.json")

P = "PREFIX ex: <http://example.org/> "
UNGROUPED = {
    "count_star": P + "SELECT (COUNT(*) AS ?n) WHERE { ?s ex:type ?c }",
    "count_var": P + "SELECT (COUNT(?v) AS ?n) WHERE { ?s ex:type ?c "
    "OPTIONAL { ?s ex:value ?v } }",
    "sum": P + "SELECT (SUM(?v) AS ?t) WHERE { ?s ex:value ?v }",
    "avg": P + "SELECT (AVG(?v) AS ?m) WHERE { ?s ex:value ?v }",
    "mix": P + "SELECT (AVG(?v) AS ?m) (SUM(?v) AS ?t) (COUNT(*) AS ?n) "
    "(COUNT(?v) AS ?k) WHERE { ?s ex:type ?c OPTIONAL { ?s ex:value ?v } }",
}
SKETCHED = {
    "grouped_count": P + "SELECT ?c (COUNT(*) AS ?n) "
    "WHERE { ?s ex:label ?l . ?s ex:type ?c } GROUP BY ?c",
    "grouped_mix": P + "SELECT ?c (COUNT(?v) AS ?k) (SUM(?v) AS ?t) "
    "(AVG(?v) AS ?m) WHERE { ?s ex:label ?l . ?s ex:type ?c "
    "OPTIONAL { ?s ex:value ?v } } GROUP BY ?c",
    "distinct": P + "SELECT (COUNT(DISTINCT ?c) AS ?n) "
    "WHERE { ?s ex:type ?c }",
    "distinct_two": P + "SELECT (COUNT(DISTINCT ?s) AS ?a) "
    "(COUNT(DISTINCT ?v) AS ?b) WHERE { ?s ex:value ?v }",
}
BUDGETS = {"exhausting": 10_000, "cutting": 150}
PASSES = ("grouped_count", "grouped_mix", "distinct")


def golden_store(n: int = 1_200, seed: int = 12) -> MemoryStore:
    """Randomized groups; ~80% of subjects carry a value, ints and
    floats mixed so literal typing of exact answers is recorded too.
    Labels follow insertion order, so a label-first scan interleaves
    the groups and a cut prefix still sees most of them."""
    rng = random.Random(seed)
    store = MemoryStore()
    for index in range(n):
        subject = IRI(f"http://example.org/item/{index}")
        group = IRI(f"http://example.org/cls{rng.randrange(7)}")
        store.add(Triple(subject, IRI("http://example.org/type"), group))
        store.add(Triple(
            subject, IRI("http://example.org/label"), Literal(f"item {index}")
        ))
        if rng.random() < 0.8:
            value = (
                rng.randrange(100) if rng.random() < 0.5
                else round(rng.uniform(0, 50), 3)
            )
            store.add(Triple(
                subject, IRI("http://example.org/value"), Literal(value)
            ))
    return store


def snapshot(answer) -> dict:
    """JSON-comparable form of one answer: metadata, columns, rows."""
    return json.loads(json.dumps({
        "metadata": answer.metadata(),
        "variables": [str(var) for var in answer.result.variables],
        "rows": [
            {str(var): term_to_json(term) for var, term in row.items()}
            for row in answer.result.rows
        ],
    }, sort_keys=True))


def record_all(spill: bool = False) -> dict:
    """Every case of the matrix, keyed by a stable name. With ``spill``
    the caller has set ``REPRO_SKETCH_GROUPS`` below the group count."""
    engine = QueryEngine(golden_store())
    cases: dict = {}
    if spill:
        for budget_name, max_rows in BUDGETS.items():
            for name in ("grouped_count", "grouped_mix"):
                cases[f"spill/{name}/{budget_name}"] = snapshot(
                    sketched_select(engine, SKETCHED[name], max_rows=max_rows)
                )
        return cases
    for budget_name, max_rows in BUDGETS.items():
        for name, text in UNGROUPED.items():
            cases[f"{name}/{budget_name}"] = snapshot(
                approximate_select(engine, text, max_rows=max_rows)
            )
        for name, text in SKETCHED.items():
            cases[f"{name}/{budget_name}"] = snapshot(
                sketched_select(engine, text, max_rows=max_rows)
            )
    for name in PASSES:
        for budget_name, max_rows in (("exhausting", 2_000), ("cutting", 400)):
            cases[f"passes/{name}/{budget_name}"] = [
                snapshot(bundle_to_answer(bundle))
                for bundle in iter_sketch_passes(
                    engine, SKETCHED[name], max_rows=max_rows, passes=4
                )
            ]
    return cases


def _record_everything() -> dict:
    import os

    golden = {"plain": record_all()}
    os.environ["REPRO_SKETCH_GROUPS"] = "3"
    try:
        golden["spill"] = record_all(spill=True)
    finally:
        del os.environ["REPRO_SKETCH_GROUPS"]
    return golden


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_matrix_matches_fixture(golden):
    assert record_all() == golden["plain"]


def test_spilled_groups_match_fixture(golden, monkeypatch):
    monkeypatch.setenv("REPRO_SKETCH_GROUPS", "3")
    assert record_all(spill=True) == golden["spill"]


def test_fixture_covers_both_budgets_and_passes(golden):
    plain = golden["plain"]
    for name in (*UNGROUPED, *SKETCHED):
        assert plain[f"{name}/exhausting"]["rows"]
        assert f"{name}/cutting" in plain
    # the matrix exercises both exact recovery and real approximation
    assert not plain["count_star/exhausting"]["metadata"]["approximate"]
    assert plain["count_star/cutting"]["metadata"]["approximate"]
    assert golden["spill"]["spill/grouped_count/exhausting"]["metadata"][
        "other_groups"
    ] > 0
    assert len(plain["passes/grouped_count/cutting"]) == 4


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps(_record_everything(), indent=1, sort_keys=True) + "\n"
    )
