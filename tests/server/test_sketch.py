"""The sketch serving tier: eligibility, bundles, answers, progressive
passes, and the federation merge — everything short of a live wire
(tests/integration/test_federation_wire.py covers that).
"""

import random

import pytest

from repro.rdf.terms import IRI, Literal, Triple, Variable
from repro.server.sketch import (
    SketchBundle,
    build_sketch_bundle,
    bundle_to_answer,
    eligible_sketch,
    federated_sketch_select,
    iter_sketch_passes,
    merge_bundles,
    sketched_select,
)
from repro.sparql.eval import QueryEngine
from repro.sparql.parser import parse_query
from repro.store.federated import FederatedStore
from repro.store.memory import MemoryStore

EX = "http://example.org/"
GROUPED_QUERY = (
    "SELECT ?c (COUNT(*) AS ?n) WHERE { ?s ?p ?c } GROUP BY ?c"
)
DISTINCT_QUERY = (
    "SELECT (COUNT(DISTINCT ?c) AS ?n) WHERE { ?s ?p ?c }"
)


def grouped_store(n: int = 2_000, groups: int = 8, seed: int = 42):
    """A store whose full-wildcard scan interleaves groups.

    Full scans iterate the SPO index in subject-insertion order, so a
    *randomized* group assignment makes every prefix an (approximately)
    exchangeable sample — the assumption the grouped scale-up leans on.
    Returns (store, exact per-group counts keyed by the object IRI).
    """
    rng = random.Random(seed)
    store = MemoryStore()
    truth: dict = {}
    for index in range(n):
        group = IRI(f"{EX}cls{rng.randrange(groups)}")
        store.add(Triple(IRI(f"{EX}item/{index}"), IRI(EX + "type"), group))
        truth[group] = truth.get(group, 0) + 1
    return store, truth


class TestEligibility:
    @pytest.mark.parametrize("text", [
        GROUPED_QUERY,
        "SELECT ?c (SUM(?v) AS ?t) WHERE { ?s ?p ?v } GROUP BY ?c",
        "SELECT ?c (AVG(?v) AS ?m) (COUNT(?v) AS ?n) "
        "WHERE { ?c <http://example.org/value> ?v } GROUP BY ?c",
        DISTINCT_QUERY,
        "SELECT (COUNT(DISTINCT ?s) AS ?a) (COUNT(DISTINCT ?o) AS ?b) "
        "WHERE { ?s ?p ?o }",
    ])
    def test_eligible(self, text):
        assert eligible_sketch(parse_query(text))

    @pytest.mark.parametrize("text", [
        "SELECT ?s WHERE { ?s ?p ?o }",  # no aggregate
        "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }",  # ungrouped plain
        # COUNT: approximate.py's sample path owns it
        "SELECT ?c (MIN(?v) AS ?m) WHERE { ?s ?p ?v } GROUP BY ?c",
        "SELECT ?c (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s ?p ?o } "
        "GROUP BY ?c",  # grouped DISTINCT: un-mergeable under spill
        "SELECT ?c (COUNT(*) AS ?n) WHERE { ?s ?p ?c } GROUP BY ?c "
        "HAVING (COUNT(*) > 3)",
        "SELECT ?c (COUNT(*) AS ?n) WHERE { ?s ?p ?c } GROUP BY ?c "
        "ORDER BY ?n",
        "SELECT ?c (COUNT(*) AS ?n) WHERE { ?s ?p ?c } GROUP BY ?c "
        "LIMIT 3",
        "ASK { ?s ?p ?o }",
    ])
    def test_ineligible(self, text):
        assert not eligible_sketch(parse_query(text))

    def test_build_rejects_ineligible(self):
        engine = QueryEngine(grouped_store(10)[0])
        with pytest.raises(ValueError):
            build_sketch_bundle(engine, "SELECT ?s WHERE { ?s ?p ?o }")


class TestGroupedAnswers:
    def test_exact_when_stream_exhausts(self):
        store, truth = grouped_store(300)
        answer = sketched_select(
            QueryEngine(store), GROUPED_QUERY, max_rows=10_000
        )
        assert not answer.approximate
        assert answer.method == "exact"
        counts = {
            row[Variable("c")]: row[Variable("n")].value
            for row in answer.result.rows
        }
        assert counts == truth
        assert all(bound == 0.0 for bound in answer.bounds.values())

    def test_budgeted_estimates_within_declared_bound(self):
        """The bound is a *per-group marginal* interval: at 95% an
        occasional group may land outside it (8 groups → expect ~0.4
        misses), so coverage is asserted per the declared confidence —
        and the same data must sit fully inside the wider 99% interval
        (deterministic here: fixed seed, fixed scan order)."""
        store, truth = grouped_store(4_000)
        answer = sketched_select(
            QueryEngine(store), GROUPED_QUERY, max_rows=600
        )
        assert answer.approximate
        assert answer.method == "sketch"
        assert answer.rows_consumed == 600
        bound = answer.bounds["n"]
        assert bound > 0
        errors = [
            abs(row[Variable("n")].value - truth[row[Variable("c")]])
            for row in answer.result.rows
        ]
        assert sum(1 for e in errors if e <= bound) >= 7  # of 8 groups
        wide = sketched_select(
            QueryEngine(store), GROUPED_QUERY, max_rows=600,
            confidence=0.99,
        )
        assert all(e <= wide.bounds["n"] for e in errors)

    def test_rows_ordered_by_estimated_group_size(self):
        store, _truth = grouped_store(2_000)
        answer = sketched_select(
            QueryEngine(store), GROUPED_QUERY, max_rows=500
        )
        sizes = [row[Variable("n")].value for row in answer.result.rows]
        assert sizes == sorted(sizes, reverse=True)

    def test_group_budget_spill_reports_other_groups(self, monkeypatch):
        monkeypatch.setenv("REPRO_SKETCH_GROUPS", "4")
        store, truth = grouped_store(2_000, groups=12)
        answer = sketched_select(
            QueryEngine(store), GROUPED_QUERY, max_rows=10_000
        )
        # exhausted, but spilled groups make the answer approximate
        assert answer.approximate
        assert len(answer.result.rows) <= 4
        metadata = answer.metadata()
        assert metadata["other_groups"] > 0

    def test_avg_and_sum_track_group_statistics(self):
        rng = random.Random(9)
        store = MemoryStore()
        totals: dict = {}
        counts: dict = {}
        for index in range(1_200):
            group = f"g{rng.randrange(4)}"
            value = rng.uniform(0, 10)
            store.add(Triple(
                IRI(f"{EX}row/{index}"), IRI(EX + group), Literal(value)
            ))
            totals[group] = totals.get(group, 0.0) + value
            counts[group] = counts.get(group, 0) + 1
        answer = sketched_select(
            QueryEngine(store),
            "SELECT ?p (AVG(?v) AS ?m) (SUM(?v) AS ?t) "
            "WHERE { ?s ?p ?v } GROUP BY ?p",
            max_rows=10_000,
        )
        assert not answer.approximate
        for row in answer.result.rows:
            group = str(row[Variable("p")]).rsplit("/", 1)[-1]
            assert row[Variable("m")].value == pytest.approx(
                totals[group] / counts[group]
            )
            assert row[Variable("t")].value == pytest.approx(totals[group])


    def test_aliased_group_key_binds_the_alias(self):
        """A covering budget makes the sketch answer exact, so it must
        match the exact engine row for row, alias included."""
        store, _truth = grouped_store(300)
        text = (
            "SELECT (?c AS ?h) (COUNT(*) AS ?n) WHERE { ?s ?p ?c } "
            "GROUP BY ?c"
        )
        engine = QueryEngine(store)
        answer = sketched_select(engine, text, max_rows=10_000)
        assert not answer.approximate
        exact = engine.query(text)

        def rows(result):
            return sorted(
                sorted((str(var), str(term)) for var, term in row.items())
                for row in result.rows
            )

        assert answer.result.variables == exact.variables
        assert rows(answer.result) == rows(exact)


class TestPatternPlan:
    """The sketch stream is cut from the aggregate's own plan; it must be
    the plan a ``SELECT *`` over the same WHERE gets, digest included."""

    @pytest.mark.parametrize("optimize", [True, False])
    @pytest.mark.parametrize("text", [
        GROUPED_QUERY,
        DISTINCT_QUERY,
        "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }",
        "SELECT ?c (SUM(?v) AS ?t) WHERE { ?s ?p ?c . ?s ?q ?v "
        "FILTER(?v > 1 + 1) OPTIONAL { ?s ?r ?w } } GROUP BY ?c",
    ])
    def test_matches_select_all_plan(self, text, optimize):
        from repro.server.sketch import _pattern_plan
        from repro.sparql.nodes import SelectQuery
        from repro.sparql.plan import plan_query

        parsed = parse_query(text)
        cut = _pattern_plan(plan_query(parsed, optimize))
        planned = plan_query(
            SelectQuery(projections=(), where=parsed.where), optimize
        )
        assert cut.root == planned.root
        assert cut.digest == planned.digest


class TestDistinctAnswers:
    def test_distinct_drains_whole_stream(self):
        store, truth = grouped_store(3_000, groups=10)
        answer = sketched_select(
            QueryEngine(store), DISTINCT_QUERY, max_rows=100
        )
        # the row budget does NOT cap a distinct count: every row fed
        assert answer.rows_consumed == 3_000
        assert answer.approximate  # HLL bound holds but is never zero
        estimate = answer.result.rows[0][Variable("n")].value
        assert abs(estimate - len(truth)) <= max(1, answer.bounds["n"])


class TestBundleWire:
    def test_roundtrip_then_render(self):
        store, _truth = grouped_store(1_000)
        bundle = build_sketch_bundle(
            QueryEngine(store), GROUPED_QUERY, max_rows=400
        )
        clone = SketchBundle.from_dict(bundle.to_dict())
        original = bundle_to_answer(bundle)
        restored = bundle_to_answer(clone)
        assert restored.result.rows == original.result.rows
        assert restored.bounds == original.bounds
        assert restored.metadata() == original.metadata()

    def test_version_guard(self):
        store, _truth = grouped_store(50)
        payload = build_sketch_bundle(
            QueryEngine(store), GROUPED_QUERY
        ).to_dict()
        payload["v"] = 99
        with pytest.raises(ValueError):
            SketchBundle.from_dict(payload)

    def test_mismatched_bundles_refuse_to_merge(self):
        store, _truth = grouped_store(50)
        engine = QueryEngine(store)
        grouped = build_sketch_bundle(engine, GROUPED_QUERY)
        distinct = build_sketch_bundle(engine, DISTINCT_QUERY)
        with pytest.raises(ValueError):
            grouped.merge(distinct)

    def test_merge_of_shards_matches_whole_within_bound(self):
        """The coordinator law at bundle level: shard the triples across
        three stores, sketch each, merge — group counts must agree with
        sketching the union store (all exhausted, so both are exact)."""
        store, truth = grouped_store(1_500)
        shards = [MemoryStore() for _ in range(3)]
        for index, triple in enumerate(store.triples((None, None, None))):
            shards[index % 3].add(triple)
        merged = merge_bundles([
            build_sketch_bundle(
                QueryEngine(shard), GROUPED_QUERY, max_rows=10_000
            )
            for shard in shards
        ])
        answer = bundle_to_answer(merged)
        assert not answer.approximate
        counts = {
            row[Variable("c")]: row[Variable("n")].value
            for row in answer.result.rows
        }
        assert counts == truth


class TestFederatedSelect:
    def test_local_federation_merges_members(self):
        store, truth = grouped_store(1_200)
        shard_a, shard_b = MemoryStore(), MemoryStore()
        for index, triple in enumerate(store.triples((None, None, None))):
            (shard_a if index % 2 else shard_b).add(triple)
        federated = FederatedStore([("a", shard_a), ("b", shard_b)])
        parsed = parse_query(GROUPED_QUERY)
        answer = federated_sketch_select(
            federated, GROUPED_QUERY, parsed, max_rows=10_000
        )
        assert answer is not None
        assert not answer.approximate  # both members exhausted
        counts = {
            row[Variable("c")]: row[Variable("n")].value
            for row in answer.result.rows
        }
        assert counts == truth

    def test_non_federation_returns_none(self):
        store, _truth = grouped_store(20)
        parsed = parse_query(GROUPED_QUERY)
        assert federated_sketch_select(
            store, GROUPED_QUERY, parsed
        ) is None


class TestProgressivePasses:
    def test_bounds_tighten_and_converge(self):
        store, truth = grouped_store(4_000)
        engine = QueryEngine(store)
        bounds = []
        final = None
        for bundle in iter_sketch_passes(
            engine, GROUPED_QUERY, max_rows=4_000 * 2, passes=4
        ):
            answer = bundle_to_answer(bundle)
            if answer.approximate:
                bounds.append(answer.bounds["n"])
            final = answer
        assert len(bounds) >= 2
        assert bounds == sorted(bounds, reverse=True)  # monotone tightening
        # the budget exceeds the store, so the last pass is exact
        assert final is not None and not final.approximate
        counts = {
            row[Variable("c")]: row[Variable("n")].value
            for row in final.result.rows
        }
        assert counts == truth

    def test_budget_caps_total_rows(self):
        store, _truth = grouped_store(4_000)
        bundles = list(iter_sketch_passes(
            QueryEngine(store), GROUPED_QUERY, max_rows=800, passes=4
        ))
        assert bundles[-1].rows_consumed == 800
        assert not bundles[-1].exhausted
        assert [b.rows_consumed for b in bundles] == [200, 400, 600, 800]
