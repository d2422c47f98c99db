"""Plan digests are query-log and result-cache keys: they must not drift.

The values below were recorded from the engine before the form dispatch
of the digest and of execution became one function; any change to them
silently splits every stored query-log digest from its future records.
Each entry is ``(optimized, unoptimized)``.
"""

import pytest

from repro.sparql import QueryEngine, parse_query
from repro.sparql.plan import plan_query, query_digest
from repro.store import MemoryStore

P = "PREFIX ex: <http://example.org/> "
QUERIES = {
    "select": P + (
        "SELECT ?s ?v WHERE { ?s ex:value ?v . ?s ex:label ?l "
        "FILTER(?v > 1 + 2) } LIMIT 5"
    ),
    "select_all": P + (
        "SELECT * WHERE { ?s ex:value ?v OPTIONAL { ?s ex:label ?l } }"
    ),
    "aggregate": P + (
        "SELECT ?c (COUNT(*) AS ?n) WHERE { ?s ex:cat ?c ; ex:value ?v } "
        "GROUP BY ?c"
    ),
    "ask": P + "ASK { ?s ex:value ?v FILTER(?v > 3) }",
    "construct": P + (
        "CONSTRUCT { ?s ex:seen ?v } WHERE { ?s ex:value ?v . "
        "?s ex:label ?l FILTER(?v >= 2 * 2) } LIMIT 4 OFFSET 2"
    ),
    "construct_unbounded": P + (
        "CONSTRUCT { ?s ex:seen ?v } WHERE { ?s ex:value ?v }"
    ),
    "describe_where": P + (
        "DESCRIBE ?s WHERE { ?s ex:value ?v FILTER(?v < 2) }"
    ),
    "describe_constant": P + "DESCRIBE ex:a ex:b",
}

GOLDEN = {
    "select": (
        "f1db6d9f88bb279e1b4e01fe3d1f98a7fb2e8027d5e8a27eea9fe230c593781c",
        "1ddd1f4349e38153fcaa5d53db3f590e28b4931758acf62c12dca7a0595d77aa",
    ),
    "select_all": (
        "fb8e70b1a33434e41f5bebe478f7e402e3379af70dd9e1415c01bfca60ad191f",
        "fb8e70b1a33434e41f5bebe478f7e402e3379af70dd9e1415c01bfca60ad191f",
    ),
    "aggregate": (
        "4059491c1e879f3b38d9322daad22733ad60f5aed42d23318fec762bcc8d419b",
        "5373e50b428b0c8fdb5c608ea214480617d71d210d0f3437f53b6e6a26baaa9b",
    ),
    "ask": (
        "37d39576ca0e0a5ecb8375e81404caa6f10829fb31159177f22c618ffb29a2ee",
        "ccfbcd629eec3eedcf247d802117136ab79c88217dad64530871a1450daa34e4",
    ),
    "construct": (
        "2cd30df9c64e771e7a51968867483a91a2462633bf2529ac82a7ece8c72caf78",
        "b5c5b92f78b9993f1a5ef516ffbfb52cd7cd3919eb79828f7b880ae51af1c3a1",
    ),
    "construct_unbounded": (
        "e91bd1e57a976a5d3241c577f1cb63fc968e85a72c10be144100ec89e33818eb",
        "e91bd1e57a976a5d3241c577f1cb63fc968e85a72c10be144100ec89e33818eb",
    ),
    "describe_where": (
        "042acf302e935915caf4cd3beaec3a7b609ad2f69edf46fc0b823311d4ff7989",
        "f2efe620b21b6866617accdcc53cd811df7b654372ab1df53c5f007465db5b52",
    ),
    "describe_constant": (
        "613aa520f2a2df0262a95bd8ee8c878c706d40c2fb16493b4c6097b45b0c7be2",
        "613aa520f2a2df0262a95bd8ee8c878c706d40c2fb16493b4c6097b45b0c7be2",
    ),
}


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_query_digest_is_byte_identical(name):
    parsed = parse_query(QUERIES[name])
    optimized, unoptimized = GOLDEN[name]
    assert query_digest(parsed) == optimized
    assert query_digest(parsed, optimize=False) == unoptimized


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_engine_keys_on_the_same_digest(name):
    optimized, unoptimized = GOLDEN[name]
    store = MemoryStore()
    assert QueryEngine(store).plan_digest(QUERIES[name]) == optimized
    assert QueryEngine(store, optimize=False).plan_digest(
        QUERIES[name]
    ) == unoptimized


def test_construct_window_executes_as_a_slice_but_keys_through_extra():
    plan = plan_query(parse_query(QUERIES["construct"]))
    assert plan.root.input == plan.keyed
    assert plan.extra.endswith("|4|2")


def test_describe_without_where_has_no_executable_plan():
    plan = plan_query(parse_query(QUERIES["describe_constant"]))
    assert plan.root is None and plan.form == "DESCRIBE"
