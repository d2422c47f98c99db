"""EXPLAIN output of the BGP lowering must not drift.

The texts and estimates below were recorded from the planner while the
iterator and vectorized engines each had their own BGP lowering; they hold
the single lowering to exactly the same operator trees, filter placement,
late-materialization prunes and estimates. Unoptimized plans never
vectorize, so both engines share the ``unoptimized`` entry.
"""

import pytest

from repro.rdf.terms import IRI, Literal, Triple
from repro.sparql import QueryEngine
from repro.store import MemoryStore

EX = "http://example.org/"
P = "PREFIX ex: <http://example.org/> "
QUERIES = {
    "single_component": P + (
        "SELECT * WHERE { ?s ex:value ?v . ?s ex:label ?l . ?s ex:cat ?c }"
    ),
    "cross_component_filter": P + (
        "SELECT * WHERE { ?a ex:value ?x . ?a ex:label ?l . "
        "?b ex:value ?y . ?b ex:cat ?c FILTER(?x < ?y) }"
    ),
    "filter_in_component": P + (
        "SELECT * WHERE { ?s ex:value ?v . ?s ex:label ?l . ?s ex:cat ?k "
        'FILTER(?l != "L0") . ?t ex:cat ?c FILTER(?c != ex:c0) }'
    ),
    "empty_bgp_filter": P + "SELECT * WHERE { FILTER(?x < 2) }",
    "unbound_filter": P + "SELECT * WHERE { ?s ex:value ?v FILTER(?z > 1) }",
    "prune_two_components": P + (
        "SELECT ?s WHERE { ?s ex:value ?v FILTER(?v > 2) . ?t ex:cat ?c }"
    ),
    "prune_extra_decoded": P + (
        "SELECT ?s WHERE { ?s ex:value ?v . ?s ex:label ?l FILTER(?v > 2) }"
    ),
}

GOLDEN = {
    ('single_component', 'iterator'): (
        "\n".join([
            'Project *  (est=0.6 actual=-)',
            '  NestedLoopJoin  (est=0.6 actual=-)',
            '    NestedLoopJoin  (est=1.1 actual=-)',
            '      IndexScan ?s <http://example.org/cat> ?c  (est=4.0 actual=-)',
            '      IndexScan ?s <http://example.org/label> ?l  (est=6.0 actual=-)',
            '    IndexScan ?s <http://example.org/value> ?v  (est=12.0 actual=-)',
        ]),
        (0.5950413223140495, 0.5950413223140495, 1.0909090909090908, 4.0, 6.0, 12.0),
    ),
    ('single_component', 'vectorized'): (
        "\n".join([
            'Project *  (est=0.6 actual=-)',
            '  VectorizedBGP binary[acyclic]  (est=0.6 actual=-)',
            '    IdScan ?s <http://example.org/cat> ?c  (est=4.0 actual=-)',
            '    IdScan ?s <http://example.org/label> ?l  (est=6.0 actual=-)',
            '    IdScan ?s <http://example.org/value> ?v  (est=12.0 actual=-)',
        ]),
        (0.5950413223140495, 0.5950413223140495, 4.0, 6.0, 12.0),
    ),
    ('single_component', 'unoptimized'): (
        "\n".join([
            'Project *  (est=? actual=-)',
            '  NestedLoopJoin  (est=? actual=-)',
            '    NestedLoopJoin  (est=? actual=-)',
            '      IndexScan ?s <http://example.org/value> ?v  (est=? actual=-)',
            '      IndexScan ?s <http://example.org/label> ?l  (est=? actual=-)',
            '    IndexScan ?s <http://example.org/cat> ?c  (est=? actual=-)',
        ]),
        (None, None, None, None, None, None),
    ),
    ('cross_component_filter', 'iterator'): (
        "\n".join([
            'Project *  (est=2.4 actual=-)',
            '  Filter (?x < ?y)  (est=2.4 actual=-)',
            '    HashJoin  (est=7.1 actual=-)',
            '      NestedLoopJoin  (est=2.2 actual=-)',
            '        IndexScan ?b <http://example.org/cat> ?c  (est=4.0 actual=-)',
            '        IndexScan ?b <http://example.org/value> ?y  (est=12.0 actual=-)',
            '      NestedLoopJoin  (est=3.3 actual=-)',
            '        IndexScan ?a <http://example.org/label> ?l  (est=6.0 actual=-)',
            '        IndexScan ?a <http://example.org/value> ?x  (est=12.0 actual=-)',
        ]),
        (2.3801652892561984, 2.3801652892561984, 7.140495867768595, 2.1818181818181817, 4.0, 12.0, 3.272727272727273, 6.0, 12.0),
    ),
    ('cross_component_filter', 'vectorized'): (
        "\n".join([
            'Project *  (est=2.4 actual=-)',
            '  Filter (?x < ?y)  (est=2.4 actual=-)',
            '    HashJoin  (est=7.1 actual=-)',
            '      VectorizedBGP binary[acyclic]  (est=2.2 actual=-)',
            '        IdScan ?b <http://example.org/cat> ?c  (est=4.0 actual=-)',
            '        IdScan ?b <http://example.org/value> ?y  (est=12.0 actual=-)',
            '      VectorizedBGP binary[acyclic]  (est=3.3 actual=-)',
            '        IdScan ?a <http://example.org/label> ?l  (est=6.0 actual=-)',
            '        IdScan ?a <http://example.org/value> ?x  (est=12.0 actual=-)',
        ]),
        (2.3801652892561984, 2.3801652892561984, 7.140495867768595, 2.1818181818181817, 4.0, 12.0, 3.272727272727273, 6.0, 12.0),
    ),
    ('cross_component_filter', 'unoptimized'): (
        "\n".join([
            'Project *  (est=? actual=-)',
            '  Filter (?x < ?y)  (est=? actual=-)',
            '    NestedLoopJoin  (est=? actual=-)',
            '      NestedLoopJoin  (est=? actual=-)',
            '        NestedLoopJoin  (est=? actual=-)',
            '          IndexScan ?a <http://example.org/value> ?x  (est=? actual=-)',
            '          IndexScan ?a <http://example.org/label> ?l  (est=? actual=-)',
            '        IndexScan ?b <http://example.org/value> ?y  (est=? actual=-)',
            '      IndexScan ?b <http://example.org/cat> ?c  (est=? actual=-)',
        ]),
        (None, None, None, None, None, None, None, None, None),
    ),
    ('filter_in_component', 'iterator'): (
        "\n".join([
            'Project *  (est=0.3 actual=-)',
            '  HashJoin  (est=0.3 actual=-)',
            '    NestedLoopJoin  (est=0.2 actual=-)',
            '      Filter (?l != "L0")  (est=0.4 actual=-)',
            '        NestedLoopJoin  (est=1.1 actual=-)',
            '          IndexScan ?s <http://example.org/cat> ?k  (est=4.0 actual=-)',
            '          IndexScan ?s <http://example.org/label> ?l  (est=6.0 actual=-)',
            '      IndexScan ?s <http://example.org/value> ?v  (est=12.0 actual=-)',
            '    Filter (?c != <http://example.org/c0>)  (est=1.3 actual=-)',
            '      IndexScan ?t <http://example.org/cat> ?c  (est=4.0 actual=-)',
        ]),
        (0.2644628099173553, 0.2644628099173553, 0.1983471074380165, 0.3636363636363636, 1.0909090909090908, 4.0, 6.0, 12.0, 1.3333333333333333, 4.0),
    ),
    ('filter_in_component', 'vectorized'): (
        "\n".join([
            'Project *  (est=0.3 actual=-)',
            '  HashJoin  (est=0.3 actual=-)',
            '    VectorizedBGP binary[acyclic]  (est=0.2 actual=-)',
            '      IdScan ?s <http://example.org/cat> ?k  (est=4.0 actual=-)',
            '      IdScan ?s <http://example.org/label> ?l  (est=6.0 actual=-)',
            '      IdScan ?s <http://example.org/value> ?v  (est=12.0 actual=-)',
            '    VectorizedBGP binary[single-pattern]  (est=1.3 actual=-)',
            '      IdScan ?t <http://example.org/cat> ?c  (est=4.0 actual=-)',
        ]),
        (0.2644628099173553, 0.2644628099173553, 0.1983471074380165, 4.0, 6.0, 12.0, 1.3333333333333333, 4.0),
    ),
    ('filter_in_component', 'unoptimized'): (
        "\n".join([
            'Project *  (est=? actual=-)',
            '  Filter (?c != <http://example.org/c0>)  (est=? actual=-)',
            '    Filter (?l != "L0")  (est=? actual=-)',
            '      NestedLoopJoin  (est=? actual=-)',
            '        NestedLoopJoin  (est=? actual=-)',
            '          NestedLoopJoin  (est=? actual=-)',
            '            IndexScan ?s <http://example.org/value> ?v  (est=? actual=-)',
            '            IndexScan ?s <http://example.org/label> ?l  (est=? actual=-)',
            '          IndexScan ?s <http://example.org/cat> ?k  (est=? actual=-)',
            '        IndexScan ?t <http://example.org/cat> ?c  (est=? actual=-)',
        ]),
        (None, None, None, None, None, None, None, None, None, None),
    ),
    ('empty_bgp_filter', 'iterator'): (
        "\n".join([
            'Project *  (est=0.3 actual=-)',
            '  Filter (?x < "2"^^<http://www.w3.org/2001/XMLSchema#integer>)  (est=0.3 actual=-)',
            '    Singleton  (est=1.0 actual=-)',
        ]),
        (0.3333333333333333, 0.3333333333333333, 1.0),
    ),
    ('empty_bgp_filter', 'vectorized'): (
        "\n".join([
            'Project *  (est=0.3 actual=-)',
            '  Filter (?x < "2"^^<http://www.w3.org/2001/XMLSchema#integer>)  (est=0.3 actual=-)',
            '    Singleton  (est=1.0 actual=-)',
        ]),
        (0.3333333333333333, 0.3333333333333333, 1.0),
    ),
    ('empty_bgp_filter', 'unoptimized'): (
        "\n".join([
            'Project *  (est=? actual=-)',
            '  Filter (?x < "2"^^<http://www.w3.org/2001/XMLSchema#integer>)  (est=? actual=-)',
            '    Singleton  (est=? actual=-)',
        ]),
        (None, None, None),
    ),
    ('unbound_filter', 'iterator'): (
        "\n".join([
            'Project *  (est=4.0 actual=-)',
            '  Filter (?z > "1"^^<http://www.w3.org/2001/XMLSchema#integer>)  (est=4.0 actual=-)',
            '    IndexScan ?s <http://example.org/value> ?v  (est=12.0 actual=-)',
        ]),
        (4.0, 4.0, 12.0),
    ),
    ('unbound_filter', 'vectorized'): (
        "\n".join([
            'Project *  (est=4.0 actual=-)',
            '  Filter (?z > "1"^^<http://www.w3.org/2001/XMLSchema#integer>)  (est=4.0 actual=-)',
            '    VectorizedBGP binary[single-pattern]  (est=12.0 actual=-)',
            '      IdScan ?s <http://example.org/value> ?v  (est=12.0 actual=-)',
        ]),
        (4.0, 4.0, 12.0, 12.0),
    ),
    ('unbound_filter', 'unoptimized'): (
        "\n".join([
            'Project *  (est=? actual=-)',
            '  Filter (?z > "1"^^<http://www.w3.org/2001/XMLSchema#integer>)  (est=? actual=-)',
            '    IndexScan ?s <http://example.org/value> ?v  (est=? actual=-)',
        ]),
        (None, None, None),
    ),
    ('prune_two_components', 'iterator'): (
        "\n".join([
            'Project ?s  (est=16.0 actual=-)',
            '  Prune ?s  (est=16.0 actual=-)',
            '    HashJoin  (est=16.0 actual=-)',
            '      IndexScan ?t <http://example.org/cat> ?c  (est=4.0 actual=-)',
            '      Filter (?v > "2"^^<http://www.w3.org/2001/XMLSchema#integer>)  (est=4.0 actual=-)',
            '        IndexScan ?s <http://example.org/value> ?v  (est=12.0 actual=-)',
        ]),
        (16.0, 16.0, 16.0, 4.0, 4.0, 12.0),
    ),
    ('prune_two_components', 'vectorized'): (
        "\n".join([
            'Project ?s  (est=16.0 actual=-)',
            '  Prune ?s  (est=16.0 actual=-)',
            '    HashJoin  (est=16.0 actual=-)',
            '      VectorizedBGP binary[single-pattern] decode=∅  (est=4.0 actual=-)',
            '        IdScan ?t <http://example.org/cat> ?c  (est=4.0 actual=-)',
            '      VectorizedBGP binary[single-pattern] decode=?s,?v  (est=4.0 actual=-)',
            '        IdScan ?s <http://example.org/value> ?v  (est=12.0 actual=-)',
        ]),
        (16.0, 16.0, 16.0, 4.0, 4.0, 4.0, 12.0),
    ),
    ('prune_two_components', 'unoptimized'): (
        "\n".join([
            'Project ?s  (est=? actual=-)',
            '  Filter (?v > "2"^^<http://www.w3.org/2001/XMLSchema#integer>)  (est=? actual=-)',
            '    NestedLoopJoin  (est=? actual=-)',
            '      IndexScan ?s <http://example.org/value> ?v  (est=? actual=-)',
            '      IndexScan ?t <http://example.org/cat> ?c  (est=? actual=-)',
        ]),
        (None, None, None, None, None),
    ),
    ('prune_extra_decoded', 'iterator'): (
        "\n".join([
            'Project ?s  (est=1.1 actual=-)',
            '  Prune ?s  (est=1.1 actual=-)',
            '    Filter (?v > "2"^^<http://www.w3.org/2001/XMLSchema#integer>)  (est=1.1 actual=-)',
            '      NestedLoopJoin  (est=3.3 actual=-)',
            '        IndexScan ?s <http://example.org/label> ?l  (est=6.0 actual=-)',
            '        IndexScan ?s <http://example.org/value> ?v  (est=12.0 actual=-)',
        ]),
        (1.090909090909091, 1.090909090909091, 1.090909090909091, 3.272727272727273, 6.0, 12.0),
    ),
    ('prune_extra_decoded', 'vectorized'): (
        "\n".join([
            'Project ?s  (est=1.1 actual=-)',
            '  Prune ?s  (est=1.1 actual=-)',
            '    VectorizedBGP binary[acyclic] decode=?s,?v  (est=1.1 actual=-)',
            '      IdScan ?s <http://example.org/label> ?l  (est=6.0 actual=-)',
            '      IdScan ?s <http://example.org/value> ?v  (est=12.0 actual=-)',
        ]),
        (1.090909090909091, 1.090909090909091, 1.090909090909091, 6.0, 12.0),
    ),
    ('prune_extra_decoded', 'unoptimized'): (
        "\n".join([
            'Project ?s  (est=? actual=-)',
            '  Filter (?v > "2"^^<http://www.w3.org/2001/XMLSchema#integer>)  (est=? actual=-)',
            '    NestedLoopJoin  (est=? actual=-)',
            '      IndexScan ?s <http://example.org/value> ?v  (est=? actual=-)',
            '      IndexScan ?s <http://example.org/label> ?l  (est=? actual=-)',
        ]),
        (None, None, None, None, None),
    ),
}


@pytest.fixture(scope="module")
def store():
    triples = []
    for i in range(12):
        subject = IRI(f"{EX}e{i}")
        triples.append(Triple(subject, IRI(EX + "value"), Literal(i)))
        if i % 2 == 0:
            triples.append(Triple(subject, IRI(EX + "label"), Literal(f"L{i}")))
        if i % 3 == 0:
            triples.append(Triple(subject, IRI(EX + "cat"), IRI(f"{EX}c{i % 4}")))
    return MemoryStore(triples)


def _explain(store, text, **engine_options):
    node = QueryEngine(store, **engine_options).explain(text, analyze=False)
    return node.render(), tuple(n.estimated_rows for n in node.walk())


@pytest.mark.parametrize("name", sorted(QUERIES))
@pytest.mark.parametrize("mode", ["iterator", "vectorized"])
def test_optimized_explain_is_byte_identical(store, name, mode):
    assert _explain(store, QUERIES[name], exec_mode=mode) == GOLDEN[(name, mode)]


@pytest.mark.parametrize("name", sorted(QUERIES))
@pytest.mark.parametrize("mode", ["iterator", "vectorized"])
def test_unoptimized_explain_is_byte_identical(store, name, mode):
    assert _explain(
        store, QUERIES[name], optimize=False, exec_mode=mode
    ) == GOLDEN[(name, "unoptimized")]
