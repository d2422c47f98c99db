"""Expected answers computed from the generated records, not by ``repro``.

Rows reach the oracle as ``{variable name: (type, value, datatype)}``
dicts, the results-JSON shape of each bound term (``datatype`` is
``None`` for IRIs and plain strings). ``check`` returns ``None`` for a
correct answer and a one-line reason otherwise.

A ``population`` bound lets the ``ingest`` workload ask about the store
as it was when a read ran: entities ``0 .. population-1`` existed.
"""

from __future__ import annotations

from collections import Counter

from datagen import CLASSES, EX, XSD_INTEGER, Entity, Request, category_iri

Row = dict[str, tuple[str, str, "str | None"]]

_ENTITY_PREFIX = EX + "e"


class Oracle:
    def __init__(self) -> None:
        self.entities: list[Entity] = []
        self.by_class: list[list[Entity]] = [[] for _ in range(CLASSES)]

    def add(self, entities: list[Entity]) -> None:
        for entity in entities:
            if entity.index != len(self.entities):
                raise ValueError("entities must arrive in index order")
            self.entities.append(entity)
            self.by_class[entity.cls].append(entity)

    def check(self, request: Request, rows: list[Row],
              population: int | None = None) -> str | None:
        if population is None:
            population = len(self.entities)
        method = getattr(self, f"_check_{request.kind}")
        return method(request.params, rows, population)

    def _members(self, cls: int, population: int) -> list[Entity]:
        return [entity for entity in self.by_class[cls]
                if entity.index < population]

    # ------------------------------------------------------------------ #

    def _check_lookup(self, params, rows, population) -> str | None:
        (index,) = params
        if index >= population:
            return f"lookup of e{index}, which does not exist yet"
        expected = Counter(
            (p, o) for _s, p, o in self.entities[index].triples()
        )
        actual = Counter(
            (_iri(row.get("p")), row.get("o")) for row in rows
        )
        if actual != expected:
            return f"e{index}: {len(rows)} rows differ from its " \
                   f"{sum(expected.values())} triples"
        return None

    def _check_list(self, params, rows, population) -> str | None:
        cls, threshold, limit = params
        matching = {
            entity.index: entity.num0
            for entity in self._members(cls, population)
            if entity.num0 > threshold
        }
        return _check_limited(rows, "v", matching, limit)

    def _check_star(self, params, rows, population) -> str | None:
        cls, cat, threshold, limit = params
        matching = {
            entity.index: entity.num1
            for entity in self._members(cls, population)
            if entity.cat == cat and entity.num1 < threshold
        }
        return _check_limited(rows, "n", matching, limit)

    def _check_facet(self, params, rows, population) -> str | None:
        cls, threshold = params
        expected = Counter(
            category_iri(entity.cat)
            for entity in self._members(cls, population)
            if entity.num0 >= threshold
        )
        actual: dict[str, int] = {}
        for row in rows:
            category = _iri(row.get("c"))
            count = _integer(row.get("n"))
            if category is None or count is None or category in actual:
                return f"malformed facet row {row}"
            actual[category] = count
        if actual != dict(expected):
            return f"facet counts {actual} != {dict(expected)}"
        return None


def _check_limited(rows: list[Row], value_var: str,
                   matching: dict[int, int], limit: int) -> str | None:
    """Rows are distinct matching entities with their exact value, and
    as many as ``LIMIT`` allows."""
    wanted = min(limit, len(matching))
    if len(rows) != wanted:
        return f"{len(rows)} rows, expected {wanted}"
    seen: set[int] = set()
    for row in rows:
        index = _entity_index(row.get("s"))
        value = _integer(row.get(value_var))
        if index is None or index in seen or index not in matching:
            return f"row {row} does not satisfy the query"
        if value != matching[index]:
            return f"row {row}: value should be {matching[index]}"
        seen.add(index)
    return None


def _iri(term) -> str | None:
    if term is None or term[0] != "uri":
        return None
    return term[1]


def _integer(term) -> int | None:
    if term is None or term[0] != "literal" or term[2] != XSD_INTEGER:
        return None
    try:
        return int(term[1])
    except ValueError:
        return None


def _entity_index(term) -> int | None:
    iri = _iri(term)
    if iri is None or not iri.startswith(_ENTITY_PREFIX):
        return None
    suffix = iri[len(_ENTITY_PREFIX):]
    return int(suffix) if suffix.isdigit() else None

