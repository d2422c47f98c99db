"""The shed tier's approximate answers: one sketch path for every shape.

Survey §2: "approximate answers are computed incrementally over
progressively larger samples" (BlinkDB [2], sampleAction [46]). Instead of
draining the full operator stream, the shed tier consumes at most
``max_rows`` pattern solutions into the mergeable sketches of
:mod:`repro.approx.sketch` (Hillview's model, PAPERS.md) and scales up by
the planner's cardinality estimate. An ungrouped aggregate is a grouped
one with zero keys:

* ungrouped ``COUNT``/``SUM``/``AVG`` (method ``prefix-sample``) — one
  group per aggregate. ``COUNT(*)`` scales to the planner's estimate and,
  because that estimate's error is not probabilistic, carries the coarse
  ``|estimate − seen|`` bound; ``COUNT(?x)`` carries an Agresti–Coull
  binomial bound; ``SUM``/``AVG`` a CLT bound over the numeric fraction.
* ``GROUP BY`` ``COUNT``/``SUM``/``AVG`` (method ``sketch``) — one
  :class:`~repro.approx.sketch.GroupedMomentsSketch` per aggregate under a
  group budget; per-group answers scale up with binomial/CLT intervals.
* ungrouped ``COUNT(DISTINCT ?x)`` (method ``sketch``) — the stream drains
  fully through an HLL. A sample's distinct count cannot be honestly
  extrapolated, so the saving is *memory and data-structure* work (4 KiB
  registers, no exact dedup set), not rows; the declared bound is the HLL
  standard error, which holds regardless of stream length.

``GROUP BY`` over a ``DISTINCT`` aggregate stays ineligible: per-group
HLLs under a group budget would make the "other"-bucket semantics of a
spilled group undefined (you cannot un-merge a distinct set).

Two honesty notes, carried into the response metadata. The consumed
prefix of the operator stream is treated as an exchangeable sample; store
iteration order is index order, so skew in that order — sharpest when the
scan order correlates with a group key — widens real error beyond the
declared interval (the Agresti–Coull widths at least never report
certainty from a one-group prefix). And when an ungrouped
``COUNT``/``SUM``/``AVG`` stream is exhausted under the budget, nothing
needs approximating: the exact engine answers it (the graceful-recovery
property — cheap queries stay exact even in shed mode).

The unit of composition is a :class:`SketchBundle` — the per-projection
sketches plus the sampling frame (rows consumed, estimated total,
exhausted flag). A bundle is itself a mergeable sketch: it serializes to
JSON for the federation wire (``X-Repro-Sketch: 1`` on ``/sparql``),
merges with bundles from other sources, drives the progressive passes
through :class:`~repro.approx.progressive.ProgressiveSketchAggregator`,
and renders into one :class:`ApproximateAnswer`. Merged counts are upper
bounds when sources overlap — the same caveat
:meth:`FederatedStore.statistics` documents — while HLL distinct merges
deduplicate correctly by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from itertools import islice

from ..approx.progressive import (
    ProgressiveSketchAggregator,
    StreamingMoments,
    binomial_halfwidth,
)
from ..approx.sketch import (
    OTHER_BUCKET,
    GroupedMomentsSketch,
    HllSketch,
    SketchEstimate,
    default_groups,
    default_precision,
    deserialize_sketch,
    serialize_sketch,
)
from ..rdf.terms import Literal, Variable
from ..sparql.eval import QueryEngine
from ..sparql.nodes import AggregateExpr, Query, SelectQuery, VariableExpr
from ..sparql.plan import LogicalProject, LogicalPrune, QueryPlan
from ..sparql.results import SelectResult, term_from_json, term_to_json

__all__ = [
    "ApproximateAnswer",
    "eligible_approximate",
    "eligible_aggregate",
    "eligible_sketch",
    "SketchBundle",
    "build_sketch_bundle",
    "merge_bundles",
    "bundle_to_answer",
    "sketched_select",
    "approximate_select",
    "federated_sketch_bundle",
    "federated_sketch_select",
    "iter_sketch_passes",
]

BUNDLE_VERSION = 1
_KINDS = ("COUNT", "SUM", "AVG")
_NO_KEYS = "[]"  # the one group of an ungrouped aggregate (no key terms)


@dataclass(frozen=True)
class ApproximateAnswer:
    """An aggregate answer plus the metadata that makes it honest."""

    result: SelectResult
    approximate: bool
    rows_consumed: int
    estimated_total: int
    confidence: float
    bounds: dict[str, float]  # projection variable -> CI halfwidth
    method: str
    extra: dict[str, object] | None = None  # shape-specific annotations

    def metadata(self) -> dict[str, object]:
        """The ``x-repro`` body member / ``X-Repro-*`` header payload."""
        payload: dict[str, object] = {
            "approximate": self.approximate,
            "method": self.method,
            "rows_consumed": self.rows_consumed,
            "estimated_total": self.estimated_total,
            "confidence": self.confidence,
            "bounds": {
                name: (round(value, 6) if value != float("inf") else "inf")
                for name, value in self.bounds.items()
            },
        }
        if self.extra:
            payload.update(self.extra)
        return payload


# --------------------------------------------------------------------------- #
# Eligibility
# --------------------------------------------------------------------------- #


def _distinct(query: SelectQuery) -> bool:
    return any(
        isinstance(p.expression, AggregateExpr) and p.expression.distinct
        for p in query.projections
    )


def eligible_approximate(query: Query) -> bool:
    """Can the shed tier answer this query approximately?

    Eligible: a SELECT whose GROUP BY keys (if any) are plain variables
    and whose projections are group keys plus ``COUNT``/``SUM``/``AVG``
    aggregates over a variable (or ``COUNT(*)``), at least one of them; or
    an ungrouped SELECT whose every projection is ``COUNT(DISTINCT ?var)``.
    Solution modifiers (HAVING, ORDER BY, LIMIT/OFFSET, SELECT DISTINCT)
    and every other shape are answered exactly regardless of tier.
    """
    if not isinstance(query, SelectQuery) or not query.projections:
        return False
    if query.having is not None or query.order_by:
        return False
    if query.distinct or query.limit is not None or query.offset:
        return False
    if not all(isinstance(e, VariableExpr) for e in query.group_by):
        return False
    group_vars = {e.variable for e in query.group_by}
    aggregates = []
    for projection in query.projections:
        expression = projection.expression
        if expression is None or isinstance(expression, VariableExpr):
            key = projection.variable
            if expression is not None:
                key = expression.variable
            if key not in group_vars:
                return False
            continue
        if not isinstance(expression, AggregateExpr):
            return False
        if expression.name not in _KINDS:
            return False
        if expression.argument is None:
            if expression.name != "COUNT":
                return False
        elif not isinstance(expression.argument, VariableExpr):
            return False
        aggregates.append(expression)
    if not any(e.distinct for e in aggregates):
        return bool(aggregates)
    return not group_vars and all(
        e.distinct and e.name == "COUNT" and e.argument is not None
        for e in aggregates
    )


def eligible_aggregate(query: Query) -> bool:
    """The ungrouped COUNT/SUM/AVG shapes (answered by prefix sample)."""
    return eligible_approximate(query) and not (
        query.group_by or _distinct(query)
    )


def eligible_sketch(query: Query) -> bool:
    """The GROUP BY and COUNT(DISTINCT) shapes (answered by sketch)."""
    return eligible_approximate(query) and bool(
        query.group_by or _distinct(query)
    )


# --------------------------------------------------------------------------- #
# Group-key wire encoding
# --------------------------------------------------------------------------- #


def _group_key(row: dict, group_vars: tuple[Variable, ...]) -> str:
    """Canonical string key for one row's group: the W3C JSON encodings
    of the key terms, in GROUP BY order, as compact sorted JSON — stable
    across processes so federation members agree on group identity."""
    parts = [
        term_to_json(row[var]) if row.get(var) is not None else None
        for var in group_vars
    ]
    return json.dumps(parts, separators=(",", ":"), sort_keys=True)


def _decode_group_key(
    key: str, group_vars: tuple[Variable, ...]
) -> dict[Variable, object]:
    bindings: dict[Variable, object] = {}
    for var, part in zip(group_vars, json.loads(key)):
        if part is not None:
            bindings[var] = term_from_json(part)
    return bindings


def _term_key(term: object) -> str:
    """Canonical identity of one term for distinct counting (same
    encoding as group keys, so hashes agree across processes)."""
    return json.dumps(
        term_to_json(term), separators=(",", ":"), sort_keys=True
    )


# --------------------------------------------------------------------------- #
# The bundle: per-projection sketches + the sampling frame
# --------------------------------------------------------------------------- #


class _Spec:
    """One projection's role in the bundle."""

    __slots__ = ("alias", "role", "kind", "arg", "distinct", "sketch")

    def __init__(self, alias, role, kind=None, arg=None, distinct=False,
                 sketch=None) -> None:
        self.alias = alias  # Variable: the output column
        self.role = role  # "group" | "agg"
        self.kind = kind  # COUNT | SUM | AVG for aggregates
        self.arg = arg  # Variable | None (COUNT(*))
        self.distinct = distinct
        self.sketch = sketch  # HllSketch | GroupedMomentsSketch | None

    def to_dict(self) -> dict:
        payload = {
            "alias": str(self.alias),
            "role": self.role,
        }
        if self.role == "agg":
            payload["kind"] = self.kind
            payload["arg"] = str(self.arg) if self.arg is not None else None
            payload["distinct"] = self.distinct
            payload["sketch"] = serialize_sketch(self.sketch)
        else:
            payload["arg"] = str(self.arg)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "_Spec":
        role = payload["role"]
        arg = payload.get("arg")
        return cls(
            alias=Variable(payload["alias"]),
            role=role,
            kind=payload.get("kind"),
            arg=Variable(arg) if arg is not None else None,
            distinct=bool(payload.get("distinct", False)),
            sketch=(
                deserialize_sketch(payload["sketch"])
                if role == "agg" else None
            ),
        )


class SketchBundle:
    """The mergeable unit one source contributes to an approximate answer.

    It speaks the sketch protocol itself — :meth:`add` one pattern
    solution, :meth:`merge` another bundle, :meth:`estimate` the rows
    behind it — so progressive passes and federation merges are the same
    combine step.
    """

    def __init__(
        self,
        group_vars: tuple[Variable, ...],
        specs: list[_Spec],
        rows_consumed: int,
        estimated_total: int,
        exhausted: bool,
        confidence: float,
    ) -> None:
        self.group_vars = group_vars
        self.specs = specs
        self.rows_consumed = rows_consumed
        self.estimated_total = estimated_total
        self.exhausted = exhausted
        self.confidence = confidence
        self.federated = False  # set by merge_bundles (the coordinator)

    @classmethod
    def empty(cls, parsed: SelectQuery, confidence: float) -> "SketchBundle":
        """A bundle with fresh sketches for an eligible query's shape."""
        specs: list[_Spec] = []
        for projection in parsed.projections:
            expression = projection.expression
            if expression is None or isinstance(expression, VariableExpr):
                underlying = (
                    projection.variable if expression is None
                    else expression.variable
                )
                specs.append(
                    _Spec(projection.variable, "group", arg=underlying)
                )
                continue
            arg = (
                expression.argument.variable
                if isinstance(expression.argument, VariableExpr) else None
            )
            if expression.distinct:
                sketch = HllSketch(
                    precision=default_precision(), confidence=confidence
                )
            else:
                sketch = GroupedMomentsSketch(
                    max_groups=default_groups(), confidence=confidence
                )
            specs.append(_Spec(
                projection.variable, "agg", kind=expression.name, arg=arg,
                distinct=expression.distinct, sketch=sketch,
            ))
        group_vars = tuple(expr.variable for expr in parsed.group_by)
        return cls(group_vars, specs, 0, 0, False, confidence)

    @property
    def agg_specs(self) -> list[_Spec]:
        return [spec for spec in self.specs if spec.role == "agg"]

    @property
    def distinct(self) -> bool:
        return any(spec.distinct for spec in self.specs)

    @property
    def method(self) -> str:
        """How an approximate answer from this bundle was made."""
        if not self.group_vars and not self.distinct:
            return "prefix-sample"
        return "sketch-federated" if self.federated else "sketch"

    @property
    def recovers_exactly(self) -> bool:
        """An exhausted ungrouped COUNT/SUM/AVG saw every row: the exact
        engine answers it instead (graceful recovery)."""
        return self.exhausted and not self.group_vars and not self.distinct

    def add(self, row: dict) -> None:
        """Feed one pattern solution into every aggregate's sketch."""
        self.rows_consumed += 1
        key = _NO_KEYS
        if self.group_vars:
            key = _group_key(row, self.group_vars)
        for spec in self.specs:
            if spec.role != "agg":
                continue
            if spec.distinct:
                term = row.get(spec.arg)
                if term is not None:
                    spec.sketch.add(_term_key(term))
            elif spec.kind == "COUNT":
                if spec.arg is None or row.get(spec.arg) is not None:
                    spec.sketch.add_group(key, 1.0)
            else:  # SUM / AVG: numeric literals only, like the exact engine
                term = row.get(spec.arg)
                if isinstance(term, Literal):
                    value = term.value
                    if isinstance(value, (int, float)) and not isinstance(
                        value, bool
                    ):
                        spec.sketch.add_group(key, float(value))

    def merge(self, other: "SketchBundle") -> None:
        """Absorb another source's bundle (the coordinator's combine step).

        Sources are bag-unioned: rows and totals add, sketches merge.
        Overlapping sources therefore over-count grouped aggregates — the
        documented upper-bound semantics federation statistics already
        have — while HLL distinct merges stay duplicate-proof.
        """
        if other.group_vars != self.group_vars:
            raise ValueError("bundles group by different keys")
        mine, theirs = self.agg_specs, other.agg_specs
        if len(mine) != len(theirs) or any(
            (a.kind, str(a.alias), a.distinct) != (b.kind, str(b.alias),
                                                   b.distinct)
            for a, b in zip(mine, theirs)
        ):
            raise ValueError("bundles carry different aggregate shapes")
        for a, b in zip(mine, theirs):
            a.sketch.merge(b.sketch)
        self.rows_consumed += other.rows_consumed
        self.estimated_total += other.estimated_total
        self.exhausted = self.exhausted and other.exhausted

    def estimate(self) -> SketchEstimate:
        """Rows behind the bundle — exact over what it saw (the per-cell
        scale-up and bounds are :func:`bundle_to_answer`'s job)."""
        return SketchEstimate(
            value=float(self.rows_consumed),
            error_bound=0.0,
            bound_kind="absolute",
            confidence=self.confidence,
            n=self.rows_consumed,
        )

    def to_dict(self) -> dict:
        return {
            "v": BUNDLE_VERSION,
            "group_vars": [str(var) for var in self.group_vars],
            "rows_consumed": self.rows_consumed,
            "estimated_total": self.estimated_total,
            "exhausted": self.exhausted,
            "confidence": self.confidence,
            "specs": [spec.to_dict() for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SketchBundle":
        version = payload.get("v")
        if version != BUNDLE_VERSION:
            raise ValueError(f"unsupported bundle version: {version!r}")
        return cls(
            group_vars=tuple(
                Variable(name) for name in payload.get("group_vars", [])
            ),
            specs=[_Spec.from_dict(s) for s in payload.get("specs", [])],
            rows_consumed=int(payload["rows_consumed"]),
            estimated_total=int(payload["estimated_total"]),
            exhausted=bool(payload["exhausted"]),
            confidence=float(payload.get("confidence", 0.95)),
        )


# --------------------------------------------------------------------------- #
# Building bundles from one engine's operator stream
# --------------------------------------------------------------------------- #


def _pattern_plan(plan: QueryPlan) -> QueryPlan:
    """``SELECT *`` over an eligible aggregate's WHERE, cut from the
    aggregate's own plan rather than planned again: below the Aggregate
    sit the rewrites a ``SELECT *`` gets, bar the projection Prune."""
    pattern = plan.root.input
    if isinstance(pattern, LogicalPrune):
        pattern = pattern.input
    root = LogicalProject(pattern, (), True)
    parsed = plan.query
    select_all = SelectQuery(
        projections=(), where=parsed.where, prefixes=parsed.prefixes
    )
    return QueryPlan(select_all, "SELECT", root, root)


def iter_sketch_passes(
    engine: QueryEngine,
    query: str | SelectQuery | QueryPlan,
    max_rows: int = 2_000,
    confidence: float = 0.95,
    passes: int = 4,
):
    """Yield a tightening :class:`SketchBundle` after each chunk of work.

    Stream the *pattern* solutions (SELECT * over the same WHERE) so the
    sketches see raw bindings, not the aggregate operator's output. Each
    pass feeds a *fresh* bundle and merges it into the accumulated one
    (:class:`~repro.approx.progressive.ProgressiveSketchAggregator` — the
    same merge the federation coordinator runs, so the progressive path
    continuously exercises mergeability). Bounds tighten as
    ``rows_consumed`` grows; at most ``max_rows`` rows are consumed,
    except that a DISTINCT projection lifts the cap — a distinct count
    only carries an honest bound over the *whole* stream, so the bounded
    resource is then the sketch memory and the passes chart coverage.
    Every pass also lands on the progress-event stream
    (``approx.progressive.sketch``).
    """
    plan = engine.plan(query)
    parsed = plan.query
    if not eligible_approximate(parsed):
        raise ValueError("query is not an eligible aggregate")
    if max_rows < 1 or passes < 1:
        raise ValueError("max_rows and passes must be positive")
    budget = None if _distinct(parsed) else max_rows
    chunk = max(1, max_rows // passes)
    stream = engine.stream_select(_pattern_plan(plan))
    aggregator = ProgressiveSketchAggregator(
        lambda: SketchBundle.empty(parsed, confidence)
    )
    merged = aggregator.merged
    exhausted = False

    def chunks():
        nonlocal exhausted
        while not exhausted and (
            budget is None or merged.rows_consumed < budget
        ):
            want = chunk if budget is None else min(
                chunk, budget - merged.rows_consumed
            )
            part = list(islice(stream.rows, want))
            exhausted = len(part) < want
            yield part

    for _ in aggregator.run(chunks()):
        seen = merged.rows_consumed
        total = seen
        if not exhausted and stream.estimated_rows is not None:
            total = max(seen, int(round(stream.estimated_rows)))
        yield SketchBundle(
            merged.group_vars, merged.specs, seen, total, exhausted,
            confidence,
        )


def build_sketch_bundle(
    engine: QueryEngine,
    query: str | SelectQuery | QueryPlan,
    max_rows: int = 2_000,
    confidence: float = 0.95,
) -> SketchBundle:
    """One engine's bundle: the single-pass case of
    :func:`iter_sketch_passes`."""
    *_, bundle = iter_sketch_passes(
        engine, query, max_rows, confidence, passes=1
    )
    return bundle


def merge_bundles(bundles: list[SketchBundle]) -> SketchBundle:
    if not bundles:
        raise ValueError("nothing to merge")
    merged = bundles[0]
    for bundle in bundles[1:]:
        merged.merge(bundle)
    merged.federated = True
    return merged


# --------------------------------------------------------------------------- #
# Rendering a bundle into the serving layer's answer shape
# --------------------------------------------------------------------------- #


def _cell(
    spec: _Spec, moments: StreamingMoments | None, bundle: SketchBundle
) -> tuple[Literal | None, float]:
    """One aggregate's (value, halfwidth) for one group; ``None`` leaves
    the column unbound (a group this aggregate's sketch never saw)."""
    seen, total = bundle.rows_consumed, bundle.estimated_total
    if spec.distinct:
        estimate = spec.sketch.estimate()
        return (
            Literal(int(round(estimate.value))),
            round(estimate.absolute_bound(), 6),
        )
    if not bundle.group_vars:
        # The one group is the whole population: always answered.
        if spec.kind == "COUNT" and spec.arg is None:
            return Literal(int(total)), float(abs(total - seen))
        moments = moments or StreamingMoments(bundle.confidence)
    elif moments is None or moments.n == 0:
        return (Literal(0) if spec.kind == "COUNT" else None), 0.0
    scaled = moments.n * (total / seen) if seen else 0.0
    if spec.kind == "COUNT":
        halfwidth = binomial_halfwidth(
            moments.n, seen, total, bundle.confidence
        )
        return Literal(int(round(scaled))), halfwidth
    snapshot = moments.estimate(max(moments.n, int(round(scaled))))
    if spec.kind == "AVG":
        return Literal(float(snapshot.mean)), snapshot.ci_halfwidth
    return Literal(float(snapshot.sum_estimate)), snapshot.sum_ci_halfwidth


def bundle_to_answer(bundle: SketchBundle) -> ApproximateAnswer:
    """Render a (possibly merged) bundle as an :class:`ApproximateAnswer`.

    Grouped rows are ordered by descending estimated group size (the shape
    a top-groups visualization wants); each column's bound is its widest
    per-group halfwidth.
    """
    agg_specs = bundle.agg_specs
    keys = [_NO_KEYS]
    if bundle.group_vars:
        sizes: dict[str, int] = {}
        for spec in agg_specs:
            for key, n, _total, _mean, _var in spec.sketch.group_stats():
                if key != OTHER_BUCKET:
                    sizes[key] = max(sizes.get(key, 0), n)
        keys = sorted(sizes, key=lambda key: (-sizes[key], key))
    bounds: dict[str, float] = {str(s.alias): 0.0 for s in bundle.specs}
    rows: list[dict] = []
    group_specs = [spec for spec in bundle.specs if spec.role == "group"]
    for key in keys:
        keyed = _decode_group_key(key, bundle.group_vars)
        row: dict = {
            spec.alias: keyed[spec.arg] for spec in group_specs
            if spec.arg in keyed
        }
        for spec in agg_specs:
            moments = None if spec.distinct else spec.sketch.group(key)
            value, halfwidth = _cell(spec, moments, bundle)
            if value is None:
                continue
            row[spec.alias] = value
            alias = str(spec.alias)
            if not halfwidth <= bounds[alias]:  # max that keeps a NaN
                bounds[alias] = halfwidth
        rows.append(row)
    moment_specs = [spec for spec in agg_specs if not spec.distinct]
    spilled = any(spec.sketch.spilled for spec in moment_specs)
    approximate = bundle.distinct or not bundle.exhausted or spilled
    extra: dict[str, object] | None = None
    if bundle.distinct:
        extra = {"sketch": "hll"}
    elif bundle.group_vars:
        extra = {"groups": len(rows)}
        if spilled:
            extra["other_groups"] = int(round(max(
                spec.sketch.other_group_estimate() for spec in moment_specs
            )))
    if not approximate:
        bounds = {name: 0.0 for name in bounds}
    return ApproximateAnswer(
        result=SelectResult([spec.alias for spec in bundle.specs], rows),
        approximate=approximate,
        rows_consumed=bundle.rows_consumed,
        estimated_total=bundle.estimated_total,
        confidence=bundle.confidence,
        bounds=bounds,
        method=bundle.method if approximate else "exact",
        extra=extra,
    )


# --------------------------------------------------------------------------- #
# Entry points: local and federated
# --------------------------------------------------------------------------- #


def sketched_select(
    engine: QueryEngine,
    query: str | SelectQuery | QueryPlan,
    max_rows: int = 2_000,
    confidence: float = 0.95,
) -> ApproximateAnswer:
    """Answer an eligible aggregate SELECT with at most ``max_rows`` of
    work on one engine; raises :class:`ValueError` for other queries."""
    plan = engine.plan(query)
    bundle = build_sketch_bundle(engine, plan, max_rows, confidence)
    answer = bundle_to_answer(bundle)
    if bundle.recovers_exactly:
        answer = replace(answer, result=engine.query(plan))
    return answer


approximate_select = sketched_select


def federated_sketch_bundle(
    store: object,
    query_text: str,
    parsed: SelectQuery | QueryPlan,
    max_rows: int = 2_000,
    confidence: float = 0.95,
) -> SketchBundle | None:
    """Fan an eligible aggregate out across federation members.

    Members exposing ``sketch_select`` (remote endpoints) answer with a
    serialized bundle over the wire; plain local sources are sketched
    in-process. Returns ``None`` when ``store`` is not a federation —
    the caller falls back to :func:`build_sketch_bundle`.
    """
    members = getattr(store, "members", None)
    if members is None:
        return None
    bundles: list[SketchBundle] = []
    for _name, source in members():
        sketch_call = getattr(source, "sketch_select", None)
        if sketch_call is not None:
            payload = sketch_call(
                query_text, max_rows=max_rows, confidence=confidence
            )
            bundles.append(SketchBundle.from_dict(payload))
        else:
            bundles.append(build_sketch_bundle(
                QueryEngine(source), parsed, max_rows, confidence
            ))
    return merge_bundles(bundles)


def federated_sketch_select(
    store: object,
    query_text: str,
    parsed: SelectQuery | QueryPlan,
    max_rows: int = 2_000,
    confidence: float = 0.95,
) -> ApproximateAnswer | None:
    merged = federated_sketch_bundle(
        store, query_text, parsed, max_rows, confidence
    )
    if merged is None:
        return None
    return bundle_to_answer(merged)
