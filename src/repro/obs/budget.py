"""Declarative latency budgets per interaction class.

The survey's Section 2 requirements are about *real-time, interactive*
exploration: every operation — facet selection, node expansion, drill-down,
pan/zoom — must return within perceptual latency limits even over huge
inputs. Hillview-style systems make that requirement explicit: each
interaction class carries a latency target, and the system keeps always-on
accounting of how often reality meets it.

Three built-in classes (budgets in milliseconds):

* ``interactive`` (100 ms) — direct-manipulation operations whose feedback
  must feel instantaneous: facet refresh, window queries, pans and zooms;
* ``navigation`` (300 ms) — operations that load or derive new data: pivots,
  relationship search, layouts, graph sampling;
* ``progressive`` (1000 ms) — the *cadence* of progressive updates: each
  partial answer should land within a second of the previous one;
* ``batch`` (unbudgeted) — index builds and other preparation work that is
  measured but never counts as a violation.

:class:`BudgetTracker` is the always-on accountant: every observation lands
in one per-class latency histogram the tracker owns
(:data:`~repro.obs.metrics.TIME_MS_BUCKETS` resolution; count, total, max
and percentiles all read from it), is mirrored to the metrics registry,
and — when over budget — bumps a violation counter and fires an
``on_violation`` callback (the flight recorder hooks in there).
:meth:`BudgetTracker.report` summarizes it all as a :class:`BudgetReport`
with per-class compliance rates.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from .metrics import TIME_MS_BUCKETS, Histogram, MetricsRegistry

__all__ = [
    "INTERACTIVE",
    "NAVIGATION",
    "PROGRESSIVE",
    "BATCH",
    "DEFAULT_BUDGETS_MS",
    "LatencyBudget",
    "ClassReport",
    "BudgetReport",
    "BudgetTracker",
]

INTERACTIVE = "interactive"
NAVIGATION = "navigation"
PROGRESSIVE = "progressive"
BATCH = "batch"

DEFAULT_BUDGETS_MS: dict[str, float | None] = {
    INTERACTIVE: 100.0,
    NAVIGATION: 300.0,
    PROGRESSIVE: 1_000.0,
    BATCH: None,
}

ViolationCallback = Callable[[str, str, float, float], None]


@dataclass(frozen=True)
class LatencyBudget:
    """One interaction class's target: ``limit_ms`` of ``None`` = unbudgeted."""

    interaction_class: str
    limit_ms: float | None

    def violated_by(self, duration_ms: float) -> bool:
        return self.limit_ms is not None and duration_ms > self.limit_ms


@dataclass(frozen=True)
class ClassReport:
    """Accounting for one interaction class."""

    interaction_class: str
    limit_ms: float | None
    count: int
    violations: int
    total_ms: float
    max_ms: float
    p50_ms: float
    p95_ms: float

    @property
    def compliance(self) -> float:
        """Fraction of observations inside budget (1.0 when none seen)."""
        if self.count == 0:
            return 1.0
        return 1.0 - self.violations / self.count

    @property
    def mean_ms(self) -> float:
        return self.total_ms / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, object]:
        return {
            "interaction_class": self.interaction_class,
            "limit_ms": self.limit_ms,
            "count": self.count,
            "violations": self.violations,
            "compliance": round(self.compliance, 6),
            "mean_ms": round(self.mean_ms, 6),
            "max_ms": round(self.max_ms, 6),
            "p50_ms": round(self.p50_ms, 6),
            "p95_ms": round(self.p95_ms, 6),
        }


@dataclass(frozen=True)
class BudgetReport:
    """Per-class compliance summary over everything observed so far."""

    classes: tuple[ClassReport, ...]

    @property
    def total_interactions(self) -> int:
        return sum(entry.count for entry in self.classes)

    @property
    def total_violations(self) -> int:
        return sum(entry.violations for entry in self.classes)

    @property
    def overall_compliance(self) -> float:
        total = self.total_interactions
        if total == 0:
            return 1.0
        return 1.0 - self.total_violations / total

    def for_class(self, interaction_class: str) -> ClassReport | None:
        for entry in self.classes:
            if entry.interaction_class == interaction_class:
                return entry
        return None

    def to_dict(self) -> dict[str, object]:
        return {
            "total_interactions": self.total_interactions,
            "total_violations": self.total_violations,
            "overall_compliance": round(self.overall_compliance, 6),
            "classes": [entry.to_dict() for entry in self.classes],
        }

    def render(self) -> str:
        """Human-readable compliance table."""
        lines = [
            f"{'class':<14}{'budget':>10}{'count':>8}{'viol':>6}"
            f"{'compliance':>12}{'p50':>10}{'p95':>10}{'max':>10}"
        ]
        for entry in self.classes:
            budget = "-" if entry.limit_ms is None else f"{entry.limit_ms:g}ms"
            lines.append(
                f"{entry.interaction_class:<14}{budget:>10}{entry.count:>8}"
                f"{entry.violations:>6}{entry.compliance:>11.1%} "
                f"{entry.p50_ms:>8.2f}{entry.p95_ms:>10.2f}{entry.max_ms:>10.2f}"
            )
        lines.append(
            f"overall: {self.total_interactions} interactions, "
            f"{self.total_violations} violations "
            f"({self.overall_compliance:.1%} compliant)"
        )
        return "\n".join(lines)


class _ClassStats:
    """One class's latencies and violations. Count, total, max and the
    percentiles all come from the one histogram, so :meth:`BudgetTracker
    .reset` clears every figure of a report together."""

    __slots__ = ("latencies", "violations")

    def __init__(self, interaction_class: str) -> None:
        self.latencies = Histogram(
            "obs.interaction_ms",
            (("interaction_class", interaction_class),),
            TIME_MS_BUCKETS,
        )
        self.violations = 0


class BudgetTracker:
    """Always-on latency accounting against per-class budgets.

    ``metrics`` receives the per-class latency histogram
    (``obs.interaction_ms``) and violation counter
    (``obs.budget.violations``); ``on_violation`` is invoked as
    ``(interaction_class, operation, duration_ms, limit_ms)`` whenever an
    observation exceeds its class budget — the flight recorder's dump
    trigger.
    """

    def __init__(
        self,
        budgets: dict[str, float | None] | None = None,
        metrics: MetricsRegistry | None = None,
        on_violation: ViolationCallback | None = None,
    ) -> None:
        source = DEFAULT_BUDGETS_MS if budgets is None else budgets
        self._budgets: dict[str, LatencyBudget] = {
            name: LatencyBudget(name, limit) for name, limit in source.items()
        }
        self.metrics = metrics
        self.on_violation = on_violation
        self._lock = threading.Lock()
        self._stats: dict[str, _ClassStats] = {}  # guarded-by: _lock

    # -- configuration -----------------------------------------------------

    def set_budget(self, interaction_class: str, limit_ms: float | None) -> None:
        """Register or override one class's budget (``None`` = unbudgeted)."""
        if limit_ms is not None and limit_ms <= 0:
            raise ValueError("limit_ms must be positive (or None)")
        with self._lock:
            self._budgets[interaction_class] = LatencyBudget(
                interaction_class, limit_ms
            )

    def budget(self, interaction_class: str) -> LatencyBudget:
        """The class's budget; unknown classes are unbudgeted."""
        found = self._budgets.get(interaction_class)
        if found is None:
            return LatencyBudget(interaction_class, None)
        return found

    @property
    def classes(self) -> list[str]:
        with self._lock:
            known = set(self._budgets) | set(self._stats)
        return sorted(known)

    # -- accounting --------------------------------------------------------

    def observe(
        self, interaction_class: str, duration_ms: float, operation: str = ""
    ) -> bool:
        """Account one interaction; returns True when it blew its budget."""
        budget = self.budget(interaction_class)
        violated = budget.violated_by(duration_ms)
        with self._lock:
            stats = self._stats.get(interaction_class)
            if stats is None:
                stats = self._stats[interaction_class] = _ClassStats(
                    interaction_class
                )
            stats.latencies.record(duration_ms)
            if violated:
                stats.violations += 1
        if self.metrics is not None:
            self.metrics.histogram(
                "obs.interaction_ms",
                buckets=TIME_MS_BUCKETS,
                interaction_class=interaction_class,
            ).record(duration_ms)
            if violated:
                self.metrics.counter(
                    "obs.budget.violations", interaction_class=interaction_class
                ).inc()
        if violated and self.on_violation is not None:
            self.on_violation(
                interaction_class, operation, duration_ms, budget.limit_ms or 0.0
            )
        return violated

    # -- reporting ---------------------------------------------------------

    def report(self) -> BudgetReport:
        """Compliance snapshot across every class observed or budgeted."""
        entries: list[ClassReport] = []
        with self._lock:
            names = sorted(set(self._budgets) | set(self._stats))
            snapshot = {
                name: (stats.latencies.summary(), stats.violations)
                for name, stats in self._stats.items()
            }
        unobserved = (_ClassStats("").latencies.summary(), 0)
        for name in names:
            summary, violations = snapshot.get(name, unobserved)
            entries.append(
                ClassReport(
                    interaction_class=name,
                    limit_ms=self.budget(name).limit_ms,
                    count=int(summary["count"]),
                    violations=violations,
                    total_ms=summary["sum"],
                    max_ms=summary["max"],
                    p50_ms=summary["p50"],
                    p95_ms=summary["p95"],
                )
            )
        return BudgetReport(tuple(entries))

    def reset(self) -> None:
        with self._lock:
            self._stats.clear()
