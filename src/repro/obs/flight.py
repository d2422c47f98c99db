"""Always-on flight recorder: the last N interactions, cheaply, always.

Tracing (:mod:`repro.obs.trace`) answers "where did the time go?" — but only
when it was switched on *before* the slow interaction happened. The flight
recorder closes that gap: a bounded ring buffer records every interaction,
progress event, and error as it happens (one lock-guarded append each),
and when something goes wrong — a latency budget is violated, or the
``obs.errors`` counter fires — the recent history is *dumped* automatically:
a JSONL transcript plus the offending span tree, diagnosable after the fact
without re-running under ``REPRO_TRACE=1``.

Dumps are kept in memory (bounded by ``max_dumps``) and, when the
:envvar:`REPRO_FLIGHT_DIR` environment variable names a directory, also
written there as ``flight-<seq>.jsonl`` files (CI uploads these as
artifacts). Automatic dumps are throttled (``auto_dump_interval_ms``) so an
error storm produces one dump per window, not thousands.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator

from ..env import read_str
from .export import render_span_tree, span_to_dicts
from .trace import Span

__all__ = ["FlightEntry", "FlightDump", "FlightRecorder"]

FLIGHT_DIR_ENV = "REPRO_FLIGHT_DIR"

_clock = time.perf_counter_ns


@dataclass(frozen=True)
class FlightEntry:
    """One ring-buffer record: an interaction, progress event, or error."""

    kind: str  # "interaction" | "progress" | "error" | "note"
    name: str
    sequence: int
    monotonic_ns: int = field(default_factory=_clock)
    duration_ms: float | None = None
    attributes: dict[str, object] = field(default_factory=dict)
    violated: bool = False
    span: Span | None = None

    def to_dict(self, include_span: bool = False) -> dict[str, object]:
        record: dict[str, object] = {
            "kind": self.kind,
            "name": self.name,
            "sequence": self.sequence,
            "monotonic_ns": self.monotonic_ns,
        }
        if self.duration_ms is not None:
            record["duration_ms"] = round(self.duration_ms, 6)
        if self.attributes:
            record["attributes"] = dict(self.attributes)
        if self.violated:
            record["violated"] = True
        if include_span and self.span is not None:
            record["span_tree"] = span_to_dicts(self.span)
        return record

    def span_tree(self) -> Span:
        """The entry's span tree; synthesized when tracing was disabled.

        Interactions always yield a tree: either the real traced span
        (with operator children etc.) or a single manual span rebuilt from
        the recorded duration and attributes — so a dump can show *which*
        interaction blew its budget even in untraced runs.
        """
        if self.span is not None:
            return self.span
        duration_ns = int((self.duration_ms or 0.0) * 1e6)
        return Span.manual(self.name, duration_ns, **self.attributes)


@dataclass(frozen=True)
class FlightDump:
    """One triggered dump: the recent history plus the offending entry."""

    reason: str
    sequence: int
    entries: tuple[FlightEntry, ...]
    offending: FlightEntry | None = None
    profile_folded: str | None = None

    def to_jsonl(self) -> str:
        """Header line, then one JSON object per recorded entry.

        The header carries the reason and, for the offending entry, both
        the flattened span records and the human-readable span tree; when
        a sampling profiler was running, also its hottest folded stacks.
        """
        header: dict[str, object] = {
            "flight_dump": self.sequence,
            "reason": self.reason,
            "entries": len(self.entries),
        }
        if self.offending is not None:
            tree = self.offending.span_tree()
            header["offending"] = self.offending.to_dict()
            header["offending_span_tree"] = span_to_dicts(tree)
            header["offending_span_text"] = render_span_tree(tree)
        if self.profile_folded:
            header["profile_folded"] = self.profile_folded
        lines = [json.dumps(header, default=str, sort_keys=True)]
        lines.extend(
            json.dumps(entry.to_dict(include_span=True), default=str,
                       sort_keys=True)
            for entry in self.entries
        )
        return "\n".join(lines) + "\n"


class FlightRecorder:
    """Bounded ring buffer of telemetry entries with automatic dumping.

    Recording is O(1): a sequence bump and one bounded-deque append under a
    lock, so under concurrent writers the retained entries are always the
    most recent ``capacity`` records, already in sequence order, with no
    tearing and no unbounded growth.
    """

    def __init__(
        self,
        capacity: int = 256,
        max_dumps: int = 8,
        auto_dump_interval_ms: float = 1_000.0,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if max_dumps < 1:
            raise ValueError("max_dumps must be positive")
        self.capacity = capacity
        self.max_dumps = max_dumps
        self.auto_dump_interval_ms = auto_dump_interval_ms
        # When set (a zero-arg callable returning folded-stack text, e.g.
        # SamplingProfiler.folded), every dump attaches a profile snapshot.
        self.profile_provider = None
        # Wired by Observability to a *non-dumping* obs.errors bump: the
        # recorder's own failures must be counted without re-entering the
        # recorder (a failing disk would otherwise recurse through dump()).
        self.error_counter: Callable[[str, BaseException], None] | None \
            = None
        self._lock = threading.Lock()
        self._ring: deque[FlightEntry] \
            = deque(maxlen=capacity)  # guarded-by: _lock
        self._sequence = 0  # guarded-by: _lock
        self._dump_lock = threading.Lock()
        self._dumps: list[FlightDump] = []  # guarded-by: _dump_lock
        self._dump_sequence = 0  # guarded-by: _dump_lock
        self._last_auto_dump_ns: int | None \
            = None  # guarded-by: _dump_lock

    # -- recording ---------------------------------------------------------

    def record(
        self,
        kind: str,
        name: str,
        duration_ms: float | None = None,
        attributes: dict[str, object] | None = None,
        violated: bool = False,
        span: Span | None = None,
    ) -> FlightEntry:
        with self._lock:
            sequence = self._sequence
            self._sequence += 1
            entry = FlightEntry(
                kind=kind,
                name=name,
                sequence=sequence,
                duration_ms=duration_ms,
                attributes=attributes or {},
                violated=violated,
                span=span,
            )
            self._ring.append(entry)
        return entry

    @property
    def recorded_total(self) -> int:
        """Entries ever recorded (≥ len(entries()) once the ring wraps)."""
        with self._lock:
            return self._sequence

    def entries(self) -> list[FlightEntry]:
        """The retained window, oldest first."""
        with self._lock:
            return list(self._ring)

    def __iter__(self) -> Iterator[FlightEntry]:
        return iter(self.entries())

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    # -- dumping -----------------------------------------------------------

    def dump(
        self,
        reason: str,
        offending: FlightEntry | None = None,
        force: bool = True,
    ) -> FlightDump | None:
        """Snapshot the ring into a :class:`FlightDump`.

        With ``force=False`` (the automatic-trigger path) dumps are
        throttled to one per ``auto_dump_interval_ms``; explicit calls
        always dump. Returns ``None`` when throttled.
        """
        now = _clock()
        with self._dump_lock:
            if not force and self._last_auto_dump_ns is not None:
                elapsed_ms = (now - self._last_auto_dump_ns) / 1e6
                if elapsed_ms < self.auto_dump_interval_ms:
                    return None
            if not force:
                self._last_auto_dump_ns = now
            profile_folded: str | None = None
            provider = self.profile_provider
            if provider is not None:
                try:
                    profile_folded = provider() or None
                except Exception as exc:
                    # A broken profiler must not take the dump down with
                    # it — but it must not fail invisibly either.
                    self._count_error("obs.flight.profile", exc)
                    profile_folded = None
            self._dump_sequence += 1
            dump = FlightDump(
                reason=reason,
                sequence=self._dump_sequence,
                entries=tuple(self.entries()),
                offending=offending,
                profile_folded=profile_folded,
            )
            self._dumps.append(dump)
            if len(self._dumps) > self.max_dumps:
                del self._dumps[: len(self._dumps) - self.max_dumps]
        self._write_to_disk(dump)
        return dump

    def dumps(self) -> list[FlightDump]:
        with self._dump_lock:
            return list(self._dumps)

    @property
    def dump_count(self) -> int:
        """Dumps ever taken (kept ones are bounded by ``max_dumps``)."""
        with self._dump_lock:
            return self._dump_sequence

    def _write_to_disk(self, dump: FlightDump) -> None:
        directory = read_str(FLIGHT_DIR_ENV)
        if not directory:
            return
        try:
            os.makedirs(directory, exist_ok=True)
            path = os.path.join(directory, f"flight-{dump.sequence:04d}.jsonl")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(dump.to_jsonl())
        except OSError as exc:
            # The recorder must never take the instrumented code down with
            # it; a full disk loses the file, not the interaction — and
            # the loss shows up on the obs.errors counter.
            self._count_error("obs.flight.write", exc)

    def _count_error(self, site: str, exc: BaseException) -> None:
        counter = self.error_counter
        if counter is not None:
            counter(site, exc)

    def reset(self) -> None:
        with self._lock:
            self._ring.clear()
            self._sequence = 0
        with self._dump_lock:
            self._dumps.clear()
            self._dump_sequence = 0
            self._last_auto_dump_ns = None
