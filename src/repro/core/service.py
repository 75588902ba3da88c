"""Production-style facade: concurrent, cached, metered diagnosis.

:class:`DiagnosisService` is the entry point a deployment would sit
behind.  On top of any registered :class:`~repro.core.registry.DiagnosticTool`
it adds the concerns the paper's production story needs but that don't
belong inside a tool:

* **concurrency** — traces fan out across a thread pool
  (:func:`repro.util.parallel.parallel_map`), on top of each tool's own
  per-fragment parallelism;
* **caching** — per-trace results memoized by ``(trace digest, tool,
  config)``, so re-diagnosing an unchanged log is free (``cache_hits`` is
  reported on every batch);
* **shared resources** — one tool instance (and therefore one memoized
  RAG index) serves the whole service lifetime instead of being rebuilt
  per call;
* **telemetry** — per-stage wall-clock and LLM spend, collected through
  the pipeline observer hooks and exposed as ``BatchResult.stage_metrics``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from threading import Lock
from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.pipeline import PipelineContext, PipelineObserver
from repro.core.registry import DiagnosticTool, get_tool
from repro.core.report import DiagnosisReport
from repro.darshan.log import DarshanLog
from repro.darshan.writer import iter_counter_text
from repro.llm.client import FaultEvent, Usage
from repro.util.parallel import parallel_map

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.agent import IOAgentConfig
    from repro.core.batch import BatchResult
    from repro.serve.store import ResultStore
    from repro.tracebench.dataset import LabeledTrace

__all__ = ["StageMetrics", "ServiceStats", "DiagnosisService", "trace_digest"]


def trace_digest(log: DarshanLog) -> str:
    """Stable content digest of a Darshan log.

    Covers both evidence channels: the parser-text rendering of the
    counters and, when present, the DXT segment table — two logs with
    identical counters but different timelines must not share a cache
    entry.  The counter text is hashed chunk by chunk as it is rendered,
    so the value equals ``sha256(render_darshan_text(log).encode())``
    (plus the DXT digest) without materializing the whole string.
    """
    digest = hashlib.sha256()
    for chunk in iter_counter_text(log):
        digest.update(chunk.encode("utf-8"))
    if log.dxt_segments:
        from repro.darshan.dxt import dxt_digest

        if log.dxt_digest_cache is None:
            log.dxt_digest_cache = dxt_digest(log.dxt_segments)
        digest.update(log.dxt_digest_cache.encode("ascii"))
    return digest.hexdigest()


@dataclass
class StageMetrics:
    """Aggregate latency/cost/fault telemetry for one stage across a batch."""

    seconds: float = 0.0
    calls: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    cost_usd: float = 0.0
    # Recovery-layer telemetry attributed to this stage.
    retries: int = 0
    circuit_trips: int = 0
    # fault-event kind (e.g. "transient", "timeout", "garbled") -> count.
    faults: dict[str, int] = field(default_factory=dict)

    def add_time(self, seconds: float) -> None:
        self.seconds += seconds

    def add_usage(self, usage: Usage) -> None:
        self.calls += usage.calls
        self.prompt_tokens += usage.prompt_tokens
        self.completion_tokens += usage.completion_tokens
        self.cost_usd += usage.cost_usd

    def add_fault(self, kind: str) -> None:
        if kind == "retry":
            self.retries += 1
        elif kind == "circuit-trip":
            self.circuit_trips += 1
        self.faults[kind] = self.faults.get(kind, 0) + 1


def _observable_runner(tool: DiagnosticTool) -> "Callable | None":
    """The tool's observer-aware ``run`` method, or None.

    ``run`` is not part of the DiagnosticTool protocol, so a tool may
    define an unrelated method of that name; only treat it as the
    pipeline entry point if its signature actually takes ``observers``.
    """
    import inspect

    runner = getattr(tool, "run", None)
    if not callable(runner):
        return None
    try:
        params = inspect.signature(runner).parameters
    except (TypeError, ValueError):
        return None
    return runner if "observers" in params else None


class _MetricsCollector(PipelineObserver):
    """Thread-safe accumulator of per-stage time + usage across traces."""

    def __init__(self) -> None:
        self.stages: dict[str, StageMetrics] = {}
        self._lock = Lock()

    def _metrics(self, stage: str) -> StageMetrics:
        return self.stages.setdefault(stage, StageMetrics())

    def on_stage_end(self, stage: str, ctx: PipelineContext, seconds: float) -> None:
        with self._lock:
            self._metrics(stage).add_time(seconds)

    def on_llm_call(
        self, stage: str, ctx: PipelineContext, model: str, usage: Usage, call_id: str
    ) -> None:
        with self._lock:
            self._metrics(stage).add_usage(usage)

    def on_fault_event(self, stage: str, ctx: PipelineContext, event: FaultEvent) -> None:
        with self._lock:
            self._metrics(stage).add_fault(event.kind)


@dataclass(frozen=True)
class ServiceStats:
    """One coherent snapshot of a service's caching + spend state.

    The single accessor serve-mode and batch-mode metrics both read
    through: ``stats()`` replaces the historical trio of
    ``cached_reports()`` / ``usage()`` / ``cache_hits``-peeking (all kept
    as thin wrappers).  ``usage`` is a point-in-time copy — mutating it
    does not touch the tool's accounting.
    """

    tool: str
    cache_hits: int
    cache_misses: int
    store_hits: int
    cached_reports: tuple[DiagnosisReport, ...]
    usage: Usage

    @property
    def requests(self) -> int:
        """Total diagnose() calls that consulted the cache."""
        return self.cache_hits + self.cache_misses + self.store_hits


class DiagnosisService:
    """Multi-trace diagnosis facade over a registered tool.

    ``tool`` may be a registry name (``"ioagent"``, ``"drishti"``,
    ``"ion"``) or an already-built :class:`DiagnosticTool` instance.  When
    a name is given, construction knobs come from ``config`` (threaded to
    factories that accept them; heuristic tools ignore what they don't
    take).

    ``store`` optionally backs the in-memory cache with a persistent
    :class:`~repro.serve.store.ResultStore` (a directory path is accepted
    and wrapped): lookups fall back memory → store → run, store hits are
    promoted into memory, and every non-degraded result is persisted, so
    a *fresh process* pointed at the same store serves known digests with
    zero LLM calls.
    """

    def __init__(
        self,
        tool: str | DiagnosticTool = "ioagent",
        config: "IOAgentConfig | None" = None,
        max_workers: int | None = None,
        cache: bool = True,
        observers: Sequence[PipelineObserver] = (),
        store: "ResultStore | str | None" = None,
    ) -> None:
        if config is None:
            from repro.core.agent import IOAgentConfig

            config = IOAgentConfig()
        self.config = config
        if isinstance(tool, str):
            tool = get_tool(
                tool, config=config, model=config.model, seed=config.seed
            )
        self.tool: DiagnosticTool = tool
        self.max_workers = max_workers if max_workers is not None else config.max_workers
        self.observers = tuple(observers)
        self._cache_enabled = cache
        self._cache: dict[tuple[str, str, str], DiagnosisReport] = {}
        self._cache_lock = Lock()
        self.cache_hits = 0
        self.cache_misses = 0
        self.store_hits = 0
        if isinstance(store, str):
            from repro.serve.store import ResultStore

            store = ResultStore(store)
        self.store = store

    # -- single trace ------------------------------------------------------

    def cache_key(self, log: DarshanLog) -> tuple[str, str, str]:
        """The content address of ``log`` under this service's tool.

        Keyed on the *tool's* effective config when it carries one: a tool
        instance built around a different config than the service default
        (an ablated use_dxt=False agent, say) must not alias the full
        tool's entries under the same trace digest.
        """
        config = getattr(self.tool, "config", None)
        if config is None:
            config = self.config
        return (trace_digest(log), self.tool.name, repr(config))

    def lookup(self, log: DarshanLog, trace_id: str = "trace") -> DiagnosisReport | None:
        """Serve ``log`` from memory or the persistent store, or None.

        Never runs the tool.  Hits count toward ``cache_hits`` /
        ``store_hits``; misses count nothing (only an actual run records a
        miss).
        """
        if not self._cache_enabled:
            return None
        return self._lookup(self.cache_key(log), trace_id)

    def _lookup(self, key: tuple[str, str, str], trace_id: str) -> DiagnosisReport | None:
        """Serve ``key`` from memory or the persistent store, or None.

        The keyed probe behind :meth:`lookup`; the serving layer calls it
        at submit time with the key it already computed, so a request is
        digested once.
        """
        if not self._cache_enabled:
            return None
        with self._cache_lock:
            hit = self._cache.get(key)
            if hit is not None:
                self.cache_hits += 1
                return hit if hit.trace_id == trace_id else replace(hit, trace_id=trace_id)
        if self.store is not None:
            stored = self.store.get(key)
            if stored is not None:
                with self._cache_lock:
                    self.store_hits += 1
                    # Promote: later identical requests hit memory.
                    self._cache.setdefault(key, stored)
                if stored.trace_id != trace_id:
                    stored = replace(stored, trace_id=trace_id)
                return stored
        return None

    def diagnose(
        self,
        log: DarshanLog,
        trace_id: str = "trace",
        observers: Sequence[PipelineObserver] = (),
    ) -> DiagnosisReport:
        """Diagnose one log, serving identical content from the cache/store.

        Caching is content-addressed — keyed by ``(trace digest, tool,
        config)`` — so resubmitting an identical log under a new name is a
        hit; the cached report is relabeled with the requested
        ``trace_id``.
        """
        key = self.cache_key(log) if self._cache_enabled else None
        return self._diagnose_keyed(log, key, trace_id, observers)

    def _diagnose_keyed(
        self,
        log: DarshanLog,
        key: tuple[str, str, str] | None,
        trace_id: str = "trace",
        observers: Sequence[PipelineObserver] = (),
    ) -> DiagnosisReport:
        """:meth:`diagnose` for a caller that already holds ``log``'s key.

        ``key`` is ``cache_key(log)``, or None when the caller skipped the
        digest because caching is off; with caching off it is ignored.
        """
        if not self._cache_enabled:
            key = None
        if key is not None:
            hit = self._lookup(key, trace_id)
            if hit is not None:
                return hit
        report = self._run_tool(log, trace_id, observers)
        if key is not None:
            with self._cache_lock:
                self.cache_misses += 1
                # Never cache a degraded report: the degradation came from
                # transient weather (faults, outages), not from the trace
                # content the key is addressed by — a later clean run of
                # the same digest must not be served a degraded answer.
                if not report.degraded:
                    self._cache.setdefault(key, report)
            # Same rule for the persistent store (put() enforces it too);
            # the atomic write happens outside the cache lock.
            if self.store is not None and not report.degraded:
                self.store.put(key, report)
        return report

    def _run_tool(
        self, log: DarshanLog, trace_id: str, observers: Sequence[PipelineObserver]
    ) -> DiagnosisReport:
        all_observers = self.observers + tuple(observers)
        if all_observers and _observable_runner(self.tool) is not None:
            # Pipeline-backed tools expose an observer-aware `run`; the
            # full context feeds the per-stage telemetry.
            ctx = self.tool.run(log, trace_id, observers=all_observers)
            return ctx.build_report()
        return self.tool.diagnose(log, trace_id=trace_id)

    # -- stats (the one coherent accessor; see ServiceStats) ---------------

    def stats(self) -> ServiceStats:
        """One consistent :class:`ServiceStats` snapshot of this service.

        Counters and the cached-report tuple are read under the cache
        lock, so a snapshot taken mid-batch is internally consistent.
        """
        usage = self.tool.usage()
        with self._cache_lock:
            return ServiceStats(
                tool=self.tool.name,
                cache_hits=self.cache_hits,
                cache_misses=self.cache_misses,
                store_hits=self.store_hits,
                cached_reports=tuple(self._cache.values()),
                usage=Usage(
                    prompt_tokens=usage.prompt_tokens,
                    completion_tokens=usage.completion_tokens,
                    cost_usd=usage.cost_usd,
                    calls=usage.calls,
                ),
            )

    def cached_reports(self) -> tuple[DiagnosisReport, ...]:
        """Deprecated: use ``stats().cached_reports`` (kept as a thin wrapper)."""
        return self.stats().cached_reports

    def clear_cache(self) -> None:
        """Drop the in-memory cache and reset counters (the store persists)."""
        with self._cache_lock:
            self._cache.clear()
            self.cache_hits = 0
            self.cache_misses = 0
            self.store_hits = 0

    def usage(self) -> Usage:
        """Deprecated: use ``stats().usage`` (kept as a thin wrapper)."""
        return self.tool.usage()

    # -- batches -----------------------------------------------------------

    def diagnose_batch(
        self,
        traces: "Sequence[LabeledTrace]",
        max_workers: int | None = None,
    ) -> "BatchResult":
        """Diagnose every trace concurrently; returns scored, metered results."""
        from repro.core.batch import BatchResult
        from repro.evaluation.accuracy import f1_by_difficulty, match_stats

        metrics = _MetricsCollector()
        workers = max_workers if max_workers is not None else self.max_workers
        usage_before = self.usage()
        hits_before = self.cache_hits

        def one(trace: "LabeledTrace") -> tuple:
            report = self.diagnose(trace.log, trace_id=trace.trace_id, observers=(metrics,))
            stats = match_stats(report.text, trace.labels)
            return trace.trace_id, report, stats, getattr(trace, "difficulty", "medium")

        rows = parallel_map(one, traces, max_workers=workers)

        result = BatchResult(model=self.config.model, tool=self.tool.name)
        f1_total = 0.0
        for trace_id, report, stats, _difficulty in rows:
            result.reports[trace_id] = report
            f1_total += stats.f1
        usage = self.usage()
        result.mean_f1 = f1_total / max(1, len(rows))
        result.f1_by_difficulty = f1_by_difficulty(
            [(difficulty, stats) for _, _, stats, difficulty in rows]
        )
        result.llm_calls = usage.calls - usage_before.calls
        result.prompt_tokens = usage.prompt_tokens - usage_before.prompt_tokens
        result.completion_tokens = usage.completion_tokens - usage_before.completion_tokens
        result.cost_usd = usage.cost_usd - usage_before.cost_usd
        result.cache_hits = self.cache_hits - hits_before
        result.stage_metrics = metrics.stages
        return result
