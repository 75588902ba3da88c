"""Composable diagnosis pipeline (the paper's Fig. 2, as an API).

The IOAgent flow — ``preprocess → summarize → describe → integrate →
diagnose → merge`` — used to live inside one method.  This module breaks
it into pluggable :class:`Stage` objects composed by a
:class:`DiagnosisPipeline`, so ablations swap stages instead of threading
booleans, new backbones plug in without touching orchestration, and every
stage's latency and token spend is observable.

Key pieces:

* :class:`PipelineContext` — the typed carrier threaded through stages:
  the Darshan log, summary fragments, per-fragment intermediate products,
  per-stage wall-clock timings, and per-stage LLM usage;
* :class:`Stage` — the protocol every stage implements (``name`` +
  ``run(ctx)``); the six default stages live here too;
* :class:`PipelineObserver` — event hooks (``on_stage_start``,
  ``on_stage_end``, ``on_llm_call``) for telemetry and progress UIs;
* :class:`DiagnosisPipeline` — runs stages in order, times them, and
  attributes every LLM call made during a stage to that stage;
* :func:`build_default_pipeline` — the paper-default stage list derived
  from an :class:`~repro.core.agent.IOAgentConfig`.

Determinism note: every LLM call is keyed by an explicit ``call_id``, so
re-grouping the per-fragment work into stage-wide sweeps produces
byte-identical reports to the original fused loop.  One run executes on
the thread that calls it; concurrency across requests belongs to the
callers (``DiagnosisService.diagnose_batch``, the server's workers).

Failure semantics (the resilience contract):

* every stage declares ``failure_mode`` — ``"abort"`` (its output is
  load-bearing; an exception still fails the run) or ``"degrade"`` (the
  pipeline records a :class:`StageFailure`, the report loses the stage's
  ``channel``, and diagnosis continues on the remaining evidence);
* the per-fragment stages (describe / integrate / diagnose) isolate
  *recovery-layer* failures (:class:`~repro.resilience.errors.
  ResilienceError` only — a genuine bug still propagates): the affected
  fragment is dropped and recorded, the rest of the trace is diagnosed;
* the merge stage falls back to plain concatenation when merging calls
  fail, so a report is always produced once fragment diagnoses exist;
* recovery-layer incidents (retries, circuit trips, injected faults) are
  attributed to the running stage via the client's fault listener and
  surfaced through ``PipelineContext.stage_faults`` and the
  ``on_fault_event`` observer hook.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from threading import Lock
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

from repro.core.describe import context_sentences, describe_fragment
from repro.core.diagnose import diagnose_fragment
from repro.core.integrate import IntegrationResult, integrate_fragment
from repro.core.merge import one_step_merge, tree_merge
from repro.core.preprocess import ModuleTable, split_modules
from repro.core.report import DiagnosisReport
from repro.core.summaries import (
    SummaryFragment,
    app_context_facts,
    extract_fragments,
    extractor_source,
)
from repro.darshan.log import DarshanLog
from repro.llm.client import FaultEvent, LLMClient, Usage
from repro.llm.facts import Fact
from repro.rag.retriever import Retriever
from repro.resilience.errors import ResilienceError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.agent import IOAgentConfig

__all__ = [
    "PipelineContext",
    "StageFailure",
    "Stage",
    "PipelineObserver",
    "DiagnosisPipeline",
    "PreprocessStage",
    "SummarizeStage",
    "TemporalStage",
    "DescribeStage",
    "IntegrateStage",
    "DiagnoseStage",
    "MergeStage",
    "DEFAULT_STAGE_ORDER",
    "DEFAULT_STAGE_CLASSES",
    "build_default_pipeline",
]

DEFAULT_STAGE_ORDER = (
    "preprocess",
    "summarize",
    "temporal",
    "describe",
    "integrate",
    "diagnose",
    "merge",
)


@dataclass(frozen=True)
class StageFailure:
    """One absorbed failure: what broke, and which evidence it cost.

    ``channel`` names the lost evidence — a whole channel for a degraded
    stage (``"dxt-temporal"``, ``"knowledge"``, ``"merge"``) or
    ``"fragment:<id>"`` for a dropped fragment — and feeds the report's
    ``degraded`` annotation.
    """

    stage: str
    channel: str
    error: str
    fragment_id: str = ""


@dataclass
class PipelineContext:
    """Everything a stage may read or write while diagnosing one trace.

    Stages communicate exclusively through this object: earlier stages
    populate fields that later stages consume (``fragments`` feeds
    ``descriptions`` feeds ``integrations`` feeds ``diagnoses`` feeds
    ``merged_text``).  The pipeline itself fills the telemetry fields
    (``stage_seconds``, ``stage_usage``).
    """

    log: DarshanLog
    trace_id: str
    config: "IOAgentConfig"
    client: LLMClient
    retriever: Retriever | None = None

    # Stage products, in pipeline order.
    module_tables: dict[str, ModuleTable] = field(default_factory=dict)
    fragments: list[SummaryFragment] = field(default_factory=list)
    app_facts: list[Fact] = field(default_factory=list)
    context: str = ""
    descriptions: dict[str, str] = field(default_factory=dict)
    integrations: dict[str, IntegrationResult] = field(default_factory=dict)
    diagnoses: dict[str, str] = field(default_factory=dict)
    merged_text: str = ""

    # Telemetry: wall-clock seconds and LLM usage attributed per stage.
    stage_seconds: dict[str, float] = field(default_factory=dict)
    stage_usage: dict[str, Usage] = field(default_factory=dict)

    # Resilience: absorbed failures and per-stage fault-event counts
    # (stage -> fault kind -> count).
    stage_failures: list[StageFailure] = field(default_factory=list)
    stage_faults: dict[str, dict[str, int]] = field(default_factory=dict)
    failure_lock: Lock = field(default_factory=Lock, repr=False)

    def record_failure(
        self, stage: str, channel: str, error: str, fragment_id: str = ""
    ) -> None:
        """Log one absorbed failure."""
        failure = StageFailure(
            stage=stage, channel=channel, error=error, fragment_id=fragment_id
        )
        with self.failure_lock:
            self.stage_failures.append(failure)

    @property
    def degraded_channels(self) -> tuple[str, ...]:
        """Evidence channels lost to absorbed failures (sorted, unique).

        Sorted rather than arrival-ordered so the report stays
        byte-identical across thread schedules.
        """
        with self.failure_lock:
            channels = {f.channel for f in self.stage_failures if f.channel}
        return tuple(sorted(channels))

    @property
    def sources_retrieved(self) -> int:
        return sum(len(r.retrieved) for r in self.integrations.values())

    @property
    def sources_kept(self) -> int:
        return sum(len(r.kept_sources) for r in self.integrations.values())

    def fragment_sources(self, fragment_id: str) -> list[str]:
        """Knowledge sources kept for one fragment ([] when RAG is off)."""
        result = self.integrations.get(fragment_id)
        return list(result.kept_sources) if result is not None else []

    def build_report(self) -> DiagnosisReport:
        """Assemble the final report from the accumulated stage products."""
        return DiagnosisReport(
            trace_id=self.trace_id,
            model=self.config.model,
            text=self.merged_text,
            n_fragments=len(self.fragments),
            sources_retrieved=self.sources_retrieved,
            sources_kept=self.sources_kept,
            degraded=self.degraded_channels,
        )


@runtime_checkable
class Stage(Protocol):
    """One pipeline step: reads/writes the context, nothing else.

    Stages additionally declare their failure contract via two (class)
    attributes, defaulted by the pipeline when absent: ``failure_mode``
    (``"abort"`` — the default — or ``"degrade"``) and ``channel`` (the
    evidence channel a degraded stage costs; required non-empty when
    ``failure_mode == "degrade"``, enforced by the analysis suite's
    resilience-contract check).
    """

    name: str

    def run(self, ctx: PipelineContext) -> None: ...


class PipelineObserver:
    """Event-hook base class; subclass and override what you need.

    All hooks are no-ops by default.  One run fires its hooks from the
    thread that runs it, but an observer shared between concurrent runs
    (a batch, the server's workers) must synchronize its own
    accumulation.
    """

    def on_stage_start(self, stage: str, ctx: PipelineContext) -> None: ...

    def on_stage_end(self, stage: str, ctx: PipelineContext, seconds: float) -> None: ...

    def on_llm_call(
        self, stage: str, ctx: PipelineContext, model: str, usage: Usage, call_id: str
    ) -> None: ...

    def on_fault_event(
        self, stage: str, ctx: PipelineContext, event: FaultEvent
    ) -> None: ...


# -- the six default stages ----------------------------------------------


class PreprocessStage:
    """Module-based pre-processor: split the log into per-module tables."""

    name = "preprocess"
    failure_mode = "abort"  # everything downstream reads its tables
    channel = ""

    def run(self, ctx: PipelineContext) -> None:
        ctx.module_tables = split_modules(ctx.log)


class SummarizeStage:
    """Extract categorized JSON summary fragments + application context."""

    name = "summarize"
    failure_mode = "abort"  # without fragments there is nothing to diagnose
    channel = ""

    def run(self, ctx: PipelineContext) -> None:
        ctx.fragments = extract_fragments(ctx.log)
        ctx.app_facts = app_context_facts(ctx.log)
        ctx.context = context_sentences(ctx.app_facts)


class TemporalStage:
    """Fold DXT temporal evidence into the fragment stream.

    When the log carries DXT segments (simulated runs always do; parsed
    ``darshan-parser`` text never does), the timeline analysis —
    burst/phase structure, per-rank time skew, concurrency, idle gaps,
    per-file throughput skew — becomes one more summary fragment
    (``DXT.timeline``) that the describe/diagnose stages treat exactly
    like a counter-derived one.  Without segments the stage is a no-op,
    so counter-only traces flow through unchanged.

    Temporal evidence is additive, so this stage *degrades*: if it fails,
    the run continues on counter evidence alone and the report is marked
    degraded on the ``dxt-temporal`` channel — exactly the ``use_dxt=False``
    ablation, arrived at involuntarily.
    """

    name = "temporal"
    failure_mode = "degrade"
    channel = "dxt-temporal"

    def run(self, ctx: PipelineContext) -> None:
        from repro.darshan.dxt import cached_temporal_facts, dxt_temporal_facts

        facts = cached_temporal_facts(ctx.log)
        if not facts:
            return
        ctx.fragments.append(
            SummaryFragment(
                module="DXT",
                category="timeline",
                facts=tuple(facts),
                code=extractor_source(dxt_temporal_facts),
            )
        )


class DescribeStage:
    """JSON fragment → natural-language description, one fragment at a time.

    Per-fragment isolation: a fragment whose calls exhaust the recovery
    layer (``ResilienceError`` only — real bugs still propagate) is
    dropped and recorded as a lost ``fragment:<id>`` channel; the rest of
    the trace is still diagnosed.
    """

    name = "describe"
    failure_mode = "abort"  # whole-stage crashes are real bugs
    channel = ""

    def run(self, ctx: PipelineContext) -> None:
        done: dict[str, str] = {}
        for fragment in ctx.fragments:
            fid = fragment.fragment_id
            try:
                done[fid] = describe_fragment(
                    fragment,
                    ctx.app_facts,
                    ctx.client,
                    ctx.config.model,
                    call_id=f"{ctx.trace_id}/{fid}/describe",
                )
            except ResilienceError as exc:
                ctx.record_failure(self.name, f"fragment:{fid}", repr(exc), fragment_id=fid)
        ctx.descriptions = done


class IntegrateStage:
    """Retrieve + self-reflection-filter domain knowledge per fragment.

    Knowledge is an enhancement, not a prerequisite (``use_rag=False`` is
    a paper ablation) — so both a whole-stage failure and a per-fragment
    recovery exhaustion degrade to diagnosis-without-knowledge, recorded
    on the ``knowledge`` channel.
    """

    name = "integrate"
    failure_mode = "degrade"
    channel = "knowledge"

    def run(self, ctx: PipelineContext) -> None:
        cfg = ctx.config
        done: dict[str, IntegrationResult] = {}
        if ctx.retriever is None:
            ctx.integrations = done
            return
        for fragment in ctx.fragments:
            fid = fragment.fragment_id
            if fid not in ctx.descriptions:  # fragment already dropped upstream
                continue
            try:
                done[fid] = integrate_fragment(
                    ctx.descriptions[fid],
                    ctx.retriever,
                    ctx.client,
                    reflection_model=cfg.reflection_model,
                    call_id=f"{ctx.trace_id}/{fid}",
                    use_reflection=cfg.use_reflection,
                )
            except ResilienceError as exc:
                ctx.record_failure(self.name, self.channel, repr(exc), fragment_id=fid)
        ctx.integrations = done


class DiagnoseStage:
    """Per-fragment diagnosis from description + surviving knowledge.

    Fragments dropped upstream are skipped; a fragment whose diagnosis
    calls exhaust recovery is dropped here with the same isolation as
    :class:`DescribeStage`.
    """

    name = "diagnose"
    failure_mode = "abort"
    channel = ""

    def run(self, ctx: PipelineContext) -> None:
        done: dict[str, str] = {}
        for fragment in ctx.fragments:
            fid = fragment.fragment_id
            if fid not in ctx.descriptions:  # fragment already dropped upstream
                continue
            try:
                done[fid] = diagnose_fragment(
                    ctx.descriptions[fid],
                    ctx.fragment_sources(fid),
                    ctx.context,
                    ctx.client,
                    ctx.config.model,
                    call_id=f"{ctx.trace_id}/{fid}/diagnose",
                )
            except ResilienceError as exc:
                ctx.record_failure(self.name, f"fragment:{fid}", repr(exc), fragment_id=fid)
        ctx.diagnoses = done


class MergeStage:
    """Merge fragment diagnoses into the final text (tree or one-step).

    A report must exist whenever fragment diagnoses exist, so merge never
    aborts on recovery-layer failure: if the merging calls exhaust
    recovery, the stage falls back to plain concatenation of the fragment
    diagnoses and records the lost ``merge`` channel (the findings are all
    there — only the cross-fragment synthesis is missing).
    """

    name = "merge"
    failure_mode = "abort"  # fallback below handles recovery-layer failures
    channel = ""

    def __init__(self, strategy: str = "tree") -> None:
        if strategy not in ("tree", "one-step"):
            raise ValueError("merge strategy must be 'tree' or 'one-step'")
        self.strategy = strategy

    def run(self, ctx: PipelineContext) -> None:
        cfg = ctx.config
        summaries = [
            ctx.diagnoses[f.fragment_id]
            for f in ctx.fragments
            if f.fragment_id in ctx.diagnoses
        ]
        if not summaries:
            if ctx.fragments:
                ctx.merged_text = (
                    "Diagnosis unavailable: every summary fragment was lost to "
                    "backend failures; no evidence survived to analyze."
                )
            else:
                ctx.merged_text = (
                    "No I/O activity was found in the trace; nothing to diagnose."
                )
            return
        try:
            if self.strategy == "tree":
                ctx.merged_text = tree_merge(
                    summaries, ctx.client, cfg.model, call_id_prefix=ctx.trace_id
                )
            else:
                ctx.merged_text = one_step_merge(
                    summaries, ctx.client, cfg.model, call_id_prefix=ctx.trace_id
                )
        except ResilienceError as exc:
            ctx.record_failure(self.name, "merge", repr(exc))
            ctx.merged_text = "\n\n".join(summaries)


# -- the pipeline itself --------------------------------------------------


class DiagnosisPipeline:
    """Runs stages in order over a :class:`PipelineContext`.

    The pipeline times each stage and attributes every LLM completion made
    while a stage runs to that stage (stages execute sequentially on the
    calling thread, so a single "current stage" marker is sound).
    """

    def __init__(
        self,
        stages: Sequence[Stage],
        observers: Sequence[PipelineObserver] = (),
    ) -> None:
        self.stages: tuple[Stage, ...] = tuple(stages)
        self.observers: tuple[PipelineObserver, ...] = tuple(observers)
        names = [s.name for s in self.stages]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names: {names}")

    @property
    def stage_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.stages)

    def run(
        self,
        log: DarshanLog,
        trace_id: str,
        *,
        config: "IOAgentConfig",
        client: LLMClient,
        retriever: Retriever | None = None,
        observers: Sequence[PipelineObserver] = (),
    ) -> PipelineContext:
        """Execute every stage over one trace; returns the full context.

        ``observers`` extends (per call) the observers bound at
        construction — the service layer uses this to attach per-batch
        metric collectors without mutating a shared pipeline.
        """
        ctx = PipelineContext(
            log=log, trace_id=trace_id, config=config, client=client, retriever=retriever
        )
        all_observers = self.observers + tuple(observers)
        current_stage = ""
        usage_lock = Lock()
        # Concurrent runs may share one client; every call this run makes
        # is namespaced under its trace_id, so filter out other runs' calls
        # (otherwise usage would be cross-attributed between traces).
        call_prefix = f"{trace_id}/"

        def on_usage(model: str, usage: Usage, call_id: str) -> None:
            if not call_id.startswith(call_prefix):
                return
            with usage_lock:
                ctx.stage_usage.setdefault(current_stage, Usage()).add(usage)
            for obs in all_observers:
                obs.on_llm_call(current_stage, ctx, model, usage, call_id)

        def on_fault(event: FaultEvent) -> None:
            if event.call_id and not event.call_id.startswith(call_prefix):
                return
            with usage_lock:
                per_stage = ctx.stage_faults.setdefault(current_stage, {})
                per_stage[event.kind] = per_stage.get(event.kind, 0) + 1
            if event.kind == "garbled":
                # A mangled completion is corrupted evidence the pipeline
                # cannot repair: mark the channel lost so the report says
                # degraded and the service refuses to cache it.
                ctx.record_failure(
                    current_stage,
                    "llm-completions",
                    f"garbled completion in call {event.call_id!r}",
                )
            for obs in all_observers:
                obs.on_fault_event(current_stage, ctx, event)

        client.add_usage_listener(on_usage)
        client.add_fault_listener(on_fault)
        try:
            for stage in self.stages:
                current_stage = stage.name
                for obs in all_observers:
                    obs.on_stage_start(stage.name, ctx)
                started = time.perf_counter()
                try:
                    stage.run(ctx)
                except Exception as exc:
                    if getattr(stage, "failure_mode", "abort") != "degrade":
                        raise
                    # Degradable stage: absorb ANY failure (its evidence is
                    # additive), record the lost channel, keep diagnosing.
                    channel = getattr(stage, "channel", "") or stage.name
                    ctx.record_failure(stage.name, channel, repr(exc))
                finally:
                    elapsed = time.perf_counter() - started
                    ctx.stage_seconds[stage.name] = (
                        ctx.stage_seconds.get(stage.name, 0.0) + elapsed
                    )
                    for obs in all_observers:
                        obs.on_stage_end(stage.name, ctx, elapsed)
        finally:
            client.remove_usage_listener(on_usage)
            client.remove_fault_listener(on_fault)
        return ctx


# The default stage classes in pipeline order (the analysis suite's
# resilience-contract check audits their failure_mode/channel declarations).
DEFAULT_STAGE_CLASSES: tuple[type, ...] = (
    PreprocessStage,
    SummarizeStage,
    TemporalStage,
    DescribeStage,
    IntegrateStage,
    DiagnoseStage,
    MergeStage,
)


def build_default_pipeline(
    config: "IOAgentConfig",
    observers: Sequence[PipelineObserver] = (),
) -> DiagnosisPipeline:
    """The paper-default stage list for one config.

    Ablation switches map to stage composition: ``use_rag=False`` drops
    the integrate stage entirely, ``use_dxt=False`` drops the temporal
    stage (reproducing the paper's counter-only system exactly);
    ``merge_strategy`` picks the merge variant.  (``use_reflection``
    stays a parameter of the integrate stage because it alters behavior
    *within* the stage.)
    """
    stages: list[Stage] = [PreprocessStage(), SummarizeStage()]
    if config.use_dxt:
        stages.append(TemporalStage())
    stages.append(DescribeStage())
    if config.use_rag:
        stages.append(IntegrateStage())
    stages.append(DiagnoseStage())
    stages.append(MergeStage(strategy=config.merge_strategy))
    return DiagnosisPipeline(stages, observers=observers)
