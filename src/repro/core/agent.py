"""IOAgent: a thin facade over the default diagnosis pipeline (Fig. 2).

Pipeline per trace (each step a :class:`repro.core.pipeline.Stage`):

1. split the Darshan log by module (pre-processor);
2. extract categorized JSON summary fragments (Table I);
3. describe every fragment (JSON → NL);
4. retrieve top-15 knowledge chunks per fragment and self-reflect-filter
   them (skipped entirely when ``use_rag=False``);
5. diagnose every fragment from its description + surviving knowledge;
6. merge the fragment diagnoses pairwise up a tree (or in one step).

``IOAgent`` owns no orchestration logic of its own: it builds the default
:class:`~repro.core.pipeline.DiagnosisPipeline` from its config and
implements the :class:`~repro.core.registry.DiagnosticTool` protocol, so
the CLI, the batch runner, and the Table IV harness all drive it the same
way they drive the baselines.  Every LLM interaction goes through
:class:`repro.llm.client.LLMClient`, so the agent is model-agnostic — the
paper's headline claim — and ablations swap pipeline stages instead of
threading booleans through one long method.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.pipeline import (
    DiagnosisPipeline,
    PipelineContext,
    PipelineObserver,
    build_default_pipeline,
)
from repro.core.registry import register_tool
from repro.core.report import DiagnosisReport
from repro.darshan.log import DarshanLog
from repro.llm.client import LLMClient, Usage
from repro.rag.index import build_default_index
from repro.rag.retriever import Retriever

__all__ = ["IOAgentConfig", "IOAgent"]


@dataclass(frozen=True)
class IOAgentConfig:
    """Tunable design switches (defaults reproduce the paper's system)."""

    model: str = "gpt-4o"
    reflection_model: str = "gpt-4o-mini"
    use_rag: bool = True
    use_reflection: bool = True
    # Consume the DXT temporal evidence channel when the log carries it.
    # False reproduces the paper's counter-only system byte-for-byte.
    use_dxt: bool = True
    merge_strategy: str = "tree"  # 'tree' | 'one-step'
    top_k: int = 15
    # Default number of traces DiagnosisService.diagnose_batch runs at once
    # (None lets the pool pick); one diagnosis always runs serially.
    max_workers: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.merge_strategy not in ("tree", "one-step"):
            raise ValueError("merge_strategy must be 'tree' or 'one-step'")
        if self.top_k <= 0:
            raise ValueError("top_k must be positive")


class IOAgent:
    """The LLM-based I/O diagnosis agent (a `DiagnosticTool`)."""

    def __init__(
        self,
        config: IOAgentConfig | None = None,
        client: LLMClient | None = None,
        retriever: Retriever | None = None,
        pipeline: DiagnosisPipeline | None = None,
        observers: Sequence[PipelineObserver] = (),
    ) -> None:
        self.config = config or IOAgentConfig()
        self.client = client or LLMClient(seed=self.config.seed)
        if retriever is None and self.config.use_rag:
            retriever = Retriever(build_default_index(), top_k=self.config.top_k)
        self.retriever = retriever
        self.pipeline = pipeline or build_default_pipeline(self.config, observers=observers)

    # -- DiagnosticTool protocol ------------------------------------------

    @property
    def name(self) -> str:
        return f"ioagent-{self.config.model}"

    def diagnose(self, log: DarshanLog, trace_id: str = "trace") -> DiagnosisReport:
        """Run the full pipeline over one Darshan log."""
        return self.run(log, trace_id).build_report()

    def usage(self) -> Usage:
        """Cumulative LLM spend across every diagnosis this agent ran."""
        return self.client.total_usage()

    # -- pipeline access ---------------------------------------------------

    def run(
        self,
        log: DarshanLog,
        trace_id: str = "trace",
        observers: Sequence[PipelineObserver] = (),
    ) -> PipelineContext:
        """Like :meth:`diagnose` but returns the full pipeline context
        (stage timings, per-stage usage, intermediate products)."""
        return self.pipeline.run(
            log,
            trace_id,
            config=self.config,
            client=self.client,
            retriever=self.retriever,
            observers=observers,
        )


def _build_ioagent(
    model: str = "gpt-4o",
    reflection_model: str | None = None,
    seed: int = 0,
    config: IOAgentConfig | None = None,
    client: LLMClient | None = None,
    retriever: Retriever | None = None,
    **config_kwargs,
) -> IOAgent:
    """Registry factory: build an IOAgent from flat keyword knobs."""
    if config is None:
        if reflection_model is None:
            reflection_model = IOAgentConfig.reflection_model
        config = IOAgentConfig(
            model=model, reflection_model=reflection_model, seed=seed, **config_kwargs
        )
    return IOAgent(config, client=client, retriever=retriever)


register_tool("ioagent", _build_ioagent, replace=True)
