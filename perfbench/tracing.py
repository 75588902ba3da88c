"""Span tracing for the benchmark's traced run.

Spans are recorded from the benchmark's own code only, around the public
calls into each layer:

* ``parse`` around :func:`~repro.darshan.parser.parse_darshan_text`, with
  ``parse.dxt`` around :func:`~repro.darshan.dxt.parse_dxt_text` inside it;
* ``digest`` around :func:`~repro.core.service.trace_digest`, wrapped where
  :mod:`repro.core.service` looks it up;
* ``store.get`` / ``store.put`` through :class:`TracingStore`, the store
  handed to the service as ``store=``;
* ``submit`` around :meth:`~repro.serve.server.DiagnosisServer.submit`;
* ``queue`` from the end of ``submit`` to the start of the ``preprocess``
  stage, and one span per pipeline stage, from :class:`TracingObserver`;
* ``request`` from the request's start (its due time in an open loop) to
  the moment its report was in hand.

The module-level wrappers exist only inside :func:`instrumented`.  Spans
are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.core.pipeline import PipelineContext, PipelineObserver
from repro.core.report import DiagnosisReport
from repro.llm.client import Usage
from repro.serve.store import ResultStore, StoreKey

STAGES = ("preprocess", "summarize", "temporal", "describe", "integrate", "diagnose", "merge")

# Layer -> its parent layer.  digest and store.get run both in the client
# thread, inside submit, and in a worker thread, before the pipeline
# starts, which is inside the queue wait.
_PARENT = {
    "parse": "request",
    "parse.dxt": "parse",
    "submit": "request",
    "queue": "request",
    "store.put": "request",
    **{stage: "request" for stage in STAGES},
}
_PARENT_BY_SIDE = {"digest": ("submit", "queue"), "store.get": ("submit", "queue")}

LAYERS = (
    "request", "parse", "parse.dxt", "submit", "digest", "store.get", "queue", *STAGES, "store.put"
)


@dataclass
class LLMTotals:
    """LLM usage of the executed requests, summed."""

    calls: int = 0
    integrate_calls: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0


@dataclass
class Tracer:
    """In-memory span recorder shared by the client and the worker threads."""

    client_thread: int = field(default_factory=threading.get_ident)
    origin: float = field(default_factory=time.perf_counter)
    # (layer, request id, start, end, recorded in the client thread)
    spans: list[tuple[str, int, float, float, bool]] = field(default_factory=list)
    llm: LLMTotals = field(default_factory=LLMTotals)
    retrieved: int = 0
    kept: int = 0
    _owner: dict[int, int] = field(default_factory=dict)
    _submit_end: dict[int, float] = field(default_factory=dict)
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    # -- request identity ---------------------------------------------------

    def begin(self, rid: int, log: object | None = None) -> None:
        """Make ``rid`` this thread's current request (and ``log``'s owner)."""
        self._local.rid = rid
        if log is not None:
            self._owner[id(log)] = rid

    def current(self) -> int:
        return getattr(self._local, "rid", -1)

    def owner_of(self, log: object) -> int:
        return self._owner.get(id(log), -1)

    # -- spans ----------------------------------------------------------------

    def record(self, layer: str, rid: int, start: float, end: float) -> None:
        # list.append is a single atomic operation under the interpreter lock.
        self.spans.append((layer, rid, start, end, threading.get_ident() == self.client_thread))

    @contextmanager
    def span(self, layer: str, rid: int | None = None) -> Iterator[None]:
        rid = self.current() if rid is None else rid
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(layer, rid, start, time.perf_counter())

    def submitted(self, rid: int, at: float) -> None:
        self._submit_end[rid] = at

    def queue_left(self, rid: int, at: float) -> None:
        """The pipeline started for ``rid``: its queue wait ends now."""
        start = self._submit_end.get(rid)
        if start is not None and start <= at:
            self.record("queue", rid, start, at)

    def add_llm(self, stage: str, usage: Usage) -> None:
        with self._lock:
            self.llm.calls += usage.calls
            self.llm.integrate_calls += usage.calls if stage == "integrate" else 0
            self.llm.prompt_tokens += usage.prompt_tokens
            self.llm.completion_tokens += usage.completion_tokens

    def add_rag(self, retrieved: int, kept: int) -> None:
        with self._lock:
            self.retrieved += retrieved
            self.kept += kept

    # -- wrappers -------------------------------------------------------------

    def wrap_digest(self, digest: Callable[[Any], str]) -> Callable[[Any], str]:
        def traced_digest(log: Any) -> str:
            rid = self.owner_of(log)
            self._local.rid = rid  # the worker's later store calls belong to it
            with self.span("digest", rid):
                return digest(log)

        return traced_digest

    def wrap_dxt_parse(self, parse: Callable[..., Any]) -> Callable[..., Any]:
        def traced_parse(*args: Any, **kwargs: Any) -> Any:
            with self.span("parse.dxt"):
                return parse(*args, **kwargs)

        return traced_parse

    # -- analysis -------------------------------------------------------------

    def tree(self) -> list[Span]:
        """Every span, in start order, with the index of its parent span.

        A span's parent is the latest-started span of its parent layer in
        the same request; request roots have none.
        """
        out: list[Span] = []
        opened: dict[tuple[int, str], int] = {}
        for layer, rid, start, end, client in sorted(self.spans, key=lambda s: (s[2], -s[3])):
            if layer in _PARENT_BY_SIDE:
                parent_layer = _PARENT_BY_SIDE[layer][0 if client else 1]
            else:
                parent_layer = _PARENT.get(layer, "")
            out.append(
                Span(
                    name=layer,
                    request=rid,
                    start=start - self.origin,
                    end=end - self.origin,
                    thread="client" if client else "worker",
                    parent=opened.get((rid, parent_layer)),
                )
            )
            opened[(rid, layer)] = len(out) - 1
        return out

    def dump(self, path: Path, extra: dict[str, object]) -> dict[str, float]:
        """Write the spans and per-layer self time; returns the self time."""
        tree = self.tree()
        seconds = self_time(tree)
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [asdict(span) for span in tree]
        path.write_text(
            json.dumps({**extra, "self_time_s": seconds, "spans": spans}, indent=1) + "\n",
            encoding="utf-8",
        )
        return seconds


@dataclass(frozen=True)
class Span:
    name: str
    request: int
    start: float  # seconds since the tracer was created
    end: float
    thread: str  # "client" or "worker"
    parent: int | None  # index of the parent span in the same list


def self_time(tree: list[Span]) -> dict[str, float]:
    """Per layer, seconds of span time not covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in tree:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    totals = {layer: 0.0 for layer in LAYERS}
    for i, span in enumerate(tree):
        covered = _covered(children.get(i, []), span.start, span.end)
        totals[span.name] += span.end - span.start - covered
    return totals


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class TracingStore(ResultStore):
    """A :class:`ResultStore` whose reads and writes are recorded as spans."""

    def __init__(self, root: str | Path, tracer: Tracer) -> None:
        super().__init__(root)
        self.tracer = tracer

    def get(self, key: StoreKey) -> DiagnosisReport | None:
        with self.tracer.span("store.get"):
            return super().get(key)

    def put(self, key: StoreKey, report: DiagnosisReport) -> Path:
        with self.tracer.span("store.put"):
            return super().put(key, report)


class TracingObserver(PipelineObserver):
    """Stage spans, queue-wait ends and LLM usage, per executed request."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._starts: dict[tuple[int, str], float] = {}

    def on_stage_start(self, stage: str, ctx: PipelineContext) -> None:
        now = time.perf_counter()
        rid = self.tracer.owner_of(ctx.log)
        if stage == "preprocess":
            self.tracer.queue_left(rid, now)
        self._starts[(rid, stage)] = now

    def on_stage_end(self, stage: str, ctx: PipelineContext, seconds: float) -> None:
        now = time.perf_counter()
        rid = self.tracer.owner_of(ctx.log)
        start = self._starts.pop((rid, stage), now - seconds)
        self.tracer.record(stage, rid, start, now)
        if stage == "integrate":
            self.tracer.add_rag(ctx.sources_retrieved, ctx.sources_kept)

    def on_llm_call(
        self, stage: str, ctx: PipelineContext, model: str, usage: Usage, call_id: str
    ) -> None:
        self.tracer.add_llm(stage, usage)


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[None]:
    """Wrap ``trace_digest`` and ``parse_dxt_text`` where the program looks them up."""
    import repro.core.service as service_module
    import repro.darshan.dxt as dxt_module

    digest, dxt_parse = service_module.trace_digest, dxt_module.parse_dxt_text
    service_module.trace_digest = tracer.wrap_digest(digest)
    dxt_module.parse_dxt_text = tracer.wrap_dxt_parse(dxt_parse)
    try:
        yield
    finally:
        service_module.trace_digest = digest
        dxt_module.parse_dxt_text = dxt_parse
