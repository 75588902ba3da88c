"""Load generators: the closed loop and the open loop.

Both send trace *text*: every request parses its text with
:func:`~repro.darshan.parser.parse_darshan_text` and submits the log to a
:class:`~repro.serve.server.DiagnosisServer`, from one client thread.

* :func:`closed_loop` sends the next request when the previous report is
  in hand.  Each pass over the pool starts with an empty service cache.
* :func:`open_loop` sends on a fixed schedule whether or not earlier
  requests are done, and times each request from when it was due.  One
  collector thread notes when pending requests resolve.
"""

from __future__ import annotations

import threading
import time
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field

from repro.darshan.parser import parse_darshan_text
from repro.serve.server import DiagnosisServer, PendingDiagnosis, QueueFullError

from tracing import Tracer
from workloads import Schedule, TraceInput

REQUEST_TIMEOUT_S = 60.0


@dataclass
class Request:
    """What happened to one request."""

    rid: int
    item: int  # index into the input pool
    due: float  # perf_counter time the request was due
    start: float = 0.0  # perf_counter time the client began it
    end: float = 0.0  # perf_counter time its report was in hand
    outcome: str = "pending"  # ok | failed | rejected | pending
    text: str = ""
    degraded: tuple[str, ...] = ()
    cached: bool = False
    coalesced: bool = False
    error: str = ""

    @property
    def latency_s(self) -> float:
        return self.end - self.due

    @property
    def lag_s(self) -> float:
        return self.start - self.due


@dataclass
class LoadResult:
    requests: list[Request] = field(default_factory=list)
    elapsed_s: float = 0.0  # from the first request due to the last report in hand
    memory_hits: int = 0
    store_hits: int = 0
    misses: int = 0  # diagnoses the tool actually ran
    backlog_end: int = 0  # accepted, unresolved requests when the schedule ended


def _untraced(layer: str) -> AbstractContextManager[None]:
    return nullcontext()


def _send(
    server: DiagnosisServer, request: Request, text: str, tracer: Tracer | None
) -> PendingDiagnosis | None:
    """Parse and submit one request; returns its handle, or None if refused."""
    request.start = time.perf_counter()
    span = tracer.span if tracer is not None else _untraced
    if tracer is not None:
        tracer.begin(request.rid)
    with span("parse"):
        log = parse_darshan_text(text)
    if tracer is not None:
        tracer.begin(request.rid, log)
    try:
        with span("submit"):
            handle = server.submit(log, trace_id=f"req-{request.rid}")
    except QueueFullError as exc:
        request.end = time.perf_counter()
        request.outcome, request.error = "rejected", str(exc)
        return None
    if tracer is not None:
        tracer.submitted(request.rid, time.perf_counter())
    request.cached, request.coalesced = handle.served_from_cache, handle.coalesced
    return handle


def _resolve(
    request: Request, handle: PendingDiagnosis, timeout: float, tracer: Tracer | None
) -> None:
    try:
        report = handle.result(timeout=timeout)
    except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
        request.outcome, request.error = "failed", repr(exc)
    else:
        request.outcome, request.text, request.degraded = "ok", report.text, report.degraded
    request.end = time.perf_counter()
    if tracer is not None:
        tracer.record("request", request.rid, request.due, request.end)


def closed_loop(
    server: DiagnosisServer,
    pool: list[TraceInput],
    seconds: float,
    *,
    min_requests: int = 0,
    tracer: Tracer | None = None,
) -> LoadResult:
    """Send the pool in order, pass after pass, for at least ``seconds``.

    Only whole passes run, so every run sends each trace equally often: a
    new pass starts while less than ``seconds`` have passed or fewer than
    ``min_requests`` were sent.  Service cache counters are summed over the
    passes before each pass clears the cache.
    """
    result = LoadResult()
    service = server.service
    began = previous_end = time.perf_counter()
    while True:
        for item, trace in enumerate(pool):
            request = Request(rid=len(result.requests), item=item, due=previous_end)
            result.requests.append(request)
            handle = _send(server, request, trace.text, tracer)
            if handle is not None:
                _resolve(request, handle, REQUEST_TIMEOUT_S, tracer)
            previous_end = request.end
        stats = service.stats()
        result.memory_hits += stats.cache_hits
        result.store_hits += stats.store_hits
        result.misses += stats.cache_misses
        if time.perf_counter() - began >= seconds and len(result.requests) >= min_requests:
            break
        service.clear_cache()
    result.elapsed_s = time.perf_counter() - began
    return result


def open_loop(
    server: DiagnosisServer,
    pool: list[TraceInput],
    schedule: Schedule,
    *,
    tracer: Tracer | None = None,
) -> LoadResult:
    """Send ``schedule`` into ``server``; latency counts from each due time."""
    result = LoadResult()
    pending: list[tuple[Request, PendingDiagnosis]] = []
    changed = threading.Condition()
    sending = threading.Event()
    sending.set()
    give_up = float("inf")  # set once the whole schedule has been sent

    def collect() -> None:
        # Waits on the oldest pending request for at most 1 ms at a time,
        # then stamps every request that has resolved since.
        while True:
            with changed:
                while not pending and sending.is_set():
                    changed.wait()
                if not pending or time.perf_counter() > give_up:
                    return
                oldest = pending[0][1]
            try:
                oldest.result(timeout=0.001)
            except Exception:  # noqa: BLE001 - _resolve records the outcome
                pass
            ready, waiting = [], []
            with changed:
                for pair in pending:
                    (ready if pair[1].done() else waiting).append(pair)
                pending[:] = waiting
            for request, handle in ready:
                _resolve(request, handle, 0, tracer)

    collector = threading.Thread(target=collect, name="perfbench-collector")
    collector.start()
    start = time.perf_counter()
    try:
        for rid, (offset, item) in enumerate(zip(schedule.due, schedule.item)):
            request = Request(rid=rid, item=item, due=start + offset)
            result.requests.append(request)
            delay = request.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            handle = _send(server, request, pool[item].text, tracer)
            if handle is None:
                continue
            if handle.done():
                _resolve(request, handle, 0, tracer)
                continue
            with changed:
                pending.append((request, handle))
                changed.notify()
        with changed:
            result.backlog_end = sum(1 for _, handle in pending if not handle.done())
    finally:
        with changed:
            give_up = time.perf_counter() + REQUEST_TIMEOUT_S
            sending.clear()
            changed.notify()
        collector.join()
    for request in result.requests:
        if request.outcome == "pending":
            request.outcome, request.error = "failed", "unresolved at the end of the run"
            request.end = time.perf_counter()
    result.elapsed_s = max(r.end for r in result.requests) - start
    stats = server.service.stats()
    result.memory_hits, result.store_hits = stats.cache_hits, stats.store_hits
    result.misses = stats.cache_misses
    return result
