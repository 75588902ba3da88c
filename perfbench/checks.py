"""In-run correctness checks.  Each returns a list of failures (empty: passed)."""

from __future__ import annotations

import hashlib

from repro.core.service import trace_digest
from repro.darshan.parser import parse_darshan_text
from repro.darshan.writer import render_darshan_text

from drivers import LoadResult
from workloads import TraceInput


def served_equals_cold(result: LoadResult, cold: dict[int, str]) -> list[str]:
    """Every report for a trace has the text of that trace's cold report.

    ``cold`` maps pool index -> the report text computed cold in set-up
    (store pre-fill); for every other trace, the first report is the cold
    one, since each trace executes once and hits copy its result.
    """
    reference = dict(cold)
    failures = []
    for request in result.requests:
        if request.outcome != "ok":
            continue
        expected = reference.setdefault(request.item, request.text)
        if request.text != expected:
            how = "coalesced" if request.coalesced else "cache" if request.cached else "run"
            failures.append(
                f"request {request.rid} ({how}) for trace {request.item}: "
                "report text differs from the cold report"
            )
    return failures


def requests_succeeded(result: LoadResult) -> list[str]:
    return [
        f"request {r.rid} for trace {r.item} {r.outcome}: {r.error}"
        for r in result.requests
        if r.outcome != "ok"
    ]


def not_degraded(result: LoadResult) -> list[str]:
    return [
        f"request {r.rid} for trace {r.item} degraded: lost {', '.join(r.degraded)}"
        for r in result.requests
        if r.degraded
    ]


def zero_hits(result: LoadResult) -> list[str]:
    """A cold workload must never be served from the cache or the store."""
    served = sum(1 for r in result.requests if r.cached or r.coalesced)
    counts = {
        "memory hits": result.memory_hits,
        "store hits": result.store_hits,
        "cache-served or coalesced requests": served,
    }
    return [f"cold workload recorded {n} {what}" for what, n in counts.items() if n]


def digest_roundtrip(pool: list[TraceInput]) -> tuple[list[str], int]:
    """Re-exporting a parsed input must not change its digest.

    For each input ``text``, with ``log = parse_darshan_text(text)``:
    ``trace_digest(parse_darshan_text(render_darshan_text(log,
    include_dxt=True)))`` must equal ``trace_digest(log)``, and the counter
    text rendered from ``log`` must be the input's counter text.

    Also returns how many inputs digest differently from the simulated log
    they were rendered from.  That is expected for every input with DXT
    segments: the text keeps segment times to 1e-4 s only.
    """
    failures = []
    differs_from_simulation = 0
    for index, trace in enumerate(pool):
        log = parse_darshan_text(trace.text)
        if not trace.text.startswith(render_darshan_text(log)):
            failures.append(f"trace {index} ({trace.scenario}): counter text changed by parsing")
        digest = trace_digest(log)
        again = trace_digest(parse_darshan_text(render_darshan_text(log, include_dxt=True)))
        if again != digest:
            failures.append(f"trace {index} ({trace.scenario}): digest changed on re-export")
        differs_from_simulation += digest != trace.sim_digest
    return failures, differs_from_simulation


def reports_sha256(texts: list[str]) -> str:
    """One digest over an ordered list of report texts."""
    digest = hashlib.sha256()
    for text in texts:
        digest.update(hashlib.sha256(text.encode("utf-8")).digest())
    return digest.hexdigest()
