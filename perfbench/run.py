"""End-to-end and per-layer benchmark of IOAgent's diagnosis request path.

Each request is Darshan trace text: it is parsed with
``parse_darshan_text`` and submitted to a ``DiagnosisServer`` (trace
digest, memory-cache and ``ResultStore`` lookup, queue, the seven pipeline
stages, store write) until its ``DiagnosisReport`` is in hand.  The tool is
the default ``IOAgentConfig(seed=...)``; the server runs one worker per
processor.

Workloads (see ``workloads.py`` for their inputs):

* ``cold-small``   closed loop over distinct small traces, empty cache;
* ``ingest-large`` closed loop over four large traces, empty cache;
* ``serve-mix``    open-loop Poisson traffic with repeats into a server
  whose persistent store is pre-filled for part of the traces.

Run from the repository root::

    python3 perfbench/run.py --workload cold-small --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
same load untraced and then traced, reports the per-layer metrics and the
tracing overhead, and writes the spans to ``.perfbench/``.  Each measured
phase prints its requests attempted, succeeded, failed and rejected.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (failed and rejected requests, or failed checks)
and ``metrics``.  The exit code is 1 when a correctness check
fails or an open-loop run is invalid, 2 when the program source is absent.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # the program is importable only after _use_program_source()
    from drivers import LoadResult
    from tracing import Tracer
    from workloads import Schedule, TraceInput

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up runs at least SETUP_REPS times, and again while the repetitions
# so far took under SETUP_MIN_S, up to SETUP_MAX_REPS: cheap set-ups get
# more samples for their median.
SETUP_REPS = 3
SETUP_MIN_S = 5.0
SETUP_MAX_REPS = 7
OUT_DIR = ROOT / ".perfbench"


def _use_program_source() -> None:
    """Import the program from the checkout's ``src`` directory."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
            "run this from a full checkout of the repository",
            file=sys.stderr,
        )
        raise SystemExit(2)
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


# -- statistics ---------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- set-up ---------------------------------------------------------------------


@dataclass
class Setup:
    pool: list[TraceInput]
    schedule: Schedule | None  # serve-mix only
    store_dir: Path | None  # pristine pre-filled store (serve-mix)
    cold: dict[int, str]  # pool index -> report text computed cold in set-up
    setup_s: float
    sim_s: float
    render_s: float
    segments: int
    mb: float
    min_requests: int = 0  # closed loop: send at least this many


def set_up(
    workload: str, seed: int, seconds: float, toy: bool, workdir: Path, rate: float | None = None
) -> Setup:
    """Simulate and render the inputs, build the tool and RAG index, pre-fill.

    Done several times (once at toy scale); times are medians and the last
    repetition's products are used.  ``rate`` overrides serve-mix's rate.
    """
    from repro.core.agent import IOAgentConfig
    from repro.core.service import DiagnosisService
    from repro.darshan.parser import parse_darshan_text
    from repro.rag.index import clear_default_index_cache
    from repro.serve import DiagnosisServer, ResultStore

    from workloads import build_inputs, nproc, plan

    totals, sims, renders = [], [], []
    began = time.perf_counter()
    for rep in count():
        planned = plan(workload, seed, seconds, toy=toy, rate=rate)
        pool, cost = build_inputs(planned.specs)

        started = time.perf_counter()
        clear_default_index_cache()
        store_dir = workdir / f"store-setup-{rep}" if planned.schedule is not None else None
        service = DiagnosisService(
            config=IOAgentConfig(seed=seed),
            store=ResultStore(store_dir) if store_dir is not None else None,
        )
        cold: dict[int, str] = {}
        if planned.schedule is not None:
            items = sorted(planned.schedule.prefilled)
            # serve_all queues every pre-fill request at once.
            depth = max(64, len(items))
            with DiagnosisServer(service, workers=nproc(), queue_depth=depth) as server:
                reports = server.serve_all(
                    [(parse_darshan_text(pool[i].text), f"prefill-{i}") for i in items]
                )
            cold = {i: report.text for i, report in zip(items, reports)}
        tool_s = time.perf_counter() - started

        totals.append(cost.sim_s + cost.render_s + tool_s)
        sims.append(cost.sim_s)
        renders.append(cost.render_s)
        if rep and store_dir is not None:
            shutil.rmtree(workdir / f"store-setup-{rep - 1}")
        done, spent = rep + 1, time.perf_counter() - began
        if toy or done >= SETUP_MAX_REPS or (done >= SETUP_REPS and spent >= SETUP_MIN_S):
            break
    return Setup(
        pool=pool,
        schedule=planned.schedule,
        store_dir=store_dir,
        cold=cold,
        setup_s=statistics.median(totals),
        sim_s=statistics.median(sims),
        render_s=statistics.median(renders),
        segments=cost.segments,
        mb=cost.mb,
        min_requests=planned.min_requests,
    )


# -- one measured phase ------------------------------------------------------------


@dataclass
class Phase:
    load: LoadResult
    counters: dict[str, int]
    queue_depth_max: int
    tokens: dict[str, tuple[int, int]]  # model -> (prompt, completion) tokens
    retries: int
    tracer: Tracer | None = None


def run_phase(
    workload: str, setup: Setup, seed: int, seconds: float, workdir: Path, traced: bool
) -> Phase:
    from repro.core.agent import IOAgentConfig
    from repro.core.service import DiagnosisService
    from repro.serve import DiagnosisServer, ResultStore

    from drivers import closed_loop, open_loop
    from tracing import Tracer, TracingObserver, TracingStore, instrumented
    from workloads import nproc

    tracer = Tracer() if traced else None
    store = None
    if setup.store_dir is not None:
        phase_dir = workdir / ("store-traced" if traced else "store-untraced")
        shutil.copytree(setup.store_dir, phase_dir)
        store = TracingStore(phase_dir, tracer) if tracer else ResultStore(phase_dir)
    service = DiagnosisService(
        config=IOAgentConfig(seed=seed),
        observers=(TracingObserver(tracer),) if tracer else (),
        store=store,
    )
    server = DiagnosisServer(service, workers=nproc())
    with instrumented(tracer) if tracer else nullcontext():
        try:
            if setup.schedule is not None:
                load = open_loop(server, setup.pool, setup.schedule, tracer=tracer)
            else:
                load = closed_loop(
                    server, setup.pool, seconds, min_requests=setup.min_requests, tracer=tracer
                )
        finally:
            server.close()
    snapshot = server.metrics_snapshot()
    client = service.tool.client  # type: ignore[attr-defined]
    return Phase(
        load=load,
        counters=snapshot.counters,
        queue_depth_max=int(snapshot.queue_depth["max"] or 0),
        tokens={
            model: (usage.prompt_tokens, usage.completion_tokens)
            for model, usage in client.usage_by_model.items()
        },
        retries=client.resilience_metrics().retries,
        tracer=tracer,
    )


# -- metrics ----------------------------------------------------------------------


def llm_cost_per_execution(phase: Phase, executed: int) -> float:
    """Simulated spend per executed diagnosis, from whole-token counts.

    Exact rational arithmetic: the figure does not depend on the order in
    which worker threads booked their usage, or on how many passes ran.
    """
    from repro.llm.models import get_model

    total = Fraction(0)
    for model, (prompt, completion) in phase.tokens.items():
        profile = get_model(model)
        total += prompt * Fraction(profile.usd_per_mtok_in)
        total += completion * Fraction(profile.usd_per_mtok_out)
    return float(total / (10**6 * max(1, executed)))


def cold_reports(setup: Setup, phase: Phase) -> list[tuple[int, str]]:
    """(pool index, report text) of each trace's first report, by pool index."""
    first: dict[int, str] = dict(setup.cold)
    for request in phase.load.requests:
        if request.outcome == "ok":
            first.setdefault(request.item, request.text)
    return sorted(first.items())


def end_to_end(workload: str, setup: Setup, phase: Phase) -> dict[str, tuple[float, str]]:
    from repro.evaluation.accuracy import match_stats

    from workloads import LATENCY_LIMIT_MS

    load = phase.load
    ok = [r for r in load.requests if r.outcome == "ok"]
    latency_ms = [r.latency_s * 1e3 for r in ok] or [float("nan")]
    limit = LATENCY_LIMIT_MS[workload]
    reports = cold_reports(setup, phase)
    f1 = [match_stats(text, setup.pool[item].labels).f1 for item, text in reports]
    return {
        "request_ms_p50": (percentile(latency_ms, 50), "ms"),
        "request_ms_p90": (percentile(latency_ms, 90), "ms"),
        "requests_per_s": (len(ok) / load.elapsed_s, "1/s"),
        "mb_per_s": (sum(setup.pool[r.item].mb for r in ok) / load.elapsed_s, "MB/s"),
        "goodput_rps": (sum(r.latency_s * 1e3 <= limit for r in ok) / load.elapsed_s, "1/s"),
        "setup_s": (setup.setup_s, "s"),
        "llm_cost_usd_per_request": (llm_cost_per_execution(phase, load.misses), "USD"),
        "f1_mean": (statistics.fmean(f1) if f1 else float("nan"), "score"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def _mean_latency(phase: Phase) -> float:
    times = [r.latency_s for r in phase.load.requests if r.outcome == "ok"]
    return statistics.fmean(times) if times else float("nan")


def per_layer(
    setup: Setup, phase: Phase, untraced: Phase, self_time: dict[str, float]
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced phase."""
    from tracing import STAGES

    load, tracer = phase.load, phase.tracer
    n = max(1, len(load.requests))
    executed = max(1, load.misses)
    by_layer: dict[str, list[float]] = {}
    for layer, _rid, start, end, _client in tracer.spans:
        by_layer.setdefault(layer, []).append(end - start)

    def total(layer: str) -> float:
        return sum(by_layer.get(layer, ()))

    def p(layer: str, q: float) -> float:
        values = by_layer.get(layer)
        return percentile(values, q) * 1e3 if values else 0.0

    requested = [setup.pool[r.item] for r in load.requests]  # every request is parsed
    counter_s = self_time["parse"]
    served = load.memory_hits + load.store_hits + phase.counters["coalesced"]
    llm = tracer.llm
    lags = [r.lag_s * 1e3 for r in load.requests] or [0.0]

    metrics: dict[str, tuple[float, str]] = {
        "sim.s": (setup.sim_s, "s"),
        "sim.segments_per_s": (setup.segments / setup.sim_s, "1/s"),
        "render.s": (setup.render_s, "s"),
        "render.mb_per_s": (setup.mb / setup.render_s, "MB/s"),
        "parse.ms_per_request": (total("parse") * 1e3 / n, "ms"),
        "parse.counter_mb_per_s": (sum(t.counter_mb for t in requested) / counter_s, "MB/s"),
        "parse.dxt_segments_per_s": (
            sum(t.segments for t in requested) / max(total("parse.dxt"), 1e-9),
            "1/s",
        ),
        "digest.calls_per_request": (len(by_layer.get("digest", ())) / n, "count"),
        "digest.ms_per_request": (total("digest") * 1e3 / n, "ms"),
        "lookup.memory_hits": (load.memory_hits, "count"),
        "lookup.store_hits": (load.store_hits, "count"),
        "lookup.coalesced": (phase.counters["coalesced"], "count"),
        "lookup.misses": (load.misses, "count"),
        "lookup.hit_ratio": (served / n, "ratio"),
        "store.get_ms_p50": (p("store.get", 50), "ms"),
        "store.put_ms_p50": (p("store.put", 50), "ms"),
        "store.writes": (phase.counters["store_writes"], "count"),
        "queue.wait_ms_p50": (p("queue", 50), "ms"),
        "queue.wait_ms_p90": (p("queue", 90), "ms"),
        "queue.depth_max": (phase.queue_depth_max, "count"),
        "queue.depth_end": (load.backlog_end, "count"),
        "serve.executed": (phase.counters["executed"], "count"),
        "serve.rejected": (phase.counters["rejected"], "count"),
    }
    for stage in STAGES:
        metrics[f"stage.{stage}.ms_per_request"] = (total(stage) * 1e3 / executed, "ms")
    metrics.update(
        {
            "llm.calls_per_request": (llm.calls / executed, "count"),
            "llm.integrate_calls_per_request": (llm.integrate_calls / executed, "count"),
            "llm.prompt_tokens_per_request": (llm.prompt_tokens / executed, "tokens"),
            "llm.completion_tokens_per_request": (llm.completion_tokens / executed, "tokens"),
            "llm.retries": (phase.retries, "count"),
            "rag.retrieved_per_request": (tracer.retrieved / executed, "count"),
            "rag.kept_ratio": (tracer.kept / max(1, tracer.retrieved), "ratio"),
            "generator.lag_ms_p90": (percentile(lags, 90), "ms"),
            "generator.lag_ms_max": (max(lags), "ms"),
            "trace.overhead_ratio": (_mean_latency(phase) / _mean_latency(untraced), "ratio"),
        }
    )
    for layer, seconds in self_time.items():
        metrics[f"self.{layer}.ms_per_request"] = (seconds * 1e3 / n, "ms")
    return metrics


# -- checks -----------------------------------------------------------------------------


def run_checks(workload: str, setup: Setup, phase: Phase) -> list[str]:
    import checks

    from workloads import BACKLOG_END_BOUND, GENERATOR_LAG_BOUND_MS

    load = phase.load
    failures = checks.requests_succeeded(load)
    failures += checks.not_degraded(load)
    failures += checks.served_equals_cold(load, setup.cold)
    if setup.schedule is None:
        failures += checks.zero_hits(load)
    else:
        lags = [r.lag_s * 1e3 for r in load.requests]
        lag_p90 = percentile(lags, 90)
        if lag_p90 > GENERATOR_LAG_BOUND_MS:
            failures.append(
                f"invalid run: generator lag p90 {lag_p90:.1f} ms exceeds "
                f"{GENERATOR_LAG_BOUND_MS:.0f} ms"
            )
        if load.backlog_end > BACKLOG_END_BOUND:
            failures.append(
                f"invalid run: {load.backlog_end} requests outstanding at the end of the "
                f"schedule (bound {BACKLOG_END_BOUND}): the queue is growing"
            )
    return failures


# -- one workload ----------------------------------------------------------------------


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, toy: bool = False
) -> Outcome:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
    try:
        setup = set_up(workload, seed, seconds, toy, workdir)
        return measure(workload, setup, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(
    workload: str, setup: Setup, seed: int, seconds: float, trace: bool, workdir: Path
) -> Outcome:
    """Run the measured phase(s) on a finished set-up, check and report."""
    import checks

    failures, sim_mismatches = checks.digest_roundtrip(setup.pool)
    phases = [run_phase(workload, setup, seed, seconds, workdir, traced=False)]
    if trace:
        phases.append(run_phase(workload, setup, seed, seconds, workdir, traced=True))
    for phase in phases:
        failures += run_checks(workload, setup, phase)
        outcomes = Counter(r.outcome for r in phase.load.requests)
        print(
            f"requests {'traced' if phase.tracer else 'untraced'}: "
            f"attempted {len(phase.load.requests)} succeeded {outcomes['ok']} "
            f"failed {outcomes['failed']} rejected {outcomes['rejected']}"
        )

    untraced = phases[0]
    texts = [text for _, text in cold_reports(setup, untraced)]
    print(f"report_sha256 {workload} seed={seed} {checks.reports_sha256(texts)}")
    print(
        f"reports {len(texts)}; inputs whose digest differs from the simulated log: "
        f"{sim_mismatches} of {len(setup.pool)}"
    )
    e2e = end_to_end(workload, setup, untraced)
    if trace:
        traced = phases[1]
        path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
        self_time = traced.tracer.dump(path, {"workload": workload, "seed": seed})
        metrics = per_layer(setup, traced, untraced, self_time)
        metrics["parse.sim_digest_mismatches"] = (sim_mismatches, "count")
        print(f"spans written to {path}")
        for name, (value, unit) in e2e.items():
            print(f"untraced {name} = {value:.6g} {unit}")
    else:
        metrics = e2e
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    attempted = sum(len(phase.load.requests) for phase in phases)
    failed_requests = sum(1 for phase in phases for r in phase.load.requests if r.outcome != "ok")
    return Outcome(
        correct=not failures,
        attempted=attempted,
        failed=max(failed_requests, len(failures)),
        metrics=metrics,
    )


# -- command line ---------------------------------------------------------------------


def _result_line(outcome: Outcome) -> str:
    return json.dumps(
        {
            "correct": outcome.correct,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in outcome.metrics.items()
            },
        }
    )


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process (so peak memory is its own)."""
    from workloads import WORKLOADS

    combined = Outcome(correct=True, attempted=0, failed=0)
    for workload in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
        command += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        command += ["--trace", str(args.trace), *(["--toy"] if args.toy else [])]
        proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        if proc.returncode not in (0, 1) or not lines:
            print(f"[{workload}] exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            combined.correct = False
            continue
        result = json.loads(lines[-1])
        combined.correct &= result["correct"] and proc.returncode == 0
        combined.attempted += result["attempted"]
        combined.failed += result["failed"]
        for name, metric in result["metrics"].items():
            combined.metrics[f"{workload}.{name}"] = (metric["value"], metric["unit"])
    for name, (value, unit) in combined.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(_result_line(combined))
    return 0 if combined.correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("cold-small", "ingest-large", "serve-mix", "all")
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--toy", action="store_true", help="one set-up, a handful of requests (self-tests)"
    )
    args = parser.parse_args(argv)
    _use_program_source()
    if args.workload == "all":
        return _run_all(args)
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.toy)
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(_result_line(outcome))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
