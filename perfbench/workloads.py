"""The benchmark's inputs: which traces each workload sends, and when.

Everything here is a pure function of the workload seed.  The program
under test only ever receives the rendered trace text; the scenario
registry and the simulator are used to make that text.

Build seeds alone do not make two builds of a scenario distinct (many
small pathology scenarios produce byte-identical traces at neighbouring
seeds), so every generated trace also gets its own job id.  The job id
only appears in the trace header, which the diagnosis does not read, but
it is part of the rendered counter text and therefore of the trace
digest: every pool entry is a different request to the cache.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass
from itertools import cycle
from pathlib import Path

from repro.core.service import trace_digest
from repro.darshan.writer import render_darshan_text
from repro.workloads.scenarios import build_scenario

# Every workload parameter lives in spec.json, next to the rationale for it.
SPEC = json.loads((Path(__file__).resolve().parent / "spec.json").read_text(encoding="utf-8"))
_W = SPEC["workloads"]

WORKLOADS = tuple(_W)

COLD_SMALL_SCENARIOS = tuple(_W["cold-small"]["scenarios"])
COLD_SMALL_VARIANTS = int(_W["cold-small"]["variants"])
COLD_SMALL_MIN_REQUESTS = int(_W["cold-small"]["min_requests"])

INGEST_LARGE_SCENARIOS = tuple(_W["ingest-large"]["scenarios"])

# serve-mix: see spec.json's "serve-mix" entry for how the rate relates to
# the measured saturation of the server, and why the traffic mix is fixed.
_SERVE = _W["serve-mix"]
SERVE_SMALL_SCENARIOS = tuple(_SERVE["small_scenarios"])
SERVE_MEDIUM_SCENARIOS = tuple(_SERVE["medium_scenarios"])
MEDIUM_EVERY = int(_SERVE["medium_every"])
SERVE_RATE_PER_S = float(_SERVE["rate_per_s"])
SERVE_NEW_EVERY = int(_SERVE["new_every"])
SERVE_PREFILL_EVERY = int(_SERVE["prefill_every"])
SERVE_ZIPF_EXPONENT = float(_SERVE["zipf_exponent"])

# Latency limit for goodput_rps, per workload.
LATENCY_LIMIT_MS = {name: float(w["latency_limit_ms"]) for name, w in _W.items()}

# An open-loop run is invalid when the generator ran late or the backlog
# grew: the schedule then no longer describes the load the server saw.
GENERATOR_LAG_BOUND_MS = float(_SERVE["generator_lag_bound_ms_p90"])
BACKLOG_END_BOUND = int(_SERVE["backlog_end_bound"])

_JOBID_BASE = 5_000_000
DXT_MARKER = "\n# DXT trace"


def nproc() -> int:
    """Processors this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class TraceInput:
    """One request's trace text plus what the checks need to know about it."""

    scenario: str
    labels: frozenset[str]
    text: str
    sim_digest: str  # trace_digest of the simulated log the text came from
    segments: int

    @property
    def mb(self) -> float:
        return len(self.text) / 1e6

    @property
    def counter_mb(self) -> float:
        """Megabytes of counter text (everything before the DXT section)."""
        cut = self.text.find(DXT_MARKER)
        return (len(self.text) if cut < 0 else cut) / 1e6


@dataclass
class BuildCost:
    """Time spent simulating and rendering one set of inputs."""

    sim_s: float = 0.0
    render_s: float = 0.0
    segments: int = 0
    mb: float = 0.0


@dataclass(frozen=True)
class TraceSpec:
    scenario: str
    build_seed: int
    jobid: int


def build_inputs(specs: list[TraceSpec]) -> tuple[list[TraceInput], BuildCost]:
    """Simulate and render every spec; returns the inputs and their cost."""
    cost = BuildCost()
    inputs = []
    for spec in specs:
        started = time.perf_counter()
        labeled = build_scenario(spec.scenario, seed=spec.build_seed)
        simulated = time.perf_counter()
        labeled.log.header.jobid = spec.jobid
        text = render_darshan_text(labeled.log, include_dxt=True)
        rendered = time.perf_counter()
        cost.sim_s += simulated - started
        cost.render_s += rendered - simulated
        segments = len(labeled.log.dxt_segments) if labeled.log.dxt_segments else 0
        cost.segments += segments
        cost.mb += len(text) / 1e6
        inputs.append(
            TraceInput(
                scenario=spec.scenario,
                labels=labeled.labels,
                text=text,
                sim_digest=trace_digest(labeled.log),
                segments=segments,
            )
        )
    return inputs, cost


def _specs(scenarios: list[str], seed: int) -> list[TraceSpec]:
    """Variant ``v`` of a scenario is built at seed ``1000 * seed + v``."""
    seen: dict[str, int] = {}
    specs = []
    for i, scenario in enumerate(scenarios):
        variant = seen.get(scenario, 0)
        seen[scenario] = variant + 1
        specs.append(TraceSpec(scenario, 1000 * seed + variant, _JOBID_BASE + i))
    return specs


def cold_small_specs(seed: int, variants: int = COLD_SMALL_VARIANTS) -> list[TraceSpec]:
    """One pass of cold-small: every scenario, ``variants`` times, interleaved."""
    return _specs(list(COLD_SMALL_SCENARIOS) * variants, seed)


def ingest_large_specs(seed: int) -> list[TraceSpec]:
    return _specs(list(INGEST_LARGE_SCENARIOS), seed)


def _is_medium(k: int) -> bool:
    return k % MEDIUM_EVERY == MEDIUM_EVERY - 1


def serve_mix_specs(seed: int, n_items: int) -> list[TraceSpec]:
    """The first ``n_items`` serve-mix traces."""
    small, medium = cycle(SERVE_SMALL_SCENARIOS), cycle(SERVE_MEDIUM_SCENARIOS)
    return _specs([next(medium) if _is_medium(k) else next(small) for k in range(n_items)], seed)


@dataclass(frozen=True)
class Schedule:
    """An open-loop arrival schedule over a pool of traces."""

    due: tuple[float, ...]  # seconds after the schedule starts, ascending
    item: tuple[int, ...]  # pool index each request sends
    prefilled: frozenset[int]  # pool indices pre-filled into the store

    @property
    def n_items(self) -> int:
        return max(self.item) + 1 if self.item else 0


def serve_schedule(seed: int, seconds: float, rate: float = SERVE_RATE_PER_S) -> Schedule:
    """Poisson arrivals at ``rate`` per second for ``seconds``, Zipf-like repeats.

    The request count is fixed at rate x seconds and the arrival times
    are that many uniform draws, sorted: a Poisson process conditioned on
    its count.  Which requests bring new, pre-filled or repeated traces of
    each size class is fixed; the seed draws the arrival times and which
    earlier traces repeat.
    """
    rng = random.Random(f"perfbench/serve-mix/{seed}")
    n = max(1, round(rate * seconds))
    due = tuple(sorted(rng.uniform(0.0, seconds) for _ in range(n)))
    weights = [1.0 / (rank + 1) ** SERVE_ZIPF_EXPONENT for rank in range(n)]
    seen: dict[bool, list[int]] = {False: [], True: []}  # by size class, oldest first
    prefilled: set[int] = set()
    items: list[int] = []
    for i in range(n):
        new, repeat = divmod(i, SERVE_NEW_EVERY)
        if repeat == 0:
            group = seen[_is_medium(new)]
            if len(group) % SERVE_PREFILL_EVERY == SERVE_PREFILL_EVERY - 1:
                prefilled.add(new)
            group.append(new)
            items.append(new)
            continue
        medium = _is_medium(new * (SERVE_NEW_EVERY - 1) + repeat - 1)
        candidates = seen[medium] or seen[not medium]
        rank = rng.choices(range(len(candidates)), weights=weights[: len(candidates)])[0]
        items.append(candidates[-1 - rank])
    return Schedule(due=due, item=tuple(items), prefilled=frozenset(prefilled))


@dataclass
class Plan:
    """What one workload run sends: the trace specs and, for serve-mix, when."""

    specs: list[TraceSpec]
    schedule: Schedule | None = None
    min_requests: int = 0  # closed loop: requests to send at least


def plan(
    workload: str, seed: int, seconds: float, toy: bool = False, rate: float | None = None
) -> Plan:
    """The inputs of ``workload`` at ``seed``; ``toy`` shrinks them for self-tests.

    ``rate`` overrides serve-mix's arrival rate (the saturation sweep uses it).
    """
    if workload == "cold-small":
        specs = cold_small_specs(seed, variants=1 if toy else COLD_SMALL_VARIANTS)
        if toy:
            return Plan(specs[:4])
        return Plan(specs, min_requests=COLD_SMALL_MIN_REQUESTS)
    if workload == "ingest-large":
        return Plan(ingest_large_specs(seed))
    if workload == "serve-mix":
        schedule = serve_schedule(seed, seconds, rate or SERVE_RATE_PER_S)
        return Plan(serve_mix_specs(seed, schedule.n_items), schedule)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
