"""Command-line interface: ``python -m repro <command>``.

Commands:

* one subcommand per registered diagnosis tool (``repro --list-tools``
  shows them), all driven by the :mod:`repro.core.registry` — e.g.
  ``diagnose <trace.darshan.txt>`` (alias ``ioagent``) runs IOAgent,
  ``drishti`` the heuristic baseline, ``ion`` the plain-prompt baseline;
* ``list-scenarios [--tag TAG]`` (or the ``--list-scenarios`` flag) —
  enumerate the scenario registry;
* ``tracebench export <dir>`` — write the 40-trace suite + labels to disk;
* ``tracebench table3`` — print the Table III composition;
* ``evaluate [--traces id,...] [--scenarios name-or-tag,...]`` — run the
  Table IV harness over registry-selected scenarios and print it;
* ``series <run1> <run2> ...`` (or ``series --scenario NAME``) — monitor a
  run series for longitudinal regression against its early-run baseline;
* ``serve [traces...] [--scenarios SEL] [--repeat N]`` — drive the
  streaming serving layer: feed trace files and/or scenario builds through
  the bounded work queue (repeating each request ``--repeat`` times to
  exercise coalescing) and print the deterministic metrics report with
  per-stage latency and queue-depth histograms;
* ``fuzz generate|sweep|ramp`` — the generative scenario fuzzer: sample
  seeded pathology compositions, score the expert rules over a generated
  sweep (per-pathology confusion matrix), or binary-search each rule's
  masking threshold;
* ``chaos [--plans a,b] [--digest] [--out FILE]`` — run the seeded
  fault-injection sweep: every pinned fault plan over the chaos scenario
  set, printing per-run outcome (degraded channels, retries, breaker
  trips) and the byte-reproducible report digest;
* ``chat <trace.darshan.txt>`` — diagnose, then answer questions from stdin.

A tool registered via :func:`repro.core.registry.register_tool` before
``build_parser()`` runs gets its CLI subcommand for free, and a scenario
registered via :func:`repro.workloads.scenarios.register_scenario` is
selectable by ``evaluate --scenarios`` with no CLI changes.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.darshan.log import DarshanLog
    from repro.tracebench.dataset import TraceBench

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__
    from repro.core.registry import available_tools

    parser = argparse.ArgumentParser(
        prog="repro",
        description="IOAgent reproduction: HPC I/O diagnosis from Darshan traces.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    parser.add_argument(
        "--list-tools",
        action="store_true",
        help="list the registered diagnosis tools and exit",
    )
    parser.add_argument(
        "--list-scenarios",
        action="store_true",
        help="list the registered workload scenarios and exit",
    )
    sub = parser.add_subparsers(dest="command", required=False)

    def add_trace_cmd(name: str, help_text: str, aliases: tuple[str, ...] = ()) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, aliases=list(aliases))
        p.add_argument("trace", help="path to darshan-parser text output")
        p.add_argument("--seed", type=int, default=0)
        return p

    # One subcommand per registered tool.  IOAgent keeps its historical
    # name `diagnose` (with `ioagent` as alias) and its design switches.
    # Names that would collide with the fixed subcommands are skipped (the
    # tool stays reachable through the API) rather than crashing argparse.
    reserved = {
        "diagnose",
        "chat",
        "tracebench",
        "evaluate",
        "list-scenarios",
        "series",
        "serve",
        "fuzz",
        "chaos",
    }
    for tool_name in available_tools():
        if tool_name in reserved:
            continue
        if tool_name == "ioagent":
            p = add_trace_cmd(
                "diagnose", "diagnose a trace with IOAgent", aliases=("ioagent",)
            )
            p.add_argument("--no-rag", action="store_true", help="disable knowledge retrieval")
            p.add_argument("--merge", choices=("tree", "one-step"), default="tree")
        else:
            p = add_trace_cmd(tool_name, f"run the {tool_name} diagnosis tool")
        p.add_argument("--model", default="gpt-4o", help="LLM backbone (ignored by heuristic tools)")
        p.add_argument(
            "--max-workers",
            type=int,
            default=None,
            help="kept for compatibility: one diagnosis runs serially",
        )
        p.set_defaults(func=_cmd_tool, tool_name=tool_name)

    p = add_trace_cmd("chat", "diagnose, then answer questions interactively")
    p.add_argument("--model", default="gpt-4o")
    p.add_argument("--max-workers", type=int, default=None)
    p.set_defaults(func=_cmd_chat)

    tb = sub.add_parser("tracebench", help="TraceBench suite operations")
    tb.set_defaults(func=_cmd_tracebench)
    tb_sub = tb.add_subparsers(dest="tb_command", required=True)
    export = tb_sub.add_parser("export", help="write all traces + labels to a directory")
    export.add_argument("directory")
    export.add_argument("--seed", type=int, default=0)
    export.add_argument(
        "--dxt",
        action="store_true",
        help="embed the DXT segment table in each trace (preserves the temporal channel)",
    )
    tb_sub.add_parser("table3", help="print the Table III composition")

    ls = sub.add_parser("list-scenarios", help="list the registered workload scenarios")
    ls.add_argument("--tag", default=None, help="only scenarios matching this tag/selector")
    ls.set_defaults(func=_cmd_list_scenarios)

    se = sub.add_parser(
        "series",
        help="monitor a run series for longitudinal regression "
        "(drift against an early-run baseline)",
    )
    se.add_argument(
        "traces",
        nargs="*",
        help="darshan-parser text files, one per run, in run order",
    )
    se.add_argument(
        "--scenario",
        default=None,
        help="build a registered series scenario instead of reading trace files",
    )
    se.add_argument("--seed", type=int, default=0)
    se.add_argument(
        "--baseline-runs",
        type=int,
        default=3,
        help="how many leading runs freeze the baseline",
    )
    se.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="drift score that declares a regression (default: 1.0)",
    )
    se.add_argument("--inner", default="ioagent", help="single-trace tool to wrap")
    se.add_argument("--model", default="gpt-4o")
    se.add_argument("--max-workers", type=int, default=None)
    se.set_defaults(func=_cmd_series)

    sv = sub.add_parser(
        "serve",
        help="drive the streaming serving layer (bounded queue, coalescing, "
        "persistent store, latency histograms)",
    )
    sv.add_argument(
        "traces",
        nargs="*",
        help="darshan-parser text files to submit as requests",
    )
    sv.add_argument(
        "--scenarios",
        default="",
        help="comma-separated scenario selectors to build and submit "
        "(see `list-scenarios`)",
    )
    sv.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="submit each request this many times (identical requests coalesce "
        "into one pipeline run)",
    )
    sv.add_argument("--tool", default="ioagent", help="registered diagnosis tool to serve")
    sv.add_argument("--model", default="gpt-4o")
    sv.add_argument("--seed", type=int, default=0)
    sv.add_argument("--workers", type=int, default=4, help="serving worker threads")
    sv.add_argument(
        "--queue-depth",
        type=int,
        default=256,
        help="bounded work queue capacity (overflow is a typed rejection)",
    )
    sv.add_argument(
        "--store",
        default=None,
        help="persistent result store directory (cross-process cache)",
    )
    sv.add_argument(
        "--wall",
        action="store_true",
        help="histogram measured wall-clock latency instead of the "
        "deterministic usage model (snapshots stop being reproducible)",
    )
    sv.add_argument(
        "--reports", action="store_true", help="also print each diagnosis report"
    )
    sv.add_argument("--out", default=None, help="write the metrics snapshot JSON to this file")
    sv.set_defaults(func=_cmd_serve)

    fz = sub.add_parser(
        "fuzz", help="generative scenario fuzzer (seeded pathology compositions)"
    )
    fz.set_defaults(func=_cmd_fuzz)
    fz_sub = fz.add_subparsers(dest="fuzz_command", required=True)
    gen = fz_sub.add_parser(
        "generate", help="sample compositions and print their derived ground truth"
    )
    gen.add_argument("--seed", type=int, default=0, help="root seed of the composition stream")
    gen.add_argument("--count", type=int, default=10, help="how many compositions to sample")
    sweep = fz_sub.add_parser(
        "sweep",
        help="build each sampled composition, score the expert rules, and "
        "render the per-pathology confusion matrix",
    )
    sweep.add_argument("--seed", type=int, default=0, help="root seed of the composition stream")
    sweep.add_argument("--count", type=int, default=10, help="how many compositions to sweep")
    sweep.add_argument("--build-seed", type=int, default=0, help="seed for the trace builds")
    sweep.add_argument(
        "--out", default=None, help="also write the rendered confusion matrix to this file"
    )
    ramp = fz_sub.add_parser(
        "ramp", help="binary-search the masking intensity at which each rule stops firing"
    )
    ramp.add_argument("--seed", type=int, default=0, help="seed for the ramp trace builds")
    ramp.add_argument(
        "--iterations", type=int, default=6, help="bisection steps per ramp (resolution 2^-n)"
    )

    ch = sub.add_parser(
        "chaos",
        help="run the seeded fault-injection sweep (resilience chaos harness)",
    )
    ch.add_argument("--seed", type=int, default=0, help="root seed of the chaos sweep")
    ch.add_argument(
        "--plans",
        default="",
        help="comma-separated fault plan names (default: every pinned plan)",
    )
    ch.add_argument(
        "--scenarios",
        default="",
        help="comma-separated scenario names (default: the chaos scenario set)",
    )
    ch.add_argument(
        "--list-plans", action="store_true", help="list the registered fault plans and exit"
    )
    ch.add_argument(
        "--digest",
        action="store_true",
        help="print only the report digest (cross-process reproducibility checks)",
    )
    ch.add_argument("--out", default=None, help="write the chaos report JSON to this file")
    ch.set_defaults(func=_cmd_chaos)

    ev = sub.add_parser("evaluate", help="run the Table IV evaluation harness")
    ev.add_argument("--traces", default="", help="comma-separated trace ids (default: all 40)")
    ev.add_argument(
        "--scenarios",
        default="",
        help="comma-separated scenario names, tags, sources, and/or difficulty "
        "tiers (e.g. 'pathology', 'hard', 'path09-fsync-per-write,easy'); "
        "see `list-scenarios`.  The printed Table IV always includes the "
        "per-difficulty accuracy split.",
    )
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument(
        "--max-workers",
        type=int,
        default=None,
        help="kept for compatibility: each diagnosis runs serially",
    )
    ev.set_defaults(func=_cmd_evaluate)
    return parser


def _load_log(path: str) -> DarshanLog:
    from repro.darshan.parser import parse_darshan_text

    with open(path, "r", encoding="utf-8") as fh:
        return parse_darshan_text(fh.read())


def _cmd_tool(args) -> int:
    from repro.core.registry import get_tool

    kwargs: dict = {"seed": args.seed, "model": args.model}
    if args.max_workers is not None:
        kwargs["max_workers"] = args.max_workers
    if args.tool_name == "ioagent":
        kwargs["use_rag"] = not args.no_rag
        kwargs["merge_strategy"] = args.merge
    tool = get_tool(args.tool_name, **kwargs)
    report = tool.diagnose(_load_log(args.trace), trace_id=args.trace)
    print(report.render())
    return 0


def _cmd_chat(args) -> int:
    from repro.core.agent import IOAgent, IOAgentConfig
    from repro.core.session import InteractiveSession

    log = _load_log(args.trace)
    config = IOAgentConfig(model=args.model, seed=args.seed, max_workers=args.max_workers)
    agent = IOAgent(config)
    report = agent.diagnose(log, trace_id=args.trace)
    print(report.render())
    session = InteractiveSession(report=report, client=agent.client, model=args.model)
    print("\nAsk follow-up questions (empty line to exit).")
    for line in sys.stdin:
        question = line.strip()
        if not question:
            break
        print(session.ask(question))
        print()
    return 0


def _fail_lookup(exc) -> int:
    """Print a :class:`~repro.util.lookup.RegistryLookupError` and exit 2.

    The one CLI rendering for every registry (tools, scenarios, series,
    fault plans, checks): the error subclass carries its own noun, hints,
    and options line; this helper just routes it to stderr.
    """
    print(exc.render_cli(), file=sys.stderr)
    return 2


def _cmd_series(args) -> int:
    from repro.core.registry import ToolNotFoundError, get_tool
    from repro.regression.drift import DRIFT_THRESHOLD
    from repro.workloads.scenarios import (
        ScenarioNotFoundError,
        build_series,
        get_series_scenario,
    )

    threshold = DRIFT_THRESHOLD if args.threshold is None else args.threshold
    baseline_runs = args.baseline_runs
    if args.scenario is not None:
        try:
            scenario = get_series_scenario(args.scenario)
        except ScenarioNotFoundError as exc:
            return _fail_lookup(exc)
        traces = build_series(scenario, seed=args.seed)
        logs = [t.log for t in traces]
        trace_ids = [t.trace_id for t in traces]
        series_id = scenario.name
        baseline_runs = scenario.baseline_runs
    elif len(args.traces) >= 2:
        logs = [_load_log(path) for path in args.traces]
        trace_ids = list(args.traces)
        series_id = "series"
    else:
        print(
            "error: pass two or more trace files in run order, or --scenario NAME",
            file=sys.stderr,
        )
        return 2
    if len(logs) <= baseline_runs:
        print(
            f"error: a series needs more runs ({len(logs)}) than the "
            f"baseline window ({baseline_runs})",
            file=sys.stderr,
        )
        return 2

    kwargs: dict = {"seed": args.seed, "model": args.model}
    if args.max_workers is not None:
        kwargs["max_workers"] = args.max_workers
    try:
        tool = get_tool(
            "series",
            inner=args.inner,
            baseline_runs=baseline_runs,
            threshold=threshold,
            **kwargs,
        )
        result = tool.diagnose_series(logs, series_id=series_id, trace_ids=trace_ids)
    except ToolNotFoundError as exc:  # --inner named an unregistered tool
        return _fail_lookup(exc)
    print(result.render())
    return 0


def _select_scenarios_or_fail(tokens: list[str]):
    """Select scenarios, or print the friendly selector error and return None.

    The shared exit-2 error path for every CLI surface that accepts
    scenario selectors (``evaluate --scenarios``, ``list-scenarios
    --tag``): unknown tokens get the same hints everywhere.
    """
    from repro.workloads.scenarios import ScenarioNotFoundError, select_scenarios

    try:
        return select_scenarios(tokens)
    except ScenarioNotFoundError as exc:
        _fail_lookup(exc)
        return None


def _cmd_list_scenarios(args) -> int:
    from repro.workloads.scenarios import iter_scenarios

    tag = getattr(args, "tag", None)
    if tag is not None:
        scenarios = _select_scenarios_or_fail([tag])
        if scenarios is None:
            return 2
    else:
        scenarios = iter_scenarios(None)
    width = max(len(s.name) for s in scenarios)
    for s in scenarios:
        causes = ",".join(sorted(s.root_causes)) or "<clean>"
        print(f"{s.name:{width}s}  {s.difficulty:8s} {' '.join(s.tags):24s} {causes}")
    return 0


def _cmd_tracebench(args) -> int:
    if args.tb_command == "table3":
        from repro.evaluation.tables import render_table3

        print(render_table3())
        return 0
    # export
    import os

    from repro.tracebench import build_tracebench

    os.makedirs(args.directory, exist_ok=True)
    suite = build_tracebench(args.seed)
    manifest = ["trace_id\tsource\tnprocs\tlabels"]
    from repro.darshan.writer import render_darshan_text

    include_dxt = getattr(args, "dxt", False)
    for trace in suite:
        path = os.path.join(args.directory, f"{trace.trace_id}.darshan.txt")
        text = (
            render_darshan_text(trace.log, include_dxt=True) if include_dxt else trace.text
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        manifest.append(
            f"{trace.trace_id}\t{trace.source}\t{trace.log.header.nprocs}\t"
            + ",".join(sorted(trace.labels))
        )
    with open(os.path.join(args.directory, "labels.tsv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(manifest) + "\n")
    print(f"wrote {len(suite)} traces to {args.directory}")
    return 0


def _cmd_evaluate(args) -> int:
    from repro.evaluation.harness import default_tools, evaluate_tools
    from repro.evaluation.tables import render_table4
    from repro.tracebench import build_tracebench
    from repro.tracebench.dataset import TraceBench
    from repro.tracebench.spec import TRACE_SPECS
    from repro.workloads.scenarios import build_scenario

    # The full 40-trace build is only paid when a TraceBench trace is
    # actually evaluated; pathology-only runs never touch it.
    tracebench_ids = {s.trace_id for s in TRACE_SPECS}
    _suite_cache = []

    def suite() -> TraceBench:
        if not _suite_cache:
            _suite_cache.append(build_tracebench(args.seed))
        return _suite_cache[0]

    selected = []
    if args.scenarios:
        tokens = [t.strip() for t in args.scenarios.split(",") if t.strip()]
        scenarios = _select_scenarios_or_fail(tokens)
        if scenarios is None:
            return 2
        # The memoized TraceBench build already holds the tracebench-tagged
        # traces; anything else (e.g. the pathology tier) builds fresh.
        selected.extend(
            suite().get(s.name) if s.name in tracebench_ids else build_scenario(s, seed=args.seed)
            for s in scenarios
        )
    if args.traces:
        wanted = [t.strip() for t in args.traces.split(",") if t.strip()]
        unknown = [t for t in wanted if t not in tracebench_ids]
        if unknown:
            print(f"error: unknown trace id(s): {', '.join(unknown)}", file=sys.stderr)
            print("available trace ids:", file=sys.stderr)
            for tid in sorted(tracebench_ids):
                print(f"  {tid}", file=sys.stderr)
            return 2
        have = {t.trace_id for t in selected}
        selected.extend(suite().get(t) for t in wanted if t not in have)
    bench = TraceBench(traces=selected, seed=args.seed) if selected else suite()
    tools = default_tools(seed=args.seed, max_workers=args.max_workers)
    result = evaluate_tools(
        bench, tools=tools, progress=lambda msg: print(f"  {msg}", file=sys.stderr)
    )
    print(render_table4(result))
    # Generated scenarios add the per-pathology view: across the fuzz
    # sweep, which *rules* held up (confusion counts per issue key)?
    fuzz_traces = [t for t in selected if t.source == "fuzz"]
    if fuzz_traces:
        from repro.evaluation.confusion import ConfusionMatrix
        from repro.evaluation.detector import detected_issues

        pairs = [(detected_issues(t.log), set(t.labels)) for t in fuzz_traces]
        print()
        print(ConfusionMatrix.from_pairs(pairs).render("Fuzz tier confusion (expert rules)"))
    return 0


def _cmd_fuzz(args) -> int:
    from repro.evaluation.detector import detected_issues
    from repro.workloads.fuzz import RAMPS, find_detection_threshold, generate_compositions

    if args.fuzz_command == "generate":
        for comp in generate_compositions(args.seed, args.count):
            print(comp.name)
            print(
                f"  nprocs={comp.nprocs} num_osts={comp.num_osts} "
                f"labels={','.join(sorted(comp.labels))}"
            )
            print(f"  {comp.description}")
        return 0

    if args.fuzz_command == "ramp":
        for ramp in RAMPS:
            result = find_detection_threshold(
                ramp, detected_issues, seed=args.seed, iterations=args.iterations
            )
            print(
                f"{result.ramp:24s} {result.issue_key:20s} "
                f"detected at {result.detected_at:.3f}, masked at {result.masked_at:.3f} "
                f"(threshold ~{result.threshold:.3f})"
            )
        return 0

    # sweep
    from repro.evaluation.confusion import ConfusionMatrix
    from repro.workloads.scenarios import build_scenario

    pairs = []
    misses = 0
    for comp in generate_compositions(args.seed, args.count):
        trace = build_scenario(comp.scenario(), seed=args.build_seed)
        detected = detected_issues(trace.log)
        labels = set(trace.labels)
        pairs.append((detected, labels))
        missing = labels - detected
        if missing:
            misses += 1
            print(f"MISS {comp.name}: not recovered: {', '.join(sorted(missing))}")
        else:
            print(f"ok   {comp.name}")
    rendered = ConfusionMatrix.from_pairs(pairs).render("Fuzz sweep confusion (expert rules)")
    print()
    print(rendered)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
    return 1 if misses else 0


def _cmd_serve(args) -> int:
    from repro.core.agent import IOAgentConfig
    from repro.core.registry import ToolNotFoundError
    from repro.serve import DiagnosisServer, QueueFullError
    from repro.workloads.scenarios import build_scenario

    requests: list[tuple] = [(path, _load_log(path)) for path in args.traces]
    if args.scenarios:
        tokens = [t.strip() for t in args.scenarios.split(",") if t.strip()]
        scenarios = _select_scenarios_or_fail(tokens)
        if scenarios is None:
            return 2
        for s in scenarios:
            trace = build_scenario(s, seed=args.seed)
            requests.append((trace.trace_id, trace.log))
    if not requests:
        print(
            "error: pass trace files and/or --scenarios selectors to serve",
            file=sys.stderr,
        )
        return 2
    if args.repeat > 1:
        requests = [req for req in requests for _ in range(args.repeat)]

    config = IOAgentConfig(model=args.model, seed=args.seed)
    try:
        server = DiagnosisServer(
            tool=args.tool,
            config=config,
            store=args.store,
            queue_depth=args.queue_depth,
            workers=args.workers,
            wall_clock=args.wall,
            autostart=False,  # deterministic driving mode: submit, then start
        )
    except ToolNotFoundError as exc:
        return _fail_lookup(exc)
    try:
        reports = server.serve_all([(log, trace_id) for trace_id, log in requests])
    except QueueFullError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(
            f"hint: the workload outgrew the bounded queue; raise --queue-depth "
            f"(currently {args.queue_depth}) or shrink --repeat",
            file=sys.stderr,
        )
        server.close()
        return 2
    server.close()
    if args.reports:
        for report in reports:
            print(report.render())
            print()
    snapshot = server.metrics_snapshot()
    print(snapshot.render())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(snapshot.to_json() + "\n")
    return 0


def _cmd_chaos(args) -> int:
    from repro.resilience.chaos import DEFAULT_CHAOS_SCENARIOS, run_chaos
    from repro.resilience.faults import (
        FaultPlanNotFoundError,
        available_fault_plans,
        get_fault_plan,
    )

    if args.list_plans:
        for name in available_fault_plans():
            plan = get_fault_plan(name)
            print(f"{name:18s} kinds={','.join(plan.kinds)}")
            print(f"  {plan.description}")
        return 0

    plans = tuple(p for p in args.plans.split(",") if p) or None
    scenarios = tuple(s for s in args.scenarios.split(",") if s) or DEFAULT_CHAOS_SCENARIOS
    try:
        report = run_chaos(plans=plans, scenarios=scenarios, seed=args.seed)
    except FaultPlanNotFoundError as exc:
        return _fail_lookup(exc)

    if args.digest:
        print(report.digest)
    else:
        for run in report.runs:
            status = "ok  " if run.completed else "FAIL"
            deg = ",".join(run.degraded) or "-"
            print(
                f"{status} {run.plan:18s} {run.scenario:28s} f1={run.f1:.3f} "
                f"degraded={deg} retries={run.retries} trips={run.circuit_trips} "
                f"skipped_lines={run.parse_skipped}"
            )
        print(f"digest: {report.digest}")
    if args.out:
        import json

        payload = report.as_dict()
        payload["digest"] = report.digest
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return 0 if report.all_completed else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_tools:
        from repro.core.registry import available_tools

        for name in available_tools():
            print(name)
        return 0
    if args.list_scenarios and args.command is None:
        from repro.workloads.scenarios import available_scenarios

        for name in available_scenarios():
            print(name)
        return 0
    if args.command is None:
        parser.error("a command is required (or --list-tools / --list-scenarios / --version)")
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
