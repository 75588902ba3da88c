"""Tests for the serving layer: queue, coalescing, store, telemetry.

Covers the four tentpole contracts — typed backpressure, N-identical-
requests-cost-one-run coalescing, the persistent content-addressed
result store (including cross-process replay with zero LLM calls in a
real subprocess), and byte-identical deterministic metrics snapshots —
plus the unified registry-lookup error surface and the reconciled
``ServiceStats`` accessor.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core.agent import IOAgent, IOAgentConfig
from repro.core.registry import ToolNotFoundError
from repro.core.service import DiagnosisService, ServiceStats
from repro.llm.client import Usage
from repro.resilience import (
    CircuitBreaker,
    FaultPlanNotFoundError,
    FaultyLLMClient,
    RetryPolicy,
    get_fault_plan,
)
from repro.serve import (
    LATENCY_BUCKET_BOUNDS,
    DiagnosisServer,
    FixedBucketHistogram,
    LatencyModel,
    QueueFullError,
    ResultStore,
    ServerClosedError,
    report_from_dict,
    report_to_dict,
)
from repro.serve.store import store_filename
from repro.util.lookup import RegistryLookupError
from repro.workloads.scenarios import ScenarioNotFoundError, SeriesScenarioNotFoundError

REPO_ROOT = Path(__file__).resolve().parent.parent


def _service(**config_kwargs) -> DiagnosisService:
    config = IOAgentConfig(seed=0, max_workers=1, **config_kwargs)
    return DiagnosisService(tool="ioagent", config=config)


def _degraded_service(store=None) -> DiagnosisService:
    """A service whose every run loses the merge channel (degraded reports)."""
    config = IOAgentConfig(max_workers=1)
    client = FaultyLLMClient(
        get_fault_plan("merge-outage"),
        retry_policy=RetryPolicy(),
        breaker=CircuitBreaker(),
    )
    agent = IOAgent(config, client=client)
    return DiagnosisService(tool=agent, config=config, max_workers=1, store=store)


# -- histograms + latency model ------------------------------------------


class TestFixedBucketHistogram:
    def test_observations_land_in_inclusive_upper_bound_buckets(self):
        hist = FixedBucketHistogram(bounds=(1.0, 2.0, 5.0))
        for value in (0.5, 1.0, 1.5, 5.0, 99.0):
            hist.observe(value)
        snap = hist.as_dict()
        assert snap["counts"] == [2, 1, 1, 1]  # last bucket = overflow
        assert snap["count"] == 5
        assert snap["min"] == 0.5 and snap["max"] == 99.0

    def test_bounds_must_be_ascending(self):
        with pytest.raises(ValueError):
            FixedBucketHistogram(bounds=(2.0, 1.0))
        with pytest.raises(ValueError):
            FixedBucketHistogram(bounds=())

    def test_empty_histogram_snapshot(self):
        snap = FixedBucketHistogram(bounds=(1.0,)).as_dict()
        assert snap["count"] == 0 and snap["min"] is None and snap["max"] is None

    def test_render_marks_only_nonempty_buckets(self):
        hist = FixedBucketHistogram(bounds=(1.0, 2.0))
        hist.observe(0.5)
        text = hist.render("lat")
        assert "n=1" in text and "<= 1s" in text and "<= 2s" not in text

    def test_snapshot_is_order_independent(self):
        a = FixedBucketHistogram()
        b = FixedBucketHistogram()
        values = [0.001, 5.0, 0.3, 0.3, 200.0]
        for v in values:
            a.observe(v)
        for v in reversed(values):
            b.observe(v)
        assert a.as_dict() == b.as_dict()

    def test_default_bounds_are_the_schema(self):
        assert FixedBucketHistogram().bounds == LATENCY_BUCKET_BOUNDS


class TestLatencyModel:
    def test_usage_maps_deterministically_to_seconds(self):
        model = LatencyModel()
        usage = Usage(prompt_tokens=10_000, completion_tokens=2_000, calls=2)
        expected = model.base_seconds + 2 * model.seconds_per_call + 1.0 + 1.0
        assert model.stage_seconds(usage) == pytest.approx(expected)
        assert model.stage_seconds(Usage()) == model.base_seconds


# -- result store --------------------------------------------------------


class TestResultStore:
    KEY = ("digest-abc", "ioagent", "IOAgentConfig()")

    def _report(self, **overrides):
        from repro.core.report import DiagnosisReport

        fields = dict(
            trace_id="t1",
            model="gpt-4o",
            text="diagnosis text",
            n_fragments=3,
            sources_retrieved=5,
            sources_kept=2,
            degraded=(),
        )
        fields.update(overrides)
        return DiagnosisReport(**fields)

    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        report = self._report()
        store.put(self.KEY, report)
        assert self.KEY in store and len(store) == 1
        loaded = store.get(self.KEY)
        assert report_to_dict(loaded) == report_to_dict(report)

    def test_missing_key_is_none(self, tmp_path):
        assert ResultStore(tmp_path).get(self.KEY) is None

    def test_degraded_reports_are_refused(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="degraded"):
            store.put(self.KEY, self._report(degraded=("merge",)))
        assert len(store) == 0

    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(self.KEY, self._report())
        store.path_for(self.KEY).write_text("{torn wri", encoding="utf-8")
        assert store.get(self.KEY) is None

    def test_version_and_key_mismatches_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put(self.KEY, self._report())
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["version"] = 999
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert store.get(self.KEY) is None
        # A (vanishingly unlikely) filename collision must not serve the
        # wrong key's report: the full key is checked, not just the hash.
        other = ("digest-other", "ioagent", "IOAgentConfig()")
        store.put(self.KEY, self._report())
        store.path_for(other).write_bytes(store.path_for(self.KEY).read_bytes())
        assert store.get(other) is None

    def test_clear_removes_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(self.KEY, self._report())
        assert store.clear() == 1
        assert len(store) == 0

    def test_filename_is_stable_and_key_addressed(self):
        assert store_filename(self.KEY) == store_filename(tuple(self.KEY))
        assert store_filename(self.KEY) != store_filename(("x", "ioagent", "c"))
        assert store_filename(self.KEY).endswith(".json")

    def test_report_dict_round_trip_preserves_degraded(self):
        report = self._report(degraded=("merge", "temporal"))
        assert report_from_dict(report_to_dict(report)).degraded == ("merge", "temporal")


# -- service + store integration -----------------------------------------


class TestServiceStore:
    def test_fresh_service_replays_from_store_with_zero_llm_calls(self, tmp_path, sb01_trace):
        first = _service()
        first.store = ResultStore(tmp_path)
        first.diagnose(sb01_trace.log, trace_id=sb01_trace.trace_id)
        assert len(first.store) == 1

        # Same config as `first`: the key is (digest, tool, config repr).
        second = DiagnosisService(
            config=IOAgentConfig(seed=0, max_workers=1), store=str(tmp_path)
        )
        report = second.diagnose(sb01_trace.log, trace_id="renamed")
        stats = second.stats()
        assert stats.store_hits == 1 and stats.cache_misses == 0
        assert stats.usage.calls == 0  # the replay burned no LLM budget
        assert report.trace_id == "renamed"

    def test_store_hit_promotes_into_memory(self, tmp_path, sb01_trace):
        _svc = _service()
        _svc.store = ResultStore(tmp_path)
        _svc.diagnose(sb01_trace.log, trace_id="a")

        second = DiagnosisService(
            config=IOAgentConfig(seed=0, max_workers=1), store=str(tmp_path)
        )
        second.diagnose(sb01_trace.log, trace_id="b")
        second.diagnose(sb01_trace.log, trace_id="c")
        stats = second.stats()
        assert stats.store_hits == 1  # only the first lookup touched disk
        assert stats.cache_hits == 1

    def test_degraded_run_leaves_no_store_entry(self, tmp_path, sb01_trace):
        service = _degraded_service(store=str(tmp_path))
        report = service.diagnose(sb01_trace.log, trace_id=sb01_trace.trace_id)
        assert report.degraded == ("merge",)
        assert len(service.store) == 0

    def test_cross_process_replay_zero_llm_calls(self, tmp_path, sb01_trace):
        """Satellite contract: a second *process* serves from the store."""
        service = _service()
        service.store = ResultStore(tmp_path)
        original = service.diagnose(sb01_trace.log, trace_id=sb01_trace.trace_id)

        script = textwrap.dedent(
            """
            from repro.core.agent import IOAgentConfig
            from repro.core.service import DiagnosisService
            from repro.tracebench.build import build_trace
            from repro.tracebench.spec import TRACE_SPECS
            import sys

            spec = next(s for s in TRACE_SPECS if s.trace_id == "sb01-small-writes")
            trace = build_trace(spec, seed=0)
            service = DiagnosisService(
                config=IOAgentConfig(seed=0, max_workers=1), store=sys.argv[1]
            )
            report = service.diagnose(trace.log, trace_id="second-process")
            stats = service.stats()
            assert stats.store_hits == 1, stats
            assert stats.cache_misses == 0, stats
            assert stats.usage.calls == 0, stats.usage
            print(report.text == sys.stdin.read())
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            input=original.text,
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True"


# -- ServiceStats --------------------------------------------------------


class TestServiceStats:
    def test_stats_snapshot_is_coherent(self, sb01_trace):
        service = _service()
        service.diagnose(sb01_trace.log, trace_id="a")
        service.diagnose(sb01_trace.log, trace_id="b")
        stats = service.stats()
        assert isinstance(stats, ServiceStats)
        assert stats.tool == service.tool.name
        assert (stats.cache_hits, stats.cache_misses, stats.store_hits) == (1, 1, 0)
        assert stats.requests == 2
        assert len(stats.cached_reports) == 1
        assert stats.usage.calls > 0

    def test_stats_usage_is_a_defensive_copy(self, sb01_trace):
        service = _service()
        service.diagnose(sb01_trace.log, trace_id="a")
        stats = service.stats()
        before = stats.usage.calls
        stats.usage.calls += 1000
        assert service.stats().usage.calls == before

    def test_deprecated_wrappers_agree_with_stats(self, sb01_trace):
        service = _service()
        service.diagnose(sb01_trace.log, trace_id="a")
        stats = service.stats()
        assert service.cached_reports() == stats.cached_reports
        assert service.usage().calls == stats.usage.calls

    def test_clear_cache_resets_counters(self, sb01_trace):
        service = _service()
        service.diagnose(sb01_trace.log, trace_id="a")
        service.clear_cache()
        stats = service.stats()
        assert stats.requests == 0 and stats.cached_reports == ()


# -- the server: queue, coalescing, lifecycle ----------------------------


class TestDiagnosisServer:
    def test_herd_of_identical_requests_costs_one_run(self, sb01_trace):
        service = _service()
        server = DiagnosisServer(service, workers=2, queue_depth=16)
        handles = [server.submit(sb01_trace.log, trace_id=f"req-{i}") for i in range(6)]
        reports = [h.result(timeout=120) for h in handles]
        server.close()
        assert server.counters.executed == 1
        assert server.counters.coalesced + server.counters.cache_served == 5
        assert all(r.text == reports[0].text for r in reports)
        # Every caller got its own trace id back, not the digest label.
        assert [r.trace_id for r in reports] == [f"req-{i}" for i in range(6)]

    def test_queue_full_is_a_typed_rejection(self, bench):
        a, b, c = (bench.get(t) for t in ("sb01-small-writes", "sb03-misaligned-writes", "sb05-metadata-storm"))
        server = DiagnosisServer(_service(), queue_depth=2, autostart=False)
        server.submit(a.log, trace_id="a")
        server.submit(b.log, trace_id="b")
        with pytest.raises(QueueFullError) as excinfo:
            server.submit(c.log, trace_id="c")
        assert excinfo.value.queue_depth == 2
        assert "retry later" in str(excinfo.value)
        assert server.counters.rejected == 1
        # Identical traffic still coalesces for free past the full queue.
        dup = server.submit(a.log, trace_id="a2")
        assert dup.coalesced
        server.close()

    def test_submit_time_cache_service_skips_the_queue(self, sb01_trace):
        service = _service()
        service.diagnose(sb01_trace.log, trace_id="warm")
        server = DiagnosisServer(service, autostart=False)
        handle = server.submit(sb01_trace.log, trace_id="hit")
        assert handle.served_from_cache and handle.done()
        assert handle.result().trace_id == "hit"
        assert server.counters.cache_served == 1
        server.close()

    def test_closed_server_rejects_submissions(self, sb01_trace):
        server = DiagnosisServer(_service(), autostart=False)
        pending = server.submit(sb01_trace.log, trace_id="orphan")
        server.close()
        with pytest.raises(ServerClosedError):
            server.submit(sb01_trace.log, trace_id="late")
        with pytest.raises(ServerClosedError):
            pending.result(timeout=5)

    def test_serve_all_is_deterministically_byte_identical(self, sb01_trace):
        def snapshot() -> str:
            server = DiagnosisServer(_service(), autostart=False)
            server.serve_all([(sb01_trace.log, f"r{i}") for i in range(4)])
            server.close()
            return server.metrics_snapshot().to_json()

        first, second = snapshot(), snapshot()
        assert first == second
        payload = json.loads(first)
        assert payload["latency_mode"] == "modeled"
        assert payload["counters"]["submitted"] == 4
        assert payload["counters"]["executed"] == 1

    def test_wall_clock_mode_changes_only_the_mode_label(self, sb01_trace):
        server = DiagnosisServer(_service(), wall_clock=True, autostart=False)
        server.serve_all([(sb01_trace.log, "r0")])
        server.close()
        snap = server.metrics_snapshot()
        assert snap.latency_mode == "wall"
        assert snap.request_latency["count"] == 1

    def test_failed_run_propagates_to_every_waiter(self, sb01_trace):
        class ExplodingTool:
            name = "exploder"
            config = None

            def diagnose(self, log, trace_id="trace"):
                raise RuntimeError("boom")

            def usage(self):
                return Usage()

        service = DiagnosisService(tool=ExplodingTool(), config=IOAgentConfig(seed=0))
        server = DiagnosisServer(service, workers=1, autostart=False)
        handles = [server.submit(sb01_trace.log, trace_id=f"r{i}") for i in range(2)]
        server.start()
        for handle in handles:
            with pytest.raises(RuntimeError, match="boom"):
                handle.result(timeout=60)
        server.close()
        assert server.counters.failed == 1  # one run, both waiters told

    def test_validation(self):
        with pytest.raises(ValueError):
            DiagnosisServer(_service(), queue_depth=0)
        with pytest.raises(ValueError):
            DiagnosisServer(_service(), workers=0)

    def test_server_persists_through_its_store(self, tmp_path, sb01_trace):
        server = DiagnosisServer(
            tool="ioagent",
            config=IOAgentConfig(seed=0),
            store=str(tmp_path),
            autostart=False,
        )
        server.serve_all([(sb01_trace.log, "r0")])
        server.close()
        assert server.counters.store_writes == 1
        assert len(ResultStore(tmp_path)) == 1


# -- unified registry lookup errors --------------------------------------


class TestRegistryLookupErrors:
    def test_all_five_variants_share_the_base(self):
        from repro.analysis.registry import CheckNotFoundError

        for exc_type in (
            ToolNotFoundError,
            ScenarioNotFoundError,
            SeriesScenarioNotFoundError,
            FaultPlanNotFoundError,
            CheckNotFoundError,
        ):
            assert issubclass(exc_type, RegistryLookupError)
            assert issubclass(exc_type, KeyError)

    def test_message_names_the_unknown_and_the_options(self):
        exc = ToolNotFoundError("nope", available=("drishti", "ioagent"))
        assert "unknown tool 'nope'" in str(exc)
        assert "drishti, ioagent" in str(exc)

    def test_render_cli_is_the_one_formatter(self):
        exc = FaultPlanNotFoundError("nope", available=("llm-flaky",))
        rendered = exc.render_cli()
        assert rendered.startswith("error: unknown fault plan: nope")
        assert "available fault plans: llm-flaky" in rendered

    def test_scenario_hint_for_uppercase_difficulty(self):
        exc = ScenarioNotFoundError("HARD", available=())
        rendered = exc.render_cli()
        assert "did you mean 'hard'" in rendered
        assert "difficulty tiers: easy, medium, hard, control" in rendered

    def test_lookup_raises_are_catchable_as_before(self):
        from repro.core.registry import get_tool
        from repro.resilience.faults import get_fault_plan
        from repro.workloads.scenarios import get_series_scenario, select_scenarios

        with pytest.raises(ToolNotFoundError):
            get_tool("no-such-tool")
        with pytest.raises(ScenarioNotFoundError):
            select_scenarios(["no-such-selector"])
        with pytest.raises(SeriesScenarioNotFoundError):
            get_series_scenario("no-such-series")
        with pytest.raises(FaultPlanNotFoundError):
            get_fault_plan("no-such-plan")


# -- the serve CLI -------------------------------------------------------


class TestServeCli:
    def _run(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_serve_scenarios_coalesces_and_prints_metrics(self, capsys, tmp_path):
        out = tmp_path / "snap.json"
        code = self._run(
            "serve", "--scenarios", "sb01-small-writes", "--repeat", "3", "--out", str(out)
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "submitted=3 executed=1 coalesced=2" in captured.out
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["counters"]["executed"] == 1

    def test_serve_cli_snapshots_are_byte_identical(self, tmp_path, capsys):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert self._run("serve", "--scenarios", "sb01-small-writes", "--out", str(out)) == 0
            outs.append(out.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]

    def test_serve_unknown_selector_exits_2(self, capsys):
        assert self._run("serve", "--scenarios", "nope") == 2
        err = capsys.readouterr().err
        assert "error: unknown scenario selector: nope" in err

    def test_serve_unknown_tool_exits_2(self, capsys):
        assert self._run("serve", "--scenarios", "sb01-small-writes", "--tool", "nope") == 2
        err = capsys.readouterr().err
        assert "error: unknown tool: nope" in err
        assert "available tools:" in err

    def test_serve_without_inputs_exits_2(self, capsys):
        assert self._run("serve") == 2
        assert "pass trace files and/or --scenarios" in capsys.readouterr().err

    def test_serve_queue_overflow_exits_2_with_hint(self, capsys):
        code = self._run(
            "serve",
            "--scenarios",
            "sb01-small-writes,sb03-misaligned-writes",
            "--queue-depth",
            "1",
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "work queue is full" in err and "--queue-depth" in err

    def test_serve_store_replays_across_invocations(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert self._run("serve", "--scenarios", "sb01-small-writes", "--store", str(store)) == 0
        first = capsys.readouterr().out
        assert "executed=1" in first and "store_writes=1" in first
        assert self._run("serve", "--scenarios", "sb01-small-writes", "--store", str(store)) == 0
        second = capsys.readouterr().out
        assert "executed=0" in second and "cache=1" in second


# -- digest once per request ---------------------------------------------


@pytest.fixture()
def digest_calls(monkeypatch):
    """Every ``trace_digest`` call made through the service module, in order."""
    import repro.core.service as service_module

    calls = []
    real = service_module.trace_digest

    def counting(log):
        calls.append(log)
        return real(log)

    monkeypatch.setattr(service_module, "trace_digest", counting)
    return calls


class TestDigestOncePerRequest:
    """A request's content key is computed once and carried to every step."""

    def test_miss_digests_once(self, sb01_trace, digest_calls):
        server = DiagnosisServer(_service(), autostart=False)
        handle = server.submit(sb01_trace.log, trace_id="miss")
        server.start()
        handle.result(timeout=120)
        server.close()
        assert server.counters.executed == 1
        assert len(digest_calls) == 1

    def test_memory_hit_digests_once(self, sb01_trace, digest_calls):
        service = _service()
        service.diagnose(sb01_trace.log, trace_id="warm")
        del digest_calls[:]
        server = DiagnosisServer(service, autostart=False)
        handle = server.submit(sb01_trace.log, trace_id="hit")
        server.close()
        assert handle.served_from_cache and service.stats().cache_hits == 1
        assert len(digest_calls) == 1

    def test_store_hit_digests_once(self, tmp_path, sb01_trace, digest_calls):
        filler = _service()
        filler.store = ResultStore(tmp_path)
        filler.diagnose(sb01_trace.log, trace_id="fill")
        del digest_calls[:]
        service = DiagnosisService(config=IOAgentConfig(seed=0, max_workers=1), store=str(tmp_path))
        server = DiagnosisServer(service, autostart=False)
        handle = server.submit(sb01_trace.log, trace_id="stored")
        server.close()
        assert handle.served_from_cache and service.stats().store_hits == 1
        assert len(digest_calls) == 1

    def test_coalesced_duplicate_digests_once(self, sb01_trace, digest_calls):
        server = DiagnosisServer(_service(), autostart=False)
        first = server.submit(sb01_trace.log, trace_id="first")
        duplicate = server.submit(sb01_trace.log, trace_id="duplicate")
        server.start()
        assert first.result(timeout=120).text == duplicate.result(timeout=120).text
        server.close()
        assert duplicate.coalesced and server.counters.executed == 1
        assert len(digest_calls) == 2

    def test_service_diagnose_digests_once_per_call(self, sb01_trace, digest_calls):
        service = _service()
        service.diagnose(sb01_trace.log, trace_id="miss")
        assert len(digest_calls) == 1
        service.diagnose(sb01_trace.log, trace_id="hit")
        assert len(digest_calls) == 2
        assert service.stats().cache_hits == 1

    def test_uncached_service_behind_a_server_neither_caches_nor_stores(
        self, tmp_path, sb01_trace, digest_calls
    ):
        service = DiagnosisService(
            config=IOAgentConfig(seed=0, max_workers=1), cache=False, store=str(tmp_path)
        )
        server = DiagnosisServer(service, autostart=False)
        server.serve_all([(sb01_trace.log, "a"), (sb01_trace.log, "b")])
        server.close()
        stats = service.stats()
        assert (stats.cache_hits, stats.cache_misses, stats.store_hits) == (0, 0, 0)
        assert len(service.store) == 0 and stats.cached_reports == ()
        assert len(digest_calls) == 2  # the coalescing key, once per request
