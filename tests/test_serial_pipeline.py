"""One diagnosis runs on one thread and does its pure per-fragment work once.

Covers the serial pipeline (no thread is started inside a diagnosis), the
memoized relevance topics and extractor source, and the content key that
ignores ``max_workers`` (it cannot change a report).
"""

from __future__ import annotations

import inspect
import threading

import pytest

from repro.core.agent import IOAgent, IOAgentConfig
from repro.core.service import DiagnosisService
from repro.core.summaries import _EXTRACTORS, extractor_source
from repro.darshan.dxt import dxt_temporal_facts
from repro.llm.facts import extract_facts
from repro.llm.reasoning import infer_findings
from repro.llm.tasks.relevance import _KIND_TOPICS, fact_topics
from repro.rag.corpus import topics_for_issue
from repro.serve.store import ResultStore
from repro.workloads.scenarios import build_scenario

SCENARIOS = ("path14-lock-convoy", "path09-fsync-per-write", "path01-random-small-reads")


@pytest.fixture(scope="module")
def convoy():
    return build_scenario("path14-lock-convoy")


@pytest.fixture(scope="module")
def descriptions():
    """Every fragment description of three pathology scenarios."""
    agent = IOAgent(IOAgentConfig(seed=0))
    out: list[str] = []
    for name in SCENARIOS:
        trace = build_scenario(name)
        out.extend(agent.run(trace.log, trace_id=name).descriptions.values())
    return out


def _uncached_topics(description: str) -> set[str]:
    facts = extract_facts(description)
    topics: set[str] = set()
    for fact in facts:
        topics.update(_KIND_TOPICS.get(fact.kind, ()))
    for finding in infer_findings(facts):
        topics.update(topics_for_issue(finding.issue_key))
    return topics


def test_diagnosis_starts_no_thread(monkeypatch, convoy):
    started: list[threading.Thread] = []
    original = threading.Thread.start

    def counting_start(self):
        started.append(self)
        return original(self)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    report = IOAgent(IOAgentConfig(seed=0)).diagnose(convoy.log, trace_id=convoy.trace_id)
    assert "[lock_contention]" in report.text  # the DXT channel was diagnosed
    assert started == []


def test_fact_topics_cache_matches_uncached(descriptions):
    assert len(descriptions) >= 3 * 5
    for description in descriptions:
        assert fact_topics(description) == _uncached_topics(description)


def test_fact_topics_mutation_cannot_poison_cache(descriptions):
    description = descriptions[0]
    expected = _uncached_topics(description)
    assert expected  # a real description implicates at least one topic
    first = fact_topics(description)
    first.add("poisoned")
    first.discard(next(iter(expected)))
    assert fact_topics(description) == expected
    assert fact_topics(description) is not fact_topics(description)


@pytest.mark.parametrize(
    "fn",
    [*_EXTRACTORS.values(), dxt_temporal_facts],
    ids=[*_EXTRACTORS, "dxt_temporal_facts"],
)
def test_extractor_source_matches_getsource(fn):
    assert extractor_source(fn) == inspect.getsource(fn)


def test_store_key_ignores_max_workers(tmp_path, sb01_trace):
    first = DiagnosisService(config=IOAgentConfig(seed=0, max_workers=1), store=str(tmp_path))
    first.diagnose(sb01_trace.log, trace_id=sb01_trace.trace_id)
    assert len(ResultStore(tmp_path)) == 1

    second = DiagnosisService(config=IOAgentConfig(seed=0), store=str(tmp_path))
    second.diagnose(sb01_trace.log, trace_id=sb01_trace.trace_id)
    stats = second.stats()
    assert stats.store_hits == 1 and stats.cache_misses == 0
    assert stats.usage.calls == 0


def test_default_config_key_is_unchanged(sb01_trace):
    """Stores filled before max_workers left the key must keep hitting."""
    config = IOAgentConfig(seed=0)
    key = DiagnosisService(config=config).cache_key(sb01_trace.log)
    assert key[2] == repr(config)
    wide = DiagnosisService(config=IOAgentConfig(seed=0, max_workers=4))
    assert wide.cache_key(sb01_trace.log) == key
