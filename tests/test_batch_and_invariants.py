"""Batch/cost module tests plus cross-layer property invariants."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import cost_comparison, run_batch
from repro.core.service import trace_digest
from repro.darshan.counters import SIZE_BIN_SUFFIXES
from repro.darshan.dxt import dxt_digest
from repro.darshan.instrument import DarshanInstrument
from repro.darshan.parser import parse_darshan_text
from repro.darshan.writer import render_darshan_text
from repro.sim.filesystem import LustreFileSystem
from repro.sim.ops import API, IOOp, OpKind
from repro.sim.runtime import IORuntime, JobSpec


class TestBatch:
    @pytest.fixture(scope="class")
    def traces(self, bench):
        return [bench.get("sb01-small-writes"), bench.get("sb06-shared-file")]

    def test_run_batch_accounts_usage(self, traces):
        result = run_batch(traces, model="gpt-4o", seed=0)
        assert set(result.reports) == {t.trace_id for t in traces}
        assert result.llm_calls > 0
        assert result.prompt_tokens > 0
        assert result.cost_usd > 0
        assert 0.0 <= result.mean_f1 <= 1.0
        assert result.cost_per_trace == pytest.approx(result.cost_usd / 2)

    def test_cost_comparison_open_vs_proprietary(self, traces):
        results = cost_comparison(traces, models=("gpt-4o", "llama-3.1-70b"), seed=0)
        gpt, llama = results["gpt-4o"], results["llama-3.1-70b"]
        assert gpt.cost_usd > 0
        assert llama.cost_usd == 0.0  # fully-open pipeline is free to run
        # The democratization claim: open backbone stays in the same league.
        assert llama.mean_f1 >= 0.6 * gpt.mean_f1

    def test_batch_empty(self):
        result = run_batch([], model="gpt-4o")
        assert result.mean_f1 == 0.0 and not result.reports


def _whole_text_digest(log):
    """trace_digest's definition before streaming: hash the joined text."""
    digest = hashlib.sha256(render_darshan_text(log).encode("utf-8"))
    if log.dxt_segments:
        digest.update(dxt_digest(log.dxt_segments).encode("ascii"))
    return digest.hexdigest()


# trace_digest of TraceBench sb01-small-writes at seed 0 (counters + DXT).
# Persistent ResultStore entries are addressed by this value, so a change
# to it orphans every existing store directory.
SB01_TRACE_DIGEST = "e198c51b9ef084bf90b400d2787bc61e1a1c35a40277915c44e4806be9f323d6"


class TestDigestStability:
    def test_streamed_digest_equals_whole_text_digest_on_tracebench(self, bench):
        for trace in bench:
            assert trace_digest(trace.log) == _whole_text_digest(trace.log), trace.trace_id

    def test_pinned_digest_keeps_existing_stores_hitting(self, sb01_trace):
        assert trace_digest(sb01_trace.log) == SB01_TRACE_DIGEST


def _instrumented(ops, nprocs=4):
    fs = LustreFileSystem(seed=7)
    spec = JobSpec(exe="/bin/x", nprocs=nprocs)
    rt = IORuntime(spec, fs)
    inst = DarshanInstrument(spec, fs)
    rt.add_observer(inst)
    result = rt.run(ops)
    return inst.finalize(result.runtime), result


@st.composite
def _op_streams(draw):
    """Random single-file op streams over up to 4 ranks."""
    nprocs = draw(st.integers(min_value=1, max_value=4))
    n_ops = draw(st.integers(min_value=1, max_value=40))
    ops = []
    for _ in range(n_ops):
        rank = draw(st.integers(min_value=0, max_value=nprocs - 1))
        kind = draw(st.sampled_from([OpKind.READ, OpKind.WRITE]))
        offset = draw(st.integers(min_value=0, max_value=1 << 22))
        size = draw(st.integers(min_value=0, max_value=1 << 21))
        ops.append(
            IOOp(kind=kind, api=API.POSIX, rank=rank, path="/scratch/h", offset=offset, size=size)
        )
    return nprocs, ops


class TestInstrumentInvariants:
    @given(_op_streams())
    @settings(max_examples=40, deadline=None)
    def test_counter_conservation(self, stream):
        """Darshan counters are a faithful projection of the op stream."""
        nprocs, ops = stream
        log, result = _instrumented(ops, nprocs=nprocs)
        rec = log.records_for("POSIX")[0]
        reads = sum(1 for o in ops if o.kind is OpKind.READ)
        writes = len(ops) - reads
        assert rec.counters["POSIX_READS"] == reads
        assert rec.counters["POSIX_WRITES"] == writes
        # Byte totals agree between the runtime and the counters.
        assert rec.counters["POSIX_BYTES_READ"] == result.bytes_read
        assert rec.counters["POSIX_BYTES_WRITTEN"] == result.bytes_written
        # Size histograms partition the operations exactly.
        for stem, total in (("READ", reads), ("WRITE", writes)):
            hist = sum(
                rec.counters[f"POSIX_SIZE_{stem}_{s}"] for s in SIZE_BIN_SUFFIXES
            )
            assert hist == total
        # SEQ/CONSEC can never exceed the op count minus first-ops.
        assert rec.counters["POSIX_SEQ_READS"] <= max(0, reads)
        assert rec.counters["POSIX_CONSEC_WRITES"] <= rec.counters["POSIX_SEQ_WRITES"] or (
            rec.counters["POSIX_CONSEC_WRITES"] <= writes
        )

    @given(_op_streams())
    @settings(max_examples=25, deadline=None)
    def test_text_round_trip_arbitrary_logs(self, stream):
        """Writer/parser round-trip holds for arbitrary generated logs."""
        nprocs, ops = stream
        log, _ = _instrumented(ops, nprocs=nprocs)
        text = render_darshan_text(log)
        log2 = parse_darshan_text(text)
        assert {(r.module, r.path): r.counters for r in log2.records} == {
            (r.module, r.path): r.counters for r in log.records
        }
        assert render_darshan_text(log2) == text
        # trace_digest hashes the same text chunk by chunk: same value.
        assert trace_digest(log) == _whole_text_digest(log)

    @given(_op_streams())
    @settings(max_examples=25, deadline=None)
    def test_fragment_facts_always_renderable(self, stream):
        """Every fact any summary produces must render and re-extract."""
        from repro.core.summaries import app_context_facts, extract_fragments
        from repro.llm.facts import extract_facts, render_fact

        nprocs, ops = stream
        log, _ = _instrumented(ops, nprocs=nprocs)
        facts = app_context_facts(log)
        for frag in extract_fragments(log):
            facts.extend(frag.facts)
        text = " ".join(render_fact(f) for f in facts)
        recovered = extract_facts(text)
        assert len(recovered) == len(facts)
