"""Tests for the Darshan substrate: counters, instrumentation, text I/O."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.darshan.counters import (
    MODULE_COUNTERS,
    SIZE_BIN_EDGES,
    SIZE_BIN_SUFFIXES,
    size_bin_index,
    size_counters,
)
from repro.darshan.instrument import DarshanInstrument
from repro.darshan.log import MODULE_ORDER
from repro.darshan.parser import (
    DarshanParseError,
    parse_darshan_text,
    parse_darshan_text_with_report,
)
from repro.darshan.records import DarshanRecord, record_id_for
from repro.darshan.writer import render_darshan_text
from repro.sim.filesystem import LustreFileSystem
from repro.sim.ops import API, IOOp, OpKind
from repro.sim.runtime import IORuntime, JobSpec
from repro.util.units import MiB


class TestCounters:
    def test_size_bins_cover_examples(self):
        assert SIZE_BIN_SUFFIXES[size_bin_index(0)] == "0_100"
        assert SIZE_BIN_SUFFIXES[size_bin_index(47008)] == "10K_100K"
        assert SIZE_BIN_SUFFIXES[size_bin_index(MiB)] == "1M_4M"
        assert SIZE_BIN_SUFFIXES[size_bin_index(2 * 1024**3)] == "1G_PLUS"

    @given(st.integers(min_value=0, max_value=2**40))
    def test_size_bin_index_in_range(self, size):
        idx = size_bin_index(size)
        assert 0 <= idx < len(SIZE_BIN_SUFFIXES)
        # Lower bin edges are inclusive (bisect_right semantics).
        if idx > 0:
            assert size >= SIZE_BIN_EDGES[idx - 1]
        if idx < len(SIZE_BIN_EDGES):
            assert size < SIZE_BIN_EDGES[idx]

    def test_size_bin_rejects_negative(self):
        with pytest.raises(ValueError):
            size_bin_index(-1)

    def test_size_counters_naming(self):
        names = size_counters("POSIX", "READ")
        assert names[0] == "POSIX_SIZE_READ_0_100"
        assert len(names) == 10
        agg = size_counters("MPIIO", "WRITE", agg=True)
        assert agg[-1] == "MPIIO_SIZE_WRITE_AGG_1G_PLUS"

    def test_every_module_declares_counters(self):
        for module in MODULE_ORDER:
            assert MODULE_COUNTERS[module]


class TestRecords:
    def test_record_id_stable_and_positive(self):
        assert record_id_for("/scratch/a") == record_id_for("/scratch/a")
        assert record_id_for("/scratch/a") > 0

    def test_shared_flag(self):
        assert DarshanRecord(module="POSIX", path="/f", rank=-1).shared
        assert not DarshanRecord(module="POSIX", path="/f", rank=0).shared

    def test_get_spans_both_tables(self):
        rec = DarshanRecord(module="POSIX", path="/f", rank=0)
        rec.counters["POSIX_READS"] = 3
        rec.fcounters["POSIX_F_READ_TIME"] = 1.5
        assert rec.get("POSIX_READS") == 3
        assert rec.get("POSIX_F_READ_TIME") == 1.5
        assert rec.get("MISSING", 7) == 7


def _run_instrumented(ops, nprocs=4, **fs_kwargs):
    fs = LustreFileSystem(seed=2, **fs_kwargs)
    spec = JobSpec(exe="/bin/x", nprocs=nprocs, jobid=9)
    rt = IORuntime(spec, fs)
    inst = DarshanInstrument(spec, fs)
    rt.add_observer(inst)
    result = rt.run(ops)
    return inst.finalize(result.runtime)


class TestInstrument:
    def test_sequential_and_consecutive_detection(self):
        ops = [IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=0, path="/scratch/f", offset=i * 4096, size=4096) for i in range(10)]
        log = _run_instrumented(ops, nprocs=1)
        rec = log.records_for("POSIX")[0]
        assert rec.counters["POSIX_WRITES"] == 10
        assert rec.counters["POSIX_CONSEC_WRITES"] == 9  # first op has no predecessor
        assert rec.counters["POSIX_SEQ_WRITES"] == 9

    def test_gapped_writes_are_seq_but_not_consec(self):
        ops = [IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=0, path="/scratch/f", offset=i * 8192, size=4096) for i in range(10)]
        log = _run_instrumented(ops, nprocs=1)
        rec = log.records_for("POSIX")[0]
        assert rec.counters["POSIX_SEQ_WRITES"] == 9
        assert rec.counters["POSIX_CONSEC_WRITES"] == 0

    def test_rw_switch_counting(self):
        ops = []
        for i in range(4):
            kind = OpKind.WRITE if i % 2 == 0 else OpKind.READ
            ops.append(IOOp(kind=kind, api=API.POSIX, rank=0, path="/scratch/f", offset=i * 4096, size=4096))
        log = _run_instrumented(ops, nprocs=1)
        assert log.records_for("POSIX")[0].counters["POSIX_RW_SWITCHES"] == 3

    def test_alignment_counters(self):
        ops = [
            IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=0, path="/scratch/f", offset=17, size=100, mem_aligned=False),
            IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=0, path="/scratch/f", offset=4096, size=100),
        ]
        log = _run_instrumented(ops, nprocs=1)
        rec = log.records_for("POSIX")[0]
        assert rec.counters["POSIX_FILE_NOT_ALIGNED"] == 1
        assert rec.counters["POSIX_MEM_NOT_ALIGNED"] == 1
        assert rec.counters["POSIX_FILE_ALIGNMENT"] == 4096

    def test_size_histogram_binning(self):
        ops = [
            IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=0, path="/scratch/f", offset=0, size=50),
            IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=0, path="/scratch/f", offset=50, size=47008),
        ]
        log = _run_instrumented(ops, nprocs=1)
        rec = log.records_for("POSIX")[0]
        assert rec.counters["POSIX_SIZE_WRITE_0_100"] == 1
        assert rec.counters["POSIX_SIZE_WRITE_10K_100K"] == 1

    def test_shared_file_reduction(self):
        ops = []
        for r in range(4):
            ops.append(IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=r, path="/scratch/s", offset=r * MiB, size=MiB))
        log = _run_instrumented(ops)
        rec = log.records_for("POSIX")[0]
        assert rec.rank == -1  # shared record
        assert rec.counters["POSIX_FASTEST_RANK_BYTES"] == MiB
        assert rec.fcounters["POSIX_F_SLOWEST_RANK_TIME"] > 0

    def test_single_rank_record_keeps_rank(self):
        ops = [IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=2, path="/scratch/own", offset=0, size=100)]
        log = _run_instrumented(ops)
        assert log.records_for("POSIX")[0].rank == 2

    def test_common_access_sizes(self):
        ops = [IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=0, path="/scratch/f", offset=i * 1000, size=1000) for i in range(5)]
        ops.append(IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=0, path="/scratch/f", offset=5000, size=77))
        log = _run_instrumented(ops, nprocs=1)
        rec = log.records_for("POSIX")[0]
        assert rec.counters["POSIX_ACCESS1_ACCESS"] == 1000
        assert rec.counters["POSIX_ACCESS1_COUNT"] == 5

    def test_lustre_record_created_with_layout(self):
        ops = [IOOp(kind=OpKind.WRITE, api=API.POSIX, rank=0, path="/scratch/f", offset=0, size=MiB)]
        log = _run_instrumented(ops, nprocs=1, default_stripe_width=2, num_osts=8)
        lrec = log.records_for("LUSTRE")[0]
        assert lrec.counters["LUSTRE_STRIPE_WIDTH"] == 2
        assert lrec.counters["LUSTRE_OSTS"] == 8
        assert "LUSTRE_OST_ID_1" in lrec.counters

    def test_metadata_time_accumulates(self):
        ops = [
            IOOp(kind=OpKind.OPEN, api=API.POSIX, rank=0, path="/scratch/f"),
            IOOp(kind=OpKind.STAT, api=API.POSIX, rank=0, path="/scratch/f"),
            IOOp(kind=OpKind.CLOSE, api=API.POSIX, rank=0, path="/scratch/f"),
        ]
        log = _run_instrumented(ops, nprocs=1)
        rec = log.records_for("POSIX")[0]
        assert rec.fcounters["POSIX_F_META_TIME"] > 0
        assert rec.counters["POSIX_OPENS"] == 1
        assert rec.counters["POSIX_STATS"] == 1

    def test_mpiio_collective_counters(self):
        ops = [
            IOOp(kind=OpKind.WRITE, api=API.MPIIO, rank=r, path="/scratch/c", offset=r * MiB, size=MiB, collective=True)
            for r in range(4)
        ]
        log = _run_instrumented(ops)
        rec = log.records_for("MPIIO")[0]
        assert rec.counters["MPIIO_COLL_WRITES"] == 4
        assert rec.counters["MPIIO_INDEP_WRITES"] == 0


# Malformed counter rows and the reason each is rejected (or skipped) with.
_MALFORMED_ROWS = [
    (
        "POSIX\t0\tbroken line without enough fields",
        "line {lineno}: expected 8 tab-separated fields, got 3",
    ),
    (
        "POSIX\t0\t1\tPOSIX_READS\tmany\t/f\t/\tlustre",
        "invalid literal for int() with base 10: 'many'",
    ),
    (
        "POSIX\t0\t1\tPOSIX_F_READ_TIME\t1.2.3\t/f\t/\tlustre",
        "could not convert string to float: '1.2.3'",
    ),
    (
        "POSIX\tr0\t1\tPOSIX_READS\t4\t/f\t/\tlustre",
        "invalid literal for int() with base 10: 'r0'",
    ),
    (
        "POSIX\t0\t1\tPOSIX_READS\t4\t/f\t/\tlustre\textra",
        "line {lineno}: expected 8 tab-separated fields, got 9",
    ),
]


class TestTextRoundTrip:
    def test_round_trip_preserves_everything(self, sb01_trace):
        text = render_darshan_text(sb01_trace.log)
        log2 = parse_darshan_text(text)
        assert log2.header.nprocs == sb01_trace.log.header.nprocs
        assert log2.header.jobid == sb01_trace.log.header.jobid
        assert len(log2.records) == len(sb01_trace.log.records)
        orig = {(r.module, r.path): r for r in sb01_trace.log.records}
        for rec in log2.records:
            o = orig[(rec.module, rec.path)]
            assert rec.rank == o.rank
            assert rec.counters == o.counters

    def test_module_section_order(self, sb01_trace):
        text = render_darshan_text(sb01_trace.log)
        posix_pos = text.index("POSIX module data")
        mpiio_pos = text.index("MPI-IO module data")
        lustre_pos = text.index("LUSTRE module data")
        assert posix_pos < mpiio_pos < lustre_pos  # MPI-IO in the latter half

    def test_parser_rejects_malformed_rows(self):
        # Strict mode names the offending line for field-count and number errors.
        for row, reason in _MALFORMED_ROWS:
            with pytest.raises(DarshanParseError) as excinfo:
                parse_darshan_text(row + "\n")
            assert str(excinfo.value) == "line 1: " + reason.removeprefix("line {lineno}: ")

    def test_parser_requires_header(self):
        with pytest.raises(DarshanParseError):
            parse_darshan_text("# exe: /bin/x\n")

    def test_parser_tolerates_comments_and_blanks(self, sb01_trace):
        text = render_darshan_text(sb01_trace.log)
        noisy = text.replace("\n\n", "\n# stray comment\n\n", 1)
        assert parse_darshan_text(noisy).header.exe == sb01_trace.log.header.exe


class TestDamagedText:
    """Edge cases for both parser postures: strict raises, lenient counts."""

    def test_empty_dxt_section(self, sb01_trace):
        # A DXT marker with no segment lines is valid in both postures:
        # the temporal channel is simply absent, not an error.
        text = render_darshan_text(sb01_trace.log) + "# DXT trace\n"
        for lenient in (False, True):
            log, report = parse_darshan_text_with_report(text, lenient=lenient)
            assert log.dxt_segments is None
            assert report.dxt_lines == 0
            assert report.clean

    def test_trailing_garbage_after_last_record(self, sb01_trace):
        text = render_darshan_text(sb01_trace.log) + "?? trailing garbage ??\n"
        with pytest.raises(DarshanParseError):
            parse_darshan_text(text)
        log, report = parse_darshan_text_with_report(text, lenient=True)
        assert len(log.records) == len(sb01_trace.log.records)
        assert report.skipped_count == 1
        assert report.skipped[0].text == "?? trailing garbage ??"
        assert "8 tab-separated fields" in report.skipped[0].reason

        # Every kind of bad row, once mid-section and once at the end: each
        # is skipped at its exact line, with the strict error's reason.
        clean = render_darshan_text(sb01_trace.log).splitlines()
        first_record = next(i for i, line in enumerate(clean) if line.startswith("POSIX\t"))
        for row, reason in _MALFORMED_ROWS:
            lines = clean[: first_record + 1] + [row] + clean[first_record + 1 :] + [row]
            damaged = "\n".join(lines) + "\n"
            with pytest.raises(DarshanParseError, match=rf"^line {first_record + 2}: "):
                parse_darshan_text(damaged)
            log, report = parse_darshan_text_with_report(damaged, lenient=True)
            assert len(log.records) == len(sb01_trace.log.records)
            assert report.record_lines == len(clean) - sum(
                1 for line in clean if not line or line.startswith("#")
            )
            assert [(s.lineno, s.text, s.reason) for s in report.skipped] == [
                (n, row, reason.format(lineno=n)) for n in (first_record + 2, len(lines))
            ]

    def test_mid_line_truncation(self, sb01_trace):
        text = render_darshan_text(sb01_trace.log).rstrip("\n")
        truncated = text[: len(text) - len(text.rsplit("\t", 2)[-1]) - 4]
        with pytest.raises(DarshanParseError):
            parse_darshan_text(truncated)
        log, report = parse_darshan_text_with_report(truncated, lenient=True)
        # Only the cut line is lost; every intact record survives.
        assert report.skipped_count == 1
        assert len(log.records) >= len(sb01_trace.log.records) - 1

    def test_dxt_garbage_lineno_offsets_into_full_text(self, sb01_trace):
        text = render_darshan_text(sb01_trace.log, include_dxt=True)
        assert "# DXT trace" in text  # the fixture trace carries segments
        damaged = text + "POSIX garbled \x00 segment line\n"
        with pytest.raises(DarshanParseError):
            parse_darshan_text(damaged)
        log, report = parse_darshan_text_with_report(damaged, lenient=True)
        assert log.dxt_segments is not None
        assert report.skipped_count == 1
        # The skipped lineno is positioned in the *full* text, not the
        # DXT sub-text, so diagnostics point at the real line.
        assert report.skipped[0].lineno == len(damaged.splitlines())

    def test_strict_round_trip_report_is_clean(self, sb01_trace):
        text = render_darshan_text(sb01_trace.log, include_dxt=True)
        log, report = parse_darshan_text_with_report(text)
        assert report.clean
        assert report.record_lines > 0
        assert report.dxt_lines == len(log.dxt_segments)

    def test_missing_header_raises_even_lenient(self):
        with pytest.raises(DarshanParseError, match="missing header fields"):
            parse_darshan_text_with_report("# exe: /bin/x\n", lenient=True)
