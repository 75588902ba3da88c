"""Parse darshan-parser text output back into a :class:`DarshanLog`.

Round-trips the output of :func:`repro.darshan.writer.render_darshan_text`
and tolerates the benign variations real darshan-parser output exhibits
(extra comment lines, blank lines, unknown modules are kept verbatim).
When the text embeds a DXT section (``render_darshan_text(...,
include_dxt=True)``), the segment table is restored onto
``DarshanLog.dxt_segments`` instead of being dropped to ``None``.

Two failure postures:

* **strict** (the default, unchanged) — the first malformed record line
  raises :class:`DarshanParseError`; right for trusted, freshly-rendered
  text where damage means a bug;
* **lenient** (``lenient=True``) — malformed record/DXT lines are
  *skipped and counted* into a :class:`ParseReport` instead of raising,
  so a truncated or partially-garbled trace still yields every record
  that survived.  Missing required header fields raise even in lenient
  mode: with no job header there is no log to speak of.

Use :func:`parse_darshan_text_with_report` when you need the
:class:`ParseReport`; :func:`parse_darshan_text` keeps the original
log-only signature.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.darshan.log import DarshanLog, JobHeader
from repro.darshan.records import DarshanRecord

__all__ = [
    "parse_darshan_text",
    "parse_darshan_text_with_report",
    "DarshanParseError",
    "ParseReport",
    "SkippedLine",
]


class DarshanParseError(ValueError):
    """Raised when the text is not recognizable darshan-parser output."""


@dataclass(frozen=True)
class SkippedLine:
    """One malformed line the lenient parser dropped."""

    lineno: int  # 1-based, in the full input text
    text: str
    reason: str


@dataclass(frozen=True)
class ParseReport:
    """What the parser saw: volume parsed and damage skipped."""

    total_lines: int
    record_lines: int  # counter records successfully parsed
    dxt_lines: int  # DXT segment lines successfully parsed
    skipped: tuple[SkippedLine, ...] = ()

    @property
    def skipped_count(self) -> int:
        return len(self.skipped)

    @property
    def clean(self) -> bool:
        return not self.skipped


_HEADER_RE = re.compile(r"^# ([a-z_ ]+): (.*)$")
_MOUNT_RE = re.compile(r"^# mount entry:\t(\S+)\t(\S+)$")


def parse_darshan_text_with_report(
    text: str, *, lenient: bool = False
) -> tuple[DarshanLog, ParseReport]:
    """Parse darshan-parser text; returns the log plus a :class:`ParseReport`."""
    header_fields: dict[str, str] = {}
    mounts: list[tuple[str, str]] = []
    records: dict[tuple[str, str], DarshanRecord] = {}
    dxt_text: str | None = None
    dxt_start = 0
    record_lines = 0
    skipped: list[SkippedLine] = []

    lines = text.splitlines()
    for lineno, line in enumerate(lines, start=1):
        if line[:1] == "#":
            if line.startswith("# DXT trace"):
                # Everything from the marker on is the embedded DXT section.
                dxt_text = "\n".join(lines[lineno - 1 :])
                dxt_start = lineno - 1
                break
            m = _MOUNT_RE.match(line)
            if m:
                mounts.append((m.group(1), m.group(2)))
                continue
            m = _HEADER_RE.match(line)
            if m:
                header_fields[m.group(1).strip()] = m.group(2).strip()
            continue
        if not line.strip():
            continue
        # One tab-separated counter line: <module> <rank> <record id>
        # <counter> <value> <file name> <mount pt> <fs type>.
        parts = line.split("\t")
        if len(parts) != 8:
            reason = f"line {lineno}: expected 8 tab-separated fields, got {len(parts)}"
            if not lenient:
                raise DarshanParseError(reason)
            skipped.append(SkippedLine(lineno=lineno, text=line, reason=reason))
            continue
        module, rank_s, _rid, counter, value_s, path, mount, fs_type = parts
        try:
            fvalue: float | None = None
            if "." in value_s or "e" in value_s or "E" in value_s:
                fvalue = float(value_s)
            else:
                ivalue = int(value_s)
            rank = int(rank_s)
        except ValueError as exc:
            if not lenient:
                raise DarshanParseError(f"line {lineno}: {exc}") from exc
            skipped.append(SkippedLine(lineno=lineno, text=line, reason=str(exc)))
            continue
        rec = records.get((module, path))
        if rec is None:
            rec = records[(module, path)] = DarshanRecord(
                module=module, path=path, rank=rank, mount_point=mount, fs_type=fs_type
            )
        if fvalue is None:
            rec.counters[counter] = ivalue
        else:
            rec.fcounters[counter] = fvalue
        record_lines += 1

    required = ("exe", "uid", "jobid", "start_time", "end_time", "nprocs", "run time")
    missing = [k for k in required if k not in header_fields]
    if missing:
        # Even lenient parsing needs a job header to anchor the log.
        raise DarshanParseError(f"missing header fields: {missing}")

    dxt_segments = None
    dxt_lines = 0
    if dxt_text is not None:
        from repro.darshan.dxt import parse_dxt_text

        dxt_skipped: list[tuple[int, str, str]] = []
        try:
            table = parse_dxt_text(
                dxt_text, lenient=lenient, skipped=dxt_skipped if lenient else None
            )
        except DarshanParseError:
            raise
        except ValueError as exc:
            raise DarshanParseError(str(exc)) from exc
        for sub_lineno, sub_text, reason in dxt_skipped:
            skipped.append(
                SkippedLine(lineno=dxt_start + sub_lineno, text=sub_text, reason=reason)
            )
        dxt_lines = len(table)
        dxt_segments = table if len(table) else None

    header = JobHeader(
        exe=header_fields["exe"],
        uid=int(header_fields["uid"]),
        jobid=int(header_fields["jobid"]),
        nprocs=int(header_fields["nprocs"]),
        start_time=int(header_fields["start_time"]),
        end_time=int(header_fields["end_time"]),
        run_time=float(header_fields["run time"]),
        log_version=header_fields.get("darshan log version", "3.41"),
        mounts=mounts,
    )
    log = DarshanLog(
        header=header, records=list(records.values()), dxt_segments=dxt_segments
    )
    report = ParseReport(
        total_lines=len(lines),
        record_lines=record_lines,
        dxt_lines=dxt_lines,
        skipped=tuple(skipped),
    )
    return log, report


def parse_darshan_text(text: str, *, lenient: bool = False) -> DarshanLog:
    """Parse darshan-parser text into a structured log.

    ``lenient=True`` skips-and-counts malformed lines instead of raising;
    use :func:`parse_darshan_text_with_report` to see what was skipped.
    """
    log, _report = parse_darshan_text_with_report(text, lenient=lenient)
    return log
