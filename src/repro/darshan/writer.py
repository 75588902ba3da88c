"""Serialize a :class:`DarshanLog` to darshan-parser text format.

This is the format plain LLMs are fed in the paper's preliminary study
(§III): a header with job metadata and mount table, then one section per
module with tab-separated ``<module> <rank> <record id> <counter> <value>
<file name> <mount pt> <fs type>`` lines.  The MPIIO section follows POSIX,
which is why mid-trace truncation makes plain models miss MPI-IO facts.
"""

from __future__ import annotations

from typing import Iterator

from repro.darshan.log import MODULE_ORDER, DarshanLog

__all__ = ["render_darshan_text", "iter_counter_text"]

_MODULE_TITLES = {
    "POSIX": "POSIX module data",
    "MPIIO": "MPI-IO module data",
    "STDIO": "STDIO module data",
    "LUSTRE": "LUSTRE module data",
}
_RULE = "# " + "*" * 55 + "\n"
_COLUMNS = (
    "#<module>\t<rank>\t<record id>\t<counter>\t<value>\t<file name>\t<mount pt>\t<fs type>\n"
)


def iter_counter_text(log: DarshanLog) -> Iterator[str]:
    """Yield the counter text of ``log`` (header plus module sections) in chunks.

    The one source of the text format: the header is one chunk, each
    module's section banner another, and each record's counter lines one
    more.  A record's ``module/rank/record-id`` prefix and
    ``path/mount/fs`` suffix are formatted once and shared by all of its
    lines.  Joining the chunks gives :func:`render_darshan_text`'s counter
    text; :func:`repro.core.service.trace_digest` hashes them one at a
    time instead of building the whole string.
    """
    h = log.header
    yield "".join(
        [
            f"# darshan log version: {h.log_version}\n",
            "# compression method: ZLIB\n",
            f"# exe: {h.exe}\n",
            f"# uid: {h.uid}\n",
            f"# jobid: {h.jobid}\n",
            f"# start_time: {h.start_time}\n",
            f"# start_time_asci: {h.start_time_ascii}\n",
            f"# end_time: {h.end_time}\n",
            f"# nprocs: {h.nprocs}\n",
            f"# run time: {h.run_time:.4f}\n",
            "\n",
            "# mounted file systems (mount point and fs type)\n",
            "# -------------------------------------------------------\n",
            *[f"# mount entry:\t{mount}\t{fs_type}\n" for mount, fs_type in h.mounts],
            "\n",
        ]
    )
    by_module: dict[str, list] = {}
    for rec in log.records:
        by_module.setdefault(rec.module, []).append(rec)
    for module in MODULE_ORDER:
        records = by_module.get(module)
        if not records:
            continue
        title = _MODULE_TITLES.get(module, module + " module data")
        yield f"{_RULE}# {title}\n{_RULE}\n{_COLUMNS}"
        for rec in records:
            prefix = f"{module}\t{rec.rank}\t{rec.record_id}\t"
            suffix = f"\t{rec.path}\t{rec.mount_point}\t{rec.fs_type}\n"
            lines = [f"{prefix}{name}\t{value}{suffix}" for name, value in rec.counters.items()]
            lines += [
                f"{prefix}{name}\t{value:.6f}{suffix}" for name, value in rec.fcounters.items()
            ]
            yield "".join(lines)
        yield "\n"


def render_darshan_text(log: DarshanLog, include_dxt: bool = False) -> str:
    """Render ``log`` as darshan-parser text; output is stable for identical logs.

    ``include_dxt=True`` appends the DXT segment table in
    ``darshan-dxt-parser`` format (when the log carries one), so the export
    preserves the temporal evidence channel and
    :func:`~repro.darshan.parser.parse_darshan_text` restores it.  The
    default matches real deployments (and the paper's plain-LLM inputs):
    counter text only, DXT dropped.
    """
    text = "".join(iter_counter_text(log))
    if include_dxt and log.dxt_segments:
        from repro.darshan.dxt import render_dxt_text

        dxt_lines = render_dxt_text(log.dxt_segments).splitlines()
        dxt_lines.append("")
        text += "\n".join(dxt_lines) + "\n"
    return text
