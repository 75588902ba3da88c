"""Summary-extraction functions (paper §IV-A, Table I).

Each Darshan module exposes a set of *summary categories*; each category
has its own extraction function computing a compact JSON fragment (a list
of typed facts) from the module's counters.  Coverage reproduces Table I:

===========  ======================================================
Module       Categories
===========  ======================================================
POSIX        io_size, request_count, file_metadata, rank, alignment,
             order, mount
MPIIO        io_size, request_count, file_metadata, rank, alignment
STDIO        io_size, request_count, file_metadata
LUSTRE       mount, stripe_setting, server_usage
===========  ======================================================

Everything here is computed *exactly* from counters — the paper's point is
that metadata extraction should not rely on "the limited capabilities of
LLMs for metadata retrieval".
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.darshan.counters import SIZE_BIN_SUFFIXES
from repro.darshan.log import DarshanLog
from repro.llm.facts import Fact
from repro.util.stats import gini

__all__ = [
    "SummaryFragment",
    "SUMMARY_COVERAGE",
    "extract_fragments",
    "extractor_source",
    "app_context_facts",
]

# Table I coverage matrix.
SUMMARY_COVERAGE: dict[str, tuple[str, ...]] = {
    "POSIX": (
        "io_size",
        "request_count",
        "file_metadata",
        "rank",
        "alignment",
        "order",
        "mount",
    ),
    "MPIIO": ("io_size", "request_count", "file_metadata", "rank", "alignment"),
    "STDIO": ("io_size", "request_count", "file_metadata"),
    "LUSTRE": ("mount", "stripe_setting", "server_usage"),
}

# Representative byte size per Darshan histogram bin (midpoint-ish).
_BIN_MID = np.array(
    [50, 562, 5_632, 56_320, 575_488, 2_621_440, 7_340_032, 57_671_680, 589_299_712, 2_147_483_648],
    dtype=np.float64,
)
# Bins whose entire range lies below 128 KiB.
_SMALL_BINS = 4


@dataclass(frozen=True)
class SummaryFragment:
    """One (module, category) JSON summary fragment."""

    module: str
    category: str
    facts: tuple[Fact, ...]
    code: str  # source of the extraction function (goes into the prompt)

    @property
    def fragment_id(self) -> str:
        return f"{self.module}.{self.category}"

    def to_json(self) -> dict:
        """JSON view of the fragment (the pre-processor artifact)."""
        return {
            "module": self.module,
            "category": self.category,
            "facts": [{"kind": f.kind, **f.data} for f in self.facts],
        }


# ---------------------------------------------------------------------------
# Helpers over records
# ---------------------------------------------------------------------------


def _size_hist(records, module: str, direction: str) -> np.ndarray:
    agg = "_AGG" if module == "MPIIO" else ""
    names = [f"{module}_SIZE_{direction.upper()}{agg}_{s}" for s in SIZE_BIN_SUFFIXES]
    hist = np.zeros(len(names), dtype=np.float64)
    for rec in records:
        for i, name in enumerate(names):
            hist[i] += rec.counters.get(name, 0)
    return hist


def _hist_p50(hist: np.ndarray) -> int:
    total = hist.sum()
    if total == 0:
        return 0
    cdf = np.cumsum(hist)
    idx = int(np.searchsorted(cdf, total / 2.0))
    return int(_BIN_MID[min(idx, len(_BIN_MID) - 1)])


def _dir_ops(rec, module: str, direction: str) -> int:
    if module == "MPIIO":
        stem = "READS" if direction == "read" else "WRITES"
        return sum(
            rec.counters.get(f"MPIIO_{kind}_{stem}", 0) for kind in ("INDEP", "COLL", "NB")
        )
    return rec.counters.get(f"{module}_{'READS' if direction == 'read' else 'WRITES'}", 0)


# ---------------------------------------------------------------------------
# Category extraction functions (one per Table I cell)
# ---------------------------------------------------------------------------


def extract_io_size(log: DarshanLog, module: str) -> list[Fact]:
    """I/O size distribution per direction (plus STDIO's volume share)."""
    records = log.records_for(module)
    facts: list[Fact] = []
    if module == "STDIO":
        # STDIO has no size histogram; report its share of total volume.
        for direction, word in (("read", "read"), ("write", "written")):
            stdio = sum(r.counters.get(f"STDIO_BYTES_{word.upper()}", 0) for r in records)
            total = int(log.total(f"POSIX_BYTES_{word.upper()}")) + stdio
            if total > 0:
                facts.append(
                    Fact(
                        "stdio_share",
                        {
                            "direction": word,
                            "share": stdio / total,
                            "stdio_bytes": int(stdio),
                            "total_bytes": int(total),
                        },
                    )
                )
        return facts
    for direction in ("read", "write"):
        hist = _size_hist(records, module, direction)
        n = int(hist.sum())
        if n == 0:
            continue
        facts.append(
            Fact(
                "size_hist",
                {
                    "module": module,
                    "direction": direction,
                    "p50_bytes": _hist_p50(hist),
                    "n_requests": n,
                    "small_fraction": float(hist[:_SMALL_BINS].sum() / n),
                },
            )
        )
    return facts


def extract_request_count(log: DarshanLog, module: str) -> list[Fact]:
    """Operation counts, volumes, and (for MPI-IO) collective usage."""
    records = log.records_for(module)
    reads = sum(_dir_ops(r, module, "read") for r in records)
    writes = sum(_dir_ops(r, module, "write") for r in records)
    facts = [
        Fact(
            "counts",
            {"module": module, "reads": int(reads), "writes": int(writes), "n_files": len(records)},
        ),
        Fact(
            "volume",
            {
                "module": module,
                "bytes_read": int(log.total(f"{module}_BYTES_READ")),
                "bytes_written": int(log.total(f"{module}_BYTES_WRITTEN")),
            },
        ),
    ]
    if module == "MPIIO":
        facts.append(
            Fact(
                "mpi_ops",
                {
                    "indep_reads": int(log.total("MPIIO_INDEP_READS")),
                    "indep_writes": int(log.total("MPIIO_INDEP_WRITES")),
                    "coll_reads": int(log.total("MPIIO_COLL_READS")),
                    "coll_writes": int(log.total("MPIIO_COLL_WRITES")),
                },
            )
        )
    return facts


def extract_file_metadata(log: DarshanLog, module: str) -> list[Fact]:
    """Metadata time/ops and shared-file accounting."""
    records = log.records_for(module)
    meta_time = sum(r.fcounters.get(f"{module}_F_META_TIME", 0.0) for r in records)
    data_time = sum(
        r.fcounters.get(f"{module}_F_READ_TIME", 0.0)
        + r.fcounters.get(f"{module}_F_WRITE_TIME", 0.0)
        for r in records
    )
    if module == "POSIX":
        meta_ops = int(
            log.total("POSIX_OPENS")
            + log.total("POSIX_STATS")
            + log.total("POSIX_SEEKS")
            + log.total("POSIX_FSYNCS")
        )
    elif module == "MPIIO":
        meta_ops = int(
            log.total("MPIIO_INDEP_OPENS") + log.total("MPIIO_COLL_OPENS") + log.total("MPIIO_SYNCS")
        )
    else:
        meta_ops = int(
            log.total("STDIO_OPENS") + log.total("STDIO_SEEKS") + log.total("STDIO_FLUSHES")
        )
    total_time = meta_time + data_time
    facts = [
        Fact(
            "meta",
            {
                "module": module,
                "meta_time_s": float(meta_time),
                "data_time_s": float(data_time),
                "meta_ops": meta_ops,
                "meta_fraction": float(meta_time / total_time) if total_time > 0 else 0.0,
            },
        )
    ]
    if module == "POSIX":
        # Only files carrying substantial traffic count: small shared
        # config/header files are normal, not a Shared File Access issue.
        shared = [
            (r.path, r.counters.get("POSIX_BYTES_READ", 0) + r.counters.get("POSIX_BYTES_WRITTEN", 0))
            for r in records
            if r.shared
        ]
        shared = [(p, b) for p, b in shared if b >= 16 * 1024 * 1024]
        if shared:
            shared.sort(key=lambda pb: -pb[1])
            total = int(log.total("POSIX_BYTES_READ") + log.total("POSIX_BYTES_WRITTEN"))
            facts.append(
                Fact(
                    "shared",
                    {
                        "n_shared_files": len(shared),
                        "shared_bytes": int(sum(b for _, b in shared)),
                        "total_bytes": total,
                        "example_path": shared[0][0],
                    },
                )
            )
    return facts


def extract_rank(log: DarshanLog, module: str) -> list[Fact]:
    """Per-rank balance: Gini over per-rank volume + shared-record variance.

    Files collapsed into shared records hide their per-rank distribution;
    for those, Darshan's variance counters are normalized by the squared
    per-rank mean and folded in as the variance signal, exactly the way an
    expert reads ``*_F_VARIANCE_RANK_BYTES``.
    """
    records = log.records_for(module)
    nprocs = log.header.nprocs
    per_rank = np.zeros(max(nprocs, 1), dtype=np.float64)
    norm_var = 0.0
    for rec in records:
        nbytes = rec.counters.get(f"{module}_BYTES_READ", 0) + rec.counters.get(
            f"{module}_BYTES_WRITTEN", 0
        )
        if nbytes == 0:
            continue
        if rec.shared:
            per_rank += nbytes / nprocs  # balanced-share approximation
            mean = nbytes / nprocs
            var = rec.fcounters.get(f"{module}_F_VARIANCE_RANK_BYTES", 0.0)
            if mean > 0:
                norm_var = max(norm_var, var / (mean * mean))
        elif rec.rank < nprocs:
            per_rank[rec.rank] += nbytes
    if per_rank.sum() == 0:
        return []
    return [
        Fact(
            "rank_balance",
            {
                "module": module,
                "gini": float(gini(per_rank)),
                "norm_variance": float(norm_var),
                "nprocs": nprocs,
            },
        )
    ]


def extract_alignment(log: DarshanLog, module: str) -> list[Fact]:
    """Per-direction misalignment estimate.

    POSIX tracks ``POSIX_FILE_NOT_ALIGNED`` per record but not per
    direction; the per-file unaligned fraction is apportioned to reads and
    writes by their op counts.  MPI-IO (which has no alignment counters)
    falls back to divisibility of the dominant aggregate request size.
    """
    records = log.records_for(module)
    facts: list[Fact] = []
    if module == "POSIX":
        unaligned = {"read": 0.0, "write": 0.0}
        ops = {"read": 0, "write": 0}
        common: dict[str, dict[int, int]] = {"read": {}, "write": {}}
        alignment = 4096
        for rec in records:
            reads = rec.counters.get("POSIX_READS", 0)
            writes = rec.counters.get("POSIX_WRITES", 0)
            total = reads + writes
            if total == 0:
                continue
            alignment = rec.counters.get("POSIX_FILE_ALIGNMENT", alignment) or alignment
            frac = rec.counters.get("POSIX_FILE_NOT_ALIGNED", 0) / total
            unaligned["read"] += frac * reads
            unaligned["write"] += frac * writes
            ops["read"] += reads
            ops["write"] += writes
            size = rec.counters.get("POSIX_ACCESS1_ACCESS", 0)
            count = rec.counters.get("POSIX_ACCESS1_COUNT", 0)
            direction = "read" if reads >= writes else "write"
            if size:
                common[direction][size] = common[direction].get(size, 0) + count
        for direction in ("read", "write"):
            if ops[direction] == 0:
                continue
            sizes = common[direction] or common["write" if direction == "read" else "read"]
            common_size = max(sizes, key=sizes.get) if sizes else 0
            facts.append(
                Fact(
                    "alignment",
                    {
                        "module": module,
                        "direction": direction,
                        "unaligned_fraction": float(unaligned[direction] / ops[direction]),
                        "alignment": int(alignment),
                        "common_size": int(common_size),
                    },
                )
            )
        return facts
    # MPI-IO carries no alignment counters of its own; the analyst's move
    # (and ours) is to read the lowered POSIX records of the same files.
    mpiio_paths = {rec.path for rec in records}
    posix = [r for r in log.records_for("POSIX") if r.path in mpiio_paths]
    if not posix:
        return []
    sub = DarshanLog(header=log.header, records=posix)
    for fact in extract_alignment(sub, "POSIX"):
        facts.append(
            Fact(
                "alignment",
                {**fact.data, "module": "MPIIO"},
            )
        )
    return facts


def extract_order(log: DarshanLog, module: str) -> list[Fact]:
    """Sequentiality per direction, plus the strongest re-read signal.

    Darshan's SEQ counters can never count a stream's *first* operation
    (there is no predecessor), so the denominator excludes one op per
    access stream — one per rank per shared record, one per single-rank
    record — otherwise one-shot-per-file workloads look spuriously random.
    """
    records = log.records_for(module)
    nprocs = log.header.nprocs
    facts: list[Fact] = []
    for direction, stem in (("read", "READ"), ("write", "WRITE")):
        ops = 0
        seq = 0.0
        consec = 0.0
        streams = 0
        for rec in records:
            rec_ops = rec.counters.get(f"POSIX_{stem}S", 0)
            if rec_ops == 0:
                continue
            ops += rec_ops
            seq += rec.counters.get(f"POSIX_SEQ_{stem}S", 0)
            consec += rec.counters.get(f"POSIX_CONSEC_{stem}S", 0)
            streams += min(nprocs if rec.shared else 1, rec_ops)
        effective = ops - streams
        if effective < 20:
            continue  # too few follow-on ops for an order judgment
        facts.append(
            Fact(
                "order",
                {
                    "module": module,
                    "direction": direction,
                    "seq_fraction": min(1.0, seq / effective),
                    "consec_fraction": min(1.0, consec / effective),
                },
            )
        )
    best_ratio, best = 0.0, None
    for rec in records:
        bytes_read = rec.counters.get("POSIX_BYTES_READ", 0)
        extent = rec.counters.get("POSIX_MAX_BYTE_READ", 0) + 1
        if bytes_read >= 8 * 1024 * 1024 and extent > 1:
            ratio = bytes_read / extent
            if ratio > best_ratio:
                best_ratio, best = ratio, rec
    if best is not None and best_ratio >= 1.5:
        facts.append(
            Fact(
                "repetition",
                {
                    "path": best.path,
                    "ratio": float(best_ratio),
                    "bytes_read": int(best.counters.get("POSIX_BYTES_READ", 0)),
                    "extent": int(best.counters.get("POSIX_MAX_BYTE_READ", 0) + 1),
                },
            )
        )
    return facts


def extract_mount(log: DarshanLog, module: str) -> list[Fact]:
    """Mount point / filesystem type of the module's records."""
    records = log.records_for(module)
    seen: dict[tuple[str, str], None] = {}
    for rec in records:
        seen.setdefault((rec.fs_type, rec.mount_point), None)
    return [
        Fact("mount", {"fs_type": fs_type, "mount": mount}) for fs_type, mount in seen
    ]


def extract_stripe_setting(log: DarshanLog, module: str) -> list[Fact]:
    """Stripe layouts, grouped by (width, size), largest groups first."""
    records = log.records_for("LUSTRE")
    groups: dict[tuple[int, int, str], int] = {}
    for rec in records:
        key = (
            rec.counters.get("LUSTRE_STRIPE_WIDTH", 0),
            rec.counters.get("LUSTRE_STRIPE_SIZE", 0),
            rec.mount_point,
        )
        groups[key] = groups.get(key, 0) + 1
    facts = []
    for (width, size, mount), n_files in sorted(groups.items(), key=lambda kv: -kv[1])[:3]:
        facts.append(
            Fact(
                "stripe",
                {"n_files": n_files, "mount": mount, "stripe_width": width, "stripe_size": size},
            )
        )
    return facts


def extract_server_usage(log: DarshanLog, module: str) -> list[Fact]:
    """Effective OST utilization from stripe maps and per-file volume.

    Per-file bytes (POSIX + STDIO, which carry the actual data movement)
    are spread evenly over the file's OST list — round-robin striping makes
    that a good approximation — then summarized as the effective number of
    OSTs (inverse Herfindahl index) and the busiest OST's share.
    """
    lustre = {rec.path: rec for rec in log.records_for("LUSTRE")}
    if not lustre:
        return []
    num_osts = max(rec.counters.get("LUSTRE_OSTS", 0) for rec in lustre.values())
    if num_osts <= 0:
        return []
    ost_bytes = np.zeros(num_osts, dtype=np.float64)
    for mod in ("POSIX", "STDIO"):
        for rec in log.records_for(mod):
            lrec = lustre.get(rec.path)
            if lrec is None:
                continue
            nbytes = rec.counters.get(f"{mod}_BYTES_READ", 0) + rec.counters.get(
                f"{mod}_BYTES_WRITTEN", 0
            )
            if nbytes == 0:
                continue
            width = lrec.counters.get("LUSTRE_STRIPE_WIDTH", 1)
            osts = [
                lrec.counters.get(f"LUSTRE_OST_ID_{i}", 0) % num_osts for i in range(width)
            ]
            for ost in osts:
                ost_bytes[ost] += nbytes / len(osts)
    total = ost_bytes.sum()
    if total == 0:
        return []
    shares = ost_bytes / total
    eff = 1.0 / float(np.square(shares).sum())
    return [
        Fact(
            "server_usage",
            {
                "eff_osts": eff,
                "num_osts": int(num_osts),
                "utilization": eff / num_osts,
                "top_share": float(shares.max()),
                "total_bytes": int(total),
            },
        )
    ]


_EXTRACTORS = {
    "io_size": extract_io_size,
    "request_count": extract_request_count,
    "file_metadata": extract_file_metadata,
    "rank": extract_rank,
    "alignment": extract_alignment,
    "order": extract_order,
    "mount": extract_mount,
    "stripe_setting": extract_stripe_setting,
    "server_usage": extract_server_usage,
}


def app_context_facts(log: DarshanLog) -> list[Fact]:
    """The broader application context attached to every prompt (§IV-B1)."""
    posix_bytes = int(log.total("POSIX_BYTES_READ") + log.total("POSIX_BYTES_WRITTEN"))
    stdio_bytes = int(log.total("STDIO_BYTES_READ") + log.total("STDIO_BYTES_WRITTEN"))
    mpiio_bytes = int(log.total("MPIIO_BYTES_READ") + log.total("MPIIO_BYTES_WRITTEN"))
    mpiio_used = bool(log.records_for("MPIIO"))
    return [
        Fact(
            "app_context",
            {
                "runtime_s": float(log.header.run_time),
                "nprocs": log.header.nprocs,
                "total_bytes": posix_bytes + stdio_bytes,
            },
        ),
        Fact(
            "mpi_presence",
            {
                "mpiio_used": mpiio_used,
                "nprocs": log.header.nprocs,
                "mpiio_bytes": mpiio_bytes,
                "posix_bytes": posix_bytes,
            },
        ),
    ]


@functools.lru_cache(maxsize=64)
def extractor_source(fn: Callable[..., object]) -> str:
    """Source of an extraction function, read and tokenized once per process.

    It fills ``SummaryFragment.code`` on every trace, and the source of a
    loaded function does not change, so re-reading it per trace is waste.
    """
    return inspect.getsource(fn)


def extract_fragments(log: DarshanLog) -> list[SummaryFragment]:
    """Run every applicable extraction function (Table I coverage)."""
    fragments: list[SummaryFragment] = []
    for module, categories in SUMMARY_COVERAGE.items():
        if not log.records_for(module):
            continue
        for category in categories:
            fn = _EXTRACTORS[category]
            facts = fn(log, module)
            if not facts:
                continue
            fragments.append(
                SummaryFragment(
                    module=module,
                    category=category,
                    facts=tuple(facts),
                    code=extractor_source(fn),
                )
            )
    return fragments
