"""Self-reflection relevance filter (paper §IV-B3).

A fast, cheap model (gpt-4o-mini in the paper) decides, per retrieved
source, whether it actually bears on the fragment being diagnosed — a more
nuanced judgment than raw cosine rank.  The handler extracts the facts
from the fragment description, derives the topics those facts implicate,
and accepts the source iff its topic coverage intersects; a small seeded
flip probability models the cheap model's imperfection.
"""

from __future__ import annotations

import functools
import re

import numpy as np

from repro.llm.engine import register_task
from repro.llm.facts import extract_facts
from repro.llm.models import ModelProfile
from repro.llm.reasoning import infer_findings
from repro.rag.corpus import topics_for_issue

__all__ = ["build_relevance_prompt", "fact_topics"]

_TOPICS_RE = re.compile(r"^Topics: (.*)$", re.MULTILINE)
_FLIP_PROB = 0.08

# Baseline topic implied by each fact kind, before any rule fires.
_KIND_TOPICS = {
    "size_hist": ("small-io",),
    "alignment": ("alignment",),
    "order": ("access-pattern", "repetition"),
    "meta": ("metadata",),
    "shared": ("shared-file",),
    "rank_balance": ("rank-balance",),
    "stripe": ("striping",),
    "server_usage": ("server-balance", "striping"),
    "stdio_share": ("stdio",),
    "mpi_ops": ("collective-io",),
    "mpi_presence": ("mpi",),
    "repetition": ("repetition", "burst-buffer"),
    "volume": ("general",),
    "counts": ("general",),
    "mount": ("general", "striping"),
    "app_context": ("general",),
}


def fact_topics(description: str) -> set[str]:
    """Topics implicated by a fragment description's facts and findings.

    Returns a fresh set on every call, so a caller may mutate it.
    """
    return set(_cached_fact_topics(description))


# The reflection filter judges every retrieved source of a fragment
# against the same description, so one fragment asks for the same topics
# top_k times; the facts and findings behind them are a pure function of
# the text.
@functools.lru_cache(maxsize=512)
def _cached_fact_topics(description: str) -> frozenset[str]:
    facts = extract_facts(description)
    topics: set[str] = set()
    for fact in facts:
        topics.update(_KIND_TOPICS.get(fact.kind, ()))
    for finding in infer_findings(facts):
        topics.update(topics_for_issue(finding.issue_key))
    return frozenset(topics)


def build_relevance_prompt(description: str, source_text: str) -> str:
    """Assemble the per-source self-reflection prompt."""
    return (
        "TASK: relevance\n"
        "Decide whether the following retrieved source is relevant to "
        "diagnosing the I/O behaviour described. Answer RELEVANT or "
        "IRRELEVANT with a one-line reason.\n\n"
        "FRAGMENT DESCRIPTION:\n"
        f"{description}\n\n"
        "SOURCE:\n"
        f"{source_text}\n"
    )


@register_task("relevance")
def handle_relevance(visible: str, model: ModelProfile, rng: np.random.Generator) -> str:
    parts = visible.split("FRAGMENT DESCRIPTION:", 1)
    if len(parts) < 2 or "SOURCE:" not in parts[1]:
        return "IRRELEVANT: the prompt does not contain a description and a source."
    description, source = parts[1].split("SOURCE:", 1)
    wanted = fact_topics(description)
    m = _TOPICS_RE.search(source)
    source_topics = (
        {t.strip() for t in m.group(1).split(",")} if m else set()
    )
    specific = source_topics - {"general"}
    relevant = bool(specific & wanted)
    if rng.random() < _FLIP_PROB:  # the cheap model's occasional misjudgment
        relevant = not relevant
    if relevant:
        overlap = sorted(specific & wanted) or sorted(source_topics)
        return f"RELEVANT: the source covers {', '.join(overlap)}, which matches the description."
    return "IRRELEVANT: the source's topics do not bear on the behaviours described."
