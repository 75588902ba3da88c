"""Self-reflection source filtering (paper §IV-B3).

Runs the cheap relevance model over every retrieved source and keeps
those judged RELEVANT.  The paper runs this filter in parallel over the
sources; here the judgments run in order on the calling thread, since the
simulated model is pure Python and threads would only add overhead.  Each
judgment is keyed by its own ``call_id``, so the order does not change
any verdict.
"""

from __future__ import annotations

from repro.llm.client import LLMClient
from repro.llm.tasks.relevance import build_relevance_prompt

__all__ = ["reflect_filter"]


def reflect_filter(
    description: str,
    sources: list[str],
    client: LLMClient,
    model: str = "gpt-4o-mini",
    call_id_prefix: str = "",
) -> list[str]:
    """Return the subset of ``sources`` the reflection model keeps."""
    kept: list[str] = []
    for i, source in enumerate(sources):
        prompt = build_relevance_prompt(description, source)
        response = client.complete(prompt, model=model, call_id=f"{call_id_prefix}/reflect/{i}")
        if response.text.startswith("RELEVANT"):
            kept.append(source)
    return kept
