"""Tree-based pairwise merging (paper §IV-C) and the 1-step ablation.

IOAgent merges diagnosis fragments strictly two at a time, level by level
up a binary tree — the structure of paper Fig. 2.  The pairs at one level
are independent (the paper runs them in parallel); here they run in order
on the calling thread, each keyed by its own ``call_id``.  The 1-step
merge (everything in one prompt) exists only to reproduce the Fig. 6
comparison, where mid-positioned findings and their references get lost.
"""

from __future__ import annotations

from repro.llm.client import LLMClient
from repro.llm.tasks.merge import build_merge_prompt

__all__ = ["tree_merge", "one_step_merge"]


def tree_merge(
    summaries: list[str],
    client: LLMClient,
    model: str,
    call_id_prefix: str = "",
) -> str:
    """Merge summaries pairwise, level by level, pairs in input order."""
    if not summaries:
        raise ValueError("nothing to merge")
    level = list(summaries)
    depth = 0
    while len(level) > 1:
        merged = [
            client.complete(
                build_merge_prompt([level[2 * i], level[2 * i + 1]]),
                model=model,
                call_id=f"{call_id_prefix}/merge/L{depth}/{i}",
            ).text
            for i in range(len(level) // 2)
        ]
        if len(level) % 2 == 1:
            merged.append(level[-1])
        level = merged
        depth += 1
    return level[0]


def one_step_merge(
    summaries: list[str],
    client: LLMClient,
    model: str,
    call_id_prefix: str = "",
) -> str:
    """Merge everything in a single prompt (the Fig. 6 failure mode)."""
    if not summaries:
        raise ValueError("nothing to merge")
    prompt = build_merge_prompt(list(summaries))
    return client.complete(prompt, model=model, call_id=f"{call_id_prefix}/merge/1step").text
