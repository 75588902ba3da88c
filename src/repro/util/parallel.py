"""Deterministic parallel map.

Runs whole traces at once in ``DiagnosisService.diagnose_batch``, with a
thread pool that preserves input order in the output.  One diagnosis runs
serially on its own thread: its per-fragment work is pure-Python prompt
evaluation under the GIL, where a pool only adds overhead.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["parallel_map"]


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    max_workers: int | None = None,
) -> list[R]:
    """Apply ``fn`` to every item, concurrently, preserving input order.

    ``max_workers=None`` lets the executor pick; ``max_workers=1`` (or a
    single item) degrades to a plain serial loop, which keeps tracebacks
    simple in tests.  Exceptions propagate to the caller exactly as with
    the serial loop.
    """
    seq: Sequence[T] = list(items)
    if max_workers == 1 or len(seq) <= 1:
        return [fn(item) for item in seq]
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(fn, seq))
