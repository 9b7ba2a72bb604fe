"""Async micro-batching of requests: accumulate, dispatch, hand back.

The unit of work is a *request*: the tuple of queries one HTTP call
carries (a 1-tuple for ``/v1/query``). Concurrent requests land in a
pending window with one future each; the window flushes when its
pending queries, duplicates included, reach ``max_batch``, or when
``max_delay_s`` elapses after the first arrival, whichever comes
first. A request is never split, so one of ``max_batch`` or more
queries flushes on arrival. The executor sees every pending query in
arrival order -- ``ServeState.execute_batch`` dedupes and fans out --
and each request gets back its own slice of the results.

The flush runs the batch synchronously on the event loop. That is
deliberate: the daemon is single-loop, so a batch -- including its
transient-state what-if groups -- can never interleave with another
batch's epoch sync, which is the atomicity the fork-and-probe contract
relies on.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .query import Query

#: default flush bounds: 64 queries or 2 ms after first arrival
DEFAULT_MAX_BATCH = 64
DEFAULT_MAX_DELAY_S = 0.002


@dataclass
class BatchStats:
    """Counters the daemon exports via ``/stats`` and ``serve.*``.

    ``requests`` counts queries; ``deduped`` the duplicate queries
    within flushed batches; ``batched_queries`` and ``max_batch_seen``
    the distinct queries per batch.
    """

    requests: int = 0
    deduped: int = 0
    batches: int = 0
    flushed_full: int = 0
    flushed_deadline: int = 0
    flushed_drain: int = 0
    max_batch_seen: int = 0
    batched_queries: int = 0

    def as_dict(self) -> Dict[str, Any]:
        mean = self.batched_queries / self.batches if self.batches else 0.0
        return {
            "requests": self.requests,
            "deduped": self.deduped,
            "batches": self.batches,
            "flushed_full": self.flushed_full,
            "flushed_deadline": self.flushed_deadline,
            "flushed_drain": self.flushed_drain,
            "max_batch_seen": self.max_batch_seen,
            "mean_batch_size": mean,
        }


class MicroBatcher:
    """Deadline/size-bounded request coalescing over a batch executor.

    ``execute_batch`` is called with every pending query (requests
    concatenated in arrival order) and must return one result per
    query; each request's future resolves to its own results, in
    order.
    """

    def __init__(
        self,
        execute_batch: Callable[[Sequence[Query]], List[Any]],
        max_batch: int = DEFAULT_MAX_BATCH,
        max_delay_s: float = DEFAULT_MAX_DELAY_S,
        recorder=None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._execute_batch = execute_batch
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s
        self.stats = BatchStats()
        self._pending: List[Tuple[Tuple[Query, ...], "asyncio.Future[List[Any]]"]] = []
        self._pending_queries = 0
        self._timer: Optional[asyncio.TimerHandle] = None
        if recorder is not None:
            m = recorder.metrics
            self._h_batch = m.histogram(
                "serve.batch_size",
                buckets=[1, 2, 4, 8, 16, 32, 64, 128, 256],
            )
            self._c_deduped = m.counter("serve.deduped")
        else:
            self._h_batch = self._c_deduped = None

    # ------------------------------------------------------------------
    async def submit(self, queries: Tuple[Query, ...]) -> List[Any]:
        """Enqueue one request; resolves to its results when its batch runs."""
        # a Query is itself a tuple: refuse it rather than batch its fields
        if not isinstance(queries, tuple) or isinstance(queries, Query):
            raise TypeError(
                "submit() takes a tuple of queries, not "
                f"{type(queries).__name__}"
            )
        if not queries:
            return []
        self.stats.requests += len(queries)
        loop = asyncio.get_running_loop()
        fut = loop.create_future()
        self._pending.append((queries, fut))
        self._pending_queries += len(queries)
        if self._pending_queries >= self.max_batch:
            self._flush("full")
        elif self._timer is None:
            self._timer = loop.call_later(
                self.max_delay_s, self._flush, "deadline"
            )
        return await fut

    def flush(self) -> None:
        """Execute whatever is pending now (drain / shutdown path)."""
        if self._pending:
            self._flush("drain")

    # ------------------------------------------------------------------
    def _flush(self, why: str) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        pending = self._pending
        self._pending = []
        self._pending_queries = 0
        if not pending:
            return
        batch = [q for queries, _ in pending for q in queries]
        distinct = len(set(batch))
        duplicates = len(batch) - distinct
        stats = self.stats
        stats.batches += 1
        stats.batched_queries += distinct
        stats.max_batch_seen = max(stats.max_batch_seen, distinct)
        stats.deduped += duplicates
        if why == "full":
            stats.flushed_full += 1
        elif why == "deadline":
            stats.flushed_deadline += 1
        else:
            stats.flushed_drain += 1
        if self._h_batch is not None:
            self._h_batch.observe(distinct)
        if self._c_deduped is not None and duplicates:
            self._c_deduped.inc(duplicates)
        try:
            results = self._execute_batch(batch)
        except Exception as err:  # defensive: executor should not raise
            for _, fut in pending:
                if not fut.done():
                    fut.set_exception(err)
            return
        start = 0
        for queries, fut in pending:
            end = start + len(queries)
            if not fut.done():
                fut.set_result(results[start:end])
            start = end
