"""MicroBatcher: flush triggers, the request contract, stats, failure.

Pure unit tests against a scripted executor -- no topology. The unit
of work is a request: a tuple of queries submitted whole, resolving to
that request's results in order. The executor records the batches it
receives so the tests can assert the coalescing behaviour (size flush,
deadline flush, drain flush, requests never split) independent of
routing.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.obs import Recorder
from repro.serve import BatchStats, MicroBatcher
from repro.serve.query import Query


def q(i: int) -> Query:
    return Query(kind="path", src_host=f"h{i}", dst_host="dst")


def req(*ids: int):
    return tuple(q(i) for i in ids)


def echo(ids):
    return [{"echo": f"h{i}"} for i in ids]


class ScriptedExecutor:
    def __init__(self):
        self.batches = []

    def __call__(self, batch):
        self.batches.append(list(batch))
        return [{"echo": query.src_host} for query in batch]


class DedupingExecutor(ScriptedExecutor):
    """Fans one result object out to duplicate slots, as
    ``ServeState.execute_batch`` does."""

    def __call__(self, batch):
        self.batches.append(list(batch))
        results = {}
        return [results.setdefault(query, {"echo": query.src_host})
                for query in batch]


def run(coro):
    return asyncio.run(coro)


class TestFlushTriggers:
    def test_full_batch_flushes_immediately(self):
        ex = ScriptedExecutor()

        async def main():
            b = MicroBatcher(ex, max_batch=4, max_delay_s=60.0)
            results = await asyncio.gather(b.submit(req(0, 1)),
                                           b.submit(req(2, 3)))
            return b, results

        b, results = run(main())
        # the second request filled the window -- no deadline wait
        assert ex.batches == [list(req(0, 1, 2, 3))]
        assert results == [echo([0, 1]), echo([2, 3])]
        assert b.stats.flushed_full == 1
        assert b.stats.flushed_deadline == 0

    def test_deadline_flushes_partial_batch(self):
        ex = ScriptedExecutor()

        async def main():
            b = MicroBatcher(ex, max_batch=100, max_delay_s=0.01)
            results = await asyncio.gather(b.submit(req(0)), b.submit(req(1)))
            return b, results

        b, results = run(main())
        assert ex.batches == [list(req(0, 1))]
        assert results == [echo([0]), echo([1])]
        assert b.stats.flushed_deadline == 1

    def test_explicit_flush_drains_pending(self):
        ex = ScriptedExecutor()

        async def main():
            b = MicroBatcher(ex, max_batch=100, max_delay_s=60.0)
            task = asyncio.ensure_future(b.submit(req(0)))
            await asyncio.sleep(0)  # let submit() park in the window
            b.flush()
            return b, await task

        b, result = run(main())
        assert result == echo([0])
        assert b.stats.flushed_drain == 1

    def test_consecutive_windows_are_independent(self):
        ex = ScriptedExecutor()

        async def main():
            b = MicroBatcher(ex, max_batch=2, max_delay_s=60.0)
            await asyncio.gather(b.submit(req(0)), b.submit(req(1)))
            await asyncio.gather(b.submit(req(2)), b.submit(req(3)))
            return b

        b = run(main())
        assert ex.batches == [list(req(0, 1)), list(req(2, 3))]
        assert b.stats.batches == 2
        assert b.stats.max_batch_seen == 2


class TestRequestContract:
    def test_request_is_never_split(self):
        ex = ScriptedExecutor()

        async def main():
            b = MicroBatcher(ex, max_batch=4, max_delay_s=60.0)
            # 3 + 3 queries overshoot the bound of 4: both requests ride
            # the one flush rather than splitting the second
            first = await asyncio.gather(b.submit(req(0, 1, 2)),
                                         b.submit(req(3, 4, 5)))
            # 7 queries in one request: one batch of 7
            second = await b.submit(req(6, 7, 8, 9, 10, 11, 12))
            return b, first, second

        b, first, second = run(main())
        assert ex.batches == [list(req(0, 1, 2, 3, 4, 5)),
                              list(req(6, 7, 8, 9, 10, 11, 12))]
        assert first == [echo([0, 1, 2]), echo([3, 4, 5])]
        assert second == echo([6, 7, 8, 9, 10, 11, 12])
        assert b.stats.flushed_full == 2
        assert b.stats.max_batch_seen == 7

    def test_small_requests_coalesce_with_own_results_in_order(self):
        ex = ScriptedExecutor()

        async def main():
            b = MicroBatcher(ex, max_batch=64, max_delay_s=0.01)
            return b, await asyncio.gather(
                b.submit(req(5, 1)), b.submit(req(2)), b.submit(req(9, 0, 3)),
            )

        b, results = run(main())
        assert ex.batches == [list(req(5, 1, 2, 9, 0, 3))]
        assert results == [echo([5, 1]), echo([2]), echo([9, 0, 3])]
        assert b.stats.batches == 1 and b.stats.flushed_deadline == 1
        assert b.stats.requests == 6

    # max_batch counts every query, duplicates included
    @pytest.mark.parametrize("ids", [(0, 1, 2, 3), (0, 1, 2, 3, 4),
                                     (0, 0, 1, 1)])
    def test_request_of_max_batch_or_more_flushes_on_arrival(self, ids):
        ex = ScriptedExecutor()

        async def main():
            b = MicroBatcher(ex, max_batch=4, max_delay_s=60.0)
            task = asyncio.ensure_future(b.submit(req(*ids)))
            await asyncio.sleep(0)  # submit() runs up to its await
            # flushed during submit itself: nothing waits on the window
            assert task.done() and b._timer is None
            return b, await task

        b, result = run(main())
        assert ex.batches == [list(req(*ids))]
        assert result == echo(ids)
        assert b.stats.flushed_full == 1

    def test_bare_query_or_list_is_a_type_error(self):
        ex = ScriptedExecutor()

        async def main():
            b = MicroBatcher(ex, max_batch=4, max_delay_s=60.0)
            # a Query is a tuple of its fields; a list is unhashable
            for bad in (q(0), [q(0)]):
                with pytest.raises(TypeError, match="tuple of queries"):
                    await b.submit(bad)
            return b

        b = run(main())
        assert ex.batches == []
        assert b.stats.requests == 0

    def test_empty_request_resolves_without_a_batch(self):
        ex = ScriptedExecutor()

        async def main():
            b = MicroBatcher(ex, max_batch=4, max_delay_s=60.0)
            return b, await b.submit(())

        b, result = run(main())
        assert result == [] and ex.batches == []
        assert b.stats.batches == 0


class TestDedupe:
    def test_duplicates_reach_executor_and_are_counted(self):
        ex = DedupingExecutor()

        async def main():
            b = MicroBatcher(ex, max_batch=5, max_delay_s=0.01)
            return b, await asyncio.gather(
                b.submit(req(7, 7)), b.submit(req(7, 8)),
            )

        b, (first, second) = run(main())
        # the batcher leaves dedupe to the executor: it sees all four
        assert ex.batches == [list(req(7, 7, 7, 8))]
        assert first[0] is first[1] is second[0]
        assert second[1] == {"echo": "h8"}
        assert b.stats.requests == 4
        assert b.stats.deduped == 2
        assert b.stats.batched_queries == 2

    def test_dedupe_metrics_reach_recorder(self):
        ex = ScriptedExecutor()
        rec = Recorder()

        async def main():
            b = MicroBatcher(ex, max_batch=3, max_delay_s=0.01,
                             recorder=rec)
            await asyncio.gather(b.submit(req(0, 0)), b.submit(req(1)))
            await b.submit(req(2, 2, 2, 3))
            return b

        b = run(main())
        assert b.stats.deduped == 3
        assert rec.metrics.counter("serve.deduped").value == b.stats.deduped
        hist = rec.metrics.histogram(
            "serve.batch_size", buckets=[1, 2, 4, 8, 16, 32, 64, 128, 256]
        )
        # one observation per batch, of its distinct queries
        assert hist.count == b.stats.batches == 2
        assert hist.total == b.stats.batched_queries == 4


class TestFailureAndStats:
    def test_executor_exception_propagates_to_all_waiters(self):
        def boom(batch):
            raise RuntimeError("engine fell over")

        async def main():
            b = MicroBatcher(boom, max_batch=3, max_delay_s=60.0)
            return await asyncio.gather(
                b.submit(req(0)), b.submit(req(1, 2)), return_exceptions=True
            )

        results = run(main())
        assert len(results) == 2
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_max_batch_validation(self):
        with pytest.raises(ValueError):
            MicroBatcher(ScriptedExecutor(), max_batch=0)

    def test_stats_as_dict(self):
        stats = BatchStats(
            requests=10, deduped=2, batches=2, flushed_full=1,
            flushed_deadline=1, max_batch_seen=6, batched_queries=8,
        )
        d = stats.as_dict()
        assert d["mean_batch_size"] == 4.0
        assert d["requests"] == 10 and d["deduped"] == 2
        assert BatchStats().as_dict()["mean_batch_size"] == 0.0
