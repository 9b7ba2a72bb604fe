"""repro.obs core: ring buffer, metrics registry, event log, recorder."""

from __future__ import annotations

import pytest

from repro.obs import (
    FRACTION_BUCKETS,
    Counter,
    EventLog,
    Gauge,
    MetricsRegistry,
    NullRecorder,
    Recorder,
    RingBuffer,
    get_recorder,
    recording,
    resolve,
    series_name,
    set_recorder,
)


# ----------------------------------------------------------------------
# RingBuffer
# ----------------------------------------------------------------------
class TestRingBuffer:
    def test_unbounded_by_default(self):
        ring = RingBuffer()
        ring.extend(range(1000))
        assert len(ring) == 1000
        assert ring.rolled_off == 0

    def test_bound_evicts_oldest(self):
        ring = RingBuffer(max_entries=3)
        ring.extend([1, 2, 3, 4, 5])
        assert ring == [3, 4, 5]
        assert ring.rolled_off == 2

    def test_mutable_bound_reread_on_append(self):
        ring = RingBuffer()
        ring.extend(range(10))
        ring.max_entries = 4
        ring.append(10)  # bound applies now: 11 items -> keep newest 4
        assert len(ring) == 4
        assert ring == [7, 8, 9, 10]
        assert ring.rolled_off == 7

    @pytest.mark.parametrize("bound", [None, 0, 1, 3])
    def test_extend_equals_appends(self, bound):
        def both(build):
            bulk, single = RingBuffer(bound), RingBuffer(bound)
            build(bulk, lambda ring, items: ring.extend(iter(items)))
            build(single, lambda ring, items: [ring.append(i) for i in items])
            assert list(bulk) == list(single)
            assert bulk.rolled_off == single.rolled_off
            return bulk

        def grow(ring, add):
            add(ring, [])
            add(ring, range(2))
            add(ring, range(2, 7))
            # a bound lowered between calls applies at the next item
            ring.max_entries = 2 if bound is None else max(bound - 1, 0)
            add(ring, [])
            assert len(ring) == (7 if bound is None else bound)
            add(ring, [7])
            add(ring, range(8, 12))

        ring = both(grow)
        assert ring.rolled_off + len(ring) == 12

    def test_list_like_reads(self):
        ring = RingBuffer()
        ring.extend("abc")
        assert ring[0] == "a"
        assert ring[-1] == "c"
        assert ring[1:] == ["b", "c"]
        assert list(ring) == ["a", "b", "c"]
        assert bool(ring)
        assert not RingBuffer()

    def test_eq_against_list_and_ring(self):
        a = RingBuffer()
        a.extend([1, 2])
        b = RingBuffer(max_entries=10)
        b.extend([1, 2])
        assert a == [1, 2]
        assert a == (1, 2)
        assert a == b
        assert a != [2, 1]

    def test_wraparound_many_times_keeps_newest_window(self):
        ring = RingBuffer(max_entries=4)
        for i in range(1000):
            ring.append(i)
        assert len(ring) == 4
        assert list(ring) == [996, 997, 998, 999]
        assert ring.rolled_off == 996
        # reads stay list-like after heavy wraparound
        assert ring[0] == 996
        assert ring[-1] == 999
        assert ring[1:3] == [997, 998]

    def test_wraparound_extend_larger_than_bound(self):
        ring = RingBuffer(max_entries=3)
        ring.extend(range(10))  # one extend >> bound
        assert list(ring) == [7, 8, 9]
        ring.extend(range(100, 104))
        assert list(ring) == [101, 102, 103]
        assert ring.rolled_off == 11

    def test_wraparound_bound_of_one(self):
        ring = RingBuffer(max_entries=1)
        for ch in "abc":
            ring.append(ch)
        assert list(ring) == ["c"]
        assert ring.rolled_off == 2


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_series_name_sorts_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("link_util", tier="agg", plane=1)
        assert c.series == "link_util{plane=1,tier=agg}"
        assert series_name("x", ()) == "x"

    def test_get_or_create_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("hits", tier="agg")
        b = reg.counter("hits", tier="agg")
        assert a is b
        a.inc()
        a.inc(2.5)
        assert b.value == 3.5

    def test_kind_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_gauge_samples_bounded(self):
        reg = MetricsRegistry(max_samples_per_series=3)
        g = reg.gauge("util")
        for i in range(6):
            g.set(float(i), ts_s=float(i))
        assert g.value == 5.0
        assert list(g.samples) == [(3.0, 3.0), (4.0, 4.0), (5.0, 5.0)]

    def test_gauge_set_without_ts_keeps_no_sample(self):
        g = MetricsRegistry().gauge("x")
        g.set(7.0)
        assert g.value == 7.0
        assert len(g.samples) == 0

    def test_gauge_retention_bounded_under_heavy_sampling(self):
        reg = MetricsRegistry(max_samples_per_series=16)
        g = reg.gauge("util", tier="agg")
        for i in range(10_000):
            g.set(i / 10_000.0, ts_s=float(i))
        assert g.value == pytest.approx(0.9999)
        assert len(g.samples) == 16
        # newest window survives, oldest rolled off
        assert g.samples[0][0] == 9984.0
        assert g.samples[-1][0] == 9999.0
        assert g.samples.rolled_off == 10_000 - 16

    def test_histogram_buckets_and_stats(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count == 3
        assert h.bucket_counts == [1, 1, 1]
        assert h.mean == pytest.approx(55.5 / 3)
        assert h.min_value == 0.5
        assert h.max_value == 50.0

    @pytest.mark.parametrize("bounds", [
        (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0),
        (1, 2, 4, 8, 16, 32, 64, 128, 256),
        (-1.0, 0.0, 0.0, 3.0),
        (5.0,),
    ])
    def test_histogram_observe_matches_linear_scan(self, bounds):
        import math
        import random

        def linear(hist, value):
            # the first bucket whose bound is >= value, else overflow
            hist.count += 1
            hist.total += value
            hist.min_value = min(hist.min_value, value)
            hist.max_value = max(hist.max_value, value)
            for i, bound in enumerate(hist.buckets):
                if value <= bound:
                    hist.bucket_counts[i] += 1
                    return
            hist.bucket_counts[-1] += 1

        rng = random.Random(4711)
        top = max(bounds)
        specials = [float("nan"), float("inf"), -float("inf"), 0.0, -0.0,
                    top * 2 + 1, top + 1e-9]
        values = list(bounds) + specials
        for _ in range(3000):
            roll = rng.random()
            if roll < 0.3:
                values.append(rng.choice(bounds))  # exactly on a bound
            elif roll < 0.4:
                values.append(rng.choice(specials))
            else:
                values.append(rng.uniform(-2.0, top * 1.5 + 1.0))
        rng.shuffle(values)
        fast = MetricsRegistry().histogram("h", buckets=bounds)
        slow = MetricsRegistry().histogram("h", buckets=bounds)
        for value in values:
            fast.observe(value)
            linear(slow, value)
        assert fast.bucket_counts == slow.bucket_counts
        assert fast.bucket_counts[-1] > 0
        assert fast.count == slow.count == len(values)
        assert math.isnan(fast.total) and math.isnan(slow.total)
        assert fast.min_value == slow.min_value == -float("inf")
        assert fast.max_value == slow.max_value == float("inf")
        # NaN observed first leaves min/max to the values that follow
        first_nan = MetricsRegistry().histogram("n", buckets=bounds)
        for value in (float("nan"), 0.5, 7.0):
            first_nan.observe(value)
        assert (first_nan.min_value, first_nan.max_value) == (0.5, 7.0)
        assert first_nan.bucket_counts[-1] >= 1

    def test_snapshot_json_safe(self):
        reg = MetricsRegistry()
        reg.gauge("inf").set(float("inf"))
        reg.counter("n").inc()
        snap = reg.snapshot()
        assert snap["inf"]["value"] is None
        assert snap["n"] == {"kind": "counter", "value": 1.0}

    def test_series_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.counter("a")
        assert [m.series for m in reg.series()] == ["a", "b"]

    def test_recorder_histogram_forwards_buckets(self):
        # regression: Recorder.histogram used to drop the buckets
        # param, silently falling back to the seconds decades
        rec = Recorder()
        h = rec.histogram("sim.dirty_frac", buckets=FRACTION_BUCKETS)
        assert tuple(h.buckets) == tuple(FRACTION_BUCKETS)
        h.observe(0.07)
        assert h.bucket_counts[2] == 1  # the (0.05, 0.1] bin

    def test_fraction_buckets_resolve_zero_to_one_signals(self):
        reg = MetricsRegistry()
        h = reg.histogram("util", buckets=FRACTION_BUCKETS)
        for v in (0.005, 0.3, 0.8, 0.95, 1.0):
            h.observe(v)
        # five distinct bins, not the two a seconds scale would give
        assert sum(1 for c in h.bucket_counts if c) == 5


# ----------------------------------------------------------------------
# events
# ----------------------------------------------------------------------
class TestEventLog:
    def test_instant_and_span(self):
        log = EventLog()
        log.instant("flow.start", 1.5, track="flows", flow_id=7)
        span = log.span("sim.run", 0.0, 2.0, track="sim")
        assert len(log) == 2
        assert log[0].phase == "instant"
        assert log[0].args["flow_id"] == 7
        assert span.dur_s == 2.0
        assert span.end_s == 2.0

    def test_span_negative_duration_clamped(self):
        log = EventLog()
        span = log.span("x", 5.0, 3.0)
        assert span.dur_s == 0.0

    def test_queries(self):
        log = EventLog()
        log.instant("a", 0.0, track="t1")
        log.instant("b", 1.0, track="t2")
        log.instant("a", 2.0, track="t2")
        assert len(log.by_name("a")) == 2
        assert len(log.by_track("t2")) == 2
        assert log.tracks() == ["t1", "t2"]

    def test_bounded_rolloff(self):
        log = EventLog(max_entries=2)
        for i in range(5):
            log.instant("e", float(i))
        assert len(log) == 2
        assert log.rolled_off == 3
        assert log[0].ts_s == 3.0


# ----------------------------------------------------------------------
# recorder resolution
# ----------------------------------------------------------------------
class TestRecorder:
    def test_off_by_default(self):
        assert get_recorder() is None
        assert resolve() is None

    def test_explicit_injection_wins_over_global(self):
        injected = Recorder()
        installed = Recorder()
        previous = set_recorder(installed)
        try:
            assert resolve() is installed
            assert resolve(injected) is injected
        finally:
            set_recorder(previous)

    def test_disabled_resolves_to_none(self):
        assert resolve(NullRecorder()) is None
        previous = set_recorder(NullRecorder())
        try:
            assert resolve() is None
        finally:
            set_recorder(previous)

    def test_recording_context_installs_and_restores(self):
        assert get_recorder() is None
        with recording() as rec:
            assert get_recorder() is rec
            rec.counter("x").inc()
        assert get_recorder() is None
        assert rec.metrics.counter("x").value == 1.0

    def test_passthroughs_and_snapshot(self):
        rec = Recorder()
        rec.counter("c", tier="agg").inc()
        rec.gauge("g").set(2.0, ts_s=1.0)
        rec.histogram("h").observe(0.5)
        rec.instant("i", 0.0, track="a")
        rec.span("s", 0.0, 1.0, track="b")
        snap = rec.snapshot()
        assert set(snap) == {"metrics", "events"}
        assert snap["events"]["recorded"] == 2
        assert snap["events"]["tracks"] == ["a", "b"]
        assert "c{tier=agg}" in snap["metrics"]

    def test_null_recorder_api_is_safe(self):
        rec = NullRecorder()
        rec.counter("x").inc()
        rec.instant("e", 0.0)
        assert not rec.enabled
