"""Exporter round trips: JSONL events, metrics snapshot, Chrome trace."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    FRACTION_BUCKETS,
    Recorder,
    chrome_trace,
    load_events_jsonl,
    parse_prometheus_text,
    prometheus_exposition,
    summary_table,
    validate_chrome_trace,
    write_chrome_trace,
    write_events_jsonl,
    write_metrics_snapshot,
    write_prometheus,
)


def _sample_recorder() -> Recorder:
    rec = Recorder()
    rec.counter("sim.solves").inc(3)
    rec.gauge("link_util", tier="agg").set(0.5, ts_s=1.0)
    rec.gauge("link_util", tier="agg").set(0.75, ts_s=2.0)
    rec.gauge("scalar_only").set(9.0)
    rec.histogram("lat").observe(0.01)
    rec.instant("flow.start", 0.25, track="flows", flow_id=1)
    rec.span("sim.run", 0.0, 2.0, track="sim", flows=4)
    return rec


# ----------------------------------------------------------------------
# JSONL events
# ----------------------------------------------------------------------
def test_events_jsonl_round_trip(tmp_path):
    rec = _sample_recorder()
    path = write_events_jsonl(rec, str(tmp_path / "events.jsonl"))
    loaded = load_events_jsonl(path)
    assert loaded == list(rec.events)


def test_events_jsonl_empty_log(tmp_path):
    path = write_events_jsonl(Recorder(), str(tmp_path / "e.jsonl"))
    assert load_events_jsonl(path) == []


# ----------------------------------------------------------------------
# metrics snapshot
# ----------------------------------------------------------------------
def test_metrics_snapshot_file(tmp_path):
    rec = _sample_recorder()
    path = write_metrics_snapshot(rec, str(tmp_path / "m.json"))
    data = json.loads(open(path).read())
    assert data["metrics"]["sim.solves"]["value"] == 3
    samples = data["metrics"]["link_util{tier=agg}"]["samples"]
    assert samples == [[1.0, 0.5], [2.0, 0.75]]
    assert data["events"]["recorded"] == 2


# ----------------------------------------------------------------------
# summary table
# ----------------------------------------------------------------------
def test_summary_table_lists_series():
    text = summary_table(_sample_recorder())
    assert "link_util{tier=agg}" in text
    assert "sim.solves" in text
    assert "2 events" in text


def test_summary_table_truncates():
    rec = Recorder()
    for i in range(10):
        rec.counter(f"c{i:02d}").inc()
    text = summary_table(rec, max_rows=3)
    assert "and 7 more series" in text


def test_summary_table_empty():
    assert "no metric series" in summary_table(Recorder())


# ----------------------------------------------------------------------
# Chrome trace
# ----------------------------------------------------------------------
def test_chrome_trace_shape():
    data = chrome_trace(_sample_recorder())
    problems = validate_chrome_trace(data)
    assert problems == []
    events = data["traceEvents"]
    by_ph = {}
    for e in events:
        by_ph.setdefault(e["ph"], []).append(e)
    # named thread rows for both tracks
    thread_names = {e["args"]["name"] for e in by_ph["M"]}
    assert thread_names == {"flows", "sim"}
    # the span carries a duration in microseconds
    (span,) = by_ph["X"]
    assert span["name"] == "sim.run"
    assert span["dur"] == 2.0 * 1e6
    assert span["ts"] == 0.0
    # gauge samples become a counter track; scalar series get one sample
    counter_names = {e["name"] for e in by_ph["C"]}
    assert "link_util{tier=agg}" in counter_names
    assert "sim.solves" in counter_names
    assert "scalar_only" in counter_names
    samples = [e for e in by_ph["C"] if e["name"] == "link_util{tier=agg}"]
    assert [(e["ts"], e["args"]["value"]) for e in samples] == [
        (1.0e6, 0.5), (2.0e6, 0.75),
    ]


def test_chrome_trace_file_is_valid_json(tmp_path):
    path = write_chrome_trace(_sample_recorder(), str(tmp_path / "t.json"))
    data = json.loads(open(path).read())
    assert validate_chrome_trace(data) == []
    assert data["otherData"]["clock"] == "simulation-time"


def test_validate_flags_malformed():
    assert validate_chrome_trace({}) == ["traceEvents is not a list"]
    bad = {"traceEvents": [
        {"ph": "i", "ts": 0.0},                      # no name
        {"name": "x", "ph": "X", "ts": 0.0},         # X without dur
        {"name": "y", "ph": "C", "ts": 0.0,
         "args": {"value": "nope"}},                  # non-numeric C
        {"name": "z", "ph": "??", "ts": 0.0},         # unknown phase
    ]}
    problems = validate_chrome_trace(bad)
    assert len(problems) == 4


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def test_prometheus_round_trip_counters_and_gauges():
    rec = Recorder()
    rec.counter("health.samples").inc(7)
    rec.gauge("link_util", tier="agg").set(0.123456789012345)
    rec.gauge("link_util", tier="access").set(1.0)
    text = prometheus_exposition(rec)
    parsed = parse_prometheus_text(text)
    assert parsed["health_samples"]["type"] == "counter"
    assert parsed["health_samples"]["samples"] == [
        ("health_samples", {}, 7.0)]
    util = parsed["link_util"]
    assert util["type"] == "gauge"
    # repr() serialization: the float survives exactly
    assert util["samples"] == [
        ("link_util", {"tier": "access"}, 1.0),
        ("link_util", {"tier": "agg"}, 0.123456789012345),
    ]


def test_prometheus_histogram_is_cumulative():
    rec = Recorder()
    h = rec.histogram("health.link_util_frac",
                      buckets=FRACTION_BUCKETS, tier="tor")
    for v in (0.02, 0.6, 0.97, 1.0):
        h.observe(v)
    parsed = parse_prometheus_text(prometheus_exposition(rec))
    family = parsed["health_link_util_frac"]
    assert family["type"] == "histogram"
    by_name = {}
    for name, labels, value in family["samples"]:
        by_name.setdefault(name, []).append((labels, value))
    buckets = {labels["le"]: value
               for labels, value in by_name["health_link_util_frac_bucket"]}
    # cumulative counts, closing with the +Inf catch-all
    assert buckets["0.01"] == 0
    assert buckets["0.75"] == 2
    assert buckets["1.0"] == 4
    assert buckets["+Inf"] == 4
    assert by_name["health_link_util_frac_sum"][0][1] == pytest.approx(2.59)
    assert by_name["health_link_util_frac_count"][0][1] == 4


def test_prometheus_label_escaping_round_trips():
    rec = Recorder()
    rec.gauge("g", link='a"b\\c\nd').set(2.0)
    parsed = parse_prometheus_text(prometheus_exposition(rec))
    (name, labels, value) = parsed["g"]["samples"][0]
    assert labels == {"link": 'a"b\\c\nd'}
    assert value == 2.0


def test_prometheus_type_line_once_per_family():
    rec = Recorder()
    rec.gauge("health.plane_util", plane="0").set(0.5)
    rec.gauge("health.plane_util", plane="1").set(0.6)
    text = prometheus_exposition(rec)
    assert text.count("# TYPE health_plane_util gauge") == 1


def test_prometheus_non_finite_values():
    rec = Recorder()
    rec.gauge("pos").set(float("inf"))
    rec.gauge("neg").set(float("-inf"))
    text = prometheus_exposition(rec)
    parsed = parse_prometheus_text(text)
    assert parsed["pos"]["samples"][0][2] == float("inf")
    assert parsed["neg"]["samples"][0][2] == float("-inf")


def test_write_prometheus_file(tmp_path):
    rec = Recorder()
    rec.counter("n").inc()
    path = write_prometheus(rec, str(tmp_path / "m.prom"))
    assert parse_prometheus_text(open(path).read())["n"]["samples"] == [
        ("n", {}, 1.0)]


def test_prometheus_empty_recorder_is_empty_text():
    assert prometheus_exposition(Recorder()) == ""
    assert parse_prometheus_text("") == {}
