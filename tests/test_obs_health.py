"""repro.obs.health: incidents, detectors, hub, engine, replay."""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.fabric import FluidSimulator, SolverEquivalence
from repro.obs import (
    HealthConfig,
    HealthEngine,
    HealthReport,
    Recorder,
    recording,
)
from repro.obs.health import (
    ERROR,
    RULE_FAILOVER_SLO,
    RULE_HOTSPOT,
    RULE_INTERFERENCE,
    RULE_POLARIZATION,
    WARNING,
    FailoverSloDetector,
    HotspotDetector,
    Incident,
    InterferenceDetector,
    replay,
)
from repro.obs.health.scenario import run_health_scenario
from repro.obs.metrics import FRACTION_BUCKETS
from repro.workloads.reference import build_reference_workload

HEALTH_GOLDEN = Path(__file__).with_name("health_golden.json")
SOLVER_GOLDEN = Path(__file__).with_name("solver_golden.json")


def _collect():
    incidents = []
    return incidents, incidents.append


# ----------------------------------------------------------------------
# Incident
# ----------------------------------------------------------------------
class TestIncident:
    def test_round_trip(self):
        inc = Incident(rule=RULE_HOTSPOT, severity=WARNING, subject="l0",
                       start_s=1.0, end_s=2.5, message="hot",
                       data={"peak": 1.0})
        again = Incident.from_dict(inc.to_dict())
        assert again == inc
        assert again.duration_s == pytest.approx(1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            Incident(rule=RULE_HOTSPOT, severity="fatal", subject="x",
                     start_s=0.0, end_s=1.0, message="m")
        with pytest.raises(ValueError):
            Incident(rule=RULE_HOTSPOT, severity=WARNING, subject="x",
                     start_s=2.0, end_s=1.0, message="m")

    def test_sort_key_orders_by_time_then_rule(self):
        a = Incident(rule="health.b", severity=WARNING, subject="x",
                     start_s=0.0, end_s=1.0, message="m")
        b = Incident(rule="health.a", severity=WARNING, subject="x",
                     start_s=0.0, end_s=1.0, message="m")
        c = Incident(rule="health.a", severity=WARNING, subject="x",
                     start_s=0.5, end_s=1.0, message="m")
        assert sorted([c, a, b], key=lambda i: i.sort_key()) == [b, a, c]


# ----------------------------------------------------------------------
# streak detectors
# ----------------------------------------------------------------------
class TestHotspotStreaks:
    def cfg(self):
        return HealthConfig(hotspot_util=0.9, hotspot_min_s=1.0)

    def test_sustained_streak_emits_on_close(self):
        incidents, emit = _collect()
        det = HotspotDetector(self.cfg(), emit)
        det.observe(0.0, "l0", 0.95)
        det.observe(0.6, "l0", 1.0)
        assert incidents == []  # still open
        det.observe(1.5, "l0", 0.2)  # closes: 1.5s >= 1.0s minimum
        (inc,) = incidents
        assert inc.rule == RULE_HOTSPOT
        assert inc.subject == "l0"
        assert inc.start_s == 0.0
        assert inc.end_s == 1.5
        assert inc.data["peak"] == 1.0
        assert inc.data["samples"] == 2

    def test_short_blip_is_not_an_incident(self):
        # every max-min bottleneck touches 100% momentarily
        incidents, emit = _collect()
        det = HotspotDetector(self.cfg(), emit)
        det.observe(0.0, "l0", 1.0)
        det.observe(0.4, "l0", 0.1)
        assert incidents == []

    def test_below_threshold_never_opens(self):
        incidents, emit = _collect()
        det = HotspotDetector(self.cfg(), emit)
        for t in range(5):
            det.observe(float(t), "l0", 0.5)
        det.close_all(10.0)
        assert incidents == []

    def test_subjects_tracked_independently(self):
        incidents, emit = _collect()
        det = HotspotDetector(self.cfg(), emit)
        det.observe(0.0, "a", 0.99)
        det.observe(0.0, "b", 0.99)
        det.observe(2.0, "a", 0.0)
        assert det.open_subjects() == ["b"]
        det.close_all(3.0)
        assert sorted(i.subject for i in incidents) == ["a", "b"]

    def test_close_all_respects_min_duration(self):
        incidents, emit = _collect()
        det = HotspotDetector(self.cfg(), emit)
        det.observe(0.0, "l0", 0.99)
        det.close_all(0.2)  # flushed early: too short to matter
        assert incidents == []


class TestInterference:
    def test_over_budget_fires_instant(self):
        incidents, emit = _collect()
        det = InterferenceDetector(HealthConfig(interference_budget=1.5),
                                   emit)
        det.observe_snapshot(10.0, "job3", 1.4)
        assert incidents == []
        det.observe_snapshot(20.0, "job3", 2.0, snapshot_index=1)
        (inc,) = incidents
        assert inc.rule == RULE_INTERFERENCE
        assert inc.start_s == inc.end_s == 20.0
        assert inc.data["snapshot"] == 1


class TestFailoverSlo:
    def test_scans_failover_track_spans(self):
        rec = Recorder()
        rec.events.span("bgp.blackhole", 1.0, 1.8, track="failover",
                        link_id=7)
        rec.events.span("bgp.blackhole", 3.0, 3.2, track="failover",
                        link_id=8)  # within SLO
        rec.events.span("bgp.blackhole", 5.0, 9.0, track="other")
        rec.events.instant("bgp.blackhole", 6.0, track="failover")
        incidents, emit = _collect()
        det = FailoverSloDetector(HealthConfig(failover_slo_s=0.5), emit)
        det.scan_events(rec.events)
        (inc,) = incidents
        assert inc.rule == RULE_FAILOVER_SLO
        assert inc.severity == ERROR
        assert inc.subject == "link_id=7"
        assert inc.data["dur_s"] == pytest.approx(0.8)


# ----------------------------------------------------------------------
# engine + hub
# ----------------------------------------------------------------------
class TestHealthEngine:
    def test_requires_enabled_recorder(self):
        with pytest.raises(ValueError):
            HealthEngine(None)

    def test_attach_detach(self):
        rec = Recorder()
        engine = HealthEngine(rec).attach()
        assert rec.health is engine.hub
        assert rec.health.engine is engine
        engine.detach()
        assert rec.health is None

    def test_configure_rejects_unknown_field(self):
        engine = HealthEngine(Recorder())
        engine.configure(hotspot_min_s=2.0)
        assert engine.config.hotspot_min_s == 2.0
        with pytest.raises(TypeError):
            engine.configure(no_such_knob=1)

    def test_wants_sample_decimation(self):
        engine = HealthEngine(Recorder())
        engine.configure(sample_every=3)
        hub = engine.hub
        got = [hub.wants_sample() for _ in range(7)]
        assert got == [True, False, False, True, False, False, True]

    def test_suspended_blocks_sampling(self):
        engine = HealthEngine(Recorder())
        engine.configure(sample_every=1)
        hub = engine.hub
        with hub.suspended():
            assert not hub.wants_sample()
            hub.sample_fleet(5.0, 3, 1)
        assert hub.wants_sample()
        assert len(engine.recorder.metrics) == 1  # health.samples only

    def test_timeline_reset_flushes_streaks(self):
        engine = HealthEngine(Recorder())
        hub = engine.hub
        engine.hotspot.observe(0.0, "l0", 0.99)
        engine.hotspot.observe(1.2, "l0", 0.99)
        hub.last_now = 1.2
        hub._advance_timeline(0.0)  # a new sim's clock starts over
        (inc,) = engine.incidents
        assert inc.rule == RULE_HOTSPOT
        assert inc.end_s == 1.2
        assert engine.hotspot.open_subjects() == []

    def test_finalize_idempotent_and_emits_track(self):
        rec = Recorder()
        engine = HealthEngine(rec).attach()
        engine.hotspot.observe(0.0, "l0", 0.99)
        engine.hub.last_now = 2.0
        report = engine.finalize()
        assert engine.finalize() is report
        assert isinstance(report, HealthReport)
        assert report.error_count == 0
        assert report.warning_count == 1
        spans = [e for e in rec.events if e.track == "health"]
        assert [e.name for e in spans] == [RULE_HOTSPOT]
        assert spans[0].args["severity"] == WARNING

    def test_incident_counter_recorded(self):
        rec = Recorder()
        engine = HealthEngine(rec)
        engine.interference.observe_snapshot(1.0, "job0", 99.0)
        series = [m.series for m in rec.metrics.series()]
        assert ("health.incidents{rule=health.interference,"
                "severity=warning}") in series


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
class TestHealthReport:
    def _report(self, severities):
        incidents = [
            Incident(rule=RULE_HOTSPOT, severity=sev, subject=f"s{i}",
                     start_s=float(i), end_s=float(i + 1), message="m")
            for i, sev in enumerate(severities)
        ]
        return HealthReport(incidents=incidents, series_count=1,
                            event_count=2, finalized_at_s=9.0)

    def test_exit_code_three_on_error(self):
        assert self._report([WARNING, ERROR]).exit_code == 3
        assert self._report([WARNING]).exit_code == 0
        assert self._report([]).ok

    def test_round_trip_and_render(self):
        report = self._report([ERROR])
        again = HealthReport.from_jsonable(report.to_jsonable())
        assert again.incidents == report.incidents
        text = report.render_text()
        assert "UNHEALTHY" in text
        assert "health.hotspot" in text
        assert "HEALTHY" in self._report([]).render_text()


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
class TestReplay:
    def test_replay_reproduces_streak_verdicts(self):
        # live side: drive detectors through recorded health.* series
        rec = Recorder()
        engine = HealthEngine(rec).attach()
        for ts, value in [(0.0, 1.0), (0.8, 1.0), (1.6, 0.3)]:
            rec.metrics.gauge("health.link_util", link="a->b").set(
                value, ts_s=ts)
            engine.hotspot.observe(ts, "a->b", value)
        rec.events.span("bgp.blackhole", 0.2, 1.0, track="failover",
                        link_id=4)
        live = engine.finalize()
        assert {i.rule for i in live.incidents} == {
            RULE_HOTSPOT, RULE_FAILOVER_SLO}

        replayed = replay(list(rec.events), rec.metrics.snapshot())
        assert replayed.incidents == live.incidents

    def test_replay_accepts_full_snapshot_wrapper(self):
        rec = Recorder()
        rec.metrics.gauge("health.fleet_slowdown", job="job1").set(
            3.0, ts_s=5.0)
        report = replay([], {"metrics": rec.metrics.snapshot()})
        (inc,) = report.incidents
        assert inc.rule == RULE_INTERFERENCE
        assert inc.subject == "job1"

    def test_replay_ignores_unrelated_series(self):
        rec = Recorder()
        rec.metrics.gauge("link_util", tier="agg").set(1.0, ts_s=1.0)
        rec.metrics.counter("sim.solves").inc()
        assert replay([], rec.metrics.snapshot()).incidents == []


# ----------------------------------------------------------------------
# the dirty-set hub against one write per link per acted sample
# ----------------------------------------------------------------------
def _link_facts(topo, dl):
    """(tier, plane, label, uplink ToR) of a directed link."""
    link = topo.links[dl // 2]
    a, b = (link.b.node, link.a.node) if dl % 2 else (link.a.node, link.b.node)
    sa, sb = topo.switches.get(a), topo.switches.get(b)
    planes = [sw.plane for sw in (sa, sb)
              if sw is not None and sw.plane is not None]
    tor = a if (sa is not None and sb is not None
                and getattr(sa, "is_tor", False) and sb.tier == 2) else None
    return (topo.link_tier(link.link_id),
            str(planes[0]) if planes else None, f"{a}->{b}", tor)


class _PerSampleHub:
    """Reference sampler: walks every live link and writes every hot
    link and every ToR at every acted sample, into its own engine."""

    def __init__(self, engine):
        self.engine = engine
        self.last_now = None

    def sample(self, now, topo, utils, counts):
        engine, cfg = self.engine, self.engine.config
        m = engine.recorder.metrics
        if self.last_now is not None and now < self.last_now - 1e-9:
            for det in (engine.hotspot, engine.polarization, engine.drift):
                det.close_all(self.last_now)
        self.last_now = now
        m.counter("health.samples").inc()
        peaks, label_util, groups = {}, {}, {}
        for dl in sorted(utils):
            util = utils[dl]
            tier, plane, label, tor = _link_facts(topo, dl)
            label_util[label] = util
            if plane is not None and util > peaks.get(plane, 0.0):
                peaks[plane] = util
            m.histogram("health.link_util_frac", buckets=FRACTION_BUCKETS,
                        tier=tier).observe(util)
            if tor is not None:
                groups.setdefault(tor, {})[dl] = counts[dl]
        for plane in sorted(peaks):
            m.gauge("health.plane_util", plane=plane).set(
                peaks[plane], ts_s=now)
        hot = {label for label, util in label_util.items()
               if util >= cfg.hotspot_util}
        for label in sorted(hot | set(engine.hotspot.open_subjects())):
            util = label_util.get(label, 0.0)
            m.gauge("health.link_util", link=label).set(util, ts_s=now)
            engine.hotspot.observe(now, label, util)
        uplinks = {}
        for link in topo.links.values():
            for x, y in ((link.a.node, link.b.node),
                         (link.b.node, link.a.node)):
                sx, sy = topo.switches.get(x), topo.switches.get(y)
                if (sx is not None and sy is not None
                        and getattr(sx, "is_tor", False) and sy.tier == 2):
                    uplinks[x] = uplinks.get(x, 0) + 1
        tors = set(groups) | set(engine.polarization.open_subjects())
        for tor in sorted(tors):
            group = groups.get(tor, {})
            total = sum(group.values())
            share = 0.0
            if (total >= cfg.polarization_min_flows
                    and uplinks.get(tor, 0) >= cfg.polarization_min_links):
                share = max(group.values()) / total
            m.gauge("health.ecmp_spread", switch=tor).set(share, ts_s=now)
            engine.polarization.observe(now, tor, share)


class TestDirtySetHub:
    """``SamplerHub`` writes an unchanged hot link once per run, not
    once per sample, and keeps its membership from the changed links
    only. Random link states over DCN+ (parallel ToR-agg links share a
    label; ToR uplinks feed polarization) and a dual-plane HPN, with
    clock resets, topology switches, a moved hotspot threshold and
    capacity-less links holding flows, must leave the bytes and the
    verdicts of the reference, at every flush point."""

    @staticmethod
    def _pool(rng, topo):
        by_pair = {}
        for link in topo.links.values():
            by_pair.setdefault((link.a.node, link.b.node), []).append(
                link.link_id)
        parallel = [lid for lids in by_pair.values() if len(lids) > 1
                    for lid in lids]
        lids = sorted(topo.links)
        picked = set(rng.sample(parallel, min(12, len(parallel))))
        picked.update(rng.sample(lids, 16))
        return sorted(2 * lid + d for lid in picked for d in (0, 1))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_sample_writes(self, seed, dcn_small, hpn_small):
        rng = random.Random(seed)
        topos = [dcn_small, hpn_small]
        pools = [self._pool(rng, topo) for topo in topos]
        live, ref = (HealthEngine(Recorder()).configure(
            hotspot_min_s=0.002, polarization_min_s=0.002,
            polarization_min_flows=3) for _ in range(2))
        reference = _PerSampleHub(ref)
        which, now = 0, 0.0
        utils, counts = {}, {}
        values = (0.2, 0.5, 0.97, 0.98, 0.99, 1.0)

        def same():
            assert json.dumps(live.recorder.metrics.snapshot(),
                              sort_keys=True) == json.dumps(
                ref.recorder.metrics.snapshot(), sort_keys=True)
            assert live.incidents == ref.incidents

        for _step in range(400):
            roll = rng.random()
            if roll < 0.02:
                which = 1 - which
                utils.clear()
                counts.clear()
            elif roll < 0.04:
                now = rng.uniform(0.0, now)
            elif roll < 0.06:
                threshold = rng.choice((0.97, 0.98, 0.99))
                live.config.hotspot_util = threshold
                ref.config.hotspot_util = threshold
            elif roll < 0.12:
                live.hub.flush_runs()
                same()
            for _ in range(rng.randrange(6)):
                dl = rng.choice(pools[which])
                if dl in utils and rng.random() < 0.3:
                    del utils[dl]
                    if rng.random() < 0.5:
                        del counts[dl]  # else: flows on a dead link
                else:
                    utils[dl] = rng.choice(values)
                    counts[dl] = rng.randrange(1, 5)
            now += rng.choice((0.0, 0.001, 0.002))
            sim = SimpleNamespace(now=now, topo=topos[which],
                                  last_dirty_frac=None)
            # the live dicts are handed over and then mutated in place,
            # as the simulator's maintained link view does
            live.hub.sample_fluid(sim, utils, counts)
            reference.sample(now, topos[which], dict(utils), dict(counts))
        live.finalize(now=reference.last_now)
        ref.finalize(now=reference.last_now)
        same()
        assert len(live.incidents) > 10


# ----------------------------------------------------------------------
# golden bytes: every metric series of two monitored runs
# ----------------------------------------------------------------------
def _series_digests(snapshot):
    return {
        name: hashlib.sha256(
            json.dumps(body, sort_keys=True).encode()).hexdigest()
        for name, body in snapshot.items()
    }


def _snapshot_digest(snapshot):
    return hashlib.sha256(json.dumps(
        _series_digests(snapshot), sort_keys=True).encode()).hexdigest()


class TestMonitoredGoldenBytes:
    """Every metric series of two monitored runs, bit for bit.

    ``health_golden.json`` holds one sha256 per series of
    ``Recorder.metrics.snapshot()`` (JSON with sorted keys, so every
    float is compared by its exact repr) for:

    * the reference workload of ``solver_golden.json`` (seed 7, with
      its link flap), watched by a HealthEngine whose streak minimums
      are 4 ms: 1,034 solves, 132 incidents, 155 series;
    * ``health.scenario`` in faulty mode at seed 0: 57 series. Its
      flows cross ToR uplinks, so flow counts reach the polarization
      detector;
    * one seeded ``SolverEquivalence.random_case`` (an HPN case with a
      link flap, 88 flows), sampled at every solve: 100 series. The
      two runs above never put three flows of distinct non-zero rates
      on one link, and IEEE addition of two terms commutes, so only
      this run sees the order in which a link's load is summed.

    The digests were recorded from the engine that rebuilt every link
    load from all active flows after each solve, so a mismatch is a
    change in what the simulator or the health samplers record, never
    noise. The failure names the series that moved.
    """

    def _check(self, name, snapshot):
        want = json.loads(HEALTH_GOLDEN.read_text())[name]
        got = _series_digests(snapshot)
        moved = sorted(k for k in want.keys() & got.keys()
                       if want[k] != got[k])
        missing = sorted(want.keys() - got.keys())
        new = sorted(got.keys() - want.keys())
        assert not (moved or missing or new), (
            f"{len(moved)} series moved: {moved[:8]}; "
            f"missing: {missing[:8]}; new: {new[:8]}")

    @staticmethod
    def _reference(seed_offset=0):
        """A recorder with a 4 ms-streak engine attached, and a factory
        of reference-workload simulators on it (a fresh topology each,
        seeded ``seed + seed_offset``)."""
        case = json.loads(SOLVER_GOLDEN.read_text())["reference"]
        rec = Recorder()
        engine = HealthEngine(rec).configure(
            hotspot_min_s=0.004, polarization_min_s=0.004).attach()

        def make_sim(offset=seed_offset):
            topo, flows, events = build_reference_workload(
                case["params"], case["seed"] + offset)
            sim = FluidSimulator(topo, recorder=rec)
            sim.add_flows(flows)
            for t, lid, up in events:
                sim.schedule(
                    t, lambda s, l=lid, u=up: s.topo.set_link_state(l, u))
            return sim

        return rec, engine, make_sim

    def test_reference_workload(self):
        rec, engine, make_sim = self._reference()
        sim = make_sim()
        sim.run()
        # the link series are complete when run() returns, before any
        # finalize() (which only closes streaks and adds the config)
        want = json.loads(HEALTH_GOLDEN.read_text())["reference"]
        link = {k: v for k, v in _series_digests(
            rec.metrics.snapshot()).items()
            if k.startswith("health.link_util{")}
        assert link and link == {k: want[k] for k in link}
        assert len(link) == sum(
            k.startswith("health.link_util{") for k in want)
        report = engine.finalize()
        assert rec.metrics.counter("sim.solves").value == 1034
        assert len(report.incidents) == 132
        self._check("reference", rec.metrics.snapshot())

    def test_reference_workload_in_chunks(self):
        # run(until=...) returns with hot-link streaks open (16, then
        # 20); the next chunk carries them on. Digest recorded from the
        # hub that wrote every hot link at every acted sample.
        rec, engine, make_sim = self._reference()
        sim = make_sim()
        open_at_return = []
        for until in (0.017, 0.041, None):
            sim.run(until=until)
            open_at_return.append(len(engine.hotspot.open_subjects()))
        assert open_at_return == [16, 20, 8]
        assert len(engine.finalize().incidents) == 130
        assert _snapshot_digest(rec.metrics.snapshot()) == (
            "62100a82be474e47cbbd016693eafa4b003f80a195f6fa31908ddcc0bc2bad3b")

    def test_second_simulator_restarts_the_clock(self):
        # the second simulator (a fresh topology with the same link
        # names) starts at t=0, so the hub closes the first one's 8
        # open streaks at its last sample before taking the new clock
        rec, engine, make_sim = self._reference()
        make_sim().run(until=0.03)
        assert len(engine.hotspot.open_subjects()) == 8
        assert len(engine.incidents) == 94
        make_sim(1).run()
        assert len(engine.finalize().incidents) == 212
        assert _snapshot_digest(rec.metrics.snapshot()) == (
            "76a10c91becd200569ffe8c1d64ff5f24ffd9f9625d0ee0ea79eb43b6c9d9598")

    def test_health_scenario_faulty(self):
        with recording() as rec:
            HealthEngine(rec).attach()
            payload = run_health_scenario({"mode": "faulty"}, seed=0)
        assert len(payload["incidents"]) == 6
        self._check("scenario", rec.metrics.snapshot())

    def test_random_campaign_case(self):
        topo, flows, events = SolverEquivalence.random_case(
            random.Random(3), max_flows=120)
        assert len(flows) == 88 and events
        rec = Recorder()
        engine = HealthEngine(rec).configure(
            sample_every=1, hotspot_min_s=0.001,
            polarization_min_s=0.001).attach()
        sim = FluidSimulator(topo, recorder=rec)
        sim.add_flows(flows)
        for t, lid, up in events:
            sim.schedule(
                t, lambda s, l=lid, u=up: s.topo.set_link_state(l, u))
        sim.run()
        assert len(engine.finalize().incidents) == 87
        self._check("campaign", rec.metrics.snapshot())
