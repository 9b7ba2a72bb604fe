"""The sampler hub: hot-path state -> bounded health series + detectors.

The hub is what instrumented components see: a
:class:`~repro.obs.recorder.Recorder` with an attached
:class:`~repro.obs.health.engine.HealthEngine` carries the hub on its
``health`` attribute, and ``FluidSimulator`` / ``FleetSimulator`` read
it once at construction (``rec.health if rec is not None else None``)
-- the same one-guard-per-site discipline every other hot path uses.

Per acted-on sample the hub:

* records per-plane peak utilization gauges and a per-tier 0..1
  utilization histogram (``health.*`` series, FRACTION_BUCKETS); the
  per-tier peak is the simulator's ``link_util{tier}`` series;
* feeds the hotspot detector every near-saturated directed link (plus
  links whose streak is open, so closures are observed);
* groups ToR uplink flow counts into ECMP spread (max member share)
  and feeds the polarization detector;
* mirrors solver dirty-fraction, watched route-cache hit rates, and
  (opt-in) incremental-vs-oracle drift spot checks.

Everything the detectors consume is *also* recorded as sparse
``health.*`` gauge samples, which is what makes trace-dir replay
(:func:`repro.obs.health.engine.replay`) reproduce the live verdicts.

The hub never imports fabric/routing/fleet -- it duck-types over the
simulator (``sim.now``, ``sim.topo``, ``sim.oracle_drift``) so the
dependency points from the simulation layers *into* obs, not back.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Optional

from ..metrics import FRACTION_BUCKETS
from .detectors import (
    HealthConfig,
    HotspotDetector,
    InterferenceDetector,
    PolarizationDetector,
    SolverDriftDetector,
)

#: sim-time going backwards by more than this starts a new timeline
_BACKWARDS_EPS = 1e-9


class SamplerHub:
    """Streaming sampler attached to a recorder by the health engine."""

    def __init__(self, recorder, config: HealthConfig,
                 hotspot: HotspotDetector,
                 polarization: PolarizationDetector,
                 drift: SolverDriftDetector,
                 interference: InterferenceDetector):
        self._recorder = recorder
        self.config = config
        self._hotspot = hotspot
        self._polarization = polarization
        self._drift = drift
        self._interference = interference
        self._suspend_depth = 0
        #: owning HealthEngine (set by HealthEngine.__init__)
        self.engine: Optional[Any] = None
        self._tick = 0          # wants_sample() calls seen
        self._acted = 0         # samples actually processed
        self.last_now: Optional[float] = None
        self._routers: List[Any] = []
        # per-topology caches (rebuilt when the sampled topology changes)
        self._meta_topo: Optional[Any] = None
        self._link_meta: Dict[int, tuple] = {}
        self._tor_uplinks: Dict[str, int] = {}
        self._m_samples = recorder.metrics.counter("health.samples")
        # series-handle caches, filled on first use (never eagerly:
        # an untouched series must not appear in the registry).
        # Registry lookups rebuild label strings, which is too
        # expensive to repeat per link per acted sample.
        self._h_frac: Dict[str, Any] = {}
        self._g_plane: Dict[str, Any] = {}
        self._g_link: Dict[str, Any] = {}
        self._g_spread: Dict[str, Any] = {}
        self._g_dirty: Optional[Any] = None
        self._g_hit_rate: Optional[Any] = None

    # -- gating --------------------------------------------------------
    def wants_sample(self) -> bool:
        """Decimation gate: True on every Nth un-suspended call.

        The first call always samples so short runs are observed.
        """
        if self._suspend_depth:
            return False
        self._tick += 1
        every = self.config.sample_every
        return every <= 1 or (self._tick - 1) % every == 0

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """No-op all sampling inside the block.

        Used around measurement *probes* (fleet interference snapshots
        spin up throwaway ``FluidSimulator`` runs on their own t=0
        timelines) that would otherwise pollute streak state.
        """
        self._suspend_depth += 1
        try:
            yield
        finally:
            self._suspend_depth -= 1

    def watch_router(self, router) -> None:
        """Sample this router's cache hit rate on every fluid sample."""
        for existing in self._routers:
            if existing is router:
                return
        self._routers.append(router)

    # -- timeline ------------------------------------------------------
    def _advance_timeline(self, now: float) -> None:
        if (self.last_now is not None
                and now < self.last_now - _BACKWARDS_EPS):
            # a new sim started its own clock: flush open streaks at
            # the old timeline's end before accepting the new one
            self.flush_streaks(self.last_now)
        self.last_now = now

    def flush_streaks(self, now: float) -> None:
        """Close every open streak as of ``now`` (timeline boundary)."""
        self._hotspot.close_all(now)
        self._polarization.close_all(now)
        self._drift.close_all(now)

    # -- fluid fabric samples ------------------------------------------
    def sample_fluid(self, sim, utils: Mapping[int, float],
                     counts: Mapping[int, int]) -> None:
        """One acted-on sample of a fluid simulator's link state.

        ``utils`` maps every live directed link (carrying a flow, with
        capacity) to its utilization, load over capacity; ``counts``
        maps the same links to the number of active flows crossing
        them. The simulator keeps both current per solve, so sampling
        costs O(live links), with no per-link capacity reads.
        """
        now = sim.now
        self._advance_timeline(now)
        self._acted += 1
        self._m_samples.inc()
        topo = sim.topo
        if topo is not self._meta_topo:
            self._meta_topo = topo
            self._link_meta.clear()
            self._tor_uplinks = _tor_uplink_counts(topo)
        cfg = self.config
        m = self._recorder.metrics

        plane_peak: Dict[str, float] = {}
        label_util: Dict[str, float] = {}
        tor_counts: Dict[str, Dict[int, int]] = {}
        h_frac = self._h_frac
        link_meta = self._link_meta
        for dl in sorted(utils):
            util = utils[dl]
            meta = link_meta.get(dl)
            if meta is None:
                meta = self._meta(topo, dl)
            tier, plane, label, tor = meta
            label_util[label] = util
            if plane is not None and util > plane_peak.get(plane, 0.0):
                plane_peak[plane] = util
            hist = h_frac.get(tier)
            if hist is None:
                hist = h_frac[tier] = m.histogram(
                    "health.link_util_frac",
                    buckets=FRACTION_BUCKETS, tier=tier)
            hist.observe(util)
            if tor is not None:
                tor_counts.setdefault(tor, {})[dl] = counts[dl]
        for plane in sorted(plane_peak):
            g = self._g_plane.get(plane)
            if g is None:
                g = self._g_plane[plane] = m.gauge(
                    "health.plane_util", plane=plane)
            g.set(plane_peak[plane], ts_s=now)

        # hotspot: hot links now, plus open streaks (to observe cooling)
        subjects = {label for label, util in label_util.items()
                    if util >= cfg.hotspot_util}
        subjects.update(self._hotspot.open_subjects())
        for label in sorted(subjects):
            util = label_util.get(label, 0.0)
            g = self._g_link.get(label)
            if g is None:
                g = self._g_link[label] = m.gauge(
                    "health.link_util", link=label)
            g.set(util, ts_s=now)
            self._hotspot.observe(now, label, util)

        # polarization: ECMP spread per ToR uplink group
        tors = set(tor_counts)
        tors.update(self._polarization.open_subjects())
        for tor in sorted(tors):
            group = tor_counts.get(tor, {})
            total = sum(group.values())
            if (total >= cfg.polarization_min_flows
                    and self._tor_uplinks.get(tor, 0)
                    >= cfg.polarization_min_links):
                share = max(group.values()) / total
            else:
                share = 0.0
            g = self._g_spread.get(tor)
            if g is None:
                g = self._g_spread[tor] = m.gauge(
                    "health.ecmp_spread", switch=tor)
            g.set(share, ts_s=now)
            self._polarization.observe(now, tor, share)

        # solver dirty fraction (None until the first commit)
        frac = getattr(sim, "last_dirty_frac", None)
        if frac is not None:
            if self._g_dirty is None:
                self._g_dirty = m.gauge("health.dirty_frac")
            self._g_dirty.set(frac, ts_s=now)

        # watched route caches
        for router in self._routers:
            stats = router.stats
            lookups = stats.hits + stats.misses
            if lookups:
                if self._g_hit_rate is None:
                    self._g_hit_rate = m.gauge(
                        "health.route_cache_hit_rate")
                self._g_hit_rate.set(stats.hits / lookups, ts_s=now)

        # opt-in incremental-vs-oracle drift spot check
        if (cfg.drift_check_every > 0
                and self._acted % cfg.drift_check_every == 0):
            oracle_drift = getattr(sim, "oracle_drift", None)
            if oracle_drift is not None:
                drift = oracle_drift()
                m.gauge("health.solver_drift").set(drift, ts_s=now)
                self._drift.observe(now, "solver", drift)

    # -- fleet samples -------------------------------------------------
    def sample_fleet(self, now: float, running: int, queued: int) -> None:
        if self._suspend_depth:
            return
        m = self._recorder.metrics
        m.gauge("health.fleet_running").set(running, ts_s=now)
        m.gauge("health.fleet_queue").set(queued, ts_s=now)

    def observe_fleet_snapshot(self, now: float,
                               snapshot: Mapping[str, Any],
                               index: Optional[int] = None) -> None:
        """Judge one fleet interference snapshot (worst job slowdown)."""
        if self._suspend_depth:
            return
        backend = snapshot.get("backend") or {}
        per_job = backend.get("per_job") or []
        worst_job, worst = None, 0.0
        for entry in per_job:
            slowdown = float(entry.get("slowdown", 0.0))
            if slowdown > worst:
                worst, worst_job = slowdown, f"job{entry['job_id']}"
        if worst_job is None:
            return
        self._recorder.metrics.gauge(
            "health.fleet_slowdown", job=worst_job).set(worst, ts_s=now)
        # no snapshot_index: the incident must match what replay can
        # reconstruct from the gauge samples alone
        self._interference.observe_snapshot(now, worst_job, worst)

    # -- topology metadata ---------------------------------------------
    def _meta(self, topo, dirlink: int) -> tuple:
        """(tier, plane, label, uplink-tor) for one directed link."""
        meta = self._link_meta.get(dirlink)
        if meta is None:
            link = topo.links[dirlink // 2]
            a, b = link.a.node, link.b.node
            if dirlink % 2:
                a, b = b, a
            sa = topo.switches.get(a)
            sb = topo.switches.get(b)
            tier = topo.link_tier(link.link_id)
            plane = None
            for sw in (sa, sb):
                if sw is not None and sw.plane is not None:
                    plane = str(sw.plane)
                    break
            tor = None
            if (sa is not None and sb is not None
                    and getattr(sa, "is_tor", False) and sb.tier == 2):
                tor = a
            meta = (tier, plane, f"{a}->{b}", tor)
            self._link_meta[dirlink] = meta
        return meta


def _tor_uplink_counts(topo) -> Dict[str, int]:
    """Uplink (ToR -> tier-2) port count per ToR, from the wiring."""
    counts: Dict[str, int] = {}
    for link in topo.links.values():
        sa = topo.switches.get(link.a.node)
        sb = topo.switches.get(link.b.node)
        if sa is None or sb is None:
            continue
        if getattr(sa, "is_tor", False) and sb.tier == 2:
            counts[link.a.node] = counts.get(link.a.node, 0) + 1
        elif getattr(sb, "is_tor", False) and sa.tier == 2:
            counts[link.b.node] = counts.get(link.b.node, 0) + 1
    return counts
