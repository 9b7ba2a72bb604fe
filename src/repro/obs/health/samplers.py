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

The work follows the dirty set. The hub diffs the live links'
utilization and flow counts against its copies from the previous
acted sample, and updates its per-tier, per-plane and per-ToR
membership for the changed links only. A hot link whose value
has not changed is one *run*: its ``health.link_util`` samples and
hotspot-streak updates are written in one step when the value changes
or the link cools, when a new clock starts, at :meth:`flush_streaks`
and when ``FluidSimulator.run()`` returns (:meth:`flush_runs`). So the
registry and the detectors are complete whenever no ``run()`` is in
progress, and hold the bytes one write per sample would have left.
The hub keeps its own set of hot links, so it is the hotspot
detector's only live feed.

Everything the detectors consume is *also* recorded as sparse
``health.*`` gauge samples, which is what makes trace-dir replay
(:func:`repro.obs.health.engine.replay`) reproduce the live verdicts.

The hub never imports fabric/routing/fleet -- it duck-types over the
simulator (``sim.now``, ``sim.topo``, ``sim.oracle_drift``) so the
dependency points from the simulation layers *into* obs, not back.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, insort
from contextlib import contextmanager
from functools import reduce
from itertools import repeat
from typing import Any, Dict, Iterator, List, Mapping, Optional, Set, Tuple

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


def _bucket(util: float) -> int:
    """``Histogram.observe``'s bucket index for ``util``."""
    if util != util:  # NaN lands in the overflow bucket
        return len(FRACTION_BUCKETS)
    return bisect_left(FRACTION_BUCKETS, util)


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
        # the previous acted sample's live links, and their membership:
        # per tier the live dirlinks, sorted (the histogram's fold
        # order), and a count per FRACTION_BUCKETS bucket; per plane
        # and per ToR's uplinks (dirlink -> flow count) the live ones.
        # Per label every dirlink seen, sorted: parallel links share a
        # label, and the highest live one's value is the label's.
        self._utils: Dict[int, float] = {}
        self._counts: Dict[int, int] = {}
        self._tiers: Dict[str, tuple] = {}
        self._plane_live: Dict[str, Set[int]] = {}
        self._tor_live: Dict[str, Dict[int, int]] = {}
        self._label_dls: Dict[str, List[int]] = {}
        # hot links as runs: label -> [first index into _ticks of the
        # samples not yet written, value, gauge]; _ticks holds the
        # timestamp of each acted sample since the runs were written
        self._runs: Dict[str, list] = {}
        self._ticks: List[float] = []
        # value -> [first index, its (tick, value) sample pairs from
        # there on]: runs of one value share the pair of each sample
        self._pairs: Dict[float, list] = {}
        #: the hotspot threshold the runs were cut at; None once the
        #: runs are closed, so every hot link starts a new one
        self._run_util: Optional[float] = None
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
        self.flush_runs()
        self._runs.clear()
        self._run_util = None
        self._hotspot.close_all(now)
        self._polarization.close_all(now)
        self._drift.close_all(now)

    def flush_runs(self) -> None:
        """Write every hot link's samples not yet written.

        ``FluidSimulator.run()`` calls this as it returns. A run stays
        open: it goes on from the next acted sample.
        """
        end = len(self._ticks)
        for label, run in self._runs.items():
            self._write_run(label, run, end)
            run[0] = 0
        self._ticks.clear()
        self._pairs.clear()

    def _write_run(self, label: str, run: list, end: int) -> None:
        """Write samples ``run[0]:end`` of a hot link's run in one step:
        what one ``Gauge.set`` and one ``HotspotDetector.observe`` per
        sample would leave."""
        start, util, gauge = run
        if end > start:
            ticks = self._ticks
            gauge.samples.extend(self._run_samples(start, end, util))
            gauge.value = util
            self._hotspot.observe_run(
                ticks[start], ticks[end - 1], label, util, end - start)

    def _run_samples(self, start: int, end: int,
                     util: float) -> List[Tuple[float, float]]:
        """The ``(tick, util)`` samples ``start:end``. Runs of one value
        share one pair per sample (hot links often share a value, and
        equal utilizations print alike: none is -0.0), so a pair is
        built once, and only for samples some run covers."""
        ticks = self._ticks
        entry = self._pairs.get(util)
        if entry is None or start > entry[0] + len(entry[1]):
            pairs = list(zip(ticks[start:end], repeat(util)))
            self._pairs[util] = [start, pairs]
            return pairs
        first, pairs = entry
        if start < first:
            pairs[0:0] = zip(ticks[start:first], repeat(util))
            entry[0] = first = start
        if end > first + len(pairs):
            pairs.extend(zip(ticks[first + len(pairs):end], repeat(util)))
        return pairs[start - first:end - first]

    # -- fluid fabric samples ------------------------------------------
    def sample_fluid(self, sim, utils: Mapping[int, float],
                     counts: Mapping[int, int]) -> None:
        """One acted-on sample of a fluid simulator's link state.

        ``utils`` maps every live directed link (carrying a flow, with
        capacity) to its utilization, load over capacity; ``counts``
        maps the same links to the number of active flows crossing
        them. The hub keeps copies of both from the previous acted
        sample, so a sample costs O(links changed since then), plus
        one C pass over each tier's and plane's live links, plus
        O(tiers + planes + ToRs).
        """
        now = sim.now
        self._advance_timeline(now)
        self._acted += 1
        self._m_samples.inc()
        ticks = self._ticks
        if not self._runs:
            ticks.clear()
            self._pairs.clear()
        ticks.append(now)
        labels = self._update_links(sim.topo, utils, counts)
        self._record_distributions(now, utils)
        self._sample_hot_links(now, labels, utils)
        cfg = self.config
        m = self._recorder.metrics

        # polarization: ECMP spread per ToR uplink group
        tor_live = self._tor_live
        tors = {tor for tor, group in tor_live.items() if group}
        tors.update(self._polarization.open_subjects())
        for tor in sorted(tors):
            group = tor_live.get(tor, {})
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

    def _record_distributions(self, now: float,
                              utils: Mapping[int, float]) -> None:
        """Per-tier utilization histograms and per-plane peaks: one C
        pass over each tier's and plane's live links."""
        m = self._recorder.metrics
        h_frac = self._h_frac
        for tier, (live, buckets) in self._tiers.items():
            if not live:
                continue
            hist = h_frac.get(tier)
            if hist is None:
                hist = h_frac[tier] = m.histogram(
                    "health.link_util_frac",
                    buckets=FRACTION_BUCKETS, tier=tier)
            values = list(map(utils.__getitem__, live))
            hist.count += len(values)
            # a left fold in dirlink order, as per-link observe() did
            # (sum() would round differently since CPython 3.12)
            hist.total = reduce(operator.add, values, hist.total)
            low = min(values)
            if low < hist.min_value:
                hist.min_value = low
            high = max(values)
            if high > hist.max_value:
                hist.max_value = high
            bucket_counts = hist.bucket_counts
            bucket_counts[:] = map(operator.add, bucket_counts, buckets)
        for plane, live in sorted(self._plane_live.items()):
            if not live:
                continue
            peak = max(map(utils.__getitem__, live))
            if peak > 0.0:
                g = self._g_plane.get(plane)
                if g is None:
                    g = self._g_plane[plane] = m.gauge(
                        "health.plane_util", plane=plane)
                g.set(peak, ts_s=now)

    def _sample_hot_links(self, now: float, labels: Set[str],
                          utils: Mapping[int, float]) -> None:
        """Hotspot: hot links now, plus open streaks (to observe
        cooling). Only the ``labels`` whose links moved can start, end
        or cut a run, unless the threshold moved or the runs were
        closed."""
        runs = self._runs
        k = len(self._ticks) - 1  # this sample's index
        threshold = self.config.hotspot_util
        if threshold != self._run_util:
            self._run_util = threshold
            link_meta = self._link_meta
            labels.update(link_meta[dl][0] for dl in utils)
            labels.update(runs)
        label_dls = self._label_dls
        for label in sorted(labels):
            util = None
            for dl in reversed(label_dls.get(label, ())):
                util = utils.get(dl)
                if util is not None:
                    break
            live = util is not None
            if not live:
                util = 0.0
            run = runs.get(label)
            if run is None:
                if live and util >= threshold:
                    g = self._g_link.get(label)
                    if g is None:
                        g = self._g_link[label] = (
                            self._recorder.metrics.gauge(
                                "health.link_util", link=label))
                    runs[label] = [k, util, g]
                continue
            if util == run[1] and util >= threshold:
                continue
            self._write_run(label, run, k)
            if util >= threshold:
                run[0] = k
                run[1] = util
            else:
                del runs[label]
                run[2].set(util, ts_s=now)
                self._hotspot.observe(now, label, util)

    def _update_links(self, topo, utils: Mapping[int, float],
                      counts: Mapping[int, int]) -> Set[str]:
        """Bring the membership up to this sample's live links; return
        the labels of the links whose utilization moved, plus those of
        every open run when the topology changed."""
        prev_utils, prev_counts = self._utils, self._counts
        if topo is not self._meta_topo:
            # a new topology: every link of the old one is gone
            labels = set(self._runs)
            self._meta_topo = topo
            self._link_meta.clear()
            self._tor_uplinks = _tor_uplink_counts(topo)
            for members in (self._tiers, self._plane_live,
                            self._tor_live, self._label_dls):
                members.clear()
            prev_utils, prev_counts = {}, {}
        else:
            labels = set()
        changed = {dl for dl, _ in utils.items() ^ prev_utils.items()}
        changed.update(dl for dl, _ in counts.items() ^ prev_counts.items())
        self._utils = dict(utils)
        self._counts = dict(counts)
        link_meta = self._link_meta
        for dl in changed:
            old = prev_utils.get(dl)
            new = utils.get(dl)
            if old is None and new is None:
                continue  # a flow count on a link without capacity
            meta = link_meta.get(dl)
            if meta is None:
                meta = self._meta(topo, dl)
            label, live, buckets, plane_live, tor_live = meta
            if old is None:
                insort(live, dl)
                buckets[_bucket(new)] += 1
                if plane_live is not None:
                    plane_live.add(dl)
                labels.add(label)
            elif new is None:
                del live[bisect_left(live, dl)]
                buckets[_bucket(old)] -= 1
                if plane_live is not None:
                    plane_live.discard(dl)
                if tor_live is not None:
                    del tor_live[dl]
                labels.add(label)
                continue
            elif old != new:
                buckets[_bucket(old)] -= 1
                buckets[_bucket(new)] += 1
                labels.add(label)
            if tor_live is not None:
                tor_live[dl] = counts[dl]
        return labels

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
        """One directed link's label and live-membership containers:
        ``(label, tier's sorted live dirlinks, tier's bucket counts,
        plane's live set or None, uplink ToR's live counts or None)``.
        """
        meta = self._link_meta.get(dirlink)
        if meta is None:
            link = topo.links[dirlink // 2]
            a, b = link.a.node, link.b.node
            if dirlink % 2:
                a, b = b, a
            sa = topo.switches.get(a)
            sb = topo.switches.get(b)
            tier = topo.link_tier(link.link_id)
            members = self._tiers.get(tier)
            if members is None:
                members = self._tiers[tier] = (
                    [], [0] * (len(FRACTION_BUCKETS) + 1))
            plane_live = None
            for sw in (sa, sb):
                if sw is not None and sw.plane is not None:
                    plane_live = self._plane_live.setdefault(
                        str(sw.plane), set())
                    break
            tor_live = None
            if (sa is not None and sb is not None
                    and getattr(sa, "is_tor", False) and sb.tier == 2):
                tor_live = self._tor_live.setdefault(a, {})
            label = f"{a}->{b}"
            insort(self._label_dls.setdefault(label, []), dirlink)
            meta = (label, *members, plane_live, tor_live)
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
