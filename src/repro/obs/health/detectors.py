"""Streaming detectors: rules over sampled series that emit incidents.

Each detector is a small state machine fed by the
:class:`~repro.obs.health.samplers.SamplerHub` (live) or by
:func:`~repro.obs.health.engine.replay` (from recorded ``health.*``
series). The streak-based rules (hotspot, polarization, solver drift)
open a streak when a value crosses the rule threshold, extend it while
samples stay above, and emit one :class:`Incident` when it closes --
provided it lasted the rule's minimum duration. Scan-based rules
(failover SLO) walk the finished event log once at finalize time.

Determinism: a detector's output is a pure function of the sample
sequence it is fed; all internal iteration is over sorted keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from .incidents import (
    ERROR,
    RULE_FAILOVER_SLO,
    RULE_HOTSPOT,
    RULE_INTERFERENCE,
    RULE_POLARIZATION,
    RULE_SOLVER_DRIFT,
    WARNING,
    Incident,
)

#: detector emit callback: receives each finished incident
EmitFn = Callable[[Incident], None]


@dataclass
class HealthConfig:
    """Tunable thresholds for every rule (shared, mutable by design).

    The engine hands the *same* config object to the hub and every
    detector, so post-construction tweaks (``engine.configure(...)``)
    are seen everywhere.
    """

    #: hub decimation: act on every Nth fluid sample (1 = every solve)
    sample_every: int = 8
    #: hotspot: sustained utilization at/above this fraction ...
    hotspot_util: float = 0.98
    #: ... for at least this many sim-seconds
    hotspot_min_s: float = 1.0
    #: polarization: max ECMP-member flow share at/above this ...
    polarization_share: float = 0.75
    #: ... for at least this many sim-seconds
    polarization_min_s: float = 0.5
    #: polarization qualifiers: the ToR must have >= this many usable
    #: uplinks and >= this many flows across them, else spread is
    #: reported as 0 (imbalance over one member or two flows is noise)
    polarization_min_links: int = 2
    polarization_min_flows: int = 4
    #: dual-ToR failover SLO: fail->converged spans longer than this
    failover_slo_s: float = 0.5
    #: solver drift watchdog: oracle spot-check every Nth *acted-on*
    #: fluid sample; 0 disables (full re-solves are ~50x the
    #: incremental cost, so this cannot fit the <5% overhead gate --
    #: enable explicitly on small workloads / in scenarios)
    drift_check_every: int = 0
    #: max |incremental - oracle| rate (Gbps) before drift is an ERROR
    drift_tolerance_gbps: float = 1e-6
    #: fleet interference: slowdown-vs-alone budget
    interference_budget: float = 1.5


@dataclass
class _Streak:
    start_s: float
    last_s: float
    peak: float
    samples: int = 1


class StreakDetector:
    """Base: per-subject above-threshold streak tracking."""

    rule = "health.streak"
    severity = WARNING

    def __init__(self, config: HealthConfig, emit: EmitFn):
        self.config = config
        self._emit = emit
        self._open: Dict[str, _Streak] = {}

    # subclass knobs ---------------------------------------------------
    def threshold(self) -> float:
        raise NotImplementedError

    def min_duration_s(self) -> float:
        return 0.0

    def message(self, subject: str, streak: _Streak) -> str:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def open_subjects(self) -> List[str]:
        """Subjects with an open streak, sorted."""
        return sorted(self._open)

    def observe(self, now: float, subject: str, value: float) -> None:
        streak = self._open.get(subject)
        if value >= self.threshold():
            if streak is None:
                self._open[subject] = _Streak(now, now, value)
            else:
                streak.last_s = now
                streak.peak = max(streak.peak, value)
                streak.samples += 1
        elif streak is not None:
            del self._open[subject]
            self._close(subject, streak, now)

    def observe_run(self, start_s: float, last_s: float, subject: str,
                    value: float, samples: int) -> None:
        """``samples`` observations of one above-threshold ``value``,
        the first at ``start_s`` and the last at ``last_s``, in one
        step: the streak :meth:`observe` would leave."""
        streak = self._open.get(subject)
        if streak is None:
            self._open[subject] = _Streak(start_s, last_s, value, samples)
        else:
            streak.last_s = last_s
            streak.peak = max(streak.peak, value)
            streak.samples += samples

    def close_all(self, now: float) -> None:
        """End of timeline: flush every open streak as if it cleared."""
        for subject in sorted(self._open):
            streak = self._open.pop(subject)
            self._close(subject, streak, max(now, streak.last_s))

    def _close(self, subject: str, streak: _Streak, end_s: float) -> None:
        if end_s - streak.start_s < self.min_duration_s():
            return
        self._emit(Incident(
            rule=self.rule,
            severity=self.severity,
            subject=subject,
            start_s=streak.start_s,
            end_s=end_s,
            message=self.message(subject, streak),
            data={"peak": streak.peak, "samples": streak.samples},
        ))


class HotspotDetector(StreakDetector):
    """Sustained near-saturation of one directed link.

    Every max-min bottleneck sits at 100% *momentarily*; a hotspot is a
    link that stays there for :attr:`HealthConfig.hotspot_min_s`.
    """

    rule = RULE_HOTSPOT
    severity = WARNING

    def threshold(self) -> float:
        return self.config.hotspot_util

    def min_duration_s(self) -> float:
        return self.config.hotspot_min_s

    def message(self, subject: str, streak: _Streak) -> str:
        return (f"utilization >= {self.config.hotspot_util:.0%} "
                f"for {streak.last_s - streak.start_s:.3f}s+ "
                f"(peak {streak.peak:.3f})")


class PolarizationDetector(StreakDetector):
    """ECMP polarization: one uplink member hogging a ToR's flows.

    Fed the max member share of each ToR's uplink ECMP group (the same
    statistic ``analysis/polarization.path_concentration`` computes
    offline); unqualified groups (too few uplinks or flows) are fed 0.
    """

    rule = RULE_POLARIZATION
    severity = WARNING

    def threshold(self) -> float:
        return self.config.polarization_share

    def min_duration_s(self) -> float:
        return self.config.polarization_min_s

    def message(self, subject: str, streak: _Streak) -> str:
        return (f"max uplink member share {streak.peak:.2f} >= "
                f"{self.config.polarization_share:.2f} for "
                f"{streak.last_s - streak.start_s:.3f}s+")


class SolverDriftDetector(StreakDetector):
    """Incremental solver drifting from the from-scratch oracle."""

    rule = RULE_SOLVER_DRIFT
    severity = ERROR

    def threshold(self) -> float:
        return self.config.drift_tolerance_gbps

    def message(self, subject: str, streak: _Streak) -> str:
        return (f"incremental vs oracle rate drift "
                f"{streak.peak:.3g} Gbps > "
                f"{self.config.drift_tolerance_gbps:.3g} Gbps")


class InterferenceDetector:
    """Fleet interference regression: snapshot slowdown above budget."""

    rule = RULE_INTERFERENCE
    severity = WARNING

    def __init__(self, config: HealthConfig, emit: EmitFn):
        self.config = config
        self._emit = emit

    def observe_snapshot(self, now: float, job: str, slowdown: float,
                         snapshot_index: Optional[int] = None) -> None:
        if slowdown <= self.config.interference_budget:
            return
        data = {"slowdown": slowdown,
                "budget": self.config.interference_budget}
        if snapshot_index is not None:
            data["snapshot"] = snapshot_index
        self._emit(Incident(
            rule=self.rule,
            severity=self.severity,
            subject=job,
            start_s=now,
            end_s=now,
            message=(f"slowdown {slowdown:.2f}x exceeds budget "
                     f"{self.config.interference_budget:.2f}x"),
            data=data,
        ))


class FailoverSloDetector:
    """Dual-ToR failover SLO: fail->converged spans over budget.

    Scan-based: walks the finished event log once (``finalize``) for
    ``failover``-track spans -- ``bgp.blackhole`` from
    :class:`~repro.access.bgp.FailoverTimeline` and
    ``failover.convergence`` from the reliability injector -- and flags
    any whose duration exceeds :attr:`HealthConfig.failover_slo_s`.
    """

    rule = RULE_FAILOVER_SLO
    severity = ERROR

    #: span names that represent a fail->converged window
    SPAN_NAMES = ("bgp.blackhole", "failover.convergence")

    def __init__(self, config: HealthConfig, emit: EmitFn):
        self.config = config
        self._emit = emit

    def _subject(self, event) -> str:
        args = event.args or {}
        for key in ("link_id", "link", "node"):
            if key in args:
                return f"{key}={args[key]}"
        return event.name

    def scan_events(self, events: Iterable) -> None:
        slo = self.config.failover_slo_s
        for event in events:
            if event.track != "failover" or event.phase != "span":
                continue
            if event.name not in self.SPAN_NAMES:
                continue
            if event.dur_s <= slo:
                continue
            self._emit(Incident(
                rule=self.rule,
                severity=self.severity,
                subject=self._subject(event),
                start_s=event.ts_s,
                end_s=event.end_s,
                message=(f"{event.name} took {event.dur_s:.3f}s "
                         f"(SLO {slo:.3f}s)"),
                data={"span": event.name, "dur_s": event.dur_s},
            ))
