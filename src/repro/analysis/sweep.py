"""Design-space sweeps over architecture parameters.

The paper fixes its design points (60 aggs/plane, 15:1 core
oversubscription) from operational constraints; the sweep utilities let
a user re-derive those choices: vary one knob, rebuild the fabric, and
measure the consequences (pod size, cost, path diversity, cross-pod
bandwidth per GPU).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence

from ..core.topology import Topology
from ..hardware.cost import network_cost
from ..topos.hpn import build_hpn
from ..topos.spec import HpnSpec, TOR_UP_GBPS


@dataclass
class SweepPoint:
    """One evaluated design point."""

    value: float
    gpus_per_pod: int
    tor_oversubscription: float
    agg_core_oversubscription: float
    path_diversity: int
    relative_cost: float
    cross_pod_gbps_per_gpu: float
    #: independent aggregation switches per plane -- the fault domains a
    #: single switch failure can take out of the disjoint-path pool
    agg_fault_domains: int = 0


def evaluate_point(spec: HpnSpec, value: float,
                   build: bool = False) -> SweepPoint:
    """Evaluate one design point (optionally building the full fabric).

    Pure in (spec, value, build) -- this is the unit of work the
    experiment engine parallelizes, so it must not read or mutate any
    shared state.
    """
    topo: Optional[Topology] = build_hpn(spec) if build else None
    cost = network_cost(topo) if topo is not None else float("nan")
    core_up = spec.aggs_per_plane * spec.agg_core_uplinks * 2 * TOR_UP_GBPS
    cross_bw = core_up / spec.gpus_per_pod if spec.agg_core_uplinks else 0.0
    return SweepPoint(
        value=value,
        gpus_per_pod=spec.gpus_per_pod,
        tor_oversubscription=spec.tor_oversubscription,
        agg_core_oversubscription=spec.agg_core_oversubscription,
        path_diversity=spec.tor_uplinks,
        relative_cost=cost,
        cross_pod_gbps_per_gpu=cross_bw,
        agg_fault_domains=spec.aggs_per_plane,
    )


def oversubscription_spec(base: HpnSpec, uplinks: int) -> HpnSpec:
    """The derived spec for one agg->core uplink count (§7 trade-off).

    More uplinks = more cross-pod bandwidth but fewer ports left for
    segments: each extra uplink costs one downlink, shrinking the pod.
    """
    # a 128-port agg chip: down + up = 128 at 400G
    downlinks = 128 - uplinks
    segments = max(1, downlinks // (base.rails * base.tor_agg_links))
    return replace(
        base,
        agg_core_uplinks=uplinks,
        segments_per_pod=segments,
        cores_per_plane=0,
    )


def aggs_per_plane_spec(base: HpnSpec, count: int) -> HpnSpec:
    """The derived spec for one plane-width value (fault-domain knob)."""
    links = max(1, 60 // count)
    return replace(base, aggs_per_plane=count, tor_agg_links=links,
                   agg_core_uplinks=0, cores_per_plane=0, pods=1)


#: sweepable knobs: name -> (spec derivation, default value list)
SWEEP_KNOBS = {
    "oversubscription": (oversubscription_spec, (4, 8, 16, 30, 60)),
    "aggs-per-plane": (aggs_per_plane_spec, (15, 30, 60)),
}


def sweep_oversubscription(
    base: HpnSpec = HpnSpec(),
    uplink_counts: Sequence[int] = (4, 8, 16, 30, 60),
    build: bool = False,
) -> List[SweepPoint]:
    """Vary the agg->core uplink count (the §7 trade-off).

    More uplinks = more cross-pod bandwidth but fewer ports left for
    segments: each extra uplink costs one downlink, shrinking the pod.
    """
    return [
        evaluate_point(oversubscription_spec(base, uplinks),
                       float(uplinks), build)
        for uplinks in uplink_counts
    ]


def sweep_aggs_per_plane(
    base: HpnSpec = HpnSpec(),
    counts: Sequence[int] = (15, 30, 60),
    build: bool = False,
) -> List[SweepPoint]:
    """Vary plane width: fault domains vs switch count.

    The ToR's 60 x 400G uplink budget is fixed, so the link-disjoint
    path pool stays 60 regardless; what narrows with fewer aggs is the
    number of independent *fault domains* -- one agg failure removes
    ``tor_agg_links`` paths at once instead of one (the paper's "59
    surviving aggs keep balancing" property).
    """
    return [
        evaluate_point(aggs_per_plane_spec(base, count), float(count), build)
        for count in counts
    ]


def run_sweep(
    knob: str,
    values: Optional[Sequence[int]] = None,
    build: bool = False,
    runner: Optional[object] = None,
    base_seed: int = 0,
) -> List[SweepPoint]:
    """Execute a design sweep through the experiment engine.

    Each design point becomes one cached, seeded experiment
    (``sweep.<knob>``), fanned out by the runner's backend -- pass a
    ``repro.engine.Runner(backend="process")`` to evaluate points
    across cores; the default is a plain serial engine run. Results
    are identical to :func:`sweep_oversubscription` /
    :func:`sweep_aggs_per_plane` on the same values.
    """
    from ..engine import Runner, specs_for_grid

    if knob not in SWEEP_KNOBS:
        known = ", ".join(sorted(SWEEP_KNOBS))
        raise ValueError(f"unknown sweep knob {knob!r} (known: {known})")
    if values is None:
        values = SWEEP_KNOBS[knob][1]
    engine_runner = runner if runner is not None else Runner()
    specs = specs_for_grid(
        f"sweep.{knob}",
        {"value": list(values)},
        base_seed=base_seed,
        fixed={"build": build},
    )
    result = engine_runner.run(specs)  # type: ignore[attr-defined]
    points = []
    for payload in result.payloads:
        data = dict(payload)
        if data.get("relative_cost") is None:  # JSON has no NaN
            data["relative_cost"] = float("nan")
        points.append(SweepPoint(**data))
    return points


def knee_point(points: List[SweepPoint],
               metric: Callable[[SweepPoint], float]) -> SweepPoint:
    """The point after which the metric's marginal gain halves --
    a simple knee heuristic for picking a design value."""
    if not points:
        raise ValueError("empty sweep")
    if len(points) < 3:
        return points[-1]
    best = points[0]
    prev_gain = None
    for a, b in zip(points, points[1:]):
        gain = metric(b) - metric(a)
        if prev_gain is not None and prev_gain > 0 and gain < prev_gain / 2:
            return a
        prev_gain = gain
        best = b
    return best
