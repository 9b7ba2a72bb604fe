"""Section 6: one Pod of 15,360 GPUs behind the dual-plane tier 2.

The paper's headline scale is 15 segments x 128 hosts x 8 rails in
one Pod, every segment reaching every other through two physically
disjoint aggregation planes. The bench builds that Pod, drives a
pod-wide inter-segment AllReduce ring per rail (hosts interleaved
across segments, so every ring edge crosses tier 2), fails and
repairs one access link inside a 2 ms window, and shows:

* the rate engine simulates the window at full scale, because planes
  and rails split the 15,360 flows into thousands of independent
  component fills;
* at the window's end the committed rates equal an oracle max-min
  solve of each connected component to 1e-9.
"""

from conftest import report

from repro.fabric import FluidSimulator, SolverEquivalence
from repro.workloads.reference import POD_DEFAULTS, build_pod_workload


def _run_window(topo, flows, events, until):
    sim = FluidSimulator(topo)
    sim.add_flows(flows)
    for t, lid, up in events:
        sim.schedule(t, lambda s, l=lid, u=up: s.topo.set_link_state(l, u))
    sim.run(until=until)
    return sim


def test_sec6_full_pod_window(benchmark):
    params = dict(POD_DEFAULTS)
    topo, flows, events, meta = build_pod_workload(params, 42)
    sim = benchmark.pedantic(
        _run_window, args=(topo, flows, events, params["window_s"]),
        rounds=1, iterations=1,
    )
    drift = SolverEquivalence().component_drift(sim)
    report(
        "§6 one Pod behind the dual-plane tier 2",
        [
            f"GPUs             {meta['gpus']}"
            f" ({meta['segments']} segments, {meta['hosts']} hosts,"
            f" {meta['rails']} rails, {meta['links']} links)",
            f"flows            {len(flows)}",
            f"window           {params['window_s'] * 1e3:.1f} ms,"
            f" access link down {events[0][0] * 1e3:.2f}-"
            f"{events[1][0] * 1e3:.2f} ms",
            f"components       {drift.solves_checked}"
            f" ({drift.flows_checked} active flows checked)",
            f"oracle drift     {drift.max_rate_err:.3e} Gbps (tol 1e-9)",
        ],
    )
    assert meta["gpus"] == 15360
    assert len(flows) >= 15000
    assert drift.ok, drift.failures[:3]
    assert drift.flows_checked > 0
    assert drift.max_rate_err <= 1e-9
