"""The four benchmark workloads: inputs from a seed, timed work, checks.

Each ``run_<workload>(seed, phases)`` builds its inputs, times its
set-up and its timed work, checks the program's outputs, and returns a
JSON-safe dict:

* ``setup_s`` / ``run_s`` -- wall seconds of set-up and timed work;
* ``attempted`` / ``failed`` / ``errors`` -- outputs checked, outputs
  that disagreed with the reference, and why;
* ``layer`` -- counts and ratios read from the program's public result
  objects (``RouteStats``, ``MicroBatcher`` stats, health report...);
* ``extra`` -- workload-specific measurements (serve latencies, the
  recorder-off run of ``health``...).

``phases`` receives ``name -> (start, end)`` perf-counter windows, so
the traced repetition can split its spans into set-up and run.
Workload sizes are constants here: every run of a workload does the
same work, whatever the speed of the code.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro import Cluster, DcnPlusSpec, HpnSpec
from repro.fabric import FluidSimulator, max_min_rates
from repro.obs import HealthEngine, Recorder
from repro.serve import Query, ServeClient, ServeState
from repro.training import GPT3_175B, ParallelismPlan

clock = time.perf_counter

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

#: fig15 and health map their seed onto one of this many recorded
#: input variants, so every seed is checked against recorded outputs
VARIANTS = 8

#: relative agreement required of rates, times and throughputs
TOL = 1e-9

Phases = Dict[str, Tuple[float, float]]


def load_expected() -> Dict[str, Any]:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """VmHWM (peak resident set) of a process, in MB."""
    status = f"/proc/{pid or 'self'}/status"
    with open(status) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {status}")


def cluster_counters(clusters: Sequence[Any]) -> Dict[str, float]:
    """Route-cache counters and link-state log length, summed."""
    stats = [c.router.stats for c in clusters]
    hits = sum(s.hits for s in stats)
    misses = sum(s.misses for s in stats)
    return {
        "routing.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "routing.cache.misses": misses,
        "routing.cache.invalidations": sum(s.invalidations for s in stats),
        "core.state_log_len": sum(len(c.topo.link_state_changes(0))
                                  for c in clusters),
    }


def oracle_check(sim: Any, label: str) -> Tuple[int, List[str]]:
    """Committed rates vs ``max_min_rates`` per connected component.

    Components are found here (union-find over the active flows'
    directed links), independently of the solver's own index. Returns
    (flows checked, error messages).
    """
    flows = sim.active_flows
    parent: Dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != root:
            parent[x], x = root, parent[x]
        return root

    for f in flows:
        first = find(f.path.dirlinks[0])
        for dl in f.path.dirlinks[1:]:
            other = find(dl)
            if other != first:
                parent[other] = first
    comps: Dict[int, List[Any]] = {}
    for f in flows:
        comps.setdefault(find(f.path.dirlinks[0]), []).append(f)
    errors = []
    for comp in comps.values():
        oracle = max_min_rates(comp, sim.link_gbps)
        for f in comp:
            if abs(oracle[f.flow_id] - f.rate_gbps) > TOL:
                errors.append(
                    f"{label}: flow {f.flow_id} ({f.tag}) committed "
                    f"{f.rate_gbps!r} Gbps, oracle {oracle[f.flow_id]!r}")
    return len(flows), errors


def schedule_flap(sim: Any, link_id: int, fail_s: float, repair_s: float) -> None:
    sim.schedule(fail_s, lambda s: s.topo.set_link_state(link_id, False))
    sim.schedule(repair_s, lambda s: s.topo.set_link_state(link_id, True))


def jitter_sizes(flows: Sequence[Any], rng: random.Random, frac: float) -> None:
    for f in flows:
        f.size_bytes *= 1.0 + rng.uniform(-frac, frac)
        f.reset()


# ======================================================================
# fig15: Fig. 15a's job, one iteration on HPN and one on DCN+
# ======================================================================
FIG15_DP = 4                   # cut from the paper's 36
#: free HPN hosts per segment (the paper's 128-host segments, the rest
#: held by other tenants): the DP4 job still spans 3 segments, so its
#: DP rings cross the aggregation layer as at paper scale
FIG15_FREE_PER_SEGMENT = (11, 11, 10)
FIG15_MICROBATCHES = 24
FIG15_DCN_SEGMENTS = 4
FIG15_DCN_CAP = 15             # fragmentation: <= 15 hosts per segment


def fig15_clusters(variant: int):
    """Both fabrics with other tenants' hosts held, and both jobs."""
    rng = random.Random(variant)
    plan = ParallelismPlan(tp=8, pp=8, dp=FIG15_DP)
    n = plan.num_hosts
    hpn = Cluster.hpn(HpnSpec(segments_per_pod=3, aggs_per_plane=60))
    segments = hpn.scheduler.free_hosts_by_segment().values()
    for hosts, free in zip(segments, FIG15_FREE_PER_SEGMENT):
        hpn.scheduler.occupied.update(rng.sample(hosts, len(hosts) - free))
    hpn_job = hpn.train(GPT3_175B, plan, hpn.place(n),
                        microbatches=FIG15_MICROBATCHES)

    dcn = Cluster.dcnplus(DcnPlusSpec(
        pods=1, segments_per_pod=FIG15_DCN_SEGMENTS, hosts_per_segment=16,
    ))
    for hosts in dcn.scheduler.free_hosts_by_segment().values():
        dcn.scheduler.occupied.update(rng.sample(hosts, rng.randint(1, 3)))
    dcn_hosts = dcn.place(n, max_hosts_per_segment=FIG15_DCN_CAP)
    dcn_job = dcn.train(GPT3_175B, plan, dcn_hosts,
                        microbatches=FIG15_MICROBATCHES)
    return (hpn, hpn_job), (dcn, dcn_job)


def fig15_outputs(job, it) -> Dict[str, Any]:
    return {
        "samples_per_sec": it.samples_per_sec,
        "dp_seconds": it.dp_seconds,
        "segments": job.segments_spanned(),
    }


def fig15_check(variant: int, outputs: Dict[str, Dict[str, Any]],
                expected: Dict[str, Any]) -> Dict[str, List[str]]:
    """Per fabric, where its iteration differs from the recorded one."""
    want = expected["fig15"].get(str(variant))
    errors: Dict[str, List[str]] = {}
    for fabric, got in outputs.items():
        if want is None:
            errors[fabric] = [f"fig15: no recorded outputs for variant {variant}"]
            continue
        ref = want[fabric]
        errors[fabric] = [
            f"fig15 {fabric} {key}: got {value!r}, recorded {ref[key]!r}"
            for key, value in got.items()
            if not (value == ref[key] if key == "segments"
                    else close(value, ref[key]))
        ]
    return errors


def run_fig15(seed: int, phases: Phases) -> Dict[str, Any]:
    variant = seed % VARIANTS
    t0 = clock()
    (hpn, hpn_job), (dcn, dcn_job) = fig15_clusters(variant)
    t1 = clock()
    gc.collect()
    t2 = clock()
    hpn_it = hpn_job.iteration()
    dcn_it = dcn_job.iteration()
    t3 = clock()
    rss = peak_rss_mb()
    phases.update(setup=(t0, t1), run=(t2, t3))
    outputs = {"hpn": fig15_outputs(hpn_job, hpn_it),
               "dcnplus": fig15_outputs(dcn_job, dcn_it)}
    errors = fig15_check(variant, outputs, load_expected())
    return {
        "setup_s": t1 - t0, "run_s": t3 - t2, "peak_rss_mb": rss,
        "attempted": len(outputs),
        "failed": sum(1 for errs in errors.values() if errs),
        "errors": [e for errs in errors.values() for e in errs],
        "layer": cluster_counters([hpn, dcn]),
        "extra": {"outputs": outputs, "variant": variant},
    }


# ======================================================================
# pod: the §6 Pod shape, one failure/repair window
# ======================================================================
POD_SEGMENTS = 15
POD_HOSTS_PER_SEGMENT = 16     # 128 in the paper
POD_AGGS_PER_PLANE = 60
POD_EDGE_BYTES = 64e6
POD_FAIL_S, POD_REPAIR_S, POD_WINDOW_S = 0.0005, 0.0012, 0.002


def pod_inputs(seed: int):
    rng = random.Random(seed)
    cluster = Cluster.hpn(HpnSpec(
        segments_per_pod=POD_SEGMENTS,
        hosts_per_segment=POD_HOSTS_PER_SEGMENT,
        backup_hosts_per_segment=0, aggs_per_plane=POD_AGGS_PER_PLANE,
    ))
    hosts = cluster.place(POD_SEGMENTS * POD_HOSTS_PER_SEGMENT, interleave=True)
    comm = cluster.communicator(hosts, num_conns=1)
    flows = comm.all_rails_ring_flows(POD_EDGE_BYTES, tag="pod/allreduce")
    jitter_sizes(flows, rng, 0.05)
    victim = flows[rng.randrange(len(flows))].path.dirlinks[0] // 2
    return cluster, flows, victim


def run_pod(seed: int, phases: Phases) -> Dict[str, Any]:
    t0 = clock()
    cluster, flows, victim = pod_inputs(seed)
    t1 = clock()
    gc.collect()
    t2 = clock()
    sim = FluidSimulator(cluster.topo)
    sim.add_flows(flows)
    schedule_flap(sim, victim, POD_FAIL_S, POD_REPAIR_S)
    sim.run(until=POD_WINDOW_S)
    t3 = clock()
    rss = peak_rss_mb()
    phases.update(setup=(t0, t1), run=(t2, t3))
    checked, errors = oracle_check(sim, "pod window edge")
    if not checked:
        errors.append("pod: no active flows at the window edge")
    return {
        "setup_s": t1 - t0, "run_s": t3 - t2, "peak_rss_mb": rss,
        "attempted": checked, "failed": len(errors) if checked else 1,
        "errors": errors,
        "layer": cluster_counters([cluster]),
        "extra": {"flows": len(flows), "victim_link": victim},
    }


# ======================================================================
# health: the monitored run `repro health` performs, simcore shape
# ======================================================================
HEALTH_HOSTS = 16
HEALTH_SEGMENTS = 2            # paper-size segments; the job takes 16 hosts
HEALTH_SEGMENT_HOSTS = 128     # of the first one
HEALTH_AGGS_PER_PLANE = 60
HEALTH_CONNS = 2
HEALTH_STEPS = 10
HEALTH_STEP_GAP_S = 0.004
HEALTH_EDGE_BYTES = 24e6
HEALTH_FAIL_S, HEALTH_REPAIR_S = 0.010, 0.025
HEALTH_PROBE_S = 4 * HEALTH_STEP_GAP_S + 0.0002  # mid-failure, mid-burst
#: streak minimums scaled to the ~36 ms simulated run (the defaults
#: are sized for second-long runs and would never fire here)
HEALTH_CONFIG = {"hotspot_min_s": HEALTH_STEP_GAP_S,
                 "polarization_min_s": HEALTH_STEP_GAP_S}


def health_inputs(variant: int):
    rng = random.Random(variant)
    cluster = Cluster.hpn(HpnSpec(
        segments_per_pod=HEALTH_SEGMENTS, hosts_per_segment=HEALTH_SEGMENT_HOSTS,
        backup_hosts_per_segment=0, aggs_per_plane=HEALTH_AGGS_PER_PLANE,
    ))
    comm = cluster.communicator(cluster.place(HEALTH_HOSTS),
                                num_conns=HEALTH_CONNS)
    flows: List[Any] = []
    for step in range(HEALTH_STEPS):
        batch = comm.all_rails_ring_flows(
            HEALTH_EDGE_BYTES, tag=f"health/step{step}",
            start_time=step * HEALTH_STEP_GAP_S)
        jitter_sizes(batch, rng, 0.05)
        flows.extend(batch)
    victim = flows[rng.randrange(len(flows))].path.dirlinks[0] // 2
    return cluster, flows, victim


def incidents_digest(report) -> str:
    body = json.dumps([inc.to_dict() for inc in report.incidents],
                      sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()


def run_health(seed: int, phases: Phases) -> Dict[str, Any]:
    variant = seed % VARIANTS
    t0 = clock()
    cluster, flows, victim = health_inputs(variant)
    t1 = clock()
    gc.collect()
    t2 = clock()
    rec = Recorder()
    engine = HealthEngine(rec).configure(**HEALTH_CONFIG).attach()
    sim = FluidSimulator(cluster.topo, recorder=rec)
    sim.add_flows(flows)
    schedule_flap(sim, victim, HEALTH_FAIL_S, HEALTH_REPAIR_S)
    monitored = sim.run()
    report = engine.finalize()
    t3 = clock()
    rss = peak_rss_mb()
    phases.update(setup=(t0, t1), run=(t2, t3))

    # the same flows without a recorder, split at a mid-failure probe
    # whose committed rates are checked against the oracle (untimed)
    for f in flows:
        f.reset()
    gc.collect()
    t4 = clock()
    bare = FluidSimulator(cluster.topo)
    bare.add_flows(flows)
    schedule_flap(bare, victim, HEALTH_FAIL_S, HEALTH_REPAIR_S)
    bare.run(until=HEALTH_PROBE_S)
    t5 = clock()
    checked, errors = oracle_check(bare, "health mid-failure probe")
    t6 = clock()
    unmonitored = bare.run()
    t7 = clock()
    off_s = (t5 - t4) + (t7 - t6)

    attempted = checked + 2
    if not checked:
        errors.append("health: no active flows at the mid-failure probe")
    drift = [fid for fid, t in monitored.flow_finish.items()
             if not close(t, unmonitored.flow_finish.get(fid, float("nan")))]
    if drift or len(monitored.flow_finish) != len(unmonitored.flow_finish):
        errors.append(f"health: {len(drift)} flows finish differently with "
                      "and without the recorder")
    want = load_expected()["health"].get(str(variant))
    digest = incidents_digest(report)
    if want is None or want["digest"] != digest:
        errors.append(f"health: incidents digest {digest} "
                      f"({len(report.incidents)} incidents) != recorded "
                      f"{want and want['digest']}")
    return {
        "setup_s": t1 - t0, "run_s": t3 - t2, "peak_rss_mb": rss,
        "attempted": attempted, "failed": len(errors), "errors": errors,
        "layer": dict(cluster_counters([cluster]),
                      **{"obs.incidents": len(report.incidents)}),
        "extra": {"recorder_on_s": t3 - t2, "recorder_off_s": off_s,
                  "variant": variant, "digest": digest,
                  "incidents": len(report.incidents)},
    }


# ======================================================================
# serve: `repro serve` in its own process, closed loop over loopback
# ======================================================================
SERVE_ARGS = ["serve", "--arch", "hpn", "--segments", "15", "--hosts", "8",
              "--backup-hosts", "0", "--aggs", "8", "--host", "127.0.0.1",
              "--port", "0"]
SERVE_CONNS = 2
SERVE_BATCH = 64               # the daemon's default max batch
SERVE_WARMUP = 24              # untimed requests
SERVE_TIMED = 600              # timed requests
#: query mix and pool shape: the defaults of the repository's own
#: ``bench.serve`` workload (``repro.serve.bench``): the rest are path
#: lookups, 2 source ports per host pair, 3 RePaC pairs
SERVE_PLANES, SERVE_REPAC, SERVE_RESIDUAL = 0.10, 0.03, 0.01
SERVE_SPORTS_PER_PAIR, SERVE_REPAC_PAIRS = 2, 3
#: host pairs in the path/planes pools: the one size calibrated here,
#: to put the daemon's live route-cache hit ratio near 90%
SERVE_PAIRS = 1000
SERVE_START_TIMEOUT_S = 60.0


def serve_topology():
    """The topology `repro serve` builds from :data:`SERVE_ARGS`."""
    return Cluster.hpn(HpnSpec(
        segments_per_pod=15, hosts_per_segment=8,
        backup_hosts_per_segment=0, aggs_per_plane=8,
    )).topo


def serve_requests(topo, seed: int) -> List[List[Any]]:
    """Warm-up plus timed requests, each a list of 64 queries.

    Path, planes and RePaC queries are drawn uniformly from seeded
    pools shaped as in ``bench.serve``; each residual what-if fails a
    link no earlier one failed.
    """
    rng = random.Random(seed)
    hosts = sorted(h.name for h in topo.active_hosts())
    rails = sorted({n.rail for n in topo.hosts[hosts[0]].backend_nics()})

    def pair() -> Tuple[str, str]:
        src, dst = rng.sample(hosts, 2)
        return src, dst

    pools: Dict[str, List[Query]] = {"path": [], "planes": [], "repac": []}
    for _ in range(SERVE_PAIRS):
        (src, dst), rail = pair(), rng.choice(rails)
        pools["path"].extend(
            Query(kind="path", src_host=src, dst_host=dst, src_rail=rail,
                  dst_rail=rail, sport=49152 + c)
            for c in range(SERVE_SPORTS_PER_PAIR))
        pools["planes"].append(Query(kind="planes", src_host=src,
                                     dst_host=dst, src_rail=rail,
                                     dst_rail=rail))
    for _ in range(SERVE_REPAC_PAIRS):
        src, dst = pair()
        pools["repac"].append(Query(kind="repac", src_host=src, dst_host=dst,
                                    num_paths=3, sport_span=48))
    # what-ifs fail ToR-agg links, each a different one
    tors = {s.name for s in topo.switches.values() if s.tier == 1}
    fabric_links = sorted(
        lid for lid, link in topo.links.items()
        if (link.a.node in tors) != (link.b.node in tors)
        and link.a.node in topo.switches and link.b.node in topo.switches)
    rng.shuffle(fabric_links)
    next_link = iter(fabric_links)

    requests = []
    for _ in range(SERVE_WARMUP + SERVE_TIMED):
        batch = []
        for _ in range(SERVE_BATCH):
            roll = rng.random()
            if roll < SERVE_RESIDUAL:
                src, dst = pair()
                batch.append(Query(kind="residual", src_host=src,
                                   dst_host=dst, num_paths=2, sport_span=32,
                                   fail_links=(next(next_link),)))
                continue
            if roll < SERVE_RESIDUAL + SERVE_REPAC:
                kind = "repac"
            elif roll < SERVE_RESIDUAL + SERVE_REPAC + SERVE_PLANES:
                kind = "planes"
            else:
                kind = "path"
            pool = pools[kind]
            batch.append(pool[rng.randrange(len(pool))])
        requests.append(batch)
    return requests


def http_request(method: str, target: str, body: bytes = b"") -> bytes:
    return (f"{method} {target} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


async def _read_response(reader) -> Tuple[int, bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    length = 0
    for line in lines[1:]:
        key, _, value = line.partition(":")
        if key.strip().lower() == "content-length":
            length = int(value)
    return status, await reader.readexactly(length)


async def _closed_loop(port: int, wires: Sequence[bytes], conns: int):
    """Send ``wires`` over ``conns`` keep-alive connections.

    Each connection sends its next request only after the previous
    reply. Returns (per-request latency s, (status, body) per request,
    wall s).
    """
    latencies = [0.0] * len(wires)
    replies: List[Any] = [None] * len(wires)
    cursor = iter(range(len(wires)))
    streams = [await asyncio.open_connection("127.0.0.1", port)
               for _ in range(conns)]

    async def client(reader, writer) -> None:
        for i in cursor:
            t = clock()
            writer.write(wires[i])
            replies[i] = await _read_response(reader)
            latencies[i] = clock() - t

    t0 = clock()
    try:
        await asyncio.gather(*(client(r, w) for r, w in streams))
    finally:
        wall = clock() - t0
        for _, writer in streams:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass
    return latencies, replies, wall


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of a live process, from /proc."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def split_cpus() -> Tuple[Set[int], Set[int]]:
    """(daemon CPUs, load-generator CPUs): one CPU each when this
    process may run on two or more, else both get all of them.

    Left to the scheduler, the daemon and the load generator sometimes
    share a CPU, which made single repetitions of ``serve`` spread
    two to four times wider than with each on its own CPU.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[-1]}, {cpus[0]}


class Daemon:
    """A fresh `repro serve` on a free loopback port, via the launcher."""

    def __init__(self, artifacts: Path, tag: str, trace_out: Optional[Path],
                 cpus: Set[int]):
        self.log_path = artifacts / f"daemon-{tag}.log"
        cmd = [sys.executable, str(HERE / "serve_launcher.py")]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            cmd + ["--"] + SERVE_ARGS, stdout=self._log,
            stderr=subprocess.STDOUT,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus))
        self.port = 0
        self.client: Optional[ServeClient] = None

    def wait_ready(self) -> None:
        """Block until the first ``/healthz`` answers."""
        deadline = time.monotonic() + SERVE_START_TIMEOUT_S
        while True:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"daemon did not start; see {self.log_path}")
            text = self.log_path.read_text()
            if not self.port and "on http://" in text:
                self.port = int(text.split("on http://", 1)[1]
                                .split(":", 1)[1].split()[0])
                self.client = ServeClient("127.0.0.1", self.port)
            if self.client is not None:
                try:
                    self.client.healthz()
                    return
                except OSError:
                    pass
            time.sleep(0.002)

    def stop(self) -> None:
        """``/admin/shutdown``; kill the daemon if it lingers."""
        try:
            if self.client is not None and self.proc.poll() is None:
                self.client.shutdown()
                self.client.close()
            self.proc.wait(timeout=20)
        except Exception:  # any failure to stop cleanly ends in a kill
            self.proc.kill()
            self.proc.wait()
        finally:
            self._log.close()


def serve_reference(topo, requests: Sequence[Sequence[Any]]) -> Dict[Any, Any]:
    """Serial in-process ``ServeState.execute`` per distinct query."""
    state = ServeState(topo)
    expected: Dict[Any, Any] = {}
    for batch in requests:
        for q in batch:
            if q not in expected:
                expected[q] = json.loads(json.dumps(state.execute(q),
                                                    sort_keys=True))
    return expected


def run_serve(seed: int, phases: Phases, artifacts: Path, tag: str,
              trace_out: Optional[Path] = None) -> Dict[str, Any]:
    topo = serve_topology()
    requests = serve_requests(topo, seed)
    wires = [http_request("POST", "/v1/batch", json.dumps(
        {"queries": [q.to_jsonable() for q in batch]}).encode())
        for batch in requests]
    gc.collect()

    own_cpus = os.sched_getaffinity(0)
    daemon_cpus, loadgen_cpus = split_cpus()
    t0 = clock()
    daemon = Daemon(artifacts, tag, trace_out, daemon_cpus)
    os.sched_setaffinity(0, loadgen_cpus)
    try:
        daemon.wait_ready()
        t1 = clock()
        _, warm_replies, _ = asyncio.run(
            _closed_loop(daemon.port, wires[:SERVE_WARMUP], SERVE_CONNS))
        gc.collect()
        daemon_cpu0 = cpu_seconds(daemon.proc.pid)
        cpu0 = time.process_time()
        t2 = clock()
        latencies, replies, wall = asyncio.run(
            _closed_loop(daemon.port, wires[SERVE_WARMUP:], SERVE_CONNS))
        t3 = clock()
        loadgen_cpu = time.process_time() - cpu0
        daemon_cpu = cpu_seconds(daemon.proc.pid) - daemon_cpu0
        rss = peak_rss_mb(daemon.proc.pid)
        stats = daemon.client.stats()
    finally:
        daemon.stop()
        os.sched_setaffinity(0, own_cpus)
    phases.update(setup=(t0, t1), run=(t2, t3))

    expected = serve_reference(topo, requests)
    errors: List[str] = []
    attempted = failed = 0
    for i, (batch, reply) in enumerate(zip(requests, warm_replies + replies)):
        attempted += len(batch)
        status, body = reply
        if status != 200:
            failed += len(batch)
            errors.append(f"serve request {i}: HTTP {status}")
            continue
        results = json.loads(body)["results"]
        bad = sum(1 for q, got in zip(batch, results) if got != expected[q])
        bad += abs(len(batch) - len(results))
        if bad:
            failed += bad
            errors.append(f"serve request {i}: {bad} results differ from "
                          "serial ServeState.execute")
    queries = sum(len(b) for b in requests[SERVE_WARMUP:])
    batch_stats = stats["batch"]
    layer = {
        "routing.cache.hit_ratio": stats["cache"]["hit_rate"],
        "routing.cache.misses": stats["cache"]["misses"],
        "routing.cache.invalidations": stats["cache"]["invalidations"],
        "serve.probe_cache.hit_ratio": stats["probe_cache"]["hit_rate"],
        "serve.batches": batch_stats["batches"],
        "serve.batch_size.mean": batch_stats["mean_batch_size"],
        "serve.flush_deadline_frac": (
            batch_stats["flushed_deadline"] / batch_stats["batches"]
            if batch_stats["batches"] else 0.0),
        "serve.dedupe_ratio": (batch_stats["deduped"] / batch_stats["requests"]
                               if batch_stats["requests"] else 0.0),
    }
    return {
        "setup_s": t1 - t0, "run_s": t3 - t2, "peak_rss_mb": rss,
        "attempted": attempted, "failed": failed, "errors": errors[:20],
        "layer": layer,
        "extra": {
            "qps": queries / wall,
            "latencies_ms": [x * 1e3 for x in latencies],
            "loadgen_cpu_frac": loadgen_cpu / (t3 - t2),
            "daemon_cpu_frac": daemon_cpu / (t3 - t2),
            "daemon_cpu_s": daemon_cpu,
            "daemon_log": str(daemon.log_path),
        },
    }


WORKLOADS = {
    "fig15": run_fig15,
    "pod": run_pod,
    "health": run_health,
    "serve": run_serve,
}
