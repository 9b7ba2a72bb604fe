"""One repetition of one workload, in a fresh process.

Usage: ``python3 hpnbench/worker.py WORKLOAD SEED OUT_JSON ARTIFACT_DIR [--trace]``

``run.py`` starts one worker per repetition, one at a time, with
``PYTHONHASHSEED`` set to the repetition index. The worker runs the
host-speed probe (``probe.py``, in its own process; for ``serve``, on
the CPU the daemon gets) for three rounds before and three after the
workload; the median round is ``host.probe_s``, the host's speed
during this repetition. It runs the workload and writes its result as
JSON. With ``--trace`` it installs the span wrappers first (for
``serve``, inside the daemon), then writes a Chrome trace and the
per-layer metrics of this repetition.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from metrics import percentile  # noqa: E402

#: span names whose summed self time is a per-layer ``<name>_s`` metric
TIMED_SPANS = (
    "topos.build", "routing.fib_compile", "routing.path_for",
    "routing.route_many", "routing.repac", "collective.establish",
    "collective.send_all", "collective.edge_flows",
    "training.iteration.hpn", "training.iteration.dcnplus",
    "training.dp_sync_flows", "fabric.event_loop", "fabric.solve",
    "fabric.index", "obs.sample_fluid", "obs.finalize",
    "core.transient_state", "serve.decode", "serve.execute_batch",
)
#: rounds of ``probe.py`` timed before and again after the workload
PROBE_ROUNDS = 3
#: span names whose call count is a per-layer ``<name>.calls`` metric
COUNTED_SPANS = (
    "routing.path_for", "routing.route_many", "routing.repac",
    "collective.establish", "obs.sample_fluid", "core.transient_state",
)


def host_probe(cpus: Optional[Set[int]]) -> List[float]:
    """Round times of ``probe.py``, run in its own process on ``cpus``
    (``None``: wherever the scheduler puts it)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), str(PROBE_ROUNDS)],
        capture_output=True, text=True, check=True,
        preexec_fn=cpus and (lambda: os.sched_setaffinity(0, cpus)))
    return json.loads(proc.stdout)["rounds_s"]


def layer_metrics(spans: List[List[Any]], phases: Dict[str, Any],
                  result: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition.

    Times are self times over the set-up and run phases; counts come
    from the spans' info and from the workload's public result objects.
    """
    own = tracing.self_times(spans)
    root_of: List[int] = []
    for i, s in enumerate(spans):
        root_of.append(i if s[3] < 0 else root_of[s[3]])
    in_phase = [tracing.phase_of(spans[root_of[i]][1], phases) is not None
                for i in range(len(spans))]
    in_run = [tracing.phase_of(spans[root_of[i]][1], {"run": phases["run"]})
              is not None for i in range(len(spans))]

    out: Dict[str, float] = {f"{name}_s": 0.0 for name in TIMED_SPANS}
    out.update({f"{name}.calls": 0 for name in COUNTED_SPANS})
    totals = dict.fromkeys(("messages", "flows", "probes", "kept",
                            "kernel_iters"), 0)
    modes = dict.fromkeys(("full", "incremental", "noop"), 0)
    dirty: List[float] = []
    waits: List[float] = []
    batch_ms: List[float] = []
    whatif_blocks = 0
    for i, (name, start, end, parent, _run, info) in enumerate(spans):
        if not in_phase[i]:
            continue
        if name in TIMED_SPANS:
            out[f"{name}_s"] += own[i]
        if name in COUNTED_SPANS:
            out[f"{name}.calls"] += 1
        info = info or {}
        for key in totals:
            totals[key] += info.get(key, 0)
        if name == "fabric.solve" and (parent < 0 or spans[parent][0] != name):
            modes[info["mode"]] += 1
            if info["mode"] != "noop":
                dirty.append(info["dirty_frac"])
        if name == "serve.execute_batch" and in_run[i]:
            waits.extend(info.get("waits", ()))
            batch_ms.append((end - start) * 1e3)
        if (name == "core.transient_state" and parent >= 0
                and spans[parent][0] == "serve.execute_batch"):
            whatif_blocks += 1

    table = tracing.phase_table(spans, phases)
    run_s = phases["run"][1] - phases["run"][0]
    out.update({
        "collective.messages": totals["messages"],
        "collective.flows": totals["flows"],
        "routing.repac.probes": totals["probes"],
        "routing.repac.kept_ratio": (totals["kept"] / totals["probes"]
                                     if totals["probes"] else 0.0),
        "fabric.solves.full": modes["full"],
        "fabric.solves.incremental": modes["incremental"],
        "fabric.solves.noop": modes["noop"],
        "fabric.dirty_frac.mean": sum(dirty) / len(dirty) if dirty else 0.0,
        "fabric.kernel_iters": totals["kernel_iters"],
        "serve.batch_wait_ms.p50": percentile([w * 1e3 for w in waits], 50),
        "serve.batch_wait_ms.p99": percentile([w * 1e3 for w in waits], 99),
        "serve.execute_batch_ms.p50": percentile(batch_ms, 50),
        "serve.execute_batch_ms.p99": percentile(batch_ms, 99),
        "serve.whatif.blocks": whatif_blocks,
        "trace.run_s": run_s,
        "trace.run_other_s": table["run"]["other"],
        "trace.setup_other_s": table["setup"]["other"],
    })
    out.update(result["layer"])
    if "daemon_cpu_s" in result["extra"]:
        covered = sum(e - s for (n, s, e, p, r, i), ok
                      in zip(spans, in_run) if ok and p < 0)
        out["serve.other_s"] = result["extra"]["daemon_cpu_s"] - covered
    return out


def traced(workload: str, seed: int, artifacts: Path) -> Dict[str, Any]:
    """Run the workload once with span wrappers installed."""
    phases: Dict[str, Any] = {}
    if workload == "serve":
        dump_path = artifacts / "daemon-trace-spans.json"
        result = workloads.run_serve(seed, phases, artifacts, "traced",
                                     trace_out=dump_path)
        dump = json.loads(dump_path.read_text())
        spans, missing = dump["spans"], dump["missing"]
        result["layer"]["core.state_log_len"] = dump["state_log_len"]
        pid, label = 2, "repro serve daemon"
    else:
        tracer = tracing.Tracer().install()
        tracer.run_id = f"{workload}-seed{seed}"
        result = workloads.WORKLOADS[workload](seed, phases)
        tracer.uninstall()
        spans, missing = tracer.spans, tracer.missing
        pid, label = 1, f"{workload} worker"

    trace = tracing.chrome_trace([(pid, label, spans)], phases["setup"][0])
    from repro.obs.export import validate_chrome_trace

    problems = validate_chrome_trace(trace)
    trace_path = artifacts / "trace.json"
    tracing.write_json(str(trace_path), trace)
    if problems:
        result["errors"].append(f"chrome trace invalid: {problems[:3]}")
        result["failed"] += 1
    result["trace"] = {
        "metrics": layer_metrics(spans, phases, result),
        "table": tracing.phase_table(spans, phases),
        "missing": missing,
        "chrome_trace": str(trace_path),
        "spans": len(spans),
    }
    return result


def main(argv: Sequence[str]) -> int:
    workload, seed, out, artifacts = argv[:4]
    trace = "--trace" in argv[4:]
    artifacts_dir = Path(artifacts)
    artifacts_dir.mkdir(parents=True, exist_ok=True)
    # serve's work runs in the daemon: probe the CPU the daemon gets
    probe_cpus = workloads.split_cpus()[0] if workload == "serve" else None
    probes = host_probe(probe_cpus)
    if trace:
        result = traced(workload, int(seed), artifacts_dir)
    elif workload == "serve":
        result = workloads.run_serve(int(seed), {}, artifacts_dir,
                                     Path(out).stem)
    else:
        result = workloads.WORKLOADS[workload](int(seed), {})
    probes += host_probe(probe_cpus)
    result["host_probe_s"] = statistics.median(probes)
    tracing.write_json(out, result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
