"""The repository benchmark: one workload, one seed, one JSON result.

Usage (from the repository root)::

    python3 hpnbench/run.py --workload fig15 --seed 3 --seconds 20 --trace 0

Runs a fixed number of repetitions of the workload, sized from
``--seconds``, each in a fresh worker process (``worker.py``), one at a
time, with ``PYTHONHASHSEED`` set to the repetition index. Every
repetition checks the program's outputs. End-to-end metrics are the
medians over the untraced repetitions; ``--trace 1`` adds one traced
repetition and prints the per-layer metrics instead. The last line of
standard output is the JSON result; artifacts (worker results, daemon
logs, the Chrome trace) land in ``.hpnbench-runs/`` under the root.
See ``hpnbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import percentile  # noqa: E402

#: the declared metrics, in order: (name, unit) of each
_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [(m["name"], m["unit"]) for m in _DECLARED["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _DECLARED["per_layer"]]
UNITS = dict(END_TO_END + PER_LAYER)

#: nominal wall seconds of one repetition on a 2-vCPU host; the run
#: makes round(--seconds / cost) repetitions, so the amount of work a
#: run measures never depends on the speed of the code
REP_COST_S = {"fig15": 4.3, "pod": 4.5, "health": 3.3, "serve": 4.4}
MIN_REPS = 3
WORKER_TIMEOUT_S = 60

#: the reference host speed: the time one round of ``probe.py`` takes
#: on it. End-to-end times are each repetition's wall time rescaled
#: from the speed its own probes measured to this one (README, "Host
#: noise"); the raw walls are the per-layer ``wall.*`` metrics.
PROBE_REF_S = 0.08

#: per-layer metrics that are medians over the untraced repetitions
#: (worker result key -> metric)
MEDIAN_LAYER = {
    "setup_s": "wall.setup_s",
    "run_s": "wall.run_s",
    "host_probe_s": "host.probe_s",
    "loadgen_cpu_frac": "loadgen.cpu_frac",
    "daemon_cpu_frac": "serve.daemon_cpu_frac",
    "recorder_on_s": "obs.recorder_on_s",
    "recorder_off_s": "obs.recorder_off_s",
    "qps": "serve.qps",
}


def environment(args: argparse.Namespace, reps: int) -> Dict[str, Any]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "repetitions": reps,
        "hash_seeds": f"PYTHONHASHSEED=i for repetition i in 0..{reps - 1}"
                      + ("; traced repetition 0" if args.trace else ""),
    }


def run_worker(args: argparse.Namespace, index: int, hash_seed: int,
               artifacts: Path, traced: bool) -> Dict[str, Any]:
    out = artifacts / (f"rep{index}.json" if not traced else "traced.json")
    rep_dir = artifacts / ("traced" if traced else f"rep{index}")
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload,
           str(args.seed), str(out), str(rep_dir)]
    if traced:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    # own process group: a hung worker is killed with its serve daemon
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True,
                            start_new_session=True)
    try:
        output, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker {index} timed out") from None
    if proc.returncode != 0:
        sys.stderr.write(output)
        raise RuntimeError(f"worker {index} exited {proc.returncode}")
    return json.loads(out.read_text())


def at_reference(result: Dict[str, Any], key: str) -> float:
    """A repetition's wall time rescaled to the reference host speed."""
    return result[key] * PROBE_REF_S / result["host_probe_s"]


def end_to_end(untraced: List[Dict[str, Any]]) -> Dict[str, float]:
    """Medians over the untraced repetitions; times at reference speed."""
    return {name: statistics.median(
                at_reference(r, name) if unit == "s" else r[name]
                for r in untraced)
            for name, unit in END_TO_END}


def layer_result(untraced: List[Dict[str, Any]], traced: Dict[str, Any]
                 ) -> Dict[str, float]:
    values = {name: 0.0 for name, _ in PER_LAYER}
    values.update(traced["trace"]["metrics"])
    for key, metric in MEDIAN_LAYER.items():
        samples = [r[key] if key in r else r["extra"].get(key)
                   for r in untraced]
        if all(s is not None for s in samples):
            values[metric] = statistics.median(samples)
    if values["obs.recorder_off_s"]:
        values["obs.overhead_frac"] = (values["obs.recorder_on_s"]
                                       / values["obs.recorder_off_s"] - 1.0)
    latencies = [x for r in untraced for x in r["extra"].get("latencies_ms", ())]
    if latencies:
        values["serve.p50_ms"] = percentile(latencies, 50)
        values["serve.p99_ms"] = percentile(latencies, 99)
    values["trace.overhead_frac"] = (
        at_reference(traced, "run_s") / end_to_end(untraced)["run_s"] - 1.0)
    unknown = set(values) - set(UNITS)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    return {name: values[name] for name, _ in PER_LAYER}


def print_table(traced: Dict[str, Any]) -> None:
    import tracer

    info = traced["trace"]
    print("per-layer self times of the traced repetition "
          f"({info['spans']} spans; Chrome trace {info['chrome_trace']}):")
    print(tracer.render_table(info["table"]))
    if info["missing"]:
        print(f"not traced (absent from the program): {info['missing']}")


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(REP_COST_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT} is not a checkout of the program "
              "(no src/repro); nothing to benchmark", file=sys.stderr)
        return 2

    reps = max(MIN_REPS, round(args.seconds / REP_COST_S[args.workload]))
    artifacts = ROOT / ".hpnbench-runs" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(artifacts, ignore_errors=True)
    artifacts.mkdir(parents=True)
    env = environment(args, reps)
    print("environment: " + json.dumps(env, sort_keys=True), flush=True)

    untraced = [run_worker(args, i, i, artifacts, traced=False)
                for i in range(reps)]
    results = list(untraced)
    traced = None
    if args.trace:
        traced = run_worker(args, 0, 0, artifacts, traced=True)
        results.append(traced)

    errors = [e for r in results for e in r["errors"]]
    for line in errors[:20]:
        print(f"check failed: {line}")
    if traced is not None:
        print_table(traced)
        values = layer_result(untraced, traced)
    else:
        values = end_to_end(untraced)
    summary = {
        "environment": env,
        "workload": args.workload,
        "values": values,
        "errors": errors,
        "repetitions": [{k: r[k] for k in ("setup_s", "run_s", "peak_rss_mb",
                                             "host_probe_s", "attempted",
                                             "failed")} for r in results],
    }
    (artifacts / "summary.json").write_text(json.dumps(summary, indent=1))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in values.items()},
    }))
    return 0 if failed == 0 and not errors else 1


if __name__ == "__main__":
    sys.exit(main())
