"""Disabled-instrumentation overhead benchmark (CI gate: <5%).

Instrumenting hot paths is only free if a run with observability off
stays as fast as one that never heard of it. This module times the
``bench.allreduce`` scenario three ways:

* **off** -- no recorder installed anywhere (the untraced baseline:
  every instrumentation site resolves to ``None`` at construction);
* **disabled** -- a :class:`~repro.obs.recorder.NullRecorder` installed
  process-wide (what a user gets after ``set_recorder(NullRecorder())``;
  resolution still collapses it to the no-op path);
* **enabled** -- a live :class:`~repro.obs.recorder.Recorder` (full
  tracing cost, reported for the docs, never gated);
* **health** -- a live recorder with a default-config
  :class:`~repro.obs.health.HealthEngine` attached (samplers +
  detectors on top of full tracing; the *marginal* cost vs. enabled is
  what ``--max-health-overhead`` gates at <5%).

``python -m repro.obs.overhead --max-overhead 0.05`` exits non-zero
when the disabled path exceeds the bound vs. the off baseline; min-of-N
timing keeps the gate robust to scheduler noise.

``--kind`` times another catalogue experiment. CI's health gate times
``solver.equivalence`` at ``hosts=8, steps=20``: 2,560 flows through
the oracle's unrecorded reference loop and then the simulator. The
oracle is nearly all of that wall, so the gate divides the
simulator's health cost by mostly unrecorded work. On the simulator
alone the same flows take 46-49 / 87-97 / 140-148 ms off / enabled /
health: +53% to +64% vs enabled (docs/observability.md, "Overhead").
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List, Optional

from .recorder import NullRecorder, Recorder, set_recorder

#: a small-but-real allreduce: enough simulator work to time reliably
DEFAULT_SCENARIO = {"job_hosts": 4, "size_mb": 64}

#: default experiment the modes are timed on (``--kind`` overrides;
#: the CI health gate uses ``solver.equivalence``)
DEFAULT_KIND = "bench.allreduce"


def _coerce(text: str) -> Any:
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _run_scenario(params: Dict[str, Any], seed: int = 0,
                  kind: str = DEFAULT_KIND) -> None:
    from ..engine.spec import get_experiment

    defn = get_experiment(kind)
    merged = dict(defn.defaults)
    merged.update(params)
    defn.fn(merged, seed)


def _health_recorder() -> Recorder:
    from .health import HealthEngine

    rec = Recorder()
    HealthEngine(rec).attach()
    return rec


def _time_once(recorder: Optional[Recorder], params: Dict[str, Any],
               kind: str = DEFAULT_KIND) -> float:
    previous = set_recorder(recorder)
    try:
        t0 = time.perf_counter()
        _run_scenario(params, kind=kind)
        return time.perf_counter() - t0
    finally:
        set_recorder(previous)


def measure(repeats: int = 5,
            params: Optional[Dict[str, Any]] = None,
            kind: str = DEFAULT_KIND) -> Dict[str, Any]:
    """Min-of-``repeats`` timings for off/disabled/enabled/health modes.

    Modes are interleaved (off, disabled, enabled, health, off, ...) so
    cache warm-up and machine drift hit all four equally. Returns
    seconds per mode plus the overhead fractions: disabled/enabled vs.
    the off baseline, health (samplers + detectors) vs. enabled.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    scenario = dict(DEFAULT_SCENARIO) if kind == DEFAULT_KIND else {}
    scenario.update(params or {})
    _run_scenario(scenario, kind=kind)  # warm-up: imports, topo caches

    times: Dict[str, List[float]] = {"off": [], "disabled": [],
                                     "enabled": [], "health": []}
    for _ in range(repeats):
        times["off"].append(_time_once(None, scenario, kind))
        times["disabled"].append(_time_once(NullRecorder(), scenario, kind))
        times["enabled"].append(_time_once(Recorder(), scenario, kind))
        times["health"].append(_time_once(_health_recorder(), scenario,
                                          kind))

    off_s = min(times["off"])
    disabled_s = min(times["disabled"])
    enabled_s = min(times["enabled"])
    health_s = min(times["health"])
    return {
        "kind": kind,
        "scenario": scenario,
        "repeats": repeats,
        "off_s": off_s,
        "disabled_s": disabled_s,
        "enabled_s": enabled_s,
        "health_s": health_s,
        "disabled_overhead": (disabled_s - off_s) / off_s if off_s else 0.0,
        "enabled_overhead": (enabled_s - off_s) / off_s if off_s else 0.0,
        "health_overhead": (
            (health_s - enabled_s) / enabled_s if enabled_s else 0.0),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.overhead",
        description="benchmark instrumentation overhead on bench.allreduce",
    )
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--kind", default=DEFAULT_KIND,
                        help="experiment to time (e.g. "
                             "solver.equivalence, whose wall is nearly "
                             "all the oracle's unrecorded reference "
                             "loop)")
    parser.add_argument("--job-hosts", type=int, default=None,
                        help="bench.allreduce job_hosts override")
    parser.add_argument("--size-mb", type=float, default=None,
                        help="bench.allreduce size_mb override")
    parser.add_argument("--set", action="append", default=[],
                        dest="sets", metavar="KEY=VALUE",
                        help="scenario param override (repeatable; "
                             "values coerce to bool/int/float)")
    parser.add_argument("--max-overhead", type=float, default=None,
                        help="fail (exit 1) when the disabled-recorder "
                             "path exceeds this fraction vs. baseline")
    parser.add_argument("--max-health-overhead", type=float, default=None,
                        help="fail (exit 1) when samplers+detectors "
                             "exceed this fraction vs. plain enabled "
                             "recording")
    parser.add_argument("--format", choices=["text", "json"],
                        default="text")
    args = parser.parse_args(argv)

    params: Dict[str, Any] = {}
    if args.job_hosts is not None:
        params["job_hosts"] = args.job_hosts
    if args.size_mb is not None:
        params["size_mb"] = args.size_mb
    for item in args.sets:
        key, sep, value = item.partition("=")
        if not sep or not key:
            parser.error(f"--set expects KEY=VALUE, got {item!r}")
        params[key] = _coerce(value)
    result = measure(repeats=args.repeats, params=params, kind=args.kind)
    if args.format == "json":
        print(json.dumps(result, indent=2, sort_keys=True))  # repro: noqa[LINT005]
    else:
        print(  # repro: noqa[LINT005]
            f"off {result['off_s']*1e3:.1f}ms | disabled "
            f"{result['disabled_s']*1e3:.1f}ms "
            f"({result['disabled_overhead']:+.1%}) | enabled "
            f"{result['enabled_s']*1e3:.1f}ms "
            f"({result['enabled_overhead']:+.1%}) | health "
            f"{result['health_s']*1e3:.1f}ms "
            f"({result['health_overhead']:+.1%} vs enabled)"
        )
    failed = False
    if (args.max_overhead is not None
            and result["disabled_overhead"] > args.max_overhead):
        print(  # repro: noqa[LINT005]
            f"FAIL: disabled-recorder overhead "
            f"{result['disabled_overhead']:.1%} exceeds "
            f"{args.max_overhead:.1%}",
            file=sys.stderr,
        )
        failed = True
    if (args.max_health_overhead is not None
            and result["health_overhead"] > args.max_health_overhead):
        print(  # repro: noqa[LINT005]
            f"FAIL: health samplers+detectors overhead "
            f"{result['health_overhead']:.1%} exceeds "
            f"{args.max_health_overhead:.1%} vs enabled",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
