"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``build``      -- build an architecture, print its inventory, and
                    optionally save it to JSON;
* ``check``      -- the one static-analysis gate: run the TOPO/WIRE/FWD
                    rules over a loaded (or built) fabric and the
                    LINT/SEM rules over a source tree, into one report
                    (text, JSON or SARIF) and one exit code;
* ``complexity`` -- print Table 1 (path-selection search space);
* ``route``      -- route sample flows through the cached forwarding
                    plane and print paths or route-cache counters;
* ``serve``      -- the what-if routing daemon over HTTP;
* ``train``      -- simulate one training iteration of a named model;
* ``inject``     -- run the Figure-18 fault drill and print the
                    throughput timeline;
* ``fleet``      -- multi-job fleet simulation (churn / interference);
* ``exp``        -- the experiment engine: ``exp list`` (catalogue),
                    ``exp run`` (schedule a cached, seeded batch over
                    the serial or process backend), ``exp compare``
                    (diff two run manifests ignoring timing);
* ``trace``      -- run one experiment under the observability
                    recorder and export Chrome-trace / metrics /
                    events artifacts (open the trace in Perfetto);
* ``health``     -- run an experiment under the health engine (or
                    replay a trace dir) and report incidents.

The CLI exists so the library is usable without writing Python; every
command is a thin veneer over the public API.
"""

from __future__ import annotations

import argparse
import ast
import sys
from typing import List, Optional

from . import __version__
from .cluster import Cluster
from .core.serialize import load_topology, save_topology
from .core.topology import Topology
from .routing import table1
from .topos import (
    DcnPlusSpec,
    HpnSpec,
    SingleTorSpec,
    build_dcnplus,
    build_hpn,
    build_singletor,
    table1_cards,
)
from .viz import render_oversubscription, render_summary, render_tiers

_MODELS = {"llama-7b": "LLAMA_7B", "llama-13b": "LLAMA_13B", "gpt3-175b": "GPT3_175B"}


def _build_topology(args: argparse.Namespace) -> Topology:
    """The fabric the ``--arch`` options describe, with no router yet."""
    if args.arch == "hpn":
        return build_hpn(HpnSpec(
            segments_per_pod=args.segments,
            hosts_per_segment=args.hosts,
            backup_hosts_per_segment=args.backup_hosts,
            aggs_per_plane=args.aggs,
        ))
    if args.arch == "dcnplus":
        return build_dcnplus(DcnPlusSpec(
            pods=1, segments_per_pod=args.segments, hosts_per_segment=args.hosts
        ))
    if args.arch == "singletor":
        return build_singletor(
            SingleTorSpec(segments=args.segments, hosts_per_segment=args.hosts)
        )
    raise SystemExit(f"unknown architecture {args.arch!r}")


def _add_build_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--arch", default="hpn", choices=["hpn", "dcnplus", "singletor"])
    p.add_argument("--segments", type=int, default=1)
    p.add_argument("--hosts", type=int, default=16, help="hosts per segment")
    p.add_argument("--backup-hosts", type=int, default=0)
    p.add_argument("--aggs", type=int, default=8, help="aggs per plane (hpn)")


def cmd_build(args: argparse.Namespace) -> int:
    topo = _build_topology(args)
    print(render_summary(topo))
    print(render_tiers(topo))
    print(render_oversubscription(topo))
    if args.output:
        save_topology(topo, args.output)
        print(f"saved to {args.output}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """The static-analysis gate: every rule family, one report, one exit code."""
    from .staticcheck import FAMILIES, all_rules, render_report, run_check
    from .staticcheck.semantics import Baseline

    if args.list_rules:
        for info in all_rules():
            print(f"{info.rule_id:<9} {info.severity.value:<8} {info.title}"
                  f"{'  [expensive]' if info.expensive else ''}")
        return 0
    families = None
    if args.family:
        families = [f.strip().upper() for f in args.family.split(",")
                    if f.strip()]
        unknown = sorted(set(families) - set(FAMILIES))
        if unknown:
            print(f"error: unknown rule family(ies): {', '.join(unknown)} "
                  f"(known: {', '.join(sorted(FAMILIES))})", file=sys.stderr)
            return 2
    wanted = set(families) if families else set(FAMILIES)
    topo = None
    if wanted & {"TOPO", "WIRE", "FWD"}:
        if args.input:
            try:
                topo = load_topology(args.input)
            except OSError as exc:
                print(f"error: cannot read topology {args.input!r}: {exc}",
                      file=sys.stderr)
                return 2
        else:
            topo = _build_topology(args)
    baseline = Baseline.load(args.baseline)
    report = run_check(
        families=families,
        paths=args.paths,
        topo=topo,
        forwarding_kwargs={"max_pairs": args.probe_pairs},
        baseline=baseline,
    )
    if args.update_baseline:
        Baseline.from_report(report).save(args.baseline)
        print(f"baseline rewritten: {args.baseline} "
              f"({len(report.active)} entries)", file=sys.stderr)
        return 0
    stale = baseline.stale_entries(report)
    if stale:
        print(f"note: {len(stale)} stale baseline entr"
              f"{'y' if len(stale) == 1 else 'ies'} (debt paid down; "
              f"re-run with --update-baseline)", file=sys.stderr)
    print(render_report(report, args.format, rules=all_rules()))
    return report.exit_code(strict=args.strict)


def cmd_complexity(_args: argparse.Namespace) -> int:
    for row in table1(table1_cards()):
        print(
            f"{row.name:<18} {row.supported_gpus:>6} GPUs  {row.tiers} tiers  "
            f"LB at {row.lb_switch_roles:<22} O({row.complexity})"
        )
    return 0


def cmd_route(args: argparse.Namespace) -> int:
    import itertools

    from .routing import FiveTuple

    cluster = Cluster(_build_topology(args))
    router = cluster.router  # the shared CachedRouter
    topo = cluster.topo
    hosts = sorted(h.name for h in topo.active_hosts())
    if args.src or args.dst:
        pairs = [(args.src or hosts[0], args.dst or hosts[-1])]
    else:
        pairs = list(itertools.combinations(hosts, 2))[: args.pairs]

    routed = unroutable = 0
    for _pass in range(args.repeat):
        for src_host, dst_host in pairs:
            src = topo.hosts[src_host].nic_for_rail(args.rail)
            dst = topo.hosts[dst_host].nic_for_rail(args.rail)
            requests = [
                (src, dst, FiveTuple(src.ip, dst.ip, args.sport + i, 4791),
                 args.plane)
                for i in range(args.conns)
            ]
            paths = router.route_many(requests, strict=False)
            for (_s, _d, ft, _p), path in zip(requests, paths):
                if path is None:
                    unroutable += 1
                    if len(pairs) == 1:
                        print(f"sport {ft.sport}: unroutable")
                elif len(pairs) == 1:
                    routed += 1
                    print(
                        f"sport {ft.sport} plane {path.plane}: "
                        + " -> ".join(path.nodes)
                    )
                else:
                    routed += 1
    print(
        f"routed {routed} flows over {len(pairs)} pairs "
        f"(rail {args.rail}, {args.conns} conns/pair, "
        f"{args.repeat} pass{'es' if args.repeat != 1 else ''})"
        + (f"; {unroutable} unroutable" if unroutable else "")
    )
    if args.stats:
        stats = router.stats
        print(
            f"route cache: {stats.hits} hits / {stats.misses} misses "
            f"(hit rate {stats.hit_rate:.1%}), "
            f"{stats.invalidations} invalidations, "
            f"{stats.fib_compiles} fib compile"
            f"{'s' if stats.fib_compiles != 1 else ''}"
        )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from . import training

    cluster = Cluster(_build_topology(args))
    config = getattr(training, _MODELS[args.model])
    hosts = cluster.place(args.job_hosts)
    plan = training.ParallelismPlan(tp=8, pp=args.pp, dp=args.job_hosts * 8 // (8 * args.pp))
    job = cluster.train(config, plan, hosts, microbatches=args.microbatches)
    it = job.iteration()
    print(f"model {config.name} on {args.job_hosts} hosts ({cluster.architecture})")
    print(f"  iteration : {it.total_seconds:.3f} s")
    print(f"  throughput: {it.samples_per_sec:.1f} samples/s")
    print(f"  compute {it.compute_seconds:.3f}s | tp {it.tp_seconds*1e3:.1f}ms | "
          f"pp {it.pp_seconds*1e3:.1f}ms | dp {it.dp_seconds:.3f}s "
          f"(exposed {it.dp_exposed_seconds:.3f}s)")
    return 0


def cmd_inject(args: argparse.Namespace) -> int:
    from . import training
    from .reliability import FaultInjector, link_failure_scenario

    cluster = Cluster(_build_topology(args))
    config = getattr(training, _MODELS[args.model])
    hosts = cluster.place(args.job_hosts)
    plan = training.ParallelismPlan(tp=8, pp=1, dp=args.job_hosts)
    job = cluster.train(config, plan, hosts, microbatches=args.microbatches)
    events = link_failure_scenario(
        hosts[0], rail=0, fail_at=args.fail_at, repair_at=args.repair_at
    )
    result = FaultInjector(job).run(events, duration=args.duration)
    for point in result.timeline:
        print(f"t={point.time:8.2f}s  {point.samples_per_sec:9.1f} samples/s  {point.note}")
    if result.crashed:
        print(f"CRASHED at t={result.crash_time:.1f}s")
        return 2
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    from .fleet import policy_names, run_churn, run_interference

    if args.policy not in policy_names():
        raise SystemExit(
            f"error: unknown policy {args.policy!r} "
            f"(registered: {', '.join(policy_names())})"
        )
    params = {
        "arch": args.arch,
        "segments": args.segments,
        "hosts_per_segment": args.hosts,
        "aggs_per_plane": args.aggs,
        "policy": args.policy,
        "frontend": not args.no_frontend,
        "mean_interarrival_s": args.interarrival,
        "mean_duration_s": args.duration,
    }
    if args.mode == "interference":
        out = run_interference(params, args.seed)
        print(f"interference on {args.arch} "
              f"({args.segments}x{args.hosts} hosts), "
              f"jobs of {out['gpu_sizes']} GPUs:")
        for policy, r in out["policies"].items():
            backend = r["backend"]
            tiers = ", ".join(f"{t}={u:.2f}"
                              for t, u in backend["tier_util"].items())
            print(f"  {policy:<11} slowdown mean {backend['mean_slowdown']:.2f}x "
                  f"max {backend['max_slowdown']:.2f}x  util {tiers}")
            for cls in r["frontend"].get("classes", []):
                print(f"  {'':<11} fe/{cls['name']:<20} "
                      f"offered {cls['offered_gbps']:8.1f} Gbps "
                      f"achieved {cls['achieved_gbps']:8.1f} "
                      f"({cls['contention']:.2f})")
        return 0
    params.update({"arrivals": args.arrivals, "snapshots": args.snapshots})
    out = run_churn(params, args.seed)
    print(f"fleet churn: {out['arrivals']} arrivals on {args.arch} "
          f"({args.segments}x{args.hosts} hosts), policy {out['policy']}")
    print(f"  admitted  : {out['admitted']} "
          f"(rejected {out['rejected']}, completed {out['completed']})")
    wait = out["queue_wait"]
    print(f"  queue wait: mean {wait['mean_s']:.0f}s  p50 {wait['p50_s']:.0f}s "
          f"p95 {wait['p95_s']:.0f}s  max {wait['max_s']:.0f}s")
    frag = out["fragmentation"]
    print(f"  fragmentation: mean {frag['mean']:.3f} max {frag['max']:.3f} "
          f"({frag['multi_segment_jobs']} multi-segment, "
          f"{frag['cross_pod_jobs']} cross-pod)")
    print(f"  makespan  : {out['makespan_s']:.0f}s  "
          f"gpu utilization {out['gpu_utilization']:.1%}")
    for snap in out["snapshots"]:
        backend = snap["backend"]
        line = (f"  t={snap['t_s']:8.0f}s  {snap['jobs_running']:3d} running "
                f"{snap['queue_depth']:3d} queued")
        if backend:
            tiers = ", ".join(f"{t}={u:.2f}"
                              for t, u in backend["tier_util"].items())
            line += (f"  slowdown {backend['mean_slowdown']:.2f}x "
                     f"(max {backend['max_slowdown']:.2f}x)  {tiers}")
        fe = snap["frontend"]
        if fe.get("classes"):
            storms = sum(1 for c in fe["classes"]
                         if c["kind"] == "checkpoint")
            line += f"  fe classes {len(fe['classes'])} ({storms} storms)"
        print(line)
    return 0


def _parse_param_value(text: str):
    """CLI param literal -> typed value (bool/int/float/dict/list/str)."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    if text[:1] in ("{", "["):
        # structured params, e.g. --set "tier_params={'edge_mb': 32}"
        try:
            return ast.literal_eval(text)
        except (ValueError, SyntaxError):
            pass
    return text


def _parse_assignments(pairs, split_values: bool):
    """Parse repeated ``key=value`` (or ``key=v1,v2,...``) options."""
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise SystemExit(f"error: expected key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        if split_values:
            out[key] = [_parse_param_value(v) for v in raw.split(",") if v]
        else:
            out[key] = _parse_param_value(raw)
    return out


def cmd_exp_list(args: argparse.Namespace) -> int:
    from .engine import all_experiments

    for defn in all_experiments():
        print(f"{defn.name:<24} {defn.description}")
        if defn.defaults and args.verbose:
            defaults = ", ".join(
                f"{k}={v!r}" for k, v in sorted(defn.defaults.items())
            )
            print(f"{'':<24} defaults: {defaults}")
    return 0


def cmd_exp_run(args: argparse.Namespace) -> int:
    from .engine import Event, ResultCache, Runner, specs_for_grid

    fixed = _parse_assignments(args.set, split_values=False)
    grid = _parse_assignments(args.grid, split_values=True)
    try:
        if grid:
            specs = specs_for_grid(args.kind, grid, base_seed=args.seed,
                                   fixed=fixed)
        else:
            from .engine import get_experiment

            specs = [get_experiment(args.kind).spec(seed=args.seed, **fixed)]
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def progress(event: Event) -> None:
        if args.format == "json":
            return
        mark = {"start": "..", "cache-hit": "=#", "done": "ok",
                "error": "!!"}[event.kind]
        params = ", ".join(
            f"{k}={v}" for k, v in sorted(event.spec.params.items())
        )
        print(f"[{event.index + 1}/{event.total}] {mark} "
              f"{event.spec.kind}({params}) seed={event.spec.seed}"
              f"{' ' + event.detail if event.detail else ''}")

    runner = Runner(
        cache=None if args.no_cache else ResultCache(args.cache_dir),
        backend=args.backend,
        max_workers=args.workers,
        manifest_dir=args.manifest_dir,
        on_event=progress,
        force=args.force,
    )
    result = runner.run(specs)
    manifest = result.manifest
    if args.format == "json":
        print(manifest.to_json())
        return 0
    hits = sum(1 for r in manifest.records if r.cache_hit)
    print(f"{len(manifest.records)} experiments on {manifest.backend} "
          f"backend ({manifest.workers} worker(s)): "
          f"{hits} cache hit(s), {len(manifest.records) - hits} executed, "
          f"{manifest.wall_time_s:.2f}s wall")
    if result.manifest_path:
        print(f"manifest: {result.manifest_path}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    import json

    from .engine import Runner, get_experiment
    from .obs import summary_table, validate_chrome_trace

    fixed = _parse_assignments(args.set, split_values=False)
    try:
        spec = get_experiment(args.kind).spec(seed=args.seed, **fixed)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # no cache: a cache hit would skip execution and record nothing
    runner = Runner(
        cache=None,
        backend="serial",
        manifest_dir=args.out_dir,
        trace_dir=args.out_dir,
    )
    result = runner.run([spec])
    manifest = result.manifest
    trace_path = manifest.artifacts.get("trace")
    if trace_path:
        with open(trace_path) as fh:
            problems = validate_chrome_trace(json.load(fh))
        if problems:
            print(f"error: invalid Chrome trace written to {trace_path}:",
                  file=sys.stderr)
            for problem in problems[:10]:
                print(f"  - {problem}", file=sys.stderr)
            if len(problems) > 10:
                print(f"  ... and {len(problems) - 10} more",
                      file=sys.stderr)
            return 1
    if args.format == "json":
        print(manifest.to_json())
        return 0
    assert result.recorder is not None
    print(f"{args.kind} seed={args.seed} traced in "
          f"{manifest.wall_time_s:.2f}s")
    print(summary_table(result.recorder, max_rows=args.max_rows))
    for name in sorted(manifest.artifacts):
        print(f"{name:>8}: {manifest.artifacts[name]}")
    if result.manifest_path:
        print(f"manifest: {result.manifest_path}")
    print("open the trace at https://ui.perfetto.dev "
          "(or chrome://tracing)")
    return 0


def cmd_health(args: argparse.Namespace) -> int:
    import json

    if args.replay is not None:
        from .obs.health import replay_trace_dir

        try:
            report = replay_trace_dir(args.replay)
        except (FileNotFoundError, NotADirectoryError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        from .engine import Runner, get_experiment

        fixed = _parse_assignments(args.set, split_values=False)
        try:
            spec = get_experiment(args.kind).spec(seed=args.seed, **fixed)
        except Exception as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # no cache: a hit would skip execution and monitor nothing
        runner = Runner(
            cache=None,
            backend="serial",
            manifest_dir=args.out_dir,
            trace_dir=args.out_dir,
            health=True,
        )
        result = runner.run([spec])
        report = result.health_report
        assert report is not None
        if args.format == "text":
            for name in sorted(result.manifest.artifacts):
                print(f"{name:>10}: {result.manifest.artifacts[name]}")
    if args.format == "json":
        print(json.dumps(report.to_jsonable(), indent=2, sort_keys=True))
    else:
        print(report.render_text(max_incidents=args.max_incidents))
    return report.exit_code


def cmd_exp_compare(args: argparse.Namespace) -> int:
    from .engine import compare_manifests, load_manifest

    try:
        first = load_manifest(args.first)
        second = load_manifest(args.second)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    diffs = compare_manifests(first, second)
    if not diffs:
        print(f"equivalent: {len(first.records)} experiment(s) match "
              "(timing ignored)")
        return 0
    print(f"{len(diffs)} difference(s):")
    for diff in diffs:
        spec = diff["spec"]
        print(f"  {spec[0]} seed={spec[2]} [{diff['kind']}] {diff['detail']}")
    return 1


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .obs import Recorder
    from .serve import ServeDaemon, ServeState

    if args.input:
        topo = load_topology(args.input)
    else:
        topo = _build_topology(args)
    recorder = Recorder()
    # the first shared_router() call on topo: the live router reports
    # its cache counters to the daemon's /metrics
    state = ServeState(topo, recorder=recorder)
    daemon = ServeDaemon(
        state,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_delay_s=args.batch_window_ms / 1000.0,
        recorder=recorder,
    )

    async def _run() -> None:
        await daemon.start()
        print(
            f"serving {len(topo.hosts)} hosts / {len(topo.switches)} "
            f"switches on http://{daemon.host}:{daemon.port}",
            flush=True,
        )
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, daemon.request_stop)
            except NotImplementedError:
                pass
        await daemon.serve_until_stopped()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HPN (SIGCOMM 2024) reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a fabric and print its inventory")
    _add_build_args(p)
    p.add_argument("--output", "-o", help="save the topology as JSON")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser(
        "check",
        help="unified gate: run every rule family "
             "(TOPO/WIRE/FWD/LINT/SEM) into one report",
    )
    _add_build_args(p)
    p.add_argument("paths", nargs="*",
                   help="source tree to lint/index (default: the "
                        "installed repro package)")
    p.add_argument("--input", "-i",
                   help="topology JSON for the TOPO/WIRE/FWD families "
                        "(default: build one from the --arch options)")
    p.add_argument("--family",
                   help="comma-separated families to run "
                        "(TOPO,WIRE,FWD,LINT,SEM; default: all)")
    p.add_argument("--probe-pairs", type=int, default=32,
                   help="host pairs to probe in the forwarding check")
    p.add_argument("--format", choices=["text", "json", "sarif"],
                   default="text")
    p.add_argument("--baseline", default="SEM_BASELINE.json",
                   help="grandfathered-findings file "
                        "(default: SEM_BASELINE.json)")
    p.add_argument("--update-baseline", action="store_true",
                   help="rewrite the baseline from the current findings "
                        "and exit 0")
    p.add_argument("--strict", action="store_true",
                   help="warnings also fail the gate")
    p.add_argument("--list-rules", action="store_true",
                   help="print the full rule catalogue and exit")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("complexity", help="print Table 1")
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser(
        "route",
        help="route sample flows through the cached forwarding plane",
    )
    _add_build_args(p)
    p.add_argument("--src", help="source host (default: first active host)")
    p.add_argument("--dst", help="destination host (default: last active host)")
    p.add_argument("--rail", type=int, default=0)
    p.add_argument("--plane", type=int, default=None,
                   help="preferred NIC port/plane (default: first usable)")
    p.add_argument("--sport", type=int, default=49152)
    p.add_argument("--conns", type=int, default=2,
                   help="connections (distinct sports) per pair")
    p.add_argument("--pairs", type=int, default=64,
                   help="host pairs to sweep when no --src/--dst given")
    p.add_argument("--repeat", type=int, default=2,
                   help="sweep passes (pass 2+ exercises the cache)")
    p.add_argument("--stats", action="store_true",
                   help="print route-cache hit/compile counters")
    p.set_defaults(func=cmd_route)

    p = sub.add_parser(
        "serve",
        help="what-if routing/telemetry daemon over the warm route cache",
    )
    _add_build_args(p)
    p.add_argument("--input", "-i",
                   help="load a topology JSON instead of building")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8123,
                   help="TCP port (0 picks a free one)")
    p.add_argument("--max-batch", type=int, default=64,
                   help="flush a micro-batch at this many queries")
    p.add_argument("--batch-window-ms", type=float, default=2.0,
                   help="flush a micro-batch this long after its first query")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("train", help="simulate one training iteration")
    _add_build_args(p)
    p.add_argument("--model", default="llama-7b", choices=sorted(_MODELS))
    p.add_argument("--job-hosts", type=int, default=8)
    p.add_argument("--pp", type=int, default=1)
    p.add_argument("--microbatches", type=int, default=18)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("inject", help="fault-injection drill (Figure 18)")
    _add_build_args(p)
    p.add_argument("--model", default="llama-7b", choices=sorted(_MODELS))
    p.add_argument("--job-hosts", type=int, default=8)
    p.add_argument("--microbatches", type=int, default=18)
    p.add_argument("--fail-at", type=float, default=10.0)
    p.add_argument("--repair-at", type=float, default=60.0)
    p.add_argument("--duration", type=float, default=300.0)
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser(
        "fleet",
        help="multi-job fleet simulation (churn / interference)",
    )
    p.add_argument("--mode", default="churn",
                   choices=["churn", "interference"])
    p.add_argument("--arch", default="hpn", choices=["hpn", "dcnplus"])
    p.add_argument("--segments", type=int, default=4)
    p.add_argument("--hosts", type=int, default=16,
                   help="hosts per segment")
    p.add_argument("--aggs", type=int, default=8,
                   help="aggs per plane (hpn)")
    p.add_argument("--policy", default="pack",
                   help="placement policy (pack/spread/interleave)")
    p.add_argument("--arrivals", type=int, default=60)
    p.add_argument("--snapshots", type=int, default=3,
                   help="interference snapshots over the run")
    p.add_argument("--interarrival", type=float, default=120.0,
                   help="mean interarrival (seconds)")
    p.add_argument("--duration", type=float, default=3600.0,
                   help="mean job duration (seconds)")
    p.add_argument("--no-frontend", action="store_true",
                   help="skip the frontend traffic classes")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser("exp", help="experiment engine (list/run/compare)")
    exp_sub = p.add_subparsers(dest="exp_command", required=True)

    q = exp_sub.add_parser("list", help="show the experiment catalogue")
    q.add_argument("--verbose", "-v", action="store_true",
                   help="also print each experiment's default params")
    q.set_defaults(func=cmd_exp_list)

    q = exp_sub.add_parser("run", help="run a cached, seeded batch")
    q.add_argument("kind", help="experiment name (see `exp list`)")
    q.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="fix one param (repeatable)")
    q.add_argument("--grid", action="append", metavar="KEY=V1,V2,...",
                   help="sweep one param over values (repeatable; "
                        "cartesian product across --grid options)")
    q.add_argument("--seed", type=int, default=0,
                   help="base seed; per-experiment seeds derive from it")
    q.add_argument("--backend", choices=["serial", "process"],
                   default="serial")
    q.add_argument("--workers", type=int, default=None,
                   help="process-pool size (default: all cores)")
    q.add_argument("--cache-dir", default=".repro/cache")
    q.add_argument("--no-cache", action="store_true",
                   help="disable the result cache entirely")
    q.add_argument("--force", action="store_true",
                   help="ignore cached results but still refresh them")
    q.add_argument("--manifest-dir", default=".repro/manifests")
    q.add_argument("--format", choices=["text", "json"], default="text")
    q.set_defaults(func=cmd_exp_run)

    q = exp_sub.add_parser("compare",
                           help="diff two run manifests (timing ignored)")
    q.add_argument("first")
    q.add_argument("second")
    q.set_defaults(func=cmd_exp_compare)

    p = sub.add_parser(
        "trace",
        help="run one experiment under the recorder, export a "
             "Perfetto-compatible trace",
    )
    p.add_argument("kind", help="experiment name (see `exp list`)")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="fix one param (repeatable)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".repro/traces",
                   help="where trace/metrics/events artifacts land")
    p.add_argument("--max-rows", type=int, default=40,
                   help="metric series rows in the summary table")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "health",
        help="run an experiment under the health engine (or replay a "
             "trace dir) and report incidents; exits 3 on ERROR",
    )
    p.add_argument("kind", nargs="?", default="health.scenario",
                   help="experiment name (default: health.scenario)")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="fix one param (repeatable)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".repro/traces",
                   help="where trace/health/prometheus artifacts land")
    p.add_argument("--replay", metavar="DIR", default=None,
                   help="re-run the detectors over an existing trace "
                        "dir's metrics-*/events-* artifacts instead of "
                        "executing anything")
    p.add_argument("--max-incidents", type=int, default=20,
                   help="incident lines in the text report")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_health)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
