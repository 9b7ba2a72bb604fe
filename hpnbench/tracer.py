"""Wall-clock spans around the program's public functions.

The traced repetition of every workload installs a :class:`Tracer`:
it replaces each layer's public entry points (listed in
:data:`LAYER_TARGETS` and :data:`EVERYWHERE_TARGETS`) with wrappers
that record one span per call -- name, start, end, parent span and
run id -- into memory. Nothing under ``src/`` knows about it, and the
untraced repetitions never install it.

A wrapper may attach a small ``info`` dict to its span (messages
sent, solve mode, probes made...), so every count is derived from
spans and can be restricted to a phase like the times are.

Spans nest on one thread, so a span's *self time* is its duration
minus the durations of its direct children. Summed over every span of
a phase, self times equal the time covered by the phase's root spans;
the rest of the phase's wall time is the ``other`` bucket.

All timestamps come from :func:`time.perf_counter`, which on Linux is
``CLOCK_MONOTONIC`` and therefore comparable across the benchmark's
processes (the serve daemon records spans in its own process).
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

clock = time.perf_counter

def _iteration_name(args: Sequence[Any]) -> str:
    """``training.iteration.<architecture>`` of the job being iterated."""
    return "training.iteration." + str(
        args[0].topo.meta.get("architecture", "unknown"))


#: (module, class, methods, span name or ``args -> name``) wrapped on
#: the class itself, so every instance and every subclass that inherits
#: the method is seen. A target missing from the program is reported,
#: not fatal.
LAYER_TARGETS: Sequence[Tuple[str, str, Sequence[str], Any]] = (
    ("repro.routing.fib", "Fib", ("__init__",), "routing.fib_compile"),
    ("repro.routing.ecmp", "Router", ("path_for",), "routing.path_for"),
    ("repro.routing.cache", "CachedRouter", ("path_for",), "routing.path_for"),
    ("repro.routing.cache", "CachedRouter", ("route_many",), "routing.route_many"),
    ("repro.collective.lb", "MessageScheduler", ("send_all",), "collective.send_all"),
    ("repro.collective.comm", "Communicator", ("edge_flows",), "collective.edge_flows"),
    ("repro.training.job", "TrainingJob", ("iteration",), _iteration_name),
    ("repro.fabric.simulator", "FluidSimulator", ("run",), "fabric.event_loop"),
    ("repro.fabric.incidence", "IncidenceIndex",
     ("add", "remove", "refresh_capacities", "component", "components"),
     "fabric.index"),
    ("repro.obs.health.samplers", "SamplerHub", ("sample_fluid",), "obs.sample_fluid"),
    ("repro.obs.health.engine", "HealthEngine", ("finalize",), "obs.finalize"),
    ("repro.serve.query", "Query", ("from_jsonable",), "serve.decode"),
)

#: module-level functions, replaced in every loaded ``repro`` module
#: that imported them by name
EVERYWHERE_TARGETS: Sequence[Tuple[str, str, str]] = (
    ("repro.topos.hpn", "build_hpn", "topos.build"),
    ("repro.topos.dcnplus", "build_dcnplus", "topos.build"),
    ("repro.routing.repac", "find_paths", "routing.repac"),
    ("repro.collective.lb", "establish_conns", "collective.establish"),
    ("repro.training.iteration", "dp_sync_flows", "training.dp_sync_flows"),
    ("repro.fabric.kernel", "build_snapshot", "fabric.index"),
)

#: modules whose import must precede installation (so by-name imports
#: of the wrapped functions exist to be replaced)
PRELOAD = (
    "repro.cli", "repro.cluster", "repro.fabric", "repro.obs",
    "repro.routing", "repro.serve", "repro.training", "repro.training.job",
)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: [name, start, end, parent index, run id, info dict or None]
        self.spans: List[List[Any]] = []
        self.run_id: Any = 0
        #: targets that no longer exist in the program
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def wrap(self, fn: Callable, name: Any,
             post: Optional[Callable] = None) -> Callable:
        """A wrapper recording one span per call of ``fn``.

        ``name`` is a span name or a callable ``args -> name``; ``post``
        maps ``(args, result, start)`` of a successful call to the
        span's info.
        """
        spans = self.spans
        stack = self._stack
        tracer = self
        namer = name if callable(name) else None

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [namer(args) if namer else name, 0.0, 0.0,
                    stack[-1] if stack else -1, tracer.run_id, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if post is not None:
                span[5] = post(args, result, span[1])
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _lookup(self, mod_name: str, cls_name: str, attr: str) -> Any:
        """``cls.__dict__[attr]``, or None (recorded as missing)."""
        cls = getattr(sys.modules.get(mod_name), cls_name, None)
        raw = vars(cls).get(attr) if isinstance(cls, type) else None
        if raw is None:
            self.missing.append(f"{mod_name}.{cls_name}.{attr}")
        return raw

    def _set_attr(self, mod_name: str, cls_name: str, attr: str,
                  value: Any) -> None:
        self._set(getattr(sys.modules[mod_name], cls_name), attr, value)

    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every target; returns self. Install once per process."""
        import importlib

        for mod in PRELOAD:
            importlib.import_module(mod)
        posts = self._posts()
        for mod_name, cls_name, methods, span in LAYER_TARGETS:
            for meth in methods:
                raw = self._lookup(mod_name, cls_name, meth)
                if isinstance(raw, classmethod):
                    self._set_attr(mod_name, cls_name, meth, classmethod(
                        self.wrap(raw.__func__, span, posts.get(span))))
                elif raw is not None:
                    self._set_attr(mod_name, cls_name, meth,
                                   self.wrap(raw, span, posts.get(span)))
        for mod_name, fn_name, span in EVERYWHERE_TARGETS:
            orig = getattr(sys.modules.get(mod_name), fn_name, None)
            if orig is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            self._replace_everywhere(orig, self.wrap(orig, span, posts.get(span)))
        self._install_solvers()
        self._install_special()
        return self

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _replace_everywhere(self, orig: Callable, wrapper: Callable) -> None:
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._set(module, attr, wrapper)

    def _install_solvers(self) -> None:
        """Wrap ``solve`` on every solver class the fabric exports.

        Found by shape rather than by name (a class exported from
        ``repro.fabric`` defining its own ``solve``), so a consolidated
        solver is still traced.
        """
        import repro.fabric as fabric

        post = self._posts()["fabric.solve"]
        found = False
        for value in vars(fabric).values():
            if isinstance(value, type) and "solve" in value.__dict__:
                self._set(value, "solve",
                          self.wrap(value.__dict__["solve"], "fabric.solve", post))
                found = True
        if not found:
            self.missing.append("repro.fabric.*.solve")

    def _install_special(self) -> None:
        """Targets whose call shape needs more than a plain wrapper."""
        tracer = self

        # batch wait = submit -> start of the batch that answers it;
        # every span inside one batch carries that batch's run id
        submitted: Dict[Any, List[float]] = defaultdict(list)
        submit = self._lookup("repro.serve.batching", "MicroBatcher", "submit")
        execute = self._lookup("repro.serve.state", "ServeState", "execute_batch")
        if submit is not None and execute is not None:
            def timed_submit(batcher, query):
                submitted[query].append(clock())
                return submit(batcher, query)

            def waits(args, results, start):
                return {"waits": [start - t for q in args[1]
                                  for t in submitted.pop(q, ())]}

            traced_execute = self.wrap(execute, "serve.execute_batch", waits)
            batches = iter(range(1, 1 << 62))

            def execute_batch(state, queries):
                tracer.run_id = f"batch{next(batches)}"
                try:
                    return traced_execute(state, queries)
                finally:
                    tracer.run_id = "http"

            self._set_attr("repro.serve.batching", "MicroBatcher", "submit",
                           timed_submit)
            self._set_attr("repro.serve.state", "ServeState", "execute_batch",
                           execute_batch)

        enter_transient = self._lookup("repro.core.topology", "Topology",
                                       "transient_state")
        if enter_transient is None:
            return

        class _SpanCM:
            """Span from ``__enter__`` to ``__exit__`` of a context."""

            def __init__(self, cm):
                self.cm = cm

            def __enter__(self):
                stack = tracer._stack
                self.idx = len(tracer.spans)
                tracer.spans.append(["core.transient_state", clock(), 0.0,
                                     stack[-1] if stack else -1,
                                     tracer.run_id, None])
                stack.append(self.idx)
                return self.cm.__enter__()

            def __exit__(self, *exc):
                try:
                    return self.cm.__exit__(*exc)
                finally:
                    tracer.spans[self.idx][2] = clock()
                    tracer._stack.pop()

        self._set_attr("repro.core.topology", "Topology", "transient_state",
                       lambda topo: _SpanCM(enter_transient(topo)))

    @staticmethod
    def _posts() -> Dict[str, Callable]:
        """Per span name: ``(args, result, start) -> info``."""
        return {
            "routing.repac": lambda args, found, start: {
                "probes": found.attempts, "kept": len(found.probes)},
            "collective.send_all": lambda args, chosen, start: {
                "messages": len(chosen)},
            "collective.edge_flows": lambda args, flows, start: {
                "flows": len(flows)},
            "fabric.solve": lambda args, outcome, start: {
                "mode": outcome.mode, "dirty_frac": outcome.dirty_frac,
                "kernel_iters": outcome.kernel_iters},
            "obs.finalize": lambda args, report, start: {
                "incidents": len(report.incidents)},
        }

    def dump(self) -> Dict[str, Any]:
        """JSON-safe state (the serve daemon hands it to its parent)."""
        return {"spans": self.spans, "missing": self.missing}


# ----------------------------------------------------------------------
# analysis: self times, phases, Chrome trace
# ----------------------------------------------------------------------
def self_times(spans: Sequence[Sequence[Any]]) -> List[float]:
    """Per span: duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        parent = s[3]
        if parent >= 0:
            own[parent] -= s[2] - s[1]
    return own


def phase_of(t: float, phases: Dict[str, Tuple[float, float]]) -> Optional[str]:
    for name, (t0, t1) in phases.items():
        if t0 <= t <= t1:
            return name
    return None


def phase_table(spans: Sequence[Sequence[Any]],
                phases: Dict[str, Tuple[float, float]]
                ) -> Dict[str, Dict[str, float]]:
    """``phase -> span name -> summed self time``, plus ``other``.

    A span belongs to the phase its root span started in; ``other`` is
    the phase's wall time not covered by any root span.
    """
    own = self_times(spans)
    root_of: List[int] = []
    for i, s in enumerate(spans):
        root_of.append(i if s[3] < 0 else root_of[s[3]])
    table: Dict[str, Dict[str, float]] = {p: defaultdict(float) for p in phases}
    covered: Dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        phase = phase_of(spans[root_of[i]][1], phases)
        if phase is None:
            continue
        table[phase][s[0]] += own[i]
        if s[3] < 0:
            covered[phase] += s[2] - s[1]
    for phase, (t0, t1) in phases.items():
        table[phase]["other"] = (t1 - t0) - covered[phase]
    return {p: dict(v) for p, v in table.items()}


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def render_table(table: Dict[str, Dict[str, float]]) -> str:
    """Human-readable per-span self-time table, one column per phase."""
    phases = list(table)
    names = sorted({n for col in table.values() for n in col if n != "other"},
                   key=lambda n: (layer_of(n), n))
    width = max([len(n) for n in names] + [10])
    lines = ["  ".join([f"{'span (self time, s)':<{width}}"]
                       + [f"{p:>12}" for p in phases])]
    for name in names + ["other"]:
        lines.append("  ".join([f"{name:<{width}}"]
                               + [f"{table[p].get(name, 0.0):12.6f}" for p in phases]))
    lines.append("  ".join([f"{'total':<{width}}"]
                           + [f"{sum(table[p].values()):12.6f}" for p in phases]))
    return "\n".join(lines)


def chrome_trace(span_sets: Sequence[Tuple[int, str, Sequence[Sequence[Any]]]],
                 t0: float) -> Dict[str, Any]:
    """Complete (``X``) events, one process per ``(pid, label, spans)``."""
    events: List[Dict[str, Any]] = []
    for pid, label, spans in span_sets:
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 1, "args": {"name": label}})
        for i, (name, start, end, parent, run, info) in enumerate(spans):
            args = {"span": i, "parent": parent, "run": run}
            if info and "waits" not in info:
                args.update(info)
            events.append({
                "name": name, "cat": layer_of(name), "ph": "X",
                "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                "pid": pid, "tid": 1, "args": args,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_json(path: str, obj: Any) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)
