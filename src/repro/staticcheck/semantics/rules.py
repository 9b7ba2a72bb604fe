"""The SEM rule family: project-wide semantic invariants.

These rules encode the contracts PRs 4-5 made load-bearing but the type
system cannot see:

* ``SEM001`` **epoch discipline** -- every link/switch state mutation
  flows through the ``Topology`` mutators (``set_link_state`` /
  ``fail_node`` / ``recover_node``) so ``state_epoch`` bumps and the
  compiled forwarding plane invalidates; every wiring mutation either
  goes through ``wire()`` or is followed by
  ``notify_structure_changed()`` in the same function. Sanctioned:
  the ``core`` mutators themselves and modules carrying the
  ``# repro: topology-backend`` marker (pluggable fabric backends).
* ``SEM002`` **determinism in engine-cached paths** -- functions
  reachable (via the call graph) from ``@experiment`` entry points
  must not read wall clocks (``time.time``), OS entropy
  (``os.urandom``, ``uuid.uuid4``) or the unseeded global ``random``;
  iteration directly over a set is a warning (hash-seed order leaks
  into payload bytes). ``time.perf_counter`` is allowed: benchmark
  experiments measure wall time on purpose.
* ``SEM003`` **cache coherence** -- in a class carrying an
  ``*_epoch``/``*_cursor`` field, any method reading a memoized
  structure must consult an epoch field or call a refresh/sync helper
  on the same path.
* ``SEM004`` **layering** -- a declarative allowed-edges table over
  the import graph; ``core`` imports nothing above it.
* ``SEM005`` **obs-recorder hot-path discipline** -- recorders
  collapse to ``None`` when disabled; guards must be written
  ``if rec is not None``, never truthiness (`if rec:`), so the hot
  path stays one identity check (extends ``LINT005``).
* ``SEM006`` **dirlink/dense index hygiene** -- the flat solver
  vectors (``cap``/``weight``/``dirlinks``/``link_flows``) are keyed
  by *dense* ids; indexing them with a raw dirlink name, or with an
  index no dominator established, is flagged.

Suppression: the same ``# repro: noqa[SEM001]`` line markers the LINT
family uses, plus the committed baseline file (see :mod:`.baseline`).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from ..ast_rules import RANDOM_MODULE_FNS, _MISSING
from ..diagnostics import Diagnostic, Location, Report, Severity
from ..registry import SEMANTIC_RULES, semantic_rule
from .callgraph import CallGraph, experiment_entry_points
from .index import FunctionInfo, ModuleInfo, ProjectIndex


@dataclass
class SemContext:
    """One semantic-analysis run over a built index."""

    index: ProjectIndex
    report: Report = field(default_factory=Report)
    _callgraph: Optional[CallGraph] = None

    @property
    def callgraph(self) -> CallGraph:
        """The call graph, built once and shared by every rule."""
        if self._callgraph is None:
            self._callgraph = CallGraph(self.index)
        return self._callgraph

    def relname(self, mod: ModuleInfo) -> str:
        """Module name with the project prefix stripped (``core.topology``)."""
        prefix = self.index.project + "."
        return mod.name[len(prefix):] if mod.name.startswith(prefix) else mod.name

    def emit(
        self,
        rule_id: str,
        mod: ModuleInfo,
        lineno: int,
        message: str,
        severity: Optional[Severity] = None,
    ) -> Diagnostic:
        info = SEMANTIC_RULES[rule_id].info
        allowed = mod.noqa.get(lineno, _MISSING)
        suppressed = allowed is None or (
            allowed is not _MISSING and rule_id in allowed
        )
        return self.report.add(
            Diagnostic(
                rule_id=rule_id,
                severity=severity if severity is not None else info.severity,
                message=message,
                location=Location(file=mod.path, line=lineno),
                suppressed=suppressed,
            )
        )


# ----------------------------------------------------------------------
# SEM001: epoch discipline
# ----------------------------------------------------------------------
#: modules (project-relative) that ARE the sanctioned mutation surface
EPOCH_SANCTIONED_MODULES = frozenset({
    "core.topology",   # the mutators themselves
    "core.entities",   # dataclass definitions of Link/Switch state
    "core.serialize",  # deserialization constructs state wholesale
})

#: attribute names whose assignment flips link/switch *state*
STATE_ATTRS = frozenset({"up"})
#: attribute names whose assignment rewires *structure*
STRUCTURE_ATTRS = frozenset({"link_id"})
#: container attributes owned by Topology (subscript/del/pop mutations)
ADJACENCY_ATTRS = frozenset({"links", "ports"})
_MUTATING_METHODS = frozenset({"pop", "clear", "update", "setdefault",
                               "popitem", "__setitem__", "__delitem__"})
#: calling one of these inside a function sanctions its structure rewires
_STRUCTURE_NOTIFIERS = frozenset({"notify_structure_changed", "wire"})


def _assign_targets(node: ast.AST) -> List[ast.AST]:
    if isinstance(node, ast.Assign):
        return list(node.targets)
    if isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        return [node.target]
    return []


def _calls_structure_notifier(fn_node: ast.AST) -> bool:
    for node in ast.walk(fn_node):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _STRUCTURE_NOTIFIERS
        ):
            return True
    return False


def _receiver_text(node: ast.AST) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{_receiver_text(node.value)}.{node.attr}"
    if isinstance(node, ast.Subscript):
        return f"{_receiver_text(node.value)}[...]"
    return "<expr>"


@semantic_rule("SEM001", "topology state mutations flow through the "
               "Topology mutators (epoch discipline)", Severity.ERROR)
def rule_epoch_discipline(ctx: SemContext) -> None:
    for mod in ctx.index.modules.values():
        rel = ctx.relname(mod)
        if rel in EPOCH_SANCTIONED_MODULES or mod.is_backend:
            continue
        for fn in mod.functions.values():
            sanctioned_structure = _calls_structure_notifier(fn.node)
            for node in ast.walk(fn.node):
                # attribute stores: x.up = ..., port.link_id = ...
                for tgt in _assign_targets(node):
                    if not isinstance(tgt, ast.Attribute):
                        continue
                    recv = _receiver_text(tgt.value)
                    if tgt.attr in STATE_ATTRS:
                        ctx.emit(
                            "SEM001", mod, tgt.lineno,
                            f"direct state write `{recv}.{tgt.attr} = ...` "
                            "bypasses Topology.set_link_state/fail_node/"
                            "recover_node: state_epoch never bumps and "
                            "compiled routers/caches serve stale paths",
                        )
                    elif tgt.attr in STRUCTURE_ATTRS and not sanctioned_structure:
                        ctx.emit(
                            "SEM001", mod, tgt.lineno,
                            f"structure rewire `{recv}.{tgt.attr} = ...` "
                            "without Topology.wire() or "
                            "notify_structure_changed() in the same "
                            "function: structure_epoch never bumps",
                        )
                # adjacency container mutations: topo.links.pop(...),
                # topo.ports[x] = ..., del topo.links[k]
                if isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute
                ):
                    inner = node.func.value
                    if (
                        node.func.attr in _MUTATING_METHODS
                        and isinstance(inner, ast.Attribute)
                        and inner.attr in ADJACENCY_ATTRS
                        and not sanctioned_structure
                    ):
                        ctx.emit(
                            "SEM001", mod, node.lineno,
                            f"adjacency mutation `{_receiver_text(inner)}"
                            f".{node.func.attr}(...)` outside the Topology "
                            "mutators; wire()/notify_structure_changed() "
                            "must accompany out-of-band rewiring",
                        )
                if isinstance(node, (ast.Assign, ast.Delete)):
                    for tgt in (
                        node.targets if isinstance(node, (ast.Assign,
                                                          ast.Delete))
                        else []
                    ):
                        if (
                            isinstance(tgt, ast.Subscript)
                            and isinstance(tgt.value, ast.Attribute)
                            and tgt.value.attr in ADJACENCY_ATTRS
                            and not sanctioned_structure
                        ):
                            ctx.emit(
                                "SEM001", mod, tgt.lineno,
                                f"adjacency mutation on "
                                f"`{_receiver_text(tgt.value)}[...]` outside "
                                "the Topology mutators; use wire() or call "
                                "notify_structure_changed()",
                            )


# ----------------------------------------------------------------------
# SEM002: determinism in engine-cached paths
# ----------------------------------------------------------------------
#: ``module attr`` pairs that read wall clocks / OS entropy
_NONDET_ATTR_CALLS = {
    ("time", "time"): "time.time() reads the wall clock",
    ("time", "time_ns"): "time.time_ns() reads the wall clock",
    ("os", "urandom"): "os.urandom() reads OS entropy",
    ("uuid", "uuid4"): "uuid.uuid4() reads OS entropy",
}
_NONDET_BOUND = {
    "time.time": "time.time() reads the wall clock",
    "time.time_ns": "time.time_ns() reads the wall clock",
    "os.urandom": "os.urandom() reads OS entropy",
    "uuid.uuid4": "uuid.uuid4() reads OS entropy",
}


def _is_set_expr(node: ast.AST, set_locals: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    return isinstance(node, ast.Name) and node.id in set_locals


@semantic_rule("SEM002", "no nondeterminism reachable from engine "
               "experiments (cache/parallel-equivalence contract)",
               Severity.ERROR)
def rule_engine_determinism(ctx: SemContext) -> None:
    index = ctx.index
    roots = experiment_entry_points(index)
    if not roots:
        return
    reachable = ctx.callgraph.reachable_from(roots)
    ctx.report.stats["sem002_entry_points"] = len(roots)
    ctx.report.stats["sem002_reachable_functions"] = len(reachable)
    for qual in sorted(reachable):
        fn = index.functions[qual]
        mod = index.modules[fn.module]
        # locals assigned a set in this function (for iteration checks)
        set_locals: Set[str] = set()
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                tgt = node.targets[0]
                if isinstance(tgt, ast.Name) and _is_set_expr(
                    node.value, set()
                ):
                    set_locals.add(tgt.id)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                self_msg = self_msg_for_call(node, fn, mod)
                if self_msg is not None:
                    ctx.emit(
                        "SEM002", mod, node.lineno,
                        f"{self_msg} inside {fn.name}(), reachable from "
                        "an @experiment entry point: payloads stop being "
                        "a pure function of (params, seed), poisoning the "
                        "content-addressed cache and the parallel==serial "
                        "byte-equivalence guarantee",
                    )
            iters: List[ast.AST] = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if _is_set_expr(it, set_locals):
                    ctx.emit(
                        "SEM002", mod, node.lineno,
                        f"iteration over a set inside {fn.name}(), "
                        "reachable from an @experiment entry point: "
                        "hash-seed-dependent order can leak into cached "
                        "payload bytes; iterate sorted(...) instead",
                        severity=Severity.WARNING,
                    )


def self_msg_for_call(node: ast.Call, fn: FunctionInfo,
                      mod: ModuleInfo) -> Optional[str]:
    """Nondeterminism description for a call node, or None."""
    func = node.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        key = (func.value.id, func.attr)
        if key in _NONDET_ATTR_CALLS:
            return _NONDET_ATTR_CALLS[key]
        if func.value.id == "random":
            if func.attr in RANDOM_MODULE_FNS:
                return (f"random.{func.attr}() uses the unseeded global "
                        "generator")
            if func.attr == "Random" and not node.args and not node.keywords:
                return "random.Random() without a seed"
    elif isinstance(func, ast.Name):
        target = fn.local_imports.get(func.id) or mod.bindings.get(func.id)
        if target in _NONDET_BOUND:
            return _NONDET_BOUND[target]
    return None


# ----------------------------------------------------------------------
# SEM003: cache coherence
# ----------------------------------------------------------------------
_EPOCHISH = re.compile(r"(_epoch|_cursor)s?$")
_MEMOISH_NAME = re.compile(r"(cache|memo)", re.IGNORECASE)
_SYNCISH = re.compile(
    r"(sync|refresh|invalidate|reset|clear|compile|rebuild|flush)",
    re.IGNORECASE,
)


def _memo_fields(cls_node: ast.ClassDef) -> Set[str]:
    """Instance attrs that hold memoized structures.

    Matched by name (contains cache/memo) or by construction: assigned
    a call whose constructor name contains Cache/Memo.
    """
    out: Set[str] = set()
    for node in ast.walk(cls_node):
        if not isinstance(node, ast.Assign):
            continue
        for tgt in node.targets:
            if not (
                isinstance(tgt, ast.Attribute)
                and isinstance(tgt.value, ast.Name)
                and tgt.value.id == "self"
            ):
                continue
            if _MEMOISH_NAME.search(tgt.attr):
                out.add(tgt.attr)
            elif isinstance(node.value, ast.Call):
                head = node.value.func
                name = head.attr if isinstance(head, ast.Attribute) else (
                    head.id if isinstance(head, ast.Name) else ""
                )
                if _MEMOISH_NAME.search(name):
                    out.add(tgt.attr)
    return out


def _method_touches_epoch(fn_node: ast.AST) -> bool:
    """Does the body read/write any ``*_epoch``/``*_cursor`` attribute?"""
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Attribute) and _EPOCHISH.search(node.attr):
            return True
    return False


def _self_calls(fn_node: ast.AST) -> Set[str]:
    out: Set[str] = set()
    for node in ast.walk(fn_node):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
        ):
            out.add(node.func.attr)
    return out


@semantic_rule("SEM003", "memoized reads in epoch-carrying classes check "
               "the epoch (cache coherence)", Severity.WARNING)
def rule_cache_coherence(ctx: SemContext) -> None:
    index = ctx.index
    for cls in index.classes.values():
        epochs = {a for a in cls.attrs if _EPOCHISH.search(a)}
        if not epochs:
            continue
        memos = _memo_fields(cls.node)
        if not memos:
            continue
        mod = index.modules[cls.module]
        # pass 1: which methods themselves touch an epoch / are syncish
        checks: Dict[str, bool] = {}
        nodes: Dict[str, ast.AST] = {}
        for name, qual in cls.methods.items():
            fn = index.functions[qual]
            nodes[name] = fn.node
            checks[name] = (
                bool(_SYNCISH.search(name))
                or _method_touches_epoch(fn.node)
            )
        # pass 2: methods reading a memo need a check on the path
        for name, qual in cls.methods.items():
            if name.startswith("__") or checks[name]:
                continue
            fn = index.functions[qual]
            reads = [
                node for node in ast.walk(fn.node)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in memos
                and isinstance(node.ctx, ast.Load)
            ]
            if not reads:
                continue
            if any(checks.get(callee, False) for callee in _self_calls(fn.node)):
                continue
            memo_names = sorted({r.attr for r in reads})
            ctx.emit(
                "SEM003", mod, reads[0].lineno,
                f"{cls.name}.{name}() reads memoized "
                f"{'/'.join(memo_names)} without consulting "
                f"{'/'.join(sorted(epochs))} or calling a refresh/sync "
                "helper: a stale epoch serves stale entries",
            )


# ----------------------------------------------------------------------
# SEM004: layering (declarative allowed-edges over the import graph)
# ----------------------------------------------------------------------
#: who may import whom, by subpackage. Keys are dotted package paths
#: relative to the project root; a module is governed by its *longest*
#: matching key (``repro.obs.health.detectors`` -> ``obs.health`` if
#: present, else ``obs``). ``core`` is the foundation: it imports
#: nothing else. The table is the architecture doc the import graph is
#: checked against -- extend it consciously.
ALLOWED_IMPORTS: Dict[str, Set[str]] = {
    "core": set(),
    "hardware": {"core"},
    "obs": {"core", "engine"},  # engine: the obs-overhead benchmark
    # the health engine's detectors/replay must work anywhere a trace
    # dir exists -- ``engine`` is deliberately absent (the engine layer
    # calls *into* obs.health, never the reverse); the simulation-layer
    # edges are for the seeded fault-injection scenario body
    "obs.health": {"core", "obs", "topos", "access", "routing", "fabric",
                   "collective", "cluster", "fleet", "workloads",
                   "training"},
    "topos": {"core", "obs", "staticcheck"},  # staticcheck: validate gate
    "access": {"core", "obs", "topos", "routing"},
    "routing": {"core", "obs", "topos", "access", "staticcheck"},
    "telemetry": {"core", "obs", "topos", "routing"},
    "fabric": {"core", "obs", "topos", "routing", "cluster"},
    "collective": {"core", "obs", "topos", "routing", "fabric"},
    "training": {"core", "obs", "topos", "routing", "fabric", "collective"},
    "workloads": {"core", "obs", "topos", "routing", "fabric", "collective",
                  "training", "cluster"},
    "reliability": {"core", "obs", "topos", "routing", "fabric",
                    "collective", "training"},
    "analysis": {"core", "obs", "topos", "routing", "fabric", "collective",
                 "training", "reliability", "engine", "cluster", "hardware"},
    "cluster": {"core", "obs", "topos", "access", "routing", "fabric",
                "collective", "training", "telemetry", "reliability"},
    "engine": {"core", "obs", "cluster", "collective", "fabric",
               "reliability", "routing", "topos", "training", "analysis",
               "fleet", "serve"},
    # fleet composes the substrates into multi-job cluster scenarios;
    # engine is allowed for derive_seed only (spec module, no cycle)
    "fleet": {"core", "obs", "topos", "routing", "fabric", "collective",
              "training", "workloads", "cluster", "engine"},
    "staticcheck": {"core", "obs", "topos", "telemetry", "routing",
                    "access"},
    # the serving layer fronts warm routing state over HTTP; topos is
    # for the bench's fabric builder only
    "serve": {"core", "obs", "topos", "routing"},
    "viz": {"core", "obs", "topos", "routing", "fabric"},
    "cli": {"core", "obs", "topos", "routing", "cluster", "training",
            "reliability", "engine", "staticcheck", "viz", "collective",
            "fleet", "serve"},
    # top-level modules: the package root re-exports the user-facing
    # surface; __main__ just dispatches into the CLI
    "repro": {"core", "topos", "cluster"},
    "__main__": {"cli"},
}


def _layering_key(mod: ModuleInfo) -> str:
    """Most specific ALLOWED_IMPORTS key governing ``mod``.

    Walks the module's package path (project root stripped, module leaf
    excluded for plain modules) from longest dotted prefix down; falls
    back to the top-level subpackage (``mod.package``).
    """
    parts = mod.name.split(".")
    rel = parts[1:] if len(parts) > 1 else parts
    pkg_parts = rel if mod.is_package else rel[:-1]
    for depth in range(len(pkg_parts), 1, -1):
        key = ".".join(pkg_parts[:depth])
        if key in ALLOWED_IMPORTS:
            return key
    return mod.package


@semantic_rule("SEM004", "package layering follows the declared "
               "allowed-edges table", Severity.ERROR)
def rule_layering(ctx: SemContext) -> None:
    index = ctx.index
    for mod in index.modules.values():
        src_pkg = _layering_key(mod)
        allowed = ALLOWED_IMPORTS.get(src_pkg)
        if allowed is None:
            # a package the table has never heard of: require an
            # explicit entry before it may import anything project-side
            if any(t.startswith(index.project) for t in mod.import_edges):
                ctx.emit(
                    "SEM004", mod, 1,
                    f"package {src_pkg!r} is not in the SEM004 "
                    "allowed-imports table; add a conscious entry in "
                    "staticcheck/semantics/rules.py",
                    severity=Severity.WARNING,
                )
            continue
        for tgt in sorted(mod.import_edges):
            if tgt in index.modules:
                tgt_pkg = index.modules[tgt].package
            else:
                parts = tgt.split(".")
                tgt_pkg = parts[1] if len(parts) > 1 else parts[0]
            if tgt_pkg == src_pkg or tgt_pkg in allowed:
                continue
            if tgt == index.project or tgt_pkg == index.project:
                continue  # importing the bare package root
            lineno = _import_lineno(mod, tgt)
            ctx.emit(
                "SEM004", mod, lineno,
                f"layering violation: {src_pkg!r} imports {tgt_pkg!r} "
                f"({mod.name} -> {tgt}), not an allowed edge in "
                "ALLOWED_IMPORTS",
            )


def _import_lineno(mod: ModuleInfo, target: str) -> int:
    """Best-effort line of the import statement that pulls ``target``."""
    leaf = target.split(".")[-1]
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.ImportFrom):
            names = {a.name for a in node.names}
            if (node.module or "").endswith(leaf) or leaf in names:
                return node.lineno
        elif isinstance(node, ast.Import):
            if any(a.name == target or a.name.endswith("." + leaf)
                   for a in node.names):
                return node.lineno
    return 1


# ----------------------------------------------------------------------
# SEM005: obs-recorder hot-path discipline
# ----------------------------------------------------------------------
_RECORDERISH = re.compile(r"(^|_)(rec|recorder)$")


def _recorderish(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name) and _RECORDERISH.search(node.id):
        return node.id
    if isinstance(node, ast.Attribute) and _RECORDERISH.search(node.attr):
        return _receiver_text(node)
    return None


@semantic_rule("SEM005", "recorder guards use `is not None`, never "
               "truthiness (hot-path discipline)", Severity.ERROR)
def rule_recorder_guard(ctx: SemContext) -> None:
    for mod in ctx.index.modules.values():
        if ctx.relname(mod).startswith("obs"):
            continue  # the obs package defines the recorder's own API
        for fn in mod.functions.values():
            for node in ast.walk(fn.node):
                tests: List[ast.AST] = []
                if isinstance(node, (ast.If, ast.While, ast.IfExp)):
                    tests.append(node.test)
                elif isinstance(node, ast.Assert):
                    tests.append(node.test)
                for test in tests:
                    exprs = [test]
                    if isinstance(test, ast.BoolOp):
                        exprs = list(test.values)
                    for expr in exprs:
                        if isinstance(expr, ast.UnaryOp) and isinstance(
                            expr.op, ast.Not
                        ):
                            expr = expr.operand
                        name = _recorderish(expr)
                        if name is not None:
                            ctx.emit(
                                "SEM005", mod, expr.lineno,
                                f"truthiness test on recorder `{name}`; "
                                "disabled recorders collapse to None -- "
                                "write `is not None` so the hot path "
                                "stays one identity check (see "
                                "docs/observability.md)",
                            )


# ----------------------------------------------------------------------
# SEM006: dirlink/dense index hygiene in the solver core
# ----------------------------------------------------------------------
#: flat vectors keyed by *dense* ids in fabric.incidence / fabric.solver
FLAT_FIELDS = frozenset({"cap", "weight", "dirlinks", "link_flows"})
_SOLVER_MODULES = frozenset({"fabric.incidence", "fabric.solver",
                             "fabric.kernel"})
#: index names that smell like *raw* (sparse) dirlink ids
_RAWISH = re.compile(r"(^|_)(raw|dirlink|dl)(_|$)")
#: parameter names trusted to carry dense ids by convention
_DENSEISH = re.compile(r"(^|_)dense(_|$)|^(d|idx)$")


def _established_names(fn_node: ast.AST) -> Set[str]:
    """Names bound by dominators that establish bounds: loop and
    comprehension targets, unpacking, and assignments from calls /
    subscripts / constants / already-established names."""
    est: Set[str] = set()

    def bind(target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            est.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                bind(elt)

    changed = True
    while changed:
        changed = False
        before = len(est)
        for node in ast.walk(fn_node):
            if isinstance(node, ast.For):
                bind(node.target)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    bind(gen.target)
            elif isinstance(node, ast.Assign):
                value = node.value
                ok = isinstance(value, (ast.Call, ast.Subscript, ast.Constant))
                if isinstance(value, ast.Name) and value.id in est:
                    ok = True
                if isinstance(value, ast.BinOp):
                    frees = {
                        n.id for n in ast.walk(value)
                        if isinstance(n, ast.Name)
                    }
                    ok = frees <= est
                if ok:
                    for tgt in node.targets:
                        bind(tgt)
        changed = len(est) > before
    return est


@semantic_rule("SEM006", "flat solver vectors are indexed by dense ids "
               "established by a dominator", Severity.WARNING)
def rule_dense_index_hygiene(ctx: SemContext) -> None:
    index = ctx.index
    for mod in index.modules.values():
        if ctx.relname(mod) not in _SOLVER_MODULES:
            continue
        for fn in mod.functions.values():
            params = {
                a.arg for a in getattr(fn.node, "args",
                                       ast.arguments(
                                           posonlyargs=[], args=[],
                                           kwonlyargs=[], kw_defaults=[],
                                           defaults=[])).args
            }
            established = _established_names(fn.node)
            # locals aliasing flat vectors (residual = array("d", idx.cap))
            aliases: Set[str] = set()
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    tgt = node.targets[0]
                    if not isinstance(tgt, ast.Name):
                        continue
                    val = node.value
                    if isinstance(val, ast.Attribute) and val.attr in FLAT_FIELDS:
                        aliases.add(tgt.id)
                    elif (
                        isinstance(val, ast.Call)
                        and isinstance(val.func, ast.Name)
                        and val.func.id == "array"
                    ):
                        aliases.add(tgt.id)
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Subscript):
                    continue
                value = node.value
                is_flat = (
                    isinstance(value, ast.Attribute)
                    and value.attr in FLAT_FIELDS
                ) or (isinstance(value, ast.Name) and value.id in aliases)
                if not is_flat:
                    continue
                idx_expr = node.slice
                if not isinstance(idx_expr, ast.Name):
                    continue  # slices/constants/computed: other rules' turf
                name = idx_expr.id
                vec = (value.attr if isinstance(value, ast.Attribute)
                       else value.id)
                if _RAWISH.search(name) and name != "dense":
                    ctx.emit(
                        "SEM006", mod, node.lineno,
                        f"`{vec}[{name}]` indexes a dense flat vector "
                        "with a raw dirlink id; map it through "
                        "IncidenceIndex.dense()/dense_of first",
                        severity=Severity.ERROR,
                    )
                elif name not in established and not (
                    name in params and _DENSEISH.search(name)
                ):
                    ctx.emit(
                        "SEM006", mod, node.lineno,
                        f"`{vec}[{name}]` index has no bounds-establishing "
                        "dominator (loop over the index, .dense()/dense_of "
                        "lookup, or a dense-named parameter)",
                    )


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------
def run_semantic_rules(
    index: ProjectIndex,
    rule_ids: Optional[Sequence[str]] = None,
    report: Optional[Report] = None,
) -> Report:
    """Run the SEM family over a built index, one shared context."""
    report = report if report is not None else Report()
    ctx = SemContext(index=index, report=report)
    wanted = set(rule_ids) if rule_ids is not None else None
    for rid in sorted(SEMANTIC_RULES):
        if wanted is not None and rid not in wanted:
            continue
        SEMANTIC_RULES[rid].impl(ctx)
        report.bump("semantic_rules_run")
    for key, val in index.stats.items():
        report.stats[f"index_{key}"] = val
    return report
