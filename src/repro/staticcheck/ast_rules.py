"""Codebase AST lint rules: simulator-specific hygiene.

A small :class:`ast.NodeVisitor` framework enforcing the conventions a
deterministic network simulator lives or dies by:

* ``LINT001`` -- no ``==``/``!=`` on float-valued bandwidth/latency
  expressions (float literals or unit-suffixed names);
* ``LINT002`` -- no mutable default arguments;
* ``LINT003`` -- no unseeded module-level :mod:`random` calls; all
  randomness flows through an injected, seeded ``random.Random``;
* ``LINT004`` -- numeric quantity fields carry a unit suffix
  (``_gbps``, ``_bytes``, ``_s``...), so 200 can never silently mean
  200 *milliseconds* to one reader and 200 *gigabits* to another;
* ``LINT005`` -- no bare ``print()`` in library code under
  ``src/repro/``; route output through :mod:`repro.obs`'s logger (the
  CLI module, whose job *is* printing, is exempt).

Suppression: append ``# repro: noqa`` (all rules) or
``# repro: noqa[LINT001,LINT003]`` (specific rules) to the offending
line. Suppressed findings are still recorded, marked, and reported.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .diagnostics import Diagnostic, Location, Report, Severity
from .registry import AST_RULES, lint_rule

#: matches ``# repro: noqa`` with an optional bracketed rule list
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Z0-9,\s]+)\])?")

#: suffixes that mark a name as float-valued line-rate / time math
FLOAT_UNIT_SUFFIXES = (
    "_gbps", "_bps", "_gbit", "_gb", "_mb",
    "_seconds", "_secs", "_s", "_ms", "_us", "_ns",
    "_latency", "_bw", "_ratio", "_frac", "_pct",
)

#: recognized unit suffixes that satisfy the naming rule
UNIT_SUFFIXES = FLOAT_UNIT_SUFFIXES + (
    "_bytes", "_b", "_kb", "_tb", "_gbps_per_port", "_per_month",
    "_per_sec", "_per_day", "_months", "_days", "_hours", "_hops",
    "_x",
)

#: field-name stems that denote a physical quantity needing a unit
QUANTITY_STEMS = (
    "bandwidth", "latency", "delay", "duration", "timeout",
    "interval", "capacity", "period",
)

#: module-level random functions whose global state is unseeded
RANDOM_MODULE_FNS = frozenset({
    "random", "randint", "randrange", "uniform", "gauss",
    "normalvariate", "lognormvariate", "expovariate", "betavariate",
    "gammavariate", "paretovariate", "vonmisesvariate", "weibullvariate",
    "triangular", "choice", "choices", "shuffle", "sample", "seed",
    "getrandbits", "randbytes",
})


def _noqa_lines(source: str) -> Dict[int, Optional[Set[str]]]:
    """Map 1-based line number -> suppressed rule ids (None = all)."""
    out: Dict[int, Optional[Set[str]]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _NOQA_RE.search(line)
        if not m:
            continue
        rules = m.group("rules")
        if rules is None:
            out[lineno] = None
        else:
            out[lineno] = {r.strip() for r in rules.split(",") if r.strip()}
    return out


@dataclass
class LintContext:
    """One file being linted."""

    path: str
    tree: ast.AST
    noqa: Dict[int, Optional[Set[str]]]
    report: Report

    def emit(self, rule_id: str, lineno: int, message: str) -> Diagnostic:
        info = AST_RULES[rule_id].info
        allowed = self.noqa.get(lineno, _MISSING)
        suppressed = allowed is None or (
            allowed is not _MISSING and rule_id in allowed
        )
        return self.report.add(
            Diagnostic(
                rule_id=rule_id,
                severity=info.severity,
                message=message,
                location=Location(file=self.path, line=lineno),
                suppressed=suppressed,
            )
        )


_MISSING = object()


class LintRule(ast.NodeVisitor):
    """Base class: one visitor instance per (rule, file) pass."""

    info = None  # set by the @lint_rule decorator

    def __init__(self, ctx: LintContext) -> None:
        self.ctx = ctx

    def emit(self, node: ast.AST, message: str) -> None:
        self.ctx.emit(self.info.rule_id, getattr(node, "lineno", 1), message)

    def run(self) -> None:
        self.visit(self.ctx.tree)


# ----------------------------------------------------------------------
# LINT001: float equality
# ----------------------------------------------------------------------
def _name_of(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_floatish(node: ast.AST) -> bool:
    """Heuristic: does this expression smell like float rate/time math?"""
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.UnaryOp):
        return _is_floatish(node.operand)
    name = _name_of(node)
    if name is None:
        return False
    lowered = name.lower()
    return lowered in ("gbps", "latency", "bandwidth") or lowered.endswith(
        FLOAT_UNIT_SUFFIXES
    )


@lint_rule("LINT001", "no float equality in bandwidth/latency math",
           Severity.ERROR)
class FloatEqualityRule(LintRule):
    """``a == 1.5`` or ``x.gbps != y_gbps`` never does what you hope on
    accumulated float math; compare with a tolerance instead."""

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq)):
                culprit = next(
                    (o for o in (left, right) if _is_floatish(o)), None
                )
                if culprit is not None:
                    what = _name_of(culprit)
                    if what is None and isinstance(culprit, ast.Constant):
                        what = repr(culprit.value)
                    sym = "==" if isinstance(op, ast.Eq) else "!="
                    self.emit(
                        node,
                        f"float {sym} on {what or 'expression'}; use a "
                        "tolerance (math.isclose) for rate/time comparisons",
                    )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# LINT002: mutable default arguments
# ----------------------------------------------------------------------
_MUTABLE_CALLS = frozenset({"list", "dict", "set", "defaultdict", "deque"})


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _name_of(node.func)
        return name in _MUTABLE_CALLS
    return False


@lint_rule("LINT002", "no mutable default arguments", Severity.ERROR)
class MutableDefaultRule(LintRule):
    """A mutable default is shared across every call -- state leaks
    between simulations. Use ``None`` (or ``field(default_factory=...)``)."""

    def _check(self, node) -> None:
        args = node.args
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            if _is_mutable_default(default):
                self.emit(
                    default,
                    f"mutable default argument in {node.name}(); "
                    "default to None and construct inside the function",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check(node)
        self.generic_visit(node)


# ----------------------------------------------------------------------
# LINT003: unseeded random
# ----------------------------------------------------------------------
@lint_rule("LINT003", "no unseeded random-module calls", Severity.ERROR)
class UnseededRandomRule(LintRule):
    """Module-level :mod:`random` calls share hidden global state and
    make runs irreproducible; thread a seeded ``random.Random`` in."""

    def __init__(self, ctx: LintContext) -> None:
        super().__init__(ctx)
        self._from_imports: Set[str] = set()

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                if alias.name in RANDOM_MODULE_FNS:
                    self._from_imports.add(alias.asname or alias.name)
                    self.emit(
                        node,
                        f"importing random.{alias.name} binds the shared "
                        "global generator; inject a random.Random(seed)",
                    )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "random"
        ):
            if func.attr in RANDOM_MODULE_FNS:
                self.emit(
                    node,
                    f"random.{func.attr}() uses the unseeded global "
                    "generator; use an injected random.Random(seed)",
                )
            elif func.attr == "Random" and not node.args and not node.keywords:
                self.emit(
                    node,
                    "random.Random() without a seed is irreproducible; "
                    "pass an explicit seed",
                )
        elif isinstance(func, ast.Name) and func.id in self._from_imports:
            self.emit(
                node,
                f"{func.id}() is bound to the unseeded global generator",
            )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# LINT004: unit-suffix naming on numeric quantity fields
# ----------------------------------------------------------------------
@lint_rule("LINT004", "unit-suffixed quantity field names", Severity.WARNING)
class UnitSuffixRule(LintRule):
    """``bandwidth: float`` says nothing about Gbps vs GB/s; annotated
    numeric quantity fields must carry a unit suffix."""

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign):
                continue
            target = stmt.target
            if not isinstance(target, ast.Name):
                continue
            ann = stmt.annotation
            ann_name = _name_of(ann)
            if ann_name not in ("float", "int"):
                continue
            name = target.id.lower()
            if name.endswith(UNIT_SUFFIXES):
                continue
            if any(stem in name for stem in QUANTITY_STEMS):
                self.emit(
                    stmt,
                    f"{node.name}.{target.id} is a numeric quantity without "
                    "a unit suffix (_gbps, _bytes, _s, ...)",
                )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# LINT005: no print() in library code
# ----------------------------------------------------------------------
#: basenames whose whole purpose is terminal output
PRINT_EXEMPT_FILES = frozenset({"cli.py"})


@lint_rule("LINT005", "no print() in library code", Severity.ERROR)
class NoPrintRule(LintRule):
    """Library modules must not write to stdout behind callers' backs;
    use ``repro.obs.get_logger(...)`` (which also mirrors warnings into
    the active recorder). ``cli.py`` is exempt -- printing is its job."""

    def run(self) -> None:
        if os.path.basename(self.ctx.path) in PRINT_EXEMPT_FILES:
            return
        super().run()

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "print":
            self.emit(
                node,
                "print() in library code; use repro.obs.get_logger() "
                "(or move the output to the CLI layer)",
            )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# LINT006: no direct Router construction outside the routing package
# ----------------------------------------------------------------------
#: constructor names steered to the shared cached router
ROUTER_CONSTRUCTORS = frozenset({"Router", "CachedRouter"})


def _router_rule_exempt(path: str) -> bool:
    """Routing internals, tests and benchmarks may build routers."""
    norm = path.replace(os.sep, "/")
    if "/routing/" in norm or norm.startswith("routing/"):
        return True
    if "/tests/" in norm or "/benchmarks/" in norm:
        return True
    base = os.path.basename(norm)
    return base.startswith("test_") or base == "conftest.py"


@lint_rule("LINT006", "no direct Router construction outside routing",
           Severity.ERROR)
class DirectRouterRule(LintRule):
    """``CachedRouter(topo)`` at a call site pays a cold FIB compile,
    ``Router(topo)`` re-derives every path uncached, and both throw away
    the warm route cache; use
    ``repro.routing.shared_router(topo)`` so call sites share one
    compiled FIB and one warm route cache per topology. The routing
    package itself, tests and benchmarks are exempt."""

    def run(self) -> None:
        if _router_rule_exempt(self.ctx.path):
            return
        super().run()

    def visit_Call(self, node: ast.Call) -> None:
        name = _name_of(node.func)
        if name in ROUTER_CONSTRUCTORS:
            self.emit(
                node,
                f"direct {name}() construction; use "
                "repro.routing.shared_router(topo) to share the "
                "compiled FIB and route cache",
            )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------
def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Expand files/directories into a sorted stream of ``.py`` paths."""
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs
                    if not d.startswith(".") and d != "__pycache__"
                )
                for fname in sorted(files):
                    if fname.endswith(".py"):
                        yield os.path.join(root, fname)
        else:
            yield path


def lint_source(
    source: str,
    path: str = "<string>",
    rule_ids: Optional[Sequence[str]] = None,
    report: Optional[Report] = None,
) -> Report:
    """Lint one source blob; syntax errors become LINT diagnostics."""
    report = report if report is not None else Report()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        report.add(
            Diagnostic(
                rule_id="LINT000",
                severity=Severity.ERROR,
                message=f"syntax error: {exc.msg}",
                location=Location(file=path, line=exc.lineno),
            )
        )
        return report
    ctx = LintContext(
        path=path, tree=tree, noqa=_noqa_lines(source), report=report
    )
    wanted = set(rule_ids) if rule_ids is not None else None
    for rid in sorted(AST_RULES):
        if wanted is not None and rid not in wanted:
            continue
        AST_RULES[rid].impl(ctx).run()
        report.bump("lint_rules_run")
    return report


def lint_paths(
    paths: Sequence[str], rule_ids: Optional[Sequence[str]] = None
) -> Report:
    """Lint every ``.py`` file under ``paths``, collecting one report."""
    report = Report()
    for fpath in iter_python_files(paths):
        try:
            with open(fpath, encoding="utf-8") as fh:
                source = fh.read()
        except OSError as exc:
            report.add(
                Diagnostic(
                    rule_id="LINT000",
                    severity=Severity.ERROR,
                    message=f"cannot read file: {exc}",
                    location=Location(file=fpath),
                )
            )
            continue
        lint_source(source, path=fpath, rule_ids=rule_ids, report=report)
        report.bump("files_scanned")
    return report
