"""Rule registry shared by both analyzer families.

Every analyzer -- topology/config rules and codebase AST lint rules --
registers itself here under a stable rule id, so the CLI, the docs and
the test suite can enumerate one catalogue. Topology rules are plain
functions ``fn(ctx)`` decorated with :func:`topology_rule`; lint rules
are :class:`~repro.staticcheck.ast_rules.LintRule` subclasses decorated
with :func:`lint_rule`.

Rule ids are namespaced by family:

* ``TOPO###`` -- structural topology invariants (cheap, always run);
* ``WIRE###`` / ``FWD###`` -- deep wiring/forwarding analyses (sampled
  walks; run when ``repro check`` asks for the WIRE or FWD family);
* ``LINT###`` -- codebase AST hygiene rules (per-file);
* ``SEM###`` -- project-wide semantic rules over the
  :class:`~repro.staticcheck.semantics.ProjectIndex` (import graph,
  call graph, dataflow); registered with :func:`semantic_rule`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from .diagnostics import Severity


@dataclass(frozen=True)
class RuleInfo:
    """Catalogue entry for one rule."""

    rule_id: str
    title: str
    severity: Severity
    kind: str  # "topology" | "ast" | "semantic"
    #: architectures the rule applies to; None means every architecture
    architectures: Optional[frozenset] = None
    #: expensive rules (flow walks) only run when explicitly requested
    expensive: bool = False

    def applies_to(self, architecture: Optional[str]) -> bool:
        if self.architectures is None:
            return True
        return architecture in self.architectures


@dataclass
class RegisteredRule:
    info: RuleInfo
    impl: Callable = field(repr=False, default=None)  # type: ignore[assignment]


TOPOLOGY_RULES: Dict[str, RegisteredRule] = {}
AST_RULES: Dict[str, RegisteredRule] = {}
SEMANTIC_RULES: Dict[str, RegisteredRule] = {}

#: family prefix -> the registry table its rules live in (the CLI's
#: ``--family`` option and the docs enumerate exactly these)
FAMILIES: Dict[str, str] = {
    "TOPO": "topology",
    "WIRE": "topology",
    "FWD": "topology",
    "LINT": "ast",
    "SEM": "semantic",
}


def family_of(rule_id: str) -> str:
    """The family prefix of a rule id (``"SEM001"`` -> ``"SEM"``)."""
    return rule_id.rstrip("0123456789")


class RuleRegistrationError(Exception):
    """A rule id was registered twice or malformed."""


def _register(
    table: Dict[str, RegisteredRule], info: RuleInfo, impl: Callable
) -> Callable:
    if info.rule_id in table:
        raise RuleRegistrationError(f"duplicate rule id {info.rule_id!r}")
    table[info.rule_id] = RegisteredRule(info=info, impl=impl)
    return impl


def topology_rule(
    rule_id: str,
    title: str,
    severity: Severity = Severity.ERROR,
    architectures: Optional[Sequence[str]] = None,
    expensive: bool = False,
) -> Callable:
    """Register ``fn(ctx)`` as a collecting topology rule."""

    def deco(fn: Callable) -> Callable:
        info = RuleInfo(
            rule_id=rule_id,
            title=title,
            severity=severity,
            kind="topology",
            architectures=(
                frozenset(architectures) if architectures is not None else None
            ),
            expensive=expensive,
        )
        return _register(TOPOLOGY_RULES, info, fn)

    return deco


def lint_rule(
    rule_id: str, title: str, severity: Severity = Severity.ERROR
) -> Callable:
    """Register a :class:`LintRule` subclass."""

    def deco(cls: type) -> type:
        info = RuleInfo(
            rule_id=rule_id, title=title, severity=severity, kind="ast"
        )
        cls.info = info
        _register(AST_RULES, info, cls)
        return cls

    return deco


def semantic_rule(
    rule_id: str, title: str, severity: Severity = Severity.ERROR
) -> Callable:
    """Register ``fn(ctx)`` as a project-wide semantic rule.

    ``ctx`` is a :class:`~repro.staticcheck.semantics.rules.SemContext`
    wrapping the shared :class:`ProjectIndex`; the rule walks indexed
    modules/graphs and emits diagnostics through the context.
    """

    def deco(fn: Callable) -> Callable:
        info = RuleInfo(
            rule_id=rule_id, title=title, severity=severity, kind="semantic"
        )
        return _register(SEMANTIC_RULES, info, fn)

    return deco


_KIND_ORDER = {"topology": 0, "ast": 1, "semantic": 2}


def all_rules() -> List[RuleInfo]:
    """The full catalogue: topology, then ast, then semantic rules."""
    infos = [r.info for r in TOPOLOGY_RULES.values()]
    infos += [r.info for r in AST_RULES.values()]
    infos += [r.info for r in SEMANTIC_RULES.values()]
    return sorted(infos, key=lambda i: (_KIND_ORDER[i.kind], i.rule_id))


def get_rule(rule_id: str) -> RegisteredRule:
    for table in (TOPOLOGY_RULES, AST_RULES, SEMANTIC_RULES):
        if rule_id in table:
            return table[rule_id]
    raise KeyError(f"unknown rule {rule_id!r}")
