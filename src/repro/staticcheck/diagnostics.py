"""Shared diagnostic model for every static analyzer in the repo.

A :class:`Diagnostic` is one finding: a stable rule id, a severity, a
human message, and a :class:`Location` that points either at a file/line
(AST lint rules) or at a topology object (topology/config rules). A
:class:`Report` collects many of them in one pass -- the point of the
whole subsystem is that an operator sees *every* violation at once
instead of whichever one happened to raise first.

Suppression is first-class: a diagnostic can be recorded but marked
``suppressed`` (``# repro: noqa[RULE]`` for lint rules,
``topo.meta["suppress"]`` for topology rules); suppressed findings stay
in the report for auditing but never affect ``ok`` or the exit code.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional


class Severity(enum.Enum):
    """How bad a finding is; only errors gate deployments by default."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "info": 2}[self.value]

    def __lt__(self, other: "Severity") -> bool:
        return self.rank < other.rank


@dataclass(frozen=True)
class Location:
    """Where a finding lives: a source position and/or a topology object."""

    file: Optional[str] = None
    line: Optional[int] = None
    obj: Optional[str] = None

    def __str__(self) -> str:
        if self.file is not None:
            pos = self.file if self.line is None else f"{self.file}:{self.line}"
            return pos if self.obj is None else f"{pos} ({self.obj})"
        return self.obj if self.obj is not None else "<global>"

    def to_dict(self) -> Dict[str, Any]:
        return {"file": self.file, "line": self.line, "obj": self.obj}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Location":
        return cls(file=data.get("file"), line=data.get("line"),
                   obj=data.get("obj"))


@dataclass
class Diagnostic:
    """One finding from one rule."""

    rule_id: str
    severity: Severity
    message: str
    location: Location = field(default_factory=Location)
    suppressed: bool = False

    def render(self) -> str:
        tag = " (suppressed)" if self.suppressed else ""
        return f"{self.severity.value}[{self.rule_id}] {self.location}: {self.message}{tag}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule_id": self.rule_id,
            "severity": self.severity.value,
            "message": self.message,
            "location": self.location.to_dict(),
            "suppressed": self.suppressed,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Diagnostic":
        return cls(
            rule_id=data["rule_id"],
            severity=Severity(data["severity"]),
            message=data["message"],
            location=Location.from_dict(data.get("location", {})),
            suppressed=bool(data.get("suppressed", False)),
        )


@dataclass
class Report:
    """Collected diagnostics from one analysis run."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: bookkeeping: rules run, files scanned, nodes visited...
    stats: Dict[str, int] = field(default_factory=dict)

    # -- collection ----------------------------------------------------
    def add(self, diag: Diagnostic) -> Diagnostic:
        self.diagnostics.append(diag)
        return diag

    def extend(self, diags: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diags)

    def merge(self, other: "Report") -> "Report":
        self.diagnostics.extend(other.diagnostics)
        for key, val in other.stats.items():
            self.stats[key] = self.stats.get(key, 0) + val
        return self

    def bump(self, stat: str, by: int = 1) -> None:
        self.stats[stat] = self.stats.get(stat, 0) + by

    # -- queries -------------------------------------------------------
    @property
    def active(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if not d.suppressed]

    def by_severity(self, severity: Severity) -> List[Diagnostic]:
        return [d for d in self.active if d.severity is severity]

    @property
    def errors(self) -> List[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> List[Diagnostic]:
        return self.by_severity(Severity.WARNING)

    @property
    def ok(self) -> bool:
        return not self.errors

    def rule_ids(self) -> List[str]:
        """Distinct rule ids with active findings, in first-seen order."""
        seen, out = set(), []
        for d in self.active:
            if d.rule_id not in seen:
                seen.add(d.rule_id)
                out.append(d.rule_id)
        return out

    def exit_code(self, strict: bool = False) -> int:
        if self.errors:
            return 1
        if strict and self.warnings:
            return 1
        return 0

    def sorted(self) -> List[Diagnostic]:
        return sorted(
            self.diagnostics,
            key=lambda d: (d.severity.rank, str(d.location), d.rule_id),
        )

    # -- rendering -----------------------------------------------------
    def summary_line(self) -> str:
        sup = sum(1 for d in self.diagnostics if d.suppressed)
        parts = [
            f"{len(self.errors)} error(s)",
            f"{len(self.warnings)} warning(s)",
            f"{len(self.by_severity(Severity.INFO))} info",
        ]
        if sup:
            parts.append(f"{sup} suppressed")
        return ", ".join(parts)

    def render_text(self, max_findings: Optional[int] = None) -> str:
        lines = [d.render() for d in self.sorted()]
        if max_findings is not None and len(lines) > max_findings:
            extra = len(lines) - max_findings
            lines = lines[:max_findings] + [f"... and {extra} more"]
        lines.append(self.summary_line())
        return "\n".join(lines)

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "summary": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "info": len(self.by_severity(Severity.INFO)),
                "suppressed": sum(1 for d in self.diagnostics if d.suppressed),
            },
            "stats": dict(self.stats),
            "diagnostics": [d.to_dict() for d in self.sorted()],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Report":
        report = cls(stats=dict(data.get("stats", {})))
        for d in data.get("diagnostics", []):
            report.add(Diagnostic.from_dict(d))
        return report


# ----------------------------------------------------------------------
# shared rendering: every family, every CLI command, one code path
# ----------------------------------------------------------------------
#: severity -> SARIF result level
_SARIF_LEVEL = {"error": "error", "warning": "warning", "info": "note"}

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"


def _sarif_uri(path: Optional[str]) -> str:
    """Repo-relative, forward-slash artifact URI for a finding."""
    if not path:
        return "<none>"
    norm = path.replace("\\", "/")
    pos = norm.rfind("/src/")
    if pos >= 0:
        return norm[pos + 1:]
    return norm.lstrip("/")


def to_sarif(
    report: Report,
    tool_name: str = "repro-check",
    rules: Optional[Iterable[Any]] = None,
) -> Dict[str, Any]:
    """Project a report into a SARIF 2.1.0 log (one run).

    ``rules`` is an optional iterable of catalogue entries (anything
    with ``rule_id``/``title``/``severity`` attributes, i.e.
    :class:`~repro.staticcheck.registry.RuleInfo`); when given, the
    tool driver advertises them so SARIF viewers show titles and
    default levels. Suppressed findings are emitted with an in-source
    suppression record instead of being dropped -- SARIF consumers
    treat those as audit trail, same as :attr:`Report.active` does.
    """
    driver: Dict[str, Any] = {
        "name": tool_name,
        "informationUri": "https://github.com/alibaba/hpn",
        "rules": [],
    }
    emitted_ids = {d.rule_id for d in report.diagnostics}
    if rules is not None:
        for info in rules:
            if info.rule_id not in emitted_ids:
                continue
            driver["rules"].append({
                "id": info.rule_id,
                "shortDescription": {"text": info.title},
                "defaultConfiguration": {
                    "level": _SARIF_LEVEL[info.severity.value]
                },
            })
    results: List[Dict[str, Any]] = []
    for diag in report.sorted():
        result: Dict[str, Any] = {
            "ruleId": diag.rule_id,
            "level": _SARIF_LEVEL[diag.severity.value],
            "message": {"text": diag.message},
        }
        loc = diag.location
        if loc.file is not None:
            region: Dict[str, Any] = {}
            if loc.line is not None:
                region["startLine"] = loc.line
            physical: Dict[str, Any] = {
                "artifactLocation": {"uri": _sarif_uri(loc.file)},
            }
            if region:
                physical["region"] = region
            result["locations"] = [{"physicalLocation": physical}]
        elif loc.obj is not None:
            result["locations"] = [{
                "logicalLocations": [{"fullyQualifiedName": loc.obj}],
            }]
        if diag.suppressed:
            result["suppressions"] = [{"kind": "inSource"}]
        results.append(result)
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{"tool": {"driver": driver}, "results": results}],
    }


def render_report(
    report: Report,
    fmt: str = "text",
    rules: Optional[Iterable[Any]] = None,
    max_findings: Optional[int] = None,
) -> str:
    """One renderer for every analyzer family and output format.

    ``fmt`` is ``"text"`` | ``"json"`` | ``"sarif"``; ``repro check``
    renders every family through here, so formats never drift between
    families.
    """
    if fmt == "json":
        return report.to_json()
    if fmt == "sarif":
        return json.dumps(to_sarif(report, rules=rules), indent=2)
    if fmt == "text":
        return report.render_text(max_findings=max_findings)
    raise ValueError(f"unknown report format {fmt!r}")
