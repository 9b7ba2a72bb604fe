"""The serve request model: immutable, canonical, dedupe-keyed queries.

A :class:`Query` is a tuple -- a :class:`~typing.NamedTuple` whose
constructor validates and canonicalises -- so it is hashable and cheap
to build, and the query *is* its own dedupe key. Construction sorts
and dedupes the failure sets; :meth:`Query.from_jsonable` checks the
wire form and fills defaults, so two requests that mean the same thing
coalesce into one evaluation in ``ServeState.execute_batch``.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Tuple

#: the query kinds the daemon answers
KINDS = ("path", "planes", "repac", "residual")

#: default RDMA dport (RoCEv2) and RePaC probe settings
DEFAULT_DPORT = 4791
DEFAULT_SPORT = 49152
DEFAULT_NUM_PATHS = 4
DEFAULT_SPORT_SPAN = 128


class QueryError(ValueError):
    """A malformed or unanswerable query (bad kind, unknown host...)."""


class _QueryFields(NamedTuple):
    """The field layout of :class:`Query`; build a ``Query``, not this."""

    kind: str
    src_host: str
    dst_host: str
    src_rail: int
    dst_rail: int
    sport: int
    dport: int
    plane: Optional[int]
    num_paths: int
    sport_span: int
    fail_links: Tuple[int, ...]
    fail_switches: Tuple[str, ...]


class Query(_QueryFields):
    """One what-if question, canonical and hashable.

    ``fail_links`` / ``fail_switches`` make any kind a what-if: the
    query is evaluated under ``Topology.transient_state()`` with those
    failures applied, against the probe router (never the live one).
    Its hash is the hash of its 12 fields.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: str,
        src_host: str,
        dst_host: str,
        src_rail: int = 0,
        dst_rail: int = 0,
        sport: int = DEFAULT_SPORT,
        dport: int = DEFAULT_DPORT,
        plane: Optional[int] = None,
        num_paths: int = DEFAULT_NUM_PATHS,
        sport_span: int = DEFAULT_SPORT_SPAN,
        fail_links: Tuple[int, ...] = (),
        fail_switches: Tuple[str, ...] = (),
    ) -> "Query":
        if kind not in KINDS:
            raise QueryError(
                f"unknown query kind {kind!r}; expected one of {KINDS}"
            )
        if num_paths < 1:
            raise QueryError("num_paths must be >= 1")
        if sport_span < 1:
            raise QueryError("sport_span must be >= 1")
        # canonicalise failure sets so equal what-ifs hash equal
        if fail_links != ():
            fail_links = tuple(sorted(set(fail_links)))
        if fail_switches != ():
            fail_switches = tuple(sorted(set(fail_switches)))
        return tuple.__new__(cls, (
            kind, src_host, dst_host, src_rail, dst_rail, sport, dport,
            plane, num_paths, sport_span, fail_links, fail_switches,
        ))

    @property
    def is_what_if(self) -> bool:
        return bool(self.fail_links or self.fail_switches)

    @property
    def failure_set(self) -> Tuple[Tuple[int, ...], Tuple[str, ...]]:
        """Grouping key: what-ifs sharing it run in one transient block."""
        return (self.fail_links, self.fail_switches)

    def key(self) -> "Query":
        """The dedupe key -- the query itself (immutable, hashable)."""
        return self

    # ------------------------------------------------------------------
    def to_jsonable(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "kind": self.kind,
            "src_host": self.src_host,
            "dst_host": self.dst_host,
            "src_rail": self.src_rail,
            "dst_rail": self.dst_rail,
            "sport": self.sport,
            "dport": self.dport,
            "plane": self.plane,
            "num_paths": self.num_paths,
            "sport_span": self.sport_span,
            "fail_links": list(self.fail_links),
            "fail_switches": list(self.fail_switches),
        }
        return out

    @classmethod
    def from_jsonable(cls, obj: Any) -> "Query":
        """Decode one wire query; every malformed input is a QueryError."""
        if not isinstance(obj, dict):
            raise QueryError(f"query must be an object, got {type(obj).__name__}")
        if not _FIELD_NAMES.issuperset(obj):
            unknown = sorted(set(obj) - _FIELD_NAMES)
            raise QueryError(f"unknown query fields: {', '.join(unknown)}")
        for req in _REQUIRED:
            if req not in obj:
                raise QueryError(f"query is missing required field {req!r}")
        get = obj.get
        try:
            fail_links = tuple([
                x if type(x) is int else int(x)
                for x in get("fail_links", ())
            ])
        except (TypeError, ValueError, OverflowError):
            raise QueryError("fail_links must be a list of link ids")
        raw_sw = get("fail_switches", ())
        try:
            fail_switches: Optional[Tuple[str, ...]] = tuple(raw_sw)
        except TypeError:  # a number, a bool or null
            fail_switches = None
        if fail_switches is None or isinstance(raw_sw, str) or not all(
            isinstance(s, str) for s in fail_switches
        ):
            raise QueryError("fail_switches must be a list of switch names")
        ints: List[int] = []
        for name, default in _INT_FIELDS:
            value = get(name, default)
            if type(value) is not int:
                try:
                    value = int(value)
                except (TypeError, ValueError, OverflowError):
                    raise QueryError(f"{name} must be an integer")
            ints.append(value)
        plane = get("plane")
        if plane is not None and type(plane) is not int:
            try:
                plane = int(plane)
            except (TypeError, ValueError, OverflowError):
                raise QueryError("plane must be an integer or null")
        src_rail, dst_rail, sport, dport, num_paths, sport_span = ints
        src_host = obj["src_host"]
        dst_host = obj["dst_host"]
        query = cls(obj["kind"], src_host, dst_host, src_rail, dst_rail,
                    sport, dport, plane, num_paths, sport_span,
                    fail_links, fail_switches)
        if type(src_host) is not str or type(dst_host) is not str:
            # a host named by a list or an object would break every
            # dict the query is later a key of
            try:
                hash(query)
            except TypeError as err:
                raise QueryError(str(err))
        return query


#: wire field names, and the ones a query cannot omit
_FIELD_NAMES = frozenset(Query._fields)
_REQUIRED = ("kind", "src_host", "dst_host")
#: integer wire fields in constructor order, with their defaults
_INT_FIELDS = (
    ("src_rail", 0),
    ("dst_rail", 0),
    ("sport", DEFAULT_SPORT),
    ("dport", DEFAULT_DPORT),
    ("num_paths", DEFAULT_NUM_PATHS),
    ("sport_span", DEFAULT_SPORT_SPAN),
)
