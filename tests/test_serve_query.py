"""Query codec: a seeded differential fuzz against the dataclass decoder.

``_ReferenceQuery`` and ``_reference_from_jsonable`` are the
dataclass-backed ``Query`` and its ``from_jsonable`` as they were
before ``Query`` became a tuple. They are test oracles only. The fuzz
feeds both decoders the same JSON bodies -- canonical, shuffled,
truncated, padded and corrupted -- and requires the same canonical
query (fields, types and hash) or the same ``QueryError`` message.

The one intended difference: inputs on which the reference raised
something other than a ``QueryError`` (``TypeError`` for a
non-iterable ``fail_switches``, ``OverflowError`` for ``Infinity`` in
an integer field) now raise a ``QueryError`` carrying that field's
message, so the daemon answers 400 instead of dropping the connection.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, fields
from typing import Any, Dict, Optional, Tuple

import pytest

from repro.serve.query import (
    DEFAULT_DPORT,
    DEFAULT_NUM_PATHS,
    DEFAULT_SPORT,
    DEFAULT_SPORT_SPAN,
    KINDS,
    Query,
    QueryError,
)


# ----------------------------------------------------------------------
# the reference decoder (test oracle only)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _ReferenceQuery:
    kind: str
    src_host: str
    dst_host: str
    src_rail: int = 0
    dst_rail: int = 0
    sport: int = DEFAULT_SPORT
    dport: int = DEFAULT_DPORT
    plane: Optional[int] = None
    num_paths: int = DEFAULT_NUM_PATHS
    sport_span: int = DEFAULT_SPORT_SPAN
    fail_links: Tuple[int, ...] = ()
    fail_switches: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise QueryError(
                f"unknown query kind {self.kind!r}; expected one of {KINDS}"
            )
        if self.num_paths < 1:
            raise QueryError("num_paths must be >= 1")
        if self.sport_span < 1:
            raise QueryError("sport_span must be >= 1")
        object.__setattr__(
            self, "fail_links", tuple(sorted(set(self.fail_links)))
        )
        object.__setattr__(
            self, "fail_switches", tuple(sorted(set(self.fail_switches)))
        )
        object.__setattr__(self, "_hash", hash((
            self.kind, self.src_host, self.dst_host,
            self.src_rail, self.dst_rail, self.sport, self.dport,
            self.plane, self.num_paths, self.sport_span,
            self.fail_links, self.fail_switches,
        )))

    def to_jsonable(self) -> Dict[str, Any]:
        return {
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


def _reference_from_jsonable(obj: Any) -> Tuple[str, Any, Any]:
    """``("ok", canonical field dict, hash)`` or ``("error", message, None)``.

    Exceptions other than ``QueryError`` escape, as they did.
    """
    cls = _ReferenceQuery
    try:
        if not isinstance(obj, dict):
            raise QueryError(
                f"query must be an object, got {type(obj).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(obj) - known)
        if unknown:
            raise QueryError(f"unknown query fields: {', '.join(unknown)}")
        for req in ("kind", "src_host", "dst_host"):
            if req not in obj:
                raise QueryError(f"query is missing required field {req!r}")
        kw = dict(obj)
        try:
            kw["fail_links"] = tuple(int(x) for x in kw.get("fail_links", ()))
        except (TypeError, ValueError):
            raise QueryError("fail_links must be a list of link ids")
        raw_sw = kw.get("fail_switches", ())
        if isinstance(raw_sw, str) or not all(
            isinstance(s, str) for s in raw_sw
        ):
            raise QueryError("fail_switches must be a list of switch names")
        kw["fail_switches"] = tuple(raw_sw)
        for name in ("src_rail", "dst_rail", "sport", "dport",
                     "num_paths", "sport_span"):
            if name in kw:
                try:
                    kw[name] = int(kw[name])
                except (TypeError, ValueError):
                    raise QueryError(f"{name} must be an integer")
        if kw.get("plane") is not None:
            try:
                kw["plane"] = int(kw["plane"])
            except (TypeError, ValueError):
                raise QueryError("plane must be an integer or null")
        try:
            query = cls(**kw)
        except TypeError as err:
            raise QueryError(str(err))
    except QueryError as err:
        return "error", str(err), None
    return "ok", query.to_jsonable(), query._hash  # type: ignore[attr-defined]


# ----------------------------------------------------------------------
# the comparison
# ----------------------------------------------------------------------
_REQUIRED_BASE = {"kind": "path", "src_host": "a", "dst_host": "b"}

#: the message a field's bad value gets, in the decoder's check order
_FIELD_MESSAGES = (
    ("fail_links", "fail_links must be a list of link ids"),
    ("fail_switches", "fail_switches must be a list of switch names"),
    ("src_rail", "src_rail must be an integer"),
    ("dst_rail", "dst_rail must be an integer"),
    ("sport", "sport must be an integer"),
    ("dport", "dport must be an integer"),
    ("num_paths", "num_paths must be an integer"),
    ("sport_span", "sport_span must be an integer"),
    ("plane", "plane must be an integer or null"),
)


def _crash_message(obj: Dict[str, Any]) -> str:
    """The QueryError message for a body the reference crashed on.

    The per-field conversions are independent and run in a fixed
    order, so the culprit is the first field whose conversion crashes
    on its own, next to valid required fields. (A range check such as
    ``num_paths >= 1`` runs after every conversion, so it cannot
    pre-empt the crash.)
    """
    for name, message in _FIELD_MESSAGES:
        if name not in obj:
            continue
        try:
            _, value, _ = _reference_from_jsonable(
                dict(_REQUIRED_BASE, **{name: obj[name]}))
        except (TypeError, OverflowError):
            return message
        assert value != message, (name, obj)
    raise AssertionError(f"reference crashed on no single field of {obj!r}")


def _decode(obj: Any) -> Tuple[str, Any, Any]:
    try:
        query = Query.from_jsonable(obj)
    except QueryError as err:
        return "error", str(err), None
    # repr keeps 1, 1.0 and True apart, which == and hash don't
    return "ok", repr(query.to_jsonable()), hash(query)


def check_same_as_reference(obj: Any) -> str:
    """Assert both decoders agree on ``obj``; returns the outcome kind."""
    try:
        outcome, value, hashed = _reference_from_jsonable(obj)
    except (TypeError, OverflowError):
        got = _decode(obj)
        assert got == ("error", _crash_message(obj), None), obj
        return "crash"
    want = (outcome, repr(value) if outcome == "ok" else value, hashed)
    assert _decode(obj) == want, obj
    return outcome


# ----------------------------------------------------------------------
# the fuzz
# ----------------------------------------------------------------------
_INT_FIELDS = ("src_rail", "dst_rail", "sport", "dport", "num_paths",
               "sport_span")
_INF = float("inf")


def _bad_ints(rng: random.Random) -> list:
    return [True, False, 0, -1, 1, 7, 2 ** 70, 1.0, 2.5, -0.0, 1e20, "12",
            " 7 ", "-3", "1_0", "0x10", "abc", "", None, [1], {"a": 1},
            _INF, -_INF, float("nan"), rng.randint(-5, 70000)]


def _valid_wire(rng: random.Random) -> Dict[str, Any]:
    """A valid query as a client would send it, optional fields random."""
    obj: Dict[str, Any] = {
        "kind": rng.choice(KINDS),
        "src_host": f"pod0/seg{rng.randrange(4)}/host{rng.randrange(8)}",
        "dst_host": f"pod0/seg{rng.randrange(4)}/host{rng.randrange(8)}",
    }
    for name in _INT_FIELDS:
        if rng.random() < 0.5:
            obj[name] = rng.randint(1, 60000)
    if rng.random() < 0.5:
        obj["plane"] = rng.choice([None, 0, 1])
    if rng.random() < 0.4:
        obj["fail_links"] = [rng.randrange(50)
                             for _ in range(rng.randrange(5))]
    if rng.random() < 0.3:
        obj["fail_switches"] = [f"sw{rng.randrange(6)}"
                                for _ in range(rng.randrange(4))]
    return obj


def _mutate(rng: random.Random, obj: Dict[str, Any]) -> None:
    """Apply one corruption from the menu, in place."""
    roll = rng.randrange(9)
    if roll == 0:  # drop a required field
        obj.pop(rng.choice(("kind", "src_host", "dst_host")), None)
    elif roll == 1:  # an unknown field or two
        for _ in range(rng.randint(1, 2)):
            obj[rng.choice(("colour", "Kind", "fail_link", "x", "_hash"))] = 1
    elif roll == 2:  # an integer field of the wrong shape
        obj[rng.choice(_INT_FIELDS)] = rng.choice(_bad_ints(rng))
    elif roll == 3:  # plane: null, int, string, and worse
        obj["plane"] = rng.choice([None, 0, 1, 3, -1, "1", "one", 1.9, True,
                                   _INF, -_INF, float("nan"), [0]])
    elif roll == 4:  # fail_links unsorted, duplicated, mixed, mis-shaped
        obj["fail_links"] = rng.choice([
            [5, 3, 5, 1], [2, "2", 2.0, True], ["7", " 8", 9.9], "312",
            "a1", 5, None, {"4": 1, "2": 0}, [[1]], [_INF], [-_INF, 1],
            [float("nan")], [], [1, None], ["x"],
        ])
    elif roll == 5:  # fail_switches likewise
        obj["fail_switches"] = rng.choice([
            ["s2", "s1", "s2"], ["s1", 1], "s1", 5, None, True, 1.5,
            {"s3": 1, "s1": 2}, [["s1"]], [], [None], ["b", "a", "a", "c"],
        ])
    elif roll == 6:  # kind and hosts of the wrong type or value
        field = rng.choice(("kind", "src_host", "dst_host"))
        obj[field] = rng.choice(["teleport", "", "PATH", 3, None, True,
                                 [1], {"k": 1}, ["a", "b"], 2.5])
    elif roll == 7:  # the constructor's own bounds
        obj[rng.choice(("num_paths", "sport_span"))] = rng.choice(
            [0, -3, 1, "0", 0.5, False])
    else:  # a valid value of another kind
        obj["kind"] = rng.choice(KINDS)


def _fuzz_cases(seed: int, n: int):
    rng = random.Random(seed)
    for i in range(n):
        if i % 40 == 0:  # bodies that are not objects
            yield rng.choice([[], [1], ["kind"], "path", 3, 2.5, None, True,
                              [_REQUIRED_BASE]])
            continue
        obj = _valid_wire(rng)
        if rng.random() < 0.25:  # canonical, as to_jsonable renders it
            outcome, value, _ = _reference_from_jsonable(obj)
            if outcome == "ok":
                obj = value
        else:
            for _ in range(rng.choice((1, 1, 1, 2, 3))):
                _mutate(rng, obj)
        items = list(obj.items())
        rng.shuffle(items)
        # through JSON, as the daemon receives it (Infinity/NaN included)
        yield json.loads(json.dumps(dict(items)))


class TestDifferentialFuzz:
    def test_matches_reference_decoder(self):
        seen: Dict[str, int] = {}
        for obj in _fuzz_cases(seed=20261018, n=2000):
            outcome = check_same_as_reference(obj)
            seen[outcome] = seen.get(outcome, 0) + 1
        # every outcome kind is well represented
        assert seen["ok"] >= 300 and seen["error"] >= 600, seen
        assert seen["crash"] >= 30, seen

    @pytest.mark.parametrize("obj,message", [
        ({"fail_switches": 5}, "fail_switches must be a list of switch names"),
        ({"fail_switches": None}, "fail_switches must be a list of switch names"),
        ({"fail_switches": False}, "fail_switches must be a list of switch names"),
        ({"fail_links": [_INF]}, "fail_links must be a list of link ids"),
        ({"sport": _INF}, "sport must be an integer"),
        ({"dport": -_INF}, "dport must be an integer"),
        ({"sport_span": _INF}, "sport_span must be an integer"),
        ({"plane": _INF}, "plane must be an integer or null"),
        # the first bad field in check order wins
        ({"plane": _INF, "src_rail": -_INF}, "src_rail must be an integer"),
        ({"sport": _INF, "fail_switches": 1},
         "fail_switches must be a list of switch names"),
    ])
    def test_reference_crashes_become_query_errors(self, obj, message):
        body = dict(_REQUIRED_BASE, **obj)
        with pytest.raises((TypeError, OverflowError)):
            _reference_from_jsonable(body)
        with pytest.raises(QueryError) as err:
            Query.from_jsonable(body)
        assert str(err.value) == message
        assert check_same_as_reference(body) == "crash"

    def test_unhashable_host_is_a_query_error(self):
        for field in ("src_host", "dst_host"):
            body = dict(_REQUIRED_BASE, **{field: ["x"]})
            assert check_same_as_reference(body) == "error"
            with pytest.raises(QueryError, match="unhashable"):
                Query.from_jsonable(body)


class TestTupleQuery:
    def test_keyword_construction_and_defaults_match_reference(self):
        rng = random.Random(7)
        for _ in range(200):
            kw = json.loads(json.dumps(_valid_wire(rng)))
            kw["fail_links"] = tuple(kw.get("fail_links", ()))
            kw["fail_switches"] = tuple(kw.get("fail_switches", ()))
            ref = _ReferenceQuery(**kw)
            query = Query(**kw)
            assert repr(query.to_jsonable()) == repr(ref.to_jsonable())
            assert hash(query) == ref._hash  # type: ignore[attr-defined]

    def test_canonical_failure_sets_and_helpers(self):
        q = Query(kind="residual", src_host="a", dst_host="b",
                  fail_links=[5, 3, 5], fail_switches=("s2", "s1", "s2"))
        assert q.fail_links == (3, 5) and q.fail_switches == ("s1", "s2")
        assert q == Query("residual", "a", "b", fail_links=(3, 5),
                          fail_switches=["s1", "s2"])
        assert q.is_what_if and q.failure_set == ((3, 5), ("s1", "s2"))
        assert q.key() is q
        plain = Query(kind="path", src_host="a", dst_host="b")
        assert not plain.is_what_if
        assert plain.fail_links == () and plain.fail_switches == ()

    def test_constructor_checks(self):
        with pytest.raises(QueryError, match="unknown query kind"):
            Query(kind="teleport", src_host="a", dst_host="b")
        with pytest.raises(QueryError, match="num_paths must be >= 1"):
            Query(kind="repac", src_host="a", dst_host="b", num_paths=0)
        with pytest.raises(QueryError, match="sport_span must be >= 1"):
            Query(kind="repac", src_host="a", dst_host="b", sport_span=0)

    def test_is_a_plain_tuple_without_instance_dict(self):
        q = Query(kind="path", src_host="a", dst_host="b")
        # no per-instance __dict__: a query costs one 12-slot tuple
        assert not hasattr(q, "__dict__")
        assert isinstance(q, tuple) and len(q) == 12
        assert Query.from_jsonable(q.to_jsonable()) == q
