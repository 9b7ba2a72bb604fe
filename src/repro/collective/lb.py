"""Connection-level load balancing (paper Algorithms 1-2, Appendix B).

``EstablishConns`` builds several RDMA connections per logical peer,
each riding a *disjoint* network path found with RePaC-style hash
prediction. ``PathSelection`` then steers each message onto the
connection with the fewest outstanding WQE bytes -- a congested path
drains its work queue slower, so its counter stays high and new
messages avoid it.

Three policies are provided so the ablation bench can compare them:

* :class:`LeastLoadedPolicy` -- the paper's scheme (disjoint paths +
  WQE counter);
* :class:`RoundRobinPolicy` -- naive spreading over the same paths;
* :class:`SingleConnectionPolicy` -- classic one-QP-per-peer ECMP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import repeat
from operator import add, attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.entities import Nic
from ..core.errors import CollectiveError
from ..routing.ecmp import Router
from ..routing.path import FlowPath
from ..routing.repac import find_paths

_WQE_BYTES = attrgetter("wqe_bytes")


@dataclass
class Connection:
    """One RDMA connection: a 5-tuple pinned to one predicted path."""

    sport: int
    path: FlowPath
    #: bytes of WQEs posted and not yet completed (Algorithm 2 counter)
    wqe_bytes: float = 0.0
    #: cumulative bytes assigned (for telemetry / flow construction)
    total_bytes: float = 0.0

    def post(self, nbytes: float) -> None:
        self.wqe_bytes += nbytes
        self.total_bytes += nbytes

    def complete(self, nbytes: float) -> None:
        self.wqe_bytes = max(0.0, self.wqe_bytes - nbytes)


def establish_conns(
    router: Router,
    src_nic: Nic,
    dst_nic: Nic,
    dport: int = 4791,
    num_conns: int = 2,
    plane: Optional[int] = None,
    alternate_planes: bool = True,
    disjoint: bool = True,
) -> List[Connection]:
    """Algorithm 1: build ``num_conns`` connections per logical peer.

    With ``disjoint=True`` (HPN's optimized scheme) source ports are
    probed RePaC-style until the predicted paths are link-disjoint in
    the fabric interior. With ``disjoint=False`` (the DCN+ baseline)
    source ports are picked blindly and the paths land wherever ECMP
    hashing sends them -- collisions included.

    With ``alternate_planes`` (dual-plane fabrics), consecutive
    connections use alternating NIC ports so one logical peer can drive
    both 200G ports -- the full 400G rail.
    """
    conns: List[Connection] = []
    planes = router.usable_planes(src_nic, dst_nic)
    if not planes:
        raise CollectiveError(f"no plane from {src_nic.name} to {dst_nic.name}")
    plane_seq: List[int] = []
    for i in range(num_conns):
        if alternate_planes and len(planes) > 1:
            plane_seq.append(planes[i % len(planes)])
        else:
            plane_seq.append(plane if plane in planes else planes[0])

    if disjoint:
        per_plane: Dict[int, int] = {}
        for p in plane_seq:
            per_plane[p] = per_plane.get(p, 0) + 1
        base = 49152
        for p, count in per_plane.items():
            found = find_paths(
                router, src_nic, dst_nic, dport, num_paths=count,
                plane=p, sport_base=base,
            )
            for probe in found.probes:
                conns.append(Connection(sport=probe.sport, path=probe.path))
            base += found.attempts + 1
        return conns

    # blind ECMP: a pseudo-random but deterministic sport per connection
    from ..routing.hashing import FiveTuple, hash_five_tuple

    sports: List[int] = []
    requests = []
    for i, p in enumerate(plane_seq):
        probe_ft = FiveTuple(src_nic.ip, dst_nic.ip, i, dport)
        sport = 49152 + (hash_five_tuple(probe_ft, seed=0xC0FFEE) + i) % 16384
        sports.append(sport)
        requests.append(
            (src_nic, dst_nic, FiveTuple(src_nic.ip, dst_nic.ip, sport, dport), p)
        )
    route_many = getattr(router, "route_many", None)
    if route_many is not None:
        paths = route_many(requests)
    else:
        paths = [router.path_for(s, d, ft, plane=p) for s, d, ft, p in requests]
    conns.extend(
        Connection(sport=sport, path=path) for sport, path in zip(sports, paths)
    )
    return conns


class SchedulingPolicy:
    """Chooses the connection carrying the next message.

    Contract: :meth:`pick` returns one of ``conns`` and may depend only
    on the connections' ``wqe_bytes`` and on ``msg_index % len(conns)``.
    :meth:`MessageScheduler.send_all` relies on this to skip repeated
    cycles of an equal-size stream; all three built-in policies meet it.
    """

    def pick(self, conns: Sequence[Connection], msg_index: int) -> Connection:
        raise NotImplementedError


class LeastLoadedPolicy(SchedulingPolicy):
    """Algorithm 2: the connection with minimal outstanding WQE bytes."""

    def pick(self, conns: Sequence[Connection], msg_index: int) -> Connection:
        return min(conns, key=lambda c: c.wqe_bytes)


class RoundRobinPolicy(SchedulingPolicy):
    def pick(self, conns: Sequence[Connection], msg_index: int) -> Connection:
        return conns[msg_index % len(conns)]


class SingleConnectionPolicy(SchedulingPolicy):
    def pick(self, conns: Sequence[Connection], msg_index: int) -> Connection:
        return conns[0]


@dataclass
class MessageScheduler:
    """Drives a message stream over a connection set (Algorithm 2 loop).

    ``drain_weights`` lets the caller model heterogeneous path quality:
    a connection's counter is drained proportionally to its weight
    between messages, so congested (low-weight) connections accumulate
    backlog and the least-loaded policy naturally avoids them. Weights
    must be finite and non-negative with a positive sum; a zero weight
    models a stalled connection.
    """

    conns: List[Connection]
    policy: SchedulingPolicy = field(default_factory=LeastLoadedPolicy)

    def send_all(
        self,
        message_sizes: Sequence[float],
        drain_weights: Optional[Sequence[float]] = None,
    ) -> List[int]:
        """Assign each message to a connection; returns chosen indices.

        Exact per message. In an equal-size stream the next pick depends
        only on the WQE vector and ``msg_index % n`` (the
        :class:`SchedulingPolicy` contract), so once that vector repeats
        at a multiple of ``n`` every later step repeats too: the whole
        cycles left are appended at once and only the remainder runs.
        """
        conns = self.conns
        n = len(conns)
        if not n:
            raise CollectiveError("no connections established")
        # each connection drains size * w / sum(weights) after every
        # posting: service in proportion to its current path quality
        if drain_weights is None:
            shares = [1.0 / n] * n
        else:
            weights = list(drain_weights)
            if len(weights) != n:
                raise CollectiveError("one drain weight per connection required")
            total_w = sum(weights)
            if not (total_w > 0.0 and all(0.0 <= w < math.inf for w in weights)):
                raise CollectiveError(
                    "drain weights must be finite, non-negative and sum to more than 0"
                )
            shares = [w / total_w for w in weights]
        # picks are recorded by identity: dataclass equality would compare
        # every field, paths included, and match an equal twin first
        ids = list(map(id, conns))
        pick = self.policy.pick
        sizes = list(message_sizes)
        n_msgs = len(sizes)
        chosen: List[int] = []
        # WQE vector -> first message index it was seen at (multiples of n)
        seen: Optional[Dict[Tuple[float, ...], int]] = None
        if n_msgs > 2 * n:
            size = sizes[0]
            # NaN != NaN: a NaN stream runs every message
            if size == size and sizes.count(size) == n_msgs:
                seen = {}
        i = 0
        while i < n_msgs:
            if seen is not None and not i % n:
                first = seen.setdefault(tuple(map(_WQE_BYTES, conns)), i)
                if first != i:
                    cycle = chosen[first:]
                    reps = (n_msgs - i) // len(cycle)
                    chosen += cycle * reps
                    for k, c in enumerate(conns):
                        # one addition per post, exactly as post() rounds
                        c.total_bytes = reduce(
                            add, repeat(size, cycle.count(k) * reps), c.total_bytes
                        )
                    i += reps * len(cycle)
                    seen = None
                    continue
            size = sizes[i]
            conn = pick(conns, i)
            conn.post(size)
            chosen.append(ids.index(id(conn)))
            for c, share in zip(conns, shares):
                c.complete(size * share)
            i += 1
        return chosen

    def assigned_bytes(self) -> List[float]:
        return [c.total_bytes for c in self.conns]
