"""Topology serialization to/from plain dictionaries (JSON-safe).

Lets users persist built fabrics, diff them against blueprints, or load
them into other tools. Round-trips every entity: hosts (with GPUs and
NICs, including assigned IPs/MACs), switches (role/tier/plane/rail),
ports and links (including operational state), and builder metadata.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from dataclasses import asdict
from typing import Any, Dict

from .entities import (
    Gpu,
    Host,
    Link,
    Nic,
    Port,
    PortKind,
    PortRef,
    Switch,
    SwitchRole,
)
from .errors import TopologyError
from .topology import Topology

#: bumped on wire-format changes
SCHEMA_VERSION = 1


def topology_to_dict(topo: Topology) -> Dict[str, Any]:
    """Serialize a topology into a JSON-safe dict."""
    spec = topo.meta.get("spec")
    meta = {k: v for k, v in topo.meta.items() if k != "spec"}
    if isinstance(spec, dict):
        # a loaded topology keeps its spec in the serialized form
        meta["spec"] = spec
    elif spec is not None:
        meta["spec"] = {"type": type(spec).__name__, "fields": asdict(spec)}
    return {
        "schema": SCHEMA_VERSION,
        "name": topo.name,
        "meta": meta,
        "hosts": [
            {
                "name": h.name,
                "pod": h.pod,
                "segment": h.segment,
                "index": h.index,
                "backup": h.backup,
                "nvlink_gbps": h.nvlink_gbps,
                "gpus": [g.rail for g in h.gpus],
                "nics": [
                    {
                        "index": n.index,
                        "rail": n.rail,
                        "ip": n.ip,
                        "mac": n.mac,
                        "ports": [[p.node, p.index] for p in n.ports],
                    }
                    for n in h.nics
                ],
            }
            for h in topo.hosts.values()
        ],
        "switches": [
            {
                "name": s.name,
                "role": s.role.value,
                "tier": s.tier,
                "pod": s.pod,
                "segment": s.segment,
                "plane": s.plane,
                "rail": s.rail,
                "chip_gbps": s.chip_gbps,
                "hash_seed": s.hash_seed,
                "up": s.up,
            }
            for s in topo.switches.values()
        ],
        "ports": {
            node: [
                {
                    "gbps": p.gbps,
                    "kind": p.kind.value,
                    "nic_index": p.nic_index,
                    "nic_port": p.nic_port,
                }
                for p in plist
            ]
            for node, plist in topo.ports.items()
        },
        "links": [
            {
                "id": l.link_id,
                "a": [l.a.node, l.a.index],
                "b": [l.b.node, l.b.index],
                "gbps": l.gbps,
                "up": l.up,
            }
            for l in topo.links.values()
        ],
    }


def topology_from_dict(data: Dict[str, Any]) -> Topology:
    """Rebuild a topology from :func:`topology_to_dict` output."""
    if data.get("schema") != SCHEMA_VERSION:
        raise TopologyError(
            f"unsupported schema {data.get('schema')!r}, expected {SCHEMA_VERSION}"
        )
    topo = Topology(name=data["name"])
    topo.meta.update(data.get("meta", {}))

    for s in data["switches"]:
        topo.add_switch(
            Switch(
                name=s["name"],
                role=SwitchRole(s["role"]),
                tier=s["tier"],
                pod=s["pod"],
                segment=s["segment"],
                plane=s["plane"],
                rail=s["rail"],
                chip_gbps=s["chip_gbps"],
                hash_seed=s["hash_seed"],
                up=s["up"],
            )
        )
    for h in data["hosts"]:
        host = topo.add_host(
            Host(
                name=h["name"],
                pod=h["pod"],
                segment=h["segment"],
                index=h["index"],
                backup=h["backup"],
                nvlink_gbps=h["nvlink_gbps"],
            )
        )
        host.gpus = [Gpu(host=host.name, rail=r) for r in h["gpus"]]
        for n in h["nics"]:
            nic = Nic(
                host=host.name,
                index=n["index"],
                rail=n["rail"],
                ip=n["ip"],
                mac=n["mac"],
                ports=tuple(PortRef(node, idx) for node, idx in n["ports"]),
            )
            host.nics.append(nic)

    # ports (in index order; link ids patched below)
    for node, plist in data["ports"].items():
        if not topo.has_node(node):
            raise TopologyError(f"ports listed for unknown node {node!r}")
        for i, p in enumerate(plist):
            port = Port(
                ref=PortRef(node, i),
                gbps=p["gbps"],
                kind=PortKind(p["kind"]),
                nic_index=p["nic_index"],
                nic_port=p["nic_port"],
            )
            topo.ports[node].append(port)

    max_id = -1
    for l in data["links"]:
        link = Link(
            link_id=l["id"],
            a=PortRef(l["a"][0], l["a"][1]),
            b=PortRef(l["b"][0], l["b"][1]),
            gbps=l["gbps"],
            up=l["up"],
        )
        topo.links[link.link_id] = link
        topo.port(link.a).link_id = link.link_id
        topo.port(link.b).link_id = link.link_id
        max_id = max(max_id, link.link_id)
    topo._next_link_id = max_id + 1
    return topo


def to_jsonable(value: Any) -> Any:
    """Recursively convert a value into plain JSON-safe types.

    Dataclasses become dicts, enums their values, mappings plain dicts
    (string keys), and tuples/sets/sequences lists. Anything already
    JSON-native passes through; everything else falls back to ``str``
    so callers never have to special-case exotic leaf types.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return to_jsonable(value.value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: to_jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [to_jsonable(v) for v in items]
    return str(value)


def stable_json_dumps(value: Any) -> str:
    """Deterministic JSON encoding: sorted keys, compact separators.

    Two equal values always produce the same byte string, which makes
    the output safe to hash (the experiment engine's cache keys) and to
    diff (run manifests).
    """
    return json.dumps(to_jsonable(value), sort_keys=True,
                      separators=(",", ":"))


def topology_to_json(topo: Topology) -> str:
    """Serialize a topology to a JSON string."""
    return json.dumps(topology_to_dict(topo))


def topology_from_json(text: str) -> Topology:
    """Rebuild a topology from :func:`topology_to_json` output."""
    return topology_from_dict(json.loads(text))


def save_topology(topo: Topology, path: str) -> None:
    """Write a topology to a JSON file.

    The JSON is built before the file is opened, so a topology that
    cannot be serialized leaves an existing file as it was.
    """
    text = topology_to_json(topo)
    with open(path, "w") as fh:
        fh.write(text)


def load_topology(path: str) -> Topology:
    """Read a topology from a JSON file."""
    with open(path) as fh:
        return topology_from_dict(json.load(fh))
