"""ServeDaemon end to end: a real daemon on localhost, a real client.

One module-scoped daemon (port 0, background thread running its own
event loop) serves every test; the blocking :class:`ServeClient`
drives it over actual sockets. Covers the endpoint surface, request
coalescing through ``/v1/batch``, the Prometheus exposition, error
mapping, and graceful shutdown.
"""

from __future__ import annotations

import json
import logging
import socket
import threading

import pytest

from repro.obs import Recorder
from repro.obs.export import parse_prometheus_text
from repro.serve import Query, ServeClient, ServeDaemon, ServeState
from repro.topos import HpnSpec, build_hpn


class DaemonHarness:
    """Run a ServeDaemon on a private event loop in a thread."""

    def __init__(self):
        import asyncio

        self.topo = build_hpn(HpnSpec(
            segments_per_pod=2, hosts_per_segment=4, aggs_per_plane=2,
        ))
        self.recorder = Recorder()
        self.state = ServeState(self.topo, recorder=self.recorder)
        self.daemon = ServeDaemon(
            self.state, host="127.0.0.1", port=0,
            max_batch=8, max_delay_s=0.002, recorder=self.recorder,
        )
        self._ready = threading.Event()
        self._asyncio = asyncio
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        async def main():
            await self.daemon.start()
            self._ready.set()
            await self.daemon.serve_until_stopped()

        self._asyncio.run(main())

    def start(self):
        self.thread.start()
        assert self._ready.wait(10.0), "daemon never came up"
        return self

    def stop(self):
        self.daemon.request_stop()
        self.thread.join(10.0)
        assert not self.thread.is_alive()


@pytest.fixture(scope="module")
def daemon():
    harness = DaemonHarness().start()
    yield harness
    if harness.thread.is_alive():
        harness.stop()


@pytest.fixture()
def client(daemon):
    with ServeClient("127.0.0.1", daemon.daemon.port, timeout=10.0) as c:
        yield c


def hosts(daemon):
    return sorted(h.name for h in daemon.topo.active_hosts())


def send_raw(port, raw):
    """Send ``raw`` on a new connection; read until the daemon closes it."""
    reply = b""
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall(raw)
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return reply
            reply += chunk


class TestEndpoints:
    def test_healthz(self, daemon, client):
        health = client.healthz()
        assert health["ok"] is True
        assert health["hosts"] == len(daemon.topo.hosts)
        assert health["uptime_s"] >= 0

    def test_path_query_round_trip(self, daemon, client):
        a, b = hosts(daemon)[0], hosts(daemon)[-1]
        res = client.query(Query(kind="path", src_host=a, dst_host=b))
        assert res["ok"] is True and res["kind"] == "path"
        assert res["nodes"][0] != res["nodes"][-1]
        assert res["hops"] == len(res["nodes"]) - 1
        # dict wire shape is accepted too, and answers identically
        again = client.query({"kind": "path", "src_host": a, "dst_host": b})
        assert again == res

    def test_every_kind_over_the_wire(self, daemon, client):
        a, b = hosts(daemon)[0], hosts(daemon)[-1]
        planes = client.query(Query(kind="planes", src_host=a, dst_host=b))
        assert planes["planes"] == [0, 1]
        repac = client.query(Query(
            kind="repac", src_host=a, dst_host=b, num_paths=2,
            sport_span=24,
        ))
        assert repac["ok"] is True and repac["found"] >= 1
        lid = sorted(daemon.topo.links)[0]
        residual = client.query(Query(
            kind="residual", src_host=a, dst_host=b, num_paths=2,
            sport_span=16, fail_links=(lid,),
        ))
        assert residual["ok"] is True
        assert residual["residual_gbps"] == sum(
            residual["bottlenecks_gbps"]
        )

    def test_batch_endpoint_coalesces(self, daemon, client):
        a, b = hosts(daemon)[0], hosts(daemon)[-1]
        queries = [
            Query(kind="path", src_host=a, dst_host=b, sport=49152 + i % 3)
            for i in range(9)
        ]
        before = daemon.daemon.batcher.stats.batches
        results = client.batch(queries)
        assert len(results) == 9
        # 3 distinct sports -> results repeat with period 3
        assert results == results[:3] * 3
        # the request is one unit of work: 9 queries, one batch
        grew = daemon.daemon.batcher.stats.batches - before
        assert grew == 1
        assert daemon.daemon.batcher.stats.deduped >= 6

    def test_bad_queries_get_400(self, daemon, client):
        with pytest.raises(RuntimeError, match="400"):
            client.query({"kind": "teleport", "src_host": "a",
                          "dst_host": "b"})
        with pytest.raises(RuntimeError, match="400"):
            client.query({"kind": "path"})
        # unknown host is a *valid* query with an error result, not a 400
        res = client.query({"kind": "path", "src_host": "ghost",
                            "dst_host": "ghost2"})
        assert res["ok"] is False and "unknown host" in res["error"]
        # fields whose conversion raised something other than a
        # QueryError once dropped the connection instead of a 400
        a, b = hosts(daemon)[0], hosts(daemon)[-1]
        good = {"kind": "path", "src_host": a, "dst_host": b}
        inf = float("inf")  # json.dumps writes it as Infinity
        malformed = [
            ({"fail_switches": 5}, "fail_switches must be a list"),
            ({"fail_switches": None}, "fail_switches must be a list"),
            ({"fail_switches": True}, "fail_switches must be a list"),
            ({"sport": inf}, "sport must be an integer"),
            ({"src_rail": -inf}, "src_rail must be an integer"),
            ({"num_paths": inf}, "num_paths must be an integer"),
            ({"plane": -inf}, "plane must be an integer or null"),
            ({"fail_links": [3, inf]}, "fail_links must be a list of link ids"),
        ]
        for fields, message in malformed:
            bad = dict(good, **fields)
            with pytest.raises(RuntimeError, match=f"400.*{message}"):
                client.query(bad)
            with pytest.raises(RuntimeError, match=f"400.*{message}"):
                client.batch([good, bad])
        # the daemon is still up and answering on the same client
        assert client.healthz()["ok"] is True
        assert client.query(good)["ok"] is True

    def test_bad_content_length_gets_400_and_close(self, daemon, client):
        # a body that cannot be framed once got no bytes back at all;
        # HTTP allows digits only, so "+5" and "1_0" are malformed too
        for value in ("abc", "-5", "+5", "1_0"):
            with socket.create_connection(
                ("127.0.0.1", daemon.daemon.port), timeout=10.0
            ) as sock:
                sock.sendall(
                    b"POST /v1/query HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: " + value.encode() + b"\r\n\r\n"
                )
                raw = b""
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:  # the daemon closed the connection
                        break
                    raw += chunk
            head, _, body = raw.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 400 "), raw
            assert b"Connection: close" in head, raw
            doc = json.loads(body)
            assert doc["ok"] is False
            assert "Content-Length" in doc["error"]
            assert repr(value) in doc["error"]
        assert client.healthz()["ok"] is True

    @pytest.mark.parametrize("raw, status, needle", [
        (b"POST /v1/query HTTP/1.1\r\nHost: x\r\n"
         b"Content-Length: 8388609\r\n\r\n" + b"{" * (2 * 1024 * 1024),
         413, "8388609 bytes"),
        (b"GARBAGE\r\n\r\n", 400, "a method and a target"),
        (b"GET /" + b"a" * 300000 + b" HTTP/1.1\r\n\r\n", 400,
         "request line exceeds"),
        (b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 70000 + b"\r\n\r\n",
         400, "header line exceeds"),
    ], ids=["body-over-limit", "no-target", "long-request-line",
            "long-header-line"])
    def test_framing_fault_gets_status_and_close(
        self, daemon, client, caplog, raw, status, needle
    ):
        # each of these once got no bytes back; the long lines also
        # logged an unhandled ValueError from asyncio's readline. The
        # oversize body and the long request line are still being sent
        # when the answer is written: closing on unread input once
        # reset the connection before the client could read it
        caplog.set_level(logging.ERROR, logger="asyncio")
        reply = send_raw(daemon.daemon.port, raw)
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 %d " % status), reply[:200]
        assert b"Connection: close" in head, head
        doc = json.loads(body)
        assert doc["ok"] is False
        assert needle in doc["error"], doc
        assert client.healthz()["ok"] is True
        errors = [r for r in caplog.records
                  if r.name == "asyncio" and r.levelno >= logging.ERROR]
        assert not errors, [r.getMessage() for r in errors]

    def test_unknown_route_is_404(self, daemon, client):
        status, body = client._request("GET", "/nope", None)
        assert status == 404

    def test_stats_exposes_cache_and_batcher(self, daemon, client):
        a, b = hosts(daemon)[0], hosts(daemon)[1]
        client.query(Query(kind="path", src_host=a, dst_host=b))
        stats = client.stats()
        assert stats["topology"]["hosts"] == len(daemon.topo.hosts)
        assert stats["batch"]["requests"] >= 1
        assert 0.0 <= stats["cache"]["hit_rate"] <= 1.0
        assert stats["qps"] >= 0

    def test_metrics_parse_and_carry_serve_families(self, daemon, client):
        a, b = hosts(daemon)[0], hosts(daemon)[-1]
        client.query(Query(kind="path", src_host=a, dst_host=b))
        families = parse_prometheus_text(client.metrics())
        for name in ("serve_qps", "serve_cache_hit_rate",
                     "serve_requests", "serve_http_requests",
                     "serve_batch_size"):
            assert name in families, sorted(families)
        kinds = {
            labels.get("kind")
            for _, labels, _ in families["serve_requests"]["samples"]
        }
        assert "path" in kinds
        hit_rate = families["serve_cache_hit_rate"]["samples"][0][2]
        assert 0.0 <= hit_rate <= 1.0
        counts = [
            value
            for name, _labels, value in families["serve_batch_size"]["samples"]
            if name.endswith("_count")
        ]
        assert counts and counts[0] >= 1


class TestShutdown:
    def test_shutdown_endpoint_stops_daemon(self):
        harness = DaemonHarness().start()
        with ServeClient("127.0.0.1", harness.daemon.port,
                         timeout=10.0) as c:
            assert c.healthz()["ok"] is True
            assert c.shutdown()["stopping"] is True
        harness.thread.join(10.0)
        assert not harness.thread.is_alive()
