"""The ``repro serve`` daemon: a stdlib-asyncio HTTP/1.1 front end.

One event loop, one :class:`~repro.serve.batching.MicroBatcher`, one
:class:`~repro.serve.state.ServeState`. Endpoints:

* ``GET /healthz``        -- liveness + topology identity;
* ``GET /stats``          -- qps, batcher counters, cache stats;
* ``GET /metrics``        -- Prometheus text format (obs exposition);
* ``POST /v1/query``      -- one query object, one result;
* ``POST /v1/batch``      -- ``{"queries": [...]}``; the request is
  submitted whole, as one unit of work of the micro-batcher;
* ``POST /admin/shutdown`` -- graceful stop (drains the batcher).

The HTTP layer is deliberately minimal (keep-alive, Content-Length
bodies, JSON in/out) -- enough for the CLI client, the CI smoke job,
and curl; it is not a general web server. A request it cannot frame
gets a status and a closed connection: 400 for a request line without
a method and a target, a request or header line over 64 KiB, or a
``Content-Length`` that is not a non-negative decimal integer; 413 for
a body over 8 MiB. Before closing, the daemon half-closes and drops
what the client still sends (up to 2 s and 16 MiB), so a client
mid-send reads the status instead of a connection reset.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import Counter
from typing import Any, Dict, Optional, Tuple

from ..obs import Recorder
from ..obs.export import prometheus_exposition
from .batching import DEFAULT_MAX_BATCH, DEFAULT_MAX_DELAY_S, MicroBatcher
from .query import Query, QueryError
from .state import ServeState

_MAX_BODY = 8 * 1024 * 1024
_MAX_LINE = 64 * 1024
#: after a framing fault's answer the daemon reads and drops the rest
#: of the request for at most this long and this many bytes, so a
#: client still sending is not reset before it can read the status
_LINGER_S = 2.0
_LINGER_BYTES = 2 * _MAX_BODY


class _FramingError(Exception):
    """A request that cannot be framed: answer ``status`` and close."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class ServeDaemon:
    """Async HTTP server over a resident :class:`ServeState`."""

    def __init__(
        self,
        state: ServeState,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_delay_s: float = DEFAULT_MAX_DELAY_S,
        recorder: Optional[Recorder] = None,
    ):
        self.state = state
        self.host = host
        self.port = port  # rewritten with the bound port after start()
        self.recorder = recorder if recorder is not None else Recorder()
        self.batcher = MicroBatcher(
            state.execute_batch, max_batch, max_delay_s,
            recorder=self.recorder,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._writers: "set[asyncio.StreamWriter]" = set()
        self._started_mono = time.monotonic()
        m = self.recorder.metrics
        self._c_http = {}
        self._g_qps = m.gauge("serve.qps")
        self._g_hit_rate = m.gauge("serve.cache_hit_rate")
        self._c_requests: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port, limit=_MAX_LINE
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_mono = time.monotonic()

    async def serve_until_stopped(self) -> None:
        if self._server is None:
            await self.start()
        assert self._stopping is not None
        await self._stopping.wait()
        self.batcher.flush()
        self._server.close()
        # nudge parked keep-alive connections to EOF so their handler
        # tasks exit before the loop tears down (no cancel noise)
        for writer in list(self._writers):
            writer.close()
        await self._server.wait_closed()
        await asyncio.sleep(0)

    async def run(self) -> None:
        """start() + serve_until_stopped() in one call (thread target)."""
        await self.start()
        await self.serve_until_stopped()

    def request_stop(self) -> None:
        """Signal the daemon to stop; safe to call from any thread.

        ``asyncio.Event.set`` alone would not wake the loop when called
        off-thread (test harnesses, embedding processes), so the set is
        marshalled through ``call_soon_threadsafe``.
        """
        if self._stopping is None or self._loop is None:
            return
        if self._loop.is_closed():
            return
        self._loop.call_soon_threadsafe(self._stopping.set)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_conn(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except _FramingError as err:
                    status, payload, content_type = _json(
                        err.status, {"ok": False, "error": str(err)}
                    )
                    _write_response(writer, status, payload, content_type,
                                    keep_alive=False)
                    await writer.drain()
                    await _linger(reader, writer)
                    break
                if request is None:
                    break
                method, target, headers, body = request
                status, payload, content_type = await self._dispatch(
                    method, target, body
                )
                keep_alive = headers.get("connection", "").lower() != "close"
                _write_response(
                    writer, status, payload, content_type, keep_alive
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, bytes, str]:
        route = (method, target.split("?", 1)[0])
        self._count_http(route[1])
        if route == ("GET", "/healthz"):
            return _json(200, {
                "ok": True,
                "hosts": len(self.state.topo.hosts),
                "switches": len(self.state.topo.switches),
                "uptime_s": time.monotonic() - self._started_mono,
            })
        if route == ("GET", "/stats"):
            return _json(200, self._stats())
        if route == ("GET", "/metrics"):
            self._refresh_gauges()
            text = prometheus_exposition(self.recorder)
            return 200, text.encode(), "text/plain; version=0.0.4"
        if route == ("POST", "/v1/query"):
            try:
                query = self._parse_query(body)
            except QueryError as err:
                return _json(400, {"ok": False, "error": str(err)})
            results = await self.batcher.submit((query,))
            return _json(200, results[0])
        if route == ("POST", "/v1/batch"):
            try:
                queries = self._parse_batch(body)
            except QueryError as err:
                return _json(400, {"ok": False, "error": str(err)})
            results = await self.batcher.submit(queries)
            return _json(200, {"results": results})
        if route == ("POST", "/admin/shutdown"):
            self.request_stop()
            return _json(200, {"ok": True, "stopping": True})
        return _json(404, {"ok": False, "error": f"no route {target!r}"})

    # ------------------------------------------------------------------
    # parsing / stats
    # ------------------------------------------------------------------
    def _parse_query(self, body: bytes) -> Query:
        obj = _parse_json(body)
        query = Query.from_jsonable(obj)
        self._count_kind(query.kind, 1)
        return query

    def _parse_batch(self, body: bytes) -> Tuple[Query, ...]:
        obj = _parse_json(body)
        if not isinstance(obj, dict) or "queries" not in obj:
            raise QueryError('batch body must be {"queries": [...]}')
        raw = obj["queries"]
        if not isinstance(raw, list) or not raw:
            raise QueryError("queries must be a non-empty list")
        queries = tuple([Query.from_jsonable(q) for q in raw])
        for kind, n in Counter(q.kind for q in queries).items():
            self._count_kind(kind, n)
        return queries

    def _count_kind(self, kind: str, n: int) -> None:
        c = self._c_requests.get(kind)
        if c is None:
            c = self.recorder.metrics.counter("serve.requests", kind=kind)
            self._c_requests[kind] = c
        c.inc(n)

    def _count_http(self, endpoint: str) -> None:
        c = self._c_http.get(endpoint)
        if c is None:
            c = self.recorder.metrics.counter(
                "serve.http_requests", endpoint=endpoint
            )
            self._c_http[endpoint] = c
        c.inc()

    def _refresh_gauges(self) -> None:
        elapsed = max(time.monotonic() - self._started_mono, 1e-9)
        self._g_qps.set(self.batcher.stats.requests / elapsed)
        self._g_hit_rate.set(self.state.router.stats.hit_rate)

    def _stats(self) -> Dict[str, Any]:
        self._refresh_gauges()
        out = self.state.stats()
        out["uptime_s"] = time.monotonic() - self._started_mono
        out["qps"] = self._g_qps.value
        out["batch"] = self.batcher.stats.as_dict()
        return out


# ----------------------------------------------------------------------
# minimal HTTP/1.1 plumbing
# ----------------------------------------------------------------------
async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    try:
        line = await _readline(reader, "request line")
    except ConnectionError:
        return None
    if not line:
        return None
    parts = line.decode("latin-1").split()
    if len(parts) < 2:
        raise _FramingError(400, "request line needs a method and a target")
    method, target = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    while True:
        raw = await _readline(reader, "header line")
        if raw in (b"\r\n", b"\n", b""):
            break
        text = raw.decode("latin-1").rstrip("\r\n")
        if ":" in text:
            key, _, value = text.partition(":")
            headers[key.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "0") or "0"
    # HTTP allows digits only; int() would also take "+5", "1_0", "-5"
    if not (raw_length.isascii() and raw_length.isdigit()):
        raise _FramingError(
            400,
            f"Content-Length must be a non-negative decimal integer, "
            f"got {raw_length!r}",
        )
    length = int(raw_length)
    if length > _MAX_BODY:
        raise _FramingError(
            413, f"body of {length} bytes exceeds the {_MAX_BODY}-byte limit"
        )
    body = await reader.readexactly(length) if length else b""
    return method, target, headers, body


async def _readline(reader: asyncio.StreamReader, what: str) -> bytes:
    try:
        return await reader.readline()
    except ValueError:  # readline's form of asyncio.LimitOverrunError
        raise _FramingError(400, f"{what} exceeds {_MAX_LINE} bytes")


async def _linger(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    """Half-close, then drop input until EOF or a linger bound."""
    writer.write_eof()
    loop = asyncio.get_running_loop()
    deadline = loop.time() + _LINGER_S
    left = _LINGER_BYTES
    try:
        while left > 0:
            chunk = await asyncio.wait_for(
                reader.read(min(left, _MAX_LINE)), deadline - loop.time()
            )
            if not chunk:
                return
            left -= len(chunk)
    except (asyncio.TimeoutError, ConnectionError):
        pass


def _write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: bytes,
    content_type: str,
    keep_alive: bool,
) -> None:
    reason = {
        200: "OK", 400: "Bad Request", 404: "Not Found",
        413: "Content Too Large",
    }.get(status, "Error")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    )
    writer.write(head.encode("latin-1") + payload)


def _parse_json(body: bytes) -> Any:
    try:
        return json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as err:
        raise QueryError(f"invalid JSON body: {err}")


def _json(status: int, obj: Any) -> Tuple[int, bytes, str]:
    return (
        status,
        json.dumps(obj, sort_keys=True).encode(),
        "application/json",
    )
