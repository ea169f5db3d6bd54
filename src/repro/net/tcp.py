"""TCP transport: the protocol over real sockets.

The paper's prototype was "implemented in C using RPC in user mode
running over TCP" (§5.1).  This transport is the Python analogue: every
storage node listens on a loopback TCP socket and serves each accepted
connection on a thread of its own, clients keep one connection per
(caller, target) pair, and RPCs are
length-prefixed pickled ``(op, args, envelope)`` frames.  The
protocol stack above is completely unchanged —
``Cluster(transport=TcpTransport())`` runs the same state
machines over real kernel sockets, which the integration tests use to
check that nothing in the protocol secretly relies on the in-process
shortcut.

Fail-stop semantics: crashing a node closes its listener and all of its
connections; subsequent calls surface as :class:`NodeUnavailableError`.
The servers are threads of this process, so a fan-out's legs run on the
caller's thread (:meth:`~repro.net.transport.Transport.fan_out`).
Pickle is used for framing — acceptable here because both ends are this
process/test-suite on loopback (never expose this to untrusted peers).
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading

from repro.errors import NodeUnavailableError, RpcTimeoutError, UnknownNodeError
from repro.net.message import NO_ENVELOPE, Envelope
from repro.net.transport import RpcHandler, Transport

_HEADER = struct.Struct("!I")
_MAX_FRAME = 64 * 1024 * 1024
#: Seconds a dial to a node's listener may take before the node counts
#: as unavailable (per-call deadlines bound the round trip itself).
_CONNECT_TIMEOUT = 10.0


def _send_frame(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, size: int) -> bytes:
    chunks = []
    remaining = size
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("peer closed")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock: socket.socket) -> bytes:
    (length,) = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if length > _MAX_FRAME:
        raise ConnectionError(f"frame of {length} bytes exceeds limit")
    return _recv_exact(sock, length)


class _NodeServer:
    """Listener + per-connection threads for one registered handler.

    ``admission`` is a zero-argument callable returning the transport's
    current :class:`~repro.net.backpressure.AdmissionController` (or
    None) — looked up per request so enabling admission control after
    registration still takes effect.
    """

    def __init__(self, node_id: str, handler: RpcHandler, admission=None):
        self.node_id = node_id
        self.handler = handler
        self.admission = admission or (lambda: None)
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self._open_conns: set[socket.socket] = set()
        self._lock = threading.Lock()
        self._closed = False
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"tcp-{node_id}", daemon=True
        )
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return  # listener closed
            with self._lock:
                if self._closed:
                    conn.close()
                    return
                self._open_conns.add(conn)
            threading.Thread(
                target=self._serve, args=(conn,), daemon=True
            ).start()

    def _serve(self, conn: socket.socket) -> None:
        try:
            while True:
                op, args, env = pickle.loads(_recv_frame(conn))
                try:
                    controller = self.admission()
                    if controller is not None:
                        # Shed before service: the reject costs the
                        # node no handler time, and NodeBusyError
                        # travels back as an ordinary ("err", exc).
                        controller.acquire(self.node_id, op=op)
                    try:
                        result = ("ok", self.handler.handle(op, *args, env=env))
                    finally:
                        if controller is not None:
                            controller.release(self.node_id)
                except Exception as exc:  # deliver server-side errors
                    result = ("err", exc)
                _send_frame(conn, pickle.dumps(result))
        except (ConnectionError, OSError, EOFError):
            pass
        finally:
            conn.close()
            with self._lock:
                self._open_conns.discard(conn)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            conns = list(self._open_conns)
            self._open_conns.clear()
        try:
            self.listener.close()
        except OSError:
            pass
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()


class TcpTransport(Transport):
    """RPC over loopback TCP sockets."""

    def __init__(self) -> None:
        super().__init__()
        self._servers: dict[str, _NodeServer] = {}
        self._conns: dict[tuple[str, str], socket.socket] = {}
        self._conn_locks: dict[tuple[str, str], threading.Lock] = {}

    def register(self, node_id: str, handler: RpcHandler | None = None) -> None:
        super().register(node_id, handler)
        if handler is not None:
            with self._lock:
                old = self._servers.pop(node_id, None)
            if old is not None:
                old.close()
            server = _NodeServer(
                node_id, handler, admission=lambda: self.admission
            )
            with self._lock:
                self._servers[node_id] = server

    def crash(self, node_id: str) -> None:
        super().crash(node_id)
        with self._lock:
            server = self._servers.get(node_id)
            stale = [key for key in self._conns if node_id in key]
            conns = [self._conns.pop(key) for key in stale]
        if server is not None:
            server.close()
        for conn in conns:
            conn.close()

    def _connection(self, src: str, dst: str) -> tuple[socket.socket, threading.Lock]:
        key = (src, dst)
        with self._lock:
            conn = self._conns.get(key)
            lock = self._conn_locks.setdefault(key, threading.Lock())
            server = self._servers.get(dst)
        if conn is not None:
            return conn, lock
        if server is None:
            raise UnknownNodeError(dst)
        try:
            conn = socket.create_connection(
                ("127.0.0.1", server.port), timeout=_CONNECT_TIMEOUT
            )
        except OSError as exc:
            raise NodeUnavailableError(dst, f"connect failed: {exc}") from exc
        conn.settimeout(None)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self._lock:
            existing = self._conns.get(key)
            if existing is not None:
                conn.close()
                return existing, lock
            self._conns[key] = conn
        return conn, lock

    def _call_impl(
        self,
        src: str,
        dst: str,
        op: str,
        *args: object,
        env: Envelope = NO_ENVELOPE,
    ) -> object:
        self._check_reachable(src, dst)
        request = pickle.dumps((op, args, env))
        self._record_request(op, args, env.kind)
        conn, lock = self._connection(src, dst)
        try:
            with lock:
                conn.settimeout(env.timeout)
                try:
                    _send_frame(conn, request)
                    payload = _recv_frame(conn)
                finally:
                    conn.settimeout(None)
        except socket.timeout as exc:
            # The stream position is now unknown (a late reply would
            # desync framing); drop the connection and report a timeout,
            # which is suspicion — not proof — of failure.
            with self._lock:
                stale = self._conns.pop((src, dst), None)
            if stale is not None:
                stale.close()
            raise RpcTimeoutError(dst, op, env.timeout) from exc
        except (ConnectionError, OSError) as exc:
            with self._lock:
                stale = self._conns.pop((src, dst), None)
            if stale is not None:
                stale.close()
            # Distinguish a crash (fail-stop, detectable) from a race
            # where the node was re-registered mid-call.
            self._check_reachable(src, dst)
            raise NodeUnavailableError(dst, f"connection failed: {exc}") from exc
        status, result = pickle.loads(payload)
        self._record_response(op, result, env.kind)
        if status == "err":
            raise result
        return result

    def close(self) -> None:
        """Shut down all listeners and connections (test teardown)."""
        with self._lock:
            servers = list(self._servers.values())
            conns = list(self._conns.values())
            self._servers.clear()
            self._conns.clear()
        for server in servers:
            server.close()
        for conn in conns:
            conn.close()
