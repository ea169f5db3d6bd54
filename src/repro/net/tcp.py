"""TCP transport: the protocol over real sockets.

The paper's prototype was "implemented in C using RPC in user mode
running over TCP" (§5.1).  This transport is the Python analogue: every
storage node listens on a loopback TCP socket and serves each accepted
connection on a thread of its own, clients keep one connection per
(caller, target) pair, and every request and answer is one
length-prefixed frame in the spelled-out layout of
:mod:`repro.net.wire`: a fixed ``struct`` layout per storage and
directory op, a tagged layout over a closed type set for everything
else.  Decoding runs no code a peer chose, so a malformed or hostile
frame costs the receiver the connection and nothing more.  The
protocol stack above is completely unchanged —
``Cluster(transport=TcpTransport())`` runs the same state
machines over real kernel sockets, which the integration tests use to
check that nothing in the protocol secretly relies on the in-process
shortcut.

Fail-stop semantics: crashing a node closes its listener and all of its
connections; subsequent calls surface as :class:`NodeUnavailableError`,
and so does an answer that does not decode.
The servers are threads of this process, so a fan-out's legs run on the
caller's thread (:meth:`~repro.net.transport.Transport.fan_out`).
"""

from __future__ import annotations

import socket
import threading

from repro.errors import NodeUnavailableError, RpcTimeoutError, UnknownNodeError
from repro.net import wire
from repro.net.message import NO_ENVELOPE, Envelope
from repro.net.transport import RpcHandler, Transport

_MAX_FRAME = 64 * 1024 * 1024
#: Seconds a dial to a node's listener may take before the node counts
#: as unavailable (per-call deadlines bound the round trip itself).
_CONNECT_TIMEOUT = 10.0


def _recv_into(sock: socket.socket, view: memoryview) -> None:
    """Fill ``view`` from ``sock``."""
    while view:
        got = sock.recv_into(view)
        if not got:
            raise ConnectionError("peer closed")
        view = view[got:]


def _recv_frame(sock: socket.socket) -> bytearray:
    """One frame's body, read into a buffer of its own: decoded blocks
    are views over it, so it is never reused."""
    prefix = bytearray(wire.PREFIX.size)
    _recv_into(sock, memoryview(prefix))
    (length,) = wire.PREFIX.unpack(prefix)
    if length > _MAX_FRAME:
        raise ConnectionError(f"frame of {length} bytes exceeds limit")
    body = bytearray(length)
    _recv_into(sock, memoryview(body))
    return body


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
                # A frame that does not decode raises WireError, a
                # ConnectionError: the connection closes unanswered.
                code, op, args, env = wire.decode_request(_recv_frame(conn))
                try:
                    controller = self.admission()
                    if controller is not None:
                        # Shed before service: the reject costs the
                        # node no handler time, and NodeBusyError
                        # travels back as an ordinary error answer.
                        controller.acquire(self.node_id, op=op)
                    try:
                        result = self.handler.handle(op, *args, env=env)
                    finally:
                        if controller is not None:
                            controller.release(self.node_id)
                    reply = wire.encode_answer(code, result)
                except Exception as exc:  # deliver server-side errors
                    reply = wire.encode_error(exc)
                conn.sendall(reply)
        except (ConnectionError, OSError):
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
        request = wire.encode_request(op, args, env)
        self._record_request(op, args, env.kind)
        conn, lock = self._connection(src, dst)
        timeout = env.timeout
        try:
            with lock:
                if timeout is None:
                    conn.sendall(request)
                    payload = _recv_frame(conn)
                else:
                    # Each settimeout toggles the socket's blocking mode
                    # with a syscall: only a call with a deadline pays.
                    conn.settimeout(timeout)
                    try:
                        conn.sendall(request)
                        payload = _recv_frame(conn)
                    finally:
                        conn.settimeout(None)
            # The answer's layout is the request's op code, the first
            # byte of its body.
            failed, result = wire.decode_answer(request[wire.PREFIX.size], payload)
        except socket.timeout as exc:
            # The stream position is now unknown (a late reply would
            # desync framing); drop the connection and report a timeout,
            # which is suspicion — not proof — of failure.
            self._drop(src, dst)
            raise RpcTimeoutError(dst, op, timeout) from exc
        except (ConnectionError, OSError) as exc:
            # Also an answer that does not decode (WireError).
            self._drop(src, dst)
            # Distinguish a crash (fail-stop, detectable) from a race
            # where the node was re-registered mid-call.
            self._check_reachable(src, dst)
            raise NodeUnavailableError(dst, f"connection failed: {exc}") from exc
        self._record_response(op, result, env.kind)
        if failed:
            raise result
        return result

    def _drop(self, src: str, dst: str) -> None:
        with self._lock:
            stale = self._conns.pop((src, dst), None)
        if stale is not None:
            stale.close()

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
