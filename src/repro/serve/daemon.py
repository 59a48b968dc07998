"""Sibyl-as-a-service: the TCP placement daemon.

A :class:`PlacementDaemon` binds a ``ThreadingTCPServer`` whose
per-connection handler threads speak the newline-delimited-JSON
protocol (:mod:`repro.serve.protocol`), validate each frame, and post
jobs to the single :class:`~repro.serve.engine.PlacementEngine` thread
that owns all tenant state.  One connection serves one client loop:
frames answered in order, so a client's ``seq`` numbers prove zero
dropped or duplicated responses.

Fault containment is structural: a malformed frame is answered with a
structured error on the offending connection only; a client that
disconnects mid-request costs one WARNING log; a slow-reading client
blocks only its own handler thread; and the accept loop never sees any
of it (``handle_error`` logs instead of propagating).
"""

from __future__ import annotations

import logging
import socketserver
import threading
from typing import Optional, Tuple

from .. import knobs
from ..obs.tracer import flush_tracer, span
from .engine import PlacementEngine
from .protocol import (
    ERR_TIMEOUT,
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_frame,
    encode_frame,
    error_frame,
    parse_query,
)

__all__ = ["PlacementDaemon"]

logger = logging.getLogger("repro.serve")


class _Handler(socketserver.StreamRequestHandler):
    """One client connection: read frame, submit, write response."""

    def handle(self) -> None:
        """Serve frames until EOF, a fatal frame, or shutdown."""
        peer = "%s:%s" % self.client_address[:2]
        while True:
            try:
                line = self.rfile.readline(MAX_FRAME_BYTES + 2)
            except OSError as exc:
                logger.warning("%s: read failed: %s", peer, exc)
                return
            if not line:
                return  # clean EOF between frames
            if not line.endswith(b"\n"):
                # EOF mid-frame (truncated request) or a frame beyond
                # the size bound; either way the stream is unframed
                # from here, so answer once and drop the connection.
                logger.warning("%s: truncated or oversized frame", peer)
                self._send(peer, error_frame(
                    "bad-json", "truncated or oversized frame"
                ))
                return
            stripped = line.strip()
            if not stripped:
                continue  # blank keep-alive line
            frame_id = None
            try:
                obj = decode_frame(stripped)
                frame_id = obj.get("id")
                query = parse_query(obj)
            except ProtocolError as exc:
                logger.warning("%s: rejected frame: %s", peer, exc.message)
                if not self._send(
                    peer, error_frame(exc.code, exc.message, id=frame_id)
                ):
                    return
                continue
            with span("serve.request", cat="serve", op=query.op):
                job = self.server.engine.submit(query)
                timed_out = not job.wait(self.server.request_timeout_s)
            if timed_out:
                logger.warning("%s: %s timed out", peer, query.op)
                response = error_frame(
                    ERR_TIMEOUT,
                    f"no response within {self.server.request_timeout_s}s",
                    id=frame_id,
                )
            else:
                response = job.response
            sent = self._send(peer, response)
            if query.op == "shutdown":
                # The reply is on the wire (or its client is gone)
                # before any teardown starts, so it is never lost.
                self.server.close_daemon()
                return
            if not sent:
                return

    def _send(self, peer: str, payload: dict) -> bool:
        """Write one response frame; False when the client is gone."""
        try:
            self.wfile.write(encode_frame(payload))
            self.wfile.flush()
            return True
        except OSError as exc:
            logger.warning("%s: client gone mid-response: %s", peer, exc)
            return False


class _Server(socketserver.ThreadingTCPServer):
    """Accept loop that survives anything a connection throws at it."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, backlog: int, engine: PlacementEngine,
                 request_timeout_s: float, close_daemon) -> None:
        self.request_queue_size = backlog
        self.engine = engine
        self.request_timeout_s = request_timeout_s
        self.close_daemon = close_daemon
        super().__init__(address, _Handler)

    def handle_error(self, request, client_address) -> None:
        """A handler crash is that connection's problem, never ours."""
        logger.warning(
            "connection %s died", client_address, exc_info=True
        )


class PlacementDaemon:
    """The long-lived placement service: engine + socket front-end.

    ``port``, ``workers``, ``batch`` and ``train_mode`` default to the
    ``SIBYL_SERVE_*`` environment knobs (:data:`repro.knobs.TABLE`);
    ``port=0`` binds an ephemeral port, reported by :attr:`address`.
    Usable as a context manager::

        with PlacementDaemon() as daemon:
            host, port = daemon.address
            ...

    ``serve_forever`` blocks until a client issues the ``shutdown`` op
    (which drains every lane first) or :meth:`close` is called, and
    returns only once the teardown has finished: the handler thread
    that acknowledged the ``shutdown`` runs :meth:`close` itself, after
    its reply, so a caller that exits when ``serve_forever`` returns
    cuts off neither the reply nor the trace flush.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        backlog: int = 128,
        workers: Optional[int] = None,
        batch: Optional[int] = None,
        train_mode: Optional[str] = None,
        request_timeout_s: float = 30.0,
    ) -> None:
        port = knobs.get("SIBYL_SERVE_PORT", port)
        self.engine = PlacementEngine(
            batch=batch, workers=workers, train_mode=train_mode
        )
        self._server = _Server(
            (host, port), backlog, self.engine, request_timeout_s, self.close
        )
        self._accept_thread = threading.Thread(
            target=self._server.serve_forever,
            name="serve-accept",
            daemon=True,
        )
        self._close_lock = threading.Lock()
        self._closed = False
        self._stopped = threading.Event()
        self._started = False

    # ------------------------------------------------------------ lifecycle
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — the real port when 0 was asked."""
        return self._server.server_address[:2]

    def start(self) -> "PlacementDaemon":
        """Start the engine and the accept loop; returns self."""
        if not self._started:
            self._started = True
            self.engine.start()
            self._accept_thread.start()
            logger.info("placement daemon listening on %s:%s", *self.address)
        return self

    def serve_forever(self) -> None:
        """Block until the daemon shuts down."""
        self.start()
        self._stopped.wait()

    def close(self) -> None:
        """Stop accepting, stop the engine, release the socket.

        Idempotent and serialised: the first caller tears down, a
        concurrent one returns when that teardown has finished.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            self._server.shutdown()
            self._server.server_close()
            self.engine.stop()
            # A tracer installed with a path (``--trace``/SIBYL_TRACE_PATH)
            # gets its spans on disk even if the driver never flushes.
            flush_tracer()
            logger.info("placement daemon stopped")
            self._stopped.set()

    def __enter__(self) -> "PlacementDaemon":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
