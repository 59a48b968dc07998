"""Sibyl-as-a-service: the TCP placement daemon.

A :class:`PlacementDaemon` binds a listening socket and hands it, and
every connection it accepts, to the one loop of its
:class:`~repro.serve.engine.PlacementEngine`: the engine thread that
owns all tenant state is also the thread that reads the
newline-delimited-JSON frames (:mod:`repro.serve.protocol`), validates
them, serves them and writes the replies.  There is no accept thread
and no thread per connection; this module is the bind, the lifecycle
and the per-connection framing state (:class:`_Connection`).

One connection serves one client loop: one frame in flight, frames
answered in order, the next frame taken only once the previous reply
has left the out-buffer — so a client's ``seq`` numbers prove zero
dropped or duplicated responses and ``place, save, place`` stays
ordered.  A connection takes at most one frame per loop turn, so
tenants that pipeline share the turns (and the fused rounds) evenly.

Fault containment is structural: a malformed frame is answered with a
structured error on the offending connection only; a client that
disconnects mid-request costs one WARNING log; a connection buffers at
most one frame bound plus one ``recv`` of input and one reply of
output, after which it is simply not read (TCP back-pressure: a slow or
hostile peer stalls only itself); and a crash while serving one
connection drops that connection, never the loop.
"""

from __future__ import annotations

import functools
import logging
import selectors
import socket
import threading
import time
from typing import Dict, Optional, Set, Tuple

from .. import knobs
from ..obs.tracer import flush_tracer, get_tracer
from .engine import Job, PlacementEngine
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

#: Bytes asked of one ``recv``.
RECV_BYTES = 1 << 16

#: A connection holding this much undigested input is not read again
#: until it has taken frames off it: the longest valid frame, its
#: newline, and one byte that proves a frame is over the bound.
_INPUT_BOUND = MAX_FRAME_BYTES + 2


def _contained(method):
    """A crash while serving one connection is that connection's
    problem, never the loop's."""

    @functools.wraps(method)
    def guarded(self, *args):
        try:
            return method(self, *args)
        except Exception:
            logger.warning("connection %s died", self.peer, exc_info=True)
            self.drop()

    return guarded


class _Connection:
    """One client connection's framing state; engine thread only.

    ``inbuf`` is input as it was read, ``taken`` how much of it has
    been taken as frames already (compacted away a ``recv``'s worth at
    a time); ``outbuf`` is what the last reply's ``send`` could not
    place.
    """

    def __init__(self, daemon: "PlacementDaemon", sock: socket.socket,
                 address) -> None:
        self.daemon = daemon
        self.sock: Optional[socket.socket] = sock
        self.peer = "%s:%s" % address[:2]
        #: Trace row of this connection's ``serve.request`` spans: they
        #: outlive loop turns, so on the loop thread's own row those of
        #: two connections would half-overlap.
        self.row = sock.fileno()
        self.inbuf = bytearray()
        self.taken = 0
        self.outbuf = b""
        self.eof = False
        self.job: Optional[Job] = None
        self.mask = 0
        self._settle()

    @property
    def buffered(self) -> int:
        """Bytes read and not yet taken as frames."""
        return len(self.inbuf) - self.taken

    # ---------------------------------------------------------- socket I/O
    @_contained
    def on_event(self, mask: int) -> None:
        """The selector's callback: flush what waits, read what came."""
        if self.sock is None:
            return  # dropped earlier in this batch of events
        if mask & selectors.EVENT_WRITE and self.outbuf:
            self._send(b"")
        if mask & selectors.EVENT_READ and self.sock is not None:
            try:
                data = self.sock.recv(RECV_BYTES)
            except BlockingIOError:
                data = None  # spurious readiness
            except OSError as exc:
                logger.warning("%s: read failed: %s", self.peer, exc)
                self.drop()
                return
            if data:
                self.inbuf += data
            elif data is not None:
                self.eof = True
        self._settle()

    def _send(self, data: bytes) -> None:
        """Place ``outbuf + data`` on the wire; keep what did not fit."""
        data = self.outbuf + data
        try:
            sent = self.sock.send(data)
        except BlockingIOError:
            sent = 0
        except OSError as exc:
            logger.warning(
                "%s: client gone mid-response: %s", self.peer, exc
            )
            self.drop()
            return
        self.outbuf = data[sent:]

    def _settle(self) -> None:
        """After anything that moved a buffer: stay ready while there
        is input to take, select on what the socket can now be used for."""
        if self.sock is None:
            return
        if self.job is None and (self.buffered or self.eof):
            self.daemon.ready[self] = None
        want = 0
        if not self.eof and self.buffered < _INPUT_BOUND:
            want = selectors.EVENT_READ
        if self.outbuf:
            want |= selectors.EVENT_WRITE
        if want == self.mask:
            return
        selector = self.daemon.engine.selector
        if not self.mask:
            selector.register(self.sock, want, self.on_event)
        elif want:
            selector.modify(self.sock, want, self.on_event)
        else:
            selector.unregister(self.sock)
        self.mask = want

    def drop(self) -> None:
        """Close the connection; a reply still owed to it is discarded."""
        if self.sock is None:
            return
        if self.mask:
            try:
                self.daemon.engine.selector.unregister(self.sock)
            except KeyError:  # teardown: the selector went first
                pass
        self.sock.close()
        self.sock = None
        self.job = None
        self.daemon.connections.discard(self)
        self.daemon.inflight.pop(self, None)

    # -------------------------------------------------------------- frames
    @_contained
    def advance(self) -> None:
        """Take the next line, if this connection is free to.

        At most one per call — one per loop turn — whether the line is
        blank, rejected or served; a connection with more stays ready.
        """
        if self.sock is None or self.job is not None or self.outbuf:
            return  # the reply, or the drained out-buffer, readies it again
        inbuf, start = self.inbuf, self.taken
        end = inbuf.find(b"\n", start, start + _INPUT_BOUND)
        if end >= 0:
            line = inbuf[start:end].strip()
            self.taken = end + 1
            if self.taken == len(inbuf) or self.taken >= RECV_BYTES:
                del inbuf[:self.taken]
                self.taken = 0
            self._take(line)
            self._settle()
        elif self.buffered >= _INPUT_BOUND or (self.eof and self.buffered):
            self._unframed()
        elif self.eof:
            self.drop()  # clean EOF between frames

    def _unframed(self) -> None:
        """EOF mid-frame (truncated request) or a frame beyond the size
        bound; either way the stream is unframed from here, so answer
        once and drop the connection."""
        logger.warning("%s: truncated or oversized frame", self.peer)
        self._send(encode_frame(error_frame(
            "bad-json", "truncated or oversized frame"
        )))
        self.drop()

    def _take(self, line: bytearray) -> None:
        if not line:
            return  # blank keep-alive line
        frame_id = None
        try:
            obj = decode_frame(line)
            frame_id = obj.get("id")
            query = parse_query(obj)
        except ProtocolError as exc:
            logger.warning("%s: rejected frame: %s", self.peer, exc.message)
            self._send(encode_frame(
                error_frame(exc.code, exc.message, id=frame_id)
            ))
            return
        self.job = job = Job(query, on_done=self.on_done)
        daemon = self.daemon
        daemon.inflight[self] = job.t_submit + daemon.request_timeout_s
        # On the loop thread already: no inbox, no wake.
        daemon.engine._dispatch("job", job)

    @_contained
    def on_done(self, job: Job) -> None:
        """``Job.on_done``: the engine resolved ``job``; reply."""
        if job is not self.job:
            return  # timed out or dropped meanwhile: nobody to tell
        self._reply(job, job.response)

    @_contained
    def time_out(self) -> None:
        """The frame in flight passed its deadline: say so, move on.

        The job stays where the engine has it and is served when
        whatever kept it clears — only its reply is dropped; this
        connection's later frames queue behind it.
        """
        job, daemon = self.job, self.daemon
        logger.warning("%s: %s timed out", self.peer, job.query.op)
        if job.query.op == "shutdown":
            daemon.engine._stop.set()  # a timed-out shutdown still closes
        self._reply(job, error_frame(
            ERR_TIMEOUT,
            f"no response within {daemon.request_timeout_s}s",
            id=job.query.id,
        ))

    def _reply(self, job: Job, response: dict) -> None:
        self.job = None
        del self.daemon.inflight[self]
        self._send(encode_frame(response))
        tracer = get_tracer()
        if tracer is not None:
            tracer.record("serve.request", "serve", job.t_submit,
                          tid=self.row, op=job.query.op)
        self._settle()


class PlacementDaemon:
    """The long-lived placement service: engine + socket front-end.

    ``port`` and ``train_mode`` default to the ``SIBYL_SERVE_*``
    environment knobs (:data:`repro.knobs.TABLE`);
    ``port=0`` binds an ephemeral port, reported by :attr:`address`.
    Usable as a context manager::

        with PlacementDaemon() as daemon:
            host, port = daemon.address
            ...

    ``serve_forever`` blocks until a client issues the ``shutdown`` op
    (which drains every lane first) or :meth:`close` is called, and
    returns only once the teardown has finished and the engine thread
    is gone: the loop acknowledges a ``shutdown`` on the wire, leaves,
    and runs :meth:`close` itself as its last act, so a caller that
    exits when ``serve_forever`` returns cuts off neither the reply nor
    the trace flush.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        backlog: int = 128,
        train_mode: Optional[str] = None,
        request_timeout_s: float = 30.0,
    ) -> None:
        port = knobs.get("SIBYL_SERVE_PORT", port)
        self.engine = PlacementEngine(train_mode=train_mode)
        self.engine.frontend = self
        self.request_timeout_s = request_timeout_s
        self._listener = socket.create_server((host, port), backlog=backlog)
        self._listener.setblocking(False)
        self._address = self._listener.getsockname()[:2]
        self.connections: Set[_Connection] = set()
        #: Connections with a frame in flight → its deadline.  One
        #: timeout for all, so insertion order is deadline order.
        self.inflight: Dict[_Connection, float] = {}
        #: Connections that may have a frame to take next turn (a dict
        #: for its order; the values are unused).
        self.ready: Dict[_Connection, None] = {}
        self._close_lock = threading.Lock()
        self._closing = False
        self._stopped = threading.Event()
        self._started = False

    # ------------------------------------------------------------ lifecycle
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — the real port when 0 was asked."""
        return self._address

    def start(self) -> "PlacementDaemon":
        """Give the listening socket to the engine's loop and start it;
        returns self."""
        if not self._started:
            self._started = True
            self.engine.selector.register(
                self._listener, selectors.EVENT_READ, self._accept
            )
            self.engine.start()
            logger.info("placement daemon listening on %s:%s", *self.address)
        return self

    def serve_forever(self) -> None:
        """Block until the daemon shuts down."""
        self.start()
        self._stopped.wait()
        # After a ``shutdown`` op the closer is the loop itself:
        # ``_stopped`` is its last act but one, its exit the last.
        self.engine._thread.join()

    def close(self) -> None:
        """Stop the engine, release every socket, flush the tracer.

        Idempotent, from any thread: the first caller tears down, a
        concurrent one returns when that teardown has finished — except
        the loop's own exit, which finds another closer joined on it
        and must not wait for that closer in turn.  Safe before
        :meth:`start`.
        """
        with self._close_lock:
            first, self._closing = not self._closing, True
        if not first:
            if threading.current_thread() is not self.engine._thread:
                self._stopped.wait()
            return
        # Returns with the loop joined, never started, or — when this
        # is the loop's exit — past its last turn: nobody selects now.
        self.engine.stop()
        self._listener.close()
        for connection in list(self.connections):
            connection.drop()
        # A tracer installed with a path (``--trace``/SIBYL_TRACE_PATH)
        # gets its spans on disk even if the driver never flushes.
        flush_tracer()
        logger.info("placement daemon stopped")
        self._stopped.set()

    def __enter__(self) -> "PlacementDaemon":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------ the engine's front-end
    def _accept(self, mask: int) -> None:
        """The listener is readable: take every connection waiting."""
        while True:
            try:
                sock, address = self._listener.accept()
            except BlockingIOError:
                return
            except OSError as exc:
                logger.warning("accept failed: %s", exc)
                return
            try:
                sock.setblocking(False)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self.connections.add(_Connection(self, sock, address))
            except OSError as exc:  # reset between accept and here
                logger.warning("connection %s died: %s", address, exc)
                sock.close()

    def advance(self) -> None:
        """Once per loop turn, before the round: expire deadlines, then
        let every ready connection take its next frame."""
        if self.inflight:
            now = time.perf_counter()
            while self.inflight:
                connection, deadline = next(iter(self.inflight.items()))
                if deadline > now:
                    break
                connection.time_out()
        if self.ready:
            ready, self.ready = self.ready, {}
            for connection in ready:
                connection.advance()

    def select_timeout(self) -> Optional[float]:
        """How long the loop may sleep: not at all while a connection
        has a frame to take, else until the first deadline."""
        if self.ready:
            return 0.0
        if not self.inflight:
            return None
        deadline = next(iter(self.inflight.values()))
        return max(0.0, deadline - time.perf_counter())
