"""Multi-process delivery: one worker process per shard, framed sockets between.

:class:`SocketTransport` is the first transport whose message plane leaves
the coordinator process.  PR 5 made the shard the unit of endpoint ownership
(``bind(..., shard=k)`` / ``endpoints(shard=k)``); this transport routes each
shard namespace to its own worker process (:mod:`repro.net.worker`), spawned
lazily on the shard's first bind and connected over an inherited
``socket.socketpair()``.  Every envelope crossing the transport is serialized
to a length-prefixed msgpack frame (:mod:`repro.net.framing`) and carried to
the destination shard's worker, which decodes, sequence-checks and
acknowledges it — so the wire-plane work (serialization, framing, protocol
validation) runs on the workers' cores while the coordinator keeps running
the handlers.

Delivery semantics *are* :class:`~repro.net.batching.BatchingTransport`'s —
this class subclasses it and inherits the route cache, the outbox, ``post``,
``pending`` and the dispatch loop — which is what makes the multi-process run
*bit-identical* to inline, churn included (the golden harness enforces it).
Only the carrier is added:

* **Request/reply** — the encoded envelope travels to the owner shard's
  worker as a REQ frame stamped with the connection's next sequence number,
  and the worker's REP must agree with the coordinator's own view of the
  endpoint's bound state before the handler runs.
* **One-way batching** — the inherited outbox doubles as wire-level message
  packing: :meth:`flush` first ships every destination's batch to its owner
  worker as one one-way BATCH frame — all shards decode concurrently — then
  hands over to the batching flush for the local dispatch.

Handler execution stays in the coordinator: :class:`~repro.core.protocol.\
ClashSystem` shares mutable server state across shard boundaries (splits,
handoffs, the balance pass), so moving handlers out-of-process is a separate
project — see ROADMAP.  What the workers parallelize today is the wire plane,
which is also what they will need once handlers migrate.

Requires a POSIX ``fork`` start method (inherited sockets, sub-millisecond
spawn); construction fails with a clear error elsewhere.
"""

from __future__ import annotations

import multiprocessing
import os
import socket as socket_module

from repro.net.batching import BatchingTransport
from repro.net.envelope import Delivery, Envelope
from repro.net.framing import FrameError, encode_value, read_frame, write_frame
from repro.net.transport import TransportError
from repro.net.worker import (
    MSG_BATCH,
    MSG_BIND,
    MSG_BYE,
    MSG_CLOSE,
    MSG_ERROR,
    MSG_HELLO,
    MSG_REP,
    MSG_REQ,
    MSG_STATS,
    MSG_STATS_REPLY,
    MSG_UNBIND,
    MSG_WELCOME,
    PROTOCOL_VERSION,
    worker_main,
)

__all__ = ["SocketTransport"]

_CLOSE_TIMEOUT = 10.0
"""Seconds to wait for a worker's BYE and process exit before terminating it
(a worker is a decode loop — anything this slow is wedged)."""


class _WorkerHandle:
    """Coordinator-side endpoint of one shard worker's connection."""

    def __init__(self, shard: int) -> None:
        self.shard = shard
        parent_sock, child_sock = socket_module.socketpair()
        context = multiprocessing.get_context("fork")
        self.process = context.Process(
            target=worker_main,
            args=(child_sock, shard),
            name=f"clash-shard-{shard}",
            daemon=True,
        )
        self.process.start()
        child_sock.close()
        self.sock = parent_sock
        self.seq = 0
        self.closed = False
        write_frame(self.sock, [MSG_HELLO, shard, PROTOCOL_VERSION])
        welcome = self._read()
        if welcome[0] != MSG_WELCOME:
            raise TransportError(
                f"shard {shard} worker failed its handshake: {welcome!r}"
            )
        self.pid = welcome[1]

    def _read(self) -> list:
        try:
            frame = read_frame(self.sock)
        except FrameError as error:
            raise TransportError(
                f"shard {self.shard} worker stream broke: {error}"
            ) from error
        if frame is None:
            raise TransportError(
                f"shard {self.shard} worker (pid {self.process.pid}) closed "
                "its connection unexpectedly"
            )
        if isinstance(frame, list) and frame and frame[0] == MSG_ERROR:
            raise TransportError(
                f"shard {self.shard} worker reported a protocol error: {frame[1]}"
            )
        return frame

    def next_seq(self) -> int:
        self.seq += 1
        return self.seq

    def send(self, frame: list) -> None:
        try:
            write_frame(self.sock, frame)
        except (FrameError, OSError) as error:
            raise TransportError(
                f"sending to shard {self.shard} worker failed: {error}"
            ) from error

    def roundtrip(self, frame: list, reply_kind: int) -> list:
        """Send a sequenced frame and read its matching reply."""
        seq = frame[1]
        self.send(frame)
        reply = self._read()
        if reply[0] != reply_kind or reply[1] != seq:
            raise TransportError(
                f"shard {self.shard} worker answered out of sequence: sent "
                f"seq {seq}, got {reply!r}"
            )
        return reply

    def stats(self) -> dict:
        return self.roundtrip([MSG_STATS, self.next_seq()], MSG_STATS_REPLY)[2]

    def close(self) -> dict | None:
        """CLOSE/BYE handshake, then join (terminate if wedged)."""
        if self.closed:
            return None
        self.closed = True
        counters: dict | None = None
        try:
            write_frame(self.sock, [MSG_CLOSE])
            self.sock.settimeout(_CLOSE_TIMEOUT)
            bye = read_frame(self.sock)
            if isinstance(bye, list) and bye and bye[0] == MSG_BYE:
                counters = bye[1]
        except (FrameError, OSError):  # worker already gone; join below
            pass
        finally:
            self.sock.close()
        self.process.join(timeout=_CLOSE_TIMEOUT)
        if self.process.is_alive():  # pragma: no cover - wedged worker
            self.process.terminate()
            self.process.join(timeout=_CLOSE_TIMEOUT)
        if not self.process.is_alive():
            self.process.close()
        return counters


class SocketTransport(BatchingTransport):
    """The batching plane carried to per-shard worker processes as
    length-prefixed msgpack frames."""

    def __init__(self) -> None:
        if not hasattr(os, "fork"):
            raise TransportError(
                "the socket transport needs a POSIX fork start method to hand "
                "inherited socketpairs to its shard workers"
            )
        super().__init__()
        self._workers: dict[int, _WorkerHandle] = {}
        #: Final per-shard counter maps collected from the BYE handshake at
        #: :meth:`close` (tests and the benchmark read them post-run).
        self.final_worker_stats: dict[int, dict] = {}

    # ------------------------------------------------------------------ #
    # Worker management
    # ------------------------------------------------------------------ #

    def _worker_shard(self, name: str) -> int:
        """The worker that owns endpoint ``name`` (untagged names → shard 0)."""
        return self._endpoint_shards.get(name, 0)

    def _worker(self, shard: int) -> _WorkerHandle:
        if self.closed:
            raise TransportError("the socket transport is closed")
        handle = self._workers.get(shard)
        if handle is None:
            handle = _WorkerHandle(shard)
            self._workers[shard] = handle
        return handle

    def worker_pids(self) -> dict[int, int]:
        """Live worker process ids by shard (diagnostics and tests)."""
        return {
            shard: handle.pid
            for shard, handle in self._workers.items()
            if not handle.closed
        }

    def socket_stats(self) -> dict[int, dict]:
        """Current per-shard worker counters (a STATS round-trip per shard)."""
        return {
            shard: handle.stats()
            for shard, handle in sorted(self._workers.items())
            if not handle.closed
        }

    # ------------------------------------------------------------------ #
    # Endpoint management (mirrored to the owning worker)
    # ------------------------------------------------------------------ #

    def bind(self, name: str, handler, shard: int | None = None) -> None:
        super().bind(name, handler, shard=shard)
        self._worker(self._worker_shard(name)).send([MSG_BIND, name])

    def unbind(self, name: str) -> None:
        # Resolve the owner before the base class forgets the shard tag.
        shard = self._worker_shard(name)
        was_bound = self.is_bound(name)
        super().unbind(name)
        if was_bound:
            handle = self._workers.get(shard)
            if handle is not None and not handle.closed:
                handle.send([MSG_UNBIND, name])

    # ------------------------------------------------------------------ #
    # Delivery
    # ------------------------------------------------------------------ #

    def request(self, envelope: Envelope) -> Delivery:
        server, hops = self._route(envelope)
        handle = self._worker(self._worker_shard(server))
        reply_frame = handle.roundtrip(
            [MSG_REQ, handle.next_seq(), server, encode_value(envelope)], MSG_REP
        )
        worker_bound = reply_frame[2]
        if worker_bound != self.is_bound(server):
            raise TransportError(
                f"bound-state divergence for {server!r}: the shard "
                f"{handle.shard} worker says {worker_bound}, the coordinator "
                f"says {self.is_bound(server)}"
            )
        reply = self._dispatch(server, envelope)
        return Delivery(server=server, hops=hops, reply=reply)

    def flush(self) -> int:
        """Ship every destination's batch to its owner worker, then dispatch.

        The wire phase sends all BATCH frames before any local dispatch runs:
        each frame is one-way, so every shard's worker decodes its batches in
        parallel with the others — and with the batching dispatch loop this
        hands over to.  A destination already unbound gets no frame; the
        dispatch loop drops and counts its envelopes.
        """
        for server, envelopes in sorted(self._outbox.items()):
            if not self.is_bound(server):
                continue
            handle = self._worker(self._worker_shard(server))
            handle.send(
                [
                    MSG_BATCH,
                    handle.next_seq(),
                    server,
                    [encode_value(envelope) for envelope in envelopes],
                ]
            )
        return super().flush()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """CLOSE/BYE every worker, join the processes (idempotent)."""
        if self.closed:
            return
        super().close()
        for shard, handle in sorted(self._workers.items()):
            counters = handle.close()
            if counters is not None:
                self.final_worker_stats[shard] = counters

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass
