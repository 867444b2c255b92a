"""What both doors share: the `Listener` that serves each connection on a
thread of its own until its `stop()` shuts the socket down, and the
ingestion sink, the store's one writer.

The broker (each PUBLISH) and the gateway (each `POST /ingest`) hand
(topic, payload, message id) into one bounded queue; one worker thread
parses, validates and durably appends each item and resolves the `Future`
that `submit` returned with its sequence or error, which each door maps to
its own protocol: a PUBACK unless a `StoreError`, or 201, 400, 422 or 503.
An item whose `Future` its submitter cancelled while it waited is skipped.
"""

from __future__ import annotations

import contextlib
import logging
import queue
import socket
import threading
from concurrent.futures import Future
from typing import Callable, Optional

from . import store as store_mod

__all__ = ["IngestionSink", "Listener"]

log = logging.getLogger("ecgmon.ingest")

STOP_JOIN_S = 5     # how long stop() waits for the worker to finish its message
QUEUE_SIZE = 256    # items waiting for the worker; past it, submit() blocks


class Listener:
    """A TCP listener, accepting from the moment it is built, that serves
    each connection on a thread of its own through `serve(sock, addr)`."""

    def __init__(self, host: str, port: int, serve: Callable[[socket.socket, tuple], None]):
        # SO_REUSEADDR set, and the socket closed if the port is taken
        self._sock = socket.create_server((host, port), backlog=64)
        self.port: int = self._sock.getsockname()[1]
        self._stopping = threading.Event()
        self._lock = threading.Lock()
        self._live: set[socket.socket] = set()
        self._thread = threading.Thread(target=self._accept_loop, args=(serve,), daemon=True)
        self._thread.start()

    def stop(self) -> None:
        if self._stopping.is_set():
            return
        self._stopping.set()
        self._sock.shutdown(socket.SHUT_RDWR)   # wakes accept(), which close() does not
        self._sock.close()
        self._thread.join(timeout=2)
        with self._lock:
            for sock in self._live:
                with contextlib.suppress(OSError):  # closed meanwhile
                    sock.shutdown(socket.SHUT_RDWR)     # wakes its reader, which returns

    def _accept_loop(self, serve: Callable) -> None:
        while not self._stopping.is_set():
            try:
                sock, addr = self._sock.accept()
            except OSError as exc:
                if not self._stopping.is_set():     # stop() shuts the listener down
                    log.warning("accept failed, retrying: %s", exc)   # EMFILE, say
                    self._stopping.wait(0.1)
                continue
            # Nagle's algorithm would hold a reply's last segment for a delayed ACK
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                self._live.add(sock)
            threading.Thread(target=self._run, args=(serve, sock, addr), daemon=True).start()

    def _run(self, serve: Callable, sock: socket.socket, addr) -> None:
        try:
            serve(sock, addr)
        finally:
            with self._lock:
                self._live.discard(sock)
            sock.close()


class IngestionSink:
    def __init__(self, store: store_mod.RecordStore):
        self.store = store
        self._queue: queue.Queue = queue.Queue(maxsize=QUEUE_SIZE)
        self._worker: Optional[threading.Thread] = None
        self._running = threading.Event()
        self._lock = threading.Lock()   # orders start() against the worker retiring

    def start(self) -> "IngestionSink":
        with self._lock:
            self._running.set()
            if self._worker is None or not self._worker.is_alive():
                self._worker = threading.Thread(target=self._drain, daemon=True)
                self._worker.start()
        return self

    def stop(self) -> None:
        """Stop draining.  Queued messages stay queued and unacknowledged, so
        publishers retransmit them; a later start() picks the queue back up,
        re-arming the worker if it was still busy when the wait ended."""
        self._running.clear()
        worker = self._worker
        if worker is not None:
            # wakes an idle worker; a full queue means it is busy, and it
            # sees the stop after its current message
            try:
                self._queue.put_nowait(None)
            except queue.Full:
                pass
            worker.join(timeout=STOP_JOIN_S)

    def submit(self, topic: str, payload: bytes, message_id: Optional[int],
               abort: Optional[threading.Event] = None) -> Optional[Future]:
        """Blocking hand-off into the bounded queue (back-pressure); returns
        the item's outcome as a `Future`, or None with nothing queued once
        `abort` (the publisher's connection-closed event) is set while
        waiting, so that an unacked message is retried."""
        outcome: Future = Future()
        item = (topic, payload, message_id, outcome)
        while True:
            try:
                self._queue.put(item, timeout=0.2)
                return outcome
            except queue.Full:
                if abort is not None and abort.is_set():
                    return None

    def _drain(self) -> None:
        while True:
            with self._lock:  # so start() either re-arms this worker or sees it gone
                if not self._running.is_set():
                    self._worker = None
                    return
            item = self._queue.get()
            if item is None:    # stop()'s wake-up
                continue
            topic, payload, message_id, outcome = item
            if not outcome.set_running_or_notify_cancel():  # its submitter gave up waiting
                continue
            try:
                outcome.set_result(self._process(topic, payload, message_id))
            except store_mod.ValidationError as exc:
                # Poison message: dropped, it will never become valid.
                log.warning("dropping invalid payload on %s: %s", topic, exc)
                outcome.set_exception(exc)
            except store_mod.StoreError as exc:
                log.error("store append failed: %s", exc)
                outcome.set_exception(exc)

    def _process(self, topic: str, payload: bytes, message_id: Optional[int]) -> int:
        doc = store_mod.load_document(payload)
        patient_id, _ = store_mod.parse_topic(topic)
        return self.store.append(topic, patient_id, doc, message_id=message_id)
