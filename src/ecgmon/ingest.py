"""Ingestion sink: drains QoS 1 publishes from the broker into the store.

The broker hands (topic, payload, packet id, ack callback) tuples into a
bounded queue; a worker thread parses, validates and durably appends each
one, then fires the ack so the broker can send PUBACK.  Schema-violating
payloads are acknowledged and dropped (poison messages would otherwise be
retried forever); a storage failure leaves the message unacknowledged so
the publisher retransmits it.
"""

from __future__ import annotations

import json
import logging
import queue
import threading
from typing import Callable, Optional

from . import store as store_mod

__all__ = ["IngestionSink"]

log = logging.getLogger("ecgmon.ingest")


class IngestionSink:
    def __init__(self, store: store_mod.RecordStore, queue_size: int = 256):
        self.store = store
        self._queue: queue.Queue = queue.Queue(maxsize=queue_size)
        self._worker: Optional[threading.Thread] = None
        self._running = threading.Event()

    def start(self) -> "IngestionSink":
        if self._worker is not None and self._worker.is_alive():
            return self
        self._running.set()
        self._worker = threading.Thread(target=self._drain, daemon=True)
        self._worker.start()
        return self

    def stop(self) -> None:
        """Stop draining.  Queued but unprocessed messages stay queued and
        unacknowledged, so publishers will retransmit them; a later
        start() picks the queue back up."""
        self._running.clear()
        worker = self._worker
        if worker is not None:
            worker.join(timeout=5)
        self._worker = None

    def submit(self, topic: str, payload: bytes, message_id: Optional[int],
               ack: Callable[[], None], abort: Optional[threading.Event] = None) -> None:
        """Blocking hand-off into the bounded queue (broker back-pressure).

        Gives up quietly when `abort` (the publisher's connection-closed
        event) is set while waiting; the unacked message will be retried.
        """
        item = (topic, payload, message_id, ack)
        while True:
            try:
                self._queue.put(item, timeout=0.2)
                return
            except queue.Full:
                if abort is not None and abort.is_set():
                    return

    def _drain(self) -> None:
        while self._running.is_set():
            try:
                topic, payload, message_id, ack = self._queue.get(timeout=0.2)
            except queue.Empty:
                continue
            try:
                self._process(topic, payload, message_id)
            except store_mod.ValidationError as exc:
                # Poison message: ack it away, it will never become valid.
                log.warning("dropping invalid payload on %s: %s", topic, exc)
            except store_mod.StoreError as exc:
                log.error("store append failed, leaving message unacked: %s", exc)
                continue
            ack()

    def _process(self, topic: str, payload: bytes, message_id: Optional[int]) -> None:
        try:
            doc = json.loads(payload.decode("utf-8"))
        except ValueError as exc:  # also an integer literal over the interpreter's digit limit
            raise store_mod.ValidationError("payload", f"not a JSON document: {exc}") from exc
        if not isinstance(doc, dict):
            raise store_mod.ValidationError("payload", "top-level JSON value must be an object")
        patient_id, _ = store_mod.parse_topic(topic)
        self.store.append(topic, patient_id, doc, message_id=message_id)
