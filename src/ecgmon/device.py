"""Device-side state machine: heartbeat counting, ECG capture sessions
with upload gating, and CSV conversion of score records.

Mirrors the firmware loop of a two-sensor monitor: the pulse channel
counts beats for 20 seconds and scales to BPM, the ECG channel captures
until it has seen 50 R peaks (or 60 seconds pass), delineates, scores,
and uploads the record only when the session scores above the gate.
"""

from __future__ import annotations

import json
import operator
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from decimal import ROUND_HALF_UP, Decimal
from typing import Callable, Iterable, Optional

from . import delineate
from .delineate import WaveScores, render_score
from .synth import Recording

__all__ = [
    "HeartbeatReading",
    "PqrstRecord",
    "SessionOutcome",
    "NoPulseError",
    "NoSignalError",
    "CSV_HEADER",
    "TOPIC_SUFFIXES",
    "topic",
    "pqrst_row",
    "measure_heartbeat",
    "overall_score",
    "run_ecg_session",
    "to_csv_row",
    "parse_csv_row",
    "load_csv",
    "dump_csv",
    "DeviceAgent",
]

HEARTBEAT_WINDOW_S = 20
SESSION_TARGET_BEATS = 50
SESSION_TIMEOUT_S = 60.0
UPLOAD_GATE = 80.0

CSV_HEADER = "Record No,Age,P,Q,R,S,T"

# Topics are clinic/{patient_id}/{suffix}; the store derives its classes and parser from these.
TOPIC_SUFFIXES = {"heartbeat": "heartbeat", "waveform": "ecg/waveform",
                  "pqrst": "ecg/pqrst", "status": "status"}

# publish callback: (topic, payload bytes, qos) -> None
Publisher = Callable[[str, bytes, int], None]


class NoPulseError(RuntimeError):
    """No beats in the measurement window (finger not on the sensor)."""


class NoSignalError(RuntimeError):
    """No R peaks detected before the session timeout."""


@dataclass(frozen=True)
class HeartbeatReading:
    patient_id: str
    bpm: int
    window_seconds: int = HEARTBEAT_WINDOW_S
    measured_at: str = ""


@dataclass(frozen=True)
class PqrstRecord:
    """One scored ECG session, the unit stored and analyzed downstream."""

    record_no: int
    age: int
    p: float
    q: float
    r: float
    s: float
    t: float
    patient_id: str = ""
    captured_at: Optional[str] = None

    def scores(self) -> tuple[float, float, float, float, float]:
        return (self.p, self.q, self.r, self.s, self.t)

    @classmethod
    def from_payload(cls, payload: dict) -> "PqrstRecord":
        """The record a validated pqrst document holds; other keys are ignored."""
        return cls(*pqrst_row(payload), payload.get("patient_id", ""), payload.get("captured_at"))


# A pqrst document's seven columns, in the order of analytics.COLUMNS.
pqrst_row = operator.itemgetter("record_no", "age", "p", "q", "r", "s", "t")


@dataclass(frozen=True)
class SessionOutcome:
    status: str                      # "Uploaded" or "Error"
    overall_score: float
    scores: Optional[WaveScores]
    message: str
    record: Optional[PqrstRecord] = None


def topic(patient_id: str, klass: str) -> str:
    """The topic a device publishes documents of one class on."""
    return f"clinic/{patient_id}/{TOPIC_SUFFIXES[klass]}"


def _now_iso() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="milliseconds")


def measure_heartbeat(pulse_source: Iterable[float], patient_id: str) -> HeartbeatReading:
    """Count beat events inside the 20 s window and scale by 3.

    The pulse source yields beat timestamps in seconds; only events with
    0 <= t < 20 count.
    """
    count = sum(1 for ts in pulse_source if 0 <= ts < HEARTBEAT_WINDOW_S)
    if count == 0:
        raise NoPulseError("no pulse detected in the measurement window")
    return HeartbeatReading(
        patient_id=patient_id,
        bpm=count * 3,
        window_seconds=HEARTBEAT_WINDOW_S,
        measured_at=_now_iso(),
    )


def overall_score(scores: WaveScores) -> float:
    """Mean of the five wave scores, rounded half-up to two decimals."""
    mean = sum(Decimal(str(v)) for v in scores.as_tuple()) / Decimal(5)
    return float(mean.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def run_ecg_session(
    recording: Recording,
    patient_id: str,
    age: int,
    record_no: int = 1,
    publish: Optional[Publisher] = None,
) -> SessionOutcome:
    """Capture, delineate, score, and gate one ECG session.

    The session scores a prefix of the recording, as a device that reads
    one second of samples at a time would: capture stops at 50 detected R
    peaks or at the 60 s timeout, whichever comes first, and the rest of
    the recording is never read.  The record is published to the data
    topic only when the overall score (mean of the five wave scores) is
    strictly above 80; otherwise the outcome is an Error and only a
    status event leaves the device.
    """
    # Capture grows one second at a time.  `peaks` holds the detection of
    # the current prefix, or None when the stop check skipped it: at the
    # timeout, or before the threshold has enough lead-on signal.
    rate = recording.sample_rate
    end, peaks = 0, None
    while end < len(recording):
        end, peaks = min(end + rate, len(recording)), None
        if (end - 1) / rate >= SESSION_TIMEOUT_S:
            break
        if (~recording.lead_off[:end]).sum() >= delineate.THRESHOLD_WINDOW_S * rate:
            peaks = delineate.detect_r_peaks(recording[:end])
            if len(peaks) >= SESSION_TARGET_BEATS:
                break

    captured = recording[:end]
    if peaks is None:
        try:
            peaks = delineate.detect_r_peaks(captured)
        except delineate.InsufficientDataError as exc:
            raise NoSignalError(str(exc)) from exc
    if not peaks:
        raise NoSignalError("no R peaks detected before the session timeout")

    annotations = delineate.annotate_beats(captured, peaks)
    scores = delineate.score_waves(annotations)
    overall = overall_score(scores)

    if overall > UPLOAD_GATE:
        record = PqrstRecord(
            record_no=record_no,
            age=age,
            p=scores.p, q=scores.q, r=scores.r, s=scores.s, t=scores.t,
            patient_id=patient_id,
            captured_at=_now_iso(),
        )
        if publish is not None:
            publish(topic(patient_id, "pqrst"), json.dumps(asdict(record)).encode(), 1)
        return SessionOutcome("Uploaded", overall, scores, "OK", record)

    if publish is not None:
        event = {
            "patient_id": patient_id,
            "event": "session_rejected",
            "message": "ERROR",
            "overall_score": overall,
            "at": _now_iso(),
        }
        publish(topic(patient_id, "status"), json.dumps(event).encode(), 1)
    return SessionOutcome("Error", overall, scores, "ERROR", None)


def to_csv_row(record: PqrstRecord) -> str:
    """Render one record as "record_no,age,p,q,r,s,t" with trimmed scores."""
    parts = [str(record.record_no), str(record.age)]
    parts += [render_score(v) for v in record.scores()]
    return ",".join(parts)


def parse_csv_row(line: str) -> PqrstRecord:
    parts = [p.strip() for p in line.split(",")]
    if len(parts) != 7:
        raise ValueError(f"expected 7 CSV fields, got {len(parts)}: {line!r}")
    return PqrstRecord(
        record_no=int(parts[0]),
        age=int(parts[1]),
        p=float(parts[2]), q=float(parts[3]), r=float(parts[4]),
        s=float(parts[5]), t=float(parts[6]),
    )


def load_csv(text: str) -> list[PqrstRecord]:
    """Parse a score CSV (header line plus data rows)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        return []
    start = 1 if lines[0].replace(" ", "").lower().startswith("recordno") else 0
    return [parse_csv_row(ln) for ln in lines[start:]]


def dump_csv(records: Iterable[PqrstRecord]) -> str:
    lines = [CSV_HEADER]
    lines += [to_csv_row(r) for r in records]
    return "\n".join(lines) + "\n"


class DeviceAgent:
    """One simulated patient device bound to a transport.

    Owns the record counter and a publish function; the publish function
    receives (topic, payload bytes, qos) and is typically the MQTT
    client's publish method.
    """

    def __init__(self, patient_id: str, age: int, publish: Publisher,
                 next_record_no: int = 1):
        self.patient_id = patient_id
        self.age = age
        self.publish = publish
        self.next_record_no = next_record_no

    def measure_and_publish_heartbeat(self, pulse_source: Iterable[float]) -> HeartbeatReading:
        reading = measure_heartbeat(pulse_source, self.patient_id)
        self.publish(topic(self.patient_id, "heartbeat"), json.dumps(asdict(reading)).encode(), 1)
        return reading

    def run_and_publish_session(self, recording: Recording) -> SessionOutcome:
        outcome = run_ecg_session(
            recording,
            self.patient_id,
            self.age,
            record_no=self.next_record_no,
            publish=self.publish,
        )
        if outcome.status == "Uploaded":
            self.next_record_no += 1
        return outcome

    def publish_waveform(self, recording: Recording, seq: int = 0) -> None:
        payload = {
            "patient_id": self.patient_id,
            "seq": seq,
            "sample_rate": recording.sample_rate,
            "samples": recording.codes.tolist(),
            "lead_off": recording.lead_off.tolist(),
        }
        self.publish(topic(self.patient_id, "waveform"), json.dumps(payload).encode(), 1)
