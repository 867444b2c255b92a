"""Tests of the benchmark itself: run with `python -m pytest perfbench/tests`.

Smoke runs use tiny sizes and sub-second windows; the gate tests check
that a removed message and a perturbed /stats value are caught.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from ecgmon.cli import start_system  # noqa: E402
from ecgmon.store import TOPIC_CLASSES  # noqa: E402

from perfbench import compare, dashboard, fleet, run  # noqa: E402
from perfbench.common import END_TO_END, PER_LAYER, Http, Outcome, system_config  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {"fleet-ingest": {}, "device-sessions": {},
        "dashboard-query": {"records": 400, "heartbeats": 100}}


def test_catalogue_matches_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_reports_every_metric(workload, trace):
    result = run.measure(workload, seed=3, seconds=1.0, trace=trace, **TINY[workload])
    assert result["correct"], result["problems"]
    assert result["attempted"] >= 1
    if workload != "fleet-ingest":   # fleet-ingest may lose messages to the dedup key
        assert result["failed"] == 0, result["failures"]
    wanted = PER_LAYER if trace else END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == wanted
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert run.report(result)


def test_traced_fleet_counts_one_fsync_per_stored_message():
    result = run.measure("fleet-ingest", seed=4, seconds=1.0, trace=True)
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["store.fsyncs_per_msg.messages"] > 0
    assert 0.99 <= metrics["store.fsyncs_per_msg"] <= 1.0


def _remove_line(root: Path, n: int) -> None:
    for klass in TOPIC_CLASSES:
        for path in (root / klass).glob("*.log"):
            lines = path.read_bytes().splitlines(keepends=True)
            kept = [ln for ln in lines
                    if f'"n":{n}}}'.encode() not in ln and f'"n":{n},'.encode() not in ln]
            if len(kept) < len(lines):
                path.write_bytes(b"".join(kept))
                return
    raise AssertionError(f"message {n} not found in the store")


def test_fleet_gate_catches_a_removed_message(tmp_path):
    root = tmp_path / "store"
    messages = fleet.Messages(5)
    system = start_system(system_config(root))
    try:
        drove = fleet.drive(system.broker.port, messages, 0.3)
    finally:
        system.stop()
    assert drove.acked and not drove.unacked

    before = Outcome()
    fleet.verify_store(root, messages, drove, before)
    _remove_line(root, drove.acked[len(drove.acked) // 2])
    after = Outcome()
    fleet.verify_store(root, messages, drove, after)
    assert after.named["lost"][0] == before.named["lost"][0] + 1
    assert after.failed == before.failed + 1


def test_stats_gate_catches_a_perturbed_value(tmp_path):
    inputs = dashboard.preload(tmp_path / "store", 6, 60, 10, tmp_path / "model.txt")
    system = start_system(system_config(tmp_path / "store"))
    try:
        web = Http(system.gateway.port)
        status, raw, _ = web.get("/stats")
        web.close()
    finally:
        system.stop()
    assert status == 200
    body = json.loads(raw)
    assert dashboard.check_stats(body, inputs.rows) == []

    body["stats"]["R"]["mean"] += 1e-6
    assert dashboard.check_stats(body, inputs.rows)
    body["stats"]["R"]["mean"] -= 1e-6
    body["correlation"]["matrix"][2][3] += 1e-6
    assert dashboard.check_stats(body, inputs.rows)


def test_query_gate_requires_writes_acked_before_the_query():
    inputs = dashboard.Inputs([("pa1", 40)], start_ms=0, windows={"pa1": ([5], [1])},
                              latest_record={"pa1": 1}, latest_heartbeat={"pa1": 7})
    live = [dashboard.Live("pqrst", "pa1", 10_001, sent=1.0, sent_ms=100, acked_ms=101,
                           acked=1.1),
            dashboard.Live("heartbeat", "pa1", 10 ** 7, sent=1.2, sent_ms=102, acked_ms=103,
                           acked=1.3)]

    def problems(kind, expected, body, sent):
        outcome = Outcome()
        dashboard.check(kind, "pa1", expected, body, inputs, live, [], sent, sent + 0.1,
                        outcome)
        return outcome.problems

    window = [{"payload": {"record_no": 1}}]
    heartbeat = {"payload": {"n": 7}}
    # Sent before the trickle's writes were acked: the preloaded answers hold.
    assert not problems("ecg_30", (0, 200), window, sent=0.5)
    assert not problems("heartbeat", None, heartbeat, sent=0.5)
    # Sent after: an answer that misses the acked writes is stale.
    assert problems("ecg_30", (0, 200), window, sent=2.0)
    assert problems("heartbeat", None, heartbeat, sent=2.0)
    assert problems("prediction", None, {"record_no": 1, "predicted_r": 0.0}, sent=2.0)
    assert not problems("ecg_30", (0, 200), window + [{"payload": {"record_no": 10_001}}],
                        sent=2.0)
    assert not problems("heartbeat", None, {"payload": {"n": 10 ** 7}}, sent=2.0)
    # A window that ends before the write was stamped must not return it.
    assert problems("ecg_1", (0, 100), window + [{"payload": {"record_no": 10_001}}], sent=2.0)


def _write_runs(path: Path, workload: str, values: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for v in values:
            fh.write(json.dumps({"workload": workload, "metrics": {
                "ops_per_s": {"value": v, "unit": "1/s"}}}) + "\n")


@pytest.mark.parametrize("before,after,verdict", [
    ([100, 101, 99, 100, 100], [150, 151, 149, 150, 150], "better"),
    ([100, 101, 99, 100, 100], [70, 71, 69, 70, 70], "worse"),
    ([100, 101, 99, 100, 100], [100, 101, 99, 101, 100], "same"),
    ([100, 60, 140, 100, 70, 130], [101, 61, 139, 100, 72, 131], "unresolved"),
])
def test_compare_marks_each_pair(tmp_path, before, after, verdict):
    _write_runs(tmp_path / "a.jsonl", "fleet-ingest", before)
    _write_runs(tmp_path / "b.jsonl", "fleet-ingest", after)
    text = compare.compare_files(tmp_path / "a.jsonl", tmp_path / "b.jsonl",
                                 ROOT / "BENCHMARK.json")
    row = next(ln for ln in text.splitlines() if ln.startswith("fleet-ingest"))
    assert row.split()[-1] == verdict


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fleet-ingest",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
