"""Tests for the command line tools (run in-process) and the
configuration file loaders they feed on.
"""

import http.client
import json
import re

import pytest

from ecgmon import analytics, cli, device, regression, sample_data, synth
from ecgmon.config import GatewayConfig, load_config, load_synth_config, parse_kv
from ecgmon.ingest import IngestionSink
from ecgmon.mqtt.broker import Broker
from ecgmon.mqtt.client import MqttClient
from ecgmon.store import RecordStore
from ecgmon.synth import ConfigError

HELD_OUT = "2,5,17,19,12"


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "sessions.csv"
    path.write_text(sample_data.sample_csv(), encoding="utf-8")
    return path


# ----------------------------------------------------------------- analyze

def test_analyze_stats_report(csv_path, capsys):
    rc = cli.main(["analyze", "--csv", str(csv_path),
                   "--report", "stats", "--round", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "== stats ==" in out
    # the five wave means, rounded for display
    for cell in ("97.07", "96.26", "95.26", "96.51", "97.66"):
        assert cell in out


def test_analyze_all_reports(csv_path, capsys):
    assert cli.main(["analyze", "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    for section in ("stats", "corr", "cov", "rank", "quality"):
        assert f"== {section} ==" in out


def test_analyze_quality_report(csv_path, capsys):
    assert cli.main(["analyze", "--csv", str(csv_path), "--report", "quality"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"Excellent\s+14 70%", out)
    assert re.search(r"Acceptable\s+5 25%", out)
    assert re.search(r"Poor\s+1 5%", out)


def test_analyze_csv_out(csv_path, tmp_path, capsys):
    out_dir = tmp_path / "reports"
    rc = cli.main(["analyze", "--csv", str(csv_path),
                   "--csv-out", str(out_dir), "--round", "4"])
    assert rc == 0
    assert f"report CSVs written to {out_dir}" in capsys.readouterr().out
    for name in ("stats", "corr", "cov", "rank", "quality"):
        assert (out_dir / f"{name}.csv").exists()

    quality = (out_dir / "quality.csv").read_text(encoding="utf-8").splitlines()
    assert quality[0] == "band,count,pct"
    assert quality[1] == "Excellent,14,70"

    rank = (out_dir / "rank.csv").read_text(encoding="utf-8").splitlines()
    assert rank[0] == "column,correlation_with_R"
    assert rank[1] == "R,1"
    assert rank[2] == "Q,0.846"

    corr = (out_dir / "corr.csv").read_text(encoding="utf-8").splitlines()
    assert corr[0] == "," + ",".join(analytics.COLUMNS)
    assert corr[1].startswith("RecordNo,1,0.4432,")


def test_analyze_drop_outliers(csv_path, capsys):
    rc = cli.main(["analyze", "--csv", str(csv_path),
                   "--report", "stats", "--drop-outliers"])
    assert rc == 0
    assert "dropped 9 outlier rows, 11 remain" in capsys.readouterr().out


def test_missing_csv_reports_error(tmp_path, capsys):
    rc = cli.main(["analyze", "--csv", str(tmp_path / "nope.csv")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


# ------------------------------------------------------------- fit/predict

def parse_fit_output(text):
    values = {}
    for line in text.splitlines():
        parts = line.split()
        if parts[0] == "intercept":
            values["intercept"] = float(parts[1])
        elif parts[0] == "coef":
            values[parts[1]] = float(parts[2])
        elif parts[0] in ("mae", "mse", "accuracy_pct"):
            values[parts[0]] = float(parts[1])
    return values


def test_fit_full_dataset(csv_path, capsys):
    assert cli.main(["fit", "--csv", str(csv_path)]) == 0
    values = parse_fit_output(capsys.readouterr().out)
    assert values["intercept"] == pytest.approx(12.000950817260355, abs=1e-9)
    assert values["S"] == pytest.approx(1.0089547265244383, abs=1e-9)
    assert values["T"] == pytest.approx(-0.196256340651576, abs=1e-9)
    assert values["Age"] == pytest.approx(0.16899717290326915, abs=1e-9)


def test_fit_with_held_out_rows(csv_path, capsys):
    rc = cli.main(["fit", "--csv", str(csv_path), "--test-indices", HELD_OUT])
    assert rc == 0
    out = capsys.readouterr().out
    values = parse_fit_output(out)
    assert values["intercept"] == pytest.approx(14.319164821637438, abs=1e-9)
    assert values["S"] == pytest.approx(0.9624453059091265, abs=1e-9)
    assert values["T"] == pytest.approx(-0.17349130546037306, abs=1e-9)
    assert values["Age"] == pytest.approx(0.16293677465903245, abs=1e-9)
    assert values["mae"] == pytest.approx(1.633702533697678, abs=1e-9)
    assert values["mse"] == pytest.approx(3.2181888486775514, abs=1e-9)
    assert values["accuracy_pct"] == pytest.approx(93.5434261396096, abs=1e-9)
    assert "row 2 actual 100 predicted" in out


def test_fit_model_out_round_trips(csv_path, tmp_path, capsys):
    model_path = tmp_path / "model.txt"
    rc = cli.main(["fit", "--csv", str(csv_path), "--test-indices", HELD_OUT,
                   "--model-out", str(model_path)])
    assert rc == 0
    assert f"model written to {model_path}" in capsys.readouterr().out

    # the file restores the exact same model as an in-process fit
    x, y = regression.design_from_dataset(sample_data.sample_dataset())
    spec = regression.SplitSpec((2, 5, 17, 19, 12))
    train_x, _ = regression.split(list(x), spec)
    train_y, _ = regression.split(list(y), spec)
    assert regression.load_model(model_path) == regression.fit_ols(train_x, train_y)


def test_predict_covers_every_row(csv_path, tmp_path, capsys):
    model_path = tmp_path / "model.txt"
    cli.main(["fit", "--csv", str(csv_path), "--model-out", str(model_path)])
    capsys.readouterr()

    assert cli.main(["predict", "--model", str(model_path),
                     "--csv", str(csv_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "Actual,Predicted,Error"
    assert len(lines) == 21

    r_column = analytics.Dataset.from_csv(sample_data.sample_csv()).column("R")
    for want, line in zip(r_column, lines[1:]):
        actual, predicted, error = (float(v) for v in line.split(","))
        assert actual == want
        assert error == pytest.approx(actual - predicted, abs=1e-12)


def test_predict_out_file(csv_path, tmp_path, capsys):
    model_path = tmp_path / "model.txt"
    cli.main(["fit", "--csv", str(csv_path), "--model-out", str(model_path)])
    out_path = tmp_path / "predictions.csv"
    rc = cli.main(["predict", "--model", str(model_path), "--csv", str(csv_path),
                   "--out", str(out_path)])
    assert rc == 0
    text = out_path.read_text(encoding="utf-8")
    assert text.startswith("Actual,Predicted,Error\n")
    assert text.count("\n") == 21


# ----------------------------------------------------------- ingest/export

def test_ingest_then_export_round_trip(csv_path, tmp_path, capsys):
    root = tmp_path / "telemetry"
    rc = cli.main(["ingest-csv", "--csv", str(csv_path),
                   "--store-root", str(root), "--patient", "bulk"])
    assert rc == 0
    assert "ingested 20 records for patient bulk" in capsys.readouterr().out

    out_file = tmp_path / "export.csv"
    rc = cli.main(["export-csv", "--store-root", str(root),
                   "--patient", "bulk", "--out", str(out_file)])
    assert rc == 0
    assert out_file.read_text(encoding="utf-8") == sample_data.sample_csv()


PQRST_KEYS = ["record_no", "age", "p", "q", "r", "s", "t", "patient_id", "captured_at"]


def test_pqrst_document_same_from_device_and_ingest_csv(csv_path, tmp_path):
    published = []
    device.run_ecg_session(synth.synthesize(synth.SynthConfig(duration=12.0)), "p9", age=41,
                           publish=lambda topic, payload, qos: published.append(payload))
    assert list(json.loads(published[0])) == PQRST_KEYS

    root = tmp_path / "telemetry"
    assert cli.main(["ingest-csv", "--csv", str(csv_path), "--store-root", str(root)]) == 0
    with RecordStore(root) as store:
        docs = store.read_class("pqrst")
    assert [list(d.payload) for d in docs] == [PQRST_KEYS] * 20
    assert docs[0].payload == {"record_no": 1, "age": 21, "p": 91.6, "q": 100.0,
                               "r": 100.0, "s": 100.0, "t": 90.0,
                               "patient_id": "bulk", "captured_at": None}


def test_export_csv_to_stdout(csv_path, tmp_path, capsys):
    root = tmp_path / "telemetry"
    cli.main(["ingest-csv", "--csv", str(csv_path), "--store-root", str(root)])
    capsys.readouterr()
    assert cli.main(["export-csv", "--store-root", str(root)]) == 0
    assert capsys.readouterr().out == sample_data.sample_csv()


def test_store_root_env_override(csv_path, tmp_path, capsys, monkeypatch):
    flag_root = tmp_path / "flag"
    env_root = tmp_path / "env"
    monkeypatch.setenv("ECGMON_STORE_ROOT", str(env_root))
    rc = cli.main(["ingest-csv", "--csv", str(csv_path),
                   "--store-root", str(flag_root)])
    assert rc == 0
    assert (env_root / "pqrst").exists()
    assert not flag_root.exists()


# --------------------------------------------------------- simulate-device

@pytest.fixture()
def system(tmp_path):
    store = RecordStore(tmp_path / "telemetry")
    sink = IngestionSink(store).start()
    broker = Broker("127.0.0.1", 0, sink=sink).start()
    yield broker, store
    broker.stop()
    sink.stop()
    store.close()


def test_simulate_device_ecg_session(system, capsys):
    broker, store = system
    rc = cli.main(["simulate-device", "--patient", "p7", "--age", "30",
                   "--mode", "ecg", "--broker", f"127.0.0.1:{broker.port}"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "patient p7 session status Uploaded overall 100.0" in out
    assert "P=100 Q=100 R=100 S=100 T=100" in out

    docs = store.read_class("pqrst")
    assert len(docs) == 1
    payload = docs[0].payload
    assert payload["patient_id"] == "p7"
    assert payload["record_no"] == 1
    assert payload["age"] == 30
    assert all(payload[wave] == 100.0 for wave in "pqrst")


def test_simulate_device_heartbeat(system, capsys):
    broker, store = system
    rc = cli.main(["simulate-device", "--patient", "p7", "--age", "30",
                   "--mode", "heartbeat", "--broker", f"127.0.0.1:{broker.port}"])
    assert rc == 0
    assert "patient p7 bpm 72" in capsys.readouterr().out
    docs = store.read_class("heartbeat")
    assert len(docs) == 1
    assert docs[0].payload["bpm"] == 72


def test_simulate_device_synth_config_override(system, tmp_path, capsys):
    broker, store = system
    cfg = tmp_path / "synth.conf"
    cfg.write_text("heart_rate = 60\n", encoding="utf-8")
    rc = cli.main(["simulate-device", "--patient", "p7", "--age", "30",
                   "--mode", "heartbeat", "--broker", f"127.0.0.1:{broker.port}",
                   "--synth-config", str(cfg)])
    assert rc == 0
    assert "patient p7 bpm 60" in capsys.readouterr().out


# ------------------------------------------------------------ start_system

def test_start_system_wires_everything(tmp_path):
    config = GatewayConfig(http_port=0, mqtt_port=0,
                           store_root=str(tmp_path / "telemetry"))
    system = cli.start_system(config)
    try:
        payload = {"patient_id": "p1", "bpm": 72, "window_seconds": 20,
                   "measured_at": "2026-01-01T00:00:00Z"}
        client = MqttClient(client_id="probe")
        client.connect("127.0.0.1", system.broker.port)
        client.publish("clinic/p1/heartbeat", json.dumps(payload).encode(), qos=1)
        client.disconnect()

        conn = http.client.HTTPConnection("127.0.0.1", system.gateway.port, timeout=5)
        try:
            conn.request("GET", "/patients/p1/heartbeat/latest")
            resp = conn.getresponse()
            body = json.loads(resp.read())
        finally:
            conn.close()
        assert resp.status == 200
        assert body["payload"]["bpm"] == 72
    finally:
        system.stop()


# ----------------------------------------------------------- configuration

def test_load_config_file_and_overrides(tmp_path):
    path = tmp_path / "gw.conf"
    path.write_text(
        "# gateway settings\n"
        "http_listen = 0.0.0.0:9090\n"
        "mqtt_listen = 0.0.0.0:2883\n"
        "theta_excellent = 97\n"
        "store_root = /tmp/from-file\n",
        encoding="utf-8")
    cfg = load_config(path, overrides={"store_root": "/tmp/from-flag"})
    assert cfg.http_host == "0.0.0.0" and cfg.http_port == 9090
    assert cfg.mqtt_port == 2883
    assert cfg.theta_excellent == 97.0
    assert cfg.store_root == "/tmp/from-flag"


def test_load_config_env_beats_flags(monkeypatch):
    monkeypatch.setenv("ECGMON_STORE_ROOT", "/tmp/env-root")
    cfg = load_config(None, overrides={"store_root": "/tmp/flag-root"})
    assert cfg.store_root == "/tmp/env-root"


def test_load_config_unknown_key(tmp_path):
    path = tmp_path / "gw.conf"
    path.write_text("mystery = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="mystery"):
        load_config(path)
    # the device's upload gate is fixed; the gateway has no such setting
    path.write_text("gating_threshold = 80\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="gating_threshold"):
        load_config(path)


def test_load_config_equal_ports_rejected():
    with pytest.raises(ConfigError, match="ports"):
        load_config(None, overrides={"http_listen": "127.0.0.1:7000",
                                     "mqtt_listen": "127.0.0.1:7000"})


def test_load_config_bad_listen_value():
    with pytest.raises(ConfigError, match="host:port"):
        load_config(None, overrides={"http_listen": "no-port"})


def test_parse_kv_rejects_bare_words():
    with pytest.raises(ConfigError, match="line 2"):
        parse_kv("a = 1\nbogus\n")


def test_load_synth_config_fields_and_template(tmp_path):
    path = tmp_path / "synth.conf"
    path.write_text(
        "heart_rate = 60\n"
        "noise_std = 12.5\n"
        "seed = 7\n"
        "lead_off_intervals = 1:2,3:4.5\n"
        "r_amplitude = 2.0\n",
        encoding="utf-8")
    cfg, template = load_synth_config(path)
    assert cfg.heart_rate == 60.0
    assert cfg.noise_std == 12.5
    assert cfg.seed == 7
    assert cfg.lead_off_intervals == ((1.0, 2.0), (3.0, 4.5))
    assert template.r.amplitude == 2.0
    assert template.p == synth.DEFAULT_TEMPLATE.p


def test_load_synth_config_unknown_key(tmp_path):
    path = tmp_path / "synth.conf"
    path.write_text("warp_factor = 9\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="warp_factor"):
        load_synth_config(path)


def test_load_synth_config_bad_value(tmp_path):
    path = tmp_path / "synth.conf"
    path.write_text("sample_rate = fast\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="sample_rate"):
        load_synth_config(path)
