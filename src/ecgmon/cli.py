"""Command line entry points.

Subcommands: serve, simulate-device, ingest-csv, export-csv, analyze,
fit, predict.  `serve` wires the broker, ingestion sink, store and HTTP
gateway into one process; the others are one-shot tools over CSV files
or a store directory.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import signal
import sys
import threading
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import analytics, device, regression, synth
from .config import GatewayConfig, load_config, load_synth_config, split_address
from .gateway import Gateway
from .ingest import IngestionSink
from .mqtt.broker import Broker
from .mqtt.client import MqttClient
from .store import RecordStore

__all__ = ["main", "start_system", "System"]


@dataclass
class System:
    """A running broker + sink + store + gateway bundle."""

    config: GatewayConfig
    store: RecordStore
    sink: IngestionSink
    broker: Broker
    gateway: Gateway

    def stop(self) -> None:
        self.broker.stop()
        self.gateway.stop()     # and its sink, which the broker shares
        self.store.close()


def start_system(config: GatewayConfig) -> System:
    """The gateway and its sink, then a broker over that same sink; a failed
    start stops what started and closes the store."""
    with contextlib.ExitStack() as undo:
        store = RecordStore(config.store_root)
        undo.callback(store.close)
        gateway = Gateway(store, config).start()
        undo.callback(gateway.stop)
        password = config.mqtt_password.encode() if config.mqtt_password else None
        broker = Broker(config.mqtt_host, config.mqtt_port, sink=gateway.sink,
                        username=config.mqtt_username, password=password).start()
        undo.pop_all()
    return System(config, store, gateway.sink, broker, gateway)


# ---------------------------------------------------------------- serve

def _cmd_serve(args) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    config = load_config(args.config, overrides={
        "http_listen": args.http,
        "mqtt_listen": args.mqtt,
        "store_root": args.store_root,
        "model_path": args.model,
    })
    signal.signal(signal.SIGTERM, signal.default_int_handler)   # stops cleanly, as on ^C
    system = start_system(config)
    try:    # from here on, an interrupt stops the system
        print(f"mqtt on {config.mqtt_host}:{system.broker.port}, "
              f"http on {config.http_host}:{system.gateway.port}, "
              f"store at {config.store_root}")
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        system.stop()
    return 0


# ------------------------------------------------------- simulate-device

def _cmd_simulate_device(args) -> int:
    host, port = split_address(args.broker)
    if args.synth_config:
        cfg, template = load_synth_config(args.synth_config)
    else:
        cfg, template = synth.SynthConfig(), synth.DEFAULT_TEMPLATE
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)

    client = MqttClient(client_id=f"device-{args.patient}")
    client.connect(host, port)
    agent = device.DeviceAgent(args.patient, args.age, client.publish,
                               next_record_no=args.record_no)
    try:
        if args.mode == "heartbeat":
            # the firmware counts beats over a fixed 20 s window
            window_cfg = replace(cfg, duration=max(cfg.duration, float(device.HEARTBEAT_WINDOW_S)))
            reading = agent.measure_and_publish_heartbeat(synth.pulse_events(window_cfg))
            print(f"patient {args.patient} bpm {reading.bpm}")
        else:
            outcome = agent.run_and_publish_session(synth.synthesize(cfg, template))
            scores = outcome.scores
            print(f"patient {args.patient} session status {outcome.status} "
                  f"overall {outcome.overall_score}")
            print("scores "
                  f"P={device.render_score(scores.p)} Q={device.render_score(scores.q)} "
                  f"R={device.render_score(scores.r)} S={device.render_score(scores.s)} "
                  f"T={device.render_score(scores.t)}")
    finally:
        client.disconnect()
    return 0


# ------------------------------------------------------------ store tools

def _open_store(args) -> RecordStore:
    config = load_config(args.config, overrides={"store_root": args.store_root})
    return RecordStore(config.store_root)


def _cmd_ingest_csv(args) -> int:
    records = device.load_csv(Path(args.csv).read_text(encoding="utf-8"))
    store = _open_store(args)
    try:
        for r in records:
            store.append(device.topic(args.patient, "pqrst"), args.patient,
                         asdict(replace(r, patient_id=args.patient)))
    finally:
        store.close()
    print(f"ingested {len(records)} records for patient {args.patient}")
    return 0


def _cmd_export_csv(args) -> int:
    store = _open_store(args)
    try:
        text = store.export_csv(args.patient)
    finally:
        store.close()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------- analyze

def _fmt(value: float, digits: Optional[int]) -> str:
    if value != value:  # NaN marker for undefined correlations
        return "NaN"
    if digits is not None:
        value = round(value, digits)
    return f"{value:g}" if digits is not None else repr(value)


def _matrix_lines(matrix: np.ndarray, digits: Optional[int]) -> list[str]:
    names = analytics.COLUMNS
    cells = [[_fmt(float(v), digits) for v in row] for row in matrix]
    width = max(len(c) for row in cells for c in row)
    width = max(width, max(len(n) for n in names))
    head = " ".join(f"{n:>{width}}" for n in ("", *names))
    lines = [head]
    for name, row in zip(names, cells):
        lines.append(" ".join(f"{c:>{width}}" for c in (name, *row)))
    return lines


def _cmd_analyze(args) -> int:
    dataset = analytics.Dataset.from_csv(Path(args.csv).read_text(encoding="utf-8"))
    if args.drop_outliers:
        flagged = set()
        for column in analytics.COLUMNS:
            flagged.update(analytics.iqr_outliers(dataset, column))
        dataset = analytics.Dataset(np.delete(dataset.rows, list(flagged), axis=0))
        print(f"dropped {len(flagged)} outlier rows, {len(dataset)} remain")

    digits = args.round
    reports = ("stats", "corr", "cov", "rank", "quality") if args.report == "all" else (args.report,)
    out_dir = Path(args.csv_out) if args.csv_out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    for report in reports:
        lines, csv_lines = _build_report(dataset, report, digits)
        print(f"== {report} ==")
        print("\n".join(lines))
        if out_dir:
            (out_dir / f"{report}.csv").write_text("\n".join(csv_lines) + "\n",
                                                   encoding="utf-8")
    if out_dir:
        print(f"report CSVs written to {out_dir}")
    return 0


def _build_report(dataset: analytics.Dataset, report: str,
                  digits: Optional[int]) -> tuple[list[str], list[str]]:
    names = analytics.COLUMNS
    if report == "stats":
        summary = analytics.describe(dataset)
        fields = ("count", "mean", "std", "min", "q25", "q50", "q75", "max")
        rows = []
        for name in names:
            st = summary[name]
            rows.append([name] + [
                str(st.count) if f == "count" else _fmt(getattr(st, f), digits)
                for f in fields
            ])
        width = max(len(c) for row in rows for c in row)
        head = " ".join(f"{h:>{width}}" for h in ("column", *fields))
        lines = [head] + [" ".join(f"{c:>{width}}" for c in row) for row in rows]
        csv_lines = ["column," + ",".join(fields)]
        csv_lines += [",".join(row) for row in rows]
        return lines, csv_lines
    if report in ("corr", "cov"):
        matrix = (analytics.correlation_matrix(dataset) if report == "corr"
                  else analytics.covariance_matrix(dataset))
        lines = _matrix_lines(matrix, digits)
        csv_lines = ["," + ",".join(names)]
        for name, row in zip(names, matrix):
            csv_lines.append(name + "," + ",".join(_fmt(float(v), digits) for v in row))
        return lines, csv_lines
    if report == "rank":
        ranked = analytics.rank_against(dataset)
        lines = [f"{name:>4} {_fmt(value, digits)}" for name, value in ranked]
        csv_lines = ["column,correlation_with_R"]
        csv_lines += [f"{name},{_fmt(value, digits)}" for name, value in ranked]
        return lines, csv_lines
    if report == "quality":
        dist = analytics.quality_distribution(dataset)
        lines = [f"{label:>10} {entry['count']:>5} {_fmt(entry['pct'], 2)}%"
                 for label, entry in dist.items()]
        csv_lines = ["band,count,pct"]
        csv_lines += [f"{label},{entry['count']},{_fmt(entry['pct'], 2)}"
                      for label, entry in dist.items()]
        return lines, csv_lines
    raise ValueError(f"unknown report {report!r}")


# -------------------------------------------------------------- fit/predict

def _cmd_fit(args) -> int:
    dataset = analytics.Dataset.from_csv(Path(args.csv).read_text(encoding="utf-8"))
    predictors = tuple(p.strip() for p in args.predictors.split(",") if p.strip())
    x, y = regression.design_from_dataset(dataset, predictors, args.target)

    if args.test_indices:
        indices = tuple(int(i) for i in args.test_indices.split(","))
        spec = regression.SplitSpec(indices)
        x_train, _ = regression.split(list(x), spec)
        y_train, _ = regression.split(list(y), spec)
    else:
        indices = ()
        x_train, y_train = list(x), list(y)

    model = replace(regression.fit_ols(x_train, y_train, predictors), target=args.target)
    print(f"intercept {model.intercept!r}")
    for name, value in model.coefficients:
        print(f"coef {name} {value!r}")

    if indices:
        actuals = [float(y[i]) for i in indices]
        predictions = [regression.predict(model, x[i]) for i in indices]
        report = regression.evaluate(actuals, predictions)
        for (i, actual, predicted) in zip(indices, actuals, predictions):
            print(f"row {i} actual {actual:g} predicted {predicted!r}")
        print(f"mae {report.mae!r}")
        print(f"mse {report.mse!r}")
        print(f"accuracy_pct {report.accuracy_pct!r}")

    if args.model_out:
        regression.save_model(model, args.model_out,
                              metadata={"trained_rows": str(len(x_train)),
                                        "test_indices": ",".join(map(str, indices))})
        print(f"model written to {args.model_out}")
    return 0


def _cmd_predict(args) -> int:
    model = regression.load_model(args.model)
    dataset = analytics.Dataset.from_csv(Path(args.csv).read_text(encoding="utf-8"))
    x, y = regression.design_from_dataset(dataset, model.predictor_names, model.target)
    lines = ["Actual,Predicted,Error"]
    for row, actual in zip(x, y):
        actual = float(actual)
        predicted = regression.predict(model, row)
        lines.append(f"{actual:g},{predicted!r},{actual - predicted!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecgmon",
        description="Simulated ECG telemetry: device, broker, store, gateway, analytics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run broker, ingestion sink, store and HTTP gateway")
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--http", help="http listen address host:port")
    p.add_argument("--mqtt", help="mqtt listen address host:port")
    p.add_argument("--store-root", help="store directory (env ECGMON_STORE_ROOT overrides)")
    p.add_argument("--model", help="model file for /patients/<id>/prediction")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("simulate-device", help="run one simulated device session")
    p.add_argument("--patient", required=True)
    p.add_argument("--age", type=int, required=True)
    p.add_argument("--mode", choices=("heartbeat", "ecg"), required=True)
    p.add_argument("--synth-config", help="synthesis settings file")
    p.add_argument("--broker", default="127.0.0.1:1883", help="broker address host:port")
    p.add_argument("--record-no", type=int, default=1)
    p.add_argument("--seed", type=int, help="noise generator seed override")
    p.set_defaults(func=_cmd_simulate_device)

    p = sub.add_parser("ingest-csv", help="append score records from a CSV to the store")
    p.add_argument("--csv", required=True)
    p.add_argument("--config")
    p.add_argument("--store-root")
    p.add_argument("--patient", default="bulk", help="patient id for the imported rows")
    p.set_defaults(func=_cmd_ingest_csv)

    p = sub.add_parser("export-csv", help="export stored score records as CSV")
    p.add_argument("--config")
    p.add_argument("--store-root")
    p.add_argument("--patient", help="restrict to one patient")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_export_csv)

    p = sub.add_parser("analyze", help="descriptive statistics and reports over a CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--drop-outliers", action="store_true",
                   help="drop rows outside the IQR fences of any column")
    p.add_argument("--report", default="all",
                   choices=("stats", "corr", "cov", "rank", "quality", "all"))
    p.add_argument("--round", type=int, help="display rounding (digits)")
    p.add_argument("--csv-out", help="directory for report CSV files")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("fit", help="fit the least squares score model")
    p.add_argument("--csv", required=True)
    p.add_argument("--target", default="R")
    p.add_argument("--predictors", default="S,T,Age")
    p.add_argument("--test-indices", help="comma-separated 0-based row indices held out")
    p.add_argument("--model-out", help="write the fitted model to this file")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", help="apply a model file to CSV rows")
    p.add_argument("--model", required=True)
    p.add_argument("--csv", required=True)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_predict)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
