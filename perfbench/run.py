"""Run one ecgmon benchmark workload, or compare two result files.

    python3 perfbench/run.py --workload fleet-ingest --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10 --out results.jsonl
    python3 perfbench/run.py --compare before.jsonl after.jsonl

Each workload runs against the real in-process system (`cli.start_system`:
store, ingest sink, broker, gateway) in a fresh store directory under
`.perfbench/` and checks its outputs.  The report goes to standard output;
its last line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`.  A traced run measures the workload twice, untraced and
then traced, reports the difference as `trace.overhead_pct`, and writes its
spans to `--trace-out` (default `.perfbench/trace-<workload>-seed<seed>.jsonl`).
`--out` appends the full result, host record included, as one JSON line for
`--compare`.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# fleet-ingest runs here but is not listed in BENCHMARK.json: its throughput
# is bound by fsync latency, which a shared disk swings between runs by more
# than any bound the benchmark may set (see README.md).
WORKLOADS = ("fleet-ingest", "device-sessions", "dashboard-query")


def _load_workloads() -> dict:
    """Import ecgmon from the checkout's sources; exit 2 when they are absent."""
    if not (ROOT / "src" / "ecgmon" / "__init__.py").is_file():
        print(f"error: no ecgmon sources under {ROOT / 'src'}", file=sys.stderr)
        raise SystemExit(2)
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        from perfbench import dashboard, fleet, sessions
    except ImportError as exc:
        print(f"error: cannot import the benchmark: {exc}", file=sys.stderr)
        raise SystemExit(2)
    return {"fleet-ingest": fleet.run, "device-sessions": sessions.run,
            "dashboard-query": dashboard.run}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            trace_out=None, **sizes) -> dict:
    """Run one workload in a fresh directory and return the full result."""
    runners = _load_workloads()
    from perfbench import tracing
    from perfbench.common import END_TO_END, PER_LAYER, host_record, peak_rss_mb

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        run = runners[workload]
        outcome = run(seed, seconds, workdir / "plain", None, **sizes)
        result = {
            "workload": workload,
            "seed": seed,
            "trace": int(trace),
            "host": host_record(outcome.store_root, seed, seconds),
            "correct": not outcome.problems,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "problems": outcome.problems,
            "failures": outcome.failures,
            "named": {k: list(v) for k, v in outcome.named.items()},
            "peak_rss_mb": peak_rss_mb(),
            "metrics": {name: {"value": outcome.end_to_end[name], "unit": unit}
                        for name, unit in END_TO_END.items()},
        }
        if trace:
            tracer = tracing.Tracer()
            traced = run(seed, seconds, workdir / "traced", tracer, **sizes)
            layers = tracing.layer_metrics(tracer, traced.bases)
            layers["trace.overhead_pct"] = 100.0 * (
                outcome.end_to_end["ops_per_s"] / traced.end_to_end["ops_per_s"] - 1.0)
            result["correct"] = result["correct"] and not traced.problems
            result["problems"] += traced.problems
            result["attempted"] += traced.attempted
            result["failed"] += traced.failed
            result["self_times"] = {name: list(v) for name, v in
                                    tracing.self_times(tracer.spans).items()}
            result["metrics"] = {name: {"value": layers[name], "unit": unit}
                                 for name, unit in PER_LAYER.items()}
            tracer.write(trace_out or scratch / f"trace-{workload}-seed{seed}.jsonl")
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(result: dict) -> str:
    host = result["host"]
    lines = [
        f"# {result['workload']}  seed {result['seed']}  {host['seconds']} s  "
        f"trace {result['trace']}",
        f"# host: {host['cpus']} cpus, python {host['python']}, numpy {host['numpy']}, "
        f"store on {host['store_fs']}; {host['latency_note']}",
        f"attempted {result['attempted']}  failed {result['failed']}  failed_frac "
        f"{result['failed'] / max(1, result['attempted']):.6f}  correct "
        f"{str(result['correct']).lower()}  peak_rss_mb {result['peak_rss_mb']:.1f}",
    ]
    lines += [f"  problem: {p}" for p in result["problems"]]
    lines += [f"  failure: {f}" for f in result["failures"]]
    for name, (value, unit, samples) in result["named"].items():
        lines.append(f"  {name:<34} {value:>12.4f} {unit:<6} n={samples}")
    for name, m in result["metrics"].items():
        lines.append(f"  {name:<34} {m['value']:>12.4f} {m['unit']}")
    if "self_times" in result:
        lines.append(f"  {'span':<34} {'calls':>8} {'mean ms':>10} {'self ms':>10}")
        for name, (calls, mean, self_ms) in result["self_times"].items():
            lines.append(f"  {name:<34} {calls:>8} {mean:>10.4f} {self_ms:>10.4f}")
    return "\n".join(lines)


def _run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result as a JSON line to this file")
    parser.add_argument("--trace-out", help="where a traced run writes its spans (JSON lines)")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two --out files instead of running")
    args = parser.parse_args(argv)

    if args.compare:
        sys.path.insert(0, str(ROOT))
        from perfbench.compare import compare_files
        print(compare_files(*args.compare, ROOT / "BENCHMARK.json"))
        return 0
    if args.workload is None:
        parser.error("--workload or --compare is required")
    if args.workload == "all":
        return _run_all(args)

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     trace_out=args.trace_out)
    print(report(result))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(result) + "\n")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.stdout.reconfigure(line_buffering=True)
    sys.exit(main())
