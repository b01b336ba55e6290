"""Benchmark entry point: one workload, one run, one JSON line at the end.

    python3 bench/run.py --workload atn-poly --seed 1 --seconds 40 --trace 0

Untraced (`--trace 0`): several set-up-only children give `setup_s`, then one
measured child runs the workload for `--seconds` and gives the end-to-end
metrics.  Their timings are normalised to a fixed host speed (hostspeed.py);
the record keeps the raw ones too.  Traced (`--trace 1`): one child calls
each operation once untraced and another does the same traced; the traced
one gives the per-layer metrics, and the difference of the two (raw) is the
tracing overhead.
Every child is a fresh interpreter.  The last stdout line is
{"correct", "attempted", "failed", "metrics"}; the full record, with the
machine record and every per-layer counter, goes to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = ROOT / ".bench_work" / "results"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
SETUP_SAMPLES = 8  # set-up-only children per untraced run, plus the measured one
RUN_LIMIT_S = 170.0  # a run must end within 180 s


def calibration_s(repeats: int = 5) -> list[float]:
    """Times of the host-speed probe, to show slow periods of the host."""
    return [hostspeed.probe() for _ in range(repeats)]


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
    }


def child(deadline: float, workload: str, seed: int, *extra: str) -> dict:
    argv = [
        sys.executable, str(BENCH / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--t0", repr(time.monotonic()), *extra,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise SystemExit("run time limit reached before the next child")
    try:
        # on timeout, run() kills the child and waits for it
        proc = subprocess.run(argv, stdout=subprocess.PIPE, timeout=timeout, text=True, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload} child passed the run time limit") from None
    if proc.returncode != 0:
        raise SystemExit(f"{workload} child exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pass_s(result: dict, timing: str) -> float:
    """Time of one pass over the operations, from per-operation medians."""
    return sum(statistics.median(samples) for samples in result[f"op{timing}_s"])


def end_to_end(setups: list[float], result: dict, timing: str = "") -> dict:
    """The reported metrics, or with `timing` "_raw" the raw ones."""
    gaps_ms = [g * 1000.0 for g in result[f"instance{timing}_s"]]
    return {
        "wall_s": pass_s(result, timing),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        # floored at 1 us, the clock's resolution, so a gap of 0 stays finite
        "instance_ms.gmean": statistics.geometric_mean(max(g, 1e-3) for g in gaps_ms),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "alontarsi" / "__init__.py").is_file():
        print(f"no alontarsi package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(),
        "calibration_s": {"before": calibration_s()},
    }
    w, seed = args.workload, args.seed
    if args.trace:
        plain = child(deadline, w, seed)
        traced = child(deadline, w, seed, "--trace", "1")
        runs = [plain, traced]
        layers = traced["layers"]
        layers["trace.overhead_s"] = pass_s(traced, "_raw") - pass_s(plain, "_raw")
        record["layers"] = layers
        record["end_to_end"] = end_to_end([plain["setup_s"]], plain)
        record["end_to_end_raw"] = end_to_end([plain["setup_raw_s"]], plain, "_raw")
        record["traced_wall_s"] = pass_s(traced, "_raw")
        metrics = {m["name"]: (layers[m["name"]], m["unit"]) for m in SPEC["per_layer"]}
    else:
        setups = [child(deadline, w, seed, "--setup-only") for _ in range(SETUP_SAMPLES)]
        measured = child(deadline, w, seed, "--seconds", str(args.seconds))
        runs = [measured]
        setups.append(measured)
        record["setup_s"] = [s["setup_s"] for s in setups]
        record["setup_raw_s"] = [s["setup_raw_s"] for s in setups]
        record["op_s"] = measured["op_s"]
        record["op_raw_s"] = measured["op_raw_s"]
        record["rounds"] = measured["rounds"]
        record["end_to_end"] = e2e = end_to_end(record["setup_s"], measured)
        record["end_to_end_raw"] = end_to_end(record["setup_raw_s"], measured, "_raw")
        metrics = {m["name"]: (e2e[m["name"]], m["unit"]) for m in SPEC["end_to_end"]}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    record["peak_rss_mb"] = [r["peak_rss_mb"] for r in runs]
    record["attempted"], record["failed"] = attempted, failed
    record["failed_frac"] = failed / attempted if attempted else 1.0
    record["failures"] = [f for r in runs for f in r["failures"]]
    record["calibration_s"]["after"] = calibration_s()
    record["run_s"] = time.monotonic() - started

    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{w}-seed{seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"machine": record["machine"], "calibration_s": record["calibration_s"]}))
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    correct = failed == 0 and attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
