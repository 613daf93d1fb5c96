"""perfbench: layered benchmark of the regimes package.

Runs one workload end to end from a checkout of the repository:

1. ``gen.py`` writes the workload's inputs from ``--seed`` in a process of
   its own, so generation counts neither in set-up time nor in memory;
2. ``measure.py`` loads the package from ``src/`` and sets up in
   set-up-only processes and then in the measuring process, and
   ``setup_s`` is the median of those set-ups;
3. the measuring process cycles through the workload's operations for
   ``--seconds`` (and at least one whole pass) and checks every result;
4. every untraced process also times a fixed calibration kernel around
   set-up and between operations, and scales each timed interval by the
   samples taken near it (``measure.Calibration``).  A shared host's
   speed changes within seconds; the scaling takes that out of the
   comparison of two runs, and it does not touch the package.

Every child runs with one BLAS/OpenMP thread.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and the end-to-end
metrics, or with ``--trace 1`` the per-layer metrics of a traced run.
The lines before it print each metric with its unit, the tail percentile
with its sample count, and the fail share.  ``--workload all`` runs the
three workloads in turn.

Usage: python3 perfbench/run.py --workload NAME --seed N --seconds S
           --trace 0|1 [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RUNS = os.path.join(ROOT, ".perfbench_runs")
SPANS = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("large_model", "strategy_sweep", "identify_cli")
# Set-up runs at least MIN_SETUPS times, and cheap set-ups repeat until
# SETUP_BUDGET_S of set-up time is measured (at most MAX_SETUPS times),
# since short timings vary most on a shared host.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 9, 3.0
TIME_LIMIT_S = 170.0  # per workload run, inside the 180 s a run may take
TAIL_BEYOND = 10

UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(script: str, args: list[str], deadline: float) -> None:
    """Run one child to completion; on timeout it is killed and reaped."""
    subprocess.run(
        [sys.executable, os.path.join(BENCH, script), *args],
        env=child_env(), cwd=ROOT, stdout=sys.stderr, check=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )


def query_metrics(times: list[list[float]]) -> tuple[float, float, float, str]:
    """Throughput, median and tail latency of the workload's mix.

    The query phase cycles through a fixed list of operations and may stop
    inside a pass, so each operation of the list is summarized first: its
    mean time (for throughput, which pays for every slow execution) and
    its median time over the run.  Throughput is the list's length over
    the sum of the means: the operations one pass of the mix completes per
    second.  The latencies are percentiles of the per-operation medians:
    the median, and as the tail the highest percentile with ten operations
    beyond it; with ten operations or fewer no percentile qualifies, and
    the tail is the slowest operation's median."""
    n = len(times)
    ops_per_s = 1e3 * n / sum(statistics.fmean(t) for t in times)
    medians = sorted(statistics.median(t) for t in times)
    runs = sum(map(len, times))
    if n > TAIL_BEYOND:
        tail = medians[n - TAIL_BEYOND - 1]
        note = (f"p{100.0 * (1 - TAIL_BEYOND / n):.2f} of the medians of {n} operations "
                f"({runs} executions), {TAIL_BEYOND} beyond it")
    else:
        tail = medians[-1]
        note = f"the slowest of {n} operations, its median over the run ({runs} executions)"
    return ops_per_s, statistics.median(medians), tail, note


def measure(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = os.path.join(RUNS, f"{workload}-{seed}-{os.getpid()}")
    inputs = os.path.join(workdir, "inputs")
    try:
        run_child("gen.py", ["--workload", workload, "--seed", str(seed),
                             "--out", inputs] + (["--smoke"] if smoke else []), deadline)
        setups: list[dict] = []
        while len(setups) < MIN_SETUPS - 1 or (
            sum(s["raw_setup_s"] for s in setups) < SETUP_BUDGET_S
            and len(setups) < MAX_SETUPS - 1
        ):
            out = os.path.join(workdir, f"setup{len(setups)}.json")
            run_child("measure.py", ["--inputs", inputs, "--seconds", "0", "--out", out,
                                     "--setup-only"], deadline)
            setups.append(_load(out))
        out = os.path.join(workdir, "result.json")
        spans = os.path.join(SPANS, f"{workload}-seed{seed}-spans.jsonl")
        run_child("measure.py", ["--inputs", inputs, "--seconds", str(seconds),
                                 "--trace", str(trace), "--out", out, "--spans", spans],
                  deadline)
        result = _load(out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(result)
    for key in ("setup_s", "raw_setup_s"):
        result[key] = statistics.median(s[key] for s in setups)
    result["calibration_s"] = [x for s in setups for x in s.get("calibration_s", [])]
    return result


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def report(workload: str, result: dict, trace: int) -> dict:
    attempted, failed = result["attempted"], result["failed"]
    times = result["raw_times_ms"]
    print(f"== {workload}: {attempted} executions of {len(times)} operations, "
          f"{sum(map(sum, times)) / 1e3:.2f} s of queries")
    if trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in result["per_layer"].items()}
    else:
        values, raw = {}, {}
        for out, setup_key, times_key in ((values, "setup_s", "times_ms"),
                                          (raw, "raw_setup_s", "raw_times_ms")):
            ops_per_s, p50, tail, tail_note = query_metrics(result[times_key])
            out.update(setup_s=result[setup_key], ops_per_s=ops_per_s,
                       op_p50_ms=p50, op_tail_ms=tail)
        values["peak_rss_mb"] = result["peak_rss_mb"]
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
        cal = result["calibration_s"]
        print(f"op_tail_ms is {tail_note}")
        print(f"calibration kernel: median {statistics.median(cal) * 1e3:.4g} ms over "
              f"{len(cal)} samples; times are scaled to a host where it takes "
              f"{result['cal_ref_s'] * 1e3:g} ms")
        print("unscaled: " + ", ".join(f"{n} = {v:.6g} {UNITS[n]}" for n, v in raw.items()))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_share = {failed / attempted:.6g} ({failed}/{attempted})")
    for line in result["failures"]:
        print(f"failure: {line}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _layer_unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes") or name.endswith(".bytes"):
        return "bytes"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description="Layered benchmark of the regimes package.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for checking that every metric is emitted")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "regimes", "__init__.py")):
        print("perfbench: no regimes package under src/ in this checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    try:
        for name in names:
            result = measure(name, args.seed, args.seconds, args.trace, args.smoke)
            lines[name] = report(name, result, args.trace)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
