"""Measuring process of the perfbench harness.

Runs one workload, single-threaded and in a closed loop, on the inputs
that ``gen.py`` wrote, and writes the raw results as JSON.  Every call
into the package goes through its public functions or
``regimes.cli.main`` and is timed from here; the package itself is not
instrumented, except that traced identify_cli runs wrap the CLI's call
into the parser.

Set-up (importing ``regimes`` and loading every input the workload holds
up front) is timed first.  The query phase then cycles through the
workload's operation list for ``--seconds`` (and at least one whole
pass), recording the times of every operation of the list.  Each
operation ends with its correctness gates; an operation that raises,
exits 2 or fails a gate counts as failed.  Times are CPU times, and in
untraced runs each is scaled by samples of a calibration kernel taken
next to it (``Calibration``).

With ``--trace 1`` a span is recorded around every layer call, and
counts at the same boundaries during set-up and the first pass, so they
repeat exactly between runs.  The spans are written out at the end and
the per-layer metrics are derived from them.

Usage: python3 perfbench/measure.py --inputs DIR --seconds S --trace 0|1
           --out FILE [--spans FILE] [--setup-only]
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import io
import itertools
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_digests.json")

K01 = {"0": 1.0, "1": 0.0}
TOL = 1e-9
ESTIMATE_TOL = 0.02  # the acceptance bound for the estimation loop at 100k rows
ESTIMATE_ALPHA = 0.5
# Every time is CPU time of this process (user and system).  On a shared
# virtual machine the host now and then takes the virtual CPU away (steal
# time): wall time charges those gaps to whatever operation was running,
# CPU time leaves them out.  The query loop stops on wall time.
clock = time.process_time
# Host-speed calibration (untraced runs only): samples of a fixed kernel
# before and after set-up, and one per CAL_EVERY_S of query time between
# operations.  Each timed interval is scaled by the samples taken within
# CAL_WINDOW_S of it, to a host on which the kernel's median is CAL_REF_S.
CAL_WARMUP, CAL_SETUP_SAMPLES, CAL_EVERY_S, CAL_WINDOW_S = 3, 15, 0.1, 1.0
CAL_REF_S = 0.005

CLI_COMMANDS = (
    "stability", "stability_numeric", "seqrand", "seqirrel", "positivity",
    "graphsep", "verify_general", "admissible", "admissible_improve",
)
SPAN_SHARES = {
    "parser.parse_pct": "parser.parse",
    "model.exact_source_pct": "model.exact_source",
    "model.oracle_pct": "model.oracle",
    "grecursion.recursion_pct": "grecursion.recursion",
    "optimize.backward_pct": "optimize.backward",
    "optimize.enumerate_pct": "optimize.enumerate",
    "stability.numeric_pct": "stability.numeric",
    "data.sample_pct": "data.sample",
    "data.estimate_pct": "data.estimate",
    "graph.graphical_cmds_pct": "graph.graphical_cmd",
    **{f"cli.{c}_pct": f"cli.{c}" for c in CLI_COMMANDS},
}
COUNTS = (
    "parser.bytes", "model.joint_cells", "model.joint_bytes", "model.oracle_calls",
    "grecursion.calls", "grecursion.histories", "optimize.strategies_enumerated",
    "data.rows", "cli.calls", "cli.exit_false",
)

regimes = None  # bound by _import_package, inside the timed set-up


class GateError(Exception):
    """An operation returned a result that fails a correctness gate."""


def gate(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, name):
        self.tracer = tracer
        stack = tracer.stack
        self.record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]

    def __enter__(self):
        tracer = self.tracer
        tracer.stack.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[1] = clock()
        return self

    def __exit__(self, *exc):
        self.record[2] = clock()
        self.tracer.stack.pop()
        return False


class Tracer:
    """In-memory spans (name, start, end, parent span, operation id) and
    counts.  Disabled, ``span`` returns a shared no-op context manager."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.counting = enabled
        self.op = -1

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL_SPAN

    def count(self, name: str, n: int = 1) -> None:
        if self.counting:
            self.counts[name] += n

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def span_cost_s(n: int = 20000) -> float:
    """Measured cost of recording one span around an empty body."""
    tracer = Tracer(True)
    t0 = clock()
    for _ in range(n):
        with tracer.span("calibrate"):
            pass
    return (clock() - t0) / n


def calibration_sample(n: int = 12000) -> float:
    """CPU seconds one run of a fixed pure-Python kernel takes (dict
    updates, float arithmetic, a sort; about 5 ms on the reference host).
    The kernel depends on nothing in the package, so its time measures
    how fast the host runs this process at the moment.  The collector is
    paused so that a collection of the program's heap never lands in a
    sample."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        table: dict[int, float] = {}
        acc = 0.0
        for i in range(n):
            k = (i * 7919) & 1023
            v = table.get(k, 0.5) * 0.75 + (i & 15) * 0.125
            table[k] = v
            acc += v if v < 4.0 else -v
        acc += sorted(table, key=table.__getitem__)[0]
        return clock() - t0
    finally:
        if enabled:
            gc.enable()


class Calibration:
    """Calibration samples, each with the wall-clock time it ended at.

    A shared host's speed changes within seconds, and the kernel's time
    follows the program's only when both are measured at about the same
    moment, so every interval gets its own factor from the samples taken
    near it rather than one factor per run."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        for _ in range(CAL_WARMUP):
            calibration_sample()

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            self.took.append(calibration_sample())
            self.at.append(time.perf_counter())

    def scale(self, start: float, end: float) -> float:
        """CAL_REF_S over the median of the samples that ended within
        CAL_WINDOW_S of the wall-clock interval [start, end], or of all
        samples when none did."""
        lo = bisect.bisect_left(self.at, start - CAL_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + CAL_WINDOW_S)
        return CAL_REF_S / statistics.median(self.took[lo:hi] or self.took)


def _import_package() -> None:
    global regimes
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import regimes as package
    import regimes.cli  # noqa: F401  (the identify_cli entry point)

    regimes = package


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _parse(tr: Tracer, text: str):
    with tr.span("parser.parse"):
        doc = regimes.parse_model(text)
    tr.count("parser.bytes", len(text.encode("utf-8")))
    return doc


def _exact_source(tr: Tracer, diagram):
    with tr.span("model.exact_source"):
        source = regimes.ExactSource(diagram)
    cells = math.prod(len(diagram.states[v]) for v in diagram.order)
    tr.count("model.joint_cells", cells)
    tr.count("model.joint_bytes", 8 * cells)
    return source


def _oracle(tr: Tracer, diagram, strategy) -> float:
    with tr.span("model.oracle"):
        value = regimes.consequence_direct(diagram, strategy, K01)
    tr.count("model.oracle_calls")
    return value


def _boundary_prefixes(base) -> int:
    """Number of boundary prefixes of the observable base: the most
    histories one recursion can visit."""
    cards = [len(base.states[v]) for v in base.vars]
    return sum(math.prod(cards[:m]) for m in base.boundaries)


# ---------------------------------------------------------------------------
# large_model: one big complete model, queries that walk ~10^5 histories


def setup_large(inputs: str, manifest: dict, tr: Tracer):
    doc = _parse(tr, _read(os.path.join(inputs, manifest["model"])))
    source = _exact_source(tr, doc.diagram)
    return doc, source


def ops_large(state, manifest: dict, tr: Tracer):
    doc, source = state
    diagram = doc.diagram
    strategies = [doc.strategy(name) for name in manifest["strategies"]]
    stability_strategies = [doc.strategy(name) for name in manifest["stability_strategies"]]
    values: dict[str, float] = {}

    def recursion(strategy):
        def op():
            with tr.span("grecursion.recursion"):
                table = regimes.recursion_table(source, strategy, K01)
            tr.count("grecursion.calls")
            tr.count("grecursion.histories", len(table.values))
            tr.count("grecursion.prefixes", _boundary_prefixes(diagram.base))
            direct = _oracle(tr, diagram, strategy)
            gate(abs(table.root - direct) <= TOL,
                 f"recursion {table.root!r} != oracle {direct!r} for {strategy.name}")
            values[strategy.name] = table.root
        return op

    def optimize():
        with tr.span("optimize.backward"):
            best, value = regimes.optimal_strategy(source, K01)
        direct = _oracle(tr, diagram, best)
        gate(abs(direct - value) <= TOL, f"backward value {value!r} != oracle {direct!r}")
        for name, v in values.items():
            gate(v <= value + TOL, f"strategy {name} scores {v!r} above the optimum {value!r}")

    def stability():
        with tr.span("stability.numeric"):
            report = regimes.check_simple_stability_numeric(diagram, stability_strategies)
        gate(report.overall, "a complete model must be simply stable")

    def estimate():
        strategy = doc.strategy(manifest["estimate_strategy"])
        with tr.span("data.sample"):
            dataset = regimes.sample(diagram, "obs", manifest["estimate_rows"],
                                     manifest["sample_seed"])
        tr.count("data.rows", dataset.n)
        with tr.span("data.estimate"):
            estimated = regimes.estimate_conditionals(dataset, diagram.base, ESTIMATE_ALPHA)
        with tr.span("grecursion.recursion"):
            value = regimes.g_recursion(estimated, strategy, K01)
        tr.count("grecursion.calls")
        exact = _oracle(tr, diagram, strategy)
        gate(abs(value - exact) <= ESTIMATE_TOL,
             f"estimated consequence {value!r} is {abs(value - exact):.4f} from {exact!r}")

    ops = [("recursion", recursion(s)) for s in strategies]
    ops += [("optimize", optimize), ("stability_numeric", stability), ("estimate", estimate)]
    return ops


# ---------------------------------------------------------------------------
# strategy_sweep: many two-action models, optimizer vs enumeration vs rivals


def setup_sweep(inputs: str, manifest: dict, tr: Tracer):
    models = []
    for name in manifest["models"]:
        text = _read(os.path.join(inputs, name + ".id"))
        with open(os.path.join(inputs, name + ".json"), encoding="utf-8") as fh:
            raw = json.load(fh)
        challengers = [_strategy(f"{name}-c{j}", spec) for j, spec in enumerate(raw)]
        models.append((name, text, challengers))
    return models


def _strategy(name: str, spec: dict):
    policies = {}
    for action, (parents, rows) in spec.items():
        table = {}
        for config, row in zip(_configs(len(parents)), rows):
            table[config] = (
                (1.0 if row == "0" else 0.0, 1.0 if row == "1" else 0.0)
                if isinstance(row, str) else tuple(row)
            )
        policies[action] = regimes.Policy(tuple(parents), table)
    return regimes.Strategy(name, policies)


def _configs(n: int):
    return itertools.product(("0", "1"), repeat=n)


def _strategy_total(base) -> int:
    total = 1
    for i, action in enumerate(base.actions, start=1):
        rows = math.prod(len(base.states[v]) for v in base.vars[: base.after_l(i)])
        total *= len(base.states[action]) ** rows
    return total


def ops_sweep(models, manifest: dict, tr: Tracer):
    def model_op(name, text, challengers):
        def op():
            doc = _parse(tr, text)
            diagram = doc.diagram
            source = _exact_source(tr, diagram)
            with tr.span("optimize.backward"):
                _, value = regimes.optimal_strategy(source, K01)
            with tr.span("optimize.enumerate"):
                _, best = regimes.enumerate_strategies(diagram, K01)
            tr.count("optimize.strategies_enumerated", _strategy_total(diagram.base))
            gate(abs(value - best) <= TOL, f"{name}: backward {value!r} != enumeration {best!r}")
            for challenger in challengers:
                with tr.span("grecursion.recursion"):
                    v = regimes.g_recursion(source, challenger, K01)
                tr.count("grecursion.calls")
                direct = _oracle(tr, diagram, challenger)
                gate(abs(v - direct) <= TOL,
                     f"{challenger.name}: recursion {v!r} != oracle {direct!r}")
                gate(v <= value + TOL, f"{challenger.name} scores {v!r} above the optimum {value!r}")
        return op

    return [("model", model_op(*m)) for m in models]


# ---------------------------------------------------------------------------
# identify_cli: every identification command through the CLI entry point


def setup_identify(inputs: str, manifest: dict, tr: Tracer):
    with open(DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)
    ops = []
    for op in manifest["ops"]:
        argv = list(op["argv"])
        argv[2] = os.path.join(inputs, argv[2])
        ops.append((op["key"], op["command"], op["large"], argv))
    return ops, digests


def cli_digest(code: int, stdout: str) -> str:
    return hashlib.sha256(f"{code}\n{stdout}".encode("utf-8")).hexdigest()[:16]


def run_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = regimes.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def ops_identify(state, manifest: dict, tr: Tracer):
    ops, digests = state
    if tr.enabled:
        # A span around the CLI's call into the parser: the one layer
        # boundary inside a command that the per-layer metrics need.
        parse = regimes.cli.parse_model

        def traced_parse(text):
            with tr.span("parser.parse"):
                doc = parse(text)
            tr.count("parser.bytes", len(text.encode("utf-8")))
            return doc

        regimes.cli.parse_model = traced_parse

    def command_op(key, command, large, argv):
        def op():
            with tr.span("graph.graphical_cmd") if large else _NULL_SPAN:
                with tr.span("cli." + command):
                    code, stdout, stderr = run_cli(argv)
            tr.count("cli.calls")
            tr.count("cli.exit_false", code == 1)
            gate(code in (0, 1), f"{key}: exit {code}: {stderr.strip()[:200]}")
            want = digests.get(key)
            gate(want is not None, f"{key}: no stored digest")
            got = cli_digest(code, stdout)
            gate(got == want, f"{key}: stdout/exit digest {got} != stored {want}")
        return op

    return [(op[1], command_op(*op)) for op in ops]


WORKLOADS = {
    "large_model": (setup_large, ops_large),
    "strategy_sweep": (setup_sweep, ops_sweep),
    "identify_cli": (setup_identify, ops_identify),
}


def run_queries(ops, seconds: float, tr: Tracer, cal: Calibration | None):
    """Run ``ops`` over and over in their fixed order, in a closed loop,
    until ``seconds`` of wall time have passed and the first whole pass
    is done.  The loop may stop inside a pass; the metrics are then taken
    per operation of the list (see ``run.py``), so the mix of operations
    stays the same in every run.  With ``cal``, a calibration sample is
    taken between operations for every CAL_EVERY_S of query time.
    Returns per operation of the list the times of its executions in ms,
    scaled and unscaled, and whether each one succeeded."""
    executions = []
    failures: list[str] = []
    owed_s = 0.0
    start = time.perf_counter()
    for i in itertools.count():
        kind, op = ops[i % len(ops)]
        if i == len(ops):
            tr.counting = False
        if i >= len(ops) and time.perf_counter() - start >= seconds:
            break
        tr.op += 1
        w0, t0 = time.perf_counter(), clock()
        try:
            op()
        except Exception as exc:  # the loop must go on; the failure is reported
            if len(failures) < 5:
                failures.append(f"{kind}: {type(exc).__name__}: {exc}")
            succeeded = False
        else:
            succeeded = True
        dt = clock() - t0
        executions.append((i % len(ops), w0, time.perf_counter(), dt, succeeded))
        if cal is not None:
            owed_s += dt
            while owed_s >= CAL_EVERY_S:
                cal.sample()
                owed_s -= CAL_EVERY_S
    times_ms: list[list[float]] = [[] for _ in ops]
    raw_ms: list[list[float]] = [[] for _ in ops]
    ok: list[list[bool]] = [[] for _ in ops]
    for index, w0, w1, dt, succeeded in executions:
        times_ms[index].append(dt * 1e3 * (cal.scale(w0, w1) if cal else 1.0))
        raw_ms[index].append(dt * 1e3)
        ok[index].append(succeeded)
    return times_ms, raw_ms, ok, failures


def per_layer(tr: Tracer, wall_s: float) -> dict:
    share = {name: 100.0 * tr.total(span) / wall_s for name, span in SPAN_SHARES.items()}
    share["trace.overhead_pct"] = 100.0 * len(tr.spans) * span_cost_s() / wall_s
    counts = {name: tr.counts[name] for name in COUNTS}
    prefixes = tr.counts["grecursion.prefixes"]
    counts["grecursion.live_ratio"] = (
        tr.counts["grecursion.histories"] / prefixes if prefixes else 0.0
    )
    return {**share, **counts}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(args.inputs, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    setup, make_ops = WORKLOADS[manifest["workload"]]
    tr = Tracer(bool(args.trace))
    # Calibration is left out of traced runs, whose layer shares are taken
    # of the process's whole CPU time.
    cal = None if tr.enabled else Calibration()
    if cal:
        cal.sample(CAL_SETUP_SAMPLES)

    w0, t0 = time.perf_counter(), clock()
    _import_package()
    state = setup(args.inputs, manifest, tr)
    setup_s = clock() - t0
    w1 = time.perf_counter()
    if cal:
        cal.sample(CAL_SETUP_SAMPLES)
    result = {"setup_s": setup_s * (cal.scale(w0, w1) if cal else 1.0),
              "raw_setup_s": setup_s}
    if not args.setup_only:
        ops = make_ops(state, manifest, tr)
        times_ms, raw_ms, ok, failures = run_queries(ops, args.seconds, tr, cal)
        result.update(
            times_ms=times_ms,
            raw_times_ms=raw_ms,
            attempted=sum(map(len, ok)),
            failed=sum(r.count(False) for r in ok),
            failures=failures,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tr.enabled:
            result["per_layer"] = per_layer(tr, clock() - t0)
            if args.spans:
                tr.write(args.spans)
    if cal:
        result.update(calibration_s=cal.took, cal_ref_s=CAL_REF_S)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
