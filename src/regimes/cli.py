"""Command-line surface.

Reports go to stdout as deterministic key=value lines; diagnostics go to
stderr.  Exit codes: 0 success, 1 when a checked condition is false,
2 on usage or model errors, 3 on an internal error (a bug: any other
exception, reported as one ``internal error:`` line on stderr).

The argparse parser is built once per process and binds the ``cmd_*``
handlers then; what a handler looks up when it runs (``grec.g_recursion``,
``parse_model``) still resolves on every call.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
from pathlib import Path

from . import admissible as adm
from . import data as dat
from . import grecursion as grec
from . import optimize as opt
from . import stability as stab
from .errors import RegimesError
from .model import ExactSource, consequence_direct
from .parser import ModelDocument, _join_list, parse_model

CHECK_FAILED = 1
USAGE_ERROR = 2
INTERNAL_ERROR = 3


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _emit(key: str, value) -> None:
    print(f"{key}={_fmt(value)}")


def _load(path: str) -> ModelDocument:
    return parse_model(Path(path).read_text(encoding="utf-8"))


def _response_functional(doc: ModelDocument, args):
    """The ``k`` of ``--k`` or ``--target``.  ``--k`` is only split and
    parsed here: ``response_weights`` refuses unknown states and values
    that are not finite."""
    states = doc.diagram.states[doc.diagram.response]
    if args.k is not None:
        k = {}
        for part in args.k.split(","):
            if "=" not in part:
                raise RegimesError(f"--k expects state=value pairs, got {part!r}")
            state, value = part.split("=", 1)
            if state in k:
                raise RegimesError(f"--k gives response state {state!r} twice")
            try:
                k[state] = float(value)
            except ValueError:
                raise RegimesError(f"--k value {value!r} for {state} is not a number") from None
        return k
    target = states[0] if args.target is None else args.target
    if target not in states:
        raise RegimesError(f"{target!r} is not a state of {doc.diagram.response}")
    return {s: 1.0 if s == target else 0.0 for s in states}


def _regime(doc: ModelDocument, name: str | None):
    if name is None or name == "obs":
        return "obs"
    return doc.strategy(name)


def cmd_evaluate(doc: ModelDocument, args) -> int:
    k = _response_functional(doc, args)
    _emit("consequence", consequence_direct(doc.diagram, _regime(doc, args.strategy), k))
    return 0


def cmd_grec(doc: ModelDocument, args) -> int:
    k = _response_functional(doc, args)
    strategy = doc.strategy(args.strategy)
    _emit("consequence", grec.g_recursion(ExactSource(doc.diagram), strategy, k))
    return 0


def _emit_stages(report) -> None:
    for s in report.stages:
        _emit(f"stage_{s.stage}", s.passed)
        if s.witness is not None:
            _emit(f"witness_{s.stage}", s.witness)


def cmd_stability(doc: ModelDocument, args) -> int:
    if args.numeric:
        strategies = [doc.strategy(s) for s in args.strategy]
        report = stab.check_simple_stability_numeric(doc.diagram, strategies)
        _emit("mode", "numeric")
    else:
        report = stab.check_simple_stability_graphical(doc.diagram)
        _emit("mode", "graphical")
    _emit_stages(report)
    _emit("simple_stability", report.overall)
    return 0 if report.overall else CHECK_FAILED


def cmd_seqrand(doc: ModelDocument, args) -> int:
    ok = stab.check_sequential_randomization(doc.diagram)
    _emit("sequential_randomization", ok)
    return 0 if ok else CHECK_FAILED


def cmd_seqirrel(doc: ModelDocument, args) -> int:
    strategies = [doc.strategy(s) for s in args.strategy]
    report = stab.check_sequential_irrelevance_numeric(doc.diagram, strategies)
    _emit_stages(report)
    for name in sorted(report.extended_positivity):
        _emit(f"extended_positivity_{name}", report.extended_positivity[name])
    _emit("sequential_irrelevance", report.overall)
    return 0 if report.overall else CHECK_FAILED


def cmd_positivity(doc: ModelDocument, args) -> int:
    report = stab.check_positivity(doc.diagram, doc.strategy(args.strategy))
    for key in ("simple", "extended", "parent_child", "general"):
        _emit(key, getattr(report, key))
    return 0 if report.simple else CHECK_FAILED


def cmd_graphsep(doc: ModelDocument, args) -> int:
    strategy = doc.strategy(args.strategy) if args.strategy is not None else None
    report = stab.check_graphsep(doc.diagram, strategy)
    for s in report.stages:
        _emit(f"i_{s.stage}", s.passed)
    _emit("graphsep", report.overall)
    return 0 if report.overall else CHECK_FAILED


def cmd_verify_general(doc: ModelDocument, args) -> int:
    report = grec.verify_general_conditions(doc.diagram, doc.strategy(args.strategy))
    for key in ("support_biconditional", "l_factors", "action_factors", "y_bridge", "positivity"):
        _emit(key, getattr(report, key))
    _emit("all", report.overall)
    if report.consequence_delta is not None:
        _emit("consequence_delta", report.consequence_delta)
    return 0 if report.overall else CHECK_FAILED


def cmd_admissible(doc: ModelDocument, args) -> int:
    diagram = doc.diagram
    strategy = doc.strategy(args.strategy) if args.strategy is not None else None
    if args.order is not None:
        seq = adm.compute_candidate_sequence(diagram, args.order.split(","), strategy)
    else:
        seq = adm.search_admissible_ordering(diagram, strategy)
        if seq is None:
            _emit("ordering", "none")
            return CHECK_FAILED
    if args.improve and seq.admissible:
        seq = adm.improve_sequence(diagram, seq.order, strategy)
    _emit("ordering", ",".join(seq.order))
    _emit("sequence", ";".join(",".join(s) for s in seq.sets))
    if args.order is not None:
        _emit("admissible", seq.admissible)
    return 0 if seq.admissible else CHECK_FAILED


def cmd_optimize(doc: ModelDocument, args) -> int:
    diagram = doc.diagram
    graphical = stab.check_simple_stability_graphical(diagram).overall
    if not graphical and not stab.check_graphsep(diagram).overall:
        print(
            "optimize refused: the model passes neither the stability check "
            "nor the mixed-diagram check, so backward induction is not licensed",
            file=sys.stderr,
        )
        return USAGE_ERROR
    k = _response_functional(doc, args)
    sense = "min" if args.min else "max"
    strategy, value = opt.optimal_strategy(ExactSource(diagram), k, sense)
    _emit("sense", sense)
    _emit("value", value)
    for action in diagram.actions:
        pol = strategy.policies[action]
        for config in sorted(pol.table):
            row = pol.table[config]
            chosen = diagram.states[action][row.index(1.0)]
            _emit(f"policy[{action}|{_join_list(config)}]", chosen)
    return 0


def cmd_simulate(doc: ModelDocument, args) -> int:
    dataset = dat.sample(doc.diagram, _regime(doc, args.regime), args.n, args.seed)
    Path(args.out).write_text(dataset.to_text(), encoding="utf-8")
    _emit("rows", dataset.n)
    _emit("seed", args.seed)
    _emit("out", args.out)
    return 0


def cmd_estimate(doc: ModelDocument, args) -> int:
    base = doc.diagram.base
    dataset = dat.Dataset.from_text(Path(args.data).read_text(encoding="utf-8"), base)
    source = dat.estimate_conditionals(dataset, base, args.alpha)
    if args.strategy is not None:
        k = _response_functional(doc, args)
        value = grec.g_recursion(source, doc.strategy(args.strategy), k)
        _emit("consequence", value)
        return 0
    # Each stage's ``given`` rows and support mask, in row-major order of
    # the past; labels are made here only, for the printed keys.
    masks = source.support()
    for i, lo, hi, _ in base.stages:
        rows = source.given(lo, hi)
        configs = itertools.product(*(base.states[v] for v in base.vars[:lo]))
        for config, row, seen in zip(
            configs, rows.reshape(-1, rows.shape[-1]).tolist(), masks[lo].reshape(-1)
        ):
            text = ",".join(format(p, ".12g") for p in row) if seen else "undefined"
            _emit(f"cond[{i}|{_join_list(config)}]", text)
    return 0


def _add_k_flags(sub):
    sub.add_argument("--target", help="response state whose probability is the consequence")
    sub.add_argument("--k", help="full response functional as state=value,...")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="regimes",
        description="Check identifiability conditions and evaluate dynamic "
        "treatment strategies on discrete influence diagrams.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--model", required=True, help="model document file")
        p.set_defaults(fn=fn)
        return p

    p = add("evaluate", cmd_evaluate, help="consequence by exact joint enumeration")
    p.add_argument("--strategy", help="strategy name (default: observational regime)")
    _add_k_flags(p)

    p = add("grec", cmd_grec, help="consequence by backward recursion")
    p.add_argument("--strategy", required=True)
    _add_k_flags(p)

    p = add("stability", cmd_stability, help="simple stability check")
    p.add_argument("--numeric", action="store_true")
    p.add_argument("--strategy", action="append", default=[])

    add("seqrand", cmd_seqrand, help="sequential randomization check")

    p = add("seqirrel", cmd_seqirrel, help="sequential irrelevance check")
    p.add_argument("--strategy", action="append", default=[])

    p = add("positivity", cmd_positivity, help="positivity variants for a strategy")
    p.add_argument("--strategy", required=True)

    p = add("graphsep", cmd_graphsep, help="mixed-diagram separation check")
    p.add_argument("--strategy")

    p = add("verify-general", cmd_verify_general, help="numeric licensing conditions")
    p.add_argument("--strategy", required=True)

    p = add("admissible", cmd_admissible, help="admissible ordering and sequence")
    p.add_argument("--order", help="comma-separated action ordering to check")
    p.add_argument("--improve", action="store_true")
    p.add_argument("--strategy")

    p = add("optimize", cmd_optimize, help="optimal strategy by backward induction")
    p.add_argument("--min", action="store_true")
    _add_k_flags(p)

    p = add("simulate", cmd_simulate, help="draw a dataset under a regime")
    p.add_argument("--regime", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = add("estimate", cmd_estimate, help="frequency-estimate recursion ingredients")
    p.add_argument("--data", required=True)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--strategy")
    _add_k_flags(p)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        doc = _load(args.model)
        return args.fn(doc, args)
    except (RegimesError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return INTERNAL_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
