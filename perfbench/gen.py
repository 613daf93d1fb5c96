"""Seeded input generator for the perfbench workloads.

Writes model documents, challenger strategies and a manifest for one
workload into a directory.  It runs in its own process and imports numpy
only, so neither input generation nor its memory counts against the
measured process, and nothing here changes when the package or its
tests change.  The generator logic is a copy, not an import, of the
test-suite builders for the same reason.

Every input is valid by construction:

* tables are strictly positive (normalized exponential draws, i.e. a
  symmetric unit Dirichlet), so every positivity condition holds;
* every action is an ancestor of the response under the interventional
  mechanism, so ``admissible`` never refuses a model;
* strategy policy parents lie inside the action's ``int-parents``, so
  ``graphsep --strategy`` accepts them.

Usage: python3 perfbench/gen.py --workload NAME --seed N --out DIR [--smoke]
"""

from __future__ import annotations

import argparse
import itertools
import json
import os

import numpy as np

B = ("0", "1")

# Stream tags keep the draws of different inputs independent.
TAG_LARGE, TAG_SWEEP, TAG_SMALL_CLI, TAG_LARGE_CLI, TAG_ORDER = range(1, 6)

LARGE_ACTIONS = 8
# 200k rows left the estimate within 0.016 of the exact consequence over
# 30 seeds, too close to the 0.02 gate; 400k rows halve the variance.
LARGE_ESTIMATE_ROWS = 400_000
# 50 models run three to four times each in a 30 s run, so one slow
# execution of a model does not set the tail; 100 ran about twice each.
SWEEP_MODELS = 50
SWEEP_CHALLENGERS = 100
SMALL_ACTIONS = (2, 3, 4)
SMALL_PER_SIZE = 20
LARGE_ACTIONS_CLI = (6, 7, 8)
LARGE_PER_SIZE = 4

SMALL_COMMANDS = (
    ("stability", ()),
    ("stability_numeric", ("stability", "--numeric", "--strategy", "s1")),
    ("seqrand", ()),
    ("seqirrel", ("seqirrel", "--strategy", "s1")),
    ("positivity", ("positivity", "--strategy", "s1")),
    ("graphsep", ("graphsep", "--strategy", "s1")),
    ("verify_general", ("verify-general", "--strategy", "s1")),
    ("admissible", ()),
    ("admissible_improve", ("admissible", "--improve")),
)
# A 6-8 action model can have up to 25 variables, past the package's
# 2^22-cell joint cap, so the large models get only the commands that never
# build a joint.
LARGE_COMMANDS = (
    ("stability", ()),
    ("seqrand", ()),
    ("graphsep", ()),
    ("admissible", ()),
    ("admissible_improve", ("admissible", "--improve")),
)


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng([k % 2**63 for k in key])


def _rows(gen: np.random.Generator, n_rows: int, width: int = 2) -> np.ndarray:
    draws = gen.standard_exponential((n_rows, width))
    return draws / draws.sum(axis=1, keepdims=True)


def _configs(n_parents: int):
    return (",".join(c) if c else "-" for c in itertools.product(B, repeat=n_parents))


def _join(items) -> str:
    return ",".join(items) if items else "-"


class Model:
    """A binary influence diagram being assembled as document text."""

    def __init__(self, kinds: list[tuple[str, str]]):
        self.kinds = dict(kinds)
        self.order = [name for name, _ in kinds]
        self.parents: dict[str, list[str]] = {v: [] for v in self.order}
        self.strategies: list[tuple[str, list]] = []

    def add_edge(self, u: str, v: str) -> None:
        if u not in self.parents[v]:
            self.parents[v].append(u)

    def sorted_parents(self, v: str) -> list[str]:
        return sorted(self.parents[v], key=self.order.index)

    def int_parents(self, action: str) -> list[str]:
        # The package default: every non-hidden dag parent.
        return [p for p in self.sorted_parents(action) if self.kinds[p] != "hid"]

    def reaches_response(self, action: str) -> bool:
        """Directed path to the response with actions on their int-parents."""
        children = {v: [] for v in self.order}
        for v in self.order:
            ps = self.int_parents(v) if self.kinds[v] == "act" else self.parents[v]
            for p in ps:
                children[p].append(v)
        seen, stack = {action}, [action]
        while stack:
            for c in children[stack.pop()]:
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        return self.order[-1] in seen

    def text(self, gen: np.random.Generator) -> str:
        out = [f"var {v} kind={self.kinds[v]} states=0,1" for v in self.order]
        out.append("order " + " ".join(self.order))
        for v in self.order:
            out.extend(f"edge {p} {v}" for p in self.sorted_parents(v))
            if self.kinds[v] == "act":
                out.append(f"edge sigma {v}")
        for v in self.order:
            ps = self.sorted_parents(v)
            out.append(f"cpt {v} | {_join(ps)}")
            rows = _rows(gen, 2 ** len(ps))
            for config, row in zip(_configs(len(ps)), rows.tolist()):
                out.append(f"row {config} : {row[0]!r} {row[1]!r}")
        for name, policies in self.strategies:
            out.append(f"strategy {name}")
            for action, parents, rows in policies:
                out.append(f"assign {action} | {_join(parents)}")
                for config, row in zip(_configs(len(parents)), rows):
                    out.append(_policy_row(config, row))
        return "\n".join(out) + "\n"


def _policy_row(config: str, row) -> str:
    if isinstance(row, str):
        return f"row {config} : {row}"
    return f"prow {config} : {row[0]!r} {row[1]!r}"


def _random_policy(gen, candidates: list[str], hard: bool | None):
    """Random parents among ``candidates``; rows hard, soft or a coin flip each."""
    parents = [p for p in candidates if gen.random() < 0.5]
    rows = []
    for _ in range(2 ** len(parents)):
        is_hard = gen.random() < 0.5 if hard is None else hard
        if is_hard:
            rows.append(B[int(gen.integers(2))])
        else:
            rows.append(tuple(_rows(gen, 1)[0].tolist()))
    return parents, rows


def complete_model(n_actions: int) -> Model:
    """Fully connected (L1, A1, ..., LN, AN, Y): stable by construction."""
    names = []
    for i in range(1, n_actions + 1):
        names += [(f"L{i}", "obs"), (f"A{i}", "act")]
    names.append(("Y", "resp"))
    model = Model(names)
    for j, v in enumerate(model.order):
        for u in model.order[:j]:
            model.add_edge(u, v)
    return model


def write_large(out: str, seed: int, smoke: bool) -> dict:
    """One complete model with named strategies: stat, dyn, mix and four
    random ones.  r1-r3 have soft rows only, so the recursion visits every
    history, and r4 hard rows only, so it prunes; the recursion's work per
    pass then does not depend on the seed, and the median latency falls
    among the full-tree recursions rather than between two query kinds."""
    n = 3 if smoke else LARGE_ACTIONS
    gen = _rng(TAG_LARGE, seed)
    model = complete_model(n)
    actions = [f"A{i}" for i in range(1, n + 1)]
    model.strategies.append(("stat", [(a, [], ["1"]) for a in actions]))
    model.strategies.append(
        ("dyn", [(f"A{i}", [f"L{i}"], ["0", "1"]) for i in range(1, n + 1)])
    )
    model.strategies.append(
        ("mix", [(a, [f"L{i}"], [tuple(r) for r in _rows(gen, 2).tolist()])
                 for i, a in enumerate(actions, start=1)])
    )
    for name, hard in (("r1", False), ("r2", False), ("r3", False), ("r4", True)):
        policies = []
        for a in actions:
            parents, rows = _random_policy(gen, model.int_parents(a), hard)
            policies.append((a, parents, rows))
        model.strategies.append((name, policies))
    path = os.path.join(out, "large.id")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model.text(gen))
    return {
        "model": "large.id",
        "strategies": [name for name, _ in model.strategies],
        "stability_strategies": ["stat", "dyn", "mix"],
        "estimate_strategy": "mix",
        "estimate_rows": LARGE_ESTIMATE_ROWS,
        "sample_seed": seed % 2**63,
    }


def write_sweep(out: str, seed: int, smoke: bool) -> dict:
    """Two-action complete models, each with random challengers drawn as in
    the optimizer acceptance test: random parents, rows hard or soft."""
    gen = _rng(TAG_SWEEP, seed)
    models = []
    for m in range(3 if smoke else SWEEP_MODELS):
        model = complete_model(2)
        name = f"m{m:03d}"
        with open(os.path.join(out, name + ".id"), "w", encoding="utf-8") as fh:
            fh.write(model.text(gen))
        challengers = []
        for _ in range(SWEEP_CHALLENGERS):
            challengers.append({
                a: list(_random_policy(gen, model.int_parents(a), None))
                for a in ("A1", "A2")
            })
        with open(os.path.join(out, name + ".json"), "w", encoding="utf-8") as fh:
            json.dump(challengers, fh)
        models.append(name)
    return {"models": models}


def confounded_small(index: int, n_actions: int) -> Model:
    """Random confounded diagram in the style of the test suite's
    ``random_extended_id``: per stage an optional hidden variable, an
    optional covariate and an action; hidden variables may drive anything
    after them, actions included."""
    gen = _rng(TAG_SMALL_CLI, index)
    kinds = []
    for i in range(1, n_actions + 1):
        if gen.random() < 0.8:
            kinds.append((f"U{i}", "hid"))
        if gen.random() < 0.8:
            kinds.append((f"L{i}", "obs"))
        kinds.append((f"A{i}", "act"))
    kinds.append(("Y", "resp"))
    model = Model(kinds)
    for j, v in enumerate(model.order):
        for u in model.order[:j]:
            if gen.random() < 0.5:
                model.add_edge(u, v)
    _connect_actions(model)
    policies = []
    for a in (v for v in model.order if model.kinds[v] == "act"):
        parents, rows = _random_policy(gen, model.int_parents(a), None)
        policies.append((a, parents, rows))
    model.strategies.append(("s1", policies))
    return model


def confounded_large(index: int, n_actions: int) -> Model:
    """Sparse confounded diagram with 6-8 actions.  Each variable draws at
    most a few parents from the recent past, and each action sees the one
    before it, so only the declared action ordering is reachability
    consistent and the ordering search does a bounded amount of work."""
    gen = _rng(TAG_LARGE_CLI, index)
    kinds = []
    for i in range(1, n_actions + 1):
        if gen.random() < 0.6:
            kinds.append((f"U{i}", "hid"))
        if gen.random() < 0.9:
            kinds.append((f"L{i}", "obs"))
        kinds.append((f"A{i}", "act"))
    kinds.append(("Y", "resp"))
    model = Model(kinds)
    previous_action = None
    for j, v in enumerate(model.order):
        recent = model.order[max(0, j - 6) : j]
        for u in recent:
            if gen.random() < 0.35 and len(model.parents[v]) < 3:
                model.add_edge(u, v)
        if model.kinds[v] == "act":
            if previous_action is not None:
                model.add_edge(previous_action, v)
            previous_action = v
    _connect_actions(model)
    return model


def _connect_actions(model: Model) -> None:
    """Give every action an interventional path to the response."""
    response = model.order[-1]
    for a in (v for v in model.order if model.kinds[v] == "act"):
        if not model.reaches_response(a):
            model.add_edge(a, response)


def identify_ops(out: str, smoke: bool) -> list:
    """Write the fixed identify_cli model set; one op per model and command.

    The models come from their index alone, never from the seed, so the
    stored output digests cover every run.  Smoke runs take the first
    small model of each size and the first large one."""
    per_small = 1 if smoke else SMALL_PER_SIZE
    per_large = 1 if smoke else LARGE_PER_SIZE
    ops = []
    for k, n_actions in enumerate(SMALL_ACTIONS):
        for p in range(per_small):
            index = k + len(SMALL_ACTIONS) * p
            ops += _write_cli_model(out, f"small{index:03d}", index,
                                    confounded_small(index, n_actions), SMALL_COMMANDS, False)
    for k, n_actions in enumerate(LARGE_ACTIONS_CLI[:1] if smoke else LARGE_ACTIONS_CLI):
        for p in range(per_large):
            index = k + len(LARGE_ACTIONS_CLI) * p
            ops += _write_cli_model(out, f"large{index:03d}", index,
                                    confounded_large(index, n_actions), LARGE_COMMANDS, True)
    return ops


def _write_cli_model(out, name, index, model, commands, large) -> list:
    gen = _rng(TAG_LARGE_CLI if large else TAG_SMALL_CLI, 10**6, index)
    with open(os.path.join(out, name + ".id"), "w", encoding="utf-8") as fh:
        fh.write(model.text(gen))
    ops = []
    for label, argv in commands:
        argv = list(argv or (label,))
        ops.append({
            "key": f"{name}:{label}",
            "command": label,
            "large": large,
            "argv": [argv[0], "--model", name + ".id", *argv[1:]],
        })
    return ops


def write_identify(out: str, seed: int, smoke: bool) -> dict:
    """The fixed model set, every command in an order drawn from the seed.
    A seed-drawn subset would move the slowest commands, and with them the
    tail latency, from run to run."""
    ops = identify_ops(out, smoke)
    order = _rng(TAG_ORDER, seed).permutation(len(ops)).tolist()
    return {"ops": [ops[i] for i in order]}


WRITERS = {
    "large_model": write_large,
    "strategy_sweep": write_sweep,
    "identify_cli": write_identify,
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WRITERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    manifest = WRITERS[args.workload](args.out, args.seed, args.smoke)
    manifest.update(workload=args.workload, seed=args.seed, smoke=args.smoke)
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)


if __name__ == "__main__":
    main()
