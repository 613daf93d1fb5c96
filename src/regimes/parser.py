"""Line-oriented model document format.

Tokens are space separated; ``#`` starts a comment; ``-`` stands for an
empty list.  A document declares variables, the total order, edges (with
``sigma`` as the regime node, parent of actions only), optional per-action
parent annotations, one table per variable, and named strategies:

    var L2 kind=obs states=0,1
    order U1 A1 U2 L2 A2 Y
    edge U1 A1
    obs-parents A1 U1
    int-parents A1 -
    cpt L2 | U1,A1,U2
    row 0,0,0 : 0.2 0.8
    strategy e2
    assign A2 | A1
    row 0 : 1
    prow 1 : 0.25 0.75

``row`` inside a strategy names the chosen action state; ``prow`` gives a
full distribution.  Parsing validates everything the model itself would,
reporting the offending line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, ParseError, PolicyError
from .model import (
    KINDS, MAX_JOINT_CELLS, SIGMA, Cpt, InfluenceDiagram, Policy, Strategy, Table, Variable,
    row_problem,
)


@dataclass
class ModelDocument:
    """Parsed and validated model text: a diagram plus named strategies."""

    diagram: InfluenceDiagram
    strategies: dict[str, Strategy]

    def strategy(self, name: str) -> Strategy:
        try:
            return self.strategies[name]
        except KeyError:
            raise PolicyError(
                f"unknown strategy {name!r}; declared: {sorted(self.strategies) or 'none'}"
            ) from None


def _split_list(token: str) -> tuple[str, ...]:
    if token == "-":
        return ()
    return tuple(token.split(","))


def _join_list(items) -> str:
    items = tuple(items)
    return ",".join(items) if items else "-"


class _Block:
    """An open ``cpt`` or ``assign`` block: rows are written straight into
    the array, ``filled`` marks the configurations seen so far."""

    def __init__(self, name: str, parents: tuple[str, ...], variables, lineno: int):
        self.name, self.parents, self.lineno = name, parents, lineno
        self.states = tuple(variables[p].states for p in parents)
        self.width = len(variables[name].states)
        shape = tuple(map(len, self.states))
        # A table never has more cells than the joint, whose cap applies here.
        if math.prod(shape) * self.width > MAX_JOINT_CELLS:
            raise ParseError(f"table for {name} exceeds {MAX_JOINT_CELLS} cells", line=lineno)
        self.array = np.zeros(shape + (self.width,))
        self.filled = np.zeros(shape, dtype=bool)

    def labels(self, mask) -> list[tuple[str, ...]]:
        return [tuple(s[j] for s, j in zip(self.states, idx)) for idx in np.argwhere(mask)]

    def table(self):
        """The dense table, or the label rows given so far when some are missing."""
        if self.filled.all():
            return Table(self.states, self.array)
        return dict(zip(self.labels(self.filled), map(tuple, self.array[self.filled].tolist())))


class _Parser:
    def __init__(self, text: str):
        self.raw = text.splitlines()
        self.variables: dict[str, Variable] = {}
        self.var_lines: dict[str, int] = {}
        self.order: tuple[str, ...] | None = None
        self.edges: list[tuple[str, str]] = []
        self.obs_parents: dict[str, tuple[str, ...]] = {}
        self.int_parents: dict[str, tuple[str, ...]] = {}
        self.cpts: dict[str, Cpt] = {}
        self.strategies: dict[str, dict[str, Policy]] = {}
        # open blocks
        self._cpt: _Block | None = None
        self._strategy: str | None = None
        self._assign: _Block | None = None

    def fail(self, line: int, message: str):
        raise ParseError(message, line=line)

    def parse(self) -> ModelDocument:
        for lineno, raw in enumerate(self.raw, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            tokens = text.split()
            handler = getattr(self, "_on_" + tokens[0].replace("-", "_"), None)
            if handler is None:
                self.fail(lineno, f"unknown directive {tokens[0]!r}")
            handler(tokens, lineno)
        self._close_cpt()
        self._close_assign()
        return self._build()

    # ------------------------------------------------------------------
    # directives

    def _on_var(self, tokens, lineno):
        if len(tokens) != 4:
            self.fail(lineno, "expected: var <name> kind=<...> states=<...>")
        name = tokens[1]
        opts = {}
        for t in tokens[2:]:
            if "=" not in t:
                self.fail(lineno, f"expected key=value, got {t!r}")
            key, val = t.split("=", 1)
            opts[key] = val
        if set(opts) != {"kind", "states"}:
            self.fail(lineno, "var takes exactly kind= and states=")
        if opts["kind"] not in KINDS:
            self.fail(lineno, f"unknown kind {opts['kind']!r}")
        if name in self.var_lines:
            self.fail(lineno, f"variable {name} already declared on line {self.var_lines[name]}")
        try:
            var = Variable(name, opts["kind"], _split_list(opts["states"]))
        except ModelError as exc:
            self.fail(lineno, str(exc))
        self.variables[name] = var
        self.var_lines[name] = lineno

    def _on_order(self, tokens, lineno):
        if self.order is not None:
            self.fail(lineno, "duplicate order line")
        self.order = tuple(tokens[1:])
        declared = set(self.var_lines)
        if set(self.order) != declared or len(self.order) != len(declared):
            self.fail(lineno, "order must list every declared variable exactly once")
        self._order_line = lineno

    def _on_edge(self, tokens, lineno):
        if len(tokens) != 3:
            self.fail(lineno, "expected: edge <parent> <child>")
        u, v = tokens[1], tokens[2]
        for w in (u, v):
            if w != SIGMA and w not in self.var_lines:
                self.fail(lineno, f"unknown variable {w!r}")
        if v == SIGMA:
            self.fail(lineno, f"{SIGMA} cannot be a child")
        if u == SIGMA and self.variables[v].kind != "act":
            self.fail(lineno, f"arrow {SIGMA} -> {v} enters a non-action")
        if (u, v) in self.edges:
            self.fail(lineno, f"duplicate edge {u} -> {v}")
        self.edges.append((u, v))

    def _parents_line(self, tokens, lineno, target: dict):
        if len(tokens) != 3:
            self.fail(lineno, "expected: <directive> <action> <p1,p2,...|->")
        action = tokens[1]
        if action not in self.var_lines or self.variables[action].kind != "act":
            self.fail(lineno, f"{action!r} is not a declared action")
        if action in target:
            self.fail(lineno, f"duplicate parent annotation for {action}")
        ps = _split_list(tokens[2])
        for p in ps:
            if p not in self.var_lines:
                self.fail(lineno, f"unknown variable {p!r}")
        target[action] = ps

    def _on_obs_parents(self, tokens, lineno):
        self._parents_line(tokens, lineno, self.obs_parents)

    def _on_int_parents(self, tokens, lineno):
        self._parents_line(tokens, lineno, self.int_parents)

    def _on_cpt(self, tokens, lineno):
        self._close_cpt()
        self._close_assign()
        if len(tokens) != 4 or tokens[2] != "|":
            self.fail(lineno, "expected: cpt <var> | <p1,p2,...|->")
        child = tokens[1]
        if child not in self.var_lines:
            self.fail(lineno, f"unknown variable {child!r}")
        if child in self.cpts:
            self.fail(lineno, f"duplicate cpt for {child}")
        parents = _split_list(tokens[3])
        for p in parents:
            if p not in self.var_lines:
                self.fail(lineno, f"unknown variable {p!r}")
        self._cpt = _Block(child, parents, self.variables, lineno)

    def _on_strategy(self, tokens, lineno):
        self._close_cpt()
        self._close_assign()
        if len(tokens) != 2:
            self.fail(lineno, "expected: strategy <name>")
        name = tokens[1]
        if name in self.strategies:
            self.fail(lineno, f"duplicate strategy {name!r}")
        self.strategies[name] = {}
        self._strategy = name

    def _on_assign(self, tokens, lineno):
        self._close_cpt()
        self._close_assign()
        if self._strategy is None:
            self.fail(lineno, "assign outside a strategy block")
        if len(tokens) != 4 or tokens[2] != "|":
            self.fail(lineno, "expected: assign <action> | <p1,p2,...|->")
        action = tokens[1]
        if action not in self.var_lines or self.variables[action].kind != "act":
            self.fail(lineno, f"{action!r} is not a declared action")
        if action in self.strategies[self._strategy]:
            self.fail(lineno, f"duplicate assign for {action} in strategy {self._strategy}")
        parents = _split_list(tokens[3])
        for p in parents:
            if p not in self.var_lines:
                self.fail(lineno, f"unknown variable {p!r}")
        self._assign = _Block(action, parents, self.variables, lineno)

    def _row_index(self, tokens, lineno, block: _Block, duplicate: str):
        """State indices of a row's parent configuration in ``block``."""
        if len(tokens) < 3 or tokens[2] != ":":
            self.fail(lineno, "expected: row <s1,s2,...|-> : <values>")
        key = _split_list(tokens[1])
        if len(key) != len(block.parents):
            self.fail(lineno, f"row names {len(key)} parent states, want {len(block.parents)}")
        for p, s, states in zip(block.parents, key, block.states):
            if s not in states:
                self.fail(lineno, f"{s!r} is not a state of {p}")
        idx = tuple(states.index(s) for s, states in zip(key, block.states))
        if block.filled[idx]:
            self.fail(lineno, f"duplicate row {key} {duplicate}")
        block.filled[idx] = True
        return idx

    def _probs(self, tokens, lineno, width):
        try:
            probs = tuple(float(t) for t in tokens)
        except ValueError:
            self.fail(lineno, f"expected probabilities, got {tokens}")
        problem = row_problem(probs, width)
        if problem:
            self.fail(lineno, f"row {problem}")
        return probs

    def _on_row(self, tokens, lineno):
        if self._cpt is not None:
            block = self._cpt
            idx = self._row_index(tokens, lineno, block, f"in cpt for {block.name}")
            block.array[idx] = self._probs(tokens[3:], lineno, block.width)
        elif self._assign is not None:
            block = self._assign
            idx = self._row_index(tokens, lineno, block, f"for {block.name}")
            if len(tokens) != 4:
                self.fail(lineno, "deterministic row takes a single action state")
            states = self.variables[block.name].states
            if tokens[3] not in states:
                self.fail(lineno, f"{tokens[3]!r} is not a state of {block.name}")
            block.array[idx + (states.index(tokens[3]),)] = 1.0
        else:
            self.fail(lineno, "row outside a cpt or assign block")

    def _on_prow(self, tokens, lineno):
        if self._assign is None:
            self.fail(lineno, "prow outside an assign block")
        block = self._assign
        idx = self._row_index(tokens, lineno, block, f"for {block.name}")
        block.array[idx] = self._probs(tokens[3:], lineno, block.width)

    # ------------------------------------------------------------------
    # assembly

    def _close_cpt(self):
        block, self._cpt = self._cpt, None
        if block is None:
            return
        if not block.filled.all():
            missing = block.labels(~block.filled)[:3]
            self.fail(block.lineno, f"cpt for {block.name}: missing rows {missing}, unknown rows []")
        self.cpts[block.name] = Cpt(block.name, block.parents, block.table())

    def _close_assign(self):
        block, self._assign = self._assign, None
        if block is not None:
            self.strategies[self._strategy][block.name] = Policy(block.parents, block.table())

    def _build(self) -> ModelDocument:
        if not self.variables:
            raise ParseError("no variables declared")
        if self.order is None:
            raise ParseError("missing order line")
        variables = [self.variables[v] for v in self.order]
        try:
            diagram = InfluenceDiagram(
                variables, self.edges, self.cpts,
                self.obs_parents or None, self.int_parents or None,
            )
        except ModelError as exc:
            raise ParseError(str(exc), line=getattr(self, "_order_line", None)) from None
        strategies = {}
        for name, policies in self.strategies.items():
            strategy = Strategy(name, dict(policies))
            try:
                diagram.validate_strategy(strategy)
            except PolicyError as exc:
                raise ParseError(f"strategy {name!r}: {exc}") from None
            strategies[name] = strategy
        return ModelDocument(diagram, strategies)


def parse_model(text: str) -> ModelDocument:
    """Parse and fully validate a model document."""
    return _Parser(text).parse()


def _format_row(config, probs, states) -> str:
    probs = tuple(probs)
    # The ``row`` shorthand parses back to exact ones and zeros only.
    if probs.count(1.0) == 1 and probs.count(0.0) == len(probs) - 1:
        return f"row {_join_list(config)} : {states[probs.index(1.0)]}"
    return f"prow {_join_list(config)} : " + " ".join(repr(float(p)) for p in probs)


def format_model(doc: ModelDocument) -> str:
    """Canonical text for a document; parsing it back gives an equal one."""
    d = doc.diagram
    out = []
    for v in d.variables:
        out.append(f"var {v.name} kind={v.kind} states={_join_list(v.states)}")
    out.append("order " + " ".join(d.order))
    for u, v in sorted(
        d.dag.edges, key=lambda e: (d.index.get(e[0], -1), d.index.get(e[1], -1))
    ):
        out.append(f"edge {u} {v}")
    for a in d.actions:
        out.append(f"obs-parents {a} {_join_list(d.obs_parents[a])}")
        out.append(f"int-parents {a} {_join_list(d.int_parents[a])}")
    for v in d.order:
        cpt = d.cpts[v]
        out.append(f"cpt {v} | {_join_list(cpt.parents)}")
        for config in sorted(cpt.table):
            probs = cpt.table[config]
            out.append(
                f"row {_join_list(config)} : " + " ".join(repr(float(p)) for p in probs)
            )
    for name, strategy in doc.strategies.items():
        out.append(f"strategy {name}")
        for a in d.actions:
            pol = strategy.policies[a]
            out.append(f"assign {a} | {_join_list(pol.parents)}")
            for config in sorted(pol.table):
                out.append(_format_row(config, pol.table[config], d.states[a]))
    return "\n".join(out) + "\n"
