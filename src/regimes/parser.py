"""Line-oriented model document format.

Tokens are separated by runs of whitespace; ``#`` starts a comment;
``-`` stands for an empty list.  A document declares variables, the total
order, edges (with ``sigma`` as the regime node, parent of actions only),
optional per-action parent annotations, one table per variable, and named
strategies:

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

A row key is the block's parent states joined by commas, in the header's
parent order; ``-`` is a key only in a table without parents.  ``row``
inside a strategy names the chosen action state; ``prow`` gives a full
distribution.  ``cpt`` and ``assign`` blocks are read by one code path,
and a block missing rows is reported at its header line.  Parsing
validates everything the model itself would, reporting the offending
line: a strategy the diagram rejects is reported at its ``strategy``
line, and only a document without variables or an order line has none.
When a document has several errors, the first in document order is the
one reported.

A run of row lines is read by one loop: each row's key is looked up in
its block's dict of row-key text and its values become floats as read.
The run's rows wait, with their line numbers, in one buffer per row width
for the whole document; the model's distribution check, ``row_problems``,
runs once per width on that buffer before it would hold more than
``RUN_ROWS`` rows, at the end of the text, and before any other error is
reported; the earliest bad line across widths is the one reported.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, ParseError, PolicyError
from .model import (
    KINDS, MAX_JOINT_CELLS, SIGMA, Cpt, InfluenceDiagram, Policy, Strategy, Table, Variable,
    row_problems,
)

_ROW_WORDS = ("row", "prow")
LINE_BLOCK = 2**16  # characters split into lines at a time
RUN_ROWS = 4096  # rows read or held unchecked at most; bounds the floats held


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


def _lines(text: str):
    """The lines of ``text`` as ``text.splitlines()`` gives them, split a
    block of about ``LINE_BLOCK`` characters at a time: each block ends
    just after a newline, so no line (nor a ``\\r\\n`` pair) is cut, and the
    text is never held a second time as one list of lines."""
    start = 0
    while start < len(text):
        stop = text.find("\n", start + LINE_BLOCK) + 1 or len(text)
        yield from text[start:stop].splitlines()
        start = stop


def _split_list(token: str) -> tuple[str, ...]:
    if token == "-":
        return ()
    return tuple(token.split(","))


def _join_list(items) -> str:
    items = tuple(items)
    return ",".join(items) if items else "-"


def _row_keys(states: tuple[tuple[str, ...], ...]) -> dict[str, int]:
    """Row-key text of every parent configuration -> its row-major index."""
    if not states:
        return {"-": 0}
    keys = list(states[0])
    for axis in states[1:]:
        tails = ["," + s for s in axis]
        keys = [key + tail for key in keys for tail in tails]
    return dict(zip(keys, range(len(keys))))


class _Block:
    """An open ``cpt`` block (``strategy`` is None) or ``assign`` block:
    ``keys`` maps row-key text to the row-major index of its parent
    configuration, ``seen`` marks the configurations given so far,
    ``array`` (None until the first rows are stored) holds the table, and
    ``onehot`` (assign blocks only) maps an action state to its
    deterministic row."""

    def __init__(self, name: str, parents: tuple[str, ...], states, child, lineno: int, strategy):
        self.name, self.parents, self.lineno, self.strategy = name, parents, lineno, strategy
        self.what = f"assign for {name} in strategy {strategy}" if strategy else f"cpt for {name}"
        self.states = states
        self.width = len(child)
        self.shape = tuple(map(len, states)) + (self.width,)
        self.array = None
        self.keys = _row_keys(states)
        self.seen = bytearray(len(self.keys))
        self.onehot = None if strategy is None else {
            s: tuple(float(j == k) for k in range(self.width)) for j, s in enumerate(child)
        }

    def rows(self) -> np.ndarray:
        """The table as one row per parent configuration, zero-filled on
        first use."""
        if self.array is None:
            self.array = np.zeros(self.shape)
        return self.array.reshape(-1, self.width)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.variables: dict[str, Variable] = {}
        self.var_lines: dict[str, int] = {}
        self.order: tuple[str, ...] | None = None
        self.edges: list[tuple[str, str]] = []
        self.obs_parents: dict[str, tuple[str, ...]] = {}
        self.int_parents: dict[str, tuple[str, ...]] = {}
        self.cpts: dict[str, Cpt] = {}
        self.strategies: dict[str, dict[str, Policy]] = {}
        self.strategy_lines: dict[str, int] = {}
        self._strategy: str | None = None
        self._block: _Block | None = None
        # Stored rows not yet checked: width -> (row arrays, line numbers).
        self._unchecked: dict[int, tuple[list[np.ndarray], list[int]]] = {}
        self._held = 0

    def fail(self, line: int, message: str):
        """Raise ``message`` at ``line``, unless a stored row before it is bad."""
        self._check_rows()
        raise ParseError(message, line=line)

    def parse(self) -> ModelDocument:
        lines = enumerate(_lines(self.text), start=1)
        for lineno, raw in lines:
            tokens = (raw.split("#", 1)[0] if "#" in raw else raw).split()
            if tokens and tokens[0] in _ROW_WORDS:
                lineno, tokens = self._read_rows(lineno, tokens, lines)
            if not tokens:
                continue
            handler = getattr(self, "_on_" + tokens[0].replace("-", "_"), None)
            if handler is None:
                self.fail(lineno, f"unknown directive {tokens[0]!r}")
            handler(tokens, lineno)
        self._close()
        self._check_rows()
        return self._build()

    def _known(self, names, lineno):
        for name in names:
            if name not in self.var_lines:
                self.fail(lineno, f"unknown variable {name!r}")

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
        self._known([w for w in (u, v) if w != SIGMA], lineno)
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
        self._known(ps, lineno)
        target[action] = ps

    def _on_obs_parents(self, tokens, lineno):
        self._parents_line(tokens, lineno, self.obs_parents)

    def _on_int_parents(self, tokens, lineno):
        self._parents_line(tokens, lineno, self.int_parents)

    def _on_cpt(self, tokens, lineno):
        self._close()
        if len(tokens) != 4 or tokens[2] != "|":
            self.fail(lineno, "expected: cpt <var> | <p1,p2,...|->")
        child = tokens[1]
        self._known((child,), lineno)
        if child in self.cpts:
            self.fail(lineno, f"duplicate cpt for {child}")
        self._open(tokens, lineno, None)

    def _on_strategy(self, tokens, lineno):
        self._close()
        if len(tokens) != 2:
            self.fail(lineno, "expected: strategy <name>")
        name = tokens[1]
        if name == "obs":
            self.fail(lineno, "strategy name 'obs' is reserved for the observational regime")
        if name in self.strategies:
            self.fail(lineno, f"duplicate strategy {name!r}")
        self.strategies[name] = {}
        self.strategy_lines[name] = lineno
        self._strategy = name

    def _on_assign(self, tokens, lineno):
        self._close()
        if self._strategy is None:
            self.fail(lineno, "assign outside a strategy block")
        if len(tokens) != 4 or tokens[2] != "|":
            self.fail(lineno, "expected: assign <action> | <p1,p2,...|->")
        action = tokens[1]
        if action not in self.var_lines or self.variables[action].kind != "act":
            self.fail(lineno, f"{action!r} is not a declared action")
        if action in self.strategies[self._strategy]:
            self.fail(lineno, f"duplicate assign for {action} in strategy {self._strategy}")
        self._open(tokens, lineno, self._strategy)

    def _open(self, tokens, lineno, strategy):
        name, parents = tokens[1], _split_list(tokens[3])
        self._known(parents, lineno)
        states = tuple(self.variables[p].states for p in parents)
        child = self.variables[name].states
        # A table never has more cells than the joint, whose cap applies here.
        if math.prod(map(len, states)) * len(child) > MAX_JOINT_CELLS:
            self.fail(lineno, f"table for {name} exceeds {MAX_JOINT_CELLS} cells")
        self._block = _Block(name, parents, states, child, lineno, strategy)

    def _read_rows(self, lineno, tokens, lines):
        """Read the run of ``row``/``prow`` lines that starts with ``tokens``
        into the open block, taking further lines from ``lines``; return
        the first line after the run as ``(lineno, tokens)``, with no
        tokens at the end of the text.

        A row whose key the block's dict misses or has seen, or whose
        values are not floats of the block's width, stops the run; its
        error is worded by ``_row_error``, which reports it only after the
        rows before it pass their distribution check in ``_check_rows``."""
        block = self._block
        if block is None:
            self._row_error(tokens, lineno)
        keys, seen, width, onehot = block.keys, block.seen, block.width, block.onehot
        # ``row`` gives probabilities in a cpt block, ``prow`` in an assign block.
        word = "row" if onehot is None else "prow"
        at, rows, values = [], [], []
        while tokens and tokens[0] in _ROW_WORDS:
            if len(tokens) < 3 or tokens[2] != ":":
                break
            i = keys.get(tokens[1])
            if i is None or seen[i]:
                break
            if tokens[0] == word:
                if len(tokens) != width + 3:
                    break
                try:
                    values.extend(map(float, tokens[3:]))
                except ValueError:
                    break
            elif onehot is not None and len(tokens) == 4 and tokens[3] in onehot:
                values.extend(onehot[tokens[3]])
            else:
                break
            seen[i] = 1
            rows.append(i)
            at.append(lineno)
            if len(rows) == RUN_ROWS:
                self._store(block, at, rows, values)
                at, rows, values = [], [], []
            tokens = []
            for lineno, raw in lines:
                tokens = (raw.split("#", 1)[0] if "#" in raw else raw).split()
                if tokens:
                    break
        del values[len(rows) * width :]  # a float error may have left part of a row
        self._store(block, at, rows, values)
        if tokens and tokens[0] in _ROW_WORDS:
            self._row_error(tokens, lineno)
        return lineno, tokens

    def _store(self, block, at, rows, values):
        """Write the run's rows into the block and hold them, with their
        line numbers, for ``_check_rows``.  A first run that gives every
        row in row-major order becomes the block's array as it is."""
        if not rows:
            return
        probs = np.array(values).reshape(len(rows), block.width)
        if block.array is None and len(rows) == len(block.seen) and rows == list(range(len(rows))):
            block.array = probs.reshape(block.shape)
        else:
            block.rows()[rows] = probs
        if self._held + len(rows) > RUN_ROWS:
            self._check_rows()
        arrays, lines = self._unchecked.setdefault(block.width, ([], []))
        arrays.append(probs)
        lines += at
        self._held += len(rows)

    def _check_rows(self):
        """Check the held rows with ``row_problems``, once per width, and
        report the earliest line that fails."""
        unchecked, self._unchecked, self._held = self._unchecked, {}, 0
        first = None
        for arrays, lines in unchecked.values():
            found = row_problems(np.concatenate(arrays) if len(arrays) > 1 else arrays[0])
            if found and (first is None or lines[found[0]] < first[0]):
                first = lines[found[0]], f"row {found[1]}"
        if first:
            raise ParseError(first[1], line=first[0])

    def _row_error(self, tokens, lineno):
        """Report why a row line cannot be read: no open block, or a key, a
        value or a width the run reader refused.  A row of the block's
        width whose values parse was read, and ``_check_rows`` checks it."""
        block = self._block
        if tokens[0] == "prow" and (block is None or block.strategy is None):
            self.fail(lineno, "prow outside an assign block")
        if block is None:
            self.fail(lineno, "row outside a cpt or assign block")
        if len(tokens) < 3 or tokens[2] != ":":
            self.fail(lineno, "expected: row <s1,s2,...|-> : <values>")
        # ``-`` is the empty configuration only where there are no parents;
        # elsewhere it may be a state label.
        key = () if tokens[1] == "-" and not block.parents else tuple(tokens[1].split(","))
        if len(key) != len(block.parents):
            self.fail(lineno, f"row names {len(key)} parent states, want {len(block.parents)}")
        for p, s, states in zip(block.parents, key, block.states):
            if s not in states:
                self.fail(lineno, f"{s!r} is not a state of {p}")
        if block.seen[block.keys[tokens[1]]]:
            where = f"in {block.what}" if block.strategy is None else f"for {block.name}"
            self.fail(lineno, f"duplicate row {key} {where}")
        if tokens[0] == "row" and block.strategy is not None:
            if len(tokens) != 4:
                self.fail(lineno, "deterministic row takes a single action state")
            self.fail(lineno, f"{tokens[3]!r} is not a state of {block.name}")
        try:
            [float(t) for t in tokens[3:]]
        except ValueError:
            self.fail(lineno, f"expected probabilities, got {tokens[3:]}")
        self.fail(lineno, f"row has {len(tokens) - 3} entries, want {block.width}")

    # ------------------------------------------------------------------
    # assembly

    def _close(self):
        """Store the open block, or report its first missing rows at its header."""
        block, self._block = self._block, None
        if block is None:
            return
        if 0 in block.seen:
            configs = itertools.product(*block.states)
            gaps = (c for c, seen in zip(configs, block.seen) if not seen)
            missing = list(itertools.islice(gaps, 3))
            self.fail(block.lineno, f"{block.what}: missing rows {missing}, unknown rows []")
        table = Table(block.states, block.array)
        if block.strategy is None:
            self.cpts[block.name] = Cpt(block.name, block.parents, table)
        else:
            self.strategies[block.strategy][block.name] = Policy(block.parents, table)

    def _build(self) -> ModelDocument:
        if not self.variables:
            raise ParseError("no variables declared")
        if self.order is None:
            raise ParseError("missing order line")
        variables = [self.variables[v] for v in self.order]
        try:
            diagram = InfluenceDiagram(
                variables, self.edges, self.cpts, self.obs_parents, self.int_parents
            )
        except ModelError as exc:
            raise ParseError(str(exc), line=getattr(self, "_order_line", None)) from None
        strategies = {}
        for name, policies in self.strategies.items():
            strategy = Strategy(name, dict(policies))
            try:
                diagram.base.validate_strategy(strategy)
            except PolicyError as exc:
                raise ParseError(str(exc), line=self.strategy_lines[name]) from None
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
