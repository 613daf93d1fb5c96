"""The run reader of ``regimes.parser`` against a per-row reference.

``PerRowParser`` is the parser with every ``row``/``prow`` line read on
its own, as the parser did before runs of rows were read in one loop: it
checks the key per parent, converts the values and checks the row as a
distribution before it reads the next line.  Its tables are the
reference, bitwise, and so is the error it reports first.
"""

import tracemalloc
from pathlib import Path

import pytest

from fixtures import complete_stable, f1, f2, f3, f4, f5
from helpers import random_extended_id, random_strategy, rng
from regimes.errors import ParseError
from regimes.model import ROW_SUM_TOL, Strategy
from regimes.parser import ModelDocument, _lines, _Parser, format_model, parse_model
from test_parse_errors import CASES

TERNARY = Path(__file__).resolve().parent / "golden" / "ternary.id"


def reference_row_problem(row, width):
    if len(row) != width:
        return f"has {len(row)} entries, want {width}"
    for p in row:
        if not 0.0 <= p <= 1.0:
            return "has entries outside [0, 1]"
    total = sum(row)
    if not abs(total - 1.0) <= ROW_SUM_TOL:
        return f"sums to {total!r}"
    return None


class PerRowParser(_Parser):
    """The parser with the per-row reader it had before the run reader."""

    def _read_rows(self, lineno, tokens, lines):
        while tokens and tokens[0] in ("row", "prow"):
            if tokens[0] == "row":
                self._on_row(tokens, lineno)
            else:
                self._on_prow(tokens, lineno)
            tokens = []
            for lineno, raw in lines:
                tokens = raw.split("#", 1)[0].split()
                if tokens:
                    break
        return lineno, tokens

    def _key_index(self, tokens, lineno) -> int:
        block = self._block
        if len(tokens) < 3 or tokens[2] != ":":
            self.fail(lineno, "expected: row <s1,s2,...|-> : <values>")
        key = () if tokens[1] == "-" and not block.parents else tuple(tokens[1].split(","))
        if len(key) != len(block.parents):
            self.fail(lineno, f"row names {len(key)} parent states, want {len(block.parents)}")
        i = 0
        for p, s, states in zip(block.parents, key, block.states):
            if s not in states:
                self.fail(lineno, f"{s!r} is not a state of {p}")
            i = i * len(states) + states.index(s)
        if block.seen[i]:
            where = f"in {block.what}" if block.strategy is None else f"for {block.name}"
            self.fail(lineno, f"duplicate row {key} {where}")
        block.seen[i] = 1
        return i

    def _probs(self, tokens, lineno, width):
        try:
            probs = tuple(float(t) for t in tokens)
        except ValueError:
            self.fail(lineno, f"expected probabilities, got {tokens}")
        problem = reference_row_problem(probs, width)
        if problem:
            self.fail(lineno, f"row {problem}")
        return probs

    def _on_row(self, tokens, lineno):
        block = self._block
        if block is None:
            self.fail(lineno, "row outside a cpt or assign block")
        i = self._key_index(tokens, lineno)
        if block.strategy is None:
            block.rows()[i] = self._probs(tokens[3:], lineno, block.width)
            return
        if len(tokens) != 4:
            self.fail(lineno, "deterministic row takes a single action state")
        states = self.variables[block.name].states
        if tokens[3] not in states:
            self.fail(lineno, f"{tokens[3]!r} is not a state of {block.name}")
        block.rows()[i, states.index(tokens[3])] = 1.0

    def _on_prow(self, tokens, lineno):
        block = self._block
        if block is None or block.strategy is None:
            self.fail(lineno, "prow outside an assign block")
        block.rows()[self._key_index(tokens, lineno)] = self._probs(tokens[3:], lineno, block.width)


def outcome(parser_class, text):
    try:
        doc = parser_class(text).parse()
    except ParseError as exc:
        return ("error", exc.line, str(exc))
    return ("ok", doc)


def tables(doc: ModelDocument):
    """Every table array of the document, keyed by where it comes from."""
    out = {("cpt", v): cpt.table.array for v, cpt in doc.diagram.cpts.items()}
    for name, strategy in doc.strategies.items():
        for a, policy in strategy.policies.items():
            out[(name, a)] = policy.table.array
    return out


def assert_bitwise_equal(got: ModelDocument, want: ModelDocument):
    got, want = tables(got), tables(want)
    assert got.keys() == want.keys()
    for where, array in want.items():
        assert got[where].shape == array.shape and got[where].dtype == array.dtype, where
        assert got[where].tobytes() == array.tobytes(), where


def scramble(text: str, seed: int) -> str:
    """``text`` with each block's rows shuffled, and comments, blank lines
    and runs of spaces and tabs strewn between and inside them."""
    gen = rng(seed)
    out, rows = [], []

    def flush():
        order = gen.permutation(len(rows))
        for j in order:
            line = rows[j]
            if gen.random() < 0.2:
                out.append("# between rows" if gen.random() < 0.5 else "")
            if gen.random() < 0.2:
                line = line.replace(" ", " \t ", 2) + "   # trailing note"
            out.append(line)
        rows.clear()

    for line in text.splitlines():
        if line.startswith(("row ", "prow ")):
            rows.append(line)
        else:
            flush()
            out.append(line)
    flush()
    return "\n".join(out) + "\n"


def documents():
    docs = [(build.__name__, ModelDocument(*build())) for build in (f1, f2, f3, f4, f5)]
    docs.append(("ternary", parse_model(TERNARY.read_text())))
    docs += [(f"complete{n}", ModelDocument(*complete_stable(n))) for n in range(1, 6)]
    for seed in range(20):
        d = random_extended_id(seed, n_actions=1 + seed % 3, hidden_to_action=seed % 2 == 1)
        strategies = {}
        for j, deterministic in enumerate((True, False, None)):
            policies = random_strategy(d, seed, deterministic).policies
            strategies[f"s{j}"] = Strategy(f"s{j}", policies)
        docs.append((f"random{seed}", ModelDocument(d, strategies)))
    return docs


DOCUMENTS = documents()


@pytest.mark.parametrize("name,doc", DOCUMENTS, ids=[name for name, _ in DOCUMENTS])
def test_tables_match_the_per_row_reader_bitwise(name, doc):
    text = format_model(doc)
    for seed in range(3):
        scrambled = scramble(text, seed)
        got, want = parse_model(scrambled), PerRowParser(scrambled).parse()
        assert_bitwise_equal(got, want)
        assert got == doc


@pytest.mark.parametrize("case", CASES)
def test_corpus_errors_match_the_per_row_reader(case):
    assert outcome(_Parser, CASES[case]) == outcome(PerRowParser, CASES[case])


def spread_rows(lines, rows, gen) -> list[int]:
    """Two or three rows of probabilities of ``lines``, of two widths at least."""
    by_width = {}
    for i in rows:
        width = len(lines[i].split()) - 3
        if width > 1:
            by_width.setdefault(width, []).append(i)
    widths = gen.choice(sorted(by_width), size=2, replace=False)
    picks = [int(gen.choice(by_width[w])) for w in widths]
    rest = [i for w in widths for i in by_width[w] if i not in picks]
    if rest and gen.random() < 0.5:
        picks.append(int(gen.choice(rest)))
    return picks


def corrupt(text: str, seed: int, spread: bool = False) -> str:
    """``text`` with one to three row lines broken, each in one of the ways
    a row can be wrong.  With ``spread``, two or three rows over blocks of
    two widths are broken, each into values that read but are no
    distribution, so only the rows' check finds them."""
    gen = rng(seed)
    lines = text.splitlines()
    rows = [i for i, line in enumerate(lines) if line.startswith(("row ", "prow "))]
    if spread:
        picks = spread_rows(lines, rows, gen)
    else:
        picks = gen.choice(rows, size=min(len(rows), 1 + int(gen.integers(3))), replace=False)
    for i in picks:
        word, key, colon, *values = lines[i].split()
        kind = int(gen.choice((5, 6, 9))) if spread else int(gen.integers(11))
        if kind == 0:
            key = key + ",x"  # too many parent states
        elif kind == 1:
            key = "zz" if key == "-" else "zz" + key[1:]  # unknown state
        elif kind == 2:
            i = rows[0] if i != rows[0] else rows[-1]  # duplicate key
            word, key, colon, *values = lines[i].split()
        elif kind == 3:
            values = values[:1] + ["x1"] + values[2:]  # not a float
        elif kind == 4:
            values = values + ["0"]  # one entry too many
        elif kind == 5:
            values = ["nan"] + values[1:]
        elif kind == 6:  # a sum off by 0.5, or a deterministic row naming no state
            values = [repr(float(values[0]) + 0.5)] + values[1:] if len(values) > 1 else ["0.5"]
        elif kind == 7:
            colon = "="
        elif kind == 8:
            word = "prow" if word == "row" else "row"
        elif kind == 9:
            values = ["1_0"] + values[1:]
        else:
            values = ["-0.0"] + values[1:]  # not an error when the entry was 0
        lines.insert(i + 1, " ".join([word, key, colon, *values]))
        del lines[i]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name,doc", DOCUMENTS[:11], ids=[name for name, _ in DOCUMENTS[:11]])
def test_first_error_matches_the_per_row_reader(name, doc):
    text = format_model(doc)
    results = set()
    for seed in range(40):
        broken = scramble(corrupt(text, seed), seed)
        got, want = outcome(_Parser, broken), outcome(PerRowParser, broken)
        if want[0] == "ok":
            assert got[0] == "ok"
            assert_bitwise_equal(got[1], want[1])
        else:
            assert got == want, broken
        results.add(want[0])
    assert "error" in results


def assert_bad_rows_across_widths_match(seeds):
    # ternary.id has tables of widths 2 and 3, interleaved.
    text = TERNARY.read_text()
    for seed in seeds:
        broken = scramble(corrupt(text, seed, spread=True), seed)
        got, want = outcome(_Parser, broken), outcome(PerRowParser, broken)
        assert want[0] == "error"
        assert got == want, broken


def test_first_bad_row_across_widths_matches_the_per_row_reader():
    assert_bad_rows_across_widths_match(range(80))


@pytest.mark.parametrize("run_rows", [1, 2, 3, 7])
def test_errors_match_the_per_row_reader_when_held_rows_fill(run_rows, monkeypatch):
    # With a few rows held at a time, the held rows are checked whenever a
    # run would overfill them, mid-document and across blocks of both
    # widths, not only before another error or at the end of the text.
    monkeypatch.setattr("regimes.parser.RUN_ROWS", run_rows)
    for text in CASES.values():
        assert outcome(_Parser, text) == outcome(PerRowParser, text)
    assert_bad_rows_across_widths_match(range(40))
    for name, doc in DOCUMENTS[5:8]:
        text = scramble(format_model(doc), run_rows)
        assert_bitwise_equal(parse_model(text), PerRowParser(text).parse())


def test_underscores_read_as_python_floats():
    text = (
        "var Y kind=resp states=0,1\norder Y\ncpt Y | -\nrow - : 0.2_5 0.7_5\n"
    )
    assert parse_model(text).diagram.cpts["Y"].table[()] == (0.25, 0.75)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "a",
        "a\n",
        "a\r\nb\rc\nd",
        "a\n\n\nb\n",
        "x\x0cy\x0bz\x1cw\x85v u t\r\n",
        "\r\n" * 5,
    ],
)
def test_lines_match_splitlines(text, monkeypatch):
    for block in (1, 2, 3, 64):
        monkeypatch.setattr("regimes.parser.LINE_BLOCK", block)
        assert list(_lines(text)) == text.splitlines()


def test_lines_match_splitlines_on_a_model():
    text = scramble(format_model(ModelDocument(*complete_stable(4))), 1).replace("\n", "\r\n", 50)
    assert list(_lines(text)) == text.splitlines()


def test_parse_memory_is_bounded_by_the_text():
    # The parser holds a block's row keys and a bounded run and buffer of
    # floats, not the text's lines or a block's tokens: its traced peak
    # stays within a small multiple of the text (about 2.75 here; holding
    # every token of the largest block would add about 2.5 more).
    text = format_model(ModelDocument(*complete_stable(6)))
    tracemalloc.start()
    try:
        parse_model(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * len(text.encode())
