from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fixtures import f1, f2, f3, f4, f5
from helpers import random_extended_id, random_strategy
from regimes import parser
from regimes.errors import ModelError, ParseError
from regimes.model import Cpt, InfluenceDiagram, Policy, Strategy, Variable
from regimes.parser import ModelDocument, format_model, parse_model
from regimes.stability import build_dag_i

MODELS = Path(__file__).resolve().parent.parent / "models"

MINIMAL = """\
# smallest possible document
var Y kind=resp states=y1,y0
order Y
cpt Y | -
row - : 0.3 0.7
"""


class TestGrammar:
    def test_minimal_document(self):
        doc = parse_model(MINIMAL)
        assert doc.diagram.response == "Y"
        assert doc.diagram.cpts["Y"].table[()] == (0.3, 0.7)

    def test_comments_and_blank_lines_ignored(self):
        doc = parse_model("\n\n# hello\n" + MINIMAL + "\n# bye\n")
        assert doc.diagram.n == 0

    def test_shipped_f2_document(self):
        doc = parse_model((MODELS / "f2.id").read_text())
        assert len(doc.diagram.order) == 6
        assert sorted(doc.strategies) == ["e2", "e2wide"]
        assert doc.diagram.int_parents["A2"] == ("A1",)

    def test_deterministic_row_shorthand(self):
        text = MINIMAL.replace("order Y", "order Y")  # unchanged
        doc = parse_model(
            "var L kind=obs states=0,1\n"
            "var A kind=act states=0,1\n"
            "var Y kind=resp states=0,1\n"
            "order L A Y\n"
            "edge L A\nedge L Y\nedge A Y\nedge sigma A\n"
            "cpt L | -\nrow - : 0.5 0.5\n"
            "cpt A | L\nrow 0 : 0.5 0.5\nrow 1 : 0.5 0.5\n"
            "cpt Y | L,A\n"
            "row 0,0 : 0.5 0.5\nrow 0,1 : 0.5 0.5\n"
            "row 1,0 : 0.5 0.5\nrow 1,1 : 0.5 0.5\n"
            "strategy s\n"
            "assign A | L\n"
            "row 0 : 1\n"
            "prow 1 : 0.25 0.75\n"
        )
        pol = doc.strategies["s"].policies["A"]
        assert pol.table[("0",)] == (0.0, 1.0)
        assert pol.table[("1",)] == (0.25, 0.75)


class TestDiagnostics:
    def check(self, text, fragment, line=None):
        with pytest.raises(ParseError) as err:
            parse_model(text)
        assert fragment in str(err.value)
        if line is not None:
            assert err.value.line == line

    def test_unknown_directive(self):
        self.check(MINIMAL + "flub x\n", "unknown directive", line=6)

    def test_bad_row_sum_names_row(self):
        bad = MINIMAL.replace("row - : 0.3 0.7", "row - : 0.3 0.6")
        self.check(bad, "sums to", line=5)

    def test_nan_row_names_row(self):
        bad = MINIMAL.replace("row - : 0.3 0.7", "row - : nan nan")
        self.check(bad, "outside [0, 1]", line=5)

    def test_nan_prow_names_row(self):
        text = (
            "var A kind=act states=0,1\n"
            "var Y kind=resp states=0,1\n"
            "order A Y\n"
            "edge A Y\nedge sigma A\n"
            "cpt A | -\nrow - : 0.5 0.5\n"
            "cpt Y | A\nrow 0 : 0.5 0.5\nrow 1 : 0.5 0.5\n"
            "strategy s\n"
            "assign A | -\n"
            "prow - : nan nan\n"
        )
        self.check(text, "outside [0, 1]", line=13)

    def test_missing_row_reported_at_header(self):
        text = (
            "var L kind=obs states=0,1\n"
            "var Y kind=resp states=0,1\n"
            "order L Y\n"
            "edge L Y\n"
            "cpt L | -\nrow - : 0.5 0.5\n"
            "cpt Y | L\nrow 0 : 0.5 0.5\n"
        )
        self.check(text, "missing rows", line=7)

    def test_missing_assign_row_reported_at_header(self):
        text = (
            "var L kind=obs states=a,b,c\n"
            "var A kind=act states=0,1\n"
            "var Y kind=resp states=0,1\n"
            "order L A Y\n"
            "edge L A\nedge A Y\nedge sigma A\n"
            "cpt L | -\nrow - : 0.2 0.3 0.5\n"
            "cpt A | L\nrow a : 0.5 0.5\nrow b : 0.5 0.5\nrow c : 0.5 0.5\n"
            "cpt Y | A\nrow 0 : 0.5 0.5\nrow 1 : 0.5 0.5\n"
            "strategy s\n"
            "assign A | L\n"
            "row b : 1\n"
        )
        self.check(text, "assign for A in strategy s: missing rows [('a',), ('c',)]", line=18)

    def test_duplicate_row(self):
        bad = MINIMAL + "cpt Y | -\n"
        self.check(bad, "duplicate cpt", line=6)

    def test_unknown_variable_in_edge(self):
        self.check(MINIMAL + "edge Q Y\n", "unknown variable", line=6)

    def test_sigma_into_nonaction_at_parse_time(self):
        self.check(MINIMAL + "edge sigma Y\n", "non-action", line=6)

    def test_backward_edge_reported(self):
        text = (
            "var L kind=obs states=0,1\n"
            "var Y kind=resp states=0,1\n"
            "order Y L\n"  # response not last
            "cpt L | -\nrow - : 0.5 0.5\n"
            "cpt Y | -\nrow - : 0.5 0.5\n"
        )
        self.check(text, "last")

    def test_order_must_cover_all(self):
        text = MINIMAL.replace("order Y", "order Y Y")
        self.check(text, "exactly once", line=3)

    def test_strategy_row_on_hidden_parent(self):
        doc_text = (MODELS / "f2.id").read_text()
        bad = doc_text + "strategy bad\nassign A1 | U1\nrow 0 : 1\nrow 1 : 0\nassign A2 | -\nrow - : 0\n"
        self.check(bad, "hidden")


class TestRoundTrip:
    def test_every_legal_label_character_round_trips(self):
        # Every whitespace character lies below U+3001.  A label character
        # is rejected exactly when it is whitespace or a separator, and one
        # state per accepted character survives format and parse.
        legal = []
        for ch in map(chr, range(0x3001)):
            try:
                Variable("Y", "resp", (f"s{ch}", "t"))
            except ModelError:
                assert ch.isspace() or ch in ",:|#=;", repr(ch)
            else:
                assert not ch.isspace(), repr(ch)
                legal.append(f"s{ch}")
        row = (1.0,) + (0.0,) * (len(legal) - 1)
        y = Variable("Y", "resp", tuple(legal))
        doc = ModelDocument(InfluenceDiagram([y], [], {"Y": Cpt("Y", (), {(): row})}), {})
        assert parse_model(format_model(doc)) == doc

    @pytest.mark.parametrize("build", [f1, f2, f3, f4, f5])
    def test_fixture_round_trip(self, build):
        doc = ModelDocument(*build())
        text = format_model(doc)
        back = parse_model(text)
        assert back.diagram == doc.diagram
        assert back.strategies == doc.strategies
        assert format_model(back) == text

    def test_dash_state_of_a_single_parent(self):
        # ``row -`` is the empty configuration only in a parentless table;
        # here it names L's state ``-``.
        variables = [
            Variable("L", "obs", ("-", "x")),
            Variable("A", "act", ("0", "1")),
            Variable("Y", "resp", ("0", "1")),
        ]
        edges = [("L", "A"), ("A", "Y"), ("sigma", "A")]
        cpts = {
            "L": Cpt("L", (), {(): (0.25, 0.75)}),
            "A": Cpt("A", ("L",), {("-",): (0.5, 0.5), ("x",): (0.125, 0.875)}),
            "Y": Cpt("Y", ("A",), {("0",): (0.5, 0.5), ("1",): (1.0, 0.0)}),
        }
        policy = Policy(("L",), {("-",): (0.0, 1.0), ("x",): (0.5, 0.5)})
        doc = ModelDocument(InfluenceDiagram(variables, edges, cpts), {"s": Strategy("s", {"A": policy})})
        text = format_model(doc)
        assert "row - : 0.5 0.5" in text and "row - : 1" in text
        assert parse_model(text) == doc

    def test_obs_parents_annotation_survives(self):
        # A1 keeps its domain arrow from L1 but its observational table
        # reads nothing: the annotation, not the default, must reach the
        # diagram, its text and its stage diagrams.
        f1_text = (MODELS / "f1.id").read_text()
        text = f1_text[: f1_text.index("strategy dyn")]
        text = text.replace("-parents A1 L1\n", "-parents A1 -\n")
        cpt = text[text.index("cpt A1 | L1") : text.index("cpt L2")]
        doc = parse_model(text.replace(cpt, "cpt A1 | -\nrow - : 0.25 0.75\n"))
        assert "edge L1 A1" in text
        assert doc.diagram.obs_parents == {"A1": (), "A2": ("L1", "A1", "L2")}
        out = format_model(doc)
        assert "obs-parents A1 -" in out and parse_model(out) == doc
        assert build_dag_i(doc.diagram, 2).parents("A1") == ()

    def test_shipped_files_match_builders(self):
        import fixtures as F

        pairs = [
            ("f1.id", F.f1), ("f2.id", F.f2), ("f3.id", F.f3),
            ("f4.id", F.f4), ("f5.id", F.f5),
        ]
        for name, build in pairs:
            doc = parse_model((MODELS / name).read_text())
            diagram, strategies = build()
            assert doc.diagram == diagram, name
            assert doc.strategies == strategies, name
        assert parse_model((MODELS / "f2_wide.id").read_text()).diagram == F.f2(wide=True)[0]
        assert (
            parse_model((MODELS / "f4_two_actions.id").read_text()).diagram
            == F.f4(two_actions=True)[0]
        )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_actions=st.integers(1, 3),
    hidden_to_action=st.booleans(),
    row=st.none() | st.floats(0.0, 1.0).map(lambda p: (1.0 - p, p)),
)
@example(seed=0, n_actions=1, hidden_to_action=False, row=(1.0, 1e-300))
def test_format_parse_round_trip(seed, n_actions, hidden_to_action, row):
    # ``row`` (when drawn) replaces the first policy row of the first action.
    d = random_extended_id(seed, n_actions=n_actions, hidden_to_action=hidden_to_action)
    s = random_strategy(d, seed)
    if row is not None:
        a = d.actions[0]
        pol = s.policies[a]
        table = {**pol.table, min(pol.table): row}
        s = Strategy(s.name, {**s.policies, a: Policy(pol.parents, table)})
    doc = ModelDocument(d, {s.name: s})
    assert parse_model(format_model(doc)) == doc


def test_oversized_table_header_fails_before_allocating():
    names = [f"L{i}" for i in range(23)]
    text = "".join(f"var {v} kind=obs states=0,1\n" for v in names)
    text += "var Y kind=resp states=0,1\norder " + " ".join(names) + " Y\n"
    text += "cpt Y | " + ",".join(names) + "\n"
    with pytest.raises(ParseError, match="exceeds") as err:
        parse_model(text)
    assert err.value.line == 26


def test_table_cap_admits_a_table_of_exactly_its_cells(monkeypatch):
    # f1's largest table is Y's: 16 parent rows of 2 states.
    text = (MODELS / "f1.id").read_text()
    monkeypatch.setattr(parser, "MAX_JOINT_CELLS", 32)
    assert parse_model(text).diagram.cpts["Y"].table.array.size == 32
    monkeypatch.setattr(parser, "MAX_JOINT_CELLS", 31)
    with pytest.raises(ParseError, match="table for Y exceeds 31 cells") as err:
        parse_model(text)
    assert err.value.line == text.splitlines().index("cpt Y | L1,A1,L2,A2") + 1
