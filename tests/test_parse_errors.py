"""Parse-error corpus: one small bad document per error site of the parser.

Each case edits one valid document (``BASE``) so that parsing fails at a
different check; ``golden/parse_errors.txt`` holds
``case<TAB>line<TAB>message`` for each, with ``-`` where the error has no
line.  A change to any parse error message, or to the line it names,
fails here.

Regenerate the stored text (only when a message change is intended) with
``PYTHONPATH=src python tests/test_parse_errors.py``.
"""

from pathlib import Path

import pytest

from regimes.errors import ParseError
from regimes.parser import parse_model

GOLDEN = Path(__file__).resolve().parent / "golden" / "parse_errors.txt"

BASE = """\
var L kind=obs states=a,b,c
var A kind=act states=0,1
var Y kind=resp states=0,1
order L A Y
edge L A
edge L Y
edge A Y
edge sigma A
cpt L | -
row - : 0.2 0.3 0.5
cpt A | L
row a : 0.5 0.5
row b : 0.5 0.5
row c : 0.5 0.5
cpt Y | L,A
row a,0 : 0.5 0.5
row a,1 : 0.5 0.5
row b,0 : 0.5 0.5
row b,1 : 0.5 0.5
row c,0 : 0.5 0.5
row c,1 : 0.5 0.5
strategy s
assign A | L
row a : 1
row b : 0
row c : 1
"""

BIG = ",".join(f"s{i}" for i in range(200))


def edit(old: str, new: str) -> str:
    """``BASE`` with the first ``old`` replaced by ``new``."""
    if old not in BASE:
        raise ValueError(f"{old!r} is not in the base document")
    return BASE.replace(old, new, 1)


# Y's table over three parents of 200 states each is over the cell cap.
TOO_LARGE = edit(
    "var L kind=obs states=a,b,c\n",
    "".join(f"var M{i} kind=obs states={BIG}\n" for i in range(3))
    + "var L kind=obs states=a,b,c\n",
).replace("order L", "order M0 M1 M2 L").replace("cpt Y | L,A", "cpt Y | M0,M1,M2")

CASES = {
    # table headers and blocks
    "table_too_large": TOO_LARGE,
    "unknown_directive": BASE + "flub x\n",
    # var
    "var_token_count": edit("var A kind=act states=0,1", "var A kind=act"),
    "var_not_key_value": edit("var A kind=act states=0,1", "var A kind=act states"),
    "var_wrong_keys": edit("var A kind=act states=0,1", "var A kind=act shape=0,1"),
    "var_unknown_kind": edit("var A kind=act states=0,1", "var A kind=foo states=0,1"),
    "var_redeclared": edit("var A ", "var L kind=obs states=0,1\nvar A "),
    "var_model_error": edit("var A kind=act states=0,1", "var A kind=act states=0,0"),
    "var_dash_name": edit("var A kind=act states=0,1", "var - kind=act states=0,1"),
    # order
    "order_duplicate": edit("order L A Y\n", "order L A Y\norder L A Y\n"),
    "order_incomplete": edit("order L A Y", "order L A"),
    # edge
    "edge_token_count": edit("edge L A", "edge L"),
    "edge_unknown_variable": edit("edge L A", "edge Q A"),
    "edge_into_sigma": edit("edge L A", "edge L sigma"),
    "edge_sigma_into_non_action": edit("edge sigma A", "edge sigma Y"),
    "edge_duplicate": edit("edge L Y\n", "edge L Y\nedge L A\n"),
    # obs-parents / int-parents
    "parents_token_count": edit("edge sigma A\n", "edge sigma A\nobs-parents A\n"),
    "parents_not_action": edit("edge sigma A\n", "edge sigma A\nint-parents L -\n"),
    "parents_duplicate": edit("edge sigma A\n", "edge sigma A\nobs-parents A L\nobs-parents A L\n"),
    "parents_unknown_variable": edit("edge sigma A\n", "edge sigma A\nint-parents A L,Q\n"),
    # cpt
    "cpt_token_count": edit("cpt Y | L,A", "cpt Y L,A"),
    "cpt_no_parent_list": edit("cpt Y | L,A", "cpt Y |"),
    "cpt_no_bar": edit("cpt Y | L,A", "cpt Y x L,A"),
    "cpt_unknown_child": edit("cpt Y | L,A", "cpt Q | L,A"),
    "cpt_duplicate": edit("cpt A | L", "cpt L | -\nrow - : 0.2 0.3 0.5\ncpt A | L"),
    "cpt_unknown_parent": edit("cpt Y | L,A", "cpt Y | L,Q"),
    "cpt_missing_rows": edit("row a,0 : 0.5 0.5\n", "").replace("row c,1 : 0.5 0.5\n", ""),
    # strategy and assign
    "strategy_token_count": edit("strategy s", "strategy s t"),
    "strategy_duplicate": BASE + "strategy s\n",
    "strategy_named_obs": edit("strategy s", "strategy obs"),
    "assign_outside_strategy": edit("strategy s\n", ""),
    "assign_token_count": edit("assign A | L", "assign A L"),
    "assign_no_parent_list": edit("assign A | L", "assign A |"),
    "assign_not_action": edit("assign A | L", "assign L | -"),
    "assign_duplicate": BASE + "assign A | -\nrow - : 0\n",
    "assign_unknown_parent": edit("assign A | L", "assign A | Q"),
    "assign_missing_rows": edit("row a : 1\n", "").replace("row c : 1\n", ""),
    # rows
    "row_no_colon": edit("row a : 0.5 0.5", "row a 0.5 0.5"),
    "row_no_values": edit("row a : 0.5 0.5", "row a :"),
    "row_key_length": edit("row a : 0.5 0.5", "row a,0 : 0.5 0.5"),
    "row_unknown_state": edit("row a,1 : 0.5 0.5", "row a,2 : 0.5 0.5"),
    "row_duplicate_cpt": edit("row b : 0.5 0.5", "row a : 0.5 0.5"),
    "row_duplicate_assign": edit("row b : 0\n", "row a : 0\n"),
    "row_not_numbers": edit("row - : 0.2 0.3 0.5", "row - : 0.2 x 0.5"),
    "row_bad_sum": edit("row - : 0.2 0.3 0.5", "row - : 0.2 0.3 0.4"),
    "row_assign_two_values": edit("row b : 0\n", "row b : 0 1\n"),
    "row_assign_unknown_action_state": edit("row b : 0\n", "row b : 2\n"),
    "row_outside_block": edit("var L ", "row - : 1\nvar L "),
    "prow_outside_assign": edit("row a : 0.5 0.5", "prow a : 0.5 0.5"),
    "row_dash_key_one_parent": edit("row a : 0.5 0.5", "row - : 0.5 0.5"),
    "row_dash_key_two_parents": edit("row a,0 : 0.5 0.5", "row - : 0.5 0.5"),
    # a run of rows: its distribution check comes before any later error
    "run_bad_sum_then_unknown_key": edit("row a,0 : 0.5 0.5", "row a,0 : 0.5 0.4").replace(
        "row b,0 : 0.5 0.5", "row b,2 : 0.5 0.5"
    ),
    "run_bad_row_then_bad_directive": edit("row c,1 : 0.5 0.5\n", "row c,1 : 0.5 0.7\nflub x\n"),
    "run_bad_row_at_end": edit("row c : 1\n", "prow c : 0.5 0.6\n"),
    # rows of every block wait for one check: a bad row still comes before
    # a later block's error, and the earliest bad row is reported whatever
    # the widths (here L's width 3 is held first, A's bad row is width 2)
    "run_bad_row_then_table_too_large": TOO_LARGE.replace(
        "row - : 0.2 0.3 0.5", "row - : 0.2 0.3 0.6"
    ),
    "run_bad_row_then_missing_rows": edit("row - : 0.2 0.3 0.5", "row - : 0.2 0.3 0.6").replace(
        "row c,1 : 0.5 0.5\n", ""
    ),
    "run_bad_rows_of_two_widths": edit("var A ", "var M kind=obs states=x,y,z\nvar A ")
    .replace("order L A Y", "order L A Y M")
    .replace("row b : 0.5 0.5", "row b : 0.5 0.6")
    + "cpt M | -\nrow - : 0.2 0.3 0.6\n",
    "row_nan_entry": edit("row a : 0.5 0.5", "row a : nan 0.5"),
    "row_underscore_digits": edit("row a : 0.5 0.5", "row a : 1_0 0"),
    "row_dash_state_key_one_parent": edit("states=a,b,c", "states=a,-,c")
    .replace("row b : 0.5 0.5", "row - : 0.5 0.5")
    .replace("row c : 0.5 0.5", "row - : 0.5 0.5"),
    # whole document
    "no_variables": "# nothing here\n",
    "missing_order": edit("order L A Y\n", ""),
    "diagram_model_error": edit("edge A Y", "edge Y A"),
    "diagram_cycle": edit("edge sigma A\n", "edge sigma A\nedge Y A\n"),
    "diagram_two_backward_edges": edit("edge L A", "edge A L").replace("edge L Y", "edge Y L"),
    "strategy_policy_error": BASE + "strategy t\n",
    "strategy_policy_reads_later": BASE + "strategy t\nassign A | Y\nrow 0 : 0\nrow 1 : 1\n",
}


def outcome(text: str) -> str:
    """``line<TAB>message`` of the error that ``text`` raises."""
    try:
        parse_model(text)
    except ParseError as exc:
        return f"{'-' if exc.line is None else exc.line}\t{exc}"
    raise AssertionError("document parsed without error")


def corpus() -> str:
    return "".join(f"{case}\t{outcome(text)}\n" for case, text in CASES.items())


def golden() -> dict[str, str]:
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    return dict(line.split("\t", 1) for line in lines)


def test_base_document_parses():
    assert sorted(parse_model(BASE).strategies) == ["s"]


def test_golden_lists_every_case():
    assert list(golden()) == list(CASES)


@pytest.mark.parametrize("case", CASES)
def test_parse_error_matches_golden(case):
    assert outcome(CASES[case]) == golden()[case]


if __name__ == "__main__":
    GOLDEN.write_text(corpus(), encoding="utf-8")
