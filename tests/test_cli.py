import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from helpers import f4_without_action_one, wide_binary_document
from regimes import grecursion
from regimes.cli import build_parser, main
from regimes.parser import ModelDocument, format_model

MODELS = Path(__file__).resolve().parent.parent / "models"
SRC = MODELS.parent / "src"


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def kv(text):
    pairs = {}
    for line in text.splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


def model(name):
    return str(MODELS / name)


class TestEvaluateAndGrec:
    def test_stability_report_f1(self):
        code, out, _ = run("stability", "--model", model("f1.id"))
        assert code == 0
        assert kv(out)["simple_stability"] == "true"

    def test_stability_report_f2_fails_with_witness(self):
        code, out, _ = run("stability", "--model", model("f2.id"))
        assert code == 1
        got = kv(out)
        assert got["simple_stability"] == "false"
        assert got["stage_2"] == "false"
        assert got["witness_2"] == "L2-U1-sigma"

    def test_grec_equals_direct_oracle(self):
        c1, out1, _ = run("grec", "--model", model("f2.id"), "--strategy", "e2")
        c2, out2, _ = run("evaluate", "--model", model("f2.id"), "--strategy", "e2")
        assert c1 == c2 == 0
        lhs = float(kv(out1)["consequence"])
        rhs = float(kv(out2)["consequence"])
        assert abs(lhs - rhs) < 1e-9

    def test_target_flag(self):
        _, out0, _ = run("evaluate", "--model", model("f1.id"), "--target", "0")
        _, out1, _ = run("evaluate", "--model", model("f1.id"), "--target", "1")
        assert abs(float(kv(out0)["consequence"]) + float(kv(out1)["consequence"]) - 1.0) < 1e-9

    def test_k_flag(self):
        _, out, _ = run("evaluate", "--model", model("f1.id"), "--k", "0=2,1=2")
        assert abs(float(kv(out)["consequence"]) - 2.0) < 1e-9


class TestChecks:
    def test_seqrand(self):
        assert run("seqrand", "--model", model("f1.id"))[0] == 0
        code, out, _ = run("seqrand", "--model", model("f2.id"))
        assert code == 1 and kv(out)["sequential_randomization"] == "false"

    def test_numeric_stability(self):
        code, out, _ = run(
            "stability", "--model", model("f2.id"), "--numeric", "--strategy", "e2"
        )
        assert code == 1
        assert kv(out)["mode"] == "numeric"
        assert kv(out)["stage_2"] == "false"

    @pytest.mark.parametrize("name", ["f2.id", "f4.id", "f2_wide.id"])
    def test_numeric_stability_without_strategy_checks_the_uniform_one(self, name):
        code, out, _ = run("stability", "--model", model(name), "--numeric")
        assert code == 1
        assert kv(out)["simple_stability"] == "false"
        assert kv(out)["witness_2"] == "A1=0:obs!=uniform"
        assert run("stability", "--model", model("f1.id"), "--numeric")[0] == 0

    def test_seqirrel(self):
        code, out, _ = run("seqirrel", "--model", model("f4.id"), "--strategy", "e")
        got = kv(out)
        assert code == 1
        assert got["sequential_irrelevance"] == "false"
        assert got["extended_positivity_e"] == "true"

    def test_positivity(self):
        code, out, _ = run("positivity", "--model", model("f1.id"), "--strategy", "mix")
        got = kv(out)
        assert code == 0
        assert got == {
            "simple": "true", "extended": "true",
            "parent_child": "true", "general": "true",
        }

    def test_graphsep_narrow_and_wide(self):
        code, out, _ = run("graphsep", "--model", model("f2.id"))
        assert code == 0 and kv(out)["graphsep"] == "true"
        code, out, _ = run("graphsep", "--model", model("f2_wide.id"))
        assert code == 1 and kv(out)["i_1"] == "false"

    def test_verify_general(self):
        code, out, _ = run(
            "verify-general", "--model", model("f2.id"), "--strategy", "e2"
        )
        got = kv(out)
        assert code == 0 and got["all"] == "true"
        assert float(got["consequence_delta"]) <= 1e-9
        code, out, _ = run(
            "verify-general", "--model", model("f2.id"), "--strategy", "e2wide"
        )
        assert code == 1 and kv(out)["y_bridge"] == "false"


L_STATES_DESCENDING = """\
var L kind=obs states=1,0
var A kind=act states=0,1
var Y kind=resp states=0,1
order L A Y
edge sigma A
edge L A
edge L Y
edge A Y
cpt L | -
row - : 0.5 0.5
cpt A | L
row 1 : 1 0
row 0 : 1 0
cpt Y | L,A
row 1,0 : 0.5 0.5
row 1,1 : 0.5 0.5
row 0,0 : 0.5 0.5
row 0,1 : 0.5 0.5
strategy one
assign A | -
row - : 1
"""


def test_grec_names_the_first_hole_in_declared_state_order(tmp_path):
    # A is never 1 observationally and the strategy always picks 1, so both
    # (L, 1) histories are holes; L declares 1 before 0, so ('1', '1') is
    # the first in row-major order, though ('0', '1') has the least labels.
    path = tmp_path / "l_descending.id"
    path.write_text(L_STATES_DESCENDING)
    code, out, err = run("grec", "--model", str(path), "--strategy", "one")
    assert (code, out) == (2, "")
    assert err == "error: undefined observational conditional at history ('1', '1')\n"


class TestAdmissibleCommand:
    def test_f3_search(self):
        code, out, _ = run("admissible", "--model", model("f3.id"))
        assert code == 0
        got = kv(out)
        assert got["ordering"] == "B,A"
        assert got["sequence"] == ";L"

    def test_f3_explicit_bad_order(self):
        code, out, _ = run("admissible", "--model", model("f3.id"), "--order", "A,B")
        assert code == 1
        assert kv(out)["admissible"] == "false"

    def test_f5_improve(self):
        code, out, _ = run("admissible", "--model", model("f5.id"), "--improve")
        assert code == 0
        assert kv(out)["sequence"] == ";X"

    def test_none_found(self):
        code, out, _ = run("admissible", "--model", model("f4_two_actions.id"))
        assert code == 1
        assert kv(out)["ordering"] == "none"


class TestOptimizeCommand:
    def test_f1_optimize_max_and_min(self):
        code, out, _ = run("optimize", "--model", model("f1.id"))
        assert code == 0
        vmax = float(kv(out)["value"])
        code, out, _ = run("optimize", "--model", model("f1.id"), "--min")
        vmin = float(kv(out)["value"])
        assert code == 0 and vmin <= vmax

    def test_refusal_on_unlicensed_model(self):
        code, out, err = run("optimize", "--model", model("f4.id"))
        assert code == 2
        assert "refused" in err
        assert out == ""

    def test_f2_narrow_is_licensed(self):
        code, out, _ = run("optimize", "--model", model("f2.id"))
        assert code == 0


class TestSimulateEstimate:
    def test_simulate_and_estimate(self, tmp_path):
        out_file = tmp_path / "rows.txt"
        code, out, _ = run(
            "simulate", "--model", model("f1.id"), "--regime", "obs",
            "--n", "50000", "--seed", "11", "--out", str(out_file),
        )
        assert code == 0 and kv(out)["rows"] == "50000"
        code, out, _ = run(
            "estimate", "--model", model("f1.id"), "--data", str(out_file),
            "--strategy", "dyn",
        )
        assert code == 0
        est = float(kv(out)["consequence"])
        _, exact_out, _ = run(
            "evaluate", "--model", model("f1.id"), "--strategy", "dyn"
        )
        assert abs(est - float(kv(exact_out)["consequence"])) < 0.05

    def test_estimate_over_the_cap_exits_2(self, tmp_path):
        # Counting 48 binary columns needs 2^48 cells: a usage error like
        # every other numeric command over the joint cap, not a MemoryError.
        doc, data = tmp_path / "wide.id", tmp_path / "rows.txt"
        doc.write_text(wide_binary_document(48), encoding="utf-8")
        header = " ".join(f"L{i}" for i in range(1, 48)) + " Y"
        data.write_text(header + "\n" + " ".join("0" * 48) + "\n", encoding="utf-8")
        code, out, err = run("estimate", "--model", str(doc), "--data", str(data))
        assert (code, out) == (2, "")
        assert err == "error: joint table would need 281474976710656 cells (cap 4194304)\n"

    def test_estimate_dump_tables(self, tmp_path):
        out_file = tmp_path / "rows.txt"
        run(
            "simulate", "--model", model("f1.id"), "--regime", "obs",
            "--n", "50", "--seed", "1", "--out", str(out_file),
        )
        code, out, _ = run(
            "estimate", "--model", model("f1.id"), "--data", str(out_file),
            "--alpha", "0",
        )
        assert code == 0
        assert any(line.startswith("cond[1|-]=") for line in out.splitlines())


class TestErrorsAndDeterminism:
    def test_missing_model_file(self):
        code, _, err = run("stability", "--model", "/nonexistent.id")
        assert code == 2 and "error" in err

    def test_parse_error_exit(self, tmp_path):
        bad = tmp_path / "bad.id"
        bad.write_text("var Y kind=resp states=0,1\norder Y\ncpt Y | -\nrow - : 0.9 0.2\n")
        code, _, err = run("stability", "--model", str(bad))
        assert code == 2 and "sums to" in err

    def test_unknown_strategy(self, tmp_path):
        code, _, err = run("grec", "--model", model("f1.id"), "--strategy", "nope")
        declared = "declared: ['dyn', 'mix', 'stat']"
        assert (code, err) == (2, f"error: unknown strategy 'nope'; {declared}\n")
        text = Path(model("f1.id")).read_text()
        bare = tmp_path / "bare.id"
        bare.write_text(text[: text.index("strategy")])
        code, _, err = run("grec", "--model", str(bare), "--strategy", "nope")
        assert (code, err) == (2, "error: unknown strategy 'nope'; declared: none\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("evaluate", "--model", "{f1}", "--k", "0=abc,1=1"),
            ("evaluate", "--model", "{f1}", "--k", "0=nan,1=1"),
            ("evaluate", "--model", "{f1}", "--k", "0"),
            ("evaluate", "--model", "{f1}", "--k", "2=1"),
            ("evaluate", "--model", "{f1}", "--k", "0=1,0=5,1=0"),
            ("evaluate", "--model", "{f1}", "--target", "2"),
            ("estimate", "--model", "{f1}", "--data", "{rows}", "--alpha", "nan", "--strategy", "dyn"),
            ("estimate", "--model", "{f1}", "--data", "{rows}", "--alpha", "-1", "--strategy", "dyn"),
            ("simulate", "--model", "{f1}", "--regime", "obs", "--n", "5", "--seed", "-1",
             "--out", "{out}"),
            ("evaluate", "--model", "{latin1}"),
            ("evaluate", "--model", "{nan}"),
            ("grec", "--model", "{f4_no_a1}", "--strategy", "pick1"),
            ("grec", "--model", "{f4_no_a1}", "--strategy", "e"),
            # An empty value is a value, not a missing flag.
            ("grec", "--model", "{f1}", "--strategy", "dyn", "--target", ""),
            ("grec", "--model", "{f1}", "--strategy", "dyn", "--k", ""),
            ("optimize", "--model", "{f1}", "--target", ""),
            ("evaluate", "--model", "{f1}", "--strategy", ""),
            ("admissible", "--model", "{f1}", "--order", ""),
            ("admissible", "--model", "{f1}", "--strategy", ""),
            ("graphsep", "--model", "{f1}", "--strategy", ""),
            ("estimate", "--model", "{f1}", "--data", "{rows}", "--strategy", ""),
            # More rows than memory holds: a usage error, and no file written.
            ("simulate", "--model", "{f1}", "--regime", "obs", "--n", "1000000000000000",
             "--seed", "1", "--out", "{out}"),
            # Shapes numpy refuses with ValueError rather than MemoryError.
            ("simulate", "--model", "{f1}", "--regime", "obs", "--n", "4611686018427387904",
             "--seed", "1", "--out", "{out}"),
            ("simulate", "--model", "{f1}", "--regime", "obs", "--n", "99999999999999999999",
             "--seed", "1", "--out", "{out}"),
            # An alpha whose smoothed row totals overflow to inf.
            ("estimate", "--model", "{f1}", "--data", "{rows}", "--alpha", "1e308", "--strategy", "dyn"),
            ("estimate", "--model", "{f1}", "--data", "{rows}", "--alpha", "1e308"),
        ],
    )
    def test_bad_values_exit_2_with_one_error_line(self, tmp_path, argv):
        paths = {"f1": model("f1.id"), "rows": tmp_path / "rows.txt", "out": tmp_path / "out.txt"}
        run("simulate", "--model", paths["f1"], "--regime", "obs", "--n", "50",
            "--seed", "1", "--out", str(paths["rows"]))
        paths["latin1"] = tmp_path / "latin1.id"
        paths["latin1"].write_bytes(b"# caf\xe9\nvar Y kind=resp states=0,1\n")
        paths["nan"] = tmp_path / "nan.id"
        paths["nan"].write_text("var Y kind=resp states=0,1\norder Y\ncpt Y | -\nrow - : nan nan\n")
        paths["f4_no_a1"] = tmp_path / "f4_no_a1.id"
        paths["f4_no_a1"].write_text(format_model(ModelDocument(*f4_without_action_one())))
        code, out, err = run(*(a.format(**paths) for a in argv))
        assert code == 2 and out == "" and not paths["out"].exists()
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("evaluate", "--strategy", "obs"),
            ("grec", "--strategy", "obs"),
            ("simulate", "--regime", "obs", "--n", "5", "--seed", "1", "--out", "{out}"),
        ],
    )
    def test_strategy_named_obs_refused(self, tmp_path, argv):
        # ``evaluate`` and ``simulate`` read ``obs`` as the observational
        # regime and ``grec`` reads a strategy name, so the parser refuses
        # the name rather than let two commands read it two ways.
        text = Path(model("f1.id")).read_text().replace("strategy stat\n", "strategy obs\n")
        path = tmp_path / "f1_obs.id"
        path.write_text(text)
        out_path = tmp_path / "rows.txt"
        code, out, err = run(
            argv[0], "--model", str(path), *(a.format(out=out_path) for a in argv[1:])
        )
        assert (code, out) == (2, "")
        line = next(i for i, ln in enumerate(text.splitlines(), 1) if ln == "strategy obs")
        assert err == (
            f"error: line {line}: strategy name 'obs' is reserved for the observational regime\n"
        )
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            *(
                ((cmd, "--model", "{f1}", *extra, "--target", "1", "--k", "0=0,1=1"),
                 "argument --k: not allowed with argument --target")
                for cmd, extra in [
                    ("evaluate", ()),
                    ("grec", ("--strategy", "dyn")),
                    ("optimize", ()),
                    ("estimate", ("--data", "{rows}", "--strategy", "dyn")),
                ]
            ),
            (("stability", "--model", "{f1}", "--strategy", "nope"), "--strategy needs --numeric"),
            (("estimate", "--model", "{f1}", "--data", "{rows}", "--k", "0=0,1=1"),
             "--k and --target need --strategy"),
            (("estimate", "--model", "{f1}", "--data", "{rows}", "--target", "zzz"),
             "--k and --target need --strategy"),
        ],
    )
    def test_a_flag_that_would_be_dropped_exits_2(self, tmp_path, argv, message):
        # Each of these once printed a result and ignored one flag.
        rows = tmp_path / "rows.txt"
        run("simulate", "--model", model("f1.id"), "--regime", "obs", "--n", "50",
            "--seed", "1", "--out", str(rows))
        code, out, err = run(*(a.format(f1=model("f1.id"), rows=rows) for a in argv))
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].endswith(f"error: {message}")

    def test_usage_error(self):
        assert run("grec", "--model", model("f1.id"))[0] == 2
        # Enumeration is the only method ``evaluate`` has; it takes no flag for it.
        assert run("evaluate", "--model", model("f1.id"), "--direct")[0] == 2

    def test_first_backward_edge_reported_under_every_hash_seed(self, tmp_path):
        # The edges are kept in a frozenset: the reported one must be the
        # first in document order, not the first in hash order.
        doc = tmp_path / "backward.id"
        doc.write_text(
            "var L1 kind=obs states=0,1\nvar L2 kind=obs states=0,1\n"
            "var A kind=act states=0,1\nvar Y kind=resp states=0,1\n"
            "order L1 L2 A Y\nedge Y L1\nedge Y L2\nedge A L2\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        for seed in range(8):
            got = subprocess.run(
                [sys.executable, "-m", "regimes.cli", "seqrand", "--model", str(doc)],
                capture_output=True, text=True, env={**env, "PYTHONHASHSEED": str(seed)},
            )
            assert (got.returncode, got.stdout) == (2, "")
            assert got.stderr == "error: line 5: edge Y -> L1 goes backward in the declared order\n"

    def test_byte_identical_reports(self, tmp_path):
        commands = [
            ("stability", "--model", model("f2.id")),
            ("grec", "--model", model("f2.id"), "--strategy", "e2"),
            ("admissible", "--model", model("f3.id")),
            ("optimize", "--model", model("f1.id")),
            ("verify-general", "--model", model("f2.id"), "--strategy", "e2"),
        ]
        for argv in commands:
            a = run(*argv)
            b = run(*argv)
            assert a == b

    def test_dataset_files_bit_exact(self, tmp_path):
        f_a, f_b = tmp_path / "a.txt", tmp_path / "b.txt"
        for f in (f_a, f_b):
            run(
                "simulate", "--model", model("f1.id"), "--regime", "mix",
                "--n", "300", "--seed", "9", "--out", str(f),
            )
        assert f_a.read_bytes() == f_b.read_bytes()


def test_crash_exits_3_with_one_line(monkeypatch):
    def crash(*args):
        raise AssertionError("recursion disagrees with the oracle by 0.5")

    monkeypatch.setattr(grecursion, "g_recursion", crash)
    code, out, err = run("grec", "--model", model("f1.id"), "--strategy", "stat")
    assert (code, out) == (3, "")
    assert err == "internal error: AssertionError('recursion disagrees with the oracle by 0.5')\n"


def test_reused_parser_carries_nothing_between_calls():
    f1, f2 = model("f1.id"), model("f2.id")

    def alone(*argv):
        build_parser.cache_clear()
        return run(*argv)

    stability = alone("stability", "--model", f2, "--numeric")
    optimize = alone("optimize", "--model", f1)
    parser = build_parser()
    assert run("stability", "--model", f2, "--numeric", "--strategy", "e2")[0] == 1
    assert run("stability", "--model", f2, "--numeric") == stability
    assert kv(run("optimize", "--model", f1, "--min")[1])["sense"] == "min"
    assert run("optimize", "--model", f1) == optimize
    assert build_parser() is parser
