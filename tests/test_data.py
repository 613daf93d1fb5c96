import numpy as np
import pytest

from regimes.data import Dataset, EstimatedSource, estimate_conditionals, sample
from regimes.errors import InputError, PositivityError
from regimes.fixtures import f1
from regimes.grecursion import g_recursion
from regimes.model import (
    UNDEFINED,
    Cpt,
    InfluenceDiagram,
    Variable,
    consequence_direct,
    joint_distribution,
)

K01 = {"0": 0.0, "1": 1.0}


class TestSample:
    def test_point_mass_tables_give_unique_row(self):
        vs = [Variable("L", "obs", ("x", "y")), Variable("Y", "resp", ("0", "1"))]
        cpts = {
            "L": Cpt("L", (), {(): (0.0, 1.0)}),
            "Y": Cpt("Y", ("L",), {("x",): (1.0, 0.0), ("y",): (0.0, 1.0)}),
        }
        d = InfluenceDiagram(vs, [("L", "Y")], cpts)
        ds = sample(d, "obs", 1, seed=0)
        assert list(ds.rows()) == [("y", "1")]

    def test_same_seed_bit_identical(self):
        d, _ = f1()
        a = sample(d, "obs", 997, seed=42)
        b = sample(d, "obs", 997, seed=42)
        assert np.array_equal(a.codes, b.codes)
        assert a.to_text() == b.to_text()

    def test_different_seeds_differ(self):
        d, _ = f1()
        a = sample(d, "obs", 997, seed=1)
        b = sample(d, "obs", 997, seed=2)
        assert not np.array_equal(a.codes, b.codes)

    def test_row_prefix_stability(self):
        d, _ = f1()
        small = sample(d, "obs", 100, seed=5)
        big = sample(d, "obs", 1000, seed=5)
        assert np.array_equal(small.codes, big.codes[:100])

    def test_hidden_columns_dropped(self):
        from regimes.fixtures import f2

        d, _ = f2()
        ds = sample(d, "obs", 10, seed=0)
        assert ds.columns == ("A1", "L2", "A2", "Y")

    def test_empirical_frequencies_near_joint(self):
        d, _ = f1()
        n = 200_000
        ds = sample(d, "obs", n, seed=1)
        joint = joint_distribution(d, "obs")
        radix = np.zeros(n, dtype=np.int64)
        for j in range(len(ds.columns)):
            radix = radix * 2 + ds.codes[:, j]
        freq = np.bincount(radix, minlength=joint.probs.size) / n
        assert np.max(np.abs(freq - joint.probs.reshape(-1))) < 0.01

    def test_strategy_regime_respected(self):
        d, strats = f1()
        ds = sample(d, strats["stat"], 500, seed=3)
        a1 = ds.columns.index("A1")
        assert set(ds.codes[:, a1]) == {1}

    def test_bad_n(self):
        d, _ = f1()
        with pytest.raises(InputError):
            sample(d, "obs", 0, seed=1)


class TestDatasetText:
    def test_round_trip_with_comments(self):
        d, _ = f1()
        ds = sample(d, "obs", 25, seed=8)
        text = "# generated for tests\n" + ds.to_text()
        back = Dataset.from_text(text, d.base)
        assert np.array_equal(back.codes, ds.codes)
        assert text.endswith("\n")

    def test_schema_mismatch_rejected(self):
        d, _ = f1()
        with pytest.raises(InputError):
            Dataset.from_text("L1 A1\n0 1\n", d.base)

    def test_unknown_state_rejected(self):
        d, _ = f1()
        header = " ".join(d.base.vars)
        with pytest.raises(InputError):
            Dataset.from_text(header + "\n0 0 0 0 2\n", d.base)


class TestEstimation:
    def test_exact_proportions_recover_conditionals(self):
        # a dataset replicating the joint's exact proportions reproduces
        # the true conditionals at alpha=0
        vs = [
            Variable("L", "obs", ("0", "1")),
            Variable("A", "act", ("0", "1")),
            Variable("Y", "resp", ("0", "1")),
        ]
        cpts = {
            "L": Cpt("L", (), {(): (0.25, 0.75)}),
            "A": Cpt("A", ("L",), {("0",): (0.5, 0.5), ("1",): (0.5, 0.5)}),
            "Y": Cpt("Y", ("L", "A"), {c: (0.5, 0.5) for c in
                                       [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]}),
        }
        d = InfluenceDiagram(
            vs, [("L", "A"), ("L", "Y"), ("A", "Y"), ("sigma", "A")], cpts
        )
        rows = ["L A Y"]
        rows += ["0 0 0"] * 10 + ["0 0 1"] * 10  # p(Y | L=0, A=0) = .5/.5
        rows += ["1 0 0"] * 12 + ["1 0 1"] * 48  # p(Y | L=1, A=0) = .2/.8
        ds = Dataset.from_text("\n".join(rows) + "\n", d.base)
        src = estimate_conditionals(ds, d.base, alpha=0.0)
        assert np.allclose(src.l_conditional(1, ()), [0.25, 0.75])
        assert np.allclose(src.l_conditional(2, ("1", "0")), [0.2, 0.8])
        assert src.l_conditional(2, ("0", "1")) is UNDEFINED

    def test_empty_cell_undefined_at_alpha_zero(self):
        d, _ = f1()
        header = " ".join(d.base.vars)
        ds = Dataset.from_text(header + "\n0 0 0 0 0\n", d.base)
        src = estimate_conditionals(ds, d.base, alpha=0.0)
        assert src.l_conditional(2, ("0", "1")) is UNDEFINED
        assert not src.possible(("1",))

    def test_no_rows_fail_positivity_at_the_root(self):
        d, strats = f1()
        ds = Dataset.from_text(" ".join(d.base.vars) + "\n", d.base)
        with pytest.raises(PositivityError) as err:
            g_recursion(estimate_conditionals(ds, d.base, alpha=0.0), strats["stat"], K01)
        assert err.value.history == ()

    def test_smoothing_never_undefined(self):
        d, _ = f1()
        header = " ".join(d.base.vars)
        ds = Dataset.from_text(header + "\n0 0 0 0 0\n", d.base)
        src = estimate_conditionals(ds, d.base, alpha=0.5)
        cond = src.l_conditional(2, ("0", "1"))
        assert cond is not UNDEFINED and abs(cond.sum() - 1.0) < 1e-12
        assert src.possible(("1",))

    def test_estimated_recursion_close_to_oracle(self):
        d, strats = f1()
        ds = sample(d, "obs", 200_000, seed=1)
        src = estimate_conditionals(ds, d.base, alpha=0.5)
        for s in strats.values():
            got = g_recursion(src, s, K01)
            want = consequence_direct(d, s, K01)
            assert abs(got - want) < 0.02

    def test_negative_alpha_rejected(self):
        d, _ = f1()
        ds = sample(d, "obs", 10, seed=0)
        with pytest.raises(InputError):
            EstimatedSource(ds, d.base, alpha=-1.0)


class TestConsistency:
    def test_error_shrinks_with_n(self):
        d, strats = f1()
        s = strats["mix"]
        exact = consequence_direct(d, s, K01)
        medians = []
        for n in (1000, 10_000, 100_000):
            errs = []
            for seed in range(7):
                ds = sample(d, "obs", n, seed=seed)
                src = estimate_conditionals(ds, d.base, alpha=0.5)
                errs.append(abs(g_recursion(src, s, K01) - exact))
            medians.append(float(np.median(errs)))
        assert medians[0] >= medians[1] >= medians[2]
        assert medians[2] <= 0.02
