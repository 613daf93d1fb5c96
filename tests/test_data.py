import hashlib
import io
import itertools
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from fixtures import complete_stable, f1, f2, f3, f4, f5
from helpers import (
    conditional,
    cpt_for,
    mechanism,
    random_extended_id,
    random_strategy,
    rng,
    wide_binary_document,
)
from recursion_reference import possible
import regimes.data
from regimes.cli import main
from regimes.data import Dataset, estimate_conditionals, sample
from regimes.errors import CapacityError, InputError, PositivityError
from regimes.grecursion import g_recursion
from regimes.model import (
    Cpt,
    InfluenceDiagram,
    Variable,
    consequence_direct,
    factor_array,
    joint_distribution,
)
from regimes.parser import ModelDocument, format_model, parse_model

K01 = {"0": 0.0, "1": 1.0}
ROOT = Path(__file__).resolve().parent.parent
TERNARY = ROOT / "tests" / "golden" / "ternary.id"


def reference_sample(diagram, regime, n, seed):
    """The row-major sampler that ``sample`` replaced: an (n, K) block of
    uniforms, one radix per row over the strided parent columns, and a count
    over every cumulative column, the last clamped to at least 1."""
    raw = np.random.Philox(key=np.uint64(seed)).random_raw(n * len(diagram.order))
    u = ((raw >> np.uint64(11)) * (2.0**-53)).reshape(n, len(diagram.order))
    codes = np.empty((n, len(diagram.order)), dtype=np.int64)
    col = {v: j for j, v in enumerate(diagram.order)}
    for j, v in enumerate(diagram.order):
        parents, array = mechanism(diagram, regime, v)
        axes = diagram.sort(parents) + (v,)
        table = factor_array(axes, v, parents, array)
        cum = np.cumsum(table.reshape(-1, len(diagram.states[v])), axis=1)
        cum[:, -1] = np.maximum(cum[:, -1], 1.0)
        radix = np.zeros(n, dtype=np.int64)
        for p in axes[:-1]:
            radix = radix * len(diagram.states[p]) + codes[:, col[p]]
        codes[:, j] = (u[:, j : j + 1] >= cum[radix]).sum(axis=1)
    keep = [j for j, v in enumerate(diagram.order) if diagram.kinds[v] != "hid"]
    return codes[:, keep]


def codes_dtype(states):
    """The dtype the package stores codes in: the smallest unsigned one
    that holds every state index of the widest column."""
    return np.min_scalar_type(max(len(st) for st in states) - 1)


def reference_rows(dataset):
    """The per-cell label loop that ``Dataset.rows`` replaced."""
    for r in range(dataset.n):
        yield tuple(dataset.states[j][dataset.codes[r, j]] for j in range(len(dataset.columns)))


def widths_model(seed=6):
    """Variables of one to four states, a hidden one among them, every
    later variable reading every earlier one."""
    spec = [("L1", "obs", 1), ("L2", "obs", 3), ("U", "hid", 2), ("A1", "act", 4),
            ("L3", "obs", 2), ("A2", "act", 3), ("Y", "resp", 4)]
    states = {v: tuple("abcd"[:w]) for v, _, w in spec}
    names = [v for v, _, _ in spec]
    parents = {v: [u for u in names[:j] if not (u == "U" and v.startswith("A"))]
               for j, v in enumerate(names)}
    edges = [(u, v) for v in names for u in parents[v]]
    edges += [("sigma", v) for v, kind, _ in spec if kind == "act"]
    gen = rng(seed)
    cpts = {v: cpt_for(gen, v, parents[v], states) for v in names}
    return InfluenceDiagram([Variable(v, k, states[v]) for v, k, _ in spec], edges, cpts)


def wide_parent_model(seed=8):
    """A 256-state variable as the only parent of L, so L's table has as
    many rows as its parent has states, and a 300-state root, so the codes
    are wider than the radix of Y, which reads the binary L."""
    states = {"X": tuple(f"s{i}" for i in range(256)), "W": tuple(f"w{i}" for i in range(300)),
              "L": ("0", "1"), "Y": ("0", "1")}
    parents = {"X": [], "W": [], "L": ["X"], "Y": ["L"]}
    gen = rng(seed)
    cpts = {v: cpt_for(gen, v, parents[v], states) for v in states}
    kinds = {"X": "obs", "W": "obs", "L": "obs", "Y": "resp"}
    variables = [Variable(v, kinds[v], states[v]) for v in states]
    return InfluenceDiagram(variables, [("X", "L"), ("L", "Y")], cpts)


def wide_hidden_model(seed=10):
    """A 300-state hidden root read by the binary L and the ternary Y, so
    the sampler codes its block in uint16 and its codes in uint8."""
    states = {"U": tuple(f"u{i}" for i in range(300)), "L": ("0", "1"),
              "A": ("0", "1"), "Y": ("0", "1", "2")}
    parents = {"U": [], "L": ["U"], "A": ["L"], "Y": ["U", "L", "A"]}
    gen = rng(seed)
    cpts = {v: cpt_for(gen, v, parents[v], states) for v in states}
    kinds = {"U": "hid", "L": "obs", "A": "act", "Y": "resp"}
    variables = [Variable(v, kinds[v], states[v]) for v in states]
    edges = [(u, v) for v, ps in parents.items() for u in ps] + [("sigma", "A")]
    return InfluenceDiagram(variables, edges, cpts)


def shared_prefix_model(seed=9):
    """Roots of widths 3, 2, 4 and 2, then B over (X1, X2, X3), C over
    (X1, X2, X4), which shares only the prefix (X1, X2) with B, D over
    all four roots, which starts with B's parents but not with C's, and
    Y over (X1, X2)."""
    spec = [("X1", 3), ("X2", 2), ("X3", 4), ("X4", 2), ("B", 2), ("C", 3), ("D", 2), ("Y", 2)]
    parents = {"B": ["X1", "X2", "X3"], "C": ["X1", "X2", "X4"],
               "D": ["X1", "X2", "X3", "X4"], "Y": ["X1", "X2"]}
    states = {v: tuple("abcd"[:w]) for v, w in spec}
    gen = rng(seed)
    cpts = {v: cpt_for(gen, v, parents.get(v, []), states) for v, _ in spec}
    variables = [Variable(v, "resp" if v == "Y" else "obs", states[v]) for v, _ in spec]
    edges = [(u, v) for v, ps in parents.items() for u in ps]
    return InfluenceDiagram(variables, edges, cpts)


def sampler_cases():
    """(name, diagram, regime) triples: state widths 1-4, 256 and 300, three-state
    variables with a hidden one, a hidden variable wider than every observable
    one, hidden parents of actions, and strategies whose policies have zero
    entries."""
    ternary = parse_model(TERNARY.read_text())
    d1, s1 = f1()
    d2, s2 = f2()
    d4, s4 = f4()
    widths = widths_model()
    cases = [("widths", widths, "obs"), ("widths_rand", widths, random_strategy(widths, 1))]
    cases += [("ternary", ternary.diagram, "obs")]
    cases += [(f"ternary_{n}", ternary.diagram, ternary.strategy(n)) for n in ternary.strategies]
    cases += [("f1", d1, "obs"), ("f1_stat", d1, s1["stat"]), ("f1_mix", d1, s1["mix"])]
    cases += [("f2", d2, "obs")] + [(f"f2_{n}", d2, s) for n, s in s2.items()]
    cases += [("f4", d4, "obs")] + [(f"f4_{n}", d4, s) for n, s in s4.items()]
    cases += [("wide_parent", wide_parent_model(), "obs"), ("wide_hidden", wide_hidden_model(), "obs")]
    for seed in range(4):
        d = random_extended_id(seed, hidden_to_action=bool(seed % 2))
        cases += [(f"random{seed}", d, "obs"),
                  (f"random{seed}_hard", d, random_strategy(d, seed, deterministic=True))]
    return cases


SAMPLER_CASES = sampler_cases()


def mixed_cases():
    """(diagram, strategies) of f1-f5 and the ternary golden model."""
    for build in (f1, f2, f3, f4, f5):
        yield pytest.param(*build(), id=build.__name__)
    doc = parse_model(TERNARY.read_text())
    yield pytest.param(doc.diagram, doc.strategies, id="ternary")


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
        # The longer run spans three blocks.
        d, _ = f1()
        small = sample(d, "obs", 100, seed=5)
        big = sample(d, "obs", 3 * regimes.data.SAMPLE_ROWS, seed=5)
        assert np.array_equal(small.codes, big.codes[:100])

    def test_hidden_columns_dropped(self):
        from fixtures import f2

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
        freq = np.bincount(radix, minlength=joint.size) / n
        assert np.max(np.abs(freq - joint.reshape(-1))) < 0.01

    def test_strategy_regime_respected(self):
        d, strats = f1()
        ds = sample(d, strats["stat"], 500, seed=3)
        a1 = ds.columns.index("A1")
        assert set(ds.codes[:, a1]) == {1}

    def test_bad_n(self):
        d, _ = f1()
        with pytest.raises(InputError):
            sample(d, "obs", 0, seed=1)

    def test_rows_beyond_memory_are_a_capacity_error(self):
        # 10^15 rows of five one-byte codes would need 5 PB, more than any
        # address space: the codes allocation fails at once, before any draw.
        d, _ = f1()
        with pytest.raises(CapacityError, match="n = 1000000000000000 rows"):
            sample(d, "obs", 10**15, seed=1)

    @pytest.mark.parametrize("n", [2**62, 10**20])
    def test_rows_beyond_any_array_shape_are_a_capacity_error(self, n):
        # numpy refuses these shapes with ValueError, not MemoryError: 2^62
        # rows of five bytes overflow the byte count, 10^20 overflows an index.
        d, _ = f1()
        with pytest.raises(CapacityError, match=f"n = {n} rows"):
            sample(d, "obs", n, seed=1)

    @pytest.mark.parametrize("n, seed", [(10, 1.5), (10.0, 1), ("3", 1), (10, "3")])
    def test_non_integer_n_or_seed_rejected(self, n, seed):
        # A float seed was truncated (1.5 gave seed 1's rows and recorded
        # seed=1.5); a float n raised a bare TypeError.
        d, _ = f1()
        with pytest.raises(InputError):
            sample(d, "obs", n, seed)

    def test_numpy_integers_accepted(self):
        d, _ = f1()
        got = sample(d, "obs", np.int64(10), np.uint64(3))
        want = sample(d, "obs", 10, 3)
        assert np.array_equal(got.codes, want.codes)


class TestSamplerReference:
    @pytest.mark.parametrize("case", SAMPLER_CASES, ids=[c[0] for c in SAMPLER_CASES])
    def test_codes_bitwise_the_row_major_loop(self, case):
        _, diagram, regime = case
        for n, seed in ((1, 0), (997, 7), (3000, 2**64 - 1)):
            got = sample(diagram, regime, n, seed).codes
            want_dtype = codes_dtype([diagram.states[v] for v in diagram.base.vars])
            assert got.dtype == want_dtype and got.flags.c_contiguous
            assert np.array_equal(got, reference_sample(diagram, regime, n, seed))

    @pytest.mark.parametrize("d, strategies", mixed_cases())
    def test_mixed_regimes_bitwise_the_row_major_loop(self, d, strategies):
        # Each action's entry of the list picks its table, as in
        # joint_distribution: P_i and its mirror image, for every i.
        for s in strategies.values():
            whole = sample(d, s, 997, seed=5).codes
            assert np.array_equal(sample(d, [s] * d.n, 997, seed=5).codes, whole)
            for i in range(d.n + 1):
                for regime in (["obs"] * i + [s] * (d.n - i), [s] * i + ["obs"] * (d.n - i)):
                    got = sample(d, regime, 997, seed=5).codes
                    assert np.array_equal(got, reference_sample(d, regime, 997, 5)), regime

    def test_mixed_regime_of_the_wrong_length_rejected_as_by_the_joint(self):
        d, strats = f1()
        for regime in (["obs"], ["obs", strats["mix"], "obs"], []):
            with pytest.raises(InputError) as want:
                joint_distribution(d, regime)
            with pytest.raises(InputError) as got:
                sample(d, regime, 10, seed=1)
            assert str(got.value) == str(want.value)

    def test_cumulative_column_equal_to_a_drawn_uniform(self):
        # Find the uniform first, then write the table around it: row 3's
        # draw for X lands exactly on X's first cumulative column.  Y's row
        # under x1 sums to just under 1, so its last column is clamped.
        seed, n = 19, 50
        raw = np.random.Philox(key=np.uint64(seed)).random_raw(n * 2).reshape(n, 2)
        u = float((raw[3, 0] >> np.uint64(11)) * 2.0**-53)
        short = (0.7, 0.2, 0.1)
        assert np.cumsum(short)[-1] < 1.0
        vs = [Variable("X", "obs", ("x0", "x1")), Variable("Y", "resp", ("0", "1", "2"))]
        cpts = {
            "X": Cpt("X", (), {(): (u, 1.0 - u)}),
            "Y": Cpt("Y", ("X",), {("x0",): (u, 0.0, 1.0 - u), ("x1",): short}),
        }
        d = InfluenceDiagram(vs, [("X", "Y")], cpts)
        got = sample(d, "obs", n, seed).codes
        assert got[3, 0] == 1  # u >= cum[0]: the boundary belongs to the next state
        assert np.array_equal(got, reference_sample(d, "obs", n, seed))

    def test_cumulative_column_one_ulp_above_a_drawn_uniform(self):
        # u = m * 2**-53 < 0.5, so the next double up lies strictly between
        # m and m + 1 in units of 2**-53: its threshold is ceil'd to m + 1
        # and that row's u is not counted.
        seed, n = 23, 50
        raw = np.random.Philox(key=np.uint64(seed)).random_raw(n * 2).reshape(n, 2)
        m = raw[:, 0] >> np.uint64(11)
        r = int(np.flatnonzero((m >= 2**51) & (m < 2**52))[0])
        u = float(m[r] * 2.0**-53)
        c = float(np.nextafter(u, 1.0))
        assert c * 2**53 != int(c * 2**53) and c < 0.5
        vs = [Variable("X", "obs", ("x0", "x1")), Variable("Y", "resp", ("0", "1"))]
        cpts = {
            "X": Cpt("X", (), {(): (c, 1.0 - c)}),
            "Y": Cpt("Y", ("X",), {("x0",): (0.5, 0.5), ("x1",): (0.25, 0.75)}),
        }
        d = InfluenceDiagram(vs, [("X", "Y")], cpts)
        got = sample(d, "obs", n, seed).codes
        assert got[r, 0] == 0
        assert np.array_equal(got, reference_sample(d, "obs", n, seed))

    def test_counted_cumulative_column_above_one(self):
        # The second cumulative column is counted and exceeds 1 within the
        # row-sum tolerance: its threshold is above 2**53, so no row reaches
        # state 2.
        seed, n = 4, 5000
        row = (0.6, 0.4 + 1e-12, 0.0)
        assert np.cumsum(row)[1] > 1.0
        vs = [Variable("X", "obs", ("x0", "x1")), Variable("Y", "resp", ("0", "1", "2"))]
        cpts = {
            "X": Cpt("X", (), {(): (0.5, 0.5)}),
            "Y": Cpt("Y", ("X",), {("x0",): row, ("x1",): row}),
        }
        d = InfluenceDiagram(vs, [("X", "Y")], cpts)
        got = sample(d, "obs", n, seed).codes
        assert set(np.unique(got[:, 1])) == {0, 1}
        assert np.array_equal(got, reference_sample(d, "obs", n, seed))

    @pytest.mark.parametrize("rows", [1, 3, 5, None])
    def test_codes_bitwise_across_block_boundaries(self, rows, monkeypatch):
        # K = 7 and K = 4 draws per row: blocks of 1, 3 and 5 rows end
        # inside one of Philox's four-word outputs, so the stream must
        # carry over between random_raw calls.
        if rows is not None:
            monkeypatch.setattr(regimes.data, "SAMPLE_ROWS", rows)
        size = regimes.data.SAMPLE_ROWS
        ternary = parse_model(TERNARY.read_text())
        widths = widths_model()
        # complete5's radix over its first eight variables fits uint8 and
        # A5's extension of it needs uint16; its "dyn" actions read one
        # parent each, which breaks the chain of radices; wide_parent codes
        # its block in uint16, and wide_hidden narrows its uint16 block into
        # uint8 codes.
        complete5, strategies = complete_stable(5, seed=3)
        cases = [(widths, "obs"), (ternary.diagram, "obs"), (widths, random_strategy(widths, 1)),
                 (complete5, "obs"), (complete5, strategies["dyn"]), (shared_prefix_model(), "obs"),
                 (wide_parent_model(), "obs"), (wide_hidden_model(), "obs")]
        for diagram, regime in cases:
            for n in (size - 1, size, size + 1, 2 * size + 3):
                if n < 1:
                    continue
                got = sample(diagram, regime, n, seed=11).codes
                assert np.array_equal(got, reference_sample(diagram, regime, n, 11)), (n, regime)

    @staticmethod
    def traced_peak(run):
        tracemalloc.start()
        try:
            out = run()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def memory_case(self):
        """complete_stable(5): eleven binary columns, so one byte per code,
        and the per-block scratch: two blocks' worth of raw draws, which
        covers one block's draws and its gathers (a block's draws are freed
        before the next block's are drawn)."""
        diagram, _ = complete_stable(5, seed=2)
        n, k = 200_000, len(diagram.order)
        out_bytes = n * len(diagram.base.vars)
        scratch = 2 * 8 * regimes.data.SAMPLE_ROWS * k
        estimate_conditionals(sample(diagram, "obs", 10, seed=1), diagram.base)
        return diagram, n, out_bytes, scratch

    def test_peak_memory_tracks_the_output(self):
        # int64 codes would take eight bytes per code and overshoot the bound.
        diagram, n, out_bytes, scratch = self.memory_case()
        ds, peak = self.traced_peak(lambda: sample(diagram, "obs", n, seed=1))
        assert peak <= out_bytes + scratch, (peak, out_bytes, scratch)
        assert ds.codes.nbytes == out_bytes

    def test_peak_memory_of_sample_then_estimate(self):
        # Estimation adds one intp cell index per row, numpy's iterator
        # buffers (within the scratch) and four tables of 2**11 float counts.
        diagram, n, out_bytes, scratch = self.memory_case()
        tables = 4 * 8 * 2 ** len(diagram.base.vars)

        def run():
            ds = sample(diagram, "obs", n, seed=1)
            return ds, estimate_conditionals(ds, diagram.base)

        (ds, _), peak = self.traced_peak(run)
        assert peak <= out_bytes + 8 * n + tables + scratch, (peak, out_bytes, scratch)
        assert ds.codes.nbytes == out_bytes

    def test_peak_memory_within_twice_the_raw_draws(self):
        diagram, _ = complete_stable(5, seed=2)
        n, k = 20_000, len(diagram.order)
        assert k >= 10
        sample(diagram, "obs", 10, seed=1)
        tracemalloc.start()
        sample(diagram, "obs", n, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 2 * 8 * n * k, peak / (8 * n * k)


# sha256 of the file ``regimes simulate --n 500 --seed 2026`` writes; they pin
# the Philox contract without reference to any code.
SIMULATE_SHA256 = {
    ("f1.id", "obs"): "976465bdc65b7f0ff20c217bbd60405abf4819f36e30672bae1179d8b8dbfd89",
    ("f1.id", "mix"): "fbaab4d681a3873ff698fb8ce3df1b2ff3cc29854aa4e3cc077e00477bca0978",
    ("f4.id", "obs"): "3b42cca01434f418ce13daae37d9133d5c07e3b03c11b2a83362c9e25c5cc847",
    ("f4.id", "e"): "49077699ff53297c309900a2b650e77c2a96ce5046e18c6964f95cea3fc09e5c",
    ("ternary.id", "obs"): "755ee64c88471d4e6e1820cbb8f22418719a6102f50b79f18e8bccec7db4ab17",
    ("ternary.id", "adaptive"): "a3557c1ad44703dea974f1b0f5a7e4e1eca42a6c0b106780e868d195fdde78e2",
}


@pytest.mark.parametrize("model, regime", sorted(SIMULATE_SHA256))
def test_simulate_output_golden(model, regime, tmp_path):
    path = ROOT / "models" / model if model != "ternary.id" else TERNARY
    out_file = tmp_path / "rows.txt"
    with redirect_stdout(io.StringIO()):
        code = main(["simulate", "--model", str(path), "--regime", regime,
                     "--n", "500", "--seed", "2026", "--out", str(out_file)])
    assert code == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == SIMULATE_SHA256[model, regime]


def estimate_case(seed: int):
    """A small random diagram and 30 observational rows: few enough that
    some pasts have no rows."""
    d = random_extended_id(seed, n_actions=1 + seed % 2, hidden_to_action=seed % 3 == 0)
    return d, sample(d, "obs", 30, seed=seed)


def reference_conditionals(d, ds, alpha: float) -> dict:
    """Each ``cond[i|past]`` key ``estimate`` prints, in its order, with the
    label-level ``conditional`` of the block given the past: the count
    table summed down to the block, each cell plus ``alpha``.  None where
    that event has no mass, which is where the past has no rows, unsmoothed."""
    counts = np.zeros(tuple(len(states) for states in ds.states))
    for row in ds.rows():
        counts[tuple(states.index(s) for states, s in zip(ds.states, row))] += 1.0
    base, out = d.base, {}
    for i, lo, hi, _ in base.stages:
        table = counts.sum(axis=tuple(range(hi, counts.ndim))) + alpha
        past, block = base.vars[:lo], base.vars[lo:hi]
        for config in itertools.product(*(base.states[v] for v in past)):
            cond = conditional(d, table, block, dict(zip(past, config)))
            key = f"cond[{i}|{','.join(config) or '-'}]"
            out[key] = None if cond is None else list(cond.values())
    return out


@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize("seed", range(8))
def test_estimate_prints_the_label_level_conditionals(seed, alpha, tmp_path):
    """``estimate`` without a strategy prints every stage's conditional for
    every past, ``undefined`` exactly where the reference has none."""
    d, ds = estimate_case(seed)
    model, rows = tmp_path / "model.id", tmp_path / "rows.txt"
    model.write_text(format_model(ModelDocument(d, {})))
    rows.write_text(ds.to_text())
    out = io.StringIO()
    with redirect_stdout(out):
        argv = ["estimate", "--model", str(model), "--data", str(rows), "--alpha", str(alpha)]
        assert main(argv) == 0
    printed = dict(line.split("=", 1) for line in out.getvalue().splitlines())
    want = reference_conditionals(d, ds, alpha)
    assert list(printed) == list(want)
    for key, row in want.items():
        if row is None:
            assert printed[key] == "undefined", key
        else:
            got = [float(p) for p in printed[key].split(",")]
            assert len(got) == len(row), key
            assert max(abs(g - w) for g, w in zip(got, row)) <= 1e-12, key


def test_estimate_cases_reach_both_kinds_of_line():
    """Unsmoothed, the cases above print both ``undefined`` and numbers;
    smoothed, numbers only."""
    for alpha in (0.0, 0.5):
        rows = [
            row
            for seed in range(8)
            for row in reference_conditionals(*estimate_case(seed), alpha).values()
        ]
        assert any(row is not None for row in rows)
        assert any(row is None for row in rows) == (alpha == 0.0)


class TestDatasetText:
    @pytest.mark.parametrize("case", SAMPLER_CASES[:6], ids=[c[0] for c in SAMPLER_CASES[:6]])
    def test_rows_and_text_match_the_per_cell_loop(self, case):
        _, diagram, regime = case
        ds = sample(diagram, regime, 400, seed=3)
        want = list(reference_rows(ds))
        assert list(ds.rows()) == want
        text = " ".join(ds.columns) + "\n" + "".join(" ".join(row) + "\n" for row in want)
        assert ds.to_text() == text

    def test_empty_dataset_text(self):
        d, _ = f1()
        header = " ".join(d.base.vars) + "\n"
        ds = Dataset.from_text(header, d.base)
        assert list(ds.rows()) == [] and ds.to_text() == header

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


def per_cell_codes(text, base):
    """The dataset reader as it was, one dict lookup per cell: the
    reference for ``Dataset.from_text``'s codes and its first error."""
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise InputError("empty dataset")
    columns = tuple(lines[0].split())
    if columns != base.vars:
        raise InputError(
            f"dataset columns {columns} do not match the information base {base.vars}"
        )
    index = [{s: j for j, s in enumerate(base.states[v])} for v in columns]
    codes = np.empty((len(lines) - 1, len(columns)), dtype=np.int64)
    for r, line in enumerate(lines[1:]):
        cells = line.split()
        if len(cells) != len(columns):
            raise InputError(f"row {r + 1} has {len(cells)} cells, want {len(columns)}")
        for j, cell in enumerate(cells):
            if cell not in index[j]:
                raise InputError(f"row {r + 1}: {cell!r} is not a state of {columns[j]}")
            codes[r, j] = index[j][cell]
    return codes


def read_outcome(reader, text, base):
    try:
        return ("ok", reader(text, base))
    except InputError as exc:
        return ("error", str(exc))


def column_reader(text, base):
    ds = Dataset.from_text(text, base)
    assert ds.codes.dtype == codes_dtype(ds.states) and ds.codes.flags.c_contiguous
    assert ds.states == tuple(base.states[v] for v in ds.columns)
    return ds.codes


def same_outcome(text, base):
    got, want = read_outcome(column_reader, text, base), read_outcome(per_cell_codes, text, base)
    assert got[0] == want[0], (got, want)
    if want[0] == "ok":
        assert np.array_equal(got[1], want[1]) and got[1].shape == want[1].shape
    else:
        assert got[1] == want[1]
    return want


class TestColumnReader:
    """``Dataset.from_text`` reads by columns, a block of rows at a time;
    it must give the per-cell reader's codes and its first error."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(regimes.data, "SAMPLE_ROWS", 7)

    @pytest.mark.parametrize("case", SAMPLER_CASES[:6], ids=[c[0] for c in SAMPLER_CASES[:6]])
    def test_valid_text_matches(self, case):
        _, diagram, regime = case
        base = diagram.base
        text = sample(diagram, regime, 60, seed=5).to_text()
        gen = rng(11)
        lines = []
        for line in text.splitlines():
            if gen.random() < 0.2:
                lines.append("  # a comment" if gen.random() < 0.5 else " \t ")
            lines.append(line.replace(" ", " \t  ") if gen.random() < 0.3 else "  " + line + " ")
        for variant in (text, "\n".join(lines), "\r\n".join(lines) + "\r\n"):
            assert same_outcome(variant, base)[0] == "ok"

    def errors(self):
        d, _ = f1()
        header = " ".join(d.base.vars)
        good = ["0 0 0 0 0", "1 0 1 1 0", "0 1 1 0 1"] * 5  # 15 rows: three blocks
        cases = {
            "empty": "",
            "only_comments": "# nothing\n\n  # still nothing\n",
            "columns": "L1 A1\n0 1\n",
            "columns_order": " ".join(reversed(d.base.vars)) + "\n",
            "short_row": good[:9] + ["0 0 0 0"] + good[9:],
            "long_row": good[:3] + ["0 0 0 0 0 0"],
            "unknown_cell": good[:10] + ["0 0 2 0 0"],
            "unknown_first_cell": ["x 0 0 0 0"] + good,
            "unknown_before_short": good[:8] + ["0 0 0 9 0"] + good[:2] + ["0"],
            "short_before_unknown": good[:8] + ["0 0"] + good[:2] + ["0 0 0 9 0"],
            "short_and_unknown_same_row": good[:4] + ["0 0 9 0"],
            "two_unknown_same_row": good[:5] + ["0 0 7 8 0"],
            "unknown_later_column_earlier_row": good[:2] + ["0 0 0 0 5"] + good[:6] + ["5 0 0 0 0"],
            "unknown_in_last_block": good + ["0 0 0 0 q"],
            "comment_mark_inside_row": good[:3] + ["0 0 #0 0 0"],
        }
        return d.base, {
            name: rows if isinstance(rows, str) else "\n".join([header] + rows) + "\n"
            for name, rows in cases.items()
        }

    def test_every_error_kind_matches(self):
        base, cases = self.errors()
        for name, text in cases.items():
            assert same_outcome(text, base)[0] == "error", name

    def test_error_messages_name_the_first_bad_row(self):
        base, cases = self.errors()
        assert read_outcome(column_reader, cases["unknown_before_short"], base) == (
            "error", "row 9: '9' is not a state of A2",
        )
        assert read_outcome(column_reader, cases["short_before_unknown"], base) == (
            "error", "row 9 has 2 cells, want 5",
        )
        assert read_outcome(column_reader, cases["unknown_later_column_earlier_row"], base) == (
            "error", "row 3: '5' is not a state of Y",
        )


class TestCodesDtype:
    @pytest.mark.parametrize("case", SAMPLER_CASES, ids=[c[0] for c in SAMPLER_CASES])
    def test_text_round_trip_keeps_the_dtype(self, case):
        _, diagram, regime = case
        ds = sample(diagram, regime, 300, seed=14)
        back = Dataset.from_text(ds.to_text(), diagram.base).codes
        assert back.dtype == codes_dtype(ds.states) and back.flags.c_contiguous
        assert np.array_equal(back, ds.codes)

    def test_wide_parent_round_trips_as_uint16(self):
        d = wide_parent_model()
        ds = sample(d, "obs", 2000, seed=13)
        back = Dataset.from_text(ds.to_text(), d.base)
        assert ds.codes.dtype == back.codes.dtype == np.uint16
        assert back.codes.flags.c_contiguous and np.array_equal(back.codes, ds.codes)
        wide = Dataset(ds.columns, ds.states, ds.codes.astype(np.int64))
        full = len(d.base.vars)
        want = estimate_conditionals(wide, d.base).marginal(full)
        for narrow in (ds, back):
            assert np.array_equal(estimate_conditionals(narrow, d.base).marginal(full), want)


class TestEstimation:
    def test_count_table_over_the_cap_is_refused_before_allocation(self):
        # 48 binary columns would need 2^48 count cells.  The joint cap
        # refuses them before the per-row cells (512 KiB here) or the counts
        # are allocated.
        base = parse_model(wide_binary_document(48)).diagram.base
        codes = np.zeros((1 << 16, len(base.vars)), dtype=np.uint8)
        ds = Dataset(base.vars, tuple(base.states[v] for v in base.vars), codes)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=r"would need 281474976710656 cells"):
                estimate_conditionals(ds, base)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak

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
        assert np.allclose(src.given(0, 1), [0.25, 0.75])
        assert np.allclose(src.given(2, 3)[1, 0], [0.2, 0.8])
        assert not possible(src, ("0", "1"))

    def test_empty_cell_undefined_at_alpha_zero(self):
        d, _ = f1()
        header = " ".join(d.base.vars)
        ds = Dataset.from_text(header + "\n0 0 0 0 0\n", d.base)
        src = estimate_conditionals(ds, d.base, alpha=0.0)
        assert not possible(src, ("0", "1")) and not possible(src, ("1",))
        assert src.given(2, 3)[0, 1].tolist() == [0.0, 0.0]

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
        assert possible(src, ("0", "1")) and possible(src, ("1",))
        assert abs(src.given(2, 3)[0, 1].sum() - 1.0) < 1e-12

    def test_estimated_recursion_close_to_oracle(self):
        d, strats = f1()
        ds = sample(d, "obs", 200_000, seed=1)
        src = estimate_conditionals(ds, d.base, alpha=0.5)
        for s in strats.values():
            got = g_recursion(src, s, K01)
            want = consequence_direct(d, s, K01)
            assert abs(got - want) < 0.02

    def test_states_other_than_the_base_rejected(self):
        # The same rows under each column's states reversed, and under an
        # extra state, were read as codes of the base's states.
        d, _ = f1()
        ds = sample(d, "obs", 5000, 3)
        flipped = Dataset(ds.columns, tuple(st[::-1] for st in ds.states), 1 - ds.codes)
        assert list(flipped.rows()) == list(ds.rows())
        wider = Dataset(ds.columns, ds.states[:-1] + (ds.states[-1] + ("2",),), ds.codes)
        for bad in (flipped, wider):
            with pytest.raises(InputError, match="states"):
                estimate_conditionals(bad, d.base)

    @pytest.mark.parametrize("code", [2, -1])
    def test_codes_outside_the_states_rejected(self, code):
        d, _ = f1()
        ds = sample(d, "obs", 50, 3)
        codes = ds.codes.astype(np.int64)  # a caller's signed array
        codes[7, 2] = code
        bad = Dataset(ds.columns, ds.states, codes)
        with pytest.raises(InputError, match="codes"):
            estimate_conditionals(bad, d.base)

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int64])
    @pytest.mark.parametrize("column", [0, 2, 4])
    def test_negative_codes_of_signed_dtypes_rejected(self, dtype, column):
        d, _ = f1()
        codes = sample(d, "obs", 50, 3).codes.astype(dtype)
        codes[11, column] = -1
        bad = Dataset(d.base.vars, tuple(d.states[v] for v in d.base.vars), codes)
        with pytest.raises(InputError, match="outside their columns' states"):
            estimate_conditionals(bad, d.base)

    @pytest.mark.parametrize("model", ["f1", "ternary"])
    @pytest.mark.parametrize("column", [0, 1, -1])
    def test_code_equal_to_its_column_width_rejected(self, model, column):
        # In a middle column such a code would carry into the next digit of
        # a valid cell; the ternary model also has codes at or above the
        # narrowest width that are valid in their own columns.
        d = f1()[0] if model == "f1" else parse_model(TERNARY.read_text()).diagram
        ds = sample(d, "obs", 200, 5)
        codes = ds.codes.copy()
        codes[17, column] = len(ds.states[column])
        bad = Dataset(ds.columns, ds.states, codes)
        with pytest.raises(InputError, match="outside their columns' states"):
            estimate_conditionals(bad, d.base)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
    @pytest.mark.parametrize("model", ["f1", "ternary"])
    def test_counts_equal_ravel_multi_index_cells(self, dtype, model):
        d = f1()[0] if model == "f1" else parse_model(TERNARY.read_text()).diagram
        states = tuple(d.states[v] for v in d.base.vars)
        cards = tuple(map(len, states))
        gen = rng(7)
        codes = np.stack([gen.integers(0, c, size=3000) for c in cards], axis=1).astype(dtype)
        cells = np.ravel_multi_index(tuple(codes.T), cards)
        want = np.bincount(cells, minlength=int(np.prod(cards))).reshape(cards).astype(float)
        got = estimate_conditionals(Dataset(d.base.vars, states, codes), d.base, 0.0)
        assert got.marginal(len(cards)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["float", "bool", "one_column_short", "two_columns",
                                      "one_dimensional", "three_dimensional", "list"])
    def test_malformed_codes_rejected(self, kind):
        # Float codes raised numpy's TypeError, and a (50, 2) array was
        # reported as codes outside the states.
        d, _ = f1()
        ds = sample(d, "obs", 50, 3)
        codes, message = {
            "float": (ds.codes.astype(float), "integer dtype, got float64"),
            "bool": (ds.codes.astype(bool), "integer dtype, got bool"),
            "one_column_short": (ds.codes[:, :4], r"shape \(n, 5\).*got \(50, 4\)"),
            "two_columns": (ds.codes[:, :2], r"shape \(n, 5\).*got \(50, 2\)"),
            "one_dimensional": (ds.codes.ravel(), r"got \(250,\)"),
            "three_dimensional": (ds.codes[None], r"got \(1, 50, 5\)"),
            "list": (ds.codes.tolist(), "numpy array, got list"),
        }[kind]
        bad = Dataset(ds.columns, ds.states, codes)
        with pytest.raises(InputError, match=message):
            estimate_conditionals(bad, d.base)

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint32, np.uint64])
    def test_any_integer_dtype_gives_the_same_counts(self, dtype):
        d, _ = f1()
        ds = sample(d, "obs", 500, 3)
        full = len(d.base.vars)
        want = estimate_conditionals(ds, d.base).marginal(full)
        other = Dataset(ds.columns, ds.states, ds.codes.astype(dtype))
        assert np.array_equal(estimate_conditionals(other, d.base).marginal(full), want)

    def test_negative_alpha_rejected(self):
        d, _ = f1()
        ds = sample(d, "obs", 10, seed=0)
        with pytest.raises(InputError):
            estimate_conditionals(ds, d.base, alpha=-1.0)

    def test_alpha_that_overflows_a_row_total_rejected(self):
        # At alpha = 1e308 a smoothed row total, count + alpha * width,
        # overflowed to inf and every smoothed row read 0.  At 1e300 every
        # row is uniform to the last bit, so the consequence is 0.5.
        d, strats = f1()
        ds = sample(d, "obs", 10, seed=0)
        with pytest.raises(InputError, match="alpha"):
            estimate_conditionals(ds, d.base, alpha=1e308)
        source = estimate_conditionals(ds, d.base, alpha=1e300)
        assert g_recursion(source, strats["dyn"], K01) == 0.5


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
