"""Golden CLI transcript: stdout and exit code of every command but
``simulate``.

Covers ``grec``, ``evaluate``, ``verify-general``, ``optimize`` and
``optimize --min`` for every shipped model and strategy and for
``golden/ternary.id`` (three-state variables, a two-variable covariate
block, a hidden variable), plus ``estimate`` at ``--alpha 0`` and at the
default alpha on one fixed ``simulate`` dataset.  ``verify-general``
prints the last-bit gap between the recursion and the oracle, so a
change in summation order fails here, not only in the benchmark's
digests; the binary shipped models alone cannot show it, since two terms
add the same way in either order.

The identification commands (``stability``, ``seqrand``, ``seqirrel``,
``positivity``, ``graphsep`` and ``admissible`` with every ``--order``
permutation, each with and without ``--improve``) run on the same models
and on ``golden/orderings.id``: ``random_extended_id(1, n_actions=4,
p_edge=0.3, hidden_to_action=True)`` from ``helpers`` written by
``format_model``, whose actions have five consistent orderings, none
admissible.

Regenerate the stored text (only when an output change is intended) with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import io
import itertools
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from regimes.cli import main
from regimes.parser import parse_model

MODELS = Path(__file__).resolve().parent.parent / "models"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN = GOLDEN_DIR / "cli_transcript.txt"
DATA_MODEL, DATA_ROWS, DATA_SEED = "f1.id", 300, 11


def _run(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _strategies(path: Path):
    return re.findall(r"^strategy (\S+)", path.read_text(encoding="utf-8"), re.M)


def _commands(data: str):
    models = sorted(MODELS.glob("*.id")) + [GOLDEN_DIR / "ternary.id"]
    for path in models:
        m = ["--model", str(path)]
        for name in _strategies(path):
            for cmd in ("grec", "evaluate", "verify-general"):
                yield [cmd, *m, "--strategy", name]
        yield ["optimize", *m]
        yield ["optimize", *m, "--min"]
    m = ["--model", str(MODELS / DATA_MODEL), "--data", data]
    for alpha in (["--alpha", "0"], []):
        yield ["estimate", *m, *alpha]
        for name in _strategies(MODELS / DATA_MODEL):
            yield ["estimate", *m, *alpha, "--strategy", name]
    for path in models + [GOLDEN_DIR / "orderings.id"]:
        yield from _identification_commands(path)


def _identification_commands(path: Path):
    m = ["--model", str(path)]
    names = _strategies(path)
    yield ["stability", *m]
    for name in names:
        yield ["stability", *m, "--numeric", "--strategy", name]
    yield ["seqrand", *m]
    for name in names:
        yield ["seqirrel", *m, "--strategy", name]
        yield ["positivity", *m, "--strategy", name]
    yield ["graphsep", *m]
    for name in names:
        yield ["graphsep", *m, "--strategy", name]
    yield ["admissible", *m]
    yield ["admissible", *m, "--improve"]
    actions = parse_model(path.read_text(encoding="utf-8")).diagram.actions
    for perm in itertools.permutations(actions):
        yield ["admissible", *m, "--order", ",".join(perm)]
        yield ["admissible", *m, "--order", ",".join(perm), "--improve"]


def transcript(tmp: Path) -> str:
    data = str(tmp / "data.txt")
    code, _ = _run(["simulate", "--model", str(MODELS / DATA_MODEL), "--regime", "obs",
                    "--n", str(DATA_ROWS), "--seed", str(DATA_SEED), "--out", data])
    if code != 0:
        raise RuntimeError(f"simulate exited {code}")
    parts = []
    for argv in _commands(data):
        code, out = _run(argv)
        shown = [Path(a).name if Path(a).is_absolute() else a for a in argv]
        parts.append(f"$ {' '.join(shown)}\nexit={code}\n{out}")
    return "".join(parts)


def test_cli_transcript_matches_golden(tmp_path):
    assert transcript(tmp_path) == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(transcript(Path(tmp)), encoding="utf-8")
    print(f"wrote {GOLDEN}")
