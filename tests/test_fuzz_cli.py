"""A seeded fuzz test of the whole CLI.

Each case replaces 1-3 fields of one line of a label, prediction or
calibration file in the fixture corpus with an awkward token, then runs
``validate`` and ``eval`` in-process with every warning turned into an
error. Each run must exit 0, 1 or 2; each exit-1 message must locate the
error in a file (and line) or at a frame's object; and no written JSON or
CSV may hold a non-finite number. ``train-toy`` runs a fixed list of
overflowing settings under the same rules.
"""

import json
import math
import re
import warnings

import numpy as np
import pytest

from conftest import write_corpus
from mono3d import cli

TOKENS = ["nan", "inf", "1e308", "1e155", "1e400", "-0", "1_0", "0x10", "²", "", " "]
N_CASES = 200

# "000001.txt:3: ...", "calib/000002.txt: ...", or "frame '000001', ground truth 0...".
LOCATED = re.compile(r"^((pred/|calib/)?\d{6}\.txt(:\d+)?: |frame '\d{6}', "
                     r"(prediction|ground truth) \d+)")


def run_quietly(args) -> int:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return cli.main([str(a) for a in args])


def mutate(corpus, case: int) -> str:
    """Replace 1-3 fields of one line of one input file; return what changed."""
    rng = np.random.default_rng([0, case])
    kind = ("gt", "pred", "calib")[int(rng.integers(3))]
    path = corpus[kind] / f"{int(rng.integers(3)):06d}.txt"
    lines = path.read_text().splitlines()
    i = int(rng.integers(len(lines)))
    fields = lines[i].split(" ")
    picks = rng.choice(len(fields), size=min(len(fields), int(rng.integers(1, 4))),
                       replace=False)
    for j in picks.tolist():
        fields[j] = TOKENS[int(rng.integers(len(TOKENS)))]
    lines[i] = " ".join(fields)
    path.write_text("".join(line + "\n" for line in lines))
    return f"{kind}/{path.name}:{i + 1}: {lines[i]!r}"


def fail_on(constant):
    pytest.fail(f"non-finite JSON value {constant}")


def assert_finite_outputs(paths):
    """No written JSON holds NaN or Infinity, and no CSV cell a non-finite number."""
    for path in paths:
        if not path.exists():
            continue
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=fail_on)
            continue
        for cell in re.split(r"[,\n]", path.read_text()):
            try:
                assert math.isfinite(float(cell)), (path, cell)
            except ValueError:
                pass


@pytest.mark.parametrize("case", range(N_CASES))
def test_mutated_corpus(tmp_path, capsys, case):
    corpus = write_corpus(tmp_path / "data")
    change = mutate(corpus, case)
    out = tmp_path / "validate.json"
    code = run_quietly(["validate", "--gt-dir", corpus["gt"], "--calib-dir", corpus["calib"],
                        "--split", corpus["split"], "--out", out])
    captured = capsys.readouterr()
    assert code in (0, 1), change
    if code:
        errors = [line[2:] for line in captured.out.splitlines()[1:]]
        assert errors and all(LOCATED.match(e) for e in errors), (change, errors)
    assert_finite_outputs([out])

    out = tmp_path / "report.json"
    code = run_quietly(["eval", "--gt-dir", corpus["gt"], "--pred-dir", corpus["pred"],
                        "--calib-dir", corpus["calib"], "--split", corpus["split"],
                        "--out", out])
    err = capsys.readouterr().err
    assert code in (0, 1, 2), change
    if code == 1:
        assert err.startswith("mono3d: ") and LOCATED.match(err[len("mono3d: "):]), \
            (change, err)
    assert_finite_outputs([out, tmp_path / "report_pr.csv", tmp_path / "report_depth_bins.csv"])


@pytest.mark.parametrize("flags", [
    ["--lr", "1e308", "--epochs", "1", "--n-seeds", "1"],
    ["--lr", "1e308", "--epochs", "3", "--n-seeds", "1"],
    ["--noise-sigma", "1e200", "--epochs", "3", "--n-seeds", "1"],
    ["--n-objects", "100", "--n-seeds", "3", "--epochs", "13"],
], ids=["lr-1e308-one-epoch", "lr-1e308", "noise-1e200", "m100-13-epochs"])
def test_overflowing_train_toy(tmp_path, capsys, flags):
    out = tmp_path / "toy.json"
    code = run_quietly(["train-toy", "--out", out, *flags])
    assert code in (0, 1, 2)
    assert_finite_outputs([out])
