"""Seeded fuzz test of the CLI on mutated CSV, config and archive inputs.

Each case mutates one input of a working synth -> train -> estimate ->
evaluate run and runs the subcommand that reads it.  The run must end as
the README's exit-code table says: 0 with no warning or traceback, or the
code of the input's kind with exactly one `ttnmf:` line on stderr.  Case i
draws its mutation from default_rng((SEED, i)), so a failing case reruns
alone by its id.
"""

import dataclasses
import re
import warnings

import numpy as np
import pytest

from ttnmf import (FactorModel, load_matrix_csv, load_model, save_model,
                   write_matrix_csv)
from ttnmf.cli import main

SEED = 20211
N_CASES = 96
TRAIN = ["--split", "40", "--rank", "2", "--lags", "1,2", "--q-max", "5"]
# tokens spliced into text inputs
TOKENS = [b"nan", b"inf", b"-inf", b"1e309", b"-1", b"1e-320", b"1e308",
          b"\x00", b",", b"\n", b"#", b" ", b"=", b"abc", b"\xff\xfe",
          b"1_0", b"0x10", b"--", b"\r\n", b"1,2,3"]
# extreme magnitudes: whole inputs or factors are scaled by these
SCALES = [10.0 ** e for e in (-300, -200, -150, -20, 20, 150, 200, 300)]
# exit codes that a mutated input of each kind may give (README); train
# checks its settings (split, rank, lags) against the traffic's shape, so
# a cut traffic file may also exit 1
CODES = {"traffic": {0, 1, 2, 3}, "linkflows": {0, 2, 3},
         "estimate": {0, 2, 3}, "config": {0, 1}, "archive": {0, 2, 3}}


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    data, run = root / "data", root / "run"
    assert main(["synth", "--out", str(data), "--routers", "4", "--rank", "2",
                 "--T", "60", "--split", "40", "--lags", "1,2",
                 "--seed", "7"]) == 0
    assert main(["train", "--out", str(run),
                 "--routing", str(data / "routing.csv"),
                 "--traffic", str(data / "traffic.csv"), *TRAIN]) == 0
    assert main(["estimate", "--out", str(run),
                 "--model", str(run / "model.ttnmf"),
                 "--linkflows", str(data / "linkflows_test.csv")]) == 0
    return data, run


def _mutate_text(data: bytes, rng) -> bytes:
    """One byte-level edit: delete a span, insert a token, replace a cell
    or value, truncate, or repeat or drop a line."""
    at = int(rng.integers(len(data) + 1))
    op = int(rng.integers(6))
    if op == 0:
        return data[:at] + data[at + int(rng.integers(1, 20)):]
    if op == 1:
        return data[:at] + TOKENS[rng.integers(len(TOKENS))] + data[at:]
    if op == 2:
        fields = re.split(rb"([,=\n])", data)
        i = 2 * int(rng.integers((len(fields) + 1) // 2))
        fields[i] = TOKENS[rng.integers(len(TOKENS))]
        return b"".join(fields)
    if op == 3:
        return data[:at]
    lines = data.splitlines(keepends=True)
    i = int(rng.integers(len(lines)))
    if op == 4:
        return b"".join(lines[:i + 1] + lines[i:])
    return b"".join(lines[:i] + lines[i + 1:])


def _mutate_csv(path, out, rng):
    """A text edit of the CSV, or the whole matrix times an extreme scale."""
    if rng.random() < 0.3:
        write_matrix_csv(out, SCALES[rng.integers(len(SCALES))]
                         * load_matrix_csv(path))
    else:
        out.write_bytes(_mutate_text(path.read_bytes(), rng))


def _mutate_archive(path, out, rng):
    """A raw byte edit, which the payload checksum catches unless it hits
    the header; a header value replaced; or one factor scaled by an extreme
    magnitude and the archive saved again with a valid payload_sha256."""
    data = path.read_bytes()
    op = int(rng.integers(3))
    if op == 0:
        at = int(rng.integers(len(data)))
        edits = [data[:at] + data[at + 1:],
                 data[:at] + bytes([data[at] ^ (1 << int(rng.integers(8)))])
                 + data[at + 1:],
                 data[:at] + TOKENS[rng.integers(len(TOKENS))] + data[at:]]
        out.write_bytes(edits[rng.integers(len(edits))])
    elif op == 1:
        key = rng.choice([b"lags", b"lambda_temporal", b"lambda_ortho",
                          b"beta_temporal", b"dims"])
        value = rng.choice([b"0", b"1e-320", b"1e308", b"1e309", b"-1",
                            b"nan", b"1", b"1,2,3", b"2", b"-", b"12 2 40"])
        out.write_bytes(re.sub(rb"\n" + key + rb" [^\n]*",
                               b"\n" + key + b" " + value, data, count=1))
    else:
        archive = load_model(path)
        m = archive.model
        factors = {"spatial": m.spatial, "latent": m.latent,
                   "ar_weights": m.ar_weights}
        name = rng.choice(sorted(factors))
        factors[name] = SCALES[rng.integers(len(SCALES))] * factors[name]
        model = FactorModel.from_factors(
            **factors, lag_set=m.lag_set, routing=m.routing,
            weights=m.weights)
        save_model(out, dataclasses.replace(archive, model=model))


def _case(base, tmp_path, rng):
    """(kind, argv) of one mutated input and the subcommand that reads it."""
    data, run = base
    kind = rng.choice(sorted(CODES))
    out = ["--out", str(tmp_path / "out")]
    bad = tmp_path / "bad"
    if kind == "traffic":
        _mutate_csv(data / "traffic.csv", bad, rng)
        return kind, ["train", *out, "--routing", str(data / "routing.csv"),
                      "--traffic", str(bad), *TRAIN]
    if kind == "config":
        text = (f"routing={data / 'routing.csv'}\n"
                f"traffic={data / 'traffic.csv'}\n"
                "split=40\nrank=2\nlags=1,2\nq_max=5\nbeta_h=0.2\n")
        bad.write_bytes(_mutate_text(text.encode(), rng))
        return kind, ["train", *out, "--config", str(bad)]
    if kind == "estimate":
        _mutate_csv(run / "estimated.csv", bad, rng)
        return kind, ["evaluate", *out, "--true",
                      str(data / "traffic_test.csv"), "--est", str(bad)]
    if kind == "linkflows":
        _mutate_csv(data / "linkflows_test.csv", bad, rng)
        model = run / "model.ttnmf"
    else:
        _mutate_archive(run / "model.ttnmf", bad, rng)
        model = bad
        bad = data / "linkflows_test.csv"
    return kind, ["estimate", *out, "--model", str(model),
                  "--linkflows", str(bad)]


@pytest.mark.parametrize("case", range(N_CASES))
def test_mutated_input_ends_as_the_readme_says(base, tmp_path, capsys, case):
    kind, argv = _case(base, tmp_path, np.random.default_rng((SEED, case)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    err = capsys.readouterr().err
    assert not caught, (kind, [str(w.message) for w in caught])
    assert code in CODES[kind], (kind, code, err)
    if code == 0:
        assert "Traceback" not in err and "Warning" not in err, (kind, err)
    else:
        assert err.startswith("ttnmf: ") and err.count("\n") == 1, (kind, err)
