"""Command-line workflow: synth, train, estimate, evaluate."""

import re
import struct

import numpy as np
import pytest

from ttnmf import load_matrix_csv, load_model
from ttnmf.cli import main


def _synth(out, *extra):
    args = ["synth", "--out", str(out), "--routers", "4", "--rank", "2",
            "--T", "60", "--lags", "1,2", "--noise", "0.02", "--seed", "7"]
    return main(args + list(extra))


def test_synth_writes_scenario_files(tmp_path):
    out = tmp_path / "data"
    assert _synth(out) == 0
    routing = load_matrix_csv(out / "routing.csv", "routing")
    traffic = load_matrix_csv(out / "traffic.csv", "traffic")
    links = load_matrix_csv(out / "linkflows.csv", "link")
    assert routing.shape[1] == traffic.shape[0] == 12  # 4*3 OD pairs
    assert links.shape == (routing.shape[0], traffic.shape[1])
    np.testing.assert_allclose(links, routing @ traffic, rtol=1e-12)


def test_synth_split_and_mask_outputs(tmp_path):
    out = tmp_path / "data"
    assert _synth(out, "--split", "40", "--mask-fraction", "0.3") == 0
    tr = load_matrix_csv(out / "traffic_train.csv", "traffic")
    te = load_matrix_csv(out / "traffic_test.csv", "traffic")
    lte = load_matrix_csv(out / "linkflows_test.csv", "link")
    assert tr.shape[1] == 40 and te.shape[1] == 20
    assert lte.shape[1] == 20
    mask = load_matrix_csv(out / "mask.csv", "mask")
    assert mask.shape == (12, 60)
    frac = 1.0 - mask.mean()
    assert 0.2 < frac < 0.4


def test_synth_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _synth(a) == 0
    assert _synth(b) == 0
    for name in ("routing.csv", "traffic.csv", "linkflows.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_bad_mask_fraction(tmp_path, capsys):
    assert _synth(tmp_path / "d", "--mask-fraction", "1.5") == 1
    assert "mask fraction" in capsys.readouterr().err


def _train(data, out, *extra):
    args = ["train", "--out", str(out),
            "--routing", str(data / "routing.csv"),
            "--traffic", str(data / "traffic.csv"),
            "--rank", "2", "--lags", "1,2", "--q-max", "5"]
    return main(args + list(extra))


def test_train_writes_model_and_trace(tmp_path):
    data, out = tmp_path / "data", tmp_path / "run"
    _synth(data)
    assert _train(data, out) == 0
    archive = load_model(out / "model.ttnmf")
    assert archive.model.rank == 2
    assert archive.model.lag_set.lags == (1, 2)
    assert set(archive.provenance) == {"config_sha256", "traffic_sha256",
                                       "routing_sha256"}
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == ("q,e_q,f_q,temporal,ortho,spatial_iters,latent_iters,"
                        "ar_iters,wall_ms")
    assert len(lines) >= 3
    rows = [line.split(",") for line in lines[1:]]
    errs = [float(row[1]) for row in rows]
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
    for q, row in enumerate(rows):
        e, f, temporal, ortho = map(float, row[1:5])
        assert f == e + temporal + ortho
        iters = [int(v) for v in row[5:8]]
        assert iters == [0, 0, 0] if q == 0 else min(iters) >= 1


def test_full_pipeline_round_trip(tmp_path):
    data = tmp_path / "data"
    run = tmp_path / "run"
    _synth(data, "--split", "40")
    args = ["train", "--out", str(run),
            "--routing", str(data / "routing.csv"),
            "--traffic", str(data / "traffic.csv"),
            "--split", "40", "--rank", "2", "--lags", "1,2", "--q-max", "10"]
    assert main(args) == 0
    assert main(["estimate", "--out", str(run),
                 "--model", str(run / "model.ttnmf"),
                 "--linkflows", str(data / "linkflows_test.csv")]) == 0
    est = load_matrix_csv(run / "estimated.csv", "traffic")
    assert est.shape == (12, 20)
    assert (est >= 0).all()
    assert main(["evaluate", "--out", str(run),
                 "--true", str(data / "traffic_test.csv"),
                 "--est", str(run / "estimated.csv")]) == 0
    for name in ("sre.csv", "tre.csv", "stats.csv", "cdf_sre.csv",
                 "cdf_tre.csv"):
        assert (run / name).exists()


def test_estimate_link_count_mismatch_exits_2(tmp_path, capsys):
    data, out = tmp_path / "data", tmp_path / "run"
    _synth(data)
    _train(data, out)
    links = load_matrix_csv(data / "linkflows.csv", "link")
    bad = tmp_path / "bad_links.csv"
    from ttnmf import write_matrix_csv
    write_matrix_csv(bad, links[:-1, :])
    code = main(["estimate", "--out", str(out),
                 "--model", str(out / "model.ttnmf"),
                 "--linkflows", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{links.shape[0] - 1} rows" in err
    assert f"{links.shape[0]} links" in err


def test_evaluate_identical_inputs_give_zero_errors(tmp_path):
    data, run = tmp_path / "data", tmp_path / "run"
    _synth(data)
    assert main(["evaluate", "--out", str(run),
                 "--true", str(data / "traffic.csv"),
                 "--est", str(data / "traffic.csv")]) == 0
    for name in ("sre.csv", "tre.csv"):
        vals = load_matrix_csv(run / name, "traffic")
        np.testing.assert_array_equal(vals, 0.0)
    stats = (run / "stats.csv").read_text().splitlines()
    assert stats[0] == "stat,sre,tre"
    assert stats[-1] == "undefined,0,0"


def test_evaluate_counts_undefined_rows(tmp_path):
    from ttnmf import write_matrix_csv
    x = np.array([[0.0, 0.0], [1.0, 2.0]])
    p = tmp_path / "x.csv"
    write_matrix_csv(p, x)
    run = tmp_path / "run"
    assert main(["evaluate", "--out", str(run), "--true", str(p),
                 "--est", str(p)]) == 0
    stats = (run / "stats.csv").read_text().splitlines()
    assert stats[-1] == "undefined,1,0"


def test_evaluate_shape_mismatch_exits_2(tmp_path, capsys):
    from ttnmf import write_matrix_csv
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_matrix_csv(a, np.ones((2, 3)))
    write_matrix_csv(b, np.ones((3, 2)))
    assert main(["evaluate", "--out", str(tmp_path / "r"),
                 "--true", str(a), "--est", str(b)]) == 2
    assert "shape" in capsys.readouterr().err


def test_invalid_log_level_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TTNMF_LOG", "loud")
    assert main(["synth", "--out", str(tmp_path / "d")]) == 1
    assert "TTNMF_LOG" in capsys.readouterr().err


def test_missing_required_input_exits_1(tmp_path, capsys):
    assert main(["train", "--out", str(tmp_path / "r")]) == 1
    assert "routing" in capsys.readouterr().err


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,x\n")
    assert main(["train", "--out", str(tmp_path / "r"),
                 "--routing", str(bad), "--traffic", str(bad)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_config_file_supplies_settings(tmp_path):
    data, run = tmp_path / "data", tmp_path / "run"
    _synth(data)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"routing={data / 'routing.csv'}\n"
        f"traffic={data / 'traffic.csv'}\n"
        "rank=3\nlags=1\nq_max=4\n")
    assert main(["train", "--out", str(run), "--config", str(cfg)]) == 0
    archive = load_model(run / "model.ttnmf")
    assert archive.model.rank == 3
    assert archive.model.lag_set.lags == (1,)


def test_flag_overrides_config_file(tmp_path):
    data, run = tmp_path / "data", tmp_path / "run"
    _synth(data)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"routing={data / 'routing.csv'}\n"
        f"traffic={data / 'traffic.csv'}\n"
        "rank=3\nlags=1\nq_max=4\n")
    assert main(["train", "--out", str(run), "--config", str(cfg),
                 "--rank", "2"]) == 0
    assert load_model(run / "model.ttnmf").model.rank == 2


def test_unknown_config_key_exits_1(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rnak=3\n")
    assert main(["synth", "--out", str(tmp_path / "d"),
                 "--config", str(cfg)]) == 1
    assert "rnak" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["q_max_gd", "delta_gd"])
def test_removed_estimator_knob_exits_1(tmp_path, capsys, key):
    # the latent fit has no knobs; its old settings are unknown now
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}=1\n")
    assert main(["estimate", "--out", str(tmp_path / "r"),
                 "--config", str(cfg)]) == 1
    assert key in capsys.readouterr().err
    assert main(["estimate", "--out", str(tmp_path / "r"),
                 "--" + key.replace("_", "-"), "1"]) == 1


def test_bad_config_value_exits_1(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rank=four\n")
    assert main(["synth", "--out", str(tmp_path / "d"),
                 "--config", str(cfg)]) == 1
    assert "rank" in capsys.readouterr().err


def test_profile_sets_lags_with_flag_override(tmp_path):
    data, run = tmp_path / "data", tmp_path / "run"
    # geant profile needs T > its max lag of 96
    assert main(["synth", "--out", str(data), "--routers", "4", "--rank", "2",
                 "--T", "120", "--lags", "1,2", "--noise", "0.02",
                 "--seed", "7"]) == 0
    assert main(["train", "--out", str(run), "--profile", "geant",
                 "--routing", str(data / "routing.csv"),
                 "--traffic", str(data / "traffic.csv"),
                 "--rank", "3", "--q-max", "2"]) == 0
    archive = load_model(run / "model.ttnmf")
    assert archive.model.lag_set.lags == (1, 4, 8, 32, 34, 36, 96)
    assert archive.model.rank == 3  # flag beats the profile's rank of 20
    assert archive.model.weights.beta_temporal == pytest.approx(0.1)


def test_unknown_profile_exits_1(tmp_path, capsys):
    data = tmp_path / "data"
    _synth(data)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("profile=abilene\n")
    assert main(["train", "--out", str(tmp_path / "r"), "--config", str(cfg),
                 "--routing", str(data / "routing.csv"),
                 "--traffic", str(data / "traffic.csv")]) == 1
    assert "profile" in capsys.readouterr().err


def test_usage_error_exits_1(capsys):
    assert main(["synth"]) == 1  # --out is required
    assert "--out" in capsys.readouterr().err


def _tiny_archive(path):
    """A small but complete archive in the CLI's layout: lags, the four
    penalty weights and three provenance lines."""
    from ttnmf import (FactorModel, LagSet, ModelArchive,
                       RegularizationWeights, RoutingMatrix, save_model)
    routing = RoutingMatrix(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
    model = FactorModel.from_factors(
        np.array([[1.0], [0.5], [2.0]]), np.array([[1.0, 2.0, 3.0, 4.0]]),
        np.array([[0.5, 0.25]]), LagSet((1, 2)), routing,
        RegularizationWeights(0.1, 0.2, 0.2, 0.2))
    prov = {key: "ab" * 32 for key in
            ("config_sha256", "routing_sha256", "traffic_sha256")}
    save_model(path, ModelArchive(model, routing, prov))
    return routing


def test_corrupt_archive_exits_2(tmp_path, capsys):
    from ttnmf import write_matrix_csv
    good = tmp_path / "model.ttnmf"
    routing = _tiny_archive(good)
    links = tmp_path / "links.csv"
    write_matrix_csv(links, routing.entries @ np.ones((3, 2)))
    data = good.read_bytes()
    header_end = data.index(b"matrices")
    cases = [(f"truncated at byte {n}", data[:n]) for n in range(len(data))]
    cases += [
        ("non-numeric version", data.replace(b"TTNMF-MODEL 1", b"TTNMF-MODEL x")),
        ("non-numeric lambda", re.sub(rb"lambda_temporal \S+",
                                      b"lambda_temporal abc", data)),
        ("negative lambda", re.sub(rb"lambda_ortho \S+", b"lambda_ortho -1",
                                   data)),
        ("NaN lambda", re.sub(rb"lambda_temporal \S+", b"lambda_temporal nan",
                              data)),
        ("bad lag list", data.replace(b"lags 1,2", b"lags 1,,2")),
        ("prov line with no key", data.replace(b"prov config_sha256 " + b"ab" * 32,
                                               b"prov")),
        ("non-ASCII header byte",
         data[:header_end] + b"\xe9" + data[header_end:]),
        ("header line of only spaces",
         data[:header_end] + b"   \n" + data[header_end:]),
        ("non-numeric matrix count", data.replace(b"matrices 4", b"matrices x")),
        ("non-numeric matrix shape", data.replace(b"matrix latent 1 4",
                                                  b"matrix latent 1 x")),
        ("negative matrix shape", data.replace(b"matrix latent 1 4",
                                               b"matrix latent -1 -4")),
    ]
    for name in (b"spatial", b"latent", b"ar_weights"):
        # the first float64 of the payload, after its header line and the
        # 8-byte length prefix
        start = data.index(b"\n", data.index(b"matrix " + name)) + 9
        for value in (np.nan, np.inf):
            cases.append((f"{value} in {name.decode()}", data[:start]
                          + struct.pack("<d", value) + data[start + 8:]))
    assert main(["estimate", "--out", str(tmp_path / "run"), "--model",
                 str(good), "--linkflows", str(links)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.ttnmf"
    for name, content in cases:
        assert content != data, name
        bad.write_bytes(content)
        code = main(["estimate", "--out", str(tmp_path / "run"), "--model",
                     str(bad), "--linkflows", str(links)])
        err = capsys.readouterr().err
        assert code == 2, name
        assert err.startswith("ttnmf: ") and err.count("\n") == 1, (name, err)


def test_flipped_latent_byte_exits_2(tmp_path, capsys):
    # a flip in the lowest mantissa byte keeps the value finite and
    # positive, so only the payload checksum can catch it
    good = tmp_path / "model.ttnmf"
    routing = _tiny_archive(good)
    from ttnmf import write_matrix_csv
    links = tmp_path / "links.csv"
    write_matrix_csv(links, routing.entries @ np.ones((3, 2)))
    data = good.read_bytes()
    start = data.index(b"\n", data.index(b"matrix latent")) + 9
    for offset in (0, 17):
        flipped = bytearray(data)
        flipped[start + offset] ^= 0x01
        bad = tmp_path / "bad.ttnmf"
        bad.write_bytes(bytes(flipped))
        value = struct.unpack_from("<d", flipped, start + offset // 8 * 8)[0]
        assert np.isfinite(value) and value > 0
        code = main(["estimate", "--out", str(tmp_path / "run"), "--model",
                     str(bad), "--linkflows", str(links)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("ttnmf: ") and err.count("\n") == 1, err
        assert "payload_sha256" in err


def test_malformed_csv_and_config_exit_cleanly(tmp_path, capsys):
    from ttnmf import write_matrix_csv
    model = tmp_path / "model.ttnmf"
    routing = _tiny_archive(model)
    routing_csv, traffic = tmp_path / "routing.csv", tmp_path / "traffic.csv"
    links = tmp_path / "links.csv"
    write_matrix_csv(routing_csv, routing.entries)
    write_matrix_csv(traffic, np.ones((3, 4)))
    write_matrix_csv(links, routing.entries @ np.ones((3, 2)))
    out = str(tmp_path / "run")
    commands = {
        "train --traffic": lambda bad: [
            "train", "--out", out, "--routing", str(routing_csv),
            "--traffic", bad, "--rank", "1", "--lags", "1", "--q-max", "1"],
        "estimate --linkflows": lambda bad: [
            "estimate", "--out", out, "--model", str(model),
            "--linkflows", bad],
        "evaluate --true": lambda bad: [
            "evaluate", "--out", out, "--true", bad, "--est", str(traffic)],
    }
    bad = tmp_path / "bad.csv"
    cases = [
        ("non-UTF-8 byte", b"1,2\n3,\xff\n", 2, "not UTF-8"),
        ("ragged row", b"1,2\n3\n", 2, "ragged row 2"),
        ("NaN cell", b"1,nan\n", 2, "non-finite value at cell (1,2)"),
        ("negative cell", b"1,-2\n", 2, "offending cells: (1,2)"),
        ("empty file", b"", 2, "no data rows"),
        ("directory path", None, 1, "is not a file"),
    ]
    for command, argv in commands.items():
        assert main(argv(str(links if command.startswith("estimate")
                             else traffic))) == 0, command
        capsys.readouterr()
        for name, content, code, message in cases:
            if content is None:
                path = tmp_path
            else:
                path = bad
                bad.write_bytes(content)
            got = main(argv(str(path)))
            err = capsys.readouterr().err
            assert got == code, (command, name, err)
            assert err.startswith("ttnmf: ") and err.count("\n") == 1, (
                command, name, err)
            assert message in err and str(path) in err, (command, name, err)
            assert "Traceback" not in err
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"rank=4\nlags=\xff\n")
    for path, message in ((cfg, "not UTF-8"), (tmp_path, "is not a file")):
        got = main(commands["evaluate --true"](str(traffic))
                   + ["--config", str(path)])
        err = capsys.readouterr().err
        assert got == 1, err
        assert err.startswith("ttnmf: ") and err.count("\n") == 1, err
        assert message in err and str(path) in err, err


def test_out_naming_a_file_exits_1(tmp_path, capsys):
    t = tmp_path / "t.csv"
    t.write_text("1\n")
    for out in (t, t / "sub"):
        for argv in (["synth", "--out", str(out)],
                     ["evaluate", "--out", str(out), "--true", str(t),
                      "--est", str(t)]):
            got = main(argv)
            err = capsys.readouterr().err
            assert got == 1, (argv, err)
            assert err == f"ttnmf: output path {out} is not a directory\n"
            assert "Traceback" not in err
    assert t.read_text() == "1\n"


def test_nonfinite_estimate_exits_3(tmp_path, capsys, monkeypatch):
    import ttnmf.estimation
    from ttnmf import write_matrix_csv
    model = tmp_path / "model.ttnmf"
    routing = _tiny_archive(model)
    links = tmp_path / "links.csv"
    write_matrix_csv(links, routing.entries @ np.ones((3, 2)))

    def poisoned(x0, *args, **kwargs):
        x = np.array(x0, dtype=float)
        x[0, 1] = np.nan
        return x

    monkeypatch.setattr(ttnmf.estimation, "refine_em", poisoned)
    out = tmp_path / "run"
    code = main(["estimate", "--out", str(out), "--model", str(model),
                 "--linkflows", str(links)])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "ttnmf: non-finite OD flow estimates in 1 of 2 columns\n"
    assert not (out / "estimated.csv").exists()


def test_failed_train_write_leaves_previous_outputs(tmp_path, monkeypatch):
    import ttnmf.cli
    data, out = tmp_path / "data", tmp_path / "run"
    _synth(data)
    assert _train(data, out) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(before) == {"model.ttnmf", "trace.csv"}

    def failing_save(path, archive):
        with open(path, "wb") as fh:
            fh.write(b"TTNMF-MODEL 1\ndims")
        raise OSError("disk full")

    monkeypatch.setattr(ttnmf.cli, "save_model", failing_save)
    with pytest.raises(OSError, match="disk full"):
        _train(data, out)
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert after == before


@pytest.mark.parametrize("split", [None, 40])
def test_train_provenance_hashes_the_input_matrices(tmp_path, split):
    import hashlib
    data, out = tmp_path / "data", tmp_path / "run"
    _synth(data)
    extra = () if split is None else ("--split", str(split))
    assert _train(data, out, *extra) == 0
    traffic = load_matrix_csv(data / "traffic.csv", "traffic")[:, :split]
    routing = load_matrix_csv(data / "routing.csv", "routing")
    prov = load_model(out / "model.ttnmf").provenance
    # the digests of the matrices' row-major bytes, as tobytes() gives them
    assert prov["traffic_sha256"] == hashlib.sha256(traffic.tobytes()).hexdigest()
    assert prov["routing_sha256"] == hashlib.sha256(routing.tobytes()).hexdigest()


def _failing_write(path, matrix):
    with open(path, "w") as fh:
        fh.write("0.5,")
    raise OSError("disk full")


def test_failed_estimate_write_leaves_previous_estimate(tmp_path, monkeypatch):
    import ttnmf.cli
    data, out = tmp_path / "data", tmp_path / "run"
    _synth(data)
    assert _train(data, out) == 0
    argv = ["estimate", "--out", str(out), "--model", str(out / "model.ttnmf"),
            "--linkflows", str(data / "linkflows.csv")]
    assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    monkeypatch.setattr(ttnmf.cli, "write_matrix_csv", _failing_write)
    with pytest.raises(OSError, match="disk full"):
        main(argv)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("failing", ["write_matrix_csv", "cdf_points"])
def test_failed_evaluate_write_leaves_previous_outputs(tmp_path, monkeypatch,
                                                       failing):
    import ttnmf.cli
    from ttnmf import write_matrix_csv
    data, out = tmp_path / "data", tmp_path / "run"
    _synth(data)
    write_matrix_csv(tmp_path / "est.csv",
                     1.1 * load_matrix_csv(data / "traffic.csv", "traffic"))
    argv = ["evaluate", "--out", str(out), "--true", str(data / "traffic.csv"),
            "--est", str(tmp_path / "est.csv")]
    assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(before) == {"sre.csv", "tre.csv", "stats.csv", "cdf_sre.csv",
                           "cdf_tre.csv"}

    def failing_cdf(err):
        yield 0.5, 0.5
        raise OSError("disk full")

    monkeypatch.setattr(ttnmf.cli, failing, _failing_write
                        if failing == "write_matrix_csv" else failing_cdf)
    with pytest.raises(OSError, match="disk full"):
        main(argv)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
