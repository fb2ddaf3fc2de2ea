"""Command-line workflow: synth, train, estimate, evaluate."""

import ctypes
import errno
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ttnmf
from ttnmf import cli, load_matrix_csv, load_model, write_matrix_csv
from ttnmf.cli import main


def _synth(out, *extra):
    args = ["synth", "--out", str(out), "--routers", "4", "--rank", "2",
            "--T", "60", "--lags", "1,2", "--noise", "0.02", "--seed", "7"]
    return main(args + list(extra))


def test_synth_writes_scenario_files(tmp_path):
    out = tmp_path / "data"
    assert _synth(out) == 0
    routing = load_matrix_csv(out / "routing.csv")
    traffic = load_matrix_csv(out / "traffic.csv")
    links = load_matrix_csv(out / "linkflows.csv")
    assert routing.shape[1] == traffic.shape[0] == 12  # 4*3 OD pairs
    assert links.shape == (routing.shape[0], traffic.shape[1])
    np.testing.assert_allclose(links, routing @ traffic, rtol=1e-12)


def test_synth_split_and_mask_outputs(tmp_path):
    out = tmp_path / "data"
    assert _synth(out, "--split", "40", "--mask-fraction", "0.3") == 0
    tr = load_matrix_csv(out / "traffic_train.csv")
    te = load_matrix_csv(out / "traffic_test.csv")
    lte = load_matrix_csv(out / "linkflows_test.csv")
    assert tr.shape[1] == 40 and te.shape[1] == 20
    assert lte.shape[1] == 20
    mask = load_matrix_csv(out / "mask.csv")
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


@pytest.mark.parametrize("extra", [["--mask-fraction", "1.5"],
                                   ["--split", "80"], ["--seed", "-1"]])
def test_synth_bad_setting_writes_nothing(tmp_path, capsys, extra):
    # each setting is checked before the first file is written
    out = tmp_path / "d"
    out.mkdir()
    assert _synth(out, *extra) == 1
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_synth_nonfinite_noise_exits_1(tmp_path, capsys, value):
    # nan would write noiseless data and inf a non-finite traffic.csv
    assert _synth(tmp_path / "d", "--noise", value) == 1
    err = capsys.readouterr().err
    assert "noise level" in err and len(err.splitlines()) == 1
    assert not (tmp_path / "d" / "traffic.csv").exists()


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
    est = load_matrix_csv(run / "estimated.csv")
    assert est.shape == (12, 20)
    assert (est >= 0).all()
    assert main(["evaluate", "--out", str(run),
                 "--true", str(data / "traffic_test.csv"),
                 "--est", str(run / "estimated.csv")]) == 0
    for name in ("sre.csv", "tre.csv", "stats.csv", "cdf_sre.csv",
                 "cdf_tre.csv"):
        assert (run / name).exists()


def test_gappy_mask_trains_without_a_flag(tmp_path, capsys):
    # a mask with unobserved cells trains by EM imputation, the one path
    data, run = tmp_path / "data", tmp_path / "run"
    _synth(data, "--mask-fraction", "0.3")
    mask = ["--mask", str(data / "mask.csv")]
    assert _train(data, run, *mask) == 0
    rows = (run / "trace.csv").read_text().splitlines()[1:]
    errs = [float(row.split(",")[1]) for row in rows]
    assert len(errs) >= 3
    assert all(b <= a for a, b in zip(errs, errs[1:]))
    # there is no missing-mode setting, as a flag or as a config key
    cfg = tmp_path / "gappy.cfg"
    cfg.write_text("missing_mode=em_mask\n")
    capsys.readouterr()
    for extra, message in ((["--missing-mode", "em_mask"], "unrecognized"),
                           (["--config", str(cfg)], "unknown config keys")):
        assert _train(data, tmp_path / "other", *mask, *extra) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and message in err
        assert "missing_mode" in err or "missing-mode" in err
    assert not (tmp_path / "other").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_nonfinite_delta_em_exits_1(tmp_path, capsys, value):
    # a non-finite EM tolerance would stop EM after its first step
    data, run = tmp_path / "data", tmp_path / "run"
    _synth(data, "--split", "40")
    assert _train(data, run) == 0
    cfg = tmp_path / "em.cfg"
    cfg.write_text(f"delta_em={value}\n")
    estimate = ["estimate", "--out", str(run),
                "--model", str(run / "model.ttnmf"),
                "--linkflows", str(data / "linkflows_test.csv")]
    capsys.readouterr()
    for extra in (["--delta-em", value], ["--config", str(cfg)]):
        assert main(estimate + extra) == 1
        err = capsys.readouterr().err
        assert "delta_em" in err and len(err.splitlines()) == 1
    assert not (run / "estimated.csv").exists()


_PIPELINE = """
import sys
from ttnmf.cli import main
data, run = sys.argv[1] + "/data", sys.argv[1] + "/run"
routers, rank, T, split, lags = sys.argv[2:]
for argv in (
        ["synth", "--out", data, "--routers", routers, "--rank", rank,
         "--T", T, "--lags", lags, "--split", split, "--seed", "7"],
        ["train", "--out", run, "--routing", data + "/routing.csv",
         "--traffic", data + "/traffic.csv", "--split", split, "--rank", rank,
         "--lags", lags, "--q-max", "5"],
        ["estimate", "--out", run, "--model", run + "/model.ttnmf",
         "--linkflows", data + "/linkflows_test.csv"],
        ["evaluate", "--out", run, "--true", data + "/traffic_test.csv",
         "--est", run + "/estimated.csv"]):
    assert main(argv) == 0, argv
print(",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _fresh_interpreter(script, *args, **env):
    """Run script with args in a fresh interpreter that imports this ttnmf."""
    env = dict(os.environ, **env,
               PYTHONPATH=str(Path(ttnmf.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done


def _pipeline_process(root, *scenario, **env):
    """Run synth -> train -> estimate -> evaluate in a fresh interpreter
    under root; scenario is routers, rank, T, split and lags."""
    return _fresh_interpreter(_PIPELINE, str(root), *scenario, **env)


def test_cli_pipeline_never_imports_scipy(tmp_path):
    done = _pipeline_process(tmp_path, "4", "2", "60", "40", "1,2")
    assert done.stdout.strip() == ""
    assert (tmp_path / "run" / "stats.csv").exists()


_ORACLE = """
import sys
import numpy as np
import ttnmf
lags = ttnmf.LagSet((1, 3))
graph = ttnmf.build_temporal_graph(np.array([0.5, 0.3]), lags, 12)
row = np.linspace(1.0, 2.0, 12)
graph.penalty(row), graph.gradient(row), graph.laplacian()
ttnmf.temporal_penalty_value(np.ones((2, 12)), np.full((2, 2), 0.4), lags,
                             form="laplacian")
print(",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_laplacian_oracle_never_imports_scipy():
    # the package's runtime dependency is numpy alone
    assert _fresh_interpreter(_ORACLE).stdout.strip() == ""


def test_cli_outputs_do_not_depend_on_openblas_threads(tmp_path):
    # the CLI runs the loaded OpenBLAS on one thread whatever the
    # environment asks for; without that, on a host with two cores or more,
    # two threads sum this case's products in another order and change the
    # last bits of the model and the estimates
    outputs = []
    for threads in ("1", "2"):
        root = tmp_path / threads
        _pipeline_process(root, "12", "6", "800", "600", "1,2,24",
                          OPENBLAS_NUM_THREADS=threads)
        outputs.append([(root / "run" / name).read_bytes()
                        for name in ("model.ttnmf", "estimated.csv")])
    assert outputs[0] == outputs[1]


def test_main_runs_openblas_on_one_thread(tmp_path):
    found = cli._loaded_openblas()
    if found is None:
        pytest.skip("numpy is not linked to a known OpenBLAS build")
    lib, setter = found
    getter = getattr(lib, setter.__name__.replace("_set_", "_get_"))
    getter.argtypes, getter.restype = [], ctypes.c_int
    setter(2)
    assert _synth(tmp_path / "data") == 0
    assert getter() == 1


def test_estimate_link_count_mismatch_exits_2(tmp_path, capsys):
    data, out = tmp_path / "data", tmp_path / "run"
    _synth(data)
    _train(data, out)
    links = load_matrix_csv(data / "linkflows.csv")
    bad = tmp_path / "bad_links.csv"
    from ttnmf import write_matrix_csv
    write_matrix_csv(bad, links[:-1, :])
    code = main(["estimate", "--out", str(out),
                 "--model", str(out / "model.ttnmf"),
                 "--linkflows", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == (f"ttnmf: {bad}: link-flow matrix has {links.shape[0] - 1} "
                   f"rows but the model was trained with {links.shape[0]} "
                   "links\n")


def test_evaluate_identical_inputs_give_zero_errors(tmp_path):
    data, run = tmp_path / "data", tmp_path / "run"
    _synth(data)
    assert main(["evaluate", "--out", str(run),
                 "--true", str(data / "traffic.csv"),
                 "--est", str(data / "traffic.csv")]) == 0
    for name in ("sre.csv", "tre.csv"):
        vals = load_matrix_csv(run / name)
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
    assert capsys.readouterr().err == (
        f"ttnmf: {a}, {b}: true shape (2, 3) != estimated shape (3, 2)\n")


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
    # the config value is cast by its flag's type; the message names both
    # the file and the flag
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rank=four\n")
    assert main(["synth", "--out", str(tmp_path / "d"),
                 "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"ttnmf: config file {cfg}: argument --rank: invalid int value: "
        "'four'\n")
    assert not (tmp_path / "d").exists()


def _settings():
    """(subcommand, flag, dest, sample value) of every setting that a
    config key can give, read from the parser itself."""
    samples = {int: "3", float: "0.25", None: "some/file.csv"}
    _, commands = cli._build_parser()
    return [(name, action.option_strings[0], action.dest,
             action.choices[0] if action.choices else samples[action.type])
            for name, parser in commands.items()
            for action in parser._actions
            if action.dest not in ("help", "config", "out")]


@pytest.mark.parametrize("command,flag,key,value", _settings(), ids=str)
def test_config_key_parses_as_its_flag(tmp_path, command, flag, key, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n")
    out = [command, "--out", str(tmp_path / "o")]
    by_flag = vars(cli._parse_args(out + [flag, value]))
    by_config = vars(cli._parse_args(out + ["--config", str(cfg)]))
    assert by_flag.pop("config") is None
    assert by_config.pop("config") == str(cfg)
    assert by_config == by_flag
    assert ({k: type(v) for k, v in by_config.items()}
            == {k: type(v) for k, v in by_flag.items()})


def test_config_beats_profile_and_flag_beats_both(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("profile=geant\nrank=5\nbeta_h=0.3\n")
    train = ["train", "--out", str(tmp_path / "o"), "--config", str(cfg)]
    args = cli._parse_args(train)
    assert (args.rank, args.beta_h, args.beta_a) == (5, 0.3, 0.1)
    assert args.lags == cli.PROFILES["geant"]["lags"]
    args = cli._parse_args(train + ["--profile", "internet2", "--rank", "3"])
    assert (args.rank, args.beta_h, args.beta_a) == (3, 0.3, 0.2)
    assert args.lags == cli.PROFILES["internet2"]["lags"]
    args = cli._parse_args(train + ["--lags", "1", "--beta-h", "0"])
    assert (args.rank, args.beta_h, args.lags) == (5, 0.0, "1")


def test_one_config_file_drives_the_pipeline(tmp_path):
    # a train config may hold the keys of estimate and evaluate too
    data, run = tmp_path / "data", tmp_path / "run"
    _synth(data, "--split", "40")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"routing={data / 'routing.csv'}\ntraffic={data / 'traffic.csv'}\n"
        "split=40\nrank=2\nlags=1,2\nq_max=3\n"
        f"model={run / 'model.ttnmf'}\n"
        f"linkflows={data / 'linkflows_test.csv'}\nr_max_em=5\n"
        f"true_path={data / 'traffic_test.csv'}\n"
        f"est_path={run / 'estimated.csv'}\n")
    for command in ("train", "estimate", "evaluate"):
        assert main([command, "--out", str(run), "--config", str(cfg)]) == 0
    assert load_model(run / "model.ttnmf").model.rank == 2
    assert (run / "stats.csv").exists()


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
    save_model(path, ModelArchive(model, prov))
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
        ("NaN cell", b"1,nan\n", 2, "must be finite; cell (1,2) is nan"),
        ("negative cell", b"1,-2\n", 2, "must be >= 0; cell (1,2) is -2.0"),
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


@pytest.mark.parametrize("command", ["synth", "train", "estimate", "evaluate"])
def test_out_name_too_long_exits_1(tmp_path, capsys, command):
    data, run = tmp_path / "data", tmp_path / "run"
    assert _synth(data, "--split", "40") == 0
    assert _train(data, run) == 0
    capsys.readouterr()
    out = tmp_path / ("o" * 300)
    argv = {
        "synth": lambda: _synth(out),
        "train": lambda: _train(data, out),
        "estimate": lambda: main([
            "estimate", "--out", str(out), "--model", str(run / "model.ttnmf"),
            "--linkflows", str(data / "linkflows_test.csv")]),
        "evaluate": lambda: main([
            "evaluate", "--out", str(out),
            "--true", str(data / "traffic_test.csv"),
            "--est", str(data / "traffic_test.csv")]),
    }
    assert argv[command]() == 1
    err = capsys.readouterr().err
    assert err.startswith(f"ttnmf: [Errno {errno.ENAMETOOLONG}] ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "run"]


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


def test_failed_train_write_leaves_previous_outputs(tmp_path, monkeypatch,
                                                    capsys):
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
    capsys.readouterr()
    assert _train(data, out) == 1
    assert capsys.readouterr().err == "ttnmf: disk full\n"
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert after == before


@pytest.mark.parametrize("split", [None, 40])
def test_train_provenance_hashes_the_input_matrices(tmp_path, split):
    import hashlib
    data, out = tmp_path / "data", tmp_path / "run"
    _synth(data)
    extra = () if split is None else ("--split", str(split))
    assert _train(data, out, *extra) == 0
    traffic = load_matrix_csv(data / "traffic.csv")[:, :split]
    routing = load_matrix_csv(data / "routing.csv")
    prov = load_model(out / "model.ttnmf").provenance
    # the digests of the matrices' row-major bytes, as tobytes() gives them
    assert prov["traffic_sha256"] == hashlib.sha256(traffic.tobytes()).hexdigest()
    assert prov["routing_sha256"] == hashlib.sha256(routing.tobytes()).hexdigest()


def _failing_write(path, matrix):
    with open(path, "w") as fh:
        fh.write("0.5,")
    raise OSError("disk full")


def test_failed_estimate_write_leaves_previous_estimate(tmp_path, monkeypatch,
                                                        capsys):
    import ttnmf.cli
    data, out = tmp_path / "data", tmp_path / "run"
    _synth(data)
    assert _train(data, out) == 0
    argv = ["estimate", "--out", str(out), "--model", str(out / "model.ttnmf"),
            "--linkflows", str(data / "linkflows.csv")]
    assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    monkeypatch.setattr(ttnmf.cli, "write_matrix_csv", _failing_write)
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == "ttnmf: disk full\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("failing", ["write_matrix_csv", "cdf_points"])
def test_failed_evaluate_write_leaves_previous_outputs(tmp_path, monkeypatch,
                                                       capsys, failing):
    import ttnmf.cli
    from ttnmf import write_matrix_csv
    data, out = tmp_path / "data", tmp_path / "run"
    _synth(data)
    write_matrix_csv(tmp_path / "est.csv",
                     1.1 * load_matrix_csv(data / "traffic.csv"))
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
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == "ttnmf: disk full\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_train_mask_never_reads_unobserved_cells(tmp_path):
    # the CLI twin of test_train_never_reads_unobserved_cells: -1, which an
    # observed cell may not hold, in every unobserved cell trains the same
    # factors bit for bit as the original traffic
    data = tmp_path / "data"
    _synth(data, "--mask-fraction", "0.2")
    x = load_matrix_csv(data / "traffic.csv")
    mask = load_matrix_csv(data / "mask.csv")
    assert (mask == 0.0).any() and (x > 0).all()
    negative = tmp_path / "negative.csv"
    write_matrix_csv(negative, np.where(mask == 1.0, x, -1.0))
    models = []
    for traffic in (data / "traffic.csv", negative):
        out = tmp_path / traffic.stem
        assert main(["train", "--out", str(out),
                     "--routing", str(data / "routing.csv"),
                     "--traffic", str(traffic),
                     "--mask", str(data / "mask.csv"),
                     "--rank", "2", "--lags", "1,2", "--q-max", "5"]) == 0
        models.append(load_model(out / "model.ttnmf").model)
    for name in ("spatial", "latent", "ar_weights"):
        assert (getattr(models[0], name).tobytes()
                == getattr(models[1], name).tobytes()), name


# (command, its input flags, its other settings)
_BAD_CELL_COMMANDS = [
    ("train", ("--routing", "--traffic", "--mask"),
     ("--rank", "1", "--lags", "1", "--q-max", "1")),
    ("estimate", ("--model", "--linkflows"), ()),
    ("evaluate", ("--true", "--est"), ()),
]


# each rule is the exact text of the matrix type the file is read as; cell
# coordinates count data rows only
@pytest.mark.parametrize("flag, content, rule", [
    ("--routing", "1,0,2\n0,1,1\n",
     "routing entries must be 0 or 1; cell (1,3) is 2.0"),
    ("--routing", "1,0,1\n0,nan,1\n",
     "routing entries must be 0 or 1; cell (2,2) is nan"),
    ("--traffic", "1,1,1,1\n# a comment\n1,1,nan,1\n1,1,1,1\n",
     "traffic must be finite; cell (2,3) is nan"),
    ("--traffic", "1,1,1,1\n1,-2,1,1\n1,1,1,1\n",
     "observed traffic must be >= 0; cell (2,2) is -2.0"),
    ("--mask", "1,1,1,1\n1,0.5,1,1\n1,1,1,1\n",
     "mask entries must be 0 or 1; cell (2,2) is 0.5"),
    ("--mask", "1,1,1,1\n1,1,1,1\n",
     "mask shape (2, 4) != traffic shape (3, 4)"),
    ("--linkflows", "1,2\n3,inf\n",
     "link flows must be finite; cell (2,2) is inf"),
    ("--linkflows", "1,2\n-3,4\n",
     "link flows must be >= 0; cell (2,1) is -3.0"),
    ("--true", "1,1\n1,-inf\n",
     "traffic must be finite; cell (2,2) is -inf"),
    ("--est", "1,-1\n1,1\n",
     "observed traffic must be >= 0; cell (1,2) is -1.0"),
])
def test_bad_cell_exits_2_with_the_type_rule(tmp_path, capsys, flag, content,
                                             rule):
    files = {"--model": tmp_path / "model.ttnmf"}
    routing = _tiny_archive(files["--model"])
    for name, matrix in (("--routing", routing.entries),
                         ("--traffic", np.ones((3, 4))),
                         ("--mask", np.ones((3, 4))),
                         ("--linkflows", routing.entries @ np.ones((3, 2))),
                         ("--true", np.ones((2, 2))),
                         ("--est", np.ones((2, 2)))):
        files[name] = tmp_path / f"{name[2:]}.csv"
        write_matrix_csv(files[name], matrix)
    command, inputs, settings = next(c for c in _BAD_CELL_COMMANDS
                                     if flag in c[1])
    argv = [command, "--out", str(tmp_path / "run"), *settings]
    for name in inputs:
        argv += [name, str(files[name])]
    assert main(argv) == 0
    capsys.readouterr()
    files[flag].write_text(content)
    assert main(argv) == 2
    # train reads the traffic and its mask as one TrafficMatrix
    named = (("--traffic", "--mask") if flag in ("--traffic", "--mask")
             else (flag,))
    prefix = ", ".join(str(files[name]) for name in named)
    assert capsys.readouterr().err == f"ttnmf: {prefix}: {rule}\n"


def test_rank_0_archive_exits_2(tmp_path, capsys):
    # a validly signed archive whose factors have no columns
    from ttnmf import (FactorModel, LagSet, ModelArchive,
                       RegularizationWeights, save_model)
    routing = _tiny_archive(tmp_path / "good.ttnmf")
    empty = FactorModel(np.zeros((3, 0)), np.zeros((0, 4)), np.zeros((0, 2)),
                        LagSet((1, 2)), routing.entries,
                        RegularizationWeights(0.1, 0.2, 0.2, 0.2))
    model = tmp_path / "model.ttnmf"
    save_model(model, ModelArchive(empty))
    assert b"\ndims 3 0 4 2\n" in model.read_bytes()
    links = tmp_path / "links.csv"
    write_matrix_csv(links, routing.entries @ np.ones((3, 2)))
    out = tmp_path / "run"
    assert main(["estimate", "--out", str(out), "--model", str(model),
                 "--linkflows", str(links)]) == 2
    assert capsys.readouterr().err == (
        f"ttnmf: {model}: factors must have rank >= 1, got 0\n")
    assert not out.exists()


@pytest.mark.parametrize("factor", ["spatial", "ar_weights"])
def test_overflowing_window_fit_exits_3(tmp_path, capsys, factor):
    # a validly signed archive with the factor scaled by 1e300: the column
    # norms of A W, or the latent step bound (1 + sum |w|)^2, overflow
    # float64, which ends estimate in one line and no numpy warning
    import dataclasses

    from ttnmf import FactorModel, save_model
    data, run = tmp_path / "data", tmp_path / "run"
    _synth(data, "--split", "40")
    assert _train(data, run, "--split", "40") == 0
    archive = load_model(run / "model.ttnmf")
    m = archive.model
    factors = {"spatial": m.spatial, "latent": m.latent,
               "ar_weights": m.ar_weights}
    factors[factor] = 1e300 * factors[factor]
    big = tmp_path / "big.ttnmf"
    save_model(big, dataclasses.replace(archive, model=FactorModel.from_factors(
        **factors, lag_set=m.lag_set, routing=m.routing,
        weights=m.weights)))
    capsys.readouterr()
    argv = ["estimate", "--out", str(run), "--model", str(big),
            "--linkflows", str(data / "linkflows_test.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails
        assert main(argv) == 3
    assert capsys.readouterr().err == (
        "ttnmf: window fit: ||Y||^2, the column norms of A W or the step "
        "bound overflow float64\n")


def test_link_flows_whose_square_overflows_exit_3(tmp_path, capsys):
    data, run = tmp_path / "data", tmp_path / "run"
    _synth(data, "--split", "40")
    assert _train(data, run, "--split", "40") == 0
    links = load_matrix_csv(data / "linkflows_test.csv")
    links[0, 0] = 1e308
    big = tmp_path / "big.csv"
    write_matrix_csv(big, links)
    capsys.readouterr()
    argv = ["estimate", "--out", str(run), "--model",
            str(run / "model.ttnmf"), "--linkflows", str(big)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3
    assert capsys.readouterr().err.startswith("ttnmf: window fit: ||Y||^2")


@pytest.mark.parametrize("scale", [1e153, 1e200])
def test_overflowing_traffic_exits_3(tmp_path, capsys, scale):
    # finite, nonnegative traffic whose SVD-seed Gram matrix overflows; at
    # 1e152 the same data trains
    data, big = tmp_path / "data", tmp_path / "big.csv"
    _synth(data)
    write_matrix_csv(big, scale * load_matrix_csv(data / "traffic.csv"))
    argv = ["train", "--out", str(tmp_path / "run"),
            "--routing", str(data / "routing.csv"), "--traffic", str(big),
            "--rank", "2", "--lags", "1,2", "--q-max", "5"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails
        assert main(argv) == 3
    assert capsys.readouterr().err == (
        "ttnmf: SVD seed: the data's Gram matrix overflows float64\n")


@pytest.mark.parametrize("scale", [1e-165, 1e-300])
def test_underflowing_traffic_exits_3(tmp_path, capsys, scale):
    # finite, nonzero traffic whose SVD-seed Gram matrix underflows to zero
    # would train an all-zero model; at 1e-162 the same data trains
    data, small = tmp_path / "data", tmp_path / "small.csv"
    _synth(data)
    write_matrix_csv(small, scale * load_matrix_csv(data / "traffic.csv"))
    argv = ["train", "--out", str(tmp_path / "run"),
            "--routing", str(data / "routing.csv"), "--traffic", str(small),
            "--rank", "2", "--lags", "1,2", "--q-max", "5"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails
        assert main(argv) == 3
    assert capsys.readouterr().err == (
        "ttnmf: SVD seed: the data's Gram matrix underflows to zero\n")
    assert not (tmp_path / "run" / "model.ttnmf").exists()
