"""CSV loading and validation, config parsing, model archive round trip."""

import numpy as np
import pytest

from ttnmf import (FactorModel, LagSet, ModelArchive, RegularizationWeights,
                   RoutingMatrix, load_matrix_csv, load_model,
                   parse_config_file, save_model, write_matrix_csv)
from ttnmf.errors import ConfigError, ParseError, ValidationError
from ttnmf.fileio import format_float


def test_load_routing_identity(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("1,0\n0,1\n")
    arr = load_matrix_csv(p, "routing")
    np.testing.assert_array_equal(arr, np.eye(2))


def test_load_non_numeric_cell(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("1,2\n3,x\n")
    with pytest.raises(ParseError, match=r"row 2 col 2"):
        load_matrix_csv(p, "traffic")


def test_load_negative_traffic_names_cell(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("0,0\n-1,0\n")
    with pytest.raises(ValidationError, match=r"\(2,1\)"):
        load_matrix_csv(p, "traffic")


def test_load_non_binary_routing_names_cell(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("1,0\n0,2\n")
    with pytest.raises(ValidationError, match=r"\(2,2\)"):
        load_matrix_csv(p, "routing")


def test_load_ragged_row(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("1,2,3\n4,5\n")
    with pytest.raises(ParseError, match="ragged row 2"):
        load_matrix_csv(p, "traffic")


def test_load_skips_comments_and_blank_lines(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("# header comment\n\n1,2\n# interior\n3,4\n")
    arr = load_matrix_csv(p, "traffic")
    np.testing.assert_array_equal(arr, [[1.0, 2.0], [3.0, 4.0]])


def test_load_rejects_non_finite(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("1,inf\n")
    with pytest.raises(ValidationError, match=r"non-finite"):
        load_matrix_csv(p, "link")


def test_load_empty_file(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("# nothing here\n")
    with pytest.raises(ParseError, match="no data rows"):
        load_matrix_csv(p, "traffic")


def test_load_unknown_kind(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("1\n")
    with pytest.raises(ConfigError):
        load_matrix_csv(p, "bogus")


def test_csv_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.random((7, 5)) * np.array([1e-9, 1.0, 1e9, np.pi, 1 / 3])
    p = tmp_path / "a.csv"
    write_matrix_csv(p, arr)
    back = load_matrix_csv(p, "traffic")
    # 17 significant digits round-trip float64 exactly
    assert (back == arr).all()


def test_csv_deterministic_bytes(tmp_path):
    arr = np.array([[0.1, 2.0], [3.5, 4.25]])
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_matrix_csv(p1, arr)
    write_matrix_csv(p2, arr)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().endswith(b"\n")
    assert b"\r" not in p1.read_bytes()


def test_format_float_17g():
    assert format_float(0.1) == "0.10000000000000001"
    assert float(format_float(np.pi)) == np.pi


def test_parse_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# a comment\nrank = 4\nlags=1,2\n\nbeta_h = 0.2\n")
    cfg = parse_config_file(p)
    assert cfg == {"rank": "4", "lags": "1,2", "beta_h": "0.2"}


def test_parse_config_file_malformed(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("rank 4\n")
    with pytest.raises(ConfigError, match="key=value"):
        parse_config_file(p)


def _small_archive():
    rng = np.random.default_rng(5)
    routing = RoutingMatrix((rng.random((4, 6)) < 0.5).astype(float))
    spatial = rng.random((6, 3))
    latent = rng.random((3, 10))
    ar = rng.random((3, 2))
    weights = RegularizationWeights(lambda_temporal=0.37, lambda_ortho=1.25,
                                    beta_temporal=0.2, beta_ortho=0.3)
    model = FactorModel.from_factors(spatial, latent, ar, LagSet((1, 2)),
                                     routing, weights)
    prov = {"traffic_sha256": "ab" * 32, "note": "round trip"}
    return ModelArchive(model=model, routing=routing, provenance=prov)


def test_archive_round_trip_bit_exact(tmp_path):
    arch = _small_archive()
    p = tmp_path / "model.ttnmf"
    save_model(p, arch)
    back = load_model(p)
    for name in ("spatial", "latent", "ar_weights"):
        assert (getattr(back.model, name) == getattr(arch.model, name)).all()
    assert (back.routing.entries == arch.routing.entries).all()
    assert back.model.lag_set.lags == (1, 2)
    assert back.model.weights == arch.model.weights
    assert back.model.weights.lambda_ortho == 1.25
    assert back.provenance == arch.provenance


def test_archive_save_is_deterministic(tmp_path):
    arch = _small_archive()
    p1, p2 = tmp_path / "m1", tmp_path / "m2"
    save_model(p1, arch)
    save_model(p2, arch)
    assert p1.read_bytes() == p2.read_bytes()


def test_archive_bad_magic(tmp_path):
    p = tmp_path / "m"
    p.write_bytes(b"NOT-A-MODEL 1\n")
    with pytest.raises(ParseError, match="not a model archive"):
        load_model(p)


def test_archive_unsupported_version(tmp_path):
    arch = _small_archive()
    p = tmp_path / "m"
    save_model(p, arch)
    data = p.read_bytes().replace(b"TTNMF-MODEL 1\n", b"TTNMF-MODEL 9\n", 1)
    p.write_bytes(data)
    with pytest.raises(ParseError, match="version"):
        load_model(p)


def test_archive_truncated(tmp_path):
    arch = _small_archive()
    p = tmp_path / "m"
    save_model(p, arch)
    data = p.read_bytes()
    p.write_bytes(data[: len(data) - 16])
    with pytest.raises(ParseError, match="truncated"):
        load_model(p)
