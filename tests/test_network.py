"""Network data types and synthetic generator tests.

Covers:
  - routing/traffic/mask/link-flow validation
  - compute_link_flows against a triple-loop oracle
  - train/test splitting (shapes, timestamps, mask slicing)
  - generator determinism, shapes, path coverage, planted structure,
    noiseless exactness and the multiplicative-noise level
"""

import logging

import numpy as np
import pytest

from ttnmf.errors import ConfigError, ShapeError, ValidationError
from ttnmf.factors import LagSet
from ttnmf.network import (LinkFlowMatrix, RoutingMatrix, TrafficMatrix,
                           compute_link_flows, generate_synthetic,
                           split_train_test)


# ------------------------------------------------------------- validation

def test_routing_accepts_binary():
    r = RoutingMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert r.n_links == 2 and r.n_pairs == 2


def test_routing_rejects_non_binary():
    with pytest.raises(ValidationError, match=r"\(2,1\)"):
        RoutingMatrix(np.array([[1.0, 0.0], [0.5, 1.0]]))


def test_routing_warns_on_zero_column(caplog):
    with caplog.at_level(logging.WARNING, logger="ttnmf.network"):
        RoutingMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert any("all-zero" in rec.message for rec in caplog.records)


def test_traffic_rejects_negative_observed():
    with pytest.raises(ValidationError, match=r"\(2,1\)"):
        TrafficMatrix(np.array([[0.0, 0.0], [-1.0, 0.0]]))


def test_traffic_allows_negative_under_mask():
    # unobserved entries are placeholders and may hold anything
    tm = TrafficMatrix(np.array([[-5.0, 2.0]]), mask=np.array([[0.0, 1.0]]))
    assert tm.n_flows == 1 and tm.n_timestamps == 2


def test_traffic_mask_validation():
    with pytest.raises(ValidationError):
        TrafficMatrix(np.ones((1, 2)), mask=np.array([[0.5, 1.0]]))
    with pytest.raises(ShapeError):
        TrafficMatrix(np.ones((1, 2)), mask=np.ones((2, 2)))


def test_traffic_default_timestamps():
    tm = TrafficMatrix(np.ones((2, 4)))
    np.testing.assert_array_equal(tm.timestamps, [0, 1, 2, 3])
    with pytest.raises(ShapeError):
        TrafficMatrix(np.ones((2, 4)), timestamps=np.arange(3))


def test_link_flows_reject_negative():
    with pytest.raises(ValidationError):
        LinkFlowMatrix(np.array([[1.0, -2.0]]))


# ------------------------------------------------------------- link flows

def test_compute_link_flows_matches_triple_loop():
    rng = np.random.default_rng(0)
    a = (rng.random((5, 9)) < 0.4).astype(float)
    x = rng.random((9, 6)) * 10
    got = compute_link_flows(RoutingMatrix(a), TrafficMatrix(x)).entries
    expected = np.zeros((5, 6))
    for i in range(5):
        for t in range(6):
            for j in range(9):
                expected[i, t] += a[i, j] * x[j, t]
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_compute_link_flows_shape_mismatch():
    with pytest.raises(ShapeError):
        compute_link_flows(RoutingMatrix(np.eye(3)), TrafficMatrix(np.ones((2, 4))))


# ------------------------------------------------------------------ split

def test_split_shapes_and_timestamps():
    tm = TrafficMatrix(np.arange(20, dtype=float).reshape(2, 10))
    train, test = split_train_test(tm, 7)
    assert train.entries.shape == (2, 7)
    assert test.entries.shape == (2, 3)
    np.testing.assert_array_equal(train.timestamps, np.arange(7))
    np.testing.assert_array_equal(test.timestamps, np.arange(7, 10))
    np.testing.assert_array_equal(
        np.hstack([train.entries, test.entries]), tm.entries)


def test_split_carries_mask():
    rng = np.random.default_rng(1)
    mask = (rng.random((3, 8)) < 0.8).astype(float)
    tm = TrafficMatrix(rng.random((3, 8)), mask=mask)
    train, test = split_train_test(tm, 5)
    np.testing.assert_array_equal(train.mask, mask[:, :5])
    np.testing.assert_array_equal(test.mask, mask[:, 5:])


def test_split_rejects_bad_points():
    tm = TrafficMatrix(np.ones((2, 6)))
    for bad in (0, 6, 7, -1):
        with pytest.raises(ConfigError):
            split_train_test(tm, bad)


# -------------------------------------------------------------- generator

def test_generator_shapes_and_routing():
    scen = generate_synthetic(n_routers=5, planted_rank=3, n_timestamps=50,
                              planted_lags=LagSet([1, 2]), noise_level=0.0,
                              seed=7)
    n = 5 * 4
    assert scen.routing.n_pairs == n
    assert scen.traffic.entries.shape == (n, 50)
    assert scen.routing.n_links % 2 == 0  # two directed links per edge
    # every OD pair is routed over at least one link
    assert (scen.routing.entries.sum(axis=0) >= 1).all()
    assert scen.true_spatial.shape == (n, 3)
    assert scen.true_latent.shape == (3, 50)


def test_generator_deterministic():
    kw = dict(n_routers=4, planted_rank=2, n_timestamps=30,
              planted_lags=LagSet([1]), noise_level=0.05, seed=13)
    a = generate_synthetic(**kw)
    b = generate_synthetic(**kw)
    np.testing.assert_array_equal(a.routing.entries, b.routing.entries)
    np.testing.assert_array_equal(a.traffic.entries, b.traffic.entries)


def test_generator_noiseless_matches_planted_product():
    scen = generate_synthetic(n_routers=4, planted_rank=2, n_timestamps=40,
                              planted_lags=LagSet([1]), noise_level=0.0, seed=3)
    np.testing.assert_allclose(scen.traffic.entries,
                               scen.true_spatial @ scen.true_latent, atol=0)


def test_generator_noise_level():
    kw = dict(n_routers=6, planted_rank=3, n_timestamps=300,
              planted_lags=LagSet([1]), seed=21)
    clean = generate_synthetic(noise_level=0.0, **kw).traffic.entries
    noisy = generate_synthetic(noise_level=0.05, **kw).traffic.entries
    big = clean > 0.1
    rel = noisy[big] / clean[big] - 1.0
    assert 0.04 < rel.std() < 0.06
    assert abs(rel.mean()) < 0.01


def test_generator_nonnegative_with_heavy_noise():
    scen = generate_synthetic(n_routers=4, planted_rank=2, n_timestamps=60,
                              planted_lags=LagSet([1]), noise_level=1.0, seed=2)
    assert scen.traffic.entries.min() >= 0.0


def test_generator_validates_arguments():
    with pytest.raises(ConfigError):
        generate_synthetic(1, 2, 30, LagSet([1]), 0.0, 0)
    with pytest.raises(ConfigError):
        generate_synthetic(4, 0, 30, LagSet([1]), 0.0, 0)
    with pytest.raises(ConfigError):
        generate_synthetic(4, 2, 2, LagSet([2]), 0.0, 0)
    with pytest.raises(ConfigError):
        generate_synthetic(4, 2, 30, LagSet([1]), -0.1, 0)
