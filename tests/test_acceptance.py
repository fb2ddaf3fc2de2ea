"""Acceptance gate: one test per release criterion.

Each test enforces the stated tolerance and time budget; the conftest hook
prints a pass/fail line per criterion at the end of the run.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

import ttnmf.estimation as estimation
from ttnmf import (FactorModel, LagSet, RegularizationWeights, RoutingMatrix,
                   TrafficMatrix, TrainConfig, block_gradient,
                   compute_link_flows, estimate_od_flow, estimate_od_flows,
                   generate_synthetic, load_matrix_csv, objective_value,
                   refine_em, split_train_test, sre, temporal_penalty_value,
                   train, tre)
from ttnmf.cli import main

# Fixture constants for the planted scenario shared by criteria 4 and 6:
# 6 routers give 30 OD pairs; rank 4; 300 train + 100 test slots; lags {1,2}.
PLANTED_SEED = 7
MASK_SEED = 104
# Frozen from the development oracle run on this scenario (measured mean test
# TRE 0.0737867186...); the criterion's hard ceiling is 0.25.
FROZEN_TRE_BOUND = 0.08


def _planted_scenario(seed, noise=0.0):
    scen = generate_synthetic(6, 4, 400, LagSet((1, 2)), noise, seed=seed)
    train_tm, test_tm = split_train_test(scen.traffic, 300)
    y_test = compute_link_flows(scen.routing, test_tm)
    return scen, train_tm, test_tm, y_test


def _planted_mean_tre(seed, traffic=None):
    scen, train_tm, test_tm, y_test = _planted_scenario(seed)
    cfg = TrainConfig(rank=4, lag_set=LagSet((1, 2)))
    model, _ = train(traffic if traffic is not None else train_tm,
                     scen.routing, cfg)
    x_est = estimate_od_flows(y_test.entries, model)
    return float(np.mean(tre(test_tm.entries, x_est).defined_values()))


def test_criterion_1_regularizer_form_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    for _ in range(200):
        k = int(rng.integers(1, 4))
        lags = tuple(sorted(rng.choice(np.arange(1, 7), size=rng.integers(1, 4),
                                       replace=False).tolist()))
        lag_set = LagSet(lags)
        T = int(rng.integers(lag_set.max_lag + 1, 31))
        latent = rng.random((k, T))
        ar = rng.random((k, len(lags)))
        res = temporal_penalty_value(latent, ar, lag_set, form="residual")
        lap = temporal_penalty_value(latent, ar, lag_set, form="laplacian")
        assert abs(lap - res) <= 1e-8 * max(1.0, abs(res))
    assert time.perf_counter() - start < 5.0


def test_criterion_2_block_gradients_match_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(12)
    weights = RegularizationWeights(0.6, 0.3, 0.2, 0.2)
    lag_set = LagSet((1, 3))
    eps = 1e-6
    for _ in range(20):
        routing = RoutingMatrix((rng.random((5, 6)) < 0.5).astype(float))
        arrays = {
            "spatial": rng.random((6, 2)),
            "latent": rng.random((2, 15)),
            "ar": rng.random((2, 2)),
        }
        x = rng.random((6, 15)) * 3
        model = FactorModel.from_factors(arrays["spatial"], arrays["latent"],
                                         arrays["ar"], lag_set, routing,
                                         weights)
        for block, arr in arrays.items():
            grad = block_gradient(block, x, model)
            fd = np.zeros_like(arr)
            for idx in np.ndindex(arr.shape):
                for sign in (1.0, -1.0):
                    pert = {k: v.copy() for k, v in arrays.items()}
                    pert[block][idx] += sign * eps
                    m = FactorModel.from_factors(
                        pert["spatial"], pert["latent"], pert["ar"],
                        lag_set, routing, weights)
                    fd[idx] += sign * objective_value(x, m)
            fd /= 2 * eps
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel <= 1e-5, block
    assert time.perf_counter() - start < 10.0


def test_criterion_3_training_trace_is_monotone():
    start = time.perf_counter()
    scen = generate_synthetic(6, 4, 300, LagSet((1, 2)), 0.05, seed=3)
    cfg = TrainConfig(rank=4, lag_set=LagSet((1, 2)))
    _, report = train(scen.traffic, scen.routing, cfg)
    trace = report.objective_trace
    assert len(trace) >= 2
    slack = 1e-12 * max(1.0, trace[0])
    for a, b in zip(trace, trace[1:]):
        assert b <= a + slack
    assert time.perf_counter() - start < 30.0


def test_criterion_4_planted_recovery_meets_frozen_bound():
    start = time.perf_counter()
    mean_tre = _planted_mean_tre(PLANTED_SEED)
    assert FROZEN_TRE_BOUND <= 0.25
    assert mean_tre <= FROZEN_TRE_BOUND
    assert time.perf_counter() - start < 60.0


def test_criterion_5_em_fixed_point_and_nonnegativity(monkeypatch):
    rng = np.random.default_rng(15)
    # consistent observations are a fixed point of one EM step
    with monkeypatch.context() as patch:
        patch.setattr(estimation, "R_MAX_EM", 1)
        for _ in range(20):
            m, n = int(rng.integers(3, 8)), int(rng.integers(3, 10))
            a = (rng.random((m, n)) < 0.5).astype(float)
            a[rng.integers(0, m, size=n), np.arange(n)] = 1.0
            x_star = rng.random(n) + 0.05
            y = a @ x_star
            out = refine_em(x_star, y, a)
            move = np.linalg.norm(out - x_star) / np.linalg.norm(x_star)
            assert move < 1e-12
    # estimated flows are entry-wise nonnegative on arbitrary input
    for trial in range(100):
        m, n, k = (int(rng.integers(3, 8)), int(rng.integers(4, 12)),
                   int(rng.integers(1, 4)))
        routing = (rng.random((m, n)) < 0.5).astype(float)
        routing[rng.integers(0, m, size=n), np.arange(n)] = 1.0
        routing = RoutingMatrix(routing)
        model = FactorModel.from_factors(
            rng.random((n, k)), rng.random((k, 20)), rng.random((k, 2)),
            LagSet((1, 2)), routing)
        y = rng.random(m) * rng.integers(0, 3)  # includes all-zero vectors
        x_hat = estimate_od_flow(y, model)
        assert (x_hat >= 0).all(), trial


def test_criterion_6_masked_training_stays_within_degradation_budget():
    scen, train_tm, test_tm, y_test = _planted_scenario(PLANTED_SEED)
    full_tre = _planted_mean_tre(PLANTED_SEED)
    rng = np.random.default_rng(MASK_SEED)
    mask = (rng.random(train_tm.entries.shape) >= 0.2).astype(float)
    masked_tm = TrafficMatrix(train_tm.entries * mask, mask=mask)
    masked_tre = _planted_mean_tre(PLANTED_SEED, traffic=masked_tm)
    assert masked_tre <= 1.5 * full_tre


def test_criterion_7_regularizers_help_on_noisy_data():
    # mirrors the published ablation: with observation noise, enabling both
    # penalties must not hurt the average spatial error over 5 seeds
    means = {0.0: [], 0.5: []}
    for seed in range(1, 6):
        scen, train_tm, test_tm, y_test = _planted_scenario(seed, noise=0.05)
        for beta in (0.0, 0.5):
            cfg = TrainConfig(rank=4, lag_set=LagSet((1, 2)),
                              beta_temporal=beta, beta_ortho=beta)
            model, _ = train(train_tm, scen.routing, cfg)
            x_est = estimate_od_flows(y_test.entries, model)
            means[beta].append(
                float(np.mean(sre(test_tm.entries, x_est).defined_values())))
    assert np.mean(means[0.5]) <= np.mean(means[0.0])


def test_criterion_8_internet2_reproduction():
    data_dir = os.environ.get("TTNMF_INTERNET2_DIR")
    data_dir = Path(data_dir) if data_dir else \
        Path(__file__).parent / "data" / "internet2"
    routing_path = data_dir / "routing.csv"
    traffic_path = data_dir / "traffic.csv"
    if not (routing_path.exists() and traffic_path.exists()):
        pytest.skip(
            "Internet2 data not present: provide routing.csv and traffic.csv "
            "in tests/data/internet2/ or point TTNMF_INTERNET2_DIR at them")
    routing = RoutingMatrix(load_matrix_csv(routing_path))
    entries = load_matrix_csv(traffic_path)
    assert entries.shape[1] >= 3168, "expected >= 3168 five-minute slots"
    train_tm = TrafficMatrix(entries[:, :2016])
    test_entries = entries[:, 2016:3168]
    cfg = TrainConfig(rank=20,
                      lag_set=LagSet((1, 2, 3, 12, 24, 96, 102, 108, 288)),
                      beta_temporal=0.2, beta_ortho=0.2)
    model, _ = train(train_tm, routing, cfg)
    y_test = routing.entries @ test_entries
    x_est = estimate_od_flows(y_test, model)
    mean_tre = float(np.mean(tre(test_entries, x_est).defined_values()))
    mean_sre = float(np.mean(sre(test_entries, x_est).defined_values()))
    assert abs(mean_tre - 0.18) <= 0.05
    assert abs(mean_sre - 0.39) <= 0.10


def _run_pipeline(base):
    data, run = base / "data", base / "run"
    codes = [
        main(["synth", "--out", str(data), "--seed", "42", "--split", "300"]),
        main(["train", "--out", str(run),
              "--routing", str(data / "routing.csv"),
              "--traffic", str(data / "traffic.csv"), "--split", "300",
              "--rank", "4", "--lags", "1,2"]),
        main(["estimate", "--out", str(run),
              "--model", str(run / "model.ttnmf"),
              "--linkflows", str(data / "linkflows_test.csv")]),
        main(["evaluate", "--out", str(run),
              "--true", str(data / "traffic_test.csv"),
              "--est", str(run / "estimated.csv")]),
    ]
    return codes, data, run


def _strip_wall_ms(trace_text):
    return [line.rsplit(",", 1)[0] for line in trace_text.splitlines()]


def test_criterion_9_cli_round_trip_is_deterministic(tmp_path):
    codes, data, run = _run_pipeline(tmp_path / "first")
    assert codes == [0, 0, 0, 0]
    for name in ("sre.csv", "tre.csv", "stats.csv", "cdf_sre.csv",
                 "cdf_tre.csv"):
        assert (run / name).exists()

    self_run = tmp_path / "self"
    assert main(["evaluate", "--out", str(self_run),
                 "--true", str(data / "traffic_test.csv"),
                 "--est", str(data / "traffic_test.csv")]) == 0
    for name in ("sre.csv", "tre.csv"):
        vals = load_matrix_csv(self_run / name)
        np.testing.assert_array_equal(vals, 0.0)

    codes2, data2, run2 = _run_pipeline(tmp_path / "second")
    assert codes2 == [0, 0, 0, 0]
    for name in ("routing.csv", "traffic.csv", "linkflows.csv",
                 "traffic_train.csv", "traffic_test.csv",
                 "linkflows_test.csv"):
        assert (data / name).read_bytes() == (data2 / name).read_bytes(), name
    for name in ("model.ttnmf", "estimated.csv", "sre.csv", "tre.csv",
                 "stats.csv", "cdf_sre.csv", "cdf_tre.csv"):
        assert (run / name).read_bytes() == (run2 / name).read_bytes(), name
    # wall-clock column varies run to run; q and e_q must not
    assert (_strip_wall_ms((run / "trace.csv").read_text())
            == _strip_wall_ms((run2 / "trace.csv").read_text()))
