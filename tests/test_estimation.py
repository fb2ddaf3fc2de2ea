"""Estimator tests.

Covers:
  - config validation
  - latent fit: orthonormal exact recovery, zero input, all-zero compact
    routing guard, never-worse-than-seed, nonneg least-squares residual vs.
    exhaustive active-set enumeration and scipy's solver
  - EM refinement: exact fixed point, zero observation, boundary ML problem
    against a grid-search oracle, scale equivariance, zero-column skip,
    denominator floor logging
  - end-to-end column estimation: consistency, nonnegativity, batch shape
"""

import itertools
import logging

import numpy as np
import pytest
import scipy.optimize

from ttnmf.errors import ConfigError, ShapeError
from ttnmf.estimation import (EstimatorConfig, estimate_latent,
                              estimate_od_flow, estimate_od_flows, refine_em)
from ttnmf.factors import FactorModel, LagSet

_TIGHT = EstimatorConfig(q_max_gd=3000, r_max_em=500, delta_gd=1e-18,
                         delta_em=1e-24)


def _orthonormal_model(n=6, k=3, T=4):
    # disjoint unit columns: compact routing (= spatial here) is orthonormal
    spatial = np.zeros((n, k))
    for j in range(k):
        spatial[2 * j, j] = 1.0
    latent = np.ones((k, T))
    return FactorModel.from_factors(spatial, latent, np.zeros((k, 0)),
                                    LagSet(), np.eye(n))


def _nnls_enumeration_oracle(c, y):
    """Exact min ||y - C h||^2 over h >= 0 by support enumeration."""
    k = c.shape[1]
    best = float(y @ y)  # empty support
    for r in range(1, k + 1):
        for support in itertools.combinations(range(k), r):
            sol, *_ = np.linalg.lstsq(c[:, support], y, rcond=None)
            if (sol >= -1e-12).all():
                h = np.zeros(k)
                h[list(support)] = np.clip(sol, 0.0, None)
                r2 = float(np.sum((y - c @ h) ** 2))
                best = min(best, r2)
    return best


def test_estimator_config_validation():
    EstimatorConfig()
    with pytest.raises(ConfigError):
        EstimatorConfig(q_max_gd=0)
    with pytest.raises(ConfigError):
        EstimatorConfig(delta_gd=0.0)
    with pytest.raises(ConfigError):
        EstimatorConfig(delta_em=-1.0)


# ------------------------------------------------------------- latent fit

def test_latent_orthonormal_recovery():
    model = _orthonormal_model()
    h_star = np.array([2.0, 0.5, 3.0])
    y = model.compact_routing @ h_star
    h = estimate_latent(y, model)
    np.testing.assert_allclose(h, h_star, atol=1e-12)


def test_latent_zero_observation():
    model = _orthonormal_model()
    h = estimate_latent(np.zeros(6), model)
    assert not h.any()


def test_latent_zero_compact_routing_warns(caplog):
    spatial = np.ones((4, 2))
    model = FactorModel.from_factors(spatial, np.ones((2, 3)), np.zeros((2, 0)),
                                     LagSet(), np.zeros((3, 4)))
    with caplog.at_level(logging.WARNING, logger="ttnmf.estimation"):
        h = estimate_latent(np.ones(3), model)
    assert not h.any()
    assert any("all zero" in rec.message for rec in caplog.records)


def test_latent_never_worse_than_back_projection():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m, n, k = 6, 10, 3
        routing = (rng.random((m, n)) < 0.5).astype(float)
        model = FactorModel.from_factors(rng.random((n, k)), rng.random((k, 5)),
                                         np.zeros((k, 0)), LagSet(), routing)
        y = rng.random(m) * 5
        c = model.compact_routing
        h = estimate_latent(y, model)
        assert h.min() >= 0
        seed_err = float(np.sum((y - c @ (c.T @ y)) ** 2))
        assert float(np.sum((y - c @ h) ** 2)) <= seed_err * (1 + 1e-12)


def test_latent_residual_matches_active_set_oracle_consistent():
    rng = np.random.default_rng(1)
    for _ in range(10):
        c = rng.random((6, 3))
        h_star = rng.random(3)
        y = c @ h_star  # consistent: optimal residual is 0
        model = FactorModel.from_factors(np.eye(3), np.ones((3, 2)),
                                         np.zeros((3, 0)), LagSet(), c)
        h = estimate_latent(y, model, _TIGHT)
        oracle = _nnls_enumeration_oracle(c, y)
        assert oracle <= 1e-20
        assert float(np.sum((y - c @ h) ** 2)) <= oracle + 1e-6


def test_latent_residual_matches_oracles_inconsistent():
    rng = np.random.default_rng(2)
    for trial in range(10):
        c = rng.random((6, 3))
        y = rng.random(6) * 2  # generic: no exact nonneg solution
        model = FactorModel.from_factors(np.eye(3), np.ones((3, 2)),
                                         np.zeros((3, 0)), LagSet(), c)
        h = estimate_latent(y, model, _TIGHT)
        got = float(np.sum((y - c @ h) ** 2))
        oracle = _nnls_enumeration_oracle(c, y)
        _, scipy_resid = scipy.optimize.nnls(c, y)
        assert oracle == pytest.approx(scipy_resid ** 2, rel=1e-8, abs=1e-12)
        assert got <= oracle + 1e-6
        assert got >= oracle - 1e-9  # cannot beat the true optimum


def test_latent_shape_mismatch():
    model = _orthonormal_model()
    with pytest.raises(ShapeError):
        estimate_latent(np.ones(5), model)


# ---------------------------------------------------------- EM refinement

def test_em_exact_solution_is_fixed_point():
    rng = np.random.default_rng(3)
    a = (rng.random((5, 9)) < 0.5).astype(float)
    x = rng.random(9) + 0.1
    y = a @ x
    one_step = refine_em(x, y, a, EstimatorConfig(r_max_em=1))
    rel = np.linalg.norm(one_step - x) / np.linalg.norm(x)
    assert rel < 1e-12


def test_em_zero_observation_drives_flows_to_zero():
    a = np.array([[1.0, 1.0], [1.0, 0.0]])
    out = refine_em(np.array([2.0, 3.0]), np.zeros(2), a)
    np.testing.assert_allclose(out, 0.0, atol=1e-300)


def test_em_converges_to_grid_search_ml_point():
    # 2 links over 2 OD pairs; y has no exact nonneg solution, so the
    # Poisson ML optimum sits on the boundary (second flow at 0)
    a = np.array([[1.0, 0.0], [1.0, 1.0]])
    y = np.array([3.0, 2.0])

    def loglik(x1, x2):
        lam = np.stack([x1, x1 + x2])
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(lam > 0, y[:, None, None] * np.log(lam),
                             np.where(y[:, None, None] > 0, -np.inf, 0.0))
        return (terms - lam).sum(axis=0)

    # coarse pass, then a fine pass around the coarse argmax
    g1 = np.linspace(0.01, 6.0, 600)
    g2 = np.linspace(0.0, 3.0, 301)
    ll = loglik(*np.meshgrid(g1, g2, indexing="ij"))
    i, j = np.unravel_index(np.argmax(ll), ll.shape)
    f1 = np.linspace(max(g1[i] - 0.05, 1e-6), g1[i] + 0.05, 1001)
    f2 = np.linspace(max(g2[j] - 0.05, 0.0), g2[j] + 0.05, 1001)
    ll = loglik(*np.meshgrid(f1, f2, indexing="ij"))
    i, j = np.unravel_index(np.argmax(ll), ll.shape)
    oracle = np.array([f1[i], f2[j]])

    got = refine_em(np.array([1.0, 1.0]), y, a,
                    EstimatorConfig(r_max_em=2000, delta_em=1e-30))
    np.testing.assert_allclose(got, oracle, atol=2e-4)


def test_em_scale_equivariant():
    rng = np.random.default_rng(4)
    a = (rng.random((4, 7)) < 0.5).astype(float)
    x0 = rng.random(7)
    y = rng.random(4) * 3
    cfg = EstimatorConfig(r_max_em=50, delta_em=1e-30)
    base = refine_em(x0, y, a, cfg)
    for c in (0.1, 5.0):
        scaled = refine_em(c * x0, c * y, a, cfg)
        np.testing.assert_allclose(scaled, c * base, rtol=1e-10)


def test_em_skips_zero_columns():
    a = np.array([[1.0, 0.0], [1.0, 0.0]])
    x0 = np.array([1.0, 7.5])
    out = refine_em(x0, np.array([2.0, 2.0]), a,
                    EstimatorConfig(r_max_em=100, delta_em=1e-30))
    assert out[1] == 7.5  # unrouted flow held fixed
    assert out[0] == pytest.approx(2.0, rel=1e-10)


def test_em_floors_zero_denominator(caplog):
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    # second flow starts at 0 with positive observation: predicted load is 0
    with caplog.at_level(logging.WARNING, logger="ttnmf.estimation"):
        out = refine_em(np.array([1.0, 0.0]), np.array([1.0, 2.0]), a,
                        EstimatorConfig(r_max_em=3))
    assert any("floored" in rec.message for rec in caplog.records)
    assert np.isfinite(out).all() and out.min() >= 0
    # the coupled first two flows keep EM moving for all three iterations,
    # and the floor is logged once per call, not once per iteration
    caplog.clear()
    a = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    with caplog.at_level(logging.WARNING, logger="ttnmf.estimation"):
        refine_em(np.array([1.0, 1.0, 0.0]), np.array([3.0, 2.0, 2.0]), a,
                  EstimatorConfig(r_max_em=3))
    assert sum("floored" in rec.message for rec in caplog.records) == 1


def test_em_shape_mismatch():
    with pytest.raises(ShapeError):
        refine_em(np.ones(3), np.ones(2), np.ones((2, 2)))


# --------------------------------------------------------------- end to end

def test_od_flow_consistent_case_recovers_exactly():
    model = _orthonormal_model()
    h_star = np.array([1.5, 2.0, 0.25])
    x_star = model.spatial @ h_star
    y = model.compact_routing @ h_star
    got = estimate_od_flow(y, model, np.eye(6))
    np.testing.assert_allclose(got, x_star, atol=1e-8)


def test_od_flow_zero_observation():
    model = _orthonormal_model()
    got = estimate_od_flow(np.zeros(6), model, np.eye(6))
    np.testing.assert_allclose(got, 0.0, atol=1e-300)


def test_od_flow_nonnegative_on_random_inputs():
    rng = np.random.default_rng(5)
    for _ in range(30):
        m, n, k = 5, 8, 3
        routing = (rng.random((m, n)) < 0.5).astype(float)
        model = FactorModel.from_factors(rng.random((n, k)),
                                         rng.random((k, 4)),
                                         np.zeros((k, 0)), LagSet(), routing)
        y = rng.random(m) * 10
        x = estimate_od_flow(y, model, routing)
        assert x.min() >= 0
        assert np.isfinite(x).all()


def test_od_flows_batch_matches_columnwise():
    rng = np.random.default_rng(6)
    m, n, k, T = 5, 8, 3, 6
    routing = (rng.random((m, n)) < 0.5).astype(float)
    model = FactorModel.from_factors(rng.random((n, k)), rng.random((k, 4)),
                                     np.zeros((k, 0)), LagSet(), routing)
    y = rng.random((m, T)) * 4
    batch = estimate_od_flows(y, model, routing)
    assert batch.shape == (n, T)
    for t in range(T):
        np.testing.assert_array_equal(batch[:, t],
                                      estimate_od_flow(y[:, t], model, routing))


def test_od_flow_held_out_timestamp_meets_frozen_bound():
    # end-to-end check on a planted scenario: train on the first 300 slots,
    # estimate one held-out column from its link loads.  The bound is frozen
    # from a development oracle run (measured relative error 0.0575).
    from ttnmf.network import (compute_link_flows, generate_synthetic,
                               split_train_test)
    from ttnmf.training import TrainConfig, train

    scen = generate_synthetic(6, 4, 400, LagSet((1, 2)), 0.0, seed=7)
    train_tm, test_tm = split_train_test(scen.traffic, 300)
    model, _ = train(train_tm, scen.routing,
                     TrainConfig(rank=4, lag_set=LagSet((1, 2))))
    y = compute_link_flows(scen.routing, test_tm).entries[:, 0]
    x_hat = estimate_od_flow(y, model, scen.routing)
    x_true = test_tm.entries[:, 0]
    rel = np.linalg.norm(x_hat - x_true) / np.linalg.norm(x_true)
    assert rel <= 0.065
