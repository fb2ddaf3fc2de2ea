"""Trainer tests.

Covers:
  - config validation and per-block thresholds
  - momentum schedule hand value
  - analytic gradients: stationary point, finite differences (also with
    per-row temporal weights), lambda = 0 reduction
  - step-size denominators: identity case, Hessian power-iteration oracle,
    upper-bound property with the temporal term, degenerate guards; the AR
    update's stacked bounds against per-row blocks, bit for bit
  - block errors from the Gram products against the direct residual, near
    exact fits included
  - inner loop behavior: active projection, interior quadratic convergence
  - penalty tuning: in-test ratio oracle, ratio = 1 construction, vanishing
    denominators, empty lag set, beta = 0
  - missing data: em_mask_step selection oracle, weighted fill on planted
    rank-1 data, degenerate rows/columns
  - train: monotone trace, nonneg iterates, planted fit quality, plain-NMF
    reduction, input validation, non-finite guard, the seed residual's
    memory
  - stop rule: converged before q_max on the acceptance scenarios (with and
    without em_mask), q_max with a tiny delta, penalized trace oracle, the
    Gram-form trace and the penalty-term traces against objective_terms of
    each iterate
"""

import logging
import math
import tracemalloc

import numpy as np
import pytest

import ttnmf.factors as factors
import ttnmf.training as training
from ttnmf.errors import ConfigError, NumericalFailure, ShapeError, UsageError
from ttnmf.factors import (FactorModel, LagSet, RegularizationWeights,
                           build_lag_design_matrix, build_temporal_graph,
                           objective_value, ortho_penalty_value,
                           temporal_penalty_value)
from ttnmf.network import TrafficMatrix, generate_synthetic
from ttnmf.training import (TrainConfig, block_gradient, em_mask_step,
                            fill_missing_weighted, next_momentum, train,
                            tune_penalties)


def block_lipschitz(block, x, model, weights, row=None):
    """The step-size denominator training uses for one block (1.0 where the
    curvature vanishes).  No step depends on the data, so x may be None."""
    if block == "ar" and row is None:
        raise UsageError("the ar block needs a row index")
    x = (np.zeros((model.n_flows, model.n_timestamps)) if x is None
         else np.asarray(x, dtype=float))
    # the routing enters only the spatial gradient, which is not evaluated
    return training._block(block, x, model, weights, None, row)[2]


def fast_gradient_update(block, x, model, weights, routing, q_block_max=10,
                         delta_block=1e-3):
    """One inner pass of training's loop over the spatial or latent block."""
    triple = training._block(block, np.asarray(x, dtype=float), model,
                             weights, training.routing_array(routing))
    current = model.spatial if block == "spatial" else model.latent
    return training._nesterov_loop(current, *triple, q_block_max,
                                   rel_tol=delta_block)[0]


def _model(rng, n=6, k=3, T=15, lags=(1, 2), m=4):
    ls = LagSet(lags)
    routing = (rng.random((m, n)) < 0.5).astype(float)
    model = FactorModel.from_factors(
        rng.random((n, k)), rng.random((k, T)) * 2,
        rng.random((k, len(ls))), ls, routing)
    return model, routing


# ----------------------------------------------------------------- config

def test_config_validation():
    TrainConfig(rank=3).validate()
    with pytest.raises(ConfigError):
        TrainConfig(rank=0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(rank=2, beta_temporal=1.5).validate()
    with pytest.raises(ConfigError):
        TrainConfig(rank=2, beta_ortho=-0.1).validate()
    with pytest.raises(ConfigError):
        TrainConfig(rank=2, q_max=0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(rank=2, delta=0.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(rank=2, missing_mode="drop").validate()


def test_config_block_overrides():
    cfg = TrainConfig(rank=2)
    assert cfg.block_delta("ar") == cfg.delta_ar


def test_momentum_schedule():
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    assert next_momentum(1.0) == pytest.approx(golden, rel=1e-15)
    # schedule grows roughly linearly: alpha_q ~ q/2
    a = 1.0
    for _ in range(100):
        a = next_momentum(a)
    assert 45 < a < 60


# -------------------------------------------------------------- gradients

def _stationary_setup():
    # X = WH, constant AR-exact latent rows, orthonormal compact routing
    n, k, T = 4, 2, 10
    routing = np.eye(n)
    spatial = np.zeros((n, k))
    spatial[0, 0] = 1.0
    spatial[2, 1] = 1.0
    latent = np.tile(np.array([[2.0], [5.0]]), (1, T))
    ar = np.full((k, 2), 0.5)
    ls = LagSet([1, 2])
    model = FactorModel.from_factors(spatial, latent, ar, ls, routing)
    x = spatial @ latent
    return x, model, routing


def test_gradients_vanish_at_stationary_point():
    x, model, routing = _stationary_setup()
    weights = RegularizationWeights(1.3, 0.8, 0.5, 0.5)
    for block in ("spatial", "latent", "ar"):
        g = block_gradient(block, x, model, weights, routing)
        assert np.abs(g).max() < 1e-10, block


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(42)
    weights = RegularizationWeights(0.7, 0.4, 0.2, 0.2)
    eps = 1e-6
    for _ in range(5):
        model, routing = _model(rng)
        x = rng.random((6, 15)) * 3
        arrays = {"spatial": model.spatial, "latent": model.latent,
                  "ar": model.ar_weights}
        for block, arr in arrays.items():
            grad = block_gradient(block, x, model, weights, routing)
            fd = np.zeros_like(arr)
            for idx in np.ndindex(arr.shape):
                for sign in (1.0, -1.0):
                    pert = {k: v.copy() for k, v in arrays.items()}
                    pert[block][idx] += sign * eps
                    m = FactorModel.from_factors(
                        pert["spatial"], pert["latent"], pert["ar"],
                        model.lag_set, routing)
                    fd[idx] += sign * objective_value(x, m, weights, routing)
            fd /= 2 * eps
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel <= 1e-5, block


def test_row_weighted_latent_gradient_matches_finite_differences():
    # the latent block with a per-row temporal weight lambda_t r_p, as the
    # window fit uses it on Jacobi-scaled rows, against central differences
    # of ||X - W H||^2 + lambda_t sum_p r_p * (temporal penalty of row p)
    rng = np.random.default_rng(43)
    weights = RegularizationWeights(0.7, 0.4, 0.2, 0.2)
    eps = 1e-6
    for _ in range(5):
        model, _ = _model(rng)
        x = rng.random((6, 15)) * 3
        r = 10.0 ** rng.uniform(-2.0, 2.0, model.rank)

        def objective(h):
            temporal = sum(r[p] * temporal_penalty_value(
                h[p:p + 1], model.ar_weights[p:p + 1], model.lag_set,
                "residual") for p in range(model.rank))
            return (float(np.sum((x - model.spatial @ h) ** 2))
                    + weights.lambda_temporal * temporal)

        grad = training._latent_block(x, model.spatial, model.ar_weights,
                                      model.lag_set, weights,
                                      row_weight=r)[0](model.latent)
        fd = np.zeros_like(model.latent)
        for idx in np.ndindex(fd.shape):
            for sign in (1.0, -1.0):
                pert = model.latent.copy()
                pert[idx] += sign * eps
                fd[idx] += sign * objective(pert)
        fd /= 2 * eps
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel <= 1e-5


def test_spatial_gradient_reduces_without_penalties():
    rng = np.random.default_rng(1)
    model, routing = _model(rng)
    x = rng.random((6, 15))
    weights = RegularizationWeights(0.0, 0.0, 0.0, 0.0)
    g = block_gradient("spatial", x, model, weights, routing)
    plain = 2.0 * (model.spatial @ (model.latent @ model.latent.T)
                   - x @ model.latent.T)
    np.testing.assert_allclose(g, plain, atol=1e-12)


def test_block_gradient_unknown_block():
    rng = np.random.default_rng(2)
    model, routing = _model(rng)
    with pytest.raises(UsageError):
        block_gradient("bias", np.ones((6, 15)), model,
                       RegularizationWeights(), routing)


# ----------------------------------------------------- Lipschitz constants

def test_lipschitz_identity_latent_gram():
    # latent rows orthonormal: H H^T = I so the data curvature is exactly 2
    n, k, T = 5, 3, 8
    latent = np.zeros((k, T))
    latent[np.arange(k), np.arange(k)] = 1.0
    model = FactorModel.from_factors(np.ones((n, k)), latent, np.zeros((k, 0)),
                                     LagSet(), np.eye(n))
    weights = RegularizationWeights()
    assert block_lipschitz("spatial", None, model, weights) == pytest.approx(2.0)


def _power_iteration(hess_vec, shape, iters=200, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(shape)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = hess_vec(v)
        lam = float(np.vdot(v, w))
        nrm = np.linalg.norm(w)
        if nrm == 0:
            return 0.0
        v = w / nrm
    return lam


def test_lipschitz_matches_hessian_power_iteration():
    rng = np.random.default_rng(3)
    model, routing = _model(rng, lags=())
    weights = RegularizationWeights()
    # spatial block data Hessian: V -> 2 V (H H^T)
    hht = model.latent @ model.latent.T
    lam = _power_iteration(lambda v: 2.0 * v @ hht, model.spatial.shape)
    lw = block_lipschitz("spatial", None, model, weights)
    assert abs(lw - lam) / lam <= 0.05
    # latent block data Hessian: V -> 2 (W^T W) V
    wtw = model.spatial.T @ model.spatial
    lam = _power_iteration(lambda v: 2.0 * wtw @ v, model.latent.shape)
    lh = block_lipschitz("latent", None, model, weights)
    assert abs(lh - lam) / lam <= 0.05


def test_lipschitz_latent_upper_bounds_temporal_hessian():
    rng = np.random.default_rng(4)
    lam_t = 0.9
    weights = RegularizationWeights(lambda_temporal=lam_t)
    three_rows = _model(rng, lags=(1, 3))[0]
    # one row and W = 0: the bound must hold for a single row's temporal
    # Hessian alone, without the slack of a sum over rows
    single_rows = [
        FactorModel.from_factors(np.zeros((6, 1)), rng.random((1, 60)) * 2,
                                 rng.random((1, len(lags))), LagSet(lags),
                                 np.eye(6))
        for lags in ((1,), (1, 3), (1, 2, 3, 12, 24))]
    for model in [three_rows] + single_rows:
        graphs = [build_temporal_graph(model.ar_weights[p], model.lag_set,
                                       model.n_timestamps)
                  for p in range(model.rank)]
        wtw = model.spatial.T @ model.spatial

        def hess_vec(v):
            out = 2.0 * wtw @ v
            for p, g in enumerate(graphs):
                out[p] += lam_t * (2.0 * (g.laplacian @ v[p])
                                   + g.diagonal * v[p])
            return out

        lam = _power_iteration(hess_vec, model.latent.shape, iters=2000)
        lh = block_lipschitz("latent", None, model, weights)
        assert lh >= lam * (1 - 1e-10), model.lag_set


def test_lipschitz_ar_guards():
    model = FactorModel.from_factors(np.ones((3, 2)), np.zeros((2, 9)),
                                     np.zeros((2, 2)), LagSet([1, 2]), np.eye(3))
    weights = RegularizationWeights(lambda_temporal=1.0)
    # zero latent row: zero design, free step
    assert block_lipschitz("ar", None, model, weights, row=0) == 1.0
    with pytest.raises(UsageError):
        block_lipschitz("ar", None, model, weights)


def test_update_ar_matches_per_row_blocks():
    # the stacked Grams and their one SVD give the bounds, and so the AR
    # weights, of per-row _block("ar") calls bit for bit
    rng = np.random.default_rng(33)
    weights = RegularizationWeights(lambda_temporal=2.5)
    for lags, T in (((1, 2), 15), ((1, 3, 7), 40), ((5,), 6)):
        latent = rng.random((4, T))
        latent[1] = 0.0   # zero design: the free step
        model = FactorModel.from_factors(
            rng.random((6, 4)), latent, rng.random((4, len(lags))),
            LagSet(lags), np.ones((2, 6)), weights)
        omega, n = training._update_ar(model.latent, model.ar_weights,
                                       model.lag_set, 2.5, 10, 1e-5)
        rows = [training._nesterov_loop(
            model.ar_weights[p],
            *training._block("ar", None, model, weights, None, p), 10,
            rel_tol=1e-5) for p in range(4)]
        np.testing.assert_array_equal(omega, [r for r, _ in rows])
        assert n == sum(m for _, m in rows)


def test_lipschitz_ar_matches_design_gram():
    rng = np.random.default_rng(5)
    model, _ = _model(rng)
    weights = RegularizationWeights(lambda_temporal=1.0)
    for p in range(model.rank):
        design = build_lag_design_matrix(model.latent, p, model.lag_set)
        expected = np.linalg.norm(design @ design.T, 2)
        assert block_lipschitz("ar", None, model, weights, row=p) \
            == pytest.approx(expected, rel=1e-12)


# ------------------------------------------------------------ block errors

@pytest.mark.parametrize("noise", [1.0, 1e-5, 0.0])
def test_block_errors_from_gram_products_match_direct_residual(noise):
    # each block's err comes from its Gram products, so it equals the direct
    # ||X - W H||^2 only up to rounding of order eps ||X||^2; the bound is
    # relative to ||X||^2 (||x_j||^2 per column), because one relative to the
    # fit cannot hold for the near-exact fits (noise 1e-5 and 0)
    rng = np.random.default_rng(8)
    w, h = rng.random((12, 3)), rng.random((3, 30))
    x = w @ h + noise * rng.random((12, 30))
    xx, xx_cols = np.sum(x * x), np.sum(x * x, axis=0)
    if noise < 1.0:
        assert np.sum((x - w @ h) ** 2) <= 1e-8 * xx
    ls = LagSet([1, 2])
    omega = rng.random((3, 2))
    for b_w, b_h in ((w, h), (w + 0.1, h * 0.9)):
        spatial = training._spatial_block(x, b_h, RegularizationWeights(),
                                          None)[1](b_w)
        latent = training._latent_block(
            x, b_w, omega, ls, RegularizationWeights(0.5, 0.5, 0.2, 0.2))[1](b_h)
        columns = training._latent_block(
            x, b_w, np.zeros((3, 0)), LagSet(), RegularizationWeights(),
            by_column=True)[1](b_h)
        direct = x - b_w @ b_h
        for got in (spatial, latent):
            assert np.isfinite(got) and got >= 0.0
            assert abs(got - np.sum(direct ** 2)) <= 1e-10 * xx
        assert columns.shape == (30,)
        assert np.isfinite(columns).all() and (columns >= 0.0).all()
        assert (np.abs(columns - np.sum(direct ** 2, axis=0))
                <= 1e-10 * xx_cols).all()


# ------------------------------------------------------------- inner loop

def test_inner_loop_projects_negative_optimum_to_zero():
    # min (x - h)^2 over h >= 0 with x = -1: optimum clamps at h = 0
    model = FactorModel.from_factors(np.array([[1.0]]), np.array([[1.0]]),
                                     np.zeros((1, 0)), LagSet(), np.eye(1))
    out = fast_gradient_update("latent", np.array([[-1.0]]), model,
                               RegularizationWeights(), np.eye(1),
                               q_block_max=100, delta_block=1e-14)
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_inner_loop_reaches_interior_minimizer():
    # with W = I the latent subproblem is separable; minimizer is X itself
    rng = np.random.default_rng(6)
    x = rng.random((3, 7)) + 0.5
    h0 = rng.random((3, 7))
    model = FactorModel.from_factors(np.eye(3), h0, np.zeros((3, 0)),
                                     LagSet(), np.eye(3))
    out = fast_gradient_update("latent", x, model, RegularizationWeights(),
                               np.eye(3), q_block_max=200, delta_block=1e-16)
    np.testing.assert_allclose(out, x, atol=1e-6)


def test_inner_loop_never_worse_on_block_error():
    rng = np.random.default_rng(7)
    model, routing = _model(rng)
    x = rng.random((6, 15))
    weights = RegularizationWeights(0.5, 0.5, 0.2, 0.2)
    e0 = float(np.sum((x - model.spatial @ model.latent) ** 2))
    for q in (1, 3, 10):
        w = fast_gradient_update("spatial", x, model, weights, routing,
                                 q_block_max=q, delta_block=1e-3)
        e1 = float(np.sum((x - w @ model.latent) ** 2))
        assert e1 <= e0 * (1 + 1e-12)
        assert w.min() >= 0


# ---------------------------------------------------------- penalty tuning

def test_tune_penalties_matches_ratio_oracle():
    rng = np.random.default_rng(8)
    ls = LagSet([1, 2])
    n, k, T = 6, 2, 12
    routing = (rng.random((4, n)) < 0.5).astype(float)
    w0, h0 = rng.random((n, k)), rng.random((k, T))
    o0 = rng.random((k, 2))
    x = rng.random((n, T))
    num = float(np.sum((x - w0 @ h0) ** 2))
    den_t = 0.0
    for p in range(k):
        d = build_lag_design_matrix(h0, p, ls)
        den_t += float(np.sum((h0[p] - o0[p] @ d) ** 2))
    den_o = ortho_penalty_value(routing @ w0)
    lam_t, lam_o = tune_penalties(x, w0, h0, o0, ls, 0.2, 0.3, routing)
    assert lam_t == pytest.approx(0.2 * num / den_t, rel=1e-12)
    assert lam_o == pytest.approx(0.3 * num / den_o, rel=1e-12)


def test_tune_penalties_unit_ratio():
    # data residual 2 and AR residual 2 (zero weights): lambda equals beta
    x = np.array([[2.0, 2.0]])
    w0 = np.array([[1.0]])
    h0 = np.array([[1.0, 1.0]])
    o0 = np.zeros((1, 1))
    lam_t, _ = tune_penalties(x, w0, h0, o0, LagSet([1]), 0.2, 0.0, np.eye(1))
    assert lam_t == pytest.approx(0.2, rel=1e-12)


def test_tune_penalties_orthonormal_denominator_vanishes(caplog):
    rng = np.random.default_rng(9)
    w0 = np.zeros((4, 2))
    w0[0, 0] = 1.0
    w0[1, 1] = 1.0
    h0 = rng.random((2, 6))
    x = rng.random((4, 6))
    with caplog.at_level(logging.WARNING, logger="ttnmf.training"):
        _, lam_o = tune_penalties(x, w0, h0, np.zeros((2, 0)), LagSet(),
                                  0.0, 0.4, np.eye(4))
    assert lam_o == 0.0
    assert any("disabled" in rec.message for rec in caplog.records)


def test_tune_penalties_empty_lag_set_and_zero_betas():
    rng = np.random.default_rng(10)
    x = rng.random((4, 6))
    w0, h0 = rng.random((4, 2)), rng.random((2, 6))
    lam_t, lam_o = tune_penalties(x, w0, h0, np.zeros((2, 0)), LagSet(),
                                  0.5, 0.0, np.eye(4))
    assert lam_t == 0.0 and lam_o == 0.0


# ------------------------------------------------------------ missing data

def test_em_mask_step_selection_oracle():
    rng = np.random.default_rng(11)
    x = rng.random((4, 6))
    mask = (rng.random((4, 6)) < 0.6).astype(float)
    w, h = rng.random((4, 2)), rng.random((2, 6))
    got = em_mask_step(x, mask, w, h)
    pred = w @ h
    for i in range(4):
        for t in range(6):
            expected = x[i, t] if mask[i, t] == 1.0 else pred[i, t]
            assert got[i, t] == pytest.approx(expected, abs=1e-15)


def test_em_mask_step_trivial_masks():
    rng = np.random.default_rng(12)
    x = rng.random((3, 5))
    w, h = rng.random((3, 2)), rng.random((2, 5))
    np.testing.assert_array_equal(em_mask_step(x, np.ones_like(x), w, h), x)
    np.testing.assert_allclose(em_mask_step(x, np.zeros_like(x), w, h),
                               w @ h, atol=1e-15)
    with pytest.raises(ShapeError):
        em_mask_step(x, np.ones((2, 5)), w, h)


def test_fill_weighted_identity_on_full_mask():
    rng = np.random.default_rng(13)
    x = rng.random((5, 8))
    np.testing.assert_array_equal(fill_missing_weighted(x, None, 2), x)
    np.testing.assert_array_equal(
        fill_missing_weighted(x, np.ones_like(x), 2), x)


def test_fill_weighted_completes_planted_rank1():
    rng = np.random.default_rng(14)
    u = rng.random(12) + 0.5
    v = rng.random(30) + 0.5
    x = np.outer(u, v)
    mask = (rng.random(x.shape) >= 0.1).astype(float)
    completed = fill_missing_weighted(x * mask, mask, 1)
    # observed entries pass through untouched
    np.testing.assert_array_equal(completed[mask == 1], x[mask == 1])
    missing = mask == 0
    rel = np.abs(completed[missing] - x[missing]) / x[missing]
    assert rel.max() <= 1e-2
    assert completed.min() >= 0


def test_fill_weighted_zero_observed_row(caplog):
    rng = np.random.default_rng(15)
    x = rng.random((4, 6)) + 0.5
    mask = np.ones_like(x)
    mask[2, :] = 0.0
    with caplog.at_level(logging.WARNING, logger="ttnmf.training"):
        completed = fill_missing_weighted(x * mask, mask, 2)
    assert not completed[2, :].any()
    assert any("no" in rec.message and "observation" in rec.message
               for rec in caplog.records)


# ------------------------------------------------------------------- train

def test_train_trace_monotone_and_factors_nonneg():
    scen = generate_synthetic(n_routers=5, planted_rank=3, n_timestamps=80,
                              planted_lags=LagSet([1, 2]), noise_level=0.05,
                              seed=17)
    cfg = TrainConfig(rank=3, lag_set=LagSet([1, 2]), q_max=20)
    model, report = train(scen.traffic, scen.routing, cfg)
    trace = np.array(report.objective_trace)
    assert np.all(np.diff(trace) <= 1e-12)
    assert model.spatial.min() >= 0
    assert model.latent.min() >= 0
    assert model.ar_weights.min() >= 0
    assert report.n_iterations == len(report.block_iteration_counts["spatial"])
    np.testing.assert_allclose(model.compact_routing,
                               scen.routing.entries @ model.spatial, atol=1e-12)


def test_train_fits_planted_noiseless_data():
    # fit-capacity check: penalties off, exact rank, noiseless data
    scen = generate_synthetic(n_routers=5, planted_rank=3, n_timestamps=200,
                              planted_lags=LagSet([1, 2]), noise_level=0.0,
                              seed=18)
    cfg = TrainConfig(rank=3, lag_set=LagSet([1, 2]), beta_temporal=0.0,
                      beta_ortho=0.0, q_max=150, q_block_max=20)
    model, report = train(scen.traffic, scen.routing, cfg)
    x = scen.traffic.entries
    rel = np.linalg.norm(x - model.spatial @ model.latent) / np.linalg.norm(x)
    assert rel <= 1e-3


def test_train_without_penalties_is_plain_nmf():
    scen = generate_synthetic(n_routers=4, planted_rank=2, n_timestamps=60,
                              planted_lags=LagSet([1]), noise_level=0.1,
                              seed=19)
    cfg = TrainConfig(rank=2, lag_set=LagSet([1]), beta_temporal=0.0,
                      beta_ortho=0.0, q_max=15)
    model, report = train(scen.traffic, scen.routing, cfg)
    assert model.weights.lambda_temporal == model.weights.lambda_ortho == 0.0
    # ar block is skipped entirely when the temporal penalty is off
    assert all(c == 0 for c in report.block_iteration_counts["ar"])
    # final fit never worse than the seed fit
    assert report.objective_trace[-1] <= report.objective_trace[0]


def test_train_em_mask_and_weighted_fill_run():
    scen = generate_synthetic(n_routers=4, planted_rank=2, n_timestamps=60,
                              planted_lags=LagSet([1]), noise_level=0.0,
                              seed=20)
    rng = np.random.default_rng(0)
    mask = (rng.random(scen.traffic.entries.shape) >= 0.2).astype(float)
    gappy = TrafficMatrix(scen.traffic.entries * mask, mask=mask)
    for mode in ("em_mask", "weighted_fill"):
        cfg = TrainConfig(rank=2, lag_set=LagSet([1]), q_max=10,
                          missing_mode=mode)
        model, report = train(gappy, scen.routing, cfg)
        trace = np.array(report.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12), mode
        assert np.isfinite(model.latent).all()


def _stopped_at_relative_drop(report, delta):
    f = report.penalized_trace
    return 0.0 <= f[-2] - f[-1] < delta * f[-2]


def test_train_stops_when_penalized_objective_stalls():
    # acceptance criterion 3's scenario with the default config
    scen = generate_synthetic(6, 4, 300, LagSet((1, 2)), 0.05, seed=3)
    cfg = TrainConfig(rank=4, lag_set=LagSet((1, 2)))
    model, report = train(scen.traffic, scen.routing, cfg)
    assert report.stop_reason == "converged"
    assert report.n_iterations < cfg.q_max
    assert len(report.penalized_trace) == len(report.objective_trace)
    assert _stopped_at_relative_drop(report, cfg.delta)
    f = report.penalized_trace
    assert not any(0.0 <= a - b < cfg.delta * a for a, b in zip(f[:-2], f[1:-1]))
    # the last entry is the penalized objective of the returned model
    assert f[-1] == pytest.approx(
        objective_value(scen.traffic.entries, model, model.weights,
                        scen.routing), rel=1e-12)
    assert report.objective_trace[-1] < f[-1]


def test_train_gram_form_trace_matches_objective_terms(monkeypatch):
    # acceptance criterion 3's scenario: the trace takes the data fit from the
    # latent block's Gram products, objective_terms forms X - W H
    scen = generate_synthetic(6, 4, 300, LagSet((1, 2)), 0.05, seed=3)
    cfg = TrainConfig(rank=4, lag_set=LagSet((1, 2)))
    iterates = []
    outer = training._outer_iteration

    def recording(*args):
        result = outer(*args)
        iterates.append(result[:3])
        return result

    def seed(x, w, h, omega, *args, **kwargs):
        iterates.append((w, h, omega))
        return tune(x, w, h, omega, *args, **kwargs)

    tune = training.tune_penalties
    monkeypatch.setattr(training, "_outer_iteration", recording)
    monkeypatch.setattr(training, "tune_penalties", seed)
    model, report = train(scen.traffic, scen.routing, cfg)
    assert len(iterates) - 1 == report.n_iterations >= 2
    assert (len(report.temporal_trace) == len(report.ortho_trace)
            == len(report.objective_trace))
    x = scen.traffic.entries
    for q, (w, h, omega) in enumerate(iterates):
        m = FactorModel.from_factors(w, h, omega, cfg.lag_set, scen.routing,
                                     model.weights)
        terms = factors.objective_terms(x, m, model.weights, scen.routing)
        if q == 0:
            # the seed's fit is the direct residual's, formed once
            assert report.objective_trace[0] == terms[0]
            assert report.penalized_trace[0] == sum(terms)
        assert report.objective_trace[q] == pytest.approx(terms[0], rel=1e-12)
        assert report.penalized_trace[q] == pytest.approx(sum(terms),
                                                          rel=1e-12)
        assert report.temporal_trace[q] == terms[1] > 0
        assert report.ortho_trace[q] == terms[2] > 0


def test_train_forms_the_seed_residual_once_in_place():
    # at this shape the n x T arrays dominate; X - W0 H0 formed as a product
    # and a difference, once for the penalty scale and once for the trace,
    # peaked at twice the size of X
    rng = np.random.default_rng(31)
    n, T = 200, 2000
    x = rng.random((n, 2)) @ rng.random((2, T))
    traffic = TrafficMatrix(x)
    routing = (rng.random((20, n)) < 0.3).astype(float)
    cfg = TrainConfig(rank=2, lag_set=LagSet([1, 2]), q_max=2)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        train(traffic, routing, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * x.nbytes


def test_train_tiny_delta_runs_to_q_max():
    scen = generate_synthetic(6, 4, 300, LagSet((1, 2)), 0.05, seed=3)
    cfg = TrainConfig(rank=4, lag_set=LagSet((1, 2)), q_max=20, delta=1e-15)
    _, report = train(scen.traffic, scen.routing, cfg)
    assert report.stop_reason == "q_max"
    assert report.n_iterations == 20


def test_train_em_mask_stops_before_q_max():
    # acceptance criterion 6's gappy data; criterion 6 checks its accuracy
    scen = generate_synthetic(6, 4, 400, LagSet((1, 2)), 0.0, seed=7)
    x = scen.traffic.entries[:, :300]
    rng = np.random.default_rng(104)
    mask = (rng.random(x.shape) >= 0.2).astype(float)
    cfg = TrainConfig(rank=4, lag_set=LagSet((1, 2)), missing_mode="em_mask")
    _, report = train(TrafficMatrix(x * mask, mask=mask), scen.routing, cfg)
    assert report.stop_reason == "converged"
    assert report.n_iterations < cfg.q_max
    assert _stopped_at_relative_drop(report, cfg.delta)


def test_train_accepts_plain_arrays():
    rng = np.random.default_rng(21)
    x = rng.random((6, 20))
    routing = (rng.random((4, 6)) < 0.5).astype(float)
    model, report = train(x, routing, TrainConfig(rank=2, q_max=3))
    assert model.n_flows == 6


def test_train_validates_inputs():
    rng = np.random.default_rng(22)
    x = rng.random((6, 20))
    routing = np.ones((4, 5))
    with pytest.raises(ShapeError):
        train(x, routing, TrainConfig(rank=2))
    with pytest.raises(ConfigError):
        train(x, np.ones((4, 6)), TrainConfig(rank=7))
    with pytest.raises(ConfigError):
        train(x, np.ones((4, 6)), TrainConfig(rank=2, lag_set=LagSet([25])))


def test_train_raises_numerical_failure_on_nonfinite_block(monkeypatch):
    rng = np.random.default_rng(23)
    x = rng.random((5, 12))
    routing = np.ones((3, 5))

    def poisoned(*args, **kwargs):
        return np.full((5, 2), np.nan), 1

    monkeypatch.setattr(training, "_update_spatial", poisoned)
    with pytest.raises(NumericalFailure) as excinfo:
        train(x, routing, TrainConfig(rank=2, q_max=4))
    snap = excinfo.value.snapshot
    assert snap["iteration"] == 1
    assert np.isfinite(snap["spatial"]).all()
