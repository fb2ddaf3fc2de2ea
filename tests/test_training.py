"""Trainer tests.

Covers:
  - config validation; integer settings of LagSet and TrainConfig refuse
    other types
  - momentum schedule hand value
  - analytic gradients: stationary point, finite differences (also with
    per-row temporal weights), lambda = 0 reduction
  - step-size denominators: identity case, Hessian power-iteration oracle,
    upper-bound property with the temporal term, degenerate guards
  - the one AR loop over all latent rows against a per-row loop on the
    direct residual, to a stated tolerance; the AR gradient on an empty lag
    set
  - block errors from the Gram products against the direct residual (per
    latent row for the AR block), near exact fits included
  - inner loop behavior: active projection, interior quadratic convergence,
    iterates bit for bit the reference loop's in no more iterations
  - penalty tuning: in-test ratio oracle, ratio = 1 construction, vanishing
    denominators, empty lag set, beta = 0
  - missing data: em_mask_step selection oracle and trivial masks
  - train: monotone trace, nonneg iterates, planted fit quality, plain-NMF
    reduction, input validation (non-finite cells included), a gappy mask
    trained by EM imputation with a monotone trace and without reading its
    unobserved cells,
    non-finite guard, the seed residual's memory, each block update
    called through its module name once per outer iteration
  - stop rule: converged before Q_MAX on the acceptance scenarios (full and
    gappy), Q_MAX with a tiny delta, penalized trace oracle, the
    Gram-form trace and the penalty-term traces against objective_terms of
    each iterate
"""

import logging
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import ttnmf.factors as factors
import ttnmf.training as training
from ttnmf.errors import (ConfigError, NumericalFailure, ShapeError, UsageError,
                          ValidationError)
from ttnmf.factors import (FactorModel, LagSet, RegularizationWeights,
                           build_temporal_graph, lag_designs,
                           objective_value, ortho_penalty_value,
                           temporal_penalty_value)
from ttnmf.network import TrafficMatrix, generate_synthetic
from ttnmf.training import (TrainConfig, block_gradient, em_mask_step,
                            next_momentum, train, tune_penalties)


def block_lipschitz(block, x, model, weights):
    """The step-size denominator training uses for one block (1.0 where the
    curvature vanishes), one per latent row for the AR block.  No step
    depends on the data, so x may be None."""
    x = (np.zeros((model.n_flows, model.n_timestamps)) if x is None
         else np.asarray(x, dtype=float))
    return training._block(block, x, replace(model, weights=weights))[3]


def fast_gradient_update(block, x, model, weights, q_block_max=10,
                         delta_block=1e-3):
    """One inner pass of training's loop over the spatial or latent block."""
    start_and_triple = training._block(block, np.asarray(x, dtype=float),
                                       replace(model, weights=weights))
    return training._nesterov_loop(*start_and_triple, q_block_max,
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
    # a TrainConfig checks its fields when it is made
    TrainConfig(rank=3)
    with pytest.raises(ConfigError):
        TrainConfig(rank=0)
    with pytest.raises(ConfigError):
        TrainConfig(rank=2, beta_temporal=1.5)
    with pytest.raises(ConfigError):
        TrainConfig(rank=2, beta_ortho=-0.1)
    assert not hasattr(TrainConfig, "validate")


@pytest.mark.parametrize("make, name", [
    (lambda: LagSet((1.5, 2.9)), "lags"),
    (lambda: TrainConfig(rank=2.5), "rank"),
    (lambda: TrainConfig(rank="2"), "rank"),
], ids=["lags", "rank", "rank_text"])
def test_integer_settings_reject_other_types(make, name):
    # a float is not truncated and no string is parsed when the object is
    # made; numpy integers pass
    with pytest.raises(ConfigError, match=f"{name} must be an integer"):
        make()
    assert LagSet(np.array([2, 1])).lags == (1, 2)
    assert TrainConfig(rank=np.int32(3)).rank == 3


@pytest.mark.parametrize("make, name", [
    (lambda: TrainConfig(rank=2, beta_temporal="0.2"), "beta_temporal"),
    (lambda: TrainConfig(rank=2, beta_ortho=None), "beta_ortho"),
    (lambda: RegularizationWeights(lambda_temporal="1"), "lambda_temporal"),
    (lambda: RegularizationWeights(lambda_ortho=[1.0]), "lambda_ortho"),
    (lambda: RegularizationWeights(beta_temporal="0"), "beta_temporal"),
    (lambda: RegularizationWeights(beta_ortho=None), "beta_ortho"),
], ids=["train_beta_temporal", "train_beta_ortho", "lambda_temporal",
        "lambda_ortho", "weights_beta_temporal", "weights_beta_ortho"])
def test_real_settings_reject_other_types(make, name):
    # every float field of TrainConfig and RegularizationWeights: no string
    # is parsed and None is not a number; ints and numpy floats pass
    with pytest.raises(ConfigError, match=f"{name} must be a real number"):
        make()
    assert TrainConfig(rank=2, beta_ortho=np.float32(0.5)).beta_ortho > 0
    assert RegularizationWeights(1, np.float64(2.0), 0, 1).beta_ortho == 1


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
        g = block_gradient(block, x, replace(model, weights=weights))
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
            grad = block_gradient(block, x, replace(model, weights=weights))
            fd = np.zeros_like(arr)
            for idx in np.ndindex(arr.shape):
                for sign in (1.0, -1.0):
                    pert = {k: v.copy() for k, v in arrays.items()}
                    pert[block][idx] += sign * eps
                    m = FactorModel.from_factors(
                        pert["spatial"], pert["latent"], pert["ar"],
                        model.lag_set, routing, weights)
                    fd[idx] += sign * objective_value(x, m)
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
    g = block_gradient("spatial", x, replace(model, weights=weights))
    plain = 2.0 * (model.spatial @ (model.latent @ model.latent.T)
                   - x @ model.latent.T)
    np.testing.assert_allclose(g, plain, atol=1e-12)


def test_block_gradient_unknown_block():
    rng = np.random.default_rng(2)
    model, routing = _model(rng)
    with pytest.raises(UsageError):
        block_gradient("bias", np.ones((6, 15)), model)


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
        laplacians = [g.laplacian() for g in graphs]
        wtw = model.spatial.T @ model.spatial

        def hess_vec(v):
            out = 2.0 * wtw @ v
            for p, (g, lap) in enumerate(zip(graphs, laplacians)):
                out[p] += lam_t * (2.0 * (lap @ v[p]) + g.diagonal * v[p])
            return out

        lam = _power_iteration(hess_vec, model.latent.shape, iters=2000)
        lh = block_lipschitz("latent", None, model, weights)
        assert lh >= lam * (1 - 1e-10), model.lag_set


def test_lipschitz_ar_guards():
    latent = np.zeros((2, 9))
    latent[1] = np.arange(9.0)
    model = FactorModel.from_factors(np.ones((3, 2)), latent,
                                     np.zeros((2, 2)), LagSet([1, 2]), np.eye(3))
    weights = RegularizationWeights(lambda_temporal=1.0)
    lip = block_lipschitz("ar", None, model, weights)
    # zero latent row: zero design, free step; the other row keeps its bound
    assert lip.shape == (2,)
    assert lip[0] == 1.0 and lip[1] > 1.0


def _ar_reference(h, omega, lag_set, lam, q_max, delta):
    """The AR update one latent row at a time, on the direct residual: each
    row's own _nesterov_loop with err ||h_p - w D_p||^2 formed from the
    design, and step lam ||D_p D_p^T||_2 (1 for a zero design)."""
    rows, iters = [], []
    for p, design in enumerate(lag_designs(h, lag_set)):
        gram, target = design @ design.T, design @ h[p]
        lip = lam * np.linalg.norm(gram, 2)
        row, n = training._nesterov_loop(
            omega[p], lambda c: lam * (c @ gram - target),
            lambda b: float(np.sum((h[p] - b @ design) ** 2)),
            lip if lip > 0 else 1.0, q_max, rel_tol=delta)
        rows.append(row)
        iters.append(n)
    return np.array(rows), iters


def test_update_ar_matches_per_row_blocks():
    # one loop over all rows gives each row its own step, momentum, restarts
    # and stop, so it takes the steps of the per-row reference; its err comes
    # from the Grams, not the direct residual, so the two agree to rounding,
    # not bit for bit, and the loop's passes are the most any row took
    rng = np.random.default_rng(33)
    for lags, T in (((1, 2), 15), ((1, 3, 7), 40), ((5,), 6)):
        latent = rng.random((4, T))
        latent[1] = 0.0   # zero design: the free step
        omega0 = rng.random((4, len(lags)))
        model = FactorModel.from_factors(
            np.ones((1, 4)), latent, omega0, LagSet(lags), np.ones((1, 1)),
            RegularizationWeights(lambda_temporal=2.5))
        omega_t, n = training._nesterov_loop(
            *training._block("ar", None, model), 50, rel_tol=1e-5)
        omega = omega_t.T
        ref, iters = _ar_reference(latent, omega0, LagSet(lags), 2.5, 50, 1e-5)
        assert omega.shape == omega0.shape
        np.testing.assert_allclose(omega, ref, rtol=1e-12, atol=1e-14)
        np.testing.assert_array_equal(omega[1], omega0[1])
        assert iters[1] == 0
        assert max(iters) <= n <= 50
        # with one lag of 5 in 6 slots each row reaches its minimum in one
        # step; a rounding-level rise of the Gram-form err on the step from
        # there restarts at the best iterate, which stops the row one pass
        # after the reference's
        if len(lags) > 1:
            assert n == max(iters)
        else:
            assert n <= max(iters) + 1


def test_loop_matches_reference_loop_bit_for_bit(reference_nesterov_loop):
    # the stop on a restart at the best iterate ends only loops that would
    # repeat that step to q_max, so the spatial, latent (also per column)
    # and AR blocks return the reference loop's iterate bit for bit, in no
    # more iterations
    rng = np.random.default_rng(40)
    model, routing = _model(rng, n=8, k=3, T=30)
    x = rng.random((8, 30))
    weights = RegularizationWeights(0.5, 0.5, 0.2, 0.2)
    a = training.routing_array(routing)
    cases = [
        (model.spatial,
         training._spatial_block(x, model.latent, weights, a)),
        (model.latent,
         training._latent_block(x, model.spatial, model.ar_weights,
                                model.lag_set, weights)),
        (model.latent,
         training._latent_block(x, model.spatial, np.zeros((3, 0)), LagSet(),
                                RegularizationWeights(), by_column=True)),
    ]
    for lags, T in (((1, 2), 15), ((1, 3, 7), 40), ((5,), 6)):
        latent = rng.random((4, T))
        latent[1] = 0.0
        cases.append((rng.random((len(lags), 4)),
                      training._ar_block(latent, LagSet(lags), 2.5)))
    fewer = 0
    for b0, triple in cases:
        for q_max, rel_tol, noise in ((10, 1e-3, 0.0), (200, 1e-12, 0.0),
                                      (200, None, 0.0), (200, None, 1e-13)):
            got, n = training._nesterov_loop(b0, *triple, q_max,
                                             rel_tol=rel_tol, noise=noise)
            want, n_ref = reference_nesterov_loop(b0, *triple, q_max,
                                                  rel_tol=rel_tol, noise=noise)
            np.testing.assert_array_equal(got, want)
            assert n <= n_ref
            fewer += n < n_ref
    # here the spatial block, whose steps also follow the orthogonality
    # term, restarts at the best iterate after 4 steps at every setting
    assert fewer > 0


def test_lipschitz_ar_matches_design_gram():
    rng = np.random.default_rng(5)
    model, _ = _model(rng)
    weights = RegularizationWeights(lambda_temporal=1.0)
    expected = [np.linalg.norm(d @ d.T, 2)
                for d in lag_designs(model.latent, model.lag_set)]
    np.testing.assert_allclose(block_lipschitz("ar", None, model, weights),
                               expected, rtol=1e-12)


def test_ar_gradient_on_empty_lag_set():
    rng = np.random.default_rng(9)
    model, routing = _model(rng, lags=())
    weights = RegularizationWeights(lambda_temporal=0.5)
    g = block_gradient("ar", np.ones((6, 15)), replace(model, weights=weights))
    assert g.shape == (3, 0)


# ------------------------------------------------------------ block errors

@pytest.mark.parametrize("noise", [1.0, 1e-5, 0.0])
def test_block_errors_from_gram_products_match_direct_residual(noise):
    # each block's err comes from its Gram products, so it equals the direct
    # ||X - W H||^2 only up to rounding of order eps ||X||^2; the bound is
    # relative to ||X||^2 (||x_j||^2 per column, ||h_p||^2 per latent row
    # for the AR block), because one relative to the fit cannot hold for the
    # near-exact fits (noise 1e-5 and 0)
    rng = np.random.default_rng(8)
    w, h = rng.random((12, 3)), rng.random((3, 30))
    x = w @ h + noise * rng.random((12, 30))
    xx, xx_cols = np.sum(x * x), np.sum(x * x, axis=0)
    ls = LagSet([1, 2])
    # rows r^t follow h(t) = h(t-1) + r (r-1) h(t-2), up to the noise; the
    # zero-padded prefix of r = 1.6 is about 3e-12 of its ||h_p||^2
    r = np.array([2.0, 1.8, 1.6])
    omega_ar = np.stack([np.ones(3), r * (r - 1.0)], axis=1)
    h_ar = r[:, None] ** np.arange(30) * (1.0 + noise * rng.random((3, 30)))
    hh_ar = np.sum(h_ar * h_ar, axis=1)

    def ar_direct(b_o):
        fit = np.einsum("pl,plt->pt", b_o, lag_designs(h_ar, ls))
        return np.sum((h_ar - fit) ** 2, axis=1)

    if noise < 1.0:
        assert np.sum((x - w @ h) ** 2) <= 1e-8 * xx
        assert (ar_direct(omega_ar) <= 1e-8 * hh_ar).all()
    omega = rng.random((3, 2))
    for b_w, b_h, b_o in ((w, h, omega_ar),
                          (w + 0.1, h * 0.9, omega_ar * 0.9)):
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
        ar = training._ar_block(h_ar, ls, 1.0)[1](b_o.T)
        assert ar.shape == (3,)
        assert np.isfinite(ar).all() and (ar >= 0.0).all()
        assert (np.abs(ar - ar_direct(b_o)) <= 1e-10 * hh_ar).all()


# ------------------------------------------------------------- inner loop

def test_inner_loop_projects_negative_optimum_to_zero():
    # min (x - h)^2 over h >= 0 with x = -1: optimum clamps at h = 0
    model = FactorModel.from_factors(np.array([[1.0]]), np.array([[1.0]]),
                                     np.zeros((1, 0)), LagSet(), np.eye(1))
    out = fast_gradient_update("latent", np.array([[-1.0]]), model,
                               RegularizationWeights(),
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
                               q_block_max=200, delta_block=1e-16)
    np.testing.assert_allclose(out, x, atol=1e-6)


def test_inner_loop_never_worse_on_block_error():
    rng = np.random.default_rng(7)
    model, routing = _model(rng)
    x = rng.random((6, 15))
    weights = RegularizationWeights(0.5, 0.5, 0.2, 0.2)
    e0 = float(np.sum((x - model.spatial @ model.latent) ** 2))
    for q in (1, 3, 10):
        w = fast_gradient_update("spatial", x, model, weights,
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
    for p, d in enumerate(lag_designs(h0, ls)):
        den_t += float(np.sum((h0[p] - o0[p] @ d) ** 2))
    den_o = ortho_penalty_value(routing @ w0)
    lam_t, lam_o = tune_penalties(
        FactorModel.from_factors(w0, h0, o0, ls, routing),
        factors.data_fit(x, w0, h0), 0.2, 0.3)
    assert lam_t == pytest.approx(0.2 * num / den_t, rel=1e-12)
    assert lam_o == pytest.approx(0.3 * num / den_o, rel=1e-12)


def test_tune_penalties_unit_ratio():
    # data residual 2 and AR residual 2 (zero weights): lambda equals beta
    x = np.array([[2.0, 2.0]])
    w0 = np.array([[1.0]])
    h0 = np.array([[1.0, 1.0]])
    o0 = np.zeros((1, 1))
    lam_t, _ = tune_penalties(
        FactorModel.from_factors(w0, h0, o0, LagSet([1]), np.eye(1)),
        factors.data_fit(x, w0, h0), 0.2, 0.0)
    assert lam_t == pytest.approx(0.2, rel=1e-12)


def test_tune_penalties_orthonormal_denominator_vanishes(caplog):
    rng = np.random.default_rng(9)
    w0 = np.zeros((4, 2))
    w0[0, 0] = 1.0
    w0[1, 1] = 1.0
    h0 = rng.random((2, 6))
    x = rng.random((4, 6))
    with caplog.at_level(logging.WARNING, logger="ttnmf.training"):
        _, lam_o = tune_penalties(
            FactorModel.from_factors(w0, h0, np.zeros((2, 0)), LagSet(),
                                     np.eye(4)),
            factors.data_fit(x, w0, h0), 0.0, 0.4)
    assert lam_o == 0.0
    assert any("disabled" in rec.message for rec in caplog.records)


def test_tune_penalties_temporal_cut_off_ignores_the_traffic_unit(
        caplog, set_q_max):
    # the training traffic of `ttnmf synth --routers 4 --rank 2 --T 60
    # --split 40 --lags 1,2 --seed 7` in a unit 1e15 times larger: the AR
    # residual and its reference sum_p ||h_p||^2 scale alike, so the
    # temporal penalty stays on
    scen = generate_synthetic(n_routers=4, planted_rank=2, n_timestamps=60,
                              planted_lags=LagSet([1, 2]), noise_level=0.05,
                              seed=7)
    traffic = TrafficMatrix(scen.traffic.entries[:, :40] * 1e15)
    set_q_max(5)
    cfg = TrainConfig(rank=2, lag_set=LagSet([1, 2]))
    with caplog.at_level(logging.WARNING, logger="ttnmf.training"):
        model, _ = train(traffic, scen.routing, cfg)
    assert not any("disabled" in rec.message for rec in caplog.records)
    assert model.weights.lambda_temporal > 0.0


def test_tune_penalties_empty_lag_set_and_zero_betas():
    rng = np.random.default_rng(10)
    x = rng.random((4, 6))
    w0, h0 = rng.random((4, 2)), rng.random((2, 6))
    lam_t, lam_o = tune_penalties(
        FactorModel.from_factors(w0, h0, np.zeros((2, 0)), LagSet(),
                                 np.eye(4)),
        factors.data_fit(x, w0, h0), 0.5, 0.0)
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


# ------------------------------------------------------------------- train

def test_train_trace_monotone_and_factors_nonneg(set_q_max):
    scen = generate_synthetic(n_routers=5, planted_rank=3, n_timestamps=80,
                              planted_lags=LagSet([1, 2]), noise_level=0.05,
                              seed=17)
    set_q_max(20)
    cfg = TrainConfig(rank=3, lag_set=LagSet([1, 2]))
    model, report = train(scen.traffic, scen.routing, cfg)
    trace = np.array(report.objective_trace)
    assert np.all(np.diff(trace) <= 1e-12)
    assert model.spatial.min() >= 0
    assert model.latent.min() >= 0
    assert model.ar_weights.min() >= 0
    assert report.n_iterations == len(report.block_iteration_counts["spatial"])
    np.testing.assert_allclose(model.compact_routing,
                               scen.routing.entries @ model.spatial, atol=1e-12)


def test_train_fits_planted_noiseless_data(monkeypatch, set_q_max):
    # fit-capacity check: penalties off, exact rank, noiseless data
    monkeypatch.setattr(training, "Q_BLOCK_MAX", 20)
    scen = generate_synthetic(n_routers=5, planted_rank=3, n_timestamps=200,
                              planted_lags=LagSet([1, 2]), noise_level=0.0,
                              seed=18)
    set_q_max(150)
    cfg = TrainConfig(rank=3, lag_set=LagSet([1, 2]), beta_temporal=0.0,
                      beta_ortho=0.0)
    model, report = train(scen.traffic, scen.routing, cfg)
    x = scen.traffic.entries
    rel = np.linalg.norm(x - model.spatial @ model.latent) / np.linalg.norm(x)
    assert rel <= 1e-3


def test_train_with_subnormal_lambda_warns_nothing(set_q_max):
    # beta_h = 1e-320 tunes a subnormal lambda_t, whose AR step bound has a
    # reciprocal beyond float64; that curvature counts as vanishing
    scen = generate_synthetic(n_routers=4, planted_rank=2, n_timestamps=60,
                              planted_lags=LagSet([1, 2]), noise_level=0.05,
                              seed=7)
    set_q_max(5)
    cfg = TrainConfig(rank=2, lag_set=LagSet([1, 2]), beta_temporal=1e-320)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model, report = train(scen.traffic, scen.routing, cfg)
    assert 0.0 < model.weights.lambda_temporal < np.finfo(float).tiny
    assert np.isfinite(model.ar_weights).all()


def test_train_without_penalties_is_plain_nmf(set_q_max):
    scen = generate_synthetic(n_routers=4, planted_rank=2, n_timestamps=60,
                              planted_lags=LagSet([1]), noise_level=0.1,
                              seed=19)
    set_q_max(15)
    cfg = TrainConfig(rank=2, lag_set=LagSet([1]), beta_temporal=0.0,
                      beta_ortho=0.0)
    model, report = train(scen.traffic, scen.routing, cfg)
    assert model.weights.lambda_temporal == model.weights.lambda_ortho == 0.0
    # ar block is skipped entirely when the temporal penalty is off
    assert all(c == 0 for c in report.block_iteration_counts["ar"])
    # final fit never worse than the seed fit
    assert report.objective_trace[-1] <= report.objective_trace[0]


def test_train_em_mask_trace_is_monotone(set_q_max):
    # a gappy mask trains by EM imputation, the one path for missing data
    scen = generate_synthetic(n_routers=4, planted_rank=2, n_timestamps=60,
                              planted_lags=LagSet([1]), noise_level=0.0,
                              seed=20)
    rng = np.random.default_rng(0)
    mask = (rng.random(scen.traffic.entries.shape) >= 0.2).astype(float)
    gappy = TrafficMatrix(scen.traffic.entries * mask, mask=mask)
    set_q_max(10)
    cfg = TrainConfig(rank=2, lag_set=LagSet([1]))
    model, report = train(gappy, scen.routing, cfg)
    trace = np.array(report.objective_trace)
    assert np.all(np.diff(trace) <= 1e-12)
    assert np.isfinite(model.latent).all()


@pytest.mark.parametrize("case", ["zero", "unobserved", "only hidden"])
def test_train_without_nonzero_observed_cell_raises(monkeypatch, case):
    # nothing to fit: the error comes before the SVD seed, not an all-zero
    # model after Q_MAX empty outer iterations
    scen = generate_synthetic(n_routers=4, planted_rank=2, n_timestamps=30,
                              planted_lags=LagSet([1]), noise_level=0.0,
                              seed=20)
    x = scen.traffic.entries
    mask = (np.random.default_rng(0).random(x.shape) >= 0.5).astype(float)
    traffic = {"zero": TrafficMatrix(0.0 * x),
               "unobserved": TrafficMatrix(x, mask=0.0 * mask),
               "only hidden": TrafficMatrix((1.0 - mask) * x, mask=mask)}[case]
    monkeypatch.setattr(training, "init_factors_svd", None)
    with pytest.raises(ValidationError,
                       match="^traffic has no nonzero observed cell$"):
        train(traffic, scen.routing, TrainConfig(rank=2, lag_set=LagSet([1])))


def _stopped_at_relative_drop(report, delta):
    f = report.penalized_trace
    return 0.0 <= f[-2] - f[-1] < delta * f[-2]


def test_train_stops_when_penalized_objective_stalls():
    # acceptance criterion 3's scenario with the default config
    scen = generate_synthetic(6, 4, 300, LagSet((1, 2)), 0.05, seed=3)
    cfg = TrainConfig(rank=4, lag_set=LagSet((1, 2)))
    model, report = train(scen.traffic, scen.routing, cfg)
    assert report.stop_reason == "converged"
    assert report.n_iterations < training.Q_MAX
    assert len(report.penalized_trace) == len(report.objective_trace)
    assert _stopped_at_relative_drop(report, training.DELTA)
    f = report.penalized_trace
    assert not any(0.0 <= a - b < training.DELTA * a
                   for a, b in zip(f[:-2], f[1:-1]))
    # the last entry is the penalized objective of the returned model
    assert f[-1] == pytest.approx(
        objective_value(scen.traffic.entries, model), rel=1e-12)
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
        iterates.append(result[0])
        return result

    def seed(m, *args):
        iterates.append(m)
        return tune(m, *args)

    tune = training.tune_penalties
    monkeypatch.setattr(training, "_outer_iteration", recording)
    monkeypatch.setattr(training, "tune_penalties", seed)
    model, report = train(scen.traffic, scen.routing, cfg)
    assert len(iterates) - 1 == report.n_iterations >= 2
    assert (len(report.temporal_trace) == len(report.ortho_trace)
            == len(report.objective_trace))
    x = scen.traffic.entries
    for q, m in enumerate(iterates):
        m = replace(m, weights=model.weights)
        terms = factors.objective_terms(x, m)
        if q == 0:
            # the seed's fit is the direct residual's, formed once
            assert report.objective_trace[0] == terms[0]
            assert report.penalized_trace[0] == sum(terms)
        assert report.objective_trace[q] == pytest.approx(terms[0], rel=1e-12)
        assert report.penalized_trace[q] == pytest.approx(sum(terms),
                                                          rel=1e-12)
        assert report.temporal_trace[q] == terms[1] > 0
        assert report.ortho_trace[q] == terms[2] > 0


def test_train_forms_the_seed_residual_once_in_place(set_q_max):
    # at this shape the n x T arrays dominate; X - W0 H0 formed as a product
    # and a difference, once for the penalty scale and once for the trace,
    # peaked at twice the size of X
    rng = np.random.default_rng(31)
    n, T = 200, 2000
    x = rng.random((n, 2)) @ rng.random((2, T))
    traffic = TrafficMatrix(x)
    routing = (rng.random((20, n)) < 0.3).astype(float)
    set_q_max(2)
    cfg = TrainConfig(rank=2, lag_set=LagSet([1, 2]))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        train(traffic, routing, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * x.nbytes


def test_train_tiny_delta_runs_to_q_max(monkeypatch, set_q_max):
    monkeypatch.setattr(training, "DELTA", 1e-15)
    scen = generate_synthetic(6, 4, 300, LagSet((1, 2)), 0.05, seed=3)
    set_q_max(20)
    cfg = TrainConfig(rank=4, lag_set=LagSet((1, 2)))
    _, report = train(scen.traffic, scen.routing, cfg)
    assert report.stop_reason == "q_max"
    assert report.n_iterations == training.Q_MAX == 20


def test_train_em_mask_stops_before_q_max():
    # acceptance criterion 6's gappy data; criterion 6 checks its accuracy
    scen = generate_synthetic(6, 4, 400, LagSet((1, 2)), 0.0, seed=7)
    x = scen.traffic.entries[:, :300]
    rng = np.random.default_rng(104)
    mask = (rng.random(x.shape) >= 0.2).astype(float)
    cfg = TrainConfig(rank=4, lag_set=LagSet((1, 2)))
    _, report = train(TrafficMatrix(x * mask, mask=mask), scen.routing, cfg)
    assert report.stop_reason == "converged"
    assert report.n_iterations < training.Q_MAX
    assert _stopped_at_relative_drop(report, training.DELTA)


def test_train_accepts_plain_arrays(set_q_max):
    rng = np.random.default_rng(21)
    x = rng.random((6, 20))
    routing = (rng.random((4, 6)) < 0.5).astype(float)
    set_q_max(3)
    model, report = train(x, routing, TrainConfig(rank=2))
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


def test_train_never_reads_unobserved_cells(set_q_max):
    # the unobserved cells at 0 and at 1e6 give the same factors and traces
    rng = np.random.default_rng(24)
    x = rng.random((6, 20))
    routing = (rng.random((4, 6)) < 0.5).astype(float)
    mask = (rng.random(x.shape) >= 0.2).astype(float)
    set_q_max(8)
    cfg = TrainConfig(rank=2, lag_set=LagSet([1, 2]))
    runs = [train(TrafficMatrix(np.where(mask == 1.0, x, fill), mask=mask),
                  routing, cfg) for fill in (0.0, 1e6)]
    (m0, r0), (m1, r1) = runs
    for name in ("spatial", "latent", "ar_weights"):
        np.testing.assert_array_equal(getattr(m0, name), getattr(m1, name))
    assert m0.weights == m1.weights
    for name in ("objective_trace", "penalized_trace", "temporal_trace",
                 "ortho_trace", "block_iteration_counts"):
        assert getattr(r0, name) == getattr(r1, name), name
    # a mask that observes every cell trains as no mask
    full, _ = train(TrafficMatrix(x, mask=np.ones_like(x)), routing, cfg)
    plain, _ = train(x, routing, cfg)
    np.testing.assert_array_equal(full.latent, plain.latent)


def test_train_rejects_non_finite_cells():
    # a non-finite cell, observed or not, is a validation error of the input
    # and not a failed SVD of the seed
    rng = np.random.default_rng(25)
    x = rng.random((6, 20))
    routing = (rng.random((4, 6)) < 0.5).astype(float)
    mask = np.ones_like(x)
    mask[2, 5] = 0.0
    for value in (np.nan, np.inf):
        bad = x.copy()
        bad[2, 5] = value
        with pytest.raises(ValidationError, match=r"cell \(3,6\)"):
            train(bad, routing, TrainConfig(rank=2))
        with pytest.raises(ValidationError, match=r"cell \(3,6\)"):
            TrafficMatrix(bad, mask=mask)


@pytest.mark.parametrize("lags", [(1, 2), ()])
def test_train_calls_each_block_update_through_the_module(monkeypatch, lags):
    # the benchmark times the blocks by wrapping these module attributes, so
    # training must look them up at each call, not bind them at import
    calls = dict.fromkeys(training.BLOCKS, 0)
    for block in training.BLOCKS:
        def counting(*args, _block=block, _update=getattr(
                training, f"_update_{block}")):
            calls[_block] += 1
            return _update(*args)
        monkeypatch.setattr(training, f"_update_{block}", counting)
    scen = generate_synthetic(6, 4, 300, LagSet((1, 2)), 0.05, seed=3)
    model, report = train(scen.traffic, scen.routing,
                          TrainConfig(rank=4, lag_set=LagSet(lags)))
    n = report.n_iterations
    assert n >= 2
    assert (model.weights.lambda_temporal > 0) == bool(lags)
    assert calls == {"spatial": n, "latent": n, "ar": n if lags else 0}


def test_train_raises_numerical_failure_on_nonfinite_block(monkeypatch):
    rng = np.random.default_rng(23)
    x = rng.random((5, 12))
    routing = np.ones((3, 5))

    def poisoned(*args, **kwargs):
        return np.full((5, 2), np.nan), 1

    monkeypatch.setattr(training, "_update_spatial", poisoned)
    with pytest.raises(NumericalFailure) as excinfo:
        train(x, routing, TrainConfig(rank=2))
    snap = excinfo.value.snapshot
    assert snap["iteration"] == 1
    assert np.isfinite(snap["spatial"]).all()
