"""Factor-core tests.

Covers:
  - LagSet validation and ordering
  - stacked lag designs against hand-worked values
  - temporal graph vs. the direct AR-residual sum (cross-form oracle)
  - vectorised temporal gradient vs. the per-row graph gradient
  - lag-window kernel byte-equal to per-lag loops (edge shapes, row blocks),
    and train + estimate unchanged with the per-lag loops swapped in
  - Laplacian/weight-matrix structure (symmetry, no self loops, row sums)
  - orthogonality penalty hand values and the zero <=> orthonormal property
  - objective_value as the sum of independently computed terms, permutation
    invariance, reductions at lambda = 0
"""

from dataclasses import replace

import numpy as np
import pytest

import ttnmf.factors as factors
from ttnmf.errors import ConfigError, ShapeError, UsageError
from ttnmf.factors import (FactorModel, LagSet, RegularizationWeights,
                           ar_residual, build_temporal_graph, lag_designs,
                           objective_value,
                           ortho_penalty_value, temporal_penalty_gradient,
                           temporal_penalty_value)


def _residual_penalty(latent, ar, lag_set):
    # independent direct evaluation of 1/2 sum_p sum_{t>L} (h_t - sum w h_{t-l})^2
    total = 0.0
    L = lag_set.max_lag
    for p in range(latent.shape[0]):
        for t in range(L, latent.shape[1]):
            pred = sum(w * latent[p, t - lag]
                       for w, lag in zip(ar[p], lag_set.lags))
            total += 0.5 * (latent[p, t] - pred) ** 2
    return total


# ---------------------------------------------------------------- LagSet

def test_lag_set_sorts_and_exposes_max():
    ls = LagSet([3, 1, 2])
    assert ls.lags == (1, 2, 3)
    assert ls.max_lag == 3
    assert len(ls) == 3
    assert list(ls) == [1, 2, 3]


def test_lag_set_empty():
    ls = LagSet()
    assert ls.max_lag == 0
    assert len(ls) == 0


def test_lag_set_rejects_bad_lags():
    with pytest.raises(ConfigError):
        LagSet([0, 1])
    with pytest.raises(ConfigError):
        LagSet([2, 2])
    with pytest.raises(ConfigError):
        LagSet([-1])


# ------------------------------------------------------ lag design matrix

def test_lag_design_unit_shift():
    latent = np.array([[1.0, 2.0, 3.0, 4.0]])
    designs = lag_designs(latent, LagSet([1]))
    np.testing.assert_array_equal(designs, [[[0.0, 1.0, 2.0, 3.0]]])


def test_lag_design_two_lags_hand_values():
    latent = np.array([[1.0, 2.0, 3.0, 4.0, 5.0], [5.0, 4.0, 3.0, 2.0, 1.0]])
    designs = lag_designs(latent, LagSet([1, 3]))
    np.testing.assert_array_equal(
        designs, [[[0.0, 0.0, 0.0, 3.0, 4.0], [0.0, 0.0, 0.0, 1.0, 2.0]],
                  [[0.0, 0.0, 0.0, 3.0, 2.0], [0.0, 0.0, 0.0, 5.0, 4.0]]])


def test_lag_design_zero_row():
    latent = np.ones((2, 6))
    latent[1] = 0.0
    designs = lag_designs(latent, LagSet([1, 2]))
    assert designs.shape == (2, 2, 6)
    assert not designs[1].any()
    np.testing.assert_array_equal(designs[0, :, 2:], 1.0)


def test_lag_design_empty_lag_set():
    designs = lag_designs(np.ones((3, 4)), LagSet())
    assert designs.shape == (3, 0, 4)


def test_lag_design_rejects_long_lag():
    with pytest.raises(ConfigError):
        lag_designs(np.ones((1, 3)), LagSet([3]))


# ------------------------------------------------------- temporal graph

def test_temporal_penalty_hand_values():
    ls = LagSet([1])
    h = np.array([[1.0, 2.0, 3.0]])
    # unit AR(1) weight: residuals (2-1) and (3-2), penalty 1/2 (1+1) = 1
    for form in ("residual", "laplacian"):
        assert temporal_penalty_value(h, np.array([[1.0]]), ls, form) \
            == pytest.approx(1.0, abs=1e-12)
    # weight 1/2: residuals 1.5 and 2, penalty 1/2 (2.25+4) = 3.125
    for form in ("residual", "laplacian"):
        assert temporal_penalty_value(h, np.array([[0.5]]), ls, form) \
            == pytest.approx(3.125, abs=1e-12)


def test_temporal_penalty_constant_row_exact_ar():
    h = np.full((1, 7), 3.7)
    ls = LagSet([1, 2])
    ar = np.array([[0.25, 0.75]])  # weights sum to 1: constant rows are exact
    for form in ("residual", "laplacian"):
        assert temporal_penalty_value(h, ar, ls, form) == pytest.approx(0.0, abs=1e-12)


def test_temporal_penalty_zero_weights_boundary_sum():
    rng = np.random.default_rng(3)
    h = rng.random((2, 9))
    ls = LagSet([2, 3])
    ar = np.zeros((2, 2))
    expected = 0.5 * float((h[:, 3:] ** 2).sum())
    for form in ("residual", "laplacian"):
        assert temporal_penalty_value(h, ar, ls, form) \
            == pytest.approx(expected, rel=1e-12)


def test_temporal_penalty_forms_agree_randomized():
    rng = np.random.default_rng(11)
    for _ in range(60):
        T = int(rng.integers(4, 31))
        n_lags = int(rng.integers(1, 4))
        lags = rng.choice(np.arange(1, min(T, 8)), size=min(n_lags, min(T, 8) - 1),
                          replace=False)
        ls = LagSet(sorted(int(v) for v in lags))
        k = int(rng.integers(1, 4))
        h = rng.random((k, T)) * 10
        ar = rng.random((k, len(ls)))
        a = temporal_penalty_value(h, ar, ls, "residual")
        b = temporal_penalty_value(h, ar, ls, "laplacian")
        assert b == pytest.approx(a, rel=1e-8, abs=1e-12)
        assert a == pytest.approx(_residual_penalty(h, ar, ls), rel=1e-10)
        assert a >= 0 and b >= 0


def test_temporal_graph_structure():
    ls = LagSet([1, 3])
    graph = build_temporal_graph(np.array([0.7, 0.2]), ls, 12)
    s = graph.weight_matrix()
    np.testing.assert_allclose(s, s.T, atol=0)
    assert not np.diag(s).any()  # no self loops
    lap = graph.laplacian()
    np.testing.assert_allclose(lap - np.diag(np.diag(lap)), -s + np.diag(np.diag(s)),
                               atol=1e-15)
    np.testing.assert_allclose(np.diag(lap), s.sum(axis=1), atol=1e-15)
    # Laplacian quadratic form equals the pairwise-difference sum
    rng = np.random.default_rng(0)
    row = rng.random(12)
    diffs = 0.5 * sum(s[i, j] * (row[i] - row[j]) ** 2
                      for i in range(12) for j in range(12))
    assert float(row @ (lap @ row)) == pytest.approx(diffs, rel=1e-10)


def test_temporal_graph_gradient_matches_fd():
    ls = LagSet([1, 2])
    graph = build_temporal_graph(np.array([0.5, 0.4]), ls, 10)
    rng = np.random.default_rng(5)
    row = rng.random(10)
    grad = graph.gradient(row)
    eps = 1e-6
    for t in (0, 3, 9):
        up, dn = row.copy(), row.copy()
        up[t] += eps
        dn[t] -= eps
        fd = (graph.penalty(up) - graph.penalty(dn)) / (2 * eps)
        assert grad[t] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_temporal_gradient_matches_graph_oracle():
    rng = np.random.default_rng(6)
    for trial in range(60):
        lags = sorted(rng.choice(np.arange(1, 30), size=rng.integers(1, 6),
                                 replace=False).tolist())
        ls = LagSet(lags)
        # the shortest window (one residual) on every third trial
        T = ls.max_lag + 1
        if trial % 3:
            T = int(rng.integers(ls.max_lag + 1, 80))
        k = int(rng.integers(1, 5))
        latent = rng.random((k, T)) * 3
        ar = rng.random((k, len(ls)))
        ar[0] = 0.0  # a row with all AR weights zero
        grad = temporal_penalty_gradient(latent, ar, ls)
        assert grad.shape == latent.shape
        for p in range(k):
            oracle = build_temporal_graph(ar[p], ls, T).gradient(latent[p])
            err = np.linalg.norm(grad[p] - oracle)
            assert err <= 1e-12 * np.linalg.norm(oracle), (lags, T, p)


def _per_lag_residual(latent, ar, lag_set):
    # one rounded multiply and subtract per lag, in lag order
    L, T = lag_set.max_lag, latent.shape[1]
    resid = latent[:, L:].copy()
    for q, lag in enumerate(lag_set.lags):
        resid -= ar[:, q, None] * latent[:, L - lag : T - lag]
    return resid


def _per_lag_gradient(latent, ar, lag_set):
    L, T = lag_set.max_lag, latent.shape[1]
    resid = _per_lag_residual(latent, ar, lag_set)
    grad = np.zeros_like(latent)
    grad[:, L:] = resid
    for q, lag in enumerate(lag_set.lags):
        grad[:, L - lag : T - lag] -= ar[:, q, None] * resid
    return grad


@pytest.mark.parametrize("k,T,lags,block", [
    (1, 40, (1, 3, 12), None),        # one latent row
    (4, 30, (5,), None),              # one lag
    (3, 13, (1, 4, 12), None),        # T = max_lag + 1: one residual
    (1, 4, (1, 2, 3), None),          # one row and one residual
    (5, 40, (1, 3), 250),             # 2 rows per block: 2 + 2 + 1
    (5, 40, (1, 3), 1),               # 1 row per block
    (20, 400, (1, 2, 3, 12, 24, 96, 102, 108, 288), None),
])
def test_lag_window_kernel_is_byte_equal_to_per_lag_loops(monkeypatch, k, T,
                                                          lags, block):
    if block is not None:
        monkeypatch.setattr(factors, "LAG_WINDOW_BLOCK", block)
    rng = np.random.default_rng(k * T)
    ls = LagSet(lags)
    latent = rng.random((k, T)) * 1e3
    for ar in (rng.random((k, len(ls))), np.zeros((k, len(ls)))):
        got = ar_residual(latent, ar, ls)
        assert got.tobytes() == _per_lag_residual(latent, ar, ls).tobytes()
        got = temporal_penalty_gradient(latent, ar, ls)
        assert got.tobytes() == _per_lag_gradient(latent, ar, ls).tobytes()


def test_lag_window_kernel_byte_equal_randomized(monkeypatch):
    rng = np.random.default_rng(8)
    for _ in range(100):
        monkeypatch.setattr(factors, "LAG_WINDOW_BLOCK",
                            int(rng.choice([1, 7, 100, 1000, 1 << 16])))
        ls = LagSet(rng.choice(np.arange(1, 30), size=rng.integers(1, 8),
                               replace=False).tolist())
        T = int(rng.integers(ls.max_lag + 1, ls.max_lag + 40))
        k = int(rng.integers(1, 9))
        latent = rng.random((k, T)) * 10.0 ** rng.integers(-3, 6)
        ar = rng.random((k, len(ls)))
        assert (ar_residual(latent, ar, ls).tobytes()
                == _per_lag_residual(latent, ar, ls).tobytes())
        assert (temporal_penalty_gradient(latent, ar, ls).tobytes()
                == _per_lag_gradient(latent, ar, ls).tobytes())


def test_ar_residual_empty_lag_set_is_the_latent_matrix():
    latent = np.random.default_rng(3).random((3, 7))
    got = ar_residual(latent, np.zeros((3, 0)), LagSet())
    assert got.tobytes() == latent.tobytes()
    assert not np.shares_memory(got, latent)


def test_per_lag_kernels_give_the_same_train_and_estimate(monkeypatch):
    import ttnmf.training as training
    from ttnmf.estimation import estimate_od_flows
    from ttnmf.network import compute_link_flows, generate_synthetic
    scen = generate_synthetic(6, 4, 200, LagSet((1, 2, 24)), 0.05, seed=5)
    x = scen.traffic.entries
    links = compute_link_flows(scen.routing, scen.traffic).entries[:, 150:]
    cfg = training.TrainConfig(rank=4, lag_set=LagSet((1, 2, 24)), q_max=8)

    def run():
        model, report = training.train(x[:, :150], scen.routing, cfg)
        est = estimate_od_flows(links, model)
        return ([model.spatial.tobytes(), model.latent.tobytes(),
                 model.ar_weights.tobytes(), est.tobytes()],
                report.objective_trace, report.penalized_trace)

    new = run()
    monkeypatch.setattr(factors, "ar_residual", _per_lag_residual)
    monkeypatch.setattr(training, "temporal_penalty_gradient",
                        _per_lag_gradient)
    old = run()
    assert new == old


def test_temporal_graph_validation():
    with pytest.raises(ConfigError):
        build_temporal_graph(np.array([1.0]), LagSet([5]), 5)
    with pytest.raises(ShapeError):
        build_temporal_graph(np.array([1.0, 2.0]), LagSet([1]), 5)


def test_temporal_penalty_unknown_form():
    with pytest.raises(UsageError):
        temporal_penalty_value(np.ones((1, 4)), np.ones((1, 1)), LagSet([1]), "exact")


def test_temporal_penalty_empty_lag_set_is_zero():
    assert temporal_penalty_value(np.ones((2, 5)), np.zeros((2, 0)), LagSet(),
                                  "residual") == 0.0


# --------------------------------------------------- orthogonality penalty

def test_ortho_penalty_orthonormal_is_zero():
    q = np.linalg.qr(np.random.default_rng(1).random((6, 3)))[0]
    assert ortho_penalty_value(q) == pytest.approx(0.0, abs=1e-24)


def test_ortho_penalty_hand_value():
    # single column [1, 1]: gram = 2, penalty (2-1)^2 = 1
    assert ortho_penalty_value(np.array([[1.0], [1.0]])) == pytest.approx(1.0)


def test_ortho_penalty_scaling():
    q = np.linalg.qr(np.random.default_rng(2).random((5, 4)))[0]
    for c in (0.5, 2.0, 3.0):
        # gram of c q is c^2 I, penalty (c^2-1)^2 per diagonal entry
        assert ortho_penalty_value(c * q) \
            == pytest.approx((c * c - 1.0) ** 2 * 4, rel=1e-10)


def test_ortho_penalty_zero_iff_orthonormal():
    rng = np.random.default_rng(4)
    for _ in range(10):
        c = rng.random((5, 3))
        penalty = ortho_penalty_value(c)
        gram_err = np.abs(c.T @ c - np.eye(3)).max()
        assert (penalty < 1e-10) == (gram_err < 1e-5)


# --------------------------------------------------------- full objective

def _random_model(rng, n=7, k=3, T=12, lags=(1, 2)):
    ls = LagSet(lags)
    routing = (rng.random((5, n)) < 0.5).astype(float)
    spatial = rng.random((n, k))
    latent = rng.random((k, T))
    ar = rng.random((k, len(ls)))
    model = FactorModel.from_factors(spatial, latent, ar, ls, routing)
    return model, routing


def test_objective_is_sum_of_terms():
    rng = np.random.default_rng(7)
    model, routing = _random_model(rng)
    x = rng.random((7, 12))
    weights = RegularizationWeights(0.6, 0.3, 0.2, 0.2)
    fit = float(np.sum((x - model.spatial @ model.latent) ** 2))
    temporal = temporal_penalty_value(model.latent, model.ar_weights,
                                      model.lag_set, "residual")
    ortho = ortho_penalty_value(routing @ model.spatial)
    expected = fit + 0.6 * temporal + 0.3 * ortho
    assert objective_value(x, replace(model, weights=weights)) \
        == pytest.approx(expected, rel=1e-12)


def test_objective_reduces_to_fit_without_penalties():
    rng = np.random.default_rng(8)
    model, routing = _random_model(rng)
    x = rng.random((7, 12))
    weights = RegularizationWeights(0.0, 0.0, 0.0, 0.0)
    fit = float(np.sum((x - model.spatial @ model.latent) ** 2))
    assert objective_value(x, replace(model, weights=weights)) == pytest.approx(fit, rel=1e-12)


def test_objective_zero_at_exact_model():
    # X = WH, constant AR-exact rows, orthonormal compact routing
    n, k, T = 4, 2, 8
    routing = np.eye(n)
    spatial = np.zeros((n, k))
    spatial[0, 0] = 1.0
    spatial[1, 1] = 1.0
    latent = np.tile(np.array([[2.0], [3.0]]), (1, T))
    ar = np.full((k, 2), 0.5)  # weights sum to 1
    model = FactorModel.from_factors(spatial, latent, ar, LagSet([1, 2]), routing)
    x = spatial @ latent
    weights = RegularizationWeights(1.0, 1.0, 0.5, 0.5)
    assert objective_value(x, replace(model, weights=weights)) == pytest.approx(0.0, abs=1e-20)


def test_objective_permutation_invariance():
    rng = np.random.default_rng(9)
    model, routing = _random_model(rng)
    x = rng.random((7, 12))
    weights = RegularizationWeights(0.4, 0.7, 0.2, 0.2)
    base = objective_value(x, replace(model, weights=weights))
    perm = rng.permutation(model.rank)
    permuted = FactorModel.from_factors(
        model.spatial[:, perm], model.latent[perm], model.ar_weights[perm],
        model.lag_set, routing)
    assert objective_value(x, replace(permuted, weights=weights)) == pytest.approx(base, rel=1e-12)


def test_objective_shape_mismatch():
    rng = np.random.default_rng(10)
    model, routing = _random_model(rng)
    with pytest.raises(ShapeError):
        objective_value(rng.random((7, 5)), model)


# ------------------------------------------------------------ FactorModel

def test_factor_model_caches_compact_routing():
    rng = np.random.default_rng(12)
    model, routing = _random_model(rng)
    np.testing.assert_allclose(model.compact_routing, routing @ model.spatial,
                               atol=1e-12)
    assert model.rank == 3
    assert model.n_flows == 7
    assert model.n_timestamps == 12


def test_factor_model_rejects_negative_factors():
    routing = np.eye(2)
    with pytest.raises(Exception):
        FactorModel.from_factors(np.array([[-1.0], [1.0]]), np.ones((1, 3)),
                                 np.zeros((1, 0)), LagSet(), routing)


def test_factor_model_rejects_shape_mismatch():
    routing = np.eye(3)
    with pytest.raises(ShapeError):
        FactorModel.from_factors(np.ones((2, 2)), np.ones((2, 4)),
                                 np.zeros((2, 0)), LagSet(), routing)
    with pytest.raises(ShapeError):
        FactorModel.from_factors(np.ones((3, 2)), np.ones((1, 4)),
                                 np.zeros((1, 0)), LagSet(), routing)
