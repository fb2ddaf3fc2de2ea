"""Estimator tests.

Covers:
  - latent window fit: orthonormal exact recovery, zero input, all-zero
    compact routing guard, never-worse-than-seed, nonneg least-squares
    residual vs. exhaustive active-set enumeration and scipy's solver, the
    trained AR prior used only on windows longer than max_lag; the
    Jacobi-scaled rows: 100 scaled steps against 200 unscaled ones on an
    ill-conditioned window, the descent lemma for the scaled block's step,
    the info line's data fit, penalized objective, gradient mapping and
    steps, the loop's iterate against the reference loop's
  - EM refinement, its step cap and stop set through the module constants:
    exact fixed point, zero observation, boundary ML problem
    against a grid-search oracle, scale equivariance, zero-column skip,
    denominator floor logging, byte identity and the same log lines as the
    gather-and-scatter reference loop on the two column halves, inputs left
    unchanged; the worker thread: same bytes from call to call and under
    concurrent calls, none for one column, none left running, an error in
    its half raised by the call
  - end-to-end column estimation: consistency, nonnegativity, batch shape,
    negative and non-finite link flows refused with the cell named
"""

import itertools
import logging
import re
import sys
import threading

import numpy as np
import pytest
import scipy.optimize

import ttnmf.estimation as estimation
from ttnmf.errors import ShapeError, ValidationError
from ttnmf.estimation import (DELTA_EM, R_MAX_EM, WINDOW_ITERS, WINDOW_NOISE,
                              _scaled_block, estimate_latent,
                              estimate_od_flow, estimate_od_flows, refine_em)
from ttnmf.factors import (FactorModel, LagSet, RegularizationWeights,
                           temporal_penalty_value)
from ttnmf.training import _latent_block, _nesterov_loop


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


# ------------------------------------------------------------- latent fit

def _random_model(rng, lam_t=0.0):
    # 5 links, 8 OD pairs, rank 3, lags {1, 2}
    routing = (rng.random((5, 8)) < 0.5).astype(float)
    routing[rng.integers(0, 5, size=8), np.arange(8)] = 1.0
    return FactorModel.from_factors(
        rng.random((8, 3)), rng.random((3, 20)), rng.random((3, 2)),
        LagSet((1, 2)), routing, RegularizationWeights(lambda_temporal=lam_t))


def _column_fit(c, y):
    """Latent fit of one column against compact routing c."""
    model = FactorModel.from_factors(np.eye(c.shape[1]), np.ones((3, 2)),
                                     np.zeros((3, 0)), LagSet(), c)
    return estimate_latent(y[:, None], model)[:, 0]


def test_latent_orthonormal_recovery():
    model = _orthonormal_model()
    h_star = np.array([[2.0, 0.0, 1.0], [0.5, 1.0, 0.0], [3.0, 2.0, 0.25]])
    h = estimate_latent(model.compact_routing @ h_star, model)
    np.testing.assert_allclose(h, h_star, atol=1e-12)


def test_latent_zero_observation():
    model = _orthonormal_model()
    h = estimate_latent(np.zeros((6, 2)), model)
    assert h.shape == (3, 2) and not h.any()


def test_latent_zero_compact_routing_warns(caplog):
    spatial = np.ones((4, 2))
    model = FactorModel.from_factors(spatial, np.ones((2, 3)), np.zeros((2, 0)),
                                     LagSet(), np.zeros((3, 4)))
    with caplog.at_level(logging.WARNING, logger="ttnmf.estimation"):
        h = estimate_latent(np.ones((3, 5)), model)
    assert h.shape == (2, 5) and not h.any()
    assert any("all zero" in rec.message for rec in caplog.records)


def test_latent_never_worse_than_clipped_least_squares():
    rng = np.random.default_rng(0)
    for lam_t in (0.0, 3.0):
        for _ in range(10):
            model = _random_model(rng, lam_t)
            c = model.compact_routing
            y = rng.random((c.shape[0], 12)) * 5
            h = estimate_latent(y, model)
            assert h.min() >= 0
            seed = np.maximum(np.linalg.lstsq(c, y, rcond=None)[0], 0.0)
            assert (np.sum((y - c @ h) ** 2)
                    <= np.sum((y - c @ seed) ** 2) * (1 + 1e-12))


def test_latent_residual_matches_active_set_oracle_consistent():
    rng = np.random.default_rng(1)
    for _ in range(10):
        c = rng.random((6, 3))
        y = c @ rng.random(3)  # consistent: optimal residual is 0
        h = _column_fit(c, y)
        oracle = _nnls_enumeration_oracle(c, y)
        assert oracle <= 1e-20
        assert float(np.sum((y - c @ h) ** 2)) <= oracle + 1e-6


def test_latent_residual_matches_oracles_inconsistent():
    rng = np.random.default_rng(2)
    for trial in range(10):
        c = rng.random((6, 3))
        y = rng.random(6) * 2  # generic: no exact nonneg solution
        got = float(np.sum((y - c @ _column_fit(c, y)) ** 2))
        oracle = _nnls_enumeration_oracle(c, y)
        _, scipy_resid = scipy.optimize.nnls(c, y)
        assert oracle == pytest.approx(scipy_resid ** 2, rel=1e-8, abs=1e-12)
        assert got <= oracle + 1e-6
        assert got >= oracle - 1e-9  # cannot beat the true optimum


def test_latent_window_uses_trained_ar_prior():
    # more than max_lag columns: the trained lambda_t changes the fit
    base = _random_model(np.random.default_rng(20))
    prior = _random_model(np.random.default_rng(20), lam_t=3.0)
    y = np.random.default_rng(21).random((5, 12)) * 5
    assert np.abs(estimate_latent(y, prior)
                  - estimate_latent(y, base)).max() > 1e-6


def test_latent_short_window_ignores_ar_prior():
    # max_lag columns or fewer: no AR residual exists, so lambda_t is unused
    base = _random_model(np.random.default_rng(20))
    prior = _random_model(np.random.default_rng(20), lam_t=3.0)
    rng = np.random.default_rng(22)
    for width in (1, 2):
        y = rng.random((5, width)) * 5
        np.testing.assert_array_equal(estimate_latent(y, prior),
                                      estimate_latent(y, base))


def _ill_conditioned_window(seed, lam_t=30.0):
    """A window whose compact routing has column norms spread over more than
    1e2, with latent rows that follow the model's AR(2) prior."""
    rng = np.random.default_rng(seed)
    links, n, k, T = 20, 30, 6, 80
    spread = np.logspace(0.0, 2.5, k)
    routing = (rng.random((links, n)) < 0.3).astype(float)
    ar = np.tile([0.6, 0.3], (k, 1))
    h = np.empty((k, T))
    h[:, :2] = rng.random((k, 2))
    for t in range(2, T):
        h[:, t] = 0.6 * h[:, t - 1] + 0.3 * h[:, t - 2] + 0.1 * rng.random(k)
    model = FactorModel.from_factors(
        rng.random((n, k)) * spread, h / spread[:, None], ar, LagSet((1, 2)),
        routing, RegularizationWeights(lambda_temporal=lam_t))
    c = model.compact_routing
    y = np.maximum(c @ model.latent
                   * (1.0 + 0.05 * rng.standard_normal((links, T))), 0.0)
    return model, y


def _penalized(model, y, h):
    """(||Y - C H||^2, that plus lambda_t * temporal penalty), from the full
    residual."""
    fit = float(np.sum((y - model.compact_routing @ h) ** 2))
    return fit, fit + model.weights.lambda_temporal * temporal_penalty_value(
        h, model.ar_weights, model.lag_set, "residual")


def test_scaled_window_fit_beats_unscaled_loop_at_200_steps():
    assert WINDOW_ITERS == 100
    for seed in range(3):
        model, y = _ill_conditioned_window(seed)
        c = model.compact_routing
        norms = np.linalg.norm(c, axis=0)
        assert norms.max() >= 1e2 * norms.min()
        start = np.maximum(np.linalg.lstsq(c, y, rcond=None)[0], 0.0)
        unscaled, _ = _nesterov_loop(
            start, *_latent_block(y, c, model.ar_weights, model.lag_set,
                                  model.weights, by_column=True),
            200, noise=WINDOW_NOISE)
        scaled = estimate_latent(y, model)
        assert scaled.min() >= 0
        assert (_penalized(model, y, scaled)[1]
                <= _penalized(model, y, unscaled)[1]), seed


def test_scaled_latent_step_never_raises_penalized_objective():
    # descent lemma: with a true Lipschitz bound L of the gradient, one
    # projected step of 1/L from any feasible point never raises the
    # objective.  lambda_t is large, so the temporal part of L dominates
    rng = np.random.default_rng(30)
    for seed in range(5):
        model, y = _ill_conditioned_window(seed, lam_t=1e5)
        c = model.compact_routing
        d, grad, err, lip = _scaled_block(y, c, model, model.lag_set)
        unscaled = _latent_block(y, c, model.ar_weights, model.lag_set,
                                 model.weights)[0]
        for _ in range(20):
            g = d[:, None] * model.latent * rng.random(model.latent.shape) * 3
            g[rng.random(g.shape) < 0.2] = 0.0
            h = g / d[:, None]
            # the same problem in G = D H: the data fit of H, D^-1 its gradient
            fit, f_now = _penalized(model, y, h)
            assert err(g) == pytest.approx(fit, rel=1e-9)
            want = unscaled(h) / d[:, None]
            np.testing.assert_allclose(grad(g), want, rtol=1e-9,
                                       atol=1e-9 * np.abs(want).max())
            step = np.maximum(g - grad(g) / lip, 0.0)
            f_next = _penalized(model, y, step / d[:, None])[1]
            assert f_next <= f_now * (1 + 1e-12), seed


def test_window_fit_matches_reference_loop(reference_nesterov_loop):
    # the window fit's loop returns the reference loop's iterate bit for bit
    # in no more steps; on seed 0 a restart at the best iterate stops it
    # early, where the reference repeats that step to the cap
    steps = []
    for seed in range(4):
        model, y = _ill_conditioned_window(seed)
        c = model.compact_routing
        d, *triple = _scaled_block(y, c, model, model.lag_set)
        g0 = d[:, None] * np.maximum(np.linalg.lstsq(c, y, rcond=None)[0], 0.0)
        got, n = _nesterov_loop(g0, *triple, WINDOW_ITERS, noise=WINDOW_NOISE)
        want, n_ref = reference_nesterov_loop(g0, *triple, WINDOW_ITERS,
                                              noise=WINDOW_NOISE)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(estimate_latent(y, model),
                                      got / d[:, None])
        assert n <= n_ref
        steps.append((n, n_ref))
    assert steps[0][0] < steps[0][1] == WINDOW_ITERS


def test_window_fit_logs_fit_objective_and_gradient_mapping(caplog,
                                                            monkeypatch):
    model, y = _ill_conditioned_window(0)
    returned = []

    def loop(*args, **kwargs):
        result = _nesterov_loop(*args, **kwargs)
        returned.append(result[1])
        return result

    monkeypatch.setattr(estimation, "_nesterov_loop", loop)
    with caplog.at_level(logging.INFO, logger="ttnmf.estimation"):
        h = estimate_latent(y, model)
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("window fit:")]
    assert len(lines) == 1
    found = re.fullmatch(
        r"window fit: 80 columns, (\d+) iterations( \(cap reached\))?, data "
        r"fit (\S+) of \|\|Y\|\|\^2, penalized objective (\S+), gradient "
        r"mapping (\S+) of the start's", lines[0])
    assert found, lines[0]
    steps, cap, fit_rel, objective, mapping = found.groups()
    # a restart at the best iterate stops this fit before the cap
    assert returned == [int(steps)] and int(steps) < WINDOW_ITERS and not cap
    fit, penalized = _penalized(model, y, h)
    assert float(fit_rel) == pytest.approx(fit / np.sum(y * y), rel=1e-6)
    assert float(objective) == pytest.approx(penalized, rel=1e-6)
    assert 0.0 < float(mapping) < 1.0


def test_latent_shape_mismatch():
    model = _orthonormal_model()
    with pytest.raises(ShapeError):
        estimate_latent(np.ones((5, 2)), model)
    with pytest.raises(ShapeError):
        estimate_latent(np.ones(6), model)


# ---------------------------------------------------------- EM refinement

@pytest.fixture
def em_limits(monkeypatch):
    """em_limits(r_max, delta) sets R_MAX_EM and DELTA_EM for the test; an
    omitted one keeps its value."""
    def set_limits(r_max=R_MAX_EM, delta=DELTA_EM):
        monkeypatch.setattr(estimation, "R_MAX_EM", r_max)
        monkeypatch.setattr(estimation, "DELTA_EM", delta)
    return set_limits


def test_em_exact_solution_is_fixed_point(em_limits):
    rng = np.random.default_rng(3)
    a = (rng.random((5, 9)) < 0.5).astype(float)
    x = rng.random(9) + 0.1
    y = a @ x
    em_limits(1)
    one_step = refine_em(x, y, a)
    rel = np.linalg.norm(one_step - x) / np.linalg.norm(x)
    assert rel < 1e-12


def test_em_zero_observation_drives_flows_to_zero():
    a = np.array([[1.0, 1.0], [1.0, 0.0]])
    out = refine_em(np.array([2.0, 3.0]), np.zeros(2), a)
    np.testing.assert_allclose(out, 0.0, atol=1e-300)


def test_em_converges_to_grid_search_ml_point(em_limits):
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

    em_limits(2000, 1e-30)
    got = refine_em(np.array([1.0, 1.0]), y, a)
    np.testing.assert_allclose(got, oracle, atol=2e-4)


def test_em_scale_equivariant(em_limits):
    rng = np.random.default_rng(4)
    a = (rng.random((4, 7)) < 0.5).astype(float)
    x0 = rng.random(7)
    y = rng.random(4) * 3
    em_limits(50, 1e-30)
    base = refine_em(x0, y, a)
    for c in (0.1, 5.0):
        scaled = refine_em(c * x0, c * y, a)
        np.testing.assert_allclose(scaled, c * base, rtol=1e-10)


def test_em_skips_zero_columns(em_limits):
    a = np.array([[1.0, 0.0], [1.0, 0.0]])
    x0 = np.array([1.0, 7.5])
    em_limits(100, 1e-30)
    out = refine_em(x0, np.array([2.0, 2.0]), a)
    assert out[1] == 7.5  # unrouted flow held fixed
    assert out[0] == pytest.approx(2.0, rel=1e-10)


def test_em_floors_zero_denominator(em_limits, caplog):
    em_limits(3)
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    # second flow starts at 0 with positive observation: predicted load is 0
    with caplog.at_level(logging.WARNING, logger="ttnmf.estimation"):
        out = refine_em(np.array([1.0, 0.0]), np.array([1.0, 2.0]), a)
    assert any("floored" in rec.message for rec in caplog.records)
    assert np.isfinite(out).all() and out.min() >= 0
    # the coupled first two flows keep EM moving for all three iterations,
    # and the floor is logged once per call, not once per iteration
    caplog.clear()
    a = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    with caplog.at_level(logging.WARNING, logger="ttnmf.estimation"):
        refine_em(np.array([1.0, 1.0, 0.0]), np.array([3.0, 2.0, 2.0]), a)
    assert sum("floored" in rec.message for rec in caplog.records) == 1


def test_em_batch_matches_columns(em_limits):
    # each column keeps its own stop rule: an exact column stops after one
    # step while the others run on, as they would alone
    rng = np.random.default_rng(7)
    a = (rng.random((4, 7)) < 0.5).astype(float)
    a[rng.integers(0, 4, size=7), np.arange(7)] = 1.0
    x0 = rng.random((7, 5)) + 0.1
    y = rng.random((4, 5)) * 3
    y[:, 0] = a @ x0[:, 0]
    em_limits(200, 1e-6)
    batch = refine_em(x0, y, a)
    for t in range(5):
        np.testing.assert_allclose(batch[:, t],
                                   refine_em(x0[:, t], y[:, t], a),
                                   rtol=1e-12)
    np.testing.assert_allclose(batch[:, 0], x0[:, 0], rtol=1e-12)


def _reference_refine_em(x0, link_flows, a, r_max, delta):
    """The EM loop refine_em ran before it kept its moving columns in one
    working array: it gathers them from x and scatters them back each step.
    It runs on the columns left of T // 2 and then on the rest, the halves
    that refine_em splits the window into.  Returns the estimate, the floor
    count the warning reports, the steps run (the more of the two halves),
    each column's step count and the columns still moving."""
    vector = np.ndim(x0) == 1
    x = np.array(x0, dtype=float).reshape(len(x0), -1)
    y = np.asarray(link_flows, dtype=float).reshape(len(link_flows), -1)
    col = a.sum(axis=0)
    fixed = col == 0
    col_div = np.where(fixed, 1.0, col)[:, None]
    eps_min = delta * np.einsum("ij,ij->j", x, x)
    t = x.shape[1]
    col_steps = np.full(t, r_max)
    floored = steps = moving = 0
    for lo, hi in ((0, t // 2), (t // 2, t)):
        cols = np.arange(lo, hi)
        for step in range(1, r_max + 1):
            if not cols.size:
                break
            steps = max(steps, step)
            xa = np.ascontiguousarray(x[:, cols])
            ya = np.ascontiguousarray(y[:, cols])
            ax = a @ xa
            zero = ax == 0.0
            hit = zero & (ya > 0)
            if hit.any():
                floored = max(floored, int(hit.sum(axis=0).max()))
            ax[zero] = 1e-12
            x_new = a.T @ np.divide(ya, ax, out=ax)
            x_new[fixed] = 1.0
            x_new *= xa
            x_new /= col_div
            x[:, cols] = x_new
            xa -= x_new
            keep = np.einsum("ij,ij->j", xa, xa) >= eps_min[cols]
            col_steps[cols[~keep]] = step
            cols = cols[keep]
        moving += cols.size
    return (x[:, 0] if vector else x), floored, steps, col_steps, moving


def _em_cases():
    """(name, x0, y, a, (r_max, delta)) cases for the reference
    comparison."""
    rng = np.random.default_rng(11)
    cases = []
    for seed in range(6):
        n, links, t = 7 + seed, 4 + seed % 3, 3 + 5 * seed
        a = (rng.random((links, n)) < 0.4).astype(float)
        a[rng.integers(0, links, size=n), np.arange(n)] = 1.0
        x0 = rng.random((n, t)) * 10.0 ** rng.integers(-2, 3, size=t)
        y = rng.random((links, t)) * 3
        cases.append((f"stops at different steps {seed}", x0, y, a,
                      (200, 1e-6)))
        # integer flows on a 0/1 routing: A x is exact, so every column is a
        # fixed point and stops after its first step
        xi = rng.integers(1, 9, size=(n, t)).astype(float)
        cases.append((f"all stop at step 1 {seed}", xi, a @ xi, a,
                      (R_MAX_EM, DELTA_EM)))
        mixed, y_mixed = x0.copy(), y.copy()
        mixed[:, ::2], y_mixed[:, ::2] = xi[:, ::2], a @ xi[:, ::2]
        cases.append((f"some stop at step 1 {seed}", mixed, y_mixed, a,
                      (200, 1e-6)))
        tiled = np.repeat(x0[:, :1], t, axis=1)
        cases.append((f"all stop together {seed}", tiled,
                      np.repeat(y[:, :1], t, axis=1), a,
                      (2000, 1e-6)))
        cases.append((f"none stop before the cap {seed}", x0, y, a,
                      (15, 1e-30)))
        for r_max in (0, 1):
            cases.append((f"r_max_em {r_max} {seed}", x0, y, a,
                          (r_max, DELTA_EM)))
        unrouted = a.copy()
        unrouted[:, [0, n - 1]] = 0.0
        cases.append((f"unrouted pairs {seed}", x0, y, unrouted, (100, 1e-7)))
        zeros = x0.copy()
        zeros[rng.random(zeros.shape) < 0.3] = 0.0
        zeros[np.ix_(a[0] > 0, np.arange(0, t, 2))] = 0.0  # link 0 unfed
        cases.append((f"zero starts {seed}", zeros, y, a, (100, 1e-7)))
        cases.append((f"vector {seed}", x0[:, 1], y[:, 1], a, (100, 1e-7)))
        cases.append((f"empty window {seed}", x0[:, :0], y[:, :0], a,
                      (R_MAX_EM, DELTA_EM)))
    return cases


@pytest.mark.parametrize("name,x0,y,a,limits", _em_cases(),
                         ids=[c[0] for c in _em_cases()])
def test_em_matches_reference_loop(em_limits, caplog, name, x0, y, a, limits):
    want, floored, steps, col_steps, moving = _reference_refine_em(
        x0, y, a, *limits)
    em_limits(*limits)
    with caplog.at_level(logging.INFO, logger="ttnmf.estimation"):
        got = refine_em(x0, y, a)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    info = (f"refine_em: {col_steps.size} columns, {steps} steps, per column "
            f"median {np.median(col_steps) if col_steps.size else 0:g} and "
            f"max {col_steps.max(initial=0)}, {moving} still moving at "
            f"R_MAX_EM")
    floor = ("refine_em: up to %d links of a column had zero predicted load "
             "but positive observation; denominator floored" % floored)
    assert [rec.getMessage() for rec in caplog.records] == (
        [info, floor] if floored else [info])


def test_em_reference_cases_cover_each_kind():
    # the random cases really stop at different steps, together, at step 1
    # or not at all, and the zero starts hit the floor
    for name, x0, y, a, limits in _em_cases():
        _, floored, _, col_steps, _ = _reference_refine_em(x0, y, a, *limits)
        below = col_steps[col_steps < limits[0]]
        if name.startswith("stops at different steps"):
            assert len(set(below.tolist())) > 1, name
        elif name.startswith("all stop at step 1"):
            assert set(col_steps.tolist()) == {1}, name
        elif name.startswith("some stop at step 1"):
            assert col_steps.min() == 1 < col_steps.max(), name
        elif name.startswith("all stop together"):
            assert len(set(col_steps.tolist())) == 1 and below.size, name
        elif name.startswith("none stop"):
            assert not below.size, name
        elif name.startswith("zero starts"):
            assert floored, name


def test_em_leaves_inputs_unchanged(em_limits):
    rng = np.random.default_rng(5)
    a = (rng.random((4, 6)) < 0.5).astype(float)
    a[rng.integers(0, 4, size=6), np.arange(6)] = 1.0
    for x0, y in ((rng.random((6, 5)), rng.random((4, 5))),
                  (rng.random(6), rng.random(4))):
        x_before, y_before = x0.copy(), y.copy()
        for r_max in (0, 1, 50):
            em_limits(r_max, 1e-6)
            refine_em(x0, y, a)
            assert np.array_equal(x0, x_before)
            assert np.array_equal(y, y_before)


def test_em_logs_steps_per_column(em_limits, caplog):
    # column 0 is an exact fixed point and stops after one step; the other
    # two are still moving at the cap
    a = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    x0 = np.array([[1.0, 1.0, 1.0], [2.0, 1.0, 3.0], [3.0, 1.0, 1.0]])
    y = np.stack([a @ x0[:, 0], [5.0, 1.0], [1.0, 7.0]], axis=1)
    em_limits(5, 1e-30)
    with caplog.at_level(logging.INFO, logger="ttnmf.estimation"):
        refine_em(x0, y, a)
    assert [rec.getMessage() for rec in caplog.records] == [
        "refine_em: 3 columns, 5 steps, per column median 5 and max 5, "
        "2 still moving at R_MAX_EM"]


def test_em_shape_mismatch():
    with pytest.raises(ShapeError):
        refine_em(np.ones(3), np.ones(2), np.ones((2, 2)))
    with pytest.raises(ShapeError):
        refine_em(np.ones((2, 3)), np.ones((2, 2)), np.ones((2, 2)))


def _wide_em_case():
    """A 241-column window, with its (r_max, delta), whose columns stop at
    many different steps, some at step 1 (exact flows), some still moving at
    the cap."""
    rng = np.random.default_rng(23)
    n, links, t = 40, 15, 241
    a = (rng.random((links, n)) < 0.3).astype(float)
    a[rng.integers(0, links, size=n), np.arange(n)] = 1.0
    x0 = rng.random((n, t)) * 10.0 ** rng.integers(-2, 3, size=t)
    y = rng.random((links, t)) * 3
    exact = np.arange(0, t, 7)
    x0[:, exact] = rng.integers(1, 9, size=(n, exact.size))
    y[:, exact] = a @ x0[:, exact]
    return x0, y, a, (150, 1e-8)


@pytest.fixture
def started_threads(monkeypatch):
    """The threads started while the test runs, as a list."""
    started = []
    start = threading.Thread.start

    def spy(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return started


def test_em_wide_odd_window_matches_reference_and_repeats(em_limits,
                                                           started_threads):
    x0, y, a, limits = _wide_em_case()
    want, _, _, col_steps, moving = _reference_refine_em(x0, y, a, *limits)
    assert len(set(col_steps.tolist())) > 10 and 1 in col_steps and moving
    em_limits(*limits)
    first = refine_em(x0, y, a)
    assert first.tobytes() == want.tobytes()
    assert refine_em(x0, y, a).tobytes() == first.tobytes()
    assert len(started_threads) == 2  # one worker per call


def test_em_one_column_starts_no_thread(em_limits, started_threads):
    x0, y, a, limits = _wide_em_case()
    em_limits(*limits)
    before = threading.active_count()
    refine_em(x0[:, 3], y[:, 3], a)
    refine_em(x0[:, :1], y[:, :1], a)
    model = _orthonormal_model()
    estimate_od_flow(np.array([1.0, 0.0, 2.0, 0.0, 0.5, 0.0]), model)
    assert started_threads == []
    refine_em(x0[:, :2], y[:, :2], a)
    assert len(started_threads) == 1
    assert threading.active_count() == before


def test_em_leaves_thread_count_unchanged(em_limits):
    x0, y, a, limits = _wide_em_case()
    before = threading.active_count()
    for r_max in (0, 1, limits[0]):
        em_limits(r_max)
        refine_em(x0, y, a)
        assert threading.active_count() == before


def test_em_concurrent_calls_match_reference(em_limits):
    # six calls at once, each with its own worker, on two cores and with
    # thread switches forced often: every result is the reference's bytes
    x0, y, a, limits = _wide_em_case()
    want = _reference_refine_em(x0, y, a, *limits)[0].tobytes()
    em_limits(*limits)
    got = [None] * 6

    def call(i):
        got[i] = refine_em(x0, y, a).tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=(i,)) for i in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert got == [want] * 6


def test_em_error_in_worker_half_propagates(em_limits, monkeypatch):
    # the worker runs the right half; an error there ends the call, after
    # the worker thread has ended
    caller, workers = threading.get_ident(), []
    columns = estimation._em_columns

    def failing(*args):
        if threading.get_ident() != caller:
            workers.append(threading.current_thread())
            raise RuntimeError("right half failed")
        return columns(*args)

    monkeypatch.setattr(estimation, "_em_columns", failing)
    x0, y, a, limits = _wide_em_case()
    em_limits(*limits)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="right half failed"):
        refine_em(x0, y, a)
    assert len(workers) == 1 and not workers[0].is_alive()
    assert threading.active_count() == before


# --------------------------------------------------------------- end to end

def test_od_flow_consistent_case_recovers_exactly():
    model = _orthonormal_model()
    h_star = np.array([1.5, 2.0, 0.25])
    x_star = model.spatial @ h_star
    y = model.compact_routing @ h_star
    got = estimate_od_flow(y, model)
    np.testing.assert_allclose(got, x_star, atol=1e-8)


def test_od_flow_zero_observation():
    model = _orthonormal_model()
    got = estimate_od_flow(np.zeros(6), model)
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
        x = estimate_od_flow(y, model)
        assert x.min() >= 0
        assert np.isfinite(x).all()


def test_od_flows_batch_matches_columnwise():
    # with no temporal term (no lags, or lambda_t = 0 on a window longer
    # than max_lag) each column gets the estimate it gets alone
    rng = np.random.default_rng(6)
    m, n, k, T = 5, 8, 3, 6
    routing = (rng.random((m, n)) < 0.5).astype(float)
    spatial, latent = rng.random((n, k)), rng.random((k, 4))
    y = rng.random((m, T)) * 4
    for lags in (LagSet(), LagSet((1, 2))):
        model = FactorModel.from_factors(spatial, latent,
                                         rng.random((k, len(lags))), lags,
                                         routing)
        batch = estimate_od_flows(y, model)
        assert batch.shape == (n, T)
        for t in range(T):
            column = estimate_od_flow(y[:, t], model)
            np.testing.assert_allclose(batch[:, t], column, rtol=1e-12)


@pytest.mark.parametrize("value,message", [
    (np.nan, "link flows must be finite; cell (2,3) is nan"),
    (np.inf, "link flows must be finite; cell (2,3) is inf"),
    (-0.5, "link flows must be >= 0; cell (2,3) is -0.5")])
def test_od_flows_refuse_a_bad_link_flow_cell(value, message):
    # a negative link flow would give negative OD estimates, and a NaN one
    # non-finite estimates
    from ttnmf.network import LinkFlowMatrix
    rng = np.random.default_rng(8)
    m, n, k = 5, 8, 3
    routing = (rng.random((m, n)) < 0.5).astype(float)
    model = FactorModel.from_factors(rng.random((n, k)), rng.random((k, 4)),
                                     np.zeros((k, 0)), LagSet(), routing)
    y = rng.random((m, 4))
    assert estimate_od_flows(LinkFlowMatrix(y), model).min() >= 0
    y[1, 2] = value
    with pytest.raises(ValidationError, match=re.escape(message)):
        estimate_od_flows(y, model)
    with pytest.raises(ValidationError, match="link flows"):
        estimate_od_flow(y[:, 2], model)


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
    x_hat = estimate_od_flow(y, model)
    x_true = test_tm.entries[:, 0]
    rel = np.linalg.norm(x_hat - x_true) / np.linalg.norm(x_true)
    assert rel <= 0.065
