"""Block-coordinate training with restarted accelerated projected gradients."""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalFailure, ShapeError, UsageError
from .factors import (FactorModel, LagSet, RegularizationWeights,
                      build_lag_design_matrix, build_temporal_graph,
                      ortho_penalty_value, routing_array,
                      temporal_penalty_gradient)
# build_temporal_graph is the paper-form oracle; training never calls it, and
# it stays importable here so that bench/tracing.py can count calls to it
from .initialization import init_factors_svd, init_lag_weights
from .network import TrafficMatrix

logger = logging.getLogger(__name__)

BLOCKS = ("spatial", "latent", "ar")


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for the outer loop and the per-block inner loops."""

    rank: int
    lag_set: LagSet = LagSet()
    beta_temporal: float = 0.2
    beta_ortho: float = 0.2
    q_max: int = 50
    q_block_max: int = 10
    delta: float = 1e-9
    delta_spatial: float = 1e-3
    delta_latent: float = 1e-3
    delta_ar: float = 1e-5
    missing_mode: str = "none"

    def validate(self):
        if self.rank < 1:
            raise ConfigError(f"rank must be >= 1, got {self.rank}")
        for name in ("beta_temporal", "beta_ortho"):
            b = getattr(self, name)
            if not 0.0 <= b <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {b}")
        if self.q_max < 1 or self.q_block_max < 1:
            raise ConfigError("iteration limits must be >= 1")
        for name in ("delta", "delta_spatial", "delta_latent", "delta_ar"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        if self.missing_mode not in ("none", "weighted_fill", "em_mask"):
            raise ConfigError(f"unknown missing_mode {self.missing_mode!r}")

    def block_delta(self, block: str) -> float:
        return {"spatial": self.delta_spatial,
                "latent": self.delta_latent,
                "ar": self.delta_ar}[block]


@dataclass
class TrainReport:
    """What happened during a train() call."""

    objective_trace: list
    block_iteration_counts: dict
    final_penalties: tuple
    wall_time: float
    iteration_wall_ms: list = field(default_factory=list)

    @property
    def n_iterations(self) -> int:
        return len(self.objective_trace) - 1


def _frob2(a) -> float:
    return float(np.vdot(a, a))


def _norm2(a) -> float:
    """Spectral norm of a small dense matrix."""
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def next_momentum(alpha: float) -> float:
    """Accelerated-gradient momentum schedule."""
    return 0.5 * (1.0 + math.sqrt(4.0 * alpha * alpha + 1.0))


def _nesterov_loop(b0, grad, err, lip, q_max, rel_tol=None, abs_tol=None):
    """Restarted accelerated projected descent on one block.

    grad() is evaluated at the extrapolated point; the error measure is
    checked at the main iterate.  On an error increase the extrapolation
    collapses onto the best accepted iterate and the momentum restarts, so the
    returned iterate never measures worse than the entry point.  Returns
    (best iterate, iterations used).
    """
    e_prev = err(b0)
    eps_min = rel_tol * e_prev if rel_tol is not None else abs_tol
    step = 1.0 / lip
    b = b0
    c = b0
    b_best, e_best = b0, e_prev
    alpha_prev = 1.0
    n = 0
    while n < q_max:
        if e_best == 0.0:
            break
        n += 1
        alpha = next_momentum(alpha_prev)
        b_new = np.maximum(c - step * grad(c), 0.0)
        c = b_new + ((alpha_prev - 1.0) / alpha) * (b_new - b)
        e_curr = err(b_new)
        eps = e_prev - e_curr
        if eps < 0.0:
            c = b_best
            alpha = 1.0
            e_curr = e_prev
        elif e_curr <= e_best:
            b_best, e_best = b_new, e_curr
        b = b_new
        alpha_prev = alpha
        e_prev = e_curr
        if not (eps < 0.0 or eps >= eps_min):
            break
    return b_best, n


def _positive(lip: float) -> float:
    """A step-size denominator, 1.0 where the curvature vanishes."""
    return lip if lip > 0 else 1.0


def _spatial_block(x, h, weights, a):
    """(grad, err, lip) of the spatial block with H fixed.

    err is the data fit.  lip = 2||H H^T||_2 bounds the data-fit curvature
    only, not that of the quartic orthogonality term.
    """
    hht = h @ h.T
    xht = x @ h.T
    lam = weights.lambda_ortho
    eye = np.eye(h.shape[0])

    def grad(c):
        g = 2.0 * (c @ hht - xht)
        if lam > 0:
            compact = a @ c
            g += 4.0 * lam * (a.T @ (compact @ (compact.T @ compact - eye)))
        return g

    def err(b):
        return _frob2(x - b @ h)

    return grad, err, _positive(2.0 * _norm2(hht))


def _latent_block(x, w, omega, lag_set, weights):
    """(grad, err, lip) of the latent block with W and the AR weights fixed.

    err is the data fit.  The temporal Hessian is block-diagonal over rows,
    with blocks M_p^T M_p for the AR residual operator M_p of row p, and
    ||M_p||_2 <= 1 + sum_l |w_p(l)|; so lip = 2||W^T W||_2 +
    lambda_t max_p (1 + sum_l |w_p(l)|)^2 is a valid bound.
    """
    wtw = w.T @ w
    wtx = w.T @ x
    lam = weights.lambda_temporal if len(lag_set) > 0 else 0.0
    lip = 2.0 * _norm2(wtw)
    if lam > 0:
        lip += lam * float(np.max((1.0 + np.abs(omega).sum(axis=1)) ** 2))

    def grad(c):
        g = 2.0 * (wtw @ c - wtx)
        if lam > 0:
            g += lam * temporal_penalty_gradient(c, omega, lag_set)
        return g

    def err(b):
        return _frob2(x - w @ b)

    return grad, err, _positive(lip)


def _ar_block(h, row, lag_set, lam):
    """(grad, err, lip) of one row of the AR weights with H fixed.

    err is the row's AR residual over the full length, zero-padded prefix
    included; lip = lambda_t ||G||_2 for the row's lag Gram matrix G.
    """
    design = build_lag_design_matrix(h, row, lag_set)
    gram = design @ design.T
    target = h[row] @ design.T
    series = h[row]

    def grad(c):
        return lam * (c @ gram - target)

    def err(b):
        r = series - b @ design
        return float(r @ r)

    return grad, err, _positive(lam * _norm2(gram))


def _block(block, x, model, weights, a, row=None):
    """(grad, err, lip) of one block, the other blocks held at `model`."""
    if block == "spatial":
        return _spatial_block(x, model.latent, weights, a)
    if block == "latent":
        return _latent_block(x, model.spatial, model.ar_weights, model.lag_set,
                             weights)
    if block == "ar":
        return _ar_block(model.latent, row, model.lag_set,
                         weights.lambda_temporal)
    raise UsageError(f"unknown block {block!r}")


def block_gradient(block: str, x, model: FactorModel,
                   weights: RegularizationWeights, routing) -> np.ndarray:
    """Analytic gradient of the full objective with respect to one block."""
    x = np.asarray(x, dtype=float)
    a = routing_array(routing)
    if block == "ar":
        grad = np.zeros_like(model.ar_weights)
        for p in range(model.rank):
            grad[p] = _block(block, x, model, weights, a, row=p)[0](
                model.ar_weights[p])
        return grad
    current = model.spatial if block == "spatial" else model.latent
    return _block(block, x, model, weights, a)[0](current)


def block_lipschitz(block: str, x, model: FactorModel,
                    weights: RegularizationWeights, row: int | None = None) -> float:
    """Step-size denominator that training uses for one block.

    Spatial: 2||H H^T||_2.  Latent: 2||W^T W||_2 + lambda_t max_p (1 +
    sum_l |w_p(l)|)^2.  AR row: lambda_t ||G_row||_2.  1.0 where the
    curvature vanishes.  No step depends on the data, so x may be None.
    """
    if block == "ar" and row is None:
        raise UsageError("the ar block needs a row index")
    x = (np.zeros((model.n_flows, model.n_timestamps)) if x is None
         else np.asarray(x, dtype=float))
    # the routing enters only the spatial gradient, which is not evaluated
    return _block(block, x, model, weights, None, row)[2]


def _update_spatial(x, w, h, weights, a, q_max, delta):
    return _nesterov_loop(w, *_spatial_block(x, h, weights, a), q_max,
                          rel_tol=delta)


def _update_latent(x, w, h, omega, lag_set, weights, q_max, delta):
    return _nesterov_loop(h, *_latent_block(x, w, omega, lag_set, weights),
                          q_max, rel_tol=delta)


def _update_ar(h, omega, lag_set, lam, q_max, delta):
    new = omega.copy()
    total_iters = 0
    for p in range(h.shape[0]):
        new[p], iters = _nesterov_loop(omega[p],
                                       *_ar_block(h, p, lag_set, lam),
                                       q_max, rel_tol=delta)
        total_iters += iters
    return new, total_iters


def fast_gradient_update(block: str, x, model: FactorModel,
                         weights: RegularizationWeights, routing,
                         q_block_max: int = 10,
                         delta_block: float = 1e-3) -> np.ndarray:
    """One inner accelerated-gradient pass over a block.

    The returned block never measures worse than the entry point on the
    block's error (data fit for spatial/latent, AR residual for ar).
    """
    if block == "ar":
        return _update_ar(model.latent, model.ar_weights, model.lag_set,
                          weights.lambda_temporal, q_block_max, delta_block)[0]
    triple = _block(block, np.asarray(x, dtype=float), model, weights,
                    routing_array(routing))
    current = model.spatial if block == "spatial" else model.latent
    return _nesterov_loop(current, *triple, q_block_max,
                          rel_tol=delta_block)[0]


def tune_penalties(x, spatial0, latent0, ar0, lag_set: LagSet,
                   beta_temporal: float, beta_ortho: float, routing):
    """Scale the penalty weights against the initial data fit.

    lambda = beta * ||X - W0 H0||_F^2 / (penalty measure at the seed); a
    denominator below 1e-15 of the numerator zeroes the lambda with a warning.
    """
    x = np.asarray(x, dtype=float)
    a = routing_array(routing)
    num = _frob2(x - spatial0 @ latent0)

    def ratio(beta, den, name):
        if beta == 0.0:
            return 0.0
        if den <= 1e-15 * num:
            logger.warning("penalty %s disabled: denominator %.3e vanishes "
                           "against data fit %.3e", name, den, num)
            return 0.0
        return beta * num / den

    if len(lag_set) == 0:
        if beta_temporal > 0:
            logger.info("empty lag set: temporal penalty disabled")
        lam_t = 0.0
    else:
        den_t = 0.0
        for p in range(latent0.shape[0]):
            design = build_lag_design_matrix(latent0, p, lag_set)
            resid = latent0[p] - ar0[p] @ design
            den_t += float(resid @ resid)
        lam_t = ratio(beta_temporal, den_t, "temporal")
    den_o = ortho_penalty_value(a @ spatial0)
    lam_o = ratio(beta_ortho, den_o, "orthogonality")
    return lam_t, lam_o


def em_mask_step(x, mask, spatial, latent) -> np.ndarray:
    """Fill unobserved entries with the current model prediction."""
    x = np.asarray(x, dtype=float)
    mask = np.asarray(mask, dtype=float)
    if mask.shape != x.shape:
        raise ShapeError(f"mask shape {mask.shape} != data shape {x.shape}")
    return mask * x + (1.0 - mask) * (spatial @ latent)


def fill_missing_weighted(x, mask, rank: int, n_sweeps: int = 300,
                          tol: float = 1e-10) -> np.ndarray:
    """Complete missing entries by a masked low-rank factorization.

    Minimizes ||mask o (X - W H)||_F^2 with the same accelerated projected
    updates as training, then returns X with unobserved entries replaced by
    the fit.  Rows and columns with no nonzero observation are filled with 0.
    """
    x = np.asarray(x, dtype=float)
    if mask is None:
        return x.copy()
    mask = np.asarray(mask, dtype=float)
    if mask.shape != x.shape:
        raise ShapeError(f"mask shape {mask.shape} != data shape {x.shape}")
    if mask.all():
        return x.copy()
    observed = mask * x
    w, h = init_factors_svd(observed, rank)

    def err_w(b):
        return _frob2(mask * (x - b @ h))

    def err_h(b):
        return _frob2(mask * (x - w @ b))

    e_prev = err_w(w)
    for _ in range(n_sweeps):
        w, _ = _nesterov_loop(
            w, lambda c: 2.0 * ((mask * (c @ h - x)) @ h.T), err_w,
            _positive(2.0 * _norm2(h @ h.T)), 10, rel_tol=1e-6)
        h, _ = _nesterov_loop(
            h, lambda c: 2.0 * (w.T @ (mask * (w @ c - x))), err_h,
            _positive(2.0 * _norm2(w.T @ w)), 10, rel_tol=1e-6)
        e_curr = err_h(h)
        if e_prev - e_curr <= tol * max(e_prev, 1e-300):
            break
        e_prev = e_curr

    completed = observed + (1.0 - mask) * (w @ h)
    dead_rows = ~(observed != 0).any(axis=1)
    dead_cols = ~(observed != 0).any(axis=0)
    if dead_rows.any() or dead_cols.any():
        logger.warning("fill_missing_weighted: %d rows / %d columns have no "
                       "nonzero observation; filled with 0",
                       int(dead_rows.sum()), int(dead_cols.sum()))
        completed[dead_rows, :] = np.where(mask[dead_rows, :] == 1.0,
                                           x[dead_rows, :], 0.0)
        completed[:, dead_cols] = np.where(mask[:, dead_cols] == 1.0,
                                           x[:, dead_cols], 0.0)
    return completed


def _check_finite(name, arr, iteration, snapshot):
    if not np.isfinite(arr).all():
        raise NumericalFailure(
            f"non-finite values in {name} block at outer iteration {iteration}",
            snapshot=snapshot)


def train(traffic, routing, config: TrainConfig):
    """Fit a FactorModel to (possibly gappy) traffic data.

    Returns (FactorModel, TrainReport).  The objective trace records the
    data-fit error after every outer iteration and never increases.
    """
    config.validate()
    if isinstance(traffic, np.ndarray):
        traffic = TrafficMatrix(traffic)
    x = traffic.entries
    mask = traffic.mask
    n, T = x.shape
    a = routing_array(routing)
    if a.shape[1] != n:
        raise ShapeError(f"routing has {a.shape[1]} columns, traffic has {n} rows")
    if not 1 <= config.rank <= min(n, T):
        raise ConfigError(f"rank must lie in [1, {min(n, T)}], got {config.rank}")
    if len(config.lag_set) > 0 and config.lag_set.max_lag >= T:
        raise ConfigError(
            f"max lag {config.lag_set.max_lag} must be < training length {T}")

    t0 = time.perf_counter()
    gappy = mask is not None and not mask.all()
    if config.missing_mode == "weighted_fill" and gappy:
        x = fill_missing_weighted(x, mask, config.rank)
        gappy = False
    em_active = config.missing_mode == "em_mask" and gappy

    x_init = mask * x if em_active else x
    w, h = init_factors_svd(x_init, config.rank)
    omega = init_lag_weights(h, config.lag_set)
    lam_t, lam_o = tune_penalties(x_init, w, h, omega, config.lag_set,
                                  config.beta_temporal, config.beta_ortho, a)
    weights = RegularizationWeights(
        lambda_temporal=lam_t, lambda_ortho=lam_o,
        beta_temporal=config.beta_temporal, beta_ortho=config.beta_ortho)

    x_work = em_mask_step(x, mask, w, h) if em_active else x
    trace = [_frob2(x_work - w @ h)]
    wall_ms = [0.0]
    eps_min = config.delta * trace[0]
    counts = {b: [] for b in BLOCKS}

    for q in range(1, config.q_max + 1):
        if em_active:
            x_work = em_mask_step(x, mask, w, h)
        snapshot = {"spatial": w, "latent": h, "ar_weights": omega,
                    "iteration": q}
        w, iters = _update_spatial(x_work, w, h, weights, a,
                                   config.q_block_max,
                                   config.block_delta("spatial"))
        _check_finite("spatial", w, q, snapshot)
        counts["spatial"].append(iters)

        h, iters = _update_latent(x_work, w, h, omega, config.lag_set, weights,
                                  config.q_block_max,
                                  config.block_delta("latent"))
        _check_finite("latent", h, q, snapshot)
        counts["latent"].append(iters)

        if weights.lambda_temporal > 0 and len(config.lag_set) > 0:
            omega, iters = _update_ar(h, omega, config.lag_set,
                                      weights.lambda_temporal,
                                      config.q_block_max,
                                      config.block_delta("ar"))
            _check_finite("ar_weights", omega, q, snapshot)
            counts["ar"].append(iters)
        else:
            counts["ar"].append(0)

        trace.append(_frob2(x_work - w @ h))
        wall_ms.append((time.perf_counter() - t0) * 1000.0)
        eps = trace[-2] - trace[-1]
        if not (eps < 0.0 or eps >= eps_min):
            break

    model = FactorModel.from_factors(w, h, omega, config.lag_set, a)
    report = TrainReport(
        objective_trace=trace,
        block_iteration_counts=counts,
        final_penalties=(lam_t, lam_o),
        wall_time=time.perf_counter() - t0,
        iteration_wall_ms=wall_ms,
    )
    return model, report
