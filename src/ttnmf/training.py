"""Block-coordinate training with restarted accelerated projected gradients."""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalFailure, ShapeError, UsageError
from .factors import (FactorModel, LagSet, RegularizationWeights,
                      ar_normal_equations, build_temporal_graph, data_fit,
                      ortho_penalty_value, penalty_terms, routing_array,
                      temporal_penalty_gradient)
# build_temporal_graph is the paper-form oracle; training never calls it, and
# it stays importable here so that bench/tracing.py can count calls to it
from .initialization import init_factors_svd, init_lag_weights
from .network import TrafficMatrix

logger = logging.getLogger(__name__)

BLOCKS = ("spatial", "latent", "ar")
# inner iterations of each block per outer iteration
Q_BLOCK_MAX = 10
# training stops once the penalized objective F falls by less than DELTA * F
DELTA = 1e-3
# a block's loop stops once a step lowers its error by less than this share of
# the error it entered with
BLOCK_DELTAS = {"spatial": 1e-3, "latent": 1e-3, "ar": 1e-5}
# penalty-free outer iterations on EM-filled gappy data before tune_penalties
EM_WARMUP_ITERS = 10


@dataclass(frozen=True)
class TrainConfig:
    """Settings of a train() call; the loop tolerances are the module
    constants Q_BLOCK_MAX, DELTA and BLOCK_DELTAS."""

    rank: int
    lag_set: LagSet = LagSet()
    beta_temporal: float = 0.2
    beta_ortho: float = 0.2
    q_max: int = 50

    def __post_init__(self):
        if self.rank < 1:
            raise ConfigError(f"rank must be >= 1, got {self.rank}")
        for name in ("beta_temporal", "beta_ortho"):
            b = getattr(self, name)
            if not 0.0 <= b <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {b}")
        if self.q_max < 1:
            raise ConfigError(f"q_max must be >= 1, got {self.q_max}")


@dataclass
class TrainReport:
    """What happened during a train() call.

    objective_trace holds the data fit, temporal_trace and ortho_trace the
    weighted penalty terms and penalized_trace their sum, the penalized
    objective, at the seed and after every outer iteration; the data fit is
    ||X - W H||^2 at the seed and the latent block's Gram form after that.
    block_iteration_counts holds each block's inner iterations per outer
    iteration; for the AR block these are passes of its one loop over all
    latent rows, the most that any row took.  stop_reason is "converged" or
    "q_max".
    """

    objective_trace: list
    block_iteration_counts: dict
    wall_time: float
    iteration_wall_ms: list = field(default_factory=list)
    penalized_trace: list = field(default_factory=list)
    stop_reason: str = "q_max"
    temporal_trace: list = field(default_factory=list)
    ortho_trace: list = field(default_factory=list)

    @property
    def n_iterations(self) -> int:
        return len(self.objective_trace) - 1


def _frob2(a) -> float:
    return float(np.vdot(a, a))


def _norm2(a) -> float:
    """Spectral norm of a small dense matrix."""
    return float(np.linalg.norm(a, 2))


def next_momentum(alpha):
    """Accelerated-gradient momentum schedule (elementwise on arrays)."""
    sqrt = math.sqrt if isinstance(alpha, float) else np.sqrt
    return 0.5 * (1.0 + sqrt(4.0 * alpha * alpha + 1.0))


def _nesterov_loop(b0, grad, err, lip, q_max, rel_tol=None, noise=0.0):
    """Restarted accelerated projected descent on one block.

    grad() is evaluated at the extrapolated point, err at the main iterate.
    An error rise above noise * err(0) restarts the momentum from the best
    iterate, so errors that differ by rounding take the same steps, and the
    result measures at most that slack above the entry point.  An err with
    one value per column, of a block that separates over columns, gives each
    column its own momentum, restarts and stop.  A restart of a step that
    began at the best iterate stops its column, since every later step would
    repeat it.  Without rel_tol the loop stops only at q_max, an error of 0
    or such a restart.  Returns (best iterate, iterations).
    """
    e_prev = err(b0)
    columns = np.ndim(e_prev) > 0
    where = np.where if columns else (lambda m, x, y: x if m else y)
    any_, minimum = (np.any, np.minimum) if columns else (bool, min)
    eps_min = rel_tol * e_prev if rel_tol is not None else -np.inf
    slack = noise * err(np.zeros_like(b0)) if noise else 0.0
    step = 1.0 / lip
    b = c = b_best = b0
    e_best = e_prev
    alpha_prev = np.ones_like(e_prev) if columns else 1.0
    active = np.ones_like(e_prev, dtype=bool) if columns else True
    n = 0
    while n < q_max:
        active = active & (e_best != 0.0)
        if not any_(active):
            break
        n += 1
        alpha = next_momentum(alpha_prev)
        b_new = np.maximum(c - step * grad(c), 0.0)
        c = b_new + ((alpha_prev - 1.0) / alpha) * (b_new - b)
        e_curr = err(b_new)
        eps = e_prev - e_curr
        restart = eps < -slack
        if any_(restart):
            c = where(restart, b_best, c)
            alpha = where(restart, 1.0, alpha)
            e_curr = where(restart, e_prev, e_curr)
        better = active & (eps >= -slack) & (e_curr <= e_best + slack)
        if any_(better):
            b_best = where(better, b_new, b_best)
            e_best = where(better, minimum(e_curr, e_best), e_best)
        b = b_new
        # a restart on a step that began at the best iterate (alpha_prev 1:
        # the first step, or the one after a restart) would repeat that step
        # to q_max, so it stops the column instead
        active = active & where(restart, alpha_prev != 1.0, eps >= eps_min)
        alpha_prev = alpha
        e_prev = e_curr
    return b_best, n


def _positive(lip):
    """Step-size denominators, 1.0 where the curvature vanishes (elementwise):
    below the smallest normal float, whose reciprocal step would overflow."""
    return np.where(lip >= np.finfo(float).tiny, lip, 1.0)


def _spatial_block(x, h, weights, a):
    """(grad, err, lip) of the spatial block with H fixed.

    err is the data fit ||X||^2 + <B, B H H^T - 2 X H^T>, taken from the Gram
    products so that no step forms the n x T residual; it differs from
    ||X - B H||^2 by rounding of order eps ||X||^2 and is clamped at 0.
    lip = 2||H H^T||_2 bounds the data-fit curvature only, not that of the
    quartic orthogonality term.
    """
    hht = h @ h.T
    xht = x @ h.T
    xx = _frob2(x)
    lam = weights.lambda_ortho
    eye = np.eye(h.shape[0])

    def grad(c):
        g = 2.0 * (c @ hht - xht)
        if lam > 0:
            compact = a @ c
            g += 4.0 * lam * (a.T @ (compact @ (compact.T @ compact - eye)))
        return g

    def err(b):
        return max(xx + float(np.vdot(b, b @ hht - 2.0 * xht)), 0.0)

    return grad, err, _positive(2.0 * _norm2(hht))


def _latent_block(x, w, omega, lag_set, weights, by_column=False,
                  row_weight=None):
    """(grad, err, lip) of the latent block with W and the AR weights fixed.

    err is the data fit ||X||^2 + <B, W^T W B - 2 W^T X> from the Gram
    products, clamped at 0 like the spatial block's; with by_column and no
    temporal term, where the block separates over columns, it is the data fit
    of each column.  The temporal term of row p is weighted by lambda_t, or
    by lambda_t row_weight[p] when row_weight is given.  The temporal Hessian
    is block-diagonal over rows, with blocks M_p^T M_p for the AR residual
    operator M_p of row p, and ||M_p||_2 <= 1 + sum_l |w_p(l)|; so lip =
    2||W^T W||_2 + max_p (weight of row p) (1 + sum_l |w_p(l)|)^2 is a valid
    bound.
    """
    wtw = w.T @ w
    wtx = w.T @ x
    lam = weights.lambda_temporal if len(lag_set) > 0 else 0.0
    temporal = lam > 0
    if temporal and row_weight is not None:
        lam = lam * np.asarray(row_weight, dtype=float)[:, None]
    per_column = by_column and not temporal
    xx = np.einsum("ij,ij->j", x, x) if per_column else _frob2(x)
    lip = 2.0 * _norm2(wtw)
    if temporal:
        # for a scalar lam this is lam * max_p(...) exactly: rounding is
        # monotone, so the max commutes with the product
        lip += float(np.max(
            lam * ((1.0 + np.abs(omega).sum(axis=1)) ** 2)[:, None]))

    def grad(c):
        g = 2.0 * (wtw @ c - wtx)
        if temporal:
            g += lam * temporal_penalty_gradient(c, omega, lag_set)
        return g

    def err(b):
        q = wtw @ b - 2.0 * wtx
        if per_column:
            return np.maximum(xx + np.einsum("ij,ij->j", b, q), 0.0)
        return max(xx + float(np.vdot(b, q)), 0.0)

    return grad, err, _positive(lip)


def _ar_block(h, lag_set, lam):
    """(grad, err, lip) of the AR weights with H fixed, on Omega^T.

    The block separates over latent rows: column p of the len(lag_set) x k
    iterate holds row p's weights w_p, and err and lip hold one value per
    row, so _nesterov_loop gives each row its own step, momentum, restarts
    and stop.  With D_p row p's lag design (lag_designs), G_p = D_p D_p^T and
    t_p = D_p h_p^T, column p of the gradient is lambda_t (G_p w_p - t_p),
    lip is lambda_t ||G_p||_2 and err is the full-length AR residual
    ||h_p - w_p D_p||^2, zero-padded prefix included, from the Grams:
    ||h_p||^2 + <w_p, G_p w_p - 2 t_p>, clamped at 0 like the other blocks'.
    G, t and ||h_p||^2 come from ar_normal_equations.
    """
    grams, targets, hh = ar_normal_equations(h, lag_set)
    targets = targets.T
    # one stacked SVD; each row's largest value is its ||G_p||_2, and 0 for
    # an empty lag set
    norms = np.linalg.svd(grams, compute_uv=False).max(axis=1, initial=0.0)

    def grad(c):
        return lam * (np.einsum("pij,jp->ip", grams, c) - targets)

    def err(b):
        q = np.einsum("pij,jp->ip", grams, b) - 2.0 * targets
        return np.maximum(hh + np.einsum("ip,ip->p", b, q), 0.0)

    return grad, err, _positive(lam * norms)


def _block(block, x, model):
    """(grad, err, lip) of one block, the other blocks held at `model` and
    under its weights; the AR block acts on model.ar_weights.T."""
    weights = model.weights
    if block == "spatial":
        return _spatial_block(x, model.latent, weights, model.routing)
    if block == "latent":
        return _latent_block(x, model.spatial, model.ar_weights, model.lag_set,
                             weights)
    if block == "ar":
        return _ar_block(model.latent, model.lag_set, weights.lambda_temporal)
    raise UsageError(f"unknown block {block!r}")


def block_gradient(block: str, x, model: FactorModel) -> np.ndarray:
    """Analytic gradient of the full objective with respect to one block."""
    grad = _block(block, np.asarray(x, dtype=float), model)[0]
    if block == "ar":
        return grad(model.ar_weights.T).T
    return grad(model.spatial if block == "spatial" else model.latent)


def _update_spatial(x, w, h, weights, a, q_max, delta):
    return _nesterov_loop(w, *_spatial_block(x, h, weights, a), q_max,
                          rel_tol=delta)


def _update_latent(x, w, h, omega, lag_set, weights, q_max, delta):
    """(H, iterations, the block's Gram-form data fit at H)."""
    grad, err, lip = _latent_block(x, w, omega, lag_set, weights)
    h, n = _nesterov_loop(h, grad, err, lip, q_max, rel_tol=delta)
    return h, n, err(h)


def _update_ar(h, omega, lag_set, lam, q_max, delta):
    """(Omega, passes of the one AR loop over all latent rows)."""
    omega_t, n = _nesterov_loop(omega.T, *_ar_block(h, lag_set, lam), q_max,
                                rel_tol=delta)
    return np.ascontiguousarray(omega_t.T), n


def tune_penalties(x, spatial0, latent0, ar0, lag_set: LagSet,
                   beta_temporal: float, beta_ortho: float, routing, *,
                   seed_fit=None):
    """Scale the penalty weights against the data fit at the seed.

    lambda = beta * ||X - W0 H0||_F^2 / den.  For the orthogonality term den
    is ortho_penalty_value(A W0); for the temporal term it is the AR block's
    err summed over rows, the Gram form of the full-length residual
    sum_p ||h_p - w_p design_p||^2 with the design zero-padded before
    max_lag and no factor 1/2 (not temporal_penalty_value).  A den below
    1e-15 of the numerator zeroes the lambda with a warning.  seed_fit, when
    given, is the numerator ||X - W0 H0||_F^2, which the caller has already
    computed.
    """
    x = np.asarray(x, dtype=float)
    a = routing_array(routing)
    num = data_fit(x, spatial0, latent0) if seed_fit is None else seed_fit

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
        den_t = float(np.sum(_ar_block(latent0, lag_set, 1.0)[1](ar0.T)))
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


def _check_finite(name, arr, iteration, snapshot):
    if not np.isfinite(arr).all():
        raise NumericalFailure(
            f"non-finite values in {name} block at outer iteration {iteration}",
            snapshot=snapshot)


def _outer_iteration(x, w, h, omega, weights, a, config, q):
    """Outer iteration q: W, H, then Omega if there is a temporal term, each
    checked for non-finite values.  Returns (w, h, omega, data fit, block
    iterations), the data fit in the latent block's Gram form."""
    snapshot = {"spatial": w, "latent": h, "ar_weights": omega, "iteration": q}
    w, it_s = _update_spatial(x, w, h, weights, a, Q_BLOCK_MAX,
                              BLOCK_DELTAS["spatial"])
    _check_finite("spatial", w, q, snapshot)
    h, it_l, fit = _update_latent(x, w, h, omega, config.lag_set, weights,
                                  Q_BLOCK_MAX, BLOCK_DELTAS["latent"])
    _check_finite("latent", h, q, snapshot)
    it_a = 0
    if weights.lambda_temporal > 0 and len(config.lag_set) > 0:
        omega, it_a = _update_ar(h, omega, config.lag_set,
                                 weights.lambda_temporal, Q_BLOCK_MAX,
                                 BLOCK_DELTAS["ar"])
        _check_finite("ar_weights", omega, q, snapshot)
    return w, h, omega, fit, (it_s, it_l, it_a)


def train(traffic, routing, config: TrainConfig):
    """Fit a FactorModel to (possibly gappy) traffic data.

    Returns (FactorModel, TrainReport); the model carries the penalty weights
    it was trained with.  The objective trace records the data-fit error
    after every outer iteration and never increases; it comes from the
    latent block's Gram products, so no iteration forms the n x T residual.
    Training stops at q_max, or once the penalized objective F falls by less
    than DELTA * F of the previous iteration; a rise of F never stops it.
    A mask with an unobserved cell trains by EM imputation: from an SVD seed
    of mask o X, every outer iteration fits X with those cells filled from
    the current W H (em_mask_step), EM_WARMUP_ITERS penalty-free ones before
    the penalties are tuned, so the values in unobserved cells never matter.
    """
    if isinstance(traffic, np.ndarray):
        traffic = TrafficMatrix(traffic)
    x = traffic.entries
    mask = traffic.mask
    n, T = x.shape
    a = routing_array(routing)
    if a.shape[1] != n:
        raise ShapeError(f"routing has {a.shape[1]} columns, traffic has {n} rows")
    if len(config.lag_set) > 0 and config.lag_set.max_lag >= T:
        raise ConfigError(
            f"max lag {config.lag_set.max_lag} must be < training length {T}")

    gappy = mask is not None and not mask.all()
    t0 = time.perf_counter()
    w, h = init_factors_svd(mask * x if gappy else x, config.rank)
    if gappy:
        # penalties tuned at the zero-filled seed come out far too strong,
        # so tune them after a penalty-free warm-up on the EM-filled data
        for q in range(1, EM_WARMUP_ITERS + 1):
            w, h, _, _, _ = _outer_iteration(
                em_mask_step(x, mask, w, h), w, h, None,
                RegularizationWeights(), a, config, q)
    x_work = em_mask_step(x, mask, w, h) if gappy else x
    omega = init_lag_weights(h, config.lag_set)
    # the seed's data fit, shared by the penalty scale and the trace
    fit = data_fit(x_work, w, h)
    lam_t, lam_o = tune_penalties(x_work, w, h, omega, config.lag_set,
                                  config.beta_temporal, config.beta_ortho, a,
                                  seed_fit=fit)
    weights = RegularizationWeights(lam_t, lam_o, config.beta_temporal,
                                    config.beta_ortho)

    def model_at(w, h, omega):
        return FactorModel.from_factors(w, h, omega, config.lag_set, a, weights)

    model_at(w, h, omega)   # a non-finite seed raises ValidationError
    temporal, ortho = penalty_terms(w, h, omega, config.lag_set, weights, a)
    trace, f_trace = [fit], [fit + temporal + ortho]
    t_trace, o_trace = [temporal], [ortho]
    wall_ms = [0.0]
    counts = {b: [] for b in BLOCKS}
    stop_reason = "q_max"

    for q in range(1, config.q_max + 1):
        if gappy:
            x_work = em_mask_step(x, mask, w, h)
        w, h, omega, fit, iters = _outer_iteration(x_work, w, h, omega,
                                                   weights, a, config, q)
        for b, n_b in zip(BLOCKS, iters):
            counts[b].append(n_b)
        temporal, ortho = penalty_terms(w, h, omega, config.lag_set, weights, a)
        trace.append(fit)
        f_trace.append(fit + temporal + ortho)
        t_trace.append(temporal)
        o_trace.append(ortho)
        wall_ms.append((time.perf_counter() - t0) * 1000.0)
        if 0.0 <= f_trace[-2] - f_trace[-1] < DELTA * f_trace[-2]:
            stop_reason = "converged"
            break

    return model_at(w, h, omega), TrainReport(
        trace, counts, time.perf_counter() - t0, wall_ms,
        penalized_trace=f_trace, stop_reason=stop_reason,
        temporal_trace=t_trace, ortho_trace=o_trace)
