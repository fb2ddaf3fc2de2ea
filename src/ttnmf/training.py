"""Block-coordinate training with restarted accelerated projected gradients."""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (ConfigError, NumericalFailure, ShapeError, UsageError,
                     ValidationError, integer, real)
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
# outer iterations of train, read at each call
Q_MAX = 50
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
    """Settings of a train() call; the loop caps and tolerances are the
    module constants Q_MAX, Q_BLOCK_MAX, DELTA and BLOCK_DELTAS."""

    rank: int
    lag_set: LagSet = LagSet()
    beta_temporal: float = 0.2
    beta_ortho: float = 0.2

    def __post_init__(self):
        rank = integer("rank", self.rank)
        if rank < 1:
            raise ConfigError(f"rank must be >= 1, got {rank}")
        for name in ("beta_temporal", "beta_ortho"):
            b = real(name, getattr(self, name))
            if not 0.0 <= b <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {b}")


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
    "q_max", after Q_MAX outer iterations.
    """

    objective_trace: list
    block_iteration_counts: dict
    wall_time: float
    iteration_wall_ms: list = field(default_factory=list)
    stop_reason: str = "q_max"
    temporal_trace: list = field(default_factory=list)
    ortho_trace: list = field(default_factory=list)

    @property
    def n_iterations(self) -> int:
        return len(self.objective_trace) - 1

    @property
    def penalized_trace(self) -> list:
        return [fit + temporal + ortho for fit, temporal, ortho in zip(
            self.objective_trace, self.temporal_trace, self.ortho_trace)]


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
    """(start, grad, err, lip) of one block: its iterate in `model`, and the
    loop's triple with the other blocks held at `model` and under its
    weights; the AR block acts on model.ar_weights.T."""
    w, h, weights = model.spatial, model.latent, model.weights
    if block == "spatial":
        return w, *_spatial_block(x, h, weights, model.routing)
    if block == "latent":
        return h, *_latent_block(x, w, model.ar_weights, model.lag_set, weights)
    if block == "ar":
        return (model.ar_weights.T,
                *_ar_block(h, model.lag_set, weights.lambda_temporal))
    raise UsageError(f"unknown block {block!r}")


def block_gradient(block: str, x, model: FactorModel) -> np.ndarray:
    """Analytic gradient of the full objective with respect to one block."""
    start, grad, _, _ = _block(block, np.asarray(x, dtype=float), model)
    g = grad(start)
    return g.T if block == "ar" else g


def _update_spatial(x, model):
    """(W, iterations)."""
    return _nesterov_loop(*_block("spatial", x, model), Q_BLOCK_MAX,
                          rel_tol=BLOCK_DELTAS["spatial"])


def _update_latent(x, model):
    """(H, iterations, the block's Gram-form data fit at H)."""
    h0, grad, err, lip = _block("latent", x, model)
    h, n = _nesterov_loop(h0, grad, err, lip, Q_BLOCK_MAX,
                          rel_tol=BLOCK_DELTAS["latent"])
    return h, n, err(h)


def _update_ar(x, model):
    """(Omega, passes of the one AR loop over all latent rows)."""
    omega_t, n = _nesterov_loop(*_block("ar", x, model), Q_BLOCK_MAX,
                                rel_tol=BLOCK_DELTAS["ar"])
    return np.ascontiguousarray(omega_t.T), n


def tune_penalties(model: FactorModel, fit: float, beta_temporal: float,
                   beta_ortho: float):
    """Scale the penalty weights against the data fit at the seed.

    Returns (lambda_t, lambda_o), each lambda = beta * fit / den, where fit
    is the data fit ||X - W0 H0||_F^2 of the seed `model`.  For the
    orthogonality term den is ortho_penalty_value of model.compact_routing;
    for the temporal term it is the AR block's err at model.ar_weights
    summed over rows, the Gram form of the full-length residual
    sum_p ||h_p - w_p design_p||^2 with the design zero-padded before
    max_lag and no factor 1/2 (not temporal_penalty_value).  A den below
    1e-15 of a sum of squares in its own units zeroes the lambda with a
    warning: the temporal den is measured against sum_p ||h_p||^2 of
    model.latent, so the cut-off does not move with the traffic unit, and
    the orthogonality den against fit.
    """
    def ratio(beta, den, scale, name):
        if beta == 0.0:
            return 0.0
        if den <= 1e-15 * scale:
            logger.warning("penalty %s disabled: denominator %.3e vanishes "
                           "against %.3e", name, den, scale)
            return 0.0
        return beta * fit / den

    if len(model.lag_set) == 0:
        if beta_temporal > 0:
            logger.info("empty lag set: temporal penalty disabled")
        lam_t = 0.0
    else:
        start, _, err, _ = _block("ar", None, model)
        lam_t = ratio(beta_temporal, float(np.sum(err(start))),
                      float(np.sum(model.latent ** 2)), "temporal")
    den_o = ortho_penalty_value(model.compact_routing)
    lam_o = ratio(beta_ortho, den_o, fit, "orthogonality")
    return lam_t, lam_o


def em_mask_step(x, mask, spatial, latent) -> np.ndarray:
    """Fill unobserved entries with the current model prediction."""
    x = np.asarray(x, dtype=float)
    mask = np.asarray(mask, dtype=float)
    if mask.shape != x.shape:
        raise ShapeError(f"mask shape {mask.shape} != data shape {x.shape}")
    return mask * x + (1.0 - mask) * (spatial @ latent)


def _with_block(model, name, arr, snapshot):
    """model with its factor `name` replaced by arr; a non-finite arr raises
    NumericalFailure carrying the snapshot of the outer iteration's entry."""
    if not np.isfinite(arr).all():
        raise NumericalFailure(
            f"non-finite values in {name} block at outer iteration "
            f"{snapshot['iteration']}", snapshot=snapshot)
    return replace(model, **{name: arr})


def _outer_iteration(x, model, q):
    """Outer iteration q on `model`: W, H, then Omega if there is a temporal
    term, each checked for non-finite values.  Returns (model, data fit,
    block iterations), the data fit in the latent block's Gram form."""
    snapshot = {"spatial": model.spatial, "latent": model.latent,
                "ar_weights": model.ar_weights, "iteration": q}
    w, it_s = _update_spatial(x, model)
    model = _with_block(model, "spatial", w, snapshot)
    h, it_l, fit = _update_latent(x, model)
    model = _with_block(model, "latent", h, snapshot)
    it_a = 0
    if model.weights.lambda_temporal > 0 and len(model.lag_set) > 0:
        omega, it_a = _update_ar(x, model)
        model = _with_block(model, "ar_weights", omega, snapshot)
    return model, fit, (it_s, it_l, it_a)


def train(traffic, routing, config: TrainConfig):
    """Fit a FactorModel to (possibly gappy) traffic data.

    Returns (FactorModel, TrainReport).  Training steps one FactorModel: the
    SVD seed, validated by FactorModel.from_factors, then each block's
    result in turn; the returned model carries the routing and the penalty
    weights it was trained with.  The objective trace records the data-fit
    error after every outer iteration and never increases; it comes from the
    latent block's Gram products, so no iteration forms the n x T residual.
    Training stops at Q_MAX, or once the penalized objective F falls by less
    than DELTA * F of the previous iteration; a rise of F never stops it.
    A mask with an unobserved cell trains by EM imputation: from an SVD seed
    of mask o X, every outer iteration fits X with those cells filled from
    the current W H (em_mask_step), EM_WARMUP_ITERS penalty-free ones with
    zero AR weights before the penalties are tuned, so the values in
    unobserved cells never matter.  Traffic with no nonzero observed cell
    has nothing to fit and raises ValidationError.
    """
    if isinstance(traffic, np.ndarray):
        traffic = TrafficMatrix(traffic)
    x = traffic.entries
    mask = traffic.mask
    n, T = x.shape
    a = routing_array(routing)
    if a.shape[1] != n:
        raise ShapeError(f"routing has {a.shape[1]} columns, traffic has {n} rows")
    lag_set = config.lag_set
    if len(lag_set) > 0 and lag_set.max_lag >= T:
        raise ConfigError(
            f"max lag {lag_set.max_lag} must be < training length {T}")

    gappy = mask is not None and not mask.all()
    observed = mask * x if gappy else x
    if not observed.any():
        raise ValidationError("traffic has no nonzero observed cell")
    t0 = time.perf_counter()
    w, h = init_factors_svd(observed, config.rank)
    # a non-finite seed raises ValidationError
    model = FactorModel.from_factors(
        w, h, np.zeros((config.rank, len(lag_set))), lag_set, a)
    if gappy:
        # penalties tuned at the zero-filled seed come out far too strong,
        # so tune them after a penalty-free warm-up on the EM-filled data
        for q in range(1, EM_WARMUP_ITERS + 1):
            x_work = em_mask_step(x, mask, model.spatial, model.latent)
            model = _outer_iteration(x_work, model, q)[0]
    x_work = em_mask_step(x, mask, model.spatial, model.latent) if gappy else x
    model = replace(model, ar_weights=init_lag_weights(model.latent, lag_set))
    # the seed's data fit, shared by the penalty scale and the trace
    fit = data_fit(x_work, model.spatial, model.latent)
    lam_t, lam_o = tune_penalties(model, fit, config.beta_temporal,
                                  config.beta_ortho)
    model = replace(model, weights=RegularizationWeights(
        lam_t, lam_o, config.beta_temporal, config.beta_ortho))
    temporal, ortho = penalty_terms(model)
    f = fit + temporal + ortho
    trace, t_trace, o_trace = [fit], [temporal], [ortho]
    wall_ms = [0.0]
    counts = {b: [] for b in BLOCKS}
    stop_reason = "q_max"

    for q in range(1, Q_MAX + 1):
        if gappy and q > 1:  # q = 1 fits the fill that the seed fit used
            x_work = em_mask_step(x, mask, model.spatial, model.latent)
        model, fit, iters = _outer_iteration(x_work, model, q)
        for b, n_b in zip(BLOCKS, iters):
            counts[b].append(n_b)
        temporal, ortho = penalty_terms(model)
        trace.append(fit)
        t_trace.append(temporal)
        o_trace.append(ortho)
        wall_ms.append((time.perf_counter() - t0) * 1000.0)
        f_prev, f = f, fit + temporal + ortho
        if 0.0 <= f_prev - f < DELTA * f_prev:
            stop_reason = "converged"
            break

    return model, TrainReport(
        trace, counts, time.perf_counter() - t0, wall_ms,
        stop_reason=stop_reason, temporal_trace=t_trace, ortho_trace=o_trace)
