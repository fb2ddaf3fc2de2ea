"""OD flow estimation from a window of link loads."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalFailure, ShapeError, integer, real
from .factors import (FactorModel, LagSet, routing_array,
                      temporal_penalty_value)
from .network import LinkFlowMatrix
from .training import _latent_block, _nesterov_loop

logger = logging.getLogger(__name__)

# window fit steps on the Jacobi-scaled rows: on the benchmark's inputs 100
# of them reach a lower penalized objective than 200 steps on unscaled rows;
# error changes below WINDOW_NOISE ||Y||^2 are rounding
WINDOW_ITERS = 100
WINDOW_NOISE = 1e-13


@dataclass(frozen=True)
class EstimatorConfig:
    """Iteration limit and stop threshold of the EM refinement."""

    r_max_em: int = 200
    delta_em: float = 1e-9

    def __post_init__(self):
        if (integer("r_max_em", self.r_max_em) < 0
                or not 0.0 < real("delta_em", self.delta_em) < np.inf):
            raise ConfigError(
                "need r_max_em >= 0 and a finite delta_em > 0")


def estimate_latent(link_flows, model: FactorModel) -> np.ndarray:
    """Fit H >= 0 to a window Y of link flows (links x T).

    The training latent block with C = A W for W and Y for X, under the
    trained AR weights and lambda_t, solved for the Jacobi-scaled rows G = D H
    with D = diag(||c_p||) (1 for a zero column c_p): the data term uses
    C D^-1 and row p's temporal term lambda_t / d_p^2, so the problem and its
    nonnegativity are the same and the loop sees a far smaller condition
    number.  It runs from D max(lstsq(C, Y), 0) for WINDOW_ITERS steps unless
    the fit reaches 0, and returns D^-1 times the step of best data fit,
    which fits Y no worse than the clipped least-squares start, up to
    WINDOW_NOISE ||Y||^2; raises NumericalFailure if ||Y||^2, D or lip
    overflows.  Windows of max_lag columns or fewer have no AR
    residual, so each column is fitted as it would be alone.  At info level
    it logs the steps, the relative data fit ||Y - C H||^2 / ||Y||^2, the
    penalized objective and the gradient-mapping ratio of the result to the
    start.
    """
    y = np.asarray(link_flows, dtype=float)
    compact = model.compact_routing
    if y.ndim != 2:
        raise ShapeError("link flows must be 2-D (links x timestamps)")
    if y.shape[0] != compact.shape[0]:
        raise ShapeError(f"link flows have {y.shape[0]} rows, compact "
                         f"routing has {compact.shape[0]}")
    if not compact.any():
        logger.warning("compact routing matrix is all zero; returning H = 0")
        return np.zeros((compact.shape[1], y.shape[1]))
    h0 = np.maximum(np.linalg.lstsq(compact, y, rcond=None)[0], 0.0)
    lag_set = model.lag_set if y.shape[1] > model.lag_set.max_lag else LagSet()
    with np.errstate(over="ignore", invalid="ignore"):
        d, grad, err, lip = _scaled_block(y, compact, model, lag_set)
        yy = float(np.vdot(y, y))
    if not (np.isfinite(d).all() and np.isfinite(lip) and np.isfinite(yy)):
        raise NumericalFailure("window fit: ||Y||^2, the column norms of A W "
                               "or the step bound overflow float64")
    g0 = d[:, None] * h0
    g, iters = _nesterov_loop(g0, grad, err, lip, WINDOW_ITERS,
                              noise=WINDOW_NOISE)
    h = g / d[:, None]
    if logger.isEnabledFor(logging.INFO):
        fit = float(np.sum(err(g)))
        penalty = model.weights.lambda_temporal * temporal_penalty_value(
            h, model.ar_weights, lag_set, "residual")
        logger.info("window fit: %d columns, %d iterations%s, data fit %.6e "
                    "of ||Y||^2, penalized objective %.6e, gradient mapping "
                    "%.3e of the start's", y.shape[1], iters,
                    " (cap reached)" if iters == WINDOW_ITERS else "",
                    fit / max(yy, 1e-300), fit + penalty,
                    _mapping_norm(g, grad, lip)
                    / max(_mapping_norm(g0, grad, lip), 1e-300))
    return h


def _scaled_block(y, compact, model, lag_set):
    """(d, grad, err, lip) of the window fit over G = D H, D = diag(d).

    d holds the column norms of C = compact, 1 for a zero column.  The block
    is the latent block of C D^-1 with row p's temporal term weighted by
    lambda_t / d_p^2: its data fit at G is that of H = D^-1 G, and its
    gradient is D^-1 times H's.
    """
    d = np.linalg.norm(compact, axis=0)
    d[d == 0.0] = 1.0
    return (d, *_latent_block(y, compact / d, model.ar_weights, lag_set,
                              model.weights, by_column=True,
                              row_weight=1.0 / d ** 2))


def _mapping_norm(b, grad, lip) -> float:
    """||b - max(b - grad(b) / lip, 0)||: 0 exactly at a minimizer over b >= 0."""
    return float(np.linalg.norm(b - np.maximum(b - grad(b) / lip, 0.0)))


def refine_em(x0, link_flows, routing,
              config: EstimatorConfig = EstimatorConfig()) -> np.ndarray:
    """Multiplicative EM refinement of OD flows against Y = A X.

    x0 and link_flows are vectors or one column per timestamp; a column stops
    once its move is below delta_em ||x0||^2.  Columns of A with zero sum are
    held fixed; a zero denominator on a link with positive load is floored at
    1e-12 (and logged once per call).  The update is scale-equivariant and
    leaves exact solutions of A x = y unchanged.  Neither x0 nor link_flows
    is modified.  Logs at info level the steps run and the steps per column.
    """
    a = routing_array(routing)
    vector = np.ndim(x0) == 1
    # a copy: the loop overwrites x, and stopped columns are written into it
    x = np.array(x0, dtype=float).reshape(len(x0), -1)
    y = np.asarray(link_flows, dtype=float).reshape(len(link_flows), -1)
    if a.shape != (y.shape[0], x.shape[0]) or x.shape[1] != y.shape[1]:
        raise ShapeError(f"routing {a.shape}, flows {x.shape} and link flows "
                         f"{y.shape} do not match")
    col = a.sum(axis=0)
    fixed = col == 0
    col_div = np.where(fixed, 1.0, col)[:, None]
    eps = config.delta_em * np.einsum("ij,ij->j", x, x)
    # the columns cols of x still move; xa and ya hold them, eps their limits
    cols, xa, ya = np.arange(x.shape[1]), x, y
    col_steps = np.full(x.shape[1], config.r_max_em)
    floored = steps = 0
    while cols.size and steps < config.r_max_em:
        steps += 1
        ax = a @ xa
        zero = ax == 0.0
        hit = zero & (ya > 0)
        if hit.any():
            floored = max(floored, int(hit.sum(axis=0).max()))
        ax[zero] = 1e-12
        x_new = a.T @ np.divide(ya, ax, out=ax)
        del ax, zero, hit
        x_new[fixed] = 1.0  # x * 1 / 1: unrouted flows stay exactly as they are
        x_new *= xa
        x_new /= col_div
        xa -= x_new  # the move; on the first step this overwrites x
        keep = np.einsum("ij,ij->j", xa, xa) >= eps
        del xa
        if keep.all():
            xa = x_new
        else:
            stop = ~keep
            x[:, cols[stop]] = x_new[:, stop]
            col_steps[cols[stop]] = steps
            xa, ya = x_new[:, keep], ya[:, keep]
            eps, cols = eps[keep], cols[keep]
        del x_new
    x[:, cols] = xa
    logger.info("refine_em: %d columns, %d steps, per column median %g and "
                "max %d, %d still moving at r_max_em", x.shape[1], steps,
                np.median(col_steps) if col_steps.size else 0,
                col_steps.max(initial=0), cols.size)
    if floored:
        logger.warning("refine_em: up to %d links of a column had zero "
                       "predicted load but positive observation; denominator "
                       "floored", floored)
    return x[:, 0] if vector else x


def estimate_od_flows(link_flows, model: FactorModel,
                      config: EstimatorConfig = EstimatorConfig()) -> np.ndarray:
    """The latent window fit, then EM refinement of W H against the model's
    routing, for links x T.

    Raises ValidationError naming the first negative or non-finite link-flow
    cell, and NumericalFailure if an estimate is not finite.
    """
    y = LinkFlowMatrix(getattr(link_flows, "entries", link_flows)).entries
    x = refine_em(model.spatial @ estimate_latent(y, model), y, model.routing,
                  config)
    bad = ~np.isfinite(x).all(axis=0)
    if bad.any():
        raise NumericalFailure(f"non-finite OD flow estimates in "
                               f"{int(bad.sum())} of {x.shape[1]} columns")
    return x


def estimate_od_flow(link_flows, model: FactorModel,
                     config: EstimatorConfig = EstimatorConfig()) -> np.ndarray:
    """estimate_od_flows on a window of one column."""
    return estimate_od_flows(np.reshape(link_flows, (-1, 1)), model,
                             config)[:, 0]
