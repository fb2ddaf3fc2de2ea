"""Per-timestamp OD flow estimation from link loads."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .factors import FactorModel, routing_array
from .training import _nesterov_loop, _norm2

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class EstimatorConfig:
    """Iteration limits for the latent fit and the EM refinement."""

    q_max_gd: int = 200
    r_max_em: int = 200
    delta_gd: float = 1e-3
    delta_em: float = 1e-9

    def __post_init__(self):
        if self.q_max_gd < 1 or self.r_max_em < 0:
            raise ConfigError("iteration limits must be positive")
        if self.delta_gd <= 0 or self.delta_em <= 0:
            raise ConfigError("stopping thresholds must be > 0")


def estimate_latent(link_flows, model: FactorModel,
                    config: EstimatorConfig = EstimatorConfig()) -> np.ndarray:
    """Fit the latent vector h >= 0 to one link-flow column.

    Seeds with the back projection C^T y and runs restarted accelerated
    projected descent on ||y - C h||^2 with step 1/(2 ||C^T C||_2); the
    result never fits worse than the seed.
    """
    y = np.asarray(link_flows, dtype=float).reshape(-1)
    compact = model.compact_routing
    if y.shape[0] != compact.shape[0]:
        raise ShapeError(
            f"link flows have {y.shape[0]} entries, compact routing has "
            f"{compact.shape[0]} rows")
    if not compact.any():
        logger.warning("compact routing matrix is all zero; returning h = 0")
        return np.zeros(compact.shape[1])
    h0 = compact.T @ y
    gram = compact.T @ compact
    cty = h0
    lip = 2.0 * _norm2(gram)  # hessian of err is 2 C^T C

    def grad(v):
        return 2.0 * (gram @ v - cty)

    def err(b):
        r = y - compact @ b
        return float(r @ r)

    eps_min = config.delta_gd * float(y @ y)
    h, _ = _nesterov_loop(h0, grad, err, lip, config.q_max_gd, abs_tol=eps_min)
    return h


def refine_em(x0, link_flows, routing,
              config: EstimatorConfig = EstimatorConfig()) -> np.ndarray:
    """Multiplicative EM refinement of an OD flow vector against y = A x.

    Columns of A with zero sum are held fixed; a zero denominator on a link
    with positive load is floored at 1e-12 (and logged once per call).  The
    update is scale-equivariant and leaves exact solutions of A x = y
    unchanged.
    """
    a = routing_array(routing)
    x = np.asarray(x0, dtype=float).reshape(-1).copy()
    y = np.asarray(link_flows, dtype=float).reshape(-1)
    if a.shape != (y.shape[0], x.shape[0]):
        raise ShapeError(
            f"routing shape {a.shape} != ({y.shape[0]}, {x.shape[0]})")
    col = a.sum(axis=0)
    fixed = col == 0
    col_div = np.where(fixed, 1.0, col)
    eps_min = config.delta_em * float(x @ x)
    loaded = y > 0
    floored = 0
    for _ in range(config.r_max_em):
        ax = a @ x
        zero = ax == 0.0
        hit = zero & loaded
        if hit.any():
            floored = max(floored, int(hit.sum()))
        ratio = y / np.where(zero, 1e-12, ax)
        x_new = np.where(fixed, x, x / col_div * (a.T @ ratio))
        move = x_new - x
        x = x_new
        if float(move @ move) < eps_min:
            break
    if floored:
        logger.warning("refine_em: up to %d links had zero predicted load but "
                       "positive observation; denominator floored", floored)
    return x


def estimate_od_flow(link_flows, model: FactorModel, routing,
                     config: EstimatorConfig = EstimatorConfig()) -> np.ndarray:
    """Estimate one OD flow column from one link-flow column."""
    h = estimate_latent(link_flows, model, config)
    x0 = model.spatial @ h
    return refine_em(x0, link_flows, routing, config)


def estimate_od_flows(link_flows, model: FactorModel, routing,
                      config: EstimatorConfig = EstimatorConfig()) -> np.ndarray:
    """Column-by-column estimation over a link-flow matrix."""
    y = getattr(link_flows, "entries", link_flows)
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        raise ShapeError("link flows must be 2-D")
    out = np.zeros((model.n_flows, y.shape[1]))
    for t in range(y.shape[1]):
        out[:, t] = estimate_od_flow(y[:, t], model, routing, config)
    return out
