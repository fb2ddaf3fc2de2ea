"""OD flow estimation from a window of link loads."""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import NumericalFailure, ShapeError
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
# EM refinement: a column stops once its move is below DELTA_EM ||x0||^2,
# and every column after R_MAX_EM steps; on the benchmark's inputs each
# column stops on DELTA_EM, within 50 steps
R_MAX_EM = 200
DELTA_EM = 1e-9


def estimate_latent(link_flows, model: FactorModel) -> np.ndarray:
    """Fit H >= 0 to a window Y of link flows (links x T).

    The training latent block with C = A W for W and Y for X, under the
    trained AR weights and lambda_t, solved for the Jacobi-scaled rows G = D H
    with D = diag(||c_p||) (1 for a zero column c_p): the data term uses
    C D^-1 and row p's temporal term lambda_t / d_p^2, so the problem and its
    nonnegativity are the same and the loop sees a far smaller condition
    number.  It runs from D max(lstsq(C, Y), 0) for WINDOW_ITERS steps, fewer
    if the fit reaches 0 or if a step from its best iterate raises the fit
    (a restart there would repeat itself, as in training's loops), and
    returns D^-1 times the step of best data fit, which fits Y no worse than
    the clipped least-squares start, up to WINDOW_NOISE ||Y||^2; raises
    NumericalFailure if ||Y||^2, D or lip overflows.  Windows of max_lag
    columns or fewer have no AR residual, so each column is fitted as it
    would be alone.  At info level it logs the steps, the relative data fit
    ||Y - C H||^2 / ||Y||^2, the penalized objective and the gradient-mapping
    ratio of the result to the start.
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


def refine_em(x0, link_flows, routing) -> np.ndarray:
    """Multiplicative EM refinement of OD flows against Y = A X.

    x0 and link_flows are vectors or one column per timestamp; a column stops
    once its move is below DELTA_EM ||x0||^2, or after R_MAX_EM steps; both
    are read when the call starts.  Columns of A with zero sum are held
    fixed; a zero denominator on a link with positive load is floored at
    1e-12 (and logged once per call).  The update is scale-equivariant and
    leaves exact solutions of A x = y unchanged.  Neither x0 nor link_flows
    is modified.  Logs at info level the steps run and the steps per column.

    The window is split at T // 2 into two fixed column halves that run at
    once: the right one on a worker thread that the call starts and joins,
    the left one on the calling thread; a call with one column starts no
    thread.  Each half runs its products at the BLAS thread count in force,
    one under the CLI (cli._pin_blas_threads).  The split depends on T
    alone, so the result depends only on the inputs, never on thread
    scheduling.  Every n x T and links x T work array is allocated here,
    before the worker starts, so the worker allocates only arrays of length
    at most T and numpy's fixed-size ufunc buffers.
    """
    a = routing_array(routing)
    vector = np.ndim(x0) == 1
    x0 = np.asarray(x0, dtype=float).reshape(len(x0), -1)
    y = np.asarray(link_flows, dtype=float).reshape(len(link_flows), -1)
    if a.shape != (y.shape[0], x0.shape[0]) or x0.shape[1] != y.shape[1]:
        raise ShapeError(f"routing {a.shape}, flows {x0.shape} and link "
                         f"flows {y.shape} do not match")
    (n, t), m = x0.shape, y.shape[0]
    r_max = R_MAX_EM  # read once, so both halves see one cap
    col = a.sum(axis=0)
    fixed = col == 0
    col_div = np.where(fixed, 1.0, col)[:, None]
    eps = DELTA_EM * np.einsum("ij,ij->j", x0, x0)
    x = np.empty((n, t))
    col_steps = np.full(t, r_max)
    # work arrays, flat, for both halves: the moving columns of x and y in
    # two buffers each (compaction takes from one into the other), A x and
    # the GEMM output X_new, and the masks of zero and floored loads
    rows, dtypes = (n, n, m, m, m, m, m), (float,) * 5 + (bool,) * 2
    flat = [np.empty(r * t, dtype) for r, dtype in zip(rows, dtypes)]
    halves = []
    for lo, hi in ((0, t // 2), (t // 2, t)):
        if hi > lo:
            work = [buf[r * lo:r * hi] for buf, r in zip(flat, rows)]
            halves.append((a, fixed, col_div, r_max, x0[:, lo:hi],
                           y[:, lo:hi], eps[lo:hi], x[:, lo:hi],
                           col_steps[lo:hi], work))
    if len(halves) == 2:
        with ThreadPoolExecutor(max_workers=1) as pool:
            right = pool.submit(_em_columns, *halves[1])
            runs = [_em_columns(*halves[0]), right.result()]
    else:
        runs = [_em_columns(*half) for half in halves]
    steps = max((r[0] for r in runs), default=0)
    floored = max((r[1] for r in runs), default=0)
    logger.info("refine_em: %d columns, %d steps, per column median %g and "
                "max %d, %d still moving at R_MAX_EM", t, steps,
                np.median(col_steps) if col_steps.size else 0,
                col_steps.max(initial=0), sum(r[2] for r in runs))
    if floored:
        logger.warning("refine_em: up to %d links of a column had zero "
                       "predicted load but positive observation; denominator "
                       "floored", floored)
    return x[:, 0] if vector else x


def _em_columns(a, fixed, col_div, r_max, x0, y, eps, x, col_steps, work):
    """refine_em's loop on the columns of x0 (n x w) and y, into x.

    Writes each column's result into x and its step count into col_steps
    (left at r_max for a column still moving), and returns the steps run,
    the floor count and the columns still moving.  The moving columns live
    in the flat buffers of work, each as a C-ordered prefix; beyond those it
    allocates only arrays of length w and numpy's fixed-size ufunc buffers
    (the broadcast division by col_div takes one of 64 KiB).
    """
    (n, w), m = x0.shape, y.shape[0]
    x_bufs, y_bufs, ax_buf, zero_buf, hit_buf = work[:2], work[2:4], *work[4:]

    def view(buf, rows, k):
        return buf[:rows * k].reshape(rows, k)

    # the columns cols still move; xa and ya hold them, eps their limits
    cols = np.arange(w)
    xa, ya = view(x_bufs[0], n, w), view(y_bufs[0], m, w)
    np.copyto(xa, x0)
    np.copyto(ya, y)
    floored = steps = 0
    while cols.size and steps < r_max:
        steps += 1
        k = cols.size
        ax = np.matmul(a, xa, out=view(ax_buf, m, k))
        zero = np.equal(ax, 0.0, out=view(zero_buf, m, k))
        hit = np.greater(ya, 0.0, out=view(hit_buf, m, k))
        hit &= zero
        if hit.any():
            floored = max(floored, int(hit.sum(axis=0).max()))
        ax[zero] = 1e-12
        x_new = np.matmul(a.T, np.divide(ya, ax, out=ax),
                          out=view(x_bufs[1], n, k))
        x_new[fixed] = 1.0  # x * 1 / 1: unrouted flows stay exactly as they are
        x_new *= xa
        x_new /= col_div
        xa -= x_new  # the move; only its norms are read before xa is reused
        keep = np.einsum("ij,ij->j", xa, xa) >= eps
        if keep.all():
            xa = x_new
            x_bufs.reverse()
        else:
            # mode="clip" takes straight into out; "raise" would buffer
            stop = np.flatnonzero(~keep)
            x[:, cols[stop]] = np.take(x_new, stop, axis=1, mode="clip",
                                       out=view(x_bufs[0], n, stop.size))
            col_steps[cols[stop]] = steps
            kept = np.flatnonzero(keep)
            xa = np.take(x_new, kept, axis=1, mode="clip",
                         out=view(x_bufs[0], n, kept.size))
            ya = np.take(ya, kept, axis=1, mode="clip",
                         out=view(y_bufs[1], m, kept.size))
            y_bufs.reverse()
            eps, cols = eps[keep], cols[keep]
    x[:, cols] = xa
    return steps, floored, cols.size


def estimate_od_flows(link_flows, model: FactorModel) -> np.ndarray:
    """The latent window fit, then EM refinement of W H against the model's
    routing, for links x T.

    Raises ValidationError naming the first negative or non-finite link-flow
    cell, and NumericalFailure if an estimate is not finite.
    """
    y = LinkFlowMatrix(getattr(link_flows, "entries", link_flows)).entries
    x = refine_em(model.spatial @ estimate_latent(y, model), y, model.routing)
    bad = ~np.isfinite(x).all(axis=0)
    if bad.any():
        raise NumericalFailure(f"non-finite OD flow estimates in "
                               f"{int(bad.sum())} of {x.shape[1]} columns")
    return x


def estimate_od_flow(link_flows, model: FactorModel) -> np.ndarray:
    """estimate_od_flows on a window of one column."""
    return estimate_od_flows(np.reshape(link_flows, (-1, 1)), model)[:, 0]
