"""Deterministic nonnegative seeding for the factors and AR weights."""

from __future__ import annotations

import logging

import numpy as np

from .errors import ConfigError, NumericalFailure, ShapeError
from .factors import LagSet, ar_normal_equations

logger = logging.getLogger(__name__)


def _leading_svd(x, rank: int):
    """The leading rank singular triplets (u, s, vt) of x.

    The vectors on the short side of x are the leading eigenvectors of the
    smaller Gram matrix (X X^T, or X^T X for a tall x); each s is the norm of
    x projected on one of them, never the square root of a rounded
    eigenvalue, and the vector on the other side is that projection over s,
    or 0 where s is 0.  Raises NumericalFailure if the Gram matrix
    overflows.
    """
    wide = x.shape[0] <= x.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        gram = x @ x.T if wide else x.T @ x
    if not np.isfinite(gram).all():
        raise NumericalFailure("SVD seed: the data's Gram matrix overflows "
                               "float64")
    vecs = np.linalg.eigh(gram)[1][:, ::-1][:, :rank]
    proj = vecs.T @ x if wide else (x @ vecs).T
    s = np.sqrt(np.einsum("ij,ij->i", proj, proj))
    other = np.divide(proj, s[:, None], out=np.zeros_like(proj),
                      where=s[:, None] > 0)
    return (vecs, s, other) if wide else (other.T, s, vecs.T)


def init_factors_svd(x, rank: int):
    """Nonnegative SVD-based seeding of (spatial, latent).

    Rank-k truncated SVD (_leading_svd) with a deterministic sign fix (the
    largest-magnitude entry of each left singular vector is made positive).
    The leading pair enters as |u| sqrt(s), |v| sqrt(s); every later pair is
    split into positive/negative parts and the part pair with the larger
    product norm is kept, scaled by sqrt(s).  A final optimal nonnegative
    rescale of the product guarantees the seed never fits worse than the zero
    factorization.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ShapeError("data matrix must be 2-D")
    n, T = x.shape
    if not 1 <= rank <= min(n, T):
        raise ConfigError(f"rank must lie in [1, {min(n, T)}], got {rank}")
    if not x.any():
        return np.zeros((n, rank)), np.zeros((rank, T))

    u, s, vt = _leading_svd(x, rank)
    sign = np.where(u[np.abs(u).argmax(axis=0), np.arange(rank)] < 0, -1.0, 1.0)
    # C order, so that spatial and latent come out C-contiguous
    u = np.ascontiguousarray(u * sign)
    vt = np.ascontiguousarray(vt * sign[:, None])
    up, un = np.maximum(u, 0.0), np.maximum(-u, 0.0)
    vp, vn = np.maximum(vt, 0.0), np.maximum(-vt, 0.0)
    positive = (np.linalg.norm(up, axis=0) * np.linalg.norm(vp, axis=1)
                >= np.linalg.norm(un, axis=0) * np.linalg.norm(vn, axis=1))
    root = np.sqrt(s)
    spatial = root * np.where(positive, up, un)
    latent = root[:, None] * np.where(positive[:, None], vp, vn)
    # free the parts before W H, the largest array of the seed, is formed
    del up, un, vp, vn
    spatial[:, 0] = root[0] * np.abs(u[:, 0])
    latent[0] = root[0] * np.abs(vt[0])

    product = spatial @ latent
    denom = float(np.vdot(product, product))
    if denom > 0:
        # optimal scalar keeps ||x - c W H|| <= ||x||
        latent *= max(0.0, float(np.vdot(x, product)) / denom)
    return spatial, latent


def init_lag_weights(latent, lag_set: LagSet) -> np.ndarray:
    """Seed AR weights per latent row by a rectified least-squares fit.

    omega_p = max(0, pinv(G_p) t_p) from the AR block's normal equations
    (ar_normal_equations): the minimum-norm fit of h_p by w_p D_p, clipped
    at 0.  The Gram squares the design's condition number, so the cut-off
    sits at the Gram's rounding floor: design singular values below
    sqrt(1e-15) ~ 3.2e-8 of the largest count as zero.
    """
    latent = np.asarray(latent, dtype=float)
    if latent.ndim != 2:
        raise ShapeError("latent must be 2-D")
    grams, targets, _ = ar_normal_equations(latent, lag_set)
    solve = np.linalg.pinv(grams, rcond=1e-15, hermitian=True)
    return np.maximum((solve @ targets[:, :, None])[:, :, 0], 0.0)
