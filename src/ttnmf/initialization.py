"""Deterministic nonnegative seeding for the factors and AR weights."""

from __future__ import annotations

import logging

import numpy as np

from .errors import ConfigError, ShapeError
from .factors import LagSet, lag_designs

logger = logging.getLogger(__name__)


def _leading_svd(x, rank: int):
    """The leading rank singular triplets (u, s, vt) of x.

    The vectors on the short side of x are the leading eigenvectors of the
    smaller Gram matrix (X X^T, or X^T X for a tall x); each s is the norm of
    x projected on one of them, never the square root of a rounded
    eigenvalue, and the vector on the other side is that projection over s,
    or 0 where s is 0.
    """
    wide = x.shape[0] <= x.shape[1]
    vecs = np.linalg.eigh(x @ x.T if wide else x.T @ x)[1][:, ::-1][:, :rank]
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
    spatial = np.zeros((n, rank))
    latent = np.zeros((rank, T))
    if not x.any():
        return spatial, latent

    u, s, vt = _leading_svd(x, rank)
    for i in range(rank):
        j = int(np.argmax(np.abs(u[:, i])))
        if u[j, i] < 0:
            u[:, i] = -u[:, i]
            vt[i, :] = -vt[i, :]

    spatial[:, 0] = np.sqrt(s[0]) * np.abs(u[:, 0])
    latent[0, :] = np.sqrt(s[0]) * np.abs(vt[0, :])
    for i in range(1, rank):
        up, un = np.maximum(u[:, i], 0.0), np.maximum(-u[:, i], 0.0)
        vp, vn = np.maximum(vt[i, :], 0.0), np.maximum(-vt[i, :], 0.0)
        if np.linalg.norm(up) * np.linalg.norm(vp) >= \
                np.linalg.norm(un) * np.linalg.norm(vn):
            cu, cv = up, vp
        else:
            cu, cv = un, vn
        spatial[:, i] = np.sqrt(s[i]) * cu
        latent[i, :] = np.sqrt(s[i]) * cv

    product = spatial @ latent
    denom = float(np.vdot(product, product))
    if denom > 0:
        # optimal scalar keeps ||x - c W H|| <= ||x||
        latent *= max(0.0, float(np.vdot(x, product)) / denom)
    return spatial, latent


def init_lag_weights(latent, lag_set: LagSet) -> np.ndarray:
    """Seed AR weights per latent row by a rectified pseudoinverse fit.

    omega_p = max(0, h_p @ pinv(design_p)) with singular values below
    1e-12 * sigma_max treated as zero.
    """
    latent = np.asarray(latent, dtype=float)
    if latent.ndim != 2:
        raise ShapeError("latent must be 2-D")
    k, T = latent.shape
    weights = np.zeros((k, len(lag_set)))
    if len(lag_set) == 0:
        return weights
    if lag_set.max_lag >= T:
        raise ConfigError(
            f"max lag {lag_set.max_lag} must be < number of timestamps {T}")
    for p in range(k):
        design = lag_designs(latent[p:p + 1], lag_set)[0]
        if not design.any():
            continue
        weights[p] = np.maximum(latent[p] @ np.linalg.pinv(design, rcond=1e-12),
                                0.0)
    return weights
