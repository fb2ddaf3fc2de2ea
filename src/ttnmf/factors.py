"""Factor model, lag machinery and the two regularizers.

The latent flow matrix is approximated as X ~ spatial @ latent with an
autoregressive coupling on the rows of `latent` (weights in `ar_weights`,
offsets in a LagSet) and an orthogonality push on the compact routing
matrix routing @ spatial.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, ShapeError, UsageError, ValidationError,
                     integer, real)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class LagSet:
    """Strictly increasing positive integer lags; empty means no temporal coupling."""

    lags: tuple = ()

    def __post_init__(self):
        lags = tuple(integer("lags", v) for v in self.lags)
        if any(v < 1 for v in lags):
            raise ConfigError(f"lags must be positive integers, got {lags}")
        if len(set(lags)) != len(lags):
            raise ConfigError(f"lags must be distinct, got {lags}")
        object.__setattr__(self, "lags", tuple(sorted(lags)))

    @classmethod
    def from_text(cls, text) -> "LagSet":
        """Parse a comma-separated lag list; "" or "-" is the empty set."""
        text = (text or "").strip()
        if not text or text == "-":
            return cls(())
        try:
            return cls(tuple(int(v) for v in text.split(",")))
        except ValueError as exc:
            raise ConfigError(f"bad lag list {text!r}: {exc}") from None

    @property
    def max_lag(self) -> int:
        return self.lags[-1] if self.lags else 0

    def __len__(self):
        return len(self.lags)

    def __iter__(self):
        return iter(self.lags)


@dataclass(frozen=True)
class RegularizationWeights:
    """Penalty strengths (lambdas) and the ratios (betas) they were tuned from."""

    lambda_temporal: float = 0.0
    lambda_ortho: float = 0.0
    beta_temporal: float = 0.0
    beta_ortho: float = 0.0

    def __post_init__(self):
        lam_t, lam_o, *betas = (real(name, getattr(self, name)) for name in (
            "lambda_temporal", "lambda_ortho", "beta_temporal", "beta_ortho"))
        if not (0.0 <= lam_t < np.inf and 0.0 <= lam_o < np.inf):
            raise ConfigError("penalty weights must be finite and >= 0")
        # beta = 0 switches the corresponding penalty off (ablation mode)
        for b in betas:
            if not 0.0 <= b <= 1.0:
                raise ConfigError(f"beta must lie in [0, 1], got {b}")


@dataclass(frozen=True)
class TemporalGraph:
    """Signed similarity graph over timestamps induced by one row of AR weights.

    `bands[d]` holds the edge weights S(t, t+d) for displacement d > 0
    (symmetric counterpart implied) and `diagonal` the boundary-correction
    diagonal D.  Storage is banded: penalty() and gradient() apply the graph
    Laplacian L of S band by band, and only the inspection helpers
    weight_matrix() and laplacian() form T x T matrices.
    """

    n_timestamps: int
    bands: dict
    diagonal: np.ndarray

    def weight_matrix(self) -> np.ndarray:
        """Dense symmetric edge-weight matrix S (no self loops), for inspection."""
        s = np.zeros((self.n_timestamps, self.n_timestamps))
        for d, band in self.bands.items():
            s += np.diag(band, d) + np.diag(band, -d)
        return s

    def laplacian(self) -> np.ndarray:
        """Dense graph Laplacian diag(S 1) - S, for inspection."""
        s = self.weight_matrix()
        return np.diag(s.sum(axis=1)) - s

    def _laplacian_times(self, row: np.ndarray) -> np.ndarray:
        """(L v)_t = sum_d S(t, t+d)(v_t - v_{t+d}), plus its mirror
        S(t-d, t)(v_t - v_{t-d}), from the bands."""
        out = np.zeros_like(row)
        for d, band in self.bands.items():
            diff = band * (row[:-d] - row[d:])
            out[:-d] += diff
            out[d:] -= diff
        return out

    def penalty(self, row: np.ndarray) -> float:
        """1/2 sum S(t1,t2)(h_t1-h_t2)^2 + 1/2 h D h^T for one latent row."""
        row = np.asarray(row, dtype=float)
        quad = float(row @ self._laplacian_times(row))
        return quad + 0.5 * float((row * row) @ self.diagonal)

    def gradient(self, row: np.ndarray) -> np.ndarray:
        """Gradient of penalty() with respect to the row."""
        row = np.asarray(row, dtype=float)
        return 2.0 * self._laplacian_times(row) + self.diagonal * row


def build_temporal_graph(ar_row, lag_set: LagSet, n_timestamps: int) -> TemporalGraph:
    """Build the temporal graph of one latent row.

    The lag-0 weight is fixed at -1 so that the graph quadratic form plus the
    diagonal correction reproduces the AR residual sum exactly, boundary
    effects included.
    """
    T = int(n_timestamps)
    if T < 1:
        raise ConfigError(f"need at least one timestamp, got {T}")
    ar_row = np.asarray(ar_row, dtype=float).reshape(-1)
    if ar_row.shape != (len(lag_set),):
        raise ShapeError(f"ar_row has {ar_row.size} weights for {len(lag_set)} lags")
    if np.any(ar_row < 0):
        raise ValidationError("AR weights must be nonnegative")
    if len(lag_set) == 0:
        return TemporalGraph(T, {}, np.zeros(T))
    L = lag_set.max_lag
    if L >= T:
        raise ConfigError(f"max lag {L} must be < number of timestamps {T}")

    offsets = np.concatenate(([0], np.asarray(lag_set.lags, dtype=int)))
    signed = np.concatenate(([-1.0], ar_row))

    # Each residual position t in [L, T-1] couples the pair (t-li, t-lj) with
    # weight -1/2 w_i w_j; collecting by displacement d = li - lj > 0 gives a
    # band whose values vary only where the window [L, T-1] truncates.
    bands = {}
    for i, li in enumerate(offsets):
        for j, lj in enumerate(offsets):
            d = int(li - lj)
            if d <= 0:
                continue
            c = -0.5 * signed[i] * signed[j]
            if c == 0.0:
                continue
            band = bands.setdefault(d, np.zeros(T - d))
            band[L - li : T - li] += c
    bands = {d: band for d, band in bands.items() if np.any(band)}

    total = float(signed.sum())
    window = np.zeros(T)
    for i, li in enumerate(offsets):
        window[L - li : T - li] += signed[i]
    return TemporalGraph(T, bands, total * window)


def lag_designs(latent: np.ndarray, lag_set: LagSet) -> np.ndarray:
    """Lagged copies of every latent row, zero outside the residual window.

    Returns the k x len(lag_set) x T array whose entry (p, q, t) holds
    latent[p, t - lag_q] for t >= max_lag and 0 before that: row p's lag
    design, whose Gram and correlation with h_p the AR block uses.
    """
    k, T = latent.shape
    designs = np.zeros((k, len(lag_set), T))
    if len(lag_set) == 0:
        return designs
    L = lag_set.max_lag
    if L >= T:
        raise ConfigError(f"max lag {L} must be < number of timestamps {T}")
    for q, lag in enumerate(lag_set.lags):
        designs[:, q, L:] = latent[:, L - lag : T - lag]
    return designs


def ar_normal_equations(latent: np.ndarray, lag_set: LagSet) -> tuple:
    """(G, t, ||h_p||^2) of every latent row's AR least-squares fit: the
    Grams G_p = D_p D_p^T and targets t_p = D_p h_p^T of its lag design D_p
    (lag_designs), without keeping the k x |lags| x T designs."""
    designs = lag_designs(latent, lag_set)
    grams = designs @ designs.transpose(0, 2, 1)
    targets = (designs @ latent[:, :, None])[:, :, 0]
    return grams, targets, np.einsum("pt,pt->p", latent, latent)


@dataclass(frozen=True)
class FactorModel:
    """Trained factors, the routing they were trained against and their
    penalty weights."""

    spatial: np.ndarray         # n x k
    latent: np.ndarray          # k x T
    ar_weights: np.ndarray      # k x len(lag_set)
    lag_set: LagSet
    routing: np.ndarray         # m x n
    weights: RegularizationWeights = RegularizationWeights()

    @classmethod
    def from_factors(cls, spatial, latent, ar_weights, lag_set, routing,
                     weights=RegularizationWeights()) -> "FactorModel":
        spatial = np.ascontiguousarray(spatial, dtype=float)
        latent = np.ascontiguousarray(latent, dtype=float)
        ar_weights = np.ascontiguousarray(ar_weights, dtype=float)
        routing_arr = routing_array(routing)
        if spatial.ndim != 2 or latent.ndim != 2 or ar_weights.ndim != 2:
            raise ShapeError("factors must be 2-D arrays")
        n, k = spatial.shape
        if k < 1:
            raise ShapeError(f"factors must have rank >= 1, got {k}")
        if latent.shape[0] != k:
            raise ShapeError(f"latent has {latent.shape[0]} rows, expected rank {k}")
        if ar_weights.shape != (k, len(lag_set)):
            raise ShapeError(
                f"ar_weights shape {ar_weights.shape} != ({k}, {len(lag_set)})")
        if routing_arr.shape[1] != n:
            raise ShapeError(
                f"routing has {routing_arr.shape[1]} columns, expected {n}")
        for name, arr in (("spatial", spatial), ("latent", latent),
                          ("ar_weights", ar_weights)):
            if not np.isfinite(arr).all():
                raise ValidationError(f"{name} factor has non-finite entries")
            if arr.size and arr.min() < 0:
                raise ValidationError(f"{name} factor has negative entries")
        return cls(spatial, latent, ar_weights, lag_set, routing_arr, weights)

    @property
    def compact_routing(self) -> np.ndarray:
        """The m x k compact routing matrix A W."""
        return self.routing @ self.spatial

    @property
    def rank(self) -> int:
        return self.spatial.shape[1]

    @property
    def n_flows(self) -> int:
        return self.spatial.shape[0]

    @property
    def n_timestamps(self) -> int:
        return self.latent.shape[1]


def routing_array(routing) -> np.ndarray:
    """Accept a RoutingMatrix or a plain 2-D array and return the array."""
    arr = getattr(routing, "entries", routing)
    arr = np.asarray(arr, dtype=float)
    if arr.ndim != 2:
        raise ShapeError("routing must be a 2-D matrix")
    return arr


# values of one block of lagged windows gathered by _lag_window_sums; the
# blocks keep the gather buffer small against a k x T latent matrix
LAG_WINDOW_BLOCK = 1 << 16


def _lag_window_sums(series, taps, starts, width, out):
    """out[p, t] = sum_j taps[p, j] series[p, starts[j] + t] for t < width.

    Each block of rows copies its windows into one buffer and sums them in
    one einsum call.  Without optimize, einsum runs along t and adds the
    products in order of j, each product rounded apart (on builds whose SIMD
    baseline has no fused multiply-add, such as x86-64), so taps
    [1, -w_1, ...] round exactly as subtracting w_1 h_1, w_2 h_2, ... one by
    one.  A single column would make einsum reduce over j in SIMD lanes
    instead, so that case adds the products one by one.
    """
    if width < 2:
        out[...] = 0.0
        for j, s in enumerate(starts):
            out += taps[:, j, None] * series[:, s : s + width]
        return out
    k = series.shape[0]
    rows = max(1, LAG_WINDOW_BLOCK // (len(starts) * width))
    windows = np.empty((min(rows, k), len(starts), width))
    for p0 in range(0, k, rows):
        p1 = min(p0 + rows, k)
        block = windows[: p1 - p0]
        for j, s in enumerate(starts):
            block[:, j] = series[p0:p1, s : s + width]
        np.einsum("pj,pjt->pt", taps[p0:p1], block, out=out[p0:p1])
    return out


def _lag_taps(ar_weights, k) -> np.ndarray:
    """The k x (1 + |lags|) lag filter: 1 at lag 0, -w_p(l) at lag l."""
    return np.concatenate((np.ones((k, 1)), -np.reshape(ar_weights, (k, -1))),
                          axis=1)


def ar_residual(latent, ar_weights, lag_set: LagSet) -> np.ndarray:
    """AR residuals of all latent rows over the window t >= max_lag.

    For a nonempty lag set, returns the k x (T - max_lag) array whose entry
    (p, t - max_lag) is h_p(t) - sum_l w_p(l) h_p(t - l).
    """
    L = lag_set.max_lag
    k, T = latent.shape
    return _lag_window_sums(latent, _lag_taps(ar_weights, k),
                            (L, *(L - lag for lag in lag_set.lags)), T - L,
                            np.empty((k, T - L)))


def temporal_penalty_gradient(latent, ar_weights, lag_set: LagSet) -> np.ndarray:
    """Gradient of temporal_penalty_value with respect to the latent rows.

    The AR residual correlated with the lag filter (1 at lag 0, -w_p(l) at
    lag l): the same kernel over the residual zero-padded by max_lag on both
    sides.  Row p equals build_temporal_graph(...).gradient of that row.
    """
    L = lag_set.max_lag
    k, T = latent.shape
    padded = np.zeros((k, T + L))
    padded[:, L:T] = ar_residual(latent, ar_weights, lag_set)
    return _lag_window_sums(padded, _lag_taps(ar_weights, k),
                            (0, *lag_set.lags), T, np.empty((k, T)))


def temporal_penalty_value(latent, ar_weights, lag_set: LagSet, form: str) -> float:
    """AR temporal penalty over all latent rows.

    form="residual" evaluates 1/2 sum_p sum_{t>max_lag} (h_p(t) - sum_l
    w_p(l) h_p(t-l))^2 directly; form="laplacian" goes through the banded
    temporal graph.  The two agree to rounding error.
    """
    if form not in ("residual", "laplacian"):
        raise UsageError(f"unknown temporal penalty form {form!r}")
    latent = np.asarray(latent, dtype=float)
    if latent.ndim != 2:
        raise ShapeError("latent must be 2-D")
    k, T = latent.shape
    if len(lag_set) == 0:
        return 0.0
    ar_weights = np.asarray(ar_weights, dtype=float)
    if ar_weights.shape != (k, len(lag_set)):
        raise ShapeError(
            f"ar_weights shape {ar_weights.shape} != ({k}, {len(lag_set)})")
    L = lag_set.max_lag
    if L >= T:
        raise ConfigError(f"max lag {L} must be < number of timestamps {T}")
    if form == "residual":
        resid = ar_residual(latent, ar_weights, lag_set)
        return 0.5 * float(np.vdot(resid, resid))
    total = 0.0
    for p in range(k):
        graph = build_temporal_graph(ar_weights[p], lag_set, T)
        total += graph.penalty(latent[p])
    return total


def ortho_penalty_value(compact_routing) -> float:
    """||C^T C - I||_F^2 for the compact routing matrix C."""
    compact = np.asarray(compact_routing, dtype=float)
    if compact.ndim != 2:
        raise ShapeError("compact routing must be 2-D")
    gram = compact.T @ compact
    gram = gram - np.eye(gram.shape[0])
    return float(np.vdot(gram, gram))


def objective_terms(x, model: FactorModel) -> tuple:
    """The three terms of the regularized objective under model.weights:
    (data fit, lambda_t * temporal penalty, lambda_o * orthogonality
    penalty); a term whose lambda is 0 is 0."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.n_flows, model.n_timestamps):
        raise ShapeError(
            f"data shape {x.shape} != ({model.n_flows}, {model.n_timestamps})")
    return data_fit(x, model.spatial, model.latent), *penalty_terms(model)


def data_fit(x, spatial, latent) -> float:
    """||X - W H||_F^2 from one n x T array: the product W H, overwritten in
    place by the residual."""
    resid = spatial @ latent
    np.subtract(x, resid, out=resid)
    return float(np.vdot(resid, resid))


def penalty_terms(model: FactorModel) -> tuple:
    """(lambda_t * temporal penalty, lambda_o * orthogonality penalty of the
    compact routing) under model.weights, the last two of objective_terms."""
    weights = model.weights
    temporal = ortho = 0.0
    if weights.lambda_temporal > 0 and len(model.lag_set) > 0:
        temporal = weights.lambda_temporal * temporal_penalty_value(
            model.latent, model.ar_weights, model.lag_set, "residual")
    if weights.lambda_ortho > 0:
        ortho = weights.lambda_ortho * ortho_penalty_value(
            model.compact_routing)
    return temporal, ortho


def objective_value(x, model: FactorModel) -> float:
    """Full regularized objective: the sum of objective_terms."""
    fit, temporal, ortho = objective_terms(x, model)
    return fit + temporal + ortho
