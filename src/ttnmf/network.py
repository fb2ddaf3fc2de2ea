"""Network data types and the synthetic scenario generator."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError, ValidationError
from .factors import LagSet

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RoutingMatrix:
    """Binary link-by-OD-pair incidence matrix."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.entries, dtype=float)
        if arr.ndim != 2:
            raise ShapeError("routing matrix must be 2-D")
        bad = (arr != 0.0) & (arr != 1.0)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValidationError(
                f"routing entries must be 0 or 1; cell ({i + 1},{j + 1}) is "
                f"{arr[i, j]!r}")
        empty = int((arr.sum(axis=0) == 0).sum())
        if empty:
            logger.warning("routing matrix has %d all-zero columns "
                           "(unroutable or self pairs)", empty)
        object.__setattr__(self, "entries", arr)

    @property
    def n_links(self) -> int:
        return self.entries.shape[0]

    @property
    def n_pairs(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class TrafficMatrix:
    """OD flows over time; `mask` marks observed entries (1) when data has gaps."""

    entries: np.ndarray
    mask: np.ndarray | None = None
    timestamps: np.ndarray | None = None

    def __post_init__(self):
        arr = np.ascontiguousarray(self.entries, dtype=float)
        if arr.ndim != 2:
            raise ShapeError("traffic matrix must be 2-D")
        mask = self.mask
        if mask is not None:
            mask = np.ascontiguousarray(mask, dtype=float)
            if mask.shape != arr.shape:
                raise ShapeError(
                    f"mask shape {mask.shape} != traffic shape {arr.shape}")
            bad = (mask != 0.0) & (mask != 1.0)
            if bad.any():
                i, j = np.argwhere(bad)[0]
                raise ValidationError(
                    f"mask entries must be 0 or 1; cell ({i + 1},{j + 1}) is "
                    f"{mask[i, j]!r}")
            observed = mask == 1.0
        else:
            observed = np.ones(arr.shape, dtype=bool)
        bad = (arr < 0) & observed
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValidationError(
                f"observed traffic must be >= 0; cell ({i + 1},{j + 1}) is "
                f"{arr[i, j]!r}")
        ts = self.timestamps
        if ts is None:
            ts = np.arange(arr.shape[1])
        else:
            ts = np.ascontiguousarray(ts)
            if ts.shape != (arr.shape[1],):
                raise ShapeError("timestamps length must match column count")
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "timestamps", ts)

    @property
    def n_flows(self) -> int:
        return self.entries.shape[0]

    @property
    def n_timestamps(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class LinkFlowMatrix:
    """Per-link aggregate flows over time."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.entries, dtype=float)
        if arr.ndim != 2:
            raise ShapeError("link-flow matrix must be 2-D")
        if arr.size and arr.min() < 0:
            i, j = np.argwhere(arr < 0)[0]
            raise ValidationError(
                f"link flows must be >= 0; cell ({i + 1},{j + 1}) is {arr[i, j]!r}")
        object.__setattr__(self, "entries", arr)

    @property
    def n_links(self) -> int:
        return self.entries.shape[0]

    @property
    def n_timestamps(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class SyntheticScenario:
    """A generated network plus ground truth for experiments."""

    routing: RoutingMatrix
    traffic: TrafficMatrix
    planted_rank: int
    planted_lags: LagSet
    noise_level: float
    seed: int
    true_spatial: np.ndarray = field(repr=False, default=None)
    true_latent: np.ndarray = field(repr=False, default=None)


def compute_link_flows(routing: RoutingMatrix, traffic: TrafficMatrix) -> LinkFlowMatrix:
    """Aggregate OD flows onto links: Y = A @ X."""
    if routing.n_pairs != traffic.n_flows:
        raise ShapeError(
            f"routing expects {routing.n_pairs} OD pairs, traffic has "
            f"{traffic.n_flows}")
    return LinkFlowMatrix(routing.entries @ traffic.entries)


def split_train_test(traffic: TrafficMatrix, train_t: int):
    """Split the time axis into a training prefix and a test suffix."""
    T = traffic.n_timestamps
    if not 0 < train_t < T:
        raise ConfigError(f"train_t must lie in (0, {T}), got {train_t}")
    def cut(lo, hi):
        mask = traffic.mask[:, lo:hi] if traffic.mask is not None else None
        return TrafficMatrix(traffic.entries[:, lo:hi], mask=mask,
                             timestamps=traffic.timestamps[lo:hi])
    return cut(0, train_t), cut(train_t, T)


def _random_connected_graph(n_nodes: int, rng) -> list:
    """Erdos-Renyi undirected graph, redrawn until connected."""
    edge_prob = 0.45
    for _ in range(1000):
        upper = rng.random((n_nodes, n_nodes)) < edge_prob
        edges = [(a, b) for a in range(n_nodes) for b in range(a + 1, n_nodes)
                 if upper[a, b]]
        adj = {v: [] for v in range(n_nodes)}
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == n_nodes:
            return edges
    raise ConfigError(f"could not draw a connected graph on {n_nodes} nodes")


def _shortest_path(adj: dict, origin: int, dest: int) -> list:
    """Hop-count shortest path; ties broken toward the lowest node index."""
    dist = {origin: 0}
    frontier = [origin]
    while frontier and dest not in dist:
        nxt = []
        for v in frontier:
            for w in sorted(adj[v]):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    path = [dest]
    node = dest
    while node != origin:
        # lowest-index predecessor at distance-1 keeps paths deterministic
        node = min(w for w in adj[node] if dist.get(w, -1) == dist[path[-1]] - 1)
        path.append(node)
    path.reverse()
    return path


def generate_synthetic(n_routers: int, planted_rank: int, n_timestamps: int,
                       planted_lags: LagSet, noise_level: float,
                       seed: int) -> SyntheticScenario:
    """Generate a routed network with low-rank AR traffic.

    OD pairs are the ordered router pairs (o != d), so n = r(r-1).  Latent
    rows follow AR processes over `planted_lags` with nonnegative weights, a
    positive intercept and Gaussian innovations, rectified at 0.  OD rows mix
    the latent rows with near-disjoint supports.  noise_level applies
    multiplicative observation noise to X.
    """
    if n_routers < 2:
        raise ConfigError(f"need at least 2 routers, got {n_routers}")
    if planted_rank < 1:
        raise ConfigError(f"planted rank must be >= 1, got {planted_rank}")
    if n_timestamps <= planted_lags.max_lag:
        raise ConfigError(
            f"need more than max_lag={planted_lags.max_lag} timestamps, "
            f"got {n_timestamps}")
    if noise_level < 0:
        raise ConfigError(f"noise level must be >= 0, got {noise_level}")
    rng = np.random.default_rng(seed)

    edges = _random_connected_graph(n_routers, rng)
    adj = {v: [] for v in range(n_routers)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    # two directed links per undirected edge, in sorted edge order
    link_index = {}
    for a, b in sorted(edges):
        link_index[(a, b)] = len(link_index)
        link_index[(b, a)] = len(link_index)
    pairs = [(o, d) for o in range(n_routers) for d in range(n_routers) if o != d]
    routing = np.zeros((len(link_index), len(pairs)))
    for col, (o, d) in enumerate(pairs):
        path = _shortest_path(adj, o, d)
        for a, b in zip(path[:-1], path[1:]):
            routing[link_index[(a, b)], col] = 1.0

    k, T, L = planted_rank, n_timestamps, planted_lags.max_lag
    lags = np.asarray(planted_lags.lags, dtype=int)
    latent = np.zeros((k, T))
    for p in range(k):
        if len(lags):
            raw = rng.uniform(0.5, 1.0, size=len(lags))
            weights = raw / raw.sum() * rng.uniform(0.75, 0.95)
        else:
            weights = np.zeros(0)
        level = rng.uniform(0.5, 2.0)
        sigma = 0.05 * level
        latent[p, :max(L, 1)] = level * (1.0 + 0.1 * rng.uniform(-1, 1, size=max(L, 1)))
        drift = level * (1.0 - weights.sum()) if len(lags) else level
        for t in range(max(L, 1), T):
            value = drift + sigma * rng.standard_normal()
            for w, lag in zip(weights, lags):
                value += w * latent[p, t - lag]
            latent[p, t] = max(value, 0.0)

    spatial = np.zeros((len(pairs), k))
    for j in range(len(pairs)):
        spatial[j, j % k] = rng.uniform(0.5, 1.5)
        if rng.random() < 0.3:
            other = int(rng.integers(k))
            if other != j % k:
                spatial[j, other] = rng.uniform(0.0, 0.15)

    x = spatial @ latent
    if noise_level > 0:
        x = np.clip(x * (1.0 + noise_level * rng.standard_normal(x.shape)), 0.0, None)

    return SyntheticScenario(
        routing=RoutingMatrix(routing),
        traffic=TrafficMatrix(x),
        planted_rank=planted_rank,
        planted_lags=planted_lags,
        noise_level=noise_level,
        seed=seed,
        true_spatial=spatial,
        true_latent=latent,
    )
