"""Seeded benchmark inputs: fixed topologies and low-rank traffic.

This module uses numpy only and never imports ttnmf, so a change to the
package cannot change what the benchmark feeds it or the ground truth it
checks against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

# An Internet2-shaped backbone: the 12 Abilene routers, their 15 backbone
# links and 12 regional chords, so 27 bidirectional links, 54 directed links
# and 132 OD pairs.  Routing matrices carry core links only (no access
# links), in both topologies.
INTERNET2_ROUTERS = ("ATLA-M5", "ATLAng", "CHINng", "DNVRng", "HSTNng",
                     "IPLSng", "KSCYng", "LOSAng", "NYCMng", "SNVAng",
                     "STTLng", "WASHng")
INTERNET2_EDGES = ((0, 1), (1, 4), (1, 5), (1, 11), (2, 5), (2, 8), (3, 6),
                   (3, 9), (3, 10), (4, 6), (4, 7), (5, 6), (7, 9), (8, 11),
                   (9, 10),
                   (0, 4), (0, 11), (2, 3), (2, 6), (2, 11), (3, 4), (3, 7),
                   (4, 5), (5, 8), (6, 9), (6, 10), (7, 10))

# A GEANT-shaped European backbone: 23 routers (named by country) with the
# 41 links of a sparse GEANT-like map (dense core around DE/FR/UK/NL/IT,
# spurs to the edge), so 82 directed links and 506 OD pairs.
GEANT_ROUTERS = ("AT", "BE", "CH", "CZ", "DE", "DK", "ES", "FR", "GR", "HR",
                 "HU", "IE", "IL", "IT", "LU", "NL", "NY", "PL", "PT", "SE",
                 "SI", "SK", "UK")
GEANT_EDGES = ((0, 3), (0, 4), (0, 10), (0, 13), (0, 20), (0, 21),
               (1, 7), (1, 14), (1, 15),
               (2, 4), (2, 6), (2, 7), (2, 13),
               (3, 4), (3, 17), (3, 21),
               (4, 5), (4, 7), (4, 8), (4, 12), (4, 14), (4, 15), (4, 16),
               (4, 19),
               (5, 19),
               (6, 7), (6, 13), (6, 18),
               (7, 22),
               (8, 13),
               (9, 10), (9, 20),
               (10, 21),
               (11, 22),
               (12, 13),
               (15, 16), (15, 22),
               (16, 22),
               (17, 19),
               (18, 22),
               (19, 22))
# Sources for the traffic shape are listed in README.md; values marked
# "guess" there have none.
SCALE = 1e6        # mean OD flow of order 1e6 bytes per slot (guess)
LATENT_RANK = 8    # planted sources; OD flows have 5-10 (Lakhina et al. 2004)
NOISE = 0.05       # multiplicative Gaussian noise per cell, as the default
                   # of `ttnmf synth` (guess)
MIX = 0.5          # Dirichlet concentration of each OD pair's mix (guess)
STRUCTURE_SEED = 0  # fixed network properties; see traffic_matrix
DRIFT_RHO = 0.98   # AR(1) coefficient of each source's log-level (guess)
DRIFT_SIGMA = 0.02  # innovation scale of that drift (guess)


@dataclass(frozen=True)
class Network:
    name: str
    n_routers: int
    edges: tuple
    slots_per_day: int


INTERNET2 = Network("internet2", len(INTERNET2_ROUTERS), INTERNET2_EDGES, 288)
GEANT = Network("geant", len(GEANT_ROUTERS), GEANT_EDGES, 96)


@dataclass(frozen=True)
class Inputs:
    routing: np.ndarray        # links x pairs, {0, 1}
    traffic_train: np.ndarray  # pairs x n_train
    traffic_test: np.ndarray   # pairs x n_test, ground truth
    links_test: np.ndarray     # links x n_test, routing @ traffic_test


def od_pairs(n_routers: int) -> list:
    return [(o, d) for o in range(n_routers) for d in range(n_routers)
            if o != d]


def _hop_paths(n_routers: int, edges) -> dict:
    """Hop-count shortest paths; breadth-first over sorted neighbour lists."""
    adj = {v: sorted({b for a, b in edges if a == v} |
                     {a for a, b in edges if b == v}) for v in range(n_routers)}
    paths = {}
    for origin in range(n_routers):
        parent = {origin: None}
        queue = deque([origin])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in parent:
                    parent[w] = v
                    queue.append(w)
        if len(parent) != n_routers:
            raise ValueError("topology is not connected")
        for dest in range(n_routers):
            node, path = dest, []
            while node is not None:
                path.append(node)
                node = parent[node]
            paths[origin, dest] = path[::-1]
    return paths


def routing_matrix(net: Network) -> np.ndarray:
    """Links x OD pairs incidence of hop-count shortest-path routing."""
    link = {}
    for a, b in sorted(net.edges):
        link[a, b] = len(link)
        link[b, a] = len(link)
    pairs = od_pairs(net.n_routers)
    routing = np.zeros((len(link), len(pairs)))
    paths = _hop_paths(net.n_routers, net.edges)
    for col, (o, d) in enumerate(pairs):
        path = paths[o, d]
        for a, b in zip(path[:-1], path[1:]):
            routing[link[a, b], col] = 1.0
    return routing


def traffic_matrix(net: Network, n_slots: int, seed) -> np.ndarray:
    """Gravity-weighted mixture of daily-cycle sources with AR(1) drift.

    Each source row is level * daily cycle (fundamental plus half-day
    harmonic) * exp(z) with z an AR(1) process.  Each OD pair mixes the
    sources with Dirichlet weights scaled by a gravity term mass[o] *
    mass[d], with exponentially distributed masses; then every cell gets
    multiplicative noise.  Levels, cycles, masses and mixes are properties
    of the network and come from STRUCTURE_SEED; the drift and the noise
    come from `seed`.
    """
    k, day = LATENT_RANK, net.slots_per_day
    fixed = np.random.default_rng(STRUCTURE_SEED)
    amp = fixed.uniform(0.3, 0.6, size=(k, 1))
    phase = fixed.uniform(0.0, 2 * np.pi, size=(k, 2))
    level = fixed.uniform(0.5, 1.5, size=(k, 1))
    pairs = od_pairs(net.n_routers)
    mass = fixed.exponential(1.0, size=net.n_routers)  # Roughan 2005
    mix = fixed.dirichlet(np.full(k, MIX), size=len(pairs))

    rng = np.random.default_rng(seed)
    t = np.arange(n_slots)
    cycle = (1.0 + amp * np.cos(2 * np.pi * t / day - phase[:, :1])
             + 0.3 * amp * np.cos(4 * np.pi * t / day - phase[:, 1:]))
    shocks = DRIFT_SIGMA * rng.standard_normal((k, n_slots))
    z = np.zeros((k, n_slots))
    for s in range(1, n_slots):
        z[:, s] = DRIFT_RHO * z[:, s - 1] + shocks[:, s]
    latent = level * cycle * np.exp(z)

    gravity = np.array([mass[o] * mass[d] for o, d in pairs])
    gravity *= len(pairs) / gravity.sum()
    x = (gravity[:, None] * mix) @ latent
    x *= 1.0 + NOISE * rng.standard_normal(x.shape)
    return SCALE * np.clip(x, 0.0, None)


def make_inputs(net: Network, n_train: int, n_test: int, seed) -> Inputs:
    """One input set from `seed` (anything np.random.default_rng takes, such
    as an int or a tuple of ints); the topology is fixed."""
    routing = routing_matrix(net)
    x = traffic_matrix(net, n_train + n_test, seed)
    train, test = x[:, :n_train], x[:, n_train:]
    return Inputs(routing, train, test, routing @ test)


def write_csv(path, matrix) -> None:
    """Headerless CSV with 17 significant digits (exact float64 round trip)."""
    np.savetxt(path, matrix, fmt="%.17g", delimiter=",")
