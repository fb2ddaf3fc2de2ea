"""Seeded shape fuzz of the library: train, then estimate_od_flows on the
test window, or estimate_od_flow on windows of one column.

Case i draws a small random problem from default_rng((SEED, i)): n OD pairs
and m links up to 11, up to 39 training slots, routing with all-zero rows
and columns, traffic with all-zero rows, gappy masks, empty and long lag
sets, and units from 1e-5 to 1e8.  Every case must end in a result or in a
TtnmfError; a result is finite and nonnegative, a rerun gives the same
bytes, and the data-fit trace never rises by more than RISE_TOL * ||X||^2,
the rounding between the seed's full residual and the later Gram form.
"""

import numpy as np

from ttnmf import (LagSet, TrafficMatrix, TrainConfig, estimate_od_flow,
                   estimate_od_flows, train)
from ttnmf.errors import TtnmfError

SEED = 20212
N_CASES = 64
RISE_TOL = 1e-12


def _case(rng):
    """(traffic, routing, config, link flows) of one random problem."""
    n, m = (int(v) for v in rng.integers(1, 12, size=2))
    T, T_test = int(rng.integers(2, 40)), int(rng.integers(1, 8))
    routing = (rng.random((m, n)) < rng.uniform(0.2, 0.8)).astype(float)
    if rng.random() < 0.3:
        routing[rng.integers(m)] = 0.0
    if rng.random() < 0.3:
        routing[:, rng.integers(n)] = 0.0
    rank = int(rng.integers(1, 5))
    x = (rng.random((n, rank)) @ rng.random((rank, T + T_test))
         * rng.uniform(0.9, 1.1, size=(n, T + T_test)))
    if rng.random() < 0.3:
        x[rng.random(n) < 0.3] = 0.0
    x *= 10.0 ** rng.uniform(-5, 8)
    mask = None
    if rng.random() < 0.3:
        mask = (rng.random((n, T)) >= rng.uniform(0.05, 0.5)) * 1.0
    kind = rng.integers(3)
    if kind == 0:
        lags = ()
    elif kind == 1:
        lags = (1, 2)
    else:  # up to T - 1, or one past it now and then
        top = T + int(rng.random() < 0.1)
        lags = rng.choice(np.arange(1, top), size=min(top - 1, 9),
                          replace=False) if top > 1 else ()
    config = TrainConfig(rank=rank, lag_set=LagSet(tuple(lags)))
    return (TrafficMatrix(x[:, :T], mask=mask), routing, config,
            routing @ x[:, T:])


def _run(traffic, routing, config, links):
    """(factor and estimate bytes, data-fit trace), or the TtnmfError."""
    try:
        model, report = train(traffic, routing, config)
        est = estimate_od_flows(links, model)
    except TtnmfError as exc:
        return exc
    for name, a in (("spatial", model.spatial), ("latent", model.latent),
                    ("estimate", est)):
        assert np.isfinite(a).all() and (a >= 0).all(), name
    assert np.isfinite(model.ar_weights).all()
    assert np.isfinite(report.penalized_trace).all()
    return ([a.tobytes() for a in (model.spatial, model.latent,
                                   model.ar_weights, est)],
            report.objective_trace)


def test_random_small_cases_end_cleanly(set_q_max):
    set_q_max(5)
    rises, errors = [], 0
    for i in range(N_CASES):
        traffic, routing, config, links = _case(
            np.random.default_rng((SEED, i)))
        first = _run(traffic, routing, config, links)
        again = _run(traffic, routing, config, links)
        if isinstance(first, TtnmfError):
            # only a TtnmfError gets here, and the rerun raises it again
            assert type(again) is type(first) and str(again) == str(first), i
            errors += 1
            continue
        assert again == first, i
        x = traffic.entries if traffic.mask is None else (
            traffic.entries * traffic.mask)
        trace = np.asarray(first[1])
        rises.append((np.diff(trace).max(initial=0.0) / np.vdot(x, x), i))
    worst, case = max(rises)
    report = (f"{N_CASES} cases, {errors} TtnmfError; largest data-fit rise "
              f"{worst:.3g} * ||X||^2 (case {case})")
    print(report)
    assert worst <= RISE_TOL, report
    # most cases must train, or the checks above prove little
    assert errors <= N_CASES // 4, report


def _single_columns(rng, links) -> list:
    """Windows of one column: the link loads of the first test slot, all
    zeros, and random loads on the same scale, which the routing need not
    be able to explain."""
    y = links[:, 0]
    return [y, np.zeros_like(y), rng.random(y.size) * (y.max() or 1.0)]


def test_single_column_windows_end_cleanly(set_q_max):
    set_q_max(5)
    windows, errors = 0, 0
    for i in range(N_CASES):
        rng = np.random.default_rng((SEED, i))
        traffic, routing, config, links = _case(rng)
        try:
            model, _ = train(traffic, routing, config)
        except TtnmfError:
            continue
        for y in _single_columns(rng, links):
            windows += 1
            try:
                x = estimate_od_flow(y, model)
            except TtnmfError:
                errors += 1
                continue
            assert x.shape == (routing.shape[1],), i
            assert np.isfinite(x).all() and (x >= 0).all(), i
    report = f"{windows} one-column windows, {errors} TtnmfError"
    print(report)
    assert windows >= 2 * N_CASES and errors <= windows // 4, report
