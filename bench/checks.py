"""Output checks computed apart from ttnmf: numpy on the benchmark's inputs.

Each check returns a list of problems; an empty list means the output passed.
Nothing is compared against a stored copy of earlier output.
"""

from __future__ import annotations

import csv

import numpy as np

# refine_em drives A x toward y.  Internet2-shaped inputs measure about
# 1e-4.  Where some link keeps a zero predicted load it reaches 1e-3 to 2e-2,
# as on the GEANT-shaped inputs (CHANGES.md, refine_em).  An all-zero
# estimate measures 1.0.
RESIDUAL_LIMIT = 1e-2
STATS_RTOL = 1e-9


def relative_errors(truth, est, axis) -> np.ndarray:
    """||est - truth|| / ||truth|| along `axis`, skipping zero-norm slices."""
    den = np.linalg.norm(truth, axis=axis)
    num = np.linalg.norm(est - truth, axis=axis)
    keep = den > 0
    return num[keep] / den[keep]


def min_norm_tre(routing, links, truth) -> float:
    """Mean TRE of the clipped min-norm estimate max(pinv(A) Y, 0)."""
    est = np.maximum(np.linalg.pinv(routing) @ links, 0.0)
    return float(relative_errors(truth, est, axis=0).mean())


def read_csv_matrix(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2, comments="#")


def check_trace(path):
    """The e_q column of trace.csv never increases.

    Returns (problems, e_q values).
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            e_q = [float(row["e_q"]) for row in csv.DictReader(fh)]
    except (OSError, KeyError, ValueError) as exc:
        return [f"trace.csv unreadable: {exc}"], []
    if not e_q:
        return ["trace.csv has no rows"], []
    rises = [q for q in range(1, len(e_q)) if e_q[q] > e_q[q - 1]]
    if rises:
        return [f"trace.csv e_q increases at q={rises[:5]}"], e_q
    return [], e_q


def check_estimate(est, routing, links, truth, baseline_tre=None,
                   residual_limit=None):
    """Shape, sign, link residual and accuracy against the min-norm baseline.

    The last two are skipped when residual_limit or baseline_tre is None.
    Returns (problems, tre_mean, sre_mean, link_residual); the numbers are
    None when the shape is wrong.
    """
    if est.shape != truth.shape:
        return ([f"estimated.csv shape {est.shape} != {truth.shape}"],
                None, None, None)
    problems = []
    if not np.isfinite(est).all():
        problems.append("estimated.csv has non-finite entries")
    elif est.min() < 0:
        problems.append(f"estimated.csv has negative entries "
                        f"(min {est.min():.3g})")
    residual = float(np.linalg.norm(routing @ est - links)
                     / np.linalg.norm(links))
    if residual_limit is not None and not residual <= residual_limit:
        problems.append(f"link residual {residual:.3g} > {residual_limit}")
    tre_mean = float(relative_errors(truth, est, axis=0).mean())
    sre_mean = float(relative_errors(truth, est, axis=1).mean())
    if baseline_tre is not None and not tre_mean < baseline_tre:
        problems.append(f"mean TRE {tre_mean:.4f} not below the clipped "
                        f"min-norm baseline {baseline_tre:.4f}")
    return problems, tre_mean, sre_mean, residual


def check_stats(path, tre_mean, sre_mean) -> list:
    """The mean row of stats.csv equals the benchmark's own TRE/SRE."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = {row["stat"]: row for row in csv.DictReader(fh)}
        got_sre, got_tre = float(rows["mean"]["sre"]), float(rows["mean"]["tre"])
    except (OSError, KeyError, ValueError) as exc:
        return [f"stats.csv unreadable: {exc}"]
    problems = []
    for name, got, want in (("tre", got_tre, tre_mean),
                            ("sre", got_sre, sre_mean)):
        if want is None or not np.isclose(got, want, rtol=STATS_RTOL, atol=0):
            problems.append(f"stats.csv mean {name} {got!r} != {want!r}")
    return problems
