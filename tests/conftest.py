"""Shared pytest hooks: per-criterion pass/fail lines for the acceptance
suite, the reference accelerated loop that training and estimation tests
compare _nesterov_loop against, and a cap on training's outer loop."""

import math

import numpy as np
import pytest

import ttnmf.training as training

_RESULTS = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py::test_criterion_" not in report.nodeid:
        return
    if report.skipped:
        _RESULTS[report.nodeid] = "SKIP"
    elif report.when == "call":
        _RESULTS[report.nodeid] = "PASS" if report.passed else "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_RESULTS):
        short = name.split("::")[-1]
        terminalreporter.write_line(f"{short}: {_RESULTS[name]}")


def _reference_nesterov_loop(b0, grad, err, lip, q_max, rel_tol=None,
                             noise=0.0):
    """_nesterov_loop without its stop on a restart at the best iterate: a
    column that restarts stays active, so a step repeated from the best
    iterate runs on to q_max.  Returns (best iterate, iterations)."""
    e_prev = err(b0)
    columns = np.ndim(e_prev) > 0
    where = np.where if columns else (lambda m, x, y: x if m else y)
    any_, minimum = (np.any, np.minimum) if columns else (bool, min)
    sqrt = np.sqrt if columns else math.sqrt
    eps_min = rel_tol * e_prev if rel_tol is not None else -np.inf
    slack = noise * err(np.zeros_like(b0)) if noise else 0.0
    step = 1.0 / lip
    b = c = b_best = b0
    e_best = e_prev
    alpha_prev = np.ones_like(e_prev) if columns else 1.0
    active = np.ones_like(e_prev, dtype=bool) if columns else True
    n = 0
    while n < q_max:
        active = active & (e_best != 0.0)
        if not any_(active):
            break
        n += 1
        alpha = 0.5 * (1.0 + sqrt(4.0 * alpha_prev * alpha_prev + 1.0))
        b_new = np.maximum(c - step * grad(c), 0.0)
        c = b_new + ((alpha_prev - 1.0) / alpha) * (b_new - b)
        e_curr = err(b_new)
        eps = e_prev - e_curr
        restart = eps < -slack
        if any_(restart):
            c = where(restart, b_best, c)
            alpha = where(restart, 1.0, alpha)
            e_curr = where(restart, e_prev, e_curr)
        better = active & (eps >= -slack) & (e_curr <= e_best + slack)
        if any_(better):
            b_best = where(better, b_new, b_best)
            e_best = where(better, minimum(e_curr, e_best), e_best)
        b = b_new
        alpha_prev = alpha
        e_prev = e_curr
        active = active & (restart | (eps >= eps_min))
    return b_best, n


@pytest.fixture
def reference_nesterov_loop():
    return _reference_nesterov_loop


@pytest.fixture
def set_q_max(monkeypatch):
    """set_q_max(n) sets training.Q_MAX, the outer-iteration cap of train,
    to n for the test."""
    def set_cap(n):
        monkeypatch.setattr(training, "Q_MAX", n)
    return set_cap
