"""Relative error metrics and their summaries."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, ShapeError, UsageError


@dataclass(frozen=True)
class ErrorVector:
    """Relative errors with NaN at indices whose true norm is zero."""

    values: np.ndarray
    undefined_indices: tuple

    def defined_values(self) -> np.ndarray:
        if not self.undefined_indices:
            return self.values
        keep = np.ones(self.values.shape[0], dtype=bool)
        keep[list(self.undefined_indices)] = False
        return self.values[keep]


def _exponent(a, axis=None):
    """e per slice along axis with a / 2^e's largest magnitude in [0.5, 1):
    an exact scaling under which squares cannot overflow."""
    return np.frexp(np.maximum(a.max(axis=axis, keepdims=True, initial=0.0),
                               -a.min(axis=axis, keepdims=True, initial=0.0)))[1]


def _relative_errors(x_true, x_est, axis) -> ErrorVector:
    x_true = np.asarray(x_true, dtype=float)
    x_est = np.asarray(x_est, dtype=float)
    if x_true.shape != x_est.shape:
        raise ShapeError(f"shape mismatch {x_true.shape} != {x_est.shape}")
    if x_true.ndim != 2:
        raise ShapeError("expected 2-D matrices")
    e_den = _exponent(x_true, axis)
    den = np.linalg.norm(np.ldexp(x_true, -e_den), axis=axis)
    diff = x_est - x_true
    e_num = _exponent(diff, axis)
    num = np.linalg.norm(np.ldexp(diff, -e_num, out=diff), axis=axis)
    undefined = den == 0
    values = np.full(num.shape, np.nan)
    np.divide(num, den, out=values, where=~undefined)
    with np.errstate(over="ignore"):
        values = np.ldexp(values, (e_num - e_den).reshape(-1))
    if np.isinf(values).any():
        raise NumericalFailure("a relative error overflows float64")
    return ErrorVector(values, tuple(int(i) for i in np.flatnonzero(undefined)))


def sre(x_true, x_est) -> ErrorVector:
    """Per-OD-pair (row) relative errors."""
    return _relative_errors(x_true, x_est, axis=1)


def tre(x_true, x_est) -> ErrorVector:
    """Per-timestamp (column) relative errors."""
    return _relative_errors(x_true, x_est, axis=0)


def summary_stats(errors: ErrorVector) -> dict:
    """min/max/mean/median/std (population std) over the defined entries."""
    vals = errors.defined_values()
    if vals.size == 0:
        raise UsageError("no defined error values to summarize")
    # over a power of two, the sums and squares cannot overflow
    e = _exponent(vals)
    scaled = np.ldexp(vals, -e)
    stats = {"min": scaled.min(), "max": scaled.max(), "mean": scaled.mean(),
             "median": np.median(scaled), "std": scaled.std()}
    return {key: float(np.ldexp(value, e[0])) for key, value in stats.items()}


def cdf_points(errors: ErrorVector) -> np.ndarray:
    """Empirical CDF as an (m, 2) array of (value, fraction) rows, values
    ascending with duplicates collapsed; (0, 2) with no defined value."""
    vals = errors.defined_values()
    unique, counts = np.unique(vals, return_counts=True)
    return np.column_stack((unique, np.cumsum(counts) / vals.size))
