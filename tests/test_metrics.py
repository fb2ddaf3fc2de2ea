"""Relative error metrics, summaries and CDF points."""

import warnings

import numpy as np
import pytest

from ttnmf import ErrorVector, cdf_points, sre, summary_stats, tre
from ttnmf.errors import NumericalFailure, ShapeError, UsageError


def test_sre_exact_estimate_is_zero():
    rng = np.random.default_rng(0)
    x = rng.random((5, 7)) + 0.1
    ev = sre(x, x)
    assert ev.undefined_indices == ()
    np.testing.assert_allclose(ev.values, 0.0)


def test_sre_doubled_estimate_is_one():
    # ||2x - x|| / ||x|| = 1 on every row without zeros
    rng = np.random.default_rng(1)
    x = rng.random((6, 9)) + 0.1
    ev = sre(x, 2.0 * x)
    np.testing.assert_allclose(ev.values, 1.0, rtol=1e-12)


def test_sre_is_row_wise_and_tre_column_wise():
    x_true = np.array([[1.0, 0.0], [0.0, 2.0]])
    x_est = np.array([[1.0, 1.0], [0.0, 2.0]])
    row = sre(x_true, x_est)
    col = tre(x_true, x_est)
    np.testing.assert_allclose(row.values, [1.0, 0.0])
    np.testing.assert_allclose(col.values, [0.0, 0.5])


def test_tre_single_column_hand_value():
    x_true = np.array([[3.0], [4.0]])
    x_est = np.array([[3.0], [1.0]])
    ev = tre(x_true, x_est)
    # ||(0, -3)|| / ||(3, 4)|| = 3/5
    np.testing.assert_allclose(ev.values, [0.6], rtol=1e-15)


def test_metrics_scale_invariance():
    rng = np.random.default_rng(2)
    x_true = rng.random((4, 11)) + 0.1
    x_est = rng.random((4, 11))
    base = sre(x_true, x_est).values
    scaled = sre(10.0 * x_true, 10.0 * x_est).values
    np.testing.assert_allclose(scaled, base, rtol=1e-12)


def test_metrics_at_extreme_magnitudes_do_not_overflow():
    # each row or column is taken over a power of two, an exact scaling, so
    # the squares in the norms cannot overflow; a numpy warning fails
    rng = np.random.default_rng(3)
    x_true = rng.random((4, 11)) + 0.1
    x_est = rng.random((4, 11))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f, axis in ((sre, 1), (tre, 0)):
            base = f(x_true, x_est).values
            big = f(2.0 ** 1000 * x_true, 2.0 ** 1000 * x_est).values
            assert big.tobytes() == base.tobytes()
            # an estimate 2^900 too large is off by about 2^900
            far = f(x_true, 2.0 ** 900 * x_est).values
            np.testing.assert_allclose(
                far, 2.0 ** 900 * np.linalg.norm(x_est, axis=axis)
                / np.linalg.norm(x_true, axis=axis), rtol=1e-12)
        stats = summary_stats(ErrorVector(np.array([1e300, 2e300, 3e300]), ()))
        assert stats["mean"] == stats["median"] == 2e300
        np.testing.assert_allclose(stats["std"], np.sqrt(2.0 / 3.0) * 1e300,
                                   rtol=1e-15)
        # a relative error beyond float64 is a numerical failure
        with pytest.raises(NumericalFailure, match="overflows float64"):
            tre(np.array([[1e-300]]), np.array([[1e300]]))


def test_zero_true_row_marked_undefined():
    x_true = np.array([[0.0, 0.0], [1.0, 1.0]])
    x_est = np.array([[1.0, 0.0], [1.0, 1.0]])
    ev = sre(x_true, x_est)
    assert ev.undefined_indices == (0,)
    assert np.isnan(ev.values[0])
    assert ev.values[1] == 0.0
    assert ev.defined_values().shape == (1,)


def test_metrics_shape_mismatch():
    with pytest.raises(ShapeError):
        sre(np.zeros((2, 3)), np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        tre(np.zeros(3), np.zeros(3))


def test_summary_stats_hand_values():
    ev = ErrorVector(np.array([1.0, 2.0, 3.0, 4.0]), ())
    stats = summary_stats(ev)
    assert stats["min"] == 1.0
    assert stats["max"] == 4.0
    assert stats["mean"] == 2.5
    assert stats["median"] == 2.5
    # population convention: sqrt(mean((v - 2.5)^2)) = sqrt(1.25)
    np.testing.assert_allclose(stats["std"], np.sqrt(1.25), rtol=1e-15)


def test_summary_stats_constant_vector():
    ev = ErrorVector(np.full(5, 0.7), ())
    stats = summary_stats(ev)
    assert stats["min"] == stats["max"] == stats["mean"] == stats["median"] == 0.7
    assert stats["std"] == 0.0


def test_summary_stats_skips_undefined():
    ev = ErrorVector(np.array([np.nan, 2.0, 4.0]), (0,))
    stats = summary_stats(ev)
    assert stats["mean"] == 3.0


def test_summary_stats_empty_raises():
    ev = ErrorVector(np.array([np.nan]), (0,))
    with pytest.raises(UsageError):
        summary_stats(ev)


def test_cdf_points_collapses_duplicates():
    ev = ErrorVector(np.array([1.0, 2.0, 1.0]), ())
    pts = cdf_points(ev)
    assert pts.shape == (2, 2)
    np.testing.assert_array_equal(pts, [[1.0, 2.0 / 3.0], [2.0, 1.0]])


def test_cdf_points_single_value():
    ev = ErrorVector(np.array([0.42]), ())
    np.testing.assert_array_equal(cdf_points(ev), [[0.42, 1.0]])


def test_cdf_points_sorted_and_ends_at_one():
    rng = np.random.default_rng(3)
    ev = ErrorVector(rng.random(50), ())
    values, fractions = cdf_points(ev).T
    assert (np.diff(values) > 0).all()
    assert (np.diff(fractions) > 0).all()
    assert fractions[-1] == 1.0
    assert ((0.0 < fractions) & (fractions <= 1.0)).all()


def test_cdf_points_empty():
    ev = ErrorVector(np.array([np.nan, np.nan]), (0, 1))
    pts = cdf_points(ev)
    assert pts.shape == (0, 2) and pts.dtype == np.float64
