"""Initialization tests.

Covers:
  - exact rank-1 recovery and the zero-matrix case
  - determinism (bit-identical repeats) and nonnegativity
  - the seed never fits worse than the zero factorization
  - beats a mean-scaled all-ones baseline on random data
  - the Gram-eigenvector triplets and the seed against np.linalg.svd, wide
    and tall; rank above the numerical rank
  - the whole-array sign fix and part choice against the per-column loop,
    bit for bit, an exact tie of the part norms included
  - AR weight seeding: exact recovery, normal-equation oracle, scale
    invariance, zero rows, empty lag sets
"""

import numpy as np
import pytest

import ttnmf.initialization as init
from ttnmf.errors import ConfigError
from ttnmf.factors import LagSet, lag_designs
from ttnmf.initialization import init_factors_svd, init_lag_weights


# ------------------------------------------------------------- factor seed

def test_rank1_matrix_recovered_exactly():
    rng = np.random.default_rng(0)
    u = rng.random(8) + 0.1
    v = rng.random(15) + 0.1
    x = np.outer(u, v)
    w, h = init_factors_svd(x, 1)
    rel = np.linalg.norm(x - w @ h) / np.linalg.norm(x)
    assert rel <= 1e-10
    assert w.min() >= 0 and h.min() >= 0


def test_zero_matrix_gives_zero_factors():
    w, h = init_factors_svd(np.zeros((4, 6)), 2)
    assert not w.any() and not h.any()
    assert w.shape == (4, 2) and h.shape == (2, 6)


def test_rank_bounds():
    x = np.ones((3, 5))
    with pytest.raises(ConfigError):
        init_factors_svd(x, 0)
    with pytest.raises(ConfigError):
        init_factors_svd(x, 4)


def test_seed_never_worse_than_zero_factorization():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        T = int(rng.integers(2, 20))
        k = int(rng.integers(1, min(n, T) + 1))
        x = rng.random((n, T)) * rng.uniform(0.1, 50)
        w, h = init_factors_svd(x, k)
        assert w.min() >= 0 and h.min() >= 0
        assert np.linalg.norm(x - w @ h) <= np.linalg.norm(x) * (1 + 1e-12)


def test_seed_beats_flat_baseline():
    rng = np.random.default_rng(2)
    x = rng.random((20, 50))
    w, h = init_factors_svd(x, 4)
    rel = np.linalg.norm(x - w @ h) / np.linalg.norm(x)
    baseline = np.full_like(x, x.mean())
    rel_baseline = np.linalg.norm(x - baseline) / np.linalg.norm(x)
    assert rel < rel_baseline


def test_seed_deterministic():
    rng = np.random.default_rng(3)
    x = rng.random((9, 13))
    w1, h1 = init_factors_svd(x, 3)
    w2, h2 = init_factors_svd(x, 3)
    assert np.array_equal(w1, w2) and np.array_equal(h1, h2)


def _full_svd(x, rank):
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    return u[:, :rank], s[:rank], vt[:rank]


def _sign_rule(u, vt):
    """Flip each pair so that the largest-magnitude entry of u is positive."""
    flip = np.where(u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
                    < 0, -1.0, 1.0)
    return u * flip, vt * flip[:, None]


@pytest.mark.parametrize("shape", [(9, 14), (14, 9)])
def test_seed_matches_full_svd(monkeypatch, shape):
    # the Gram-eigenvector triplets against np.linalg.svd's under the sign
    # rule, on a wide and a tall x; then the seed against the seed built from
    # np.linalg.svd
    x = np.random.default_rng(4).random(shape)
    u, s, vt = init._leading_svd(x, 4)
    u_ref, s_ref, vt_ref = _full_svd(x, 4)
    np.testing.assert_allclose(s, s_ref, rtol=1e-12)
    for got, ref in zip(_sign_rule(u, vt), _sign_rule(u_ref, vt_ref)):
        np.testing.assert_allclose(got, ref, atol=1e-10)

    w, h = init_factors_svd(x, 4)
    monkeypatch.setattr(init, "_leading_svd", _full_svd)
    w_ref, h_ref = init_factors_svd(x, 4)
    np.testing.assert_allclose(w, w_ref, atol=1e-10)
    np.testing.assert_allclose(h, h_ref, atol=1e-10)


@pytest.mark.parametrize("shape", [(10, 16), (16, 10)])
def test_seed_rank_above_numerical_rank(shape):
    # rank 2 data seeded at rank 5: the trailing Gram eigenvalues are
    # rounding, possibly negative; the factors stay finite and nonnegative
    rng = np.random.default_rng(9)
    x = rng.random((shape[0], 2)) @ rng.random((2, shape[1]))
    w, h = init_factors_svd(x, 5)
    assert np.isfinite(w).all() and np.isfinite(h).all()
    assert w.min() >= 0 and h.min() >= 0
    assert np.sum((x - w @ h) ** 2) <= np.sum(x * x)
    # zero singular values give zero vectors on the side not taken from the
    # Gram, with no division by zero
    u, s, vt = init._leading_svd(np.zeros(shape), 3)
    assert not s.any()
    assert not (vt if shape[0] <= shape[1] else u).any()


def _seed_per_column(x, rank):
    """The seed with its sign fix and part choice one column at a time: the
    reference for init_factors_svd's whole-array form."""
    n, T = x.shape
    spatial = np.zeros((n, rank))
    latent = np.zeros((rank, T))
    u, s, vt = init._leading_svd(x, rank)
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
        latent *= max(0.0, float(np.vdot(x, product)) / denom)
    return spatial, latent


def _same_bits(got, ref):
    return all(g.flags.c_contiguous and g.shape == r.shape
               and g.tobytes() == r.tobytes() for g, r in zip(got, ref))


@pytest.mark.parametrize("shape", [(9, 14), (14, 9), (40, 300), (300, 40)])
def test_seed_matches_per_column_reference(shape):
    # signed data too, whose leading singular vectors mix signs
    rng = np.random.default_rng(shape[0])
    for trial in range(6):
        draw = rng.random if trial % 2 else rng.standard_normal
        x = draw(shape) * rng.uniform(0.1, 50)
        for rank in (1, 2, min(shape) // 2, min(shape)):
            assert _same_bits(init_factors_svd(x, rank),
                              _seed_per_column(x, rank)), (trial, rank)


def test_seed_part_choice_on_an_exact_tie(monkeypatch):
    # pairs counted from 0: pair 1's positive and negative parts have equal
    # norm products, and the positive pair is kept; pair 2's largest-
    # magnitude entries tie, and the first of them, negative, sets the sign
    u = np.array([[0.5, 0.5, -0.5], [0.5, -0.5, 0.5],
                  [0.5, 0.5, -0.5], [0.5, -0.5, 0.25]])
    s = np.array([4.0, 2.0, 1.0])
    vt = np.array([[0.5, 0.5, 0.5, 0.5, 0.0],
                   [0.5, -0.5, -0.5, 0.5, 0.0],
                   [0.0, 0.25, -0.75, 0.5, 0.25]])
    x = np.abs(u * s @ vt) + 1.0
    monkeypatch.setattr(init, "_leading_svd",
                        lambda x, rank: (u.copy(), s.copy(), vt.copy()))
    w, h = init_factors_svd(x, 3)
    assert _same_bits((w, h), _seed_per_column(x, 3))
    assert np.array_equal(w[:, 1] > 0, u[:, 1] > 0)
    assert np.array_equal(w[:, 2] > 0, u[:, 2] < 0)


# ---------------------------------------------------------- AR weight seed

def test_lag_weights_recover_exact_ar():
    ls = LagSet([1, 2])
    true = np.array([[0.6, 0.3], [0.2, 0.5]])
    rng = np.random.default_rng(4)
    T = 40
    latent = np.zeros((2, T))
    latent[:, :2] = rng.uniform(0.5, 2.0, size=(2, 2))
    for t in range(2, T):
        latent[:, t] = true[:, 0] * latent[:, t - 1] \
            + true[:, 1] * latent[:, t - 2]
    got = init_lag_weights(latent, ls)
    np.testing.assert_allclose(got, true, atol=1e-8)


def test_lag_weights_match_normal_equation_oracle():
    latent = np.array([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])
    ls = LagSet([1])
    design = lag_designs(latent, ls)[0]
    # one regressor: omega = <h, d> / <d, d>, then clipped at 0
    oracle = max(float(latent[0] @ design[0]) / float(design[0] @ design[0]), 0.0)
    got = init_lag_weights(latent, ls)
    assert got.shape == (1, 1)
    assert got[0, 0] == pytest.approx(oracle, rel=1e-12)
    assert oracle == pytest.approx(70.0 / 55.0)


def test_lag_weights_zero_row_and_empty_set():
    assert not init_lag_weights(np.zeros((2, 6)), LagSet([1, 2])).any()
    # a zero row's design is all zero, and so is its pseudoinverse; the
    # other rows keep their own fits
    latent = np.random.default_rng(6).random((3, 30))
    latent[1] = 0.0
    got = init_lag_weights(latent, LagSet([1, 4]))
    assert got[1].tobytes() == np.zeros(2).tobytes()
    for p in (0, 2):
        np.testing.assert_array_equal(
            got[p], init_lag_weights(latent[p:p + 1], LagSet([1, 4]))[0])
    out = init_lag_weights(np.ones((3, 6)), LagSet())
    assert out.shape == (3, 0)


def test_lag_weights_of_constant_rows_split_evenly():
    # a constant row's lag design has rank 1, and the minimum-norm fit puts
    # 1/|lags| on each lag; a Gram cut-off below the Gram's rounding floor
    # would fit that rounding instead
    for lags in ((1, 2), (1, 2, 3)):
        got = init_lag_weights(np.full((2, 40), 3.7), LagSet(lags))
        np.testing.assert_allclose(got, 1.0 / len(lags), rtol=1e-12)
    # a row constant to 1e-9 relative is fitted as a constant one, not by
    # weights that blow its noise up
    row = 3.7 + 1e-9 * np.random.default_rng(7).standard_normal((1, 40))
    for lags in ((1, 2), (1, 2, 3)):
        got = init_lag_weights(row, LagSet(lags))
        np.testing.assert_allclose(got, 1.0 / len(lags), rtol=1e-6)


def test_lag_weights_nonnegative():
    # an anti-correlated row would fit a negative weight; projection clips it
    latent = np.array([[1.0, -0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]])
    got = init_lag_weights(latent, LagSet([1]))
    assert got.min() >= 0.0


def test_lag_weights_scale_invariant():
    rng = np.random.default_rng(5)
    latent = rng.random((2, 25))
    ls = LagSet([1, 3])
    base = init_lag_weights(latent, ls)
    scaled = init_lag_weights(7.3 * latent, ls)
    np.testing.assert_allclose(scaled, base, atol=1e-10)


def test_lag_weights_rejects_long_lag():
    with pytest.raises(ConfigError):
        init_lag_weights(np.ones((1, 4)), LagSet([4]))
