import math

import numpy as np
import pytest

from polyschwarz import (ColonnaMap, JacobianPair, SeriesMap, direction_max, jacobian_pair,
                         random_bounded_map, reevaluate,
                         sharpness_ratio, sharpness_search)
from polyschwarz.search import FAMILIES, golden_max

FOUR_OVER_PI = 4.0 / math.pi


def _brute_force_direction_max(d, dbar, grid=360):
    th = np.exp(1j * 2 * np.pi * np.arange(grid) / grid)
    n = d.shape[1]
    best = 0.0
    if n == 1:
        for t in th:
            best = max(best, np.linalg.norm(d[:, 0] * t + dbar[:, 0] * np.conj(t)))
    else:
        for t1 in th:
            col = d[:, 0, None] * t1 + dbar[:, 0, None] * np.conj(t1)
            vals = col + d[:, 1, None] * th[None, :] + dbar[:, 1, None] * np.conj(th)[None, :]
            best = max(best, float(np.max(np.linalg.norm(vals, axis=0))))
    return best


def test_golden_max_quadratic():
    x, fx = golden_max(lambda t: -(t - 0.3) ** 2, -1.0, 1.0, iters=40)
    assert x == pytest.approx(0.3, abs=1e-6)
    assert fx == pytest.approx(0.0, abs=1e-12)


def test_direction_max_closed_forms():
    # scalar case: max over |theta| = 1 of |a theta + b conj(theta)| is |a| + |b|
    _, v = direction_max(JacobianPair(np.array([[0.7j]]), np.array([[0.2]])))
    assert v == pytest.approx(0.9, abs=1e-9)
    _, v = direction_max(JacobianPair(np.array([[1.0, 0.0]]), np.zeros((1, 2))))
    assert v == pytest.approx(1.0, abs=1e-9)
    # pure holomorphic row vector: max is the l1 norm of the row
    _, v = direction_max(JacobianPair(np.array([[0.3, 0.4j]]), np.zeros((1, 2))))
    assert v == pytest.approx(0.7, abs=1e-8)


def test_direction_max_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(8):
        N, n = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        d = rng.normal(size=(N, n)) + 1j * rng.normal(size=(N, n))
        dbar = rng.normal(size=(N, n)) + 1j * rng.normal(size=(N, n))
        _, v = direction_max(JacobianPair(d, dbar))
        bf = _brute_force_direction_max(d, dbar)
        assert abs(v - bf) < 1e-3
        assert v >= bf - 1e-3  # never a gross underestimate


def test_direction_max_reparameterization_invariance():
    rng = np.random.default_rng(7)
    for _ in range(5):
        d = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        dbar = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        U = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 2)))
        _, v1 = direction_max(JacobianPair(d, dbar))
        _, v2 = direction_max(JacobianPair(d @ U, dbar @ np.conj(U)))
        assert v1 == pytest.approx(v2, abs=1e-8)


def test_direction_max_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        direction_max(JacobianPair(np.zeros((1, 2)), np.zeros((2, 2))))


def test_sharpness_ratio_examples():
    half = SeriesMap(1, 1, {(1,): [0.5]})
    assert sharpness_ratio(half, [0.0], (1,)) == pytest.approx(0.5 * math.pi / 4.0, abs=1e-12)
    assert sharpness_ratio(half, [0.0], (1,)) == pytest.approx(0.3926990816987241, abs=1e-12)
    # planar extremal attains the bound at the origin, on both evaluation paths
    series = ColonnaMap(1, 0, 1).to_series(40)
    assert sharpness_ratio(series, [0.0], (1,)) == pytest.approx(1.0, abs=1e-9)
    closed = ColonnaMap(1, 0, 1)
    assert sharpness_ratio(closed, [0.0], (1,)) == pytest.approx(1.0, abs=1e-7)


def test_sharpness_ratio_validation():
    f = random_bounded_map(1, 1, 2, seed=0)
    with pytest.raises(ValueError):
        sharpness_ratio(f, [0.1], (0,))


def test_sharpness_search_attains_planar_equality():
    res = sharpness_search(1, (1,), budget=30, seed=0)
    assert res.ratio == pytest.approx(1.0, abs=1e-9)
    assert res.evaluations <= 30


def test_sharpness_search_deterministic():
    r1 = sharpness_search(1, (2,), budget=40, seed=3)
    r2 = sharpness_search(1, (2,), budget=40, seed=3)
    assert r1.ratio == r2.ratio
    assert r1.z == r2.z
    assert r1.family_params == r2.family_params


def test_sharpness_search_monotone_in_budget():
    small = sharpness_search(1, (2,), budget=25, seed=4)
    large = sharpness_search(1, (2,), budget=120, seed=4)
    assert large.ratio >= small.ratio - 1e-15


def test_sharpness_search_random_family_and_n2():
    res = sharpness_search(1, (1,), family="random_series", budget=25, seed=0)
    assert 0.0 < res.ratio <= 1.0 + 1e-9
    res2 = sharpness_search(2, (1, 1), budget=15, seed=1)
    assert 0.0 < res2.ratio <= 1.0 + 1e-9
    assert len(res2.z) == 2


def test_sharpness_search_validation():
    with pytest.raises(ValueError):
        sharpness_search(2, (1,), budget=10)
    with pytest.raises(ValueError):
        sharpness_search(1, (1,), budget=0)
    with pytest.raises(ValueError):
        sharpness_search(1, (1,), family="nope", budget=10)


def test_reevaluate_reproduces_ratio():
    for family in FAMILIES:
        res = sharpness_search(1, (1,), family=family, budget=25, seed=2)
        assert reevaluate(res) == pytest.approx(res.ratio, abs=1e-9)
    res2 = sharpness_search(2, (1, 1), budget=15, seed=5)
    assert reevaluate(res2) == pytest.approx(res2.ratio, abs=1e-9)


def test_gradient_ratio_extremal_along_imaginary_axis():
    # adapted extremal keeps the first-order ratio at 1 away from the origin
    for t in (0.0, 0.3, 0.6, 0.9):
        f = ColonnaMap(1, 1j * t, 1)
        assert sharpness_ratio(f, [1j * t], (1,)) == pytest.approx(1.0, abs=1e-6)


def test_jacobian_pair_feeds_direction_max():
    f = random_bounded_map(2, 2, 3, seed=14)
    jp = jacobian_pair(f, [0.2, -0.1j])
    _, v = direction_max(jp)
    bf = _brute_force_direction_max(np.atleast_2d(jp.d), np.atleast_2d(jp.dbar))
    assert v == pytest.approx(bf, abs=1e-3)
