import math

import numpy as np
import pytest

from polyschwarz import multiindex as mi


def test_degree_examples():
    assert mi.degree((0, 0, 0)) == 0
    assert mi.degree((2, 1, 3)) == 6
    assert mi.degree((5,)) == 5


def test_factorial_examples():
    assert mi.factorial((0, 0)) == 1
    assert mi.factorial((2, 1, 3)) == 12
    assert mi.factorial((4,)) == 24


def test_factorial_large_no_wraparound():
    # Python ints are arbitrary precision; a large order must stay exact.
    assert mi.factorial((25, 25)) == math.factorial(25) ** 2


def test_enumerate_examples():
    assert mi.enumerate_indices(1, 2) == [(0,), (1,), (2,)]
    assert mi.enumerate_indices(2, 1) == [(0, 0), (0, 1), (1, 0)]
    assert mi.enumerate_indices(2, 2, min_component=1) == [(1, 1)]


def test_enumerate_graded_lex_and_no_duplicates():
    out = mi.enumerate_indices(3, 4)
    assert len(out) == len(set(out))
    degs = [mi.degree(k) for k in out]
    assert degs == sorted(degs)
    for a, b in zip(out, out[1:]):
        if mi.degree(a) == mi.degree(b):
            assert a < b


@pytest.mark.parametrize("n,d", [(1, 5), (2, 4), (3, 3), (4, 2)])
def test_enumerate_count_binomial(n, d):
    assert len(mi.enumerate_indices(n, d)) == math.comb(n + d, n)


def test_degree_additive_and_factorial_permutation_invariant():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        a = tuple(int(x) for x in rng.integers(0, 6, n))
        b = tuple(int(x) for x in rng.integers(0, 6, n))
        summed = tuple(x + y for x, y in zip(a, b))
        assert mi.degree(summed) == mi.degree(a) + mi.degree(b)
        perm = tuple(a[i] for i in rng.permutation(n))
        assert mi.factorial(perm) == mi.factorial(a)
        assert mi.factorial(a) >= 1


def test_validation():
    with pytest.raises(ValueError):
        mi.as_index(())
    with pytest.raises(ValueError):
        mi.as_index((1, -2))
    with pytest.raises(ValueError):
        mi.as_index((1.5,))
    # int(inf) raises OverflowError, which once passed through
    for bad in ((math.inf,), (1, -math.inf)):
        with pytest.raises(ValueError, match="must be integers"):
            mi.as_index(bad)
    # neither is a scalar, None, a nested list or a string that int() refuses
    for bad in (5, None, 1.5, [[1]], ["x"], (1, "2")):
        with pytest.raises(ValueError, match="must be integers"):
            mi.as_index(bad)
    with pytest.raises(ValueError):
        mi.enumerate_indices(0, 3)
    with pytest.raises(ValueError):
        mi.enumerate_indices(2, -1)


def test_an_order_whose_factorial_is_not_a_double_is_refused():
    # 170! = 7.3e306 is a double, 171! is not, nor is 100! * 100! = 8.7e315.
    assert mi.as_order((170,)) == (170,) and mi.as_order((170, 2)) == (170, 2)
    for alpha in ((171,), (100, 100), (10**9,)):
        with pytest.raises(ValueError, match="largest double"):
            mi.as_order(alpha)


def test_unit_index():
    assert mi.unit_index(3, 1) == (0, 1, 0)
    with pytest.raises(ValueError):
        mi.unit_index(2, 2)


def test_grid_rows_match_meshgrid_and_pass_32_axes():
    axes = [np.arange(3), np.array([0.5, -1.0]), np.array([2j, 1.0, 0.0, 7.0])]
    rows = mi.grid_rows(axes)
    grids = np.meshgrid(*axes, indexing="ij")
    np.testing.assert_array_equal(rows, np.stack([g.ravel() for g in grids], axis=-1))
    assert rows.dtype == complex
    # np.meshgrid refuses more than 32 axes
    rows = mi.grid_rows([np.array([0.1, 0.2])] + [np.array([0.3])] * 39)
    assert rows.shape == (2, 40) and rows[1, 0] == 0.2 and np.all(rows[:, 1:] == 0.3)
    assert mi.grid_rows([np.arange(2), np.arange(0)]).shape == (0, 2)
