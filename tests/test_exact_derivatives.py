"""Exact derivatives of every map class against Cauchy quadrature.

derivative_exact uses a closed form (ColonnaMap), truncated Taylor products
(BlaschkeProduct) or Faa di Bruno through the Mobius factors (ComposedMap);
cauchy_derivative only samples the map's values on a torus, so neither side
is derived from the other.
"""

import math
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from polyschwarz import (BlaschkeProduct, ColonnaMap, ComposedMap, PluriharmonicMap,
                         PolydiskAutomorphism, SeriesMap, cauchy_derivative, derivative_exact,
                         jacobian_pair, random_bounded_map, verify_derivative_bound,
                         verify_gradient_bound)
from polyschwarz.mapping import _axis_weights
from polyschwarz.multiindex import degree as mi_degree, enumerate_indices

REL_TOL = 1e-9


def _disk(rng, cap, size=None):
    """Points of modulus at most cap, uniform in area."""
    return cap * np.sqrt(rng.uniform(size=size)) * np.exp(2j * np.pi * rng.uniform(size=size))


def _unimodular(rng, size=None):
    return np.exp(2j * np.pi * rng.uniform(size=size))


def _assert_matches_cauchy(f, z, alpha):
    A, B = derivative_exact(f, z, alpha)
    Ac, Bc = cauchy_derivative(f, z, alpha)
    scale = max(np.max(np.abs(A)), np.max(np.abs(B)))
    assert scale > 0
    error = max(np.max(np.abs(A - Ac)), np.max(np.abs(B - Bc)))
    assert error <= REL_TOL * scale, (alpha, error / scale)


def test_colonna_closed_form_matches_cauchy():
    rng = np.random.default_rng(1)
    for _ in range(40):
        f = ColonnaMap(_unimodular(rng), _disk(rng, 0.8), _unimodular(rng))
        z = [_disk(rng, 0.6)]
        for m in (1, 2, 3):
            _assert_matches_cauchy(f, z, (m,))


def test_blaschke_taylor_products_match_cauchy():
    rng = np.random.default_rng(2)
    for count in (2, 3, 2, 3, 3):
        f = BlaschkeProduct(_disk(rng, 0.7, count), _unimodular(rng))
        z = [_disk(rng, 0.6)]
        for m in (1, 2, 3, 4):
            _assert_matches_cauchy(f, z, (m,))
            assert not derivative_exact(f, z, (m,))[1].any()


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("N", [1, 2])
def test_composed_series_matches_cauchy(n, N):
    rng = np.random.default_rng(10 * n + N)
    for seed in range(3):
        outer = random_bounded_map(n, N, 3, seed=seed)
        f = ComposedMap(PolydiskAutomorphism(_disk(rng, 0.5, n), _unimodular(rng, n)), outer)
        z = _disk(rng, 0.6, n)
        for alpha in enumerate_indices(n, 3):
            if mi_degree(alpha):
                _assert_matches_cauchy(f, z, alpha)


def test_composed_colonna_matches_cauchy():
    rng = np.random.default_rng(4)
    for _ in range(10):
        outer = ColonnaMap(_unimodular(rng), _disk(rng, 0.6), _unimodular(rng))
        f = ComposedMap(PolydiskAutomorphism([_disk(rng, 0.5)], [_unimodular(rng)]), outer)
        z = [_disk(rng, 0.6)]
        for m in (1, 2, 3):
            _assert_matches_cauchy(f, z, (m,))


def test_order_zero_is_the_value():
    rng = np.random.default_rng(5)
    maps = [ColonnaMap(_unimodular(rng), 0.3 - 0.2j, _unimodular(rng)),
            BlaschkeProduct([0.2, -0.5j], _unimodular(rng)),
            ComposedMap(PolydiskAutomorphism([0.3, 0.1j]), random_bounded_map(2, 2, 3, seed=1))]
    for f in maps:
        z = _disk(rng, 0.7, f.n)
        A, B = derivative_exact(f, z, (0,) * f.n)
        np.testing.assert_allclose(A + B, f(z), rtol=0, atol=1e-14)


def test_composed_first_order_is_the_chain_rule():
    phi = PolydiskAutomorphism([0.3, -0.2j], [1j, -1.0])
    outer = random_bounded_map(2, 1, 3, seed=2)
    jp = jacobian_pair(ComposedMap(phi, outer), [0.0, 0.0])
    inner = jacobian_pair(outer, phi.center)
    scale = np.diag(phi.derivative_at_zero())
    np.testing.assert_allclose(jp.d, inner.d * scale, rtol=1e-14)
    np.testing.assert_allclose(jp.dbar, inner.dbar * np.conj(scale), rtol=1e-14)


def _closed_form_maps():
    return [ColonnaMap(np.exp(0.4j), 0.3 + 0.1j, np.exp(1.1j)),
            BlaschkeProduct([0.4, -0.3j, 0.1 + 0.5j], np.exp(0.3j)),
            ComposedMap(PolydiskAutomorphism([0.3, 0.2j]), random_bounded_map(2, 1, 3, seed=6)),
            ComposedMap(PolydiskAutomorphism([0.4j]), ColonnaMap(1.0, 0.2, 1.0))]


@pytest.mark.parametrize("f", _closed_form_maps(), ids=["colonna", "blaschke", "composed",
                                                        "composed-colonna"])
def test_verify_derivative_bound_is_exact_by_default(f):
    z = [0.4j] + [0.3] * (f.n - 1)
    alpha = (2,) * f.n
    exact = verify_derivative_bound(f, z, alpha)
    assert exact.params["method"] == "exact" and exact.tol == 1e-9 and exact.passed
    cauchy = verify_derivative_bound(f, z, alpha, method="cauchy")
    assert cauchy.params["method"] == "cauchy" and cauchy.tol == 1e-7 and cauchy.passed
    assert cauchy.lhs == pytest.approx(exact.lhs, rel=REL_TOL)
    gradient = verify_gradient_bound(f, z)
    assert gradient.passed and gradient.tol == 1e-9


def test_high_orders_of_closed_forms():
    # L(z) = log((1+z)/(1-z)) has L^(m)(0) = 2 (m-1)! for odd m, so |h^(m)(0)| = 2 (m-1)!/pi
    A, B = derivative_exact(ColonnaMap(1, 0, 1), [0.0], (21,))
    assert abs(A[0]) == pytest.approx(2 * math.factorial(20) / math.pi, rel=1e-14)
    assert abs(B[0]) == pytest.approx(abs(A[0]), rel=1e-15)
    # beyond 170 (171! overflows a double) only finite series are differentiated
    with pytest.raises(ValueError, match="finite series"):
        derivative_exact(ColonnaMap(1, 0, 1), [0.1], (171,))
    assert not derivative_exact(random_bounded_map(1, 1, 3, seed=0), [0.1], (171,))[0].any()


def test_falling_factorials_past_the_largest_double_are_infinite():
    # k!/(k - 120)! passes the largest double below k = 1000; it once raised OverflowError.
    weights, finite = _axis_weights(120, 1001)
    assert not weights[:120].any() and not finite
    falling = weights[120:]
    exact = [math.perm(k, 120) for k in range(120, 1001)]
    fits = sum(p <= sys.float_info.max for p in exact)
    assert 0 < fits < len(exact)
    assert falling[:fits].tolist() == [float(p) for p in exact[:fits]]
    assert np.isinf(falling[fits:]).all()
    with np.errstate(invalid="ignore", over="ignore"):
        A, _ = derivative_exact(random_bounded_map(1, 1, 1000, seed=1), [0.5], (120,))
    assert not np.isfinite(A).all()


def test_a_series_derivative_past_the_double_range_of_its_weights_is_finite_at_zero():
    # At z = 0 the inf weights of k > alpha multiply zero powers; that once gave NaN.
    f = random_bounded_map(1, 1, 1000, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        A, B = derivative_exact(f, [0.0], (120,))
    weight = float(math.factorial(120))
    assert A[0] == weight * f.a[0, 120] and B[0] == np.conj(weight * f.b[0, 120])


def test_a_series_derivative_copies_no_coefficient_tensor():
    # Cutting c to k_j >= alpha_j and copying the cut on every call once peaked at 30.6 MiB
    # here; c is contracted whole against tables that are 0 below alpha_j.
    c = np.zeros((2, 1000, 1000), dtype=complex)
    c[0, 1, 0], c[1, 2, 0] = 0.5, 0.25  # a_(1, 0) and b_(2, 0)
    f = SeriesMap.from_tensors(c)
    derivative_exact(f, [0.1, 0.1], (1, 0))  # numpy's first call of a kind allocates caches
    tracemalloc.start()
    try:
        A, B = derivative_exact(f, [0.1, 0.1], (1, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    # dbar of conj(b) conj(z_1)^2 is 2 conj(b z_1); both sums are exact here
    assert A[0] == 0.5 and B[0] == np.conj(0.25 * (2 * 0.1))


@pytest.mark.parametrize("n, N", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
def test_series_values_are_the_order_zero_derivative_sums(n, N):
    # eval_points is the order-0 case of the one pointwise contraction, its two sums added.
    f = random_bounded_map(n, N, 6 if n < 3 else 3, seed=3 * n + N)
    Z = _disk(np.random.default_rng(n + N), 0.95, (6, n))
    A, B = derivative_exact(f, Z, (0,) * n)
    assert np.array_equal(f.eval_points(Z), A + B)
    assert np.array_equal(f.eval_points(Z.reshape(2, 3, n)), (A + B).reshape(2, 3, N))


def _fractions(w) -> tuple[Fraction, Fraction]:
    return Fraction(w.real), Fraction(w.imag)


def _times(x, y) -> tuple[Fraction, Fraction]:
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


@pytest.mark.parametrize("n, N, degree", [(1, 2, 40), (2, 1, 40), (2, 2, 20), (3, 1, 10)])
def test_series_derivatives_are_within_their_first_order_rounding_bound(n, N, degree):
    """derivative_exact of a random series against its exact sum.

    A float is a dyadic rational, so Fraction holds every coefficient and coordinate
    exactly and sum_k c_k prod_j k_j!/(k_j - alpha_j)! z_j^(k_j - alpha_j) is summed without
    rounding.  To first order in u = 2^-53, the computed sum errs by at most

        sum_k |c_k| W_k sum_j u (2 sqrt(2) (k_j - alpha_j - 1)^+ + 2 + 2 sqrt(2) D_j),

    W_k = prod_j k_j!/(k_j - alpha_j)! |z_j|^(k_j - alpha_j), since
    - the table's power z_j^m is a running product, 1 * z_j (exact) and then m - 1 complex
      products, each within 2 sqrt(2) u relative (Higham, Accuracy and Stability of
      Numerical Algorithms, Lemma 3.5; a fused multiply-add does no worse);
    - its weight k_j!/(k_j - alpha_j)! is rounded to a double (u) and multiplied in by
      one product with a real number (u);
    - each axis is a complex dot product of length D_j, whose real and imaginary parts
      are sums of 2 D_j real products, in any order: within 2 D_j u times
      sum |x_k| |y_k| each, so 2 sqrt(2) D_j u in modulus;
    and conjugating the anti-holomorphic sum is exact.  The bound is evaluated in doubles:
    its own rounding, like the terms left out, is of second order.
    """
    u = 2.0**-53
    rng = np.random.default_rng(10 * n + degree)
    f = random_bounded_map(n, N, degree, seed=n + N)
    for z in _disk(rng, 0.99, (3, n)):
        # alpha_j <= 8 and |alpha| <= degree, so that some term of every component survives
        alpha = tuple(int(a) for a in rng.integers(0, min(8, degree // n) + 1, n))
        A, B = derivative_exact(f, z, alpha)
        exact, majorant, allowance = [], [], []  # per axis, at each k_j
        for zj, aj, dj in zip(z, alpha, f.c.shape[1:]):
            ks = range(aj, dj)
            power, powers = (Fraction(1), Fraction(0)), []
            for _ in ks:
                powers.append(power)
                power = _times(power, _fractions(zj))
            exact.append([(Fraction(0), Fraction(0))] * min(aj, dj)
                         + [(math.perm(k, aj) * p[0], math.perm(k, aj) * p[1])
                            for k, p in zip(ks, powers)])
            majorant.append(np.array([0.0] * min(aj, dj) + [math.perm(k, aj) * abs(zj) ** (k - aj)
                                                            for k in ks]))
            allowance.append(np.array([u * (2 * math.sqrt(2) * max(k - aj - 1, 0) + 2
                                            + 2 * math.sqrt(2) * dj) for k in range(dj)]))
        sums = [(Fraction(0), Fraction(0))] * (2 * N)
        for k in zip(*np.nonzero(np.any(f.c, axis=0))):
            w = (Fraction(1), Fraction(0))
            for table, kj in zip(exact, k):
                w = _times(w, table[kj])
            for r in range(2 * N):
                term = _times(_fractions(f.c[(r, *k)]), w)
                sums[r] = (sums[r][0] + term[0], sums[r][1] + term[1])
        W = math.prod(np.ix_(*majorant))
        errors = sum(np.ix_(*allowance))
        bounds = [float(np.sum(np.abs(f.c[r]) * W * errors)) for r in range(2 * N)]
        assert min(bounds) > 0
        computed = list(A) + list(np.conj(B))
        for r in range(2 * N):
            d = _fractions(computed[r])
            d = (d[0] - sums[r][0], d[1] - sums[r][1])
            assert d[0] ** 2 + d[1] ** 2 <= Fraction(bounds[r]) ** 2, (alpha, r)


def test_a_map_without_exact_derivatives_asks_for_cauchy():
    class Values(PluriharmonicMap):
        n = N = 1

        def eval_points(self, Z):
            return np.asarray(Z, dtype=complex) ** 2

    f = Values()
    with pytest.raises(ValueError, match="cauchy"):
        derivative_exact(f, [0.2], (1,))
    A, _ = cauchy_derivative(f, [0.2], (1,))
    assert A[0] == pytest.approx(0.4, abs=1e-12)
