import math
import warnings

import numpy as np
import pytest

from polyschwarz import (ColonnaMap, ComposedMap, QuadratureSpec, SeriesMap, abs_cos_integral,
                         cauchy_derivative, derivative_exact, extract_coefficient,
                         extract_coefficients, jacobian_pair, random_bounded_map, sup_bound_l1,
                         torus_trapezoid, PolydiskAutomorphism)
from polyschwarz.multiindex import degree as mi_degree, enumerate_indices


def test_trapezoid_constant():
    assert torus_trapezoid(lambda t: np.ones_like(t), 1, 16) == pytest.approx(1.0)
    assert torus_trapezoid(lambda a, b: 1.0, 2, 16) == pytest.approx(1.0)


def test_trapezoid_orthogonality():
    val = torus_trapezoid(lambda t: np.exp(1j * t), 1, 16)
    assert abs(val) < 1e-15


def test_trapezoid_abs_cos_mean():
    val = torus_trapezoid(lambda t: np.abs(np.cos(t)), 1, 4096)
    assert val.real == pytest.approx(2.0 / math.pi, abs=1e-6)


def test_trapezoid_rejects_nonfinite():
    with pytest.raises(ValueError):
        torus_trapezoid(lambda t: 1.0 / np.sin(t), 1, 16)


def test_abs_cos_integral_known_values():
    assert abs_cos_integral(1, 0.0) == pytest.approx(4.0, abs=1e-6)
    assert abs_cos_integral(7, 2.5) == pytest.approx(4.0, abs=1e-6)
    # gamma = pi/2 turns the integrand into |sin|
    assert abs_cos_integral(1, math.pi / 2) == pytest.approx(4.0, abs=1e-6)


def test_abs_cos_integral_m_gamma_independence():
    rng = np.random.default_rng(42)
    for m in range(1, 11):
        for gamma in rng.uniform(0, 2 * math.pi, 20):
            assert abs(abs_cos_integral(m, gamma) - 4.0) < 1e-5


def test_abs_cos_integral_rejects_m_zero():
    with pytest.raises(ValueError):
        abs_cos_integral(0, 0.3)


def test_abs_cos_integral_rejects_no_nodes():
    for nodes in (0, -4):
        with pytest.raises(ValueError, match="nodes"):
            abs_cos_integral(1, 0.3, nodes=nodes)


def test_extract_simple_series():
    f = SeriesMap(2, 1, {(2, 0): [0.3]}, {(0, 1): [0.2]})
    spec = QuadratureSpec(32, (0.5, 0.5))
    a, b = extract_coefficient(f, (2, 0), spec)
    assert a[0] == pytest.approx(0.3, abs=1e-12)
    assert abs(b[0]) < 1e-12
    a, b = extract_coefficient(f, (0, 1), spec)
    assert abs(a[0]) < 1e-12
    assert b[0] == pytest.approx(0.2, abs=1e-12)


def test_extract_colonna_first_coefficient():
    f = ColonnaMap(1, 0, 1).to_series(32)
    a, b = extract_coefficient(f, (1,), QuadratureSpec(128, (0.5,)))
    assert abs(a[0]) + abs(b[0]) == pytest.approx(4.0 / math.pi, abs=1e-8)


def test_extract_spectral_exactness():
    f = random_bounded_map(2, 1, 4, seed=31)
    spec = QuadratureSpec(16, (0.6, 0.4))
    for k, (a, b) in extract_coefficients(f, 4, spec).items():
        np.testing.assert_allclose(a, f.holo.get(k, np.zeros(1)), atol=1e-12)
        np.testing.assert_allclose(b, f.anti.get(k, np.zeros(1)), atol=1e-12)


def test_extract_zero_index_merges_constant_with_warning():
    f = SeriesMap(1, 1, {(0,): [0.2]}, {(0,): [0.3]})
    with pytest.warns(RuntimeWarning, match="a_0"):
        a, b = extract_coefficient(f, (0,), QuadratureSpec(16, (0.5,)))
    assert a[0] == pytest.approx(0.2 + 0.3)  # conj(b_0) with real b_0
    assert b[0] == 0.0


def test_extract_nyquist_warning():
    f = random_bounded_map(1, 1, 8, seed=0)
    with pytest.warns(RuntimeWarning, match="Nyquist"):
        extract_coefficient(f, (1,), QuadratureSpec(16, (0.5,)))


def test_extract_node_count_too_small_for_index():
    f = random_bounded_map(1, 1, 2, seed=0)
    with pytest.raises(ValueError):
        extract_coefficient(f, (5,), QuadratureSpec(8, (0.5,)))


def test_cauchy_derivative_monomials():
    f = SeriesMap(1, 1, {(2,): [1.0]})
    A, B = cauchy_derivative(f, [0.3], (2,), QuadratureSpec(512, (0.8,)))
    assert A[0] == pytest.approx(2.0, abs=1e-10)
    assert abs(B[0]) < 1e-10

    g = SeriesMap(2, 1, {(1, 1): [1.0]}, {(2, 0): [1.0]})
    A, B = cauchy_derivative(g, [0.2, 0.1], (1, 1), QuadratureSpec(256, (0.7, 0.7)))
    assert A[0] == pytest.approx(1.0, abs=1e-10)
    assert abs(B[0]) < 1e-10


def test_cauchy_matches_exact_on_random_maps():
    rng = np.random.default_rng(77)
    for seed in range(5):
        n = 1 + seed % 2
        f = random_bounded_map(n, 1, 4, seed=seed)
        z = 0.4 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)) / math.sqrt(2)
        for alpha in enumerate_indices(n, 3):
            if mi_degree(alpha) == 0:
                continue
            A1, B1 = cauchy_derivative(f, z, alpha, QuadratureSpec(256, (0.8,)))
            A2, B2 = derivative_exact(f, z, alpha)
            np.testing.assert_allclose(A1, A2, atol=1e-9)
            np.testing.assert_allclose(B1, B2, atol=1e-9)


def test_cauchy_radius_independence():
    f = random_bounded_map(2, 1, 4, seed=55)
    z = np.array([0.3 + 0.1j, -0.2j])
    A1, B1 = cauchy_derivative(f, z, (2, 1), QuadratureSpec(256, (0.7,)))
    A2, B2 = cauchy_derivative(f, z, (2, 1), QuadratureSpec(256, (0.9,)))
    np.testing.assert_allclose(A1, A2, atol=1e-8)
    np.testing.assert_allclose(B1, B2, atol=1e-8)


def test_cauchy_works_on_composed_maps():
    f = random_bounded_map(2, 1, 3, seed=2)
    phi = PolydiskAutomorphism([0.3, -0.2j])
    T = ComposedMap(phi, f)
    # chain rule at 0 for first-order derivatives: D(f o phi)(0) = Df(phi(0)) Dphi(0)
    A, B = cauchy_derivative(T, [0.0, 0.0], (1, 0), QuadratureSpec(256, (0.7,)))
    Afz, _ = derivative_exact(f, phi.center, (1, 0))
    assert A[0] == pytest.approx(Afz[0] * (1 - abs(phi.center[0]) ** 2), abs=1e-9)


def test_cauchy_rejects_bad_inputs():
    f = random_bounded_map(1, 1, 2, seed=0)
    with pytest.raises(ValueError):
        cauchy_derivative(f, [0.8], (1,), QuadratureSpec(64, (0.5,)))
    with pytest.raises(ValueError):
        cauchy_derivative(f, [0.1], (0,))


def test_default_contour_radius_rule():
    # default radius (||z||_inf + 1)/2 capped at 0.95 must be admissible
    f = random_bounded_map(1, 1, 3, seed=4)
    A1, _ = cauchy_derivative(f, [0.5], (1,))
    A2, _ = derivative_exact(f, [0.5], (1,))
    assert A1[0] == pytest.approx(A2[0], abs=1e-9)


def _count_grid_builds(mapping) -> list:
    builds = []
    grid = mapping.eval_grid
    mapping.eval_grid = lambda axes: builds.append(axes) or grid(axes)
    return builds


def test_sample_cache_holds_only_the_latest_keys():
    f = random_bounded_map(2, 1, 4, seed=3)
    builds = _count_grid_builds(f)
    ts = np.linspace(0.0, 0.85, 10)
    for t in ts:
        for alpha in ((1, 1), (3, 1)):  # consecutive orders at one point share a sample
            cauchy_derivative(f, [t, 0.3j * t], alpha)
    assert len(builds) == len(ts)
    radii = [min(0.95, (t + 1.0) / 2.0) for t in ts[-2:]]
    assert list(f._quad_cache) == [((r, r), 512) for r in radii]
    # the n first-order derivatives of a Jacobian share one sample too
    T = ComposedMap(PolydiskAutomorphism([0.2, 0.1j]), f)
    builds = _count_grid_builds(T)
    jacobian_pair(T, [0.3, -0.2j])
    assert len(builds) == 1 and len(T._quad_cache) == 1


def test_sup_bound_l1():
    f = SeriesMap(2, 1, {(1, 0): [0.6]}, {(0, 1): [0.3]})
    assert sup_bound_l1(f) == pytest.approx(0.9)
    const = SeriesMap(1, 1, {(0,): [0.25j]})
    assert sup_bound_l1(const) == pytest.approx(0.25)
    assert sup_bound_l1(random_bounded_map(2, 1, 3, seed=1, margin=0.05)) <= 0.95 + 1e-12
    T = ComposedMap(PolydiskAutomorphism([0.1, 0.1]), f)
    with pytest.raises(ValueError):
        sup_bound_l1(T)


def test_parseval_consistency():
    f = random_bounded_map(2, 2, 3, seed=19)
    radii = (0.7, 0.5)
    M = 16
    theta = 2 * np.pi * np.arange(M) / M
    g1, g2 = np.meshgrid(radii[0] * np.exp(1j * theta), radii[1] * np.exp(1j * theta),
                         indexing="ij")
    vals = f.eval_points(np.stack([g1, g2], axis=-1))
    lhs = float(np.mean(np.sum(np.abs(vals) ** 2, axis=-1)))
    rhs = float(np.linalg.norm(f([0, 0])) ** 2)
    for table in (f.holo, f.anti):
        for k, v in table.items():
            if mi_degree(k) >= 1:
                rhs += float(np.linalg.norm(v) ** 2) * (radii[0] ** k[0] * radii[1] ** k[1]) ** 2
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(4)
    with pytest.raises(ValueError):
        QuadratureSpec(64, (1.0,))
    spec = QuadratureSpec(64, (0.5,))
    assert spec.resolve_radii(3, 0.7) == (0.5, 0.5, 0.5)
    assert QuadratureSpec(64).resolve_radii(2, 0.7) == (0.7, 0.7)


def test_torus_sample_size_guard(monkeypatch):
    f = random_bounded_map(3, 1, 2, seed=0)

    def no_allocation(self, axes):
        raise AssertionError("the guard must refuse before evaluating the grid")

    monkeypatch.setattr(SeriesMap, "eval_grid", no_allocation)
    # default Cauchy nodes at n = 3: 512^3 complex values, 2048 MiB
    with pytest.raises(ValueError, match="2048 MiB"):
        cauchy_derivative(f, [0.1, 0.2, 0.3], (1, 1, 1))
    with pytest.raises(ValueError, match="--nodes"):
        extract_coefficients(random_bounded_map(2, 2, 2, seed=0), 2, QuadratureSpec(4096))
