import dataclasses
import math
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from polyschwarz import mapping
from polyschwarz import (BlaschkeProduct, ColonnaMap, ComposedMap, PluriharmonicMap,
                         QuadratureSpec, SeriesMap,
                         abs_cos_integral, cauchy_derivative, cauchy_rule, derivative_exact,
                         extract_coefficient, extract_coefficients, jacobian_pair,
                         random_bounded_map, torus_trapezoid,
                         verify_derivative_bound, PolydiskAutomorphism)
from polyschwarz.multiindex import degree as mi_degree, enumerate_indices, grid_rows
from polyschwarz.quadrature import CAUCHY_ERROR_TARGET


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
    # The default radius of axis j is max(0.5, sqrt(|z_j|)), admissible up to |z_j| -> 1.
    f = random_bounded_map(2, 1, 3, seed=4)
    for z in ([0.5, 0.1j], [0.99, -0.2], [0.0, 0.999j]):
        rule = cauchy_rule(z, (1, 2), 0.95)
        assert rule.radii == tuple(max(0.5, math.sqrt(abs(c))) for c in z)
        A1, B1 = cauchy_derivative(f, z, (1, 2), rule)
        A2, B2 = derivative_exact(f, z, (1, 2))
        assert abs(A1[0] - A2[0]) + abs(B1[0] - B2[0]) <= rule.error_bound + rule.rounding
    # an explicit spec is honoured as it is, and the rule carries its bound
    rule = cauchy_rule([0.5], (1,), 1.0, QuadratureSpec(64, (0.8,)))
    assert (rule.radii, rule.nodes) == ((0.8,), (64,)) and 1e-3 < rule.error_bound < 1e-2


def test_per_axis_contours():
    # Each axis needs only r_j > |z_j|: the old check min(radii) > ||z||_inf refused
    # this spec with "contour radius 0.6 must exceed ||z||_inf = 0.6".
    f = random_bounded_map(2, 1, 4, seed=8)
    z = [0.6, 0.2]
    for alpha in ((1, 1), (2, 1), (1, 3)):
        A1, B1 = cauchy_derivative(f, z, alpha, QuadratureSpec(512, (0.8, 0.6)))
        A2, B2 = derivative_exact(f, z, alpha)
        np.testing.assert_allclose(A1, A2, atol=1e-10)
        np.testing.assert_allclose(B1, B2, atol=1e-10)
    with pytest.raises(ValueError, match="axis 1 must exceed"):
        cauchy_derivative(f, z, (1, 1), QuadratureSpec(512, (0.8, 0.2)))
    # node counts per axis, from the rule, and each above the order on its axis
    rule = cauchy_rule(z, (3, 1), 1.0, QuadratureSpec(None, (0.8, 0.6)))
    assert rule.nodes[0] > rule.nodes[1]
    A1, _ = cauchy_derivative(f, z, (3, 1), rule)
    np.testing.assert_allclose(A1, derivative_exact(f, z, (3, 1))[0], atol=1e-10)
    with pytest.raises(ValueError, match="cannot resolve the order 9"):
        cauchy_derivative(f, z, (1, 9), QuadratureSpec(8, (0.8, 0.6)))


def _near_boundary_maps():
    center, rotations = [0.3 - 0.2j, 0.4j], np.exp(1j * np.array([0.5, -1.2]))
    return [random_bounded_map(1, 1, 6, seed=11), random_bounded_map(2, 1, 4, seed=3),
            ComposedMap(PolydiskAutomorphism(center[:1], rotations[:1]),
                        random_bounded_map(1, 1, 6, seed=12)),
            ComposedMap(PolydiskAutomorphism(center, rotations), random_bounded_map(2, 1, 4, seed=5))]


@pytest.mark.parametrize("f", _near_boundary_maps(), ids=["series-1", "series-2", "composed-1",
                                                          "composed-2"])
def test_cauchy_error_bound_holds_up_to_the_boundary(f):
    # Points up to t = 0.98, where the old default rule raised (t >= 0.95) or was off
    # by up to 5e4 at t = 0.94 while its reports said pass.
    sup = f.sup_bound
    alphas = [(1,), (2,), (3,)] if f.n == 1 else [(1, 1), (2, 1), (1, 2), (3, 1)]
    for t in np.linspace(0.5, 0.98, 9):
        z = [t] if f.n == 1 else [t, 0.3j * t]
        for alpha in alphas:
            rule = cauchy_rule(z, alpha, sup)
            A, B = cauchy_derivative(f, z, alpha, rule)
            Ae, Be = derivative_exact(f, z, alpha)
            assert abs(A[0] - Ae[0]) + abs(B[0] - Be[0]) <= rule.error_bound + rule.rounding
            report = verify_derivative_bound(f, z, alpha, method="cauchy")
            assert report.params["nodes"] == list(rule.nodes)
            assert report.params["radii"] == list(rule.radii)
            error = report.params["error_bound"]
            assert error == rule.error_bound + rule.rounding and error < 1e-4
            assert abs(report.lhs - (abs(Ae[0]) + abs(Be[0]))) <= error
            assert report.passed == (report.lhs + error <= report.rhs + report.tol)


def test_cauchy_error_bound_holds_for_closed_forms_and_explicit_rules():
    # Slowly decaying coefficients (log and Blaschke singularities near the circle)
    # with explicit node counts and radii: the bound holds where it is large too.
    rng = np.random.default_rng(5)
    maps = [ColonnaMap(np.exp(0.4j), 0.6 + 0.3j, np.exp(1.1j)), ColonnaMap(1, 0.9, 1),
            BlaschkeProduct([0.9, -0.8j, 0.5], np.exp(0.3j)),
            ComposedMap(PolydiskAutomorphism([0.8j]), ColonnaMap(1.0, 0.2, 1.0)),
            ComposedMap(PolydiskAutomorphism([0.7, -0.6j]), random_bounded_map(2, 1, 4, seed=6))]
    checked = 0
    for f in maps:
        for _ in range(30):
            t = rng.uniform(0, 0.97, f.n)
            z = t * np.exp(2j * np.pi * rng.uniform(size=f.n))
            alpha = tuple(int(a) for a in rng.integers(1 if f.n == 1 else 0, 4, f.n))
            if not any(alpha):
                alpha = (1,) * f.n
            radii = tuple(tj + (1 - tj) * rng.uniform(0.05, 0.95) for tj in t)
            nodes = int(rng.choice([8, 12, 16, 32, 64, 128]))
            rule = cauchy_rule(z, alpha, 1.0, QuadratureSpec(nodes if rng.uniform() < 0.5 else None,
                                                             radii))
            A, B = cauchy_derivative(f, z, alpha, rule)
            Ae, Be = derivative_exact(f, z, alpha)
            assert abs(A[0] - Ae[0]) + abs(B[0] - Be[0]) <= rule.error_bound + rule.rounding
            checked += 1
    assert checked == 150


def test_cauchy_report_passes_only_with_its_error_bound():
    # 64 nodes at 0.8 leave a bound of 0.26 at t = 0.5 for alpha = 2: a tol that
    # covers the lhs but not lhs + bound is a failure.
    f = random_bounded_map(1, 1, 4, seed=2)
    spec = QuadratureSpec(64, (0.8,))
    r = verify_derivative_bound(f, [0.5], (2,), method="cauchy", spec=spec)
    bound = r.params["error_bound"]
    assert 0.2 < bound < 0.3 and r.passed
    tol = -(r.margin - bound / 2)
    r = verify_derivative_bound(f, [0.5], (2,), method="cauchy", spec=spec, tol=tol)
    assert r.lhs <= r.rhs + r.tol and not r.passed


def _count_grid_builds(mapping) -> list:
    builds = []
    grid = mapping.eval_grid
    mapping.eval_grid = lambda axes: builds.append(axes) or grid(axes)
    return builds


def test_cauchy_derivatives_of_series_sample_no_grid(monkeypatch):
    # A series, plain or composed with an automorphism, contracts each axis's kernels
    # with its power table, so no Cauchy derivative of one evaluates the map on the grid.
    monkeypatch.setattr(PluriharmonicMap, "eval_grid",
                        lambda *args: pytest.fail("sampled the grid"))
    f = random_bounded_map(2, 2, 4, seed=3)
    T = ComposedMap(PolydiskAutomorphism([0.2, 0.1j], [1j, -1.0]), f)
    for g, z, alpha in ((f, [0.6, 0.3j], (2, 1)), (f, [0.96, 0.288j], (3, 1)),
                        (T, [0.3, -0.3j], (1, 0)), (T, [0.5j, 0.4], (1, 2))):
        rule = cauchy_rule(z, alpha)
        A, B = cauchy_derivative(g, z, alpha)
        A0, B0 = derivative_exact(g, z, alpha)
        assert np.abs(A - A0).max() + np.abs(B - B0).max() <= rule.error_bound + rule.rounding


def test_cauchy_derivative_near_the_boundary_stays_small():
    # At (0.95, 0.1, 0.1) the rule takes 1536 x 64 x 64 nodes, a 96 MiB grid; the
    # kernel sums need a few power tables of one axis each.
    f = random_bounded_map(3, 1, 4, seed=5)
    z, alpha = [0.95, 0.1, 0.1], (1, 1, 1)
    rule = cauchy_rule(z, alpha)
    assert rule.nodes == (1536, 64, 64)
    tracemalloc.start()
    try:
        A, B = cauchy_derivative(f, z, alpha, rule)
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    A0, B0 = derivative_exact(f, z, alpha)
    assert abs(A[0] - A0[0]) + abs(B[0] - B0[0]) <= rule.error_bound + rule.rounding


@pytest.mark.parametrize("z, alpha, nodes", [
    ([0.95, 0.1, 0.1], (1, 1, 1), (1536, 64, 64)),
    ([0.0, 0.999], (1, 2), (96, 196608)),
    ([0.9, 0.27j], (3, 1), (1536, 96)),  # a band point of the cauchy_sweep benchmark
])
def test_default_cauchy_rules_size_each_axis_on_its_own(z, alpha, nodes):
    # Each axis takes the fewest ladder nodes whose own tails meet an equal share of the
    # error target, and none steps back down the ladder afterwards.
    f = random_bounded_map(len(z), 1, 4, seed=3)
    rule = cauchy_rule(z, alpha, f.sup_bound)
    assert rule.nodes == nodes and rule.error_bound <= CAUCHY_ERROR_TARGET
    A, B = cauchy_derivative(f, z, alpha, rule)
    A0, B0 = derivative_exact(f, z, alpha)
    assert abs(A[0] - A0[0]) + abs(B[0] - B0[0]) <= rule.error_bound + rule.rounding


def test_a_refused_default_rule_names_its_axis_and_the_target(monkeypatch):
    monkeypatch.setattr(SeriesMap, "kernel_sums", lambda *args: pytest.fail("evaluated the map"))
    f = random_bounded_map(2, 1, 2, seed=0)
    # The ladder passes 2^23 nodes, whose two kernels fill MAX_SAMPLE_BYTES, between
    # 1 - |z_0| = 1.6e-5 and 1.46e-5 at this order.
    for t in (1 - 1e-5, 1 - 1.46e-5):
        with pytest.raises(mapping.MapFormatError, match=(
                r"12582912 nodes with 2 kernels needs 384 MiB, .*; the error bound 1e-09 "
                rf"needs them on axis 0, where \|z_0\| = {re.escape(repr(t))}$")):
            cauchy_derivative(f, [t, 0.0], (1, 1))
    assert cauchy_rule([1 - 1.6e-5, 0.0], (1, 1)).nodes == (8388608, 96)


def test_separable_kernel_sums_agree_with_the_sampled_ones(monkeypatch):
    # The generic _grid_sums samples the grid in slabs of ROW_CHUNK_BYTES; with 4 KiB
    # slabs it takes the 192 x 64 x 2 grid of this point 2 rows at a time.
    f = random_bounded_map(2, 2, 4, seed=3)
    T = ComposedMap(PolydiskAutomorphism([0.2, 0.1j]), f)
    z, alpha = [0.6, 0.3j], (2, 1)
    assert cauchy_rule(z, alpha).nodes == (192, 64)
    separable = [cauchy_derivative(g, z, alpha) for g in (f, T)]
    monkeypatch.setattr(mapping, "ROW_CHUNK_BYTES", 4096)
    monkeypatch.setattr(SeriesMap, "_grid_sums", PluriharmonicMap._grid_sums)
    builds = _count_grid_builds(f)
    sampled = [cauchy_derivative(g, z, alpha) for g in (f, T)]
    assert [len(axes[0]) for axes in builds] == [2] * 192
    np.testing.assert_allclose(np.array(separable), np.array(sampled), rtol=1e-13, atol=0)


KERNEL_SUMS_MAPS = {
    "series n=1": lambda: random_bounded_map(1, 2, 5, seed=11),
    "series n=2": lambda: random_bounded_map(2, 2, 4, seed=3),
    "series n=3": lambda: random_bounded_map(3, 2, 3, seed=12),
    "composed series": lambda: ComposedMap(PolydiskAutomorphism([0.3j, -0.2], [1j, 1.0]),
                                           random_bounded_map(2, 2, 4, seed=3)),
    "colonna": lambda: ColonnaMap(np.exp(0.3j), 0.4 - 0.2j, np.exp(-1j)),
    "blaschke": lambda: BlaschkeProduct([0.3, -0.5j, 0.2 + 0.2j], np.exp(0.5j)),
    "composed colonna": lambda: ComposedMap(PolydiskAutomorphism([0.2j]), ColonnaMap()),
}


def _kernel_sum_inputs(n, rows, seed=4):
    """Per-axis points inside the disk and random kernels, which have no conjugate layout."""
    rng = np.random.default_rng(seed)
    sizes = (8, 6, 5)[:n]
    axes = [0.9 * rng.uniform(0, 1, M) * np.exp(2j * np.pi * rng.uniform(0, 1, M)) for M in sizes]
    kernels = [rng.standard_normal((rows, M)) + 1j * rng.standard_normal((rows, M)) for M in sizes]
    return axes, kernels


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("case", KERNEL_SUMS_MAPS)
def test_kernel_sums_meet_one_contract_on_every_class(case, rows):
    # A series once summed its anti-holomorphic part against row R - 1 - p, right only
    # for kernels whose row R - 1 - p was the conjugate of row p.
    g = KERNEL_SUMS_MAPS[case]()
    axes, kernels = _kernel_sum_inputs(g.n, rows)
    values = g.eval_points(grid_rows(axes))
    weights = np.array([grid_rows([K[p] for K in kernels]).prod(axis=1) for p in range(rows)])
    reference = np.stack([weights @ values, np.conj(weights) @ values])
    got = g.kernel_sums(axes, kernels)
    assert got.shape == (2, rows, g.N)
    assert np.abs(got - reference).max() <= 1e-13 * np.abs(reference).max()


@pytest.mark.parametrize("case", KERNEL_SUMS_MAPS)
def test_kernel_sums_refuse_kernels_of_another_shape_before_evaluating(monkeypatch, case):
    # A series reaches its values through _grid_sums, a closed form through eval_points.
    g = KERNEL_SUMS_MAPS[case]()
    fail = lambda *args: pytest.fail("evaluated the map")
    monkeypatch.setattr(type(g), "eval_points", fail)
    monkeypatch.setattr(type(g), "_grid_sums", fail)
    axes, kernels = _kernel_sum_inputs(g.n, 2)
    wrong = [kernels + kernels[:1], [np.hstack([kernels[0], kernels[0]]), *kernels[1:]]]
    if g.n > 1:
        wrong.append([kernels[0][:1], *kernels[1:]])
    for bad in wrong:
        with pytest.raises(ValueError, match="kernel arrays of shapes"):
            g.kernel_sums(axes, bad)


def test_a_cauchy_derivative_keeps_no_reference_to_its_map():
    # A map-keyed sample cache once kept the last two maps alive, with their tensors.
    c = np.zeros((2, 2000, 2000), dtype=complex)
    c[0, 1, 0], c[1, 0, 1] = 0.5, 0.25  # a_(1, 0) and b_(0, 1)
    f = SeriesMap.from_tensors(c)
    del c
    A, B = cauchy_derivative(f, [0.3, 0.2], (1, 0))
    assert abs(A[0] - 0.5) + abs(B[0]) < 1e-9
    ref = weakref.ref(f)
    del f
    assert ref() is None


def test_sup_bound_l1():
    f = SeriesMap(2, 1, {(1, 0): [0.6]}, {(0, 1): [0.3]})
    assert f.l1_norm == pytest.approx(0.9)
    const = SeriesMap(1, 1, {(0,): [0.25j]})
    assert const.l1_norm == pytest.approx(0.25)
    assert random_bounded_map(2, 1, 3, seed=1, margin=0.05).l1_norm <= 0.95 + 1e-12
    T = ComposedMap(PolydiskAutomorphism([0.1, 0.1]), f)
    assert T.sup_bound == f.l1_norm


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


def _peak_bytes(call):
    """call()'s result and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("order", ["C", "F"])
def test_a_series_cauchy_derivative_copies_no_coefficient_tensor(order):
    # Stacking a and b on every call once peaked at 31.6 MiB here: a copy of both
    # (1, 1000, 1000) halves, 15.3 MiB each.  A tensor in another order is put in C
    # order once, when the map is built, since a contraction would copy it per call.
    c = np.zeros((2, 1000, 1000), dtype=complex, order=order)
    c[0, 1, 0], c[1, 0, 1] = 0.5, 0.25  # a_(1, 0) and b_(0, 1)
    f = SeriesMap.from_tensors(c)
    (A, B), peak = _peak_bytes(lambda: cauchy_derivative(f, [0.1, 0.1], (1, 0), QuadratureSpec(8192)))
    assert peak < 4 * 2**20
    assert abs(A[0] - 0.5) + abs(B[0]) < 1e-9


@pytest.mark.parametrize("t, nodes", [(0.75, (384, 384, 384)), (0.97, (4096,) * 3)])
def test_cauchy_rules_past_the_old_grid_limit_run_small(t, nodes):
    # Both grids once were refused by a size rule on the whole torus sample (576 MiB and
    # 1 TiB), which a series never allocates; only the kernels and power tables are built.
    f = random_bounded_map(3, 1, 4, seed=5)
    z, alpha = [t] * 3, (1, 1, 1)
    rule = cauchy_rule(z, alpha)
    assert rule.nodes == nodes
    (A, B), peak = _peak_bytes(lambda: cauchy_derivative(f, z, alpha, rule))
    assert peak < 2 * 2**20
    A0, B0 = derivative_exact(f, z, alpha)
    assert abs(A[0] - A0[0]) + abs(B[0] - B0[0]) <= rule.error_bound + rule.rounding


def test_oversized_quadrature_kernels_are_refused_before_evaluation(monkeypatch):
    monkeypatch.setattr(SeriesMap, "kernel_sums", lambda *args: pytest.fail("evaluated the map"))
    f = random_bounded_map(3, 1, 2, seed=0)
    # 2^24 nodes give an axis two kernels of 512 MiB, so the rule refuses them.
    with pytest.raises(mapping.MapFormatError, match="16777216 nodes .* 512 MiB"):
        cauchy_derivative(f, [0.1, 0.2, 0.3], (1, 1, 1), QuadratureSpec(2**24))
    with pytest.raises(mapping.MapFormatError, match="512 MiB"):
        extract_coefficient(f, (1, 0, 0), QuadratureSpec(2**24))
    # a rule handed to cauchy_derivative is held to the same rule
    rule = dataclasses.replace(cauchy_rule([0.1, 0.2, 0.3], (1, 1, 1)), nodes=(8, 8, 2**24))
    with pytest.raises(mapping.MapFormatError, match="512 MiB"):
        cauchy_derivative(f, [0.1, 0.2, 0.3], (1, 1, 1), rule)


def test_the_generic_kernel_sums_refuses_an_oversized_slab_before_evaluating():
    # A slab row of the sampled grid is the second axis times N: 8192 x 4096 values, 512 MiB.
    class Wide(PluriharmonicMap):
        n, N = 2, 4096

        def eval_points(self, Z):
            pytest.fail("evaluated the map")

    with pytest.raises(mapping.MapFormatError, match=r"\(8192, 4096\) needs 512 MiB"):
        cauchy_derivative(Wide(), [0.1, 0.2], (1, 1), QuadratureSpec(8192))


def test_extraction_past_the_old_grid_limit_runs():
    # 4096^2 x 2 values (512 MiB) were once sampled for this table and refused.
    f = random_bounded_map(2, 2, 2, seed=0)
    table, peak = _peak_bytes(lambda: extract_coefficients(f, 2, QuadratureSpec(4096)))
    assert peak < 2 * 2**20
    for k, (a, b) in table.items():
        np.testing.assert_allclose(a, f.holo.get(k, np.zeros(2)), rtol=0, atol=1e-13)
        np.testing.assert_allclose(b, f.anti.get(k, np.zeros(2)), rtol=0, atol=1e-13)


@pytest.mark.parametrize("nodes", [64, 256])
def test_extraction_builds_kernels_per_chunk_of_indices(nodes):
    # The 2 x 1770 kernel rows of all indices up to degree 20 at n = 3, built at once,
    # peaked at 14.1 MiB on 64 nodes and 55.5 MiB on 256.
    f = random_bounded_map(3, 1, 3, seed=1)
    table, peak = _peak_bytes(lambda: extract_coefficients(f, 20, QuadratureSpec(nodes)))
    assert peak < 10 * 2**20
    assert len(table) == 1770
    for k, (a, b) in table.items():
        # a_k is a torus mean divided by r^k, r = 0.5, which scales up the mean's rounding.
        atol = 1e-16 / 0.5 ** mi_degree(k)
        np.testing.assert_allclose(a, f.holo.get(k, np.zeros(1)), rtol=0, atol=atol)
        np.testing.assert_allclose(b, f.anti.get(k, np.zeros(1)), rtol=0, atol=atol)


def _fft_reference(g, max_degree, radii, M):
    """The coefficient table by np.fft over eval_points on the torus grid's rows."""
    axes = [r * np.exp(2j * np.pi * np.arange(M) / M) for r in radii]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    F = np.fft.fftn(g.eval_points(grid), axes=tuple(range(g.n))) / M**g.n
    table = {}
    for k in enumerate_indices(g.n, max_degree):
        if mi_degree(k) >= 1:
            rk = np.prod(np.asarray(radii) ** np.asarray(k))
            table[k] = F[k] / rk, np.conj(F[tuple(-kj % M for kj in k)]) / rk
    return table


@pytest.mark.parametrize("case", ["series", "aliased series", "composed", "colonna", "blaschke",
                                  "composed colonna"])
def test_extraction_agrees_with_an_fft_reference(case):
    f = random_bounded_map(2, 2, 4, seed=7)
    g, max_degree, radii, M = {
        "series": (f, 4, (0.6, 0.45), 16),
        # degree 6 on 8 nodes aliases; both sums alias alike
        "aliased series": (random_bounded_map(2, 1, 6, seed=2), 3, (0.5, 0.5), 8),
        "composed": (ComposedMap(PolydiskAutomorphism([0.3j, -0.2], [1j, 1.0]), f), 5,
                     (0.5, 0.7), 32),
        "colonna": (ColonnaMap(np.exp(0.3j), 0.4 - 0.2j, np.exp(-1j)), 12, (0.6,), 64),
        "blaschke": (BlaschkeProduct([0.3, -0.5j, 0.2 + 0.2j], np.exp(0.5j)), 12, (0.7,), 64),
        "composed colonna": (ComposedMap(PolydiskAutomorphism([0.2j]), ColonnaMap()), 8,
                             (0.5,), 32),
    }[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the aliasing warning
        table = extract_coefficients(g, max_degree, QuadratureSpec(M, radii))
        single = {k: extract_coefficient(g, k, QuadratureSpec(M, radii)) for k in table}
    reference = _fft_reference(g, max_degree, radii, M)
    assert table.keys() == reference.keys()
    for k, (a, b) in table.items():
        for got in ((a, b), single[k]):
            np.testing.assert_allclose(got[0], reference[k][0], rtol=0, atol=1e-13)
            np.testing.assert_allclose(got[1], reference[k][1], rtol=0, atol=1e-13)


def test_extraction_from_series_samples_no_grid_and_stays_small(monkeypatch):
    monkeypatch.setattr(PluriharmonicMap, "eval_grid",
                        lambda *args: pytest.fail("sampled the grid"))
    f = random_bounded_map(3, 1, 4, seed=4)
    T = ComposedMap(PolydiskAutomorphism([0.2, 0.1j, -0.3]), f)
    for g in (f, T):
        # 64^3 nodes by default, a 4 MiB grid once sampled whole
        table, peak = _peak_bytes(lambda: extract_coefficients(g, 4))
        assert peak < 2**20 and len(table) == 34
    for k, (a, b) in extract_coefficients(f, 4).items():
        np.testing.assert_allclose(a, f.holo.get(k, np.zeros(1)), rtol=0, atol=1e-13)
        np.testing.assert_allclose(b, f.anti.get(k, np.zeros(1)), rtol=0, atol=1e-13)


def test_series_kernel_sums_build_power_tables_in_slabs():
    # At 4096 nodes a degree-300 power table is 19 MiB; it is built ROW_CHUNK_BYTES at a time.
    f = random_bounded_map(1, 1, 300, seed=1)
    z, alpha = [0.98], (1,)
    rule = cauchy_rule(z, alpha, f.sup_bound)
    assert rule.nodes == (4096,)
    (A, B), peak = _peak_bytes(lambda: cauchy_derivative(f, z, alpha, rule))
    assert peak < 2 * 2**20
    A0, B0 = derivative_exact(f, z, alpha)
    assert abs(A[0] - A0[0]) + abs(B[0] - B0[0]) <= rule.error_bound + rule.rounding


def test_a_degree_1000_cauchy_check_stays_within_its_error_bound():
    f = random_bounded_map(1, 1, 1000, seed=1)
    z, alpha = [0.99], (1,)
    rule = cauchy_rule(z, alpha, f.sup_bound)
    assert rule.nodes == (8192,)
    A, B = cauchy_derivative(f, z, alpha, rule)
    A0, B0 = derivative_exact(f, z, alpha)
    assert abs(A[0] - A0[0]) + abs(B[0] - B0[0]) <= rule.error_bound + rule.rounding


@pytest.mark.parametrize("z, message", [([0.5, 0.5], "expected points with 1 coordinates"),
                                        ([float("nan")], "on or outside the unit polydisk"),
                                        ([1.2], "on or outside the unit polydisk"),
                                        ([-1.0], "on or outside the unit polydisk")])
def test_cauchy_rule_runs_the_point_rule(z, message):
    # These once gave "math domain error", a rule with bounds of inf, or 2 radii
    # and 1 node count; now they get the message of check_points.
    with pytest.raises(ValueError, match=message):
        cauchy_rule(z, (1,))


def test_cauchy_derivative_checks_a_rule_it_is_handed():
    f = random_bounded_map(1, 1, 3, seed=1)
    # A rule sized at z = 0.3 has radius sqrt(0.3) = 0.548: at z = 0.9 it once
    # returned A = -0.0363-0.0613i against the exact -0.0329+0.0838i.
    with pytest.raises(ValueError, match="axis 0 must exceed"):
        cauchy_derivative(f, [0.9], (1,), cauchy_rule([0.3], (1,)))
    g = random_bounded_map(2, 1, 3, seed=1)
    with pytest.raises(ValueError, match="one contour radius per axis, 1, got 2"):
        cauchy_derivative(f, [0.3], (1,), cauchy_rule([0.3, 0.1], (1, 1)))
    rule = cauchy_rule([0.3, 0.1], (1, 1))
    with pytest.raises(ValueError, match="one node count per axis, 2, got 1"):
        cauchy_derivative(g, [0.3, 0.1], (1, 1), dataclasses.replace(rule, nodes=rule.nodes[:1]))
    # a rule for a lower order does not resolve a higher one
    rule = cauchy_rule([0.3], (1,), spec=QuadratureSpec(8))
    with pytest.raises(ValueError, match="8 nodes on axis 0 cannot resolve the order 9"):
        cauchy_derivative(f, [0.3], (9,), rule)
    # a rule that serves the point is used as it is
    rule = cauchy_rule([0.5], (2,))
    A, B = cauchy_derivative(f, [0.3], (2,), rule)
    A0, B0 = derivative_exact(f, [0.3], (2,))
    assert abs(A[0] - A0[0]) + abs(B[0] - B0[0]) <= 1e-9


def test_cauchy_derivative_refuses_an_order_whose_factorial_is_not_a_double(monkeypatch):
    # (171,) once sampled 512 nodes and died with "int too large to convert to float"
    monkeypatch.setattr(SeriesMap, "kernel_sums", lambda *args: pytest.fail("sampled the map"))
    for n, alpha in ((1, (171,)), (2, (171, 0)), (2, (100, 100))):
        f = random_bounded_map(n, 1, 3, seed=1)
        with pytest.raises(ValueError, match="alpha! exceeds the largest double"):
            cauchy_derivative(f, [0.1] * n, alpha, QuadratureSpec(512))


def test_every_entry_point_refuses_an_index_of_the_wrong_length():
    f = random_bounded_map(1, 1, 3, seed=1)
    for call in (lambda: derivative_exact(f, [0.3], (1, 1)),
                 lambda: cauchy_derivative(f, [0.3], (1, 1)),
                 lambda: extract_coefficient(f, (1, 1))):
        with pytest.raises(ValueError, match=r"multi-index \(1, 1\) has length 2, expected 1"):
            call()
