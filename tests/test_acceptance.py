"""Acceptance suite: one test per criterion, each printing a single
PASS/FAIL line with its worst observed margin and runtime."""

import math
import time

import numpy as np
import pytest

from polyschwarz import (BlaschkeProduct, ColonnaMap, ComposedMap, PolydiskAutomorphism,
                         QuadratureSpec, SeriesMap, abs_cos_integral, cauchy_derivative,
                         derivative_exact, direction_max, extract_coefficients, jacobian_pair,
                         random_bounded_map, rhs_colonna, rhs_gradient, rhs_growth,
                         rhs_polydisk, rhs_ruscheweyh, rhs_szasz, sharpness_ratio,
                         sharpness_search, verify_growth_bound)
from polyschwarz.multiindex import degree as mi_degree, enumerate_indices

FOUR_OVER_PI = 4.0 / math.pi


def _report(capsys, label, ok, detail, elapsed, limit):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    with capsys.disabled():
        print(f"[acceptance] {label}: {status} ({detail}, {elapsed:.2f}s < {limit:.0f}s)")
    assert ok, detail
    assert elapsed < limit


def _random_z(rng, n, cap=0.9):
    r = cap * rng.uniform(0, 1, n) ** 0.5
    return r * np.exp(2j * np.pi * rng.uniform(0, 1, n))


@pytest.fixture(scope="module")
def scalar_suite():
    """100 seeded certified scalar series maps, n in {1, 2, 3}."""
    maps = []
    for seed in range(100):
        n = 1 + seed % 3
        maps.append(random_bounded_map(n, 1, 2 + seed % 3, seed=seed))
    return maps


def test_criterion_01_abs_cos_oracle(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for m in range(1, 11):
        for gamma in rng.uniform(0, 2 * math.pi, 20):
            worst = max(worst, abs(abs_cos_integral(m, gamma, 4096) - 4.0))
    _report(capsys, "01 abs-cos integral oracle", worst <= 1e-5,
            f"worst |value-4| = {worst:.2e} <= 1e-5", time.perf_counter() - start, 1.0)


def test_criterion_02_coefficient_bound_with_compositions(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = -math.inf
    count = 0
    for seed in range(200):
        n = 1 if seed < 100 else (2 if seed < 170 else 3)
        degree = 2 + seed % 5 if n < 3 else 2 + seed % 3
        f = random_bounded_map(n, 1, degree, seed=seed)
        spec = QuadratureSpec(32, (0.45,))
        victims = [f]
        for _ in range(3):
            c = 0.5 * _random_z(rng, n, cap=1.0)
            rot = np.exp(2j * np.pi * rng.uniform(0, 1, n))
            victims.append(ComposedMap(PolydiskAutomorphism(c, rot), f))
        for g in victims:
            for k, (a, b) in extract_coefficients(g, 6, spec).items():
                worst = max(worst, abs(a[0]) + abs(b[0]))
                count += 1
    ok = worst <= FOUR_OVER_PI + 1e-6
    _report(capsys, "02 coefficient bound under composition", ok,
            f"max |a_k|+|b_k| = {worst:.6f} <= 4/pi over {count} coefficients",
            time.perf_counter() - start, 60.0)


def test_criterion_03_exact_derivative_bound(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = -math.inf
    for seed in range(100):
        n = 1 + seed % 3
        f = random_bounded_map(n, 1, 3 + seed % 3, seed=seed)
        alphas = [a for a in enumerate_indices(n, 2 * n, min_component=1)
                  if max(a) <= 2]
        for _ in range(10):
            z = _random_z(rng, n)
            t = float(np.max(np.abs(z)))
            for alpha in alphas:
                A, B = derivative_exact(f, z, alpha)
                excess = abs(A[0]) + abs(B[0]) - rhs_polydisk(alpha, t)
                worst = max(worst, excess)
    _report(capsys, "03 derivative bound on random maps", worst <= 1e-9,
            f"max LHS-RHS = {worst:.2e} <= 1e-9", time.perf_counter() - start, 60.0)


def test_criterion_04_cauchy_cross_validation(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    worst_exact = 0.0
    worst_radii = 0.0
    for seed in range(50):
        n = 1 + seed % 2
        f = random_bounded_map(n, 1, 4, seed=seed)
        z = 0.5 * _random_z(rng, n, cap=1.0)
        spec1 = QuadratureSpec(512, (0.75,))
        spec2 = QuadratureSpec(512, (0.88,))
        for alpha in enumerate_indices(n, 4):
            if mi_degree(alpha) == 0:
                continue
            A1, B1 = cauchy_derivative(f, z, alpha, spec1)
            A2, B2 = cauchy_derivative(f, z, alpha, spec2)
            Ae, Be = derivative_exact(f, z, alpha)
            worst_exact = max(worst_exact, abs(A1[0] - Ae[0]), abs(B1[0] - Be[0]))
            worst_radii = max(worst_radii, abs(A1[0] - A2[0]), abs(B1[0] - B2[0]))
    ok = worst_exact <= 1e-8 and worst_radii <= 1e-8
    _report(capsys, "04 quadrature/exact derivative cross-validation", ok,
            f"max |cauchy-exact| = {worst_exact:.2e}, across radii {worst_radii:.2e}",
            time.perf_counter() - start, 60.0)


def test_criterion_05_first_order_sharpness(capsys):
    start = time.perf_counter()
    worst = 0.0
    for t in np.linspace(0.0, 0.9, 11):
        f = ColonnaMap(1, 1j * t, 1)
        worst = max(worst, abs(sharpness_ratio(f, [1j * t], (1,)) - 1.0))
    res = sharpness_search(1, (1,), budget=2000, seed=0)
    ok = worst <= 1e-6 and res.ratio >= 0.999
    _report(capsys, "05 first-order sharpness (n=1)", ok,
            f"max |ratio-1| = {worst:.2e}, search ratio = {res.ratio:.6f}",
            time.perf_counter() - start, 30.0)


def test_criterion_06_growth_bound(capsys):
    start = time.perf_counter()
    f = ColonnaMap(1, 0, 1)
    worst_eq = 0.0
    for t in np.arange(0.1, 0.95, 0.1):
        lhs = float(np.linalg.norm(f([1j * t])))
        worst_eq = max(worst_eq, abs(lhs - FOUR_OVER_PI * math.atan(t)))
    rng = np.random.default_rng(606)
    worst = -math.inf
    for seed in range(100):
        n = 1 + seed % 3
        g = random_bounded_map(n, 1 + seed % 2, 3, seed=seed)
        zero_origin = SeriesMap(g.n, g.N,
                                {k: v for k, v in g.holo.items() if mi_degree(k) >= 1},
                                {k: v for k, v in g.anti.items() if mi_degree(k) >= 1})
        for _ in range(20):
            z = _random_z(rng, n)
            r = verify_growth_bound(zero_origin, z, tol=1e-9)
            worst = max(worst, -r.margin)
            assert r.passed
    ok = worst_eq <= 1e-10 and worst <= 1e-9
    _report(capsys, "06 growth bound and its equality case", ok,
            f"equality gap = {worst_eq:.2e}, worst excess = {worst:.2e}",
            time.perf_counter() - start, 30.0)


def test_criterion_07_directional_gradient_bound(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    worst = -math.inf
    worst_bf = 0.0
    th = np.exp(1j * 2 * np.pi * np.arange(360) / 360)
    for seed in range(100):
        n = 1 + seed % 3
        N = 1 + seed % 3
        f = random_bounded_map(n, N, 3, seed=seed)
        for rep in range(10):
            z = _random_z(rng, n)
            jp = jacobian_pair(f, z)
            _, v = direction_max(jp)
            worst = max(worst, v - rhs_gradient(float(np.max(np.abs(z)))))
            if n <= 2 and rep < 2:
                d = np.atleast_2d(jp.d)
                db = np.atleast_2d(jp.dbar)
                if n == 1:
                    vals = d[:, 0, None] * th + db[:, 0, None] * np.conj(th)
                else:
                    T1, T2 = np.meshgrid(th, th, indexing="ij")
                    vals = (d[:, 0, None, None] * T1 + db[:, 0, None, None] * np.conj(T1)
                            + d[:, 1, None, None] * T2 + db[:, 1, None, None] * np.conj(T2))
                bf = float(np.max(np.sqrt(np.sum(np.abs(vals) ** 2, axis=0))))
                worst_bf = max(worst_bf, abs(v - bf))
    ok = worst <= 1e-7 and worst_bf <= 1e-3
    _report(capsys, "07 directional gradient bound", ok,
            f"max excess = {worst:.2e}, brute-force gap = {worst_bf:.2e}",
            time.perf_counter() - start, 120.0)


def test_criterion_08_homogeneous_and_l2_bounds(capsys, scalar_suite):
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    worst_h = -math.inf
    worst_l2 = -math.inf
    worst_p = 0.0
    for f in scalar_suite:
        n = f.n
        for m in (1, 2, 3):
            for _ in range(3):
                z = _random_z(rng, n)
                part = np.zeros(1, dtype=complex)
                for k, a in f.holo.items():
                    if mi_degree(k) == m:
                        part += a * np.prod(z ** np.asarray(k))
                for k, b in f.anti.items():
                    if mi_degree(k) == m:
                        part += np.conj(b) * np.prod(np.conj(z) ** np.asarray(k))
                worst_h = max(worst_h, float(np.abs(part[0])) - FOUR_OVER_PI)
        l2 = float(np.linalg.norm(f(np.zeros(n))) ** 2)
        for table in (f.holo, f.anti):
            for k, v in table.items():
                if mi_degree(k) >= 1:
                    l2 += float(np.linalg.norm(v) ** 2)
        worst_l2 = max(worst_l2, l2 - 1.0)
        # Parseval: mean square on a torus of radii r equals the weighted
        # coefficient square sum
        radii = rng.uniform(0.3, 0.8, n)
        M = 16
        theta = 2 * np.pi * np.arange(M) / M
        vals = f.eval_grid([r * np.exp(1j * theta) for r in radii])
        lhs = float(np.mean(np.sum(np.abs(vals) ** 2, axis=-1)))
        rhs = float(np.linalg.norm(f(np.zeros(n))) ** 2)
        for table in (f.holo, f.anti):
            for k, v in table.items():
                if mi_degree(k) >= 1:
                    rhs += float(np.linalg.norm(v) ** 2) * float(np.prod(radii ** np.asarray(k))) ** 2
        worst_p = max(worst_p, abs(lhs - rhs))
    ok = worst_h <= 1e-9 and worst_l2 <= 1e-9 and worst_p <= 1e-10
    _report(capsys, "08 homogeneous-part, l2, and Parseval checks", ok,
            f"homog excess = {worst_h:.2e}, l2 excess = {worst_l2:.2e}, "
            f"Parseval gap = {worst_p:.2e}", time.perf_counter() - start, 30.0)


def test_criterion_09_formula_consistency(capsys):
    start = time.perf_counter()
    worst = 0.0
    for t in np.linspace(0.0, 0.999, 1000):
        c = rhs_colonna(t)
        scale = max(1.0, c)
        worst = max(worst, abs(rhs_polydisk((1,), t) - c) / scale,
                    abs(rhs_gradient(t) - c) / scale)
    rng = np.random.default_rng(909)
    for t, s in zip(rng.uniform(0, 0.99, 200), rng.uniform(0, 0.99, 200)):
        ref = (1.0 - s * s) / (1.0 - t * t)
        worst = max(worst, abs(rhs_ruscheweyh(1, t, s) - ref) / max(1.0, ref))
    _report(capsys, "09 closed-form consistency identities", worst <= 1e-15,
            f"max relative gap = {worst:.2e} <= 1e-15", time.perf_counter() - start, 1.0)


def test_criterion_10_classical_blaschke_bounds(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(1010)
    worst = -math.inf
    for _ in range(20):
        k = int(rng.integers(1, 4))
        zeros = 0.6 * (rng.uniform(-1, 1, k) + 1j * rng.uniform(-1, 1, k)) / math.sqrt(2)
        f = BlaschkeProduct(zeros, np.exp(1j * rng.uniform(0, 2 * math.pi)))
        for _ in range(10):
            z = rng.uniform(0, 0.7) * np.exp(1j * rng.uniform(0, 2 * math.pi))
            s = abs(f([z])[0])
            for order, m in ((3, 1), (5, 2)):
                A, _ = cauchy_derivative(f, [z], (order,))
                lhs = abs(A[0])
                worst = max(worst, lhs - rhs_szasz(m, abs(z)),
                            lhs - rhs_ruscheweyh(order, abs(z), s))
    _report(capsys, "10 classical one-variable derivative bounds", worst <= 1e-7,
            f"max excess = {worst:.2e} <= 1e-7", time.perf_counter() - start, 30.0)
