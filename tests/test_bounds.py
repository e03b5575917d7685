import json
import math

import numpy as np
import pytest

from polyschwarz import (BlaschkeProduct, ColonnaMap, ComposedMap, HypothesisError,
                         PolydiskAutomorphism, QuadratureSpec, SeriesMap, cauchy_derivative,
                         certified_sup_bound, make_report, random_bounded_map,
                         require_certified, rhs_colonna, rhs_gradient, rhs_growth,
                         rhs_polydisk, rhs_ruscheweyh, rhs_szasz,
                         verify_coefficient_bound, verify_derivative_bound,
                         verify_gradient_bound, verify_growth_bound,
                         verify_homogeneous_bound, verify_l2_bound)

FOUR_OVER_PI = 4.0 / math.pi


# ---------------------------------------------------------------------------
# Right-hand-side formulas against independently computed values.
# ---------------------------------------------------------------------------

def test_rhs_polydisk_values():
    assert rhs_polydisk((1,), 0.5) == pytest.approx(1.6976527263135504, abs=1e-12)
    assert rhs_polydisk((1, 1), 0.5) == pytest.approx(2.2635369684180673, abs=1e-12)
    assert rhs_polydisk((2, 1), 0.3) == pytest.approx(4.392980643245856, abs=1e-12)
    assert rhs_polydisk((3,), 0.0) == pytest.approx(7.639437268410976, abs=1e-12)
    assert rhs_polydisk((2, 2, 1), 0.6) == pytest.approx(121.42558524467114, abs=1e-10)
    # at the origin the bound is alpha! * 4/pi regardless of n
    assert rhs_polydisk((1, 1, 1), 0.0) == pytest.approx(FOUR_OVER_PI)


def test_rhs_polydisk_rejects_zero_component_and_bad_radius():
    with pytest.raises(ValueError):
        rhs_polydisk((1, 0), 0.5)
    with pytest.raises(ValueError):
        rhs_polydisk((1,), 1.0)
    with pytest.raises(ValueError):
        rhs_polydisk((1,), -0.1)


def test_rhs_colonna_and_gradient_values():
    assert rhs_colonna(0.0) == pytest.approx(FOUR_OVER_PI)
    assert rhs_colonna(0.5) == pytest.approx(1.6976527263135504, abs=1e-12)
    assert rhs_gradient(0.5) == pytest.approx(1.6976527263135504, abs=1e-12)


def test_rhs_growth_values():
    assert rhs_growth(0.5) == pytest.approx(0.590334470601733, abs=1e-12)
    assert rhs_growth(0.9) == pytest.approx(0.9330491665737035, abs=1e-12)
    assert rhs_growth(0.0) == 0.0


def test_rhs_ruscheweyh_values():
    assert rhs_ruscheweyh(2, 0.5, 0.3) == pytest.approx(4.8533333333333335, abs=1e-12)
    assert rhs_ruscheweyh(1, 0.4, 0.2) == pytest.approx(1.1428571428571428, abs=1e-12)
    assert rhs_ruscheweyh(3, 0.0, 0.0) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        rhs_ruscheweyh(0, 0.5, 0.3)


def test_rhs_szasz_values():
    assert rhs_szasz(1, 0.0) == pytest.approx(6.0)
    assert rhs_szasz(1, 0.5) == pytest.approx(17.77777777777778, abs=1e-10)
    assert rhs_szasz(2, 0.3) == pytest.approx(263.0826012555678, abs=1e-9)
    with pytest.raises(ValueError):
        rhs_szasz(0, 0.3)


def test_rhs_consistency_identities():
    # first-order polydisk bound at n = 1 collapses to the planar bounds
    for t in np.linspace(0.0, 0.999, 1000):
        c = rhs_colonna(t)
        assert abs(rhs_polydisk((1,), t) - c) <= 1e-15 * max(1.0, c)
        assert abs(rhs_gradient(t) - c) <= 1e-15 * max(1.0, c)
    rng = np.random.default_rng(12)
    for t, s in zip(rng.uniform(0, 0.99, 50), rng.uniform(0, 0.99, 50)):
        assert rhs_ruscheweyh(1, t, s) == pytest.approx((1 - s * s) / (1 - t * t), rel=1e-14)


# ---------------------------------------------------------------------------
# Reports and certification.
# ---------------------------------------------------------------------------

def test_make_report_pass_fail_and_margin():
    r = make_report("demo", {}, 1.0, 2.0, 1e-9)
    assert r.passed and r.margin == pytest.approx(1.0)
    r = make_report("demo", {}, 2.0, 1.0, 1e-9)
    assert not r.passed and r.margin == pytest.approx(-1.0)
    # equality within tolerance still passes and keeps the signed margin
    r = make_report("demo", {}, 1.0 + 5e-10, 1.0, 1e-9)
    assert r.passed and r.margin < 0


def test_make_report_rejects_bad_values():
    with pytest.raises(ValueError):
        make_report("demo", {}, math.nan, 1.0, 1e-9)
    with pytest.raises(ValueError):
        make_report("demo", {}, -0.5, 1.0, 1e-9)


def test_report_json_uses_pass_key():
    r = make_report("demo", {"k": [1]}, 0.5, 1.0, 1e-9)
    d = json.loads(r.to_json())
    assert d["pass"] is True
    assert "passed" not in d
    assert d["check_id"] == "demo"


def test_certified_sup_bound_cases():
    assert certified_sup_bound(ColonnaMap(1, 0, 1)) == 1.0
    assert certified_sup_bound(BlaschkeProduct([0.3])) == 1.0
    f = SeriesMap(1, 1, {(1,): [0.6]}, {(2,): [0.3]})
    assert certified_sup_bound(f) == pytest.approx(0.9)
    T = ComposedMap(PolydiskAutomorphism([0.2]), f)
    assert certified_sup_bound(T) == pytest.approx(0.9)
    # the truncated extremal series carries a range certificate despite l1 > 1
    s = ColonnaMap(1, 0, 1).to_series(32)
    assert certified_sup_bound(s) == 1.0


def test_require_certified_refuses_unbounded_map():
    big = SeriesMap(1, 1, {(1,): [2.0]})
    with pytest.raises(HypothesisError, match="certified"):
        require_certified(big)
    with pytest.raises(HypothesisError, match="codomain"):
        require_certified(SeriesMap(1, 2, {(1,): [0.1, 0.1]}), N=1)


def test_require_certified_refuses_nan_bound():
    with pytest.raises(HypothesisError, match="certified"):
        require_certified(SeriesMap(1, 1, {(1,): [math.nan]}))


# ---------------------------------------------------------------------------
# Verification routines.
# ---------------------------------------------------------------------------

def test_verify_derivative_bound_random_maps_pass():
    rng = np.random.default_rng(23)
    for seed in range(5):
        n = 1 + seed % 3
        f = random_bounded_map(n, 1, 4, seed=seed)
        z = 0.6 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)) / math.sqrt(2)
        r = verify_derivative_bound(f, z, (1,) * n)
        assert r.passed and r.margin >= 0


def test_verify_derivative_bound_equality_at_extremal():
    f = ColonnaMap(1, 0, 1).to_series(40)
    r = verify_derivative_bound(f, [0.0], (1,))
    assert r.passed
    assert r.lhs == pytest.approx(FOUR_OVER_PI, abs=1e-10)
    assert r.margin == pytest.approx(0.0, abs=1e-10)


def test_verify_derivative_bound_methods_agree():
    f = random_bounded_map(2, 1, 3, seed=9)
    z = [0.2, -0.1j]
    r1 = verify_derivative_bound(f, z, (1, 1), method="exact")
    r2 = verify_derivative_bound(f, z, (1, 1), method="cauchy",
                                 spec=QuadratureSpec(256, (0.7,)))
    assert r1.lhs == pytest.approx(r2.lhs, abs=1e-9)
    with pytest.raises(ValueError):
        verify_derivative_bound(f, z, (1, 1), method="newton")


def test_verify_derivative_bound_refusals():
    with pytest.raises(HypothesisError):
        verify_derivative_bound(SeriesMap(1, 1, {(1,): [2.0]}), [0.1], (1,))
    with pytest.raises(ValueError):
        verify_derivative_bound(random_bounded_map(2, 1, 2, seed=0), [0.1, 0.1], (1, 0))


def test_verify_coefficient_bound_extremal_attains():
    f = ColonnaMap(1, 0, 1).to_series(32)
    reports = verify_coefficient_bound(f, 4, spec=QuadratureSpec(128, (0.5,)))
    assert all(r.passed for r in reports)
    first = next(r for r in reports if r.params["k"] == [1])
    assert first.lhs == pytest.approx(FOUR_OVER_PI, abs=1e-7)


def test_verify_coefficient_bound_random_maps():
    for seed in (1, 2):
        f = random_bounded_map(2, 1, 4, seed=seed)
        reports = verify_coefficient_bound(f, 4, spec=QuadratureSpec(32, (0.5,)))
        assert reports and all(r.passed for r in reports)


def test_verify_homogeneous_bound_example():
    f = SeriesMap(2, 1, {(2, 0): [0.3]}, {(0, 2): [0.2]})
    r = verify_homogeneous_bound(f, 2, [0.5, 0.5j])
    # 0.3*(0.5)^2 + conj(0.2)*conj(0.5j)^2 = 0.075 - 0.05
    assert r.lhs == pytest.approx(0.025, abs=1e-14)
    assert r.passed
    assert verify_homogeneous_bound(f, 1, [0.5, 0.5j]).lhs == 0.0
    with pytest.raises(ValueError):
        verify_homogeneous_bound(f, 0, [0.1, 0.1])


def test_verify_homogeneous_bound_boundary_sweep():
    f = ColonnaMap(1, 0, 1).to_series(32)
    for t in np.linspace(0.1, 0.95, 9):
        for m in (1, 2, 3):
            assert verify_homogeneous_bound(f, m, [t * 1j]).passed


def test_verify_l2_bound_example():
    f = SeriesMap(1, 1, {(1,): [0.6]}, {(2,): [0.3]})
    r = verify_l2_bound(f)
    assert r.lhs == pytest.approx(0.45, abs=1e-14)
    assert r.passed
    for seed in range(3):
        assert verify_l2_bound(random_bounded_map(2, 1, 3, seed=seed)).passed


def test_verify_gradient_bound_random_and_extremal():
    rng = np.random.default_rng(31)
    for seed in range(3):
        f = random_bounded_map(2, 2, 3, seed=seed)
        z = 0.5 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)) / math.sqrt(2)
        assert verify_gradient_bound(f, z, direction_samples=128).passed
    # planar extremal: the directional maximum at 0 attains 4/pi
    r = verify_gradient_bound(ColonnaMap(1, 0, 1).to_series(40), [0.0])
    assert r.passed
    assert r.lhs == pytest.approx(FOUR_OVER_PI, abs=1e-9)


def test_verify_growth_bound_equality_and_refusal():
    f = ColonnaMap(1, 0, 1)
    for t in np.arange(0.1, 0.95, 0.1):
        r = verify_growth_bound(f, [1j * t])
        assert r.passed
        assert r.margin == pytest.approx(0.0, abs=1e-10)
    shifted = SeriesMap(1, 1, {(0,): [0.2], (1,): [0.3]})
    with pytest.raises(HypothesisError, match="f\\(0\\)"):
        verify_growth_bound(shifted, [0.1])


def test_classical_bounds_hold_for_blaschke_derivatives():
    rng = np.random.default_rng(8)
    for trial in range(3):
        zeros = 0.6 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)) / math.sqrt(2)
        f = BlaschkeProduct(zeros, np.exp(1j * rng.uniform(0, 2 * np.pi)))
        for _ in range(4):
            z = rng.uniform(0, 0.7) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            s = abs(f([z])[0])
            for order, m in ((3, 1), (5, 2)):
                A, _ = cauchy_derivative(f, [z], (order,))
                assert abs(A[0]) <= rhs_szasz(m, abs(z)) + 1e-7
                assert abs(A[0]) <= rhs_ruscheweyh(order, abs(z), s) + 1e-7
