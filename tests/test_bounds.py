import dataclasses
import json
import math

import numpy as np
import pytest

from polyschwarz import (BlaschkeProduct, BoundReport, ColonnaMap, ComposedMap, HypothesisError,
                         JacobianPair, MapFormatError, PluriharmonicMap, PolydiskAutomorphism,
                         QuadratureSpec, SeriesMap, cauchy_derivative, cauchy_rule,
                         derivative_exact, direction_max, direction_upper, jacobian_pair,
                         make_report, random_bounded_map, require_certified, rhs_colonna,
                         rhs_gradient, rhs_growth, rhs_polydisk, rhs_ruscheweyh, rhs_szasz,
                         verify_coefficient_bound, verify_derivative_bound,
                         verify_gradient_bound, verify_growth_bound, verify_homogeneous_bound,
                         verify_l2_bound, unit_index)
from polyschwarz import mapping, quadrature

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


def test_rhs_szasz_refuses_an_order_whose_factorial_is_not_a_double():
    # (2m+1)! = 173! at m = 86 once died with "int too large to convert to float"
    for m in (85, 86):
        with pytest.raises(ValueError, match="alpha! exceeds the largest double"):
            rhs_szasz(m, 0.1)
    assert rhs_szasz(84, 0.0) == float(math.factorial(169))


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


def _asdict_json(report) -> str:
    # The former BoundReport.to_json, kept as the reference: a deep copy by asdict.
    d = dataclasses.asdict(report)
    d["pass"] = d.pop("passed")
    return json.dumps(d, sort_keys=True)


def test_report_json_matches_the_asdict_form_byte_for_byte():
    f = random_bounded_map(2, 1, 3, seed=6)
    decided = verify_gradient_bound(f, [0.3, 0.2j])
    undecided = verify_gradient_bound(f, [0.3, 0.2j], tol=decided.lhs - decided.rhs)
    assert isinstance(decided.params["upper"], float) and undecided.params["upper"] is None
    reports = [verify_derivative_bound(f, [0.5, -0.25j], (2, 1)), decided, undecided,
               *verify_coefficient_bound(f, 2, spec=QuadratureSpec(16)), verify_l2_bound(f)]
    assert reports[-1].params == {} and reports[3].params == {"k": [0, 1]}
    for r in reports:
        assert r.to_json() == _asdict_json(r)


def test_each_map_class_states_its_sup_bound():
    assert ColonnaMap(1, 0, 1).sup_bound == 1.0
    assert BlaschkeProduct([0.3]).sup_bound == 1.0
    f = SeriesMap(1, 1, {(1,): [0.6]}, {(2,): [0.3]})
    assert f.sup_bound == f.l1_norm == pytest.approx(0.9)
    # an automorphism maps the polydisk onto itself, so a composition keeps its outer bound
    phi = PolydiskAutomorphism([0.2])
    assert ComposedMap(phi, f).sup_bound == f.sup_bound
    assert ComposedMap(phi, ColonnaMap(1j, 0.3, 1)).sup_bound == 1.0
    assert ComposedMap(phi, BlaschkeProduct([0.3, -0.5j])).sup_bound == 1.0
    # a declared bound counts where it is below the l1 norm
    assert SeriesMap.from_tensors(f.c, certified_sup=0.5).sup_bound == 0.5
    assert SeriesMap.from_tensors(f.c, certified_sup=2.0).sup_bound == f.l1_norm
    assert SeriesMap(1, 1, f.holo, f.anti, certified_sup=0.25).sup_bound == 0.25
    # the truncated extremal series carries a range certificate despite l1 > 1
    s = ColonnaMap(1, 0, 1).to_series(32)
    assert s.l1_norm > 1.0 and s.sup_bound == 1.0
    # a class that states no bound has none
    assert PluriharmonicMap().sup_bound == math.inf
    for bad in (-0.5, math.nan, math.inf, "one"):
        with pytest.raises(MapFormatError, match="certified_sup"):
            SeriesMap.from_tensors(np.zeros((2, 2), complex), certified_sup=bad)


def test_require_certified_reads_the_bound_the_class_states():
    class Stated(PluriharmonicMap):
        n = N = 1
        sup_bound = 0.5

    assert require_certified(Stated()) == 0.5
    Stated.sup_bound = 1.5
    with pytest.raises(HypothesisError, match=r"sup bound 1\.5 > 1"):
        require_certified(Stated())


@pytest.mark.xfail(strict=True, reason="ColonnaMap.to_series stamps certified_sup = 1.0 on a "
                   "truncation that reaches |f| = 1.16645 (FOUND in CHANGES.md, ROADMAP item 1)")
def test_a_truncated_extremal_series_stays_within_its_sup_bound():
    s = ColonnaMap().to_series(32)
    z = 0.999 * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 20001))
    assert np.abs(s.eval_points(z[:, None])).max() <= s.sup_bound


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


@pytest.mark.parametrize("f, z", [(random_bounded_map(2, 1, 3, seed=1), np.zeros((4, 2))),
                                  (ColonnaMap(), [0.3j])])
def test_an_exact_derivative_report_checks_its_points_once(monkeypatch, f, z):
    calls = []
    check = mapping.check_points
    monkeypatch.setattr(mapping, "check_points", lambda Z, n: calls.append(n) or check(Z, n))
    verify_derivative_bound(f, z, (1,) * f.n)
    assert calls == [f.n]


@pytest.mark.parametrize("f, z", [
    (random_bounded_map(1, 2, 3, seed=1), [[0.2], [0.5j]]),
    (random_bounded_map(2, 1, 3, seed=2), np.full((3, 2), 0.3j)),
    (ComposedMap(PolydiskAutomorphism([0.2, -0.1j, 0.3]), random_bounded_map(3, 2, 3, seed=3)),
     [0.1, 0.2, -0.3j]),
    (ColonnaMap(), [0.3j])])
def test_a_gradient_report_checks_its_points_once(monkeypatch, f, z):
    # jacobian_pair once took each column through derivative_exact, which checked the
    # points again: 1 + n checks per report.
    calls = []
    check = mapping.check_points
    monkeypatch.setattr(mapping, "check_points", lambda Z, n: calls.append(n) or check(Z, n))
    reports = verify_gradient_bound(f, z)
    monkeypatch.undo()
    assert calls == [f.n]
    # and the reports are the bits that the Jacobians of derivative_exact columns give
    Z = np.reshape(z, (-1, f.n))
    columns = [derivative_exact(f, Z, unit_index(f.n, m)) for m in range(f.n)]
    d, dbar = (np.stack([col[i] for col in columns], axis=-1) for i in (0, 1))
    _, values = direction_max(JacobianPair(d, dbar))
    for r, value, dp, dbarp in zip(reports if isinstance(reports, list) else [reports],
                                   values, d, dbar):
        upper, boxes = direction_upper(JacobianPair(dp, dbarp), r.rhs + r.tol)
        assert (r.lhs, r.params["upper"], r.params["boxes"]) == (value, upper, boxes)


def test_a_cauchy_derivative_report_checks_its_points_once(monkeypatch):
    cases = [(random_bounded_map(2, 1, 3, seed=1), np.zeros((3, 2)), None),
             (ComposedMap(PolydiskAutomorphism([0.2, -0.1j]), random_bounded_map(2, 1, 3, seed=2)),
              [0.3, 0.1j], None),
             (ColonnaMap(), [0.3j], None),
             (random_bounded_map(1, 1, 4, seed=3), [[0.2], [0.5j]], QuadratureSpec(64, (0.8,)))]
    calls = []
    check = mapping.check_points

    def counted(Z, n):
        calls.append(n)
        return check(Z, n)

    for f, z, spec in cases:
        alpha = (1,) * f.n
        monkeypatch.setattr(mapping, "check_points", counted)
        monkeypatch.setattr(quadrature, "check_points", counted)
        reports = verify_derivative_bound(f, z, alpha, method="cauchy", spec=spec)
        monkeypatch.undo()
        assert calls == [f.n]
        calls.clear()
        # each report is the one the public entry points give its point
        for r, point in zip(np.atleast_1d(reports), np.reshape(z, (-1, f.n))):
            rule = cauchy_rule(point, alpha, f.sup_bound, spec)
            A, B = cauchy_derivative(f, point, alpha, rule)
            assert r.lhs == abs(A[0]) + abs(B[0])
            assert r.params["error_bound"] == rule.error_bound + rule.rounding
    # The public entry points keep every check, with its message.
    f = random_bounded_map(1, 1, 3, seed=1)
    rule = cauchy_rule([0.3], (1,))
    with pytest.raises(ValueError, match=r"radius 0.5477\d* on axis 0 must exceed \|z_0\| = 0.9"):
        cauchy_derivative(f, [0.9], (1,), rule)
    with pytest.raises(ValueError, match="radius nan on axis 0 must exceed"):
        cauchy_derivative(f, [0.3], (1,), dataclasses.replace(rule, radii=(math.nan,)))
    with pytest.raises(MapFormatError, match="16777216 nodes .* 512 MiB"):
        cauchy_rule([0.3], (1,), spec=QuadratureSpec(2**24))
    with pytest.raises(MapFormatError, match="16777216 nodes .* 512 MiB"):
        cauchy_derivative(f, [0.3], (1,), dataclasses.replace(rule, nodes=(2**24,)))


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
        assert verify_gradient_bound(f, z).passed
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


# ---------------------------------------------------------------------------
# Grids: one report per point (and degree), each the one it gets alone.
# ---------------------------------------------------------------------------

def _centred(f):
    """f without its constant term, so that f(0) = 0."""
    c = f.c.copy()
    c[(slice(None),) + (0,) * f.n] = 0
    return SeriesMap.from_tensors(c)


def _complex_points(n, count, seed, cap=0.8):
    rng = np.random.default_rng(seed)
    return cap * np.sqrt(rng.uniform(size=(count, n))) * np.exp(2j * np.pi * rng.uniform(size=(count, n)))


GRIDS = {
    "derivative exact": (lambda f, Z: verify_derivative_bound(f, Z, (2,) + (1,) * (f.n - 1)),
                         lambda f, z: [verify_derivative_bound(f, z, (2,) + (1,) * (f.n - 1))]),
    "derivative cauchy": (lambda f, Z: verify_derivative_bound(f, Z, (1,) * f.n, method="cauchy"),
                          lambda f, z: [verify_derivative_bound(f, z, (1,) * f.n, method="cauchy")]),
    "growth": (lambda f, Z: verify_growth_bound(_centred(f), Z),
               lambda f, z: [verify_growth_bound(_centred(f), z)]),
    # points first, then degrees: the order of the coeffs subcommand's reports
    "homogeneous": (lambda f, Z: [r for at_point in zip(*(verify_homogeneous_bound(f, m, Z)
                                                          for m in (1, 2, 3))) for r in at_point],
                    lambda f, z: [verify_homogeneous_bound(f, m, z) for m in (1, 2, 3)]),
}


@pytest.mark.parametrize("check", list(GRIDS))
@pytest.mark.parametrize("n, N", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
def test_each_grid_gives_each_point_its_own_report(check, n, N):
    grid, alone = GRIDS[check]
    f = random_bounded_map(n, N, 6 if n == 1 else 3, seed=10 * n + N)
    # Cauchy rules stay small inside |z_j| <= 0.5, and each point runs its own
    Z = (_complex_points(n, 3, seed=n + N, cap=0.5) if check == "derivative cauchy"
         else _complex_points(n, 9, seed=n + N))
    if check.startswith("derivative") and N > 1:
        # the derivative bound is for scalar maps; a grid refuses the rest as one point does
        with pytest.raises(HypothesisError, match="codomain"):
            grid(f, Z)
        with pytest.raises(HypothesisError, match="codomain"):
            alone(f, Z[0])
        return
    reports = grid(f, Z)
    # dataclass equality compares every float bit for bit, params included
    assert reports == [r for z in Z for r in alone(f, z)]
    assert grid(f, np.zeros((0, n))) == []


@pytest.mark.parametrize("n, N", [(1, 1), (2, 2), (3, 2)])
def test_stacked_derivatives_and_jacobians_give_each_point_its_own_bits(n, N):
    f = random_bounded_map(n, N, 5, seed=n)
    maps = [f, ComposedMap(PolydiskAutomorphism([0.3j] + [0.2] * (n - 1)), f)]
    if n == 1:
        maps += [ColonnaMap(1j, 0.4, -1), BlaschkeProduct([0.3, -0.5j], 1j)]
    Z = _complex_points(n, 7, seed=3)
    for g in maps:
        for alpha in [(0,) * n, (1,) * n, (3,) + (0,) * (n - 1)]:
            A, B = derivative_exact(g, Z, alpha)
            assert A.shape == B.shape == (7, g.N)
            for z, a, b in zip(Z, A, B):
                alone = derivative_exact(g, z, alpha)
                assert np.array_equal(alone[0], a) and np.array_equal(alone[1], b)
        jp = jacobian_pair(g, Z)
        assert jp.d.shape == jp.dbar.shape == (7, g.N, n)
        for z, d, dbar in zip(Z, jp.d, jp.dbar):
            alone = jacobian_pair(g, z)
            assert np.array_equal(alone.d, d) and np.array_equal(alone.dbar, dbar)
        A, B = derivative_exact(g, np.zeros((0, n)), (1,) * n)
        assert A.shape == B.shape == (0, g.N)


ONE_POINT = {
    "derivative": lambda f, z: verify_derivative_bound(f, z, (1,) * f.n),
    "gradient": lambda f, z: verify_gradient_bound(f, z),
    "growth": lambda f, z: verify_growth_bound(_centred(f), z),
    "homogeneous": lambda f, z: verify_homogeneous_bound(f, 2, z),
}


@pytest.mark.parametrize("check", list(ONE_POINT))
@pytest.mark.parametrize("n", [1, 2])
def test_a_stack_of_one_point_gives_a_list_of_its_report(check, n):
    verify = ONE_POINT[check]
    f = random_bounded_map(n, 1, 3, seed=n)
    z = _complex_points(n, 1, seed=n)[0]
    alone = verify(f, z)
    assert isinstance(alone, BoundReport)
    assert verify(f, z[None]) == [alone]
    if n == 1:
        # a scalar is one point; so is a 1-D array of scalars, here one with 2 coordinates
        assert verify(f, z[0]) == alone
        with pytest.raises(ValueError, match="expected points with 1 coordinates"):
            verify(f, np.array([0.1, 0.2]))
    # a stack is 2-D: [] is one point with no coordinates
    with pytest.raises(ValueError, match="expected points"):
        verify(f, [])


def test_a_growth_grid_checks_f0_before_any_point():
    shifted = SeriesMap(2, 1, {(0, 0): [0.2], (1, 0): [0.3]})
    for points in ([[0.1, 0.2]], np.zeros((0, 2))):
        with pytest.raises(HypothesisError, match="f\\(0\\)"):
            verify_growth_bound(shifted, points)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
def test_make_report_refuses_a_tolerance_that_is_not_finite(tol):
    with pytest.raises(ValueError, match=r"lhs, rhs and tol must be finite.* got 0.5, 1.0 and"):
        make_report("x", {}, 0.5, 1.0, tol)
    # a negative finite tolerance is accepted, and fails a check with room to spare
    assert not make_report("x", {}, 0.5, 1.0, -1.0).passed
