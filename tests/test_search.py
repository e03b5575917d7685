import math
import tracemalloc

import numpy as np
import pytest

from polyschwarz import (BlaschkeProduct, ColonnaMap, ComposedMap, HypothesisError, JacobianPair,
                         PolydiskAutomorphism, SeriesMap, direction_max, direction_upper,
                         jacobian_pair, make_report, random_bounded_map, reevaluate,
                         sharpness_ratio, sharpness_search, verify_derivative_bound,
                         verify_gradient_bound)
from polyschwarz import bounds, mapping, search
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


def _random_jacobian(rng, *shape):
    # shape (N, n) for one Jacobian, (P, N, n) for a stack
    return JacobianPair(rng.normal(size=shape) + 1j * rng.normal(size=shape),
                        rng.normal(size=shape) + 1j * rng.normal(size=shape))


def test_direction_max_closed_form_for_one_column_is_exact():
    rng = np.random.default_rng(11)
    phi = 2 * np.pi * np.arange(200000) / 200000
    for N in (1, 2, 3):
        jp = _random_jacobian(rng, N, 1)
        d, dbar = jp.d[:, 0], jp.dbar[:, 0]
        closed = math.sqrt(np.linalg.norm(d) ** 2 + np.linalg.norm(dbar) ** 2
                           + 2 * abs(np.vdot(dbar, d)))
        theta, v = direction_max(jp)
        assert v == pytest.approx(closed, rel=1e-14)
        attained = np.linalg.norm(d * theta[0] + dbar * np.conj(theta[0]))
        assert attained == pytest.approx(v, rel=1e-15)
        dense = np.linalg.norm(np.outer(np.exp(1j * phi), d)
                               + np.outer(np.exp(-1j * phi), dbar), axis=1).max()
        assert dense <= closed * (1 + 1e-14)
        assert dense == pytest.approx(closed, rel=1e-9)
        upper, boxes = direction_upper(jp, 0.0)
        assert upper >= v and upper == pytest.approx(closed, rel=1e-14) and boxes == 0


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_direction_upper_is_sound_and_decides(n, N):
    rng = np.random.default_rng(100 * n + N)
    # first-order boxes need about 8x more per halving at n = 3, so its gap is wider
    for _ in range(4):
        jp = _random_jacobian(rng, N, n)
        _, v = direction_max(jp)
        for factor in ((1.02, 1.5) if n == 2 else (1.1, 1.5)):
            upper, boxes = direction_upper(jp, factor * v)
            assert upper is not None and (boxes == 0 or boxes >= 4 ** n)
            assert v <= upper <= factor * v
            if n == 2:
                assert upper >= _brute_force_direction_max(jp.d, jp.dbar)


def test_direction_upper_below_the_attained_value_fails():
    rng = np.random.default_rng(21)
    for n in (2, 3):
        jp = _random_jacobian(rng, 2, n)
        _, v = direction_max(jp)
        upper, boxes = direction_upper(jp, 0.99 * v)
        assert upper > 0.99 * v and upper >= v and boxes > 0
    f = random_bounded_map(2, 2, 3, seed=4)
    r = verify_gradient_bound(f, [0.3, 0.2j])
    low = verify_gradient_bound(f, [0.3, 0.2j], tol=0.99 * r.lhs - r.rhs)
    assert not low.passed and low.params["upper"] > low.rhs + low.tol


def test_gradient_undecided_at_the_box_cap_is_never_a_pass():
    f = random_bounded_map(2, 2, 3, seed=4)
    z = [0.3, 0.2j]
    decided = verify_gradient_bound(f, z)
    assert decided.passed and decided.lhs <= decided.params["upper"] <= decided.rhs + decided.tol
    # A threshold at the maximum itself: the boxes around the maximiser never drop.
    tight = verify_gradient_bound(f, z, tol=decided.lhs - decided.rhs)
    assert tight.params["upper"] is None and tight.params["boxes"] > 0
    assert not tight.passed and tight.lhs == decided.lhs
    assert '"upper": null' in tight.to_json() and '"pass": false' in tight.to_json()
    assert not make_report("gradient_direction", {}, 0.5, 1.0, 0.0, upper=math.inf).passed


def test_direction_upper_in_nine_variables_needs_no_boxes():
    # 4^9 start boxes exceed the cap, so only the sum of the column maxima decides
    jp = _random_jacobian(np.random.default_rng(9), 2, 9)
    _, v = direction_max(jp)
    columns = np.sqrt(np.sum(np.abs(jp.d) ** 2 + np.abs(jp.dbar) ** 2, axis=0)
                      + 2 * np.abs(np.sum(np.conj(jp.dbar) * jp.d, axis=0))).sum()
    assert v < columns
    upper, boxes = direction_upper(jp, 1.01 * columns)
    assert boxes == 0 and v <= columns <= upper <= 1.01 * columns
    assert direction_upper(jp, 0.5 * (v + columns)) == (None, 0)
    r = verify_gradient_bound(random_bounded_map(9, 2, 2, seed=1), [0.9] + [0.1j] * 8)
    assert r.passed and r.params["boxes"] == 0 and r.lhs <= r.params["upper"] <= r.rhs


def _attained(jp, theta):
    return np.linalg.norm(np.sum(jp.d * theta[..., None, :]
                                 + jp.dbar * np.conj(theta)[..., None, :], axis=-1), axis=-1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_direction_max_of_a_stack_equals_one_at_a_time(n):
    rng = np.random.default_rng(40 + n)
    shapes = [(42, N, n) for N in (1, 2, 3)] + ([(6, 2, 9)] if n == 4 else [])
    for shape in shapes:
        jp = _random_jacobian(rng, *shape)
        theta, values = direction_max(jp)
        assert theta.shape == (shape[0], shape[2]) and values.shape == (shape[0],)
        alone = np.array([direction_max(JacobianPair(d, dbar))[1] for d, dbar in zip(jp.d, jp.dbar)])
        assert np.all(np.abs(values - alone) <= 1e-12 * alone)
        # each theta lies on the torus and attains its value
        assert np.allclose(np.abs(theta), 1.0, rtol=0, atol=1e-15)
        assert np.all(np.abs(_attained(jp, theta) - values) <= 1e-12 * values)


@pytest.mark.parametrize("N, n", [(3, 2), (40, 2)])
def test_direction_max_of_a_stack_larger_than_a_chunk_equals_its_chunks(N, n):
    chunk = bounds._direction_chunk(N, n)
    jp = _random_jacobian(np.random.default_rng(N), 2 * chunk + 3, N, n)
    theta, values = direction_max(jp)
    for start in range(0, len(values), chunk):
        part = JacobianPair(jp.d[start:start + chunk], jp.dbar[start:start + chunk])
        t, v = direction_max(part)
        assert np.array_equal(t, theta[start:start + chunk])
        assert np.array_equal(v, values[start:start + chunk])


@pytest.mark.parametrize("P, N, n", [(500, 6, 3), (20, 150, 3)])
def test_direction_max_of_a_large_stack_stays_within_the_chunk_budget(P, N, n):
    # At n = 3 the start grid has 512 points, so one array of grid values for the
    # whole stack would take P * 512 * N * 16 bytes (24.6 MiB here); a chunk of
    # (20, 150, 3) holds one Jacobian.
    jp = _random_jacobian(np.random.default_rng(P), P, N, n)
    tracemalloc.start()
    try:
        _, values = direction_max(jp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert P * bounds.DIRECTION_GRID_POINTS * N * 16 > bounds.DIRECTION_CHUNK_BYTES
    assert peak < bounds.DIRECTION_CHUNK_BYTES
    assert values.shape == (P,) and np.all(values > 0)


def test_direction_max_of_a_tall_jacobian_matches_brute_force():
    # tall Jacobians, N = 12 > 2n rows, against a brute-force grid
    rng = np.random.default_rng(13)
    jp = _random_jacobian(rng, 4, 12, 2)
    theta, values = direction_max(jp)
    assert np.array_equal(values, _attained(jp, theta))
    for d, dbar, v in zip(jp.d, jp.dbar, values):
        assert v == pytest.approx(_brute_force_direction_max(d, dbar), abs=1e-3)


def test_direction_max_of_an_empty_stack():
    theta, values = direction_max(JacobianPair(np.zeros((0, 2, 3)), np.zeros((0, 2, 3))))
    assert theta.shape == (0, 3) and values.shape == (0,)
    with pytest.raises(ValueError):
        direction_max(JacobianPair(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 2, 2))))


def test_gradient_grid_gives_each_point_its_own_report(monkeypatch):
    f = random_bounded_map(2, 2, 3, seed=12)
    rng = np.random.default_rng(12)
    points = 0.9 * rng.uniform(size=(25, 2)) * np.exp(2j * np.pi * rng.uniform(size=(25, 2)))
    calls = []
    monkeypatch.setattr(bounds, "direction_max", lambda jp: calls.append(jp) or direction_max(jp))
    reports = verify_gradient_bound(f, points)
    assert len(calls) == 1 and calls[0].d.shape == (25, 2, 2)
    monkeypatch.undo()
    assert len(reports) == 25
    for z, r in zip(points, reports):
        alone = verify_gradient_bound(f, z)
        assert r.lhs == pytest.approx(alone.lhs, rel=1e-12, abs=0)
        assert (r.rhs, r.tol, r.passed, r.params) == (alone.rhs, alone.tol, alone.passed,
                                                       alone.params)
    assert verify_gradient_bound(f, np.zeros((0, 2))) == []


def test_gradient_equality_case_with_one_variable_is_decided():
    # the planar extremal map at 0 attains 4/pi; the closed form certifies it
    r = verify_gradient_bound(ColonnaMap(1, 0, 1).to_series(40), [0.0])
    assert r.passed and r.params["boxes"] == 0
    assert r.params["upper"] == pytest.approx(4 / math.pi, abs=1e-9)


def test_sharpness_ratio_examples():
    half = SeriesMap(1, 1, {(1,): [0.5]})
    assert sharpness_ratio(half, [0.0], (1,)) == pytest.approx(0.5 * math.pi / 4.0, abs=1e-12)
    assert sharpness_ratio(half, [0.0], (1,)) == pytest.approx(0.3926990816987241, abs=1e-12)
    # planar extremal attains the bound at the origin, on both evaluation paths
    series = ColonnaMap(1, 0, 1).to_series(40)
    assert sharpness_ratio(series, [0.0], (1,)) == pytest.approx(1.0, abs=1e-9)
    closed = ColonnaMap(1, 0, 1)
    assert sharpness_ratio(closed, [0.0], (1,)) == pytest.approx(1.0, abs=1e-12)


def test_sharpness_ratio_validation():
    f = random_bounded_map(1, 1, 2, seed=0)
    with pytest.raises(ValueError):
        sharpness_ratio(f, [0.1], (0,))


def _ratio_cases():
    """(map, alpha) pairs of every map class, with n = 1, 2 and 3 for series."""
    composed = ComposedMap(PolydiskAutomorphism([0.3 - 0.2j, 0.1j]),
                           random_bounded_map(2, 1, 4, seed=6))
    series = [random_bounded_map(n, 1, 6 - n, seed=n) for n in (1, 2, 3)]
    return [(series[0], (1,)), (series[0], (3,)), (series[1], (1, 1)), (series[1], (2, 1)),
            (series[2], (1, 1, 1)), (series[2], (1, 2, 1)),
            (ColonnaMap(1j, 0.4 - 0.3j, -1.0), (1,)), (ColonnaMap(), (4,)),
            (BlaschkeProduct([0.5, -0.3j], 1j), (2,)),
            (composed, (1, 1)), (composed, (1, 2)),
            (search._tensor_colonna_map([0.2 + 0.1j, -0.3]), (1, 1))]


@pytest.mark.parametrize("index", range(len(_ratio_cases())))
def test_sharpness_ratio_is_the_exact_report_ratio_bit_for_bit(index):
    f, alpha = _ratio_cases()[index]
    rng = np.random.default_rng(30 + index)
    points = [np.zeros(f.n, dtype=complex), np.r_[0.0, 0.5j * np.ones(f.n - 1)]]
    radii, phases = rng.uniform(size=(2, 8, f.n))
    points += list(0.9 * radii * np.exp(2j * np.pi * phases))
    for z in points:
        report = verify_derivative_bound(f, z, alpha)
        assert sharpness_ratio(f, z, alpha) == report.lhs / report.rhs


def test_sharpness_ratio_keeps_the_checks_of_the_exact_report():
    f = random_bounded_map(2, 1, 3, seed=1)
    refusals = [(f.scaled(2.0), [0.1, 0.2], (1, 1), HypothesisError),
                (random_bounded_map(2, 2, 3, seed=1), [0.1, 0.2], (1, 1), HypothesisError),
                (f, [0.1, 0.2], (1, 0), ValueError), (f, [0.1], (1, 1), ValueError),
                (f, [0.1, 1.0], (1, 1), ValueError),
                # an rhs past the largest double, with a finite or a NaN lhs
                (random_bounded_map(1, 1, 3, seed=1), [0.9], (170,), ValueError),
                (ColonnaMap(), [0.9], (170,), ValueError)]
    for g, z, alpha, error in refusals:
        with pytest.raises(error) as from_ratio, np.errstate(all="ignore"):
            sharpness_ratio(g, z, alpha)
        with pytest.raises(error) as from_report, np.errstate(all="ignore"):
            verify_derivative_bound(g, z, alpha)
        assert str(from_ratio.value) == str(from_report.value)
    # a ratio is taken at one point, not at a stack
    with pytest.raises(ValueError, match="expected points with 2 coordinates"):
        sharpness_ratio(f, [[0.1, 0.2]] * 2, (1, 1))


def _must_not_run(*args):
    raise AssertionError("reached past the check that must refuse first")


@pytest.mark.parametrize("family, n", [("colonna_tensor", 1), ("colonna_tensor", 2),
                                       ("random_series", 2)])
def test_the_search_certifies_each_built_map_before_scoring_it(monkeypatch, family, n):
    monkeypatch.setattr(search, "_exact_ratio", _must_not_run)
    # a family map whose l1 norm is 1.5, then one with N = 2
    for bad, refusal in ((random_bounded_map(n, 1, 3, seed=1).scaled(1.5 / 0.95), "not certified"),
                         (random_bounded_map(n, 2, 3, seed=1), "codomain dimension")):
        monkeypatch.setattr(search, "_build_family_map", lambda *args: bad)
        with pytest.raises(HypothesisError, match=refusal):
            sharpness_search(n, (1,) * n, family, budget=10, seed=1)


def test_the_search_refuses_an_order_before_scoring_a_candidate(monkeypatch):
    monkeypatch.setattr(search, "_exact_ratio", _must_not_run)
    # every order above MAX_CLOSED_FORM_ORDER has alpha! past the largest double,
    # so the order check of the search refuses it before any map is built
    monkeypatch.setattr(search, "_build_family_map", _must_not_run)
    with pytest.raises(ValueError, match="exceeds the largest double"):
        sharpness_search(1, (mapping.MAX_CLOSED_FORM_ORDER + 1,), budget=10, seed=1)
    # the cap itself is applied to each built map, before its first candidate
    monkeypatch.undo()
    monkeypatch.setattr(search, "_exact_ratio", _must_not_run)
    monkeypatch.setattr(mapping, "MAX_CLOSED_FORM_ORDER", 1)
    with pytest.raises(ValueError, match="derivative orders above 1 "):
        sharpness_search(1, (2,), "colonna_tensor", budget=10, seed=1)


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
        assert sharpness_ratio(f, [1j * t], (1,)) == pytest.approx(1.0, abs=1e-12)


def test_jacobian_pair_feeds_direction_max():
    f = random_bounded_map(2, 2, 3, seed=14)
    jp = jacobian_pair(f, [0.2, -0.1j])
    _, v = direction_max(jp)
    bf = _brute_force_direction_max(np.atleast_2d(jp.d), np.atleast_2d(jp.dbar))
    assert v == pytest.approx(bf, abs=1e-3)


@pytest.mark.parametrize("family, n, alpha", [("random_series", 2, (2, 1)),
                                              ("colonna_tensor", 1, (1,)),
                                              ("colonna_tensor", 2, (1, 1))])
def test_sharpness_search_builds_each_candidate_once(monkeypatch, family, n, alpha):
    builds, evaluated = [], []
    build, ratio = search._build_family_map, search._exact_ratio

    def counting_build(family, n, params):
        builds.append((params, build(family, n, params)))
        return builds[-1][1]

    def recording_ratio(mapping, Z, alpha):
        # Z is the candidate's checked (1, n) stack: the bytes of its one z.
        evaluated.append((mapping, Z.tobytes()))
        return ratio(mapping, Z, alpha)

    monkeypatch.setattr(search, "_build_family_map", counting_build)
    monkeypatch.setattr(search, "_exact_ratio", recording_ratio)
    res = sharpness_search(n, alpha, family, budget=80, seed=2)
    assert res.evaluations == 80
    # a ratio is computed once per distinct (parameters, z); repeats of a
    # candidate read it back and still count as evaluations
    params = {id(m): repr(p) for p, m in builds}
    keys = {(params[id(m)], z) for m, z in evaluated}
    assert len(evaluated) == len(keys) < res.evaluations
    # every computed ratio uses the latest build, and a build happens only
    # when the parameters differ from the previous computed ratio's
    order = {id(m): i for i, (_, m) in enumerate(builds)}
    used = [order[id(m)] for m, _ in evaluated]
    assert used == sorted(used) and set(used) == set(range(len(builds)))
    assert all(p != q for (p, _), (q, _) in zip(builds, builds[1:]))
    assert len(builds) < len(evaluated)
    if family == "random_series":
        # one parameter set per start: each is built exactly once
        seeds = [p["seed"] for p, _ in builds]
        assert len(seeds) == len(set(seeds))
    assert reevaluate(res) == pytest.approx(res.ratio, rel=1e-12)


# Results recorded before repeated candidates were read back instead of
# recomputed; the search must still return them bit for bit.
PINNED_SEARCHES = [
    ((2, (2, 1), "random_series", 80, 2),
     {"family": "random_series", "family_params": {"degree": 3, "seed": 1798679648},
      "z": [[0.0, 0.0], [0.0, 0.0]], "alpha": [2, 1], "ratio": 0.06758844399037207,
      "evaluations": 80}),
    ((1, (1,), "colonna_tensor", 80, 2),
     {"family": "colonna_tensor", "family_params": {"a": [[0.08116777739064734, 0.0]]},
      "z": [[0.13905764746872637, 0.0]], "alpha": [1], "ratio": 1.0000000000000002,
      "evaluations": 80}),
    ((2, (1, 1), "colonna_tensor", 80, 2),
     {"family": "colonna_tensor", "family_params": {"a": [[0.0, 0.0], [0.0, 0.0]]},
      "z": [[0.0, 0.0], [0.0, 0.0]], "alpha": [1, 1], "ratio": 0.19213802212122888,
      "evaluations": 80}),
    ((3, (1, 1, 1), "random_series", 100, 801),
     {"family": "random_series", "family_params": {"degree": 3, "seed": 1041919648},
      "z": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], "alpha": [1, 1, 1],
      "ratio": 0.06944713438272651, "evaluations": 100}),
]


@pytest.mark.parametrize("case, expected", PINNED_SEARCHES)
def test_sharpness_search_results_are_pinned(case, expected):
    n, alpha, family, budget, seed = case
    res = sharpness_search(n, alpha, family, budget=budget, seed=seed)
    assert res.to_json_dict() == expected
    assert reevaluate(res) == pytest.approx(res.ratio, rel=1e-12)


def test_tensor_colonna_size_guard():
    assert search._tensor_colonna_map([0.1, 0.2j, 0.0, 0.3, -0.1]).a.shape == (1,) + (17,) * 5
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"\(1(, 17){6}\) needs 368 MiB"):
            search._tensor_colonna_map([0.0] * 6)
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
