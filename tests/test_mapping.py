import json
import math

import numpy as np
import pytest

from polyschwarz import (BlaschkeProduct, ColonnaMap, ComposedMap, MapFormatError,
                         PolydiskAutomorphism, QuadratureSpec, SeriesMap, derivative_exact,
                         extract_coefficient, jacobian_pair, load_map, map_from_dict,
                         map_to_dict, random_bounded_map, save_map, sup_bound_l1)

FOUR_OVER_PI = 4.0 / math.pi


def test_evaluate_monomial():
    f = SeriesMap(2, 1, {(1, 1): [1.0]})
    assert f([0.5, 0.5])[0] == pytest.approx(0.25)


def test_evaluate_mixed_series():
    f = SeriesMap(2, 1, {(2, 0): [0.3]}, {(0, 1): [0.2]})
    # hand complex arithmetic: 0.3*(0.5i)^2 + 0.2*conj(0.4)
    assert f([0.5j, 0.4])[0] == pytest.approx(0.005)


def test_evaluate_colonna_closed_form():
    f = ColonnaMap(1, 0, 1)
    # (2/pi)*arg((1+0.5i)/(1-0.5i)) = (4/pi)*arctan(0.5)
    assert f([0.5j])[0].real == pytest.approx(0.5903344706, abs=1e-9)
    assert f([0.5j])[0].imag == pytest.approx(0.0, abs=1e-15)


def test_evaluate_rejects_boundary_and_dimension():
    f = SeriesMap(2, 1, {(1, 0): [1.0]})
    with pytest.raises(ValueError):
        f([1.0, 0.0])
    with pytest.raises(ValueError):
        f([0.5])


def test_derivative_exact_examples():
    f = SeriesMap(2, 1, {(1, 1): [1.0]}, {(2, 0): [1.0]})
    A, B = derivative_exact(f, [0.3, -0.2], (1, 1))
    assert A[0] == pytest.approx(1.0)
    assert B[0] == pytest.approx(0.0)

    g = SeriesMap(2, 1, {(2, 0): [0.3]})
    A, B = derivative_exact(g, [0.1, 0.7], (2, 0))
    assert A[0] == pytest.approx(0.6)
    assert B[0] == pytest.approx(0.0)


def test_derivative_exact_colonna_series_first_order():
    # h = g = -(i/pi) log((1+z)/(1-z)), so h'(0) = -2i/pi on both sides.
    f = ColonnaMap(1, 0, 1).to_series(32)
    A, B = derivative_exact(f, [0.0], (1,))
    assert abs(A[0]) == pytest.approx(2.0 / math.pi, abs=1e-10)
    assert abs(B[0]) == pytest.approx(2.0 / math.pi, abs=1e-10)
    assert abs(A[0]) + abs(B[0]) == pytest.approx(FOUR_OVER_PI, abs=1e-10)


def test_derivative_exact_zero_order_reproduces_evaluate():
    rng = np.random.default_rng(3)
    f = random_bounded_map(2, 1, 4, seed=11)
    for _ in range(10):
        z = 0.7 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)) / math.sqrt(2)
        A, B = derivative_exact(f, z, (0, 0))
        assert A[0] + B[0] == pytest.approx(f(z)[0], abs=1e-14)


def test_derivative_exact_finite_differences():
    f = random_bounded_map(2, 2, 4, seed=5)
    rng = np.random.default_rng(9)
    h = 1e-5
    for _ in range(5):
        z = 0.5 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)) / math.sqrt(2)
        for j in range(2):
            alpha = tuple(1 if i == j else 0 for i in range(2))
            A, B = derivative_exact(f, z, alpha)
            e = np.zeros(2, complex)
            e[j] = 1.0
            # Wirtinger: df/dz = (d/dx - i d/dy)/2, df/dzbar = (d/dx + i d/dy)/2
            fx = (f(z + h * e) - f(z - h * e)) / (2 * h)
            fy = (f(z + 1j * h * e) - f(z - 1j * h * e)) / (2 * h)
            np.testing.assert_allclose(A, (fx - 1j * fy) / 2, rtol=1e-6, atol=1e-8)
            np.testing.assert_allclose(B, (fx + 1j * fy) / 2, rtol=1e-6, atol=1e-8)


def test_jacobian_pair_examples():
    # f = Re z1 on a 2-disk
    f = SeriesMap(2, 1, {(1, 0): [0.5]}, {(1, 0): [0.5]})
    jp = jacobian_pair(f, [0.0, 0.0])
    np.testing.assert_allclose(jp.d, [[0.5, 0.0]])
    np.testing.assert_allclose(jp.dbar, [[0.5, 0.0]])

    g = SeriesMap(2, 2, {(1, 0): [1.0, 0.0]}, {(0, 1): [0.0, 1.0]})
    jp = jacobian_pair(g, [0.0, 0.0])
    np.testing.assert_allclose(jp.d, [[1, 0], [0, 0]])
    np.testing.assert_allclose(jp.dbar, [[0, 0], [0, 1]])


def test_jacobian_pair_colonna_moduli():
    jp = jacobian_pair(ColonnaMap(1, 0, 1), [0.0])
    assert abs(jp.d[0, 0]) == pytest.approx(2.0 / math.pi, abs=1e-10)
    assert abs(jp.dbar[0, 0]) == pytest.approx(2.0 / math.pi, abs=1e-10)


def test_colonna_parameter_validation():
    with pytest.raises(ValueError):
        ColonnaMap(1.1, 0, 1)
    with pytest.raises(ValueError):
        ColonnaMap(1, 1.0, 1)
    with pytest.raises(ValueError):
        ColonnaMap(1, 0, 0.5)


def test_colonna_real_valued_and_bounded():
    f = ColonnaMap(1, 0.3 + 0.2j, np.exp(0.7j))
    rng = np.random.default_rng(2)
    z = 0.999 * rng.uniform(0, 1, 1000) * np.exp(2j * np.pi * rng.uniform(0, 1, 1000))
    vals = f.eval_points(z[:, None])[:, 0]
    assert np.max(np.abs(vals.imag)) < 1e-15
    assert np.max(np.abs(vals)) < 1.0


def test_colonna_sup_approaches_one():
    f = ColonnaMap(1, 0, 1)
    t = np.linspace(0.9, 1 - 1e-9, 50)
    vals = np.abs(f.eval_points((1j * t)[:, None])[:, 0])
    assert vals[-1] > 1 - 1e-8
    assert np.all(np.diff(vals) > 0)


def test_compose_identity():
    f = random_bounded_map(2, 1, 3, seed=1)
    T = ComposedMap(PolydiskAutomorphism([0.0, 0.0]), f)
    rng = np.random.default_rng(4)
    for _ in range(20):
        z = 0.8 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)) / math.sqrt(2)
        assert abs(T(z)[0] - f(z)[0]) < 1e-14


def test_compose_center_is_image_of_origin():
    f = random_bounded_map(2, 1, 3, seed=8)
    phi = PolydiskAutomorphism([0.3 - 0.1j, 0.2j], [1.0, np.exp(0.5j)])
    T = ComposedMap(phi, f)
    np.testing.assert_allclose(T([0, 0]), f(phi.center), atol=1e-15)


def test_compose_coefficients_geometric_expansion():
    # f(zeta) = zeta composed with center 0.5: (0.5+zeta)/(1+0.5 zeta)
    f = SeriesMap(1, 1, {(1,): [1.0]})
    T = ComposedMap(PolydiskAutomorphism([0.5]), f)
    spec = QuadratureSpec(64, (0.5,))
    expected = {(1,): 0.75, (2,): -0.375}
    for k, c in expected.items():
        a, b = extract_coefficient(T, k, spec)
        assert a[0] == pytest.approx(c, abs=1e-12)
        assert abs(b[0]) < 1e-12


def test_compose_pointwise_equals_evaluate_after_phi():
    f = random_bounded_map(3, 2, 3, seed=21)
    phi = PolydiskAutomorphism([0.4, -0.2j, 0.1 + 0.3j])
    T = ComposedMap(phi, f)
    rng = np.random.default_rng(17)
    for _ in range(20):
        z = 0.8 * (rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)) / math.sqrt(2)
        np.testing.assert_allclose(T(z), f(phi(z)), atol=1e-13)


def test_automorphism_derivative_at_zero():
    assert np.allclose(PolydiskAutomorphism([0.0, 0.0]).derivative_at_zero(), np.eye(2))
    np.testing.assert_allclose(
        PolydiskAutomorphism([0.5, 0.0]).derivative_at_zero(), np.diag([0.75, 1.0]))
    np.testing.assert_allclose(
        PolydiskAutomorphism([0.6], [1j]).derivative_at_zero(), [[0.64j]])


def test_automorphism_validation():
    with pytest.raises(ValueError):
        PolydiskAutomorphism([1.0])
    with pytest.raises(ValueError):
        PolydiskAutomorphism([0.5], [0.9])


def test_random_bounded_map_contract():
    for seed in (0, 7, 123):
        f = random_bounded_map(2, 1, 5, seed=seed, margin=0.05)
        assert sup_bound_l1(f) <= 0.95 + 1e-12
    g1 = random_bounded_map(2, 1, 5, seed=7)
    g2 = random_bounded_map(2, 1, 5, seed=7)
    assert set(g1.holo) == set(g2.holo)
    for k in g1.holo:
        np.testing.assert_array_equal(g1.holo[k], g2.holo[k])
    const = random_bounded_map(2, 1, 0, seed=3, margin=0.1)
    assert abs(const([0, 0])[0]) <= 0.9


def test_serialization_roundtrip(tmp_path):
    f = random_bounded_map(2, 2, 3, seed=13)
    path = tmp_path / "f.json"
    save_map(f, path)
    g = load_map(path)
    assert (g.n, g.N) == (f.n, f.N)
    rng = np.random.default_rng(6)
    for _ in range(10):
        z = 0.7 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)) / math.sqrt(2)
        np.testing.assert_allclose(g(z), f(z), atol=1e-15)


def test_serialization_json_shape():
    f = SeriesMap(2, 1, {(1, 0): [0.5]}, {(0, 1): [0.25j]})
    d = map_to_dict(f)
    assert d["n"] == 2 and d["N"] == 1
    assert [t["k"] for t in d["terms"]] == [[0, 1], [1, 0]]  # graded lex
    g = map_from_dict(json.loads(json.dumps(d)))
    assert g.anti[(0, 1)][0] == 0.25j


def test_malformed_map_errors_name_term():
    base = {"n": 2, "N": 1, "terms": [{"k": [0, 1], "a": [[0.1, 0.0]]}, {"k": [1]}]}
    with pytest.raises(MapFormatError, match="term 1"):
        map_from_dict(base)
    with pytest.raises(MapFormatError, match="term 0"):
        map_from_dict({"n": 1, "N": 2, "terms": [{"k": [1], "a": [[0.1, 0.0]]}]})
    with pytest.raises(MapFormatError):
        map_from_dict({"N": 1, "terms": []})
    with pytest.raises(MapFormatError, match="duplicate"):
        map_from_dict({"n": 1, "N": 1, "terms": [{"k": [1], "a": [[0.1, 0]]},
                                                 {"k": [1], "b": [[0.1, 0]]}]})


def test_unsound_certificates_and_coefficients_are_rejected():
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(MapFormatError, match="certified_sup"):
            SeriesMap(1, 1, {(1,): [0.5]}, certified_sup=bad)
        with pytest.raises(MapFormatError, match="certified_sup"):
            map_from_dict({"n": 1, "N": 1, "terms": [], "certified_sup": bad})
    for pair in ([math.nan, 0.0], [0.0, math.inf]):
        with pytest.raises(MapFormatError, match="term 0.*finite"):
            map_from_dict({"n": 1, "N": 1, "terms": [{"k": [1], "b": [pair]}]})


def test_composed_map_not_serializable():
    f = random_bounded_map(1, 1, 2, seed=0)
    T = ComposedMap(PolydiskAutomorphism([0.2]), f)
    with pytest.raises(MapFormatError):
        map_to_dict(T)


def _meshgrid_values(f, axes):
    return f.eval_points(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1))


def _axes(rng, lengths):
    """Unequal lengths and radii; the first point of each axis lies off its circle."""
    axes = []
    for m in lengths:
        a = rng.uniform(0.2, 0.95) * np.exp(2j * np.pi * rng.uniform(0, 1, m))
        a[0] *= 0.5
        axes.append(a)
    return axes


def _assert_grid_matches(f, axes):
    vals = f.eval_grid(axes)
    assert vals.shape == tuple(len(a) for a in axes) + (f.N,)
    assert np.max(np.abs(vals - _meshgrid_values(f, axes)), initial=0.0) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("N", [1, 2])
def test_eval_grid_matches_meshgrid_series_and_composed(n, N):
    rng = np.random.default_rng(10 * n + N)
    f = random_bounded_map(n, N, 4, seed=n + N)
    axes = _axes(rng, (7, 5, 3)[:n])
    _assert_grid_matches(f, axes)
    c = 0.5 * rng.uniform(0, 1, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    rot = np.exp(2j * np.pi * rng.uniform(0, 1, n))
    _assert_grid_matches(ComposedMap(PolydiskAutomorphism(c, rot), f), axes)


def test_eval_grid_partial_sparse_and_empty_tables():
    rng = np.random.default_rng(7)
    axes = _axes(rng, (6, 4))
    holo = {(0, 0): [0.1], (3, 1): [0.2 - 0.1j], (0, 5): [0.05j]}
    anti = {(2, 0): [0.1j], (1, 4): [-0.07]}
    for f in (SeriesMap(2, 1, holo), SeriesMap(2, 1, None, anti), SeriesMap(2, 1, holo, anti),
              SeriesMap(2, 1, {(7, 0): [0.3]}, {(0, 6): [0.2]}), SeriesMap(2, 2)):
        _assert_grid_matches(f, axes)
    assert not np.any(SeriesMap(2, 2).eval_grid(axes))


def test_eval_grid_fallback_closed_forms():
    rng = np.random.default_rng(3)
    axes = _axes(rng, (9,))
    for f in (ColonnaMap(1, 0.3 + 0.2j, np.exp(0.7j)),
              BlaschkeProduct([0.3, -0.2 + 0.4j], np.exp(0.2j))):
        _assert_grid_matches(f, axes)
        _assert_grid_matches(ComposedMap(PolydiskAutomorphism([0.4j]), f), axes)


def test_eval_grid_rejects_wrong_axes():
    f = random_bounded_map(2, 1, 2, seed=0)
    with pytest.raises(ValueError):
        f.eval_grid([np.zeros(3)])
    with pytest.raises(ValueError):
        f.eval_grid([np.zeros((2, 2)), np.zeros(2)])
