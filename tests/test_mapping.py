import json
import math
from functools import cached_property

import tracemalloc

import numpy as np
import pytest

from polyschwarz import (BlaschkeProduct, ColonnaMap, ComposedMap, MapFormatError,
                         PluriharmonicMap, PolydiskAutomorphism, QuadratureSpec, SeriesMap, derivative_exact,
                         cauchy_derivative, extract_coefficient, extract_coefficients, jacobian_pair,
                         load_map, map_from_dict, map_to_dict, random_bounded_map, save_map,
                         verify_derivative_bound)
from polyschwarz import mapping
from polyschwarz.multiindex import enumerate_indices

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
    assert abs(jp.d[0, 0]) == pytest.approx(2.0 / math.pi, abs=1e-12)
    assert abs(jp.dbar[0, 0]) == pytest.approx(2.0 / math.pi, abs=1e-12)


def test_colonna_parameter_validation():
    with pytest.raises(ValueError):
        ColonnaMap(1.1, 0, 1)
    with pytest.raises(ValueError):
        ColonnaMap(1, 1.0, 1)
    with pytest.raises(ValueError):
        ColonnaMap(1, 0, 0.5)


def test_colonna_parameter_a_follows_the_point_rule():
    # |a| < 1 - MODULUS_TOL once refused a = 1 - 1e-13 with a message that said |a| < 1.
    f = ColonnaMap(1.0, 1 - 1e-13)
    assert f.sup_bound == 1.0
    A, B = derivative_exact(f, [0.0], (1,))
    assert np.all(np.isfinite(A)) and np.all(np.isfinite(B))
    for a in (1.0, 1j, float("nan")):
        with pytest.raises(ValueError, match="point lies on or outside the unit polydisk"):
            ColonnaMap(1.0, a)


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


# The circle quadrature that to_series used before it read the coefficients
# from the closed form, kept as the reference.
def _reference_fft_series(f, max_degree, nodes=512, radius=0.9):
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    vals = f.eval_points((radius * np.exp(1j * theta))[:, None])[:, 0]
    F = np.fft.fft(vals) / nodes
    m = np.arange(max_degree + 1)
    b = np.where(m > 0, np.conj(F[-m]), 0.0) / radius**m
    return F[m] / radius**m, b


def test_colonna_series_matches_the_circle_quadrature():
    rng = np.random.default_rng(8)
    for _ in range(40):
        gamma, lam = np.exp(2j * np.pi * rng.uniform(size=2))
        a = 0.85 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        f = ColonnaMap(gamma, a, lam)
        for degree in (0, 16, 40):
            s = f.to_series(degree)
            ref_a, ref_b = _reference_fft_series(f, degree)
            assert s.a.shape == s.b.shape == (1, degree + 1)
            assert np.max(np.abs(s.a[0] - ref_a)) < 1e-13
            assert np.max(np.abs(s.b[0] - ref_b)) < 1e-13


def test_colonna_series_of_high_degree_follows_the_closed_form():
    gamma, a, lam = np.exp(0.4j), 0.6 - 0.3j, np.exp(-1.1j)
    s = ColonnaMap(gamma, a, lam).to_series(300)
    # L(psi(t)) = log(u + u1 t) - log(v + v1 t) at 0: c_m = (-1)^(m-1)/m ((u1/u)^m - (v1/v)^m).
    u, u1 = 1 - lam * a, lam - np.conj(a)
    v, v1 = 1 + lam * a, -(lam + np.conj(a))
    c = np.array([(-1) ** (m - 1) / m * ((u1 / u) ** m - (v1 / v) ** m) for m in range(1, 301)])
    np.testing.assert_allclose(s.a[0, 1:], -1j * gamma / math.pi * c, rtol=0, atol=1e-12)
    np.testing.assert_allclose(s.b[0, 1:], -1j * np.conj(gamma) / math.pi * c, rtol=0, atol=1e-12)
    assert s.a[0, 0] == pytest.approx(ColonnaMap(gamma, a, lam)([0.0])[0], abs=1e-15)
    assert s.b[0, 0] == 0


def test_colonna_series_of_oversized_or_negative_degree_is_refused():
    f = ColonnaMap(1, 0.2, 1)
    tracemalloc.start()
    try:
        with pytest.raises(MapFormatError, match=r"\(1, 100000001\).* MiB"):
            f.to_series(10**8)
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    with pytest.raises(ValueError, match="degree"):
        f.to_series(-1)


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


NAN = float("nan")


@pytest.mark.parametrize("build", [
    lambda: random_bounded_map(1, 1, 3, seed=1)([NAN]),
    lambda: random_bounded_map(2, 1, 3, seed=1)([0.1, complex(0.2, NAN)]),
    lambda: derivative_exact(random_bounded_map(1, 1, 3, seed=1), [NAN], (1,)),
    lambda: derivative_exact(ColonnaMap(), [NAN], (1,)),
    lambda: PolydiskAutomorphism([NAN]),
    lambda: PolydiskAutomorphism([0.2, complex(NAN, 0.1)]),
    lambda: ColonnaMap(1, NAN, 1),
    lambda: ColonnaMap(NAN, 0, 1),
    lambda: ColonnaMap(1, 0, complex(1, NAN)),
    lambda: BlaschkeProduct([NAN]),
    lambda: BlaschkeProduct([0.3, complex(0.1, NAN)]),
    lambda: BlaschkeProduct([0.3], rotation=NAN),
], ids=["series point", "series point imag", "derivative point", "colonna point",
        "automorphism center", "automorphism center 2d", "colonna a", "colonna gamma",
        "colonna lambda", "blaschke zero", "blaschke second zero", "blaschke rotation"])
def test_nan_points_and_parameters_are_refused(build):
    # each check is written so that a NaN fails it: "inside the disk" and
    # "unimodular" are both false for NaN
    with pytest.raises(ValueError):
        build()


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
        assert f.l1_norm <= 0.95 + 1e-12
    g1 = random_bounded_map(2, 1, 5, seed=7)
    g2 = random_bounded_map(2, 1, 5, seed=7)
    assert set(g1.holo) == set(g2.holo)
    for k in g1.holo:
        np.testing.assert_array_equal(g1.holo[k], g2.holo[k])
    const = random_bounded_map(2, 1, 0, seed=3, margin=0.1)
    assert abs(const([0, 0])[0]) <= 0.9


def _random_map_through_dicts(n, N, degree, seed, margin=0.05):
    """random_bounded_map's draw, built through coefficient dicts."""
    indices = enumerate_indices(n, degree)
    x = np.random.default_rng(seed).standard_normal((len(indices), 4, N))
    raw = SeriesMap(n, N, dict(zip(indices, x[:, 0] + 1j * x[:, 1])),
                    dict(zip(indices, x[:, 2] + 1j * x[:, 3])))
    return raw.scaled((1.0 - margin) / raw.l1_norm)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("N", [1, 2])
def test_random_bounded_map_equals_the_dict_built_series(n, N):
    for seed in range(5):
        for degree in (0, 3):
            direct = json.dumps(map_to_dict(random_bounded_map(n, N, degree, seed)), sort_keys=True)
            via_dicts = map_to_dict(_random_map_through_dicts(n, N, degree, seed))
            assert direct == json.dumps(via_dicts, sort_keys=True)


def test_oversized_random_map_is_refused_before_allocation():
    tracemalloc.start()
    try:
        # 1820 terms, but a dense tensor of 5^12 entries (3725 MiB)
        with pytest.raises(MapFormatError, match=r"3725 MiB"):
            random_bounded_map(12, 1, 4, seed=0)
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()


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


# The per-term loops that evaluated and differentiated series before their
# coefficients were held as dense tensors, kept as the reference.

def _reference_eval(holo, anti, Z, N):
    Z = np.asarray(Z, dtype=complex)
    out = np.zeros(Z.shape[:-1] + (N,), dtype=complex)
    for k, a in holo.items():
        out += np.prod(Z ** np.asarray(k), axis=-1)[..., None] * a
    Zc = np.conj(Z)
    for k, b in anti.items():
        out += np.prod(Zc ** np.asarray(k), axis=-1)[..., None] * np.conj(b)
    return out


def _reference_derivative(holo, anti, z, alpha, N):
    def part(table, base):
        acc = np.zeros(N, dtype=complex)
        for k, coeff in table.items():
            if all(kj >= aj for kj, aj in zip(k, alpha)):
                fall = 1
                for kj, aj in zip(k, alpha):
                    fall *= math.perm(kj, aj)
                shifted = tuple(kj - aj for kj, aj in zip(k, alpha))
                acc += coeff * fall * np.prod(base ** np.asarray(shifted))
        return acc

    return part(holo, z), part({k: np.conj(v) for k, v in anti.items()}, np.conj(z))


def _absolute(table):
    return {k: np.abs(v) for k, v in table.items()}


def _reference_tables(n, N, rng):
    """Dense random, holo-only, anti-only, empty and sparse high-degree tables."""
    f = random_bounded_map(n, N, 3, seed=10 * n + N)
    sparse_keys = {tuple(int(c) for c in rng.integers(0, 7, n)) for _ in range(4)}
    sparse = {k: rng.standard_normal(N) + 1j * rng.standard_normal(N) for k in sparse_keys}
    half = dict(list(sparse.items())[:2])
    return [(dict(f.holo), dict(f.anti)), (dict(f.holo), {}), ({}, dict(f.anti)), ({}, {}),
            (sparse, half), (half, sparse)]


def _assert_close(value, reference, scale):
    """|value - reference| <= 1e-13 times the sum of the terms' moduli."""
    assert np.all(np.abs(value - reference) <= 1e-13 * scale + 1e-300)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("N", [1, 2])
def test_tensor_evaluation_and_derivatives_match_the_term_loops(n, N):
    rng = np.random.default_rng(100 * n + N)
    points = 0.95 * rng.uniform(0, 1, (6, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, (6, n)))
    alphas = [(0,) * n, (1,) * n, tuple(int(c) for c in rng.integers(0, 4, n)), (9,) + (0,) * (n - 1)]
    axes = _axes(rng, (7, 5, 3)[:n])
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    for holo, anti in _reference_tables(n, N, rng):
        f = SeriesMap(n, N, holo, anti)
        absolute = (_absolute(holo), _absolute(anti))
        _assert_close(f.eval_points(points), _reference_eval(holo, anti, points, N),
                      _reference_eval(*absolute, np.abs(points), N))
        _assert_close(f.eval_grid(axes), _reference_eval(holo, anti, grid, N),
                      _reference_eval(*absolute, np.abs(grid), N))
        for z in points:
            for alpha in alphas:
                A, B = derivative_exact(f, z, alpha)
                ref_A, ref_B = _reference_derivative(holo, anti, z, alpha, N)
                scale_A, scale_B = _reference_derivative(*absolute, np.abs(z), alpha, N)
                _assert_close(A, ref_A, np.abs(scale_A))
                _assert_close(B, ref_B, np.abs(scale_B))


def test_table_views_rebuild_the_tensors_and_are_read_only():
    for n, N in ((1, 1), (2, 2), (3, 1)):
        f = random_bounded_map(n, N, 3, seed=n + N)
        g = SeriesMap(n, N, f.holo, f.anti)
        np.testing.assert_array_equal(g.a, f.a)
        np.testing.assert_array_equal(g.b, f.b)
        k = next(iter(f.holo))
        # each view is built once per map; repeated reads share it
        assert f.holo is f.holo and f.anti is f.anti
        with pytest.raises(TypeError):
            f.holo[k] = np.zeros(N)
        with pytest.raises(ValueError):
            f.holo[k][0] = 0.0
        with pytest.raises(ValueError):
            f.b[(0,) * (n + 1)] = 0.0


def test_l1_norm_is_cached_per_map_and_equals_a_fresh_sum():
    for n, N in ((1, 1), (2, 2), (3, 1)):
        f = random_bounded_map(n, N, 3, seed=7 + n)
        g = f.scaled(0.5)
        for m in (f, SeriesMap(n, N, f.holo, f.anti), g):
            assert "l1_norm" not in vars(m)
            fresh = np.linalg.norm(m.a, axis=0).sum() + np.linalg.norm(m.b, axis=0).sum()
            assert m.l1_norm == fresh
            assert vars(m)["l1_norm"] == fresh
            # the cache is sound only because the tensors cannot be written
            with pytest.raises(ValueError):
                m.a[(0,) * (n + 1)] = 1.0
        # a derived map gets its own value, not its source's
        assert g.l1_norm == pytest.approx(0.5 * f.l1_norm, rel=1e-15)
        assert g.l1_norm != f.l1_norm


def test_zero_valued_terms_are_not_kept():
    f = SeriesMap(2, 1, {(5, 0): [0.0], (1, 0): [0.5]}, {(0, 7): [0.0]})
    assert f.a.shape == f.b.shape == (1, 2, 1)
    assert list(f.holo) == [(1, 0)] and not f.anti and f.degree == 1


def test_oversized_coefficient_tensor_is_refused_before_allocation():
    tracemalloc.start()
    try:
        with pytest.raises(MapFormatError, match=r"\(1, 601, 601, 601\).* MiB"):
            SeriesMap(3, 1, {(600, 600, 600): [0.1]})
        with pytest.raises(MapFormatError, match="64 bits"):
            SeriesMap(1, 1, {(10**19,): [0.1]})
        assert tracemalloc.get_traced_memory()[1] < 32 * 2**20
    finally:
        tracemalloc.stop()


def test_quadrature_leaves_every_map_as_it_was_built():
    # A map holds what its constructor built and its cached_property values; the
    # quadrature routines keep their samples elsewhere.
    f = random_bounded_map(1, 1, 3, seed=2)
    part = f.homogeneous_part(2)
    maps = (f, f.scaled(0.5), part, random_bounded_map(2, 1, 3, seed=1), ColonnaMap(),
            BlaschkeProduct([0.3, -0.2j]), ComposedMap(PolydiskAutomorphism([0.2]), f))
    for g in maps:
        built = dict(vars(g))
        z = [0.3] * g.n
        cauchy_derivative(g, z, (1,) * g.n)
        extract_coefficient(g, (1,) * g.n)
        extract_coefficients(g, 2)
        verify_derivative_bound(g, z, (1,) * g.n, method="cauchy")
        added = vars(g).keys() - built.keys()
        assert all(isinstance(getattr(type(g), name, None), cached_property) for name in added), added
        assert all(vars(g)[name] is value for name, value in built.items())
    np.testing.assert_allclose(maps[1].a, 0.5 * f.a)


def test_derivative_of_an_order_above_the_degree_is_zero_and_allocates_nothing():
    f = random_bounded_map(2, 2, 3, seed=1)
    tracemalloc.start()
    try:
        A, B = derivative_exact(f, [0.1, 0.2j], (10**9, 1))
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    assert not np.any(A) and not np.any(B)


def test_eval_grid_fallback_past_32_axes():
    # The generic eval_grid once built its grid with np.meshgrid (at most 32 axes).
    class Sum(PluriharmonicMap):
        n, N = 33, 1

        def eval_points(self, Z):
            return 0.01 * np.asarray(Z).sum(axis=-1, keepdims=True)

    axes = [np.array([0.1, 0.2j])] + [np.array([0.3])] * 32
    vals = Sum().eval_grid(axes)
    assert vals.shape == (2,) + (1,) * 32 + (1,)
    np.testing.assert_allclose(vals.ravel(), 0.01 * (np.array([0.1, 0.2j]) + 0.3 * 32))


def _binary_power(x: complex, k: int) -> complex:
    """x**k by square-and-multiply in Python complex arithmetic."""
    result, square = 1 + 0j, x
    while k:
        if k & 1:
            result *= square
        k >>= 1
        if k:
            square *= square
    return result


def test_power_tables_agree_with_binary_powering():
    rng = np.random.default_rng(11)
    x = 0.999 * np.sqrt(rng.uniform(size=24)) * np.exp(2j * np.pi * rng.uniform(size=24))
    x = np.concatenate([x, [0.999, -0.999j, 0.999 * np.exp(1j), 0.5, 0.0]])
    d = 1001
    T = mapping._powers(x, d)
    assert T.shape == (d, len(x)) and np.all(T[0] == 1) and np.array_equal(T[1], x)
    ref = np.array([[_binary_power(v, k) for v in x.tolist()] for k in range(d)])
    # To first order each side errs by at most k - 1 complex products, each of relative
    # error sqrt(2) eps (Higham, Accuracy and Stability, 2nd ed., Lemma 3.5): powering
    # carries an early product's error to x**k times the exponent still to come, so the
    # error grows with k rather than with log2 k.  The floor covers values that underflow.
    products = np.maximum(np.arange(d) - 1, 0)[:, None]
    bound = 2 * math.sqrt(2) * products * np.finfo(float).eps * np.abs(ref) + 1e-300
    assert np.all(np.abs(T - ref) <= bound)


@pytest.mark.parametrize("n, N, degree", [(2, 1, 6), (1, 1, 40), (3, 2, 3)])
def test_many_points_are_contracted_within_the_row_budget(n, N, degree):
    # 65536 points of an n = 2, degree-6 map once peaked at 23.0 MiB in eval_points.
    f = random_bounded_map(n, N, degree, seed=5)
    rng = np.random.default_rng(5)
    Z = 0.9 * rng.uniform(size=(65536, n)) * np.exp(2j * np.pi * rng.uniform(size=(65536, n)))
    output = Z.shape[0] * N * 16
    for run, outputs in ((lambda: f.eval_points(Z), 1), (lambda: derivative_exact(f, Z, (1,) * n), 2)):
        run()  # numpy's first call of a kind allocates caches of its own
        tracemalloc.start()
        try:
            result = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mapping.ROW_CHUNK_BYTES + outputs * output
        # and the rows agree with the points alone
        for p in (0, 4097, 65535):
            alone = f(Z[p]) if outputs == 1 else derivative_exact(f, Z[p], (1,) * n)
            assert np.array_equal(np.asarray(result)[..., p, :], np.asarray(alone))


def test_map_files_are_parsed_once_and_build_the_same_tensors(monkeypatch):
    f = random_bounded_map(3, 2, 3, seed=8)
    data = json.loads(json.dumps(map_to_dict(f)))
    data["certified_sup"] = 0.5

    def refuse(*args):
        raise AssertionError("a map file's terms were parsed a second time")

    monkeypatch.setattr(SeriesMap, "_clean_table", refuse)
    g = map_from_dict(data)
    monkeypatch.undo()
    assert np.array_equal(g.a, f.a) and np.array_equal(g.b, f.b) and g.certified_sup == 0.5
    assert not g.a.flags.writeable and not g.b.flags.writeable
    # an all-zero vector adds no term, and does not widen the tensors
    g = map_from_dict({"n": 1, "N": 1, "terms": [{"k": [1], "a": [[0.5, 0]]},
                                                 {"k": [7], "b": [[0.0, 0.0]]}]})
    assert g.a.shape == (1, 2) and list(g.holo) == [(1,)] and not g.anti
    with pytest.raises(MapFormatError, match="64 bits"):
        map_from_dict({"n": 1, "N": 1, "terms": [{"k": [10**19], "a": [[0.1, 0]]}]})
    with pytest.raises(MapFormatError, match="dimensions"):
        map_from_dict({"n": 0, "N": 1, "terms": []})


def _reference_tensors(data: dict) -> tuple[np.ndarray, np.ndarray]:
    """The tensors of a well-formed map dict built term by term in plain Python: complex(re, im)
    per entry, all-zero vectors dropped, each tensor as wide as the largest kept index."""
    n, N = data["n"], data["N"]
    parts = [{}, {}]
    for term in data["terms"]:
        for table, name in zip(parts, "ab"):
            vec = [complex(re, im) for re, im in term.get(name, [])]
            if any(vec):
                table[tuple(term["k"])] = vec
    keys = list(parts[0]) + list(parts[1])
    shape = (N,) + tuple(max((k[j] for k in keys), default=0) + 1 for j in range(n))
    a, b = np.zeros(shape, dtype=complex), np.zeros(shape, dtype=complex)
    for t, table in zip((a, b), parts):
        for k, vec in table.items():
            t[(slice(None),) + k] = vec
    return a, b


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("N", [1, 2])
def test_map_files_give_the_tensors_of_a_term_by_term_parse(n, N):
    rng = np.random.default_rng(10 * n + N)
    entries = [lambda: [float(rng.standard_normal()), float(rng.standard_normal())],
               lambda: [0.0, 0.0], lambda: [-0.0, 0.0], lambda: [int(rng.integers(-3, 4)), 0],
               lambda: [float(rng.standard_normal()) * 1e-300, -0.0], lambda: [2**53 + 1, 0.5]]
    for _ in range(20):
        keys = {tuple(int(x) for x in rng.integers(0, 5, n)) for _ in range(rng.integers(0, 9))}
        terms = []
        for k in keys:
            term = {"k": list(k)}
            for name in "ab":
                if rng.random() < 0.7:  # sparse: some terms carry one part or none
                    term[name] = [entries[rng.integers(len(entries))]() for _ in range(N)]
            terms.append(term)
        data = {"n": n, "N": N, "terms": terms}
        f = map_from_dict(json.loads(json.dumps(data)))
        a, b = _reference_tensors(data)
        # bit for bit, signed zeros included
        assert f.a.shape == a.shape and f.a.tobytes() == a.tobytes()
        assert f.b.shape == b.shape and f.b.tobytes() == b.tobytes()


@pytest.mark.parametrize("terms, message", [
    # a bad b in term 0 is named before a bad a in term 1
    ([{"k": [0], "a": [[0.1, 0]], "b": [[None, 0]]}, {"k": [1], "a": [["1", 0]]}],
     "term 0: coefficient entries must be"),
    # an a is named before the b of the same term
    ([{"k": [0], "a": [[0.1]], "b": [[math.nan, 0]]}], "term 0: coefficient entries must be"),
    ([{"k": [0], "a": [[0.1, 0]], "b": [[math.nan, 0]]}], "term 0: coefficient entries must be finite"),
    # a bad vector is named before a later term's bad structure, and after an earlier one's
    ([{"k": [0], "b": [[0.1, 0, 0]]}, {"k": [0]}], "term 0: coefficient entries must be"),
    ([{"k": [0], "b": [[0.1, 0]]}, {"k": [0]}, {"k": [2], "a": [[None, 0]]}], "term 1: duplicate"),
    ([{"k": [0], "a": [[0.1, 0]]}, [1], {"k": [2], "a": "x"}], "term 1: expected an object"),
])
def test_a_bad_map_file_names_its_first_bad_term_in_file_order(terms, message):
    with pytest.raises(MapFormatError, match=message):
        map_from_dict({"n": 1, "N": 1, "terms": terms})


@pytest.mark.parametrize("vector, message", [
    ([["1.5", "0"]], r"term 1: coefficient entries must be \[re, im\] pairs \(complex\(\) can't"),
    ([["1.5", 0]], r"term 1: coefficient entries must be \[re, im\] pairs"),
    ([[0.5, "0"]], r"term 1: coefficient entries must be \[re, im\] pairs"),
    ([[None, 0.0]], r"term 1: coefficient entries must be \[re, im\] pairs"),
    (None, r"term 1: coefficient entries must be \[re, im\] pairs"),
    ([[0.5]], r"term 1: coefficient entries must be \[re, im\] pairs \(not enough values"),
    ([[0.5, 0.0, 0.0]], r"term 1: coefficient entries must be \[re, im\] pairs \(too many values"),
    ([], "term 1: expected 1 coefficient entries, got 0"),
    ([[0.5, 0.0], [0.5, 0.0]], "term 1: expected 1 coefficient entries, got 2"),
    ([[10**400, 0]], r"term 1: .*\(int too large to convert to float\)"),
    ([[0.5, -10**400]], r"term 1: .*\(int too large to convert to float\)"),
])
def test_malformed_coefficient_vectors_are_refused_with_their_term(vector, message):
    for name in "ab":
        # every other term is well formed, so the one conversion refuses the file
        terms = [{"k": [0], "a": [[0.1, 0.0]]}, {"k": [1], name: vector}, {"k": [2], "b": [[0.2, 0]]}]
        with pytest.raises(MapFormatError, match=message):
            map_from_dict({"n": 1, "N": 1, "terms": terms})


def test_an_infinite_index_component_is_a_value_error():
    # both calls once ended in "OverflowError: cannot convert float infinity to integer"
    f = random_bounded_map(1, 1, 2, 0)
    for call in (lambda: SeriesMap(1, 1, {(math.inf,): [1]}),
                 lambda: derivative_exact(f, 0.1, [math.inf])):
        with pytest.raises(ValueError, match=r"must be integers, got \(inf,\)"):
            call()


def test_an_index_that_is_not_a_sequence_of_integers_is_a_value_error():
    # both calls once ended in "TypeError: 'int' object is not iterable"
    f = random_bounded_map(1, 1, 2, 0)
    for call in (lambda: SeriesMap(1, 1, {5: [1.0]}), lambda: derivative_exact(f, 0.1, 3)):
        with pytest.raises(ValueError, match="must be integers, got [35]"):
            call()


def test_numbers_beyond_the_double_range_are_refused_as_map_format_errors():
    for data, message in [({"n": 1, "N": 1, "terms": [], "certified_sup": 10**400}, "certified_sup"),
                          ({"n": 1, "N": 1, "terms": [{"k": [math.inf], "a": [[0.1, 0]]}]}, "term 0"),
                          ({"n": math.inf, "N": 1, "terms": []}, "integer 'n', 'N'")]:
        with pytest.raises(MapFormatError, match=message):
            map_from_dict(data)
    # an integer that needs no more than a double's range is read as complex() reads it
    g = map_from_dict({"n": 1, "N": 1, "terms": [{"k": [1], "a": [[10**30, 2**64]]}]})
    assert g.a[0, 1] == complex(10**30, 2**64)
