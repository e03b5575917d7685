"""The oracles agree with polyschwarz on correct inputs and catch a planted
error.  Run with ``python -m pytest perfbench``."""

import math

import numpy as np
import pytest

import oracles
import polyschwarz as ps
from workloads import CauchySweep, _terms, direction_in_bracket

Z = np.array([0.31 + 0.22j, -0.47j])


def _perturbed(terms, index, delta=1e-6):
    """The same terms with the holomorphic coefficient of ``index`` moved by delta."""
    return [(k, a + delta if k == index else a, b) for k, a, b in terms]


def test_series_oracle_matches_hand_computation():
    # f = 2 z1^3 z2^2 + conj(0.5 z1 z2): d^(2,1) f = 2 * 6 z1 * 2 z2
    terms = [((3, 2), np.array([2.0]), np.array([0.0])),
             ((1, 1), np.array([0.0]), np.array([0.5]))]
    A, B = oracles.series_derivatives(terms, 2, 1, Z, (2, 1))
    assert A[0] == pytest.approx(24.0 * Z[0] * Z[1])
    assert B[0] == 0.0
    A, B = oracles.series_derivatives(terms, 2, 1, Z, (1, 1))
    assert B[0] == pytest.approx(0.5)


def test_series_oracle_matches_program_and_catches_perturbed_coefficient():
    mapping = ps.random_bounded_map(2, 2, 4, seed=11)
    terms = _terms(mapping)
    for alpha in [(1, 0), (0, 1), (2, 1), (3, 3)]:
        A, B = ps.derivative_exact(mapping, Z, alpha)
        a, b = oracles.series_derivatives(terms, 2, 2, Z, alpha)
        assert np.abs(A - a).max() < 1e-12 and np.abs(B - b).max() < 1e-12
    assert np.abs(mapping(Z) - oracles.series_value(terms, 2, 2, Z)).max() < 1e-12
    scalar = ps.random_bounded_map(2, 1, 4, seed=11)
    for m in range(1, 5):
        report = ps.verify_homogeneous_bound(scalar, m, Z)
        part = oracles.homogeneous_part(_terms(scalar), 2, 1, m, Z)
        assert report.lhs == pytest.approx(np.linalg.norm(part), abs=1e-12)
    assert ps.verify_l2_bound(scalar).lhs == pytest.approx(oracles.l2_sum(_terms(scalar), 2, 1))

    planted = _perturbed(terms, (1, 1))
    A, _ = ps.derivative_exact(mapping, Z, (1, 1))
    a, _ = oracles.series_derivatives(planted, 2, 2, Z, (1, 1))
    assert np.abs(A - a).max() > 1e-9
    assert np.abs(mapping(Z) - oracles.series_value(planted, 2, 2, Z)).max() > 1e-9


def test_chain_rule_oracle_matches_cauchy_and_catches_wrong_centre():
    center = np.array([0.4 - 0.1j, 0.25j])
    rotations = np.exp(1j * np.array([0.7, -2.0]))
    base = ps.random_bounded_map(2, 1, 4, seed=5)
    composed = ps.ComposedMap(ps.PolydiskAutomorphism(center, rotations), base)
    terms = _terms(base)
    for alpha in [(1, 1), (2, 1), (1, 3)]:
        A, B = ps.cauchy_derivative(composed, Z, alpha)
        a, b = oracles.composed_derivatives(terms, 2, 1, center, rotations, Z, alpha)
        assert abs(A[0] - a[0]) < 1e-10 and abs(B[0] - b[0]) < 1e-10
    a, _ = oracles.composed_derivatives(terms, 2, 1, center + 1e-6, rotations, Z, (1, 1))
    A, _ = ps.cauchy_derivative(composed, Z, (1, 1))
    assert abs(A[0] - a[0]) > 1e-9


def test_cauchy_sweep_check_flags_a_planted_lhs_error():
    workload = CauchySweep(seed=4, workdir=None)
    ops = [op for op in workload.ops if not op[3]][:6]
    workload.ops = ops
    outputs = workload._run(ops)
    assert workload.check(outputs) == (0, [])
    lhs, rhs, tol, passed = outputs[2]
    outputs[2] = (lhs + 10 * tol, rhs, tol, passed)
    failed, problems = workload.check(outputs)
    assert failed == 0 and len(problems) == 1 and "differs from oracle" in problems[0]


def test_cauchy_sweep_band_fails_every_time():
    workload = CauchySweep(seed=4, workdir=None)
    workload.ops = [op for op in workload.ops if op[3]]
    outputs = workload._run(workload.ops)
    assert workload.check(outputs) == (len(CauchySweep.BAND_T), [])


@pytest.mark.parametrize("N,n", [(1, 1), (1, 3), (2, 1), (2, 2), (3, 3)])
def test_direction_bracket_holds_program_value_and_catches_planted_errors(N, n):
    rng = np.random.default_rng(10 * N + n)
    d = rng.normal(size=(N, n)) + 1j * rng.normal(size=(N, n))
    dbar = rng.normal(size=(N, n)) + 1j * rng.normal(size=(N, n))
    lo, hi = oracles.direction_max_bracket(d, dbar)
    _, value = ps.direction_max(ps.JacobianPair(d, dbar))
    assert direction_in_bracket(value, lo, hi)
    assert not direction_in_bracket(hi * 1.001, lo, hi)
    assert not direction_in_bracket(lo * 0.85, lo, hi)
    # the maximum scales with the Jacobian, so a scaled Jacobian's bracket
    # no longer holds the original value
    assert not direction_in_bracket(value, *oracles.direction_max_bracket(1.5 * d, 1.5 * dbar))


def test_direction_bracket_single_row_matches_torus_grid():
    rng = np.random.default_rng(3)
    d = rng.normal(size=(1, 2)) + 1j * rng.normal(size=(1, 2))
    dbar = rng.normal(size=(1, 2)) + 1j * rng.normal(size=(1, 2))
    lo, hi = oracles.direction_max_bracket(d, dbar)
    # the torus grid of the several-row path, applied to a stacked zero row
    lo2, hi2 = oracles.direction_max_bracket(np.vstack([d, 0 * d]), np.vstack([dbar, 0 * dbar]))
    assert max(lo, lo2) <= min(hi, hi2)


def test_colonna_closed_form_matches_program_and_catches_wrong_parameter():
    assert oracles.colonna_ratio(0.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    for a, z in [(0.3 + 0.2j, 0.5 - 0.1j), (-0.6j, 0.2), (0.1, -0.85j)]:
        program = ps.sharpness_ratio(ps.ColonnaMap(1.0, a, 1.0), np.array([z]), (1,))
        assert program == pytest.approx(oracles.colonna_ratio(a, z), abs=1e-9)
        assert abs(program - oracles.colonna_ratio(a + 1e-3j, z)) > 1e-9


def test_rhs_formulas():
    assert oracles.rhs_polydisk((1,), 0.5) == pytest.approx(ps.rhs_colonna(0.5))
    assert oracles.rhs_polydisk((2, 1), 0.3) == pytest.approx(ps.rhs_polydisk((2, 1), 0.3))
    assert oracles.rhs_growth(0.7) == pytest.approx(4.0 / math.pi * math.atan(0.7))
    assert oracles.rhs_gradient(0.6) == pytest.approx(ps.rhs_gradient(0.6))
