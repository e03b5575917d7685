"""Right-hand-side formulas of the Schwarz-Pick type estimates, the
left-hand sides (derivatives by the exact or Cauchy method, Jacobians and
their directional maximum), and the verification routines that certify each
inequality on concrete maps.

A verification refuses (raises HypothesisError) when a map cannot be
certified to satisfy the inequality's hypotheses; a failed BoundReport is
reserved for genuine violations on in-class inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .multiindex import as_order, degree as mi_degree, factorial as mi_factorial, unit_index
from .mapping import (BlaschkeProduct, ColonnaMap, ComposedMap, PluriharmonicMap, SeriesMap,
                      check_point, derivative_exact, sup_bound_l1, to_pairs)
from .quadrature import QuadratureSpec, cauchy_derivative, extract_coefficients

FOUR_OVER_PI = 4.0 / math.pi
INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Matched to the two LHS error models: exact series arithmetic vs quadrature.
DEFAULT_TOL_EXACT = 1e-9
DEFAULT_TOL_QUAD = 1e-7

CERTIFICATION_SLACK = 1e-9


class HypothesisError(Exception):
    """The map does not satisfy (or cannot be certified to satisfy) the
    hypotheses of the requested inequality."""


@dataclass
class BoundReport:
    """One certified inequality instance; pass means lhs <= rhs + tol.

    Margins are never clamped, so equality cases remain visible.
    """

    check_id: str
    params: dict
    lhs: float
    rhs: float
    margin: float
    tol: float
    passed: bool

    def to_json(self) -> str:
        d = asdict(self)
        d["pass"] = d.pop("passed")
        return json.dumps(d, sort_keys=True)


def make_report(check_id: str, params: dict, lhs: float, rhs: float, tol: float) -> BoundReport:
    lhs = float(lhs)
    rhs = float(rhs)
    if not (math.isfinite(lhs) and math.isfinite(rhs)) or lhs < 0 or rhs < 0:
        raise ValueError(f"{check_id}: lhs/rhs must be finite and nonnegative, got {lhs}, {rhs}")
    return BoundReport(check_id, params, lhs, rhs, rhs - lhs, float(tol), lhs <= rhs + tol)


# ---------------------------------------------------------------------------
# Right-hand sides.
# ---------------------------------------------------------------------------

def _check_radius(t: float, name: str = "z") -> float:
    t = float(t)
    if not 0.0 <= t < 1.0:
        raise ValueError(f"|{name}| must lie in [0, 1), got {t}")
    return t


def rhs_polydisk(alpha, z_inf: float) -> float:
    """Order-alpha derivative bound on the polydisk:
    alpha! * (4/pi) * (1+t)^(|alpha|-n) / (1-t^2)^|alpha| with t = ||z||_inf.

    Requires every alpha_j >= 1.
    """
    alpha = as_order(alpha)
    t = _check_radius(z_inf)
    n = len(alpha)
    total = mi_degree(alpha)
    return mi_factorial(alpha) * FOUR_OVER_PI * (1.0 + t) ** (total - n) / (1.0 - t * t) ** total


def rhs_colonna(z_abs: float) -> float:
    """Planar harmonic Schwarz-Pick bound (4/pi) / (1 - |z|^2)."""
    t = _check_radius(z_abs)
    return FOUR_OVER_PI / (1.0 - t * t)


def rhs_ruscheweyh(order: int, z_abs: float, f_abs: float) -> float:
    """Sharp higher-order bound n!(1-|f(z)|^2) / ((1-|z|)^n (1+|z|))."""
    order = int(order)
    if order < 1:
        raise ValueError("derivative order must be >= 1")
    t = _check_radius(z_abs)
    s = _check_radius(f_abs, "f(z)")
    return math.factorial(order) * (1.0 - s * s) / ((1.0 - t) ** order * (1.0 + t))


def rhs_szasz(m: int, z_abs: float) -> float:
    """Odd-order bound (2m+1)!/(1-|z|^2)^(2m+1) * sum_k C(m,k)^2 |z|^(2k)."""
    m = int(m)
    if m < 1:
        raise ValueError("m must be >= 1")
    t = _check_radius(z_abs)
    series = sum(math.comb(m, k) ** 2 * t ** (2 * k) for k in range(m + 1))
    return math.factorial(2 * m + 1) / (1.0 - t * t) ** (2 * m + 1) * series


def rhs_gradient(z_inf: float) -> float:
    """Directional gradient bound 4 / (pi (1 - ||z||_inf^2))."""
    t = _check_radius(z_inf)
    return 4.0 / (math.pi * (1.0 - t * t))


def rhs_growth(z_inf: float) -> float:
    """Growth bound (4/pi) * arctan ||z||_inf for maps vanishing at 0."""
    t = _check_radius(z_inf)
    return FOUR_OVER_PI * math.atan(t)


# ---------------------------------------------------------------------------
# Hypothesis certification.  A map counts as evidence only through the
# rigorous coefficient l1 bound or closed-form range knowledge.
# ---------------------------------------------------------------------------

def certified_sup_bound(mapping: PluriharmonicMap) -> float:
    """A rigorous upper bound for sup ||f||, or +inf if none is available."""
    if isinstance(mapping, (ColonnaMap, BlaschkeProduct)):
        return 1.0
    if isinstance(mapping, ComposedMap):
        return certified_sup_bound(mapping.outer)
    if mapping.is_series:
        bound = sup_bound_l1(mapping)
        if mapping.certified_sup is not None:
            bound = min(bound, mapping.certified_sup)
        return bound
    return math.inf


def require_certified(mapping: PluriharmonicMap, N: int | None = None) -> None:
    bound = certified_sup_bound(mapping)
    if not bound <= 1.0 + CERTIFICATION_SLACK:  # also refuses a NaN bound
        raise HypothesisError(
            f"hypothesis: map not certified into the unit disk (sup bound {bound:.6g} > 1)")
    if N is not None and mapping.N != N:
        raise HypothesisError(f"hypothesis: expected codomain dimension {N}, map has N = {mapping.N}")


# ---------------------------------------------------------------------------
# Left-hand sides: derivatives, Jacobians and the directional maximum.
# ---------------------------------------------------------------------------

def _resolve_method(mapping: PluriharmonicMap, method: str | None = None) -> tuple[str, float]:
    """The derivative method and its default tolerance: `method` when given,
    else exact differentiation for finite series and Cauchy quadrature for
    every other map."""
    if method is None:
        method = "exact" if mapping.is_series else "cauchy"
    if method == "exact":
        return method, DEFAULT_TOL_EXACT
    if method == "cauchy":
        return method, DEFAULT_TOL_QUAD
    raise ValueError(f"unknown method {method!r}; expected 'exact' or 'cauchy'")


def _derivative_pair(mapping: PluriharmonicMap, z, alpha, method: str | None = None,
                     spec: QuadratureSpec | None = None):
    """(d^alpha f, dbar^alpha f) at z by the method _resolve_method picks."""
    method, _ = _resolve_method(mapping, method)
    if method == "exact":
        return derivative_exact(mapping, z, alpha)
    return cauchy_derivative(mapping, z, alpha, spec)


@dataclass
class JacobianPair:
    """First-order Wirtinger derivative matrices, both N x n."""

    d: np.ndarray
    dbar: np.ndarray


def jacobian_pair(mapping: PluriharmonicMap, z, spec=None) -> JacobianPair:
    """Df and Dbar-f at z; exact for series maps, Cauchy quadrature otherwise."""
    z = check_point(z, mapping.n)
    d = np.zeros((mapping.N, mapping.n), dtype=complex)
    dbar = np.zeros_like(d)
    for m in range(mapping.n):
        d[:, m], dbar[:, m] = _derivative_pair(mapping, z, unit_index(mapping.n, m), spec=spec)
    return JacobianPair(d, dbar)


def golden_max(f, lo: float, hi: float, iters: int = 20):
    """Golden-section maximization on [lo, hi] with a fixed probe count.

    Returns the best probed (x, f(x)); the fixed iteration count keeps the
    number of objective evaluations deterministic.
    """
    a, b = float(lo), float(hi)
    c = b - INV_GOLDEN * (b - a)
    d = a + INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    best_x, best_f = (c, fc) if fc >= fd else (d, fd)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - INV_GOLDEN * (b - a)
            fc = f(c)
            x, fx = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + INV_GOLDEN * (b - a)
            fd = f(d)
            x, fx = d, fd
        if fx > best_f:
            best_x, best_f = x, fx
    return best_x, best_f


def direction_max(jp: JacobianPair, samples: int = 512, refine_steps: int = 3):
    """Maximize ||d theta + dbar conj(theta)|| over the direction torus
    |theta_j| = 1 (the objective is convex in theta, so the polydisk max is
    attained there).  Deterministic sampling plus coordinatewise phase
    refinement; the value is a certified lower bound of the true max.
    """
    d = np.atleast_2d(np.asarray(jp.d, dtype=complex))
    dbar = np.atleast_2d(np.asarray(jp.dbar, dtype=complex))
    if d.shape != dbar.shape:
        raise ValueError("jacobian matrices must share a shape")
    n = d.shape[1]

    def value(phi):
        th = np.exp(1j * phi)
        return float(np.linalg.norm(d @ th + dbar @ np.conj(th)))

    rng = np.random.default_rng(20140113)  # fixed stream: results are reproducible
    P = rng.uniform(0.0, 2.0 * np.pi, size=(max(8, int(samples)), n))
    P[0] = 0.0
    T = np.exp(1j * P)
    V = T @ d.T + np.conj(T) @ dbar.T
    norms = np.linalg.norm(V, axis=1)
    order = np.argsort(-norms)

    best_phi = P[order[0]].copy()
    best_val = float(norms[order[0]])
    for idx in order[: min(3, len(order))]:
        phi = P[idx].copy()
        cur = float(norms[idx])
        window = np.pi / 2.0
        for _ in range(max(1, int(refine_steps))):
            for j in range(n):
                def slice_obj(t, j=j):
                    trial = phi.copy()
                    trial[j] = t
                    return value(trial)
                x, fx = golden_max(slice_obj, phi[j] - window, phi[j] + window)
                if fx >= cur:
                    phi[j] = x
                    cur = fx
            window *= 0.3
        if cur > best_val:
            best_val = cur
            best_phi = phi
    return np.exp(1j * best_phi), best_val


# ---------------------------------------------------------------------------
# Verification routines.
# ---------------------------------------------------------------------------

def verify_derivative_bound(mapping: PluriharmonicMap, z, alpha, method: str | None = None,
                            tol: float | None = None,
                            spec: QuadratureSpec | None = None) -> BoundReport:
    """Order-alpha derivative bound for a certified scalar map into the disk:
    |d^alpha f| + |dbar^alpha f| <= rhs_polydisk(alpha, ||z||_inf).

    method is "exact" or "cauchy"; None picks exact differentiation for
    series maps and Cauchy quadrature otherwise.
    """
    require_certified(mapping, N=1)
    alpha = as_order(alpha)
    z = check_point(z, mapping.n)
    method, default_tol = _resolve_method(mapping, method)
    A, B = _derivative_pair(mapping, z, alpha, method, spec)
    lhs = abs(A[0]) + abs(B[0])
    rhs = rhs_polydisk(alpha, np.max(np.abs(z)))
    params = {"z": to_pairs(z), "alpha": list(alpha), "method": method}
    return make_report("derivative_polydisk", params, lhs, rhs,
                       default_tol if tol is None else tol)


def verify_coefficient_bound(mapping: PluriharmonicMap, max_degree: int,
                             spec: QuadratureSpec | None = None,
                             tol: float = DEFAULT_TOL_QUAD) -> list[BoundReport]:
    """Coefficient bound |a_k| + |b_k| <= 4/pi for every 1 <= |k| <= max_degree,
    coefficients extracted by torus quadrature."""
    require_certified(mapping, N=1)
    coeffs = extract_coefficients(mapping, max_degree, spec)
    reports = []
    for k, (a, b) in coeffs.items():
        lhs = abs(a[0]) + abs(b[0])
        reports.append(make_report("coefficient_claim", {"k": list(k)}, lhs, FOUR_OVER_PI, tol))
    return reports


def verify_homogeneous_bound(mapping: PluriharmonicMap, m: int, z,
                             tol: float = DEFAULT_TOL_EXACT) -> BoundReport:
    """Degree-m homogeneous part bound:
    || sum_{|k|=m} a_k z^k + sum_{|k|=m} conj(b_k) conj(z)^k || <= 4/pi.

    The anti-holomorphic sum follows the circle-integral derivation (the
    printed statement repeats the holomorphic sum; see README notes).
    """
    m = int(m)
    if m < 1:
        raise ValueError("homogeneous degree m must be >= 1")
    if not mapping.is_series:
        raise ValueError("homogeneous-part check requires a finite-series map")
    require_certified(mapping)
    z = check_point(z, mapping.n)

    def degree_m(table):
        return {k: v for k, v in table.items() if mi_degree(k) == m}

    part = SeriesMap(mapping.n, mapping.N, degree_m(mapping.holo), degree_m(mapping.anti))
    lhs = np.linalg.norm(part(z))
    return make_report("homogeneous_part", {"m": m, "z": to_pairs(z)}, lhs, FOUR_OVER_PI, tol)


def verify_l2_bound(mapping: PluriharmonicMap, tol: float = DEFAULT_TOL_EXACT) -> BoundReport:
    """Coefficient l2 bound ||f(0)||^2 + sum_{|k|>=1}(||a_k||^2 + ||b_k||^2) <= 1."""
    if not mapping.is_series:
        raise ValueError("the l2 coefficient check requires a finite-series map")
    require_certified(mapping)
    f0 = mapping(np.zeros(mapping.n))
    lhs = float(np.linalg.norm(f0) ** 2)
    for table in (mapping.holo, mapping.anti):
        for k, v in table.items():
            if mi_degree(k) >= 1:
                lhs += float(np.linalg.norm(v) ** 2)
    return make_report("coefficient_l2", {}, lhs, 1.0, tol)


def verify_gradient_bound(mapping: PluriharmonicMap, z, direction_samples: int = 512,
                          tol: float | None = None,
                          spec: QuadratureSpec | None = None) -> BoundReport:
    """Directional derivative bound max_theta ||Df theta + Dbarf conj(theta)||
    <= 4/(pi(1-||z||_inf^2)).

    The maximization over unimodular directions is numerical, so the lhs is a
    certified lower estimate of the true max; a pass certifies the sampled
    and refined directions only.
    """
    require_certified(mapping)
    z = check_point(z, mapping.n)
    jp = jacobian_pair(mapping, z, spec)
    _, value = direction_max(jp, samples=direction_samples)
    _, default_tol = _resolve_method(mapping)
    rhs = rhs_gradient(np.max(np.abs(z)))
    params = {"z": to_pairs(z), "direction_samples": int(direction_samples),
              "note": "lhs is a sampled lower estimate of the directional maximum"}
    return make_report("gradient_direction", params, value, rhs,
                       default_tol if tol is None else tol)


def verify_growth_bound(mapping: PluriharmonicMap, z,
                        tol: float = DEFAULT_TOL_EXACT) -> BoundReport:
    """Growth bound ||f(z)|| <= (4/pi) arctan ||z||_inf for maps with f(0) = 0."""
    require_certified(mapping)
    z = check_point(z, mapping.n)
    f0 = mapping(np.zeros(mapping.n))
    if np.linalg.norm(f0) > 1e-12:
        raise HypothesisError(f"hypothesis: f(0) != 0 (||f(0)|| = {np.linalg.norm(f0):.3g})")
    lhs = float(np.linalg.norm(mapping(z)))
    rhs = rhs_growth(np.max(np.abs(z)))
    return make_report("growth_arctan", {"z": to_pairs(z)}, lhs, rhs, tol)
