"""Right-hand-side formulas of the Schwarz-Pick type estimates, the
left-hand sides (derivatives by the exact or Cauchy method, Jacobians and
their directional maximum), and the verification routines that certify each
inequality on concrete maps.

A verification refuses (raises HypothesisError) when a map cannot be
certified to satisfy the inequality's hypotheses; a failed BoundReport is
reserved for genuine violations on in-class inputs.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .multiindex import as_order, check_factorial, grid_rows, unit_index
from .mapping import (PluriharmonicMap, SeriesMap, check_exact_order, check_index, one_or_stack,
                      to_pairs)
from .quadrature import (QuadratureSpec, _cauchy_derivative, _cauchy_rule, _check_sup, _moduli,
                         extract_coefficients)

FOUR_OVER_PI = 4.0 / math.pi

# Matched to the two LHS error models: exact series arithmetic vs quadrature.
DEFAULT_TOL_EXACT = 1e-9
DEFAULT_TOL_QUAD = 1e-7

CERTIFICATION_SLACK = 1e-9
_REPORT_ENCODER = json.JSONEncoder(sort_keys=True)  # json.dumps would build one per report

# The directional maximum: starting phases of the ascent, starts refined,
# Newton steps and the step length that ends them (near a maximum, stopping
# a step h short leaves the value short by about h^2 times the curvature),
# and the box budget of the branch and bound that certifies the upper value.
DIRECTION_GRID_POINTS = 512
# Five starts, not three: with three the ascent stopped at a local maximum,
# 1.9% low, on one of 1028 Jacobians from cli_sweep maps and random matrices.
DIRECTION_STARTS = 5
DIRECTION_NEWTON_STEPS = 30
DIRECTION_STEP_TOL = 1e-7
DIRECTION_MAX_BOXES = 1 << 16
# Working memory of one chunk of a direction_max stack (see _direction_chunk).
DIRECTION_CHUNK_BYTES = 16 << 20


class HypothesisError(Exception):
    """The map does not satisfy (or cannot be certified to satisfy) the
    hypotheses of the requested inequality."""


@dataclass
class BoundReport:
    """One certified inequality instance; pass means lhs <= rhs + tol, or,
    for a numerically maximised lhs or one with an error bound, that its
    certified upper value is.

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
        d = dict(vars(self))
        d["pass"] = d.pop("passed")
        return _REPORT_ENCODER.encode(d)


def make_report(check_id: str, params: dict, lhs: float, rhs: float, tol: float,
                upper: float | None = None) -> BoundReport:
    """The report of lhs <= rhs.  `upper` is a certified upper value of an
    lhs that is only an attained value or an approximation (math.inf when
    none could be certified); pass then requires upper <= rhs + tol, so tol must be finite."""
    lhs, rhs, tol = float(lhs), float(rhs), float(tol)
    if not (math.isfinite(lhs) and math.isfinite(rhs) and math.isfinite(tol)) or min(lhs, rhs) < 0:
        raise ValueError(f"{check_id}: lhs, rhs and tol must be finite, and lhs and rhs "
                         f"nonnegative, got {lhs}, {rhs} and {tol}")
    top = lhs if upper is None else max(lhs, float(upper))
    return BoundReport(check_id, params, lhs, rhs, rhs - lhs, tol, top <= rhs + tol)


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
    return _rhs_polydisk(as_order(alpha), _check_radius(z_inf))


def _rhs_polydisk(alpha: tuple, t: float) -> float:
    """rhs_polydisk at an order and a radius that are already validated."""
    total = sum(alpha)
    return (math.prod(map(math.factorial, alpha)) * FOUR_OVER_PI
            * (1.0 + t) ** (total - len(alpha)) / (1.0 - t * t) ** total)


def rhs_colonna(z_abs: float) -> float:
    """Planar harmonic Schwarz-Pick bound (4/pi) / (1 - |z|^2)."""
    t = _check_radius(z_abs)
    return FOUR_OVER_PI / (1.0 - t * t)


def rhs_ruscheweyh(order: int, z_abs: float, f_abs: float) -> float:
    """Sharp higher-order bound n!(1-|f(z)|^2) / ((1-|z|)^n (1+|z|)), n = order."""
    (order,) = as_order([order])
    t = _check_radius(z_abs)
    s = _check_radius(f_abs, "f(z)")
    return math.factorial(order) * (1.0 - s * s) / ((1.0 - t) ** order * (1.0 + t))


def rhs_szasz(m: int, z_abs: float) -> float:
    """Odd-order bound (2m+1)!/(1-|z|^2)^(2m+1) * sum_k C(m,k)^2 |z|^(2k), for the
    m whose (2m+1)! is a double (check_factorial: m <= 84)."""
    m = int(m)
    if m < 1:
        raise ValueError("m must be >= 1")
    check_factorial((2 * m + 1,))
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
# Hypothesis certification.  A map counts as evidence only through the range
# bound its class states (PluriharmonicMap.sup_bound): the coefficient l1 norm
# of a series, closed-form range knowledge, or a declared bound.
# ---------------------------------------------------------------------------

def require_certified(mapping: PluriharmonicMap, N: int | None = None) -> float:
    """The map's sup_bound; HypothesisError when it exceeds 1
    (beyond CERTIFICATION_SLACK), or when N is given and differs from mapping.N."""
    bound = mapping.sup_bound
    if not bound <= 1.0 + CERTIFICATION_SLACK:  # also refuses a NaN bound
        raise HypothesisError(
            f"hypothesis: map not certified into the unit disk (sup bound {bound:.6g} > 1)")
    if N is not None and mapping.N != N:
        raise HypothesisError(f"hypothesis: expected codomain dimension {N}, map has N = {mapping.N}")
    return bound


# ---------------------------------------------------------------------------
# Left-hand sides: derivatives, Jacobians and the directional maximum.
# ---------------------------------------------------------------------------

@dataclass
class JacobianPair:
    """First-order Wirtinger derivative matrices, both N x n."""

    d: np.ndarray
    dbar: np.ndarray


def jacobian_pair(mapping: PluriharmonicMap, z) -> JacobianPair:
    """Df and Dbar-f at z, the exact derivatives of every map class (derivative_exact):
    N x n matrices at one point, (P, N, n) stacks at a (P, n) stack of points."""
    Z, one = one_or_stack(z, mapping.n)
    jp = _jacobian_stack(mapping, Z)
    return JacobianPair(jp.d[0], jp.dbar[0]) if one else jp


def _jacobian_stack(mapping: PluriharmonicMap, Z: np.ndarray) -> JacobianPair:
    """jacobian_pair at a checked (P, n) stack: one column per first-order derivative."""
    columns = [mapping._derivative(Z, unit_index(mapping.n, m)) for m in range(mapping.n)]
    return JacobianPair(np.stack([A for A, _ in columns], axis=-1),
                        np.stack([B for _, B in columns], axis=-1))


def _jacobian_arrays(jp: JacobianPair):
    d = np.atleast_2d(np.asarray(jp.d, dtype=complex))
    dbar = np.atleast_2d(np.asarray(jp.dbar, dtype=complex))
    if d.shape != dbar.shape:
        raise ValueError("jacobian matrices must share a shape")
    if d.ndim > 3:
        raise ValueError(f"expected an (N, n) Jacobian or a (P, N, n) stack, got shape {d.shape}")
    return d, dbar


def _direction_values(d, dbar, phi) -> np.ndarray:
    """||d theta + dbar conj(theta)|| at theta = e^{i phi}, one value per row
    of phi; for a stack d of shape (P, N, n), one row of values per Jacobian."""
    theta = np.exp(1j * phi)
    return np.linalg.norm(theta @ np.swapaxes(d, -1, -2)
                          + np.conj(theta) @ np.swapaxes(dbar, -1, -2), axis=-1)


def _column_max(d, dbar) -> np.ndarray:
    """Per column j, max over |t| = 1 of ||d_j t + dbar_j conj(t)||, which is
    sqrt(||d_j||^2 + ||dbar_j||^2 + 2 |dbar_j^H d_j|), attained at
    t = e^{i phi} with phi = -arg(dbar_j^H d_j) / 2."""
    cross = np.abs(np.sum(np.conj(dbar) * d, axis=0))
    return np.sqrt(np.sum(np.abs(d) ** 2 + np.abs(dbar) ** 2, axis=0) + 2.0 * cross)


def _phase_grid(n: int, per_axis: int) -> np.ndarray:
    """Centres of the per_axis**n equal boxes of the phase torus [0, 2 pi)^n, one per row."""
    return grid_rows([(np.arange(per_axis) + 0.5) * (2.0 * np.pi / per_axis)] * n)


@functools.cache
def _start_grid(n: int) -> np.ndarray:
    """The ascent's starting grid: 8 phases per axis, fewer once that
    exceeds DIRECTION_GRID_POINTS.  Built once per n, and read-only."""
    per_axis = 8
    while per_axis ** n > DIRECTION_GRID_POINTS:
        per_axis -= 1
    grid = _phase_grid(n, per_axis)
    grid.flags.writeable = False
    return grid


def _newton_ascent(d, dbar):
    """Saddle-free Newton ascent of ||d theta + dbar conj(theta)||^2 for a
    stack of P Jacobians (d, dbar: (P, N, n)), from the best DIRECTION_STARTS
    points of each one's _start_grid, all rows at once.  Returns (theta,
    value) per Jacobian: the best final phases and the value there.

    The step is |H|^-1 g, with the Hessian's eigenvalues taken in absolute
    value so that it always points uphill, cut to a trust radius.  A step is
    taken only when the evaluated value rises; otherwise the radius halves.
    A Jacobian's rows stop together, once each of them has a step or a
    radius below DIRECTION_STEP_TOL.
    """
    P, _, n = d.shape
    grid = _start_grid(n)
    order = np.argsort(-_direction_values(d, dbar, grid), axis=1, kind="stable")
    k = min(DIRECTION_STARTS, len(grid))
    phi = grid[order[:, :k]].reshape(-1, n)
    d, dbar = np.repeat(d, k, axis=0), np.repeat(dbar, k, axis=0)
    eye = np.eye(n)

    def columns(phi, d, dbar):
        theta = np.exp(1j * phi)[:, None, :]
        hol, anti = d * theta, dbar * np.conj(theta)
        U = hol + anti  # column j of v, per start
        return U, 1j * (hol - anti), np.linalg.norm(U.sum(axis=2), axis=1)

    U, W, value = columns(phi, d, dbar)  # W: the derivative of U's column j in phi_j
    radius = np.ones(len(phi))
    every = np.arange(len(phi))
    rows = slice(None)  # the rows still ascending: all, until a Jacobian stops
    for _ in range(DIRECTION_NEWTON_STEPS):
        u, w, r = U[rows], W[rows], radius[rows]
        vc = np.conj(u.sum(axis=2))[:, None, :]
        g = 2.0 * (vc @ w)[:, 0].real
        H = 2.0 * np.einsum("brj,brl->bjl", np.conj(w), w).real
        H -= 2.0 * (vc @ u)[:, 0].real[:, :, None] * eye
        lam, Q = np.linalg.eigh(H)
        scale = np.maximum(np.abs(lam), 1e-6 * np.abs(lam).max(axis=1, keepdims=True)) + 1e-300
        c = (g[:, None, :] @ Q)[:, 0] / scale  # g in the eigenbasis, divided by |lam|
        step = (Q @ c[:, :, None])[:, :, 0]
        length = np.sqrt((step * step).sum(axis=1))
        done = (np.minimum(length, r) < DIRECTION_STEP_TOL).reshape(-1, k).all(axis=1)
        if done.any():
            if done.all():
                break
            keep = np.repeat(~done, k)
            rows, step, length, r = every[rows][keep], step[keep], length[keep], r[keep]
        trial = phi[rows] + step * np.minimum(1.0, r / np.maximum(length, 1e-300))[:, None]
        U_t, W_t, value_t = columns(trial, d[rows], dbar[rows])
        rises = value_t > value[rows]
        up = every[rows][rises]
        phi[up], U[up], W[up], value[up] = trial[rises], U_t[rises], W_t[rises], value_t[rises]
        radius[rows] = np.where(rises, r, 0.5 * np.minimum(r, length))
    best = every[::k] + np.argmax(value.reshape(P, k), axis=1)
    return np.exp(1j * phi[best]), value[best]


def _direction_chunk(N: int, n: int) -> int:
    """Jacobians per chunk of a direction_max stack, so that a chunk's
    working set stays within DIRECTION_CHUNK_BYTES.  Per Jacobian it holds
    at most eight complex arrays of max(DIRECTION_GRID_POINTS,
    DIRECTION_STARTS * n) x max(N, n) entries at once: the start grid's
    values, then the ascent's rows."""
    per_point = 8 * 16 * max(DIRECTION_GRID_POINTS, DIRECTION_STARTS * n) * max(N, n)
    return max(1, DIRECTION_CHUNK_BYTES // per_point)


def _direction_max_stack(d, dbar):
    """direction_max of one chunk, d and dbar of shape (P, N, n)."""
    if d.shape[2] > 1:
        return _newton_ascent(d, dbar)
    theta = np.exp(-0.5j * np.angle(np.sum(np.conj(dbar) * d, axis=1)))
    v = np.sum(d * theta[:, None, :] + dbar * np.conj(theta)[:, None, :], axis=2)
    return theta, np.linalg.norm(v, axis=1)


def direction_max(jp: JacobianPair):
    """Maximize ||d theta + dbar conj(theta)|| over the direction torus
    |theta_j| = 1 (the objective is convex in theta, so the polydisk max is
    attained there).  Returns (theta, value), value being the objective
    evaluated at theta: an attained value, never above the maximum.

    jp.d and jp.dbar hold one N x n Jacobian (a 1-D array is one row), or a
    stack of P of them, shape (P, N, n), for which theta has shape (P, n)
    and value shape (P,); each Jacobian of a stack gets the value it would
    get alone.  A stack is worked in chunks whose working set stays within
    DIRECTION_CHUNK_BYTES (16 MiB), so a long stack costs no more memory
    than one chunk.  A Jacobian whose own working set exceeds the budget
    (at n = 3, one with N > 256 rows) is worked alone, as a chunk of one.

    n = 1 is the closed form of _column_max.  For n >= 2 a saddle-free Newton
    ascent runs from the best DIRECTION_STARTS points of a fixed phase grid
    (8 points per axis, fewer once that exceeds DIRECTION_GRID_POINTS), for
    every Jacobian of a chunk at once.  Deterministic; direction_upper gives
    the certified side.
    """
    d, dbar = _jacobian_arrays(jp)
    if d.ndim == 2:
        theta, value = _direction_max_stack(d[None], dbar[None])
        return theta[0], float(value[0])
    P, N, n = d.shape
    step = _direction_chunk(N, n)
    chunks = [_direction_max_stack(d[i:i + step], dbar[i:i + step]) for i in range(0, P, step)]
    if not chunks:
        return np.zeros((0, n), dtype=complex), np.zeros(0)
    theta, value = zip(*chunks)
    return np.concatenate(theta), np.concatenate(value)


def direction_upper(jp: JacobianPair, threshold: float) -> tuple[float | None, int]:
    """A certified upper value of the directional maximum, refined only
    until it is decided against `threshold`.  Returns (upper, boxes), boxes
    being the number of boxes evaluated.

    Every bound is rounded up by 8n units in the last place, so that
    rounding in its evaluation cannot put it below the true value.  By the
    triangle inequality the maximum is at most L = sum_j max_{|t|=1}
    ||d_j t + dbar_j conj(t)||, the column maxima of _column_max; for n = 1
    L is the maximum itself.  If n = 1 or L <= threshold, upper is L and no
    box is needed.  Otherwise the phase torus starts as 4 boxes per axis.
    A box with centre c and half-width h holds no value above
        value(c) + h * L,
    since moving phase j by at most h moves column j's term by at most
    |e^{ih} - 1| <= h times its column maximum.  Boxes whose bound is at
    most `threshold` are dropped and the others halved along every axis,
    until one of:
    - no box is left: upper is the largest dropped bound (<= threshold);
    - a centre value exceeds `threshold`: so does the maximum, and upper is
      the largest bound of the boxes covering the torus (> threshold);
    - the next level would take the count past DIRECTION_MAX_BOXES:
      undecided, and upper is None.  The count is checked before a level is
      built, so for n >= 9 (4^n > DIRECTION_MAX_BOXES) only L can decide.
    """
    d, dbar = _jacobian_arrays(jp)
    n = d.shape[1]
    slack = 1.0 + 8.0 * n * np.finfo(float).eps
    lipschitz = float(_column_max(d, dbar).sum())
    if n == 1 or lipschitz * slack <= threshold:
        return lipschitz * slack, 0
    if 4 ** n > DIRECTION_MAX_BOXES:
        return None, 0
    signs = np.array(list(product((-1.0, 1.0), repeat=n)))
    centres = _phase_grid(n, 4)
    half = np.pi / 4.0
    boxes = 0
    dropped = -math.inf
    while True:
        boxes += len(centres)
        values = _direction_values(d, dbar, centres)
        bound = (values + half * lipschitz) * slack
        if values.max() > threshold:
            return float(max(dropped, bound.max())), boxes
        done = bound <= threshold
        dropped = max(dropped, float(bound[done].max(initial=-math.inf)))
        left = int(np.count_nonzero(~done))
        if not left:
            return dropped, boxes
        if boxes + left * 2 ** n > DIRECTION_MAX_BOXES:
            return None, boxes
        half *= 0.5
        centres = (centres[~done, None, :] + half * signs).reshape(-1, n)


# ---------------------------------------------------------------------------
# Verification routines.  Each pointwise check is one routine that takes one
# point or a (P, n) stack of them (mapping.one_or_stack): one point gives one
# report, a stack a list of reports in order, each the one its point gets
# alone.  The map is certified and the inputs validated once per call, and
# the points of a stack are worked together.
# ---------------------------------------------------------------------------

def _sup_norms(Z: np.ndarray) -> list[float]:
    """||z||_inf of each point of a checked stack, each in [0, 1)."""
    return np.abs(Z).max(axis=1).tolist()


def _row_norms(values: np.ndarray) -> list[float]:
    """The Euclidean norm of each row of a (P, N) array, each computed by the
    same operations whatever the other rows."""
    squares = sum(values[:, i].real ** 2 + values[:, i].imag ** 2 for i in range(values.shape[1]))
    return np.sqrt(squares).tolist()


def _derivative_sides(Z: np.ndarray, A, B, alpha: tuple) -> list[tuple[float, float]]:
    """(|a| + |b|, rhs_polydisk(alpha, ||z||_inf)) at each point z of a checked stack, a and b
    its scalar d^alpha f and dbar^alpha f (from A and B), for an alpha that passed as_order."""
    # abs of each scalar: numpy's vectorised complex abs can differ from it in the last bit.
    return [(abs(a) + abs(b), _rhs_polydisk(alpha, t)) for a, b, t in zip(A, B, _sup_norms(Z))]


def _exact_ratio(mapping: PluriharmonicMap, Z: np.ndarray, alpha: tuple) -> float:
    """sharpness_ratio at a checked stack Z of one point, for a map and alpha already checked."""
    A, B = mapping._derivative(Z, alpha)
    ((lhs, rhs),) = _derivative_sides(Z, A[:, 0].tolist(), B[:, 0].tolist(), alpha)
    if not math.isfinite(lhs + rhs):  # make_report refuses the sides, with its message
        make_report("derivative_polydisk", {}, lhs, rhs, DEFAULT_TOL_EXACT)
    return lhs / rhs


def verify_derivative_bound(mapping: PluriharmonicMap, z, alpha, method: str | None = None,
                            tol: float | None = None, spec: QuadratureSpec | None = None
                            ) -> BoundReport | list[BoundReport]:
    """Order-alpha derivative bound for a certified scalar map into the disk:
    |d^alpha f| + |dbar^alpha f| <= rhs_polydisk(alpha, ||z||_inf), at one
    point z or at each point of a stack.

    method is "exact" (also when None; derivative_exact, every map class,
    tol None: DEFAULT_TOL_EXACT) or "cauchy" (tol None: DEFAULT_TOL_QUAD):
    cauchy_derivative on the cauchy_rule that completes `spec` for the map's
    certified sup bound.  A Cauchy report's params also carry the rule's
    per-axis `radii` and `nodes`, its `error_bound` (the a priori quadrature
    bound, which holds for the certified sup, plus the rounding allowance of
    CauchyRule, which assumes rather than proves how accurately the map
    evaluates) and the `sup_bound` it was sized for; it passes only if
    lhs + error_bound <= rhs + tol.  The points are checked once; the exact
    method takes a stack's derivatives in one stacked call of the map's exact
    derivative, the Cauchy method sizes and runs one rule per point.
    """
    sup = require_certified(mapping, N=1)
    alpha = check_index(as_order(alpha), mapping.n)
    Z, one = one_or_stack(z, mapping.n)
    if method is None or method == "exact":
        method, default_tol = "exact", DEFAULT_TOL_EXACT
        A, B = mapping._derivative(Z, check_exact_order(mapping, alpha))
        A, B, rules = A[:, 0].tolist(), B[:, 0].tolist(), [None] * len(Z)
    elif method == "cauchy":
        default_tol = DEFAULT_TOL_QUAD
        sup = _check_sup(sup)  # alpha and the points are checked above, once per call
        rules = [_cauchy_rule(_moduli(point), alpha, sup, spec) for point in Z]
        pairs = [_cauchy_derivative(mapping, point, alpha, rule) for point, rule in zip(Z, rules)]
        A, B = [a[0] for a, _ in pairs], [b[0] for _, b in pairs]
    else:
        raise ValueError(f"unknown method {method!r}; expected 'exact' or 'cauchy'")
    tol = default_tol if tol is None else tol
    reports = []
    for point, (value, rhs), rule in zip(Z.tolist(), _derivative_sides(Z, A, B, alpha), rules):
        params = {"z": to_pairs(point), "alpha": list(alpha), "method": method}
        error = None
        if rule is not None:
            error = rule.error_bound + rule.rounding
            params.update(radii=list(rule.radii), nodes=list(rule.nodes),
                          error_bound=error if math.isfinite(error) else None, sup_bound=sup)
        reports.append(make_report("derivative_polydisk", params, value, rhs, tol,
                                   upper=None if error is None else value + error))
    return reports[0] if one else reports


def verify_coefficient_bound(mapping: PluriharmonicMap, max_degree: int,
                             spec: QuadratureSpec | None = None,
                             tol: float | None = None) -> list[BoundReport]:
    """Coefficient bound |a_k| + |b_k| <= 4/pi for every 1 <= |k| <= max_degree,
    coefficients extracted by torus quadrature (tol None: DEFAULT_TOL_QUAD)."""
    require_certified(mapping, N=1)
    return [make_report("coefficient_claim", {"k": list(k)}, abs(a[0]) + abs(b[0]), FOUR_OVER_PI,
                        DEFAULT_TOL_QUAD if tol is None else tol)
            for k, (a, b) in extract_coefficients(mapping, max_degree, spec).items()]


def verify_homogeneous_bound(mapping: PluriharmonicMap, m: int, z,
                             tol: float | None = None) -> BoundReport | list[BoundReport]:
    """Degree-m homogeneous part bound (tol None: DEFAULT_TOL_EXACT):
    || sum_{|k|=m} a_k z^k + sum_{|k|=m} conj(b_k) conj(z)^k || <= 4/pi,
    at one point z or at each point of a stack, whose values come from one
    eval_points call on the degree-m part.

    The anti-holomorphic sum follows the circle-integral derivation (the
    printed statement repeats the holomorphic sum; see README notes).
    """
    m = int(m)
    if m < 1:
        raise ValueError("homogeneous degree m must be >= 1")
    if not isinstance(mapping, SeriesMap):
        raise ValueError("homogeneous-part check requires a finite-series map")
    require_certified(mapping)
    Z, one = one_or_stack(z, mapping.n)
    tol = DEFAULT_TOL_EXACT if tol is None else tol
    values = _row_norms(mapping.scaled(mapping.degrees == m).eval_points(Z))
    reports = [make_report("homogeneous_part", {"m": m, "z": to_pairs(point)}, value, FOUR_OVER_PI,
                           tol)
               for point, value in zip(Z.tolist(), values)]
    return reports[0] if one else reports


def verify_l2_bound(mapping: PluriharmonicMap, tol: float | None = None) -> BoundReport:
    """Coefficient l2 bound ||f(0)||^2 + sum_{|k|>=1}(||a_k||^2 + ||b_k||^2) <= 1
    (tol None: DEFAULT_TOL_EXACT)."""
    if not isinstance(mapping, SeriesMap):
        raise ValueError("the l2 coefficient check requires a finite-series map")
    require_certified(mapping)
    higher = mapping.degrees >= 1
    lhs = np.linalg.norm(mapping(np.zeros(mapping.n))) ** 2 + np.sum(np.abs(mapping.c[:, higher]) ** 2)
    return make_report("coefficient_l2", {}, lhs, 1.0, DEFAULT_TOL_EXACT if tol is None else tol)


def verify_gradient_bound(mapping: PluriharmonicMap, z,
                          tol: float | None = None) -> BoundReport | list[BoundReport]:
    """Directional derivative bound max_theta ||Df theta + Dbarf conj(theta)||
    <= 4/(pi(1-||z||_inf^2)) (tol None: DEFAULT_TOL_EXACT), at one point z or
    at each point of a stack.

    lhs is an attained value of the directional maximum (direction_max).
    pass means the certified upper value of direction_upper is at most
    rhs + tol; params carry it as `upper`, with the number of `boxes` it
    took.  A case left undecided within DIRECTION_MAX_BOXES has upper null
    and never passes: equality cases with n >= 2 stay undecided, since
    first-order boxes cannot close a gap of tol around a maximum that
    touches the bound, and for n >= 9 so does every case that the sum of
    the column maxima does not decide.  A stack's Jacobians are the map's
    exact derivatives at the points, checked once, and go to direction_max
    as one stack, so the ascent runs for a whole chunk of points at once;
    direction_upper then decides each point.
    """
    require_certified(mapping)
    Z, one = one_or_stack(z, mapping.n)
    tol = DEFAULT_TOL_EXACT if tol is None else tol
    jp = _jacobian_stack(mapping, Z)
    _, values = direction_max(jp)
    reports = []
    for point, t, d, dbar, value in zip(Z.tolist(), _sup_norms(Z), jp.d, jp.dbar, values):
        rhs = rhs_gradient(t)
        upper, boxes = direction_upper(JacobianPair(d, dbar), rhs + tol)
        params = {"z": to_pairs(point), "upper": upper, "boxes": boxes}
        reports.append(make_report("gradient_direction", params, value, rhs, tol,
                                   upper=math.inf if upper is None else upper))
    return reports[0] if one else reports


def verify_growth_bound(mapping: PluriharmonicMap, z,
                        tol: float | None = None) -> BoundReport | list[BoundReport]:
    """Growth bound ||f(z)|| <= (4/pi) arctan ||z||_inf for maps with f(0) = 0
    (tol None: DEFAULT_TOL_EXACT), at one point z or at each point of a
    stack, all evaluated in one eval_points call.  f(0) is checked before
    any point."""
    require_certified(mapping)
    Z, one = one_or_stack(z, mapping.n)
    f0 = mapping(np.zeros(mapping.n))
    if np.linalg.norm(f0) > 1e-12:
        raise HypothesisError(f"hypothesis: f(0) != 0 (||f(0)|| = {np.linalg.norm(f0):.3g})")
    tol = DEFAULT_TOL_EXACT if tol is None else tol
    reports = [make_report("growth_arctan", {"z": to_pairs(point)}, value, rhs_growth(t), tol)
               for point, t, value in zip(Z.tolist(), _sup_norms(Z), _row_norms(mapping.eval_points(Z)))]
    return reports[0] if one else reports
