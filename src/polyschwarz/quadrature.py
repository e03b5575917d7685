"""Trapezoidal quadrature on circles and tori.

Equal-weight trapezoid sums are spectrally accurate for analytic integrands
on the torus and exact for trigonometric polynomials below the Nyquist
limit, which is all this toolkit needs: Fourier coefficient extraction,
Cauchy-integral derivatives, and the |cos| integral oracle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .multiindex import as_index, check_factorial, degree as mi_degree, enumerate_indices, grid_rows
from .mapping import (MAX_SAMPLE_BYTES, ROW_CHUNK_BYTES, PluriharmonicMap, SeriesMap, check_index,
                      check_points, check_tensor_size)

DEFAULT_EXTRACTION_RADIUS = 0.5
DEFAULT_EXTRACTION_NODES = 64
DEFAULT_LEMMA_NODES = 4096
MIN_NODES = 8
# The a priori error bound a default Cauchy rule is sized for: a hundredth
# of the quadrature tolerance, bounds.DEFAULT_TOL_QUAD.
CAUCHY_ERROR_TARGET = 1e-9
# Contour radius of an axis with |z_j| <= 0.25; farther out it is sqrt(|z_j|).
CAUCHY_MIN_RADIUS = 0.5
EPS = float(np.finfo(float).eps)


def _per_axis(values, n: int, name: str) -> tuple:
    if len(values) == 1:
        return values * n
    if len(values) != n:
        raise ValueError(f"expected {n} {name}, got {len(values)}")
    return values


class QuadratureSpec:
    """Node count per dimension and contour/evaluation radii (one for every
    axis, or one per axis).

    Either may be None, meaning each operation picks its documented default:
    DEFAULT_EXTRACTION_NODES and DEFAULT_EXTRACTION_RADIUS for coefficient
    extraction; for Cauchy derivatives, cauchy_rule's radius sqrt(|z_j|)
    (CAUCHY_MIN_RADIUS at least) and the fewest ladder nodes per axis that
    meet an equal share of CAUCHY_ERROR_TARGET.  A value that is given is used as it is.
    """

    def __init__(self, nodes_per_dim: int | None = None, radii=None):
        if nodes_per_dim is not None:
            nodes_per_dim = int(nodes_per_dim)
            if nodes_per_dim < MIN_NODES:
                raise ValueError(f"nodes_per_dim must be >= {MIN_NODES}")
        self.nodes_per_dim = nodes_per_dim
        if radii is None:
            self.radii = None
        else:
            rr = tuple(float(r) for r in np.atleast_1d(radii))
            if any(not 0.0 < r < 1.0 for r in rr):
                raise ValueError("all radii must lie strictly in (0, 1)")
            self.radii = rr

    def resolve_nodes(self, n: int, default: int) -> tuple:
        return (default if self.nodes_per_dim is None else self.nodes_per_dim,) * n

    def resolve_radii(self, n: int, default: float) -> tuple:
        if self.radii is None:
            return (float(default),) * n
        return _per_axis(self.radii, n, "radii")


def torus_trapezoid(integrand, n: int, nodes_per_dim: int) -> complex:
    """Mean of a vectorized integrand over the uniform n-torus grid.

    The integrand receives n angle arrays, one entry per grid node (the
    columns of multiindex.grid_rows), and the returned value carries the
    1/(2*pi)^n normalization, i.e. it is the grid mean.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    M = int(nodes_per_dim)
    theta = 2.0 * np.pi * np.arange(M) / M
    angles = grid_rows([theta] * n).T
    vals = np.broadcast_to(np.asarray(integrand(*angles), dtype=complex), angles[0].shape)
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand produced a non-finite value at a quadrature node")
    return complex(vals.mean())


def abs_cos_nodes(m: int, nodes: int | None = None) -> int:
    """The node count of abs_cos_integral for order m: `nodes` (None: DEFAULT_LEMMA_NODES)
    raised to the next integer coprime to m.  With gcd(m, nodes) = g > 1 the node phases
    collapse onto nodes/g distinct values and the trapezoid error grows by g^2."""
    if int(m) < 1:
        raise ValueError("m must be a positive integer")
    M = DEFAULT_LEMMA_NODES if nodes is None else int(nodes)
    if M < 1:
        raise ValueError(f"nodes must be a positive integer, got {M}")
    while math.gcd(int(m), M) != 1:
        M += 1
    return M


def abs_cos_integral(m: int, gamma: float, nodes: int | None = None) -> float:
    """Numerical value of the full-period integral of |cos(m*theta + gamma)|
    on abs_cos_nodes(m, nodes) nodes.

    Converges to 4 independently of m >= 1 and the phase gamma.  m = 0 is
    rejected: the constant case integrates to 2*pi*|cos(gamma)| instead.
    """
    M = abs_cos_nodes(m, nodes)
    mean = torus_trapezoid(lambda t: np.abs(np.cos(int(m) * t + float(gamma))), 1, M)
    return 2.0 * np.pi * mean.real


# ---------------------------------------------------------------------------
# Torus grids.  The grid is the tensor product of one circle per axis, with
# its own radius and node count.  Coefficient extraction and Cauchy
# derivatives both contract it with per-axis kernels through the map's
# kernel_sums.  Nothing is kept between calls.
# ---------------------------------------------------------------------------

def _circles(radii, nodes) -> tuple[np.ndarray, ...]:
    """Per axis, the M nodes r e^(2 pi i m / M) of its radius r and node count M."""
    return tuple(r * np.exp(2j * np.pi * np.arange(M) / M) for r, M in zip(radii, nodes))


def _check_kernels(rows: int, nodes,
                   hint=lambda j: "; use fewer quadrature nodes per dimension (--nodes)") -> None:
    """The size rule for the kernels of a torus quadrature, `rows` per axis of M_j nodes;
    hint(j) ends the refusal of axis j."""
    for j, M in enumerate(nodes):
        check_tensor_size((rows, M), lambda: (f"an axis of {M} nodes with {rows} kernels", hint(j)))


def _check_extraction_nodes(mapping, k, nodes):
    if any(2 * kj >= M for kj, M in zip(k, nodes)):
        raise ValueError(f"nodes_per_dim={_nodes_text(nodes)} cannot resolve index {k}")
    if isinstance(mapping, SeriesMap) and min(nodes) <= 2 * mapping.degree:
        warnings.warn(
            f"node count {min(nodes)} is at or below Nyquist for series degree "
            f"{mapping.degree}; extracted coefficients will alias",
            RuntimeWarning,
        )


def _nodes_text(nodes) -> str:
    return str(nodes[0]) if len(set(nodes)) == 1 else str(tuple(nodes))


def _extract(mapping: PluriharmonicMap, indices, spec: QuadratureSpec | None) -> list[tuple]:
    """The pairs (a_k, b_k) of the indices k, from one kernel_sums call per chunk of
    indices whose kernels, with their conjugates, stay within ROW_CHUNK_BYTES.  Axis j's
    kernel for k is e^(-i k_j theta)/M_j, so the two sums are the torus means of
    f e^(-i k.theta) and f e^(i k.theta), the FFT entries F[k] and F[-k]:
    a_k = F[k]/r^k and b_k = conj(F[-k])/r^k, with the FFT's aliasing."""
    spec = spec or QuadratureSpec()
    radii = spec.resolve_radii(mapping.n, DEFAULT_EXTRACTION_RADIUS)
    nodes = spec.resolve_nodes(mapping.n, DEFAULT_EXTRACTION_NODES)
    _check_extraction_nodes(mapping, max(indices, key=mi_degree), nodes)
    _check_kernels(2, nodes)  # a chunk of one index; a longer one fits in ROW_CHUNK_BYTES
    step = max(1, ROW_CHUNK_BYTES // (3 * sum(nodes) * np.dtype(complex).itemsize))
    pairs = []
    for i in range(0, len(indices), step):
        chunk = indices[i:i + step]
        m = len(chunk)
        k = np.array(chunk).reshape(m, mapping.n)
        # Node l of axis j has the phase 2 pi (k_j l mod M_j) / M_j: below 2 pi, so its
        # rounding does not grow with k_j l.
        kernels = [np.exp(-2j * np.pi * (np.outer(kj, np.arange(M)) % M / M)) / M
                   for kj, M in zip(k.T, nodes)]
        S = mapping.kernel_sums(_circles(radii, nodes), kernels)
        rk = np.array([math.prod(r**kj for r, kj in zip(radii, kk)) for kk in chunk])[:, None]
        pairs += zip(S[0] / rk, np.conj(S[1]) / rk)
    return pairs


def extract_coefficient(mapping: PluriharmonicMap, k, spec: QuadratureSpec | None = None):
    """Coefficient pair (a_k, b_k) recovered by torus quadrature.

    Integrates the map against e^{-i k.theta} (for a_k) and e^{+i k.theta}
    (conjugated, for b_k) at fixed radii and divides by r^k.  Exact to
    rounding for finite series once the node count exceeds twice the degree.
    For k = 0 the constant split is not observable: the grid mean is returned
    in a_0 with b_0 = 0 and a warning is emitted.
    """
    k = check_index(k, mapping.n)
    if mi_degree(k) == 0:
        warnings.warn("k = 0: the a_0/b_0 split is not observable; reporting the mean as a_0",
                      RuntimeWarning)
    ((a, b),) = _extract(mapping, [k], spec)
    return (a, np.zeros_like(a)) if mi_degree(k) == 0 else (a, b)


def extract_coefficients(mapping: PluriharmonicMap, max_degree: int,
                         spec: QuadratureSpec | None = None):
    """All coefficient pairs with 1 <= |k| <= max_degree from one kernel_sums call per
    chunk of indices (see _extract)."""
    indices = [k for k in enumerate_indices(mapping.n, max_degree) if mi_degree(k) >= 1]
    return dict(zip(indices, _extract(mapping, indices, spec))) if indices else {}


# ---------------------------------------------------------------------------
# Cauchy derivatives and their a priori error bound.
#
# On axis j, with a = alpha_j, t = |z_j| and u = t/r, the kernel
# eta/(eta - z_j)^(a+1) on the circle |eta| = r has the Fourier modes -a-m
# (m >= 0) with moduli C(m+a, a) t^m r^(-a-m).  A map with sup|f| <= S has
# Taylor coefficients |a_k|, |b_k| <= S (they are its Fourier coefficients on
# every torus of radii below 1, divided by r^k).  So the holomorphic part of f
# times the kernels has, at a mode L, a coefficient of modulus at most
# S prod_j G_j(L_j), with G_j(L) = r^L sum_{m >= max(0, -L-a)} C(m+a, a) t^m
# and G_j(0) = S0_j = (1-t)^-(a+1).  The M-node trapezoid sum adds the modes
# at nonzero multiples of (M_1, ..., M_n), so that part errs by at most
# S (prod_j (S0_j + T_j) - prod_j S0_j), T_j = sum_{p != 0} G_j(p M_j):
#   p > 0:  S0 r^M / (1 - r^M);
#   p < 0:  r^-a C(M, a) u^(M-a) / ((1 - r^M) (1 - u)^(a+1)),
# summing the geometric series in p first, then the tail
# sum_{m >= q} C(m+a, a) u^m <= C(q+a, a) u^q (1-u)^-(a+1).  The conjugate
# part of f has the modes -k (k >= 0) and meets the kernels only at p < 0; in
# the same way it errs by at most S prod_j A_j, with w = max(r, u) and
#   A_j = [a = 0] + r^-a w^-a (C(M+1, a+1) w^M + C(2M+1, a+1) w^2M / (1-w)^(a+2)),
# the p = -1 mode, then every degree from 2M - a on.  B is A of conj(f), whose
# parts swap the roles of a_k and b_k, and alpha! scales both, so
#   |A - A_exact| + |B - B_exact| <= 2 alpha! S (prod (S0 + T) - prod S0 + prod A)
# per component (see Trefethen and Weideman, SIAM Rev. 56 (2014) 385-458, on
# the trapezoid rule's aliasing).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CauchyRule:
    """The contour radii and node counts per axis of one Cauchy derivative,
    with two values whose sum is meant to bound |A - A_exact| + |B - B_exact|
    (per component) of its result:
    - error_bound, the a priori quadrature error above, an upper value for
      any map with sup ||f|| <= S;
    - rounding, an allowance for floating-point error, not a proof: 2 sqrt(2)
      (M + 2) units in the last place per axis of M nodes (twice the bound
      sqrt(2) gamma_(M+2) on a complex dot product of length M; Higham,
      Accuracy and Stability of Numerical Algorithms, 2nd ed., SIAM 2002,
      section 3.6) plus 16 for each grid value, times 2 alpha! S and the
      kernels' grid means.  The 16 units per value assume that the map's
      values, which a series forms implicitly by the contraction of its
      tensor with per-axis power tables in kernel_sums (built by binary
      powering, so that entry k errs by up to k - 1 complex products'
      rounding) and a closed form by evaluation, are within 16 S ulps; that
      is assumed, not derived, and a series with many terms or a high
      degree, or a closed form near the boundary (conditioning about
      1/(1 - |z|)), can err by more.
    Either is math.inf when it overflows."""

    radii: tuple
    nodes: tuple
    error_bound: float
    rounding: float


def _exp(x: float) -> float:
    return math.exp(x) if x < 700.0 else math.inf


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def _log_sum(x: float, y: float) -> float:
    """log(e^x + e^y)."""
    return max(x, y) + math.log1p(_exp(-abs(x - y)))


def _axis_tails(t: float, r: float, a: int, M: int) -> tuple[float, float]:
    """log(T / S0) and log(A - [a = 0]) of one axis (see the comment above)."""
    lgamma = math.lgamma
    u, w = t / r, max(r, t / r)
    lr, lu, lw = math.log(r), _log(u), math.log(w)
    lq = math.log1p(-r**M)  # log(1 - r^M)
    positive = M * lr - lq
    negative = (-a * lr + lgamma(M + 1) - lgamma(a + 1) - lgamma(M - a + 1) + (M - a) * lu
                + (a + 1) * (math.log1p(-t) - math.log1p(-u)) - lq)
    first = lgamma(M + 2) - lgamma(M - a + 1) + M * lw
    rest = lgamma(2 * M + 2) - lgamma(2 * M - a + 1) + 2 * M * lw - (a + 2) * math.log1p(-w)
    anti = -a * (lr + lw) - lgamma(a + 2) + _log_sum(first, rest)
    return _log_sum(positive, negative), anti


def _ladder(x: float) -> int:
    """The smallest node count of the form 2^k or 3 * 2^(k-1) that is at
    least x and MIN_NODES."""
    if not x > MIN_NODES:
        return MIN_NODES
    p = 1 << (math.ceil(x) - 1).bit_length()  # the least power of two >= x
    return 3 * p // 4 if 3 * p // 4 >= x else p


def _combine(log_scale: float, t, alpha, tails) -> float:
    """The a priori bound 2 alpha! S (prod (S0 + T) - prod S0 + prod A), as
    exp(log_scale) (prod (1 + T/S0) - 1 + prod A/S0) with log_scale =
    log(2 alpha! S prod S0), the product minus 1 summed without cancellation."""
    holo = math.expm1(sum(math.log1p(_exp(h)) for h, _ in tails))
    anti = _exp(sum(_log(float(a == 0) + _exp(an)) + (a + 1) * math.log1p(-tj)
                    for tj, a, (_, an) in zip(t, alpha, tails)))
    return _exp(log_scale + _log(holo + anti))


def _default_nodes(t, radii, alpha, log_scale: float, cap: int):
    """The node counts of a default rule, and their tails (see cauchy_rule)."""
    n = len(alpha)
    budget = _exp(math.log(CAUCHY_ERROR_TARGET) - log_scale)
    log_delta = _log(math.expm1(math.log1p(budget) / n))  # (1 + delta)^n - 1 = budget
    nodes, tails = [], []
    for tj, r, a in zip(t, radii, alpha):
        log_s0 = -(a + 1) * math.log1p(-tj)
        # r^M <= delta is needed for the positive tail alone
        M = _ladder(min(max(a + 1.0, log_delta / math.log(r)), cap + 1.0))
        while True:
            tail = _axis_tails(tj, r, a, M)
            if M > cap or _log_sum(tail[0], tail[1] - log_s0) <= log_delta:
                break
            M = _ladder(M + 1)
        nodes.append(M)
        tails.append(tail)
    return nodes, tails


def _check_radii(t, radii) -> None:
    """The contour rule for radii at a point of moduli t: one per axis, each in (t_j, 1)."""
    if len(radii) != len(t):
        raise ValueError(f"expected one contour radius per axis, {len(t)}, got {len(radii)}")
    for j, (r, tj) in enumerate(zip(radii, t)):
        if not tj < r < 1.0:  # also refuses a NaN radius
            raise ValueError(f"contour radius {r} on axis {j} must exceed |z_{j}| = {tj} "
                             f"and lie below 1")


def _check_nodes(alpha, nodes) -> None:
    """The contour rule for node counts of an order alpha: one per axis, each above alpha_j,
    with a kernel and its conjugate per axis that meet the size rule (_check_kernels)."""
    if len(nodes) != len(alpha):
        raise ValueError(f"expected one node count per axis, {len(alpha)}, got {len(nodes)}")
    for j, (M, a) in enumerate(zip(nodes, alpha)):
        if not M > a:
            raise ValueError(f"{M} nodes on axis {j} cannot resolve the order {a}")
    _check_kernels(2, nodes)


def cauchy_rule(z, alpha, sup: float = 1.0, spec: QuadratureSpec | None = None) -> CauchyRule:
    """The Cauchy rule for the order-alpha derivatives at z of a map with
    sup ||f|| <= sup.

    Each axis j gets its own circle.  Its radius is the one spec gives, else
    max(CAUCHY_MIN_RADIUS, sqrt(|z_j|)), and lies in (|z_j|, 1).  Its node count
    is the one spec gives, above alpha_j, else the fewest of the ladder 8, 12, 16,
    24, ... (2^k and 3 * 2^(k-1)) with T_j/S0_j + A_j/S0_j <= delta (for
    alpha_j = 0, less the 1 in A_j), where (1 + delta)^n - 1 is the budget
    CAUCHY_ERROR_TARGET / (2 alpha! sup prod S0), so that each axis takes an
    equal share and the bound meets CAUCHY_ERROR_TARGET.  Either way the rule
    carries the bound for the radii and nodes it holds.  Raises ValueError when z
    breaks the point rule (check_points; len(alpha) coordinates), when a given
    radius or node count breaks the contour rule (_check_radii, _check_nodes), and
    when an axis's kernel and its conjugate (2 x M_j complex values, which kernel_sums
    allocates) exceed MAX_SAMPLE_BYTES (_check_kernels), the only reason a default
    rule is refused; that refusal names the axis and its |z_j|.
    """
    alpha = as_index(alpha)
    return _cauchy_rule(_moduli(check_points([z], len(alpha))[0]), alpha, _check_sup(sup), spec)


def _check_sup(sup) -> float:
    """The sup rule of a Cauchy rule: sup as a finite nonnegative float."""
    sup = float(sup)
    if not 0.0 <= sup < math.inf:
        raise ValueError(f"sup must be finite and nonnegative, got {sup}")
    return sup


def _moduli(z: np.ndarray) -> list[float]:
    """|z_j| of each coordinate of a checked point, in scalar arithmetic."""
    return [abs(c) for c in z.tolist()]


def _cauchy_rule(t: list, alpha: tuple, sup: float, spec: QuadratureSpec | None) -> CauchyRule:
    """cauchy_rule at a point of moduli t, for an alpha and a sup already checked."""
    n = len(alpha)
    if spec is None or spec.radii is None:
        radii = [max(CAUCHY_MIN_RADIUS, math.sqrt(tj)) for tj in t]
    else:
        radii = _per_axis(spec.radii, n, "radii")
        _check_radii(t, radii)
    log_factor = math.log(2.0) + _log(sup) + sum(math.lgamma(a + 1) for a in alpha)
    log_scale = log_factor - sum((a + 1) * math.log1p(-tj) for a, tj in zip(alpha, t))
    if spec is None or spec.nodes_per_dim is None:
        nodes, tails = _default_nodes(t, radii, alpha, log_scale,
                                      MAX_SAMPLE_BYTES // (2 * np.dtype(complex).itemsize))
        _check_kernels(2, nodes, lambda j: f"; the error bound {CAUCHY_ERROR_TARGET:g} needs "
                                           f"them on axis {j}, where |z_{j}| = {t[j]!r}")
    else:
        nodes = spec.resolve_nodes(n, 0)
        _check_nodes(alpha, nodes)
        tails = [_axis_tails(tj, r, a, M) for tj, r, a, M in zip(t, radii, alpha, nodes)]
    log_mean = log_factor
    for tj, r, a, M in zip(t, radii, alpha, nodes):
        # The grid mean of |eta - z_j|^-2 is (1 + u^M) / ((1 - u^M)(r^2 - t^2)),
        # and |K| <= r (r - t)^(1-a) |eta - z_j|^-2 for a >= 1.
        uM = (tj / r) ** M
        log_mean2 = math.log1p(uM) - math.log1p(-uM) - math.log((r - tj) * (r + tj))
        log_mean += math.log(r) + (log_mean2 / 2.0 if a == 0 else
                                   log_mean2 - (a - 1) * math.log(r - tj))
    ulps = (2.0 * math.sqrt(2.0) * (sum(nodes) + 2 * n) + 16.0) * EPS
    return CauchyRule(tuple(radii), tuple(nodes), _combine(log_scale, t, alpha, tails),
                      _exp(log_mean) * ulps)


def cauchy_derivative(mapping: PluriharmonicMap, z, alpha, spec=None):
    """Mixed derivatives of order alpha by Cauchy-integral quadrature.

    Computes alpha!/(2*pi*i)^n times the contour integral of f against
    1/prod (eta_j - z_j)^(alpha_j + 1) for the holomorphic part, and the
    conjugated analogue (with conj(f)) for the anti-holomorphic part.  For
    alpha != 0 the opposite-type series contributes nothing to either
    integral, so the map's point values suffice.  The order-zero case is
    rejected: the constant split a_0/b_0 cannot be recovered from values.

    spec is a CauchyRule, used as it is (cauchy_rule sizes one for any sup bound), or a
    QuadratureSpec (None: every default) that cauchy_rule completes for a map with
    sup ||f|| <= 1, the maps into the unit ball that the estimates concern.  Either way
    the rule must meet the contour rule at z and alpha (see cauchy_rule), so one sized
    at another point or order is refused when it cannot serve this one, as is one whose
    kernels break the size rule (an axis past 2^23 nodes).  An order whose
    alpha! is not a double (check_factorial) is refused before the map is evaluated.  The
    result carries no error claim.  The torus has a circle of its own radius and node count
    per axis, with one kernel, and the map's kernel_sums gives the trapezoid sums against
    the kernels and against their conjugates.  Nothing is kept between calls.
    """
    alpha = check_factorial(check_index(alpha, mapping.n))
    if not any(alpha):
        raise ValueError("order-zero derivative: use f(z) for values; the a_0/b_0 split "
                         "is not recoverable from point values")
    z = check_points([z], mapping.n)[0]
    t = _moduli(z)
    if isinstance(spec, CauchyRule):
        _check_radii(t, spec.radii)
        _check_nodes(alpha, spec.nodes)
        return _cauchy_derivative(mapping, z, alpha, spec)
    return _cauchy_derivative(mapping, z, alpha, _cauchy_rule(t, alpha, 1.0, spec))


def _cauchy_derivative(mapping: PluriharmonicMap, z: np.ndarray, alpha: tuple, rule: CauchyRule):
    """cauchy_derivative at a checked point z, for an alpha already checked (a nonzero
    order whose alpha! is a double) and a rule that meets the contour rule there."""
    circles = _circles(rule.radii, rule.nodes)
    kernels = [(eta / (eta - zj) ** (aj + 1))[None] for eta, zj, aj in zip(circles, z, alpha)]
    res = mapping.kernel_sums(circles, kernels)[:, 0]
    res *= float(math.prod(map(math.factorial, alpha))) / math.prod(rule.nodes)
    if not np.isfinite(res).all():
        raise ValueError("non-finite Cauchy quadrature result")
    return res[0], res[1]
