"""Trapezoidal quadrature on circles and tori.

Equal-weight trapezoid sums are spectrally accurate for analytic integrands
on the torus and exact for trigonometric polynomials below the Nyquist
limit, which is all this toolkit needs: Fourier coefficient extraction,
Cauchy-integral derivatives, and the |cos| integral oracle.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .multiindex import as_index, degree as mi_degree, enumerate_indices, factorial as mi_factorial
from .mapping import PluriharmonicMap, check_point

DEFAULT_EXTRACTION_RADIUS = 0.5
DEFAULT_CAUCHY_NODES = 512
# Largest torus sample (nodes**n * N complex values) a quadrature may build.
# Series evaluation holds two such arrays at once and the FFT table a third,
# so the cap keeps that under a GiB; 512 nodes per axis at n = 3 (2 GiB) is out.
MAX_SAMPLE_BYTES = 256 * 2**20
# Torus samples (with their FFTs) kept per map: two, so that comparing two
# contour radii or node counts at one point does not rebuild each sample.
QUAD_CACHE_ENTRIES = 2


class QuadratureSpec:
    """Node count per dimension and contour/evaluation radii.

    radii may be None, meaning each operation picks its documented default.
    """

    def __init__(self, nodes_per_dim: int = 64, radii=None):
        nodes_per_dim = int(nodes_per_dim)
        if nodes_per_dim < 8:
            raise ValueError("nodes_per_dim must be >= 8")
        self.nodes_per_dim = nodes_per_dim
        if radii is None:
            self.radii = None
        else:
            rr = tuple(float(r) for r in np.atleast_1d(radii))
            if any(not 0.0 < r < 1.0 for r in rr):
                raise ValueError("all radii must lie strictly in (0, 1)")
            self.radii = rr

    def resolve_radii(self, n: int, default: float):
        if self.radii is None:
            return (float(default),) * n
        if len(self.radii) == 1:
            return self.radii * n
        if len(self.radii) != n:
            raise ValueError(f"expected {n} radii, got {len(self.radii)}")
        return self.radii


def torus_trapezoid(integrand, n: int, nodes_per_dim: int) -> complex:
    """Mean of a vectorized integrand over the uniform n-torus grid.

    The integrand receives n angle arrays (meshgrid, 'ij' indexing) and the
    returned value carries the 1/(2*pi)^n normalization, i.e. it is the grid
    mean.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    M = int(nodes_per_dim)
    theta = 2.0 * np.pi * np.arange(M) / M
    grids = np.meshgrid(*([theta] * n), indexing="ij")
    vals = np.asarray(integrand(*grids), dtype=complex)
    vals = np.broadcast_to(vals, grids[0].shape)
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand produced a non-finite value at a quadrature node")
    return complex(vals.mean())


def abs_cos_integral(m: int, gamma: float, nodes: int = 4096) -> float:
    """Numerical value of the full-period integral of |cos(m*theta + gamma)|.

    Converges to 4 independently of m >= 1 and the phase gamma.  m = 0 is
    rejected: the constant case integrates to 2*pi*|cos(gamma)| instead.
    """
    m = int(m)
    if m < 1:
        raise ValueError("m must be a positive integer")
    # With gcd(m, nodes) = g > 1 the node phases collapse onto nodes/g distinct
    # values and the trapezoid error grows by g^2; nudge the node count up to
    # the next integer coprime to m so the full grid is effective.
    M = int(nodes)
    if M < 1:
        raise ValueError(f"nodes must be a positive integer, got {M}")
    while math.gcd(m, M) != 1:
        M += 1
    mean = torus_trapezoid(lambda t: np.abs(np.cos(m * t + float(gamma))), 1, M)
    return 2.0 * np.pi * mean.real


# ---------------------------------------------------------------------------
# Shared torus sampling.  Maps are immutable after construction, so grid
# values and their FFTs are cached on the map object keyed by (radii, nodes),
# for the QUAD_CACHE_ENTRIES most recently used keys: consecutive orders at
# one point and the n first-order derivatives of a Jacobian share one sample.
# The grid is the tensor product of one circle per axis and is evaluated
# through eval_grid, which series maps contract axis by axis.
# ---------------------------------------------------------------------------

def _torus_samples(mapping: PluriharmonicMap, radii, nodes: int) -> np.ndarray:
    size = nodes**mapping.n * mapping.N * np.dtype(complex).itemsize
    if size > MAX_SAMPLE_BYTES:
        raise ValueError(
            f"a torus sample of {nodes}^{mapping.n} x {mapping.N} complex values needs "
            f"{size / 2**20:.0f} MiB, over the {MAX_SAMPLE_BYTES // 2**20} MiB limit; "
            f"use fewer quadrature nodes per dimension (--nodes)")
    cache = mapping.__dict__.setdefault("_quad_cache", {})
    key = (tuple(radii), nodes)
    entry = cache.pop(key, None)
    if entry is None:
        if len(cache) >= QUAD_CACHE_ENTRIES:
            del cache[next(iter(cache))]  # release the oldest sample before building the next
        theta = 2.0 * np.pi * np.arange(nodes) / nodes
        entry = {"samples": mapping.eval_grid([r * np.exp(1j * theta) for r in radii])}
    cache[key] = entry  # the most recently used key goes last
    return entry["samples"]


def _fourier_table(mapping: PluriharmonicMap, radii, nodes: int) -> np.ndarray:
    vals = _torus_samples(mapping, radii, nodes)
    entry = mapping._quad_cache[(tuple(radii), nodes)]
    if "fft" not in entry:
        entry["fft"] = np.fft.fftn(vals, axes=tuple(range(mapping.n))) / nodes**mapping.n
    return entry["fft"]


def _read_coefficient(F: np.ndarray, k, radii, nodes: int):
    rk = 1.0
    for kj, r in zip(k, radii):
        rk *= r**kj
    a = F[k] / rk
    if mi_degree(k) == 0:
        return a, np.zeros_like(a)
    neg = tuple((-kj) % nodes for kj in k)
    b = np.conj(F[neg]) / rk
    return a, b


def _check_extraction_spec(mapping, k, spec):
    if any(2 * kj >= spec.nodes_per_dim for kj in k):
        raise ValueError(f"nodes_per_dim={spec.nodes_per_dim} cannot resolve index {k}")
    if mapping.is_series and spec.nodes_per_dim <= 2 * mapping.degree:
        warnings.warn(
            f"node count {spec.nodes_per_dim} is at or below Nyquist for series degree "
            f"{mapping.degree}; extracted coefficients will alias",
            RuntimeWarning,
        )


def extract_coefficient(mapping: PluriharmonicMap, k, spec: QuadratureSpec | None = None):
    """Coefficient pair (a_k, b_k) recovered by torus quadrature.

    Integrates the map against e^{-i k.theta} (for a_k) and e^{+i k.theta}
    (conjugated, for b_k) at fixed radii and divides by r^k.  Exact to
    rounding for finite series once the node count exceeds twice the degree.
    For k = 0 the constant split is not observable: the grid mean is returned
    in a_0 with b_0 = 0 and a warning is emitted.
    """
    k = as_index(k)
    if len(k) != mapping.n:
        raise ValueError(f"index length {len(k)} != map dimension {mapping.n}")
    spec = spec or QuadratureSpec()
    radii = spec.resolve_radii(mapping.n, DEFAULT_EXTRACTION_RADIUS)
    _check_extraction_spec(mapping, k, spec)
    if mi_degree(k) == 0:
        warnings.warn("k = 0: the a_0/b_0 split is not observable; reporting the mean as a_0",
                      RuntimeWarning)
    F = _fourier_table(mapping, radii, spec.nodes_per_dim)
    return _read_coefficient(F, k, radii, spec.nodes_per_dim)


def extract_coefficients(mapping: PluriharmonicMap, max_degree: int,
                         spec: QuadratureSpec | None = None):
    """All coefficient pairs with 1 <= |k| <= max_degree from a single FFT."""
    spec = spec or QuadratureSpec()
    radii = spec.resolve_radii(mapping.n, DEFAULT_EXTRACTION_RADIUS)
    indices = [k for k in enumerate_indices(mapping.n, max_degree) if mi_degree(k) >= 1]
    if indices:
        _check_extraction_spec(mapping, max(indices, key=mi_degree), spec)
    F = _fourier_table(mapping, radii, spec.nodes_per_dim)
    return {k: _read_coefficient(F, k, radii, spec.nodes_per_dim) for k in indices}


def cauchy_derivative(mapping: PluriharmonicMap, z, alpha, spec: QuadratureSpec | None = None):
    """Mixed derivatives of order alpha by Cauchy-integral quadrature.

    Computes alpha!/(2*pi*i)^n times the contour integral of f against
    1/prod (eta_j - z_j)^(alpha_j + 1) for the holomorphic part, and the
    conjugated analogue (with conj(f)) for the anti-holomorphic part.  For
    alpha != 0 the opposite-type series contributes nothing to either
    integral, so the map's point values suffice.  The order-zero case is
    rejected: the constant split a_0/b_0 cannot be recovered from values.
    """
    alpha = as_index(alpha)
    if len(alpha) != mapping.n:
        raise ValueError(f"alpha length {len(alpha)} != map dimension {mapping.n}")
    if mi_degree(alpha) == 0:
        raise ValueError("order-zero derivative: use f(z) for values; the a_0/b_0 split "
                         "is not recoverable from point values")
    z = check_point(z, mapping.n)
    z_inf = float(np.max(np.abs(z)))
    spec = spec or QuadratureSpec(nodes_per_dim=DEFAULT_CAUCHY_NODES)
    radii = spec.resolve_radii(mapping.n, min(0.95, (z_inf + 1.0) / 2.0))
    if min(radii) <= z_inf:
        raise ValueError(f"contour radius {min(radii)} must exceed ||z||_inf = {z_inf}")
    M = spec.nodes_per_dim
    vals = _torus_samples(mapping, radii, M)

    theta = 2.0 * np.pi * np.arange(M) / M
    kernels = []
    for j, (r, aj) in enumerate(zip(radii, alpha)):
        eta = r * np.exp(1j * theta)
        kernels.append(eta / (eta - z[j]) ** (aj + 1))

    def contract(kernels):
        res = vals
        for K in kernels:
            res = np.tensordot(K, res, axes=(0, 0))
        return res / M**mapping.n

    # The anti-holomorphic part is conj(sum conj(V) K) = sum V conj(K).
    fact = float(mi_factorial(alpha))
    A = fact * contract(kernels)
    B = fact * contract([np.conj(K) for K in kernels])
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        raise ValueError("non-finite Cauchy quadrature result")
    return A, B
