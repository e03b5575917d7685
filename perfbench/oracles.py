"""Reference computations for checking polyschwarz outputs.

Nothing here imports polyschwarz.  Series maps enter as plain term lists
``[(k, a, b), ...]`` with ``a`` and ``b`` complex N-vectors, meaning
f(z) = sum a_k z^k + sum conj(b_k) conj(z)^k = h(z) + conj(g(z)).
Derivatives come from dense coefficient arrays and ``numpy.polynomial``,
compositions from the chain rule through the Mobius factors, direction
maxima from a dense phase grid with a Lipschitz bracket, and the planar
extremal ratio from Colonna's closed form.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as P

FOUR_OVER_PI = 4.0 / math.pi


def terms_from_file(data: dict) -> list:
    """Term list of a map file in the format written by ``save_map``."""
    N = int(data["N"])
    zero = [[0.0, 0.0]] * N
    out = []
    for term in data["terms"]:
        a = np.array([complex(re, im) for re, im in term.get("a", zero)])
        b = np.array([complex(re, im) for re, im in term.get("b", zero)])
        out.append((tuple(term["k"]), a, b))
    return out


def dense_tables(terms, n: int, N: int):
    """Dense arrays H, G of shape (d+1,)*n + (N,) holding a_k and b_k."""
    d = max((max(k) for k, _, _ in terms), default=0)
    H = np.zeros((d + 1,) * n + (N,), dtype=complex)
    G = np.zeros_like(H)
    for k, a, b in terms:
        H[k] += a
        G[k] += b
    return H, G


def _polyval_point(C: np.ndarray, z) -> np.ndarray:
    """Evaluate a dense coefficient array at the point z, axis by axis."""
    for zj in z:
        C = P.polyval(zj, C)
    return np.asarray(C)


def _differentiate(C: np.ndarray, alpha) -> np.ndarray:
    for j, aj in enumerate(alpha):
        if aj:
            C = P.polyder(C, m=aj, axis=j)
    return C


def series_value(terms, n: int, N: int, z) -> np.ndarray:
    H, G = dense_tables(terms, n, N)
    return _polyval_point(H, z) + np.conj(_polyval_point(G, z))


def series_derivatives(terms, n: int, N: int, z, alpha):
    """(d^alpha f, dbar^alpha f) at z."""
    H, G = dense_tables(terms, n, N)
    return (_polyval_point(_differentiate(H, alpha), z),
            np.conj(_polyval_point(_differentiate(G, alpha), z)))


def homogeneous_part(terms, n: int, N: int, m: int, z) -> np.ndarray:
    """sum_{|k|=m} a_k z^k + sum_{|k|=m} conj(b_k) conj(z)^k."""
    H, G = dense_tables(terms, n, N)
    mask = (sum(np.indices(H.shape[:n])) == m)[..., None]
    return _polyval_point(H * mask, z) + np.conj(_polyval_point(G * mask, z))


def l2_sum(terms, n: int, N: int) -> float:
    """||f(0)||^2 + sum_{|k|>=1} (||a_k||^2 + ||b_k||^2)."""
    f0 = series_value(terms, n, N, np.zeros(n))
    total = float(np.linalg.norm(f0) ** 2)
    for k, a, b in terms:
        if sum(k) >= 1:
            total += float(np.linalg.norm(a) ** 2 + np.linalg.norm(b) ** 2)
    return total


def _mobius_power_derivatives(c: complex, lam: complex, z0: complex, order: int, kmax: int):
    """Row k holds d^order/dz^order of phi(z)^k at z0, for k = 0..kmax,
    where phi(z) = (c + lam z) / (1 + conj(c) lam z)."""
    q = 1.0 + np.conj(c) * lam * z0
    s = np.conj(c) * lam
    geometric = (-s / q) ** np.arange(order + 1)
    taylor = P.polymul(np.array([c + lam * z0, lam]) / q, geometric)[: order + 1]
    out = np.zeros(kmax + 1, dtype=complex)
    power = np.array([1.0 + 0j])
    for k in range(kmax + 1):
        padded = np.zeros(order + 1, dtype=complex)
        padded[: min(order + 1, power.size)] = power[: order + 1]
        out[k] = math.factorial(order) * padded[order]
        power = P.polymul(power, taylor)[: order + 1]
    return out


def composed_derivatives(terms, n: int, N: int, centers, rotations, z, alpha):
    """(d^alpha, dbar^alpha) of f o phi at z for the coordinatewise
    automorphism phi_j(w) = (c_j + lam_j w) / (1 + conj(c_j) lam_j w).

    Each factor depends on one coordinate only, so the mixed derivative of
    phi(z)^k is the product of one-variable derivatives of phi_j^k_j."""
    H, G = dense_tables(terms, n, N)
    d = H.shape[0] - 1
    rows = [_mobius_power_derivatives(complex(c), complex(lam), complex(zj), aj, d)
            for c, lam, zj, aj in zip(centers, rotations, z, alpha)]

    def contract(C):
        for row in rows:
            C = np.tensordot(row, C, axes=(0, 0))
        return C

    return contract(H), np.conj(contract(G))


def rhs_polydisk(alpha, t: float) -> float:
    """alpha! (4/pi) (1+t)^(|alpha|-n) / (1-t^2)^|alpha|."""
    total = sum(alpha)
    fact = math.prod(math.factorial(a) for a in alpha)
    return fact * FOUR_OVER_PI * (1.0 + t) ** (total - len(alpha)) / (1.0 - t * t) ** total


def rhs_gradient(t: float) -> float:
    return FOUR_OVER_PI / (1.0 - t * t)


def rhs_growth(t: float) -> float:
    return FOUR_OVER_PI * math.atan(t)


def direction_max_bracket(d, dbar, grid: int = 1 << 14):
    """Interval [lo, hi] holding max over |theta_j| = 1 of
    ||d theta + dbar conj(theta)||.

    For one row the maximum equals max over phi of
    sum_j |d_j + conj(dbar_j) e^{i phi}| (take the common phase of the sum
    out and maximize each coordinate on its own), a function with Lipschitz
    constant sum_j |dbar_j|, sampled on ``grid`` points of the circle.  For
    several rows the n-torus is sampled with ``round(grid ** (1/n))``
    points per axis; coordinate j has Lipschitz constant
    ||d[:, j]|| + ||dbar[:, j]||.  lo is a sampled value, so it is attained;
    hi adds the Lipschitz constant times the largest distance to a sample.
    """
    d = np.atleast_2d(np.asarray(d, dtype=complex))
    dbar = np.atleast_2d(np.asarray(dbar, dtype=complex))
    N, n = d.shape
    if N == 1:
        e = np.exp(2j * math.pi * np.arange(grid) / grid)[:, None]
        values = np.abs(d[0] + np.conj(dbar[0]) * e).sum(axis=1)
        lo = float(values.max())
        return lo, lo + float(np.abs(dbar).sum()) * (math.pi / grid)
    per_axis = max(8, round(grid ** (1.0 / n)))
    axis = np.exp(2j * math.pi * np.arange(per_axis) / per_axis)
    theta = np.stack([g.ravel() for g in np.meshgrid(*([axis] * n), indexing="ij")], axis=-1)
    values = np.linalg.norm(theta @ d.T + np.conj(theta) @ dbar.T, axis=1)
    lo = float(values.max())
    lipschitz = float((np.linalg.norm(d, axis=0) + np.linalg.norm(dbar, axis=0)).sum())
    return lo, lo + lipschitz * (math.pi / per_axis)


def colonna_ratio(a: complex, z: complex) -> float:
    """First-order sharpness ratio of f = (2/pi) arg((1+psi)/(1-psi)),
    psi(z) = (z - a)/(1 - conj(a) z): |f_z| + |f_zbar| = (4/pi)|psi'|/|1 - psi^2|
    divided by (4/pi)/(1 - |z|^2)."""
    psi = (z - a) / (1.0 - np.conj(a) * z)
    dpsi = (1.0 - abs(a) ** 2) / (1.0 - np.conj(a) * z) ** 2
    return float(abs(dpsi) * (1.0 - abs(z) ** 2) / abs(1.0 - psi * psi))
