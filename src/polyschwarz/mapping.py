"""Pluriharmonic mappings on the unit polydisk.

A pluriharmonic map f = h + conj(g) is represented either as a pair of
finite coefficient tables (exactly evaluable and exactly differentiable),
as a lazy composition with a coordinatewise Mobius automorphism, or in
closed form (the planar extremal family, finite Blaschke products).

Coefficient convention: the anti-holomorphic table stores b_k unconjugated;
the series term it contributes is conj(b_k) * conj(z)**k.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .multiindex import MultiIndex, as_index, degree as mi_degree, enumerate_indices

MODULUS_TOL = 1e-12


class MapFormatError(ValueError):
    """Raised when a map file or coefficient table is malformed."""


def check_point(z, n: int) -> np.ndarray:
    """Validate a point of the open polydisk and return it as a complex array."""
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    if zz.ndim != 1 or zz.size != n:
        raise ValueError(f"expected a point with {n} coordinates, got shape {zz.shape}")
    if np.max(np.abs(zz)) >= 1.0:
        raise ValueError("point lies on or outside the unit polydisk")
    return zz


def _check_unimodular(w: complex, name: str) -> complex:
    w = complex(w)
    if abs(abs(w) - 1.0) > MODULUS_TOL:
        raise ValueError(f"{name} must be unimodular, got modulus {abs(w)!r}")
    return w


class PolydiskAutomorphism:
    """Coordinatewise automorphism of the polydisk.

    Each coordinate is rotated and then sent through a disk Mobius map:
    zeta_j -> (c_j + lam_j*zeta_j) / (1 + conj(c_j)*lam_j*zeta_j),
    so the origin maps exactly to the center c.
    """

    def __init__(self, center, rotations=None):
        c = np.atleast_1d(np.asarray(center, dtype=complex))
        if c.ndim != 1 or c.size < 1:
            raise ValueError("center must be a nonempty coordinate vector")
        if np.max(np.abs(c)) >= 1.0:
            raise ValueError("center must lie strictly inside the polydisk")
        if rotations is None:
            rot = np.ones_like(c)
        else:
            rot = np.atleast_1d(np.asarray(rotations, dtype=complex))
            if rot.shape != c.shape:
                raise ValueError("rotations must match the center's dimension")
            for w in rot:
                _check_unimodular(w, "rotation")
        self.center = c
        self.rotations = rot
        self.n = int(c.size)

    @staticmethod
    def _mobius(c, lam, zeta):
        w = lam * np.asarray(zeta, dtype=complex)
        return (c + w) / (1.0 + np.conj(c) * w)

    def __call__(self, Z):
        return self._mobius(self.center, self.rotations, Z)

    def coordinate(self, j: int, zeta) -> np.ndarray:
        """The j-th coordinate factor applied to an array of scalars."""
        return self._mobius(self.center[j], self.rotations[j], zeta)

    def derivative_at_zero(self) -> np.ndarray:
        """Diagonal Jacobian at the origin: entries lam_j * (1 - |c_j|^2)."""
        return np.diag(self.rotations * (1.0 - np.abs(self.center) ** 2))


def _check_axes(axes, n: int) -> list[np.ndarray]:
    axes = [np.asarray(a, dtype=complex) for a in axes]
    if len(axes) != n or any(a.ndim != 1 for a in axes):
        raise ValueError(f"expected {n} one-dimensional axis arrays")
    return axes


class PluriharmonicMap:
    """Common interface: dimensions n, N and vectorized pointwise evaluation."""

    n: int
    N: int
    is_series = False

    def eval_points(self, Z) -> np.ndarray:
        """Evaluate on an array of points, shape (..., n) -> (..., N)."""
        raise NotImplementedError

    def eval_grid(self, axes) -> np.ndarray:
        """Evaluate on the tensor grid of n per-axis point arrays,
        shape (M_1, ..., M_n, N).  Generic fallback through a meshgrid."""
        axes = _check_axes(axes, self.n)
        return self.eval_points(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1))

    def __call__(self, z) -> np.ndarray:
        z = check_point(z, self.n)
        return self.eval_points(z.reshape(1, -1))[0]


class SeriesMap(PluriharmonicMap):
    """Finite double power series: f(z) = sum a_k z^k + sum conj(b_k) conj(z)^k.

    certified_sup, when set, declares a sup-norm bound known from closed-form
    range information (e.g. a truncation of an extremal whose coefficients
    below the truncation degree are exact); the coefficient l1 norm is always
    available as the fallback rigorous bound.
    """

    is_series = True

    def __init__(self, n: int, N: int, holo=None, anti=None, certified_sup=None):
        if n < 1 or N < 1:
            raise ValueError("dimensions must be >= 1")
        self.n = int(n)
        self.N = int(N)
        self.holo = self._clean_table(holo)
        self.anti = self._clean_table(anti)
        if certified_sup is not None:
            certified_sup = float(certified_sup)
            if not 0.0 <= certified_sup < math.inf:
                raise MapFormatError(f"certified_sup must be finite and nonnegative, got {certified_sup}")
        self.certified_sup = certified_sup

    def _clean_table(self, table) -> dict[MultiIndex, np.ndarray]:
        out: dict[MultiIndex, np.ndarray] = {}
        for k, v in (table or {}).items():
            kk = as_index(k)
            if len(kk) != self.n:
                raise MapFormatError(f"index {kk} has length {len(kk)}, expected {self.n}")
            vv = np.atleast_1d(np.asarray(v, dtype=complex))
            if vv.shape != (self.N,):
                raise MapFormatError(f"coefficient for {kk} has shape {vv.shape}, expected ({self.N},)")
            out[kk] = vv
        return out

    @property
    def degree(self) -> int:
        degs = [mi_degree(k) for k in self.holo] + [mi_degree(k) for k in self.anti]
        return max(degs) if degs else 0

    def scaled(self, factor: float) -> SeriesMap:
        """The series times a real factor (no certified_sup is carried over).
        The tables are already validated, so they are not cleaned again."""
        out = SeriesMap(self.n, self.N)
        out.holo = {k: factor * v for k, v in self.holo.items()}
        out.anti = {k: factor * v for k, v in self.anti.items()}
        return out

    def eval_points(self, Z) -> np.ndarray:
        Z = np.asarray(Z, dtype=complex)
        out = np.zeros(Z.shape[:-1] + (self.N,), dtype=complex)
        for k, a in self.holo.items():
            out += np.prod(Z ** np.asarray(k), axis=-1)[..., None] * a
        if self.anti:
            Zc = np.conj(Z)
            for k, b in self.anti.items():
                out += np.prod(Zc ** np.asarray(k), axis=-1)[..., None] * np.conj(b)
        return out

    def eval_grid(self, axes) -> np.ndarray:
        """Separable evaluation: each table, as a dense coefficient tensor, is
        contracted axis by axis with per-axis power tables."""
        axes = _check_axes(axes, self.n)
        out = np.zeros(tuple(a.size for a in axes) + (self.N,), dtype=complex)
        if self.holo:
            out += self._contract_grid(self.holo, axes)
        if self.anti:
            out += self._contract_grid({k: np.conj(b) for k, b in self.anti.items()},
                                       [np.conj(a) for a in axes])
        return out

    def _contract_grid(self, table, axes) -> np.ndarray:
        """sum_k c_k prod_j axes[j]**k_j on the tensor grid, shape (M_1, ..., M_n, N)."""
        shape = np.max(np.array(list(table)), axis=0) + 1
        res = np.zeros((self.N,) + tuple(shape), dtype=complex)
        for k, c in table.items():
            res[(slice(None),) + k] = c
        for a in axes:
            # Contracting axis 1 (the exponents of the next coordinate) appends
            # that coordinate's grid axis, so the result ends as (N, M_1, ..., M_n).
            res = np.tensordot(res, a[:, None] ** np.arange(res.shape[1]), axes=(1, 1))
        return np.moveaxis(res, 0, -1)


def derivative_exact(mapping: PluriharmonicMap, z, alpha) -> tuple[np.ndarray, np.ndarray]:
    """Term-by-term mixed Wirtinger derivatives of a finite series.

    Returns the pair (d^alpha f / dz^alpha, d^alpha f / dzbar^alpha) as
    complex N-vectors.  Mixed z/zbar derivatives of a pluriharmonic scalar
    vanish identically and are not represented.
    """
    if not mapping.is_series:
        raise ValueError("exact differentiation requires a finite-series map; use cauchy_derivative")
    alpha = as_index(alpha)
    if len(alpha) != mapping.n:
        raise ValueError(f"alpha has length {len(alpha)}, expected {mapping.n}")
    z = check_point(z, mapping.n)

    def _part(table, base):
        acc = np.zeros(mapping.N, dtype=complex)
        for k, coeff in table.items():
            if all(kj >= aj for kj, aj in zip(k, alpha)):
                fall = 1
                for kj, aj in zip(k, alpha):
                    fall *= math.perm(kj, aj)
                shifted = tuple(kj - aj for kj, aj in zip(k, alpha))
                acc += coeff * fall * np.prod(base ** np.asarray(shifted))
        return acc

    A = _part(mapping.holo, z)
    B = _part({k: np.conj(v) for k, v in mapping.anti.items()}, np.conj(z))
    return A, B


def sup_bound_l1(mapping: PluriharmonicMap) -> float:
    """Coefficient l1 norm: a certified upper bound for sup ||f|| over the
    closed polydisk."""
    if not mapping.is_series:
        raise ValueError("the l1 sup bound requires a finite-series map")
    total = sum(np.linalg.norm(v) for v in mapping.holo.values())
    total += sum(np.linalg.norm(v) for v in mapping.anti.values())
    return float(total)


class ComposedMap(PluriharmonicMap):
    """Lazy composition f o phi.  Evaluable pointwise; coefficients of the
    composition are only accessible through quadrature extraction (composing
    a polynomial with a Mobius map is not polynomial, so no truncation is done).
    """

    def __init__(self, inner: PolydiskAutomorphism, outer: PluriharmonicMap):
        if inner.n != outer.n:
            raise ValueError(f"automorphism dimension {inner.n} != map dimension {outer.n}")
        self.inner = inner
        self.outer = outer
        self.n = inner.n
        self.N = outer.N

    def eval_points(self, Z) -> np.ndarray:
        return self.outer.eval_points(self.inner(np.asarray(Z, dtype=complex)))

    def eval_grid(self, axes) -> np.ndarray:
        # The automorphism acts coordinatewise, so it maps the grid's axes.
        axes = _check_axes(axes, self.n)
        return self.outer.eval_grid([self.inner.coordinate(j, a) for j, a in enumerate(axes)])


class ColonnaMap(PluriharmonicMap):
    """Planar extremal family f(z) = (2*gamma/pi) * arg((1+psi(z)) / (1-psi(z)))
    with psi(z) = lam*(z-a)/(1 - conj(a)*z).

    Equals h + conj(g) with h = -(i*gamma/pi)*L(psi), g = -(i*conj(gamma)/pi)*L(psi)
    and L(w) = log((1+w)/(1-w)); (1+w)/(1-w) has positive real part on the disk,
    so the principal branch is safe.  For gamma = 1 the values are real in (-1, 1).
    """

    n = 1
    N = 1

    def __init__(self, gamma=1.0, a=0.0, lam=1.0):
        self.gamma = _check_unimodular(gamma, "gamma")
        self.lam = _check_unimodular(lam, "lambda")
        a = complex(a)
        if abs(a) >= 1.0 - MODULUS_TOL:
            raise ValueError(f"automorphism parameter a must satisfy |a| < 1, got {abs(a)!r}")
        self.a = a

    def eval_points(self, Z) -> np.ndarray:
        zz = np.asarray(Z, dtype=complex)[..., 0]
        w = self.lam * (zz - self.a) / (1.0 - np.conj(self.a) * zz)
        vals = (2.0 * self.gamma / np.pi) * np.angle((1.0 + w) / (1.0 - w))
        return np.asarray(vals, dtype=complex)[..., None]

    def to_series(self, max_degree: int = 32, nodes: int = 512, radius: float = 0.9) -> SeriesMap:
        """Truncated coefficient tables recovered by circle quadrature.

        The constant split between a_0 and b_0 is not observable from values;
        the full constant is stored in a_0.
        """
        if not 0 < radius < 1:
            raise ValueError("expansion radius must lie in (0, 1)")
        if nodes <= 2 * max_degree:
            raise ValueError("node count must exceed twice the expansion degree")
        theta = 2.0 * np.pi * np.arange(nodes) / nodes
        zz = radius * np.exp(1j * theta)
        vals = self.eval_points(zz[:, None])[:, 0]
        F = np.fft.fft(vals) / nodes
        holo = {(0,): [F[0]]}
        anti = {}
        for m in range(1, max_degree + 1):
            holo[(m,)] = [F[m] / radius**m]
            anti[(m,)] = [np.conj(F[-m]) / radius**m]
        # The closed form maps into the disk and the extracted coefficients
        # below the truncation degree are exact, so the range certificate is
        # inherited by the truncation.
        return SeriesMap(1, 1, holo, anti, certified_sup=1.0)


class BlaschkeProduct(PluriharmonicMap):
    """Finite Blaschke product: rotation * prod (z - a_i)/(1 - conj(a_i) z).

    A holomorphic self-map of the disk (anti-holomorphic part is zero).
    """

    n = 1
    N = 1

    def __init__(self, zeros, rotation=1.0):
        zs = [complex(a) for a in zeros]
        if any(abs(a) >= 1.0 for a in zs):
            raise ValueError("Blaschke zeros must lie strictly inside the disk")
        self.zeros = zs
        self.rotation = _check_unimodular(rotation, "rotation")

    def eval_points(self, Z) -> np.ndarray:
        zz = np.asarray(Z, dtype=complex)[..., 0]
        out = np.full(zz.shape, self.rotation, dtype=complex)
        for a in self.zeros:
            out = out * (zz - a) / (1.0 - np.conj(a) * zz)
        return out[..., None]


def random_bounded_map(n: int, N: int, degree: int, seed: int, margin: float = 0.05) -> SeriesMap:
    """Random finite series with coefficient l1 norm exactly 1 - margin.

    The l1 norm rigorously dominates sup over the closed polydisk, so the
    result is certified to map into the ball of radius 1 - margin.
    Deterministic for a fixed seed.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if not 0.0 < margin < 1.0:
        raise ValueError("margin must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    holo = {}
    anti = {}
    for k in enumerate_indices(n, degree):
        holo[k] = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        anti[k] = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    raw = SeriesMap(n, N, holo, anti)
    return raw.scaled((1.0 - margin) / sup_bound_l1(raw))


# ---------------------------------------------------------------------------
# Serialization.  Composed and closed-form maps are not serializable; expand
# them to a SeriesMap first.
# ---------------------------------------------------------------------------

def to_pairs(v) -> list[list[float]]:
    """Complex vector -> list of [re, im] pairs, the JSON form of complex values."""
    return [[float(c.real), float(c.imag)] for c in v]


def from_pairs(pairs) -> np.ndarray:
    """List of [re, im] pairs -> complex vector; the inverse of to_pairs."""
    return np.array([complex(re, im) for re, im in pairs], dtype=complex)


def map_to_dict(mapping: SeriesMap) -> dict:
    if not mapping.is_series:
        raise MapFormatError("only finite-series maps are serializable")
    keys = sorted(set(mapping.holo) | set(mapping.anti), key=lambda k: (mi_degree(k), k))
    zero = np.zeros(mapping.N, dtype=complex)
    terms = []
    for k in keys:
        terms.append({
            "k": list(k),
            "a": to_pairs(mapping.holo.get(k, zero)),
            "b": to_pairs(mapping.anti.get(k, zero)),
        })
    out = {"n": mapping.n, "N": mapping.N, "terms": terms}
    if mapping.certified_sup is not None:
        out["certified_sup"] = mapping.certified_sup
    return out


def _pairs_to_vec(pairs, N: int, where: str) -> np.ndarray:
    try:
        vec = from_pairs(pairs)
    except (TypeError, ValueError) as exc:
        raise MapFormatError(f"{where}: coefficient entries must be [re, im] pairs ({exc})") from exc
    if vec.shape != (N,):
        raise MapFormatError(f"{where}: expected {N} coefficient entries, got {vec.shape[0]}")
    if not np.all(np.isfinite(vec)):
        raise MapFormatError(f"{where}: coefficient entries must be finite")
    return vec


def map_from_dict(data: dict) -> SeriesMap:
    try:
        n = int(data["n"])
        N = int(data["N"])
        raw_terms = data["terms"]
    except (KeyError, TypeError, ValueError) as exc:
        raise MapFormatError(f"map file must contain integer 'n', 'N' and a 'terms' list ({exc})") from exc
    holo = {}
    anti = {}
    for i, term in enumerate(raw_terms):
        where = f"term {i}"
        if not isinstance(term, dict) or "k" not in term:
            raise MapFormatError(f"{where}: expected an object with a 'k' index")
        try:
            k = as_index(term["k"])
        except ValueError as exc:
            raise MapFormatError(f"{where}: {exc}") from exc
        if len(k) != n:
            raise MapFormatError(f"{where}: index length {len(k)} != n = {n}")
        if k in holo or k in anti:
            raise MapFormatError(f"{where}: duplicate index {k}")
        if "a" in term:
            holo[k] = _pairs_to_vec(term["a"], N, where)
        if "b" in term:
            anti[k] = _pairs_to_vec(term["b"], N, where)
    certified_sup = data.get("certified_sup")
    if certified_sup is not None:
        try:
            certified_sup = float(certified_sup)
        except (TypeError, ValueError) as exc:
            raise MapFormatError(f"certified_sup must be a number ({exc})") from exc
    return SeriesMap(n, N, holo, anti, certified_sup=certified_sup)


def save_map(mapping: SeriesMap, path) -> None:
    with open(path, "w") as fh:
        json.dump(map_to_dict(mapping), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_map(path) -> SeriesMap:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise MapFormatError(f"map file is not valid JSON: {exc}") from exc
    return map_from_dict(data)
