"""Pluriharmonic mappings on the unit polydisk.

A pluriharmonic map f = h + conj(g) is represented either as a finite
series held in one dense coefficient tensor, as a lazy composition with a
coordinatewise Mobius automorphism, or in closed form (the planar extremal
family, finite Blaschke products).  Every class is exactly evaluable and
exactly differentiable (derivative_exact).

Coefficient convention: the anti-holomorphic half of that tensor stores b_k
unconjugated; the series term it contributes is conj(b_k) * conj(z)**k.
"""

from __future__ import annotations

import json
import math
import os
import stat
import sys
from functools import cached_property, lru_cache
from itertools import compress, product
from types import MappingProxyType

import numpy as np

from .multiindex import as_index, degree as mi_degree, enumerate_indices, grid_rows

MODULUS_TOL = 1e-12
# Largest complex array built to a size the caller chose: a coefficient tensor, one
# axis's quadrature kernels (rows x nodes), or one row of the torus grid that the
# generic _grid_sums samples (the grid of all but the first axis, times N).
MAX_SAMPLE_BYTES = 256 * 2**20
# Highest derivative order per coordinate taken of a map that is not a finite
# series: such derivatives grow like the order's factorial, and 171! overflows a double.
MAX_CLOSED_FORM_ORDER = 170
# Working memory of one chunk of the rows that SeriesMap.eval_points or a stacked
# derivative_exact contracts at once (see _row_slices), and of one chunk of check_points.
ROW_CHUNK_BYTES = 1 << 20


class MapFormatError(ValueError):
    """Raised when a map file or coefficient table is malformed, or a tensor is too large."""


def check_points(Z, n: int) -> np.ndarray:
    """The point rule: validate a stack of points of the open polydisk (rows of n
    coordinates, or scalars when n = 1; no rows when empty; [z] for one point z) and
    return it as a (P, n) complex array, checking moduli ROW_CHUNK_BYTES at a time."""
    ZZ = np.asarray(Z, dtype=complex)
    if ZZ.ndim == 1 and (n == 1 or ZZ.size == 0):
        ZZ = ZZ.reshape(-1, n)
    if ZZ.ndim != 2 or ZZ.shape[1] != n:
        raise ValueError(f"expected points with {n} coordinates, got shape {ZZ.shape}")
    step = max(1, ROW_CHUNK_BYTES // (8 * n))
    for i in range(0, len(ZZ), step):
        if not np.abs(ZZ[i:i + step]).max() < 1.0:  # also refuses a NaN coordinate
            raise ValueError("point lies on or outside the unit polydisk")
    return ZZ


def one_or_stack(z, n: int) -> tuple[np.ndarray, bool]:
    """The point-or-stack rule: z with np.ndim(z) < 2 is one point (n coordinates, or a
    scalar when n = 1), any other z a (P, n) stack.  Returns (Z, one): the points as a
    checked (P, n) array (check_points; one row for one point) and whether z was one point."""
    one = np.ndim(z) < 2
    return check_points([z] if one else z, n), one


def check_index(k, n: int) -> tuple:
    """The length rule: k (an order or an index) as a multi-index of length n."""
    k = as_index(k)
    if len(k) != n:
        raise ValueError(f"multi-index {k} has length {len(k)}, expected {n}")
    return k


def check_tensor_size(shape, wording=None) -> None:
    """The size rule: refuse, before allocating it, a complex tensor of this shape above
    MAX_SAMPLE_BYTES.  wording() gives the refusal's (what, hint), the tensor's name and a
    text for the end, and is called only on refusal; None names a coefficient tensor."""
    size = math.prod(shape) * np.dtype(complex).itemsize
    if size > MAX_SAMPLE_BYTES:
        what, hint = wording() if wording else (f"a coefficient tensor of shape {tuple(shape)}", "")
        raise MapFormatError(f"{what} needs {size / 2**20:.0f} MiB, over the "
                             f"{MAX_SAMPLE_BYTES // 2**20} MiB limit{hint}")


def _check_unimodular(w: complex, name: str) -> complex:
    w = complex(w)
    if not abs(abs(w) - 1.0) <= MODULUS_TOL:  # also refuses NaN
        raise ValueError(f"{name} must be unimodular, got modulus {abs(w)!r}")
    return w


class PolydiskAutomorphism:
    """Coordinatewise automorphism of the polydisk.

    Each coordinate is rotated and then sent through a disk Mobius map:
    zeta_j -> (c_j + lam_j*zeta_j) / (1 + conj(c_j)*lam_j*zeta_j),
    so the origin maps exactly to the center c.
    """

    def __init__(self, center, rotations=None):
        if np.size(center) < 1:
            raise ValueError("center must be a nonempty coordinate vector")
        c = check_points([center], np.size(center))[0]
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


def _mobius_jet(c: complex, lam: complex, zeta: complex) -> tuple[complex, complex, complex]:
    """(phi(zeta), phi'(zeta), r) for phi(w) = (c + lam*w) / (1 + conj(c)*lam*w):
    the Taylor series at zeta is phi(zeta + t) = phi(zeta) + phi'(zeta) * t / (1 - r*t),
    with r = -conj(c)*lam / (1 + conj(c)*lam*zeta)."""
    q = 1.0 + np.conj(c) * lam * zeta
    return (c + lam * zeta) / q, lam * (1.0 - abs(c) ** 2) / q**2, -np.conj(c) * lam / q


def _check_axes(axes, n: int) -> list[np.ndarray]:
    axes = [np.asarray(a, dtype=complex) for a in axes]
    if len(axes) != n or any(a.ndim != 1 for a in axes):
        raise ValueError(f"expected {n} one-dimensional axis arrays")
    return axes


class PluriharmonicMap:
    """Common interface: dimensions n, N, vectorized pointwise evaluation and
    sup_bound, a rigorous upper bound for sup ||f|| over the polydisk that the
    class itself states (math.inf when it knows none)."""

    n: int
    N: int
    sup_bound = math.inf

    def eval_points(self, Z) -> np.ndarray:
        """Evaluate on an array of points, shape (..., n) -> (..., N)."""
        raise NotImplementedError

    def _derivative(self, Z: np.ndarray, alpha) -> tuple[np.ndarray, np.ndarray]:
        """(d^alpha f, dbar^alpha f), each of shape (P, N), at a (P, n) stack of
        checked points; see derivative_exact."""
        raise ValueError(f"{type(self).__name__} has no exact derivatives; use cauchy_derivative")

    def eval_grid(self, axes) -> np.ndarray:
        """Evaluate on the tensor grid of n per-axis point arrays,
        shape (M_1, ..., M_n, N).  Generic fallback through eval_points on
        the grid's rows."""
        axes = _check_axes(axes, self.n)
        values = self.eval_points(grid_rows(axes))
        return values.reshape(tuple(len(a) for a in axes) + (self.N,))

    def kernel_sums(self, axes, kernels) -> np.ndarray:
        """The sums over the tensor grid of n per-axis point arrays eta_j of
        prod_j K_j[p, m_j] f(eta_m) and of prod_j conj(K_j[p, m_j]) f(eta_m), p = 0, ...,
        R - 1, for kernels K_j of shape (R, M_j), M_j = len(eta_j): shape (2, R, N), the
        first sums in row [0, p] and the second in row [1, p].  Kernels of another shape
        are refused before the map is evaluated.  Each class computes the sums in
        _grid_sums, which takes each axis's kernels, then their conjugates in reverse
        order, so that row 2R - 1 - q is the conjugate of row q."""
        axes = _check_axes(axes, self.n)
        kernels = [np.asarray(K, dtype=complex) for K in kernels]
        if (len(kernels) != self.n or any(K.ndim != 2 or K.shape != (len(kernels[0]), len(a))
                                          for K, a in zip(kernels, axes))):
            raise ValueError(f"expected {self.n} kernel arrays of shapes (R, M_j) with one R "
                             f"and M_j = {[len(a) for a in axes]}, "
                             f"got {[np.shape(K) for K in kernels]}")
        R = len(kernels[0])
        S = self._grid_sums(axes, [np.concatenate([K, np.conj(K[::-1])]) for K in kernels])
        S = S.reshape(2, R, self.N)
        S[1] = S[1, ::-1]
        return S

    def _grid_sums(self, axes, kernels) -> np.ndarray:
        """The (2R, N) sums of kernel_sums' paired kernels over the grid of checked axes:
        eval_grid in slabs of at most ROW_CHUNK_BYTES along the first axis, each
        contracted with the kernels of that axis, then the other axes in turn.  A slab
        of one row, the grid of the other axes, above MAX_SAMPLE_BYTES is refused before
        the map is evaluated."""
        row = tuple(len(a) for a in axes[1:]) + (self.N,)
        check_tensor_size(row, lambda: (f"a torus grid row of shape {row}",
                                        "; use fewer quadrature nodes per dimension (--nodes)"))
        rest = math.prod(row)
        res = _slab_products(kernels[0], rest, lambda s: self.eval_grid(
            [axes[0][s], *axes[1:]]).reshape(-1, rest))
        for K in kernels[1:]:
            res = (K[:, None, :] @ res.reshape(len(K), K.shape[1], -1))[:, 0]
        return res

    def __call__(self, z) -> np.ndarray:
        return self.eval_points(check_points([z], self.n))[0]


class SeriesMap(PluriharmonicMap):
    """Finite double power series: f(z) = sum a_k z^k + sum conj(b_k) conj(z)^k.

    Its coefficients are one dense read-only tensor c of shape (2N, D_1, ..., D_n), a stacked
    over b, each half at most MAX_SAMPLE_BYTES; a and b are read-only views of its halves, holo
    and anti of their nonzero entries, and l1_norm is their coefficient l1 norm.  All are
    computed once, on first read, which is sound because the tensor cannot be written.

    certified_sup, when set, declares a sup-norm bound known from closed-form
    range information (e.g. a truncation of an extremal whose coefficients
    below the truncation degree are exact).  sup_bound is the l1 norm, which
    rigorously dominates sup ||f|| over the closed polydisk, or the declared
    bound when that is smaller.
    """

    def __init__(self, n: int, N: int, holo=None, anti=None, certified_sup=None):
        if n < 1 or N < 1:
            raise ValueError("dimensions must be >= 1")
        self.n, self.N = int(n), int(N)
        self.c = _dense_tensors(self.n, self.N, *self._clean_table(holo, anti))
        self.c.flags.writeable = False
        self.certified_sup = _certificate(certified_sup)

    def _clean_table(self, holo, anti) -> tuple[list, np.ndarray, list]:
        """The validated terms of both tables: indices, N-vectors (one per row) and anti flags."""
        keys, values, is_anti = [], [], []
        for part, table in enumerate((holo, anti)):
            for k, v in (table or {}).items():
                kk = check_index(k, self.n)
                vv = np.atleast_1d(np.asarray(v, dtype=complex))
                if vv.shape != (self.N,):
                    raise MapFormatError(f"coefficient for {kk} has shape {vv.shape}, expected ({self.N},)")
                keys.append(kk)
                values.append(vv)
                is_anti.append(part)
        return keys, np.array(values, dtype=complex).reshape(-1, self.N), is_anti

    @classmethod
    def from_tensors(cls, c: np.ndarray, certified_sup=None) -> SeriesMap:
        """The series with the tensor c (2N, D_1, ..., D_n), a stacked over b, held read-only as a
        C-ordered complex array (no copy if c is one; no contraction copies it), and a certified_sup."""
        if c.ndim < 2 or c.shape[0] < 2 or c.shape[0] % 2:
            raise ValueError(f"dimensions must be >= 1: expected shape (2N, D_1, ...), got {c.shape}")
        out = cls.__new__(cls)
        out.n, out.N = c.ndim - 1, c.shape[0] // 2
        out.c = np.ascontiguousarray(c, dtype=complex)
        out.c.flags.writeable = False
        out.certified_sup = _certificate(certified_sup)
        return out

    a = cached_property(lambda self: self.c[:self.N])
    b = cached_property(lambda self: self.c[self.N:])
    holo = cached_property(lambda self: _table_view(self.a))
    anti = cached_property(lambda self: _table_view(self.b))
    # sum_k ||a_k|| + ||b_k||, which bounds sup ||f|| since |z^k| <= 1 on the closed polydisk;
    # a's norms are summed before b's, the order random_bounded_map's scaling was fixed in.
    l1_norm = cached_property(lambda self: float(np.linalg.norm(self.c[:self.N], axis=0).sum()
                                                 + np.linalg.norm(self.c[self.N:], axis=0).sum()))

    @property
    def sup_bound(self) -> float:
        if self.certified_sup is None:
            return self.l1_norm
        return min(self.l1_norm, self.certified_sup)

    @property
    def degrees(self) -> np.ndarray:
        """|k| at each index k of the coefficient tensor c, shape (D_1, ..., D_n)."""
        return np.indices(self.c.shape[1:]).sum(axis=0)

    @property
    def degree(self) -> int:
        return int(self.degrees[np.any(self.c, axis=0)].max(initial=0))

    def scaled(self, factor) -> SeriesMap:
        """The series times a real factor or a (D_1, ..., D_n) array of them (no certified_sup)."""
        return SeriesMap.from_tensors(factor * self.c)

    def eval_points(self, Z) -> np.ndarray:
        """The order-0 _derivative, its sums added; each point's value is the bits it gets alone."""
        Z = np.asarray(Z, dtype=complex)
        out = np.empty(Z.shape[:-1] + (self.N,), dtype=complex)
        self._derivative(Z.reshape(-1, self.n), (0,) * self.n, out.reshape(-1, self.N))
        return out

    def _grid_sums(self, axes, kernels) -> np.ndarray:
        """Separable: the grid values are c contracted with one power table
        T_j per axis, so each axis's kernels are contracted with its table first,
        H_j = K_j @ T_j of shape (2R, D_j) with T_j built in slabs of ROW_CHUNK_BYTES,
        and then c with those, rows at a time as _row_slices allows; no grid-sized array
        is built.  Row q sums conj(b_k eta^k) to conj(b . H[2R-1-q]), since row
        2R - 1 - q of each K_j is the conjugate of row q."""
        H = [_slab_products(K, d, lambda s: _powers(x[s], d).T)
             for K, x, d in zip(kernels, axes, self.c.shape[1:])]
        res = np.empty((len(H[0]), len(self.c)), dtype=complex)
        for chunk in _row_slices(len(res), self.c.shape):
            res[chunk] = _contract_rows(self.c, [h[chunk] for h in H])
        return res[:, :self.N] + np.conj(res[::-1, self.N:])

    def _derivative(self, Z, alpha, out=None):
        """The one pointwise contraction, of c whole with no cut or copy, per chunk of rows
        from _row_slices: A = sum_k a_k w_k(z) and B = conj(sum_k b_k w_k(z)), w_k the product
        of the axes' _weighted_powers, or A + B written into a (P, N) out (then B is None)."""
        A, B = np.empty((2, len(Z), self.N), dtype=complex) if out is None else (out, None)
        # A term past the double range makes the result inf or NaN, which make_report refuses.
        with np.errstate(invalid="ignore", over="ignore"):
            for chunk in _row_slices(len(Z), self.c.shape):
                res = _contract_rows(self.c, [_weighted_powers(zj, aj, dj) for zj, aj, dj
                                              in zip(Z[chunk].T, alpha, self.c.shape[1:])])
                if B is None:
                    np.add(res[:, :self.N], np.conj(res[:, self.N:]), out=A[chunk])
                else:
                    A[chunk] = res[:, :self.N]
                    np.conj(res[:, self.N:], out=B[chunk])
        return A, B


@lru_cache(maxsize=1024)
def _axis_weights(a: int, d: int) -> tuple[np.ndarray, bool]:
    """At 0 <= k < d for an order a: the weights, 0 below a and then k!/(k - a)! as floats (inf
    past the largest double), read-only, and whether they are all finite."""
    falling = (math.perm(k, a) for k in range(a, d))
    weights = np.array([0.0] * min(a, d) + [p if p <= sys.float_info.max else math.inf
                                            for p in falling], dtype=float)
    weights.flags.writeable = False
    return weights, bool(np.isfinite(weights).all())


def _weighted_powers(x: np.ndarray, a: int, d: int) -> np.ndarray:
    """The C-ordered (len(x), d) table of k!/(k - a)! x**(k - a) for k >= a and 0 below: row p is
    the running product of 1 up to k = a and x[p] after it, so a power's k - a - 1 products are
    the same whatever the other rows and err by their rounding to first order; then the weights."""
    weights, finite = _axis_weights(a, d)
    T = x[:, None].repeat(d, axis=1)
    T[:, :a + 1] = 1.0
    np.multiply.accumulate(T, axis=1, out=T)
    if a and finite:
        T *= weights
    elif a:  # a zero power stays a zero term, also where its weight is inf
        np.multiply(T, weights, out=T, where=T != 0)
    return T


def _powers(x: np.ndarray, d: int) -> np.ndarray:
    """The table x**k of the values x of a coordinate with D_j = d, shape (d, len(x)).
    Row k is x**(k // 2) * x**(k - k // 2), a product of two earlier rows (binary powering;
    Knuth, TAOCP vol. 2, section 4.6.3), so each entry takes ceil(log2 k) products in a row,
    each the same operation whatever the other values, and errs by at most k - 1 complex
    products' rounding to first order."""
    T = np.empty((d, len(x)), dtype=complex)
    T[0] = 1.0
    T[1:2] = x
    for k in range(2, d):
        np.multiply(T[k // 2], T[k - k // 2], out=T[k])
    return T


def _slab_products(K: np.ndarray, width: int, rows) -> np.ndarray:
    """K @ X for the (K.shape[1], width) complex matrix X whose rows s (a slice) rows(s)
    builds, in slabs of at most ROW_CHUNK_BYTES of X."""
    step = max(1, ROW_CHUNK_BYTES // (width * np.dtype(complex).itemsize))
    res = K[:, :step] @ rows(slice(0, step))
    for i in range(step, K.shape[1], step):
        res += K[:, i:i + step] @ rows(slice(i, i + step))
    return res


def _dense_tensors(n: int, N: int, keys, values, anti) -> np.ndarray:
    """The tensor c, a over b, of validated terms: indices of length n, their (T, N) complex
    vectors and whether each is anti-holomorphic.  Zero vectors are not kept (nor their indices
    converted), so they do not widen c; an oversized half (N, D_1, ...) is refused first."""
    keep = values.any(axis=1)
    try:
        idx = np.array(list(compress(keys, keep)), dtype=int).reshape(-1, n)
    except OverflowError as exc:
        raise MapFormatError(f"an index component exceeds 64 bits ({exc})") from exc
    values, anti = values[keep], np.array(anti, dtype=bool)[keep]
    shape = (N,) + tuple(int(d) + 1 for d in np.max(idx, axis=0, initial=0))
    check_tensor_size(shape)
    c = np.zeros((2 * N,) + shape[1:], dtype=complex)
    for half, part in ((c[:N], ~anti), (c[N:], anti)):
        half[(slice(None),) + tuple(idx[part].T)] = values[part].T
    return c


def _certificate(certified_sup) -> float | None:
    """A declared certified_sup after its range check: None, or a finite
    nonnegative float."""
    if certified_sup is None:
        return None
    try:
        certified_sup = float(certified_sup)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MapFormatError(f"certified_sup must be a number ({exc})") from exc
    if not 0.0 <= certified_sup < math.inf:
        raise MapFormatError(f"certified_sup must be finite and nonnegative, got {certified_sup}")
    return certified_sup


def _table_view(t: np.ndarray) -> MappingProxyType:
    """{k: t[:, k]} over the nonzero entries of a coefficient tensor, read-only."""
    keys = np.argwhere(np.any(t, axis=0))
    values = np.moveaxis(t, 0, -1)[tuple(keys.T)]
    values.flags.writeable = False
    return MappingProxyType(dict(zip(map(tuple, keys.tolist()), values)))


def _row_slices(P: int, shape) -> list[slice]:
    """Slices that cover the rows 0..P-1 of a _contract_rows on a tensor of
    this shape (2N, D_1, ..., D_n), points or kernel rows, in chunks of at most
    ROW_CHUNK_BYTES of working memory.  The rows get half of it, since numpy's
    broadcasting ufuncs take a buffer of their own (256 KiB for the power
    tables) whatever the row count.  Per row, everything counts twice: the
    per-axis tables (a chunk's are built before the last chunk's are freed),
    and the largest intermediate and the result (each is built while its
    input lives)."""
    row = 2 * 16 * (sum(shape[1:]) + math.prod(shape[:-1]) + shape[0])
    step = max(1, ROW_CHUNK_BYTES // 2 // row)
    return [slice(i, i + step) for i in range(0, P, step)]


def _contract_rows(t: np.ndarray, tables) -> np.ndarray:
    """sum_k t[:, k] prod_j tables[j][p, k_j] for each row p, shape (P, N), for
    a C-contiguous t of shape (N, D_1, ..., D_n) and tables of shape (P, D_j).
    One stacked matrix-vector product per axis, the last axis first, so each
    row is computed alone, by the same operations whatever the other rows."""
    res = t[None]
    for j in range(t.ndim - 1, 0, -1):
        res = res.reshape(len(res), math.prod(t.shape[:j]), t.shape[j]) @ tables[j - 1][:, :, None]
    return res.reshape(len(res), t.shape[0])


def derivative_exact(mapping: PluriharmonicMap, z, alpha) -> tuple[np.ndarray, np.ndarray]:
    """Mixed Wirtinger derivatives (d^alpha f / dz^alpha, d^alpha f / dzbar^alpha)
    at z as complex N-vectors, or at a (P, n) stack of points as two (P, N)
    arrays whose rows are the bits each point gets alone; exact up to
    rounding for every map class:
    - SeriesMap: its whole tensor, weighted per axis by k_j!/(k_j - alpha_j)! *
      z_j**(k_j - alpha_j) for k_j >= alpha_j and by 0 below, and summed;
    - ColonnaMap: the closed-form derivatives of log((1+psi)/(1-psi));
    - BlaschkeProduct: the product of its Mobius factors' truncated Taylor series;
    - ComposedMap: Faa di Bruno through the per-coordinate Mobius factors,
      on the outer map's derivatives of orders beta <= alpha.
    Mixed z/zbar derivatives of a pluriharmonic scalar vanish identically and
    are not represented.  Cauchy quadrature (quadrature.cauchy_derivative)
    is the independent cross-check.
    """
    alpha = check_exact_order(mapping, check_index(alpha, mapping.n))
    Z, one = one_or_stack(z, mapping.n)
    A, B = mapping._derivative(Z, alpha)
    return (A[0], B[0]) if one else (A, B)


def check_exact_order(mapping: PluriharmonicMap, alpha: tuple) -> tuple:
    """The order cap: alpha, or ValueError for a closed-form order above MAX_CLOSED_FORM_ORDER."""
    if not isinstance(mapping, SeriesMap) and max(alpha) > MAX_CLOSED_FORM_ORDER:
        raise ValueError(f"derivative orders above {MAX_CLOSED_FORM_ORDER} are only "
                         f"taken of finite series, got {alpha}")
    return alpha


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

    @property
    def sup_bound(self) -> float:
        # The automorphism maps the polydisk onto itself, so f o phi has the range of f.
        return self.outer.sup_bound

    def eval_points(self, Z) -> np.ndarray:
        return self.outer.eval_points(self.inner(np.asarray(Z, dtype=complex)))

    def _grid_sums(self, axes, kernels) -> np.ndarray:
        # The automorphism acts coordinatewise, so it maps the grid's axes.
        return self.outer._grid_sums([self.inner.coordinate(j, a) for j, a in enumerate(axes)],
                                     kernels)

    def _derivative(self, Z, alpha):
        # Faa di Bruno per coordinate: d^m/dz^m u(phi(z)) = sum_k u^(k)(phi(z)) * weight_k,
        # and for a Mobius phi the weight is the Lah number L(m, k) * phi'^k * r^(m - k)
        # (the t^m coefficient of (phi'(z) t / (1 - r t))^k, times m!/k!).  The factors act
        # on separate coordinates, so the weight of an outer order beta is a product.
        W = np.empty_like(Z)
        weights = []
        for j, m in enumerate(alpha):
            W[:, j], d1, r = _mobius_jet(self.inner.center[j], self.inner.rotations[j], Z[:, j])
            weights.append({0: 1.0} if m == 0 else
                           {k: math.comb(m - 1, k - 1) * math.factorial(m) // math.factorial(k)
                            * d1**k * r ** (m - k) for k in range(1, m + 1)})
        A = np.zeros((len(Z), self.N), dtype=complex)
        B = np.zeros_like(A)
        for beta in product(*weights):
            # One weight per point, as a column.
            weight = np.reshape(math.prod(wj[bj] for wj, bj in zip(weights, beta)), (-1, 1))
            dA, dB = self.outer._derivative(W, beta)
            # dbar^alpha (conj(g) o phi) = conj(d^alpha (g o phi)): the weights conjugate.
            A += weight * dA
            B += np.conj(weight) * dB
        return A, B


class ColonnaMap(PluriharmonicMap):
    """Planar extremal family f(z) = (2*gamma/pi) * arg((1+psi(z)) / (1-psi(z)))
    with psi(z) = lam*(z-a)/(1 - conj(a)*z).

    Equals h + conj(g) with h = -(i*gamma/pi)*L(psi), g = -(i*conj(gamma)/pi)*L(psi)
    and L(w) = log((1+w)/(1-w)); (1+w)/(1-w) has positive real part on the disk,
    so the principal branch is safe.  For gamma = 1 the values are real in (-1, 1).
    """

    n = 1
    N = 1
    # (1+psi)/(1-psi) has positive real part, so its arg lies in (-pi/2, pi/2) and |f| < 1.
    sup_bound = 1.0

    def __init__(self, gamma=1.0, a=0.0, lam=1.0):
        self.gamma = _check_unimodular(gamma, "gamma")
        self.lam = _check_unimodular(lam, "lambda")
        self.a = complex(check_points([a], 1)[0, 0])

    def eval_points(self, Z) -> np.ndarray:
        zz = np.asarray(Z, dtype=complex)[..., 0]
        w = self.lam * (zz - self.a) / (1.0 - np.conj(self.a) * zz)
        vals = (2.0 * self.gamma / np.pi) * np.angle((1.0 + w) / (1.0 - w))
        return np.asarray(vals, dtype=complex)[..., None]

    def _log_taylor(self, z, m):
        """Taylor coefficients of L(psi) at z, L(psi(z + t)) = L(psi(z)) + sum_{m>=1} c_m t^m,
        at an order m >= 1 or at each order of an integer array of them:
        c_m = (-1)^(m-1)/m ((u1/u)^m - (v1/v)^m)."""
        # 1 + psi and 1 - psi at z + t are u + u1 t and v + v1 t over one common
        # denominator, so L(psi(z + t)) = log(u + u1 t) - log(v + v1 t) up to a constant.
        lam, a, ca = self.lam, self.a, self.a.conjugate()
        u1, v1 = lam - ca, -(lam + ca)
        u, v = 1.0 - lam * a + u1 * z, 1.0 + lam * a + v1 * z
        return (-1) ** (m - 1) / m * ((u1 / u) ** m - (v1 / v) ** m)

    def _log_derivative(self, z, m: int):
        """d^m/dz^m of L(psi) at a scalar z (m = 0: the value L(psi(z)))."""
        if m == 0:
            psi = self.lam * (z - self.a) / (1.0 - np.conj(self.a) * z)
            return np.log((1.0 + psi) / (1.0 - psi))
        return math.factorial(m) * self._log_taylor(z, m)

    def _derivative(self, Z, alpha):
        (m,) = alpha
        # h = -(i gamma/pi) L(psi) and conj(g) = (i gamma/pi) conj(L(psi)).
        c = 1j * self.gamma / np.pi
        A = np.empty((len(Z), 1), dtype=complex)
        B = np.empty_like(A)
        # Point by point in scalar arithmetic, the cheapest for the one point of a search step.
        for p in range(len(Z)):
            dL = self._log_derivative(Z[p, 0], m)
            A[p, 0], B[p, 0] = -c * dL, c * np.conj(dL)
        return A, B

    def to_series(self, max_degree: int = 32) -> SeriesMap:
        """The Taylor series at 0 cut at max_degree: a_m = -(i gamma/pi) c_m and
        b_m = -(i conj(gamma)/pi) c_m exactly, with c_m from _log_taylor; a_0 holds all
        of f(0) and b_0 = 0, since values cannot split the constant between them.  An
        oversized degree is refused by check_tensor_size before anything is built."""
        if max_degree < 0:
            raise ValueError(f"expansion degree must be >= 0, got {max_degree}")
        check_tensor_size((1, max_degree + 1))
        L = np.zeros(max_degree + 1, dtype=complex)
        L[1:] = self._log_taylor(0.0, np.arange(1, max_degree + 1))
        c = np.outer([-1j * self.gamma / np.pi, -1j * np.conj(self.gamma) / np.pi], L)
        c[0, 0] = self(0.0)[0]
        # Declared, not checked: the truncation itself reaches |f| = 1.1665 on
        # |z| = 0.999 (the FOUND on this stamp in CHANGES.md), so this bound is
        # unsound; ROADMAP item 1 removes the stamp.
        return SeriesMap.from_tensors(c, certified_sup=1.0)


class BlaschkeProduct(PluriharmonicMap):
    """Finite Blaschke product: rotation * prod (z - a_i)/(1 - conj(a_i) z).

    A holomorphic self-map of the disk (anti-holomorphic part is zero).
    """

    n = 1
    N = 1
    # Each Mobius factor has modulus below 1 on the disk, and the rotation modulus 1.
    sup_bound = 1.0

    def __init__(self, zeros, rotation=1.0):
        self.zeros = check_points(zeros, 1)[:, 0].tolist()
        self.rotation = _check_unimodular(rotation, "rotation")

    def eval_points(self, Z) -> np.ndarray:
        zz = np.asarray(Z, dtype=complex)[..., 0]
        out = np.full(zz.shape, self.rotation, dtype=complex)
        for a in self.zeros:
            out = out * (zz - a) / (1.0 - np.conj(a) * zz)
        return out[..., None]

    def _derivative(self, Z, alpha):
        # Each factor (z - a)/(1 - conj(a) z) is the Mobius map with c = -a and lam = 1.
        (m,) = alpha
        A = np.empty((len(Z), 1), dtype=complex)
        for p, z in enumerate(Z[:, 0]):
            series = np.zeros(m + 1, dtype=complex)  # Taylor coefficients at z, to t^m
            series[0] = self.rotation
            for a in self.zeros:
                value, d1, r = _mobius_jet(-a, 1.0, z)
                series = np.convolve(series, np.concatenate([[value], d1 * r ** np.arange(m)]))[: m + 1]
            A[p] = math.factorial(m) * series[m]
        return A, np.zeros_like(A)


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
    shape = (N,) + (degree + 1,) * n
    check_tensor_size(shape)
    where = (slice(None),) + tuple(np.array(enumerate_indices(n, degree)).reshape(-1, n).T)
    # One draw fills the tensor in the order of four standard_normal(N) calls
    # per index: re a_k, im a_k, re b_k, im b_k, indices in graded-lex order.
    x = np.random.default_rng(seed).standard_normal((len(where[1]), 4, N))
    c = np.zeros((2 * N,) + shape[1:], dtype=complex)
    c[where] = (x[:, 0::2] + 1j * x[:, 1::2]).reshape(len(x), 2 * N).T
    raw = SeriesMap.from_tensors(c)
    return raw.scaled((1.0 - margin) / raw.l1_norm)


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
    if not isinstance(mapping, SeriesMap):
        raise MapFormatError("only finite-series maps are serializable")
    holo, anti = mapping.holo, mapping.anti
    keys = sorted(set(holo) | set(anti), key=lambda k: (mi_degree(k), k))
    zero = np.zeros(mapping.N, dtype=complex)
    terms = [{"k": list(k), "a": to_pairs(holo.get(k, zero)), "b": to_pairs(anti.get(k, zero))}
             for k in keys]
    out = {"n": mapping.n, "N": mapping.N, "terms": terms}
    if mapping.certified_sup is not None:
        out["certified_sup"] = mapping.certified_sup
    return out


def _coefficient_rows(vectors: list, owners: list, N: int) -> np.ndarray:
    """The (T, N) complex rows of T vectors of N [re, im] pairs, in one numpy conversion; if that
    refuses them, one by one (from_pairs), which names the term owners[t] of the first bad one."""
    try:
        # No dtype=float: numpy would parse a numeric string, which complex() refuses.
        x = np.array(vectors)
    except (TypeError, ValueError, OverflowError):
        x = np.empty(0)
    if x.dtype.kind in "biuf" and x.shape == (len(vectors), N, 2) and np.isfinite(x).all():
        return np.ascontiguousarray(x, dtype=float).view(complex)[..., 0]
    rows = []
    for vec, i in zip(vectors, owners):
        try:
            vec = from_pairs(vec)
        except (TypeError, ValueError, OverflowError) as exc:
            raise MapFormatError(f"term {i}: coefficient entries must be [re, im] pairs ({exc})") from exc
        if vec.shape != (N,):
            raise MapFormatError(f"term {i}: expected {N} coefficient entries, got {vec.shape[0]}")
        if not np.all(np.isfinite(vec)):
            raise MapFormatError(f"term {i}: coefficient entries must be finite")
        rows.append(vec)
    return np.array(rows, dtype=complex).reshape(-1, N)


def map_from_dict(data: dict) -> SeriesMap:
    try:
        n = int(data["n"])
        N = int(data["N"])
        raw_terms = data["terms"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MapFormatError(f"map file must contain integer 'n', 'N' and a 'terms' list ({exc})") from exc
    if n < 1 or N < 1:
        raise MapFormatError(f"dimensions must be >= 1, got n = {n} and N = {N}")
    # Terms are checked one by one and their vectors converted at once, the earlier error first.
    seen, keys, vectors, anti, owners = set(), [], [], [], []
    for i, term in enumerate(raw_terms):
        try:
            if not isinstance(term, dict) or "k" not in term:
                raise MapFormatError("expected an object with a 'k' index")
            k = check_index(term["k"], n)
            if k in seen:
                raise MapFormatError(f"duplicate index {k}")
        except ValueError as exc:
            _coefficient_rows(vectors, owners, N)
            raise MapFormatError(f"term {i}: {exc}") from exc
        seen.add(k)
        for part in ("a", "b"):
            if part in term:
                keys.append(k)
                vectors.append(term[part])
                anti.append(part == "b")
                owners.append(i)
    values = _coefficient_rows(vectors, owners, N)
    return SeriesMap.from_tensors(_dense_tensors(n, N, keys, values, anti), data.get("certified_sup"))


def _write_file(path, text: str) -> None:
    """The package's one way to write a file: over its old bytes, since ext4 makes a close after
    O_TRUNC wait for the blocks (auto_da_alloc); a regular file is then cut to the text.  No fsync."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(text.encode())
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def save_map(mapping: SeriesMap, path) -> None:
    _write_file(path, json.dumps(map_to_dict(mapping), indent=2, sort_keys=True) + "\n")


def load_map(path) -> SeriesMap:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise MapFormatError(f"map file is not valid JSON: {exc}") from exc
    return map_from_dict(data)
