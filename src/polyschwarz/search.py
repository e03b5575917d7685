"""Sharpness probing: maximize LHS/RHS ratios over map families, with
derivative-free (multistart + golden-section) refinement.

Search results are exploratory: the planar extremal family is known to be
sharp for the first-order bound, but nothing is claimed beyond that and no
result here asserts global optimality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .multiindex import as_order
from .mapping import (ColonnaMap, PluriharmonicMap, SeriesMap, check_exact_order, check_index,
                      check_points, check_tensor_size, from_pairs, random_bounded_map, to_pairs)
# direction_max stays bound here as well: perfbench/tracer.py wraps it as search.direction_max.
from .bounds import _exact_ratio, direction_max, require_certified  # noqa: F401

# Largest |z_j| and |a_j| searched.  Derivatives are exact for every family,
# so the caps bound the search box, not a quadrature error.
Z_SEARCH_CAP = 0.9
A_SEARCH_CAP = 0.85
TENSOR_FACTOR_DEGREE = 16
INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

FAMILIES = ("colonna_tensor", "random_series")


def sharpness_ratio(mapping: PluriharmonicMap, z, alpha) -> float:
    """(|d^alpha f| + |dbar^alpha f|) / rhs_polydisk(alpha, ||z||_inf) for a certified
    scalar map at one point z: lhs / rhs of verify_derivative_bound, after its checks."""
    require_certified(mapping, N=1)
    alpha = check_exact_order(mapping, check_index(as_order(alpha), mapping.n))
    return _exact_ratio(mapping, check_points([z], mapping.n), alpha)


@dataclass
class SharpnessResult:
    """Best ratio found over a family; params are sufficient to rebuild the
    achieving map and re-evaluate the ratio."""

    family: str
    family_params: dict
    z: list
    alpha: tuple
    ratio: float
    evaluations: int

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["alpha"] = list(self.alpha)
        return d


def _tensor_colonna_map(a_params) -> SeriesMap:
    """Heuristic n > 1 candidate: tensor products of per-coordinate extremal
    series parts, l1-renormalized into the unit ball.  Not claimed extremal.
    Refused before anything is built when a tensor would exceed MAX_SAMPLE_BYTES."""
    check_tensor_size((1,) + (TENSOR_FACTOR_DEGREE + 1,) * len(a_params))
    c = np.ones(2, dtype=complex)  # a over b, each of N = 1
    for aj in a_params:
        factor = ColonnaMap(1.0, aj, 1.0).to_series(TENSOR_FACTOR_DEGREE)
        # Each half times the factor's half along a new last axis.
        c = c[..., None] * factor.c.reshape((2,) + (1,) * (c.ndim - 1) + (-1,))
    out = SeriesMap.from_tensors(c)
    l1 = out.l1_norm
    if l1 > 1.0:
        out = out.scaled((1.0 - 1e-12) / l1)
    return out


def _build_family_map(family: str, n: int, params: dict) -> PluriharmonicMap:
    if family == "colonna_tensor":
        a = from_pairs(params["a"])
        if n == 1:
            return ColonnaMap(1.0, a[0], 1.0)
        return _tensor_colonna_map(a)
    if family == "random_series":
        return random_bounded_map(n, 1, params["degree"], params["seed"], margin=1e-9)
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def reevaluate(result: SharpnessResult) -> float:
    """Rebuild the map from the stored parameters and recompute the ratio."""
    mapping = _build_family_map(result.family, len(result.alpha), result.family_params)
    return sharpness_ratio(mapping, from_pairs(result.z), result.alpha)


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


class _BudgetExhausted(Exception):
    pass


def sharpness_search(n: int, alpha, family: str = "colonna_tensor",
                     budget: int = 2000, seed: int = 0) -> SharpnessResult:
    """Seeded random multistart over family parameters and base points,
    refined coordinatewise by golden-section on radial parameters and phase
    refinement on angular ones.

    The candidate stream is independent of the budget (the budget is a prefix
    length), so enlarging the budget never decreases the best ratio for a
    fixed seed.  A candidate that repeats an earlier one bit for bit (same
    family parameters and z) reads the earlier ratio instead of recomputing
    it, and still counts as an evaluation against the budget, so results do
    not depend on the repeat being skipped.  No global optimality is claimed.
    Each ratio is sharpness_ratio's, without its BoundReport: alpha is checked once
    per search, a map's certificate and order cap once per build, z once per candidate.
    """
    alpha = check_index(as_order(alpha), n)
    if budget < 1:
        raise ValueError("budget must be >= 1")

    rng = np.random.default_rng(seed)
    state = {"evals": 0, "best_ratio": -math.inf, "best_params": None, "best_z": None}
    # The map of the latest computed ratio: a refine step that moves only z
    # reuses it.  One entry, so no map is kept per candidate.
    last = {"params": None, "map": None}
    # The ratio of each distinct candidate, keyed on the exact bits of its
    # parameters and z (the angular probes at radius 0 decode to one z):
    # at most `budget` floats, for this search only.
    ratios = {}

    # Parameter vector layout: radial/angular pairs, all box-constrained.
    if family == "colonna_tensor":
        bounds = [(0.0, A_SEARCH_CAP), (0.0, 2.0 * np.pi)] * n \
               + [(0.0, Z_SEARCH_CAP), (0.0, 2.0 * np.pi)] * n

        def decode(x, extra):
            a = [[x[2 * j] * math.cos(x[2 * j + 1]), x[2 * j] * math.sin(x[2 * j + 1])]
                 for j in range(n)]
            z = np.array([x[2 * n + 2 * j] * np.exp(1j * x[2 * n + 2 * j + 1])
                          for j in range(n)])
            return {"a": a}, z
    else:
        bounds = [(0.0, Z_SEARCH_CAP), (0.0, 2.0 * np.pi)] * n

        def decode(x, extra):
            z = np.array([x[2 * j] * np.exp(1j * x[2 * j + 1]) for j in range(n)])
            return {"degree": 3, "seed": extra}, z

    def objective(x, extra):
        if state["evals"] >= budget:
            raise _BudgetExhausted
        params, z = decode(x, extra)
        key = (repr(params), z.tobytes())
        ratio = ratios.get(key)
        if ratio is None:
            if params != last["params"]:
                last["params"], last["map"] = params, _build_family_map(family, n, params)
                require_certified(last["map"], N=1)
                check_exact_order(last["map"], alpha)
            ratio = ratios[key] = _exact_ratio(last["map"], check_points([z], n), alpha)
        state["evals"] += 1
        if ratio > state["best_ratio"]:
            state.update(best_ratio=ratio, best_params=params, best_z=z)
        return ratio

    def refine(x, extra, sweeps=2):
        for _ in range(sweeps):
            for i, (lo, hi) in enumerate(bounds):
                cur = objective(x, extra)

                def slice_obj(t, i=i):
                    trial = list(x)
                    trial[i] = min(max(t, lo), hi)
                    return objective(trial, extra)

                width = 0.25 * (hi - lo)
                xi, fxi = golden_max(slice_obj, max(lo, x[i] - width),
                                     min(hi, x[i] + width), iters=10)
                if fxi >= cur:
                    x[i] = xi

    try:
        # Canonical start: all radial parameters zero (the known planar
        # equality case for colonna_tensor at alpha = (1,)).
        x = [0.0] * len(bounds)
        while state["evals"] < budget:
            extra = int(rng.integers(2**31)) if family == "random_series" else None
            objective(x, extra)
            refine(list(x), extra)
            x = [rng.uniform(lo, hi) for lo, hi in bounds]
    except _BudgetExhausted:
        pass

    return SharpnessResult(
        family=family,
        family_params=state["best_params"],
        z=to_pairs(state["best_z"]),
        alpha=alpha,
        ratio=float(state["best_ratio"]),
        evaluations=state["evals"],
    )
