"""Sharpness probing: maximize LHS/RHS ratios over map families, with
derivative-free (multistart + golden-section) refinement.

Search results are exploratory: the planar extremal family is known to be
sharp for the first-order bound, but nothing is claimed beyond that and no
result here asserts global optimality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from itertools import product

import numpy as np

from .multiindex import as_order
from .mapping import (ColonnaMap, PluriharmonicMap, SeriesMap, from_pairs, random_bounded_map,
                      sup_bound_l1, to_pairs)
from .quadrature import QuadratureSpec
# direction_max stays bound here as well: perfbench/tracer.py wraps it as search.direction_max.
from .bounds import direction_max, golden_max, verify_derivative_bound  # noqa: F401

Z_SEARCH_CAP = 0.9       # quadrature degrades near the boundary
A_SEARCH_CAP = 0.85
TENSOR_FACTOR_DEGREE = 16

FAMILIES = ("colonna_tensor", "random_series")


def sharpness_ratio(mapping: PluriharmonicMap, z, alpha,
                    spec: QuadratureSpec | None = None) -> float:
    """(|d^alpha f| + |dbar^alpha f|) / rhs_polydisk(alpha, ||z||_inf) for a
    certified scalar map; exact differentiation for series maps, Cauchy
    quadrature otherwise."""
    report = verify_derivative_bound(mapping, z, alpha, spec=spec)
    return report.lhs / report.rhs


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
    series parts, l1-renormalized into the unit ball.  Not claimed extremal."""
    factors = [ColonnaMap(1.0, aj, 1.0).to_series(TENSOR_FACTOR_DEGREE) for aj in a_params]
    n = len(factors)
    holo = {}
    anti = {}
    for ks in product(range(TENSOR_FACTOR_DEGREE + 1), repeat=n):
        av = 1.0 + 0.0j
        for fac, kj in zip(factors, ks):
            av *= fac.holo[(kj,)][0]
        if abs(av) > 1e-14:
            holo[ks] = [av]
    for ks in product(range(1, TENSOR_FACTOR_DEGREE + 1), repeat=n):
        bv = 1.0 + 0.0j
        for fac, kj in zip(factors, ks):
            bv *= fac.anti[(kj,)][0]
        if abs(bv) > 1e-14:
            anti[ks] = [bv]
    out = SeriesMap(n, 1, holo, anti)
    l1 = sup_bound_l1(out)
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


class _BudgetExhausted(Exception):
    pass


def sharpness_search(n: int, alpha, family: str = "colonna_tensor",
                     budget: int = 2000, seed: int = 0) -> SharpnessResult:
    """Seeded random multistart over family parameters and base points,
    refined coordinatewise by golden-section on radial parameters and phase
    refinement on angular ones.

    The candidate stream is independent of the budget (the budget is a prefix
    length), so enlarging the budget never decreases the best ratio for a
    fixed seed.  No global optimality is claimed.
    """
    alpha = as_order(alpha)
    if len(alpha) != n:
        raise ValueError(f"alpha length {len(alpha)} != n = {n}")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")

    rng = np.random.default_rng(seed)
    state = {"evals": 0, "best_ratio": -math.inf, "best_params": None, "best_z": None}

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
        mapping = _build_family_map(family, n, params)
        ratio = sharpness_ratio(mapping, z, alpha)
        state["evals"] += 1
        if ratio > state["best_ratio"]:
            state["best_ratio"] = ratio
            state["best_params"] = params
            state["best_z"] = z
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
        return x

    try:
        # Canonical start: all radial parameters zero (the known planar
        # equality case for colonna_tensor at alpha = (1,)).
        x0 = [0.0] * len(bounds)
        first_round = True
        while state["evals"] < budget:
            if first_round:
                x = x0
                first_round = False
            else:
                x = [rng.uniform(lo, hi) for lo, hi in bounds]
            extra = int(rng.integers(2**31)) if family == "random_series" else None
            objective(x, extra)
            refine(list(x), extra)
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
