"""The benchmark's workloads.

Each workload builds its inputs from the seed, runs one round of
operations through polyschwarz's public interface (every round repeats the
same operations on fresh map objects, so no round profits from the sample
cache of an earlier one), and checks a round's outputs against the oracles.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import oracles
import polyschwarz as ps
from polyschwarz import cli

# The direction maximum is documented as a sampled lower estimate, so it may
# not exceed the oracle's upper end.  Below the value the oracle attains it
# may fall by this share, a guard against a broken search rather than an
# accuracy claim: for n = 3 it falls up to 2.7% short today.
DIRECTION_SLACK = 0.1
# Ratios above 1 + RATIO_TOL would break the bound on a certified map.
RATIO_TOL = 1e-7
# Agreement of a recomputed value with the value it reproduces, relative.
REPRODUCE_TOL = 1e-12


def _close(value: float, reference: float, tol: float) -> bool:
    return abs(value - reference) <= tol


def _rel_close(value: float, reference: float, rel: float = REPRODUCE_TOL) -> bool:
    return abs(value - reference) <= rel * max(1.0, abs(reference))


def _terms(mapping) -> list:
    zero = np.zeros(mapping.N, dtype=complex)
    keys = set(mapping.holo) | set(mapping.anti)
    return [(k, mapping.holo.get(k, zero), mapping.anti.get(k, zero)) for k in keys]


def _l1(terms) -> float:
    return float(sum(np.linalg.norm(a) + np.linalg.norm(b) for _, a, b in terms))


def direction_in_bracket(value: float, lo: float, hi: float) -> bool:
    return lo * (1.0 - DIRECTION_SLACK) <= value <= hi + 1e-12


def _point(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


class CauchySweep:
    """verify_derivative_bound(method="cauchy") with several alpha per point.

    Random certified series maps with n = 1 and n = 2, plain and composed
    with a polydisk automorphism; seeded points with ||z||_inf <= 0.85.
    A fixed band of points with ||z||_inf in [0.90, 0.97), on a fixed map,
    ends every round: the default contour radius gives a wrong left-hand
    side there (or raises), and those operations count as failed.
    """

    name = "cauchy_sweep"
    # (n, degree, number of maps, points per map, alphas)
    MAP_SETS = ((1, 6, 4, 12, ((1,), (2,), (3,))),
                (2, 4, 2, 2, ((1, 1), (2, 1), (1, 2), (2, 2))))
    Z_CAP = 0.85
    CENTER_CAP = 0.5
    BAND_MAP = (2, 4, 3)  # n, degree, seed of random_bounded_map
    BAND_ALPHA = (3, 1)
    BAND_T = (0.90, 0.92, 0.94, 0.96)

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        # map spec: (n, degree, map seed, automorphism or None)
        self.specs = []
        self.ops = []  # (spec index, z, alpha, in band)
        for n, degree, count, points, alphas in self.MAP_SETS:
            for i in range(count):
                phi = None
                if i % 2:
                    center = (self.CENTER_CAP * np.sqrt(rng.uniform(size=n))
                              * np.exp(2j * np.pi * rng.uniform(size=n)))
                    phi = (center, np.exp(2j * np.pi * rng.uniform(size=n)))
                self.specs.append((n, degree, int(rng.integers(2**31)), phi))
                for _ in range(points):
                    z = (self.Z_CAP * np.sqrt(rng.uniform(size=n))
                         * np.exp(2j * np.pi * rng.uniform(size=n)))
                    for alpha in alphas:
                        self.ops.append((len(self.specs) - 1, z, alpha, False))
        self.specs.append(self.BAND_MAP + (None,))
        for t in self.BAND_T:
            self.ops.append((len(self.specs) - 1, np.array([t, 0.3j * t]), self.BAND_ALPHA, True))
        self.terms = [_terms(ps.random_bounded_map(n, 1, d, s)) for n, d, s, _ in self.specs]

    @staticmethod
    def _build(spec):
        n, degree, seed, phi = spec
        mapping = ps.random_bounded_map(n, 1, degree, seed)
        if phi is not None:
            mapping = ps.ComposedMap(ps.PolydiskAutomorphism(*phi), mapping)
        return mapping

    def _run(self, ops) -> list:
        maps = {}
        out = []
        for i, z, alpha, _ in ops:
            if i not in maps:
                maps[i] = self._build(self.specs[i])
            try:
                r = ps.verify_derivative_bound(maps[i], z, alpha, method="cauchy")
                out.append((r.lhs, r.rhs, r.tol, r.passed))
            except ValueError as exc:
                out.append(("ValueError", str(exc)))
        return out

    def warm_up(self) -> None:
        firsts = {}
        for op in self.ops:
            firsts.setdefault(self.specs[op[0]][0], op)
        self._run(list(firsts.values()))

    def round(self) -> list:
        return self._run(self.ops)

    @staticmethod
    def checks(outputs) -> int:
        return sum(1 for o in outputs if o[0] != "ValueError")

    def check(self, outputs) -> tuple[int, list]:
        failed, problems = 0, []
        for (i, z, alpha, in_band), out in zip(self.ops, outputs):
            n, _, _, phi = self.specs[i]
            terms = self.terms[i]
            where = f"spec {i} z={np.round(z, 6).tolist()} alpha={alpha}"
            if _l1(terms) > 1.0:
                problems.append(f"{where}: map is not certified (l1 norm {_l1(terms)})")
                continue
            if phi is None:
                A, B = oracles.series_derivatives(terms, n, 1, z, alpha)
            else:
                A, B = oracles.composed_derivatives(terms, n, 1, phi[0], phi[1], z, alpha)
            ref = abs(A[0]) + abs(B[0])
            if out[0] == "ValueError":
                if in_band:
                    failed += 1
                else:
                    problems.append(f"{where}: raised {out[1]}")
                continue
            lhs, rhs, tol, passed = out
            if not _close(lhs, ref, tol):
                if in_band:
                    failed += 1
                else:
                    problems.append(f"{where}: lhs {lhs!r} differs from oracle {ref!r} by more than {tol}")
                continue
            t = float(np.max(np.abs(z)))
            if not _rel_close(rhs, oracles.rhs_polydisk(alpha, t)):
                problems.append(f"{where}: rhs {rhs!r} != {oracles.rhs_polydisk(alpha, t)!r}")
            if not (passed and ref <= rhs + tol):
                problems.append(f"{where}: bound reported broken on a certified map")
        return failed, problems


class CliSweep:
    """polyschwarz.cli.main in-process on map files written at set-up:
    verify --method exact, gradient, growth and coeffs, n in {1, 2, 3} and
    N in {1, 2} where the subcommand allows it."""

    name = "cli_sweep"
    # n -> (degree, verify alphas, grid points per axis)
    SHAPES = {1: (6, ("1", "3"), 9), 2: (4, ("1,1", "2,1"), 5), 3: (3, ("1,1,1", "2,1,1"), 3)}
    COEFF_DEGREE = 4
    COEFF_NODES = 16
    COEFF_GRID = 2

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        self.terms = {}
        self.ops = []  # (argv, kind, map path, n, N, grid)

        def report(kind):
            return str(workdir / f"report-{len(self.ops)}-{kind}.jsonl")

        for n, (degree, alphas, grid) in self.SHAPES.items():
            for N in (1, 2):
                path = str(workdir / f"map-n{n}-N{N}.json")
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(["random", "--n", str(n), "--N", str(N), "--degree",
                                     str(degree), "--seed", str(int(rng.integers(2**31))),
                                     "--out", path])
                if code != 0:
                    raise RuntimeError(f"polyschwarz random exited {code} for {path}")
                # f(0) = 0 variant for the growth bound: drop the constant term.
                full = ps.load_map(path)
                origin = (0,) * n
                centred = ps.SeriesMap(n, N, {k: v for k, v in full.holo.items() if k != origin},
                                       {k: v for k, v in full.anti.items() if k != origin})
                zero_path = str(workdir / f"map-n{n}-N{N}-zero.json")
                ps.save_map(centred, zero_path)
                for p in (path, zero_path):
                    self.terms[p] = oracles.terms_from_file(json.loads(Path(p).read_text()))
                if N == 1:
                    for alpha in alphas:
                        self.ops.append((["verify", "--map", path, "--alpha", alpha, "--method",
                                          "exact", "--grid", str(grid), "--out", report("verify")],
                                         "verify", path, n, N, grid))
                    self.ops.append((["coeffs", "--map", path, "--max-degree", str(self.COEFF_DEGREE),
                                      "--nodes", str(self.COEFF_NODES), "--grid", str(self.COEFF_GRID),
                                      "--out", report("coeffs")], "coeffs", path, n, N, self.COEFF_GRID))
                self.ops.append((["gradient", "--map", path, "--grid", str(grid),
                                  "--out", report("gradient")], "gradient", path, n, N, grid))
                self.ops.append((["growth", "--map", zero_path, "--grid", str(grid),
                                  "--out", report("growth")], "growth", zero_path, n, N, grid))

    @staticmethod
    def _run(ops) -> list:
        out = []
        for argv, *_ in ops:
            code = cli.main(argv)
            out.append((code, Path(argv[-1]).read_text()))
        return out

    def warm_up(self) -> None:
        firsts = {}
        for op in self.ops:
            firsts.setdefault(op[1], op)
        self._run(list(firsts.values()))

    def round(self) -> list:
        return self._run(self.ops)

    @staticmethod
    def checks(outputs) -> int:
        return sum(text.count("\n") for _, text in outputs)

    def check(self, outputs) -> tuple[int, list]:
        problems = []
        for (argv, kind, path, n, N, grid), (code, text) in zip(self.ops, outputs):
            where = " ".join(argv[:-2])
            if code != 0:
                problems.append(f"{where}: exit code {code}")
            reports = [json.loads(line) for line in text.splitlines()]
            expected = grid ** n
            if kind == "coeffs":
                indices = sum(math.comb(d + n - 1, n - 1) for d in range(1, self.COEFF_DEGREE + 1))
                expected = indices + grid ** n * self.COEFF_DEGREE + 1
            if len(reports) != expected:
                problems.append(f"{where}: {len(reports)} reports, expected {expected}")
            if _l1(self.terms[path]) > 1.0:
                problems.append(f"{where}: map is not certified (l1 norm {_l1(self.terms[path])})")
            check = getattr(self, f"_check_{kind}")
            for r in reports:
                problem = check(r, self.terms[path], n, N)
                if problem is None and not r["pass"]:
                    problem = "bound reported broken on a certified map"
                if problem:
                    problems.append(f"{where}: {r['check_id']} {r['params']}: {problem}")
        return 0, problems

    @staticmethod
    def _check_lhs(r, ref, rhs_ref):
        if not _close(r["lhs"], ref, r["tol"]):
            return f"lhs {r['lhs']!r} differs from oracle {ref!r} by more than {r['tol']}"
        if not _rel_close(r["rhs"], rhs_ref):
            return f"rhs {r['rhs']!r} != {rhs_ref!r}"
        if ref > r["rhs"] + r["tol"]:
            return f"oracle lhs {ref!r} exceeds rhs {r['rhs']!r}"
        return None

    def _check_verify(self, r, terms, n, N):
        z, alpha = _point(r["params"]["z"]), tuple(r["params"]["alpha"])
        if r["params"].get("method") != "exact" or np.max(np.abs(z.imag)) > 0:
            return "not an exact check at a real grid point"
        A, B = oracles.series_derivatives(terms, n, N, z, alpha)
        t = float(np.max(np.abs(z)))
        return self._check_lhs(r, abs(A[0]) + abs(B[0]), oracles.rhs_polydisk(alpha, t))

    def _check_gradient(self, r, terms, n, N):
        z = _point(r["params"]["z"])
        d = np.zeros((N, n), dtype=complex)
        dbar = np.zeros_like(d)
        for j in range(n):
            unit = tuple(int(i == j) for i in range(n))
            d[:, j], dbar[:, j] = oracles.series_derivatives(terms, n, N, z, unit)
        lo, hi = oracles.direction_max_bracket(d, dbar)
        if not direction_in_bracket(r["lhs"], lo, hi):
            return f"lhs {r['lhs']!r} outside the oracle bracket [{lo!r}, {hi!r}]"
        if not _rel_close(r["rhs"], oracles.rhs_gradient(float(np.max(np.abs(z))))):
            return f"rhs {r['rhs']!r} != {oracles.rhs_gradient(float(np.max(np.abs(z))))!r}"
        if hi > r["rhs"] + r["tol"]:
            return f"oracle bracket top {hi!r} exceeds rhs {r['rhs']!r}"
        return None

    def _check_growth(self, r, terms, n, N):
        z = _point(r["params"]["z"])
        ref = float(np.linalg.norm(oracles.series_value(terms, n, N, z)))
        return self._check_lhs(r, ref, oracles.rhs_growth(float(np.max(np.abs(z)))))

    def _check_coeffs(self, r, terms, n, N):
        if r["check_id"] == "coefficient_claim":
            k = tuple(r["params"]["k"])
            ref = sum(abs(a[0]) + abs(b[0]) for kk, a, b in terms if kk == k)
            return self._check_lhs(r, ref, oracles.FOUR_OVER_PI)
        if r["check_id"] == "homogeneous_part":
            z = _point(r["params"]["z"])
            part = oracles.homogeneous_part(terms, n, N, r["params"]["m"], z)
            return self._check_lhs(r, float(np.linalg.norm(part)), oracles.FOUR_OVER_PI)
        if r["check_id"] == "coefficient_l2":
            return self._check_lhs(r, oracles.l2_sum(terms, n, N), 1.0)
        return f"unexpected check {r['check_id']}"


class SharpnessSearch:
    """Seeded sharpness_search runs with fixed budgets: n = 1 and n = 2 with
    colonna_tensor, n = 2 and n = 3 with random_series."""

    name = "sharpness_search"
    # (n, alpha, family, budget), each searched from SEARCHES_PER_CASE seeds
    CASES = ((1, (1,), "colonna_tensor", 300),
             (2, (1, 1), "colonna_tensor", 30),
             (2, (2, 1), "random_series", 200),
             (3, (1, 1, 1), "random_series", 100))
    SEARCHES_PER_CASE = 3
    WARM_UP_BUDGET = 3
    RANDOM_MARGIN = 1e-9

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        self.ops = [(case, int(rng.integers(2**31)))
                    for case in self.CASES for _ in range(self.SEARCHES_PER_CASE)]

    def _run(self, budget=None) -> list:
        return [ps.sharpness_search(n, alpha, family, budget or full, s).to_json_dict()
                for (n, alpha, family, full), s in self.ops]

    def warm_up(self) -> None:
        self._run(self.WARM_UP_BUDGET)

    def round(self) -> list:
        return self._run()

    @staticmethod
    def checks(outputs) -> int:
        return sum(r["evaluations"] for r in outputs)

    def check(self, outputs) -> tuple[int, list]:
        problems = []
        for ((n, alpha, family, budget), _), r in zip(self.ops, outputs):
            where = f"n={n} alpha={alpha} {family}"
            z = _point(r["z"])
            ratio = r["ratio"]
            if r["evaluations"] != budget or tuple(r["alpha"]) != alpha or len(z) != n:
                problems.append(f"{where}: evaluations/alpha/witness do not match the request")
                continue
            if np.max(np.abs(z)) >= 1.0 or not 0.0 <= ratio <= 1.0 + RATIO_TOL:
                problems.append(f"{where}: ratio {ratio!r} at {r['z']} breaks the bound")
            result = ps.SharpnessResult(**{**r, "alpha": tuple(r["alpha"])})
            again = ps.reevaluate(result)
            if not _rel_close(again, ratio):
                problems.append(f"{where}: reevaluate gives {again!r}, search reported {ratio!r}")
            if family == "colonna_tensor" and n == 1:
                a = complex(*r["family_params"]["a"][0])
                ref = oracles.colonna_ratio(a, z[0])
                if ratio < 0.999 or not _close(ratio, ref, RATIO_TOL):
                    problems.append(f"{where}: ratio {ratio!r}, closed form {ref!r} (needs >= 0.999)")
            if family == "random_series":
                params = r["family_params"]
                mapping = ps.random_bounded_map(n, 1, params["degree"], params["seed"],
                                                margin=self.RANDOM_MARGIN)
                terms = _terms(mapping)
                A, B = oracles.series_derivatives(terms, n, 1, z, alpha)
                t = float(np.max(np.abs(z)))
                ref = (abs(A[0]) + abs(B[0])) / oracles.rhs_polydisk(alpha, t)
                if _l1(terms) > 1.0 or not _rel_close(ratio, ref, 1e-9):
                    problems.append(f"{where}: ratio {ratio!r}, oracle {ref!r}")
        return 0, problems


WORKLOADS = {w.name: w for w in (CauchySweep, CliSweep, SharpnessSearch)}
