"""Command-line surface: batch verification, coefficient extraction, map
generation, and sharpness search with file-based inputs and outputs.

Exit codes: 0 = all checks passed, 1 = at least one check failed,
2 = usage or hypothesis error (never conflated with a failed check).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time

import numpy as np

from . import bounds, quadrature, search
from .bounds import HypothesisError
from .mapping import (ColonnaMap, MapFormatError, _write_file, check_tensor_size, load_map,
                      random_bounded_map, save_map)
from .multiindex import as_order, grid_rows


def _parse_complex(text: str) -> complex:
    s = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}") from exc


def _parse_alpha(text: str) -> tuple:
    try:
        return as_order(tuple(int(p) for p in text.split(",")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"alpha must be comma-separated integers >= 1 ({exc})") from exc


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"must be a number, got {text!r}") from exc
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def _radius_cap(text: str) -> float:
    try:
        return bounds._check_radius(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _z_grid(n: int, points: int, cap: float):
    """Real Cartesian grid: `points` values per coordinate in [0, cap], one
    point per row, under the size rule for its points**n x n complex values."""
    check_tensor_size((points**n, n), lambda: (f"a z grid of {points}^{n} points",
                                               "; use a smaller --grid"))
    return grid_rows([np.linspace(0.0, cap, points)] * n).astype(complex)


def _write_reports(reports, out_path, csv_path=None) -> None:
    text = "".join(r.to_json() + "\n" for r in reports)
    if out_path:
        _write_file(out_path, text)
    else:
        sys.stdout.write(text)
    if csv_path:
        table = io.StringIO()
        writer = csv.writer(table)
        writer.writerow(["z", "check_id", "lhs", "rhs", "margin", "pass"])
        for r in reports:
            zrepr = ";".join(f"{re}:{im}" for re, im in r.params.get("z", []))
            writer.writerow([zrepr, r.check_id, repr(r.lhs), repr(r.rhs), repr(r.margin), r.passed])
        _write_file(csv_path, table.getvalue())


# ---------------------------------------------------------------------------
# Subcommand handlers.
# ---------------------------------------------------------------------------

def _where(params: dict) -> str:
    """Where a report's check was made: at its point z, else at its index k,
    else nowhere (the l2 report)."""
    if "z" in params:
        return " at z = (" + ", ".join(f"{complex(re, im):.6g}" for re, im in params["z"]) + ")"
    if "k" in params:
        return " at k = (" + ", ".join(map(str, params["k"])) + ")"
    return ""


def _summary(reports, seconds: float) -> str:
    failed = sum(not r.passed for r in reports)
    undecided = sum("upper" in r.params and r.params["upper"] is None for r in reports)
    line = f"summary: {len(reports)} checks, {failed} failed, {undecided} undecided"
    if reports:
        worst = min(reports, key=lambda r: r.margin)
        line += f", worst margin {worst.margin:.6g}{_where(worst.params)}"
    return line + f", {seconds:.3f} s"


def _sweep(args, check) -> int:
    """Run check(mapping, points) on the z grid, write the reports and end
    with a one-line summary on stderr."""
    start = time.perf_counter()
    mapping = load_map(args.map)
    reports = check(mapping, _z_grid(mapping.n, args.grid, args.radius_cap))
    _write_reports(reports, args.out, args.csv)
    print(_summary(reports, time.perf_counter() - start), file=sys.stderr)
    return 0 if all(r.passed for r in reports) else 1


def cmd_verify(args) -> int:
    given = [f for f, v in (("--nodes", args.nodes), ("--radius", args.radius)) if v is not None]
    if args.method == "exact" and given:
        raise ValueError(f"--method exact takes no {' or '.join(given)} (Cauchy quadrature only)")
    spec = quadrature.QuadratureSpec(args.nodes, args.radius)
    return _sweep(args, lambda mapping, points: bounds.verify_derivative_bound(
        mapping, points, args.alpha, method=args.method, tol=args.tol, spec=spec))


def cmd_gradient(args) -> int:
    return _sweep(args, lambda mapping, points: bounds.verify_gradient_bound(
        mapping, points, tol=args.tol))


def cmd_growth(args) -> int:
    return _sweep(args, lambda mapping, points: bounds.verify_growth_bound(
        mapping, points, tol=args.tol))


def cmd_coeffs(args) -> int:
    spec = quadrature.QuadratureSpec(args.nodes, args.radius)

    def check(mapping, points):
        reports = bounds.verify_coefficient_bound(mapping, args.max_degree, spec=spec, tol=args.tol)
        # One homogeneous call per degree on the whole grid; the reports go
        # point by point, each point's degrees in turn.
        per_degree = [bounds.verify_homogeneous_bound(mapping, m, points, tol=args.tol)
                      for m in range(1, args.max_degree + 1)]
        reports += [r for at_point in zip(*per_degree) for r in at_point]
        return reports + [bounds.verify_l2_bound(mapping, tol=args.tol)]

    return _sweep(args, check)


def cmd_lemma(args) -> int:
    nodes = quadrature.abs_cos_nodes(args.m, args.nodes)
    value = quadrature.abs_cos_integral(args.m, args.gamma, nodes=nodes)
    tol = args.tol if args.tol is not None else 1e-5
    print(f"abs-cos integral: m={args.m} gamma={args.gamma} nodes={nodes} "
          f"value={value:.10f} target=4")
    return 0 if abs(value - 4.0) <= tol else 1


def cmd_extremal(args) -> int:
    mapping = ColonnaMap(args.gamma, args.a, args.lam)
    series = mapping.to_series(args.degree)
    save_map(series, args.out)
    print(f"wrote extremal map (degree {args.degree}) to {args.out}")
    return 0


def cmd_random(args) -> int:
    mapping = random_bounded_map(args.n, args.N, args.degree, args.seed, margin=args.margin)
    save_map(mapping, args.out)
    print(f"wrote random certified map to {args.out}")
    return 0


def cmd_sharpness(args) -> int:
    result = search.sharpness_search(args.n, args.alpha, family=args.family,
                                     budget=args.budget, seed=args.seed)
    print(f"sharpness: family={result.family} alpha={list(result.alpha)} "
          f"ratio={result.ratio:.9f} evaluations={result.evaluations}")
    if args.out:
        _write_file(args.out, json.dumps(result.to_json_dict(), indent=2, sort_keys=True) + "\n")
        print(f"result JSON: {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="polyschwarz",
        description="Numerical verification of Schwarz-Pick type bounds for "
                    "pluriharmonic maps on the unit polydisk")
    sub = parser.add_subparsers(dest="command", required=True)

    # One parent per flag, so each subcommand accepts only the flags it uses.
    def flag(*names, **kwargs):
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*names, **kwargs)
        return parent

    tol = flag("--tol", type=_finite_float, default=None, help="tolerance override (finite)")
    nodes = flag("--nodes", type=int, default=None, help="quadrature nodes per dimension")
    radius = flag("--radius", type=float, default=None, help="quadrature radius override")
    out = flag("--out", default=None, help="output file path")
    out_required = flag("--out", required=True, help="output file path")

    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--grid", type=_positive_int, default=5,
                      help="points per axis for the z grid (at least 1)")
    grid.add_argument("--radius-cap", type=_radius_cap, default=0.9,
                      help="largest |z_j| sampled on the grid, in [0, 1)")
    grid.add_argument("--csv", default=None, help="also export the reports as CSV")

    p = sub.add_parser("verify", parents=[tol, nodes, radius, out, grid],
                       help="derivative bound on a z grid")
    p.add_argument("--map", required=True)
    p.add_argument("--alpha", required=True, type=_parse_alpha)
    p.add_argument("--method", choices=["exact", "cauchy"], default="exact")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gradient", parents=[tol, out, grid],
                       help="directional gradient bound on a z grid")
    p.add_argument("--map", required=True)
    p.set_defaults(func=cmd_gradient)

    p = sub.add_parser("growth", parents=[tol, out, grid],
                       help="arctan growth bound (requires f(0) = 0)")
    p.add_argument("--map", required=True)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("coeffs", parents=[tol, nodes, radius, out, grid],
                       help="coefficient, homogeneous-part, and l2 bounds")
    p.add_argument("--map", required=True)
    p.add_argument("--max-degree", type=int, default=6)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("lemma", parents=[tol, nodes], help="|cos| integral oracle (target 4)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--gamma", type=float, default=0.0)
    p.set_defaults(func=cmd_lemma)

    p = sub.add_parser("extremal", parents=[out_required],
                       help="emit a planar extremal map file")
    p.add_argument("--gamma", type=_parse_complex, default=complex(1.0))
    p.add_argument("--a", type=_parse_complex, default=complex(0.0))
    p.add_argument("--lambda", dest="lam", type=_parse_complex, default=complex(1.0))
    p.add_argument("--degree", type=int, default=32)
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("random", parents=[out_required], help="emit a random certified map file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--margin", type=float, default=0.05)
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("sharpness", parents=[out], help="search for near-equality instances")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", required=True, type=_parse_alpha)
    p.add_argument("--family", choices=list(search.FAMILIES), default="colonna_tensor")
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sharpness)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 2
    try:
        return args.func(args)
    except (HypothesisError, MapFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run_main()
