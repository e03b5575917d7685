"""Command-line surface: batch verification, coefficient extraction, map
generation, and sharpness search with file-based inputs and outputs.

Exit codes: 0 = all checks passed, 1 = at least one check failed,
2 = usage or hypothesis error (never conflated with a failed check).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import bounds, quadrature, search
from .bounds import HypothesisError
from .mapping import ColonnaMap, MapFormatError, load_map, random_bounded_map, save_map
from .multiindex import as_order


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


def _z_grid(n: int, points: int, cap: float):
    """Real Cartesian grid: `points` values per coordinate in [0, cap]."""
    axis = np.linspace(0.0, cap, points)
    grids = np.meshgrid(*([axis] * n), indexing="ij")
    flat = np.stack([g.ravel() for g in grids], axis=-1)
    return flat.astype(complex)


def _make_spec(args) -> quadrature.QuadratureSpec | None:
    nodes, radius = args.nodes, args.radius
    if nodes is None and radius is None:
        return None
    kwargs = {}
    if nodes is not None:
        kwargs["nodes_per_dim"] = nodes
    if radius is not None:
        kwargs["radii"] = (radius,)
    return quadrature.QuadratureSpec(**kwargs)


def _write_reports(reports, out_path, csv_path=None) -> None:
    lines = [r.to_json() for r in reports]
    if out_path:
        with open(out_path, "w") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
    else:
        for line in lines:
            print(line)
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["z", "check_id", "lhs", "rhs", "margin", "pass"])
            for r in reports:
                zrepr = ";".join(f"{re}:{im}" for re, im in r.params.get("z", []))
                writer.writerow([zrepr, r.check_id, repr(r.lhs), repr(r.rhs),
                                 repr(r.margin), r.passed])


def _exit_for(reports) -> int:
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# Subcommand handlers.
# ---------------------------------------------------------------------------

def _sweep(args, check) -> int:
    """Run check(mapping, z) at every point of the z grid and write the reports."""
    mapping = load_map(args.map)
    reports = [check(mapping, z) for z in _z_grid(mapping.n, args.grid, args.radius_cap)]
    _write_reports(reports, args.out, args.csv)
    return _exit_for(reports)


def cmd_verify(args) -> int:
    spec = _make_spec(args)
    return _sweep(args, lambda mapping, z: bounds.verify_derivative_bound(
        mapping, z, args.alpha, method=args.method, tol=args.tol, spec=spec))


def cmd_gradient(args) -> int:
    return _sweep(args, lambda mapping, z: bounds.verify_gradient_bound(
        mapping, z, direction_samples=args.samples, tol=args.tol))


def cmd_growth(args) -> int:
    tol = bounds.DEFAULT_TOL_EXACT if args.tol is None else args.tol
    return _sweep(args, lambda mapping, z: bounds.verify_growth_bound(mapping, z, tol=tol))


def cmd_coeffs(args) -> int:
    mapping = load_map(args.map)
    spec = _make_spec(args)
    tol = args.tol if args.tol is not None else bounds.DEFAULT_TOL_QUAD
    reports = bounds.verify_coefficient_bound(mapping, args.max_degree, spec=spec, tol=tol)
    for z in _z_grid(mapping.n, args.grid, args.radius_cap):
        for m in range(1, args.max_degree + 1):
            reports.append(bounds.verify_homogeneous_bound(mapping, m, z))
    reports.append(bounds.verify_l2_bound(mapping))
    _write_reports(reports, args.out, args.csv)
    return _exit_for(reports)


def cmd_lemma(args) -> int:
    nodes = 4096 if args.nodes is None else args.nodes
    value = quadrature.abs_cos_integral(args.m, args.gamma, nodes=nodes)
    tol = args.tol if args.tol is not None else 1e-5
    print(f"abs-cos integral: m={args.m} gamma={args.gamma} nodes={nodes} "
          f"value={value:.10f} target=4")
    return 0 if abs(value - 4.0) <= tol else 1


def cmd_extremal(args) -> int:
    mapping = ColonnaMap(args.gamma, args.a, args.lam)
    series = mapping.to_series(args.degree, nodes=512 if args.nodes is None else args.nodes)
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
        with open(args.out, "w") as fh:
            json.dump(result.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"result JSON: {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
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

    tol = flag("--tol", type=float, default=None, help="tolerance override")
    nodes = flag("--nodes", type=int, default=None, help="quadrature nodes per dimension")
    radius = flag("--radius", type=float, default=None, help="quadrature radius override")
    out = flag("--out", default=None, help="output file path")
    out_required = flag("--out", required=True, help="output file path")

    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--grid", type=int, default=5, help="points per axis for the z grid")
    grid.add_argument("--radius-cap", type=float, default=0.9,
                      help="largest |z_j| sampled on the grid")
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
    p.add_argument("--samples", type=int, default=512)
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

    p = sub.add_parser("extremal", parents=[nodes, out_required],
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
    except (HypothesisError, MapFormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run_main()
