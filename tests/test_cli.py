import json
import math
import os
import threading
import tracemalloc
import warnings

import pytest

from polyschwarz import SeriesMap, bounds, save_map
from polyschwarz import ColonnaMap, map_to_dict
from polyschwarz.cli import _summary, main

FOUR_OVER_PI = 4.0 / math.pi


def _write_random(tmp_path, name="map.json", n=1, degree=3, seed=0):
    path = tmp_path / name
    assert main(["random", "--n", str(n), "--degree", str(degree),
                 "--seed", str(seed), "--out", str(path)]) == 0
    return path


def test_lemma_exit_codes(capsys):
    assert main(["lemma", "--m", "3", "--gamma", "0.7"]) == 0
    out = capsys.readouterr().out
    assert "target=4" in out
    # absurdly tight tolerance turns the same value into a failure
    assert main(["lemma", "--m", "3", "--gamma", "0.7", "--tol", "1e-16"]) == 1


def test_lemma_prints_the_node_count_it_uses(capsys):
    # The node count is raised until it is coprime to m.
    assert main(["lemma", "--m", "2"]) == 0
    assert " nodes=4097 " in capsys.readouterr().out
    assert main(["lemma", "--m", "6", "--nodes", "64"]) == 1  # 65 nodes: 3.9e-4 off
    assert " nodes=65 " in capsys.readouterr().out


def test_usage_errors_exit_2(capsys):
    assert main(["verify"]) == 2  # missing required arguments
    assert main(["no-such-command"]) == 2
    assert main(["verify", "--map", "missing.json", "--alpha", "1"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("where", ["--map", "--out"])
def test_a_path_that_cannot_be_opened_is_a_usage_error(tmp_path, capsys, where):
    # A directory once gave an IsADirectoryError traceback and exit 1, for --out after
    # every check had run.
    path = _write_random(tmp_path)
    paths = {"--map": str(path), "--out": str(tmp_path / "reports.jsonl"), where: str(tmp_path)}
    capsys.readouterr()
    assert main(["verify", "--map", paths["--map"], "--alpha", "1",
                 "--out", paths["--out"]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err and "Is a directory" in err


def test_random_is_byte_deterministic(tmp_path):
    p1 = _write_random(tmp_path, "a.json", seed=7)
    p2 = _write_random(tmp_path, "b.json", seed=7)
    assert p1.read_bytes() == p2.read_bytes()
    p3 = _write_random(tmp_path, "c.json", seed=8)
    assert p1.read_bytes() != p3.read_bytes()


def test_verify_command_reports(tmp_path, capsys):
    path = _write_random(tmp_path, n=2)
    out_path = tmp_path / "reports.jsonl"
    csv_path = tmp_path / "reports.csv"
    code = main(["verify", "--map", str(path), "--alpha", "1,1", "--grid", "3",
                 "--out", str(out_path), "--csv", str(csv_path)])
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 9  # 3x3 grid
    for line in lines:
        rec = json.loads(line)
        assert rec["pass"] is True
        assert rec["check_id"] == "derivative_polydisk"
        assert rec["lhs"] <= rec["rhs"] + rec["tol"]
    csv_lines = csv_path.read_text().strip().splitlines()
    assert csv_lines[0] == "z,check_id,lhs,rhs,margin,pass"
    assert len(csv_lines) == 10


def test_verify_rejects_zero_alpha_component(tmp_path):
    path = _write_random(tmp_path, n=2)
    assert main(["verify", "--map", str(path), "--alpha", "1,0"]) == 2


def test_extremal_coeffs_pipeline(tmp_path):
    map_path = tmp_path / "extremal.json"
    assert main(["extremal", "--degree", "32", "--out", str(map_path)]) == 0
    out_path = tmp_path / "coeffs.jsonl"
    code = main(["coeffs", "--map", str(map_path), "--max-degree", "4",
                 "--nodes", "128", "--grid", "3", "--out", str(out_path)])
    assert code == 0
    recs = [json.loads(line) for line in out_path.read_text().strip().splitlines()]
    first = next(r for r in recs if r["check_id"] == "coefficient_claim"
                 and r["params"]["k"] == [1])
    assert abs(first["lhs"] - FOUR_OVER_PI) < 1e-8
    assert all(r["pass"] for r in recs)
    assert any(r["check_id"] == "homogeneous_part" for r in recs)
    assert any(r["check_id"] == "coefficient_l2" for r in recs)


def test_extremal_takes_any_degree_within_the_size_limit(tmp_path, capsys):
    path = tmp_path / "e.json"
    assert main(["extremal", "--degree", "300", "--out", str(path)]) == 0
    assert max(t["k"][0] for t in json.loads(path.read_text())["terms"]) == 300
    capsys.readouterr()
    assert main(["extremal", "--degree", "100000000", "--out", str(tmp_path / "big.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "MiB" in err
    # the coefficients are exact, so there is no quadrature node count to set
    assert main(["extremal", "--nodes", "512", "--out", str(tmp_path / "n.json")]) == 2
    assert "unrecognized arguments: --nodes 512" in capsys.readouterr().err
    assert not (tmp_path / "big.json").exists() and not (tmp_path / "n.json").exists()


def test_extremal_parses_complex_parameters(tmp_path, capsys):
    path = tmp_path / "e.json"
    assert main(["extremal", "--a", "0.3+0.2i", "--gamma", "i", "--lambda", "-1", "--degree", "4",
                 "--out", str(path)]) == 0
    expected = map_to_dict(ColonnaMap(1j, 0.3 + 0.2j, -1).to_series(4))
    assert json.loads(path.read_text()) == json.loads(json.dumps(expected))
    capsys.readouterr()
    assert main(["extremal", "--a", "0.3+", "--out", str(tmp_path / "bad.json")]) == 2
    assert "argument --a: cannot parse complex number '0.3+'" in capsys.readouterr().err
    assert not (tmp_path / "bad.json").exists()


def test_gradient_and_growth_commands(tmp_path):
    path = _write_random(tmp_path, n=2, seed=3)
    assert main(["gradient", "--map", str(path), "--grid", "2"]) == 0
    # growth requires f(0) = 0; a zero-constant map passes
    zeromap = tmp_path / "zero.json"
    save_map(SeriesMap(1, 1, {(1,): [0.4]}, {(2,): [0.2]}), zeromap)
    assert main(["growth", "--map", str(zeromap), "--grid", "3"]) == 0
    # shifted map: hypothesis error, not a failed check
    shifted = tmp_path / "shifted.json"
    save_map(SeriesMap(1, 1, {(0,): [0.2], (1,): [0.3]}), shifted)
    assert main(["growth", "--map", str(shifted), "--grid", "3"]) == 2


def test_gradient_rejects_the_removed_samples_flag(tmp_path, capsys):
    path = _write_random(tmp_path, n=2, seed=3)
    assert main(["gradient", "--map", str(path), "--grid", "2", "--samples", "64"]) == 2
    assert "unrecognized arguments: --samples" in capsys.readouterr().err


def test_gradient_reports_a_certified_upper_value(tmp_path, capsys):
    path = _write_random(tmp_path, n=3, seed=5)
    out_path = tmp_path / "gradient.jsonl"
    assert main(["gradient", "--map", str(path), "--grid", "2", "--out", str(out_path)]) == 0
    recs = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert len(recs) == 8
    for r in recs:
        assert r["pass"] and r["lhs"] <= r["params"]["upper"] <= r["rhs"] + r["tol"]
        # far from equality the sum of the column maxima decides without boxes
        assert r["params"]["boxes"] == 0
    summary = capsys.readouterr().err.strip().splitlines()[-1]
    assert summary.startswith("summary: 8 checks, 0 failed, 0 undecided, worst margin ")
    assert summary.endswith(" s")


def test_sweep_summary_names_failures_and_the_worst_point(tmp_path, capsys):
    path = _write_random(tmp_path, n=1, seed=2)
    capsys.readouterr()
    assert main(["verify", "--map", str(path), "--alpha", "1", "--grid", "3",
                 "--tol", "-10"]) == 1
    captured = capsys.readouterr()
    reports = [json.loads(line) for line in captured.out.splitlines()]
    worst = min(reports, key=lambda r: r["margin"])
    summary = captured.err.strip()
    assert summary.startswith("summary: 3 checks, 3 failed, 0 undecided, ")
    z = complex(*worst["params"]["z"][0])
    assert f"worst margin {worst['margin']:.6g} at z = ({z:.6g})," in summary


def test_coeffs_ends_with_a_summary_that_names_the_worst_report(tmp_path, capsys):
    path = _write_random(tmp_path, n=2, degree=3, seed=4)
    capsys.readouterr()
    assert main(["coeffs", "--map", str(path), "--max-degree", "2", "--grid", "2",
                 "--tol", "-1"]) == 1
    captured = capsys.readouterr()
    reports = [json.loads(line) for line in captured.out.splitlines()]
    # 5 coefficients with 1 <= |k| <= 2, 2^2 points x 2 degrees, the l2 sum
    assert len(reports) == 5 + 8 + 1
    # the homogeneous parts come point by point, each point's degrees in turn
    homogeneous = [r["params"] for r in reports if r["check_id"] == "homogeneous_part"]
    assert [p["m"] for p in homogeneous] == [1, 2] * 4
    assert [p["z"] for p in homogeneous[::2]] == [p["z"] for p in homogeneous[1::2]]
    worst = min(reports, key=lambda r: r["margin"])
    failed = sum(not r["pass"] for r in reports)
    summary = captured.err.strip()
    assert summary.startswith(f"summary: 14 checks, {failed} failed, 0 undecided, "
                              f"worst margin {worst['margin']:.6g}")
    assert summary.endswith(" s")
    if "z" in worst["params"]:
        z = ", ".join(f"{complex(*c):.6g}" for c in worst["params"]["z"])
        assert f" at z = ({z})," in summary
    elif "k" in worst["params"]:
        assert f" at k = ({', '.join(map(str, worst['params']['k']))})," in summary
    else:
        assert " at " not in summary
    # the planar extremal map attains |a_1| + |b_1| = 4/pi: the worst report is that index's
    extremal = tmp_path / "extremal.json"
    assert main(["extremal", "--degree", "16", "--out", str(extremal)]) == 0
    capsys.readouterr()
    main(["coeffs", "--map", str(extremal), "--max-degree", "3", "--grid", "2"])
    summary = capsys.readouterr().err.strip()
    assert summary.startswith("summary: 10 checks, ") and " at k = (1), " in summary


def test_the_summary_names_a_point_an_index_or_nothing():
    def report(params, margin):
        return bounds.make_report("check", params, 1.0 - margin, 1.0, 0.0)

    z = report({"z": [[0.5, -0.25]]}, 0.1)
    k = report({"k": [2, 0]}, 0.2)
    l2 = report({}, 0.3)
    assert ", worst margin 0.1 at z = (0.5-0.25j), " in _summary([z, k, l2], 0.0)
    assert ", worst margin 0.2 at k = (2, 0), " in _summary([k, l2], 0.0)
    assert _summary([l2], 0.0) == "summary: 1 checks, 0 failed, 0 undecided, worst margin 0.3, 0.000 s"


def test_cauchy_radius_alone_keeps_the_rule_node_count(tmp_path):
    # --radius without --nodes once fell back to a 64-node spec: lhs 17730 vs 0.2468.
    # Now the error bound sizes the nodes for the given radius, per point.
    path = _write_random(tmp_path, n=2, degree=4, seed=3)
    lhs = {}
    for method in ("cauchy", "exact"):
        out_path = tmp_path / f"{method}.jsonl"
        extra = ["--radius", "0.95"] if method == "cauchy" else []
        assert main(["verify", "--map", str(path), "--alpha", "3,1", "--grid", "2",
                     "--radius-cap", "0.8", "--method", method, "--out", str(out_path),
                     *extra]) == 0
        lhs[method] = [json.loads(line) for line in out_path.read_text().splitlines()]
    for c, e in zip(lhs["cauchy"], lhs["exact"]):
        assert c["params"]["z"] == e["params"]["z"]
        assert c["params"]["radii"] == [0.95, 0.95]
        assert c["params"]["error_bound"] <= 1e-8
        assert abs(c["lhs"] - e["lhs"]) <= c["params"]["error_bound"]
    assert len({tuple(c["params"]["nodes"]) for c in lhs["cauchy"]}) > 1


def test_cauchy_verify_near_the_boundary(tmp_path):
    # The 0.95 radius cap of the old default refused every point with t >= 0.95:
    # "contour radius 0.95 must exceed ||z||_inf = 0.96", exit 2.
    path = _write_random(tmp_path, n=2, degree=4, seed=3)
    out_path = tmp_path / "cauchy.jsonl"
    assert main(["verify", "--map", str(path), "--alpha", "3,1", "--grid", "2",
                 "--radius-cap", "0.96", "--method", "cauchy", "--out", str(out_path)]) == 0
    reports = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert len(reports) == 4
    for r in reports:
        assert set(r["params"]) == {"z", "alpha", "method", "radii", "nodes", "error_bound",
                                    "sup_bound"}
        assert r["pass"] and r["lhs"] + r["params"]["error_bound"] <= r["rhs"] + r["tol"]


def test_uncertified_map_is_refused(tmp_path, capsys):
    path = tmp_path / "big.json"
    save_map(SeriesMap(1, 1, {(1,): [2.0]}), path)
    assert main(["verify", "--map", str(path), "--alpha", "1"]) == 2
    assert "certified" in capsys.readouterr().err


def test_malformed_map_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(
        {"n": 1, "N": 1, "terms": [{"k": [1], "a": [[0.1, 0.0]]}, {"k": [1, 2]}]}))
    assert main(["coeffs", "--map", str(path)]) == 2
    assert "term 1" in capsys.readouterr().err


def test_a_map_file_that_is_not_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 1, "N": 1, "terms": [')
    assert main(["verify", "--map", str(path), "--alpha", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "map file is not valid JSON" in err and "Traceback" not in err


@pytest.mark.parametrize("k", [5, None, 1.5, [[1]]])
def test_a_map_file_index_that_is_not_a_list_of_integers_exits_2(tmp_path, capsys, k):
    # each of these once ended in a TypeError traceback from as_index, exit 1
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"n": 1, "N": 1, "terms": [{"k": k, "a": [[0.1, 0.0]]}]}))
    assert main(["verify", "--map", str(path), "--alpha", "1"]) == 2
    assert "term 0: multi-index components must be integers" in capsys.readouterr().err


def test_sharpness_command(tmp_path, capsys):
    out_path = tmp_path / "sharp.json"
    code = main(["sharpness", "--n", "1", "--alpha", "1", "--budget", "30",
                 "--out", str(out_path)])
    assert code == 0
    assert "ratio=" in capsys.readouterr().out
    rec = json.loads(out_path.read_text())
    assert rec["ratio"] == pytest.approx(1.0, abs=1e-9)
    assert rec["alpha"] == [1]
    assert rec["evaluations"] <= 30


def test_sharpness_too_large_a_family_map_is_a_usage_error(tmp_path, capsys):
    out_path = tmp_path / "sharp.json"
    tracemalloc.start()
    try:
        assert main(["sharpness", "--n", "6", "--alpha", "1,1,1,1,1,1",
                     "--out", str(out_path)]) == 2
        assert tracemalloc.get_traced_memory()[1] < 4 * 2**20
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err.startswith("error:") and "368 MiB" in err
    assert not out_path.exists()


def test_growth_honours_tol_zero(tmp_path):
    zeromap = tmp_path / "zero.json"
    save_map(SeriesMap(1, 1, {(1,): [0.4]}), zeromap)
    out_path = tmp_path / "growth.jsonl"
    assert main(["growth", "--map", str(zeromap), "--grid", "2", "--tol", "0",
                 "--out", str(out_path)]) == 0
    recs = [json.loads(line) for line in out_path.read_text().strip().splitlines()]
    assert [r["tol"] for r in recs] == [0.0, 0.0]


def test_unused_flags_are_rejected(tmp_path, capsys):
    path = _write_random(tmp_path, n=2)
    assert main(["gradient", "--map", str(path), "--grid", "1",
                 "--nodes", "9999", "--radius", "0.1"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert main(["sharpness", "--n", "1", "--alpha", "1", "--tol", "0.1"]) == 2
    assert main(["random", "--n", "1"]) == 2  # nowhere to write the map


def test_cauchy_sample_too_large_is_a_usage_error(tmp_path, capsys):
    path = _write_random(tmp_path, n=3, degree=2)
    # 2^24 nodes give an axis two kernels of 512 MiB, refused before they are built.
    assert main(["verify", "--map", str(path), "--alpha", "1,1,1", "--method", "cauchy",
                 "--grid", "1", "--nodes", str(2**24)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "16777216 nodes" in err and "512 MiB" in err
    # The whole torus grid is never allocated, so the rule's own 4096^3 nodes at
    # (0.97, 0.97, 0.97), once refused for a 1 TiB sample, now run.
    out = tmp_path / "near.jsonl"
    assert main(["verify", "--map", str(path), "--alpha", "1,1,1", "--method", "cauchy",
                 "--grid", "2", "--radius-cap", "0.97", "--out", str(out)]) == 0
    reports = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(reports) == 8 and all(r["pass"] for r in reports)
    assert reports[-1]["params"]["nodes"] == [4096] * 3


def test_a_refused_default_cauchy_rule_names_the_point_and_the_target(tmp_path, capsys):
    # No --nodes was given, so the refusal names the axis and |z_j| whose error target
    # needs the nodes, not --nodes.
    path = _write_random(tmp_path, n=2, degree=2)
    assert main(["verify", "--map", str(path), "--alpha", "1,1", "--method", "cauchy",
                 "--grid", "2", "--radius-cap", "0.99999"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err and "--nodes" not in err
    assert "the error bound 1e-09 needs them on axis 1, where |z_1| = 0.99999" in err


@pytest.mark.parametrize("command", [["verify", "--alpha", ",".join(["1"] * 33)],
                                     ["verify", "--alpha", ",".join(["1"] * 33),
                                      "--method", "cauchy"],
                                     ["gradient"], ["growth"]])
@pytest.mark.parametrize("grid", ["1", "2"])
def test_maps_with_more_than_32_coordinates_never_crash(tmp_path, capsys, command, grid):
    # np.meshgrid stops at 32 axes: "gradient --grid 1" on n = 33 once died with a
    # RuntimeError and a traceback (exit 1).
    path = tmp_path / "n33.json"
    save_map(SeriesMap(33, 1, {(1,) + (0,) * 32: [0.3]}), path)
    code = main([command[0], "--map", str(path), *command[1:], "--grid", grid,
                 "--out", str(tmp_path / "reports.jsonl")])
    err = capsys.readouterr().err
    assert code in (0, 2) and "Traceback" not in err
    assert code == (0 if grid == "1" else 2)
    if code == 2:
        assert err.startswith("error:") and "MiB" in err


@pytest.mark.parametrize("argv", [["lemma", "--m", "3", "--nodes", "0"]])
def test_explicit_zero_nodes_is_refused(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "e.json").exists()


def _write_terms(tmp_path, terms, **extra):
    path = tmp_path / "declared.json"
    # json.dumps writes float("nan") as the NaN literal, which json.load reads back.
    path.write_text(json.dumps({"n": 2, "N": 1, "terms": terms, **extra}))
    return path


@pytest.mark.parametrize("certified_sup", [-1.0, float("nan"), float("inf")])
def test_map_file_with_unsound_certificate_is_refused(tmp_path, capsys, certified_sup):
    path = _write_terms(tmp_path, [{"k": [1, 0], "a": [[5.0, 0.0]]}], certified_sup=certified_sup)
    assert main(["verify", "--map", str(path), "--alpha", "1,1", "--grid", "2"]) == 2
    assert "certified_sup" in capsys.readouterr().err


def test_map_file_with_nan_coefficient_is_refused_on_load(tmp_path, capsys):
    path = _write_terms(tmp_path, [{"k": [1, 0], "a": [[float("nan"), 0.0]]}])
    assert main(["verify", "--map", str(path), "--alpha", "1,1", "--grid", "2"]) == 2
    assert "term 0" in capsys.readouterr().err


def test_oversized_coefficient_tensor_is_refused_by_every_subcommand(tmp_path, capsys):
    # One term k = (600, 600, 600) means a dense 601^3 tensor (3.3 GiB).
    path = _write_terms(tmp_path, [{"k": [600, 600, 600], "a": [[0.1, 0.0]]}], n=3)
    tracemalloc.start()
    try:
        for argv in (["coeffs", "--max-degree", "1", "--nodes", "8", "--grid", "1"],
                     ["verify", "--alpha", "1,1,1", "--grid", "1", "--method", "exact"],
                     ["gradient", "--grid", "1"], ["growth", "--grid", "1"]):
            assert main([argv[0], "--map", str(path), *argv[1:]]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "(1, 601, 601, 601)" in err and "MiB" in err
        assert tracemalloc.get_traced_memory()[1] < 32 * 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("flags", [["--nodes", "9999"], ["--radius", "0.3"],
                                   ["--nodes", "64", "--radius", "0.3"]])
def test_exact_verify_refuses_cauchy_flags(tmp_path, capsys, flags):
    path = _write_random(tmp_path, n=2, degree=4, seed=3)
    capsys.readouterr()
    assert main(["verify", "--map", str(path), "--alpha", "1,1", "--grid", "1",
                 "--method", "exact", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert all(flag in err for flag in flags if flag.startswith("--"))
    # --method exact is the default, so leaving it out is refused the same way
    assert main(["verify", "--map", str(path), "--alpha", "1,1", "--grid", "1", *flags]) == 2


def test_coeffs_tol_reaches_every_report(tmp_path):
    path = _write_random(tmp_path, n=2, degree=3, seed=4)
    out_path = tmp_path / "coeffs.jsonl"
    assert main(["coeffs", "--map", str(path), "--max-degree", "2", "--grid", "2",
                 "--tol", "0.5", "--out", str(out_path)]) == 0
    recs = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert {r["check_id"] for r in recs} == {"coefficient_claim", "homogeneous_part",
                                             "coefficient_l2"}
    assert all(r["tol"] == 0.5 for r in recs)


@pytest.mark.parametrize("command", [["verify", "--alpha", "1,1"], ["gradient"], ["growth"],
                                     ["coeffs", "--max-degree", "2"]])
@pytest.mark.parametrize("grid, message", [("0", "must be at least 1, got 0"),
                                           ("-1", "must be at least 1, got -1"),
                                           ("abc", "must be an integer, got 'abc'")])
def test_grid_below_one_is_a_usage_error(tmp_path, capsys, command, grid, message):
    # --grid 0 once gave a vacuous "0 checks" pass, and --grid -1 numpy's message.
    path = _write_random(tmp_path, n=2, degree=3, seed=4)
    capsys.readouterr()
    out_path = tmp_path / "reports.jsonl"
    argv = [command[0], "--map", str(path), *command[1:], "--grid", grid, "--out", str(out_path)]
    assert main(argv) == 2
    assert f"argument --grid: {message}" in capsys.readouterr().err
    assert not out_path.exists()


def test_the_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    path = _write_random(tmp_path, n=2, degree=3, seed=4)
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    verify = ["verify", "--map", str(path), "--alpha", "1,1", "--grid", "2"]
    assert main([*verify, "--tol", "0.5", "--out", str(first)]) == 0
    assert main([*verify, "--out", str(second)]) == 0
    assert {json.loads(line)["tol"] for line in first.read_text().splitlines()} == {0.5}
    assert {json.loads(line)["tol"] for line in second.read_text().splitlines()} == {1e-9}
    # Cauchy flags from one call must not reach the next, which --method exact refuses.
    assert main([*verify, "--method", "cauchy", "--nodes", "512", "--out", str(first)]) == 0
    assert main([*verify, "--out", str(second)]) == 0
    assert {json.loads(line)["params"]["method"] for line in second.read_text().splitlines()} \
        == {"exact"}
    capsys.readouterr()
    assert main([*verify, "--grid", "0"]) == 2
    assert main(["gradient", "--map", str(path), "--grid", "2", "--out", str(second)]) == 0
    assert len(second.read_text().splitlines()) == 4


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_a_tolerance_that_is_not_finite_is_a_usage_error(tmp_path, capsys, tol):
    # --tol nan once failed every check (exit 1) and --tol inf passed every one (exit 0).
    path = _write_random(tmp_path, n=2, degree=3, seed=1)
    out_path = tmp_path / "reports.jsonl"
    capsys.readouterr()
    for argv in (["verify", "--map", str(path), "--alpha", "1,1", "--grid", "2",
                  "--out", str(out_path)],
                 ["gradient", "--map", str(path), "--grid", "2", "--out", str(out_path)],
                 ["lemma", "--m", "3"]):
        assert main([*argv, "--tol", tol]) == 2
        assert f"argument --tol: must be finite, got {tol}" in capsys.readouterr().err
    assert not out_path.exists()
    # negative finite values stay a way to ask for failures
    assert main(["lemma", "--m", "3", "--tol", "-1"]) == 1


def test_a_tolerance_that_is_not_a_number_is_a_usage_error(tmp_path, capsys):
    out_path = tmp_path / "reports.jsonl"
    path = _write_random(tmp_path, n=2, degree=3, seed=1)
    capsys.readouterr()
    assert main(["gradient", "--map", str(path), "--grid", "2", "--out", str(out_path),
                 "--tol", "abc"]) == 2
    assert "argument --tol: must be a number, got 'abc'" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("degree, alpha, method", [(3, "171", "exact"), (3, "171", "cauchy"),
                                                   (1000, "120", "exact")])
def test_orders_beyond_the_double_range_exit_2_without_a_traceback(tmp_path, capsys, degree,
                                                                   alpha, method):
    # alpha = 171 once raised OverflowError in rhs_polydisk or in cauchy_derivative's
    # float(alpha!), and alpha = 120 on a degree-1000 series in _axis_weights.  That
    # derivative is finite at z = 0, so its case takes the grid's z = 0.9 point too.
    path = _write_random(tmp_path, n=1, degree=degree, seed=1)
    out_path = tmp_path / "reports.jsonl"
    capsys.readouterr()
    assert main(["verify", "--map", str(path), "--alpha", alpha, "--method", method,
                 "--grid", "2" if alpha == "120" else "1", "--out", str(out_path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "error:" in err
    assert not out_path.exists()


def test_an_order_past_the_double_range_is_refused_without_a_numpy_warning(tmp_path):
    # At z = 0.9 the weights past the largest double once made numpy warn "invalid
    # value encountered in multiply" (and "in matmul") on stderr before the refusal.
    path = _write_random(tmp_path, n=1, degree=1000, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--map", str(path), "--alpha", "120", "--grid", "2",
                     "--out", str(tmp_path / "reports.jsonl")]) == 2


def test_an_order_past_the_double_range_of_its_weights_is_checked_at_zero(tmp_path, capsys):
    # At z = 0 only the k = alpha term of the derivative is nonzero; it once came out NaN.
    path = _write_random(tmp_path, n=1, degree=1000, seed=1)
    out_path = tmp_path / "reports.jsonl"
    assert main(["verify", "--map", str(path), "--alpha", "120", "--grid", "1",
                 "--out", str(out_path)]) == 0
    (report,) = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert report["pass"] and 0 < report["lhs"] < math.inf
    assert "Warning" not in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_a_report_file_rewritten_with_a_shorter_report_holds_just_that_report(tmp_path, flag):
    path = _write_random(tmp_path, n=2)

    def run(grid, target):
        argv = ["verify", "--map", str(path), "--alpha", "1,1", "--grid", str(grid), flag, str(target)]
        if flag == "--csv":
            argv += ["--out", str(tmp_path / "reports.jsonl")]
        assert main(argv) == 0
        return target.read_bytes()

    fresh, target = tmp_path / "fresh", tmp_path / "target"
    assert len(run(6, target)) > len(run(2, fresh))
    assert run(2, target) == fresh.read_bytes()


@pytest.mark.parametrize("argv", [["sharpness", "--n", "1", "--alpha", "1", "--budget", "30"],
                                  ["random", "--n", "1", "--degree", "2"]])
def test_a_result_or_map_file_written_over_a_longer_file_holds_just_the_new_text(tmp_path, argv):
    fresh, target = tmp_path / "fresh.json", tmp_path / "target.json"
    target.write_text("x" * 100_000)
    for out in (fresh, target):
        assert main([*argv, "--out", str(out)]) == 0
    assert target.read_bytes() == fresh.read_bytes()


def test_reports_go_to_the_null_device_and_to_a_fifo_uncut(tmp_path):
    path = _write_random(tmp_path)
    verify = ["verify", "--map", str(path), "--alpha", "1", "--grid", "3"]
    assert main([*verify, "--out", os.devnull, "--csv", os.devnull]) == 0
    if not hasattr(os, "mkfifo"):
        return
    fifo, fresh = tmp_path / "fifo", tmp_path / "fresh.jsonl"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()))
    reader.start()
    assert main([*verify, "--out", str(fifo)]) == 0
    reader.join(timeout=10)
    assert main([*verify, "--out", str(fresh)]) == 0
    assert got == [fresh.read_bytes()]


@pytest.mark.parametrize("cap", ["-0.5", "1.0", "1.5", "nan"])
def test_a_radius_cap_outside_the_unit_interval_is_a_usage_error(tmp_path, capsys, cap):
    # -0.5 once sampled z = -0.5, and 1.0 reached only the point rule's message
    path = _write_random(tmp_path)
    out_path = tmp_path / "reports.jsonl"
    for command in (["verify", "--alpha", "1"], ["gradient"], ["growth"], ["coeffs"]):
        assert main([command[0], "--map", str(path), *command[1:], "--radius-cap", cap,
                     "--out", str(out_path)]) == 2
        err = capsys.readouterr().err
        assert "argument --radius-cap" in err and "Traceback" not in err
    assert not out_path.exists()
    assert main(["verify", "--map", str(path), "--alpha", "1", "--radius-cap", "0",
                 "--out", str(out_path)]) == 0


@pytest.mark.parametrize("terms, extra, where", [
    ([{"k": [1, 0], "a": [[10**400, 0.0]]}], {}, "term 0"),
    ([{"k": [1, 0], "a": [[0.5, 0.0]]}], {"certified_sup": 10**400}, "certified_sup"),
])
def test_a_map_file_number_beyond_the_double_range_exits_2_without_a_traceback(tmp_path, capsys,
                                                                              terms, extra, where):
    # both once ended in an OverflowError traceback and exit 1, the failed-check code
    path = _write_terms(tmp_path, terms, **extra)
    assert main(["verify", "--map", str(path), "--alpha", "1,1", "--grid", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and where in err and "Traceback" not in err
