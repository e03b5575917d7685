import json
import math

import pytest

from polyschwarz import SeriesMap, save_map
from polyschwarz.cli import main

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


def test_usage_errors_exit_2(capsys):
    assert main(["verify"]) == 2  # missing required arguments
    assert main(["no-such-command"]) == 2
    assert main(["verify", "--map", "missing.json", "--alpha", "1"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


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


def test_gradient_and_growth_commands(tmp_path):
    path = _write_random(tmp_path, n=2, seed=3)
    assert main(["gradient", "--map", str(path), "--grid", "2",
                 "--samples", "64"]) == 0
    # growth requires f(0) = 0; a zero-constant map passes
    zeromap = tmp_path / "zero.json"
    save_map(SeriesMap(1, 1, {(1,): [0.4]}, {(2,): [0.2]}), zeromap)
    assert main(["growth", "--map", str(zeromap), "--grid", "3"]) == 0
    # shifted map: hypothesis error, not a failed check
    shifted = tmp_path / "shifted.json"
    save_map(SeriesMap(1, 1, {(0,): [0.2], (1,): [0.3]}), shifted)
    assert main(["growth", "--map", str(shifted), "--grid", "3"]) == 2


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
    assert main(["verify", "--map", str(path), "--alpha", "1,1,1", "--method", "cauchy",
                 "--grid", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "512^3" in err and "MiB" in err


@pytest.mark.parametrize("argv", [["lemma", "--m", "3", "--nodes", "0"],
                                  ["extremal", "--nodes", "0", "--out", "e.json"]])
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
