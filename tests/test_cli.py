"""Command-line interface: exit codes, formats, determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from gptwb.cli import main
from gptwb.observables import observable, trivial_observable
from gptwb.spaces import make_polygon, polygon_extreme_even


@pytest.fixture
def hexagon_files(tmp_path):
    sp = make_polygon(6)
    a = observable(sp, (polygon_extreme_even(6, 1), polygon_extreme_even(6, 4)))
    b = observable(sp, (polygon_extreme_even(6, 2), polygon_extreme_even(6, 5)))
    t = trivial_observable(sp, (0.5, 0.5))
    paths = {}
    for name, obs in (("a", a), ("b", b), ("t", t)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(obs.to_json_dict()))
        paths[name] = str(p)
    i2 = tmp_path / "I2.csv"
    i2.write_text("1,0\n0,1\n")
    v2 = tmp_path / "V2.csv"
    v2.write_text("0.5,0.5\n0.5,0.5\n")
    paths["I2"], paths["V2"] = str(i2), str(v2)
    return paths


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_tables_dims_rows(capsys):
    code, out = run_cli(["tables", "dims"], capsys)
    assert code == 0
    rows = {r["space"]: r for r in json.loads(out)["rows"]}
    assert rows["classical:3"]["d_op"] == 3
    assert rows["polygon:6"]["d_op"] == 2
    assert abs(rows["polygon:6"]["lambda_max"] - 2.0) < 1e-6
    assert rows["polygon:6"]["d_lin"] == 3
    assert rows["polygon:5"]["d_q_is_bound"] is True


def test_tables_irreducibles_rows(capsys):
    code, out = run_cli(["tables", "irreducibles"], capsys)
    assert code == 0
    rows = {r["n"]: r for r in json.loads(out)["rows"]}
    assert rows[5] == {"n": 5, "dichotomic": 0, "trichotomic": 5,
                       "formula_dichotomic": 0, "formula_trichotomic": 5,
                       "match": True}
    assert all(r["match"] for r in rows.values())


def test_tables_noise_bounds_rows(capsys):
    code, out = run_cli(["tables", "noise_bounds"], capsys)
    rows = {r["n"]: r["noise_lower_bound"] for r in json.loads(out)["rows"]}
    assert abs(rows[7] - 0.753) < 1e-3


def test_check_compat_exit_codes(hexagon_files, capsys):
    code, _ = run_cli(["check", "compat", hexagon_files["t"], hexagon_files["t"]], capsys)
    assert code == 0
    code, _ = run_cli(["check", "compat", hexagon_files["a"], hexagon_files["b"]], capsys)
    assert code == 1


def test_check_postprocess(hexagon_files, capsys):
    code, out = run_cli(["check", "postprocess", hexagon_files["a"],
                         hexagon_files["t"]], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is True and payload["witness"] is not None
    code, _ = run_cli(["check", "postprocess", hexagon_files["a"],
                       hexagon_files["b"]], capsys)
    assert code == 1


def test_check_sim_with_irreducible_literal(hexagon_files, capsys):
    code, _ = run_cli(["check", "sim", hexagon_files["a"],
                       "--simulators", "irr(polygon:6)"], capsys)
    assert code == 0


def test_check_ultraweak_and_comm_compare(hexagon_files, capsys):
    code, out = run_cli(["check", "ultraweak", hexagon_files["I2"],
                         hexagon_files["V2"]], capsys)
    assert code == 1
    assert json.loads(out)["violated"] == "iota"
    code, _ = run_cli(["comm", "compare", hexagon_files["V2"],
                       hexagon_files["I2"]], capsys)
    assert code == 0


def test_comm_report(hexagon_files, capsys):
    code, out = run_cli(["comm", hexagon_files["I2"]], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["iota"] == 2 and payload["rank"] == 2


@pytest.mark.parametrize("backend", ["float", "exact"])
def test_comm_csv_with_fractions(tmp_path, capsys, backend):
    q = tmp_path / "q.csv"
    q.write_text("1/3, 2/3\n1/2,1/2\n")
    code, out = run_cli(["--backend", backend, "comm", str(q)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 2
    if backend == "exact":  # column maxima 1/2 + 2/3, rounded once at output
        assert payload["lambda_max"] == float(Fraction(7, 6))
    else:
        assert abs(payload["lambda_max"] - 7 / 6) < 1e-12


def test_error_exit_code(hexagon_files, capsys):
    code = main(["check", "postprocess", "/nonexistent/file.json",
                 hexagon_files["a"]])
    capsys.readouterr()
    assert code == 3


def test_reports_bit_identical_across_runs(hexagon_files, capsys):
    _, out1 = run_cli(["tables", "dims", "--seed", "5"], capsys)
    _, out2 = run_cli(["tables", "dims", "--seed", "5"], capsys)
    assert out1 == out2


def test_env_seed_override(hexagon_files, capsys, monkeypatch):
    monkeypatch.setenv("GPTWB_SEED", "17")
    _, out1 = run_cli(["tables", "dims", "--seed", "5"], capsys)
    monkeypatch.setenv("GPTWB_SEED", "17")
    _, out2 = run_cli(["tables", "dims", "--seed", "9"], capsys)
    assert out1 == out2


def test_out_file_and_formats(hexagon_files, tmp_path, capsys):
    target = tmp_path / "dims.csv"
    code, _ = run_cli(["tables", "noise_bounds", "--format", "csv",
                       "--out", str(target)], capsys)
    assert code == 0
    text = target.read_text()
    assert text.splitlines()[0] == "n,noise_lower_bound"


def test_installed_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "gptwb.cli", "tables",
                           "noise_bounds"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rows"]


def test_backend_flag_respected_in_both_positions(tmp_path, capsys):
    sq = tmp_path / "sq.json"
    sq.write_text(json.dumps({"space_ref": "square", "outcomes": [0, 1],
                              "effects": [["1/4", "1/4", "1/2"],
                                          ["-1/4", "-1/4", "1/2"]]}))
    sqt = tmp_path / "sqt.json"
    sqt.write_text(json.dumps({"space_ref": "square", "outcomes": [0, 1],
                               "effects": [["0", "0", "1/2"], ["0", "0", "1/2"]]}))
    code, out = run_cli(["--backend", "exact", "check", "postprocess",
                         str(sq), str(sqt)], capsys)
    assert code == 0 and json.loads(out)["verdict"] is True
    code, out = run_cli(["check", "postprocess", str(sq), str(sqt),
                         "--backend", "exact"], capsys)
    assert code == 0
    # the exact backend must reject irrational polygon coordinates
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"space_ref": "polygon:6", "outcomes": [0],
                                "effects": [[0.0, 0.0, 1.0]]}))
    code = main(["--backend", "exact", "check", "postprocess", str(poly), str(poly)])
    capsys.readouterr()
    assert code == 3
