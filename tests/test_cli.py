"""Command-line interface: exit codes, formats, determinism."""

import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from gptwb.cli import RunConfig, _build_parser, main
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


@pytest.mark.parametrize("backend", ["float", "exact"])
def test_tables_dims_lists_the_spaces_a_backend_refuses(backend, capsys):
    """The exact backend has no polygons (irrational vertices): dims prints
    the classical rows and names the polygons under "skipped"."""
    code, out = run_cli(["tables", "dims", "--backend", backend], capsys)
    assert code == 0
    report = json.loads(out)
    polygons = [f"polygon:{n}" for n in range(3, 10)]
    classical = [r for r in report["rows"] if r["space"].startswith("classical:")]
    assert [(r["space"], r["d_op"], r["d_lin"]) for r in classical] == \
        [(f"classical:{d}", d, d) for d in range(1, 6)]
    if backend == "float":
        assert [r["space"] for r in report["rows"][5:]] == polygons
        assert "skipped" not in report
    else:
        assert len(report["rows"]) == 5 and report["skipped"] == polygons


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


@pytest.mark.parametrize("ref", ["polygon:5", "classical:2"])
def test_check_sim_from_another_space_is_an_error(hexagon_files, ref, capsys):
    code, _ = run_cli(["check", "sim", hexagon_files["t"],
                       "--simulators", f"irr({ref})"], capsys)
    assert code == 3


@pytest.mark.parametrize("relation", ["postprocess", "compat"])
def test_check_on_files_of_two_spaces_is_an_error(hexagon_files, tmp_path, relation, capsys):
    """Each file is read on its own space_ref, and a polygon:6 file and a
    polygon:4 file are on two spaces."""
    sq = make_polygon(4)
    path = tmp_path / "sq.json"
    path.write_text(json.dumps(observable(
        sq, (polygon_extreme_even(4, 1), polygon_extreme_even(4, 3))).to_json_dict()))
    assert main(["check", relation, hexagon_files["a"], str(path)]) == 3
    assert "different spaces" in capsys.readouterr().err


@pytest.mark.parametrize("backend, ref", [("float", "polygon:6"), ("exact", "classical:3")])
def test_check_refuses_an_effect_shorter_than_the_space(tmp_path, backend, ref, capsys):
    """An effect with 2 coordinates on a 3-dimensional space is an error
    on both backends, and the message names the effect."""
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"space_ref": ref, "effects": [[0, 0], [0, 0]]}))
    assert main(["--backend", backend, "check", "compat", str(path), str(path)]) == 3
    assert f"{path}: invalid observable: effect 0 has 2 coordinates" in capsys.readouterr().err


@pytest.mark.parametrize("backend, content, cause", [
    ("float", {"space_ref": "polygon:6"}, "missing key 'effects'"),
    ("exact", {"space_ref": "polygon:6", "effects": [[0, 0, 1]]}, "irrational"),
], ids=["no-effects", "exact-polygon"])
def test_observable_file_without_effects_or_space_names_it(tmp_path, backend, content, cause,
                                                           capsys):
    """A file with no effects, or a polygon on the exact backend, exits 3
    naming the file."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(content))
    assert main(["--backend", backend, "check", "compat", str(path), str(path)]) == 3
    err = capsys.readouterr().err
    assert f"{path}: " in err and cause in err


@pytest.mark.parametrize("backend, ref", [("float", "polygon:6"), ("exact", "square")])
def test_unnormalized_observable_file_is_an_error_naming_it(tmp_path, backend, ref, capsys):
    """Effects summing to 0.9 u build no observable on either backend:
    whichever input the file is, the check exits 3 naming it."""
    short, half = tmp_path / "short.json", tmp_path / "half.json"
    short.write_text(json.dumps({"space_ref": ref, "effects": [[0, 0, 0.45], [0, 0, 0.45]]}))
    half.write_text(json.dumps({"space_ref": ref, "effects": [[0, 0, 0.5], [0, 0, 0.5]]}))
    for args in (["compat", str(half), str(short)], ["postprocess", str(short), str(half)],
                 ["sim", str(half), "--simulators", str(short)]):
        assert main(["--backend", backend, "check"] + args) == 3
        err = capsys.readouterr().err
        assert f"{short}: invalid observable: effects do not sum to the unit functional" in err


@pytest.mark.parametrize("backend", ["float", "exact"])
def test_comm_file_that_is_no_communication_matrix_is_an_error_naming_it(
        hexagon_files, tmp_path, backend, capsys):
    """A matrix whose rows do not sum to 1, a ragged one and one with a
    word for an entry exit 3, naming the file, in every command that reads
    a matrix."""
    for name, text, cause in (("sub.csv", "0.5,0.6\n0.2,0.8\n", "not row-stochastic"),
                              ("ragged.csv", "1\n0.5,0.5\n", "rows differ in length"),
                              ("word.csv", "a,b\n", "Invalid literal")):
        path = tmp_path / name
        path.write_text(text)
        for args in (["comm", str(path)], ["comm", "compare", str(path), hexagon_files["I2"]],
                     ["check", "ultraweak", hexagon_files["I2"], str(path)]):
            assert main(["--backend", backend] + args) == 3
            captured = capsys.readouterr()
            assert captured.out == "" and f"{path}: " in captured.err and cause in captured.err


@pytest.mark.parametrize("role", ["postprocess-source", "sim-simulator", "compat-input"])
def test_check_refuses_an_invalid_float_observable(tmp_path, role, capsys):
    """The first effect of bad.json ranges over [-0.467, 1.467] on the
    hexagon, so the file holds no observable: whichever input it is, the
    check exits 3 naming the file and the effect."""
    bad, tgt = tmp_path / "bad.json", tmp_path / "tgt.json"
    bad.write_text(json.dumps({"space_ref": "polygon:6",
                               "effects": [[0.9, 0, 0.5], [-0.9, 0, 0.5]]}))
    tgt.write_text(json.dumps({"space_ref": "polygon:6",
                               "effects": [[0.45, 0, 0.5], [-0.45, 0, 0.5]]}))
    args = {"postprocess-source": ["postprocess", str(bad), str(tgt)],
            "sim-simulator": ["sim", str(tgt), "--simulators", str(bad)],
            "compat-input": ["compat", str(tgt), str(bad)]}[role]
    assert main(["check"] + args) == 3
    err = capsys.readouterr().err
    assert f"{bad}: invalid observable: effect 0: not a valid effect" in err


def test_observable_files_are_judged_at_the_tolerance(tmp_path, capsys):
    """An effect 1e-7 above 1 on a vertex is no effect at the default
    tolerance 1e-9 and is one at --tolerance 1e-6."""
    path = tmp_path / "over.json"
    path.write_text(json.dumps({"space_ref": "classical:2",
                                "effects": [[1 + 1e-7, 0], [-1e-7, 1]]}))
    assert main(["check", "compat", str(path), str(path)]) == 3
    assert "not a valid effect" in capsys.readouterr().err
    assert main(["--tolerance", "1e-6", "check", "compat", str(path), str(path)]) == 0
    capsys.readouterr()


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


def test_empty_matrix_is_an_error(hexagon_files, tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert run_cli(["comm", str(empty)], capsys)[0] == 3
    assert run_cli(["comm", "compare", str(empty), hexagon_files["I2"]], capsys)[0] == 3


def test_ragged_matrix_is_an_error(tmp_path, capsys):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1\n0.5,0.5\n")
    assert run_cli(["comm", str(ragged)], capsys)[0] == 3


def test_error_exit_code(hexagon_files, capsys):
    code = main(["check", "postprocess", "/nonexistent/file.json",
                 hexagon_files["a"]])
    capsys.readouterr()
    assert code == 3
    with pytest.raises(SystemExit) as exc:  # a usage error, not an inconclusive 2
        main(["tables", "bogus"])
    assert exc.value.code == 3
    assert "invalid choice" in capsys.readouterr().err


def test_ball_with_unknown_norm_is_an_error(tmp_path, capsys):
    obs = {"outcomes": [0, 1], "effects": [[0.0, 0.0, 0.0, 0.5], [0.0, 0.0, 0.0, 0.5]]}
    for norm, code in (("euclidean", 0), ("l1", 3)):
        path = tmp_path / f"{norm}.json"
        path.write_text(json.dumps({**obs, "space_ref": {"kind": "ball", "dim": 3, "norm": norm}}))
        assert main(["check", "postprocess", str(path), str(path)]) == code
        capsys.readouterr()


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("args, name", [
    (["tables", "dims"], "tables_dims.json"),
    (["tables", "irreducibles"], "tables_irreducibles.json"),
    (["--backend", "exact", "tables", "dims"], "tables_dims_exact.json"),
    (["comm", "compare", os.path.join(GOLDEN, "d.csv"), os.path.join(GOLDEN, "c.csv")],
     "comm_compare.json"),
], ids=["dims", "irreducibles", "dims-exact", "comm-compare"])
def test_table_reports_match_the_golden_files(args, name, capsys):
    """The reports are byte-identical to the committed ones, so a change to
    the LP engine, the enumerations or the ultraweak search (the float
    search on CI's rational pair d.csv, c.csv) that moves a report shows
    here.  After a deliberate change, regenerate with
    ``PYTHONPATH=src python -m gptwb.cli ARGS > tests/golden/NAME``."""
    code, out = run_cli(args, capsys)
    assert code == 0
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        assert out == fh.read()


def test_reports_bit_identical_across_runs(hexagon_files, capsys):
    _, out1 = run_cli(["tables", "dims", "--seed", "5"], capsys)
    _, out2 = run_cli(["tables", "dims", "--seed", "5"], capsys)
    assert out1 == out2


def test_env_seed_override(tmp_path, capsys, monkeypatch):
    """GPTWB_SEED wins over --seed.  The ultraweak search's witness for this
    planted pair D = L C R depends on the seed, so without the variable the
    reports of two seeds differ."""
    d, c = tmp_path / "D.csv", tmp_path / "C.csv"
    d.write_text("0.425,0.575\n0.565,0.435\n0.5825,0.4175\n")
    c.write_text("0.6,0.3,0.1\n0.1,0.7,0.2\n0.2,0.2,0.6\n")

    def report(seed):
        code, out = run_cli(["check", "ultraweak", str(d), str(c), "--seed", seed], capsys)
        assert code == 0
        return out

    monkeypatch.delenv("GPTWB_SEED", raising=False)
    plain = {seed: report(seed) for seed in ("5", "9", "17")}
    assert plain["5"] != plain["9"] and plain["5"] != plain["17"]
    monkeypatch.setenv("GPTWB_SEED", "17")
    assert report("5") == report("9") == plain["17"]


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


def test_exact_compat_reads_decimals_exactly_and_floats_at_their_binary_value(tmp_path, capsys):
    """On the exact backend decimal strings are read exactly and decide; a
    JSON float is its binary value, so effects that reach the unit only up
    to rounding (0.3 + 0.7) are an input error, while floats decide them."""
    def write(name, effects):
        path = tmp_path / name
        path.write_text(json.dumps({"space_ref": "square", "effects": effects}))
        return str(path)
    a = write("a.json", [["0.1", "0.2", "0.3"], ["-0.1", "-0.2", "0.7"]])
    b = write("b.json", [["0.25", "0", "0.5"], ["-0.25", "0", "0.5"]])
    code, out = run_cli(["--backend", "exact", "check", "compat", a, b], capsys)
    assert code == 0
    joint = json.loads(out)["joint"]["effects"]
    assert [sum(Fraction(e[c]) for e in joint) for c in range(3)] == [0, 0, 1]
    floats = write("f.json", [[0.1, 0.2, 0.3], [-0.1, -0.2, 0.7]])
    assert run_cli(["check", "compat", floats, b], capsys)[0] == 0
    assert main(["--backend", "exact", "check", "compat", floats, b]) == 3
    assert "unit functional" in capsys.readouterr().err


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


def test_every_run_config_field_is_a_flag_before_and_after_the_subcommand():
    """``main`` reads the flags that ``RunConfig._fields`` names: a field
    that the shared parent parser does not declare would silently keep its
    default."""
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for p in [parser, *commands.choices.values()]:
        assert set(RunConfig._fields) <= {a.dest for a in p._actions}, p.prog


def test_check_sim_from_simulator_files(hexagon_files, capsys):
    """``--simulators`` as a comma list of observable files: the trivial
    observable is a mixture of post-processings of a and b, while a is no
    simulation of b alone."""
    code, out = run_cli(["check", "sim", hexagon_files["t"], "--simulators",
                         f"{hexagon_files['a']},{hexagon_files['b']}"], capsys)
    report = json.loads(out)
    assert code == 0 and report["relation"] == "sim" and report["verdict"] is True
    assert len(report["witness"]["weights"]) == len(report["witness"]["matrices"]) == 2
    code, out = run_cli(["check", "sim", hexagon_files["a"],
                         "--simulators", hexagon_files["b"]], capsys)
    assert code == 1 and json.loads(out) == {"relation": "sim", "verdict": False}


@pytest.mark.parametrize("form", ["dict", "list"])
def test_comm_reads_a_json_matrix_as_its_csv(tmp_path, capsys, form):
    rows = [[0.25, 0.75], [1, 0], [0.5, 0.5]]
    csv = tmp_path / "m.csv"
    csv.write_text("0.25,0.75\n1,0\n0.5,0.5\n")
    js = tmp_path / "m.json"
    js.write_text(json.dumps({"matrix": rows} if form == "dict" else rows))
    code, from_csv = run_cli(["comm", str(csv)], capsys)
    assert code == 0
    code, from_json = run_cli(["comm", str(js)], capsys)
    assert code == 0 and from_json == from_csv
    assert json.loads(from_json)["rank"] == 2


def test_json_matrix_object_without_matrix_key_is_an_error(tmp_path, capsys):
    js = tmp_path / "m.json"
    js.write_text(json.dumps({"rows": [[1, 0], [0, 1]]}))
    assert main(["comm", str(js)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and str(js) in captured.err and '"matrix"' in captured.err


@pytest.mark.parametrize("backend", ["float", "exact"])
def test_non_table_report_in_csv_and_text(hexagon_files, capsys, backend):
    """A report without rows is one JSON line in csv and one ``key: value``
    line per key in text, each value printed as its JSON text, so exact
    scalars read "1/2" in every format."""
    args = ["--backend", backend, "comm", "compare", hexagon_files["V2"], hexagon_files["I2"]]
    code, out = run_cli(args, capsys)
    report = json.loads(out)
    assert code == 0 and report["verdict"] == "yes"
    code, out = run_cli(args + ["--format", "csv"], capsys)
    assert code == 0 and out.count("\n") == 1 and json.loads(out) == report
    code, out = run_cli(args + ["--format", "text"], capsys)
    lines = [line.split(": ", 1) for line in out.splitlines()]
    assert code == 0 and [key for key, _ in lines] == sorted(report)
    assert {key: json.loads(value) for key, value in lines} == report


def test_malformed_env_seed_is_an_error(monkeypatch, capsys):
    monkeypatch.setenv("GPTWB_SEED", "abc")
    assert main(["tables", "noise_bounds"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "GPTWB_SEED" in captured.err


@pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
def test_tolerance_outside_the_finite_nonnegatives_is_an_error(hexagon_files, tolerance, capsys):
    for args in (["tables", "noise_bounds"],
                 ["check", "ultraweak", hexagon_files["V2"], hexagon_files["I2"]]):
        assert main(["--tolerance", tolerance] + args) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "tolerance" in captured.err


def test_tolerance_at_the_floor_decides(hexagon_files, capsys):
    """At --tolerance 1e-12 the irreducibles, a joint and the irreducible
    table all build."""
    t = hexagon_files["t"]
    for args in (["check", "compat", t, t], ["check", "sim", t, "--simulators", "irr(polygon:6)"],
                 ["tables", "irreducibles"]):
        assert run_cli(["--tolerance", "1e-12"] + args, capsys)[0] == 0


@pytest.mark.parametrize("tolerance", ["-1", "nan", "inf", "0", "1e-13"])
def test_exact_backend_refuses_the_tolerance_floats_refuse(tolerance, capsys):
    # the exact backend ignores the tolerance, but does not accept a bad one
    assert main(["--backend", "exact", "--tolerance", tolerance, "tables", "noise_bounds"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "tolerance" in captured.err
