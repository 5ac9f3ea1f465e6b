import json

import numpy as np
import pytest

from bearing_rigidity.cli import main


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("BRL_TOLERANCE_PROFILE", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_fixture_to_stdout(capsys):
    code, out, _ = run(capsys, "analyze", "triangle-r2-complete")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["classification"] == "IBR"
    assert report["framework"]["n"] == 3
    assert report["timing_seconds"] is None


def test_analyze_timing_flag(capsys):
    code, out, _ = run(capsys, "analyze", "triangle-r2-complete", "--timing")
    assert code == 0
    assert json.loads(out)["timing_seconds"] > 0


def test_analyze_report_and_matrix_files(tmp_path, capsys):
    rep_path = tmp_path / "report.json"
    prefix = tmp_path / "mat"
    code, out, _ = run(capsys, "analyze", "triangle-r2s1-complete",
                       "--report", str(rep_path),
                       "--matrix-csv", str(prefix),
                       "--representation", "unified")
    assert code == 0
    assert out == ""
    report = json.loads(rep_path.read_text(encoding="utf-8"))
    assert report["verdict"]["rank"] == 5
    M = np.loadtxt(str(prefix) + ".csv", delimiter=",")
    assert M.shape == (18, 18)
    side = json.loads((tmp_path / "mat.blocks.json").read_text(encoding="utf-8"))
    assert side["representation"] == "unified"


def test_analyze_missing_input_is_parse_error(capsys):
    code, _, err = run(capsys, "analyze", "no-such-thing")
    assert code == 2
    assert "error:" in err


def test_analyze_coincident_agents_is_validation_error(tmp_path, capsys):
    doc = {
        "space": {"type": "rd", "d": 2},
        "graph": {"n": 3, "kind": "undirected",
                  "edges": [[1, 2], [1, 3], [2, 3]]},
        "agents": [{"p": [0.0, 0.0]}, {"p": [0.0, 0.0]}, {"p": [1.0, 1.0]}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 3
    assert "coincide" in err


def test_analyze_unknown_space_is_parse_error(tmp_path, capsys):
    path = tmp_path / "weird.json"
    path.write_text('{"space": {"type": "warp"}, "graph": {}, "agents": []}',
                    encoding="utf-8")
    code, _, _ = run(capsys, "analyze", str(path))
    assert code == 2


def write_triangle(tmp_path, space=None, graph=None, agents=None):
    doc = {
        "space": space or {"type": "rd", "d": 2},
        "graph": graph or {"n": 3, "kind": "undirected",
                           "edges": [[1, 2], [1, 3], [2, 3]]},
        "agents": agents or [{"p": [0.0, 0.0]}, {"p": [1.0, 0.0]},
                             {"p": [0.0, 1.0]}],
    }
    path = tmp_path / "fw.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("space,graph", [
    ({"type": "rd", "d": "x"}, None),
    ({"type": "rdxs1", "d": 2.0}, None),
    (None, {"n": 3.7, "kind": "undirected", "edges": [[1, 2], [1, 3], [2, 3]]}),
    (None, {"n": 3, "kind": "undirected", "edges": ["12", "23", "13"]}),
    (None, {"n": 3, "kind": "undirected", "edges": [[1, 2], [1, 3], [2, True]]}),
    (None, {"n": 3, "kind": "undirected", "edges": {"1": 2}}),
], ids=["string-d", "float-d", "float-n", "string-edges", "bool-endpoint",
        "edges-object"])
def test_malformed_numbers_are_parse_errors(tmp_path, capsys, space, graph):
    code, _, err = run(capsys, "analyze", write_triangle(tmp_path, space, graph))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("space,agents", [
    (None, [{"p": ["0", "0"]}, {"p": [1.0, 0.0]}, {"p": [0.0, 1.0]}]),
    (None, [{"p": [0.0, 0.0]}, {"p": [1.0, False]}, {"p": [0.0, 1.0]}]),
    ({"type": "rdxs1", "d": 2},
     [{"p": [0.0, 0.0], "alpha": "1"}, {"p": [1.0, 0.0], "alpha": 0.0},
      {"p": [0.0, 1.0], "alpha": 0.0}]),
    ({"type": "se3"},
     [{"p": [0.0, 0.0, 0.0], "R": [["1", 0, 0], [0, 1, 0], [0, 0, 1]]},
      {"p": [1.0, 0.0, 0.0], "R": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
      {"p": [0.0, 1.0, 0.0], "R": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}]),
    ({"type": "rdxs1", "d": 3, "axis": ["0", "0", "1"]},
     [{"p": [0.0, 0.0, 0.0], "alpha": 0.0}, {"p": [1.0, 0.0, 0.0], "alpha": 0.0},
      {"p": [0.0, 1.0, 0.0], "alpha": 0.0}]),
    (None, [{"p": [[0.0], [1.0]]}, {"p": [1.0, 0.0]}, {"p": [0.0, 1.0]}]),
    ({"type": "rdxs1", "d": 3, "axis": [[0, 0, 1]]},
     [{"p": [0.0, 0.0, 0.0], "alpha": 0.0}, {"p": [1.0, 0.0, 0.0], "alpha": 0.0},
      {"p": [0.0, 1.0, 0.0], "alpha": 0.0}]),
], ids=["string-position", "bool-position", "string-heading", "string-rotation",
        "string-axis", "nested-position", "nested-axis"])
def test_numeric_strings_in_agent_states_are_parse_errors(tmp_path, capsys, space,
                                                          agents):
    graph = None
    if space is not None:
        graph = {"n": 3, "kind": "directed", "edges": [[1, 2], [2, 3], [3, 1]]}
    code, out, err = run(capsys, "analyze",
                         write_triangle(tmp_path, space, graph, agents))
    assert code == 2
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize("config", [{"fd_step": "x"}, {"rank_rtol": "1e-9"},
                                    {"subspace_tol": True}, {"seed": 2.5},
                                    {"seed": "3"}])
def test_malformed_config_values_are_parse_errors(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = run(capsys, "analyze", "triangle-r2-complete",
                         "--config", str(cfg))
    assert code == 2
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
def test_non_finite_heading_is_a_validation_error(tmp_path, capsys, alpha):
    # json.dumps writes these as the NaN and Infinity literals
    path = write_triangle(tmp_path, space={"type": "rdxs1", "d": 2},
                          graph={"n": 3, "kind": "directed",
                                 "edges": [[1, 2], [2, 3], [3, 1]]},
                          agents=[{"p": [0.0, 0.0], "alpha": 0.0},
                                  {"p": [1.0, 0.0], "alpha": alpha},
                                  {"p": [0.0, 1.0], "alpha": 1.0}])
    code, _, err = run(capsys, "analyze", path)
    assert code == 3
    assert err.startswith("error:") and "heading angle" in err


def test_inconsistent_tolerances_are_a_numerical_error(capsys):
    # a containment tolerance of 1 or more would make every kernel look
    # equal to the complete graph's, so it is rejected as out of range
    code, out, err = run(capsys, "analyze", "star-r2", "--subspace-tol", "1e6")
    assert code == 3 and out == ""
    assert one_error_line(err) and "subspace_tol" in err


def test_export_dot_augment_agrees_with_analyze_on_inconsistent_tolerances(capsys):
    for argv in (("analyze", "star-r2"), ("export-dot", "star-r2", "--augment")):
        code, out, err = run(capsys, *argv, "--subspace-tol", "10")
        assert code == 3 and out == ""
        assert one_error_line(err) and "subspace_tol" in err


def one_error_line(err):
    lines = err.strip().splitlines()
    return len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("flags", [("--rank-rtol", "1"), ("--fd-step", "inf"),
                                   ("--fd-step", "1e300")],
                         ids=["rank-rtol-1", "fd-step-inf", "fd-step-1e300"])
def test_out_of_range_tolerance_flags_are_validation_errors(capsys, flags):
    code, out, err = run(capsys, "analyze", "star-r2", *flags)
    assert code == 3 and out == ""
    assert one_error_line(err)


def test_infinite_config_tolerance_is_a_validation_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"rank_rtol": 1e999}', encoding="utf-8")  # parses as inf
    code, out, err = run(capsys, "analyze", "star-r2", "--config", str(cfg))
    assert code == 3 and out == ""
    assert one_error_line(err)


def test_analyze_a_directory_is_an_error_line(tmp_path, capsys):
    code, out, err = run(capsys, "analyze", str(tmp_path))
    assert code == 2 and out == ""
    assert one_error_line(err)


def test_analyze_non_utf8_input_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"space": "\u00e9t\u00e9"}'.encode("latin-1"))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and out == ""
    assert one_error_line(err)


@pytest.mark.parametrize("argv", [
    ("analyze", "star-r2", "--report", "{missing}/report.json"),
    ("analyze", "star-r2", "--matrix-csv", "{missing}/mat"),
    ("gen", "--fixture", "star-r2", "-o", "{missing}/fw.json"),
], ids=["report", "matrix-csv", "gen-output"])
def test_output_into_a_missing_directory_is_an_error_line(tmp_path, capsys, argv):
    missing = tmp_path / "missing"
    code, out, err = run(capsys, *(a.format(missing=missing) for a in argv))
    assert code == 2 and out == ""
    assert one_error_line(err)


def test_gen_fixture_round_trips_through_analyze(tmp_path, capsys):
    out_path = tmp_path / "fw.json"
    code, _, _ = run(capsys, "gen", "--fixture", "cube-se3-complete",
                     "-o", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "analyze", str(out_path))
    assert code == 0
    assert json.loads(out)["verdict"]["classification"] == "IBR"


def test_gen_random_space_deterministic(capsys):
    code, first, _ = run(capsys, "gen", "--space", "r3s1", "--n", "4",
                         "--axis", "0,1,0", "--seed", "9")
    assert code == 0
    code, second, _ = run(capsys, "gen", "--space", "r3s1", "--n", "4",
                          "--axis", "0,1,0", "--seed", "9")
    assert first == second
    doc = json.loads(first)
    assert doc["space"]["axis"] == [0.0, 1.0, 0.0]
    assert len(doc["agents"]) == 4


def test_gen_bad_axis(capsys):
    code, _, _ = run(capsys, "gen", "--space", "r3s1", "--axis", "up")
    assert code == 2


@pytest.mark.parametrize("argv", [("analyze", "star-r2"), ("gen", "--space", "r2"),
                                  ("export-dot", "star-r2", "--augment")],
                         ids=["analyze", "gen", "export-dot"])
def test_negative_seed_flag_is_a_validation_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--seed", "-1")
    assert code == 3 and out == ""
    assert one_error_line(err) and "seed" in err


def test_negative_config_seed_is_a_validation_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -3}), encoding="utf-8")
    code, out, err = run(capsys, "analyze", "star-r2", "--config", str(cfg))
    assert code == 3 and out == ""
    assert one_error_line(err) and "seed" in err


def test_batch_with_a_negative_seed_stops_before_any_file(tmp_path, capsys):
    code, _, _ = run(capsys, "gen", "--fixture", "star-r2",
                     "-o", str(tmp_path / "star.json"))
    assert code == 0
    code, out, err = run(capsys, "batch", str(tmp_path), "--seed", "-1")
    assert code == 3 and out == ""
    assert one_error_line(err)


def test_gen_nan_axis_is_a_validation_error(tmp_path, capsys):
    out_path = tmp_path / "team.json"
    code, out, err = run(capsys, "gen", "--space", "r3s1", "--axis", "nan,0,0",
                         "-o", str(out_path))
    assert code == 3 and out == "" and one_error_line(err)
    assert not out_path.exists()


def test_nan_axis_in_a_file_is_a_validation_error(tmp_path, capsys):
    # json.dumps writes the NaN literal, which json.load reads back
    path = write_triangle(tmp_path, space={"type": "rdxs1", "d": 3,
                                           "axis": [float("nan"), 0.0, 0.0]},
                          graph={"n": 3, "kind": "directed",
                                 "edges": [[1, 2], [2, 3], [3, 1]]},
                          agents=[{"p": p, "alpha": 0.0} for p in
                                  ([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])])
    code, out, err = run(capsys, "analyze", path)
    assert code == 3 and out == "" and one_error_line(err)


def test_gen_collinear_placement_reports_degenerate(tmp_path, capsys):
    out_path = tmp_path / "line.json"
    code, _, _ = run(capsys, "gen", "--space", "r2", "--n", "4",
                     "--placement", "collinear", "-o", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "analyze", str(out_path))
    assert code == 0
    assert json.loads(out)["framework"]["degenerate"]


def test_export_dot_augment(tmp_path, capsys):
    code, out, _ = run(capsys, "export-dot", "square-cycle-r2", "--augment")
    assert code == 0
    assert "style=dashed" in out
    assert out.count("--") >= 5  # four cycle edges plus the added diagonal


def test_batch_mixed_directory(tmp_path, capsys):
    for name in ("triangle-r2-complete", "square-cycle-r2"):
        run(capsys, "gen", "--fixture", name,
            "-o", str(tmp_path / f"{name}.json"))
    (tmp_path / "broken.json").write_text("{oops", encoding="utf-8")
    (tmp_path / "ignored.txt").write_text("not json", encoding="utf-8")
    code, out, _ = run(capsys, "batch", str(tmp_path))
    assert code == 1
    lines = out.strip().splitlines()
    assert len(lines) == 4  # header + three json rows
    assert "ERROR" in out
    assert "IBR" in out and "IBF" in out


def test_batch_all_good(tmp_path, capsys):
    run(capsys, "gen", "--fixture", "triangle-r2-complete",
        "-o", str(tmp_path / "tri.json"))
    code, out, _ = run(capsys, "batch", str(tmp_path))
    assert code == 0
    assert "tri.json" in out


def test_batch_empty_directory(tmp_path, capsys):
    code, out, _ = run(capsys, "batch", str(tmp_path))
    assert code == 0
    assert "no framework files" in out


def test_batch_not_a_directory(tmp_path, capsys):
    code, _, _ = run(capsys, "batch", str(tmp_path / "missing"))
    assert code == 2


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_fd_trials_below_one_are_rejected(tmp_path, capsys, trials):
    code, out, err = run(capsys, "analyze", "square-diagonal-r2", "--fd-trials", trials)
    assert code == 3 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in err
    run(capsys, "gen", "--fixture", "square-diagonal-r2", "-o", str(tmp_path / "sq.json"))
    code, out, _ = run(capsys, "batch", str(tmp_path), "--fd-trials", trials)
    assert code != 0 and "ERROR" in out


def test_env_profile_applies(monkeypatch, capsys):
    monkeypatch.setenv("BRL_TOLERANCE_PROFILE", "strict")
    code, out, _ = run(capsys, "analyze", "triangle-r2-complete")
    assert code == 0
    assert json.loads(out)["tolerances"]["rank_rtol"] == 1e-12


def test_env_profile_unknown(monkeypatch, capsys):
    monkeypatch.setenv("BRL_TOLERANCE_PROFILE", "sloppy")
    code, _, err = run(capsys, "analyze", "triangle-r2-complete")
    assert code == 3
    assert "sloppy" in err


def test_config_file_and_flag_precedence(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BRL_TOLERANCE_PROFILE", "strict")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fd_step": 1e-7, "seed": 3}), encoding="utf-8")
    code, out, _ = run(capsys, "analyze", "triangle-r2-complete",
                       "--config", str(cfg), "--fd-step", "1e-5")
    assert code == 0
    report = json.loads(out)
    assert report["tolerances"]["fd_step"] == 1e-5     # flag beats config
    assert report["tolerances"]["rank_rtol"] == 1e-12  # profile survives
    assert report["seed"] == 3                         # config beats default


def test_analyze_outputs_are_byte_identical(capsys):
    code, a, _ = run(capsys, "analyze", "hetero-case-study")
    assert code == 0
    code, b, _ = run(capsys, "analyze", "hetero-case-study")
    assert a == b
