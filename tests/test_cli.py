import json
import pathlib
import warnings

import numpy as np
import pytest

from bearing_rigidity import (GeneratorSpec, MetricSpace, NumericalError,
                              augment_to_ibr, engine, fixture, ibr_verdict,
                              random_framework)
from bearing_rigidity import cli
from bearing_rigidity.cli import main
from bearing_rigidity.formats import framework_to_json


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


@pytest.mark.parametrize("name,resolved", [("square-diagonal-r2", "per-space"),
                                           ("hetero-case-study", "unified")])
def test_auto_matrix_csv_is_the_verdict_form(tmp_path, capsys, name, resolved):
    written = {}
    for rep in ("auto", resolved):
        prefix = tmp_path / rep
        code, _, _ = run(capsys, "analyze", name, "--matrix-csv", str(prefix),
                         "--representation", rep)
        assert code == 0
        written[rep] = [pathlib.Path(str(prefix) + ext).read_bytes()
                        for ext in (".csv", ".blocks.json")]
    assert written["auto"] == written[resolved]


def test_per_space_matrix_of_a_mixed_team_is_refused(tmp_path, capsys, monkeypatch):
    # refused before the analysis runs, in the CLI's own terms
    reports = []
    monkeypatch.setattr(cli, "analysis_report",
                        lambda *args, **kwargs: reports.append(args))
    prefix, report = tmp_path / "mat", tmp_path / "report.json"
    code, out, err = run(capsys, "analyze", "hetero-case-study", "--matrix-csv",
                         str(prefix), "--representation", "per-space",
                         "--report", str(report))
    assert code == 3 and out == "" and one_error_line(err)
    assert "--representation unified" in err
    assert sorted(tmp_path.iterdir()) == []
    assert reports == []


def test_analyze_missing_input_is_parse_error(capsys):
    code, _, err = run(capsys, "analyze", "no-such-thing")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [(), ("analyse", "star-r2"), ("gen", "--space", "mixed"),
                                  ("gen",), ("analyze",), ("batch", ".", "--fd-trials", "x"),
                                  ("export-dot", "star-r2", "--bogus")],
                         ids=["no-command", "unknown-command", "bad-choice",
                              "missing-group", "missing-input", "bad-int", "unknown-flag"])
def test_bad_arguments_are_one_error_line(capsys, argv):
    # usage errors return exit 2 from main like every other parse error,
    # with no usage block and no SystemExit
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert one_error_line(err) and err.startswith("error: brl")


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


@pytest.mark.parametrize("s", [1e308, 1.5e308])
def test_coordinates_near_the_float_maximum_are_decided(tmp_path, capsys, s):
    # the coordinates' sums overflow, so lengths are taken on positions
    # divided by a power of two before they are centered
    path = write_triangle(tmp_path, agents=[{"p": [0.0, 0.0]}, {"p": [s, 0.0]},
                                            {"p": [s, s]}])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "analyze", path)
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"]["classification"] == "IBR"


@pytest.mark.parametrize("space,graph", [
    ({"type": "rd", "d": "x"}, None),
    ({"type": "rdxs1", "d": 2.0}, None),
    (None, {"n": 3.7, "kind": "undirected", "edges": [[1, 2], [1, 3], [2, 3]]}),
    (None, {"n": 3, "kind": "undirected", "edges": ["12", "23", "13"]}),
    (None, {"n": 3, "kind": "undirected", "edges": [[1, 2], [1, 3], [2, True]]}),
    (None, {"n": 3, "kind": "undirected", "edges": {"1": 2}}),
    (None, "triangle"),
], ids=["string-d", "float-d", "float-n", "string-edges", "bool-endpoint",
        "edges-object", "graph-not-object"])
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
    (None, {"p": [0.0, 0.0]}),
], ids=["string-position", "bool-position", "string-heading", "string-rotation",
        "string-axis", "nested-position", "nested-axis", "agents-not-list"])
def test_numeric_strings_in_agent_states_are_parse_errors(tmp_path, capsys, space,
                                                          agents):
    graph = None
    if space is not None:
        graph = {"n": 3, "kind": "directed", "edges": [[1, 2], [2, 3], [3, 1]]}
    code, out, err = run(capsys, "analyze",
                         write_triangle(tmp_path, space, graph, agents))
    assert code == 2
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize("R", [[1, 0, 0, 0, 1, 0, 0, 0, 1],
                               [[[1, 0, 0]], [[0, 1, 0]], [[0, 0, 1]]],
                               [[1, 0], [0, 1], [0, 0]]],
                         ids=["flat", "nested", "short-rows"])
def test_malformed_rotation_shapes_are_parse_errors(tmp_path, capsys, R):
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    agents = [{"p": [0.0, 0.0, 0.0], "R": R}, {"p": [1.0, 0.0, 0.0], "R": eye},
              {"p": [0.0, 1.0, 0.0], "R": eye}]
    path = write_triangle(tmp_path, {"type": "se3"},
                          {"n": 3, "kind": "directed", "edges": [[1, 2], [2, 3], [3, 1]]},
                          agents)
    code, out, err = run(capsys, "analyze", path)
    assert code == 2
    assert out == "" and err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("big", [1.0 + 1e-7, 1e308, -1e308])
def test_rotation_entries_beyond_one_are_refused_before_any_product(tmp_path, capsys,
                                                                   big):
    # an orthonormal matrix has every entry in [-1, 1]; 1e308 would overflow
    # R^T R, and the warning would escape as a traceback under -W error
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    agents = [{"p": [0.0, 0.0, 0.0], "R": [[big, 0, 0], [0, 1, 0], [0, 0, 1]]},
              {"p": [1.0, 0.0, 0.0], "R": eye}, {"p": [0.0, 1.0, 0.0], "R": eye}]
    path = write_triangle(tmp_path, {"type": "se3"},
                          {"n": 3, "kind": "directed", "edges": [[1, 2], [2, 3], [3, 1]]},
                          agents)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "analyze", path)
    assert code == 3
    assert out == "" and err == "error: rotation is not orthonormal with det +1\n"


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


@pytest.mark.parametrize("flags", [("--rank-rtol", "1"), ("--rank-rtol", "1e-15"),
                                   ("--fd-step", "inf"), ("--fd-step", "1e300")],
                         ids=["rank-rtol-1", "rank-rtol-1e-15", "fd-step-inf",
                              "fd-step-1e300"])
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


@pytest.mark.parametrize("content", [None, "{not json", "[1e-9]",
                                     b'{"seed": "\xe9t\xe9"}',
                                     '{"seed": 1%s}' % ("0" * 5000),
                                     "[" * 100000 + "]" * 100000],
                         ids=["missing", "malformed", "not-an-object", "not-utf8",
                              "5001-digit-integer", "nested-100000-deep"])
def test_unusable_config_files_are_parse_errors(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    if isinstance(content, bytes):
        cfg.write_bytes(content)
    elif content is not None:
        cfg.write_text(content, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "analyze", "star-r2", "--config", str(cfg))
    assert code == 2 and out == ""
    assert one_error_line(err)


@pytest.mark.parametrize("text", ['{"space": {"type": "rd", "d": 1%s}}' % ("0" * 5000),
                                  "[" * 100000 + "]" * 100000,
                                  '{"a": ' * 100000 + "1" + "}" * 100000],
                         ids=["5001-digit-integer", "list-nested-100000-deep",
                              "object-nested-100000-deep"])
def test_undecodable_framework_files_are_parse_errors(tmp_path, capsys, text):
    path = tmp_path / "fw.json"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and out == ""
    assert one_error_line(err) and err.startswith(f"error: {path}: ")


# an integer literal beyond the float range reads as an infinity, which the
# finiteness checks refuse
BIG = 10 ** 400
DIRECTED = {"n": 3, "kind": "directed", "edges": [[1, 2], [2, 3], [3, 1]]}
EYE = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("space,agents,message", [
    (None, [{"p": [0, 0]}, {"p": [BIG, 0]}, {"p": [0, 1]}], "position contains NaN or Inf"),
    (None, [{"p": [0, 0]}, {"p": [1, -BIG]}, {"p": [0, 1]}], "position contains NaN or Inf"),
    ({"type": "rdxs1", "d": 2},
     [{"p": [0, 0], "alpha": BIG}, {"p": [1, 0], "alpha": 0}, {"p": [0, 1], "alpha": 0}],
     "heading angle is NaN or Inf"),
    ({"type": "se3"},
     [{"p": [0, 0, 0], "R": [[BIG, 0, 0], [0, 1, 0], [0, 0, 1]]},
      {"p": [1, 0, 0], "R": EYE}, {"p": [0, 1, 0], "R": EYE}],
     "rotation contains NaN or Inf"),
    ({"type": "rdxs1", "d": 3, "axis": [BIG, 0, 1]},
     [{"p": p, "alpha": 0} for p in ([0, 0, 0], [1, 0, 0], [0, 1, 0])],
     "rotation axis must be a unit 3-vector"),
], ids=["coordinate", "negative-coordinate", "heading", "rotation", "axis"])
def test_integers_beyond_the_float_range_are_validation_errors(tmp_path, capsys, space,
                                                               agents, message):
    path = write_triangle(tmp_path, space, DIRECTED if space else None, agents)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "analyze", path)
    assert code == 3 and out == ""
    assert err == f"error: {message}\n"


def test_integer_config_tolerance_beyond_the_float_range_is_a_validation_error(
        tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fd_step": BIG}), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "analyze", "star-r2", "--config", str(cfg))
    assert code == 3 and out == ""
    assert one_error_line(err) and "fd_step" in err


@pytest.mark.parametrize("space,agents,message", [
    ([{"type": "rd", "d": 2}] * 2, None, "need one space per agent (3), got 2"),
    (None, [{"p": [0, 0]}, {"p": [1, 0]}], "need one state per agent (3), got 2"),
    (None, [{"p": [0, 0], "alpha": 0.5}, {"p": [1, 0]}, {"p": [0, 1]}],
     "agent 1 is position-only but has an orientation"),
], ids=["spaces-short", "states-short", "orientation-on-position-only"])
def test_agents_that_do_not_match_the_document_are_validation_errors(
        tmp_path, capsys, space, agents, message):
    code, out, err = run(capsys, "analyze", write_triangle(tmp_path, space, None, agents))
    assert (code, out, err) == (3, "", f"error: {message}\n")


def test_a_complete_kernel_outside_the_framework_kernel_is_a_numerical_error(
        tmp_path, capsys):
    # a complete graph on a line of agents jittered off it by 1e-8: they span
    # a plane, so the complete kernel is the closed-form trivial basis, but
    # the jitter's singular values straddle the rank threshold and the kernel
    # left above it misses that basis by more than subspace_tol
    fw = random_framework(GeneratorSpec(MetricSpace.rd(2), n=6, seed=3,
                                        placement="collinear"))
    doc = framework_to_json(fw)
    rng = np.random.default_rng(0)
    for agent in doc["agents"]:
        agent["p"][1] += 1e-8 * rng.standard_normal()
    path = tmp_path / "jittered.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (("analyze", str(path)), ("export-dot", str(path), "--augment")):
        code, out, err = run(capsys, *argv)
        assert code == 4 and out == ""
        assert one_error_line(err)
        assert err.startswith("error: complete-graph kernel not contained")


def test_augmenting_a_complete_graph_decided_flexible_is_a_numerical_error(
        tmp_path, capsys, monkeypatch):
    # a complete kernel one column short decides a complete graph IBF, and
    # then no candidate is left to raise the rank
    def one_column_short(unit, pol, _original=engine._complete_kernel):
        Nk, trivial, degenerate = _original(unit, pol)
        return Nk[:, 1:], trivial, degenerate

    monkeypatch.setattr(engine, "_complete_kernel", one_column_short)
    for name in ("triangle-r2-complete", "cube-se3-complete"):
        fw = fixture(name)
        assert ibr_verdict(fw).classification == "IBF"
        with pytest.raises(NumericalError, match="no candidate edge"):
            augment_to_ibr(fw)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(framework_to_json(fw)), encoding="utf-8")
        code, out, err = run(capsys, "export-dot", str(path), "--augment")
        assert code == 4 and out == ""
        assert one_error_line(err) and "no candidate edge" in err


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
    # an axis is refused where it is not a unit 3-vector and where the space
    # has none (r2s1 takes only the out-of-plane one)
    out_path = tmp_path / "team.json"
    for space, axis in (("r3s1", "nan,0,0"), ("r3s1", "1,0"), ("se3", "1,0"),
                        ("r2", "1,0,0"), ("r3", "0,0,1"), ("r2s1", "1,0,0")):
        code, out, err = run(capsys, "gen", "--space", space, "--axis", axis,
                             "-o", str(out_path))
        assert code == 3 and out == "" and one_error_line(err), (space, axis)
        assert not out_path.exists()


@pytest.mark.parametrize("how", ["analyze", "gen"])
def test_an_axis_entry_beyond_one_is_refused_before_the_norm(tmp_path, capsys, how):
    # a unit axis has every entry in [-1, 1]; the square of 1e200 would
    # overflow the norm, and the warning escape as a traceback under -W error
    if how == "analyze":
        argv = ("analyze", write_triangle(
            tmp_path, {"type": "rdxs1", "d": 3, "axis": [1e200, 0, 1]}, DIRECTED,
            [{"p": p, "alpha": 0.0} for p in ([0, 0, 0], [1, 0, 0], [0, 1, 0])]))
    else:
        argv = ("gen", "--space", "r3s1", "--axis", "1e200,0,1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err == "error: rotation axis must be a unit 3-vector\n"


def test_gen_r3s1_without_an_axis_turns_about_z(capsys):
    code, out, err = run(capsys, "gen", "--space", "r3s1", "--n", "4")
    assert (code, err) == (0, "")
    assert json.loads(out)["space"] == {"type": "rdxs1", "d": 3, "axis": [0.0, 0.0, 1.0]}


def test_gen_planar_heading_takes_the_out_of_plane_axis(capsys):
    code, out, _ = run(capsys, "gen", "--space", "r2s1", "--axis", "0,0,1")
    assert code == 0
    assert json.loads(out)["space"] == {"type": "rdxs1", "d": 2}


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
    # batch rejects the flag once, before it reads the directory: no table
    run(capsys, "gen", "--fixture", "square-diagonal-r2", "-o", str(tmp_path / "sq.json"))
    for directory in (tmp_path, tmp_path / "missing"):
        code, out, err = run(capsys, "batch", str(directory), "--fd-trials", trials)
        assert code == 3 and out == ""
        assert one_error_line(err) and "fd-trials" in err


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
