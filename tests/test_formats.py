import json

import numpy as np
import pytest

from bearing_rigidity import (GeneratorSpec, MetricSpace, ParseError,
                              TolerancePolicy, analysis_report, dumps,
                              export_dot, fixture, framework_from_json,
                              framework_to_json, hetero_case_study,
                              load_framework, random_framework,
                              rigidity_matrix, space_from_json, space_to_json,
                              unified_rigidity_matrix, write_matrix_csv)

POL = TolerancePolicy()

ROUND_TRIP_CASES = [
    fixture("triangle-r2-complete"),
    fixture("square-cycle-r2"),
    fixture("triangle-r2s1-complete"),
    fixture("cube-se3-complete"),
    hetero_case_study(seed=1),
    random_framework(GeneratorSpec(space=MetricSpace.rd_s1(
        3, axis=(0.0, 1.0, 0.0)), n=4, seed=2)),
]


@pytest.mark.parametrize("fw", ROUND_TRIP_CASES,
                         ids=lambda f: f"{f.n}agents-{f.graph.kind}")
def test_framework_round_trip(fw):
    doc = framework_to_json(fw)
    back = framework_from_json(json.loads(dumps(doc)))
    assert back.graph == fw.graph
    assert back.space == fw.space
    np.testing.assert_allclose(back.positions(), fw.positions(), atol=1e-15)
    for i in range(1, fw.n + 1):
        np.testing.assert_allclose(back.rotation_of(i), fw.rotation_of(i),
                                   atol=1e-12)


def test_planar_positions_serialize_as_pairs():
    doc = framework_to_json(fixture("triangle-r2-complete"))
    assert all(len(a["p"]) == 2 for a in doc["agents"])
    doc3 = framework_to_json(fixture("cube-se3-complete"))
    assert all(len(a["p"]) == 3 for a in doc3["agents"])


def test_space_tags():
    assert space_to_json(MetricSpace.rd(3)) == {"type": "rd", "d": 3}
    assert space_to_json(MetricSpace.se3()) == {"type": "se3"}
    tagged = space_to_json(MetricSpace.rd_s1(3, axis=(0.0, 0.0, 1.0)))
    assert tagged["axis"] == [0.0, 0.0, 1.0]
    assert space_from_json({"type": "rdxs1", "d": 2}) == MetricSpace.rd_s1(2)


@pytest.mark.parametrize("doc", [
    [],
    {"space": {"type": "rd", "d": 2}},
    {"space": {"type": "warp", "d": 2}, "graph": {}, "agents": []},
    {"space": {"type": "rd", "d": 2},
     "graph": {"n": 3, "kind": "undirected", "edges": [[1, 2]]},
     "agents": [{"alpha": 1.0}]},
    {"space": {"type": "rd", "d": 2},
     "graph": {"n": 3, "kind": "undirected", "edges": [[1, 2]]},
     "agents": [{"p": [0.0, 0.0, 0.0, 0.0]}]},
])
def test_malformed_documents_raise_parse_errors(doc):
    with pytest.raises(ParseError):
        framework_from_json(doc)


@pytest.mark.parametrize("p", [[[0.0], [1.0]], [[0.0, 1.0]]], ids=["column", "row"])
def test_positions_must_be_flat_lists_of_numbers(p):
    # flattened, [[0.0], [1.0]] would read as the position (0, 1)
    doc = {"space": {"type": "rd", "d": 2},
           "graph": {"n": 3, "kind": "undirected", "edges": [[1, 2], [2, 3]]},
           "agents": [{"p": p}, {"p": [1.0, 0.0]}, {"p": [0.0, 1.0]}]}
    with pytest.raises(ParseError, match="agent 1 position"):
        framework_from_json(doc)


@pytest.mark.parametrize("axis", [[[0, 0, 1]], [[0], [0], [1]], 1.0],
                         ids=["row", "column", "scalar"])
def test_axis_must_be_a_flat_list_of_numbers(axis):
    doc = {"space": {"type": "rdxs1", "d": 3, "axis": axis},
           "graph": {"n": 3, "kind": "directed", "edges": [[1, 2], [2, 3]]},
           "agents": [{"p": p, "alpha": 0.0}
                      for p in ([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])]}
    with pytest.raises(ParseError, match="axis"):
        framework_from_json(doc)


def test_load_framework_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        load_framework(str(p))


def test_matrix_csv_and_sidecar(tmp_path):
    fw = fixture("triangle-r2s1-complete")
    rm = rigidity_matrix(fw)
    csv_path, sidecar_path = write_matrix_csv(rm, str(tmp_path / "mat"))
    loaded = np.loadtxt(csv_path, delimiter=",")
    np.testing.assert_array_equal(loaded, rm.matrix)
    side = json.loads(open(sidecar_path, encoding="utf-8").read())
    assert side["representation"] == "per_space"
    assert side["shape"] == [12, 9]
    assert len(side["row_blocks"]) == fw.m
    assert side["col_blocks"][0]["rotation"] is not None

    rm_u = unified_rigidity_matrix(fw)
    csv_u, _ = write_matrix_csv(rm_u, str(tmp_path / "uni"))
    assert np.loadtxt(csv_u, delimiter=",").shape == (18, 18)


def test_report_fields_homogeneous():
    rep = analysis_report(fixture("triangle-r2-complete"), POL, seed=4)
    assert rep["schema_version"] == "1"
    assert rep["framework"]["n"] == 3
    assert rep["framework"]["homogeneous"]
    assert rep["verdict"]["classification"] == "IBR"
    assert rep["subspaces"]["trivial"]["dim"] == 3
    assert rep["fd_check"]["max_rel_error"] < 1e-5
    assert rep["seed"] == 4
    assert rep["timing_seconds"] is None


def test_report_fields_heterogeneous():
    rep = analysis_report(hetero_case_study(seed=0), POL)
    assert rep["subspaces"]["trivial"]["dim"] == 5
    assert rep["subspaces"]["virtual"]["dim"] == 6
    assert len(rep["subspaces"]["zero_columns"]) == 6
    assert rep["verdict"]["expected_rank"] is None


def test_report_degenerate_framework():
    collinear = random_framework(GeneratorSpec(
        space=MetricSpace.rd(2), n=4, placement="collinear", seed=0))
    rep = analysis_report(collinear, POL)
    assert rep["framework"]["degenerate"]
    assert rep["subspaces"]["trivial"] is None
    assert "note" in rep["subspaces"]


def test_reports_are_byte_identical_across_runs():
    fw = fixture("cube-se3-complete")
    a = dumps(analysis_report(fw, POL, seed=1))
    b = dumps(analysis_report(fw, POL, seed=1))
    assert a == b
    c = dumps(analysis_report(fw, POL, seed=2))
    assert a != c  # the probe seed is part of the document


def test_dot_export_styles():
    fw = fixture("square-cycle-r2")
    plain = export_dot(fw)
    assert plain.startswith("graph framework {")
    assert "v1 -- v2;" in plain
    assert 'pos="0,0!"' in plain

    augmented = fixture("square-diagonal-r2")
    dashed = export_dot(augmented, added_edges=((1, 3),))
    assert 'v1 -- v3 [style=dashed, color=blue, added="true"];' in dashed

    directed = export_dot(fixture("triangle-r2s1-complete"))
    assert directed.startswith("digraph framework {")
    assert "v1 -> v2;" in directed
