import gc
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from paradecomp import cli
from paradecomp.generators import complete_bipartite, line_window, star_graph, synthetic_forest
from paradecomp.graphs import bipartite_graph, graph_to_obj
from paradecomp.layers import LayerSchedule, geometric_schedule
from paradecomp.matcher import layered_perfect_matching
from paradecomp.words import iter_reduced

from oracles import match_v1_from_v2

import random


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_graph(path, g):
    path.write_text(json.dumps(graph_to_obj(g)))
    return str(path)


@pytest.fixture()
def k33(tmp_path):
    return write_graph(tmp_path / "k33.json", complete_bipartite(3, 3))


@pytest.fixture()
def star(tmp_path):
    return write_graph(tmp_path / "star.json", star_graph(3))


def test_hall_check_passes_on_k33(capsys, k33):
    code, obj = run(capsys, ["hall-check", k33])
    assert code == 0
    assert obj["schema"] == "paradecomp/hall-check/1"
    assert obj["satisfied"] is True


def test_hall_check_refuses_a_cap_below_the_floor_without_epsilon(capsys, k33):
    # the payload echoes floor and cap, so they pass the check --epsilon gets
    for flags, cap, floor in ((["--cap", "0"], 0, 1), (["--floor", "5", "--cap", "3"], 3, 5)):
        for eps in ([], ["--epsilon", "1/2"]):
            code, obj = run(capsys, ["hall-check", k33, *flags, *eps])
            assert code == 1
            assert obj == {
                "schema": "paradecomp/error/1",
                "error": "BAD_CAP",
                "message": f"size_cap {cap} below size_floor {floor}",
                "details": {"size_cap": cap, "size_floor": floor},
            }


def test_hall_check_witness_on_star(capsys, star):
    code, obj = run(capsys, ["hall-check", star, "--epsilon", "1"])
    assert code == 2
    assert obj["satisfied"] is False
    w = obj["report"]["witness"]
    assert w["side"] == 1
    assert len(w["f_set"]) > w["actual"]


def test_match_star_reports_hypothesis_failure(capsys, star):
    code, obj = run(capsys, ["match", star, "--epsilon", "1"])
    assert code == 2
    assert obj["schema"] == "paradecomp/error/1"
    assert obj["error"] == "HYPOTHESIS_FAILED"
    assert obj["details"]["witness"] is not None


def test_match_k33_writes_matching_and_dot(capsys, k33, tmp_path):
    dot = tmp_path / "k33.dot"
    code, obj = run(
        capsys,
        ["match", k33, "--epsilon", "1/4", "--cap", "2", "--dot", str(dot)],
    )
    assert code == 0
    assert len(obj["result"]["matching"]) == 3
    assert "style=bold" in dot.read_text()


def test_layers_runs(capsys, k33):
    code, obj = run(capsys, ["layers", k33, "--epsilon", "1"])
    assert code == 0
    assert obj["schema"] == "paradecomp/layers/1"
    assert obj["layering"]["layers"]


@pytest.mark.parametrize("command", ["layers", "match"])
def test_empty_schedule_list_exits_one(capsys, k33, command):
    # a given --schedule is an explicit list, even when it is empty
    code, obj = run(capsys, [command, k33, "--epsilon", "1", "--schedule", ""])
    assert code == 1
    assert obj["error"] == "BAD_INPUT"
    assert obj["message"] == "bad schedule list: ''"


@pytest.mark.parametrize(
    "flags, schedule, printed, epsilon_n",
    [
        # an explicit list prints as given, one entry past the six stages run
        (
            ["--schedule", "128,128,128,128,128,128,128", "--epsilon", "1/2"],
            LayerSchedule(Fraction(1, 2), f_list=(128,) * 7),
            {"f": [128] * 7},
            "1/8",
        ),
        (["--epsilon", "1/4"], geometric_schedule(Fraction(1, 4)), {"base": 128}, "65/512"),
    ],
)
def test_match_prints_its_schedule_once(capsys, k33, flags, schedule, printed, epsilon_n):
    code, obj = run(capsys, ["match", k33, "--cap", "2", *flags])
    assert code == 0 and obj["schema"] == "paradecomp/match/2"
    assert obj["result"] == {
        "matching": [[0, 3], [1, 4], [2, 5]],
        "layers": [[0], [1], [2], [3], [4], [5]],
        "stages": 6,
        "epsilon_n": epsilon_n,
        "schedule": printed,
    }
    # stage n picks layer n's vertex while it is still unmatched
    res = layered_perfect_matching(complete_bipartite(3, 3), schedule, cap=2)
    v1 = match_v1_from_v2(obj, schedule)["result"]
    matched = [[[0, 3]], [[1, 4]], [[2, 5]], [], [], []]
    assert v1["stages"] == [
        {"n": n, "epsilon_n": str(schedule.epsilon_after(n)), "matched": m}
        for n, m in enumerate(matched)
    ]
    assert v1["layering"] == res.layering.as_obj()


def test_match_with_no_stages_keeps_its_budget(capsys, tmp_path):
    src = write_graph(tmp_path / "empty.json", bipartite_graph([], [], []))
    code, obj = run(capsys, ["match", src, "--epsilon", "1/2"])
    assert code == 0
    assert obj["result"] == {
        "matching": [], "layers": [], "stages": 0, "epsilon_n": "1/2", "schedule": {"base": 64}
    }
    # the match/1 bytes of the same run
    assert cli.canonical_json(match_v1_from_v2(obj, geometric_schedule(Fraction(1, 2)))) == (
        '{"audit":false,"cap":8,"dot":null,"epsilon":"1/2","floor":1,"result":'
        '{"layering":{"f":[],"layers":[]},"matching":[],"stages":[]},'
        '"schema":"paradecomp/match/1"}\n'
    )


def test_unknown_flag_exits_one(k33):
    with pytest.raises(SystemExit) as ei:
        cli.main(["hall-check", k33, "--no-such-flag"])
    assert ei.value.code == 1


def test_missing_subcommand_exits_one():
    with pytest.raises(SystemExit) as ei:
        cli.main([])
    assert ei.value.code == 1


def test_malformed_json_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("this is not json")
    code, obj = run(capsys, ["hall-check", str(bad)])
    assert code == 1
    assert obj["error"] == "BAD_INPUT"


def test_missing_file_exits_one(capsys, tmp_path):
    code, obj = run(capsys, ["hall-check", str(tmp_path / "absent.json")])
    assert code == 1
    assert obj["error"] == "BAD_INPUT"


def test_bad_graph_shape_exits_one(capsys, tmp_path):
    f = tmp_path / "odd.json"
    f.write_text(json.dumps({"vertices": 5, "edges": []}))
    code, obj = run(capsys, ["hall-check", str(f)])
    assert code == 1
    assert obj["error"] == "BAD_GRAPH"
    assert "vertices" in obj["message"]


def test_boolean_edge_endpoint_exits_one(capsys, tmp_path):
    # JSON true == 1 in Python; as an endpoint it stood for vertex 1 and
    # leaked into the printed matching
    f = tmp_path / "g.json"
    f.write_text(
        json.dumps(
            {
                "vertices": [
                    {"id": 0, "side": 0},
                    {"id": 1, "side": 1},
                    {"id": 2, "side": 0},
                    {"id": 3, "side": 1},
                ],
                "edges": [[0, True], [0, 3], [2, 1], [2, 3]],
            }
        )
    )
    code, obj = run(capsys, ["match", str(f), "--epsilon", "1/100", "--cap", "1"])
    assert code == 1
    assert obj["error"] == "BAD_GRAPH"
    assert "edges[0]" in obj["message"]


def test_boolean_side_exits_one(capsys, tmp_path):
    # JSON true == 1 in Python, so a boolean side would pass for side 1
    f = tmp_path / "g.json"
    f.write_text(json.dumps({"vertices": [{"id": 1, "side": True}], "edges": []}))
    code, obj = run(capsys, ["hall-check", str(f)])
    assert code == 1
    assert obj["error"] == "BAD_GRAPH"
    assert "vertices[0].side" in obj["message"]


@pytest.mark.parametrize(
    "data, message",
    [
        ({"vertices": [{"id": 0}], "edges": []}, "vertices[0]: needs id and side"),
        (
            {"vertices": [{"id": 0, "side": 0}, {"id": "1", "side": 1}], "edges": []},
            "vertices[1].id: expected an integer",
        ),
        ({"vertices": [{"id": 0, "side": 0}], "edges": {}}, "edges: expected a list"),
    ],
    ids=["vertex_without_side", "string_id", "edges_object"],
)
def test_graph_reader_refusals_exit_one(capsys, tmp_path, data, message):
    f = tmp_path / "g.json"
    f.write_text(json.dumps(data))
    code, obj = run(capsys, ["hall-check", str(f)])
    assert code == 1
    assert obj["error"] == "BAD_GRAPH"
    assert obj["message"] == message


@pytest.mark.parametrize(
    "base, code, error, message",
    [
        ("1,x,0", 1, "BAD_INPUT", "bad base point: '1,x,0'"),
        ("1,1,0", 2, "PRECONDITION", "base (1, 1, 0, 0) is not a unit vector"),
    ],
    ids=["not_numbers", "not_a_unit_vector"],
)
def test_demo_bad_sphere_base(capsys, base, code, error, message):
    argv = ["demo", "--kind", "sphere", "--radius", "5", "--base", base]
    got, obj = run(capsys, argv)
    assert got == code
    assert (obj["error"], obj["message"]) == (error, message)


@pytest.mark.parametrize("radius, letters", [("40", 37), ("22", 19)])
def test_demo_refuses_a_window_its_tables_cannot_index(capsys, radius, letters):
    # demo holds radius - margin + 1 letters; 19 is the least its int32 tables
    # cannot index, and the refusal comes before any table is allocated
    assert cli.main(["demo", "--kind", "f2", "--radius", radius]) == 2
    message = (
        f"window would hold words of {letters} letters; "
        "its tables index words of at most 18"
    )
    assert capsys.readouterr().out == (
        f'{{"error":"PRECONDITION","message":"{message}","schema":"paradecomp/error/1"}}\n'
    )


def test_unwritable_outputs_exit_one(capsys, tmp_path, k33):
    missing = tmp_path / "absent"
    out = str(missing / "x.json")
    argv = ["paradox", "--kind", "f2", "--radius", "5", "--margin", "2", "--out", out]
    code, obj = run(capsys, argv)
    assert code == 1
    assert obj["error"] == "BAD_INPUT"
    assert obj["message"].startswith(f"cannot write {out}")
    dot = str(missing / "x.dot")
    argv = ["match", k33, "--epsilon", "1/4", "--cap", "2", "--dot", dot]
    code, obj = run(capsys, argv)
    assert code == 1
    assert obj["error"] == "BAD_INPUT"
    assert obj["message"].startswith(f"cannot write {dot}")
    assert not missing.exists()


def test_epsilon_that_is_not_a_rational_exits_one(capsys, k33):
    with pytest.raises(SystemExit) as ei:
        cli.main(["hall-check", k33, "--epsilon", "abc"])
    assert ei.value.code == 1
    assert "not a rational: 'abc'" in capsys.readouterr().err


def test_verify_with_no_deep_interior_passes_vacuously(capsys, tmp_path):
    # margin 4 leaves an interior of radius 1 in a radius-5 window, and
    # pieces over the S^2 ball are checked only 2 inside it: no point is
    f = tmp_path / "pieces.json"
    gens = list(iter_reduced(2))
    f.write_text(json.dumps({"gens": gens, "pieces_a": [], "pieces_b": []}))
    argv = ["verify", "--pieces", str(f), "--kind", "f2", "--radius", "5", "--margin", "4"]
    code, obj = run(capsys, argv)
    assert code == 0
    cert = obj["certificate"]
    assert (cert["status"], cert["deep_interior"]) == ("PASS", 0)
    assert cert["warnings"] == ["empty deep interior; certificate is vacuous"]


def test_window_square_writes_the_s2_sidecar(capsys, tmp_path):
    out = tmp_path / "w.json"
    argv = ["window", "--kind", "f2", "--radius", "2", "--margin", "1", "--square"]
    code, obj = run(capsys, argv + ["--out", str(out)])
    assert code == 0
    assert obj["square"] is True
    # radius 2 in S^2 steps holds the reduced words of length up to 4
    assert (obj["n_points"], obj["interior_points"]) == (161, 17)
    sidecar = json.loads((tmp_path / "w.points.json").read_text())
    assert len(sidecar["gens"]) == 17


@pytest.mark.parametrize("kind", ["f2", "sphere"])
def test_paradox_classical_oracle_passes(capsys, kind):
    argv = ["paradox", "--kind", kind, "--radius", "6", "--oracle", "classical"]
    code, obj = run(capsys, argv)
    assert code == 0
    assert obj["oracle"] == "classical"
    assert obj["certificate"]["status"] == "PASS"
    assert obj["boundary"] is None


def test_demo_on_a_translated_f2_base_passes(capsys):
    argv = ["demo", "--kind", "f2", "--radius", "8", "--base", "ab"]
    code, obj = run(capsys, argv)
    assert code == 0
    assert obj["window"]["base"] == "ab"
    assert obj["classical_certificate"]["status"] == "PASS"
    assert obj["pass"] is True


def test_window_radius_under_margin_is_a_precondition(capsys, tmp_path):
    code, obj = run(
        capsys,
        ["window", "--kind", "f2", "--radius", "3", "--out", str(tmp_path / "w.json")],
    )
    assert code == 2
    assert obj["error"] == "PRECONDITION"


def test_window_writes_graph_and_sidecar(capsys, tmp_path):
    out = tmp_path / "w.json"
    code, obj = run(
        capsys,
        ["window", "--kind", "f2", "--radius", "5", "--margin", "1", "--out", str(out)],
    )
    assert code == 0
    assert obj["n_points"] == 485
    g = json.loads(out.read_text())
    assert g["schema"] == "paradecomp/graph/1"
    side = json.loads((tmp_path / "w.points.json").read_text())
    assert len(side["words"]) == 485
    assert side["base_index"] == 0


def test_paradox_then_verify_roundtrip(capsys, tmp_path):
    out = tmp_path / "pieces.json"
    code, obj = run(
        capsys,
        ["paradox", "--kind", "f2", "--radius", "6", "--margin", "2", "--out", str(out)],
    )
    assert code == 0
    assert obj["certificate"]["status"] == "PASS"

    code, obj = run(capsys, ["verify", "--pieces", str(out)])
    assert code == 0
    assert obj["certificate"]["status"] == "PASS"

    # tampering with the base point's translate must break coverage
    data = json.loads(out.read_text())
    table = data["pieces"]["pieces_a"]
    key = "pieces_a"
    if not (table and table[0][0] == ""):
        table = data["pieces"]["pieces_b"]
        key = "pieces_b"
    assert table[0][0] == ""
    table[0][1] = (table[0][1] + 1) % 5
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(data))
    code, obj = run(capsys, ["verify", "--pieces", str(bad)])
    assert code == 2
    assert obj["certificate"]["status"] == "FAIL"


def test_verify_without_window_metadata_exits_one(capsys, tmp_path):
    f = tmp_path / "bare.json"
    f.write_text(json.dumps({"gens": [""], "pieces_a": [], "pieces_b": []}))
    code, obj = run(capsys, ["verify", "--pieces", str(f)])
    assert code == 1
    assert obj["error"] == "BAD_INPUT"


def test_transfer_cli_hand_case(capsys, tmp_path):
    gpath = write_graph(tmp_path / "path.json", line_window(16))
    m = [[k, k + 1] for k in range(0, 16, 2)]
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(m))
    code, obj = run(
        capsys,
        ["transfer", "--graph", gpath, "--gn-matching", str(mpath), "--n", "2"],
    )
    assert code == 0
    assert obj["excluded"] == [0, 14]
    assert obj["matching"] == [[x, x + 1] for x in range(2, 14, 2)]
    assert all(d == 1 for _, d in obj["directions"])


@pytest.mark.parametrize("entry", [[[], None], [0, "1"], [True, 1]])
def test_transfer_non_integer_matching_entry_exits_one(capsys, tmp_path, entry):
    gpath = write_graph(tmp_path / "path.json", line_window(16))
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps([entry]))
    code, obj = run(
        capsys,
        ["transfer", "--graph", gpath, "--gn-matching", str(mpath), "--n", "2"],
    )
    assert code == 1
    assert obj["error"] == "BAD_INPUT"


def test_forest_chain_from_paradox(capsys, tmp_path):
    pieces = tmp_path / "p.json"
    code, _ = run(
        capsys,
        ["paradox", "--kind", "f2", "--radius", "6", "--out", str(pieces)],
    )
    assert code == 0
    forest = tmp_path / "f.json"
    code, obj = run(capsys, ["forest", "--from", str(pieces), "--out", str(forest)])
    assert code == 0
    assert obj["stats"]["kept"] >= 1
    fobj = json.loads(forest.read_text())
    assert fobj["schema"] == "paradecomp/forest-window/2"
    assert "depth" not in fobj and "radius" not in fobj

    code, obj = run(capsys, ["f2action", "--from", str(forest), "--stages", "0"])
    assert code == 0
    assert obj["free_check"]["violation"] is None


@pytest.mark.parametrize("radius, covered, eligible", [(8, 15, 21), (10, 125, 233)])
@pytest.mark.parametrize("kind, base", [("f2", ""), ("sphere", [0, 1, 0, 0])])
def test_f2action_on_paradox_forests(capsys, tmp_path, kind, base, radius, covered, eligible):
    # the stage-0 net already holds one eligible point of each component
    # that has any (15 at radius 8, 125 at radius 10), so later stages add none
    meta = tmp_path / "window.json"
    window = {"kind": kind, "radius": radius, "margin": 4, "base": base}
    meta.write_text(json.dumps({"window": window}))
    forest = tmp_path / "forest.json"
    code, obj = run(capsys, ["forest", "--from", str(meta), "--out", str(forest)])
    assert code == 0 and obj["schema"] == "paradecomp/forest/3"
    for stages in (0, 1, 2):
        argv = ["f2action", "--from", str(forest), "--stages", str(stages), "--free-len", "8"]
        code, obj = run(capsys, argv)
        assert code == 0
        assert obj["free_check"] == {"max_len": 8, "violation": None}
        res = obj["result"]
        assert (res["covered"], res["eligible"]) == (covered, eligible)
        assert [st["n"] for st in res["stages"]] == list(range(stages + 1))


def test_f2action_on_synthetic_forest(capsys, tmp_path):
    fw = synthetic_forest(random.Random(5))
    src = tmp_path / "forest.json"
    src.write_text(json.dumps(fw.to_obj()))
    code, obj = run(capsys, ["f2action", "--from", str(src), "--stages", "1"])
    assert code == 0
    assert obj["free_check"]["violation"] is None
    assert obj["result"]["covered"] > 0
    assert len(obj["result"]["stages"]) == 2


def test_f2action_ignores_forged_depth_and_radius(capsys, tmp_path):
    # the keys forest-window/1 files carried are read by nothing: a forged
    # radius of 1,000,000 changes no byte of the answer
    fobj = synthetic_forest(random.Random(5)).to_obj()
    src = tmp_path / "forest.json"
    src.write_text(json.dumps(fobj))
    argv = ["f2action", "--from", str(src), "--stages", "4"]
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    depth = [1_000_000] + [0] * (fobj["n_points"] - 1)
    src.write_text(json.dumps({**fobj, "depth": depth, "radius": 1_000_000}))
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == plain
    assert json.loads(plain)["result"]["covered"] == 14


@pytest.mark.parametrize("free_len", ["0", "-3"])
def test_f2action_free_len_below_one_is_a_precondition(capsys, tmp_path, free_len):
    # a length that checks no word gets no freeness certificate
    src = tmp_path / "forest.json"
    src.write_text(json.dumps(synthetic_forest(random.Random(5)).to_obj()))
    argv = ["f2action", "--from", str(src), "--stages", "1", "--free-len", free_len]
    code, obj = run(capsys, argv)
    assert code == 2
    assert obj == {
        "schema": "paradecomp/error/1",
        "error": "PRECONDITION",
        "message": f"max_len {free_len} must be >= 1",
    }


def test_demo_f2_radius_ten_passes(capsys):
    code, obj = run(capsys, ["demo", "--kind", "f2", "--radius", "10"])
    assert code == 0
    assert obj["pass"] is True
    assert obj["certificate"]["status"] == "PASS"
    assert obj["classical_certificate"]["status"] == "PASS"
    assert obj["roundtrip"]["subset_of_matching"] is True
    assert obj["roundtrip"]["covers_interior"] is True
    assert obj["boundary"]["unmatched_interior"] == 0
    assert obj["boundary"]["min_depth"] > obj["window"]["radius"] - obj["window"]["margin"]


def test_demo_on_a_sphere_base_with_a_stabilizer_exits_three(capsys):
    # (3,4,0,1) is a.x for x on the b-axis, so aBA fixes it; the error names
    # the first collision in point order: bA reaches A's point
    argv = ["demo", "--kind", "sphere", "--radius", "8", "--base", "3,4,0,1"]
    assert cli.main(argv) == 3
    assert capsys.readouterr().out == (
        '{"details":{"point":[1,0,0,0],"word_a":"A","word_b":"bA"},'
        '"error":"FREENESS_VIOLATED","message":"two reduced words reach one point",'
        '"schema":"paradecomp/error/1"}\n'
    )


def test_repeat_runs_are_byte_identical(capsys, k33):
    assert cli.main(["hall-check", k33]) == 0
    first = capsys.readouterr().out
    assert cli.main(["hall-check", k33]) == 0
    second = capsys.readouterr().out
    assert first == second


@pytest.fixture()
def pieces_obj(capsys, tmp_path):
    out = tmp_path / "pieces.json"
    code, _ = run(
        capsys,
        ["paradox", "--kind", "f2", "--radius", "6", "--margin", "2", "--out", str(out)],
    )
    assert code == 0
    return json.loads(out.read_text())


def test_verify_pieces_without_gens_exits_one(capsys, tmp_path, pieces_obj):
    del pieces_obj["pieces"]["gens"]
    no_pieces = {"window": pieces_obj["window"]}
    for name, data in (("nogens", pieces_obj), ("nopieces", no_pieces)):
        f = tmp_path / f"{name}.json"
        f.write_text(json.dumps(data))
        code, obj = run(capsys, ["verify", "--pieces", str(f)])
        assert code == 1
        assert obj["error"] == "BAD_PIECES"
        assert "gens" in obj["message"]


def test_verify_piece_index_out_of_range_exits_one(capsys, tmp_path, pieces_obj):
    n_gens = len(pieces_obj["pieces"]["gens"])
    pieces_obj["pieces"]["pieces_b"][0][1] = n_gens
    f = tmp_path / "badindex.json"
    f.write_text(json.dumps(pieces_obj))
    code, obj = run(capsys, ["verify", "--pieces", str(f)])
    assert code == 1
    assert obj["error"] == "BAD_PIECES"
    assert "pieces_b[0]" in obj["message"]


@pytest.mark.parametrize(
    "gens", [["a", "", "A", "b", "B"], ["", "aA", "a", "A", "b", "B"]]
)
def test_verify_gens_other_than_a_ball_exit_one(capsys, tmp_path, gens):
    # read as a set, either list is S, and the pieces would certify PASS
    out = tmp_path / "pieces.json"
    argv = ["paradox", "--kind", "f2", "--radius", "8", "--out", str(out)]
    code, _ = run(capsys, argv)
    assert code == 0
    data = json.loads(out.read_text())
    data["pieces"]["gens"] = gens
    out.write_text(json.dumps(data))
    code, obj = run(capsys, ["verify", "--pieces", str(out)])
    assert code == 1
    assert obj["error"] == "BAD_PIECES"
    assert "gens" in obj["message"]


@pytest.mark.parametrize("point", ["zz", "aA"])
def test_verify_non_reduced_point_exits_one(capsys, tmp_path, pieces_obj, point):
    # such a point lies in no window, so skipping it would hide the bad entry
    pieces_obj["pieces"]["pieces_a"][3][0] = point
    f = tmp_path / "badpoint.json"
    f.write_text(json.dumps(pieces_obj))
    code, obj = run(capsys, ["verify", "--pieces", str(f)])
    assert code == 1
    assert obj["error"] == "BAD_PIECES"
    assert "pieces_a[3]" in obj["message"]


def test_f2action_edge_outside_points_exits_one(capsys, tmp_path):
    fobj = synthetic_forest(random.Random(5)).to_obj()
    n = fobj["n_points"]
    fobj["edges"].append([0, n])
    src = tmp_path / "forest.json"
    src.write_text(json.dumps(fobj))
    code, obj = run(capsys, ["f2action", "--from", str(src), "--stages", "0"])
    assert code == 1
    assert obj["error"] == "BAD_FOREST"
    assert obj["details"]["edge"] == [0, n]


@pytest.mark.parametrize(
    "breakage, named",
    [
        (lambda fobj: fobj.clear(), "n_points"),
        (lambda fobj: fobj["edges"].append(["x", 1]), "edges["),
        (lambda fobj: fobj.pop("present"), "missing field: present"),
        (lambda fobj: fobj.update(n_points=1.5), "n_points"),
        (lambda fobj: fobj["interior"].pop(), "interior: expected a list"),
        (lambda fobj: fobj["edges"].append([3, 3]), "self-loop"),
        # the spine runs 0 - 1 - 2, so [0, 2] closes a triangle
        (lambda fobj: fobj["edges"].append([0, 2]), "cycle"),
    ],
    ids=[
        "empty_object",
        "non_integer_endpoint",
        "missing_present",
        "non_integer_n_points",
        "short_interior",
        "self_loop",
        "cycle",
    ],
)
def test_f2action_malformed_forest_exits_one(capsys, tmp_path, breakage, named):
    fobj = synthetic_forest(random.Random(5)).to_obj()
    breakage(fobj)
    src = tmp_path / "forest.json"
    src.write_text(json.dumps(fobj))
    code, obj = run(capsys, ["f2action", "--from", str(src), "--stages", "0"])
    assert code == 1
    assert obj["error"] == "BAD_FOREST"
    assert named in obj["message"]


def test_f2action_refuses_a_torus(capsys, tmp_path):
    # C_300 x C_3 is 4-regular without a self-loop; read as a forest, its
    # cycles used to reach the freeness check and exit 3
    n = 300 * 3
    edges = []
    for i in range(300):
        for j in range(3):
            edges.append([3 * i + j, 3 * ((i + 1) % 300) + j])
            edges.append([3 * i + j, 3 * i + (j + 1) % 3])
    fobj = {
        "n_points": n,
        "edges": edges,
        "interior": [1] * n,
        "present": [1] * n,
    }
    src = tmp_path / "torus.json"
    src.write_text(json.dumps(fobj))
    code, obj = run(capsys, ["f2action", "--from", str(src), "--stages", "1"])
    assert code == 1
    assert obj["error"] == "BAD_FOREST"
    assert "cycle" in obj["message"]


SPHERE_WINDOW = {"kind": "sphere", "radius": 6, "margin": 2, "base": [0, 1, 0, 0]}
F2_BASE_5 = {"kind": "f2", "radius": 5, "margin": 2, "base": 5}


@pytest.mark.parametrize(
    "command, data, named",
    [
        ("forest", [SPHERE_WINDOW], "window"),
        ("forest", {"window": {**SPHERE_WINDOW, "radius": "x"}}, "window.radius"),
        ("verify", {"window": {**SPHERE_WINDOW, "radius": "x"}}, "window.radius"),
        ("forest", {"window": {**SPHERE_WINDOW, "base": [0, 1]}}, "base"),
        ("verify", {"window": {**SPHERE_WINDOW, "base": [0, 1]}}, "base"),
        ("verify", {"window": F2_BASE_5}, "base: expected a word, got 5"),
    ],
    ids=[
        "forest_top_level_list",
        "forest_non_integer_radius",
        "verify_non_integer_radius",
        "forest_short_sphere_base",
        "verify_short_sphere_base",
        "verify_f2_base_not_a_word",
    ],
)
def test_malformed_window_metadata_exits_one(capsys, tmp_path, command, data, named):
    src = tmp_path / "input.json"
    src.write_text(json.dumps(data))
    flag = "--from" if command == "forest" else "--pieces"
    code, obj = run(capsys, [command, flag, str(src)])
    assert code == 1
    assert obj["error"] == "BAD_INPUT"
    assert named in obj["message"]


def test_main_runs_again_in_one_process(capsys, tmp_path, k33):
    # the parser is built once per process; no call may see another's flags
    dot = tmp_path / "m.dot"
    argv = ["match", k33, "--epsilon", "1/4", "--cap", "2"]
    code, obj = run(capsys, argv + ["--dot", str(dot)])
    assert code == 0 and obj["dot"] == str(dot)
    code, obj = run(capsys, argv)
    assert code == 0 and obj["dot"] is None
    with pytest.raises(SystemExit) as ei:
        cli.main(argv + ["--no-such-flag"])
    assert ei.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: paradecomp")
    assert "error: unrecognized arguments: --no-such-flag" in err
    code, obj = run(capsys, ["hall-check", k33])
    assert code == 0 and obj["satisfied"] is True


@pytest.fixture()
def three_edges(tmp_path):
    g = bipartite_graph([0, 1, 2], [3, 4, 5], [(0, 3), (1, 4), (2, 5)])
    return write_graph(tmp_path / "three.json", g)


def test_hall_check_floor_skips_smaller_sets(capsys, three_edges):
    argv = ["hall-check", three_edges, "--epsilon", "1/2", "--cap", "3"]
    code, obj = run(capsys, argv)
    assert code == 2 and obj["floor"] == 1 and obj["satisfied"] is False
    assert obj["report"]["witness"] == {
        "side": 0, "f_set": [0], "required": "3/2", "actual": 1
    }
    # disjoint edges have no G^2-connected set of two or more vertices
    code, obj = run(capsys, argv + ["--floor", "2"])
    assert code == 0 and obj["floor"] == 2 and obj["satisfied"] is True
    assert obj["report"]["witness"] is None


def test_match_floor_decides_the_precheck(capsys, three_edges):
    argv = ["match", three_edges, "--epsilon", "1/2", "--cap", "3"]
    code, obj = run(capsys, argv)
    assert code == 2 and obj["error"] == "HYPOTHESIS_FAILED"
    assert obj["details"]["witness"]["f_set"] == [0]
    code, obj = run(capsys, argv + ["--floor", "2"])
    assert code == 0 and obj["floor"] == 2
    assert obj["result"]["matching"] == [[0, 3], [1, 4], [2, 5]]


def test_match_table_shorter_than_the_layering_exhausts_the_budget(capsys, k33):
    # a floor of 4 leaves the precheck no set in range; K_{3,3} takes six
    # stages, and the one-entry table answers for stage 0 only
    argv = ["match", k33, "--epsilon", "1", "--floor", "4", "--cap", "4", "--schedule", "32"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().out == (
        '{"details":{"stage":1},"error":"BUDGET_EXHAUSTED",'
        '"message":"explicit schedule has 1 stages, asked for 1",'
        '"schema":"paradecomp/error/1"}\n'
    )


@pytest.mark.parametrize(
    "flags, message",
    [
        # the schedule checks epsilon before the precheck checks the floor
        (["--epsilon=-1"], "epsilon must be positive"),
        (["--epsilon", "0", "--floor", "0"], "epsilon must be positive"),
        (["--epsilon", "1/2", "--schedule", "8"], "sum 8/f = 1 not below budget 1/2"),
    ],
    ids=["negative", "zero-floor-zero", "table-over-budget"],
)
def test_match_refuses_a_schedule_over_its_budget(capsys, k33, flags, message):
    assert cli.main(["match", k33, *flags]) == 2
    assert capsys.readouterr().out == (
        f'{{"error":"PRECONDITION","message":"{message}","schema":"paradecomp/error/1"}}\n'
    )


def run_unlimited(capsys, argv):
    """run(), for payloads holding integers past the int-to-str digit limit.

    The one output line is parsed with the limit lifted; main must leave the
    caller's limit as it found it.
    """
    limit = sys.get_int_max_str_digits()
    code = cli.main(argv)
    assert sys.get_int_max_str_digits() == limit
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1
    sys.set_int_max_str_digits(0)
    try:
        return code, json.loads(out)
    finally:
        sys.set_int_max_str_digits(limit)


def test_f2action_huge_stages_end_at_the_point_count(capsys, tmp_path):
    # 1,502 points: stage 4, with separation 16 * 4^4 = 4,096, is the first
    # whose separation reaches n_points; it adds nothing, and the run stops
    fobj = synthetic_forest(random.Random(5)).to_obj()
    assert fobj["n_points"] == 1502
    src = tmp_path / "forest.json"
    src.write_text(json.dumps(fobj))
    code, last = run(capsys, ["f2action", "--from", str(src), "--stages", "4"])
    assert code == 0
    stages = last["result"]["stages"]
    assert [st["n"] for st in stages] == [0, 1, 2, 3, 4]
    assert stages[-1]["domain"] == stages[-2]["domain"]
    for n in (5, 7200, 1_000_000_000):
        t0 = time.perf_counter()
        code, obj = run(capsys, ["f2action", "--from", str(src), "--stages", str(n)])
        assert time.perf_counter() - t0 < 1
        assert code == 0 and obj == {**last, "stages": n}


@pytest.mark.parametrize("command", ["paradox", "demo"])
def test_unmatched_count_prints_in_full(capsys, command):
    argv = [command, "--kind", "f2", "--radius", "9100", "--margin", "9099"]
    got, obj = run_unlimited(capsys, argv)
    assert got == 0
    assert obj["certificate"]["status"] == "PASS"
    # three copies of the ball's 2 * 3^9100 - 1 points, less 10 matched pairs
    assert obj["boundary"]["unmatched"] == 3 * (2 * 3**9100 - 1) - 20
    assert obj["boundary"]["unmatched_interior"] == 0


@pytest.mark.parametrize("kind", ["f2", "sphere"])
@pytest.mark.parametrize("margin", range(1, 8))
def test_demo_passes_at_every_margin(capsys, kind, margin):
    # the first unmatched point lies just past the interior, at any margin
    code, obj = run(capsys, ["demo", "--kind", kind, "--radius", "8", "--margin", str(margin)])
    assert code == 0
    assert obj["pass"] is True
    assert obj["boundary"]["min_depth"] == 8 - margin + 1


@pytest.mark.parametrize("command", ["demo", "paradox"])
def test_interior_miss_is_refused_by_partners(capsys, command):
    # at margin 0 the interior is the whole ball, which side 1 cannot cover
    code = cli.main([command, "--kind", "f2", "--radius", "4", "--margin", "0"])
    assert code == 2
    assert capsys.readouterr().out == (
        '{"details":{"copy":2,"point":"","vid":322},'
        '"error":"NOT_PERFECT_ON_INTERIOR",'
        '"message":"matching misses an interior vertex",'
        '"schema":"paradecomp/error/1"}\n'
    )


def _past_digit_limit(src) -> dict:
    """The error a file holding a 5,000-digit integer gets, in the
    interpreter's own words: read with the limit in force, it is no JSON."""
    with pytest.raises(ValueError) as exc:
        json.loads("9" * 5000)
    return {
        "schema": "paradecomp/error/1",
        "error": "BAD_INPUT",
        "message": f"not valid JSON: {src}",
        "details": {"path": str(src), "detail": str(exc.value)},
    }


def test_huge_integer_in_a_graph_file_is_bad_input(capsys, tmp_path):
    src = tmp_path / "big.json"
    src.write_text('{"vertices": [{"id": ' + "9" * 5000 + ', "side": 0}], "edges": []}')
    code, obj = run(capsys, ["hall-check", str(src)])
    assert code == 1
    assert obj == _past_digit_limit(src)


def test_huge_window_radius_in_a_pieces_file_is_bad_input(capsys, tmp_path, pieces_obj):
    src = tmp_path / "pieces.json"
    pieces_obj["window"]["radius"] = 10**5000 - 1
    src.write_text(cli.canonical_json(pieces_obj))
    code, obj = run(capsys, ["verify", "--pieces", str(src)])
    assert code == 1
    assert obj == _past_digit_limit(src)


def test_file_not_in_utf8_is_bad_input(capsys, tmp_path):
    src = tmp_path / "latin1.json"
    src.write_bytes(b'{"vertices": [\xff]}')
    code, obj = run(capsys, ["hall-check", str(src)])
    assert code == 1
    assert obj["error"] == "BAD_INPUT"
    assert obj["message"] == f"not valid JSON: {src}"


@pytest.mark.parametrize("enabled", [True, False], ids=["gc_enabled", "gc_disabled"])
@pytest.mark.parametrize(
    "outcome",
    ["success", "bad_input", "precondition", "usage_error"],
)
def test_main_leaves_the_collector_as_the_caller_had_it(capsys, tmp_path, k33, enabled, outcome):
    argv, code = {
        "success": (["hall-check", k33], 0),
        "bad_input": (["match", str(tmp_path / "absent.json"), "--epsilon", "1"], 1),
        "precondition": (["demo", "--kind", "f2", "--radius", "4", "--margin", "0"], 2),
        "usage_error": (["hall-check", k33, "--no-such-flag"], None),
    }[outcome]
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if code is None:
            with pytest.raises(SystemExit) as ei:
                cli.main(argv)
            assert ei.value.code == 1
        else:
            assert cli.main(argv) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags",
    [
        ["hall-check", "{src}"],
        ["layers", "{src}", "--epsilon", "1"],
        ["match", "{src}", "--epsilon", "1"],
        ["verify", "--pieces", "{src}"],
        ["transfer", "--graph", "{src}", "--gn-matching", "{src}", "--n", "2"],
        ["forest", "--from", "{src}"],
        ["f2action", "--from", "{src}", "--stages", "0"],
    ],
    ids=lambda flags: flags[0],
)
def test_json_nested_past_the_recursion_limit_is_bad_input(capsys, tmp_path, flags):
    src = tmp_path / "deep.json"
    src.write_text("[" * 100_000 + "]" * 100_000)
    code, obj = run(capsys, [f.format(src=src) for f in flags])
    assert code == 1
    assert obj["error"] == "BAD_INPUT"
    assert obj["message"] == f"not valid JSON: {src}"


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["demo", "--kind", "f2", "--radius", "5", "--margin", "4"]
    code = cli.main(argv)
    out = capsys.readouterr().out
    src = Path(cli.__file__).resolve().parents[1]
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-m", "paradecomp", *argv], capture_output=True, env=env, check=False
    )
    assert (proc.returncode, proc.stdout) == (code, out.encode())
