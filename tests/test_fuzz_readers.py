"""Fuzz the four file readers through the CLI: graph, pieces, forest, matching.

Whatever the file holds, a run prints exactly one JSON object and exits 0, 1
or 2; exit 3 (a broken internal invariant) or a traceback is a finding.
"""

import contextlib
import io
import json

from unittest import mock

from hypothesis import given, settings, strategies as st

from paradecomp import cli
from paradecomp.errors import ForestFormatError
from paradecomp.generators import line_window
from paradecomp.graphs import graph_to_obj
from paradecomp.treedyn import forest_from_obj

from oracles import set_forest_from_obj

FIELDS = {
    "graph": ["vertices", "edges", "id", "side"],
    "pieces": ["gens", "pieces_a", "pieces_b", "pieces", "window", "kind", "radius"],
    "forest": [
        "n_points", "edges", "interior", "present", "depth", "radius", "labels",
        "stats",
    ],
    "matching": ["matching"],
}

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-2, 40)
    | st.floats(-2, 2, allow_nan=False)
    | st.sampled_from(["", "a", "aB", "bA", "x", "f2", "sphere"])
)


def json_values(keys):
    return st.recursive(
        scalars,
        lambda kids: st.lists(kids, max_size=5)
        | st.dictionaries(st.sampled_from(keys) | st.text(max_size=2), kids, max_size=5),
        max_leaves=16,
    )


def documents(reader):
    """Arbitrary JSON, or an object whose fields are the reader's own names."""
    values = json_values(FIELDS[reader])
    shaped = st.fixed_dictionaries({}, optional={k: values for k in FIELDS[reader]})
    return values | shaped


PATH_GRAPH = json.dumps(graph_to_obj(line_window(8)))


def run_on(reader, doc, stages=1):
    # the files live in memory: the run reads the same text, skipping the disk
    files = {"doc.json": json.dumps(doc), "path.json": PATH_GRAPH}
    argv = {
        "graph": ["hall-check", "doc.json"],
        "pieces": ["verify", "--pieces", "doc.json", "--kind", "f2", "--radius", "3"],
        "forest": ["f2action", "--from", "doc.json", "--stages", str(stages)],
        "matching": [
            "transfer", "--graph", "path.json", "--gn-matching", "doc.json", "--n", "2"
        ],
    }[reader]
    buf = io.StringIO()
    with mock.patch.object(cli, "_read_json", lambda path: json.loads(files[path])):
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    out = buf.getvalue()
    assert code in (0, 1, 2), out
    assert out.count("\n") == 1 and out.endswith("\n")
    obj = json.loads(out)
    assert isinstance(obj, dict)
    return obj


FUZZ = settings(max_examples=60, deadline=None, derandomize=True)


@FUZZ
@given(documents("graph"))
def test_graph_reader_fuzz(doc):
    run_on("graph", doc)


# well-shaped graphs whose sides and edge endpoints may be JSON booleans,
# which Python would otherwise read as the integers 0 and 1
graph_shaped = st.fixed_dictionaries(
    {
        "vertices": st.lists(
            st.fixed_dictionaries(
                {"id": st.integers(0, 3), "side": st.integers(0, 1) | st.booleans()}
            ),
            max_size=4,
        ),
        "edges": st.lists(
            st.lists(st.integers(-1, 4) | st.booleans(), min_size=2, max_size=2),
            max_size=4,
        ),
    }
)


@FUZZ
@given(graph_shaped)
def test_graph_reader_rejects_boolean_endpoints(doc):
    obj = run_on("graph", doc)
    sides = [v["side"] for v in doc["vertices"]]
    if any(type(u) is bool for u in sides + [u for e in doc["edges"] for u in e]):
        assert obj["error"] == "BAD_GRAPH"


@FUZZ
@given(documents("pieces"))
def test_pieces_reader_fuzz(doc):
    run_on("pieces", doc)


@FUZZ
@given(documents("forest"))
def test_forest_reader_fuzz(doc):
    run_on("forest", doc)


def _forest_doc(n):
    def lists_of(values):
        return st.lists(values, min_size=n, max_size=n)

    def with_radius(doc):
        # the radius the reader wants: the largest depth, or 0
        return {**doc, "radius": max(0, *doc["depth"])}

    return st.fixed_dictionaries(
        {
            "n_points": st.just(n),
            "edges": st.lists(
                st.lists(st.integers(0, n - 1), min_size=2, max_size=2), max_size=10
            ),
            "interior": lists_of(st.booleans()),
            "present": lists_of(st.booleans()),
            "depth": lists_of(st.integers(-1, 200)),
        }
    ).map(with_radius)


# well-shaped forests whose edges may hold self-loops and cycles, with depths
# and radius up to 200 so that both stages of the action can run
forest_shaped = st.integers(1, 6).flatmap(_forest_doc)


def closes_a_loop(n, edges) -> bool:
    """A self-loop, or a cycle left after stripping leaves one at a time."""
    if any(u == v for u, v in edges):
        return True
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    leaves = [v for v in range(n) if len(nbrs[v]) == 1]
    while leaves:
        v = leaves.pop()
        for w in nbrs[v]:
            nbrs[w].discard(v)
            if len(nbrs[w]) == 1:
                leaves.append(w)
        nbrs[v].clear()
    return any(nbrs)


@FUZZ
@given(forest_shaped, st.integers(0, 1))
def test_forest_reader_refuses_exactly_loops_and_cycles(doc, stages):
    obj = run_on("forest", doc, stages)
    assert (obj.get("error") == "BAD_FOREST") == closes_a_loop(
        doc["n_points"], doc["edges"]
    )


# malformed edges, each refused on its own before any cycle is reported
BAD_EDGES = [[0], "e", [0, "1"], [0, True], [-1, 0], [0, 99], [0, 0]]
# depths the reader refuses, after every edge and cycle error
BAD_DEPTHS = [-2, True, 1.5, "1", None]


@st.composite
def forests_with_repeats(draw):
    """A shaped forest, or a tree on its points, with repeated and reversed
    edges; then maybe a triangle and maybe a bad edge after it, and maybe a
    bad depth or a radius that is not the largest depth."""
    doc = draw(forest_shaped)
    n = doc["n_points"]
    kind = draw(st.sampled_from(["drawn", "loopless", "tree", "tree"]))
    if kind == "tree":
        tree = [[v, draw(st.integers(0, v - 1))] for v in range(1, n)]
        edges = draw(st.permutations(tree))
    elif kind == "loopless":
        edges = [e for e in doc["edges"] if e[0] != e[1]]
    else:
        edges = list(doc["edges"])
    if edges:
        for u, v in draw(st.lists(st.sampled_from(edges), max_size=4)):
            pair = draw(st.sampled_from([[u, v], [v, u]]))
            edges.insert(draw(st.integers(0, len(edges))), pair)
    extra = draw(st.sampled_from(["none", "none", "cycle", "bad", "cycle, bad"]))
    if "cycle" in extra and n >= 3:
        edges += [[0, 1], [1, 2], [2, 0]]
    if "bad" in extra:
        edges.append(draw(st.sampled_from(BAD_EDGES)))
    doc = {**doc, "edges": edges}
    spoil = draw(st.sampled_from(["none", "none", "none", "depth", "radius"]))
    if spoil == "depth":
        depth = list(doc["depth"])
        depth[draw(st.integers(0, n - 1))] = draw(st.sampled_from(BAD_DEPTHS))
        doc["depth"] = depth
    elif spoil == "radius":
        doc["radius"] += draw(st.sampled_from([-1, 1]))
    return doc


def read_or_error(reader, doc):
    try:
        return reader(doc)
    except ForestFormatError as e:
        return e.message, e.details


# both readers run in process on small documents, so more examples are cheap
@settings(max_examples=300, deadline=None, derandomize=True)
@given(forests_with_repeats())
def test_forest_reader_agrees_with_set_reader(doc):
    assert read_or_error(forest_from_obj, doc) == read_or_error(set_forest_from_obj, doc)


@FUZZ
@given(documents("matching"))
def test_matching_reader_fuzz(doc):
    run_on("matching", doc)
