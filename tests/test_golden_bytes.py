"""The exact stdout bytes of the radius-8 and radius-10 pipelines, pinned by sha256.

A speed or design change must leave these digests alone.  If an output is
meant to change, the new digest goes here together with the reason.

demo/2 and forest/2: the windows of demo and forest hold only the points
their translations reach from the interior (radius - margin + 1 over S,
+ 2 over S^2).  The matching and pieces are unchanged, so the paradox
digests are too; demo's classical certificate counts only the held points,
and forest lists only them (n_points, per-point lists, components and
isolated counts).

demo/3: demo no longer prints boundary_ok.  DoublingGraph.partners refuses
any matching that misses an interior vertex, so demo's pass rests on the two
certificates and the roundtrip alone; boundary still reports the measured
unmatched count and min_depth.  Apart from the schema and that key, the
demo payloads are those of demo/2.

Radius 10: demo and forest as the benchmark runs them, f2 at the identity
and the sphere at --base 0,1,0, forest reading a window-metadata file.

f2action: --stages 0 and 1 over synthetic_forest(Random(k)), k = 0..4, each
forest written as the benchmark writes it (forest-window/1 schema plus
to_obj(), through canonical_json).

match: --epsilon <eps> --cap 2 over hall_family(12, Random(20260816),
[1/4, 1/2, 1], validate_cap=2), each graph written as the benchmark writes it
(json.dumps of graph_to_obj), with --audit on odd indices.  These pin the
exact epsilon_n strings of every stage record.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from paradecomp import cli
from paradecomp.generators import hall_family, synthetic_forest
from paradecomp.graphs import graph_to_obj

GOLDEN = {
    ("f2", "demo"): "4fa4b482d4d39f324af57061ce357dbb4c0cef3f9e08134367c506a838eeb143",
    ("f2", "paradox"): "da1f35682d4d7b2094c97c594678147e56f2ccb5e5a2b3290a582fdea1bef969",
    ("f2", "forest"): "776bdf0d3f37c9c4968a4ad6c55737c5cab5c4be8e977281ca7db17c749c3376",
    ("sphere", "demo"): "e40891472c4470019847b4a2feb6a8a350c03a4576d690238c3cb062b892cb49",
    ("sphere", "paradox"): "aeeff2762f2cfa433c2548434c64b33bbca658fa3ba11623504ccff3fc93cd96",
    ("sphere", "forest"): "0873bbfedde457a1b1ba1f7c476d9c693e0f646eca63ba3e5fde7833f87136da",
}

RADIUS_TEN_GOLDEN = {
    ("f2", "demo"): "a31e46b07e379a53e477292e300120c0809f7733e4091691736ca6ad888924dd",
    ("f2", "forest"): "2a632f1db840796d579f2d14a9a94cc01133092f6fd15d5a200d0d4f25297b75",
    ("sphere", "demo"): "3018a8ba6fe5a376394568c3887f5df0552ec2fc49a06421b97ed3a6aef9d369",
    ("sphere", "forest"): "b484ed0a175ba864c44011b564867a1c2741aa37d2361bb58fbc00c5339d3abd",
}

F2ACTION_GOLDEN = {
    (0, 0): "6a7e4d51ab3accb4e68a03e5d029daac8b925fcb872178ffb569991c8306abe6",
    (0, 1): "30057818a768e3e2fd9f304a31b6eaf1cbb99022b2f3ce3902765760851d7846",
    (1, 0): "b5be302188ecaea08ef1dd3491511bda26e7a9afcc92bb62f100c7e03f1108fe",
    (1, 1): "0675ad1d3785887e0b0389f02f1a0c96b64aad7a7091f8c269b0d644c3f235a4",
    (2, 0): "e561a0f50aa89bbba8a4c8fd29b28274c318351d8d67c5ae99e9164d5dca5174",
    (2, 1): "eee8f627ecb3e4e880128ea86e682f74065394449c1cbe6c1a10ba2e361ee2ea",
    (3, 0): "2efa1db4744dac2a590b08c20c88213a0125fac7d643235dd8e1be299c2ed01d",
    (3, 1): "dc90e8a84122bdd1a349b4d904155117e5bfdd02a34a273592b8652a56b03214",
    (4, 0): "355bb22a8836966a98904ed3545c9b20ac1a106ca8201bcf6242b87fa12ede8f",
    (4, 1): "fc5d02eca009a396055a4f601a87bb26beb4b9bf6599e260166cf666a8445aa2",
}


MATCH_GOLDEN = [
    "5eb94af2eda9660f022b105a867a726eb7ca1530f9900cdc93005002ca752d7f",
    "01e34776737e3a806617dbbcebf72760dcb9432abe0cb92a74b3297de758834c",
    "87dc9e33d76e2ffa65a5ef37fd5495680279a63b51ef5b3e4c3e4aef98449ff4",
    "541595baa609666d840372c482d8bc474edbba06b75820b871a82a9105047158",
    "163521d59b873ca9bd62bc843035effe047c702e586fb10e8667bfd7c3dc054d",
    "2880551a7facfe442dc00e0996bd9b8f0a8ed6f5881fd78c5099c6c7781a4ba6",
    "bc7f7625cccfdefb39bc4e488784ea403f7ea4d91628e71026210b40365791c3",
    "1c66218edf51dd7fff067fdfef1dfb198770b8bfc966e36105528231cf914435",
    "07a30f05b56003519efa67a2f578e7ea158ef07c5a3c2188ec233511f60e9f7e",
    "93ae696004a9f057e7c5c2d45554ab908c352291b85942e5fe68b86ac89d2fa2",
    "7b6bd012383a3c8c4e843a09f6c81abe8c958efa4ec1f13a50b956d868b34df4",
    "3dbfc03518ee713f86a901dc3859d9954e40b7082c240f29236bcd083e83c543",
]


def stdout_of(capsys, argv) -> str:
    assert cli.main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("kind", ["f2", "sphere"])
def test_radius_eight_stdout_is_pinned(capsys, tmp_path, kind):
    window = ["--kind", kind, "--radius", "8"]
    got = {
        "demo": stdout_of(capsys, ["demo", *window]),
        "paradox": stdout_of(capsys, ["paradox", *window]),
    }
    src = tmp_path / "paradox.json"
    src.write_text(got["paradox"])
    got["forest"] = stdout_of(capsys, ["forest", "--from", str(src)])
    for command, out in got.items():
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == GOLDEN[kind, command], command


@pytest.mark.parametrize(
    "kind, base, meta_base", [("f2", None, ""), ("sphere", "0,1,0", [0, 1, 0, 0])]
)
def test_radius_ten_stdout_is_pinned(capsys, tmp_path, kind, base, meta_base):
    demo = ["demo", "--kind", kind, "--radius", "10"]
    if base is not None:
        demo += ["--base", base]
    window = {"base": meta_base, "kind": kind, "margin": 4, "radius": 10}
    meta = tmp_path / "window.json"
    meta.write_text(json.dumps({"window": window}))
    got = {
        "demo": stdout_of(capsys, demo),
        "forest": stdout_of(capsys, ["forest", "--from", str(meta)]),
    }
    for command, out in got.items():
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == RADIUS_TEN_GOLDEN[kind, command], command


@pytest.mark.parametrize("k", range(5))
def test_f2action_stdout_is_pinned(capsys, tmp_path, k):
    fw = synthetic_forest(random.Random(k))
    src = tmp_path / "forest.json"
    obj = {"schema": "paradecomp/forest-window/1", **fw.to_obj()}
    src.write_text(cli.canonical_json(obj))
    for stages in (0, 1):
        out = stdout_of(capsys, ["f2action", "--from", str(src), "--stages", str(stages)])
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == F2ACTION_GOLDEN[k, stages], stages


def test_match_stdout_is_pinned(capsys, tmp_path):
    family = hall_family(
        12,
        random.Random(20260816),
        [Fraction(1, 4), Fraction(1, 2), Fraction(1)],
        validate_cap=2,
    )
    for i, (g, p) in enumerate(family):
        src = tmp_path / f"graph-{i}.json"
        src.write_text(json.dumps(graph_to_obj(g)))
        argv = ["match", str(src), "--epsilon", str(p.epsilon), "--cap", "2"]
        if i % 2:
            argv.append("--audit")
        digest = hashlib.sha256(stdout_of(capsys, argv).encode()).hexdigest()
        assert digest == MATCH_GOLDEN[i], i
