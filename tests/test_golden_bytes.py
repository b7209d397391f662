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

forest/3: forest no longer prints radius, and the forest file it embeds
(forest-window/2) no longer carries depth or radius, which nothing read.
Apart from those keys and the two schemas, the payloads are those of
forest/2.

Radius 10: demo and forest as the benchmark runs them, f2 at the identity
and the sphere at --base 0,1,0, forest reading a window-metadata file.

f2action: --stages 0 and 1 over synthetic_forest(Random(k)), k = 0..4, each
forest written as the benchmark writes it (forest-window/1 schema plus
to_obj(), through canonical_json).

f2action/2: f2action no longer prints coverage, the one float of any
payload, which is covered/eligible and follows from those two keys.  Apart
from that key and the schema, the payloads are those of f2action/1.

match: --epsilon <eps> --cap 2 over hall_family(12, Random(20260816),
[1/4, 1/2, 1], validate_cap=2), each graph written as the benchmark writes it
(json.dumps of graph_to_obj), with --audit on odd indices.

match/2 prints the matching, the layers, the stage count, the last epsilon_n
and the schedule once; the per-stage records of match/1 follow from those.
oracles.match_v1_from_v2 replays them, and the rebuilt match/1 bytes must
equal the digests pinned under match/1: the twelve graphs above, the 500
graphs of the benchmark's matcher_mix pass (its `all`, `match` and
`match-audit` digests) and every README sample graph that match accepts.
These pin the exact epsilon_n strings of every stage record.
"""

import hashlib
import json
import random
import runpy
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from paradecomp import cli
from paradecomp.generators import hall_family, synthetic_forest
from paradecomp.graphs import graph_to_obj
from paradecomp.layers import LayerSchedule, geometric_schedule

from oracles import match_v1_from_v2

ROOT = Path(__file__).resolve().parents[1]

GOLDEN = {
    ("f2", "demo"): "4fa4b482d4d39f324af57061ce357dbb4c0cef3f9e08134367c506a838eeb143",
    ("f2", "paradox"): "da1f35682d4d7b2094c97c594678147e56f2ccb5e5a2b3290a582fdea1bef969",
    ("f2", "forest"): "2af15e5addd1e86daabbcab71996a7a24b43f27ec795537be2227fb522ba3afb",
    ("sphere", "demo"): "e40891472c4470019847b4a2feb6a8a350c03a4576d690238c3cb062b892cb49",
    ("sphere", "paradox"): "aeeff2762f2cfa433c2548434c64b33bbca658fa3ba11623504ccff3fc93cd96",
    ("sphere", "forest"): "52d9f6e003cbf848822c13637b580e2d82601b98158566a0af5a9ffaaa6ebbd1",
}

RADIUS_TEN_GOLDEN = {
    ("f2", "demo"): "a31e46b07e379a53e477292e300120c0809f7733e4091691736ca6ad888924dd",
    ("f2", "forest"): "ab503e02fd2457bd5cf16a96e47e764cb2852689133850e42d2f7412f636f3ee",
    ("sphere", "demo"): "3018a8ba6fe5a376394568c3887f5df0552ec2fc49a06421b97ed3a6aef9d369",
    ("sphere", "forest"): "619ef4fd171490e12e0a93d5a77c75b4a862fe935d8e5632c10dc8a180fd5ffa",
}

F2ACTION_GOLDEN = {
    (0, 0): "3e779a67af41f0585766641e0bcb501ca52873d95bec73f7f0f430d1606596f1",
    (0, 1): "001aef57a7045e43deae702ebe3171d6c688c79f7313fda78176bad1e233ca7d",
    (1, 0): "2d636292ae0c2588497ca7bf169f2d4b5f98e16b69b4fd28bbdffec5484b92e1",
    (1, 1): "9b1871e637ca695e792a512261f96091b8e9beda089a62c5164d6722bc19625b",
    (2, 0): "3cbaaaa0f5ecff8ee7cc7d672cbb12d0b0ebc36c4e64d6f1b2ce4d1a644c4f36",
    (2, 1): "1f0a4c2b794f3743b1ccdba66794aa4a08dba6c0067e05fd766dbc671aa55744",
    (3, 0): "8ba5b1409fa688af6db190ab80c8c9382fa0c242d4b27bb993a737725bef4414",
    (3, 1): "fbb2b4a7e8de7e370bc860d9c96ddda1b7a9a8fc4d2e6fc17a647b2b0a782952",
    (4, 0): "4817310b6f52c8d73846c4a07841181a1e8e0db128077be7fcc9561b094eb2c0",
    (4, 1): "b4356ff353065f5db3addff17ea160bb810f0fee25177fcb779bb1b61af39201",
}


# match/2
MATCH_GOLDEN = [
    "e44fe793c6a4f200e2db486e388a9c1680478f6e2aae4e7e240a736a787a40db",
    "8de42dc3db7d0c788a6799b09729ecbe9c842cd9b620b6104d51f17ea1bfb396",
    "260598fe33a0111ad8fa959c0b0e4f8957922c01c70c787aa90f0c10341345ed",
    "f3e8c19d2afbd0cbbfec26158e4edead78cfb94757bb22530e2c033989ac270e",
    "5745cdea8d5e26f44f6e8b01fa6ce4b0a2bf5159aee2041f5d6bd71e0975eafc",
    "a8c2c419b428bed5636f2c70ee3f4d83fa8b9182674e2e4ab9cbf6702a332411",
    "eaf6af2163ee3921a0cd14fd4bdf8fbad3f49217a30598932ea7f2bb37787ab7",
    "ce1303f815a5d8e05403248c3af84f437753c9146c834b11e472956e87c77163",
    "b864fdcbdeae0a00b0298c365b866bd156d56ac308e6445af284c6f9544e2ed6",
    "54e95dab90063604ff06532f84490168b760766257aa580eb7b8ee245b72b94c",
    "1f2d2a10c860539e46d8bca64772b7d8017f656fe01e6d702c27e56d8ff46067",
    "83b465dbf092957da08b5956de2ac1b90d0e03740d5896eb2338d25a8a6e3407",
]

# match/1, before the stage records were dropped from the payload
MATCH_V1_GOLDEN = [
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


MATCH_EPSILONS = [Fraction(1, 4), Fraction(1, 2), Fraction(1)]

# the `# digests` of `perfbench/run.py --workload matcher_mix` under match/1
MATCHER_MIX_V1 = {"all": "370dce76769bab2f", "match": "a5d93b6251cedefe",
                  "match-audit": "6cd35758c6547367"}

# README sample graphs (make_sample_graphs.py --seed 0) under match/1, with
# and without --audit: every one that match accepts, on the flags given
SAMPLE_RUNS = {
    ("k33", "--epsilon 1/2 --cap 2"): (
        "c7b531688c0fd5c03b22308a2b93a6522f358de826887c72ca238b2fe91ac181",
        "0c45ae76592330264457de0207b00cfa9dc958678719bea0bf90754f0c43ee43",
    ),
    ("perms", "--epsilon 1/2 --cap 2"): (
        "be4080aff760ff1ba8b315ce0722e898d353b548c32fc481eec7315554ecdb51",
        "a20e55b67d9376e5bad0a87ded2bc35003b2771cc095a03310b188de7623a567",
    ),
    ("hall_0_eps_1_2", "--epsilon 1/2 --cap 2"): (
        "1e69f9c301536107e207cd5300f1dd15aa1a57cf20f5971b4b47d1254de1c191",
        "e77b79e26ef1a3f67d386e6116515062d26e18d49ac5c706861311e3e8d1170e",
    ),
    ("hall_1_eps_1_2", "--epsilon 1/2 --cap 2"): (
        "d7ab57c35b13eb741ae6e27ec9dbae900fe9076604aee1861ce2853b0e9fb1b0",
        "20b73a80a17cc9e7bacf0ac76145d203eabc5d470ae197455961211f3da5c5e7",
    ),
    ("hall_2_eps_1_2", "--epsilon 1/2 --cap 2"): (
        "d04c36265d1d10ed1639dc21c808a84e522bb21f2eb449e7036569d6f0cf58d9",
        "520d4655cef3e96ad871b3ae044ee601d976820dfe5c56130635e14edba88455",
    ),
    ("k33", "--epsilon 1/2 --cap 2 --schedule 128,128,128,128,128,128,128"): (
        "eb85b1b400bb32def67bb3e2c5be26fe9a50f1a92214549ef39ccbb83a1255b6",
        "af2b55adf9e0690228c68f7848f477aff6a7ab143957cd0a35738eac43a3966b",
    ),
    # floor 9 exceeds a side, so only plain Hall is asked of the path
    ("path16", "--epsilon 16 --floor 9 --cap 9 --schedule 1,2,4,8,16"): (
        "063c2d6e70595d6589f9fe65f2a3f07fa45ce0eaa34cd33333fb0705339b8abf",
        "70657a5a082138725f1d5830fb6719ec4c2fd0edefa27c58f402123ac18ef80d",
    ),
}

SAMPLE_SCHEDULES = {
    "--epsilon 1/2 --cap 2": geometric_schedule(Fraction(1, 2)),
    "--epsilon 1/2 --cap 2 --schedule 128,128,128,128,128,128,128": LayerSchedule(
        Fraction(1, 2), f_list=(128,) * 7
    ),
    "--epsilon 16 --floor 9 --cap 9 --schedule 1,2,4,8,16": LayerSchedule(
        Fraction(16), f_list=(1, 2, 4, 8, 16)
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def match_runs(tmp_path, family):
    """argv and schedule of each graph's match run, as the benchmark makes them."""
    for i, (g, p) in enumerate(family):
        src = tmp_path / f"graph-{i}.json"
        src.write_text(json.dumps(graph_to_obj(g)))
        argv = ["match", str(src), "--epsilon", str(p.epsilon), "--cap", "2"]
        if i % 2:
            argv.append("--audit")
        yield argv, geometric_schedule(p.epsilon)


def rebuilt_v1(capsys, argv, schedule) -> str:
    """The match/1 stdout the match/2 stdout of argv stands for."""
    obj = json.loads(stdout_of(capsys, argv))
    return cli.canonical_json(match_v1_from_v2(obj, schedule))


def test_match_stdout_is_pinned(capsys, tmp_path):
    family = hall_family(12, random.Random(20260816), MATCH_EPSILONS, validate_cap=2)
    for i, (argv, _) in enumerate(match_runs(tmp_path, family)):
        assert sha256(stdout_of(capsys, argv)) == MATCH_GOLDEN[i], i


def test_match_v2_rebuilds_the_pinned_match_v1(capsys, tmp_path):
    family = hall_family(12, random.Random(20260816), MATCH_EPSILONS, validate_cap=2)
    for i, (argv, schedule) in enumerate(match_runs(tmp_path, family)):
        assert sha256(rebuilt_v1(capsys, argv, schedule)) == MATCH_V1_GOLDEN[i], i


def test_match_v2_rebuilds_the_matcher_mix_v1_digests(capsys, tmp_path):
    # perfbench's matcher_mix: its default seed and sizes, one digest per
    # op, hashed in op order over the pass and per op kind
    family = hall_family(500, random.Random(20260816), MATCH_EPSILONS, validate_cap=2)
    totals = {"all": hashlib.sha256()}
    for argv, schedule in match_runs(tmp_path, family):
        digest = sha256(rebuilt_v1(capsys, argv, schedule)).encode()
        kind = "match-audit" if "--audit" in argv else "match"
        totals.setdefault(kind, hashlib.sha256()).update(digest)
        totals["all"].update(digest)
    assert {k: h.hexdigest()[:16] for k, h in totals.items()} == MATCHER_MIX_V1


def test_match_v2_rebuilds_the_sample_graphs_match_v1(capsys, tmp_path, monkeypatch):
    script = ROOT / "scripts" / "make_sample_graphs.py"
    out = tmp_path / "sample_graphs"
    monkeypatch.setattr(sys, "argv", [str(script), "--seed", "0", "--out-dir", str(out)])
    runpy.run_path(str(script), run_name="__main__")
    capsys.readouterr()
    for (name, flags), digests in SAMPLE_RUNS.items():
        for audit, want in zip(([], ["--audit"]), digests):
            argv = ["match", str(out / f"{name}.json"), *flags.split(), *audit]
            assert sha256(rebuilt_v1(capsys, argv, SAMPLE_SCHEDULES[flags])) == want, argv
