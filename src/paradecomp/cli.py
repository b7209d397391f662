"""Command line entry point.

One JSON object per invocation on stdout, canonical encoding (sorted keys,
no whitespace), a top-level "schema" field naming the payload.  Exit codes:
0 ok, 1 usage or malformed input, 2 hypothesis/precondition failures on
well-formed input, 3 broken internal invariants.  No environment variables;
everything is a flag.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from fractions import Fraction

from .actions import (
    F2,
    SPHERE,
    DoublingGraph,
    expand_window,
    interior_saturating_matching,
    square_set,
    standard_generators,
    unmatched_boundary_stats,
)
from .errors import ParadecompError
from .graphs import graph_from_obj, graph_to_obj, to_dot
from .hall import ExpansionParams, check_hall_eps_n
from .layers import LayerSchedule, geometric_schedule, greedy_layering
from .matcher import layered_perfect_matching
from .paradox import (
    classical_f2_decomposition,
    matching_to_paradox,
    paradox_to_matching,
    pieces_from_obj,
    verify_paradox,
)
from .treedyn import (
    OrientedTwoRegular,
    f2_action_from_forest,
    forest_from_obj,
    forest_from_paradox,
    free_word_violation,
    transfer_matching,
    triple_system_from_matching,
)


class _InputError(ParadecompError):
    code = "BAD_INPUT"
    exit_status = 1


def _schema(name: str, version: int = 1) -> str:
    return f"paradecomp/{name}/{version}"


def canonical_json(obj) -> str:
    # counts are exact, so integers print in full: the interpreter's
    # int-to-str digit limit is lifted while encoding, then put back
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)


def _emit(obj) -> None:
    sys.stdout.write(canonical_json(obj))


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise _InputError(f"cannot read {path}: {e.strerror}", path=path)
    # bad JSON or UTF-8, an int past the digit limit, or nesting past the
    # recursion limit
    except (ValueError, RecursionError) as e:
        raise _InputError(f"not valid JSON: {path}", path=path, detail=str(e))


def _write_json(path: str, obj) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(obj))
    except OSError as e:
        raise _InputError(f"cannot write {path}: {e.strerror}", path=path)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here says 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _schedule_from_args(args):
    if args.schedule is not None:
        try:
            f_list = [int(t) for t in args.schedule.split(",")]
        except ValueError:
            raise _InputError(f"bad schedule list: {args.schedule!r}")
        return LayerSchedule(args.epsilon, f_list=tuple(f_list))
    return geometric_schedule(args.epsilon)


def _parse_base(kind: str, raw):
    """Base point from a --base flag (text) or a file's window.base (JSON)."""
    if raw is None:
        return "" if kind == F2 else None
    if kind == F2:
        if not isinstance(raw, str):
            raise _InputError(f"base: expected a word, got {raw!r}")
        return raw
    nums = raw
    if isinstance(raw, str):
        try:
            nums = [int(t) for t in raw.split(",")]
        except ValueError:
            raise _InputError(f"bad base point: {raw!r}")
    if not isinstance(nums, list) or any(type(c) is not int for c in nums):
        raise _InputError(f"bad base point: {raw!r}")
    if len(nums) == 3:
        nums = nums + [0]
    if len(nums) != 4:
        raise _InputError("base must be x,y,z or x,y,z,k")
    return tuple(nums)


def _add_window_flags(p) -> None:
    """The window flags of window, paradox and demo; verify's are optional."""
    p.add_argument("--kind", choices=[F2, SPHERE], required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--margin", type=int, default=4)
    p.add_argument("--base", default=None)


def _window_from_args(args, s, reach=None):
    """The window those flags name, expanded over the generating set s.

    reach is the longest word the command translates an interior point by;
    the window then holds only the points such translations reach.
    """
    base = _parse_base(args.kind, args.base)
    return expand_window(args.kind, base, s, args.radius, args.margin, reach)


def _window_geometry(obj, flags=None) -> tuple:
    """(kind, base, radius, margin) of the window an input file was made on.

    The values come from the file's 'window' object, as written by paradox.
    verify passes its parsed flags: they win over the file, the file may
    lack the object, and the margin defaults to 4.  forest passes none and
    needs kind, radius and margin from the file.  No base means the default.
    """
    meta = obj.get("window") if isinstance(obj, dict) else None
    if meta is None and flags is not None:
        meta = {}
    if not isinstance(meta, dict):
        raise _InputError("input lacks the 'window' metadata object")
    geo = {}
    for key in ("kind", "base", "radius", "margin"):
        flag = getattr(flags, key, None)
        geo[key] = meta.get(key) if flag is None else flag
    if geo["margin"] is None and flags is not None:
        geo["margin"] = 4
    if geo["kind"] not in (F2, SPHERE):
        raise _InputError(f"window.kind: expected {F2!r} or {SPHERE!r}")
    for key in ("radius", "margin"):
        if type(geo[key]) is not int:
            raise _InputError(f"window.{key}: expected an integer")
    kind = geo["kind"]
    return kind, _parse_base(kind, geo["base"]), geo["radius"], geo["margin"]


def _window_meta(w) -> dict:
    base = w.words[w.base_index] if w.kind == F2 else list(w.coords[w.base_index])
    return {
        "kind": w.kind,
        "radius": w.radius,
        "margin": w.margin,
        "base": base,
    }


def _sidecar_path(out: str) -> str:
    if out.endswith(".json"):
        return out[: -len(".json")] + ".points.json"
    return out + ".points.json"


def cmd_hall_check(args):
    g = graph_from_obj(_read_json(args.graph))
    # at epsilon 0 this is plain Hall, but the echoed floor and cap are checked
    p = ExpansionParams(args.epsilon or 0, args.floor)
    report = check_hall_eps_n(g, p, args.cap)
    payload = {
        "schema": _schema("hall-check"),
        "epsilon": str(args.epsilon) if args.epsilon is not None else None,
        "floor": args.floor,
        "cap": args.cap,
        "satisfied": report.satisfied,
        "report": report.as_obj(),
    }
    return payload, 0 if report.satisfied else 2


def cmd_layers(args):
    g = graph_from_obj(_read_json(args.graph))
    schedule = _schedule_from_args(args)
    lay = greedy_layering(g, schedule)
    payload = {
        "schema": _schema("layers"),
        "epsilon": str(args.epsilon),
        "layering": lay.as_obj(),
    }
    return payload, 0


def cmd_match(args):
    g = graph_from_obj(_read_json(args.graph))
    schedule = _schedule_from_args(args)
    res = layered_perfect_matching(
        g, schedule, floor=args.floor, cap=args.cap, audit=args.audit
    )
    if args.dot:
        try:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(to_dot(g, res.matching))
        except OSError as e:
            raise _InputError(f"cannot write {args.dot}: {e.strerror}")
    payload = {
        "schema": _schema("match", 2),
        "epsilon": str(args.epsilon),
        "floor": args.floor,
        "cap": args.cap,
        "audit": args.audit,
        "result": res.as_obj(),
        "dot": args.dot,
    }
    return payload, 0


def cmd_window(args):
    s = standard_generators()
    if args.square:
        s = square_set(s)
    w = _window_from_args(args, s)
    dg = DoublingGraph(w, s, args.copies)
    g = dg.to_bipartite()
    _write_json(args.out, {"schema": _schema("graph"), **graph_to_obj(g)})
    points_out = _sidecar_path(args.out)
    _write_json(
        points_out,
        {
            "schema": _schema("points"),
            "kind": w.kind,
            "radius": w.radius,
            "margin": w.margin,
            "copies": args.copies,
            "gens": list(s.elements),
            "base_index": w.base_index,
            "words": list(w.words),
            "coords": [list(p) for p in w.coords] if w.coords else None,
        },
    )
    payload = {
        "schema": _schema("window"),
        "window": _window_meta(w),
        "square": args.square,
        "copies": args.copies,
        "n_points": w.n_points(),
        "n_vertices": dg.n_vertices(),
        "n_edges": g.n_edges(),
        "interior_points": len(w.interior_indices()),
        "out": args.out,
        "points_out": points_out,
    }
    return payload, 0


def cmd_paradox(args):
    s = standard_generators()
    boundary = None
    if args.oracle == "classical":
        # the classical pieces list every point of the ball
        w = _window_from_args(args, s)
        pd = classical_f2_decomposition(w)
    else:
        w = _window_from_args(args, s, s.radius)
        dg = DoublingGraph(w, s, 3)
        partner = interior_saturating_matching(dg)
        pd = matching_to_paradox(dg, partner)
        boundary = unmatched_boundary_stats(dg, partner)
    cert = verify_paradox(pd, w)
    payload = {
        "schema": _schema("paradox"),
        "oracle": args.oracle,
        "window": _window_meta(w),
        "pieces": pd.as_obj(w),
        "certificate": cert.as_obj(),
        "boundary": boundary,
    }
    if args.out:
        _write_json(args.out, payload)
    return payload, 0 if cert.status == "PASS" else 3


def cmd_verify(args):
    obj = _read_json(args.pieces)
    # a paradox output carries its window, so it re-checks without flags
    kind, base, radius, margin = _window_geometry(obj, args)
    s = standard_generators()
    w = expand_window(kind, base, s, radius, margin)
    # accept either bare piece tables or a whole paradox output
    if isinstance(obj, dict) and "gens" not in obj:
        obj = obj.get("pieces", obj)
    pd = pieces_from_obj(obj, w)
    cert = verify_paradox(pd, w)
    payload = {
        "schema": _schema("verify"),
        "pieces": args.pieces,
        "window": _window_meta(w),
        "certificate": cert.as_obj(),
    }
    return payload, 0 if cert.status == "PASS" else 2


def cmd_transfer(args):
    g = graph_from_obj(_read_json(args.graph))
    mobj = _read_json(args.gn_matching)
    raw = mobj.get("matching") if isinstance(mobj, dict) else mobj
    if not isinstance(raw, list):
        raise _InputError("matching file needs a top-level list or a 'matching' field")
    pairs = []
    for e in raw:
        if not (isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e)):
            raise _InputError(f"bad matching entry: {e!r}")
        pairs.append((e[0], e[1]))
    tr = OrientedTwoRegular.from_graph(g)
    res = transfer_matching(tr, pairs, args.n)
    payload = {
        "schema": _schema("transfer"),
        **res.as_obj(),
        "directions": sorted([x, d] for x, d in res.directions(tr).items()),
    }
    return payload, 0


def cmd_forest(args):
    kind, base, radius, margin = _window_geometry(_read_json(args.src))
    # same window as the paradox run; only the translation set is squared
    # (expanding the window itself over S^2 would double the word radius)
    s = standard_generators()
    s2 = square_set(s)
    w = expand_window(kind, base, s, radius, margin, s2.radius)
    dg = DoublingGraph(w, s2, 4)
    ts = triple_system_from_matching(dg, interior_saturating_matching(dg))
    del dg  # the forest reads only ts; its peak memory is lower without the graph
    fw = forest_from_paradox(ts)
    forest_obj = {"schema": _schema("forest-window", 2), **fw.to_obj()}
    if args.out:
        _write_json(args.out, forest_obj)
    payload = {
        "schema": _schema("forest", 3),
        "window": _window_meta(w),
        "n_points": fw.n_points(),
        "kept_points": sum(1 for b in fw.present if b),
        "stats": fw.stats,
        "out": args.out,
        "forest": None if args.out else forest_obj,
    }
    return payload, 0


def cmd_f2action(args):
    fw = forest_from_obj(_read_json(args.src))
    res = f2_action_from_forest(fw, args.stages)
    vio = free_word_violation(res.maps, args.free_len)
    payload = {
        "schema": _schema("f2action", 2),
        "stages": args.stages,
        "result": res.as_obj(),
        "free_check": {
            "max_len": args.free_len,
            "violation": None
            if vio is None
            else {"point": vio[0], "word": list(vio[1])},
        },
    }
    return payload, 0 if vio is None else 3


def cmd_demo(args):
    s = standard_generators()
    w = _window_from_args(args, s, s.radius)
    dg = DoublingGraph(w, s, 3)
    partner = interior_saturating_matching(dg)
    pd = matching_to_paradox(dg, partner)
    cert = verify_paradox(pd, w)
    classical = classical_f2_decomposition(w)
    cert_classical = verify_paradox(classical, w)

    m2 = paradox_to_matching(pd, dg)
    subset_ok = all(partner.get(u) == v for u, v in m2)
    covered0 = {e[0] for e in m2}
    interior0 = set(w.interior_indices())
    covers_interior = interior0 <= covered0

    ok = (
        cert.status == "PASS"
        and cert_classical.status == "PASS"
        and subset_ok
        and covers_interior
    )
    payload = {
        "schema": _schema("demo", 3),
        "window": _window_meta(w),
        # a passing certificate holds the piece sizes already
        "piece_sizes": pd.piece_sizes() if cert.stats is None else cert.stats,
        "certificate": cert.as_obj(),
        "classical_certificate": cert_classical.as_obj(),
        "roundtrip": {
            "pairs": len(m2),
            "subset_of_matching": subset_ok,
            "covers_interior": covers_interior,
        },
        "boundary": unmatched_boundary_stats(dg, partner),
        "pass": ok,
    }
    return payload, 0 if ok else 3


# built once per process: parse_args keeps its results in a fresh namespace
@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="paradecomp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("hall-check", cmd_hall_check, "check Hall / Hall_(eps,n) on a graph file")
    p.add_argument("graph")
    p.add_argument("--epsilon", type=_fraction, default=None)
    p.add_argument("--floor", type=int, default=1)
    p.add_argument("--cap", type=int, default=8)

    p = add("layers", cmd_layers, "greedy sparse layering of a graph")
    p.add_argument("graph")
    p.add_argument("--epsilon", type=_fraction, required=True)
    p.add_argument("--schedule", default=None, help="explicit f values, comma separated")

    p = add("match", cmd_match, "layered Hall-preserving perfect matching")
    p.add_argument("graph")
    p.add_argument("--epsilon", type=_fraction, required=True)
    p.add_argument("--floor", type=int, default=1)
    p.add_argument("--cap", type=int, default=8)
    p.add_argument("--schedule", default=None)
    p.add_argument("--audit", action="store_true")
    p.add_argument("--dot", default=None, help="write a DOT rendering here")

    p = add("window", cmd_window, "expand an action window and dump its doubling graph")
    _add_window_flags(p)
    p.add_argument("--square", action="store_true", help="use S^2, radius in S^2 steps")
    p.add_argument("--copies", type=int, choices=[3, 4], default=3)
    p.add_argument("--out", required=True)

    p = add("paradox", cmd_paradox, "build and verify a paradoxical decomposition")
    _add_window_flags(p)
    p.add_argument("--oracle", choices=["classical", "matched"], default="matched")
    p.add_argument("--out", default=None)

    p = add("verify", cmd_verify, "re-check an external decomposition on a window")
    p.add_argument("--pieces", required=True)
    p.add_argument("--kind", choices=[F2, SPHERE], default=None)
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--margin", type=int, default=None)
    p.add_argument("--base", default=None)

    p = add("transfer", cmd_transfer, "ball-majority transfer of a G_n matching")
    p.add_argument("--graph", required=True)
    p.add_argument("--gn-matching", dest="gn_matching", required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("forest", cmd_forest, "4-regular forest from a paradox window")
    p.add_argument("--from", dest="src", required=True, help="paradox output JSON")
    p.add_argument("--out", default=None)

    p = add("f2action", cmd_f2action, "staged free action on a forest window")
    p.add_argument("--from", dest="src", required=True, help="forest window JSON")
    p.add_argument(
        "--stages", type=int, required=True,
        help="highest stage index; N runs stages 0..N",
    )
    p.add_argument("--free-len", dest="free_len", type=int, default=6)

    p = add("demo", cmd_demo, "window -> doubling -> match -> pieces -> certificate")
    _add_window_flags(p)

    return parser


def main(argv=None) -> int:
    """Run one command, print its JSON line and return its exit status.

    The cyclic garbage collector is paused from argument parsing to the
    printed line.  The package builds only acyclic data (ints, strings,
    tuples, lists, dicts, sets), which reference counting frees as soon as
    it dies, so a collection inside a command frees nothing and only costs
    time; a radius-11 f2 ``demo`` would run about forty.  The only cycles
    a call leaves are argparse's (the cached parser, usage errors), and the
    first collection after the call frees them.  The caller's collector
    state is put back in a ``finally``, on success, on error and on
    ``SystemExit``.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(build_parser().parse_args(argv))
    finally:
        if enabled:
            gc.enable()


def _run(args) -> int:
    try:
        payload, code = args.func(args)
    except ParadecompError as e:
        obj = e.as_json()
        obj["schema"] = _schema("error")
        _emit(obj)
        return e.exit_status
    except ValueError as e:
        # library-level argument validation (bad radius/margin combinations,
        # nonpositive epsilon, ...): precondition failure, not a crash
        _emit(
            {
                "schema": _schema("error"),
                "error": "PRECONDITION",
                "message": str(e),
            }
        )
        return 2
    _emit(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
