"""Paradoxical decompositions from doubling-graph matchings, and back.

A perfect-on-interior matching of the 3-copy doubling graph names, for each
interior point x, one partner (c, gamma . x); copy 1 partners put x into an
A-piece and copy 2 partners into a B-piece, indexed by the least generator
realizing the partner.  The A-pieces translate to cover every point exactly
once, and so do the B-pieces: that pair of facts is what the verifier checks
on the deep interior, where finite truncation cannot interfere.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .actions import ActionWindow, DoublingGraph, GeneratingSet, standard_generators
from .errors import InvariantError, PiecesFormatError
from .words import IDENTITY, inv, is_reduced, iter_reduced, mul


@dataclass(frozen=True)
class ParadoxicalDecomposition:
    gens: GeneratingSet
    pieces_a: dict  # point index -> generator index
    pieces_b: dict

    def piece_sizes(self) -> dict:
        out_a: dict = {}
        out_b: dict = {}
        for idx in self.pieces_a.values():
            out_a[idx] = out_a.get(idx, 0) + 1
        for idx in self.pieces_b.values():
            out_b[idx] = out_b.get(idx, 0) + 1
        return {"a": out_a, "b": out_b}

    def as_obj(self, window: ActionWindow) -> dict:
        return {
            "gens": list(self.gens.elements),
            "pieces_a": sorted([window.words[i], t] for i, t in self.pieces_a.items()),
            "pieces_b": sorted([window.words[i], t] for i, t in self.pieces_b.items()),
        }


def pieces_from_obj(obj, window: ActionWindow) -> ParadoxicalDecomposition:
    """Parse a piece table, naming the offending field on bad input."""
    if not isinstance(obj, dict):
        raise PiecesFormatError("pieces: expected an object")
    for key in ("gens", "pieces_a", "pieces_b"):
        if key not in obj:
            raise PiecesFormatError(f"missing field: {key}")
        if not isinstance(obj[key], list):
            raise PiecesFormatError(f"{key}: expected a list")
    words = obj["gens"]
    for i, w in enumerate(words):
        if not isinstance(w, str):
            raise PiecesFormatError(f"gens[{i}]: expected a word")
    # the only list accepted is a ball in shortlex order, as written; islice
    # keeps one long word from enumerating its whole ball
    radius = max(map(len, words), default=0)
    if radius < 1 or list(islice(iter_reduced(radius), len(words) + 1)) != words:
        raise PiecesFormatError(
            "gens: expected the reduced words of length <= L in shortlex order, "
            "for some L >= 1"
        )
    gens = GeneratingSet(radius)
    pieces_a = {}
    pieces_b = {}
    for key, target in (("pieces_a", pieces_a), ("pieces_b", pieces_b)):
        for n, entry in enumerate(obj[key]):
            where = f"{key}[{n}]"
            if not isinstance(entry, list) or len(entry) != 2:
                raise PiecesFormatError(f"{where}: expected a pair [word, index]")
            word, idx = entry
            if not isinstance(word, str):
                raise PiecesFormatError(f"{where}: point must be a word")
            if not is_reduced(word):
                raise PiecesFormatError(f"{where}: {word!r} is not a reduced word")
            if not isinstance(idx, int) or isinstance(idx, bool):
                raise PiecesFormatError(f"{where}: index must be an integer")
            if not 0 <= idx < len(gens):
                raise PiecesFormatError(
                    f"{where}: index {idx} outside the {len(gens)} generators"
                )
            i = window.index_of_word(word)
            if i is None:
                continue  # points outside this window cannot be checked
            target[i] = idx
    return ParadoxicalDecomposition(gens=gens, pieces_a=pieces_a, pieces_b=pieces_b)


@dataclass(frozen=True)
class Certificate:
    status: str  # PASS or FAIL
    deep_interior: int
    violation: dict | None = None
    warnings: tuple = ()
    stats: dict | None = None

    def as_obj(self) -> dict:
        return {
            "status": self.status,
            "deep_interior": self.deep_interior,
            "violation": self.violation,
            "warnings": list(self.warnings),
            "stats": self.stats,
        }


def matching_to_paradox(dg: DoublingGraph, partner: dict) -> ParadoxicalDecomposition:
    """Piece assignment from a matching, least generator index breaking ties.

    partner is the matching's partner map, as dg.partners returns it (and
    interior_saturating_matching with it): every interior vertex of all
    copies is matched there; boundary vertices may be unmatched.
    """
    if dg.copies != 3:
        raise ValueError("piece extraction needs the 3-copy doubling graph")
    w = dg.window
    paths = w.table_paths(dg.s.elements)
    pieces_a: dict = {}
    pieces_b: dict = {}
    for i in w.interior_indices():
        c, j = divmod(partner[i], dg.n_points)
        for t, path in enumerate(paths):
            k = i
            for table in path:
                k = table[k]
                if k < 0:
                    break
            if k == j:
                break
        else:
            raise InvariantError(
                "matched pair not realized by any generator", edge=[i, partner[i]]
            )
        if c == 1:
            pieces_a[i] = t
        else:
            pieces_b[i] = t
    return ParadoxicalDecomposition(gens=dg.s, pieces_a=pieces_a, pieces_b=pieces_b)


def paradox_to_matching(pd: ParadoxicalDecomposition, dg: DoublingGraph) -> set:
    """Reverse identification: pieces back to doubling-graph edges."""
    paths = dg.window.table_paths(pd.gens.elements)
    n = dg.n_points
    out = set()
    used = set()
    for pieces, copy in ((pd.pieces_a, 1), (pd.pieces_b, 2)):
        for i, t in sorted(pieces.items()):
            j = i
            for table in paths[t]:
                j = table[j]
                if j < 0:
                    break
            if j < 0:
                continue
            u, v = i, copy * n + j
            if u in used or v in used:
                raise InvariantError("piece tables overlap", edge=[u, v])
            used.add(u)
            used.add(v)
            out.add((u, v))
    return out


def verify_paradox(pd: ParadoxicalDecomposition, w: ActionWindow) -> Certificate:
    """Certificate over the deep interior (points whose gens-ball is interior).

    Checks, in canonical point order, that deep points are assigned exactly
    one piece, and that each deep point is hit by exactly one A-translate and
    exactly one B-translate of interior assigned points.  Returns the first
    violation; an empty deep interior is a vacuous PASS with a warning.
    """
    reach = pd.gens.radius
    deep = w.interior_indices(reach)
    warnings = ()
    if not deep:
        warnings = ("empty deep interior; certificate is vacuous",)
    violation = _first_violation(pd, w, deep)
    return Certificate(
        status="PASS" if violation is None else "FAIL",
        deep_interior=len(deep),
        violation=violation,
        warnings=warnings,
        stats=pd.piece_sizes() if violation is None else None,
    )


def _first_violation(pd: ParadoxicalDecomposition, w: ActionWindow, deep):
    """The violation verify_paradox reports, or None when there is none."""
    both = sorted(pd.pieces_a.keys() & pd.pieces_b.keys())
    if both:
        return {"kind": "point_in_both_tables", "point": w.words[both[0]]}

    paths = w.table_paths(pd.gens.elements)
    dist, bound = w.dist, w.radius - w.margin
    a_hits: dict = {}
    b_hits: dict = {}
    for pieces, hits in ((pd.pieces_a, a_hits), (pd.pieces_b, b_hits)):
        for i, t in pieces.items():
            if dist[i] > bound:
                continue
            j = i
            for table in paths[t]:
                j = table[j]
                if j < 0:
                    break
            else:
                hits.setdefault(j, []).append(i)

    for z in deep:
        if z not in pd.pieces_a and z not in pd.pieces_b:
            return {"kind": "deep_point_unassigned", "point": w.words[z]}
        for label, hits in (("a", a_hits), ("b", b_hits)):
            got = hits.get(z, [])
            if len(got) != 1:
                return {
                    "kind": f"coverage_{label}",
                    "point": w.words[z],
                    "preimages": sorted(w.words[i] for i in got),
                }
    return None


def classical_f2_decomposition(w: ActionWindow) -> ParadoxicalDecomposition:
    """The textbook four-piece decomposition, as a known-answer oracle.

    Pieces by leading letter, with the powers of the inverse generator
    (identity included) absorbed into the piece translated by the identity:
    points starting with 'a' or lying in P = {A^k} translate by e; the rest
    of W(A) translates by a; W(b) by e; W(B) by b.  The point labelled
    g.base is classified by g, which is its label when the base is the
    identity (f2 at the identity, and every sphere window).
    """
    base = w.words[w.base_index]
    words = w.words if base == IDENTITY else [mul(x, inv(base)) for x in w.words]
    gens = standard_generators()
    pieces_a: dict = {}
    pieces_b: dict = {}
    for i, word in enumerate(words):
        if not word or word == "A" * len(word):
            pieces_a[i] = 0  # P, absorbed
        elif word[0] == "a":
            pieces_a[i] = 0
        elif word[0] == "A":
            pieces_a[i] = 1
        elif word[0] == "b":
            pieces_b[i] = 0
        else:
            pieces_b[i] = 3
    return ParadoxicalDecomposition(gens=gens, pieces_a=pieces_a, pieces_b=pieces_b)
