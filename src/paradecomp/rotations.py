"""Exact rational rotations generating a free group.

A rotation is stored as a 3x3 integer matrix ``num`` (row major tuple) plus a
power-of-five denominator exponent ``scale``; the real matrix is
num / 5**scale.  The two standard generators rotate by arccos(3/5) about the
z and x axes.  Everything stays in integer arithmetic, so identity tests and
freeness checks are exact rather than floating point.  Since a rotation is
normalized (common factors of 5 stripped from ``num``), equal rotations have
equal fields and hash alike, which is what lets the freeness certificate
find words with equal rotations by dictionary lookup.

Vectors live on the rational sphere: (x, y, z, k) stands for
(x, y, z) / 5**k with x^2 + y^2 + z^2 = 25**k, kept normalized so not all of
x, y, z are divisible by 5 when k > 0.
"""

from __future__ import annotations

from .errors import BadLetterError, FreeActionViolationError
from .words import ALPHABET, IDENTITY, inv, mul, reduce_word

_ID9 = (1, 0, 0, 0, 1, 0, 0, 0, 1)


class Rotation:
    __slots__ = ("num", "scale")

    def __init__(self, num, scale, _normalized=False):
        num = tuple(num)
        if not _normalized:
            while scale > 0 and all(v % 5 == 0 for v in num):
                num = tuple(v // 5 for v in num)
                scale -= 1
        self.num = num
        self.scale = scale

    def __mul__(self, other: "Rotation") -> "Rotation":
        a, b = self.num, other.num
        out = []
        for i in (0, 3, 6):
            r0, r1, r2 = a[i], a[i + 1], a[i + 2]
            for j in (0, 1, 2):
                out.append(r0 * b[j] + r1 * b[3 + j] + r2 * b[6 + j])
        return Rotation(out, self.scale + other.scale)

    def transpose(self) -> "Rotation":
        n = self.num
        return Rotation(
            (n[0], n[3], n[6], n[1], n[4], n[7], n[2], n[5], n[8]),
            self.scale,
            _normalized=True,
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Rotation)
            and self.scale == other.scale
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.num, self.scale))

    def __repr__(self):
        return f"Rotation({self.num}, scale={self.scale})"


ROT_A = Rotation((3, -4, 0, 4, 3, 0, 0, 0, 5), 1, _normalized=True)
ROT_B = Rotation((5, 0, 0, 0, 3, -4, 0, 4, 3), 1, _normalized=True)

_LETTER = {
    "a": ROT_A,
    "A": ROT_A.transpose(),
    "b": ROT_B,
    "B": ROT_B.transpose(),
}

ROTATION_IDENTITY = Rotation(_ID9, 0, _normalized=True)

_INV = {"a": "A", "A": "a", "b": "B", "B": "b"}


def letter_rotation(c: str) -> Rotation:
    try:
        return _LETTER[c]
    except KeyError:
        raise BadLetterError(f"not a generator letter: {c!r}", letter=c) from None


def word_rotation(w: str) -> Rotation:
    out = ROTATION_IDENTITY
    for c in reduce_word(w):
        out = out * _LETTER[c]
    return out


def shortest_identity_word(max_len: int) -> str | None:
    """Certify that the generators act freely out to word length max_len.

    Returns a reduced nonidentity word of length <= max_len acting as the
    identity, or None when there is none.  Meet in the middle: such a word
    splits as x.y with |x| <= ceil(max_len/2) and |y| <= floor(max_len/2),
    so rot(x) = rot(y^-1) for two distinct reduced words.  Words are walked
    level by level in shortlex order, each carrying its rotation so a new
    word costs one product.  Rotations of words up to floor(max_len/2) are
    stored; the extra level of an odd max_len is only looked up, so no
    witness is longer than max_len.  The first new word w whose rotation
    equals that of a stored u gives the witness u.w^-1.
    """
    half = max_len // 2
    seen = {ROTATION_IDENTITY: IDENTITY}
    level = [(IDENTITY, ROTATION_IDENTITY)]
    for length in range(1, max_len - half + 1):
        store = length <= half
        nxt = []
        for w, rot in level:
            last = w[-1:]
            for c in ALPHABET:
                if last == _INV[c]:
                    continue
                nw = w + c
                nrot = rot * _LETTER[c]
                u = seen.get(nrot)
                if u is not None:
                    return mul(u, inv(nw))
                if store:
                    seen[nrot] = nw
                    nxt.append((nw, nrot))
        level = nxt
    return None


def assert_free(max_len: int) -> None:
    w = shortest_identity_word(max_len)
    if w is not None:
        raise FreeActionViolationError(
            f"reduced word acts as identity: {w}", word=w, length=len(w)
        )


def normalize_point(x: int, y: int, z: int, k: int) -> tuple[int, int, int, int]:
    while k > 0 and x % 5 == 0 and y % 5 == 0 and z % 5 == 0:
        x, y, z, k = x // 5, y // 5, z // 5, k - 1
    return (x, y, z, k)


def is_unit_point(p: tuple[int, int, int, int]) -> bool:
    x, y, z, k = p
    return x * x + y * y + z * z == 25 ** k


def apply_to_point(rot: Rotation, p: tuple[int, int, int, int]):
    x, y, z, k = p
    n = rot.num
    return normalize_point(
        n[0] * x + n[1] * y + n[2] * z,
        n[3] * x + n[4] * y + n[5] * z,
        n[6] * x + n[7] * y + n[8] * z,
        k + rot.scale,
    )


def point_mover(rot: Rotation):
    """apply_to_point(rot, .) unrolled, with rot's entries bound once.

    expand_window maps one mover over a whole run of points.  The tests
    check its points with apply_to_point, so the two stay separate.
    """
    n0, n1, n2, n3, n4, n5, n6, n7, n8 = rot.num
    scale = rot.scale

    def move(p):
        x, y, z, k = p
        u = n0 * x + n1 * y + n2 * z
        v = n3 * x + n4 * y + n5 * z
        w = n6 * x + n7 * y + n8 * z
        k += scale
        while k > 0 and u % 5 == 0 and v % 5 == 0 and w % 5 == 0:
            u, v, w, k = u // 5, v // 5, w // 5, k - 1
        return (u, v, w, k)

    return move


BASE_POINT = (0, 1, 0, 0)
