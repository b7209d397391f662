"""Reduced words in the free group on two letters.

Words are plain strings over the alphabet a, A, b, B where capitals are
inverses.  The empty string is the identity.  All functions keep words
reduced (no xX or Xx factor), and the canonical ordering everywhere in the
package is shortlex with a < A < b < B.
"""

from __future__ import annotations

from .errors import BadLetterError

ALPHABET = "aAbB"
IDENTITY = ""

_INVERT = str.maketrans("aAbB", "AaBb")
# maps letters to consecutive codepoints so ordinary string comparison on the
# translated word realizes the a < A < b < B letter order
_SHORTLEX = str.maketrans("aAbB", "0123")
_LETTER_INVERSE = tuple(zip(ALPHABET, ALPHABET.translate(_INVERT)))


def reduce_word(w: str) -> str:
    """Cancel adjacent inverse pairs until none remain."""
    stack: list[str] = []
    for c in w:
        if c not in ALPHABET:
            raise BadLetterError(f"not a generator letter: {c!r}", letter=c, word=w)
        if stack and stack[-1] == c.translate(_INVERT):
            stack.pop()
        else:
            stack.append(c)
    return "".join(stack)


def is_reduced(w: str) -> bool:
    return all(c in ALPHABET for c in w) and all(
        w[i] != w[i + 1].translate(_INVERT) for i in range(len(w) - 1)
    )


def mul(u: str, v: str) -> str:
    """Product of two reduced words; cancellation only happens at the junction."""
    i = len(u)
    j = 0
    while i > 0 and j < len(v) and u[i - 1] == v[j].translate(_INVERT):
        i -= 1
        j += 1
    return u[:i] + v[j:]


def inv(w: str) -> str:
    return w[::-1].translate(_INVERT)


def word_key(w: str):
    """Shortlex sort key: length first, then letter order a < A < b < B."""
    return (len(w), w.translate(_SHORTLEX))


def iter_reduced(max_len: int):
    """All reduced words of length <= max_len in shortlex order.

    Level n prepends each letter c to the words of level n-1 that do not
    start with c^-1; prepending to a shortlex-sorted level keeps it sorted.
    """
    level = [IDENTITY]
    yield IDENTITY
    for _ in range(max_len):
        level = [c + w for c, ci in _LETTER_INVERSE for w in level if w[:1] != ci]
        yield from level
