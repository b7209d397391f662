import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from paradecomp.errors import BadLetterError, FreeActionViolationError
from paradecomp.rotations import (
    ROT_A,
    ROT_B,
    ROTATION_IDENTITY,
    Rotation,
    apply_to_point,
    assert_free,
    is_unit_point,
    letter_rotation,
    normalize_point,
    point_mover,
    shortest_identity_word,
    word_rotation,
)
from paradecomp.words import (
    inv,
    is_reduced,
    iter_reduced,
    mul,
    reduce_word,
    word_key,
)

from oracles import (
    dfs_identity_word,
    rotation_entries,
    rotation_is_identity,
    rotation_is_orthogonal,
    scan_reduce,
    word_matrix_fraction,
)

words_st = st.text(alphabet="aAbB", max_size=24)
# mul/inv take reduced words; the raw strategy exists to exercise reduce_word
reduced_st = words_st.map(scan_reduce)


@given(words_st)
def test_reduce_matches_scan_oracle(w):
    r = reduce_word(w)
    assert r == scan_reduce(w)
    assert is_reduced(r)


@given(reduced_st, reduced_st)
def test_mul_is_concat_then_reduce(u, v):
    assert mul(u, v) == scan_reduce(u + v)


@given(reduced_st)
def test_inverse_cancels(w):
    assert mul(w, inv(w)) == ""
    assert mul(inv(w), w) == ""


def test_word_key_is_shortlex():
    ws = ["", "a", "A", "b", "B", "aa", "ab", "aB", "Ab", "ba"]
    assert sorted(ws, key=word_key) == [
        "",
        "a",
        "A",
        "b",
        "B",
        "aa",
        "ab",
        "aB",
        "Ab",
        "ba",
    ]


def test_iter_reduced_counts():
    # 1 + 4 * 3^(k-1) reduced words of length exactly k
    words = list(iter_reduced(4))
    assert len(words) == 1 + 4 + 12 + 36 + 108
    assert len(set(words)) == len(words)
    assert all(is_reduced(w) for w in words)
    # enumeration follows the canonical key order
    assert words == sorted(words, key=word_key)


def test_generator_matrices_are_exact():
    assert ROT_A.num == (3, -4, 0, 4, 3, 0, 0, 0, 5) and ROT_A.scale == 1
    assert ROT_B.num == (5, 0, 0, 0, 3, -4, 0, 4, 3) and ROT_B.scale == 1
    for rot in (ROT_A, ROT_B):
        assert rotation_is_orthogonal(rot)
    assert rotation_is_identity(ROT_A * ROT_A.transpose())
    with pytest.raises(BadLetterError):
        letter_rotation("x")


@given(st.text(alphabet="aAbB", min_size=0, max_size=12))
def test_word_rotation_matches_fraction_oracle(w):
    got = rotation_entries(word_rotation(w))
    want = word_matrix_fraction(reduce_word(w))
    assert [cell for row in got for cell in row] == list(want)


def test_rotation_normalization_strips_common_fives():
    r = Rotation((5, 0, 0, 0, 5, 0, 0, 0, 5), 1)
    assert r.scale == 0 and r.num == (1, 0, 0, 0, 1, 0, 0, 0, 1)
    assert r == ROTATION_IDENTITY


def test_freeness_small_lengths():
    assert shortest_identity_word(8) is None
    assert_free(8)


def test_freeness_certificate_to_length_twenty():
    assert shortest_identity_word(20) is None


# finite-order replacements for ROT_A: a half turn, a 3-cycle of the axes and
# a quarter turn about z, each giving identity words of that length
_FINITE_ORDER = {
    2: Rotation((-1, 0, 0, 0, -1, 0, 0, 0, 1), 0),
    3: Rotation((0, 0, 1, 1, 0, 0, 0, 1, 0), 0),
    4: Rotation((0, -1, 0, 1, 0, 0, 0, 0, 1), 0),
}


@pytest.mark.parametrize("order", [None, 2, 3, 4])
def test_certificate_agrees_with_dfs_oracle(monkeypatch, order):
    import paradecomp.rotations as rot_mod

    if order is not None:
        gen = _FINITE_ORDER[order]
        monkeypatch.setitem(rot_mod._LETTER, "a", gen)
        monkeypatch.setitem(rot_mod._LETTER, "A", gen.transpose())
    letters = dict(rot_mod._LETTER)
    for max_len in range(9):
        w = shortest_identity_word(max_len)
        assert (w is None) == (dfs_identity_word(letters, max_len) is None)
        if w is not None:
            assert w and is_reduced(w) and len(w) <= max_len
            assert rotation_is_identity(word_rotation(w))
    if order is not None:
        assert shortest_identity_word(order) is not None


def test_point_mover_refuses_a_rotation_fixing_no_axis():
    with pytest.raises(ValueError):
        point_mover(_FINITE_ORDER[3])


def test_orthogonality_of_random_words_exact():
    rng = random.Random(17)
    flip = {"a": "A", "A": "a", "b": "B", "B": "b"}
    for _ in range(100):
        out = []
        for _ in range(rng.randint(1, 40)):
            c = rng.choice("aAbB")
            while out and out[-1] == flip[c]:
                c = rng.choice("aAbB")
            out.append(c)
        rot = word_rotation("".join(out))
        assert rotation_is_orthogonal(rot)
        assert not rotation_is_identity(rot)


def test_point_normalization_and_unit_check():
    assert normalize_point(0, 25, 0, 2) == (0, 1, 0, 0)
    assert normalize_point(3, 4, 0, 1) == (3, 4, 0, 1)
    assert is_unit_point((0, 1, 0, 0))
    assert is_unit_point((3, 4, 0, 1))
    assert not is_unit_point((1, 1, 0, 0))


def test_apply_to_point_walks_the_sphere():
    p = (0, 1, 0, 0)
    q = apply_to_point(ROT_A, p)
    assert q == (-4, 3, 0, 1)
    assert is_unit_point(q)
    back = apply_to_point(ROT_A.transpose(), q)
    assert back == p


def test_assert_free_raises_with_broken_generator(monkeypatch):
    # a finite-order rotation in place of ROT_A must be caught
    import paradecomp.rotations as rot_mod

    flipped = Rotation((-1, 0, 0, 0, -1, 0, 0, 0, 1), 0)
    monkeypatch.setitem(rot_mod._LETTER, "a", flipped)
    monkeypatch.setitem(rot_mod._LETTER, "A", flipped)
    with pytest.raises(FreeActionViolationError) as ei:
        assert_free(4)
    assert ei.value.details["word"] == "aa"
