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
    group_certificate,
    is_unit_point,
    letter_rotation,
    normalize_point,
    orbit_certificate,
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


def _patch_letters(monkeypatch, letters):
    """Swap the generator letters for a named test set; None keeps them."""
    import paradecomp.rotations as rot_mod

    if letters == "b=a":  # scale 1, and aB is the identity
        monkeypatch.setitem(rot_mod._LETTER, "b", ROT_A)
        monkeypatch.setitem(rot_mod._LETTER, "B", ROT_A.transpose())
    elif letters == "all scale 0":
        # every N_c is then invertible mod 5, so only the scale check refuses
        for c, order in (("a", 4), ("b", 2)):
            gen = _FINITE_ORDER[order]
            monkeypatch.setitem(rot_mod._LETTER, c, gen)
            monkeypatch.setitem(rot_mod._LETTER, c.upper(), gen.transpose())
    elif letters is not None:  # a scale-0 finite-order a
        gen = _FINITE_ORDER[letters]
        monkeypatch.setitem(rot_mod._LETTER, "a", gen)
        monkeypatch.setitem(rot_mod._LETTER, "A", gen.transpose())


@pytest.mark.parametrize("order", [None, 2, 3, 4, "all scale 0", "b=a"])
def test_certificate_agrees_with_dfs_oracle(monkeypatch, order):
    # assert_free raises exactly when the enumeration finds a word
    import paradecomp.rotations as rot_mod

    _patch_letters(monkeypatch, order)
    letters = dict(rot_mod._LETTER)
    for max_len in range(9):
        w = shortest_identity_word(max_len)
        assert (w is None) == (dfs_identity_word(letters, max_len) is None)
        if w is None:
            assert_free(max_len)
            continue
        assert w and is_reduced(w) and len(w) <= max_len
        assert rotation_is_identity(word_rotation(w))
        with pytest.raises(FreeActionViolationError) as ei:
            assert_free(max_len)
        assert ei.value.details == {"word": w, "length": len(w)}
    if order in _FINITE_ORDER:
        assert shortest_identity_word(order) is not None


def test_group_certificate_proves_the_real_letters_free():
    # (last letter, N_w mod 5) over the nonempty reduced words: 32 states
    assert group_certificate() == 32


@pytest.mark.parametrize("letters", [2, 3, 4, "all scale 0", "b=a"])
def test_group_certificate_refuses_letters_that_are_not_free(monkeypatch, letters):
    _patch_letters(monkeypatch, letters)
    assert group_certificate() is None


def test_orbit_certificate_reads_the_letters_at_call_time(monkeypatch):
    _patch_letters(monkeypatch, "all scale 0")
    assert orbit_certificate((0, 1, 0, 0)) is None


def test_assert_free_needs_no_enumeration_on_the_real_letters(monkeypatch):
    import paradecomp.rotations as rot_mod

    def enumerate_words(max_len):
        raise AssertionError("assert_free enumerated words")

    monkeypatch.setattr(rot_mod, "shortest_identity_word", enumerate_words)
    assert_free(12)


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


# base -> (descended point, word carrying it back to the base, states)
CERTIFIED = {
    (0, 1, 0, 0): ((0, 1, 0, 0), "", 16),
    (0, 3, 4, 1): ((0, 1, 0, 0), "b", 16),  # B lowers its scale
    (4, 3, 0, 1): ((0, 1, 0, 0), "A", 16),  # a lowers its scale
    (3, 0, 4, 1): ((3, 0, 4, 1), "", 8),
}


@pytest.mark.parametrize("base", list(CERTIFIED), ids=str)
def test_orbit_certificate_certifies_and_descends(base):
    p0, w, states = cert = orbit_certificate(base)
    assert cert == CERTIFIED[base]
    assert is_reduced(w)
    assert apply_to_point(word_rotation(w), p0) == base


# (3,4,0,1) is a.(1,0,0), and b fixes (1,0,0); a fixes (0,0,1)
@pytest.mark.parametrize("base", [(3, 4, 0, 1), (1, 0, 0, 0), (0, 0, 1, 0)], ids=str)
def test_orbit_certificate_refuses_points_with_a_stabilizer(base):
    assert orbit_certificate(base) is None


@pytest.mark.parametrize("base", list(CERTIFIED), ids=str)
def test_certified_orbit_scale_grows_with_word_length(base):
    # the certificate's claim, read off exact points: w.p0 has scale k0 + |w|
    p0, _, _ = orbit_certificate(base)
    rng = random.Random(22)
    for _ in range(1000):
        out = []
        for _ in range(rng.randint(0, 40)):
            c = rng.choice("aAbB")
            while out and out[-1] == inv(c):
                c = rng.choice("aAbB")
            out.append(c)
        w = "".join(out)
        q = apply_to_point(word_rotation(w), p0)
        assert is_unit_point(q)
        assert q[3] == p0[3] + len(w), w


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
