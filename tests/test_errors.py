from fractions import Fraction

from paradecomp.errors import InvariantError


def test_as_json_makes_details_plain():
    # sets are sorted, tuples become lists in order at any depth, and any
    # other value falls back to str()
    err = InvariantError(
        "broken",
        members={3, 1, 2},
        sides=frozenset("ba"),
        path=(1, (2, [3, 4])),
        share=Fraction(1, 3),
    )
    assert err.as_json() == {
        "error": "INVARIANT",
        "message": "broken",
        "details": {
            "members": [1, 2, 3],
            "sides": ["a", "b"],
            "path": [1, [2, [3, 4]]],
            "share": "1/3",
        },
    }
