"""Unit tests for the permutation primitives."""

import pytest

from meshperm.perms import (
    CapExceededError,
    as_perm,
    complement,
    complement_on_set,
    enumerate_sn,
    format_perm,
    inverse,
    is_perm,
    left_to_right_minima,
    lex_rank,
    parse_perm,
    reverse,
    standardize,
    right_to_left_maxima,
)


def test_is_perm():
    assert is_perm(())
    assert is_perm((1,))
    assert is_perm((2, 1, 3))
    assert not is_perm((0, 1))
    assert not is_perm((1, 1))
    assert not is_perm((1, 3))


def test_as_perm_normalizes_and_validates():
    assert as_perm([3, 1, 2]) == (3, 1, 2)
    assert as_perm(()) == ()
    with pytest.raises(ValueError):
        as_perm([1, 2, 2])
    with pytest.raises(ValueError):
        as_perm([0, 1, 2])


def test_elementary_symmetries():
    p = (2, 4, 1, 3)
    assert reverse(p) == (3, 1, 4, 2)
    assert complement(p) == (3, 1, 4, 2)
    assert inverse(p) == (3, 1, 4, 2)
    assert reverse(reverse(p)) == p
    assert complement(complement(p)) == p
    assert inverse(inverse(p)) == p
    assert inverse((1, 2, 3)) == (1, 2, 3)
    assert reverse(()) == ()


def test_complement_on_set():
    # Values are complemented within the chosen subset, in place.
    assert complement_on_set((1, 2, 4, 3, 5), (2, 4, 3)) == (1, 4, 2, 3, 5)
    assert complement_on_set((2, 4, 3, 5), (2, 4, 3, 5)) == (5, 3, 4, 2)
    assert complement_on_set((7, 8, 6, 4, 3), (7, 8, 6, 4, 3)) == (4, 3, 6, 7, 8)
    assert complement_on_set((3, 1, 2), ()) == (3, 1, 2)
    assert complement_on_set((3, 1, 2), (1,)) == (3, 1, 2)


def test_minima_and_maxima():
    assert left_to_right_minima((4, 2, 6, 1, 5, 3)) == (1, 2, 4)
    assert right_to_left_maxima((4, 2, 6, 1, 5, 3)) == (3, 5, 6)
    assert left_to_right_minima(()) == ()
    assert left_to_right_minima((1, 2, 3)) == (1,)
    assert right_to_left_maxima((1, 2, 3)) == (3,)


def test_standardize():
    assert standardize((5, 3, 4)) == (3, 1, 2)
    assert standardize((10, 7, 11)) == (2, 1, 3)
    assert standardize(()) == ()
    assert standardize((2, 4, 1, 3)) == (2, 4, 1, 3)


def test_enumerate_sn_lex_order_and_counts():
    s3 = list(enumerate_sn(3))
    assert s3 == [
        (1, 2, 3),
        (1, 3, 2),
        (2, 1, 3),
        (2, 3, 1),
        (3, 1, 2),
        (3, 2, 1),
    ]
    assert len(list(enumerate_sn(0))) == 1
    assert len(list(enumerate_sn(5))) == 120
    for rank, p in enumerate(enumerate_sn(4)):
        assert lex_rank(p) == rank


def test_enumeration_cap():
    with pytest.raises(CapExceededError):
        list(enumerate_sn(11))


def test_parse_and_format_round_trip():
    assert parse_perm("3,1,2") == (3, 1, 2)
    assert parse_perm(" 2 , 3 , 1 ") == (2, 3, 1)
    assert format_perm((3, 1, 2)) == "3,1,2"
    for p in enumerate_sn(4):
        assert parse_perm(format_perm(p)) == p
    with pytest.raises(ValueError):
        parse_perm("1,2,2")
    with pytest.raises(ValueError):
        parse_perm("")
