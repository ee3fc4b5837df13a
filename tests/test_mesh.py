"""Unit tests for mesh patterns, shadings and occurrence counting."""

import pytest

from meshperm.mesh import (
    SYMMETRIES,
    MeshPattern,
    ShadingSet,
    avoids,
    box_bit,
    boxes_literal,
    count_occurrences,
    is_antidiagonal_symmetric,
    is_occurrence,
    occurrence_box_mask,
    occurrences,
    parse_boxes,
    parse_pattern,
    pattern_literal,
    symmetric_shadings,
    transform_pattern,
)

BELL123 = parse_pattern("123|2/0,2/1,2/2,2/3")
FULL16 = MeshPattern.of((1, 2, 3), ((i, j) for i in range(4) for j in range(4)))


def test_box_bit_layout():
    assert box_bit(0, 0, 3) == 0
    assert box_bit(0, 1, 3) == 1
    assert box_bit(1, 0, 3) == 4
    assert box_bit(3, 3, 3) == 15
    assert box_bit(2, 2, 2) == 8
    with pytest.raises(ValueError):
        box_bit(4, 0, 3)


def test_shading_set_basics():
    s = ShadingSet.from_boxes(3, [(2, 0), (0, 1)])
    assert s.boxes() == ((0, 1), (2, 0))
    assert (2, 0) in s and (0, 0) not in s
    assert len(s) == 2
    assert sorted(s) == [(0, 1), (2, 0)]
    assert ShadingSet.empty(3).boxes() == ()
    assert len(ShadingSet.full(3)) == 16
    assert s.union(ShadingSet.from_boxes(3, [(0, 1), (3, 3)])).boxes() == (
        (0, 1),
        (2, 0),
        (3, 3),
    )
    assert s.with_boxes([(1, 1)]).boxes() == ((0, 1), (1, 1), (2, 0))
    assert s.transposed().boxes() == ((0, 2), (1, 0))
    with pytest.raises(ValueError):
        ShadingSet.from_boxes(3, [(4, 0)])
    with pytest.raises(ValueError):
        ShadingSet.from_boxes(2, [(0, 3)])


def test_shading_disjointness():
    s = ShadingSet.from_boxes(3, [(0, 0), (1, 1)])
    assert s.disjoint_from(ShadingSet.from_boxes(3, [(2, 2)]))
    assert not s.disjoint_from(ShadingSet.from_boxes(3, [(1, 1), (3, 3)]))


def test_occurrence_box_mask():
    assert occurrence_box_mask((1, 2, 4, 3), (1, 2, 3)).boxes() == ((3, 2),)
    assert occurrence_box_mask((2, 1, 3), (1, 3)).boxes() == ((1, 0),)
    assert occurrence_box_mask((1, 2, 3), (1, 2, 3)).boxes() == ()
    # One host entry can occupy only one box.
    m = occurrence_box_mask((2, 1, 3), (2, 3))
    assert m.boxes() == ((0, 1),)


def test_is_occurrence_and_avoids():
    assert is_occurrence((1, 2, 3), FULL16, (1, 2, 3))
    p132 = parse_pattern("132|")
    host = (3, 2, 1, 4, 5)
    assert avoids(host, p132)
    assert count_occurrences(host, p132) == 0
    assert not avoids(host, parse_pattern("123|"))
    assert is_occurrence((1, 3, 2), p132, (1, 2, 3))
    assert not is_occurrence((1, 3, 2), parse_pattern("123|"), (1, 2, 3))


def test_count_occurrences_bell_pattern_examples():
    assert count_occurrences((1, 2, 3), BELL123) == 1
    assert occurrences((1, 2, 3), BELL123) == [(1, 2, 3)]
    # The band between the second and third chosen positions must be empty,
    # so (1, 2, 4) at positions (1, 2, 4) is not an occurrence here.
    assert occurrences((1, 2, 4, 3), BELL123) == [(1, 2, 3)]
    assert occurrences((2, 1, 3, 4), BELL123) == [(1, 3, 4), (2, 3, 4)]


def test_occurrences_shared_pattern_pair():
    # Both patterns of a catalogued pair, located inside one host.
    from meshperm.catalog import entry_by_id

    p1, p2 = entry_by_id(12).patterns()
    host = (10, 7, 8, 5, 9, 4, 2, 6, 1, 3, 11)
    occ = sorted(set(occurrences(host, p1)) | set(occurrences(host, p2)))
    assert occ == [(2, 3, 5), (4, 5, 8), (7, 8, 10)]
    values = [tuple(host[i - 1] for i in o) for o in occ]
    assert values == [(7, 8, 9), (5, 9, 6), (2, 6, 3)]


def test_transform_pattern():
    comp = transform_pattern(BELL123, "complement")
    assert pattern_literal(comp) == "321|2/0,2/1,2/2,2/3"
    inv = transform_pattern(BELL123, "inverse")
    assert pattern_literal(inv) == "123|0/2,1/2,2/2,3/2"
    for sym in SYMMETRIES:
        assert transform_pattern(transform_pattern(BELL123, sym), sym) == BELL123
    with pytest.raises(ValueError):
        transform_pattern(BELL123, "rotate")


def test_transform_pattern_relates_catalog_entries():
    from meshperm.catalog import entry_by_id

    p30 = entry_by_id(30).patterns()[0]
    p46 = entry_by_id(46).patterns()[0]
    image = transform_pattern(transform_pattern(p30, "reverse"), "complement")
    assert image.shading == p46.shading
    assert image.tau == p46.tau


def test_is_antidiagonal_symmetric():
    assert is_antidiagonal_symmetric(ShadingSet.empty(3))
    assert is_antidiagonal_symmetric(ShadingSet.full(3))
    assert is_antidiagonal_symmetric(ShadingSet.from_boxes(3, [(0, 1), (1, 0)]))
    assert is_antidiagonal_symmetric(ShadingSet.from_boxes(3, [(3, 3)]))
    assert not is_antidiagonal_symmetric(ShadingSet.from_boxes(3, [(0, 1)]))
    assert not is_antidiagonal_symmetric(ShadingSet.from_boxes(3, [(0, 3)]))
    from meshperm.catalog import entry_by_id

    assert is_antidiagonal_symmetric(entry_by_id(23).patterns()[0].shading)


def test_symmetric_shadings():
    shadings = symmetric_shadings(3)
    assert len(shadings) == 1024
    assert len({s.mask for s in shadings}) == 1024
    assert all(is_antidiagonal_symmetric(s) for s in shadings)
    masks = [s.mask for s in shadings]
    assert masks == sorted(masks)
    assert shadings[0].mask == 0
    assert shadings[-1] == ShadingSet.full(3)


def test_parse_boxes_and_literals():
    s = parse_boxes("0/0, 2/1", 3)
    assert s.boxes() == ((0, 0), (2, 1))
    assert parse_boxes("", 3) == ShadingSet.empty(3)
    assert boxes_literal(s) == "0/0,2/1"
    with pytest.raises(ValueError):
        parse_boxes("0-0", 3)
    with pytest.raises(ValueError):
        parse_boxes("9/9", 3)


def test_parse_pattern_round_trip():
    p = parse_pattern("132|0/0,2/2")
    assert p.tau == (1, 3, 2)
    assert p.shading.boxes() == ((0, 0), (2, 2))
    assert pattern_literal(p) == "132|0/0,2/2"
    assert parse_pattern("123|").shading == ShadingSet.empty(3)
    assert parse_pattern("1,3,2|0/0").tau == (1, 3, 2)
    assert parse_pattern(pattern_literal(BELL123)) == BELL123
    # A literal without a bar means the classical pattern (empty shading).
    assert parse_pattern("123") == parse_pattern("123|")
    with pytest.raises(ValueError):
        parse_pattern("abc|0/0")
    with pytest.raises(ValueError):
        parse_pattern("122|0/0")


def test_mesh_pattern_of():
    p = MeshPattern.of((1, 2), [(0, 0), (1, 1)])
    assert len(p) == 2
    assert p.shading.boxes() == ((0, 0), (1, 1))
    with pytest.raises(ValueError):
        MeshPattern.of((1, 1), [])
