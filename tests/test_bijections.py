"""Unit and regression tests for the count-swapping bijection families."""

import pytest

import meshperm
from meshperm import bijections as bj
from meshperm.bijections import (
    FAMILIES,
    FAMILY_NAMES,
    INVOLUTION_FAMILIES,
    UnsupportedShadingError,
    VerificationReport,
    apply_family,
    transform_for,
    verify_entry,
    verify_pair,
)
from meshperm.catalog import entry_by_id
from meshperm.mesh import ShadingSet, count_occurrences
from meshperm.perms import enumerate_sn


def pair_counts(host, entry):
    p1, p2 = entry.patterns()
    return count_occurrences(host, p1), count_occurrences(host, p2)


def test_family_registry():
    assert FAMILY_NAMES == (
        "direct",
        "oth1",
        "complement_after_one",
        "len2_reduction",
        "ltr_interval_complement",
        "per_interval_len2",
        "pair_swap",
        "a1_complement",
        "nine_box",
        "per_interval_nine_box",
    )
    assert INVOLUTION_FAMILIES == frozenset(FAMILY_NAMES)


def test_family_names_are_exported():
    assert meshperm.FAMILY_NAMES == FAMILY_NAMES


def test_accepted_shadings_per_family_and_length():
    # Counts over every shading of length 2 and 3.  The length-3 families
    # accept no length-2 shading, and len2_reduction accepts only its eight
    # length-2 frames.  The direct rules are picked by pair id, not shading.
    expected = {
        "direct": (0, 1 << 16),
        "oth1": (0, 1),
        "complement_after_one": (0, 64),
        "len2_reduction": (8, 8),
        "ltr_interval_complement": (0, 16),
        "per_interval_len2": (0, 8),
        "pair_swap": (0, 2),
        "a1_complement": (0, 4),
        "nine_box": (0, 96),
        "per_interval_nine_box": (0, 2),
    }
    shadings = {k: [ShadingSet(k, m) for m in range(1 << (k + 1) ** 2)] for k in (2, 3)}
    counts = {
        family.name: tuple(sum(map(family.accepts, shadings[k])) for k in (2, 3))
        for family in FAMILIES
    }
    assert counts == expected
    # transform_for refuses at once, before any host is transformed.
    with pytest.raises(UnsupportedShadingError):
        transform_for({"name": "len2_reduction"}, ShadingSet(2, 0))


def test_direct_transform_examples():
    assert bj.direct_transform((1, 2, 3, 5, 4), 2) == (1, 3, 2, 5, 4)
    assert bj.direct_transform((1, 2, 3, 4), 4) == (1, 4, 3, 2)
    assert bj.direct_transform((2, 1, 3, 4), 9) == (2, 1, 4, 3)
    assert bj.direct_transform((3, 2, 1), 6) == (3, 2, 1)
    assert bj.direct_transform((1, 2, 3), 6) == (1, 3, 2)
    with pytest.raises(ValueError):
        bj.direct_transform((1, 2, 3), 99)


def test_oth1_transform_examples():
    host = (10, 7, 8, 5, 9, 4, 2, 6, 1, 3, 11)
    assert bj.oth1_transform(host) == (10, 7, 9, 5, 6, 4, 2, 3, 1, 8, 11)
    assert bj.oth1_transform((3, 2, 1)) == (3, 2, 1)
    assert bj.oth1_transform((1, 2, 3)) == (1, 3, 2)
    assert bj.oth1_transform(()) == ()


def test_oth1_swaps_counts_on_worked_example():
    entry = entry_by_id(12)
    host = (10, 7, 8, 5, 9, 4, 2, 6, 1, 3, 11)
    image = bj.oth1_transform(host)
    assert pair_counts(host, entry) == tuple(reversed(pair_counts(image, entry)))


def test_complement_after_one_examples():
    assert bj.complement_after_one((1, 2, 4, 3, 5)) == (1, 5, 3, 4, 2)
    assert bj.complement_after_one((2, 1, 3)) == (2, 1, 3)
    assert bj.complement_after_one((1,)) == (1,)
    assert bj.complement_after_one((3, 1, 2)) == (3, 1, 2)


def test_len2_swap_transform_examples():
    plain = entry_by_id(301).patterns()[0].shading
    tail = entry_by_id(302).patterns()[0].shading
    host = (9, 5, 8, 7, 4, 6, 1, 3, 2)
    assert bj.len2_swap_transform(host, tail) == (8, 9, 7, 5, 3, 6, 4, 2, 1)
    assert bj.len2_swap_transform((1, 2, 3), plain) == (2, 1, 3)
    # With the tail box shaded, every candidate pair of (1, 2, 3) is blocked,
    # so the host is occurrence-free and fixed.
    assert bj.len2_swap_transform((1, 2, 3), tail) == (1, 2, 3)
    assert bj.len2_swap_transform((1, 2), plain) == (2, 1)
    assert bj.len2_swap_transform((1, 2), tail) == (2, 1)
    assert bj.len2_swap_transform((1,), plain) == (1,)


def test_len2_reduction_entries_swap_counts():
    for eid in (19, 21, 101, 102):
        entry = entry_by_id(eid)
        transform = transform_for(entry.family, entry.patterns()[0].shading)
        for host in enumerate_sn(5):
            image = transform(host)
            assert pair_counts(host, entry) == tuple(reversed(pair_counts(image, entry)))


def test_per_interval_len2_examples():
    s30 = entry_by_id(30).patterns()[0].shading
    s31 = entry_by_id(31).patterns()[0].shading
    host = (10, 4, 7, 9, 8, 6, 1, 5, 2, 3)
    assert bj.per_interval_len2(host, s31) == (10, 4, 9, 8, 6, 7, 1, 5, 3, 2)
    assert bj.per_interval_len2((1, 2, 3), s30) == (1, 3, 2)
    assert bj.per_interval_len2((1, 2, 3), s31) == (1, 3, 2)
    assert bj.per_interval_len2((2, 1, 3), s31) == (2, 1, 3)


def test_ltr_interval_complement_examples():
    host = (9, 11, 4, 12, 8, 10, 5, 7, 1, 3, 13, 6, 2)
    assert bj.ltr_interval_complement(host) == (9, 12, 4, 11, 5, 13, 8, 6, 1, 2, 10, 7, 3)
    assert bj.ltr_interval_complement((3, 2, 1)) == (3, 2, 1)
    assert bj.ltr_interval_complement((2, 3, 1)) == (2, 3, 1)
    assert bj.ltr_interval_complement(()) == ()


def test_ltr_interval_complement_swaps_counts_on_worked_example():
    entry = entry_by_id(23)
    host = (9, 11, 4, 12, 8, 10, 5, 7, 1, 3, 13, 6, 2)
    image = bj.ltr_interval_complement(host)
    c, d = pair_counts(host, entry), pair_counts(image, entry)
    assert c == (d[1], d[0])
    assert c != (0, 0)


def test_pair_swap_transform_examples():
    s44 = entry_by_id(44).patterns()[0].shading
    assert bj.pair_swap_transform((1, 2, 3), s44) == (1, 3, 2)
    assert bj.pair_swap_transform((3, 2, 1), s44) == (3, 2, 1)
    assert bj.pair_swap_transform((2, 1, 3), s44) == (2, 1, 3)
    with pytest.raises(UnsupportedShadingError):
        bj.pair_swap_transform((1, 2, 3), entry_by_id(23).patterns()[0].shading)


def test_a1_complement_examples():
    entry = entry_by_id(41)
    shading = entry.patterns()[0].shading
    # Occurrence-free hosts are fixed.
    assert bj.a1_complement((3, 2, 1), shading) == (3, 2, 1)
    # The identity permutation of S_6 holds counts (10, 0); its image holds
    # the swapped counts (0, 10).
    host = (1, 2, 3, 4, 5, 6)
    assert pair_counts(host, entry) == (10, 0)
    image = bj.a1_complement(host, shading)
    assert image == (1, 6, 5, 4, 3, 2)
    assert pair_counts(image, entry) == (0, 10)
    # Unsupported shadings are rejected instead of silently mis-handled.
    s202 = entry_by_id(202).patterns()[0].shading
    with pytest.raises(UnsupportedShadingError):
        bj.a1_complement((1, 2, 3), s202)


def test_a1_complement_raw_rule_is_not_count_swapping():
    # The simpler rule (complement every value of every occurrence after the
    # shared minimum) reproduces a plausible-looking image but fails the
    # count swap; this regression pins the witness that rules it out.
    s202 = entry_by_id(202).patterns()[0].shading
    entry = entry_by_id(202)
    host = (2, 5, 1, 7, 8, 6, 4, 3)
    image = bj._a1_complement_raw(host, s202)
    assert image == (2, 5, 1, 4, 3, 6, 7, 8)
    assert pair_counts(host, entry) == (2, 6)
    assert pair_counts(image, entry) == (6, 1)  # not the swap of (2, 6)


def test_nine_box_transform_examples():
    s46 = entry_by_id(46).patterns()[0].shading
    assert bj.nine_box_transform((1, 2, 3), s46) == (1, 3, 2)
    assert bj.nine_box_transform((3, 2, 1), s46) == (3, 2, 1)
    for bad_id in (205, 206):
        bad = entry_by_id(bad_id).patterns()[0].shading
        with pytest.raises(UnsupportedShadingError):
            bj.nine_box_transform((1, 2, 3), bad)


def test_nine_box_worked_example():
    entry = entry_by_id(46)
    shading = entry.patterns()[0].shading
    host = (12, 15, 13, 11, 14, 9, 16, 8, 6, 7, 4, 10, 2, 5, 1, 3)
    assert pair_counts(host, entry) == (3, 3)
    image = bj.nine_box_transform(host, shading)
    assert image == (12, 15, 13, 11, 16, 9, 10, 8, 6, 14, 4, 5, 2, 3, 1, 7)
    assert pair_counts(image, entry) == (3, 3)
    assert bj.nine_box_transform(image, shading) == host


def test_nine_box_worked_example_near_miss_rejected():
    # A near-miss image differing only in the final cluster breaks the count
    # swap, so it cannot be the transform's output.
    entry = entry_by_id(46)
    near_miss = (12, 15, 13, 11, 16, 9, 10, 8, 6, 14, 4, 7, 2, 3, 1, 5)
    assert pair_counts(near_miss, entry) == (2, 4)
    host = (12, 15, 13, 11, 14, 9, 16, 8, 6, 7, 4, 10, 2, 5, 1, 3)
    assert bj.nine_box_transform(host, entry.patterns()[0].shading) != near_miss


def test_block_sweep_raw_rejected_shadings():
    # Rejected extensions: the sweep reproduces its documented images but
    # does not swap the counts, which is why these shadings are refuted.
    e205, e206 = entry_by_id(205), entry_by_id(206)
    s205 = e205.patterns()[0].shading
    s206 = e206.patterns()[0].shading
    host5 = (3, 4, 1, 2, 5)
    image5 = bj._block_sweep_raw(host5, s205)
    assert image5 == (3, 5, 1, 4, 2)
    assert pair_counts(host5, e205) == (2, 0)
    assert pair_counts(image5, e205) == (0, 0)
    host4 = (1, 3, 2, 4)
    image4 = bj._block_sweep_raw(host4, s206)
    assert image4 == (1, 4, 3, 2)
    assert pair_counts(host4, e206) == (2, 0)
    assert pair_counts(image4, e206) == (0, 0)


def test_per_interval_nine_box_example():
    s74 = entry_by_id(74).patterns()[0].shading
    assert bj.per_interval_nine_box((1, 2, 3), s74) == (1, 3, 2)
    assert bj.per_interval_nine_box((3, 2, 1), s74) == (3, 2, 1)


def test_transform_for_and_apply_family():
    entry = entry_by_id(23)
    transform = transform_for(entry.family, entry.patterns()[0].shading)
    host = (9, 11, 4, 12, 8, 10, 5, 7, 1, 3, 13, 6, 2)
    assert transform(host) == bj.ltr_interval_complement(host)
    assert apply_family(entry, host) == transform(host)
    with pytest.raises(ValueError):
        transform_for({"name": "nosuch"}, entry.patterns()[0].shading)
    with pytest.raises(UnsupportedShadingError):
        transform_for({"name": "a1_complement"}, entry_by_id(202).patterns()[0].shading)
    with pytest.raises(ValueError):
        apply_family(entry_by_id(76), (1, 2, 3))  # conjectured: no family


def test_frame_tail_box():
    assert bj.frame_tail_box("len2_reduction", entry_by_id(19).patterns()[0].shading) is False
    assert bj.frame_tail_box("len2_reduction", entry_by_id(21).patterns()[0].shading) is True
    assert bj.frame_tail_box("per_interval_len2", entry_by_id(31).patterns()[0].shading) is True
    assert bj.frame_tail_box("per_interval_nine_box", entry_by_id(74).patterns()[0].shading) is None


def test_verify_pair_reports():
    p1, p2 = entry_by_id(23).patterns()
    rep = verify_pair(p1, p2, bj.ltr_interval_complement, 5)
    assert rep.bijective and rep.joint_swap and rep.involution
    assert rep.counterexample is None
    assert rep.ok()
    assert rep.to_json() == {
        "n": 5,
        "bijective": True,
        "joint_swap": True,
        "involution": True,
        "counterexample": None,
    }


def test_verify_pair_flags_wrong_transform():
    p1, p2 = entry_by_id(1).patterns()
    rep = verify_pair(p1, p2, lambda p: tuple(p), 3)
    assert rep.bijective is True
    assert rep.joint_swap is False
    assert rep.involution is True
    assert rep.counterexample == (1, 2, 3)
    assert not rep.ok()
    assert rep.to_json()["counterexample"] == [1, 2, 3]


def test_verify_pair_requires_an_involution():
    # Swaps 123 and 132 and cycles 213 -> 231 -> 312 -> 213: a bijection
    # that swaps the counts of entry 1 but is not its own inverse.
    p1, p2 = entry_by_id(1).patterns()
    images = {
        (1, 2, 3): (1, 3, 2),
        (1, 3, 2): (1, 2, 3),
        (2, 1, 3): (2, 3, 1),
        (2, 3, 1): (3, 1, 2),
        (3, 1, 2): (2, 1, 3),
    }

    def cycle(p):
        return images.get(tuple(p), tuple(p))

    rep = verify_pair(p1, p2, cycle, 3)
    assert rep == VerificationReport(3, True, True, False, (2, 1, 3))
    assert not rep.ok()


def test_verify_pair_rejects_images_outside_sn():
    # Shifted values would pass the rank and count checks; an image one entry
    # too long has no rank in S_n at all.  Both must fail as non-bijective.
    p1, p2 = entry_by_id(23).patterns()
    shifted = verify_pair(p1, p2, lambda p: tuple(v + 10 for v in bj.ltr_interval_complement(p)), 5)
    longer = verify_pair(p1, p2, lambda p: (*p, len(p) + 1), 5)
    for rep in (shifted, longer):
        assert rep.bijective is False
        assert rep.joint_swap is None  # no image in S_n, so no counts were compared
        assert rep.involution is None
        assert rep.counterexample == (1, 2, 3, 4, 5)
        assert not rep.ok()


def test_verify_pair_reports_the_empty_witness():
    # S_0 has one host, (); an image outside S_0 makes () the witness.
    p1, p2 = entry_by_id(1).patterns()
    rep = verify_pair(p1, p2, lambda p: (*p, len(p) + 1), 0)
    assert rep.counterexample == ()
    assert rep.to_json()["counterexample"] == []


def test_verify_pair_maps_each_host_once():
    entry = entry_by_id(23)
    p1, p2 = entry.patterns()
    transform = transform_for(entry.family, p1.shading)
    calls = 0

    def counted(p):
        nonlocal calls
        calls += 1
        return transform(p)

    assert verify_pair(p1, p2, counted, 5).ok()
    assert calls == 120


def test_verify_pair_rejects_oversize_n():
    p1, p2 = entry_by_id(1).patterns()
    with pytest.raises(ValueError):
        verify_pair(p1, p2, lambda p: tuple(p), 9)


def test_verify_entry_representatives():
    for eid in (1, 12, 13, 19, 23, 30, 39, 41, 46, 74, 101, 103, 105):
        entry = entry_by_id(eid)
        rep = verify_entry(entry, 5)
        assert rep.ok(), (eid, rep)


def test_involution_families_are_involutions():
    for eid in (2, 12, 13, 19, 23, 30, 39, 41, 46, 74):
        entry = entry_by_id(eid)
        transform = transform_for(entry.family, entry.patterns()[0].shading)
        for host in enumerate_sn(5):
            assert transform(transform(host)) == host, (eid, host)


def test_occurrence_free_hosts_are_fixed_for_occurrence_driven_families():
    # These families act only on listed occurrences, so occurrence-free
    # hosts must be fixed points.  Representative entry per family.
    for eid in (1, 12, 19, 39, 41, 46, 74):
        entry = entry_by_id(eid)
        transform = transform_for(entry.family, entry.patterns()[0].shading)
        for host in enumerate_sn(5):
            if pair_counts(host, entry) == (0, 0):
                assert transform(host) == host, (eid, host)


def test_structural_families_may_move_occurrence_free_hosts():
    # The complement-style maps rearrange whole value bands unconditionally;
    # they swap the counts without fixing every occurrence-free host.  These
    # witnesses pin that behaviour (each host holds zero occurrences of both
    # patterns of its entry, yet moves).
    witnesses = (
        (16, (1, 3, 5, 2, 4), (1, 4, 2, 5, 3)),
        (23, (2, 1, 3, 4), (2, 1, 4, 3)),
        (31, (2, 3, 4, 1, 5), (2, 4, 3, 1, 5)),
    )
    for eid, host, image in witnesses:
        entry = entry_by_id(eid)
        assert pair_counts(host, entry) == (0, 0)
        assert apply_family(entry, host) == image
        assert pair_counts(image, entry) == (0, 0)
