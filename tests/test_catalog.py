"""Tests for the catalog data file and its structural validation."""

import dataclasses
from collections import Counter

import pytest

from meshperm.catalog import (
    CONJECTURED_COUNT,
    PROVED_SYMMETRIC_COUNT,
    STATUSES,
    CatalogEntry,
    entry_by_id,
    load_catalog,
    validate_catalog,
)
from meshperm.distribution import first_divergence
from meshperm.mesh import is_antidiagonal_symmetric


def test_catalog_loads_and_validates():
    entries = load_catalog()
    assert len(entries) == 138
    assert validate_catalog() == []


def test_status_counts():
    entries = load_catalog()
    by_status = {}
    for e in entries:
        by_status[e.status] = by_status.get(e.status, 0) + 1
    assert by_status == {
        "proved": 75,
        "conjectured": 18,
        "refuted": 6,
        "nonsymmetric-proved": 36,
        "auxiliary": 3,
    }
    assert PROVED_SYMMETRIC_COUNT == 75
    assert CONJECTURED_COUNT == 18
    assert set(STATUSES) == set(by_status)


def test_symmetric_ids_and_tables():
    entries = load_catalog()
    symmetric_ids = sorted(
        e.id for e in entries if e.status in ("proved", "conjectured")
    )
    assert symmetric_ids == list(range(1, 94))
    sizes = Counter(e.table for e in entries)
    assert sizes == {"1": 12, "2": 6, "3": 4, "5": 23, "6": 30, "7": 18, "8": 36, "R": 6, "aux": 3}
    for e in entries:
        if e.status in ("proved", "conjectured"):
            assert is_antidiagonal_symmetric(e.patterns()[0].shading), e.id
        if e.table == "8":
            assert not is_antidiagonal_symmetric(e.patterns()[0].shading), e.id


def test_entry_lookup():
    e = entry_by_id(23)
    assert e.boxes == ((0, 0), (0, 1), (0, 2), (1, 0), (2, 0))
    assert e.tau_pair == ("123", "132")
    assert e.status == "proved"
    assert e.family == {"name": "ltr_interval_complement"}
    with pytest.raises(KeyError):
        entry_by_id(999)


def test_patterns_construction():
    p1, p2 = entry_by_id(23).patterns()
    assert p1.tau == (1, 2, 3) and p2.tau == (1, 3, 2)
    assert p1.shading == p2.shading
    # Auxiliary length-2 entries.
    q1, q2 = entry_by_id(301).patterns()
    assert q1.tau == (1, 2) and q2.tau == (2, 1)
    assert q1.shading == q2.shading
    # The asymmetric auxiliary pair carries two distinct shadings.
    r1, r2 = entry_by_id(303).patterns()
    assert r1.tau == (1, 2) and r2.tau == (1, 2)
    assert r1.shading.boxes() == ((0, 0), (0, 1), (1, 0), (1, 1), (2, 2))
    assert r2.shading.boxes() == ((0, 1), (0, 2), (1, 1), (1, 2), (2, 0))


def test_refuted_entries_record_true_divergence():
    for eid, expected in ((201, 8), (202, 8), (203, 7), (204, 7), (205, 5), (206, 4)):
        entry = entry_by_id(eid)
        assert entry.status == "refuted"
        assert entry.first_divergence_n == expected
        p1, p2 = entry.patterns()
        assert first_divergence(p1, p2, expected) == expected
        assert first_divergence(p1, p2, expected - 1) is None


def test_conjectured_entries_have_no_small_divergence():
    for entry in load_catalog():
        if entry.status == "conjectured":
            assert entry.family is None
            assert entry.first_divergence_n is None
            p1, p2 = entry.patterns()
            assert first_divergence(p1, p2, 6) is None, entry.id


def test_duplicated_shading_regression():
    # Entries 40 and 51 are distinct catalog rows carrying the same shading:
    # the L-shaped list and the nine-box extension list both contain it.
    # Keep both rows; the scan treats them as one shading.
    assert entry_by_id(40).boxes == entry_by_id(51).boxes
    symmetric = [e for e in load_catalog() if e.status in ("proved", "conjectured")]
    distinct_masks = {e.patterns()[0].shading.mask for e in symmetric}
    assert len(symmetric) == 93
    assert len(distinct_masks) == 92


def test_cross_listed_notes():
    assert "block-sweep" in entry_by_id(8).notes
    assert "block-sweep" in entry_by_id(20).notes
    assert entry_by_id(206).notes == (
        "The block sweep maps 1324 to 1432 without swapping the counts."
    )


def test_validation_detects_corruption():
    entries = load_catalog()
    # Duplicate id.
    dup = entries + (entries[0],)
    assert any("duplicate" in p for p in validate_catalog(dup))
    # Unknown status.
    bad_status = entries[:-1] + (dataclasses.replace(entries[-1], status="maybe"),)
    assert validate_catalog(bad_status)
    # Asymmetric shading on a symmetric-table entry.
    e23 = entry_by_id(23)
    skewed = tuple(
        dataclasses.replace(e, boxes=((0, 1),)) if e.id == 23 else e for e in entries
    )
    assert validate_catalog(skewed)
    # A proved entry whose family does not accept its shading.
    wrong_family = tuple(
        dataclasses.replace(e, family={"name": "oth1"}) if e.id == 23 else e
        for e in entries
    )
    assert validate_catalog(wrong_family)
    # Refuted entries must carry their divergence size.
    no_div = tuple(
        dataclasses.replace(e, first_divergence_n=None) if e.id == 201 else e
        for e in entries
    )
    assert validate_catalog(no_div)
    assert e23 == entry_by_id(23)  # source data untouched


def test_catalog_entry_is_frozen():
    entry = entry_by_id(1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.id = 2
    assert isinstance(entry, CatalogEntry)
