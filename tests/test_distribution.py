"""Tests for distribution tables, divergence search, scans and sequences."""

import concurrent.futures
import math
import os
import pathlib
import random
import subprocess
import sys
import weakref
from collections import Counter

import numpy as np
import pytest
import sympy

from meshperm import engine
from meshperm.catalog import entry_by_id, load_catalog
from meshperm.distribution import (
    CapExceededError,
    _bins,
    _histogram,
    _pair_histograms,
    _scan_block,
    _scan_plan,
    _transposed,
    avoidance_sequence,
    bell,
    catalan,
    distribution,
    effective_cap,
    first_divergence,
    joint_distribution,
    scan_symmetric_pairs,
    stirling_first_kind,
)
from meshperm.mesh import (
    MeshPattern,
    ShadingSet,
    count_occurrences,
    parse_pattern,
    symmetric_shadings,
    transform_pattern,
)
from meshperm.perms import enumerate_sn

P123 = parse_pattern("123|")
P132 = parse_pattern("132|")
P1234 = parse_pattern("1234|")
P1243 = parse_pattern("1243|")
BELL123 = parse_pattern("123|2/0,2/1,2/2,2/3")
CORNER123 = parse_pattern("123|0/1,0/2,1/0,2/0")
FULL = parse_pattern("123|" + ",".join(f"{i}/{j}" for i in range(4) for j in range(4)))


def test_reference_sequences_frozen_values():
    assert [catalan(n) for n in range(9)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    assert [bell(n) for n in range(9)] == [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    assert stirling_first_kind(0, 0) == 1
    assert stirling_first_kind(4, 0) == 6
    assert stirling_first_kind(4, 1) == 11
    assert [stirling_first_kind(4, k) for k in range(4)] == [6, 11, 6, 1]


def test_reference_sequences_against_sympy():
    for n in range(13):
        assert catalan(n) == sympy.catalan(n)
    for n in range(11):
        assert bell(n) == sympy.bell(n)
    for n in range(1, 9):
        for k in range(n):
            expected = sympy.functions.combinatorial.numbers.stirling(
                n, k + 1, kind=1, signed=False
            )
            assert stirling_first_kind(n, k) == expected


def test_distribution_small_cases():
    t = distribution(P123, 4)
    assert t.counts == {0: 14, 1: 6, 2: 3, 4: 1}
    assert t.total() == 24
    assert list(t.csv_rows()) == [(4, 0, 14), (4, 1, 6), (4, 2, 3), (4, 4, 1)]
    assert t.to_json() == {"n": 4, "counts": {"0": 14, "1": 6, "2": 3, "4": 1}}
    assert distribution(P132, 4).counts[1] == 5
    assert distribution(BELL123, 4).counts == {0: 15, 1: 7, 2: 1, 3: 1}
    assert distribution(P123, 0).counts == {0: 1}


def test_distribution_totals_are_factorials():
    for pattern in (P123, BELL123, CORNER123):
        for n in range(7):
            assert distribution(pattern, n).total() == math.factorial(n)


def test_joint_distribution_small_cases():
    j = joint_distribution(P123, P132, 3)
    assert j.counts == {(0, 0): 4, (0, 1): 1, (1, 0): 1}
    assert j.is_swap_symmetric()
    assert j.total() == 6
    assert j.to_json() == {"n": 3, "counts": [[0, 0, 4], [0, 1, 1], [1, 0, 1]]}
    assert joint_distribution(P123, P132, 0).counts == {(0, 0): 1}


def test_joint_distribution_swap_symmetry_of_proved_pair():
    p1, p2 = entry_by_id(1).patterns()
    for n in range(7):
        assert joint_distribution(p1, p2, n).is_swap_symmetric()


def test_joint_distribution_detects_asymmetry():
    akv1 = parse_pattern("123|1/1,1/2,2/1,2/2")
    akv2 = parse_pattern("132|1/1,1/2,2/1,2/2")
    assert not joint_distribution(akv1, akv2, 4).is_swap_symmetric()


def test_length_four_distributions_frozen_values():
    # lengths the tables do not cover are counted by the pure-Python finder;
    # 103 is the number of 1234-avoiders in S_5
    assert distribution(P1234, 5).counts == {0: 103, 1: 12, 2: 4, 5: 1}
    assert first_divergence(P1234, P1243, 6) == 5
    assert joint_distribution(P1234, P1243, 4).counts == {(0, 0): 22, (0, 1): 1, (1, 0): 1}


def test_joint_distribution_of_mixed_lengths_matches_the_direct_counter():
    p1, p2 = parse_pattern("123|1/1"), parse_pattern("1243|")
    expected = Counter((count_occurrences(p, p1), count_occurrences(p, p2)) for p in enumerate_sn(6))
    assert joint_distribution(p1, p2, 6).counts == expected


def test_bins_keys_outgrow_the_count_dtype():
    # the engine's counts of S_10 are uint8 (at most 120 each), but a pair's
    # key c1 * 121 + c2 reaches 14640: the keys take a dtype that holds it
    v1 = np.array([0, 120, 120, 7], dtype=np.uint8)
    v2 = np.array([0, 120, 3, 7], dtype=np.uint8)
    others, fixed = _bins((v1, v2), (121, 121), 0)
    assert others.shape == fixed.shape == (1, 121, 121)
    assert others.sum() == 4 and not fixed.any()
    assert others[0, 0, 0] == others[0, 120, 120] == others[0, 120, 3] == others[0, 7, 7] == 1
    # a group of three items whose first two rows are involutions: the last
    # item's (120, 120) on an involution takes the largest key,
    # 2 * 3 * 121 * 121 - 1 = 87845, beyond uint16
    c1 = np.array([[0, 120, 5, 120, 5], [1, 2, 3, 4, 3], [120, 120, 120, 0, 0]], dtype=np.uint8)
    c2 = np.array([[0, 120, 120, 0, 120], [4, 3, 2, 1, 2], [120, 7, 120, 0, 0]], dtype=np.uint8)
    others, fixed = _bins((c1, c2), (121, 121), 2)
    assert others.shape == fixed.shape == (3, 121, 121) and fixed[2, 120, 120] == 1
    for item in range(3):
        for hist, rows in ((fixed, slice(None, 2)), (others, slice(2, None))):
            expected = np.zeros((121, 121), dtype=np.int64)
            np.add.at(expected, (c1[item, rows], c2[item, rows]), 1)
            assert np.array_equal(hist[item], expected), item
    # one count array, as a distribution bins it
    others, fixed = _bins((np.array([0, 3, 3, 1], dtype=np.uint8),), (4,), 1)
    assert others.tolist() == [[0, 1, 0, 2]] and fixed.tolist() == [[1, 0, 0, 0]]


def test_counts_keys_are_ascending():
    # at n = 9 every block adds its counts to one histogram, so the keys
    # follow the occurrence counts, not the block in which each first shows
    p1, p2 = entry_by_id(28).patterns()
    for table in (distribution(p1, 9, cap=9), joint_distribution(p1, p2, 9, cap=9)):
        assert list(table.counts) == sorted(table.counts)
    engine.clear_caches()


def test_avoidance_sequences():
    assert avoidance_sequence(P123, 8) == [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    assert avoidance_sequence(BELL123, 6) == [1, 1, 2, 5, 15, 52, 203]
    assert avoidance_sequence(CORNER123, 5) == [1, 1, 2, 5, 17, 75]
    assert avoidance_sequence(FULL, 3) == [1, 1, 2, 5]


def test_first_divergence():
    akv1 = parse_pattern("123|1/1,1/2,2/1,2/2")
    akv2 = parse_pattern("132|1/1,1/2,2/1,2/2")
    assert first_divergence(akv1, akv2, 6) == 4
    p1, p2 = entry_by_id(23).patterns()
    assert first_divergence(p1, p2, 6) is None
    r1, r2 = entry_by_id(201).patterns()
    assert first_divergence(r1, r2, 8) == 8
    assert first_divergence(r1, r2, 7) is None


def test_scan_symmetric_pairs_counts():
    results = scan_symmetric_pairs(4)
    assert len(results) == 1024
    survivors = [r for r in results if r.equidistributed]
    assert len(survivors) == 256
    masks = [r.shading.mask for r in results]
    assert masks == sorted(masks)
    by_literal = {r.to_json()["shading"]: r for r in results}
    diverging = by_literal["0/0,1/1"]
    assert diverging.to_json() == {
        "shading": "0/0,1/1",
        "verdict": "diverges",
        "first_divergence_n": 4,
    }
    # The classical pair has equal avoidance but unequal full distributions,
    # so the empty shading diverges (6 vs 5 hosts with exactly one occurrence
    # at n = 4).
    empty = results[0]
    assert empty.shading == ShadingSet.empty(3)
    assert empty.first_divergence_n == 4
    # A catalogued equidistributed shading survives.
    assert by_literal["0/0,0/1,0/2,1/0,2/0"].equidistributed


def test_scan_block_matches_the_count_vectors():
    # the scan kernel counts (123, R) and (132, R) over the block's rows of
    # inverse_pair_block and shares one OR of the shaded planes between
    # them; on an n = 9 block each of its rows must be the lex count
    # vector's histogram of the same hosts, read at their lex ranks, with
    # every non-involution p also binned as p^-1, from the counts of R^T
    # (R itself for a symmetric R)
    n, first = 9, 4
    shadings = [ShadingSet.empty(3), ShadingSet.full(3)]
    shadings += [entry_by_id(i).patterns()[0].shading for i in (23, 87)]
    shadings.append(ShadingSet.from_boxes(3, [(0, 3), (1, 1)]))
    hists = _scan_block((n, first, tuple(s.mask for s in shadings)))
    width = math.comb(n, 3) + 1
    assert hists.shape == (2 * len(shadings), width)
    rows = engine.inverse_pair_block(n, first)
    _, involutions = engine.inverse_pair_counts(n, first)
    at = engine.lex_ranks(rows) - engine.lex_ranks(engine.perm_block(n, first)[:1])[0]
    hist_rows = iter(hists.tolist())
    for shading in shadings:
        for tau in ((1, 2, 3), (1, 3, 2)):
            own = engine.count_vectors(n, [MeshPattern(tau, shading)], first)[0][at]
            flipped = engine.count_vectors(n, [MeshPattern(tau, shading.transposed())], first)[0][at]
            expected = (np.bincount(own, minlength=width) + np.bincount(flipped, minlength=width)
                        - np.bincount(flipped[:involutions], minlength=width))
            assert next(hist_rows) == expected.tolist(), (shading, tau)
    engine.clear_caches()


def lex_histograms(n, masks):
    """The rows of ``_pair_histograms`` for ``masks``, from each pattern's
    count vectors over the lex tables: the histograms of (123, R) and
    (132, R) over S_n."""
    width = math.comb(n, 3) + 1
    return np.array([sum(np.bincount(engine.count_vectors(n, [MeshPattern(tau, ShadingSet(3, mask))], first)[0],
                                     minlength=width) for first in engine.blocks(n))
                     for mask in masks for tau in ((1, 2, 3), (1, 3, 2))])


def test_pair_histograms_sum_the_blocks_of_s9():
    # the scan adds the histograms of the nine blocks of S_9 into each
    # pattern's distribution over all of S_9, the lex tables' histograms
    masks = (ShadingSet.empty(3).mask, entry_by_id(23).patterns()[0].shading.mask)
    assert np.array_equal(_pair_histograms(9, masks, jobs=1), lex_histograms(9, masks))
    engine.clear_caches()


def test_pair_histograms_equal_the_lex_tables_for_every_symmetric_shading():
    masks = tuple(s.mask for s in symmetric_shadings(3))
    for n in range(8):
        assert np.array_equal(_pair_histograms(n, masks, jobs=1), lex_histograms(n, masks)), n
    engine.clear_caches()


def test_scan_blocks_of_each_first_value_sum_to_the_lex_tables(monkeypatch):
    # the scan's blocks split S_n by first value from n = 9 on, and the
    # split holds below that too: for every symmetric shading the n blocks
    # must sum to the lex tables' histograms of S_n.  The rows of each
    # block live only as long as its table, which the scan drops.
    masks = tuple(s.mask for s in symmetric_shadings(3))
    built, block = [], engine.inverse_pair_block

    def tracked(*key):
        rows = block(*key)
        built.append(weakref.ref(rows))
        return rows

    monkeypatch.setattr(engine, "inverse_pair_block", tracked)
    for n in range(2, 9):
        hists = sum(_scan_block((n, first, masks)) for first in range(1, n + 1))
        assert np.array_equal(hists, lex_histograms(n, masks)), n
    assert len(built) == sum(range(2, 9)) and all(ref() is None for ref in built)
    engine.clear_caches()


def test_scan_from_four_skips_sizes_that_cannot_separate_a_pair():
    # below 4 every shading gives (123, R) and (132, R) one histogram, so
    # the scan starts at n = 4 with the same verdicts
    masks = tuple(s.mask for s in symmetric_shadings(3))
    for n in range(4):
        hists = _pair_histograms(n, masks, jobs=1)
        assert np.array_equal(hists[0::2], hists[1::2]), n
    assert all(r.equidistributed for r in scan_symmetric_pairs(3))


def group_size(planes):
    """Shadings per group of ``engine.occurrence_counts`` over ``planes``."""
    words, rows = planes.shape[1:]
    return max(1, engine._GROUP_BYTES // (engine._WORD // 8 * words * rows))


def mixed_masks(size, seed):
    """Distinct length-3 masks, at least two groups' worth and one more, so
    not a multiple of ``size``: symmetric and asymmetric shadings, with
    full position-gap columns among them.  The last, 0x1111, is the
    transpose of the first asymmetric one, 0x000F (column 0 full), so the
    scan's last (123, R), (132, R) and its first (123, R^T), (132, R^T)
    share a shading."""
    rng = random.Random(seed)
    symmetric = [s.mask for s in symmetric_shadings(3)]
    masks = dict.fromkeys([0, 0xFFFF, 0x000F, 0xF00F, 0x0F1F, 0x0001, 0x0010])
    while len(masks) < size * max(2, 16 // size):
        mask = rng.choice(symmetric) if rng.random() < 0.5 else rng.getrandbits(16)
        if mask != 0x1111:
            masks[mask] = None
    masks = (*masks, 0x1111)
    assert len(masks) % size and _transposed(0x000F) == 0x1111
    return masks


@pytest.mark.parametrize("n", [5, 6, 7])
def test_grouped_kernel_matches_each_pattern_counted_alone(n):
    # the kernel fills one slot of a group's accumulator per shading, from
    # its own planes or, for a mask that contains the one before it, from
    # that one's slot, even in the group before; each tau's row under each
    # mask must equal that pattern counted in a call of its own (a group of
    # one, the path test_occurrence_counts_match_the_direct_counter pins).
    # Type ids one bit apart (123/132), several bits apart (231/312, all
    # six types) and a single tau, under masks that cross the groups' ends.
    planes = engine.build_tables(n, 3, inverse_pairs=True)
    size = group_size(planes)
    assert size > 1
    masks = mixed_masks(size, n)
    alone = {(tau, mask): next(engine.occurrence_counts(n, planes, [tau], [mask]))[0, 0]
             for tau in enumerate_sn(3) for mask in masks}
    for taus in ([(1, 2, 3), (1, 3, 2)], [(2, 3, 1), (3, 1, 2)], [(2, 3, 1)], list(enumerate_sn(3))):
        groups = list(engine.occurrence_counts(n, planes, taus, masks))
        assert len(groups) == -(-len(masks) // size)
        counts = np.concatenate(groups)
        assert counts.shape[:2] == (len(masks), len(taus))
        for mask, row in zip(masks, counts):
            for tau, vec in zip(taus, row):
                assert np.array_equal(vec, alone[tau, mask]), (n, tau, mask)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_pair_histograms_of_mixed_masks_equal_the_lex_tables(n):
    # the scan bins each group with one bincount; masks that are not their
    # own transposes count (123, R^T) and (132, R^T) too, which may fall in
    # another group than R's
    planes = engine.build_tables(n, 3, inverse_pairs=True)
    masks = mixed_masks(group_size(planes), n)
    assert np.array_equal(_pair_histograms(n, masks, jobs=1), lex_histograms(n, masks))
    engine.clear_caches()


def test_transposed_masks():
    assert all(_transposed(m) == ShadingSet(3, m).transposed().mask for m in range(1 << 16))


def test_scan_plan_counts_each_shading_once():
    # a transpose already among the masks is read from its own place; the
    # others follow the masks, and a symmetric mask is its own transpose
    masks = (0x000F, 0x0000, 0x1111, 0x0002, 0x0021)
    counted, inverse = _scan_plan(masks)
    assert counted == (*masks, 0x0010)
    assert inverse == [2, 1, 0, 5, 4]


def lex_joint_histogram(p1, p2, n):
    """The joint histogram of two patterns from count_vectors' lex tables."""
    widths = tuple(math.comb(n, len(p)) + 1 for p in (p1, p2))
    return sum(_bins(engine.count_vectors(n, (p1, p2), first), widths, 0)[0, 0] for first in engine.blocks(n))


def assert_inverse_pair_histograms_match_the_lex_tables(entries, n):
    for entry in entries:
        p1, p2 = entry.patterns()
        lex = lex_joint_histogram(p1, p2, n)
        assert np.array_equal(_histogram((p1, p2), n), lex), (entry.id, n)
        for pattern, marginal in ((p1, lex.sum(axis=1)), (p2, lex.sum(axis=0))):
            assert distribution(pattern, n, cap=n).counts == {k: c for k, c in enumerate(marginal.tolist()) if c}


def test_inverse_pair_histograms_equal_the_lex_tables_for_every_catalog_entry():
    # the 37 entries whose patterns are not their own inverses (101-136 and
    # the length-2 entry 303) count P and P' = inverse(P); the others once
    entries = load_catalog()
    flipped = [e.id for e in entries if any(transform_pattern(p, "inverse") != p for p in e.patterns())]
    assert flipped == [*range(101, 137), 303]
    for n in range(9):
        assert_inverse_pair_histograms_match_the_lex_tables(entries, n)
    engine.clear_caches()


@pytest.mark.long_running
def test_long_running_inverse_pair_histograms_of_non_invariant_entries_at_nine():
    # the 37 entries whose patterns are not their own inverses, over the
    # nine blocks of S_9 (about 2 s)
    entries = [e for e in load_catalog() if any(transform_pattern(p, "inverse") != p for p in e.patterns())]
    assert len(entries) == 37
    assert_inverse_pair_histograms_match_the_lex_tables(entries, 9)
    engine.clear_caches()


def test_histograms_build_each_streamed_inverse_pair_table_once(monkeypatch):
    # With the kept n at 8, S_9 streams as S_10 does: a joint query
    # builds each block's table over inverse pairs once, for the pair and
    # its inverse patterns (entry 110 is not its own inverse), and holds
    # only the last one.
    p1, p2 = entry_by_id(110).patterns()
    expected = joint_distribution(p1, p2, 9, cap=9)
    engine.clear_caches()
    built = []
    build_tables = engine.build_tables
    monkeypatch.setattr(engine, "_KEPT_MAX_N", 8)
    monkeypatch.setattr(engine, "build_tables", lambda *key: built.append(key) or build_tables(*key))
    assert joint_distribution(p1, p2, 9, cap=9) == expected
    assert built == [(9, 3, first, True) for first in engine.blocks(9)]
    assert engine.subseq_tables.cache_info().currsize == 0
    assert list(engine._last_table) == [(9, 3, 9, True)]
    engine.clear_caches()


def test_scan_caches_no_tables():
    # the scan builds each block's table for itself and drops it
    engine.count_vectors(5, [P123])
    before = engine.subseq_tables.cache_info()
    scan_symmetric_pairs(6)
    assert engine.subseq_tables.cache_info() == before
    engine.clear_caches()


def test_scan_parallel_merge_is_deterministic():
    # the scan fans out only where engine.blocks splits S_n, from n = 9 on
    single = scan_symmetric_pairs(9, jobs=1, long_running=True)
    multi = scan_symmetric_pairs(9, jobs=2, long_running=True)
    assert single == multi


def test_caps():
    assert effective_cap() == 8
    with pytest.raises(CapExceededError):
        distribution(P123, 9)
    with pytest.raises(CapExceededError):
        avoidance_sequence(P123, 9, cap=4)
    with pytest.raises(CapExceededError):
        scan_symmetric_pairs(9)
    with pytest.raises(CapExceededError):
        distribution(P123, 7, cap=6)
    with pytest.raises(ValueError):
        distribution(P123, -1)


def test_sequence_caps_are_checked_before_any_table_is_built():
    engine.clear_caches()
    with pytest.raises(CapExceededError):
        avoidance_sequence(P123, 9, cap=4)
    with pytest.raises(CapExceededError):
        first_divergence(P123, P132, 9, cap=4)
    assert engine.subseq_tables.cache_info().currsize == 0


def test_scan_pool_has_no_more_workers_than_blocks(monkeypatch):
    # a stand-in for the process pool that records its size and maps in
    # this process, so no worker is ever started
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    # the scan imports the pool from concurrent.futures only when it fans out
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    # below n = 9 there is one block and no pool; S_9 has nine blocks
    pooled = scan_symmetric_pairs(9, jobs=64, long_running=True)
    assert pooled == scan_symmetric_pairs(9, jobs=1, long_running=True)
    assert sizes == [9]


def test_import_leaves_the_process_pool_unloaded():
    # every command line pays for the package's imports; the pool's module
    # loads only when a scan fans out over processes
    src = str(pathlib.Path(engine.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, meshperm, meshperm.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.stdout.strip() == "False", proc.stderr


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("MESHPERM_MAX_N", "9")
    assert effective_cap() == 9
    # The hard enumeration cap still clamps the override.
    monkeypatch.setenv("MESHPERM_MAX_N", "99")
    assert effective_cap() == 10
    for raw in ("abc", "-2"):
        monkeypatch.setenv("MESHPERM_MAX_N", raw)
        with pytest.raises(ValueError, match="MESHPERM_MAX_N"):
            effective_cap()
    monkeypatch.delenv("MESHPERM_MAX_N")
    assert effective_cap() == 8
