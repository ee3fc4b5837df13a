"""Tests for the vectorized counting engine against the direct counter."""

import itertools
import math
import random

import numpy as np
import pytest

from meshperm import engine
from meshperm.catalog import load_catalog
from meshperm.mesh import MeshPattern, ShadingSet, count_occurrences, occurrence_box_mask, parse_pattern
from meshperm.perms import enumerate_sn, lex_rank, standardize

from hit_lists import hit_lists


def test_blocks_partition():
    assert engine.blocks(5) == (None,)
    assert engine.blocks(engine._SINGLE_BLOCK_MAX) == (None,)
    n = engine._SINGLE_BLOCK_MAX + 1
    assert engine.blocks(n) == tuple(range(1, n + 1))


def test_perm_block_matches_enumeration():
    arr = engine.perm_block(4)
    assert arr.dtype == np.int8
    assert arr.shape == (24, 4)
    assert [tuple(int(v) for v in row) for row in arr] == list(enumerate_sn(4))
    sub = engine.perm_block(4, first=3)
    assert [tuple(int(v) for v in row) for row in sub] == [p for p in enumerate_sn(4) if p[0] == 3]
    empty = engine.perm_block(0)
    assert empty.shape == (1, 0)


def test_perm_block_matches_itertools_on_every_block():
    for n in range(10):
        keys = engine.blocks(n) if n > engine._SINGLE_BLOCK_MAX else (None, *range(1, n + 1))
        for first in keys:
            rows = [p for p in itertools.permutations(range(1, n + 1)) if first is None or p[0] == first]
            block = engine.perm_block(n, first)
            assert block.dtype == np.int8 and not block.flags.writeable, (n, first)
            assert np.array_equal(block, np.array(rows, dtype=np.int8).reshape(len(rows), n)), (n, first)
    assert engine.perm_block(0).shape == (1, 0)
    engine.clear_caches()


def test_blocks_of_s9_build_the_rows_of_s8_once(monkeypatch):
    # every block of S_9 puts its first value in front of S_8, and the
    # eight blocks of S_8 over S_7 are built once for all nine
    engine.clear_caches()
    prefixed, shapes = engine._prefixed, []
    monkeypatch.setattr(engine, "_prefixed", lambda rest, first: shapes.append(rest.shape) or prefixed(rest, first))
    for first in engine.blocks(9):
        engine.perm_block(9, first)
    assert shapes.count((math.factorial(7), 7)) == 8
    assert shapes.count((math.factorial(8), 8)) == 9
    engine.clear_caches()


def kept_by_the_rule(rows, inverses):
    """Whether each row p of S_n, with ``inverses`` its p^-1, is the one its
    inverse pair keeps: p <=_lex p^-1 when p(1) = p^-1(1), and otherwise
    p when p^-1(1) is less than (n - 1)/2 steps ahead of p(1) on the cycle
    2..n, or exactly that far with p(1) < p^-1(1)."""
    n = rows.shape[1]
    if n < 2:
        return np.ones(len(rows), dtype=bool)
    f, g = rows[:, 0].astype(int), inverses[:, 0].astype(int)
    ahead = 2 * ((g - f) % (n - 1))
    differ = rows != inverses
    at = differ.argmax(axis=1)[:, None]
    smaller = (np.take_along_axis(rows, at, 1) <= np.take_along_axis(inverses, at, 1))[:, 0]
    return np.where(f == g, smaller, (ahead < n - 1) | (ahead == n - 1) & (f < g))


def test_inverse_pair_block_keeps_one_permutation_of_each_inverse_pair():
    # over every block key of S_0..S_9, and the per-first-value blocks below
    # the split: each permutation once, as a row or as the inverse of a row;
    # the involutions first and each part in lexicographic order; every row
    # the one the rule keeps; and the sizes of inverse_pair_counts
    for n in range(10):
        keys = [engine.blocks(n)] if n > engine._SINGLE_BLOCK_MAX else [(None,), range(1, n + 1)][:1 + (n > 0)]
        for firsts in keys:
            ranks, involution_total = [], 0
            for first in firsts:
                rows = engine.inverse_pair_block(n, first)
                size, involutions = engine.inverse_pair_counts(n, first)
                assert rows.dtype == np.int8 and not rows.flags.writeable, (n, first)
                assert len(rows) == size, (n, first)
                inverses = np.argsort(rows, axis=1).astype(np.int8) + 1
                fixed = (rows == inverses).all(axis=1)
                assert fixed[:involutions].all() and not fixed[involutions:].any(), (n, first)
                assert kept_by_the_rule(rows, inverses).all(), (n, first)
                for part in (rows[:involutions], rows[involutions:]):
                    assert np.all(np.diff(engine.lex_ranks(part)) > 0), (n, first)
                ranks += [engine.lex_ranks(rows), engine.lex_ranks(inverses[involutions:])]
                involution_total += involutions
                if first is not None:
                    assert np.all(rows[:, 0] == first)
            ranks = np.concatenate(ranks)
            assert np.array_equal(np.sort(ranks), np.arange(math.factorial(n))), n
            assert involution_total == [1, 1, 2, 4, 10, 26, 76, 232, 764, 2620][n], n
    assert [engine.inverse_pair_counts(9, f)[0] for f in engine.blocks(9)] == [20542] + [22796] * 4 + [17756] * 4
    engine.clear_caches()


@pytest.mark.long_running
def test_long_running_inverse_pair_blocks_of_ten_are_balanced():
    # block 1 of S_10 holds (9! + I(9)) / 2 rows and each other block
    # (8! + I(8)) / 2 + 4 * 8!: the largest block falls from the 343102
    # rows that p <=_lex p^-1 kept in block 2
    sizes = []
    for first in engine.blocks(10):
        rows = engine.inverse_pair_block(10, first)
        fixed = (rows == np.argsort(rows, axis=1).astype(np.int8) + 1).all(axis=1)
        sizes.append((len(rows), int(fixed.sum())))
        assert sizes[-1] == engine.inverse_pair_counts(10, first), first
    assert sizes == [(182750, 2620)] + [(181822, 764)] * 9
    assert sum(size for size, _ in sizes) == (math.factorial(10) + 9496) // 2


def test_inverse_pair_tables_are_the_rows_of_the_lex_tables():
    # a table over the representatives is the lex table of the block read at
    # their ranks, bit for bit
    for n, first in ((6, None), (9, 2)):
        for k in (2, 3):
            planes = engine.build_tables(n, k, first)
            pairs = engine.subseq_tables(n, k, first, inverse_pairs=True)
            rows = engine.inverse_pair_block(n, first)
            offset = engine.lex_ranks(engine.perm_block(n, first)[:1])[0]
            assert np.array_equal(pairs, planes[:, :, engine.lex_ranks(rows) - offset]), (n, first, k)
            assert pairs.shape[2] == len(rows) < planes.shape[2]
    assert engine.subseq_tables(9, 3, 2, True) is engine.subseq_tables(9, 3, 2, inverse_pairs=True)
    engine.clear_caches()


def test_subseq_tables_keep_every_table_to_nine_and_hold_one_above(monkeypatch):
    # the rule reads n alone, so a recorder stands in for the build: every
    # table of S_9 is kept, and of S_10 only the one asked for last is
    # held, the length-2 tables over inverse pairs (16 MB a block) too
    engine.clear_caches()
    built = []
    monkeypatch.setattr(engine, "build_tables", lambda *key: built.append(key) or np.zeros(1, dtype=np.uint32))
    kinds = list(itertools.product((2, 3), (False, True)))
    nine = [(9, k, first, pairs) for k, pairs in kinds for first in engine.blocks(9)]
    tables = [engine.subseq_tables(*key) for key in nine]
    assert all(engine.subseq_tables(*key) is table for key, table in zip(nine, tables))
    assert built == nine and engine.subseq_tables.cache_info().currsize == len(nine)
    assert not engine._last_table
    for key in [(10, k, first, pairs) for k, pairs in kinds for first in engine.blocks(10)]:
        built.clear()
        table = engine.subseq_tables(*key)
        assert engine.subseq_tables(*key) is table
        assert built == [key] and list(engine._last_table) == [key]
    built.clear()
    engine.subseq_tables(10, 2, 1, True)
    assert built == [(10, 2, 1, True)] and list(engine._last_table) == built
    assert engine.subseq_tables.cache_info().currsize == len(nine)
    engine.clear_caches()


def test_pattern_type_ids_distinct():
    ids = {engine.pattern_type_id(tau) for tau in enumerate_sn(3)}
    assert len(ids) == 6
    assert engine.pattern_type_id((1, 2)) != engine.pattern_type_id((2, 1))


def test_subseq_tables_shapes_and_length_guard():
    planes = engine.subseq_tables(5, 3)
    # 16 box planes and 3 type-bit planes; the 10 combos fill one word
    assert planes.shape == (19, 1, 120)
    assert planes.dtype == np.uint32
    planes = engine.subseq_tables(9, 2, 4)
    # 9 box planes and 2 type-bit planes; 36 combos take two words
    assert planes.shape == (11, 2, 40320)
    with pytest.raises(ValueError):
        engine.subseq_tables(5, 7)
    engine.clear_caches()


def assert_bits_match_the_definition(n, k, first, rows):
    """Check the given rows of a block's length-k table, bit by bit.

    A combo's box bits must spell ``occurrence_box_mask`` and its type bits
    ``pattern_type_id`` of its standardized subsequence.  The padding bits
    of the last word must hold no box bit and read as the all-ones type
    code.
    """
    planes = engine.build_tables(n, k, first)
    combos = list(itertools.combinations(range(n), k))
    block = engine.perm_block(n, first)
    boxes = (k + 1) ** 2
    expected = np.zeros((len(planes), planes.shape[1] * 32), dtype=np.uint8)
    expected[boxes:, len(combos):] = 1
    for r in rows:
        p = tuple(int(v) for v in block[r])
        for c, idx in enumerate(combos):
            box_mask = occurrence_box_mask(p, [q + 1 for q in idx]).mask
            tid = engine.pattern_type_id(standardize([p[q] for q in idx]))
            expected[:boxes, c] = [box_mask >> b & 1 for b in range(boxes)]
            expected[boxes:, c] = [tid >> t & 1 for t in range(len(planes) - boxes)]
        words = np.ascontiguousarray(planes[:, :, r], dtype="<u4").view(np.uint8)
        bits = np.unpackbits(words, axis=1, bitorder="little")
        assert np.array_equal(bits, expected), (n, k, first, p)


@pytest.mark.parametrize("k", [2, 3])
def test_subseq_tables_bits_match_the_definition(k):
    assert_bits_match_the_definition(5, k, None, range(120))


def sample_rows(n, first, count, seed):
    """The first and last row of a block and ``count`` seeded random others."""
    rows = math.factorial(n - 1)
    return [0, rows - 1, *random.Random(seed * 100 + first).sample(range(1, rows - 1), count)]


@pytest.mark.parametrize("k", [2, 3])
def test_table_bits_match_the_definition_on_every_block_of_s9(k):
    # every first-value block, and words past the first; the last word of
    # either length has padding bits (84 and 36 combos)
    for first in engine.blocks(9):
        assert_bits_match_the_definition(9, k, first, sample_rows(9, first, 14, seed=k))
    engine.clear_caches()


@pytest.mark.long_running
def test_long_running_narrow_count_holds_the_largest_row_at_ten():
    # the identity of S_10, row 0 of block 1, has all C(10, 3) = 120 combos
    # as occurrences of 123 with no shading: the most any row of any table
    # up to the cap counts, in four words of 32 bits
    vec = engine.count_vectors(10, [parse_pattern("123|")], 1)[0]
    assert vec[0] == 120 == vec.max()
    assert vec.dtype == np.uint8
    engine.clear_caches()


@pytest.mark.long_running
@pytest.mark.parametrize("k", [2, 3])
def test_long_running_table_bits_match_the_definition_at_ten(k):
    # the first and last blocks of S_10, each about 110 MB at k = 3
    for first in (1, 10):
        assert_bits_match_the_definition(10, k, first, sample_rows(10, first, 14, seed=k))
    engine.clear_caches()


def test_subseq_tables_argument_forms_share_one_entry():
    engine.clear_caches()
    tables = engine.subseq_tables(5, 3)
    assert engine.subseq_tables(5, 3, None) is tables
    assert engine.subseq_tables(5, 3, first=None) is tables
    info = engine.subseq_tables.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


def test_padding_bits_never_count():
    # 84 combos span three uint32 words at n = 9, 36 span two; every combo has
    # exactly one type, so the empty-shaded patterns of a length split C(n, k)
    # among themselves, and with every box shaded only a host of length k
    # keeps its one combo
    for n in range(10):
        for first in engine.blocks(n):
            for k in (2, 3):
                vectors = [engine.count_vectors(n, [MeshPattern.of(tau, [])], first)[0] for tau in enumerate_sn(k)]
                assert np.all(sum(vectors) == math.comb(n, k)), (n, first, k)
                full = [engine.count_vectors(n, [MeshPattern.of(tau, ShadingSet.full(k).boxes())], first)[0]
                        for tau in enumerate_sn(k)]
                assert np.all(sum(full) == (1 if n == k else 0)), (n, first, k)
        engine.clear_caches()


@pytest.mark.parametrize("n", [5, 6])
def test_occurrence_counts_match_the_direct_counter(n):
    # every subset of full position-gap columns, each with random extra
    # boxes, for every type of lengths 3 and 2: each type alone, the pairs
    # 123/132 and 12/21 (ids one bit apart), 123/321 and all six length-3
    # types in one call (ids several bits apart); at n = 5 the 10 combos of
    # either length leave padding bits in the one word.  A full column reads
    # as the gap's constant mask, which must be the OR of its box planes.
    rng = random.Random(n)
    for k in (2, 3):
        planes = engine.build_tables(n, k)
        hosts = list(enumerate_sn(n))
        gaps = engine._gap_masks(n, k)
        for i in range(k + 1):
            column = [planes[i * (k + 1) + j] for j in range(k + 1)]
            assert np.array_equal(np.bitwise_or.reduce(column), np.broadcast_to(gaps[i][:, None], column[0].shape))
        taus = list(enumerate_sn(k))
        groups = [[tau] for tau in taus] + [taus]
        groups += [[(1, 2, 3), (1, 3, 2)], [(1, 2, 3), (3, 2, 1)]] if k == 3 else []
        for size in range(k + 2):
            for columns in itertools.combinations(range(k + 1), size):
                full = ShadingSet.from_boxes(k, [(i, j) for i in columns for j in range(k + 1)])
                extra = rng.getrandbits((k + 1) ** 2) & rng.getrandbits((k + 1) ** 2)
                shading = ShadingSet(k, full.mask | extra)
                expected = {tau: [count_occurrences(h, MeshPattern(tau, shading)) for h in hosts] for tau in taus}
                for group in groups:
                    (counts,) = engine.occurrence_counts(n, planes, group, [shading.mask])
                    assert counts.shape == (1, len(group), len(hosts))
                    for tau, vec in zip(group, counts[0]):
                        assert vec.tolist() == expected[tau], (n, shading, group, tau)


def test_occurrence_counts_refuse_taus_out_of_type_order():
    # the one-bit path writes the lower id first, so 132 before 123 would
    # swap their counts; repeated taus are refused as well
    planes = engine.build_tables(4, 3)
    for taus in ([(1, 3, 2), (1, 2, 3)], [(1, 2, 3), (1, 2, 3)], [(3, 2, 1), (1, 2, 3), (1, 3, 2)]):
        with pytest.raises(ValueError, match="distinct and ascending"):
            next(engine.occurrence_counts(4, planes, taus, [0]))


@pytest.mark.parametrize("k", [2, 3])
def test_one_bit_path_matches_the_direct_counter(k):
    # every pair of type ids one bit apart counts both ids off the
    # accumulator uninverted, which is exact only if the shared type bits
    # rule out the padding code; at n = 5 the 10 combos of either length
    # leave 22 padding bits in the one word, so a padding bit left clear
    # would miscount every row
    hosts = list(enumerate_sn(5))
    planes = engine.build_tables(5, k)
    by_id = {engine.pattern_type_id(tau): tau for tau in enumerate_sn(k)}
    pairs = [(a, b) for a, b in itertools.combinations(sorted(by_id), 2) if (a ^ b).bit_count() == 1]
    assert len(pairs) == (1 if k == 2 else 7)
    side = k + 1
    masks = [0, (1 << side) - 1, 1 << side + 1 | 1 << side * side - 1]
    for pair in pairs:
        taus = [by_id[t] for t in pair]
        assert len(engine._plan(k, pair, tuple(masks))[1]) == 1
        (counts,) = engine.occurrence_counts(5, planes, taus, masks)
        for mask, row in zip(masks, counts):
            for tau, vec in zip(taus, row):
                pattern = MeshPattern(tau, ShadingSet(k, mask))
                assert vec.tolist() == [count_occurrences(h, pattern) for h in hosts], (pair, mask, tau)


#: Ascending length-3 masks: superset runs in which column 0 (0x000F),
#: column 2 (0x0F00) and then columns 0 and 2 at once (0xF0F0 -> 0xFFFF)
#: become full partway, broken by 0x0012 and 0xF0F0, which do not contain
#: the mask before them.
EXTENSION_MASKS = (0x0001, 0x0003, 0x0007, 0x000F, 0x0012, 0x0016, 0x0116, 0x0F16, 0x2F16, 0xF0F0, 0xFFFF)


def test_superset_runs_extend_the_accumulator(monkeypatch):
    # a mask that contains the one before it ORs only its new box planes
    # and newly full columns into the slot that mask left, at every group
    # size: in groups of 3, 0x0007 -> 0x000F and 0x0016 -> 0x0116 extend
    # across a group's edge.  Every row must equal the pattern counted
    # alone, on the one-bit path (123/132), the several-bit path (231/312
    # and all six types) and with a single tau
    steps = engine._plan(3, (0, 1), EXTENSION_MASKS)[2]
    assert [extends for _, _, extends in steps] == [False, True, True, True, False, True, True, True, True, False, True]
    # 0x000F adds no plane but column 0's gap word, 0xFFFF the words of columns 0 and 2
    assert steps[3] == ((), 0b0001, True)
    assert steps[10] == ((), 0b0101, True)
    taus = list(enumerate_sn(3))
    for n, size in itertools.product((5, 6, 7), (1, 3)):
        planes = engine.build_tables(n, 3)
        words, rows = planes.shape[1:]
        monkeypatch.setattr(engine, "_GROUP_BYTES", size * engine._WORD // 8 * words * rows)
        alone = {(mask, tau): next(engine.occurrence_counts(n, planes, [tau], [mask]))[0, 0]
                 for mask in EXTENSION_MASKS for tau in taus}
        for group in ([(1, 2, 3), (1, 3, 2)], [(2, 3, 1), (3, 1, 2)], [(2, 1, 3)], taus):
            grid = list(engine.occurrence_counts(n, planes, group, EXTENSION_MASKS))
            assert [len(counts) for counts in grid] == [size] * (len(EXTENSION_MASKS) // size) + [2] * (size == 3)
            grid = np.concatenate(grid)
            assert grid.shape == (len(EXTENSION_MASKS), len(group), planes.shape[2])
            for mask, counts in zip(EXTENSION_MASKS, grid):
                for tau, vec in zip(group, counts):
                    assert np.array_equal(vec, alone[mask, tau]), (n, size, hex(mask), group, tau)


def test_count_vector_matches_direct_counter():
    rng = random.Random(20260815)
    all_boxes = [(i, j) for i in range(4) for j in range(4)]
    cases = [parse_pattern("123|"), parse_pattern("132|2/2")]
    for _ in range(8):
        tau = rng.choice([(1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 1, 2)])
        boxes = rng.sample(all_boxes, rng.randrange(0, 10))
        cases.append(MeshPattern.of(tau, boxes))
    for pattern in cases:
        vec = engine.count_vectors(5, [pattern])[0]
        for p in enumerate_sn(5):
            assert vec[lex_rank(p)] == count_occurrences(p, pattern)


def test_count_vector_length_two_patterns():
    pattern = MeshPattern.of((1, 2), [(0, 0), (0, 1), (1, 0), (1, 1)])
    vec = engine.count_vectors(4, [pattern])[0]
    for p in enumerate_sn(4):
        assert vec[lex_rank(p)] == count_occurrences(p, pattern)


def test_count_vector_per_first_value_block():
    pattern = parse_pattern("132|0/0,1/1")
    whole = engine.count_vectors(5, [pattern])[0]
    stacked = np.concatenate([engine.count_vectors(5, [pattern], f)[0] for f in range(1, 6)])
    assert np.array_equal(whole, stacked)


@pytest.mark.parametrize("n, first", [(5, None), (6, None), (7, None), (9, 4)])
def test_count_vectors_of_catalog_pairs_match_count_vector(n, first):
    # equal shadings of 123 and 132, the length-2 entries (equal shadings
    # of 12 and 21) and the one pair whose two shadings differ
    for entry in load_catalog():
        pair = entry.patterns()
        both = engine.count_vectors(n, pair, first)
        for pattern, vec in zip(pair, both):
            assert np.array_equal(vec, engine.count_vectors(n, [pattern], first)[0]), (entry.id, pattern)
    engine.clear_caches()


def test_count_vectors_of_mixed_patterns_match_the_direct_counter():
    # type ids that differ in more than one bit, a repeated shading that is
    # not adjacent, and the table lengths 2 and 3 in one call with lengths 1
    # and 4, which are counted by the pure-Python finder
    patterns = [
        parse_pattern("123|1/1"),
        parse_pattern("321|1/1"),
        parse_pattern("213|0/0,3/3"),
        parse_pattern("321|1/1"),
        parse_pattern("12|0/0"),
        parse_pattern("21|"),
        parse_pattern("231|"),
        parse_pattern("1|"),
        parse_pattern("1234|"),
        parse_pattern("1243|0/0"),
    ]
    for n in (3, 6):
        vectors = engine.count_vectors(n, patterns)
        assert len(vectors) == len(patterns)
        for pattern, vec in zip(patterns, vectors):
            assert vec.tolist() == [count_occurrences(p, pattern) for p in enumerate_sn(n)], (n, pattern)


def test_clear_caches_roundtrip():
    before = engine.count_vectors(4, [parse_pattern("123|")])[0]
    engine.clear_caches()
    after = engine.count_vectors(4, [parse_pattern("123|")])[0]
    assert np.array_equal(before, after)


def test_shading_full_kills_all_but_adjacent():
    # With every box shaded, only occurrences with no other entry anywhere
    # survive: exactly the contiguous value-interval runs.
    pattern = MeshPattern.of((1, 2, 3), ShadingSet.full(3).boxes())
    vec = engine.count_vectors(3, [pattern])[0]
    assert vec[lex_rank((1, 2, 3))] == 1
    assert int(vec.sum()) == 1


def test_pair_occurrences_rows():
    # engine.pair_hits: one word per 32 combos in lexicographic order, one
    # column per host in rank order; the tests' hit_lists reads them as
    # 1-based triples, and bijections tests those lists against the
    # pure-Python finder on all of S_0..S_6
    words = engine.pair_hits(4, ShadingSet.empty(3))
    assert words.dtype == np.uint32 and words.shape == (1, 24)
    # every triple of 1243 has type 123 or 132; none of 4321 has
    assert words[0, lex_rank((1, 2, 4, 3))] == 0b1111
    assert words[0, lex_rank((4, 3, 2, 1))] == 0
    rows = hit_lists(4, ShadingSet.empty(3))
    assert rows[lex_rank((1, 2, 4, 3))] == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    assert hit_lists(2, ShadingSet.empty(3)) == [[], []]
    with pytest.raises(ValueError):
        engine.pair_hits(4, ShadingSet.empty(2))
    # a block key selects the rows of the hosts with that first value
    assert np.array_equal(engine.pair_hits(4, ShadingSet.empty(3), 2), words[:, 6:12])
    # the combos (a, b, c) in lexicographic order are bits 0..3 of word 0,
    # and tail (2, 3) ends two of them
    assert engine.tail_words(4) == ((1, 2, ((0, 0b1),)), (1, 3, ((0, 0b10),)), (2, 3, ((0, 0b1100),)))


def test_pair_occurrences_reuses_the_count_vector_table():
    engine.clear_caches()
    engine.count_vectors(5, [parse_pattern("123|1/1")])
    built = engine.subseq_tables.cache_info().misses
    engine.pair_hits(5, ShadingSet.empty(3))
    assert engine.subseq_tables.cache_info().misses == built


def test_lex_ranks_match_lex_rank():
    rng = random.Random(3)
    for n in range(8):
        hosts = list(enumerate_sn(n))
        rng.shuffle(hosts)
        ranks = engine.lex_ranks(np.array(hosts, dtype=np.int8).reshape(len(hosts), n))
        assert ranks.tolist() == [lex_rank(p) for p in hosts], n


def test_lex_ranks_of_the_blocks_of_s9():
    n = engine._SINGLE_BLOCK_MAX + 1
    for first in engine.blocks(n):
        block = engine.perm_block(n, first)
        offset = lex_rank(tuple(block[0].tolist()))
        assert np.array_equal(engine.lex_ranks(block), offset + np.arange(block.shape[0])), first
