"""Vectorized exhaustive occurrence counting over S_n.

For a fixed n and pattern length k in {2, 3} this module tabulates, for
every permutation of S_n in lexicographic order and every k-subset of
positions (a combo), the classical pattern type of the subsequence and the
boxes of the pattern's grid that other points occupy.  The table is kept as
bit planes: one bit per (permutation, combo) for each of the (k+1)^2 boxes
and for each bit of the type id, packed 32 combos to a uint32 word.
Counting the occurrences of a mesh pattern in every permutation then takes
an OR of the planes of its shaded boxes and of its mismatching type bits,
which rules combos out, and a popcount: the occurrences are the bits left
clear, the row's bits less those set.  Scanning many shadings against the
same n reuses all of the heavy work.  A shaded column that covers a
whole position gap, all k + 1 boxes between two positions of the pattern,
is not read from the table at all: every other point lies in exactly one
box, so the OR of that column's planes says whether the gap holds a
position, which depends on the combo alone, and a constant word per word
of the row stands in for the k + 1 planes.

Permutations are partitioned by their first value when n >= 9 to keep the
tables at a manageable size; callers aggregate over ``blocks(n)``.

A block's table covers its rows in lexicographic order, or with
``inverse_pairs`` only one permutation of each inverse pair {p, p^-1}:
the rows of :func:`inverse_pair_block`, about n!/(2n) in every block of
S_n, built with the table and dropped after it, while
:func:`inverse_pair_counts` gives their number without building them.
A host's counts of P and of its inverse pattern swap between p
and p^-1, so histograms over S_n need only those rows; counts that
address hosts by lex rank (count vectors, occurrence bits, verification)
read the lex tables.

A block's table is built by :func:`build_tables`, and every count is read
from the planes it returns by one kernel, :func:`occurrence_counts`, which
counts a grid: each of a few classical patterns under each of many
shadings, as (123, R) and (132, R) for every R of a scan.  Each shading
fills its own slice of an accumulator that is never inverted, by one
rule: it ORs its box planes into the type bits' word, or, when its mask
contains the one before it, extends what that one left and ORs in only
its new boxes.  The slices are counted in groups of at most
``_GROUP_BYTES``, in buffers allocated once per call, so a scan's many
shadings over a small table share a few counting passes, while a table
of S_8 or more counts one shading at a time.  What the kernel reads for
each shading is planned once per grid.  The build is bit-sliced as well:
it works on the packed words themselves, one word operation for 32 combos
over every row, guided by masks that depend only on (n, k) and are
computed once per pair, on first use.
:func:`count_vectors` is the one entry point for counts of any length:
the tables for k in {2, 3}, the pure-Python finder otherwise.
Queries read :func:`subseq_tables`, the one place that decides how long a
table lives, by n alone: every table up to S_9 is kept, at most 9.2 MB a
block, while a block of S_10 takes 16 to 110 MB, so there only the last
is held.  The symmetric-shading scan reads each block once, so it builds
the block's table, counts every pending shading and drops it.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator, Sequence

import numpy as np

from .mesh import MeshPattern, ShadingSet, count_occurrences
from .perms import Perm

#: Largest n whose full table is built in one block.
_SINGLE_BLOCK_MAX = 8

#: Pattern lengths the tables support.
SUPPORTED_LENGTHS = (2, 3)


def blocks(n: int) -> tuple[int | None, ...]:
    """Block keys whose union covers S_n: one block, or one per first value."""
    if n <= _SINGLE_BLOCK_MAX:
        return (None,)
    return tuple(range(1, n + 1))


@functools.lru_cache(maxsize=64)
def perm_block(n: int, first: int | None = None) -> np.ndarray:
    """S_n in lexicographic order as an int8 array, optionally with p(1) fixed.

    S_0 is the one empty permutation, shape ``(1, 0)``.
    """
    arr = _block_rows(n, first)
    arr.setflags(write=False)
    return arr


def _block_rows(n: int, first: int | None) -> np.ndarray:
    """A new array of the rows of :func:`perm_block`: S_(n-1), cached,
    with ``first`` put in front, and S_n as those blocks in turn."""
    if first is not None:
        return _prefixed(perm_block(n - 1, None), first)
    if n == 0:
        return np.zeros((1, 0), dtype=np.int8)
    return np.concatenate([_block_rows(n, v) for v in range(1, n + 1)])


def inverse_pair_block(n: int, first: int | None = None) -> np.ndarray:
    """One permutation of each inverse pair {p, p^-1} of S_n, from one block.

    The rows p of :func:`perm_block` that the pair keeps, as a new int8
    array: the involutions (p = p^-1) first and then the others, each part
    in lexicographic order; :func:`inverse_pair_counts` gives both sizes.
    Over the keys of :func:`blocks` every pair has exactly one row.  A
    host's counts of a pattern P and of ``transform_pattern(P, "inverse")``
    swap between p and p^-1, so counts over these rows give a histogram
    over all of S_n with each non-involution weighted twice.

    p lies in block f = p(1) and p^-1 in block g = p^-1(1), the position
    of 1 in p.  When f = g, as in all of block 1, the pair keeps the
    lexicographically smaller of p and p^-1, and only these rows build
    their inverse.  Otherwise f and g lie in 2..n, and with m = n - 1 the
    pair keeps p when g is less than m/2 steps ahead of f on the cycle
    2, ..., n, and at exactly m/2 steps when f < g.  So every block f >= 2
    keeps the same share of its rows, and each block holds about n!/(2n).

    Nothing is cached: a block's rows live only as long as the table built
    over them.
    """
    rows = _block_rows(n, first)
    if n > 1:
        heads, ones = rows[:, 0], _ones_at(n, first)
        # with d = g - f, d mod m < m/2, or d = m/2 and f < g, reads 0 < 2d <= m or 2d < -m
        twice, m = 2 * (ones - heads), n - 1
        keep = (0 < twice) & (twice <= m) | (twice < -m)
        tied = np.flatnonzero(heads == ones)
        ties = np.take(rows, tied, axis=0)
        # entry r * n + v - 1 of the flat inverses is the position of v in tie r
        inverses = np.empty_like(ties)
        starts = np.arange(-1, ties.size - 1, n)
        for i in range(n):
            inverses.reshape(-1)[starts + ties[:, i]] = i + 1
        # rows of the bytes 1..n compare as byte strings in lexicographic order
        ties, inverses = ties.view(f"S{n}")[:, 0], inverses.view(f"S{n}")[:, 0]
        keep[tied] = ties < inverses
        rows = np.take(rows, np.concatenate([tied[ties == inverses], np.flatnonzero(keep)]), axis=0)
    rows.setflags(write=False)
    return rows


def _ones_at(n: int, first: int | None) -> np.ndarray:
    """The position of 1, counted from 1, in each row of :func:`perm_block`
    for n >= 1, as int8, read off the lexicographic order: S_m lists the
    rows that start with 1, and then m - 1 blocks that each put a larger
    value in front of S_(m-1), which moves its 1 one place on."""
    at = np.ones(1, dtype=np.int8)
    for m in range(2, n + (first is None)):
        at = np.concatenate([np.ones_like(at), np.tile(at + 1, m - 1)])
    if first is None:
        return at
    return np.ones_like(at) if first == 1 else at + 1


def _involutions(n: int) -> int:
    """Involutions of S_n: I(n) = I(n - 1) + (n - 1) I(n - 2), with I(0) = I(1) = 1."""
    a, b = 1, 1
    for m in range(2, n + 1):
        a, b = b, b + (m - 1) * a
    return b


@functools.lru_cache(maxsize=None)
def inverse_pair_counts(n: int, first: int | None = None) -> tuple[int, int]:
    """``(rows, involutions)`` of :func:`inverse_pair_block`, from closed
    forms, without building the rows.

    A block keeps all its involutions and half of the rest.  S_n has I(n)
    involutions; block 1 holds the I(n - 1) that fix 1, and block f >= 2
    the I(n - 2) that swap 1 and f, among the (n - 2)! rows with 1 at
    position f.  Block f >= 2 also keeps every one of the (n - 2)! rows
    with 1 at position g for each g less than m/2 steps ahead of f, where
    m = n - 1: floor((m - 1) / 2) of them, and one more for even m when f
    lies in the first half of 2..n.  Memoized, since every query asks for
    each block's counts.
    """
    fixed = 0 if first is None else min(first, 2)  # entries the key pins: none, 1 -> 1, or 1 <-> first
    size, involutions = math.factorial(n - fixed), _involutions(n - fixed)
    m = n - 1
    ahead = (m - 1) // 2 + (m % 2 == 0 and first - 2 < m // 2) if fixed == 2 else 0
    return (size + involutions) // 2 + ahead * size, involutions


def _prefixed(rest: np.ndarray, first: int) -> np.ndarray:
    """``first`` followed by each row of ``rest`` with its entries from
    ``first`` up raised by one; rows of 1..m become rows of 1..m+1.

    Each row's tail is written as one m-byte item of a void view, which
    halved the copy against a strided int8 write (S_8 with first = 5:
    227 -> 119 us on a 2-core Xeon).
    """
    rows, m = rest.shape
    out = np.empty((rows, m + 1), dtype=np.int8)
    out[:, 0] = first
    if m:
        tails = rest + (rest >= first)
        out[:, 1:].view(f"V{m}")[:, 0] = tails.view(f"V{m}")[:, 0]
    return out


def pattern_type_id(tau: Perm) -> int:
    """Index of ``tau`` in the lexicographic listing of patterns of its length."""
    if len(tau) == 2:
        return int(tau[0] > tau[1])
    if len(tau) == 3:
        a, b, c = tau
        return 2 * ((a > b) + (a > c)) + (b > c)
    raise ValueError(f"unsupported pattern length {len(tau)}")


#: Bits per word of a bit plane.
_WORD = 32


def _type_bits(k: int) -> int:
    """Type planes of a length-k table: enough bits for every type id plus
    one more code, all bits set, that the padding bits of the last word
    carry so that they never read as a type."""
    return math.factorial(k).bit_length()


def _table_rows(n: int, first: int | None, inverse_pairs: bool) -> np.ndarray:
    """The permutations a block's table covers: :func:`perm_block`, or with
    ``inverse_pairs`` the rows of :func:`inverse_pair_block`, built anew."""
    return inverse_pair_block(n, first) if inverse_pairs else perm_block(n, first)


def build_tables(n: int, k: int, first: int | None = None, inverse_pairs: bool = False) -> np.ndarray:
    """Bit planes of the length-k position subsets of every permutation in a block.

    The combos are the 0-based position k-subsets in lexicographic order,
    ``itertools.combinations(range(n), k)``; combo c is bit ``c % 32`` of
    word ``c // 32``.  Returns the planes, a uint32 array of shape
    ``(planes, words, rows)``: row r is the block's rank-r permutation, or
    with ``inverse_pairs`` row r of :func:`inverse_pair_block`, so each
    plane word is one contiguous vector over the rows.  Plane p < (k+1)^2 has
    the bit of a combo set when another point of the permutation lies in
    box p of the combo's grid (the bit order of :class:`meshperm.mesh.ShadingSet`
    masks).  The planes above hold the bits of the combo's classical type
    id, low bit first; the padding bits of the last word read as the code
    with every type bit set, which no type id has.

    The build is bit-sliced: every operation acts on whole words, 32 combos
    at once.  For each point q, ``above[u]`` is all ones in the rows where
    the value at q exceeds the one at position u.  For each word, slot s's
    word gathers ``above[u]`` under the mask of the combos whose s-th
    position is u (see :func:`_layout`), so its bit b tells whether q's
    value lies above the value of combo b's s-th point.  Counting those bits
    across the slots gives, per combo, the number j of its values below q's;
    its one-hot form goes to plane (i, j) under the mask of the combos that
    avoid q with i positions left of it.  Where q is a combo's s-th
    position, slot t's word is the relation of the combo's s-th and t-th
    values; those relations spell the type bits.  The rows are taken
    ``_CHUNK`` at a time.

    Each call builds the table anew; :func:`subseq_tables` keeps what it
    builds for the next query.
    """
    if k not in SUPPORTED_LENGTHS:
        raise ValueError(f"tables support pattern lengths {SUPPORTED_LENGTHS}, not {k}")
    cols = np.ascontiguousarray(_table_rows(n, first, inverse_pairs).T)
    combos, boxes = math.comb(n, k), (k + 1) ** 2
    planes = np.zeros((boxes + _type_bits(k), -(-combos // _WORD), cols.shape[1]), dtype=np.uint32)
    width = min(_CHUNK, cols.shape[1])
    work = (np.empty((n, width), dtype=bool), np.empty((n + k + 1, width), dtype=np.uint32))
    for lo in range(0, planes.shape[2], _CHUNK):
        _fill(planes[:, :, lo:lo + _CHUNK], cols[:, lo:lo + _CHUNK], k, work)
    if k == 3:
        # the type planes hold the relations of _TYPE_PAIRS; in the type id
        # 2 * ([x>y] + [x>z]) + [y>z], bit 1 is the sum's low bit, bit 2 its carry
        x_y, x_z = planes[boxes + 1], planes[boxes + 2]
        carry = x_y & x_z
        x_y ^= x_z
        x_z[...] = carry
    if combos % _WORD:
        planes[boxes:, -1] |= np.uint32(~0 << combos % _WORD & 0xFFFFFFFF)
    planes.setflags(write=False)
    return planes


#: Rows per pass of the build: a 64 KB vector per word, so that the
#: words a pass reads again and again stay in cache.  At n = 10 this made
#: a block's build about a third faster than one pass over all rows (on a
#: 2-core Xeon with 2 MB of L2 cache per core).  Most inverse-pair blocks
#: of S_8 and S_9 (17756 to 22796 rows) take a second, short pass, but
#: larger passes grow the build's work arrays with them: all blocks of a
#: table length over inverse pairs, median ms at 16384 / 24576 / 32768
#: rows, S_9 k = 3 35.1 / 31.5 / 33.0, k = 2 18.0 / 16.6 / 16.6, S_10
#: k = 3 535 / 502 / 505, k = 2 210 / 187 / 179, the lex blocks of S_9
#: (k = 3) 53.7 / 47.7 / 49.1; at 24576 the peak of ``scan --max-n 9
#: --long`` rose from 38.5 to 39.1 MB and that of ``--max-n 10`` from 100.0
#: to 100.9 MB, for 3.6 ms of the 0.2 s scan, so the value stays.
_CHUNK = 16384


def _fill(planes: np.ndarray, cols: np.ndarray, k: int, work: tuple[np.ndarray, np.ndarray]) -> None:
    """Write the box planes of a zeroed (planes, words, rows) table, and in
    its type planes the slot relations of :data:`_TYPE_PAIRS`, for the
    permutations whose values at each position are the rows of ``cols``.

    ``work`` is a bool and a uint32 array with at least as many columns as
    ``cols`` and n and n + k + 1 rows, written over: the build allocates
    them once for all its passes.
    """
    boxes = (k + 1) ** 2
    relations = {pair: planes[boxes + t] for t, pair in enumerate(_TYPE_PAIRS[k])}
    rows = cols.shape[1]
    greater, words = work[0][:, :rows], work[1][:, :rows]
    above, slot_words, scratch = words[:len(cols)], words[len(cols):-1], words[-1]
    for q in range(len(cols)):
        np.negative(np.greater(cols[q], cols, out=greater), dtype=np.uint32, out=above)
        for w, (slots, columns) in enumerate(_layout(len(cols), k)):
            below = [_gather(above, slot, out, scratch) for slot, out in zip(slots, slot_words)]
            for (s, t), relation in relations.items():
                if q in slots[s]:
                    _or_masked(relation[w], below[t], slots[s][q], scratch)
            if not columns[q]:
                continue
            at_least = _at_least(below)
            exactly = [~at_least[0], *(a ^ b for a, b in zip(at_least, at_least[1:])), at_least[-1]]
            for i, mask in columns[q]:
                for j, bits in enumerate(exactly):
                    _or_masked(planes[i * (k + 1) + j, w], bits, mask, scratch)


#: The slot pairs (s, t) whose relation [value s > value t] each type plane
#: holds while a table is built; for k = 3 the last two become the sum bits.
_TYPE_PAIRS = {2: ((0, 1),), 3: ((1, 2), (0, 1), (0, 2))}


@functools.lru_cache(maxsize=None)
def _layout(n: int, k: int) -> tuple[tuple[tuple[dict, ...], tuple[tuple, ...]], ...]:
    """Masks that :func:`build_tables` applies to each word of a length-k table of S_n.

    One ``(slots, columns)`` pair per word.  ``slots[s]`` maps each position
    u to the uint32 mask of the word's combos whose s-th position is u.
    ``columns[q]`` lists ``(i, mask)``: the mask of the combos that avoid q
    and have i positions left of it, for each i that has any.
    """
    combos = list(itertools.combinations(range(n), k))
    layout = []
    for w in range(0, len(combos), _WORD):
        word = list(enumerate(combos[w:w + _WORD]))
        slots = tuple(_masks((idx[s], b) for b, idx in word) for s in range(k))
        columns = tuple(tuple(_masks((sum(t < q for t in idx), b) for b, idx in word if q not in idx).items())
                        for q in range(n))
        layout.append((slots, columns))
    return tuple(layout)


@functools.lru_cache(maxsize=None)
def _gap_masks(n: int, k: int) -> np.ndarray:
    """Words of the combos of a length-k table of S_n that have a position
    strictly inside each position gap: row i is gap i, between the combo's
    i-th and (i+1)-th positions (the ends of 1..n bound gaps 0 and k).

    Every point off a combo lies in exactly one box of its grid, so the OR
    of the k + 1 box planes of column i is this row, the same in every row
    of the table.
    """
    gaps = np.zeros((k + 1, -(-math.comb(n, k) // _WORD)), dtype=np.uint32)
    for c, idx in enumerate(itertools.combinations(range(n), k)):
        for i, (lo, hi) in enumerate(zip((-1, *idx), (*idx, n))):
            if hi - lo > 1:
                gaps[i, c // _WORD] |= np.uint32(1 << c % _WORD)
    gaps.setflags(write=False)
    return gaps


def _masks(keyed_bits) -> dict:
    """``{key: uint32 mask}`` of the bits listed under each key."""
    masks: dict = {}
    for key, b in keyed_bits:
        masks[key] = masks.get(key, 0) | 1 << b
    return {key: np.uint32(mask) for key, mask in masks.items()}


def _or_masked(out: np.ndarray, words: np.ndarray, mask: np.uint32, scratch: np.ndarray) -> None:
    """``out |= words & mask``, with ``scratch`` for the AND."""
    np.bitwise_and(words, mask, out=scratch)
    out |= scratch


def _gather(words: np.ndarray, masks: dict, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """OR of ``words[u] & mask`` over the ``{u: mask}`` items, where the bits
    outside the masks do not matter: ``words[u]`` itself when there is one
    item, else the OR written to ``out``."""
    (u, mask), *rest = masks.items()
    if not rest:
        return words[u]
    np.bitwise_and(words[u], mask, out=out)
    for u, mask in rest:
        _or_masked(out, words[u], mask, scratch)
    return out


def _at_least(words: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Entry j - 1 has the bits set in at least j of ``words``, for j = 1..len(words)."""
    at_least = [words[0]]
    for word in words[1:]:
        at_least = [at_least[0] | word, *(hi | lo & word for lo, hi in zip(at_least, at_least[1:])),
                    at_least[-1] & word]
    return at_least


#: Largest n whose block tables :func:`subseq_tables` keeps.
_KEPT_MAX_N = 9


def subseq_tables(n: int, k: int, first: int | None = None, inverse_pairs: bool = False) -> np.ndarray:
    """:func:`build_tables`, held for later calls with the same block and rows.

    How long a table lives depends on n alone.  Up to ``_KEPT_MAX_N`` every
    table is kept, so queries that revisit an n build each table once; a
    block of S_9 takes at most 9.2 MB.  Above it only the table asked for
    last is held, and dropped before the next is built, since a block of
    S_10 takes 16 to 110 MB: a query that visits each block once builds
    each table once and holds one at a time.  ``cache_info()`` and
    ``cache_clear()`` are those of an ``lru_cache`` of the kept tables;
    :func:`clear_caches` drops the held table too.
    """
    key = (n, k, first, inverse_pairs)
    if n <= _KEPT_MAX_N:
        return _kept_tables(*key)
    if key not in _last_table:
        _last_table.clear()
        _last_table[key] = build_tables(*key)
    return _last_table[key]


# the lambda looks build_tables up at call time, as the held-block path does
_kept_tables = functools.lru_cache(maxsize=None)(lambda *key: build_tables(*key))
_last_table: dict = {}
subseq_tables.cache_info = _kept_tables.cache_info
subseq_tables.cache_clear = _kept_tables.cache_clear


def _or_into(out: np.ndarray, terms: Sequence[np.ndarray]) -> np.ndarray:
    """Write the OR of ``terms``, broadcast to the shape of ``out``, to ``out``
    (all zero when there are none) and return it."""
    if len(terms) < 2:
        np.copyto(out, terms[0] if terms else 0)
    else:
        np.bitwise_or(terms[0], terms[1], out=out)
        for term in terms[2:]:
            out |= term
    return out


@functools.lru_cache(maxsize=2)
def _plan(k: int, tids: tuple[int, ...], masks: tuple[int, ...]) -> tuple:
    """``(shared, split, steps)``: what :func:`occurrence_counts` reads to
    count the length-k patterns of type ids ``tids`` under each shading
    mask.

    ``tids`` must be distinct and ascending, so that the one-bit path of
    the kernel writes the id without the split bit first.  ``shared`` lists
    ``(bit, complemented)`` for each type bit that all the ids share: a
    combo is ruled out where that type plane, or its complement, has its
    bit set.  ``split`` lists the bits in which the ids differ, low bit
    first.  ``steps`` holds one ``(reads, gap, extends)`` per mask: the box
    planes it reads and the row of :func:`_gap_words` of its full columns
    (see :func:`_full_columns`).  A mask that contains the mask before it
    extends that one's accumulator, which already rules out every combo
    the previous mask does; then ``reads`` holds only the boxes outside
    the previous mask and ``gap`` only the columns that become full.  That
    is exact: a box of the previous mask that this one reads is read by
    the previous one too, as its column is not full, and one in a full
    column lies in the gap word, the OR of that column's planes.  Nothing
    here depends on n, so a query's sizes n share a plan, and every block
    of a scan or a streamed query plans its masks once; memoized.
    """
    if any(a >= b for a, b in zip(tids, tids[1:])):
        raise ValueError(f"type ids must be distinct and ascending, got {tids}")
    differ = 0
    for t in tids:
        differ |= t ^ tids[0]
    shared = tuple([(t, bool(tids[0] >> t & 1)) for t in range(_type_bits(k)) if not differ >> t & 1])
    split = tuple([t for t in range(differ.bit_length()) if differ >> t & 1])
    steps, before, before_gap = [], None, 0
    for mask in masks:
        read, gap = _full_columns(k, mask)
        if before is not None and mask & before == before:
            steps.append((_bits(read & ~before), gap & ~before_gap, True))
        else:
            steps.append((_bits(read), gap, False))
        before, before_gap = mask, gap
    return shared, split, tuple(steps)


def _full_columns(k: int, mask: int) -> tuple[int, int]:
    """``(read, gap)`` of a length-k shading mask: the boxes outside the
    columns that shade all k + 1 boxes of a position gap, which are read
    from their planes, and the row of :func:`_gap_words` for those columns,
    bit i set for a full column i."""
    side = k + 1
    column = (1 << side) - 1
    read, gap = mask, 0
    for i in range(side):
        if mask >> i * side & column == column:
            read &= ~(column << i * side)
            gap |= 1 << i
    return read, gap


def _bits(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask``, low bit first."""
    return tuple([p for p in range(mask.bit_length()) if mask >> p & 1])


@functools.lru_cache(maxsize=None)
def _gap_words(n: int, k: int) -> np.ndarray:
    """Row c is the OR of the rows of :func:`_gap_masks` of the columns i
    with bit i of c set, shaped ``(words, 1)`` to broadcast over the rows."""
    masks = _gap_masks(n, k)
    words = np.zeros((1 << (k + 1), masks.shape[1], 1), dtype=np.uint32)
    for c in range(1 << (k + 1)):
        words[c, :, 0] = np.bitwise_or.reduce(masks[[i for i in range(k + 1) if c >> i & 1]], axis=0)
    words.setflags(write=False)
    return words


def _rule_out(planes: np.ndarray, gap_words: np.ndarray, step: tuple, ruled_out: Sequence[np.ndarray],
              out: np.ndarray) -> np.ndarray:
    """Write to ``out`` the combos of each row that a step of :func:`_plan`
    rules out: those with a point in one of its box planes, with a position
    in its gap word from ``gap_words``, or with a bit set in ``ruled_out``;
    return it.  ``ruled_out`` may hold ``out`` itself."""
    reads, gap, _ = step
    terms = [*ruled_out, *(planes[p] for p in reads)]
    if gap:
        terms.append(gap_words[gap])
    return _or_into(out, terms)


def _type_terms(planes: np.ndarray, k: int, bits: Sequence[tuple[int, bool]]) -> list[np.ndarray]:
    """The type planes of a length-k table named by ``(bit, complemented)``
    pairs, as ``shared`` of :func:`_plan` lists them, each complemented
    where asked: their OR rules out every combo whose type differs in one
    of those bits."""
    types = planes[(k + 1) ** 2:]
    return [~types[t] if complemented else types[t] for t, complemented in bits]


def _row_counts(words: np.ndarray, pop: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Set bits per row of a (..., words, rows) bit array, written to
    ``out`` and returned; ``pop``, a uint8 array of the shape of
    ``words``, takes each word's popcount."""
    return np.add.reduce(np.bitwise_count(words, out=pop), axis=-2, dtype=out.dtype, out=out)


#: Largest accumulator, in bytes, that :func:`occurrence_counts` counts a
#: group of shadings in: each shading fills its own slice, and the group's
#: slices are counted, and the scan's bins made, in one pass.  Up to S_6 a
#: scan's pending masks fit in a few groups; from S_8 on every block counts
#: one shading at a time.
_GROUP_BYTES = 64 * 2**10


def occurrence_counts(n: int, planes: np.ndarray, taus: Sequence[Perm],
                      masks: Sequence[int]) -> Iterator[np.ndarray]:
    """Occurrence counts of each classical pattern under each shading for
    every permutation of a block.

    ``planes`` is a block's table of S_n from :func:`build_tables` or
    :func:`subseq_tables` for the patterns' one length k.  ``taus`` are
    distinct classical patterns of that length, ascending by
    :func:`pattern_type_id`, and ``masks`` the
    :class:`meshperm.mesh.ShadingSet` masks of the shadings: the patterns
    counted are the grid of each tau under each mask.  The masks are
    counted in groups, and each group yields one array of shape (shadings
    in the group, taus, rows): entry ``[i, c, r]`` counts ``taus[c]``
    under the group's i-th mask in the block's rank-r permutation, in the
    narrowest unsigned dtype that holds 32 bits per word of a row (uint8
    through n = 12).  A group holds as many shadings as fit a
    ``(shadings, words, rows)`` accumulator of ``_GROUP_BYTES``, and at
    least one.

    A combo is an occurrence when no shaded box holds a point and its type
    bits spell the pattern's type id.  The accumulator collects the combos
    that are ruled out, and is never inverted: a row's count is its
    W = 32 x words bits less those set.  The type bits that all the ids
    share are checked once per call: the OR of the type planes where the
    ids have a 0 bit and of the complements where they have a 1.  Mask i
    fills slot i mod size of the accumulator, allocated once per call, by
    one rule at every group size: it ORs that shared word with its box
    planes and its gap word, or, when it contains the mask before it, ORs
    only what it adds into the slot that mask left, i - 1 mod size, which
    still holds it across a group's edge (see :func:`_plan`).  A full
    position-gap column of a shading, all k + 1 boxes between two positions
    of the pattern, is ORed in as a constant word per word from
    :func:`_gap_masks` instead of as k + 1 planes.  This is exact: every
    other point lies in exactly one box, so the column holds a point
    exactly when the gap holds a position, which depends on the combo
    alone.

    The ids' other bits are checked per group.  When they differ in one
    bit, as those of 123 and 132 or 12 and 21 do, let ``acc`` be the
    accumulator, t that type plane and pc the popcount per row: the id
    without bit t counts W - pc(acc | t), and the id with it the rest of
    the W - pc(acc) clear combos, pc(acc | t) - pc(acc).  This is exact
    because the padding bits of the last word, whose type code has every
    bit set, are set in ``acc``: the id with bit t set is not that code,
    so it has a 0 in some other bit, which both ids share.
    Otherwise each id ORs in, bit by bit, the type plane or its complement
    that rules out the other ids (none for a single id), and counts W less
    the bits set; here too a bit in which the id is 0 rules the padding
    out.  What each mask reads is planned once per taus and masks
    (:func:`_plan`).
    """
    words, rows = planes.shape[1:]
    k = len(taus[0])
    tids = tuple([pattern_type_id(tau) for tau in taus])
    size = min(len(masks), max(1, _GROUP_BYTES // max(1, _WORD // 8 * words * rows)))
    shared_bits, split, steps = _plan(k, tids, tuple(masks))
    # each plane shaped (1, words, rows), as one shading's slot is: numpy
    # ORs it into that as fast as into a plain (words, rows) array, where a
    # broadcast (words, rows) plane was slower (an OR over S_6: 0.41 and
    # 0.39 against 0.71 us, 2-core Xeon)
    planes = planes[:, None]
    types = planes[(k + 1) ** 2:]
    shared = _type_terms(planes, k, shared_bits)
    if len(shared) > 1:
        shared = [_or_into(np.empty((1, words, rows), dtype=np.uint32), shared)]
    gap_words = _gap_words(n, k)
    acc = np.empty((size, words, rows), dtype=np.uint32)
    slots = [acc[j:j + 1] for j in range(size)]
    hits = np.empty_like(acc) if split else None
    pop = np.empty(acc.shape, dtype=np.uint8)
    dtype = np.min_scalar_type(words * _WORD)
    width = dtype.type(words * _WORD)
    for lo in range(0, len(steps), size):
        group = steps[lo:lo + size]
        for i, step in enumerate(group, lo):
            _rule_out(planes, gap_words, step, [slots[(i - 1) % size]] if step[2] else shared, slots[i % size])
        at = slice(len(group))
        ruled_out = acc[at]
        counted = np.empty((len(group), len(tids), rows), dtype=dtype)
        if len(split) == 1:
            # the id without bit t is ruled out also where type plane t is set
            either = _row_counts(np.bitwise_or(ruled_out, types[split[0]], out=hits[at]), pop[at], counted[:, 0])
            np.subtract(either, _row_counts(ruled_out, pop[at], counted[:, 1]), out=counted[:, 1])
            np.subtract(width, either, out=counted[:, 0])
        else:
            for c, tid in enumerate(tids):
                bits = ruled_out
                for t in split:
                    bits = np.bitwise_or(bits, ~types[t] if tid >> t & 1 else types[t], out=hits[at])
                np.subtract(width, _row_counts(bits, pop[at], counted[:, c]), out=counted[:, c])
        yield counted


def count_vectors(n: int, patterns: Sequence[MeshPattern], first: int | None = None,
                  inverse_pairs: bool = False) -> list[np.ndarray]:
    """Occurrence counts of each pattern for every permutation in the block.

    Entry r of a vector corresponds to the rank-r permutation of the block
    in lexicographic order (see :func:`meshperm.perms.lex_rank`), or with
    ``inverse_pairs`` to row r of :func:`inverse_pair_block`.  The
    patterns of each table length are counted by one
    :func:`occurrence_counts` call over the block's table from
    :func:`subseq_tables`, which holds it for the block's other queries:
    the grid of their distinct taus, by type id, under their distinct
    shadings, in the order first seen, so a pair that shares a shading ORs
    its box planes once, and each vector is a row of that grid in the
    kernel's narrow dtype; a repeated pattern gets the same row.  Any
    other length is counted by :func:`meshperm.mesh.count_occurrences` on
    each row of the block, as int64.
    """
    counted = {}
    for k in dict.fromkeys(len(p) for p in patterns):
        same = [p for p in patterns if len(p) == k]
        if k in SUPPORTED_LENGTHS:
            planes = subseq_tables(n, k, first, inverse_pairs)
            taus = sorted({p.tau for p in same}, key=pattern_type_id)
            masks = list(dict.fromkeys(p.shading.mask for p in same))
            grid = [row for group in occurrence_counts(n, planes, taus, masks) for row in group]
            counted[k] = iter([grid[masks.index(p.shading.mask)][taus.index(p.tau)] for p in same])
        else:
            hosts = _table_rows(n, first, inverse_pairs).tolist()
            counted[k] = iter([np.array([count_occurrences(h, p) for h in hosts], dtype=np.int64) for p in same])
    return [next(counted[len(p)]) for p in patterns]


def pair_hits(n: int, shading: ShadingSet, first: int | None = None) -> np.ndarray:
    """Occurrences of (123, R) and (132, R) in every permutation of the block, as bits.

    Returns uint32 words of shape ``(words, rows)``: bit ``c % 32`` of
    ``words[c // 32, r]`` is set when combo c, in the order of
    :func:`build_tables`, of the block's rank-r permutation has type 123
    (0) or 132 (1) and holds no point in a box of ``shading``.  This is the
    one reading of occurrences off the tables; :func:`tail_words` finds
    each tail's bits in them.
    """
    if shading.k != 3:
        raise ValueError("pair occurrences need a length-3 shading")
    planes = subseq_tables(n, 3, first)
    shared, _, (step,) = _plan(3, (0, 1), (shading.mask,))
    ruled_out = _rule_out(planes, _gap_words(n, 3), step, _type_terms(planes, 3, shared),
                          np.empty(planes.shape[1:], dtype=np.uint32))
    return np.invert(ruled_out, out=ruled_out)


@functools.lru_cache(maxsize=None)
def tail_words(n: int) -> tuple[tuple[int, int, tuple[tuple[int, np.uint32], ...]], ...]:
    """``(b, c, ((word, mask), ...))`` for each pair of 0-based positions
    b < c that is the tail of some combo (a, b, c) of S_n's length-3 table:
    the bits of those combos in the words of :func:`pair_hits`."""
    tails: dict = {}
    for bit, (_, b, c) in enumerate(itertools.combinations(range(n), 3)):
        words = tails.setdefault((b, c), {})
        words[bit // _WORD] = words.get(bit // _WORD, 0) | 1 << bit % _WORD
    return tuple((b, c, tuple((w, np.uint32(mask)) for w, mask in words.items())) for (b, c), words in tails.items())


def lex_ranks(perms: np.ndarray) -> np.ndarray:
    """Rank in the lexicographic order of S_n of each row of ``perms``.

    Every row must be a permutation of 1..n.  The rank is the Lehmer code
    read in the factorial base: position i counts the later entries below
    it, with weight (n - 1 - i)!.  This is :func:`meshperm.perms.lex_rank`
    for a whole block at once.
    """
    rows, n = perms.shape
    cols = np.ascontiguousarray(perms.T)
    ranks = np.zeros(rows, dtype=np.int64)
    for i in range(n):
        below = np.zeros(rows, dtype=np.int64)
        for j in range(i + 1, n):
            below += cols[j] < cols[i]
        ranks = ranks * (n - i) + below
    return ranks


def clear_caches() -> None:
    """Drop all memoized blocks and tables, so that the next query starts
    cold: the tests call it to free the tables they built, and the
    benchmark before each pass.  The rows of :func:`inverse_pair_block`
    are never memoized; they go with the table built over them."""
    perm_block.cache_clear()
    subseq_tables.cache_clear()
    _last_table.clear()
