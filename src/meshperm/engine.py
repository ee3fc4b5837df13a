"""Vectorized exhaustive occurrence counting over S_n.

For a fixed n and pattern length k in {2, 3} this module tabulates, for
every permutation of S_n in lexicographic order and every k-subset of
positions (a combo), the classical pattern type of the subsequence and the
boxes of the pattern's grid that other points occupy.  The table is kept as
bit planes: one bit per (permutation, combo) for each of the (k+1)^2 boxes
and for each bit of the type id, packed 32 combos to a uint32 word.
Counting the occurrences of a mesh pattern in every permutation then takes
an OR of the planes of its shaded boxes and of its mismatching type bits,
and a popcount of the bits left clear, so scanning many shadings against
the same n reuses all of the heavy work.  A shaded column that covers a
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
counts the patterns of a shading together in buffers allocated once per
call.  The build is bit-sliced as well: it works on the packed words
themselves, one word operation for 32 combos over every row, guided by
masks that depend only on (n, k) and are computed once per pair, on first
use.
:func:`count_vectors` is the one entry point for counts of any length:
the tables for k in {2, 3}, the pure-Python finder otherwise.
Queries read :func:`subseq_tables`, the one place that decides how long a
table lives; the symmetric-shading scan reads each block once, so it
builds the block's table, counts every pending shading and drops it.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
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
    ``first`` up raised by one; rows of 1..m become rows of 1..m+1."""
    out = np.empty((rest.shape[0], rest.shape[1] + 1), dtype=np.int8)
    out[:, 0] = first
    out[:, 1:] = rest + (rest >= first)
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


def _table_shape(n: int, k: int, rows: int) -> tuple[int, int, int]:
    """(planes, words, rows) of the uint32 length-k table of ``rows`` permutations of S_n."""
    return (k + 1) ** 2 + _type_bits(k), -(-math.comb(n, k) // _WORD), rows


def _table_rows(n: int, first: int | None, inverse_pairs: bool) -> np.ndarray:
    """The permutations a block's table covers: :func:`perm_block`, or with
    ``inverse_pairs`` the rows of :func:`inverse_pair_block`, built anew."""
    return inverse_pair_block(n, first) if inverse_pairs else perm_block(n, first)


def build_tables(n: int, k: int, first: int | None = None,
                 inverse_pairs: bool = False) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """Bit planes of the length-k position subsets of every permutation in a block.

    Returns ``(combos, planes)``.  ``combos`` lists the 0-based position
    k-subsets in lexicographic order; combo c is bit ``c % 32`` of word
    ``c // 32``.  ``planes`` is a uint32 array of shape ``(planes, words,
    rows)``: row r is the block's rank-r permutation, or with
    ``inverse_pairs`` row r of :func:`inverse_pair_block`, so each plane
    word is one contiguous vector over the rows.  Plane p < (k+1)^2 has
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
    combos = tuple(itertools.combinations(range(n), k))
    boxes = (k + 1) ** 2
    planes = np.zeros(_table_shape(n, k, cols.shape[1]), dtype=np.uint32)
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
    if len(combos) % _WORD:
        planes[boxes:, -1] |= np.uint32(~0 << len(combos) % _WORD & 0xFFFFFFFF)
    planes.setflags(write=False)
    return combos, planes


#: Rows per pass of the build: a 64 KB vector per word, so that the
#: words a pass reads again and again stay in cache.  At n = 10 this made
#: a block's build about a third faster than one pass over all rows (on a
#: 2-core Xeon with 2 MB of L2 cache per core).
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


#: Largest block table, in bytes, that :func:`subseq_tables` keeps: each of S_9's, none of S_10's.
_KEPT_TABLE_BYTES = 16 * 2**20


def subseq_tables(n: int, k: int, first: int | None = None,
                  inverse_pairs: bool = False) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """:func:`build_tables`, held for later calls with the same block and rows.

    Tables that fit ``_KEPT_TABLE_BYTES`` (every block up to n = 9) are
    kept, so queries that revisit an n build each table once.  Above that
    only the table asked for last is held, and dropped before the next is
    built: a query that visits each block once builds each table once and
    holds one at a time.  The budget is measured on the table's own rows,
    so the smaller tables over :func:`inverse_pair_block` count as what
    they are; their rows are counted by :func:`inverse_pair_counts`, and
    built only when the table is.  ``cache_info()`` and ``cache_clear()``
    are those of an ``lru_cache`` of the kept tables; :func:`clear_caches`
    drops the held table too.
    """
    key = (n, k, first, inverse_pairs)
    rows = inverse_pair_counts(n, first)[0] if inverse_pairs else math.factorial(n - (first is not None))
    if math.prod(_table_shape(n, k, rows)) * 4 <= _KEPT_TABLE_BYTES:
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


def _clear_combos(n: int, k: int, planes: np.ndarray, mask: int, ruled_out: Sequence[np.ndarray],
                  out: np.ndarray) -> np.ndarray:
    """Write to ``out`` the combos of each row with no point in a box of
    ``mask`` and no bit set in ``ruled_out``, and return it.

    A column of ``mask`` that shades all k + 1 boxes of its position gap is
    read from :func:`_gap_masks` as one word per word of the row, broadcast
    over the rows, instead of from its k + 1 planes.
    """
    side = k + 1
    column = (1 << side) - 1
    full = [i for i in range(side) if mask >> i * side & column == column]
    for i in full:
        mask &= ~(column << i * side)
    terms = [*ruled_out, *(planes[p] for p in range(mask.bit_length()) if mask >> p & 1)]
    if full:
        terms.append(np.bitwise_or.reduce(_gap_masks(n, k)[full])[:, None])
    return np.invert(_or_into(out, terms), out=out)


def _row_counts(words: np.ndarray, pop: np.ndarray) -> np.ndarray:
    """Set bits per row of a (words, rows) bit array, in the narrowest
    unsigned dtype that holds 32 bits per word (uint8 up to 7 words);
    ``pop``, a uint8 array of the same shape, takes each word's popcount."""
    return np.bitwise_count(words, out=pop).sum(axis=0, dtype=np.min_scalar_type(len(words) * _WORD))


def occurrence_counts(n: int, planes: np.ndarray, patterns: Sequence[MeshPattern]) -> Iterator[np.ndarray]:
    """Occurrence counts of each pattern for every permutation of a block.

    ``planes`` is a block's table of S_n from :func:`build_tables` or
    :func:`subseq_tables` for the patterns' one length k; yields one count
    vector per pattern, in order, entry r for the block's rank-r
    permutation, in the narrowest unsigned dtype that holds 32 bits per word
    of a row (uint8 through n = 12).

    A combo is an occurrence when no shaded box holds a point and its type
    bits spell the pattern's type id.  The type bits that all the ids share
    are checked once per call: the OR of the type planes where the ids have
    a 0 bit and of the complements where they have a 1.  Consecutive
    patterns with one shading then share one accumulator, allocated once
    per call: that OR and the shading's box planes are ORed into it and it
    is inverted in place, leaving the combos that are clear.  A full
    position-gap column of the shading, all k + 1 boxes between two
    positions of the pattern, is ORed in as a constant word per word from
    :func:`_gap_masks` instead of as k + 1 planes.  This is exact: every
    other point lies in exactly one box, so the column holds a point
    exactly when the gap holds a position, which depends on the combo
    alone.

    The ids' other bits are checked per shading.  When they differ in one
    bit, as those of 123 and 132 or 12 and 21 do, the id with that bit set
    counts the clear combos whose type plane has it, and the other id
    counts the rest: the clear count minus that one.  When they differ in
    more bits, each id ANDs in the type plane or its complement that it
    calls for, bit by bit.  The count per row is a popcount of the bits
    left set.
    """
    k = len(patterns[0])
    base = (k + 1) ** 2
    tids = [pattern_type_id(p.tau) for p in patterns]
    differ = functools.reduce(operator.or_, (t ^ tids[0] for t in tids), 0)
    shape = planes.shape[1:]
    shared = [~planes[base + t] if tids[0] >> t & 1 else planes[base + t]
              for t in range(_type_bits(k)) if not differ >> t & 1]
    if len(shared) > 1:
        shared = [_or_into(np.empty(shape, dtype=np.uint32), shared)]
    split = [t for t in range(differ.bit_length()) if differ >> t & 1]
    clear = np.empty(shape, dtype=np.uint32)
    hits = np.empty(shape, dtype=np.uint32) if split else None
    pop = np.empty(shape, dtype=np.uint8)
    mask = None
    for pattern, tid in zip(patterns, tids):
        if pattern.shading.mask != mask:
            mask = pattern.shading.mask
            _clear_combos(n, k, planes, mask, shared, clear)
            counted = {}
        if tid not in counted and len(split) == 1:
            bit = 1 << split[0]
            ones = _row_counts(np.bitwise_and(clear, planes[base + split[0]], out=hits), pop)
            counted[tid | bit], counted[tid & ~bit] = ones, _row_counts(clear, pop) - ones
        elif tid not in counted:
            words = clear
            for t in split:
                words = np.bitwise_and(words, planes[base + t] if tid >> t & 1 else ~planes[base + t], out=hits)
            counted[tid] = _row_counts(words, pop)
        yield counted[tid]


def count_vectors(n: int, patterns: Sequence[MeshPattern], first: int | None = None,
                  inverse_pairs: bool = False) -> list[np.ndarray]:
    """Occurrence counts of each pattern for every permutation in the block.

    Entry r of a vector corresponds to the rank-r permutation of the block
    in lexicographic order (see :func:`meshperm.perms.lex_rank`), or with
    ``inverse_pairs`` to row r of :func:`inverse_pair_block`.  The
    patterns of each table length are counted by one
    :func:`occurrence_counts` call over the block's table from
    :func:`subseq_tables`, which holds it for the block's other queries,
    so a pair that shares a shading ORs its box planes once, and its
    vectors come in that kernel's narrow dtype; any other length by
    :func:`meshperm.mesh.count_occurrences` on each row of the block, as
    int64.
    """
    counted = {}
    for k in dict.fromkeys(len(p) for p in patterns):
        same = [p for p in patterns if len(p) == k]
        if k in SUPPORTED_LENGTHS:
            _, planes = subseq_tables(n, k, first, inverse_pairs)
            counted[k] = occurrence_counts(n, planes, same)
        else:
            hosts = _table_rows(n, first, inverse_pairs).tolist()
            counted[k] = iter([np.array([count_occurrences(h, p) for h in hosts], dtype=np.int64) for p in same])
    return [next(counted[len(p)]) for p in patterns]


def count_vector(n: int, pattern: MeshPattern, first: int | None = None) -> np.ndarray:
    """Occurrence counts of ``pattern`` for every permutation in the block:
    :func:`count_vectors` of the one pattern."""
    return count_vectors(n, [pattern], first)[0]


def pair_hits(n: int, shading: ShadingSet, first: int | None = None) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """Occurrences of (123, R) and (132, R) in every permutation of the block, as bits.

    Returns ``(combos, words)`` like :func:`build_tables`: bit ``c % 32`` of
    ``words[c // 32, r]`` is set when combo c of the block's rank-r
    permutation has type 123 (0) or 132 (1) and holds no point in a box of
    ``shading``.  This is the one reading of occurrences off the tables.
    """
    if shading.k != 3:
        raise ValueError("pair occurrences need a length-3 shading")
    combos, planes = subseq_tables(n, 3, first)
    # the type planes follow the 16 box planes; 123 and 132 are the ids 0
    # and 1, the two with type bits 1 and 2 clear
    types = planes[16:]
    return combos, _clear_combos(n, 3, planes, shading.mask, types[1:3], np.empty(planes.shape[1:], dtype=np.uint32))


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
