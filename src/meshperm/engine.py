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
the same n reuses all of the heavy work.

Permutations are partitioned by their first value when n >= 9 to keep the
tables at a manageable size; callers aggregate over ``blocks(n)``.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator, Sequence

import numpy as np

from .mesh import MeshPattern, ShadingSet
from .perms import Perm, lex_rank

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
    """S_n in lexicographic order as an int8 array, optionally with p(1) fixed."""
    if first is None:
        rows = itertools.permutations(range(1, n + 1))
    else:
        rest = [v for v in range(1, n + 1) if v != first]
        rows = ((first, *tail) for tail in itertools.permutations(rest))
    arr = np.array(list(rows), dtype=np.int8)
    if arr.ndim == 1:  # S_0 collapses to shape (1, 0)
        arr = arr.reshape(1, n)
    arr.setflags(write=False)
    return arr


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


def subseq_tables(n: int, k: int, first: int | None = None) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """Bit planes of the length-k position subsets of every permutation in a block.

    Returns ``(combos, planes)``.  ``combos`` lists the 0-based position
    k-subsets in lexicographic order; combo c is bit ``c % 32`` of word
    ``c // 32``.  ``planes`` is a uint32 array of shape ``(planes, words,
    rows)``: row r is the block's rank-r permutation, so each plane word is
    one contiguous vector over the rows.  Plane p < (k+1)^2 has the bit of
    a combo set when another point of the permutation lies in box p of the
    combo's grid (the bit order of :class:`meshperm.mesh.ShadingSet`
    masks).  The planes above hold the bits of the combo's classical type
    id, low bit first; the padding bits of the last word read as the code
    with every type bit set, which no type id has.

    ``subseq_tables(n, k)``, ``subseq_tables(n, k, None)`` and
    ``subseq_tables(n, k, first=None)`` share one cache entry.
    """
    if k not in SUPPORTED_LENGTHS:
        raise ValueError(f"tables support pattern lengths {SUPPORTED_LENGTHS}, not {k}")
    return _bit_planes(n, k, first)


@functools.lru_cache(maxsize=128)
def _bit_planes(n: int, k: int, first: int | None) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    cols = np.ascontiguousarray(perm_block(n, first).T)
    rows = cols.shape[1]
    combos = tuple(itertools.combinations(range(n), k))
    boxes, tbits = (k + 1) ** 2, _type_bits(k)
    words = -(-len(combos) // _WORD)
    planes = np.zeros((boxes + tbits, words, rows), dtype=np.uint32)
    # above[q][t] is 1 where the value at position q exceeds the one at t
    above = [[(cols[q] > cols[t]).view(np.uint8) for t in range(n)] for q in range(n)]
    for w in range(words):
        # one word's combos side by side in each row, so that a flat
        # packbits of a (rows, 32) bit array yields the row's uint32 word
        masks = np.zeros((rows, _WORD), dtype=np.uint16)
        types = np.full((rows, _WORD), (1 << tbits) - 1, dtype=np.uint8)
        for b, idx in enumerate(combos[w * _WORD:(w + 1) * _WORD]):
            if k == 2:
                types[:, b] = above[idx[0]][idx[1]]
            else:
                x, y, z = idx
                types[:, b] = 2 * (above[x][y] + above[x][z]) + above[y][z]
            acc = np.zeros(rows, dtype=np.uint16)
            for q in range(n):
                if q in idx:
                    continue
                # q's point lies in box (i, j): i chosen positions lie left
                # of q and j chosen values below its value
                i = sum(q > t for t in idx)
                j = sum(above[q][t] for t in idx)
                acc |= np.left_shift(np.uint16(1 << i * (k + 1)), j)
            masks[:, b] = acc
        for p in range(boxes):
            planes[p, w] = _pack_words(masks & np.uint16(1 << p))
        for t in range(tbits):
            planes[boxes + t, w] = _pack_words(types & np.uint8(1 << t))
    planes.setflags(write=False)
    return combos, planes


subseq_tables.cache_info = _bit_planes.cache_info
subseq_tables.cache_clear = _bit_planes.cache_clear


def _pack_words(bits: np.ndarray) -> np.ndarray:
    """The (rows, 32) array's nonzero entries as one uint32 word per row."""
    return np.packbits(bits != 0, bitorder="little").view("<u4")


def _or_planes(planes: np.ndarray, select: int, out: np.ndarray | None = None) -> np.ndarray:
    """OR of the planes whose index is a set bit of ``select``, into ``out``
    (a new zero array by default)."""
    if out is None:
        out = np.zeros(planes.shape[1:], dtype=planes.dtype)
    for p in range(select.bit_length()):
        if select >> p & 1:
            out |= planes[p]
    return out


def _row_counts(hits: np.ndarray) -> np.ndarray:
    """Set bits per row of a (words, rows) bit array, as int64.

    The words are summed as uint16, several times faster than an int64
    sum: a row has at most C(n, k) bits, and C(n, 3) < 2^16 up to n = 74,
    far past any S_n that can be enumerated.
    """
    return np.bitwise_count(hits).sum(axis=0, dtype=np.uint16).astype(np.int64)


def count_vector(n: int, pattern: MeshPattern, first: int | None = None) -> np.ndarray:
    """Occurrence counts of ``pattern`` for every permutation in the block.

    Entry r corresponds to the rank-r permutation of the block in
    lexicographic order (see :func:`meshperm.perms.lex_rank`).  A combo is
    an occurrence when no shaded box holds a point and its type bits equal
    the pattern's type id: an OR of the shaded box planes and of the type
    planes whose bit the id lacks, complemented, ANDed with the type planes
    whose bit the id has, then a popcount per row.
    """
    k = len(pattern)
    _, planes = subseq_tables(n, k, first)
    boxes, tbits, tid = (k + 1) ** 2, _type_bits(k), pattern_type_id(pattern.tau)
    lacking = ((1 << tbits) - 1) & ~tid
    blocked = _or_planes(planes, pattern.shading.mask | lacking << boxes)
    hits = np.invert(blocked, out=blocked)
    for t in range(tbits):
        if tid >> t & 1:
            hits &= planes[boxes + t]
    return _row_counts(hits)


#: Index of the low type plane of a length-3 table, after its 16 box planes.
_TYPE_PLANE_3 = 16

#: The two high type planes of a length-3 table: both bits are 0 for exactly
#: the type ids of 123 (0) and 132 (1), so the padding code 7 is excluded.
_NOT_123_OR_132 = 0b110 << _TYPE_PLANE_3


def pair_count_vectors(
    n: int, masks: Sequence[int], first: int | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Count vectors of (123, R) and (132, R) over the block, for each
    length-3 shading mask R in turn.

    Yields ``(counts of 123, counts of 132)`` per mask; both read one OR of
    the shaded box planes with the planes that rule out every other type.
    """
    _, planes = subseq_tables(n, 3, first)
    is_132 = planes[_TYPE_PLANE_3]
    others = _or_planes(planes, _NOT_123_OR_132)
    for mask in masks:
        clear = _or_planes(planes, mask, others.copy())
        np.invert(clear, out=clear)
        hits_132 = clear & is_132
        yield _row_counts(clear ^ hits_132), _row_counts(hits_132)


def pair_occurrences(n: int, shading: ShadingSet, first: int | None = None) -> list[list[tuple[int, int, int]]]:
    """Occurrences of (123, R) and (132, R) in every permutation of the block.

    Entry r lists the 1-based position triples of the block's rank-r
    permutation in lexicographic order: the combos of its table row whose
    type is 123 (0) or 132 (1) and that hold no point in a box of
    ``shading``.  A triple has one type, so for host p the entry equals
    ``sorted(occurrences(p, (123, R)) + occurrences(p, (132, R)))``.
    """
    if shading.k != 3:
        raise ValueError("pair_occurrences needs a length-3 shading")
    combos, planes = subseq_tables(n, 3, first)
    hit_words = ~_or_planes(planes, _NOT_123_OR_132 | shading.mask)
    hit = np.unpackbits(np.ascontiguousarray(hit_words.T, dtype="<u4").view(np.uint8),
                        axis=1, count=len(combos), bitorder="little")
    triples = [(a + 1, b + 1, c + 1) for a, b, c in combos]
    rows, cols = np.nonzero(hit)
    bounds = np.searchsorted(rows, np.arange(hit.shape[0] + 1)).tolist()
    cols = cols.tolist()
    return [[triples[c] for c in cols[lo:hi]] for lo, hi in zip(bounds, bounds[1:])]


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


def block_row(p: Sequence[int]) -> tuple[int | None, int]:
    """The key of the block of S_n holding ``p`` and the row of ``p`` in it."""
    n = len(p)
    if len(blocks(n)) == 1:
        return None, lex_rank(p)
    return p[0], lex_rank(p) % math.factorial(n - 1)


def max_occurrences(n: int, k: int) -> int:
    """Upper bound on the occurrence count: C(n, k)."""
    return math.comb(n, k)


def clear_caches() -> None:
    """Drop all memoized tables (used by tests and by worker processes)."""
    perm_block.cache_clear()
    subseq_tables.cache_clear()
