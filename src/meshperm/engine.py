"""Vectorized exhaustive occurrence counting over S_n.

For a fixed n and pattern length k in {2, 3} this module tabulates, for
every permutation of S_n in lexicographic order and every k-subset of
positions, the classical pattern type of the subsequence and the bitmask of
occupied boxes.  Counting the occurrences of any mesh pattern then reduces
to one masked comparison over the table, so scanning many shadings against
the same n reuses all of the heavy work.

Permutations are partitioned by their first value when n >= 9 to keep the
tables at a manageable size; callers aggregate over ``blocks(n)``.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence

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


@functools.lru_cache(maxsize=128)
def subseq_tables(n: int, k: int, first: int | None = None) -> tuple[tuple[tuple[int, ...], ...], np.ndarray, np.ndarray]:
    """Per-permutation, per-position-subset pattern types and box masks.

    Returns ``(combos, types, masks)`` where ``combos`` lists the 0-based
    position k-subsets in lexicographic order, ``types[r, c]`` is the
    classical type id of the subsequence of the rank-r permutation at
    ``combos[c]``, and ``masks[r, c]`` its occupied-box bitmask.
    """
    if k not in SUPPORTED_LENGTHS:
        raise ValueError(f"tables support pattern lengths {SUPPORTED_LENGTHS}, not {k}")
    perms = perm_block(n, first)
    combos = tuple(itertools.combinations(range(n), k))
    rows = perms.shape[0]
    types = np.zeros((rows, len(combos)), dtype=np.uint8)
    masks = np.zeros((rows, len(combos)), dtype=np.uint16)
    for c, idx in enumerate(combos):
        chosen = [perms[:, q].astype(np.int16) for q in idx]
        if k == 2:
            types[:, c] = chosen[0] > chosen[1]
        else:
            a = (chosen[0] > chosen[1]).astype(np.uint8) + (chosen[0] > chosen[2])
            types[:, c] = 2 * a + (chosen[1] > chosen[2])
        acc = np.zeros(rows, dtype=np.uint16)
        for q in range(n):
            if q in idx:
                continue
            w = perms[:, q].astype(np.int16)
            row_i = sum(q > t for t in idx)
            col_j = np.zeros(rows, dtype=np.uint16)
            for v in chosen:
                col_j += w > v
            acc |= np.uint16(1) << (np.uint16(row_i * (k + 1)) + col_j)
        masks[:, c] = acc
    types.setflags(write=False)
    masks.setflags(write=False)
    return combos, types, masks


def count_vector(n: int, pattern: MeshPattern, first: int | None = None) -> np.ndarray:
    """Occurrence counts of ``pattern`` for every permutation in the block.

    Entry r corresponds to the rank-r permutation of the block in
    lexicographic order (see :func:`meshperm.perms.lex_rank`).
    """
    _, types, masks = subseq_tables(n, len(pattern), first)
    tid = pattern_type_id(pattern.tau)
    hit = (types == tid) & ((masks & np.uint16(pattern.shading.mask)) == 0)
    return hit.sum(axis=1, dtype=np.int64)


def pair_occurrences(n: int, shading: ShadingSet, first: int | None = None) -> list[list[tuple[int, int, int]]]:
    """Occurrences of (123, R) and (132, R) in every permutation of the block.

    Entry r lists the 1-based position triples of the block's rank-r
    permutation in lexicographic order: the combos of its table row whose
    type is 123 (0) or 132 (1) and whose box mask misses ``shading``.  A
    triple has one type, so for host p the entry equals
    ``sorted(occurrences(p, (123, R)) + occurrences(p, (132, R)))``.
    """
    if shading.k != 3:
        raise ValueError("pair_occurrences needs a length-3 shading")
    # the same cache key as count_vector's lookup, so its table is reused
    combos, types, masks = subseq_tables(n, 3, first)
    hit = (types <= 1) & ((masks & np.uint16(shading.mask)) == 0)
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
