"""Bijections on S_n that swap the occurrence counts of paired mesh patterns.

Every transform here sends a permutation pi to a permutation pi' such that
the number of occurrences of the first pattern in pi equals the number of
occurrences of the second pattern in pi', and vice versa.  Each transform
belongs to a family keyed by the structure of the shading it supports.
:data:`FAMILIES` is the registry: one row per family with its accept rule,
its per-host map and its block map.  :func:`transform_for` resolves a
catalog family record through it, and :func:`verify_pair` checks
exhaustively over S_n that a transform is a bijection, swaps the counts and
is its own inverse: every family's transform is an involution.  The
families that act on occurrences get them from an occurrence provider;
:func:`transform_for` gives them the pure-Python finder
:func:`meshperm.mesh.occurrences`.

The transforms map one host at a time and are the definitions;
``meshperm apply``, :func:`apply_family` and the oracle tests use them, and
:func:`verify_pair` walks the hosts of any transform handed to it.  Each
family also carries a block map, which gives the images of a whole block
of S_n as one array, and :func:`verify_entry` verifies every family as
arrays: the block sweep (``direct``, ``oth1``, ``pair_swap``, ``nine_box``
and ``per_interval_nine_box``) and ``a1_complement`` read the occurrence
bits of the block's table, ``len2_reduction`` and ``per_interval_len2``
share one length-2 sweep over labelled segments of the rows, and
``complement_after_one`` and ``ltr_interval_complement`` are closed forms.
The tests hold each block map to its transform on every host of
S_0..S_6, and one entry per family on S_9.

Families and their parameters:

============================  =================================================
``direct``                    the block sweep: in each block of occurrences
                              sharing tail entries, swap each position, left
                              to right, with the block's largest later value;
                              here each block is one tail
``oth1``                      the block sweep; one occurrence is rooted at
                              each left-to-right minimum
``complement_after_one``      complement the values 2..n when pi starts with 1
``len2_reduction``            strip a forced leading 1, run the length-2 sweep
``ltr_interval_complement``   complement values inside each gap between
                              consecutive left-to-right minima
``per_interval_len2``         length-2 sweep on each rectangle hanging off a
                              left-to-right minimum
``pair_swap``                 the block sweep; each tail is adjacent in
                              position and value
``a1_complement``             complement the largest interval block around
                              each occurrence tail, block by block
``nine_box``                  the block sweep
``per_interval_nine_box``     the block sweep, occurrences confined to minima
                              rectangles
============================  =================================================
"""
from __future__ import annotations

import dataclasses
import itertools
import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import NamedTuple

import numpy as np

from . import engine
from .distribution import check_cap
from .mesh import Box, MeshPattern, ShadingSet, occurrences
from .perms import (
    Perm,
    complement,
    complement_on_set,
    left_to_right_minima,
    lex_rank,
    reverse,
    standardize,
)

Transform = Callable[[Sequence[int]], Perm]

#: (host, shading) -> the host's occurrences of the pair (123, R), (132, R)
#: under that shading, as sorted 1-based position triples.
OccurrenceProvider = Callable[[Sequence[int], ShadingSet], Sequence[tuple[int, ...]]]


class UnsupportedShadingError(ValueError):
    """Raised when a transform is asked to handle a shading outside its family."""


def _pair_for(shading: ShadingSet) -> tuple[MeshPattern, MeshPattern]:
    return MeshPattern((1, 2, 3), shading), MeshPattern((1, 3, 2), shading)


def _pair_occurrences(p: Sequence[int], shading: ShadingSet) -> list[tuple[int, ...]]:
    p1, p2 = _pair_for(shading)
    return sorted(occurrences(p, p1) + occurrences(p, p2))


def _subsets(boxes: Iterable[Box]) -> list[set[Box]]:
    boxes = sorted(boxes)
    return [set(c) for r in range(len(boxes) + 1) for c in itertools.combinations(boxes, r)]


def _lift(base: frozenset[Box], inner: ShadingSet) -> ShadingSet:
    """The length-3 shading made of ``base`` plus the length-2 ``inner``
    moved one box up and one box right."""
    return ShadingSet.from_boxes(3, base | {(i + 1, j + 1) for i, j in inner.boxes()})


#: The left column and bottom row of a length-3 diagram: shaded, they force
#: every occurrence to start at a leading 1.
_EDGE_K3 = frozenset((i, j) for i in range(4) for j in range(4) if i == 0 or j == 0)


# ---------------------------------------------------------------------------
# complement after a forced leading 1 (pairs 13-18)


def complement_after_one(p: Sequence[int]) -> Perm:
    """Complement the values 2..n in place when the permutation starts with 1.

    >>> complement_after_one((1, 2, 4, 3, 5))
    (1, 5, 3, 4, 2)
    """
    p = tuple(p)
    if not p or p[0] != 1:
        return p
    return complement_on_set(p, range(2, len(p) + 1))


def _complement_after_one_block(n: int, first: int | None, shading: ShadingSet) -> np.ndarray:
    """:func:`complement_after_one` on every host of a block: rows that
    start with 1 get ``n + 2 - p[1:]`` after it."""
    images = engine.perm_block(n, first).copy()
    tail = images[:, 1:]
    tail[...] = np.where(images[:, :1] == 1, n + 2 - tail, tail)
    return images


#: Occurrences are rooted at a leading 1 and the length-2 shading above the
#: edge is value-symmetric, so complementing the tail swaps the pair.  Each
#: symmetric shading is a set of boxes in the lower two rows plus its mirror.
_AFTER_ONE_SHADINGS = frozenset(
    _lift(_EDGE_K3, ShadingSet.from_boxes(2, low | {(i, 2 - j) for i, j in low}))
    for low in _subsets((i, j) for i in range(3) for j in (0, 1))
)


# ---------------------------------------------------------------------------
# length-2 sweep and its two reductions (pairs 19-22, 30, 31)

_L2_BASE = ((0, 0), (0, 1), (1, 0), (1, 1))
_L2_TAIL = (2, 2)


class Frame(NamedTuple):
    """How a supported length-2 shading arises from the lower 2x2 frame: the
    host symmetry that carries it there, and whether its tail box is shaded."""

    reverse: bool
    complement: bool
    tail_box: bool


def _len2_frames() -> dict[ShadingSet, Frame]:
    frames: dict[ShadingSet, Frame] = {}
    for frame in itertools.starmap(Frame, itertools.product((False, True), repeat=3)):
        boxes = _L2_BASE + ((_L2_TAIL,) if frame.tail_box else ())
        flipped = ((2 - i if frame.reverse else i, 2 - j if frame.complement else j) for i, j in boxes)
        frames[ShadingSet.from_boxes(2, flipped)] = frame
    return frames


#: supported length-2 shading -> its frame
_LEN2_FRAMES = _len2_frames()


def _host_sym(p: Sequence[int], frame: Frame) -> Perm:
    p = complement(p) if frame.complement else tuple(p)
    return reverse(p) if frame.reverse else p


def _sweep_lower(vals: Sequence[int], tail_box: bool) -> tuple[int, ...]:
    """Canonical length-2 sweep for the lower 2x2 frame.

    A pair of positions i < j is live when every other position before j
    holds a value above max(w_i, w_j), and, with the tail box, every
    position after j holds a value below that max.  Repeatedly the live pair
    with the largest second position below the previous swap is transposed.

    Only the position of the least of w[:j] can pair with j, so j is live
    when the second least of w[:j] exceeds w[j] (and, with the tail box,
    every later value lies below the larger of the pair).  One pass from the
    left carries the least and second least, one from the right the largest
    later value, so each swap costs O(m).
    """
    w = list(vals)
    m = len(w)
    jcap = m - 1
    while jcap >= 1:
        later = [-math.inf] * m  # later[j]: the largest of w[j+1:]
        for t in range(m - 2, -1, -1):
            later[t] = max(later[t + 1], w[t + 1])
        found = None
        i, least, second = 0, w[0], math.inf  # of w[:j]
        for j in range(1, jcap + 1):
            if second > w[j] and not (tail_box and later[j] > max(least, w[j])):
                found = (i, j)
            if w[j] < least:
                i, least, second = j, w[j], least
            elif w[j] < second:
                second = w[j]
        if not found:
            break
        i, j = found
        w[i], w[j] = w[j], w[i]
        jcap = j - 1
    return tuple(w)


def _len2_sweep(p: Sequence[int], frame: Frame) -> Perm:
    """Length-2 sweep for any of the eight supported frames.

    The four rotations of the lower 2x2 frame, each with or without its
    opposite tail box, are handled by conjugating the host with the matching
    symmetry and running the canonical sweep.
    """
    return _host_sym(_sweep_lower(_host_sym(p, frame), frame.tail_box), frame)


#: shading accepted by ``len2_reduction`` -> frame of its length-2 sweep:
#: the frames themselves, and each frame under a shaded edge, which forces
#: a leading 1.
_PREPEND_ONE_FRAMES = {
    **_LEN2_FRAMES,
    **{_lift(_EDGE_K3, shading): frame for shading, frame in _LEN2_FRAMES.items()},
}


def _prepend_one_sweep(p: Sequence[int], frame: Frame) -> Perm:
    """Strip the forced leading 1 and sweep the standardized remainder.

    Occurrences of the supported shadings must start at a first entry equal
    to 1, so permutations not starting with 1 are fixed points.
    """
    p = tuple(p)
    if len(p) < 3 or p[0] != 1:
        return p
    image = _len2_sweep(standardize(p[1:]), frame)
    return (1, *(v + 1 for v in image))


_L5_K3 = frozenset({(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)})

#: shading accepted by ``per_interval_len2`` -> frame of its length-2 sweep;
#: the shaded L roots every occurrence at a left-to-right minimum.
_INTERVAL_FRAMES = {_lift(_L5_K3, shading): frame for shading, frame in _LEN2_FRAMES.items()}


def _minimum_rectangles(p: Sequence[int]):
    """Yield (positions, values) of the rectangle hanging off each minimum.

    For consecutive left-to-right minima x at position s and x' at position
    s' (sentinels n+1 on both sides), the rectangle holds the entries at
    positions strictly between s and s' whose values lie strictly between x
    and the previous minimum.
    """
    mins = left_to_right_minima(p)
    n = len(p)
    for t, pos in enumerate(mins):
        lo = p[pos - 1]
        hi = p[mins[t - 1] - 1] if t else n + 1
        end = mins[t + 1] if t + 1 < len(mins) else n + 1
        sel = [q for q in range(pos + 1, end) if lo < p[q - 1] < hi]
        if sel:
            yield sel, [p[q - 1] for q in sel]


def _per_interval_sweep(p: Sequence[int], frame: Frame) -> Perm:
    """Run the length-2 sweep independently on each minimum's rectangle."""
    out = list(p)
    for sel, vals in _minimum_rectangles(p):
        if len(vals) < 2:
            continue
        image = _len2_sweep(standardize(vals), frame)
        ordered = sorted(vals)
        for q, v in zip(sel, image):
            out[q - 1] = ordered[v - 1]
    return tuple(out)


def _len2_sweep_rows(hosts: np.ndarray, segments: np.ndarray, frame: Frame) -> np.ndarray:
    """:func:`_len2_sweep` on every segment of every row of ``hosts``.

    ``segments`` labels each position of each row with its segment, 0 for
    none; the sweep of a segment acts on the subsequence of its positions
    and compares only values, so it needs no standardizing.  The frame's
    complement and reversal act on whole rows, and so within every segment.

    The sweep runs once over j = n-1..1 and swaps the live pair ending at j
    in every row at once.  This is :func:`_sweep_lower`, which after each
    swap looks for the largest live pair end below it: each end that the
    scan passes between two swaps is tested in the state that search sees,
    so both swap at the same ends.
    """
    n = hosts.shape[1]
    rows = np.flatnonzero(segments.any(axis=1))
    w, seg = hosts[rows], segments[rows]
    if frame.complement:
        w = n + 1 - w
    if frame.reverse:
        w, seg = w[:, ::-1], seg[:, ::-1]
    none = np.int8(n + 1)  # above every value: no position
    for j in range(n - 1, 0, -1):
        # the least and second least value before j in j's segment, and where the least is
        least = np.full(len(w), none)
        second, at = least.copy(), np.zeros(len(w), dtype=np.intp)
        for p in range(j):
            v = np.where(seg[:, p] == seg[:, j], w[:, p], none)
            lower = v < least
            second = np.where(lower, least, np.minimum(second, v))
            at[lower] = p
            least = np.minimum(least, v)
        live = (seg[:, j] != 0) & (least < none) & (second > w[:, j])
        if frame.tail_box:
            larger = np.maximum(least, w[:, j])
            for p in range(j + 1, n):
                live &= (seg[:, p] != seg[:, j]) | (w[:, p] < larger)
        r = np.flatnonzero(live)
        w[r, at[r]], w[r, j] = w[r, j], w[r, at[r]]
    if frame.reverse:
        w = w[:, ::-1]
    if frame.complement:
        w = n + 1 - w
    images = hosts.copy()
    images[rows] = w
    return images


def _len2_reduction_block(n: int, first: int | None, shading: ShadingSet) -> np.ndarray:
    """The map of ``len2_reduction`` on every host of a block: the length-2
    sweep of the whole row for a length-2 shading, else of positions 2..n
    in the rows that start with 1."""
    hosts = engine.perm_block(n, first)
    segments = np.ones_like(hosts)
    if shading.k == 3:
        segments = ((hosts[:, :1] == 1) & (np.arange(n) > 0)).astype(np.int8)
    return _len2_sweep_rows(hosts, segments, _PREPEND_ONE_FRAMES[shading])


def _per_interval_len2_block(n: int, first: int | None, shading: ShadingSet) -> np.ndarray:
    """:func:`_per_interval_sweep` on every host of a block.

    An entry that is not a left-to-right minimum lies in the rectangle of
    the last minimum before it when its value is below the minimum before
    that one (n + 1 for the first): the running minimum before each
    minimum, carried forward.  Its segment is labelled by the running
    minimum, one label per rectangle of a row.
    """
    hosts = engine.perm_block(n, first)
    least = np.minimum.accumulate(hosts, axis=1)
    is_min = hosts == least
    before = np.full_like(hosts, n + 1)
    before[:, 1:] = least[:, :-1]
    ceiling = np.minimum.accumulate(np.where(is_min, before, n + 1), axis=1)
    segments = np.where(~is_min & (hosts < ceiling), least, 0)
    return _len2_sweep_rows(hosts, segments, _INTERVAL_FRAMES[shading])


# ---------------------------------------------------------------------------
# interval complement (pairs 23-29, 32-38, 40)

_NE_BLOCK = frozenset((i, j) for i in (1, 2, 3) for j in (1, 2, 3))
_NE_CROSS = frozenset({(1, 2), (2, 1), (2, 3), (3, 2)})
_NE_CORNERS = frozenset({(1, 1), (1, 3), (3, 1), (3, 3)})
_NE_EXTRAS = (
    frozenset(),
    frozenset({(2, 2)}),
    _NE_CROSS,
    _NE_CORNERS,
    _NE_CROSS | {(2, 2)},
    _NE_CORNERS | {(2, 2)},
    _NE_BLOCK - {(2, 2)},
    _NE_BLOCK,
)
_L3_K3 = frozenset({(0, 0), (0, 2), (2, 0)})

_LTR_SHADINGS = frozenset(
    ShadingSet.from_boxes(3, base | extra)
    for base in (_L5_K3, _L3_K3)
    for extra in _NE_EXTRAS
)


def ltr_interval_complement(p: Sequence[int]) -> Perm:
    """Complement the values between consecutive left-to-right minima.

    With minima values n+1 > x_1 > x_2 > ... the entries whose values lie in
    (x_i, x_{i-1}) are complemented within that interval, wherever they sit.

    >>> ltr_interval_complement((3, 1, 2))
    (3, 1, 2)
    >>> ltr_interval_complement((2, 3, 1))
    (2, 3, 1)
    """
    out = list(p)
    prev = len(p) + 1
    for pos in left_to_right_minima(p):
        x = p[pos - 1]
        for q, w in enumerate(p):
            if x < w < prev:
                out[q] = x + prev - w
        prev = x
    return tuple(out)


def _ltr_interval_complement_block(n: int, first: int | None, shading: ShadingSet) -> np.ndarray:
    """:func:`ltr_interval_complement` on every host of a block.

    An entry w that is not a left-to-right minimum lies between the largest
    minimum below it and the smallest minimum above it (n + 1 if none) and
    goes to their sum minus w.  Both are read from a table per row, indexed
    by value, that holds each minimum at its own value and carries it up,
    for the one below, or down, for the one above.
    """
    hosts = engine.perm_block(n, first)
    is_min = hosts == np.minimum.accumulate(hosts, axis=1)
    width = n + 2
    # flat index of each entry's value in its row of a (rows, width) table
    at = hosts + np.arange(0, len(hosts) * width, width)[:, None]
    below = np.zeros((len(hosts), width), dtype=np.int8)
    below.put(at, np.where(is_min, hosts, 0))
    np.maximum.accumulate(below, axis=1, out=below)
    above = np.full((len(hosts), width), n + 1, dtype=np.int8)
    above.put(at, np.where(is_min, hosts, n + 1))
    np.minimum.accumulate(above[:, ::-1], axis=1, out=above[:, ::-1])
    return np.where(is_min, hosts, below.take(at) + above.take(at) - hosts)


# ---------------------------------------------------------------------------
# tail-value complement (pairs 41-43, 45)

_L3C_K3 = frozenset({(0, 0), (0, 2), (0, 3), (2, 0), (3, 0)})

_A1_SHADINGS = frozenset(
    ShadingSet.from_boxes(3, _L3C_K3 | extra)
    for extra in (_NE_CROSS, _NE_CROSS | {(2, 2)}, _NE_BLOCK - {(2, 2)}, _NE_BLOCK)
)


def _largest_block(p: Sequence[int], lo_a: int, hi_a: int, lo_b: int, hi_b: int) -> tuple[int, int] | None:
    """Longest position interval [a, b] with a in [lo_a, hi_a] and b in
    [lo_b, hi_b] whose values form an interval, or None."""
    best = None
    for a in range(lo_a, hi_a + 1):
        for b in range(max(lo_b, a + 1), hi_b + 1):
            window = sorted(p[a - 1 : b])
            if window[-1] - window[0] == b - a and (best is None or b - a > best[1] - best[0]):
                best = (a, b)
    return best


def _a1_complement(p: Sequence[int], shading: ShadingSet, provider: OccurrenceProvider) -> Perm:
    """Complement the largest interval block around each occurrence tail.

    An occurrence's tail is its second and third positions (b, c).  Its
    block is the longest run of positions right of the 1 that contains
    [b, c] and holds consecutive values; each distinct block is
    complemented on its own.

    Why this swaps the counts: boxes (0,0), (2,0) and (3,0) put every value
    below the root between the root and the tail, so the root lies at or
    left of the 1.  Boxes (0,2), (1,2), (3,2) and (2,0), (2,1), (2,3) make
    each tail an interval block whose two ends hold its least and greatest
    values.  Complementing a block B right of the 1 leaves every point
    outside B in its box.  For an occurrence whose tail lies in B, it moves
    each other point of B between rows 1 and 3.  All four shadings shade
    (1,1), (1,3), (3,1) and (3,3) alike, so 123 and 132 occurrences swap
    tail by tail.  Two largest blocks are equal or disjoint.  Complementing
    one keeps the other largest, so the map is an involution.
    """
    host = tuple(p)
    tails = {occ[1:] for occ in provider(host, shading)}
    if not tails:
        return host
    m = host.index(1) + 1
    blocks = {_largest_block(host, m + 1, b, c, len(host)) for b, c in tails}
    out = host
    for s, t in blocks:
        out = complement_on_set(out, host[s - 1 : t])
    return out


def _a1_complement_block(n: int, first: int | None, shading: ShadingSet) -> np.ndarray:
    """:func:`_a1_complement` on every host of a block.

    Only the rows with an occurrence move.  For those, each tail (b, c) is
    read from the occurrence bits of :func:`meshperm.engine.pair_hits`.  A
    window of positions [a, e] right of the 1 holds an interval of values
    when its largest value minus its least is e - a, which a running
    maximum and minimum from each start a tell for every end.  Each window
    gets a key that orders it by length, then by start, smaller first, as
    :func:`_largest_block` does, and also carries its least value.  After
    the windows that start at a are keyed, ``best[e]`` holds the largest
    key of a window starting at or before a and ending at or after e, so
    ``best[c]`` is the block of the tails with b = a.  Two largest blocks
    are equal or disjoint, so each block is complemented, as lo + hi - v,
    on its own.
    """
    images = engine.perm_block(n, first).copy()
    words = engine.pair_hits(n, shading, first)
    live = np.flatnonzero(np.bitwise_or.reduce(words, axis=0))
    if not len(live):
        return images
    words, hosts = words[:, live], images[live].astype(np.int16)
    out = hosts.copy()
    right_of_one = np.arange(n) > hosts.argmin(axis=1)[:, None]
    tails: dict[int, list] = {}
    for b, c, masks in engine.tail_words(n):
        tails.setdefault(b, []).append((c, masks))
    # key: (length * (n + 1) + n - start) * 16 + least value; 0 for no window
    best = np.zeros((n, len(live)), dtype=np.int16)
    positions = np.arange(n)
    for a in range(n - 1):
        hi = lo = hosts[:, a]
        for e in range(a + 1, n):
            hi, lo = np.maximum(hi, hosts[:, e]), np.minimum(lo, hosts[:, e])
            fits = right_of_one[:, a] & (hi - lo == e - a)
            np.maximum(best[e], np.where(fits, ((e - a) * (n + 1) + n - a) * 16 + lo, 0), out=best[e])
        best[::-1] = np.maximum.accumulate(best[::-1], axis=0)
        for c, masks in tails.get(a, ()):
            tied = np.zeros(len(live), dtype=bool)
            for w, mask in masks:
                tied |= (words[w] & mask) != 0
            rows = np.flatnonzero(tied)
            key = best[c, rows]
            if not key.all():
                raise ValueError(f"no interval block right of the 1 holds the tail at positions {a + 1}, {c + 1}")
            lo, key = key % 16, key // 16
            start, length = n - key % (n + 1), key // (n + 1)
            inside = (positions >= start[:, None]) & (positions <= (start + length)[:, None])
            out[rows] = np.where(inside, (2 * lo + length)[:, None] - hosts[rows], out[rows])
    images[live] = out
    return images


# ---------------------------------------------------------------------------
# block sweep (pairs 1-12, 39, 44, 46-75)

_OTH1_SHADING = ShadingSet.from_boxes(
    3, [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]
)

_PAIR_SWAP_SHADINGS = frozenset(
    ShadingSet.from_boxes(3, base | (_NE_BLOCK - {(3, 3)})) for base in (_L3_K3, _L3C_K3)
)

_SQ_CORE = frozenset({(2, 2), (2, 3), (3, 2), (3, 3)})
_SQ_EXTRA = frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
_SQ2_CORE = _NE_BLOCK - {(1, 1)}
_SQ22_CORE = frozenset({(0, 2), (0, 3), (2, 0), (2, 2), (2, 3), (3, 0), (3, 2), (3, 3)})

#: Shadings of the ``nine_box`` family: a mandatory core plus any subset of
#: its allowed additions.
_NINE_BOX_SHADINGS = frozenset(
    ShadingSet.from_boxes(3, core | extra)
    for core, allowed in (
        (_NE_BLOCK, _L5_K3),
        (_SQ2_CORE, _L5_K3),
        (_SQ_CORE, _SQ_EXTRA),
        (_SQ22_CORE, _SQ_EXTRA),
    )
    for extra in _subsets(allowed)
)

_INTERVAL_BLOCK_SHADINGS = frozenset(
    ShadingSet.from_boxes(3, _L5_K3 | _SQ_CORE | extra) for extra in (frozenset(), frozenset({(1, 1)}))
)


def _occurrence_blocks(occs: Iterable[tuple[int, ...]]) -> list[list[int]]:
    """Group occurrences that share a second or third entry; return each
    block's sorted second-and-third indices (0-based), blocks ordered by
    their first index.

    A block is a connected component of the graph whose edges join the
    second and third entries of each occurrence.  A root may start
    occurrences in several blocks: only the swept tail entries tie
    occurrences together, never the shared root.
    """
    parent: dict[int, int] = {}

    def find(q: int) -> int:
        while parent.setdefault(q, q) != q:
            q = parent[q]
        return q

    for _, b, c in occs:
        parent[find(b - 1)] = find(c - 1)
    blocks: dict[int, list[int]] = {}
    for q in sorted(parent):
        blocks.setdefault(find(q), []).append(q)
    return list(blocks.values())


def _block_sweep(p: Sequence[int], shading: ShadingSet, provider: OccurrenceProvider = _pair_occurrences) -> Perm:
    """Within each block of entangled occurrences, repeatedly swap the
    leftmost tail position with the maximum value to its right.

    Entangled means sharing a second or third entry (a shared root alone
    does not tie occurrences together); the sweep runs over the sorted
    second-and-third positions of each block, so a block of one tail
    exchanges that tail's two entries.  Why this swaps the counts for each
    family:

    - ``direct``: each of the eleven heavily shaded pairs occurs in one
      fixed form, a boundary triple of extreme values or disjoint
      consecutive triples, so each block holds a single tail, and swapping
      it turns each occurrence of one pattern into one of the other.
      Several roots may share one tail.
    - ``oth1``: at most one occurrence of either pattern starts at each
      left-to-right minimum.  A swap at one root never moves the occurrence
      at a later root.  Tails of successive roots may overlap and then merge
      into one block; its sweep gives what swapping the block's tails one
      after another, in occurrence order, gives (checked on all of S_0..S_9).
    - ``pair_swap``: the second and third entries of an occurrence are
      adjacent in position with consecutive values.  Several occurrences may
      hang off the same tail (one per eligible root); distinct tails never
      overlap, so each block holds a single tail.
    - ``per_interval_nine_box``: occurrences live in the rectangle below and
      right of each left-to-right minimum and never straddle two
      rectangles, so the global sweep computes the per-rectangle one.

    Like every family's map the sweep is its own inverse; :func:`verify_pair`
    checks that on all of S_n.
    """
    occs = provider(p, shading)
    if not occs:
        return tuple(p)
    out = list(p)
    for block in _occurrence_blocks(occs):
        for a, q in enumerate(block[:-1]):
            m = max(block[a + 1 :], key=out.__getitem__)
            out[q], out[m] = out[m], out[q]
    return tuple(out)


def _block_sweep_block(n: int, first: int | None, shading: ShadingSet) -> np.ndarray:
    """:func:`_block_sweep` on every host of a block.

    Only the rows with an occurrence move.  For those, each tail (b, c) is
    read from the occurrence bits of :func:`meshperm.engine.pair_hits` and
    ties b and c: each position holds a bitmask of the positions tied to
    it, closed under ties by Warshall's pass (for each position r, every
    mask holding r takes in r's).  Blocks are disjoint, so sweeping the
    positions q = 0..n-2 in order sweeps every block in its own order: q
    swaps with the largest value at a later position of its mask.
    """
    images = engine.perm_block(n, first).copy()
    words = engine.pair_hits(n, shading, first)
    live = np.flatnonzero(np.bitwise_or.reduce(words, axis=0))
    if not len(live):
        return images
    words = words[:, live]
    ties = np.empty((n, len(live)), dtype=np.uint16)
    ties[...] = (1 << np.arange(n, dtype=np.uint16))[:, None]
    for b, c, masks in engine.tail_words(n):
        tied = np.zeros(len(live), dtype=np.uint16)
        for w, mask in masks:
            tied |= (words[w] & mask) != 0
        ties[b] |= tied << c
        ties[c] |= tied << b
    for r in range(n):
        ties |= ties[r] * (ties >> r & 1)
    out = images[live]
    positions = np.arange(n, dtype=np.uint16)
    for q in range(n - 1):
        later = ties[q] >> q + 1 << q + 1
        swept = np.flatnonzero(later)
        if not len(swept):
            continue
        values = np.where(later[swept, None] >> positions & 1 == 1, out[swept], 0)
        m = values.argmax(axis=1)
        out[swept, m], out[swept, q] = out[swept, q], values[np.arange(len(swept)), m]
    images[live] = out
    return images


# ---------------------------------------------------------------------------
# the family registry

#: A family's block map: (n, block key, accepted shading) -> the images of
#: the block's hosts, the rows of :func:`meshperm.engine.perm_block`, as a
#: (rows, n) int8 array.
BlockMap = Callable[[int, int | None, ShadingSet], np.ndarray]


@dataclasses.dataclass(frozen=True)
class Family:
    """One row of the family registry.

    ``accepts`` tells whether the family handles a shading; a shading
    carries its pattern length, so the rule fixes the length too.
    ``transform(p, shading, provider)`` maps one host under an accepted
    shading, which it checks no further; families that read no occurrences
    ignore the provider.  The transform is the family's definition.
    ``block_map(n, first, shading)`` computes the same images for a whole
    block of S_n at once, and :func:`verify_entry` uses it.  Every family's
    transform is its own inverse.
    """

    name: str
    accepts: Callable[[ShadingSet], bool]
    transform: Callable[[Sequence[int], ShadingSet, OccurrenceProvider], Perm]
    block_map: BlockMap


def _len2_reduction(p: Sequence[int], shading: ShadingSet, provider: OccurrenceProvider) -> Perm:
    sweep = _len2_sweep if shading.k == 2 else _prepend_one_sweep
    return sweep(p, _PREPEND_ONE_FRAMES[shading])


def _per_interval_len2(p: Sequence[int], shading: ShadingSet, provider: OccurrenceProvider) -> Perm:
    return _per_interval_sweep(p, _INTERVAL_FRAMES[shading])


#: The family registry, one row per family; FAMILY_NAMES lists the rows in this
#: order.  The five occurrence-swapping families run the block sweep behind
#: different accept rules.
FAMILIES = (
    Family("direct", lambda s: s.k == 3, _block_sweep, _block_sweep_block),
    Family("oth1", lambda s: s == _OTH1_SHADING, _block_sweep, _block_sweep_block),
    Family("complement_after_one", lambda s: s in _AFTER_ONE_SHADINGS, lambda p, *_: complement_after_one(p),
           _complement_after_one_block),
    Family("len2_reduction", lambda s: s in _PREPEND_ONE_FRAMES, _len2_reduction, _len2_reduction_block),
    Family("ltr_interval_complement", lambda s: s in _LTR_SHADINGS, lambda p, *_: ltr_interval_complement(p),
           _ltr_interval_complement_block),
    Family("per_interval_len2", lambda s: s in _INTERVAL_FRAMES, _per_interval_len2, _per_interval_len2_block),
    Family("pair_swap", lambda s: s in _PAIR_SWAP_SHADINGS, _block_sweep, _block_sweep_block),
    Family("a1_complement", lambda s: s in _A1_SHADINGS, _a1_complement, _a1_complement_block),
    Family("nine_box", lambda s: s in _NINE_BOX_SHADINGS, _block_sweep, _block_sweep_block),
    Family("per_interval_nine_box", lambda s: s in _INTERVAL_BLOCK_SHADINGS, _block_sweep, _block_sweep_block),
)

_BY_NAME = {family.name: family for family in FAMILIES}

FAMILY_NAMES = tuple(family.name for family in FAMILIES)

#: Families whose transform is its own inverse: all of them.
INVOLUTION_FAMILIES = frozenset(FAMILY_NAMES)


def _accepting(name: str, shading: ShadingSet) -> Family:
    """The registry row ``name``, after checking that it accepts ``shading``."""
    if name not in _BY_NAME:
        raise ValueError(f"unknown bijection family {name!r}")
    family = _BY_NAME[name]
    if not family.accepts(shading):
        raise UnsupportedShadingError(f"{name} does not support shading {shading.boxes()}")
    return family


def transform_for(family: dict, shading: ShadingSet) -> Transform:
    """Resolve a catalog family record to the transform for ``shading``.

    The occurrence-driven families (``direct``, ``oth1``,
    ``pair_swap``, ``a1_complement`` and both nine-box families) read each
    host's occurrences from the pure-Python finder
    :func:`meshperm.mesh.occurrences`.  Raises
    :class:`UnsupportedShadingError` when the shading does not have the
    structure the family requires, and ValueError for unknown names.
    """
    transform = _accepting(family.get("name"), shading).transform
    return lambda p: transform(p, shading, _pair_occurrences)


def apply_family(entry, p: Sequence[int]) -> Perm:
    """Apply a catalog entry's bijection to a permutation."""
    if entry.family is None:
        raise ValueError(f"catalog entry {entry.id} carries no bijection family")
    pattern1, _ = entry.patterns()
    return transform_for(entry.family, pattern1.shading)(tuple(p))


@dataclasses.dataclass(frozen=True)
class VerificationReport:
    """Outcome of an exhaustive check over S_n.

    ``joint_swap`` and ``involution`` are None only when no image lies in
    S_n, so no counts were compared; ``bijective`` is then False.
    ``counterexample`` is the lexicographically first permutation violating
    any property.
    """

    n: int
    bijective: bool
    joint_swap: bool | None
    involution: bool | None
    counterexample: Perm | None

    def ok(self) -> bool:
        """Bijective, count-swapping and its own inverse."""
        return self.bijective is True and self.joint_swap is True and self.involution is True

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "bijective": self.bijective,
            "joint_swap": self.joint_swap,
            "involution": self.involution,
            "counterexample": None if self.counterexample is None else list(self.counterexample),
        }


def _image_ranks(transform: Transform, hosts: Iterable[Perm], n: int) -> np.ndarray:
    """The rank in S_n of each host's image, or -1 when the image is not a
    permutation of 1..n or the transform raised on the host."""
    images = []
    for host in hosts:
        try:
            images.append(transform(host))
        except Exception:  # whatever the map raises, it has no image for this host
            images.append(None)
    sized = [image is not None and len(image) == n for image in images]
    if not all(sized):
        images = [image if fits else (0,) * n for image, fits in zip(images, sized)]
    table = np.fromiter(itertools.chain.from_iterable(images), np.int64, len(images) * n).reshape(len(images), n)
    return _table_ranks(table, np.array(sized))


def _table_ranks(images: np.ndarray, sized: np.ndarray | bool = True) -> np.ndarray:
    """The rank in S_n of each row of a (rows, n) image table, or -1 where
    the row does not sort to 1..n or ``sized`` is False."""
    n = images.shape[1]
    valid = sized & (np.sort(images, axis=1) == np.arange(1, n + 1)).all(axis=1)
    return np.where(valid, engine.lex_ranks(images), -1)


def _hosts(n: int, first: int | None) -> Iterator[Perm]:
    """The hosts of block ``first`` of S_n in rank order, as tuples."""
    cols = engine.perm_block(n, first).T.tolist()
    # rows zipped from the columns, with no list per row; S_0's one row has no column
    return zip(*cols) if cols else iter([()])


def _block_ranks(block_map: BlockMap, n: int, first: int | None, shading: ShadingSet) -> np.ndarray:
    """The ranks in S_n of a block's images under ``block_map``, as
    :func:`_image_ranks` gives them; when the map raises on the block or
    returns a table of another shape, no host of the block has an image."""
    rows = len(engine.perm_block(n, first))
    try:
        images = block_map(n, first, shading)
    except Exception:  # whatever the map raises, it has no image for these hosts
        images = None
    if images is None or images.shape != (rows, n):
        return np.full(rows, -1)
    return _table_ranks(images)


def verify_pair(pattern1: MeshPattern, pattern2: MeshPattern, transform: Transform, n: int) -> VerificationReport:
    """Check over all of S_n that ``transform`` is a bijection carrying the
    joint occurrence counts of (pattern1, pattern2) to their swap, and that
    it is its own inverse.

    The transform runs once per host, block by block (see
    :func:`meshperm.engine.blocks`); a host on which it raises fails the
    check.  Each image is ranked in S_n, and all three properties are read
    from that table: an image in S_n is itself a host, so T(T(p)) is the
    image of the image.  ``n`` obeys the same size cap as the distributions.
    """
    return _verify(pattern1, pattern2, n, lambda first: _image_ranks(transform, _hosts(n, first), n))


def _verify(
    pattern1: MeshPattern,
    pattern2: MeshPattern,
    n: int,
    image_ranks: Callable[[int | None], np.ndarray],
) -> VerificationReport:
    """:func:`verify_pair` with the ranks of each block's images given by
    ``image_ranks`` (block key -> one rank per host of the block, -1 for no
    image in S_n), one visit per block: its count vectors, then its images;
    a map that reads the block's table finds it built by the counts."""
    check_cap(n)
    keys = engine.blocks(n)
    # every block holds the same number of hosts; 10! < 2^31, and no count
    # in S_n exceeds C(10, 5) = 252 under the cap
    occ1, occ2 = np.empty((2, math.factorial(n)), dtype=np.uint8)
    image = np.empty(len(occ1), dtype=np.int32)
    rows = len(image) // len(keys)
    for b, first in enumerate(keys):
        block = slice(b * rows, (b + 1) * rows)
        occ1[block], occ2[block] = engine.count_vectors(n, (pattern1, pattern2), first)
        image[block] = image_ranks(first)
    inside = image >= 0
    s = np.where(inside, image, 0)
    no_swap = inside & ((occ1 != occ2[s]) | (occ2 != occ1[s]))
    no_inverse = inside & (image[s] != np.arange(len(image)))
    # A map of S_n into itself is a bijection when it hits every rank.  A
    # host h that repeats the image x of an earlier host g is no earlier
    # witness than the first bad host: if image[x] = g, h fails the inverse
    # check, and otherwise g does.
    hit = np.zeros(len(image), dtype=bool)
    hit[s] = True
    bad = ~inside | no_swap | no_inverse
    witness = None
    if bad.any():
        block, row = divmod(int(bad.argmax()), rows)
        witness = tuple(engine.perm_block(n, keys[block])[row].tolist())
    if not inside.any():
        return VerificationReport(n, False, None, None, witness)
    return VerificationReport(n, bool(inside.all() and hit.all()), not no_swap.any(), not no_inverse.any(), witness)


def verify_entry(entry, n: int) -> VerificationReport:
    """Run :func:`verify_pair` on a catalog entry with its own family.

    Every family maps each block of S_n as one array with its block map;
    the maps that read occurrences (the block sweep of ``direct``,
    ``oth1``, ``pair_swap``, ``nine_box`` and ``per_interval_nine_box``,
    and ``a1_complement``) read their occurrence bits from the table the
    block's count vectors were read from.  The images are ranked and
    checked as in :func:`verify_pair`.
    """
    pattern1, pattern2 = entry.patterns()
    shading = pattern1.shading
    block_map = _accepting(entry.family.get("name"), shading).block_map
    return _verify(pattern1, pattern2, n, lambda first: _block_ranks(block_map, n, first, shading))


def verified_image(entry, host: Sequence[int]) -> Perm:
    """The image of ``host`` that :func:`verify_entry` checks: the row of
    its block under the family's block map; raises what the map raises."""
    pattern1, _ = entry.patterns()
    shading = pattern1.shading
    block_map = _accepting(entry.family.get("name"), shading).block_map
    n = len(host)
    first = None if engine.blocks(n) == (None,) else host[0]
    images = block_map(n, first, shading)
    return tuple(images[lex_rank(host) % len(images)].tolist())
