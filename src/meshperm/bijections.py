"""Bijections on S_n that swap the occurrence counts of paired mesh patterns.

Every transform here sends a permutation pi to a permutation pi' such that
the number of occurrences of the first pattern in pi equals the number of
occurrences of the second pattern in pi', and vice versa.  Each transform
belongs to a family keyed by the structure of the shading it supports.
:data:`FAMILIES` is the registry: one row per family with its accept rule
and its transform builder.  :func:`transform_for` resolves a catalog family
record through it, and :func:`verify_pair` checks exhaustively over S_n
that a transform is a bijection, swaps the counts and is its own inverse:
every family's transform is an involution.

Families and their parameters:

============================  =================================================
``direct``                    boundary-triple swaps, one rule per pair_id 1-11
``oth1``                      swap the tail of the unique occurrence rooted at
                              each left-to-right minimum
``complement_after_one``      complement the values 2..n when pi starts with 1
``len2_reduction``            strip a forced leading 1, run the length-2 sweep
``ltr_interval_complement``   complement values inside each gap between
                              consecutive left-to-right minima
``per_interval_len2``         length-2 sweep on each rectangle hanging off a
                              left-to-right minimum
``pair_swap``                 transpose the adjacent tail of every occurrence
``a1_complement``             complement the interval block of occurrence tails
``nine_box``                  block-structured max-swap sweep
``per_interval_nine_box``     the same sweep, occurrences confined to minima
                              rectangles
============================  =================================================
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
from collections.abc import Callable, Iterable, Sequence
from typing import NamedTuple

import numpy as np

from . import engine
from .mesh import Box, MeshPattern, ShadingSet, is_occurrence, occurrences
from .perms import (
    Perm,
    complement,
    complement_on_set,
    enumerate_sn,
    left_to_right_minima,
    reverse,
    standardize,
)

Transform = Callable[[Sequence[int]], Perm]

#: Largest n that :func:`verify_pair` checks exhaustively; it builds the
#: count table of all of S_n at once.
VERIFY_MAX_N = 8


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
# direct boundary-triple rules (pairs 1-11)

_FULL3 = ShadingSet.full(3)
_DIRECT_SEARCH_SHADINGS = {
    6: ShadingSet(3, _FULL3.mask & ~ShadingSet.from_boxes(3, [(0, 3), (3, 0)]).mask),
    7: ShadingSet(3, _FULL3.mask & ~ShadingSet.from_boxes(3, [(0, 3), (3, 0), (3, 3)]).mask),
    8: ShadingSet(3, _FULL3.mask & ~ShadingSet.from_boxes(3, [(0, 0), (0, 3), (3, 0)]).mask),
}


def direct_transform(p: Sequence[int], pair_id: int) -> Perm:
    """One-rule bijections for the eleven heavily shaded pairs.

    Each rule swaps the unique way the two patterns can occur: a boundary
    triple of extreme values, or every disjoint consecutive-triple
    occurrence for pair_ids 6-8.
    """
    p = tuple(p)
    n = len(p)
    if pair_id == 1:
        if p == (1, 2, 3):
            return (1, 3, 2)
        if p == (1, 3, 2):
            return (1, 2, 3)
        return p
    if pair_id == 2:
        if n >= 3 and p[:3] in ((1, 2, 3), (1, 3, 2)):
            return (p[0], p[2], p[1], *p[3:])
        return p
    if pair_id == 3:
        if n >= 3 and p[-3:] in ((n - 2, n - 1, n), (n - 2, n, n - 1)):
            return (*p[:-2], p[-1], p[-2])
        return p
    if pair_id == 4:
        if n >= 3 and p[0] == 1 and (p[1], p[-1]) in ((2, n), (n, 2)):
            return (p[0], p[-1], *p[2:-1], p[1])
        return p
    if pair_id == 5:
        if n >= 3 and p[0] == 1 and {p[-2], p[-1]} == {n - 1, n}:
            return (*p[:-2], p[-1], p[-2])
        return p
    if pair_id in (6, 7, 8):
        out = list(p)
        for occ in _pair_occurrences(p, _DIRECT_SEARCH_SHADINGS[pair_id]):
            b, c = occ[1], occ[2]
            out[b - 1], out[c - 1] = out[c - 1], out[b - 1]
        return tuple(out)
    if pair_id in (9, 10, 11):
        if n >= 3 and {p[-2], p[-1]} == {n - 1, n}:
            return (*p[:-2], p[-1], p[-2])
        return p
    raise ValueError(f"no direct rule for pair id {pair_id}")


# ---------------------------------------------------------------------------
# minima-rooted occurrence swap (pair 12)

_OTH1_SHADING = ShadingSet.from_boxes(
    3, [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]
)


def _occurrence_rooted_at(host: Sequence[int], pattern: MeshPattern, first: int) -> tuple[int, ...] | None:
    """Lexicographically first occurrence whose first position is ``first``."""
    for tail in itertools.combinations(range(first + 1, len(host) + 1), 2):
        positions = (first, *tail)
        if is_occurrence(host, pattern, positions):
            return positions
    return None


def oth1_transform(p: Sequence[int]) -> Perm:
    """Swap the tail of the occurrence rooted at each left-to-right minimum.

    Minima are processed in position order; at most one occurrence of either
    pattern starts at each minimum of the current permutation, and its second
    and third values are exchanged.  The swaps never move a minimum, so the
    root positions are fixed up front.
    """
    p1, p2 = _pair_for(_OTH1_SHADING)
    cur = list(p)
    for pos in left_to_right_minima(p):
        occ = _occurrence_rooted_at(cur, p1, pos) or _occurrence_rooted_at(cur, p2, pos)
        if occ is not None:
            b, c = occ[1], occ[2]
            cur[b - 1], cur[c - 1] = cur[c - 1], cur[b - 1]
    return tuple(cur)


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
    """
    w = list(vals)
    m = len(w)
    jcap = m - 1
    while jcap >= 1:
        found = None
        for j in range(jcap, 0, -1):
            for i in range(j):
                hi = max(w[i], w[j])
                if any(w[t] < hi for t in range(j) if t != i):
                    continue
                if tail_box and any(w[t] > hi for t in range(j + 1, m)):
                    continue
                found = (i, j)
                break
            if found:
                break
        if not found:
            break
        i, j = found
        w[i], w[j] = w[j], w[i]
        jcap = j - 1
    return tuple(w)


def _len2_sweep(p: Sequence[int], frame: Frame) -> Perm:
    return _host_sym(_sweep_lower(_host_sym(p, frame), frame.tail_box), frame)


def len2_swap_transform(p: Sequence[int], shading: ShadingSet) -> Perm:
    """Length-2 sweep for any of the eight supported frames.

    The four rotations of the lower 2x2 frame, each with or without its
    opposite tail box, are handled by conjugating the host with the matching
    symmetry and running the canonical sweep.
    """
    if shading not in _LEN2_FRAMES:
        raise UnsupportedShadingError(f"length-2 sweep does not support shading {shading.boxes()}")
    return _len2_sweep(p, _LEN2_FRAMES[shading])


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
    out = list(p)
    for sel, vals in _minimum_rectangles(p):
        if len(vals) < 2:
            continue
        image = _len2_sweep(standardize(vals), frame)
        ordered = sorted(vals)
        for q, v in zip(sel, image):
            out[q - 1] = ordered[v - 1]
    return tuple(out)


def per_interval_len2(p: Sequence[int], shading: ShadingSet) -> Perm:
    """Run the length-2 sweep independently on each minimum's rectangle."""
    return transform_for({"name": "per_interval_len2"}, shading)(p)


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


# ---------------------------------------------------------------------------
# tail transposition and tail-value complement (pairs 39, 44 and 41-43, 45)

_L3C_K3 = frozenset({(0, 0), (0, 2), (0, 3), (2, 0), (3, 0)})

_PAIR_SWAP_SHADINGS = frozenset(
    ShadingSet.from_boxes(3, base | extra)
    for base, extra in ((_L3_K3, _NE_BLOCK - {(3, 3)}), (_L3C_K3, _NE_BLOCK - {(3, 3)}))
)

_A1_SHADINGS = frozenset(
    ShadingSet.from_boxes(3, _L3C_K3 | extra)
    for extra in (_NE_CROSS, _NE_CROSS | {(2, 2)}, _NE_BLOCK - {(2, 2)}, _NE_BLOCK)
)


def pair_swap_transform(p: Sequence[int], shading: ShadingSet) -> Perm:
    """Transpose the last two values of every occurrence.

    For the supported shadings the second and third entries of an occurrence
    are adjacent in position with consecutive values.  Several occurrences
    may hang off the same tail pair (one per eligible root), so the swaps
    are deduplicated by position pair; distinct pairs never overlap.
    """
    return transform_for({"name": "pair_swap"}, shading)(p)


def _pair_swap(p: Sequence[int], shading: ShadingSet) -> Perm:
    out = list(p)
    for b, c in {(occ[1], occ[2]) for occ in _pair_occurrences(p, shading)}:
        out[b - 1], out[c - 1] = out[c - 1], out[b - 1]
    return tuple(out)


def _a1_complement_raw(p: Sequence[int], shading: ShadingSet) -> Perm:
    """Complement, as a set, the values serving as second or third entries.

    This naive reading of the tail-complement rule swaps the counts for small
    n but is not a bijection in general; it is kept so that
    :func:`verify_pair` can demonstrate the failure on the refuted shadings.
    """
    values = {p[q - 1] for occ in _pair_occurrences(p, shading) for q in occ[1:]}
    if not values:
        return tuple(p)
    return complement_on_set(p, values)


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


def a1_complement(p: Sequence[int], shading: ShadingSet) -> Perm:
    """Complement the interval block holding the occurrence tails.

    Every second and third entry of every occurrence lies inside a factor of
    ``p`` whose values form an interval, placed after the global minimum.
    Complementing that block swaps the two patterns' occurrences.  The block
    is the longest such factor; when no single factor covers all the tails,
    the tails split into groups no occurrence straddles, and each group's
    block is complemented on its own.
    """
    return transform_for({"name": "a1_complement"}, shading)(p)


def _a1_complement(p: Sequence[int], shading: ShadingSet) -> Perm:
    occs = _pair_occurrences(p, shading)
    if not occs:
        return tuple(p)
    n = len(p)
    min_pos = p.index(1) + 1
    tail_lo = min(occ[1] for occ in occs)
    tail_hi = max(occ[2] for occ in occs)
    merged = _largest_block(p, min_pos + 1, tail_lo, tail_hi, n)
    if merged is not None:
        a, b = merged
        return complement_on_set(p, set(p[a - 1 : b]))
    sets = _DisjointSets(n + 1)
    tails = set()
    for occ in occs:
        sets.unite(occ[1], occ[2])
        tails.update(occ[1:])
    grouped: dict[int, list[int]] = {}
    for q in sorted(tails):
        grouped.setdefault(sets.find(q), []).append(q)
    groups = sorted(grouped.values())
    spans = []
    for group in groups:
        a, b = group[0], group[-1]
        while True:
            window = p[a - 1 : b]
            lo, hi = min(window), max(window)
            grew = False
            for value in range(lo, hi + 1):
                pos = p.index(value) + 1
                if pos < a:
                    a, grew = pos, True
                elif pos > b:
                    b, grew = pos, True
            if not grew:
                break
        spans.append((a, b))
    out = tuple(p)
    for i, (a, b) in enumerate(spans):
        left = spans[i - 1][1] + 1 if i else min_pos + 1
        right = spans[i + 1][0] - 1 if i + 1 < len(spans) else n
        block = _largest_block(p, left, a, b, right)
        if block is None or block[0] <= min_pos <= block[1]:
            raise UnsupportedShadingError(
                f"a1_complement found no tail block in {p} for shading {shading.boxes()}"
            )
        out = complement_on_set(out, set(p[block[0] - 1 : block[1]]))
    return out


# ---------------------------------------------------------------------------
# block max-swap sweep (pairs 46-75)

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


class _DisjointSets:
    """Union-find over 0..n-1 with path compression."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def unite(self, x: int, y: int) -> None:
        self.parent[self.find(x)] = self.find(y)


def _occurrence_blocks(p: Sequence[int], shading: ShadingSet) -> list[list[int]]:
    """Group occurrences that share a second or third entry; return each
    block's sorted second-and-third positions.

    A root may start occurrences in several blocks: only the swept tail
    entries tie occurrences together, never the shared root.
    """
    occs = _pair_occurrences(p, shading)
    if not occs:
        return []
    sets = _DisjointSets(len(occs))
    owner: dict[int, int] = {}
    for t, occ in enumerate(occs):
        for q in occ[1:]:
            if q in owner:
                sets.unite(t, owner[q])
            else:
                owner[q] = t
    grouped: dict[int, set[int]] = {}
    for t, occ in enumerate(occs):
        grouped.setdefault(sets.find(t), set()).update(occ[1:])
    return sorted((sorted(g) for g in grouped.values()), key=lambda g: g[0])


def _block_sweep_raw(p: Sequence[int], shading: ShadingSet) -> Perm:
    out = list(p)
    for positions in _occurrence_blocks(p, shading):
        for a in range(len(positions) - 1):
            rest = positions[a + 1 :]
            m = max(rest, key=lambda q: out[q - 1])
            out[positions[a] - 1], out[m - 1] = out[m - 1], out[positions[a] - 1]
    return tuple(out)


def nine_box_transform(p: Sequence[int], shading: ShadingSet) -> Perm:
    """Within each block of entangled occurrences, repeatedly swap the
    leftmost tail position with the maximum value to its right.

    Entangled means sharing a second or third entry (a shared root alone
    does not tie occurrences together); the sweep runs over the sorted
    second-and-third positions of each block.  Like every family's map the
    sweep is its own inverse; :func:`verify_pair` checks that on all of S_n.
    """
    return transform_for({"name": "nine_box"}, shading)(p)


def per_interval_nine_box(p: Sequence[int], shading: ShadingSet) -> Perm:
    """Block sweep for the shadings whose occurrences live in the rectangle
    below and right of each left-to-right minimum.

    Occurrences of these shadings never straddle two rectangles, so the
    global block sweep computes the per-rectangle one.
    """
    return transform_for({"name": "per_interval_nine_box"}, shading)(p)


# ---------------------------------------------------------------------------
# the family registry

#: A family's transform builder: (catalog family record, accepted shading) -> transform.
Build = Callable[[dict, ShadingSet], Transform]


@dataclasses.dataclass(frozen=True)
class Family:
    """One row of the family registry.

    ``accepts`` tells whether the family handles a shading; a shading
    carries its pattern length, so the rule fixes the length too.
    ``build`` turns a catalog family record and an accepted shading into
    the transform, which checks nothing further per host.  Every family's
    transform is its own inverse.
    """

    name: str
    accepts: Callable[[ShadingSet], bool]
    build: Build


def _fixed(transform: Transform) -> Build:
    """Build rule of a family whose map is the same for every shading."""
    return lambda family, shading: transform


def _with_shading(transform: Callable[[Sequence[int], ShadingSet], Perm]) -> Build:
    """Build rule of a family whose map reads the shading's occurrences."""
    return lambda family, shading: functools.partial(transform, shading=shading)


def _build_direct(family: dict, shading: ShadingSet) -> Transform:
    pair_id = family["pair_id"]
    if not 1 <= pair_id <= 11:
        raise ValueError(f"no direct rule for pair id {pair_id}")
    return functools.partial(direct_transform, pair_id=pair_id)


def _build_len2_reduction(family: dict, shading: ShadingSet) -> Transform:
    sweep = _len2_sweep if shading.k == 2 else _prepend_one_sweep
    return functools.partial(sweep, frame=_PREPEND_ONE_FRAMES[shading])


def _build_per_interval_len2(family: dict, shading: ShadingSet) -> Transform:
    return functools.partial(_per_interval_sweep, frame=_INTERVAL_FRAMES[shading])


#: The two nine-box families run the same sweep behind different accept rules.
_build_block_sweep = _with_shading(_block_sweep_raw)


#: The family registry, one row per family; FAMILY_NAMES lists the rows in this order.
FAMILIES = (
    Family("direct", lambda s: s.k == 3, _build_direct),  # the rule is picked by pair id
    Family("oth1", lambda s: s == _OTH1_SHADING, _fixed(oth1_transform)),
    Family("complement_after_one", lambda s: s in _AFTER_ONE_SHADINGS, _fixed(complement_after_one)),
    Family("len2_reduction", lambda s: s in _PREPEND_ONE_FRAMES, _build_len2_reduction),
    Family("ltr_interval_complement", lambda s: s in _LTR_SHADINGS, _fixed(ltr_interval_complement)),
    Family("per_interval_len2", lambda s: s in _INTERVAL_FRAMES, _build_per_interval_len2),
    Family("pair_swap", lambda s: s in _PAIR_SWAP_SHADINGS, _with_shading(_pair_swap)),
    Family("a1_complement", lambda s: s in _A1_SHADINGS, _with_shading(_a1_complement)),
    Family("nine_box", lambda s: s in _NINE_BOX_SHADINGS, _build_block_sweep),
    Family("per_interval_nine_box", lambda s: s in _INTERVAL_BLOCK_SHADINGS, _build_block_sweep),
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

    Raises :class:`UnsupportedShadingError` when the shading does not have
    the structure the family requires, and ValueError for unknown names.
    """
    return _accepting(family.get("name"), shading).build(family, shading)


def frame_tail_box(name: str, shading: ShadingSet) -> bool | None:
    """Whether the length-2 frame behind a reduction family has its tail box.

    Returns None when the shading is not reducible for that family.
    """
    frames = {"len2_reduction": _PREPEND_ONE_FRAMES, "per_interval_len2": _INTERVAL_FRAMES}.get(name, {})
    return frames[shading].tail_box if shading in frames else None


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


def verify_pair(pattern1: MeshPattern, pattern2: MeshPattern, transform: Transform, n: int) -> VerificationReport:
    """Check over all of S_n that ``transform`` is a bijection carrying the
    joint occurrence counts of (pattern1, pattern2) to their swap, and that
    it is its own inverse.

    The transform runs once per host.  The rank of each image in S_n is
    looked up once, and all three properties are read from that table: an
    image in S_n is itself a host, so T(T(p)) is the image of the image.
    """
    if n > VERIFY_MAX_N:
        raise ValueError(f"verify_pair supports n <= {VERIFY_MAX_N}")
    occ1 = engine.count_vector(n, pattern1)
    occ2 = engine.count_vector(n, pattern2)
    hosts = list(enumerate_sn(n))
    rank = {p: r for r, p in enumerate(hosts)}
    # the rank of each host's image, or -1 when the image is not in S_n
    image = np.array([rank.get(tuple(transform(p)), -1) for p in hosts])
    inside = image >= 0
    first_hit = np.zeros(len(hosts), dtype=bool)
    first_hit[np.unique(image, return_index=True)[1]] = True
    # a host is non-bijective when its image is outside S_n or repeats an earlier host's
    not_bijective = ~(inside & first_hit)
    s = np.where(inside, image, 0)
    no_swap = inside & ((occ1 != occ2[s]) | (occ2 != occ1[s]))
    no_inverse = inside & (image[s] != np.arange(len(hosts)))
    bad = not_bijective | no_swap | no_inverse
    witness = hosts[bad.argmax()] if bad.any() else None
    if not inside.any():
        return VerificationReport(n, False, None, None, witness)
    return VerificationReport(n, not not_bijective.any(), not no_swap.any(), not no_inverse.any(), witness)


def verify_entry(entry, n: int) -> VerificationReport:
    """Run :func:`verify_pair` on a catalog entry with its own family."""
    pattern1, pattern2 = entry.patterns()
    transform = transform_for(entry.family, pattern1.shading)
    return verify_pair(pattern1, pattern2, transform, n)
