"""Occurrence-count distributions, equidistribution tests, and the
symmetric-shading scan.

Two mesh patterns are equidistributed at size n when they have the same
number of hosts in S_n for every occurrence count; the scan hunts for the
smallest n at which paired shadings of 123 and 132 stop being
equidistributed.  Exhaustive enumeration is guarded by a size cap: the
default is 8, the MESHPERM_MAX_N environment variable raises it, and the
hard ceiling of the enumeration layer still applies.

Every histogram here counts one permutation of each inverse pair
{p, p^-1}, which is exact because the count of P in p^-1 is that of
P' = ``transform_pattern(P, "inverse")`` in p: over a block it is
fixed + others(P) + others(P'), the bins of the involutions, of the other
rows, and of the other rows counted with the P'.  :func:`_bins` makes
that split for the queries and the scan alike.  A pattern fixed by the
inverse symmetry, as (123, R) and (132, R) are for the scan's symmetric
R, is its own P' and is counted once.

The scan plans its pending shadings once per n (their masks and the
transposes that an asymmetric R adds), counts 123 and 132 under each with
:func:`meshperm.engine.occurrence_counts` a group of shadings at a time,
and bins each group's counts with one ``np.bincount``.  Its shadings are
symmetric and reach the kernel in ascending order of mask, so at every n
a mask that contains the one before it adds its new boxes to what that
one left.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import os
from collections.abc import Sequence

import numpy as np

from . import engine
from .mesh import MeshPattern, ShadingSet, symmetric_shadings, transform_pattern
from .perms import HARD_ENUMERATION_CAP, CapExceededError

DEFAULT_MAX_N = 8

#: n at which the scan switches to the long-running code path.
LONG_RUN_THRESHOLD = 9


def effective_cap() -> int:
    """The active size cap: MESHPERM_MAX_N if set, else the default of 8."""
    raw = os.environ.get("MESHPERM_MAX_N")
    if raw is None:
        return DEFAULT_MAX_N
    try:
        cap = int(raw)
        if cap < 0:
            raise ValueError
    except ValueError:
        raise ValueError(f"MESHPERM_MAX_N must be a non-negative integer, got {raw!r}") from None
    return min(cap, HARD_ENUMERATION_CAP)


def check_cap(n: int, cap: int | None = None) -> None:
    """Raise CapExceededError when n exceeds ``cap`` (default: the active cap)."""
    limit = min(cap, HARD_ENUMERATION_CAP) if cap is not None else effective_cap()
    if n > limit:
        raise CapExceededError(f"n = {n} exceeds the active cap of {limit}")
    if n < 0:
        raise ValueError("n must be non-negative")


@dataclasses.dataclass(frozen=True, eq=True)
class DistributionTable:
    """Sparse histogram: counts[k] hosts in S_n hold exactly k occurrences."""

    pattern: MeshPattern
    n: int
    counts: dict[int, int]

    def total(self) -> int:
        return sum(self.counts.values())

    def csv_rows(self):
        for k in sorted(self.counts):
            yield self.n, k, self.counts[k]

    def to_json(self) -> dict:
        return {"n": self.n, "counts": {str(k): v for k, v in sorted(self.counts.items())}}


@dataclasses.dataclass(frozen=True, eq=True)
class JointTable:
    """Sparse joint histogram over pairs of occurrence counts."""

    pattern1: MeshPattern
    pattern2: MeshPattern
    n: int
    counts: dict[tuple[int, int], int]

    def total(self) -> int:
        return sum(self.counts.values())

    def is_swap_symmetric(self) -> bool:
        return all(self.counts.get((l, k)) == v for (k, l), v in self.counts.items())

    def csv_rows(self):
        for k, l in sorted(self.counts):
            yield self.n, k, l, self.counts[(k, l)]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "counts": [[k, l, v] for (k, l), v in sorted(self.counts.items())],
        }


def distribution(pattern: MeshPattern, n: int, *, cap: int | None = None) -> DistributionTable:
    """Occurrence-count distribution of ``pattern`` over all of S_n.

    Counted over one permutation of each inverse pair {p, p^-1}, as every
    histogram is (see :func:`_histogram`).
    """
    check_cap(n, cap)
    return DistributionTable(pattern, n, _counts(_histogram((pattern,), n)))


def _histogram(patterns: tuple[MeshPattern, ...], n: int) -> np.ndarray:
    """Hosts of S_n per tuple of the patterns' occurrence counts, as a
    ``(C(n, k1) + 1, ...)`` array for the pattern lengths k1, ...

    Each block's vectors cover one permutation of each inverse pair
    {p, p^-1}, the rows of :func:`meshperm.engine.inverse_pair_block`, the
    involutions first.  The count of P in p^-1 is that of
    P' = ``transform_pattern(P, "inverse")`` in p, so a block adds
    fixed + others(P) + others(P'): the bins of the involutions and of the
    other rows p, counted with the patterns, and the bins of those other
    rows counted with the P', which are the hosts p^-1 (see :func:`_bins`).
    When every P' is P, as for (123, R) and (132, R) with R symmetric, the
    patterns are counted once and their others added twice.
    """
    inverses = tuple(transform_pattern(p, "inverse") for p in patterns)
    counted = patterns if inverses == patterns else patterns + inverses
    widths = tuple(math.comb(n, len(p)) + 1 for p in patterns)
    hist = 0
    for first in engine.blocks(n):
        vectors = engine.count_vectors(n, counted, first, inverse_pairs=True)
        _, involutions = engine.inverse_pair_counts(n, first)
        others, fixed = _bins(vectors[:len(patterns)], widths, involutions)
        inverse_others = (others if counted is patterns
                          else _bins(vectors[len(patterns):], widths, involutions)[0])
        hist += fixed[0] + others[0] + inverse_others[0]
    return hist


def _bins(counts: Sequence[np.ndarray], widths: tuple[int, ...], involutions: int) -> np.ndarray:
    """Hosts per tuple of counts, over the rows after the first
    ``involutions`` and over those first rows: ``others, fixed = _bins(...)``.

    ``counts`` holds one or two count arrays, one per entry of ``widths``
    (the number of possible counts), each shaped ``(rows,)`` or ``(items,
    rows)``; the result is a ``(2, items, *widths)`` array, with one item
    for ``(rows,)`` counts.  It is one ``np.bincount`` of the keys
    c1 * widths[1] + c2, offset by prod(widths) per item and by
    items * prod(widths) on the first ``involutions`` rows, in the
    narrowest dtype that holds every key and the counts.
    """
    size = math.prod(widths)
    c1 = np.atleast_2d(counts[0])
    items = len(c1)
    dtype = np.promote_types(np.min_scalar_type(2 * items * size), np.result_type(*counts))
    keys = np.multiply(c1, size // widths[0], dtype=dtype)
    if len(counts) > 1:
        keys += counts[1]
    if items > 1:
        keys += np.arange(0, items * size, size, dtype=dtype)[:, None]
    keys[:, :involutions] += items * size
    return np.bincount(keys.ravel(), minlength=2 * items * size).reshape(2, items, *widths)


def _counts(hist: np.ndarray) -> dict[int, int]:
    """The nonzero entries of a histogram, keyed by occurrence count in
    ascending order: :attr:`DistributionTable.counts`."""
    return {k: c for k, c in enumerate(hist.tolist()) if c}


def joint_distribution(
    pattern1: MeshPattern, pattern2: MeshPattern, n: int, *, cap: int | None = None
) -> JointTable:
    """Joint distribution of the two patterns' occurrence counts over S_n."""
    check_cap(n, cap)
    hist = _histogram((pattern1, pattern2), n)
    # the nonzero cells in row-major order, so the table lists (k, l) ascending
    ks, ls = np.nonzero(hist)
    counts = dict(zip(zip(ks.tolist(), ls.tolist()), hist[ks, ls].tolist()))
    return JointTable(pattern1, pattern2, n, counts)


def first_divergence(
    pattern1: MeshPattern, pattern2: MeshPattern, max_n: int, *, cap: int | None = None
) -> int | None:
    """Smallest n <= max_n where the two distributions differ, else None.

    ``max_n`` is checked against the cap before any table is built.
    """
    if cap is None:
        cap = max_n
    check_cap(max_n, cap)
    for n in range(max_n + 1):
        # each pattern's distribution is a marginal of the joint histogram
        joint = _histogram((pattern1, pattern2), n)
        if _counts(joint.sum(axis=1)) != _counts(joint.sum(axis=0)):
            return n
    return None


def avoidance_sequence(pattern: MeshPattern, max_n: int, *, cap: int | None = None) -> list[int]:
    """Number of pattern-avoiding permutations of S_n for n = 0..max_n.

    ``max_n`` is checked against the cap before any table is built.
    """
    if cap is None:
        cap = max_n
    check_cap(max_n, cap)
    return [distribution(pattern, n, cap=cap).counts.get(0, 0) for n in range(max_n + 1)]


# ---------------------------------------------------------------------------
# symmetric-shading scan


_SCAN_PAIR = ((1, 2, 3), (1, 3, 2))


@dataclasses.dataclass(frozen=True)
class ScanResult:
    """Verdict for one shading R: does (123, R) ~ (132, R) up to max_n?"""

    shading: ShadingSet
    max_n: int
    first_divergence_n: int | None

    @property
    def equidistributed(self) -> bool:
        return self.first_divergence_n is None

    def to_json(self) -> dict:
        from .mesh import boxes_literal

        return {
            "shading": boxes_literal(self.shading),
            "verdict": "equidistributed" if self.equidistributed else "diverges",
            "first_divergence_n": self.first_divergence_n,
        }


def _scan_block(task: tuple[int, int | None, tuple[int, ...]]) -> np.ndarray:
    """Histogram the counts of (123, R) and (132, R) over one block's share of S_n.

    Returns a ``(2 * len(masks), C(n, 3) + 1)`` array: row 2i is the
    histogram of (123, R) for R = ``masks[i]``, row 2i + 1 that of
    (132, R), the two marginals of the pair's joint histogram.  The hosts
    are both permutations of each inverse pair whose representative lies
    in the block, the rows of :func:`meshperm.engine.inverse_pair_block`,
    so the blocks of :func:`meshperm.engine.blocks` sum to S_n.  As in
    :func:`_histogram`, a pair adds fixed + others(P) + others(P'): 123
    and 132 are involutions, so the inverse of (tau, R) is (tau, R^T),
    and the hosts p^-1 are binned from the others of R^T, R itself when R
    is symmetric.

    Each group of shadings that :func:`meshperm.engine.occurrence_counts`
    yields is binned by one :func:`_bins`, which keeps the marginals of
    each counted shading.  The block's table is built here and dropped on
    return: the scan reads it once, so caching it would keep every block
    of every n alive.
    """
    n, first, masks = task
    planes = engine.build_tables(n, 3, first, inverse_pairs=True)
    _, involutions = engine.inverse_pair_counts(n, first)
    counted, inverse = _scan_plan(masks)
    width = math.comb(n, 3) + 1
    marginals = []
    for counts in engine.occurrence_counts(n, planes, _SCAN_PAIR, counted):
        joint = _bins((counts[:, 0], counts[:, 1]), (width, width), involutions)
        marginals.append(np.stack([joint.sum(axis=3), joint.sum(axis=2)], axis=2))
    # per counted shading, the histograms of 123 and 132 over the other rows and over the involutions
    others, fixed = np.concatenate(marginals, axis=1)
    m = len(masks)
    return (fixed[:m] + others[:m] + others[inverse]).reshape(2 * m, width)


@functools.lru_cache(maxsize=1)
def _scan_plan(masks: tuple[int, ...]) -> tuple[tuple[int, ...], list[int]]:
    """``(counted, inverse)`` of :func:`_scan_block` for the distinct masks.

    ``counted`` lists the shadings R under which to count 123 and 132: the
    masks, then each R^T of a mask that is not among them.  ``inverse[i]``
    is the place of ``masks[i]``'s transpose among the counted shadings, i
    for a symmetric R.  Every block of an n scans the same masks, so they
    are planned once per n.
    """
    counted: dict[int, int] = {}
    for mask in (*masks, *map(_transposed, masks)):
        counted.setdefault(mask, len(counted))
    return tuple(counted), [counted[_transposed(mask)] for mask in masks]


def _transposed(mask: int) -> int:
    """The mask of R^T for a length-3 shading mask R.  Box (i, j) is bit
    4i + j, so R^T swaps bits 4i + j and 4j + i: within each 2 x 2 corner
    of the 4 x 4 grid first, and then the two corners off the diagonal.

    This is :meth:`meshperm.mesh.ShadingSet.transposed` on masks, which
    goes through box tuples: for the 1024 masks that the scan plans at
    n = 4 that took 3.3 ms against 0.14 ms here, about 2% of a 0.15 s
    ``scan --max-n 9 --long`` (2-core Xeon)."""
    t = (mask ^ mask >> 3) & 0x0A0A
    mask ^= t ^ t << 3
    t = (mask ^ mask >> 6) & 0x00CC
    return mask ^ t ^ t << 6


def _pair_histograms(n: int, masks: tuple[int, ...], jobs: int) -> np.ndarray:
    """:func:`_scan_block`'s histograms of the masks, summed over the blocks of S_n."""
    tasks = [(n, first, masks) for first in engine.blocks(n)]
    if jobs > 1 and len(tasks) > 1:
        # imported here, so that a process that never fans out does not load the pool
        from concurrent.futures import ProcessPoolExecutor

        # the pool forks all its workers at once, so never more than there are tasks
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            return sum(pool.map(_scan_block, tasks))
    return sum(_scan_block(t) for t in tasks)


#: The first n at which some (123, R) and (132, R) can differ: below 3
#: neither occurs, and at 3 the one combo of a host has no other point, so
#: R is never read and 123 and 132 each occur in one host.
_SCAN_FROM = 4


def scan_symmetric_pairs(
    max_n: int = DEFAULT_MAX_N, *, jobs: int = 1, long_running: bool = False
) -> list[ScanResult]:
    """Test every inverse-symmetric shading R of length 3 for (123, R) ~ (132, R).

    Returns one :class:`ScanResult` per shading, ordered by shading mask.
    The sizes below ``_SCAN_FROM`` cannot separate a pair and are skipped.
    Sizes at or beyond 9 multiply the runtime by orders of magnitude and must
    be requested with ``long_running=True``.
    """
    if max_n >= LONG_RUN_THRESHOLD and not long_running:
        raise CapExceededError(
            f"scanning to n = {max_n} is a long run; pass long_running=True to confirm"
        )
    if max_n > HARD_ENUMERATION_CAP:
        raise CapExceededError(f"scan cannot exceed n = {HARD_ENUMERATION_CAP}")
    shadings = symmetric_shadings(3)
    diverged: dict[int, int] = {}
    for n in range(_SCAN_FROM, max_n + 1):
        pending = tuple(s.mask for s in shadings if s.mask not in diverged)
        if not pending:
            break
        hists = _pair_histograms(n, pending, jobs)
        differ = (hists[0::2] != hists[1::2]).any(axis=1)
        diverged.update((mask, n) for mask, d in zip(pending, differ.tolist()) if d)
    return [ScanResult(s, max_n, diverged.get(s.mask)) for s in shadings]


# ---------------------------------------------------------------------------
# reference sequences


def catalan(n: int) -> int:
    """The n-th Catalan number: 1, 1, 2, 5, 14, ...

    >>> [catalan(n) for n in range(6)]
    [1, 1, 2, 5, 14, 42]
    """
    return math.comb(2 * n, n) // (n + 1)


def bell(n: int) -> int:
    """The n-th Bell number: 1, 1, 2, 5, 15, 52, ...

    >>> [bell(n) for n in range(6)]
    [1, 1, 2, 5, 15, 52]
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def stirling_first_kind(n: int, k: int) -> int:
    """Permutations of S_n with exactly k + 1 left-to-right minima.

    The row (T(n, k)) for k = 0..n-1 sums to n!, with T(n, 0) = (n-1)! and
    T(n, k) = T(n-1, k-1) + (n-1) T(n-1, k) for n >= 2.

    >>> [stirling_first_kind(4, k) for k in range(4)]
    [6, 11, 6, 1]
    """
    if n < 0 or k < 0:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    if k > n - 1:
        return 0
    row = [1]
    for m in range(2, n + 1):
        row = [(row[j - 1] if j >= 1 else 0) + (m - 1) * (row[j] if j < len(row) else 0) for j in range(m)]
    return row[k]
