"""Occurrence-count distributions, equidistribution tests, and the
symmetric-shading scan.

Two mesh patterns are equidistributed at size n when they have the same
number of hosts in S_n for every occurrence count; the scan hunts for the
smallest n at which paired shadings of 123 and 132 stop being
equidistributed.  Exhaustive enumeration is guarded by a size cap: the
default is 8, the MESHPERM_MAX_N environment variable raises it, and the
hard ceiling of the enumeration layer still applies.
"""
from __future__ import annotations

import dataclasses
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import engine
from .mesh import MeshPattern, ShadingSet, count_occurrences, symmetric_shadings
from .perms import HARD_ENUMERATION_CAP, enumerate_sn

DEFAULT_MAX_N = 8

#: n at which the scan switches to the long-running code path.
LONG_RUN_THRESHOLD = 9


class CapExceededError(ValueError):
    """Raised when a request would enumerate beyond the active size cap."""


def effective_cap() -> int:
    """The active size cap: MESHPERM_MAX_N if set, else the default of 8."""
    raw = os.environ.get("MESHPERM_MAX_N")
    if raw is None:
        return DEFAULT_MAX_N
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"MESHPERM_MAX_N must be an integer, got {raw!r}") from None
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
    """Occurrence-count distribution of ``pattern`` over all of S_n."""
    check_cap(n, cap)
    counts: Counter[int] = Counter()
    if len(pattern) in engine.SUPPORTED_LENGTHS:
        for first in engine.blocks(n):
            _tally(counts, engine.count_vector(n, pattern, first))
    else:
        for p in enumerate_sn(n):
            counts[count_occurrences(p, pattern)] += 1
    return DistributionTable(pattern, n, dict(counts))


def _tally(counts: Counter[int], vec: np.ndarray) -> None:
    """Add the histogram of the count vector ``vec`` to ``counts``."""
    for k, c in enumerate(np.bincount(vec)):
        if c:
            counts[k] += int(c)


def _both_supported(pattern1: MeshPattern, pattern2: MeshPattern) -> bool:
    return len(pattern1) in engine.SUPPORTED_LENGTHS and len(pattern2) in engine.SUPPORTED_LENGTHS


def joint_distribution(
    pattern1: MeshPattern, pattern2: MeshPattern, n: int, *, cap: int | None = None
) -> JointTable:
    """Joint distribution of the two patterns' occurrence counts over S_n."""
    check_cap(n, cap)
    counts: Counter[tuple[int, int]] = Counter()
    if _both_supported(pattern1, pattern2):
        width = engine.max_occurrences(n, len(pattern2)) + 1
        for first in engine.blocks(n):
            v1, v2 = engine.count_vectors(n, (pattern1, pattern2), first)
            flat = np.bincount(v1 * width + v2)
            for code in np.nonzero(flat)[0]:
                counts[(int(code) // width, int(code) % width)] += int(flat[code])
    else:
        for p in enumerate_sn(n):
            counts[(count_occurrences(p, pattern1), count_occurrences(p, pattern2))] += 1
    return JointTable(pattern1, pattern2, n, dict(counts))


def first_divergence(
    pattern1: MeshPattern, pattern2: MeshPattern, max_n: int, *, cap: int | None = None
) -> int | None:
    """Smallest n <= max_n where the two distributions differ, else None."""
    if cap is None:
        cap = max_n
    for n in range(max_n + 1):
        counts1, counts2 = _distributions(pattern1, pattern2, n, cap)
        if counts1 != counts2:
            return n
    return None


def _distributions(pattern1: MeshPattern, pattern2: MeshPattern, n: int, cap: int) -> tuple[dict, dict]:
    """Both patterns' distributions over S_n, as :attr:`DistributionTable.counts`;
    where the engine counts both, one count per block serves the pair."""
    if not _both_supported(pattern1, pattern2):
        return distribution(pattern1, n, cap=cap).counts, distribution(pattern2, n, cap=cap).counts
    check_cap(n, cap)
    counts: tuple[Counter[int], Counter[int]] = (Counter(), Counter())
    for first in engine.blocks(n):
        for tally, vec in zip(counts, engine.count_vectors(n, (pattern1, pattern2), first)):
            _tally(tally, vec)
    return counts


def avoidance_sequence(pattern: MeshPattern, max_n: int, *, cap: int | None = None) -> list[int]:
    """Number of pattern-avoiding permutations of S_n for n = 0..max_n."""
    if cap is None:
        cap = max_n
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


def _scan_block(task: tuple[int, int | None, tuple[int, ...]]) -> list[tuple[list[int], list[int]]]:
    """Histogram the counts of (123, R) and (132, R) over one block of S_n.

    The block's table is built here and dropped on return: the scan reads
    it once, so caching it would keep every block of every n alive.
    """
    n, first, masks = task
    width = engine.max_occurrences(n, 3) + 1
    _, planes = engine.build_tables(n, 3, first)
    patterns = [MeshPattern(tau, ShadingSet(3, mask)) for mask in masks for tau in _SCAN_PAIR]
    hists = [np.bincount(vec, minlength=width).tolist() for vec in engine.occurrence_counts(planes, patterns)]
    return list(zip(hists[::2], hists[1::2]))


def _pair_histograms(
    n: int, masks: tuple[int, ...], jobs: int
) -> dict[int, tuple[list[int], list[int]]]:
    if jobs > 1 and n >= 2:
        firsts: tuple[int | None, ...] = tuple(range(1, n + 1))
    else:
        firsts = engine.blocks(n)
    tasks = [(n, first, masks) for first in firsts]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            partials = list(pool.map(_scan_block, tasks))
    else:
        partials = [_scan_block(t) for t in tasks]
    merged: dict[int, tuple[list[int], list[int]]] = {}
    for i, mask in enumerate(masks):
        h1 = [sum(part[i][0][k] for part in partials) for k in range(len(partials[0][i][0]))]
        h2 = [sum(part[i][1][k] for part in partials) for k in range(len(partials[0][i][1]))]
        merged[mask] = (h1, h2)
    return merged


def scan_symmetric_pairs(
    max_n: int = DEFAULT_MAX_N, *, jobs: int = 1, long_running: bool = False
) -> list[ScanResult]:
    """Test every inverse-symmetric shading R of length 3 for (123, R) ~ (132, R).

    Returns one :class:`ScanResult` per shading, ordered by shading mask.
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
    for n in range(1, max_n + 1):
        pending = tuple(s.mask for s in shadings if s.mask not in diverged)
        if not pending:
            break
        hists = _pair_histograms(n, pending, jobs)
        for mask in pending:
            h1, h2 = hists[mask]
            if h1 != h2:
                diverged[mask] = n
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
