"""Permutations in one-line notation and the elementary operations on them.

A permutation of size n is a tuple containing each of 1..n exactly once.
Functions that only depend on relative order (``standardize``, the minima
and maxima scans) accept any sequence of distinct integers.  Positions are
1-based throughout.
"""
from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence

Perm = tuple[int, ...]

#: Largest n for which full S_n enumeration is allowed.
HARD_ENUMERATION_CAP = 10


class CapExceededError(ValueError):
    """Raised when a request would enumerate beyond a size cap: the hard
    cap here, or the active cap of :mod:`meshperm.distribution`."""


def is_perm(values: Sequence[int]) -> bool:
    """Return True if ``values`` contains each of 1..len(values) exactly once.

    >>> is_perm((2, 1, 3)), is_perm((1, 1, 2)), is_perm((0, 1))
    (True, False, False)
    """
    n = len(values)
    seen = 0
    for v in values:
        if not 1 <= v <= n:
            return False
        bit = 1 << v
        if seen & bit:
            return False
        seen |= bit
    return True


def as_perm(values: Iterable[int]) -> Perm:
    """Validate ``values`` as a permutation of 1..n and return it as a tuple."""
    p = tuple(int(v) for v in values)
    if not is_perm(p):
        raise ValueError(f"not a permutation of 1..{len(p)}: {p!r}")
    return p


def reverse(p: Sequence[int]) -> Perm:
    """Reverse the positions: (4,1,3,2) -> (2,3,1,4)."""
    return tuple(reversed(p))


def complement(p: Sequence[int]) -> Perm:
    """Flip the values: v -> n+1-v at every position.

    >>> complement((2, 4, 1, 3))
    (3, 1, 4, 2)
    """
    n = len(p)
    return tuple(n + 1 - v for v in p)


def inverse(p: Sequence[int]) -> Perm:
    """Return the group-theoretic inverse.

    >>> inverse((3, 1, 2))
    (2, 3, 1)
    """
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


def complement_on_set(p: Sequence[int], values: Iterable[int]) -> Perm:
    """Complement only the entries whose value lies in ``values``.

    Positions are untouched; within the chosen value set the l-th smallest
    value is replaced by the l-th largest.

    >>> complement_on_set((2, 4, 3, 5), (2, 3, 4, 5))
    (5, 3, 4, 2)
    >>> complement_on_set((7, 8, 6, 4, 3), (3, 4, 6, 7, 8))
    (4, 3, 6, 7, 8)
    """
    chosen = sorted(set(values))
    present = set(p)
    if not set(chosen) <= present:
        raise ValueError("complement_on_set: values not all present in the permutation")
    swap = {v: w for v, w in zip(chosen, reversed(chosen))}
    return tuple(swap.get(v, v) for v in p)


def left_to_right_minima(p: Sequence[int]) -> tuple[int, ...]:
    """Positions (1-based, increasing) of the left-to-right minima.

    >>> left_to_right_minima((4, 2, 6, 1, 5, 3))
    (1, 2, 4)
    """
    out = []
    cur = len(p) + 1
    for i, v in enumerate(p, 1):
        if v < cur:
            out.append(i)
            cur = v
    return tuple(out)


def right_to_left_maxima(p: Sequence[int]) -> tuple[int, ...]:
    """Positions (1-based, increasing) of the right-to-left maxima.

    >>> right_to_left_maxima((4, 2, 6, 1, 5, 3))
    (3, 5, 6)
    """
    out = []
    cur = 0
    for i in range(len(p), 0, -1):
        if p[i - 1] > cur:
            out.append(i)
            cur = p[i - 1]
    return tuple(reversed(out))


def standardize(seq: Sequence[int]) -> Perm:
    """Replace each entry by its rank, giving a permutation of 1..len(seq).

    >>> standardize((9, 2, 7))
    (3, 1, 2)
    """
    order = sorted(seq)
    rank = {v: r for r, v in enumerate(order, 1)}
    if len(rank) != len(seq):
        raise ValueError("standardize requires distinct entries")
    return tuple(rank[v] for v in seq)


def enumerate_sn(n: int) -> Iterator[Perm]:
    """Yield S_n in lexicographic order.

    Enumeration beyond n = HARD_ENUMERATION_CAP is refused.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > HARD_ENUMERATION_CAP:
        raise CapExceededError(f"refusing to enumerate S_{n} (> {HARD_ENUMERATION_CAP})")
    yield from itertools.permutations(range(1, n + 1))


def lex_rank(p: Sequence[int]) -> int:
    """0-based rank of ``p`` in the lexicographic ordering of S_n.

    >>> [lex_rank(q) for q in enumerate_sn(3)]
    [0, 1, 2, 3, 4, 5]
    """
    n = len(p)
    fact = 1
    facts = [1] * n
    for i in range(1, n):
        fact *= i
        facts[i] = fact
    rank = 0
    for i, v in enumerate(p):
        smaller = sum(1 for w in p[i + 1 :] if w < v)
        rank += smaller * facts[n - 1 - i]
    return rank


def parse_perm(text: str) -> Perm:
    """Parse a comma-separated one-line permutation like ``"9,11,4,12"``."""
    parts = [s.strip() for s in text.split(",") if s.strip()]
    if not parts:
        raise ValueError("empty permutation literal")
    try:
        return as_perm(int(s) for s in parts)
    except ValueError as exc:
        raise ValueError(f"bad permutation literal {text!r}: {exc}") from None


def format_perm(p: Sequence[int]) -> str:
    """Inverse of :func:`parse_perm`."""
    return ",".join(str(v) for v in p)
