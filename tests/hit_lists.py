"""Occurrence lists read from the engine's tables, for tests that walk hosts.

:func:`meshperm.engine.pair_hits` gives the occurrences of a pair as bits,
and the per-host maps take lists; ``test_bijections`` pins these lists
against the pure-Python finder.
"""
import itertools

import numpy as np

from meshperm import engine
from meshperm.bijections import FAMILIES


def hit_lists(n, shading, first=None):
    """Entry r lists the 1-based position triples, in lexicographic order,
    whose bits :func:`meshperm.engine.pair_hits` sets in the row of the
    block's rank-r host."""
    combos = list(itertools.combinations(range(n), 3))
    words = engine.pair_hits(n, shading, first)
    hit = np.unpackbits(np.ascontiguousarray(words.T, dtype="<u4").view(np.uint8),
                        axis=1, count=len(combos), bitorder="little")
    triples = [(a + 1, b + 1, c + 1) for a, b, c in combos]
    return [[triples[c] for c in np.flatnonzero(row)] for row in hit]


def table_provider(n, shading, first=None):
    """An occurrence provider, as the per-host maps take one, for the hosts
    of one block under ``shading``, answering from :func:`hit_lists`."""
    lists = dict(zip(map(tuple, engine.perm_block(n, first).tolist()), hit_lists(n, shading, first)))

    def provider(host, asked):
        if asked != shading:
            raise ValueError(f"this provider answers for {shading.boxes()}, not {asked.boxes()}")
        return lists[tuple(host)]
    return provider


def table_transform(name, n, shading, first=None):
    """The per-host map of the registry row ``name`` under ``shading``, its
    ``transform(p, shading, provider)`` with :func:`table_provider` of one
    block; unlike ``transform_for``, it checks no accept rule."""
    family = next(family for family in FAMILIES if family.name == name)
    provider = table_provider(n, shading, first)
    return lambda p: family.transform(p, shading, provider)
