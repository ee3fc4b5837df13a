"""The shipped catalog of shading pairs and their verification status.

Entries pair two mesh patterns that are claimed (or refuted) to be
equidistributed.  Tables "1" through "6" hold the proved inverse-symmetric
shadings of the pair 123/132, table "7" the conjectured ones, table "8" the
proved shadings that are not inverse-symmetric, table "R" shadings whose
equidistribution fails, and table "aux" the supporting length-2 pairs.
Proved entries carry the family record that :func:`meshperm.bijections.apply_family`
dispatches on.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib.resources
import json

from . import bijections
from .mesh import Box, MeshPattern, ShadingSet, is_antidiagonal_symmetric
from .perms import as_perm

STATUSES = ("proved", "conjectured", "refuted", "nonsymmetric-proved", "auxiliary")

_SYMMETRIC_TABLES = ("1", "2", "3", "5", "6", "7")
_TABLE_SIZES = {"1": 12, "2": 6, "3": 4, "5": 23, "6": 30, "7": 18, "8": 36}
_TABLE_STATUS = {
    "1": "proved",
    "2": "proved",
    "3": "proved",
    "5": "proved",
    "6": "proved",
    "7": "conjectured",
    "8": "nonsymmetric-proved",
    "R": "refuted",
    "aux": "auxiliary",
}
PROVED_SYMMETRIC_COUNT = 75
CONJECTURED_COUNT = 18


@dataclasses.dataclass(frozen=True)
class CatalogEntry:
    """One catalogued pair of mesh patterns sharing a shading.

    ``boxes2`` is set only when the second pattern is shaded differently
    from the first.  ``first_divergence_n`` is recorded for refuted entries.
    """

    id: int
    table: str
    tau_pair: tuple[str, str]
    boxes: tuple[Box, ...]
    status: str
    family: dict | None = None
    notes: str = ""
    first_divergence_n: int | None = None
    boxes2: tuple[Box, ...] | None = None

    def patterns(self) -> tuple[MeshPattern, MeshPattern]:
        tau1 = as_perm(int(c) for c in self.tau_pair[0])
        tau2 = as_perm(int(c) for c in self.tau_pair[1])
        shading1 = ShadingSet.from_boxes(len(tau1), self.boxes)
        shading2 = (
            ShadingSet.from_boxes(len(tau2), self.boxes2)
            if self.boxes2 is not None
            else ShadingSet.from_boxes(len(tau2), self.boxes)
        )
        return MeshPattern(tau1, shading1), MeshPattern(tau2, shading2)


def _parse_entry(record: dict) -> CatalogEntry:
    return CatalogEntry(
        id=record["id"],
        table=record["table"],
        tau_pair=tuple(record["tau_pair"]),
        boxes=tuple(tuple(b) for b in record["boxes"]),
        status=record["status"],
        family=record.get("family"),
        notes=record.get("notes", ""),
        first_divergence_n=record.get("first_divergence_n"),
        boxes2=tuple(tuple(b) for b in record["boxes2"]) if record.get("boxes2") else None,
    )


@functools.lru_cache(maxsize=1)
def load_catalog() -> tuple[CatalogEntry, ...]:
    """All catalog entries, in file order."""
    text = importlib.resources.files("meshperm").joinpath("data/catalog.jsonl").read_text()
    return tuple(_parse_entry(json.loads(line)) for line in text.splitlines() if line.strip())


def entry_by_id(entry_id: int) -> CatalogEntry:
    for entry in load_catalog():
        if entry.id == entry_id:
            return entry
    raise KeyError(f"no catalog entry with id {entry_id}")


def validate_catalog(entries: tuple[CatalogEntry, ...] | None = None) -> list[str]:
    """Structural validation; returns a list of problems (empty when valid)."""
    if entries is None:
        entries = load_catalog()
    problems: list[str] = []

    seen_ids: set[int] = set()
    for e in entries:
        where = f"entry {e.id}"
        if e.id in seen_ids:
            problems.append(f"{where}: duplicate id")
        seen_ids.add(e.id)
        if e.status not in STATUSES:
            problems.append(f"{where}: unknown status {e.status!r}")
        if e.table not in _TABLE_STATUS:
            problems.append(f"{where}: unknown table {e.table!r}")
        elif e.status != _TABLE_STATUS[e.table]:
            problems.append(f"{where}: table {e.table} entries must be {_TABLE_STATUS[e.table]}")
        try:
            p1, p2 = e.patterns()
        except ValueError as exc:
            problems.append(f"{where}: malformed patterns ({exc})")
            continue
        if len(e.boxes) != len(set(e.boxes)):
            problems.append(f"{where}: repeated boxes")
        if len(p1) != len(p2):
            problems.append(f"{where}: pattern lengths differ")
        if e.table in _SYMMETRIC_TABLES + ("R",) and e.tau_pair != ("123", "132"):
            problems.append(f"{where}: expected the pair 123/132")
        if e.table in _SYMMETRIC_TABLES and not is_antidiagonal_symmetric(p1.shading):
            problems.append(f"{where}: shading is not inverse-symmetric")
        if e.table == "8" and is_antidiagonal_symmetric(p1.shading):
            problems.append(f"{where}: inverse-symmetric shading does not belong in table 8")
        if e.status in ("proved", "nonsymmetric-proved"):
            if e.family is None:
                problems.append(f"{where}: proved entry lacks a bijection family")
            else:
                try:
                    bijections.transform_for(e.family, p1.shading)
                except (ValueError, KeyError) as exc:
                    problems.append(f"{where}: family does not accept the shading ({exc})")
        elif e.family is not None:
            problems.append(f"{where}: {e.status} entry must not carry a family")
        if e.status == "refuted" and e.first_divergence_n is None:
            problems.append(f"{where}: refuted entry lacks first_divergence_n")

    symmetric_ids = sorted(e.id for e in entries if e.table in _SYMMETRIC_TABLES)
    if symmetric_ids != list(range(1, 94)):
        problems.append("tables 1-7 must carry exactly the ids 1..93")
    for table, size in _TABLE_SIZES.items():
        have = sum(1 for e in entries if e.table == table)
        if have != size:
            problems.append(f"table {table} has {have} entries, expected {size}")
    proved = sum(1 for e in entries if e.status == "proved")
    if proved != PROVED_SYMMETRIC_COUNT:
        problems.append(f"{proved} proved symmetric entries, expected {PROVED_SYMMETRIC_COUNT}")
    conjectured = sum(1 for e in entries if e.status == "conjectured")
    if conjectured != CONJECTURED_COUNT:
        problems.append(f"{conjectured} conjectured entries, expected {CONJECTURED_COUNT}")
    return problems
