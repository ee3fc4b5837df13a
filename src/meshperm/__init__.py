"""Exact mesh-pattern statistics on permutations.

The package counts occurrences of mesh patterns, compares occurrence-count
distributions, ships a catalog of shading pairs for the patterns 123 and
132, and implements the bijection families that prove the catalogued
equidistributions, together with exhaustive verification of those claims.
"""
from .bijections import (
    FAMILY_NAMES,
    INVOLUTION_FAMILIES,
    UnsupportedShadingError,
    VerificationReport,
    apply_family,
    transform_for,
    verify_entry,
    verify_pair,
)
from .catalog import CatalogEntry, entry_by_id, load_catalog, validate_catalog
from .distribution import (
    CapExceededError,
    DistributionTable,
    JointTable,
    ScanResult,
    avoidance_sequence,
    bell,
    catalan,
    distribution,
    first_divergence,
    joint_distribution,
    scan_symmetric_pairs,
    stirling_first_kind,
)
from .mesh import (
    MeshPattern,
    ShadingSet,
    avoids,
    count_occurrences,
    is_antidiagonal_symmetric,
    is_occurrence,
    occurrence_box_mask,
    occurrences,
    parse_pattern,
    pattern_literal,
    symmetric_shadings,
    transform_pattern,
)
from .perms import (
    Perm,
    as_perm,
    complement,
    complement_on_set,
    enumerate_sn,
    inverse,
    left_to_right_minima,
    reverse,
    right_to_left_maxima,
    standardize,
)

__version__ = "0.1.0"
