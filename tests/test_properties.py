"""Property-based tests for the core invariants."""

from hypothesis import given, strategies as st

from meshperm.bijections import transform_for
from meshperm.catalog import load_catalog
from meshperm.mesh import (
    MeshPattern,
    ShadingSet,
    boxes_literal,
    count_occurrences,
    is_occurrence,
    occurrence_box_mask,
    parse_boxes,
    transform_pattern,
)
from meshperm.perms import (
    as_perm,
    complement,
    complement_on_set,
    inverse,
    lex_rank,
    reverse,
    standardize,
)

perms = st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.permutations(tuple(range(1, n + 1)))
)
taus = st.sampled_from(((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)))
box_sets = st.frozensets(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=16
)
patterns = st.builds(lambda tau, boxes: MeshPattern.of(tau, boxes), taus, box_sets)

PROVED = tuple(e for e in load_catalog() if e.family is not None)


@given(perms)
def test_elementary_symmetries_are_involutions(p):
    p = as_perm(p)
    assert reverse(reverse(p)) == p
    assert complement(complement(p)) == p
    assert inverse(inverse(p)) == p


@given(perms)
def test_reverse_and_complement_commute(p):
    p = as_perm(p)
    assert reverse(complement(p)) == complement(reverse(p))


@given(st.lists(st.integers(-50, 50), unique=True, max_size=8))
def test_standardize_idempotent(values):
    s = standardize(tuple(values))
    assert as_perm(s) == s
    assert standardize(s) == s


@given(perms, st.data())
def test_complement_on_set_is_involutive(p, data):
    p = as_perm(p)
    subset = data.draw(st.frozensets(st.sampled_from(sorted(p)), max_size=len(p))) if p else frozenset()
    once = complement_on_set(p, subset)
    assert sorted(once) == sorted(p)
    assert complement_on_set(once, subset) == p


@given(perms, patterns, st.sampled_from(("reverse", "complement", "inverse")))
def test_symmetry_conjugation(p, pattern, symmetry):
    host = as_perm(p)
    moved = {"reverse": reverse, "complement": complement, "inverse": inverse}[symmetry](host)
    assert count_occurrences(host, pattern) == count_occurrences(
        moved, transform_pattern(pattern, symmetry)
    )


@given(perms, taus, box_sets, box_sets)
def test_shading_monotonicity(p, tau, boxes_small, boxes_extra):
    host = as_perm(p)
    small = MeshPattern.of(tau, boxes_small)
    large = MeshPattern.of(tau, set(boxes_small) | set(boxes_extra))
    assert count_occurrences(host, large) <= count_occurrences(host, small)


@given(perms, patterns, st.data())
def test_occurrence_mask_equivalence(p, pattern, data):
    host = as_perm(p)
    if len(host) < 3:
        return
    positions = tuple(sorted(data.draw(st.frozensets(st.integers(1, len(host)), min_size=3, max_size=3))))
    sub = tuple(host[q - 1] for q in positions)
    expected = standardize(sub) == pattern.tau and occurrence_box_mask(
        host, positions
    ).disjoint_from(pattern.shading)
    assert is_occurrence(host, pattern, positions) == expected


@given(perms)
def test_lex_rank_sorts_like_tuples(p):
    host = as_perm(p)
    assert 0 <= lex_rank(host)
    assert lex_rank(tuple(range(1, len(host) + 1))) == 0


@given(box_sets)
def test_shading_round_trips(boxes):
    shading = ShadingSet.from_boxes(3, boxes)
    assert set(shading.boxes()) == set(boxes)
    assert parse_boxes(boxes_literal(shading), 3) == shading
    assert shading.transposed().transposed() == shading


@given(st.sampled_from(PROVED), perms)
def test_involution_families_self_inverse(entry, p):
    host = as_perm(p)
    f = transform_for(entry.family, entry.patterns()[0].shading)
    assert f(f(host)) == host


@given(st.sampled_from(PROVED), perms)
def test_proved_transforms_swap_counts(entry, p):
    host = as_perm(p)
    p1, p2 = entry.patterns()
    f = transform_for(entry.family, p1.shading)
    image = f(host)
    assert sorted(image) == sorted(host)
    assert (count_occurrences(host, p1), count_occurrences(host, p2)) == (
        count_occurrences(image, p2),
        count_occurrences(image, p1),
    )
