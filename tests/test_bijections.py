"""Unit and regression tests for the count-swapping bijection families."""

import hashlib
import itertools
import random

import numpy as np
import pytest

import meshperm
from meshperm import bijections as bj
from meshperm import engine, mesh
from meshperm.bijections import (
    FAMILIES,
    FAMILY_NAMES,
    INVOLUTION_FAMILIES,
    UnsupportedShadingError,
    VerificationReport,
    apply_family,
    transform_for,
    verify_entry,
    verify_pair,
)
from meshperm.catalog import entry_by_id, load_catalog
from meshperm.mesh import ShadingSet, count_occurrences
from meshperm.perms import enumerate_sn, left_to_right_minima

from hit_lists import hit_lists, table_provider, table_transform


def pair_counts(host, entry):
    p1, p2 = entry.patterns()
    return count_occurrences(host, p1), count_occurrences(host, p2)


def test_family_registry():
    assert FAMILY_NAMES == (
        "direct",
        "oth1",
        "complement_after_one",
        "len2_reduction",
        "ltr_interval_complement",
        "per_interval_len2",
        "pair_swap",
        "a1_complement",
        "nine_box",
        "per_interval_nine_box",
    )
    assert INVOLUTION_FAMILIES == frozenset(FAMILY_NAMES)


def test_family_names_are_exported():
    assert meshperm.FAMILY_NAMES == FAMILY_NAMES


def test_accepted_shadings_per_family_and_length():
    # Counts over every shading of length 2 and 3.  The length-3 families
    # accept no length-2 shading, and len2_reduction accepts only its eight
    # length-2 frames.  direct accepts every length-3 shading: its block sweep
    # reads the occurrences of whichever shading it is handed.
    expected = {
        "direct": (0, 1 << 16),
        "oth1": (0, 1),
        "complement_after_one": (0, 64),
        "len2_reduction": (8, 8),
        "ltr_interval_complement": (0, 16),
        "per_interval_len2": (0, 8),
        "pair_swap": (0, 2),
        "a1_complement": (0, 4),
        "nine_box": (0, 96),
        "per_interval_nine_box": (0, 2),
    }
    shadings = {k: [ShadingSet(k, m) for m in range(1 << (k + 1) ** 2)] for k in (2, 3)}
    counts = {
        family.name: tuple(sum(map(family.accepts, shadings[k])) for k in (2, 3))
        for family in FAMILIES
    }
    assert counts == expected
    # transform_for refuses at once, before any host is transformed.
    with pytest.raises(UnsupportedShadingError):
        transform_for({"name": "len2_reduction"}, ShadingSet(2, 0))


def test_direct_transform_examples():
    for eid, host, image in (
        (2, (1, 2, 3, 5, 4), (1, 3, 2, 5, 4)),
        (4, (1, 2, 3, 4), (1, 4, 3, 2)),
        (9, (2, 1, 3, 4), (2, 1, 4, 3)),
        (6, (3, 2, 1), (3, 2, 1)),
        (6, (1, 2, 3), (1, 3, 2)),
    ):
        assert apply_family(entry_by_id(eid), host) == image, (eid, host)


# sha256 of the little-endian int64 ranks in S_7 of the images of S_7, in
# rank order, for the five families that share the block sweep.  For direct
# (1-11), oth1 (12) and pair_swap (39, 44) these are the images of the
# earlier per-pair rules, one per pair id (entries 9-11 share one); for
# nine_box (46-73, 105-136) and per_interval_nine_box (74, 75) those of the
# sweep with union-find grouping.
BLOCK_SWEEP_DIGESTS_S7 = {
    1: "0e0b87c6b1d6c5de039d71ea8b443cb5d9f5249b2bca447f7c4e9fdf8ef9820b",
    2: "3dcfa92fc823b06af4056310d41bd1b71dfd178c3e04268423ec9d9534d1f7ad",
    3: "44e38d738739eb2434df6168d94c9fe2a9d9588cda06fe06827e7b508aa9e8b8",
    4: "c9b41e9fb63ed132b59033e7b3cae53a3794d654bb824bc6a5db90896e747304",
    5: "5c9e4f3f50850358287c3dae95449b82b4c0922e6f2a49aa7dce452a480c4393",
    6: "6b8fceb2ebd1769559dea3d3b95f84c7b9c3343b7177e1167d6dd44a83e84bb5",
    7: "af3f75f8f9dbbe598b8f285a89543c9d1b1f9f24ded7e2d7431872bc6816778d",
    8: "d16fab7db88d87f797c138578c1565dcb0deb6740c4f750d4546bc542a671809",
    9: "f07aa541fc999efdd288d8d9c490ef76eb5d3be27e9b6dcbb14eabdfc0a3fcf7",
    10: "f07aa541fc999efdd288d8d9c490ef76eb5d3be27e9b6dcbb14eabdfc0a3fcf7",
    11: "f07aa541fc999efdd288d8d9c490ef76eb5d3be27e9b6dcbb14eabdfc0a3fcf7",
    12: "b77705aea12252d51c5a04539d6e5d18f64767689527335b9cc355976e702caf",
    39: "aa63649469070f6c39c0740475ee0d0d4ab582b44f818c34363f51e3214f9657",
    44: "8a5329051028b232a56fa470074dddbc71ab8cff410527e6c1a8c04190588e6d",
    46: "ad642466d657108c85409697f3b7b4acdc0deef72034fd2a8d0d6896f2adf840",
    47: "a8cf9ea05b163c4c2d1c4106cf43f0eca7c20804118bbefd5817e1567a7f3a41",
    48: "04a2204a470f159683f507ac7a876c270ab24788d44ce31ea6d95ae180900e2a",
    49: "c2ee1da97d7d91876819a3ceafc3efa79e858c0b8055094facb075348b179b29",
    50: "16859c68532d8d826316bd82f8bcc1142edf00fb55ade8a048d8d19bbe96817a",
    51: "7e43f894da327cca8a25e9a65bd9b61f863dc0b6dc1684ad3c26b18f0b9a7045",
    52: "e3ca2f788da9b13d0c6978d91d02a70e4ca38742c36e101ac45c0b6b6cb1f264",
    53: "e3ca2f788da9b13d0c6978d91d02a70e4ca38742c36e101ac45c0b6b6cb1f264",
    54: "8f30b5bd303af4809f8baaf5c6b64dd025eac3c4370812e9e9a282eac7129df5",
    55: "dde157ee23cbecc071972e8bfe45a273b583b319673421b85c9494aa30f1c910",
    56: "e3ca2f788da9b13d0c6978d91d02a70e4ca38742c36e101ac45c0b6b6cb1f264",
    57: "feed3c0a6f0267b061bcc4f6445d7dc1603d600149950e38d4d9388e79ca4b3b",
    58: "c61ed9604b6639a81d49653d12497f0a4f13003d6f47a989308b648feb6489fb",
    59: "15cf78ccbbd6f35b9e3b9df6f390d409f1cec0f514e8575ec8771f4ab515bb8e",
    60: "ad642466d657108c85409697f3b7b4acdc0deef72034fd2a8d0d6896f2adf840",
    61: "36c2db42c66aad6325159286cecacb6372a579612df94b0533eb966d741bcf3c",
    62: "3635a77c6f409a77fe2aabf9eb85737aa3c03451639af1541a4ac855a3305e69",
    63: "a4bb2b76cadba9bfd4a4279b163c129360ad451eaf6ec036997def007afe98c9",
    64: "16859c68532d8d826316bd82f8bcc1142edf00fb55ade8a048d8d19bbe96817a",
    65: "9f109f0c3dbfc0899116455e58db1976c7610cb84f626878ed245a94d8d580f5",
    66: "8b0feb40909b336ecae2f8cf3ee0f0aa73063cced0b1e2a9320307b1c47229ad",
    67: "c6e310887941704b93b90b451e47f28e307bbc94530f96fd937d388f2cc26101",
    68: "a9c270b2ffe410a3aa78d00bf142bf63b955d77d0a0ea2329af10599badbd6db",
    69: "a9c270b2ffe410a3aa78d00bf142bf63b955d77d0a0ea2329af10599badbd6db",
    70: "a5f40ac44a657a19dd79c94266d34f13ab021e72428cb8942539f18deee17c45",
    71: "3ecd244b65802d2f4ac749ac16a0350d63693e8aa9011250a1078e864777110a",
    72: "c4b13d4b2715778fb2dffaad0a1c87de575403620f043ce0a6acb0f1aff5da16",
    73: "22a610501280282c48b0d1d5455444fe2d336ef64405279ad91a64085f5a9fcb",
    74: "9062044d636d325d21c9b8b5a764d7400ad35d88bc34ee5b640ec6a9bd34d5aa",
    75: "461f453f62e9ab5cb20b889a926a5e4bfad5b0b7cdc21b786e17db64d685122e",
    105: "e76021c25586386f0bbabcb3b0db0aacbf8f19ddd3ad699cb04c51f456478ba5",
    106: "c3e433e456a879a0a68b27c21c1ed14becbb3caaa8d16059d8a674eb4f6b0c7a",
    107: "fcace8c006fbfe54344019741f1a0fc76ef44873dd7373e8a21709d159aceeb2",
    108: "4ff2dd3728265484d08e2f86f72b557143f60dbedc8f7442e9f66c1b89480c4c",
    109: "a70c5a7bd845893ea7f72bbe3eea252ec84bf9a14cd551952447a6bbbe19b8b7",
    110: "aeab86f695c53ca58f6c4282fba684a0c3b4ed0e09439d228711a126c97e41df",
    111: "d208017d8f6bf59da44bfaded97de64ca9bd9799f99a8ce56dc65d1de379ed90",
    112: "7736475a568a1f45bc5f5707621daaf5fae7ff3dd94bbe576927173baab28d14",
    113: "b7416cc1a6348bd98ae44ba12111f8b837329b5a5e75f6bc8be54452e8b851e0",
    114: "3bbcb8cdf09d5a1286069c88158abbf8192a5ce199dc0c4e3888161cc9a3e896",
    115: "4b687d97965b026a4f3d9d7c9fb9712430cb9f67dbfe1e320087fada57cb41ec",
    116: "f8fc9b156c83c42131f00332b8bfe44ab13417291666bbf04035f7d678e2c4a6",
    117: "e3ca2f788da9b13d0c6978d91d02a70e4ca38742c36e101ac45c0b6b6cb1f264",
    118: "e3ca2f788da9b13d0c6978d91d02a70e4ca38742c36e101ac45c0b6b6cb1f264",
    119: "e3ca2f788da9b13d0c6978d91d02a70e4ca38742c36e101ac45c0b6b6cb1f264",
    120: "db7128b4017742ae28098090813c01e331a927493ddb346c2eaf6d94a10f4b59",
    121: "e76021c25586386f0bbabcb3b0db0aacbf8f19ddd3ad699cb04c51f456478ba5",
    122: "c3e433e456a879a0a68b27c21c1ed14becbb3caaa8d16059d8a674eb4f6b0c7a",
    123: "dff0ae8225eb65f4b7d7d97948548523ec8db8072d04dda1dd81f86a3c480be1",
    124: "0a049d741fb07761e3fff15ed59317070210d77f91b0b16d5d88fdf06d12d27b",
    125: "a70c5a7bd845893ea7f72bbe3eea252ec84bf9a14cd551952447a6bbbe19b8b7",
    126: "aeab86f695c53ca58f6c4282fba684a0c3b4ed0e09439d228711a126c97e41df",
    127: "6849c445a13d11ef292915c8cd68149ce25e9753f077acb1d9b9ce44a01b9d4b",
    128: "ba51c9365fa11484cd8a99291707ca9c8f547ec5dcb867dc56758137dcd445ab",
    129: "b7416cc1a6348bd98ae44ba12111f8b837329b5a5e75f6bc8be54452e8b851e0",
    130: "f9626d4da7eeb3dc37e6e633e47b8c99e31a3656f2a2b7f4d9a033d3b8008869",
    131: "d100925e3136ff69530964e27f47a08b9ef27471c0a5af0ba887b3ba8abfc5d2",
    132: "8ff54c43c6010efb1e554b239696f3c44d8266b142cd5fd240709cdade63415c",
    133: "b695d861935a5d2480ae2099d022899053c0dce761ea52f42cd42010a90b0051",
    134: "b695d861935a5d2480ae2099d022899053c0dce761ea52f42cd42010a90b0051",
    135: "ede50b37b4db860b4c8c000151e8fa670f807d4d99832a03b9f12993d1213eee",
    136: "d6875a1b1ab5db14ec9420888d33fbf0963575ddd2099a88818d473fc9f31537",
}


def test_block_sweep_images_on_s7_match_the_old_maps():
    # the block sweep gives, on every host of S_7 (one block), the image
    # each old map gave, both host by host and as the block map that
    # verify_entry uses
    assert len(BLOCK_SWEEP_DIGESTS_S7) == 76
    for eid, digest in BLOCK_SWEEP_DIGESTS_S7.items():
        entry = entry_by_id(eid)
        shading = entry.patterns()[0].shading
        transform = table_transform(entry.family["name"], 7, shading)
        walked = bj._image_ranks(transform, bj._hosts(7, None), 7)
        mapped = bj._table_ranks(bj._BY_NAME[entry.family["name"]].block_map(7, None, shading))
        for ranks in (walked, mapped):
            assert hashlib.sha256(ranks.astype("<i8").tobytes()).hexdigest() == digest, eid


def host_and_block_images(family, shading, n, first):
    """The images of a block's hosts under a family's per-host map for
    ``shading``, walked on occurrences read from the block's table, and
    under its block map."""
    row = bj._BY_NAME[family]
    provider = table_provider(n, shading, first) if shading.k == 3 else None
    walked = np.array([row.transform(host, shading, provider) for host in bj._hosts(n, first)], dtype=np.int8)
    return walked.reshape(len(engine.perm_block(n, first)), n), row.block_map(n, first, shading)


def test_block_maps_match_the_host_maps_on_small_n():
    # every family's block map maps every host of S_0..S_6 as its per-host
    # definition does: all 111 family entries, and the eight length-2
    # frames of len2_reduction, which no family entry carries
    entries = [e for e in load_catalog() if e.family]
    assert len(entries) == 111
    assert {e.family["name"] for e in entries} == set(FAMILY_NAMES)
    cases = [(e.family["name"], e.patterns()[0].shading, e.id) for e in entries]
    cases += [("len2_reduction", shading, shading.boxes()) for shading in bj._LEN2_FRAMES]
    for family, shading, case in cases:
        for n in range(7):
            walked, mapped = host_and_block_images(family, shading, n, None)
            assert mapped.dtype == np.int8 and mapped.shape == walked.shape, (case, n)
            assert np.array_equal(mapped, walked), (case, n)


@pytest.mark.long_running
def test_long_running_block_sweep_and_closed_form_maps_match_the_host_maps_on_s9(monkeypatch):
    # one entry per family: direct (1), oth1 (12), complement_after_one
    # (13), len2_reduction (19), ltr_interval_complement (23),
    # per_interval_len2 (30), pair_swap (39), a1_complement (41), nine_box
    # (46) and per_interval_nine_box (74), block by block over all of S_9
    # (about 50 s)
    monkeypatch.setenv("MESHPERM_MAX_N", "9")
    entries = [entry_by_id(eid) for eid in (1, 12, 13, 19, 23, 30, 39, 41, 46, 74)]
    assert {e.family["name"] for e in entries} == set(FAMILY_NAMES)
    for entry in entries:
        for first in engine.blocks(9):
            walked, mapped = host_and_block_images(entry.family["name"], entry.patterns()[0].shading, 9, first)
            assert np.array_equal(mapped, walked), (entry.id, first)


def test_len2_block_sweep_matches_sweep_lower_on_every_sequence_to_eight():
    # the descending scan over every row at once, one segment per row,
    # against the sequential sweep
    for m in range(9):
        hosts = engine.perm_block(m)
        for tail_box in (False, True):
            swept = bj._len2_sweep_rows(hosts, np.ones_like(hosts), bj.Frame(False, False, tail_box))
            expected = [bj._sweep_lower(host, tail_box) for host in bj._hosts(m, None)]
            assert swept.tolist() == [list(image) for image in expected], (m, tail_box)


def test_verified_image_reads_the_row_of_the_host_in_its_block():
    # S_9 has one block per first value; hosts from several blocks, some
    # starting with 1, for a block-swept and a closed-form entry and one
    # entry of each of len2_reduction (19), per_interval_len2 (30) and
    # a1_complement (41)
    rng = random.Random(9)
    hosts = [tuple(rng.sample(range(1, 10), 9)) for _ in range(12)]
    hosts += [(1, *rng.sample(range(2, 10), 8)) for _ in range(4)]
    for eid in (46, 23, 19, 30, 41):
        entry = entry_by_id(eid)
        images = [bj.verified_image(entry, host) for host in hosts]
        assert images == [apply_family(entry, host) for host in hosts], eid
        assert images != hosts, eid


def test_block_map_ranks_check_each_row_is_a_permutation():
    images = np.array([[1, 2, 3], [3, 1, 2], [1, 1, 3], [0, 2, 3], [2, 3, 4]], dtype=np.int8)
    assert bj._table_ranks(images).tolist() == [0, 4, -1, -1, -1]


def test_oth1_transform_examples():
    entry = entry_by_id(12)
    host = (10, 7, 8, 5, 9, 4, 2, 6, 1, 3, 11)
    assert apply_family(entry, host) == (10, 7, 9, 5, 6, 4, 2, 3, 1, 8, 11)
    assert apply_family(entry, (3, 2, 1)) == (3, 2, 1)
    assert apply_family(entry, (1, 2, 3)) == (1, 3, 2)
    assert apply_family(entry, ()) == ()


def test_oth1_swaps_counts_on_worked_example():
    entry = entry_by_id(12)
    host = (10, 7, 8, 5, 9, 4, 2, 6, 1, 3, 11)
    image = apply_family(entry, host)
    assert pair_counts(host, entry) == tuple(reversed(pair_counts(image, entry)))


def test_complement_after_one_examples():
    assert bj.complement_after_one((1, 2, 4, 3, 5)) == (1, 5, 3, 4, 2)
    assert bj.complement_after_one((2, 1, 3)) == (2, 1, 3)
    assert bj.complement_after_one((1,)) == (1,)
    assert bj.complement_after_one((3, 1, 2)) == (3, 1, 2)


def test_len2_swap_transform_examples():
    # the length-2 sweep is len2_reduction on a length-2 frame
    plain = transform_for({"name": "len2_reduction"}, entry_by_id(301).patterns()[0].shading)
    tail = transform_for({"name": "len2_reduction"}, entry_by_id(302).patterns()[0].shading)
    host = (9, 5, 8, 7, 4, 6, 1, 3, 2)
    assert tail(host) == (8, 9, 7, 5, 3, 6, 4, 2, 1)
    assert plain((1, 2, 3)) == (2, 1, 3)
    # With the tail box shaded, every candidate pair of (1, 2, 3) is blocked,
    # so the host is occurrence-free and fixed.
    assert tail((1, 2, 3)) == (1, 2, 3)
    assert plain((1, 2)) == (2, 1)
    assert tail((1, 2)) == (2, 1)
    assert plain((1,)) == (1,)


def sweep_lower_by_search(vals, tail_box):
    """The length-2 sweep as first written: for each candidate second
    position j, from the largest down, test every first position i against
    the definition of a live pair."""
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


def test_sweep_lower_matches_the_search_on_every_sequence_to_eight():
    for m in range(9):
        for vals in itertools.permutations(range(1, m + 1)):
            for tail_box in (False, True):
                assert bj._sweep_lower(vals, tail_box) == sweep_lower_by_search(vals, tail_box), (vals, tail_box)


def test_len2_reduction_entries_swap_counts():
    for eid in (19, 21, 101, 102):
        entry = entry_by_id(eid)
        transform = transform_for(entry.family, entry.patterns()[0].shading)
        for host in enumerate_sn(5):
            image = transform(host)
            assert pair_counts(host, entry) == tuple(reversed(pair_counts(image, entry)))


def test_per_interval_len2_examples():
    e30, e31 = entry_by_id(30), entry_by_id(31)
    host = (10, 4, 7, 9, 8, 6, 1, 5, 2, 3)
    assert apply_family(e31, host) == (10, 4, 9, 8, 6, 7, 1, 5, 3, 2)
    assert apply_family(e30, (1, 2, 3)) == (1, 3, 2)
    assert apply_family(e31, (1, 2, 3)) == (1, 3, 2)
    assert apply_family(e31, (2, 1, 3)) == (2, 1, 3)


def test_ltr_interval_complement_examples():
    host = (9, 11, 4, 12, 8, 10, 5, 7, 1, 3, 13, 6, 2)
    assert bj.ltr_interval_complement(host) == (9, 12, 4, 11, 5, 13, 8, 6, 1, 2, 10, 7, 3)
    assert bj.ltr_interval_complement((3, 2, 1)) == (3, 2, 1)
    assert bj.ltr_interval_complement((2, 3, 1)) == (2, 3, 1)
    assert bj.ltr_interval_complement(()) == ()


def test_ltr_interval_complement_swaps_counts_on_worked_example():
    entry = entry_by_id(23)
    host = (9, 11, 4, 12, 8, 10, 5, 7, 1, 3, 13, 6, 2)
    image = bj.ltr_interval_complement(host)
    c, d = pair_counts(host, entry), pair_counts(image, entry)
    assert c == (d[1], d[0])
    assert c != (0, 0)


def test_pair_swap_transform_examples():
    e44 = entry_by_id(44)
    assert apply_family(e44, (1, 2, 3)) == (1, 3, 2)
    assert apply_family(e44, (3, 2, 1)) == (3, 2, 1)
    assert apply_family(e44, (2, 1, 3)) == (2, 1, 3)
    with pytest.raises(UnsupportedShadingError):
        transform_for({"name": "pair_swap"}, entry_by_id(23).patterns()[0].shading)


def test_a1_complement_examples():
    entry = entry_by_id(41)
    # Occurrence-free hosts are fixed.
    assert apply_family(entry, (3, 2, 1)) == (3, 2, 1)
    # The identity permutation of S_6 holds counts (10, 0); its image holds
    # the swapped counts (0, 10).
    host = (1, 2, 3, 4, 5, 6)
    assert pair_counts(host, entry) == (10, 0)
    image = apply_family(entry, host)
    assert image == (1, 6, 5, 4, 3, 2)
    assert pair_counts(image, entry) == (0, 10)
    # Unsupported shadings are rejected instead of silently mis-handled.
    s202 = entry_by_id(202).patterns()[0].shading
    with pytest.raises(UnsupportedShadingError):
        transform_for({"name": "a1_complement"}, s202)


def test_nine_box_transform_examples():
    e46 = entry_by_id(46)
    assert apply_family(e46, (1, 2, 3)) == (1, 3, 2)
    assert apply_family(e46, (3, 2, 1)) == (3, 2, 1)
    for bad_id in (205, 206):
        bad = entry_by_id(bad_id).patterns()[0].shading
        with pytest.raises(UnsupportedShadingError):
            transform_for({"name": "nine_box"}, bad)


def test_nine_box_worked_example():
    entry = entry_by_id(46)
    host = (12, 15, 13, 11, 14, 9, 16, 8, 6, 7, 4, 10, 2, 5, 1, 3)
    assert pair_counts(host, entry) == (3, 3)
    image = apply_family(entry, host)
    assert image == (12, 15, 13, 11, 16, 9, 10, 8, 6, 14, 4, 5, 2, 3, 1, 7)
    assert pair_counts(image, entry) == (3, 3)
    assert apply_family(entry, image) == host


def test_nine_box_worked_example_near_miss_rejected():
    # A near-miss image differing only in the final cluster breaks the count
    # swap, so it cannot be the transform's output.
    entry = entry_by_id(46)
    near_miss = (12, 15, 13, 11, 16, 9, 10, 8, 6, 14, 4, 7, 2, 3, 1, 5)
    assert pair_counts(near_miss, entry) == (2, 4)
    host = (12, 15, 13, 11, 14, 9, 16, 8, 6, 7, 4, 10, 2, 5, 1, 3)
    assert apply_family(entry, host) != near_miss


def test_block_sweep_rejected_shadings():
    # Rejected extensions: the sweep reproduces its documented images but
    # does not swap the counts, which is why these shadings are refuted.
    e205, e206 = entry_by_id(205), entry_by_id(206)
    s205 = e205.patterns()[0].shading
    s206 = e206.patterns()[0].shading
    host5 = (3, 4, 1, 2, 5)
    image5 = bj._block_sweep(host5, s205)
    assert image5 == (3, 5, 1, 4, 2)
    assert pair_counts(host5, e205) == (2, 0)
    assert pair_counts(image5, e205) == (0, 0)
    host4 = (1, 3, 2, 4)
    image4 = bj._block_sweep(host4, s206)
    assert image4 == (1, 4, 3, 2)
    assert pair_counts(host4, e206) == (2, 0)
    assert pair_counts(image4, e206) == (0, 0)


def test_per_interval_nine_box_example():
    e74 = entry_by_id(74)
    assert apply_family(e74, (1, 2, 3)) == (1, 3, 2)
    assert apply_family(e74, (3, 2, 1)) == (3, 2, 1)


def test_transform_for_and_apply_family():
    entry = entry_by_id(23)
    transform = transform_for(entry.family, entry.patterns()[0].shading)
    host = (9, 11, 4, 12, 8, 10, 5, 7, 1, 3, 13, 6, 2)
    assert transform(host) == bj.ltr_interval_complement(host)
    assert apply_family(entry, host) == transform(host)
    with pytest.raises(ValueError):
        transform_for({"name": "nosuch"}, entry.patterns()[0].shading)
    with pytest.raises(UnsupportedShadingError):
        transform_for({"name": "a1_complement"}, entry_by_id(202).patterns()[0].shading)
    with pytest.raises(ValueError):
        apply_family(entry_by_id(76), (1, 2, 3))  # conjectured: no family


def test_verify_pair_reports():
    p1, p2 = entry_by_id(23).patterns()
    rep = verify_pair(p1, p2, bj.ltr_interval_complement, 5)
    assert rep.bijective and rep.joint_swap and rep.involution
    assert rep.counterexample is None
    assert rep.ok()
    assert rep.to_json() == {
        "n": 5,
        "bijective": True,
        "joint_swap": True,
        "involution": True,
        "counterexample": None,
    }


def test_verify_pair_flags_wrong_transform():
    p1, p2 = entry_by_id(1).patterns()
    rep = verify_pair(p1, p2, lambda p: tuple(p), 3)
    assert rep.bijective is True
    assert rep.joint_swap is False
    assert rep.involution is True
    assert rep.counterexample == (1, 2, 3)
    assert not rep.ok()
    assert rep.to_json()["counterexample"] == [1, 2, 3]


def test_verify_pair_requires_an_involution():
    # Swaps 123 and 132 and cycles 213 -> 231 -> 312 -> 213: a bijection
    # that swaps the counts of entry 1 but is not its own inverse.
    p1, p2 = entry_by_id(1).patterns()
    images = {
        (1, 2, 3): (1, 3, 2),
        (1, 3, 2): (1, 2, 3),
        (2, 1, 3): (2, 3, 1),
        (2, 3, 1): (3, 1, 2),
        (3, 1, 2): (2, 1, 3),
    }

    def cycle(p):
        return images.get(tuple(p), tuple(p))

    rep = verify_pair(p1, p2, cycle, 3)
    assert rep == VerificationReport(3, True, True, False, (2, 1, 3))
    assert not rep.ok()


def reference_report(p1, p2, images, n):
    """The report that :class:`VerificationReport` defines, by brute force
    over the hosts of S_n in lexicographic order; ``images`` maps each host
    to its image, or to None where the map has none."""
    hosts = list(enumerate_sn(n))
    counts = {h: (count_occurrences(h, p1), count_occurrences(h, p2)) for h in hosts}
    inside = {h: images[h] in counts for h in hosts}
    seen, witness = set(), None
    bijective = swaps = inverts = True
    for host in hosts:
        image = images[host]
        repeats = image in seen
        seen.add(image)
        no_swap = inside[host] and counts[image] != counts[host][::-1]
        no_inverse = inside[host] and images[image] != host
        bijective &= inside[host] and not repeats
        swaps &= not no_swap
        inverts &= not no_inverse
        if witness is None and (not inside[host] or repeats or no_swap or no_inverse):
            witness = host
    if not any(inside.values()):
        return VerificationReport(n, False, None, None, witness)
    return VerificationReport(n, bijective, swaps, inverts, witness)


def test_verify_pair_witness_when_images_repeat():
    # 213 and 312 both map to 231, whose image is 213: the first host that
    # breaks a property is 312, which repeats 213's image and is not its
    # image's image.
    p1, p2 = entry_by_id(1).patterns()
    images = {
        (1, 2, 3): (1, 3, 2),
        (1, 3, 2): (1, 2, 3),
        (2, 1, 3): (2, 3, 1),
        (2, 3, 1): (2, 1, 3),
        (3, 1, 2): (2, 3, 1),
    }
    rep = verify_pair(p1, p2, lambda p: images.get(tuple(p), tuple(p)), 3)
    assert rep == VerificationReport(3, False, True, False, (3, 1, 2))


def test_verify_pair_matches_the_reference_on_random_maps_of_s4():
    # random functions (some images outside S_4), random bijections, and
    # involutions with one to three images spoiled: random ones and the
    # count-swapping map of entry 23
    rng = random.Random(21)
    hosts = list(enumerate_sn(4))
    outside = [None, (1, 1, 2, 3), (1, 2, 3)]
    entry = entry_by_id(23)
    p1, p2 = entry.patterns()
    swap = {h: apply_family(entry, h) for h in hosts}
    maps = []
    for _ in range(60):
        maps.append({h: rng.choice(hosts + outside) for h in hosts})
        maps.append(dict(zip(hosts, rng.sample(hosts, len(hosts)))))
        order = rng.sample(hosts, len(hosts))
        fixed = rng.randrange(0, len(hosts) + 1, 2)
        involution = {h: h for h in order[:fixed]}
        for a, b in zip(order[fixed::2], order[fixed + 1::2]):
            involution[a], involution[b] = b, a
        for base in (involution, swap):
            spoiled = dict(base)
            for host in rng.sample(hosts, rng.randint(1, 3)):
                spoiled[host] = rng.choice(hosts + outside)
            maps.append(spoiled)

    def apply(images):
        def transform(p):
            if images[p] is None:
                raise ValueError("no image")
            return images[p]
        return transform

    for images in maps:
        assert verify_pair(p1, p2, apply(images), 4) == reference_report(p1, p2, images, 4), images


def test_verify_pair_counts_patterns_of_any_length():
    # length 4 is outside the tables; the counts come from the pure-Python finder
    p1234, p1243 = mesh.parse_pattern("1234|"), mesh.parse_pattern("1243|")
    assert verify_pair(p1234, p1234, tuple, 5).ok()
    rep = verify_pair(p1234, p1243, tuple, 4)
    assert rep.joint_swap is False
    assert rep.counterexample == (1, 2, 3, 4)


def test_verify_pair_rejects_images_outside_sn():
    # Shifted values would pass the rank and count checks; an image one entry
    # too long has no rank in S_n at all.  Both must fail as non-bijective.
    p1, p2 = entry_by_id(23).patterns()
    shifted = verify_pair(p1, p2, lambda p: tuple(v + 10 for v in bj.ltr_interval_complement(p)), 5)
    longer = verify_pair(p1, p2, lambda p: (*p, len(p) + 1), 5)
    for rep in (shifted, longer):
        assert rep.bijective is False
        assert rep.joint_swap is None  # no image in S_n, so no counts were compared
        assert rep.involution is None
        assert rep.counterexample == (1, 2, 3, 4, 5)
        assert not rep.ok()


def test_verify_pair_reports_the_empty_witness():
    # S_0 has one host, (); an image outside S_0 makes () the witness.
    p1, p2 = entry_by_id(1).patterns()
    rep = verify_pair(p1, p2, lambda p: (*p, len(p) + 1), 0)
    assert rep.counterexample == ()
    assert rep.to_json()["counterexample"] == []


def test_verify_pair_maps_each_host_once():
    entry = entry_by_id(23)
    p1, p2 = entry.patterns()
    transform = transform_for(entry.family, p1.shading)
    calls = 0

    def counted(p):
        nonlocal calls
        calls += 1
        return transform(p)

    assert verify_pair(p1, p2, counted, 5).ok()
    assert calls == 120


def test_pair_hits_match_the_finder():
    # the occurrence bits of engine.pair_hits, unpacked by the tests'
    # hit_lists, against the pure-Python finder on every host of S_0..S_6
    # (no position triples below n = 3), for every family entry's shading
    # and random ones; the hosts of the one block of S_n are S_n in
    # lexicographic order.
    rng = random.Random(7)
    shadings = {e.patterns()[0].shading for e in load_catalog() if e.family}
    shadings |= {ShadingSet(3, rng.randrange(1 << 16)) for _ in range(8)}
    for n in range(7):
        hosts = list(enumerate_sn(n))
        assert list(bj._hosts(n, None)) == hosts, n
        for shading in sorted(shadings, key=lambda s: s.mask):
            lists = hit_lists(n, shading)
            assert len(lists) == len(hosts), (n, shading)
            for host, listed in zip(hosts, lists):
                assert listed == bj._pair_occurrences(host, shading), (n, shading, host)


def test_pair_hits_read_the_blocks_of_s9():
    # every 97th host of the block of S_9 that starts with 5
    shadings = [bj._OTH1_SHADING] + [entry_by_id(eid).patterns()[0].shading for eid in (41, 46)]
    for shading in shadings:
        lists = hit_lists(9, shading, 5)
        for row, host in enumerate(bj._hosts(9, 5)):
            if row % 97 == 0:
                assert host[0] == 5 and lists[row] == bj._pair_occurrences(host, shading), (shading, host)


def test_verify_entry_reads_occurrences_from_the_tables(monkeypatch):
    calls = 0

    def counting(fn):
        def counted(*args):
            nonlocal calls
            calls += 1
            return fn(*args)
        return counted

    # both pure-Python occurrence tests, wherever they are looked up
    for module in (bj, mesh):
        for name in ("occurrences", "is_occurrence"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(getattr(module, name)))
    # one entry per occurrence-driven family (direct, oth1, pair_swap,
    # a1_complement, nine_box, per_interval_nine_box) and a
    # nonsymmetric-proved one
    for eid in (6, 12, 39, 41, 46, 74, 101):
        assert verify_entry(entry_by_id(eid), 5).ok(), eid
    assert calls == 0
    # the patched finder is the one apply_family still reads
    assert apply_family(entry_by_id(46), (1, 2, 3, 4)) != (1, 2, 3, 4)
    assert calls > 0


def test_verify_entry_builds_each_streamed_block_once(monkeypatch):
    # With the kept n at 8, S_9 streams as S_10 does: each block's
    # table is built once, for its counts and then its hosts' occurrences
    # (entry 39, pair_swap, and entry 41, a1_complement, read both), and
    # only the last one is held.  The keys end in False: verification reads
    # the lex tables, not those over inverse_pair_block.
    monkeypatch.setenv("MESHPERM_MAX_N", "9")
    entries = [entry_by_id(eid) for eid in (13, 39, 41)]
    engine.clear_caches()
    expected = [verify_entry(entry, 9) for entry in entries]
    assert all(report.ok() for report in expected)
    engine.clear_caches()
    built = []
    build_tables = engine.build_tables
    monkeypatch.setattr(engine, "_KEPT_MAX_N", 8)
    monkeypatch.setattr(engine, "build_tables", lambda *key: built.append(key) or build_tables(*key))
    for entry, report in zip(entries, expected):
        built.clear()
        assert verify_entry(entry, 9) == report, entry.id
        assert built == [(9, 3, first, False) for first in engine.blocks(9)], entry.id
    assert engine.subseq_tables.cache_info().currsize == 0
    assert engine.subseq_tables.cache_info().held == ((9, 3, 9, False),)
    engine.clear_caches()


def test_verify_pair_fails_a_host_on_which_the_map_raises():
    entry = entry_by_id(1)
    p1, p2 = entry.patterns()
    transform = transform_for(entry.family, p1.shading)

    def partial(p):
        if tuple(p) in ((2, 1, 3), (3, 2, 1)):
            raise UnsupportedShadingError("no image")
        return transform(p)

    rep = verify_pair(p1, p2, partial, 3)
    assert rep == VerificationReport(3, False, True, True, (2, 1, 3))
    assert not rep.ok()


A1_WITNESS_42 = (2, 5, 1, 3, 4, 7, 6, 9, 8)
A1_WITNESS_41 = (2, 5, 1, 3, 4, 6, 8, 7, 9)


def test_a1_complement_images_of_the_s9_witnesses():
    # two hosts of S_9 with several tail blocks: each block is complemented
    # on its own
    for eid, host, image, counts in (
        (42, A1_WITNESS_42, (2, 5, 1, 4, 3, 8, 9, 6, 7), (4, 1)),
        (41, A1_WITNESS_41, (2, 5, 1, 4, 3, 9, 7, 8, 6), (2, 3)),
    ):
        entry = entry_by_id(eid)
        assert apply_family(entry, host) == image, eid
        assert pair_counts(image, entry) == counts, eid


def test_a1_complement_swaps_counts_at_2_5_1_3_4_7_6_9_8():
    entry = entry_by_id(42)
    image = apply_family(entry, A1_WITNESS_42)
    assert pair_counts(image, entry) == pair_counts(A1_WITNESS_42, entry)[::-1]
    assert apply_family(entry, image) == A1_WITNESS_42


def test_a1_complement_maps_2_5_1_3_4_6_8_7_9():
    entry = entry_by_id(41)
    image = apply_family(entry, A1_WITNESS_41)
    assert pair_counts(image, entry) == pair_counts(A1_WITNESS_41, entry)[::-1]
    assert apply_family(entry, image) == A1_WITNESS_41


def test_oth1_reads_the_occurrences_of_its_host_once():
    host = (10, 7, 8, 5, 9, 4, 2, 6, 1, 3, 11)
    assert len(left_to_right_minima(host)) == 6
    asked = []

    def provider(p, shading):
        asked.append(tuple(p))
        return bj._pair_occurrences(p, shading)

    image = bj._BY_NAME["oth1"].transform(host, bj._OTH1_SHADING, provider)
    assert asked == [host]
    assert image == (10, 7, 9, 5, 6, 4, 2, 3, 1, 8, 11)


def test_verify_pair_rejects_oversize_n():
    p1, p2 = entry_by_id(1).patterns()
    with pytest.raises(ValueError):
        verify_pair(p1, p2, lambda p: tuple(p), 9)


def test_verify_entry_representatives():
    for eid in (1, 12, 13, 19, 23, 30, 39, 41, 46, 74, 101, 103, 105):
        entry = entry_by_id(eid)
        rep = verify_entry(entry, 5)
        assert rep.ok(), (eid, rep)


def test_involution_families_are_involutions():
    for eid in (2, 12, 13, 19, 23, 30, 39, 41, 46, 74):
        entry = entry_by_id(eid)
        transform = transform_for(entry.family, entry.patterns()[0].shading)
        for host in enumerate_sn(5):
            assert transform(transform(host)) == host, (eid, host)


def test_occurrence_free_hosts_are_fixed_for_occurrence_driven_families():
    # These families act only on listed occurrences, so occurrence-free
    # hosts must be fixed points.  Representative entry per family.
    for eid in (1, 12, 19, 39, 41, 46, 74):
        entry = entry_by_id(eid)
        transform = transform_for(entry.family, entry.patterns()[0].shading)
        for host in enumerate_sn(5):
            if pair_counts(host, entry) == (0, 0):
                assert transform(host) == host, (eid, host)


def test_structural_families_may_move_occurrence_free_hosts():
    # The complement-style maps rearrange whole value bands unconditionally;
    # they swap the counts without fixing every occurrence-free host.  These
    # witnesses pin that behaviour (each host holds zero occurrences of both
    # patterns of its entry, yet moves).
    witnesses = (
        (16, (1, 3, 5, 2, 4), (1, 4, 2, 5, 3)),
        (23, (2, 1, 3, 4), (2, 1, 4, 3)),
        (31, (2, 3, 4, 1, 5), (2, 4, 3, 1, 5)),
    )
    for eid, host, image in witnesses:
        entry = entry_by_id(eid)
        assert pair_counts(host, entry) == (0, 0)
        assert apply_family(entry, host) == image
        assert pair_counts(image, entry) == (0, 0)
