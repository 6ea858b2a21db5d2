import json
import random
import tracemalloc
from collections import Counter
from math import comb

import pytest

from shiftlab import (
    SimplicialComplex,
    enumerate_shifted,
    f_vector,
    from_facets,
    from_faces,
    from_json,
    full_simplex,
    is_shifted,
    m_leq_table,
    mask_of,
    members_of,
    minimal_nonfaces,
    shift_ij,
    to_json,
)
from shiftlab import complexes
from shiftlab.complexes import (
    from_json_dict,
    from_nonfaces,
    ideal_degree_slice,
    ideal_slices,
    m_leq,
    restriction,
)
from shiftlab.section4 import section4_build
from shiftlab.verify import random_complex

from support import (
    SEEDED,
    all_strict_complexes,
    brute_closure,
    brute_facets,
    brute_is_shifted,
    brute_minimal_nonfaces,
    forbid_bit_view,
)


def faces_as_sets(cx):
    return {members_of(f) for f in cx.faces}


def _corpus():
    out = [cx for n in range(1, 5) for cx in all_strict_complexes(n)]
    return out + [random_complex(n, density, 7) for n in (6, 8) for density in (0.05, 0.2)]


def test_dim_is_the_largest_face_size_less_one():
    for cx in _corpus():
        top = max(f.bit_count() for f in cx.faces)
        assert cx.dim == top - 1


def test_from_nonfaces_matches_from_faces():
    for cx in all_strict_complexes(4):
        nonfaces = ((1 << (1 << cx.n)) - 1) ^ cx.bits
        # the empty face is always re-added, and bits from 2^n on are ignored
        for given in (nonfaces, nonfaces | 1, nonfaces | (1 << (1 << cx.n)) | (1 << 131)):
            built = from_nonfaces(cx.n, given)
            assert built == from_faces(cx.n, cx.faces)
            assert built.faces == cx.faces


def test_from_nonfaces_refuses_what_from_faces_refuses():
    # {1, 2, 3} stays a face without {1, 2}
    with pytest.raises(ValueError, match="downward-closed"):
        from_nonfaces(3, 1 << mask_of([1, 2]))
    # every set holding 3 is a non-face, {3} included
    with pytest.raises(ValueError, match="every vertex of"):
        from_nonfaces(3, sum(1 << m for m in range(8) if m & 4))


def test_facets_cache_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        SimplicialComplex(2, 0b111, (7,))
    cx = SimplicialComplex(2, 0b111)
    assert cx.facets() == (1, 2)
    assert cx.facets() is cx.facets()
    assert cx == SimplicialComplex(2, 0b111)


def test_repr_prints_bits_in_hex_and_evaluates_back():
    assert repr(SimplicialComplex(3, 0xFF)) == "SimplicialComplex(n=3, bits=0xff)"
    # a decimal bits would pass Python's 4300-digit limit from n = 14 on
    for big in (section4_build(), full_simplex(20)):
        assert repr(big).startswith(f"SimplicialComplex(n={big.n}, bits=0x")
    for n in range(1, 5):
        for cx in all_strict_complexes(n):
            assert eval(repr(cx), {"SimplicialComplex": SimplicialComplex}) == cx


def test_constructor_refuses_a_face_set_for_bits():
    # the face store is the bit view; a frozenset of masks is refused at once
    with pytest.raises(TypeError, match="bits must be an int"):
        SimplicialComplex(2, frozenset({0, 1, 2}))


@pytest.mark.parametrize("bits", [-1, 1 << 4, 1 << 9])
def test_constructor_refuses_bits_past_the_ground_set(bits):
    # bit 4 would be the mask {3}, outside [2]
    with pytest.raises(ValueError, match=r"bits must lie in \[0, 2\^\(2\^2\)\)"):
        SimplicialComplex(2, bits)
    assert SimplicialComplex(2, (1 << 4) - 1).faces == {0, 1, 2, 3}


def test_faces_are_unpacked_only_when_read():
    simplex = full_simplex(20)
    assert "faces" not in vars(simplex)
    path = from_facets(4, [[1, 2], [2, 3], [3, 4]])
    moved = shift_ij(path, 1, 4)
    reached = enumerate_shifted(path)
    assert moved != path and len(reached) > 1
    for cx in [moved, *reached]:
        assert "faces" not in vars(cx)
        assert cx.faces == frozenset(m for m in range(1 << cx.n) if cx.bits >> m & 1)
        assert "faces" in vars(cx)


def test_full_simplex_on_20_vertices_allocates_no_face_set():
    # its bit view is 128 KB; a frozenset of its 2^20 faces takes about 100 MB
    tracemalloc.start()
    try:
        cx = full_simplex(20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cx.bits == (1 << (1 << 20)) - 1
    assert peak < 32 << 20


def test_from_facets_closure():
    cx = from_facets(3, [[1, 2], [1, 3]])
    assert faces_as_sets(cx) == {(), (1,), (2,), (3,), (1, 2), (1, 3)}


def test_from_facets_singletons():
    cx = from_facets(2, [[1], [2]])
    assert faces_as_sets(cx) == {(), (1,), (2,)}


def test_strict_mode_missing_singleton():
    with pytest.raises(ValueError, match=r"every vertex of \[3\] must be a face; missing \[3\]"):
        from_facets(3, [[1, 2]])


def test_constructor_checks_closure_and_singletons():
    # the face {1, 2} alone, then {1, 2} without the empty face
    for bits in (0b1000, 0b1110):
        with pytest.raises(ValueError, match="not downward-closed"):
            SimplicialComplex(2, bits)
    # vertex 3 missing, then every vertex and the empty face missing
    with pytest.raises(ValueError, match=r"missing \[3\]"):
        SimplicialComplex(3, 0b0111)
    with pytest.raises(ValueError, match=r"missing \[1, 2\]"):
        SimplicialComplex(2, 0)
    for n in range(1, 5):
        for cx in all_strict_complexes(n):
            assert SimplicialComplex(cx.n, cx.bits) == cx


def test_facet_out_of_range():
    with pytest.raises(ValueError):
        from_facets(3, [[1, 4]])


def test_facet_outside_ground_set_refused_before_closure(monkeypatch):
    # the closure of a 40-vertex facet would have 2^40 faces
    forbid_bit_view(monkeypatch)
    with pytest.raises(ValueError, match=r"vertex 21 outside 1\.\.20"):
        from_facets(3, [list(range(1, 41))])


def test_negative_mask_refused():
    # members_of(-1) would never end, so the message must not call it
    with pytest.raises(ValueError, match="not contained in"):
        from_facets(3, [-1])


def test_from_faces_rejects_open_family():
    with pytest.raises(ValueError):
        from_faces(3, [mask_of([1]), mask_of([2]), mask_of([3]), mask_of([1, 2, 3])])


def test_f_vector():
    assert f_vector(from_facets(3, [[1, 2], [1, 3]])) == (3, 2)
    assert f_vector(full_simplex(3)) == (3, 3, 1)


def test_restriction():
    # the vertices of W are renumbered 1..|W| in order
    cyc = from_facets(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    r = restriction(cyc, [1, 3])
    assert r.n == 2 and faces_as_sets(r) == {(), (1,), (2,)}
    assert restriction(cyc, [1, 2, 4]) == from_facets(3, [[1, 2], [1, 3]])
    cx = from_facets(3, [[1, 2], [1, 3]])
    assert faces_as_sets(restriction(cx, [2, 3])) == {(), (1,), (2,)}


def test_restriction_matches_relabelled_induced_faces():
    for cx in [*all_strict_complexes(4), *(random_complex(*args) for args in SEEDED[::5])]:
        for w in range(1, 1 << cx.n):
            label = {v: k for k, v in enumerate(members_of(w), start=1)}
            want = {mask_of([label[v] for v in members_of(f)]) for f in cx.faces if not f & ~w}
            assert restriction(cx, w).faces == want


@pytest.mark.parametrize(
    "w, message",
    [
        (-1, r"vertex set mask -1 not contained in \[4\]"),
        ([1, 5], r"vertex set \(1, 5\) not contained in \[4\]"),
        (0b10001, r"vertex set \(1, 5\) not contained in \[4\]"),
        ([], "vertex set must be nonempty"),
    ],
    ids=["negative-mask", "vertex-past-n", "mask-past-n", "empty"],
)
def test_restriction_refuses_vertex_set_outside_ground_set(w, message):
    cyc = from_facets(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    with pytest.raises(ValueError, match=message):
        restriction(cyc, w)


def test_nonface_walks_refuse_n_above_20(monkeypatch):
    # no complex on 21 vertices is built, by any constructor, so none
    # reaches minimal_nonfaces or the ideal slices
    forbid_bit_view(monkeypatch)
    points = [0] + [1 << v for v in range(21)]
    with pytest.raises(ValueError, match="n must be at most 20"):
        from_facets(21, points)
    with pytest.raises(ValueError, match="n must be at most 20"):
        from_faces(21, points)
    with pytest.raises(ValueError, match="n must be at most 20"):
        from_nonfaces(21, 0)
    with pytest.raises(ValueError, match="n must be at most 20"):
        SimplicialComplex(21, sum(1 << f for f in points))


def test_restriction_full_ground_set_is_identity():
    cx = from_facets(4, [[1, 2, 3], [2, 4]])
    assert restriction(cx, range(1, 5)) == cx


def test_is_shifted():
    assert is_shifted(from_facets(3, [[1, 3], [2, 3]]))
    assert not is_shifted(from_facets(3, [[1, 2], [1, 3]]))
    assert is_shifted(full_simplex(4))


def test_is_shifted_matches_brute_force():
    for n in range(1, 6):
        for cx in all_strict_complexes(n):
            assert is_shifted(cx) == brute_is_shifted(cx)


# bit f of the view is face f; at n <= 2 the view is shorter than one byte
@pytest.mark.parametrize(
    "cx, bits",
    [
        (from_facets(3, [[1], [2], [3]]), 0b00010111),
        (from_facets(1, [[1]]), 0b11),
        (from_facets(2, [[1], [2]]), 0b0111),
        (from_facets(2, [[1, 2]]), 0b1111),
        (from_facets(3, [[1, 2], [3]]), 0b00011111),
        (from_facets(3, [[2, 3], [1]]), 0b01010111),
        (from_facets(3, [[1, 3], [2, 3]]), 0b01110111),
        (full_simplex(3), 0b11111111),
    ],
)
def test_bit_view_round_trip_below_a_byte(cx, bits):
    assert cx.bits == bits == sum(1 << f for f in cx.faces)
    assert set(complexes._mask_list(bits)) == cx.faces


def test_bit_view_round_trip_at_15_and_20_vertices():
    cx = section4_build()
    assert cx.bits == sum(1 << f for f in cx.faces)
    assert set(complexes._mask_list(cx.bits)) == cx.faces
    simplex = full_simplex(20)
    assert simplex.bits == (1 << (1 << 20)) - 1
    assert set(complexes._mask_list(simplex.bits)) == simplex.faces
    points = from_facets(20, [[v] for v in range(1, 21)])
    assert points.bits == 1 | sum(1 << (1 << v) for v in range(20))
    assert set(complexes._mask_list(points.bits)) == points.faces


def test_indicator_integers_and_ideal_slices_match_their_definitions():
    for n in range(1, 7):
        for v in range(1, n + 1):
            assert complexes._vertex_bits(n)[v] == sum(1 << f for f in range(1 << n) if f >> (v - 1) & 1)
        for d in range(n + 1):
            assert complexes._layer_bits(n, d) == sum(1 << f for f in range(1 << n) if f.bit_count() == d)
    for cx in _corpus():
        for d in range(cx.n + 1):
            want = {m for m in range(1 << cx.n) if m.bit_count() == d and m not in cx.faces}
            assert ideal_degree_slice(cx, d) == want


def test_vertex_indicators_at_20_vertices():
    full = (1 << (1 << 20)) - 1
    h = complexes._vertex_bits(20)
    assert h[1] == full // 3 * 2
    assert h[20] == full >> (1 << 19) << (1 << 19)
    assert [x.bit_count() for x in h] == [0] + [1 << 19] * 20


@pytest.mark.parametrize(
    "n, facets",
    [(30, [[v] for v in range(1, 31)]), (26, [list(range(1, 27))]), (40, [list(range(1, 41))])],
    ids=["points-30", "facet-26", "facet-40"],
)
def test_more_than_20_vertices_refused_when_built(monkeypatch, n, facets):
    # a single 40-vertex facet closes to 2^40 faces; a missing bound
    # raises in the closure instead of allocating them
    forbid_bit_view(monkeypatch)
    with pytest.raises(ValueError, match="n must be at most 20"):
        from_json(json.dumps({"n": n, "facets": facets}))


def test_minimal_nonfaces():
    cyc = from_facets(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    assert [members_of(m) for m in minimal_nonfaces(cyc)] == [(1, 3), (2, 4)]
    assert minimal_nonfaces(full_simplex(3)) == []
    assert [members_of(m) for m in minimal_nonfaces(from_facets(3, [[1, 3], [2, 3]]))] == [(1, 2)]


def test_minimal_nonfaces_by_degree_then_members():
    for cx in _corpus():
        gens = minimal_nonfaces(cx)
        assert gens == sorted(gens, key=lambda m: (m.bit_count(), members_of(m)))


def test_ideal_degree_slice():
    cyc = from_facets(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    assert {members_of(m) for m in ideal_degree_slice(cyc, 2)} == {(1, 3), (2, 4)}
    assert len(ideal_degree_slice(cyc, 3)) == 4
    assert ideal_degree_slice(full_simplex(4), 3) == frozenset()
    for d in (-1, 5):
        with pytest.raises(ValueError, match="degree out of range"):
            ideal_degree_slice(full_simplex(4), d)


def test_m_leq_example():
    # ideal (x1x2, x1x3) on the complex with facets {1,4}, {2,3,4}
    cx = from_facets(4, [[1, 4], [2, 3, 4]])
    slices = ideal_slices(cx)
    assert m_leq(slices, 2, 2) == 1
    assert m_leq(slices, 3, 2) == 2
    assert m_leq(slices, 4, 2) == 2
    assert m_leq(slices, 1, 2) == 0  # i < d


def test_m_leq_counts_match_direct_count():
    # m_leq on the unpacked slices and m_leq_table on the bit view agree
    # with a direct count, on every complex with n <= 4 and random ones
    corpus = [cx for n in range(1, 5) for cx in all_strict_complexes(n)]
    corpus += [random_complex(n, density, seed) for n in (6, 8, 9)
               for density in (0.1, 0.4) for seed in range(3)]
    for cx in corpus:
        slices = ideal_slices(cx)
        table = m_leq_table(cx)
        assert len(table) == cx.n + 1 and {len(row) for row in table} == {cx.n + 1}
        for d in range(cx.n + 2):  # d = n + 1 is a missing degree
            s = slices.get(d, frozenset())
            for i in range(-1, cx.n + 2):
                want = sum(1 for m in s if m.bit_length() <= i)
                assert m_leq(slices, i, d) == want
                if 0 <= i <= cx.n and d <= cx.n:
                    assert table[d][i] == want
    assert m_leq({}, 3, 2) == 0
    assert m_leq_table(full_simplex(3)) == [[0] * 4] * 4


@pytest.mark.parametrize("n", [18, 20])
def test_m_leq_table_at_the_top_of_the_range(n):
    # non-faces through vertex n in every degree 2..n, so that m_<=(n-1)
    # and m_<=n differ
    cx = from_facets(n, [[v] for v in range(1, n + 1)] + [[1, 2, n], [3, n - 1, n], [n - 2, n - 1], [5, n]])
    faces = cx.faces
    table = m_leq_table(cx)
    for d in range(n + 1):
        for i in range(n + 1):
            # the d-subsets of [i], less the faces among them
            faces_below = sum(1 for f in faces if f.bit_count() == d and f.bit_length() <= i)
            assert table[d][i] == comb(i, d) - faces_below, (d, i)
    assert table[2][n] > table[2][n - 1]


def test_subset_count_identity():
    for cx in all_strict_complexes(4):
        total = sum(len(ideal_degree_slice(cx, d)) for d in range(cx.n + 1))
        total += sum(f_vector(cx)) + 1
        assert total == 2**cx.n


def test_closure_sweep_matches_subset_closure():
    # every family of masks on n <= 3, then random families on larger ground sets
    for n in range(1, 4):
        for pick in range(1 << (1 << n)):
            family = complexes._mask_list(pick)
            want = sum(1 << f for f in brute_closure(family)) if family else 0
            assert complexes._closure(n, pick) == want
    for n in (10, 15, 20):
        rng = random.Random(n)
        for _ in range(3):
            family = [rng.randrange(1 << n) for _ in range(rng.randint(1, 30))]
            got = complexes._closure(n, complexes._bits_of(n, family))
            assert complexes._mask_list(got) == sorted(brute_closure(family))


def test_downward_closure_after_construction():
    cx = from_facets(5, [[1, 2, 3], [3, 4, 5], [2, 4]])
    for f in cx.faces:
        for v in members_of(f):
            assert f & ~(1 << (v - 1)) in cx.faces


def test_json_roundtrip():
    cx = from_facets(4, [[1, 2, 3], [2, 4]])
    doc = json.loads(to_json(cx))
    assert doc["n"] == 4 and doc["mode"] == "strict"
    assert from_json(to_json(cx)) == cx
    del doc["mode"]
    assert from_json_dict(doc) == cx


def test_ground_set_cap():
    with pytest.raises(ValueError, match="n must be at most 20"):
        from_facets(65, [[1]])
    with pytest.raises(ValueError, match="n must be at least 1"):
        from_facets(0, [])


def _oracle_corpus():
    yield from (cx for n in range(1, 5) for cx in all_strict_complexes(n))
    yield from (random_complex(*args) for args in SEEDED)


def test_bit_view_structure_matches_face_by_face_oracles():
    for cx in _oracle_corpus():
        facets = brute_facets(cx)
        assert cx.facets() == facets
        assert minimal_nonfaces(cx) == brute_minimal_nonfaces(cx)
        sizes = Counter(f.bit_count() for f in cx.faces)
        assert f_vector(cx) == tuple(sizes[k] for k in range(1, max(sizes) + 1))
        assert from_facets(cx.n, facets).faces == brute_closure(facets) == cx.faces
        assert from_faces(cx.n, cx.faces).bits == sum(1 << f for f in cx.faces)


def test_bit_view_closure_matches_subset_closure():
    # random masks and the singletons, so that every closure is a complex
    for n, density, seed in SEEDED:
        rng = random.Random(seed)
        family = [rng.randrange(1 << n) for _ in range(int(40 * density))]
        family += [1 << v for v in range(n)]
        closed = brute_closure(family)
        assert from_facets(n, family).faces == closed
        assert from_faces(n, closed).faces == closed
        if closed != frozenset(family) | {0}:
            with pytest.raises(ValueError, match="downward-closed"):
                from_faces(n, family)
