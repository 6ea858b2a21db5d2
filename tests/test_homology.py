import itertools
import random
from math import comb

import numpy as np
import pytest

from shiftlab import (
    betti_leq,
    delta_lex,
    f_vector,
    from_faces,
    from_facets,
    full_simplex,
    hochster_betti,
    is_shifted,
    minimal_nonfaces,
    reduced_homology_dims,
    shift_to_shifted,
    shifted_betti,
)
from shiftlab import gfp, homology
from shiftlab.complexes import InvariantError, _mask_list, _vertex_bits, restriction
from shiftlab.faces import members_of
from shiftlab.homology import _reduced_dims, _reduced_homology, _subsets_below, betti_tsv, boundary_matrix
from shiftlab.verify import random_complex

from support import (
    all_strict_complexes,
    brute_hochster_betti,
    k_polynomials,
    numpy_reduced_homology_dims,
    section4_gin,
    subsets_of,
)


def eliahou_kervaire_betti(cx):
    """Independent oracle for squarefree strongly stable ideals:
    beta_{i,i+j} = sum over minimal generators u of degree j of
    C(m(u) - j, i)."""
    table = {}
    for g in minimal_nonfaces(cx):
        j = g.bit_count()
        for i in range(g.bit_length() - j + 1):
            key = (i, j)
            table[key] = table.get(key, 0) + comb(g.bit_length() - j, i)
    return {k: v for k, v in table.items() if v}


def test_boundary_triangle_rank():
    tri = from_facets(3, [[1, 2], [2, 3], [1, 3]])
    B = boundary_matrix(tri, 1, 7)
    assert B.shape == (3, 3)
    assert len(gfp.pivot_columns(B, 7)) == 2


def test_boundary_single_vertex():
    cx = from_facets(1, [[1]])
    B = boundary_matrix(cx, 0, 5)
    assert B.shape == (1, 1) and B[0, 0] == 1


def test_boundary_past_the_top_layer_is_empty():
    tri = from_facets(3, [[1, 2], [2, 3], [1, 3]])
    assert boundary_matrix(tri, 2, 2).shape == (3, 0)
    assert boundary_matrix(tri, 3, 2).shape == (0, 0)


def test_boundary_matrix_refuses_a_negative_dimension():
    tri = from_facets(3, [[1, 2], [2, 3], [1, 3]])
    with pytest.raises(ValueError, match="k must be nonnegative"):
        boundary_matrix(tri, -1, 2)


@pytest.mark.parametrize("p", [0, 1, 4])
def test_boundary_matrix_refuses_bad_field(p):
    tri = from_facets(3, [[1, 2], [2, 3], [1, 3]])
    with pytest.raises(ValueError, match=f"field size {p} is not a prime"):
        boundary_matrix(tri, 1, p)


def test_hochster_refuses_bad_field_when_every_subset_is_a_face():
    with pytest.raises(ValueError, match="field size 4 is not a prime"):
        hochster_betti(full_simplex(3), 4)


@pytest.mark.parametrize("n", [1], ids=["one-vertex"])
def test_reduced_homology_refuses_bad_field(n):
    # a lone vertex reduces with no inverse mod p, so no step of the
    # elimination would trip on p = 4
    with pytest.raises(ValueError, match="field size 4 is not a prime"):
        reduced_homology_dims(full_simplex(n), 4)


def test_boundary_squared_zero():
    rng = random.Random(4)
    for t in range(10):
        n = rng.randint(3, 7)
        cx = random_complex(n, rng.choice([0.3, 0.6, 0.9]), t)
        p = rng.choice([2, 3, 32003])
        for k in range(1, cx.dim + 1):
            prod = boundary_matrix(cx, k - 1, p) @ boundary_matrix(cx, k, p)
            assert not np.any(prod % p)


def test_reduced_homology_examples():
    cyc = from_facets(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    assert reduced_homology_dims(cyc, 2) == (0, 0, 1)
    two_pts = from_facets(2, [[1], [2]])
    assert reduced_homology_dims(two_pts, 2) == (0, 1)
    # only the empty face: H~_{-1} is the field; no face, no homology
    assert _reduced_dims([0], 2) == (1,)
    assert _reduced_dims([], 2) == ()


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_reduced_dims_ignore_the_order_within_a_size(p):
    # the elimination walks the sizes from the top down, and a size's
    # faces may come in any order: the clearing and the ranks hold for each
    rng = random.Random(p)
    corpus = [RP2] + [random_complex(n, density, seed) for n in (5, 7) for density in (0.1, 0.4) for seed in (1, 2)]
    for cx in corpus:
        want = numpy_reduced_homology_dims(cx, p)
        masks = _mask_list(cx.bits)
        for _ in range(3):
            rng.shuffle(masks)
            assert _reduced_dims(masks, p) == want


def test_euler_characteristic_identity():
    rng = random.Random(1)
    for t in range(15):
        n = rng.randint(2, 7)
        cx = random_complex(n, rng.choice([0.2, 0.5, 0.8]), 50 + t)
        dims = reduced_homology_dims(cx, 2)
        lhs = sum((-1) ** k * d for k, d in enumerate(dims, start=-1))
        rhs = -1 + sum((-1) ** i * fi for i, fi in enumerate(f_vector(cx)))
        assert lhs == rhs


def test_sparse_ranks_match_numpy_ranks():
    # every complex with n <= 5, in characteristic 2 (no signs) and 3;
    # each induced subcomplex is among them up to its labels
    for cx in (cx for n in range(1, 6) for cx in all_strict_complexes(n)):
        for p in (2, 3):
            assert reduced_homology_dims(cx, p) == numpy_reduced_homology_dims(cx, p)


# the 6-vertex real projective plane: H~_1 = H~_2 = GF(2) in characteristic
# 2 and no reduced homology in any other
RP2 = from_facets(6, [[1, 2, 4], [1, 2, 6], [1, 3, 5], [1, 3, 6], [1, 4, 5],
                      [2, 3, 4], [2, 3, 5], [2, 5, 6], [3, 4, 6], [4, 5, 6]])


def test_rp2_homology_depends_on_the_field():
    assert reduced_homology_dims(RP2, 2) == (0, 0, 1, 1)
    for p in (3, 32003):
        assert reduced_homology_dims(RP2, p) == (0, 0, 0, 0)


def test_rp2_betti_table_depends_on_the_field():
    odd = {(0, 3): 10, (1, 3): 15, (2, 3): 6}
    assert hochster_betti(RP2, 3) == hochster_betti(RP2, 32003) == odd
    # only W = [6] changes: RP2's own H~_1 and H~_2 land at (i, j) = (3, 3), (2, 4)
    assert hochster_betti(RP2, 2) == {**odd, (2, 4): 1, (3, 3): 1}
    for p in (2, 3):
        assert hochster_betti(RP2, p) == brute_hochster_betti(RP2, p)


@pytest.mark.parametrize("p", [2, 3])
def test_rp2_betti_dominated_by_sweep_shift_and_lex(p):
    # the paper's inequality (ii) in both characteristics, which give RP2
    # different tables
    table = hochster_betti(RP2, p)
    sweep, _ = shift_to_shifted(RP2)
    for sc in (sweep, delta_lex(f_vector(RP2), RP2.n)):
        assert hochster_betti(sc, p) == shifted_betti(sc)
        assert betti_leq(table, shifted_betti(sc))


def test_hochster_4cycle():
    cyc = from_facets(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    # complete intersection (x1x3, x2x4): Koszul resolution
    assert hochster_betti(cyc, 2) == {(0, 2): 2, (1, 3): 1}
    assert hochster_betti(cyc, 32003) == {(0, 2): 2, (1, 3): 1}


def test_hochster_matches_brute_oracle():
    corpus = [cx for n in range(1, 5) for cx in all_strict_complexes(n)]
    corpus += [random_complex(n, density, seed) for n in (6, 7, 8)
               for density in (0.03, 0.06, 0.1) for seed in (1, 2)]
    for cx in corpus:
        for p in (2, 3):
            assert hochster_betti(cx, p) == brute_hochster_betti(cx, p)
    for cx in [random_complex(n, density, 1) for n in (9, 10) for density in (0.01, 0.03)]:
        assert hochster_betti(cx, 2) == brute_hochster_betti(cx, 2)


def test_subsets_below_walks_every_vertex_set_once():
    for n in range(1, 7):
        seen = {}
        for w, below in _subsets_below(n):
            assert w not in seen
            seen[w] = below
        assert sorted(seen) == list(range(1, 1 << n))
        assert all(below == sum(1 << f for f in subsets_of(w)) for w, below in seen.items())


def _padded(dims, length):
    return tuple(dims) + (0,) * (length - len(dims))


def _swapped(cx, a, b):
    """cx with the vertices a and b exchanged."""
    def swap(f):
        bits = (f >> (a - 1) ^ f >> (b - 1)) & 1
        return f ^ (bits << (a - 1) | bits << (b - 1))
    return from_faces(cx.n, map(swap, cx.faces))


def test_homology_relative_to_every_vertex_star_is_that_of_the_induced_subcomplex():
    # H~(D_W) = H(D_W, st v) whichever vertex v of W is coned off: each v
    # is swapped onto W's top, where the routine cones off, and every
    # result is checked against the numpy oracle on the renumbered D_W
    for n in (6, 7, 8):
        h = _vertex_bits(n)
        for density, seed in itertools.product((0.02, 0.05, 0.1), (1, 2)):
            cx = random_complex(n, density, seed)
            swaps = {(v, top): _swapped(cx, v, top) for top in range(1, n + 1) for v in range(1, top + 1)}
            for w, below in _subsets_below(n):
                if w in cx.faces:
                    continue
                induced = {f for f in cx.faces if not f & ~w}
                assert set(_mask_list(cx.bits & below)) == induced
                sub = restriction(cx, w)
                assert len(sub.faces) == len(induced)
                expected = {p: _padded(numpy_reduced_homology_dims(sub, p), n + 1) for p in (2, 3)}
                for v in members_of(w):
                    d = swaps[(v, w.bit_length())].bits & below
                    for p in (2, 3):
                        dims = [0] * (n + 1)
                        for k, dim_k in _reduced_homology(d, w, h, p):
                            dims[k + 1] = dim_k
                        assert tuple(dims) == expected[p]


def _cone(cx):
    apex = cx.n + 1
    return from_facets(apex, [members_of(f) + (apex,) for f in cx.facets()])


def test_hochster_skips_every_subset_that_induces_a_cone(monkeypatch):
    # a cone's face ideal is its base's, in one more variable, so the two
    # tables agree; a W holding the apex has the apex on top, induces a
    # cone on it and has no homology, so the cone gets a nonempty result
    # for exactly the subsets its base does, and eliminates exactly as
    # many
    results, eliminated = [], []
    homology_of, reduce = homology._reduced_homology, homology._reduced_dims
    monkeypatch.setattr(homology, "_reduced_homology", lambda *a: (r := list(homology_of(*a))) and results.append(1) or r)
    monkeypatch.setattr(homology, "_reduced_dims", lambda *a: eliminated.append(1) or reduce(*a))
    cyc = from_facets(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    bases = [cyc, RP2, random_complex(6, 0.1, 3), random_complex(7, 0.05, 4)]
    for base in bases:
        cone = _cone(base)
        for p in (2, 3):
            results.clear()
            eliminated.clear()
            table = hochster_betti(base, p)
            nonempty, base_eliminated = len(results), len(eliminated)
            results.clear()
            eliminated.clear()
            assert hochster_betti(cone, p) == table == brute_hochster_betti(cone, p)
            assert len(results) == nonempty > 0
            assert len(eliminated) == base_eliminated


def test_hochster_passes_a_nonempty_face_list(monkeypatch):
    # a W whose relative faces are none induces a cone and is skipped, so
    # every elimination gets at least one face, and never the empty face;
    # the first two complexes still eliminate (RP2 once, for W = [6]); the
    # last two never do, since every W leaves critical faces of one size
    # or none
    seen = []
    reduce = homology._reduced_dims
    monkeypatch.setattr(homology, "_reduced_dims", lambda masks, p: seen.append(masks) or reduce(masks, p))
    for cx in [RP2, random_complex(7, 0.05, 4)]:
        for p in (2, 3):
            seen.clear()
            assert hochster_betti(cx, p) == brute_hochster_betti(cx, p)
            assert seen and all(masks and 0 not in masks for masks in seen)
    for cx in [random_complex(6, 0.1, 1), random_complex(7, 0.05, 2)]:
        for p in (2, 3):
            seen.clear()
            assert hochster_betti(cx, p) == brute_hochster_betti(cx, p)
            assert seen == []


def _matched_off(faces, w):
    """The relative faces of W's top vertex v (the faces F with F + v not
    a face) and the faces that the element matchings on W's other
    vertices, ascending, leave unmatched among them, by sets."""
    top = 1 << (w.bit_length() - 1)
    relative = {f for f in faces if f | top not in faces}
    rest = set(relative)
    for u in members_of(w ^ top):
        b = 1 << (u - 1)
        low = {f for f in rest if not f & b and f | b in rest}
        rest -= low | {f | b for f in low}
    return relative, rest


def test_chained_matchings_count_the_homology_they_claim_to(monkeypatch):
    # the oracle for Hochster's shortcut: on every non-face W, the
    # elimination of the top vertex's relative faces is all zero when the
    # element matchings leave no critical face, and has one nonzero entry,
    # at the critical faces' size k (that is, dim H~_{k-1}), equal to
    # their count when they all have k vertices; the routine eliminates
    # exactly when the critical faces have more than one size
    eliminated = []
    reduce = homology._reduced_dims
    monkeypatch.setattr(homology, "_reduced_dims", lambda *a: eliminated.append(1) or reduce(*a))
    corpus = [cx for n in range(1, 5) for cx in all_strict_complexes(n)]
    corpus += [random_complex(n, density, seed) for n in (6, 7, 8)
               for density in (0.01, 0.02, 0.03, 0.06, 0.1) for seed in (1, 2, 3)]
    seen = {"cone": 0, "none": 0, "one size": 0, "mixed": 0}
    for cx in corpus:
        h = _vertex_bits(cx.n)
        for w, below in _subsets_below(cx.n):
            if cx.bits >> w & 1:
                continue
            relative, critical = _matched_off(set(_mask_list(cx.bits & below)), w)
            sizes = {f.bit_count() for f in critical}
            kind = "cone" if not relative else "none" if not sizes else "one size" if len(sizes) == 1 else "mixed"
            seen[kind] += 1
            for p in (2, 3):
                want = [(k, d) for k, d in enumerate(reduce(sorted(relative), p), start=-1) if d]
                eliminated.clear()
                got = [(k, d) for k, d in homology._reduced_homology(cx.bits & below, w, h, p) if d]
                assert got == want
                assert bool(eliminated) == (kind == "mixed")
                if kind in ("cone", "none"):
                    assert want == []
                elif kind == "one size":
                    (k,) = sizes
                    assert want == [(k - 1, len(critical))]
    assert all(seen.values()), seen


@pytest.mark.parametrize("p", [2, 3])
def test_shifted_homology_counts_the_faces_off_the_cone_vertex(p):
    # in a complex shifted toward n, dim H~_{k-1} is the number of k-vertex
    # faces F with n not in F and F + n not a face
    corpus = [cx for n in range(2, 6) for cx in all_strict_complexes(n) if is_shifted(cx)]
    assert len(corpus) == 116
    for cx in corpus + [section4_gin()]:
        top = 1 << (cx.n - 1)
        counts = [0] * (cx.dim + 2)
        for f in cx.faces:
            if not f & top and f | top not in cx.faces:
                counts[f.bit_count()] += 1
        assert reduced_homology_dims(cx, p) == tuple(counts)


@pytest.mark.parametrize("p", [2, 32003])
def test_hochster_tables_give_the_k_polynomial_of_the_faces(p):
    # 1 + sum (-1)^(i+1) beta_{i,i+j} t^(i+j) = sum over F of t^|F| (1-t)^(n-|F|)
    corpus = [RP2] + [random_complex(n, density, seed) for n in range(6, 11)
                      for density in (0.01, 0.02, 0.05, 0.1) for seed in (1, 2)]
    for cx in corpus:
        from_table, from_faces = k_polynomials(cx, hochster_betti(cx, p))
        assert from_table == from_faces


def test_hochster_full_simplex_empty():
    assert hochster_betti(full_simplex(4), 2) == {}


def test_hochster_principal_ideal():
    cx = from_facets(3, [[1, 3], [2, 3]])
    assert hochster_betti(cx, 2) == {(0, 2): 1}


def test_shifted_betti_principal():
    cx = from_facets(3, [[1, 3], [2, 3]])
    assert shifted_betti(cx) == {(0, 2): 1}


def test_shifted_betti_two_generators():
    # I = (x1x2, x1x3) on n=4: facets {1,4}, {2,3,4}
    cx = from_facets(4, [[1, 4], [2, 3, 4]])
    table = shifted_betti(cx)
    assert table.get((0, 2), 0) == 2
    assert table.get((1, 2), 0) == 1
    assert table.get((2, 2), 0) == 0
    assert table == eliahou_kervaire_betti(cx)


def test_shifted_betti_refuses_a_negative_generator_count(monkeypatch):
    # I = (x1x2): m_<=3(I, 2) = 1, and lowering it to 0 leaves the
    # degree-2 generators with largest index 3 at -1; the check is an
    # explicit raise, so it also holds under python -O
    cx = from_facets(3, [[1, 3], [2, 3]])
    table = homology.m_leq_table(cx)
    table[2][3] = 0
    monkeypatch.setattr(homology, "m_leq_table", lambda _: table)
    with pytest.raises(InvariantError, match="degree 2 at index 3"):
        shifted_betti(cx)


def test_shifted_betti_full_simplex():
    assert shifted_betti(full_simplex(5)) == {}


def test_shifted_betti_requires_shifted():
    with pytest.raises(ValueError):
        shifted_betti(from_facets(3, [[1, 2], [1, 3]]))


def test_shifted_betti_matches_eliahou_kervaire():
    rng = random.Random(7)
    for t in range(25):
        n = rng.randint(2, 7)
        cx = random_complex(n, rng.choice([0.2, 0.5, 0.8]), 300 + t)
        sc, _ = shift_to_shifted(cx)
        assert shifted_betti(sc) == eliahou_kervaire_betti(sc)


def test_betti_leq():
    assert betti_leq({}, {(0, 2): 1})
    assert betti_leq({(0, 2): 1}, {(0, 2): 1})
    assert not betti_leq({(0, 2): 2}, {(0, 2): 1})
    assert not betti_leq({(1, 3): 1}, {(0, 2): 5})


def test_betti_leq_4cycle_vs_shifted():
    cyc = from_facets(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    sc, _ = shift_to_shifted(cyc)
    assert betti_leq(hochster_betti(cyc, 2), shifted_betti(sc))


def test_betti_tsv_format():
    text = betti_tsv({(1, 3): 1, (0, 2): 2})
    assert text.splitlines() == ["0\t2\t2", "1\t3\t1"]


def test_restriction_homology_j1_column():
    # a complex has no H~_{-1} contribution on nonempty W
    cx = from_facets(4, [[1, 2], [3], [4]])
    for w in ([1], [2, 3], [1, 2, 3, 4]):
        dims = reduced_homology_dims(restriction(cx, w), 2)
        assert dims[0] == 0
