import itertools
import random
from math import comb

import numpy as np
import pytest

from shiftlab import (
    InvariantError,
    ShiftlabError,
    f_vector,
    from_facets,
    full_simplex,
    gin,
    is_shifted,
    mask_of,
    members_of,
    minimal_nonfaces,
    phi_image_matrix,
    random_gl,
    reduced_homology_dims,
    shift_ij,
    shift_to_shifted,
)
from shiftlab import complexes, exterior, gfp
from shiftlab.complexes import ideal_degree_slice, ideal_slices, m_leq
from shiftlab.exterior import GenericMatrix
from shiftlab.faces import all_faces
from shiftlab.verify import random_complex
from support import all_strict_complexes, bareiss_det, direct_eliminate, laplace_det, members_wedge_step, row_block_phi_image_matrix

P = 32003


def slice_rows(cx, d):
    """The degree-d ideal slice of cx in revlex-descending order."""
    return sorted(ideal_degree_slice(cx, d))


def slice_bits(cx):
    """The degree slices of I_cx as bit views, keyed by degree."""
    return {d: complexes._slice_bits(cx.n, cx.bits, d) for d in range(cx.n + 1)}


def unpacked(bits):
    return frozenset(complexes._mask_list(bits))


def one_draw_counts(cx, d, seed):
    """m_<= counts of the degree-d pivots of a single coordinate draw:
    by the ascending-mask column order, c[i] is the rank of the first
    C(i, d) columns."""
    phi = random_gl(cx.n, P, seed)
    pivots = {d: unpacked(exterior._gin_draw(slice_bits(cx), phi)[0][d])}
    return [m_leq(pivots, i, d) for i in range(cx.n + 1)]


def test_random_gl_basics():
    g = random_gl(1, 5, 0)
    assert g.entries.shape == (1, 1) and g.entries[0, 0] % 5 != 0
    a = random_gl(6, P, 42)
    b = random_gl(6, P, 42)
    assert np.array_equal(a.entries, b.entries)
    big = random_gl(15, P, 7)
    assert np.array_equal(big.entries @ big.dual.T % P, np.eye(15))


def test_generic_matrix_compares_by_identity():
    a = random_gl(3, P, 1)
    b = random_gl(3, P, 1)
    assert a == a and not a != a and hash(a) == hash(a)
    assert (a == b) is False and (a != b) is True
    assert len({a, b}) == 2


def test_column_order_is_revlex_descending():
    for n in range(1, 8):
        for d in range(n + 1):
            want = sorted(all_faces(n, d), key=lambda m: tuple(sorted(members_of(m), reverse=True)))
            assert exterior.revlex_column_order(n, d) == tuple(want)


def test_phi_image_identity_is_permutation():
    cx = from_facets(3, [[1, 2], [2, 3]])
    ident = GenericMatrix(3, P, 0, np.eye(3, dtype=np.int64))
    M, cols = phi_image_matrix(slice_rows(cx, 2), 2, ident.entries, P)
    # one row for the single degree-2 nonface {1,3}; single 1 at its column
    assert M.shape == (1, 3)
    nz = np.nonzero(M[0])[0]
    assert len(nz) == 1 and M[0, nz[0]] == 1
    assert cols[nz[0]] == mask_of([1, 3])


def test_phi_image_degree_one_rows():
    # every vertex is a face, so degree 1 has no ideal-side row; the
    # face-side rows are the vertices, and the image of e_v is row v of phi
    cx = from_facets(3, [[1, 2], [3]])
    assert slice_rows(cx, 1) == []
    phi = random_gl(3, P, 3)
    vertices = [mask_of([v]) for v in (1, 2, 3)]
    M, cols = phi_image_matrix(vertices, 1, phi.entries, P)
    assert M.shape == (3, 3)
    for r, v in enumerate((1, 2, 3)):
        by_col = {cols[c]: int(M[r, c]) for c in range(3)}
        for u in range(1, 4):
            assert by_col[mask_of([u])] == int(phi.entries[v - 1, u - 1]) % P


def test_phi_image_minor_example():
    # coefficient of e_{1,2} in the image of e_{1,3} is the 2x2 minor
    # with rows {1,3} and columns {1,2}
    cx = from_facets(3, [[1, 2], [2, 3]])  # nonfaces: {1,3}, {1,2,3}
    phi = random_gl(3, P, 9)
    M, cols = phi_image_matrix(slice_rows(cx, 2), 2, phi.entries, P)
    g = phi.entries
    want = int(g[0, 0] * g[2, 1] - g[0, 1] * g[2, 0]) % P
    col = cols.index(mask_of([1, 2]))
    assert int(M[0, col]) % P == want


@pytest.mark.parametrize("row_block", [3, None])
@pytest.mark.parametrize("p", [2, 3, P, 8388593])
def test_phi_image_matches_exact_integer_minors(monkeypatch, row_block, p):
    # every row and degree at n <= 6, against d x d minors of the
    # unreduced integer matrix, reduced mod p only at the end
    if row_block is not None:
        monkeypatch.setattr(exterior, "_ROW_BLOCK", row_block)
    rng = np.random.default_rng(p)
    for n in range(1, 7):
        g = rng.integers(-3 * p, 3 * p, size=(n, n))
        entries = g.tolist()
        for d in range(1, n + 1):
            rows = exterior.revlex_column_order(n, d)
            M, cols = phi_image_matrix(rows, d, g, p)
            assert M.shape == (len(rows), len(cols))
            for r, sigma in enumerate(rows):
                for c, tau in enumerate(cols):
                    minor = [[entries[i - 1][j - 1] for j in members_of(tau)] for i in members_of(sigma)]
                    assert int(M[r, c]) == laplace_det(minor) % p


@pytest.mark.parametrize("row_block", [3, None])
@pytest.mark.parametrize("p", [2, 3, P, 8388593])
def test_phi_image_matches_the_row_block_oracle(monkeypatch, row_block, p):
    # random rows and kept columns at n <= 9, on stacks of 1-3 matrices:
    # each matrix's block of rows equals that matrix's unrestricted
    # row-block build; a row block of 3 splits inside one matrix's rows
    # and across the boundary between two
    if row_block is not None:
        monkeypatch.setattr(exterior, "_ROW_BLOCK", row_block)
    rng = np.random.default_rng(p)
    compared = 0
    for t in range(60):
        n = 1 + t % 9
        d = 1 + int(rng.integers(n))
        order = exterior.revlex_column_order(n, d)
        rows = [m for m in order if rng.random() < 0.6]
        cols = None if t % 5 == 0 else [m for m in order if rng.random() < 0.4]
        g = rng.integers(-p, 2 * p, size=(1 + t % 3, n, n))
        M, col_masks = phi_image_matrix(rows, d, g, p, cols)
        assert M.dtype == np.int64 and M.shape == (len(g) * len(rows), len(col_masks))
        for j, g_j in enumerate(g):
            want, want_cols = row_block_phi_image_matrix(rows, d, g_j, p, cols)
            assert col_masks == want_cols
            assert np.array_equal(M[j * len(rows) : (j + 1) * len(rows)], want)
        if len(g) == 1:
            assert np.array_equal(phi_image_matrix(rows, d, g[0], p, cols)[0], M)
        compared += M.size
    assert compared >= 10000


def test_wedge_step_tables_match_the_members_of_builder():
    for n in range(1, 13):
        for k in range(n):
            got, want = exterior._wedge_step(n, k), members_wedge_step(n, k)
            assert len(got) == len(want) == k + 1
            for (old_idx, elem_idx), (want_old, want_elem) in zip(got, want):
                assert np.array_equal(old_idx, want_old) and np.array_equal(elem_idx, want_elem)


@pytest.mark.parametrize("p", [P, 8388593])
def test_phi_image_of_the_full_set_is_the_determinant(p):
    # the one degree-16 minor: its last wedge step sums 16 terms of up to
    # (p-1)**2, about 2**50 at 8388593; in the second matrix of the last
    # stack, the row of that step is p - 1 on every term added and 0 on
    # every term subtracted
    n, full = 16, (1 << 16) - 1
    rng = np.random.default_rng(p)
    stacks = [rng.integers(0, p, size=(2, n, n)) for _ in range(3)]
    stacks[-1][1, -1] = np.where(np.arange(n) % 2, p - 1, 0)
    for g in stacks:
        want = [bareiss_det(g_j.tolist()) % p for g_j in g]
        M, cols = phi_image_matrix([full], n, g, p)
        assert cols == (full,) and M[:, 0].tolist() == want
        assert phi_image_matrix([full], n, g[0], p)[0].tolist() == [want[:1]]


def test_phi_image_refuses_a_stack_of_non_square_matrices():
    with pytest.raises(ValueError, match="not a square matrix or a stack of them"):
        phi_image_matrix([0b001], 1, np.ones((2, 3, 4), dtype=np.int64), 7)


@pytest.mark.parametrize("d", [0, 5])
def test_phi_image_refuses_a_degree_outside_1_n(d):
    with pytest.raises(ValueError, match="degree out of range"):
        phi_image_matrix([], d, random_gl(4, 7, 1).entries, 7)


def test_phi_image_refuses_rows_that_are_not_d_subsets():
    g = random_gl(4, 7, 1).entries
    with pytest.raises(ValueError, match="not a 2-subset"):
        phi_image_matrix([0b0111, 0b1011], 2, g, 7)  # 3-subsets in degree 2
    for past_n in (0b10001, -1):
        with pytest.raises(ValueError, match="not a 2-subset of \\[4\\]"):
            phi_image_matrix([0b0011, past_n], 2, g, 7)
    with pytest.raises(ValueError, match="field size 4"):
        phi_image_matrix([0b0011], 2, g, 4)
    # a numpy array of masks is a sequence of rows too
    M, _ = phi_image_matrix(np.array([0b0011, 0b0101]), 2, g, 7)
    assert np.array_equal(M, phi_image_matrix([0b0011, 0b0101], 2, g, 7)[0])
    # columns must be ascending, distinct d-subsets of [n]
    for cols in ([0b0101, 0b0011], [0b0011, 0b0011]):
        with pytest.raises(ValueError, match="ascending and distinct"):
            phi_image_matrix([0b0011], 2, g, 7, cols)
    for bad in (0b0111, 0b10001, -1):
        with pytest.raises(ValueError, match="column mask .* is not a 2-subset of \\[4\\]"):
            phi_image_matrix([0b0011], 2, g, 7, [0b0011, bad])
    # they pick their columns of the whole matrix, the last one included
    rows = exterior.revlex_column_order(4, 2)
    whole, order = phi_image_matrix(rows, 2, g, 7)
    for cols in ([], [0b0011], [0b0101, 0b1001, 0b1100], list(order)):
        M, got = phi_image_matrix(rows, 2, g, 7, cols)
        assert got == tuple(cols)
        assert np.array_equal(M, whole[:, [order.index(c) for c in cols]].reshape(len(rows), len(cols)))
    assert phi_image_matrix([], 2, g, 7, [0b0011, 0b1100])[0].shape == (0, 2)


@pytest.mark.parametrize(
    "g, message",
    [
        (np.full((3, 3), 1.5), "entries must be integers"),
        (np.ones((2, 3), dtype=np.int64), "not a square matrix"),
        (np.ones((3, 2), dtype=np.int64), "not a square matrix"),
        (np.ones(3, dtype=np.int64), "must be 2-D"),
        (np.zeros((0, 4, 4), dtype=np.int64), "stack of coordinate changes holds no matrix"),
    ],
)
def test_phi_image_refuses_a_malformed_coordinate_change(g, message):
    with pytest.raises(ValueError, match=message):
        phi_image_matrix([0b001], 1, g, 7)


def test_phi_image_reads_a_nested_list_as_its_array():
    g = random_gl(4, 7, 1).entries
    rows = exterior.revlex_column_order(4, 2)
    M, cols = phi_image_matrix(rows, 2, g.tolist(), 7)
    want, want_cols = phi_image_matrix(rows, 2, g, 7)
    assert cols == want_cols and np.array_equal(M, want)


@pytest.mark.parametrize(
    "entries, message",
    [
        (np.eye(4, dtype=np.int64), "shape \\(4, 4\\) are not those of a 3 x 3 matrix"),
        (np.eye(3) * 1.5, "entries must be integers"),
    ],
)
def test_generic_matrix_refuses_malformed_entries(entries, message):
    with pytest.raises(ValueError, match=message):
        GenericMatrix(3, P, 0, entries)


def test_generic_matrix_keeps_residues_of_valid_entries():
    phi = GenericMatrix(2, 7, 0, [[8, -1], [0, 1]])
    assert phi.entries.dtype == np.int64
    assert phi.entries.tolist() == [[1, 6], [0, 1]]
    assert (phi.entries @ phi.dual.T % 7).tolist() == [[1, 0], [0, 1]]


@pytest.mark.parametrize("p", [2, 3, P])
def test_compound_minors_obey_jacobi(p):
    # Jacobi's complementary minors, the identity behind eliminating a
    # degree above n/2 in degree n - d under the other matrix of the draw:
    # det g[s, t] = (-1)^(sum s + sum t) det g * det g^{-T}[s^c, t^c]
    for n in range(2, 8):
        full = (1 << n) - 1
        for phi in (random_gl(n, p, n), GenericMatrix(n, p, 0, np.triu(np.ones((n, n), dtype=np.int64)))):
            det = int(phi_image_matrix([full], n, phi.entries, p)[0][0, 0])
            for d in range(1, n):
                masks = exterior.revlex_column_order(n, d)
                M, cols = phi_image_matrix(masks, d, phi.entries, p)
                C, ccols = phi_image_matrix([full ^ m for m in masks], n - d, phi.dual, p)
                at = {t: k for k, t in enumerate(ccols)}
                for r, s_ in enumerate(masks):
                    for c, t in enumerate(cols):
                        sign = (-1) ** (sum(members_of(s_)) + sum(members_of(t)))
                        assert int(M[r, c]) == sign * det * int(C[r, at[full ^ t]]) % p


def test_gin_path_graph():
    cx = from_facets(3, [[1, 2], [2, 3]])
    g = gin(cx, seed=4)
    assert [members_of(m) for m in minimal_nonfaces(g)] == [(1, 2)]


def test_gin_fixes_shifted():
    rng = random.Random(5)
    for t in range(8):
        n = rng.randint(2, 6)
        sc, _ = shift_to_shifted(random_complex(n, 0.5, 40 + t))
        assert gin(sc, seed=t).faces == sc.faces


def test_gin_full_simplex():
    assert gin(full_simplex(4), seed=0).faces == full_simplex(4).faces


def test_gin_postconditions_and_seed_independence():
    rng = random.Random(6)
    for t in range(10):
        n = rng.randint(2, 7)
        cx = random_complex(n, rng.choice([0.2, 0.5, 0.8]), 60 + t)
        a = gin(cx, seed=1000 + t)
        b = gin(cx, seed=77_000 + 13 * t)
        assert a.faces == b.faces
        assert is_shifted(a)
        assert f_vector(a) == f_vector(cx)


def test_gin_strongly_stable_nonfaces():
    rng = random.Random(8)
    for t in range(6):
        cx = random_complex(rng.randint(3, 6), 0.5, 80 + t)
        g = gin(cx, seed=t)
        slices = ideal_slices(g)
        for d, mons in slices.items():
            for m in mons:
                for j in members_of(m):
                    for i in range(1, j):
                        if m >> (i - 1) & 1:
                            continue
                        assert (m & ~(1 << (j - 1))) | (1 << (i - 1)) in mons


def test_m_leq_via_rank_edges():
    cx = from_facets(4, [[1, 4], [2, 3, 4]])
    assert one_draw_counts(cx, 2, seed=1)[1] == 0  # i < d
    slices = ideal_slices(cx)
    for d in range(1, 5):
        assert one_draw_counts(cx, d, seed=2)[4] == len(slices[d])


def test_m_leq_via_rank_matches_gin_counts():
    rng = random.Random(9)
    for t in range(6):
        n = rng.randint(2, 6)
        cx = random_complex(n, rng.choice([0.3, 0.6]), 90 + t)
        gs = ideal_slices(gin(cx, seed=500 + t))
        for d in range(1, n + 1):
            counts = one_draw_counts(cx, d, seed=31 + t)
            for i in range(1, n + 1):
                assert counts[i] == m_leq(gs, i, d)


def test_rank_monotone_under_shift():
    rng = random.Random(10)
    for t in range(4):
        n = rng.randint(3, 5)
        cx = random_complex(n, 0.5, 110 + t)
        for i_ in range(1, n):
            for j_ in range(i_ + 1, n + 1):
                sh = shift_ij(cx, i_, j_)
                for d in range(1, n + 1):
                    after, before = one_draw_counts(sh, d, seed=3), one_draw_counts(cx, d, seed=4)
                    for i in range(d, n + 1):
                        assert after[i] <= before[i]


def test_pivot_prefix_equals_rank_statistic():
    # the number of pivots in a revlex prefix equals the rank statistic
    cx = random_complex(5, 0.5, 123)
    phi = random_gl(5, P, 55)
    for d in range(2, 5):
        if not ideal_slices(cx)[d]:
            continue
        M, cols = phi_image_matrix(slice_rows(cx, d), d, phi.entries, P)
        piv = gfp.pivot_columns(M, P)
        for i in range(d, 6):
            prefix = comb(i, d)
            assert all(cols[c].bit_length() <= i for c in range(prefix))
            assert sum(1 for c in piv if c < prefix) == len(gfp.pivot_columns(M[:, :prefix], P))


def test_gfp_inverse_oracle():
    rng = np.random.default_rng(3)
    for p in (2, 5, P):
        for n in (1, 2, 4, 9):
            for _ in range(10):
                a = rng.integers(0, p, size=(n, n))
                try:
                    inv = gfp.inverse(a, p)
                except gfp.SingularMatrixError:
                    assert len(gfp.pivot_columns(a, p)) < n
                    continue
                assert len(gfp.pivot_columns(a, p)) == n
                assert np.array_equal(a @ inv % p, np.eye(n))
                assert np.array_equal(inv @ a % p, np.eye(n))
    with pytest.raises(gfp.SingularMatrixError):
        gfp.inverse([[1, 2], [2, 4]], P)
    with pytest.raises(gfp.SingularMatrixError):
        gfp.inverse([[2, 1], [1, 3]], 5)  # determinant 5
    with pytest.raises(ValueError):
        gfp.inverse(np.ones((2, 3), dtype=int), P)


def test_random_gl_refuses_bad_field_before_drawing():
    for p in (0, -3, 4):
        with pytest.raises(ValueError, match="field size"):
            random_gl(3, p, 1)


def random_facet_complex(rng, n):
    facets = [[v] for v in range(1, n + 1)]
    for _ in range(rng.randint(1, 2 * n)):
        facets.append(rng.sample(range(1, n + 1), rng.randint(2, n - 1)))
    return from_facets(n, facets)


def test_face_side_matches_ideal_side():
    # the face side's reversed-order pivots are the complement of the
    # ideal side's pivots for every draw, generic or not: a draw over
    # GF(3) is often degenerate, and a unitriangular draw is never generic.
    # Both sides, in the complementary degree where 2d > n, must give the
    # pivots of the degree-d compound matrix itself.
    rng = random.Random(12)
    compared = {False: 0, True: 0}  # keyed by which side gin would pick
    complemented = 0
    for t in range(160):
        n = rng.randint(3, 8)
        cx = random_facet_complex(rng, n)
        draws = (
            random_gl(n, P, 900 + t),
            random_gl(n, 3, 900 + t),
            GenericMatrix(n, P, 0, np.triu(np.ones((n, n), dtype=np.int64))),
        )
        identity = GenericMatrix(n, P, 0, np.eye(n, dtype=np.int64))
        for d in range(1, n + 1):
            slice_d = ideal_degree_slice(cx, d)
            if not 0 < len(slice_d) < comb(n, d):
                continue
            bits_d, layer = complexes._slice_bits(n, cx.bits, d), complexes._layer_bits(n, d)
            for phi in draws:
                ideal = direct_eliminate(slice_d, d, phi, on_faces=False)
                assert direct_eliminate(slice_d, d, phi, on_faces=True) == ideal
                for on_faces in (False, True):
                    assert unpacked(exterior._eliminate(bits_d, d, (phi,), on_faces, layer)[0]) == ideal
            for on_faces in (False, True):
                assert exterior._eliminate(bits_d, d, (identity,), on_faces, layer) == [bits_d]
            compared[comb(n, d) - len(slice_d) < len(slice_d)] += 1
            complemented += 2 * d > n
    assert min(compared.values()) >= 100
    assert complemented >= 100


def test_gin_draw_matches_direct_elimination():
    # a draw leaves out the columns its neighbouring degree rules out; the
    # pivots must be those of the whole degree-d compound matrix in every
    # degree, for every draw: random ones, degenerate ones over GF(3), the
    # identity and upper-triangular ones, none of which is generic
    rng = random.Random(15)
    compared = 0
    for t in range(70):
        n = 3 + t % 7
        cx = random_facet_complex(rng, n)
        slices, bits = ideal_slices(cx), slice_bits(cx)
        upper = np.triu(np.random.default_rng(t).integers(1, P, size=(n, n)))
        draws = (
            random_gl(n, P, 700 + t),
            random_gl(n, 3, 700 + t),
            GenericMatrix(n, P, 0, np.eye(n, dtype=np.int64)),
            GenericMatrix(n, P, 0, np.triu(np.ones((n, n), dtype=np.int64))),
            GenericMatrix(n, P, 0, upper),
        )
        for phi in draws:
            (got,) = exterior._gin_draw(bits, phi)
            assert sorted(got) == list(range(n + 1))
            for d, slice_d in slices.items():
                if 0 < len(slice_d) < comb(n, d):
                    assert unpacked(got[d]) == direct_eliminate(slice_d, d, phi, on_faces=False)
                    compared += 1
                else:
                    assert got[d] == bits[d]
    assert compared >= 1000


def kept_columns(n, d, nonfaces, on_faces):
    """The d-subsets a draw's elimination keeps, from that draw's non-face
    masks of the neighbouring degree (None: all of them)."""
    order = exterior.revlex_column_order(n, d)
    if on_faces:
        below = nonfaces[d - 1]
        return tuple(m for m in order if not any(m & ~(1 << (v - 1)) in below for v in members_of(m)))
    if nonfaces.get(d + 1) is None:
        return order
    above = set(exterior.revlex_column_order(n, d + 1)) - nonfaces[d + 1]
    inside = {f & ~(1 << (v - 1)) for f in above for v in members_of(f)}
    return tuple(m for m in order if m not in inside)


def elimination_order(n, slices):
    """The degrees a draw eliminates, with their side, in gin's order, and
    the draw's non-faces known before the first: the slice where it is
    empty or full, else None."""
    nonfaces = {d: s if not 0 < len(s) < comb(n, d) else None for d, s in slices.items()}
    n_faces = {d: comb(n, d) - len(s) for d, s in slices.items()}
    ideal_side = [d for d in range(n, -1, -1) if nonfaces[d] is None and n_faces[d] >= len(slices[d])]
    face_side = [d for d in range(n + 1) if nonfaces[d] is None and d not in ideal_side]
    return [(d, False) for d in ideal_side] + [(d, True) for d in face_side], nonfaces


def record_phi_calls(monkeypatch):
    """Record (rows, degree, g, column masks) of each phi_image_matrix call
    made through exterior, checking the stacked shape of its matrix."""
    calls = []
    real = exterior.phi_image_matrix

    def recorded(rows, d, g, p, cols=None):
        M, col_masks = real(rows, d, g, p, cols)
        assert M.shape == (len(g) * len(rows), len(col_masks))
        calls.append((len(rows), d, g, col_masks))
        return M, col_masks

    monkeypatch.setattr(exterior, "phi_image_matrix", recorded)
    return calls


def test_gin_degree_eliminates_on_smaller_side(monkeypatch):
    # each matrix has the fewer rows of the two sides and is built in
    # degree min(d, n - d): under phi^{-T} on the face side in a direct
    # degree (2d <= n) and on the ideal side in a complemented one.  The
    # ideal-side degrees run descending, then the face-side ones ascending,
    # and each keeps exactly the columns its neighbouring degree allows.
    # Two agreeing draws run in lockstep: one call per degree, on both
    # draws' matrices stacked
    n = 8
    full = (1 << n) - 1
    cx = random_facet_complex(random.Random(13), n)
    phis = (random_gl(n, P, 5), random_gl(n, P, 6))
    slices = ideal_slices(cx)
    calls = record_phi_calls(monkeypatch)
    exterior._gin_draw(slice_bits(cx), *phis)

    order, nonfaces = elimination_order(n, slices)
    expected, sides, dropped = [], set(), set()
    for d, on_faces in order:
        kept = kept_columns(n, d, nonfaces, on_faces)
        built = kept if 2 * d <= n else tuple(full ^ m for m in reversed(kept))
        n_faces = comb(n, d) - len(slices[d])
        expected.append((min(len(slices[d]), n_faces), min(d, n - d), on_faces == (2 * d <= n), built))
        sides.add((on_faces, (2 * d > n) - (2 * d < n)))
        if len(kept) < comb(n, d):
            dropped.add(on_faces)
        nonfaces[d] = direct_eliminate(slices[d], d, phis[0], on_faces=False)
        assert direct_eliminate(slices[d], d, phis[1], on_faces=False) == nonfaces[d]
    got = []
    for rows, d, g, col_masks in calls:
        dual = np.array_equal(g, [phi.dual for phi in phis])
        assert dual or np.array_equal(g, [phi.entries for phi in phis])
        got.append((rows, d, dual, col_masks))
    assert got == expected
    # both sides, a tie degree (d = 4) and a complemented degree are covered,
    # and each side leaves out columns at least once
    assert {True, False} <= {on_faces for on_faces, _ in sides}
    assert {-1, 0, 1} <= {where for _, where in sides}
    assert dropped == {True, False}


def test_gin_draws_in_lockstep_keep_the_union_of_their_columns(monkeypatch):
    # with an identity second draw the draws disagree, so their kept
    # columns differ; each lockstep matrix keeps exactly their union, and
    # every draw's result is the one it gets alone
    rng = random.Random(16)
    widened = 0
    for t in range(30):
        n = 5 + t % 4
        cx = random_facet_complex(rng, n)
        full = (1 << n) - 1
        slices, bits = ideal_slices(cx), slice_bits(cx)
        phis = (random_gl(n, P, 300 + t), GenericMatrix(n, P, 0, np.eye(n, dtype=np.int64)))
        alone = [exterior._gin_draw(bits, phi)[0] for phi in phis]
        with monkeypatch.context() as m:
            calls = record_phi_calls(m)
            assert exterior._gin_draw(bits, *phis) == tuple(alone)
        order, known = elimination_order(n, slices)
        assert len(calls) == len(order)
        per_draw = [dict(known) for _ in phis]
        for (d, on_faces), (_, _, _, built) in zip(order, calls):
            kept = [set(kept_columns(n, d, nonfaces, on_faces)) for nonfaces in per_draw]
            union = sorted(kept[0] | kept[1])
            assert list(built) == (union if 2 * d <= n else [full ^ m for m in reversed(union)])
            widened += kept[0] != kept[1]
            for nonfaces, result in zip(per_draw, alone):
                nonfaces[d] = unpacked(result[d])
    assert widened >= 30


def test_rank_check_guards_both_routes(monkeypatch):
    # a dropped pivot is a library bug: InvariantError, in a direct degree
    # (2d <= n) and in a complemented one, whichever side eliminates
    monkeypatch.setattr(gfp, "pivot_columns", lambda M, p: list(range(M.shape[0] - 1)))
    cx = random_facet_complex(random.Random(13), 8)
    phi = random_gl(8, P, 5)
    for d in (3, 6):  # both slices are neither empty nor full
        slice_d = complexes._slice_bits(8, cx.bits, d)
        assert 0 < slice_d.bit_count() < comb(8, d)
        for on_faces in (False, True):
            with pytest.raises(InvariantError, match="must be independent"):
                exterior._eliminate(slice_d, d, (phi,), on_faces, complexes._layer_bits(8, d))


def test_gin_builds_each_slice_once(monkeypatch):
    # the draws also read slices of their own results; a slice of the
    # input is one of the input's bits
    calls = []
    real = exterior._slice_bits

    def counted(n, bits, d):
        calls.append((bits, d))
        return real(n, bits, d)

    monkeypatch.setattr(exterior, "_slice_bits", counted)
    cx = random_facet_complex(random.Random(14), 7)
    gin(cx, seed=3)
    assert sorted(d for bits, d in calls if bits == cx.bits) == list(range(cx.n + 1))


def test_genericity_error_names_first_differing_degree(monkeypatch):
    # every second draw is the identity, which leaves the slices unshifted
    real = exterior.random_gl
    draws = itertools.count()

    def alternating(n, p, seed):
        if next(draws) % 2:
            return GenericMatrix(n, p, seed, np.eye(n, dtype=np.int64))
        return real(n, p, seed)

    monkeypatch.setattr(exterior, "random_gl", alternating)
    pairs = [[i, j] for i in range(1, 6) for j in range(i + 1, 6)]
    cx = from_facets(5, pairs + [[1, 2, 3]])  # first non-shifted slice: degree 3
    with pytest.raises(exterior.GenericityError, match=r"across 3 attempts; .* per attempt: \[3, 3, 3\]"):
        gin(cx, seed=1)


# the real projective plane on 6 vertices: H~_1 = H~_2 = GF(2) over GF(2),
# acyclic over every other field
RP2 = from_facets(6, [[1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 6], [1, 2, 6],
                      [2, 3, 5], [2, 4, 5], [2, 4, 6], [3, 4, 6], [3, 5, 6]])


def test_gin_refuses_agreeing_draws_that_change_reduced_homology():
    # at p = 3 and seed 1 the first pair of draws agrees on a shifted
    # complex with RP2's homology over GF(2), which is not Delta^e in
    # characteristic 3; the other two pairs disagree in degree 3
    assert reduced_homology_dims(RP2, 2) == (0, 0, 1, 1)
    assert reduced_homology_dims(RP2, 3) == (0, 0, 0, 0)
    with pytest.raises(exterior.GenericityError, match=r"GF\(3\) across 3 attempts; .* per attempt: \['H~', 3, 3\]"):
        gin(RP2, 3, 1)
    assert reduced_homology_dims(gin(RP2), P) == (0, 0, 0, 0)


def test_gin_retries_after_a_homology_mismatch(monkeypatch):
    # a mismatch is one failed attempt: the next pair of draws runs
    real_dims, real_gl = exterior.reduced_homology_dims, exterior.random_gl
    checks, draws = [], []

    def first_result_mismatches(cx, p):
        checks.append(cx)
        dims = real_dims(cx, p)
        return dims + (1,) if len(checks) == 2 else dims

    monkeypatch.setattr(exterior, "reduced_homology_dims", first_result_mismatches)
    monkeypatch.setattr(exterior, "random_gl", lambda n, p, seed: draws.append(seed) or real_gl(n, p, seed))
    cx = random_facet_complex(random.Random(17), 6)
    result = gin(cx, seed=1)
    assert draws == [1, 1 + 7919, 1 + 1_000_003, 1 + 1_000_003 + 7919]
    assert [c.bits for c in checks] == [cx.bits, result.bits, result.bits]
    monkeypatch.undo()
    assert gin(cx, seed=1).faces == result.faces


@pytest.mark.parametrize(
    "drawn, error, message, attempts",
    [
        # the path 2-1-3 has the input's f-vector and homology, but is not shifted
        (from_facets(3, [[1, 2], [1, 3]]), exterior.GenericityError,
         r"per attempt: \['not shifted', 'not shifted', 'not shifted'\]", 3),
        # the rank check fixes every |I_d|, so another f-vector is a library bug
        (full_simplex(3), InvariantError, "the f-vector changed", 1),
    ],
    ids=["not-shifted", "other-f-vector"],
)
def test_gin_refuses_agreeing_draws_on_a_wrong_complex(monkeypatch, drawn, error, message, attempts):
    # both draws return the same slices, of a complex gin cannot return: a
    # complex that is not shifted fails one attempt, and gin draws again
    draws = []
    monkeypatch.setattr(
        exterior, "_gin_draw", lambda slices, *phis: draws.append(phis) or tuple(slice_bits(drawn) for _ in phis)
    )
    with pytest.raises(error, match=message):
        gin(from_facets(3, [[1, 2], [2, 3]]))
    assert len(draws) == attempts


def test_gin_at_a_small_prime_returns_only_the_large_prime_result():
    # a pair of agreeing draws whose result is not shifted is one failed
    # attempt, not the end of the run; every complex gin returns at a
    # small prime is the p = 32003 one on this corpus
    corpus = [cx for n in range(2, 5) for cx in all_strict_complexes(n)]
    assert len(corpus) == 125
    want = [gin(cx, P, 1) for cx in corpus]
    returned = {}
    for p in (3, 5, 7):
        returned[p] = 0
        for cx, w in zip(corpus, want):
            try:
                got = gin(cx, p, 1)
            except exterior.GenericityError:
                continue
            assert got == w
            returned[p] += 1
    assert returned == {3: 77, 5: 106, 7: 107}


def test_gin_draws_again_after_agreeing_draws_that_are_not_shifted():
    # at p = 5 and seed 1 the first pair of draws differs in degree 2, the
    # second agrees on a complex that is not shifted, and the third gives
    # the p = 32003 result
    cx = from_facets(4, [[1, 3], [2, 3], [4]])
    want = from_facets(4, [[1], [2, 4], [3, 4]])
    assert gin(cx, P, 1) == want
    assert gin(cx, 5, 1) == want


def test_errors_exported_from_the_package():
    import shiftlab

    assert issubclass(shiftlab.GenericityError, shiftlab.ShiftlabError)
    assert shiftlab.GenericityError is exterior.GenericityError
    # an invariant failure is a library bug, not a refusal
    assert issubclass(InvariantError, AssertionError) and not issubclass(InvariantError, ShiftlabError)
    assert shiftlab.InvariantError is complexes.InvariantError
    assert {"GenericityError", "InvariantError", "ShiftlabError"} <= set(shiftlab.__all__)
