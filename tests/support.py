"""Shared test helpers: exhaustive complex enumeration and brute-force oracles."""

import functools
import itertools
import random

import numpy as np

from shiftlab import (
    SimplicialComplex,
    f_vector,
    from_faces,
    mask_of,
    members_of,
    phi_image_matrix,
)
from shiftlab import complexes, gfp
from shiftlab.exterior import revlex_column_order
from shiftlab.homology import boundary_matrix


# ten seeded (n, density, seed) triples at each n = 6, 7, 8, over three densities
SEEDED = [(n, (0.05, 0.1, 0.2)[t % 3], 1000 * n + t) for n in (6, 7, 8) for t in range(10)]


def all_strict_complexes(n):
    """Every simplicial complex on [n] (each vertex a face), by level-wise DFS.

    Feasible up to n = 5 (a few thousand complexes).
    """
    singletons = [1 << v for v in range(n)]

    def extend(faces, d):
        if d > n:
            yield from_faces(n, faces)
            return
        candidates = [
            mask_of(c)
            for c in itertools.combinations(range(1, n + 1), d)
            if all(mask_of(c) & ~(1 << (v - 1)) in faces for v in c)
        ]
        for r in range(len(candidates) + 1):
            for pick in itertools.combinations(candidates, r):
                yield from extend(faces | set(pick), d + 1)

    yield from extend({0, *singletons}, 2)


def forbid_bit_view(monkeypatch):
    """Make the first steps of building a complex raise: packing its bit
    view and closing it.  A size refused when built then never reaches
    them, and a missing bound fails a test instead of allocating 2^n
    bits."""

    def no_bit_view(*args):
        raise AssertionError("a bit view was built")

    monkeypatch.setattr(complexes, "_bits_of", no_bit_view)
    monkeypatch.setattr(complexes, "_shadow", no_bit_view)


def subsets_of(mask):
    """All submasks of a face mask, including 0 and the mask itself."""
    if mask < 0:
        raise ValueError(f"negative face mask {mask}")
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def brute_closure(masks):
    """The downward closure of ``masks`` plus the empty face, subset by
    subset: the oracle for the bit-view closure of ``from_facets``."""
    closed = {0}
    for m in masks:
        if m not in closed:
            closed.update(subsets_of(m))
    return frozenset(closed)


def brute_facets(cx: SimplicialComplex):
    """Faces with no face one vertex larger, by (degree, members)."""
    out = [
        f
        for f in cx.faces
        if not any((f | (1 << v)) in cx.faces for v in range(cx.n) if not f >> v & 1)
    ]
    return tuple(sorted(out, key=lambda m: (m.bit_count(), members_of(m))))


def brute_minimal_nonfaces(cx: SimplicialComplex):
    """Non-faces whose one-vertex-smaller subsets are all faces, listed
    degree by degree in ascending-tuple order."""
    out = []
    for d in range(1, cx.n + 1):
        for c in itertools.combinations(range(1, cx.n + 1), d):
            mask = mask_of(c)
            if mask not in cx.faces and all(mask & ~(1 << (v - 1)) in cx.faces for v in c):
                out.append(mask)
    return out


def brute_lex_greater(a, b):
    """Independent lex comparator: sort exponent vectors, compare tuples."""
    ta, tb = members_of(a), members_of(b)
    return ta < tb


def brute_revlex_greater(a, b):
    """Independent revlex comparator via descending member tuples."""
    ta = tuple(sorted(members_of(a), reverse=True))
    tb = tuple(sorted(members_of(b), reverse=True))
    return ta < tb


@functools.lru_cache(maxsize=1)
def classified_section4():
    """Shared classification of the 15-vertex construction (a few seconds)."""
    from shiftlab import section4_enumerate_and_classify

    return section4_enumerate_and_classify()


@functools.lru_cache(maxsize=1)
def section4_gin():
    """Shared exterior shift of the 15-vertex construction at gin's
    default p = 32003, seed 1 (about 3 s)."""
    from shiftlab import gin, section4_build

    return gin(section4_build(), p=32003, seed=1)


def _brute_faces_shifted(n, faces) -> bool:
    """``brute_is_shifted`` on a frozenset of face masks."""
    for f in faces:
        mem = members_of(f)
        for i in mem:
            for j in range(i + 1, n + 1):
                if j in mem:
                    continue
                repl = set(mem) - {i} | {j}
                if mask_of(repl) not in faces:
                    return False
    return True


def brute_is_shifted(cx: SimplicialComplex) -> bool:
    """Quantifier spelled out face by face, independent of the library path."""
    return _brute_faces_shifted(cx.n, cx.faces)


def _brute_shift_faces(faces, i: int, j: int):
    """C_ij on a frozenset of face masks, face by face."""
    bi, bj = 1 << (i - 1), 1 << (j - 1)
    out = set()
    for f in faces:
        if f & bi and not f & bj:
            moved = (f & ~bi) | bj
            out.add(moved if moved not in faces else f)
        else:
            out.add(f)
    return frozenset(out)


def brute_shift_ij(cx: SimplicialComplex, i: int, j: int) -> SimplicialComplex:
    """C_ij applied face by face: replace i by j unless the image is a face."""
    return from_faces(cx.n, _brute_shift_faces(cx.faces, i, j))


def brute_enumerate_shifted(cx: SimplicialComplex, pairs, state_limit=None):
    """Every state reachable by C_ij steps over ``pairs``, taken face by
    face on frozensets of masks, kept when the face-by-face shiftedness
    test holds; every state is tested, whether or not some pair still
    moves it.  Raises ``RuntimeError`` when more than ``state_limit``
    states are reachable, whatever the visiting order."""
    seen = {cx.faces}
    todo = [cx.faces]
    while todo:
        state = todo.pop()
        for i, j in pairs:
            nxt = _brute_shift_faces(state, i, j)
            if nxt not in seen:
                if state_limit is not None and len(seen) >= state_limit:
                    raise RuntimeError("state limit exceeded")
                seen.add(nxt)
                todo.append(nxt)
    return {from_faces(cx.n, state) for state in seen if _brute_faces_shifted(cx.n, state)}


def s_ij_zero(slices, i, j):
    """C_ij on the ideal side: the t = 0 exchange map on a family of
    ideal degree slices, an oracle for ``ideal_slices(shift_ij(cx, i, j))``.

    For a monomial with j present and i absent whose exchanged support
    (j replaced by i) is NOT in the slice family, the exchange is
    performed; all other monomials are kept.  Note the roles of i and j
    are reversed relative to C_ij: here j is removed and i inserted.
    """
    if not i < j:
        raise ValueError("require i < j")
    bi, bj = 1 << (i - 1), 1 << (j - 1)
    out = {}
    for d, mons in slices.items():
        moved = set()
        for m in mons:
            if m & bj and not m & bi:
                img = (m & ~bj) | bi
                moved.add(img if img not in mons else m)
            else:
                moved.add(m)
        out[d] = frozenset(moved)
    return out


def brute_shift_to_shifted(cx: SimplicialComplex, strategy: str = "sweep", seed: int = 0):
    """One loop per strategy, each applying full C_ij shifts face by face
    on frozensets of masks (as ``brute_shift_ij`` and ``brute_is_shifted``
    do); only the result is built as a complex.

    ``sweep`` scans the pairs in lexicographic order, applies the first
    that changes the complex and restarts, until the complex is shifted;
    ``random`` builds every pair's shift, collects those that change the
    complex and applies a seeded uniform choice among them.
    """
    n = cx.n
    max_steps = 10 * n * n * len(cx.faces)
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    seq = []
    cur = cx.faces
    steps = 0
    if strategy == "sweep":
        while not _brute_faces_shifted(n, cur):
            changed = False
            for i, j in pairs:
                nxt = _brute_shift_faces(cur, i, j)
                steps += 1
                if steps > max_steps:
                    raise RuntimeError("shift iteration limit exceeded")
                if nxt != cur:
                    seq.append((i, j))
                    cur = nxt
                    changed = True
                    break
            if not changed:
                break
    else:
        rng = random.Random(seed)
        while True:
            moves = []
            for i, j in pairs:
                nxt = _brute_shift_faces(cur, i, j)
                if nxt != cur:
                    moves.append(((i, j), nxt))
            if not moves:
                break
            (i, j), cur = moves[rng.randrange(len(moves))]
            seq.append((i, j))
            steps += 1
            if steps > max_steps:
                raise RuntimeError("shift iteration limit exceeded")
    return from_faces(n, cur), tuple(seq)


def brute_pivot_columns(rows, p):
    """Left-to-right Gaussian elimination mod p on lists of integers.

    A column carries a pivot exactly when it raises the rank of the
    columns before it, whichever row is chosen to eliminate with.
    """
    rest = [[x % p for x in row] for row in rows]
    pivots = []
    for c in range(len(rest[0]) if rest else 0):
        t = next((k for k, row in enumerate(rest) if row[c]), None)
        if t is None:
            continue
        pivots.append(c)
        top = rest.pop(t)
        inv = pow(top[c], p - 2, p)
        rest = [[(x - row[c] * inv * y) % p for x, y in zip(row, top)] for row in rest]
    return pivots


def columnwise_pivot_columns(mat, p):
    """Left-to-right elimination mod p one column at a time, over every
    row and every column: the oracle for ``gfp.pivot_columns`` on shapes
    too large for ``brute_pivot_columns``.

    Pivot k writes column k of F and row k of R; each column is
    corrected by F @ R on demand, and the whole matrix is updated when
    the panel of min(gfp._PANEL, m) pivots is full.
    """
    gfp.check_field(p)
    M = np.ascontiguousarray(np.asarray(mat) % p, dtype=np.float64)
    m, nc = M.shape
    if m == 0 or nc == 0:
        return []
    w = min(gfp._PANEL, m)
    F = np.zeros((m, w))
    R = np.zeros((w, nc))
    k = 0
    pivots = []
    eligible = np.ones(m, dtype=bool)
    for c in range(nc):
        col = M[:, c]
        if k:
            col = (col - F[:, :k] @ R[:k, c]) % p
        cand = np.nonzero(eligible & (col != 0))[0]
        if cand.size == 0:
            continue
        t = int(cand[0])
        pivots.append(c)
        if len(pivots) == m:
            break
        eligible[t] = False
        R[k] = (M[t] - F[t, :k] @ R[:k]) % p if k else M[t]
        F[:, k] = col * pow(int(col[t]), p - 2, p) % p
        k += 1
        if k == w:
            M = (M - F @ R) % p
            k = 0
    return pivots


def laplace_det(a):
    """Determinant of a square list of Python ints by Laplace expansion
    along the first row: exact at any size of entry."""
    if not a:
        return 1
    return sum((-1) ** j * x * laplace_det([row[:j] + row[j + 1 :] for row in a[1:]]) for j, x in enumerate(a[0]) if x)


def direct_eliminate(slice_d, d, phi, on_faces):
    """Degree-d gin monomials of one draw from the degree-d compound
    matrix itself, on either side: the oracle for the library's
    elimination, which builds degrees above n/2 from complementary minors.

    Ideal side: rows I_d under phi, pivots in ascending column order.
    Face side: rows the d-faces under phi^{-T}, the complement of its
    pivots in descending column order.
    """
    rows = [m for m in revlex_column_order(phi.n, d) if (m in slice_d) != on_faces]
    M, cols = phi_image_matrix(rows, d, phi.dual if on_faces else phi.entries, phi.p)
    if on_faces:
        M, cols = M[:, ::-1], cols[::-1]
    lead = frozenset(cols[c] for c in gfp.pivot_columns(M, phi.p))
    return frozenset(cols) - lead if on_faces else lead


def numpy_reduced_homology_dims(cx: SimplicialComplex, p: int):
    """Reduced homology dimensions from numpy boundary matrices, ranked by
    ``gfp.pivot_columns`` in every degree with no clearing: the oracle
    for the library's sparse elimination."""
    sizes = (1,) + f_vector(cx)  # sizes[k] faces have k vertices
    ranks = [0] + [len(gfp.pivot_columns(boundary_matrix(cx, k, p), p)) for k in range(len(sizes) - 1)] + [0]
    return tuple(size - ranks[i] - ranks[i + 1] for i, size in enumerate(sizes))


def brute_hochster_betti(cx: SimplicialComplex, p: int):
    """Hochster's sum with no shortcut: every vertex subset W, including
    the faces, with the faces of each Delta_W grouped by size here and
    each boundary matrix built from those groups."""
    table = {}
    for w in range(1, 1 << cx.n):
        by_size = {}
        for f in sorted(f for f in cx.faces if f & ~w == 0):
            by_size.setdefault(f.bit_count(), []).append(f)
        top = max(by_size)
        # ranks[k]: rank of d_k, from the (k+1)-vertex faces to the k-vertex faces
        ranks = {}
        for k in range(top):
            rows, cols = by_size[k], by_size[k + 1]
            index = {f: r for r, f in enumerate(rows)}
            mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
            for c, f in enumerate(cols):
                for pos, v in enumerate(members_of(f)):
                    mat[index[f & ~(1 << (v - 1))], c] = (-1) ** pos % p
            ranks[k] = len(gfp.pivot_columns(mat, p))
        for k in range(-1, top):
            dim_k = len(by_size[k + 1]) - ranks.get(k, 0) - ranks.get(k + 1, 0)
            i, j = w.bit_count() - k - 2, k + 2
            if dim_k and i >= 0:
                table[(i, j)] = table.get((i, j), 0) + dim_k
    return table
