"""Combinatorial shifting: the Erdos-Ko-Rado exchange operator.

``shift_ij`` replaces i by j (i < j) in every face whose exchanged image
is not already a face.  Iterating such steps until the complex is
shifted produces a combinatorial shifted complex; different step orders
may produce different results, which ``enumerate_shifted`` explores
exhaustively.
"""

from __future__ import annotations

import random
from typing import Iterable

from .complexes import STRICT, InvariantError, ShiftlabError, SimplicialComplex, is_shifted

ShiftSequence = tuple[tuple[int, int], ...]


def _check_pair(n: int, i: int, j: int) -> None:
    if not 1 <= i < j <= n:
        raise ValueError(f"pair ({i},{j}) out of range for n={n}")


def shift_ij(cx: SimplicialComplex, i: int, j: int) -> SimplicialComplex:
    """Apply the exchange operator C_ij to every face.

    C_ij(sigma) = (sigma - i) + j when i is in sigma, j is not, and the
    exchanged set is not already a face; otherwise sigma is kept.  The
    input itself is returned when no face moves.
    """
    if cx.mode != STRICT:
        raise ValueError("shifting requires a strict-mode complex")
    _check_pair(cx.n, i, j)
    bi, bj = 1 << (i - 1), 1 << (j - 1)
    flip = bi | bj
    faces = cx.faces
    moved = {f ^ flip for f in faces if f & flip == bi} - faces
    if not moved:
        return cx
    out = (faces - {m ^ flip for m in moved}) | moved
    # downward closure is a theorem for C_ij; check it cheaply
    if len(out) != len(faces):
        raise InvariantError("C_ij must be injective on faces")
    return SimplicialComplex(cx.n, frozenset(out), STRICT)


def _all_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]


def _moves(faces: frozenset[int], i: int, j: int) -> bool:
    """Whether C_ij changes the face set: some face holds i, not j, and
    its exchanged image is not a face.  Stops at the first such face."""
    bi = 1 << (i - 1)
    flip = bi | 1 << (j - 1)
    return any(f & flip == bi and f ^ flip not in faces for f in faces)


def shift_to_shifted(
    cx: SimplicialComplex, strategy: str = "sweep", seed: int = 0
) -> tuple[SimplicialComplex, ShiftSequence]:
    """Iterate shift_ij until the complex is shifted.

    Each step applies one of the pairs (i,j) whose C_ij changes the
    complex: ``sweep`` takes the first in lexicographic order
    (deterministic), ``random`` a seeded uniform choice among them.  No
    pair changes the complex exactly when it is shifted, which ends the
    loop.  Returns the shifted complex and the replayable sequence.
    """
    if cx.mode != STRICT:
        raise ValueError("shifting requires a strict-mode complex")
    if strategy not in ("sweep", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")
    rng = random.Random(seed)
    max_steps = 10 * cx.n * cx.n * len(cx.faces)
    pairs = _all_pairs(cx.n)
    seq: list[tuple[int, int]] = []
    cur = cx
    while moving := [(i, j) for i, j in pairs if _moves(cur.faces, i, j)]:
        if len(seq) >= max_steps:
            raise ShiftlabError("shift iteration limit exceeded")
        i, j = moving[0] if strategy == "sweep" else moving[rng.randrange(len(moving))]
        cur = shift_ij(cur, i, j)
        seq.append((i, j))
    if not is_shifted(cur):
        raise InvariantError("no pair moves, yet the complex is not shifted")
    return cur, tuple(seq)


def replay(cx: SimplicialComplex, seq: Iterable[tuple[int, int]]) -> SimplicialComplex:
    """Apply a recorded shift sequence."""
    cur = cx
    for i, j in seq:
        cur = shift_ij(cur, i, j)
    return cur


def enumerate_shifted(
    cx: SimplicialComplex,
    state_limit: int = 100_000,
    candidate_pairs: list[tuple[int, int]] | None = None,
) -> set[SimplicialComplex]:
    """All shifted complexes reachable from cx by shift_ij steps.

    Breadth-first closure over every intermediate state (a non-shifted
    intermediate may lead to shifted states unreachable otherwise),
    memoized on the exact face-set encoding.  Raises if more than
    ``state_limit`` states are visited.
    """
    if cx.mode != STRICT:
        raise ValueError("shifting requires a strict-mode complex")
    pairs = candidate_pairs if candidate_pairs is not None else _all_pairs(cx.n)
    for i, j in pairs:
        _check_pair(cx.n, i, j)
    visited = {cx.faces}
    frontier = [cx]
    shifted_out: set[SimplicialComplex] = set()
    while frontier:
        nxt_frontier = []
        for state in frontier:
            moved = [nxt for i, j in pairs if (nxt := shift_ij(state, i, j)) is not state]
            # a shifted complex is fixed by every C_ij: only a state no pair moves can be one
            if not moved and is_shifted(state):
                shifted_out.add(state)
            for nxt in moved:
                if nxt.faces in visited:
                    continue
                if len(visited) >= state_limit:
                    raise ShiftlabError("enumerate_shifted state limit exceeded")
                visited.add(nxt.faces)
                nxt_frontier.append(nxt)
        frontier = nxt_frontier
    return shifted_out
