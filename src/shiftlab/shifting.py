"""Combinatorial shifting: the Erdos-Ko-Rado exchange operator.

``shift_ij`` replaces i by j (i < j) in every face whose exchanged image
is not already a face.  Iterating such steps until the complex is
shifted produces a combinatorial shifted complex; different step orders
may produce different results, which ``enumerate_shifted`` explores
exhaustively.

Every operator here runs on a complex's bit view (``SimplicialComplex.bits``,
one 2^n-bit integer), so each C_ij is a handful of big-integer
operations rather than a loop over the faces, and a search state is one
integer.
"""

from __future__ import annotations

import random
from typing import Iterable

from .complexes import (
    InvariantError,
    ShiftlabError,
    SimplicialComplex,
    _moved,
    _shifted_bits,
)

ShiftSequence = tuple[tuple[int, int], ...]


def _check_pair(n: int, i: int, j: int) -> None:
    if not 1 <= i < j <= n:
        raise ValueError(f"pair ({i},{j}) out of range for n={n}")


def _exchange(n: int, bits: int, i: int, j: int) -> int:
    """C_ij on a bit view; ``bits`` itself when no face moves.

    Every moved face has its image exactly delta = 2^(j-1) - 2^(i-1)
    bits higher: the exchange sets the images (``_moved``) and clears
    their preimages, delta bits lower.
    """
    moved = _moved(n, bits, i, j)
    if not moved:
        return bits
    out = bits ^ moved ^ (moved >> ((1 << (j - 1)) - (1 << (i - 1))))
    # each moved image has its own preimage, so the face count must not change
    if out.bit_count() != bits.bit_count():
        raise InvariantError("C_ij must be injective on faces")
    return out


def shift_ij(cx: SimplicialComplex, i: int, j: int) -> SimplicialComplex:
    """Apply the exchange operator C_ij to every face: sigma becomes
    (sigma - i) + j when i is in sigma, j is not, and the exchanged set is
    not already a face.  The input itself is returned when no face moves."""
    return replay(cx, [(i, j)])


def _all_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]


def shift_to_shifted(
    cx: SimplicialComplex, strategy: str = "sweep", seed: int = 0
) -> tuple[SimplicialComplex, ShiftSequence]:
    """Iterate shift_ij on the bit view until the complex is shifted; returns
    it (the input itself when no pair moves it) and the replayable sequence.

    Each step applies one of the pairs (i,j) whose C_ij changes the
    complex: ``sweep`` the first in lexicographic order, ``random`` a
    seeded uniform choice.  No pair changes the complex exactly when it is
    shifted.  The loop needs no step cap: with Phi the sum of v over the
    faces F and v in F, a step moves at least one face, each by j - i >= 1,
    so it raises Phi, and 0 <= Phi <= |Delta| * n(n+1)/2.  So there are at
    most Phi(result) - Phi(input) steps.
    """
    if strategy not in ("sweep", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")
    n = cx.n
    rng = random.Random(seed)
    pairs = _all_pairs(n)
    seq: list[tuple[int, int]] = []
    state = cx.bits
    while True:
        moving = ((pair, nxt) for pair in pairs if (nxt := _exchange(n, state, *pair)) != state)
        if strategy == "sweep":
            step = next(moving, None)
        else:
            moving = list(moving)
            step = moving[rng.randrange(len(moving))] if moving else None
        if step is None:
            break
        pick, state = step
        seq.append(pick)
    if not _shifted_bits(n, state):
        raise InvariantError("no pair moves, yet the complex is not shifted")
    return (SimplicialComplex(n, state) if seq else cx), tuple(seq)


def replay(cx: SimplicialComplex, seq: Iterable[tuple[int, int]]) -> SimplicialComplex:
    """Apply a recorded shift sequence on the bit view; the input itself
    when no face moves, since each step that moves one raises Phi
    (``shift_to_shifted``)."""
    state = cx.bits
    for i, j in seq:
        _check_pair(cx.n, i, j)
        state = _exchange(cx.n, state, i, j)
    return cx if state == cx.bits else SimplicialComplex(cx.n, state)


def enumerate_shifted(
    cx: SimplicialComplex,
    state_limit: int = 100_000,
    candidate_pairs: list[tuple[int, int]] | None = None,
) -> set[SimplicialComplex]:
    """All shifted complexes reachable from cx by shift_ij steps.

    Breadth-first closure over every intermediate state (a non-shifted
    intermediate may lead to shifted states unreachable otherwise),
    memoized on the bit view, which is the exact face-set encoding.
    Raises if more than ``state_limit`` states are visited, and refuses
    a ``state_limit`` below 1, since the input itself is a state.
    """
    if state_limit < 1:
        raise ValueError(f"state limit must be at least 1, not {state_limit}")
    n = cx.n
    pairs = candidate_pairs if candidate_pairs is not None else _all_pairs(n)
    for i, j in pairs:
        _check_pair(n, i, j)
    visited = {cx.bits}
    frontier = [cx.bits]
    shifted_out: set[int] = set()
    while frontier:
        nxt_frontier = []
        for state in frontier:
            moved = [nxt for i, j in pairs if (nxt := _exchange(n, state, i, j)) != state]
            # a shifted complex is fixed by every C_ij: only a state no pair moves can be one
            if not moved and _shifted_bits(n, state):
                shifted_out.add(state)
            for nxt in moved:
                if nxt in visited:
                    continue
                if len(visited) >= state_limit:
                    raise ShiftlabError("enumerate_shifted state limit exceeded")
                visited.add(nxt)
                nxt_frontier.append(nxt)
        frontier = nxt_frontier
    return {SimplicialComplex(n, state) for state in shifted_out}
