"""The lexsegment complex with a prescribed f-vector.

For each cardinality d the non-faces are the lex-greatest d-subsets,
as many as the f-vector dictates; equivalently, the ideal side is a
lex-initial segment per degree under x_1 > ... > x_n.
"""

from __future__ import annotations

import itertools

from .complexes import InvariantError, SimplicialComplex, check_ground_set, f_vector, from_nonfaces, is_shifted
from .faces import all_faces, binom


def delta_lex(f: tuple[int, ...], n: int) -> SimplicialComplex:
    """Unique lexsegment complex on [n] with f-vector ``f``.

    ``f`` must be realizable (in practice it always comes from an
    actual complex); an unrealizable vector trips the closure check.
    """
    check_ground_set(n)
    if any(f[n:]):
        raise ValueError(f"f-vector {f} has a nonzero entry past f_{n - 1}")
    want = tuple(f[:n]) + (0,) * (n - len(f))
    nonfaces = []
    for d, f_count in enumerate(want, start=1):
        if not 0 <= f_count <= binom(n, d):
            raise ValueError(f"f-vector entry f_{d-1}={f_count} is outside 0..C({n},{d})")
        # all_faces lists a layer lex-descending: its first masks are the lex-greatest
        nonfaces.extend(itertools.islice(all_faces(n, d), binom(n, d) - f_count))
    try:
        cx = from_nonfaces(n, nonfaces)
    except ValueError as exc:
        raise ValueError(f"f-vector is not realizable by a lexsegment complex: {exc}") from exc
    if not is_shifted(cx):
        raise InvariantError("lexsegment complex must be shifted")
    built = f_vector(cx)
    if built + (0,) * (n - len(built)) != want:
        raise InvariantError(f"f-vector mismatch: wanted {f}, built {built}")
    return cx
