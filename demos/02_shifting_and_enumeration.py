"""Combinatorial shifting: single exchange steps, shifting to
completion with two strategies, replaying recorded sequences, and
enumerating every reachable shifted complex.

Run:  python3 demos/02_shifting_and_enumeration.py
"""

from shiftlab import (
    enumerate_shifted,
    f_vector,
    from_facets,
    is_shifted,
    members_of,
    replay,
    shift_ij,
    shift_to_shifted,
)


def show(label, cx):
    print(f"{label}: facets {[members_of(f) for f in cx.facets()]}, shifted={is_shifted(cx)}")


path = from_facets(3, [[1, 2], [1, 3]])
show("start", path)

# One exchange step: replace vertex 2 by vertex 3 wherever possible.
show("after Shift_{2,3}", shift_ij(path, 2, 3))

# Shift until no pair acts, with a deterministic sweep and a seeded
# random pair order; both preserve the f-vector.
for strategy in ("sweep", "random"):
    result, seq = shift_to_shifted(path, strategy, seed=7)
    show(f"{strategy} result (sequence {list(seq)})", result)
    assert f_vector(result) == f_vector(path)
    # The recorded sequence replays to the identical complex.
    assert replay(path, seq).faces == result.faces

# Different pair orders can reach *different* shifted complexes; the
# breadth-first enumeration finds all of them.
cx = from_facets(5, [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]])
reachable = enumerate_shifted(cx)
print(f"\n5-cycle reaches {len(reachable)} shifted complex(es):")
for sc in sorted(reachable, key=lambda c: sorted(c.faces)):
    show("  reachable", sc)
