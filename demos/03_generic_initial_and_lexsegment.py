"""Exterior algebraic shifting via generic initial ideals, the
lexsegment complex, and the chain of Betti-table dominations relating
the three shifting constructions.

Run:  python3 demos/03_generic_initial_and_lexsegment.py
"""

from shiftlab import (
    betti_leq,
    delta_lex,
    f_vector,
    from_facets,
    gin,
    hochster_betti,
    m_leq_table,
    members_of,
    shift_to_shifted,
    shifted_betti,
)

cx = from_facets(5, [[1, 2, 3], [3, 4], [4, 5], [1, 5]])
print("input facets:", [members_of(f) for f in cx.facets()])

# The exterior shifted complex: row-reduce the generic images of the
# ideal's degree slices over GF(32003); pivots are the new non-faces.
# The result is seed-independent (checked internally with two seeds).
exterior = gin(cx, seed=42)
print("exterior shift facets:", [members_of(f) for f in exterior.facets()])
assert f_vector(exterior) == f_vector(cx)

# A combinatorial shift of the same complex.
comb, _ = shift_to_shifted(cx, "sweep")
print("combinatorial shift facets:", [members_of(f) for f in comb.facets()])

# The lexsegment complex with the same f-vector.
lex = delta_lex(f_vector(cx), cx.n)
print("lexsegment facets:", [members_of(f) for f in lex.facets()])

# Betti tables satisfy beta(D) <= beta(D^e) <= beta(D^c) and
# beta(D) <= beta(D^lex), entrywise.
b = hochster_betti(cx, 2)
be, bc, bl = shifted_betti(exterior), shifted_betti(comb), shifted_betti(lex)
print("\nbeta(D)      =", b)
print("beta(D^e)    =", be)
print("beta(D^c)    =", bc)
print("beta(D^lex)  =", bl)
assert betti_leq(b, be) and betti_leq(be, bc) and betti_leq(b, bl)

# The m_<= statistic goes the other way: the exterior shift dominates.
# m[d][i] counts the degree-d ideal monomials with largest index <= i.
me, mc = m_leq_table(exterior), m_leq_table(comb)
for d in range(1, cx.n + 1):
    for i in range(d, cx.n + 1):
        assert me[d][i] >= mc[d][i]
print("\nm_<= domination of the exterior shift over the combinatorial one: verified")
