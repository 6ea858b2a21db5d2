"""The 15-vertex complex whose combinatorial shifts admit no extremal
Betti table.

Enumerating every reachable shifted complex yields exactly 16
candidates, labelled by which of two terminal blocks (A or B) each
degree 3..8 carries; no label is all-A or all-B, and no Betti table
among the 16 dominates, or is dominated by, all the others.

Run:  python3 demos/04_fifteen_vertex_counterexample.py   (about 2 s)
Add the generic-initial non-membership check (about 20 s more) with
the CLI:  shiftlab section4 --phase negatives
"""

from shiftlab import (
    f_vector,
    section4_build,
    section4_enumerate_and_classify,
    section4_negative_results,
    shifted_betti,
)

cx = section4_build()
print("ground set size:", cx.n)
print("f-vector:", f_vector(cx))

classified = section4_enumerate_and_classify()
print(f"\nreachable shifted complexes: {len(classified)}")
for q in sorted(classified):
    table = shifted_betti(classified[q])
    print("".join(q), " Betti entries:", sum(table.values()))

report = section4_negative_results(include_gin=False, classified=classified)
print("\nno dominating table, no dominated table, witness inequality found:",
      "verified" if report.passed else "FAILED")
