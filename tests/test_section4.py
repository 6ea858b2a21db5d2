from collections import Counter
from math import comb

import pytest

from shiftlab import (
    InvariantError,
    betti_leq,
    delta_lex,
    f_vector,
    hochster_betti,
    is_shifted,
    mask_of,
    minimal_nonfaces,
    section4_build,
    section4_negative_results,
    shifted_betti,
)
from shiftlab import complexes, enumerate_shifted, section4
from shiftlab.complexes import _mask_list, ideal_degree_slice
from shiftlab.section4 import (
    BLOCK_A,
    BLOCK_B,
    DEGREES,
    EXPECTED_QSEQUENCES,
    N,
    block_monomials,
    classify_complex,
    terminal_segment,
)

from support import classified_section4, k_polynomials, section4_gin


def test_constants():
    assert N == 15
    assert list(DEGREES) == [3, 4, 5, 6, 7, 8]
    assert BLOCK_A == ((12, 13), (12, 14), (13, 14))
    assert BLOCK_B == ((12, 13), (12, 14), (12, 15))
    assert len(EXPECTED_QSEQUENCES) == 16
    assert ("A",) * 6 not in EXPECTED_QSEQUENCES
    assert ("B",) * 6 not in EXPECTED_QSEQUENCES


def test_terminal_segment_threshold():
    t3 = set(_mask_list(terminal_segment(3)))
    # the threshold monomial {1,12,13} itself is excluded
    assert mask_of([1, 12, 13]) not in t3
    assert mask_of([1, 11, 12]) in t3
    assert mask_of([2, 3, 4]) not in t3


def test_block_monomials_degree3():
    got = set(_mask_list(block_monomials(3, ((12, 13), (12, 15), (13, 14)))))
    want = {mask_of([1, 12, 13]), mask_of([1, 12, 15]), mask_of([1, 13, 14])}
    assert got == want


def test_block_monomials_are_the_bits_of_their_masks(monkeypatch):
    blocks = [(d, b) for d in DEGREES for b in (section4._H_BLOCK[d], BLOCK_A, BLOCK_B)]
    prefix = {d: mask_of(section4._H_PREFIX[d]) for d in DEGREES}
    want = {(d, b): complexes._bits_of(N, [prefix[d] | mask_of(pair) for pair in b]) for d, b in blocks}

    def no_bit_view(*args):
        raise AssertionError("block_monomials packed a bit view")

    monkeypatch.setattr(section4, "_bits_of", no_bit_view)
    block_monomials.cache_clear()
    for d, b in blocks:
        assert block_monomials(d, b) == want[d, b]
        assert block_monomials(d, b) is block_monomials(d, b)  # built once, then cached
    assert block_monomials.cache_info().misses == len(set(blocks)) == 18


def test_build_shape():
    cx = section4_build()
    assert cx.n == 15
    assert f_vector(cx) == (15, 105, 367, 938, 1245, 899, 318, 42)
    # every 9-subset is a non-face
    assert len(ideal_degree_slice(cx, 9)) == comb(15, 9)
    assert not is_shifted(cx)


def test_classification_matches_expected_set():
    classified = classified_section4()
    assert set(classified) == set(EXPECTED_QSEQUENCES)
    for q, cx in classified.items():
        assert is_shifted(cx)
        assert f_vector(cx) == f_vector(section4_build())
        assert classify_complex(cx) == q


def test_tail_pair_search_finds_every_shifted_complex():
    # the classification searches only the six pairs inside {12..15};
    # the search over all 105 pairs must find the same 16 complexes
    cx = section4_build()
    every = enumerate_shifted(cx)
    assert len(every) == 16
    assert every == enumerate_shifted(cx, candidate_pairs=section4._tail_pairs())
    assert every == set(classified_section4().values())


def test_classify_rejects_other_complexes():
    # the construction itself carries neither terminal block in degree 3
    with pytest.raises(AssertionError, match="degree-3 slice"):
        classify_complex(section4_build())


def test_negative_results_pass():
    report = section4_negative_results(include_gin=False, classified=classified_section4())
    assert report.passed, report.failures


def test_positive_results_hold_on_the_fifteen_vertex_complex():
    # the paper's inequality (ii), beta(D) <= beta(D^c), for every
    # classified combinatorial shift D^c, and the lexsegment complex above
    # both sides; the section-4 report checks only the negative results
    cx = section4_build()
    betti = hochster_betti(cx, 2)
    assert len(betti) == 70
    linear = {j: beta for (i, j), beta in betti.items() if i == 0}
    assert linear == Counter(g.bit_count() for g in minimal_nonfaces(cx))
    # every cell, not only i = 0: a count credited to the wrong degree
    # changes the K-polynomial the table gives
    from_table, from_faces = k_polynomials(cx, betti)
    assert from_table == from_faces
    lex = shifted_betti(delta_lex(f_vector(cx), N))
    assert betti_leq(betti, lex)
    classified = classified_section4()
    assert len(classified) == 16
    for q, shifted in classified.items():
        betti_c = shifted_betti(shifted)
        assert betti_leq(betti, betti_c), q
        assert betti_leq(betti_c, lex), q


def test_exterior_shift_lies_between_the_complex_and_its_combinatorial_shifts():
    # the paper's (i), beta(D^e) <= beta(D^c) for every classified D^c, and
    # the Aramova-Herzog-Hibi link beta(D) <= beta(D^e), with Hochster's
    # sum over gin's field, p = 32003
    betti_e = shifted_betti(section4_gin())
    cx = section4_build()
    betti = hochster_betti(cx, 32003)
    assert betti_leq(betti, betti_e)
    from_table, from_faces = k_polynomials(cx, betti)
    assert from_table == from_faces
    classified = classified_section4()
    assert len(classified) == 16
    for q, shifted in classified.items():
        assert betti_leq(betti_e, shifted_betti(shifted)), q


def test_build_refuses_a_slice_its_blocks_do_not_span(monkeypatch):
    # {1, 2, 3, 4} lies over {1, 2, 3} in T_3; without it in T_4 the
    # degree-4 slice of the generated ideal is larger than its blocks
    real = section4.terminal_segment
    missing = 1 << mask_of([1, 2, 3, 4])
    assert real(3) >> mask_of([1, 2, 3]) & 1 and real(4) & missing
    monkeypatch.setattr(section4, "terminal_segment", lambda d: real(d) ^ (real(d) & missing))
    with pytest.raises(InvariantError, match="degree-4 slice is not spanned by its blocks"):
        section4_build()
