import json

import pytest

from shiftlab import (
    from_facets,
    hochster_betti,
    random_complex,
    section4_negative_results,
    shift_to_shifted,
    shifted_betti,
    verify_theorems,
)
from shiftlab import section4, verify
from shiftlab.complexes import full_simplex, m_leq_table
from shiftlab.faces import mask_of
from shiftlab.verify import (
    VerificationReport,
    check_betti_leq,
    check_m_leq,
    check_s1,
    check_s2,
    check_s3,
    check_s4,
)

from support import classified_section4

PER_STRATEGY_CHECKS = (
    "S1",
    "S2",
    "S3",
    "S4",
    "beta(D) <= beta(D^c)",
    "beta(D^e) <= beta(D^c)",
    "m_<=(D^e) >= m_<=(D^c)",
)


def test_random_complex_density_extremes():
    lo = random_complex(5, 0.0, 1)
    assert lo.faces == {0} | {mask_of([v]) for v in range(1, 6)}
    hi = random_complex(5, 1.0, 1)
    assert hi.faces == full_simplex(5).faces


def test_random_complex_determinism_and_mode():
    a = random_complex(6, 0.4, 17)
    b = random_complex(6, 0.4, 17)
    assert a.faces == b.faces
    assert all(mask_of([v]) in a.faces for v in range(1, 7))
    assert random_complex(6, 0.4, 18).n == 6


def test_random_complex_rejects_bad_n():
    with pytest.raises(ValueError):
        random_complex(0, 0.5, 1)
    with pytest.raises(ValueError):
        random_complex(21, 0.5, 1)


@pytest.mark.parametrize("density", [-0.1, 1.5])
def test_random_complex_rejects_a_density_outside_0_1(density):
    with pytest.raises(ValueError, match="density must be a probability"):
        random_complex(5, density, 1)


def test_verify_theorems_refuses_negative_trials():
    with pytest.raises(ValueError, match="trials must be at least 0"):
        verify_theorems(n=4, trials=-1, seed=1)


@pytest.mark.parametrize("trials", [0, 1])
def test_verify_theorems_refuses_a_bad_field_before_any_trial(monkeypatch, trials):
    def no_trial(*args):
        raise AssertionError("a trial started")

    monkeypatch.setattr(verify, "random_complex", no_trial)
    with pytest.raises(ValueError, match="field size 4 is not a prime"):
        verify_theorems(n=4, trials=trials, p=4, seed=1)


def test_report_empty_run():
    report = verify_theorems(n=4, trials=0, seed=1)
    assert report.trials == 0
    assert report.passed
    assert report.failures == []


def test_report_json_roundtrip():
    report = VerificationReport(trials=3)
    report.fail("S3", [[3, 1], [3, 2]], seed=9, strategy="sweep", pairs=[[1, 2], [1, 3]])
    report.fail("m_<=14 witness", "not reproduced")
    doc = json.loads(report.to_json())
    assert list(doc) == ["trials", "failures", "elapsed_ms"]
    assert doc == {"trials": 3, "failures": report.failures, "elapsed_ms": 0.0}
    assert list(doc["failures"][0]) == ["check", "detail", "seed", "strategy", "pairs"]
    assert doc["failures"][1] == {"check": "m_<=14 witness", "detail": "not reproduced"}


def test_report_passed_property():
    report = VerificationReport(trials=1)
    assert report.passed
    report.fail("S1")
    assert not report.passed
    assert report.failures == [{"check": "S1", "detail": ""}]


def test_verify_theorems_small_run_passes():
    report = verify_theorems(n=5, trials=6, seed=7)
    assert report.passed, report.failures
    assert report.trials == 6


def test_verify_theorems_deterministic():
    a = verify_theorems(n=4, trials=3, seed=11)
    b = verify_theorems(n=4, trials=3, seed=11)
    assert a.trials == b.trials
    assert a.failures == b.failures


# -- each check trips on a planted violation ---------------------------------

NOT_SHIFTED = from_facets(3, [[1, 2], [3]])  # raising 2 -> 3 in {1, 2} leaves the complex
TWO_EDGES = from_facets(4, [[1, 2], [3, 4]])


def test_checks_hold_on_a_real_shift():
    cx = TWO_EDGES
    shifted_cx, seq = shift_to_shifted(cx, "sweep")
    assert seq
    assert check_s1(shifted_cx) == []
    assert check_s2(cx, shifted_cx, seq) == []
    assert check_s3(cx, shifted_cx) == []
    assert check_s4(from_facets(4, [[1, 2], [3], [4]]), cx, seq) == []
    assert check_betti_leq(hochster_betti(cx, 2), shifted_betti(shifted_cx)) == []


def test_s1_trips_on_a_non_shifted_result():
    assert check_s1(NOT_SHIFTED) == ["result not shifted"]


def test_s2_trips_when_a_shifted_complex_moves():
    shifted_cx = from_facets(3, [[2, 3], [1]])
    assert check_s2(shifted_cx, shifted_cx, []) == []
    assert check_s2(shifted_cx, full_simplex(3), []) == ["shifted complex moved"]
    assert check_s2(shifted_cx, shifted_cx, [(1, 2)]) == ["shifted complex moved"]
    assert check_s2(NOT_SHIFTED, full_simplex(3), [(1, 2)]) == []


def test_s3_trips_on_a_changed_f_vector():
    assert check_s3(NOT_SHIFTED, full_simplex(3)) == [[[3, 1], [3, 3, 1]]]


def test_s4_trips_when_the_smaller_complex_escapes():
    points = from_facets(3, [[1], [2], [3]])
    assert check_s4(points, full_simplex(3), [(1, 2)]) == []
    assert check_s4(full_simplex(3), points, [(1, 2)]) == ["replayed inclusion broken"]


def test_betti_checks_trip_on_swapped_tables():
    square = from_facets(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    shifted_cx, _ = shift_to_shifted(square, "sweep")
    lower, upper = hochster_betti(square, 2), shifted_betti(shifted_cx)
    assert check_betti_leq(lower, upper) == []
    assert check_betti_leq(upper, lower) == [[[0, 3], [1, 2]]]
    assert check_betti_leq({(0, 2): 2}, {(0, 2): 1, (1, 3): 4}) == [[[0, 2]]]


def test_m_leq_check_trips_on_lowered_counts():
    counts = m_leq_table(TWO_EDGES)
    assert check_m_leq(counts, counts) == []
    lowered = [list(c) for c in counts]
    lowered[2][4] -= 1
    assert check_m_leq(lowered, counts) == [[4, 2]]


def test_verify_theorems_names_every_check(monkeypatch):
    for name in ("check_s1", "check_s2", "check_s3", "check_s4", "check_betti_leq", "check_m_leq"):
        monkeypatch.setattr(verify, name, lambda *args: ["planted"])
    report = verify_theorems(n=4, trials=1, seed=5)
    by_check = {}
    for f in report.failures:
        assert f["detail"] == "planted"
        by_check.setdefault(f["check"], []).append(f)
    assert set(by_check) == {
        *PER_STRATEGY_CHECKS,
        "beta(D) <= beta(D^e)",
        "beta(D) <= beta(D^lex)",
        "single-step beta",
    }
    for check in PER_STRATEGY_CHECKS:
        assert [f["strategy"] for f in by_check[check]] == ["sweep", "random"]
        assert all(list(f) == ["check", "detail", "seed", "strategy", "pairs"] for f in by_check[check])
    for check in ("beta(D) <= beta(D^e)", "beta(D) <= beta(D^lex)"):
        (record,) = by_check[check]
        assert list(record) == ["check", "detail", "seed"]
    steps = by_check["single-step beta"]
    assert len(steps) == 2
    assert all(len(f["pairs"]) == 1 and f["pairs"][0][0] < f["pairs"][0][1] for f in steps)
    json.loads(report.to_json())


def test_verify_theorems_runs_hochster_sums_over_its_field(monkeypatch):
    # beta(D), the single-step tables and gin all live over GF(p)
    fields = []

    def hochster_at(cx, p):
        fields.append(p)
        return hochster_betti(cx, p)

    monkeypatch.setattr(verify, "hochster_betti", hochster_at)
    report = verify_theorems(n=5, trials=3, p=101, seed=2)
    assert report.passed, report.failures
    assert len(fields) == 3 * 3 and set(fields) == {101}


# -- section 4 ----------------------------------------------------------------

STAR = from_facets(4, [[1, 4], [2, 4], [3, 4]])
MIXED = from_facets(4, [[1, 3], [1, 4], [2, 3, 4]])  # table incomparable with STAR's
TOP = from_facets(4, [[1], [2, 3], [2, 4], [3, 4]])  # table above both
BOTTOM = from_facets(4, [[1, 3, 4], [2, 3, 4]])  # table below both


def _labelled(*complexes):
    """Labels without "BB", so the m_<=14 witness has no partner."""
    return dict(zip([tuple("AAAAAA"), tuple("ABABAB"), tuple("BABABA")], complexes))


def _checks(report):
    return sorted((f["check"], f["detail"]) for f in report.failures)


def test_section4_planted_maximal_table():
    planted = _labelled(STAR, MIXED, TOP)
    report = section4_negative_results(planted, include_gin=False)
    assert report.trials == 4
    assert _checks(report) == [("m_<=14 witness", "not reproduced"), ("maximal table", "BABABA")]


def test_section4_planted_minimal_table():
    planted = _labelled(STAR, MIXED, BOTTOM)
    report = section4_negative_results(planted, include_gin=False)
    assert _checks(report) == [("m_<=14 witness", "not reproduced"), ("minimal table", "BABABA")]


def test_section4_witness_needs_its_partner():
    classified = classified_section4()
    assert section4_negative_results(classified, include_gin=False).passed
    no_partner = {q: cx for q, cx in classified.items() if "BB" not in "".join(q)}
    report = section4_negative_results(no_partner, include_gin=False)
    assert ("m_<=14 witness", "not reproduced") in _checks(report)


def test_section4_planted_gin_among_the_shifts(monkeypatch):
    monkeypatch.setattr(section4, "gin", lambda cx, p, seed: MIXED)
    report = section4_negative_results(_labelled(STAR, MIXED), seed=4)
    assert report.trials == 4
    gin_failures = [f for f in report.failures if f["check"] == "gin not a combinatorial shift"]
    assert gin_failures == [{"check": "gin not a combinatorial shift", "detail": "ABABAB", "seed": 4}]
