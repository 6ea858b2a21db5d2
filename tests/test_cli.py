import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from numpy._core._exceptions import _ArrayMemoryError

from shiftlab import InvariantError, from_facets, to_json
from shiftlab.complexes import from_json_dict
from shiftlab import cli, exterior, gfp, homology, lexsegment, section4, verify
from shiftlab.cli import main

from support import classified_section4, forbid_bit_view


@pytest.fixture
def cycle_path(tmp_path):
    cx = from_facets(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    path = tmp_path / "cycle.json"
    path.write_text(to_json(cx))
    return str(path)


@pytest.fixture
def path_graph_path(tmp_path):
    cx = from_facets(3, [[1, 2], [1, 3]])
    path = tmp_path / "path.json"
    path.write_text(to_json(cx))
    return str(path)


def test_fvector_command(cycle_path, capsys):
    assert main(["fvector", cycle_path]) == 0
    assert json.loads(capsys.readouterr().out) == [4, 4]


def test_betti_command_hochster(cycle_path, capsys):
    assert main(["betti", cycle_path, "--field", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == ["0\t2\t2", "1\t3\t1"]


def test_betti_command_shifted(tmp_path, capsys):
    cx = from_facets(3, [[1, 3], [2, 3]])
    path = tmp_path / "c.json"
    path.write_text(to_json(cx))
    assert main(["betti", str(path), "--method", "shifted"]) == 0
    assert capsys.readouterr().out.splitlines() == ["0\t2\t1"]


# 4294967311 is prime but too large for exact float64 elimination
@pytest.mark.parametrize(
    "command, flags",
    [("betti", ["--field", f]) for f in ("4", "1", "0", "4294967311")]
    + [("gin", ["--prime", "4"]), ("gin", ["--retries", "3"])]
    + [("gin", ["--prime", p]) for p in ("0", "-3")],
)
def test_bad_field_or_retries_exit_2(cycle_path, command, flags, capsys):
    try:
        code = main([command, cycle_path, *flags])
    except SystemExit as exc:  # argparse's exit on an unknown flag
        code = exc.code
    assert code == 2
    out = capsys.readouterr()
    assert out.out == ""
    if flags[0] == "--retries":
        # gin always makes three attempts; there is no flag to change that
        assert "unrecognized arguments: --retries 3" in out.err
    else:
        assert len(out.err.splitlines()) == 1 and out.err.startswith("shiftlab: error:")
        assert f"field size {flags[1]} is not a prime" in out.err


def test_betti_on_a_simplex_refuses_bad_field(tmp_path, capsys):
    # every vertex subset of a simplex is a face, so no homology is computed
    path = tmp_path / "simplex.json"
    path.write_text(to_json(from_facets(3, [[1, 2, 3]])))
    assert main(["betti", str(path), "--field", "4"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "field size 4 is not a prime" in out.err


@pytest.mark.parametrize(
    "argv",
    [
        ["betti", "SHIFTED", "--method", "shifted", "--field", "4"],
        ["section4", "--phase", "build", "--prime", "4"],
        ["section4", "--phase", "classify", "--prime", "4"],
        ["section4", "--phase", "negatives", "--skip-gin", "--prime", "4"],
    ],
    ids=["betti-shifted", "section4-build", "section4-classify", "section4-negatives-skip-gin"],
)
def test_a_field_the_command_never_uses_is_still_refused(tmp_path, argv, capsys):
    path = tmp_path / "shifted.json"
    path.write_text(to_json(from_facets(3, [[2, 3], [1, 3]])))
    assert main([str(path) if a == "SHIFTED" else a for a in argv]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert len(out.err.splitlines()) == 1 and out.err.startswith("shiftlab: error: field size 4 is not a prime")


@pytest.mark.parametrize(
    "exc, message",
    [
        (MemoryError(), "out of memory"),
        (_ArrayMemoryError((6171, 12614), np.dtype(np.float64)),
         "Unable to allocate 594. MiB for an array with shape (6171, 12614) and data type float64"),
    ],
    ids=["bare", "numpy"],
)
def test_out_of_memory_exits_2_with_one_line(monkeypatch, path_graph_path, exc, message, capsys):
    # the error is raised, not provoked: nothing large is allocated
    def no_memory(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "gin", no_memory)
    assert main(["gin", path_graph_path]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [f"shiftlab: error: {message}"]


def test_a_key_error_inside_a_command_is_not_a_refusal(monkeypatch, path_graph_path):
    # no input raises KeyError, so one from the library is a bug and surfaces
    def missing(*args, **kwargs):
        raise KeyError("missing")

    monkeypatch.setattr(cli, "gin", missing)
    with pytest.raises(KeyError, match="missing"):
        main(["gin", path_graph_path])


@pytest.mark.parametrize("seed", ["0", "1", "2"])
def test_verify_refuses_n_above_20_before_any_trial(monkeypatch, seed, capsys):
    def no_trial(*args):
        raise AssertionError("a trial started")

    monkeypatch.setattr(verify, "random_complex", no_trial)
    assert main(["verify", "--n", "25", "--trials", "1", "--seed", seed]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == ["shiftlab: error: n must be at most 20"]


@pytest.mark.parametrize(
    "n, message",
    [
        ("1", "n must be at least 2: each trial draws a complex on 2..n vertices"),
        ("0", "n must be at least 1"),
    ],
)
def test_verify_refuses_n_below_2_before_any_trial(monkeypatch, n, message, capsys):
    # a 1-vertex verify used to run its trials on 2 vertices and pass
    def no_trial(*args):
        raise AssertionError("a trial started")

    monkeypatch.setattr(verify, "random_complex", no_trial)
    assert main(["verify", "--n", n, "--trials", "2", "--seed", "0"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [f"shiftlab: error: {message}"]


def test_verify_refuses_negative_trials(monkeypatch, capsys):
    # a negative count used to print {"trials": 0, ...} and exit 0
    def no_trial(*args):
        raise AssertionError("a trial started")

    monkeypatch.setattr(verify, "random_complex", no_trial)
    assert main(["verify", "--n", "4", "--trials", "-3"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == ["shiftlab: error: trials must be at least 0"]


@pytest.mark.parametrize("trials", ["0", "1"])
def test_verify_refuses_a_bad_field_before_any_trial(monkeypatch, trials, capsys):
    # zero trials used to print an empty report and exit 0; one trial ran
    # Hochster's sum before the field was checked
    def no_trial(*args):
        raise AssertionError("a trial started")

    monkeypatch.setattr(verify, "random_complex", no_trial)
    assert main(["verify", "--n", "4", "--trials", trials, "--prime", "4"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert len(out.err.splitlines()) == 1
    assert out.err.startswith("shiftlab: error: field size 4 is not a prime")


@pytest.mark.parametrize(
    "command, flags",
    [
        ("lex", []),
        ("gin", []),
        ("betti", []),
        ("betti", ["--method", "shifted"]),
        ("shift", ["--auto", "sweep"]),
        ("enumerate", []),
    ],
)
def test_subset_walks_refuse_n_above_20(monkeypatch, tmp_path, command, flags, capsys):
    def no_walk(*args):
        raise AssertionError("a walk over the 2^n subsets started")

    # the 21 points are refused when the document is read; the first step
    # of the closure and of each walk raises, so a missing bound fails the
    # test instead of hanging it
    forbid_bit_view(monkeypatch)
    for module in (exterior, lexsegment):
        monkeypatch.setattr(module, "all_faces", no_walk)
    monkeypatch.setattr(homology, "_reduced_dims", no_walk)
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"n": 21, "facets": [[v] for v in range(1, 22)], "mode": "strict"}))
    assert main([command, str(path), *flags]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == ["shiftlab: error: n must be at most 20"]


@pytest.mark.parametrize("n", [26, 40])
def test_fvector_refuses_a_single_facet_above_20_vertices(monkeypatch, tmp_path, n, capsys):
    # its closure would have 2^n faces; a missing bound raises in the closure
    forbid_bit_view(monkeypatch)
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps({"n": n, "facets": [list(range(1, n + 1))]}))
    assert main(["fvector", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == ["shiftlab: error: n must be at most 20"]


@pytest.mark.parametrize(
    "doc",
    [
        {"n": "4", "facets": [[1, 2]]},
        [1, 2],
        {"n": 4, "facets": [["a"]]},
        {"n": 10**30, "facets": [[1]]},
        "[" * 200_000,
        {"n": 3, "facets": [[1, 2], [3]], "mode": "relaxed"},
    ],
    ids=["string-n", "top-level-list", "string-vertex", "huge-n", "deep-nesting", "relaxed-mode"],
)
def test_malformed_complex_exit_2(tmp_path, doc, capsys):
    # a str is written as raw text, anything else as its JSON document
    path = tmp_path / "bad.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert main(["fvector", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert len(out.err.splitlines()) == 1 and out.err.startswith("shiftlab: error:")


# lists stay short, so a valid document has no facet with a large closure
_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 70) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "facets", "mode"]) | st.text(max_size=2), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def _complex_doc(draw):
    """A complex document, at times missing a vertex of [n] or with a
    vertex outside 1..n, or with one field replaced by any JSON value or
    left out."""
    n = draw(st.integers(1, 8) | st.integers(-1, 66))
    facets = draw(st.lists(st.lists(st.integers(1, max(n, 1)), max_size=6), max_size=6))
    if draw(st.booleans()):
        facets += [[v] for v in range(1, n + 1)]
    if draw(st.integers(0, 3)) == 0:
        facets.append(draw(st.lists(st.integers(-1, 66), max_size=6)))
    doc = {"n": n, "facets": facets, "mode": "strict"}
    if draw(st.integers(0, 3)) == 0:
        key = draw(st.sampled_from(sorted(doc)))
        if draw(st.booleans()):
            doc[key] = draw(_JSON_VALUE)
        else:
            del doc[key]
    return doc


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(_complex_doc().map(json.dumps), _JSON_VALUE.map(json.dumps), st.text(max_size=40)))
def test_fvector_on_any_json_text_exits_0_or_2(tmp_path, capsys, text):
    # an exception escaping main, which would print a traceback, fails the test
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    code = main(["fvector", str(path)])
    out = capsys.readouterr()
    if code == 0:
        assert isinstance(json.loads(out.out), list) and out.err == ""
    else:
        assert code == 2 and out.out == ""
        assert len(out.err.splitlines()) == 1 and out.err.startswith("shiftlab: error:")


def test_shift_command_pairs(path_graph_path, capsys):
    assert main(["shift", path_graph_path, "--pairs", "2,3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sequence"] == [[2, 3]]
    assert from_json_dict({k: doc[k] for k in ("n", "facets", "mode")}).n == 3


@pytest.mark.parametrize("token", ["1,3,4", "1", "a,b"])
def test_shift_refuses_a_malformed_pair(path_graph_path, token, capsys):
    # these used to surface as unpacking or int() messages
    assert main(["shift", path_graph_path, "--pairs", f"1,2 {token}"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [
        f"shiftlab: error: pair {token!r} is not of the form i,j with integers i and j"
    ]


def test_shift_command_auto(path_graph_path, capsys):
    for strategy in ("sweep", "random"):
        assert main(["shift", path_graph_path, "--auto", strategy, "--seed", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        got = from_json_dict({k: doc[k] for k in ("n", "facets", "mode")})
        assert sorted(map(sorted, doc["facets"])) == [[1, 3], [2, 3]]
        assert got.n == 3


def test_enumerate_command(path_graph_path, capsys):
    assert main(["enumerate", path_graph_path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    json.loads(lines[0])


def test_enumerate_past_state_limit_exit_2(cycle_path, capsys):
    assert main(["enumerate", cycle_path, "--limit", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("shiftlab: error:") and "state limit" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("limit", ["0", "-3"])
def test_enumerate_refuses_a_state_limit_below_1_exit_2(tmp_path, cycle_path, limit, capsys):
    simplex = tmp_path / "simplex.json"
    simplex.write_text(json.dumps({"n": 3, "facets": [[1, 2, 3]]}))
    for path in (str(simplex), cycle_path):
        assert main(["enumerate", path, "--limit", limit]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [f"shiftlab: error: state limit must be at least 1, not {limit}"]


def test_gin_command(path_graph_path, capsys):
    assert main(["gin", path_graph_path, "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"complex", "pivot_report"}
    degrees = [row["degree"] for row in doc["pivot_report"]]
    assert degrees == sorted(degrees)
    for row in doc["pivot_report"]:
        assert row["pivot_count"] >= len(row["new_generators"])


def test_gin_refuses_a_result_with_the_wrong_homology_exit_2(tmp_path, capsys):
    # RP2 over GF(3): the one agreeing pair of draws keeps its GF(2) homology
    path = tmp_path / "rp2.json"
    facets = ["123", "134", "145", "156", "126", "235", "245", "246", "346", "356"]
    path.write_text(json.dumps({"n": 6, "facets": [[int(v) for v in f] for f in facets]}))
    assert main(["gin", str(path), "--prime", "3", "--seed", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert len(out.err.splitlines()) == 1 and out.err.startswith("shiftlab: error: no generic pair of draws over GF(3)")
    assert main(["gin", str(path)]) == 0


def test_invariant_failure_is_not_a_refusal(monkeypatch, path_graph_path, capsys):
    # a failed invariant is a library bug: it escapes main, never exit 2
    monkeypatch.setattr(gfp, "pivot_columns", lambda M, p: [])
    with pytest.raises(InvariantError, match="must be independent"):
        main(["gin", path_graph_path])
    assert capsys.readouterr().err == ""


def test_lex_command(cycle_path, capsys):
    assert main(["lex", cycle_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    got = from_json_dict(doc)
    assert got.n == 4


def test_verify_command(capsys):
    assert main(["verify", "--n", "4", "--trials", "3", "--seed", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["trials"] == 3 and doc["failures"] == []


def test_section4_phases_exit_1_unless_the_16_labels_classify(monkeypatch, capsys):
    # the negative checks alone pass on 15 of the 16 labels
    assert main(["section4", "--phase", "negatives", "--skip-gin"]) == 0
    fewer = dict(classified_section4())
    del fewer[min(fewer)]
    monkeypatch.setattr(section4, "section4_enumerate_and_classify", lambda: fewer)
    assert main(["section4", "--phase", "classify"]) == 1
    assert main(["section4", "--phase", "negatives", "--skip-gin"]) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["failures"] == []


def test_section4_build_command(capsys):
    assert main(["section4", "--phase", "build"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 15
