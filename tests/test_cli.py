import hashlib
import json
import os
import re
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from annigraph.cli import main
from annigraph.rings import make_zn, ring_to_json, validate_ring
from annigraph.specs import (
    CORPUS_SPEC_STRINGS,
    SpecParseError,
    corpus_file_name,
    parse_ring_spec,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_basic_specs():
    assert parse_ring_spec("zn:12").build().size == 12
    assert parse_ring_spec("prod:(zn:2,zn:3)").build().size == 6
    assert parse_ring_spec("prod:(prod:(zn:2,zn:2),zn:3)").build().size == 12
    assert parse_ring_spec("gf:2:1,1,1").build().size == 4
    assert parse_ring_spec("polyq:3:0,0,1").build().size == 9
    assert parse_ring_spec("cat:f2xy_x2y2").build().size == 16
    assert parse_ring_spec("cat:k5").build().n_vertices == 5
    assert parse_ring_spec("cat:km:3:4").build().n_edges == 12


def test_parse_coeff_list_inside_product():
    ring = parse_ring_spec("prod:(gf:2:1,1,1,zn:2)").build()
    assert ring.size == 8


def test_parse_errors_cite_position():
    with pytest.raises(SpecParseError) as err:
        parse_ring_spec("zn:x")
    assert err.value.position == 3
    with pytest.raises(SpecParseError, match="trailing"):
        parse_ring_spec("zn:12extra")
    with pytest.raises(SpecParseError, match="whitespace"):
        parse_ring_spec("zn: 12")
    with pytest.raises(SpecParseError):
        parse_ring_spec("prod:(zn:2;zn:3)")


def test_parse_round_trip():
    for text in ("zn:12", "prod:(zn:2,zn:3)", "gf:2:1,1,1", "cat:k5"):
        spec = parse_ring_spec(text)
        assert str(spec) == text
        assert parse_ring_spec(str(spec)) == spec


def test_unknown_catalog_lists_names(capsys):
    code, _, err = run(capsys, "info", "cat:nonsense")
    assert code == 2
    assert "available" in err and "f2xy_x2y2" in err


def test_gf_rejects_reducible_polynomial(capsys):
    code, _, err = run(capsys, "info", "gf:2:1,0,1")  # x^2+1 = (x+1)^2 over F_2
    assert code == 2
    assert "not a field" in err


def test_info_subcommand(capsys):
    code, out, _ = run(capsys, "info", "zn:8")
    assert code == 0
    payload = json.loads(out)
    assert payload["is_spir"] is True
    assert payload["ideal_count"] == 4
    assert payload["vdim_profile"] == [1, 1]

    code, out, _ = run(capsys, "info", "zn:8", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("ring,ideal_count")


def test_ideals_subcommand(capsys):
    code, out, _ = run(capsys, "ideals", "zn:12")
    assert code == 0
    assert len(out.splitlines()) == 6
    code, out, _ = run(capsys, "ideals", "zn:12", "--format", "json")
    payload = json.loads(out)
    assert len(payload["ideals"]) == 6


def test_graph_subcommand_dot_and_json(capsys):
    code, out, _ = run(capsys, "graph", "zn:12", "--format", "dot")
    assert code == 0
    assert out == (
        'graph AG {\n'
        '  "(6)";\n'
        '  "(4)";\n'
        '  "(3)";\n'
        '  "(2)";\n'
        '  "(6)" -- "(4)";\n'
        '  "(6)" -- "(2)";\n'
        '  "(4)" -- "(3)";\n'
        '}\n'
    )
    code, out, _ = run(capsys, "graph", "zn:12", "--format", "json")
    payload = json.loads(out)
    assert payload["vertices"] == ["(6)", "(4)", "(3)", "(2)"]
    assert payload["edges"] == [[0, 1], [0, 3], [1, 2]]


def test_genus_subcommand(capsys):
    code, out, _ = run(capsys, "genus", "cat:k5")
    assert code == 0 and out == "exact 1\n"
    code, out, _ = run(capsys, "genus", "cat:km:3:3")
    assert code == 0 and out == "exact 1\n"
    code, out, _ = run(capsys, "genus", "zn:12")
    assert code == 0 and out == "exact 0\n"
    code, out, _ = run(capsys, "genus", "cat:k5", "--format", "json")
    payload = json.loads(out)
    assert payload["status"] == "exact" and payload["upper"] == 1
    assert payload["witness"] is not None


def test_genus_budget_exit_code(capsys):
    code, out, _ = run(capsys, "genus", "cat:k7", "--budget-nodes", "1")
    assert code == 3
    assert out.startswith("budget_exhausted")


def test_genus_answer_reads_no_clock(capsys, monkeypatch):
    def no_clock():
        raise AssertionError("clock read")

    monkeypatch.setattr(time, "monotonic", no_clock)
    assert run(capsys, "genus", "cat:k7") == (0, "exact 1\n", "")


@pytest.mark.parametrize("argv", [("genus", "cat:k5"), ("verify", "zn:8")])
def test_wall_clock_budget_flag_is_gone(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--budget-ms", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget-ms" in capsys.readouterr().err


def test_genus_deep_graph_exits_with_bounds(capsys):
    # K_46 needs one search level per edge (1,035); the search keeps its own
    # stack, so the budget ends the run, not the recursion limit.
    code, out, err = run(capsys, "genus", "cat:k46", "--budget-nodes", "2000")
    assert code == 3
    assert re.fullmatch(r"budget_exhausted lower=\d+ upper=\d+\n", out)
    lower, upper = map(int, re.findall(r"\d+", out))
    assert 151 <= lower <= upper
    assert "Traceback" not in err


def test_verify_subcommand(capsys):
    code, out, _ = run(capsys, "verify", "zn:8", "zn:12", "--suite", "lemmas")
    assert code == 0
    assert "summary:" in out
    code, out, _ = run(capsys, "verify", "zn:8", "--suite", "lemmas",
                       "--format", "json")
    payload = json.loads(out)
    assert payload["counts"]["fail"] == 0
    code, out, _ = run(capsys, "verify", "zn:8", "--suite", "lemmas",
                       "--format", "csv")
    assert out.splitlines()[0] == "check,ring,status,reason_or_detail"


def test_verify_default_corpus_all_green(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all")
    assert code == 0
    assert " 0 fail" in out


def test_corpus_roundtrip(capsys, tmp_path):
    out_dir = tmp_path / "corpus"
    code, out, _ = run(capsys, "corpus", "--out", str(out_dir))
    assert code == 0
    files = sorted(os.listdir(out_dir))
    assert len(files) == len(CORPUS_SPEC_STRINGS)
    # Reload one materialized table through the table: loader.
    path = out_dir / corpus_file_name("cat:f2xy_x2y2")
    assert path.exists()
    code, out, _ = run(capsys, "info", f"table:{path}")
    assert code == 0
    payload = json.loads(out)
    assert payload["ideal_count"] == 7


def test_sc_file_loader(capsys, tmp_path):
    blob = {
        "p": 2,
        "rank": 3,
        "basis": ["1", "x", "y"],
        "mul": [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
            [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
        ],
    }
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(blob))
    code, out, _ = run(capsys, "info", f"sc:{path}")
    assert code == 0
    payload = json.loads(out)
    assert payload["socle_dim"] == 2 and payload["is_gorenstein"] is False


def test_invalid_input_exit_code(capsys):
    code, _, err = run(capsys, "info", "zn:1")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "genus", "table:/no/such/file.json")
    assert code == 2
    code, _, err = run(capsys, "info", "cat:k5")  # graph where a ring is needed
    assert code == 2 and "needs a ring" in err
    code, out, err = run(capsys, "verify", "cat:k5")
    assert code == 2 and out == "" and one_line_error(err) and "names a graph" in err
    # The graph constructors reject the size: no vertex, or over MAX_EDGES edges.
    for spec in ("cat:k0", "cat:km:0:3", "cat:k2000", "cat:km:2000:2000"):
        code, out, err = run(capsys, "genus", spec)
        assert code == 2 and out == "" and one_line_error(err), err
    # A node budget that is not an integer >= 0 is a usage error, from argparse.
    for argv in (("genus", "cat:k5"), ("verify", "zn:8")):
        for budget in ("-5", "-1", "five"):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--budget-nodes", budget])
            captured = capsys.readouterr()
            errors = [line for line in captured.err.splitlines() if "error:" in line]
            assert exc.value.code == 2 and captured.out == ""
            assert len(errors) == 1 and "--budget-nodes" in errors[0], captured.err


def test_output_to_file(capsys, tmp_path):
    target = tmp_path / "graph.dot"
    code, out, _ = run(capsys, "graph", "zn:12", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("graph AG {")


def one_line_error(err):
    return err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("blob", [
    {"size": 2, "zero": 0, "one": 1, "add": [[0, 1], [1, "x"]],
     "mul": [[0, 0], [0, 1]]},
    {"size": 2, "zero": 1, "one": 0, "add": [[0, 1], [1, 0]],
     "mul": [[1, 1], [1, 0]], "labels": ["a"]},
    {"size": 2, "zero": 0, "one": 1, "add": [[0, 1], [1]], "mul": [[0, 0], [0, 1]]},
    {"size": 2, "zero": 5, "one": 1, "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]]},
    [1, 2, 3],
    {"size": float("inf"), "zero": 0, "one": 1, "add": [[0]], "mul": [[0]]},
    {"size": 2.7, "zero": 0.2, "one": 1.9, "add": [[0, 1], [1, 0]],
     "mul": [[0, 0], [0, 1]]},
    {"size": "2", "zero": 0, "one": True, "add": [[0, 1], [1, 0]],
     "mul": [[0, 0], [0, 1]]},
    {"size": 2, "zero": False, "one": 1, "add": [[0, 1], [1, 0]],
     "mul": [[0, 0], [0, 1]]},
    {"size": 2, "zero": 0, "one": 1, "add": [[0, 1], [1, 0]],
     "mul": [[0, 0], [0, 1]], "labels": "ab"},
    {"size": 2, "zero": 0, "one": 1, "add": [[0, 1], [1, 0]],
     "mul": [[0, 0], [0, 1]], "labels": {"x": 1, "y": 2}},
    {"size": 2, "zero": 0, "one": 1, "add": [[0, 1], [1, 0]],
     "mul": [[0, 0], [0, 1]], "labels": ["a", None]},
])
def test_malformed_table_file_exit_code(capsys, tmp_path, blob):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(blob))
    code, out, err = run(capsys, "info", f"table:{path}")
    assert code == 2 and out == ""
    assert one_line_error(err), err


F2XY_SC = {"p": 2, "rank": 3, "basis": ["1", "x", "y"],
           "mul": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                   [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
                   [[0, 0, 1], [0, 0, 0], [0, 0, 0]]]}


@pytest.mark.parametrize("blob", [
    {**F2XY_SC, "p": "x"},
    {**F2XY_SC, "rank": "three"},
    {**F2XY_SC, "p": None},
    {**F2XY_SC, "rank": [3]},
    {**F2XY_SC, "p": 2.5},
    {**F2XY_SC, "basis": 5},
    {key: F2XY_SC[key] for key in ("p", "basis", "mul")},
    [1, 2, 3],
    {**F2XY_SC, "p": "2"},
    {**F2XY_SC, "rank": True},
])
def test_malformed_structure_constant_file_exit_code(capsys, tmp_path, blob):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(blob))
    code, out, err = run(capsys, "info", f"sc:{path}")
    assert code == 2 and out == ""
    assert one_line_error(err) and "structure-constant" in err, err


def test_table_file_with_zero_elsewhere_loads(capsys, tmp_path):
    # Z_2 with its additive identity stored at index 1.
    blob = {"size": 2, "zero": 1, "one": 0, "add": [[1, 0], [0, 1]],
            "mul": [[0, 1], [1, 1]], "labels": ["one", "zero"]}
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(blob))
    code, out, _ = run(capsys, "ideals", f"table:{path}")
    assert code == 0
    assert out == "0\t(zero)\t[0]\n1\t(one)\t[0, 1]\n"


def square_zero_algebra(rank):
    """F2[x_1, ..., x_(rank-1)] modulo every product x_i x_j, as an sc: blob."""
    unit = [[int(c == k) for c in range(rank)] for k in range(rank)]
    return {"p": 2, "rank": rank, "basis": ["1", *(f"x{i}" for i in range(1, rank))],
            "mul": [[unit[i + j] if 0 in (i, j) else [0] * rank for j in range(rank)]
                    for i in range(rank)]}


def test_ag_above_the_edge_cap_exits_2(capsys, tmp_path):
    # Rank 7: 128 elements and 2,826 ideals, all but R inside m, and m^2 = 0,
    # so the AG is K_2824 with 3,986,076 edges.
    path = tmp_path / "square_zero.json"
    path.write_text(json.dumps(square_zero_algebra(7)))
    code, out, err = run(capsys, "graph", f"sc:{path}")
    assert code == 2 and out == "" and one_line_error(err) and "cap" in err, err


def test_whitespace_in_spec_exit_code(capsys):
    code, out, err = run(capsys, "info", "zn:4\t")
    assert code == 2 and out == ""
    assert one_line_error(err) and "position 4" in err
    with pytest.raises(SpecParseError) as exc:
        parse_ring_spec("prod:(zn:2,\nzn:3)")
    assert exc.value.position == 11


def test_info_validates_a_table_file_once(capsys, tmp_path, monkeypatch):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(ring_to_json(parse_ring_spec("cat:f2xy_x2y2").build())))
    calls = []

    def counting(ring):
        calls.append(ring)
        return validate_ring(ring)

    for name, module in list(sys.modules.items()):
        if name.startswith("annigraph") and getattr(module, "validate_ring", None) is validate_ring:
            monkeypatch.setattr(module, "validate_ring", counting)
    code, _, _ = run(capsys, "info", f"table:{path}")
    assert code == 0 and len(calls) == 1


def test_verify_reports_unchecked_triple_axioms(capsys, tmp_path):
    # Z_600 with 2*3 set to 0: distributivity fails, but the triple axioms
    # are not checked above 512 elements, and the report says so.
    blob = ring_to_json(make_zn(600))
    blob["mul"][2][3] = blob["mul"][3][2] = 0
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(blob))
    code, out, _ = run(capsys, "verify", f"table:{path}", "--suite", "lemmas")
    assert code == 0
    assert out.splitlines()[0] == (f"[   PASS] ring_axioms :: table:{path} :: "
                                   "triple axioms not checked above 512 elements")


# sha256 of ``verify --suite all`` on the built-in corpus, per format.  The
# reports are deterministic; a change to any byte of them fails here.
REPORT_DIGESTS = {
    "text": "36a216074ae8f9405f76bb4a8413b1f86fcf110e729ea4b2b750714d3dbbd4d3",
    "json": "bde1514f9ff781c3ea5912fce19bab2e999f13417662a66336dc67b9c534c343",
    "csv": "28b4fd50447e24a782a6079d06cecefb0a796fa4a4580504c7cb0358abd3b24b",
}


@pytest.mark.parametrize("fmt", sorted(REPORT_DIGESTS))
def test_verify_report_bytes_are_pinned(capsys, fmt):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_DIGESTS[fmt]


# sha256 of each format of ``info``, ``ideals`` and ``graph``: the outputs for
# the rings of the built-in corpus, in order, concatenated.
OUTPUT_DIGESTS = {
    ("info", "json"): "a39a4ee061b68766635ea160e9fcacc63d2ecc2a04c092e80f45d2b6117d7aaf",
    ("info", "csv"): "fc31c30ffb8efef6c849ae237ad08ec056def11b44a6870ecf76e1acdde11322",
    ("ideals", "text"): "8b2da0f0737d82a2afa6c1e758833171c65174498efd7fdea80a2fea85d6fd69",
    ("ideals", "json"): "8e839a02c57c2e6f64f4c35669327dcacf1d7ef24983027f73808dd6dda1dc16",
    ("graph", "dot"): "8efc98e05585083f406ac01905ba93ad5c0a52b375ae69120a073205cd914eed",
    ("graph", "json"): "93b29590a35b4682d5feb893d9ba0ace173dcc522dbaff8042799c390f694049",
}


@pytest.mark.parametrize("command,fmt", sorted(OUTPUT_DIGESTS))
def test_corpus_output_bytes_are_pinned(capsys, command, fmt):
    digest = hashlib.sha256()
    for spec in CORPUS_SPEC_STRINGS:
        code, out, _ = run(capsys, command, spec, "--format", fmt)
        assert code == 0, spec
        digest.update(out.encode())
    assert digest.hexdigest() == OUTPUT_DIGESTS[command, fmt]


# sha256 of the text report of ``verify --suite S`` on the built-in corpus.
SUITE_DIGESTS = {
    "lemmas": "bcfbf465f4a7bd7229636b3b62a6c3914c2b8fd6f3be4b909247af83a63f5529",
    "shapes": "0a12d7621cc7221a31a71b5dd418591afc96fc031f82661daa6d2f79c244b786",
    "genus": "8afcdf0dca4a4ba2e515a64c1d02553b5fab92dad2c2e71f4bac187824ea83cb",
}


@pytest.mark.parametrize("suite", sorted(SUITE_DIGESTS))
def test_verify_suite_report_bytes_are_pinned(capsys, suite):
    code, out, _ = run(capsys, "verify", "--suite", suite)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SUITE_DIGESTS[suite]


# Spec fuzz.  Rings stay small: factors of at most 25 elements, at most two
# of them, and free text too short to spell a product or a 3-digit number.
# Free text never starts with "-", which argparse reads as an option.
_SPEC_CHARS = "zngfpolyqcatbrd:(),0123456789-x_."
_ATOMS = st.one_of(
    st.integers(-2, 16).map(lambda n: f"zn:{n}"),
    st.tuples(st.sampled_from(["gf", "polyq"]), st.sampled_from([2, 3, 4, 5]),
              st.lists(st.integers(-1, 3), min_size=1, max_size=3))
    .map(lambda t: f"{t[0]}:{t[1]}:{','.join(map(str, t[2]))}"),
    st.sampled_from(["cat:f4", "cat:f2x_x3", "cat:f3x_x2", "cat:f2xy_x2y2",
                     "cat:k5", "cat:km:2:3", "cat:nope", "table:", "sc:", "prod:()"]),
)

_SPECS = st.one_of(
    _ATOMS,
    st.tuples(_ATOMS, _ATOMS).map(lambda t: f"prod:({t[0]},{t[1]})"),
    st.text(_SPEC_CHARS, max_size=14)
    .filter(lambda t: not t.startswith("-") and not re.search(r"\d{3}", t)),
)

_JSON_LEAF = st.one_of(st.none(), st.booleans(), st.integers(-2, 5),
                       st.floats(allow_nan=False), st.text(max_size=3))


def _tables(n):
    row = st.lists(st.integers(-1, n), min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n)


_SMALL_TABLES = [ring_to_json(parse_ring_spec(spec).build())
                 for spec in ("zn:2", "zn:4", "zn:6", "cat:f4", "prod:(zn:2,zn:2)")]


def _moved_zero(blob, k):
    """The same ring with elements 0 and k swapped, so zero sits at k."""
    n = blob["size"]
    p = list(range(n))
    p[0], p[k] = k, 0
    out = {**blob, "zero": p[blob["zero"]], "one": p[blob["one"]],
           "labels": [blob["labels"][p[i]] for i in range(n)]}
    for name in ("add", "mul"):
        table = blob[name]
        out[name] = [[p[table[p[i]][p[j]]] for j in range(n)] for i in range(n)]
    return out


@st.composite
def _table_blobs(draw):
    """A small ring's table with zero moved and a few entries changed, or
    random tables; then a key or two dropped or replaced."""
    if draw(st.booleans()):
        blob = draw(st.sampled_from(_SMALL_TABLES))
        n = blob["size"]
        cell = st.integers(0, n - 1)
        blob = _moved_zero(blob, draw(cell))
        for _ in range(draw(st.integers(0, 2))):
            row = blob[draw(st.sampled_from(["add", "mul"]))][draw(cell)]
            row[draw(cell)] = draw(st.integers(-1, n))
    else:
        n = draw(st.integers(1, 5))
        blob = {"size": n, "zero": draw(st.integers(-1, n)),
                "one": draw(st.integers(-1, n)),
                "add": draw(_tables(n)), "mul": draw(_tables(n)),
                "labels": draw(st.lists(st.text(max_size=2), max_size=n))}
    for key in draw(st.lists(st.sampled_from(sorted(blob)), max_size=2, unique=True)):
        if draw(st.booleans()):
            del blob[key]
        else:
            blob[key] = draw(_JSON_LEAF)
    return blob


@st.composite
def _sc_blobs(draw):
    """F2[x,y]/(x,y)^2 with a coefficient or two changed, or random
    structure constants; then a key or two replaced."""
    if draw(st.booleans()):
        blob = json.loads(json.dumps(F2XY_SC))
        rank = 3
        idx = st.integers(0, rank - 1)
        for _ in range(draw(st.integers(0, 2))):
            blob["mul"][draw(idx)][draw(idx)][draw(idx)] = draw(st.integers(-1, 3))
    else:
        rank = draw(st.integers(1, 3))
        vec = st.lists(st.integers(-1, 3), min_size=rank, max_size=rank)
        blob = {"p": draw(st.sampled_from([2, 3, 4])), "rank": rank,
                "basis": [f"e{i}" for i in range(rank)],
                "mul": draw(st.lists(st.lists(vec, min_size=rank, max_size=rank),
                                     min_size=rank, max_size=rank))}
    for key in draw(st.lists(st.sampled_from(sorted(blob)), max_size=2, unique=True)):
        blob[key] = draw(_JSON_LEAF)
    return blob


def _exits_cleanly(capsys, spec):
    code, _, err = run(capsys, "ideals", spec)
    assert code in (0, 2, 3), (spec, code, err)
    assert "Traceback" not in err
    if code == 2:
        assert one_line_error(err), err


# ``run`` empties capsys on every call, and each file example overwrites the
# same path, so sharing the function-scoped fixtures across examples is safe.
_SHARED_FIXTURES = [HealthCheck.function_scoped_fixture]


@settings(max_examples=150, deadline=None, suppress_health_check=_SHARED_FIXTURES)
@given(_SPECS)
def test_fuzz_spec_strings_exit_cleanly(capsys, spec):
    _exits_cleanly(capsys, spec)


@settings(max_examples=100, deadline=None, suppress_health_check=_SHARED_FIXTURES)
@given(st.one_of(_table_blobs().map(lambda b: ("table", b)),
                 _sc_blobs().map(lambda b: ("sc", b))))
def test_fuzz_ring_files_exit_cleanly(capsys, tmp_path, kind_blob):
    kind, blob = kind_blob
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(blob))
    _exits_cleanly(capsys, f"{kind}:{path}")
