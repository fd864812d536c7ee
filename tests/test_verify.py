import collections
import functools
import json
import math
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from annigraph.cli import main
from annigraph.graphs import (
    SimpleGraph,
    build_ag,
    complete_bipartite,
    complete_graph,
    simple_graph,
)
from annigraph.ideals import all_ideals
from annigraph.rings import FiniteRing, make_poly_quotient, make_zn
from annigraph.specs import builtin_corpus, parse_ring_spec
from annigraph.verify import UNREACHABLE_FACTS, match_shape, run_suite

from conftest import make_f2xy_x2xyy2, make_f2xy_x2y2, neighbour_sets


def lemma(check, ring):
    """The results of one lemma check on one ring, through ``run_suite``."""
    return [r for r in run_suite([("fixture", ring)], "lemmas").results
            if r.check == check]


def named(*specs):
    """(spec, ring) corpus entries for ``run_suite``."""
    return [(spec, parse_ring_spec(spec).build()) for spec in specs]


def test_subideal_count_on_z16():
    results = lemma("subideal_count", make_zn(16))
    assert all(r.status == "pass" for r in results)
    details = {r.detail for r in results}
    # (2) = m sits at level n=2 (generator in m^1 but not m^2): counts 4 = 3+1.
    assert "n=2 I=(2): |sub(I)|=4, |sub(I&m^n)|+1=4" in details
    assert "n=3 I=(4): |sub(I)|=3, |sub(I&m^n)|+1=3" in details


def test_subideal_count_skips():
    (skip,) = lemma("subideal_count", make_zn(12))
    assert skip.status == "skipped" and "non-local" in skip.reason
    (skip,) = lemma("subideal_count", make_poly_quotient(2, (1, 1, 1)))
    assert skip.status == "skipped" and "field" in skip.reason


def test_subideal_count_passes_on_quadratic():
    results = lemma("subideal_count", make_f2xy_x2y2())
    assert results and all(r.status == "pass" for r in results)


def test_socle_containment_applicable_cases():
    results = lemma("socle_containment", make_f2xy_x2y2())
    applicable = [r for r in results if r.status == "pass" and "I=(" in r.detail]
    assert {r.detail.split(":")[0] for r in applicable} >= {"I=(x)", "I=(y)", "I=(x+y)"}

    results = lemma("socle_containment", make_zn(8))
    assert all(r.status == "pass" for r in results)

    (skip,) = lemma("socle_containment", make_f2xy_x2xyy2())
    assert skip.status == "skipped" and "Gorenstein" in skip.reason


def test_spir_chain_fixtures():
    (res,) = lemma("spir_chain", make_zn(27))
    assert res.status == "pass" and "n=1,2" in res.detail

    (res,) = lemma("spir_chain", make_f2xy_x2y2())
    assert res.status == "pass" and "n=2" in res.detail

    (res,) = lemma("spir_chain", make_zn(12))
    assert res.status == "skipped" and "non-local" in res.reason


def test_unique_minimal_and_socle_fixtures():
    (res,) = lemma("unique_minimal_socle", make_zn(8))
    assert res.status == "pass" and "socle=(4)" in res.detail

    (res,) = lemma("unique_minimal_socle", make_f2xy_x2y2())
    assert res.status == "pass" and "socle=(xy)" in res.detail

    (res,) = lemma("unique_minimal_socle", make_f2xy_x2xyy2())
    assert res.status == "skipped" and "Gorenstein" in res.reason


def off_center(g, center):
    """The edges that miss ``center``: the matching of a star match."""
    return [e for e in g.edges if center not in e]


def test_match_shape_star_with_matching():
    star = complete_bipartite(1, 4)
    center = match_shape(star, "star_with_matching")
    assert center == 0 and off_center(star, center) == []

    ring = make_f2xy_x2y2()
    ag = build_ag(ring, all_ideals(ring))
    center = match_shape(ag, "star_with_matching")
    assert center is not None
    assert ag.vertices[center] == "(xy)"
    assert sum(center in e for e in ag.edges) == 4 and off_center(ag, center) == []

    # Star plus a matching edge between two leaves.
    g = simple_graph("cwxyz", [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])
    center = match_shape(g, "star_with_matching")
    assert center == 0 and off_center(g, center) == [(1, 2)]


def test_match_shape_double_star():
    # Two centers, one shared leaf row, one private row, centers adjacent.
    g = simple_graph(
        "ABxyzpq",
        [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 4)],
    )
    # The centers 0 and 1 meet every edge.
    assert match_shape(g, "double_star") == 0
    assert all({u, v} & {0, 1} for u, v in g.edges)

    assert match_shape(complete_graph(5), "double_star") is None
    assert match_shape(complete_graph(5), "star_with_matching") is None
    # K_4: the would-be leaves are adjacent to each other.
    assert match_shape(complete_graph(4), "double_star") is None
    assert match_shape(complete_graph(4), "star_with_matching") is None


ShapeMatch = collections.namedtuple("ShapeMatch", "kind centers leaves matching",
                                    defaults=((),))


def neighbour_set_match(g: SimpleGraph, kind: str) -> ShapeMatch | None:
    """Recognize the two planar star families.

    double_star: two centers (optionally adjacent); every other vertex has
    degree 1 or 2 and is adjacent only to centers.  star_with_matching: one
    center adjacent to all other vertices; the remaining edges form a
    partial matching among the leaves.  Returns the first assignment in
    vertex order, or None.
    """
    n = g.n_vertices
    adj = neighbour_sets(g)
    if kind == "star_with_matching":
        for c in range(n):
            if len(adj[c]) != n - 1:
                continue
            rest = [v for v in range(n) if v != c]
            matching = [(u, v) for u, v in g.edges if u != c and v != c]
            matched = [w for e in matching for w in e]
            if len(matched) == len(set(matched)):
                return ShapeMatch(kind, (c,), tuple(rest), tuple(matching))
        return None
    if kind == "double_star":
        for c1 in range(n):
            for c2 in range(c1 + 1, n):
                centers = {c1, c2}
                ok = True
                for v in range(n):
                    if v in centers:
                        continue
                    if not adj[v] or not adj[v] <= centers:
                        ok = False
                        break
                if ok:
                    leaves = tuple(v for v in range(n) if v not in centers)
                    return ShapeMatch(kind, (c1, c2), leaves)
        return None
    raise ValueError(f"unknown shape kind: {kind}")


@st.composite
def star_like_graphs(draw):
    """Graphs on at most 9 vertices: random ones, and stars with a partial
    matching or double stars with adjacent or non-adjacent centers, some
    with one more edge, all with up to two isolated vertices and a random
    labelling."""
    n = draw(st.integers(0, 7))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    shape = draw(st.sampled_from(["random", "star", "double_star"]))
    if shape == "random" or n < 2:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    elif shape == "star":
        leaves = draw(st.permutations(range(1, n)))
        pairs_matched = draw(st.integers(0, (n - 1) // 2))
        edges = [(0, v) for v in leaves] + [
            (leaves[2 * i], leaves[2 * i + 1]) for i in range(pairs_matched)]
    else:
        edges = [(0, 1)] if draw(st.booleans()) else []
        for v in range(2, n):
            edges += [(c, v) for c in draw(st.sampled_from([(0,), (1,), (0, 1)]))]
    if pairs and draw(st.booleans()):
        edges.append(draw(st.sampled_from(pairs)))
    n += draw(st.integers(0, 2))
    perm = draw(st.permutations(range(n)))
    return simple_graph([str(v) for v in range(n)],
                        [(perm[u], perm[v]) for u, v in edges])


@settings(max_examples=400, deadline=None)
@given(star_like_graphs())
@example(simple_graph([], []))
@example(complete_graph(1))
@example(complete_graph(2))
@example(simple_graph("ab", []))
@example(simple_graph("abc", []))
def test_match_shape_agrees_with_neighbour_set_oracle(g):
    for kind in ("star_with_matching", "double_star"):
        hit = neighbour_set_match(g, kind)
        assert match_shape(g, kind) == (None if hit is None else hit.centers[0])


def test_match_shape_unknown_kind():
    with pytest.raises(ValueError):
        match_shape(complete_graph(3), "pentagram")


def test_suite_passes_on_builtin_corpus():
    report = run_suite(builtin_corpus(), suite="all")
    assert report.ok
    counts = report.counts
    assert counts["fail"] == 0
    assert counts["pass"] > 150


def test_suite_is_deterministic():
    a = run_suite(builtin_corpus(), suite="lemmas").results
    b = run_suite(builtin_corpus(), suite="lemmas").results
    assert a == b


def test_suite_reports_corrupted_ring_with_witness():
    z4 = make_zn(4)
    mul = [list(row) for row in z4.mul]
    mul[2][2] = 2
    bad = FiniteRing(size=4, add=z4.add, mul=tuple(tuple(r) for r in mul))
    report = run_suite([("broken", bad), *named("zn:8")], suite="lemmas")
    assert not report.ok
    (fail,) = [r for r in report.results if r.status == "fail"]
    assert fail.check == "ring_axioms" and fail.ring == "broken"
    assert fail.witness == {"axiom": "distributive", "witness": [2, 1, 1]}
    # The healthy ring still gets its checks.
    assert any(r.ring == "zn:8" and r.status == "pass" for r in report.results)


def test_suite_on_fields_only_is_vacuous_but_green():
    report = run_suite(named("zn:5", "cat:f4", "cat:f8"), suite="all")
    assert report.ok
    assert all(r.status in ("pass", "skipped") for r in report.results)


def test_unreachable_facts_are_reported():
    report = run_suite(named("zn:8"), suite="lemmas")
    names = {r.check: r for r in report.results if r.ring == "-"}
    assert set(names) == {fact for fact, _ in UNREACHABLE_FACTS}
    for fact, hypothesis in UNREACHABLE_FACTS:
        assert names[fact].status == "skipped"
        assert names[fact].reason == hypothesis


def test_shape_analog_checks_fire_for_quadratics():
    report = run_suite(named("cat:f2xy_x2y2", "cat:f3xy_x2y2"), suite="shapes")
    assert report.ok
    analogs = [r for r in report.results if r.check == "t2_star_with_matching_analog"]
    assert len(analogs) == 2
    assert all(r.status == "pass" for r in analogs)
    assert any("4 leaves" in r.detail for r in analogs)
    assert any("5 leaves" in r.detail for r in analogs)


def test_genus_suite_checks():
    report = run_suite(named("zn:12", "zn:64", "cat:f2xy_x2y2"), suite="genus")
    assert report.ok
    genus_lines = {r.ring: r.detail for r in report.results if r.check == "ag_genus"}
    assert genus_lines == {
        "zn:12": "genus=0",
        "zn:64": "genus=0",
        "cat:f2xy_x2y2": "genus=0",
    }


def test_report_formats(capsys):
    report = run_suite(named("zn:8"), suite="lemmas")

    def printed(fmt):
        assert main(["verify", "zn:8", "--suite", "lemmas", "--format", fmt]) == 0
        return capsys.readouterr().out

    text = printed("text")
    assert "summary:" in text
    assert len(text.splitlines()) == len(report.results) + 1
    payload = json.loads(printed("json"))
    assert payload["counts"] == report.counts and payload["counts"]["fail"] == 0
    assert len(payload["results"]) == len(report.results)
    csv_text = printed("csv")
    assert csv_text.splitlines()[0] == "check,ring,status,reason_or_detail"
    assert len(csv_text.splitlines()) == len(report.results) + 1


def test_suite_solves_each_genus_at_most_once(monkeypatch):
    from annigraph import verify

    calls = []
    real = verify.genus_exact

    def counting(g, **budgets):
        calls.append(g)
        return real(g, **budgets)

    monkeypatch.setattr(verify, "genus_exact", counting)
    report = run_suite(builtin_corpus(), suite="all")
    assert report.ok
    assert len(calls) == len(builtin_corpus()) == 23
    calls.clear()
    run_suite(builtin_corpus(), suite="lemmas")
    assert calls == []


def test_suite_tests_each_planarity_at_most_once(monkeypatch):
    from annigraph import verify

    calls = []
    real = verify.is_planar

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(verify, "is_planar", counting)
    report = run_suite(builtin_corpus(), suite="all")
    assert report.ok
    assert 0 < len(calls) <= 23
    assert len({id(g) for g in calls}) == len(calls)


def test_text_report_leaves_ring_fingerprints_unhashed(capsys, monkeypatch):
    from annigraph import cli

    fresh = builtin_corpus.__wrapped__()
    monkeypatch.setattr(cli, "builtin_corpus", lambda: fresh)
    for fmt in ("text", "csv"):
        assert main(["verify", "--suite", "all", "--format", fmt]) == 0
        assert capsys.readouterr().out
        assert all("fingerprint" not in vars(ring) for _, ring in fresh)
    assert main(["verify", "--suite", "lemmas", "--format", "json"]) == 0
    by_name = dict(fresh)
    for res in json.loads(capsys.readouterr().out)["results"]:
        ring = by_name.get(res["ring"])
        assert res["fingerprint"] == (None if ring is None else ring.fingerprint)


def test_default_suite_reads_no_clock(monkeypatch):
    def no_clock():
        raise AssertionError("clock read")

    monkeypatch.setattr(time, "monotonic", no_clock)
    assert run_suite(named("zn:12")).ok


_SMALL_FACTORS = [f"zn:{n}" for n in range(2, 17)] + [
    "cat:f4", "cat:f8", "cat:f9", "cat:f2x_x3", "cat:f3x_x2", "cat:f2xy_x2y2",
    "cat:f2xy_x2xyy2"]
# Every check that reports one result per ring; subideal_count and
# socle_containment report one per applicable ideal, or one skip or vacuous pass.
_SINGLE_RESULT_CHECKS = {
    "ring_axioms", "spir_chain", "unique_minimal_socle", "t1_two_proper_ideals",
    "t2_star_with_matching_analog", "t3_double_star_analog", "shape_implies_planar",
    "ag_genus", "euler_bound_le_genus", "planar_iff_genus_zero"}


@functools.cache
def _size(spec):
    return parse_ring_spec(spec).build().size


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(_SMALL_FACTORS), min_size=2, max_size=2)
       .filter(lambda factors: math.prod(map(_size, factors)) <= 64))
def test_every_check_reports_by_one_protocol(factors):
    spec = f"prod:({factors[0]},{factors[1]})"
    report = run_suite(named(spec), "all", node_budget=2000)
    results = [r for r in report.results if r.ring == spec]
    assert results[0].check == "ring_axioms" and results[0].status == "pass"
    counts = collections.Counter(r.check for r in results)
    assert {check: counts[check] for check in _SINGLE_RESULT_CHECKS} == \
        dict.fromkeys(_SINGLE_RESULT_CHECKS, 1)
    assert counts["subideal_count"] >= 1 and counts["socle_containment"] >= 1
    for res in results:
        if res.status == "skipped":
            assert res.reason and not res.detail
        else:
            assert res.status in ("pass", "fail") and not res.reason
