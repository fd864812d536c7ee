import functools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from annigraph.graphs import (
    build_ag,
    complete_bipartite,
    complete_graph,
    graph_to_json,
    simple_graph,
    to_dot,
)
from annigraph.ideals import all_ideals, annihilating_ideals, members, name_ideal
from annigraph.rings import make_poly_quotient, make_zn
from annigraph.specs import parse_ring_spec

from conftest import (
    brute_ag,
    brute_force_ideals,
    brute_product,
    make_f2xy_x2y2,
    make_f2xyz_m2,
    product_ideal_sets,
    zn_ideal_sets,
)


def edge_labels(g):
    return {frozenset((g.vertices[u], g.vertices[v])) for u, v in g.edges}


def ag_matches_pairwise_oracle(ring, ideal_sets):
    """Compare build_ag against the elementwise pairwise-product oracle."""
    lattice = all_ideals(ring)
    g = build_ag(ring, lattice)
    want_vertices, want_edges = brute_ag(ring, ideal_sets)
    names = {name_ideal(i, lattice): frozenset(members(i))
             for i in annihilating_ideals(lattice)}
    got_vertices = {names[label] for label in g.vertices}
    got_edges = {
        frozenset((names[g.vertices[u]], names[g.vertices[v]]))
        for u, v in g.edges
    }
    assert got_vertices == want_vertices
    assert got_edges == want_edges
    return g


def test_ag_z12_is_the_known_path():
    z12 = make_zn(12)
    g = ag_matches_pairwise_oracle(z12, zn_ideal_sets(12))
    assert set(g.vertices) == {"(2)", "(3)", "(4)", "(6)"}
    assert edge_labels(g) == {
        frozenset({"(2)", "(6)"}),
        frozenset({"(6)", "(4)"}),
        frozenset({"(4)", "(3)"}),
    }


def test_ag_z6_and_z8_are_single_edges():
    for n, labels in ((6, {"(2)", "(3)"}), (8, {"(2)", "(4)"})):
        ring = make_zn(n)
        g = ag_matches_pairwise_oracle(ring, zn_ideal_sets(n))
        assert set(g.vertices) == labels
        assert g.n_edges == 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ag_of_zp2_is_a_single_vertex(p):
    ring = make_zn(p * p)
    g = build_ag(ring, all_ideals(ring))
    assert g.vertices == (f"({p})",)
    assert g.edges == ()


def test_ag_of_fields_is_empty():
    for ring in (make_zn(5), make_poly_quotient(2, (1, 1, 1))):
        g = build_ag(ring, all_ideals(ring))
        assert g.n_vertices == 0 and g.n_edges == 0


def test_ag_star_for_quadratic():
    ring = make_f2xy_x2y2()
    g = ag_matches_pairwise_oracle(ring, brute_force_ideals(ring))
    assert g.vertices == ("(xy)", "(x)", "(y)", "(x+y)", "(x,y)")
    assert g.edges == ((0, 1), (0, 2), (0, 3), (0, 4))


def test_three_generator_maximal_ideal():
    # The maximal ideal (x, y, z) of F2[x,y,z]/(x,y,z)^2 is a sum of three
    # principal ideals, so a closure that stops after one round of seed sums
    # misses it.
    ring = make_f2xyz_m2()
    ideal_sets = brute_force_ideals(ring)
    assert ring.size == 16 and len(ideal_sets) == 17
    assert {frozenset(members(i)) for i in all_ideals(ring)} == ideal_sets
    g = ag_matches_pairwise_oracle(ring, ideal_sets)
    assert g.vertices == (
        "(x)", "(y)", "(x+y)", "(z)", "(x+z)", "(y+z)", "(x+y+z)",
        "(x,y)", "(x,z)", "(x,y+z)", "(y,z)", "(y,x+z)", "(x+y,z)", "(x+y,x+z)",
        "I#15",
    )
    assert g.n_edges == 105  # K15: (x, y, z)^2 = (0)


_FACTOR_SIZES = {**{f"zn:{n}": n for n in range(2, 9)}, "cat:f4": 4, "cat:f2x_x3": 8}


def _order(factors):
    return math.prod(_FACTOR_SIZES[f] for f in factors)


@functools.cache
def _factor_ideals(spec):
    return brute_force_ideals(parse_ring_spec(spec).build())


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(sorted(_FACTOR_SIZES)), min_size=2, max_size=3)
       .filter(lambda factors: _order(factors) <= 32))
def test_products_match_the_oracles(factors):
    spec = factors[-1]
    ideal_sets = _factor_ideals(spec)
    for k in range(len(factors) - 2, -1, -1):
        spec = f"prod:({factors[k]},{spec})"
        ideal_sets = product_ideal_sets(_factor_ideals(factors[k]), ideal_sets,
                                        _order(factors[k + 1:]))
    ring = parse_ring_spec(spec).build()
    assert ring.size == _order(factors)
    if ring.size <= 16:
        assert brute_force_ideals(ring) == ideal_sets
    lattice = all_ideals(ring)
    assert {frozenset(members(i)) for i in lattice} == ideal_sets
    ag_matches_pairwise_oracle(ring, ideal_sets)
    for k, i in enumerate(lattice):
        for j in lattice.ideals[k:]:
            assert lattice.product(i, j) == brute_product(ring, i, j)


def test_reference_graphs():
    assert complete_graph(4).n_edges == 6
    assert complete_bipartite(3, 3).n_edges == 9
    k11 = complete_bipartite(1, 1)
    assert k11.n_edges == 1
    assert k11.vertices == ("a0", "b0")


def test_simple_graph_validation():
    with pytest.raises(ValueError, match="self-loop"):
        simple_graph(["a", "b"], [(0, 0)])
    g = simple_graph(["a", "b", "c"], [(2, 0), (0, 2), (1, 0)])
    assert g.edges == ((0, 1), (0, 2))


def test_dot_output_is_bit_exact():
    z12 = make_zn(12)
    g = build_ag(z12, all_ideals(z12))
    assert to_dot(g) == (
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


def test_graph_json_round_trip():
    g = complete_bipartite(2, 3)
    blob = graph_to_json(g)
    assert blob["edges"] == sorted(blob["edges"])
    assert simple_graph(blob["vertices"], blob["edges"]) == g


def test_relabeling_preserves_structure():
    rng = random.Random(11)
    g = build_ag(make_zn(36), all_ideals(make_zn(36)))
    perm = list(range(g.n_vertices))
    rng.shuffle(perm)
    relabeled = simple_graph(
        [g.vertices[perm.index(i)] for i in range(g.n_vertices)],
        [(perm[u], perm[v]) for u, v in g.edges],
    )
    assert relabeled.n_edges == g.n_edges
    assert sorted(len(adj) for adj in relabeled.adjacency) \
        == sorted(len(adj) for adj in g.adjacency)


def test_dot_escapes_quotes_and_backslashes():
    g = simple_graph(['a"b', "c\\d"], [(0, 1)])
    assert to_dot(g) == (
        'graph AG {\n'
        '  "a\\"b";\n'
        '  "c\\\\d";\n'
        '  "a\\"b" -- "c\\\\d";\n'
        '}\n'
    )
