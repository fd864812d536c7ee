import hashlib
import random
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from annigraph import genus
from annigraph.genus import (
    EmbeddingError,
    _Budget,
    _connected_edge_order,
    _EmbeddingSearch,
    euler_lower_bound,
    genus_exact,
    is_planar,
    verify_embedding,
)
from annigraph.graphs import build_ag, complete_bipartite, complete_graph, simple_graph
from annigraph.ideals import all_ideals
from annigraph.specs import parse_ring_spec

from conftest import (
    brute_force_genus,
    genus_exact_whole,
    genus_formula_bipartite,
    genus_formula_complete,
    neighbour_sets,
    rotation_count,
)


def disjoint_union(g, h):
    verts = [f"g{v}" for v in g.vertices] + [f"h{v}" for v in h.vertices]
    shift = g.n_vertices
    edges = list(g.edges) + [(u + shift, v + shift) for u, v in h.edges]
    return simple_graph(verts, edges)


def random_graph(rng, n, p):
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
    return simple_graph([str(v) for v in range(n)], edges)


def petersen_graph():
    return simple_graph(
        [str(i) for i in range(10)],
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
    )


def hypercube(d):
    edges = [(i, i ^ (1 << k)) for i in range(1 << d) for k in range(d)
             if i < i ^ (1 << k)]
    return simple_graph([str(i) for i in range(1 << d)], edges)


def ag_of(spec):
    ring = parse_ring_spec(spec).build()
    return build_ag(ring, all_ideals(ring))


def test_complete_formula_values():
    assert [genus_formula_complete(n) for n in range(3, 9)] == [0, 0, 1, 1, 1, 2]
    with pytest.raises(ValueError):
        genus_formula_complete(2)


def test_bipartite_formula_values():
    assert genus_formula_bipartite(3, 3) == 1
    assert genus_formula_bipartite(2, 7) == 0
    assert genus_formula_bipartite(4, 4) == 1
    assert genus_formula_bipartite(5, 3) == genus_formula_bipartite(3, 5) == 1
    with pytest.raises(ValueError):
        genus_formula_bipartite(1, 5)


def test_euler_lower_bound_fixtures():
    assert euler_lower_bound(complete_graph(5)) == 1
    assert euler_lower_bound(complete_bipartite(3, 3)) == 1  # triangle-free rate
    tree = simple_graph("abcde", [(0, 1), (0, 2), (2, 3), (2, 4)])
    assert euler_lower_bound(tree) == 0
    union = disjoint_union(complete_graph(5), complete_bipartite(3, 3))
    assert euler_lower_bound(union) == 2


# Hand-traced rotation fixtures on K_4.  Placing vertex 3 inside triangle
# 0-1-2 and reading neighbors counterclockwise gives four triangular faces
# (genus 0); listing every neighbor in ascending order instead traces to a
# 4-face + 8-face pair (genus 1, the toroidal K_4).
K4_PLANAR_ROTATION = ((1, 3, 2), (2, 3, 0), (0, 3, 1), (0, 1, 2))
K4_ASCENDING_ROTATION = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))


def test_verify_embedding_hand_fixtures():
    k4 = complete_graph(4)
    assert verify_embedding(k4, K4_PLANAR_ROTATION) == 0
    assert verify_embedding(k4, K4_ASCENDING_ROTATION) == 1

    star = simple_graph("cxyz", [(0, 1), (0, 2), (0, 3)])
    assert verify_embedding(star, ((1, 2, 3), (0,), (0,), (0,))) == 0
    assert verify_embedding(star, ((2, 1, 3), (0,), (0,), (0,))) == 0

    cycle = simple_graph("abcd", [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert verify_embedding(cycle, ((1, 3), (0, 2), (1, 3), (2, 0))) == 0


def test_verify_embedding_rejects_inconsistent_rotation():
    k4 = complete_graph(4)
    with pytest.raises(EmbeddingError):
        verify_embedding(k4, ((1, 2), (0, 2, 3), (0, 1, 3), (0, 1, 2)))
    with pytest.raises(EmbeddingError):
        verify_embedding(k4, ((1, 2, 2), (0, 2, 3), (0, 1, 3), (0, 1, 2)))


def sorted_dart_verify_embedding(g, rotation) -> int:
    """The former ``verify_embedding``, which traced each face from its least
    dart in a sorted list of all 2E darts."""
    n = g.n_vertices
    if len(rotation) != n:
        raise EmbeddingError(f"rotation covers {len(rotation)} vertices, graph has {n}")
    adj = genus._neighbours(g)
    pos = []
    for v in range(n):
        cyc = tuple(rotation[v])
        if sorted(cyc) != sorted(adj[v]):
            raise EmbeddingError(f"rotation at vertex {v} does not match its neighbors")
        pos.append({u: k for k, u in enumerate(cyc)})

    # Each face starts at its least dart: sweep the sorted darts and trace
    # a face from every dart that no earlier face went through.
    traced = set()
    faces_in = [0] * n
    for start in sorted(d for u, v in g.edges for d in ((u, v), (v, u))):
        if start in traced:
            continue
        faces_in[start[0]] += 1
        d = start
        while d not in traced:
            traced.add(d)
            u, v = d
            cyc = rotation[v]
            d = (v, cyc[(pos[v][u] + 1) % len(cyc)])

    total = 0
    for comp in genus._components(adj):
        nv = len(comp)
        ne = sum(len(adj[v]) for v in comp) // 2
        nf = sum(faces_in[v] for v in comp) if ne else 1
        chi = nv - ne + nf
        if chi % 2 or chi > 2:
            raise EmbeddingError(f"face tracing gave Euler characteristic {chi} "
                                 f"on a component with {nv} vertices")
        total += (2 - chi) // 2
    return total


@st.composite
def rotation_systems(draw):
    """A graph on at most 9 vertices and a rotation system of it, each
    neighbour list shuffled.  Edges are drawn inside up to three vertex
    blocks, so the graph is often disconnected and has isolated vertices."""
    n = draw(st.integers(0, 9))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=2)))
    block = [sum(v >= c for c in cuts) for v in range(n)]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if block[a] == block[b]]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = simple_graph([str(v) for v in range(n)], [e for e, k in zip(pairs, keep) if k])
    return g, tuple(tuple(draw(st.permutations(sorted(ns)))) for ns in neighbour_sets(g))


@settings(max_examples=300, deadline=None)
@given(rotation_systems())
def test_verify_embedding_matches_sorted_dart_oracle(system):
    g, rotation = system
    assert verify_embedding(g, rotation) == sorted_dart_verify_embedding(g, rotation)


def test_planarity_fixtures():
    assert is_planar(complete_graph(4))
    assert not is_planar(complete_graph(5))
    assert not is_planar(complete_bipartite(3, 3))
    path = simple_graph("abcd", [(0, 1), (1, 2), (2, 3)])
    assert is_planar(path)


def test_planarity_under_nine_edges_needs_no_lr_test(monkeypatch):
    # K5 and K3,3 have 10 and 9 edges, so a graph with 8 or fewer is planar.
    def no_lr(verts, edges):
        raise AssertionError("LR test called")

    monkeypatch.setattr(genus, "_lr_rotation", no_lr)
    assert is_planar(complete_graph(4))
    assert is_planar(complete_bipartite(2, 4))


@pytest.mark.parametrize("n", range(3, 8))
def test_exact_matches_complete_formula(n):
    g = complete_graph(n)
    res = genus_exact(g)
    assert res.exact
    assert res.upper == genus_formula_complete(n)
    assert verify_embedding(g, res.witness) == res.upper


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
                                 (3, 3), (3, 4), (4, 4)])
def test_exact_matches_bipartite_formula(m, n):
    g = complete_bipartite(m, n)
    res = genus_exact(g)
    assert res.exact
    assert res.upper == genus_formula_bipartite(m, n)
    assert verify_embedding(g, res.witness) == res.upper


def test_exact_agrees_with_brute_force_on_named_graphs():
    petersen = simple_graph(
        [str(i) for i in range(10)],
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
    )
    for g in (complete_graph(4), complete_graph(5), complete_bipartite(3, 3),
              petersen):
        res = genus_exact(g)
        assert res.exact
        assert res.upper == brute_force_genus(g)


def test_exact_agrees_with_brute_force_on_random_graphs():
    rng = random.Random(20260810)
    checked = 0
    while checked < 25:
        g = random_graph(rng, rng.randint(3, 6), rng.choice([0.3, 0.5, 0.7]))
        if rotation_count(g) > 20_000:
            continue
        res = genus_exact(g)
        assert res.exact
        assert res.upper == brute_force_genus(g)
        checked += 1


def test_disjoint_union_additivity_fixture():
    union = disjoint_union(complete_graph(5), complete_bipartite(3, 3))
    res = genus_exact(union)
    assert res.exact and res.upper == 2
    assert verify_embedding(union, res.witness) == 2
    # Same instance through the undecomposed whole-graph search.
    whole = genus_exact_whole(union)
    assert whole.exact and whole.upper == 2
    # Brute-forceable union: K_4 + K_{3,3} has genus 0 + 1.
    small = disjoint_union(complete_graph(4), complete_bipartite(3, 3))
    assert genus_exact(small).upper == 1
    assert genus_exact_whole(small).upper == 1
    assert brute_force_genus(small) == 1
    # Without an edge the oracle answers exact 0 with empty rotations.
    bare = simple_graph("ab", [])
    assert genus_exact_whole(bare) == genus_exact(bare)


def test_reductions_preserve_genus_and_witness():
    # Subdivide every edge of K_5: still genus 1, witness on the big graph.
    k5 = complete_graph(5)
    verts = [str(i) for i in range(5)]
    edges = []
    for u, v in k5.edges:
        w = len(verts)
        verts.append(f"s{u}{v}")
        edges.extend([(u, w), (w, v)])
    subdivided = simple_graph(verts, edges)
    res = genus_exact(subdivided)
    assert res.exact and res.upper == 1
    assert verify_embedding(subdivided, res.witness) == 1

    # Pendant trees and isolated vertices change nothing.
    decorated = simple_graph(
        list(complete_graph(5).vertices) + ["p", "q", "iso"],
        list(complete_graph(5).edges) + [(0, 5), (5, 6)],
    )
    res = genus_exact(decorated)
    assert res.exact and res.upper == 1
    assert verify_embedding(decorated, res.witness) == 1

    empty = simple_graph(["a", "b"], [])
    res = genus_exact(empty)
    assert res.exact and res.upper == 0
    assert res.witness == ((), ())


def with_ears(g, ears):
    """``g`` plus one new vertex per ear, joined to both ends of the edge
    (u, v).  An end -k names the k-th ear vertex, so ears can stack."""
    n = g.n_vertices
    verts = list(g.vertices) + [f"e{k}" for k in range(len(ears))]
    edges = list(g.edges)
    for k, ends in enumerate(ears):
        edges.extend((x if x >= 0 else n - x - 1, n + k) for x in ends)
    return simple_graph(verts, edges)


@pytest.mark.parametrize("base,genus_of_base", [
    (complete_graph(4), 0), (complete_graph(5), 1), (complete_bipartite(3, 3), 1),
], ids=["K4", "K5", "K3,3"])
@pytest.mark.parametrize("ears", [
    lambda p, q, r, s: [(p, q)],
    lambda p, q, r, s: [(p, q), (r, s)],
    lambda p, q, r, s: [(p, q), (p, q)],
    lambda p, q, r, s: [(p, q), (p, -1), (-1, -2)],
    lambda p, q, r, s: [(p, q), (q, -1), (-1, -2), (-2, -3), (r, s)],
], ids=["one", "two-edges", "same-edge", "stacked", "stacked-deep"])
def test_triangle_rule_deletes_ears(base, genus_of_base, ears):
    # Ears sit on the first and last edges of the base and on earlier ears;
    # the triangle rule deletes them all, so the search runs on the base.
    (p, q), (r, s) = base.edges[0], base.edges[-1]
    g = with_ears(base, ears(p, q, r, s))
    reduced, records = genus._reduce(genus._neighbours(g))
    assert sorted(reduced) == list(range(base.n_vertices))
    assert "triangle" in [rec[0] for rec in records]
    res = genus_exact(g)
    assert res.exact and res.upper == genus_of_base
    assert res.nodes == genus_exact(base).nodes
    assert verify_embedding(g, res.witness) == res.upper
    if rotation_count(g) <= 30_000:  # all K4 and K3,3 cases but the deepest stack
        assert res.upper == brute_force_genus(g)


def test_determinism():
    g = complete_graph(7)
    first = genus_exact(g)
    second = genus_exact(g)
    assert first == second
    assert first.nodes == second.nodes


def test_budget_exhaustion_reports_bounds():
    res = genus_exact(complete_graph(7), node_budget=1)
    assert res.status == "budget_exhausted"
    assert res.upper is None and res.witness is None
    assert res.lower >= 1
    # A budget large enough for the greedy descent but not the proof still
    # yields sound bounds.
    res = genus_exact(complete_graph(8), node_budget=40)
    assert res.status == "budget_exhausted"
    assert res.lower <= 2
    if res.upper is not None:
        assert res.lower <= res.upper


def test_budget_cut_in_second_component_counts_limit_plus_one():
    # K5 is solved inside the budget; K8 (8,913 nodes alone) is cut.  The
    # nodes of both components land in one count, which stops at limit + 1.
    k5_nodes = genus_exact(complete_graph(5)).nodes
    assert k5_nodes > 0
    union = disjoint_union(complete_graph(5), complete_graph(8))
    budget = k5_nodes + 500
    res = genus_exact(union, node_budget=budget)
    assert res.status == "budget_exhausted"
    assert res.nodes == budget + 1
    assert res.lower >= 1 + 2
    planar = disjoint_union(complete_graph(4), hypercube(3))
    res = genus_exact(planar, node_budget=0)
    assert res.exact and res.upper == 0 and res.nodes == 0


def test_time_budget_cuts_at_the_first_clock_read():
    # The clock is read every 256 nodes; a deadline already passed stops the
    # search there.
    res = genus_exact(complete_graph(9), node_budget=None, time_budget_ms=0)
    assert res.status == "budget_exhausted"
    assert res.nodes == 256


def test_random_component_additivity():
    rng = random.Random(99)
    for _ in range(10):
        g = random_graph(rng, rng.randint(3, 7), 0.4)
        h = random_graph(rng, rng.randint(3, 7), 0.4)
        gh = disjoint_union(g, h)
        assert genus_exact(gh).upper == genus_exact(g).upper + genus_exact(h).upper


def test_edge_deletion_never_increases_genus():
    k5 = complete_graph(5)
    for drop in range(k5.n_edges):
        edges = [e for i, e in enumerate(k5.edges) if i != drop]
        sub = simple_graph(k5.vertices, edges)
        assert genus_exact(sub).upper <= genus_exact(k5).upper
        assert genus_exact(sub).upper == 0  # K_5 minus any edge is planar


@pytest.mark.parametrize("graph,nodes,digest", [
    (lambda: complete_graph(8), 985,
     "759cb629aba7a77fb6a61958b6be64be9c9e30c59e7593aa3e0ed3201db9f967"),
    (lambda: complete_graph(9), 4_016,
     "9a126d8b6f33a37955449b30c686b5d05b666dea189a1cd2e81209e67c3044ff"),
    (lambda: hypercube(4), 817,
     "cf92852391afa1873a4f3070138bc84a010ad2fc21d424c9b3b7eb7b87485666"),
    (lambda: desargues_graph(), 596,
     "dba9ccef02265f84bf7c68ffcdb0286667400c715648b0aad569128c108e2d91"),
    (lambda: pappus_graph(), 216,
     "f0116bca1027779df04ebd7d99f20e1d08aeffe3f49a3df5731d6abc6e87a40e"),
], ids=["K8", "K9", "Q4", "Desargues", "Pappus"])
def test_search_order_node_counts_are_pinned(graph, nodes, digest):
    # The planarity rung finds no embedding on any of them: K8, K9 and Q4
    # have an Euler bound >= 1, and Desargues and Pappus are non-planar, so
    # the LR test only proves genus >= 1.  The node count and the witness
    # therefore measure the corner search and its candidate order alone.
    g = graph()
    assert euler_lower_bound(g) >= 1 or not is_planar(g)
    res = genus_exact(g)
    assert res.exact and res.nodes == nodes
    assert verify_embedding(g, res.witness) == res.upper
    assert hashlib.sha256(repr(res.witness).encode()).hexdigest() == digest


def desargues_graph():
    # The generalized Petersen graph GP(10, 3): 20 vertices, genus 2.
    return simple_graph(
        [str(i) for i in range(20)],
        [(i, (i + 1) % 10) for i in range(10)]
        + [(i, i + 10) for i in range(10)]
        + [(10 + i, 10 + (i + 3) % 10) for i in range(10)],
    )


def pappus_graph():
    # LCF notation [5, 7, -7, 7, -7, -5]^3: 18 vertices, cubic, genus 1.
    lcf = [5, 7, -7, 7, -7, -5]
    edges = {tuple(sorted((i, (i + k) % 18))) for i in range(18)
             for k in (1, lcf[i % 6])}
    return simple_graph([str(i) for i in range(18)], sorted(edges))


def test_mirror_rule_node_count_on_exhausted_rung():
    # Euler bound 0 and non-planar, so the search starts at rung 1 and must
    # exhaust it to prove genus 2; trying one mirror corner about halves it.
    g = desargues_graph()
    assert euler_lower_bound(g) == 0 and not is_planar(g)
    res = genus_exact(g)
    assert res.exact and res.upper == 2
    assert res.nodes == 596  # 1,108 without the mirror rule
    assert verify_embedding(g, res.witness) == 2


def shuffled(rng, g):
    perm = rng.sample(range(g.n_vertices), g.n_vertices)
    return simple_graph([str(v) for v in range(g.n_vertices)],
                        [(perm[u], perm[v]) for u, v in g.edges])


def small_graph(rng):
    """A random graph, K5 minus up to two edges, or K3,3 plus up to two
    edges inside its parts, under a random labelling."""
    kind = rng.randrange(3)
    if kind == 0:
        return random_graph(rng, rng.randint(4, 7), rng.choice([0.5, 0.7, 0.9]))
    if kind == 1:
        edges = list(complete_graph(5).edges)
        for _ in range(rng.randint(0, 2)):
            edges.remove(rng.choice(edges))
        return shuffled(rng, simple_graph("abcde", edges))
    inner = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    edges = list(complete_bipartite(3, 3).edges) + rng.sample(inner, rng.randint(0, 2))
    return shuffled(rng, simple_graph("abcdef", edges))


@pytest.mark.parametrize("seed", range(4))
def test_mirror_rule_agrees_with_brute_force(seed):
    # Half of the graphs are disjoint unions.  Both `genus_exact` and
    # the single whole-graph search must match the brute force; the latter
    # has no reductions and no planarity rung, so every one of its rungs
    # runs through the mirror edge.
    rng = random.Random(seed)
    checked = nonplanar = 0
    while checked < 12:
        g = small_graph(rng)
        if rng.random() < 0.5:
            g = disjoint_union(g, random_graph(rng, rng.randint(3, 4), 0.7))
        if rotation_count(g) > 20_000:
            continue
        expected = brute_force_genus(g)
        res = genus_exact(g)
        whole = genus_exact_whole(g)
        assert res.exact and res.upper == expected
        assert whole.upper == expected
        assert verify_embedding(g, res.witness) == expected
        assert verify_embedding(g, whole.witness) == expected
        checked += 1
        nonplanar += expected > 0
    assert nonplanar >= 3


def test_planarity_rung_proves_genus_at_least_one():
    # Euler bound 0, non-planar: the LR test alone lifts the lower bound.
    petersen = petersen_graph()
    assert euler_lower_bound(petersen) == 0
    res = genus_exact(petersen, node_budget=1)
    assert res.status == "budget_exhausted"
    assert res.lower == 1


@pytest.mark.parametrize("g", [hypercube(3), ag_of("prod:(zn:4,zn:27)"),
                               complete_graph(4), complete_bipartite(2, 5),
                               simple_graph("abcde", [(0, 1), (1, 2), (2, 0), (3, 4)])])
def test_planar_graph_solves_without_search(g):
    res = genus_exact(g, node_budget=0)
    assert res.exact and res.upper == 0
    assert res.nodes == 0
    assert verify_embedding(g, res.witness) == 0


def test_planarity_rung_skips_rung_zero_on_ag():
    g = ag_of("prod:(zn:3,cat:f2xy_x2y2)")
    res = genus_exact(g)
    assert res.exact and res.upper == 1
    assert res.nodes <= 36
    assert verify_embedding(g, res.witness) == 1


def test_triangle_rule_solves_ag_within_a_small_budget():
    # Without the triangle rule this AG ended [1, 4] after 200,001 nodes.
    g = ag_of("prod:(zn:2,cat:f3xy_x2y2)")
    res = genus_exact(g, node_budget=100)
    assert res.exact and res.upper == 1
    assert verify_embedding(g, res.witness) == 1


def test_deep_graph_degrades_to_bounds():
    # AG(Z4^4): 79 vertices, 560 edges, far deeper than the interpreter's
    # recursion limit allows a recursive search to go.
    g = ag_of("prod:(zn:4,prod:(zn:4,prod:(zn:4,zn:4)))")
    assert (g.n_vertices, g.n_edges) == (79, 560)
    res = genus_exact(g, node_budget=2000)
    assert res.status == "budget_exhausted"
    assert res.upper is not None and res.lower <= res.upper
    assert res.lower >= euler_lower_bound(g)
    assert verify_embedding(g, res.witness) == res.upper


def test_default_search_reads_no_clock(monkeypatch):
    def no_clock():
        raise AssertionError("clock read")

    monkeypatch.setattr(time, "monotonic", no_clock)
    res = genus_exact(complete_graph(7))
    assert res.exact and res.upper == 1


@st.composite
def connected_graphs(draw):
    """(vertices, neighbour map) of a random connected graph on 2-12
    vertices, vertices in a random order."""
    n = draw(st.integers(2, 12))
    labels = draw(st.permutations(range(n)))
    adj = {v: set() for v in labels}

    def connect(a, b):
        if a != b:
            adj[labels[a]].add(labels[b])
            adj[labels[b]].add(labels[a])

    for v in range(1, n):  # a random spanning tree keeps the graph connected
        connect(v, draw(st.integers(0, v - 1)))
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=30)):
        connect(a, b)
    return labels, adj


@settings(max_examples=200, deadline=None)
@given(connected_graphs())
def test_connected_edge_order_contract(graph):
    labels, adj = graph
    n = len(labels)
    ends, kind, mirror = _connected_edge_order(labels, adj)
    pairs = iter(ends)
    edges = list(zip(pairs, pairs))
    assert len(ends) == 2 * len(edges)
    assert sorted(tuple(sorted(e)) for e in edges) == sorted(
        (u, w) for u in adj for w in adj[u] if u < w)
    # Positions in order of first appearance.  The first edge that touches
    # a vertex attaches it as its second endpoint, and its back edges to
    # earlier vertices follow at once, by the earlier endpoint's position.
    pos = {edges[0][0]: 0}
    placed = earlier = None
    for u, w in edges:
        assert u in pos
        if w not in pos:
            pos[w] = len(pos)
            placed = w
        else:
            assert w == placed and pos[u] > earlier
        earlier = pos[u]
    assert len(pos) == n
    assert all(pos[u] < pos[w] for u, w in edges)
    # What the search reads off the order: an opening edge, then for each
    # later vertex a pendant edge followed by a join per back edge; and the
    # mirror edge, the first at which an endpoint already has two darts,
    # which is the root's third tree edge when some degree is 3 or more:
    # edge 3 if the root's first two neighbours are adjacent (edge 2 joins
    # them), else edge 2.
    by_pos = sorted(pos, key=pos.__getitem__)
    back = [sum(pos[u] < pos[w] for u in adj[w]) - 1 for w in by_pos[2:]]
    assert kind == bytes([0] + [k for b in back for k in [1] + [2] * b])
    darts = dict.fromkeys(pos, 0)
    first_third = -1
    for ei, (u, w) in enumerate(edges):
        if first_third < 0 and 2 in (darts[u], darts[w]):
            first_third = ei
        darts[u] += 1
        darts[w] += 1
    assert mirror == first_third
    if max(map(len, adj.values())) < 3:
        assert mirror == -1
    else:
        assert mirror == (3 if by_pos[2] in adj[by_pos[1]] else 2)


def sorted_edge_order(verts, adj):
    """The BFS edge order by collecting every edge and sorting on (later
    position, not a tree edge, earlier position)."""
    degs = {v: len(adj[v]) for v in verts}
    root = min(verts, key=lambda v: (-degs[v], v))
    order = {root: 0}
    parent = {root: None}
    queue = [root]
    for v in queue:
        for w in sorted(adj[v], key=lambda w: (-degs[w], w)):
            if w not in order:
                order[w] = len(order)
                parent[w] = v
                queue.append(w)
    edges = [(u, w) for w in queue for u in adj[w] if order[u] < order[w]]
    edges.sort(key=lambda e: (order[e[1]], parent[e[1]] != e[0], order[e[0]]))
    return edges


@settings(max_examples=200, deadline=None)
@given(connected_graphs())
def test_connected_edge_order_matches_sorted_oracle(graph):
    labels, adj = graph
    pairs = iter(_connected_edge_order(labels, adj)[0])
    assert list(zip(pairs, pairs)) == sorted_edge_order(labels, adj)


def assert_faces_match_tracing(search):
    """Two darts share a ``face`` id exactly when they share a ``phi``
    orbit, a traced face.  Every corner listed at v is a dart into v in the
    dart table."""
    assert all(search.ends[c ^ 1] == v
               for v, corners in search.darts_at.items() for c in corners)
    phi, face = search.phi, search.face
    orbit = [-1] * len(phi)
    for start in range(len(phi)):
        if orbit[start] < 0:
            d = start
            while orbit[d] < 0:
                orbit[d] = start
                d = phi[d]
    assert -1 not in face
    pairs = set(zip(orbit, face))
    assert len(pairs) == len(set(orbit)) == len(set(face))


@settings(max_examples=150, deadline=None)
@given(connected_graphs())
def test_search_face_labels_match_traced_faces(graph):
    # Every returned embedding has one face id per traced face, and a rung
    # that finds nothing leaves every dart list empty.  A budget keeps the
    # dense draws cheap; a rung it cuts is not checked.
    labels, adj = graph
    order = _connected_edge_order(labels, adj)
    budget = _Budget(20_000, None)
    search = _EmbeddingSearch(*order, budget)
    rot, upper = search.run(None)
    assert rot is not None
    assert_faces_match_tracing(search)
    for target in range(upper - 1, -1, -1):
        budget.nodes = 0
        try:
            found, genus_found = search.run(target)
        except genus.BudgetExceeded:
            break
        if found is None:
            assert not any(search.darts_at.values())
            break
        assert genus_found <= target
        assert_faces_match_tracing(search)


@pytest.mark.parametrize("graph,target,expected", [
    (lambda: complete_graph(8), 2, (2, 957)),
    (lambda: ag_of("prod:(zn:2,prod:(zn:2,prod:(zn:2,zn:2)))"), 0, (None, 99)),
], ids=["K8-rung2", "AG(Z2^4)-rung0"])
def test_search_reused_after_budget_cut_matches_fresh(graph, target, expected):
    # A rung cut by the budget leaves moves applied and levels suspended;
    # a later run on the same search must see none of them.  K8 finds
    # genus 2 at its Euler rung, and the reduced AG(Z2^4) exhausts rung 0.
    reduced, _ = genus._reduce(genus._neighbours(graph()))
    order = _connected_edge_order(sorted(reduced), reduced)
    fresh_budget = _Budget(None, None)
    fresh = _EmbeddingSearch(*order, fresh_budget).run(target)
    assert (fresh[1], fresh_budget.nodes) == expected
    budget = _Budget(None, None)
    search = _EmbeddingSearch(*order, budget)
    for cut in (7, 30, 90):
        budget.limit, budget.nodes = cut, 0
        with pytest.raises(genus.BudgetExceeded):
            search.run(target)
        assert budget.nodes == cut + 1
        budget.limit, budget.nodes = None, 0
        assert search.run(target) == fresh
        assert budget.nodes == fresh_budget.nodes
        if fresh[0] is None:
            assert not any(search.darts_at.values())


class PlainSearch(_EmbeddingSearch):
    """The search that applies and descends into every candidate: its
    pendant and join levels yield only True and False, as before leaves
    were counted.  The oracle for the library search's node counts."""

    def _pendant(self, ei):
        a = 2 * ei
        b = a + 1
        phi = self.phi
        face = self.face
        du = self.darts_at[self.ends[a]]
        dv = self.darts_at[self.ends[b]]
        mirror = ei == self.mirror
        while True:
            phi[a] = b
            dv.append(a)
            for cx in (du[:1] if mirror else du):
                sx = phi[cx]
                phi[cx] = a
                phi[b] = sx
                face[a] = face[b] = face[cx]
                du.append(b)
                yield True
                du.pop()
                phi[cx] = sx
            dv.pop()
            yield False

    def _join(self, ei):
        # Both endpoints embedded.  Corner c lies on face face[c].  A
        # same-face pair splits that face (genus kept); a cross-face pair
        # merges two faces (genus + 1).  The corners at v are grouped by face
        # once a visit; pairs are formed only when tried.
        a = 2 * ei
        b = a + 1
        phi = self.phi
        face = self.face
        du = self.darts_at[self.ends[a]]
        dv = self.darts_at[self.ends[b]]
        while True:
            by_face = {}
            for cy in dv:
                fy = face[cy]
                if fy in by_face:
                    by_face[fy].append(cy)
                else:
                    by_face[fy] = [cy]
            for cx in du:
                fx = face[cx]
                if fx not in by_face:
                    continue
                for cy in by_face[fx]:
                    sx = phi[cx]
                    sy = phi[cy]
                    phi[cx] = a
                    phi[b] = sx
                    phi[cy] = b
                    phi[a] = sy
                    du.append(b)
                    dv.append(a)
                    # The face through b (b, then sx onward) keeps fx; the
                    # one through a (a, then sy onward) takes the fresh id a.
                    face[a] = a
                    face[b] = fx
                    d = sy
                    while d != a:
                        face[d] = a
                        d = phi[d]
                    yield True
                    d = sy
                    while d != a:
                        face[d] = fx
                        d = phi[d]
                    du.pop()
                    dv.pop()
                    phi[cy] = sy
                    phi[cx] = sx

            if self.genus_used < self.target:
                for cx in du:
                    fx = face[cx]
                    for cy in dv:
                        fy = face[cy]
                        if fy == fx:
                            continue
                        sx = phi[cx]
                        sy = phi[cy]
                        phi[cx] = a
                        phi[b] = sx
                        phi[cy] = b
                        phi[a] = sy
                        du.append(b)
                        dv.append(a)
                        # The merged face runs a, then fy's darts from sy,
                        # then b, then fx's darts from sx; only fx's darts
                        # are relabelled.
                        face[a] = face[b] = fy
                        d = sx
                        while d != a:
                            face[d] = fy
                            d = phi[d]
                        self.genus_used += 1
                        yield True
                        self.genus_used -= 1
                        d = sx
                        while d != a:
                            face[d] = fx
                            d = phi[d]
                        du.pop()
                        dv.pop()
                        phi[cy] = sy
                        phi[cx] = sx
            yield False


class LeafCountingSearch(_EmbeddingSearch):
    """The library search, also counting the leaves its levels yield."""

    leaves = 0

    def _pendant(self, ei):
        return self._count(super()._pendant(ei))

    def _join(self, ei):
        return self._count(super()._join(ei))

    def _count(self, level):
        for step in level:
            if step is not True and step:
                self.leaves += step
            yield step


def rungs_up_to_success(cls, order, lower, limit):
    """(result, nodes) of run(target) for target = lower, lower + 1, ...
    up to the first embedding found, or up to a rung cut at ``limit``."""
    budget = _Budget(limit, None)
    search = cls(*order, budget)
    rungs = []
    for target in range(lower, len(order[1]) + 1):
        budget.nodes = 0
        try:
            found = search.run(target)
        except genus.BudgetExceeded:
            rungs.append(("cut", budget.nodes))
            break
        rungs.append((found, budget.nodes))
        if found[0] is not None:
            break
    return rungs


@settings(max_examples=150, deadline=None)
@given(connected_graphs())
def test_leaves_spend_the_nodes_of_a_plain_search(graph):
    # Counting a candidate whose child has no move as a leaf, without
    # applying it, changes no rung's result, witness or node count.
    labels, adj = graph
    order = _connected_edge_order(labels, adj)
    lower = genus._component_euler_bound(labels, adj)
    assert (rungs_up_to_success(_EmbeddingSearch, order, lower, 20_000)
            == rungs_up_to_success(PlainSearch, order, lower, 20_000))


def test_budget_cuts_inside_leaf_runs_stop_at_the_limit():
    # AG(Z8xZ8) has mostly short faces, so many of its joins have no move:
    # most of its rung-1 nodes are leaves, counted a run at a time.  A cut
    # at any budget still stops at exactly one node past it, a deadline
    # already passed at the first multiple of 256, and a search reused
    # after a cut matches a fresh one.
    g = ag_of("prod:(zn:8,zn:8)")
    for k in range(3001):
        res = genus_exact(g, node_budget=k)
        assert (res.status, res.nodes) == ("budget_exhausted", k + 1)
        res = genus_exact(g, node_budget=k, time_budget_ms=0)
        assert (res.status, res.nodes) == ("budget_exhausted", min(k + 1, 256))
    reduced, _ = genus._reduce(genus._neighbours(g))
    order = _connected_edge_order(sorted(reduced), reduced)
    plain_budget = _Budget(None, None)
    plain = PlainSearch(*order, plain_budget).run(1)
    fresh_budget = _Budget(None, None)
    fresh_search = LeafCountingSearch(*order, fresh_budget)
    fresh = fresh_search.run(1)
    assert (fresh, fresh_budget.nodes) == (plain, plain_budget.nodes) == ((None, None), 24_351)
    assert fresh_search.leaves > fresh_budget.nodes // 2
    budget = _Budget(None, None)
    search = _EmbeddingSearch(*order, budget)
    for cut in range(0, 3001, 100):
        budget.limit, budget.nodes = cut, 0
        with pytest.raises(genus.BudgetExceeded):
            search.run(1)
        assert budget.nodes == cut + 1
        budget.limit, budget.nodes = None, 0
        assert search.run(1) == fresh
        assert budget.nodes == fresh_budget.nodes
        assert not any(search.darts_at.values())


@pytest.mark.parametrize("spec,expected,digest", [
    ("prod:(zn:2,prod:(zn:2,prod:(zn:2,prod:(zn:2,zn:2))))",
     ("budget_exhausted", 3, 21, 20_001),
     "24c7f7ab5d755e753d950ca789022846707feb1a1f0d0418501c6b1a86fa1238"),
    ("prod:(zn:4,prod:(zn:4,prod:(zn:4,zn:4)))",
     ("budget_exhausted", 58, 157, 20_001),
     "005191647ebc489f0405271a0397e9976a46c0717ea268da46ffb92a8f4e3ab3"),
    ("prod:(zn:8,zn:8)",
     ("budget_exhausted", 1, 4, 20_001),
     "ef40c8583245eebca40882024da92b5922d9179ae651c6d09ae668d7e9f6907d"),
])
def test_cut_search_on_large_face_ags_is_pinned(spec, expected, digest):
    # AG(Z2^5) and AG(Z4^4) have the longest faces of the benchmark graphs,
    # so they exercise face relabelling most.  AG(Z8xZ8) has mostly short
    # faces, so many of its join levels find no corner pair on a common
    # face and end without a move; it solves, exact 2, in 25,387 nodes,
    # just above this budget.  The cut search's bounds, node count and
    # witness are fixed by the graph and the budget alone.
    res = genus_exact(ag_of(spec), node_budget=20_000)
    assert (res.status, res.lower, res.upper, res.nodes) == expected
    assert hashlib.sha256(repr(res.witness).encode()).hexdigest() == digest


@pytest.mark.parametrize("spec", ["prod:(zn:2,cat:f2xy_x2xyy2)", "prod:(zn:8,zn:8)"])
def test_closure_order_certifies_genus_two_ags(spec):
    # With each vertex's back edges right after its tree edge, a corner
    # choice that rules out a later join is refuted near where it was made.
    # Both AGs then exhaust rung 1 and find a genus-2 embedding in under
    # 26,000 nodes; with every tree edge first they ended [1, 3] and
    # [1, 4] at this budget.
    g = ag_of(spec)
    res = genus_exact(g, node_budget=50_000)
    assert res.exact and (res.lower, res.upper) == (2, 2)
    assert verify_embedding(g, res.witness) == 2


@st.composite
def graphs_with_reductions(draw):
    """K5, K3,3 or a random graph on up to six vertices, grown by
    subdivisions, ears (paths between two vertices), pendant trees and
    isolated vertices, under a random labelling."""
    base = draw(st.sampled_from(["K5", "K3,3", "random"]))
    if base == "random":
        n = draw(st.integers(1, 6))
        edges = {(a, b) for a in range(n) for b in range(a + 1, n) if draw(st.booleans())}
    else:
        g = complete_graph(5) if base == "K5" else complete_bipartite(3, 3)
        n, edges = g.n_vertices, set(g.edges)
    for _ in range(draw(st.integers(0, 8))):
        op = draw(st.sampled_from(["subdivide", "ear", "tree", "isolated"]))
        if op == "subdivide" and edges:
            u, v = draw(st.sampled_from(sorted(edges)))
            edges -= {(u, v)}
            edges |= {(u, n), (v, n)}
            n += 1
        elif op == "ear" and n >= 2:
            u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                 unique=True))
            path = [u] + list(range(n, n + draw(st.integers(1, 3)))) + [v]
            edges |= set(zip(path, path[1:]))
            n = max(path[1:-1]) + 1
        elif op == "tree":
            for _ in range(draw(st.integers(1, 3))):
                edges.add((draw(st.integers(0, n - 1)), n))
                n += 1
        else:
            n += 1
    perm = draw(st.permutations(range(n)))
    g = simple_graph([str(v) for v in range(n)], [(perm[u], perm[v]) for u, v in edges])
    # The whole-graph oracle exhausts rung 0 with no reductions; keep it small.
    assume(rotation_count(g) <= 20_000)
    return g


@settings(max_examples=150, deadline=None)
@given(graphs_with_reductions(), st.randoms(use_true_random=False))
def test_reduce_is_minimal_and_commutes_with_relabelling(g, rng):
    # _reduce edits the map it is given, so each call gets a fresh one.
    reduced, _ = genus._reduce(genus._neighbours(g))
    assert all(len(nbrs) >= 3 for nbrs in reduced.values())
    # Relabel by pi, reduce, and map back: the reduced graph is the same, so
    # it does not depend on the order in which vertices are removed.
    pi = rng.sample(range(g.n_vertices), g.n_vertices)
    inverse = {p: v for v, p in enumerate(pi)}
    relabelled, _ = genus._reduce({pi[v]: {pi[w] for w in nbrs}
                                   for v, nbrs in genus._neighbours(g).items()})
    assert {inverse[v]: {inverse[w] for w in nbrs}
            for v, nbrs in relabelled.items()} == reduced

    res = genus_exact(g)
    expected = genus_exact_whole(g).upper
    assert res.exact and res.upper == expected
    assert verify_embedding(g, res.witness) == expected
