"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately avoid the library's own algorithms: ring axioms
by exhaustive triple loops, ideal enumeration by exhaustive subset closure,
principal ideals, annihilators, sums and products of ideals by elementwise
arithmetic, annihilating-ideal graphs by elementwise pairwise products,
genus by full rotation-system enumeration or by the closed forms for K_n
and K_{m,n}, and Z_n ideal structure by divisor arithmetic.
``genus_exact_whole`` is the one oracle built on the library's search: it
runs it once over a whole graph, without reductions or components.
"""

from __future__ import annotations

import math
from itertools import permutations, product as iproduct

import numpy as np
import pytest

from annigraph.genus import (
    GenusResult,
    _Budget,
    _component_euler_bound,
    _components,
    _connected_edge_order,
    _EmbeddingSearch,
    _neighbours,
    verify_embedding,
)
from annigraph.rings import FiniteRing, ValidationReport, make_structure_constants
from annigraph.specs import builtin_corpus


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def brute_validate(ring: FiniteRing) -> ValidationReport:
    """The commutative-ring axioms checked on every element, pair and triple,
    in the order ``validate_ring`` reports them: the pair axioms, then
    ``add_associative``, ``distributive`` and ``mul_associative``."""
    n, A, M, z, one = ring.size, ring.add, ring.mul, ring.zero, ring.one

    def fail(axiom, *witness):
        return ValidationReport(False, axiom, tuple(int(x) for x in witness))

    for x in range(n):
        if A[z][x] != x:
            return fail("zero_identity", x)
    for a in range(n):
        if all(A[a][b] != z for b in range(n)):
            return fail("additive_inverse", a)
    for a, b in iproduct(range(n), repeat=2):
        if A[a][b] != A[b][a]:
            return fail("add_commutative", a, b)
    if one == z:
        return fail("one_not_zero", one)
    for x in range(n):
        if M[one][x] != x:
            return fail("mul_identity", x)
    for a, b in iproduct(range(n), repeat=2):
        if M[a][b] != M[b][a]:
            return fail("mul_commutative", a, b)
    # One row a at a time over all (b, c): left side against right side.
    triple_axioms = (
        ("add_associative", lambda a: (A[A[a], :], A[a][A])),
        ("distributive", lambda a: (M[a][A], A[M[a][:, None], M[a][None, :]])),
        ("mul_associative", lambda a: (M[M[a], :], M[a][M])),
    )
    for axiom, sides in triple_axioms:
        for a in range(n):
            bad = np.argwhere(np.not_equal(*sides(a)))
            if len(bad):
                return fail(axiom, a, *bad[0])
    return ValidationReport(True)


def violates(ring: FiniteRing, axiom: str, witness: tuple) -> bool:
    """Whether ``witness`` is a counterexample to ``axiom`` in ``ring``."""
    n, A, M, z, one = ring.size, ring.add, ring.mul, ring.zero, ring.one
    if axiom == "zero_identity":
        (x,) = witness
        return A[z][x] != x
    if axiom == "additive_inverse":
        (a,) = witness
        return all(A[a][b] != z for b in range(n))
    if axiom == "one_not_zero":
        return witness == (one,) and one == z
    if axiom == "mul_identity":
        (x,) = witness
        return M[one][x] != x
    if axiom in ("add_commutative", "mul_commutative"):
        a, b = witness
        T = A if axiom == "add_commutative" else M
        return T[a][b] != T[b][a]
    a, b, c = witness
    if axiom == "add_associative":
        return A[A[a][b]][c] != A[a][A[b][c]]
    if axiom == "distributive":
        return M[a][A[b][c]] != A[M[a][b]][M[a][c]]
    if axiom == "mul_associative":
        return M[M[a][b]][c] != M[a][M[b][c]]
    raise ValueError(f"unknown axiom {axiom}")


def brute_force_ideals(ring: FiniteRing) -> set[frozenset]:
    """Every subset containing 0 that is closed under + and ring multiples.

    Exhaustive over all 2^n subsets; only for rings of size <= 16.
    """
    n = ring.size
    assert n <= 16, "subset enumeration is only meant for tiny rings"
    add, mul, zero = ring.add, ring.mul, ring.zero
    found = set()
    for bits in range(1 << n):
        if not bits >> zero & 1:
            continue
        members = [e for e in range(n) if bits >> e & 1]
        ok = True
        for a in members:
            row = add[a]
            for b in members:
                if not bits >> row[b] & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            for r in range(n):
                row = mul[r]
                for a in members:
                    if not bits >> row[a] & 1:
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            found.add(frozenset(members))
    return found


def _mask(elements) -> int:
    return sum(1 << int(e) for e in set(elements))


def _members(mask: int) -> list[int]:
    return [e for e in range(mask.bit_length()) if mask >> e & 1]


def brute_principal(ring: FiniteRing, x: int) -> int:
    """Mask of Rx, the multiples r * x of x."""
    return _mask(ring.mul[r][x] for r in range(ring.size))


def brute_annihilator(ring: FiniteRing, mask: int) -> int:
    """Mask of Ann(I) = {a : a * x = 0 for every x in I}."""
    members = _members(mask)
    return _mask(a for a in range(ring.size)
                 if all(ring.mul[a][x] == ring.zero for x in members))


def _close_under_add(ring: FiniteRing, elements: set) -> int:
    """Mask of the additive closure of a finite set: add pairs until stable."""
    while True:
        grown = elements | {int(ring.add[a][b]) for a in elements for b in elements}
        if grown == elements:
            return _mask(elements)
        elements = grown


def brute_sum(ring: FiniteRing, m1: int, m2: int) -> int:
    """Mask of I + J = {a + b : a in I, b in J}."""
    return _mask(ring.add[a][b] for a in _members(m1) for b in _members(m2))


def brute_product(ring: FiniteRing, m1: int, m2: int) -> int:
    """Mask of IJ: the elementwise products a * b, closed under +."""
    return _close_under_add(ring, {int(ring.mul[a][b]) for a in _members(m1)
                                   for b in _members(m2)})


def brute_ag(ring: FiniteRing, ideal_sets) -> tuple[set[frozenset], set[frozenset]]:
    """Vertices and edges of the annihilating-ideal graph from a raw ideal
    list, using only elementwise products.

    IJ = (0) exactly when every pairwise product of members vanishes, so no
    ideal arithmetic is needed.  Returns (vertex member-sets, edge pairs).
    """
    mul, zero = ring.mul, ring.zero
    nonzero = [s for s in ideal_sets if s != frozenset({zero})]

    def all_products_zero(i, j):
        return all(mul[a][b] == zero for a in i for b in j)

    vertices = {
        i for i in nonzero
        if any(all_products_zero(i, j) for j in nonzero)
    }
    edges = {
        frozenset((i, j))
        for i in vertices
        for j in vertices
        if i != j and all_products_zero(i, j)
    }
    return vertices, edges


def zn_ideal_sets(n: int) -> set[frozenset]:
    """Ideals of Z_n by divisor arithmetic: one per divisor of n."""
    return {frozenset(range(0, n, d)) for d in divisors(n)}


def genus_formula_complete(n: int) -> int:
    """ceil((n-3)(n-4)/12), the genus of the complete graph on n >= 3 vertices."""
    if n < 3:
        raise ValueError("complete-graph genus formula needs n >= 3")
    return ((n - 3) * (n - 4) + 11) // 12


def genus_formula_bipartite(m: int, n: int) -> int:
    """ceil((m-2)(n-2)/4), the genus of K_{m,n} for m, n >= 2; symmetric."""
    if m < 2 or n < 2:
        raise ValueError("bipartite genus formula needs m, n >= 2")
    return ((m - 2) * (n - 2) + 3) // 4


def neighbour_sets(graph) -> list[set[int]]:
    """Each vertex's neighbours, read off the edge list."""
    nbrs = [set() for _ in range(graph.n_vertices)]
    for u, v in graph.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def rotation_count(graph) -> int:
    count = 1
    for nbrs in neighbour_sets(graph):
        count *= math.factorial(max(len(nbrs) - 1, 1))
    return count


def brute_force_genus(graph, cap: int = 200_000) -> int:
    """Minimum genus over all rotation systems, traced one by one."""
    assert rotation_count(graph) <= cap, "rotation space too large for brute force"
    options = []
    for nbrs in map(sorted, neighbour_sets(graph)):
        if len(nbrs) <= 2:
            options.append([tuple(nbrs)])
        else:
            options.append([(nbrs[0],) + p for p in permutations(nbrs[1:])])
    best = None
    for combo in iproduct(*options):
        g = verify_embedding(graph, combo)
        if best is None or g < best:
            best = g
            if best == 0:
                break
    return 0 if best is None else best


def genus_exact_whole(g) -> GenusResult:
    """Exact genus by one unbudgeted search over the whole (possibly
    disconnected) graph: no reductions, no component decomposition and no
    planarity rung.  Cross-checks that ``genus_exact`` is additive over
    components.
    """
    if not g.n_edges:
        return GenusResult(0, 0, "exact", ((),) * g.n_vertices, nodes=0)
    budget = _Budget(None, None)
    adj = _neighbours(g)
    comps = [c for c in _components(adj) if len(c) > 1]
    orders = [_connected_edge_order(comp, adj) for comp in comps]
    # Each component's edges in turn; the mirror rule at the first
    # component's mirror edge only, which any later component leaves sound.
    ends = [x for order in orders for x in order[0]]
    kind = b"".join(order[1] for order in orders)
    search = _EmbeddingSearch(ends, kind, orders[0][2], budget)
    best, upper = search.run(None)
    for target in range(sum(_component_euler_bound(c, adj) for c in comps), upper):
        found, genus = search.run(target)
        if found is not None:
            best, upper = found, genus
            break
    witness = tuple(tuple(best.get(v, ())) for v in range(g.n_vertices))
    return GenusResult(upper, upper, "exact", witness, nodes=budget.nodes)


def quadratic_sc_table(p: int):
    """Structure constants of Z_p[x,y]/(x^2, y^2) on the basis 1, x, y, xy."""
    def e(i):
        return [1 if j == i else 0 for j in range(4)]

    zero = [0, 0, 0, 0]
    return [
        [e(0), e(1), e(2), e(3)],
        [e(1), zero, e(3), zero],
        [e(2), e(3), zero, zero],
        [e(3), zero, zero, zero],
    ]


def make_f2xy_x2y2() -> FiniteRing:
    return make_structure_constants(2, 4, ("1", "x", "y", "xy"), quadratic_sc_table(2))


def make_f2xy_x2xyy2() -> FiniteRing:
    def e(i):
        return [1 if j == i else 0 for j in range(3)]

    zero = [0, 0, 0]
    table = [
        [e(0), e(1), e(2)],
        [e(1), zero, zero],
        [e(2), zero, zero],
    ]
    return make_structure_constants(2, 3, ("1", "x", "y"), table)


def make_f2xyz_m2() -> FiniteRing:
    """F2[x,y,z]/(x,y,z)^2: 16 elements, its maximal ideal needs three generators."""
    def e(i):
        return [1 if j == i else 0 for j in range(4)]

    zero = [0, 0, 0, 0]
    table = [[e(0), e(1), e(2), e(3)]] + [[e(i), zero, zero, zero] for i in (1, 2, 3)]
    return make_structure_constants(2, 4, ("1", "x", "y", "z"), table)


def product_ideal_sets(left, right, right_size: int) -> set[frozenset]:
    """Ideals of A x B from those of A and B: exactly the products I x J,
    since the idempotents (1,0) and (0,1) split any ideal.  Element (a, b)
    has index a * |B| + b, as in ``make_product``."""
    return {frozenset(a * right_size + b for a in i for b in j)
            for i in left for j in right}


@pytest.fixture(scope="session")
def corpus():
    """The frozen corpus as a name -> ring mapping."""
    return dict(builtin_corpus())
