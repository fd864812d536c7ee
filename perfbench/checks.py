"""Output checks against invariants the library does not compute for itself.

Each check returns a list of problem strings; an empty list means the output
is correct.  A wrong output fails the whole benchmark run; it is never
counted as a failed op.
"""

from __future__ import annotations

import networkx as nx

from annigraph import genus as genus_mod


def complete_genus(n: int) -> int:
    """ceil((n-3)(n-4)/12), the genus of K_n."""
    return -(-(n - 3) * (n - 4) // 12)


def bipartite_genus(m: int, n: int) -> int:
    """ceil((m-2)(n-2)/4), the genus of K_{m,n}."""
    return -(-(m - 2) * (n - 2) // 4)


# Certified genus intervals (lo, hi) for the genus workload's graphs.
# K_n and K_{m,n} come from the closed forms; Q4 (1), Desargues (2) and
# Pappus (1) are known values.  The AG entries are a REGRESSION CHECK against
# the seed commit's answers: exact where the seed solver finished (AG of
# Z4 x Z2 x Z4 took 11.4 M nodes), otherwise the tightest interval it
# certified in runs of up to 1.5 M nodes.  AG(Z4^4) has no answer there.
GENUS_REFERENCE = {
    "K8": (complete_genus(8),) * 2,
    "K9": (complete_genus(9),) * 2,
    "K4,5": (bipartite_genus(4, 5),) * 2,
    "Q4": (1, 1),
    "Desargues": (2, 2),
    "Pappus": (1, 1),
}
AG_GENUS_REFERENCE = {
    "prod:(zn:3,cat:f2xy_x2y2)": (1, 1),
    "prod:(zn:2,prod:(zn:2,prod:(zn:2,zn:2)))": (1, 1),
    "prod:(zn:4,prod:(zn:2,zn:4))": (1, 1),
    "prod:(zn:2,cat:f3xy_x2y2)": (0, 3),
    "prod:(cat:f2x_x3,cat:f2x_x3)": (1, 3),
    "prod:(zn:8,zn:8)": (1, 3),
    "prod:(zn:2,prod:(zn:2,prod:(zn:2,prod:(zn:2,zn:2))))": (3, 21),
    "prod:(zn:4,prod:(zn:4,prod:(zn:4,zn:4)))": None,
}


def cycle_rank_bound(g) -> int:
    """floor((E - V + c) / 2), an upper bound on the genus of any graph."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n_vertices))
    h.add_edges_from(g.edges)
    return (g.n_edges - g.n_vertices + nx.number_connected_components(h)) // 2


def interval(answer, g) -> tuple[int, int]:
    """(lower, upper) of a genus answer; a failed or upper-less answer
    counts as the cycle-rank interval."""
    res = answer.result
    if res is None or res.upper is None:
        return 0, cycle_rank_bound(g)
    return res.lower, res.upper


def check_genus_answer(g, res, reference=None) -> list[str]:
    """Witness, Euler bound, planarity and reference checks on one answer."""
    problems = []
    if res.upper is not None and res.lower > res.upper:
        problems.append(f"lower {res.lower} > upper {res.upper}")
    if res.witness is not None:
        traced = genus_mod.verify_embedding(g, res.witness)
        if traced != res.upper:
            problems.append(f"witness traces to genus {traced}, upper is {res.upper}")
    elif res.exact:
        problems.append("exact answer without a witness")
    euler = genus_mod.euler_lower_bound(g)
    if res.lower < euler:
        problems.append(f"lower {res.lower} < Euler bound {euler}")
    planar = genus_mod.is_planar(g)
    if planar and res.lower != 0:
        problems.append(f"planar graph with lower bound {res.lower}")
    if not planar and res.upper == 0:
        problems.append("non-planar graph with upper bound 0")
    if res.exact and planar != (res.upper == 0):
        problems.append(f"planar={planar} but exact genus {res.upper}")
    if reference is not None:
        lo, hi = reference
        upper = res.upper if res.upper is not None else cycle_rank_bound(g)
        if res.lower > hi or upper < lo:
            problems.append(f"interval [{res.lower},{upper}] misses reference [{lo},{hi}]")
    return problems


def check_lattice(spec, ring, size, ideals, lattice, ag) -> list[str]:
    """|R|, |L| from divisor counts and factor products, and |V(AG)| = |L| - 2
    for non-fields (every proper ideal of a finite ring has a nonzero
    annihilator)."""
    problems = []
    if ring.size != size:
        problems.append(f"{spec}: {ring.size} elements, expected {size}")
    if len(lattice) != ideals:
        problems.append(f"{spec}: {len(lattice)} ideals, expected {ideals}")
    if ideals > 2 and ag is not None and ag.n_vertices != ideals - 2:
        problems.append(f"{spec}: AG has {ag.n_vertices} vertices, expected {ideals - 2}")
    return problems
