"""Simple graphs: the annihilating-ideal graph, the complete and complete
bipartite reference families, and DOT/JSON output."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .ideals import IdealLattice, annihilating_ideals, name_ideal
from .rings import FiniteRing, RingError

# Hard cap on graph size: K_1448, the largest complete graph under it, peaks
# at 368 MB while SimpleGraph checks its 1,047,628 edges.
MAX_EDGES = 1 << 20


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph; vertices are labels, edges sorted (i, j) pairs with i < j."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = len(self.vertices)
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u >= v:
                raise ValueError(f"edge ({u},{v}) not in canonical i < j form")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
        if tuple(sorted(self.edges)) != self.edges:
            raise ValueError("edges not sorted")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[frozenset, ...]:
        sets = [set() for _ in self.vertices]
        for u, v in self.edges:
            sets[u].add(v)
            sets[v].add(u)
        return tuple(frozenset(s) for s in sets)


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
    return simple_graph(
        [str(i) for i in range(n)],
        [(i, j) for i in range(n) for j in range(i + 1, n)],
    )


def complete_bipartite(m: int, n: int) -> SimpleGraph:
    """K_{m,n}; labels a0..a(m-1) / b0..b(n-1) record part membership."""
    if m < 1 or n < 1:
        raise ValueError("bipartite parts need at least 1 vertex each")
    if m * n > MAX_EDGES:
        raise ValueError(f"K_{m},{n} has more than {MAX_EDGES} edges, the cap")
    labels = [f"a{i}" for i in range(m)] + [f"b{j}" for j in range(n)]
    edges = [(i, m + j) for i in range(m) for j in range(n)]
    return simple_graph(labels, edges)


def build_ag(r: FiniteRing, lattice: IdealLattice) -> SimpleGraph:
    """The annihilating-ideal graph: vertices are nonzero ideals with nonzero
    annihilator; distinct I, J are adjacent exactly when IJ = (0), that is
    when J lies in Ann(I)."""
    verts = annihilating_ideals(lattice)
    ann = dict(zip(lattice.ideals, lattice.annihilators))
    edges = []
    for a, i in enumerate(verts):
        edges += [(a, b) for b in range(a + 1, len(verts)) if verts[b] & ~ann[i] == 0]
        if len(edges) > MAX_EDGES:
            raise RingError(f"the annihilating-ideal graph has more than "
                            f"{MAX_EDGES} edges, the cap")
    return simple_graph([name_ideal(i, lattice) for i in verts], edges)


def _dot_id(label: str) -> str:
    """A DOT quoted identifier: backslashes and double quotes escaped."""
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: SimpleGraph) -> str:
    """Deterministic DOT text of graph ``AG``: one vertex line per label, one
    sorted edge line per edge."""
    ids = [_dot_id(label) for label in g.vertices]
    lines = ["graph AG {"]
    for vid in ids:
        lines.append(f"  {vid};")
    for u, v in g.edges:
        lines.append(f"  {ids[u]} -- {ids[v]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(g: SimpleGraph) -> dict:
    return {"vertices": list(g.vertices), "edges": [list(e) for e in g.edges]}
