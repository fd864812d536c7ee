"""Orientable genus of finite simple graphs.

Euler-formula lower bounds, LR planarity, face tracing of a rotation
system, and an exact branch-and-bound solver over rotation systems.

The exact solver builds a cellular embedding one edge at a time.  A partial
embedding is the face permutation of the inserted subgraph, the rotation
composed with the edge involution, whose orbits are the faces, together
with a face id per dart and each vertex's corners; the rotation is read
back from it only for a witness.  Inserting an edge means choosing a corner
at each endpoint:
if both corners lie on the same face the face splits (genus unchanged), and
if they lie on different faces the faces merge (genus grows by one).  Corner
choices enumerate each rotation system exactly once, cyclic symmetry
included, so exhausting the search at merge budget g-1 proves genus >= g.
Mirror images are searched only once.  The search reads the graph as one
flat dart table in a BFS edge order whose root has the highest degree and
which places each vertex by its tree edge and then at once closes its back
edges to earlier vertices, so every cycle through a vertex closes as soon
as the vertex is embedded.  Up to the root's third tree edge every vertex
has at most two darts, so the partial embedding is its own mirror image; of
the root's two corners there, whose subtrees mirror each other at equal
genus, only the first is tried.
`genus_exact` deletes degree-0/1 vertices, suppresses a degree-2 vertex whose
neighbors are not adjacent and deletes one whose neighbors are (the
triangle rule), splits into connected components (genus adds over
components), and runs iterative deepening on the merge budget starting from
the Euler bound.  Where that bound is 0, the LR planarity test runs first:
it either yields a planar embedding, so no search is needed, or proves
genus >= 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .graphs import SimpleGraph

DEFAULT_NODE_BUDGET = 100_000_000

RotationSystem = tuple  # per-vertex tuples of neighbor indices in cyclic order


class BudgetExceeded(Exception):
    """Raised internally when the node or time budget runs out."""


class EmbeddingError(ValueError):
    """A rotation system that does not cover the graph's edge-ends."""


@dataclass(frozen=True)
class GenusResult:
    """An interval [lower, upper] on the genus.

    status is "exact" (lower == upper, search completed), "budget_exhausted"
    (bounds as far as the budget allowed; upper is None when not even a
    first embedding was finished).  ``witness`` is a rotation system
    achieving ``upper`` whenever one is known.
    """

    lower: int
    upper: int | None
    status: str
    witness: RotationSystem | None = None
    nodes: int = 0

    @property
    def exact(self) -> bool:
        return self.status == "exact"


def _neighbours(g: SimpleGraph) -> dict[int, set[int]]:
    """A fresh map from each vertex to the set of its neighbours."""
    adj = {v: set() for v in range(g.n_vertices)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _components(adj: dict[int, set[int]]) -> list[list[int]]:
    seen = set()
    comps = []
    for v in sorted(adj):
        if v in seen:
            continue
        comp = []
        stack = [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def _component_euler_bound(verts, adj) -> int:
    nv = len(verts)
    ne = sum(len(adj[v]) for v in verts) // 2
    if nv < 3 or ne < 3:
        return 0
    triangle = any(
        adj[u] & adj[v]
        for u in verts
        for v in adj[u]
        if u < v
    )
    if triangle:
        return max(0, -(-(ne - 3 * nv + 6) // 6))
    return max(0, -(-(ne - 2 * nv + 4) // 4))


def euler_lower_bound(g: SimpleGraph) -> int:
    """Sum of per-component Euler-formula bounds: ceil((E-3V+6)/6), or
    ceil((E-2V+4)/4) on triangle-free components; 0 for small components."""
    adj = _neighbours(g)
    return sum(_component_euler_bound(c, adj) for c in _components(adj))


def _lr_rotation(verts, edges) -> dict[int, list[int]] | None:
    """Rotation lists of a planar embedding by the LR test (networkx), or
    None if the graph on ``verts`` and ``edges`` is non-planar.  networkx is
    imported here, so commands that never test planarity do not load it."""
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(verts)
    G.add_edges_from(edges)
    ok, emb = nx.check_planarity(G)
    if not ok:
        return None
    data = emb.get_data()
    return {v: list(data.get(v, ())) for v in verts}


def is_planar(g: SimpleGraph) -> bool:
    """Planarity, agreeing with the exact solver at genus 0: under 9 edges a
    graph is planar (K5 and K3,3 have 10 and 9), else the LR test (networkx)."""
    return g.n_edges < 9 or _lr_rotation(range(g.n_vertices), g.edges) is not None


def verify_embedding(g: SimpleGraph, rotation) -> int:
    """Trace the faces of a rotation system and return the embedding genus.

    The rotation must list, for every vertex, exactly its neighbors in some
    cyclic order.  A face is traced from each dart, in edge order, that no
    earlier face went through: faces are the orbits of a permutation of the
    darts, so their count and components do not depend on the start.  Genus
    comes from Euler's formula per connected component; a non-integer or
    negative outcome is reported as an inconsistency.
    """
    n = g.n_vertices
    if len(rotation) != n:
        raise EmbeddingError(f"rotation covers {len(rotation)} vertices, graph has {n}")
    adj = _neighbours(g)
    pos = []
    for v in range(n):
        cyc = tuple(rotation[v])
        if sorted(cyc) != sorted(adj[v]):
            raise EmbeddingError(f"rotation at vertex {v} does not match its neighbors")
        pos.append({u: k for k, u in enumerate(cyc)})

    traced = set()
    faces_in = [0] * n
    for u, v in g.edges:
        for start in ((u, v), (v, u)):
            if start in traced:
                continue
            faces_in[start[0]] += 1
            d = start
            while d not in traced:
                traced.add(d)
                x, y = d
                cyc = rotation[y]
                d = (y, cyc[(pos[y][x] + 1) % len(cyc)])

    total = 0
    for comp in _components(adj):
        nv = len(comp)
        ne = sum(len(adj[v]) for v in comp) // 2
        nf = sum(faces_in[v] for v in comp) if ne else 1
        chi = nv - ne + nf
        if chi % 2 or chi > 2:
            raise EmbeddingError(f"face tracing gave Euler characteristic {chi} "
                                 f"on a component with {nv} vertices")
        total += (2 - chi) // 2
    return total


# ---------------------------------------------------------------------------
# Exact search


class _Budget:
    """Nodes spent so far and the limits on them; ``_EmbeddingSearch.run``
    counts the nodes and raises ``BudgetExceeded`` at ``limit + 1``."""

    __slots__ = ("limit", "deadline", "nodes")

    def __init__(self, node_limit, time_ms):
        self.limit = node_limit
        self.deadline = None if time_ms is None else time.monotonic() + time_ms / 1000.0
        self.nodes = 0


def _reduce(adj: dict[int, set[int]]):
    """Genus-preserving reductions, recorded for witness reconstruction.

    Removes isolated and pendant vertices.  A degree-2 vertex v with
    neighbors a and b is suppressed into an edge ab when a and b are not
    adjacent, and deleted when they are (the triangle rule): genus is
    monotone under subgraphs, and the path a-v-b fits beside the edge ab
    inside one of its faces, so gamma(G) = gamma(G - v).  What is left has
    minimum degree 3.

    One worklist pass: a stack starts with the vertices of degree at most
    2, a popped vertex is skipped if it is gone or has degree 3 or more,
    and the neighbors of each removed vertex, the only degrees a removal
    changes, are pushed.  Every removal is "delete v, then join its
    neighbors if it had two": it never raises a degree, so a vertex stays
    removable once it is, and two removals give the same graph in either
    order.  Every order therefore ends at the same reduced graph.

    ``adj`` is consumed: it is edited in place and returned as the reduced
    graph.
    """
    records = []
    stack = [v for v, nbrs in adj.items() if len(nbrs) <= 2]
    while stack:
        v = stack.pop()
        if v not in adj or len(adj[v]) > 2:
            continue
        nbrs = sorted(adj.pop(v))
        for u in nbrs:
            adj[u].discard(v)
        if len(nbrs) == 1:
            records.append(("leaf", v, nbrs[0]))
        elif len(nbrs) == 2:
            a, b = nbrs
            records.append(("triangle" if b in adj[a] else "suppress", v, a, b))
            adj[a].add(b)
            adj[b].add(a)
        stack.extend(nbrs)
    return adj, records


def _restore_rotation(rot: dict[int, list[int]], records) -> dict[int, list[int]]:
    """Put the reduced vertices back into ``rot``, last record first.

    Each rotation a record touches becomes a cycle of successor and
    predecessor maps through a marker, None, that stands before its first
    neighbor, so every insertion and removal is O(1) however long the
    rotation.  Each cycle is flattened once at the end, from the marker,
    into the list that editing the rotation in place gives.
    """
    links = {}

    def cycle(w):
        if w not in links:
            cyc = [None, *rot.get(w, ())]
            nxt = cyc[1:] + cyc[:1]
            links[w] = dict(zip(cyc, nxt)), dict(zip(nxt, cyc))
        return links[w]

    def insert(w, v, x):
        """v right after x in the rotation at w."""
        succ, pred = cycle(w)
        y = succ[x]
        succ[x], succ[v], pred[v], pred[y] = v, y, x, v

    for rec in reversed(records):
        if rec[0] == "leaf":
            # v goes last at p, just before the marker.
            _, v, p = rec
            insert(p, v, cycle(p)[1][None])
            insert(v, p, None)
            continue
        # v after b at a and before a at b: the face b, a, v closes a
        # triangle, and the face that ran b -> a now runs b -> v -> a.  A
        # suppressed v then drops the edge ab, which leaves v in its place.
        kind, v, a, b = rec
        insert(a, v, b)
        insert(b, v, cycle(b)[1][a])
        insert(v, a, None)
        insert(v, b, a)
        if kind == "suppress":
            for w, x in ((a, b), (b, a)):
                succ, pred = links[w]
                before, after = pred.pop(x), succ.pop(x)
                succ[before], pred[after] = after, before
    for w, (succ, _) in links.items():
        rot[w], x = [], succ[None]
        while x is not None:
            rot[w].append(x)
            x = succ[x]
    return rot


def _connected_edge_order(verts, adj):
    """BFS edge order as a flat dart table, with what the search reads off
    it: returns (ends, kind, mirror).

    Edge i runs from ``ends[2i]``, its earlier vertex, to ``ends[2i+1]``, so
    dart d runs from ``ends[d]`` to ``ends[d ^ 1]``.  The BFS starts at the
    first vertex by (-degree, label) and visits neighbours in that rank.
    Each later vertex w, in BFS order, brings its tree edge (parent[w], w),
    which attaches it, and then at once its back edges (u, w) to the other
    earlier neighbours u, by u's position: every cycle through w closes as
    soon as w is placed, so a corner choice that rules out a later join is
    refuted near where it was made.  Scanning the earlier endpoints in BFS
    order fills each later vertex's list already in order.

    ``kind[i]`` is edge i's move: 0 opens the component, 1 adds a new
    vertex w (a tree edge), 2 joins w to an earlier vertex (a back edge), so
    an edge followed by a 2 is followed by a join at the same w.
    ``mirror`` is the first edge at which an endpoint already has two darts,
    or -1 if none: the root's third tree edge when the root, of highest
    degree, has three neighbours or more.  Its first two neighbours come
    next in the BFS, and when they are adjacent edge 2 joins them, one dart
    at each end, so the mirror edge is edge 3; otherwise it is edge 2.
    """
    ranked = sorted(verts, key=lambda v: (-len(adj[v]), v))
    rank = {v: i for i, v in enumerate(ranked)}
    order = {ranked[0]: 0}
    parent = {ranked[0]: None}
    queue = [ranked[0]]
    for v in queue:
        for w in sorted(adj[v], key=rank.__getitem__):
            if w not in order:
                order[w] = len(order)
                parent[w] = v
                queue.append(w)
    later = {w: [] for w in queue}
    for pos, u in enumerate(queue):
        for w in adj[u]:
            if pos < order[w] and parent[w] != u:
                later[w].append(u)
    ends = [x for w in queue[1:] for u in (parent[w], *later[w]) for x in (u, w)]
    kind = bytearray(b"\x02") * (len(ends) // 2)
    ei = 0
    for w in queue[1:]:
        kind[ei] = 1 if ei else 0
        ei += 1 + len(later[w])
    if len(adj[queue[0]]) < 3:
        mirror = -1
    else:
        mirror = 3 if queue[2] in adj[queue[1]] else 2
    return ends, kind, mirror


class _EmbeddingSearch:
    """Depth-first search over corner insertions for a fixed edge order.

    The graph is the (ends, kind, mirror) of ``_connected_edge_order``,
    read in place; the dart table may span several components, each in its
    own order, and each component's first edge, of kind 0, opens a fresh
    face.  ``run`` returns (rotation, genus) for the first embedding found
    with at most ``target`` face merges, or (None, None).

    The partial embedding is stored as its face permutation: ``phi[d]`` is
    the dart after d on its face, the rotation's successor of d ^ 1 (faces
    are the orbits of the rotation composed with the edge involution), and
    ``face[d]`` is the id of that face.  ``darts_at[v]`` lists the corners
    at v, each named by the dart c into v that enters it; the corner lies
    on face ``face[c]``, and an edge put there runs between c and
    ``phi[c]``.  So a face read is one lookup, a relabel step is
    ``d = phi[d]``, and a move writes four entries of ``phi``.

    ``run`` keeps one coroutine per edge level in a list of ``depth``
    slots, made on the level's first visit and dropped when the run ends,
    so the depth is bounded by memory, not by the interpreter's recursion
    limit.  A coroutine binds its edge's darts, ``phi``, ``face`` and its
    corner lists once, then serves visit after visit.  It yields one of
    three things:
    - True: it applied its next candidate move, one node; ``run`` steps
      down a level, and the move is undone when the level is resumed;
    - an int k: its next k candidates are leaves, k nodes that ``run``
      counts but neither applies nor descends into;
    - False: the visit has no candidates left; ``run`` steps back up, and
      the next resume starts a new visit.
    Which coroutine a level runs is its byte in ``kind``: 0 opens a
    component, 1 adds the new endpoint v, 2 joins two embedded endpoints.
    Candidates come in a fixed order: pendant corners by the corners at u;
    corner pairs on a common face (cx over the corners at u, cy over those
    at v); then, while merges remain, pairs on different faces in the same
    order.  Corner lists are iterated in place: every move is undone before
    its iterator advances.

    A leaf is a candidate whose child level would have no move, so it
    counts as the one node it would be and nothing below it reads the
    state it would leave.  Both rules apply only when no merge is left
    (``genus_used >= target``) and the next edge, by ``kind``, is a join
    (u', v) at the same new vertex v; that join can then only split a face
    that u' and v share.
    - A pendant leaves v with one corner, on cx's face, and relabels no
      face: a corner cx is a leaf unless u' has a corner on ``face[cx]``,
      one lookup in the faces at u', read once a visit.
    - A split leaves v on both halves of the face it splits, and a corner
      at u' lands on the fresh face a only if it was on the split face:
      after any split u' and v share a face exactly when they did before.  So one test a visit makes every
      split a leaf or none; merges always descend.
    Leaves come in runs in candidate order, each run one yield, and
    ``run`` counts them as if visited one by one: a cut stops at exactly
    ``limit + 1`` and the clock is read at the first multiple of 256 a run
    reaches.  Node counts, bounds and witnesses are those of the search
    that descends into every candidate.

    Face ids are only compared for equality, so which side of a move is
    relabelled changes no candidate and no node count.  An opening edge
    and a split use the number of the new dart a as the fresh id, which no
    other live face can hold.  A split gives it to the face through a; a
    merge keeps cy's face id and relabels cx's darts, walked from
    ``phi[cx]``.  On AG(Z4^4) cut at 200,000 nodes a split walks 8.7 darts
    through a against 8.1 through b, and a merge 4.9 against 10.1 on cy's
    face (3.4 against 3.2 and 4.1 against 5.8 on AG(Z2^5)).

    The mirror rule: before the edge ``mirror`` every vertex has at most
    two darts, so the partial rotation equals its mirror image, and the two
    corners of the endpoint that has two there root mirror-image subtrees
    of equal genus.  ``_pendant`` tries only u's first corner there, which
    about halves an exhausted rung.  In the BFS order the mirror edge is
    the root's third tree edge, a pendant; ``_join`` never meets it (in an
    order where it would, trying every corner there stays sound).
    """

    def __init__(self, ends, kind, mirror, budget):
        self.ends = ends
        self.kind = kind
        self.mirror = mirror
        self.phi = [-1] * len(ends)
        self.face = [-1] * len(ends)
        self.darts_at = {v: [] for v in dict.fromkeys(ends)}
        self.budget = budget
        self.genus_used = 0
        self.target = 0

    def run(self, target):
        self.target = float("inf") if target is None else target
        self.genus_used = 0
        for lst in self.darts_at.values():
            lst.clear()
        depth = len(self.kind)
        budget = self.budget
        limit = float("inf") if budget.limit is None else budget.limit
        deadline = budget.deadline
        nodes = budget.nodes
        kind = self.kind
        moves = (self._open, self._pendant, self._join)
        levels = [None] * depth
        ei = 0
        level = levels[0] = moves[kind[0]](0)
        try:
            while True:
                step = next(level)
                if step is True:
                    nodes += 1
                    if nodes > limit:
                        raise BudgetExceeded
                    if (deadline is not None and not nodes % 256
                            and time.monotonic() > deadline):
                        raise BudgetExceeded
                    ei += 1
                    if ei == depth:
                        return self._extract(), self.genus_used
                    level = levels[ei]
                    if level is None:
                        level = levels[ei] = moves[kind[ei]](ei)
                elif step:
                    # step leaves, counted as if visited one by one: the clock
                    # is read at the first multiple of 256 they reach before
                    # the limit, and a cut stops at exactly limit + 1.
                    if deadline is not None:
                        mark = nodes - nodes % 256 + 256
                        if mark <= min(nodes + step, limit) and time.monotonic() > deadline:
                            nodes = mark
                            raise BudgetExceeded
                    nodes += step
                    if nodes > limit:
                        nodes = limit + 1
                        raise BudgetExceeded
                elif ei:
                    ei -= 1
                    level = levels[ei]
                else:
                    return None, None
        finally:
            budget.nodes = nodes

    def _extract(self):
        # The rotation at v: the dart after x is phi[x ^ 1].
        ends = self.ends
        phi = self.phi
        rot = {}
        for v, corners in self.darts_at.items():
            start = corners[0] ^ 1
            cyc = rot[v] = [ends[start ^ 1]]
            d = phi[start ^ 1]
            while d != start:
                cyc.append(ends[d ^ 1])
                d = phi[d ^ 1]
        return rot

    def _open(self, ei):
        # A component's opening edge: a two-sided single face, a then b.
        a = 2 * ei
        b = a + 1
        phi = self.phi
        face = self.face
        du = self.darts_at[self.ends[a]]
        dv = self.darts_at[self.ends[b]]
        while True:
            phi[a] = b
            phi[b] = a
            face[a] = face[b] = a
            du.append(b)
            dv.append(a)
            yield True
            du.pop()
            dv.pop()
            yield False

    def _next_join(self, ei):
        """The corners at u' when edge ei + 1 is a join (u', w) at the same
        new vertex w as edge ei, else None."""
        if ei + 1 < len(self.kind) and self.kind[ei + 1] == 2:
            return self.darts_at[self.ends[2 * ei + 2]]
        return None

    def _pendant(self, ei):
        # v is new; the chosen corner's face absorbs a and b, so the face
        # count is unchanged.  At the mirror edge u is the endpoint with two.
        # With no merge left, the join (u', v) that comes next has a move
        # only if u' has a corner on v's one face, face[cx]; pendants
        # relabel no face, so the faces at u' are read once a visit and
        # every other corner is a leaf.
        a = 2 * ei
        b = a + 1
        phi = self.phi
        face = self.face
        du = self.darts_at[self.ends[a]]
        dv = self.darts_at[self.ends[b]]
        mirror = ei == self.mirror
        joined = self._next_join(ei)
        while True:
            phi[a] = b
            dv.append(a)
            live = None
            if joined is not None and self.genus_used >= self.target:
                live = {face[c] for c in joined}
            leaves = 0
            for cx in (du[:1] if mirror else du):
                if live is not None and face[cx] not in live:
                    leaves += 1
                    continue
                if leaves:
                    yield leaves
                    leaves = 0
                sx = phi[cx]
                phi[cx] = a
                phi[b] = sx
                face[a] = face[b] = face[cx]
                du.append(b)
                yield True
                du.pop()
                phi[cx] = sx
            dv.pop()
            if leaves:
                yield leaves
            yield False

    def _join(self, ei):
        # Both endpoints embedded.  Corner c lies on face face[c].  A
        # same-face pair splits that face (genus kept); a cross-face pair
        # merges two faces (genus + 1).  The corners at v are grouped by face
        # once a visit; pairs are formed only when tried.  With no merge
        # left, the join (u', v) that comes next has a move after a split
        # only if u' and v share a face before it: the split leaves v on
        # both halves, and a corner at u' lands on the fresh face a only if
        # it was on the split face.  If they share none, every split is a
        # leaf.
        a = 2 * ei
        b = a + 1
        phi = self.phi
        face = self.face
        du = self.darts_at[self.ends[a]]
        dv = self.darts_at[self.ends[b]]
        joined = self._next_join(ei)
        while True:
            by_face = {}
            for cy in dv:
                fy = face[cy]
                if fy in by_face:
                    by_face[fy].append(cy)
                else:
                    by_face[fy] = [cy]
            dead = joined is not None and self.genus_used >= self.target
            if dead:
                for c in joined:
                    if face[c] in by_face:
                        dead = False
                        break
            if dead:
                leaves = 0
                for cx in du:
                    fx = face[cx]
                    if fx in by_face:
                        leaves += len(by_face[fx])
                if leaves:
                    yield leaves
            else:
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
                        # The face through b (b, then sx onward) keeps fx;
                        # the one through a (a, then sy onward) takes the
                        # fresh id a.
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


def _solve_component(verts, order, lower, budget):
    """Exact genus of one connected component, or partial bounds on budget stop.

    ``order`` is the component's ``_connected_edge_order``, ``verts`` its
    sorted vertices (read only by the LR test) and ``lower`` its Euler bound.
    Returns (lower, upper, rotation, exact).  Where the Euler bound is 0, the
    LR planarity test either returns a planar embedding as the witness, with
    no search, or proves genus >= 1.  A cheap unrestricted first descent
    supplies the initial upper bound and witness; iterative deepening from
    the lower bound then closes the gap.  On budget exhaustion the bounds
    keep whatever the completed rungs proved.
    """
    if lower == 0:
        pairs = iter(order[0])
        planar = _lr_rotation(verts, zip(pairs, pairs))
        if planar is not None:
            return 0, 0, planar, True
        lower = 1
    rot = None
    upper = None
    try:
        search = _EmbeddingSearch(*order, budget)
        rot, upper = search.run(None)
        target = lower
        while target < upper:
            found, g = search.run(target)
            if found is not None:
                return g, g, found, True
            target += 1
            lower = target  # a completed failed rung proves genus >= target
        return upper, upper, rot, True
    except BudgetExceeded:
        return lower, upper, rot, False


def genus_exact(g: SimpleGraph, *, node_budget: int | None = DEFAULT_NODE_BUDGET,
                time_budget_ms: int | None = None) -> GenusResult:
    """Exact orientable genus with a certifying rotation system.

    Searches component by component after genus-preserving reductions.  When
    ``node_budget`` runs out the result carries the bounds established so far
    with status "budget_exhausted"; it depends only on the graph and the
    budget.  ``time_budget_ms`` adds a machine-dependent cut, off by default.
    """
    budget = _Budget(node_budget, time_budget_ms)
    reduced, records = _reduce(_neighbours(g))
    # The search reads only each component's edge order and Euler bound.
    parts = [(c, _connected_edge_order(c, reduced), _component_euler_bound(c, reduced))
             for c in _components(reduced)]
    del reduced

    lower = 0
    upper = 0  # None once some component has no embedding yet
    all_exact = True
    combined: dict[int, list[int]] = {}
    for comp, order, euler in parts:
        lo, up, rot, exact = _solve_component(comp, order, euler, budget)
        lower += lo
        upper = None if upper is None or up is None else upper + up
        if rot is not None:
            combined.update(rot)
        all_exact = all_exact and exact

    witness = None
    if upper is not None:
        combined = _restore_rotation(combined, records)
        witness = tuple(tuple(combined.get(v, ())) for v in range(g.n_vertices))
        achieved = verify_embedding(g, witness)
        if achieved != upper:
            raise RuntimeError(
                f"internal error: reconstructed witness has genus {achieved}, "
                f"expected {upper}"
            )

    status = "exact" if all_exact else "budget_exhausted"
    return GenusResult(lower=lower, upper=upper, status=status,
                       witness=witness, nodes=budget.nodes)

