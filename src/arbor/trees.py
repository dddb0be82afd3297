"""Graph and tree data model: validation, vertex taxonomy, branches,
induced subgraphs, and completion of forests to trees.

Vertices are integers 1..n throughout; adjacency lists are kept sorted so
that every derived object is reproducible byte for byte.
"""

from __future__ import annotations

import copyreg
import enum
import heapq
from typing import Iterable, Iterator, Sequence

from .errors import CapInfeasible, NotAdjacent, NotATree, PreconditionViolated


class VertexClass(enum.Enum):
    LEAF = "leaf"
    PRE_LEAF = "pre-leaf"
    SPECIAL_PRE_LEAF = "special-pre-leaf"
    INTERNAL = "internal"


class Graph:
    """Finite simple graph on vertices 1..n.

    A graph keeps the form it was built from: sorted adjacency rows
    (``Graph(n, adj, edge_count)``) or an edge list as two aligned end
    sequences (``from_ends``); ``from_edges`` keeps both.  The other form,
    the degree list and the maximum degree are derived from it once, on
    first use (see ``__getattr__``).
    """

    __slots__ = ("n", "adj", "edge_count", "_ends", "_degrees", "_max_deg")

    def __init__(self, n: int, adj: tuple, edge_count: int):
        self.n = n
        self.adj = adj  # adj[0] unused; adj[v] = sorted tuple of neighbors
        self.edge_count = edge_count

    @classmethod
    def from_ends(cls, n: int, us: Sequence[int], vs: Sequence[int], degrees: list | None = None) -> "Graph":
        """Graph on 1..n whose edge i joins ``us[i]`` and ``vs[i]``, with
        degree list ``degrees`` (index i holds deg of vertex i+1) if given.
        They are kept, not copied or checked, and must describe a simple
        graph."""
        g = cls.__new__(cls)
        g.n = n
        g.edge_count = len(us)
        g._ends = (us, vs)
        if degrees is not None:
            g._degrees = degrees
        return g

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]], n: int) -> "Graph":
        """Validate simplicity (no loops, no parallel edges, ids in 1..n)."""
        if n < 1:
            raise NotATree("bad-vertex-id", f"n={n}")
        nbr: list[set] = [set() for _ in range(n + 1)]
        us: list = []
        vs: list = []
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise NotATree("bad-vertex-id", f"edge ({u},{v}) outside 1..{n}")
            if u == v:
                raise NotATree("self-loop", f"vertex {u}")
            if v in nbr[u]:
                raise NotATree("duplicate-edge", f"edge ({u},{v})")
            nbr[u].add(v)
            nbr[v].add(u)
            us.append(u)
            vs.append(v)
        g = cls.from_ends(n, tuple(us), tuple(vs))
        g.adj = tuple(tuple(sorted(s)) for s in nbr)
        return g

    def __getattr__(self, name: str):
        # Python calls this only for an unset slot: a form the graph was not
        # built with, derived here once and kept in its slot.
        if name == "adj":
            rows: list = [[] for _ in range(self.n + 1)]
            for u, v in zip(*self._ends):
                rows[u].append(v)
                rows[v].append(u)
            for row in rows:
                row.sort()
            value = tuple(map(tuple, rows))
        elif name == "_ends":
            us: list = []
            vs: list = []
            for u, row in enumerate(self.adj):
                for v in row:
                    if u < v:
                        us.append(u)
                        vs.append(v)
            value = (us, vs)
        elif name == "_degrees":
            value = list(map(len, self.adj[1:]))
        elif name == "_max_deg":
            value = max(self._degrees, default=0)
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value

    def __reduce_ex__(self, protocol):
        # The default state would read every slot, and so derive each form
        # the graph lacks; the slots it holds are enough to rebuild it.
        held = {}
        for name in Graph.__slots__:
            try:
                held[name] = object.__getattribute__(self, name)
            except AttributeError:
                pass
        return copyreg.__newobj__, (type(self),), (None, held)

    def neighbors(self, v: int) -> tuple:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degree_sequence(self) -> list[int]:
        """Degrees listed by vertex id (index i holds deg of vertex i+1)."""
        return list(self._degrees)

    @property
    def max_degree(self) -> int:
        return self._max_deg

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each edge once as (u, v) with u < v, in no promised order."""
        return ((u, v) if u < v else (v, u) for u, v in zip(*self.edge_ends()))

    def edge_ends(self) -> tuple[Sequence[int], Sequence[int]]:
        """Two aligned sequences of vertices, entry i of each one end of edge
        i; every edge appears once, in no promised order or orientation."""
        return self._ends

    def edge_set(self) -> frozenset:
        return frozenset(self.edges())

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = bytearray(self.n + 1)
        stack = [1]
        seen[1] = 1
        found = 1
        while stack:
            u = stack.pop()
            for w in self.adj[u]:
                if not seen[w]:
                    seen[w] = 1
                    found += 1
                    stack.append(w)
        return found == self.n

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, edges={self.edge_count})"


class Tree(Graph):
    """Connected acyclic graph; invariant edge_count == n - 1."""

    __slots__ = ()


def build_graph(edges: Iterable[tuple[int, int]], n: int) -> Graph:
    """Simple graph from an edge list; may be disconnected."""
    return Graph.from_edges(edges, n)


def build_tree(edges: Iterable[tuple[int, int]], n: int) -> Tree:
    """Validated tree; rejects cyclic, disconnected, or non-simple input."""
    g = Tree.from_edges(edges, n)
    if g.edge_count > n - 1:
        raise NotATree("cycle", f"{g.edge_count} edges on {n} vertices")
    if g.edge_count < n - 1 or not g.is_connected():
        raise NotATree("disconnected", f"{g.edge_count} edges on {n} vertices")
    return g


def classify_vertex(t: Graph, v: int) -> VertexClass:
    """Leaf / pre-leaf / special pre-leaf / internal taxonomy.

    A non-leaf counts as a pre-leaf when at least deg(v)-1 of its neighbors
    are leaves; degree-two pre-leaves are special.  The ``>=`` reading keeps
    the middle vertex of a 3-vertex path inside the pre-leaf class.
    """
    if not (1 <= v <= t.n):
        raise NotATree("bad-vertex-id", f"vertex {v}")
    deg = len(t.adj[v])
    if deg == 1:
        return VertexClass.LEAF
    leaf_nbrs = sum(1 for w in t.adj[v] if len(t.adj[w]) == 1)
    if deg >= 2 and leaf_nbrs >= deg - 1:
        return VertexClass.SPECIAL_PRE_LEAF if deg == 2 else VertexClass.PRE_LEAF
    return VertexClass.INTERNAL


def is_pre_leaf(t: Graph, v: int) -> bool:
    return classify_vertex(t, v) in (VertexClass.PRE_LEAF, VertexClass.SPECIAL_PRE_LEAF)


def pre_leaves(t: Graph) -> list[int]:
    """All pre-leaf vertices (special ones included), ascending."""
    out = []
    for v in range(1, t.n + 1):
        deg = len(t.adj[v])
        if deg < 2:
            continue
        leaf_nbrs = sum(1 for w in t.adj[v] if len(t.adj[w]) == 1)
        if leaf_nbrs >= deg - 1:
            out.append(v)
    return out


def branch(t: Tree, v: int, u: int) -> frozenset:
    """Vertex set of the component of t - v that contains u."""
    if not (1 <= v <= t.n and 1 <= u <= t.n):
        raise NotATree("bad-vertex-id", f"({v},{u})")
    if u not in t.adj[v]:
        raise NotAdjacent(f"{u} is not adjacent to {v}")
    if len(t.adj[v]) < 2:
        raise PreconditionViolated(f"branches are defined at non-leaf vertices; {v} is a leaf")
    seen = {v, u}
    stack = [u]
    while stack:
        x = stack.pop()
        for w in t.adj[x]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    seen.discard(v)
    return frozenset(seen)


def is_path_graph(t: Graph) -> bool:
    """True iff the tree has maximum degree at most two."""
    return t.max_degree <= 2


def path_order(t: Graph) -> list[int]:
    """Vertices of a path-shaped tree in order, starting at the smaller end."""
    if t.n == 1:
        return [1]
    ends = [v for v in range(1, t.n + 1) if len(t.adj[v]) == 1]
    if len(ends) != 2 or not is_path_graph(t):
        raise PreconditionViolated("not a path-shaped tree")
    cur = min(ends)
    order = [cur]
    prev = 0
    while len(order) < t.n:
        nxt = [w for w in t.adj[cur] if w != prev]
        prev, cur = cur, nxt[0]
        order.append(cur)
    return order


class InducedSubgraph:
    """Induced subgraph relabeled to 1..m plus the old/new vertex maps."""

    __slots__ = ("graph", "old_to_new", "new_to_old")

    def __init__(self, graph: Graph, old_to_new: dict, new_to_old: tuple):
        self.graph = graph
        self.old_to_new = old_to_new
        self.new_to_old = new_to_old  # new_to_old[new_id] = old_id; index 0 unused


def induced_subtree(t: Graph, removed: Iterable[int]) -> InducedSubgraph:
    """Delete ``removed`` and relabel the rest to 1..m (a forest in general)."""
    removed = set(removed)
    for v in removed:
        if not (1 <= v <= t.n):
            raise NotATree("bad-vertex-id", f"vertex {v}")
    kept = [v for v in range(1, t.n + 1) if v not in removed]
    old_to_new = {v: i + 1 for i, v in enumerate(kept)}
    adj = [()]
    count = 0
    for u in kept:
        row = tuple(old_to_new[w] for w in t.adj[u] if w not in removed)
        count += len(row)
        adj.append(row)  # already sorted: relabeling preserves order
    g = Graph(len(kept), tuple(adj), count // 2)
    return InducedSubgraph(g, old_to_new, tuple([0] + kept))


def forest_components(adj: Sequence, vertices: Iterable[int]) -> list[list[int]]:
    """Components of the graph that ``adj`` spans on ``vertices`` (given in
    ascending order), ordered by minimum vertex; each lists its minimum
    first."""
    seen = bytearray(len(adj))
    out = []
    for s in vertices:
        if seen[s]:
            continue
        comp = [s]
        seen[s] = 1
        for u in comp:
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = 1
                    comp.append(w)
        out.append(comp)
    return out


def join_forest(adj: list, comps: list, degree_cap: int) -> None:
    """Join the components of a forest into one tree, in place, without
    exceeding the cap.

    ``adj`` holds one set of neighbors per vertex, and ``comps`` lists the
    components as ``forest_components`` does.  They are merged in ascending
    min-vertex order; each new edge joins the (degree, id)-minimal
    attachable vertex (degree below the cap) of the tree built so far with
    that of the next component.  A part of two or more vertices is a tree,
    so its minimal degree is 1 and its (degree, id)-minimal vertex is its
    smallest-id leaf; a lone vertex has degree 0.  So a heap of the joined
    part's leaves (or its lone vertex) gives one end of every edge, and the
    smallest leaf of the component the other; if either has no room under
    the cap, no vertex of its part has.
    """
    heap = [v for v in comps[0] if len(adj[v]) <= 1]  # its leaves, or its lone vertex
    heapq.heapify(heap)
    for comp in comps[1:]:
        b = comp[0] if len(comp) == 1 else min(v for v in comp if len(adj[v]) == 1)
        if len(adj[heap[0]]) >= degree_cap or len(adj[b]) >= degree_cap:
            raise CapInfeasible(f"no attachment point under cap {degree_cap}")
        a = heapq.heappop(heap)
        adj[a].add(b)
        adj[b].add(a)
        for v in (a, *comp):
            if len(adj[v]) == 1:  # a leaf of the joined part from now on
                heapq.heappush(heap, v)


def complete_forest_to_tree(f: Graph, degree_cap: int) -> Tree:
    """Join the components of a forest into one tree without exceeding the cap.

    Components are merged in ascending min-vertex order; each new edge joins
    the (degree, id)-minimal attachable vertex of the tree built so far with
    the (degree, id)-minimal attachable vertex of the next component (see
    ``join_forest``).
    """
    if f.n == 0:
        raise PreconditionViolated("a forest with no vertices has no tree completion")
    if degree_cap < f.max_degree:
        raise CapInfeasible(f"cap {degree_cap} below forest max degree {f.max_degree}")
    comps = forest_components(f.adj, range(1, f.n + 1))
    if f.edge_count != f.n - len(comps):
        raise NotATree("cycle", "forest completion needs acyclic input")
    adj = [set(row) for row in f.adj]
    join_forest(adj, comps, degree_cap)
    return Tree(f.n, tuple(tuple(sorted(row)) for row in adj), f.n - 1)


# ---------------------------------------------------------------------------
# Text format: first line "n", then "u v" edge lines, or one "P: ..." line
# carrying a Prüfer code.


def parse_tree_text(text: str) -> Tree:
    """Tree from the text format; blank lines and ``#`` comments are skipped.

    Malformed text raises ``NotATree`` with one of these reasons:
    ``empty`` (no line left), ``bad-header`` (the first line is not a
    vertex count of at least 1), ``bad-edge-line`` (an edge line without
    exactly two fields), ``not-an-integer`` (an edge or code token that is
    not an integer), ``disconnected`` (fewer than n-1 edge lines), and the
    reasons of ``build_tree``.  A code line with an entry outside 1..n
    raises ``BadEntry``.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise NotATree("empty", "no vertex count line")
    try:
        n = int(lines[0])
    except ValueError:
        n = 0
    if n < 1:
        raise NotATree("bad-header", f"first line must be the vertex count, got {lines[0]!r}")
    body = lines[1:]
    if body and body[0].startswith("P:"):
        from .random_trees import prufer_decode

        try:
            entries = [int(x) for x in body[0][2:].split()]
        except ValueError:
            raise NotATree("not-an-integer", f"bad code line {body[0]!r}") from None
        return prufer_decode(entries, n)
    if len(body) < n - 1:
        # checked before anything of size n is allocated
        raise NotATree("disconnected", f"{len(body)} edge lines for {n} vertices")
    edges = []
    for ln in body:
        parts = ln.split()
        if len(parts) != 2:
            raise NotATree("bad-edge-line", f"an edge line holds two vertex ids, got {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise NotATree("not-an-integer", f"bad edge line {ln!r}") from None
    return build_tree(edges, n)


def format_tree_text(t: Graph) -> str:
    """The text format with edge lines sorted: (u, v), u < v, ascending."""
    lines = [str(t.n)]
    adj = t.adj
    for u in range(1, t.n + 1):
        lines.extend(f"{u} {v}" for v in adj[u] if u < v)
    return "\n".join(lines) + "\n"


# Small constructors used all over the test corpus.


def path(n: int) -> Tree:
    return build_tree([(i, i + 1) for i in range(1, n)], n)


def star(n: int) -> Tree:
    """Star on n vertices: center 1 adjacent to n-1 leaves."""
    return build_tree([(1, i) for i in range(2, n + 1)], n)


def double_star(p: int, q: int) -> Tree:
    """Adjacent centers 1 and 2 carrying p and q pendant leaves."""
    edges = [(1, 2)]
    nxt = 3
    for _ in range(p):
        edges.append((1, nxt))
        nxt += 1
    for _ in range(q):
        edges.append((2, nxt))
        nxt += 1
    return build_tree(edges, p + q + 2)


def complete_graph(n: int) -> Graph:
    return build_graph([(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)], n)

