"""Graph and tree data model: validation, vertex taxonomy, branches,
induced subgraphs, and completion of forests to trees.

Vertices are integers 1..n throughout; a graph is its edge list and its
degrees, and its adjacency rows, derived on first use, are sorted so that
every derived object is reproducible byte for byte.
"""

from __future__ import annotations

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
    """Finite simple graph on vertices 1..n, n >= 1.

    A graph is its edge list, two aligned end sequences, and its degree
    list (index i holds deg of vertex i+1), kept as given, not copied or
    checked: they must describe a simple graph, as ``build_graph`` checks.
    The sorted adjacency rows are derived from them once, on first use of
    ``adj`` (see ``__getattr__``).
    """

    __slots__ = ("n", "edge_count", "max_degree", "_ends", "_degrees", "adj")

    def __init__(self, n: int, us: Sequence[int], vs: Sequence[int], degrees: list):
        self.n = n
        self.edge_count = len(us)
        self.max_degree = max(degrees)
        self._ends = (us, vs)
        self._degrees = degrees

    def __getattr__(self, name: str):
        # Python calls this only for an unset slot: the rows, derived here
        # once and kept in their slot.
        if name != "adj":
            raise AttributeError(name)
        rows = _neighbor_lists(self)
        for row in rows:
            row.sort()
        # adj[0] unused; adj[v] = sorted tuple of neighbors
        self.adj = adj = tuple(map(tuple, rows))
        return adj

    def __reduce__(self):
        # the edge list and degrees rebuild the graph; derived rows are not kept
        return type(self), (self.n, *self._ends, self._degrees)

    def degree(self, v: int) -> int:
        return self._degrees[v - 1]

    def degree_sequence(self) -> list[int]:
        """Degrees listed by vertex id (index i holds deg of vertex i+1)."""
        return list(self._degrees)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each edge once as (u, v) with u < v, in no promised order."""
        return ((u, v) if u < v else (v, u) for u, v in zip(*self.edge_ends()))

    def edge_ends(self) -> tuple[Sequence[int], Sequence[int]]:
        """Two aligned sequences of vertices, entry i of each one end of edge
        i; every edge appears once, in no promised order or orientation."""
        return self._ends

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


def _simple_edges(edges: Iterable[tuple[int, int]], n: int) -> tuple:
    """The ends, the degree list (index i holds deg of vertex i+1) and
    whether some edge closed a cycle, of a simple graph's edge list on 1..n.

    One pass in list order checks each edge's ids, then its ends, then
    joins them in a union-find with path halving (Tarjan, J. ACM 1975), so
    the first offending edge is the one reported, with its first fault.
    Only two ends already joined can repeat an edge: the first time that
    happens a set of the earlier edges is built to tell a duplicate from a
    cycle.
    """
    if n < 1:
        raise NotATree("bad-vertex-id", f"n={n}")
    root = list(range(n + 1))
    deg = [0] * (n + 1)
    us: list = []
    vs: list = []
    pairs = None  # the earlier edges as (min, max), once two ends were joined already
    closed = False  # some edge closed a cycle
    for u, v in edges:
        if not (1 <= u <= n and 1 <= v <= n):
            raise NotATree("bad-vertex-id", f"edge ({u},{v}) outside 1..{n}")
        if u == v:
            raise NotATree("self-loop", f"vertex {u}")
        a = u
        while root[a] != a:
            root[a] = a = root[root[a]]
        b = v
        while root[b] != b:
            root[b] = b = root[root[b]]
        if a != b:
            root[a] = b
            if pairs is not None:
                pairs.add((u, v) if u < v else (v, u))
        else:
            if pairs is None:
                pairs = {(x, y) if x < y else (y, x) for x, y in zip(us, vs)}
            key = (u, v) if u < v else (v, u)
            if key in pairs:
                raise NotATree("duplicate-edge", f"edge ({u},{v})")
            pairs.add(key)
            closed = True
        deg[u] += 1
        deg[v] += 1
        us.append(u)
        vs.append(v)
    del deg[0]
    return us, vs, deg, closed


def build_graph(edges: Iterable[tuple[int, int]], n: int) -> Graph:
    """Simple graph from an edge list; may be disconnected (see ``_simple_edges``)."""
    return Graph(n, *_simple_edges(edges, n)[:3])


def build_tree(edges: Iterable[tuple[int, int]], n: int) -> Tree:
    """Validated tree; rejects cyclic, disconnected, or non-simple input.

    The edges are checked as ``build_graph`` checks them (``_simple_edges``).
    With every edge simple, more than n - 1 edges is a cycle, and fewer, or
    a cycle among them, is a disconnected graph.
    """
    us, vs, degrees, closed = _simple_edges(edges, n)
    m = len(us)
    if m > n - 1:
        raise NotATree("cycle", f"{m} edges on {n} vertices")
    if m < n - 1 or closed:
        raise NotATree("disconnected", f"{m} edges on {n} vertices")
    return Tree(n, us, vs, degrees)


def _vertex_classes(deg: list, xr: list) -> list:
    """The class of each vertex (entry 0 unused) of the graph whose degree
    list and neighbor-XOR list, both indexed by vertex, are ``deg`` and
    ``xr``: a leaf's neighbor is its ``xr``.  A non-leaf is a pre-leaf when
    at least deg(v)-1 of its neighbors are leaves, a special one at degree
    two; so the middle of a 3-vertex path is a (special) pre-leaf."""
    nleaf = [0] * len(deg)
    for v, d in enumerate(deg):
        if d == 1:
            nleaf[xr[v]] += 1
    special, pre, inner = VertexClass.SPECIAL_PRE_LEAF, VertexClass.PRE_LEAF, VertexClass.INTERNAL
    return [
        VertexClass.LEAF if d == 1 else inner if d < 2 or c < d - 1 else special if d == 2 else pre
        for d, c in zip(deg, nleaf)
    ]


_PRE_LEAF = (VertexClass.PRE_LEAF, VertexClass.SPECIAL_PRE_LEAF)


def _pre_leaf_pair(deg: list, xr: list, p: int, q: int) -> bool:
    """p and q are two distinct pre-leaves of the graph of the lists."""
    if p == q or not (0 < p < len(deg) and 0 < q < len(deg)):
        return False
    classes = _vertex_classes(deg, xr)
    return classes[p] in _PRE_LEAF and classes[q] in _PRE_LEAF


def classify_vertex(t: Graph, v: int) -> VertexClass:
    """Leaf / pre-leaf / special pre-leaf / internal taxonomy (see
    ``_vertex_classes``), one pass over the whole graph per call."""
    if not (1 <= v <= t.n):
        raise NotATree("bad-vertex-id", f"vertex {v}")
    return _vertex_classes(*_source_lists(t))[v]


def pre_leaves(t: Graph) -> list[int]:
    """All pre-leaf vertices (special ones included), ascending."""
    return [v for v, c in enumerate(_vertex_classes(*_source_lists(t))) if c in _PRE_LEAF]


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


def _neighbor_lists(g: Graph) -> list:
    """Each vertex's neighbors as a list, indexed by vertex (entry 0 empty),
    in g's edge order."""
    adj: list = [[] for _ in range(g.n + 1)]
    for u, v in zip(*g.edge_ends()):
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _source_lists(g: Graph) -> tuple:
    """The degree list and the XOR of each vertex's neighbors, both indexed
    by vertex, from g's edge list: a leaf's neighbor, read without a row."""
    xr = [0] * (g.n + 1)
    for u, v in zip(*g.edge_ends()):
        xr[u] ^= v
        xr[v] ^= u
    return [0, *g._degrees], xr


def _leaf_peel(deg: list, xr: list) -> Iterator[tuple]:
    """Strip the smallest leaf of the forest that the degree list ``deg`` and
    neighbor-XOR list ``xr`` describe (vertices of degree 0 are off it), in
    place, and yield it with its neighbor, its ``xr``, until no edge is left:
    each edge once, as (leaf, neighbor)."""
    heap = [v for v, d in enumerate(deg) if d == 1]  # ascending, so already a heap
    while heap:
        v = heapq.heappop(heap)
        w = xr[v]
        if w:  # else v is the last vertex of its tree
            xr[w] ^= v
            deg[w] -= 1
            if deg[w] == 1:
                heapq.heappush(heap, w)
            yield v, w


def path_order(t: Graph) -> list[int]:
    """Vertices of a path-shaped tree in order, starting at the smaller end.

    The walk reads no row: the next vertex is the XOR of the current one's
    neighbors with the one before, which is 0 past the far end."""
    n = t.n
    if n == 1:
        return [1]
    if not is_path_graph(t) or t._degrees.count(1) != 2:
        raise PreconditionViolated("not a path-shaped tree")
    deg, xr = _source_lists(t)
    order = [0, deg.index(1)]
    for _ in range(n - 1):
        order.append(xr[order[-1]] ^ order[-2])
    del order[0]
    if 0 in order:  # the walk left a path component short of n vertices
        raise PreconditionViolated("not a path-shaped tree")
    return order


class InducedSubgraph:
    """Induced subgraph relabeled to 1..m plus the old/new vertex maps."""

    __slots__ = ("graph", "old_to_new", "new_to_old")

    def __init__(self, graph: Graph, old_to_new: dict, new_to_old: tuple):
        self.graph = graph
        self.old_to_new = old_to_new
        self.new_to_old = new_to_old  # new_to_old[new_id] = old_id; index 0 unused


def induced_subtree(t: Graph, removed: Iterable[int]) -> InducedSubgraph:
    """Delete ``removed``, not every vertex, and relabel the rest to 1..m (a forest in general)."""
    removed = set(removed)
    for v in removed:
        if not (1 <= v <= t.n):
            raise NotATree("bad-vertex-id", f"vertex {v}")
    if len(removed) == t.n:
        raise NotATree("bad-vertex-id", f"removing all {t.n} vertices leaves no graph")
    kept = [v for v in range(1, t.n + 1) if v not in removed]
    old_to_new = {v: i + 1 for i, v in enumerate(kept)}
    get = old_to_new.get
    us: list = []
    vs: list = []
    deg = [0] * (len(kept) + 1)
    for u, v in t.edges():
        a, b = get(u), get(v)
        if a and b:  # relabeling preserves order: a < b
            us.append(a)
            vs.append(b)
            deg[a] += 1
            deg[b] += 1
    del deg[0]
    return InducedSubgraph(Graph(len(kept), us, vs, deg), old_to_new, tuple([0] + kept))


def join_forest(adj: list, vertices: Iterable[int], degree_cap: int) -> int:
    """Join the forest that the neighbor lists ``adj`` span on ``vertices``
    (ascending) into one tree, in place, without exceeding the cap; return
    the larger of 2 and the tree's maximum degree.

    One walk finds the components in ascending min-vertex order and joins
    each when found, by an edge between the (degree, id)-minimal vertex
    below the cap of the tree so far and that of the component: in a part
    of two or more vertices, a tree, its smallest leaf; else its lone
    vertex.  So a heap of the joined part's leaves gives one end, the
    leaves the walk collected the other; if either has no room under the
    cap, no vertex of its part has.  A joined end ends at degree <= 2, so
    the degrees the walk read give the maximum.  A component holding a
    cycle raises ``NotATree("cycle")`` before it is joined.
    """
    seen = bytearray(len(adj))
    heap: list = []
    top = 2
    for s in vertices:
        if seen[s]:
            continue
        seen[s] = 1
        comp = [s]
        leaves = []  # its leaves, or its lone vertex
        ends = 0
        for u in comp:
            row = adj[u]
            d = len(row)
            ends += d
            if d < 2:
                leaves.append(u)
            elif d > top:
                top = d
            for w in row:
                if not seen[w]:
                    seen[w] = 1
                    comp.append(w)
        if ends > 2 * len(comp) - 2:
            raise NotATree("cycle", "forest completion needs acyclic input")
        if heap:
            b = min(leaves)
            if len(adj[heap[0]]) >= degree_cap or len(adj[b]) >= degree_cap:
                raise CapInfeasible(f"no attachment point under cap {degree_cap}")
            a = heapq.heappop(heap)
            adj[a].append(b)
            adj[b].append(a)
            leaves.append(a)
        for v in leaves:
            if len(adj[v]) <= 1:  # a leaf (or lone vertex) of the joined part from now on
                heapq.heappush(heap, v)
    return top


def complete_forest_to_tree(f: Graph, degree_cap: int) -> Tree:
    """Join the components of a forest into one tree without exceeding the cap.

    Components are merged in ascending min-vertex order; each new edge joins
    the (degree, id)-minimal attachable vertex of the tree built so far with
    the (degree, id)-minimal attachable vertex of the next component (see
    ``join_forest``).  A cap below the forest's maximum degree raises
    ``CapInfeasible`` before a cycle raises ``NotATree("cycle")``.
    """
    if degree_cap < f.max_degree:
        raise CapInfeasible(f"cap {degree_cap} below forest max degree {f.max_degree}")
    adj = _neighbor_lists(f)
    join_forest(adj, range(1, f.n + 1), degree_cap)
    us = [u for u, row in enumerate(adj) for v in row if u < v]
    vs = [v for u, row in enumerate(adj) for v in row if u < v]
    return Tree(f.n, us, vs, list(map(len, adj[1:])))


# ---------------------------------------------------------------------------
# Text format: first line "n", then "u v" edge lines, or one "P: ..." line
# carrying a Prüfer code.


def parse_tree_text(text: str) -> Tree:
    """Tree from the text format; blank lines and ``#`` comments are skipped.

    Malformed text raises ``NotATree`` with one of these reasons:
    ``empty`` (no line left), ``bad-header`` (the first line is not a
    vertex count of at least 1), ``bad-edge-line`` (an edge line without
    exactly two fields), ``not-an-integer`` (an edge or code token that is
    not an integer), ``trailing-line`` (a line after the code line, which
    must be the last), ``disconnected`` (fewer than n-1 edge lines), and the
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
        if len(body) > 1:
            raise NotATree("trailing-line", f"nothing may follow the code line, got {body[1]!r}")
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
    return "\n".join([str(t.n), *(f"{u} {v}" for u, v in sorted(t.edges()))]) + "\n"


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

