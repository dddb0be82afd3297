"""Constructive equitable colorings of trees.

A coloring is equitable (strongly k-balanced) when it is proper and the
class sizes pairwise differ by at most one.  Every tree with maximum degree
at most n/k admits one for k >= 3; the construction peels one to three
pendant vertices per step, colors a small or path-shaped core directly, and
extends back up.  For k >= 4 the problem reduces to k-1 colors by removing
an independent set of low-degree vertices and completing the remaining
forest to a tree under the same degree cap.

Everything here is deterministic: ties are always broken toward smaller
vertex ids and smaller color indices, so identical inputs give identical
colorings byte for byte.
"""

from __future__ import annotations

import heapq
import itertools
import math
import re
from collections import defaultdict, deque
from dataclasses import dataclass
from functools import reduce
from operator import or_, xor
from typing import Callable, Iterable, Optional, Sequence

from .colorings import KColoring
from .errors import (
    BadArgument,
    DegreeTooHigh,
    IndependentSetNotFound,
    InternalInvariant,
    NoTwoPreLeaves,
    PartialColoring,
    PreconditionViolated,
    TooLarge,
)
from .trees import (
    Graph,
    Tree,
    _leaf_peel,
    _neighbor_lists,
    _pre_leaf_pair,
    _source_lists,
    format_tree_text,
    is_path_graph,
    join_forest,
    path_order,
)

EQUITABLE_BRUTE_DEFAULT_LIMIT = 3**12


def balanced_targets(n: int, k: int) -> tuple:
    """Class-size multiset (descending) of an equitable k-coloring of n items."""
    q, r = divmod(n, k)
    return tuple([q + 1] * r + [q] * (k - r))


@dataclass(frozen=True)
class EquitableCertificate:
    """A coloring plus the tallies and construction trace that certify it."""

    coloring: KColoring
    class_sizes: tuple
    mono_edges: tuple
    trace: tuple

    @property
    def valid(self) -> bool:
        sizes = self.class_sizes
        return max(sizes) - min(sizes) <= 1 and all(m == 0 for m in self.mono_edges)


def verify_equitable(t: Graph, coloring: KColoring, trace: Iterable[str] = ()) -> EquitableCertificate:
    """Exact per-color monochromatic edge counts and class sizes."""
    return EquitableCertificate(coloring, *coloring.tally(t), tuple(trace))


# ---------------------------------------------------------------------------
# Exhaustive search with pruning: proper colorings hitting an exact class-size
# multiset, honoring optional "these two vertices get different colors" pairs.
# Used as the small-core base case and as the independent test oracle.


def _search_colors(
    vertices: Sequence[int],
    adj: Sequence[Iterable[int]],
    k: int,
    targets: Sequence[int],
    constraints: Sequence[tuple] = (),
) -> Optional[dict]:
    n = len(vertices)
    vset = set(vertices)
    start = max(vertices, key=lambda v: (sum(1 for w in adj[v] if w in vset), -v))
    order = []
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        order.append(u)
        for w in sorted(adj[u], reverse=True):
            if w in vset and w not in seen:
                seen.add(w)
                stack.append(w)
    for v in vertices:
        if v not in seen:
            order.append(v)
            seen.add(v)
    partners = defaultdict(list)
    for a, b in constraints:
        if a != b:
            partners[a].append(b)
            partners[b].append(a)
    cap = max(targets)
    q_lo = min(targets)
    r_hi = sum(1 for t in targets if t == cap) if cap > q_lo else k
    col: dict = {}
    counts = [0] * (k + 1)

    def dfs(i: int, used: int) -> bool:
        if i == n:
            return sorted(counts[1:]) == sorted(targets)
        v = order[i]
        forb = {col[w] for w in adj[v] if w in col}
        forb.update(col[x] for x in partners[v] if x in col)
        remaining = n - i - 1
        for c in range(1, min(used + 1, k) + 1):
            if c in forb or counts[c] == cap:
                continue
            counts[c] += 1
            if cap > q_lo and sum(1 for x in range(1, k + 1) if counts[x] > q_lo) > r_hi:
                counts[c] -= 1
                continue
            deficit = sum(q_lo - counts[x] for x in range(1, k + 1) if counts[x] < q_lo)
            if deficit <= remaining:
                col[v] = c
                if dfs(i + 1, max(used, c)):
                    return True
                del col[v]
            counts[c] -= 1
        return False

    if dfs(0, 0):
        return dict(col)
    return None


def brute_force_equitable(t: Graph, k: int, limit: int = EQUITABLE_BRUTE_DEFAULT_LIMIT) -> Optional[KColoring]:
    """Witness equitable k-coloring by pruned exhaustive search, or None."""
    if k < 2:
        raise BadArgument("k must be at least 2")
    n = t.n
    if k**n > limit:
        raise TooLarge(f"{k}^{n} exceeds search limit {limit}")
    colors = _search_colors(list(range(1, n + 1)), t.adj, k, balanced_targets(n, k))
    if colors is None:
        return None
    return KColoring(k, [0, *map(colors.__getitem__, range(1, n + 1))])


# ---------------------------------------------------------------------------
# Direct colorings of path-shaped trees.


def _path_colors(order: Sequence[int], k: int, constraint: Optional[tuple] = None) -> list:
    """Colors of an equitable k-coloring of a path, in the walk ``order``:
    round robin, and at k = 3 the two pre-leaves (second and second-to-last
    vertices) get distinct colors when a constraint is given."""
    L = len(order)
    colors = [i % k + 1 for i in range(L)]
    if constraint is None or L < 4:
        return colors
    if set(constraint) != {order[1], order[L - 2]}:
        raise InternalInvariant("path constraint endpoints are not its pre-leaves")
    if L % 3 == 0:  # otherwise round robin already separates them
        colors[L - 6 :] = [1, 2, 3, 1, 3, 2] if L == 6 else [1, 3, 2, 1, 3, 2]  # a swapped tail of six
    return colors


# ---------------------------------------------------------------------------
# Exact coloring of a spine skeleton: a tree DP over the per-color counts.


def _bundle_split(cnt: Sequence[int], a: int, b: int, targets: Sequence[int], A: int, B: int) -> Optional[tuple]:
    """How many of u's A pendant leaves take v's color b, and how many of v's
    B pendant leaves take u's color a, so that the skeleton counts ``cnt``
    (indexed by color) plus the leaves hit a permutation of ``targets``; the
    other leaves take the third color.  None when no permutation fits."""
    g = 6 - a - b
    for T in sorted(set(itertools.permutations(targets))):
        tm = (0,) + T  # color -> target
        if 0 <= tm[b] - cnt[b] <= A and 0 <= tm[a] - cnt[a] <= B and tm[g] >= cnt[g]:
            return tm[b] - cnt[b], tm[a] - cnt[a]
    return None


def _bits(x: int):
    """Positions of the set bits of x, ascending."""
    return (m.start() for m in re.finditer("1", bin(x)[:1:-1]))


def _skeleton_colors(
    order: Sequence[int], parent: dict, constraints: Sequence[tuple], cap: int, fits: Callable[[dict, tuple], bool]
) -> Optional[dict]:
    """Proper 3-coloring of a tree (``order`` lists it root first, each
    vertex after its ``parent``) that separates every constraint pair and
    whose class counts pass ``fits(pins, (0, n1, n2, n3))``; None if none.

    The count pairs (n1, n2) that x's subtree reaches with x colored c are
    packed into one int, bit n1*W + n2, dropping counts above ``cap``.  The
    root is pinned to color 1, since colors are interchangeable; the other
    constrained vertices are enumerated.  A root count that ``fits`` is
    unfolded top-down.  Along a chain only every K-th vertex (K ~ sqrt of
    the size) keeps its sets; the unfold recomputes the rest by segment."""
    W = 2 * cap + 2  # a sum of two rows stays below the next row
    mask = int(("0" * (cap + 1) + "1" * (cap + 1)) * (cap + 1), 2)  # n1, n2 <= cap
    step = (0, W, 1, 0)  # bit offset of one vertex of each color
    kids: dict = {x: [] for x in order}
    depth = {order[0]: 0}
    for x in order[1:]:
        kids[parent[x]].append(x)
        depth[x] = depth[parent[x]] + 1
    K = math.isqrt(len(order)) + 1
    keep = {x for x in order if depth[x] % K == 0 or len(kids[x]) != 1}

    def plus(a: int, b: int) -> int:
        """Sums of one count from a and one from b."""
        if a == 1:  # the sums over no children yet
            return b
        out = 0
        for run in re.finditer("1+", bin(a)[:1:-1]):  # a run never crosses a row
            i, j = run.span()
            wide, span = b, 1  # wide = OR of b << t over t < span
            while 2 * span <= j - i:
                wide |= wide << span
                span *= 2
            out |= (wide | wide << (j - i - span)) << i
        return out & mask

    def other(sets: list, c: int) -> int:
        return sets[c % 3 + 1] | sets[(c + 1) % 3 + 1]

    root = order[0]
    pinned = sorted({x for pair in constraints for x in pair} - {root})
    for combo in itertools.product((1, 2, 3), repeat=len(pinned)):
        pins = {root: 1, **dict(zip(pinned, combo))}
        if any(pins[a] == pins[b] for a, b in constraints):
            continue
        reach: dict = {}

        def fill(x: int) -> bool:
            sets = [0, 0, 0, 0]
            for c in (1, 2, 3):
                if pins.get(x, c) == c:
                    acc = 1
                    for y in kids[x]:
                        acc = plus(acc, other(reach[y], c))
                    sets[c] = (acc << step[c]) & mask
            reach[x] = sets
            return any(sets)

        for x in reversed(order):
            if not fill(x):
                break
            for y in set(kids[x]) - keep:
                del reach[y]
        else:
            for s in _bits(reach[root][1]):
                n1, n2 = divmod(s, W)
                if not fits(pins, (0, n1, n2, len(order) - n1 - n2)):
                    continue
                col = {}
                stack = [(root, 1, s)]
                while stack:
                    x, c, s = stack.pop()
                    col[x] = c
                    s -= step[c]
                    for y in kids[x]:
                        segment = []
                        while y not in reach:
                            segment.append(y)
                            (y,) = kids[y]
                        for z in reversed(segment):
                            fill(z)
                    vias = [other(reach[y], c) for y in kids[x]]
                    heads = [1]  # heads[i]: the sums of the first i children
                    for via in vias[:-1]:
                        heads.append(plus(heads[-1], via))
                    for y, via, head in reversed(list(zip(kids[x], vias, heads))):
                        part = s if head == 1 else next(s - h for h in _bits(head) if h <= s and via >> (s - h) & 1)
                        stack.append((y, next(d for d in (1, 2, 3) if d != c and reach[y][d] >> part & 1), part))
                        s -= part
                    del reach[x]
                return col
    return None


# ---------------------------------------------------------------------------
# The peeling machine, on a source tree given by its degree list ``deg`` and
# the XOR ``xr`` of each vertex's neighbors; a failure dumps ``tree``, the
# caller's input.  It only deletes leaves and pendant pairs (a degree-two
# vertex x with its leaf), and an edge goes only with one of its ends, so
# the active tree is the source tree on the vertices of active degree
# ``deg > 0`` (a vertex that the k >= 4 reduction shed has none).  The common
# routes read no row: a leaf's neighbor is ``xr[w]``.  The rare ones (the
# special heap, the spine, the hub peel, the base search) read ``adj``, the
# ascending rows of the active tree as it stood at their first read, rebuilt
# from ``deg`` and ``xr``.  As peeling only deletes, a later row is that row
# filtered by ``deg``, and every reader filters it so.  Per vertex it keeps
# ``deg``, ``xr`` of the active neighbors, the count ``nleaf`` of leaf
# neighbors and a lazy min-heap ``leaves_at`` of them; besides, a leaf count
# and lazy min-heaps of leaves and pre-leaves (set-up seeks these among the
# leaves' neighbors).  A vertex that the special case has met as the
# maximal-degree vertex v0 also gets a lazy min-heap in ``special_at`` of its
# special neighbors (degree two with a leaf).  Later, ``detach`` pushes a
# vertex that loses a neighbor and so becomes a leaf, a pre-leaf or special.
# A vertex stays a pre-leaf, or special, until it is a leaf, so it enters
# each heap once.
#
# ``run3`` runs the levels at n ≡ 0 (mod 3) in one loop over locals.  Its
# pendant, special and special-swap levels are pair steps, all deleted in
# that loop (``_case_special`` only picks): a degree-two x (the pre-leaf p,
# or the special vertex next to v0) leaves with its leaf v1, then a far leaf
# v2 goes.  x, never a leaf, gets no heap entry, nor its other neighbor u
# one it would lose at once; no pick moves, as ``_min_leaf``'s invariant
# never rests on x.  Peeling pushes extension records; ``_unwind`` extends
# the base coloring back up through them, newest first, taking each forced
# color from ``_PICK``.  A pair step's one record ``("pair", x, a, b, y, c,
# z)`` reads: x avoids the colors of a and b, y those of c and x, and z
# takes the third.  A special level's x is v2, which need avoid only its
# neighbor: b is vertex 0, as ``col[0]`` stays 0 (no step colors it) and
# ``_PICK`` reads 0 as no color.

# _PICK[a][b]: the smallest color in 1..3 other than a and b
_PICK = tuple(tuple(min({1, 2, 3} - {a, b}) for b in range(4)) for a in range(4))


class _Machine:
    __slots__ = (
        "deg",
        "xr",
        "nleaf",
        "n_act",
        "leaves",
        "leaf_heap",
        "leaves_at",
        "pre_heap",
        "special_at",
        "by_degree",
        "records",
        "trace",
        "col",
        "sizes",
        "rows",
        "tree",
    )

    def __init__(self, t: Graph, deg: list, xr: list):
        n = len(deg) - 1
        self.tree, self.deg, self.xr, self.rows = t, deg, xr, None
        self.nleaf = nleaf = [0] * (n + 1)
        self.leaf_heap = [v for v in range(1, n + 1) if deg[v] == 1]  # ascending, so already a heap
        self.leaves_at = [[] for _ in range(n + 1)]
        for w in self.leaf_heap:
            nleaf[xr[w]] += 1
            self.leaves_at[xr[w]].append(w)
        self.n_act = n + 1 - deg.count(0)  # deg[0] is 0
        self.leaves = len(self.leaf_heap)
        hosts = sorted(set(map(xr.__getitem__, self.leaf_heap)))  # a pre-leaf has a leaf
        self.pre_heap = [z for z in hosts if deg[z] >= 2 and nleaf[z] >= deg[z] - 1]  # _vertex_classes' rule
        self.special_at: dict = {}
        # (source degree, vertex), descending: run3's level loop, its one reader, runs at
        # n_act >= 12, n_act = 0 (mod 3), so at k = n_act // 3 >= 4, and stops at the first
        # vertex of source degree < k
        self.by_degree = sorted([(d, v) for v, d in enumerate(deg) if d >= 4], reverse=True)
        self.records: list = []
        self.trace: list = []
        self.col = [0] * (n + 1)
        self.sizes = [0, 0, 0, 0]

    def active_rows(self) -> list:
        """The ascending rows of the active tree (``()`` off it) as it stands
        at the first call, rebuilt by peeling its leaves from copies of
        ``deg`` and ``xr``, and kept: see the header."""
        if self.rows is None:
            self.rows = rows = [[] if d else () for d in self.deg]
            for w, z in _leaf_peel(self.deg[:], self.xr[:]):
                rows[w].append(z)
                rows[z].append(w)
            for row in filter(None, rows):
                row.sort()
        return self.rows

    adj = property(active_rows)

    # -- incremental maintenance ------------------------------------------

    def delete_leaves(self, *ws: int) -> None:
        """Remove active leaves, in order."""
        deg, xr, detach = self.deg, self.xr, self.detach
        for w in ws:
            deg[w] = 0
            detach(xr[w], w, 1)
        self.n_act -= len(ws)

    def detach(self, z: int, w: int, leaf: int) -> None:
        """z loses its neighbor w, just deleted: a leaf (``leaf`` 1) or a pendant
        pair's p (0).  z may become a leaf, a pre-leaf (only by losing p) or special."""
        heappush = heapq.heappush  # read per call, so a patched heapq sees it
        deg, xr, nleaf, leaves_at, special_at = self.deg, self.xr, self.nleaf, self.leaves_at, self.special_at
        deg[z] -= 1
        xr[z] ^= w
        nleaf[z] -= leaf
        if deg[z] == 1:
            y = xr[z]
            heappush(self.leaf_heap, z)
            heappush(leaves_at[y], z)
            nleaf[y] += 1
            if nleaf[y] == deg[y] - 1:  # y just became a pre-leaf
                heappush(self.pre_heap, y)
                if deg[y] == 2 and special_at:  # and special; z, a leaf, is never v0
                    x = xr[y] ^ z
                    if x in special_at:
                        heappush(special_at[x], y)
        else:
            self.leaves -= 1
            if not leaf and nleaf[z] == deg[z] - 1:  # z just became a pre-leaf (a lost leaf keeps deg - nleaf)
                heappush(self.pre_heap, z)
            if special_at and deg[z] == 2 and nleaf[z]:  # z just became special
                for x in self.adj[z]:
                    if deg[x] and x in special_at:
                        heappush(special_at[x], z)

    def _leaf_at(self, z: int) -> Optional[int]:
        """Smallest active leaf next to z, or None."""
        heap = self.leaves_at[z]
        while heap and self.deg[heap[0]] != 1:
            heapq.heappop(heap)  # deleted since its push
        return heap[0] if heap else None

    def _min_leaf(self, nbr_not_in: tuple = ()) -> Optional[int]:
        """Smallest active leaf whose neighbor avoids ``nbr_not_in``.

        ``leaf_heap`` holds, for each z with a leaf, an entry no larger than
        z's smallest leaf, so a live top is its neighbor's smallest leaf.  A
        barred neighbor keeps that entry and drops the rest; a deleted one
        gives way to its neighbor's next leaf."""
        heap, xr, deg = self.leaf_heap, self.xr, self.deg
        barred = []
        while heap:
            w = heap[0]
            z = xr[w]  # a deleted leaf keeps its last neighbor here
            if deg[w] == 1 and z not in nbr_not_in:
                break
            heapq.heappop(heap)
            if deg[w] != 1:
                nxt = self._leaf_at(z) if deg[z] > 1 else None  # a leaf z has no leaves
                if nxt is not None:
                    heapq.heappush(heap, nxt)
            elif all(xr[b] != z for b in barred):
                barred.append(w)
        found = heap[0] if heap else None
        for w in barred:
            heapq.heappush(heap, w)
        return found

    def active_vertices(self) -> list:
        return list(itertools.compress(range(len(self.deg)), self.deg))  # deg[0] is 0

    def _fail(self, message: str) -> InternalInvariant:
        return InternalInvariant(message, dump=format_tree_text(self.tree))

    # -- base colorings ----------------------------------------------------

    def _commit(self, colors: Iterable[tuple]) -> None:  # (vertex, color) pairs
        col, sizes = self.col, self.sizes
        for v, c in colors:
            col[v] = c
            sizes[c] += 1

    def _base_search(self, constraints: Sequence[tuple]) -> None:
        """Search the active tree, at most 12 vertices."""
        colors = _search_colors(self.active_vertices(), self.adj, 3, balanced_targets(self.n_act, 3), constraints)
        if colors is None:
            raise self._fail("exhaustive base search found no equitable coloring")
        self.trace.append("direct:search")
        self._commit(colors.items())

    def _base_path(self, pair: Optional[tuple]) -> None:
        order = [0, self._min_leaf()]
        while len(order) <= self.n_act:  # the next vertex is xr of the last one XOR the one before
            order.append(self.xr[order[-1]] ^ order[-2])
        del order[0]
        self.trace.append("direct:path")
        self._commit(zip(order, _path_colors(order, 3, pair)))

    # -- the two-hub construction (two vertices of degree >= n/3 get
    # distinct colors, two pre-leaves get distinct colors) -----------------

    def lemma_run(self, u: int, v: int, p: int, q: int) -> None:
        self.active_rows()  # now: the hub-peel unwind reads rows of vertices that later peels delete
        while True:
            n = self.n_act
            if n <= 12:
                self._base_search([(u, v), (p, q)])
                return
            w = None
            for z in (p, q):
                if z not in (u, v) and self.deg[z] >= 3:
                    w = self._leaf_at(z)
                    break
            if w is None:
                w = self._min_leaf((u, v, p, q))
            if w is None:
                self._spine_terminal(u, v, p, q)
                return
            self.records.append(("hub-peel", w, self.xr[w], u, v, p, q))
            self.trace.append("peel:hub-safe")
            self.delete_leaves(w)

    def _spine_terminal(self, u: int, v: int, p: int, q: int) -> None:
        """Direct coloring when every leaf of the active tree crowds u, v, p
        or q: pendant bundles at u and v plus a thin skeleton carrying the
        pre-leaf pair.  u, v get distinct colors, and so do p, q.

        The skeleton is colored first; ``settle`` then gives u's leaves v's
        color or the third one, and v's leaves u's color or the third one,
        in the numbers that make the classes equitable.  The skeleton
        coloring comes from the first of two steps that ``settle`` accepts:
        a greedy pass from u under each color priority, aiming at a
        near-equal split of the skeleton; then ``_skeleton_colors``, an
        exact search that fails only when no coloring exists."""
        deg, src = self.deg, self.adj
        targets = balanced_targets(self.n_act, 3)
        for s in {p, q} - {u, v}:
            if self.nleaf[s] != 1 or deg[s] != 2:
                raise self._fail("designated pre-leaf is not a pendant-path end")
        bundle_u = [y for y in src[u] if deg[y] == 1]
        bundle_v = [y for y in src[v] if deg[y] == 1]
        skel_set = set(self.active_vertices()).difference(bundle_u, bundle_v)
        # BFS from u; dropping pendant leaves keeps the skeleton connected
        order = [u]
        parent: dict = {u: None}
        dq = deque([u])
        while dq:
            x = dq.popleft()
            for y in src[x]:
                if y in skel_set and y not in parent:
                    parent[y] = x
                    order.append(y)
                    dq.append(y)
        if len(order) != len(skel_set) or v not in parent:
            raise self._fail("skeleton decomposition does not cover the tree")
        if len(order) + len(bundle_u) + len(bundle_v) != self.n_act:
            raise self._fail("hub bundles and skeleton overlap")
        constraints = [(u, v)]
        if {p, q} != {u, v}:
            constraints.append((p, q))
        partners = defaultdict(list)
        for a, b in constraints:
            partners[a].append(b)
            partners[b].append(a)
        A, B = len(bundle_u), len(bundle_v)

        def attempt(priority: tuple, quotas: dict) -> Optional[dict]:
            rem = dict(quotas)
            col: dict = {}
            for x in order:  # BFS order: the parent is already colored
                forb = {col[y] for y in partners[x] if y in col}
                if x != u:
                    forb.add(col[parent[x]])
                allowed = [c for c in priority if c not in forb]
                if not allowed:
                    return None
                col[x] = max(allowed, key=rem.__getitem__)  # ties go to the earlier priority
                rem[col[x]] -= 1
            return col

        def settle(col_sk: dict) -> Optional[dict]:
            cnt = [0, 0, 0, 0]
            for c in col_sk.values():
                cnt[c] += 1
            a_col, b_col = col_sk[u], col_sk[v]
            split = _bundle_split(cnt, a_col, b_col, targets, A, B) if a_col != b_col else None
            if split is None:
                return None
            xb, ya = split
            g_col = 6 - a_col - b_col
            colors = dict(col_sk)
            for i, leaf in enumerate(bundle_u):
                colors[leaf] = b_col if i < xb else g_col
            for i, leaf in enumerate(bundle_v):
                colors[leaf] = a_col if i < ya else g_col
            return colors

        near = balanced_targets(len(order), 3)
        for priority in itertools.permutations((1, 2, 3)):
            col_sk = attempt(priority, {priority[i]: near[i] for i in range(3)})
            final = settle(col_sk) if col_sk else None
            if final:
                break
        else:

            def fits(pins: dict, cnt: tuple) -> bool:  # u is the root, pinned to 1
                return _bundle_split(cnt, 1, pins[v], targets, A, B) is not None

            col_sk = _skeleton_colors(order, parent, constraints, max(targets), fits)
            final = settle(col_sk) if col_sk else None
            if not final:
                raise self._fail("spine coloring infeasible")
        self.trace.append("direct:spine")
        self._commit(final.items())

    # -- top-level three-coloring flow --------------------------------------

    def run3(self, pair: Optional[tuple]) -> None:
        """Peel to a base coloring and unwind.  A level at n ≡ 0 (mod 3)
        takes the constraint pair ``pair``, or the two smallest pre-leaves
        when it is None, as after a pendant or special-swap level."""
        heappush, heappop = heapq.heappush, heapq.heappop  # read per call, so a patched heapq sees them
        deg, xr, nleaf, leaves_at, pre_heap = self.deg, self.xr, self.nleaf, self.leaves_at, self.pre_heap
        by_degree, detach = self.by_degree, self.detach
        record, note = self.records.append, self.trace.append
        # a path (two leaves: a vertex of degree >= 3 makes three) goes to _base_path as it is
        done = self.leaves != 2 and any(self._peel_one(pair) for _ in range(self.n_act % 3))
        while not done:
            n = self.n_act
            if self.leaves == 2:  # no vertex of degree >= 3
                self._base_path(pair)
                break
            if n <= 9:
                self._base_search([pair] if pair else [])
                break
            if pair is None:  # entries that have become leaves are stale and dropped
                try:
                    while deg[pre_heap[0]] < 2:
                        heappop(pre_heap)
                    p = heappop(pre_heap)  # popped to reach q, pushed back
                    while deg[pre_heap[0]] < 2:
                        heappop(pre_heap)
                except IndexError:
                    raise self._fail("fewer than two pre-leaves at an inner level") from None
                q = pre_heap[0]
                heappush(pre_heap, p)
            else:
                p, q = pair
            if deg[p] < 2 or nleaf[p] < deg[p] - 1 or deg[q] < 2 or nleaf[q] < deg[q] - 1:
                raise self._fail("constraint pair stopped being pre-leaves")
            if deg[p] > deg[q] or deg[p] == deg[q] and p > q:
                p, q = q, p
            # the two smallest vertices of degree k, among those of source degree >= k
            k = n // 3
            h1 = h2 = 0
            for d, x in by_degree:
                if d < k:
                    break
                if deg[x] == k:
                    if not h1 or x < h1:
                        h1, h2 = x, h1
                    elif not h2 or x < h2:
                        h2 = x
            if h2:
                note("delegate:hubs")
                self.lemma_run(h1, h2, p, q)
                break
            if h1 and not nleaf[h1]:
                u = h1
                x, v1, v2, pair = self._case_special(p, q, u)
            elif deg[p] >= 3:
                pair = self._case_triple(p, q, h1)
                done = pair is None
                continue
            else:  # p is a degree-two pre-leaf: the pendant pair step, x = p
                heap = leaves_at[p]
                while deg[heap[0]] != 1:
                    heappop(heap)  # deleted since its push
                x, v1 = p, heap[0]
                u = xr[p] ^ v1
                if h1:
                    v2 = self._leaf_at(h1)
                else:
                    v2 = self._min_leaf((u, p))  # v1 is p's only leaf
                    if v2 is None:
                        # only a broom puts every leaf but p's on u, with deg(u) = n - 2 > n/3
                        raise self._fail("no leaf clear of the pendant pre-leaf and its neighbor")
                record(("pair", p, u, q, v2, xr[v2], v1))
                note("ext:pendant-capped" if h1 else "ext:pendant")
                pair = None
            deg[v1] = deg[x] = 0  # the pair step: v1 and x leave together
            detach(u, x, 0)
            deg[v2] = 0
            detach(xr[v2], v2, 1)
            self.n_act -= 3
        self._unwind()

    def _peel_one(self, pair: Optional[tuple]) -> bool:
        """Remove one leaf keeping the constraint pair pre-leaves; falls back
        to the direct spine coloring when every leaf crowds the pair.
        Returns True when the tree got colored directly."""
        if pair is None:
            w = self._min_leaf()
        else:
            p, q = pair
            w = self._min_leaf(pair)
            if w is None:
                for z in sorted(pair):
                    if self.deg[z] >= 3 and self.nleaf[z]:
                        w = self._leaf_at(z)
                        break
            if w is None:
                self._spine_terminal(p, q, p, q)
                return True
        if w is None:
            raise self._fail("no leaf available to peel")
        self.records.append(("leaf", w, self.xr[w]))
        self.trace.append("ext:leaf")
        self.delete_leaves(w)
        return False

    def _case_triple(self, p: int, q: int, cap_vertex: int) -> Optional[tuple]:
        """Delete one leaf at each of p, q and one more elsewhere, at the
        cap vertex if there is one (nonzero); None when colored directly."""
        v1 = self._leaf_at(p)
        v2 = self._leaf_at(q)
        if cap_vertex and cap_vertex != q:
            v3 = self._leaf_at(cap_vertex)
            w = cap_vertex
        else:
            v3 = self._min_leaf((p, q))
            if v3 is None:
                # every leaf sits on p or q: the tree is a double broom
                self._spine_terminal(p, q, p, q)
                return None
            w = self.xr[v3]
        self.records.append(("ext3", p, q, v1, v2, v3, w))
        self.trace.append("ext:triple-capped" if cap_vertex else "ext:triple")
        self.delete_leaves(v1, v2, v3)
        return (p, q)

    def _case_special(self, p: int, q: int, v0: int) -> tuple:
        """The unique maximal-degree vertex v0 has no pendant leaf: pick the
        special vertex v next to it, its leaf v1 and one far leaf v2 for
        ``run3``'s pair step; returns them and the next level's pair."""
        deg, nleaf = self.deg, self.nleaf
        heap = self.special_at.get(v0)
        if heap is None:  # a source row is ascending, so already a heap
            heap = self.special_at[v0] = [x for x in self.adj[v0] if deg[x] == 2 and nleaf[x]]
        while heap and not (deg[heap[0]] == 2 and nleaf[heap[0]]):
            heapq.heappop(heap)  # a leaf or deleted since its push
        if not heap:
            raise self._fail("no special vertex adjacent to the maximal-degree vertex")
        v = heap[0]
        v1 = self._leaf_at(v)
        v2 = self._min_leaf((p, q, v))
        if v2 is None:
            raise self._fail("no leaf clear of the constraint pair and the special vertex")
        w = self.xr[v2]
        if v in (p, q):
            self.records.append(("pair", v, v0, q if v == p else p, v2, w, v1))
            self.trace.append("ext:special-swap")
            return v, v1, v2, None
        self.records.append(("pair", v2, w, 0, v, v0, v1))
        self.trace.append("ext:special")
        return v, v1, v2, (p, q)

    # -- unwind --------------------------------------------------------------

    def _unwind(self) -> None:
        """Extend the base coloring back up through the records, newest
        first.  Only a hub-peel reads the active tree, and only through
        ``deg``; hub-peels are the newest records, so restoring just the
        degrees of their own edges keeps it exact wherever it is read."""
        col, sizes, pick = self.col, self.sizes, _PICK
        for rec in reversed(self.records):
            kind = rec[0]
            if kind == "leaf":
                _, w, z = rec
                c = col[z]
                a = pick[c][c]
                b = pick[c][a]
                c = col[w] = a if sizes[a] <= sizes[b] else b  # the lighter class, the smaller on a tie
                sizes[c] += 1
                continue
            if kind == "hub-peel":
                _, w, z, u, v, p, q = rec
                self._extend_hub_peel(w, z, u, v, p, q)
                self.deg[w] = 1
                self.deg[z] += 1
                continue
            if kind == "pair":
                _, x, a, b, y, c, z = rec
                cx = pick[col[a]][col[b]]
                cy = pick[col[c]][cx]
                col[x], col[y], col[z] = cx, cy, pick[cx][cy]
            elif kind == "ext3":
                _, p, q, v1, v2, v3, w = rec
                cp, cq = col[p], col[q]
                if cp == cq:
                    raise self._fail("constraint pair shares a color during unwind")
                third = 6 - cp - cq
                if col[w] in (cp, cq):
                    col[v1], col[v2], col[v3] = cq, cp, third
                else:
                    col[v1], col[v2], col[v3] = third, cp, cq
            else:
                raise self._fail(f"unknown record {kind}")
            # the three colors of a three-vertex record are distinct
            sizes[1] += 1
            sizes[2] += 1
            sizes[3] += 1

    def _extend_hub_peel(self, w: int, z: int, u: int, v: int, p: int, q: int) -> None:
        col, sizes, deg, src = self.col, self.sizes, self.deg, self.adj
        col1 = col[z]
        a = _PICK[col1][col1]
        b = _PICK[col1][a]
        col2 = a if sizes[a] <= sizes[b] else b
        if sizes[col1] >= sizes[col2]:
            col[w] = col2
            sizes[col2] += 1
            return
        # the class of w's neighbor is strictly smallest: swap a far leaf into
        # it and give w that leaf's old color
        r = u if col[u] != col1 else v
        comp_found = None
        for nb in filter(deg.__getitem__, src[r]):
            comp = [nb]
            seen = {r, nb}
            good = col[nb] != col1
            stack = [nb]
            while stack and good:
                x = stack.pop()
                for y in src[x]:
                    if deg[y] and y not in seen:
                        if col[y] == col1:
                            good = False
                            break
                        seen.add(y)
                        comp.append(y)
                        stack.append(y)
            if good:
                comp_found = comp
                break
        if comp_found is None:
            raise self._fail("no branch avoids the deficient color class")
        x = min(y for y in comp_found if deg[y] == 1)  # a branch off r always has a leaf
        if x in (u, v, p, q):
            raise self._fail("swap leaf collides with a constrained vertex")
        cx = col[x]
        col[x] = col1
        col[w] = cx  # w joins cx's class as x leaves it
        sizes[col1] += 1


# ---------------------------------------------------------------------------
# Public constructors.


def _certify(t: Graph, col: list, k: int, trace: Iterable[str], apart: Iterable[tuple] = ()) -> EquitableCertificate:
    """Verified certificate of the color list ``col``, which must color every
    vertex in 1..k and also give each pair in ``apart`` two colors."""
    try:
        cert = verify_equitable(t, KColoring(k, col), trace)
    except PartialColoring:
        cert = None
    if cert is None or not cert.valid or any(col[a] == col[b] for a, b in apart):
        raise InternalInvariant("constructed coloring failed verification", dump=format_tree_text(t))
    return cert


def _path_certificate(t: Graph, k: int, constraint: Optional[tuple] = None) -> EquitableCertificate:
    """Verified round-robin k-coloring of a path-shaped tree (two or more
    vertices), which at k = 3 separates the pre-leaf pair ``constraint``."""
    order = path_order(t)
    col = [0] * (t.n + 1)
    for v, c in zip(order, _path_colors(order, k, constraint)):
        col[v] = c
    return _certify(t, col, k, ("direct:path",), () if constraint is None else (constraint,))


def equitable_three(t: Tree, constraint: Optional[tuple] = None) -> EquitableCertificate:
    """Equitable 3-coloring of a tree with max degree at most n/3.

    With ``constraint=(p, q)`` (two distinct pre-leaf vertices) the returned
    coloring additionally separates p and q.
    """
    n = t.n
    if t.max_degree * 3 > n:
        raise DegreeTooHigh(f"max degree {t.max_degree} exceeds n/3 = {n / 3:.2f}")
    path = is_path_graph(t)  # n = 1 is a path too
    lists = None if path and constraint is None else _source_lists(t)
    if constraint is not None:
        p, q = constraint
        if not _pre_leaf_pair(*lists, p, q):
            raise NoTwoPreLeaves(f"({p}, {q}) is not a pair of distinct pre-leaf vertices")
    if n == 1:
        return _certify(t, [0, 1], 3, ("direct:trivial",))
    if path:
        return _path_certificate(t, 3, constraint)
    m = _Machine(t, *lists)
    m.run3(constraint)
    return _certify(t, m.col, 3, tuple(m.trace), () if constraint is None else (constraint,))


def hub_pair_coloring(t: Tree, u: int, v: int, p: int, q: int) -> EquitableCertificate:
    """Equitable 3-coloring separating two vertices of degree >= n/3 and two
    pre-leaf vertices."""
    n = t.n
    if u == v or not (1 <= u <= n and 1 <= v <= n):
        raise PreconditionViolated("u and v must be distinct vertices")
    if t.degree(u) * 3 < n or t.degree(v) * 3 < n:
        raise PreconditionViolated("both designated vertices need degree at least n/3")
    deg, xr = _source_lists(t)
    if not _pre_leaf_pair(deg, xr, p, q):
        raise PreconditionViolated("p and q must be distinct pre-leaf vertices")
    m = _Machine(t, deg, xr)
    m.lemma_run(u, v, p, q)
    m._unwind()
    return _certify(t, m.col, 3, tuple(m.trace), ((u, v), (p, q)))


def _independent_low_degree(adj: list, vertices: Iterable[int], m: int) -> list:
    """m >= 1 pairwise non-adjacent vertices of degree <= 2 among ``vertices``
    (ascending) of the tree that the lists ``adj`` span on them, smallest id
    first, each cut out of ``adj`` (its list emptied) when picked: that
    changes no pick, as only a pick's neighbors lose degree and are barred.

    This never runs short for m <= floor(n/k), k >= 4.  The greedy builds a
    maximal independent set of the forest of degree-<=2 vertices, a union
    of paths on s_1, s_2, ... vertices, so it gets at least
    sum ceil(s_j/3) >= sum (s_j + 1)/4 vertices.  If the tree is a path,
    that is ceil(n/3) > n/4.  Otherwise each of these paths holds at most
    one leaf (one with two would be the whole tree), so there are at least
    l >= h + 2 of them, where l counts the leaves and h the vertices of
    degree >= 3.  Hence the greedy gets >= (n - h + h + 2)/4 > floor(n/k).
    """
    blocked = bytearray(len(adj))
    chosen = []
    for v in vertices:
        row = adj[v]
        if len(row) <= 2 and not blocked[v]:
            for w in row:
                blocked[w] = 1
                adj[w].remove(v)
            row.clear()
            chosen.append(v)
            if len(chosen) == m:
                return chosen
    raise IndependentSetNotFound(f"needed {m}, found {len(chosen)} among degree-<=2 vertices")


def equitable_coloring(t: Tree, k: int) -> EquitableCertificate:
    """Equitable k-coloring of a tree with max degree at most n/k, k >= 3.

    For k >= 4 the tree sheds floor(n/k) pairwise non-adjacent low-degree
    vertices (they become color k), the remaining forest is completed to a
    tree under the same degree cap, and the completion is colored with k-1
    colors; class sizes come out exactly equitable by arithmetic.  Every
    layer is shed from neighbor lists over t's own ids, built once from t's
    edges, each pick as it is chosen, then joined in one walk
    (``join_forest``); the 3-coloring peels the degrees and neighbor XORs
    of these lists.  Ids keep their order, so the choices are those of
    relabeling every layer, and a failure dumps t.
    """
    if k < 3:
        raise BadArgument("k must be at least 3")
    n = t.n
    if t.max_degree * k > n:
        raise DegreeTooHigh(f"max degree {t.max_degree} exceeds n/k = {n / k:.2f}")
    if n == 1:
        return _certify(t, [0, 1], k, ("direct:trivial",))
    if k == 3:
        return equitable_three(t)
    if is_path_graph(t):
        return _path_certificate(t, k)
    trace: list = []
    col = [0] * (n + 1)  # nonzero exactly at the shed vertices
    adj = _neighbor_lists(t)
    kept = range(1, n + 1)
    top = t.max_degree
    for k_level in range(k, 3, -1):
        for x in _independent_low_degree(adj, kept, len(kept) // k_level):
            col[x] = k_level
        kept = [v for v in kept if not col[v]]
        top = join_forest(adj, kept, top)
        if top * (k_level - 1) > len(kept):
            raise InternalInvariant("degree cap lost during forest completion", dump=format_tree_text(t))
        trace.append(f"reduce:k{k_level}")
    deg = [0] * (n + 1)
    xr = [0] * (n + 1)
    for v in kept:
        row = adj[v]
        deg[v] = len(row)
        xr[v] = reduce(xor, row, 0)
    m = _Machine(t, deg, xr)
    m.run3(None)
    return _certify(t, list(map(or_, col, m.col)), k, (*trace, *m.trace))  # m.col is 0 at the shed vertices
