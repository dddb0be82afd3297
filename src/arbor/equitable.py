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
from operator import xor
from typing import Callable, Iterable, Optional, Sequence

from .colorings import KColoring
from .errors import (
    BadArgument,
    DegreeTooHigh,
    IndependentSetNotFound,
    InternalInvariant,
    NoTwoPreLeaves,
    PreconditionViolated,
    TooLarge,
)
from .trees import (
    Graph,
    Tree,
    forest_components,
    format_tree_text,
    is_path_graph,
    is_pre_leaf,
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
    neighbors: Callable[[int], Iterable[int]],
    k: int,
    targets: Sequence[int],
    constraints: Sequence[tuple] = (),
) -> Optional[dict]:
    n = len(vertices)
    if n == 0:
        return {}
    vset = set(vertices)
    start = max(vertices, key=lambda v: (sum(1 for w in neighbors(v) if w in vset), -v))
    order = []
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        order.append(u)
        for w in sorted(neighbors(u), reverse=True):
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
        forb = {col[w] for w in neighbors(v) if w in col}
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
    if n >= 1 and k**n > limit:
        raise TooLarge(f"{k}^{n} exceeds search limit {limit}")
    if n == 0:
        return KColoring(k, {})
    colors = _search_colors(list(range(1, n + 1)), lambda v: t.adj[v], k, balanced_targets(n, k))
    if colors is None:
        return None
    return KColoring(k, colors)


# ---------------------------------------------------------------------------
# Direct colorings of path-shaped trees.


def _round_robin_colors(order: Sequence[int], k: int) -> dict:
    return {v: (i % k) + 1 for i, v in enumerate(order)}


def _path3_colors(order: Sequence[int], constraint: Optional[tuple]) -> dict:
    """Equitable 3-coloring of a path; the two pre-leaves (second and
    second-to-last vertices) get distinct colors when a constraint is given."""
    L = len(order)
    plain = _round_robin_colors(order, 3)
    if constraint is None or L < 4:
        return plain
    pos = {v: i for i, v in enumerate(order)}
    a, b = constraint
    if {pos[a], pos[b]} != {1, L - 2}:
        raise InternalInvariant("path constraint endpoints are not its pre-leaves")
    if (1 - (L - 2)) % 3 != 0:
        return plain  # round robin already separates them
    if L == 6:
        pat = [1, 2, 3, 1, 3, 2]
        return {v: pat[i] for i, v in enumerate(order)}
    # L divisible by 3, L >= 9: round robin head, swapped tail of six
    colors = {}
    tail = [1, 3, 2, 1, 3, 2]
    for i, v in enumerate(order):
        colors[v] = (i % 3) + 1 if i < L - 6 else tail[i - (L - 6)]
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
# The peeling machine.  It only deletes leaves, and an edge goes only with
# one of its ends, so the active tree is the source tree on the vertices of
# active degree ``deg > 0``, and a full row is a source row filtered by it.
# Per vertex it keeps ``deg``, the XOR ``xr`` of the active neighbors (a
# leaf's neighbor is ``xr[w]``), the count ``nleaf`` of leaf neighbors and a
# lazy min-heap ``leaves_at`` of them; besides, a leaf count and lazy
# min-heaps of leaves and pre-leaves.  A pre-leaf stays one until it is a
# leaf, so it is pushed once, on becoming one.  Peeling pushes extension
# records; the base coloring is extended back up through them.


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
        "by_degree",
        "records",
        "trace",
        "col",
        "sizes",
        "source",
    )

    def __init__(self, t: Graph):
        n = t.n
        self.source = t
        self.deg = deg = [len(row) for row in t.adj]
        self.xr = xr = [reduce(xor, row, 0) for row in t.adj]
        self.nleaf = nleaf = [0] * (n + 1)
        self.leaf_heap = [v for v in range(1, n + 1) if deg[v] == 1]  # ascending, so already a heap
        self.leaves_at = [[] for _ in range(n + 1)]
        for w in self.leaf_heap:
            nleaf[xr[w]] += 1
            self.leaves_at[xr[w]].append(w)
        self.n_act = n
        self.leaves = len(self.leaf_heap)
        self.pre_heap = [v for v in range(1, n + 1) if deg[v] >= 2 and nleaf[v] >= deg[v] - 1]
        self.by_degree = sorted(range(1, n + 1), key=deg.__getitem__, reverse=True)
        self.records: list = []
        self.trace: list = []
        self.col = [0] * (n + 1)
        self.sizes = [0, 0, 0, 0]

    # -- incremental maintenance ------------------------------------------

    def delete_leaf(self, w: int) -> int:
        """Remove an active leaf; returns its (former) neighbor."""
        deg, xr, nleaf = self.deg, self.xr, self.nleaf
        z = xr[w]
        deg[w] = 0
        self.n_act -= 1
        deg[z] -= 1
        xr[z] ^= w
        nleaf[z] -= 1
        if deg[z] == 1:
            y = xr[z]
            heapq.heappush(self.leaf_heap, z)
            heapq.heappush(self.leaves_at[y], z)
            nleaf[y] += 1
            if nleaf[y] == deg[y] - 1:  # y just became a pre-leaf
                heapq.heappush(self.pre_heap, y)
        else:
            self.leaves -= 1
        return z

    def _leaf_at(self, z: int) -> Optional[int]:
        """Smallest active leaf next to z, or None."""
        heap = self.leaves_at[z]
        while heap and self.deg[heap[0]] != 1:
            heapq.heappop(heap)  # deleted since its push
        return heap[0] if heap else None

    def _min_leaf(self, nbr_not_in: frozenset | set = frozenset()) -> Optional[int]:
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
        return [v for v in range(1, self.source.n + 1) if self.deg[v]]

    def _active_path_order(self) -> list:
        order = [0, self._min_leaf()]
        while len(order) <= self.n_act:  # the next vertex is xr of the last one XOR the one before
            order.append(self.xr[order[-1]] ^ order[-2])
        return order[1:]

    def _fail(self, message: str) -> InternalInvariant:
        return InternalInvariant(message, dump=format_tree_text(self.source))

    # -- base colorings ----------------------------------------------------

    def _commit(self, colors: dict) -> None:
        for v, c in colors.items():
            self._assign(v, c)

    def _base_search(self, constraints: Sequence[tuple]) -> None:
        vertices = self.active_vertices()
        targets = balanced_targets(self.n_act, 3)
        colors = _search_colors(vertices, self.source.adj.__getitem__, 3, targets, constraints)
        if colors is None:
            raise self._fail("exhaustive base search found no equitable coloring")
        self.trace.append("direct:search")
        self._commit(colors)

    def _base_path(self, pair: Optional[tuple]) -> None:
        order = self._active_path_order()
        self.trace.append("direct:path")
        self._commit(_path3_colors(order, pair))

    # -- the two-hub construction (two vertices of degree >= n/3 get
    # distinct colors, two pre-leaves get distinct colors) -----------------

    def lemma_run(self, u: int, v: int, p: int, q: int) -> None:
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
                w = self._min_leaf(nbr_not_in={u, v, p, q})
            if w is None:
                self._spine_terminal(u, v, p, q)
                return
            self.records.append(("hub-peel", w, self.xr[w], u, v, p, q))
            self.trace.append("peel:hub-safe")
            self.delete_leaf(w)

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
        deg, src = self.deg, self.source.adj
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
        self._commit(final)

    # -- top-level three-coloring flow --------------------------------------

    def run3(self, pair: Optional[tuple]) -> None:
        done = any(self._peel_one(pair) for _ in range(self.n_act % 3))
        while not done:
            if self.leaves == 2:  # no vertex of degree >= 3
                self._base_path(pair)
                break
            if self.n_act <= 9:
                self._base_search([pair] if pair else [])
                break
            pair = self._inner_step(pair)
            if pair == "done":
                break
        self._unwind()

    def _peel_one(self, pair: Optional[tuple]) -> bool:
        """Remove one leaf keeping the constraint pair pre-leaves; falls back
        to the direct spine coloring when every leaf crowds the pair.
        Returns True when the tree got colored directly."""
        if pair is None:
            w = self._min_leaf()
        else:
            p, q = pair
            w = self._min_leaf(nbr_not_in={p, q})
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
        self.delete_leaf(w)
        return False

    def _select_pair(self) -> tuple:
        """The two smallest pre-leaves.  Entries that have become leaves are
        stale and dropped; p is popped to reach q and pushed back."""
        heap, deg = self.pre_heap, self.deg
        pair = []
        while heap and len(pair) < 2:
            if deg[heap[0]] < 2:
                heapq.heappop(heap)
            else:
                pair.append(heap[0] if pair else heapq.heappop(heap))
        if len(pair) < 2:
            raise self._fail("fewer than two pre-leaves at an inner level")
        heapq.heappush(heap, pair[0])
        return tuple(pair)

    def _inner_step(self, pair: Optional[tuple]):
        """One peel of three vertices at n ≡ 0 (mod 3); returns the pair for
        the next level, or the sentinel 'done' when colored directly."""
        n = self.n_act
        k = n // 3
        if pair is None:
            pair = self._select_pair()
        p, q = pair
        deg, src = self.deg, self.source.adj
        if not all(deg[x] >= 2 and self.nleaf[x] >= deg[x] - 1 for x in pair):
            raise self._fail("constraint pair stopped being pre-leaves")
        if (deg[p], p) > (deg[q], q):
            p, q = q, p
        # the vertices of degree k, among those of source degree >= k
        W = [x for x in itertools.takewhile(lambda x: len(src[x]) >= k, self.by_degree) if deg[x] == k]
        if len(W) >= 2:
            u0 = min(W)
            v0 = min(x for x in W if x != u0)
            self.trace.append("delegate:hubs")
            self.lemma_run(u0, v0, p, q)
            return "done"
        if len(W) == 0:
            if deg[p] >= 3:
                return self._case_triple(p, q, cap_vertex=None)
            return self._case_pendant(p, q, cap_vertex=None)
        (v0,) = W
        if self.nleaf[v0]:
            if deg[p] >= 3:
                return self._case_triple(p, q, cap_vertex=v0)
            return self._case_pendant(p, q, cap_vertex=v0)
        return self._case_special(p, q, v0)

    def _case_triple(self, p: int, q: int, cap_vertex: Optional[int]):
        """Delete one leaf at each of p, q and one more elsewhere."""
        v1 = self._leaf_at(p)
        v2 = self._leaf_at(q)
        if cap_vertex is not None and cap_vertex != q:
            v3 = self._leaf_at(cap_vertex)
            w = cap_vertex
        else:
            v3 = self._min_leaf(nbr_not_in={p, q})
            if v3 is None:
                # every leaf sits on p or q: the tree is a double broom
                self._spine_terminal(p, q, p, q)
                return "done"
            w = self.xr[v3]
        self.records.append(("ext3", p, q, v1, v2, v3, w))
        self.trace.append("ext:triple" if cap_vertex is None else "ext:triple-capped")
        self.delete_leaf(v1)
        self.delete_leaf(v2)
        self.delete_leaf(v3)
        return (p, q)

    def _case_pendant(self, p: int, q: int, cap_vertex: Optional[int]):
        """p is a degree-two pre-leaf: delete p with its leaf plus one more."""
        v1 = self._leaf_at(p)
        u = self.xr[p] ^ v1
        if cap_vertex is not None:
            v2 = self._leaf_at(cap_vertex)
        else:
            v2 = self._min_leaf(nbr_not_in={u, p})  # v1 is p's only leaf
            if v2 is None:
                # only a broom puts every leaf but p's on u, with deg(u) = n - 2 > n/3
                raise self._fail("no leaf clear of the pendant pre-leaf and its neighbor")
        w = self.xr[v2]
        self.records.append(("pend3", p, q, u, v1, v2, w))
        self.trace.append("ext:pendant" if cap_vertex is None else "ext:pendant-capped")
        self.delete_leaf(v1)
        self.delete_leaf(p)
        self.delete_leaf(v2)
        return None

    def _case_special(self, p: int, q: int, v0: int):
        """The unique maximal-degree vertex has no pendant leaf: remove the
        special vertex next to it (with its leaf) plus one far leaf."""
        deg, nleaf = self.deg, self.nleaf
        v = next((x for x in self.source.adj[v0] if deg[x] == 2 and nleaf[x]), None)
        if v is None:
            raise self._fail("no special vertex adjacent to the maximal-degree vertex")
        v1 = self._leaf_at(v)
        v2 = self._min_leaf(nbr_not_in={p, q, v})
        if v2 is None:
            raise self._fail("no leaf clear of the constraint pair and the special vertex")
        w = self.xr[v2]
        if v in (p, q):
            other = q if v == p else p
            self.records.append(("special-swap", v, v1, v2, w, v0, other))
            self.trace.append("ext:special-swap")
            nxt = None
        else:
            self.records.append(("special", v, v1, v2, w, v0))
            self.trace.append("ext:special")
            nxt = (p, q)
        self.delete_leaf(v1)
        self.delete_leaf(v)
        self.delete_leaf(v2)
        return nxt

    # -- unwind --------------------------------------------------------------

    def _pick(self, banned: Sequence[int]) -> int:
        return next(c for c in (1, 2, 3) if c not in banned)  # two are banned at most

    def _pick_lightest(self, banned: Sequence[int]) -> int:
        return min((c for c in (1, 2, 3) if c not in banned), key=lambda c: (self.sizes[c], c))

    def _assign(self, v: int, c: int) -> None:
        self.col[v] = c
        self.sizes[c] += 1

    def _unwind(self) -> None:
        """Extend the base coloring back up through the records, newest
        first.  Only a hub-peel reads the active tree, and only through
        ``deg``; hub-peels are the newest records, so restoring just the
        degrees of their own edges keeps it exact wherever it is read."""
        col = self.col
        for rec in reversed(self.records):
            kind = rec[0]
            if kind == "leaf":
                _, w, z = rec
                self._assign(w, self._pick_lightest([col[z]]))
            elif kind == "ext3":
                _, p, q, v1, v2, v3, w = rec
                cp, cq = col[p], col[q]
                if cp == cq:
                    raise self._fail("constraint pair shares a color during unwind")
                third = 6 - cp - cq
                if col[w] in (cp, cq):
                    self._assign(v1, cq)
                    self._assign(v2, cp)
                    self._assign(v3, third)
                else:
                    self._assign(v1, third)
                    self._assign(v2, cp)
                    self._assign(v3, cq)
            elif kind == "pend3":
                _, p, q, u, v1, v2, w = rec
                cp = self._pick([col[u], col[q]])
                self._assign(p, cp)
                cv2 = self._pick([col[w], cp])
                self._assign(v2, cv2)
                self._assign(v1, self._pick([cp, cv2]))
            elif kind == "special":
                _, v, v1, v2, w, v0 = rec
                cv2 = self._pick([col[w]])
                self._assign(v2, cv2)
                cv = self._pick([col[v0], cv2])
                self._assign(v, cv)
                self._assign(v1, self._pick([cv, cv2]))
            elif kind == "special-swap":
                _, v, v1, v2, w, v0, other = rec
                cv = self._pick([col[v0], col[other]])
                self._assign(v, cv)
                cv2 = self._pick([col[w], cv])
                self._assign(v2, cv2)
                self._assign(v1, self._pick([cv, cv2]))
            elif kind == "hub-peel":
                _, w, z, u, v, p, q = rec
                self._extend_hub_peel(w, z, u, v, p, q)
                self.deg[w] = 1
                self.deg[z] += 1
            else:
                raise self._fail(f"unknown record {kind}")

    def _extend_hub_peel(self, w: int, z: int, u: int, v: int, p: int, q: int) -> None:
        col, deg, src = self.col, self.deg, self.source.adj
        col1 = col[z]
        col2 = self._pick_lightest([col1])
        if self.sizes[col1] >= self.sizes[col2]:
            self._assign(w, col2)
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
        self.sizes[col1] += 1
        self.sizes[cx] -= 1
        self._assign(w, cx)


# ---------------------------------------------------------------------------
# Public constructors.


def _certify(t: Graph, colors: dict, k: int, trace: Iterable[str], apart: Iterable[tuple] = ()) -> EquitableCertificate:
    """Verified certificate of ``colors``, which must also give each pair in
    ``apart`` two colors."""
    cert = verify_equitable(t, KColoring(k, colors), trace)
    if not cert.valid or any(colors[a] == colors[b] for a, b in apart):
        raise InternalInvariant("constructed coloring failed verification", dump=format_tree_text(t))
    return cert


def _three_colors(t: Tree, constraint: Optional[tuple] = None) -> tuple:
    """Equitable 3-coloring of t and its construction trace, unverified."""
    if t.n == 1:
        return {1: 1}, ("direct:trivial",)
    if is_path_graph(t):
        return _path3_colors(path_order(t), constraint), ("direct:path",)
    m = _Machine(t)
    m.run3(constraint)
    return {v: m.col[v] for v in range(1, t.n + 1)}, tuple(m.trace)


def equitable_three(t: Tree, constraint: Optional[tuple] = None) -> EquitableCertificate:
    """Equitable 3-coloring of a tree with max degree at most n/3.

    With ``constraint=(p, q)`` (two distinct pre-leaf vertices) the returned
    coloring additionally separates p and q.
    """
    n = t.n
    if n >= 2 and t.max_degree * 3 > n:
        raise DegreeTooHigh(f"max degree {t.max_degree} exceeds n/3 = {n / 3:.2f}")
    if constraint is not None:
        p, q = constraint
        if p == q or not (1 <= p <= n and 1 <= q <= n) or not (is_pre_leaf(t, p) and is_pre_leaf(t, q)):
            raise NoTwoPreLeaves(f"({p}, {q}) is not a pair of distinct pre-leaf vertices")
    colors, trace = _three_colors(t, constraint)
    return _certify(t, colors, 3, trace, () if constraint is None else (constraint,))


def hub_pair_coloring(t: Tree, u: int, v: int, p: int, q: int) -> EquitableCertificate:
    """Equitable 3-coloring separating two vertices of degree >= n/3 and two
    pre-leaf vertices."""
    n = t.n
    if u == v or not (1 <= u <= n and 1 <= v <= n):
        raise PreconditionViolated("u and v must be distinct vertices")
    if t.degree(u) * 3 < n or t.degree(v) * 3 < n:
        raise PreconditionViolated("both designated vertices need degree at least n/3")
    if p == q or not (1 <= p <= n and 1 <= q <= n) or not (is_pre_leaf(t, p) and is_pre_leaf(t, q)):
        raise PreconditionViolated("p and q must be distinct pre-leaf vertices")
    m = _Machine(t)
    m.lemma_run(u, v, p, q)
    m._unwind()
    return _certify(t, {x: m.col[x] for x in range(1, n + 1)}, 3, tuple(m.trace), ((u, v), (p, q)))


def _independent_low_degree(adj: Sequence, vertices: Iterable[int], m: int) -> list:
    """m pairwise non-adjacent vertices of degree <= 2 among ``vertices``
    (ascending) of the tree that ``adj`` spans on them, smallest id first.

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
        if len(chosen) == m:
            return chosen
        if len(adj[v]) <= 2 and not blocked[v]:
            chosen.append(v)
            for w in adj[v]:
                blocked[w] = 1
    if len(chosen) == m:
        return chosen
    raise IndependentSetNotFound(f"needed {m}, found {len(chosen)} among degree-<=2 vertices")


def equitable_coloring(t: Tree, k: int) -> EquitableCertificate:
    """Equitable k-coloring of a tree with max degree at most n/k, k >= 3.

    For k >= 4 the tree sheds floor(n/k) pairwise non-adjacent low-degree
    vertices (they become color k), the remaining forest is completed to a
    tree under the same degree cap, and the completion is colored with k-1
    colors; class sizes come out exactly equitable by arithmetic.  Every
    layer is shed on one adjacency over t's own ids, and the tree left for
    the 3-coloring is relabeled 1..m once.  Relabeling keeps the id order,
    so this makes the same choices as relabeling after every layer.
    """
    if k < 3:
        raise BadArgument("k must be at least 3")
    n = t.n
    if n >= 2 and t.max_degree * k > n:
        raise DegreeTooHigh(f"max degree {t.max_degree} exceeds n/k = {n / k:.2f}")
    if n == 1:
        return _certify(t, {1: 1}, k, ("direct:trivial",))
    if k == 3:
        return equitable_three(t)
    if is_path_graph(t):
        return _certify(t, _round_robin_colors(path_order(t), k), k, ("direct:path",))
    trace: list = []
    colors = {}  # exactly the shed vertices, until the 3-coloring
    adj = [set(row) for row in t.adj]
    kept = list(range(1, n + 1))
    top = t.max_degree
    for k_level in range(k, 3, -1):
        for x in _independent_low_degree(adj, kept, len(kept) // k_level):
            colors[x] = k_level
            for w in adj[x]:
                adj[w].discard(x)
        kept = [v for v in kept if v not in colors]
        join_forest(adj, forest_components(adj, kept), max(top, 2))
        top = max(map(len, map(adj.__getitem__, kept)))
        if top * (k_level - 1) > len(kept):
            raise InternalInvariant("degree cap lost during forest completion", dump=format_tree_text(t))
        trace.append(f"reduce:k{k_level}")
    new_id = [0] * (n + 1)
    for i, v in enumerate(kept, 1):
        new_id[v] = i
    rows: list = [[] for _ in range(len(kept) + 1)]
    for i, v in enumerate(kept, 1):  # ascending, so every row comes out sorted
        for w in adj[v]:
            rows[new_id[w]].append(i)
    cur = Tree(len(kept), tuple(map(tuple, rows)), len(kept) - 1)
    colors3, trace3 = _three_colors(cur)
    for v, c in colors3.items():
        colors[kept[v - 1]] = c
    return _certify(t, colors, k, (*trace, *trace3))
