"""Uniform labeled random trees via Prüfer codes, exhaustive enumeration at
small sizes, per-tree degree statistics, and canonical forms for
isomorphism-level deduplication.

There are exactly n^(n-2) labeled trees on n vertices, in bijection with
length-(n-2) sequences over 1..n; a vertex of the decoded tree has degree
one plus its multiplicity in the code.  Sampling i.i.d. uniform entries and
decoding therefore samples labeled trees exactly uniformly.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import BadEntry, TooLarge
from .trees import Graph, Tree, _leaf_peel, _source_lists, build_tree

ENUMERATION_LIMIT = 8  # 8^6 = 262144 codes


def prufer_decode(entries: Sequence[int], n: int) -> Tree:
    """Decode a length-(n-2) code into the unique labeled tree on 1..n.

    Repeatedly joins the smallest current leaf to the next code entry; the
    final edge joins the last leaf to n.  Linear time (Wang, Wang & Wu, "An
    optimal algorithm for Prüfer codes", 2009): ``ptr`` moves up the ids
    once and stops at each unused leaf, and an entry that becomes a leaf
    below ``ptr`` is the smallest leaf, so it is joined next.  Each edge
    hangs a leaf under its parent; the tree keeps each vertex v < n and its
    parent as its edge list, and builds its sorted rows only when they are
    first read.
    """
    if n < 2:
        raise BadEntry(f"need n >= 2, got {n}")
    if len(entries) != n - 2:
        raise BadEntry(f"code length {len(entries)} != n-2 = {n - 2}")
    deg = [1] * (n + 1)
    try:
        for a in entries:  # an entry above n stops this loop, one below 1 fails min()
            deg[a] += 1
        in_range = not entries or min(entries) >= 1
    except IndexError:
        in_range = False
    if not in_range:
        bad = next(a for a in entries if not 1 <= a <= n)
        raise BadEntry(f"entry {bad} outside 1..{n}")
    degrees = deg[1:]
    parent = [0] * (n + 1)
    index = deg.index
    ptr = leaf = index(1, 1)
    for a in entries:
        parent[leaf] = a
        d = deg[a] - 1
        deg[a] = d
        if d == 1 and a < ptr:
            leaf = a
        else:
            ptr = leaf = index(1, ptr + 1)
    parent[leaf] = n
    # the decoding always yields a tree, so skip re-validation
    return Tree(n, range(1, n), parent[1:n], degrees)


def prufer_encode(t: Tree) -> list[int]:
    """Inverse of decoding: strip the smallest leaf and record its neighbor
    (``_leaf_peel``), n - 2 times."""
    if t.n < 2:
        raise BadEntry("encoding needs n >= 2")
    return [w for _, w in itertools.islice(_leaf_peel(*_source_lists(t)), t.n - 2)]


# ---------------------------------------------------------------------------
# Seeded sampling.  Per-trial streams use a counter-based generator keyed by
# (master seed, trial index) so trial i is independent of how many trials run
# and of any parallel schedule.


def trial_rng(master_seed: int, trial: int = 0) -> np.random.Generator:
    key = np.zeros(2, dtype=np.uint64)
    key[0] = np.uint64(master_seed & 0xFFFFFFFFFFFFFFFF)
    key[1] = np.uint64(trial & 0xFFFFFFFFFFFFFFFF)
    return np.random.Generator(np.random.Philox(key=key))


def random_prufer(n: int, rng: np.random.Generator) -> list[int]:
    if n < 2:
        raise BadEntry(f"need n >= 2, got {n}")
    return rng.integers(1, n + 1, size=n - 2).tolist()


@functools.cache
def _trial_generator() -> np.random.Generator:
    """The one Philox generator that trial_code resets in full before each
    draw, so no state carries from one call to the next.  Setting the state
    costs about a tenth of building a new generator.  It is made on first
    use: loading ``numpy.random`` while arbor is imported raised the peak
    RSS of a ``balanced-fraction`` run by about 0.7 MiB."""
    return np.random.Generator(np.random.Philox(0))


def trial_code(n: int, master_seed: int, trial: int = 0) -> list[int]:
    """The Prüfer code of trial ``trial``: the same list as
    ``random_prufer(n, trial_rng(master_seed, trial))``, drawn from one
    reused generator reset to the state that ``trial_rng`` would build.
    Not safe to call from two threads at once."""
    gen = _trial_generator()
    key = (master_seed & 0xFFFFFFFFFFFFFFFF, trial & 0xFFFFFFFFFFFFFFFF)
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return random_prufer(n, gen)


def sample_labeled_tree(n: int, seed: int, trial: int = 0) -> Tree:
    """Uniform over all n^(n-2) labeled trees; deterministic per (seed, trial)."""
    return prufer_decode(trial_code(n, seed, trial), n)


def enumerate_labeled_trees(n: int) -> Iterator[Tree]:
    """All labeled trees on 1..n exactly once, in lexicographic code order."""
    if n > ENUMERATION_LIMIT:
        raise TooLarge(f"n={n} exceeds enumeration limit {ENUMERATION_LIMIT}")
    if n < 2:
        raise BadEntry(f"need n >= 2, got {n}")
    for entries in itertools.product(range(1, n + 1), repeat=n - 2):
        yield prufer_decode(list(entries), n)


@dataclass(frozen=True)
class TreeStats:
    max_degree: int
    x1: int  # number of degree-1 vertices
    x2: int  # number of degree-2 vertices


def tree_stats(t: Graph) -> TreeStats:
    degrees = t.degree_sequence()
    return TreeStats(t.max_degree, degrees.count(1), degrees.count(2))


def stats_from_prufer(entries: Sequence[int], n: int) -> TreeStats:
    """Stats of the decoded tree, read off the code without building it.

    deg(v) = multiplicity(v) + 1, so the degree histogram is a bincount.
    """
    counts = np.bincount(np.asarray(entries, dtype=np.int64), minlength=n + 1)
    degs = counts[1 : n + 1] + 1
    return TreeStats(int(degs.max()), int((degs == 1).sum()), int((degs == 2).sum()))


# ---------------------------------------------------------------------------
# Canonical forms.  Rooted shapes are encoded as sorted tuples of child
# encodings; a free tree is keyed by the encoding at its centroid (minimum of
# the two encodings when the centroid is an edge).  Used to deduplicate test
# corpora up to isomorphism.


def _dfs(t: Graph, root: int) -> tuple:
    """Iterative DFS from root, safe on long paths: the visit order (each
    vertex after its parent) and the parent array (0 at the root)."""
    parent = [0] * (t.n + 1)
    order = []
    seen = bytearray(t.n + 1)
    stack = [root]
    seen[root] = 1
    while stack:
        u = stack.pop()
        order.append(u)
        for w in t.adj[u]:
            if not seen[w]:
                seen[w] = 1
                parent[w] = u
                stack.append(w)
    return order, parent


def _centroids(t: Graph) -> list[int]:
    n = t.n
    order, parent = _dfs(t, 1)
    size = [0] * (n + 1)
    best: list[int] = []
    best_weight = n + 1
    for u in reversed(order):
        size[u] = 1 + sum(size[w] for w in t.adj[u] if parent[w] == u)
        weight = max(n - size[u], max((size[w] for w in t.adj[u] if parent[w] == u), default=0))
        if weight < best_weight:
            best_weight = weight
            best = [u]
        elif weight == best_weight:
            best.append(u)
    return sorted(best)


def _rooted_encoding(t: Graph, root: int) -> tuple:
    order, parent = _dfs(t, root)
    enc: list[tuple] = [()] * (t.n + 1)
    for u in reversed(order):
        enc[u] = tuple(sorted(enc[w] for w in t.adj[u] if parent[w] == u))
    return enc[root]


def canonical_form(t: Graph) -> tuple:
    """Isomorphism-invariant key: centroid-rooted shape encoding."""
    cents = _centroids(t)
    return min(_rooted_encoding(t, c) for c in cents)


# ---------------------------------------------------------------------------
# Exhaustive unlabeled (isomorphism-distinct) trees at small n via canonical
# rooted shapes; feasible far beyond the labeled enumeration limit.


def _rooted_shapes(n: int, max_shape: tuple | None, cache: dict) -> list[tuple]:
    """Canonical rooted shapes of size n whose encoding is <= max_shape."""
    key = (n, max_shape)
    if key in cache:
        return cache[key]
    out = []
    # children listed in non-increasing encoding order
    def extend(remaining: int, bound: tuple | None, acc: list):
        if remaining == 0:
            shape = tuple(sorted(acc))
            if max_shape is None or shape <= max_shape:
                out.append(shape)
            return
        for size in range(remaining, 0, -1):
            for child in _rooted_shapes(size, bound, cache):
                acc.append(child)
                extend(remaining - size, child, acc)
                acc.pop()

    extend(n - 1, None, [])
    out = sorted(set(out))
    cache[key] = out
    return out


def _shape_to_tree(shape: tuple) -> Tree:
    edges = []
    counter = [1]

    def emit(s: tuple, me: int):
        for child in s:
            counter[0] += 1
            cid = counter[0]
            edges.append((me, cid))
            emit(child, cid)

    emit(shape, 1)
    return build_tree(edges, counter[0])


def enumerate_unlabeled_trees(n: int) -> list[Tree]:
    """One representative per isomorphism class of trees on n vertices."""
    cache: dict = {}
    seen = set()
    out = []
    for shape in _rooted_shapes(n, None, cache):
        t = _shape_to_tree(shape)
        key = canonical_form(t)
        if key not in seen:
            seen.add(key)
            out.append(t)
    return out
