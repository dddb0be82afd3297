import heapq
import json
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from arbor import cli
from arbor.errors import ArborError, CapInfeasible, NotAdjacent, NotATree, PreconditionViolated
from arbor.random_trees import enumerate_labeled_trees, enumerate_unlabeled_trees, prufer_decode, prufer_encode
from arbor.trees import (
    Graph,
    InducedSubgraph,
    Tree,
    VertexClass,
    branch,
    build_graph,
    build_tree,
    classify_vertex,
    complete_forest_to_tree,
    double_star,
    format_tree_text,
    induced_subtree,
    is_path_graph,
    parse_tree_text,
    path,
    path_order,
    pre_leaves,
    star,
)


def random_tree_strategy(max_n=40):
    # a length-(n-2) code over 1..n decodes to a uniform labeled tree
    return st.integers(2, max_n).flatmap(
        lambda n: st.lists(st.integers(1, n), min_size=n - 2, max_size=n - 2).map(
            lambda ent: prufer_decode(ent, n)
        )
    )


class TestBuildTree:
    def test_smallest_tree(self):
        t = build_tree([(1, 2)], 2)
        assert t.n == 2 and t.edge_count == 1

    def test_triangle_rejected(self):
        with pytest.raises(NotATree) as exc:
            build_tree([(1, 2), (2, 3), (3, 1)], 3)
        assert exc.value.reason == "cycle"

    def test_equality_and_repr(self):
        t = build_tree([(1, 2), (2, 3)], 3)
        assert t == build_graph([(3, 2), (2, 1)], 3)
        assert Graph.__eq__(t, format_tree_text(t)) is NotImplemented
        assert t != format_tree_text(t) and t != t.adj and t != None  # noqa: E711
        assert repr(t) == "Tree(n=3, edges=2)" and repr(build_graph([(1, 2)], 4)) == "Graph(n=4, edges=1)"

    def test_disconnected_rejected(self):
        with pytest.raises(NotATree) as exc:
            build_tree([(1, 2), (3, 4)], 4)
        assert exc.value.reason == "disconnected"

    @pytest.mark.parametrize(
        "edges,n,reason",
        [
            ([(1, 1)], 2, "self-loop"),
            ([(1, 2), (2, 1)], 2, "duplicate-edge"),
            ([(1, 5)], 3, "bad-vertex-id"),
            ([(0, 1)], 2, "bad-vertex-id"),
        ],
    )
    def test_bad_input(self, edges, n, reason):
        with pytest.raises(NotATree) as exc:
            build_tree(edges, n)
        assert exc.value.reason == reason


def reference_build_graph(edges, n, cls=Graph):
    """``build_graph`` as it was before it shared ``build_tree``'s
    union-find pass (the old ``Graph.from_edges``): a set of neighbors per
    vertex, and the rows sorted from those sets."""
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
    g = cls(n, us, vs, [len(s) for s in nbr[1:]])
    g.adj = tuple(tuple(sorted(s)) for s in nbr)
    return g


def reference_build_tree(edges, n):
    """``build_tree`` as it was before its one union-find pass: the set per
    vertex of ``reference_build_graph``, then a walk of the rows for
    connectivity."""
    g = reference_build_graph(edges, n, Tree)
    if g.edge_count > n - 1:
        raise NotATree("cycle", f"{g.edge_count} edges on {n} vertices")
    if g.edge_count < n - 1 or not is_connected(g):
        raise NotATree("disconnected", f"{g.edge_count} edges on {n} vertices")
    return g


def outcome(build, edges, n):
    """The tree's n, edge list and degrees, or the type and message of its refusal."""
    try:
        t = build(list(edges), n)
    except ArborError as exc:
        return type(exc), str(exc)
    return t.n, sorted(t.edges()), t.degree_sequence()


def plant_faults(rng, edges, n):
    """Plant up to three faults in ``edges`` on 1..n, n >= 1, in place: a
    duplicate (as written or reversed), a loop, an id out of range (on a
    loop or not), an extra, dropped or replaced edge."""
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        op = rng.choice(("duplicate", "reversed", "loop", "range", "extra", "drop", "replace"))
        i = rng.randint(0, len(edges))
        if op in ("duplicate", "reversed") and edges:
            u, v = rng.choice(edges)
            edges.insert(i, (u, v) if op == "duplicate" else (v, u))
        elif op == "loop":
            u = rng.randint(1, n)
            edges.insert(i, (u, u))
        elif op == "range":  # sometimes a loop too, which is reported as a bad id
            bad = rng.choice((0, -1, n + 1, n + 7))
            edges.insert(i, (bad, bad) if rng.random() < 0.3 else (bad, rng.randint(1, n)))
        elif op in ("extra", "replace") and n >= 2:
            u, v = rng.sample(range(1, n + 1), 2)
            if op == "replace" and edges:
                edges[rng.randrange(len(edges))] = (u, v)
            else:
                edges.insert(i, (u, v))
        elif op == "drop" and edges:
            del edges[rng.randrange(len(edges))]


def mutated_edge_lists(seed, count):
    """Seeded (edges, n): shuffled, flipped edge lists of random trees with
    up to three faults planted (``plant_faults``)."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 24)
        t = prufer_decode([rng.randint(1, n) for _ in range(n - 2)], n) if n >= 2 else build_tree([], 1)
        edges = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in t.edges()]
        rng.shuffle(edges)
        plant_faults(rng, edges, n)
        yield edges, n


def mutated_graph_edge_lists(seed, count):
    """Seeded (edges, n): flipped edge lists of random simple graphs of
    every density on up to 12 vertices, many of them with cycles, with up
    to three faults planted (``plant_faults``); one in twenty has n < 1."""
    rng = random.Random(seed)
    for _ in range(count):
        if rng.random() < 0.05:
            yield [(1, 2)] * rng.randint(0, 1), rng.choice((0, -1))
            continue
        n = rng.randint(1, 12)
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        edges = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in rng.sample(pairs, rng.randint(0, len(pairs)))]
        plant_faults(rng, edges, n)
        yield edges, n


class TestBuildTreeOracle:
    """The one-pass ``build_tree`` keeps every tree, refusal reason and
    message of the set-and-walk one."""

    def test_mutated_edge_lists(self):
        reasons = set()
        for edges, n in mutated_edge_lists(21, 4_000):
            got = outcome(build_tree, edges, n)
            assert got == outcome(reference_build_tree, edges, n), (edges, n)
            reasons.add(got[1].split(":")[0] if got[0] is NotATree else "tree")
        assert reasons == {"tree", "bad-vertex-id", "self-loop", "duplicate-edge", "cycle", "disconnected"}

    @pytest.mark.parametrize(
        "edges,n,reason",
        [
            # a cycle closed before a later bad id, loop or duplicate: the later edge is reported
            ([(1, 2), (2, 3), (3, 1), (1, 9)], 4, "bad-vertex-id"),
            ([(1, 2), (2, 3), (3, 1), (4, 4)], 4, "self-loop"),
            ([(1, 2), (2, 3), (3, 1), (2, 1)], 4, "duplicate-edge"),
            ([(1, 2), (2, 3), (1, 3), (3, 4), (4, 3)], 5, "duplicate-edge"),
            # a cycle inside exactly n - 1 edges leaves a vertex out
            ([(1, 2), (2, 3), (3, 1)], 4, "disconnected"),
            ([(2, 3), (3, 4), (4, 2), (5, 6), (1, 5)], 6, "disconnected"),
            # a reversed duplicate, before and after the set of earlier edges exists
            ([(1, 2), (2, 1)], 3, "duplicate-edge"),
            ([(1, 2), (2, 3), (3, 1), (4, 3), (3, 4)], 5, "duplicate-edge"),
            # more than n - 1 simple edges
            ([(1, 2), (2, 3), (3, 1)], 3, "cycle"),
            ([(1, 2), (4, 4)], 3, "bad-vertex-id"),
            ([], 0, "bad-vertex-id"),
        ],
    )
    def test_named_cases(self, edges, n, reason):
        with pytest.raises(NotATree) as exc:
            build_tree(edges, n)
        assert exc.value.reason == reason
        assert outcome(build_tree, edges, n) == outcome(reference_build_tree, edges, n)

    def test_no_rows(self):
        t = build_tree([(4, 1), (2, 5), (1, 5), (6, 3), (3, 5)], 6)
        assert "adj" not in held(t) and t.degree_sequence() == [2, 1, 2, 1, 3, 1]
        assert t == reference_build_tree([(4, 1), (2, 5), (1, 5), (6, 3), (3, 5)], 6)


class TestBuildGraphOracle:
    """``build_graph`` checks its edges in ``build_tree``'s union-find pass
    and keeps every graph, refusal reason and message of the set per vertex
    it replaced."""

    def test_mutated_graph_edge_lists(self):
        kinds = set()
        for edges, n in mutated_graph_edge_lists(22, 4_000):
            got = outcome(build_graph, edges, n)
            assert got == outcome(reference_build_graph, edges, n), (edges, n)
            if got[0] is NotATree:
                kinds.add(got[1].split(":")[0])
            else:  # a graph with n or more edges holds a cycle
                kinds.add("cyclic" if len(got[1]) >= n else "sparse")
        assert kinds == {"cyclic", "sparse", "bad-vertex-id", "self-loop", "duplicate-edge"}

    @pytest.mark.parametrize(
        "edges,n,reason",
        [
            # a duplicate after a cycle closed, as written and reversed
            ([(1, 2), (2, 3), (3, 1), (1, 2)], 3, "duplicate-edge"),
            ([(1, 2), (2, 3), (3, 1), (3, 4), (3, 2)], 4, "duplicate-edge"),
            ([(1, 2), (2, 1)], 2, "duplicate-edge"),
            # a loop or bad id after a cycle closed
            ([(1, 2), (2, 3), (3, 1), (4, 4)], 4, "self-loop"),
            ([(1, 2), (2, 3), (3, 1), (1, 5)], 4, "bad-vertex-id"),
            # an out-of-range loop is a bad id first
            ([(5, 5)], 4, "bad-vertex-id"),
            ([], 0, "bad-vertex-id"),
            ([(1, 2)], -1, "bad-vertex-id"),
            # graphs: two cycles beside a lone vertex, K5, no edges
            ([(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 3)], 6, None),
            ([(u, v) for u in range(1, 6) for v in range(u + 1, 6)], 5, None),
            ([], 3, None),
        ],
    )
    def test_named_cases(self, edges, n, reason):
        assert outcome(build_graph, edges, n) == outcome(reference_build_graph, edges, n)
        if reason is None:
            g = build_graph(edges, n)
            assert type(g) is Graph and held(g) == GRAPH_FORMS
            assert g.adj == reference_build_graph(edges, n).adj
            return
        with pytest.raises(NotATree) as exc:
            build_graph(edges, n)
        assert exc.value.reason == reason


def held(g):
    """The slots g holds, read without deriving any it lacks."""
    out = set()
    for name in Graph.__slots__:
        try:
            object.__getattribute__(g, name)
        except AttributeError:
            continue
        out.add(name)
    return out


# the slots every graph holds when made: its edge list and degrees, no rows
GRAPH_FORMS = {"n", "edge_count", "max_degree", "_ends", "_degrees"}

# each way a graph is made ("rows" names induced_subtree, which once built rows only)
GRAPH_ORIGINS = {
    "rows": lambda: induced_subtree(double_star(3, 2), {2}).graph,
    "build-graph": lambda: build_graph([(4, 1), (2, 5), (1, 5), (6, 3)], 7),
    "build-tree": lambda: build_tree([(4, 1), (2, 5), (1, 5), (6, 3), (3, 5)], 6),
    "decoded": lambda: prufer_decode([4, 4, 1, 5], 6),
    "completed": lambda: complete_forest_to_tree(build_graph([(4, 1), (2, 5), (6, 3)], 7), 3),
}


class TestPickle:
    @pytest.mark.parametrize("make", GRAPH_ORIGINS.values(), ids=GRAPH_ORIGINS.keys())
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_round_trip_builds_no_form(self, make, protocol):
        g = make()
        forms = held(g)
        assert forms == GRAPH_FORMS
        data = pickle.dumps(g, protocol)
        assert held(g) == forms
        back = pickle.loads(data)
        assert held(back) == forms and type(back) is type(g)
        assert back == g and set(back.edges()) == set(g.edges())
        assert back.degree_sequence() == g.degree_sequence() and back.max_degree == g.max_degree


class TestClassify:
    def test_star_center_is_pre_leaf(self):
        assert classify_vertex(star(6), 1) == VertexClass.PRE_LEAF

    def test_p3_middle_is_special(self):
        # degree-two vertex flanked by two leaves: counted as a (special)
        # pre-leaf under the >= deg-1 rule
        assert classify_vertex(path(3), 2) == VertexClass.SPECIAL_PRE_LEAF

    def test_p4_second_is_special(self):
        assert classify_vertex(path(4), 2) == VertexClass.SPECIAL_PRE_LEAF

    def test_leaf_and_internal(self):
        t = path(5)
        assert classify_vertex(t, 1) == VertexClass.LEAF
        assert classify_vertex(t, 3) == VertexClass.INTERNAL

    @settings(max_examples=60, deadline=None)
    @given(random_tree_strategy())
    def test_classes_partition_vertices(self, t):
        counts = {c: 0 for c in VertexClass}
        for v in range(1, t.n + 1):
            counts[classify_vertex(t, v)] += 1
        assert sum(counts.values()) == t.n
        assert set(pre_leaves(t)) == {
            v
            for v in range(1, t.n + 1)
            if classify_vertex(t, v) in (VertexClass.PRE_LEAF, VertexClass.SPECIAL_PRE_LEAF)
        }


def reference_classify_vertex(t, v):
    """``classify_vertex`` as it was before it read the degree and XOR lists:
    v's row and the rows of its neighbors."""
    if not (1 <= v <= t.n):
        raise NotATree("bad-vertex-id", f"vertex {v}")
    deg = len(t.adj[v])
    if deg == 1:
        return VertexClass.LEAF
    leaf_nbrs = sum(1 for w in t.adj[v] if len(t.adj[w]) == 1)
    if deg >= 2 and leaf_nbrs >= deg - 1:
        return VertexClass.SPECIAL_PRE_LEAF if deg == 2 else VertexClass.PRE_LEAF
    return VertexClass.INTERNAL


def reference_pre_leaves(t):
    pre = (VertexClass.PRE_LEAF, VertexClass.SPECIAL_PRE_LEAF)
    return [v for v in range(1, t.n + 1) if reference_classify_vertex(t, v) in pre]


def reference_prufer_encode(t):
    """``prufer_encode`` as it was before it peeled by XOR: a heap of
    leaves, removed flags, and a scan of the stripped leaf's row for its
    neighbor left."""
    n = t.n
    deg = [len(t.adj[v]) for v in range(n + 1)]
    removed = bytearray(n + 1)
    leaves = [v for v in range(1, n + 1) if deg[v] == 1]
    heapq.heapify(leaves)
    out = []
    for _ in range(n - 2):
        v = heapq.heappop(leaves)
        removed[v] = 1
        for w in t.adj[v]:
            if not removed[w]:
                out.append(w)
                deg[w] -= 1
                if deg[w] == 1:
                    heapq.heappush(leaves, w)
                break
    return out


def reference_check(t):
    """The bytes ``arbor check`` wrote before it read the lists: a class
    loop over ``reference_classify_vertex``, then the references above."""
    classes = {"leaf": 0, "pre-leaf": 0, "special-pre-leaf": 0, "internal": 0}
    for v in range(1, t.n + 1):
        classes[reference_classify_vertex(t, v).value] += 1
    degrees = t.degree_sequence()
    payload = {
        "schema": 1,
        "n": t.n,
        "edges": t.edge_count,
        "max_degree": t.max_degree,
        "x1": degrees.count(1),
        "x2": degrees.count(2),
        "is_path": t.max_degree <= 2,
        "classes": classes,
        "pre_leaves": reference_pre_leaves(t),
        "prufer": reference_prufer_encode(t) if t.n >= 2 else [],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def twin(t):
    """The same tree built again, so a reference may derive its rows."""
    return build_tree(list(t.edges()), t.n)


def taxonomy_corpus():
    """(label, tree): the one-vertex tree, every labeled tree with n <= 7
    (n = 2 included), every unlabeled tree with n <= 10 (built again, as
    its enumeration reads rows), and seeded random trees up to n = 2,000,
    each decoded and as shuffled, flipped edge-list text."""
    yield "n=1", build_tree([], 1)
    for n in range(2, 8):
        yield from ((f"labeled n={n} #{i}", t) for i, t in enumerate(enumerate_labeled_trees(n)))
    for n in range(1, 11):
        yield from ((f"unlabeled n={n} #{i}", twin(t)) for i, t in enumerate(enumerate_unlabeled_trees(n)))
    rng = random.Random(24)
    for n in (*range(8, 41), 60, 300, 1_000, 2_000):
        for trial in range(3 if n <= 60 else 1):
            t = prufer_decode([rng.randint(1, n) for _ in range(n - 2)], n)
            yield f"decoded n={n} #{trial}", t
            edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in t.edges()]
            rng.shuffle(edges)
            yield f"parsed n={n} #{trial}", parse_tree_text(f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges))


class TestTaxonomyOracle:
    """The vertex classes, pre-leaves, Prüfer code and ``arbor check`` bytes
    read off the degree and XOR lists equal the rows-based references, and
    reading them derives no rows."""

    def test_classes_pre_leaves_and_codes(self):
        seen = set()
        for label, t in taxonomy_corpus():
            ref = twin(t)
            got = [classify_vertex(t, v) for v in range(1, t.n + 1)]
            assert got == [reference_classify_vertex(ref, v) for v in range(1, t.n + 1)], label
            assert pre_leaves(t) == reference_pre_leaves(ref), label
            if t.n >= 2:
                assert prufer_encode(t) == reference_prufer_encode(ref), label
            assert held(t) == GRAPH_FORMS, label
            seen.update(got)
        assert seen == set(VertexClass)

    def test_check_bytes(self, capsys, monkeypatch):
        for label, t in taxonomy_corpus():
            monkeypatch.setattr(cli, "_read_tree", lambda path, t=t: t)  # the corpus tree, as read
            assert cli.main(["check", "--in", label]) == 0
            assert capsys.readouterr().out == reference_check(twin(t)), label
            assert held(t) == GRAPH_FORMS, label


class TestBranch:
    def test_path_end(self):
        assert branch(path(3), 2, 1) == frozenset({1})

    def test_star_leaf(self):
        s = star(6)
        assert branch(s, 1, 2) == frozenset({2})

    def test_spider(self):
        t = build_tree([(1, 2), (2, 3), (1, 4), (4, 5)], 5)
        assert branch(t, 1, 2) == frozenset({2, 3})

    def test_not_adjacent(self):
        with pytest.raises(NotAdjacent):
            branch(path(4), 1, 3)

    def test_leaf_rejected(self):
        with pytest.raises(PreconditionViolated):
            branch(path(3), 1, 2)

    @settings(max_examples=60, deadline=None)
    @given(random_tree_strategy(25))
    def test_branches_partition(self, t):
        for v in range(1, t.n + 1):
            if t.degree(v) < 2:
                continue
            seen = set()
            for u in t.adj[v]:
                b = branch(t, v, u)
                assert not (seen & b)
                seen |= b
            assert seen == set(range(1, t.n + 1)) - {v}


class TestPaths:
    @pytest.mark.parametrize("n,expect", [(9, True), (2, True), (4, True)])
    def test_paths_are_paths(self, n, expect):
        assert is_path_graph(path(n)) is expect

    def test_star_is_not(self):
        assert not is_path_graph(star(4))

    def test_path_order(self):
        assert path_order(path(5)) == [1, 2, 3, 4, 5]
        assert path_order(build_tree([], 1)) == [1]

    def test_path_order_walks_by_xor(self):
        # the walk of the rows it replaced, from the smaller end; no row is built
        for n in range(2, 60):
            walk = random.Random(n).sample(range(1, n + 1), n)
            t = build_tree([(v, u) if i % 2 else (u, v) for i, (u, v) in enumerate(zip(walk, walk[1:]))], n)
            order = path_order(t)
            assert "adj" not in held(t)
            assert order == (walk if walk[0] < walk[-1] else walk[::-1])

    def test_path_order_refuses_a_path_beside_a_cycle(self):
        # max degree 2 and two ends, but the walk stops short of n vertices
        g = build_graph([(1, 2), (3, 4), (4, 5), (5, 3)], 5)
        with pytest.raises(PreconditionViolated, match="not a path-shaped tree"):
            path_order(g)


class TestInducedSubtree:
    def test_drop_end(self):
        sub = induced_subtree(path(4), {4})
        assert sub.graph.n == 3 and sub.graph.edge_count == 2

    def test_split_middle(self):
        sub = induced_subtree(path(4), {2})
        assert sub.graph.n == 3 and sub.graph.edge_count == 1

    def test_identity(self):
        t = star(5)
        sub = induced_subtree(t, set())
        assert set(sub.graph.edges()) == set(t.edges())

    @settings(max_examples=40, deadline=None)
    @given(random_tree_strategy(20), st.data())
    def test_round_trip_via_maps(self, t, data):
        removed = set(data.draw(st.lists(st.integers(1, t.n), max_size=t.n - 1, unique=True)))
        if len(removed) >= t.n:
            removed.pop()
        sub = induced_subtree(t, removed)
        rebuilt = {
            (min(sub.new_to_old[a], sub.new_to_old[b]), max(sub.new_to_old[a], sub.new_to_old[b]))
            for a, b in sub.graph.edges()
        }
        readd = {(u, v) for u, v in t.edges() if u in removed or v in removed}
        assert rebuilt | readd == set(t.edges())


class TestForestCompletion:
    def test_three_singletons_cap_two(self):
        out = complete_forest_to_tree(build_graph([], 3), 2)
        assert out.n == 3 and out.edge_count == 2 and out.max_degree <= 2

    def test_tree_is_fixed_point(self):
        t = star(5)
        assert set(complete_forest_to_tree(t, t.max_degree).edges()) == set(t.edges())

    def test_two_edges_cap_two(self):
        out = complete_forest_to_tree(build_graph([(1, 2), (3, 4)], 4), 2)
        assert out.max_degree == 2 and out.edge_count == 3  # a path on 4

    def test_cap_below_forest_degree(self):
        with pytest.raises(CapInfeasible):
            complete_forest_to_tree(star(4), 2)

    def test_empty_forest_refused(self):
        # the empty forest cannot be made; a one-vertex forest is its own tree
        with pytest.raises(NotATree, match="bad-vertex-id"):
            induced_subtree(path(2), {1, 2})
        lone = induced_subtree(path(2), {1}).graph
        out = complete_forest_to_tree(lone, 0)
        assert type(out) is Tree and out == lone

    def test_cap_one_three_singletons(self):
        with pytest.raises(CapInfeasible):
            complete_forest_to_tree(build_graph([], 3), 1)

    @pytest.mark.parametrize(
        "edges,n,cap",
        [
            ([(1, 2), (2, 3), (1, 3)], 4, 2),  # the cycle comes first: it has no leaf to start the join from
            ([(2, 3), (3, 4), (2, 4)], 5, 2),  # a cycle after a lone vertex: no leaf to attach
            ([(1, 2), (2, 3), (3, 4), (1, 4), (5, 6)], 7, 2),  # a cycle whose vertices are all at the cap
            ([(1, 2), (3, 4), (4, 5), (3, 5), (5, 6)], 8, 3),  # a cycle with a pendant leaf, between trees
        ],
    )
    def test_cycle_refused_before_any_join(self, edges, n, cap):
        with pytest.raises(NotATree) as exc:
            complete_forest_to_tree(build_graph(edges, n), cap)
        assert exc.value.reason == "cycle"

    @pytest.mark.parametrize(
        "edges,n,cap",
        [
            ([(1, 2), (3, 4)], 4, 1),  # two edges, cap 1: no leaf has room
            ([], 3, 0),  # lone vertices, cap 0
            ([(1, 2), (2, 3), (1, 3)], 4, 1),  # the cap is checked before the cycle
        ],
    )
    def test_cap_at_most_one_refused(self, edges, n, cap):
        with pytest.raises(CapInfeasible):
            complete_forest_to_tree(build_graph(edges, n), cap)

    def test_cap_one_joins_two_lone_vertices(self):
        assert set(complete_forest_to_tree(build_graph([], 2), 1).edges()) == {(1, 2)}

    @settings(max_examples=40, deadline=None)
    @given(random_tree_strategy(20), st.data())
    def test_contains_input_edges(self, t, data):
        removed = set(data.draw(st.lists(st.integers(1, t.n), max_size=max(0, t.n - 2), unique=True)))
        sub = induced_subtree(t, removed)
        cap = max(sub.graph.max_degree, 2)
        out = complete_forest_to_tree(sub.graph, cap)
        assert set(sub.graph.edges()) <= set(out.edges())
        assert out.edge_count == out.n - 1
        assert out.max_degree <= cap


def reference_completion(f, cap):
    """Edge set of the completion by the documented rule, computed directly:
    components by minimum vertex, each new edge between the (degree,
    id)-minimal vertex below the cap of the tree so far and of the next
    component."""
    if cap < f.max_degree:
        raise CapInfeasible("cap below forest degree")
    label = list(range(f.n + 1))  # union-find, for components
    def find(x):
        while label[x] != x:
            x = label[x]
        return x
    for u, v in f.edges():
        label[max(find(u), find(v))] = min(find(u), find(v))
    comps = {}
    for v in range(1, f.n + 1):
        comps.setdefault(find(v), []).append(v)
    deg = [len(row) for row in f.adj]
    edges = set(f.edges())
    groups = [comps[r] for r in sorted(comps)]
    joined = list(groups[0])
    for comp in groups[1:]:
        ends = [min(((deg[v], v) for v in part if deg[v] < cap), default=None) for part in (joined, comp)]
        if None in ends:
            raise CapInfeasible("no attachment point")
        (_, a), (_, b) = ends
        edges.add((min(a, b), max(a, b)))
        deg[a] += 1
        deg[b] += 1
        joined += comp
    return edges


@st.composite
def forests_and_caps(draw):
    """A forest on 1..n (each vertex after the first hangs under an earlier
    one or starts a component, then the ids are shuffled) and a cap."""
    n = draw(st.integers(1, 24))
    parents = [draw(st.integers(0, v - 1)) for v in range(2, n + 1)]
    ids = draw(st.permutations(range(1, n + 1)))
    edges = [(ids[v - 1], ids[p - 1]) for v, p in zip(range(2, n + 1), parents) if p]
    f = build_graph(edges, n)
    return f, draw(st.integers(0, f.max_degree + 2))


class TestForestCompletionRule:
    @settings(max_examples=300, deadline=None)
    @given(forests_and_caps())
    def test_matches_reference(self, case):
        f, cap = case
        try:
            expect = reference_completion(f, cap)
        except CapInfeasible:
            with pytest.raises(CapInfeasible):
                complete_forest_to_tree(f, cap)
            return
        out = complete_forest_to_tree(f, cap)
        assert set(out.edges()) == expect
        assert all(list(row) == sorted(row) for row in out.adj)
        assert out.edge_count == f.n - 1 and out.max_degree == max(map(len, out.adj))


class TestDegreeSum:
    @settings(max_examples=50, deadline=None)
    @given(random_tree_strategy())
    def test_degree_sum_identity(self, t):
        assert sum(t.degree_sequence()) == 2 * (t.n - 1)


# Pieces a fuzzed input line is made of: numbers in and out of range,
# separators, a code marker, comments and text that int() reads or refuses.
FUZZ_PIECES = st.one_of(
    st.integers(-2, 9).map(str),
    st.sampled_from(["P:", "#", " ", "\t", "\n", "\r", "x", "1.0", "1_0", "+2", "\u0663", "\x00", "9" * 30]),
    st.text(max_size=3),
)


@st.composite
def fuzzed(draw, valid):
    """A text from ``valid`` with up to four pieces inserted, deleted or
    replaced at random places, or a line-shaped or arbitrary text."""
    kind = draw(st.sampled_from(("mutated", "lines", "any")))
    if kind == "any":
        return draw(st.text())
    if kind == "lines":
        line = st.lists(FUZZ_PIECES, max_size=4).map(" ".join)
        return "\n".join(draw(st.lists(line, max_size=12)))
    text = draw(valid)
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        piece = "" if op == "delete" else draw(FUZZ_PIECES)
        text = text[:i] + piece + text[i + (op != "insert") :]
    return text


def tree_text_strategy():
    """Edge-list and code-line texts of trees with n <= 8, one vertex included."""
    trees = random_tree_strategy(8).flatmap(
        lambda t: st.sampled_from(
            [format_tree_text(t), f"# comment\n{t.n}\nP: " + " ".join(map(str, prufer_encode(t))) + "\n"]
        )
    )
    return st.one_of(st.just("1\n"), trees)


def is_connected(g):
    """Whether every vertex of g is reached from vertex 1, by its rows."""
    seen = bytearray(g.n + 1)
    stack = [1]
    seen[1] = 1
    found = 1
    while stack:
        u = stack.pop()
        for w in g.adj[u]:
            if not seen[w]:
                seen[w] = 1
                found += 1
                stack.append(w)
    return found == g.n


class TestParseFuzz:
    @settings(max_examples=400, deadline=None)
    @given(fuzzed(tree_text_strategy()))
    def test_valid_tree_or_typed_error(self, text):
        # any other exception fails the test
        try:
            t = parse_tree_text(text)
        except ArborError:
            return
        assert isinstance(t, Tree) and t.n >= 1 and t.edge_count == t.n - 1 and is_connected(t)
        assert build_tree(list(t.edges()), t.n) == t


def reference_format_tree_text(t):
    """``format_tree_text`` as it was, read from the rows."""
    lines = [str(t.n)]
    for u in range(1, t.n + 1):
        lines.extend(f"{u} {v}" for v in t.adj[u] if u < v)
    return "\n".join(lines) + "\n"


class TestTextFormat:
    def test_format_matches_rows(self):
        # decoded, built, induced and completed graphs, none with rows when formatted
        rng = random.Random(22)
        for n in range(1, 80):
            decoded = prufer_decode([rng.randint(1, n) for _ in range(n - 2)], n) if n >= 2 else build_tree([], 1)
            edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in decoded.edges()]
            rng.shuffle(edges)
            induced = induced_subtree(decoded, rng.sample(range(1, n + 1), rng.randint(0, n - 1))).graph
            made = [decoded, build_tree(edges, n), induced, complete_forest_to_tree(induced, max(induced.max_degree, 2))]
            for g in made:
                text = format_tree_text(g)
                assert held(g) == GRAPH_FORMS
                assert text == reference_format_tree_text(g)

    def test_round_trip(self):
        t = double_star(2, 3)
        assert set(parse_tree_text(format_tree_text(t)).edges()) == set(t.edges())

    def test_prufer_line(self):
        t = parse_tree_text("4\nP: 1 1\n")
        assert set(t.edges()) == set(star(4).edges())

    def test_prufer_line_n2(self):
        t = parse_tree_text("2\nP:\n")
        assert set(t.edges()) == {(1, 2)}

    def test_bad_header(self):
        with pytest.raises(NotATree):
            parse_tree_text("x y\n1 2\n")

    @pytest.mark.parametrize(
        "text,reason",
        [
            ("", "empty"),
            ("# only a comment\n\n", "empty"),
            ("x y\n1 2\n", "bad-header"),
            ("0\n", "bad-header"),
            ("-3\n1 2\n", "bad-header"),
            ("3\n1 2\n2\n", "bad-edge-line"),
            ("3\n1 2\n2 3 4\n", "bad-edge-line"),
            ("2\na b\n", "not-an-integer"),
            ("3\n1 2\n2 3.0\n", "not-an-integer"),
            ("5\nP: 1 x 2\n", "not-an-integer"),
            ("3\n1 2\n1 4\n", "bad-vertex-id"),
            ("4\nP: 1 1\n2 3\nP: 2 2\n", "trailing-line"),
        ],
    )
    def test_malformed_text_reason(self, text, reason):
        with pytest.raises(NotATree) as exc:
            parse_tree_text(text)
        assert exc.value.reason == reason

    def test_too_few_edge_lines_rejected_before_allocating(self):
        # a declared n far above the edge lines is refused before anything
        # of size n is built
        tracemalloc.start()
        try:
            with pytest.raises(NotATree) as exc:
                parse_tree_text("200000\n1 2\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.reason == "disconnected"
        assert peak < 1 << 20

    def test_header_only_rejected(self):
        with pytest.raises(NotATree) as exc:
            parse_tree_text("1000000000\n")
        assert exc.value.reason == "disconnected"

