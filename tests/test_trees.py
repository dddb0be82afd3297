import pickle
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from arbor.errors import ArborError, CapInfeasible, NotAdjacent, NotATree, PreconditionViolated
from arbor.random_trees import prufer_decode, prufer_encode
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


# each way a graph is made, with the forms it holds when made
GRAPH_ORIGINS = {
    "rows": (lambda: induced_subtree(double_star(3, 2), {2}).graph, {"adj"}),
    "build-graph": (lambda: build_graph([(4, 1), (2, 5), (1, 5), (6, 3)], 7), {"adj", "_ends"}),
    "build-tree": (lambda: build_tree([(4, 1), (2, 5), (1, 5), (6, 3), (3, 5)], 6), {"adj", "_ends"}),
    "decoded": (lambda: prufer_decode([4, 4, 1, 5], 6), {"_ends", "_degrees"}),
}


class TestPickle:
    @pytest.mark.parametrize("make,made_with", GRAPH_ORIGINS.values(), ids=GRAPH_ORIGINS.keys())
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_round_trip_builds_no_form(self, make, made_with, protocol):
        g = make()
        forms = held(g)
        assert forms == {"n", "edge_count"} | made_with
        data = pickle.dumps(g, protocol)
        assert held(g) == forms
        back = pickle.loads(data)
        assert held(back) == forms and type(back) is type(g)
        assert back == g and back.edge_set() == g.edge_set()
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
        assert sub.graph.edge_set() == t.edge_set()

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
        assert rebuilt | readd == t.edge_set()


class TestForestCompletion:
    def test_three_singletons_cap_two(self):
        out = complete_forest_to_tree(build_graph([], 3), 2)
        assert out.n == 3 and out.edge_count == 2 and out.max_degree <= 2

    def test_tree_is_fixed_point(self):
        t = star(5)
        assert complete_forest_to_tree(t, t.max_degree).edge_set() == t.edge_set()

    def test_two_edges_cap_two(self):
        out = complete_forest_to_tree(build_graph([(1, 2), (3, 4)], 4), 2)
        assert out.max_degree == 2 and out.edge_count == 3  # a path on 4

    def test_cap_below_forest_degree(self):
        with pytest.raises(CapInfeasible):
            complete_forest_to_tree(star(4), 2)

    def test_empty_forest_refused(self):
        empty = induced_subtree(path(2), {1, 2}).graph
        assert empty.n == 0
        with pytest.raises(PreconditionViolated):
            complete_forest_to_tree(empty, 2)

    def test_cap_one_three_singletons(self):
        with pytest.raises(CapInfeasible):
            complete_forest_to_tree(build_graph([], 3), 1)

    @settings(max_examples=40, deadline=None)
    @given(random_tree_strategy(20), st.data())
    def test_contains_input_edges(self, t, data):
        removed = set(data.draw(st.lists(st.integers(1, t.n), max_size=max(0, t.n - 2), unique=True)))
        sub = induced_subtree(t, removed)
        if sub.graph.n == 0:
            return
        cap = max(sub.graph.max_degree, 2)
        out = complete_forest_to_tree(sub.graph, cap)
        assert sub.graph.edge_set() <= out.edge_set()
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
        assert out.edge_set() == expect
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


class TestParseFuzz:
    @settings(max_examples=400, deadline=None)
    @given(fuzzed(tree_text_strategy()))
    def test_valid_tree_or_typed_error(self, text):
        # any other exception fails the test
        try:
            t = parse_tree_text(text)
        except ArborError:
            return
        assert isinstance(t, Tree) and t.n >= 1 and t.edge_count == t.n - 1 and t.is_connected()
        assert build_tree(list(t.edges()), t.n) == t


class TestTextFormat:
    def test_round_trip(self):
        t = double_star(2, 3)
        assert parse_tree_text(format_tree_text(t)).edge_set() == t.edge_set()

    def test_prufer_line(self):
        t = parse_tree_text("4\nP: 1 1\n")
        assert t.edge_set() == star(4).edge_set()

    def test_prufer_line_n2(self):
        t = parse_tree_text("2\nP:\n")
        assert t.edge_set() == {(1, 2)}

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

