import random

import pytest

from arbor.balance import k_balance_report, verify_balanced
from arbor.colorings import KColoring
from arbor.equitable import verify_equitable
from arbor.errors import PartialColoring
from arbor.random_trees import prufer_decode
from arbor.trees import Graph, Tree, build_graph, build_tree, path
from test_random_trees import heap_decode


class TestClassSizes:
    def test_counts_each_color(self):
        assert KColoring(3, {1: 2, 2: 2, 3: 1, 4: 3}).class_sizes == (1, 2, 1)
        assert KColoring(2, {}).class_sizes == (0, 0)

    @pytest.mark.parametrize("color", [0, -1, 4, 7])
    def test_color_outside_range(self, color):
        coloring = KColoring(3, {1: 1, 2: color, 3: 2})
        with pytest.raises(PartialColoring, match=f"vertex 2 has color {color}, outside 1..3"):
            coloring.class_sizes


class TestRepr:
    def test_sizes(self):
        assert repr(KColoring(2, {1: 1, 2: 2, 3: 1})) == "KColoring(k=2, sizes=(2, 1))"

    @pytest.mark.parametrize("assignment", [{1: 7}, {1: 0, 2: 1}, {1: "red"}, {1: [1]}])
    def test_never_raises(self, assignment):
        assert repr(KColoring(3, assignment)).startswith("KColoring(k=3, ")


class TestTally:
    def test_sizes_and_monochromatic_edges(self):
        g = build_graph([(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 5)], 5)
        coloring = KColoring(3, {1: 1, 2: 1, 3: 2, 4: 3, 5: 1})
        assert coloring.tally(g) == ((3, 1, 1), (3, 0, 0))
        assert KColoring(2, {1: 2, 2: 2, 3: 2}).tally(path(3)) == ((0, 3), (0, 2))

    @pytest.mark.parametrize("check", [verify_equitable, verify_balanced, k_balance_report])
    @pytest.mark.parametrize("color", [0, -1, 3])
    def test_color_outside_range_on_every_vertex_colored(self, check, color):
        # every vertex of the graph has a color, but vertex 2's is none of 1..k
        coloring = KColoring(2, {1: 1, 2: color, 3: 2})
        with pytest.raises(PartialColoring, match="vertex 2 has no valid color"):
            check(path(3), coloring)

    def test_uncolored_vertex_reported_before_extra_vertex(self):
        with pytest.raises(PartialColoring, match="vertex 2 has no valid color"):
            KColoring(2, {1: 1, 3: 2, 9: 1}).tally(path(3))
        with pytest.raises(PartialColoring, match=r"vertex 9 is not a vertex of the graph \(1..3\)"):
            KColoring(2, {1: 1, 2: 1, 3: 2, 9: 1}).tally(path(3))


def loop_tally(g, coloring):
    """Reference tally: one Python loop over the vertices, one over edges()."""
    sizes = [0] * (coloring.k + 1)
    mono = [0] * (coloring.k + 1)
    for v in range(1, g.n + 1):
        sizes[coloring.assignment[v]] += 1
    for u, v in g.edges():
        if coloring.assignment[u] == coloring.assignment[v]:
            mono[coloring.assignment[u]] += 1
    return tuple(sizes[1:]), tuple(mono[1:])


def tree_codes():
    """300 seeded codes with their n (n = 2, 3, then up to 300)."""
    rng = random.Random(12)
    for i in range(300):
        n = i + 2 if i < 2 else rng.randint(4, 300)
        yield [rng.randint(1, n) for _ in range(n - 2)], n


def tree_triples():
    """The decoded tree of each of ``tree_codes()``, each with
    ``build_tree`` on the same edges and a tree that has only their rows."""
    for code, n in tree_codes():
        t = prufer_decode(code, n)
        built = build_tree(list(t.edges()), n)
        yield t, built, Tree(n, built.adj, n - 1)


def error_message(g, coloring):
    with pytest.raises(PartialColoring) as exc:
        coloring.tally(g)
    return str(exc.value)


class TestTallyGather:
    """The tally gathers colors over ``edge_ends()``; it must count what a
    loop over the edges counts, on decoded trees, trees built from an edge
    list and trees that have only rows."""

    def test_matches_edge_loop(self):
        rng = random.Random(5)
        mono_total = 0
        for decoded, built, rows in tree_triples():
            n = decoded.n
            for k in range(2, 7):
                coloring = KColoring(k, {v: rng.randint(1, k) for v in rng.sample(range(1, n + 1), n)})
                want = loop_tally(built, coloring)
                assert coloring.tally(decoded) == coloring.tally(built) == coloring.tally(rows) == want, (n, k)
                mono_total += sum(want[1])
        assert mono_total > 0

    def test_same_errors_on_every_tree(self):
        rng = random.Random(6)
        for decoded, built, rows in tree_triples():
            n = decoded.n
            k = rng.randint(2, 6)
            full = {v: rng.randint(1, k) for v in range(1, n + 1)}
            v = rng.randint(1, n)
            bad = [
                {u: c for u, c in full.items() if u != v},  # uncolored
                {**full, v: 0},
                {**full, v: k + 1},
                {**full, n + 1 + rng.randint(0, 5): 1},  # a vertex the tree lacks
            ]
            for assignment in bad:
                coloring = KColoring(k, assignment)
                message = error_message(decoded, coloring)
                assert message == error_message(built, coloring) == error_message(rows, coloring), (n, assignment)

    def test_edge_ends_are_the_edges(self):
        # each graph with its edges as a set of (u, v), u < v, made without edge_ends()
        rng = random.Random(7)
        cases = []
        for (code, n), (decoded, built, rows) in zip(tree_codes(), tree_triples()):
            edges = heap_decode(code, n)
            cases += [(decoded, edges), (built, edges), (rows, edges)]
        cases.append((build_graph([], 4), set()))
        for n in (2, 5, 30):
            pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
            edges = rng.sample(pairs, max(1, len(pairs) // 3))
            g = build_graph([(v, u) for u, v in edges], n)
            cases += [(g, set(edges)), (Graph(n, g.adj, g.edge_count), set(edges))]
        for g, edges in cases:
            us, vs = g.edge_ends()
            assert len(us) == len(vs) == len(edges)
            assert {(min(u, v), max(u, v)) for u, v in zip(us, vs)} == edges
            assert sorted(g.edges()) == sorted(edges)
