import random

import pytest

from arbor.balance import verify_balanced
from arbor.colorings import KColoring
from arbor.equitable import verify_equitable
from arbor.errors import PartialColoring
from arbor.random_trees import prufer_decode
from arbor.trees import Graph, Tree, build_graph, build_tree, path
from test_random_trees import heap_decode


class TestClassSizes:
    def test_counts_each_color(self):
        assert KColoring(3, [0, 2, 2, 1, 3]).class_sizes == (1, 2, 1)
        assert KColoring(2, [0]).class_sizes == (0, 0)

    @pytest.mark.parametrize("color", [0, -1, 4, 7])
    def test_color_outside_range(self, color):
        coloring = KColoring(3, [0, 1, color, 2])
        with pytest.raises(PartialColoring, match=f"vertex 2 has color {color}, outside 1..3"):
            coloring.class_sizes


class TestRepr:
    def test_sizes(self):
        assert repr(KColoring(2, [0, 1, 2, 1])) == "KColoring(k=2, sizes=(2, 1))"

    @pytest.mark.parametrize("assignment", [[0, 7], [0, 0, 1], [0, "red"], [0, [1]]])
    def test_never_raises(self, assignment):
        assert repr(KColoring(3, assignment)).startswith("KColoring(k=3, ")


class TestEquality:
    def test_by_k_and_colors(self):
        assert KColoring(2, [0, 1, 2]) == KColoring(2, [0, 1, 2])
        assert KColoring(2, [0, 1, 2]) != KColoring(3, [0, 1, 2])
        # any other type is left to its own comparison, so a bare list differs
        assert KColoring(2, [0, 1, 2]).__eq__([0, 1, 2]) is NotImplemented
        assert KColoring(2, [0, 1, 2]) != [0, 1, 2]


def tally(g, coloring):
    return coloring.tally(g)


class TestTally:
    def test_sizes_and_monochromatic_edges(self):
        g = build_graph([(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 5)], 5)
        coloring = KColoring(3, [0, 1, 1, 2, 3, 1])
        assert coloring.tally(g) == ((3, 1, 1), (3, 0, 0))
        assert KColoring(2, [0, 2, 2, 2]).tally(path(3)) == ((0, 3), (0, 2))

    @pytest.mark.parametrize("check", [verify_equitable, verify_balanced, tally])
    @pytest.mark.parametrize("color", [0, -1, 3, None])
    def test_color_outside_range_on_every_vertex_colored(self, check, color):
        # every vertex of the graph has an entry, but vertex 2's is none of 1..k
        coloring = KColoring(2, [0, 1, color, 2])
        with pytest.raises(PartialColoring, match="vertex 2 has no valid color"):
            check(path(3), coloring)

    @pytest.mark.parametrize(
        "col",
        [[0, 1, 2], [0, 1, None, 2, 1], [1, 1, None, 2]],
        ids=["too-short", "too-long", "entry-0-set"],
    )
    def test_refuses_list_of_wrong_shape(self, col):
        # the last two count three vertices in 1..2 and would hide uncolored vertex 2
        with pytest.raises(PartialColoring, match=r"vertices 1\.\.3 is a list of 4 colors, entry 0 being 0"):
            KColoring(2, col).tally(path(3))


def loop_tally(g, coloring):
    """Reference tally: one Python loop over the vertices, one over edges()."""
    sizes = [0] * (coloring.k + 1)
    mono = [0] * (coloring.k + 1)
    for v in range(1, g.n + 1):
        sizes[coloring.col[v]] += 1
    for u, v in g.edges():
        if coloring.col[u] == coloring.col[v]:
            mono[coloring.col[u]] += 1
    return tuple(sizes[1:]), tuple(mono[1:])


def tree_codes():
    """300 seeded codes with their n (n = 2, 3, then up to 300)."""
    rng = random.Random(12)
    for i in range(300):
        n = i + 2 if i < 2 else rng.randint(4, 300)
        yield [rng.randint(1, n) for _ in range(n - 2)], n


def in_row_order(g, cls=Graph):
    """g rebuilt with its edges in the order of its rows, (u, v) with u < v
    ascending: a third edge order beside decoding and edge-list order."""
    rows = g.adj
    us = [u for u, row in enumerate(rows) for v in row if u < v]
    vs = [v for u, row in enumerate(rows) for v in row if u < v]
    return cls(g.n, us, vs, g.degree_sequence())


def tree_triples():
    """The decoded tree of each of ``tree_codes()``, each with
    ``build_tree`` on the same edges and the tree with its edges in row
    order."""
    for code, n in tree_codes():
        t = prufer_decode(code, n)
        built = build_tree(list(t.edges()), n)
        yield t, built, in_row_order(built, Tree)


def error_message(g, coloring):
    with pytest.raises(PartialColoring) as exc:
        coloring.tally(g)
    return str(exc.value)


class TestTallyGather:
    """The tally gathers colors over ``edge_ends()``; it must count what a
    loop over the edges counts, on decoded trees, trees built from an edge
    list and trees with their edges in row order."""

    def test_matches_edge_loop(self):
        rng = random.Random(5)
        mono_total = 0
        for decoded, built, ordered in tree_triples():
            n = decoded.n
            for k in range(2, 7):
                coloring = KColoring(k, [0, *(rng.randint(1, k) for _ in range(n))])
                want = loop_tally(built, coloring)
                assert coloring.tally(decoded) == coloring.tally(built) == coloring.tally(ordered) == want, (n, k)
                mono_total += sum(want[1])
        assert mono_total > 0

    def test_same_errors_on_every_tree(self):
        rng = random.Random(6)
        for decoded, built, ordered in tree_triples():
            n = decoded.n
            k = rng.randint(2, 6)
            full = [0, *(rng.randint(1, k) for _ in range(n))]
            v = rng.randint(1, n)
            bad = [
                full + [1] * rng.randint(1, 6),  # vertices the tree lacks
                full[:-1],  # too few entries
                [1, *full[1:]],  # entry 0 set
            ]
            for c in (None, 0, k + 1):  # uncolored, or colored outside 1..k
                bad.append([*full[:v], c, *full[v + 1 :]])
            for col in bad:
                coloring = KColoring(k, col)
                message = error_message(decoded, coloring)
                assert message == error_message(built, coloring) == error_message(ordered, coloring), (n, col)

    def test_edge_ends_are_the_edges(self):
        # each graph with its edges as a set of (u, v), u < v, made without edge_ends()
        rng = random.Random(7)
        cases = []
        for (code, n), (decoded, built, ordered) in zip(tree_codes(), tree_triples()):
            edges = heap_decode(code, n)
            cases += [(decoded, edges), (built, edges), (ordered, edges)]
        cases.append((build_graph([], 4), set()))
        for n in (2, 5, 30):
            pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
            edges = rng.sample(pairs, max(1, len(pairs) // 3))
            g = build_graph([(v, u) for u, v in edges], n)
            cases += [(g, set(edges)), (in_row_order(g), set(edges))]
        for g, edges in cases:
            us, vs = g.edge_ends()
            assert len(us) == len(vs) == len(edges)
            assert {(min(u, v), max(u, v)) for u, v in zip(us, vs)} == edges
            assert sorted(g.edges()) == sorted(edges)
