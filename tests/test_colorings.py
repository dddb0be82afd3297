import pytest

from arbor.balance import k_balance_report, verify_balanced
from arbor.colorings import KColoring
from arbor.equitable import verify_equitable
from arbor.errors import PartialColoring
from arbor.trees import build_graph, path


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
