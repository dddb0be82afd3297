import pytest

from arbor.colorings import KColoring
from arbor.errors import PartialColoring


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
