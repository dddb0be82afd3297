"""Vertex colorings shared by the balance and equitable modules."""

from __future__ import annotations

from itertools import compress
from operator import eq, itemgetter

from .errors import PartialColoring
from .trees import Graph


class KColoring:
    """Vertex coloring with colors 1..k: ``col[v]`` is the color of vertex v,
    and ``col[0]`` is 0 and unused, as ``Graph.adj[0]`` is."""

    __slots__ = ("k", "col")

    def __init__(self, k: int, col: list):
        self.k = k
        self.col = col

    def color(self, v: int) -> int:
        return self.col[v]

    @property
    def class_sizes(self) -> tuple:
        """Number of vertices of each color 1..k; ``PartialColoring`` when a
        vertex has a color outside 1..k."""
        col, colors = self.col, range(1, self.k + 1)
        for v in range(1, len(col)):
            if col[v] not in colors:
                raise PartialColoring(f"vertex {v} has color {col[v]!r}, outside 1..{self.k}")
        return tuple(map(col.count, colors))

    def tally(self, g: Graph) -> tuple[tuple, tuple]:
        """(class sizes, monochromatic edge counts) of each color 1..k on g,
        from C-level counts over ``col`` and C-level gathers of the colors at
        both ends of every edge (``g.edge_ends()``).

        Raises ``PartialColoring`` unless ``col`` has one entry per vertex
        1..n of g after entry 0, which is 0, and each of those is in 1..k.
        """
        n, k, col = g.n, self.k, self.col
        if len(col) != n + 1 or col[0] != 0:  # either would hide a bad vertex from col.count
            raise PartialColoring(f"a coloring of vertices 1..{n} is a list of {n + 1} colors, entry 0 being 0")
        colors = range(1, k + 1)
        sizes = tuple(map(col.count, colors))
        if sum(sizes) != n:  # a vertex whose color is none of 1..k
            v = next(v for v in range(1, n + 1) if col[v] not in colors)
            raise PartialColoring(f"vertex {v} has no valid color")
        us, vs = g.edge_ends()
        if len(us) > 1:
            cu, cv = itemgetter(*us)(col), itemgetter(*vs)(col)
        else:  # itemgetter of one index returns a bare item, of none fails
            cu, cv = [col[u] for u in us], [col[v] for v in vs]
        mono = list(compress(cu, map(eq, cu, cv)))  # the color of each monochromatic edge
        return sizes, tuple(map(mono.count, colors))

    def __eq__(self, other) -> bool:
        if not isinstance(other, KColoring):
            return NotImplemented
        return self.k == other.k and self.col == other.col

    def __repr__(self) -> str:
        try:
            sizes = self.class_sizes
        except PartialColoring:
            return f"KColoring(k={self.k}, {len(self.col) - 1} vertices, not all colored in 1..{self.k})"
        return f"KColoring(k={self.k}, sizes={sizes})"
