"""Vertex colorings shared by the balance and equitable modules."""

from __future__ import annotations

from collections import Counter
from itertools import compress
from operator import eq, itemgetter

from .errors import PartialColoring
from .trees import Graph


class KColoring:
    """Total map vertex -> color in 1..k with cached class sizes."""

    __slots__ = ("k", "assignment")

    def __init__(self, k: int, assignment: dict):
        self.k = k
        self.assignment = assignment

    def color(self, v: int) -> int:
        return self.assignment[v]

    @property
    def class_sizes(self) -> tuple:
        """Number of vertices of each color 1..k; ``PartialColoring`` when a
        vertex has a color outside 1..k."""
        counts = Counter(self.assignment.values())
        colors = range(1, self.k + 1)
        if any(c not in colors for c in counts):
            v, c = next((v, c) for v, c in self.assignment.items() if c not in colors)
            raise PartialColoring(f"vertex {v} has color {c!r}, outside 1..{self.k}")
        return tuple(counts[c] for c in colors)

    def tally(self, g: Graph) -> tuple[tuple, tuple]:
        """(class sizes, monochromatic edge counts) of each color 1..k on g,
        from one pass over the vertices and C-level gathers of the colors at
        both ends of every edge (``g.edge_ends()``).

        Raises ``PartialColoring`` unless exactly the vertices 1..n have
        colors, each in 1..k.
        """
        n, k, assignment = g.n, self.k, self.assignment
        col = [0, *map(assignment.get, range(1, n + 1))]
        colors = range(1, k + 1)
        sizes = tuple(map(col.count, colors))
        if sum(sizes) != n:  # a vertex whose color is none of 1..k
            v = next(v for v in range(1, n + 1) if col[v] not in colors)
            raise PartialColoring(f"vertex {v} has no valid color")
        if len(assignment) != n:
            extra = next(v for v in assignment if v not in range(1, n + 1))
            raise PartialColoring(f"vertex {extra} is not a vertex of the graph (1..{n})")
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
        return self.k == other.k and self.assignment == other.assignment

    def __repr__(self) -> str:
        try:
            sizes = self.class_sizes
        except (PartialColoring, TypeError):  # a color outside 1..k, or unhashable
            return f"KColoring(k={self.k}, {len(self.assignment)} vertices, not all colored in 1..{self.k})"
        return f"KColoring(k={self.k}, sizes={sizes})"
