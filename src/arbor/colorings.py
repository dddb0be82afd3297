"""Vertex colorings shared by the balance and equitable modules."""

from __future__ import annotations

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
        sizes = [0] * self.k
        for c in self.assignment.values():
            sizes[c - 1] += 1
        return tuple(sizes)

    def require_total(self, g: Graph) -> None:
        """Refuse unless exactly the vertices 1..n have colors, each in 1..k."""
        for v in range(1, g.n + 1):
            c = self.assignment.get(v)
            if c is None or not (1 <= c <= self.k):
                raise PartialColoring(f"vertex {v} has no valid color")
        if len(self.assignment) != g.n:
            extra = next(v for v in self.assignment if v not in range(1, g.n + 1))
            raise PartialColoring(f"vertex {extra} is not a vertex of the graph (1..{g.n})")

    def __eq__(self, other) -> bool:
        if not isinstance(other, KColoring):
            return NotImplemented
        return self.k == other.k and self.assignment == other.assignment

    def __repr__(self) -> str:
        return f"KColoring(k={self.k}, sizes={self.class_sizes})"
