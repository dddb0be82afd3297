"""Balance of integer sequences and balanced 2-colorings of graphs.

The balance of a sequence is the minimum of |sum(I) - sum(J)| over all
partitions of the index set into near-equicardinal halves.  A graph admits
a 2-coloring with vertex classes and monochromatic edge counts each within
one of each other exactly when the balance of its degree sequence is at
most two, so everything here reduces to arithmetic on degree sequences.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from math import isqrt
from typing import Iterable, Optional, Sequence

from .colorings import KColoring
from .errors import BadArgument, HypothesisViolated, InternalInvariant, PreconditionViolated, TooLarge
from .trees import Graph

BRUTE_FORCE_VERTEX_LIMIT = 24
# Bits of DP state, n // 2 + 1 rows of sum + 1 bits, that balance_exact will
# allocate; the checkpoints hold up to about sqrt(n) / 5 times as much again.
BALANCE_DP_BIT_LIMIT = 1 << 28
K_BRUTE_DEFAULT_LIMIT = 3**15


class DegreeSequence:
    """Sequence of positive integers."""

    __slots__ = ("values",)

    def __init__(self, values: Iterable[int]):
        vals = tuple(int(v) for v in values)
        if not vals:
            raise BadArgument("empty sequence")
        if any(v < 1 for v in vals):
            raise BadArgument("values must be positive")
        self.values = vals

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return f"DegreeSequence({list(self.values)})"


class _Degrees(tuple):
    """A graph's own degree list, which holds non-negative ints by
    construction; ``_values_of`` returns it without converting or checking."""

    __slots__ = ()


def _values_of(seq) -> tuple:
    """Plain non-negative value tuple from a DegreeSequence or any iterable.

    The balance of a sequence is defined for non-negative integers, so zeros
    (isolated vertices) are accepted here even though DegreeSequence itself
    models positive degree lists.
    """
    if isinstance(seq, DegreeSequence):
        return seq.values
    if type(seq) is _Degrees:
        return seq
    vals = tuple(map(int, seq))
    if not vals:
        raise BadArgument("empty sequence")
    if min(vals) < 0:
        raise BadArgument("values must be non-negative")
    return vals


_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")
_COLOR = bytes.maketrans(b"\x00\x01", b"\x02\x01")  # I is color class 1, J class 2


@dataclass(frozen=True)
class Partition:
    """Split of indices 1..n into I and J with the side sums, held as side
    bytes: ``side[i]`` is 1 when index i + 1 is in I and 0 when it is in J.

    The ascending tuples ``I`` and ``J`` are derived on first read and kept.
    Equality and hashing go by the side bytes and the sums, which fix I and J.
    """

    side: bytes
    sum_I: int
    sum_J: int

    @functools.cached_property
    def I(self) -> tuple:
        return tuple(compress(range(1, len(self.side) + 1), self.side))

    @functools.cached_property
    def J(self) -> tuple:
        return tuple(compress(range(1, len(self.side) + 1), self.side.translate(_FLIP)))

    @property
    def diff(self) -> int:
        return abs(self.sum_I - self.sum_J)

    @property
    def card_diff(self) -> int:
        return abs(2 * self.side.count(1) - len(self.side))

    def __repr__(self) -> str:
        return f"Partition(I={self.I}, J={self.J}, sum_I={self.sum_I}, sum_J={self.sum_J})"


@dataclass(frozen=True)
class BalanceReport:
    v1: int
    v2: int
    e1: int
    e2: int
    cross: int
    balanced: bool


# ---------------------------------------------------------------------------
# Exact balance via subset-sum DP over (chosen count, chosen sum) states.
# Rows are big-int bitsets (bit s of rows[c] marks an achievable c-subset of
# sum s); the witness is recovered by re-running blocks between checkpoints
# (Hirschberg, CACM 1975), which keeps memory near sqrt(n) row snapshots.
# Both passes skip the rows from which the witness path cannot reach c_max.


def _push(rows: list, a: int, hi: int, stop: int, lo: int = 0) -> None:
    """Add an item of value a to rows hi down to stop + 1 (row c is rows[c - lo])."""
    for c in range(hi - lo, stop - lo, -1):
        prev = rows[c - 1]
        if prev:
            rows[c] |= prev << a


def _dp_rows(items: Sequence[int], c_max: int, block: int):
    n = len(items)
    rows = [0] * (c_max + 1)
    rows[0] = 1
    checkpoints = []
    for i, a in enumerate(items):
        if i % block == 0:
            checkpoints.append(list(rows))
        # Row c still reaches c_max with the n - i - 1 items left only when
        # c > c_max - n + i; lower rows go stale and nothing reads them.
        _push(rows, a, min(i + 1, c_max), max(0, c_max - n + i))
    return rows, checkpoints


def _trace_subset(items: Sequence[int], c_target: int, s_target: int, checkpoints, block: int) -> list[int]:
    chosen = []
    c, s = c_target, s_target
    n = len(items)
    for b in reversed(range(len(checkpoints))):
        start = b * block
        end = min(n, start + block)
        # Walking back, the traced count falls from top (its value at end) by
        # at most one per item, so the block replays the forward pass with
        # top for c_max and end for n.  Rows at or below top - end + i go
        # stale after item i, and the trace never reads them: it reads rows
        # c - 1 and c there, with c >= top - (end - 1 - i).  Only rows
        # lo..top of the checkpoint are used, and they are exact because the
        # count can still reach c_target from them, the forward pass's rule.
        top = c
        lo = max(0, top - (end - start))
        rows = checkpoints[b][lo : top + 1]
        before = []
        for i in range(start, end):
            before.append(list(rows))
            _push(rows, items[i], min(i + 1, top), max(0, top - end + i), lo)
        for i in reversed(range(start, end)):
            prev_rows = before[i - start]
            a = items[i]
            if c >= 1 and s >= a and (prev_rows[c - 1 - lo] >> (s - a)) & 1:
                chosen.append(i)
                c -= 1
                s -= a
            elif not (prev_rows[c - lo] >> s) & 1:
                raise InternalInvariant("balance DP trace lost its state")
    if c != 0 or s != 0:
        raise InternalInvariant("balance DP trace did not empty")
    chosen.reverse()
    return chosen


def _best_split_sum(row: int, total: int) -> tuple[int, int]:
    """Smallest |2s - total| over set bits s of row, with a witnessing s: the
    highest set bit <= total // 2 or the lowest >= ceil(total / 2), the low
    one on a tie."""
    up = (total + 1) // 2
    low = row & ((2 << (total // 2)) - 1)
    high = row >> up
    if not low and not high:
        raise InternalInvariant("empty DP row")
    s_lo = low.bit_length() - 1
    s_hi = up + (high & -high).bit_length() - 1
    if not high or (low and total - 2 * s_lo <= 2 * s_hi - total):
        return total - 2 * s_lo, s_lo
    return 2 * s_hi - total, s_hi


def _split(values: Sequence[int], block: int) -> tuple[int, list]:
    """(F, traced indices of a floor(n/2)-subset attaining F).

    The DP runs on the values less their minimum ``low``, so bit s of row c
    marks a c-subset of sum s + c * low: the same states as on the values
    themselves, in rows c * low bits shorter, and the same trace.
    """
    c_target = len(values) // 2
    low = min(values)
    items = [v - low for v in values] if low else values
    rows, checkpoints = _dp_rows(items, c_target, block)
    f, s_star = _best_split_sum(rows[c_target], sum(values) - 2 * c_target * low)
    return f, _trace_subset(items, c_target, s_star, checkpoints, block)


@functools.lru_cache(maxsize=1 << 14)
def _small_split(values: tuple) -> tuple[int, tuple]:
    """Memoized ``_split`` for short sequences, with each traced value taken
    at its lowest indices instead."""
    f, idx = _split(values, len(values))
    want = Counter(values[i] for i in idx)
    chosen = []
    for i, v in enumerate(values):
        if want[v]:
            want[v] -= 1
            chosen.append(i)
    return f, tuple(chosen)


def balance_exact(seq: DegreeSequence | Sequence[int]) -> tuple[int, Partition]:
    """Exact balance F with a witnessing partition (1-based index sets).

    I is the traced side of floor(n/2) indices; J is its complement.
    """
    values = _values_of(seq)
    n = len(values)
    total = sum(values)
    c_target = n // 2
    if (c_target + 1) * (total + 1) > BALANCE_DP_BIT_LIMIT:
        raise TooLarge(f"balance DP needs {c_target + 1} rows of {total + 1} bits; limit {BALANCE_DP_BIT_LIMIT}")
    f, chosen = _small_split(values) if n <= 16 else _split(values, max(16, isqrt(n)))
    side = bytearray(n)
    for i in chosen:
        side[i] = 1
    sum_i = sum(map(values.__getitem__, chosen))
    part = Partition(bytes(side), sum_i, total - sum_i)
    if part.diff != f:
        raise InternalInvariant("witness does not attain the computed balance")
    return f, part


# ---------------------------------------------------------------------------
# Constructive bounds.


def _greedy_pairs(buckets, side: bytearray) -> tuple[int, int]:
    """Pairing construction: sort ascending, walk pairs from the top, give the
    smaller element of each pair to the side whose running sum is larger
    (ties send the larger element to I).

    ``buckets`` lists (value, ascending indices) by ascending value, so their
    concatenation is the (value, index) order; a virtual item of value 0 and
    index ``len(side) - 1`` goes first when the count is odd, so that last
    byte is no index's and the caller drops it.  Sets ``side[i] = 1`` for
    every index given to I and returns the two sums.
    Both sums grow alike over the pairs of one value, so such a run of pairs
    all goes the same way; only a pair that straddles two values is decided
    on its own.
    """
    order: list = []
    runs = []  # (value, position in order of the run's first index)
    if sum(len(ix) for _, ix in buckets) % 2 == 1:
        order.append(len(side) - 1)
        runs.append((0, 0))
    for v, ix in buckets:
        if ix:
            runs.append((v, len(order)))
            order.extend(ix)
    s_i = s_j = 0
    hi = len(order)  # positions hi and up are dealt out; pairs are (2j, 2j + 1)
    for r in range(len(runs) - 1, -1, -1):
        v, start = runs[r]
        lo = start + (start & 1)
        if hi > lo:
            for i in order[lo:hi:2] if s_i > s_j else order[lo + 1 : hi : 2]:
                side[i] = 1
            s_i += (hi - lo) // 2 * v
            s_j += (hi - lo) // 2 * v
            hi = lo
        if start & 1:  # the pair (start - 1, start) straddles runs r - 1 and r
            below = runs[r - 1][0]
            if s_i > s_j:
                side[order[start - 1]] = 1
                s_i += below
                s_j += v
            else:
                side[order[start]] = 1
                s_i += v
                s_j += below
            hi = start - 1
    return s_i, s_j


def greedy_pair_partition(seq: DegreeSequence | Sequence[int]) -> Partition:
    """Near-equicardinal partition with |sum(I) - sum(J)| <= max(seq)."""
    values = _values_of(seq)
    buckets: dict[int, list[int]] = {}
    for i, v in enumerate(values):
        buckets.setdefault(v, []).append(i)
    side = bytearray(len(values) + 1)
    s_i, s_j = _greedy_pairs(sorted(buckets.items()), side)
    del side[-1]
    return Partition(bytes(side), s_i, s_j)


def ones_twos_partition(seq: DegreeSequence | Sequence[int]) -> Partition:
    """Partition with |sum(I) - sum(J)| <= 2, given enough ones and twos.

    Requires at least max(seq) ones and max(seq) twos.  The reserved block of
    max(seq) ones and twos (the first by index) is split half/half per side,
    with the number of twos sent to the lighter side chosen so the block
    imbalance cancels the greedy remainder difference up to parity.
    """
    values = _values_of(seq)
    n = len(values)
    m = max(values)
    ones_total = values.count(1)
    twos_total = values.count(2)
    if ones_total < m or twos_total < m:
        raise HypothesisViolated(
            f"need at least max={m} ones and twos; have {ones_total} and {twos_total}"
        )
    buckets: list = [[] for _ in range(max(m, 2) + 1)]  # m <= n / 2
    for i, v in enumerate(values):
        buckets[v].append(i)
    ones, twos = buckets[1], buckets[2]
    rest = list(enumerate(buckets))
    rest[1] = (1, ones[m:])
    rest[2] = (2, twos[m:])
    side = bytearray(n + 1)
    s_i, s_j = _greedy_pairs(rest, side)
    d = s_i - s_j
    t = (m + abs(d)) // 2  # twos handed to the lighter side
    light_sum = 2 * t + (m - t)
    heavy_sum = 3 * m - light_sum
    if d < 0:  # I is the lighter side
        to_i = twos[:t] + ones[: m - t]
        s_i += light_sum
        s_j += heavy_sum
    else:
        to_i = twos[t:m] + ones[m - t : m]
        s_i += heavy_sum
        s_j += light_sum
    for i in to_i:
        side[i] = 1
    del side[-1]
    part = Partition(bytes(side), s_i, s_j)
    # The block sums added above are those of the indices given out only when
    # t <= m, that is |d| <= m + 1 (the greedy bound gives |d| <= m); for any
    # d they leave |s_i - s_j| <= 1, so the sums themselves need no check.
    if t > m or part.card_diff > 1:
        raise InternalInvariant("ones/twos construction exceeded its bound")
    return part


# ---------------------------------------------------------------------------
# Graph-level balance.


def partition_coloring(part: Partition) -> KColoring:
    """Color class 1 = I, class 2 = J (every vertex not in I)."""
    return KColoring(2, list(b"\0" + part.side.translate(_COLOR)))


def is_balanced_graph(g: Graph) -> Optional[KColoring]:
    """A balanced 2-coloring when one exists, else None.

    Balancedness depends only on the degree sequence: any partition with
    near-equal cardinalities and degree sums within two yields a balanced
    coloring.  When the sequence has enough ones and twos the constructive
    partition is used directly; otherwise the exact DP decides.
    """
    degrees = _Degrees(g._degrees)
    m = g.max_degree
    if m >= 1 and degrees.count(1) >= m and degrees.count(2) >= m:
        return partition_coloring(ones_twos_partition(degrees))
    f, part = balance_exact(degrees)
    if f > 2:
        return None
    return partition_coloring(part)


def verify_balanced(g: Graph, coloring: KColoring) -> BalanceReport:
    """Exact class/edge tallies for a 2-coloring."""
    if coloring.k != 2:
        raise PreconditionViolated(f"verify_balanced takes a 2-coloring, not k={coloring.k}")
    (v1, v2), (e1, e2) = coloring.tally(g)
    balanced = abs(v1 - v2) <= 1 and abs(e1 - e2) <= 1
    return BalanceReport(v1, v2, e1, e2, g.edge_count - e1 - e2, balanced)


def brute_force_balanced(g: Graph) -> bool:
    """Independent oracle: enumerate all near-equal vertex bipartitions."""
    n = g.n
    if n > BRUTE_FORCE_VERTEX_LIMIT:
        raise TooLarge(f"n={n} exceeds brute-force limit {BRUTE_FORCE_VERTEX_LIMIT}")
    edge_masks = [(1 << (u - 1)) | (1 << (v - 1)) for u, v in g.edges()]
    for subset in itertools.combinations(range(n), n // 2):
        mask = 0
        for b in subset:
            mask |= 1 << b
        e1 = e2 = 0
        for em in edge_masks:
            inside = em & mask
            if inside == em:
                e1 += 1
            elif inside == 0:
                e2 += 1
        if abs(e1 - e2) <= 1:
            return True
    return False


def brute_force_k_balanced(g: Graph, k: int, limit: int = K_BRUTE_DEFAULT_LIMIT) -> Optional[KColoring]:
    """Witness k-balanced coloring by pruned exhaustive search, or None.

    Prunes on class-size caps, on the class-size deficit still to fill, and
    on monochromatic-edge spread that no completion could repair.  Colors are
    introduced in canonical (first-use) order, which is sound because classes
    are interchangeable.
    """
    n = g.n
    if k < 2:
        raise BadArgument("k must be at least 2")
    if k**n > limit:
        raise TooLarge(f"{k}^{n} exceeds search limit {limit}")
    cap_hi = -(-n // k)
    q_lo = n // k
    start = max(range(1, n + 1), key=lambda v: (len(g.adj[v]), -v))
    order = []
    seen = bytearray(n + 1)
    stack = [start]
    seen[start] = 1
    while stack:
        u = stack.pop()
        order.append(u)
        for w in g.adj[u]:
            if not seen[w]:
                seen[w] = 1
                stack.append(w)
    for v in range(1, n + 1):  # disconnected inputs
        if not seen[v]:
            order.append(v)
            seen[v] = 1
    pos = {v: i for i, v in enumerate(order)}
    nbrs_before = [[w for w in g.adj[v] if pos[w] < pos[v]] for v in order]
    total_edges = g.edge_count
    col = [0] * (n + 1)
    sizes = [0] * (k + 1)
    mono = [0] * (k + 1)

    def dfs(i: int, used: int, edges_done: int) -> bool:
        if i == n:
            return max(mono[1 : k + 1]) - min(mono[1 : k + 1]) <= 1
        v = order[i]
        before = nbrs_before[i]
        remaining_edges = total_edges - edges_done - len(before)
        for c in range(1, min(used + 1, k) + 1):
            if sizes[c] == cap_hi:
                continue
            sizes[c] += 1
            deficit = sum(q_lo - sizes[x] for x in range(1, k + 1) if sizes[x] < q_lo)
            if deficit > n - i - 1:
                sizes[c] -= 1
                continue
            add = sum(1 for w in before if col[w] == c)
            mono[c] += add
            if max(mono[1 : k + 1]) - min(mono[1 : k + 1]) <= 1 + remaining_edges:
                col[v] = c
                if dfs(i + 1, max(used, c), edges_done + len(before)):
                    return True
                col[v] = 0
            mono[c] -= add
            sizes[c] -= 1
        return False

    if dfs(0, 0, 0):
        return KColoring(k, col)
    return None

