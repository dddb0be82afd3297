import itertools
import random
import time
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from arbor import balance as balance_module
from arbor.balance import (
    DegreeSequence,
    Partition,
    _best_split_sum,
    _dp_rows,
    _greedy_pairs,
    _split,
    _trace_subset,
    balance_exact,
    brute_force_balanced,
    brute_force_k_balanced,
    greedy_pair_partition,
    is_balanced_graph,
    ones_twos_partition,
    partition_coloring,
    verify_balanced,
)
from arbor.colorings import KColoring
from arbor.errors import HypothesisViolated, InternalInvariant, NotATree, PartialColoring, PreconditionViolated, TooLarge
from arbor.random_trees import enumerate_labeled_trees, enumerate_unlabeled_trees, sample_labeled_tree
from arbor.trees import build_graph, build_tree, complete_graph, double_star, induced_subtree, path, star


def exact_by_enumeration(values):
    """Independent oracle: try every near-equicardinal split."""
    n = len(values)
    total = sum(values)
    best = total
    for size in {n // 2, (n + 1) // 2}:
        for idx in itertools.combinations(range(n), size):
            s = sum(values[i] for i in idx)
            best = min(best, abs(2 * s - total))
    return best


SEQ_EXAMPLES = [
    # ((sequence), expected F); the first is the worked example with
    # F = |(12+1+1+1)-(2+3+3+4)| = 3
    ((1, 3, 12, 2, 1, 1, 4, 3), 3),
    ((5, 5), 0),
    ((1, 2, 3, 4, 5, 6), 1),  # exhaustive enumeration of 3/3 splits
    ((7,), 7),
    ((1, 1), 0),
]


class TestBalanceExact:
    @pytest.mark.parametrize("values,expected", SEQ_EXAMPLES)
    def test_known_values(self, values, expected):
        f, part = balance_exact(values)
        assert f == expected
        assert part.diff == f
        assert part.card_diff <= 1
        assert sorted(part.I + part.J) == list(range(1, len(values) + 1))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 30), min_size=1, max_size=12))
    def test_matches_enumeration_oracle(self, values):
        f, _ = balance_exact(values)
        assert f == exact_by_enumeration(values)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 20), min_size=2, max_size=40).filter(lambda v: len(v) % 2 == 0))
    def test_parity(self, values):
        f, _ = balance_exact(values)
        assert f % 2 == sum(values) % 2

    def test_tree_degree_sequences_have_even_balance(self):
        for trial in range(30):
            t = sample_labeled_tree(20, seed=4, trial=trial)
            f, _ = balance_exact(t.degree_sequence())
            assert f % 2 == 0

    def test_large_sequence_witness(self):
        rng = random.Random(1)
        values = [rng.randrange(1, 50) for _ in range(900)]
        f, part = balance_exact(values)
        assert part.diff == f and part.card_diff <= 1

    def test_degree_sequence_len_and_repr(self):
        seq = DegreeSequence([3, 1, 2, 1])
        assert len(seq) == 4 and repr(seq) == "DegreeSequence([3, 1, 2, 1])"

    def test_shifted_split_matches_unshifted(self):
        # _split runs the DP on the values less their minimum; the DP on the
        # values themselves must give the same F and the same traced indices
        rng = random.Random(8)
        for _ in range(300):
            n = rng.randint(1, 60)
            lo = rng.choice((0, 1, 3, 17, 200))
            values = [rng.randint(lo, lo + rng.choice((0, 2, 9, 40))) for _ in range(n)]
            block = max(2, isqrt(n))
            c = n // 2
            rows, checkpoints = _dp_rows(values, c, block)
            f, s = _best_split_sum(rows[c], sum(values))
            assert _split(values, block) == (f, _trace_subset(values, c, s, checkpoints, block)), values

    def test_far_apart_values(self):
        # the best split sum is found with a few bit operations, not by
        # probing every distance from the middle of a million-bit row
        t0 = time.perf_counter()
        f, part = balance_exact([1, 10**6])
        assert time.perf_counter() - t0 < 1
        assert f == 999_999 and part.diff == f


class CountedShift(int):
    """An item value that counts the DP row updates it takes part in.

    ``prev << item`` with a plain int ``prev`` calls this subclass's reflected
    method first."""

    shifts = 0

    def __rlshift__(self, other):
        CountedShift.shifts += 1
        return int.__rlshift__(self, other)


class TestDpOperationCount:
    def test_only_rows_on_the_witness_path(self):
        rng = random.Random(5)
        n = 400
        items = [CountedShift(rng.randint(3, 39)) for _ in range(n)]
        c_max = n // 2
        block = max(16, isqrt(n))
        CountedShift.shifts = 0
        rows, checkpoints = _dp_rows(items, c_max, block)
        # rows that cannot reach c_max with the items left are skipped
        windows = sum(max(0, min(i + 1, c_max) - max(1, c_max - n + i + 1) + 1) for i in range(n))
        assert CountedShift.shifts <= windows
        f, s = _best_split_sum(rows[c_max], sum(items))
        CountedShift.shifts = 0
        chosen = _trace_subset(items, c_max, s, checkpoints, block)
        # each block replays a window of about block rows, not all c_max
        assert CountedShift.shifts <= n * (block + 2)
        assert len(chosen) == c_max and abs(2 * sum(items[i] for i in chosen) - sum(items)) == f


class TestGreedyPairs:
    def test_symmetric(self):
        assert greedy_pair_partition((1, 1, 2, 2)).diff == 0

    def test_worked_trace(self):
        # pairs from the top: (12,4) -> (3,3) -> (2,1) -> (1,1), sums 17 vs 10
        part = greedy_pair_partition((1, 3, 12, 2, 1, 1, 4, 3))
        assert part.diff == 7
        assert {part.sum_I, part.sum_J} == {17, 10}

    def test_odd_length_pads(self):
        part = greedy_pair_partition((2, 2, 2))
        assert part.diff == 2 and part.card_diff <= 1

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 50), min_size=1, max_size=40))
    def test_bound_and_cardinality(self, values):
        part = greedy_pair_partition(values)
        assert part.diff <= max(values)
        assert part.card_diff <= 1

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 30), min_size=1, max_size=12))
    def test_exact_never_beats_greedy(self, values):
        f, _ = balance_exact(values)
        assert f <= greedy_pair_partition(values).diff


def sequences_with_ones_and_twos(max_m=12, max_extra=25):
    @st.composite
    def build(draw):
        m = draw(st.integers(2, max_m))
        ones = draw(st.integers(m, m + 6))
        twos = draw(st.integers(m, m + 6))
        extra = draw(st.lists(st.integers(1, m), max_size=max_extra))
        values = [1] * ones + [2] * twos + extra + [m]
        rng = random.Random(draw(st.integers(0, 10**6)))
        rng.shuffle(values)
        return values

    return build()


class TestOnesTwos:
    def test_small(self):
        part = ones_twos_partition((1, 1, 1, 2, 2, 2, 3, 3))
        assert part.diff <= 2
        f, _ = balance_exact((1, 1, 1, 2, 2, 2, 3, 3))
        assert f <= 2

    def test_tiny(self):
        assert ones_twos_partition((1, 1, 2, 2)).diff == 0

    def test_hypothesis_violated(self):
        with pytest.raises(HypothesisViolated):
            ones_twos_partition((1, 2, 3))

    @settings(max_examples=300, deadline=None)
    @given(sequences_with_ones_and_twos())
    def test_bound(self, values):
        part = ones_twos_partition(values)
        assert part.diff <= 2
        assert part.card_diff <= 1
        assert sorted(part.I + part.J) == list(range(1, len(values) + 1))

    def test_random_tree_degrees(self):
        hit = 0
        for trial in range(40):
            t = sample_labeled_tree(200, seed=11, trial=trial)
            seq = t.degree_sequence()
            m = max(seq)
            if seq.count(1) >= m and seq.count(2) >= m:
                assert ones_twos_partition(seq).diff <= 2
                if trial % 10 == 0:  # spot-check against the exact optimum
                    f, _ = balance_exact(seq)
                    assert f <= 2
                hit += 1
        assert hit == 40  # at n=200 the hypothesis essentially always holds


class TestGraphBalance:
    def test_k4(self):
        col = is_balanced_graph(complete_graph(4))
        assert col is not None
        assert verify_balanced(complete_graph(4), col).balanced

    @pytest.mark.parametrize("n,expect", [(2, True), (3, True), (4, True), (5, True), (6, False), (7, False)])
    def test_stars(self, n, expect):
        assert (is_balanced_graph(star(n)) is not None) is expect

    @pytest.mark.parametrize("p,q,expect", [(2, 5, True), (2, 6, False), (1, 4, True), (1, 5, False)])
    def test_double_stars(self, p, q, expect):
        assert (is_balanced_graph(double_star(p, q)) is not None) is expect

    def test_no_vertices(self):
        # no graph has no vertices; the fewest induced_subtree leaves is one,
        # whose coloring is balanced, as the oracle agrees
        with pytest.raises(NotATree, match="bad-vertex-id"):
            induced_subtree(path(2), {1, 2})
        lone = induced_subtree(path(2), {1}).graph
        col = is_balanced_graph(lone)
        assert lone.n == 1 and col is not None
        assert verify_balanced(lone, col).balanced and brute_force_balanced(lone)

    def test_verdict_depends_only_on_degrees(self):
        a = build_tree([(1, 2), (2, 3), (3, 4), (4, 5)], 5)
        b = build_tree([(5, 4), (4, 3), (3, 2), (2, 1)], 5)
        assert (is_balanced_graph(a) is None) == (is_balanced_graph(b) is None)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 40), st.integers(0, 2**31))
    def test_certificates_verify(self, n, seed):
        t = sample_labeled_tree(n, seed)
        col = is_balanced_graph(t)
        if col is not None:
            assert verify_balanced(t, col).balanced


class TestVerifyBalanced:
    def test_figure_style_tallies(self):
        # seven vertices colored 4/3 with one edge inside the first class and
        # two inside the second
        g = build_graph([(1, 2), (5, 6), (6, 7), (1, 5), (3, 6), (4, 7)], 7)
        col = KColoring(2, [0, 1, 1, 1, 1, 2, 2, 2])
        rep = verify_balanced(g, col)
        assert (rep.v1, rep.v2) == (4, 3)
        assert (rep.e1, rep.e2) == (1, 2)
        assert rep.balanced

    def test_p2(self):
        rep = verify_balanced(path(2), KColoring(2, [0, 1, 2]))
        assert (rep.v1, rep.v2, rep.e1, rep.e2) == (1, 1, 0, 0) and rep.balanced

    def test_all_one_color_triangle(self):
        rep = verify_balanced(complete_graph(3), KColoring(2, [0, 1, 1, 1]))
        assert (rep.v1, rep.v2) == (3, 0) and not rep.balanced

    def test_partial_coloring(self):
        with pytest.raises(PartialColoring):
            verify_balanced(path(3), KColoring(2, [0, 1, 2, None]))

    def test_refuses_three_colors(self):
        # a k-coloring with k != 2 has no (v1, v2, e1, e2) to report
        with pytest.raises(PreconditionViolated, match="k=3"):
            verify_balanced(path(4), KColoring(3, [0, 3, 3, 1, 2]))

    def test_vertex_outside_graph(self):
        # a color for vertex 4, which path(3) lacks
        extra = KColoring(2, [0, 1, 2, 1, 2])
        with pytest.raises(PartialColoring, match=r"vertices 1\.\.3 is a list of 4 colors"):
            verify_balanced(path(3), extra)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 25), st.integers(0, 2**31), st.data())
    def test_cross_edge_identity(self, n, seed, data):
        # for any 2-coloring, |e1 - e2| is half the degree-sum imbalance
        t = sample_labeled_tree(n, seed)
        col = [0, *(data.draw(st.integers(1, 2)) for _ in range(n))]
        rep = verify_balanced(t, KColoring(2, col))
        d1 = sum(t.degree(v) for v in range(1, n + 1) if col[v] == 1)
        d2 = sum(t.degree(v) for v in range(1, n + 1) if col[v] == 2)
        assert 2 * abs(rep.e1 - rep.e2) == abs(d1 - d2)


class TestBruteForce:
    def test_examples(self):
        assert brute_force_balanced(star(5)) is True
        assert brute_force_balanced(star(6)) is False
        assert brute_force_balanced(path(2)) is True
        # one vertex: the empty side and no edges, found by the general loop
        assert brute_force_balanced(path(1)) is True

    def test_guard(self):
        with pytest.raises(TooLarge):
            brute_force_balanced(build_tree([(i, i + 1) for i in range(1, 25)], 25))

    def test_characterization_on_unlabeled_trees(self):
        # balancedness is equivalent to degree-sequence balance <= 2
        for n in range(2, 13):
            for t in enumerate_unlabeled_trees(n):
                f, _ = balance_exact(t.degree_sequence())
                assert brute_force_balanced(t) == (f <= 2), (n, sorted(t.edges()))

    def test_characterization_on_random_graphs(self):
        rng = random.Random(3)
        for _ in range(120):
            n = rng.randrange(2, 11)
            edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.35]
            g = build_graph(edges, n)
            f, _ = balance_exact(g.degree_sequence())  # may contain zeros
            assert brute_force_balanced(g) == (f <= 2)


def chain_tree(chains, hub_degree=11):
    """Hub vertex 1 with the given pendant chain lengths, padded with leaves
    to reach the target hub degree; degree sequence (1^11, 2^3, 11) for
    chains summing to 3."""
    edges = []
    nxt = 2
    for length in chains:
        prev = 1
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, nxt))
        nxt += 1
    for _ in range(hub_degree - len(chains)):
        edges.append((1, nxt))
        nxt += 1
    return build_tree(edges, nxt - 1)


class TestKBalancedBrute:
    def test_k5(self):
        assert brute_force_k_balanced(complete_graph(5), 4) is not None
        assert brute_force_balanced(complete_graph(5)) is False

    def test_p3_three_colors(self):
        w = brute_force_k_balanced(path(3), 3)
        assert w is not None and sorted(w.class_sizes) == [1, 1, 1]

    def test_guard(self):
        with pytest.raises(TooLarge):
            brute_force_k_balanced(path(20), 3)

    def test_no_vertices(self):
        # no graph has no vertices; the search on one vertex puts it in class 0
        with pytest.raises(NotATree, match="bad-vertex-id"):
            induced_subtree(path(2), {1, 2})
        lone = induced_subtree(path(2), {1}).graph
        w = brute_force_k_balanced(lone, 2)
        assert w.class_sizes == (1, 0) and w.tally(lone) == ((1, 0), (0, 0))

    def test_disconnected_against_enumeration(self):
        # two edges and an isolated vertex: the search starts at 1 and has to
        # pick up 3, 4 and 5 after its walk
        edges = [(1, 2), (3, 4)]
        g = build_graph(edges, 5)
        for k in (2, 3, 4):
            balanced = set()
            for c in itertools.product(range(1, k + 1), repeat=5):
                sizes = [c.count(x) for x in range(1, k + 1)]
                mono = [sum(c[u - 1] == c[v - 1] == x for u, v in edges) for x in range(1, k + 1)]
                if max(sizes) - min(sizes) <= 1 and max(mono) - min(mono) <= 1:
                    balanced.add(c)
            w = brute_force_k_balanced(g, k)
            assert (w is None) == (not balanced)
            assert w is None or tuple(w.col[1:]) in balanced

    def test_witness_is_k_balanced(self):
        g = complete_graph(6)
        w = brute_force_k_balanced(g, 3)
        assert w is not None
        sizes, mono = w.tally(g)
        assert max(sizes) - min(sizes) <= 1 and max(mono) - min(mono) <= 1

    def test_same_degree_sequence_different_verdicts(self):
        # two trees sharing the degree sequence (1^11, 2^3, 11): three short
        # chains admit a 3-balanced coloring, one long chain does not
        good = chain_tree([1, 1, 1])
        bad = chain_tree([3])
        assert sorted(good.degree_sequence()) == sorted(bad.degree_sequence())
        w = brute_force_k_balanced(good, 3)
        assert w is not None
        sizes, mono = w.tally(good)
        assert max(sizes) - min(sizes) <= 1 and max(mono) - min(mono) <= 1
        assert brute_force_k_balanced(bad, 3) is None


class TestPartitionColoring:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 30), st.integers(0, 2**31))
    def test_any_witness_works(self, n, seed):
        # any near-equicardinal partition with degree sums within two gives a
        # balanced coloring, not just the optimal one
        t = sample_labeled_tree(n, seed)
        f, part = balance_exact(t.degree_sequence())
        if f <= 2:
            rep = verify_balanced(t, partition_coloring(part))
            assert rep.balanced


FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def loop_coloring(I, n):
    """The per-vertex coloring loop: class 2 everywhere, then class 1 on I."""
    col = [0, *[2] * n]
    for v in I:
        col[v] = 1
    return col


class TestPartitionSides:
    """``Partition`` keeps side bytes and derives I and J; these are checked
    against the tuples ``compress`` made from the filled side array, and the
    coloring against the per-vertex loop."""

    def seeded_values(self):
        rng = random.Random(15)
        for n in range(1, 80):
            for _ in range(3):
                yield [rng.randint(1, rng.choice((2, 6, 40))) for _ in range(n)]

    def test_greedy_sides_against_compress(self):
        virtual_set = 0
        for values in self.seeded_values():
            n = len(values)
            buckets: dict = {}
            for i, v in enumerate(values):
                buckets.setdefault(v, []).append(i)
            side = bytearray(n + 1)
            sums = _greedy_pairs(sorted(buckets.items()), side)
            ids = range(1, n + 1)
            I, J = tuple(itertools.compress(ids, side)), tuple(itertools.compress(ids, side.translate(FLIP)))
            part = greedy_pair_partition(values)
            assert (part.I, part.J, (part.sum_I, part.sum_J)) == (I, J, sums)
            assert part.card_diff == abs(len(I) - len(J)) <= 1
            col = partition_coloring(part).col
            assert col == loop_coloring(I, n)  # n + 1 entries: the virtual slot is not among them
            virtual_set += side[n]
        assert virtual_set  # some odd length gave the virtual item to I

    def test_ones_twos_and_exact_sides(self):
        rng = random.Random(16)
        for n in range(6, 120):
            m = rng.randint(2, n // 3)
            values = [m] + [1] * m + [2] * m + [rng.randint(1, m) for _ in range(n - 2 * m - 1)]
            rng.shuffle(values)
            for part in (ones_twos_partition(values), balance_exact(values)[1]):
                assert len(part.side) == n and set(part.side) <= {0, 1}  # no virtual slot
                ids = range(1, n + 1)
                assert part.I == tuple(v for v in ids if part.side[v - 1])
                in_i = set(part.I)
                assert part.J == tuple(v for v in ids if v not in in_i)
                assert part.sum_I == sum(values[v - 1] for v in part.I)
                assert part.sum_J == sum(values[v - 1] for v in part.J)
                assert partition_coloring(part).col == loop_coloring(part.I, n)

    def test_equality_and_hash_follow_the_fields(self):
        parts = []
        for values in itertools.islice(self.seeded_values(), 0, None, 7):
            parts += [greedy_pair_partition(values), greedy_pair_partition(values), balance_exact(values)[1]]
        parts.append(Partition(b"\x01\x00", 3, 4))
        parts.append(Partition(b"\x01\x00", 3, 5))
        parts.append(Partition(b"\x00\x01", 3, 4))
        for p, q in itertools.product(parts, repeat=2):
            same = (p.I, p.J, p.sum_I, p.sum_J) == (q.I, q.J, q.sum_I, q.sum_J)
            assert (p == q) is same
            assert not same or hash(p) == hash(q)
        assert len(set(parts)) == len({(p.I, p.J, p.sum_I, p.sum_J) for p in parts})

    def test_repr_names_the_sides(self):
        assert repr(Partition(b"\x00\x01\x01", 5, 1)) == "Partition(I=(2, 3), J=(1,), sum_I=5, sum_J=1)"


class TestBalanceGuards:
    """Each ``InternalInvariant`` guard of the balance constructions, reached
    by making the step before it return a wrong answer."""

    values = list(range(3, 23))  # n > 16, so the memoized short path is not taken

    def test_trace_lost_its_state(self, monkeypatch):
        best = balance_module._best_split_sum
        monkeypatch.setattr(balance_module, "_best_split_sum", lambda row, total: (best(row, total)[0], 10**6))
        with pytest.raises(InternalInvariant, match="lost its state"):
            balance_exact(self.values)

    def test_trace_did_not_empty(self, monkeypatch):
        dp_rows = balance_module._dp_rows

        def every_state_at_the_start(items, c_max, block):
            # the first checkpoint claims every (count, sum) before any item
            rows, checkpoints = dp_rows(items, c_max, block)
            checkpoints[0] = [(1 << 200) - 1] * len(checkpoints[0])
            return rows, checkpoints

        monkeypatch.setattr(balance_module, "_dp_rows", every_state_at_the_start)
        with pytest.raises(InternalInvariant, match="did not empty"):
            balance_exact(self.values)

    def test_empty_dp_row(self, monkeypatch):
        dp_rows = balance_module._dp_rows
        monkeypatch.setattr(balance_module, "_dp_rows", lambda items, c_max, block: ([0] * (c_max + 1), dp_rows(items, c_max, block)[1]))
        with pytest.raises(InternalInvariant, match="empty DP row"):
            balance_exact(self.values)

    def test_witness_misses_the_balance(self, monkeypatch):
        best = balance_module._best_split_sum

        def two_off(row, total):
            f, s = best(row, total)
            return f + 2, s

        monkeypatch.setattr(balance_module, "_best_split_sum", two_off)
        with pytest.raises(InternalInvariant, match="witness does not attain"):
            balance_exact(self.values)

    def test_ones_twos_greedy_bound(self, monkeypatch):
        pairs = balance_module._greedy_pairs

        def heavy_i(buckets, side):
            # a remainder difference of 3m (here m = 3), which the block of
            # m ones and m twos cannot cancel; the block still gives I m
            # indices, so only the greedy-bound half of the guard sees it
            s_i, s_j = pairs(buckets, side)
            return s_i + 9, s_j

        monkeypatch.setattr(balance_module, "_greedy_pairs", heavy_i)
        with pytest.raises(InternalInvariant, match="exceeded its bound"):
            ones_twos_partition((1, 1, 1, 2, 2, 2, 3, 3))

    def test_ones_twos_card_bound(self, monkeypatch):
        pairs = balance_module._greedy_pairs

        def all_to_i(buckets, side):
            sums = pairs(buckets, side)
            side[:] = b"\x01" * len(side)
            return sums

        monkeypatch.setattr(balance_module, "_greedy_pairs", all_to_i)
        with pytest.raises(InternalInvariant, match="exceeded its bound"):
            ones_twos_partition((1, 1, 1, 2, 2, 2, 3, 3))
