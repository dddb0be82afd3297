import heapq
import itertools
import math
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from arbor.balance import is_balanced_graph, verify_balanced
from arbor.errors import BadEntry, TooLarge
from arbor.random_trees import (
    canonical_form,
    enumerate_labeled_trees,
    enumerate_unlabeled_trees,
    prufer_decode,
    prufer_encode,
    random_prufer,
    sample_labeled_tree,
    stats_from_prufer,
    tree_stats,
    trial_code,
    trial_rng,
)
from arbor.trees import Graph, build_tree, format_tree_text, is_path_graph, path, star


class TestDecode:
    def test_empty_code(self):
        assert set(prufer_decode([], 2).edges()) == {(1, 2)}

    def test_star_code(self):
        assert set(prufer_decode([1, 1], 4).edges()) == set(star(4).edges())

    def test_bad_entry(self):
        with pytest.raises(BadEntry):
            prufer_decode([5], 3)
        with pytest.raises(BadEntry):
            prufer_decode([1, 2], 3)


def heap_decode(entries, n):
    """Edges of the tree with this code, by the textbook leaf-heap decode."""
    deg = [1] * (n + 1)
    for a in entries:
        deg[a] += 1
    leaves = [v for v in range(1, n + 1) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = set()
    for a in entries:
        v = heapq.heappop(leaves)
        edges.add((min(v, a), max(v, a)))
        deg[a] -= 1
        if deg[a] == 1:
            heapq.heappush(leaves, a)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.add((min(u, v), max(u, v)))
    return edges


class TestDecodeExhaustive:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_every_code(self, n):
        for code in itertools.product(range(1, n + 1), repeat=n - 2):
            code = list(code)
            t = prufer_decode(code, n)
            assert set(t.edges()) == heap_decode(code, n), code
            assert prufer_encode(t) == code
            assert len(t.adj) == n + 1 and t.adj[0] == ()
            assert all(type(row) is tuple and list(row) == sorted(row) for row in t.adj)
            assert t.edge_count == n - 1
            assert t.max_degree == max(len(row) for row in t.adj) == 1 + max(map(code.count, range(1, n + 1)))

    def test_entry_out_of_range_is_named(self):
        with pytest.raises(BadEntry, match="entry 0 outside"):
            prufer_decode([2, 0, 9], 5)


def rows_built(t):
    """Whether t's ``adj`` slot is set, read without the build on access."""
    try:
        Graph.adj.__get__(t, type(t))
    except AttributeError:
        return False
    return True


def lazy_codes():
    """Every code with n <= 7, then seeded codes up to n = 2000 (stars,
    paths and random codes)."""
    for n in range(2, 8):
        for code in itertools.product(range(1, n + 1), repeat=n - 2):
            yield list(code), n
    rng = random.Random(7)
    for n in (8, 9, 50, 401, 2000):
        yield [1] * (n - 2), n
        yield [n] * (n - 2), n
        yield list(range(2, n)), n
        yield list(range(n - 1, 1, -1)), n
    for _ in range(120):
        n = rng.randint(8, 2000)
        yield [rng.randint(1, rng.choice((3, n))) for _ in range(n - 2)], n


class TestLazyDecodedTree:
    """A decoded tree builds its rows on first access of ``adj`` and must
    then be indistinguishable from ``build_tree`` on the same edges."""

    def test_matches_built_tree(self):
        for code, n in lazy_codes():
            t = prufer_decode(code, n)
            ref = build_tree(list(t.edges()), n)
            assert sorted(t.edges()) == sorted(ref.edges()), code
            assert t.degree_sequence() == ref.degree_sequence()
            assert t.max_degree == ref.max_degree
            assert is_path_graph(t) == is_path_graph(ref)
            assert format_tree_text(t) == format_tree_text(ref)
            assert not rows_built(t)
            assert t.adj and rows_built(t)
            assert t.adj == ref.adj and all(type(row) is tuple for row in t.adj)
            assert t == ref and hash(t) == hash(ref)
            assert prufer_encode(t) == code
            fresh = prufer_decode(code, n)
            back = pickle.loads(pickle.dumps(fresh))
            assert back == ref and back.degree_sequence() == ref.degree_sequence()
            assert sorted(back.edges()) == sorted(ref.edges())

    def test_pickle_keeps_rows_unbuilt(self):
        for code, n in ([4, 4, 1, 5], 6), ([1] * 48, 50), (list(range(2, 401)), 401):
            t = prufer_decode(code, n)
            data = pickle.dumps(t)
            assert not rows_built(t)
            back = pickle.loads(data)
            assert not rows_built(back)
            assert back == build_tree(list(t.edges()), n)

    def test_rows_built_once(self):
        t = prufer_decode([4, 4, 1, 5], 6)
        assert t.adj is t.adj

    def test_balance_leaves_rows_unbuilt(self):
        # random trees (most take the ones/twos shortcut) and stars (which
        # the exact DP finds unbalanced from n = 6 on)
        trees = [sample_labeled_tree(5 + trial % 60, 2014, trial) for trial in range(200)]
        trees += [prufer_decode([1] * (n - 2), n) for n in range(3, 30)]
        balanced = set()
        for t in trees:
            coloring = is_balanced_graph(t)
            if coloring is not None:
                assert verify_balanced(t, coloring).balanced
            balanced.add(coloring is not None)
            assert not rows_built(t), t.degree_sequence()
        assert balanced == {False, True}


class TestEncode:
    def test_path3(self):
        assert prufer_encode(path(3)) == [2]

    def test_star4(self):
        assert prufer_encode(star(4)) == [1, 1]

    def test_p2(self):
        assert prufer_encode(path(2)) == []


class TestBijection:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(2, 60).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.integers(1, n), min_size=n - 2, max_size=n - 2))))
    def test_encode_decode_identity(self, pair):
        n, entries = pair
        assert prufer_encode(prufer_decode(entries, n)) == entries

    @settings(max_examples=120, deadline=None)
    @given(st.integers(2, 60), st.integers(0, 2**32 - 1))
    def test_decode_encode_identity(self, n, seed):
        t = sample_labeled_tree(n, seed)
        t2 = prufer_decode(prufer_encode(t), n)
        assert set(t2.edges()) == set(t.edges())

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 60), st.integers(0, 2**32 - 1))
    def test_degree_law(self, n, seed):
        entries = random_prufer(n, trial_rng(seed))
        t = prufer_decode(entries, n)
        for v in range(1, n + 1):
            assert t.degree(v) == entries.count(v) + 1


class TestEnumeration:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_cayley_count(self, n):
        assert sum(1 for _ in enumerate_labeled_trees(n)) == n ** (n - 2)

    def test_guard(self):
        with pytest.raises(TooLarge):
            next(enumerate_labeled_trees(9))

    def test_distinct(self):
        seen = {frozenset(t.edges()) for t in enumerate_labeled_trees(5)}
        assert len(seen) == 125


class TestSampling:
    def test_n2_unique(self):
        assert set(sample_labeled_tree(2, 1).edges()) == {(1, 2)}

    def test_deterministic(self):
        a = sample_labeled_tree(30, seed=5, trial=17)
        b = sample_labeled_tree(30, seed=5, trial=17)
        assert set(a.edges()) == set(b.edges())

    def test_trial_streams_differ(self):
        a = sample_labeled_tree(30, seed=5, trial=0)
        b = sample_labeled_tree(30, seed=5, trial=1)
        assert set(a.edges()) != set(b.edges())  # astronomically unlikely to collide

    def test_uniform_over_n4(self):
        # 16 labeled trees on 4 vertices; chi-square style bound at 4 sigma
        trials = 16000
        counts = {}
        for i in range(trials):
            key = tuple(sorted(sample_labeled_tree(4, seed=99, trial=i).edges()))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 16
        expected = trials / 16
        sigma = math.sqrt(trials * (1 / 16) * (15 / 16))
        for key, c in counts.items():
            assert abs(c - expected) <= 4 * sigma, (key, c)


class TestTrialCode:
    """``trial_code`` resets one shared generator per call; each call must
    draw exactly what a fresh ``trial_rng`` generator draws."""

    def test_matches_fresh_generator(self):
        cases = [
            (n, seed, trial)
            for n in (2, 3, 4, 200, 2000)
            for seed in (0, 1, 2**63, 2**64 + 5, -1)
            for trial in range(51)
        ]
        # shuffled, so state one call leaves behind would reach a different
        # (n, seed, trial) than in a sorted run
        random.Random(9).shuffle(cases)
        for n, seed, trial in cases:
            assert trial_code(n, seed, trial) == random_prufer(n, trial_rng(seed, trial)), (n, seed, trial)

    def test_leaves_other_generators_alone(self):
        before, untouched = trial_rng(7, 3), trial_rng(7, 3)
        head = before.integers(1, 100, size=5).tolist()
        trial_code(200, 7, 3)
        trial_code(50, 8, 0)
        assert head + before.integers(1, 100, size=50).tolist() == untouched.integers(1, 100, size=55).tolist()

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_refuses_n_below_two(self, n):
        with pytest.raises(BadEntry, match="need n >= 2"):
            trial_code(n, 0, 0)
        with pytest.raises(BadEntry, match="need n >= 2"):
            random_prufer(n, trial_rng(0))


class TestStats:
    def test_star6(self):
        s = tree_stats(star(6))
        assert (s.max_degree, s.x1, s.x2) == (5, 5, 0)

    def test_path6(self):
        s = tree_stats(path(6))
        assert (s.max_degree, s.x1, s.x2) == (2, 2, 4)

    def test_decoded_star(self):
        s = tree_stats(prufer_decode([1, 1], 4))
        assert (s.max_degree, s.x1, s.x2) == (3, 3, 0)

    def test_single_vertex(self):
        s = tree_stats(build_tree([], 1))
        assert (s.max_degree, s.x1, s.x2) == (0, 0, 0)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 80), st.integers(0, 2**32 - 1))
    def test_stats_from_code_agree(self, n, seed):
        entries = random_prufer(n, trial_rng(seed))
        t = prufer_decode(entries, n)
        assert stats_from_prufer(entries, n) == tree_stats(t)
        assert not rows_built(t)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 80), st.integers(0, 2**32 - 1))
    def test_degree_count_identity(self, n, seed):
        t = sample_labeled_tree(n, seed)
        hist = {}
        for v in range(1, n + 1):
            hist[t.degree(v)] = hist.get(t.degree(v), 0) + 1
        assert sum(d * c for d, c in hist.items()) == 2 * n - 2
        assert tree_stats(t).x1 >= 2


class TestCanonicalForms:
    def test_isomorphic_paths(self):
        a = build_tree([(1, 2), (2, 3), (3, 4)], 4)
        b = build_tree([(3, 1), (1, 4), (4, 2)], 4)
        assert canonical_form(a) == canonical_form(b)

    def test_distinguishes_star_path(self):
        assert canonical_form(star(4)) != canonical_form(path(4))

    @pytest.mark.parametrize(
        "n,count", [(1, 1), (2, 1), (3, 1), (4, 2), (5, 3), (6, 6), (7, 11), (8, 23), (9, 47), (10, 106), (11, 235), (12, 551)]
    )
    def test_unlabeled_counts(self, n, count):
        assert len(enumerate_unlabeled_trees(n)) == count

    def test_unlabeled_covers_labeled_classes(self):
        # every labeled tree on 6 vertices is isomorphic to exactly one entry
        keys = {canonical_form(t) for t in enumerate_unlabeled_trees(6)}
        for t in enumerate_labeled_trees(6):
            assert canonical_form(t) in keys
