import collections
import functools
import heapq
import itertools
import operator
import random
import types
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

import arbor.equitable as equitable_module
from arbor.colorings import KColoring
from arbor.equitable import (
    _bundle_split,
    _independent_low_degree,
    _path_colors,
    _search_colors,
    _skeleton_colors,
    balanced_targets,
    brute_force_equitable,
    equitable_coloring,
    equitable_three,
    hub_pair_coloring,
    verify_equitable,
)
from arbor.errors import (
    DegreeTooHigh,
    IndependentSetNotFound,
    InternalInvariant,
    NoTwoPreLeaves,
    NotATree,
    PartialColoring,
    PreconditionViolated,
    TooLarge,
)
from arbor.random_trees import enumerate_unlabeled_trees, sample_labeled_tree
from arbor.trees import (
    VertexClass,
    _source_lists,
    _vertex_classes,
    build_graph,
    build_tree,
    double_star,
    induced_subtree,
    parse_tree_text,
    path,
    pre_leaves,
    star,
)
from test_golden import crowded_tree, every_construction, planted_hub_tree
from test_trees import GRAPH_FORMS, held


def assert_good(t, cert, k, constraint=None):
    assert cert.valid
    assert tuple(sorted(cert.coloring.class_sizes, reverse=True)) == balanced_targets(t.n, k)
    recheck = verify_equitable(t, cert.coloring)
    assert recheck.valid and all(m == 0 for m in recheck.mono_edges)
    if constraint:
        p, q = constraint
        assert cert.coloring.color(p) != cert.coloring.color(q)


class TestVerify:
    def test_p9_round_robin(self):
        cert = verify_equitable(path(9), KColoring(3, [0, *(((v - 1) % 3) + 1 for v in range(1, 10))]))
        assert cert.valid and cert.coloring.class_sizes == (3, 3, 3)

    def test_monochromatic_edge(self):
        cert = verify_equitable(path(3), KColoring(3, [0, 1, 1, 2]))
        assert not cert.valid and cert.mono_edges == (1, 0, 0)

    def test_two_colors_ok(self):
        cert = verify_equitable(path(3), KColoring(2, [0, 1, 2, 1]))
        assert cert.valid and cert.coloring.class_sizes == (2, 1)

    def test_partial(self):
        with pytest.raises(PartialColoring):
            verify_equitable(path(3), KColoring(3, [0, 1, None, 2]))

    def test_vertex_outside_graph(self):
        # a color for vertex 4, which path(3) lacks
        with pytest.raises(PartialColoring, match=r"vertices 1\.\.3 is a list of 4 colors"):
            verify_equitable(path(3), KColoring(3, [0, 1, 2, 3, 1]))


# max degree 3 <= 10/3, not a path; pre-leaves 4 and 5 share a color when
# the machine runs unconstrained
GUARDED = build_tree([(1, 5), (2, 6), (2, 9), (3, 5), (4, 7), (4, 8), (5, 10), (6, 10), (8, 9)], 10)


class TestConstructionGuards:
    """A construction whose own output fails its check raises
    InternalInvariant with a dump of the input, never the coloring."""

    def assert_refused(self, constraint):
        with pytest.raises(InternalInvariant, match="failed verification") as exc:
            equitable_three(GUARDED, constraint)
        assert parse_tree_text(exc.value.dump) == GUARDED

    def test_vertex_left_uncolored(self, monkeypatch):
        run3 = equitable_module._Machine.run3

        def uncolored(m, pair):
            run3(m, pair)
            m.col[7] = 0

        monkeypatch.setattr(equitable_module._Machine, "run3", uncolored)
        self.assert_refused(None)
        self.assert_refused((4, 5))

    def test_constrained_pair_one_color(self, monkeypatch):
        plain = equitable_three(GUARDED)
        assert plain.valid and plain.coloring.color(4) == plain.coloring.color(5)
        assert equitable_three(GUARDED, (4, 5)).valid
        run3 = equitable_module._Machine.run3
        monkeypatch.setattr(equitable_module._Machine, "run3", lambda m, pair: run3(m, None))
        self.assert_refused((4, 5))


def first_route_tree(route):
    """The random tree of 30 vertices, smallest seed first, whose first
    level takes ``route`` and whose second one peels again."""
    for seed in range(1, 100):
        t = sample_labeled_tree(30, seed)
        trace = equitable_three(t).trace
        if trace[0] == route and trace[1].startswith("ext:"):
            return t
    raise AssertionError(f"no tree starts with {route}")


def first_special_tree():
    """The first tree of ``hub_arms_tree`` (8 arms) whose first step is the
    special case."""
    trees = (hub_arms_tree(seed, 8) for seed in range(50))
    return next(t for t in trees if equitable_three(t).trace[0].startswith("ext:special"))


def hub_swap_case(monkeypatch):
    """(tree, hubs, pre-leaf pair) of the first planted-hub draw whose
    ``hub_pair_coloring`` unwind swaps a far leaf into the deficient class."""
    swap = equitable_module._Machine._swap_far_leaf
    swaps = []

    def watched(m, c):
        swaps.append(c)
        return swap(m, c)

    rng = random.Random(5)
    with monkeypatch.context() as patched:
        patched.setattr(equitable_module._Machine, "_swap_far_leaf", watched)
        for _ in range(100):
            t = planted_hub_tree(rng)
            hubs = [x for x in range(1, t.n + 1) if 3 * t.degree(x) >= t.n][:2]
            pair = pre_leaves(t)[:2]
            if t.max_degree * 3 <= t.n and len(hubs) == len(pair) == 2:
                assert_good(t, hub_pair_coloring(t, *hubs, *pair), 3, constraint=tuple(pair))
                if swaps:
                    return t, hubs, pair
    raise AssertionError("no planted-hub draw swaps a leaf")


class TestPeelingGuards:
    """Each guard of the k=3 level loop and the unwind, reached by making
    the step before it give a wrong answer."""

    def assert_guard(self, t, message):
        with pytest.raises(InternalInvariant, match=message) as exc:
            equitable_three(t)
        assert parse_tree_text(exc.value.dump) == t

    def test_constraint_pair_stopped_being_pre_leaves(self, monkeypatch):
        t = first_route_tree("ext:triple")
        triple = equitable_module._Machine._case_triple

        def deleted_partner(m, p, q, cap_vertex):
            triple(m, p, q, cap_vertex)
            return p, m.records[-1][3]  # the leaf just deleted at p

        monkeypatch.setattr(equitable_module._Machine, "_case_triple", deleted_partner)
        self.assert_guard(t, "constraint pair stopped being pre-leaves")

    def test_no_leaf_clear_of_the_pendant_pair(self, monkeypatch):
        t = first_route_tree("ext:pendant")
        monkeypatch.setattr(equitable_module._Machine, "_min_leaf", lambda m, nbr_not_in=(): None)
        self.assert_guard(t, "no leaf clear of the pendant pre-leaf and its neighbor")

    def test_fewer_than_two_pre_leaves(self, monkeypatch):
        t = sample_labeled_tree(32, 1)  # n = 2 (mod 3): two opening peels, then a level that picks a pair
        assert t.max_degree * 3 <= t.n and t.max_degree > 2
        peel_one = equitable_module._Machine._peel_one

        def emptied(m, pair):
            colored = peel_one(m, pair)
            m.pre_heap.clear()
            return colored

        monkeypatch.setattr(equitable_module._Machine, "_peel_one", emptied)
        self.assert_guard(t, "fewer than two pre-leaves at an inner level")

    def test_no_leaf_to_peel(self, monkeypatch):
        t = sample_labeled_tree(32, 1)
        monkeypatch.setattr(equitable_module._Machine, "_min_leaf", lambda m, nbr_not_in=(): None)
        self.assert_guard(t, "no leaf available to peel")

    def test_base_search_found_nothing(self, monkeypatch):
        trees = (sample_labeled_tree(30, seed) for seed in range(1, 100))
        t = next(t for t in trees if equitable_three(t).trace[-1] == "direct:search")
        monkeypatch.setattr(equitable_module, "_search_colors", lambda *args: None)
        self.assert_guard(t, "exhaustive base search found no equitable coloring")
        with pytest.raises(InternalInvariant, match="exhaustive base search found no equitable coloring") as exc:
            equitable_coloring(t, 4)  # the machine on the reduction's rows dumps t too
        assert parse_tree_text(exc.value.dump) == t

    def test_no_special_vertex_next_to_the_maximal_degree_vertex(self, monkeypatch):
        t = first_special_tree()
        special = equitable_module._Machine._case_special

        def emptied_row(m, p, q, v0):
            m.adj[v0].clear()  # the special heap of v0 is built from this row
            return special(m, p, q, v0)

        monkeypatch.setattr(equitable_module._Machine, "_case_special", emptied_row)
        self.assert_guard(t, "no special vertex adjacent to the maximal-degree vertex")

    def test_no_leaf_clear_of_the_special_vertex(self, monkeypatch):
        t = first_special_tree()  # n = 0 (mod 3): the special case is the first step to pick a leaf
        monkeypatch.setattr(equitable_module._Machine, "_min_leaf", lambda m, nbr_not_in=(): None)
        self.assert_guard(t, "no leaf clear of the constraint pair and the special vertex")

    def test_designated_pre_leaf_not_a_pendant_path_end(self, monkeypatch):
        # hubs 1 and 2; pre-leaf 3 has two leaves, so the hub peel would take
        # one of them before the spine coloring
        t = build_tree([(1, 2), (1, 3), (3, 4), (3, 5), (1, 6), (1, 7), (1, 8), *((2, x) for x in range(9, 14))], 13)
        assert_good(t, hub_pair_coloring(t, 1, 2, 3, 2), 3, constraint=(3, 2))
        monkeypatch.setattr(equitable_module._Machine, "_leaf_at", lambda m, z: None)
        monkeypatch.setattr(equitable_module._Machine, "_min_leaf", lambda m, nbr_not_in=(): None)
        with pytest.raises(InternalInvariant, match="designated pre-leaf is not a pendant-path end") as exc:
            hub_pair_coloring(t, 1, 2, 3, 2)
        assert parse_tree_text(exc.value.dump) == t

    def assert_spine_guard(self, message):
        """The double broom of ``TestDoubleBroomRegression`` under the pair
        of its hubs, whose first level is the spine coloring."""
        t = TestDoubleBroomRegression().make_broom(3, 9, 16)
        with pytest.raises(InternalInvariant, match=message) as exc:
            equitable_three(t, (1, 2))
        assert parse_tree_text(exc.value.dump) == t

    def test_skeleton_decomposition_does_not_cover_the_tree(self, monkeypatch):
        t = TestDoubleBroomRegression().make_broom(3, 9, 16)
        assert equitable_three(t, (1, 2)).trace == ("direct:spine",)
        active = equitable_module._Machine.active_vertices

        def off_tree(m):  # the active vertices and one more, 0, which is off the tree
            return [0, *active(m)]

        monkeypatch.setattr(equitable_module._Machine, "active_vertices", off_tree)
        self.assert_spine_guard("skeleton decomposition does not cover the tree")

    def test_hub_bundles_and_skeleton_overlap(self, monkeypatch):
        spine = equitable_module._Machine._spine_terminal

        def shared_leaf(m, u, v, p, q):  # u's row also lists a pendant leaf of v
            m.adj[u].append(next(y for y in m.adj[v] if m.deg[y] == 1))
            spine(m, u, v, p, q)

        monkeypatch.setattr(equitable_module._Machine, "_spine_terminal", shared_leaf)
        self.assert_spine_guard("hub bundles and skeleton overlap")

    def test_spine_coloring_infeasible(self, monkeypatch, exact_calls):
        # no split of the hubs' bundles fits any skeleton coloring, so both the
        # greedy pass and the exact search come back empty
        monkeypatch.setattr(equitable_module, "_bundle_split", lambda *args: None)
        self.assert_spine_guard("spine coloring infeasible")
        assert exact_calls

    def test_constraint_pair_shares_a_color_during_unwind(self, monkeypatch):
        t = sample_labeled_tree(30, 24)
        assert equitable_three(t).trace[-2:] == ("ext:triple", "direct:path")
        commit = equitable_module._Machine._commit

        def merged(m, colors):  # the base coloring gives the newest triple's pair one color
            commit(m, colors)
            _, p, q, *_ = m.records[-1]
            m.col[q] = m.col[p]

        monkeypatch.setattr(equitable_module._Machine, "_commit", merged)
        self.assert_guard(t, "constraint pair shares a color during unwind")

    def assert_hub_guard(self, monkeypatch, swap, message):
        """Run the first planted-hub case whose two-hub unwind swaps a far
        leaf with ``_swap_far_leaf`` patched to ``swap(original)``."""
        t, hubs, pair = hub_swap_case(monkeypatch)
        monkeypatch.setattr(equitable_module._Machine, "_swap_far_leaf", swap(equitable_module._Machine._swap_far_leaf))
        with pytest.raises(InternalInvariant, match=message) as exc:
            hub_pair_coloring(t, *hubs, *pair)
        assert parse_tree_text(exc.value.dump) == t

    def test_no_branch_avoids_the_deficient_color_class(self, monkeypatch):
        def swap(original):
            def no_branches(m, c):  # the rows show no branch off the hubs
                u, v, _, _ = m.hubs
                m.adj[u].clear()
                m.adj[v].clear()
                return original(m, c)

            return no_branches

        self.assert_hub_guard(monkeypatch, swap, "no branch avoids the deficient color class")

    def test_swap_leaf_collides_with_a_constrained_vertex(self, monkeypatch):
        def swap(original):
            def named(m, c):  # the hubs name the swap leaf as their pre-leaf p
                col, sizes = m.col[:], m.sizes[:]
                original(m, c)
                (x,) = [x for x, (a, b) in enumerate(zip(col, m.col)) if a != b]
                m.col[:], m.sizes[:] = col, sizes
                u, v, _, q = m.hubs
                m.hubs = u, v, x, q
                return original(m, c)

            return named

        self.assert_hub_guard(monkeypatch, swap, "swap leaf collides with a constrained vertex")

    def test_unknown_record(self, monkeypatch):
        commit = equitable_module._Machine._commit

        def bogus_record(m, colors):  # the base coloring, the last step before the unwind
            commit(m, colors)
            m.records.append(("bogus",))

        monkeypatch.setattr(equitable_module._Machine, "_commit", bogus_record)
        self.assert_guard(GUARDED, "unknown record bogus")


class TestEquitableThree:
    def test_path9(self):
        cert = equitable_three(path(9))
        assert cert.coloring.class_sizes == (3, 3, 3)
        assert_good(path(9), cert, 3)

    def test_star_degree_too_high(self):
        with pytest.raises(DegreeTooHigh):
            equitable_three(star(7))

    def test_single_vertex(self):
        t = build_tree([], 1)  # a one-vertex path, colored by the path route
        for k, cert in [(3, equitable_three(t)), *((k, equitable_coloring(t, k)) for k in range(3, 7))]:
            assert_good(t, cert, k)
            assert cert.trace == ("direct:trivial",) and cert.coloring.color(1) == 1
        with pytest.raises(NoTwoPreLeaves):
            equitable_three(t, constraint=(1, 1))

    def test_bad_constraint(self):
        t = path(9)
        with pytest.raises(NoTwoPreLeaves):
            equitable_three(t, constraint=(2, 2))
        with pytest.raises(NoTwoPreLeaves):
            equitable_three(t, constraint=(1, 2))  # 1 is a leaf
        with pytest.raises(NoTwoPreLeaves):
            equitable_three(t, constraint=(4, 5))  # interior, no leaf neighbors

    @pytest.mark.parametrize("n", [6, 9, 12, 15, 21, 30])
    def test_constrained_paths(self, n):
        t = path(n)
        cert = equitable_three(t, constraint=(2, n - 1))
        assert_good(t, cert, 3, constraint=(2, n - 1))

    def test_small_sweep_against_brute_force(self):
        for n in range(6, 12):
            for t in enumerate_unlabeled_trees(n):
                if t.max_degree * 3 > n:
                    continue
                assert_good(t, equitable_three(t), 3)
                assert brute_force_equitable(t, 3) is not None

    def test_constrained_sweep_small(self):
        for n in range(6, 11):
            for t in enumerate_unlabeled_trees(n):
                if t.max_degree * 3 > n:
                    continue
                for p, q in itertools.combinations(pre_leaves(t), 2):
                    assert_good(t, equitable_three(t, constraint=(p, q)), 3, constraint=(p, q))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(13, 120), st.integers(0, 2**31), st.data())
    def test_random_soundness(self, n, seed, data):
        t = sample_labeled_tree(n, seed)
        if t.max_degree * 3 > n:
            return
        pls = pre_leaves(t)
        constraint = None
        if len(pls) >= 2 and data.draw(st.booleans()):
            perm = data.draw(st.permutations(pls))
            constraint = (perm[0], perm[1])
        cert = equitable_three(t, constraint=constraint)
        assert_good(t, cert, 3, constraint=constraint)

    def test_trace_is_short(self):
        t = sample_labeled_tree(90, seed=8, trial=3)
        if t.max_degree * 3 <= 90:
            cert = equitable_three(t)
            assert len(cert.trace) <= t.n


class TestDoubleBroomRegression:
    def make_broom(self, a, b, mid):
        edges = []
        nxt = 3
        prev = 1
        for _ in range(mid):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 2))
        for _ in range(a):
            edges.append((1, nxt))
            nxt += 1
        for _ in range(b):
            edges.append((2, nxt))
            nxt += 1
        return build_tree(edges, nxt - 1)

    def test_skewed_bundles(self):
        # max degree exactly n/3 with very unequal leaf bundles used to defeat
        # the near-equal skeleton coloring
        t = self.make_broom(3, 9, 16)
        assert t.max_degree * 3 == t.n
        cert = equitable_three(t, constraint=(1, 2))
        assert_good(t, cert, 3, constraint=(1, 2))

    def test_broom_grid(self):
        for a in (1, 2, 5, 9):
            for b in (1, 4, 11):
                for mid in (0, 3, 10, 17):
                    t = self.make_broom(a, b, mid)
                    if t.max_degree * 3 > t.n:
                        continue
                    for pair in itertools.combinations(pre_leaves(t), 2):
                        assert_good(t, equitable_three(t, constraint=pair), 3, constraint=pair)


class TestHubPair:
    def test_u_equals_v(self):
        h = build_tree([(1, 3), (2, 3), (3, 4), (4, 5), (4, 6)], 6)
        with pytest.raises(PreconditionViolated):
            hub_pair_coloring(h, 3, 3, 3, 4)

    def test_low_degree_rejected(self):
        t = path(9)
        with pytest.raises(PreconditionViolated):
            hub_pair_coloring(t, 4, 5, 2, 8)

    def test_h_shape(self):
        h = build_tree([(1, 3), (2, 3), (3, 4), (4, 5), (4, 6)], 6)
        cert = hub_pair_coloring(h, 3, 4, 3, 4)
        assert cert.coloring.class_sizes == (2, 2, 2)
        assert cert.coloring.color(3) != cert.coloring.color(4)

    def test_double_star_centers(self):
        t = double_star(4, 4)
        cert = hub_pair_coloring(t, 1, 2, 1, 2)
        assert_good(t, cert, 3, constraint=(1, 2))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31))
    def test_planted_hubs(self, seed):
        rng = random.Random(seed)
        t = planted_hub_tree(rng)
        n = t.n
        if t.degree(1) * 3 < n or t.degree(2) * 3 < n:
            return
        pls = pre_leaves(t)
        if len(pls) < 2:
            return
        p, q = rng.sample(pls, 2)
        cert = hub_pair_coloring(t, 1, 2, p, q)
        assert_good(t, cert, 3, constraint=(p, q))
        assert cert.coloring.color(1) != cert.coloring.color(2)


class TestForkedSkeletonRegression:
    def test_pre_leaf_pair_behind_shared_stalk(self):
        # both pre-leaves hang off one degree-three junction behind hub 2, so
        # the terminal skeleton is a fork rather than a path with tails
        edges = (
            [(1, 2)]
            + [(1, x) for x in (3, 4, 5, 6, 7, 8, 9, 10, 11, 24, 27)]
            + [(2, x) for x in (12, 13, 14, 15, 16, 17, 18, 19, 20)]
            + [(13, 22), (13, 23), (19, 21), (19, 25), (21, 29), (25, 26), (25, 28)]
        )
        t = build_tree(edges, 29)
        cert = hub_pair_coloring(t, 1, 2, 21, 25)
        assert cert.valid
        assert cert.coloring.color(21) != cert.coloring.color(25)
        assert cert.coloring.color(1) != cert.coloring.color(2)


class TestEquitableK:
    def test_p10_five_colors(self):
        cert = equitable_coloring(path(10), 5)
        assert sorted(cert.coloring.class_sizes) == [2, 2, 2, 2, 2]

    def test_paths_succeed_for_every_feasible_k(self):
        for n in (8, 13, 20, 31):
            t = path(n)
            for k in range(3, n // 2 + 1):  # paths have max degree 2
                assert_good(t, equitable_coloring(t, k), k)

    def test_delegates_to_three(self):
        t = sample_labeled_tree(30, seed=2, trial=0)
        if t.max_degree * 3 <= 30:
            a = equitable_coloring(t, 3)
            b = equitable_three(t)
            assert a.coloring == b.coloring

    def test_k_too_small(self):
        with pytest.raises(ValueError):
            equitable_coloring(path(10), 2)

    def test_degree_too_high(self):
        with pytest.raises(DegreeTooHigh):
            equitable_coloring(star(9), 4)

    def test_n12_k4_vs_brute(self):
        hits = 0
        for trial in range(120):
            t = sample_labeled_tree(12, seed=13, trial=trial)
            if t.max_degree > 3:
                continue
            cert = equitable_coloring(t, 4)
            assert_good(t, cert, 4)
            assert brute_force_equitable(t, 4, limit=4**12) is not None
            hits += 1
        assert hits > 5

    @settings(max_examples=60, deadline=None)
    @given(st.integers(20, 160), st.integers(3, 7), st.integers(0, 2**31))
    def test_random_soundness(self, n, k, seed):
        t = sample_labeled_tree(n, seed)
        if t.max_degree * k > n:
            return
        cert = equitable_coloring(t, k)
        assert_good(t, cert, k)

    def test_class_size_arithmetic(self):
        for trial in range(40):
            n, k = 50 + trial, 3 + trial % 4
            t = sample_labeled_tree(n, seed=77, trial=trial)
            if t.max_degree * k > n:
                continue
            q, r = divmod(n, k)
            sizes = sorted(equitable_coloring(t, k).coloring.class_sizes, reverse=True)
            assert sizes == [q + 1] * r + [q] * (k - r)


def reference_round_robin(order, k):
    """The round-robin path colorer that ``_path_colors`` replaced."""
    return {v: (i % k) + 1 for i, v in enumerate(order)}


def reference_path3(order, constraint):
    """The constrained 3-coloring of a path that ``_path_colors`` replaced."""
    L = len(order)
    plain = reference_round_robin(order, 3)
    if constraint is None or L < 4:
        return plain
    if (1 - (L - 2)) % 3 != 0:
        return plain
    if L == 6:
        pat = [1, 2, 3, 1, 3, 2]
        return {v: pat[i] for i, v in enumerate(order)}
    tail = [1, 3, 2, 1, 3, 2]
    return {v: (i % 3) + 1 if i < L - 6 else tail[i - (L - 6)] for i, v in enumerate(order)}


def shuffled_path(n, seed):
    """A path whose walk visits the ids 1..n in a seeded order."""
    walk = random.Random(seed).sample(range(1, n + 1), n)
    return build_tree(list(zip(walk, walk[1:])), n)


def peeled_rows(deg, xr):
    """The ascending rows, indexed by vertex, of the tree that a degree list
    and a neighbor-XOR list describe (a vertex of degree 0 is off it,
    whatever its XOR), rebuilt by peeling leaves until both lists are all
    zero."""
    xr = [x if d else 0 for d, x in zip(deg, xr)]
    deg = list(deg)
    rows = [[] for _ in deg]
    stack = [v for v, d in enumerate(deg) if d == 1]
    while stack:
        w = stack.pop()
        if deg[w] != 1:
            continue  # the last vertex, whose final neighbor was peeled first
        z = xr[w]
        rows[w].append(z)
        rows[z].append(w)
        deg[w], xr[w] = 0, 0
        deg[z] -= 1
        xr[z] ^= w
        if deg[z] == 1:
            stack.append(z)
    assert not any(deg) and not any(xr), "the lists do not describe a tree"
    return [sorted(row) for row in rows]


class TestPathRoute:
    """Every path is colored by ``_path_colors``, and a path-shaped input
    builds no peeling machine."""

    def test_path_colors_match_the_old_colorers(self):
        for L in range(1, 41):
            order = random.Random(L).sample(range(1, 2 * L + 1), L)
            for k in range(3, 9):
                assert _path_colors(order, k) == [reference_round_robin(order, k)[v] for v in order]
            if L >= 2:
                for pair in ((order[1], order[L - 2]), (order[L - 2], order[1])):
                    assert _path_colors(order, 3, pair) == [reference_path3(order, pair)[v] for v in order]

    def test_path_colors_guard(self):
        order = [5, 3, 9, 1, 7, 2, 8, 4, 6]
        for pair in ((5, 4), (3, 6), (3, 3), (9, 8), (3, 10)):
            with pytest.raises(InternalInvariant, match="path constraint endpoints are not its pre-leaves"):
                _path_colors(order, 3, pair)

    def test_no_machine_for_a_path(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a path-shaped tree built a peeling machine")

        monkeypatch.setattr(equitable_module, "_Machine", refused)
        for n in range(6, 31):  # max degree 2 <= n/3
            t = shuffled_path(n, n)
            cert = equitable_three(t)
            assert cert.trace == ("direct:path",)
            assert_good(t, cert, 3)
            pair = tuple(t.adj[v][0] for v in range(1, n + 1) if t.degree(v) == 1)
            cert = equitable_three(t, pair)
            assert cert.trace == ("direct:path",)
            assert_good(t, cert, 3, constraint=pair)
            for k in range(4, n // 2 + 1):
                cert = equitable_coloring(t, k)
                assert cert.trace == ("direct:path",)
                assert_good(t, cert, k)

    def test_reduction_to_a_path_peels_nothing(self, monkeypatch):
        # a k>=4 reduction that leaves a path, of any length mod 3, goes
        # straight to the path coloring, with no single-leaf peel first
        real_init = equitable_module._Machine.__init__
        lengths = []  # of the path left, or None for another tree

        def init(self, tree, deg, xr):
            rows = peeled_rows(deg, xr)
            assert deg == [len(row) for row in rows]
            kept = sum(1 for row in rows if row)
            lengths.append(kept if max(map(len, rows)) <= 2 else None)
            real_init(self, tree, deg, xr)

        monkeypatch.setattr(equitable_module._Machine, "__init__", init)
        seen = set()
        for n in range(8, 15):
            for t in enumerate_unlabeled_trees(n):
                for k in range(4, 7):
                    if t.max_degree <= 2 or t.max_degree * k > n:
                        continue
                    cert = equitable_coloring(t, k)
                    if lengths[-1] is not None:
                        assert cert.trace == (*(f"reduce:k{j}" for j in range(k, 3, -1)), "direct:path")
                        seen.add(lengths[-1] % 3)
        assert seen == {0, 1, 2}


class TestBruteForceEquitable:
    def test_p3(self):
        w = brute_force_equitable(path(3), 3)
        assert w is not None and sorted(w.class_sizes) == [1, 1, 1]

    def test_s7_none(self):
        assert brute_force_equitable(star(7), 3) is None

    def test_single_vertex(self):
        w = brute_force_equitable(build_tree([], 1), 5)
        assert w is not None and w.color(1) in range(1, 6)

    def test_no_vertices(self):
        # no graph has no vertices; the search on one vertex puts it in class 0
        with pytest.raises(NotATree, match="bad-vertex-id"):
            induced_subtree(path(2), {1, 2})
        lone = induced_subtree(path(2), {1}).graph
        w = brute_force_equitable(lone, 3)
        assert w.class_sizes == (1, 0, 0) and w.tally(lone) == ((1, 0, 0), (0, 0, 0))

    def test_guard(self):
        with pytest.raises(TooLarge):
            brute_force_equitable(path(14), 3)

    def test_disconnected_against_enumeration(self):
        # two edges and an isolated vertex: the search starts at 1 and has to
        # pick up 3, 4 and 5 after its walk
        edges = [(1, 2), (3, 4)]
        g = build_graph(edges, 5)
        for k in (2, 3, 4):
            equitable = set()
            for c in itertools.product(range(1, k + 1), repeat=5):
                sizes = [c.count(x) for x in range(1, k + 1)]
                if max(sizes) - min(sizes) <= 1 and all(c[u - 1] != c[v - 1] for u, v in edges):
                    equitable.add(c)
            w = brute_force_equitable(g, k)
            assert (w is None) == (not equitable)
            assert w is None or tuple(w.col[1:]) in equitable

    def test_witnesses_verify(self):
        for n in range(4, 10):
            for t in enumerate_unlabeled_trees(n):
                w = brute_force_equitable(t, 3)
                if w is not None:
                    assert verify_equitable(t, w).valid


# ---------------------------------------------------------------------------
# The spine terminal: every leaf crowds the hubs or the pre-leaf pair.

# max degree 18 <= 56/3; plain equitable_coloring(t, 3) reaches the exact search
CROWDED_56 = (
    "56\nP: 34 3 3 34 3 3 34 3 3 34 3 3 3 3 34 34 3 34 34 3 34 34 34 34 33 51 34 34 56 3 3 3 "
    "34 21 9 44 27 34 34 25 41 31 15 17 8 53 27 52 32 40 36 19 29 3\n"
)
# constraint (32, 33) reaches the exact search
CROWDED_39 = "39\nP: 1 1 1 33 33 33 1 33 1 33 1 1 33 1 32 33 33 1 1 1 33 26 3 30 1 5 38 33 33 30 29 14 35 31 19 6 33\n"
# hub delegation with hubs 1 and 11 and pre-leaves 8 and 11
HUBS_15 = [
    "1-2 1-3 1-4 1-5 1-6 6-7 6-10 7-8 8-9 10-11 11-12 11-13 11-14 11-15",
    "1-2 1-3 1-4 1-5 1-6 6-7 7-8 7-10 8-9 10-11 11-12 11-13 11-14 11-15",
]


def every_coloring(t):
    """Run every construction whose precondition t meets and check each
    result; returns how many ran."""
    runs = 0
    for _, k, pair, hubs, cert in every_construction(t):
        assert_good(t, cert, k, constraint=pair)
        if hubs:
            u, v = hubs
            assert cert.coloring.color(u) != cert.coloring.color(v)
        runs += 1
    return runs


@pytest.fixture
def exact_calls(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(len(args[0]))
        return _skeleton_colors(*args)

    monkeypatch.setattr(equitable_module, "_skeleton_colors", counted)
    return calls


class TestSpineRegressions:
    def test_crowded_56_plain(self, exact_calls):
        t = parse_tree_text(CROWDED_56)
        assert_good(t, equitable_coloring(t, 3), 3)
        assert exact_calls

    def test_crowded_39_constrained(self, exact_calls):
        t = parse_tree_text(CROWDED_39)
        assert_good(t, equitable_three(t, constraint=(32, 33)), 3, constraint=(32, 33))
        assert exact_calls

    @pytest.mark.parametrize("text", [CROWDED_56, CROWDED_39], ids=["n56", "n39"])
    def test_every_construction(self, text):
        assert every_coloring(parse_tree_text(text)) > 0

    @pytest.mark.parametrize("edges", HUBS_15, ids=["fork-at-6", "fork-at-7"])
    def test_hub_delegation_n15(self, edges, exact_calls):
        t = build_tree([tuple(map(int, e.split("-"))) for e in edges.split()], 15)
        assert every_coloring(t) > 0
        cert = hub_pair_coloring(t, 1, 11, 8, 11)
        assert_good(t, cert, 3, constraint=(8, 11))
        assert exact_calls


class TestCrowdedLeaves:
    @settings(max_examples=500, deadline=None)
    @given(st.integers(0, 2**31), st.booleans())
    def test_every_construction_succeeds(self, seed, hubs):
        t = crowded_tree(random.Random(seed), hubs)
        if t is not None:
            every_coloring(t)


def _spine_instance(rng):
    """A skeleton tree on at most ten vertices, BFS-ordered from u, with a
    second hub v, a constraint pair and bundle sizes A, B."""
    s = rng.randint(2, 10)
    adj = {x: [] for x in range(1, s + 1)}
    for x in range(2, s + 1):
        y = rng.randint(1, x - 1)
        adj[x].append(y)
        adj[y].append(x)
    u, v = rng.sample(range(1, s + 1), 2)
    order, parent = [u], {u: None}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for y in sorted(adj[x]):
            if y not in parent:
                parent[y] = x
                order.append(y)
                queue.append(y)
    constraints = [(u, v)]
    if s >= 3 and rng.random() < 0.7:
        constraints.append(tuple(rng.sample(range(1, s + 1), 2)))
    return adj, order, parent, u, v, constraints, rng.randint(0, 4), rng.randint(0, 4)


class TestSkeletonSearch:
    def test_complete_against_exhaustive_search(self):
        found = 0
        for seed in range(400):
            adj, order, parent, u, v, constraints, A, B = _spine_instance(random.Random(seed))
            s = len(order)
            full = {x: list(ys) for x, ys in adj.items()}
            for hub, size in ((u, A), (v, B)):
                for _ in range(size):
                    leaf = len(full) + 1
                    full[leaf] = [hub]
                    full[hub].append(leaf)
            targets = balanced_targets(len(full), 3)
            col = _skeleton_colors(
                order,
                parent,
                constraints,
                max(targets),
                lambda pins, cnt: _bundle_split(cnt, 1, pins[v], targets, A, B) is not None,
            )
            brute = _search_colors(list(full), full, 3, targets, constraints)
            assert (col is None) == (brute is None), seed
            if col is None:
                continue
            found += 1
            assert sorted(col) == sorted(order) and col[u] == 1
            assert all(col[x] != col[parent[x]] for x in order[1:])
            assert all(col[a] != col[b] for a, b in constraints)
            cnt = [0, 0, 0, 0]
            for c in col.values():
                cnt[c] += 1
            assert _bundle_split(cnt, 1, col[v], targets, A, B) is not None
        assert 0 < found < 400


def adversarial_labels(t):
    """Relabel t so that degree-<=2 vertices with two degree-<=2 neighbours
    get the smallest ids: the greedy then picks path interiors first."""
    low = [len(t.adj[x]) <= 2 for x in range(t.n + 1)]

    def rank(x):
        if not low[x]:
            return (2, x)
        return (0 if sum(low[y] for y in t.adj[x]) == 2 else 1, x)

    new = {x: i + 1 for i, x in enumerate(sorted(range(1, t.n + 1), key=rank))}
    return build_tree([(new[a], new[b]) for a, b in t.edges()], t.n)


def neighbor_lists(t):
    return [list(row) for row in t.adj]


class TestIndependentLowDegree:
    def test_greedy_beats_quarter_under_adversarial_labels(self):
        rng = random.Random(5)
        trees = [sample_labeled_tree(n, seed=11, trial=n) for n in range(4, 200)]
        trees += [t for t in (crowded_tree(rng, False) for _ in range(200)) if t is not None]
        trees += [path(n) for n in range(2, 30)]
        for t in trees:
            t = adversarial_labels(t)
            m = t.n // 4 + 1
            adj = neighbor_lists(t)
            chosen = _independent_low_degree(adj, range(1, t.n + 1), m)
            assert len(chosen) == m
            assert all(t.degree(x) <= 2 for x in chosen)
            assert not any(y in chosen for x in chosen for y in t.adj[x])
            # each pick is gone from its neighbors' lists, and nothing else is
            assert all(adj[v] == [w for w in t.adj[v] if w not in chosen] for v in range(1, t.n + 1) if v not in chosen)
            assert not any(adj[x] for x in chosen)  # and a pick's own list is emptied

    def test_guard_raises_when_short(self):
        with pytest.raises(IndependentSetNotFound):
            _independent_low_degree(neighbor_lists(star(5)), range(1, 6), 5)


# ---------------------------------------------------------------------------
# The k>=4 layer reduction against the set-based reduction it replaced.


def reference_reduction(t, k):
    """The set-based reduction, kept as an oracle: the greedy picks all of a
    layer before any is deleted, components are listed first and joined
    after.  Returns, per layer, the shed vertices and the set of join edges,
    and the rows of the tree relabeled 1..m for the 3-coloring."""
    adj = [set(row) for row in t.adj]
    kept = list(range(1, t.n + 1))
    top = t.max_degree
    layers = []
    for k_level in range(k, 3, -1):
        m = len(kept) // k_level
        blocked = bytearray(t.n + 1)
        shed = []
        for v in kept:
            if len(shed) == m:
                break
            if len(adj[v]) <= 2 and not blocked[v]:
                shed.append(v)
                for w in adj[v]:
                    blocked[w] = 1
        assert len(shed) == m
        for x in shed:
            for w in adj[x]:
                adj[w].discard(x)
        kept = [v for v in kept if v not in set(shed)]
        seen = bytearray(t.n + 1)
        comps = []  # by minimum vertex, each listing its minimum first
        for s in kept:
            if not seen[s]:
                seen[s] = 1
                comp = [s]
                for u in comp:
                    for w in adj[u]:
                        if not seen[w]:
                            seen[w] = 1
                            comp.append(w)
                comps.append(comp)
        cap = max(top, 2)
        heap = [v for v in comps[0] if len(adj[v]) <= 1]
        heapq.heapify(heap)
        joins = set()
        for comp in comps[1:]:
            b = comp[0] if len(comp) == 1 else min(v for v in comp if len(adj[v]) == 1)
            assert len(adj[heap[0]]) < cap and len(adj[b]) < cap
            a = heapq.heappop(heap)
            adj[a].add(b)
            adj[b].add(a)
            joins.add((min(a, b), max(a, b)))
            for v in (a, *comp):
                if len(adj[v]) == 1:
                    heapq.heappush(heap, v)
        top = max(len(adj[v]) for v in kept)
        layers.append((shed, joins))
    new_id = {v: i for i, v in enumerate(kept, 1)}
    return layers, ((),) + tuple(tuple(sorted(new_id[w] for w in adj[v])) for v in kept)


def observed_reduction(monkeypatch, t, k):
    """The same record of ``equitable_coloring(t, k)``'s own reduction, read
    from its calls of the greedy and ``join_forest`` and from the lists it
    builds its peeling machine from."""
    greedy, join = equitable_module._independent_low_degree, equitable_module.join_forest
    real_init, run3 = equitable_module._Machine.__init__, equitable_module._Machine.run3
    layers, rows, joined_lists = [], [], []

    def shed(adj, vertices, m):
        layers.append((greedy(adj, vertices, m), set()))
        return layers[-1][0]

    def joined(adj, vertices, cap):
        before = [len(row) for row in adj]
        top = join(adj, vertices, cap)
        layers[-1][1].update((min(v, w), max(v, w)) for v in vertices for w in adj[v][before[v] :])
        assert top == max(2, *map(len, map(adj.__getitem__, vertices)))
        joined_lists[:] = [adj]
        return top

    def init(self, tree, deg, xr):
        assert tree is t
        (adj,) = joined_lists
        gone = {x for picks, _ in layers for x in picks}
        assert all(not adj[x] and not deg[x] for x in gone)  # a shed vertex is gone from the tree the machine peels
        # the machine's lists are those of the reduction's lists, and describe their tree
        assert deg == [len(row) for row in adj] and xr == [functools.reduce(operator.xor, row, 0) for row in adj]
        tree_rows = peeled_rows(deg, xr)
        assert tree_rows == [sorted(row) for row in adj]
        kept = [v for v in range(1, t.n + 1) if v not in gone]
        new_id = {v: i for i, v in enumerate(kept, 1)}
        rows.append(((),) + tuple(tuple(new_id[w] for w in tree_rows[v]) for v in kept))  # relabeled 1..m, order kept
        real_init(self, tree, deg, xr)

    def unconstrained(m, pair):
        assert pair is None
        run3(m, pair)

    with monkeypatch.context() as patch:
        patch.setattr(equitable_module, "_independent_low_degree", shed)
        patch.setattr(equitable_module, "join_forest", joined)
        patch.setattr(equitable_module._Machine, "__init__", init)
        patch.setattr(equitable_module._Machine, "run3", unconstrained)
        cert = equitable_coloring(t, k)
    assert_good(t, cert, k)
    return layers, rows[0]


class TestReductionOracle:
    """Every layer sheds the same vertices and adds the same join edges as
    the set-based reduction, and the 3-coloring gets the same tree."""

    def check(self, monkeypatch, t):
        checked = 0
        for k in range(4, 9):
            if t.max_degree * k > t.n or t.max_degree <= 2:
                break
            assert observed_reduction(monkeypatch, t, k) == reference_reduction(t, k)
            checked += 1
        return checked

    def test_random_trees(self, monkeypatch):
        # decoded trees, whose rows the reduction does not read
        checked = sum(
            self.check(monkeypatch, sample_labeled_tree(n, seed))
            for n, seeds in ((12, 40), (20, 30), (40, 20), (120, 20), (500, 4), (2_000, 2))
            for seed in range(1, seeds + 1)
        )
        assert checked > 200

    def test_crowded_trees(self, monkeypatch):
        rng = random.Random(13)
        trees = [t for t in (crowded_tree(rng, False) for _ in range(1_500)) if t is not None]
        assert sum(self.check(monkeypatch, t) for t in trees) > 150

    def test_adversarial_labels(self, monkeypatch):
        trees = [adversarial_labels(sample_labeled_tree(n, 3, trial)) for n in (30, 120, 2_000) for trial in range(4)]
        assert sum(self.check(monkeypatch, t) for t in trees) > 30


class TestReductionGuard:
    def test_degree_cap_lost_during_forest_completion(self, monkeypatch):
        t = sample_labeled_tree(120, 1)
        join = equitable_module.join_forest
        # a completion that reports a degree above the cap of the next layer
        monkeypatch.setattr(equitable_module, "join_forest", lambda adj, vertices, cap: join(adj, vertices, cap) + len(vertices))
        with pytest.raises(InternalInvariant, match="degree cap lost during forest completion") as exc:
            equitable_coloring(t, 5)
        assert parse_tree_text(exc.value.dump) == t

    def test_machine_failure_dumps_the_input_tree(self, monkeypatch):
        # the 3-coloring of the reduced tree runs in t's own ids, so what a
        # failing machine dumps is t, which ``arbor color --k 5`` reproduces
        t = sample_labeled_tree(120, 1)
        monkeypatch.setattr(equitable_module._Machine, "_min_leaf", lambda m, nbr_not_in=(): None)
        with pytest.raises(InternalInvariant) as exc:
            equitable_coloring(t, 5)
        assert parse_tree_text(exc.value.dump) == t


# ---------------------------------------------------------------------------
# Heap work of the k=3 peeling machine, counted rather than timed.


def caterpillar(n):
    """A path on the first half of the ids, each with one pendant leaf."""
    s = n // 2
    return build_tree([(i, i + 1) for i in range(1, s)] + [(i, s + i) for i in range(1, n - s + 1)], n)


def spider(n, legs):
    """Legs of near-equal length around vertex 1."""
    edges = []
    for leg in range(legs):
        prev = 1
        for _ in range((n - 1) // legs + (leg < (n - 1) % legs)):
            edges.append((prev, len(edges) + 2))
            prev = len(edges) + 1
    return build_tree(edges, n)


def broom(n):
    """A path whose last vertex carries n/3 - 1 bristles."""
    h = n - n // 3 + 1
    return build_tree([(i, i + 1) for i in range(1, h)] + [(h, x) for x in range(h + 1, n + 1)], n)


def two_hub_tree(n):
    """Adjacent hubs 1 and 2, each carrying (n - 2) // 4 pendant 2-paths,
    hub 1's first; the last path takes the vertices left over."""
    edges = [(1, 2)]
    for hub in (1, 2):
        for _ in range((n - 2) // 4):
            mid = len(edges) + 2
            edges += [(hub, mid), (mid, mid + 1)]
    edges += [(x - 1, x) for x in range(len(edges) + 2, n + 1)]
    return build_tree(edges, n)


PEEL_SHAPES = {
    "random": lambda n: sample_labeled_tree(n, 1),
    "caterpillar": caterpillar,
    "spider": lambda n: spider(n, 99),
    "broom": broom,
    "two-hubs": two_hub_tree,
}


def hub_arms_tree(seed, arms):
    """Hub 1 with ``arms`` arms in a seeded order, each a 2-path, a 3-path
    or a fork (a vertex with two leaves), and a tail path that makes
    n = 3 deg(1): the hub starts as the unique vertex of degree n/3."""
    rng = random.Random(seed)
    edges = []
    for _ in range(arms):
        a = len(edges) + 2
        edges.append((1, a))
        kind = rng.choice(("2-path", "2-path", "3-path", "fork"))
        if kind == "2-path":
            edges.append((a, a + 1))
        else:
            edges += [(a, a + 1), (a + 1, a + 2) if kind == "3-path" else (a, a + 2)]
    n = 3 * (arms + 1)
    edges += [(1 if x == len(edges) + 2 else x - 1, x) for x in range(len(edges) + 2, n + 1)]
    return build_tree(edges, n)


class TestSpecialHeap:
    def test_same_vertex_as_a_row_scan(self, monkeypatch):
        """The special case's lazy heap gives the smallest special neighbor
        of v0, also when a neighbor became special after the heap was built
        (a 3-path's end peeled, or one leaf of a fork)."""
        calls = late = 0
        machine = None
        real_init = equitable_module._Machine.__init__
        special = equitable_module._Machine._case_special

        def init(self, tree, deg, xr):
            nonlocal machine
            real_init(self, tree, deg, xr)
            machine = self

        def scanned(m, p, q, v0):
            nonlocal calls
            scan = next(x for x in m.adj[v0] if m.deg[x] == 2 and m.nleaf[x])
            picked = special(m, p, q, v0)
            # the special vertex, picked and in the record: x of a swap, else y
            assert picked[0] == scan == m.records[-1][1 if m.trace[-1] == "ext:special-swap" else 4]
            calls += 1
            return picked

        def heappush(heap, item):
            nonlocal late
            late += any(heap is h for h in machine.special_at.values())
            heapq.heappush(heap, item)

        monkeypatch.setattr(equitable_module._Machine, "__init__", init)
        monkeypatch.setattr(equitable_module._Machine, "_case_special", scanned)
        monkeypatch.setattr(equitable_module, "heapq", types.SimpleNamespace(heappush=heappush, heappop=heapq.heappop))
        for arms in (8, 20):
            for seed in range(20):
                t = hub_arms_tree(seed, arms)
                assert_good(t, equitable_three(t), 3)
        assert calls and late, (calls, late)


class CountedRow(tuple):
    """A row of the machine's ``adj`` that counts, in ``reads[0]``, the
    entries read by iterating it."""

    reads = [0]

    def __iter__(self):
        for x in tuple.__iter__(self):
            self.reads[0] += 1
            yield x


class TestPeelOperationCounts:
    @pytest.mark.parametrize("shape", sorted(PEEL_SHAPES))
    def test_heap_operations_are_linear(self, shape, monkeypatch):
        n = 10_000
        t = PEEL_SHAPES[shape](n)
        assert t.n == n and t.max_degree * 3 <= n
        monkeypatch.setattr(CountedRow, "reads", [0])
        ops = picks = 0
        machine = None
        entries = collections.Counter()  # pre-leaf heap entries by vertex, put-backs left out
        taken = set()  # live pre-leaves that picking a pair popped and owes back
        real_init, real_rows = equitable_module._Machine.__init__, equitable_module._Machine.active_rows
        counted = {}  # the machine's rows, each a CountedRow

        def init(self, tree, deg, xr):
            nonlocal machine
            real_init(self, tree, deg, xr)
            machine = self
            entries.update(self.pre_heap)

        def adj(m):
            if m not in counted:
                counted[m] = tuple(map(CountedRow, real_rows(m)))
            return counted[m]

        def heappush(heap, item):
            nonlocal ops
            ops += 1
            if heap is machine.pre_heap:
                if item in taken:
                    taken.remove(item)
                else:
                    entries[item] += 1
            heapq.heappush(heap, item)

        def heappop(heap):
            nonlocal ops, picks
            ops += 1
            item = heapq.heappop(heap)
            if heap is machine.pre_heap and machine.deg[item] >= 2:
                taken.add(item)
                picks += 1
            return item

        monkeypatch.setattr(equitable_module._Machine, "__init__", init)
        monkeypatch.setattr(equitable_module._Machine, "adj", property(adj))
        monkeypatch.setattr(equitable_module, "heapq", types.SimpleNamespace(heappush=heappush, heappop=heappop))
        cert = equitable_coloring(t, 3)
        assert_good(t, cert, 3)
        assert machine is not None and not taken
        # The lower bounds fail if the machine reaches heapq other than through
        # the module attribute, which would hide its work from this count: a
        # level after a pendant one picks a new pair from the pre-leaf heap.
        assert n // 2 <= ops <= 8 * n, ops / n
        assert picks >= sum(route.startswith("ext:pendant") for route in cert.trace) - 1 > 0
        # row entries read through the machine's adj: a rescan of one row
        # per level would be quadratic
        assert CountedRow.reads[0] <= 8 * n, CountedRow.reads[0] / n
        assert max(entries.values()) == 1  # a vertex enters the pre-leaf heap once


def machine_trees():
    """Decoded random trees, ``hub_arms_tree`` draws (special cases, then
    pendant steps that leave p's neighbor special) and planted-hub draws
    (capped levels), each with the k in 3..6 that it admits."""
    rng = random.Random(25)
    trees = [sample_labeled_tree(n, seed) for n in (30, 31, 32, 120, 300) for seed in range(1, 13)]
    trees += [hub_arms_tree(seed, 8) for seed in range(20)] + [planted_hub_tree(rng) for _ in range(40)]
    return [(t, k) for t in trees for k in range(3, 7) if t.max_degree * k <= t.n]


def watch_machines(monkeypatch, made):
    """Call ``made(m)`` on each ``_Machine`` as soon as it is set up."""
    real_init = equitable_module._Machine.__init__

    def init(self, tree, deg, xr):
        real_init(self, tree, deg, xr)
        made(self)

    monkeypatch.setattr(equitable_module._Machine, "__init__", init)


class TestPendantStep:
    """A pair step (a pendant, special or special-swap level) deletes a
    degree-two x and its leaf v1 together, then a leaf v2: x's other
    neighbor u loses x and gets the bookkeeping of any vertex that loses a
    neighbor."""

    def test_no_leaf_heap_entry_for_a_vertex_the_step_deletes(self, monkeypatch):
        machine = rec = None  # the newest machine and its newest record
        before, pushed = [], []  # the active vertices before that record's step, and the step's pushes
        stale = []
        routes = collections.Counter()

        def settle():
            """Close the newest step: the vertices it deleted, and those of them it pushed."""
            deleted = {v for v in before if not machine.deg[v]}
            stale.extend(v for v in pushed if v in deleted)
            if rec is not None and rec[0] == "pair":  # a pair step deletes x, y and z, and no more
                _, x, a, b, y, c, z = rec
                assert deleted == {x, y, z}, rec
            pushed.clear()

        class Records(list):
            def append(self, new):
                nonlocal rec
                settle()
                rec = new
                before[:] = [v for v, d in enumerate(machine.deg) if d]
                list.append(self, new)

        def made(m):
            nonlocal machine, rec
            if machine is not None:
                settle()
            machine, rec = m, None
            before.clear()
            m.records = Records()

        unwind = equitable_module._Machine._unwind

        def settled(m):  # the unwind restores the degrees of leaf records: settle the last step first
            nonlocal rec
            settle()
            rec = None
            before.clear()
            unwind(m)

        def heappush(heap, item):  # into leaf_heap or a leaves_at heap, unless one of these
            if heap is not machine.pre_heap and all(heap is not h for h in machine.special_at.values()):
                pushed.append(item)
            heapq.heappush(heap, item)

        watch_machines(monkeypatch, made)
        monkeypatch.setattr(equitable_module._Machine, "_unwind", settled)
        monkeypatch.setattr(equitable_module, "heapq", types.SimpleNamespace(heappush=heappush, heappop=heapq.heappop))
        for t, k in machine_trees():
            cert = equitable_coloring(t, k)
            assert_good(t, cert, k)
            routes.update(cert.trace)
        settle()
        assert routes["ext:pendant"] > 1000 and routes["ext:pendant-capped"] > 0, routes
        assert routes["ext:special"] > 0 and routes["ext:special-swap"] > 0, routes
        assert not stale, stale[:10]

    def test_u_becomes_a_leaf_a_pre_leaf_or_special(self, monkeypatch):
        seen = collections.Counter()
        detach = equitable_module._Machine.detach

        def watched(m, z, w, leaf):
            detach(m, z, w, leaf)
            if leaf:
                return
            deg, xr = m.deg, m.xr
            assert deg[w] == 0 and deg[z] >= 1
            assert m.nleaf[z] == sum(1 for x in range(len(deg)) if deg[x] == 1 and xr[x] == z)
            if deg[z] == 1:
                seen["leaf"] += 1
                assert z in m.leaf_heap and z in m.leaves_at[xr[z]]
                return
            if m.nleaf[z] == deg[z] - 1:
                seen["pre-leaf"] += 1
                assert z in m.pre_heap
            if m.special_at and deg[z] == 2 and m.nleaf[z]:
                seen["special"] += 1
                for x in m.adj[z]:
                    if deg[x] and x in m.special_at:
                        assert z in m.special_at[x]

        monkeypatch.setattr(equitable_module._Machine, "detach", watched)
        for t, k in machine_trees():
            assert_good(t, equitable_coloring(t, k), k)
        assert seen["leaf"] and seen["pre-leaf"] and seen["special"], seen

    @pytest.mark.parametrize("u_leaf", [False, True])
    def test_u_next_to_v0(self, u_leaf):
        # v0 = 1 has met the special case; the pendant pair 4-8 hangs off u = 2,
        # which also carries the leaf 3 when ``u_leaf``
        edges = [(1, 2), (2, 4), (4, 8), (1, 5), (1, 6), (1, 7)] + [(2, 3)] * u_leaf
        t = build_tree(edges + [(1, 3)] * (not u_leaf), 8)
        m = equitable_module._Machine(t, *_source_lists(t))
        m.special_at[1] = []
        leaves = m.leaves
        m.deg[8] = m.deg[4] = 0
        m.n_act -= 2
        m.detach(2, 4, 0)
        assert (m.n_act, m.leaves, m.deg[2], m.xr[2]) == (6, leaves - 1 + (not u_leaf), 1 + u_leaf, 1 ^ 3 * u_leaf)
        if u_leaf:  # a new pre-leaf, and special next to v0
            assert m.nleaf[2] == 1 and 2 in m.pre_heap and m.special_at[1] == [2]
        else:  # a leaf of v0
            assert 2 in m.leaf_heap and 2 in m.leaves_at[1] and m.nleaf[1] == 5 and m.special_at[1] == []


class TestMachineSetUp:
    def test_heaps_are_the_taxonomy_of_the_lists(self, monkeypatch):
        # the k >= 4 colorings hand over the lists of their last layer, with
        # the shed vertices at degree 0
        checked = collections.Counter()

        def made(m):
            classes = _vertex_classes(m.deg, m.xr)
            pre = (VertexClass.PRE_LEAF, VertexClass.SPECIAL_PRE_LEAF)
            assert m.pre_heap == [v for v, c in enumerate(classes) if c in pre]
            assert m.leaf_heap == [v for v, c in enumerate(classes) if c == VertexClass.LEAF]
            for v, heap in enumerate(m.leaves_at):
                assert heap == [w for w in m.leaf_heap if m.xr[w] == v]
            checked[m.deg.count(0) > 1] += 1

        watch_machines(monkeypatch, made)
        for t, k in machine_trees():
            assert_good(t, equitable_coloring(t, k), k)
        for n in (200, 2_000):
            t = sample_labeled_tree(n, 7)
            assert_good(t, equitable_coloring(t, 3), 3)
        assert checked[False] > 50 and checked[True] > 50, checked

    def test_level_hubs_are_a_degree_scan(self, monkeypatch):
        # the cap vertex, the special case's v0 and the delegated hub pair of
        # a level are the smallest vertices of degree k = n // 3, by a scan
        levels = collections.Counter()
        machine = None
        wanted = []  # per level record: the vertices of degree k at its level

        class Records(list):
            def append(self, rec):
                if rec[0] != "leaf":
                    deg = machine.deg
                    wanted.append([v for v in range(len(deg)) if deg[v] == machine.n_act // 3])
                list.append(self, rec)

        def made(m):
            nonlocal machine
            machine = m
            m.records = Records()

        lemma_run = equitable_module._Machine.lemma_run

        def delegated(m, u, v, p, q):
            assert [u, v] == [x for x in range(len(m.deg)) if m.deg[x] == m.n_act // 3][:2]
            levels["delegate:hubs"] += 1
            lemma_run(m, u, v, p, q)

        watch_machines(monkeypatch, made)
        monkeypatch.setattr(equitable_module._Machine, "lemma_run", delegated)
        rng = random.Random(26)
        crowded = filter(None, (crowded_tree(rng, hubs) for hubs in (False, True) * 40))
        for t, k in [(t, 3) for t in crowded if t.max_degree * 3 <= t.n] + machine_trees():
            del wanted[:]
            cert = equitable_coloring(t, k)
            assert_good(t, cert, k)
            steps = [r for r in machine.records if r[0] != "leaf"]
            routes = [r for r in cert.trace if r.startswith("ext:") and r != "ext:leaf"]
            assert len(steps) == len(routes) == len(wanted)
            for rec, route, scan in zip(steps, routes, wanted):
                levels[route] += 1
                assert len(scan) <= 1
                assert bool(scan) == (route.endswith("capped") or route.startswith("ext:special"))
                if route in ("ext:pendant-capped", "ext:special"):
                    assert rec[0] == "pair" and rec[5] == scan[0]  # c: v2's neighbor, or v0
                elif route == "ext:special-swap":
                    assert rec[0] == "pair" and rec[2] == scan[0]  # a: v0
        rare = ("ext:pendant-capped", "ext:triple-capped", "ext:special", "ext:special-swap", "delegate:hubs")
        assert levels["ext:pendant"] and all(levels[r] for r in rare), levels


class TestLeafRecords:
    """``run3``'s opening peels and ``lemma_run``'s two-hub peels push the
    same ``leaf`` record; only a two-hub peel ever unwinds next to a class
    lighter than both others, where a far leaf is swapped in."""

    def test_only_a_two_hub_run_swaps(self, monkeypatch):
        hub_machine = None  # the newest machine that ran lemma_run
        swaps = collections.Counter()
        lemma_run = equitable_module._Machine.lemma_run
        swap = equitable_module._Machine._swap_far_leaf

        def marked(m, u, v, p, q):
            nonlocal hub_machine
            hub_machine = m
            lemma_run(m, u, v, p, q)

        def watched(m, c):
            assert m is hub_machine and m.hubs is not None
            swaps["delegated" if "delegate:hubs" in m.trace else "hub_pair_coloring"] += 1
            return swap(m, c)

        monkeypatch.setattr(equitable_module._Machine, "lemma_run", marked)
        monkeypatch.setattr(equitable_module._Machine, "_swap_far_leaf", watched)
        for t, k in machine_trees():
            assert_good(t, equitable_coloring(t, k), k)
        rng = random.Random(5)
        for t in (planted_hub_tree(rng) for _ in range(40)):
            for _, k, pair, _, cert in every_construction(t):
                assert_good(t, cert, k, constraint=pair)
        assert swaps["delegated"] and swaps["hub_pair_coloring"], swaps


# ---------------------------------------------------------------------------
# The machine is built from a degree list and an XOR list; rows are read only
# on the rare routes.

ROWLESS_ROUTES = {"ext:leaf", "ext:pendant", "ext:triple", "direct:path", "direct:search"}
ALL_ROUTES = ROWLESS_ROUTES | {
    "direct:trivial",
    "direct:spine",
    "delegate:hubs",
    "peel:hub-safe",
    "ext:triple-capped",
    "ext:pendant-capped",
    "ext:special",
    "ext:special-swap",
    "reduce:k4",
    "reduce:k5",
    "reduce:k6",
}


class TestRowFreeMachine:
    def test_k3_coloring_builds_no_rows(self):
        checked = 0
        for seed in range(1, 40):
            decoded = sample_labeled_tree(300, seed)
            if decoded.max_degree * 3 > decoded.n:
                continue
            edges = list(decoded.edges())
            random.Random(seed).shuffle(edges)
            parsed = parse_tree_text(f"{decoded.n}\n" + "".join(f"{v} {u}\n" if (u + v) % 2 else f"{u} {v}\n" for u, v in edges))
            certs = [equitable_coloring(t, 3) for t in (decoded, parsed)]
            if not set(certs[0].trace) <= ROWLESS_ROUTES:
                continue
            for t, cert in zip((decoded, parsed), certs):
                assert_good(t, cert, 3)
                assert held(t) == GRAPH_FORMS  # no "adj"
            assert certs[0].coloring == certs[1].coloring and certs[0].trace == certs[1].trace
            checked += 1
        assert checked >= 20

    def test_base_search_gets_the_active_rows(self, monkeypatch):
        # the machine's rows, filtered to the vertices _search_colors gets,
        # are the rows of the active tree that deg and xr describe
        search, base = equitable_module._search_colors, equitable_module._Machine._base_search
        machines = []
        routes = collections.Counter()

        def based(m, constraints):
            machines.append(m)
            base(m, constraints)

        def searched(vertices, adj, k, targets, constraints=()):
            m = machines[-1]
            assert vertices == m.active_vertices() and len(vertices) <= 12
            active = peeled_rows(m.deg, m.xr)
            assert {v: [w for w in adj[v] if w in vertices] for v in vertices} == {v: active[v] for v in vertices}
            return search(vertices, adj, k, targets, constraints)

        monkeypatch.setattr(equitable_module._Machine, "_base_search", based)
        monkeypatch.setattr(equitable_module, "_search_colors", searched)
        rng = random.Random(21)
        for n in range(10, 41):
            for seed in range(1, 9):
                t = sample_labeled_tree(n, seed)
                for k in range(3, 7):
                    if t.max_degree * k <= n:
                        routes.update(equitable_coloring(t, k).trace)
            for _ in range(3):
                t = planted_hub_tree(rng)
                for tag, k, pair, hubs, cert in every_construction(t):
                    routes.update(cert.trace)
        assert routes["direct:search"] > 100 and routes["delegate:hubs"] > 0, routes
        assert len(machines) == routes["direct:search"]

    def test_no_construction_derives_rows(self):
        # every route, the rare ones included, reads only the rows that the
        # machine rebuilds from its own lists, and every pair check, a
        # constrained path's included, reads the degree and XOR lists
        routes = collections.Counter()
        rng = random.Random(23)
        draws = [planted_hub_tree(rng) for _ in range(30)] + [crowded_tree(rng, hubs) for hubs in (False, True) * 40]
        draws += [hub_arms_tree(seed, 8) for seed in range(10)] + [shuffled_path(n, n) for n in (4, 5, 6, 9, 31)]
        for twin in filter(None, draws):
            for tag, k, pair, hubs, cert in every_construction(twin):
                t = build_tree(list(twin.edges()), twin.n)
                if hubs:
                    again = hub_pair_coloring(t, *hubs, *pair)
                elif pair:
                    again = equitable_three(t, pair)
                else:
                    again = equitable_coloring(t, k)
                assert (again.coloring, again.trace) == (cert.coloring, cert.trace)
                assert held(t) == GRAPH_FORMS, tag
                routes.update(again.trace)
        for n in (1, *range(10, 61)):
            for seed in range(1, 4):
                for k in range(3, 7):
                    t = sample_labeled_tree(n, seed) if n > 1 else build_tree([], 1)
                    if t.max_degree * k <= n:
                        routes.update(equitable_coloring(t, k).trace)
                        assert held(t) == GRAPH_FORMS, (n, seed, k)
        assert set(routes) == ALL_ROUTES, ALL_ROUTES - set(routes)
