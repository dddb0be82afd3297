"""Run one fixed, seeded corpus through two checkouts of arbor and report the
first case whose outputs differ.

    python3 tools/diff_checkouts.py --parent ../parent-checkout

This checkout is imported as ``arbor`` and the other one, through
``load_side`` of ``bench/layers.py``, under a second package name.  Each side
builds its own trees from the same edge lists, texts and Prüfer codes, and
each case compares what both sides return: colorings, traces, class sizes
and monochromatic edge counts of a certificate; n, edges, degrees and rows
of a graph; vertex classes, pre-leaves, Prüfer codes and ``arbor check``
output; or the type, message, reason and dump of an exception.  The
corpus:

- random trees decoded from Prüfer codes, and the same trees as shuffled,
  flipped edge-list text, at n = 2..2,000, colored at k = 3..8;
- ``scale``: random trees decoded from Prüfer codes at n = 10^4 and
  5 * 10^4, colored at k = 3..6;
- paths on shuffled ids, n = 1..2,000, colored at k = 3..8 and at k = 3 under each
  ordered pair of their pre-leaves;
- planted-hub and crowded trees (``tests/test_golden.py``): every
  construction of ``every_construction``, ``hub_pair_coloring`` included;
- ``grown``: ``grown_tree`` draws, a hub with arms on shuffled ids grown
  from the tree of ``TestPendantStep::test_u_next_to_v0``, at k = 3 and
  under each ordered pair of their three smallest pre-leaves;
- decoded trees at n = 4..60 and planted-hub trees through
  ``equitable_three`` and ``hub_pair_coloring`` (hubs: the two vertices
  of largest degree) under every ordered pair of some pre-leaves, leaves,
  internal vertices and out-of-range ids, equal ends included;
- decoded trees and the same trees as edge-list text at n = 2..2,000, and
  ``adversarial_labels`` draws (``tests/test_equitable.py``) at n = 4..600:
  ``classify_vertex`` of every vertex and of ids 0 and n + 1,
  ``pre_leaves``, ``prufer_encode`` and the exit code and bytes of
  ``arbor check``; the draws are colored at k = 3..8 too;
- mutated edge lists (``tests/test_trees.py``) through ``build_tree`` and,
  as text, ``parse_tree_text``;
- mutated edge lists of graphs that are not trees (``tests/test_trees.py``)
  through ``build_graph``, and induced subgraphs of decoded trees
  (``induced_subtree``, with their vertex maps) and their completions
  under a cap (``complete_forest_to_tree``);
- the malformed texts of the ``parse_tree_text`` refusal tables of
  ``tests/test_trees.py`` and ``tests/test_cli.py``.

It prints a line per section, then the route tokens of perfbench's
``ROUTES`` that no coloring of the corpus fired.  The exit code is 0 when
every case agrees, 1 at the first difference.  A whole run, 186,335 cases,
took 47 s on a 2-core host.

Planted faults (mutants) that a run reports, each with the first section
that does; each was last checked against a parent without it:

- ``_Machine.detach`` skips the special-heap push of a vertex that loses
  a pendant pair's p and is left special (``leaf and`` added to the test
  before that push): ``grown``.
- ``_Machine.detach`` skips the special-heap push of a vertex left a
  special pre-leaf as its other neighbor becomes a leaf
  (``False and`` added to that test): ``decoded_and_parsed``.
- ``_Machine._swap_far_leaf`` picks the largest leaf of its branch
  (``max`` for ``min``): ``constructions``, at planted tree 99.
- ``join_forest`` attaches a component at its largest leaf
  (``max(leaves)``): ``decoded_and_parsed``.
- ``_simple_edges`` checks for a self-loop before an out-of-range id:
  ``mutated``.
- ``_pre_leaf_pair`` checks only p, or also accepts a leaf for p and q:
  ``pairs``.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import os
import random
import sys
import tempfile
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TREE_SIZES = (*range(2, 41), 60, 120, 300, 600, 1_000, 2_000)
SCALE_SIZES = (10_000, 50_000)
KS = range(3, 9)


def outcome(fn, *args):
    """What both sides must agree on: the result in plain data, or the exception."""
    try:
        result = fn(*args)
    except Exception as exc:  # an unexpected type is compared too, by name
        return ("raised", type(exc).__name__, str(exc), getattr(exc, "reason", None), getattr(exc, "dump", None))
    if hasattr(result, "coloring"):
        return ("certificate", result.coloring.col, result.trace, result.class_sizes, result.mono_edges)
    if hasattr(result, "edge_ends"):
        return ("graph", result.n, sorted(result.edges()), result.degree_sequence(), result.adj)
    return ("value", result)


class Sides:
    """The two checkouts' modules, and the running tallies of a run."""

    def __init__(self, parent: str):
        sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), os.path.join(ROOT, "bench")]
        from layers import load_side

        from arbor import equitable, random_trees, trees

        self.change = (equitable, trees, random_trees)
        self.parent = load_side("arbor_parent", os.path.abspath(parent))[:3]
        self.cases = 0
        self.routes: Counter = Counter()

    def check(self, label: str, shown: str, call) -> tuple:
        """Run ``call(equitable, trees, random_trees)`` on both sides; on a
        difference print the case and its input ``shown``, and exit 1."""
        got = call(*self.change)
        want = call(*self.parent)
        self.cases += 1
        if got != want:
            print(f"DIFFERENT: {label}\n--- input ---\n{shown}\n--- change ---\n{got!r}\n--- parent ---\n{want!r}")
            sys.exit(1)
        if got[0] == "certificate":
            self.routes.update(got[2])
        return got


def tree_text(n: int, edges) -> str:
    return f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def colorings(sides: Sides, label: str, shown: str, build, ks=KS) -> None:
    """``equitable_coloring`` at every k of ``ks`` on the tree ``build(trees, random_trees)``."""
    for k in ks:
        sides.check(f"{label} k={k}", shown, lambda eq, tr, rt: outcome(lambda: eq.equitable_coloring(build(tr, rt), k)))


def decoded_and_parsed(sides: Sides) -> None:
    rng = random.Random(2_101)
    for n in TREE_SIZES:
        for trial in range(100 if n <= 40 else 40 if n <= 600 else 6):
            code = [rng.randint(1, n) for _ in range(n - 2)]
            shown = f"{n}\nP: {' '.join(map(str, code))}\n"
            colorings(sides, f"decoded n={n} code {trial}", shown, lambda tr, rt: rt.prufer_decode(code, n))
            tree = sides.change[2].prufer_decode(code, n)
            edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in tree.edges()]
            rng.shuffle(edges)
            text = tree_text(n, edges)
            colorings(sides, f"parsed n={n} text {trial}", text, lambda tr, rt: tr.parse_tree_text(text))


def scale(sides: Sides) -> None:
    """Decoded random trees at n = 10^4 and 5 * 10^4, colored at k = 3..6:
    long runs of pendant levels, and the late levels whose k = n // 3 is
    at most the tree's maximum degree."""
    rng = random.Random(2_109)
    for n in SCALE_SIZES:
        for trial in range(3):
            code = [rng.randint(1, n) for _ in range(n - 2)]
            shown = f"{n}\nP: {' '.join(map(str, code))}\n"
            colorings(sides, f"scale n={n} code {trial}", shown, lambda tr, rt: rt.prufer_decode(code, n), range(3, 7))


def paths(sides: Sides) -> None:
    rng = random.Random(2_102)
    for n in (*range(1, 31), 59, 60, 61, 300, 2_000):
        walk = rng.sample(range(1, n + 1), n)
        text = tree_text(n, zip(walk, walk[1:]))
        colorings(sides, f"path n={n}", text, lambda tr, rt: tr.parse_tree_text(text))
        ends = (walk[1], walk[-2]) if n >= 4 else ()
        for pair in itertools.permutations(ends):
            sides.check(
                f"path n={n} constraint {pair}",
                text,
                lambda eq, tr, rt: outcome(lambda: eq.equitable_three(tr.parse_tree_text(text), pair)),
            )


def constructions(sides: Sides) -> None:
    """Every construction of ``every_construction`` on planted-hub and crowded trees."""
    from test_golden import crowded_tree, planted_hub_tree

    def every(eq, tr, t):
        out = []
        for k in (3, 4, 5):
            out.append(outcome(eq.equitable_coloring, t, k))
        if t.max_degree * 3 > t.n:
            return ("runs", out)
        pls = tr.pre_leaves(t)
        for pair in itertools.combinations(pls, 2):
            out.append(outcome(eq.equitable_three, t, pair))
        hubs = [x for x in range(1, t.n + 1) if 3 * t.degree(x) >= t.n]
        for u, v in itertools.combinations(hubs, 2):
            for pair in itertools.combinations(pls, 2):
                out.append(outcome(eq.hub_pair_coloring, t, u, v, *pair))
        return ("runs", out)

    rng = random.Random(2_103)
    made = [("planted", planted_hub_tree(rng)) for _ in range(300)]
    made += [("crowded", crowded_tree(rng, hubs)) for hubs in (False, True) * 600]
    for i, (kind, t) in enumerate(made):
        if t is None:
            continue
        text = tree_text(t.n, t.edges())
        got = sides.check(f"{kind} tree {i}", text, lambda eq, tr, rt: every(eq, tr, tr.parse_tree_text(text)))
        for run in got[1]:
            if run[0] == "certificate":
                sides.routes.update(run[2])


ARM_TIPS = {  # the edges of an arm past the hub, as offsets from its first vertex
    "u": ((0, 1), (0, 2), (2, 3)),
    "2-path": ((0, 1),),
    "3-path": ((0, 1), (1, 2)),
    "fork": ((0, 1), (0, 2)),
}


def grown_tree(rng: random.Random):
    """(n, edges) of a tree grown from the one of
    ``TestPendantStep::test_u_next_to_v0`` (``tests/test_equitable.py``, u
    with a leaf): hub 1 with an arm 2 that carries the leaf 3 and the
    pendant pair 4-5, 3..12 more arms (that ``u`` shape again, 2-paths,
    3-paths and forks) and a tail path that makes n = 3 deg(1), on shuffled
    ids; None when the arms leave no room for the tail."""
    edges = [(1, 2), (2, 3), (2, 4), (4, 5)]
    a = 6  # the next id
    arms = rng.randint(3, 12)
    for _ in range(arms):
        tips = ARM_TIPS[rng.choice(("u", "2-path", "2-path", "2-path", "3-path", "fork"))]
        edges += [(1, a), *((a + i, a + j) for i, j in tips)]
        a += 1 + max(j for _, j in tips)
    n = 3 * (arms + 2)
    if a > n:
        return None
    edges += [(1 if x == a else x - 1, x) for x in range(a, n + 1)]
    ids = rng.sample(range(1, n + 1), n)
    return n, [(ids[u - 1], ids[v - 1]) for u, v in edges]


def grown(sides: Sides) -> None:
    """``grown_tree`` draws at k = 3 and under each ordered pair of their
    three smallest pre-leaves: special levels at the hub v0, then a pendant
    level that leaves its u special next to v0, whose special heap must get
    u."""
    rng = random.Random(2_110)
    for i in range(400):
        made = grown_tree(rng)
        if made is None:
            continue
        text = tree_text(*made)
        colorings(sides, f"grown tree {i}", text, lambda tr, rt: tr.parse_tree_text(text), (3,))
        pls = sides.change[1].pre_leaves(sides.change[1].parse_tree_text(text))
        for pair in itertools.permutations(pls[:3], 2):
            sides.check(
                f"grown tree {i} constraint {pair}",
                text,
                lambda eq, tr, rt: outcome(lambda: eq.equitable_three(tr.parse_tree_text(text), pair)),
            )


def pairs(sides: Sides) -> None:
    """``equitable_three`` and ``hub_pair_coloring`` under pairs that are and
    are not two distinct pre-leaves, on decoded and planted-hub trees."""
    from test_golden import planted_hub_tree

    rng = random.Random(2_107)
    made = [(n, [rng.randint(1, n) for _ in range(n - 2)]) for n in range(4, 61) for _ in range(4)]
    made += [(t.n, t) for t in (planted_hub_tree(rng) for _ in range(120))]
    for i, (n, source) in enumerate(made):
        t = sides.change[2].prufer_decode(source, n) if isinstance(source, list) else source
        text = tree_text(n, t.edges())
        pls = sides.change[1].pre_leaves(t)
        leaves = [v for v in range(1, n + 1) if t.degree(v) == 1]
        inner = [v for v in range(1, n + 1) if t.degree(v) > 1 and v not in pls]
        hubs = sorted(range(1, n + 1), key=lambda v: (-t.degree(v), v))[:2]
        ends = {*pls[:3], *leaves[:2], *inner[:2], 0, -1, n + 1}
        for pair in itertools.product(sorted(ends), repeat=2):
            shown = f"{text}# pair {pair}, hubs {hubs}"
            sides.check(
                f"pair tree {i} {pair}",
                shown,
                lambda eq, tr, rt: outcome(eq.equitable_three, tr.parse_tree_text(text), pair),
            )
            sides.check(
                f"hub pair tree {i} {pair}",
                shown,
                lambda eq, tr, rt: outcome(eq.hub_pair_coloring, tr.parse_tree_text(text), *hubs, *pair),
            )


def taxonomy(sides: Sides) -> None:
    """``classify_vertex`` of every vertex and of ids 0 and n + 1,
    ``pre_leaves``, ``prufer_encode`` and the exit code and bytes of ``arbor
    check``, on decoded and edge-list trees and on ``adversarial_labels``
    draws, which are colored at every k of ``KS`` too."""
    from test_equitable import adversarial_labels

    def report(path, text):
        def call(eq, tr, rt):
            t = tr.parse_tree_text(text)
            classes = [outcome(lambda: tr.classify_vertex(t, v).value) for v in range(t.n + 2)]
            cli = importlib.import_module(f"{tr.__package__}.cli")
            status = cli.main(["check", "--in", path, "--out", path + ".json"])
            with open(path + ".json", "rb") as fh:
                return ("taxonomy", classes, tr.pre_leaves(t), outcome(rt.prufer_encode, t), status, fh.read())

        return call

    rng = random.Random(2_108)
    cases = []
    for n in TREE_SIZES:
        for trial in range(20 if n <= 40 else 4 if n <= 600 else 2):
            code = [rng.randint(1, n) for _ in range(n - 2)]
            cases.append((f"decoded n={n} code {trial}", f"{n}\nP: {' '.join(map(str, code))}\n", False))
            tree = sides.change[2].prufer_decode(code, n)
            edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in tree.edges()]
            rng.shuffle(edges)
            cases.append((f"parsed n={n} text {trial}", tree_text(n, edges), False))
    for n in (*range(4, 61), 120, 300, 600):
        tree = adversarial_labels(sides.change[2].prufer_decode([rng.randint(1, n) for _ in range(n - 2)], n))
        cases.append((f"adversarial n={n}", tree_text(n, tree.edges()), True))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tree.txt")
        for label, text, colored in cases:
            with open(path, "w") as fh:
                fh.write(text)
            sides.check(f"taxonomy {label}", text, report(path, text))
            if colored:
                colorings(sides, label, text, lambda tr, rt: tr.parse_tree_text(text))


def mutated(sides: Sides) -> None:
    from test_trees import mutated_edge_lists

    for i, (edges, n) in enumerate(mutated_edge_lists(2_104, 20_000)):
        shown = f"n={n} edges={edges!r}"
        sides.check(f"mutated edge list {i}", shown, lambda eq, tr, rt: outcome(tr.build_tree, list(edges), n))
        text = tree_text(n, edges)
        sides.check(f"mutated edge text {i}", text, lambda eq, tr, rt: outcome(tr.parse_tree_text, text))


def graphs(sides: Sides) -> None:
    """Graph edge lists through ``build_graph``; induced subgraphs of decoded trees and their completions."""
    from test_trees import mutated_graph_edge_lists

    for i, (edges, n) in enumerate(mutated_graph_edge_lists(2_105, 20_000)):
        shown = f"n={n} edges={edges!r}"
        sides.check(f"mutated graph edge list {i}", shown, lambda eq, tr, rt: outcome(tr.build_graph, list(edges), n))
    rng = random.Random(2_106)
    for i in range(4_000):
        n = rng.randint(1, 60)
        code = [rng.randint(1, n) for _ in range(n - 2)]
        removed = rng.sample(range(1, n + 1), rng.randint(0, n - 1))
        cap = rng.choice((0, 1, 2, 2, 3, 4, 6))
        shown = f"{n}\nP: {' '.join(map(str, code))}\n# removed {removed}, cap {cap}"

        def induce(eq, tr, rt):
            sub = tr.induced_subtree(rt.prufer_decode(code, n) if n >= 2 else tr.build_tree([], 1), removed)
            completed = outcome(tr.complete_forest_to_tree, sub.graph, cap)
            return outcome(lambda: sub.graph), sub.old_to_new, sub.new_to_old, completed

        sides.check(f"induced subgraph {i}", shown, induce)


def malformed(sides: Sides) -> None:
    """The texts of every parametrized ``parse_tree_text`` refusal table."""
    import test_cli
    import test_trees

    tables = (test_trees.TestTextFormat.test_malformed_text_reason, test_cli.TestCheckCommand.test_malformed_text)
    for test in tables:
        (mark,) = [m for m in test.pytestmark if m.name == "parametrize"]
        for text, _ in mark.args[1]:
            sides.check(f"malformed text {text!r}", text, lambda eq, tr, rt: outcome(tr.parse_tree_text, text))


SECTIONS = (decoded_and_parsed, scale, paths, constructions, grown, pairs, taxonomy, mutated, graphs, malformed)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="the other checkout")
    args = p.parse_args(argv)
    sides = Sides(args.parent)
    t0 = time.perf_counter()
    for section in SECTIONS:
        before = sides.cases
        section(sides)
        print(f"{section.__name__:20} {sides.cases - before:7} cases agree  ({time.perf_counter() - t0:.0f} s)", flush=True)
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from spans import ROUTES

    missing = [tok for tok in ROUTES if not sides.routes[tok]]
    print(f"{sides.cases} cases agree; route tokens not reached: {', '.join(missing) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
