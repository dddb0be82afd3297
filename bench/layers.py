"""Per-layer timings of arbor's constructions, written as one JSON file.

Run from the repository root:

    python3 bench/layers.py --out BENCH_<n>.json
    python3 bench/layers.py --out BENCH_<n>.json --parent ../parent-checkout

Rows (seconds per call; each call's input is made before the timing, so
only the named layer is timed):

- ``peel3``: a ``_Machine`` then ``run3(None)``, the k=3 peel and unwind,
  on one tree of each ``PEEL_SHAPES`` shape of ``tests/test_equitable.py``
  at n = 120, 2,000, 10^4 and 10^5.  The random shape takes trees of
  seeds 1, 2, ...; the others repeat their one tree.  A shape whose maximum
  degree exceeds n/3 at some n has no row there.  The machine is built
  from the tree's degree and XOR lists.
- ``machine``: that set-up alone, lists included, on random trees at
  n = 2,000, 10^4 and 10^5 decoded before every repeat, untimed, as in a
  coloring of a decoded tree.
- ``pre_leaves``, ``prufer_encode`` and ``active_rows`` (the machine's
  rows of the whole tree) on random trees at n = 2,000, 10^4 and 10^5,
  decoded before every repeat, untimed, and for ``active_rows`` given a
  fresh machine, untimed.
- ``parse_tree_text`` on the text of random trees at n = 2,000, 10^4 and
  10^5: shape ``edges``, the edge lines shuffled and each flipped with
  probability 1/2; shape ``code``, a ``P:`` code line.
- ``equitable``: ``equitable_coloring(t, k)`` for k = 4, 5 and 6 on random
  trees at n = 120 and 2,000: the k>=4 reduction plus the 3-coloring and
  the check.  Shape ``random`` builds each tree from its edge list, so its
  rows exist before the call; shape ``decoded`` (n = 120 only) decodes each
  tree from its Prüfer code before every repeat, untimed, so the call gets
  it as ``run_equitable_fraction`` does, with no rows built yet.  Shape
  ``path`` colors the path 1-2-...-n at k = 3 and 4 and n = 120, 2,000
  and 10^5, a route that builds no peeling machine.
- The balanced trial of ``run_balanced_fraction``, on random trees at
  n = 200, 10^3 and 10^4: ``prufer_decode`` (shape ``code``, the decode
  itself), and ``is_balanced_graph`` and ``verify_balanced`` (shape
  ``decoded``: trees decoded before every repeat, untimed, and for
  ``verify_balanced`` colored by ``is_balanced_graph``, untimed).  At these
  n every tree takes the ones/twos shortcut.
- ``balance_exact`` on random sequences of length 100, 400 and 2,000 with
  values in 3..39 and in 3..8 (shape ``3..39``, ``3..8``), the value
  ranges of perfbench's ``balance-seq`` workload, so the exact DP runs.

A repeat times ``calls`` calls back to back (more calls at small n, so a
repeat takes some milliseconds) and keeps their mean; a row keeps all eleven
repeats and their median (five repeats left single rows of unchanged code
20% apart on a shared 2-core host).  ``--parent`` imports another checkout's
``src/arbor`` under a second name and times it in the same repeats,
alternating which side goes first; both sides get trees built by their
own ``build_tree`` from the same edges (or decoded by their own
``prufer_decode``), and a row records whether their outputs agree
(colorings, edge sets, balance reports, or F with the side I).  The file
also records the machine, Python and the commit of each checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import importlib.util
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PEEL_SIZES = (120, 2_000, 10_000, 100_000)
SETUP_SIZES = (2_000, 10_000, 100_000)
REDUCE_KS = (4, 5, 6)
REDUCE_SIZES = (120, 2_000)
PATH_KS = (3, 4)
PATH_SIZES = (120, 2_000, 100_000)
BALANCE_SIZES = (200, 1_000, 10_000)
SEQ_LENGTHS = (100, 400, 2_000)
SEQ_RANGES = ((3, 39), (3, 8))
REPEATS = 11
WORK_PER_REPEAT = 24_000  # vertices colored per repeat, so small-n repeats last some milliseconds


def load_side(name: str, root: str):
    """The ``equitable``, ``trees``, ``random_trees`` and ``balance`` modules of ``root``/src/arbor, imported as package ``name``."""
    init = os.path.join(root, "src", "arbor", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"layers.py: {init} not found")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[os.path.dirname(init)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return tuple(importlib.import_module(f"{name}.{module}") for module in ("equitable", "trees", "random_trees", "balance"))


def checkout(root: str) -> dict:
    """The commit of the checkout at ``root``, and whether its tracked files differ from it."""
    try:
        head = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True, check=True)
        diff = subprocess.run(["git", "-C", root, "diff", "--quiet", "HEAD"], capture_output=True)
    except (OSError, subprocess.CalledProcessError):
        return {"commit": None, "modified": None}
    return {"commit": head.stdout.strip(), "modified": diff.returncode != 0}


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": model,
        "cpu_count": os.cpu_count(),
    }


def machine_maker(equitable):
    """One side's k=3 machine of a tree, from its degree and XOR lists."""
    machine, lists = equitable._Machine, equitable._source_lists
    return lambda t: machine(t, *lists(t))


def peel3(equitable):
    """The ``peel3`` call of one side."""
    make = machine_maker(equitable)

    def run(t):
        m = make(t)
        m.run3(None)
        return m.col

    return run


def machine_state(m) -> tuple:
    """What two sides' fresh machines must agree on."""
    return m.deg, m.xr, m.nleaf, m.leaf_heap, m.pre_heap, m.n_act, m.leaves


def cases(shapes, sample_labeled_tree, prufer_encode):
    """(layer, shape, n, k, items) for every row: the edge list of each
    call's tree, one list object per distinct tree, its Prüfer code (shapes
    ``decoded`` and ``code``), its text (``parse_tree_text``), or its value
    sequence (``balance_exact``)."""
    for n in PEEL_SIZES:
        calls = max(1, WORK_PER_REPEAT // n)
        for shape in sorted(shapes):
            if shape == "random":
                trees = [sample_labeled_tree(n, seed) for seed in range(1, calls + 1)]
            else:
                trees = [shapes[shape](n)]
            if max(t.max_degree for t in trees) * 3 > n:
                continue
            edges = [list(t.edges()) for t in trees]
            yield "peel3", shape, n, 3, edges if shape == "random" else edges * calls
    for n in SETUP_SIZES:
        made = [sample_labeled_tree(n, seed) for seed in range(1, max(1, WORK_PER_REPEAT // n) + 1)]
        codes = [prufer_encode(t) for t in made]
        for layer in ("machine", "pre_leaves", "prufer_encode", "active_rows"):
            yield layer, "decoded", n, 3 if layer in ("machine", "active_rows") else None, codes
        rng = random.Random(n)
        texts = []
        for t in made:
            edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in t.edges()]
            rng.shuffle(edges)
            texts.append(f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        yield "parse_tree_text", "edges", n, None, texts
        yield "parse_tree_text", "code", n, None, [f"{n}\nP: " + " ".join(map(str, prufer_encode(t))) + "\n" for t in made]
    trees = {n: [sample_labeled_tree(n, seed) for seed in range(1, WORK_PER_REPEAT // n + 1)] for n in REDUCE_SIZES}
    for n in REDUCE_SIZES:
        for k in REDUCE_KS:
            yield "equitable", "random", n, k, [list(t.edges()) for t in trees[n] if t.max_degree * k <= n]
    n = REDUCE_SIZES[0]
    for k in REDUCE_KS:
        yield "equitable", "decoded", n, k, [prufer_encode(t) for t in trees[n] if t.max_degree * k <= n]
    for n in PATH_SIZES:
        edges = [(i, i + 1) for i in range(1, n)]
        for k in PATH_KS:
            yield "equitable", "path", n, k, [edges] * max(1, WORK_PER_REPEAT // n)
    for n in BALANCE_SIZES:
        codes = [prufer_encode(sample_labeled_tree(n, seed)) for seed in range(1, WORK_PER_REPEAT // n + 1)]
        yield "prufer_decode", "code", n, None, codes
        yield "is_balanced_graph", "decoded", n, 2, codes
        yield "verify_balanced", "decoded", n, 2, codes
    rng = random.Random(15)
    for n in SEQ_LENGTHS:
        for lo, hi in SEQ_RANGES:
            yield "balance_exact", f"{lo}..{hi}", n, None, [[rng.randint(lo, hi) for _ in range(n)] for _ in range(2_000 // n)]


def tree_maker(trees, random_trees, shape: str, n: int, items: list):
    """A function giving the trees of one repeat: built once from edge
    lists, or decoded afresh from Prüfer codes (shape ``decoded``)."""
    if shape == "decoded":
        return lambda: [random_trees.prufer_decode(code, n) for code in items]
    cache: dict = {}
    for e in items:
        if id(e) not in cache:
            cache[id(e)] = trees.build_tree(e, n)
    built = [cache[id(e)] for e in items]
    return lambda: built


def layer_call(modules, layer: str, shape: str, n: int, k: int, items: list):
    """(make, run, output) of one side's row: ``make()`` gives the inputs of
    one repeat, untimed; ``run`` is the timed call on one input; ``output``
    turns its result into what both sides must agree on."""
    equitable, trees, random_trees, balance = modules
    if layer == "prufer_decode":
        return (lambda: items), (lambda code: random_trees.prufer_decode(code, n)), (lambda t: sorted(t.edges()))
    if layer == "balance_exact":
        return (lambda: items), balance.balance_exact, (lambda result: (result[0], result[1].I))
    if layer == "parse_tree_text":
        return (lambda: items), trees.parse_tree_text, (lambda t: (sorted(t.edges()), t.degree_sequence()))
    make = tree_maker(trees, random_trees, shape, n, items)
    if layer == "is_balanced_graph":
        return make, balance.is_balanced_graph, (lambda coloring: None if coloring is None else coloring.col)
    if layer == "verify_balanced":

        def colored():
            return [(t, balance.is_balanced_graph(t)) for t in make()]

        return colored, (lambda pair: balance.verify_balanced(*pair)), dataclasses.astuple
    if layer == "peel3":
        return make, peel3(equitable), list
    if layer == "machine":
        return make, machine_maker(equitable), machine_state
    if layer == "pre_leaves":
        return make, trees.pre_leaves, list
    if layer == "prufer_encode":
        return make, random_trees.prufer_encode, list
    if layer == "active_rows":
        machines = machine_maker(equitable)
        return (lambda: [machines(t) for t in make()]), (lambda m: m.active_rows()), (lambda rows: list(map(tuple, rows)))
    return make, (lambda t: equitable.equitable_coloring(t, k)), (lambda cert: cert.coloring.col)


def time_row(sides: dict, layer: str, shape: str, n: int, k: int, items: list) -> dict:
    make = {}
    run = {}
    outputs = {}
    for name, modules in sides.items():
        make[name], run[name], output = layer_call(modules, layer, shape, n, k, items)
        outputs[name] = [output(run[name](x)) for x in make[name]()]  # warm-up, and the outputs compared
    times: dict = {name: [] for name in sides}
    order = list(sides)
    for r in range(REPEATS):
        for name in order if r % 2 == 0 else reversed(order):
            fn, xs = run[name], make[name]()
            gc.collect()
            t0 = time.perf_counter()
            for x in xs:
                fn(x)
            times[name].append((time.perf_counter() - t0) / len(xs))
    row = {"layer": layer, "n": n, "k": k, "calls": len(items), "unit": "s per call"}
    for name in sides:
        row[name] = {"median": statistics.median(times[name]), "runs": times[name]}
    if "parent" in sides:
        row["change_over_parent"] = row["change"]["median"] / row["parent"]["median"]
        row["same_output"] = outputs["change"] == outputs["parent"]
    return row


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--parent", help="another checkout to time in the same repeats")
    args = p.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    from test_equitable import PEEL_SHAPES

    from arbor import balance, equitable, random_trees, trees
    from arbor.random_trees import prufer_encode, sample_labeled_tree

    sides = {"change": (equitable, trees, random_trees, balance)}
    if args.parent:
        sides["parent"] = load_side("arbor_parent", os.path.abspath(args.parent))
    rows = []
    for layer, shape, n, k, items in cases(PEEL_SHAPES, sample_labeled_tree, prufer_encode):
        row = {"shape": shape, **time_row(sides, layer, shape, n, k, items)}
        rows.append(row)
        line = f"{layer:17} {shape:11} n={n:<6} k={k or '-'}  change {row['change']['median'] * 1e3:9.3f} ms"
        if args.parent:
            line += f"  parent {row['parent']['median'] * 1e3:9.3f} ms  ratio {row['change_over_parent']:.3f}"
            line += "" if row["same_output"] else "  OUTPUTS DIFFER"
        print(line, flush=True)
    result = {
        "script": "bench/layers.py",
        "machine": machine(),
        "change": checkout(ROOT),
        "parent": checkout(args.parent) if args.parent else None,
        "repeats": REPEATS,
        "rows": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
