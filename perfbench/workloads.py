"""The benchmark's four workloads.

Each workload makes its inputs from the seed, makes one call into arbor's
public entry points per step (``arbor.experiments.run_*`` or
``arbor.cli.main``), and checks that call's output with code of its own that
shares nothing with the code under test.

A workload is a fixed cycle of calls that differ in cost (k, input format,
sequence length).  The closed loop in ``run.py`` repeats the cycle, so every
run times the same mix of calls.
"""

from __future__ import annotations

import heapq
import json
import os

import numpy as np

import arbor.cli
import arbor.experiments
from arbor.experiments import ExperimentConfig

MASK64 = (1 << 64) - 1


def _call_seed(seed: int, j: int) -> int:
    """Master seed of the j-th Monte Carlo call of a run."""
    return ((seed << 24) + j) & MASK64


def _input_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _decode(code: list, n: int) -> list:
    """Edges of the labeled tree with Prüfer code ``code`` (the benchmark's
    own decoder, used to write edge-list inputs and to check colorings)."""
    deg = [1] * (n + 1)
    for a in code:
        deg[a] += 1
    leaves = [v for v in range(1, n + 1) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for a in code:
        v = heapq.heappop(leaves)
        edges.append((v, a))
        deg[a] -= 1
        if deg[a] == 1:
            heapq.heappush(leaves, a)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def _take_json(path: str):
    """Read the JSON a call wrote, and remove the file so that the next call
    of the same input has to write it again."""
    with open(path) as fh:
        payload = json.load(fh)
    os.remove(path)
    return payload


class Call:
    """One step of the closed loop: ``invoke`` is timed, ``check`` is not and
    returns None when the output is right, else the reason it is wrong."""

    __slots__ = ("items", "invoke", "check")

    def __init__(self, items, invoke, check):
        self.items = items
        self.invoke = invoke
        self.check = check


# -- Monte Carlo workloads ---------------------------------------------------


def _multiplicities(master_seed: int, n: int, trials: int):
    """Per trial, how often each vertex 1..n occurs in the trial's code.

    Trial i's code is n-2 uniform draws from 1..n on the Philox stream keyed
    by (master seed, i); a vertex's degree is one plus its multiplicity.
    """
    for i in range(trials):
        key = np.array([master_seed, i], dtype=np.uint64)
        code = np.random.Generator(np.random.Philox(key=key)).integers(1, n + 1, size=n - 2)
        yield np.bincount(code, minlength=n + 1)[1:]


def _precondition_hits(master_seed: int, n: int, k: int, trials: int) -> int:
    """Trials whose tree has max degree <= n/k, read off the codes."""
    return sum((1 + int(mult.max())) * k <= n for mult in _multiplicities(master_seed, n, trials))


def _shortcut_trees(master_seed: int, n: int, trials: int) -> int:
    """Trials whose tree has at least max-degree many leaves and as many
    degree-2 vertices, read off the codes.  Such a tree always has a
    balanced 2-coloring (the ones/twos construction of the paper)."""
    count = 0
    for mult in _multiplicities(master_seed, n, trials):
        top = 1 + int(mult.max())
        count += int((mult == 0).sum()) >= top and int((mult == 1).sum()) >= top
    return count


class McEquitable:
    """``run_equitable_fraction`` at n=120, 5 trials a call, k cycling 3..6.

    Short calls, so that each of the cycle's inputs is timed many times in
    a run and its fastest time is found reliably: at 10 trials a call,
    four runs spread about twice as much."""

    name = "mc-equitable"
    n = 120
    trials = 5
    ks = (3, 4, 5, 6) * 8
    cycle_len = len(ks)
    trace_cycles = 10
    tail_pct = 99.5

    def __init__(self, seed: int, workdir: str):
        self.configs = [
            ExperimentConfig(n=self.n, trials=self.trials, seed=_call_seed(seed, i), k=k) for i, k in enumerate(self.ks)
        ]
        self.hits = [_precondition_hits(c.seed, self.n, c.k, self.trials) for c in self.configs]

    def sizes(self) -> dict:
        return {"n": self.n, "trials_per_call": self.trials, "k_per_cycle": list(self.ks)}

    def prepare(self, i: int) -> Call:
        cfg, expected = self.configs[i], self.hits[i]

        def check(summary) -> str | None:
            c = summary.counts
            if c["hit_fail"]:
                return f"{c['hit_fail']} colorings failed (seed {cfg.seed}, k {cfg.k})"
            if sum(c.values()) != self.trials:
                return f"counts {c} do not sum to {self.trials}"
            if c["hit_ok"] != expected:
                return f"{c['hit_ok']} hits, codes give {expected} (seed {cfg.seed}, k {cfg.k})"
            return None

        return Call(self.trials, lambda: arbor.experiments.run_equitable_fraction(cfg), check)


class McBalanced:
    """``run_balanced_fraction`` at n=200 (the README size), 5 trials a call."""

    name = "mc-balanced"
    n = 200
    trials = 5
    cycle_len = 32
    trace_cycles = 20
    tail_pct = 99.8

    def __init__(self, seed: int, workdir: str):
        self.configs = [
            ExperimentConfig(n=self.n, trials=self.trials, seed=_call_seed(seed, i)) for i in range(self.cycle_len)
        ]
        self.floors = [_shortcut_trees(c.seed, self.n, self.trials) for c in self.configs]

    def sizes(self) -> dict:
        return {"n": self.n, "trials_per_call": self.trials, "calls_per_cycle": self.cycle_len}

    def prepare(self, i: int) -> Call:
        cfg, floor = self.configs[i], self.floors[i]

        def check(summary) -> str | None:
            c = summary.counts
            if c["success"] + c["failure"] != self.trials:
                return f"counts {c} do not sum to {self.trials}"
            if c["success"] < floor:
                return f"{c['success']} balanced trees, but the codes give {floor} with enough ones and twos"
            return None

        return Call(self.trials, lambda: arbor.experiments.run_balanced_fraction(cfg), check)


# -- CLI workloads -------------------------------------------------------------


def _coloring_error(payload: dict, n: int, k: int, edges: list) -> str | None:
    """None when ``payload`` holds an equitable k-coloring of the tree."""
    col = [0] * (n + 1)
    assignment = payload.get("assignment", {})
    if len(assignment) != n:
        return f"{len(assignment)} vertices colored, expected {n}"
    for key, c in assignment.items():
        v = int(key)
        if not (1 <= v <= n and 1 <= c <= k) or col[v]:
            return f"bad entry {key}: {c}"
        col[v] = c
    for u, v in edges:
        if col[u] == col[v]:
            return f"edge {u}-{v} is monochromatic"
    sizes = [0] * k
    for c in col[1:]:
        sizes[c - 1] += 1
    q, r = divmod(n, k)
    if sorted(sizes, reverse=True) != [q + 1] * r + [q] * (k - r):
        return f"class sizes {sizes} are not the equitable split of {n} into {k}"
    return None


class LargeTree:
    """``arbor color`` on trees with n = 2000, from edge-list and code files.

    The cycle holds two calls for each k and input format, eight in all.  A
    call takes about 20 ms, so each is timed about 90 times in a run; the
    fastest of a few dozen 200-ms calls at n = 10^4 moved by a quarter from
    run to run.
    """

    name = "large-tree"
    n = 2000
    plan = ((3, "edges"), (5, "code"), (3, "code"), (5, "edges")) * 2
    cycle_len = len(plan)
    trace_cycles = 5
    tail_pct = 98

    def __init__(self, seed: int, workdir: str):
        n = self.n
        self.inputs = []
        for idx, (k, fmt) in enumerate(self.plan):
            code = _input_rng(seed, idx).integers(1, n + 1, size=n - 2).tolist()
            edges = _decode(code, n)
            path = os.path.join(workdir, f"tree{idx}.txt")
            with open(path, "w") as fh:
                fh.write(f"{n}\n")
                if fmt == "code":
                    fh.write("P: " + " ".join(map(str, code)) + "\n")
                else:
                    fh.writelines(f"{u} {v}\n" for u, v in edges)
            out = os.path.join(workdir, f"color{idx}.json")
            self.inputs.append((k, edges, path, out))

    def sizes(self) -> dict:
        return {"n": self.n, "calls_per_cycle": [f"k{k}:{fmt}" for k, fmt in self.plan]}

    def prepare(self, i: int) -> Call:
        k, edges, path, out = self.inputs[i]
        argv = ["color", "--k", str(k), "--in", path, "--out", out]

        def check(rc) -> str | None:
            if rc != 0:
                return f"arbor color exited {rc} on {path}"
            return _coloring_error(_take_json(out), self.n, k, edges)

        return Call(1, lambda: arbor.cli.main(argv), check)


class BalanceSeq:
    """``arbor balance --seq`` on sequences of length 100..400.

    Each length comes twice: values 3..39 (many distinct values, a wide DP)
    and values 3..8 (degree-like, few distinct values).  No value is 1 or 2,
    so the ones/twos shortcut never applies and the exact DP always runs.
    """

    name = "balance-seq"
    lengths = (100, 150, 200, 250, 300, 350, 400)
    ranges = ((3, 39), (3, 8))
    cycle_len = len(lengths) * len(ranges)
    trace_cycles = 5
    tail_pct = 99

    def __init__(self, seed: int, workdir: str):
        self.inputs = []
        idx = 0
        for length in self.lengths:
            for lo, hi in self.ranges:
                values = _input_rng(seed, idx).integers(lo, hi + 1, size=length).tolist()
                out = os.path.join(workdir, f"balance{idx}.json")
                self.inputs.append((values, ",".join(map(str, values)), out))
                idx += 1

    def sizes(self) -> dict:
        return {"lengths": list(self.lengths), "value_ranges": [list(r) for r in self.ranges]}

    def prepare(self, i: int) -> Call:
        values, text, out = self.inputs[i]
        argv = ["balance", "--seq", text, "--out", out]

        def check(rc) -> str | None:
            if rc != 0:
                return f"arbor balance exited {rc}"
            p = _take_json(out)
            f, side_i, side_j = p["F"], p["partition_I"], p["partition_J"]
            n, total = len(values), sum(values)
            if sorted(side_i + side_j) != list(range(1, n + 1)):
                return "witness sides do not partition the indices"
            if abs(len(side_i) - len(side_j)) > 1:
                return f"witness sides have sizes {len(side_i)} and {len(side_j)}"
            sum_i = sum(values[i - 1] for i in side_i)
            if abs(2 * sum_i - total) != f:
                return f"witness sums differ by {abs(2 * sum_i - total)}, F = {f}"
            if f > max(values) or f % 2 != total % 2:
                return f"F = {f} breaks F <= max(seq) or the parity of the total {total}"
            if p["balanced"] != (f <= 2):
                return f"balanced flag {p['balanced']} disagrees with F = {f}"
            return None

        return Call(1, lambda: arbor.cli.main(argv), check)


WORKLOADS = {w.name: w for w in (McEquitable, McBalanced, LargeTree, BalanceSeq)}
