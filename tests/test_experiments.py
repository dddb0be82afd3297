import concurrent.futures
import json
import math

import pytest

import arbor.experiments as experiments_module
from arbor.colorings import KColoring
from arbor.errors import InternalInvariant
from arbor.experiments import (
    ExperimentConfig,
    max_degree_bands,
    run_balanced_fraction,
    run_degree_stats,
    run_equitable_fraction,
    run_max_degree,
    wilson_interval,
)
from arbor.random_trees import prufer_decode, trial_code
from arbor.trees import parse_tree_text


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n=1, trials=10)
        with pytest.raises(ValueError):
            ExperimentConfig(n=5, trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig(n=5, trials=1, k=2)
        for workers in (0, -3):
            with pytest.raises(ValueError):
                ExperimentConfig(n=5, trials=1, workers=workers)


class TestWorkerCap:
    """The pool never gets more workers than there are cores.  The pool is
    replaced by an in-process stand-in, so no process is ever started."""

    @pytest.fixture
    def pools(self, monkeypatch):
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args, chunksize=1):
                return map(fn, args)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        return sizes

    @pytest.mark.parametrize("cores,workers,expected", [(4, 100_000, [4]), (4, 3, [3]), (1, 100_000, []), (None, 8, [])])
    def test_capped_at_cpu_count(self, pools, monkeypatch, cores, workers, expected):
        monkeypatch.setattr(experiments_module.os, "cpu_count", lambda: cores)
        serial = run_balanced_fraction(ExperimentConfig(n=25, trials=30, seed=7)).to_json()
        capped = run_balanced_fraction(ExperimentConfig(n=25, trials=30, seed=7, workers=workers)).to_json()
        assert pools == expected
        assert capped == serial


class TestWilson:
    def test_contains_fraction(self):
        for s, t in [(0, 10), (10, 10), (7, 10), (9999, 10000)]:
            lo, hi = wilson_interval(s, t)
            assert lo <= s / t <= hi
            assert 0.0 <= lo <= hi <= 1.0

    def test_no_trials_is_the_unit_interval(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_narrower_with_more_trials(self):
        lo1, hi1 = wilson_interval(90, 100)
        lo2, hi2 = wilson_interval(9000, 10000)
        assert (hi2 - lo2) < (hi1 - lo1)


class TestBalancedFraction:
    def test_n2_always_balanced(self):
        s = run_balanced_fraction(ExperimentConfig(n=2, trials=100, seed=42))
        assert s.fraction_success == 1.0
        assert s.counts["success"] + s.counts["failure"] == 100

    def test_ci_contains_fraction(self):
        s = run_balanced_fraction(ExperimentConfig(n=40, trials=300, seed=5))
        lo, hi = s.wilson_ci
        assert lo <= s.fraction_success <= hi

    def test_failure_examples_capped(self):
        # small stars dominate failures at tiny n; n=6 fails only on stars
        s = run_balanced_fraction(ExperimentConfig(n=6, trials=4000, seed=1))
        assert len(s.failure_examples) <= 10
        assert s.counts["failure"] >= 1  # ~18 stars expected among 4000

    def test_profile_reports(self):
        prof = [
            (n, run_balanced_fraction(ExperimentConfig(n=n, trials=50, seed=3)).fraction_success)
            for n in (10, 20)
        ]
        assert len(prof) == 2 and all(0 <= f <= 1 for _, f in prof)


class TestBalancedRecheck:
    def test_unbalanced_certificate_raises_with_dump(self, monkeypatch):
        # every vertex in class 1, so no tree with an edge is balanced
        monkeypatch.setattr(experiments_module, "is_balanced_graph", lambda g: KColoring(2, [0, *[1] * g.n]))
        with pytest.raises(InternalInvariant, match="recheck") as exc:
            experiments_module._balanced_trial((20, 3, 0))
        assert parse_tree_text(exc.value.dump) == prufer_decode(trial_code(20, 3, 0), 20)


class TestEquitableFraction:
    def test_counts_split(self):
        s = run_equitable_fraction(ExperimentConfig(n=30, trials=200, seed=9, k=3))
        assert sum(s.counts.values()) == 200
        hits = s.counts["hit_ok"] + s.counts["hit_fail"]
        assert s.counts["hit_fail"] == 0
        if hits:
            assert s.fraction_success == 1.0
        assert s.extras["hit_rate"] == hits / 200

    def test_requires_k(self):
        with pytest.raises(ValueError):
            run_equitable_fraction(ExperimentConfig(n=30, trials=10, seed=0))

    def test_small_n_miss_branch_uses_brute_force(self):
        # at n=6 many trees have max degree above n/3; those must be counted
        # as misses (with brute-force verdicts), never as failures
        s = run_equitable_fraction(ExperimentConfig(n=6, trials=300, seed=4, k=3))
        assert s.counts["hit_fail"] == 0
        assert s.counts["miss"] == 0  # n <= 12 always gets a brute verdict
        assert s.counts["miss_witness"] + s.counts["miss_none"] + s.counts["hit_ok"] == 300

    @pytest.mark.parametrize("n,k,trials", [(10, 4, 300), (12, 8, 50), (8, 6, 100), (12, 5, 60)])
    def test_small_n_miss_at_large_k_gets_a_verdict(self, n, k, trials):
        # k^n is above the search's default limit here; the n <= 12 gate
        # bounds the search, so every miss still gets a brute-force verdict
        s = run_equitable_fraction(ExperimentConfig(n=n, trials=trials, seed=1, k=k))
        assert s.counts["miss"] == s.counts["hit_fail"] == 0
        assert s.counts["miss_witness"] + s.counts["miss_none"] >= 1
        assert s.counts["miss_witness"] + s.counts["miss_none"] + s.counts["hit_ok"] == trials

    def test_large_n_miss_has_no_brute_verdict(self):
        # above n = 12 a tree with max degree over n/k is a plain miss
        s = run_equitable_fraction(ExperimentConfig(n=20, trials=100, seed=4, k=5))
        assert s.counts["miss"] >= 1 and s.counts["miss_witness"] == s.counts["miss_none"] == 0
        assert s.counts["miss"] + s.counts["hit_ok"] == 100

    def test_construction_error_is_a_hit_fail_with_dump(self, monkeypatch):
        real = experiments_module.equitable_coloring
        calls = []

        def fail_second(t, k):
            calls.append(t)
            if len(calls) == 2:
                raise InternalInvariant("planted failure")
            return real(t, k)

        monkeypatch.setattr(experiments_module, "equitable_coloring", fail_second)
        s = run_equitable_fraction(ExperimentConfig(n=30, trials=10, seed=0, k=3))
        assert s.counts["hit_fail"] == 1 and s.counts["hit_ok"] == 9 and s.fraction_success == 0.9
        (dump,) = s.failure_examples
        assert dump.endswith("# planted failure\n")
        assert parse_tree_text(dump) == calls[1]


class TestDegreeStats:
    def test_n2_degenerate(self):
        s = run_degree_stats(ExperimentConfig(n=2, trials=50, seed=0))
        assert s.means["x1"] == 2.0 and s.means["x2"] == 0.0
        assert s.variances["x1"] == 0.0

    def test_matches_theory_loosely(self):
        n, trials = 400, 400
        s = run_degree_stats(ExperimentConfig(n=n, trials=trials, seed=12))
        assert abs(s.means["x1"] / n - 1 / math.e) < 0.02
        assert abs(s.means["x2"] / n - 1 / math.e) < 0.02
        assert abs(s.variances["x1"] / n - (1 / math.e) * (1 - 2 / math.e)) < 0.05
        assert abs(s.variances["x2"] / n - (1 / math.e) * (1 - 1 / math.e)) < 0.05


class TestMaxDegree:
    def test_n2(self):
        s = run_max_degree(ExperimentConfig(n=2, trials=20, seed=0))
        assert s.extras["histogram"] == {"1": 20}

    def test_bands(self):
        b = max_degree_bands(100000)
        ratio = math.log(100000) / math.log(math.log(100000))
        assert b["tight_lo"] == pytest.approx(0.9 * ratio)
        assert b["wide_hi"] == pytest.approx(3 * math.log(100000))

    def test_wide_band_holds_at_moderate_n(self):
        s = run_max_degree(ExperimentConfig(n=2000, trials=100, seed=17))
        assert s.counts["outside_wide_band"] == 0
        assert s.fraction_success == 1.0


class TestGoldenNumbers:
    """Frozen after the first run; any drift means sampling or verdicts changed."""

    def test_balanced_fraction_golden(self):
        s = run_balanced_fraction(ExperimentConfig(n=200, trials=500, seed=42))
        assert s.counts == {"success": 500, "failure": 0}

    def test_equitable_fraction_golden(self):
        s = run_equitable_fraction(ExperimentConfig(n=200, trials=300, seed=0, k=3))
        assert s.counts == {"hit_ok": 300, "hit_fail": 0, "miss": 0, "miss_witness": 0, "miss_none": 0}

    def test_degree_stats_golden(self):
        s = run_degree_stats(ExperimentConfig(n=100, trials=100, seed=5))
        assert s.means["x1"] == 37.3 and s.means["x2"] == 37.0

    def test_monotonicity_soft_report(self):
        # reported, not asserted: the balanced fraction should creep upward
        # with n; at these sizes it is already saturated at 1.0
        prof = [
            (n, run_balanced_fraction(ExperimentConfig(n=n, trials=400, seed=17)).fraction_success)
            for n in (50, 100, 200)
        ]
        print("balanced fraction profile:", prof)
        assert all(0.9 <= f <= 1.0 for _, f in prof)


class TestDeterminism:
    def test_identical_runs_identical_bytes(self):
        a = run_balanced_fraction(ExperimentConfig(n=25, trials=60, seed=7)).to_json()
        b = run_balanced_fraction(ExperimentConfig(n=25, trials=60, seed=7)).to_json()
        assert a == b

    def test_parallel_equals_serial(self):
        a = run_balanced_fraction(ExperimentConfig(n=25, trials=60, seed=7)).to_json()
        c = run_balanced_fraction(ExperimentConfig(n=25, trials=60, seed=7, workers=2)).to_json()
        assert a == c

    def test_parallel_equals_serial_equitable(self):
        a = run_equitable_fraction(ExperimentConfig(n=24, trials=40, seed=3, k=3)).to_json()
        c = run_equitable_fraction(ExperimentConfig(n=24, trials=40, seed=3, k=3, workers=2)).to_json()
        assert a == c

    def test_trial_streams_independent_of_count(self):
        # the first 30 trials of a 60-trial run match a 30-trial run exactly
        a = run_degree_stats(ExperimentConfig(n=50, trials=30, seed=21))
        b = run_degree_stats(ExperimentConfig(n=50, trials=60, seed=21))
        # means over the shared prefix can differ, but the per-trial streams
        # must agree: re-derive them directly
        from arbor.random_trees import random_prufer, trial_rng

        for i in range(30):
            x = random_prufer(50, trial_rng(21, i))
            y = random_prufer(50, trial_rng(21, i))
            assert x == y

    def test_schema_field(self):
        s = run_balanced_fraction(ExperimentConfig(n=10, trials=5, seed=1))
        assert json.loads(s.to_json())["schema"] == 1
