"""Monte Carlo harness: balancedness fraction, equitable-coloring success,
and degree statistics of uniform random labeled trees.

Trials derive independent RNG streams from (master seed, trial index), so a
run is reproducible bit for bit regardless of trial count or worker count;
results are merged in trial order, making parallel and serial runs
byte-identical.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .balance import is_balanced_graph, verify_balanced
from .equitable import brute_force_equitable, equitable_coloring
from .errors import ArborError, BadArgument, InternalInvariant
from .random_trees import prufer_decode, stats_from_prufer, trial_code
from .trees import format_tree_text

Z95 = 1.959963984540054
MAX_FAILURE_EXAMPLES = 10


def wilson_interval(successes: int, trials: int, z: float = Z95) -> tuple:
    """Wilson score interval; well behaved for fractions at or near one."""
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    trials: int
    seed: int = 0
    k: Optional[int] = None
    workers: int = 1

    def __post_init__(self):
        if self.n < 2:
            raise BadArgument("n must be at least 2")
        if self.trials < 1:
            raise BadArgument("trials must be at least 1")
        if self.k is not None and self.k < 3:
            raise BadArgument("k must be at least 3")
        if self.workers < 1:
            raise BadArgument("workers must be at least 1")

    def as_dict(self) -> dict:
        # workers are an execution detail: parallel and serial runs of the
        # same experiment must serialize identically
        return {"n": self.n, "trials": self.trials, "seed": self.seed, "k": self.k}


@dataclass
class ExperimentSummary:
    kind: str
    config: dict
    fraction_success: Optional[float]
    wilson_ci: Optional[tuple]
    counts: dict
    means: dict = field(default_factory=dict)
    variances: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    failure_examples: list = field(default_factory=list)
    schema: int = 1

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "kind": self.kind,
            "config": self.config,
            "fraction_success": self.fraction_success,
            "wilson_ci": list(self.wilson_ci) if self.wilson_ci is not None else None,
            "counts": self.counts,
            "means": self.means,
            "variances": self.variances,
            "extras": self.extras,
            "failure_examples": self.failure_examples,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def _map_trials(fn: Callable, args: Sequence, workers: int):
    # never more processes than cores: under fork the pool starts them all at the first submit
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1:
        return [fn(a) for a in args]
    from concurrent.futures import ProcessPoolExecutor  # here, so that importing arbor loads no multiprocessing
    chunk = max(1, len(args) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, args, chunksize=chunk))


# -- per-trial workers (top level so they pickle) ----------------------------


def _balanced_trial(args: tuple) -> tuple:
    n, seed, trial = args
    t = prufer_decode(trial_code(n, seed, trial), n)
    coloring = is_balanced_graph(t)
    if coloring is None:
        return (0, format_tree_text(t))
    report = verify_balanced(t, coloring)
    if not report.balanced:
        raise InternalInvariant("balanced certificate failed its recheck", dump=format_tree_text(t))
    return (1, None)


def _equitable_trial(args: tuple) -> tuple:
    n, k, seed, trial = args
    t = prufer_decode(trial_code(n, seed, trial), n)
    if t.max_degree * k > n:
        if n <= 12:  # this gate, not k^n, bounds the pruned search
            witness = brute_force_equitable(t, k, limit=k**n)
            return ("miss_witness" if witness is not None else "miss_none", None)
        return ("miss", None)
    try:
        equitable_coloring(t, k)  # certifies its own output
    except ArborError as exc:
        return ("hit_fail", format_tree_text(t) + f"# {exc}\n")
    return ("hit_ok", None)


def _stats_trial(args: tuple) -> tuple:
    n, seed, trial = args
    entries = trial_code(n, seed, trial)
    s = stats_from_prufer(entries, n)
    return (s.max_degree, s.x1, s.x2)


# -- runners ------------------------------------------------------------------


def run_balanced_fraction(cfg: ExperimentConfig) -> ExperimentSummary:
    """Fraction of uniform random labeled trees that admit a balanced
    2-coloring; every positive verdict is re-verified against the tallies."""
    args = [(cfg.n, cfg.seed, i) for i in range(cfg.trials)]
    results = _map_trials(_balanced_trial, args, cfg.workers)
    successes = sum(r[0] for r in results)
    failures = [r[1] for r in results if r[1] is not None]
    fraction = successes / cfg.trials
    return ExperimentSummary(
        kind="balanced-fraction",
        config=cfg.as_dict(),
        fraction_success=fraction,
        wilson_ci=wilson_interval(successes, cfg.trials),
        counts={"success": successes, "failure": cfg.trials - successes},
        failure_examples=failures[:MAX_FAILURE_EXAMPLES],
    )


def run_equitable_fraction(cfg: ExperimentConfig) -> ExperimentSummary:
    """Equitable-coloring success on random trees, split by whether the tree
    meets the max-degree precondition.

    Trees with max degree above n/k are counted as precondition misses, not
    as failures: the construction's guarantee only covers the complement, so
    conflating the two would misreport a correct implementation.  The success
    rate among precondition hits is the quantity expected to be exactly one.
    """
    if cfg.k is None:
        raise BadArgument("equitable runs need k")
    args = [(cfg.n, cfg.k, cfg.seed, i) for i in range(cfg.trials)]
    results = _map_trials(_equitable_trial, args, cfg.workers)
    counts = {"hit_ok": 0, "hit_fail": 0, "miss": 0, "miss_witness": 0, "miss_none": 0}
    failures = []
    for outcome, dump in results:
        counts[outcome] += 1
        if dump is not None:
            failures.append(dump)
    hits = counts["hit_ok"] + counts["hit_fail"]
    fraction = counts["hit_ok"] / hits if hits else None
    return ExperimentSummary(
        kind="equitable-fraction",
        config=cfg.as_dict(),
        fraction_success=fraction,
        wilson_ci=wilson_interval(counts["hit_ok"], hits) if hits else None,
        counts=counts,
        extras={"hit_rate": hits / cfg.trials},
        failure_examples=failures[:MAX_FAILURE_EXAMPLES],
    )


def _mean_var(xs: Sequence[float]) -> tuple:
    n = len(xs)
    mean = sum(xs) / n
    var = sum((x - mean) ** 2 for x in xs) / (n - 1) if n > 1 else 0.0
    return mean, var


def run_degree_stats(cfg: ExperimentConfig) -> ExperimentSummary:
    """Empirical mean and variance of the degree-1 and degree-2 vertex counts
    against their n/e-scale theory values."""
    args = [(cfg.n, cfg.seed, i) for i in range(cfg.trials)]
    results = _map_trials(_stats_trial, args, cfg.workers)
    x1s = [r[1] for r in results]
    x2s = [r[2] for r in results]
    m1, v1 = _mean_var(x1s)
    m2, v2 = _mean_var(x2s)
    n = cfg.n
    mu = n / math.e
    sigma1_sq = (n / math.e) * (1 - 2 / math.e)
    sigma2_sq = (n / math.e) * (1 - 1 / math.e)
    extras = {
        "theory_mean": mu,
        "theory_var_x1": sigma1_sq,
        "theory_var_x2": sigma2_sq,
        "z_mean_x1": (m1 - mu) / math.sqrt(sigma1_sq / cfg.trials),
        "z_mean_x2": (m2 - mu) / math.sqrt(sigma2_sq / cfg.trials),
    }
    return ExperimentSummary(
        kind="degree-stats",
        config=cfg.as_dict(),
        fraction_success=None,
        wilson_ci=None,
        counts={"trials": cfg.trials},
        means={"x1": m1, "x2": m2},
        variances={"x1": v1, "x2": v2},
        extras=extras,
    )


def max_degree_bands(n: int) -> dict:
    """The asymptotic max-degree band around log n / log log n, plus the wide
    band that is actually assertable at finite n."""
    ratio = math.log(n) / math.log(math.log(n))
    return {
        "tight_lo": 0.9 * ratio,
        "tight_hi": 1.1 * ratio,
        "wide_lo": 0.9 * ratio,
        "wide_hi": 3.0 * math.log(n),
    }


def run_max_degree(cfg: ExperimentConfig) -> ExperimentSummary:
    """Histogram of the maximum degree with band-coverage fractions.

    The 0.9..1.1 band around log n / log log n is asymptotic and reported
    only; the wide band [0.9 log n / log log n, 3 log n] is the one expected
    to hold at desk scale."""
    args = [(cfg.n, cfg.seed, i) for i in range(cfg.trials)]
    results = _map_trials(_stats_trial, args, cfg.workers)
    dmaxes = [r[0] for r in results]
    hist: dict = {}
    for d in dmaxes:
        hist[d] = hist.get(d, 0) + 1
    bands = max_degree_bands(cfg.n)
    in_tight = sum(1 for d in dmaxes if bands["tight_lo"] < d < bands["tight_hi"])
    in_wide = sum(1 for d in dmaxes if bands["wide_lo"] <= d <= bands["wide_hi"])
    m, v = _mean_var(dmaxes)
    return ExperimentSummary(
        kind="max-degree",
        config=cfg.as_dict(),
        fraction_success=in_wide / cfg.trials,
        wilson_ci=wilson_interval(in_wide, cfg.trials),
        counts={"in_tight_band": in_tight, "in_wide_band": in_wide, "outside_wide_band": cfg.trials - in_wide},
        means={"max_degree": m},
        variances={"max_degree": v},
        extras={"histogram": {str(k): hist[k] for k in sorted(hist)}, **bands},
    )
