"""arbor's benchmark: closed-loop workloads over sample -> decide -> color.

One caller, one process, no workers: each call into arbor starts when the
previous one has returned.  Run from the repository root:

    python3 perfbench/run.py --workload mc-equitable --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics over whole cycles of calls for
``--seconds``.  ``--trace 1`` runs a fixed number of cycles untraced and with
every layer function wrapped, twice each, checks that both traced passes and
a third one in a fresh process made exactly the same calls and routes, and
reports the per-layer metrics.
Readable lines come first; the last line of stdout is the JSON result with
the metrics that BENCHMARK.json declares.  Run metadata, every figure and
the spans of a traced run are written to perfbench/out/.
"""

import time

_T0 = time.perf_counter()  # setup_s counts from here: imports, inputs, one warm-up call

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from spans import Recorder, percentile  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_SAMPLES = 5  # this process plus four fresh ones; setup_s is their median
CHILD_TIMEOUT_S = 170


def load_declaration() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def import_arbor():
    """Import arbor from this checkout's sources and nowhere else."""
    init = os.path.join(ROOT, "src", "arbor", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"run.py: {init} not found; run the benchmark from a checkout of the repository")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import arbor

    if os.path.realpath(arbor.__file__) != os.path.realpath(init):
        sys.exit(f"run.py: imported arbor from {arbor.__file__}, not from {init}")


def timed_call(call):
    """Seconds taken by one call, and why it failed (None if it did not).

    A call that raises or fails its check is a failed call, not a crash of
    the benchmark, so the traceback is kept as the reason."""
    t0 = time.perf_counter()
    try:
        out = call.invoke()
    except Exception:
        return time.perf_counter() - t0, traceback.format_exc(limit=4)
    dt = time.perf_counter() - t0
    try:
        return dt, call.check(out)
    except Exception:
        return dt, traceback.format_exc(limit=4)


class Loop:
    """Whole cycles over the workload's inputs, back to back, until
    ``seconds`` have passed or ``cycles`` cycles are done.

    Every cycle makes the same calls, so each input is timed once a cycle.
    Its figure is the fastest of those times.  Other tenants of a shared
    machine only ever add time, in spells that can cover a whole run, and
    the fastest of many short calls is the figure they disturb least.  It
    leaves out a cost arbor pays on only some calls, such as a collection of
    its garbage; ``cycle_rate`` keeps those.
    """

    def __init__(self, wl, seconds=None, cycles=None):
        self.latencies = [[] for _ in range(wl.cycle_len)]
        self.failures = []
        self.items = 0  # per cycle
        self.cycles = 0
        deadline = time.perf_counter() + seconds if seconds is not None else None
        while True:
            for i in range(wl.cycle_len):
                call = wl.prepare(i)
                dt, err = timed_call(call)
                if err:
                    self.failures.append(f"cycle {self.cycles} input {i}: {err}")
                self.latencies[i].append(dt)
                if not self.cycles:
                    self.items += call.items
            self.cycles += 1
            if cycles is not None and self.cycles >= cycles:
                break
            if deadline is not None and time.perf_counter() >= deadline:
                break

    @property
    def attempted(self) -> int:
        return sum(map(len, self.latencies))

    def best(self) -> list:
        return [min(xs) for xs in self.latencies]

    def rate(self) -> float:
        """Items per second of a cycle made of each input's fastest call."""
        return self.items / sum(self.best())

    def cycle_rate(self) -> float:
        """Items per second of the median cycle, every call as timed."""
        return self.items / statistics.median(map(sum, zip(*self.latencies)))


def setup_probe(args) -> float:
    """setup_s of a fresh process on the same workload and seed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True, cwd=ROOT)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def end_to_end(wl, args, setup_s: float, failures: list):
    setups = [setup_s] + [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
    run = Loop(wl, seconds=args.seconds)
    failures = failures + run.failures
    attempted = 1 + run.attempted
    metrics = {
        "items_per_s": run.rate(),
        "call_p50_ms": statistics.median(run.best()) * 1000,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "error_rate": len(failures) / attempted,
        "cycle_items_per_s": run.cycle_rate(),
    }
    details = {"calls": run.attempted, "cycles": run.cycles, "setup_samples_s": setups}
    every = [dt for xs in run.latencies for dt in xs]
    if len(every) * (100 - wl.tail_pct) / 100 >= 10:
        # over every call as timed: the tail is where interference and slow
        # inputs show
        metrics["call_tail_ms"] = percentile(every, wl.tail_pct) * 1000
        details["call_tail_pct"] = wl.tail_pct
    return metrics, details, failures, attempted


def traced_pass(wl):
    rec = Recorder()
    with rec.installed():
        run = Loop(wl, cycles=wl.trace_cycles)
    return rec, run


def fresh_counts(args) -> dict:
    """The counts of one traced pass in a fresh process with another hash
    seed, so that an order that depends on the process shows too."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
           "--counts-probe"]
    parent = os.environ.get("PYTHONHASHSEED", "")
    env = dict(os.environ, PYTHONHASHSEED=str((int(parent) + 1) % 2**32) if parent.isdigit() else "1")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True, cwd=ROOT, env=env)
    return json.loads(proc.stdout.splitlines()[-1])


def traced(wl, args, failures: list):
    """Untraced and traced passes over the same cycles, alternating, so that
    drift on a shared machine falls on both sides of trace.overhead_ratio."""
    plain, recorders, runs = [], [], []
    for _ in range(2):
        plain.append(Loop(wl, cycles=wl.trace_cycles))
        rec, run = traced_pass(wl)
        recorders.append(rec)
        runs.append(run)
    metrics = recorders[0].metrics()
    metrics["trace.overhead_ratio"] = max(r.rate() for r in runs) / max(r.rate() for r in plain)
    first = recorders[0].counts()
    recorders[0].dump(out_path(args, "spans"))
    failures = failures + [f for r in plain + runs for f in r.failures]
    deterministic = True
    for where, other in (("in this process", recorders[1].counts()), ("in a fresh process", fresh_counts(args))):
        if first != other:
            deterministic = False
            diff = {k: (v, other.get(k)) for k, v in first.items() if v != other.get(k)}
            failures.append(f"a second traced pass {where} differs from the first: {diff}")
    attempted = 1 + sum(r.attempted for r in plain + runs)
    details = {"calls_per_pass": runs[0].attempted, "deterministic": deterministic}
    return metrics, details, failures, attempted


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, cwd=ROOT)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(wl, args) -> dict:
    import numpy

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": wl.sizes(),
    }


def out_path(args, kind: str) -> str:
    out = os.path.join(BENCH_DIR, "out")
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, f"{args.workload}-seed{args.seed}-{kind}.json")


def report(decl: dict, args, values: dict, correct: bool, attempted: int, failed: int) -> None:
    """Print every figure by name and unit, then the JSON result line."""
    units = {m["name"]: m["unit"] for m in decl["end_to_end"] + decl["per_layer"]}
    units.update(error_rate="share", call_tail_ms="ms", cycle_items_per_s="1/s")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} correct={correct} "
          f"attempted={attempted} failed={failed}")
    for name, value in values.items():
        print(f"  {name:<52} {value:>16.6f} {units.get(name, '')}")
    declared = decl["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))


def run_all(args, decl: dict) -> int:
    """Every workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in decl["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        merged["correct"] = merged["correct"] and result["correct"] and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{w['name']}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    decl = load_declaration()
    names = [w["name"] for w in decl["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=decl["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--counts-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args, decl)

    import_arbor()
    from workloads import WORKLOADS

    workdir = os.path.join(BENCH_DIR, "_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        _, err = timed_call(wl.prepare(0))  # the warm-up call
        setup_s = time.perf_counter() - _T0
        warmup_failures = [f"warm-up call: {err}"] if err else []
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        # the benchmark's own inputs and check data stay out of the cyclic
        # collector's way, so a call pays only for the objects arbor makes
        gc.collect()
        gc.freeze()
        if args.counts_probe:
            rec, run = traced_pass(wl)
            if run.failures:
                sys.exit("\n".join(run.failures[:5]))
            print(json.dumps(rec.counts()))
            return 0
        if args.trace:
            values, details, failures, attempted = traced(wl, args, warmup_failures)
        else:
            values, details, failures, attempted = end_to_end(wl, args, setup_s, warmup_failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for reason in failures[:5]:
        print(reason, file=sys.stderr)
    correct = not failures
    with open(out_path(args, f"trace{args.trace}"), "w") as fh:
        record = {"meta": metadata(wl, args), "metrics": values, "details": details, "failures": failures[:10]}
        json.dump(record, fh, indent=1)
    report(decl, args, values, correct, attempted, len(failures))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
