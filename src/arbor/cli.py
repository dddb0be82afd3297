"""Command-line front end.

Subcommands: sample, check, color, balance, experiment, enumerate.
Exit codes: 0 success, 2 precondition or usage error (an ``ArborError``),
1 internal invariant violation (the offending tree is dumped to stderr for
bug reports).  Any other exception is a bug and propagates with its
traceback, which exits 1 too.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional

from .balance import DegreeSequence, balance_exact
from .colorings import KColoring
from .equitable import equitable_coloring, equitable_three, verify_equitable
from .errors import ArborError, BadArgument, InternalInvariant, MalformedColoring
from .experiments import (
    ExperimentConfig,
    run_balanced_fraction,
    run_degree_stats,
    run_equitable_fraction,
    run_max_degree,
)
from .random_trees import (
    ENUMERATION_LIMIT,
    enumerate_labeled_trees,
    prufer_decode,
    prufer_encode,
    stats_from_prufer,
    tree_stats,
    trial_code,
)
from .trees import (
    classify_vertex,
    format_tree_text,
    is_path_graph,
    parse_tree_text,
    pre_leaves,
)

SCHEMA = 1


def _emit(text: str, out: Optional[str]) -> None:
    """Write to ``out``, or to stdout without one; an ``out`` that cannot be
    written is a user error, not a crash."""
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise BadArgument(f"cannot write {out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _read_text(path: str) -> str:
    """The file's text, newlines translated; a file that cannot be read or
    does not decode is a user error, not a crash."""
    try:
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise BadArgument(f"{path} is not text: {exc.reason} at byte {exc.start}") from None
    except OSError as exc:
        raise BadArgument(f"cannot read {path}: {exc.strerror}") from None


def _read_tree(path: str):
    return parse_tree_text(_read_text(path))


def _cmd_sample(args) -> int:
    lines = []
    for trial in range(args.trials):
        entries = trial_code(args.n, args.seed, trial)
        if args.emit == "prufer":
            lines.append("P: " + " ".join(map(str, entries)))
        elif args.emit == "edges":
            t = prufer_decode(entries, args.n)
            lines.append(f"# trial {trial}")
            lines.append(format_tree_text(t).rstrip("\n"))
        else:
            s = stats_from_prufer(entries, args.n)
            lines.append(f"{trial},{s.max_degree},{s.x1},{s.x2}")
    if args.emit == "stats":
        lines.insert(0, "trial,max_degree,x1,x2")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_check(args) -> int:
    t = _read_tree(args.infile)
    s = tree_stats(t)
    classes = {"leaf": 0, "pre-leaf": 0, "special-pre-leaf": 0, "internal": 0}
    for v in range(1, t.n + 1):
        classes[classify_vertex(t, v).value] += 1
    payload = {
        "schema": SCHEMA,
        "n": t.n,
        "edges": t.edge_count,
        "max_degree": s.max_degree,
        "x1": s.x1,
        "x2": s.x2,
        "is_path": is_path_graph(t),
        "classes": classes,
        "pre_leaves": pre_leaves(t),
        "prufer": prufer_encode(t) if t.n >= 2 else [],
    }
    _emit(_json(payload), args.out)
    return 0


def _read_coloring(path: str, k: int) -> KColoring:
    """One ``vertex color`` line per vertex; blank and ``#`` lines are skipped."""
    assignment = {}
    for lineno, ln in enumerate(_read_text(path).split("\n"), 1):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        try:
            v, c = map(int, ln.split())
        except ValueError:
            raise MalformedColoring(f"line {lineno}: expected two integers, vertex and color") from None
        if v in assignment:
            raise MalformedColoring(f"line {lineno}: vertex {v} is colored twice")
        assignment[v] = c
    return KColoring(k, assignment)


def _cmd_color(args) -> int:
    t = _read_tree(args.infile)
    if args.verify:
        cert = verify_equitable(t, _read_coloring(args.verify, args.k))
        payload = {
            "schema": SCHEMA,
            "k": args.k,
            "valid": cert.valid,
            "class_sizes": list(cert.class_sizes),
            "mono_edges": list(cert.mono_edges),
        }
        _emit(_json(payload), args.out)
        return 0
    if args.constrain:
        if args.k != 3:
            raise ArborError("--constrain is only available for k=3")
        cert = equitable_three(t, constraint=tuple(args.constrain))
    else:
        cert = equitable_coloring(t, args.k)
    payload = {
        "schema": SCHEMA,
        "k": args.k,
        "assignment": {str(v): cert.coloring.color(v) for v in range(1, t.n + 1)},
        "class_sizes": list(cert.class_sizes),
        "trace": list(cert.trace),
    }
    _emit(_json(payload), args.out)
    return 0


def _cmd_balance(args) -> int:
    if args.seq:
        try:
            values = [int(x) for x in args.seq.replace(",", " ").split()]
        except ValueError:
            raise BadArgument(f"--seq takes integers, got {args.seq!r}") from None
        seq = DegreeSequence(values)
    elif args.infile:
        seq = DegreeSequence.from_graph(_read_tree(args.infile))
    else:
        raise ArborError("balance needs --seq or --in")
    f, part = balance_exact(seq)
    payload = {
        "schema": SCHEMA,
        "F": f,
        "partition_I": list(part.I),
        "partition_J": list(part.J),
        "balanced": f <= 2,
    }
    _emit(_json(payload), args.out)
    return 0


def _cmd_enumerate(args) -> int:
    if args.count_only:
        count = sum(1 for _ in enumerate_labeled_trees(args.n))
        _emit(str(count) + "\n", args.out)
        return 0
    lines = []
    for i, t in enumerate(enumerate_labeled_trees(args.n)):
        lines.append(f"# tree {i}")
        lines.append(format_tree_text(t).rstrip("\n"))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


_EXPERIMENTS = {
    "balanced-fraction": run_balanced_fraction,
    "equitable-fraction": run_equitable_fraction,
    "degree-stats": run_degree_stats,
    "max-degree": run_max_degree,
}


def _flatten(d: dict, prefix: str = "") -> dict:
    out = {}
    for key in sorted(d):
        val = d[key]
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            out.update(_flatten(val, name + "."))
        else:
            out[name] = val
    return out


def _cmd_experiment(args) -> int:
    cfg = ExperimentConfig(n=args.n, trials=args.trials, seed=args.seed, k=args.k, workers=args.workers)
    summary = _EXPERIMENTS[args.kind](cfg)
    if args.format == "json":
        _emit(summary.to_json() + "\n", args.out)
    else:
        import csv
        import io

        flat = _flatten(summary.to_dict())
        keys = list(flat)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(keys)
        writer.writerow([flat[k] if isinstance(flat[k], (int, float, str)) else json.dumps(flat[k]) for k in keys])
        _emit(buf.getvalue(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="arbor", description="Balanced and equitable colorings of random trees")
    # a string default is converted by ``type`` only when its subcommand
    # runs, so a bad ARBOR_SEED is a usage error of sample and experiment
    seed = os.environ.get("ARBOR_SEED", "0")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("sample", help="sample uniform random labeled trees")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--emit", choices=["edges", "prufer", "stats"], default="stats")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("check", help="validate a tree file and report its taxonomy")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("color", help="equitable k-coloring of a tree")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--constrain", type=int, nargs=2, metavar=("P", "Q"))
    p.add_argument("--verify", help="check an externally supplied coloring file (vertex color lines)")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_color)

    p = sub.add_parser("balance", help="exact balance of a sequence or a tree's degrees")
    p.add_argument("--seq", help="comma or space separated positive integers")
    p.add_argument("--in", dest="infile")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_balance)

    p = sub.add_parser("enumerate", help=f"all labeled trees, n <= {ENUMERATION_LIMIT}")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("experiment", help="Monte Carlo experiments")
    p.add_argument("--kind", choices=sorted(_EXPERIMENTS), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_experiment)

    return parser


@functools.lru_cache(maxsize=1)
def _cached_parser(seed_env: Optional[str]) -> argparse.ArgumentParser:
    """One parser per process, rebuilt when ``ARBOR_SEED`` (its ``--seed``
    default) changes value."""
    return build_parser()


def main(argv=None) -> int:
    args = _cached_parser(os.environ.get("ARBOR_SEED")).parse_args(argv)
    try:
        return args.fn(args)
    except InternalInvariant as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        if exc.dump:
            print("offending input for bug report:", file=sys.stderr)
            print(exc.dump, file=sys.stderr)
        return 1
    except ArborError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
