import json
import os
import random
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import arbor
from arbor import cli
from arbor.cli import main
from arbor.colorings import KColoring
from arbor.equitable import verify_equitable
from arbor.errors import ArborError
from arbor.random_trees import enumerate_labeled_trees, prufer_encode, sample_labeled_tree
from arbor.trees import format_tree_text, parse_tree_text

from test_equitable import CROWDED_39, CROWDED_56
from test_trees import GRAPH_FORMS, fuzzed, held


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBalanceCommand:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "balance", "--seq", "1,3,12,2,1,1,4,3")
        assert code == 0
        payload = json.loads(out)
        assert payload["F"] == 3
        assert payload["balanced"] is False
        assert payload["schema"] == 1
        assert sorted(payload["partition_I"] + payload["partition_J"]) == list(range(1, 9))

    def test_space_separated(self, capsys):
        code, out, _ = run(capsys, "balance", "--seq", "5 5")
        assert code == 0 and json.loads(out)["F"] == 0

    def test_tree_file(self, capsys, tmp_path):
        f = tmp_path / "t.tree"
        f.write_text("3\n1 2\n2 3\n")
        code, out, _ = run(capsys, "balance", "--in", str(f))
        assert code == 0
        assert json.loads(out)["balanced"] is True

    def test_one_vertex_tree_file(self, capsys, tmp_path):
        # a lone vertex has degree 0: a tree file may hold one, a --seq value may not
        f = tmp_path / "t.tree"
        f.write_text("1\n")
        code, out, _ = run(capsys, "balance", "--in", str(f))
        assert code == 0
        payload = json.loads(out)
        assert (payload["F"], payload["partition_I"], payload["partition_J"], payload["balanced"]) == (0, [], [1], True)
        code, out, err = run(capsys, "balance", "--seq", "0")
        assert code == 2 and out == "" and err == "error: values must be positive\n"

    def test_missing_args(self, capsys):
        code, _, err = run(capsys, "balance")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("seq", ["1,x", "2 1.5", "3,,--"])
    def test_non_integer_entry(self, capsys, seq):
        code, out, err = run(capsys, "balance", "--seq", seq)
        assert code == 2 and out == "" and err.startswith("error: --seq takes integers")

    def test_oversized_table_refused_before_allocating(self, capsys):
        # 15 bytes of input would ask for a 10^12-bit DP row
        t0 = time.perf_counter()
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "balance", "--seq", "1,1000000000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and "limit" in err
        assert time.perf_counter() - t0 < 1
        assert peak < 1 << 20


class TestEnumerateCommand:
    def test_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "4", "--count-only")
        assert code == 0 and out.strip() == "16"

    def test_lists_every_tree(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "4")
        blocks = out.split("# tree ")[1:]
        expected = list(enumerate_labeled_trees(4))
        assert code == 0 and len(blocks) == len(expected) == 16
        for i, (block, t) in enumerate(zip(blocks, expected)):
            head, text = block.split("\n", 1)
            assert head == str(i)
            assert parse_tree_text(text) == t

    def test_too_large(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "9", "--count-only")
        assert code == 2


class TestColorCommand:
    def test_path9(self, capsys, tmp_path):
        f = tmp_path / "p9.tree"
        f.write_text("9\n" + "\n".join(f"{i} {i+1}" for i in range(1, 9)) + "\n")
        code, out, _ = run(capsys, "color", "--k", "3", "--in", str(f))
        assert code == 0
        payload = json.loads(out)
        assert sorted(payload["class_sizes"]) == [3, 3, 3]
        assert len(payload["assignment"]) == 9
        assert payload["trace"]

    def test_constrained(self, capsys, tmp_path):
        f = tmp_path / "p9.tree"
        f.write_text("9\n" + "\n".join(f"{i} {i+1}" for i in range(1, 9)) + "\n")
        code, out, _ = run(capsys, "color", "--k", "3", "--in", str(f), "--constrain", "2", "8")
        assert code == 0
        payload = json.loads(out)
        assert payload["assignment"]["2"] != payload["assignment"]["8"]

    def test_precondition_exit_code(self, capsys, tmp_path):
        f = tmp_path / "s7.tree"
        f.write_text("7\n" + "\n".join(f"1 {i}" for i in range(2, 8)) + "\n")
        code, _, err = run(capsys, "color", "--k", "3", "--in", str(f))
        assert code == 2 and "error" in err

    def test_verify_mode(self, capsys, tmp_path):
        f = tmp_path / "p3.tree"
        f.write_text("3\n1 2\n2 3\n")
        c = tmp_path / "cols.txt"
        c.write_text("1 1\n2 2\n3 3\n")
        code, out, _ = run(capsys, "color", "--k", "3", "--in", str(f), "--verify", str(c))
        assert code == 0
        payload = json.loads(out)
        assert payload["valid"] is True and payload["mono_edges"] == [0, 0, 0]

    def test_verify_rejects_monochromatic(self, capsys, tmp_path):
        f = tmp_path / "p3.tree"
        f.write_text("3\n1 2\n2 3\n")
        c = tmp_path / "cols.txt"
        c.write_text("1 1\n2 1\n3 2\n")
        code, out, _ = run(capsys, "color", "--k", "3", "--in", str(f), "--verify", str(c))
        assert code == 0 and json.loads(out)["valid"] is False

    @pytest.mark.parametrize(
        "extra,reason",
        [
            ("9 1\n", "vertex 9 is not a vertex of the graph (1..3)"),
            ("9 7\n", "vertex 9 is not a vertex"),
            ("2 3\n", "line 4: vertex 2 is colored twice"),
            ("3 3 3\n", "line 4: expected two integers"),
            ("x 1\n", "line 4: expected two integers"),
            ("0 1\n", "vertex 0 is not a vertex of the graph (1..3)"),
            ("-1 1\n", "vertex -1 is not a vertex of the graph (1..3)"),
            (None, "vertex 2 has no valid color"),
        ],
        ids=[
            "extra-vertex",
            "extra-vertex-bad-color",
            "repeated-vertex",
            "three-fields",
            "not-an-integer",
            "vertex-0",
            "vertex-minus-1",
            "missing-vertex",
        ],
    )
    def test_verify_refuses_bad_coloring_file(self, capsys, tmp_path, extra, reason):
        f = tmp_path / "p3.tree"
        f.write_text("3\n1 2\n2 3\n")
        c = tmp_path / "cols.txt"
        c.write_text("1 1\n3 3\n" if extra is None else "1 1\n2 2\n3 3\n" + extra)
        code, out, err = run(capsys, "color", "--k", "3", "--in", str(f), "--verify", str(c))
        assert (code, out) == (2, "")
        assert reason in err

    @pytest.mark.parametrize(
        "text,extra",
        [
            (CROWDED_56, []),
            (CROWDED_39, ["--constrain", "32", "33"]),
        ],
        ids=["n56", "n39-constrained"],
    )
    def test_crowded_spine_trees(self, capsys, tmp_path, text, extra):
        # every leaf crowds the hubs or the pre-leaf pair, so the coloring
        # comes from the exact skeleton search
        f = tmp_path / "crowded.tree"
        f.write_text(text)
        code, out, err = run(capsys, "color", "--k", "3", "--in", str(f), *extra)
        assert code == 0, err
        payload = json.loads(out)
        t = parse_tree_text(text)
        coloring = KColoring(3, [0, *(payload["assignment"][str(v)] for v in range(1, t.n + 1))])
        assert verify_equitable(t, coloring).valid
        assert "direct:spine" in payload["trace"]
        if extra:
            assert payload["assignment"]["32"] != payload["assignment"]["33"]

    def test_constrain_needs_k3(self, capsys, tmp_path):
        f = tmp_path / "p12.tree"
        f.write_text("12\n" + "\n".join(f"{i} {i+1}" for i in range(1, 12)) + "\n")
        code, out, err = run(capsys, "color", "--k", "4", "--in", str(f), "--constrain", "2", "11")
        assert code == 2 and "--constrain" in err and out == ""

    def test_header_only_file(self, capsys, tmp_path):
        f = tmp_path / "huge.tree"
        f.write_text("1000000000\n")
        code, _, err = run(capsys, "color", "--k", "3", "--in", str(f))
        assert code == 2 and "disconnected" in err


class TestSampleCommand:
    def test_stats_csv(self, capsys):
        code, out, _ = run(capsys, "sample", "--n", "10", "--trials", "3", "--seed", "5", "--emit", "stats")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "trial,max_degree,x1,x2"
        assert len(lines) == 4

    def test_deterministic(self, capsys):
        _, a, _ = run(capsys, "sample", "--n", "12", "--trials", "4", "--seed", "9", "--emit", "prufer")
        _, b, _ = run(capsys, "sample", "--n", "12", "--trials", "4", "--seed", "9", "--emit", "prufer")
        assert a == b

    def test_edges_parse_back(self, capsys, tmp_path):
        code, out, _ = run(capsys, "sample", "--n", "8", "--trials", "1", "--seed", "3", "--emit", "edges")
        assert code == 0
        from arbor.trees import parse_tree_text

        t = parse_tree_text("\n".join(ln for ln in out.splitlines() if not ln.startswith("#")))
        assert t.n == 8


class TestCheckCommand:
    def test_report(self, capsys, tmp_path):
        f = tmp_path / "s4.tree"
        f.write_text("4\nP: 1 1\n")
        code, out, _ = run(capsys, "check", "--in", str(f))
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 4 and payload["max_degree"] == 3
        assert payload["classes"]["leaf"] == 3 and payload["pre_leaves"] == [1]

    def test_reads_no_rows(self, capsys, tmp_path, monkeypatch):
        # the classes, pre-leaves and code come from the degree and XOR
        # lists, so the tree that the command read keeps only them
        read, got = cli._read_tree, []

        def kept(path):
            got.append(read(path))
            return got[-1]

        monkeypatch.setattr(cli, "_read_tree", kept)
        t = sample_labeled_tree(300, 24)
        edges = list(t.edges())
        random.Random(24).shuffle(edges)
        texts = {"code": f"300\nP: {' '.join(map(str, prufer_encode(t)))}\n", "edges": format_tree_text(t)}
        texts["shuffled"] = "300\n" + "".join(f"{v} {u}\n" for u, v in edges)
        outs = []
        for name, text in texts.items():
            f = tmp_path / f"{name}.tree"
            f.write_text(text)
            code, out, _ = run(capsys, "check", "--in", str(f))
            assert code == 0 and held(got[-1]) == GRAPH_FORMS, name
            outs.append(out)
        assert len(got) == 3 and outs[0] == outs[1] == outs[2]
        assert json.loads(outs[0])["prufer"] == prufer_encode(t)

    def test_invalid_tree(self, capsys, tmp_path):
        f = tmp_path / "bad.tree"
        f.write_text("4\n1 2\n3 4\n")
        code, _, err = run(capsys, "check", "--in", str(f))
        assert code == 2

    @pytest.mark.parametrize(
        "text,reason",
        [
            ("", "empty"),
            ("four\n1 2\n", "bad-header"),
            ("3\n1 2\n2\n", "bad-edge-line"),
            ("2\na b\n", "not-an-integer"),
            ("5\nP: 1 x 2\n", "not-an-integer"),
            ("4\nP: 1 1\n2 3\nP: 2 2\n", "trailing-line"),
        ],
    )
    def test_malformed_text(self, capsys, tmp_path, text, reason):
        # the typed error names its reason; exit 2 does not come from a
        # stray ValueError
        f = tmp_path / "bad.tree"
        f.write_text(text)
        for argv in (("check", "--in", str(f)), ("color", "--k", "3", "--in", str(f))):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "" and err.startswith(f"error: {reason}"), (argv, err)


class TestExperimentCommand:
    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "experiment", "--kind", "balanced-fraction", "--n", "12", "--trials", "20", "--seed", "2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "balanced-fraction" and payload["schema"] == 1

    def test_csv_output(self, capsys):
        import csv
        import io

        code, out, _ = run(
            capsys,
            "experiment", "--kind", "max-degree", "--n", "50", "--trials", "10", "--seed", "2", "--format", "csv",
        )
        assert code == 0
        header, row = list(csv.reader(io.StringIO(out)))
        assert len(header) == len(row)
        assert "kind" in header

    def test_byte_identical_runs(self, capsys):
        args = ("experiment", "--kind", "degree-stats", "--n", "30", "--trials", "15", "--seed", "8")
        _, a, _ = run(capsys, *args)
        _, b, _ = run(capsys, *args)
        assert a == b

    def test_zero_workers(self, capsys):
        code, out, err = run(
            capsys, "experiment", "--kind", "balanced-fraction", "--n", "10", "--trials", "5", "--workers", "0"
        )
        assert code == 2 and "workers" in err and out == ""

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "summary.json"
        code, _, _ = run(
            capsys,
            "experiment", "--kind", "balanced-fraction", "--n", "10", "--trials", "5", "--seed", "1",
            "--out", str(out_path),
        )
        assert code == 0
        assert json.loads(out_path.read_text())["kind"] == "balanced-fraction"


class TestUserErrorsAndBugs:
    """A typed ``ArborError`` is a user error (exit 2); any other exception
    is a bug and is not reported as one."""

    def test_stray_value_error_is_not_a_usage_error(self, monkeypatch, tmp_path):
        def broken(t, k):
            raise ValueError("a bug in library code")

        monkeypatch.setattr(cli, "equitable_coloring", broken)
        f = tmp_path / "p3.tree"
        f.write_text("3\n1 2\n2 3\n")
        with pytest.raises(ValueError, match="a bug in library code"):
            main(["color", "--k", "3", "--in", str(f)])

    def test_unreadable_files(self, capsys, tmp_path):
        binary = tmp_path / "binary.tree"
        binary.write_bytes(b"3\n1 2\n\xff\xfe 3\n")
        for argv in (
            ("check", "--in", str(binary)),
            ("check", "--in", str(tmp_path / "missing.tree")),
            ("color", "--in", str(tmp_path / "missing.tree")),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "" and err.startswith("error: "), (argv, err)
        good = tmp_path / "p3.tree"
        good.write_text("3\n1 2\n2 3\n")
        code, out, err = run(capsys, "color", "--k", "3", "--in", str(good), "--verify", str(binary))
        assert code == 2 and "is not text" in err

    def test_unwritable_out(self, capsys, tmp_path):
        for out in (tmp_path / "missing" / "x.json", tmp_path):
            code, stdout, err = run(capsys, "balance", "--seq", "1,1", "--out", str(out))
            assert code == 2 and stdout == "" and err.startswith("error: cannot write "), (out, err)

    @pytest.mark.parametrize("n", ["1", "0", "-4"])
    def test_sample_below_two_vertices(self, capsys, n):
        code, out, err = run(capsys, "sample", "--n", n)
        assert code == 2 and out == "" and "need n >= 2" in err


class TestReadColoringFuzz:
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.binary(),
            fuzzed(
                st.permutations(range(1, 7)).flatmap(
                    lambda vs: st.lists(st.integers(1, 3), min_size=6, max_size=6).map(
                        lambda cs: "\n".join(f"{v} {c}" for v, c in zip(vs, cs)) + "\n"
                    )
                )
            ).map(str.encode),
        ),
        st.integers(-1, 5),
        st.integers(0, 8),
    )
    def test_coloring_or_typed_error(self, tmp_path_factory, data, k, n):
        path = tmp_path_factory.mktemp("coloring") / "c.txt"
        path.write_bytes(data)
        try:
            coloring = cli._read_coloring(str(path), k, n)
        except ArborError:
            return
        assert isinstance(coloring, KColoring) and coloring.k == k
        assert len(coloring.col) == n + 1 and coloring.col[0] == 0
        assert all(c is None or type(c) is int for c in coloring.col)


class TestInternalInvariantExit:
    def test_dumps_offending_tree(self, capsys, monkeypatch, tmp_path):
        from arbor import cli
        from arbor.errors import InternalInvariant

        def boom(t, k):
            raise InternalInvariant("forced for the test", dump="3\n1 2\n2 3\n")

        monkeypatch.setattr(cli, "equitable_coloring", boom)
        f = tmp_path / "p9.tree"
        f.write_text("9\n" + "\n".join(f"{i} {i+1}" for i in range(1, 9)) + "\n")
        code = cli.main(["color", "--k", "4", "--in", str(f)])
        err = capsys.readouterr().err
        assert code == 1
        assert "bug report" in err and "1 2" in err


class TestSeedEnvDefault:
    def test_arbor_seed_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ARBOR_SEED", "31")
        from arbor.cli import build_parser

        # parser defaults are bound at build time, so rebuild under the env
        args = build_parser().parse_args(["sample", "--n", "6", "--trials", "1"])
        assert args.seed == 31


    def test_bad_env_seed(self, capsys, monkeypatch, tmp_path):
        # only the subcommands with --seed read ARBOR_SEED, and a bad value
        # is a usage error there, not a crash
        monkeypatch.setenv("ARBOR_SEED", "abc")
        f = tmp_path / "p3.tree"
        f.write_text("3\n1 2\n2 3\n")
        code, out, _ = run(capsys, "check", "--in", str(f))
        assert code == 0 and json.loads(out)["n"] == 3
        for argv in (["sample", "--n", "5"], ["experiment", "--kind", "max-degree", "--n", "5", "--trials", "2"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "invalid int value: 'abc'" in capsys.readouterr().err
        code, out, _ = run(capsys, "sample", "--n", "5", "--seed", "3")
        assert code == 0 and out.startswith("trial,")


class TestParserCache:
    def test_main_follows_a_changed_env(self, capsys, monkeypatch):
        # main keeps one parser per process; a new ARBOR_SEED must still reach --seed
        argv = ("sample", "--n", "9", "--trials", "2", "--emit", "prufer")
        outs = []
        for seed in ("5", "6", "5"):
            monkeypatch.setenv("ARBOR_SEED", seed)
            code, out, _ = run(capsys, *argv)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[2] != outs[1]
        assert outs[0] == run(capsys, *argv, "--seed", "5")[1]



class TestImportFootprint:
    def test_cli_loads_neither_numpy_nor_multiprocessing(self):
        # only sampling imports numpy, and only a --workers pool multiprocessing,
        # so check, color, balance and enumerate start without either
        src = os.path.dirname(os.path.dirname(arbor.__file__))
        probe = "import sys, arbor.cli; print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'multiprocessing'}))"
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
        assert done.stdout == "[]\n"
