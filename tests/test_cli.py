"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.datasets.io import save_strings, save_vectors


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_bench_serve_is_gone(self, tmp_path):
        """The open-loop load generator is not a subcommand."""
        with pytest.raises(SystemExit) as info:
            main(["bench-serve", "--input", str(tmp_path / "q.txt"),
                  "--kind", "vectors", "--unix-socket",
                  str(tmp_path / "r.sock"), "--qps", "10"])
        assert info.value.code == 2


class TestTable1:
    def test_default(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "392085" in out  # d=4, k=12

    def test_custom_range(self, capsys):
        assert main(["table1", "--max-d", "2", "--max-k", "4"]) == 0
        out = capsys.readouterr().out
        assert "18" in out
        assert "392085" not in out


class TestBound:
    def test_euclidean_exact(self, capsys):
        assert main(["bound", "3", "5"]) == 0
        assert "96" in capsys.readouterr().out

    def test_l1(self, capsys):
        assert main(["bound", "2", "4", "--p", "1"]) == 0
        out = capsys.readouterr().out
        assert "upper bound" in out or "exact" in out

    def test_inf(self, capsys):
        assert main(["bound", "2", "5", "--p", "inf"]) == 0
        assert "N_{2,inf}(5)" in capsys.readouterr().out

    def test_invalid_p(self, capsys):
        assert main(["bound", "2", "5", "--p", "3"]) == 1
        assert "error" in capsys.readouterr().err


_VECTOR_FLAGS = ["--input", "{vectors}", "--kind", "vectors", "--metric", "l2"]


#: The subcommands that read a database of one ``--kind``.
_KIND_COMMANDS = (
    ("census", ()),
    ("search", ()),
    ("serve", ("--unix-socket", "{sock}")),
)


class TestNoTraceback:
    """Bad input never reaches a traceback: one ``error:`` line, exit 1."""

    @pytest.mark.parametrize("argv, message", [
        (["census", "--input", "{words}", "--kind", "vectors",
          "--metric", "l2"], "cannot read {words}: could not convert"),
        (["census", "--input", "{words}", "--kind", "vectors",
          "--metric", "l2", "--sites", "2", "--chunk-rows", "1"],
         "cannot read {words}: could not convert"),
        (["search", "--input", "{words}", "--kind", "vectors",
          "--metric", "l2"], "cannot read {words}: could not convert"),
        (["search", *_VECTOR_FLAGS, "--n-queries", "-2"],
         "--n-queries must be >= 1"),
        (["search", *_VECTOR_FLAGS, "--seed", "-1"], "--seed must be >= 0"),
        (["search", *_VECTOR_FLAGS, "--index", "distperm", "--mode",
          "knn-approx", "--budget", "-1"], "--budget must be >= 0"),
        (["counterexample", "--points", "-1"], "--points must be >= 1"),
        (["counterexample", "--seed", "-1"], "--seed must be >= 0"),
        (["serve", *_VECTOR_FLAGS, "--host", "127.0.0.1", "--port", "-1"],
         "--port must be in 0..65535"),
        (["serve", *_VECTOR_FLAGS, "--index", "distperm", "--sites", "0",
          "--unix-socket", "{sock}"], "--sites must be >= 1"),
        (["serve", *_VECTOR_FLAGS, "--seed", "-1", "--unix-socket",
          "{sock}"], "--seed must be >= 0"),
        (["bound", "2", "3", "--p", "0"], "--p must be 1, 2 or inf, got 0"),
        (["bound", "2", "3", "--p", "7"], "--p must be 1, 2 or inf, got 7"),
        (["bound", "2", "-1"], "bound requires d >= 0, k >= 1"),
        (["bound", "-1", "3"], "bound requires d >= 0, k >= 1"),
        *(
            ([command, "--input", "{vectors}", "--kind", "vectors",
              "--metric", metric, *extra],
             f"--metric {metric} needs --kind strings")
            for command, extra in _KIND_COMMANDS
            for metric in ("levenshtein", "prefix")
        ),
        *(
            ([command, "--input", "{words}", "--kind", "strings",
              "--metric", metric, *extra],
             f"--metric {metric} needs --kind vectors")
            for command, extra in _KIND_COMMANDS
            for metric in ("l1", "l2", "linf", "angular")
        ),
        (["table1", "--max-d", "0"], "need --max-d >= 1 and --max-k >= 2"),
        (["table1", "--max-k", "1"], "need --max-d >= 1 and --max-k >= 2"),
    ])
    def test_bad_input_prints_one_error_line(
        self, argv, message, tmp_path, capsys, rng
    ):
        paths = {
            "vectors": tmp_path / "vectors.txt",
            "words": tmp_path / "words.txt",
            "sock": tmp_path / "never-bound.sock",
        }
        save_vectors(paths["vectors"], rng.random((30, 2)))
        save_strings(paths["words"], ["alpha", "beta", "gamma"])
        fill = {name: str(path) for name, path in paths.items()}
        assert main([arg.format(**fill) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message.format(**fill)}")
        assert err.count("\n") == 1
        assert not paths["sock"].exists()


class TestCensus:
    def test_vector_census(self, tmp_path, capsys, rng):
        path = tmp_path / "vectors.txt"
        save_vectors(path, rng.random((200, 3)))
        code = main([
            "census", "--input", str(path), "--kind", "vectors",
            "--metric", "l2", "--sites", "5", "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "unique distance permutations" in out
        assert "bits/element" in out

    def test_string_census_with_dump(self, tmp_path, capsys):
        path = tmp_path / "words.txt"
        words = ["hello", "help", "word", "world", "cat", "cart", "care",
                 "core", "bore", "gene"]
        save_strings(path, words)
        dump = tmp_path / "perms.txt"
        code = main([
            "census", "--input", str(path), "--kind", "strings",
            "--metric", "levenshtein", "--sites", "3", "--dump", str(dump),
        ])
        assert code == 0
        lines = dump.read_text().splitlines()
        assert len(lines) == len(words)
        # The paper's pipeline: unique lines == reported census.
        out = capsys.readouterr().out
        reported = int(out.split("unique distance permutations: ")[1].split()[0])
        assert len(set(lines)) == reported

    def test_too_many_sites(self, tmp_path, capsys, rng):
        path = tmp_path / "vectors.txt"
        save_vectors(path, rng.random((5, 2)))
        code = main([
            "census", "--input", str(path), "--kind", "vectors",
            "--metric", "l2", "--sites", "10",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_negative_seed_rejected_before_reading(self, tmp_path, capsys,
                                                    monkeypatch, rng):
        """``--seed -1`` is one ``error:`` line and exit 1, not numpy's
        traceback, and no row of the database is read."""
        path = tmp_path / "vectors.txt"
        save_vectors(path, rng.random((20, 2)))

        def never(*args, **kwargs):
            raise AssertionError("the database was read before validation")

        monkeypatch.setattr("repro.datasets.io.load_vectors", never)
        code = main([
            "census", "--input", str(path), "--kind", "vectors",
            "--metric", "l2", "--sites", "3", "--seed", "-1",
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: --seed must be >= 0\n"

    def test_empty_database(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("")
        code = main([
            "census", "--input", str(path), "--kind", "strings",
            "--metric", "levenshtein",
        ])
        assert code == 1


class TestSearch:
    def test_batched_knn_over_vectors(self, tmp_path, capsys, rng):
        path = tmp_path / "vectors.txt"
        save_vectors(path, rng.random((120, 3)))
        code = main([
            "search", "--input", str(path), "--kind", "vectors",
            "--metric", "l2", "--index", "distperm", "--mode", "knn",
            "--k", "5", "--n-queries", "10", "--show", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "queries/sec:" in out
        assert "distances/query:" in out
        assert "(batched)" in out
        assert "query 0:" in out and "query 1:" in out

    def test_knn_approx_budget_caps_cost(self, tmp_path, capsys, rng):
        path = tmp_path / "vectors.txt"
        save_vectors(path, rng.random((200, 3)))
        code = main([
            "search", "--input", str(path), "--kind", "vectors",
            "--metric", "l2", "--index", "distperm",
            "--mode", "knn-approx", "--k", "3", "--budget", "20",
            "--sites", "4", "--n-queries", "8",
        ])
        assert code == 0
        out = capsys.readouterr().out
        cost = float(out.split("distances/query: ")[1].split()[0])
        assert cost == 20 + 4  # budget + site evaluations per query

    def test_no_batch_loops_single_queries(self, tmp_path, capsys, rng):
        path = tmp_path / "vectors.txt"
        save_vectors(path, rng.random((60, 2)))
        code = main([
            "search", "--input", str(path), "--kind", "vectors",
            "--metric", "l1", "--index", "linear", "--mode", "range",
            "--radius", "0.4", "--n-queries", "5", "--no-batch",
        ])
        assert code == 0
        assert "(looped single-query)" in capsys.readouterr().out

    def test_string_workload_with_query_file(self, tmp_path, capsys):
        db = tmp_path / "words.txt"
        save_strings(db, ["hello", "help", "word", "world", "cat", "cart",
                          "care", "core", "bore", "gene"])
        qfile = tmp_path / "queries.txt"
        save_strings(qfile, ["helo", "wort"])
        code = main([
            "search", "--input", str(db), "--kind", "strings",
            "--metric", "levenshtein", "--index", "linear",
            "--mode", "knn", "--k", "3", "--queries", str(qfile),
            "--show", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 queries" in out

    def test_batch_and_loop_agree(self, tmp_path, capsys, rng):
        path = tmp_path / "vectors.txt"
        save_vectors(path, rng.random((80, 3)))
        argv = [
            "search", "--input", str(path), "--kind", "vectors",
            "--metric", "l2", "--index", "aesa", "--mode", "knn",
            "--k", "4", "--n-queries", "6", "--show", "6",
        ]
        assert main(argv) == 0
        batched = capsys.readouterr().out
        assert main(argv + ["--no-batch"]) == 0
        looped = capsys.readouterr().out
        def extract(text):
            return [
                line for line in text.splitlines()
                if line.startswith("query ")
            ]

        assert extract(batched) == extract(looped)

    def test_negative_seed_rejected_before_reading(self, tmp_path, capsys,
                                                    monkeypatch, rng):
        """``--seed -1`` is one ``error:`` line and exit 1, not numpy's
        traceback, and no row of the database is read."""
        path = tmp_path / "vectors.txt"
        save_vectors(path, rng.random((20, 2)))

        def never(*args, **kwargs):
            raise AssertionError("the database was read before validation")

        monkeypatch.setattr("repro.datasets.io.load_vectors", never)
        code = main([
            "census", "--input", str(path), "--kind", "vectors",
            "--metric", "l2", "--sites", "3", "--seed", "-1",
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: --seed must be >= 0\n"

    def test_empty_database(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("")
        code = main([
            "search", "--input", str(path), "--kind", "strings",
            "--metric", "levenshtein",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_rejects_bad_k(self, tmp_path, capsys, rng):
        path = tmp_path / "vectors.txt"
        save_vectors(path, rng.random((10, 2)))
        code = main([
            "search", "--input", str(path), "--kind", "vectors",
            "--metric", "l2", "--k", "0",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestOtherCommands:
    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Fig 3" in out
        assert "18" in out

    def test_counterexample_small(self, capsys):
        code = main(["counterexample", "--points", "200000"])
        out = capsys.readouterr().out
        assert "Euclidean limit N_3,2(5): 96" in out
        assert code == 0  # exceeds the limit even at 200k points

    def test_table3_slice(self, capsys):
        code = main([
            "table3", "--dims", "1", "--ks", "4", "--n", "2000",
            "--runs", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "L1" in out and "Linf" in out

    def test_table2_slice(self, capsys):
        code = main(["table2", "--names", "long", "--n", "300"])
        assert code == 0
        assert "long" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (["table3", "--runs", "0"], "--runs must be >= 1"),
        (["table3", "--n", "3", "--ks", "4"],
         "--ks must lie in [2, --n] = [2, 3]"),
        (["table3", "--ks", "1"], "--ks must lie in [2, --n]"),
        (["table3", "--dims", "0"], "--dims must be >= 1"),
        (["table2", "--n", "5"],
         "--n must be 0 (the preset size) or >= 12"),
        (["table2", "--names", "long", "bogus"], "unknown --names bogus;"),
        (["table2", "--seed", "-1"], "--seed must be >= 0"),
    ])
    def test_table_sizes_rejected_before_any_database(
        self, argv, message, capsys, monkeypatch
    ):
        """A size no census can run on fails like every other flag: one
        ``error:`` line and exit 1, before any database is drawn."""
        def never(*args, **kwargs):
            raise AssertionError("a database was drawn before validation")

        monkeypatch.setattr("repro.experiments.table3.uniform_vectors", never)
        monkeypatch.setattr("repro.experiments.table2.load_database", never)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1

    def test_table3_too_few_points_for_rho_exits_cleanly(self, capsys):
        # Two points give one sampled pair: no rho estimate.
        assert main(["table3", "--n", "2", "--ks", "2", "--dims", "1",
                     "--runs", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestParallelFlags:
    """--workers / --shards / --resident wiring plus the table3 --seed flag."""

    def test_table3_seed_changes_draws(self, capsys):
        argv = ["table3", "--dims", "1", "--ks", "4", "--n", "1500",
                "--runs", "2"]
        assert main(argv + ["--seed", "1"]) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--seed", "1"]) == 0
        again = capsys.readouterr().out
        assert main(argv + ["--seed", "2"]) == 0
        other = capsys.readouterr().out
        assert first == again  # same seed reproduces the run
        assert first != other  # the flag actually reaches the draws

    def test_census_parallel_matches_serial(self, tmp_path, capsys):
        path = tmp_path / "words.txt"
        save_strings(path, ["hello", "help", "word", "world", "cat",
                            "cart", "care", "core", "bore", "gene"])
        argv = ["census", "--input", str(path), "--kind", "strings",
                "--metric", "levenshtein", "--sites", "3", "--seed", "4"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    @pytest.mark.parametrize("kind, metric", [
        ("vectors", "l1"), ("strings", "levenshtein"),
    ])
    def test_census_paths_agree(self, tmp_path, capsys, rng, kind, metric):
        """Serial, pooled and disk-streamed censuses print the same
        report; serial and pooled dumps are the same bytes."""
        path = tmp_path / "db.txt"
        if kind == "vectors":
            # An integer grid: heavy distance ties under L1.
            save_vectors(path, rng.integers(0, 4, size=(900, 3)).astype(float))
        else:
            save_strings(path, ["".join("acgt"[i] for i in rng.integers(
                0, 4, size=rng.integers(2, 7))) for _ in range(600)])
        argv = ["census", "--input", str(path), "--kind", kind,
                "--metric", metric, "--sites", "6", "--seed", "3",
                "--report-storage"]
        reports = []
        for flags in ([], ["--workers", "2"], ["--chunk-rows", "170"]):
            assert main(argv + flags) == 0
            reports.append(capsys.readouterr().out.splitlines())
        serial = reports[0]
        assert "streamed 170 rows/chunk" in reports[2][0]
        for report in reports[1:]:
            assert report[1:] == serial[1:]
        dumps = []
        for flags in ([], ["--workers", "2"]):
            dump = tmp_path / f"perms{len(dumps)}.txt"
            assert main(argv + flags + ["--dump", str(dump)]) == 0
            capsys.readouterr()
            dumps.append(dump.read_bytes())
        assert dumps[0] == dumps[1]

    def test_invalid_flags_report_errors(self, tmp_path, capsys, rng):
        path = tmp_path / "vectors.txt"
        save_vectors(path, rng.random((30, 2)))
        base = ["search", "--input", str(path), "--kind", "vectors",
                "--metric", "l2", "--index", "linear", "--n-queries", "3"]
        assert main(base + ["--shards", "0"]) == 1
        assert "--shards must be >= 1" in capsys.readouterr().err
        argv = ["census", "--input", str(path), "--kind", "vectors",
                "--metric", "l2", "--sites", "3", "--workers", "-2"]
        assert main(argv) == 1
        assert "--workers must be >= 0" in capsys.readouterr().err
        assert main(["table3", "--dims", "1", "--ks", "4", "--n", "100",
                     "--runs", "1", "--workers", "-1"]) == 1
        assert "--workers must be >= 0" in capsys.readouterr().err
        # The census row shards follow the pool size; there is no flag.
        with pytest.raises(SystemExit):
            main(argv + ["--shards", "2"])

    def test_search_sharded_matches_unsharded(self, tmp_path, capsys, rng):
        path = tmp_path / "vectors.txt"
        save_vectors(path, rng.random((90, 3)))
        argv = ["search", "--input", str(path), "--kind", "vectors",
                "--metric", "l2", "--index", "vptree", "--mode", "knn",
                "--k", "4", "--n-queries", "6", "--show", "6"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--shards", "3", "--resident"]) == 0
        sharded = capsys.readouterr().out
        answers = lambda text: [  # noqa: E731
            line for line in text.splitlines() if line.startswith("query")
        ]
        assert answers(plain) == answers(sharded)
        assert "3 shards x pinned workers" in sharded
        assert "all 3 shards answered" in sharded
        assert main(argv + ["--shards", "3"]) == 0
        in_process = capsys.readouterr().out
        assert answers(plain) == answers(in_process)
        assert "3 shards in-process" in in_process
        assert "shards answered" not in in_process


class TestResilienceFlags:
    """--resident / --deadline / --retries / --on-partial wiring."""

    def test_resident_search_matches_plain(self, tmp_path, capsys, rng):
        path = tmp_path / "vectors.txt"
        save_vectors(path, rng.random((90, 3)))
        argv = ["search", "--input", str(path), "--kind", "vectors",
                "--metric", "l2", "--index", "linear", "--mode", "knn",
                "--k", "4", "--n-queries", "5", "--show", "5"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--shards", "3", "--resident",
                            "--on-partial", "degrade"]) == 0
        resident = capsys.readouterr().out
        answers = lambda text: [  # noqa: E731
            line for line in text.splitlines() if line.startswith("query")
        ]
        assert answers(plain) == answers(resident)
        assert "3 shards x pinned workers" in resident
        assert "all 3 shards answered" in resident

    @pytest.mark.parametrize("command", ["search", "serve"])
    def test_bad_engine_flags_rejected_alike(
        self, command, tmp_path, capsys, rng
    ):
        """One engine-options group: search and serve share one validator,
        so the same bad flag gets the same message and exit code."""
        path = tmp_path / "vectors.txt"
        save_vectors(path, rng.random((30, 2)))
        base = [command, "--input", str(path), "--kind", "vectors",
                "--metric", "l2", "--index", "linear"]
        if command == "serve":
            base += ["--unix-socket", str(tmp_path / "never-bound.sock")]
        for flags, message in (
            (["--resident"], "--resident/--deadline/--retries/--on-partial "
                             "need sharded execution"),
            (["--shards", "2", "--deadline", "0"], "--deadline must be > 0"),
            (["--shards", "2", "--deadline", "-1"], "--deadline must be > 0"),
            (["--shards", "2", "--retries", "-1"], "--retries must be >= 0"),
            (["--shards", "0"], "--shards must be >= 1"),
        ):
            assert main(base + flags) == 1, flags
            assert f"error: {message}" in capsys.readouterr().err, flags
        # --workers sizes the census task pool only; the query engine's
        # one pool switch is --resident.
        with pytest.raises(SystemExit):
            main(base + ["--shards", "2", "--workers", "2"])


class TestServeFlags:
    @pytest.mark.parametrize("flags, message", [
        (["--max-batch", "0"], "max_batch must be >= 1, got 0"),
        (["--max-wait-ms", "-1"], "window bounds must be >= 0"),
        (["--max-queue", "0", "--shards", "2", "--resident"],
         "max_queue must be >= 1, got 0"),
    ])
    def test_batching_flags_rejected_before_any_work(
        self, flags, message, tmp_path, capsys, rng, monkeypatch
    ):
        """A bad batching window fails like every other flag: one
        ``error:`` line and exit 1, before the index (or a worker) is
        built."""
        def never(args):
            raise AssertionError("the index was built before validation")

        monkeypatch.setattr("repro.cli._index_factory", never)
        path = tmp_path / "vectors.txt"
        save_vectors(path, rng.random((30, 2)))
        argv = ["serve", "--input", str(path), "--kind", "vectors",
                "--metric", "l2", "--unix-socket",
                str(tmp_path / "never-bound.sock"), *flags]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


#: The valid required arguments of each subcommand: options first, then
#: positionals by ``dest`` (a case on a positional replaces its value).
_REQUIRED_ARGS = {
    "census": (_VECTOR_FLAGS, {}),
    "search": (_VECTOR_FLAGS, {}),
    "serve": ([*_VECTOR_FLAGS, "--unix-socket", "{sock}"], {}),
    "bound": ([], {"d": "2", "k": "3"}),
}

#: Integer options for which -1 is a valid value, with the reason.  None
#: is today: every count, size, seed and index the CLI takes is >= 0.
_NEGATIVE_ONE_VALID: dict = {}


def _integer_option_cases():
    """``(command, option)`` for every ``type=int`` argument of every
    subcommand; ``option`` is the flag, or the ``dest`` of a positional."""
    import argparse

    subcommands = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return [
        (command, action.option_strings[0] if action.option_strings
         else action.dest)
        for command, parser in sorted(subcommands.choices.items())
        for action in parser._actions
        if action.type is int
    ]


#: Integer options for which 0 is a valid value, with the reason.
_ZERO_VALID = {
    ("bound", "d"): "the zero-dimensional space is one point",
    **{(command, "--seed"): "0 seeds numpy like any other integer"
       for command in ("census", "counterexample", "search", "serve",
                       "table2", "table3")},
    **{(command, "--workers"): "0 workers is the in-process census"
       for command in ("census", "table2", "table3")},
    ("search", "--budget"): "a budget is raised to k; 0 asks for the least",
    ("search", "--show"): "the default: print no answer rows",
    ("serve", "--port"): "port 0 is a kernel-assigned port",
    ("table2", "--n"): "the default: each dataset's fast-preset size",
}

#: Path options: an input must exist, an output needs its directory.
_INPUT_PATHS = {"--input", "--queries", "--load-index"}
_OUTPUT_PATHS = {"--dump", "--save-index", "--unix-socket"}

#: Options that name one of a fixed set without argparse ``choices``
#: (datasets, norms), with a name that is none of them.
_UNKNOWN_NAMES = {"--names": "Bogus", "--p": "bogus"}

#: String options no sweep runs, with the reason.
_STRING_UNSWEPT = {
    "--host": "an unknown host name is looked up on the network",
}

#: Flags a path case needs so that its path is the first thing checked.
_PATH_CONTEXT = {
    "--load-index": ["--index", "distperm"],
    "--save-index": ["--index", "distperm"],
}


def _string_option_cases():
    """``(command, option, choices)`` for every option of every
    subcommand that takes a string value."""
    import argparse

    subcommands = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return [
        (command, action.option_strings[0], action.choices)
        for command, parser in sorted(subcommands.choices.items())
        for action in parser._actions
        if action.option_strings and action.type is None
        and action.nargs != 0
    ]


def _run_one_error_line(argv, capsys, sock):
    """``main(argv)`` exits 1 with one ``error:`` line, no traceback and
    no socket; returns that line."""
    assert main(argv) == 1, argv
    captured = capsys.readouterr()
    assert captured.err.startswith("error: "), (argv, captured.err)
    assert captured.err.count("\n") == 1, (argv, captured.err)
    assert "Traceback" not in captured.err
    assert not sock.exists()
    return captured.err


class TestNegativeIntegers:
    """Every integer option rejects -1 the same way: one ``error:`` line
    and exit 1, never a traceback, an empty report or a started server.
    The same walk covers 0 where 0 is invalid, unknown names and
    missing paths."""

    @staticmethod
    def _argv(command, option, value, paths, extra=()):
        flags, positionals = _REQUIRED_ARGS.get(command, ([], {}))
        fill = {name: str(path) for name, path in paths.items()}
        argv = [command, *(arg.format(**fill) for arg in flags), *extra]
        if option.startswith("-"):
            return argv + [*positionals.values(), option, value]
        return argv + [{**positionals, option: value}[dest]
                       for dest in positionals]

    @pytest.fixture
    def paths(self, tmp_path, rng):
        paths = {
            "vectors": tmp_path / "vectors.txt",
            "sock": tmp_path / "never-bound.sock",
        }
        save_vectors(paths["vectors"], rng.random((30, 2)))
        return paths

    @pytest.mark.parametrize("command, option", [
        case for case in _integer_option_cases()
        if case not in _NEGATIVE_ONE_VALID
    ])
    def test_minus_one_is_one_error_line(
        self, command, option, paths, capsys
    ):
        argv = self._argv(command, option, "-1", paths)
        _run_one_error_line(argv, capsys, paths["sock"])

    @pytest.mark.parametrize("command, option", [
        case for case in _integer_option_cases() if case not in _ZERO_VALID
    ])
    def test_zero_is_one_error_line(self, command, option, paths, capsys):
        argv = self._argv(command, option, "0", paths)
        _run_one_error_line(argv, capsys, paths["sock"])

    def test_zero_allowlist_names_real_options(self):
        assert set(_ZERO_VALID) <= set(_integer_option_cases())

    @pytest.mark.parametrize("command, option", [
        (command, option) for command, option, choices
        in _string_option_cases() if option in _UNKNOWN_NAMES
    ])
    def test_unknown_name_is_one_error_line(
        self, command, option, paths, capsys
    ):
        name = _UNKNOWN_NAMES[option]
        argv = self._argv(command, option, name, paths)
        assert name in _run_one_error_line(argv, capsys, paths["sock"])

    @pytest.mark.parametrize("command, option", [
        (command, option) for command, option, choices
        in _string_option_cases() if choices is not None
    ])
    def test_unknown_choice_is_refused_by_the_parser(
        self, command, option, paths, capsys
    ):
        """Metrics, kinds, indexes and modes are argparse ``choices``: an
        unknown one is refused before any command runs, with the exit
        status 2 and usage line every parse error has (``TestParser``)."""
        with pytest.raises(SystemExit) as info:
            main(self._argv(command, option, "bogus", paths))
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}" in err and "invalid choice" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, option", [
        (command, option) for command, option, _ in _string_option_cases()
        if option in _INPUT_PATHS | _OUTPUT_PATHS
    ])
    def test_missing_path_is_one_error_line(
        self, command, option, paths, capsys, tmp_path
    ):
        """An input that does not exist, or an output (a payload, a dump,
        a socket) in a directory that does not, is refused before the
        index is built or a server is started."""
        missing = tmp_path / "missing" / "file"
        argv = self._argv(command, option, str(missing), paths,
                          _PATH_CONTEXT.get(option, ()))
        err = _run_one_error_line(argv, capsys, paths["sock"])
        assert str(missing) in err
        assert not missing.parent.exists()

    def test_every_string_option_is_walked(self):
        options = {option for _, option, choices in _string_option_cases()
                   if choices is None}
        swept = _INPUT_PATHS | _OUTPUT_PATHS | set(_UNKNOWN_NAMES)
        assert options == swept | set(_STRING_UNSWEPT)
        assert not swept & set(_STRING_UNSWEPT)

    def test_every_subcommand_with_integer_options_is_walked(self):
        commands = {command for command, _ in _integer_option_cases()}
        assert commands == {"bound", "census", "counterexample", "search",
                            "serve", "table1", "table2", "table3"}
