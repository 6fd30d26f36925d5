"""Tests for the command-line tools."""

import pytest

from repro.trace.cli import main as trace_main
from repro.trace.dinero import load_trace


class TestTraceCLI:
    def test_generate_and_stats(self, tmp_path, capsys):
        out = tmp_path / "t.din"
        code = trace_main(
            ["generate", str(out), "--kind", "zipf", "--count", "500"]
        )
        assert code == 0
        assert load_trace(out).access_count == 500
        code = trace_main(["stats", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "500 accesses" in captured
        assert "zipf" in captured

    @pytest.mark.parametrize(
        "kind", ["sequential", "looped", "random", "pointer_chase"]
    )
    def test_all_generators(self, tmp_path, kind):
        out = tmp_path / f"{kind}.din"
        assert trace_main(
            ["generate", str(out), "--kind", kind, "--count", "100"]
        ) == 0
        assert load_trace(out).access_count > 0

    def test_simulate(self, tmp_path, capsys):
        out = tmp_path / "t.din"
        trace_main(
            ["generate", str(out), "--kind", "looped", "--count", "400",
             "--span", "512"]
        )
        code = trace_main(
            ["simulate", str(out), "--size", "2048", "--columns", "4"]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "miss_rate" in captured

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            trace_main([])


class TestExperimentsCLI:
    def test_figure4_quick(self, capsys):
        from repro.experiments.cli import main as experiments_main

        code = experiments_main(["figure4", "--quick"])
        captured = capsys.readouterr().out
        assert code == 0, captured
        assert "figure4-dequant" in captured
        assert "all shape checks passed" in captured

    def test_bad_target_rejected(self):
        from repro.experiments.cli import main as experiments_main

        with pytest.raises(SystemExit):
            experiments_main(["figure9"])


class TestTraceCLIDetails:
    """Deeper coverage of the trace CLI's options and error paths."""

    def test_generate_respects_seed_and_element_size(self, tmp_path):
        first = tmp_path / "a.din"
        second = tmp_path / "b.din"
        third = tmp_path / "c.din"
        for out, seed in ((first, "1"), (second, "1"), (third, "2")):
            assert trace_main(
                ["generate", str(out), "--kind", "random",
                 "--count", "200", "--seed", seed,
                 "--element-size", "4"]
            ) == 0
        same = load_trace(first)
        again = load_trace(second)
        different = load_trace(third)
        assert list(same.addresses) == list(again.addresses)
        assert list(same.addresses) != list(different.addresses)

    def test_generate_base_offsets_addresses(self, tmp_path):
        out = tmp_path / "seq.din"
        trace_main(
            ["generate", str(out), "--kind", "sequential",
             "--count", "10", "--base", "4096"]
        )
        trace = load_trace(out)
        assert int(trace.addresses.min()) >= 4096

    def test_simulate_reports_exact_counts(self, tmp_path, capsys):
        out = tmp_path / "t.din"
        trace_main(
            ["generate", str(out), "--kind", "sequential",
             "--count", "256", "--element-size", "16"]
        )
        capsys.readouterr()
        assert trace_main(
            ["simulate", str(out), "--size", "4096",
             "--line-size", "16", "--columns", "1"]
        ) == 0
        captured = capsys.readouterr().out
        # A pure 16B-stride stream through 16B lines never reuses one.
        assert "hits=0" in captured
        assert "accesses=256" in captured

    def test_simulate_is_an_alias_of_replay(self, tmp_path, capsys):
        """Same defaults, same two result lines (the throughput line
        that follows them is wall-clock)."""
        out = tmp_path / "z.din"
        trace_main(["generate", str(out), "--count", "500"])
        results = []
        for verb in ("simulate", "replay"):
            capsys.readouterr()
            assert trace_main([verb, str(out), "--columns", "2"]) == 0
            results.append(capsys.readouterr().out.splitlines()[:2])
        assert results[0] == results[1]
        assert results[0][1].startswith("accesses=500 ")

    def test_stats_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            trace_main(["stats", str(tmp_path / "missing.din")])

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            trace_main(
                ["generate", str(tmp_path / "x.din"), "--kind", "bogus"]
            )

    @pytest.mark.parametrize("option", ["--shards", "--workers"])
    def test_replay_runs_in_one_process(self, tmp_path, option):
        """A replay is one cache in one process: neither a shard nor a
        worker count is an option."""
        out = tmp_path / "t.din"
        trace_main(["generate", str(out), "--count", "100"])
        with pytest.raises(SystemExit) as exit_info:
            trace_main(["replay", str(out), option, "2"])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--chunk-size", "0", "--chunk-size: must be >= 1, got 0"),
            ("--columns", "0", "--columns: must be >= 1, got 0"),
            ("--size", "x", "--size: not an integer: 'x'"),
            ("--size", "1000", "power of two, got 1000"),
            ("--line-size", "12", "whole number of 12-byte lines"),
        ],
    )
    def test_replay_rejects_a_bad_size_as_usage(
        self, tmp_path, capsys, option, value, message
    ):
        """A bad size or count exits 2 naming it, before any replay."""
        out = tmp_path / "t.din"
        trace_main(["generate", str(out), "--count", "100"])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            trace_main(["replay", str(out), option, value])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err


class TestExperimentsCLIEngine:
    """The experiments CLI drives sweeps through the engine."""

    def test_cache_dir_makes_second_run_incremental(
        self, tmp_path, capsys
    ):
        from repro.experiments.cli import main as experiments_main

        arguments = [
            "figure4", "--quick", "--cache-dir", str(tmp_path)
        ]
        assert experiments_main(arguments) == 0
        first = capsys.readouterr().out
        assert "jobs executed" in first
        assert experiments_main(arguments) == 0
        second = capsys.readouterr().out
        assert "0 jobs executed" in second
        # Identical tables either way (ignore timing + engine stats).
        def tables(text):
            return "\n".join(
                line
                for line in text.splitlines()
                if "(" not in line and "sweep engine" not in line
            )

        assert tables(first) == tables(second)

    def test_workers_flag_builds_process_engine(self):
        from repro.experiments.cli import make_engine

        serial = make_engine(None, None)
        assert serial.backend == "serial"
        pooled = make_engine(3, None)
        assert pooled.backend == "process" and pooled.workers == 3

    def test_subcommands_share_the_common_parent_flags(self):
        """Every experiments target accepts --quick/--workers/--cache-dir."""
        from repro.experiments.cli import build_parser

        parser = build_parser()
        for target in (
            "figure4",
            "figure5",
            "adaptive",
            "fleet",
            "layout-search",
            "serve",
            "all",
        ):
            arguments = parser.parse_args(
                [target, "--quick", "--workers", "2",
                 "--cache-dir", "/tmp/x"]
            )
            assert arguments.target == target
            assert arguments.quick is True
            assert arguments.workers == 2
            assert arguments.cache_dir == "/tmp/x"

    def test_serve_takes_bench_out(self, tmp_path):
        from repro.experiments.cli import build_parser

        arguments = build_parser().parse_args(
            ["serve", "--quick", "--bench-out",
             str(tmp_path / "bench.json")]
        )
        assert arguments.bench_out == str(tmp_path / "bench.json")


class TestUnifiedCLI:
    """The single ``repro`` entry point fronting every tool."""

    def test_trace_dispatch(self, tmp_path):
        from repro.cli import main as repro_main

        out = tmp_path / "t.din"
        code = repro_main(
            ["trace", "generate", str(out), "--count", "100"]
        )
        assert code == 0
        assert load_trace(out).access_count == 100

    def test_experiments_dispatch(self, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["experiments", "figure4", "--quick"]) == 0
        assert "all shape checks passed" in capsys.readouterr().out

    def test_serve_is_experiments_serve_shorthand(self):
        from repro.cli import build_parser

        arguments = build_parser().parse_args(["serve", "--quick"])
        assert arguments.command == "serve"
        assert arguments.rest == ["--quick"]

    def test_unknown_command_rejected(self):
        from repro.cli import main as repro_main

        with pytest.raises(SystemExit):
            repro_main(["compile"])

    def test_subtool_prog_names_mention_repro(self, capsys):
        from repro.cli import main as repro_main

        with pytest.raises(SystemExit):
            repro_main(["trace", "--help"])
        assert "repro trace" in capsys.readouterr().out

    def test_module_entry_point(self, tmp_path):
        import subprocess
        import sys

        out = tmp_path / "m.din"
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "trace", "generate",
             str(out), "--count", "50"],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0, completed.stderr
        assert load_trace(out).access_count == 50


class TestLegacyEntryPoints:
    """The per-tool console scripts (``repro-trace``,
    ``repro-experiments``) stay supported alongside ``repro``."""

    def test_legacy_console_mains_do_not_warn(self, recwarn, tmp_path):
        """The importable ``main`` functions (and the console scripts
        bound to them) run warning-free."""
        import warnings

        out = tmp_path / "t.din"
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert trace_main(
                ["generate", str(out), "--count", "10"]
            ) == 0
