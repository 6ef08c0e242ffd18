"""CLI tests."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command(self):
        args = build_parser().parse_args(["run", "figure3"])
        assert args.command == "run"
        assert args.artifact == "figure3"
        assert args.jobs == 1
        assert args.no_cache is False
        assert args.no_batch is False

    def test_run_jobs_and_no_cache(self):
        args = build_parser().parse_args(
            ["run", "figure1", "--jobs", "8", "--no-cache"]
        )
        assert args.jobs == 8
        assert args.no_cache is True

    def test_no_batch_is_the_only_batch_switch(self):
        args = build_parser().parse_args(["run", "sweep", "--no-batch"])
        assert args.no_batch is True
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "sweep", "--batch"])

    def test_cache_command(self):
        args = build_parser().parse_args(["cache", "--clear"])
        assert args.command == "cache"
        assert args.clear is True
        assert args.stats is False

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "figure99"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMain:
    def test_list_prints_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_run_cheap_artifact(self, capsys):
        assert main(["run", "figure3"]) == 0
        out = capsys.readouterr().out
        assert "255 ms" in out

    def test_run_figure5(self, capsys):
        assert main(["run", "figure5"]) == 0
        assert "LCM" in capsys.readouterr().out

    def test_every_artifact_registered_with_description(self):
        for name, (description, runner) in EXPERIMENTS.items():
            assert description
            assert callable(runner)

    def test_cache_stats_and_clear(self, capsys, tmp_path):
        assert main(["cache", "--runs-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries: 0" in out
        assert main(
            ["cache", "--clear", "--runs-dir", str(tmp_path)]
        ) == 0
        assert "cleared 0" in capsys.readouterr().out

    def test_second_run_served_from_cache(self, capsys, tmp_path):
        args = ["run", "sweep", "--runs-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "cache hit(s)" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "0 executed" in second
