"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.workload.paper_example import Q1_TEXT


class TestParser:
    def test_demo(self):
        args = build_parser().parse_args(["demo"])
        assert args.command == "demo"

    def test_query_defaults(self):
        args = build_parser().parse_args(["query", "Select X.a From C X"])
        assert args.strategy == "BL"

    def test_bad_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "q", "--strategy", "ZZ"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_demo_output(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Hedy" in out and "Tony" in out
        assert "CA:" in out and "BL:" in out and "PL:" in out

    def test_query_command(self, capsys):
        code = main([
            "query",
            "Select X.name From Student X Where X.sex = female",
            "--strategy", "CA",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Mary" in out and "Hedy" in out and "Fanny" in out

    def test_query_reports_unsolved(self, capsys):
        main(["query",
              "Select X.name From Student X Where X.age > 25"])
        out = capsys.readouterr().out
        assert "unsolved" in out

    def test_tables_command(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "15 us/byte" in out
        assert "Table 2" in out and "5000 ~ 6000" in out

    def test_study_single_figure(self, capsys):
        assert main(["study", "--samples", "3", "--figures", "11"]) == 0
        out = capsys.readouterr().out
        assert "Figure 11" in out
        assert "selectivity" in out

    def test_study_unknown_figure(self, capsys):
        assert main(["study", "--figures", "99"]) == 2

    def test_compare_command(self, capsys):
        assert main(["compare", "--seed", "3", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "strategy" in out and "PL-S" in out


class TestBadInput:
    """A typed engine error prints one ``error:`` line and exits 2."""

    @pytest.mark.parametrize("argv, message", [
        (["query", "Selct X.name From Student X"],
         "error: expected keyword 'select', found 'Selct' (at position 0)"),
        (["query", "Select X.name From Nope X"],
         "error: unknown range class 'Nope'"),
        (["query", "--strategy", "PL", "--faults", "DB1@0:1e9",
          "--policy", "fail-fast", Q1_TEXT],
         "error: site 'DB1' unavailable after 1 attempt(s) (down); "
         "policy is fail-fast"),
        # CA_G3's kernel raises the per-object evaluator's error: John
        # is the first Student in GOid order.
        (["query", "--strategy", "CA",
          "Select X.name From Student X Where X.name < 5"],
         "error: cannot order-compare 'John' with 5"),
    ], ids=["syntax", "unknown-class", "unavailable", "ca-order-compare"])
    def test_error_line_and_exit_2(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == message + "\n"
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("argv", [
        ["query", "--trace", "{missing}/t.json", Q1_TEXT],
        ["query", "--jsonl", "{missing}/t.jsonl", Q1_TEXT],
        ["explain", "--trace", "{missing}/t.json", Q1_TEXT],
        ["compare", "--scale", "0.02", "--trace-dir", "{file}"],
    ], ids=["query-trace", "query-jsonl", "explain-trace", "compare-trace-dir"])
    def test_unwritable_output_path(self, capsys, tmp_path, argv):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        paths = {"missing": tmp_path / "missing", "file": blocker}
        argv = [arg.format(**paths) for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert str(tmp_path) in captured.err
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.out + captured.err


class TestAutoStrategy:
    def test_query_with_auto(self, capsys):
        from repro.cli import main

        code = main([
            "query",
            "Select X.name From Student X Where X.age > 25",
            "--strategy", "AUTO",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "certain" in out


class TestTrafficCommand:
    ARGS = [
        "traffic", "--workers", "2", "--queries", "4",
        "--seed", "13", "--scale", "0.02",
    ]

    def test_traffic_smoke(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "q/s" in out and "latency p50/p95/p99" in out
        assert "0 violations" in out

    def test_traffic_json_deterministic(self, capsys):
        import json

        assert main(self.ARGS + ["--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(self.ARGS + ["--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert first["violations"] == []
        assert first["completed"] + first["shed"] == 8

    def test_traffic_defaults(self):
        args = build_parser().parse_args(["traffic"])
        assert args.workers == 8 and args.verify
