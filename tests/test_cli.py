"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.api import ScenarioSpec, save_spec
from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.command == "compare"
        assert args.dataset == "CDC"
        assert "WATTER-expect" in args.algorithms

    def test_sweep_figure_choices(self):
        args = build_parser().parse_args(["sweep", "--figure", "fig5"])
        assert args.figure == "fig5"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--figure", "fig99"])

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--algorithms", "FancyAlgo"])

    def test_removed_bench_subcommand_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--dispatch-workers", "4"],
            ["compare", "--dispatch-mode", "process"],
            ["compare", "--dispatch-shards", "4"],
        ],
    )
    def test_removed_dispatch_flags_are_refused_by_name(self, argv, capsys):
        with pytest.raises(SystemExit):
            main(argv)
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    @pytest.mark.parametrize("port", ["70000", "-5", "65536"])
    def test_serve_port_out_of_range_rejected(self, port, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", port])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "repro serve: error: argument --port" in err
        assert "0-65535" in err

    def test_serve_port_bounds_parsed(self):
        for port in (0, 65535):
            args = build_parser().parse_args(["serve", "--port", str(port)])
            assert args.port == port

    @pytest.mark.parametrize(
        "flag, helper",
        [
            ("--max-runs", "_positive_int"),
            ("--default-deadline", "_positive_float"),
            ("--port", "_port"),
        ],
    )
    def test_non_numeric_value_names_the_flag_not_the_helper(self, flag, helper, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", flag, "x"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"repro serve: error: argument {flag}: must be a " in err
        assert helper not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["compare", "--orders", "0"], "num_orders must be positive"),
            (["sweep", "--figure", "fig3", "--workers", "-2"], "num_workers must be positive"),
        ],
    )
    def test_invalid_scenario_is_a_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"repro {argv[0]}: error: {message}"]

    def test_workload_overrides_parsed(self):
        args = build_parser().parse_args(
            ["compare", "--orders", "50", "--workers", "10", "--seed", "3"]
        )
        assert (args.orders, args.workers, args.seed) == (50, 10, 3)


class TestMain:
    def test_compare_command_prints_table(self, capsys):
        exit_code = main(
            [
                "compare",
                "--dataset",
                "CDC",
                "--orders",
                "25",
                "--workers",
                "6",
                "--horizon",
                "900",
                "--algorithms",
                "WATTER-online",
                "NonSharing",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "WATTER-online" in captured
        assert "NonSharing" in captured
        assert "service rate" in captured

    def test_example1_command(self, capsys):
        exit_code = main(["example1"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Example 1" in captured
        assert "WATTER-timeout (pooling)" in captured

    def test_sweep_command_prints_the_four_metric_tables(self, capsys):
        exit_code = main(
            [
                "sweep",
                "--figure",
                "fig5",
                "--orders",
                "40",
                "--workers",
                "10",
                "--horizon",
                "900",
                "--algorithms",
                "NonSharing",
                "WATTER-online",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert captured.startswith("=== fig5: deadline_scale sweep on CDC ===")
        for label in (
            "Extra Time (s)",
            "Unified Cost",
            "Service Rate",
            "Running Time (s/order)",
        ):
            assert f"{label} vs deadline_scale (CDC)" in captured
        header = [line.split() for line in captured.splitlines() if line.startswith("algorithm")]
        assert header == [["algorithm", "1.2", "1.4", "1.6", "1.8"]] * 4
        assert "NonSharing" in captured and "WATTER-online" in captured

    def test_compare_output_is_self_describing(self, capsys):
        exit_code = main(
            [
                "compare",
                "--dataset",
                "CDC",
                "--orders",
                "20",
                "--workers",
                "5",
                "--horizon",
                "900",
                "--seed",
                "4",
                "--oracle",
                "ch",
                "--algorithms",
                "NonSharing",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "scenario:" in captured
        assert "oracle=ch" in captured
        assert "seed=4" in captured
        assert "graph=" in captured

    def test_run_command_executes_a_spec_file(self, capsys, tmp_path):
        spec = ScenarioSpec(
            name="cli-spec",
            dataset="CDC",
            num_orders=20,
            num_workers=5,
            horizon=900.0,
            seed=3,
            algorithm="NonSharing",
        )
        path = save_spec(spec, tmp_path / "scenario.json")
        exit_code = main(["run", "--spec", str(path)])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "cli-spec" in captured
        assert "NonSharing" in captured
        assert "scenario:" in captured

    @pytest.mark.parametrize(
        "document, key",
        [
            ('{"oracle": {"backend": "ch", "kernel": "simd"}}', "kernel"),
            ('{"num_orders": 10, "oracle_backend": "ch"}', "oracle_backend"),
        ],
    )
    def test_run_reports_an_invalid_spec_like_argparse(
        self, capsys, tmp_path, document, key
    ):
        path = tmp_path / "scenario.json"
        path.write_text(document)
        with pytest.raises(SystemExit) as exited:
            main(["run", "--spec", str(path)])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro run: error: ")
        assert key in lines[0]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("failure", ["garbage checkpoint", "missing order log"])
    def test_a_failed_run_is_one_error_line(self, capsys, tmp_path, failure):
        spec = ScenarioSpec(
            network="grid",
            grid_rows=4,
            grid_cols=4,
            num_orders=8,
            num_workers=2,
            horizon=200.0,
            seed=7,
            algorithm="GDP",
        )
        argv = ["run"]
        if failure == "garbage checkpoint":
            garbage = tmp_path / "garbage.ckpt"
            garbage.write_bytes(b"not a checkpoint\n")
            argv += ["--resume", str(garbage)]
        else:
            spec = spec.with_overrides(
                workload="csv", orders_csv=str(tmp_path / "missing.csv")
            )
        path = save_spec(spec, tmp_path / "scenario.json")
        with pytest.raises(SystemExit) as exited:
            main([*argv, "--spec", str(path)])
        assert exited.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro run: error: ")
        assert "Traceback" not in captured.err
