"""Tests for the reporting helpers and the CLI.

The experiment harness itself is exercised by ``tests/test_paper_claims.py``.
"""

from __future__ import annotations

import pytest

from repro.cli import _EXPERIMENTS, build_parser, main
from repro.evaluation.reporting import format_answer_list, format_table
from repro.graph.triples import write_triples
from repro.datasets.example_graph import figure1_excerpt

#: The first line ``gqbe experiment <name>`` prints.
EXPERIMENT_TITLES = {
    "table1": "Table I",
    "table2": "Table II",
    "fig13": "Figure 13",
    "table3": "Table III",
    "table5": "Table V",
    "fig14": "Figures 14-15",
    "table6": "Table VI / Figure 16",
}


class TestReporting:
    def test_format_table_alignment_and_floats(self):
        rows = [{"a": 1.23456, "b": "x"}, {"a": 2.0, "b": "longer"}]
        text = format_table(rows, title="T")
        assert "T" in text
        assert "1.235" in text
        assert text.count("\n") >= 3

    def test_format_table_empty(self):
        assert "(empty)" in format_table([], title="T")

    def test_format_table_renders_none_and_tuples(self):
        text = format_table([{"pcc": None, "tuple": ("a", "b")}])
        assert "undefined" in text
        assert "<a, b>" in text

    def test_format_answer_list(self):
        text = format_answer_list("F1", [("a", "b"), ("c", "d")])
        assert text.startswith("F1:")
        assert "1. <a, b>" in text


class TestCLI:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["query", "graph.tsv", "--tuple", "a,b"])
        assert args.command == "query"

    def test_query_command_end_to_end(self, tmp_path, capsys):
        path = tmp_path / "fig1.tsv"
        write_triples(sorted(figure1_excerpt().edges), path)
        code = main(
            ["query", str(path), "--tuple", "Jerry Yang,Yahoo!", "--k", "3", "--mqg-size", "8"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Top-3 answers" in output
        assert "MQG edges" in output
        peak = output.split("peak retained rows: ")[1].split()[0]
        assert int(peak) > 0
        skipped = output.split("lattice nodes skipped (join cap): ")[1].split()[0]
        assert int(skipped) == 0

    def test_generate_command(self, tmp_path, capsys):
        out = tmp_path / "synthetic.tsv"
        code = main(["generate", "freebase", str(out), "--scale", "0.2", "--seed", "3"])
        assert code == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    @pytest.mark.parametrize("name", sorted(EXPERIMENT_TITLES))
    def test_experiment_command_prints_its_title(self, name, capsys):
        code = main(["experiment", name, "--scale", "0.2"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == EXPERIMENT_TITLES[name]

    def test_every_experiment_name_is_tested(self):
        assert set(_EXPERIMENTS) == set(EXPERIMENT_TITLES)

    def test_the_simulated_user_study_is_gone(self, capsys):
        # Table IV was crowdsourced; a simulated crowd measured only its
        # own random generator.
        with pytest.raises(SystemExit) as refused:
            main(["experiment", "table4"])
        assert refused.value.code == 2
        assert "invalid choice: 'table4'" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "freebase", "{tmp}/out.tsv"],
            ["experiment", "table1"],
            ["bench-serve", "--workload", "freebase", "--port", "0"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_a_non_positive_scale_is_a_usage_error(self, argv, scale, tmp_path, capsys):
        argv = [piece.format(tmp=tmp_path) for piece in argv]
        with pytest.raises(SystemExit) as refused:
            main([*argv, "--scale", scale])
        assert refused.value.code == 2
        error = capsys.readouterr().err
        assert f"gqbe {argv[0]}: error: argument --scale: must be positive" in error
