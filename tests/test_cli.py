"""Tests for the ``cxk`` command line interface."""

import os

import pytest

from repro.cli import build_parser, main
from repro.datasets.dblp import generate_dblp
from repro.xmlmodel.serializer import serialize


class TestParser:
    def test_all_subcommands_are_registered(self):
        parser = build_parser()
        subparsers = [
            action for action in parser._actions if action.dest == "command"
        ][0]
        assert set(subparsers.choices) == {
            "datasets",
            "cluster",
            "classify",
            "serve",
            "stream",
            "models",
            "figure7",
            "figure8",
            "table1",
            "table2",
        }

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestDatasetsCommand:
    def test_prints_the_four_corpora(self, capsys):
        assert main(["datasets", "--scale", "0.15"]) == 0
        output = capsys.readouterr().out
        for name in ("DBLP", "IEEE", "Shakespeare", "Wikipedia"):
            assert name in output


class TestClusterCommand:
    def test_cluster_synthetic_corpus(self, capsys):
        code = main(
            [
                "cluster",
                "--corpus", "DBLP",
                "--goal", "content",
                "--peers", "2",
                "--scale", "0.15",
                "--gamma", "0.7",
                "--max-iterations", "3",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "CXK-means" in output
        assert "F-measure" in output

    def test_cluster_centralized_algorithm(self, capsys):
        code = main(
            [
                "cluster",
                "--corpus", "DBLP",
                "--algorithm", "xk",
                "--goal", "content",
                "--scale", "0.15",
                "--gamma", "0.7",
                "--max-iterations", "3",
            ]
        )
        assert code == 0
        assert "XK-means" in capsys.readouterr().out

    def test_cluster_xml_directory(self, tmp_path, capsys):
        corpus = generate_dblp(num_documents=10, seed=0)
        for tree in corpus.trees:
            (tmp_path / f"{tree.doc_id}.xml").write_text(serialize(tree))
        code = main(
            [
                "cluster",
                "--xml-dir", str(tmp_path),
                "--k", "3",
                "--peers", "2",
                "--gamma", "0.7",
                "--max-iterations", "3",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "clusters" in output

    def test_missing_xml_directory_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cluster", "--xml-dir", str(tmp_path / "empty")])


class TestBackendSpecErrors:
    """CLI and ClusteringConfig share one source of backend diagnostics."""

    def test_unknown_backend_lists_the_same_alternatives_as_the_config(self):
        """Regression (PR 5): with ``choices=`` gone from ``--backend``,
        the CLI's unknown-spec error must carry exactly the registered
        alternatives the ClusteringConfig path raises -- one message,
        produced by ``validate_backend_spec``, surfaced by both."""
        from repro.core.config import ClusteringConfig
        from repro.similarity.backend import BACKEND_NAMES

        with pytest.raises(ValueError) as config_error:
            ClusteringConfig(k=2, backend="bogus")
        with pytest.raises(SystemExit) as cli_error:
            main(["cluster", "--corpus", "DBLP", "--backend", "bogus"])
        assert str(cli_error.value) == f"error: {config_error.value}"
        for name in BACKEND_NAMES:
            assert name in str(cli_error.value)

    @pytest.mark.parametrize("spec", ["sharded:2", "torch", "torch:cuda"])
    def test_retired_backends_fail_before_loading_any_corpus(
        self, spec, monkeypatch
    ):
        from repro import cli

        def fail_dataset(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("the corpus must not be loaded")

        monkeypatch.setattr(cli, "get_dataset", fail_dataset)
        with pytest.raises(SystemExit, match="unknown similarity backend"):
            main(["cluster", "--corpus", "DBLP", "--backend", spec])

    def test_cluster_help_lists_no_shard_workers_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["cluster", "--help"])
        out = capsys.readouterr().out
        assert "--backend" in out
        assert "--shard-workers" not in out

    def test_malformed_block_option_exits_cleanly(self):
        with pytest.raises(SystemExit, match="block"):
            main(
                [
                    "cluster",
                    "--corpus", "DBLP",
                    "--backend", "numpy:block=nope",
                ]
            )

    def test_batch_block_items_must_be_non_negative(self):
        """A negative tile budget exits cleanly, like every ``block=N``
        spec option: the budget is a fixed constant."""
        with pytest.raises(SystemExit, match="accepts no options"):
            main(
                [
                    "cluster",
                    "--corpus", "DBLP",
                    "--scale", "0.15",
                    "--backend", "numpy:block=-1",
                ]
            )

    @pytest.mark.parametrize(
        "command, retired",
        [
            ("cluster", "--refine-workers"),
            ("cluster", "--batch-block-items"),
            ("stream", "--refine-workers"),
            ("stream", "--batch-block-items"),
            ("serve", "--workers"),
        ],
    )
    def test_help_lists_no_retired_flag(self, capsys, command, retired):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert retired not in capsys.readouterr().out


class TestBatchBlockItemsFlag:
    """The tile budget is a constant of the numpy backend: no CLI spelling
    sets it, and no budget changes a clustering."""

    def _cluster_output(self, capsys, extra):
        arguments = [
            "cluster",
            "--corpus", "DBLP",
            "--goal", "content",
            "--algorithm", "xk",
            "--scale", "0.15",
            "--gamma", "0.7",
            "--max-iterations", "3",
            "--backend", "numpy",
        ]
        assert main(arguments + extra) == 0
        output = capsys.readouterr().out
        # timing lines vary run to run and the backend line names the
        # spec; everything else must be identical
        return [
            line
            for line in output.splitlines()
            if not line.startswith(("elapsed", "simulated", "backend"))
        ]

    def test_tiled_runs_are_bit_exact_with_untiled(self, capsys, monkeypatch):
        from repro.similarity import backend

        default = self._cluster_output(capsys, [])
        python = self._cluster_output(capsys, ["--backend", "python"])
        # a budget above every corpus is one tile: the untiled path
        monkeypatch.setattr(backend, "TILE_ITEMS", 10**9)
        untiled = self._cluster_output(capsys, [])
        monkeypatch.setattr(backend, "TILE_ITEMS", 7)
        tiled = self._cluster_output(capsys, [])
        assert tiled == untiled == default

        # the reference loops probe the tag-path cache more often
        def clustering(lines):
            return [line for line in lines if not line.startswith("cache")]

        assert clustering(python) == clustering(default)

    def test_backend_spec_block_option_is_rejected(self, monkeypatch):
        from repro import cli

        def fail_dataset(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("the corpus must not be loaded")

        monkeypatch.setattr(cli, "get_dataset", fail_dataset)
        with pytest.raises(SystemExit, match="^error: .*accepts no options"):
            main(["cluster", "--corpus", "DBLP", "--backend", "numpy:block=64"])


#: Arguments each command rejects while parsing, before any corpus is built.
BAD_ARGUMENTS = [
    ["cluster", "--gamma", "1.5"],
    ["cluster", "--f", "2"],
    ["cluster", "--max-iterations", "0"],
    ["cluster", "--scale", "-1"],
    ["cluster", "--peers", "0"],
    ["cluster", "--corpus", "NOPE"],
    ["cluster", "--k", "0"],
    ["stream", "--model", "m", "--corpus", "DBLP", "--chunk-size", "0"],
    ["stream", "--model", "m", "--corpus", "DBLP", "--retain-threshold", "2"],
    ["serve", "--model", "m", "--port", "70000"],
    ["serve", "--model", "m", "--poll-interval", "-1"],
    ["serve", "--model", "m", "--timeout", "0"],
    ["serve", "--model", "m", "--timeout", "-5"],
    ["serve", "--model", "m", "--max-requests", "0"],
    ["figure8", "--nodes", "0"],
]


class TestArgumentErrors:
    @pytest.mark.parametrize("arguments", BAD_ARGUMENTS, ids="_".join)
    def test_bad_argument_exits_with_one_error_line(
        self, arguments, capsys, monkeypatch
    ):
        from repro import cli

        def fail_dataset(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("the corpus must not be loaded")

        monkeypatch.setattr(cli, "get_dataset", fail_dataset)
        with pytest.raises(SystemExit) as failure:
            main(arguments)
        assert failure.value.code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert [line for line in lines if "error:" in line] == lines[-1:]
        assert f"argument {arguments[-2]}:" in lines[-1]


OPTION_CONFLICTS = [
    (["cluster", "--algorithm", "xk", "--network", "real"], "CXK-means only"),
    (["cluster", "--algorithm", "pk", "--network", "real"], "CXK-means only"),
    (["serve", "--registry", "r"], "the HTTP server needs --port"),
    (["serve"], "serve needs --model DIR"),
    (["serve", "--port", "8000"], "serve needs --model DIR"),
    (["serve", "--port", "8000", "--registry", "r", "--model", "m"], "drop --model"),
    (["serve", "--port", "8000", "--model", "m", "--models", "a"], "use --registry"),
]


class TestOptionConflicts:
    """Options that parse one by one but not together stop the command
    with one message before any corpus, model or socket is touched."""

    @pytest.mark.parametrize(
        "arguments,message", OPTION_CONFLICTS, ids=[" ".join(a) for a, _ in OPTION_CONFLICTS]
    )
    def test_conflict_exits_with_its_message(self, arguments, message, monkeypatch):
        from repro import cli

        def fail_dataset(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("the corpus must not be loaded")

        monkeypatch.setattr(cli, "get_dataset", fail_dataset)
        with pytest.raises(SystemExit) as failure:
            main(arguments)
        assert message in str(failure.value.code)


class TestExperimentCommands:
    def test_table1_structure_only(self, capsys):
        code = main(
            [
                "table1",
                "--scale", "0.15",
                "--nodes", "1", "2",
                "--goals", "structure",
                "--max-iterations", "2",
            ]
        )
        assert code == 0
        assert "Table 1" in capsys.readouterr().out
