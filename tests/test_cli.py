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


class TestRefineWorkersFlag:
    def test_cluster_with_refine_workers(self, capsys):
        """--refine-workers runs the cluster-sharded refinement path and
        produces the same report as the serial run (bit-exact parity)."""
        arguments = [
            "cluster",
            "--corpus", "DBLP",
            "--goal", "content",
            "--peers", "2",
            "--scale", "0.15",
            "--gamma", "0.7",
            "--max-iterations", "3",
        ]
        assert main(arguments) == 0
        serial = capsys.readouterr().out
        assert main(arguments + ["--refine-workers", "2"]) == 0
        sharded = capsys.readouterr().out
        # identical clusters and F-measure; timing and cache-statistics
        # lines may differ (refinement similarity work runs on the worker
        # engines' caches instead of the parent's)
        strip = lambda text: [
            line
            for line in text.splitlines()
            if not line.startswith(("elapsed", "simulated", "cache"))
        ]
        assert strip(sharded) == strip(serial)

    def test_refine_workers_must_be_positive(self):
        with pytest.raises(SystemExit, match="refine-workers"):
            main(
                [
                    "cluster",
                    "--corpus", "DBLP",
                    "--scale", "0.15",
                    "--refine-workers", "0",
                ]
            )


class TestBackendSpecErrors:
    """CLI and ClusteringConfig share one source of backend diagnostics."""

    def test_unknown_backend_lists_the_same_alternatives_as_the_config(self):
        """Regression (PR 5): with ``choices=`` gone from ``--backend``,
        the CLI's unknown-spec error must carry exactly the registered
        alternatives the ClusteringConfig path raises -- one message,
        produced by ``validate_backend_spec``, surfaced by both."""
        from repro.core.config import ClusteringConfig
        from repro.similarity.backend import registered_backends

        with pytest.raises(ValueError) as config_error:
            ClusteringConfig(k=2, backend="bogus")
        with pytest.raises(SystemExit) as cli_error:
            main(["cluster", "--corpus", "DBLP", "--backend", "bogus"])
        assert str(cli_error.value) == f"error: {config_error.value}"
        for name in registered_backends():
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
        with pytest.raises(SystemExit, match="batch-block-items"):
            main(
                [
                    "cluster",
                    "--corpus", "DBLP",
                    "--scale", "0.15",
                    "--batch-block-items", "-1",
                ]
            )


class TestBatchBlockItemsFlag:
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
        # timing lines vary run to run; everything else must be identical
        return [
            line
            for line in output.splitlines()
            if not line.startswith(("elapsed", "simulated"))
        ]

    def test_tiled_runs_are_bit_exact_with_untiled(self, capsys):
        untiled = self._cluster_output(capsys, ["--batch-block-items", "0"])
        tiled_flag = self._cluster_output(capsys, ["--batch-block-items", "7"])
        tiled_spec = self._cluster_output(capsys, [])
        assert tiled_flag == untiled
        assert tiled_spec == untiled

    def test_backend_spec_block_option_accepted(self, capsys):
        arguments = [
            "cluster",
            "--corpus", "DBLP",
            "--goal", "content",
            "--algorithm", "xk",
            "--scale", "0.15",
            "--gamma", "0.7",
            "--max-iterations", "3",
            "--backend", "numpy:block=16",
        ]
        assert main(arguments) == 0
        assert "numpy:block=16" in capsys.readouterr().out


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
