"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import EXPERIMENTS, main
from repro.persist import save_jobs
from repro.spec import MiningSpec

#: Small search settings so a batch job finishes in milliseconds.
FAST = dict(beam_width=6, max_depth=2, top_k=10)


class TestDatasets:
    def test_lists_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("crime", "mammals", "socio", "synthetic", "water"):
            assert name in out


class TestExperimentsListing:
    def test_lists_experiments(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out
        assert "table2" in out

    def test_registry_covers_all_paper_artifacts(self):
        expected = {f"fig{k}" for k in range(1, 11)} | {"table1", "table2"}
        assert set(EXPERIMENTS) == expected


class TestMine:
    def test_mine_synthetic(self, capsys):
        code = main(
            ["mine", "synthetic", "--iterations", "2", "--kind", "spread"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "iteration 1" in out
        assert "location:" in out
        assert "spread:" in out

    def test_mine_location_only(self, capsys):
        assert main(["mine", "synthetic", "--iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert "spread:" not in out

    def test_mine_builds_only_the_logged_candidates(self, capsys, monkeypatch):
        # A water step scores 7,643 candidates; the beam builds a
        # ScoredSubgroup for its winner only, and the CLI reads no log.
        from repro.search import beam
        from repro.search.results import ScoredSubgroup

        built = []

        class Counted(ScoredSubgroup):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(beam, "ScoredSubgroup", Counted)
        assert main(["mine", "water", "--iterations", "1"]) == 0
        assert "--- iteration 1 ---" in capsys.readouterr().out
        assert len(built) == 1

    def test_unknown_dataset_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["mine", "nope"])

    def test_custom_gamma(self, capsys):
        assert main(["mine", "synthetic", "--iterations", "1", "--gamma", "1.0"]) == 0

    def test_mine_with_workers(self, capsys):
        code = main(
            ["mine", "synthetic", "--iterations", "1", "--workers", "2",
             "--beam-width", "8", "--depth", "2"]
        )
        assert code == 0
        assert "location:" in capsys.readouterr().out

    def test_mine_without_dataset_or_spec_fails_cleanly(self, capsys):
        assert main(["mine"]) == 1
        assert "error:" in capsys.readouterr().err


class TestMineSpec:
    """``mine`` is a thin spec builder; ``--spec`` runs a saved file."""

    def test_save_spec_then_run_spec(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        code = main(
            ["mine", "synthetic", "--iterations", "1", "--beam-width", "8",
             "--depth", "2", "--save-spec", str(spec_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "spec written" in out
        assert "iteration" not in out  # builder mode does not mine

        document = json.loads(spec_path.read_text())
        assert document["dataset"]["name"] == "synthetic"
        assert document["search"]["beam_width"] == 8

        assert main(["mine", "--spec", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "iteration 1" in out
        assert "location:" in out

    def test_weighted_spec_mines_what_the_workspace_mines(self, tmp_path, capsys):
        import numpy as np

        from repro.api import Workspace
        from repro.datasets import load_dataset
        from repro.persist import save_spec

        n_rows = load_dataset("synthetic", seed=0).n_rows
        spec = MiningSpec.build(
            "synthetic", beam_width=8, max_depth=2, top_k=10,
            weights=np.linspace(0.5, 2.0, n_rows).tolist(),
        )
        path = save_spec(spec, tmp_path / "weighted.json")
        assert main(["mine", "--spec", str(path)]) == 0
        out = capsys.readouterr().out
        assert str(Workspace().mine(spec).iterations[0].location) in out

    def test_spec_flag_and_dataset_are_mutually_exclusive(self, tmp_path, capsys):
        assert main(["mine", "synthetic", "--spec", "whatever.json"]) == 1
        assert "not both" in capsys.readouterr().err

    def test_missing_spec_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["mine", "--spec", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_spec_file_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dataset": "synthetic", "sarch": {}}))
        assert main(["mine", "--spec", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert str(bad) in err  # the failing file is named

    def test_branch_bound_strategy_from_flags(self, capsys):
        code = main(
            ["mine", "crime", "--strategy", "branch_bound", "--depth", "1"]
        )
        assert code == 0
        assert "location:" in capsys.readouterr().out

    def test_contradictory_flags_rejected_not_ignored(self, capsys):
        # Explicit --iterations on a single-shot strategy must error,
        # not silently mine something else.
        code = main(
            ["mine", "crime", "--strategy", "branch_bound", "--depth", "1",
             "--iterations", "5"]
        )
        assert code == 1
        assert "single-shot" in capsys.readouterr().err

    def test_flags_override_loaded_spec(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        assert main(
            ["mine", "synthetic", "--iterations", "2", "--beam-width", "8",
             "--depth", "2", "--save-spec", str(spec_path)]
        ) == 0
        capsys.readouterr()
        # --iterations 1 must override the file's 2, not be ignored.
        assert main(["mine", "--spec", str(spec_path), "--iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert "iteration 1" in out
        assert "iteration 2" not in out

    def test_default_valued_flags_still_override_spec(self, tmp_path, capsys):
        # --strategy beam / --measure si spell out library defaults, but
        # typed explicitly they must still beat the loaded spec.
        spec_path = tmp_path / "qb.json"
        assert main(
            ["mine", "crime", "--strategy", "quality_beam", "--measure",
             "mean_shift", "--depth", "1", "--beam-width", "6",
             "--save-spec", str(spec_path)]
        ) == 0
        capsys.readouterr()
        code = main(
            ["mine", "--spec", str(spec_path), "--strategy", "beam",
             "--measure", "si", "--iterations", "2"]
        )
        assert code == 0
        # quality_beam rejects n_iterations=2, so reaching iteration 2
        # proves the strategy override took effect.
        assert "iteration 2" in capsys.readouterr().out

    def test_targets_flag_selects_branch_bound_target(self, capsys):
        from repro.datasets import load_dataset

        target = load_dataset("synthetic", seed=0).target_names[0]
        code = main(
            ["mine", "synthetic", "--strategy", "branch_bound", "--depth", "1",
             "--targets", target]
        )
        assert code == 0
        assert "location:" in capsys.readouterr().out


class TestBatch:
    @pytest.fixture()
    def jobs_file(self, tmp_path):
        jobs = [
            MiningSpec.build("synthetic", seed=s, name=f"job{s}", **FAST)
            for s in range(4)
        ]
        return str(save_jobs(jobs, tmp_path / "jobs.json"))

    def test_batch_runs_jobs_concurrently(self, jobs_file, capsys):
        assert main(["batch", jobs_file, "--workers", "4"]) == 0
        out = capsys.readouterr().out
        for s in range(4):
            assert f"[job{s}]" in out
        assert "4 job(s) done" in out

    def test_batch_writes_output_document(self, jobs_file, tmp_path, capsys):
        out_path = tmp_path / "results.json"
        code = main(["batch", jobs_file, "--workers", "2", "--output", str(out_path)])
        assert code == 0
        document = json.loads(out_path.read_text())
        assert len(document["results"]) == 4
        first = document["results"][0]
        assert first["job"]["dataset"] == "synthetic"
        assert first["iterations"][0]["location"]["type"] == "location_pattern"

    def test_batch_empty_file_fails_cleanly(self, tmp_path, capsys):
        # A malformed batch file is a ReproError, not a traceback.
        bad = tmp_path / "bad.json"
        bad.write_text('{"jobs": []}')
        assert main(["batch", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_batch_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["batch", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_batch_isolates_failing_jobs(self, tmp_path, capsys):
        import json as json_module

        jobs = [
            MiningSpec.build("synthetic", name="good", **FAST),
            # Valid on load, fails at run time: too few weights.
            MiningSpec.build("synthetic", name="bad", weights=[1.0, 1.0], **FAST),
        ]
        jobs_file = str(save_jobs(jobs, tmp_path / "mixed.json"))
        out_path = tmp_path / "results.json"
        code = main(["batch", jobs_file, "--output", str(out_path)])
        assert code == 1  # a failure is reported in the exit code...
        out = capsys.readouterr().out
        assert "[good]" in out
        assert "[bad] FAILED:" in out
        document = json_module.loads(out_path.read_text())
        assert len(document["results"]) == 1  # ...but good work is kept
        assert len(document["failures"]) == 1

    def test_batch_rejects_unregistered_dataset_on_load(self, tmp_path, capsys):
        # Like a spec file, a batch entry naming an unknown dataset fails
        # when the file loads, before any job runs.
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps({"jobs": [{"dataset": "doesnotexist"}]}))
        assert main(["batch", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error: cannot read" in err and "doesnotexist" in err

    def test_batch_unwritable_output_fails_cleanly(self, jobs_file, tmp_path, capsys):
        code = main(
            ["batch", jobs_file, "--output", str(tmp_path / "no-dir" / "out.json")]
        )
        assert code == 1
        assert "error: cannot write" in capsys.readouterr().err

    def test_batch_invalid_json_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "garbage.json"
        bad.write_text("{not json")
        assert main(["batch", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


class TestExperimentCommand:
    def test_run_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_run_fig2(self, capsys):
        assert main(["experiment", "fig2"]) == 0
        assert "Fig. 2" in capsys.readouterr().out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "sisd" in capsys.readouterr().out


class TestMineSharedMemory:
    """``--workers N`` runs the warm shared-memory pool; there is no toggle."""

    def test_mine_with_shared_memory(self, capsys):
        code = main(
            ["mine", "synthetic", "--iterations", "1", "--workers", "2",
             "--beam-width", "8", "--depth", "2"]
        )
        assert code == 0
        assert "location:" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["mine", "synthetic", "--workers", "2", "--shared-memory"])

    def test_shared_memory_and_start_method_saved_to_spec(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        code = main(
            ["mine", "synthetic", "--workers", "2",
             "--start-method", "spawn", "--save-spec", str(spec_path)]
        )
        assert code == 0
        document = json.loads(spec_path.read_text())
        assert "shared_memory" not in document["executor"]
        assert document["executor"]["start_method"] == "spawn"
        assert document["executor"]["workers"] == 2

    def test_flags_default_to_off(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        assert main(["mine", "synthetic", "--save-spec", str(spec_path)]) == 0
        document = json.loads(spec_path.read_text())
        assert document["executor"]["workers"] == 1
        assert document["executor"]["start_method"] is None


class TestServe:
    def test_serve_flags_parse_with_documented_defaults(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(["serve"])
        assert (args.host, args.port) == ("127.0.0.1", 8765)
        assert (args.workers, args.backend) == (2, "thread")
        assert args.quiet is False and args.no_candidates is False
        custom = _build_parser().parse_args(
            ["serve", "--port", "0", "--backend", "process",
             "--workers", "4", "--quiet", "--no-candidates"]
        )
        assert custom.port == 0
        assert custom.backend == "process"

    def test_serve_end_to_end_against_the_cli_wiring(self):
        # Drive the same objects _cmd_serve builds (run() would block):
        # a server with a LiveReporter observer, exercised over HTTP.
        from repro.client import RemoteWorkspace
        from repro.report.live import LiveReporter
        from repro.server import MiningServer
        from repro.spec import MiningSpec
        import io

        log = io.StringIO()
        server = MiningServer(
            port=0, backend="thread", max_workers=1,
            observer=LiveReporter(log), candidate_events=False,
        )
        with server.run_in_thread() as handle:
            remote = RemoteWorkspace(handle.url)
            spec = MiningSpec.build(
                "synthetic", n_iterations=1, beam_width=6, max_depth=2, top_k=10
            )
            result = remote.mine(spec)
            assert result.iterations
        printed = log.getvalue()
        assert "queued" in printed  # the server-side log saw the schedule


class TestRetiredCommandLines:
    """Command lines of the retired multi-tenant control plane and of the
    retired store compaction (``admin``) fail loudly.

    Each is refused with argparse's usage error (exit 2) rather than run
    with a flag dropped: ``serve --auth FILE`` must not start a server
    that is open to everyone. Parsing only, so nothing binds or dials.
    """

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["route", "--replica", "127.0.0.1:8765"], "invalid choice: 'route'"),
            (["serve", "--auth", "tokens.json"], "unrecognized arguments: --auth"),
            (
                ["worker", "--register", "127.0.0.1:8765"],
                "unrecognized arguments: --register",
            ),
            (["admin", "usage", "127.0.0.1:8765"], "invalid choice: 'admin'"),
            (
                ["top", "127.0.0.1:8765", "--once", "--token", "secret"],
                "unrecognized arguments: --token",
            ),
            (["admin", "compact", "127.0.0.1:8765"], "invalid choice: 'admin'"),
        ],
        ids=[
            "route",
            "serve-auth",
            "worker-register",
            "admin-usage",
            "top-token",
            "admin-compact",
        ],
    )
    def test_is_refused_with_a_usage_error(self, argv, message, capsys):
        from repro.cli import _build_parser

        with pytest.raises(SystemExit) as excinfo:
            _build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err
