"""Tests for mining specs as jobs and the multi-job runner."""

import pytest

from repro.engine.jobs import JobFailure, JobResult, run_job, run_jobs
from repro.errors import EngineError, ReproError
from repro.persist import (
    job_from_dict,
    job_to_dict,
    load_jobs,
    save_jobs,
    search_config_from_dict,
    search_config_to_dict,
)
from repro.search.config import SearchConfig
from repro.spec import MiningSpec

#: Small search settings so a job finishes in a few milliseconds.
FAST = dict(beam_width=6, max_depth=2, top_k=10)


def _job(dataset="synthetic", **kwargs) -> MiningSpec:
    return MiningSpec.build(dataset, **{**FAST, **kwargs})


class TestMiningJobSpec:
    def test_default_name_is_derived_and_stable(self):
        a = _job()
        b = _job()
        assert a.name == b.name == ""
        assert a.label == b.label
        assert a.label.startswith("synthetic/location#")
        assert a.label.endswith(a.fingerprint()[:8])
        assert _job(name="named").label == "named"

    def test_fingerprint_ignores_name(self):
        a = _job(name="first")
        b = _job(name="second")
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_tracks_spec_changes(self):
        a = _job()
        b = _job(seed=1)
        assert a.fingerprint() != b.fingerprint()

    def test_targets_coerced_to_tuple(self):
        job = MiningSpec.build("synthetic", targets=["y0", "y1"])
        assert job.dataset.targets == ("y0", "y1")

    def test_jobs_are_hashable_and_dedupe_in_sets(self):
        a = MiningSpec.build("synthetic", dataset_kwargs={"flip_probability": 0.1})
        b = MiningSpec.build("synthetic", dataset_kwargs={"flip_probability": 0.1})
        c = MiningSpec.build("synthetic")
        assert hash(a) == hash(b)
        assert {a, b, c} == {a, c}

    def test_rejects_bad_kind(self):
        with pytest.raises(EngineError):
            MiningSpec.build("synthetic", kind="banana")

    def test_rejects_bad_iterations(self):
        with pytest.raises(EngineError):
            MiningSpec.build("synthetic", n_iterations=0)

    def test_rejects_malformed_prior(self):
        with pytest.raises(ReproError, match="prior"):
            MiningSpec.build("synthetic", prior={"mean": [0.0]})


class TestJobPersistence:
    def test_dict_roundtrip(self):
        job = MiningSpec.build(
            "synthetic",
            dataset_seed=3,
            dataset_kwargs={"flip_probability": 0.05},
            targets=("y0", "y1"),
            kind="spread",
            n_iterations=2,
            seed=9,
            beam_width=12,
            max_depth=3,
            attributes=("attr1",),
            gamma=0.5,
        )
        assert job_from_dict(job_to_dict(job)) == job

    def test_config_roundtrip(self):
        config = SearchConfig(
            beam_width=7,
            max_depth=2,
            top_k=11,
            min_coverage=3,
            max_coverage_fraction=0.5,
            attributes=("attr1", "attr2"),
        )
        assert search_config_from_dict(search_config_to_dict(config)) == config

    def test_missing_keys_fall_back_to_defaults(self):
        job = job_from_dict({"dataset": "synthetic"})
        assert job == MiningSpec.build("synthetic")

    def test_dataset_is_mandatory(self):
        with pytest.raises(ReproError):
            job_from_dict({"kind": "location"})

    def test_unknown_spec_keys_rejected(self):
        with pytest.raises(ReproError, match="iterations"):
            job_from_dict({"dataset": "synthetic", "iterations": 5})

    def test_future_schema_rejected(self):
        with pytest.raises(ReproError, match="unsupported job schema"):
            job_from_dict({"dataset": "synthetic", "schema": 2})

    def test_type_invalid_values_become_repro_errors(self):
        with pytest.raises(ReproError, match="invalid job spec"):
            job_from_dict({"dataset": "synthetic", "seed": [1]})
        with pytest.raises(ReproError, match="invalid job spec"):
            job_from_dict({"dataset": "synthetic", "gamma": "high"})

    def test_file_roundtrip(self, tmp_path):
        jobs = [_job(seed=s) for s in range(3)]
        path = save_jobs(jobs, tmp_path / "jobs.json")
        assert load_jobs(path) == jobs

    def test_load_rejects_empty_batch(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"jobs": []}')
        with pytest.raises(ReproError):
            load_jobs(path)


def _bad_job() -> MiningSpec:
    """A valid spec that fails at run time: 3 weights for a larger table."""
    return _job(weights=[1.0, 1.0, 1.0])


class TestRunJobs:
    def test_single_job_runs_to_completion(self):
        job = _job(n_iterations=2)
        result = run_job(job)
        assert isinstance(result, JobResult)
        assert len(result.iterations) == 2
        assert result.elapsed_seconds > 0
        assert "location:" in result.format()

    def test_job_result_roundtrip(self):
        import numpy as np

        from repro.persist import job_result_from_dict, job_result_to_dict

        job = _job(kind="spread")
        result = run_job(job)
        rebuilt = job_result_from_dict(job_result_to_dict(result))
        assert rebuilt.job == job
        assert len(rebuilt.iterations) == len(result.iterations)
        first, second = result.iterations[0], rebuilt.iterations[0]
        assert second.location.description == first.location.description
        assert second.location.score.ic == first.location.score.ic
        assert np.array_equal(second.spread.direction, first.spread.direction)

    def test_empty_batch_is_empty(self):
        assert run_jobs([]) == []

    def test_rejects_non_jobs(self):
        with pytest.raises(EngineError):
            run_jobs([{"dataset": "synthetic"}])

    def test_failing_job_aborts_batch_by_default(self):
        jobs = [_job(), _bad_job()]
        with pytest.raises(EngineError, match="weights"):
            run_jobs(jobs)

    def test_return_failures_isolates_bad_jobs(self):
        jobs = [_job(), _bad_job(), _job(seed=1)]
        outcomes = run_jobs(jobs, return_failures=True)
        assert isinstance(outcomes[0], JobResult)
        assert isinstance(outcomes[1], JobFailure)
        assert isinstance(outcomes[2], JobResult)
        assert "3 weights" in outcomes[1].error
        assert "FAILED" in outcomes[1].format()
        assert outcomes[1].job.label in outcomes[1].format()

    def test_return_failures_isolates_in_parallel_too(self):
        jobs = [_bad_job(), _job()]
        outcomes = run_jobs(jobs, workers=2, return_failures=True)
        assert isinstance(outcomes[0], JobFailure)
        assert isinstance(outcomes[1], JobResult)

    def test_four_jobs_concurrently_match_serial(self):
        """Acceptance: >= 4 jobs run concurrently, same output as serial."""
        jobs = [_job(seed=s) for s in range(4)]
        serial = run_jobs(jobs, workers=1)
        parallel = run_jobs(jobs, workers=4)
        assert len(parallel) == 4
        for a, b in zip(serial, parallel):
            assert a.job == b.job  # order preserved
            for ia, ib in zip(a.iterations, b.iterations):
                assert ia.location.description == ib.location.description
                assert ia.location.score.ic == ib.location.score.ic
