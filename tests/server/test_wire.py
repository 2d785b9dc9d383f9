"""Wire-schema goldens: every document round-trips through JSON exactly.

The client asserts bit-identical results after a network hop, so these
tests push each wire form through a real ``json.dumps``/``loads`` cycle
(not just dict equality) and compare floats with ``==`` — exact, no
tolerance.
"""

import json

import numpy as np
import pytest

from repro.engine.jobs import JobResult
from repro.errors import ReproError
from repro.events import SchedulerEvent
from repro.interest.si import PatternScore
from repro.lang.conditions import NumericCondition
from repro.lang.description import Description
from repro.search.results import (
    LocationPatternResult,
    MiningIteration,
    ScoredSubgroup,
    SpreadPatternResult,
)
from repro.server import wire
from repro.spec import MiningSpec


def _roundtrip(document: dict) -> dict:
    """A genuine JSON hop — what actually crosses the network."""
    return json.loads(json.dumps(document, allow_nan=False))


def _description() -> Description:
    return Description((NumericCondition("x1", "<=", 1.0 / 3.0),))


def _candidate(ic: float, dl: float) -> ScoredSubgroup:
    return ScoredSubgroup(
        description=_description(),
        indices=np.array([1, 2, 3], dtype=np.int64),
        observed_mean=np.array([0.5]),
        score=PatternScore(ic=ic, dl=dl),
    )


def _iteration(index: int = 1, with_spread: bool = True) -> MiningIteration:
    description = _description()
    location = LocationPatternResult(
        description=description,
        indices=np.array([0, 2, 5], dtype=np.int64),
        mean=np.array([0.1, 2.0 / 3.0]),
        score=PatternScore(ic=10.0 / 3.0, dl=1.7),
        coverage=0.3,
    )
    spread = None
    if with_spread:
        spread = SpreadPatternResult(
            description=description,
            indices=np.array([0, 2], dtype=np.int64),
            direction=np.array([1.0 / 7.0, -0.5]),
            variance=0.0123,
            center=np.array([0.0, 0.25]),
            score=PatternScore(ic=2.5, dl=0.5),
        )
    return MiningIteration(index=index, location=location, spread=spread)


def _job() -> MiningSpec:
    return MiningSpec.build(
        "synthetic",
        beam_width=6,
        max_depth=2,
        top_k=10,
        n_iterations=2,
        priority=3,
        deadline=60.0,
    )


def _result() -> JobResult:
    return JobResult(
        job=_job(),
        iterations=(_iteration(1), _iteration(2, with_spread=False)),
        elapsed_seconds=1.0 / 3.0,
    )


def _assert_iterations_equal(a: MiningIteration, b: MiningIteration) -> None:
    assert a.index == b.index
    assert str(a.location.description) == str(b.location.description)
    np.testing.assert_array_equal(a.location.indices, b.location.indices)
    np.testing.assert_array_equal(a.location.mean, b.location.mean)
    assert a.location.score.ic == b.location.score.ic  # exact
    assert a.location.score.dl == b.location.score.dl
    assert a.location.coverage == b.location.coverage
    assert (a.spread is None) == (b.spread is None)
    if a.spread is not None:
        np.testing.assert_array_equal(a.spread.direction, b.spread.direction)
        assert a.spread.variance == b.spread.variance
        assert a.spread.score.ic == b.spread.score.ic


class TestPayloadRoundTrips:
    def test_iteration_round_trips_exactly(self):
        original = _iteration()
        rebuilt = wire.iteration_from_wire(
            _roundtrip(wire.iteration_to_wire(original))
        )
        _assert_iterations_equal(original, rebuilt)

    def test_iteration_without_spread(self):
        original = _iteration(with_spread=False)
        rebuilt = wire.iteration_from_wire(
            _roundtrip(wire.iteration_to_wire(original))
        )
        assert rebuilt.spread is None
        _assert_iterations_equal(original, rebuilt)

    def test_job_result_round_trips_exactly(self):
        original = _result()
        rebuilt = wire.job_result_from_wire(
            _roundtrip(wire.job_result_to_wire(original))
        )
        assert rebuilt.job == original.job
        assert rebuilt.elapsed_seconds == original.elapsed_seconds
        assert len(rebuilt.iterations) == 2
        for a, b in zip(original.iterations, rebuilt.iterations):
            _assert_iterations_equal(a, b)

    def test_scheduler_event_round_trips(self):
        original = SchedulerEvent(
            kind="coalesced",
            job_id="job-0007",
            job=_job(),
            pending=4,
            detail="onto job-0003",
        )
        rebuilt = wire.scheduler_event_from_wire(
            _roundtrip(wire.scheduler_event_to_wire(original))
        )
        assert rebuilt.kind == original.kind
        assert rebuilt.job_id == original.job_id
        assert rebuilt.pending == original.pending
        assert rebuilt.detail == original.detail
        assert rebuilt.job == original.job

    def test_candidate_summary_is_render_ready(self):
        candidate = _candidate(ic=4.0, dl=2.0)
        document = _roundtrip(wire.candidate_to_wire(candidate))
        assert document == {
            "description": str(candidate.description),
            "size": 3,
            "si": 2.0,
            "ic": 4.0,
            "dl": 2.0,
        }


class TestEventEnvelopes:
    def test_iteration_event_golden_shape(self):
        document = _roundtrip(wire.iteration_event("job-0001", _iteration()))
        assert document["schema"] == wire.WIRE_SCHEMA
        assert document["type"] == "iteration"
        assert document["job_id"] == "job-0001"
        assert document["iteration"]["index"] == 1
        assert document["iteration"]["location"]["type"] == "location_pattern"
        assert document["iteration"]["spread"]["type"] == "spread_pattern"

    @pytest.mark.parametrize(
        "build",
        [
            lambda: wire.iteration_event("job-0001", _iteration()),
            lambda: wire.job_event("job-0002", _result()),
            lambda: wire.schedule_event(
                SchedulerEvent("queued", "job-0003", _job(), pending=1)
            ),
            lambda: wire.job_failed_event(
                "job-0004", _job(), RuntimeError("boom")
            ),
        ],
    )
    def test_event_from_wire_materializes(self, build):
        event = wire.event_from_wire(_roundtrip(build()), seq=17)
        assert event.seq == 17
        assert event.type in wire.EVENT_TYPES
        assert event.job_id.startswith("job-")
        if event.type == "iteration":
            _assert_iterations_equal(event.data, _iteration())
        elif event.type == "job":
            assert event.data.job == _job()
        elif event.type == "schedule":
            assert event.data.kind == "queued"
        elif event.type == "job_failed":
            assert event.data["error"] == {
                "type": "RuntimeError",
                "message": "boom",
            }

    def test_candidates_event_round_trips_to_the_same_summaries(self):
        summaries = [
            wire.candidate_to_wire(_candidate(ic=ic, dl=1.0 / 3.0))
            for ic in (10.0 / 3.0, 0.1, 2.0**-40)
        ]
        event = wire.event_from_wire(
            _roundtrip(wire.candidates_event("job-0005", summaries)), seq=3
        )
        assert event.type == "candidates"
        assert event.job_id == "job-0005"
        assert event.data == summaries  # floats compared exactly

    def test_unknown_event_type_is_loud(self):
        with pytest.raises(ReproError):
            wire.event_from_wire({"schema": wire.WIRE_SCHEMA, "type": "nope"})

    def test_wrong_schema_is_loud(self):
        with pytest.raises(ReproError):
            wire.event_from_wire({"schema": 999, "type": "iteration"})

    def test_job_state_document(self):
        job = _job()
        document = _roundtrip(wire.job_state_to_wire("job-0009", "running", job))
        assert document["job_id"] == "job-0009"
        assert document["status"] == "running"
        assert document["fingerprint"] == job.fingerprint()
        assert document["name"] == job.label
        assert document["dataset"] == "synthetic"
        assert document["n_iterations"] == 2
        assert document["priority"] == 3
        assert document["deadline"] == 60.0
