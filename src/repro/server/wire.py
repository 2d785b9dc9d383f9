"""Canonical JSON wire schemas shared by the HTTP server and client.

Everything that crosses the network — streamed events, job states,
results — is serialized here and only here, so
:class:`~repro.server.app.MiningServer` and
:class:`~repro.client.RemoteWorkspace` cannot drift apart. Mined
iterations and job results travel as :mod:`repro.persist` documents
(numpy arrays become lists, floats keep their exact shortest-repr
round-trip); this module adds the event envelopes, job states and
render-ready candidate summaries around them. That is what makes a
remote result *bit-identical* to the local one after a JSON hop.

An event document is a flat envelope::

    {"schema": 1, "type": "iteration", "job_id": "job-0001", ...payload}

with ``type`` one of :data:`EVENT_TYPES`. :func:`event_from_wire`
materializes the payload back into library objects
(:class:`~repro.search.results.MiningIteration`,
:class:`~repro.engine.jobs.JobResult`,
:class:`~repro.events.SchedulerEvent`), so client code handles the same
types it would see from a local :class:`~repro.api.Workspace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.engine.jobs import JobResult
from repro.errors import ReproError
from repro.events import SchedulerEvent
from repro.persist import (
    iteration_from_dict,
    iteration_to_dict,
    job_from_dict,
    job_result_from_dict,
    job_result_to_dict,
    job_to_dict,
)
from repro.search.results import MiningIteration, ScoredSubgroup
from repro.spec import MiningSpec

#: Schema version embedded in every wire document; bump on breaking changes.
WIRE_SCHEMA = 1

#: Event envelope types a server stream may carry.
EVENT_TYPES = ("iteration", "candidates", "schedule", "job", "job_failed")


def _check_schema(data: dict[str, Any], what: str) -> None:
    schema = data.get("schema", WIRE_SCHEMA)
    if schema != WIRE_SCHEMA:
        raise ReproError(
            f"unsupported {what} wire schema {schema!r} (expected {WIRE_SCHEMA})"
        )


# --------------------------------------------------------------------- #
# Payload encodings
# --------------------------------------------------------------------- #
#: A mined iteration and a whole job result (the ``GET .../result``
#: payload) travel as their persist documents.
iteration_to_wire = iteration_to_dict
iteration_from_wire = iteration_from_dict
job_result_to_wire = job_result_to_dict
job_result_from_wire = job_result_from_dict


def candidate_to_wire(candidate: ScoredSubgroup) -> dict[str, Any]:
    """Summarize one scored beam candidate for the stream.

    Candidates fire for *every* admissible subgroup (at paper settings,
    tens per beam level on synthetic and about 38,000 on crime), so the
    wire form is a render-ready summary — description text and scores,
    no row indices. Full-fidelity records travel in iteration and result
    documents only.
    """
    return {
        "description": str(candidate.description),
        "size": candidate.size,
        "si": candidate.si,
        "ic": candidate.score.ic,
        "dl": candidate.score.dl,
    }


def scheduler_event_to_wire(event: SchedulerEvent) -> dict[str, Any]:
    """Serialize one scheduling decision, including its job spec."""
    return {
        "kind": event.kind,
        "job_id": event.job_id,
        "pending": event.pending,
        "detail": event.detail,
        "job": job_to_dict(event.job),
    }


def scheduler_event_from_wire(data: dict[str, Any]) -> SchedulerEvent:
    """Rebuild one scheduling decision from its wire form."""
    return SchedulerEvent(
        kind=data["kind"],
        job_id=data["job_id"],
        job=job_from_dict(data["job"]),
        pending=int(data.get("pending", 0)),
        detail=data.get("detail", ""),
    )


def submission_spec(document: dict[str, Any]) -> MiningSpec:
    """The spec a ``POST /jobs`` body carries.

    Read in one order: ``spec`` first, then a flat ``job`` document,
    then a bare spec document (one with ``dataset``).
    """
    if "spec" in document:
        return MiningSpec.from_dict(document["spec"])
    if "job" in document:
        return job_from_dict(document["job"])
    if "dataset" in document:
        return MiningSpec.from_dict(document)
    raise ReproError(
        'submit body must be {"spec": {...}}, {"job": {...}}, or a bare '
        "MiningSpec document"
    )


def job_state_to_wire(job_id: str, status: Any, job: MiningSpec) -> dict[str, Any]:
    """One job's lifecycle snapshot (the ``GET /jobs/{id}`` body)."""
    return {
        "schema": WIRE_SCHEMA,
        "job_id": job_id,
        "status": getattr(status, "value", str(status)),
        "name": job.label,
        "fingerprint": job.fingerprint(),
        "dataset": job.dataset.name,
        "strategy": job.search.strategy,
        "n_iterations": job.search.n_iterations,
        "priority": job.executor.priority,
        "deadline": job.executor.deadline,
    }


def error_to_wire(error: BaseException) -> dict[str, Any]:
    """Serialize an exception as ``{"type", "message"}``."""
    return {"type": type(error).__name__, "message": str(error)}


# --------------------------------------------------------------------- #
# Event envelopes (what SSE ``data:`` lines carry)
# --------------------------------------------------------------------- #
def iteration_event(job_id: str, iteration: MiningIteration) -> dict[str, Any]:
    """Envelope for one mined iteration of one job."""
    return {
        "schema": WIRE_SCHEMA,
        "type": "iteration",
        "job_id": job_id,
        "iteration": iteration_to_wire(iteration),
    }


def candidates_event(
    job_id: str, summaries: list[dict[str, Any]]
) -> dict[str, Any]:
    """Envelope for consecutive candidate summaries of one job.

    ``summaries`` are :func:`candidate_to_wire` dicts in generation
    order; one envelope carries a batch of them, so a mined step costs
    the stream a few frames rather than one per candidate.
    """
    return {
        "schema": WIRE_SCHEMA,
        "type": "candidates",
        "job_id": job_id,
        "candidates": summaries,
    }


def schedule_event(event: SchedulerEvent) -> dict[str, Any]:
    """Envelope for one scheduling decision (self-tagged with its job id)."""
    return {
        "schema": WIRE_SCHEMA,
        "type": "schedule",
        "job_id": event.job_id,
        **scheduler_event_to_wire(event),
    }


def job_event(job_id: str, result: JobResult) -> dict[str, Any]:
    """Envelope for one completed job, carrying its whole result."""
    return {
        "schema": WIRE_SCHEMA,
        "type": "job",
        "job_id": job_id,
        "result": job_result_to_dict(result),
    }


def job_failed_event(
    job_id: str, job: MiningSpec, error: BaseException
) -> dict[str, Any]:
    """Envelope for one failed job."""
    return {
        "schema": WIRE_SCHEMA,
        "type": "job_failed",
        "job_id": job_id,
        "job": job_to_dict(job),
        "error": error_to_wire(error),
    }


@dataclass(frozen=True)
class RemoteEvent:
    """One decoded stream event: type, owning job, materialized payload.

    ``data`` holds the payload as a library object —
    :class:`~repro.search.results.MiningIteration` for ``iteration``,
    :class:`~repro.engine.jobs.JobResult` for ``job``,
    :class:`~repro.events.SchedulerEvent` for ``schedule``, the list of
    summary dicts for ``candidates``, and the ``{"job", "error"}`` pair
    for ``job_failed``. ``seq`` is the server-assigned sequence number
    (0 when decoded outside a stream). ``raw`` keeps the envelope.
    """

    type: str
    job_id: str | None
    data: Any
    seq: int = 0
    raw: dict[str, Any] | None = None


def event_from_wire(data: dict[str, Any], seq: int = 0) -> RemoteEvent:
    """Decode one event envelope, materializing its payload."""
    if not isinstance(data, dict):
        raise ReproError(f"event document must be an object, got {type(data).__name__}")
    _check_schema(data, "event")
    kind = data.get("type")
    job_id = data.get("job_id")
    if kind == "iteration":
        payload: Any = iteration_from_wire(data["iteration"])
    elif kind == "candidates":
        payload = [dict(summary) for summary in data["candidates"]]
    elif kind == "schedule":
        payload = scheduler_event_from_wire(data)
    elif kind == "job":
        payload = job_result_from_dict(data["result"])
    elif kind == "job_failed":
        payload = {
            "job": job_from_dict(data["job"]),
            "error": dict(data["error"]),
        }
    else:
        raise ReproError(
            f"unknown event type {kind!r}; expected one of {EVENT_TYPES}"
        )
    return RemoteEvent(type=kind, job_id=job_id, data=payload, seq=seq, raw=data)
