"""JSON persistence for descriptions, constraints, models and results.

Iterative mining is a dialogue: the belief state accumulates everything
the user has been shown. This module serializes that state — so a
session can be saved, resumed, or shipped next to a paper — as plain
JSON (numpy arrays become lists; no pickle, no code execution on load).

Round-trips covered: conditions/descriptions, pattern constraints, the
Gaussian background model (prior + blocks + constraints), the result
records of the searches, mining iterations, search configs, and
:class:`~repro.spec.MiningSpec` jobs in both document forms: the flat
form of batch files, wire events, result documents and store records,
and the sectioned form of spec files.

Constraints, result records and mining iterations are written down here
only. Their codecs take the array encoding as a parameter: JSON lists
everywhere but the belief store's spill (:mod:`repro.store.beliefs`),
which references a memory-mapped array directory instead.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.engine.jobs import JobResult
from repro.errors import ReproError
from repro.search.config import SearchConfig
from repro.spec import _FLAT_FIELDS, MiningSpec
from repro.interest.si import PatternScore
from repro.lang.conditions import Condition, EqualsCondition, NumericCondition
from repro.lang.description import Description
from repro.model.background import BackgroundModel
from repro.model.blocks import BlockPartition
from repro.model.patterns import (
    LocationConstraint,
    PatternConstraint,
    SpreadConstraint,
)
from repro.model.priors import Prior
from repro.search.results import (
    LocationPatternResult,
    MiningIteration,
    ScoredSubgroup,
    SpreadPatternResult,
)

#: Schema version embedded in every document; bump on breaking changes.
SCHEMA_VERSION = 1


# --------------------------------------------------------------------- #
# Conditions and descriptions
# --------------------------------------------------------------------- #
def condition_to_dict(condition: Condition) -> dict:
    """Serialize one condition to a JSON-safe dict."""
    if isinstance(condition, NumericCondition):
        return {
            "type": "numeric",
            "attribute": condition.attribute,
            "op": condition.op,
            "threshold": condition.threshold,
        }
    if isinstance(condition, EqualsCondition):
        value = condition.value
        return {
            "type": "equals",
            "attribute": condition.attribute,
            "value": value,
            "value_kind": "number" if isinstance(value, float) else "string",
        }
    raise ReproError(f"cannot serialize condition type {type(condition).__name__}")


def condition_from_dict(data: dict) -> Condition:
    """Rebuild a condition from its serialized form."""
    kind = data.get("type")
    if kind == "numeric":
        return NumericCondition(data["attribute"], data["op"], data["threshold"])
    if kind == "equals":
        value = data["value"]
        if data.get("value_kind") == "number":
            value = float(value)
        return EqualsCondition(data["attribute"], value)
    raise ReproError(f"unknown condition type {kind!r}")


def description_to_dict(description: Description) -> dict:
    """Serialize a conjunctive description."""
    return {"conditions": [condition_to_dict(c) for c in description.conditions]}


def description_from_dict(data: dict) -> Description:
    """Rebuild a description from its serialized form."""
    return Description(
        tuple(condition_from_dict(c) for c in data["conditions"])
    )


# --------------------------------------------------------------------- #
# Pattern constraints
# --------------------------------------------------------------------- #
ArrayEncoder = Callable[[np.ndarray], Any]  # JSON: np.ndarray.tolist
ArrayDecoder = Callable[[Any, Any], np.ndarray]  # (node, dtype); JSON: np.asarray


def encode_constraint(constraint: PatternConstraint, array: ArrayEncoder) -> dict:
    """A location/spread pattern constraint's document, arrays via ``array``."""
    if isinstance(constraint, LocationConstraint):
        return {
            "type": "location",
            "indices": array(constraint.indices),
            "mean": array(constraint.mean),
        }
    if isinstance(constraint, SpreadConstraint):
        return {
            "type": "spread",
            "indices": array(constraint.indices),
            "direction": array(constraint.direction),
            "variance": constraint.variance,
            "center": array(constraint.center),
        }
    raise ReproError(f"cannot serialize constraint type {type(constraint).__name__}")


def decode_constraint(data: dict, array: ArrayDecoder) -> PatternConstraint:
    """Rebuild a pattern constraint from its document, arrays via ``array``."""
    kind = data.get("type")
    if kind == "location":
        return LocationConstraint(
            array(data["indices"], np.int64), array(data["mean"], float)
        )
    if kind == "spread":
        return SpreadConstraint(
            array(data["indices"], np.int64),
            array(data["direction"], float),
            float(data["variance"]),
            array(data["center"], float),
        )
    raise ReproError(f"unknown constraint type {kind!r}")


def constraint_to_dict(constraint: PatternConstraint) -> dict:
    """Serialize a location/spread pattern constraint."""
    return encode_constraint(constraint, np.ndarray.tolist)


def constraint_from_dict(data: dict) -> PatternConstraint:
    """Rebuild a pattern constraint from its serialized form."""
    return decode_constraint(data, np.asarray)


# --------------------------------------------------------------------- #
# Background model
# --------------------------------------------------------------------- #
def model_to_dict(model: BackgroundModel) -> dict:
    """Serialize a background model (prior, blocks, constraints, weights).

    ``"weights"`` is written only when set: unweighted documents are unchanged.
    """
    document = {
        "schema": SCHEMA_VERSION,
        "n_rows": model.n_rows,
        "prior": {
            "mean": model.prior.mean.tolist(),
            "cov": model.prior.cov.tolist(),
        },
        "labels": np.asarray(model.labels).tolist(),
        "blocks": [
            {
                "mean": model.block_mean(b).tolist(),
                "cov": model.block_cov(b).tolist(),
            }
            for b in range(model.n_blocks)
        ],
        "constraints": [constraint_to_dict(c) for c in model.constraints],
    }
    if model.weights is not None:
        document["weights"] = model.weights.tolist()
    return document


def model_from_dict(data: dict) -> BackgroundModel:
    """Rebuild a background model; validates schema, block labels and weights."""
    if data.get("schema") != SCHEMA_VERSION:
        raise ReproError(
            f"unsupported model schema {data.get('schema')!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    prior = Prior(
        np.asarray(data["prior"]["mean"], dtype=float),
        np.asarray(data["prior"]["cov"], dtype=float),
    )
    model = BackgroundModel(int(data["n_rows"]), prior, weights=data.get("weights"))
    labels = np.asarray(data["labels"], dtype=np.int64)
    if labels.shape != (model.n_rows,):
        raise ReproError("labels shape does not match n_rows")
    blocks = data["blocks"]
    if labels.max(initial=0) >= len(blocks):
        raise ReproError("labels reference a missing block")
    partition = BlockPartition(model.n_rows)
    partition._labels[:] = labels
    partition._n_blocks = len(blocks)
    model._partition = partition
    model._means = [np.asarray(b["mean"], dtype=float) for b in blocks]
    model._covs = [np.asarray(b["cov"], dtype=float) for b in blocks]
    model._constraints = [constraint_from_dict(c) for c in data["constraints"]]
    return model


# --------------------------------------------------------------------- #
# Result records and mining iterations
# --------------------------------------------------------------------- #
def _result_doc(result, array: ArrayEncoder) -> dict:
    if isinstance(result, ScoredSubgroup):
        return {
            "type": "scored_subgroup",
            "description": description_to_dict(result.description),
            "indices": array(result.indices),
            "observed_mean": array(result.observed_mean),
            "ic": result.score.ic,
            "dl": result.score.dl,
        }
    if isinstance(result, LocationPatternResult):
        return {
            "type": "location_pattern",
            "description": description_to_dict(result.description),
            "indices": array(result.indices),
            "mean": array(result.mean),
            "ic": result.score.ic,
            "dl": result.score.dl,
            "coverage": result.coverage,
        }
    if isinstance(result, SpreadPatternResult):
        return {
            "type": "spread_pattern",
            "description": description_to_dict(result.description),
            "indices": array(result.indices),
            "direction": array(result.direction),
            "variance": result.variance,
            "center": array(result.center),
            "ic": result.score.ic,
            "dl": result.score.dl,
        }
    raise ReproError(f"cannot serialize result type {type(result).__name__}")


def _decode_result(data: dict, array: ArrayDecoder, kind: str | None):
    score = PatternScore(ic=float(data["ic"]), dl=float(data["dl"]))
    if kind == "scored_subgroup":
        return ScoredSubgroup(
            description=description_from_dict(data["description"]),
            indices=array(data["indices"], np.int64),
            observed_mean=array(data["observed_mean"], float),
            score=score,
        )
    if kind == "location_pattern":
        return LocationPatternResult(
            description=description_from_dict(data["description"]),
            indices=array(data["indices"], np.int64),
            mean=array(data["mean"], float),
            score=score,
            coverage=float(data["coverage"]),
        )
    if kind == "spread_pattern":
        return SpreadPatternResult(
            description=description_from_dict(data["description"]),
            indices=array(data["indices"], np.int64),
            direction=array(data["direction"], float),
            variance=float(data["variance"]),
            center=array(data["center"], float),
            score=score,
        )
    raise ReproError(f"unknown result type {kind!r}")


def result_to_dict(result) -> dict:
    """Serialize a search/mining result record."""
    return _result_doc(result, np.ndarray.tolist)


def result_from_dict(data: dict):
    """Rebuild a search/mining result record from its serialized form."""
    return _decode_result(data, np.asarray, data.get("type"))


def encode_iteration(iteration: MiningIteration, array: ArrayEncoder) -> dict:
    """One mining iteration's document, arrays via ``array``.

    The document is ``{"index", "location", "spread"}``, where
    ``"spread"`` is null for a location-only step.
    """
    spread = iteration.spread
    return {
        "index": iteration.index,
        "location": _result_doc(iteration.location, array),
        "spread": _result_doc(spread, array) if spread is not None else None,
    }


def decode_iteration(data: dict, array: ArrayDecoder) -> MiningIteration:
    """Rebuild one mining iteration from its document, arrays via ``array``.

    The location and spread records are read by their slot, not by
    their ``"type"`` key: belief-store entries written before the store
    shared this codec carry none.
    """
    spread = data.get("spread")
    if spread is not None:
        spread = _decode_result(spread, array, "spread_pattern")
    return MiningIteration(
        index=int(data["index"]),
        location=_decode_result(data["location"], array, "location_pattern"),
        spread=spread,
    )


def iteration_to_dict(iteration: MiningIteration) -> dict:
    """Serialize one mining iteration (location + optional spread)."""
    return encode_iteration(iteration, np.ndarray.tolist)


def iteration_from_dict(data: dict) -> MiningIteration:
    """Rebuild one mining iteration from its serialized form."""
    return decode_iteration(data, np.asarray)


# --------------------------------------------------------------------- #
# Mining jobs (engine layer)
# --------------------------------------------------------------------- #
def search_config_to_dict(config: SearchConfig) -> dict:
    """Serialize beam-search settings."""
    return config.to_dict()


def search_config_from_dict(data: dict) -> SearchConfig:
    """Rebuild beam-search settings; absent keys keep paper defaults."""
    return SearchConfig.from_dict(data)


def job_to_dict(job: MiningSpec) -> dict:
    """Serialize a job in the flat document form.

    The document carries the spec's name-free
    :meth:`~repro.spec.MiningSpec.work_document` plus the run metadata
    excluded from it (``name`` and the ``priority``/``deadline``
    scheduling terms), so a batch file round-trips schedules too. The
    spec's own ``name`` is written, not its display label, so an
    unnamed spec stays unnamed across a round trip.
    """
    return {
        "schema": SCHEMA_VERSION,
        "name": job.name,
        "priority": job.executor.priority,
        "deadline": job.executor.deadline,
        **job.work_document(),
    }


#: Keys accepted in a flat job document's ``config`` object.
_CONFIG_KEYS = frozenset(f.name for f in fields(SearchConfig))

#: Spec keywords at a flat job document's top level: the work fields
#: outside ``config`` and the schedule (no in-search executor, no model kind).
_JOB_FIELDS = frozenset(_FLAT_FIELDS) - _CONFIG_KEYS - {
    "model", "workers", "backend", "start_method",
}


def job_from_dict(data: dict) -> MiningSpec:
    """Rebuild a job from its flat document; only ``dataset`` is mandatory.

    The document's keys are checked here; its values are read by
    :meth:`MiningSpec.build`, so a flat document accepts exactly the
    values the sectioned form does. Unknown keys and invalid values are
    :class:`ReproError`s — a typo'd spec must fail loudly, not silently
    run a default job. A value the spec refuses keeps the class the spec
    raised (an unknown strategy is a ``SearchError`` here too).
    """
    if "dataset" not in data:
        raise ReproError("job spec needs a 'dataset' key")
    schema = data.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ReproError(
            f"unsupported job schema {schema!r} (expected {SCHEMA_VERSION})"
        )
    unknown = set(data) - _JOB_FIELDS - {"schema", "name", "dataset", "config"}
    if unknown:
        raise ReproError(f"unknown job spec keys: {sorted(unknown)}")
    config: dict[str, Any] = data.get("config") or {}
    unknown = set(config) - _CONFIG_KEYS
    if unknown:
        raise ReproError(f"unknown SearchConfig keys: {sorted(unknown)}")
    flat = {key: value for key, value in data.items() if key in _JOB_FIELDS}
    try:
        return MiningSpec.build(
            data["dataset"], name=data.get("name") or "", **flat, **config
        )
    except ReproError as exc:
        raise type(exc)(f"invalid job spec: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ReproError(f"invalid job spec: {exc}") from exc


def save_jobs(jobs, path: str | Path) -> Path:
    """Write a batch file (the input of ``sisd batch``)."""
    document = {
        "schema": SCHEMA_VERSION,
        "jobs": [job_to_dict(job) for job in jobs],
    }
    return save_json(document, path)


def load_jobs(path: str | Path) -> list[MiningSpec]:
    """Read a batch file; accepts a document or a bare list of specs."""
    document = load_json(path)
    if isinstance(document, list):
        specs = document
    elif isinstance(document, dict) and isinstance(document.get("jobs"), list):
        specs = document["jobs"]
    else:
        raise ReproError(
            f"{path}: expected a list of job specs or a document with a 'jobs' list"
        )
    if not specs:
        raise ReproError(f"{path}: batch file contains no jobs")
    return [job_from_dict(spec) for spec in specs]


def job_result_to_dict(result: JobResult) -> dict:
    """Serialize one job's outcome (spec + mined patterns + timing)."""
    # Unlike an iteration document, a result document omits a null spread.
    iterations = [iteration_to_dict(iteration) for iteration in result.iterations]
    for entry in iterations:
        if entry["spread"] is None:
            del entry["spread"]
    return {
        "schema": SCHEMA_VERSION,
        "job": job_to_dict(result.job),
        "elapsed_seconds": result.elapsed_seconds,
        "iterations": iterations,
    }


def job_result_from_dict(data: dict) -> JobResult:
    """Rebuild a job result (e.g. from a ``sisd batch --output`` file)."""
    return JobResult(
        job=job_from_dict(data["job"]),
        iterations=tuple(iteration_from_dict(entry) for entry in data["iterations"]),
        elapsed_seconds=float(data["elapsed_seconds"]),
    )


# --------------------------------------------------------------------- #
# Mining specs (the unified front-door configuration)
# --------------------------------------------------------------------- #
def save_spec(spec: MiningSpec, path: str | Path) -> Path:
    """Write one spec to disk (the input of ``sisd mine --spec``)."""
    return save_json(spec.to_dict(), path)


def load_spec(path: str | Path) -> MiningSpec:
    """Read a spec file back into a validated :class:`MiningSpec`."""
    return MiningSpec.from_dict(load_json(path))


# --------------------------------------------------------------------- #
# File helpers
# --------------------------------------------------------------------- #
def save_json(document: dict, path: str | Path) -> Path:
    """Write a serialized document to disk (pretty-printed)."""
    path = Path(path)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def load_json(path: str | Path) -> dict:
    """Read a serialized document from disk."""
    return json.loads(Path(path).read_text())


def save_model(model: BackgroundModel, path: str | Path) -> Path:
    """One-call model save."""
    return save_json(model_to_dict(model), path)


def load_model(path: str | Path) -> BackgroundModel:
    """One-call model load."""
    return model_from_dict(load_json(path))
