"""Tests for the unified, frozen, JSON-round-trippable MiningSpec."""

import json
import re
from dataclasses import fields

import pytest

from repro.errors import (
    DataError,
    EngineError,
    LanguageError,
    ModelError,
    ReproError,
    SearchError,
)
from repro.persist import job_from_dict, job_to_dict, load_spec, save_spec
from repro.search.config import SearchConfig
from repro.spec import (
    _FLAT_FIELDS,
    _SECTION_CLASSES,
    DatasetSpec,
    ExecutorSpec,
    InterestSpec,
    LanguageSpec,
    MiningSpec,
    ModelSpec,
    SearchSpec,
)


class TestConstruction:
    def test_dataset_string_promoted(self):
        spec = MiningSpec(dataset="synthetic")
        assert spec.dataset == DatasetSpec(name="synthetic")

    def test_build_routes_flat_keywords(self):
        spec = MiningSpec.build(
            "water",
            dataset_seed=3,
            seed=7,
            kind="spread",
            n_iterations=2,
            beam_width=10,
            gamma=0.5,
            n_split_points=3,
            workers=4,
        )
        assert spec.dataset.seed == 3
        assert spec.search.seed == 7
        assert spec.search.kind == "spread"
        assert spec.search.beam_width == 10
        assert spec.interest.gamma == 0.5
        assert spec.language.n_split_points == 3
        assert spec.executor.workers == 4

    def test_every_section_field_but_the_dataset_name_has_one_flat_keyword(self):
        every = {
            (section, f.name)
            for section, cls in _SECTION_CLASSES.items()
            for f in fields(cls)
        }
        assert sorted(_FLAT_FIELDS.values()) == sorted(every - {("dataset", "name")})

    def test_build_rejects_unknown_keyword(self):
        with pytest.raises(ReproError, match="unknown spec keyword 'depth'"):
            MiningSpec.build("synthetic", depth=2)

    def test_with_changes(self):
        spec = MiningSpec.build("synthetic")
        changed = spec.with_changes(beam_width=5, gamma=0.9)
        assert changed.search.beam_width == 5
        assert changed.interest.gamma == 0.9
        assert spec.search.beam_width == 40  # original untouched

    def test_unknown_dataset_lists_available(self):
        with pytest.raises(DataError, match="unknown dataset 'nope'"):
            MiningSpec.build("nope")

    def test_unknown_measure_rejected(self):
        with pytest.raises(ReproError, match="interestingness measure"):
            MiningSpec.build("synthetic", measure="magic")

    def test_search_invariants_enforced(self):
        with pytest.raises(SearchError, match="beam_width"):
            MiningSpec.build("synthetic", beam_width=0)

    def test_strategy_cross_rules_enforced(self):
        with pytest.raises(EngineError, match="single-shot"):
            MiningSpec.build("crime", strategy="branch_bound", n_iterations=2)
        with pytest.raises(EngineError, match="quality_beam"):
            MiningSpec.build("synthetic", strategy="beam", measure="wracc")
        with pytest.raises(EngineError, match="classical measure"):
            MiningSpec.build("synthetic", strategy="quality_beam")

    def test_quality_beam_measure_validated_eagerly(self):
        # A typo'd measure fails at construction, not mid-batch.
        with pytest.raises(ReproError, match="unknown interestingness measure"):
            MiningSpec.build("crime", strategy="quality_beam", measure="mean_shfit")
        with pytest.raises(ReproError, match="unknown interestingness measure"):
            job_from_dict(
                {"dataset": "crime", "strategy": "quality_beam", "measure": "mean_shfit"}
            )


#: Spec values the engine cannot run: the flat keyword and its value,
#: the error class and the full message, which lists the valid names.
REFUSED = [
    ("strategy", "dfs", SearchError,
     "unknown search strategy 'dfs'; available: beam, branch_bound, quality_beam"),
    ("model", "x", ModelError, "unknown background model 'x'; available: gaussian"),
    ("model", "bernoulli", ModelError,
     "unknown background model 'bernoulli'; available: gaussian"),
    ("sparsity", 0, SearchError, "only sparsity=2 is supported, got 0"),
    ("sparsity", 1, SearchError, "only sparsity=2 is supported, got 1"),
    ("sparsity", 3, SearchError, "only sparsity=2 is supported, got 3"),
    ("split_strategy", "bogus", LanguageError,
     "unknown split strategy 'bogus'; available: levels, percentile, width"),
    ("n_split_points", 0, LanguageError, "n_split_points must be >= 1, got 0"),
]


def _spell(spelling, key, value):
    """A synthetic spec with one flat keyword set, in one of three spellings."""
    if spelling == "build":
        return MiningSpec.build("synthetic", **{key: value})
    if spelling == "from_dict":
        section, field_name = _FLAT_FIELDS[key]
        return MiningSpec.from_dict({"dataset": "synthetic", section: {field_name: value}})
    if key in {f.name for f in fields(SearchConfig)}:
        return job_from_dict({"dataset": "synthetic", "config": {key: value}})
    return job_from_dict({"dataset": "synthetic", key: value})


class TestRefusedValues:
    """A spec names only what the engine runs, however it is spelled."""

    @pytest.mark.parametrize(
        "spelling, key, value, error, message",
        [
            pytest.param(spelling, *refused, id=f"{spelling}-{refused[0]}={refused[1]}")
            for refused in REFUSED
            for spelling in ("build", "from_dict", "job_from_dict")
            # The flat document has no model kind (see below).
            if not (spelling == "job_from_dict" and refused[0] == "model")
        ],
    )
    def test_refused_with_its_class_and_the_valid_names(
        self, spelling, key, value, error, message
    ):
        with pytest.raises(error, match=re.escape(message)) as excinfo:
            _spell(spelling, key, value)
        assert type(excinfo.value) is error

    def test_flat_document_names_no_model_kind(self):
        with pytest.raises(ReproError, match=re.escape("unknown job spec keys: ['model']")):
            job_from_dict({"dataset": "synthetic", "model": "gaussian"})


class TestSerialization:
    def test_json_round_trip_is_identity(self):
        spec = MiningSpec.build(
            "synthetic",
            kind="spread",
            n_iterations=2,
            beam_width=8,
            sparsity=2,
            workers=3,
            name="roundtrip",
        )
        rebuilt = MiningSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec

    def test_save_and_load_spec(self, tmp_path):
        spec = MiningSpec.build("water", kind="spread", beam_width=6)
        path = save_spec(spec, tmp_path / "spec.json")
        assert load_spec(path) == spec

    def test_from_dict_rejects_unknown_sections(self):
        with pytest.raises(ReproError, match="unknown spec sections"):
            MiningSpec.from_dict({"dataset": "synthetic", "sarch": {}})

    def test_from_dict_rejects_unknown_section_keys(self):
        with pytest.raises(ReproError, match="unknown keys in spec section 'search'"):
            MiningSpec.from_dict(
                {"dataset": "synthetic", "search": {"beam_widht": 4}}
            )

    @pytest.mark.parametrize("bad", [[], 0, False, "", "x", 7])
    def test_from_dict_rejects_non_object_sections(self, bad):
        with pytest.raises(ReproError, match="must be an object"):
            MiningSpec.from_dict({"dataset": "synthetic", "search": bad})

    def test_from_dict_dataset_shorthand(self):
        spec = MiningSpec.from_dict({"dataset": "synthetic"})
        assert spec.dataset.name == "synthetic"

    def test_from_dict_needs_dataset(self):
        with pytest.raises(ReproError, match="'dataset' section"):
            MiningSpec.from_dict({"search": {}})

    def test_bad_schema_rejected(self):
        with pytest.raises(ReproError, match="unsupported spec schema"):
            MiningSpec.from_dict({"schema": 99, "dataset": "synthetic"})


class TestFingerprint:
    def test_ignores_name_and_executor(self):
        a = MiningSpec.build("synthetic", name="a", workers=1)
        b = MiningSpec.build("synthetic", name="b", workers=8, backend="thread")
        assert a.fingerprint() == b.fingerprint()

    def test_tracks_work_changes(self):
        a = MiningSpec.build("synthetic", beam_width=8)
        b = MiningSpec.build("synthetic", beam_width=9)
        assert a.fingerprint() != b.fingerprint()

    def test_specs_are_hashable(self):
        a = MiningSpec.build("synthetic", dataset_kwargs={"flip_probability": 0.1})
        b = MiningSpec.build("synthetic", dataset_kwargs={"flip_probability": 0.1})
        assert a == b
        assert len({a, b}) == 1

    def test_int_spelled_floats_fingerprint_like_their_float_twins(self):
        # Sectioned, built and flat spellings of one job must share one
        # cache entry, coalesce, and land on one replica.
        built_int = MiningSpec.build("synthetic", gamma=1)
        built_float = MiningSpec.build("synthetic", gamma=1.0)
        flat = job_from_dict({"dataset": "synthetic", "gamma": 1})
        sectioned = MiningSpec.from_dict(
            {"dataset": "synthetic", "interest": {"gamma": 1}}
        )
        assert (
            built_int.fingerprint()
            == built_float.fingerprint()
            == flat.fingerprint()
            == sectioned.fingerprint()
        )
        assert isinstance(built_int.interest.gamma, float)
        assert built_int.dl_params() == built_float.dl_params()

    def test_search_floats_normalized(self):
        spec = MiningSpec.build(
            "synthetic", eta=2, max_coverage_fraction=1, time_budget_seconds=5
        )
        assert spec.interest.eta == 2.0 and isinstance(spec.interest.eta, float)
        assert isinstance(spec.search.max_coverage_fraction, float)
        assert isinstance(spec.search.time_budget_seconds, float)
        assert spec.fingerprint() == MiningSpec.build(
            "synthetic", eta=2.0, max_coverage_fraction=1.0, time_budget_seconds=5.0
        ).fingerprint()
        assert MiningSpec.build("synthetic").search.time_budget_seconds is None

    @pytest.mark.parametrize(
        "field,bad",
        [
            ("gamma", True),
            ("eta", "1"),
            ("max_coverage_fraction", False),
            ("time_budget_seconds", "soon"),
        ],
    )
    def test_bools_and_non_numbers_rejected(self, field, bad):
        with pytest.raises(ReproError, match=field):
            MiningSpec.build("synthetic", **{field: bad})

    def test_caller_dict_mutation_does_not_reach_the_spec(self):
        kwargs = {"flip_probability": 0.1}
        spec = MiningSpec.build("synthetic", dataset_kwargs=kwargs)
        before = spec.fingerprint()
        kwargs["flip_probability"] = 0.9
        assert spec.dataset.kwargs == {"flip_probability": 0.1}
        assert spec.fingerprint() == before


#: Every integer work field: (section, field, flat keyword, a valid value).
INT_FIELDS = [
    ("dataset", "seed", "dataset_seed", 2),
    ("language", "n_split_points", "n_split_points", 3),
    ("search", "n_iterations", "n_iterations", 2),
    ("search", "sparsity", "sparsity", 2),
    ("search", "seed", "seed", 3),
    ("search", "beam_width", "beam_width", 8),
    ("search", "max_depth", "max_depth", 2),
    ("search", "top_k", "top_k", 10),
    ("search", "min_coverage", "min_coverage", 3),
]


def _spelled(spelling, section, field, key, value):
    """The spec with ``section.field`` set to ``value``, spelled one way."""
    if spelling == "build":
        return MiningSpec.build("synthetic", **{key: value})
    if spelling == "sectioned":
        document = {"dataset": {"name": "synthetic"}}
        document.setdefault(section, {})[field] = value
        return MiningSpec.from_dict(document)
    document = {"dataset": "synthetic"}
    if key in {f.name for f in fields(SearchConfig)}:
        document["config"] = {key: value}
    else:
        document[key] = value
    return job_from_dict(document)


@pytest.mark.parametrize("spelling", ["build", "sectioned", "flat"])
@pytest.mark.parametrize("section,field,key,value", INT_FIELDS)
class TestIntegerFields:
    """Each integer field reads the same in every spelling of a job."""

    def test_integral_float_is_the_int(self, spelling, section, field, key, value):
        as_int = _spelled(spelling, section, field, key, value)
        as_float = _spelled(spelling, section, field, key, float(value))
        stored = getattr(getattr(as_float, section), field)
        assert stored == value and type(stored) is int
        assert as_float == as_int
        assert as_float.fingerprint() == as_int.fingerprint()
        assert hash(as_float) == hash(as_int)
        assert len({as_float, as_int}) == 1

    @pytest.mark.parametrize("bad", [2.5, True, "2", float("inf")])
    def test_non_integer_raises_naming_the_field(
        self, spelling, section, field, key, value, bad
    ):
        with pytest.raises(ReproError, match=f"{section} {field} must be an integer"):
            _spelled(spelling, section, field, key, bad)


class TestValueReading:
    def test_executor_numbers(self):
        assert ExecutorSpec(priority=2.0).priority == 2
        assert type(ExecutorSpec(priority=2.0).priority) is int
        assert ExecutorSpec(workers=2.0).workers == 2
        assert ExecutorSpec(workers=None).workers is None
        for bad in ({"workers": "2"}, {"deadline": "30"}, {"priority": 2.5},
                    {"workers": True}, {"priority": float("inf")}):
            (name,) = bad
            with pytest.raises(ReproError, match=f"executor {name}"):
                ExecutorSpec(**bad)

    def test_prior_spellings_are_one_prior(self):
        ints = MiningSpec.build("crime", prior={"mean": [0], "cov": [[1]]})
        floats = MiningSpec.build("crime", prior={"mean": [0.0], "cov": [[1.0]]})
        assert ints.model.prior == {"mean": [0.0], "cov": [[1.0]]}
        assert ints == floats and hash(ints) == hash(floats)
        assert ints.fingerprint() == floats.fingerprint()
        assert job_from_dict(job_to_dict(ints)).fingerprint() == floats.fingerprint()

    @pytest.mark.parametrize(
        "prior",
        [
            {"mean": ["x"], "cov": [[1.0]]},
            {"mean": ["0"], "cov": [[1.0]]},
            {"mean": [True], "cov": [[1.0]]},
            {"mean": [0.0], "cov": [[1.0], [1.0, 2.0]]},
            {"mean": [0.0, 0.0], "cov": [[1.0]]},
            {"mean": [0.0], "cov": [[-1.0]]},
            {"mean": [0.0], "cov": [[1.0]], "scale": 2.0},
        ],
    )
    def test_malformed_prior_raises_at_construction(self, prior):
        with pytest.raises(ReproError, match="prior"):
            ModelSpec(prior=prior)

    @pytest.mark.parametrize(
        "entry",
        [{"gamma": "0.5"}, {"seed": "3"}, {"targets": "ab"}, {"weights": ["1", "2"]}],
    )
    def test_flat_document_reads_values_like_the_sections(self, entry):
        with pytest.raises(ReproError, match="invalid job spec"):
            job_from_dict({"dataset": "synthetic", **entry})
        with pytest.raises(ReproError):
            MiningSpec.build("synthetic", **entry)


class TestJobInterop:
    """The flat job document form (batch files, wire, store records)."""

    def test_to_job_carries_every_section(self):
        spec = MiningSpec.build(
            "water",
            dataset_seed=2,
            seed=5,
            kind="spread",
            n_iterations=3,
            beam_width=12,
            max_depth=3,
            gamma=0.2,
            n_split_points=5,
            priority=4,
            deadline=30,
            name="interop",
        )
        document = job_to_dict(spec)
        assert document["dataset"] == "water"
        assert document["dataset_seed"] == 2
        assert document["seed"] == 5
        assert document["kind"] == "spread"
        assert document["n_iterations"] == 3
        assert document["config"] == SearchConfig(
            beam_width=12, max_depth=3, n_split_points=5
        ).to_dict()
        assert document["gamma"] == 0.2
        assert document["name"] == "interop"
        assert document["strategy"] == "beam"
        assert document["measure"] == "si"
        assert (document["priority"], document["deadline"]) == (4, 30.0)
        assert {k: document[k] for k in spec.work_document()} == spec.work_document()

    def test_from_job_round_trip(self):
        spec = MiningSpec.build(
            "synthetic",
            dataset_seed=1,
            kind="spread",
            n_iterations=2,
            seed=3,
            beam_width=6,
            max_depth=2,
            gamma=0.3,
            name="rt",
        )
        assert job_from_dict(job_to_dict(spec)) == spec
        unnamed = spec.with_changes(name="")
        assert job_to_dict(unnamed)["name"] == ""
        assert job_from_dict(job_to_dict(unnamed)).name == ""

    def test_section_defaults_match_job_defaults(self):
        # A default spec and a minimal flat job describe the same work.
        spec = MiningSpec.build("synthetic")
        assert job_from_dict({"dataset": "synthetic"}) == spec
        assert job_from_dict({"dataset": "synthetic"}).fingerprint() == spec.fingerprint()


class TestSectionTypes:
    def test_sections_are_frozen(self):
        spec = MiningSpec.build("synthetic")
        with pytest.raises(AttributeError):
            spec.search.beam_width = 1
        with pytest.raises(AttributeError):
            spec.name = "x"

    def test_targets_and_attributes_coerced_to_tuples(self):
        spec = MiningSpec(
            dataset=DatasetSpec("synthetic", targets=["attr_a"]),
            language=LanguageSpec(attributes=["x"]),
        )
        assert spec.dataset.targets == ("attr_a",)
        assert spec.language.attributes == ("x",)

    def test_bare_string_targets_rejected_not_split(self):
        with pytest.raises(ReproError, match="list of names"):
            DatasetSpec("synthetic", targets="ab")
        with pytest.raises(ReproError, match="list of names"):
            LanguageSpec(attributes="xy")

    def test_null_section_values_handled(self):
        # to_dict writes nulls, so from_dict must accept them back —
        # kwargs: null normalizes, a null non-nullable field errors typed.
        spec = MiningSpec.from_dict(
            {"dataset": {"name": "synthetic", "kwargs": None, "targets": None}}
        )
        assert spec.dataset.kwargs == {}
        with pytest.raises(ReproError, match="kwargs"):
            DatasetSpec("synthetic", kwargs=[1, 2])

    def test_model_prior_shape_validated(self):
        with pytest.raises(ReproError, match="mean"):
            ModelSpec(prior={"cov": [[1.0]]})

    def test_executor_section_validated_eagerly(self):
        with pytest.raises(ReproError, match="worker count"):
            ExecutorSpec(workers=-2)
        with pytest.raises(ReproError, match="backend"):
            ExecutorSpec(backend="quantum")
        with pytest.raises(ReproError, match="start_method"):
            ExecutorSpec(start_method="bogus")

    def test_single_shot_strategies_reject_explicit_prior(self):
        prior = {"mean": [0.0], "cov": [[1.0]]}
        with pytest.raises(EngineError, match="empirical prior"):
            MiningSpec.build("crime", strategy="branch_bound", prior=prior)
        with pytest.raises(EngineError, match="empirical prior"):
            MiningSpec.build(
                "crime", strategy="quality_beam", measure="mean_shift",
                prior=prior,
            )

    def test_all_sections_have_defaults(self):
        spec = MiningSpec(dataset=DatasetSpec("synthetic"))
        assert spec.language == LanguageSpec()
        assert spec.model == ModelSpec()
        assert spec.interest == InterestSpec()
        assert spec.search == SearchSpec()
        assert spec.executor == ExecutorSpec()


class TestExecutorSharedMemory:
    """The retired ``shared_memory`` transport toggle.

    Shared memory is the only process transport now, so the executor
    section has no toggle: documents that still carry the key load (it
    is dropped), and new spellings of it are unknown keywords.
    """

    def test_defaults_off(self):
        assert "shared_memory" not in MiningSpec.build("synthetic").to_dict()["executor"]
        assert not hasattr(ExecutorSpec(), "shared_memory")

    def test_flat_keyword_routes(self):
        with pytest.raises(ReproError, match="unknown spec keyword 'shared_memory'"):
            MiningSpec.build("synthetic", shared_memory=True, workers=2)

    def test_round_trips_through_json(self):
        document = MiningSpec.build("synthetic", workers=2).to_dict()
        document["executor"]["shared_memory"] = True
        spec = MiningSpec.from_dict(json.loads(json.dumps(document)))
        assert spec.executor.workers == 2
        assert "shared_memory" not in spec.to_dict()["executor"]
        assert MiningSpec.from_dict(spec.to_dict()) == spec

    def test_fingerprint_excludes_the_toggle(self):
        # Documents written with either value describe the same work.
        plain = MiningSpec.build("synthetic")
        for value in (True, False):
            document = plain.to_dict()
            document["executor"]["shared_memory"] = value
            assert MiningSpec.from_dict(document).fingerprint() == plain.fingerprint()

    def test_with_changes_toggles(self):
        with pytest.raises(ReproError, match="unknown spec keyword"):
            MiningSpec.build("synthetic").with_changes(shared_memory=True)


class TestDatasetWeights:
    def test_build_routes_weights_to_dataset_section(self):
        spec = MiningSpec.build("synthetic", weights=(1.0, 2.0, 0.5))
        assert spec.dataset.weights == (1.0, 2.0, 0.5)

    def test_weights_normalized_to_float_tuple(self):
        spec = MiningSpec.build("synthetic", weights=[1, 2])
        assert spec.dataset.weights == (1.0, 2.0)
        assert all(isinstance(w, float) for w in spec.dataset.weights)

    @pytest.mark.parametrize("bad", ["heavy", (), (1.0, -2.0), (1.0, float("nan"))])
    def test_invalid_weights_rejected(self, bad):
        with pytest.raises(ReproError, match="weights"):
            MiningSpec.build("synthetic", weights=bad)

    def test_to_dict_omits_unset_weights(self):
        """Pre-weights spec documents must stay byte-identical."""
        assert "weights" not in MiningSpec.build("synthetic").to_dict()["dataset"]

    def test_json_round_trip(self):
        spec = MiningSpec.build("synthetic", weights=(1.0, 2.5))
        document = json.loads(json.dumps(spec.to_dict()))
        assert document["dataset"]["weights"] == [1.0, 2.5]
        assert MiningSpec.from_dict(document) == spec

    def test_job_round_trip(self):
        spec = MiningSpec.build("synthetic", weights=(1.0, 2.5))
        document = job_to_dict(spec)
        assert document["weights"] == [1.0, 2.5]
        assert job_from_dict(document).dataset.weights == (1.0, 2.5)

    def test_weights_change_the_fingerprint(self):
        plain = MiningSpec.build("synthetic")
        weighted = MiningSpec.build("synthetic", weights=(1.0, 2.0))
        assert plain.fingerprint() != weighted.fingerprint()

    def test_unweighted_fingerprint_unchanged_by_the_field(self):
        # Adding the weights *field* must not have moved any existing
        # fingerprint: two unweighted builds agree and differ only from
        # genuinely weighted ones.
        assert (
            MiningSpec.build("synthetic").fingerprint()
            == MiningSpec.from_dict(
                MiningSpec.build("synthetic").to_dict()
            ).fingerprint()
        )


class TestDatasetContentFingerprint:
    def test_weights_feed_the_content_fingerprint(self):
        import numpy as np

        from repro.datasets import make_synthetic
        from repro.engine.cache import dataset_content_fingerprint

        dataset = make_synthetic(0)
        plain = dataset_content_fingerprint(dataset)
        ones = dataset_content_fingerprint(
            dataset.with_weights(np.ones(dataset.n_rows))
        )
        halves = dataset_content_fingerprint(
            dataset.with_weights(np.full(dataset.n_rows, 0.5))
        )
        assert plain != ones  # weighted content is different content
        assert ones != halves
        assert plain == dataset_content_fingerprint(make_synthetic(0))
