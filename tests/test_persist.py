"""Round-trip tests for JSON persistence."""

import json

import numpy as np
import pytest

from repro.engine.cache import fingerprint as digest
from repro.errors import ReproError
from repro.interest.si import PatternScore
from repro.lang.conditions import EqualsCondition, NumericCondition
from repro.lang.description import Description
from repro.model.background import BackgroundModel
from repro.model.patterns import LocationConstraint, SpreadConstraint
from repro.persist import (
    condition_from_dict,
    condition_to_dict,
    constraint_from_dict,
    constraint_to_dict,
    description_from_dict,
    description_to_dict,
    job_from_dict,
    job_to_dict,
    load_model,
    model_from_dict,
    model_to_dict,
    result_from_dict,
    result_to_dict,
    save_model,
)
from repro.search.results import LocationPatternResult, ScoredSubgroup, SpreadPatternResult
from repro.spec import MiningSpec


class TestConditionRoundTrip:
    def test_numeric(self):
        original = NumericCondition("x", "<=", 2.5)
        assert condition_from_dict(condition_to_dict(original)) == original

    def test_equals_string(self):
        original = EqualsCondition("region", "east")
        restored = condition_from_dict(condition_to_dict(original))
        assert restored == original

    def test_equals_binary_number(self):
        original = EqualsCondition("flag", 1.0)
        restored = condition_from_dict(condition_to_dict(original))
        assert restored == original
        assert isinstance(restored.value, float)

    def test_unknown_type_rejected(self):
        with pytest.raises(ReproError, match="unknown condition"):
            condition_from_dict({"type": "regex"})


class TestDescriptionRoundTrip:
    def test_mixed_conditions(self):
        original = Description(
            (
                NumericCondition("a", ">=", 1.0),
                EqualsCondition("b", "yes"),
                NumericCondition("a", "<=", 5.0),
            )
        )
        restored = description_from_dict(description_to_dict(original))
        assert restored == original

    def test_empty(self):
        assert description_from_dict(description_to_dict(Description())) == Description()


class TestConstraintRoundTrip:
    def test_location(self, rng):
        targets = rng.standard_normal((20, 3))
        original = LocationConstraint.from_data(targets, np.arange(5))
        restored = constraint_from_dict(constraint_to_dict(original))
        np.testing.assert_array_equal(restored.indices, original.indices)
        np.testing.assert_allclose(restored.mean, original.mean)

    def test_spread(self, rng):
        targets = rng.standard_normal((20, 2))
        original = SpreadConstraint.from_data(
            targets, np.arange(8), np.array([1.0, 0.0])
        )
        restored = constraint_from_dict(constraint_to_dict(original))
        assert restored.variance == pytest.approx(original.variance)
        np.testing.assert_allclose(restored.center, original.center)

    def test_unknown_rejected(self):
        with pytest.raises(ReproError, match="unknown constraint"):
            constraint_from_dict({"type": "magic"})


class TestModelRoundTrip:
    def test_fresh_model(self, rng):
        targets = rng.standard_normal((30, 2))
        original = BackgroundModel.from_targets(targets)
        restored = model_from_dict(model_to_dict(original))
        np.testing.assert_allclose(restored.point_means(), original.point_means())
        np.testing.assert_allclose(restored.prior.cov, original.prior.cov)

    def test_evolved_model(self, rng):
        targets = rng.standard_normal((40, 2))
        original = BackgroundModel.from_targets(targets)
        original.assimilate(LocationConstraint.from_data(targets, np.arange(10)))
        original.assimilate(
            SpreadConstraint.from_data(targets, np.arange(10), np.array([0.0, 1.0]))
        )
        restored = model_from_dict(model_to_dict(original))
        assert restored.n_blocks == original.n_blocks
        np.testing.assert_array_equal(restored.labels, original.labels)
        np.testing.assert_allclose(restored.point_means(), original.point_means())
        for b in range(original.n_blocks):
            np.testing.assert_allclose(restored.block_cov(b), original.block_cov(b))
        assert len(restored.constraints) == 2
        assert restored.max_residual() < 1e-8

    def test_restored_model_continues_mining(self, rng):
        """A restored model produces identical ICs to the original."""
        from repro.interest.ic import location_ic

        targets = rng.standard_normal((40, 2))
        original = BackgroundModel.from_targets(targets)
        original.assimilate(LocationConstraint.from_data(targets, np.arange(10)))
        restored = model_from_dict(model_to_dict(original))
        probe = np.arange(20, 30)
        observed = targets[probe].mean(axis=0)
        assert location_ic(restored, probe, observed) == pytest.approx(
            location_ic(original, probe, observed), rel=1e-12
        )

    def test_file_roundtrip(self, rng, tmp_path):
        targets = rng.standard_normal((20, 2))
        original = BackgroundModel.from_targets(targets)
        path = save_model(original, tmp_path / "model.json")
        restored = load_model(path)
        np.testing.assert_allclose(restored.prior.mean, original.prior.mean)

    def test_weighted_model_round_trips_its_weights(self, rng):
        targets = rng.standard_normal((12, 2))
        weights = np.linspace(0.5, 2.0, 12)
        original = BackgroundModel.from_targets(targets, weights=weights)
        original.assimilate(LocationConstraint.from_data(targets, np.arange(4)))
        document = json.loads(json.dumps(model_to_dict(original)))
        restored = model_from_dict(document)
        np.testing.assert_array_equal(restored.weights, weights)
        probe = np.arange(6)
        assert restored.subgroup_mean_distribution(probe)[0].tolist() == (
            original.subgroup_mean_distribution(probe)[0].tolist()
        )

    def test_restored_weights_are_checked_by_the_model(self, rng):
        targets = rng.standard_normal((6, 1))
        document = model_to_dict(
            BackgroundModel.from_targets(targets, weights=np.ones(6))
        )
        document["weights"] = [1.0, -1.0, 1.0, 1.0, 1.0, 1.0]
        with pytest.raises(ReproError, match="weights"):
            model_from_dict(document)

    def test_unweighted_document_is_unchanged(self):
        """Unweighted model documents gained no key: pinned byte for byte."""
        written = (
            '{"schema": 1, "n_rows": 4, "prior": {"mean": [0.0], "cov": [[1.0]]}, '
            '"labels": [0, 0, 1, 1], "blocks": [{"mean": [0.9999999999999998], '
            '"cov": [[1.0]]}, {"mean": [0.0], "cov": [[1.0]]}], "constraints": '
            '[{"type": "location", "indices": [0, 1], "mean": [1.0]}]}'
        )
        restored = model_from_dict(json.loads(written))
        assert restored.weights is None
        assert json.dumps(model_to_dict(restored)) == written

    def test_schema_version_checked(self, rng):
        targets = rng.standard_normal((10, 1))
        document = model_to_dict(BackgroundModel.from_targets(targets))
        document["schema"] = 999
        with pytest.raises(ReproError, match="schema"):
            model_from_dict(document)

    def test_corrupt_labels_rejected(self, rng):
        targets = rng.standard_normal((10, 1))
        document = model_to_dict(BackgroundModel.from_targets(targets))
        document["labels"] = [5] * 10  # references a missing block
        with pytest.raises(ReproError, match="missing block"):
            model_from_dict(document)


class TestResultRoundTrip:
    def _description(self):
        return Description((EqualsCondition("a", 1.0),))

    def test_scored_subgroup(self):
        original = ScoredSubgroup(
            description=self._description(),
            indices=np.array([1, 2]),
            observed_mean=np.array([0.5]),
            score=PatternScore(ic=3.0, dl=1.1),
        )
        restored = result_from_dict(result_to_dict(original))
        assert restored.description == original.description
        assert restored.si == pytest.approx(original.si)

    def test_location_pattern(self):
        original = LocationPatternResult(
            description=self._description(),
            indices=np.array([0, 4]),
            mean=np.array([1.0]),
            score=PatternScore(ic=2.0, dl=1.1),
            coverage=0.2,
        )
        restored = result_from_dict(result_to_dict(original))
        assert restored.coverage == original.coverage

    def test_spread_pattern(self):
        original = SpreadPatternResult(
            description=self._description(),
            indices=np.array([0, 1]),
            direction=np.array([0.6, 0.8]),
            variance=0.4,
            center=np.array([0.0, 0.0]),
            score=PatternScore(ic=2.0, dl=2.1),
        )
        restored = result_from_dict(result_to_dict(original))
        np.testing.assert_allclose(restored.direction, original.direction)

    def test_unknown_rejected(self):
        with pytest.raises(ReproError, match="unknown result"):
            result_from_dict({"type": "nope", "ic": 1.0, "dl": 1.0})


# --------------------------------------------------------------------- #
# Job documents: fingerprints and documents written by earlier versions
# --------------------------------------------------------------------- #
#: Every corpus entry's expected work fingerprint and the digest of its
#: flat document minus ``name``, both recorded at commit eba79be, when
#: the flat job and the sectioned spec were still two classes. Cache
#: keys, store records and router placements written then are these
#: digests, so they must never move. The two int-spelled entries carry
#: the digests of their float-spelled twins: ``gamma=1`` and
#: ``gamma=1.0`` are the same work and fingerprint equally.
FINGERPRINT_CORPUS = {
    "default": (
        lambda: MiningSpec.build("synthetic"),
        "01728c8e0e9eb8cbff8934a984caa0e63adf35fb31fd844457942d434420f08c",
        "790b2ba4d707f60264bcf34298949e9f698ff16bbb4513694aa7e548f4aae397",
    ),
    "spread3": (
        lambda: MiningSpec.build("synthetic", kind="spread", n_iterations=3),
        "e77a41743d0be8873fc8def4b39d749259a6ca2ca045bd0605cf82d123de41de",
        "dd374d047cc43fd16f03146bb6ada250b9b9c5c7fa1a69fc09435d71576eb637",
    ),
    "weights": (
        lambda: MiningSpec.build("synthetic", weights=[1.0, 2.0, 0.5]),
        "468759a17b724c831909ecec0cafd6ff1d22efc0012570d94990e689c27feae1",
        "e82e858a2b45ff940cc88a30a79bdc669f0cdd62b3660c7e4fe8a3914c9c56fd",
    ),
    "prior": (
        lambda: MiningSpec.build("crime", prior={"mean": [0.0], "cov": [[1.0]]}),
        "58bbef15e7a0f9268577d66314a2c9800b7d41184a961e530d9dd5fe1d6ba0b8",
        "153a03c36eff25d091b211403bf0da55a6cd5dcf197fec69189d61c0abba1342",
    ),
    "targets": (
        lambda: MiningSpec.build("mammals", targets=["t1", "t2"], dataset_seed=2),
        "c710a174b99e0a1775682f731c439faa0dae75ca247d3176ab3bc3a61835ce90",
        "a8bc92f65f1235ff33ddfac7a86fa56fe2af63751dad549e1fadccb81176210c",
    ),
    "attributes": (
        lambda: MiningSpec.build(
            "synthetic", attributes=["attr1", "attr4"],
            beam_width=8, max_depth=2, top_k=10,
        ),
        "819822a0e19ac4febc3892050cc911ce97f3d43a0862e4d80b014ca9b8b7a12b",
        "4e924779364007323148a307299fca658cc72bd0484acb1b9824ca60f588f7d8",
    ),
    "branch_bound": (
        lambda: MiningSpec.build(
            "crime", strategy="branch_bound", targets=["violent"]
        ),
        "47156e63395fd5bb51ebe752f8d23b76323809c7264eed305b177b00e3e6527c",
        "c2649f8b5fac4502dd2d8097a2917322caa1e271aa797e991ec24bf2bc3235aa",
    ),
    "quality_beam": (
        lambda: MiningSpec.build(
            "synthetic", strategy="quality_beam", measure="mean_shift"
        ),
        "ddc57b8b016a970948fb0a3d6df345213d8a9e7e27090c0e63fed6cdf4e6ac20",
        "8c5aa5f1b14bdcad2a3169573251e0357c5d43cadeac39181e890ed3d38ba97b",
    ),
    "time_budget": (
        lambda: MiningSpec.build("synthetic", time_budget_seconds=2.5),
        "0bc10f6155fe559edee94af99bd50a0e5e54196ab51208c45a8edb53f858b18b",
        "f02d2a3ab4f422e617e9513c5c741a6de1f7d5016887646f71a46a92e7d3e593",
    ),
    "gamma_int": (
        lambda: MiningSpec.build("synthetic", gamma=1),
        "cc7b4e29f7ff24994f327cedd245704315ade2d771176b238c4325695e49a825",
        "ab0f17de7f424757d8383b30c91fcc64ec90a292bab76988b10e3faef9cb6c4d",
    ),
    "gamma_float": (
        lambda: MiningSpec.build("synthetic", gamma=1.0),
        "cc7b4e29f7ff24994f327cedd245704315ade2d771176b238c4325695e49a825",
        "ab0f17de7f424757d8383b30c91fcc64ec90a292bab76988b10e3faef9cb6c4d",
    ),
    "schedule": (
        lambda: MiningSpec.build("synthetic", name="sched", priority=5, deadline=30),
        "01728c8e0e9eb8cbff8934a984caa0e63adf35fb31fd844457942d434420f08c",
        "58252b6308ba06760e0e4db7c442e5607674e59ee7430592ddb75280c12a6daf",
    ),
    "executor": (
        lambda: MiningSpec.build(
            "synthetic", workers=4, backend="thread", start_method="spawn"
        ),
        "01728c8e0e9eb8cbff8934a984caa0e63adf35fb31fd844457942d434420f08c",
        "790b2ba4d707f60264bcf34298949e9f698ff16bbb4513694aa7e548f4aae397",
    ),
    "sectioned": (
        lambda: MiningSpec.from_dict({
            "name": "full",
            "dataset": {"name": "water", "seed": 3, "kwargs": {"n_rows": 300}},
            "language": {"n_split_points": 3, "split_strategy": "width"},
            "interest": {"gamma": 0.2, "eta": 2.0},
            "search": {
                "kind": "spread", "n_iterations": 2, "sparsity": 2, "seed": 7,
                "beam_width": 8, "max_depth": 3, "top_k": 20,
                "min_coverage": 5, "max_coverage_fraction": 0.5,
            },
        }),
        "6b7eee5bdb3451710da7cba29fe2998d7695fddb1e0c65bc400a003e8b3942e9",
        "26528caf7b6c75a8e5064a0537cad83c9d5efd3522ca8ca22a1ac7cc1fab6aa6",
    ),
    "int_fields": (
        lambda: MiningSpec.build(
            "synthetic", eta=2, max_coverage_fraction=1, time_budget_seconds=5
        ),
        "e620e4e5d7643930cf55063a2000d8d98e5a811b8c997419ae715b8354ec3a9c",
        "d6d9e0786c1540dcb84c0e4943eb676c0ca63ecd54a658a680f29af348622851",
    ),
    "flat_min": (
        lambda: job_from_dict({"dataset": "synthetic"}),
        "01728c8e0e9eb8cbff8934a984caa0e63adf35fb31fd844457942d434420f08c",
        "790b2ba4d707f60264bcf34298949e9f698ff16bbb4513694aa7e548f4aae397",
    ),
    "flat_gamma_int": (
        lambda: job_from_dict({"dataset": "synthetic", "gamma": 1}),
        "cc7b4e29f7ff24994f327cedd245704315ade2d771176b238c4325695e49a825",
        "ab0f17de7f424757d8383b30c91fcc64ec90a292bab76988b10e3faef9cb6c4d",
    ),
    "flat_full": (
        lambda: job_from_dict({
            "schema": 1, "name": "flat", "dataset": "crime", "dataset_seed": 1,
            "kind": "spread", "n_iterations": 2,
            "config": {"beam_width": 8, "max_depth": 2, "attributes": ["a1"]},
            "weights": [1, 2], "priority": 3, "deadline": 10,
        }),
        "78eb6ce84baec5e973cf7dfdf3aaf85d848ac10a55123e61c1298f7028905274",
        "d4054df111398bbb5471f5ce8f5d079a3122cc8f7e370e0f6a4017ed90444338",
    ),
    "flat_quality": (
        lambda: job_from_dict({
            "dataset": "synthetic", "strategy": "quality_beam",
            "measure": "mean_shift", "targets": ["t1"],
            "dataset_kwargs": {"n_background": 200}, "seed": 4, "eta": 2,
        }),
        "42eaa537986f33367c142a6625de7d7ede8f1bcf343ef599fd1f3ac284675dfc",
        "b8213f111be34fdc0a4a7838d147a09627ed0b64310e58d67e337a7cb4893589",
    ),
}


class TestFingerprintCorpus:
    @pytest.mark.parametrize("key", sorted(FINGERPRINT_CORPUS))
    def test_fingerprint_is_pinned(self, key):
        make, expected, _ = FINGERPRINT_CORPUS[key]
        assert make().fingerprint() == expected

    @pytest.mark.parametrize("key", sorted(FINGERPRINT_CORPUS))
    def test_flat_document_is_pinned(self, key):
        """The flat form matches the recorded one; ``name`` is the spec's own."""
        make, _, expected = FINGERPRINT_CORPUS[key]
        spec = make()
        document = job_to_dict(spec)
        assert document["name"] == spec.name
        assert digest({k: v for k, v in document.items() if k != "name"}) == expected
        # The flat form has no workers/backend/start_method: it round-trips
        # the work and the schedule, not the in-search executor.
        assert job_to_dict(job_from_dict(document)) == document


#: A flat job document exactly as ``job_to_dict`` wrote it at eba79be.
LEGACY_FLAT_JOB = {
    "schema": 1, "name": "flat", "priority": 3, "deadline": 10.0,
    "dataset": "crime", "dataset_seed": 1, "dataset_kwargs": {},
    "targets": None, "prior": None, "kind": "spread", "sparsity": None,
    "n_iterations": 2, "seed": 0,
    "config": {
        "beam_width": 8, "max_depth": 2, "top_k": 150, "n_split_points": 4,
        "split_strategy": "percentile", "min_coverage": 2,
        "max_coverage_fraction": 1.0, "time_budget_seconds": None,
        "attributes": ["a1"],
    },
    "gamma": 0.1, "eta": 1.0, "strategy": "beam", "measure": "si",
    "weights": [1.0, 2.0],
}

#: A durable-store record written by a serial ``MiningService`` at
#: eba79be: an unnamed job (stored under its derived label) and its
#: bit-exact result.
LEGACY_STORE_RECORD = {
    "schema": 1, "job_id": "job-0001",
    "fingerprint": "ccb5624f585b0b2726847ee2b18298e47dd65fc2c3cdb5fc2bbdda87cf48caa9",
    "state": "done", "seq": 0, "tenant": None, "tenant_share": 1.0,
    "submitted_at": 1792215881.4731953, "updated_at": 1792215881.481001,
    "job": {
        "schema": 1, "name": "synthetic/location#ccb5624f", "priority": 2,
        "deadline": None, "dataset": "synthetic", "dataset_seed": 0,
        "dataset_kwargs": {"n_background": 40, "cluster_size": 12},
        "targets": None, "prior": None, "kind": "location", "sparsity": None,
        "n_iterations": 2, "seed": 0,
        "config": {
            "beam_width": 4, "max_depth": 1, "top_k": 5, "n_split_points": 4,
            "split_strategy": "percentile", "min_coverage": 2,
            "max_coverage_fraction": 1.0, "time_budget_seconds": None,
            "attributes": None,
        },
        "gamma": 0.1, "eta": 1.0, "strategy": "beam", "measure": "si",
    },
    "result": {
        "schema": 1,
        "job": None,  # filled below: the same document as "job"
        "elapsed_seconds": 0.005926242999976239,
        "iterations": [
            {"index": 1, "location": {
                "type": "location_pattern",
                "description": {"conditions": [{
                    "type": "equals", "attribute": "attr5", "value": 1.0,
                    "value_kind": "number",
                }]},
                "indices": [20, 31, 34, 35, 46, 49, 54, 60, 67, 68, 69, 71],
                "mean": [-0.4189840013367337, -1.9174972828786707],
                "ic": 16.067460405417584, "dl": 1.1,
                "coverage": 0.15789473684210525,
            }},
            {"index": 2, "location": {
                "type": "location_pattern",
                "description": {"conditions": [{
                    "type": "equals", "attribute": "attr3", "value": 1.0,
                    "value_kind": "number",
                }]},
                "indices": [19, 23, 24, 26, 38, 40, 43, 44, 48, 61, 65, 74],
                "mean": [-1.1550750092523168, 1.6636322537991575],
                "ic": 14.96046442382239, "dl": 1.1,
                "coverage": 0.15789473684210525,
            }},
        ],
    },
    "error": None,
}
LEGACY_STORE_RECORD["result"]["job"] = LEGACY_STORE_RECORD["job"]

#: A sectioned spec document written at eba79be, when the executor
#: section still had its transport toggle.
LEGACY_SECTIONED_SPEC = {
    "schema": 1, "name": "legacy",
    "dataset": {"name": "synthetic", "seed": 0, "kwargs": {}, "targets": None},
    "language": {"n_split_points": 4, "split_strategy": "percentile", "attributes": None},
    "model": {"kind": "gaussian", "prior": None},
    "interest": {"measure": "si", "gamma": 0.1, "eta": 1.0},
    "search": {
        "strategy": "beam", "kind": "location", "n_iterations": 1,
        "sparsity": None, "seed": 0, "beam_width": 8, "max_depth": 4,
        "top_k": 150, "min_coverage": 2, "max_coverage_fraction": 1.0,
        "time_budget_seconds": None,
    },
    "executor": {
        "workers": 2, "backend": "process", "start_method": None,
        "shared_memory": True, "priority": 0, "deadline": None,
    },
}


class TestLegacyJobDocuments:
    def test_flat_job_document_reads_back(self):
        spec = job_from_dict(LEGACY_FLAT_JOB)
        assert spec.fingerprint() == FINGERPRINT_CORPUS["flat_full"][1]
        assert job_to_dict(spec) == LEGACY_FLAT_JOB

    def test_store_record_job_reads_back(self):
        spec = job_from_dict(LEGACY_STORE_RECORD["job"])
        assert spec.fingerprint() == LEGACY_STORE_RECORD["fingerprint"]
        # The stored label becomes the name; nothing else moves.
        assert job_to_dict(spec) == LEGACY_STORE_RECORD["job"]

    def test_store_written_earlier_recovers_bit_identically(self, tmp_path):
        from repro.engine.jobs import run_job
        from repro.engine.service import JobStatus, MiningService
        from repro.events import MiningObserver
        from repro.persist import job_result_to_dict
        from repro.store import JobStore

        class Kinds(MiningObserver):
            def __init__(self):
                self.kinds = []

            def on_schedule(self, event):
                self.kinds.append(event.kind)

        with JobStore(tmp_path) as store:
            store.put(LEGACY_STORE_RECORD)
        stored = LEGACY_STORE_RECORD["result"]["iterations"]
        log = Kinds()
        with MiningService(backend="serial", store=tmp_path, observer=log) as service:
            job_id = LEGACY_STORE_RECORD["job_id"]
            assert service.status(job_id) == JobStatus.DONE
            recovered = job_result_to_dict(service.result(job_id, 5))
            assert recovered["iterations"] == stored
            assert service.job(job_id).fingerprint() == LEGACY_STORE_RECORD["fingerprint"]
            again = service.submit(job_from_dict(LEGACY_STORE_RECORD["job"]))
            assert service.status(again) == JobStatus.DONE
        assert log.kinds == ["queued", "cache_hit"]
        # Mined afresh, the same spec still yields the stored result.
        fresh = run_job(job_from_dict(LEGACY_STORE_RECORD["job"]))
        assert job_result_to_dict(fresh)["iterations"] == stored

    def test_journal_store_written_earlier_recovers_bit_identically(
        self, tmp_path
    ):
        """Earlier versions kept records in ``records.db`` plus a journal,
        ``wal.jsonl``. A record only in the journal (a crash before the
        journal was folded into the table) is imported on open and served
        as stored, without mining."""
        import json
        import sqlite3

        from repro.engine.service import JobStatus, MiningService
        from repro.persist import job_result_to_dict

        conn = sqlite3.connect(str(tmp_path / "records.db"))
        try:
            conn.execute(
                "CREATE TABLE records (key TEXT PRIMARY KEY, doc TEXT NOT NULL)"
            )
            conn.commit()
        finally:
            conn.close()
        job_id = LEGACY_STORE_RECORD["job_id"]
        put = {"op": "put", "key": job_id, "doc": LEGACY_STORE_RECORD}
        (tmp_path / "wal.jsonl").write_text(json.dumps(put) + "\n")
        with MiningService(backend="serial", store=tmp_path) as service:
            assert service.status(job_id) == JobStatus.DONE
            recovered = job_result_to_dict(service.result(job_id, 5))
        stored = LEGACY_STORE_RECORD["result"]["iterations"]
        assert recovered["iterations"] == stored
        assert not (tmp_path / "records.db").exists()
        assert not (tmp_path / "wal.jsonl").exists()

    def test_queued_record_with_tenant_keys_reenqueues_and_runs(self, tmp_path):
        """Records written by earlier versions carry tenancy keys.

        Recovery ignores ``tenant`` and ``tenant_share``: the queued
        record re-enqueues, runs, and mines the stored result's bits.
        """
        from repro.engine.service import JobStatus, MiningService
        from repro.events import MiningObserver
        from repro.persist import job_result_to_dict
        from repro.store import JobStore

        class Kinds(MiningObserver):
            def __init__(self):
                self.kinds = []

            def on_schedule(self, event):
                self.kinds.append(event.kind)

        queued = dict(
            LEGACY_STORE_RECORD,
            state="queued",
            result=None,
            tenant="alice",
            tenant_share=2.0,
        )
        with JobStore(tmp_path) as store:
            store.put(queued)
        log = Kinds()
        with MiningService(
            max_workers=1, backend="thread", store=tmp_path, observer=log
        ) as service:
            job_id = queued["job_id"]
            result = service.result(job_id, 120)
            assert service.status(job_id) == JobStatus.DONE
        assert log.kinds == ["recovered", "dispatched"]
        stored = LEGACY_STORE_RECORD["result"]["iterations"]
        assert job_result_to_dict(result)["iterations"] == stored
        with JobStore(tmp_path) as store:
            (record,) = store.records()
        assert record["state"] == "done"
        assert "tenant" not in record and "tenant_share" not in record

    def test_sectioned_spec_with_transport_toggle_loads(self):
        spec = MiningSpec.from_dict(LEGACY_SECTIONED_SPEC)
        assert spec.executor.workers == 2
        assert spec.fingerprint() == (
            "335c7b33317e9e61d3eecbe2c35a5ec8dbd79a199e6de09bfd4bd17e7a9c69c4"
        )
