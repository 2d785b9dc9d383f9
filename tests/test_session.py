"""Tests for the interactive mining session."""

import numpy as np
import pytest

from repro.errors import SearchError
from repro.session import MiningSession


class TestStepAndHistory:
    def test_steps_accumulate(self, synthetic_dataset):
        session = MiningSession(synthetic_dataset, seed=0)
        first = session.step()
        second = session.step()
        assert session.n_iterations == 2
        assert session.history[0] is first
        assert first.location.description != second.location.description

    def test_report_lists_patterns(self, synthetic_dataset):
        session = MiningSession(synthetic_dataset, seed=0)
        session.step(kind="spread")
        text = session.report()
        assert "iterations: 1" in text
        assert "location:" in text
        assert "spread:" in text


class TestUndo:
    def test_undo_restores_belief_state(self, synthetic_dataset):
        session = MiningSession(synthetic_dataset, seed=0)
        first = session.step()
        means_after_first = session.miner.model.point_means().copy()
        session.step()
        undone = session.undo()
        assert undone.index == 2
        np.testing.assert_allclose(
            session.miner.model.point_means(), means_after_first
        )
        assert session.n_iterations == 1

    def test_undo_to_initial_state(self, synthetic_dataset):
        session = MiningSession(synthetic_dataset, seed=0)
        session.step()
        session.undo()
        assert session.n_iterations == 0
        assert session.miner.model.n_blocks == 1

    def test_undo_then_remine_finds_same_pattern(self, synthetic_dataset):
        session = MiningSession(synthetic_dataset, seed=0)
        first = session.step()
        session.undo()
        again = session.step()
        assert str(again.location.description) == str(first.location.description)

    def test_undo_empty_raises(self, synthetic_dataset):
        session = MiningSession(synthetic_dataset, seed=0)
        with pytest.raises(SearchError, match="undo"):
            session.undo()


class TestPersistence:
    def test_save_and_resume_belief_state(self, synthetic_dataset, tmp_path):
        session = MiningSession(synthetic_dataset, seed=0)
        session.step()
        session.step()
        path = session.save(tmp_path / "session.json")

        resumed = MiningSession.resume(synthetic_dataset, path, seed=0)
        np.testing.assert_allclose(
            resumed.miner.model.point_means(), session.miner.model.point_means()
        )
        assert len(resumed.miner.model.constraints) == 2

    def test_resumed_session_mines_the_next_pattern(
        self, synthetic_dataset, tmp_path
    ):
        """Resume must continue where the saved session left off."""
        session = MiningSession(synthetic_dataset, seed=0)
        session.step()
        path = session.save(tmp_path / "session.json")
        expected_next = session.step()

        resumed = MiningSession.resume(synthetic_dataset, path, seed=0)
        actual_next = resumed.step()
        assert str(actual_next.location.description) == str(
            expected_next.location.description
        )

    def test_resume_wrong_dataset_rejected(
        self, synthetic_dataset, water_dataset, tmp_path
    ):
        session = MiningSession(synthetic_dataset, seed=0)
        path = session.save(tmp_path / "session.json")
        with pytest.raises(SearchError, match="dataset"):
            MiningSession.resume(water_dataset, path)

    def test_save_resume_step_equals_uninterrupted_run(
        self, synthetic_dataset, tmp_path
    ):
        """The RNG round-trip: continuation is bit-identical.

        Spread steps consume the random-restart stream, so without the
        persisted RNG state a resumed session would draw different
        starting points than the uninterrupted run.
        """
        session = MiningSession(synthetic_dataset, seed=0)
        session.step(kind="spread")
        path = session.save(tmp_path / "session.json")
        expected = session.step(kind="spread")

        resumed = MiningSession.resume(synthetic_dataset, path, seed=0)
        actual = resumed.step(kind="spread")
        assert str(actual.location.description) == str(expected.location.description)
        np.testing.assert_array_equal(
            actual.spread.direction, expected.spread.direction
        )
        assert actual.spread.score.ic == expected.spread.score.ic
        # ...and the RNG streams stay aligned on the step after that.
        np.testing.assert_array_equal(
            resumed.step(kind="spread").spread.direction,
            session.step(kind="spread").spread.direction,
        )

    def test_rng_state_round_trips_through_json(
        self, synthetic_dataset, tmp_path
    ):
        session = MiningSession(synthetic_dataset, seed=42)
        session.step(kind="spread")
        path = session.save(tmp_path / "session.json")
        resumed = MiningSession.resume(synthetic_dataset, path, seed=42)
        assert (
            resumed.miner._rng.bit_generator.state
            == session.miner._rng.bit_generator.state
        )

    def test_save_resume_with_non_default_bit_generator(
        self, synthetic_dataset, tmp_path
    ):
        """MT19937 keeps its key as an ndarray; save must still be JSON."""
        session = MiningSession(
            synthetic_dataset, seed=np.random.Generator(np.random.MT19937(0))
        )
        session.step(kind="spread")
        path = session.save(tmp_path / "session.json")
        # The saved state names its bit generator, so resume restores it
        # even with the default (PCG64) seed argument.
        resumed = MiningSession.resume(synthetic_dataset, path, seed=0)
        assert type(resumed.miner._rng.bit_generator).__name__ == "MT19937"
        expected = session.step(kind="spread")
        actual = resumed.step(kind="spread")
        np.testing.assert_array_equal(
            actual.spread.direction, expected.spread.direction
        )

    def test_resume_rejects_corrupt_rng_state(self, synthetic_dataset, tmp_path):
        import json

        session = MiningSession(synthetic_dataset, seed=0)
        path = session.save(tmp_path / "session.json")
        document = json.loads(path.read_text())
        document["rng_state"] = {"bit_generator": "NotAGenerator"}
        path.write_text(json.dumps(document))
        with pytest.raises(SearchError, match="bit generator"):
            MiningSession.resume(synthetic_dataset, path)
        # A name that exists in np.random but is not a BitGenerator (and
        # would have nasty side effects if called) is rejected the same way.
        document["rng_state"] = {"bit_generator": "seed"}
        path.write_text(json.dumps(document))
        with pytest.raises(SearchError, match="bit generator"):
            MiningSession.resume(synthetic_dataset, path)

    def test_resume_restores_step_defaults(self, synthetic_dataset, tmp_path):
        """A spec-built spread session keeps mining spread after resume."""
        session = MiningSession(synthetic_dataset, seed=0, kind="spread")
        session.step()
        path = session.save(tmp_path / "session.json")
        expected = session.step()

        resumed = MiningSession.resume(synthetic_dataset, path, seed=0)
        assert resumed.default_kind == "spread"
        actual = resumed.step()  # bare step must continue as spread
        assert actual.spread is not None
        np.testing.assert_array_equal(
            actual.spread.direction, expected.spread.direction
        )
        # An explicit argument overrides the saved default.
        override = MiningSession.resume(
            synthetic_dataset, path, seed=0, kind="location"
        )
        assert override.default_kind == "location"

    def test_resume_tolerates_documents_without_rng_state(
        self, synthetic_dataset, tmp_path
    ):
        """Old save files (pre RNG persistence) still load."""
        import json

        session = MiningSession(synthetic_dataset, seed=0)
        session.step()
        path = session.save(tmp_path / "session.json")
        document = json.loads(path.read_text())
        del document["rng_state"]
        path.write_text(json.dumps(document))
        resumed = MiningSession.resume(synthetic_dataset, path, seed=0)
        assert resumed.n_iterations == 0
        resumed.step()  # still mines


class TestSessionClose:
    def test_close_releases_a_parallel_executor(self, synthetic_dataset):
        from repro.engine.executor import ProcessExecutor
        from repro.search.config import SearchConfig

        config = SearchConfig(beam_width=4, max_depth=1, top_k=5)
        executor = ProcessExecutor(2)
        with MiningSession(
            synthetic_dataset, config=config, executor=executor
        ) as session:
            session.step()
            assert executor._persistent is not None
            history = session.history
        assert executor._persistent is None  # close() shut the warm pool
        assert len(history) == 1
        assert session.history  # history stays readable after close

    def test_close_is_a_no_op_for_serial_sessions(self, synthetic_dataset):
        session = MiningSession(synthetic_dataset, seed=0)
        session.step()
        session.close()
        session.close()
