"""Mined documents, belief keys and belief-store spill files, pinned exactly.

One codec in :mod:`repro.persist` writes every mined iteration: result
documents, wire events, the belief-chain hash (through
``constraint_to_dict``) and the spill files of
:class:`~repro.store.BeliefStore`. The fixtures were written at commit
ab1571b, when the wire and the belief store each had a codec of their
own:

- ``fixtures/mined_documents.json``: for each spec in :data:`SPECS`,
  the ``json.dumps`` of its ``job_result_to_dict`` (``elapsed_seconds``
  pinned to 0.25) and of each iteration's ``iteration_to_wire``; the
  belief keys the two jobs stored, in order; and the
  ``BeliefCache.step_key`` of each step of a 3-step spread session.
- ``fixtures/belief_spill/``: the store those two jobs spilled to.

Synthetic has two targets, and since its spread search scans the circle
of directions instead of running the gradient ascent, the spread job's
fresh-mine documents, its second belief key and the session's last two
step keys were re-pinned (its spread ICs moved by at most 1.2e-14
relative; step 1's key does not depend on the search). The ab1571b
spread documents and keys stay, under ``legacy_spill``, as what the
committed spill must decode to: a mine against it replays every step,
since step 1's key is unchanged and the replayed step 1 leads to the
legacy step 2.

Documents are compared as strings and records field for field with
exact floats: one byte that moves fails here.
"""

import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.engine.cache import BeliefCache
from repro.engine.jobs import JobResult, run_job
from repro.persist import job_result_to_dict
from repro.server.wire import iteration_to_wire
from repro.spec import MiningSpec
from repro.store import BeliefStore

FIXTURES = Path(__file__).parent / "fixtures"
DOCUMENTS = json.loads((FIXTURES / "mined_documents.json").read_text())
#: What the committed spill decodes to: the ab1571b documents.
LEGACY = dict(DOCUMENTS, **DOCUMENTS["legacy_spill"])


def _spec(dataset: str, kind: str, n_iterations: int = 2) -> MiningSpec:
    return MiningSpec.build(
        dataset,
        kind=kind,
        n_iterations=n_iterations,
        beam_width=6,
        max_depth=2,
        top_k=10,
    )


SPECS = {"location": _spec("crime", "location"), "spread": _spec("synthetic", "spread")}


class _Recording(BeliefCache):
    """A belief cache that records the key of every step it stores."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.keys = []

    def put(self, key, entry):
        self.keys.append(key)
        super().put(key, entry)


def _spill_copy(tmp_path) -> Path:
    root = tmp_path / "spill"
    shutil.copytree(FIXTURES / "belief_spill", root)
    return root


def _result_json(spec: MiningSpec, iterations) -> str:
    document = job_result_to_dict(JobResult(spec, tuple(iterations), 0.25))
    return json.dumps(document, allow_nan=False)


def _assert_same(a, b) -> None:
    """Records equal field for field: arrays by dtype and value, floats exactly."""
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
        return
    assert type(a) is type(b)
    if dataclasses.is_dataclass(a):
        for field in dataclasses.fields(a):
            _assert_same(getattr(a, field.name), getattr(b, field.name))
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    else:
        assert a == b


@pytest.fixture(scope="module")
def mining():
    """Each spec mined fresh: its iterations, and the cache holding its steps."""
    cache = _Recording()
    iterations = {
        name: run_job(spec, belief_cache=cache).iterations
        for name, spec in SPECS.items()
    }
    return iterations, cache


@pytest.fixture(scope="module")
def mined(mining):
    return mining[0]


@pytest.fixture(scope="module")
def spilled(tmp_path_factory):
    """Each spec's iterations as decoded from the committed spill."""
    store = BeliefStore(_spill_copy(tmp_path_factory.mktemp("legacy")))
    steps = [store.get(key) for key in LEGACY["spill_keys"]]
    return {
        "location": tuple(step.iteration for step in steps[:2]),
        "spread": tuple(step.iteration for step in steps[2:]),
    }


@pytest.fixture(params=["mined", "spilled"])
def iterations(request):
    """The iterations, and the documents pinned for them."""
    pinned = DOCUMENTS if request.param == "mined" else LEGACY
    return request.getfixturevalue(request.param), pinned


class TestPinnedDocuments:
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_job_result_document(self, iterations, name):
        iterations, pinned = iterations
        assert _result_json(SPECS[name], iterations[name]) == pinned[name]["job_result"]

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_iteration_wire_documents(self, iterations, name):
        iterations, pinned = iterations
        documents = [
            json.dumps(iteration_to_wire(iteration), allow_nan=False)
            for iteration in iterations[name]
        ]
        assert documents == pinned[name]["iterations"]


class TestBeliefKeys:
    def test_mined_steps_store_under_the_pinned_keys(self, mining):
        _, cache = mining
        assert cache.keys == DOCUMENTS["spill_keys"]

    def test_spread_session_step_key_chain(self):
        cache = _Recording()
        run_job(_spec("synthetic", "spread", n_iterations=3), belief_cache=cache)
        assert cache.keys == DOCUMENTS["spread_session_step_keys"]


class TestLegacySpill:
    def test_entries_decode_to_a_fresh_mine(self, mining, tmp_path):
        """The location job's entries are the fresh mine's, field for
        field. The spread job's were mined by the gradient ascent: their
        iterations decode to the legacy documents (above), and their
        location constraints and RNG states are the fresh mine's, since
        the location search and the drawn starts did not change."""
        _, cache = mining
        store = BeliefStore(_spill_copy(tmp_path))
        assert store.keys() == sorted(LEGACY["spill_keys"])
        for key in LEGACY["spill_keys"][:2]:
            _assert_same(store.get(key), cache.get(key))
        for legacy, fresh in zip(LEGACY["spill_keys"][2:], DOCUMENTS["spill_keys"][2:]):
            entry, mined = store.get(legacy), cache.get(fresh)
            _assert_same(entry.constraints[0], mined.constraints[0])
            _assert_same(entry.rng_state, mined.rng_state)
        assert store.stats.errors == 0

    def test_mining_against_it_replays_every_step(self, tmp_path):
        store = BeliefStore(_spill_copy(tmp_path))
        cache = BeliefCache(spill=store)
        for name, spec in SPECS.items():
            replayed = run_job(spec, belief_cache=cache)
            assert _result_json(spec, replayed.iterations) == LEGACY[name]["job_result"]
        assert (store.stats.hits, store.stats.misses, store.stats.stores) == (4, 0, 0)


class TestNewSpill:
    def test_a_session_replays_bit_identically_from_its_entries(self, tmp_path):
        spec = _spec("synthetic", "spread", n_iterations=3)
        first = run_job(spec, belief_cache=BeliefCache(spill=BeliefStore(tmp_path)))
        store = BeliefStore(tmp_path)
        again = run_job(spec, belief_cache=BeliefCache(spill=store))
        assert _result_json(spec, again.iterations) == _result_json(spec, first.iterations)
        assert (store.stats.hits, store.stats.misses, store.stats.stores) == (3, 0, 0)
