"""End-to-end over HTTP: submit → live SSE events → result → cancel.

Everything here exercises a *real* ``MiningServer`` over real sockets
against a real ``MiningService`` — no mocks — including the PR's
acceptance bar: ``RemoteWorkspace.mine()`` bit-identical to the local
``Workspace.mine()`` for the same spec.
"""

import asyncio
import contextlib
import threading
import time
from concurrent.futures import CancelledError

import numpy as np
import pytest

from repro.api import Workspace
from repro.client import RemoteError, RemoteJobFailed, RemoteWorkspace, _SSEStream
from repro.engine.jobs import JobResult
from repro.engine.service import JobStatus, MiningService
from repro.errors import DataError, ModelError, SearchError
from repro.events import CallbackObserver, EventLog, MiningObserver
from repro.persist import job_to_dict
from repro.server import MiningServer, http, wire
from repro.spec import MiningSpec


def fast_spec(**overrides):
    """A quick synthetic spec (sub-second), varied via overrides."""
    kwargs = dict(n_iterations=2, beam_width=6, max_depth=2, top_k=10)
    kwargs.update(overrides)
    return MiningSpec.build("synthetic", **kwargs)


def _fast_document(section, **values):
    """``fast_spec()``'s sectioned document with one section's values set."""
    document = fast_spec().to_dict()
    document[section].update(values)
    return document


@pytest.fixture()
def spec():
    return fast_spec()


def _assert_results_identical(local, remote):
    """Bit-identical across the wire: descriptions, rows, scores."""
    assert len(local.iterations) == len(remote.iterations)
    for a, b in zip(local.iterations, remote.iterations):
        assert a.index == b.index
        assert str(a.location.description) == str(b.location.description)
        np.testing.assert_array_equal(a.location.indices, b.location.indices)
        np.testing.assert_array_equal(a.location.mean, b.location.mean)
        assert a.location.score.ic == b.location.score.ic  # exact floats
        assert a.location.score.dl == b.location.score.dl
        assert a.location.coverage == b.location.coverage
        assert (a.spread is None) == (b.spread is None)
        if a.spread is not None:
            np.testing.assert_array_equal(a.spread.indices, b.spread.indices)
            np.testing.assert_array_equal(a.spread.direction, b.spread.direction)
            assert a.spread.variance == b.spread.variance
            assert a.spread.score.ic == b.spread.score.ic
            assert a.spread.score.dl == b.spread.score.dl


class TestHealth:
    def test_health_document(self, remote):
        health = remote.health()
        assert health["status"] == "ok"
        assert health["service"]["backend"] == "thread"
        assert health["service"]["max_workers"] == 2
        assert {"published", "subscribers", "dropped"} <= set(health["events"])
        assert "hits" in health["result_cache"]
        assert health["store"] is None  # storeless server: nothing to report


class TestSubmitResultLifecycle:
    def test_remote_mine_is_bit_identical_to_local(self, remote, spec):
        local = Workspace().mine(spec)
        _assert_results_identical(local, remote.mine(spec))

    def test_remote_spread_mining_is_bit_identical(self, remote):
        spec = fast_spec(kind="spread", n_iterations=1)
        local = Workspace().mine(spec)
        _assert_results_identical(local, remote.mine(spec))

    def test_submit_status_result(self, remote):
        spec = fast_spec(seed=21)
        job_id = remote.submit(spec)
        assert job_id.startswith("job-")
        result = remote.result(job_id, timeout=60)
        assert remote.status(job_id) == JobStatus.DONE
        assert len(result.iterations) == spec.search.n_iterations
        assert remote.jobs()[job_id] == JobStatus.DONE

    def test_submit_accepts_job_and_dict_forms(self, remote):
        spec = fast_spec(seed=22)
        from_spec = remote.mine(spec)
        from_dict = remote.mine(spec.to_dict())
        # A flat {"job": ...} body is the same work as the spec.
        _, document = remote._request("POST", "/jobs", {"job": job_to_dict(spec)})
        assert document["fingerprint"] == spec.fingerprint()
        from_job = remote.result(document["job_id"], timeout=60)
        _assert_results_identical(from_spec, from_dict)
        _assert_results_identical(from_spec, from_job)

    def test_failed_job_raises_remotely(self, remote):
        spec = fast_spec(seed=23, targets=["no-such-target"])
        job_id = remote.submit(spec)
        with pytest.raises(RemoteJobFailed) as excinfo:
            remote.result(job_id, timeout=60)
        assert "no-such-target" in str(excinfo.value)
        assert remote.status(job_id) == JobStatus.FAILED

    def test_integral_float_field_runs_and_shares_the_int_result(self, remote):
        document = fast_spec(seed=25).to_dict()
        document["search"]["max_depth"] = 2.0
        _, submitted = remote._request("POST", "/jobs", {"spec": document})
        remote.result(submitted["job_id"], timeout=60)
        assert remote.status(submitted["job_id"]) == JobStatus.DONE
        hits = remote.health()["result_cache"]["hits"]
        document["search"]["max_depth"] = 2
        _, again = remote._request("POST", "/jobs", {"spec": document})
        assert again["fingerprint"] == submitted["fingerprint"]
        assert again["status"] == "done"
        assert remote.health()["result_cache"]["hits"] == hits + 1

    def test_result_long_poll_wait(self, remote):
        spec = fast_spec(seed=24)
        job_id = remote.submit(spec)
        status, document = remote._request(
            "GET", f"/jobs/{job_id}/result?wait=30"
        )
        assert status == 200
        assert document["status"] == "done"


class TestErrors:
    def test_unknown_job_id_is_404(self, remote):
        with pytest.raises(RemoteError) as excinfo:
            remote.status("job-9999")
        assert excinfo.value.status == 404

    @pytest.mark.parametrize(
        "document, error, message",
        [
            ({"dataset": "nope"}, DataError, "unknown dataset 'nope'"),
            (
                _fast_document("search", sparsity=3),
                SearchError,
                "only sparsity=2 is supported, got 3",
            ),
            (
                _fast_document("model", kind="x"),
                ModelError,
                "unknown background model 'x'; available: gaussian",
            ),
        ],
        ids=["dataset", "sparsity", "model"],
    )
    def test_invalid_spec_is_400(self, remote, document, error, message):
        before = set(remote.jobs())
        with pytest.raises(RemoteError) as excinfo:
            remote._request("POST", "/jobs", {"spec": document})
        assert excinfo.value.status == 400
        assert excinfo.value.remote_type == error.__name__
        assert message in str(excinfo.value)
        # The client checks the spec before sending, raising the same class.
        with pytest.raises(error, match=message):
            remote.submit(document)
        assert set(remote.jobs()) == before

    def test_fractional_integer_field_is_400_naming_it(self, remote):
        document = fast_spec().to_dict()
        document["search"]["max_depth"] = 2.5
        with pytest.raises(RemoteError) as excinfo:
            remote._request("POST", "/jobs", {"spec": document})
        assert excinfo.value.status == 400
        assert "search max_depth must be an integer, got 2.5" in str(excinfo.value)

    def test_unknown_route_is_404(self, remote):
        with pytest.raises(RemoteError) as excinfo:
            remote._request("GET", "/nope")
        assert excinfo.value.status == 404
        assert "/events" in str(excinfo.value)  # the 404 names the surface

    def test_client_validates_before_sending(self, remote):
        with pytest.raises(Exception):
            remote.submit({"dataset": "no-such-dataset"})


class TestStreaming:
    def test_stream_yields_every_iteration_in_order(self, remote):
        spec = fast_spec(seed=31, n_iterations=3)
        log = EventLog()
        iterations = list(remote.stream(spec, observer=log))
        assert [it.index for it in iterations] == [1, 2, 3]
        local = Workspace().mine(spec)
        for a, b in zip(local.iterations, iterations):
            assert str(a.location.description) == str(b.location.description)
            assert a.location.score.ic == b.location.score.ic
        # The observer heard this job's scheduling story too.
        kinds = [e.kind for e in log.schedule]
        assert "queued" in kinds
        assert log.jobs  # terminal on_job arrived

    def test_stream_of_cached_spec_still_yields_once_each(self, remote):
        spec = fast_spec(seed=31, n_iterations=3)  # cached by the test above
        iterations = list(remote.stream(spec))
        assert [it.index for it in iterations] == [1, 2, 3]

    def test_events_feed_decodes_live(self, remote):
        spec = fast_spec(seed=32)
        seen = []
        done = threading.Event()

        def consume():
            for event in remote.events():
                seen.append(event)
                if event.type in ("job", "job_failed"):
                    done.set()
                    return

        thread = threading.Thread(target=consume, daemon=True)
        thread.start()
        time.sleep(0.2)  # subscriber online before the job
        remote.mine(spec)
        assert done.wait(60), "no terminal event on the feed"
        types = {event.type for event in seen}
        assert "schedule" in types
        assert "iteration" in types
        seqs = [event.seq for event in seen]
        assert seqs == sorted(seqs)

    def test_raising_observer_neither_ends_the_stream_nor_starves_hooks(
        self, remote
    ):
        spec = fast_spec(seed=34)
        heard = []

        def record_then_raise(hook):
            def call(*args):
                heard.append(hook)
                raise RuntimeError(f"observer bug in {hook}")

            return call

        hooks = ("on_candidates", "on_iteration", "on_job", "on_schedule")
        angry = CallbackObserver(**{hook: record_then_raise(hook) for hook in hooks})
        iterations = list(remote.stream(spec, observer=angry))
        assert [it.index for it in iterations] == [1, 2]
        assert {"on_candidates", "on_schedule"} <= set(heard)
        assert heard.count("on_iteration") == 2
        assert heard[-1] == "on_job" and heard.count("on_job") == 1

    def test_candidate_events_flow_on_the_thread_backend(self, remote):
        # Every candidate a local run scores reaches the remote observer
        # exactly once, in order, with the same columns after a JSON hop.
        spec = fast_spec(seed=33, kind="spread")
        remote_log, local_log = EventLog(), EventLog()
        list(remote.stream(spec, observer=remote_log))
        list(Workspace().stream(spec, observer=local_log))
        assert local_log.candidates, "the local run fired no candidates"
        assert _columns(remote_log.candidates) == _columns(local_log.candidates)
        # One call per candidates event: a step's level batches arrive
        # as one event here, so the remote hears fewer, larger batches.
        assert len(remote_log.candidates) == spec.search.n_iterations


def _columns(batches):
    """Every batch's descriptions and column bytes, concatenated in order."""
    return {
        "descriptions": [text for batch in batches for text in batch.descriptions()],
        **{
            name: [np.concatenate([getattr(b, name) for b in batches]).tobytes()]
            for name in ("sizes", "ic", "dl", "si")
        },
        "dtypes": sorted({(b.sizes.dtype.str, b.si.dtype.str) for b in batches}),
    }


def _job_events(remote, job_id):
    """Every event of one finished job, from the retained history."""
    events = []
    feed = remote.events(since=0, reconnect=False, job_id=job_id)
    try:
        for event in feed:  # stop at the terminal: the feed stays live
            events.append(event)
            if event.type in ("job", "job_failed"):
                return events
    finally:
        feed.close()
    raise AssertionError(f"no terminal event for {job_id}")


class TestCandidateBatches:
    def test_a_steps_candidates_precede_its_iteration(self, remote):
        spec = fast_spec(seed=36, n_iterations=3)
        job_id = remote.submit(spec)
        remote.result(job_id, timeout=60)
        events = _job_events(remote, job_id)
        mined = [event.type for event in events if event.type != "schedule"]
        assert mined == ["candidates", "iteration"] * 3 + ["job"]
        assert all(
            0 < len(event.data) <= 1024
            for event in events
            if event.type == "candidates"
        )

    def test_a_failing_step_publishes_its_candidates_before_job_failed(
        self, monkeypatch
    ):
        from repro.search.miner import SubgroupDiscovery

        def fail(self, *args, **kwargs):
            raise SearchError("spread search failed")

        # The location beam of step 1 scores its candidates, then the
        # step raises before any iteration event.
        monkeypatch.setattr(SubgroupDiscovery, "find_spread_for", fail)
        spec = fast_spec(seed=37, kind="spread")
        local = EventLog()
        with pytest.raises(SearchError):
            list(Workspace().stream(spec, observer=local))
        assert local.candidates
        server = MiningServer(port=0, backend="thread", max_workers=1)
        with server.run_in_thread() as handle:
            remote = RemoteWorkspace(handle.url, timeout=30.0)
            heard = EventLog()
            with pytest.raises(RemoteJobFailed):
                list(remote.stream(spec, observer=heard))
            job_id = remote.jobs().popitem()[0]
            events = _job_events(remote, job_id)
        mined = [event.type for event in events if event.type != "schedule"]
        assert mined == ["candidates", "job_failed"]
        assert _columns(heard.candidates) == _columns(local.candidates)
        assert len(heard.failures) == 1

    def test_a_full_batch_publishes_at_once_and_none_exceeds_the_cap(self):
        from repro.events import CandidateBatch
        from repro.server.app import _JobStreamObserver
        from repro.server.hub import EventHub

        def level(start, stop):
            rows = np.arange(start, stop)
            return CandidateBatch(
                sizes=1 + rows % 5,
                ic=rows.astype(float),
                dl=np.ones(len(rows)),
                si=rows.astype(float),
                render=lambda: [f"x1 <= {i / 7:.6g}" for i in rows],
            )

        # Levels that end before, across and exactly on a batch boundary.
        bounds = [0, 700, 1400, 2048, 2500]
        levels = [level(a, b) for a, b in zip(bounds, bounds[1:])]
        hub = EventHub(history=10_000)
        try:
            observer = _JobStreamObserver(hub)
            observer.bind("job-0001")
            for batch, count in zip(levels, bounds[1:]):
                observer.on_candidates(batch)
                # Only a full batch publishes while candidates keep coming.
                assert hub.latest_seq == count // 1024
            observer.on_job_failed(fast_spec(), RuntimeError("boom"))

            async def retained():
                subscription = hub.subscribe(since=0)
                entries = []
                while True:
                    try:
                        entries.append(subscription.get_nowait())
                    except asyncio.QueueEmpty:
                        return entries

            events = [event for _, event in asyncio.run(retained())]
        finally:
            hub.close()
        assert [event["type"] for event in events] == [
            "candidates", "candidates", "candidates", "job_failed"
        ]
        assert [len(event["candidates"]) for event in events[:3]] == [
            1024, 1024, 452
        ]
        assert [
            summary for event in events[:3] for summary in event["candidates"]
        ] == [summary for batch in levels for summary in wire.candidates_to_wire(batch)]


class TestCandidateEventsSwitch:
    @pytest.mark.parametrize("candidate_events", [True, False])
    def test_a_served_step_builds_one_subgroup_and_mines_the_same(
        self, monkeypatch, candidate_events
    ):
        from repro.search.results import ScoredSubgroup

        built = []
        init = ScoredSubgroup.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ScoredSubgroup, "__init__", counted)
        # Paper search settings, so that top_k covers every level.
        spec = fast_spec(seed=61, kind="spread", beam_width=40, max_depth=4, top_k=150)
        service = MiningService(max_workers=1, backend="thread", belief_cache=None)
        server = MiningServer(
            port=0, service=service, candidate_events=candidate_events
        )
        heard = EventLog()
        try:
            with server.run_in_thread() as handle:
                remote = RemoteWorkspace(handle.url, timeout=30.0)
                streamed = list(remote.stream(spec, observer=heard))
                job_id = remote.jobs().popitem()[0]
                events = _job_events(remote, job_id)
        finally:
            service.shutdown()
        # The winner of each mined step, and nothing per candidate.
        assert len(built) == spec.search.n_iterations
        published = {event.type for event in events}
        assert ("candidates" in published) == candidate_events
        assert bool(heard.candidates) == candidate_events
        local_log = EventLog()
        local = Workspace().mine(spec, observer=local_log)
        _assert_results_identical(local, JobResult(spec, tuple(streamed), 0.0))
        if candidate_events:
            assert _columns(heard.candidates) == _columns(local_log.candidates)


class TestSSEResume:
    def test_reconnect_with_last_event_id_has_no_gap_or_duplicates(
        self, remote, server_handle
    ):
        # Populate the stream, then consume it across a deliberately
        # dropped connection.
        remote.mine(fast_spec(seed=41))
        published = int(remote.health()["events"]["published"])
        assert published > 0

        first_leg = []
        stream = _SSEStream(remote.host, remote.port, since=0, timeout=10.0)
        for seq, _ in stream.frames():
            first_leg.append(seq)
            if len(first_leg) >= 5:
                break
        stream.close()  # the "dropped" connection

        second_leg = []
        stream = _SSEStream(
            remote.host, remote.port, since=first_leg[-1], timeout=10.0
        )
        for seq, _ in stream.frames():
            second_leg.append(seq)
            if seq >= published:
                break
        stream.close()

        seqs = first_leg + second_leg
        assert seqs == sorted(set(seqs)), "duplicate delivery after resume"
        # No gap at the reconnect seam: the sequence is contiguous from
        # the first event of leg one through the last of leg two.
        assert seqs == list(range(seqs[0], seqs[-1] + 1))


class _Hold(MiningObserver):
    """Holds its job's mining thread at the first beam level until released."""

    def __init__(self) -> None:
        self.release = threading.Event()

    def on_candidates(self, batch) -> None:
        self.release.wait(30)


@contextlib.contextmanager
def _one_held_slot():
    """A one-slot server whose slot a blocker job holds until released.

    Jobs submitted after the blocker stay queued until ``release`` is set,
    however fast mining is. Yields ``(url, blocker job id, release)``.
    """
    service = MiningService(max_workers=1, backend="thread", belief_cache=None)
    hold = _Hold()
    try:
        with MiningServer(port=0, service=service).run_in_thread() as handle:
            try:
                blocker = service.submit(fast_spec(seed=51), observer=hold)
                yield handle.url, blocker, hold.release
            finally:
                hold.release.set()
    finally:
        service.shutdown()


class TestCancel:
    def test_cancel_while_queued_is_deterministic(self):
        with _one_held_slot() as (url, blocker, release):
            remote = RemoteWorkspace(url, timeout=30.0)
            victim = remote.submit(fast_spec(seed=52))
            assert remote.cancel(victim) is True
            assert remote.status(victim) == JobStatus.CANCELLED
            with pytest.raises(CancelledError):
                remote.result(victim, timeout=10)
            # Cancelling the terminal blocker later reports False.
            release.set()
            remote.result(blocker, timeout=120)
            assert remote.cancel(blocker) is False

    def test_cancelled_job_surfaces_on_the_stream(self):
        with _one_held_slot() as (url, blocker, release):
            remote = RemoteWorkspace(url, timeout=30.0)
            victim_spec = fast_spec(seed=54)

            caught = {}

            def run_stream():
                try:
                    list(remote.stream(victim_spec))
                except BaseException as exc:  # noqa: BLE001
                    caught["exc"] = exc

            thread = threading.Thread(target=run_stream, daemon=True)
            thread.start()
            # Wait for the victim to appear, then cancel it mid-stream.
            victim = None
            deadline = time.monotonic() + 30
            while victim is None and time.monotonic() < deadline:
                pending = [
                    job_id
                    for job_id, status in remote.jobs().items()
                    if status == JobStatus.PENDING
                ]
                victim = pending[0] if pending else None
                time.sleep(0.01)
            assert victim is not None, "victim never queued"
            assert remote.cancel(victim) is True
            thread.join(30)
            assert not thread.is_alive()
            assert isinstance(caught.get("exc"), CancelledError)


class TestServerLifecycle:
    def test_stop_ends_open_event_streams(self):
        server = MiningServer(port=0, backend="thread", max_workers=1)
        handle = server.run_in_thread()
        remote = RemoteWorkspace(handle.url, timeout=10.0)
        remote.mine(fast_spec(seed=61))
        feed = remote.events(since=0, reconnect=False)
        first = next(feed)  # stream is live (replaying retained history)
        assert first.seq >= 1
        handle.stop()
        # The feed ends (server closed the stream) instead of hanging.
        remaining = list(feed)
        assert all(event.seq > first.seq for event in remaining)

    def test_run_in_thread_reports_bind_failures(self):
        server = MiningServer(port=0, backend="thread", max_workers=1)
        with server.run_in_thread() as handle:
            clash = MiningServer(port=server.port, backend="thread")
            with pytest.raises(Exception):
                clash.run_in_thread()
            handle.stop()


class TestReviewHardening:
    def test_events_heartbeats_surface_on_a_quiet_stream(self):
        server = MiningServer(
            port=0, backend="thread", max_workers=1, heartbeat_seconds=0.1
        )
        with server.run_in_thread() as handle:
            remote = RemoteWorkspace(handle.url, timeout=10.0)
            feed = remote.events(heartbeats=True)
            first = next(feed)  # nothing published: only heartbeats flow
            assert first.type == "heartbeat"
            assert first.data is None
            feed.close()

    def test_events_against_a_dead_server_raises_remote_error(self):
        import socket as socket_module

        # Reserve a port, then close it so nothing is listening there.
        probe = socket_module.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        remote = RemoteWorkspace(f"http://127.0.0.1:{port}", timeout=2.0)
        with pytest.raises(RemoteError):
            next(remote.events())

    def test_stream_heals_a_lost_terminal_event_via_heartbeat(self):
        # The feed withholds the job's terminal event, as a drop would;
        # the heartbeat fallback must still complete the stream from the
        # result document, instead of hanging forever.
        server = MiningServer(
            port=0, backend="thread", max_workers=1, heartbeat_seconds=0.2
        )
        with server.run_in_thread() as handle:
            remote = RemoteWorkspace(handle.url, timeout=15.0)
            feed = remote.events

            def without_terminal(**kwargs):
                events = feed(**kwargs)
                try:
                    for event in events:
                        if event.type != "job":
                            yield event
                finally:
                    events.close()

            remote.events = without_terminal
            spec = fast_spec(seed=71, n_iterations=2)
            log = EventLog()
            outcome = {}

            def consume():
                outcome["iterations"] = list(remote.stream(spec, observer=log))

            consumer = threading.Thread(target=consume, daemon=True)
            consumer.start()
            consumer.join(30)
            assert not consumer.is_alive(), "the stream never healed"
        iterations = outcome["iterations"]
        assert [it.index for it in iterations] == [1, 2]
        assert [it.index for it in log.iterations] == [1, 2]
        assert len(log.jobs) == 1
        local = Workspace().mine(spec)
        for a, b in zip(local.iterations, iterations):
            assert str(a.location) == str(b.location)
            assert a.location.score.ic == b.location.score.ic

    def test_oversized_request_line_gets_400_not_a_crashed_task(
        self, server_handle, remote
    ):
        import socket as socket_module

        with socket_module.create_connection(
            (remote.host, remote.port), timeout=10
        ) as raw:
            raw.sendall(b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n")
            reply = raw.recv(4096)
        assert reply.startswith(b"HTTP/1.1 400"), reply[:60]
        # ...and the server is still perfectly healthy afterwards.
        assert remote.health()["status"] == "ok"

    def test_oversized_header_line_gets_400(self, server_handle, remote):
        import socket as socket_module

        with socket_module.create_connection(
            (remote.host, remote.port), timeout=10
        ) as raw:
            raw.sendall(
                b"GET /health HTTP/1.1\r\nx-big: " + b"a" * 70_000 + b"\r\n\r\n"
            )
            reply = raw.recv(4096)
        assert reply.startswith(b"HTTP/1.1 400"), reply[:60]
        assert remote.health()["status"] == "ok"

    def test_cancel_during_result_long_poll_answers_cleanly(self):
        # A waiter parked on /result?wait= while its job is cancelled
        # must receive the cancelled document (-> CancelledError), not a
        # dead socket from an asyncio.CancelledError escaping the guard.
        # The worker slot is held deterministically: the server exposes
        # a shared service whose blocker job parks on an Event via its
        # per-job observer (fired live on the thread backend).
        from repro.engine.service import MiningService
        from repro.events import CallbackObserver

        gate = threading.Event()
        service = MiningService(max_workers=1, backend="thread")
        server = MiningServer(port=0, service=service)
        try:
            with server.run_in_thread() as handle:
                remote = RemoteWorkspace(handle.url, timeout=30.0)
                service.submit(
                    fast_spec(seed=81),
                    observer=CallbackObserver(on_iteration=lambda _: gate.wait(30)),
                )
                victim = remote.submit(fast_spec(seed=82))
                outcome = {}

                def wait_for_victim():
                    try:
                        remote.result(victim, timeout=30)
                        outcome["value"] = "done"
                    except BaseException as exc:  # noqa: BLE001
                        outcome["value"] = exc

                waiter = threading.Thread(target=wait_for_victim, daemon=True)
                waiter.start()
                time.sleep(0.3)  # the waiter is parked in its long-poll leg
                assert remote.cancel(victim) is True
                waiter.join(30)
                assert not waiter.is_alive()
                assert isinstance(outcome["value"], CancelledError), outcome
                gate.set()
        finally:
            gate.set()
            service.shutdown(wait=True)

    def test_events_job_id_filter_is_applied_server_side(self):
        server = MiningServer(port=0, backend="thread", max_workers=2)
        with server.run_in_thread() as handle:
            remote = RemoteWorkspace(handle.url, timeout=15.0)
            first = remote.submit(fast_spec(seed=91))
            second = remote.submit(fast_spec(seed=92))
            remote.result(first, timeout=60)
            remote.result(second, timeout=60)
            only_second = []
            feed = remote.events(since=0, reconnect=False, job_id=second)
            for event in feed:  # stop at the terminal: the feed stays live
                only_second.append(event)
                if event.type == "job":
                    break
            feed.close()
            # Everything that crossed the wire belongs to the filtered job.
            assert only_second, "filtered feed delivered nothing"
            assert {event.job_id for event in only_second} == {second}
            assert only_second[-1].type == "job"


class _RecordingWriter:
    """Stands in for the stream writer, keeping each ``write`` apart."""

    def __init__(self):
        self.writes: list[bytes] = []

    def write(self, data):
        self.writes.append(bytes(data))

    async def drain(self):
        pass


def _wait_for(condition, timeout):
    """Poll ``condition`` for up to ``timeout`` seconds; its last value."""
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    return condition()


async def _until(condition, timeout=5.0):
    """Yield to the loop until ``condition`` holds; fail after ``timeout``."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.01)


class TestBurstWrites:
    EVENTS = [
        {"type": "candidates", "job_id": "job-0001", "candidates": [{"si": i}]}
        for i in range(5)
    ]

    def _frames(self, server, seqs):
        return b"".join(
            http.sse_event(seq, event["type"], {**event, "gen": server.generation})
            for seq, event in zip(seqs, self.EVENTS)
        )

    def test_one_write_is_the_concatenation_of_the_event_frames(self):
        async def main():
            server = MiningServer(port=0, backend="thread", max_workers=1)
            await server.start()
            try:
                seqs = [server.hub.publish(event) for event in self.EVENTS]
                reader, writer = asyncio.StreamReader(), _RecordingWriter()
                request = http.Request("GET", "/events", query={"since": "0"})
                task = asyncio.ensure_future(
                    server._handle_events(request, reader, writer)
                )
                await _until(lambda: len(writer.writes) >= 2)
                reader.feed_eof()  # the client hangs up: the stream ends
                await asyncio.wait_for(task, 5)
                assert server.hub.stats()["subscribers"] == 0
            finally:
                await server.stop()
            assert writer.writes == [
                http.sse_preamble(),
                self._frames(server, seqs),
            ]

        asyncio.run(main())

    def test_hub_closed_mid_burst_writes_the_frames_then_the_comment(self):
        async def main():
            server = MiningServer(port=0, backend="thread", max_workers=1)
            await server.start()
            try:
                reader, writer = asyncio.StreamReader(), _RecordingWriter()
                task = asyncio.ensure_future(
                    server._handle_events(
                        http.Request("GET", "/events"), reader, writer
                    )
                )
                await _until(lambda: writer.writes)  # subscribed, parked
                seqs = [server.hub.publish(event) for event in self.EVENTS]
                server.hub.close()
                await asyncio.wait_for(task, 5)
            finally:
                await server.stop()
            assert writer.writes[1:] == [
                self._frames(server, seqs) + http.sse_comment("server shutdown")
            ]

        asyncio.run(main())


class TestStreamEndsWithItsClient:
    def test_stream_ends_within_a_second_of_its_client_closing(self):
        server = MiningServer(
            port=0, backend="thread", max_workers=1, heartbeat_seconds=60
        )
        with server.run_in_thread() as handle:
            remote = RemoteWorkspace(handle.url, timeout=30.0)
            iterations = list(remote.stream(fast_spec(seed=95)))
            assert [it.index for it in iterations] == [1, 2]
            assert _wait_for(lambda: server.hub.stats()["subscribers"] == 0, 1.0)

    def test_closing_a_feed_frees_its_socket_while_still_referenced(self):
        server = MiningServer(
            port=0, backend="thread", max_workers=1, heartbeat_seconds=60
        )
        with server.run_in_thread() as handle:
            remote = RemoteWorkspace(handle.url, timeout=30.0)
            stream = _SSEStream(remote.host, remote.port, since=None, timeout=10.0)
            assert server.hub.stats()["subscribers"] == 1
            # ``stream`` stays referenced, so no collector can close the
            # socket for it: only close() can end the server's stream.
            stream.close()
            assert _wait_for(lambda: server.hub.stats()["subscribers"] == 0, 1.0)
