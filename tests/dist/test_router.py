"""MiningRouter federation: routing, tagging, SSE relay, failover.

Two real MiningServer replicas behind a real router, all on ephemeral
ports; the stock :class:`~repro.client.RemoteWorkspace` talks to the
router exactly as it would to a single server.
"""

import re
import time

import pytest

from repro.client import RemoteError, RemoteWorkspace
from repro.dist.executor import DistExecutor
from repro.dist.router import MiningRouter
from repro.dist.worker import WorkerDaemon
from repro.errors import EngineError
from repro.persist import job_to_dict
from repro.server import MiningServer
from repro.spec import MiningSpec

TAGGED_ID = re.compile(r"^job-\d+@r[01]$")


def _spec(seed, iterations=2):
    return MiningSpec.build(
        "synthetic",
        n_iterations=iterations,
        beam_width=4,
        max_depth=2,
        top_k=8,
        seed=seed,
    )


@pytest.fixture(scope="module")
def federation():
    """(router, router_handle, replica_handles): 2 replicas + router."""
    replicas = [
        MiningServer(port=0, backend="thread", max_workers=2).run_in_thread()
        for _ in range(2)
    ]
    router = MiningRouter(
        [handle.url for handle in replicas],
        check_interval=0.3,
        probe_timeout=10.0,
    )
    router_handle = router.run_in_thread()
    yield router, router_handle, replicas
    router_handle.stop()
    for handle in replicas:
        handle.stop()


@pytest.fixture(scope="module")
def routed(federation):
    _, router_handle, _ = federation
    return RemoteWorkspace(router_handle.url, timeout=60.0)


class TestHealth:
    def test_document_shape(self, federation, routed):
        doc = routed.health()
        assert doc["role"] == "router"
        assert doc["status"] == "ok"
        assert doc["ring"]["nodes"] == 2
        names = [replica["name"] for replica in doc["replicas"]]
        assert names == ["r0", "r1"]
        assert all(replica["healthy"] for replica in doc["replicas"])
        assert all(replica["generation"] for replica in doc["replicas"])
        assert set(doc["router"]) == {"submitted", "forwarded", "rebalances"}


class TestRouting:
    def test_submit_status_result_through_router(self, routed):
        job_id = routed.submit(_spec(0))
        assert TAGGED_ID.match(job_id), job_id
        result = routed.result(job_id, timeout=60.0)
        assert result is not None  # decoded JobResult, not a raw document
        assert routed.status(job_id).value == "done"

    def test_same_spec_lands_on_same_replica(self, routed):
        first = routed.submit(_spec(1))
        second = routed.submit(_spec(1))
        assert first.rpartition("@")[2] == second.rpartition("@")[2]

    def test_routed_result_document_matches_direct(self, federation, routed):
        router, _, replicas = federation
        job_id = routed.submit(_spec(2))
        routed.result(job_id, timeout=60.0)
        local_id, _, name = job_id.rpartition("@")
        replica_url = replicas[int(name[1:])].url
        direct = RemoteWorkspace(replica_url, timeout=60.0)
        _, routed_doc = routed._request("GET", f"/jobs/{job_id}/result")
        _, direct_doc = direct._request("GET", f"/jobs/{local_id}/result")
        assert routed_doc["result"] == direct_doc["result"]

    def test_merged_listing_tags_every_job(self, routed):
        submitted = {routed.submit(_spec(seed)) for seed in (3, 4)}
        for job_id in submitted:
            routed.result(job_id, timeout=60.0)
        listing = routed.jobs()
        assert submitted <= set(listing)
        assert all("@" in job_id for job_id in listing)

    def test_body_is_placed_by_the_spec_the_replica_runs(self, federation, routed):
        """``{"spec": A, "job": B}`` runs A, so the ring key is A's too."""
        router, _, _ = federation
        spec = _spec(7)
        owner = router._ring.node_for(spec.fingerprint())
        other = next(
            candidate
            for candidate in map(_spec, range(100, 200))
            if router._ring.node_for(candidate.fingerprint()) != owner
        )
        body = {"spec": spec.to_dict(), "job": job_to_dict(other)}
        _, document = routed._request("POST", "/jobs", body)
        assert document["fingerprint"] == spec.fingerprint()
        assert document["job_id"].rpartition("@")[2] == owner
        routed.result(document["job_id"], timeout=60.0)

    def test_cancel_route_forwards(self, routed):
        job_id = routed.submit(_spec(5))
        routed.result(job_id, timeout=60.0)
        assert routed.cancel(job_id) is False  # already finished

    def test_stream_through_router(self, routed):
        iterations = list(routed.stream(_spec(6, iterations=3)))
        assert len(iterations) == 3
        assert [it.index for it in iterations] == [1, 2, 3]

    def test_unknown_replica_tag_is_404(self, routed):
        with pytest.raises(RemoteError) as excinfo:
            routed.status("job-0001@zz")
        assert excinfo.value.status == 404

    def test_untagged_id_is_404(self, routed):
        with pytest.raises(RemoteError) as excinfo:
            routed.status("job-0001")
        assert excinfo.value.status == 404

    def test_bare_event_firehose_is_501(self, routed):
        with pytest.raises(RemoteError) as excinfo:
            routed._request("GET", "/events")
        assert excinfo.value.status == 501

    def test_unknown_route_is_404(self, routed):
        with pytest.raises(RemoteError) as excinfo:
            routed._request("GET", "/nope")
        assert excinfo.value.status == 404


class TestWorkerRegistry:
    def test_register_then_discover(self, federation, routed, worker_pair):
        _, router_handle, _ = federation
        for url in worker_pair:
            _, doc = routed._request(
                "POST", "/workers/register", {"url": url}
            )
            assert doc["registered"] == url
        _, doc = routed._request("GET", "/workers")
        assert set(worker_pair) <= set(doc["workers"])
        # The executor bootstraps its node list from the router alone.
        with DistExecutor(registry=router_handle.url) as executor:
            assert executor.parallelism >= 2
            with executor.session(10) as session:
                assert session.map(_plus, [1, 2, 3]) == [11, 12, 13]
        assert executor.stats["shards_remote"] > 0

    def test_register_is_idempotent(self, routed, worker_pair):
        for _ in range(2):
            routed._request("POST", "/workers/register", {"url": worker_pair[0]})
        _, doc = routed._request("GET", "/workers")
        assert doc["workers"].count(worker_pair[0]) == 1

    def test_register_rejects_bad_body(self, routed):
        with pytest.raises(RemoteError) as excinfo:
            routed._request("POST", "/workers/register", {"url": "no-scheme"})
        assert excinfo.value.status == 400

    def test_worker_registers_with_a_scheme_less_address(self, federation, routed):
        """``sisd worker --register HOST:PORT`` announces to HOST:PORT."""
        _, router_handle, _ = federation
        worker = WorkerDaemon(register_with=router_handle.url.split("//", 1)[1])
        handle = worker.run_in_thread()
        try:
            deadline = time.monotonic() + 5.0
            while True:
                _, doc = routed._request("GET", "/workers")
                if worker.url in doc["workers"] or time.monotonic() > deadline:
                    break
                time.sleep(0.05)
        finally:
            handle.stop()
        assert worker.url in doc["workers"]

    def test_bad_register_address_fails_at_construction(self):
        with pytest.raises(EngineError, match="127.0.0.1:port"):
            WorkerDaemon(register_with="127.0.0.1:port")

    def test_truncated_registry_listing_adds_no_workers(self, truncating_peer):
        """A registry that cuts its listing short is ignored, not raised."""
        peer = truncating_peer(b'{"workers": []}')
        with DistExecutor(["http://127.0.0.1:9"], registry=peer.url) as executor:
            assert executor.parallelism == 1
        assert peer.requests == 1

    @pytest.mark.parametrize(
        "body", [b'["http://127.0.0.1:9"]', b'{"workers": "http://127.0.0.1:9"}']
    )
    def test_malformed_registry_listing_adds_no_workers(self, truncating_peer, body):
        peer = truncating_peer(body, whole=1)
        with DistExecutor(["http://127.0.0.1:8"], registry=peer.url) as executor:
            assert executor.parallelism == 1
        assert peer.requests == 1

    def test_registry_entry_that_cannot_be_read_is_skipped(self, truncating_peer):
        listing = b'{"workers": ["http://127.0.0.1:abc", 7, "http://127.0.0.1:9"]}'
        peer = truncating_peer(listing, whole=1)
        with DistExecutor(registry=peer.url) as executor:
            assert [state.client.url for state in executor._states] == [
                "http://127.0.0.1:9"
            ]

    @pytest.mark.parametrize("url", ["http://127.0.0.1:abc", "https://127.0.0.1:1"])
    def test_register_rejects_a_url_no_client_can_dial(self, routed, url):
        _, before = routed._request("GET", "/workers")
        with pytest.raises(RemoteError) as excinfo:
            routed._request("POST", "/workers/register", {"url": url})
        assert excinfo.value.status == 400
        _, after = routed._request("GET", "/workers")
        assert after["workers"] == before["workers"]


def _plus(context, item):
    return context + item


class TestReplicaFailover:
    def test_dead_replica_503_then_survivor_takes_new_work(self):
        """Kill the owner: held ids answer 503, fresh submits rebalance."""
        replicas = [
            MiningServer(port=0, backend="thread", max_workers=2).run_in_thread()
            for _ in range(2)
        ]
        router = MiningRouter(
            [handle.url for handle in replicas],
            check_interval=0.2,
            probe_timeout=2.0,
        )
        router_handle = router.run_in_thread()
        live = []
        try:
            routed = RemoteWorkspace(router_handle.url, timeout=30.0)
            job_id = routed.submit(_spec(7))
            routed.result(job_id, timeout=60.0)
            owner = int(job_id.rpartition("@")[2][1:])
            replicas[owner].stop()
            live = [replicas[1 - owner]]
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                doc = routed.health()
                if not doc["replicas"][owner]["healthy"]:
                    break
                time.sleep(0.1)
            else:
                pytest.fail("router never noticed the dead replica")
            assert doc["ring"]["nodes"] == 1
            with pytest.raises(RemoteError) as excinfo:
                routed.status(job_id)
            assert excinfo.value.status == 503
            # The identical spec now rebalances onto the survivor.
            moved = routed.submit(_spec(7))
            assert moved.rpartition("@")[2] == f"r{1 - owner}"
            routed.result(moved, timeout=60.0)
        finally:
            router_handle.stop()
            for handle in live:
                handle.stop()


class TestTruncatedReplies:
    @pytest.mark.parametrize("whole", [0, 2])
    def test_probe_marks_replica_unhealthy_and_keeps_probing(
        self, truncating_peer, whole
    ):
        """A replica that cuts its /health reply short is down, not fatal.

        With ``whole=0`` the router's first probe, in ``start()``, reads
        the truncated reply; with ``whole=2`` the replica is healthy
        first and the background health checks read it.
        """
        peer = truncating_peer(b'{"status": "ok", "generation": "g1"}', whole)
        router = MiningRouter([peer.url], check_interval=0.05, probe_timeout=2.0)
        handle = router.run_in_thread()
        try:
            deadline = time.monotonic() + 10.0
            while peer.requests < whole + 4 and time.monotonic() < deadline:
                time.sleep(0.05)
            (replica,) = RemoteWorkspace(handle.url).health()["replicas"]
        finally:
            handle.stop()
        assert peer.requests >= whole + 4
        assert not replica["healthy"]
        assert "truncated" in replica["error"]

    def test_client_reports_a_truncated_reply_as_remote_error(
        self, truncating_peer
    ):
        peer = truncating_peer(b"{}")
        with pytest.raises(RemoteError, match="cannot reach"):
            RemoteWorkspace(peer.url, timeout=5.0).health()

    @pytest.mark.parametrize(
        "reply",
        [b"garbage\r\n\r\n", b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 70_000],
        ids=["bad-status-line", "line-too-long"],
    )
    def test_event_feed_reports_a_malformed_reply_as_remote_error(
        self, fixed_reply_peer, reply
    ):
        peer = fixed_reply_peer(reply)
        with pytest.raises(RemoteError, match="cannot reach"):
            next(RemoteWorkspace(peer.url, timeout=5.0).events())
