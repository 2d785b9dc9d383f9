"""Durability over the wire: restart, caching, stream generations.

End-to-end through real sockets: a :class:`MiningServer` on a durable
store is killed and relaunched on the same store, and the restarted
server must serve the pre-restart results **bit-identically** without
recomputing; result GETs negotiate gzip and revalidate with ETags;
and every SSE frame carries the server's stream generation so clients
detect restarts instead of misaligning their sequence numbers.
"""

import gzip
import itertools
import json
import time
from http.client import HTTPConnection

import pytest

from repro.client import RemoteWorkspace, ServerRestarted
from repro.persist import job_result_to_dict
from repro.server import MiningServer
from repro.spec import MiningSpec

FAST = dict(beam_width=6, max_depth=2, top_k=10)


def _job(seed=0, **kwargs):
    kwargs.setdefault("n_iterations", 2)
    kwargs.setdefault("kind", "spread")
    return MiningSpec.build("synthetic", seed=seed, **FAST, **kwargs)


@pytest.fixture()
def store_path(tmp_path):
    return tmp_path / "store"


class TestRestartRoundTrip:
    def test_results_survive_bit_identically_and_instantly(self, store_path):
        server = MiningServer(port=0, backend="thread", store=store_path)
        with server.run_in_thread():
            ws = RemoteWorkspace(server.url, timeout=30.0)
            first_generation = ws.health()["generation"]
            assert ws.health()["durable"]
            ids = [ws.submit(_job(seed=s)) for s in (0, 1)]
            docs = {
                i: job_result_to_dict(ws.result(i, 120)) for i in ids
            }

        relaunch = MiningServer(port=0, backend="thread", store=store_path)
        with relaunch.run_in_thread():
            ws = RemoteWorkspace(relaunch.url, timeout=30.0)
            health = ws.health()
            assert health["generation"] != first_generation
            # Recovered terminal jobs are served from the store: the
            # status is immediately DONE and the wait is ~zero because
            # nothing is recomputed.
            started = time.monotonic()
            for i in ids:
                assert job_result_to_dict(ws.result(i, 10)) == docs[i]
            assert time.monotonic() - started < 5.0
            assert health["jobs"]["by_status"].get("done") == 2
            # A durable server surfaces its store's vitals: recovered
            # record count and the belief spill's hit accounting.
            store_health = ws.health()["store"]
            assert store_health["records"] == 2
            spill = store_health["belief_spill"]
            assert {"hits", "misses", "stores", "errors", "hit_rate"} <= set(
                spill
            )
            assert spill["hit_rate"] is None or 0.0 <= spill["hit_rate"] <= 1.0
        # One file per record, the generation counter, the belief spill.
        assert sorted(p.name for p in store_path.iterdir()) == [
            "beliefs",
            "meta.json",
            "records",
        ]

    def test_stream_on_restarted_server_heals_from_the_store(self, store_path):
        spec = _job(seed=3)
        server = MiningServer(port=0, backend="thread", store=store_path)
        with server.run_in_thread():
            ws = RemoteWorkspace(server.url, timeout=30.0)
            cold = list(ws.stream(spec))
            assert [it.index for it in cold] == [1, 2]

        relaunch = MiningServer(
            port=0, backend="thread", store=store_path, heartbeat_seconds=0.2
        )
        with relaunch.run_in_thread():
            ws = RemoteWorkspace(relaunch.url, timeout=30.0)
            # Resubmitting the same spec coalesces onto the recovered
            # terminal record; the job emits no fresh events, so the
            # stream must heal every iteration from the stored result.
            warm = list(ws.stream(spec))
        assert len(warm) == len(cold)
        for a, b in zip(warm, cold):
            assert a.index == b.index
            assert a.location.score.ic == b.location.score.ic
            assert a.location.description == b.location.description


def _job_doc(seed):
    from repro.persist import job_to_dict

    return job_to_dict(_job(seed=seed))


class TestContentNegotiation:
    @pytest.fixture()
    def served_result(self, store_path):
        server = MiningServer(port=0, backend="thread", store=store_path)
        with server.run_in_thread():
            ws = RemoteWorkspace(server.url, timeout=30.0)
            job_id = ws.submit(_job(seed=21))
            ws.result(job_id, 120)
            yield server, ws, job_id

    def test_gzip_and_etag_headers(self, served_result):
        server, _, job_id = served_result
        conn = HTTPConnection(server.host, server.port, timeout=10)
        try:
            conn.request(
                "GET",
                f"/jobs/{job_id}/result",
                headers={"Accept-Encoding": "gzip"},
            )
            response = conn.getresponse()
            body = response.read()
            assert response.status == 200
            assert response.headers["Content-Encoding"] == "gzip"
            assert response.headers["Vary"] == "Accept-Encoding"
            etag = response.headers["ETag"]
            assert etag.startswith('"') and etag.endswith('"')
            document = json.loads(gzip.decompress(body))
            assert document["status"] == "done"

            # Revalidation: the same ETag answers 304 with no body.
            conn.request(
                "GET",
                f"/jobs/{job_id}/result",
                headers={"If-None-Match": etag},
            )
            response = conn.getresponse()
            assert response.status == 304
            assert response.read() == b""
            assert response.headers["ETag"] == etag
        finally:
            conn.close()

    def test_identity_without_accept_encoding(self, served_result):
        server, _, job_id = served_result
        conn = HTTPConnection(server.host, server.port, timeout=10)
        try:
            conn.request(
                "GET", f"/jobs/{job_id}/result", headers={"Accept-Encoding": ""}
            )
            response = conn.getresponse()
            body = response.read()
            assert response.status == 200
            assert "Content-Encoding" not in response.headers
            assert json.loads(body)["status"] == "done"
        finally:
            conn.close()

    def test_client_revalidates_transparently(self, served_result):
        _, ws, job_id = served_result
        first = job_result_to_dict(ws.result(job_id, 10))
        assert ws.wire_stats["gzip_responses"] >= 1
        again = job_result_to_dict(ws.result(job_id, 10))
        assert ws.wire_stats["revalidated"] >= 1
        assert first == again


class TestGenerations:
    def test_sse_frames_carry_the_generation(self, store_path):
        server = MiningServer(port=0, backend="thread", store=store_path)
        with server.run_in_thread():
            ws = RemoteWorkspace(server.url, timeout=30.0)
            ws.result(ws.submit(_job(seed=41)), 120)
            feed = ws.events(since=0, reconnect=False)
            events = list(itertools.islice(feed, 3))
            feed.close()
        assert {e.raw.get("gen") for e in events} == {server.generation}

    def test_generation_mismatch_raises_server_restarted(self, store_path):
        server = MiningServer(port=0, backend="thread", store=store_path)
        with server.run_in_thread():
            ws = RemoteWorkspace(server.url, timeout=30.0)
            ws.result(ws.submit(_job(seed=42)), 120)
            feed = ws.events(
                since=0, reconnect=False, generation="an-older-boot"
            )
            with pytest.raises(ServerRestarted) as excinfo:
                next(iter(feed))
            feed.close()
        assert excinfo.value.old_generation == "an-older-boot"
        assert excinfo.value.new_generation == server.generation

    def test_submit_response_carries_gen(self, store_path):
        server = MiningServer(port=0, backend="thread", store=store_path)
        with server.run_in_thread():
            ws = RemoteWorkspace(server.url, timeout=30.0)
            _, document = ws._request(
                "POST", "/jobs", {"job": _job_doc(seed=43)}
            )
            assert document["gen"] == server.generation

    def test_generations_increase_across_boots(self, store_path):
        generations = []
        for _ in range(2):
            server = MiningServer(port=0, backend="thread", store=store_path)
            with server.run_in_thread():
                generations.append(int(server.generation))
        assert generations[0] < generations[1]


class TestCliWiring:
    def test_serve_accepts_the_store_flag(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(["serve", "--store", "/tmp/s"])
        assert args.store == "/tmp/s"

    def test_serve_defaults_stay_storeless(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(["serve"])
        assert args.store is None
