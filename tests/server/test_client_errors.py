"""RemoteWorkspace against peers that answer with broken HTTP.

A reply the client cannot read is a transport failure: it surfaces as a
:class:`~repro.client.RemoteError`, never as a raw ``http.client`` or
JSON exception. An error status is a :class:`~repro.client.RemoteError`
too, raised on the reply that carries it.
"""

import json

import pytest

from repro.client import RemoteError, RemoteWorkspace


class TestTruncatedReplies:
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


class TestErrorStatuses:
    @pytest.mark.parametrize("status", [500, 503])
    def test_result_raises_an_error_status_without_retrying(
        self, fixed_reply_peer, status
    ):
        body = json.dumps(
            {"error": {"type": "HttpError", "message": "unavailable"}}
        ).encode("utf-8")
        peer = fixed_reply_peer(
            b"HTTP/1.1 %d Error\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\nConnection: close\r\n\r\n"
            % (status, len(body))
            + body
        )
        remote = RemoteWorkspace(peer.url, timeout=5.0)
        with pytest.raises(RemoteError, match="unavailable") as excinfo:
            remote.result("job-0001", timeout=30.0)
        assert excinfo.value.status == status
        assert peer.requests == 1
