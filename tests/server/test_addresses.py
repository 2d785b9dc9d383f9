"""One address parser for every client that dials a daemon URL.

:func:`repro.server.http.split_url` reads every ``host:port`` and
``http://host:port`` address a client-side entry point is given, so each
entry point refuses the same bad addresses with the same typed error,
before it dials anything.
"""

import pytest

from repro.cli import main
from repro.client import RemoteWorkspace
from repro.dist.executor import DistExecutor, WorkerClient
from repro.errors import EngineError
from repro.obs.console import fetch_text

#: The four client-side readers of a daemon URL.
ENTRY_POINTS = {
    "RemoteWorkspace": RemoteWorkspace,
    "WorkerClient": WorkerClient,
    "DistExecutor([url])": lambda url: DistExecutor([url]),
    "console.fetch_text": lambda url: fetch_text(url, "/metrics"),
}

#: A non-numeric port, an out-of-range port, and a scheme the daemons
#: do not speak.
BAD_URLS = ["127.0.0.1:abc", "127.0.0.1:99999", "https://127.0.0.1:1"]


@pytest.mark.parametrize("url", BAD_URLS)
@pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
def test_every_entry_point_refuses_a_bad_address(entry_point, url):
    with pytest.raises(EngineError, match=f"'{url}'"):
        ENTRY_POINTS[entry_point](url)


def test_default_ports_and_base_urls():
    remote = RemoteWorkspace("127.0.0.1")
    assert (remote.host, remote.port) == ("127.0.0.1", 8765)
    worker = WorkerClient("127.0.0.1:8000/")
    assert (worker.host, worker.port, worker.url) == (
        "127.0.0.1", 8000, "http://127.0.0.1:8000"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["top", "--once", "127.0.0.1:abc"],
    ],
)
def test_cli_prints_an_error_line_for_a_bad_port(argv, capsys):
    assert main(argv) == 1
    assert "error: bad port in '127.0.0.1:abc'" in capsys.readouterr().err
