import pytest
import requests

from bugloc import ioutil
from bugloc.embedders import RemoteEmbedder, RetriableProviderError
from bugloc.ioutil import atomic_write_bytes, atomic_write_text


class _Answer:
    status_code = 200

    def json(self):
        return {"data": [{"embedding": [1.0, 2.0]}]}


class _DroppingSession:
    """Raises a connection error on the first `drops` POSTs, then answers 200."""

    def __init__(self, drops):
        self.headers = {}
        self.drops = drops
        self.posts = 0

    def post(self, url, json=None, timeout=None):
        self.posts += 1
        if self.posts <= self.drops:
            raise requests.ConnectionError(f"connection reset ({self.posts})")
        return _Answer()


@pytest.fixture
def sleeps(monkeypatch):
    slept = []
    monkeypatch.setattr(ioutil.time, "sleep", slept.append)
    return slept


def remote(monkeypatch, session):
    monkeypatch.setenv("TEST_EMBED_KEY", "k")
    return RemoteEmbedder(
        "m", 2, "https://api.example", api_key_env="TEST_EMBED_KEY",
        max_attempts=3, session=session, retry_delay=0.5,
    )


def test_transport_errors_are_retried_until_an_answer(monkeypatch, sleeps):
    session = _DroppingSession(drops=2)
    assert remote(monkeypatch, session).embed_batch(["x"]).tolist() == [[1.0, 2.0]]
    assert session.posts == 3
    assert sleeps == [0.5, 1.0]


def test_transport_errors_on_every_attempt_exhaust_the_retries(monkeypatch, sleeps):
    session = _DroppingSession(drops=10)
    with pytest.raises(RetriableProviderError) as err:
        remote(monkeypatch, session).embed_batch(["x"])
    assert err.value.attempts == 3
    assert "connection reset (3)" in str(err.value)
    assert session.posts == 3
    assert sleeps == [0.5, 1.0]


def test_a_write_that_fails_leaves_the_old_file_and_no_temp_file(tmp_path):
    path = tmp_path / "out" / "report.json"
    atomic_write_bytes(path, b"old")
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(path, "\ud800")
    assert path.read_bytes() == b"old"
    assert [p.name for p in path.parent.iterdir()] == ["report.json"]
