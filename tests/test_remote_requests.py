"""Pins what the two remote providers send and how they fail: the URL,
timeout, Authorization header and sha256 of the JSON body of every POST,
and the type and text of every error they raise."""

import hashlib

import pytest
import requests

from bugloc.chat import ROLE_SYSTEM, ROLE_TOOL, ChatMessage, ChatProviderError, RemoteChatProvider
from bugloc.embedders import ProviderContractError, RemoteEmbedder, RetriableProviderError
from bugloc.code_index import ConfigurationError
from bugloc.tools import TOOL_SCHEMAS
from conftest import html_response, text_turn, tool_turn


class _Answer:
    def __init__(self, status_code, body):
        self.status_code = status_code
        self.body = body

    def json(self):
        return self.body


class RecordingSession:
    """Records each POST as (url, timeout, Authorization, sha256 of the body
    bytes requests would send) and answers it with `answer(payload)`."""

    def __init__(self, answer):
        self.headers = {}
        self.answer = answer
        self.posts = []

    def post(self, url, json=None, timeout=None):
        body = requests.Request("POST", url, json=json).prepare().body
        self.posts.append((url, timeout, self.headers.get("Authorization"), hashlib.sha256(body).hexdigest()))
        return self.answer(json)


def chat_provider(monkeypatch, answer, **kwargs):
    monkeypatch.setenv("TEST_CHAT_KEY", "chat-secret")
    session = RecordingSession(answer)
    provider = RemoteChatProvider(
        "chat-model", "https://chat.example/v1/", api_key_env="TEST_CHAT_KEY",
        session=session, retry_delay=0.0, **kwargs,
    )
    return provider, session


def embedder(monkeypatch, answer, **kwargs):
    monkeypatch.setenv("TEST_EMBED_KEY", "embed-secret")
    session = RecordingSession(answer)
    provider = RemoteEmbedder(
        "embed-model", 2, "https://embed.example/v1/", api_key_env="TEST_EMBED_KEY",
        session=session, retry_delay=0.0, **kwargs,
    )
    return provider, session


# Every message kind: the instruction frame, a later system message (sent in
# the user slot), tool calls with and without arguments, tool results with
# and without text, and final text.
CONVERSATION = [
    ChatMessage(ROLE_SYSTEM, content="You localize bugs."),
    ChatMessage(ROLE_SYSTEM, content="Bug report b-1\nSummary: Überlauf in dial\nDescription: zoom"),
    tool_turn("search_file", {"name": "AutoScale.java"}),
    ChatMessage(ROLE_TOOL, tool_result="org/chart/AutoScale.java"),
    tool_turn("get_candidate_filenames", {}),
    ChatMessage(ROLE_TOOL),
    text_turn("no list yet"),
    ChatMessage(ROLE_SYSTEM, content="Answer with a ranked list."),
]


def test_chat_request_is_pinned(monkeypatch):
    reply = {"choices": [{"message": {"content": "1. org/chart/AutoScale.java - dial"}}]}
    provider, session = chat_provider(monkeypatch, lambda payload: _Answer(200, reply))
    schemas = [TOOL_SCHEMAS[name] for name in sorted(TOOL_SCHEMAS)]
    turn = provider.complete(CONVERSATION, schemas, 0.7)
    provider.complete(CONVERSATION[:2], [], 1.0)
    assert turn == text_turn("1. org/chart/AutoScale.java - dial")
    url, auth = "https://chat.example/v1/chat/completions", "Bearer chat-secret"
    assert session.posts == [
        (url, 120.0, auth, "27ece33c33a71c835e8a8767581e4bee554d31575e7764fd337790b7d7648b7b"),
        (url, 120.0, auth, "c0c8cb7c44853b7566b42366443f347be4754c34a06d9fbaf875492da3641d79"),
    ]


def test_embedding_requests_split_at_max_batch_size_are_pinned(monkeypatch):
    def answer(payload):
        return _Answer(200, {"data": [{"embedding": [float(len(t)), 1.0]} for t in payload["input"]]})

    provider, session = embedder(monkeypatch, answer, max_batch_size=2, timeout=9.5)
    texts = ["alpha", "beta gamma", "Überlauf", "d", "epsilon zeta eta"]
    assert provider.embed_batch(texts).tolist() == [[float(len(t)), 1.0] for t in texts]
    url, auth = "https://embed.example/v1/embeddings", "Bearer embed-secret"
    assert session.posts == [
        (url, 9.5, auth, "4e17bd3941531c2704fa9ec3d6820cbaf7b40a98c4d7b5df9dd37d7412e65645"),
        (url, 9.5, auth, "bb37bce376c4dc8f0f80450c024804248617953953178c3da40526e92efaf8fd"),
        (url, 9.5, auth, "2ad9ed4701b7e76add384780988b5cee85923d3df557fc691461e131d93887eb"),
    ]


def status(code):
    return lambda payload: _Answer(code, {})


def html(payload):
    return html_response()


@pytest.mark.parametrize(
    "answer, posts, error, message",
    [
        (status(401), 1, ChatProviderError, "chat provider remote:chat-model rejected request: HTTP 401"),
        (status(503), 3, ChatProviderError, "chat provider remote:chat-model failed after 3 attempts: HTTP 503"),
        (html, 1, ChatProviderError,
         "malformed chat response: HTTP 200 body is not JSON: Expecting value: line 1 column 1 (char 0)"),
    ],
    ids=["rejected", "exhausted", "malformed"],
)
def test_chat_errors_are_pinned(monkeypatch, answer, posts, error, message):
    provider, session = chat_provider(monkeypatch, answer, max_attempts=3)
    with pytest.raises(error) as raised:
        provider.complete(CONVERSATION[:2], [], 1.0)
    assert type(raised.value) is error and str(raised.value) == message
    assert len(session.posts) == posts


@pytest.mark.parametrize(
    "answer, posts, error, message",
    [
        (status(400), 1, ProviderContractError, "provider remote:embed-model rejected request: HTTP 400"),
        (status(429), 2, RetriableProviderError, "provider 'remote:embed-model' failed after 2 attempt(s): HTTP 429"),
        (html, 1, ProviderContractError,
         "malformed embedding response: HTTP 200 body is not JSON: Expecting value: line 1 column 1 (char 0)"),
    ],
    ids=["rejected", "exhausted", "malformed"],
)
def test_embedding_errors_are_pinned(monkeypatch, answer, posts, error, message):
    provider, session = embedder(monkeypatch, answer, max_attempts=2)
    with pytest.raises(error) as raised:
        provider.embed_batch(["x"])
    assert type(raised.value) is error and str(raised.value) == message
    assert len(session.posts) == posts


@pytest.mark.parametrize(
    "make, kind",
    [
        (lambda: RemoteChatProvider("m", "https://x", api_key_env="TEST_UNSET_KEY"), "chat"),
        (lambda: RemoteEmbedder("m", 2, "https://x", api_key_env="TEST_UNSET_KEY"), "embedding"),
    ],
    ids=["chat", "embedding"],
)
def test_missing_key_errors_are_pinned(monkeypatch, make, kind):
    monkeypatch.delenv("TEST_UNSET_KEY", raising=False)
    with pytest.raises(ConfigurationError) as raised:
        make()
    assert str(raised.value) == f"environment variable TEST_UNSET_KEY is not set for {kind} provider 'm'"


@pytest.mark.parametrize(
    "make",
    [
        lambda: RemoteChatProvider("m", "https://x", api_key_env="TEST_UNSET_KEY", max_attempts=0),
        lambda: RemoteEmbedder("m", 2, "https://x", api_key_env="TEST_UNSET_KEY", max_attempts=0),
    ],
    ids=["chat", "embedding"],
)
def test_attempt_bound_below_one_is_pinned(monkeypatch, make):
    monkeypatch.delenv("TEST_UNSET_KEY", raising=False)  # the bound is checked first
    with pytest.raises(ValueError) as raised:
        make()
    assert type(raised.value) is ValueError
    assert str(raised.value) == "max_attempts must be at least 1, got 0"
