import json

import pytest
import requests

from bugloc import ioutil
from bugloc.agent import AgentConfig, ChatMessage, build_prompt
from bugloc.chat import (
    ChatProviderError,
    RemoteChatProvider,
    ScriptedChatProvider,
    ToolCall,
)
from bugloc.code_index import ConfigurationError
from bugloc.config import build_chat_provider, load_config
from bugloc.tools import SEARCH_FILE, TOOL_SCHEMAS
from conftest import make_bug, text_turn


class _FakeResponse:
    def __init__(self, status_code, body=None):
        self.status_code = status_code
        self._body = body or {}

    def json(self):
        return self._body


class _FakeSession:
    def __init__(self, responses):
        self.headers = {}
        self.responses = list(responses)
        self.requests = []

    def post(self, url, json=None, timeout=None):
        self.requests.append({"url": url, "json": json})
        return self.responses.pop(0)


def provider_with(responses, monkeypatch, **kwargs):
    monkeypatch.setenv("TEST_CHAT_KEY", "secret")
    session = _FakeSession(responses)
    provider = RemoteChatProvider(
        "chat-model", "https://api.example", api_key_env="TEST_CHAT_KEY",
        session=session, retry_delay=0.0, **kwargs,
    )
    return provider, session


def tool_schemas():
    return [TOOL_SCHEMAS[SEARCH_FILE]]


def test_missing_api_key_fails_at_construction(monkeypatch):
    monkeypatch.delenv("TEST_CHAT_KEY", raising=False)
    with pytest.raises(ConfigurationError):
        RemoteChatProvider("m", "https://api.example", api_key_env="TEST_CHAT_KEY")


def test_final_text_response(monkeypatch):
    body = {"choices": [{"message": {"content": "the answer"}}]}
    provider, session = provider_with([_FakeResponse(200, body)], monkeypatch)
    turn = provider.complete(build_prompt(make_bug(), AgentConfig()), tool_schemas(), 1.0)
    assert turn.content == "the answer"
    assert turn.tool_call is None
    request = session.requests[0]["json"]
    assert request["temperature"] == 1.0
    assert request["tools"][0]["function"]["name"] == "search_file"


def test_tool_call_response(monkeypatch):
    body = {
        "choices": [
            {
                "message": {
                    "tool_calls": [
                        {
                            "function": {
                                "name": "search_file",
                                "arguments": json.dumps({"name": "A.java"}),
                            }
                        }
                    ]
                }
            }
        ]
    }
    provider, _ = provider_with([_FakeResponse(200, body)], monkeypatch)
    turn = provider.complete(build_prompt(make_bug(), AgentConfig()), tool_schemas(), 1.0)
    assert turn.tool_call == ToolCall("search_file", {"name": "A.java"})


def test_extra_tool_calls_are_logged_when_dropped(monkeypatch, caplog):
    calls = [
        {"function": {"name": name, "arguments": json.dumps({"name": "A.java"})}}
        for name in ("search_file", "search_method", "get_method_body")
    ]
    body = {"choices": [{"message": {"tool_calls": calls}}]}
    provider, _ = provider_with([_FakeResponse(200, body)], monkeypatch)
    with caplog.at_level("WARNING", logger="bugloc.chat"):
        turn = provider.complete(build_prompt(make_bug(), AgentConfig()), tool_schemas(), 1.0)
    assert turn.tool_call == ToolCall("search_file", {"name": "A.java"})
    [record] = caplog.records
    assert "search_method" in record.getMessage()
    assert "get_method_body" in record.getMessage()


@pytest.mark.parametrize("arguments", ["{not json", {"name": "A.java"}], ids=["bad-json", "not-text"])
def test_tool_call_arguments_that_are_not_json_become_empty(monkeypatch, arguments):
    call = {"function": {"name": "get_candidate_filenames", "arguments": arguments}}
    body = {"choices": [{"message": {"tool_calls": [call]}}]}
    provider, _ = provider_with([_FakeResponse(200, body)], monkeypatch)
    turn = provider.complete(build_prompt(make_bug(), AgentConfig()), tool_schemas(), 1.0)
    assert turn.tool_call == ToolCall("get_candidate_filenames", {})


MALFORMED = "malformed chat response: "
NAMES_NO_FUNCTION = f"{MALFORMED}a tool call names no function"


@pytest.mark.parametrize(
    "body, message",
    [
        ({"id": "x"}, "malformed chat response: 'choices'"),
        ({"choices": []}, "malformed chat response: list index out of range"),
        ({"choices": [{"message": {"content": ""}}]}, "chat response carried neither text nor a tool call"),
        ({"choices": [{"message": {"tool_calls": []}}]}, "chat response carried neither text nor a tool call"),
        ({"choices": [{"message": "hello"}]}, "malformed chat response: the message is str, not an object"),
        ({"choices": [{"message": {"tool_calls": {"id": "c"}}}]}, f"{MALFORMED}tool_calls is dict, not a list"),
        ({"choices": [{"message": {"tool_calls": 7}}]}, f"{MALFORMED}tool_calls is int, not a list"),
        ({"choices": [{"message": {"tool_calls": [{"id": "c"}]}}]}, NAMES_NO_FUNCTION),
        ({"choices": [{"message": {"tool_calls": [{"function": {}}]}}]}, NAMES_NO_FUNCTION),
        ({"choices": [{"message": {"content": [{"text": "x"}]}}]}, f"{MALFORMED}the content is list, not text"),
    ],
    ids=[
        "no-choices", "empty-choices", "empty-text", "empty-calls", "message-not-object",
        "calls-a-dict", "calls-a-number", "call-without-function", "function-without-name", "content-not-text",
    ],
)
def test_unusable_response_is_provider_error(monkeypatch, body, message):
    provider, _ = provider_with([_FakeResponse(200, body)], monkeypatch)
    with pytest.raises(ChatProviderError) as raised:
        provider.complete(build_prompt(make_bug(), AgentConfig()), [], 1.0)
    assert str(raised.value) == message


def remote_chat_config(**settings):
    overrides = {"chat.kind": "remote", "chat.model": "m", "chat.base_url": "https://api.example/"}
    return load_config(overrides={**overrides, **{f"chat.{k}": v for k, v in settings.items()}})


def test_build_chat_provider_remote_uses_the_settings(monkeypatch):
    monkeypatch.setenv("TEST_CHAT_KEY", "secret")
    monkeypatch.setattr(ioutil.time, "sleep", lambda seconds: None)
    session = _FakeSession([_FakeResponse(500)] * 5)
    monkeypatch.setattr(requests, "Session", lambda: session)
    provider = build_chat_provider(remote_chat_config(api_key_env="TEST_CHAT_KEY", max_attempts=5))
    assert isinstance(provider, RemoteChatProvider) and provider.provider_id == "remote:m"
    with pytest.raises(ChatProviderError, match="failed after 5 attempts: HTTP 500"):
        provider.complete(build_prompt(make_bug(), AgentConfig()), [], 1.0)
    assert [r["url"] for r in session.requests] == ["https://api.example/chat/completions"] * 5
    assert session.headers["Authorization"] == "Bearer secret"


def test_build_chat_provider_remote_without_key_fails(monkeypatch):
    monkeypatch.delenv("TEST_CHAT_KEY", raising=False)
    with pytest.raises(ConfigurationError, match="TEST_CHAT_KEY is not set for chat provider 'm'"):
        build_chat_provider(remote_chat_config(api_key_env="TEST_CHAT_KEY"))


def test_retry_then_recover(monkeypatch):
    body = {"choices": [{"message": {"content": "ok"}}]}
    provider, session = provider_with(
        [_FakeResponse(500), _FakeResponse(200, body)], monkeypatch, max_attempts=3
    )
    turn = provider.complete(build_prompt(make_bug(), AgentConfig()), [], 1.0)
    assert turn.content == "ok"
    assert len(session.requests) == 2


def test_exhausted_retries_raise(monkeypatch):
    provider, _ = provider_with(
        [_FakeResponse(500)] * 3, monkeypatch, max_attempts=3
    )
    with pytest.raises(ChatProviderError):
        provider.complete(build_prompt(make_bug(), AgentConfig()), [], 1.0)


def test_client_error_not_retried(monkeypatch):
    provider, session = provider_with([_FakeResponse(401)], monkeypatch, max_attempts=3)
    with pytest.raises(ChatProviderError):
        provider.complete(build_prompt(make_bug(), AgentConfig()), [], 1.0)
    assert len(session.requests) == 1


def test_wire_roles_first_system_then_user(monkeypatch):
    body = {"choices": [{"message": {"content": "x"}}]}
    provider, session = provider_with([_FakeResponse(200, body)], monkeypatch)
    messages = build_prompt(make_bug(), AgentConfig())
    messages = messages + [
        ChatMessage(role="model", content="", tool_call=("search_file", {"name": "A"})),
        ChatMessage(role="tool", content="", tool_result="A.java found"),
    ]
    provider.complete(messages, [], 1.0)
    wire = session.requests[0]["json"]["messages"]
    assert [m["role"] for m in wire] == ["system", "user", "assistant", "tool"]
    assert wire[2]["tool_calls"][0]["function"]["name"] == "search_file"
    assert wire[3]["content"] == "A.java found"


def test_scripted_cursor_counts_model_turns():
    provider = ScriptedChatProvider(
        [text_turn("first"), text_turn("second")]
    )
    base = build_prompt(make_bug(), AgentConfig())
    assert provider.complete(base, [], 1.0).content == "first"
    with_one_model_turn = base + [ChatMessage(role="model", content="first")]
    assert provider.complete(with_one_model_turn, [], 1.0).content == "second"
    # same history again -> same response: replays are idempotent
    assert provider.complete(with_one_model_turn, [], 1.0).content == "second"
