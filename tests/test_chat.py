import json

import pytest

from bugloc.agent import AgentConfig, ChatMessage, build_prompt
from bugloc.chat import (
    ChatProviderError,
    ChatTurn,
    RemoteChatProvider,
    ScriptedChatProvider,
    ToolCall,
)
from bugloc.code_index import ConfigurationError
from conftest import make_bug


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
    return [
        {
            "name": "search_file",
            "description": "look up a file",
            "parameters": {"name": {"type": "string", "description": "file name"}},
            "required": ["name"],
        }
    ]


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
        [ChatTurn(content="first"), ChatTurn(content="second")]
    )
    base = build_prompt(make_bug(), AgentConfig())
    assert provider.complete(base, [], 1.0).content == "first"
    with_one_model_turn = base + [ChatMessage(role="model", content="first")]
    assert provider.complete(with_one_model_turn, [], 1.0).content == "second"
    # same history again -> same response: replays are idempotent
    assert provider.complete(with_one_model_turn, [], 1.0).content == "second"
