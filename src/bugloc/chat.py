"""Chat model providers: scripted replay, live HTTPS, and a recording wrapper.

A provider is stateless per request: it receives the full message history plus
tool schemas and answers with either a tool call or final text. Scripted
transcripts and recorded live sessions share one replay file format, so any
recorded session doubles as a regression fixture.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import requests

from .ioutil import (
    SCHEMA_VERSION,
    JsonEndpoint,
    MalformedResponse,
    RequestRejected,
    RetriesExhausted,
    atomic_write_json,
    read_json,
)

logger = logging.getLogger(__name__)


class ChatProviderError(Exception):
    pass


class ScriptExhaustedError(ChatProviderError):
    """The scripted provider ran past the end of its canned responses."""


ROLE_SYSTEM = "system"
ROLE_MODEL = "model"
ROLE_TOOL = "tool"


class ToolCall(NamedTuple):
    name: str
    arguments: dict


@dataclass(frozen=True)
class ChatMessage:
    """One message of a conversation. A model message is one model turn:
    a tool call, or final text."""

    role: str
    content: str = ""
    tool_call: ToolCall | None = None
    tool_result: str | None = None

    def __post_init__(self):
        if self.role not in (ROLE_SYSTEM, ROLE_MODEL, ROLE_TOOL):
            raise ValueError(f"unknown message role {self.role!r}")
        if self.tool_call is not None and self.role != ROLE_MODEL:
            raise ValueError("tool_call is only valid on model messages")
        if self.tool_call is not None and self.content:
            raise ValueError("a model turn carries either final text or a tool call")
        if self.tool_result is not None and self.role != ROLE_TOOL:
            raise ValueError("tool_result is only valid on tool messages")


class ChatProvider:
    provider_id: str = ""

    def complete(self, messages, tool_schemas: list[dict], temperature: float) -> ChatMessage:
        """The model's next turn, a model message."""
        raise NotImplementedError


def _turn_to_dict(turn: ChatMessage) -> dict:
    if turn.tool_call is not None:
        return {"tool_call": turn.tool_call._asdict()}
    return {"final": turn.content}


def _turn_from_dict(raw: dict) -> ChatMessage:
    if not isinstance(raw, dict):
        raise ValueError(f"replay entry is not an object: {raw!r}")
    if "tool_call" in raw:
        call = raw["tool_call"]
        if not isinstance(call, dict) or not isinstance(call.get("name"), str):
            raise ValueError(f"replay tool_call has no name: {call!r}")
        return ChatMessage(ROLE_MODEL, tool_call=ToolCall(call["name"], call.get("arguments", {})))
    if "final" in raw:
        if not isinstance(raw["final"], str):
            raise ValueError(f"replay final response is not text: {raw['final']!r}")
        return ChatMessage(ROLE_MODEL, content=raw["final"])
    raise ValueError(f"replay entry is neither a tool_call nor a final response: {raw}")


def save_replay(path: str | Path, turns: list[ChatMessage], repeat_last: bool = False) -> None:
    atomic_write_json(
        path,
        {
            "schema_version": SCHEMA_VERSION,
            "repeat_last": repeat_last,
            "responses": [_turn_to_dict(t) for t in turns],
        },
    )


def load_replay(path: str | Path) -> tuple[list[ChatMessage], bool]:
    """The turns and repeat_last flag of a replay file; ValueError if it is
    not one."""
    raw = read_json(path)
    if not isinstance(raw, dict) or not isinstance(raw.get("responses"), list):
        raise ValueError(f"replay file {path} holds no responses list")
    return [_turn_from_dict(r) for r in raw["responses"]], bool(raw.get("repeat_last", False))


class ScriptedChatProvider(ChatProvider):
    """Replays canned responses. The cursor is the number of model turns
    already in the history, so replays are deterministic per conversation and
    safe to share across runs and threads."""

    provider_id = "scripted"

    def __init__(self, turns: list[ChatMessage], repeat_last: bool = False):
        self.turns = list(turns)
        self.repeat_last = repeat_last

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedChatProvider":
        turns, repeat_last = load_replay(path)
        return cls(turns, repeat_last=repeat_last)

    def complete(self, messages, tool_schemas: list[dict], temperature: float) -> ChatMessage:
        cursor = sum(1 for m in messages if m.role == ROLE_MODEL)
        if cursor < len(self.turns):
            return self.turns[cursor]
        if self.repeat_last and self.turns:
            return self.turns[-1]
        raise ScriptExhaustedError(
            f"scripted provider has {len(self.turns)} responses, turn {cursor + 1} requested"
        )


class RecordingChatProvider(ChatProvider):
    """Wraps a live provider and captures its turns in replay format."""

    def __init__(self, inner: ChatProvider):
        self.inner = inner
        self.provider_id = f"recorded:{inner.provider_id}"
        self.recorded: list[ChatMessage] = []

    def complete(self, messages, tool_schemas: list[dict], temperature: float) -> ChatMessage:
        turn = self.inner.complete(messages, tool_schemas, temperature)
        self.recorded.append(turn)
        return turn

    def save(self, path: str | Path) -> None:
        save_replay(path, self.recorded)


class RemoteChatProvider(ChatProvider):
    """Chat-completions style HTTPS endpoint with function calling."""

    def __init__(
        self,
        model: str,
        base_url: str,
        api_key_env: str = "BUGLOC_CHAT_API_KEY",
        max_attempts: int = 3,
        timeout: float = 120.0,
        session: requests.Session | None = None,
        retry_delay: float = 1.0,
    ):
        self._endpoint = JsonEndpoint(
            base_url, api_key_env, f"chat provider {model!r}", max_attempts, timeout, session, retry_delay
        )
        self.model = model
        self.provider_id = f"remote:{model}"

    def _wire_messages(self, messages) -> list[dict]:
        wire = []
        first_system_seen = False
        for msg in messages:
            if msg.role == ROLE_SYSTEM:
                # The first system message is the instruction frame; later
                # system messages (bug report, corrective nudges) ride in the
                # user slot, which this package's message model does not name.
                role = "system" if not first_system_seen else "user"
                first_system_seen = True
                wire.append({"role": role, "content": msg.content})
            elif msg.role == ROLE_MODEL:
                if msg.tool_call is not None:
                    wire.append(
                        {
                            "role": "assistant",
                            "content": msg.content or "",
                            "tool_calls": [
                                {
                                    "id": f"call_{len(wire)}",
                                    "type": "function",
                                    "function": {
                                        "name": msg.tool_call[0],
                                        "arguments": json.dumps(msg.tool_call[1]),
                                    },
                                }
                            ],
                        }
                    )
                else:
                    wire.append({"role": "assistant", "content": msg.content})
            else:  # tool
                wire.append(
                    {
                        "role": "tool",
                        "tool_call_id": f"call_{len(wire) - 1}",
                        "content": msg.tool_result or "",
                    }
                )
        return wire

    def complete(self, messages, tool_schemas: list[dict], temperature: float) -> ChatMessage:
        payload = {
            "model": self.model,
            "messages": self._wire_messages(messages),
            "temperature": temperature,
        }
        if tool_schemas:
            payload["tools"] = [{"type": "function", "function": schema} for schema in tool_schemas]
        try:
            body = self._endpoint.post("/chat/completions", payload)
        except RequestRejected as exc:
            raise ChatProviderError(f"chat provider {self.provider_id} rejected request: {exc}") from None
        except RetriesExhausted as exc:
            raise ChatProviderError(f"chat provider {self.provider_id} {exc}") from None
        except MalformedResponse as exc:
            raise ChatProviderError(f"malformed chat response: {exc}") from None
        return self._parse(body)

    def _parse(self, body) -> ChatMessage:
        try:
            message = body["choices"][0]["message"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ChatProviderError(f"malformed chat response: {exc}") from None
        message = _expect(message, dict, "the message", "an object")
        calls = message.get("tool_calls")
        if calls:
            names = [_function_name(call) for call in _expect(calls, list, "tool_calls", "a list")]
            if names[0] is None:
                raise ChatProviderError("malformed chat response: a tool call names no function")
            if len(calls) > 1:
                logger.warning(
                    "chat provider %s returned %d tool calls; dispatching the first, dropping %s",
                    self.provider_id, len(calls), names[1:],
                )
            try:
                arguments = json.loads(calls[0]["function"].get("arguments") or "{}")
            except (json.JSONDecodeError, TypeError):  # not JSON text
                arguments = {}
            return ChatMessage(ROLE_MODEL, tool_call=ToolCall(names[0], arguments))
        content = message.get("content")
        if not content:
            raise ChatProviderError("chat response carried neither text nor a tool call")
        return ChatMessage(ROLE_MODEL, content=_expect(content, str, "the content", "text"))


def _expect(value, kind: type, what: str, expected: str):
    """`value`, if it is a `kind`; else a ChatProviderError."""
    if not isinstance(value, kind):
        raise ChatProviderError(f"malformed chat response: {what} is {type(value).__name__}, not {expected}")
    return value


def _function_name(call) -> str | None:
    """The name of the function a wire tool call calls, if it names one."""
    function = call.get("function") if isinstance(call, dict) else None
    name = function.get("name") if isinstance(function, dict) else None
    return name if isinstance(name, str) else None
