"""Chat model providers: scripted replay, live HTTPS, and a recording wrapper.

A provider is stateless per request: it receives the full message history plus
tool schemas and answers with either a tool call or final text. Scripted
transcripts and recorded live sessions share one replay file format, so any
recorded session doubles as a regression fixture.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path

import requests

from .code_index import ConfigurationError
from .ioutil import (
    SCHEMA_VERSION,
    MalformedResponse,
    RequestRejected,
    RetriesExhausted,
    atomic_write_json,
    post_with_retry,
    read_json,
)

logger = logging.getLogger(__name__)


class ChatProviderError(Exception):
    pass


class ScriptExhaustedError(ChatProviderError):
    """The scripted provider ran past the end of its canned responses."""


@dataclass(frozen=True)
class ToolCall:
    name: str
    arguments: dict


@dataclass(frozen=True)
class ChatTurn:
    content: str | None = None
    tool_call: ToolCall | None = None

    def __post_init__(self):
        if (self.content is None) == (self.tool_call is None):
            raise ValueError("a chat turn carries either final text or a tool call")


class ChatProvider:
    provider_id: str = ""

    def complete(self, messages, tool_schemas: list[dict], temperature: float) -> ChatTurn:
        raise NotImplementedError


def _turn_to_dict(turn: ChatTurn) -> dict:
    if turn.tool_call is not None:
        return {"tool_call": {"name": turn.tool_call.name, "arguments": turn.tool_call.arguments}}
    return {"final": turn.content}


def _turn_from_dict(raw: dict) -> ChatTurn:
    if "tool_call" in raw:
        call = raw["tool_call"]
        return ChatTurn(tool_call=ToolCall(call["name"], dict(call.get("arguments", {}))))
    if "final" in raw:
        return ChatTurn(content=raw["final"])
    raise ValueError(f"replay entry is neither a tool_call nor a final response: {raw}")


def save_replay(path: str | Path, turns: list[ChatTurn], repeat_last: bool = False) -> None:
    atomic_write_json(
        path,
        {
            "schema_version": SCHEMA_VERSION,
            "repeat_last": repeat_last,
            "responses": [_turn_to_dict(t) for t in turns],
        },
    )


def load_replay(path: str | Path) -> tuple[list[ChatTurn], bool]:
    raw = read_json(path)
    return [_turn_from_dict(r) for r in raw["responses"]], bool(raw.get("repeat_last", False))


class ScriptedChatProvider(ChatProvider):
    """Replays canned responses. The cursor is the number of model turns
    already in the history, so replays are deterministic per conversation and
    safe to share across runs and threads."""

    provider_id = "scripted"

    def __init__(self, turns: list[ChatTurn], repeat_last: bool = False):
        self.turns = list(turns)
        self.repeat_last = repeat_last

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedChatProvider":
        turns, repeat_last = load_replay(path)
        return cls(turns, repeat_last=repeat_last)

    def complete(self, messages, tool_schemas: list[dict], temperature: float) -> ChatTurn:
        cursor = sum(1 for m in messages if m.role == "model")
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
        self.recorded: list[ChatTurn] = []

    def complete(self, messages, tool_schemas: list[dict], temperature: float) -> ChatTurn:
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
        api_key = os.environ.get(api_key_env, "")
        if not api_key:
            raise ConfigurationError(
                f"environment variable {api_key_env} is not set for chat provider {model!r}"
            )
        self.model = model
        self.base_url = base_url.rstrip("/")
        self.max_attempts = max_attempts
        self.timeout = timeout
        self.retry_delay = retry_delay
        self.provider_id = f"remote:{model}"
        self._session = session or requests.Session()
        self._session.headers["Authorization"] = f"Bearer {api_key}"

    def _wire_messages(self, messages) -> list[dict]:
        wire = []
        first_system_seen = False
        for msg in messages:
            if msg.role == "system":
                # The first system message is the instruction frame; later
                # system messages (bug report, corrective nudges) ride in the
                # user slot, which this package's message model does not name.
                role = "system" if not first_system_seen else "user"
                first_system_seen = True
                wire.append({"role": role, "content": msg.content})
            elif msg.role == "model":
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

    @staticmethod
    def _wire_tools(tool_schemas: list[dict]) -> list[dict]:
        tools = []
        for schema in tool_schemas:
            tools.append(
                {
                    "type": "function",
                    "function": {
                        "name": schema["name"],
                        "description": schema["description"],
                        "parameters": {
                            "type": "object",
                            "properties": schema.get("parameters", {}),
                            "required": schema.get("required", []),
                        },
                    },
                }
            )
        return tools

    def complete(self, messages, tool_schemas: list[dict], temperature: float) -> ChatTurn:
        payload = {
            "model": self.model,
            "messages": self._wire_messages(messages),
            "temperature": temperature,
        }
        if tool_schemas:
            payload["tools"] = self._wire_tools(tool_schemas)
        try:
            body = post_with_retry(
                self._session, f"{self.base_url}/chat/completions", payload,
                self.timeout, self.max_attempts, self.retry_delay,
            )
        except RequestRejected as exc:
            raise ChatProviderError(
                f"chat provider {self.provider_id} rejected request: {exc}"
            ) from None
        except RetriesExhausted as exc:
            raise ChatProviderError(f"chat provider {self.provider_id} {exc}") from None
        except MalformedResponse as exc:
            raise ChatProviderError(f"malformed chat response: {exc}") from None
        return self._parse(body)

    def _parse(self, body) -> ChatTurn:
        try:
            message = body["choices"][0]["message"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ChatProviderError(f"malformed chat response: {exc}") from None
        calls = message.get("tool_calls")
        if calls:
            if len(calls) > 1:
                dropped = [call.get("function", {}).get("name") for call in calls[1:]]
                logger.warning(
                    "chat provider %s returned %d tool calls; dispatching the first, dropping %s",
                    self.provider_id, len(calls), dropped,
                )
            fn = calls[0]["function"]
            try:
                arguments = json.loads(fn.get("arguments") or "{}")
            except json.JSONDecodeError:
                arguments = {}
            return ChatTurn(tool_call=ToolCall(fn["name"], arguments))
        content = message.get("content")
        if not content:
            raise ChatProviderError("chat response carried neither text nor a tool call")
        return ChatTurn(content=content)
