"""Run configuration: a YAML file with ${ENV_VAR} interpolation, overridden by
command-line flags. Secrets never live in the file, only variable names."""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field, fields
from pathlib import Path

import yaml

from .ioutil import ConfigurationError

MODES = ("genloc", "embedding_only", "noembed", "vsm")

_ENV_RE = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")


def _interpolate(value):
    if isinstance(value, str):
        return _ENV_RE.sub(lambda m: os.environ.get(m.group(1), ""), value)
    if isinstance(value, dict):
        return {k: _interpolate(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_interpolate(v) for v in value]
    return value


@dataclass
class ChatSettings:
    kind: str = "scripted"  # scripted | remote
    model: str = ""
    base_url: str = ""
    api_key_env: str = "BUGLOC_CHAT_API_KEY"
    replay_path: str = ""
    max_attempts: int = 3


@dataclass
class EmbeddingSettings:
    kind: str = "hashing"  # hashing | remote
    dimension: int = 64
    model: str = ""
    base_url: str = ""
    api_key_env: str = "BUGLOC_EMBED_API_KEY"
    max_batch_size: int = 64
    max_attempts: int = 3
    cache_path: str = ""


@dataclass
class RunConfig:
    mode: str = "genloc"
    grammar: str = "java"
    chunk_limit: int = 300
    shortlist_k: int = 50
    max_iterations: int = 10
    final_list_size: int = 10
    temperature: float = 1.0
    runs: int = 3
    workers: int = 1
    tool_result_char_cap: int | None = None
    repo: str = ""
    dataset: str = ""
    index_cache: str = ""
    out_dir: str = "out"
    chat: ChatSettings = field(default_factory=ChatSettings)
    embedding: EmbeddingSettings = field(default_factory=EmbeddingSettings)

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigurationError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.mode in ("genloc", "noembed") and self.chat.kind not in ("scripted", "remote"):
            raise ConfigurationError(f"unknown chat provider kind {self.chat.kind!r}")
        if self.needs_embedding and self.embedding.kind not in ("hashing", "remote"):
            raise ConfigurationError(f"unknown embedding provider kind {self.embedding.kind!r}")
        for name in ("shortlist_k", "final_list_size", "chunk_limit", "max_iterations", "runs",
                     "workers", "chat.max_attempts", "embedding.dimension",
                     "embedding.max_batch_size", "embedding.max_attempts"):
            group, _, attr = name.rpartition(".")
            value = getattr(getattr(self, group) if group else self, attr)
            if value < 1:
                raise ConfigurationError(f"{name} must be at least 1, got {value}")

    @property
    def needs_embedding(self) -> bool:
        return self.mode in ("genloc", "embedding_only")


def _apply(instance, raw: dict, label: str):
    known = {f.name for f in fields(instance)}
    for key, value in raw.items():
        if key not in known:
            raise ConfigurationError(f"unknown {label} setting {key!r}")
        setattr(instance, key, value)
    return instance


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from an optional YAML file plus flag overrides.

    Flag overrides win over file values; ${VAR} in file strings is replaced
    with the environment variable's value (empty when unset).
    """
    config = RunConfig()
    if path:
        raw = yaml.safe_load(Path(path).read_text(encoding="utf-8")) or {}
        if not isinstance(raw, dict):
            raise ConfigurationError(f"config file {path} must hold a mapping")
        raw = _interpolate(raw)
        chat_raw = raw.pop("chat", {}) or {}
        embed_raw = raw.pop("embedding", {}) or {}
        _apply(config, raw, "run")
        _apply(config.chat, chat_raw, "chat")
        _apply(config.embedding, embed_raw, "embedding")
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key.startswith("chat."):
            setattr(config.chat, key.split(".", 1)[1], value)
        elif key.startswith("embedding."):
            setattr(config.embedding, key.split(".", 1)[1], value)
        else:
            setattr(config, key, value)
    config.validate()
    return config


def build_embedding_provider(config: RunConfig):
    """Construct the configured embedding provider; remote providers fail fast
    on a missing API key, before any indexing work."""
    from .embedders import CachedEmbedder, HashingEmbedder, RemoteEmbedder

    settings = config.embedding
    if settings.kind == "hashing":
        provider = HashingEmbedder(dimension=settings.dimension)
    elif settings.kind == "remote":
        provider = RemoteEmbedder(
            model=settings.model,
            dimension=settings.dimension,
            base_url=settings.base_url,
            api_key_env=settings.api_key_env,
            max_batch_size=settings.max_batch_size,
            max_attempts=settings.max_attempts,
        )
    else:
        raise ConfigurationError(f"unknown embedding provider kind {settings.kind!r}")
    if settings.cache_path:
        provider = CachedEmbedder(provider, settings.cache_path)
    return provider


def build_chat_provider(config: RunConfig):
    from .chat import RemoteChatProvider, ScriptedChatProvider

    settings = config.chat
    if settings.kind == "scripted":
        if not settings.replay_path:
            raise ConfigurationError("scripted chat provider needs a replay file (--replay)")
        return ScriptedChatProvider.from_file(settings.replay_path)
    if settings.kind == "remote":
        return RemoteChatProvider(
            model=settings.model,
            base_url=settings.base_url,
            api_key_env=settings.api_key_env,
            max_attempts=settings.max_attempts,
        )
    raise ConfigurationError(f"unknown chat provider kind {settings.kind!r}")
