"""Small I/O helpers: every output file is written atomically, and every
remote POST goes through one client, JsonEndpoint, with one retry policy."""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

import requests

SCHEMA_VERSION = 1
RETRIABLE_STATUS = (408, 409, 429)  # and every 5xx


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write `text` via a temp file in the same directory, then rename."""
    _atomic_write(path, text, "w", encoding="utf-8")


def atomic_write_bytes(path: str | os.PathLike, data: bytes) -> None:
    """Write `data` via a temp file in the same directory, then rename."""
    _atomic_write(path, data, "wb")


def _atomic_write(path, data, mode: str, **open_args) -> None:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, mode, **open_args) as handle:
            handle.write(data)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_json(path: str | os.PathLike, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n")


def read_json(path: str | os.PathLike):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class ConfigurationError(ValueError):
    """Fatal setup problem (missing repository root, unset API key...)."""


class RequestRejected(Exception):
    """The endpoint answered with a status that retrying cannot change."""


class MalformedResponse(Exception):
    """The endpoint answered 200 with a body that is not JSON."""


class RetriesExhausted(Exception):
    """Every attempt ended in a transport error or a retriable status."""

    def __init__(self, attempts: int, cause: str):
        super().__init__(f"failed after {attempts} attempts: {cause}")
        self.attempts = attempts
        self.cause = cause


class JsonEndpoint:
    """One remote JSON API, reached with the API key named by `api_key_env`.
    The key is read at construction, so misconfiguration fails before any
    work; `user` names the caller in that error. The session carries the
    key for every POST."""

    def __init__(self, base_url: str, api_key_env: str, user: str, max_attempts: int, timeout: float,
                 session: requests.Session | None = None, retry_delay: float = 1.0):
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be at least 1, got {max_attempts}")
        api_key = os.environ.get(api_key_env, "")
        if not api_key:
            raise ConfigurationError(f"environment variable {api_key_env} is not set for {user}")
        self.base_url = base_url.rstrip("/")
        self.max_attempts = max_attempts
        self.timeout = timeout
        self.retry_delay = retry_delay
        self.session = session or requests.Session()
        self.session.headers["Authorization"] = f"Bearer {api_key}"

    def post(self, path: str, payload):
        """POST `payload` as JSON to `base_url + path` and return the decoded
        JSON body of the first HTTP 200 response; a body that is not JSON
        raises MalformedResponse.

        Makes at most `max_attempts` POSTs. Transport errors, 408/409/429 and
        5xx are retried after sleeping `retry_delay * n` seconds following
        the n-th failure; any other status raises RequestRejected at once.
        """
        cause = "unknown"
        for attempt in range(1, self.max_attempts + 1):
            try:
                response = self.session.post(self.base_url + path, json=payload, timeout=self.timeout)
            except requests.RequestException as exc:
                cause = str(exc)
            else:
                if response.status_code == 200:
                    try:
                        return response.json()
                    except ValueError as exc:  # requests' JSONDecodeError is a ValueError
                        raise MalformedResponse(f"HTTP 200 body is not JSON: {exc}") from None
                cause = f"HTTP {response.status_code}"
                if response.status_code < 500 and response.status_code not in RETRIABLE_STATUS:
                    raise RequestRejected(cause)
            if attempt < self.max_attempts:
                time.sleep(self.retry_delay * attempt)
        raise RetriesExhausted(self.max_attempts, cause)
