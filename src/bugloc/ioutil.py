"""Small I/O helpers: every output file is written atomically, and every
remote POST goes through one retry policy."""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

import requests

SCHEMA_VERSION = 1
RETRIABLE_STATUS = (408, 409, 429)  # and every 5xx


def atomic_write_text(path: str | os.PathLike, *texts: str) -> None:
    """Write `texts` one after another via a temp file in the same directory,
    then rename; several pieces are written without joining them first."""
    _atomic_write(path, texts, "w", encoding="utf-8")


def atomic_write_bytes(path: str | os.PathLike, data: bytes) -> None:
    """Write `data` via a temp file in the same directory, then rename."""
    _atomic_write(path, (data,), "wb")


def _atomic_write(path, pieces, mode: str, **open_args) -> None:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, mode, **open_args) as handle:
            handle.writelines(pieces)
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


def post_with_retry(session, url: str, payload, timeout: float, attempts: int, delay: float):
    """POST `payload` as JSON and return the decoded JSON body of the first
    HTTP 200 response; a body that is not JSON raises MalformedResponse.

    Makes at most `attempts` POSTs. Transport errors, 408/409/429 and 5xx are
    retried after sleeping `delay * n` seconds following the n-th failure; any
    other status raises RequestRejected at once.
    """
    cause = "unknown"
    for attempt in range(1, attempts + 1):
        try:
            response = session.post(url, json=payload, timeout=timeout)
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
        if attempt < attempts:
            time.sleep(delay * attempt)
    raise RetriesExhausted(attempts, cause)
