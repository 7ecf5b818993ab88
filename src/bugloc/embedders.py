"""Embedding providers behind one interface, which embeds a batch of texts
as one `(len(texts), dimension)` float64 matrix, a row per text.

HashingEmbedder is the deterministic in-process provider used by tests and
offline runs; RemoteEmbedder talks to an HTTPS batch endpoint; CachedEmbedder
wraps any provider with a persistent (provider_id, content-hash) cache of one
row per text, so re-runs cost zero provider calls. The cache file is one JSON
object. A provider call that misses writes its new entries, and only those,
over the closing brace at the file's current end, so the file grows in place,
as a log does; the first miss creates the file atomically. An append cut
short leaves the file without its closing brace: a load keeps the entries
before the damage and warns, and the next miss rewrites the file whole,
atomically, from the entries in memory. Two processes appending to one cache
file at the same moment are not supported.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import requests

from .ioutil import (
    JsonEndpoint,
    MalformedResponse,
    RequestRejected,
    RetriesExhausted,
    atomic_write_bytes,
)
from .tokens import tokenize

logger = logging.getLogger(__name__)


class EmbeddingProviderError(Exception):
    pass


class RetriableProviderError(EmbeddingProviderError):
    """Transport-level failure that persisted across retry attempts."""

    def __init__(self, provider_id: str, attempts: int, cause: str):
        super().__init__(f"provider {provider_id!r} failed after {attempts} attempt(s): {cause}")
        self.provider_id = provider_id
        self.attempts = attempts


class ProviderContractError(EmbeddingProviderError):
    """Provider returned something that violates its declared contract."""


class EmbeddingProvider:
    provider_id: str = ""
    dimension: int = 0

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        """Any number of texts, which implementations slice into transport
        batches themselves, as a new (len(texts), dimension) float64 matrix."""
        raise NotImplementedError

    def embed(self, text: str) -> np.ndarray:
        return self.embed_batch([text])[0]


class HashingEmbedder(EmbeddingProvider):
    """Signed token-hashing bag-of-words embedder (feature hashing, as in
    Weinberger et al., 2009), each row scaled to unit length.

    A token's bucket and sign come from the MD5 of its lowercased text, never
    from Python's salted hash(), so identical text always yields a bitwise
    identical vector. A row sums sign x count over the text's distinct
    tokens; sums of +-1 are exact integers, so the order of adding is free.
    A memo maps each token seen to its signed code, (bucket + 1) x sign.
    Entries are pure functions of the token, so threads that race on one
    entry write the same value.
    """

    def __init__(self, dimension: int = 64):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = dimension
        self.provider_id = f"hashing-{dimension}"
        self._codes: dict[str, int] = {}  # token -> (bucket + 1) * sign

    def _code(self, token: str) -> int:
        digest = hashlib.md5(token.lower().encode("utf-8")).digest()
        bucket = int.from_bytes(digest[:4], "big") % self.dimension
        sign = 1 if digest[4] & 1 else -1
        code = self._codes[token] = sign * (bucket + 1)
        return code

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        out = np.zeros((len(texts), self.dimension))
        for vec, text in zip(out, texts):
            counts = Counter(tokenize(text))
            codes = list(map(self._codes.get, counts))
            if None in codes:
                codes = [self._code(token) if code is None else code for token, code in zip(counts, codes)]
            signed = np.array(codes, dtype=np.intp)
            weights = np.sign(signed) * np.fromiter(counts.values(), np.float64, len(counts))
            vec[:] = np.bincount(np.abs(signed) - 1, weights=weights, minlength=self.dimension)
            norm = float(np.linalg.norm(vec))
            if norm > 0.0:
                vec /= norm
        return out


class RemoteEmbedder(EmbeddingProvider):
    """HTTPS batch embedding endpoint (request: list of texts; response: list
    of float vectors). The API key comes from an environment variable and is
    checked at construction so misconfiguration fails before any work."""

    def __init__(
        self,
        model: str,
        dimension: int,
        base_url: str,
        api_key_env: str = "BUGLOC_EMBED_API_KEY",
        max_batch_size: int = 64,
        max_attempts: int = 3,
        timeout: float = 60.0,
        session: requests.Session | None = None,
        retry_delay: float = 1.0,
    ):
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be at least 1, got {max_batch_size}")
        self._endpoint = JsonEndpoint(
            base_url, api_key_env, f"embedding provider {model!r}", max_attempts, timeout, session, retry_delay
        )
        self.model = model
        self.dimension = dimension
        self.max_batch_size = max_batch_size
        self.provider_id = f"remote:{model}"

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        batches = [
            self._post_batch(texts[start : start + self.max_batch_size])
            for start in range(0, len(texts), self.max_batch_size)
        ]
        return np.concatenate([np.empty((0, self.dimension)), *batches])

    def _post_batch(self, texts: list[str]) -> np.ndarray:
        payload = {"model": self.model, "input": texts}
        try:
            body = self._endpoint.post("/embeddings", payload)
        except RequestRejected as exc:
            raise ProviderContractError(f"provider {self.provider_id} rejected request: {exc}") from None
        except RetriesExhausted as exc:
            raise RetriableProviderError(self.provider_id, exc.attempts, exc.cause) from None
        except MalformedResponse as exc:
            raise ProviderContractError(f"malformed embedding response: {exc}") from None
        return self._parse(body, expected=len(texts))

    def _parse(self, body, expected: int) -> np.ndarray:
        try:
            vectors = np.array([row["embedding"] for row in body["data"]], dtype=np.float64)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ProviderContractError(f"malformed embedding response: {exc}") from None
        if vectors.shape != (expected, self.dimension):
            raise ProviderContractError(
                f"provider {self.provider_id} returned vectors of shape {vectors.shape} "
                f"for {expected} inputs of declared dimension {self.dimension}"
            )
        if not np.isfinite(vectors).all():  # a JSON null reads as NaN
            raise ProviderContractError("provider returned a non-finite vector")
        return vectors


class CachedEmbedder(EmbeddingProvider):
    """Persistent content-addressed cache in front of another provider."""

    def __init__(self, inner: EmbeddingProvider, cache_path: str | Path | None = None):
        self.inner = inner
        self.provider_id = inner.provider_id
        self.dimension = inner.dimension
        self.cache_path = Path(cache_path) if cache_path else None
        self._cache: dict[str, np.ndarray] = {}  # key -> one float64 row
        self._damaged = False  # the file read was not whole, so the next save rewrites it
        self._lock = threading.Lock()  # guards _cache, _damaged and the cache file
        if self.cache_path and self.cache_path.exists():
            self._cache, self._damaged = _read_cache(self.cache_path)

    def _key(self, text: str) -> str:
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return f"{self.provider_id}:{digest}"

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        keys = [self._key(t) for t in texts]
        with self._lock:
            missing = {key: text for key, text in zip(keys, texts) if key not in self._cache}
        if missing:
            # Outside the lock, so threads wait on the provider concurrently.
            fetched = self.inner.embed_batch(list(missing.values()))
            with self._lock:
                # Another thread may have cached some of these meanwhile.
                new = [(key, vec) for key, vec in zip(missing, fetched) if key not in self._cache]
                self._cache.update(new)
                if new and self.cache_path is not None:
                    self._save(new)
        with self._lock:
            # a new matrix, so a caller that writes into it leaves the cache as it is
            return np.array([self._cache[key] for key in keys]).reshape(len(keys), self.dimension)

    def _save(self, new: list[tuple[str, np.ndarray]]) -> None:
        """Write `new`, the entries just added to the cache, over the closing
        brace at the file's current end; the caller holds the lock. A file
        that is missing, was read damaged or does not end in a brace is
        written whole instead, atomically, from the entries in memory."""
        if not self._damaged:
            try:
                with open(self.cache_path, "r+b") as handle:
                    start = handle.seek(max(0, handle.seek(0, os.SEEK_END) - _TAIL_BYTES))
                    tail = handle.read().rstrip()
                    before = tail[:-1].rstrip()  # "{" when the object is empty
                    if tail.endswith(b"}") and before:
                        handle.seek(start + len(tail) - 1)
                        handle.write(b"" if before.endswith(b"{") else b", ")
                        handle.write(_encode_entries(new) + b"}")
                        handle.truncate()  # any whitespace after the brace
                        return
            except FileNotFoundError:
                pass
        atomic_write_bytes(self.cache_path, b"{" + _encode_entries(self._cache.items()) + b"}")
        self._damaged = False


_TAIL_BYTES = 4096  # read back from a cache file's end to find its closing brace
# A cache file's opening brace, one entry (a string key, then a list that
# holds no list) as its writer spaces it or as any JSON writer may, and a comma.
_CACHE_OPEN = re.compile(rb"\s*\{")
_CACHE_ENTRY = re.compile(rb'\s*("(?:[^"\\]|\\.)*")\s*:\s*(\[[^\]]*\])')
_CACHE_COMMA = re.compile(rb"\s*,")


def _encode_entries(entries) -> bytes:
    """The `"key": [row]` of each (key, row), joined by ", ", as JSON text."""
    return ", ".join(f"{json.dumps(key)}: {json.dumps(vec.tolist())}" for key, vec in entries).encode()


def _read_cache(path: Path) -> tuple[dict[str, np.ndarray], bool]:
    """The rows of a cache file by key, and whether the file was damaged. Of
    a file cut short, as an append that did not finish leaves it, or damaged
    in one entry, the entries before the first that is not whole are kept,
    with a warning."""
    data = path.read_bytes()
    try:
        return {key: np.array(vec, dtype=np.float64) for key, vec in json.loads(data).items()}, False
    except (AttributeError, TypeError, ValueError, RecursionError):  # AttributeError: not an object
        pass
    rows = {}
    opened = _CACHE_OPEN.match(data)
    at = opened and opened.end()
    while at and (entry := _CACHE_ENTRY.match(data, at)):
        try:
            rows[json.loads(entry[1])] = np.array(json.loads(entry[2]), dtype=np.float64)
        except (TypeError, ValueError):
            break
        comma = _CACHE_COMMA.match(data, entry.end())
        at = comma and comma.end()
    logger.warning("embedding cache %s is damaged; %d entries before the damage are kept", path, len(rows))
    return rows, True
