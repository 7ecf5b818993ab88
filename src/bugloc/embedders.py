"""Embedding providers behind one interface, which embeds a batch of texts
as one `(len(texts), dimension)` float64 matrix, a row per text.

HashingEmbedder is the deterministic in-process provider used by tests and
offline runs; RemoteEmbedder talks to an HTTPS batch endpoint; CachedEmbedder
wraps any provider with a persistent (provider_id, content-hash) cache of one
row per text, so re-runs cost zero provider calls. The cache file is one JSON
object, rewritten atomically once per provider call that misses; only the new
entries are encoded, and appended to the file's text kept in memory.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
from pathlib import Path

import numpy as np
import requests

from .code_index import ConfigurationError
from .ioutil import (
    MalformedResponse,
    RequestRejected,
    RetriesExhausted,
    atomic_write_text,
    post_with_retry,
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
    max_batch_size: int = 64

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        """Any number of texts, which implementations slice into transport
        batches themselves, as a new (len(texts), dimension) float64 matrix."""
        raise NotImplementedError

    def embed(self, text: str) -> np.ndarray:
        return self.embed_batch([text])[0]


class HashingEmbedder(EmbeddingProvider):
    """Signed token-hashing bag-of-words embedder.

    Identical text always yields a bitwise-identical vector: token buckets and
    signs come from MD5, never from Python's salted hash().
    """

    def __init__(self, dimension: int = 64):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = dimension
        self.provider_id = f"hashing-{dimension}"
        # token -> (bucket, sign); entries are pure functions of the token, so
        # threads that race on one only ever write the same value
        self._buckets: dict[str, tuple[int, float]] = {}

    def _bucket(self, token: str) -> tuple[int, float]:
        hit = self._buckets.get(token)
        if hit is None:
            digest = hashlib.md5(token.lower().encode("utf-8")).digest()
            bucket = int.from_bytes(digest[:4], "big") % self.dimension
            hit = self._buckets[token] = (bucket, 1.0 if digest[4] & 1 else -1.0)
        return hit

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        out = np.zeros((len(texts), self.dimension))
        for vec, text in zip(out, texts):
            pairs = np.array([self._bucket(token) for token in tokenize(text)]).reshape(-1, 2)
            # sums of +-1.0 are exact integers, so the order of adding is free
            vec[:] = np.bincount(pairs[:, 0].astype(np.intp), weights=pairs[:, 1], minlength=self.dimension)
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
        api_key = os.environ.get(api_key_env, "")
        if not api_key:
            raise ConfigurationError(
                f"environment variable {api_key_env} is not set for embedding provider {model!r}"
            )
        self.model = model
        self.dimension = dimension
        self.base_url = base_url.rstrip("/")
        self.max_batch_size = max_batch_size
        self.max_attempts = max_attempts
        self.timeout = timeout
        self.retry_delay = retry_delay
        self.provider_id = f"remote:{model}"
        self._session = session or requests.Session()
        self._session.headers["Authorization"] = f"Bearer {api_key}"

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        batches = [
            self._post_batch(texts[start : start + self.max_batch_size])
            for start in range(0, len(texts), self.max_batch_size)
        ]
        return np.concatenate([np.empty((0, self.dimension)), *batches])

    def _post_batch(self, texts: list[str]) -> np.ndarray:
        payload = {"model": self.model, "input": texts}
        try:
            body = post_with_retry(
                self._session, f"{self.base_url}/embeddings", payload,
                self.timeout, self.max_attempts, self.retry_delay,
            )
        except RequestRejected as exc:
            raise ProviderContractError(
                f"provider {self.provider_id} rejected request: {exc}"
            ) from None
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
        self.max_batch_size = inner.max_batch_size
        self.cache_path = Path(cache_path) if cache_path else None
        self._cache: dict[str, np.ndarray] = {}  # key -> one float64 row
        self._text = ["{"]  # the cache file's text, in pieces, without its closing "}"
        self._lock = threading.Lock()  # guards _cache, _text and the cache file
        if self.cache_path and self.cache_path.exists():
            text = self.cache_path.read_text(encoding="utf-8")
            self._cache = {key: np.array(vec, dtype=np.float64) for key, vec in json.loads(text).items()}
            self._text = [text.rstrip()[:-1]]

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
        """Append `new`, the entries just added to the cache, to the text and
        rewrite the file; the caller holds the lock."""
        encoded = ", ".join(f"{json.dumps(key)}: {json.dumps(vec.tolist())}" for key, vec in new)
        earlier = len(self._cache) > len(new)  # entries before these need a separator
        self._text.append(f", {encoded}" if earlier else encoded)
        atomic_write_text(self.cache_path, *self._text, "}")
