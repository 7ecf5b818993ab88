"""Outside-in tracing of bugloc's layers.

The program is not changed: in a traced run, `install` replaces public
functions under the names their callers import them by (for example
`bugloc.localizers.shortlist_files`) with wrappers that record spans and
counts, and `uninstall` puts the originals back. Provider objects made by the
benchmark are wrapped per instance with `wrap_method`.

A span has a name, a start, an end, a parent span and the (bug_id, run_id)
it serves. Spans are kept per thread in memory and written out at the end.
A span's self time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    bug_id: str | None
    run_id: int | None
    thread: int


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[list[Span]] = []
        self._ids = itertools.count(1)
        self.counts: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans = []
            local.stack = []
            local.context = (None, None)
            with self._lock:
                self._per_thread.append(local.spans)
        return local

    def set_context(self, bug_id: str | None, run_id: int | None) -> None:
        self._state().context = (bug_id, run_id)

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def call(self, name: str, fn, *args, **kwargs):
        state = self._state()
        span_id = next(self._ids)
        parent = state.stack[-1] if state.stack else None
        state.stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            state.stack.pop()
            bug_id, run_id = state.context
            state.spans.append(
                Span(span_id, parent, name, start, end, bug_id, run_id, threading.get_ident())
            )

    def wrap(self, name: str, fn, after=None):
        """`fn` inside a span; `after(result, *args, **kwargs)` may count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def wrap_method(self, obj, method: str, name: str, after=None) -> None:
        setattr(obj, method, self.wrap(name, getattr(obj, method), after))

    # -- patching ----------------------------------------------------------

    def patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- results -----------------------------------------------------------

    def spans(self) -> list[Span]:
        with self._lock:
            return [s for spans in self._per_thread for s in spans]

    def aggregate(self) -> dict[str, dict[str, float]]:
        """name -> {calls, total_ms, self_ms} over the recorded spans."""
        spans = self.spans()
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s.parent_id is not None:
                child_time[s.parent_id] += s.end - s.start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        for s in spans:
            entry = out[s.name]
            duration = s.end - s.start
            entry["calls"] += 1
            entry["total_ms"] += 1000 * duration
            entry["self_ms"] += 1000 * (duration - child_time.get(s.span_id, 0.0))
        return dict(out)

    def dump(self, path: str | Path, extra: dict | None = None) -> None:
        spans = self.spans()
        origin = min((s.start for s in spans), default=0.0)
        payload = {
            "spans": [
                {
                    "id": s.span_id,
                    "parent": s.parent_id,
                    "name": s.name,
                    "start_ms": round(1000 * (s.start - origin), 4),
                    "end_ms": round(1000 * (s.end - origin), 4),
                    "bug_id": s.bug_id,
                    "run_id": s.run_id,
                    "thread": s.thread,
                }
                for s in sorted(spans, key=lambda s: s.start)
            ],
            "counts": dict(self.counts),
            **(extra or {}),
        }
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(json.dumps(payload), encoding="utf-8")


def install(tracer: Tracer) -> None:
    """Patch bugloc's layer boundaries. Undo with `tracer.uninstall()`."""
    from bugloc import harness, localizers, tools

    count = tracer.count

    def after_shortlist(result, bug, *args, **kwargs):
        count("embedding.shortlist_truth_hits", any(p in bug.ground_truth for p in result.paths()))

    def after_run_localization(result, bug, registry, provider, config, *args, **kwargs):
        transcript = result[1]
        count("agent.localizations")
        count("agent.iterations", transcript.iterations_used)
        count("agent.forced_final", transcript.iterations_used == config.max_iterations)

    def after_resolve(result, *args, **kwargs):
        for r in result:
            if r.rank is None:
                count("resolve.dropped")
            elif r.resolution == "exact":
                count("resolve.exact")
            else:
                count("resolve.jaccard")

    def after_dispatch(result, name, arguments):
        count("tools.calls")
        count("tools.result_chars", len(result.render()))
        count("tools.fallbacks", result.note is not None)

    def traced_registry(*args, **kwargs):
        registry = tracer.call("tools.make_tool_registry", make_tool_registry, *args, **kwargs)
        dispatch = registry.dispatch

        def traced_dispatch(name, arguments):
            result = tracer.call(f"tools.{name}", dispatch, name, arguments)
            after_dispatch(result, name, arguments)
            return result

        registry.dispatch = traced_dispatch
        return registry

    def after_fuzzy(result, query, index, *args, **kwargs):
        count("fuzzy.names_scanned", len(index.method_locator))
        count("fuzzy.recovered", bool(result))

    def counted_distance(a, b):
        count("fuzzy.names_scanned")
        return distance(a, b)

    make_tool_registry = localizers.make_tool_registry
    distance = tools.damerau_levenshtein
    original_vsm = localizers.VsmModel

    class TracedVsmModel(original_vsm):
        def __init__(self, corpus):
            tracer.call("vsm.fit", super().__init__, corpus)

        def score(self, query_text):
            return tracer.call("vsm.score", super().score, query_text)

    def after_build_index(result, *args, **kwargs):
        count("code_index.files_parsed", len(result.files))

    def after_update_index(result, index, changeset, *args, **kwargs):
        count("code_index.files_parsed",
              len(changeset.added) + len(changeset.modified) + len(changeset.renamed))

    def after_build_embedding(result, *args, **kwargs):
        count("embedding.chunks", len(result))

    def after_update_embeddings(result, eindex, changeset, *args, **kwargs):
        count("embedding.files_refreshed",
              len(changeset.added) + len(changeset.modified) + len(changeset.renamed))

    def archive_size(key):
        def after(result, index, path, *args, **kwargs):
            count(key, Path(path).stat().st_size)

        return after

    tracer.patch(localizers, "shortlist_files",
                 tracer.wrap("embedding.shortlist", localizers.shortlist_files, after_shortlist))
    tracer.patch(localizers, "run_localization",
                 tracer.wrap("agent.run_localization", localizers.run_localization, after_run_localization))
    tracer.patch(localizers, "resolve_predictions",
                 tracer.wrap("resolve.resolve_predictions", localizers.resolve_predictions, after_resolve))
    tracer.patch(localizers, "make_tool_registry", traced_registry)
    tracer.patch(localizers, "VsmModel", TracedVsmModel)
    tracer.patch(tools, "fuzzy_method_candidates",
                 tracer.wrap("fuzzy.fuzzy_method_candidates", tools.fuzzy_method_candidates, after_fuzzy))
    tracer.patch(tools, "damerau_levenshtein", counted_distance)
    for attr, name, after in (
        ("build_index", "code_index.build_index", after_build_index),
        ("update_index", "code_index.update_index", after_update_index),
        ("diff_source_trees", "code_index.diff_source_trees", None),
        ("save_code_index", "code_index.save_code_index", archive_size("code_index.archive_bytes")),
        ("load_code_index", "code_index.load_code_index", None),
        ("build_embedding_index", "embedding.build_embedding_index", after_build_embedding),
        ("update_embeddings", "embedding.update_embeddings", after_update_embeddings),
        ("save_embedding_index", "embedding.save_embedding_index", archive_size("embedding.archive_bytes")),
        ("load_embedding_index", "embedding.load_embedding_index", None),
        ("build_report", "metrics.build_report", None),
        ("aggregate_runs", "metrics.aggregate_runs", None),
    ):
        tracer.patch(harness, attr, tracer.wrap(name, getattr(harness, attr), after))


def wrap_embedder(tracer: Tracer, provider) -> None:
    """Trace an embedding provider object; a CachedEmbedder's inner provider
    is traced too, so cache hits, misses and the cache's own time show."""
    inner = getattr(provider, "inner", None)

    def texts_counter(key):
        def after(result, texts):
            tracer.count(key, len(texts))

        return after

    if inner is None:
        tracer.wrap_method(provider, "embed_batch", "embedders.embed", texts_counter("embedders.texts_embedded"))
        return

    def after_inner(result, texts):
        tracer.count("embedders.texts_embedded", len(texts))
        tracer.count("embedders.cache_misses", len(texts))

    tracer.wrap_method(provider, "embed_batch", "embedders.cache", texts_counter("embedders.cache_texts"))
    tracer.wrap_method(inner, "embed_batch", "embedders.embed", after_inner)
