"""bugloc benchmark: seeded inputs, timed public-API workloads, correctness checks.

    python3 perfbench/run.py --workload genloc-1v --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from `src/`.
The generator (gen.py) makes a Java code base, a version chain, bug reports and
one scripted replay per bug from the seed; the program sees only those files.
Each workload then drives the API the `evaluate` command uses (VersionStore,
evaluate_technique, the localizer classes, write_report_files and
write_transcript) in a closed loop for about --seconds seconds. Model latency
is left out by the scripted chat provider.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a traced
run (see tracer.py) and the tracing overhead. Either way every correctness
check in checks.py runs after the timed phase, and `correct` is false if one
fails (the failures go to standard error).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"

RUNS = 1  # runs per evaluate_technique call; a pass is one such call
MIN_LOCALIZATIONS = 100  # so that ten samples lie beyond bug_p90_ms
# Set-ups, version updates and reloads take well under a second each, and the
# speed of a shared machine drifts over seconds, so they are measured in every
# cycle, spread over the timed phase, and reported as medians, except reloads
# (see `end_to_end_metrics`).
MIN_CYCLES = 4
# Fresh stores reload every archive at two points of a cycle, before and after
# its pass, each time until this is spent and at least MIN_RELOADS have run.
RELOAD_SECONDS = 0.5
MIN_RELOADS = 2
SHORTLIST_K = 50
# One worker thread: with two, the per-bug latency percentiles of a cached
# genloc workload flipped between two regimes from run to run on the same
# seed (p50 near 180 or near 300 ms), so no run length within the time
# budget made them steady.
WORKERS = 1


@dataclass(frozen=True)
class Workload:
    technique: str  # genloc | embedding_only | vsm
    cached: bool  # CachedEmbedder with a cache file, as the CLI configures it
    chain: bool  # bugs spread over every version
    n_files: int
    n_bugs: int
    n_versions: int
    dimension: int = 64  # the hashing embedder's configured default


# 500 files is the smallest corpus size ROADMAP item 1 names. genloc-1v and
# vsm-1v share one corpus, bug set and replays for a seed.
# Their bugs are all on the first version; the later versions carry no bugs
# and exist only so that these workloads report version_update_p50_ms and
# reload_s, which every workload must print. With 34 bugs, MIN_CYCLES passes
# exceed MIN_LOCALIZATIONS. version-chain ranks by retrieval alone, and at 64
# hash buckets collisions make top-1 retrieval a coin toss for about a third
# of the bugs, so its accuracy would vary between seeds by more than its
# bound; it uses 128, and 120 bugs, with which acc_at_1 over seeds 101-110
# had a spread of 0.10 (0.23 with 60 bugs).
WORKLOADS = {
    "genloc-1v": Workload("genloc", False, False, 500, 34, 3),
    "vsm-1v": Workload("vsm", False, False, 500, 34, 3),
    "version-chain": Workload("embedding_only", True, True, 500, 120, 4, dimension=128),
}


def import_program():
    src = ROOT / "src"
    if not (src / "bugloc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bugloc sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))


class RoutedReplayProvider:
    """Chat provider that sends each bug's conversation to that bug's replay.
    The bug id is read from the bug-report message the prompt starts with."""

    provider_id = "scripted-routed"

    def __init__(self, by_bug: dict):
        self.by_bug = by_bug

    def complete(self, messages, tool_schemas, temperature):
        first_line = messages[1].content.split("\n", 1)[0]
        return self.by_bug[first_line.removeprefix("Bug report ")].complete(
            messages, tool_schemas, temperature
        )


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Bench:
    """One workload at one seed: inputs, timed passes, checks and metrics."""

    def __init__(self, name: str, seed: int, work: Path):
        import gen
        from bugloc import ScriptedChatProvider, load_bug_reports

        self.spec = WORKLOADS[name]
        self.work = work
        self.ds = gen.generate(
            seed, self.spec.n_files, self.spec.n_bugs, self.spec.n_versions,
            bug_versions=None if self.spec.chain else 1,
        )
        paths = gen.write_dataset(self.ds, work / "input")
        self.repo = paths["repo"]
        self.bugs = load_bug_reports(paths["dataset"])
        self.replays = {
            p.stem: ScriptedChatProvider.from_file(p) for p in sorted(paths["replays"].glob("*.json"))
        }
        self.cache_path = work / "embeddings-cache.json"
        self.pristine_cache = work / "embeddings-cache.pristine.json"
        self.tracer = None  # set while a traced region runs
        self.predict_ms: list[float] = []
        self.outcomes: list = []  # one RunOutcome per pass
        self.pass_walls: list[tuple[bool, float]] = []  # (traced, seconds)
        self.candidates: dict[str, set[str]] = defaultdict(set)  # bug id -> candidate tool results
        self._run_ids: dict[str, int] = {}

    # -- program objects ---------------------------------------------------

    def provider(self):
        """A fresh embedding provider; a cached one starts from a copy of the
        cache file the warm-up left (see `warm_up`)."""
        from bugloc import CachedEmbedder, HashingEmbedder
        from tracer import wrap_embedder

        if self.spec.technique == "vsm":
            return None
        if self.spec.cached:
            if self.pristine_cache.exists():
                shutil.copyfile(self.pristine_cache, self.cache_path)
            provider = CachedEmbedder(HashingEmbedder(self.spec.dimension), self.cache_path)
        else:
            provider = HashingEmbedder(self.spec.dimension)
        if self.tracer is not None:
            wrap_embedder(self.tracer, provider)
        return provider

    def store(self, cache_dir: Path, provider):
        """A VersionStore whose `get` calls are timed into `store.get_log`."""
        from bugloc.harness import VersionStore

        store = VersionStore(self.repo, "java", provider, cache_dir)
        store.get_log = []
        get = store.get
        tracer = self.tracer

        def timed_get(version_id):
            start = time.perf_counter()
            try:
                if tracer is not None:
                    return tracer.call("harness.version_get", get, version_id)
                return get(version_id)
            finally:
                store.get_log.append((version_id, time.perf_counter() - start))

        store.get = timed_get
        return store

    def factory(self, provider):
        from bugloc import AgentLocalizer, EmbeddingLocalizer, VsmLocalizer

        spec = self.spec
        tracer = self.tracer
        chat = RoutedReplayProvider(self.replays)
        if tracer is not None:
            tracer.wrap_method(chat, "complete", "chat.complete")

        def make():
            if spec.technique == "vsm":
                localizer = VsmLocalizer()
            elif spec.technique == "embedding_only":
                localizer = EmbeddingLocalizer(provider=provider, shortlist_k=SHORTLIST_K)
            else:
                localizer = AgentLocalizer(
                    chat_provider=chat, embedding_provider=provider, shortlist_k=SHORTLIST_K
                )
            predict = localizer.predict

            def timed_predict(bug):
                run_id = self._run_ids[bug.bug_id] = self._run_ids.get(bug.bug_id, 0) + 1
                start = time.perf_counter()
                try:
                    if tracer is None:
                        return predict(bug)
                    tracer.set_context(bug.bug_id, run_id)
                    return tracer.call("localizers.predict", predict, bug)
                finally:
                    self.predict_ms.append(1000 * (time.perf_counter() - start))

            localizer.predict = timed_predict
            if tracer is not None:
                localizer.fit = tracer.wrap("localizers.fit", localizer.fit)
            return localizer

        return make

    # -- phases ------------------------------------------------------------

    def setup(self, cache_dir: Path):
        """Build the first version's indexes (and archives) from scratch in a
        fresh store; returns the seconds taken, the store and its provider."""
        shutil.rmtree(cache_dir, ignore_errors=True)
        provider = self.provider()
        store = self.store(cache_dir, provider)
        gc.collect()
        start = time.perf_counter()
        store.get(self.ds.versions[0])
        return time.perf_counter() - start, store, provider

    def warm_up(self) -> None:
        """An untimed first set-up, which pays one-off costs (imports, regex
        compilation) that later set-ups in a long-lived process do not. In
        cached workloads it also fills the cache file with the first
        version's chunk vectors, as a previous run of the CLI would have;
        every later provider starts from a copy of that file, so its query
        vectors are not cached. In version-chain the bug queries are cached
        too, so its cache misses come from changed files only."""
        from bugloc import chunk_text
        from bugloc.validation import bug_text

        _, _, provider = self.setup(self.work / "warmup")
        shutil.rmtree(self.work / "warmup")
        if self.spec.chain:
            # A short query is embedded as its single chunk's text.
            queries = [chunk_text(bug_text(bug)) for bug in self.bugs]
            if any(len(q) != 1 for q in queries):
                raise ValueError("a generated bug text is longer than one chunk")
            provider.embed_batch([q[0].text for q in queries])
        if self.spec.cached:
            shutil.copyfile(self.cache_path, self.pristine_cache)

    def run_pass(self, store, provider):
        from bugloc.agent import write_transcript
        from bugloc.harness import evaluate_technique, write_report_files

        out = self.work / "out"
        self._run_ids = {}
        gc.collect()
        start = time.perf_counter()
        outcome = evaluate_technique(
            self.bugs, self.factory(provider), store, self.spec.technique, runs=RUNS,
            workers=WORKERS,
        )

        def write():
            write_report_files(outcome.report, out, outcome.failures)
            for seq, transcript in enumerate(outcome.transcripts):
                write_transcript(transcript, out / "transcripts" / f"{transcript.bug_id}-{seq}.json")

        if self.tracer is not None:
            self.tracer.call("harness.report_write", write)
        else:
            write()
        wall = time.perf_counter() - start
        # Keep what the checks and metrics need, not the transcripts, so the
        # benchmark's own memory does not grow with the number of passes.
        for transcript in outcome.transcripts:
            self.candidates[transcript.bug_id].update(candidate_results(transcript))
        outcome.transcripts = []
        self.outcomes.append(outcome)
        self.pass_walls.append((self.tracer is not None, wall))
        return outcome

    def reopen(self, archive_dir: Path, provider) -> list:
        """A fresh store that loads every version's archives; its `get_log`."""
        store = self.store(archive_dir, provider)
        gc.collect()
        for version in self.ds.versions:
            store.get(version)
        return store.get_log

    def reloads(self, archive_dir: Path, provider) -> list:
        """Fresh stores that load every archive, until RELOAD_SECONDS is spent."""
        logs = []
        while len(logs) < MIN_RELOADS or sum(s for log in logs for _, s in log) < RELOAD_SECONDS:
            logs.append(self.reopen(archive_dir, provider))
        return logs

    def cycle(self, index: int) -> dict:
        """One round of the timed phase: a set-up in a fresh archive directory,
        fresh stores that load the previous cycle's archives, a pass over every
        bug (in version-chain it builds the later versions incrementally as
        their bugs come up), the remaining versions built, then fresh stores
        that load this cycle's archives. Single-version workloads build their
        second version before the pass, so that version updates, like
        reloads, are taken at two points of each cycle."""
        cycle_dir = self.work / f"cycle{index}"
        previous = self.work / f"cycle{index - 1}"
        setup_s, building, provider = self.setup(cycle_dir)
        if not self.spec.chain:
            building.get(self.ds.versions[1])
        reload_logs = self.reloads(previous, provider) if previous.is_dir() else []
        shutil.rmtree(previous, ignore_errors=True)
        self.run_pass(building, provider)
        gc.collect()
        for version in self.ds.versions:
            building.get(version)
        reload_logs += self.reloads(cycle_dir, provider)
        return {"dir": cycle_dir, "building": building, "setup_s": setup_s,
                "update_log": building.get_log, "reload_logs": reload_logs}


def candidate_results(transcript) -> list[str]:
    """What the candidate-filenames tool returned in one conversation."""
    messages = transcript.messages
    return [
        reply.tool_result
        for call, reply in zip(messages, messages[1:])
        if call.tool_call is not None and call.tool_call[0] == "get_candidate_filenames"
    ]


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracer import Tracer, install

    work = WORK_ROOT / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        bench = Bench(name, seed, work)
        spec = bench.spec
        bench.warm_up()

        # Timed phase: whole cycles while the next one is expected to end near
        # the deadline. A traced run alternates untraced and traced cycles,
        # starting untraced, so it has at least one of each.
        tracer = Tracer()
        cycles: list[dict] = []
        iterations: list[tuple[bool, float]] = []  # (traced, seconds) per cycle
        while True:
            traced = trace and len(iterations) % 2 == 1
            began = time.perf_counter()
            if traced:
                bench.tracer = tracer
                install(tracer)
            try:
                if cycles:  # only the last cycle's indexes stay in memory
                    del cycles[-1]["building"]
                cycles.append(bench.cycle(len(iterations)))
            finally:
                if traced:
                    tracer.uninstall()
                    bench.tracer = None
            iterations.append((traced, time.perf_counter() - began))
            elapsed = sum(wall for _, wall in iterations)
            if (
                elapsed + elapsed / len(iterations) / 2 >= seconds
                and len(bench.predict_ms) >= MIN_LOCALIZATIONS
                and len(iterations) >= MIN_CYCLES
            ):
                break

        # Memory and disk of the program and the timed phase, before the
        # checks build references of their own.
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        on_disk = dir_bytes(cycles[-1]["dir"])
        if spec.cached:
            on_disk += bench.cache_path.stat().st_size
        errors = check(bench, cycles[-1])

        if trace:
            metrics = layer_metrics(bench, tracer, iterations)
            OUT_ROOT.mkdir(exist_ok=True)
            tracer.dump(OUT_ROOT / f"trace-{name}-s{seed}.json")
        else:
            metrics = end_to_end_metrics(bench, cycles, peak_rss, on_disk)
        attempted = sum(len(o.report.per_bug) for o in bench.outcomes)
        failed = sum(len(o.failures) for o in bench.outcomes)
        for error in errors:
            print(f"perfbench: check failed: {error}", file=sys.stderr)
        return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def first_gets(log) -> dict[str, float]:
    """Seconds of each version's first `get` in a store: its build or load."""
    seen: dict[str, float] = {}
    for version, seconds in log:
        seen.setdefault(version, seconds)
    return seen


def end_to_end_metrics(bench: Bench, cycles: list[dict], peak_rss_kb: int, on_disk: int) -> dict:
    first = bench.ds.versions[0]
    updates = [s for c in cycles for v, s in first_gets(c["update_log"]).items() if v != first]
    reloads = [sum(first_gets(log).values()) for c in cycles for log in c["reload_logs"]]
    busy = sum(wall for _, wall in bench.pass_walls)
    reports = [o.report for o in bench.outcomes]
    mean = statistics.fmean
    values = {
        "setup_s": (statistics.median(c["setup_s"] for c in cycles), "s"),
        "bugs_per_s": (len(bench.predict_ms) / busy, "1/s"),
        "bug_p50_ms": (statistics.median(bench.predict_ms), "ms"),
        "bug_p90_ms": (percentile(bench.predict_ms, 90), "ms"),
        "version_update_p50_ms": (1000 * statistics.median(updates), "ms"),
        # A mean, not a median: the machine's speed switches between a fast
        # and a slow state that each last seconds, and a median of a few
        # dozen reloads jumps from one state's level to the other's as the
        # share of slow samples crosses one half.
        "reload_s": (statistics.fmean(reloads), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
        "archive_mb": (on_disk / 2**20, "MB"),
        "acc_at_1": (mean([r.accuracy_at[1] for r in reports]), "ratio"),
        "acc_at_10": (mean([r.accuracy_at[10] for r in reports]), "ratio"),
        "mrr_at_10": (mean([r.mrr_at_10 for r in reports]), "ratio"),
        "map_at_10": (mean([r.map_at_10 for r in reports]), "ratio"),
    }
    return {k: {"value": v, "unit": unit} for k, (v, unit) in values.items()}


# Per-layer metrics: (name, unit, better). `_ms` metrics are self time (span
# duration minus child spans) except harness.version_get_ms and
# harness.report_write_ms, which are total time. Values are per traced cycle:
# one set-up, one pass (an evaluate_technique call of RUNS runs), the
# remaining version updates and the reloads.
LAYER_METRICS = [
    ("embedding.shortlist_ms", "ms", "lower"),
    ("embedding.shortlist_calls", "count", "lower"),
    ("embedding.recall_at_50", "ratio", "higher"),
    ("fuzzy.calls", "count", "lower"),
    ("fuzzy.ms", "ms", "lower"),
    ("fuzzy.names_scanned", "count", "lower"),
    ("fuzzy.recovered_ratio", "ratio", "higher"),
    *[
        (f"tools.{tool}.{kind}", unit, "lower")
        for tool in ("search_file", "search_method", "get_candidate_filenames",
                     "get_method_signatures_of_a_file", "get_method_body")
        for kind, unit in (("calls", "count"), ("ms", "ms"))
    ],
    ("tools.result_chars", "count", "lower"),
    ("tools.fallback_ratio", "ratio", "lower"),
    ("chat.calls", "count", "lower"),
    ("chat.ms", "ms", "lower"),
    ("agent.self_ms", "ms", "lower"),
    ("agent.iterations", "count", "lower"),
    ("agent.forced_final_ratio", "ratio", "lower"),
    ("resolve.ms", "ms", "lower"),
    ("resolve.exact", "count", "higher"),
    ("resolve.jaccard", "count", "lower"),
    ("resolve.dropped", "count", "lower"),
    ("embedders.embed_calls", "count", "lower"),
    ("embedders.texts_embedded", "count", "lower"),
    ("embedders.embed_ms", "ms", "lower"),
    ("embedders.cache_hits", "count", "higher"),
    ("embedders.cache_misses", "count", "lower"),
    ("embedders.cache_self_ms", "ms", "lower"),
    ("code_index.build_ms", "ms", "lower"),
    ("code_index.files_parsed", "count", "lower"),
    ("code_index.diff_ms", "ms", "lower"),
    ("code_index.update_ms", "ms", "lower"),
    ("embedding.build_ms", "ms", "lower"),
    ("embedding.chunks", "count", "lower"),
    ("embedding.update_ms", "ms", "lower"),
    ("embedding.files_refreshed", "count", "lower"),
    ("code_index.save_ms", "ms", "lower"),
    ("embedding.save_ms", "ms", "lower"),
    ("code_index.archive_bytes", "bytes", "lower"),
    ("embedding.archive_bytes", "bytes", "lower"),
    ("code_index.load_ms", "ms", "lower"),
    ("embedding.load_ms", "ms", "lower"),
    ("vsm.fit_ms", "ms", "lower"),
    ("vsm.score_ms", "ms", "lower"),
    ("localizers.fit_ms", "ms", "lower"),
    ("harness.version_get_ms", "ms", "lower"),
    ("harness.busy_ratio", "ratio", "higher"),
    ("harness.failures", "count", "lower"),
    ("metrics.report_ms", "ms", "lower"),
    ("harness.report_write_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def layer_metrics(bench: Bench, tracer, iterations: list[tuple[bool, float]]) -> dict:
    traced_walls = [wall for traced, wall in iterations if traced]
    plain_walls = [wall for traced, wall in iterations if not traced]
    n_traced = len(traced_walls)
    spans = {name: {key: value / n_traced for key, value in entry.items()}
             for name, entry in tracer.aggregate().items()}
    counts = defaultdict(float, {name: value / n_traced for name, value in tracer.counts.items()})

    def ms(name, key="self_ms"):
        return spans[name][key] if name in spans else 0.0

    def calls(name):
        return spans[name]["calls"] if name in spans else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    traced_failures = sum(len(o.failures) for o, (t, _) in zip(bench.outcomes, bench.pass_walls) if t)
    traced_eval_s = sum(wall for traced, wall in bench.pass_walls if traced) / n_traced
    values = {
        "embedding.shortlist_ms": ms("embedding.shortlist"),
        "embedding.shortlist_calls": calls("embedding.shortlist"),
        "embedding.recall_at_50": ratio(counts["embedding.shortlist_truth_hits"], calls("embedding.shortlist")),
        "fuzzy.calls": calls("fuzzy.fuzzy_method_candidates"),
        "fuzzy.ms": ms("fuzzy.fuzzy_method_candidates"),
        "fuzzy.names_scanned": counts["fuzzy.names_scanned"],
        "fuzzy.recovered_ratio": ratio(counts["fuzzy.recovered"], calls("fuzzy.fuzzy_method_candidates")),
        "tools.result_chars": counts["tools.result_chars"],
        "tools.fallback_ratio": ratio(counts["tools.fallbacks"], counts["tools.calls"]),
        "chat.calls": calls("chat.complete"),
        "chat.ms": ms("chat.complete"),
        "agent.self_ms": ms("agent.run_localization"),
        "agent.iterations": counts["agent.iterations"],
        "agent.forced_final_ratio": ratio(counts["agent.forced_final"], counts["agent.localizations"]),
        "resolve.ms": ms("resolve.resolve_predictions"),
        "resolve.exact": counts["resolve.exact"],
        "resolve.jaccard": counts["resolve.jaccard"],
        "resolve.dropped": counts["resolve.dropped"],
        "embedders.embed_calls": calls("embedders.embed"),
        "embedders.texts_embedded": counts["embedders.texts_embedded"],
        "embedders.embed_ms": ms("embedders.embed"),
        "embedders.cache_hits": counts["embedders.cache_texts"] - counts["embedders.cache_misses"],
        "embedders.cache_misses": counts["embedders.cache_misses"],
        "embedders.cache_self_ms": ms("embedders.cache"),
        "code_index.build_ms": ms("code_index.build_index"),
        "code_index.files_parsed": counts["code_index.files_parsed"],
        "code_index.diff_ms": ms("code_index.diff_source_trees"),
        "code_index.update_ms": ms("code_index.update_index"),
        "embedding.build_ms": ms("embedding.build_embedding_index"),
        "embedding.chunks": counts["embedding.chunks"],
        "embedding.update_ms": ms("embedding.update_embeddings"),
        "embedding.files_refreshed": counts["embedding.files_refreshed"],
        "code_index.save_ms": ms("code_index.save_code_index"),
        "embedding.save_ms": ms("embedding.save_embedding_index"),
        "code_index.archive_bytes": counts["code_index.archive_bytes"],
        "embedding.archive_bytes": counts["embedding.archive_bytes"],
        "code_index.load_ms": ms("code_index.load_code_index"),
        "embedding.load_ms": ms("embedding.load_embedding_index"),
        "vsm.fit_ms": ms("vsm.fit"),
        "vsm.score_ms": ms("vsm.score"),
        "localizers.fit_ms": ms("localizers.fit"),
        "harness.version_get_ms": ms("harness.version_get", "total_ms"),
        "harness.busy_ratio": ratio(
            ms("localizers.predict", "total_ms"),
            1000 * WORKERS * traced_eval_s,
        ),
        "harness.failures": traced_failures / n_traced,
        "metrics.report_ms": ms("metrics.build_report") + ms("metrics.aggregate_runs"),
        "harness.report_write_ms": ms("harness.report_write", "total_ms"),
        "trace.overhead_pct": 100 * (statistics.median(traced_walls) / statistics.median(plain_walls) - 1),
    }
    for tool in ("search_file", "search_method", "get_candidate_filenames",
                 "get_method_signatures_of_a_file", "get_method_body"):
        values[f"tools.{tool}.calls"] = calls(f"tools.{tool}")
        values[f"tools.{tool}.ms"] = ms(f"tools.{tool}")
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}


def check(bench: Bench, last: dict) -> list[str]:
    """Every correctness check; returns the failures. `last` is the final
    cycle, whose store has built every version."""
    from bugloc import HashingEmbedder, build_embedding_index, build_index, chunk_text
    from bugloc.harness import VersionStore
    from checks import (ShortlistReference, VsmReference, bug_query, cache_differences,
                        index_differences, same_order)

    errors: list[str] = []
    spec = bench.spec
    versions = bench.ds.versions
    failed = {(f["bug_id"], i, f["run_id"]) for i, o in enumerate(bench.outcomes) for f in o.failures}
    rankings: dict[str, set] = defaultdict(set)
    for i, outcome in enumerate(bench.outcomes):
        for result in outcome.report.per_bug:
            if (result.bug_id, i, result.run_id) not in failed:
                rankings[result.bug_id].add(result.ranked_paths)
    for bug_id, seen in sorted(rankings.items()):
        if len(seen) > 1:
            errors.append(f"{bug_id}: {len(seen)} different rankings across runs")
    failed_bugs = {bug_id for bug_id, _, _ in failed}
    for bug in bench.bugs:
        if bug.bug_id not in rankings and bug.bug_id not in failed_bugs:
            errors.append(f"{bug.bug_id}: never localized")
    ranking = {bug_id: list(next(iter(seen))) for bug_id, seen in rankings.items()}

    if spec.technique == "genloc":
        # Equal to the generator's prediction, so equal at any worker count.
        for bug_id, paths in sorted(ranking.items()):
            want = bench.ds.expected[bug_id]
            if paths != want:
                at = next((i for i, pair in enumerate(zip(paths, want)) if pair[0] != pair[1]), None)
                errors.append(f"{bug_id}: ranking differs from the planted answer at rank "
                              f"{(at if at is not None else min(len(paths), len(want))) + 1}")

    # Indexes the run built (the store only looks them up now), the same
    # indexes loaded from their archives, and full rebuilds of the first and
    # last versions with a fresh embedder.
    embedder = None if spec.technique == "vsm" else HashingEmbedder(spec.dimension)
    built = {version: VersionStore.get(last["building"], version) for version in versions}
    loaded = VersionStore(bench.repo, "java", embedder, last["dir"])
    for version in versions:
        errors += [f"{version} archive reload: {e}" for e in index_differences(built[version], loaded.get(version))]
    rebuilt = {}
    for version in dict.fromkeys((versions[0], versions[-1])):
        code = build_index(bench.repo / version, "java", version)
        rebuilt[version] = (code, embedder and build_embedding_index(code, embedder))
        errors += [f"{version} vs a full rebuild: {e}" for e in index_differences(built[version], rebuilt[version])]

    references: dict = {}
    for bug in bench.bugs:
        if spec.technique == "vsm":
            if bug.version_id not in references:
                references[bug.version_id] = VsmReference(built[bug.version_id][0])
            want, scores = references[bug.version_id].rank(bug_query(bug), 10)
            if bug.bug_id in ranking and not same_order(ranking[bug.bug_id], want, scores):
                errors.append(f"{bug.bug_id}: VSM ranking differs from the reference")
            continue
        if bug.version_id not in references:
            references[bug.version_id] = ShortlistReference(
                rebuilt.get(bug.version_id, built[bug.version_id])[1]
            )
        want, scores = references[bug.version_id].rank(embedder.embed(bug_query(bug)), SHORTLIST_K)
        if spec.technique == "genloc":
            # The shortlists the run itself produced, as the candidate tool showed them.
            results = bench.candidates.get(bug.bug_id, set())
            if bug.bug_id in ranking and not results:
                errors.append(f"{bug.bug_id}: no candidate-filenames result recorded")
            if any(not same_order(r.split("\n"), want, scores) for r in results):
                errors.append(f"{bug.bug_id}: candidate filenames differ from the NumPy reference")
        elif bug.bug_id in ranking and not same_order(ranking[bug.bug_id], want[:10], scores):
            errors.append(f"{bug.bug_id}: embedding_only ranking differs from the reference")

    if spec.cached:
        # Every cache entry holds the fresh embedder's vector for its text.
        vectors = {r.chunk.text: r.vector for _, eindex in rebuilt.values() for r in eindex.records.values()}
        texts = {r.chunk.text for _, eindex in built.values() for r in eindex.records.values()}
        texts |= {c.text for bug in bench.bugs for c in chunk_text(bug_query(bug))}
        missing = sorted(texts - vectors.keys())
        vectors.update(zip(missing, embedder.embed_batch(missing)))
        errors += [f"embedding cache: {e}" for e in cache_differences(bench.cache_path, vectors, embedder.provider_id)]
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
