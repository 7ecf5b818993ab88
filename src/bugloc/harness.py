"""Drives localization per bug at the right repository version and aggregates
repeated runs into evaluation reports.

Repository layout: either a versions root whose subdirectories are named by
version_id, or a single source tree used for every version. Indexes are
cached per version and later versions are built incrementally from the most
recently built one.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from urllib.parse import quote

from .agent import AgentTranscript
from .code_index import (
    OBJECTS_DIR, ArchiveFormatError, Changeset, CodeIndex, ObjectPool, build_index, diff_source_trees,
    load_code_index, save_code_index, update_index,
)
from .embedders import EmbeddingProvider
from .embedding import (
    EmbeddingIndex,
    build_embedding_index,
    load_embedding_index,
    save_embedding_index,
    update_embeddings,
)
from .dataset import BugReport
from .ioutil import SCHEMA_VERSION, atomic_write_json, atomic_write_text
from .java_parser import get_grammar
from .localizers import BaseLocalizer, LocalizationFailure
from .metrics import DataError, EvalReport, LocalizationResult, aggregate_runs, build_report
from .validation import InputValidationError

logger = logging.getLogger(__name__)


class VersionStore:
    """Builds, caches, and persists (CodeIndex, EmbeddingIndex) per version.

    With a cache_dir, each version's archive pair is two manifests over the
    objects in `<cache_dir>/objects`, which one pool reads and writes for
    the life of the store: a version shares the records, chunks and rows of
    every other version loaded or built here that holds the same file, and a
    save writes only the objects not stored yet.
    """

    def __init__(
        self,
        repo_root: str | Path,
        grammar: str = "java",
        embedding_provider: EmbeddingProvider | None = None,
        cache_dir: str | Path | None = None,
        chunk_limit: int = 300,
    ):
        self.repo_root = Path(repo_root)
        self.grammar = grammar
        self.embedding_provider = embedding_provider
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.objects = ObjectPool(self.cache_dir / OBJECTS_DIR) if self.cache_dir else None
        self.chunk_limit = chunk_limit
        self._built: dict[str, tuple[CodeIndex, EmbeddingIndex | None]] = {}
        self._last_version: str | None = None
        self._warned_flat = False

    def resolve_tree(self, version_id: str) -> Path:
        candidate = self.repo_root / version_id
        if version_id and candidate.is_dir():
            return candidate
        if not self._warned_flat:
            logger.info(
                "no per-version subdirectory for %r; using %s for every version",
                version_id,
                self.repo_root,
            )
            self._warned_flat = True
        return self.repo_root

    def archive_paths(self, version_id: str) -> tuple[Path, Path] | None:
        """(code archive, embedding archive) of `version_id`; None without a
        cache_dir. The file names are the percent-encoded id, so distinct ids
        get distinct names; the empty id gets "%", which encoding never yields."""
        if self.cache_dir is None:
            return None
        safe = quote(version_id, safe="") or "%"
        return self.cache_dir / f"{safe}.code.jsonl", self.cache_dir / f"{safe}.embed.jsonl"

    def get(self, version_id: str) -> tuple[CodeIndex, EmbeddingIndex | None]:
        """The memoized indexes, else the archived ones, else a build
        incremental from the most recently built or loaded version."""
        found = self._lookup(version_id)
        if found is not None:
            return found
        return self.build(version_id, previous=self._last_version)

    def _lookup(self, version_id: str) -> tuple[CodeIndex, EmbeddingIndex | None] | None:
        if version_id in self._built:
            return self._built[version_id]
        archives = self.archive_paths(version_id)
        if archives is None or not archives[0].exists():
            return None
        provider = self.embedding_provider
        if provider is not None and not archives[1].exists():
            return None
        try:
            code = load_code_index(archives[0], pool=self.objects)
            embed = None if provider is None else load_embedding_index(archives[1], code, pool=self.objects)
        except ArchiveFormatError as exc:
            reason = str(exc)
        else:
            reason = self._mismatch(version_id, code, embed)
        if reason is not None:
            # The caller rebuilds the version and overwrites its archives.
            logger.warning("ignoring the archive of %s: %s", version_id, reason)
            return None
        self._built[version_id] = (code, embed)
        self._last_version = version_id
        return code, embed

    def _mismatch(
        self, version_id: str, code: CodeIndex, embed: EmbeddingIndex | None
    ) -> str | None:
        """Why indexes loaded from an archive do not fit this store, if they do not."""
        if code.version_id != version_id:
            # a file copied or renamed by hand names another version
            return f"it holds version {code.version_id!r}"
        if code.grammar != self.grammar:
            return f"it was parsed as {code.grammar!r}, this run parses {self.grammar!r}"
        provider = self.embedding_provider
        if embed is None:
            return None
        made_by = (embed.provider_id, embed.dimension, embed.chunk_limit)
        if made_by != (provider.provider_id, provider.dimension, self.chunk_limit):
            return (
                "it was embedded by %s (dimension %d, chunk limit %s), this run embeds with %s "
                "(dimension %d, chunk limit %d)"
                % (*made_by, provider.provider_id, provider.dimension, self.chunk_limit)
            )
        return None

    def build(self, version_id: str, previous: str | None = None) -> tuple[CodeIndex, EmbeddingIndex | None]:
        """Build `version_id`'s indexes, save their archives and memoize the
        indexes a load of them gives.

        The build is incremental from `previous` when that version's indexes
        can be looked up (memo or archive), and from scratch otherwise. The
        changeset from `previous` is the diff of `version_id`'s tree against
        `previous`'s code index, so `previous`'s tree is never read and need
        not exist, nor is a file whose stat key still equals the one that
        index recorded (see `diff_source_trees`). With no change, the
        indexes of `previous` are shared under the new label. The code save
        of an incremental build is given the code manifest of `previous` as
        a base, and is a delta on it where the chain rule of
        `write_manifest` allows. A build that raises memoizes nothing and
        writes no archive; a save that raises memoizes nothing.
        """
        tree = self.resolve_tree(version_id)
        prev = self._lookup(previous) if previous else None
        provider = self.embedding_provider
        if prev is None:
            code = build_index(tree, self.grammar, version_id)
            embed = None if provider is None else build_embedding_index(code, provider, self.chunk_limit)
        else:
            changeset = diff_source_trees(prev[0], tree, get_grammar(self.grammar).extensions)
            if changeset == Changeset():
                code, embed = replace(prev[0], version_id=version_id), prev[1]
            else:
                code = update_index(prev[0], changeset, tree, version_id)
                embed = None if provider is None else update_embeddings(prev[1], changeset, code, provider)
        archives = self.archive_paths(version_id)
        if archives:
            base = self.archive_paths(previous)[0] if prev is not None else None
            save_code_index(code, archives[0], pool=self.objects, base=base)
            if embed is not None:
                embed = save_embedding_index(embed, archives[1], code, pool=self.objects)
        self._built[version_id] = (code, embed)
        self._last_version = version_id
        return code, embed


def fit_localizers(bugs: list[BugReport], make_localizer, store: VersionStore) -> list[BaseLocalizer]:
    """Each bug's localizer: one `make_localizer()` per version, fitted on
    that version's indexes. Versions are fitted in bug order, so incremental
    index builds stay ordered."""
    by_version: dict[str, BaseLocalizer] = {}
    for bug in bugs:
        if bug.version_id not in by_version:
            by_version[bug.version_id] = make_localizer().fit(*store.get(bug.version_id))
    return [by_version[bug.version_id] for bug in bugs]


def localize_bug(
    localizer: BaseLocalizer, bug: BugReport
) -> tuple[list[str], AgentTranscript | None, str | None]:
    """(ranked paths, transcript, failure reason) of one `predict` call. A
    failure is an empty list and a reason, never an exception: a
    LocalizationFailure or an invalid input is told by its message alone, any
    other error is logged with its traceback as well."""
    try:
        prediction = localizer.predict(bug)
    except (LocalizationFailure, InputValidationError) as exc:
        return [], getattr(exc, "transcript", None), str(exc)
    except Exception as exc:
        logger.exception("bug %s failed", bug.bug_id)
        return [], None, str(exc)
    return prediction.paths, prediction.transcript, None


@dataclass
class RunOutcome:
    report: EvalReport
    failures: list[dict] = field(default_factory=list)  # bug_id, run_id, reason
    transcripts: list = field(default_factory=list)


def evaluate_technique(
    bugs: list[BugReport],
    make_localizer,
    store: VersionStore,
    technique: str,
    runs: int = 3,
    workers: int = 1,
) -> RunOutcome:
    """Localize every bug `runs` times and aggregate.

    `make_localizer` is a zero-argument factory; one instance is fitted per
    repository version and reused across that version's bugs, and its
    `predict` is called once per bug and run. A per-bug failure is recorded
    as an empty ranked list (a miss), never a crash. Failures come in
    (run, bug) order and transcripts in (bug, run) order, whatever the
    number of workers.
    """
    if not bugs:
        raise DataError("no bugs to evaluate")
    for bug in bugs:
        if not bug.ground_truth:
            raise DataError(f"bug {bug.bug_id} has no ground truth; cannot evaluate")
    ground_truths = {bug.bug_id: set(bug.ground_truth) for bug in bugs}

    fitted = fit_localizers(bugs, make_localizer, store)
    failures: list[dict] = []
    run_reports: list[EvalReport] = []
    run_transcripts: list[list] = []  # per run, each bug's transcript or None
    for run_id in range(1, runs + 1):
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(localize_bug, fitted, bugs))
        else:
            outcomes = list(map(localize_bug, fitted, bugs))
        results = [
            LocalizationResult.from_ranking(bug.bug_id, technique, run_id, paths, ground_truths[bug.bug_id])
            for bug, (paths, _, _) in zip(bugs, outcomes)
        ]
        failures += [
            {"bug_id": bug.bug_id, "run_id": run_id, "reason": reason}
            for bug, (_, _, reason) in zip(bugs, outcomes)
            if reason is not None
        ]
        run_reports.append(build_report(results, ground_truths, technique))
        run_transcripts.append([transcript for _, transcript, _ in outcomes])

    transcripts = [t for per_bug in zip(*run_transcripts) for t in per_bug if t is not None]
    return RunOutcome(report=aggregate_runs(run_reports), failures=failures, transcripts=transcripts)


def report_to_dict(report: EvalReport, failures: list[dict] | None = None) -> dict:
    # Each dataclass's own fields, copied shallowly: dataclasses.asdict would
    # deep-copy every path, which costs more than encoding the JSON.
    out = {"schema_version": SCHEMA_VERSION, **vars(report)}
    # string keys sort as "1", "10", "5" in the JSON, as they always have
    out["accuracy_at"] = {str(k): v for k, v in sorted(report.accuracy_at.items())}
    out["per_bug"] = [dict(vars(r)) for r in report.per_bug]
    if failures is not None:
        out["failures"] = failures
        attempts = len(report.per_bug)
        out["coverage"] = 1.0 if attempts == 0 else (attempts - len(failures)) / attempts
    return out


def report_from_dict(raw: dict) -> EvalReport:
    """The report `report_to_dict` wrote; a DataError names what is missing
    or malformed."""
    if not isinstance(raw, dict):
        raise DataError(f"a report is a JSON object, not {type(raw).__name__}")
    try:
        return EvalReport(
            technique=raw["technique"],
            accuracy_at={int(k): v for k, v in raw["accuracy_at"].items()},
            mrr_at_10=raw["mrr_at_10"],
            map_at_10=raw["map_at_10"],
            per_bug=[
                LocalizationResult(
                    bug_id=r["bug_id"],
                    technique=r["technique"],
                    run_id=r["run_id"],
                    ranked_paths=tuple(r["ranked_paths"]),
                    first_hit_rank=r["first_hit_rank"],
                )
                for r in raw.get("per_bug", [])
            ],
        )
    except KeyError as exc:
        raise DataError(f"the report lacks the field {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise DataError(f"malformed report: {exc}") from None


def format_report_table(reports: list[EvalReport]) -> str:
    """Human-readable table: Technique | Accuracy@1/@5/@10 (%) | MAP@10 | MRR@10."""
    width = max([16] + [len(report.technique) for report in reports])
    header = f"{'Technique':<{width}} {'Acc@1':>8} {'Acc@5':>8} {'Acc@10':>8} {'MAP@10':>8} {'MRR@10':>8}"
    lines = [header, "-" * len(header)]
    for report in reports:
        lines.append(
            f"{report.technique:<{width}} "
            f"{100 * report.accuracy_at.get(1, 0.0):>7.2f}% "
            f"{100 * report.accuracy_at.get(5, 0.0):>7.2f}% "
            f"{100 * report.accuracy_at.get(10, 0.0):>7.2f}% "
            f"{report.map_at_10:>8.4f} "
            f"{report.mrr_at_10:>8.4f}"
        )
    return "\n".join(lines)


def write_report_files(
    report: EvalReport, out_dir: str | Path, failures: list[dict] | None = None
) -> tuple[Path, Path]:
    out = Path(out_dir)
    json_path = out / f"report-{report.technique}.json"
    table_path = out / f"report-{report.technique}.txt"
    atomic_write_json(json_path, report_to_dict(report, failures))
    atomic_write_text(table_path, format_report_table([report]) + "\n")
    return json_path, table_path
