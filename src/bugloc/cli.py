"""Command-line entry point: index, localize, evaluate, compare."""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .code_index import Changeset, ConfigurationError
from .config import MODES, RunConfig, build_chat_provider, build_embedding_provider, load_config
from .dataset import load_bug_reports, split_chronological
from .agent import AgentConfig, write_transcript
from .embedders import EmbeddingProviderError
from .harness import (
    VersionStore,
    evaluate_technique,
    fit_localizers,
    format_report_table,
    localize_bug,
    report_from_dict,
    report_to_dict,
    write_report_files,
)
from .ioutil import atomic_write_json, read_json
from .localizers import AgentLocalizer, EmbeddingLocalizer, VsmLocalizer
from .metrics import DataError, overlap_analysis

logger = logging.getLogger(__name__)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="YAML config file")
    parser.add_argument("--mode", choices=MODES)
    parser.add_argument("--runs", type=int)
    parser.add_argument("--shortlist-k", type=int, dest="shortlist_k")
    parser.add_argument("--chunk-limit", type=int, dest="chunk_limit")
    parser.add_argument("--max-iterations", type=int, dest="max_iterations")
    parser.add_argument("--provider", choices=("scripted", "remote"), help="chat provider kind")
    parser.add_argument("--replay", help="scripted chat replay file")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--repo", help="repository root (tree or versions root)")
    parser.add_argument("--index-cache", dest="index_cache", help="index archive directory")
    parser.add_argument("-v", "--verbose", action="store_true")


def _config_from_args(args) -> RunConfig:
    overrides = {
        "mode": args.mode,
        "runs": args.runs,
        "shortlist_k": args.shortlist_k,
        "chunk_limit": args.chunk_limit,
        "max_iterations": args.max_iterations,
        "repo": args.repo,
        "index_cache": args.index_cache,
        "out_dir": args.out,
        "chat.kind": args.provider,
        "chat.replay_path": args.replay,
    }
    return load_config(args.config, overrides)


def _make_localizer_factory(config, replay: str | None = None):
    mode = config.mode
    if mode == "vsm":
        return lambda: VsmLocalizer(top_n=config.final_list_size), None
    embedding_provider = build_embedding_provider(config) if config.needs_embedding else None
    if mode == "embedding_only":
        factory = lambda: EmbeddingLocalizer(
            provider=embedding_provider,
            shortlist_k=config.shortlist_k,
            top_n=config.final_list_size,
        )
        return factory, embedding_provider
    chat_provider = build_chat_provider(config, replay)
    agent_config = AgentConfig(
        max_iterations=config.max_iterations,
        final_list_size=config.final_list_size,
        temperature=config.temperature,
        tool_result_char_cap=config.tool_result_char_cap,
    )
    # noembed has no embedding provider, hence no candidate tool
    factory = lambda: AgentLocalizer(
        chat_provider, embedding_provider, config.shortlist_k, agent_config
    )
    return factory, embedding_provider


def _version_store(config, embedding_provider, default_cache=None) -> VersionStore:
    return VersionStore(
        config.repo,
        grammar=config.grammar,
        embedding_provider=embedding_provider,
        cache_dir=config.index_cache or default_cache,
        chunk_limit=config.chunk_limit,
    )


def cmd_index(args) -> int:
    config = _config_from_args(args)
    if not config.repo:
        raise ConfigurationError("index needs --repo")
    provider = build_embedding_provider(config) if config.needs_embedding else None
    store = _version_store(config, provider, Path(config.out_dir) / "index-cache")

    changeset = None
    if args.changeset:
        raw = read_json(args.changeset)
        changeset = Changeset(
            added=tuple(raw.get("added", [])),
            modified=tuple(raw.get("modified", [])),
            deleted=tuple(raw.get("deleted", [])),
            renamed=tuple((old, new) for old, new in raw.get("renamed", [])),
        )
    if args.prev_version and not store.archive_paths(args.prev_version)[0].exists():
        raise ConfigurationError(f"no cached index for previous version {args.prev_version}")
    tree = store.resolve_tree(args.version)
    if args.prev_version and changeset is None and store.resolve_tree(args.prev_version) == tree:
        raise ConfigurationError(
            f"versions {args.prev_version!r} and {args.version!r} both resolve to {tree}, "
            "so nothing tells what changed between them: pass --changeset, "
            "or index without --prev-version"
        )

    code, embed = store.build(args.version, previous=args.prev_version, changeset=changeset)
    code_path, embed_path = store.archive_paths(args.version)
    print(f"indexed {len(code.files)} files at version {args.version!r} -> {code_path}")
    if embed is not None:
        print(f"embedded {len(embed)} chunks -> {embed_path}")
    return 0


def cmd_localize(args) -> int:
    config = _config_from_args(args)
    if not config.repo:
        raise ConfigurationError("localize needs --repo")
    bugs = load_bug_reports(args.bug)
    factory, embedding_provider = _make_localizer_factory(config, args.replay)
    store = _version_store(config, embedding_provider)
    out_dir = Path(config.out_dir)
    exit_code = 0
    for bug, localizer in zip(bugs, fit_localizers(bugs, factory, store)):
        paths, transcript, reason = localize_bug(localizer, bug)
        if transcript is not None:
            write_transcript(transcript, out_dir / f"transcript-{bug.bug_id}.json")
        if reason is not None:
            print(f"bug {bug.bug_id}: localization failed: {reason}", file=sys.stderr)
            exit_code = 1
            continue
        print(f"bug {bug.bug_id}:")
        for rank, path in enumerate(paths, start=1):
            print(f"  {rank}. {path}")
        if not paths:
            print("  (no verified files)")
    return exit_code


def cmd_evaluate(args) -> int:
    config = _config_from_args(args)
    if not config.repo:
        raise ConfigurationError("evaluate needs --repo")
    dataset_path = args.dataset or config.dataset
    if not dataset_path:
        raise ConfigurationError("evaluate needs --dataset")
    bugs = load_bug_reports(dataset_path)
    historical, evaluation = split_chronological(bugs, train_fraction=args.train_fraction)
    logger.info("split: %d historical, %d evaluation bugs", len(historical), len(evaluation))
    if not evaluation:
        raise ConfigurationError("chronological split left no evaluation bugs")

    factory, embedding_provider = _make_localizer_factory(config, args.replay)
    store = _version_store(config, embedding_provider)
    technique = config.mode
    outcome = evaluate_technique(
        evaluation, factory, store, technique, runs=config.runs, workers=config.workers
    )
    out_dir = Path(config.out_dir)
    json_path, table_path = write_report_files(outcome.report, out_dir, outcome.failures)
    for seq, transcript in enumerate(outcome.transcripts):
        write_transcript(transcript, out_dir / "transcripts" / f"{transcript.bug_id}-{seq}.json")
    print(format_report_table([outcome.report]))
    print(f"report written to {json_path} and {table_path}")
    if outcome.failures:
        print(f"{len(outcome.failures)} per-bug failures recorded in the report", file=sys.stderr)
        return 1
    return 0


def cmd_compare(args) -> int:
    reports = []
    per_technique = {}
    ground_truths: dict[str, set] = {}
    dataset_path = args.dataset
    if dataset_path:
        for bug in load_bug_reports(dataset_path):
            ground_truths[bug.bug_id] = set(bug.ground_truth)
    for path in args.results:
        raw = read_json(path)
        report = report_from_dict(raw)
        reports.append(report)
        per_technique[report.technique] = report.per_bug
        for entry in raw.get("ground_truths", []):
            ground_truths[entry["bug_id"]] = set(entry["files"])
    if not ground_truths:
        raise ConfigurationError(
            "compare needs ground truths: pass --dataset or embed them in result files"
        )
    stats = overlap_analysis(per_technique, ground_truths, k=args.k)
    print(format_report_table(reports))
    print()
    header = f"{'Technique':<16} {'Localized':>10} {'Overlapping':>12} {'Unique':>8}"
    print(header)
    print("-" * len(header))
    for technique in sorted(stats):
        localized, overlapping, unique = stats[technique].counts
        print(f"{technique:<16} {localized:>10} {overlapping:>12} {unique:>8}")
    if args.out:
        atomic_write_json(
            Path(args.out) / "overlap.json",
            {
                "schema_version": 1,
                "k": args.k,
                "techniques": {
                    technique: {
                        "localized": sorted(stat.localized),
                        "overlapping": sorted(stat.overlapping),
                        "unique": sorted(stat.unique),
                    }
                    for technique, stat in stats.items()
                },
            },
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bugloc",
        description="Bug localization with embedding retrieval and a tool-calling reasoning loop.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build or update the code and embedding indexes")
    _add_common(p_index)
    p_index.add_argument("--version", required=True, help="version label for this snapshot")
    p_index.add_argument("--prev-version", dest="prev_version", help="incrementally update from this cached version")
    p_index.add_argument("--changeset", help="JSON changeset file (added/modified/deleted/renamed)")
    p_index.set_defaults(fn=cmd_index)

    p_localize = sub.add_parser("localize", help="rank suspicious files for bug reports")
    _add_common(p_localize)
    p_localize.add_argument("--bug", required=True, help="bug report file (JSON lines)")
    p_localize.set_defaults(fn=cmd_localize)

    p_eval = sub.add_parser("evaluate", help="run a technique over a dataset and report metrics")
    _add_common(p_eval)
    p_eval.add_argument("--dataset", help="dataset file (JSON lines)")
    p_eval.add_argument(
        "--train-fraction", dest="train_fraction", type=float, default=0.6,
        help="chronological share used as historical data (default 0.6)",
    )
    p_eval.set_defaults(fn=cmd_evaluate)

    p_compare = sub.add_parser("compare", help="overlap analysis across result files")
    p_compare.add_argument("results", nargs="+", help="report JSON files from evaluate")
    p_compare.add_argument("--dataset", help="dataset file supplying ground truths")
    p_compare.add_argument("--k", type=int, default=10)
    p_compare.add_argument("--out", help="output directory for overlap.json")
    p_compare.add_argument("-v", "--verbose", action="store_true")
    p_compare.set_defaults(fn=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.fn(args)
    except (ConfigurationError, EmbeddingProviderError, FileNotFoundError, DataError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
