import json
import shutil
import time

import pytest

from bugloc import cli, localizers
from bugloc.chat import ChatProvider
from bugloc.cli import main
from bugloc.config import load_config
from bugloc.code_index import ConfigurationError, ObjectPool, build_index, load_code_index
from bugloc.dataset import save_bug_reports
from bugloc.embedders import HashingEmbedder, RetriableProviderError
from bugloc.embedding import load_embedding_index
from bugloc.harness import report_to_dict
from bugloc.ioutil import read_json
from bugloc.metrics import EvalReport, LocalizationResult
from conftest import final_answer, java_class, make_bug, text_turn, tool_turn, write_replay, write_tree


@pytest.fixture
def workspace(tmp_path):
    files = {
        "org/ui/Labels.java": java_class("Labels", {"updateLabel": "label = value;"}),
        "org/chart/AutoScale.java": java_class(
            "AutoScale", {"zoomOut": "meterchart dial zoomstep;"}
        ),
        "org/io/Reader.java": java_class("Reader", {"read": "buffer.fill();"}),
    }
    repo = write_tree(tmp_path / "repo" / "v1", files)
    bugs = [
        make_bug(
            "b-1",
            "meterchart dial zoomstep",
            "zoomOut broken",
            "v1",
            truth=["org/chart/AutoScale.java"],
        )
    ]
    bug_file = tmp_path / "bugs.jsonl"
    save_bug_reports(bugs, bug_file)
    return tmp_path


def run_cli(*argv):
    return main([str(a) for a in argv])


# --- config ---------------------------------------------------------------------


def test_config_env_interpolation(tmp_path, monkeypatch):
    monkeypatch.setenv("MY_REPO", "/data/repo")
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text("repo: ${MY_REPO}\nmode: embedding_only\n", encoding="utf-8")
    config = load_config(cfg_file)
    assert config.repo == "/data/repo"
    assert config.mode == "embedding_only"


def test_config_flags_override_file(tmp_path):
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text("mode: genloc\nshortlist_k: 20\n", encoding="utf-8")
    config = load_config(cfg_file, {"shortlist_k": 7, "mode": "noembed"})
    assert config.shortlist_k == 7
    assert config.mode == "noembed"


def test_config_rejects_unknown_keys(tmp_path):
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text("not_a_setting: 1\n", encoding="utf-8")
    with pytest.raises(ConfigurationError):
        load_config(cfg_file)


def test_config_rejects_unknown_mode(tmp_path):
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text("mode: telepathy\n", encoding="utf-8")
    with pytest.raises(ConfigurationError):
        load_config(cfg_file)


@pytest.mark.parametrize(
    "setting", ["shortlist_k", "final_list_size", "chunk_limit", "max_iterations", "runs", "workers"]
)
@pytest.mark.parametrize("value", [0, -1])
def test_config_rejects_integer_settings_below_one(setting, value):
    with pytest.raises(ConfigurationError, match=f"{setting} must be at least 1"):
        load_config(None, {setting: value})


def test_negative_shortlist_k_exits_before_indexing(workspace, capsys):
    out = workspace / "out"
    code = run_cli(
        "index", "--repo", workspace / "repo", "--version", "v1", "--mode", "embedding_only",
        "--shortlist-k", "-1", "--out", out,
    )
    assert code == 2
    assert "shortlist_k must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["index", "evaluate"])
@pytest.mark.parametrize(
    "section,setting", [("embedding", "dimension"), ("embedding", "max_batch_size"),
                        ("embedding", "max_attempts"), ("chat", "max_attempts")]
)
@pytest.mark.parametrize("value", [0, -3])
def test_provider_settings_below_one_exit_before_indexing(workspace, capsys, command, section, setting, value):
    cfg_file = workspace / "cfg.yaml"
    cfg_file.write_text(f"{section}:\n  {setting}: {value}\n", encoding="utf-8")
    out = workspace / "out"
    extra = ["--version", "v1"] if command == "index" else ["--dataset", workspace / "bugs.jsonl"]
    code = run_cli(command, "--config", cfg_file, "--repo", workspace / "repo", "--out", out, *extra)
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {section}.{setting} must be at least 1, got {value}"]
    assert not out.exists()


def test_remote_provider_without_key_fails_fast(tmp_path, monkeypatch, workspace):
    monkeypatch.delenv("BUGLOC_EMBED_API_KEY", raising=False)
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(
        "mode: embedding_only\n"
        "embedding:\n  kind: remote\n  model: embed-model\n  dimension: 8\n"
        "  base_url: https://api.example\n",
        encoding="utf-8",
    )
    code = run_cli(
        "index", "--config", cfg_file, "--repo", workspace / "repo", "--version", "v1",
        "--out", workspace / "out",
    )
    assert code == 2  # configuration error before any work


# --- index ------------------------------------------------------------------------


class BrokenEmbedder(HashingEmbedder):
    def embed_batch(self, texts):
        raise RetriableProviderError(self.provider_id, 3, "HTTP 500")


def test_cmd_index_provider_failure_is_one_error_line(workspace, capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_embedding_provider", lambda config: BrokenEmbedder(16))
    out = workspace / "out"
    code = run_cli(
        "index", "--repo", workspace / "repo", "--version", "v1", "--mode", "embedding_only",
        "--out", out,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: provider 'hashing-16' failed after 3 attempt(s): HTTP 500"
    ]
    assert not (out / "index-cache" / "v1.code.jsonl").exists()


def test_cmd_index_writes_archives(workspace):
    out = workspace / "out"
    code = run_cli(
        "index", "--repo", workspace / "repo", "--version", "v1",
        "--mode", "embedding_only", "--out", out,
    )
    assert code == 0
    index = load_code_index(out / "index-cache" / "v1.code.jsonl")
    assert "org/chart/AutoScale.java" in index.files
    eindex = load_embedding_index(out / "index-cache" / "v1.embed.jsonl", index)
    assert len(eindex) >= 3


def test_cmd_index_rerun_zero_provider_calls(workspace, tmp_path):
    out = workspace / "out"
    cfg_file = tmp_path / "cfg.yaml"
    cache_file = workspace / "embed-cache.json"
    cfg_file.write_text(
        "mode: embedding_only\n"
        f"embedding:\n  kind: hashing\n  dimension: 16\n  cache_path: {cache_file}\n",
        encoding="utf-8",
    )
    assert run_cli(
        "index", "--config", cfg_file, "--repo", workspace / "repo",
        "--version", "v1", "--out", out,
    ) == 0
    cache_before = json.loads(cache_file.read_text())
    assert run_cli(
        "index", "--config", cfg_file, "--repo", workspace / "repo",
        "--version", "v1", "--out", out,
    ) == 0
    cache_after = json.loads(cache_file.read_text())
    assert cache_before == cache_after  # every chunk served from the cache


def test_cmd_index_incremental_update(workspace):
    out = workspace / "out"
    repo = workspace / "repo"
    assert run_cli(
        "index", "--repo", repo, "--version", "v1", "--mode", "embedding_only", "--out", out
    ) == 0
    write_tree(
        repo / "v2",
        {
            "org/ui/Labels.java": java_class("Labels", {"updateLabel": "label = value;"}),
            "org/chart/AutoScale.java": java_class(
                "AutoScale", {"zoomOut": "meterchart dial zoomstep;"}
            ),
            "org/io/Reader.java": java_class("Reader", {"read": "buffer.fill();"}),
            "org/new/Fresh.java": java_class("Fresh", {"go": "start();"}),
        },
    )
    assert run_cli(
        "index", "--repo", repo, "--version", "v2", "--prev-version", "v1",
        "--mode", "embedding_only", "--out", out,
    ) == 0
    v2_index = load_code_index(out / "index-cache" / "v2.code.jsonl")
    assert "org/new/Fresh.java" in v2_index.files
    v2_embed = load_embedding_index(out / "index-cache" / "v2.embed.jsonl", v2_index)
    assert "org/new/Fresh.java" in v2_embed.file_paths


def resolved_archives(cache, version):
    """The indexes that `version`'s archives in `cache` hold, the entries of
    its code manifest, a delta resolved onto its base, and the header of its
    embedding manifest but for the packs, which differ with what was saved
    before it."""
    pool = ObjectPool(cache / "objects")
    code = load_code_index(cache / f"{version}.code.jsonl", pool=pool)
    embed = load_embedding_index(cache / f"{version}.embed.jsonl", code, pool=pool)
    made = (embed.provider_id, embed.dimension, embed.chunk_limit, embed.chunks, embed.vectors.tobytes())
    header = json.loads((cache / f"{version}.embed.jsonl").read_text(encoding="utf-8"))
    del header["packs"]
    return code, made, pool.manifests[cache / f"{version}.code.jsonl"].entries, header


def assert_index_of(out, version, tree, tmp_path):
    """The archives of `version` in `out` list what indexing `tree` from
    scratch lists: the same records, digests and vectors."""
    scratch = tmp_path / "scratch"
    assert run_cli(
        "index", "--repo", tree, "--version", version, "--mode", "embedding_only", "--out", scratch
    ) == 0
    got = resolved_archives(out / "index-cache", version)
    assert got == resolved_archives(scratch / "index-cache", version)
    assert got[0] == build_index(tree, "java", version)


def test_cmd_index_flat_repo_prev_version_picks_up_in_place_edits(workspace, tmp_path):
    out = workspace / "out"
    flat = workspace / "repo" / "v1"  # one tree, no per-version subdirectories
    assert run_cli(
        "index", "--repo", flat, "--version", "v1", "--mode", "embedding_only", "--out", out
    ) == 0
    (flat / "org/io/Reader.java").unlink()
    write_tree(
        flat,
        {
            "org/B.java": java_class("B", {"go": "run();"}),
            "org/ui/Labels.java": java_class("Labels", {"updateLabel": "label = other;"}),
        },
    )
    assert run_cli(
        "index", "--repo", flat, "--version", "v2", "--prev-version", "v1",
        "--mode", "embedding_only", "--out", out,
    ) == 0
    assert_index_of(out, "v2", flat, tmp_path)


def test_cmd_index_prev_version_needs_only_its_archive(workspace, tmp_path):
    out = workspace / "out"
    repo = workspace / "repo"
    assert run_cli(
        "index", "--repo", repo, "--version", "v1", "--mode", "embedding_only", "--out", out
    ) == 0
    write_tree(
        repo / "v2",
        {
            "org/ui/Labels.java": java_class("Labels", {"updateLabel": "label = other;"}),
            "org/chart/AutoScale.java": java_class(
                "AutoScale", {"zoomOut": "meterchart dial zoomstep;"}
            ),
            "org/new/Fresh.java": java_class("Fresh", {"go": "start();"}),
        },
    )
    shutil.rmtree(repo / "v1")
    assert run_cli(
        "index", "--repo", repo, "--version", "v2", "--prev-version", "v1",
        "--mode", "embedding_only", "--out", out,
    ) == 0
    assert_index_of(out, "v2", repo / "v2", tmp_path)


# --- localize ----------------------------------------------------------------------


def test_cmd_localize_embedding_only(workspace, capsys):
    code = run_cli(
        "localize", "--repo", workspace / "repo", "--bug", workspace / "bugs.jsonl",
        "--mode", "embedding_only", "--out", workspace / "out",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "1. org/chart/AutoScale.java" in out


def test_cmd_localize_genloc_scripted(workspace, capsys):
    replay = write_replay(
        workspace / "replay.json",
        [
            {"tool_call": {"name": "get_candidate_filenames", "arguments": {}}},
            {"final": "```\n1. org/chart/AutoScale.java - matches dial symptoms\n```"},
        ],
    )
    code = run_cli(
        "localize", "--repo", workspace / "repo", "--bug", workspace / "bugs.jsonl",
        "--mode", "genloc", "--replay", replay, "--out", workspace / "out",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "1. org/chart/AutoScale.java" in out
    transcript = read_json(workspace / "out" / "transcript-b-1.json")
    assert transcript["bug_id"] == "b-1"
    assert transcript["iterations_used"] == 2


def test_cmd_localize_noembed_unavailable_tool_in_transcript(workspace, capsys):
    replay = write_replay(
        workspace / "replay.json",
        [
            {"tool_call": {"name": "get_candidate_filenames", "arguments": {}}},
            {"final": "```\n1. org/io/Reader.java - io suspect\n```"},
        ],
    )
    code = run_cli(
        "localize", "--repo", workspace / "repo", "--bug", workspace / "bugs.jsonl",
        "--mode", "noembed", "--replay", replay, "--out", workspace / "out",
    )
    assert code == 0
    transcript = read_json(workspace / "out" / "transcript-b-1.json")
    tool_messages = [m for m in transcript["messages"] if m["role"] == "tool"]
    assert any("not available" in (m["tool_result"] or "") for m in tool_messages)


def test_cmd_localize_replay_arguments_that_are_no_object_are_answered(workspace, capsys):
    replay = write_replay(
        workspace / "replay.json",
        [
            {"tool_call": {"name": "search_file", "arguments": [1]}},
            {"final": "```\n1. org/chart/AutoScale.java - dial\n```"},
        ],
    )
    code = run_cli(
        "localize", "--repo", workspace / "repo", "--bug", workspace / "bugs.jsonl",
        "--mode", "noembed", "--replay", replay, "--out", workspace / "out",
    )
    assert code == 0
    assert "1. org/chart/AutoScale.java" in capsys.readouterr().out
    transcript = read_json(workspace / "out" / "transcript-b-1.json")
    assert [m["tool_result"] for m in transcript["messages"] if m["role"] == "tool"] == [
        "Invalid arguments for 'search_file': expected an object, not list"
    ]


@pytest.mark.parametrize(
    "replay, reason",
    [
        ({"schema_version": 1}, "holds no responses list"),
        (["not", "a", "replay"], "holds no responses list"),
        ({"responses": ["final"]}, "replay entry is not an object: 'final'"),
        ({"responses": [{"tool_call": "search_file"}]}, "replay tool_call has no name: 'search_file'"),
        ({"responses": [{"tool_call": {"arguments": {}}}]}, "replay tool_call has no name: {'arguments': {}}"),
        ({"responses": [{"tool_call": {"name": 3}}]}, "replay tool_call has no name: {'name': 3}"),
        ({"responses": [{"final": ["1. a/A.java"]}]}, "replay final response is not text: ['1. a/A.java']"),
    ],
    ids=["no-responses", "not-an-object", "entry-not-an-object", "call-not-an-object", "call-without-name",
         "name-not-text", "final-not-text"],
)
def test_cmd_localize_malformed_replay_is_one_error_line(workspace, capsys, replay, reason):
    path = workspace / "replay.json"
    path.write_text(json.dumps(replay), encoding="utf-8")
    code = run_cli(
        "localize", "--repo", workspace / "repo", "--bug", workspace / "bugs.jsonl",
        "--mode", "noembed", "--replay", path, "--out", workspace / "out",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"{reason}\n") and err.count("\n") == 1


@pytest.mark.parametrize("flags", [[], ["--provider", "remote"]], ids=["yaml", "yaml-and-flag"])
def test_cmd_localize_replay_wins_over_a_remote_chat(workspace, capsys, monkeypatch, flags):
    monkeypatch.delenv("BUGLOC_CHAT_API_KEY", raising=False)  # a remote provider would fail
    cfg_file = workspace / "cfg.yaml"
    cfg_file.write_text(
        "chat:\n  kind: remote\n  model: chat-model\n  base_url: https://api.example\n",
        encoding="utf-8",
    )
    replay = write_replay(
        workspace / "replay.json", [{"final": "```\n1. org/io/Reader.java - io suspect\n```"}]
    )
    code = run_cli(
        "localize", "--config", cfg_file, "--repo", workspace / "repo", "--bug",
        workspace / "bugs.jsonl", "--mode", "noembed", "--replay", replay, *flags,
        "--out", workspace / "out",
    )
    assert code == 0
    assert "1. org/io/Reader.java" in capsys.readouterr().out


def test_cmd_localize_vsm(workspace, capsys):
    code = run_cli(
        "localize", "--repo", workspace / "repo", "--bug", workspace / "bugs.jsonl",
        "--mode", "vsm", "--out", workspace / "out",
    )
    assert code == 0
    assert "1. org/chart/AutoScale.java" in capsys.readouterr().out


def test_cmd_localize_goes_on_after_a_bug_that_raises(workspace, capsys, monkeypatch):
    bugs = [
        make_bug("b-0", "updateLabel label value", "", "v1", truth=["org/ui/Labels.java"]),
        make_bug("b-1", "meterchart dial zoomstep", "", "v1", truth=["org/chart/AutoScale.java"]),
    ]
    save_bug_reports(bugs, workspace / "two.jsonl")
    shortlist = localizers.shortlist_files

    def failing_for_b0(bug, *args, **kwargs):
        if bug.bug_id == "b-0":
            raise RetriableProviderError("hashing-64", 3, "HTTP 500")
        return shortlist(bug, *args, **kwargs)

    monkeypatch.setattr(localizers, "shortlist_files", failing_for_b0)
    code = run_cli(
        "localize", "--repo", workspace / "repo", "--bug", workspace / "two.jsonl",
        "--mode", "embedding_only", "--out", workspace / "out",
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "bug b-0: localization failed" in captured.err and "HTTP 500" in captured.err
    assert "b-0" not in captured.out
    assert "bug b-1:\n  1. org/chart/AutoScale.java" in captured.out


def test_cmd_localize_failure_nonzero_exit_transcript_written(workspace, capsys):
    replay = write_replay(
        workspace / "replay.json",
        [{"tool_call": {"name": "search_file", "arguments": {"name": "x"}}}],
        repeat_last=True,
    )
    code = run_cli(
        "localize", "--repo", workspace / "repo", "--bug", workspace / "bugs.jsonl",
        "--mode", "noembed", "--replay", replay, "--out", workspace / "out",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "localization failed" in err
    transcript = read_json(workspace / "out" / "transcript-b-1.json")
    assert transcript["failure_reason"]


# --- evaluate / compare ---------------------------------------------------------------


def eval_dataset(tmp_path, n_historical=3):
    bugs = []
    for i in range(n_historical):
        bugs.append(
            make_bug(f"hist-{i}", f"old bug {i}", "", "v1", truth=["org/io/Reader.java"])
        )
    bugs.append(
        make_bug("eval-1", "meterchart dial zoomstep", "", "v1", truth=["org/chart/AutoScale.java"]),
    )
    bugs.append(
        make_bug("eval-2", "updateLabel label value", "", "v1", truth=["org/ui/Labels.java"]),
    )
    stamped = [
        type(b)(
            bug_id=b.bug_id, summary=b.summary, description=b.description,
            version_id=b.version_id, ground_truth=b.ground_truth, report_time=float(i),
        )
        for i, b in enumerate(bugs)
    ]
    path = tmp_path / "dataset.jsonl"
    save_bug_reports(stamped, path)
    return path


def test_cmd_evaluate_embedding_only(workspace, capsys):
    dataset = eval_dataset(workspace)
    out = workspace / "out"
    code = run_cli(
        "evaluate", "--repo", workspace / "repo", "--dataset", dataset,
        "--mode", "embedding_only", "--runs", 2, "--out", out,
    )
    assert code == 0
    report = read_json(out / "report-embedding_only.json")
    assert report["technique"] == "embedding_only"
    assert report["accuracy_at"]["1"] == 1.0
    assert report["schema_version"] == 1
    assert (out / "report-embedding_only.txt").exists()
    stdout = capsys.readouterr().out
    assert "Acc@1" in stdout


def test_cmd_evaluate_genloc_scripted(workspace):
    dataset = eval_dataset(workspace)
    out = workspace / "out-genloc"
    replay = write_replay(
        workspace / "replay.json",
        [
            {"tool_call": {"name": "get_candidate_filenames", "arguments": {}}},
            {
                "final": (
                    "```\n1. org/chart/AutoScale.java - dial scaling\n"
                    "2. org/ui/Labels.java - label path\n```"
                )
            },
        ],
    )
    code = run_cli(
        "evaluate", "--repo", workspace / "repo", "--dataset", dataset,
        "--mode", "genloc", "--replay", replay, "--runs", 3, "--out", out,
    )
    assert code == 0
    report = read_json(out / "report-genloc.json")
    # eval split is [eval-1 (AutoScale), eval-2 (Labels)]; the scripted answer
    # hits AutoScale at rank 1 and Labels at rank 2 for both bugs
    assert report["accuracy_at"]["1"] == 0.5
    assert report["accuracy_at"]["5"] == 1.0
    transcripts = list((out / "transcripts").glob("*.json"))
    assert len(transcripts) == 6  # 2 bugs x 3 runs, all persisted


class StaggeredChat(ChatProvider):
    """One candidate-tool call, then the answer; each turn of bug `e-<i>` is
    delayed the longer the smaller i, so threads finish in reverse order. The
    bugs in `failing` never give a parseable answer."""

    provider_id = "staggered"

    def __init__(self, n_bugs: int, failing: set[str]):
        self.n_bugs = n_bugs
        self.failing = failing

    def complete(self, messages, tool_schemas, temperature):
        bug_id = messages[1].content.split("\n", 1)[0].removeprefix("Bug report ")
        time.sleep(0.01 * (self.n_bugs - int(bug_id.removeprefix("e-"))))
        if not any(m.role == "tool" for m in messages):
            return tool_turn("get_candidate_filenames", {})
        if bug_id in self.failing:
            return text_turn("no ranked list")
        return text_turn(final_answer(["org/chart/AutoScale.java"]))


def test_cmd_evaluate_output_does_not_depend_on_workers(workspace, monkeypatch):
    n_bugs = 6
    bugs = [
        make_bug(f"e-{i}", f"meterchart dial {i}", "", "v1", truth=["org/chart/AutoScale.java"])
        for i in range(n_bugs)
    ]
    save_bug_reports(bugs, workspace / "six.jsonl")
    chat = StaggeredChat(n_bugs, failing={"e-0", "e-1"})
    monkeypatch.setattr(cli, "build_chat_provider", lambda config: chat)
    outputs = []
    for workers in (1, 4):
        config = workspace / f"workers-{workers}.yaml"
        config.write_text(f"workers: {workers}\n", encoding="utf-8")
        out = workspace / f"out-{workers}"
        code = run_cli(
            "evaluate", "--config", config, "--repo", workspace / "repo",
            "--dataset", workspace / "six.jsonl", "--train-fraction", 0,
            "--mode", "genloc", "--runs", 2, "--out", out,
        )
        assert code == 1  # the failing bugs are recorded, and reported by the exit code
        transcripts = {p.name: p.read_bytes() for p in (out / "transcripts").iterdir()}
        outputs.append(((out / "report-genloc.json").read_bytes(), transcripts))
    (report_1, transcripts_1), (report_4, transcripts_4) = outputs
    failures = json.loads(report_1)["failures"]
    assert [(f["run_id"], f["bug_id"]) for f in failures] == [
        (1, "e-0"), (1, "e-1"), (2, "e-0"), (2, "e-1")
    ]
    assert report_4 == report_1
    assert sorted(transcripts_1) == sorted(f"e-{i // 2}-{i}.json" for i in range(2 * n_bugs))
    assert transcripts_4 == transcripts_1


def test_cmd_evaluate_vsm(workspace):
    dataset = eval_dataset(workspace)
    out = workspace / "out-vsm"
    code = run_cli(
        "evaluate", "--repo", workspace / "repo", "--dataset", dataset,
        "--mode", "vsm", "--runs", 1, "--out", out,
    )
    assert code == 0
    report = read_json(out / "report-vsm.json")
    assert report["accuracy_at"]["1"] == 1.0


def test_cmd_evaluate_vsm_from_the_config_file(workspace):
    dataset = eval_dataset(workspace)
    config = workspace / "vsm.yaml"
    config.write_text("mode: vsm\nruns: 1\n", encoding="utf-8")
    out = workspace / "out-vsm"
    code = run_cli(
        "evaluate", "--config", config, "--repo", workspace / "repo", "--dataset", dataset,
        "--out", out,
    )
    assert code == 0
    assert read_json(out / "report-vsm.json")["technique"] == "vsm"


def test_cmd_localize_bit_reproducible(workspace):
    replay = write_replay(
        workspace / "replay.json",
        [
            {"tool_call": {"name": "search_method", "arguments": {"name": "zoomOut"}}},
            {"final": "```\n1. org/chart/AutoScale.java - dial symptoms\n```"},
        ],
    )
    transcripts = set()
    for run in ("run-a", "run-b", "run-c"):
        out = workspace / run
        assert run_cli(
            "localize", "--repo", workspace / "repo", "--bug", workspace / "bugs.jsonl",
            "--mode", "noembed", "--replay", replay, "--out", out,
        ) == 0
        transcripts.add((out / "transcript-b-1.json").read_bytes())
    assert len(transcripts) == 1


def test_cmd_compare_single_technique_clean_error(workspace, capsys):
    dataset = eval_dataset(workspace)
    out = workspace / "out-single"
    assert run_cli(
        "evaluate", "--repo", workspace / "repo", "--dataset", dataset,
        "--mode", "vsm", "--runs", 1, "--out", out,
    ) == 0
    code = run_cli("compare", out / "report-vsm.json", "--dataset", dataset)
    assert code == 2
    assert "two techniques" in capsys.readouterr().err


def test_cmd_compare_without_dataset_is_one_error_line(workspace, capsys):
    dataset = eval_dataset(workspace)
    reports = []
    for mode in ("embedding_only", "vsm"):
        out = workspace / f"out-{mode}"
        assert run_cli(
            "evaluate", "--repo", workspace / "repo", "--dataset", dataset,
            "--mode", mode, "--runs", 1, "--out", out,
        ) == 0
        reports.append(out / f"report-{mode}.json")
    capsys.readouterr()
    assert run_cli("compare", *reports) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: compare needs ground truths: pass --dataset\n"


@pytest.mark.parametrize(
    "report, reason",
    [
        ([], "a report is a JSON object, not list"),
        ({"technique": "vsm", "mrr_at_10": 0.5, "map_at_10": 0.5}, "the report lacks the field 'accuracy_at'"),
        ({"technique": "vsm", "accuracy_at": [], "mrr_at_10": 0.5, "map_at_10": 0.5},
         "malformed report: 'list' object has no attribute 'items'"),
        ({"technique": "vsm", "accuracy_at": {"1": 0.5}, "mrr_at_10": 0.5, "map_at_10": 0.5, "per_bug": [{}]},
         "the report lacks the field 'bug_id'"),
    ],
    ids=["not-an-object", "no-accuracy", "accuracy-not-an-object", "per-bug-without-id"],
)
def test_cmd_compare_malformed_report_is_one_error_line(workspace, capsys, report, reason):
    dataset = eval_dataset(workspace)
    path = workspace / "report.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    assert run_cli("compare", path, path, "--dataset", dataset) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {reason}\n"


def test_cmd_compare_overlap_table(workspace, capsys):
    dataset = eval_dataset(workspace)
    out_a = workspace / "out-a"
    out_b = workspace / "out-b"
    assert run_cli(
        "evaluate", "--repo", workspace / "repo", "--dataset", dataset,
        "--mode", "embedding_only", "--runs", 1, "--out", out_a,
    ) == 0
    assert run_cli(
        "evaluate", "--repo", workspace / "repo", "--dataset", dataset,
        "--mode", "vsm", "--runs", 1, "--out", out_b,
    ) == 0
    code = run_cli(
        "compare", out_a / "report-embedding_only.json", out_b / "report-vsm.json",
        "--dataset", dataset, "--out", workspace / "cmp",
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "Localized" in stdout and "Unique" in stdout
    overlap = read_json(workspace / "cmp" / "overlap.json")
    assert set(overlap["techniques"]) == {"embedding_only", "vsm"}
    for stats in overlap["techniques"].values():
        assert set(stats["localized"]) == set(stats["overlapping"]) | set(stats["unique"])


def write_report(path, technique, hits):
    """A report of one run over bugs b1 and b2 that ranks each bug's file
    first if the bug is in `hits`, and C.java alone otherwise."""
    per_bug = [
        LocalizationResult(bug, technique, 0, (truth if bug in hits else "C.java",), 1 if bug in hits else None)
        for bug, truth in (("b1", "A.java"), ("b2", "B.java"))
    ]
    score = len(hits) / 2
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report_to_dict(EvalReport(technique, {1: score}, score, score, per_bug))))
    return path


@pytest.mark.parametrize("stems", [("g1", "g2"), ("report-genloc-k10", "report-genloc-k50")])
def test_cmd_compare_labels_a_repeated_technique_by_its_file(tmp_path, capsys, stems):
    dataset = tmp_path / "dataset.jsonl"
    save_bug_reports([make_bug("b1", truth=["A.java"]), make_bug("b2", truth=["B.java"])], dataset)
    reports = [
        write_report(tmp_path / f"{stems[0]}.json", "genloc", {"b1"}),
        write_report(tmp_path / f"{stems[1]}.json", "genloc", {"b2"}),
        write_report(tmp_path / "v.json", "vsm", set()),
    ]
    assert run_cli("compare", *reports, "--dataset", dataset, "--out", tmp_path / "cmp") == 0
    first, second = labels = [f"genloc@{stem}" for stem in stems]
    metric_table, overlap_table = capsys.readouterr().out.split("\n\n")
    for table in (metric_table, overlap_table):
        assert [line.split()[0] for line in table.splitlines()[2:]] == [*labels, "vsm"]
        assert len({len(line) for line in table.splitlines()}) == 1  # the columns line up
    assert read_json(tmp_path / "cmp" / "overlap.json")["techniques"] == {
        first: {"localized": ["b1"], "overlapping": [], "unique": ["b1"]},
        second: {"localized": ["b2"], "overlapping": [], "unique": ["b2"]},
        "vsm": {"localized": [], "overlapping": [], "unique": []},
    }


def test_cmd_compare_refuses_two_reports_of_one_label(tmp_path, capsys):
    dataset = tmp_path / "dataset.jsonl"
    save_bug_reports([make_bug("b1", truth=["A.java"]), make_bug("b2", truth=["B.java"])], dataset)
    reports = [
        write_report(tmp_path / "a" / "report-genloc.json", "genloc", {"b1"}),
        write_report(tmp_path / "b" / "report-genloc.json", "genloc", {"b2"}),
        write_report(tmp_path / "v.json", "vsm", set()),
    ]
    assert run_cli("compare", *reports, "--dataset", dataset) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: two reports are labelled 'genloc@report-genloc': give their files different names\n"
    )
