"""The bytes of evaluation reports and transcripts, pinned as one digest.

Three techniques are evaluated three times over a seeded benchmark corpus of
three versions, and every report and transcript they write is hashed in path
order. A change to resolution, to the metrics, to how runs are aggregated or
to how reports and transcripts are serialized moves the digest; a change that
only restates those rules must not.
"""

import hashlib
import importlib
from pathlib import Path

import pytest

from bugloc.agent import write_transcript
from bugloc.chat import ChatProvider, ScriptedChatProvider
from bugloc.embedders import HashingEmbedder
from bugloc.dataset import load_bug_reports
from bugloc.harness import VersionStore, aggregate_runs, evaluate_technique, write_report_files
from bugloc.localizers import AgentLocalizer, EmbeddingLocalizer, VsmLocalizer
from bugloc.metrics import EvalReport

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# Written by the three techniques at runs=3 over generate(3, 120, 30, 3):
# 3 reports, 3 tables and 90 transcripts.
GOLDEN_OUTPUT = "949b81cb65f142424d3aaafc560ee34824193b943f3936b01319409f2da3c221"
GOLDEN_FILE_COUNT = 96


class ReplayByBug(ChatProvider):
    """Sends each conversation to the replay of the bug its prompt names."""

    provider_id = "scripted-by-bug"

    def __init__(self, replays: dict[str, ScriptedChatProvider]):
        self.replays = replays

    def complete(self, messages, tool_schemas, temperature):
        bug_id = messages[1].content.split("\n", 1)[0].removeprefix("Bug report ")
        return self.replays[bug_id].complete(messages, tool_schemas, temperature)


def test_reports_and_transcripts_keep_their_bytes(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gen = importlib.import_module("gen")
    written = gen.write_dataset(gen.generate(3, 120, 30, 3), tmp_path / "input")
    bugs = load_bug_reports(written["dataset"])
    chat = ReplayByBug(
        {p.stem: ScriptedChatProvider.from_file(p) for p in sorted(written["replays"].glob("*.json"))}
    )
    embedder = HashingEmbedder(64)
    factories = {
        "vsm": VsmLocalizer,
        "embedding_only": lambda: EmbeddingLocalizer(embedder),
        "genloc": lambda: AgentLocalizer(chat, embedder),
    }
    out = tmp_path / "out"
    for technique, factory in factories.items():
        store = VersionStore(written["repo"], embedding_provider=embedder)
        outcome = evaluate_technique(bugs, factory, store, technique, runs=3)
        write_report_files(outcome.report, out, outcome.failures)
        for seq, transcript in enumerate(outcome.transcripts):
            write_transcript(transcript, out / "transcripts" / technique / f"{transcript.bug_id}-{seq}.json")

    digest = hashlib.sha256()
    files = sorted(p for p in out.rglob("*") if p.is_file())
    for path in files:
        digest.update(path.relative_to(out).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    assert len(files) == GOLDEN_FILE_COUNT
    assert digest.hexdigest() == GOLDEN_OUTPUT


@pytest.mark.parametrize(
    "values, mean",
    [
        # a compensated sum, as builtin sum() is from Python 3.12 on, gives
        # 0.19999999999999998 and 1/3
        ((0.1, 0.2, 0.3), 0.20000000000000004),
        ((1e16, 1.0, -1e16), 0.0),
    ],
)
def test_aggregate_runs_adds_left_to_right(values, mean):
    reports = [EvalReport("t", {1: value}, value, value) for value in values]
    aggregated = aggregate_runs(reports)
    assert aggregated.accuracy_at == {1: mean}
    assert aggregated.mrr_at_10 == aggregated.map_at_10 == mean
