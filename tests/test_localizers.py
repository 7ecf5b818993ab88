import pytest

from bugloc.agent import AgentConfig
from bugloc.chat import ChatTurn, ScriptedChatProvider, ToolCall
from bugloc.code_index import build_index
from bugloc.embedders import HashingEmbedder
from bugloc.embedding import build_embedding_index, shortlist_files
from bugloc.localizers import (
    AgentLocalizer,
    EmbeddingLocalizer,
    LocalizationFailure,
    VsmLocalizer,
)
from bugloc.tools import GET_CANDIDATE_FILENAMES
from bugloc.validation import NotFittedError
from conftest import final_answer, java_class, make_bug, write_tree


@pytest.fixture
def corpus(tmp_path):
    files = {
        "org/ui/Labels.java": java_class("Labels", {"updateLabel": "label = newLabel;"}),
        "org/chart/AutoScale.java": java_class(
            "AutoScale", {"zoomOut": "meterchart dial zoomstep;"}
        ),
        "org/io/Reader.java": java_class("Reader", {"read": "buffer.fill();"}),
    }
    root = write_tree(tmp_path / "repo", files)
    index = build_index(root, "java", "v1")
    provider = HashingEmbedder(dimension=64)
    eindex = build_embedding_index(index, provider)
    return index, eindex, provider


def scripted(*turns):
    return ScriptedChatProvider(list(turns))


# --- estimator protocol ---------------------------------------------------------


def test_agent_localizer_params_include_configuration(corpus):
    _, _, provider = corpus
    chat = scripted()
    config = AgentConfig(max_iterations=4, final_list_size=5)
    localizer = AgentLocalizer(chat, embedding_provider=provider, shortlist_k=25, config=config)
    assert localizer.chat_provider is chat
    assert localizer.embedding_provider is provider
    assert localizer.shortlist_k == 25
    assert localizer.config is config
    assert AgentLocalizer(chat).config == AgentConfig()


def test_predict_before_fit_raises(corpus):
    _, eindex, provider = corpus
    with pytest.raises(NotFittedError):
        VsmLocalizer().predict(make_bug())
    with pytest.raises(NotFittedError):
        EmbeddingLocalizer(provider).predict(make_bug())
    with pytest.raises(NotFittedError):
        AgentLocalizer(chat_provider=scripted()).predict(make_bug())


def test_embedding_localizer_requires_embedding_index(corpus):
    index, _, provider = corpus
    with pytest.raises(ValueError):
        EmbeddingLocalizer(provider).fit(index, None)


@pytest.mark.parametrize("top_n", [0, -1])
@pytest.mark.parametrize(
    "make", [VsmLocalizer, lambda top_n: EmbeddingLocalizer(HashingEmbedder(8), top_n=top_n)],
    ids=["vsm", "embedding_only"],
)
def test_localizer_rejects_top_n_below_one(make, top_n):
    with pytest.raises(ValueError, match=f"top_n must be at least 1, got {top_n}"):
        make(top_n)


def test_agent_localizer_genloc_requires_embedding_pieces(corpus):
    index, eindex, provider = corpus
    with pytest.raises(ValueError):
        AgentLocalizer(chat_provider=scripted(), embedding_provider=provider).fit(index, None)
    # noembed mode needs neither
    AgentLocalizer(chat_provider=scripted()).fit(index, None)


# --- technique behavior -----------------------------------------------------------


def test_vsm_localizer_ranks_planted_file(corpus):
    index, _, _ = corpus
    localizer = VsmLocalizer().fit(index)
    bug = make_bug(summary="meterchart dial zoomstep")
    assert localizer.predict(bug).paths[0] == "org/chart/AutoScale.java"


def test_embedding_localizer_equals_shortlist_prefix(corpus):
    index, eindex, provider = corpus
    localizer = EmbeddingLocalizer(provider, shortlist_k=50, top_n=2).fit(index, eindex)
    bug = make_bug(summary="meterchart dial zoomstep")
    expected = shortlist_files(bug, eindex, provider, k=50).paths()[:2]
    assert localizer.predict(bug).paths == expected


def test_agent_localizer_full_pipeline(corpus):
    index, eindex, provider = corpus
    chat = scripted(
        ChatTurn(tool_call=ToolCall(GET_CANDIDATE_FILENAMES, {})),
        ChatTurn(content=final_answer(["org/chart/AutoScale.java", "bogus/Nothing.java"])),
    )
    localizer = AgentLocalizer(chat_provider=chat, embedding_provider=provider).fit(index, eindex)
    bug = make_bug(summary="meterchart dial zoomstep")
    prediction = localizer.predict(bug)
    assert prediction.paths == ["org/chart/AutoScale.java"]  # bogus claim dropped by the resolver
    transcript = prediction.transcript
    assert GET_CANDIDATE_FILENAMES in transcript.messages[0].content
    tool_message = next(m for m in transcript.messages if m.role == "tool")
    assert tool_message.tool_result.startswith("org/chart/AutoScale.java")


def test_agent_localizer_resolves_near_miss_paths(corpus):
    index, eindex, provider = corpus
    chat = scripted(ChatTurn(content=final_answer(["wrong/pkg/AutoScale.java"])))
    localizer = AgentLocalizer(chat_provider=chat, embedding_provider=provider).fit(index, eindex)
    prediction = localizer.predict(make_bug())
    assert prediction.paths == ["org/chart/AutoScale.java"]
    assert prediction.resolved[0].resolution == "basename_jaccard"


def test_noembed_localizer_reports_candidate_tool_unavailable(corpus):
    index, _, _ = corpus
    chat = scripted(
        ChatTurn(tool_call=ToolCall(GET_CANDIDATE_FILENAMES, {})),
        ChatTurn(content=final_answer(["org/io/Reader.java"])),
    )
    localizer = AgentLocalizer(chat_provider=chat).fit(index)
    prediction = localizer.predict(make_bug())
    assert prediction.paths == ["org/io/Reader.java"]
    transcript = prediction.transcript
    tool_message = next(m for m in transcript.messages if m.role == "tool")
    assert "not available" in tool_message.tool_result
    # prompt omits the tool as well
    assert GET_CANDIDATE_FILENAMES not in transcript.messages[0].content


def test_agent_localizer_failure_raises_with_transcript(corpus):
    index, _, _ = corpus
    chat = ScriptedChatProvider(
        [ChatTurn(tool_call=ToolCall("search_file", {"name": "A"}))], repeat_last=True
    )
    localizer = AgentLocalizer(chat_provider=chat).fit(index)
    with pytest.raises(LocalizationFailure) as err:
        localizer.predict(make_bug())
    assert err.value.transcript is not None  # the transcript survives the failure
    assert err.value.transcript.iterations_used == 10


def test_predict_leaves_the_localizer_unchanged(corpus):
    index, eindex, provider = corpus
    chat = ScriptedChatProvider(
        [ChatTurn(content=final_answer(["org/chart/AutoScale.java"]))], repeat_last=True
    )
    bug = make_bug(summary="meterchart dial zoomstep")
    for localizer in (
        VsmLocalizer().fit(index),
        EmbeddingLocalizer(provider).fit(index, eindex),
        AgentLocalizer(chat_provider=chat, embedding_provider=provider).fit(index, eindex),
    ):
        before = dict(vars(localizer))
        first = localizer.predict(bug)
        assert dict(vars(localizer)) == before
        assert localizer.predict(bug) == first
