import pytest

from bugloc.agent import (
    AgentConfig,
    ChatMessage,
    FinalAnswerParseError,
    build_prompt,
    parse_final_answer,
    run_localization,
    transcript_to_json,
)
from bugloc.chat import (
    ChatProviderError,
    RecordingChatProvider,
    RemoteChatProvider,
    ScriptedChatProvider,
    ToolCall,
    load_replay,
    save_replay,
)
from bugloc.code_index import build_index
from bugloc.embedding import Shortlist
from bugloc.tools import GET_CANDIDATE_FILENAMES, ToolRegistry, make_tool_registry
from bugloc.validation import InputValidationError
from conftest import final_answer, html_response, java_class, make_bug, text_turn, tool_turn, write_tree


@pytest.fixture
def toolenv(tmp_path):
    files = {
        "org/chart/AutoScale.java": java_class(
            "AutoScale", {"zoomOut": "scale = scale / step;", "render": "draw();"}
        ),
        "org/chart/Generator.java": java_class("Generator", {"render": "generate();"}),
    }
    index = build_index(write_tree(tmp_path / "repo", files), "java", "v1")
    shortlist = Shortlist(entries=(("org/chart/AutoScale.java", 0.9), ("org/chart/Generator.java", 0.8)))
    return make_tool_registry(index, shortlist=shortlist)


# --- message model -----------------------------------------------------------


def test_tool_call_only_on_model_messages():
    with pytest.raises(ValueError):
        ChatMessage(role="system", content="x", tool_call=("search_file", {}))


def test_tool_result_only_on_tool_messages():
    with pytest.raises(ValueError):
        ChatMessage(role="model", content="x", tool_result="y")


def test_chat_turn_is_exclusive():
    with pytest.raises(ValueError):
        ChatMessage(role="model", content="x", tool_call=ToolCall("search_file", {}))


# --- prompt ------------------------------------------------------------------


def test_prompt_contains_role_framing():
    messages = build_prompt(make_bug(), AgentConfig())
    assert "fault localization" in messages[0].content


def test_prompt_states_limits():
    messages = build_prompt(make_bug(), AgentConfig())
    text = messages[0].content
    assert "10 most relevant files" in text
    assert "maximum limit of 10 iterations" in text
    assert "you must provide your final output regardless of confidence level" in text


def test_prompt_limits_follow_config():
    config = AgentConfig(max_iterations=4, final_list_size=3)
    text = build_prompt(make_bug(), config)[0].content
    assert "3 most relevant files" in text
    assert "maximum limit of 4 iterations" in text


def test_prompt_whitelist_filters_tool_descriptions(two_file_repo):
    registry = make_tool_registry(two_file_repo[0], shortlist=None)
    text = build_prompt(make_bug(), AgentConfig(), registry.names())[0].content
    assert GET_CANDIDATE_FILENAMES not in text
    assert "search_file" in text


def test_prompt_carries_bug_fields():
    bug = make_bug(summary="only summary", description="")
    messages = build_prompt(bug, AgentConfig())
    assert len(messages) == 2
    assert "only summary" in messages[1].content
    assert "Description:" in messages[1].content


def test_prompt_rejects_empty_bug():
    with pytest.raises(InputValidationError):
        build_prompt(make_bug(summary="", description="   "), AgentConfig())


# --- final answer parsing ------------------------------------------------------


def test_parse_well_formed_block():
    text = final_answer([f"p{i}/F{i}.java" for i in range(10)])
    predictions = parse_final_answer(text, 10)
    assert len(predictions) == 10
    assert [p.rank for p in predictions] == list(range(1, 11))
    assert predictions[0].fq_path_claim == "p0/F0.java"
    assert predictions[0].justification == "suspicious"


def test_parse_duplicates_collapse_and_ranks_shift():
    text = "```\n1. a/A.java - first\n2. a/A.java - again\n3. b/B.java - second\n```"
    predictions = parse_final_answer(text, 10)
    assert [(p.fq_path_claim, p.rank) for p in predictions] == [
        ("a/A.java", 1),
        ("b/B.java", 2),
    ]


def test_parse_free_prose_is_error():
    with pytest.raises(FinalAnswerParseError):
        parse_final_answer("I believe the bug is in the rendering pipeline somewhere.", 10)


def test_parse_truncates_to_final_list_size():
    text = final_answer([f"p/F{i}.java" for i in range(15)])
    assert len(parse_final_answer(text, 10)) == 10


def test_parse_without_fence_still_finds_numbered_lines():
    text = "1. a/A.java - alpha\n2. b/B.java: beta"
    predictions = parse_final_answer(text, 10)
    assert [p.fq_path_claim for p in predictions] == ["a/A.java", "b/B.java"]


def test_parse_emission_order_defines_rank():
    text = "```\n5. z/Z.java - listed first\n1. a/A.java - listed second\n```"
    predictions = parse_final_answer(text, 10)
    assert [(p.fq_path_claim, p.rank) for p in predictions] == [
        ("z/Z.java", 1),
        ("a/A.java", 2),
    ]


# --- the loop -------------------------------------------------------------------


def test_immediate_answer_single_iteration(toolenv):
    provider = ScriptedChatProvider([text_turn(final_answer(["org/chart/AutoScale.java"]))])
    predictions, transcript = run_localization(make_bug(), toolenv, provider, AgentConfig())
    assert transcript.iterations_used == 1
    assert transcript.failure_reason is None
    assert [p.fq_path_claim for p in predictions] == ["org/chart/AutoScale.java"]
    assert transcript.raw_final_answer


def test_tool_result_feeds_back_before_answer(toolenv):
    provider = ScriptedChatProvider(
        [
            tool_turn("search_method", {"name": "zoomOut"}),
            text_turn(final_answer(["org/chart/AutoScale.java"])),
        ]
    )
    predictions, transcript = run_localization(make_bug(), toolenv, provider, AgentConfig())
    roles = [m.role for m in transcript.messages]
    assert roles == ["system", "system", "model", "tool", "model"]
    tool_message = transcript.messages[3]
    assert "org/chart/AutoScale.java" in tool_message.tool_result
    assert transcript.iterations_used == 2
    assert predictions


def test_stall_stops_at_iteration_ten_with_forced_instruction(toolenv):
    provider = ScriptedChatProvider(
        [tool_turn("search_file", {"name": "X.java"})], repeat_last=True
    )
    predictions, transcript = run_localization(make_bug(), toolenv, provider, AgentConfig())
    assert predictions == []
    assert transcript.iterations_used == 10
    assert transcript.failure_reason
    model_turns = [m for m in transcript.messages if m.role == "model"]
    assert len(model_turns) == 10
    forced = [m for m in transcript.messages if m.role == "system" and "final iteration" in m.content]
    assert len(forced) == 1


def test_forced_instruction_lets_scripted_stall_answer_at_ten(toolenv):
    turns = [tool_turn("search_file", {"name": "X.java"})] * 9
    turns.append(text_turn(final_answer(["org/chart/AutoScale.java"])))
    provider = ScriptedChatProvider(turns)
    predictions, transcript = run_localization(make_bug(), toolenv, provider, AgentConfig())
    assert transcript.iterations_used == 10
    assert transcript.failure_reason is None
    assert predictions


def test_non_whitelisted_tool_reported_unavailable(two_file_repo):
    registry = make_tool_registry(two_file_repo[0], shortlist=None)
    provider = ScriptedChatProvider(
        [
            tool_turn(GET_CANDIDATE_FILENAMES, {}),
            text_turn(final_answer(["org/chart/AutoScale.java"])),
        ]
    )
    predictions, transcript = run_localization(make_bug(), registry, provider, AgentConfig())
    tool_message = next(m for m in transcript.messages if m.role == "tool")
    assert "not available" in tool_message.tool_result
    assert predictions


def test_malformed_answer_gets_one_corrective_reprompt(toolenv):
    provider = ScriptedChatProvider(
        [
            text_turn("no list here, just prose"),
            text_turn(final_answer(["org/chart/AutoScale.java"])),
        ]
    )
    predictions, transcript = run_localization(make_bug(), toolenv, provider, AgentConfig())
    assert predictions
    correctives = [
        m for m in transcript.messages if m.role == "system" and "could not be parsed" in m.content
    ]
    assert len(correctives) == 1
    assert transcript.iterations_used == 2


def test_second_malformed_answer_fails_bug(toolenv):
    provider = ScriptedChatProvider(
        [text_turn("prose one"), text_turn("prose two")]
    )
    predictions, transcript = run_localization(make_bug(), toolenv, provider, AgentConfig())
    assert predictions == []
    assert "unparseable" in transcript.failure_reason
    assert transcript.raw_final_answer == ""


def test_provider_failure_is_per_bug_failure_not_crash(toolenv):
    class Failing:
        def complete(self, messages, tool_schemas, temperature):
            raise ChatProviderError("socket down")

    config = AgentConfig()
    predictions, transcript = run_localization(make_bug(), toolenv, Failing(), config)
    assert predictions == []
    assert "socket down" in transcript.failure_reason


def test_bug_without_text_fails_before_any_provider_call(toolenv):
    class Counting:
        calls = 0

        def complete(self, messages, tool_schemas, temperature):
            Counting.calls += 1
            return text_turn(final_answer(["org/chart/AutoScale.java"]))

    bug = make_bug("b-empty", summary=" ", description="")
    predictions, transcript = run_localization(bug, toolenv, Counting(), AgentConfig())
    assert predictions == []
    assert transcript.failure_reason == "bug report b-empty has neither summary nor description"
    assert transcript.messages == [] and transcript.iterations_used == 0
    assert Counting.calls == 0


class _StatusSession:
    """Answers every POST with one HTTP status and counts the POSTs."""

    def __init__(self, status_code):
        self.headers = {}
        self.status_code = status_code
        self.posts = 0

    def post(self, url, json=None, timeout=None):
        self.posts += 1
        return self


@pytest.mark.parametrize("status, posts", [(500, 3), (401, 1)])
def test_remote_failure_posts_at_most_max_attempts(toolenv, monkeypatch, status, posts):
    monkeypatch.setenv("TEST_CHAT_KEY", "secret")
    session = _StatusSession(status)
    provider = RemoteChatProvider(
        "chat-model", "https://api.example", api_key_env="TEST_CHAT_KEY",
        max_attempts=3, session=session, retry_delay=0.0,
    )
    predictions, transcript = run_localization(make_bug(), toolenv, provider, AgentConfig())
    assert predictions == []
    assert f"HTTP {status}" in transcript.failure_reason
    assert session.posts == posts


class _HtmlSession(_StatusSession):
    def post(self, url, json=None, timeout=None):
        self.posts += 1
        return html_response()


def test_remote_non_json_body_is_per_bug_failure(toolenv, monkeypatch):
    monkeypatch.setenv("TEST_CHAT_KEY", "secret")
    session = _HtmlSession(200)
    provider = RemoteChatProvider(
        "chat-model", "https://api.example", api_key_env="TEST_CHAT_KEY",
        session=session, retry_delay=0.0,
    )
    predictions, transcript = run_localization(make_bug(), toolenv, provider, AgentConfig())
    assert predictions == []
    assert "not JSON" in transcript.failure_reason
    assert session.posts == 1


class _BodySession(_StatusSession):
    """Answers every POST with status 200 and `body`."""

    def __init__(self, body):
        super().__init__(200)
        self.body = body

    def json(self):
        return self.body


@pytest.mark.parametrize(
    "message",
    [
        [], {"tool_calls": {"function": {"name": "search_file"}}}, {"tool_calls": [{"type": "function"}]},
        {"content": [{"type": "text", "text": "1. org/chart/AutoScale.java"}]},
    ],
    ids=["message-not-object", "calls-not-a-list", "call-without-function", "content-not-text"],
)
def test_remote_malformed_message_is_per_bug_failure(toolenv, monkeypatch, message):
    monkeypatch.setenv("TEST_CHAT_KEY", "secret")
    session = _BodySession({"choices": [{"message": message}]})
    provider = RemoteChatProvider(
        "chat-model", "https://api.example", api_key_env="TEST_CHAT_KEY",
        session=session, retry_delay=0.0,
    )
    predictions, transcript = run_localization(make_bug(), toolenv, provider, AgentConfig())
    assert predictions == []
    assert transcript.failure_reason.startswith("chat provider failure: malformed chat response: ")
    assert session.posts == 1


class _ToolCallSession(_StatusSession):
    """Answers the first POST with a call of search_file whose arguments are
    `arguments`, a JSON text, and every later one with a final answer."""

    def __init__(self, arguments):
        super().__init__(200)
        self.arguments = arguments

    def post(self, url, json=None, timeout=None):
        self.posts += 1
        return self

    def json(self):
        if self.posts == 1:
            call = {"function": {"name": "search_file", "arguments": self.arguments}}
            return {"choices": [{"message": {"tool_calls": [call]}}]}
        return {"choices": [{"message": {"content": final_answer(["org/chart/AutoScale.java"])}}]}


@pytest.mark.parametrize("arguments, kind", [("[1]", "list"), ("null", "NoneType"), ('"x"', "str")])
def test_remote_tool_call_arguments_that_are_no_object_are_answered(toolenv, monkeypatch, arguments, kind):
    monkeypatch.setenv("TEST_CHAT_KEY", "secret")
    session = _ToolCallSession(arguments)
    provider = RemoteChatProvider(
        "chat-model", "https://api.example", api_key_env="TEST_CHAT_KEY",
        session=session, retry_delay=0.0,
    )
    predictions, transcript = run_localization(make_bug(), toolenv, provider, AgentConfig())
    assert transcript.failure_reason is None
    assert [p.fq_path_claim for p in predictions] == ["org/chart/AutoScale.java"]
    tool_message = next(m for m in transcript.messages if m.role == "tool")
    assert tool_message.tool_result == f"Invalid arguments for 'search_file': expected an object, not {kind}"
    assert session.posts == 2


def test_a_tool_that_raises_is_answered_and_the_loop_goes_on(caplog):
    def broken(name):
        raise RuntimeError("disk gone")

    registry = ToolRegistry({"search_file": broken})
    provider = ScriptedChatProvider(
        [
            tool_turn("search_file", {"name": "AutoScale.java"}),
            text_turn(final_answer(["org/chart/AutoScale.java"])),
        ]
    )
    predictions, transcript = run_localization(make_bug(), registry, provider, AgentConfig())
    assert [p.fq_path_claim for p in predictions] == ["org/chart/AutoScale.java"]
    tool_message = next(m for m in transcript.messages if m.role == "tool")
    assert tool_message.tool_result == "Tool 'search_file' failed: disk gone"
    [record] = [r for r in caplog.records if r.name == "bugloc.tools"]
    assert record.getMessage() == "tool search_file failed" and record.exc_info[0] is RuntimeError


def test_tool_result_char_cap(toolenv):
    config = AgentConfig(tool_result_char_cap=10)
    provider = ScriptedChatProvider(
        [
            tool_turn("get_method_body", {"method": "zoomOut"}),
            text_turn(final_answer(["org/chart/AutoScale.java"])),
        ]
    )
    _, transcript = run_localization(make_bug(), toolenv, provider, config)
    tool_message = next(m for m in transcript.messages if m.role == "tool")
    assert tool_message.tool_result.endswith("[truncated]")
    assert len(tool_message.tool_result) <= 10 + len("\n[truncated]")


def test_replay_determinism_byte_identical(toolenv):
    turns = [
        tool_turn("search_method", {"name": "zoomOut"}),
        tool_turn("get_method_body", {"method": "zoomOut"}),
        text_turn(final_answer(["org/chart/AutoScale.java", "org/chart/Generator.java"])),
    ]
    provider = ScriptedChatProvider(turns)
    outputs = set()
    for _ in range(3):
        predictions, transcript = run_localization(make_bug(), toolenv, provider, AgentConfig())
        outputs.add(
            (transcript_to_json(transcript), tuple((p.fq_path_claim, p.rank) for p in predictions))
        )
    assert len(outputs) == 1


def test_iteration_bound_never_exceeded(toolenv):
    provider = ScriptedChatProvider(
        [tool_turn("search_file", {"name": "A"})], repeat_last=True
    )
    for limit in (1, 2, 5):
        config = AgentConfig(max_iterations=limit)
        _, transcript = run_localization(make_bug(), toolenv, provider, config)
        model_turns = [m for m in transcript.messages if m.role == "model"]
        assert len(model_turns) <= limit


def test_tool_call_closure(toolenv):
    provider = ScriptedChatProvider(
        [
            tool_turn("search_file", {"name": "AutoScale.java"}),
            text_turn(final_answer(["org/chart/AutoScale.java"])),
        ]
    )
    config = AgentConfig()
    _, transcript = run_localization(make_bug(), toolenv, provider, config)
    for message in transcript.messages:
        if message.tool_call is not None:
            assert message.tool_call[0] in toolenv


# --- replay files ------------------------------------------------------------


def test_replay_file_roundtrip(tmp_path):
    turns = [
        tool_turn("search_file", {"name": "A.java"}),
        text_turn("```\n1. a/A.java - done\n```"),
    ]
    path = tmp_path / "replay.json"
    save_replay(path, turns, repeat_last=True)
    loaded, repeat_last = load_replay(path)
    assert loaded == turns
    assert repeat_last


def test_recording_provider_produces_replayable_file(tmp_path, toolenv):
    inner = ScriptedChatProvider(
        [
            tool_turn("search_method", {"name": "render"}),
            text_turn(final_answer(["org/chart/Generator.java"])),
        ]
    )
    recorder = RecordingChatProvider(inner)
    first_predictions, _ = run_localization(make_bug(), toolenv, recorder, AgentConfig())
    path = tmp_path / "recorded.json"
    recorder.save(path)
    replayed = ScriptedChatProvider.from_file(path)
    second_predictions, _ = run_localization(make_bug(), toolenv, replayed, AgentConfig())
    assert [p.fq_path_claim for p in first_predictions] == [
        p.fq_path_claim for p in second_predictions
    ]


def test_scripted_provider_exhaustion_is_provider_error(toolenv):
    provider = ScriptedChatProvider([tool_turn("search_file", {"name": "A"})])
    config = AgentConfig()
    predictions, transcript = run_localization(make_bug(), toolenv, provider, config)
    assert predictions == []
    assert "provider" in transcript.failure_reason
