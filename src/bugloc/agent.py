"""Iterative reason-and-act localization loop.

One iteration is one model turn, whether it calls a tool or answers. The loop
runs for at most max_iterations turns; before the last allowed turn the model
is told it must produce its final output regardless of confidence. The raw
final answer is parsed into ranked (path, justification) predictions.
"""

from __future__ import annotations

import json
import logging
import re
from collections.abc import Iterable
from dataclasses import dataclass, field

from .chat import ChatProvider, ChatProviderError
from .ioutil import SCHEMA_VERSION, atomic_write_text
from .tools import TOOL_NAMES, ToolRegistry
from .validation import InputValidationError

logger = logging.getLogger(__name__)

ROLE_SYSTEM = "system"
ROLE_MODEL = "model"
ROLE_TOOL = "tool"


class FinalAnswerParseError(ValueError):
    """The model's final text contains no recognizable ranked list."""


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str = ""
    tool_call: tuple[str, dict] | None = None  # (tool name, argument map)
    tool_result: str | None = None

    def __post_init__(self):
        if self.role not in (ROLE_SYSTEM, ROLE_MODEL, ROLE_TOOL):
            raise ValueError(f"unknown message role {self.role!r}")
        if self.tool_call is not None and self.role != ROLE_MODEL:
            raise ValueError("tool_call is only valid on model messages")
        if self.tool_result is not None and self.role != ROLE_TOOL:
            raise ValueError("tool_result is only valid on tool messages")


@dataclass(frozen=True)
class AgentConfig:
    max_iterations: int = 10
    final_list_size: int = 10
    temperature: float = 1.0
    run_seed: str = ""
    tool_result_char_cap: int | None = None  # None: results enter the context untruncated

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.final_list_size < 1:
            raise ValueError("final_list_size must be >= 1")


@dataclass
class AgentTranscript:
    bug_id: str
    messages: list[ChatMessage] = field(default_factory=list)
    iterations_used: int = 0
    raw_final_answer: str = ""
    failure_reason: str | None = None
    run_seed: str = ""


@dataclass(frozen=True)
class RawPrediction:
    fq_path_claim: str
    justification: str
    rank: int  # 1-based, contiguous within one answer


_TOOL_GUIDANCE = {
    "search_file": (
        "Use search_file() to check if a filename matching the extracted keywords or "
        "functionality exists in the code base."
    ),
    "search_method": (
        "If the bug report references a specific method name, use search_method() to locate "
        "the file(s) containing that method."
    ),
    "get_candidate_filenames": (
        "If no strong inference can be made, use get_candidate_filenames() to retrieve a pool "
        "of potential filenames, then prioritize those that align with the bug report's "
        "keywords, functionality, or mentioned methods."
    ),
    "get_method_signatures_of_a_file": (
        "For shortlisted files, retrieve method signatures using "
        "get_method_signatures_of_a_file() and identify methods that directly align with the "
        "bug's context (matching function names, handling related data)."
    ),
    "get_method_body": (
        "If method signatures suggest a relevant function, retrieve its implementation using "
        "get_method_body() and analyze whether its logic aligns with the bug's symptoms."
    ),
}


def _answer_format(final_list_size: int) -> str:
    return (
        "When you give your final answer, respond with only a fenced code block in which each "
        "line has the form:\n"
        "```\n"
        "1. fully/qualified/path/File.java - justification\n"
        "```\n"
        f"with at most {final_list_size} lines, most suspicious file first."
    )


def build_system_prompt(config: AgentConfig, tool_names: Iterable[str]) -> str:
    tools = sorted(tool_names)
    search_steps = [
        _TOOL_GUIDANCE[name]
        for name in ("search_file", "search_method", "get_candidate_filenames")
        if name in tools
    ]
    search_steps.insert(
        min(2, len(search_steps)),
        "If an inferred filename or method location does not exist, refine your strategy: "
        "adjust assumptions, explore variations, and retry.",
    )
    analysis_steps = [
        _TOOL_GUIDANCE[name]
        for name in ("get_method_signatures_of_a_file", "get_method_body")
        if name in tools
    ]

    def bullets(items):
        return "\n".join(f"  - {item}" for item in items)

    n = config.max_iterations
    size = config.final_list_size
    return (
        "You are an expert software engineer specializing in fault localization. Your goal is "
        "to identify the most probable buggy files based on a given bug report. You have access "
        f"to {len(tools)} functions that will help you infer file names, locate methods, and "
        "analyze source code. You must follow an iterative, reasoning-based approach, refining "
        "your strategy dynamically based on prior successes and failures. Continue this process "
        f"until you either (a) produce a well-justified ranked list of the {size} most relevant "
        f"files based on the bug report, or (b) reach the maximum limit of {n} iterations. In "
        f"iteration {n}, you must provide your final output regardless of confidence level.\n"
        "\n"
        "Workflow\n"
        "\n"
        "1. Analyze the Bug Report:\n"
        + bullets(
            [
                "Extract relevant keywords, error messages, and functional hints from the bug "
                "summary and description.",
                "Identify potential components (e.g., UI, database, networking) involved in "
                "the issue.",
            ]
        )
        + "\n\n2. Search:\n"
        + bullets(search_steps)
        + "\n\n3. Method Analysis:\n"
        + bullets(analysis_steps or ["Reason about file responsibilities from their names."])
        + "\n\n4. Refinement and Ranking:\n"
        + bullets(
            [
                "Rank files by keyword and functionality match, method or filename alignment "
                "with the bug context, and code logic alignment with the bug description.",
                "If uncertainty remains, refine the analysis by iterating over previous steps "
                "with adjusted assumptions.",
            ]
        )
        + "\n\n5. Output:\n"
        + bullets(
            [
                f"Provide a ranked list of the {size} most relevant files based on their "
                "likelihood of containing the bug.",
                "Ensure filenames exactly match those provided - do not modify case, "
                "structure, or abbreviate them.",
                "Justify each file's inclusion, clearly explaining its relevance to the bug.",
            ]
        )
        + "\n\nAvailable functions: "
        + ", ".join(f"{name}()" for name in tools)
        + "\n\n"
        + _answer_format(size)
    )


def build_prompt(bug, config: AgentConfig, tool_names: Iterable[str] = TOOL_NAMES) -> list[ChatMessage]:
    """System message with the workflow framing for the tools named, then the
    bug report itself."""
    summary = (bug.summary or "").strip()
    description = (bug.description or "").strip()
    if not summary and not description:
        raise InputValidationError(f"bug report {bug.bug_id} has neither summary nor description")
    bug_message = f"Bug report {bug.bug_id}\nSummary: {summary}\nDescription: {description}"
    return [
        ChatMessage(role=ROLE_SYSTEM, content=build_system_prompt(config, tool_names)),
        ChatMessage(role=ROLE_SYSTEM, content=bug_message),
    ]


_LINE_RE = re.compile(r"^\s*\d+\s*[.)]\s*[`\"']?(\S+?)[`\"']?\s*(?:[-–—:]\s*(.*?))?\s*$")
_FENCE_RE = re.compile(r"```[a-zA-Z]*\n(.*?)```", re.DOTALL)


def parse_final_answer(text: str, final_list_size: int = 10) -> list[RawPrediction]:
    """Extract up to final_list_size (path, justification) pairs.

    Emission order defines the rank; duplicate path claims collapse to their
    first occurrence and later ranks shift up.
    """
    blocks = _FENCE_RE.findall(text)
    candidates = blocks if blocks else [text]
    for block in reversed(candidates):  # prefer the last fenced block
        entries: list[tuple[str, str]] = []
        for line in block.splitlines():
            match = _LINE_RE.match(line)
            if match:
                entries.append((match.group(1), (match.group(2) or "").strip()))
        if entries:
            seen: set[str] = set()
            predictions: list[RawPrediction] = []
            for path, justification in entries:
                if path in seen:
                    continue
                seen.add(path)
                predictions.append(RawPrediction(path, justification, rank=len(predictions) + 1))
                if len(predictions) == final_list_size:
                    break
            return predictions
    raise FinalAnswerParseError("no ranked file list found in the final answer")


_FORCED_ANSWER = (
    "This is the final iteration. You must provide your final output now, regardless of "
    "confidence level, in the required fenced list format."
)

_CORRECTIVE = (
    "Your final answer could not be parsed. Reply again with only the fenced code block, one "
    "line per file in the form 'rank. fully/qualified/path - justification'."
)


def run_localization(
    bug, tools: ToolRegistry, provider: ChatProvider, config: AgentConfig
) -> tuple[list[RawPrediction], AgentTranscript]:
    """Run the loop until the model answers or the iteration budget is spent.

    The model is offered the tools of `tools`, no other. Always returns a
    transcript; a failed bug yields an empty prediction list, an empty
    raw_final_answer, and a failure_reason. Never raises for per-bug
    conditions.
    """
    transcript = AgentTranscript(bug_id=bug.bug_id, run_seed=config.run_seed)
    try:
        messages = build_prompt(bug, config, tools.names())
    except InputValidationError as exc:
        transcript.failure_reason = str(exc)
        return [], transcript
    transcript.messages = messages
    schemas = tools.schemas()

    reprompted = False
    for iteration in range(1, config.max_iterations + 1):
        if iteration == config.max_iterations:
            messages.append(ChatMessage(role=ROLE_SYSTEM, content=_FORCED_ANSWER))
        try:
            turn = provider.complete(messages, schemas, config.temperature)
        except ChatProviderError as exc:
            transcript.failure_reason = f"chat provider failure: {exc}"
            return [], transcript

        transcript.iterations_used = iteration
        if turn.tool_call is not None:
            name = turn.tool_call.name
            arguments = dict(turn.tool_call.arguments)
            messages.append(
                ChatMessage(role=ROLE_MODEL, content="", tool_call=(name, arguments))
            )
            rendered = tools.dispatch(name, arguments).render()
            cap = config.tool_result_char_cap
            if cap is not None and len(rendered) > cap:
                rendered = rendered[:cap] + "\n[truncated]"
            messages.append(ChatMessage(role=ROLE_TOOL, content="", tool_result=rendered))
            continue

        messages.append(ChatMessage(role=ROLE_MODEL, content=turn.content))
        try:
            predictions = parse_final_answer(turn.content, config.final_list_size)
        except FinalAnswerParseError as exc:
            if not reprompted and iteration < config.max_iterations:
                reprompted = True
                messages.append(ChatMessage(role=ROLE_SYSTEM, content=_CORRECTIVE))
                continue
            transcript.failure_reason = f"unparseable final answer: {exc}"
            return [], transcript
        transcript.raw_final_answer = turn.content
        return predictions, transcript

    transcript.failure_reason = (
        f"no final answer after {config.max_iterations} iterations"
    )
    return [], transcript


def transcript_to_dict(transcript: AgentTranscript) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "bug_id": transcript.bug_id,
        "run_seed": transcript.run_seed,
        "iterations_used": transcript.iterations_used,
        "raw_final_answer": transcript.raw_final_answer,
        "failure_reason": transcript.failure_reason,
        "messages": [
            {
                "role": m.role,
                "content": m.content,
                "tool_call": (
                    {"name": m.tool_call[0], "arguments": m.tool_call[1]}
                    if m.tool_call is not None
                    else None
                ),
                "tool_result": m.tool_result,
            }
            for m in transcript.messages
        ],
    }


def transcript_to_json(transcript: AgentTranscript) -> str:
    return json.dumps(transcript_to_dict(transcript), indent=2, sort_keys=True, ensure_ascii=False)


def write_transcript(transcript: AgentTranscript, path) -> None:
    atomic_write_text(path, transcript_to_json(transcript) + "\n")
