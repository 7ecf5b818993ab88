"""The five code-exploration functions the agent may invoke.

Tools are pure reads over an immutable (CodeIndex, Shortlist) pair. Every
call returns a ToolResult; nothing raises past the dispatcher, and whenever a
payload was produced through a fallback (case-insensitive match, substring
match, fuzzy recovery) the result's note says so.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

from .code_index import CodeIndex, SourceFileRecord
from .embedding import Shortlist
from .fuzzy import damerau_levenshtein, default_distance_cap, fuzzy_method_candidates

logger = logging.getLogger(__name__)

SEARCH_FILE = "search_file"
SEARCH_METHOD = "search_method"
GET_CANDIDATE_FILENAMES = "get_candidate_filenames"
GET_METHOD_SIGNATURES = "get_method_signatures_of_a_file"
GET_METHOD_BODY = "get_method_body"

# The function schema of each tool, in the form the model receives it.
TOOL_SCHEMAS: dict[str, dict] = {
    SEARCH_FILE: {
        "name": SEARCH_FILE,
        "description": "Check whether a file exists in the code base and list the fully "
        "qualified paths of matches.",
        "parameters": {
            "type": "object",
            "properties": {"name": {"type": "string", "description": "File name to look up."}},
            "required": ["name"],
        },
    },
    SEARCH_METHOD: {
        "name": SEARCH_METHOD,
        "description": "Find which files define a method with the given name.",
        "parameters": {
            "type": "object",
            "properties": {"name": {"type": "string", "description": "Method name to look up."}},
            "required": ["name"],
        },
    },
    GET_CANDIDATE_FILENAMES: {
        "name": GET_CANDIDATE_FILENAMES,
        "description": "Retrieve the filenames most semantically similar to the bug "
        "report, as an initial candidate pool.",
        "parameters": {"type": "object", "properties": {}, "required": []},
    },
    GET_METHOD_SIGNATURES: {
        "name": GET_METHOD_SIGNATURES,
        "description": "List all method signatures defined in a file, in source order.",
        "parameters": {
            "type": "object",
            "properties": {"fq_path": {"type": "string", "description": "Fully qualified file path."}},
            "required": ["fq_path"],
        },
    },
    GET_METHOD_BODY: {
        "name": GET_METHOD_BODY,
        "description": "Retrieve the body of a method, optionally scoped to one file.",
        "parameters": {
            "type": "object",
            "properties": {
                "method": {"type": "string", "description": "Method name."},
                "fq_path": {
                    "type": "string",
                    "description": "Optional fully qualified file path to search in.",
                },
            },
            "required": ["method"],
        },
    },
}

TOOL_NAMES = frozenset(TOOL_SCHEMAS)


@dataclass(frozen=True)
class ToolResult:
    payload: str
    note: str | None = None

    def render(self) -> str:
        if self.note:
            return f"{self.payload}\n(note: {self.note})"
        return self.payload


class ToolRegistry:
    """Name -> callable bindings, whose argument schemas are those of
    TOOL_SCHEMAS: the one record of which tools a run offers.

    Only the five exploration tools can be bound; the candidate-filenames
    tool is bound exactly when a run has a shortlist.
    """

    def __init__(self, bindings: dict[str, Callable[..., ToolResult]]):
        unknown = bindings.keys() - TOOL_NAMES
        if unknown:
            raise ValueError(f"unknown tool name {min(unknown)!r}")
        self._bindings = dict(bindings)

    def names(self) -> list[str]:
        return sorted(self._bindings)

    def __contains__(self, name: str) -> bool:
        return name in self._bindings

    def schemas(self) -> list[dict]:
        return [TOOL_SCHEMAS[name] for name in self.names()]

    def dispatch(self, name: str, arguments: dict) -> ToolResult:
        fn = self._bindings.get(name)
        if fn is None:
            return ToolResult(f"Tool '{name}' is not available in this run.")
        problem = self._mistyped(name, arguments)
        if problem:
            return ToolResult(f"Invalid arguments for '{name}': {problem}")
        try:
            return fn(**arguments)
        except TypeError as exc:
            return ToolResult(f"Invalid arguments for '{name}': {exc}")
        except Exception as exc:  # tools must never raise past the dispatcher
            logger.exception("tool %s failed", name)
            return ToolResult(f"Tool '{name}' failed: {exc}")

    def _mistyped(self, name: str, arguments: dict) -> str | None:
        """Why `arguments` is not an object, or a value given for a string
        parameter of the schema is not a string; an optional parameter given
        as null counts as absent."""
        if not isinstance(arguments, dict):
            return f"expected an object, not {type(arguments).__name__}"
        parameters = TOOL_SCHEMAS[name]["parameters"]
        for key, value in arguments.items():
            spec = parameters["properties"].get(key)
            if spec is None or spec["type"] != "string" or isinstance(value, str):
                continue
            if value is None and key not in parameters["required"]:
                continue
            return f"'{key}' must be a string, not {type(value).__name__}"
        return None


def _match_files(index: CodeIndex, name: str) -> tuple[list[str], str | None]:
    """search_file cascade: exact basename, then case-insensitive basename,
    then substring of the full path. Returns (paths, fallback note); an empty
    name matches nothing."""
    if not name:
        return [], None
    exact = index.paths_named(name)
    if exact:
        return exact, None
    lowered = name.lower()
    ci = list(index.paths_by_lower_basename.get(lowered, ()))
    if ci:
        return ci, f"matched basename case-insensitively for '{name}'"
    sub = sorted(p for p in index.files if lowered in p.lower())
    if sub:
        return sub, f"matched '{name}' as a path substring"
    return [], None


def _overload_blocks(record: SourceFileRecord, method_name: str) -> list[str]:
    return [
        f"{m.signature} in {record.fq_path}:\n{m.body or '<abstract method: no body>'}"
        for m in record.methods
        if m.name == method_name
    ]


def make_tool_registry(index: CodeIndex, shortlist: Shortlist | None = None) -> ToolRegistry:
    """The tools over `index`; get_candidate_filenames is among them exactly
    when a shortlist is given."""

    def resolve_file(fq_path: str) -> tuple[SourceFileRecord, str | None] | ToolResult:
        """The record at fq_path, else the one file its basename matches, with
        a note; when none or several match, the finished result instead."""
        record = index.files.get(fq_path)
        if record is not None:
            return record, None
        paths, _ = _match_files(index, fq_path.rsplit("/", 1)[-1])
        if len(paths) == 1:
            return index.files[paths[0]], f"'{fq_path}' not found; using basename match {paths[0]}"
        if paths:
            return ToolResult(
                payload="Multiple files match that name:\n" + "\n".join(paths),
                note=f"'{fq_path}' not found; listing basename matches",
            )
        return ToolResult(f"No file matching '{fq_path}' was found.")

    def locate_method(name: str) -> tuple[list[tuple[str, str]], bool] | ToolResult:
        """(method name, path) pairs defining `name`, else its fuzzy candidates,
        and whether they are fuzzy; when neither exists, the finished result."""
        paths = index.method_locator.get(name)
        if paths:
            return [(name, path) for path in paths], False
        candidates = fuzzy_method_candidates(name, index)
        if candidates:
            return candidates, True
        return ToolResult(f"No method named '{name}' was found in the code base.")

    def search_file(name: str) -> ToolResult:
        paths, note = _match_files(index, name)
        if not paths:
            return ToolResult(f"No file matching '{name}' was found.")
        return ToolResult("\n".join(paths), note=note)

    def search_method(name: str) -> ToolResult:
        found = locate_method(name)
        if isinstance(found, ToolResult):
            return found
        matches, fuzzy = found
        if not fuzzy:
            return ToolResult("\n".join(path for _, path in matches))
        lines = [f"No exact definition of '{name}'. Closest method names:"]
        lines += [f"{cand} - {path}" for cand, path in matches]
        return ToolResult("\n".join(lines), note=f"fuzzy-matched from '{name}'")

    def get_candidate_filenames() -> ToolResult:
        paths = shortlist.paths()
        if not paths:
            return ToolResult("The candidate shortlist is empty.")
        return ToolResult("\n".join(paths))

    def get_method_signatures_of_a_file(fq_path: str) -> ToolResult:
        found = resolve_file(fq_path)
        if isinstance(found, ToolResult):
            return found
        record, note = found
        if not record.parse_ok:
            payload = f"{record.fq_path} could not be parsed; no signatures available."
        elif not record.methods:
            payload = f"{record.fq_path} defines no methods."
        else:
            payload = "\n".join(m.signature for m in record.methods)
        return ToolResult(payload, note=note)

    def get_method_body(method: str, fq_path: str | None = None) -> ToolResult:
        found = resolve_file(fq_path) if fq_path else locate_method(method)
        if isinstance(found, ToolResult):
            return found
        if not fq_path:
            matches, fuzzy = found
            best = matches[0][0]
            blocks = []
            for name, path in matches:
                if name == best:
                    blocks.extend(_overload_blocks(index.files[path], best))
            note = f"fuzzy-matched '{method}' to '{best}'" if fuzzy else None
            return ToolResult("\n\n".join(blocks), note=note)
        record, note = found
        blocks = _overload_blocks(record, method)
        if blocks:
            return ToolResult("\n\n".join(blocks), note=note)
        names = {m.name for m in record.methods}
        if names:
            distance, best = min((damerau_levenshtein(method, name), name) for name in names)
            if distance <= default_distance_cap(method):
                fuzzy_note = f"fuzzy-matched '{method}' to '{best}'"
                return ToolResult(
                    payload="\n\n".join(_overload_blocks(record, best)),
                    note=f"{note}; {fuzzy_note}" if note else fuzzy_note,
                )
        available = "\n".join(m.signature for m in record.methods) or "<none>"
        return ToolResult(
            payload=(
                f"No method close to '{method}' in {record.fq_path}. "
                f"Available signatures:\n{available}"
            ),
            note=note,
        )

    bindings = {
        SEARCH_FILE: search_file,
        SEARCH_METHOD: search_method,
        GET_METHOD_SIGNATURES: get_method_signatures_of_a_file,
        GET_METHOD_BODY: get_method_body,
    }
    if shortlist is not None:
        bindings[GET_CANDIDATE_FILENAMES] = get_candidate_filenames
    return ToolRegistry(bindings)
