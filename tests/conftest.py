"""Shared fixtures: tiny Java repositories, bug reports, and replay scripts."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
import requests

from bugloc.code_index import build_index
from bugloc.dataset import BugReport


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


def java_class(class_name: str, methods: dict[str, str]) -> str:
    """A small class whose method bodies are the given statement strings."""
    body = "\n".join(
        f"    void {name}() {{ {stmt} }}" for name, stmt in methods.items()
    )
    return f"public class {class_name} {{\n{body}\n}}\n"


@pytest.fixture
def two_file_repo(tmp_path):
    files = {
        "org/eclipse/ui/JavaElementLabels.java": java_class(
            "JavaElementLabels", {"updateLabel": "label = compute();", "getLabel": "return label;"}
        ),
        "org/apache/Catalina.java": java_class(
            "Catalina", {"start": "server.begin();", "stop": "server.halt();"}
        ),
    }
    root = write_tree(tmp_path / "repo", files)
    return build_index(root, "java", "v1"), root


def html_response() -> requests.Response:
    """An HTTP 200 whose body is not JSON, as a misrouted proxy sends it."""
    response = requests.Response()
    response.status_code = 200
    response._content = b"<html><body>502 Bad Gateway</body></html>"
    return response


def make_bug(bug_id="bug-1", summary="a bug", description="it breaks", version="v1", truth=()):
    return BugReport(
        bug_id=bug_id,
        summary=summary,
        description=description,
        version_id=version,
        ground_truth=tuple(truth),
        report_time=0.0,
    )


def write_replay(path: Path, responses: list[dict], repeat_last: bool = False) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"schema_version": 1, "repeat_last": repeat_last, "responses": responses}),
        encoding="utf-8",
    )
    return path


def final_answer(paths: list[str]) -> str:
    lines = "\n".join(f"{i}. {p} - suspicious" for i, p in enumerate(paths, start=1))
    return f"Here is my ranking:\n```\n{lines}\n```"
