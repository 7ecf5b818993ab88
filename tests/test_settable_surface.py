"""Pins every value a caller can set: config fields, localizer parameters,
the parameters of the library entry points that take settings, and the
command line's options. A change that adds or removes a knob edits the list
here, in plain view."""

import argparse
import dataclasses
import inspect

import pytest

from bugloc import cli
from bugloc.agent import AgentConfig, build_prompt
from bugloc.config import ChatSettings, EmbeddingSettings, RunConfig
from bugloc.embedding import shortlist_files, update_embeddings
from bugloc.harness import VersionStore
from bugloc.localizers import AgentLocalizer, EmbeddingLocalizer, VsmLocalizer
from bugloc.tools import make_tool_registry

CONFIG_FIELDS = {
    RunConfig: [
        "mode", "grammar", "chunk_limit", "shortlist_k", "max_iterations", "final_list_size",
        "temperature", "runs", "workers", "tool_result_char_cap", "repo", "dataset",
        "index_cache", "out_dir", "chat", "embedding",
    ],
    ChatSettings: ["kind", "model", "base_url", "api_key_env", "replay_path", "max_attempts"],
    EmbeddingSettings: [
        "kind", "dimension", "model", "base_url", "api_key_env", "max_batch_size",
        "max_attempts", "cache_path",
    ],
    AgentConfig: [
        "max_iterations", "final_list_size", "temperature", "run_seed", "tool_result_char_cap",
    ],
}

LOCALIZER_PARAMS = {
    VsmLocalizer: ["top_n"],
    EmbeddingLocalizer: ["provider", "shortlist_k", "top_n"],
    AgentLocalizer: ["chat_provider", "embedding_provider", "shortlist_k", "config"],
}

FUNCTION_PARAMS = {
    shortlist_files: ["bug", "eindex", "provider", "k"],
    update_embeddings: ["eindex", "changeset", "index", "provider"],
    make_tool_registry: ["index", "shortlist"],
    build_prompt: ["bug", "config", "tool_names"],
    VersionStore.__init__: [
        "self", "repo_root", "grammar", "embedding_provider", "cache_dir", "chunk_limit",
    ],
}

COMMON_OPTIONS = [
    "-h", "--help", "--config", "--mode", "--runs", "--shortlist-k", "--chunk-limit",
    "--max-iterations", "--provider", "--replay", "--out", "--repo", "--index-cache", "-v",
    "--verbose",
]

CLI_OPTIONS = {  # positional arguments by their name
    "index": COMMON_OPTIONS + ["--version", "--prev-version", "--changeset"],
    "localize": COMMON_OPTIONS + ["--bug"],
    "evaluate": COMMON_OPTIONS + ["--dataset", "--train-fraction"],
    "compare": ["-h", "--help", "results", "--dataset", "--k", "--out", "-v", "--verbose"],
}


@pytest.mark.parametrize("cls", list(CONFIG_FIELDS), ids=lambda c: c.__name__)
def test_config_fields_are_pinned(cls):
    assert [f.name for f in dataclasses.fields(cls)] == CONFIG_FIELDS[cls]


@pytest.mark.parametrize("cls", list(LOCALIZER_PARAMS), ids=lambda c: c.__name__)
def test_localizer_params_are_pinned(cls):
    assert list(inspect.signature(cls).parameters) == LOCALIZER_PARAMS[cls]


@pytest.mark.parametrize("fn", list(FUNCTION_PARAMS), ids=lambda f: f.__qualname__)
def test_function_params_are_pinned(fn):
    assert list(inspect.signature(fn).parameters) == FUNCTION_PARAMS[fn]


def test_cli_options_are_pinned():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert {
        name: [option for action in sub._actions for option in action.option_strings or [action.dest]]
        for name, sub in commands.items()
    } == CLI_OPTIONS
