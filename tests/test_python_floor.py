"""pyproject.toml allows Python 3.10, so every module of the package must
parse as 3.10 source.

This checks syntax only, and only as far as `ast.parse(feature_version=...)`
checks it: standard-library names, `re` features and other behavior new
after 3.10 are not caught. A run on Python 3.10 is the full check.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bugloc"
MODULES = sorted(PACKAGE.rglob("*.py"))


def test_the_package_has_modules():
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
