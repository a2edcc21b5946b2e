"""The package source parses as Python 3.10, the oldest version that
``pyproject.toml`` allows, whichever interpreter runs the suite."""

import ast
import pathlib

import pytest

import barbilliard

MODULES = sorted(pathlib.Path(barbilliard.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_newer_syntax_is_rejected():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
