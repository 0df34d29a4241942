import ast
import re
from pathlib import Path

import gtlc

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def oldest_supported() -> tuple[int, int]:
    """The lower bound of pyproject.toml's `requires-python`."""
    text = PYPROJECT.read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_sources_parse_under_the_oldest_supported_grammar():
    # Syntax newer than the oldest supported Python (say, 3.11's `except*`)
    # would break an install that the package metadata allows.
    version = oldest_supported()
    sources = sorted(Path(gtlc.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=version)
