import ast
from collections import Counter
from pathlib import Path

import gtlc

TESTS = Path(__file__).resolve().parent


def redefined(path: Path) -> list[str]:
    """The module-level function and class names that `path` defines more
    than once: every definition but the last is dead code."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = Counter(node.name for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                         ast.ClassDef)))
    return sorted(name for name, n in names.items() if n > 1)


def test_no_module_level_name_is_defined_twice():
    # A second `def` of a name silently shadows the first, which then runs
    # nowhere; no linter that would catch this is a dependency.
    sources = sorted(Path(gtlc.__file__).parent.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert len(sources) > 2
    found = {path.name: names for path in sources if (names := redefined(path))}
    assert not found, found
