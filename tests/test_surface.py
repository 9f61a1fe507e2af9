"""Every module-level function and class of the package has a user.

A name defined in src/purefields and named nowhere else (not in the
package, the README, the benchmark or the console-script entry point) is
either dead or kept only for tests; either way it should go.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "purefields"


def _definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                start = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield path, node.name, start, node.end_lineno


def _outside_texts(path, start, end):
    """Every text a name may be used in, the definition's own lines cut out."""
    for source in sorted(PACKAGE.glob("*.py")):
        lines = source.read_text(encoding="utf-8").splitlines()
        if source == path:
            lines = lines[:start - 1] + lines[end:]
        yield "\n".join(lines)
    yield (ROOT / "README.md").read_text(encoding="utf-8")
    for source in sorted((ROOT / "perfbench").glob("*.py")):
        yield source.read_text(encoding="utf-8")
    # the [project.scripts] table, up to the next table header
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    yield pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]


def test_every_definition_is_named_outside_itself():
    unused = []
    for path, name, start, end in _definitions():
        word = re.compile(rf"(?<![\w]){re.escape(name)}(?![\w])")
        if not any(word.search(text) for text in _outside_texts(path, start, end)):
            unused.append(f"{path.name}:{start} {name}")
    assert unused == []
