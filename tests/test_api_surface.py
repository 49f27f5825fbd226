"""Every public name of the package is used by the package, the demos or the
benchmark, not only by tests.

A public function, class or constant of a module other than ``oracles``, and
a public method or property of such a class, must be named in code somewhere
outside its own definition: elsewhere in the package, in a demo, or in
``perfbench``.  Only code counts, that is the NAME tokens of ``tokenize``;
a mention in a docstring, a string or a comment does not.  Re-exports in
``__init__`` do not count, nor do tests.  The check reads source text and
imports nothing.
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chebotarev_lab"
EXEMPT_MODULES = {"__init__.py", "oracles.py"}  # only re-exports; references for the tests
EXEMPT_NAMES = {"__version__"}


def _sources() -> list[Path]:
    """The package modules but ``__init__``, the demos, and the benchmark outside its tests."""
    files = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    for folder in ("demos", "perfbench"):
        files.extend(sorted((ROOT / folder).glob("*.py")))
    return files


def _definitions(tree: ast.Module):
    """(name, first line, last line) of each public top-level definition, and
    (class.name, first line, last line) of each public method of a public class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member.lineno, member.end_lineno
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_") and name not in EXEMPT_NAMES:
                yield name, node.lineno, node.end_lineno


def _names(text: str) -> list[tuple[str, int]]:
    """(identifier, line) of each NAME token of a source text."""
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    return [(tok.string, tok.start[0]) for tok in tokens if tok.type == tokenize.NAME]


def test_every_public_name_has_a_non_test_reference():
    texts = {path: path.read_text(encoding="utf-8") for path in _sources()}
    names = {path: _names(text) for path, text in texts.items()}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in EXEMPT_MODULES:
            continue
        for name, first, last in _definitions(ast.parse(texts[path])):
            word = name.rsplit(".", 1)[-1]
            if not any(
                token == word
                for other, tokens in names.items()
                for token, number in tokens
                if other != path or not first <= number <= last
            ):
                unused.append(f"{path.stem}.{name}")
    assert not unused, f"public names used only by tests or not at all: {unused}"
