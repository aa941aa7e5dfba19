"""Every name ``src/repro`` imports is read in the module that imports it.

An import nothing reads is dead code: it costs load time and tells a
reader the module depends on something it does not.  The scan is
syntactic (:mod:`ast`); a name counts as read when the module loads it
anywhere, annotations included, quoted ones (``Optional["Kernel"]``,
the use of a ``TYPE_CHECKING`` import) too.  Exempt: ``from
__future__`` imports, and a package ``__init__``'s re-exports listed
in its ``__all__``.
"""

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"


def _imported(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """``(bound name, line)`` for every import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _annotations(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _loaded(tree: ast.AST) -> Set[str]:
    names = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _loaded(ast.parse(node.value, mode="eval"))
    return names


def _dunder_all(tree: ast.Module) -> Set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path: Path) -> List[str]:
    """``name (line N)`` for each name ``path`` imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _loaded(tree)
    if path.name == "__init__.py":
        used |= _dunder_all(tree)
    return [
        f"{name} (line {line})"
        for name, line in _imported(tree)
        if name not in used
    ]


def test_scan_finds_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import TYPE_CHECKING, Dict, Mapping\n"
        "if TYPE_CHECKING:\n"
        "    from kernel import Kernel\n"
        "def f(x: Dict, k: \"Kernel\") -> None:\n"
        "    return None\n"
    )
    assert unused_imports(module) == ["os (line 2)", "Mapping (line 3)"]


def test_no_unused_imports_in_src():
    found = {
        str(path.relative_to(PACKAGE)): names
        for path in sorted(PACKAGE.rglob("*.py"))
        if (names := unused_imports(path))
    }
    assert found == {}, f"imported but never read: {found}"
