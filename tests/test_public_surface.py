"""Every public name is used by program code, so dead surface cannot grow back.

A name listed in a ``repro.*`` package ``__all__`` stays public only if
program code uses it: ``src/``, ``benchmarks/``, ``examples/`` or
``perfbench/``.  Tests do not count; a name only tests use is surface
nobody runs.  A use is a read of the name imported from a ``repro``
module (or defined in the same file), or an attribute read
(``stats.mean``).  Importing a name without reading it, as a package
``__init__`` does to re-export it, is no use; nor is a read inside the
body of another public name that is itself dead, so a dead function
does not keep the dead class it returns alive.  The scan is syntactic
(:mod:`ast`): comments, docstrings and strings never count.  A name
kept for another reason goes in :data:`ALLOWLIST` with a one-line
reason.
"""

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"
PROGRAM_DIRS = ("src", "benchmarks", "examples", "perfbench")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: Public names no program path uses yet, each with the reason it stays.
ALLOWLIST = {
    "bootstrap_ci": "seeded bootstrap CI for the planned claim panels",
    "write_swf": "writes the SWF inputs of the trace round-trip tests",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _program_files() -> Iterator[Path]:
    for directory in PROGRAM_DIRS:
        yield from sorted((REPO_ROOT / directory).rglob("*.py"))


def _all_names(tree: ast.Module) -> Set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return {element.value for element in node.value.elts}
    return set()


def _top_level_definitions(tree: ast.Module) -> Set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _public_names() -> Dict[str, Set[Path]]:
    """Each package ``__all__`` name -> the files that define it."""
    modules = {path: _parse(path) for path in sorted(PACKAGE.rglob("*.py"))}
    public: Dict[str, Set[Path]] = {}
    for init in sorted(PACKAGE.rglob("__init__.py")):
        for name in _all_names(modules[init]):
            public.setdefault(name, set()).update(
                path
                for path, tree in modules.items()
                if name in _top_level_definitions(tree)
            )
    return public


def _references(
    tree: ast.Module, local: Set[str]
) -> Dict[Optional[str], Set[str]]:
    """Names each top-level definition refers to (``None``: module level)."""
    imported = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("repro"))
        for alias in node.names
    }
    by_owner: Dict[Optional[str], Set[str]] = {}
    for statement in tree.body:
        owner = statement.name if isinstance(statement, DEFINITIONS) else None
        found = by_owner.setdefault(owner, set())
        for node in ast.walk(statement):
            if isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in imported:
                    found.add(imported[node.id])
                elif node.id in local:
                    found.add(node.id)
        found.discard(owner)
    return by_owner


def _dead_names() -> List[str]:
    public = _public_names()
    references: List[Tuple[Path, Optional[str], Set[str]]] = []
    for path in _program_files():
        local = {name for name, files in public.items() if path in files}
        for owner, names in _references(_parse(path), local).items():
            references.append((path, owner, names & public.keys()))
    dead: Set[str] = set()
    while True:
        live = set(ALLOWLIST).union(
            *(
                names
                for path, owner, names in references
                if not (owner in dead and path in public[owner])
            )
        )
        if public.keys() - live == dead:
            return sorted(dead)
        dead = set(public.keys() - live)


def test_every_public_name_has_a_program_caller():
    dead = _dead_names()
    assert not dead, (
        "public names no program path uses (delete them, or allowlist "
        "them with a reason): " + ", ".join(dead)
    )


def test_allowlist_names_only_public_names():
    assert set(ALLOWLIST) <= _public_names().keys()
