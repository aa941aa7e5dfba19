"""The public surface is what other modules read, so dead surface cannot grow back.

Two checks, both over program code: ``src/``, ``benchmarks/``,
``examples/`` and ``perfbench/``.  Tests do not count; a name only
tests read is surface nobody runs.

- **Package names.**  A name listed in a ``repro.*`` package
  ``__all__`` stays public only if a module other than the one that
  defines it reads it: a read of the name imported from a ``repro``
  module, or an attribute read (``stats.mean``).  A read in the
  defining module is no use, since a name only its own module reads
  is private to that module.  Importing a name without reading it, as
  a package ``__init__`` does to re-export it, is no use either; nor is
  a read inside the body of another public name that is itself dead,
  so a dead function does not keep the dead class it returns alive.
- **Methods.**  A public method or property (a function without a
  leading underscore in the body of a top-level class without one, in
  ``src/repro``) stays only if program code reads it as an attribute
  (``x.name``) somewhere, its own module included.

Both scans are syntactic (:mod:`ast`): comments, docstrings and
strings never count.  A name or method (``Class.method``) kept for
another reason goes in :data:`ALLOWLIST` with a one-line reason.
"""

import ast
import functools
import textwrap
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
PROGRAM_DIRS = ("src", "benchmarks", "examples", "perfbench")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)

#: Public names and methods no program path reads, each with the reason
#: it stays.
ALLOWLIST = {
    # Package names
    "bootstrap_ci": "seeded bootstrap CI for the planned claim panels",
    "write_swf": "writes the SWF inputs of the trace round-trip tests",
    "register_scenario": "docs/scenarios.md teaches registering a preset",
    "TraceJobSpec": "docs/scenarios.md teaches an inline trace job",
    "background_trace": "docs/scenarios.md teaches the background trace",
    # Methods tests use as an oracle for program code
    "ResultStore.load_point": (
        "per-point reference for the batched lookup "
        "(tests/store/test_batched_lookup.py); perfbench wraps it by name"
    ),
    "Cluster.can_allocate": (
        "reference feasibility test in "
        "tests/scheduler/test_timeline_equivalence.py"
    ),
    "StoreDB.holds_writer_lock": "the writer-lock probe of the store tests",
    "VirtualQPUPool.delay_bound": (
        "the paper's (k-1)*t bound tests/strategies/test_vqpu_pool.py "
        "checks observed delays against"
    ),
    # Methods called by a name built at run time
    "ServiceHandler.do_GET": 'http.server calls "do_" + command',
    "ServiceHandler.do_POST": 'http.server calls "do_" + command',
    "ServiceHandler.do_PUT": 'http.server calls "do_" + command',
}


@functools.lru_cache(maxsize=None)
def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _package(root: Path) -> Path:
    return root / "src" / "repro"


def _program_files(root: Path) -> Iterator[Path]:
    for directory in PROGRAM_DIRS:
        yield from sorted((root / directory).rglob("*.py"))


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


def _public_names(root: Path) -> Dict[str, Set[Path]]:
    """Each package ``__all__`` name -> the files that define it."""
    package = _package(root)
    modules = {path: _parse(path) for path in sorted(package.rglob("*.py"))}
    public: Dict[str, Set[Path]] = {}
    for init in sorted(package.rglob("__init__.py")):
        for name in _all_names(modules[init]):
            public.setdefault(name, set()).update(
                path
                for path, tree in modules.items()
                if name in _top_level_definitions(tree)
            )
    return public


def _public_methods(root: Path) -> Iterator[Tuple[str, str]]:
    """``(class, method)`` for each public method of a public class."""
    for path in sorted(_package(root).rglob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, FUNCTIONS) and not item.name.startswith(
                        "_"
                    ):
                        yield node.name, item.name


def _references(tree: ast.Module) -> Dict[Optional[str], Set[str]]:
    """Names each top-level definition reads (``None``: module level)."""
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
            elif (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in imported
            ):
                found.add(imported[node.id])
    return by_owner


def _dead_names(
    root: Path = REPO_ROOT, allowlist: Mapping[str, str] = ALLOWLIST
) -> List[str]:
    """``__all__`` names no other program module reads."""
    public = _public_names(root)
    references: List[Tuple[Path, Optional[str], Set[str]]] = []
    for path in _program_files(root):
        for owner, names in _references(_parse(path)).items():
            references.append(
                (
                    path,
                    owner,
                    {n for n in names & public.keys() if path not in public[n]},
                )
            )
    dead: Set[str] = set()
    while True:
        live = set(allowlist).union(
            *(
                names
                for path, owner, names in references
                if not (owner in dead and path in public[owner])
            )
        )
        if public.keys() - live == dead:
            return sorted(dead)
        dead = set(public.keys() - live)


def _unread_methods(
    root: Path = REPO_ROOT, allowlist: Mapping[str, str] = ALLOWLIST
) -> List[str]:
    """Public methods no program code reads as an attribute."""
    read = {
        node.attr
        for path in _program_files(root)
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        {
            f"{cls}.{method}"
            for cls, method in _public_methods(root)
            if method not in read and f"{cls}.{method}" not in allowlist
        }
    )


def test_every_public_name_has_a_reader_in_another_module():
    dead = _dead_names()
    assert not dead, (
        "public names no other program module reads (take them out of "
        "__all__, delete them, or allowlist them with a reason): "
        + ", ".join(dead)
    )


def test_every_public_method_has_a_program_reader():
    unread = _unread_methods()
    assert not unread, (
        "public methods no program code reads (delete them, or "
        "allowlist them with a reason): " + ", ".join(unread)
    )


def test_allowlist_names_current_surface_with_a_reason():
    current = set(_public_names(REPO_ROOT)) | {
        f"{cls}.{method}" for cls, method in _public_methods(REPO_ROOT)
    }
    assert set(ALLOWLIST) <= current, sorted(set(ALLOWLIST) - current)
    assert all(reason.strip() for reason in ALLOWLIST.values())


# The guard itself, over a synthetic package.


def _write(root: Path, relative: str, source: str) -> None:
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")


def _synthetic_repo(root: Path) -> Path:
    _write(
        root,
        "src/repro/pkg/__init__.py",
        """
        from repro.pkg.core import Engine, helper, lonely, orphan

        __all__ = ["Engine", "helper", "lonely", "orphan"]
        """,
    )
    _write(
        root,
        "src/repro/pkg/core.py",
        """
        class Engine:
            def run(self):
                return lonely()

            def spare(self):
                return 0

            def _hidden(self):
                return 1


        def helper():
            return Engine().run()


        def lonely():
            return 2


        def orphan():
            return helper()
        """,
    )
    _write(
        root,
        "examples/demo.py",
        """
        from repro.pkg import Engine, helper

        helper()
        Engine()
        """,
    )
    return root


def test_guard_flags_a_name_read_only_in_its_own_module(tmp_path):
    assert _dead_names(_synthetic_repo(tmp_path), {}) == ["lonely", "orphan"]


def test_guard_keeps_a_name_read_from_another_module(tmp_path):
    dead = _dead_names(_synthetic_repo(tmp_path), {})
    assert "Engine" not in dead and "helper" not in dead


def test_guard_honours_the_allowlist(tmp_path):
    root = _synthetic_repo(tmp_path)
    assert _dead_names(root, {"lonely": "kept"}) == ["orphan"]
    assert _unread_methods(root, {"Engine.spare": "kept"}) == []


def test_guard_flags_a_method_no_program_reads(tmp_path):
    assert _unread_methods(_synthetic_repo(tmp_path), {}) == ["Engine.spare"]


def test_guard_ignores_test_reads(tmp_path):
    root = _synthetic_repo(tmp_path)
    _write(
        root,
        "tests/test_core.py",
        """
        from repro.pkg.core import Engine, lonely

        lonely()
        Engine().spare()
        """,
    )
    assert _dead_names(root, {}) == ["lonely", "orphan"]
    assert _unread_methods(root, {}) == ["Engine.spare"]
