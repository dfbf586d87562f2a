"""Every ``repro`` module and definition must be used by something that runs.

The paper's results come out of ``repro.experiments``, reached through
the CLI (``repro.__main__``), the sweep service and the tools, and the
examples and perfbench drive the library from outside. Code that only
its own tests use is code nobody runs; the two gates here name it so it
is deleted rather than left to rot.

The module gate walks the static ``import``/``from`` graph from those
roots and fails on any module that only tests import. Only ``import``
statements count, at any depth (function-level imports included).
Strings, such as the names in ``repro.sim``'s ``_LAZY`` re-export table
or perfbench's span targets, are not uses.

The function-level gate fails on any function, method, class or
module-level constant in ``src/repro`` whose name nothing live uses. A
name is used where it appears as a ``Name``, an ``Attribute``, an
import alias, or a part of a string literal that is not a docstring
and that, stripped, is a whole name or dotted name. Such strings count
so that perfbench's ``"module", "Class.method"`` span targets keep
what they name; other text, such as the route ``"/health"``, keeps
nothing. A re-export is not a use: the strings of an ``__all__``, and
the import aliases and strings of an ``__init__`` module (such as
``repro.sim``'s ``_LAZY`` table), keep nothing, so a name a package
re-exports stays live only if something else uses it. Uses count from
all of ``examples/`` and ``perfbench/`` (its tests included), and from
``src/`` outside the definition's own body and outside definitions that
are themselves unused, iterated to a fixpoint. Tests under ``tests/``
never count. Dunders are exempt. ``ALLOWED_UNUSED`` maps each
definition kept on purpose to its reason. The rule is by name, so a
definition reached only through ``getattr`` on a computed name would
look unused. The one such path, ``repro.sim``'s lazy ``__getattr__``,
serves ``repro.sim.<name>`` attribute reads, which count where they
are written.
"""

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Set

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
ROOT_PACKAGES = ("repro.experiments", "repro.service", "repro.tools")
ROOT_DIRS = ("examples", "perfbench")

# Definitions that only tests use, kept on purpose, keyed
# "<module>:<qualified name>".
ALLOWED_UNUSED = {
    "repro.sim.frontend:run_frontend":
        "unmemoized reference that tests check filtered_frontend against",
    "repro.cache.storage:TagStore.is_dirty":
        "reference that tests check TagStore.evict_slot against",
    "repro.cache.storage:TagStore.invalidate":
        "reference that tests check TagStore.evict_slot against",
    "repro.sim.engines.vector:plan_build_count":
        "process counter that ROADMAP item 10 folds into its registry",
    "repro.sim.engines.multi:fused_pass_count":
        "process counter that ROADMAP item 10 folds into its registry",
    "repro.cache.events:StatsObserver":
        "reference observer that tests check the counters-only path against",
    "repro.core.sws:alternate_way":
        "the paper's alternate-way hash, which tests check skewed_candidates against",
    "repro.sim.trace:trace_from_arrays":
        "builds the hand-written address traces that engine tests drive",
    "repro.verify.breaker:reset":
        "clears the process-wide engine trips between tests",
}


def _module_files(root: Path = SRC) -> Dict[str, Path]:
    modules = {}
    for path in (root / "repro").rglob("*.py"):
        parts = path.relative_to(root).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _with_parents(name: str) -> Iterator[str]:
    parts = name.split(".")
    for end in range(1, len(parts) + 1):
        yield ".".join(parts[:end])


def _imported(path: Path, modules: Dict[str, Path]) -> Set[str]:
    """The ``repro`` modules that ``path``'s import statements load.

    The package uses absolute imports only, so a relative one is
    reported rather than resolved.
    """
    found: Set[str] = set()
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert not node.level, f"relative import in {path}"
            names = [node.module] + [
                f"{node.module}.{alias.name}" for alias in node.names
            ]
        else:
            continue
        for name in names:
            for candidate in _with_parents(name):
                if candidate in modules:
                    found.add(candidate)
    return found


def _reachable(modules: Dict[str, Path]) -> Set[str]:
    roots: Set[str] = {"repro.__main__"}
    roots.update(
        name for name in modules
        if any(name == p or name.startswith(p + ".") for p in ROOT_PACKAGES)
    )
    for directory in ROOT_DIRS:
        for path in (REPO / directory).rglob("*.py"):
            roots.update(_imported(path, modules))
    seen: Set[str] = set()
    pending = [parent for root in roots for parent in _with_parents(root)]
    while pending:
        name = pending.pop()
        if name in seen or name not in modules:
            continue
        seen.add(name)
        pending.extend(_imported(modules[name], modules))
    return seen


DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", re.ASCII)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class _Definition(NamedTuple):
    key: str  # "<module>:<qualified name>"
    name: str
    module: str
    parent: Optional[str]  # the key of the enclosing class, if any
    uses: Set[str]  # the names its own code uses, nested definitions aside


def _parse(path: Path):
    """``path``'s AST and the ids of its docstring nodes."""
    tree = ast.parse(path.read_text(), filename=str(path))
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module,) + _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.add(id(first.value))
    return tree, docstrings


def _names(
    nodes: Iterable[ast.AST], docstrings: Set[int], reexport: bool = False
) -> Set[str]:
    found: Set[str] = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif reexport:
                continue
            elif isinstance(node, ast.alias):
                found.update(node.name.split("."))
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in docstrings
                and DOTTED_NAME.fullmatch(node.value.strip())
            ):
                found.update(node.value.strip().split("."))
    return found


def _assigned(stmt: ast.stmt) -> List[str]:
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [target.id for target in targets if isinstance(target, ast.Name)]


def _definitions(module: str, path: Path, found: List[_Definition]) -> Set[str]:
    """Append ``path``'s definitions to ``found``; return the names its
    module-level code uses.

    Module-level functions, classes and constants are definitions, and
    so are the functions and classes in a class body. Every other
    statement belongs to the module or class that holds it. An
    ``__all__``, and the import aliases and strings of an ``__init__``
    module, are re-exports, which use nothing.
    """
    tree, docstrings = _parse(path)
    reexport = path.name == "__init__.py"

    def names(nodes) -> Set[str]:
        return _names(nodes, docstrings, reexport)

    def split(body, prefix: str, parent: Optional[str]) -> Set[str]:
        own = []
        for stmt in body:
            if isinstance(stmt, _SCOPES):
                defined = [stmt.name]
            else:
                defined = [] if parent else _assigned(stmt)
            if not defined:
                own.append(stmt)
            for name in defined:
                key = prefix + name
                if isinstance(stmt, ast.ClassDef):
                    header = stmt.bases + stmt.keywords + stmt.decorator_list
                    uses = names(header) | split(stmt.body, key + ".", key)
                elif name == "__all__":
                    uses = set()
                else:
                    uses = names([stmt])
                found.append(_Definition(key, name, module, parent, uses))
        return names(own)

    return split(tree.body, f"{module}:", None)


def _unused(
    modules: Dict[str, Path], use_files: Iterable[Path], keep: Iterable[str] = ()
) -> Set[str]:
    """The definitions in ``modules`` whose names nothing live uses.

    Uses count from ``use_files``, from module-level code in
    ``modules`` and from the bodies of used definitions, iterated to a
    fixpoint. Dunders and the keys in ``keep`` count as used. A method
    of an unused class is not reported apart from its class.
    """
    used: Set[str] = set()
    for path in use_files:
        tree, docstrings = _parse(path)
        used |= _names([tree], docstrings)
    definitions: List[_Definition] = []
    for module, path in modules.items():
        used |= _definitions(module, path, definitions)
    keep = set(keep)
    live: Set[str] = set()
    grew = True
    while grew:
        grew = False
        for item in definitions:
            if item.key in live or (item.parent and item.parent not in live):
                continue
            if (
                item.name in used
                or item.key in keep
                or (item.name.startswith("__") and item.name.endswith("__"))
            ):
                live.add(item.key)
                used |= item.uses
                grew = True
    return {
        item.key for item in definitions
        if item.key not in live and (not item.parent or item.parent in live)
    }


def _use_files(root: Path = REPO) -> List[Path]:
    return [path for name in ROOT_DIRS for path in (root / name).rglob("*.py")]


def test_every_module_is_reachable_from_a_runnable_root():
    modules = _module_files()
    unreached = set(modules) - _reachable(modules)
    assert not unreached, (
        "modules that no experiment, command, service path, tool, example "
        f"or perfbench file imports: {sorted(unreached)}"
    )


def test_walk_counts_function_level_imports_not_strings(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "def f():\n"
        "    from repro.sim import runner\n"
        "x = 'repro.sim.multicore'\n"
    )
    found = _imported(source, _module_files())
    assert found == {"repro", "repro.sim", "repro.sim.runner"}


def test_every_definition_is_used_by_something_that_runs():
    unused = _unused(_module_files(), _use_files(), keep=ALLOWED_UNUSED)
    assert not unused, (
        "definitions that only tests use; delete them or give a reason in "
        f"ALLOWED_UNUSED: {sorted(unused)}"
    )


def test_unused_allowlist_names_only_unused_definitions():
    assert set(ALLOWED_UNUSED) <= _unused(_module_files(), _use_files())


def test_definition_gate_on_probe_files(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from repro.probe import reexported, reexported_and_used\n"
        "__all__ = ['reexported', 'reexported_and_used', 'only_in_all']\n"
        "_LAZY = {'only_lazy': ('repro.probe', 'only_lazy')}\n"
        "def __getattr__(name): return _LAZY[name]\n"
    )
    (package / "probe.py").write_text(
        '"""Mentions only_in_docstring."""\n'
        "LIVE_CONSTANT = 1\n"
        "DEAD_CONSTANT = 2\n"
        "def only_in_test(): pass\n"
        "def only_in_docstring(): pass\n"
        "def dead_caller(): return dead_callee()\n"
        "def dead_callee(): pass\n"
        "def recursive(): return recursive()\n"
        "class Probe:\n"
        "    def __repr__(self): return helper()\n"
        "    def span_target(self): pass\n"
        "    def unused_method(self): pass\n"
        "def helper(): return LIVE_CONSTANT\n"
        "class DeadClass:\n"
        "    def method(self): pass\n"
        "def health(): pass\n"
        "def reexported(): pass\n"
        "def reexported_and_used(): pass\n"
        "def only_in_all(): pass\n"
        "def only_lazy(): pass\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_probe.py").write_text(
        "from repro.probe import only_in_test\n"
    )
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "layers.py").write_text(
        "from repro import probe, reexported_and_used\n"
        "TARGETS = [('repro.probe', 'Probe.span_target')]\n"
        "ROUTE = '/health'\n"
    )
    unused = _unused(_module_files(tmp_path / "src"), _use_files(tmp_path))
    assert unused == {
        f"repro.probe:{name}" for name in (
            "DEAD_CONSTANT", "only_in_test", "only_in_docstring",
            "dead_caller", "dead_callee", "recursive",
            "Probe.unused_method", "DeadClass", "health",
            "reexported", "only_in_all", "only_lazy",
        )
    }
