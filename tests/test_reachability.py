"""Every ``repro`` module must be reachable from something that runs.

The paper's results come out of ``repro.experiments``, reached through
the CLI (``repro.__main__``), the sweep service and the tools, and the
examples, benchmarks and perfbench drive the library from outside. A
module that only its own tests import is code nobody runs; this test
walks the static ``import``/``from`` graph from those roots and names
any such module so it is deleted rather than left to rot.

Only ``import`` statements count, at any depth (function-level imports
included). Strings, such as the names in ``repro.sim``'s ``_LAZY``
re-export table or perfbench's span targets, are not uses.
"""

import ast
from pathlib import Path
from typing import Dict, Iterator, Set

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
ROOT_PACKAGES = ("repro.experiments", "repro.service", "repro.tools")
ROOT_DIRS = ("examples", "benchmarks", "perfbench")

# The cycle-level timing stack: kept until ROADMAP item 6 either makes
# it an oracle for the interval model or deletes it.
ALLOWED_UNREACHED = {"repro.analysis.validation", "repro.sim.detailed"}


def _module_files() -> Dict[str, Path]:
    modules = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
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


def test_every_module_is_reachable_from_a_runnable_root():
    modules = _module_files()
    unreached = set(modules) - _reachable(modules) - ALLOWED_UNREACHED
    assert not unreached, (
        "modules that no experiment, command, service path, tool, example, "
        f"benchmark or perfbench file imports: {sorted(unreached)}"
    )


def test_allowlist_names_only_unreached_modules():
    modules = _module_files()
    assert ALLOWED_UNREACHED <= set(modules)
    assert not ALLOWED_UNREACHED & _reachable(modules)


def test_walk_counts_function_level_imports_not_strings(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "def f():\n"
        "    from repro.sim import runner\n"
        "x = 'repro.sim.detailed'\n"
    )
    found = _imported(source, _module_files())
    assert found == {"repro", "repro.sim", "repro.sim.runner"}
