"""The package's public surface: exported names resolve, the README's
library quick start runs as written and its CLI quick start parses, no
module imports a name it never uses, no function or class goes uncalled,
and no private helper that only returns an expression has a single
caller."""

import ast
import importlib
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import karnet

SRC = Path(karnet.__file__).parent
MODULES = sorted(m.name for m in pkgutil.iter_modules(karnet.__path__))


@pytest.mark.parametrize("module", ["karnet", *(f"karnet.{m}" for m in MODULES)])
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names {missing}, which it does not define"


def test_star_import():
    namespace = {}
    exec("from karnet import *", namespace)
    assert set(karnet.__all__) <= set(namespace)


def test_readme_library_quick_start_runs(capsys):
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Quick start \(library\)\s*```python\n(.*?)```", readme, re.DOTALL)
    assert block, "README has no python block under 'Quick start (library)'"
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_readme_cli_quick_start_lines_parse(tmp_path):
    """Every ``karnet`` and ``python -m karnet`` line of the README's CLI
    quick start, its ``\\`` continuations joined, parses: no command is
    shown a flag it refuses.  The ``python -m karnet`` lines also run."""
    from karnet.cli import make_parser

    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Quick start \(CLI\)\s*```bash\n(.*?)```", readme, re.DOTALL)
    assert block, "README has no bash block under 'Quick start (CLI)'"
    lines = [shlex.split(line, comments=True)
             for line in block.group(1).replace("\\\n", " ").splitlines()]
    commands = [argv[1:] for argv in lines if argv[:1] == ["karnet"]]
    module_runs = [argv[3:] for argv in lines if argv[:3] == ["python", "-m", "karnet"]]
    assert module_runs, "README shows no 'python -m karnet' line"
    assert {argv[0] for argv in commands + module_runs} == {
        "train", "eval", "cv", "xor-demo", "iris-sweep", "gradient-check"}
    for argv in commands + module_runs:
        make_parser().parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    for argv in module_runs:
        proc = subprocess.run([sys.executable, "-m", "karnet", *argv], cwd=tmp_path,
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads; a name listed in its
    ``__all__`` (a re-export) counts as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unused_imports(name):
    assert _unused_imports(SRC / name) == []


def _definitions_and_reads() -> tuple[list, Counter]:
    """Module-level functions and classes of ``src/karnet/`` as (node,
    "file:line: name"), and the number of places code there reads each name
    (a read inside the definition itself, or a listing in an ``__all__``,
    does not count)."""
    defined, reads = [], Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = stmt.name
                defined.append((stmt, f"{path.name}:{stmt.lineno}: {own}"))
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    reads[name] += 1
    return defined, reads


def _uncalled_definitions() -> list[str]:
    """Module-level functions and classes of ``src/karnet/`` that no code
    there reads and that ``karnet.__all__`` does not export."""
    defined, reads = _definitions_and_reads()
    return [where for stmt, where in defined
            if stmt.name not in reads and stmt.name not in karnet.__all__]


def test_no_uncalled_code():
    assert _uncalled_definitions() == []


def _single_use_one_return_helpers() -> list[str]:
    """Private module-level functions of ``src/karnet/`` whose body, a docstring
    aside, is one ``return`` and that code there reads at one place only:
    that place can hold the returned expression itself."""
    defined, reads = _definitions_and_reads()
    found = []
    for stmt, where in defined:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = stmt.body[1:] if ast.get_docstring(stmt) is not None else stmt.body
        if (stmt.name.startswith("_") and reads[stmt.name] == 1
                and len(body) == 1 and isinstance(body[0], ast.Return)):
            found.append(where)
    return found


def test_no_single_use_one_return_helper():
    assert _single_use_one_return_helpers() == []
