"""The command line needs numpy and the standard library, nothing more,
and the package carries no unused imports or private names."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import dcqd

# the baseline is taken in the child, after start-up: ``site`` may already
# have loaded third-party modules of its own by then
CHILD = """
import sys
before = set(sys.modules)
import dcqd.cli
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(added - set(sys.stdlib_module_names))))
"""


def test_cli_imports_no_third_party_module_but_numpy():
    # the child imports the same package the tests import
    src = str(Path(dcqd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], capture_output=True, text=True, timeout=120, env=env, check=True
    )
    assert proc.stdout.split() == ["dcqd", "numpy"]


ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dcqd"


def _modules():
    modules = {
        path.relative_to(ROOT).as_posix(): ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
    }
    assert "src/dcqd/pauli.py" in modules
    return modules


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _loaded_names(tree) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def test_package_modules_use_every_name_they_import():
    unused = []
    for path, tree in _modules().items():
        used = _loaded_names(tree) | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in used:
                        unused.append(f"{path}: {name}")
    assert unused == []


def test_every_private_module_name_has_a_reader():
    # a reader loads the name, reads it as an attribute, or spells it in
    # a string (perfbench patches functions by attribute name)
    readers = set()
    for folder in ("src", "tests", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    readers.add(node.id)
                elif isinstance(node, ast.Attribute):
                    readers.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    readers.update(re.findall(r"\w+", node.value))
    unread = []
    for path, tree in _modules().items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            private = [name for name in names if name.startswith("_") and not name.startswith("__")]
            unread += [f"{path}: {name}" for name in private if name not in readers]
    assert unread == []
