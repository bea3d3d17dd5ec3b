"""The names the package exports and the benchmark traces must exist.

``perfbench/run.py`` patches public dcqd functions by name during a
traced pass; a deleted or renamed target would only fail there, so its
target list is built here too.
"""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import dcqd

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_by_path(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# dcqd.__main__ runs the command line when imported
MODULES = ["dcqd"] + [
    f"dcqd.{m.name}" for m in pkgutil.iter_modules(dcqd.__path__) if m.name != "__main__"
]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_benchmark_trace_targets_resolve(monkeypatch):
    # read the benchmark's files without leaving bytecode next to them
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for name in ("analysis", "channels", "cli", "codes", "protocol"):
        importlib.import_module(f"dcqd.{name}")
    spans = load_by_path("spans", PERFBENCH / "spans.py")
    # run.py imports its sibling as a top-level module
    monkeypatch.setitem(sys.modules, "spans", spans)
    bench = load_by_path("perfbench_run", PERFBENCH / "run.py")
    targets = bench.trace_targets(dcqd, spans.Tracer())
    assert targets
    for namespace, attr, wrapper in targets:
        assert callable(getattr(namespace, attr)) and callable(wrapper)
