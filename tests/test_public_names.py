"""The names the package exports and the benchmark traces must exist.

``perfbench/run.py`` patches public dcqd functions by name during a
traced pass; a deleted or renamed target would only fail there, so its
target list is built here too, and small passes of both benchmarked
workloads must reach every span a pass needs.  A call that bypassed a
traced name would otherwise read as a zero per-layer metric.
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


def test_package_root_exports_are_pinned():
    # growing the root API is a deliberate change: edit this set with it
    assert set(dcqd.__all__) == {
        "ExperimentConfig",
        "ConfigError",
        "characterize",
        "channel_fidelity_vs_theory",
        "failure_rate_experiment",
        "failure_oracle",
        "build_s0",
        "build_s1",
        "theoretical_chi_ad",
        "ProcessMatrix",
        "__version__",
    }


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's spans and run modules, loaded read-only."""
    # read the benchmark's files without leaving bytecode next to them
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for name in ("analysis", "channels", "cli", "codes", "protocol"):
        importlib.import_module(f"dcqd.{name}")
    spans = load_by_path("spans", PERFBENCH / "spans.py")
    # run.py imports its sibling as a top-level module
    monkeypatch.setitem(sys.modules, "spans", spans)
    return spans, load_by_path("perfbench_run", PERFBENCH / "run.py")


def test_benchmark_trace_targets_resolve(bench):
    spans, run = bench
    targets = run.trace_targets(dcqd, spans.Tracer())
    assert targets
    for namespace, attr, wrapper in targets:
        assert callable(getattr(namespace, attr)) and callable(wrapper)


def traced_calls(bench, workload, size, work) -> dict:
    """Span name -> call count over one small pass of a benchmark workload."""
    spans, run = bench
    tracer = spans.Tracer()
    job = run.WORKLOADS[workload](dcqd, size, 5, work)
    with spans.patched(run.trace_targets(dcqd, tracer)):
        job.run_pass()
    return tracer.call_counts(0)


# syndrome_basis is cached, so a warm pass never calls it
CHARACTERIZE_SPANS = (
    "cli.characterize",
    "protocol.characterize",
    "analysis.fidelity",
    "analysis.chi_distance",
    "codes.build_s0",
    "codes.build_s1",
    "codes.codeword",
    "channels.build",
    "channels.apply",
    "protocol.run_setting",
    "protocol.distribution",
    "protocol.estimate",
)


# a few thousand shots leave the s0 estimate visibly noisy
@pytest.mark.filterwarnings("ignore:clamping severely negative")
def test_characterize_pass_reaches_every_traced_layer(bench, tmp_path):
    calls = traced_calls(bench, "characterize-sampled", {"shots": 4000}, tmp_path)
    assert {span: calls[span] for span in CHARACTERIZE_SPANS if not calls[span]} == {}


def test_sweep_pass_builds_one_oracle_per_sweep(bench, tmp_path):
    calls = traced_calls(bench, "failure-sweep", {"shots": 10_000, "grid": (0.1, 0.3)}, tmp_path)
    assert calls["codes.build_s0"] >= 1 and calls["codes.build_s1"] >= 1
    # one sweep per code
    assert calls["analysis.sweep"] == calls["analysis.oracle"] == 2
