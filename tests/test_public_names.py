"""The names the package exports, documents and the benchmark traces
must exist.

``perfbench/run.py`` patches public dcqd functions by name during a
traced pass; a deleted or renamed target would only fail there, so its
target list is built here too, and small passes of both benchmarked
workloads must reach every span a pass needs.  A call that bypassed a
traced name would otherwise read as a zero per-layer metric.  The
README's python blocks run as written, so its example cannot drift from
the API either.
"""

import importlib
import importlib.util
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import dcqd

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
README = PERFBENCH.parent / "README.md"


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


def test_readme_python_blocks_run():
    # the README's library example is the documented API, so it must run
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


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


def traced_pass(bench, workload, size, work) -> tuple:
    """Span name -> call count, and the benchmark's computed counts, over
    one small pass of a benchmark workload."""
    spans, run = bench
    tracer = spans.Tracer()
    job = run.WORKLOADS[workload](dcqd, size, 5, work)
    with spans.patched(run.trace_targets(dcqd, tracer)):
        job.run_pass()
    return tracer.call_counts(0), tracer.pass_counts(0)


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
    shots = 4000
    calls, counts = traced_pass(bench, "characterize-sampled", {"shots": shots}, tmp_path)
    assert {span: calls[span] for span in CHARACTERIZE_SPANS if not calls[span]} == {}
    # on_setting reads the backend from run_setting's sixth positional
    # argument; a moved argument would read every sampled shot as exact
    assert counts["protocol.shots_drawn"] == 2 * 31 * shots
    # s0_noisy composes 4 * 4 * 2 Kraus operators, s1_noisy 4^4 * 2
    assert counts["channels.kraus_ops"] == 544


def test_sweep_pass_builds_one_oracle_per_sweep(bench, tmp_path):
    shots, grid = 10_000, (0.1, 0.3)
    calls, counts = traced_pass(bench, "failure-sweep", {"shots": shots, "grid": grid}, tmp_path)
    assert calls["codes.build_s0"] >= 1 and calls["codes.build_s1"] >= 1
    # one sweep per code
    assert calls["analysis.sweep"] == calls["analysis.oracle"] == 2
    assert counts["analysis.sweep_shots"] == 2 * len(grid) * shots
