"""Benchmark for dcqd: the paper's two jobs, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload characterize-sampled --seed 1 --seconds 56 --trace 0

Workloads (one process each, closed loop: one caller runs a full pass,
then the next; a pass starts only if it should end by the deadline):

* ``characterize-sampled``: ``python -m dcqd characterize`` in-process on
  s0_noisy and s1_noisy, gamma=0.4, p=0.1, 1e6 shots per setting, sampling
  backend.  Work unit: shots drawn.
* ``characterize-exact``: the same CLI path with ``--backend exact`` for
  both scenarios over p in {0.02, 0.05, 0.1, 0.2, 0.3}.  Work unit: chi
  reconstructions.  Runnable by name, but not in BENCHMARK.json: its
  layers are traced on characterize-sampled as well, and a third timed
  workload would leave too little time per run for steady medians.
* ``failure-sweep``: ``dcqd.analysis.failure_rate_experiment`` for s1 and
  s0 over the same grid at 1e6 shots per point.  Work unit: shots.

Every pass is checked (see the ``check`` methods); a pass whose check
fails counts in ``failed``.  With ``--trace 0`` the last stdout line holds
the end-to-end metrics; with ``--trace 1`` untraced and traced passes
alternate and it holds the per-layer metrics, taken from spans recorded
around the calls into dcqd's public functions (see spans.py).  The line
before it is a JSON report with the environment, the raw samples and
every check failure.

``--smoke`` shrinks every workload (1e5 shots, two grid points, two
set-up processes) so that all workload, check and span paths run in a
few seconds; perfbench/smoke_checks.py uses it.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spans import Tracer, patched

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

GAMMA = 0.4
P_SAMPLED = 0.1
P_GRID = (0.02, 0.05, 0.1, 0.2, 0.3)
SCENARIOS = ("s0_noisy", "s1_noisy")
SETTINGS_PER_CHI = 31

FULL = {"shots": 1_000_000, "grid": P_GRID, "setup_runs": 7}
SMOKE = {"shots": 100_000, "grid": (0.1, 0.3), "setup_runs": 2}

# criterion 4 of tests/test_acceptance.py: (target, tolerance) per code and
# the minimum s1 - s0 gap; tolerances double at or below 1e5 shots
FIDELITY_S1 = (0.9884, 0.01)
FIDELITY_S0 = (0.9165, 0.015)
FIDELITY_GAP = 0.05
ACCEPT_SIGMAS = 5.0
SWEEP_SIGMAS = 4.0

# the Monte-Carlo sweep draws its shots in chunks of 2^20 (computed count)
SWEEP_CHUNK_SHOTS = 1 << 20

SETUP_CHILD = """
import time
t0 = time.perf_counter()
import dcqd
t1 = time.perf_counter()
from dcqd.codes import build_s0, build_s1
build_s0()
build_s1()
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""

# span name -> per-layer self-time metric
SELF_TIME_LAYER = {
    "pass": "other_s",
    "protocol.characterize": "other_s",
    "codes.build_s0": "codes.pass_s",
    "codes.build_s1": "codes.pass_s",
    "codes.syndrome_basis": "codes.pass_s",
    "codes.codeword": "codes.pass_s",
    "channels.build": "channels.build_s",
    "channels.apply": "channels.apply_s",
    "protocol.distribution": "protocol.distribution_s",
    "protocol.run_setting": "protocol.sampling_s",
    "protocol.estimate": "protocol.estimate_s",
    "analysis.fidelity": "analysis.fidelity_s",
    "analysis.chi_distance": "analysis.fidelity_s",
    "cli.characterize": "cli.write_s",
    "analysis.sweep": "analysis.sweep_s",
    "analysis.oracle": "analysis.oracle_s",
}
CODES_SPANS = ("codes.build_s0", "codes.build_s1", "codes.syndrome_basis", "codes.codeword")

# counts that are a pure function of the workload's sizes; a traced pass
# whose computed counts differ from the first traced pass fails its check
COMPUTED_COUNTS = (
    "channels.kraus_ops",
    "channels.kraus_bytes",
    "channels.apply_flop",
    "protocol.shots_drawn",
    "rng.blocks",
    "analysis.sweep_shots",
    "analysis.sweep_chunks",
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_dcqd():
    """Import dcqd from this checkout's src/ and nowhere else."""
    if not (SRC / "dcqd" / "__init__.py").is_file():
        fail(f"no dcqd sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import dcqd
    import dcqd.analysis
    import dcqd.channels
    import dcqd.cli
    import dcqd.codes
    import dcqd.config
    import dcqd.protocol

    if SRC.resolve() not in Path(dcqd.__file__).resolve().parents:
        fail(f"imported dcqd from {dcqd.__file__}, not from {SRC}")
    return dcqd


# ---------------------------------------------------------------- environment


def blas_info() -> dict:
    import numpy as np

    info = {"name": None, "config": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            getter = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = int(getter())
                config = getattr(lib, f"{prefix}openblas_get_config{suffix}")
                config.restype = ctypes.c_char_p
                info["config"] = config().decode()
                return info
    return info


def source_state() -> dict:
    """Git commit and dirty flag when the checkout is a repository, plus a
    digest of the package sources, which identifies the code either way."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "dcqd").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    state = {"commit": None, "dirty": None, "src_sha256": digest.hexdigest()[:16]}
    if (ROOT / ".git").exists():
        try:
            git = ["git", "--no-optional-locks", "-C", str(ROOT)]
            state["commit"] = subprocess.run(
                git + ["rev-parse", "HEAD"], capture_output=True, text=True, timeout=20, check=True
            ).stdout.strip()
            status = subprocess.run(
                git + ["status", "--porcelain"], capture_output=True, text=True, timeout=20, check=True
            ).stdout
            state["dirty"] = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return state


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "machine": platform.machine(),
        "seed": seed,
        **source_state(),
    }


# ---------------------------------------------------------------- set-up time


def measure_setup(runs: int) -> list:
    """Import dcqd and build both codes in fresh processes, one after another.

    Returns (import_s, build_s) per process.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    samples = []
    for _ in range(runs):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        import_s, build_s = (float(tok) for tok in done.stdout.split())
        samples.append((import_s, build_s))
    return samples


# ---------------------------------------------------------------- workloads


def run_cli(dcqd, argv: list) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = dcqd.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"dcqd {' '.join(argv)} exited with {code}")


def characterize_argv(scenario: str, p: float, seed: int, backend: str, out: Path, shots=None) -> list:
    argv = ["characterize", "--scenario", scenario, "--gamma", repr(GAMMA), "--p", repr(p)]
    if shots is not None:
        argv += ["--shots", str(shots)]
    return argv + ["--seed", str(seed), "--backend", backend, "--out", str(out)]


def tol_scale(shots: int) -> float:
    return 2.0 if shots <= 100_000 else 1.0


class CharacterizeSampled:
    name = "characterize-sampled"
    unit = "shots"

    def __init__(self, dcqd, size: dict, seed: int, work: Path):
        self.dcqd, self.seed, self.shots = dcqd, seed, size["shots"]
        self.outs = {s: work / s for s in SCENARIOS}
        self.work_per_pass = len(SCENARIOS) * SETTINGS_PER_CHI * self.shots
        self.observed = {}

    def prepare(self) -> None:
        """Exact-backend accepted mass of every s1 setting, the reference
        for the sampled accepted fraction."""
        config = self.dcqd.config.ExperimentConfig(
            scenario="s1_noisy", gamma=GAMMA, p=P_SAMPLED, seed=self.seed, backend="exact"
        )
        result = self.dcqd.protocol.characterize(config)
        self.exact_accepted = {h.setting.label: h.accepted for h in result.histograms}

    def run_pass(self) -> None:
        for scenario, out in self.outs.items():
            run_cli(self.dcqd, characterize_argv(scenario, P_SAMPLED, self.seed, "sampling", out, self.shots))

    def check(self) -> list:
        problems = []
        fid = {s: json.loads((out / "fidelity.json").read_text())["fidelity"] for s, out in self.outs.items()}
        scale = tol_scale(self.shots)
        for scenario, (target, tol) in (("s1_noisy", FIDELITY_S1), ("s0_noisy", FIDELITY_S0)):
            if not abs(fid[scenario] - target) < tol * scale:
                problems.append(f"{scenario} fidelity {fid[scenario]} outside {target} +- {tol * scale}")
        if not fid["s1_noisy"] - fid["s0_noisy"] >= FIDELITY_GAP / scale:
            problems.append(f"fidelity gap {fid['s1_noisy'] - fid['s0_noisy']} below {FIDELITY_GAP / scale}")

        settings = json.loads((self.outs["s1_noisy"] / "histograms.json").read_text())["settings"]
        accepted = sum(s["accepted"] for s in settings)
        drawn = sum(s["total"] for s in settings)
        masses = [self.exact_accepted[s["setting"]] for s in settings]
        expected = self.shots * sum(masses)
        sigma = math.sqrt(self.shots * sum(q * (1.0 - q) for q in masses))
        if drawn != self.shots * len(masses) or not abs(accepted - expected) < ACCEPT_SIGMAS * sigma:
            problems.append(
                f"s1 accepted {accepted} of {drawn}; exact backend expects {expected} +- {ACCEPT_SIGMAS}*{sigma}"
            )
        self.observed = {
            "fidelity": fid,
            "s1_accepted_frac": accepted / drawn,
            "s1_exact_accepted_frac": expected / drawn,
        }
        return problems


def data_rows_digest(out: Path) -> str:
    """sha256 of the chi CSV data rows and the histogram settings.

    Comment lines are skipped: they carry the config hash, which changes
    with the config's fields even when the results do not.
    """
    digest = hashlib.sha256()
    for name in ("chi_real.csv", "chi_imag.csv"):
        rows = [line for line in (out / name).read_text().splitlines() if not line.startswith("#")]
        digest.update("\n".join(rows).encode())
    settings = json.loads((out / "histograms.json").read_text())["settings"]
    digest.update(json.dumps(settings, sort_keys=True).encode())
    return digest.hexdigest()


def exact_key(scenario: str, p: float) -> str:
    return f"{scenario}@p={p!r}"


class CharacterizeExact:
    name = "characterize-exact"
    unit = "chi"

    def __init__(self, dcqd, size: dict, seed: int, work: Path):
        self.dcqd, self.seed = dcqd, seed
        self.runs = {(s, p): work / f"{s}_p{p!r}" for s in SCENARIOS for p in size["grid"]}
        self.work_per_pass = len(self.runs)
        self.observed = {}

    def prepare(self) -> None:
        self.recorded = json.loads(DIGESTS.read_text())["digests"]

    def run_pass(self) -> None:
        for (scenario, p), out in self.runs.items():
            run_cli(self.dcqd, characterize_argv(scenario, p, self.seed, "exact", out))

    def check(self) -> list:
        problems = []
        digests = {}
        fid = {}
        for (scenario, p), out in self.runs.items():
            key = exact_key(scenario, p)
            digests[key] = data_rows_digest(out)
            if digests[key] != self.recorded.get(key):
                problems.append(f"{key}: chi/histogram data rows differ from the recorded digest")
            fid[key] = json.loads((out / "fidelity.json").read_text())["fidelity"]
        for p in sorted({p for _, p in self.runs}):
            f1, f0 = fid[exact_key("s1_noisy", p)], fid[exact_key("s0_noisy", p)]
            if not f1 >= f0:
                problems.append(f"p={p}: s1 fidelity {f1} below s0 fidelity {f0}")
        self.observed = {"fidelity": fid, "digests": digests}
        return problems


class FailureSweep:
    name = "failure-sweep"
    unit = "shots"

    def __init__(self, dcqd, size: dict, seed: int, work: Path):
        self.dcqd, self.seed, self.shots = dcqd, seed, size["shots"]
        self.grid = list(size["grid"])
        self.work_per_pass = 2 * len(self.grid) * self.shots
        self.observed = {}

    def prepare(self) -> None:
        pass

    def run_pass(self) -> None:
        codes, analysis = self.dcqd.codes, self.dcqd.analysis
        self.reports = {
            label: analysis.failure_rate_experiment(self.grid, self.shots, self.seed, code=build())
            for label, build in (("s1", codes.build_s1), ("s0", codes.build_s0))
        }

    def check(self) -> list:
        problems = []
        worst = 0.0
        for label, reports in self.reports.items():
            if [r.p for r in reports] != self.grid:
                problems.append(f"{label}: report grid {[r.p for r in reports]} != {self.grid}")
            for r in reports:
                sigma = math.sqrt(r.analytic_p_F * (1.0 - r.analytic_p_F) / r.shots)
                z = abs(r.p_F - r.analytic_p_F) / sigma
                worst = max(worst, z)
                if r.shots != self.shots or not z < SWEEP_SIGMAS:
                    problems.append(f"{label} p={r.p}: p_F {r.p_F} vs analytic {r.analytic_p_F} ({z:.2f} sigma)")
        self.observed = {"max_abs_z": worst}
        return problems


WORKLOADS = {w.name: w for w in (CharacterizeSampled, CharacterizeExact, FailureSweep)}


# ---------------------------------------------------------------- tracing


def trace_targets(dcqd, tracer) -> list:
    """(namespace, attribute, wrapper) for every public call a pass makes,
    patched in the namespace that looks the name up."""
    from dcqd.rng import BLOCK_SHOTS

    cli, protocol, channels, codes, analysis = (
        dcqd.cli, dcqd.protocol, dcqd.channels, dcqd.codes, dcqd.analysis
    )

    def on_channel(channel, args, kwargs):
        tracer.add("channels.kraus_ops", len(channel.kraus))
        tracer.add("channels.kraus_bytes", sum(k.nbytes for k in channel.kraus))

    def on_apply(rho, args, kwargs):
        # K^dag K for the completeness check, then K rho K^dag: three dense
        # complex products of side dim per Kraus operator, 8 flops per
        # complex multiply-add
        tracer.add("channels.apply_flop", 3 * 8 * len(args[0].kraus) * rho.dim ** 3)

    def on_setting(hist, args, kwargs):
        tracer.add("protocol.accepted", hist.accepted)
        tracer.add("protocol.drawn", hist.total)
        if kwargs.get("backend", args[5] if len(args) > 5 else "sampling") == "sampling":
            tracer.add("protocol.shots_drawn", int(hist.total))
            tracer.add("rng.blocks", math.ceil(hist.total / BLOCK_SHOTS))

    def on_sweep(reports, args, kwargs):
        for r in reports:
            tracer.add("analysis.sweep_shots", r.shots)
            tracer.add("analysis.sweep_chunks", math.ceil(r.shots / SWEEP_CHUNK_SHOTS))

    def on_cli(code, args, kwargs):
        out = Path(args[0].out)
        tracer.add("cli.bytes_written", sum(f.stat().st_size for f in out.iterdir() if f.is_file()))

    def target(namespace, attr, span, on_return=None):
        return (namespace, attr, tracer.wrap(span, getattr(namespace, attr), on_return))

    return [
        target(cli, "cmd_characterize", "cli.characterize", on_cli),
        target(cli, "characterize", "protocol.characterize"),
        target(cli, "channel_fidelity_vs_theory", "analysis.fidelity"),
        target(cli, "chi_distance_report", "analysis.chi_distance"),
        target(protocol, "build_s0", "codes.build_s0"),
        target(protocol, "build_s1", "codes.build_s1"),
        target(protocol, "syndrome_basis", "codes.syndrome_basis"),
        target(protocol, "prepare_probe", "codes.codeword"),
        target(codes, "build_s0", "codes.build_s0"),
        target(codes, "build_s1", "codes.build_s1"),
        target(channels, "channel_from_spec", "channels.build", on_channel),
        target(channels, "apply", "channels.apply", on_apply),
        target(protocol, "run_setting", "protocol.run_setting", on_setting),
        target(protocol, "setting_distribution", "protocol.distribution"),
        target(protocol, "estimate_offdiagonal", "protocol.estimate"),
        target(analysis, "failure_rate_experiment", "analysis.sweep", on_sweep),
        target(analysis, "failure_oracle", "analysis.oracle"),
    ]


def layer_values(tracer, pass_id: int, names: list) -> dict:
    values = dict.fromkeys(names, 0.0)
    for span, seconds in tracer.self_times(pass_id).items():
        values[SELF_TIME_LAYER[span]] += seconds
    calls = tracer.call_counts(pass_id)
    counts = tracer.pass_counts(pass_id)
    values["codes.calls"] = sum(calls[s] for s in CODES_SPANS)
    values["protocol.distribution_calls"] = calls["protocol.distribution"]
    values["channels.kraus_ops"] = counts.get("channels.kraus_ops", 0)
    values["channels.kraus_mb"] = counts.get("channels.kraus_bytes", 0) / 1e6
    values["channels.apply_gflop"] = counts.get("channels.apply_flop", 0) / 1e9
    values["protocol.shots_drawn"] = counts.get("protocol.shots_drawn", 0)
    values["rng.blocks"] = counts.get("rng.blocks", 0)
    drawn = counts.get("protocol.drawn", 0)
    values["protocol.accepted_frac"] = counts.get("protocol.accepted", 0) / drawn if drawn else 0.0
    values["cli.bytes_written"] = counts.get("cli.bytes_written", 0)
    values["analysis.sweep_shots"] = counts.get("analysis.sweep_shots", 0)
    values["analysis.sweep_chunks"] = counts.get("analysis.sweep_chunks", 0)
    return values


def load_metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: spec[kind] for kind in ("end_to_end", "per_layer")}


# ---------------------------------------------------------------- main loop


def tail(samples: list) -> dict:
    """Highest percentile with at least ten samples beyond it.

    With ten samples or fewer no such percentile exists; the lowest sample,
    the one with the most samples beyond it, is reported and ``beyond`` < 10
    flags it.  That is the sample the rule picks at eleven, so the value
    does not jump between runs whose pass counts differ by one.
    """
    ordered = sorted(samples)
    index = max(len(ordered) - 11, 0)
    return {
        "value": ordered[index],
        "percentile": 100.0 * (index + 1) / len(ordered),
        "beyond": len(ordered) - 1 - index,
        "samples": len(ordered),
    }


def run(args) -> int:
    specs = load_metric_specs()
    layer_names = [m["name"] for m in specs["per_layer"]]
    dcqd = import_dcqd()
    size = SMOKE if args.smoke else FULL
    work = Path(tempfile.mkdtemp(prefix=f".work-{args.workload}-", dir=HERE))
    try:
        workload = WORKLOADS[args.workload](dcqd, size, args.seed, work)
        env = environment(args.seed)
        setup = measure_setup(size["setup_runs"])
        workload.prepare()

        attempted = failed = 0
        failures = []
        untraced, traced = [], []
        tracer = None

        def one_pass(trace: bool) -> float:
            nonlocal attempted, failed
            if trace:
                tracer.pass_id += 1
            attempted += 1
            start = time.perf_counter()
            try:
                if trace:
                    with patched(trace_targets(dcqd, tracer)), tracer.span("pass"):
                        workload.run_pass()
                else:
                    workload.run_pass()
                elapsed = time.perf_counter() - start
                problems = workload.check()
                if trace and tracer.pass_id > 1:
                    first, now = tracer.pass_counts(1), tracer.pass_counts(tracer.pass_id)
                    if any(now.get(k) != first.get(k) for k in COMPUTED_COUNTS):
                        problems.append(f"traced pass {tracer.pass_id}: computed counts differ from traced pass 1")
            except Exception:  # a broken pass is a failed check, not a crash
                elapsed = time.perf_counter() - start
                problems = [traceback.format_exc(limit=4)]
            if problems:
                failed += 1
                failures.extend(problems[:4])
            return elapsed

        one_pass(False)  # warm-up: lazy imports and per-process caches
        if args.trace:
            tracer = Tracer()

        def room_for_another(trace: bool) -> bool:
            """A pass starts only if one of its kind, at the median so
            far, would end before the deadline."""
            samples = traced if trace and traced else untraced
            return time.perf_counter() + statistics.median(samples) <= deadline

        deadline = time.perf_counter() + args.seconds
        trace_next = False
        while not untraced or (args.trace and not traced) or room_for_another(trace_next):
            (traced if trace_next else untraced).append(one_pass(trace_next))
            trace_next = bool(args.trace) and not trace_next
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        setup_total = [imp + build for imp, build in setup]
        report = {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "environment": env,
            "work_unit": workload.unit,
            "work_per_pass": workload.work_per_pass,
            "pass_s_samples": untraced,
            "pass_s_tail": tail(untraced),
            "setup_s_samples": setup_total,
            "observed": workload.observed,
        }
        if args.trace:
            per_pass = [layer_values(tracer, pid, layer_names) for pid in range(1, tracer.pass_id + 1)]
            layers = {name: statistics.median(v[name] for v in per_pass) for name in layer_names}
            layers["codes.build_s"] = statistics.median(build for _, build in setup)
            layers["setup.import_s"] = statistics.median(imp for imp, _ in setup)
            layers["trace_overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
            report["traced_pass_s_samples"] = traced
            report["computed_counts"] = {k: tracer.pass_counts(1).get(k, 0) for k in COMPUTED_COUNTS}
            values = layers
            wanted = specs["per_layer"]
        else:
            values = {
                "setup_s": statistics.median(setup_total),
                "pass_s": statistics.median(untraced),
                "pass_s_tail": tail(untraced)["value"],
                "work_per_s": workload.work_per_pass / statistics.median(untraced),
                "peak_rss_mb": peak_rss_mb,
            }
            wanted = specs["end_to_end"]
        report["check_fail_frac"] = failed / attempted
        report["failures"] = failures[:8]
        print(json.dumps(report, sort_keys=True))
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


if __name__ == "__main__":
    sys.exit(run(parse_args()))
