"""Command-line experiment runner.

Four subcommands cover the reproduction workflow:

* ``table``       print the located-error syndrome table and verify it
                  against the checked-in golden copy;
* ``characterize`` run a full 31-setting characterization and write the
                  reconstructed process matrix, its distance from the
                  damping closed form, the fidelity score, and the raw
                  syndrome histograms;
* ``failure-sweep`` Monte-Carlo the ancilla-noise failure rate of the s1
                  filter code (or the unfiltered s0) across a grid of
                  depolarizing strengths;
* ``selftest``    fast end-to-end invariant checks.

Settings resolve with precedence defaults < config file < flags, and
every experiment output embeds the effective-config hash and seed so a
result file can always be traced to the run that made it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np

from .analysis import (
    channel_fidelity_vs_theory,
    chi_distance_report,
    failure_oracle,
    failure_rate_experiment,
    loglog_slope,
)
from .channels import apply, pauli_unitary_channel, theoretical_chi_ad
from .codes import build_s0, build_s1, located_error_table
from .config import (
    BACKENDS,
    ConfigError,
    DEFAULTS,
    ExperimentConfig,
    SCENARIOS,
    load_config_file,
    settings_hash,
)
from .pauli import single_site
from .process_matrix import BASIS_LABELS
from .protocol import (
    IncompleteDataError,
    PreprocessingKind,
    PreprocessingOp,
    characterize,
    prepare_probe,
    resolve_scenario,
    run_setting,
)

__all__ = ["main"]

GOLDEN_TABLE = "data/located_error_table.csv"
DEFAULT_SWEEP_GRID = "0.02,0.05,0.1,0.2,0.3"
# the sweep draws ancilla noise only, at the strengths of --p-values
SWEEP_KEYS = ("shots", "seed")
SWEEP_CODES = {"s0": build_s0, "s1": build_s1}


def _real(value: float) -> str:
    return format(float(value), ".17g")


def _table_csv_text() -> str:
    code = build_s1()
    lines = ["index,operator,syndrome"]
    for idx, _, syn in located_error_table(code):
        lines.append(f"{idx},{BASIS_LABELS[idx]},{syn:0{code.r}b}")
    return "\n".join(lines) + "\n"


def _golden_table_text() -> str:
    return resources.files("dcqd").joinpath(GOLDEN_TABLE).read_text()


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@lru_cache(maxsize=8)
def _json_keys(outcomes: tuple, columns: int) -> tuple:
    """JSON key of every histogram cell, row-major: the syndrome's bits,
    prefixed by ``+1|`` or ``-1|`` on projective rows."""
    length = int(np.log2(columns))
    bits = [format(s, f"0{length}b") for s in range(columns)]
    return tuple(b if outcome == 0 else f"{outcome:+d}|{b}" for outcome in outcomes for b in bits)


def _histogram_doc(hist) -> dict:
    """One setting's entry in histograms.json: its nonzero cells, and
    every whole number written as an int."""
    keys = _json_keys(hist.outcomes, hist.counts.shape[1])
    cells = enumerate(hist.counts.ravel().tolist())
    table = {keys[cell]: v if v != int(v) else int(v) for cell, v in cells if v}
    return {
        "setting": hist.setting.label,
        "total": hist.total if hist.total != int(hist.total) else int(hist.total),
        "accepted": hist.accepted if hist.accepted != int(hist.accepted) else int(hist.accepted),
        "counts": table,
    }


# each flat counts dict sits three levels deep in histograms.json
_COUNTS_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n        ", ": "))
_COUNTS_MARK = json.dumps("\0")


def _histograms_text(payload: dict) -> str:
    """The bytes of ``_write_json`` for the histograms document.  With
    ``indent`` set, ``json`` runs its pure-Python encoder, so each flat
    ``counts`` dict goes through the C encoder instead, its separator
    carrying the newline and indent, and is spliced in for a marker."""
    counts = []
    for doc in payload["settings"]:
        text = _COUNTS_ENCODER.encode(doc["counts"])
        counts.append(text if text == "{}" else "{\n        " + text[1:-1] + "\n      }")
    settings = [dict(doc, counts="\0") for doc in payload["settings"]]
    pieces = json.dumps(dict(payload, settings=settings), indent=2, sort_keys=True).split(_COUNTS_MARK)
    return pieces[0] + "".join(map("".join, zip(counts, pieces[1:]))) + "\n"


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out} is not a usable directory: {exc.strerror}") from exc
    return out


def _build_config(args, keys=tuple(DEFAULTS)) -> ExperimentConfig:
    """Lay the flags named by ``keys`` over the --config file's values.

    Defaults fill in the rest.  A file key outside ``keys`` would be
    silently ignored, and so would a ``p`` for a scenario that draws no
    ancilla noise, so both are configuration errors.  A characterize
    run's own ``effective_config.json`` replays: its ``config_hash`` must
    match the file's settings, and its recorded ``p`` is then accepted.
    """
    values = load_config_file(args.config) if args.config else {}
    recorded = args.command == "characterize" and "config_hash" in values
    digest = values.pop("config_hash") if recorded else None
    unused = sorted(set(values) - set(keys))
    if unused:
        raise ConfigError(f"config keys {unused} do not apply to {args.command}")
    if recorded and ExperimentConfig(**values).config_hash() != digest:
        raise ConfigError(f"config_hash {digest!r} does not match the settings in {args.config}")
    flags = {key: getattr(args, key) for key in keys if getattr(args, key) is not None}
    config = ExperimentConfig(**dict(values, **flags))
    if ("p" in flags or ("p" in values and not recorded)) and not SCENARIOS[config.scenario][1]:
        raise ConfigError(f"scenario {config.scenario} draws no ancilla noise, so p does not apply")
    return config


def cmd_table(args) -> int:
    out = None if args.out is None else _out_dir(args)
    computed = _table_csv_text()
    code = build_s1()
    for idx, _, syn in located_error_table(code):
        print(f"{BASIS_LABELS[idx]}, {syn:0{code.r}b}")
    if out is not None:
        (out / "located_error_table.csv").write_text(computed)
    golden = _golden_table_text()
    if computed != golden:
        print("located-error table does not match the golden copy", file=sys.stderr)
        return 1
    return 0


def cmd_characterize(args) -> int:
    config = _build_config(args)
    out = _out_dir(args)
    result = characterize(config)
    fid = channel_fidelity_vs_theory(result.chi, config.gamma)
    diff = chi_distance_report(result.chi, theoretical_chi_ad(config.gamma))
    header = f"# config={config.config_hash()} seed={config.seed}\n"

    # one "m,n," prefix per entry, row-major; {:.17g} is _real's format
    cells = [f"{lm},{ln}," for lm in BASIS_LABELS for ln in BASIS_LABELS]
    chi, d = result.chi.data.ravel(), diff.difference.ravel()
    real_lines = [header + "m,n,value", *map("{}{:.17g}".format, cells, chi.real.tolist())]
    imag_lines = [header + "m,n,value", *map("{}{:.17g}".format, cells, chi.imag.tolist())]
    diff_lines = [
        header + f"# max_abs_diff={_real(diff.max_abs)}\n" + "m,n,real,imag",
        *map("{}{:.17g},{:.17g}".format, cells, d.real.tolist(), d.imag.tolist()),
    ]
    (out / "chi_real.csv").write_text("\n".join(real_lines) + "\n")
    (out / "chi_imag.csv").write_text("\n".join(imag_lines) + "\n")
    (out / "chi_diff_vs_theory.csv").write_text("\n".join(diff_lines) + "\n")

    _write_json(
        out / "fidelity.json",
        {
            "config": config.config_hash(),
            "seed": config.seed,
            "scenario": config.scenario,
            "gamma": config.gamma,
            "p": config.p,
            "shots": config.shots,
            "backend": config.backend,
            "fidelity": fid,
            "input_state": "|0><0|",
            "compared": ["estimated", f"amplitude_damping(gamma={config.gamma})"],
            "max_abs_diff_vs_theory": diff.max_abs,
        },
    )
    settings = [_histogram_doc(h) for h in result.histograms]
    payload = {"config": config.config_hash(), "seed": config.seed, "settings": settings}
    (out / "histograms.json").write_text(_histograms_text(payload))
    _write_json(
        out / "effective_config.json",
        dict(config.to_dict(), config_hash=config.config_hash()),
    )
    print(f"scenario {config.scenario}: fidelity vs theory = {fid:.6f}")
    return 0


def cmd_failure_sweep(args) -> int:
    config = _build_config(args, SWEEP_KEYS)
    # float rejects an empty or blank entry, so "0.1,,0.2" cannot run two
    # points; + 0.0 turns -0.0 into 0.0, so "-0" records the run "0" does
    try:
        p_values = [float(tok) + 0.0 for tok in args.p_values.split(",")]
    except ValueError as exc:
        raise ConfigError(f"p-values must be comma-separated reals: {exc}") from exc
    # the negated range test also rejects nan
    outside = [p for p in p_values if not 0.0 <= p <= 1.0]
    if outside:
        raise ConfigError(f"p-values must lie in [0, 1], got {outside}")
    out = _out_dir(args)
    code = SWEEP_CODES[args.code]()
    reports = failure_rate_experiment(p_values, config.shots, config.seed, code=code)
    # record and hash only what the sweep reads
    record = {"code": args.code, "p_values": p_values, "seed": config.seed, "shots": config.shots}
    digest = settings_hash(record)
    header = f"# config={digest} seed={config.seed}\n"
    lines = [header + "p,p_identity_syndrome,P_identity,delta_p1,p_00,p_F,analytic_p_F"]
    for r in reports:
        lines.append(
            ",".join(
                _real(v)
                for v in (
                    r.p,
                    r.p_identity_syndrome,
                    r.p_identity_operator,
                    r.delta_p1,
                    r.p_00,
                    r.p_F,
                    r.analytic_p_F,
                )
            )
        )
    (out / "failure_sweep.csv").write_text("\n".join(lines) + "\n")
    _write_json(out / "effective_config.json", dict(record, config_hash=digest))
    oracle = failure_oracle(code)
    coeffs = ", ".join(
        f"w{w + 1}: {c}" for w, c in enumerate(oracle.failure_coefficients)
    )
    print(f"failure-rate coefficients per weight: {coeffs}")
    print(f"wrote {out / 'failure_sweep.csv'}")
    return 0


def _selftest_checks(report: list):
    """(name, check) pairs; a check returns its problem or None, and may add lines to report."""
    def check_table():
        if _table_csv_text() != _golden_table_text():
            return "computed table differs from golden copy"
        return None

    def check_codeword():
        from .codes import codeword_state

        psi = codeword_state(build_s1())
        hot = {format(i, "06b") for i in np.nonzero(np.abs(psi) > 1e-12)[0]}
        want = {"000000", "001111", "010101", "011010", "100011", "101100", "110110", "111001"}
        if hot != want:
            return f"codeword support {sorted(hot)} != expected"
        amps = psi[np.abs(psi) > 1e-12]
        if np.max(np.abs(amps - 1 / np.sqrt(8))) > 1e-10:
            return "codeword amplitudes deviate from 1/sqrt(8)"
        return None

    def check_exact_identity():
        cfg = ExperimentConfig(
            scenario="clean", gamma=0.4, p=0.0, shots=1, seed=1, backend="exact"
        )
        gap = chi_distance_report(characterize(cfg).chi, theoretical_chi_ad(0.4)).max_abs
        if gap > 1e-9:
            return f"exact-backend reconstruction off by {gap}"
        return None

    def check_oracle():
        oracle = failure_oracle()
        want = ((12, 0, 0), (36, 0, 18), (84, 0, 24), (60, 3, 18))
        if oracle.tallies != want:
            return f"oracle tallies {oracle.tallies} != {want}"
        if [str(c) for c in oracle.failure_coefficients] != ["0", "1/3", "2/9", "7/27"]:
            return f"oracle coefficients {oracle.failure_coefficients}"
        return None

    def check_filter():
        channel = pauli_unitary_channel(single_site(6, 3, "X"))
        hist = run_setting(
            build_s1(),
            channel,
            PreprocessingOp(PreprocessingKind.IDENTITY),
            shots=1,
            seed=1,
            backend="exact",
        )
        if hist.accepted != 0.0:
            return f"weight-one ancilla error leaked {hist.accepted} accepted mass"
        return None

    def check_rerun():
        cfg = ExperimentConfig(
            scenario="s1_noisy", gamma=0.4, p=0.1, shots=20_000, seed=99, backend="sampling"
        )
        a, b = characterize(cfg), characterize(cfg)
        for ha, hb in zip(a.histograms, b.histograms):
            if not np.array_equal(ha.counts, hb.counts):
                return f"rerun counts diverge in setting {ha.setting.label}"
        return None

    def check_sampler():
        cfg = ExperimentConfig(scenario="s1_noisy", gamma=0.4, p=0.1, shots=20_000, seed=99)
        code, channel = resolve_scenario(cfg)
        rho = apply(channel, prepare_probe(code))
        op = PreprocessingOp(PreprocessingKind.IDENTITY)
        mass = run_setting(code, channel, op, 1, cfg.seed, "exact", rho).accepted
        drawn = run_setting(code, channel, op, cfg.shots, cfg.seed, "sampling", rho)
        sigma = np.sqrt(mass * (1.0 - mass) / cfg.shots)
        frac = drawn.accepted / drawn.total
        if not abs(frac - mass) < 5.0 * sigma:
            return f"sampled accepted fraction {frac} vs exact mass {mass} (5 sigma = {5.0 * sigma})"
        return None

    def check_chi_slope():
        # exact chi error and infidelity scale as p^w, w the paper's
        # leading failure weight, which the oracle's failure polynomial
        # must show too: a code that lost its detectors scales as p
        grid = (0.005, 0.01, 0.02, 0.05, 0.1)
        theory = theoretical_chi_ad(0.4)
        for scenario, build, weight in (("s0_noisy", build_s0, 1), ("s1_noisy", build_s1, 2)):
            coefficients = failure_oracle(build()).failure_coefficients
            w_min = next(w + 1 for w, c in enumerate(coefficients) if c)
            errors, infidelities = [], []
            for p in grid:
                cfg = ExperimentConfig(scenario=scenario, gamma=0.4, p=p, shots=1, backend="exact")
                chi = characterize(cfg).chi
                errors.append(chi_distance_report(chi, theory).max_abs)
                infidelities.append(1.0 - channel_fidelity_vs_theory(chi, 0.4))
            slopes = {"max|chi - chi_AD|": loglog_slope(grid, errors), "1 - F": loglog_slope(grid, infidelities)}
            report.append(
                f"  {scenario}: leading failure weight {w_min}, log-log slopes "
                + ", ".join(f"{name} {slope:.3f}" for name, slope in slopes.items())
            )
            if w_min != weight:
                return f"{scenario}: leading failure weight {w_min}, the paper's is {weight}"
            for name, slope in slopes.items():
                if not abs(slope - weight) < 0.15:
                    return f"{scenario}: log-log slope of {name} is {slope:.3f}, leading failure weight {weight}"
        return None

    return [
        ("golden table", check_table),
        ("codeword superposition", check_codeword),
        ("exact-backend reconstruction", check_exact_identity),
        ("failure oracle counts", check_oracle),
        ("ancilla filter soundness", check_filter),
        ("same-config rerun", check_rerun),
        ("sampler vs exact accepted mass", check_sampler),
        ("chi error slope vs leading failure weight", check_chi_slope),
    ]


def cmd_selftest(args) -> int:
    failures = 0
    report = []
    for name, check in _selftest_checks(report):
        start = time.perf_counter()
        problem = check()
        elapsed = time.perf_counter() - start
        if problem is None:
            print(f"ok: {name} ({elapsed:.2f}s)")
        else:
            failures += 1
            print(f"FAIL: {name}: {problem}", file=sys.stderr)
        for line in report:
            print(line)
        report.clear()
    return 1 if failures else 0


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file with experiment settings")
    parser.add_argument("--shots", type=int, help="shots per measurement setting")
    parser.add_argument("--seed", type=int, help="master seed for all random streams")
    parser.add_argument("--out", default="results", help="output directory")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcqd",
        description="syndrome-based process characterization experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="print and verify the located-error table")
    p_table.add_argument("--out", help="directory to write the table CSV into")
    p_table.set_defaults(func=cmd_table)

    p_char = sub.add_parser("characterize", help="run a full characterization")
    _add_run_flags(p_char)
    p_char.add_argument("--scenario", choices=tuple(SCENARIOS), help="noise scenario to run")
    p_char.add_argument("--gamma", type=float, help="amplitude-damping strength on qubit 1")
    p_char.add_argument("--p", type=float, help="depolarizing strength per ancilla qubit")
    p_char.add_argument("--backend", choices=BACKENDS, help="sampling or exact probabilities")
    p_char.set_defaults(func=cmd_characterize)

    # no abbreviations: "--p" must not silently stand for "--p-values"
    p_sweep = sub.add_parser(
        "failure-sweep", help="failure rate vs depolarizing strength", allow_abbrev=False
    )
    _add_run_flags(p_sweep)
    p_sweep.add_argument(
        "--p-values",
        default=DEFAULT_SWEEP_GRID,
        help="comma-separated depolarizing grid",
    )
    p_sweep.add_argument(
        "--code",
        choices=tuple(SWEEP_CODES),
        default="s1",
        help="s1 filters ancilla faults; s0 has no detector bits",
    )
    p_sweep.set_defaults(func=cmd_failure_sweep)

    p_self = sub.add_parser("selftest", help="fast invariant checks")
    p_self.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except IncompleteDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
