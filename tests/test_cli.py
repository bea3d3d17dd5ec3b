"""End-to-end tests of the command line entry points."""

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dcqd import cli, protocol
from dcqd.codes import build_s1


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(argv, **env):
    """``python -m dcqd`` in a child process that imports the package
    under test, with ``env`` added to the environment."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "dcqd", *argv], capture_output=True, text=True, timeout=120, env=env)


def test_table_prints_rows_and_passes(capsys, tmp_path):
    code, out, err = run_cli(["table", "--out", str(tmp_path)], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 16
    assert lines[0] == "II, 000000"
    assert "XX, 000101" in lines
    assert "ZZ, 001010" in lines
    written = (tmp_path / "located_error_table.csv").read_text()
    assert written.splitlines()[0] == "index,operator,syndrome"
    assert "7,XX,000101" in written


def test_table_detects_golden_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_golden_table_text", lambda: "index,operator,syndrome\n")
    code, out, err = run_cli(["table"], capsys)
    assert code == 1
    assert "golden" in err


@pytest.mark.filterwarnings("ignore:clamping severely negative")
def test_characterize_writes_all_outputs(capsys, tmp_path):
    # at 5000 shots the reconstructed map can dip below the severe
    # negativity threshold; the warning is the intended behavior there
    argv = [
        "characterize",
        "--scenario", "s1_noisy",
        "--shots", "5000",
        "--seed", "77",
        "--out", str(tmp_path),
    ]
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    assert "fidelity vs theory" in out
    names = {
        "chi_real.csv",
        "chi_imag.csv",
        "chi_diff_vs_theory.csv",
        "fidelity.json",
        "histograms.json",
        "effective_config.json",
    }
    assert names <= {p.name for p in tmp_path.iterdir()}
    real_text = (tmp_path / "chi_real.csv").read_text()
    assert real_text.startswith("# config=")
    assert "seed=77" in real_text.splitlines()[0]
    assert real_text.splitlines()[1] == "m,n,value"
    fid_doc = json.loads((tmp_path / "fidelity.json").read_text())
    assert fid_doc["seed"] == 77
    assert 0.9 < fid_doc["fidelity"] <= 1.0
    hist_doc = json.loads((tmp_path / "histograms.json").read_text())
    assert len(hist_doc["settings"]) == 31
    cfg_doc = json.loads((tmp_path / "effective_config.json").read_text())
    assert cfg_doc["shots"] == 5000
    assert cfg_doc["scenario"] == "s1_noisy"
    assert cfg_doc["config_hash"] == fid_doc["config"]


def test_characterize_values_round_trip(capsys, tmp_path):
    argv = [
        "characterize",
        "--scenario", "clean",
        "--backend", "exact",
        "--shots", "1",
        "--out", str(tmp_path),
    ]
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    from dcqd.config import ExperimentConfig
    from dcqd.process_matrix import BASIS_LABELS
    from dcqd.protocol import characterize

    chi = characterize(
        ExperimentConfig(
            scenario="clean", gamma=0.4, p=0.1, shots=1, seed=1234, backend="exact"
        )
    ).chi
    rows = {}
    for line in (tmp_path / "chi_real.csv").read_text().splitlines()[2:]:
        m, n, value = line.split(",")
        rows[(m, n)] = float(value)
    # .17g serialization is lossless for doubles: every parsed value must
    # equal the computed entry to the last bit
    for m in range(16):
        for n in range(16):
            assert rows[(BASIS_LABELS[m], BASIS_LABELS[n])] == chi.data[m, n].real


def test_characterize_reruns_are_byte_identical(capsys, tmp_path):
    argv = [
        "characterize",
        "--scenario", "s0_noisy",
        "--shots", "3000",
        "--seed", "5",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(argv + ["--out", str(a)], capsys)[0] == 0
    assert run_cli(argv + ["--out", str(b)], capsys)[0] == 0
    for name in ("chi_real.csv", "chi_imag.csv", "fidelity.json", "histograms.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_invalid_gamma_exits_two(capsys, tmp_path):
    argv = ["characterize", "--gamma", "1.5", "--out", str(tmp_path)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert "configuration error" in err
    assert "gamma" in err


def test_too_few_accepted_shots_exits_one_without_outputs(capsys, tmp_path):
    # one shot per setting leaves some setting with no accepted event
    argv = ["characterize", "--shots", "1", "--out", str(tmp_path / "r")]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert len(err.splitlines()) == 1
    assert err.startswith("error: no accepted events")
    assert not (tmp_path / "r" / "chi_real.csv").exists()


@pytest.mark.parametrize(
    "payload",
    [
        {"gamma": "0.4"},
        {"gamma": None},
        {"shots": "abc"},
        {"shots": 2.7},
        {"seed": True},
        {"scenario": ["x"]},
        {"scenario": {"a": 1}},
        None,
    ],
    ids=[
        "gamma-str",
        "gamma-null",
        "shots-str",
        "shots-fraction",
        "seed-bool",
        "scenario-list",
        "scenario-object",
        "missing-file",
    ],
)
def test_bad_config_file_exits_two(payload, capsys, tmp_path):
    cfg = tmp_path / "settings.json"
    if payload is not None:
        cfg.write_text(json.dumps(payload))
    argv = ["characterize", "--config", str(cfg), "--out", str(tmp_path / "r")]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert "configuration error" in err


@pytest.mark.parametrize("command", ["characterize", "failure-sweep"])
@pytest.mark.parametrize(
    "text",
    ['{"shots": 2000, "shots": 3000}', '{"seed": 5, "seed": 6}'],
    ids=["shots-twice", "seed-twice"],
)
def test_repeated_config_key_exits_two(command, text, capsys, tmp_path):
    # a JSON parser keeps the last of a repeated key, which would run
    # 3000 shots or seed 6 without a word
    cfg = tmp_path / "settings.json"
    cfg.write_text(text)
    code, out, err = run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "r")], capsys)
    assert code == 2
    assert "configuration error" in err and "repeats the keys" in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command", ["characterize", "failure-sweep"])
@pytest.mark.parametrize(
    "flag",
    [["--shots", str(2**63)], ["--seed", str(2**64 + 5)]],
    ids=["shots-2^63", "seed-2^64+5"],
)
def test_out_of_range_shots_and_seed_exit_two(command, flag, capsys, tmp_path):
    # shots past a C long would crash the multinomial draw, and the random
    # streams keep 64 bits of a seed, so 2^64 + 5 would replay seed 5
    code, out, err = run_cli([command, *flag, "--out", str(tmp_path / "r")], capsys)
    assert code == 2
    assert "configuration error" in err and flag[0][2:] in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command", ["characterize", "table", "failure-sweep"])
def test_out_naming_a_file_exits_two_before_running(command, capsys, tmp_path, monkeypatch):
    target = tmp_path / "f"
    target.write_text("kept\n")
    # the directory is resolved before any experiment runs
    monkeypatch.setattr(cli, "characterize", None)
    monkeypatch.setattr(cli, "failure_rate_experiment", None)
    code, out, err = run_cli([command, "--out", str(target)], capsys)
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("configuration error") and str(target) in err
    assert target.read_text() == "kept\n"
    assert [p.name for p in tmp_path.iterdir()] == ["f"]


def test_failure_sweep_zero_point(capsys, tmp_path):
    argv = [
        "failure-sweep",
        "--p-values", "0.0,0.1",
        "--shots", "20000",
        "--seed", "3",
        "--out", str(tmp_path),
    ]
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    assert "coefficients" in out
    lines = (tmp_path / "failure_sweep.csv").read_text().splitlines()
    assert lines[1] == "p,p_identity_syndrome,P_identity,delta_p1,p_00,p_F,analytic_p_F"
    zero_row = lines[2].split(",")
    assert float(zero_row[0]) == 0.0
    assert float(zero_row[5]) == 0.0  # p_F
    assert float(zero_row[6]) == 0.0  # analytic
    p1_row = lines[3].split(",")
    assert abs(float(p1_row[6]) - 0.017025925925925927) < 1e-15


# sha256 of whole output files for
# characterize --scenario <scenario> --backend exact --p 0.1, so that a
# change to the file format shows as well as a change to the values
PINNED_EXACT_FILES = {
    "s1_noisy": {
        "histograms.json": "e1390ed56592d40c24e2f874289f4d7b84794cbe181b0d46b74511f9790fa4a5",
        "fidelity.json": "f430cf0511f725b91be72fb0d9cd105de3db7feb5b5238b5973a03de3a965175",
        "chi_real.csv": "ce9625a4679056e83795c8553d1d3c1ba50e64cb53d9c89d0810f6322d739a82",
        "chi_imag.csv": "e876772c47e680f1ba93a67c879641a46eb3edc5b3685262d6e85641796688e6",
        "chi_diff_vs_theory.csv": "9135a41c282e3853af67d5c7c1516902b2b7f1d5bcc00a94e34680a3bba6a725",
        "effective_config.json": "22337b4ed788d833e7825308f8ba8673ebf4d4fbe7bd5219997829f565f86c1e",
    },
    "s0_noisy": {
        "histograms.json": "44cee6a718db924353022c3e3fb87eb7eaf4c023cc75c40272db490082e7758e",
        "fidelity.json": "bc46c8ca23cb4e4a48c35286613432ff9ff3434bbcdc62b2882bd785db7a9d3d",
        "chi_real.csv": "6d4f676b91acfc9b24534306a6141993bd9255abb12f3e755e91fa438ed3551b",
        "chi_imag.csv": "84e0d451dddb0bee4e5f377f1bc536bd2ccaaf3475364fc13387626279d63694",
        "chi_diff_vs_theory.csv": "bb0d2b9535a6cb664c2a9e021fbaf90f078604fc97e4ee86d7df99608050e32c",
        "effective_config.json": "1a0247e584d7baef520eb996016d4e1b2d5e2c295ccd5506a7deea8e8c8ce277",
    },
}

# sha256 of all six files of characterize --scenario s1_noisy --seed 7
# --shots 200000: the sampled path's headers, indentation and config
# record, which the settings-only pin in test_protocol.py does not see
PINNED_SAMPLED_FILES = {
    "histograms.json": "9b12b6342eac922b2c33eb25886b2761b274ea31e71f5b1485f548f76cff6f36",
    "fidelity.json": "d886af4f93ddca8d84a06afdedf7670747bb23301a2e7fd3e1c8f7573cad00dd",
    "chi_real.csv": "40dcf4cd7f27e1a7c929eaf142a1f1b9271355a8bc9fb58ba4c37a573410c104",
    "chi_imag.csv": "427a06db7314763918371684ca6b2b18f3a86a78a058453aff179085cd89e3a0",
    "chi_diff_vs_theory.csv": "86bf3ca17643f5c44b0537968f52f9c7b6cda50cc645e9bbfb76d0450f3ebda5",
    "effective_config.json": "281dfb6fc94d948b3876eb65707bfbd258071c6b767762913e36f2749179bf59",
}


# settings entries the histograms.json writer must encode exactly as
# json.dumps(indent=2, sort_keys=True) does
WRITER_CASES = {
    "empty counts": [{"setting": "I", "total": 0, "accepted": 0, "counts": {}}],
    "float probabilities": [
        {
            "setting": "PXY",
            "total": 1,
            "accepted": 0.9876543210987654,
            "counts": {"-1|0001": 1 / 3, "+1|0000": 0.1, "+1|1111": 5e-324, "-1|0000": 1e300},
        }
    ],
    "integral floats": [{"setting": "UZI", "total": 2.0, "accepted": 1e16, "counts": {"01": 3.0, "00": -0.0}}],
    "count above 2^53": [
        {"setting": "I", "total": 2**60, "accepted": 2**53 + 1, "counts": {"10": 2**53 + 1, "01": 2**60 - 1}}
    ],
}


@pytest.mark.parametrize("case", [*WRITER_CASES, "all in one document"])
def test_histograms_writer_matches_indented_json_dumps(case):
    settings = WRITER_CASES.get(case) or [doc for docs in WRITER_CASES.values() for doc in docs]
    payload = {"config": "0123abcd", "seed": 7, "settings": settings}
    assert cli._histograms_text(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_histograms_writer_matches_on_histogram_documents():
    from dcqd.protocol import PreprocessingKind, PreprocessingOp, SyndromeHistogram

    projective = PreprocessingOp(PreprocessingKind.COHERENCE_PROJECTIVE, 5)
    hists = [
        SyndromeHistogram(PreprocessingOp(PreprocessingKind.IDENTITY), (0,), [[0.0] * 4], 0.0, 0.0),
        SyndromeHistogram(projective, (1, -1), [[2.0**60, 0.0, 3.0, 0.25], [0.0, 1e-17, 0.0, 7.0]], 2.0**60, 10.25),
    ]
    payload = {"config": "0123abcd", "seed": 0, "settings": [h.to_jsonable() for h in hists]}
    assert payload["settings"][0]["counts"] == {}
    assert payload["settings"][1]["counts"]["+1|00"] == 2**60
    assert cli._histograms_text(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_exact_output_files_are_pinned_byte_for_byte(capsys, tmp_path):
    for scenario, files in PINNED_EXACT_FILES.items():
        out = tmp_path / scenario
        argv = ["characterize", "--scenario", scenario, "--backend", "exact", "--p", "0.1"]
        assert run_cli(argv + ["--out", str(out)], capsys)[0] == 0
        for name, digest in files.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, (scenario, name)


PINNED_SAMPLED_ARGV = ["characterize", "--scenario", "s1_noisy", "--seed", "7", "--shots", "200000"]


def assert_sampled_files_pinned(out):
    assert sorted(p.name for p in out.iterdir()) == sorted(PINNED_SAMPLED_FILES)
    for name, digest in PINNED_SAMPLED_FILES.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_sampled_output_files_are_pinned_byte_for_byte(capsys, tmp_path):
    assert run_cli(PINNED_SAMPLED_ARGV + ["--out", str(tmp_path)], capsys)[0] == 0
    assert_sampled_files_pinned(tmp_path)


def test_sampled_output_files_are_pinned_on_a_kernel_without_fma(tmp_path):
    # OPENBLAS_CORETYPE=Prescott picks an SSE3 kernel without FMA; a
    # sampled run calls BLAS only in the U-setting sandwiches, whose
    # rounding moves no drawn count here, and scores without LAPACK, so
    # all six files keep their bytes
    proc = run_module(PINNED_SAMPLED_ARGV + ["--out", str(tmp_path)], OPENBLAS_CORETYPE="Prescott")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert_sampled_files_pinned(tmp_path)


# sha256 of the failure_sweep.csv data rows (comment and column header
# dropped, rows joined by newlines) for failure-sweep --seed 7 --shots 200000
PINNED_SWEEP_SEED7 = {
    "s1": "b86922b51e6b8856c05ddbf800b2156ca03a734dda107abc9e03d6383ffd760f",
    "s0": "9396336be514ba6344cf39bbcef6828a40e296ae3ff604d920fae722ec2ead26",
}


@pytest.mark.parametrize("label", sorted(PINNED_SWEEP_SEED7))
def test_failure_sweep_stream_is_pinned(label, capsys, tmp_path):
    # any change to the sweep's stream must be deliberate: update this
    # digest together with a CHANGES.md entry naming the rows it moves
    argv = ["failure-sweep", "--code", label, "--seed", "7", "--shots", "200000", "--out", str(tmp_path)]
    assert run_cli(argv, capsys)[0] == 0
    rows = (tmp_path / "failure_sweep.csv").read_text().splitlines()[2:]
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == PINNED_SWEEP_SEED7[label]


def test_failure_sweep_records_and_hashes_only_what_it_uses(capsys, tmp_path):
    docs, headers = [], []
    for grid in ("0.1,0.2", "0.1,0.3"):
        out = tmp_path / grid
        argv = ["failure-sweep", "--p-values", grid, "--shots", "2000", "--seed", "7", "--out", str(out)]
        assert run_cli(argv, capsys)[0] == 0
        docs.append(json.loads((out / "effective_config.json").read_text()))
        headers.append((out / "failure_sweep.csv").read_text().splitlines()[0])
    assert set(docs[0]) == {"code", "p_values", "seed", "shots", "config_hash"}
    assert not {"gamma", "p", "backend"} & set(docs[0])
    assert docs[0]["code"] == "s1" and docs[0]["p_values"] == [0.1, 0.2]
    assert docs[0]["config_hash"] != docs[1]["config_hash"]
    assert headers[0] == f"# config={docs[0]['config_hash']} seed=7"


def test_failure_sweep_code_s0_uses_the_s0_oracle(capsys, tmp_path):
    from dcqd.analysis import failure_oracle
    from dcqd.codes import build_s0, build_s1

    argv = ["failure-sweep", "--p-values", "0.05,0.2", "--shots", "2000", "--seed", "7"]
    assert run_cli(argv + ["--code", "s0", "--out", str(tmp_path / "s0")], capsys)[0] == 0
    assert run_cli(argv + ["--out", str(tmp_path / "s1")], capsys)[0] == 0
    s0_oracle, s1_oracle = failure_oracle(build_s0()), failure_oracle(build_s1())
    for label, oracle in (("s0", s0_oracle), ("s1", s1_oracle)):
        rows = (tmp_path / label / "failure_sweep.csv").read_text().splitlines()[2:]
        for row, p in zip(rows, (0.05, 0.2)):
            assert float(row.split(",")[6]) == oracle.analytic_failure_rate(p)
    # s0 has no detector bits: its failure rate is linear in p, s1's quadratic
    assert s0_oracle.analytic_failure_rate(0.05) > 5 * s1_oracle.analytic_failure_rate(0.05)
    doc = json.loads((tmp_path / "s0" / "effective_config.json").read_text())
    assert doc["code"] == "s0"
    assert doc["config_hash"] != json.loads((tmp_path / "s1" / "effective_config.json").read_text())["config_hash"]


def test_failure_sweep_rejects_bad_grid(capsys):
    code, out, err = run_cli(["failure-sweep", "--p-values", "0.1,zebra"], capsys)
    assert code == 2
    assert "p-values" in err


@pytest.mark.parametrize("bad", ["1.5", "-0.1", "nan"])
def test_failure_sweep_rejects_grid_outside_unit_interval(bad, capsys, tmp_path):
    argv = ["failure-sweep", "--p-values", f"0.1,{bad}", "--shots", "2000", "--out", str(tmp_path)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert "configuration error" in err and "p-values" in err
    assert not (tmp_path / "failure_sweep.csv").exists()


@pytest.mark.parametrize("grid", ["0.1,,0.2", "0.1,0.2,", " ,0.1"])
def test_failure_sweep_rejects_empty_grid_entries(grid, capsys, tmp_path):
    argv = ["failure-sweep", "--p-values", grid, "--shots", "2000", "--out", str(tmp_path)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert "configuration error" in err and "p-values" in err
    assert not (tmp_path / "failure_sweep.csv").exists()


@pytest.mark.parametrize(
    "flag", [["--gamma", "0.5"], ["--p", "0.3"], ["--backend", "exact"], ["--workers", "2"]]
)
def test_failure_sweep_rejects_flags_it_does_not_use(capsys, tmp_path, flag):
    # the sweep draws ancilla noise at --p-values only; "--p" must not be
    # read as an abbreviation of "--p-values" either
    with pytest.raises(SystemExit) as info:
        cli.main(["failure-sweep", *flag, "--out", str(tmp_path)])
    assert info.value.code == 2
    assert not (tmp_path / "failure_sweep.csv").exists()


def test_failure_sweep_rejects_config_keys_it_does_not_use(capsys, tmp_path):
    cfg = tmp_path / "settings.json"
    cfg.write_text(json.dumps({"gamma": 0.9, "p": 0.3, "backend": "exact", "shots": 1000}))
    argv = ["failure-sweep", "--config", str(cfg), "--out", str(tmp_path / "r")]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert "configuration error" in err
    assert "gamma" in err and "backend" in err
    cfg.write_text(json.dumps({"shots": 1000, "seed": 4}))
    assert run_cli(argv, capsys)[0] == 0


def test_config_file_with_cli_override(capsys, tmp_path):
    from dcqd.config import DEFAULTS

    cfg = tmp_path / "settings.json"
    cfg.write_text(json.dumps({"scenario": "s0_noisy", "shots": 4000, "seed": 9}))
    argv = [
        "characterize",
        "--config", str(cfg),
        "--shots", "2000",
        "--out", str(tmp_path / "r"),
    ]
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    doc = json.loads((tmp_path / "r" / "effective_config.json").read_text())
    assert doc["scenario"] == "s0_noisy"  # from file
    assert doc["shots"] == 2000  # CLI wins
    assert doc["seed"] == 9  # file beats defaults
    assert doc["gamma"] == DEFAULTS["gamma"]  # an absent flag leaves the default


def test_unknown_config_keys_exit_two(capsys, tmp_path):
    # sampling runs single-threaded; there is no worker count to set
    for key, value in (("shotz", 10), ("workers", 4), ("volume", 11)):
        cfg = tmp_path / f"{key}.json"
        cfg.write_text(json.dumps({key: value}))
        argv = ["characterize", "--config", str(cfg), "--out", str(tmp_path / "r")]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("configuration error:") and key in err
        assert not (tmp_path / "r").exists()
    with pytest.raises(SystemExit) as info:
        cli.main(["characterize", "--verbosity", "3", "--out", str(tmp_path / "r")])
    assert info.value.code == 2


@pytest.mark.parametrize("scenario", ["clean", "s1_clean"])
@pytest.mark.parametrize("via", ["flag", "file"])
def test_clean_scenarios_reject_p(scenario, via, capsys, tmp_path):
    # these scenarios draw no ancilla noise, so a given p would be ignored
    argv = ["characterize", "--backend", "exact", "--out", str(tmp_path / "r")]
    if via == "flag":
        argv += ["--scenario", scenario, "--p", "0.3"]
    else:
        cfg = tmp_path / "settings.json"
        cfg.write_text(json.dumps({"scenario": scenario, "p": 0.3}))
        argv += ["--config", str(cfg)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("configuration error:")
    assert not (tmp_path / "r").exists()


@pytest.mark.filterwarnings("ignore:clamping severely negative")
@pytest.mark.parametrize(
    "flags",
    [
        ["--scenario", "s0_noisy", "--shots", "2000", "--seed", "5"],
        ["--scenario", "clean", "--backend", "exact"],
    ],
    ids=["s0_noisy-sampling", "clean-exact"],
)
def test_effective_config_replays_byte_for_byte(flags, capsys, tmp_path):
    first, replay = tmp_path / "first", tmp_path / "replay"
    assert run_cli(["characterize", *flags, "--out", str(first)], capsys)[0] == 0
    record = first / "effective_config.json"
    argv = ["characterize", "--config", str(record), "--out", str(replay)]
    assert run_cli(argv, capsys)[0] == 0
    names = sorted(f.name for f in first.iterdir())
    assert names == sorted(f.name for f in replay.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (replay / name).read_bytes(), name

    doc = json.loads(record.read_text())
    altered = "0" if doc["config_hash"][0] != "0" else "1"
    doc["config_hash"] = altered + doc["config_hash"][1:]
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(doc))
    argv = ["characterize", "--config", str(forged), "--out", str(tmp_path / "r")]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("configuration error:")
    assert not (tmp_path / "r").exists()


def test_replayed_clean_record_still_rejects_a_p_flag(capsys, tmp_path):
    argv = ["characterize", "--scenario", "clean", "--backend", "exact", "--out", str(tmp_path / "first")]
    assert run_cli(argv, capsys)[0] == 0
    record = tmp_path / "first" / "effective_config.json"
    argv = ["characterize", "--config", str(record), "--p", "0.1", "--out", str(tmp_path / "r")]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("configuration error:") and "p does not apply" in err
    assert not (tmp_path / "r").exists()


def test_failure_sweep_record_does_not_replay(capsys, tmp_path):
    # the sweep records its flags (code, p_values), not config keys
    argv = ["failure-sweep", "--shots", "2000", "--out", str(tmp_path / "first")]
    assert run_cli(argv, capsys)[0] == 0
    record = tmp_path / "first" / "effective_config.json"
    code, out, err = run_cli(["failure-sweep", "--config", str(record), "--out", str(tmp_path / "r")], capsys)
    assert code == 2
    assert err.startswith("configuration error:") and "config_hash" in err


def test_selftest_passes(capsys):
    code, out, err = run_cli(["selftest"], capsys)
    assert code == 0
    assert "ok" in out
    # the slope check shows its numbers next to each code's leading weight
    for scenario, weight in (("s0_noisy", 1), ("s1_noisy", 2)):
        line = next(l for l in out.splitlines() if l.strip().startswith(f"{scenario}:"))
        assert f"leading failure weight {weight}," in line
        slopes = [float(v) for v in re.findall(r"\d+\.\d{3}", line)]
        assert len(slopes) == 2 and all(abs(s - weight) < 0.15 for s in slopes)


def test_slope_check_fails_an_s1_without_detectors(monkeypatch):
    # with no detector generators s1 filters nothing: its oracle's leading
    # weight is 1 and its slopes read 0.954 and 0.982, which a check
    # against the oracle's own weight would pass
    bare = dataclasses.replace(build_s1(), detection_prefix=0)
    for module in (cli, protocol):
        monkeypatch.setattr(module, "build_s1", lambda: bare)
    report = []
    check = dict(cli._selftest_checks(report))["chi error slope vs leading failure weight"]
    problem = check()
    assert problem is not None and problem.startswith("s1_noisy:")
    assert "leading failure weight 1," in report[-1]


def test_module_entry_point():
    proc = run_module(["table"])
    assert proc.returncode == 0
    assert "II, 000000" in proc.stdout


def test_selftest_passes_on_a_kernel_without_fma():
    # OPENBLAS_CORETYPE=Prescott picks an SSE3 kernel, which any x86-64
    # host has; the exact pins hold only under AVX-512 kernels, but the
    # shipped self-check must not depend on them
    proc = run_module(["selftest"], OPENBLAS_CORETYPE="Prescott")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("ok: ") == 8
