"""Unit tests for the measurement settings, sampling, and chi estimators."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dcqd.protocol as protocol
from dcqd.analysis import failure_oracle
from dcqd.channels import (
    amplitude_damping,
    apply as apply_channel,
    channel_from_spec,
    identity_channel,
    pauli_unitary_channel,
    theoretical_chi_ad,
)
from dcqd.codes import build_s0, build_s1, located_error_table
from dcqd.config import ExperimentConfig
from dcqd.pauli import single_site
from dcqd.process_matrix import BASIS_INDEX
from dcqd.protocol import (
    IncompleteDataError,
    PreprocessingKind,
    PreprocessingOp,
    characterize,
    estimate_offdiagonal,
    prepare_probe,
    resolve_scenario,
    run_setting,
    setting_distribution,
    standard_settings,
    syndrome_basis,
)
from dcqd.rng import sample_counts
from oracles import (
    ancilla_syndrome_words,
    dense_syndrome_probs,
    loop_chi_estimate,
    preprocessing_unitary,
    run_shot,
    shot_stream,
    to_matrix,
)


def make_config(**overrides):
    base = dict(
        scenario="s1_noisy",
        gamma=0.4,
        p=0.1,
        shots=20_000,
        seed=1234,
        backend="sampling",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_standard_settings_labels_and_keys():
    ops = standard_settings()
    assert len(ops) == 31
    labels = [op.label for op in ops]
    assert len(set(labels)) == 31
    assert labels[0] == "I"
    assert labels[1] == "UXI" and labels[15] == "UZZ"
    assert labels[16] == "PXI" and labels[30] == "PZZ"
    keys = [op.setting_key for op in ops]
    assert keys == list(range(0, 16)) + list(range(17, 32))
    assert len(set(keys)) == 31


def test_preprocessing_op_validation():
    with pytest.raises(ValueError):
        PreprocessingOp(PreprocessingKind.IDENTITY, 3)
    with pytest.raises(ValueError):
        PreprocessingOp(PreprocessingKind.COHERENCE_UNITARY, 0)
    with pytest.raises(ValueError):
        PreprocessingOp(PreprocessingKind.COHERENCE_PROJECTIVE, 16)


def test_preprocessing_unitary_is_unitary():
    for code in (build_s0(), build_s1()):
        dim = 2 ** code.n
        for j in (1, 5, 10, 15):
            u = preprocessing_unitary(code, j)
            assert np.allclose(u @ u.conj().T, np.eye(dim), atol=1e-12)
            # (1 + iF)/sqrt(2) squares to iF
            f = to_matrix(located_error_table(code)[j][1])
            assert np.allclose(u @ u, 1j * f, atol=1e-12)


def test_syndrome_basis_orthonormal_complete():
    for code in (build_s0(), build_s1()):
        w = syndrome_basis(code)
        dim = 2 ** code.n
        assert w.shape == (dim, dim)
        assert np.allclose(w.conj() @ w.T, np.eye(dim), atol=1e-10)


@pytest.mark.parametrize("build, width", [(build_s0, 4), (build_s1, 8)], ids=["s0", "s1"])
def test_syndrome_frame_gathers_each_rows_nonzero_block(build, width):
    code = build()
    basis = syndrome_basis(code)
    index, left, right = protocol._syndrome_frame(code)
    assert index.shape == left.shape == right.shape == (width * width, len(basis))
    for s, row in enumerate(basis):
        terms = np.outer(row.conj(), row).reshape(-1)
        # the gathered terms are exactly the row's nonzero ones, row-major
        assert np.count_nonzero(row) == width
        assert np.array_equal(np.flatnonzero(terms), index[:, s])
        assert np.array_equal(left[:, s] * right[:, s], terms[index[:, s]])
    # all-zero sums come out +0.0, as the dense einsum's do
    zero = -np.zeros((len(basis), len(basis)), dtype=np.complex128)
    assert protocol._syndrome_probs(zero, code).tobytes() == dense_syndrome_probs(zero, code).tobytes()


def test_syndrome_sums_add_each_rows_terms_one_after_another():
    code = build_s1()
    rng = np.random.default_rng(5)
    dim = 2 ** code.n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    matrix = a @ a.conj().T
    index, left, right = protocol._syndrome_frame(code)
    # row 3's block (and so every row of its support coset) all -0.0
    matrix.reshape(-1)[index[:, 3]] = complex(-0.0, -0.0)
    terms = (left * matrix.reshape(-1)[index]) * right
    want = []
    for column in terms.T.tolist():
        total = 0j
        for term in column:
            total = total + term
        want.append(total.real)
    want = np.array(want)
    got = protocol._syndrome_probs(matrix, code)
    zero = want == 0.0
    assert zero[3] and got[zero].tobytes() == np.zeros(np.count_nonzero(zero)).tobytes()
    assert got[~zero].tobytes() == want[~zero].tobytes()


# I and P settings of s1_noisy: setting_distribution against the dense
# products of tests/oracles.py, in a child process on one BLAS kernel
DENSE_COMPARISON = """
from dcqd.channels import apply
from dcqd.config import ExperimentConfig
from dcqd.protocol import prepare_probe, resolve_scenario, setting_distribution, standard_settings
from oracles import dense_setting_distribution
code, channel = resolve_scenario(ExperimentConfig(scenario="s1_noisy", gamma=0.4, p=0.1))
rho = apply(channel, prepare_probe(code))
ops = standard_settings()
print([
    op.label for op in (ops[0],) + ops[16:]
    if setting_distribution(rho, op, code)[1].tobytes()
    != dense_setting_distribution(rho, op, code)[1].tobytes()
])
"""


def test_projective_settings_match_a_kernel_without_fma_bit_for_bit():
    # OPENBLAS_CORETYPE=Prescott picks an SSE3 kernel, which has no FMA
    # and rounds the U settings' dense products differently from AVX-512
    # kernels; the I and P settings make no BLAS call and still agree
    # with that kernel's dense products to the bit
    src = Path(protocol.__file__).resolve().parents[1]
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott", PYTHONPATH=f"{src}{os.pathsep}{tests}")
    proc = subprocess.run(
        [sys.executable, "-c", DENSE_COMPARISON], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_setting_distributions_sum_to_one():
    code = build_s1()
    chan = channel_from_spec(
        [{"type": "amplitude_damping", "site": 1, "parameter": 0.4}]
        + [{"type": "depolarizing", "site": s, "parameter": 0.1} for s in (3, 4, 5, 6)],
        n=6,
    )
    rho = apply_channel(chan, prepare_probe(code))
    for op in standard_settings():
        outcomes, probs = setting_distribution(rho, op, code)
        assert probs.shape[0] == len(outcomes)
        assert probs.min() >= 0.0
        assert abs(probs.sum() - 1.0) < 1e-10


def _exact_distributions(scenario: str, gamma: float, p: float = 0.0):
    """The code and all 31 exact setting distributions of a scenario,
    their rows stacked in standard_settings() order."""
    code, channel = resolve_scenario(ExperimentConfig(scenario=scenario, gamma=gamma, p=p))
    rho = apply_channel(channel, prepare_probe(code))
    return code, np.concatenate([setting_distribution(rho, op, code)[1] for op in standard_settings()])


def ancilla_syndrome_law(code, p: float) -> np.ndarray:
    """q[e]: the probability that depolarizing p on every ancilla site
    leaves syndrome e, by XOR of the single-letter words site by site."""
    q = np.zeros(2 ** code.r)
    q[0] = 1.0
    syndromes = np.arange(2 ** code.r)
    for words in ancilla_syndrome_words(code):
        step = (1.0 - p) * q
        for word in words:
            step[syndromes ^ word] += (p / 3.0) * q
        q = step
    return q


@pytest.mark.parametrize("gamma", [0.0, 0.4, 1.0])
def test_ancilla_noise_xor_convolves_the_clean_syndromes(gamma):
    # depolarized ancillas are a mixture of Paulis E on sites that no
    # setting touches, and E moves syndrome row s to s ^ syn(E): so each
    # noisy distribution is the clean one XOR-convolved with q, and with
    # clean ancillas s1 records at its located syndromes what s0 records
    # at its own.  The two sides round differently; each probability is a
    # sum of at most 64 rounded terms no larger than 1 (measured gaps up
    # to 1.0e-15 and 3.9e-16).  1e-14 is ten times that, and far below
    # the share of clean mass a misplaced weight-1 syndrome would move,
    # (p/3)(1 - p)^(a - 1) >= 1.6e-3 at p = 0.005.
    tol = 1e-14
    for noisy_scenario, clean_scenario in (("s0_noisy", "clean"), ("s1_noisy", "s1_clean")):
        code, clean = _exact_distributions(clean_scenario, gamma)
        flips = np.arange(2 ** code.r)[:, None] ^ np.arange(2 ** code.r)
        for p in (0.005, 0.1, 0.5):
            _, noisy = _exact_distributions(noisy_scenario, gamma, p)
            assert np.abs(noisy - clean[:, flips] @ ancilla_syndrome_law(code, p)).max() < tol
    s0, clean_s0 = _exact_distributions("clean", gamma)
    s1, clean_s1 = _exact_distributions("s1_clean", gamma)
    relabelled = np.zeros_like(clean_s1)
    relabelled[:, [s for _, _, s in located_error_table(s1)]] = clean_s0[:, [s for _, _, s in located_error_table(s0)]]
    assert np.abs(clean_s1 - relabelled).max() < tol


def test_noiseless_run_gives_trivial_syndrome():
    code = build_s1()
    rho = prepare_probe(code)
    _, probs = setting_distribution(rho, PreprocessingOp(PreprocessingKind.IDENTITY), code)
    assert abs(probs[0, 0] - 1.0) < 1e-12
    assert probs[0, 1:].max() < 1e-12


def test_known_error_lands_on_its_table_syndrome():
    code = build_s1()
    chan = pauli_unitary_channel(single_site(6, 1, "X"))
    rho = apply_channel(chan, prepare_probe(code))
    _, probs = setting_distribution(rho, PreprocessingOp(PreprocessingKind.IDENTITY), code)
    assert abs(probs[0, 0b000100] - 1.0) < 1e-12


def test_ancilla_error_never_accepted():
    code = build_s1()
    chan = pauli_unitary_channel(single_site(6, 3, "X"))
    rho = apply_channel(chan, prepare_probe(code))
    for op in standard_settings():
        _, probs = setting_distribution(rho, op, code)
        flat = probs.reshape(len(probs), -1)
        prefix_clean = flat[:, : 2 ** (code.r - code.detection_prefix)].sum()
        assert prefix_clean < 1e-12


def accepts(code, syndrome: str) -> bool:
    counts = np.zeros((1, 2 ** code.r))
    counts[0, int(syndrome, 2)] = 1.0
    return protocol._accepted_mass(counts, code) == 1.0


def test_filter_accept_rules():
    s1 = build_s1()
    assert accepts(s1, "000000")
    assert accepts(s1, "000111")
    assert not accepts(s1, "010100")
    assert not accepts(s1, "100000")
    s0 = build_s0()
    # no detection prefix: every syndrome is accepted
    for v in (0, 3, 9, 15):
        assert accepts(s0, format(v, "04b"))


def test_run_shot_matches_distribution():
    code = build_s0()
    chan = amplitude_damping(0.4, 1, 4)
    probe = prepare_probe(code)
    op = PreprocessingOp(PreprocessingKind.COHERENCE_PROJECTIVE, BASIS_INDEX["XX"])
    rho = apply_channel(chan, probe)
    outcomes, probs = setting_distribution(rho, op, code)
    shots = 4000
    counts = np.zeros_like(probs)
    for k in range(shots):
        rec = run_shot(probe, chan, op, code, shot_stream(777, op.setting_key, k))
        row = outcomes.index(rec.projective_outcome)
        counts[row, rec.syndrome] += 1
    freq = counts / shots
    sigma = np.sqrt(np.clip(probs * (1 - probs), 1e-12, None) / shots)
    assert np.all(np.abs(freq - probs) < 4 * sigma + 5e-3)


def test_exact_backend_diagonal_frozen():
    # s1 under damping alone
    config = make_config(scenario="s1_clean", gamma=0.4, backend="exact", shots=1)
    diag = characterize(config).chi.data.diagonal().real
    expected = np.zeros(16)
    expected[BASIS_INDEX["II"]] = 0.787298334620742
    expected[BASIS_INDEX["XI"]] = 0.1
    expected[BASIS_INDEX["YI"]] = 0.1
    expected[BASIS_INDEX["ZI"]] = 0.012701665379258
    assert np.allclose(diag, expected, atol=1e-12)


def test_sampled_diagonal_sums_to_one():
    # s1 under damping and depolarizing on ancilla sites 3..6
    config = make_config(scenario="s1_noisy", gamma=0.4, p=0.1, shots=50_000, seed=99)
    result = characterize(config)
    hist = result.histograms[0]
    diag = result.chi.data.diagonal().real
    assert hist.accepted < hist.total  # the filter is actually rejecting
    assert abs(diag.sum() - 1.0) < 1e-12


def test_estimate_offdiagonal_requires_standard_settings_order():
    code = build_s1()
    chan = amplitude_damping(0.4, 1, 6)
    hists = tuple(run_setting(code, chan, op, 0, 0, "exact") for op in standard_settings())
    swapped = hists[:1] + hists[2:3] + hists[1:2] + hists[3:]
    for bad in (hists[:30], swapped):
        with pytest.raises(ValueError, match="standard_settings") as info:
            estimate_offdiagonal(bad, code)
        assert not isinstance(info.value, IncompleteDataError)


@pytest.mark.parametrize("backend, shots", [("exact", 1), ("sampling", 20_000)], ids=["exact", "sampling"])
@pytest.mark.parametrize("scenario", ["s0_noisy", "s1_noisy"])
def test_estimate_offdiagonal_matches_loop_reference(scenario, backend, shots):
    config = make_config(scenario=scenario, backend=backend, shots=shots)
    result = characterize(config)
    code, _ = resolve_scenario(config)
    assert result.chi.data.tobytes() == loop_chi_estimate(result.histograms, code).tobytes()


def test_exact_reconstruction_matches_theory():
    for gamma in (0.1, 0.9):
        config = make_config(scenario="s1_clean", gamma=gamma, backend="exact", shots=1)
        result = characterize(config)
        theory = theoretical_chi_ad(gamma)
        assert np.max(np.abs(result.chi.data - theory.data)) < 1e-10


def test_pauli_channel_on_probe_gives_diagonal_chi():
    # depolarizing acts as a random Pauli with real mixture weights, so
    # its chi in the Pauli basis is diagonal; the estimator must see that
    config = make_config(scenario="s1_clean", gamma=0.0, backend="exact", shots=1)
    code, _ = resolve_scenario(config)
    chan = channel_from_spec([{"type": "depolarizing", "site": 1, "parameter": 0.3}], n=6)
    rho_e = apply_channel(chan, prepare_probe(code))
    hists = tuple(
        run_setting(code, chan, op, 0, 0, "exact", rho_after_channel=rho_e)
        for op in standard_settings()
    )
    chi = estimate_offdiagonal(hists, code)
    diag = chi.data.diagonal().real
    off = chi.data - np.diag(diag)
    assert np.max(np.abs(off)) < 1e-10
    expected = np.zeros(16)
    expected[BASIS_INDEX["II"]] = 0.7
    for lab in ("XI", "YI", "ZI"):
        expected[BASIS_INDEX[lab]] = 0.1
    assert np.allclose(diag, expected, atol=1e-10)


def test_sampling_reproducible_and_worker_invariant():
    # counts are a pure function of (seed, setting, shots): each setting
    # draws from its own stream, not from shared state
    config = make_config(shots=30_000)
    code, chan = resolve_scenario(config)
    op = PreprocessingOp(PreprocessingKind.COHERENCE_UNITARY, 5)
    h1 = run_setting(code, chan, op, config.shots, config.seed, "sampling")
    run_setting(code, chan, PreprocessingOp(PreprocessingKind.IDENTITY), 1000, config.seed, "sampling")
    h1b = run_setting(code, chan, op, config.shots, config.seed, "sampling")
    assert np.array_equal(h1.counts, h1b.counts)
    other_seed = run_setting(code, chan, op, config.shots, config.seed + 1, "sampling")
    assert not np.array_equal(h1.counts, other_seed.counts)


def _scenario_distribution(scenario: str, label: str) -> np.ndarray:
    """Flat outcome distribution of one setting of a scenario."""
    code, chan = resolve_scenario(make_config(scenario=scenario))
    op = next(op for op in standard_settings() if op.label == label)
    _, probs = setting_distribution(apply_channel(chan, prepare_probe(code)), op, code)
    return probs.reshape(-1)


@pytest.mark.parametrize("shots", [1, 65_537, 1_000_000])
def test_sample_flat_counts_sum_to_shots(shots):
    flat = _scenario_distribution("s1_noisy", "PXI")
    counts = sample_counts(flat, shots, 7, 17)
    assert counts.dtype == np.int64
    assert counts.shape == flat.shape
    assert counts.sum() == shots


@pytest.mark.parametrize("shots", [1_000_000, 10**18])
def test_sample_flat_never_draws_zero_probability_bins(shots):
    # s1_clean UZX ends in zero-probability bins; a plain multinomial hands
    # the last bin whatever rounding leaves over, which at 1e18 shots is
    # about a hundred shots on an impossible outcome
    flat = _scenario_distribution("s1_clean", "UZX")
    zero = flat == 0.0
    assert zero[-1] and zero.sum() > 0
    counts = sample_counts(flat, shots, 7, 13)
    assert np.all(counts[zero] == 0)
    assert counts.sum() == shots
    # the failure sweep's four classes: at p=0 only "no error" has mass
    # (the last bin, impostor, is zero), at p=1 "no error" has none, and
    # s0 has no detected class at any p
    for build in (build_s0, build_s1):
        oracle = failure_oracle(build())
        for p in (0.0, 1.0):
            probs = oracle.class_probabilities(p)
            zero = probs == 0.0
            assert zero.any()
            counts = sample_counts(probs, shots, 7, 13)
            assert np.all(counts[zero] == 0)
            assert counts.sum() == shots


def test_sample_flat_fits_distribution():
    # Pearson chi-square over the bins with mass; the 1e-6 upper tail of
    # chi-square with df degrees of freedom by the Wilson-Hilferty form
    # (z = 4.7534 is the standard normal 1e-6 quantile)
    flat = _scenario_distribution("s1_noisy", "PXI")
    shots = 1_000_000
    counts = sample_counts(flat, shots, 7, 17)
    live = flat > 0.0
    expected = shots * flat[live] / flat.sum()
    stat = float(np.sum((counts[live] - expected) ** 2 / expected))
    df = int(live.sum()) - 1
    h = 2.0 / (9.0 * df)
    threshold = df * (1.0 - h + 4.753424308822899 * np.sqrt(h)) ** 3
    assert df > 100
    assert stat < threshold


# sha256 of histograms.json "settings" for
# characterize --scenario s1_noisy --seed 7 --shots 200000
PINNED_S1_NOISY_SEED7 = "261207346376d17eaabfe5c105a12d243b480c895334af1c1fe1a44668a2464b"


def test_sampled_stream_is_pinned(tmp_path):
    # any change to the sampled stream must be deliberate: update this
    # digest together with a CHANGES.md entry naming the outputs it moves
    from dcqd import cli

    argv = ["characterize", "--scenario", "s1_noisy", "--seed", "7", "--shots", "200000"]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    settings = json.loads((tmp_path / "histograms.json").read_text())["settings"]
    canonical = json.dumps(settings, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == PINNED_S1_NOISY_SEED7


# sha256 of the chi CSV data rows (comment lines dropped) and of
# histograms.json "settings" for characterize --backend exact --gamma 0.4
# --p 0.1, hashed as perfbench/run.py data_rows_digest does; the same
# values as perfbench/digests.json
PINNED_EXACT_P01 = {
    "s0_noisy": "fcc95ea86eb8afcba88b0c46e7b135051447e90d65b7bb11af9ca94446f8744d",
    "s1_noisy": "943a6b109f28fd56363b9fe863f70bd85fb71df57070f60761d92b7eb5c68cee",
}


@pytest.mark.parametrize("scenario", sorted(PINNED_EXACT_P01))
def test_exact_backend_is_pinned(scenario, tmp_path):
    # the exact backend is the bit-level regression oracle: no change to
    # the channel or the distributions may move a single output bit
    from dcqd import cli

    argv = ["characterize", "--scenario", scenario, "--gamma", "0.4", "--p", "0.1"]
    assert cli.main(argv + ["--seed", "1", "--backend", "exact", "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256()
    for name in ("chi_real.csv", "chi_imag.csv"):
        text = (tmp_path / name).read_text()
        digest.update("\n".join(l for l in text.splitlines() if not l.startswith("#")).encode())
    settings = json.loads((tmp_path / "histograms.json").read_text())["settings"]
    digest.update(json.dumps(settings, sort_keys=True).encode())
    assert digest.hexdigest() == PINNED_EXACT_P01[scenario]


def test_s1_scenario_rejects_some_shots():
    config = make_config(shots=10_000, scenario="s1_noisy")
    result = characterize(config)
    fractions = [h.accepted / h.total for h in result.histograms]
    assert all(v < 1.0 for v in fractions)
    assert all(v > 0.5 for v in fractions)


def test_resolve_scenario_channels():
    # a composed label reads outer*inner, the last step applied first
    damping = "AD(gamma=0.4, site=1)*id"
    want = {
        "clean": ("s0", damping),
        "s0_noisy": ("s0", "DP(p=0.1, site=4)*DP(p=0.1, site=3)*" + damping),
        "s1_noisy": (
            "s1",
            "DP(p=0.1, site=6)*DP(p=0.1, site=5)*DP(p=0.1, site=4)*DP(p=0.1, site=3)*" + damping,
        ),
        "s1_clean": ("s1", damping),
    }
    for scenario, (label, channel_label) in want.items():
        code, chan = resolve_scenario(make_config(scenario=scenario))
        assert (code.label, chan.label) == (label, channel_label)
    from dcqd.config import ConfigError

    with pytest.raises(ConfigError):
        resolve_scenario(make_config(scenario="failure_sweep"))


def test_unknown_backend_rejected():
    code = build_s0()
    with pytest.raises(Exception):
        run_setting(code, identity_channel(4), PreprocessingOp(PreprocessingKind.IDENTITY), 10, 0, "magic")
