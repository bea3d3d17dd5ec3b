"""Unit tests for the measurement settings, sampling, and chi estimators."""

import hashlib
import json

import numpy as np
import pytest

import dcqd.protocol as protocol
from dcqd.channels import (
    amplitude_damping,
    apply as apply_channel,
    channel_from_spec,
    identity_channel,
    pauli_unitary_channel,
    theoretical_chi_ad,
)
from dcqd.codes import Syndrome, build_s0, build_s1
from dcqd.config import ExperimentConfig
from dcqd.pauli import single_site
from dcqd.process_matrix import BASIS_INDEX, BASIS_LABELS
from dcqd.protocol import (
    IncompleteDataError,
    PreprocessingKind,
    PreprocessingOp,
    characterize,
    estimate_diagonal,
    estimate_offdiagonal,
    located_embedded,
    partial_characterize,
    prepare_probe,
    preprocessing_unitary,
    resolve_scenario,
    run_setting,
    setting_distribution,
    standard_settings,
    syndrome_basis,
)
from oracles import run_shot, shot_stream


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
            f = protocol._located_matrices_embedded(code)[j]
            assert np.allclose(u @ u, 1j * f, atol=1e-12)


def test_syndrome_basis_orthonormal_complete():
    for code in (build_s0(), build_s1()):
        w = syndrome_basis(code)
        dim = 2 ** code.n
        assert w.shape == (dim, dim)
        assert np.allclose(w.conj() @ w.T, np.eye(dim), atol=1e-10)


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
    counts[0, Syndrome.from_string(syndrome).to_int()] = 1.0
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
        assert accepts(s0, str(Syndrome.from_int(v, 4)))


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
        counts[row, rec.syndrome.to_int()] += 1
    freq = counts / shots
    sigma = np.sqrt(np.clip(probs * (1 - probs), 1e-12, None) / shots)
    assert np.all(np.abs(freq - probs) < 4 * sigma + 5e-3)


def test_exact_backend_diagonal_frozen():
    code = build_s1()
    chan = amplitude_damping(0.4, 1, 6)
    op = PreprocessingOp(PreprocessingKind.IDENTITY)
    hist = run_setting(code, chan, op, shots=0, seed=0, backend="exact")
    diag = estimate_diagonal(hist, code)
    expected = np.zeros(16)
    expected[BASIS_INDEX["II"]] = 0.787298334620742
    expected[BASIS_INDEX["XI"]] = 0.1
    expected[BASIS_INDEX["YI"]] = 0.1
    expected[BASIS_INDEX["ZI"]] = 0.012701665379258
    assert np.allclose(diag, expected, atol=1e-12)


def test_sampled_diagonal_sums_to_one():
    code = build_s1()
    chan = channel_from_spec(
        [{"type": "amplitude_damping", "site": 1, "parameter": 0.4}]
        + [{"type": "depolarizing", "site": s, "parameter": 0.1} for s in (3, 4, 5, 6)],
        n=6,
    )
    op = PreprocessingOp(PreprocessingKind.IDENTITY)
    hist = run_setting(code, chan, op, shots=50_000, seed=99, backend="sampling")
    diag = estimate_diagonal(hist, code)
    assert hist.accepted < hist.total  # the filter is actually rejecting
    assert abs(diag.sum() - 1.0) < 1e-12


def test_estimate_offdiagonal_reports_missing_settings():
    code = build_s1()
    chan = amplitude_damping(0.4, 1, 6)
    h_identity = run_setting(code, chan, PreprocessingOp(PreprocessingKind.IDENTITY), 0, 0, "exact")
    h_unitary = {
        j: run_setting(code, chan, PreprocessingOp(PreprocessingKind.COHERENCE_UNITARY, j), 0, 0, "exact")
        for j in range(1, 15)
    }
    h_projective = {
        j: run_setting(code, chan, PreprocessingOp(PreprocessingKind.COHERENCE_PROJECTIVE, j), 0, 0, "exact")
        for j in range(1, 16)
    }
    with pytest.raises(IncompleteDataError) as info:
        estimate_offdiagonal(h_identity, h_unitary, h_projective, code)
    assert "UZZ" in str(info.value)


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
    h_unitary = {}
    h_projective = {}
    for op in standard_settings():
        hist = run_setting(code, chan, op, 0, 0, "exact", rho_after_channel=rho_e)
        if op.kind is PreprocessingKind.IDENTITY:
            h_identity = hist
        elif op.kind is PreprocessingKind.COHERENCE_UNITARY:
            h_unitary[op.f_index] = hist
        else:
            h_projective[op.f_index] = hist
    chi = estimate_offdiagonal(h_identity, h_unitary, h_projective, code)
    off = chi.data - np.diag(chi.diagonal)
    assert np.max(np.abs(off)) < 1e-10
    expected = np.zeros(16)
    expected[BASIS_INDEX["II"]] = 0.7
    for lab in ("XI", "YI", "ZI"):
        expected[BASIS_INDEX[lab]] = 0.1
    assert np.allclose(chi.diagonal, expected, atol=1e-10)


def test_partial_matches_full_on_exact_backend():
    config = make_config(scenario="s1_noisy", backend="exact", shots=1)
    full = characterize(config).chi
    elements = [(0, 0), (3, 3), (0, 3), (1, 2), (7, 11)]
    partial = partial_characterize(config, elements)
    for m, n in elements:
        assert partial[(m, n)] == full.entry(m, n)


def test_partial_diagonal_runs_single_setting(monkeypatch):
    calls = []
    original = protocol.run_setting

    def counting(*args, **kwargs):
        op = kwargs.get("op") if "op" in kwargs else args[2]
        calls.append(op.label)
        return original(*args, **kwargs)

    monkeypatch.setattr(protocol, "run_setting", counting)
    config = make_config(backend="exact", shots=1)
    out = partial_characterize(config, [(0, 0), (5, 5)])
    assert calls == ["I"]
    assert set(out) == {(0, 0), (5, 5)}
    calls.clear()
    partial_characterize(config, [(0, 3)])
    assert sorted(calls) == ["I", "PZI", "UZI"]


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
    counts = protocol._sample_flat(flat, shots, 7, 17)
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
    counts = protocol._sample_flat(flat, shots, 7, 13)
    assert np.all(counts[zero] == 0)
    assert counts.sum() == shots


def test_sample_flat_fits_distribution():
    # Pearson chi-square over the bins with mass; the 1e-6 upper tail of
    # chi-square with df degrees of freedom by the Wilson-Hilferty form
    # (z = 4.7534 is the standard normal 1e-6 quantile)
    flat = _scenario_distribution("s1_noisy", "PXI")
    shots = 1_000_000
    counts = protocol._sample_flat(flat, shots, 7, 17)
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


def test_histogram_bookkeeping():
    config = make_config(shots=10_000, scenario="s0_noisy")
    result = characterize(config)
    assert len(result.histograms) == 31
    assert set(result.accepted_fraction) == {op.label for op in standard_settings()}
    # the probe code has no detection prefix, so nothing is rejected
    assert all(abs(v - 1.0) < 1e-12 for v in result.accepted_fraction.values())
    hist = result.histogram("I")
    assert hist.total == 10_000
    doc = hist.to_jsonable()
    assert doc["setting"] == "I"
    assert doc["total"] == 10_000


def test_s1_scenario_rejects_some_shots():
    config = make_config(shots=10_000, scenario="s1_noisy")
    result = characterize(config)
    fractions = result.accepted_fraction
    assert all(v < 1.0 for v in fractions.values())
    assert all(v > 0.5 for v in fractions.values())


def test_resolve_scenario_channels():
    code, chan = resolve_scenario(make_config(scenario="clean"))
    assert code.label == "s0" and chan.support == frozenset({1})
    code, chan = resolve_scenario(make_config(scenario="s0_noisy"))
    assert code.label == "s0" and chan.support == frozenset({1, 3, 4})
    code, chan = resolve_scenario(make_config(scenario="s1_noisy"))
    assert code.label == "s1" and chan.support == frozenset({1, 3, 4, 5, 6})
    code, chan = resolve_scenario(make_config(scenario="s1_clean"))
    assert code.label == "s1" and chan.support == frozenset({1})
    from dcqd.config import ConfigError

    with pytest.raises(ConfigError):
        resolve_scenario(make_config(scenario="failure_sweep"))


def test_unknown_backend_rejected():
    code = build_s0()
    with pytest.raises(Exception):
        run_setting(code, identity_channel(4), PreprocessingOp(PreprocessingKind.IDENTITY), 10, 0, "magic")
