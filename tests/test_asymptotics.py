"""Combinatorial oracles and growth diagnostics: block powers versus path
sums, split-dwell identities, the scalar dwell-time sums, and the
asymptotic-equivalence verdicts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qergodic as qg
from qergodic.model import log_survival_probability
from qergodic.paths import classify_path, enumerate_paths, maximal_paths
from qergodic.spectral import spectrum_set
from qergodic.structure import condense

from conftest import model_of, random_model
from oracles import (
    BlockNotOnPath,
    asymptotic_ratio_diagnostic,
    closed_form_xi,
    gamma_count,
    generating_function_occupation,
    hat_q_ell,
    hat_q_ell_t,
    path_numerator_closed,
    path_numerator_sequence,
    proof_sequences,
    q_block_power,
    q_theta_n,
    xi_aux,
    xi_n,
    xi_ratio,
)


def _setup(name):
    m = model_of(name)
    form = condense(m)
    spectra = spectrum_set(form)
    pi_nf = m.pi[list(form.perm)]
    return m, form, spectra, pi_nf


# --- block powers --------------------------------------------------------


def test_q_block_power_base_cases():
    _, form, _, _ = _setup("triangle_full")
    assert np.array_equal(q_block_power(form, 2, 2, 0), np.eye(1))
    assert np.array_equal(q_block_power(form, 2, 1, 0), np.zeros((1, 1)))


def test_q_block_power_hand_value():
    _, form, _, _ = _setup("two_state")
    got = q_block_power(form, 2, 1, 2)
    assert abs(got[0, 0] - 0.4) <= 1e-15  # 0.5*0.3 + 0.5*0.5


def test_q_block_power_matches_dense_power():
    rng = np.random.default_rng(43)
    for _ in range(10):
        m = random_model(rng)
        form = condense(m)
        for n in (0, 1, 4, 9):
            dense = np.linalg.matrix_power(form.permuted_Q, n)
            for i in range(1, form.k + 1):
                for j in range(1, i + 1):
                    blk = dense[np.ix_(form.index_sets[i - 1], form.index_sets[j - 1])]
                    assert np.max(np.abs(q_block_power(form, i, j, n) - blk)) <= 1e-13


def test_block_power_decomposes_over_paths():
    rng = np.random.default_rng(47)
    deviations = []
    for _ in range(12):
        m = random_model(rng)
        form = condense(m)
        thetas = enumerate_paths(form)
        for n in range(16):
            dense = np.linalg.matrix_power(form.permuted_Q, n)
            for i in range(1, form.k + 1):
                for j in range(1, i + 1):
                    blk = dense[np.ix_(form.index_sets[i - 1], form.index_sets[j - 1])]
                    total = np.zeros_like(blk)
                    for th in thetas:
                        if th[0] == i and th[-1] == j:
                            total = total + q_theta_n(form, th, n)
                    scale = max(np.max(np.abs(blk)), 1e-300)
                    deviations.append(np.max(np.abs(total - blk)) / scale)
    assert max(deviations) <= 1e-12


# --- dwell-time sums -----------------------------------------------------


def test_q_theta_singleton_is_diagonal_power():
    _, form, _, _ = _setup("matrix_block")
    B = form.diag_blocks[0]
    for n in (0, 1, 5):
        assert np.max(np.abs(q_theta_n(form, (1,), n) - np.linalg.matrix_power(B, n))) <= 1e-14


def test_q_theta_below_length_is_zero():
    _, form, _, _ = _setup("triangle_full")
    assert not np.any(q_theta_n(form, (3, 2, 1), 1))
    assert np.any(q_theta_n(form, (3, 2, 1), 2))


def test_q_theta_two_state_unique_path():
    _, form, _, _ = _setup("two_state")
    got = q_theta_n(form, (2, 1), 2)
    assert abs(got[0, 0] - 0.4) <= 1e-15


def test_q_theta_brute_matches_recursion():
    rng = np.random.default_rng(53)
    for _ in range(8):
        m = random_model(rng)
        form = condense(m)
        for th in enumerate_paths(form):
            for n in (len(th) - 1, 7, 14, 22):
                brute = q_theta_n(form, th, n, n_brute=25)
                rec = q_theta_n(form, th, n, n_brute=-1)
                assert np.max(np.abs(brute - rec)) <= 1e-13


# --- split-dwell sums ----------------------------------------------------


def test_hat_q_enum_equals_convolution():
    rng = np.random.default_rng(59)
    for _ in range(6):
        m = random_model(rng, d_max=5)
        form = condense(m)
        for th in enumerate_paths(form):
            for ell in th:
                for n in range(9):
                    a = hat_q_ell(form, th, ell, n, method="enum")
                    b = hat_q_ell(form, th, ell, n, method="conv")
                    scale = max(np.max(np.abs(a)), 1e-300)
                    assert np.max(np.abs(a - b)) / scale <= 1e-13


def test_hat_q_scalar_singleton():
    _, form, _, _ = _setup("triangle_full")
    rho = form.permuted_Q[0, 0]
    for n in (0, 3, 8):
        got = hat_q_ell(form, (1,), 1, n)
        assert abs(got[0, 0] - (n + 1) * rho**n) <= 1e-14


def test_hat_q_t_resolves_identity():
    _, form, _, _ = _setup("matrix_block")
    th = (2, 1)
    for n in range(7):
        total = sum(hat_q_ell_t(form, th, 1, t, n) for t in (1, 2))
        assert np.max(np.abs(total - hat_q_ell(form, th, 1, n))) <= 1e-14
    # scalar block: the projector is the identity
    for n in range(7):
        assert np.array_equal(hat_q_ell_t(form, th, 2, 1, n), hat_q_ell(form, th, 2, n))


def test_hat_q_rejects_block_off_path():
    _, form, _, _ = _setup("triangle_full")
    with pytest.raises(BlockNotOnPath):
        hat_q_ell(form, (2, 1), 3, 5)


def test_numerator_reconstruction_block_level():
    # summing split-dwell path sums over paths through a block reproduces the
    # finite-horizon block numerator
    m, form, spectra, pi_nf = _setup("triangle_split")
    thetas = enumerate_paths(form)
    for ell in range(1, form.k + 1):
        for n in range(2, 10):
            total = 0.0
            for th in thetas:
                if ell not in th:
                    continue
                pi_block = pi_nf[list(form.index_sets[th[0] - 1])]
                ones = np.ones(form.block_sizes[th[-1] - 1])
                total += float(pi_block @ hat_q_ell(form, th, ell, n) @ ones)
            surv = math.exp(log_survival_probability(m, n))
            expected = qg.occupation_profile(m, n)[ell - 1] * (n + 1) * surv
            assert abs(total - expected) <= 1e-12


def test_numerator_reconstruction_state_level():
    m, form, spectra, pi_nf = _setup("matrix_block")
    thetas = enumerate_paths(form)
    for n in range(2, 12):
        surv = math.exp(log_survival_probability(m, n))
        profile = qg.occupation_profile(m, n)
        for ell in range(1, form.k + 1):
            for t in range(1, form.block_sizes[ell - 1] + 1):
                total = 0.0
                for th in thetas:
                    if ell not in th:
                        continue
                    pi_block = pi_nf[list(form.index_sets[th[0] - 1])]
                    ones = np.ones(form.block_sizes[th[-1] - 1])
                    total += float(pi_block @ hat_q_ell_t(form, th, ell, t, n) @ ones)
                state = form.index_sets[ell - 1][t - 1]
                expected = profile[state] * (n + 1) * surv
                assert abs(total - expected) <= 1e-12


# --- scalar dwell sums ---------------------------------------------------


def test_xi_single_root_exact():
    for n in (0, 1, 13):
        assert xi_n([0.5], n) == 0.5**n == closed_form_xi([0.5], n)


def test_xi_equal_roots_exact():
    for n in (1, 5, 12):
        assert xi_n([0.7, 0.7], n) == closed_form_xi([0.7, 0.7], n) == n * 0.7 ** (n - 1)


def test_xi_brute_small():
    # kappa=2, roots (a, b), n=3: a^2 + ab + b^2
    a, b = 0.3, 0.6
    assert abs(xi_n([a, b], 3) - (a * a + a * b + b * b)) <= 1e-15


def test_xi_ratio_converges():
    for roots in ([0.5, 0.9], [0.3, 0.8, 0.9], [0.6, 0.75, 0.9]):
        assert abs(xi_ratio(roots, 2000) - 1.0) <= 0.02


def test_xi_aux_geometric_and_count():
    z, m = 0.4, 6
    assert abs(xi_aux([z], m) - (1 - z ** (m + 1)) / (1 - z)) <= 1e-14
    for ell in (1, 2, 3):
        for m in (0, 4, 9):
            assert xi_aux([1.0] * ell, m) == gamma_count(ell + 1, m)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=2, max_size=4),
    st.integers(min_value=0, max_value=10),
)
def test_xi_aux_recursion_and_symmetry(zetas, m):
    from itertools import product

    z = zetas[-1]
    lhs = xi_aux(zetas, m)
    # peel-off recursion in the last argument
    rhs = (xi_aux(zetas[:-1], m) - z ** (m + 1) * xi_aux([w / z for w in zetas[:-1]], m)) / (1 - z)
    # direct nested-sum evaluation as an independent check
    direct = 0.0
    for eta in product(range(m + 1), repeat=len(zetas)):
        if sum(eta) <= m:
            direct += math.prod(w**e for w, e in zip(zetas, eta))
    scale = max(1.0, direct)
    assert abs(lhs - direct) <= 1e-9 * scale
    assert abs(lhs - rhs) <= 1e-7 * max(scale, abs(rhs))
    assert abs(xi_aux(list(reversed(zetas)), m) - lhs) <= 1e-9 * scale


# --- proof sequences and diagnostics -------------------------------------


def _classified(name, theta):
    m, form, spectra, pi_nf = _setup(name)
    return form, spectra, pi_nf, classify_path(form, spectra, theta, pi_nf)


def test_proof_sequence_ratio_tends_to_inverse_h():
    form, spectra, pi_nf, p = _classified("triangle_full", (3, 2, 1))
    psi, xi = proof_sequences(p, spectra, 10**6)
    assert abs(xi[0] / psi[0] - 1.0 / p.h_plus) <= 1e-12


def test_proof_sequences_reproduce_block_measure():
    m, form, spectra, pi_nf = _setup("five_block")
    classified = [classify_path(form, spectra, th, pi_nf) for th in enumerate_paths(form)]
    fam = maximal_paths(classified, spectra)
    n = 10**4
    denom = sum(proof_sequences(p, spectra, n)[0][0] for p in fam.maximal)
    blocks = qg.full_qed(m).block_measure
    for ell in range(1, form.k + 1):
        num = sum(proof_sequences(p, spectra, n)[1][0] for p in fam.per_block[ell])
        if blocks[ell - 1] > 0:
            assert abs(num / denom - blocks[ell - 1]) <= 1e-3


def test_proof_sequences_zero_weight():
    form, spectra, pi_nf, _ = _classified("triangle_split", (2, 1))
    p = classify_path(form, spectra, (1,), pi_nf)  # pi has no mass on block 1
    psi, xi = proof_sequences(p, spectra, 100)
    assert psi[0] == 0.0 and xi[0] == 0.0


def test_generating_function_route():
    m = model_of("two_state")
    for n in (0, 7, 30, 50):
        profile = qg.occupation_profile(m, n)
        for j in (1, 2):
            got = generating_function_occupation(m, j, n)
            assert abs(got - profile[j - 1]) <= 1e-6


def test_generating_function_single_state():
    m = qg.validate([[0.4]], [1.0])
    assert abs(generating_function_occupation(m, 1, 9) - 1.0) <= 1e-6


def test_diagnostic_identical_sequences():
    diag = asymptotic_ratio_diagnostic(lambda n: 0.9**n, lambda n: 0.9**n, range(10, 200, 10))
    assert diag.verdict == "CONVERGING"
    assert all(r == 1.0 for r in diag.ratios)


def test_diagnostic_converging_on_certified_path():
    form, spectra, pi_nf, p = _classified("two_state", (2, 1))
    diag = asymptotic_ratio_diagnostic(
        lambda n: path_numerator_sequence(form, pi_nf, (2, 1), n),
        lambda n: path_numerator_closed(p, spectra, n),
        range(20, 401, 20),
    )
    assert diag.verdict == "CONVERGING"
    assert diag.final_mean <= 1e-6


def test_diagnostic_diverging_on_counterexample():
    form, spectra, pi_nf, _ = _classified("uncertified", (2, 1))
    p = classify_path(form, spectra, (2, 1), pi_nf)
    diag = asymptotic_ratio_diagnostic(
        lambda n: path_numerator_sequence(form, pi_nf, (2, 1), n),
        lambda n: path_numerator_closed(p, spectra, n),
        range(20, 401, 20),
    )
    assert diag.verdict == "DIVERGING"
    assert abs(diag.ratios[-1] - 1.18) <= 0.01
