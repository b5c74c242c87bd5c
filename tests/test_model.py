"""Core model layer: validation, exact finite-horizon occupation against an
exhaustive trajectory oracle, and simulation."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qergodic as qg
from qergodic.errors import (
    NegativeEntry,
    NoSurvivors,
    NotADistribution,
    NotTransient,
    RowSumExceedsOne,
    ShapeMismatch,
    SurvivalUnderflow,
)

from conftest import model_of, random_model


# --- validation ----------------------------------------------------------


def test_validate_derives_absorption_column():
    m = qg.validate([[0.3, 0], [0.5, 0.5]], [0.5, 0.5])
    assert np.allclose(m.R, [0.7, 0.0])
    assert m.d == 2


def test_validate_rejects_identity_row():
    with pytest.raises(NotTransient):
        qg.validate([[1.0]], [1.0])


def test_validate_rejects_row_sum_above_one():
    with pytest.raises(RowSumExceedsOne):
        qg.validate([[0.5, 0.6], [0.0, 0.5]], [0.5, 0.5])


def test_validate_rejects_negative_entry():
    with pytest.raises(NegativeEntry):
        qg.validate([[-0.1, 0.2], [0.0, 0.5]], [0.5, 0.5])


def test_validate_rejects_bad_distribution():
    with pytest.raises(NotADistribution):
        qg.validate([[0.5, 0], [0, 0.5]], [0.7, 0.7])


def test_validate_rejects_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        qg.validate([[0.5, 0], [0, 0.5]], [1.0])
    with pytest.raises(ShapeMismatch):
        qg.validate([[0.5, 0.1, 0.1], [0.1, 0.5, 0.1]], [0.5, 0.5])


def test_validate_rejects_closed_class_without_leak():
    # states 2 and 3 form a closed stochastic cycle
    Q = [[0.5, 0.2, 0], [0, 0, 1.0], [0, 1.0, 0]]
    with pytest.raises(NotTransient):
        qg.validate(Q, [1 / 3, 1 / 3, 1 / 3])


# --- survival ------------------------------------------------------------


def test_survival_hand_value():
    m = qg.validate([[0.3, 0], [0.5, 0.5]], [1, 0])
    assert math.isclose(qg.survival_probability(m, 2), 0.09, rel_tol=1e-12)


def test_survival_n0_is_one():
    m = model_of("two_state")
    assert qg.survival_probability(m, 0) == 1.0


def test_survival_row_without_leak():
    m = qg.validate([[0.3, 0], [0.5, 0.5]], [0, 1])
    assert math.isclose(qg.survival_probability(m, 1), 1.0, rel_tol=1e-12)


def test_survival_non_increasing():
    m = model_of("triangle_full")
    vals = [qg.survival_probability(m, n) for n in range(12)]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


# --- exhaustive trajectory oracle ----------------------------------------


def brute_occupation(Q, pi, n):
    """Conditioned occupation by summing over every length-(n+1) state path."""
    Q = np.asarray(Q, dtype=float)
    pi = np.asarray(pi, dtype=float)
    d = Q.shape[0]
    occ = np.zeros(d)
    surv = 0.0
    for seq in itertools.product(range(d), repeat=n + 1):
        p = pi[seq[0]]
        for a, b in zip(seq, seq[1:]):
            p *= Q[a, b]
        if p == 0.0:
            continue
        surv += p
        for s in seq:
            occ[s] += p
    return occ / ((n + 1) * surv), surv


def test_occupation_matches_exhaustive_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(6):
        m = random_model(rng, d_max=3)
        for n in (0, 1, 3, 6, 8):
            brute, surv = brute_occupation(m.Q, m.pi, n)
            profile = qg.occupation_profile(m, n)
            assert np.max(np.abs(profile - brute)) <= 1e-12
            assert math.isclose(qg.survival_probability(m, n), surv, rel_tol=1e-12)


def test_hand_value_two_state():
    m = qg.validate([[0.3, 0], [0.5, 0.5]], [0, 1])
    assert math.isclose(qg.finite_horizon_state_occupation(m, 2, 1).value, 0.75, rel_tol=1e-12)
    assert math.isclose(qg.finite_horizon_state_occupation(m, 1, 1).value, 0.25, rel_tol=1e-12)


def test_occupation_n0_is_initial_distribution():
    m = model_of("five_block")
    profile = qg.occupation_profile(m, 0)
    assert np.allclose(profile, m.pi, atol=1e-15)


def test_block_occupation_sums_states_exactly():
    m = model_of("triangle_full")
    for n in (0, 3, 7):
        profile = qg.occupation_profile(m, n)
        for states in [{1, 2}, {2, 3}, {1, 2, 3}]:
            block = qg.finite_horizon_block_occupation(m, states, n).value
            assert block == sum(float(profile[s - 1]) for s in sorted(states))
    assert qg.finite_horizon_block_occupation(m, set(), 3).value == 0.0
    assert math.isclose(qg.finite_horizon_block_occupation(m, {1, 2, 3}, 5).value, 1.0, rel_tol=1e-12)


def test_observable_consistency():
    m = qg.validate([[0.3, 0], [0.5, 0.5]], [0, 1])
    assert math.isclose(qg.finite_horizon_observable(m, [0, 2], 1), 1.5, rel_tol=1e-12)
    assert math.isclose(qg.finite_horizon_observable(m, [1, 1], 9), 1.0, rel_tol=1e-12)
    f = [0.0, 1.0]
    assert qg.finite_horizon_observable(m, f, 4) == qg.finite_horizon_state_occupation(m, 2, 4).value


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=0, max_value=20))
def test_occupation_sums_to_one(seed, n):
    rng = np.random.default_rng(seed)
    m = random_model(rng)
    try:
        profile = qg.occupation_profile(m, n)
    except SurvivalUnderflow:
        # legal draw: all initial mass sits on states that absorb before n
        assert np.linalg.norm(m.pi @ np.linalg.matrix_power(m.Q, n)) == 0.0
        return
    assert abs(profile.sum() - 1.0) <= 1e-10


def plain_profile(Q, pi, n):
    """The conditioned occupation by one sweep per split point r."""
    a, b = [pi], [np.ones(len(pi))]
    for _ in range(n):
        a.append(a[-1] @ Q / (a[-1] @ Q).sum())
        b.append(Q @ b[-1] / (Q @ b[-1]).max())
    return sum(a[r] * b[n - r] / (a[r] @ b[n - r]) for r in range(n + 1)) / (n + 1)


def test_occupation_matches_plain_sweep_at_long_horizon():
    rng = np.random.default_rng(3)
    d = 40
    Q = np.where(rng.random((d, d)) < 0.15, rng.random((d, d)), 0.0)
    Q *= (rng.uniform(0.5, 0.99, d) / Q.sum(axis=1))[:, None]
    m = qg.validate(Q, rng.dirichlet(np.ones(d)))
    n = 2000
    assert np.max(np.abs(qg.occupation_profile(m, n) - plain_profile(m.Q, m.pi, n))) <= 1e-12


@pytest.mark.parametrize(
    "Q, pi",
    [([[1e-200]], [1.0]), ([[1e-20, 1e-30], [0.0, 0.5]], [1.0, 0.0]), ([[0.0, 0.0], [0.0, 1e-9]], [1 - 1e-300, 1e-300])],
)
def test_occupation_tiny_entries_do_not_underflow(Q, pi):
    # a product of many steps of these underflows, one rescaled step does not
    m = qg.validate(Q, pi)
    for n in (40, 100):
        assert np.max(np.abs(qg.occupation_profile(m, n) - plain_profile(m.Q, m.pi, n))) <= 1e-12


def test_occupation_nilpotent_chain_underflows():
    # pi Q^2 is exactly zero: nobody survives two steps
    m = qg.validate([[0.0, 0.5], [0.0, 0.0]], [1.0, 0.0])
    assert np.allclose(qg.occupation_profile(m, 1), [0.5, 0.5], atol=1e-15)
    for n in (2, 3, 50):
        with pytest.raises(SurvivalUnderflow):
            qg.occupation_profile(m, n)


def test_pi_scaling_invariance():
    # normalizing a scaled pi reproduces the same conditioned occupations
    rng = np.random.default_rng(11)
    m = random_model(rng, d_max=4)
    for c in (0.1, 7.0):
        scaled = m.pi * c
        m2 = qg.validate(m.Q, scaled / scaled.sum())
        for n in (0, 5, 13):
            assert np.allclose(qg.occupation_profile(m, n), qg.occupation_profile(m2, n), atol=1e-13)


# --- simulation ----------------------------------------------------------


def test_forced_absorption():
    m = qg.validate([[0.0]], [1.0])
    for seed in range(5):
        path, T = qg.simulate_trajectory(m, seed)
        assert path == [1] and T == 1


def test_trajectory_deterministic():
    m = model_of("two_state")
    assert qg.simulate_trajectory(m, 123) == qg.simulate_trajectory(m, 123)


def test_absorption_time_mean_matches_fundamental_matrix():
    m = model_of("two_state")
    expected = float(m.pi @ np.linalg.solve(np.eye(2) - m.Q, np.ones(2)))
    trials = 20000
    times = [qg.simulate_trajectory(m, 99, i)[1] for i in range(trials)]
    mean = sum(times) / trials
    stderr = np.std(times, ddof=1) / math.sqrt(trials)
    assert abs(mean - expected) <= 4 * stderr


def test_monte_carlo_brackets_exact_value():
    m = qg.validate([[0.3, 0], [0.5, 0.5]], [0, 1])
    estimates = qg.monte_carlo_occupation(m, 1, 100000, seed=1)
    e2 = estimates[1]
    assert abs(e2.value - 0.75) <= 3 * e2.stderr
    assert math.isclose(sum(e.value for e in estimates), 1.0, rel_tol=1e-12)


def occupation_from_trajectories(m, n, trials, seed):
    """The Monte Carlo estimate rebuilt one trajectory at a time."""
    sums, sq_sums, surviving = np.zeros(m.d), np.zeros(m.d), 0
    for i in range(trials):
        path, T = qg.simulate_trajectory(m, seed, i)
        if T <= n:
            continue
        counts = np.bincount(np.asarray(path[: n + 1]) - 1, minlength=m.d) / (n + 1)
        sums += counts
        sq_sums += counts * counts
        surviving += 1
    means = sums / surviving
    var = (sq_sums - surviving * means**2) / (surviving - 1)
    return means.tolist(), np.sqrt(np.clip(var, 0.0, None) / surviving).tolist(), surviving


@pytest.mark.parametrize("batch", [None, 7])
def test_monte_carlo_is_the_simulated_trajectories(batch, monkeypatch):
    # n + 1 > 256 spans two of simulate_trajectory's 256-uniform chunks, and
    # 700 trials is a multiple of neither batch size
    if batch is not None:
        monkeypatch.setattr(qg.model, "_MC_BATCH", batch)
    m = qg.validate([[0.5, 0.497, 0], [0.3, 0.4, 0.298], [0.2, 0.3, 0.498]], [0, 0.8, 0.2])
    n, trials, seed = 300, 700, 5
    values, stderr, surviving = occupation_from_trajectories(m, n, trials, seed)
    estimates = qg.monte_carlo_occupation(m, n, trials, seed)
    assert 0 < surviving < trials
    assert [e.value for e in estimates] == values
    assert [e.stderr for e in estimates] == stderr
    assert {e.trials_surviving for e in estimates} == {surviving}


def test_monte_carlo_no_survivors():
    m = qg.validate([[0.01]], [1.0])
    with pytest.raises(NoSurvivors):
        qg.monte_carlo_occupation(m, 50, 100, seed=0)
