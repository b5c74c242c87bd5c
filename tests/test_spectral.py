"""Per-block Perron data, projection coefficients, and path weights."""

import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import qergodic as qg
from qergodic import limits, spectral
from qergodic.errors import AmbiguousRhoClasses, AssumptionViolation, NoConvergence
from qergodic.paths import enumerate_paths
from qergodic.spectral import (
    SpectrumSet,
    path_alpha,
    perron_block,
    projection_coefficient,
    spectrum_set,
)
from qergodic.structure import condense

from conftest import CHAINS, count_calls, model_of, random_model

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import chains  # noqa: E402

S2 = math.sqrt(2.0)


def test_perron_two_by_two_exact_values():
    s = perron_block(np.array([[0.2, 0.1], [0.1, 0.0]]))
    assert abs(s.rho - 0.1 * (1 + S2)) <= 1e-12
    assert np.max(np.abs(s.v - np.array([1 + S2, 1.0]) / (2 + S2))) <= 1e-10
    assert np.max(np.abs(s.u - np.array([(1 + S2) / 2, 0.5]))) <= 1e-10
    assert s.primitive and s.period == 1 and not s.scalar


def test_perron_scalar_block():
    s = perron_block(np.array([[0.75]]))
    assert s.rho == 0.75 and s.scalar
    assert s.v[0] == 1.0 and s.u[0] == 1.0
    assert s.sub_modulus == 0.0


def test_perron_periodic_block():
    s = perron_block(np.array([[0.0, 0.9], [0.9, 0.0]]))
    assert abs(s.rho - 0.9) <= 1e-10
    assert s.period == 2 and not s.primitive
    assert np.allclose(s.v, [0.5, 0.5], atol=1e-10)


def test_eigen_residuals_and_normalization():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = random_model(rng)
        form = condense(m)
        for B in form.diag_blocks:
            s = perron_block(B)
            assert np.max(np.abs(B @ s.v - s.rho * s.v)) <= 1e-10
            assert np.max(np.abs(s.u @ B - s.rho * s.u)) <= 1e-10
            assert abs(s.v.sum() - 1.0) <= 1e-12
            assert abs(float(s.u @ s.v) - 1.0) <= 1e-12
            assert np.all(s.v > 0) and np.all(s.u > 0)
            if s.primitive and not s.scalar:
                assert s.sub_modulus < s.rho


def test_projection_coefficient():
    s = perron_block(np.array([[0.2, 0.1], [0.1, 0.0]]))
    assert abs(projection_coefficient(s, s.v) - 1.0) <= 1e-12
    got = projection_coefficient(s, np.ones(2))
    assert abs(got - (2 + S2) / 2) <= 1e-10
    # the residual x - alpha v is annihilated by u
    x = np.array([0.3, 1.7])
    alpha = projection_coefficient(s, x)
    assert abs(float(s.u @ (x - alpha * s.v))) <= 1e-10
    scalar = perron_block(np.array([[0.5]]))
    assert projection_coefficient(scalar, np.ones(1)) == 1.0


def test_path_alpha_scalar_products():
    m = model_of("triangle_full")
    form = condense(m)
    spectra = spectrum_set(form)
    assert abs(path_alpha(form, spectra, (3, 2, 1)) - 0.1 * 0.1) <= 1e-14
    assert abs(path_alpha(form, spectra, (3, 1)) - 0.2) <= 1e-14
    assert path_alpha(form, spectra, (2,)) == 1.0


def test_path_alpha_nonnegative_and_singleton():
    # with nonnegative connectors and strictly positive eigenvectors, alpha
    # is a product of nonnegative inner products: zero only if a connector
    # vanishes, which would make the path inadmissible in the first place
    B2 = np.array([[0.4, 0.1], [0.1, 0.4]])
    Q = np.zeros((3, 3))
    Q[0, 0] = 0.2
    Q[1:, 1:] = B2
    Q[1, 0] = 0.05
    m = qg.validate(Q, [0.2, 0.4, 0.4])
    form = condense(m)
    spectra = spectrum_set(form)
    sizes = dict(zip(range(1, form.k + 1), form.block_sizes))
    big = [b for b, size in sizes.items() if size == 2][0]
    small = [b for b, size in sizes.items() if size == 1][0]
    assert abs(path_alpha(form, spectra, (big,)) - 2.0) <= 1e-10  # u=(1,1) against ones
    a = path_alpha(form, spectra, (big, small))
    assert a > 0
    # u2 = (1,1), v1 = (1), connector carries 0.05 into the first block row
    assert abs(a - 0.05) <= 1e-10


def _path_alpha_oracle(form, spectra, theta):
    """alpha with a fresh matrix-vector product per step, in path_alpha's
    order: u . 1 at the last block, then each connector from the end back."""
    last = theta[-1]
    alpha = projection_coefficient(spectra.blocks[last - 1], np.ones(form.block_sizes[last - 1]))
    for pos in range(len(theta) - 2, -1, -1):
        i, j = theta[pos], theta[pos + 1]
        alpha *= projection_coefficient(spectra.blocks[i - 1], form.sub_blocks[(i, j)] @ spectra.blocks[j - 1].v)
    return alpha


def test_path_alpha_bitwise_equal_to_matrix_vector_oracle():
    rng = np.random.default_rng(17)
    models = [random_model(rng) for _ in range(120)]
    models += [qg.validate(c.Q, c.pi) for c in (chains.dag_chain(7, i) for i in range(5))]
    checked = 0
    for m in models:
        form = condense(m)
        spectra = spectrum_set(form)
        for theta in enumerate_paths(form):
            assert path_alpha(form, spectra, theta) == _path_alpha_oracle(form, spectra, theta)
            checked += 1
    assert checked > 5000


def test_each_coefficient_projected_once_per_chain(monkeypatch):
    c = chains.dag_chain(7, 0)
    m = qg.validate(c.Q, c.pi)
    calls = count_calls(monkeypatch, spectral.projection_coefficient)
    form = limits.analyze(m).form
    assert len(calls) == form.k + len(form.sub_blocks)


def test_full_qed_and_qsd_never_compute_sub_modulus(monkeypatch):
    calls = count_calls(monkeypatch, spectral._sub_modulus)
    models = [qg.validate(c.Q, c.pi) for c in (chains.dense_chain(7, i) for i in range(3))]
    models += [model_of(name) for name in ("matrix_block", "periodic", "two_state")]
    for m in models:
        qg.full_qed(m)
        limits.quasi_stationary_distribution(m.Q)
    analysis = limits.analyze(model_of("uncertified"))
    with pytest.raises(AssumptionViolation):
        limits.limit_measure(analysis)
    assert calls == []
    # the counter sees a read
    assert analysis.spectra.blocks[-1].sub_modulus > 0.0 and len(calls) == 1


def test_sub_modulus_is_computed_once_on_first_read(monkeypatch):
    eager = spectral._sub_modulus
    calls = count_calls(monkeypatch, spectral._sub_modulus)
    rng = np.random.default_rng(18)
    matrix_blocks = 0
    for _ in range(60):
        for B in condense(random_model(rng)).diag_blocks:
            s = perron_block(B)
            assert calls == []
            expected = 0.0 if s.scalar else eager(B, *spectral.perron_data(B))
            # read twice, computed once
            assert s.sub_modulus == expected and s.sub_modulus == expected
            assert len(calls) == (0 if s.scalar else 1)
            calls.clear()
            matrix_blocks += not s.scalar
    assert matrix_blocks > 20


def _solver_blocks():
    """Every block of two states or more in `dense` seed 7 chains 0-9, the
    golden chains and 200 random models."""
    for i in range(10):
        yield chains.dense_chain(7, i).Q
    rng = np.random.default_rng(41)
    models = [model_of(name) for name in sorted(CHAINS)] + [random_model(rng) for _ in range(200)]
    for m in models:
        yield from (B for B in condense(m).diag_blocks if len(B) > 1)


def test_perron_data_residuals_within_tolerance():
    checked = 0
    for B in _solver_blocks():
        rho, v, u = spectral.perron_data(B)
        tol = 1e-13 * max(rho, 1.0)
        assert np.max(np.abs(B @ v - rho * v)) <= tol
        un = u / u.sum()
        assert np.max(np.abs(un @ B - rho * un)) <= tol
        checked += 1
    assert checked > 100


def test_perron_data_takes_at_most_ten_solves(monkeypatch):
    calls = count_calls(monkeypatch, spectral._shifted_solve)
    counts = []
    for B in _solver_blocks():
        calls.clear()
        spectral.perron_data(B)
        counts.append(len(calls))
    assert max(counts) <= 10 and min(counts) >= 0 and sum(counts) > 3 * len(counts)


def test_perron_vectors_positive_certify_the_root():
    # a positive eigenvector of an irreducible nonnegative matrix belongs to
    # its Perron root, and the Collatz-Wielandt ratios of v bracket it
    for B in _solver_blocks():
        rho, v, u = spectral.perron_data(B)
        assert np.all(v > 0) and np.all(u > 0)
        ratios = (B @ v) / v
        assert ratios.min() - 1e-12 <= rho <= ratios.max() + 1e-12


def test_perron_data_stops_at_the_solve_cap(monkeypatch):
    B = chains.dense_chain(7, 4).Q
    monkeypatch.setattr(spectral, "MAX_SOLVES", 2)
    with pytest.raises(NoConvergence):
        spectral.perron_data(B)


R = (0.375 + math.sqrt(0.203125)) / 2  # the Perron root of [[1/4, 3/8], [1/8, 1/8]]


@pytest.mark.parametrize(
    "B,rho,v,u",
    [
        ([[0.375, 0.125], [0.25, 0.5]], 0.625, [1 / 3, 2 / 3], [1.0, 1.0]),
        ([[0.25, 0.375], [0.125, 0.125]], R, [0.375, R - 0.25], [0.125, R - 0.25]),
    ],
)
def test_singular_shift_raises_no_linalg_error(B, rho, v, u, monkeypatch):
    # on these dyadic blocks the Collatz-Wielandt bound of a converged
    # iterate makes sigma I - B exactly singular in floating point
    v = np.array(v) / sum(v)
    u = np.array(u) / (np.array(u) @ v)
    singular = []
    solve = np.linalg.solve

    def recording_solve(M, b):
        try:
            return solve(M, b)
        except np.linalg.LinAlgError:
            singular.append(M)
            raise

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    B = np.array(B)
    s = perron_block(B)
    qsd = qg.quasi_stationary_distribution(B)
    measure = qg.irreducible_qed(B)
    assert singular
    assert abs(s.rho - rho) <= 1e-15
    assert np.max(np.abs(s.v - v)) <= 1e-15 and np.max(np.abs(s.u - u)) <= 1e-15
    assert np.max(np.abs(qsd - u / u.sum())) <= 1e-15
    assert np.max(np.abs(measure - u * v)) <= 1e-15


def _two_clusters(rng, a, b, c, rho=0.25):
    """Two clusters of a and b states that send a share c and c a / b of
    each row across, with |lambda_2| / rho = 1 - c (a + b) / b.  Every entry
    is dyadic, so the stored matrix is exact: P is doubly stochastic and
    Q = rho D^-1 P D with D = diag(2^e), so rho is exact, v ~ 2^-e and
    u ~ 2^e."""
    d = a + b
    P = np.zeros((d, d))
    for r, n, leak in ((slice(0, a), a, c), (slice(a, d), b, c * a / b)):
        cluster = (2 * np.eye(n) + np.roll(np.eye(n), 1, axis=1) + np.eye(n)[rng.permutation(n)]) / 4
        P[r, r] = (1 - leak) * cluster
    P[:a, a:] = c / b
    P[a:, :a] = c / b
    e = rng.integers(0, 2, d)
    Q = rho * P * 2.0 ** (e[None, :] - e[:, None])
    return Q, 2.0**-e / np.sum(2.0**-e), 2.0**e / np.sum(2.0**e)


# power iteration raised NoConvergence on chains like these: |lambda_2| /
# rho = 0.99993 at d = 7, and two clusters of 20 states (0.99994)
@pytest.mark.parametrize("a,b,c", [(3, 4, 2**-15 + 2**-17), (20, 20, 2**-15)])
def test_small_gap_chains_solved_exactly(a, b, c):
    Q, v, u = _two_clusters(np.random.default_rng(0), a, b, c)
    moduli = np.sort(np.abs(np.linalg.eigvals(Q)))
    assert 0.99993 <= moduli[-2] / moduli[-1] < 0.99995
    cpu = time.process_time()
    s = perron_block(Q)
    qsd = qg.quasi_stationary_distribution(Q)
    cpu = time.process_time() - cpu
    # np.linalg.eig's vectors are themselves off by up to ~3e-12 at this
    # gap; its root is not
    assert abs(s.rho - 0.25) <= 1e-15 and abs(s.rho - max(np.linalg.eigvals(Q).real)) <= 1e-12
    assert np.max(np.abs(s.v - v)) <= 1e-12
    assert np.max(np.abs(s.u / s.u.sum() - u)) <= 1e-12
    assert np.max(np.abs(qsd - u)) <= 1e-12
    assert cpu < 0.1


def test_full_matrix_rho_equals_block_max():
    rng = np.random.default_rng(29)
    for _ in range(10):
        m = random_model(rng)
        form = condense(m)
        spectra = spectrum_set(form)
        assert abs(max(np.linalg.eigvals(m.Q).real) - spectra.rho_max) <= 1e-12


def test_rho_equality_policy():
    m = model_of("triangle_full")
    spectra = spectrum_set(condense(m))
    assert spectra.ties(spectra.rho(1), spectra.rho(2)) and spectra.ties(spectra.rho(2), spectra.rho(3))
    m2 = model_of("two_state")
    spectra2 = spectrum_set(condense(m2))
    assert not spectra2.ties(spectra2.rho(1), spectra2.rho(2))


def test_scalar_blocks_tie_within_tolerance():
    # scalar blocks take the same relative tolerance as matrix blocks: an
    # offset below it is a tie
    eps = 1e-13
    Q = np.diag([0.5, 0.5 + eps])
    m = qg.validate(Q, [0.5, 0.5])
    spectra = spectrum_set(condense(m), rho_eq_tol=1e-9)
    assert spectra.rho(1) != spectra.rho(2)
    assert spectra.attains(1, spectra.rho(2)) and spectra.attains(2, spectra.rho(1))


@pytest.mark.parametrize("roots", [(0.5, 0.5 + 3e-10, 0.5 + 6e-10), (0.5 + 6e-10, 0.5 + 3e-10, 0.5)])
def test_scalar_near_ties_are_ambiguous(roots):
    # adjacent roots tie at rho_eq_tol = 1e-9 but the outer two do not, as
    # with matrix blocks below; chained downward with pi on the top block,
    # either order used to pick two of the three blocks silently
    Q = np.diag(roots)
    Q[1, 0] = Q[2, 1] = 0.1
    m = qg.validate(Q, [0.0, 0.0, 1.0])
    with pytest.raises(AmbiguousRhoClasses):
        qg.full_qed(m)


def test_ambiguous_rho_classes_detected():
    # three 2x2 blocks with roots r, r(1+e), r(1+2e), e just inside the
    # tolerance: adjacent pairs tie but the outer pair does not, so the
    # equality classes are not transitive
    def blk(r):
        return np.array([[r / 2, r / 2], [r / 2, r / 2]])

    e = 6e-10
    Q = np.zeros((6, 6))
    Q[0:2, 0:2] = blk(0.5)
    Q[2:4, 2:4] = blk(0.5 * (1 + e))
    Q[4:6, 4:6] = blk(0.5 * (1 + 2 * e))
    m = qg.validate(Q, np.full(6, 1 / 6))
    with pytest.raises(AmbiguousRhoClasses):
        spectrum_set(condense(m), rho_eq_tol=1e-9)
