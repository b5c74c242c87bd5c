"""Acceptance suite: thirteen end-to-end criteria over the golden chains,
random draws, exact identities, convergence, Monte Carlo, the uncertified
counterexample, the periodic pipeline, and bulk structural invariants.

Each criterion prints a single PASS/FAIL line (run pytest with -s to see
them all even on success)."""

import math

import numpy as np

import qergodic as qg
from qergodic import limits
from qergodic.errors import AssumptionViolation
from qergodic.paths import classify_path, enumerate_paths, maximal_paths
from qergodic.spectral import spectrum_set
from qergodic.structure import condense

from conftest import model_of, random_model
from oracles import (
    asymptotic_ratio_diagnostic,
    gamma_count,
    gamma_enumerate,
    hat_q_ell,
    path_numerator_closed,
    path_numerator_sequence,
    q_theta_n,
    xi_n,
    closed_form_xi,
    xi_ratio,
)

S2 = math.sqrt(2.0)


def report(number, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_two_state_limits():
    m = model_of("two_state")
    r = qg.full_qed(m)
    qed_err = float(np.max(np.abs(r.state_measure_input - np.array([0.0, 1.0]))))
    qsd = qg.quasi_stationary_distribution(m.Q)
    qsd_err = float(np.max(np.abs(qsd - np.array([5 / 7, 2 / 7]))))
    report(1, qed_err <= 1e-12 and qsd_err <= 1e-9, f"qed err {qed_err:.2e}, qsd err {qsd_err:.2e}")


def test_criterion_02_triangle_full_blocks():
    r = qg.full_qed(model_of("triangle_full"))
    err = float(np.max(np.abs(r.block_measure - np.full(3, 1 / 3))))
    report(2, err <= 1e-10, f"block err {err:.2e}")


def test_criterion_03_triangle_split_with_random_pi():
    q21, q31 = 0.1, 0.2
    Q = [[0.5, 0, 0], [q21, 0.5, 0], [q31, 0, 0.5]]
    r = qg.full_qed(qg.validate(Q, [0, 0.5, 0.5]))
    err = float(np.max(np.abs(r.block_measure - np.array([0.5, 1 / 6, 1 / 3]))))
    ok = err <= 1e-10
    rng = np.random.default_rng(2024)
    worst = err
    for _ in range(20):
        pi = rng.dirichlet(np.ones(3))
        if pi[1] + pi[2] <= 0:
            continue
        r = qg.full_qed(qg.validate(Q, pi))
        nu = pi[1] * q21 + pi[2] * q31
        want = np.array([0.5, pi[1] * q21 / (2 * nu), pi[2] * q31 / (2 * nu)])
        worst = max(worst, float(np.max(np.abs(r.block_measure - want))))
    ok = ok and worst <= 1e-10
    report(3, ok, f"worst err over fixed + 20 random pi: {worst:.2e}")


def test_criterion_04_five_block_measure():
    r = qg.full_qed(model_of("five_block"))
    err = float(np.max(np.abs(r.block_measure - np.array([0.0, 0.15, 0.35, 0.35, 0.15]))))
    report(4, err <= 1e-10, f"block err {err:.2e}")


def test_criterion_05_matrix_block_states():
    r = qg.full_qed(model_of("matrix_block"))
    want = np.array([(3 + 2 * S2) / (4 + 2 * S2), 1 / (4 + 2 * S2), 0.0])
    err = float(np.max(np.abs(r.state_measure_input - want)))
    report(5, err <= 1e-8, f"state err {err:.2e}")


def test_criterion_06_four_block_formula_random_draws():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        rho = rng.uniform(0.4, 0.8)
        rho3 = rng.uniform(0.05, rho - 0.1)
        # rows 3 and 4 must stay substochastic: rho3 + q32 < 1 and rho + q41 + q43 < 1
        q32, q41, q43 = rng.uniform(0.02, 0.08, size=3)
        Q = np.zeros((4, 4))
        Q[0, 0] = Q[1, 1] = Q[3, 3] = rho
        Q[2, 2] = rho3
        Q[2, 1], Q[3, 0], Q[3, 2] = q32, q41, q43
        pi = rng.dirichlet(np.ones(4))
        pi[3] = max(pi[3], 0.05)
        pi = pi / pi.sum()
        r = qg.full_qed(qg.validate(Q, pi))
        nu = q41 + q43 * q32 / (rho - rho3)
        want = np.array([q41 / (2 * nu), q43 * q32 / (rho - rho3) / (2 * nu), 0.0, 0.5])
        worst = max(worst, float(np.max(np.abs(r.state_measure_input - want))))
    report(6, worst <= 1e-10, f"worst err over 20 draws: {worst:.2e} (pi-independent)")


def test_criterion_07_exact_identities():
    rng = np.random.default_rng(7)
    worst_path = 0.0
    worst_hat = 0.0
    for _ in range(100):
        m = random_model(rng, d_max=5)
        form = condense(m)
        if any(size != 1 for size in form.block_sizes):
            # criterion targets scalar chains; rebuild with the diagonal kept
            Q = np.tril(m.Q)
            np.fill_diagonal(Q, np.diag(m.Q) * 0.9)
            m = qg.validate(Q, m.pi)
            form = condense(m)
        thetas = enumerate_paths(form)
        for n in (0, 3, 9, 15):
            dense = np.linalg.matrix_power(form.permuted_Q, n)
            for i in range(1, form.k + 1):
                for j in range(1, i + 1):
                    blk = dense[np.ix_(form.index_sets[i - 1], form.index_sets[j - 1])]
                    total = sum(
                        (q_theta_n(form, th, n) for th in thetas if th[0] == i and th[-1] == j),
                        np.zeros_like(blk),
                    )
                    scale = max(float(np.max(np.abs(blk))), 1e-300)
                    worst_path = max(worst_path, float(np.max(np.abs(total - blk))) / scale)
        theta = max(thetas, key=len)
        for ell in theta:
            for n in (2, 6, 10):
                a = hat_q_ell(form, theta, ell, n, method="enum")
                b = hat_q_ell(form, theta, ell, n, method="conv")
                scale = max(float(np.max(np.abs(a))), 1e-300)
                worst_hat = max(worst_hat, float(np.max(np.abs(a - b))) / scale)
    counts_ok = all(
        len(gamma_enumerate(k, mm)) == gamma_count(k, mm) for k in range(1, 7) for mm in range(11)
    )
    ok = worst_path <= 1e-12 and worst_hat <= 1e-12 and counts_ok
    report(7, ok, f"path-sum dev {worst_path:.2e}, split-dwell dev {worst_hat:.2e}, counts ok {counts_ok}")


def test_criterion_08_dwell_sum_asymptotics():
    worst = 0.0
    for roots in ([0.5, 0.9], [0.2, 0.35, 0.9], [0.4, 0.6, 0.75, 0.9]):
        worst = max(worst, abs(xi_ratio(roots, 2000) - 1.0))
    exact1 = all(xi_n([0.6], n) == closed_form_xi([0.6], n) for n in (0, 5, 17))
    exact2 = all(xi_n([0.6, 0.6], n) == closed_form_xi([0.6, 0.6], n) for n in (1, 5, 17))
    ok = worst <= 0.02 and exact1 and exact2
    report(8, ok, f"worst |ratio-1| at n=2000: {worst:.3g}; exact cases {exact1 and exact2}")


def test_criterion_09_finite_horizon_convergence():
    worst_final = 0.0
    all_monotone = True
    for name in ("two_state", "triangle_full", "triangle_split", "four_block", "five_block", "matrix_block"):
        m = model_of(name)
        r = qg.full_qed(m)
        errs = [
            float(np.max(np.abs(qg.occupation_profile(m, n) - r.state_measure_input)))
            for n in (500, 1000, 2000, 4000)
        ]
        worst_final = max(worst_final, errs[-1])
        all_monotone = all_monotone and all(b < a for a, b in zip(errs, errs[1:]))
    ok = worst_final <= 0.05 and all_monotone
    report(9, ok, f"worst err at n=4000: {worst_final:.2e}, monotone {all_monotone}")


def test_criterion_10_monte_carlo_brackets_closed_form():
    # same split-triangle structure; parameters chosen so trajectories can
    # survive to n=300 while the chain is near its limit (the closed form
    # does not depend on them)
    Q = [[0.97, 0, 0], [0.015, 0.97, 0], [0.03, 0, 0.97]]
    m = qg.validate(Q, [0, 0.5, 0.5])
    closed = qg.full_qed(m).state_measure_input
    assert np.max(np.abs(closed - np.array([0.5, 1 / 6, 1 / 3]))) <= 1e-10
    estimates = qg.monte_carlo_occupation(m, 300, 100000, seed=7)
    z = max(abs(e.value - c) / e.stderr for e, c in zip(estimates, closed))
    report(10, z <= 4.0, f"max |z| {z:.2f} with {estimates[0].trials_surviving} survivors")


def test_criterion_11_counterexample_flagged():
    m = model_of("uncertified")
    form = condense(m)
    spectra = spectrum_set(form)
    pi_nf = m.pi[list(form.perm)]
    classified = [classify_path(form, spectra, th, pi_nf) for th in enumerate_paths(form)]
    family = maximal_paths(classified, spectra)
    rep = limits.check_assumptions(form, spectra, family)
    p = [q for q in family.maximal if q.kappa == 2][0]
    diag = asymptotic_ratio_diagnostic(
        lambda n: path_numerator_sequence(form, pi_nf, p.theta, n),
        lambda n: path_numerator_closed(p, spectra, n),
        range(20, 401, 20),
    )
    ok = (not rep.scalar_ok) and diag.verdict == "DIVERGING"
    report(11, ok, f"scalar_ok {rep.scalar_ok}, verdict {diag.verdict}, final ratio {diag.ratios[-1]:.3f}")


def test_criterion_12_periodic_pipeline():
    m = model_of("periodic")
    r = qg.full_qed(m)
    err = float(np.max(np.abs(r.state_measure_input - qg.occupation_profile(m, 2000))))
    report(12, err <= 0.05, f"max err vs n=2000: {err:.2e}")


def test_criterion_13_bulk_structural_invariants():
    rng = np.random.default_rng(13)
    certified = 0
    violations = []
    for i in range(500):
        m = random_model(rng)
        form = condense(m)
        # permutation invariance of the block partition
        sigma = rng.permutation(m.d)
        ms = qg.validate(m.Q[np.ix_(sigma, sigma)], m.pi[sigma])
        form_s = condense(ms)
        part = {frozenset(form.perm[p] for p in r) for r in form.index_sets}
        part_s = {frozenset(sigma[form_s.perm[p]] for p in r) for r in form_s.index_sets}
        if part != part_s:
            violations.append(f"model {i}: block partition not permutation-invariant")
            continue
        try:
            r = qg.full_qed(m)
        except AssumptionViolation:
            continue
        certified += 1
        if abs(r.state_measure_input.sum() - 1.0) > 1e-10:
            violations.append(f"model {i}: state measure sums to {r.state_measure_input.sum()}")
        spectra = spectrum_set(form)
        for ell in range(1, form.k + 1):
            if not spectra.attains(ell, r.rho_max) and r.block_measure[ell - 1] > 1e-10:
                violations.append(f"model {i}: low-root block {ell} carries mass")
        if form.k == 1:
            want = qg.irreducible_qed(m.Q)
            if np.max(np.abs(r.state_measure_input - want)) > 1e-10:
                violations.append(f"model {i}: irreducible measure mismatch")
    ok = not violations and certified >= 100
    report(13, ok, f"{certified} certified models of 500; violations: {violations[:3]}")
