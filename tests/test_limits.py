"""Closed-form limit measures: golden values, dual evaluation routes, the
assumption report, and the end-to-end pipeline."""

import json
import math
import time

import numpy as np
import pytest

import qergodic as qg
from qergodic import limits
from qergodic.cli import main
from qergodic.errors import AssumptionViolation, NoQuasiStationary, NotIrreducible
from qergodic.paths import classify_path, maximal_paths
from qergodic.spectral import spectrum_set
from qergodic.structure import condense

from conftest import CHAINS, model_of, random_model
from oracles import NotScalarChain, NotSinglePath, scalar_case_qed, single_path_qed

S2 = math.sqrt(2.0)


def _pipeline(model, restrict=True):
    a = limits.analyze(model, restrict_to_pi_support=restrict)
    return a.form, a.spectra, a.family, a.report, model.pi[list(a.form.perm)]


# --- irreducible case ----------------------------------------------------


def test_irreducible_qed_exact_values():
    got = qg.irreducible_qed([[0.2, 0.1], [0.1, 0.0]])
    want = np.array([(3 + 2 * S2) / (4 + 2 * S2), 1 / (4 + 2 * S2)])
    assert np.max(np.abs(got - want)) <= 1e-10


def test_irreducible_qed_trivial_and_symmetric():
    assert np.allclose(qg.irreducible_qed([[0.5]]), [1.0])
    assert np.allclose(qg.irreducible_qed([[0.0, 0.9], [0.9, 0.0]]), [0.5, 0.5], atol=1e-10)


def test_irreducible_qed_rejects_reducible():
    with pytest.raises(NotIrreducible):
        qg.irreducible_qed([[0.3, 0.0], [0.5, 0.5]])


# --- quasi-stationary distribution ---------------------------------------


def test_qsd_two_state():
    got = qg.quasi_stationary_distribution([[0.3, 0.0], [0.5, 0.5]])
    assert np.max(np.abs(got - np.array([5 / 7, 2 / 7]))) <= 1e-9


def test_qsd_irreducible_and_scalar():
    got = qg.quasi_stationary_distribution([[0.2, 0.1], [0.1, 0.0]])
    want = np.array([(1 + S2) / (2 + S2), 1 / (2 + S2)])
    assert np.max(np.abs(got - want)) <= 1e-9
    assert np.allclose(qg.quasi_stationary_distribution([[0.4]]), [1.0])


@pytest.mark.parametrize(
    "Q",
    [CHAINS[name][0] for name in ("triangle_full", "triangle_split", "four_block", "five_block")] + [[[0, 0], [0.74, 0]]],
    ids=["triangle_full", "triangle_split", "four_block", "five_block", "nilpotent"],
)
def test_qsd_raises_at_once_without_a_unique_qsd(Q):
    # three or four blocks share the top root, or the top root is 0; power
    # iteration spent 5-15 s before giving up on these
    cpu = time.process_time()
    with pytest.raises(NoQuasiStationary):
        qg.quasi_stationary_distribution(Q)
    assert time.process_time() - cpu < 0.1


def test_qsd_is_the_left_eigenvector_of_the_unique_top_block():
    # on reducible chains with one top block: a nonnegative left eigenvector
    # for rho, exactly 0 off the top block and the blocks it reaches
    rng = np.random.default_rng(43)
    models = [model_of(name) for name in ("two_state", "matrix_block", "uncertified", "periodic")]
    models += [random_model(rng, d_max=8) for _ in range(200)]
    checked = 0
    for m in models:
        rho = max(np.linalg.eigvals(m.Q).real)
        try:
            qsd = qg.quasi_stationary_distribution(m.Q)
        except NoQuasiStationary:
            continue
        assert np.all(qsd >= 0) and abs(qsd.sum() - 1.0) <= 1e-12
        assert np.max(np.abs(qsd @ m.Q - rho * qsd)) <= 1e-12
        # positive exactly on the states the top block reaches
        form = condense(m)
        top = int(np.argmax([s.rho for s in spectrum_set(form).blocks]))
        start = np.zeros(m.d)
        start[[form.perm[p] for p in form.index_sets[top]]] = 1.0
        reached = start @ np.linalg.matrix_power(np.eye(m.d) + (m.Q > 0), m.d) > 0
        assert np.array_equal(qsd > 0, reached)
        checked += 1
    assert checked > 100
    assert np.array_equal(qg.quasi_stationary_distribution(CHAINS["uncertified"][0]), [1.0, 0.0, 0.0])


# --- assumption report ---------------------------------------------------


def test_report_certified_for_scalar_chain():
    m = model_of("triangle_full")
    form, spectra, family, _, _ = _pipeline(m)
    report = limits.check_assumptions(form, spectra, family)
    assert report.scalar_ok and report.witness_path is not None and report.certified


def test_report_flags_nonscalar_subdominant_block():
    m = model_of("uncertified")
    form, spectra, family, _, _ = _pipeline(m)
    report = limits.check_assumptions(form, spectra, family)
    assert not report.scalar_ok
    assert not report.certified
    assert report.violations


def test_no_witness_when_family_unreachable():
    # unrestricted family keeps dominant paths whose start block has no mass
    m = qg.validate([[0.3, 0.0], [0.5, 0.5]], [1.0, 0.0])
    form, spectra, family, _, _ = _pipeline(m, restrict=False)
    report = limits.check_assumptions(form, spectra, family)
    assert report.witness_path is None and not report.certified


# --- block and state measures --------------------------------------------


def test_block_qed_five_block():
    m = model_of("five_block")
    form, spectra, family, report, _ = _pipeline(m)
    got = limits.block_qed(form, spectra, family, report)
    assert np.max(np.abs(got - np.array([0.0, 0.15, 0.35, 0.35, 0.15]))) <= 1e-10


def test_block_qed_single_dominant_path():
    m = model_of("triangle_full")
    form, spectra, family, report, _ = _pipeline(m)
    got = limits.block_qed(form, spectra, family, report)
    assert np.max(np.abs(got - np.array([1 / 3, 1 / 3, 1 / 3]))) <= 1e-12


def test_block_qed_irreducible_single_block():
    m = qg.validate([[0.2, 0.1], [0.1, 0.0]], [0.5, 0.5])
    form, spectra, family, report, _ = _pipeline(m)
    assert np.allclose(limits.block_qed(form, spectra, family, report), [1.0])


def test_block_qed_raises_without_certification():
    m = model_of("uncertified")
    form, spectra, family, report, _ = _pipeline(m)
    with pytest.raises(AssumptionViolation) as exc:
        limits.block_qed(form, spectra, family, report)
    assert exc.value.report is not None


def test_state_qed_matrix_block():
    m = model_of("matrix_block")
    form, spectra, family, report, _ = _pipeline(m)
    got = limits.state_qed(form, spectra, family, report)
    want = np.array([(3 + 2 * S2) / (4 + 2 * S2), 1 / (4 + 2 * S2), 0.0])
    assert np.max(np.abs(got - want)) <= 1e-8


def test_state_qed_four_block():
    m = model_of("four_block")
    form, spectra, family, report, _ = _pipeline(m)
    got = limits.state_qed(form, spectra, family, report)
    assert np.max(np.abs(got - np.array([0.25, 0.25, 0.0, 0.5]))) <= 1e-10


def test_state_qed_scalar_equals_block():
    m = model_of("five_block")
    form, spectra, family, report, _ = _pipeline(m)
    assert np.array_equal(
        limits.state_qed(form, spectra, family, report), limits.block_qed(form, spectra, family, report)
    )


# --- dual evaluation routes ----------------------------------------------


def test_scalar_route_agrees_with_block_route():
    for name in ("two_state", "triangle_full", "triangle_split", "four_block", "five_block"):
        m = model_of(name)
        form, spectra, family, report, pi_nf = _pipeline(m)
        a = limits.block_qed(form, spectra, family, report)
        b = scalar_case_qed(form, spectra, family, pi_nf)
        assert np.max(np.abs(a - b)) <= 1e-12, name


def test_scalar_route_rejects_matrix_blocks():
    m = model_of("matrix_block")
    form, spectra, family, _, pi_nf = _pipeline(m)
    with pytest.raises(NotScalarChain):
        scalar_case_qed(form, spectra, family, pi_nf)


def test_scalar_route_triangle_split_values():
    m = model_of("triangle_split")
    form, spectra, family, _, pi_nf = _pipeline(m)
    got = scalar_case_qed(form, spectra, family, pi_nf)
    assert np.max(np.abs(got - np.array([0.5, 1 / 6, 1 / 3]))) <= 1e-12


def test_single_path_shortcut():
    m = model_of("triangle_full")
    form, spectra, family, report, _ = _pipeline(m)
    got = single_path_qed(family, spectra)
    assert np.array_equal(got, limits.block_qed(form, spectra, family, report))


def test_single_path_rejects_multiple():
    m = model_of("two_state")
    _, spectra, family, _, _ = _pipeline(m)
    with pytest.raises(NotSinglePath):
        single_path_qed(family, spectra)


# --- full pipeline -------------------------------------------------------


def test_full_qed_two_state_exact():
    r = qg.full_qed(model_of("two_state"))
    assert np.array_equal(r.state_measure_input, np.array([0.0, 1.0]))


def test_full_qed_shuffled_order():
    # same chain with states listed in the opposite order
    Q = np.array([[0.5, 0.5], [0.0, 0.3]])
    m = qg.validate(Q, [0.5, 0.5])
    r = qg.full_qed(m)
    assert np.max(np.abs(r.state_measure_input - np.array([1.0, 0.0]))) <= 1e-12
    assert r.perm == (1, 0)


def test_full_qed_irreducible_embedding():
    Q = np.array([[0.2, 0.1], [0.1, 0.0]])
    m = qg.validate(Q, [0.3, 0.7])
    r = qg.full_qed(m)
    assert np.max(np.abs(r.state_measure_input - qg.irreducible_qed(Q))) <= 1e-10


def test_full_qed_periodic_averaging():
    m = model_of("periodic")
    r = qg.full_qed(m)
    occ = qg.occupation_profile(m, 2000)
    assert np.max(np.abs(r.state_measure_input - occ)) <= 0.05
    assert abs(r.state_measure_input.sum() - 1.0) <= 1e-10


def test_full_qed_uncertified_raises():
    with pytest.raises(AssumptionViolation):
        qg.full_qed(model_of("uncertified"))


def test_nilpotent_chain_not_certified(tmp_path):
    # P(T > n) = 0 for n >= 2: the conditioned occupation has no limit
    Q, pi = [[0.0, 0.0], [0.74, 0.0]], [0.479, 0.521]
    with pytest.raises(AssumptionViolation) as exc:
        qg.full_qed(qg.validate(Q, pi))
    assert exc.value.report.violations[0].startswith("the dominant root is 0")
    doc = tmp_path / "nilpotent.json"
    doc.write_text(json.dumps({"Q": Q, "pi": pi}))
    assert main(["qed", str(doc), "--format", "json"]) != 0


def test_observable_limit():
    r = qg.full_qed(model_of("five_block"))
    got = limits.observable_limit(r, [1, 2, 3, 4, 5])
    assert abs(got - 3.5) <= 1e-9
    assert abs(limits.observable_limit(r, np.ones(5)) - 1.0) <= 1e-10


def test_block_and_state_sums_consistent():
    rng = np.random.default_rng(41)
    checked = 0
    for _ in range(60):
        m = random_model(rng)
        try:
            r = qg.full_qed(m)
        except AssumptionViolation:
            continue
        checked += 1
        assert abs(r.block_measure.sum() - 1.0) <= 1e-10
        assert abs(r.state_measure.sum() - 1.0) <= 1e-10
        form = condense(m)
        for ell, rr in enumerate(form.index_sets):
            assert abs(sum(r.state_measure[p] for p in rr) - r.block_measure[ell]) <= 1e-10
    assert checked >= 20


def test_unnormalized_pi_scale_invariance_of_weights():
    # the measure is a ratio of terms linear in pi, so scaling pi is inert
    m = model_of("five_block")
    form, spectra, family, report, pi_nf = _pipeline(m)
    a = limits.block_qed(form, spectra, family, report)
    scaled = [classify_path(form, spectra, p.theta, 3.7 * pi_nf) for p in family.all]
    fam2 = maximal_paths(scaled, spectra)
    b = limits.block_qed(form, spectra, fam2, limits.check_assumptions(form, spectra, fam2))
    assert np.max(np.abs(a - b)) <= 1e-12
