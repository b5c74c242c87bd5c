"""Closed-form conditioned limits: the irreducible case and the block-level
and state-level formulas for reducible chains.

The pipeline is `analyze` (normal form, block spectra, dominant path family,
assumption report) followed by `limit_measure` (the limit measures);
`full_qed` runs both.  Cyclic blocks take the same path as primitive ones:
only their Perron vectors enter the limit, and the assumption report marks
the chains whose conditioned occupation depends on the phase n mod g.

The reducible-case formula weights each dominant admissible path theta by

    alpha_theta * pi_mass(theta) * prod over below-maximum positions of
    1 / (rho_max - rho_u)

and distributes mass over blocks in proportion to the weights of the dominant
paths passing through them, divided by h_max (the shared count of
root-attaining positions), which makes the block masses sum to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import AssumptionViolation, NoQuasiStationary, NotIrreducible
from .model import SubstochasticModel
from .paths import AdmissiblePath, PathFamily, classify_path, enumerate_paths, maximal_paths
from .spectral import SpectrumSet, perron_data, spectrum_set
from .structure import FrobeniusForm, _strongly_connected_components, _successor_lists, condense

ALPHA_TOL = 1e-12
RHO_EQ_TOL = 1e-9


@dataclass(frozen=True)
class AssumptionReport:
    scalar_ok: bool
    witness_path: Optional[AdmissiblePath]
    violations: Tuple[str, ...]
    used_pi_restriction: bool

    @property
    def certified(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class QuasiErgodicResult:
    block_measure: np.ndarray
    state_measure: np.ndarray  # normal-form order
    state_measure_input: np.ndarray  # caller's original state order
    perm: Tuple[int, ...]
    rho_max: float
    h_max: int
    report: AssumptionReport


@dataclass(frozen=True)
class Analysis:
    """What the closed form is certified from.  The tolerances it was built
    with travel along: rho_eq_tol in spectra, the pi restriction in family."""

    form: FrobeniusForm
    spectra: SpectrumSet
    family: PathFamily
    report: AssumptionReport


def irreducible_qed(Q) -> np.ndarray:
    """Limit occupation measure of an irreducible chain: the componentwise
    product u_j v_j of the normalized left and right Perron eigenvectors.

    The cyclic case gives the same answer: u and v are shared between the
    chain and its aperiodic power, and only u and v enter."""
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise NotIrreducible("expected a square matrix")
    if len(_strongly_connected_components(_successor_lists(Q)[0])) != 1:
        raise NotIrreducible("matrix is not irreducible")
    _, v, u = perron_data(Q)
    return u * v


def quasi_stationary_distribution(Q) -> np.ndarray:
    """The quasi-stationary distribution: the left eigenvector of Q for its
    spectral radius rho, nonnegative and normalized to sum 1.

    Q is split into its strongly connected blocks, and `perron_data` solves
    each for its Perron root.  The distribution is unique exactly when one
    block l attains the top root rho > 0; if rho is 0 or another block ties
    it (relative tolerance RHO_EQ_TOL), NoQuasiStationary is raised at once.
    Otherwise block l carries its left Perron vector u_l, the states S that
    l reaches get u_S = u_l Q_lS (rho I - Q_SS)^-1 from one solve, and
    every other state gets exactly 0.  An irreducible Q gets u / sum(u).
    """
    Q = np.asarray(Q, dtype=float)
    adj = _successor_lists(Q)[0]
    blocks = _strongly_connected_components(adj)
    data = [perron_data(Q[np.ix_(b, b)]) for b in blocks]
    roots = [rho for rho, _, _ in data]
    top = int(np.argmax(roots))
    rho = roots[top]
    if rho == 0.0:
        raise NoQuasiStationary("the top root is 0: the chain is absorbed within finitely many steps")
    tied = sum(abs(r - rho) <= RHO_EQ_TOL * rho for r in roots)
    if tied > 1:
        raise NoQuasiStationary(
            f"{tied} blocks share the top root {rho:.6g}, so the quasi-stationary distribution is not unique"
        )
    L = blocks[top]
    reached, stack = set(L), list(L)
    while stack:
        for t in adj[stack.pop()]:
            if t not in reached:
                reached.add(t)
                stack.append(t)
    x = np.zeros(Q.shape[0])
    x[L] = data[top][2]
    S = sorted(reached.difference(L))
    if S:
        x[S] = np.linalg.solve(rho * np.eye(len(S)) - Q[np.ix_(S, S)].T, x[L] @ Q[np.ix_(L, S)])
    return x / x.sum()


def check_assumptions(
    form: FrobeniusForm,
    spectra: SpectrumSet,
    family: PathFamily,
    alpha_tol: float = ALPHA_TOL,
) -> AssumptionReport:
    """Certify applicability of the closed-form limit.

    Four requirements: the dominant root must be positive (at root 0 the
    chain is absorbed within finitely many steps, so no conditioned limit
    exists); every block whose root falls below the dominant root
    and which lies on a path that carries initial mass must be scalar; some
    dominant path must have a nonzero combined weight alpha * pi_mass
    (decided relative to the largest such weight, to avoid certifying an
    ill-conditioned limit); and the limit must not depend on the phase
    n mod g, which it does when the dominant paths do not all meet the same
    root-attaining blocks and the periods of one path's root-attaining
    blocks share a factor g > 1 (see `_phase_violation`)."""
    below_not_scalar = {
        t for t, s in enumerate(spectra.blocks, start=1) if not s.scalar and not spectra.attains(t, family.rho_max_eff)
    }
    flagged: List[int] = []  # in order of first appearance on a relevant path
    if below_not_scalar:
        relevant = family.all if not family.pi_restricted else tuple(p for p in family.all if p.pi_mass != 0.0)
        for p in relevant:
            for t in p.theta:
                if t in below_not_scalar and t not in flagged:
                    flagged.append(t)
    scalar_ok = not flagged
    violations = []
    if family.rho_max_eff == 0.0:
        violations.append(
            "the dominant root is 0: the chain is absorbed within finitely many steps, so no conditioned limit exists"
        )
    violations += [
        f"block {t} has root {spectra.rho(t):.6g} below the dominant root "
        f"but is not scalar (size {form.block_sizes[t - 1]})"
        for t in flagged
    ]
    alpha_values = {p.theta: p.alpha * p.pi_mass for p in family.maximal}
    max_weight = max((abs(w) for w in alpha_values.values()), default=0.0)
    witness = None
    if max_weight > 0.0:
        for p in family.maximal:
            if abs(alpha_values[p.theta]) > alpha_tol * max_weight:
                witness = p
                break
    if witness is None:
        violations.append("every dominant path has vanishing weight alpha * pi_mass")
    phase = _phase_violation(spectra, family)
    if phase is not None:
        violations.append(phase)
    return AssumptionReport(
        scalar_ok=scalar_ok,
        witness_path=witness,
        violations=tuple(violations),
        used_pi_restriction=family.pi_restricted,
    )


def _phase_violation(spectra: SpectrumSet, family: PathFamily) -> Optional[str]:
    """Why the conditioned occupation keeps oscillating with n, or None.

    Each cyclic block of period g has g peripheral eigenpairs, and every one
    of them has u_j v_j = u v.  So when every dominant path meets the same
    root-attaining blocks (its top set), the oscillation cancels in the
    ratio that defines the limit.  Otherwise a path's leading term
    n^(h-1) rho^n oscillates exactly when its top blocks share a root of
    unity other than 1, that is when their periods share a factor g > 1."""
    rho = family.rho_max_eff
    if not any(s.period > 1 for t, s in enumerate(spectra.blocks, start=1) if spectra.attains(t, rho)):
        return None
    top_sets = {tuple(t for t in p.theta if spectra.attains(t, rho)) for p in family.maximal}
    if len(top_sets) <= 1:
        return None
    for top in sorted(top_sets):
        periods = [spectra.blocks[t - 1].period for t in top]
        g = math.gcd(*periods)
        if g > 1:
            return (
                f"dominant paths meet different sets of root-attaining blocks, and the set {list(top)} "
                f"has periods {periods} with common factor {g}: the limit depends on n mod {g}"
            )
    return None


def _path_weight(p: AdmissiblePath, spectra: SpectrumSet, rho_max: float) -> float:
    w = p.alpha * p.pi_mass
    for pos in p.H_minus:
        w /= rho_max - spectra.rho(p.theta[pos - 1])
    return w


def block_qed(
    form: FrobeniusForm,
    spectra: SpectrumSet,
    family: PathFamily,
    report: AssumptionReport,
) -> np.ndarray:
    """Block-level limit measure.

    Blocks whose root falls below the dominant root, and blocks missed by
    every dominant path, get exactly zero."""
    if not report.certified:
        raise AssumptionViolation("closed-form limit is not certified: " + "; ".join(report.violations), report=report)
    rho_max = family.rho_max_eff
    weights = {p.theta: _path_weight(p, spectra, rho_max) for p in family.maximal}
    denom = family.h_max * sum(weights.values())
    out = np.zeros(form.k)
    for ell in range(1, form.k + 1):
        if not spectra.attains(ell, rho_max):
            continue
        group = family.per_block[ell]
        if not group:
            continue
        out[ell - 1] = sum(weights[p.theta] for p in group) / denom
    return out


def state_qed(
    form: FrobeniusForm,
    spectra: SpectrumSet,
    family: PathFamily,
    report: AssumptionReport,
) -> np.ndarray:
    """State-level limit measure in normal-form order: within a block, the
    block mass is spread proportionally to u_t v_t (which sums to one)."""
    blocks = block_qed(form, spectra, family, report)
    out = np.zeros(sum(form.block_sizes))
    for ell in range(1, form.k + 1):
        if blocks[ell - 1] == 0.0:
            continue
        s = spectra.blocks[ell - 1]
        for t, p in enumerate(form.index_sets[ell - 1]):
            out[p] = s.u[t] * s.v[t] * blocks[ell - 1]
    return out


def observable_limit(result: QuasiErgodicResult, f) -> float:
    """Limit of the conditioned time average of f (given in input order)."""
    f = np.asarray(f, dtype=float).reshape(-1)
    return float(f @ result.state_measure_input)


def analyze(
    model: SubstochasticModel,
    rho_eq_tol: float = RHO_EQ_TOL,
    alpha_tol: float = ALPHA_TOL,
    restrict_to_pi_support: bool = True,
) -> Analysis:
    """Normal form, block spectra, dominant path family and assumption report
    of one chain: everything `limit_measure` and the CLI read."""
    form = condense(model)
    spectra = spectrum_set(form, rho_eq_tol)
    pi_nf = model.pi[list(form.perm)]
    classified = [classify_path(form, spectra, th, pi_nf) for th in enumerate_paths(form)]
    family = maximal_paths(classified, spectra, restrict_to_pi_support)
    report = check_assumptions(form, spectra, family, alpha_tol)
    return Analysis(form=form, spectra=spectra, family=family, report=report)


def limit_measure(analysis: Analysis) -> QuasiErgodicResult:
    """Block and state limit measures of the analysed chain."""
    form, spectra, family, report = analysis.form, analysis.spectra, analysis.family, analysis.report
    blocks = block_qed(form, spectra, family, report)
    states = state_qed(form, spectra, family, report)
    state_input = np.zeros_like(states)
    state_input[list(form.perm)] = states
    return QuasiErgodicResult(
        block_measure=blocks,
        state_measure=states,
        state_measure_input=state_input,
        perm=form.perm,
        rho_max=family.rho_max_eff,
        h_max=family.h_max,
        report=report,
    )


def full_qed(
    model: SubstochasticModel,
    rho_eq_tol: float = RHO_EQ_TOL,
    alpha_tol: float = ALPHA_TOL,
    restrict_to_pi_support: bool = True,
) -> QuasiErgodicResult:
    """End-to-end pipeline: `analyze`, then `limit_measure`."""
    return limit_measure(analyze(model, rho_eq_tol, alpha_tol, restrict_to_pi_support))
