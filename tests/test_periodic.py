"""Chains with cyclic blocks: the same closed form as for primitive blocks,
and an uncertified report exactly where the conditioned occupation depends
on the phase n mod g.  Results are judged against the benchmark's
phase-averaged, extrapolated reference profile."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import qergodic as qg
from qergodic import limits
from qergodic.cli import main
from qergodic.errors import AssumptionViolation

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import chains  # noqa: E402
import reference  # noqa: E402

PHASE = "the limit depends on n mod"


def test_two_state_cycle_is_uniform():
    m = qg.validate([[0.0, 0.244], [0.648, 0.0]], [0.74, 0.26])
    got = qg.full_qed(m).state_measure_input
    assert np.max(np.abs(got - 0.5)) <= 1e-12


# periodic_chain(7, 22): each dominant path meets one of two period-3 blocks
# (h_max = 1); periodic_chain(8, 3): each passes a period-2 or a period-4
# block and then a shared period-4 block (h_max = 2)
@pytest.mark.parametrize("seed,index,h_max", [(7, 22, 1), (8, 3, 2)])
def test_phase_dependent_chain_is_uncertified(seed, index, h_max):
    c = chains.periodic_chain(seed, index)
    m = qg.validate(c.Q, c.pi)
    assert limits.analyze(m).family.h_max == h_max
    with pytest.raises(AssumptionViolation, match=PHASE):
        qg.full_qed(m)


@pytest.mark.parametrize("seed,index", [(7, 22), (8, 3)])
def test_analyze_falls_back_on_phase_dependent_chain(seed, index, tmp_path, capsys):
    c = chains.periodic_chain(seed, index)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"Q": c.Q.tolist(), "pi": c.pi.tolist()}))
    code = main(["analyze", str(path), "--format", "json", "--n", "200", "--trials", "200"])
    data = json.loads(capsys.readouterr().out)
    assert code == 2
    assert data["assumptions"]["certified"] is False
    assert any(PHASE in v for v in data["assumptions"]["violations"])
    assert "banner" in data["result"] and "finite_horizon" in data["result"]
    # every cyclic block sits at the top root, so the QSD is not unique
    assert "not unique" in data["quasi_stationary"]["error"]


def _random_periodic_chain(rng):
    """One to two cyclic blocks of periods 2-4 and sometimes a positive block,
    all at the top root, above one or two scalar blocks; at most 10 states.
    Each block but the first cyclic one loses its initial mass with
    probability 0.3, so that pi always reaches the top root."""
    while True:
        rho = float(rng.uniform(0.5, 0.8))
        periods = [int(p) for p in rng.integers(2, 5, int(rng.integers(1, 3)))]
        blocks = [chains._cyclic_block(rng, p, rho) for p in periods]
        if rng.random() < 0.3:
            blocks.append(chains._positive_block(rng, 2, rho))
        blocks += [np.array([[rho * rng.uniform(0.2, 0.85)]]) for _ in range(int(rng.integers(1, 3)))]
        if sum(len(b) for b in blocks) <= 10:
            break
    keeps_mass = rng.random(len(blocks)) >= 0.3
    keeps_mass[0] = True
    order = rng.permutation(len(blocks))
    Q, ranges = chains._assemble(rng, [blocks[o] for o in order], chains._random_edges(rng, len(blocks), 0.6))
    pi = rng.dirichlet(np.ones(Q.shape[0]))
    for r, o in zip(ranges, order):
        if not keeps_mass[o]:
            pi[list(r)] = 0.0
    return Q, pi / pi.sum(), math.lcm(*periods)


def test_random_periodic_chains_match_reference_or_are_uncertified():
    rng = np.random.default_rng(20)
    certified = 0
    n_chains = 36
    for i in range(n_chains):
        Q, pi, period = _random_periodic_chain(rng)
        # at this horizon the reference's own error (rounding grows with the
        # horizon) stays far below the tolerance
        ref, ref_err = reference.extrapolated_profile(Q, pi, period, log2_m=16)
        assert ref_err <= 1e-9, f"chain {i}: reference uncertain by {ref_err:.3g}"
        m = qg.validate(Q, pi)
        try:
            got = qg.full_qed(m).state_measure_input
        except AssumptionViolation as exc:
            assert PHASE in str(exc), f"chain {i}: {exc}"
            continue
        certified += 1
        dev = float(np.max(np.abs(got - ref)))
        assert dev <= 1e-8, f"chain {i}: state measure off by {dev:.3g}"
    assert certified >= 2 * n_chains / 3
