"""Normal form computation and block periods."""

import numpy as np
import pytest

import qergodic as qg
from qergodic.structure import block_period, condense

from conftest import model_of, random_model


def test_condense_triangular_input_is_identity():
    m = model_of("triangle_full")
    form = condense(m)
    assert form.perm == (0, 1, 2)
    assert form.k == 3
    assert form.block_sizes == (1, 1, 1)
    assert set(form.sub_blocks) == {(2, 1), (3, 1), (3, 2)}


def test_condense_irreducible_single_block():
    m = qg.validate([[0.2, 0.1], [0.1, 0.0]], [0.5, 0.5])
    form = condense(m)
    assert form.k == 1
    assert form.block_sizes == (2,)


def test_condense_reorders_upper_triangular():
    # state 1 feeds state 2; normal form must put state 2 first
    m = qg.validate([[0.3, 0.5], [0.0, 0.5]], [0.5, 0.5])
    form = condense(m)
    assert form.perm == (1, 0)
    assert np.array_equal(form.permuted_Q, np.array([[0.5, 0.0], [0.5, 0.3]]))


def test_permuted_q_is_reindexing_only():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = random_model(rng)
        form = condense(m)
        perm = list(form.perm)
        assert np.array_equal(form.permuted_Q, m.Q[np.ix_(perm, perm)])
        # lower block triangular
        for i, ri in enumerate(form.index_sets):
            for j in range(i + 1, form.k):
                assert not np.any(form.permuted_Q[np.ix_(ri, form.index_sets[j])])


def _block_partition(form, perm_map=None):
    out = set()
    for r in form.index_sets:
        states = [form.perm[p] for p in r]
        if perm_map is not None:
            states = [perm_map[s] for s in states]
        out.add(frozenset(states))
    return out


def test_condense_invariant_under_state_shuffle():
    rng = np.random.default_rng(17)
    for _ in range(25):
        m = random_model(rng)
        form = condense(m)
        sigma = rng.permutation(m.d)
        Qs = m.Q[np.ix_(sigma, sigma)]
        ms = qg.validate(Qs, m.pi[sigma])
        form_s = condense(ms)
        # shuffled-state p corresponds to original state sigma[p]
        assert _block_partition(form_s, perm_map=list(sigma)) == _block_partition(form)


def test_block_period_values():
    assert block_period(np.array([[0.0, 0.9], [0.9, 0.0]])) == 2
    assert block_period(np.array([[0.2, 0.1], [0.1, 0.0]])) == 1
    assert block_period(np.array([[0.5]])) == 1
    # 3-cycle
    B = np.zeros((3, 3))
    B[0, 1] = B[1, 2] = B[2, 0] = 0.9
    assert block_period(B) == 3


def test_block_period_divides_cycle_lengths():
    rng = np.random.default_rng(23)
    for _ in range(20):
        m = random_model(rng)
        form = condense(m)
        for B in form.diag_blocks:
            h = block_period(B)
            n = B.shape[0]
            # every closed walk through vertex 0 has length divisible by h
            A = (B != 0).astype(int)
            P = np.eye(n, dtype=int)
            for length in range(1, 2 * n + 1):
                P = P @ A
                if P[0, 0] > 0:
                    assert length % h == 0


def test_period_one_iff_wielandt_power_positive():
    # Wielandt: an irreducible n x n block is primitive iff its pattern raised
    # to (n - 1)^2 + 1 is positive.  A 1 x 1 block with a zero diagonal is a
    # trivial component (period 1 by convention, never positive), so n >= 2.
    rng = np.random.default_rng(29)
    blocks = []
    for _ in range(300):
        d = int(rng.integers(2, 7))
        Q = np.where(rng.random((d, d)) < rng.uniform(0.2, 0.6), 0.1, 0.0)
        form = condense(qg.validate(Q, np.full(d, 1.0 / d)))
        blocks.extend(B for B in form.diag_blocks if B.shape[0] >= 2)
    seen = set()
    for B in blocks:
        n = B.shape[0]
        positive = bool(np.all(np.linalg.matrix_power((B != 0.0).astype(float), (n - 1) ** 2 + 1) > 0))
        assert (block_period(B) == 1) == positive
        seen.add(positive)
    assert seen == {True, False}
