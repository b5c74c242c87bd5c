"""Normal form computation and block periods."""

import math
import pickle

import numpy as np
import pytest

import qergodic as qg
from qergodic.structure import FrobeniusForm, _strongly_connected_components, block_period, condense

from conftest import CHAINS, model_of, random_model
from oracles import components_by_closure


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


def _condense_oracle(model):
    """The normal form by plain loops: adjacency by a d^2 scan, the canonical
    order by re-sorting the ready list, off-diagonal blocks by a k^2 scan."""
    Q = model.Q
    d = model.d
    adj = [[j for j in range(d) if Q[i, j] != 0.0] for i in range(d)]
    comps = _strongly_connected_components(adj)
    k = len(comps)
    comp_of = [0] * d
    for c, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = c
    succ = [set() for _ in range(k)]
    for i in range(d):
        for j in adj[i]:
            if comp_of[i] != comp_of[j]:
                succ[comp_of[i]].add(comp_of[j])
    unplaced_succ = [len(s) for s in succ]
    pred = [set() for _ in range(k)]
    for c in range(k):
        for c2 in succ[c]:
            pred[c2].add(c)
    ready = sorted((c for c in range(k) if unplaced_succ[c] == 0), key=lambda c: comps[c][0])
    order = []
    while ready:
        c = ready.pop(0)
        order.append(c)
        changed = False
        for p in pred[c]:
            unplaced_succ[p] -= 1
            if unplaced_succ[p] == 0:
                ready.append(p)
                changed = True
        if changed:
            ready.sort(key=lambda c2: comps[c2][0])
    perm = [v for c in order for v in comps[c]]
    block_sizes = [len(comps[c]) for c in order]
    permuted_Q = Q[np.ix_(perm, perm)]
    index_sets = []
    start = 0
    for size in block_sizes:
        index_sets.append(range(start, start + size))
        start += size
    sub_blocks = {}
    for i in range(k):
        for j in range(i):
            blk = permuted_Q[np.ix_(index_sets[i], index_sets[j])]
            if np.any(blk != 0.0):
                sub_blocks[(i + 1, j + 1)] = blk
    return FrobeniusForm(
        perm=tuple(perm),
        k=k,
        block_sizes=tuple(block_sizes),
        index_sets=tuple(index_sets),
        diag_blocks=tuple(permuted_Q[np.ix_(r, r)] for r in index_sets),
        sub_blocks=sub_blocks,
        permuted_Q=permuted_Q,
    )


def _block_period_oracle(block):
    """Period by a queue BFS from vertex 0 and a gcd over an n^2 entry scan."""
    n = block.shape[0]
    if n == 1:
        return 1
    level = [-1] * n
    level[0] = 0
    queue = [0]
    while queue:
        v = queue.pop(0)
        for w in range(n):
            if block[v, w] != 0.0 and level[w] == -1:
                level[w] = level[v] + 1
                queue.append(w)
    g = 0
    for v in range(n):
        for w in range(n):
            if block[v, w] != 0.0:
                g = math.gcd(g, level[v] + 1 - level[w])
    return g


def _form_fields(form):
    """Every field of a FrobeniusForm, with the sub_blocks keys in order."""
    return (
        form.perm,
        form.k,
        form.block_sizes,
        form.index_sets,
        form.diag_blocks,
        list(form.sub_blocks.items()),
        form.permuted_Q,
    )


def _scalar_dag(rng, k, in_edges=3):
    """k scalar blocks in shuffled order; each block after the first few
    receives in_edges connectors from blocks drawn before it."""
    Q = np.diag(rng.uniform(0.1, 0.5, k))
    for i in range(1, k):
        for j in rng.choice(i, size=min(i, in_edges), replace=False):
            Q[i, j] = rng.uniform(0.01, 0.1)
    sigma = rng.permutation(k)
    return qg.validate(Q[np.ix_(sigma, sigma)], rng.dirichlet(np.ones(k)))


def _oracle_models():
    rng = np.random.default_rng(31)
    models = [model_of(name) for name in CHAINS]
    models += [random_model(rng, d_max=10) for _ in range(200)]
    models.append(_scalar_dag(rng, 200))
    return models


def test_condense_bytes_equal_to_loop_oracle():
    for m in _oracle_models():
        form = condense(m)
        assert pickle.dumps(_form_fields(form)) == pickle.dumps(_form_fields(_condense_oracle(m)))
        # each block is its own array, not a view of permuted_Q
        assert not any(np.shares_memory(B, form.permuted_Q) for B in form.diag_blocks + tuple(form.sub_blocks.values()))
    assert form.k == 200 and len(form.sub_blocks) == 3 * 200 - 6


def test_block_period_equal_to_loop_oracle():
    periods = []
    for m in _oracle_models():
        for B in condense(m).diag_blocks:
            h = block_period(B)
            assert type(h) is int and h == _block_period_oracle(B)
            periods.append(h)
    assert max(periods) > 1


# --- strongly connected components against the reachability closure ----------


def _check_components(adj, comps):
    """Tarjan's components are the closure's, each sorted, listed sinks first."""
    assert sorted(comps) == components_by_closure(adj)
    position = {v: c for c, comp in enumerate(comps) for v in comp}
    for i, succ in enumerate(adj):
        for j in succ:
            assert position[j] <= position[i], f"edge {i}->{j} points to a later component"


def _random_digraph(rng, n, p):
    """Successor lists of a random digraph, self-loops included; about a
    tenth of the states are made isolated."""
    A = rng.random((n, n)) < p
    isolated = rng.random(n) < 0.1
    A[isolated] = False
    A[:, isolated] = False
    return [np.flatnonzero(row).tolist() for row in A]


def test_scc_matches_closure_on_random_digraphs():
    rng = np.random.default_rng(181)
    for p in (0.02, 0.06, 0.12, 0.3):
        for _ in range(50):
            adj = _random_digraph(rng, int(rng.integers(1, 40)), p)
            _check_components(adj, _strongly_connected_components(adj))


def test_scc_self_loops_and_isolated_states():
    adj = [[0], [], [2, 3], [2], [4, 1], []]
    comps = _strongly_connected_components(adj)
    assert sorted(comps) == [[0], [1], [2, 3], [4], [5]]
    _check_components(adj, comps)


def test_scc_long_path_needs_no_recursion():
    n = 2000
    adj = [[i + 1] for i in range(n - 1)] + [[]]
    comps = _strongly_connected_components(adj)
    assert comps == [[i] for i in reversed(range(n))]
    _check_components(adj, comps)


def test_scc_matches_closure_on_dense_digraphs():
    rng = np.random.default_rng(182)
    n = 300
    # one dense component beside isolated states, then three dense clusters
    # with one-way links
    adj = _random_digraph(rng, n, 0.5)
    _check_components(adj, _strongly_connected_components(adj))
    cluster = np.arange(n) // 100
    A = (rng.random((n, n)) < 0.4) & (cluster[:, None] == cluster[None, :])
    A |= (rng.random((n, n)) < 0.01) & (cluster[:, None] > cluster[None, :])
    sigma = rng.permutation(n)
    adj = [np.flatnonzero(row).tolist() for row in A[np.ix_(sigma, sigma)]]
    comps = _strongly_connected_components(adj)
    assert sorted(len(c) for c in comps) == [100, 100, 100]
    _check_components(adj, comps)
