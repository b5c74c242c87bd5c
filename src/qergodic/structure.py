"""Block-triangular normal form of the transient transition matrix and the
graph invariants it rests on: strongly connected components and block
periods.

The normal form orders the strongly connected components so that the permuted
matrix is lower block triangular: block i can only reach blocks j <= i.  The
order is canonical (deterministic for a fixed input): a block is placed as
soon as every block it points to is placed, and ties are broken by the
smallest original state index it contains.  Within a block, states keep their
input order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .model import SubstochasticModel


@dataclass(frozen=True)
class FrobeniusForm:
    """Permutation of the chain to lower block-triangular form.

    perm[p] is the 0-based original index of the state at normal-form
    position p, so permuted_Q = Q[perm][:, perm].  index_sets are 0-based
    ranges into the normal-form order.
    """

    perm: Tuple[int, ...]
    k: int
    block_sizes: Tuple[int, ...]
    index_sets: Tuple[range, ...]
    diag_blocks: Tuple[np.ndarray, ...]
    sub_blocks: Dict[Tuple[int, int], np.ndarray]
    permuted_Q: np.ndarray


def _strongly_connected_components(adj: List[List[int]]) -> List[List[int]]:
    """Tarjan's algorithm, iterative.  Returns components as sorted vertex
    lists, in reverse topological order of the condensation (sources last)."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    comps: List[List[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for i in range(pi, len(adj[v])):
                w = adj[v][i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
    return comps


def condense(model: SubstochasticModel) -> FrobeniusForm:
    """Compute the canonical lower block-triangular form of model.Q.

    Blocks are the strongly connected components of the digraph of Q; the
    off-diagonal block (i, j) is recorded in sub_blocks iff some entry is
    exactly nonzero in the input (structural test, no tolerance).
    """
    Q = model.Q
    d = model.d
    adj = [[j for j in range(d) if Q[i, j] != 0.0] for i in range(d)]
    comps = _strongly_connected_components(adj)
    k = len(comps)
    comp_of = [0] * d
    for c, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = c

    # condensation edges c -> c' when some state of c points into c'
    succ = [set() for _ in range(k)]
    for i in range(d):
        for j in adj[i]:
            if comp_of[i] != comp_of[j]:
                succ[comp_of[i]].add(comp_of[j])

    # canonical order: place a block once everything it points to is placed,
    # tie-broken by smallest original state index
    unplaced_succ = [len(s) for s in succ]
    pred = [set() for _ in range(k)]
    for c in range(k):
        for c2 in succ[c]:
            pred[c2].add(c)
    ready = sorted((c for c in range(k) if unplaced_succ[c] == 0), key=lambda c: comps[c][0])
    order: List[int] = []
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

    perm: List[int] = []
    block_sizes: List[int] = []
    for c in order:
        perm.extend(comps[c])
        block_sizes.append(len(comps[c]))
    permuted_Q = Q[np.ix_(perm, perm)]

    index_sets = []
    start = 0
    for size in block_sizes:
        index_sets.append(range(start, start + size))
        start += size
    diag_blocks = tuple(permuted_Q[np.ix_(r, r)] for r in index_sets)
    sub_blocks: Dict[Tuple[int, int], np.ndarray] = {}
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
        diag_blocks=diag_blocks,
        sub_blocks=sub_blocks,
        permuted_Q=permuted_Q,
    )


def block_period(block: np.ndarray) -> int:
    """Period of an irreducible block: gcd of (level(u) + 1 - level(v)) over
    all edges (u, v) of a BFS layering from vertex 0."""
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
